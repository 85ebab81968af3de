//! Hand-rolled binary encoding for the relational substrate.
//!
//! The durability layer (crate `durable`) serializes catalog state and
//! WAL records without serde (the build environment has no registry
//! access), so the substrate provides its own length-prefixed codec for
//! the types whose internals live in this crate: [`Value`], [`Schema`],
//! [`Tuple`], and whole [`Relation`]s including their slot layout.
//!
//! Layout conventions, shared by every `encode_*`/`decode_*` pair:
//!
//! * integers are little-endian fixed width;
//! * strings and sequences carry a `u32` length prefix;
//! * enums carry a one-byte tag;
//! * floats are stored as their IEEE-754 bit pattern (`f64::to_bits`),
//!   so NaN payloads and signed zeros round-trip exactly.
//!
//! A relation is encoded slot-for-slot — holes and the free-list order
//! included — because `TupleId` assignment pops the free stack: a
//! restored relation must hand out the same ids the original would
//! have, or log replay after a snapshot would diverge.

use crate::relation::{Relation, Tuple};
use crate::schema::{Attribute, Schema};
use crate::value::{AttrType, Value};
use std::fmt;

/// Decoding errors. Encoding is infallible (it only appends to a
/// growable buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the announced structure was complete.
    Truncated { needed: usize, available: usize },
    /// An enum tag byte had no defined meaning.
    BadTag { what: &'static str, tag: u8 },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Structurally well-formed input describing an impossible value
    /// (e.g. a free-list entry pointing at an occupied slot).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::Invalid(m) => write!(f, "invalid encoded value: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty buffer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A `u32` length prefix followed by the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(|[b]| b)
    }

    /// Takes the next `N` raw bytes as a fixed-width array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let Some(out) = self.buf[self.pos..].first_chunk::<N>() else {
            return Err(CodecError::Truncated {
                needed: N,
                available: self.remaining(),
            });
        };
        self.pos += N;
        Ok(*out)
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn i32(&mut self) -> Result<i32, CodecError> {
        self.array().map(i32::from_le_bytes)
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.array().map(i64::from_le_bytes)
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    /// A `u32` element count, refused unless the remaining input could
    /// hold that many elements of at least `min_bytes` each. Every
    /// counted sequence is read through this before anything is
    /// reserved, so a corrupted or hostile count cannot size an
    /// allocation beyond a small multiple of the input.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_bytes {
            return Err(CodecError::Truncated {
                needed: n.saturating_mul(min_bytes),
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Inverse of [`Writer::str`]. The length prefix is validated
    /// against the remaining input before any allocation, so a
    /// corrupted length cannot trigger an over-sized reservation.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

const VALUE_BOOL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;

/// Encodes one [`Value`] as `tag + payload`.
pub fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Bool(b) => {
            w.u8(VALUE_BOOL);
            w.bool(*b);
        }
        Value::Int(i) => {
            w.u8(VALUE_INT);
            w.i64(*i);
        }
        Value::Float(x) => {
            w.u8(VALUE_FLOAT);
            w.f64(*x);
        }
        Value::Str(s) => {
            w.u8(VALUE_STR);
            w.str(s);
        }
    }
}

/// Inverse of [`encode_value`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    match r.u8()? {
        VALUE_BOOL => Ok(Value::Bool(r.bool()?)),
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(r.f64()?)),
        VALUE_STR => Ok(Value::Str(r.str()?)),
        tag => Err(CodecError::BadTag { what: "value", tag }),
    }
}

fn encode_attr_type(w: &mut Writer, ty: AttrType) {
    w.u8(match ty {
        AttrType::Bool => VALUE_BOOL,
        AttrType::Int => VALUE_INT,
        AttrType::Float => VALUE_FLOAT,
        AttrType::Str => VALUE_STR,
    });
}

fn decode_attr_type(r: &mut Reader<'_>) -> Result<AttrType, CodecError> {
    match r.u8()? {
        VALUE_BOOL => Ok(AttrType::Bool),
        VALUE_INT => Ok(AttrType::Int),
        VALUE_FLOAT => Ok(AttrType::Float),
        VALUE_STR => Ok(AttrType::Str),
        tag => Err(CodecError::BadTag {
            what: "attr type",
            tag,
        }),
    }
}

/// Encodes a [`Schema`]: name, then attributes in declaration order.
pub fn encode_schema(w: &mut Writer, schema: &Schema) {
    w.str(schema.name());
    w.u32(schema.arity() as u32);
    for attr in schema.attributes() {
        w.str(&attr.name);
        encode_attr_type(w, attr.ty);
    }
}

/// Inverse of [`encode_schema`].
pub fn decode_schema(r: &mut Reader<'_>) -> Result<Schema, CodecError> {
    let name = r.str()?;
    // Each attribute costs at least 5 bytes: name length prefix + type tag.
    let arity = r.count(5)?;
    let mut attrs: Vec<Attribute> = Vec::with_capacity(arity);
    for _ in 0..arity {
        attrs.push(Attribute {
            name: r.str()?,
            ty: decode_attr_type(r)?,
        });
    }
    // `SchemaBuilder` panics on duplicates (a programming error on the
    // construction path) and finds them by scanning; decoding untrusted
    // bytes must error, and in time linear in the input.
    Schema::from_attributes(name, attrs)
        .map_err(|dup| CodecError::Invalid(format!("duplicate attribute {dup:?}")))
}

/// Encodes a [`Tuple`] as a counted value sequence.
pub fn encode_tuple(w: &mut Writer, tuple: &Tuple) {
    w.u32(tuple.arity() as u32);
    for v in tuple.values() {
        encode_value(w, v);
    }
}

/// Inverse of [`encode_tuple`].
pub fn decode_tuple(r: &mut Reader<'_>) -> Result<Tuple, CodecError> {
    let arity = r.count(2)?;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(r)?);
    }
    Ok(Tuple::new(values))
}

/// Encodes a whole [`Relation`]: schema, every slot (holes included),
/// and the free-slot stack in order.
pub fn encode_relation(w: &mut Writer, rel: &Relation) {
    encode_schema(w, rel.schema());
    let slots = rel.slots();
    w.u32(slots.len() as u32);
    for slot in slots {
        match slot {
            Some(tuple) => {
                w.u8(1);
                encode_tuple(w, tuple);
            }
            None => w.u8(0),
        }
    }
    let free = rel.free_list();
    w.u32(free.len() as u32);
    for &ix in free {
        w.u32(ix);
    }
}

/// Inverse of [`encode_relation`]. Validates that every stored tuple
/// matches the schema and that the free list is exactly the set of
/// empty slots (in any order — the *order* is preserved as written).
pub fn decode_relation(r: &mut Reader<'_>) -> Result<Relation, CodecError> {
    let schema = decode_schema(r)?;
    let slot_count = r.count(1)?;
    let mut slots: Vec<Option<Tuple>> = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        match r.u8()? {
            0 => slots.push(None),
            1 => {
                let tuple = decode_tuple(r)?;
                if tuple.arity() != schema.arity() {
                    return Err(CodecError::Invalid(format!(
                        "tuple arity {} does not match schema {}",
                        tuple.arity(),
                        schema.arity()
                    )));
                }
                for (attr, v) in schema.attributes().iter().zip(tuple.values()) {
                    if v.attr_type() != attr.ty {
                        return Err(CodecError::Invalid(format!(
                            "attribute {:?}: expected {}, got {}",
                            attr.name,
                            attr.ty,
                            v.attr_type()
                        )));
                    }
                }
                slots.push(Some(tuple));
            }
            tag => return Err(CodecError::BadTag { what: "slot", tag }),
        }
    }
    let free_count = r.count(4)?;
    let mut free: Vec<u32> = Vec::with_capacity(free_count);
    for _ in 0..free_count {
        free.push(r.u32()?);
    }
    // The free list must enumerate exactly the holes: every entry names
    // an empty slot, no entry repeats, and no hole is missing — the len
    // counter and TupleId reuse both depend on it.
    let mut holes: Vec<u32> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i as u32))
        .collect();
    let mut sorted_free = free.clone();
    sorted_free.sort_unstable();
    holes.sort_unstable();
    if sorted_free != holes {
        return Err(CodecError::Invalid(
            "free list does not match empty slots".into(),
        ));
    }
    Ok(Relation::from_parts(schema, slots, free))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::TupleId;

    fn emp_rel() -> Relation {
        let mut rel = Relation::new(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .attr("score", AttrType::Float)
                .attr("active", AttrType::Bool)
                .build(),
        );
        for i in 0..6i64 {
            rel.insert(vec![
                Value::str(format!("e{i}")),
                Value::Int(i),
                Value::Float(i as f64 / 3.0),
                Value::Bool(i % 2 == 0),
            ])
            .unwrap();
        }
        rel
    }

    fn round_trip(rel: &Relation) -> Relation {
        let mut w = Writer::new();
        encode_relation(&mut w, rel);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let out = decode_relation(&mut r).unwrap();
        assert!(r.is_empty(), "decoder must consume every byte");
        out
    }

    #[test]
    fn value_round_trips_all_variants() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(1e-300),
            Value::str(""),
            Value::str("héllo \"quoted\" \\slash\n"),
        ] {
            let mut w = Writer::new();
            encode_value(&mut w, &v);
            let bytes = w.into_bytes();
            let got = decode_value(&mut Reader::new(&bytes)).unwrap();
            // Bit-exact for floats: compare through the total order.
            assert_eq!(got.cmp(&v), std::cmp::Ordering::Equal, "{v:?}");
            if let (Value::Float(a), Value::Float(b)) = (&got, &v) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn schema_and_tuple_round_trip() {
        let rel = emp_rel();
        let mut w = Writer::new();
        encode_schema(&mut w, rel.schema());
        let bytes = w.into_bytes();
        assert_eq!(
            &decode_schema(&mut Reader::new(&bytes)).unwrap(),
            rel.schema()
        );

        let (_, tuple) = rel.iter().next().unwrap();
        let mut w = Writer::new();
        encode_tuple(&mut w, tuple);
        let bytes = w.into_bytes();
        assert_eq!(&decode_tuple(&mut Reader::new(&bytes)).unwrap(), tuple);
    }

    #[test]
    fn relation_round_trip_preserves_ids_and_free_order() {
        let mut rel = emp_rel();
        // Punch holes in a specific order: free stack becomes [4, 1].
        rel.delete(TupleId(4)).unwrap();
        rel.delete(TupleId(1)).unwrap();
        let restored = round_trip(&rel);
        assert_eq!(restored.len(), rel.len());
        assert_eq!(
            restored.iter().collect::<Vec<_>>(),
            rel.iter().collect::<Vec<_>>()
        );
        // Next insert must reuse slot 1 (top of the free stack), then 4 —
        // identical to what the original relation would do.
        let mut a = rel.clone();
        let mut b = restored;
        for _ in 0..3 {
            let row = vec![
                Value::str("new"),
                Value::Int(9),
                Value::Float(0.5),
                Value::Bool(false),
            ];
            assert_eq!(a.insert(row.clone()).unwrap(), b.insert(row).unwrap());
        }
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let rel = emp_rel();
        let mut w = Writer::new();
        encode_relation(&mut w, &rel);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = decode_relation(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn corrupt_tags_and_free_lists_are_rejected() {
        assert!(matches!(
            decode_value(&mut Reader::new(&[9])),
            Err(CodecError::BadTag { .. })
        ));

        // A free list naming an occupied slot must not decode.
        let mut rel = emp_rel();
        rel.delete(TupleId(2)).unwrap();
        let mut w = Writer::new();
        encode_relation(&mut w, &rel);
        let mut bytes = w.into_bytes();
        // The trailing u32 is the single free-list entry (slot 2).
        let n = bytes.len();
        bytes[n - 4] = 0; // now claims slot 0, which is occupied
        assert!(matches!(
            decode_relation(&mut Reader::new(&bytes)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn hostile_arity_is_an_error_not_a_reservation() {
        // The schema of the 19-byte `APPLY` frame that used to abort the
        // rule server: `with_capacity(u32::MAX)` attributes is ~100 GB.
        let mut w = Writer::new();
        w.str("r");
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_schema(&mut Reader::new(&bytes)),
            Err(CodecError::Truncated { .. })
        ));
        // One byte short of what the claimed arity needs is refused the
        // same way; exactly enough is judged by its content.
        let mut w = Writer::new();
        w.str("r");
        w.u32(2);
        w.str("a");
        encode_attr_type(&mut w, AttrType::Int);
        w.bytes(&[0, 0, 0]);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_schema(&mut Reader::new(&bytes)),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn duplicate_attributes_are_rejected_at_any_arity() {
        // Wide enough that a pairwise scan (what the decoder and the
        // builder both used to do) would be ~5e9 string compares.
        let arity = 100_000u32;
        let encode = |last: &str| {
            let mut w = Writer::new();
            w.str("wide");
            w.u32(arity);
            for i in 0..arity - 1 {
                w.str(&format!("a{i}"));
                encode_attr_type(&mut w, AttrType::Int);
            }
            w.str(last);
            encode_attr_type(&mut w, AttrType::Int);
            w.into_bytes()
        };
        let schema = decode_schema(&mut Reader::new(&encode("last"))).unwrap();
        assert_eq!(schema.arity(), arity as usize);
        assert_eq!(
            decode_schema(&mut Reader::new(&encode("a7"))),
            Err(CodecError::Invalid("duplicate attribute \"a7\"".into()))
        );
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = Writer::new();
        w.u8(VALUE_STR);
        w.u32(2);
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert_eq!(
            decode_value(&mut Reader::new(&bytes)),
            Err(CodecError::BadUtf8)
        );
    }
}
