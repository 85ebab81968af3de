//! The wire protocol: length-prefixed, checksummed frames.
//!
//! ## Frame format
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! [u32 len][u32 crc][u8 opcode][payload]
//! ```
//!
//! All integers little-endian. `len` counts the opcode byte plus the
//! payload (so a frame occupies `8 + len` bytes on the wire), and
//! `crc` is the WAL's CRC-32 (IEEE 802.3, [`durable::crc::Crc32`])
//! over the opcode byte and the payload. A frame whose length is
//! outside `1..=MAX_FRAME` or whose checksum mismatches is a protocol
//! error — unlike the WAL there is no torn-tail tolerance: a TCP
//! stream either delivers bytes intact or the connection dies.
//!
//! ## Opcode table
//!
//! Requests (client → server):
//!
//! | opcode | name        | payload                                   |
//! |--------|-------------|-------------------------------------------|
//! | `0x01` | `PING`      | empty                                     |
//! | `0x02` | `APPLY`     | a [`durable::Record`] (self-describing: its leading tag byte selects create/drop relation, add/remove rule, insert, update, delete, insert-batch) |
//! | `0x03` | `SUBSCRIBE` | empty — start streaming rule firings      |
//! | `0x04` | `UNSUBSCRIBE` | empty                                   |
//! | `0x05` | `HEALTH`    | empty                                     |
//! | `0x06` | `SYNC`      | empty — force a WAL fsync                 |
//!
//! Replies (server → client). Every request produces exactly one
//! reply, in request order; `EVENT` and `LAGGED` frames are *pushed*
//! (they answer no request) and may interleave anywhere:
//!
//! | opcode | name      | payload                                     |
//! |--------|-----------|---------------------------------------------|
//! | `0x81` | `PONG`    | empty                                       |
//! | `0x82` | `UNIT`    | empty — success with nothing to report      |
//! | `0x83` | `FIRE`    | `u64 seq, u64 ops, u32 n, n × (u32 rule_id, str name)` |
//! | `0x84` | `RULE_ID` | `u32` — the id `ADD_RULE` allocated         |
//! | `0x85` | `HEALTH`  | `str` — the engine's health text            |
//! | `0x86` | `ERR`     | `str` — the operation failed (it may still be WAL-logged; see durable's semantics) |
//! | `0x87` | `BUSY`    | empty — engine queue full, op NOT logged; retry |
//! | `0x88` | `EVENT`   | `u64 seq, u32 rule_id, str name` — one rule firing. A firing of a multi-premise (join) rule appends its bound tuples: `u32 n, n × (str relation, u32 tuple_id, u32 k, k × value)`. The suffix is absent (not zero-length) for plain firings, so the frame is byte-identical to the pre-join encoding |
//! | `0x89` | `LAGGED`  | `u64 n` — n events were dropped because this connection's reply queue was full |
//!
//! Strings use [`relation::codec`]'s length-prefixed UTF-8 encoding.
//!
//! ## Trace ids
//!
//! Any request frame may carry an optional 8-byte little-endian trace
//! id as a payload *suffix* (after the empty payload of `PING`-class
//! ops, after the record of `APPLY`). Like the `EVENT` bindings
//! suffix, absence is encoded by omission — a request without a trace
//! id is byte-identical to the pre-trace protocol, so old clients and
//! new servers (and vice versa, untraced) interoperate frame-for-frame.
//! [`Request::decode_traced`] accepts both forms;
//! [`Request::decode`] stays strict and rejects the suffix. The id is
//! request metadata, not data: the server stamps it on its
//! `server_request` span and the slow-op log, and it never reaches
//! the WAL.

use durable::crc::Crc32;
use durable::Record;
use relation::codec::{self, CodecError, Reader, Writer};
use relation::Value;
use std::io::{self, Read, Write};

/// Upper bound on a frame's `len` field — same ceiling as the WAL's
/// frames; anything larger is corruption or abuse, not data.
pub const MAX_FRAME: u32 = 1 << 26;

/// The most a frame header alone makes [`read_frame`] reserve.
pub const FRAME_RESERVE: usize = 64 << 10;

/// Request opcodes.
pub const OP_PING: u8 = 0x01;
/// See [`OP_PING`].
pub const OP_APPLY: u8 = 0x02;
/// See [`OP_PING`].
pub const OP_SUBSCRIBE: u8 = 0x03;
/// See [`OP_PING`].
pub const OP_UNSUBSCRIBE: u8 = 0x04;
/// See [`OP_PING`].
pub const OP_HEALTH: u8 = 0x05;
/// See [`OP_PING`].
pub const OP_SYNC: u8 = 0x06;

/// Reply opcodes.
pub const OP_PONG: u8 = 0x81;
/// See [`OP_PONG`].
pub const OP_UNIT: u8 = 0x82;
/// See [`OP_PONG`].
pub const OP_FIRE: u8 = 0x83;
/// See [`OP_PONG`].
pub const OP_RULE_ID: u8 = 0x84;
/// See [`OP_PONG`].
pub const OP_HEALTH_REPLY: u8 = 0x85;
/// See [`OP_PONG`].
pub const OP_ERR: u8 = 0x86;
/// See [`OP_PONG`].
pub const OP_BUSY: u8 = 0x87;
/// See [`OP_PONG`].
pub const OP_EVENT: u8 = 0x88;
/// See [`OP_PONG`].
pub const OP_LAGGED: u8 = 0x89;

/// Protocol-layer errors.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket failure (including a connection torn mid-frame).
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame or payload.
    Corrupt(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol i/o: {e}"),
            ProtoError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Corrupt(e.to_string())
    }
}

/// Serializes one frame into a buffer (one `write_all` keeps a frame
/// contiguous even when several threads share fan-in upstream).
pub fn encode_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let len = (1 + payload.len()) as u32;
    let mut crc = Crc32::new();
    crc.update(&[opcode]);
    crc.update(payload);
    let mut out = Vec::with_capacity(8 + 1 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.push(opcode);
    out.extend_from_slice(payload);
    out
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(opcode, payload))
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream at a frame
/// boundary; EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`]
/// error, and a bad length or checksum is [`ProtoError::Corrupt`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ProtoError> {
    let mut head = [0u8; 8];
    // A clean close before the first header byte is not an error.
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtoError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let [l0, l1, l2, l3, c0, c1, c2, c3] = head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let stored_crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if !(1..=MAX_FRAME).contains(&len) {
        return Err(ProtoError::Corrupt(format!(
            "frame length {len} out of range"
        )));
    }
    // Reserve for what arrives, not for what the header claims: past
    // `FRAME_RESERVE` the buffer grows with the bytes actually read, so
    // a hostile length costs its sender the bandwidth, not us the memory.
    let mut body = Vec::with_capacity((len as usize).min(FRAME_RESERVE));
    r.by_ref().take(u64::from(len)).read_to_end(&mut body)?;
    if body.len() < len as usize {
        return Err(ProtoError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        )));
    }
    let mut crc = Crc32::new();
    crc.update(&body);
    if crc.finish() != stored_crc {
        return Err(ProtoError::Corrupt("frame checksum mismatch".into()));
    }
    let Some((&opcode, payload)) = body.split_first() else {
        return Err(ProtoError::Corrupt("empty frame body".into()));
    };
    Ok(Some((opcode, payload.to_vec())))
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe, answered by the session thread without queueing
    /// behind the engine.
    Ping,
    /// One logged engine mutation — the payload reuses the WAL's
    /// self-describing [`Record`] encoding, so the wire and the log
    /// speak the same dialect.
    Apply(Record),
    /// Start streaming rule-firing [`Event`]s to this connection.
    Subscribe,
    /// Stop streaming.
    Unsubscribe,
    /// The engine's health text (serialized through the engine queue,
    /// so it reflects a real serialization point).
    Health,
    /// Force a WAL fsync (group-commit flush point).
    Sync,
}

impl Request {
    /// The request kind's opcode (DESIGN.md §14 "Opcodes"). Exhaustive:
    /// a new variant does not build until it has one.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => OP_PING,
            Request::Apply(_) => OP_APPLY,
            Request::Subscribe => OP_SUBSCRIBE,
            Request::Unsubscribe => OP_UNSUBSCRIBE,
            Request::Health => OP_HEALTH,
            Request::Sync => OP_SYNC,
        }
    }

    /// `(opcode, payload)` for the wire.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let payload = match self {
            Request::Apply(record) => record.encode(),
            Request::Ping
            | Request::Subscribe
            | Request::Unsubscribe
            | Request::Health
            | Request::Sync => Vec::new(),
        };
        (self.opcode(), payload)
    }

    /// [`encode`](Self::encode) with an optional trace id appended as
    /// an 8-byte little-endian payload suffix. `None` produces exactly
    /// the bytes [`encode`](Self::encode) does.
    pub fn encode_traced(&self, trace: Option<u64>) -> (u8, Vec<u8>) {
        let (opcode, mut payload) = self.encode();
        if let Some(id) = trace {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        (opcode, payload)
    }

    /// Writes the request as one frame with an optional trace-id
    /// suffix.
    pub fn write_to_traced(&self, w: &mut impl Write, trace: Option<u64>) -> io::Result<()> {
        let (opcode, payload) = self.encode_traced(trace);
        write_frame(w, opcode, &payload)
    }

    /// Decodes a request frame that may carry the trace-id suffix.
    /// The suffix is all-or-nothing: exactly 8 trailing bytes decode
    /// to `Some(id)`, zero to `None`, anything else is corruption.
    pub fn decode_traced(opcode: u8, payload: &[u8]) -> Result<(Request, Option<u64>), ProtoError> {
        let split_trace = |rest: &[u8]| -> Result<Option<u64>, ProtoError> {
            match (rest.len(), rest.first_chunk::<8>()) {
                (0, _) => Ok(None),
                (8, Some(id)) => Ok(Some(u64::from_le_bytes(*id))),
                (n, _) => Err(ProtoError::Corrupt(format!(
                    "trace suffix must be 0 or 8 bytes, got {n}"
                ))),
            }
        };
        if opcode == OP_APPLY {
            let (record, consumed) = Record::decode_prefix(payload)?;
            let trace = split_trace(&payload[consumed..])?;
            return Ok((Request::Apply(record), trace));
        }
        let trace = split_trace(payload)?;
        let req = Request::decode(opcode, &payload[..payload.len() - trace.map_or(0, |_| 8)])?;
        Ok((req, trace))
    }

    /// Decodes a request frame (strict: a trace-id suffix is rejected;
    /// use [`decode_traced`](Self::decode_traced) to accept it).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let empty = |req: Request| {
            if payload.is_empty() {
                Ok(req)
            } else {
                Err(ProtoError::Corrupt(format!(
                    "opcode {opcode:#04x} carries {} unexpected payload bytes",
                    payload.len()
                )))
            }
        };
        match opcode {
            OP_PING => empty(Request::Ping),
            OP_APPLY => Ok(Request::Apply(Record::decode(payload)?)),
            OP_SUBSCRIBE => empty(Request::Subscribe),
            OP_UNSUBSCRIBE => empty(Request::Unsubscribe),
            OP_HEALTH => empty(Request::Health),
            OP_SYNC => empty(Request::Sync),
            other => Err(ProtoError::Corrupt(format!(
                "unknown request opcode {other:#04x}"
            ))),
        }
    }
}

/// What one mutation did: its WAL sequence number (the client-visible
/// commit coordinate) and the rule firings it triggered.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FireSummary {
    /// The WAL sequence number the operation was logged under. After a
    /// crash, recovery replays a prefix of sequence numbers — an acked
    /// `seq` under `SyncPolicy::Always` is guaranteed replayed.
    pub seq: u64,
    /// Database operations applied (1 external + cascaded).
    pub ops_applied: u64,
    /// `(rule id, rule name)` in firing order across the whole chain.
    pub fired: Vec<(u32, String)>,
}

/// One tuple bound by a premise of a multi-premise rule firing, in
/// premise order.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBinding {
    /// The premise's relation.
    pub relation: String,
    /// The bound tuple's id within that relation.
    pub tuple_id: u32,
    /// The bound tuple's values.
    pub values: Vec<Value>,
}

/// One rule firing pushed to a subscribed connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// WAL sequence number of the mutation that fired the rule.
    pub seq: u64,
    /// The firing rule's id.
    pub rule_id: u32,
    /// The firing rule's name.
    pub rule: String,
    /// For join-rule firings: every bound tuple, one per premise in
    /// premise order. Empty for single-relation firings — and encoded
    /// by *omission* (no trailing count), so old-format frames decode
    /// and plain firings encode byte-identically to servers that
    /// predate joins.
    pub bindings: Vec<EventBinding>,
}

/// A server reply (or pushed frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Success with nothing else to report (create/drop relation,
    /// remove rule, subscribe, unsubscribe, sync).
    Unit,
    /// A mutation succeeded.
    Fire(FireSummary),
    /// A rule was added under this id.
    RuleId(u32),
    /// The health text.
    Health(String),
    /// The operation failed; the message is the engine error.
    Err(String),
    /// The engine queue was full — the operation was *not* logged and
    /// not applied; back off and retry.
    Busy,
    /// Pushed rule firing (subscriptions only; answers no request).
    Event(Event),
    /// Pushed lag notice: this many events were dropped while the
    /// connection's reply queue was full.
    Lagged(u64),
}

impl Reply {
    /// The reply kind's opcode (DESIGN.md §14 "Opcodes"). Exhaustive: a
    /// new variant does not build until it has one.
    pub fn opcode(&self) -> u8 {
        match self {
            Reply::Pong => OP_PONG,
            Reply::Unit => OP_UNIT,
            Reply::Fire(_) => OP_FIRE,
            Reply::RuleId(_) => OP_RULE_ID,
            Reply::Health(_) => OP_HEALTH_REPLY,
            Reply::Err(_) => OP_ERR,
            Reply::Busy => OP_BUSY,
            Reply::Event(_) => OP_EVENT,
            Reply::Lagged(_) => OP_LAGGED,
        }
    }

    /// `(opcode, payload)` for the wire.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        match self {
            Reply::Pong | Reply::Unit | Reply::Busy => {}
            Reply::Fire(f) => {
                w.u64(f.seq);
                w.u64(f.ops_applied);
                w.u32(f.fired.len() as u32);
                for (id, name) in &f.fired {
                    w.u32(*id);
                    w.str(name);
                }
            }
            Reply::RuleId(id) => w.u32(*id),
            Reply::Health(text) | Reply::Err(text) => w.str(text),
            Reply::Event(e) => {
                w.u64(e.seq);
                w.u32(e.rule_id);
                w.str(&e.rule);
                if !e.bindings.is_empty() {
                    w.u32(e.bindings.len() as u32);
                    for b in &e.bindings {
                        w.str(&b.relation);
                        w.u32(b.tuple_id);
                        w.u32(b.values.len() as u32);
                        for v in &b.values {
                            codec::encode_value(&mut w, v);
                        }
                    }
                }
            }
            Reply::Lagged(n) => w.u64(*n),
        }
        (self.opcode(), w.into_bytes())
    }

    /// Decodes a reply frame.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Reply, ProtoError> {
        let mut r = Reader::new(payload);
        let reply = match opcode {
            OP_PONG => Reply::Pong,
            OP_UNIT => Reply::Unit,
            OP_FIRE => {
                let seq = r.u64()?;
                let ops_applied = r.u64()?;
                // Each firing costs at least its id and name prefix.
                let n = r.count(8)?;
                let mut fired = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = r.u32()?;
                    let name = r.str()?;
                    fired.push((id, name));
                }
                Reply::Fire(FireSummary {
                    seq,
                    ops_applied,
                    fired,
                })
            }
            OP_RULE_ID => Reply::RuleId(r.u32()?),
            OP_HEALTH_REPLY => Reply::Health(r.str()?),
            OP_ERR => Reply::Err(r.str()?),
            OP_BUSY => Reply::Busy,
            OP_EVENT => {
                let seq = r.u64()?;
                let rule_id = r.u32()?;
                let rule = r.str()?;
                // The bindings suffix is optional: frames from (or for)
                // peers that predate joins simply end here.
                let mut bindings = Vec::new();
                if !r.is_empty() {
                    for _ in 0..r.count(12)? {
                        let relation = r.str()?;
                        let tuple_id = r.u32()?;
                        let k = r.count(2)?;
                        let mut values = Vec::with_capacity(k);
                        for _ in 0..k {
                            values.push(codec::decode_value(&mut r)?);
                        }
                        bindings.push(EventBinding {
                            relation,
                            tuple_id,
                            values,
                        });
                    }
                }
                Reply::Event(Event {
                    seq,
                    rule_id,
                    rule,
                    bindings,
                })
            }
            OP_LAGGED => Reply::Lagged(r.u64()?),
            other => {
                return Err(ProtoError::Corrupt(format!(
                    "unknown reply opcode {other:#04x}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(ProtoError::Corrupt(format!(
                "{} trailing bytes after reply",
                r.remaining()
            )));
        }
        Ok(reply)
    }

    /// A short human label for the reply kind (mismatch diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Reply::Pong => "pong",
            Reply::Unit => "unit",
            Reply::Fire(_) => "fire",
            Reply::RuleId(_) => "rule_id",
            Reply::Health(_) => "health",
            Reply::Err(_) => "err",
            Reply::Busy => "busy",
            Reply::Event(_) => "event",
            Reply::Lagged(_) => "lagged",
        }
    }
}

/// The position in [`OP_NAMES`] of the label a [`Request`] is metered
/// under (`server_requests_total{op=…}`): ping, the record kinds in tag
/// order, then the session requests.
pub fn op_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Apply(record) => 1 + usize::from(record.tag()),
        Request::Subscribe => 9,
        Request::Unsubscribe => 10,
        Request::Health => 11,
        Request::Sync => 12,
    }
}

/// Every op label, in a fixed order (metric pre-minting; indexed by
/// [`op_index`]).
pub const OP_NAMES: &[&str] = &[
    "ping",
    "create_relation",
    "drop_relation",
    "add_rule",
    "remove_rule",
    "insert",
    "update",
    "delete",
    "insert_batch",
    "subscribe",
    "unsubscribe",
    "health",
    "sync",
];

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{AttrType, Schema, Value};
    use rules::EventMask;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Apply(Record::CreateRelation {
                schema: Schema::builder("emp")
                    .attr("name", AttrType::Str)
                    .attr("salary", AttrType::Int)
                    .build(),
            }),
            Request::Apply(Record::Insert {
                relation: "emp".into(),
                values: vec![Value::str("al"), Value::Int(9000)],
            }),
            Request::Apply(Record::AddRule {
                spec: durable::RuleSpec {
                    name: "underpaid".into(),
                    condition: "emp.salary < 15000".into(),
                    mask: EventMask::ALL,
                    priority: 2,
                    action: durable::ActionSpec::Log("low".into()),
                },
            }),
            Request::Subscribe,
            Request::Unsubscribe,
            Request::Health,
            Request::Sync,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        vec![
            Reply::Pong,
            Reply::Unit,
            Reply::Fire(FireSummary {
                seq: 42,
                ops_applied: 3,
                fired: vec![(0, "underpaid".into()), (2, "audit".into())],
            }),
            Reply::RuleId(7),
            Reply::Health("up 1\nwal_next_seq 9\n".into()),
            Reply::Err("no such relation".into()),
            Reply::Busy,
            Reply::Event(Event {
                seq: 43,
                rule_id: 2,
                rule: "audit".into(),
                bindings: Vec::new(),
            }),
            Reply::Event(Event {
                seq: 44,
                rule_id: 3,
                rule: "same-dept".into(),
                bindings: vec![
                    EventBinding {
                        relation: "emp".into(),
                        tuple_id: 0,
                        values: vec![Value::str("al"), Value::Int(4)],
                    },
                    EventBinding {
                        relation: "dept".into(),
                        tuple_id: 7,
                        values: vec![Value::Int(4)],
                    },
                ],
            }),
            Reply::Lagged(17),
        ]
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let mut wire = Vec::new();
        for req in sample_requests() {
            req.write_to_traced(&mut wire, None).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for expected in sample_requests() {
            let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(Request::decode(op, &payload).unwrap(), expected);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn replies_round_trip_through_frames() {
        let mut wire = Vec::new();
        for reply in sample_replies() {
            let (opcode, payload) = reply.encode();
            write_frame(&mut wire, opcode, &payload).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for expected in sample_replies() {
            let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(Reply::decode(op, &payload).unwrap(), expected);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn torn_frames_and_flips_are_errors_not_panics() {
        let mut wire = Vec::new();
        Request::Apply(Record::Insert {
            relation: "emp".into(),
            values: vec![Value::Int(1), Value::str("x")],
        })
        .write_to_traced(&mut wire, None)
        .unwrap();
        // Every strict prefix is either a clean EOF (empty) or a torn
        // frame (UnexpectedEof) — never a panic, never a bogus frame.
        for cut in 0..wire.len() {
            let mut cursor = std::io::Cursor::new(&wire[..cut]);
            match read_frame(&mut cursor) {
                Ok(None) => assert_eq!(cut, 0),
                Ok(Some(_)) => panic!("prefix of {cut} bytes parsed as a frame"),
                Err(ProtoError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
                }
                Err(ProtoError::Corrupt(_)) => panic!("prefix misread as corruption"),
            }
        }
        // Any single-bit flip is caught by the checksum (or rejected
        // as a nonsense length before the body is read).
        for byte in 0..wire.len() {
            let mut flipped = wire.clone();
            flipped[byte] ^= 0x40;
            let mut cursor = std::io::Cursor::new(flipped);
            match read_frame(&mut cursor) {
                Err(_) => {}
                Ok(frame) => {
                    // A flip in the length field can shorten the frame
                    // to a valid-looking but checksum-failing body; it
                    // must never round-trip to the original request.
                    let (op, payload) = frame.unwrap();
                    assert!(
                        Request::decode(op, &payload).is_err(),
                        "bit flip at byte {byte} survived"
                    );
                }
            }
        }
    }

    #[test]
    fn plain_event_encoding_is_byte_identical_to_pre_join_format() {
        // The exact frame a pre-join server would push: no trailing
        // binding count, not a zero count.
        let (op, payload) = Reply::Event(Event {
            seq: 43,
            rule_id: 2,
            rule: "audit".into(),
            bindings: Vec::new(),
        })
        .encode();
        assert_eq!(op, OP_EVENT);
        let mut legacy = Writer::new();
        legacy.u64(43);
        legacy.u32(2);
        legacy.str("audit");
        assert_eq!(payload, legacy.into_bytes());
        // And a legacy frame decodes to an event with no bindings.
        match Reply::decode(OP_EVENT, &payload).unwrap() {
            Reply::Event(e) => assert!(e.bindings.is_empty()),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn truncated_event_bindings_are_corrupt_not_panics() {
        let (_, payload) = Reply::Event(Event {
            seq: 1,
            rule_id: 0,
            rule: "j".into(),
            bindings: vec![EventBinding {
                relation: "emp".into(),
                tuple_id: 3,
                values: vec![Value::Int(9), Value::str("x")],
            }],
        })
        .encode();
        // Every strict prefix past the legacy portion must error
        // cleanly (the legacy prefix itself decodes as a plain event).
        let mut legacy_len = Writer::new();
        legacy_len.u64(1);
        legacy_len.u32(0);
        legacy_len.str("j");
        let legacy_len = legacy_len.into_bytes().len();
        for cut in legacy_len + 1..payload.len() {
            assert!(
                Reply::decode(OP_EVENT, &payload[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn traced_requests_round_trip_with_and_without_ids() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            for trace in [None, Some(0xdead_beef_0000_0000 + i as u64)] {
                let (op, payload) = req.encode_traced(trace);
                let (got, got_trace) = Request::decode_traced(op, &payload).unwrap();
                assert_eq!(got, req);
                assert_eq!(got_trace, trace);
            }
        }
    }

    #[test]
    fn untraced_encoding_is_byte_identical_to_pre_trace_format() {
        for req in sample_requests() {
            assert_eq!(req.encode_traced(None), req.encode());
        }
    }

    #[test]
    fn strict_decode_rejects_trace_suffixes() {
        for req in sample_requests() {
            let (op, traced) = req.encode_traced(Some(7));
            assert!(
                Request::decode(op, &traced).is_err(),
                "strict decode accepted a traced {op:#04x}"
            );
        }
    }

    #[test]
    fn torn_trace_suffixes_are_corrupt_not_panics() {
        for req in sample_requests() {
            let (op, full) = req.encode_traced(Some(0x0123_4567_89ab_cdef));
            // Remainders of 1..=7 bytes are neither absent nor a full
            // id — corruption, decoded as neither form.
            for cut in full.len() - 7..full.len() {
                assert!(
                    Request::decode_traced(op, &full[..cut]).is_err(),
                    "torn suffix at {cut} decoded for {op:#04x}"
                );
            }
            // Cutting the whole suffix yields the untraced form.
            let (got, trace) = Request::decode_traced(op, &full[..full.len() - 8]).unwrap();
            assert_eq!(got, req);
            assert_eq!(trace, None);
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn a_hostile_arity_is_corrupt_not_an_allocation() {
        // `CreateRelation` tag, relation "r", arity u32::MAX: 19 bytes
        // on the wire that used to ask the allocator for ~100 GB on a
        // session reader thread and abort the whole daemon.
        let mut w = Writer::new();
        w.u8(0);
        w.str("r");
        w.u32(u32::MAX);
        let payload = w.into_bytes();
        assert_eq!(encode_frame(OP_APPLY, &payload).len(), 19);
        assert!(matches!(
            Request::decode_traced(OP_APPLY, &payload),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_opcodes_are_corrupt() {
        assert!(Request::decode(0x7f, &[]).is_err());
        assert!(Reply::decode(0x01, &[]).is_err());
    }

    #[test]
    fn op_names_cover_every_request_shape() {
        for req in sample_requests() {
            let name = match &req {
                Request::Ping => "ping",
                Request::Apply(record) => record.name(),
                Request::Subscribe => "subscribe",
                Request::Unsubscribe => "unsubscribe",
                Request::Health => "health",
                Request::Sync => "sync",
            };
            assert_eq!(OP_NAMES[op_index(&req)], name);
        }
    }
}
