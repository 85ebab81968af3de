//! Key stores: a join value -> a bucket of ids, each id knowing its
//! position in the bucket, so it leaves by `swap_remove` in O(1).
//!
//! Two kinds of store use them. A table's shared index
//! ([`crate::alpha`]) buckets its rows under their values at some
//! attributes (`orders.cust`, `customers.id`): one per `(relation, key
//! attributes)`, probed by every memo that joins on them. A memo's
//! beta store `level_key[k ≥ 1]` buckets its tokens under the key they
//! present to the next premise ([`crate::memo`]).
//!
//! A store keyed by a row's identity rarely holds more than three ids
//! per value, so a one-value key ([`Key`]) and a bucket of up to three
//! ids ([`Ids`]) sit inline in the table slot: such a store touches the
//! heap only for a string value or a bucket that grows past three. A
//! store keyed by a value many tokens share (`customers.region`: 64
//! values under thousands of tokens) keeps each bucket in a `Vec`, and
//! a multi-value key keeps its values on the heap.

use relation::fx::FxHashMap;
use relation::Value;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::Deref;

/// A key store's key: the values of a premise's equality steps. One
/// value — a single equality step, the common join — sits inline;
/// any other count is a boxed slice. Hashing and equality go through
/// the slice, so a probe looks a bucket up by `&[Value]`.
#[derive(Debug, Clone)]
pub(crate) enum Key {
    One(Value),
    Many(Box<[Value]>),
}

impl Key {
    fn new(values: &[Value]) -> Key {
        match values {
            [v] => Key::One(v.clone()),
            vs => Key::Many(vs.into()),
        }
    }

    fn values(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Key {}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

/// Heap bytes behind the key of `values`: string contents, plus the
/// slots unless the one value sits inline.
fn key_bytes(values: &[Value]) -> u64 {
    let strings: usize = values
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    let slots = match values.len() {
        1 => 0,
        _ => std::mem::size_of_val(values),
    };
    (slots + strings) as u64
}

/// Ids a bucket holds inline before it spills to a `Vec`. Three keep
/// [`Ids`] at the size of a `Vec<u32>`, so a table slot is 48 bytes;
/// four to six would make it 56. On `join_cascade`, 98.5% of the pushes
/// into its one-value stores keyed by a row's identity land in a bucket
/// of at most three (EXPERIMENTS.md "Join memo layer").
const INLINE_IDS: usize = 3;

const _: () = assert!(size_of::<Ids>() == size_of::<Vec<u32>>());

/// A bucket's ids, in the order `swap_remove` leaves them: up to
/// [`INLINE_IDS`] inline, else a `Vec`, which stays until the bucket
/// empties.
#[derive(Debug, Clone)]
pub(crate) enum Ids {
    Inline { len: u8, ids: [u32; INLINE_IDS] },
    Spilled(Vec<u32>),
}

impl Ids {
    fn one(id: u32) -> Ids {
        let mut ids = [0; INLINE_IDS];
        ids[0] = id;
        Ids::Inline { len: 1, ids }
    }

    /// Appends `id`; returns its position.
    fn push(&mut self, id: u32) -> u32 {
        match self {
            Ids::Inline { len, ids } if (*len as usize) < INLINE_IDS => {
                ids[*len as usize] = id;
                *len += 1;
                *len as u32 - 1
            }
            Ids::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_IDS);
                spilled.extend_from_slice(ids);
                spilled.push(id);
                *self = Ids::Spilled(spilled);
                INLINE_IDS as u32
            }
            Ids::Spilled(ids) => {
                ids.push(id);
                ids.len() as u32 - 1
            }
        }
    }

    /// Removes the id at `pos` by moving the last one into it. Panics
    /// if `pos` is out of bounds, as `Vec::swap_remove` does: a stale
    /// `key_pos` must not drop a live id.
    fn swap_remove(&mut self, pos: usize) {
        match self {
            Ids::Inline { len, ids } => {
                assert!(pos < *len as usize, "bucket position {pos} out of bounds");
                *len -= 1;
                ids[pos] = ids[*len as usize];
            }
            Ids::Spilled(ids) => {
                ids.swap_remove(pos);
            }
        }
    }

    /// Heap bytes behind the bucket: a spilled array's capacity.
    fn heap_bytes(&self) -> u64 {
        match self {
            Ids::Inline { .. } => 0,
            Ids::Spilled(ids) => (ids.capacity() * size_of::<u32>()) as u64,
        }
    }
}

impl Deref for Ids {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            Ids::Inline { len, ids } => &ids[..*len as usize],
            Ids::Spilled(ids) => ids,
        }
    }
}

/// Equality-key -> ids, each id knowing its position in the bucket.
pub(crate) type KeyStore = FxHashMap<Key, Ids>;

/// Table bytes of a hash map: its capacity is 7/8 of its slots, and
/// each slot carries one control byte.
pub(crate) fn map_bytes<K, V, S>(m: &HashMap<K, V, S>) -> u64 {
    (m.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)) as u64
}

/// The ids under `key`, none if it has no bucket.
pub(crate) fn bucket<'s>(store: &'s KeyStore, key: &[Value]) -> &'s [u32] {
    store.get(key).map_or(&[], |ids| ids)
}

/// Appends `id` to the bucket of `key`. Returns its position and the
/// heap bytes the store grew by.
pub(crate) fn bucket_push(store: &mut KeyStore, key: &[Value], id: u32) -> (u32, u64) {
    if let Some(bucket) = store.get_mut(key) {
        let before = bucket.heap_bytes();
        let pos = bucket.push(id);
        return (pos, bucket.heap_bytes() - before);
    }
    store.insert(Key::new(key), Ids::one(id));
    (0, key_bytes(key))
}

/// Removes the id at `pos` of the bucket of `key` by `swap_remove`.
/// Returns the id that moved into `pos` (its stored position is now
/// stale) and the heap bytes the store shrank by — a bucket gives its
/// array back only when it empties.
pub(crate) fn bucket_remove(store: &mut KeyStore, key: &[Value], pos: u32) -> (Option<u32>, u64) {
    let Some(bucket) = store.get_mut(key) else {
        debug_assert!(false, "keyed member without a bucket");
        return (None, 0);
    };
    bucket.swap_remove(pos as usize);
    if bucket.is_empty() {
        let shrank = key_bytes(key) + bucket.heap_bytes();
        store.remove(key);
        return (None, shrank);
    }
    (bucket.get(pos as usize).copied(), 0)
}

/// Heap bytes behind every entry of `store`, recounted: what the
/// pushes and removes have kept track of.
pub(crate) fn heap_bytes(store: &KeyStore) -> u64 {
    store
        .iter()
        .map(|(key, ids)| key_bytes(key.values()) + ids.heap_bytes())
        .sum()
}
