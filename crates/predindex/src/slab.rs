//! A dense table for entries named by monotonic `u32` ids.
//!
//! Ids are never reused (a stale id must not name a newer entry), so
//! indexing a table by id would grow it without bound under churn. A
//! [`Slab`] gives each live entry a *slot* instead — a small index
//! reused through a free list — and keeps the id → slot map only for
//! callers that start from an id. A path that carries the slot, such
//! as an IBS mark or a match's route word, reads its entry with one
//! indexed load and no hash.

use relation::fx::FnvHashMap;

/// Table bytes of a hash map: its capacity is 7/8 of its slots, and
/// each slot carries one control byte.
pub(crate) fn map_bytes<K, V>(m: &FnvHashMap<K, V>) -> usize {
    m.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)
}

/// Two parallel slot tables — `hot`, what a hot path reads by slot, and
/// `cold`, the rest of each entry — plus the free list and the id →
/// slot map. A slot is vacant in both tables or live in both.
#[derive(Debug, Clone)]
pub struct Slab<H, C> {
    hot: Vec<Option<H>>,
    cold: Vec<Option<C>>,
    /// Vacant slots, the most recently vacated last.
    free: Vec<u32>,
    slots: FnvHashMap<u32, u32>,
}

impl<H, C> Default for Slab<H, C> {
    fn default() -> Self {
        Slab {
            hot: Vec::new(),
            cold: Vec::new(),
            free: Vec::new(),
            slots: FnvHashMap::default(),
        }
    }
}

impl<H, C> Slab<H, C> {
    /// The slot the next [`insert`](Self::insert) takes.
    pub fn next_slot(&self) -> u32 {
        match self.free.last() {
            Some(&slot) => slot,
            None => u32::try_from(self.hot.len()).expect("fewer than 2^32 live entries"),
        }
    }

    /// Stores the entry `id` in [`next_slot`](Self::next_slot) and
    /// returns that slot. Panics if `id` is live: ids are never reused.
    pub fn insert(&mut self, id: u32, hot: H, cold: C) -> u32 {
        let slot = self.next_slot();
        let previous = self.slots.insert(id, slot);
        assert!(previous.is_none(), "id {id} is already live");
        if self.free.pop().is_some() {
            self.hot[slot as usize] = Some(hot);
            self.cold[slot as usize] = Some(cold);
        } else {
            self.hot.push(Some(hot));
            self.cold.push(Some(cold));
        }
        slot
    }

    /// Vacates the entry `id`, returning its slot and both halves.
    pub fn remove(&mut self, id: u32) -> Option<(u32, H, C)> {
        let slot = self.slots.remove(&id)?;
        let hot = self.hot[slot as usize].take();
        let cold = self.cold[slot as usize].take();
        self.free.push(slot);
        Some((
            slot,
            hot.expect("a mapped slot is live"),
            cold.expect("a mapped slot is live"),
        ))
    }

    /// The slot of the live entry `id`.
    pub fn slot(&self, id: u32) -> Option<u32> {
        self.slots.get(&id).copied()
    }

    /// The hot half of live slot `slot`.
    pub fn hot(&self, slot: u32) -> &H {
        self.hot[slot as usize]
            .as_ref()
            .expect("a slot read through a route or a mark is live")
    }

    /// The hot half of live slot `slot`, mutably.
    pub fn hot_mut(&mut self, slot: u32) -> &mut H {
        self.hot[slot as usize]
            .as_mut()
            .expect("a slot read through a route or a mark is live")
    }

    /// The cold half of live slot `slot`.
    pub fn cold(&self, slot: u32) -> &C {
        self.cold[slot as usize]
            .as_ref()
            .expect("a slot read through a route or a mark is live")
    }

    /// The cold half of live slot `slot`, mutably.
    pub fn cold_mut(&mut self, slot: u32) -> &mut C {
        self.cold[slot as usize]
            .as_mut()
            .expect("a slot read through a route or a mark is live")
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is every slot vacant?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every live entry as `(slot, hot, cold)`, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &H, &C)> {
        self.hot
            .iter()
            .zip(&self.cold)
            .enumerate()
            .filter_map(|(slot, (h, c))| Some((slot as u32, h.as_ref()?, c.as_ref()?)))
    }

    /// Every live entry's halves, mutably, in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&mut H, &mut C)> {
        self.hot
            .iter_mut()
            .zip(&mut self.cold)
            .filter_map(|(h, c)| Some((h.as_mut()?, c.as_mut()?)))
    }

    /// Bytes of the tables themselves at capacity: both slot tables, the
    /// free list and the id map (not what the entries own).
    pub fn table_bytes(&self) -> usize {
        self.hot.capacity() * size_of::<Option<H>>()
            + self.cold.capacity() * size_of::<Option<C>>()
            + self.free.capacity() * size_of::<u32>()
            + map_bytes(&self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacated_slots_are_reused_last_in_first_out() {
        let mut slab: Slab<u32, String> = Slab::default();
        for id in 0..3 {
            assert_eq!(slab.insert(id, id * 10, id.to_string()), id);
        }
        assert_eq!(slab.remove(0), Some((0, 0, "0".to_string())));
        assert_eq!(slab.remove(2), Some((2, 20, "2".to_string())));
        assert_eq!(slab.remove(2), None);
        assert_eq!(slab.next_slot(), 2);
        assert_eq!(slab.insert(7, 70, "7".into()), 2);
        assert_eq!(slab.insert(8, 80, "8".into()), 0);
        assert_eq!(slab.insert(9, 90, "9".into()), 3);
        assert_eq!((slab.slot(0), slab.slot(8)), (None, Some(0)));
        assert_eq!((*slab.hot(0), slab.cold(2).as_str()), (80, "7"));
        let live: Vec<u32> = slab.iter().map(|(_, &h, _)| h).collect();
        assert_eq!(live, [80, 10, 70, 90]);
        assert_eq!(slab.len(), 4);
    }
}
