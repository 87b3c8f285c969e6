//! Small open-addressed (key → slot) index shared by the hot
//! fully-associative structures — the PSC arrays ([`crate::psc`]) and
//! the TLB's huge-page array ([`crate::tlb`]).
//!
//! Region sweeps *miss* these arrays on nearly every probe, so
//! membership must not cost a linear scan. The index maps a `u64` key
//! to the slot position inside the owner's parallel vectors via linear
//! probing from a Fibonacci-hashed start bucket. It never fills up: the
//! owner sizes it at 4× its slot capacity and rebuilds after removals
//! (open addressing cannot delete in place without tombstones, and
//! removals are rare `INVLPG`/eviction/flush events).

const EMPTY_BUCKET: u32 = u32::MAX;

/// Open-addressed key → slot-position index.
#[derive(Clone, Debug)]
pub(crate) struct TagIndex {
    /// (key, slot); `EMPTY_BUCKET` in the slot half marks a free bucket.
    buckets: Vec<(u64, u32)>,
}

impl TagIndex {
    /// An index able to hold `capacity` live keys with low load factor.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let bucket_count = (capacity * 4).next_power_of_two().max(8);
        Self {
            buckets: vec![(0, EMPTY_BUCKET); bucket_count],
        }
    }

    fn bucket_start(&self, key: u64) -> usize {
        let hash = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (hash >> 32) as usize & (self.buckets.len() - 1)
    }

    /// Slot holding exactly `key` (keys must be unique in the owner).
    pub(crate) fn find(&self, key: u64) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let mut b = self.bucket_start(key);
        loop {
            let (k, pos) = self.buckets[b];
            if pos == EMPTY_BUCKET {
                return None;
            }
            if k == key {
                return Some(pos as usize);
            }
            b = (b + 1) & mask;
        }
    }

    /// Records `key` at slot `pos`. `key` must not already be present.
    pub(crate) fn insert(&mut self, key: u64, pos: usize) {
        let mask = self.buckets.len() - 1;
        let mut b = self.bucket_start(key);
        while self.buckets[b].1 != EMPTY_BUCKET {
            b = (b + 1) & mask;
        }
        self.buckets[b] = (key, pos as u32);
    }

    /// Rebuilds from the owner's live key vector (call after removals
    /// or slot renumbering).
    pub(crate) fn rebuild(&mut self, keys: &[u64]) {
        self.buckets.fill((0, EMPTY_BUCKET));
        for (pos, &key) in keys.iter().enumerate() {
            self.insert(key, pos);
        }
    }

    /// Drops every key; `keys` must be the owner's live keys. Only the
    /// buckets they occupy are written: each key's probe run from its
    /// start bucket up to the first free one. Linear probing without
    /// tombstones keeps every occupied bucket inside such a run, so
    /// clearing the runs of all live keys empties the index.
    pub(crate) fn clear(&mut self, keys: &[u64]) {
        let mask = self.buckets.len() - 1;
        for &key in keys {
            let mut b = self.bucket_start(key);
            while self.buckets[b].1 != EMPTY_BUCKET {
                self.buckets[b] = (0, EMPTY_BUCKET);
                b = (b + 1) & mask;
            }
        }
        debug_assert!(self.buckets.iter().all(|&(_, pos)| pos == EMPTY_BUCKET));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_insert_rebuild_round_trip() {
        let mut idx = TagIndex::with_capacity(8);
        for (pos, key) in [7u64, 9, 0, u64::MAX - 1].iter().enumerate() {
            idx.insert(*key, pos);
        }
        assert_eq!(idx.find(7), Some(0));
        assert_eq!(idx.find(0), Some(2));
        assert_eq!(idx.find(u64::MAX - 1), Some(3));
        assert_eq!(idx.find(8), None);
        idx.rebuild(&[9, 7]);
        assert_eq!(idx.find(9), Some(0));
        assert_eq!(idx.find(7), Some(1));
        assert_eq!(idx.find(0), None);
        idx.clear(&[9, 7]);
        assert_eq!(idx.find(9), None);
    }

    #[test]
    fn clearing_the_live_keys_empties_every_bucket() {
        // Colliding keys: probe runs overlap and wrap around the end of
        // the bucket array.
        for n in [1usize, 5, 8, 31, 32] {
            let mut idx = TagIndex::with_capacity(8);
            let keys: Vec<u64> = (0..n as u64).map(|k| k << 40 | 3).collect();
            for (pos, &key) in keys.iter().enumerate() {
                idx.insert(key, pos);
            }
            idx.clear(&keys);
            assert!(
                idx.buckets.iter().all(|&(_, pos)| pos == EMPTY_BUCKET),
                "{n}"
            );
        }
    }
}
