//! A small cache of paging-structure *lines*.
//!
//! Page-table entries are ordinary memory: after a walk touches a PTE,
//! the 64-byte line holding it (8 entries) stays in the data caches, so
//! the next walk over the same line is much cheaper. The engine uses
//! this to decide between [`warm`](crate::TimingParams::walk_step_warm)
//! and [`cold`](crate::TimingParams::walk_step_cold) step costs — the
//! difference behind the paper's P4 experiment (381 vs 147 cycles) and
//! the Fig. 6 idle level.
//!
//! The cache sits on the probe hot path (every walk step touches it), so
//! it is implemented as a true O(1) LRU: a dense direct index over the
//! (frame, line) key space plus an intrusive recency list. Replacement
//! behaviour is identical to the reference linear-scan/min-stamp LRU —
//! stamps were strictly increasing, so the minimum-stamp victim *is* the
//! least-recently-touched entry, i.e. the tail of the recency list.
//!
//! The cache also keeps the key at the head of that list. A touch of the
//! head's line is a warm hit that changes nothing, so it returns at
//! once. The run server's consecutive probes share a line eight slots at
//! a time, so in a served run every touch after a line's first is such a
//! hit.

use avx_mmu::FrameId;

const NIL: u32 = u32::MAX;

/// The `head_key` of an empty list: real keys are a 32-bit table index
/// shifted left by 6, so none is `u64::MAX`.
const NO_KEY: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
struct LruNode {
    key: u64,
    prev: u32,
    next: u32,
}

/// LRU cache keyed by (paging-structure frame, 64-byte line index).
#[derive(Clone, Debug)]
pub struct PteLineCache {
    capacity: usize,
    /// Node arena; at most `capacity` nodes are ever allocated.
    nodes: Vec<LruNode>,
    /// Most-recently-touched node.
    head: u32,
    /// The key of `head`, or [`NO_KEY`] when the list is empty (always,
    /// at capacity 0).
    head_key: u64,
    /// Least-recently-touched node (the eviction victim).
    tail: u32,
    /// Dense key → node-index+1 map (0 = absent). Keys combine a table
    /// arena index with a 6-bit line index, so the space is small and
    /// grows only when new paging structures are allocated.
    index: Vec<u32>,
}

impl PteLineCache {
    /// Default capacity: 256 lines ≈ 16 KiB of PTE data resident.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a cache holding up to `capacity` lines.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            nodes: Vec::with_capacity(capacity.min(1024)),
            head: NIL,
            head_key: NO_KEY,
            tail: NIL,
            index: Vec::new(),
        }
    }

    fn key(table: FrameId, entry_index: usize) -> u64 {
        ((table.index() as u64) << 6) | (entry_index as u64 >> 3)
    }

    fn slot(&mut self, key: u64) -> &mut u32 {
        let key = key as usize;
        if key >= self.index.len() {
            self.index.resize(key + 1, 0);
        }
        &mut self.index[key]
    }

    fn unlink(&mut self, node: u32) {
        let LruNode { prev, next, .. } = self.nodes[node as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, node: u32) {
        self.nodes[node as usize].prev = NIL;
        self.nodes[node as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = node;
        }
        self.head = node;
        if self.tail == NIL {
            self.tail = node;
        }
    }

    /// Records an access to `entry_index` of `table`; returns `true` if
    /// the line was already cached (a *warm* access).
    pub fn touch(&mut self, table: FrameId, entry_index: usize) -> bool {
        let key = Self::key(table, entry_index);
        if key == self.head_key {
            return true;
        }
        if self.capacity == 0 {
            // A disabled cache caches nothing: every access is cold
            // (the reference min-stamp implementation degraded the same
            // way).
            return false;
        }
        let mapped = *self.slot(key);
        if mapped != 0 {
            // Not the head: that key returned above.
            let node = mapped - 1;
            self.unlink(node);
            self.push_front(node);
            self.head_key = key;
            return true;
        }
        let node = if self.nodes.len() < self.capacity {
            self.nodes.push(LruNode {
                key,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        } else {
            // Evict the least-recently-touched line and reuse its node.
            let victim = self.tail;
            let old_key = self.nodes[victim as usize].key;
            self.unlink(victim);
            *self.slot(old_key) = 0;
            self.nodes[victim as usize].key = key;
            victim
        };
        self.push_front(node);
        self.head_key = key;
        *self.slot(key) = node + 1;
        false
    }

    /// Checks warmth without updating recency (diagnostics).
    #[must_use]
    pub fn contains(&self, table: FrameId, entry_index: usize) -> bool {
        let key = Self::key(table, entry_index) as usize;
        self.index.get(key).is_some_and(|&m| m != 0)
    }

    /// Drops everything (models cache thrashing by an eviction loop).
    pub fn flush(&mut self) {
        for i in 0..self.nodes.len() {
            let key = self.nodes[i].key as usize;
            self.index[key] = 0;
        }
        self.nodes.clear();
        self.head = NIL;
        self.head_key = NO_KEY;
        self.tail = NIL;
    }

    /// Number of cached lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl Default for PteLineCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A straightforward stamp-based LRU (the previous implementation).
    struct Reference {
        capacity: usize,
        slots: Vec<(u64, u64)>,
        clock: u64,
    }

    impl Reference {
        fn touch(&mut self, key: u64) -> bool {
            self.clock += 1;
            if let Some(slot) = self.slots.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = self.clock;
                return true;
            }
            if self.slots.len() < self.capacity {
                self.slots.push((key, self.clock));
            } else if let Some(victim) = self.slots.iter_mut().min_by_key(|(_, s)| *s) {
                *victim = (key, self.clock);
            }
            false
        }

        fn contains(&self, key: u64) -> bool {
            self.slots.iter().any(|&(k, _)| k == key)
        }
    }

    #[test]
    fn first_touch_is_cold_second_is_warm() {
        let mut c = PteLineCache::default();
        assert!(!c.touch(FrameId::new(1), 100));
        assert!(c.touch(FrameId::new(1), 100));
    }

    #[test]
    fn entries_on_same_line_share_warmth() {
        let mut c = PteLineCache::default();
        // Entries 96..103 share one 64-byte line (index >> 3 == 12).
        assert!(!c.touch(FrameId::new(1), 96));
        assert!(c.touch(FrameId::new(1), 103));
        // Entry 104 is the next line.
        assert!(!c.touch(FrameId::new(1), 104));
    }

    #[test]
    fn different_tables_do_not_alias() {
        let mut c = PteLineCache::default();
        c.touch(FrameId::new(1), 0);
        assert!(!c.touch(FrameId::new(2), 0));
    }

    #[test]
    fn lru_eviction() {
        let mut c = PteLineCache::new(2);
        c.touch(FrameId::new(1), 0);
        c.touch(FrameId::new(2), 0);
        // Refresh frame 1, then insert a third line: frame 2 is evicted.
        c.touch(FrameId::new(1), 0);
        c.touch(FrameId::new(3), 0);
        assert!(c.contains(FrameId::new(1), 0));
        assert!(!c.contains(FrameId::new(2), 0));
        assert!(c.contains(FrameId::new(3), 0));
    }

    #[test]
    fn zero_capacity_cache_is_always_cold() {
        let mut c = PteLineCache::new(0);
        assert!(!c.touch(FrameId::new(1), 0));
        assert!(!c.touch(FrameId::new(1), 0), "nothing is ever cached");
        assert!(c.is_empty());
    }

    #[test]
    fn flush_empties() {
        let mut c = PteLineCache::default();
        c.touch(FrameId::new(1), 0);
        assert!(!c.is_empty());
        c.flush();
        assert!(c.is_empty());
        assert!(!c.touch(FrameId::new(1), 0), "cold again after flush");
    }

    #[test]
    fn eviction_order_matches_reference_lru_under_churn() {
        // Cross-check against a straightforward stamp-based LRU (the
        // previous implementation) over a deterministic churn pattern.
        let mut fast = PteLineCache::new(8);
        let mut reference = Reference {
            capacity: 8,
            slots: Vec::new(),
            clock: 0,
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let table = FrameId::new(((state >> 33) % 5) as u32);
            let entry = ((state >> 13) % 512) as usize;
            let key = ((table.index() as u64) << 6) | (entry as u64 >> 3);
            assert_eq!(fast.touch(table, entry), reference.touch(key));
        }
    }

    #[test]
    fn head_shortcut_matches_reference_lru_under_repeats_and_flushes() {
        // Mostly touches of the next slot, on the line just touched
        // seven times in eight, as a served run makes them; then jumps to
        // other lines and an occasional flush.
        for capacity in [0, 1, 2, 256] {
            let mut fast = PteLineCache::new(capacity);
            let mut reference = Reference {
                capacity,
                slots: Vec::new(),
                clock: 0,
            };
            let mut state = 0x2545_f491_4f6c_dd1du64 ^ capacity as u64;
            let (mut table, mut entry) = (FrameId::new(0), 0usize);
            for step in 0..8192 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match (state >> 40) % 16 {
                    0 => {
                        fast.flush();
                        reference.slots.clear();
                    }
                    1..=4 => {
                        table = FrameId::new(((state >> 33) % 4) as u32);
                        entry = ((state >> 13) % 64) as usize;
                    }
                    _ => entry = (entry + 1) % 64,
                }
                let key = ((table.index() as u64) << 6) | (entry as u64 >> 3);
                let at = format!("capacity {capacity}, step {step}");
                assert_eq!(fast.touch(table, entry), reference.touch(key), "{at}");
                assert_eq!(fast.len(), reference.slots.len(), "{at}");
                for probe in 0..4 {
                    for line in 0..8 {
                        assert_eq!(
                            fast.contains(FrameId::new(probe), line * 8),
                            reference.contains((u64::from(probe) << 6) | line as u64),
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}
