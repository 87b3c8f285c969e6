//! An independent model of the paging-structure caches, sharing no code
//! with `avx_mmu::psc`: one array of `(tag, next table, stamp)` slots per
//! cached level, plain least-recently-used replacement, no generation
//! counter, and the default geometry written out as literals.
//!
//! It predicts what a [`Walker`](avx_mmu::Walker) walking through a
//! real [`PagingStructureCache`](avx_mmu::PagingStructureCache) must
//! report: where each walk resumes, from which table, and the cache's
//! length and hit/miss counters afterwards. A cache that files or tags
//! an entry by the wrong level resumes walks the model does not.

use avx_mmu::{FrameId, VirtAddr, WalkOutcome};

/// Cached levels, root first: PML4E, PDPTE, PDE.
const LEVELS: usize = 3;

/// The address bits above each cached level's entry span: a PML4E
/// covers 512 GiB, a PDPTE 1 GiB, a PDE 2 MiB.
const TAG_SHIFT: [u32; LEVELS] = [39, 30, 21];

/// `PscConfig::default()`: 16 PML4E, 16 PDPTE and 64 PDE slots.
const CAPACITY: [usize; LEVELS] = [16, 16, 64];

/// One cached partial translation.
#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u64,
    next_table: FrameId,
    stamp: u64,
}

/// The model cache.
#[derive(Clone, Debug, Default)]
pub struct PscModel {
    levels: [Vec<Slot>; LEVELS],
    clock: u64,
    hits: u64,
    misses: u64,
}

impl PscModel {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn tag(va: VirtAddr, level: usize) -> u64 {
        va.as_u64() >> TAG_SHIFT[level]
    }

    /// The deepest level caching `va`'s tag and the table it points to,
    /// refreshing that slot's recency.
    fn lookup_deepest(&mut self, va: VirtAddr) -> Option<(usize, FrameId)> {
        for level in (0..LEVELS).rev() {
            let tag = Self::tag(va, level);
            if let Some(slot) = self.levels[level].iter_mut().find(|s| s.tag == tag) {
                self.clock += 1;
                slot.stamp = self.clock;
                self.hits += 1;
                return Some((level, slot.next_table));
            }
        }
        self.misses += 1;
        None
    }

    fn insert(&mut self, level: usize, va: VirtAddr, next_table: FrameId) {
        self.clock += 1;
        let (tag, stamp) = (Self::tag(va, level), self.clock);
        let slots = &mut self.levels[level];
        if let Some(slot) = slots.iter_mut().find(|s| s.tag == tag) {
            slot.next_table = next_table;
            slot.stamp = stamp;
        } else if slots.len() < CAPACITY[level] {
            slots.push(Slot {
                tag,
                next_table,
                stamp,
            });
        } else {
            let lru = slots
                .iter_mut()
                .min_by_key(|s| s.stamp)
                .expect("a full array has slots");
            *lru = Slot {
                tag,
                next_table,
                stamp,
            };
        }
    }

    /// `INVLPG`: drops `va`'s tag at every level.
    pub fn invlpg(&mut self, va: VirtAddr) {
        for level in 0..LEVELS {
            let tag = Self::tag(va, level);
            self.levels[level].retain(|s| s.tag != tag);
        }
    }

    /// Checks one walk of `va` through the real cache against the model,
    /// then applies the walk's fills: the walk must resume exactly where
    /// the model's deepest hit says, from the table that slot points
    /// to, and every present intermediate entry it then read is filled.
    pub fn walk(&mut self, va: VirtAddr, walk: &WalkOutcome, step: usize) {
        let resume = self.lookup_deepest(va);
        assert_eq!(
            walk.psc_resume_level.map(|l| l as usize),
            resume.map(|(level, _)| level),
            "step {step}: resume level"
        );
        let accesses: Vec<(FrameId, usize)> = walk.accesses.iter().collect();
        if let Some((_, table)) = resume {
            assert_eq!(accesses[0].0, table, "step {step}: resume table");
        }
        // The walk read one entry per level from just below the resume
        // point down to the terminal level; every entry but the terminal
        // one was a present link into the next access's table.
        let first = resume.map_or(0, |(level, _)| level + 1);
        for (k, pair) in accesses.windows(2).enumerate() {
            self.insert(first + k, va, pair[1].0);
        }
    }

    /// Live slots across the three arrays.
    pub fn len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Lookups that hit some array.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed every array.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}
