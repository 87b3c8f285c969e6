//! Intel-style paging-structure caches (PSC).
//!
//! On a TLB miss the walker does not necessarily start at the PML4: the
//! processor keeps small caches of *partial* translations — PML4E, PDPTE
//! and PDE entries — so the walk can resume at the deepest cached level.
//! Crucially, **PTE entries are not cached** (they go straight into the
//! TLB), which is why a walk that terminates at PT (a 4 KiB page) always
//! pays at least one uncached paging-structure access. The paper's §III-B
//! uses exactly this asymmetry ("walking page tables takes longer when
//! translating a virtual address mapped on a 4 KiB page").

use core::fmt;

use crate::addr::VirtAddr;
use crate::table::{FrameId, Level};
use crate::walk::EffectivePerms;

/// The levels the PSC caches: every level but the last.
const CACHED_LEVELS: usize = Level::WALK_ORDER.len() - 1;

/// Geometry of the three paging-structure caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PscConfig {
    /// Entries in the PML4E cache.
    pub pml4e_entries: usize,
    /// Entries in the PDPTE cache.
    pub pdpte_entries: usize,
    /// Entries in the PDE cache.
    pub pde_entries: usize,
}

impl Default for PscConfig {
    /// Sizes in the ballpark of recent Intel cores (exact values are not
    /// architecturally documented; only their existence matters here).
    fn default() -> Self {
        Self {
            pml4e_entries: 16,
            pdpte_entries: 16,
            pde_entries: 64,
        }
    }
}

/// A cached partial translation: "the entry at `level` for this address
/// range points at `next_table` with these accumulated permissions".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PscEntry {
    /// Paging structure the cached entry points to.
    pub next_table: FrameId,
    /// Permissions accumulated from the root down to this entry.
    pub perms: EffectivePerms,
}

/// One fully-associative PSC array.
///
/// The array sits inside every simulated walk, and region-scan attacks
/// miss it on nearly every probe, so membership is answered by a small
/// open-addressed hash index (tag → slot) instead of a linear scan.
/// Replacement semantics are identical to the reference
/// scan-and-min-stamp LRU: strictly increasing stamps, minimum-stamp
/// (unique ⇒ least-recently-used) victim.
#[derive(Clone, Debug)]
struct AssocArray {
    capacity: usize,
    tags: Vec<u64>,
    entries: Vec<PscEntry>,
    stamps: Vec<u64>,
    clock: u64,
    index: crate::tagidx::TagIndex,
    /// Slot of the most recent hit. Region scans re-hit the same PDPTE
    /// tag for 512 consecutive 2 MiB probes, so one verified compare
    /// usually answers the lookup without touching the hash index. The
    /// value needs no invalidation hooks: tags are unique, so
    /// `tags[mru] == tag` alone proves `mru` is `tag`'s slot, and any
    /// stale value simply fails the compare and falls through.
    mru: usize,
}

impl AssocArray {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tags: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            clock: 0,
            index: crate::tagidx::TagIndex::with_capacity(capacity),
            mru: usize::MAX,
        }
    }

    fn position(&mut self, tag: u64) -> Option<usize> {
        if self.tags.get(self.mru) == Some(&tag) {
            return Some(self.mru);
        }
        let pos = self.index.find(tag);
        if let Some(i) = pos {
            self.mru = i;
        }
        pos
    }

    fn lookup(&mut self, tag: u64) -> Option<PscEntry> {
        // The clock advances only when a stamp is assigned (hit here,
        // or insert): stamps stay strictly increasing and their
        // *relative order* — the only thing min-stamp LRU eviction can
        // observe — is identical to a clock that also ticked on misses.
        // Region scans miss on nearly every probe, so not touching the
        // clock on the miss path keeps it out of the hot loop entirely.
        if let Some(i) = self.position(tag) {
            self.clock += 1;
            self.stamps[i] = self.clock;
            return Some(self.entries[i]);
        }
        None
    }

    fn insert(&mut self, tag: u64, entry: PscEntry) {
        self.clock += 1;
        if let Some(i) = self.position(tag) {
            self.entries[i] = entry;
            self.stamps[i] = self.clock;
            return;
        }
        if self.tags.len() < self.capacity {
            self.tags.push(tag);
            self.entries.push(entry);
            self.stamps.push(self.clock);
            self.index.insert(tag, self.tags.len() - 1);
        } else if let Some(victim) = (0..self.stamps.len()).min_by_key(|&i| self.stamps[i]) {
            self.tags[victim] = tag;
            self.entries[victim] = entry;
            self.stamps[victim] = self.clock;
            self.index.rebuild(&self.tags);
        }
    }

    fn invalidate_tag(&mut self, tag: u64) {
        // Tags are unique (insert dedups), so at most one slot matches;
        // `remove` keeps slot order identical to the reference retain.
        if let Some(i) = self.position(tag) {
            self.tags.remove(i);
            self.entries.remove(i);
            self.stamps.remove(i);
            self.index.rebuild(&self.tags);
        }
    }

    fn clear(&mut self) {
        self.index.clear(&self.tags);
        self.tags.clear();
        self.entries.clear();
        self.stamps.clear();
    }

    /// Back to the state [`AssocArray::new`] builds, keeping the
    /// allocations.
    fn reset(&mut self) {
        self.clear();
        self.clock = 0;
        self.mru = usize::MAX;
    }

    fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` when some cached tag lies in `lo..=hi`.
    fn holds_tag_in(&self, lo: u64, hi: u64) -> bool {
        self.tags.iter().any(|&t| lo <= t && t <= hi)
    }
}

/// A PSC slot proven to be the one [`PagingStructureCache::lookup_deepest`]
/// hits for a range of addresses (see
/// [`PagingStructureCache::prove_resume`]). Valid only while
/// [`PagingStructureCache::generation`] is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PscResume {
    level: Level,
    slot: usize,
    tag: u64,
}

impl PscResume {
    /// `true` when `va` carries this slot's tag.
    pub(crate) fn tags(&self, va: VirtAddr) -> bool {
        PagingStructureCache::tag_for(va, self.level) == self.tag
    }

    /// The first and last address carrying this slot's tag.
    pub(crate) fn span(&self) -> (u64, u64) {
        let first = self.tag << self.level.shift();
        (first, first | (self.level.entry_span() - 1))
    }
}

/// The three-level paging-structure cache.
///
/// ```
/// use avx_mmu::{PagingStructureCache, PscConfig};
/// let psc = PagingStructureCache::new(PscConfig::default());
/// assert_eq!(psc.len(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct PagingStructureCache {
    config: PscConfig,
    /// One array per cached level, indexed by [`Level`]: the PML4E,
    /// PDPTE and PDE caches.
    arrays: [AssocArray; CACHED_LEVELS],
    hits: u64,
    misses: u64,
    /// Bumped by every change to the arrays' tags, slots or entries
    /// (`insert`, `invlpg`, `flush_all`); lookups leave it alone. A
    /// [`PscResume`] proof holds while it is unchanged.
    generation: u64,
}

impl PagingStructureCache {
    /// Creates an empty PSC with the given geometry.
    #[must_use]
    pub fn new(config: PscConfig) -> Self {
        Self {
            config,
            arrays: [
                config.pml4e_entries,
                config.pdpte_entries,
                config.pde_entries,
            ]
            .map(AssocArray::new),
            hits: 0,
            misses: 0,
            generation: 0,
        }
    }

    fn tag_for(va: VirtAddr, level: Level) -> u64 {
        va.as_u64() >> level.shift()
    }

    /// The cached levels, deepest first: the order `lookup_deepest`
    /// probes them in.
    fn deepest_first() -> impl Iterator<Item = Level> {
        Level::WALK_ORDER[..CACHED_LEVELS].iter().copied().rev()
    }

    /// Finds the deepest cached partial translation for `va`.
    ///
    /// Returns the level of the cached entry (the entry *at* that level is
    /// known, so the walk resumes at the next level down).
    pub fn lookup_deepest(&mut self, va: VirtAddr) -> Option<(Level, PscEntry)> {
        // `deepest_first`, written out: as a loop it measured twice as
        // slow.
        let hit = self
            .lookup_at(Level::Pd, va)
            .or_else(|| self.lookup_at(Level::Pdpt, va))
            .or_else(|| self.lookup_at(Level::Pml4, va));
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// One array's part of `lookup_deepest`.
    fn lookup_at(&mut self, level: Level, va: VirtAddr) -> Option<(Level, PscEntry)> {
        let tag = Self::tag_for(va, level);
        self.arrays[level].lookup(tag).map(|entry| (level, entry))
    }

    /// Caches the entry observed at `level` during a walk of `va`.
    ///
    /// PT-level insertions are ignored (architecture: PTEs go to the TLB
    /// only).
    pub fn insert(&mut self, level: Level, va: VirtAddr, entry: PscEntry) {
        if !level.psc_cached() {
            return;
        }
        self.generation += 1;
        self.arrays[level].insert(Self::tag_for(va, level), entry);
    }

    /// `true` when entries at `level` can actually be cached (non-zero
    /// array capacity; always `false` for PT). The shadow index's
    /// analytic-retry shortcut requires the deepest intermediate of a
    /// walk to be cacheable.
    #[must_use]
    pub fn can_cache(&self, level: Level) -> bool {
        level.psc_cached() && self.arrays[level].capacity > 0
    }

    /// Invalidates all cached entries covering `va` (part of `INVLPG`).
    pub fn invlpg(&mut self, va: VirtAddr) {
        self.generation += 1;
        for level in Self::deepest_first() {
            self.arrays[level].invalidate_tag(Self::tag_for(va, level));
        }
    }

    /// Drops every cached entry (CR3 write without PCID).
    pub fn flush_all(&mut self) {
        self.generation += 1;
        self.arrays.iter_mut().for_each(AssocArray::clear);
    }

    /// Puts the cache back into exactly the state
    /// [`PagingStructureCache::new`] builds for its geometry: no
    /// entries, zeroed clocks, counters and generation. Only the
    /// entries that were filled are cleared, and the allocations are
    /// kept, so one cache serves a stream of fresh machines.
    pub fn reset(&mut self) {
        self.arrays.iter_mut().for_each(AssocArray::reset);
        self.hits = 0;
        self.misses = 0;
        self.generation = 0;
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn config(&self) -> PscConfig {
        self.config
    }

    /// The mutation counter the run server's PSC-resume proofs are
    /// keyed on (see [`crate::ResumeMemo`]).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Proves, without touching any state, how
    /// [`PagingStructureCache::lookup_deepest`] resolves every address
    /// in `lo..=hi` that shares `va`'s tag at `level`: it hits `level`'s
    /// slot for that tag, because every deeper array misses. `None`
    /// when `level` does not hold the tag or a deeper array holds a tag
    /// inside the range. Returns the proof and the cached entry.
    pub(crate) fn prove_resume(
        &self,
        level: Level,
        va: VirtAddr,
        lo: u64,
        hi: u64,
    ) -> Option<(PscResume, PscEntry)> {
        if !level.psc_cached() {
            return None;
        }
        let proof = PscResume {
            level,
            slot: 0,
            tag: Self::tag_for(va, level),
        };
        let (first, last) = proof.span();
        let (lo, hi) = (lo.max(first), hi.min(last));
        let array = &self.arrays[level];
        let slot = array.index.find(proof.tag)?;
        let deeper_clear = Self::deepest_first()
            .take_while(|&deeper| deeper > level)
            .all(|deeper| !self.holds_tag_in(deeper, lo, hi));
        deeper_clear.then(|| (PscResume { slot, ..proof }, array.entries[slot]))
    }

    /// `true` when `lookup_deepest` misses every array for every
    /// address in `lo..=hi` (no cached tag inside the range). Pure.
    pub(crate) fn proves_miss(&self, lo: u64, hi: u64) -> bool {
        Self::deepest_first().all(|level| !self.holds_tag_in(level, lo, hi))
    }

    /// `true` when `level`'s array caches the tag of some address in
    /// `lo..=hi`.
    fn holds_tag_in(&self, level: Level, lo: u64, hi: u64) -> bool {
        let shift = level.shift();
        self.arrays[level].holds_tag_in(lo >> shift, hi >> shift)
    }

    /// The entry `proof` names (pure). The caller must have checked that
    /// [`Self::generation`] still equals the generation the proof was
    /// made at.
    pub(crate) fn resume_entry(&self, proof: &PscResume) -> PscEntry {
        let array = &self.arrays[proof.level];
        debug_assert_eq!(array.tags[proof.slot], proof.tag, "stale PSC proof");
        array.entries[proof.slot]
    }

    /// Applies exactly the state changes of `n` `lookup_deepest` calls
    /// that `proof` covers: the hit array's clock advances by `n`, the
    /// slot takes the last stamp and becomes the MRU slot, and the hit
    /// count grows by `n` (the deeper arrays' misses change nothing).
    /// Stamps only order slots, so one jump of `n` leaves every later
    /// lookup and eviction as `n` single hits would (invariant 3). `n = 0`
    /// changes nothing. The caller must have checked that
    /// [`Self::generation`] still equals the generation the proof was
    /// made at.
    pub(crate) fn replay_hits(&mut self, proof: &PscResume, n: u64) {
        if n == 0 {
            return;
        }
        let array = &mut self.arrays[proof.level];
        debug_assert_eq!(array.tags[proof.slot], proof.tag, "stale PSC proof");
        array.clock += n;
        array.stamps[proof.slot] = array.clock;
        array.mru = proof.slot;
        self.hits += n;
    }

    /// Applies the state change of `n` `lookup_deepest` calls proven to
    /// miss by [`Self::proves_miss`]: the miss count alone.
    pub(crate) fn replay_misses(&mut self, n: u64) {
        self.misses += n;
    }

    /// Total number of live entries across the three arrays.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrays.iter().map(AssocArray::len).sum()
    }

    /// `true` when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hit count (for diagnostics and tests).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup miss count.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Default for PagingStructureCache {
    fn default() -> Self {
        Self::new(PscConfig::default())
    }
}

impl fmt::Display for PagingStructureCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PSC(pml4e={}, pdpte={}, pde={}, hits={}, misses={})",
            self.arrays[Level::Pml4].len(),
            self.arrays[Level::Pdpt].len(),
            self.arrays[Level::Pd].len(),
            self.hits,
            self.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32) -> PscEntry {
        PscEntry {
            next_table: FrameId(id),
            perms: EffectivePerms::kernel_default(),
        }
    }

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    #[test]
    fn empty_psc_misses() {
        let mut psc = PagingStructureCache::default();
        assert!(psc.lookup_deepest(va(0xffff_ffff_8000_0000)).is_none());
        assert_eq!(psc.misses(), 1);
    }

    #[test]
    fn deepest_level_wins() {
        let mut psc = PagingStructureCache::default();
        let a = va(0xffff_ffff_8012_3000);
        psc.insert(Level::Pml4, a, entry(1));
        psc.insert(Level::Pd, a, entry(3));
        let (level, e) = psc.lookup_deepest(a).unwrap();
        assert_eq!(level, Level::Pd);
        assert_eq!(e.next_table, FrameId(3));
    }

    #[test]
    fn pt_insert_is_ignored() {
        let mut psc = PagingStructureCache::default();
        psc.insert(Level::Pt, va(0x1000), entry(9));
        assert!(psc.is_empty());
    }

    #[test]
    fn tags_distinguish_ranges() {
        let mut psc = PagingStructureCache::default();
        let a = va(0xffff_ffff_8000_0000);
        let b = va(0xffff_ffff_8020_0000); // different 2 MiB range, same PDPT
        psc.insert(Level::Pd, a, entry(7));
        assert!(psc.lookup_deepest(b).is_none());
        let (level, _) = psc.lookup_deepest(a).unwrap();
        assert_eq!(level, Level::Pd);
    }

    #[test]
    fn same_pml4e_shared_across_512_gib() {
        let mut psc = PagingStructureCache::default();
        let a = va(0xffff_ffff_8000_0000);
        let b = va(0xffff_ffff_c000_0000); // same PML4 slot 511
        psc.insert(Level::Pml4, a, entry(1));
        let (level, _) = psc.lookup_deepest(b).unwrap();
        assert_eq!(level, Level::Pml4);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut psc = PagingStructureCache::new(PscConfig {
            pml4e_entries: 2,
            pdpte_entries: 2,
            pde_entries: 2,
        });
        let a = va(0x0000_0000_0000);
        let b = va(0x0000_0020_0000);
        let c = va(0x0000_0040_0000);
        psc.insert(Level::Pd, a, entry(1));
        psc.insert(Level::Pd, b, entry(2));
        // Touch a so b becomes LRU.
        psc.lookup_deepest(a);
        psc.insert(Level::Pd, c, entry(3));
        assert!(psc.lookup_deepest(b).is_none(), "b should be evicted");
        assert!(psc.lookup_deepest(a).is_some());
        assert!(psc.lookup_deepest(c).is_some());
    }

    /// One `replay_hits(n)` leaves the PSC as `n` single replays and as
    /// the `n` `lookup_deepest` calls it stands for (invariant 3): the
    /// clock, the slot's stamp, the MRU slot and the hit count, and so
    /// the next eviction's victim (invariant 4). `replay_misses(n)` is
    /// `n` proven misses, and `n = 0` changes nothing.
    #[test]
    fn replay_hits_of_n_equal_n_hits() {
        let small = PscConfig {
            pml4e_entries: 2,
            pdpte_entries: 3,
            pde_entries: 3,
        };
        let mut psc = PagingStructureCache::new(small);
        let [a, b, c] = [0x20_0000, 0x40_0000, 0x4000_0000].map(va);
        psc.insert(Level::Pd, b, entry(2));
        psc.insert(Level::Pd, a, entry(1));
        psc.insert(Level::Pd, c, entry(3));
        psc.insert(Level::Pdpt, c, entry(4));
        // `b` is the LRU PDE, `a` next; a resume proof for `b`'s slot.
        let (proof, resumed) = psc.prove_resume(Level::Pd, b, 0, u64::MAX).unwrap();
        assert_eq!(resumed, entry(2));
        for n in [0u64, 1, 2, 7] {
            let (mut batched, mut single, mut looked_up) = (psc.clone(), psc.clone(), psc.clone());
            batched.replay_hits(&proof, n);
            for _ in 0..n {
                single.replay_hits(&proof, 1);
                assert_eq!(looked_up.lookup_deepest(b).unwrap(), (Level::Pd, entry(2)));
            }
            let state = format!("{batched:?}");
            assert_eq!(state, format!("{single:?}"), "n = {n}: n single replays");
            assert_eq!(state, format!("{looked_up:?}"), "n = {n}: n lookups");
            assert_eq!(batched.hits(), psc.hits() + n);
            assert_eq!(
                batched.generation(),
                psc.generation(),
                "replays change no slot"
            );
            // The next insert evicts the same victim in all three.
            let d = va(0x60_0000);
            for p in [&mut batched, &mut single, &mut looked_up] {
                p.insert(Level::Pd, d, entry(5));
            }
            let state = format!("{batched:?}");
            assert_eq!(state, format!("{single:?}"), "n = {n}: eviction");
            assert_eq!(state, format!("{looked_up:?}"), "n = {n}: eviction");
            // Any hit makes `b` the most recent, so `a` goes instead.
            let (evicted, kept) = if n == 0 { (b, a) } else { (a, b) };
            assert!(batched.lookup_deepest(evicted).is_none(), "n = {n}");
            assert!(batched.lookup_deepest(kept).is_some(), "n = {n}");
        }
        // Proven misses: the miss count alone.
        let (mut batched, mut looked_up) = (psc.clone(), psc.clone());
        let far = va(0x7f00_0000_0000);
        assert!(psc.proves_miss(far.as_u64(), far.as_u64()));
        batched.replay_misses(3);
        for _ in 0..3 {
            assert!(looked_up.lookup_deepest(far).is_none());
        }
        assert_eq!(format!("{batched:?}"), format!("{looked_up:?}"));
    }

    #[test]
    fn invlpg_removes_covering_entries_only() {
        let mut psc = PagingStructureCache::default();
        let a = va(0xffff_ffff_8000_0000);
        let other = va(0xffff_ffff_8020_0000);
        psc.insert(Level::Pd, a, entry(1));
        psc.insert(Level::Pd, other, entry(2));
        psc.invlpg(a);
        assert!(psc.lookup_deepest(a).is_none());
        assert!(psc.lookup_deepest(other).is_some());
    }

    #[test]
    fn flush_all_empties() {
        let mut psc = PagingStructureCache::default();
        psc.insert(Level::Pd, va(0x20_0000), entry(1));
        psc.insert(Level::Pdpt, va(0x4000_0000), entry(2));
        psc.flush_all();
        assert!(psc.is_empty());
    }

    /// Each array tags by its own level's span: an entry covers its
    /// whole PML4E, PDPTE or PDE span and no more, and `invlpg` of any
    /// address in the span drops it.
    #[test]
    fn each_level_tags_its_own_span() {
        let base = va(0xffff_ff80_0000_0000);
        for (level, span) in [
            (Level::Pml4, 512u64 << 30),
            (Level::Pdpt, 1 << 30),
            (Level::Pd, 2 << 20),
        ] {
            let mut psc = PagingStructureCache::default();
            psc.insert(level, base, entry(1));
            let last = base.wrapping_add(span - 1);
            let hit = psc.lookup_deepest(last).map(|(l, _)| l);
            assert_eq!(hit, Some(level), "{level}: the span's last address");
            let next = base.wrapping_add(span);
            assert!(psc.lookup_deepest(next).is_none(), "{level}: the next span");
            psc.invlpg(last);
            assert!(psc.is_empty(), "{level}: invlpg");
        }
    }

    #[test]
    fn insert_updates_existing_tag() {
        let mut psc = PagingStructureCache::default();
        let a = va(0x20_0000);
        psc.insert(Level::Pd, a, entry(1));
        psc.insert(Level::Pd, a, entry(5));
        let (_, e) = psc.lookup_deepest(a).unwrap();
        assert_eq!(e.next_table, FrameId(5));
        assert_eq!(psc.len(), 1);
    }
}
