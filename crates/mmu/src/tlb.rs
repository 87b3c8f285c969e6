//! Translation look-aside buffer model.
//!
//! Two-level structure mirroring recent Intel cores: a small
//! set-associative first-level D-TLB for 4 KiB translations plus a
//! fully-associative array for huge pages, backed by a large unified
//! second-level STLB. Only present translations are cached — a walk that
//! ends at a non-present entry inserts nothing, which is the
//! architectural root of the paper's mapped/unmapped timing signal (P2)
//! and of the TLB attack (P4).

use core::fmt;

use crate::addr::VirtAddr;
use crate::space::PageSize;
use crate::walk::EffectivePerms;

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Sets in the first-level 4 KiB D-TLB.
    pub dtlb_sets: usize,
    /// Ways per set in the first-level 4 KiB D-TLB.
    pub dtlb_ways: usize,
    /// Entries in the fully-associative huge-page (2 MiB/1 GiB) array.
    pub huge_entries: usize,
    /// Sets in the unified second-level STLB.
    pub stlb_sets: usize,
    /// Ways per set in the unified second-level STLB.
    pub stlb_ways: usize,
}

impl Default for TlbConfig {
    /// Ice-Lake-like geometry (64-entry DTLB, 32-entry huge array,
    /// 1536-entry 12-way STLB).
    fn default() -> Self {
        Self {
            dtlb_sets: 16,
            dtlb_ways: 4,
            huge_entries: 32,
            stlb_sets: 128,
            stlb_ways: 12,
        }
    }
}

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number (address >> page shift).
    pub vpn: u64,
    /// Page size of the translation.
    pub size: PageSize,
    /// Physical frame number of the mapped page.
    pub pfn: u64,
    /// Effective permissions incl. dirty state at fill time.
    pub perms: EffectivePerms,
}

impl TlbEntry {
    /// `true` if this entry translates `va`.
    #[must_use]
    pub fn covers(&self, va: VirtAddr) -> bool {
        va.as_u64() >> self.size.shift() == self.vpn
    }
}

/// Which level of the TLB hierarchy produced a hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbLookup {
    /// First-level hit (D-TLB or huge array).
    L1,
    /// Second-level (STLB) hit; the entry is promoted to L1.
    L2,
}

/// Packed lookup key: VPN in the high bits, a 2-bit page-size code in
/// the low bits, so a way-scan is one dense `u64` compare per way.
fn tlb_key(vpn: u64, size: PageSize) -> u64 {
    let code = match size {
        PageSize::Size4K => 0u64,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    (vpn << 2) | code
}

/// 2-bit size code shared by [`tlb_key`] and the per-size occupancy
/// counters.
fn size_code_for_shift(size_shift: u32) -> usize {
    match size_shift {
        12 => 0,
        21 => 1,
        30 => 2,
        _ => unreachable!("architectural page shifts only"),
    }
}

fn tlb_key_for_shift(va: VirtAddr, size_shift: u32) -> u64 {
    ((va.as_u64() >> size_shift) << 2) | size_code_for_shift(size_shift) as u64
}

/// The span of a TLB with no entries: contains no address.
const EMPTY_SPAN: (u64, u64) = (u64::MAX, 0);

/// A placeholder for invalid slots (parallel-array layout needs a value
/// there; `stamp == 0` marks it dead and it is never read as an entry).
const DEAD_ENTRY: TlbEntry = TlbEntry {
    vpn: 0,
    size: PageSize::Size4K,
    pfn: 0,
    perms: EffectivePerms {
        user: false,
        writable: false,
        no_execute: false,
        global: false,
        dirty: false,
    },
};

/// Set-associative array in a struct-of-arrays layout: the hot way-scan
/// touches a dense stamp/key slice (the tuple-of-`Option` layout made
/// every probe walk ~56 bytes per way). Replacement semantics are
/// unchanged: strictly increasing stamps, minimum-stamp LRU victim.
#[derive(Clone, Debug)]
struct SetAssoc {
    sets: usize,
    ways: usize,
    /// stamps[set * ways + way]; 0 = invalid.
    stamps: Vec<u64>,
    keys: Vec<u64>,
    entries: Vec<TlbEntry>,
    /// Live entries per set: region sweeps miss on almost every probe,
    /// and most sets are empty, so the way-scan is skipped outright.
    live: Vec<u16>,
    /// Live entries per page-size code. A lookup for a size with no
    /// cached translations is a guaranteed miss, and — since the miss
    /// path touches no replacement state — skipping it outright is
    /// unobservable. The unified STLB is probed once per page size on
    /// every translation, so this prunes whole probes from the scan
    /// loop (e.g. no 1 GiB mappings ⇒ the 1 GiB probe never runs).
    live_by_size: [u32; 3],
    /// Per-set key signature: one hash bit per live key. A clear bit is
    /// a guaranteed miss (no false negatives by construction), letting
    /// the lookup skip the whole way-scan — the dominant cost once sets
    /// fill up, since a sweep probes a fresh key almost every time.
    /// Rebuilt from the live ways whenever a key leaves a set.
    sig: Vec<u64>,
    clock: u64,
}

/// One hash bit per key for the per-set signatures (Fibonacci hash,
/// top bits — the low key bits are the set index and carry no entropy
/// within a set).
fn sig_bit(key: u64) -> u64 {
    1u64 << (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58)
}

impl SetAssoc {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets,
            ways,
            stamps: vec![0; sets * ways],
            keys: vec![0; sets * ways],
            entries: vec![DEAD_ENTRY; sets * ways],
            live: vec![0; sets],
            live_by_size: [0; 3],
            sig: vec![0; sets],
            clock: 0,
        }
    }

    fn set_index(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets - 1)
    }

    /// Recomputes one set's key signature from its live ways (cold
    /// paths only: eviction, invalidation, flush).
    fn rebuild_sig(&mut self, set: usize) {
        let base = set * self.ways;
        let mut sig = 0u64;
        for slot in base..base + self.ways {
            if self.stamps[slot] != 0 {
                sig |= sig_bit(self.keys[slot]);
            }
        }
        self.sig[set] = sig;
    }

    fn lookup(&mut self, va: VirtAddr, size_shift: u32) -> Option<TlbEntry> {
        if self.live_by_size[size_code_for_shift(size_shift)] == 0 {
            return None;
        }
        let vpn = va.as_u64() >> size_shift;
        let set = self.set_index(vpn);
        if self.live[set] == 0 {
            return None;
        }
        let key = tlb_key_for_shift(va, size_shift);
        if self.sig[set] & sig_bit(key) == 0 {
            return None;
        }
        let base = set * self.ways;
        for slot in base..base + self.ways {
            if self.stamps[slot] != 0 && self.keys[slot] == key {
                // The clock ticks only when a stamp is assigned: the
                // min-stamp victim choice depends on stamp *order*
                // alone, and that order is unchanged by skipping the
                // (frequent) miss-path increments.
                self.clock += 1;
                self.stamps[slot] = self.clock;
                return Some(self.entries[slot]);
            }
        }
        None
    }

    fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.clock += 1;
        let key = tlb_key(entry.vpn, entry.size);
        let set = self.set_index(entry.vpn);
        let base = set * self.ways;
        // Update in place if present.
        for slot in base..base + self.ways {
            if self.stamps[slot] != 0 && self.keys[slot] == key {
                self.entries[slot] = entry;
                self.stamps[slot] = self.clock;
                return None;
            }
        }
        // Free way?
        for slot in base..base + self.ways {
            if self.stamps[slot] == 0 {
                self.stamps[slot] = self.clock;
                self.keys[slot] = key;
                self.entries[slot] = entry;
                self.live[set] += 1;
                self.live_by_size[(key & 3) as usize] += 1;
                self.sig[set] |= sig_bit(key);
                return None;
            }
        }
        // Evict LRU (stamps are unique and non-zero here).
        let victim = (base..base + self.ways)
            .min_by_key(|&slot| self.stamps[slot])
            .expect("ways > 0");
        let evicted = self.entries[victim];
        self.live_by_size[(self.keys[victim] & 3) as usize] -= 1;
        self.live_by_size[(key & 3) as usize] += 1;
        self.stamps[victim] = self.clock;
        self.keys[victim] = key;
        self.entries[victim] = entry;
        self.rebuild_sig(set);
        Some(evicted)
    }

    fn invalidate(&mut self, va: VirtAddr) {
        for slot in 0..self.stamps.len() {
            if self.stamps[slot] != 0 && self.entries[slot].covers(va) {
                self.stamps[slot] = 0;
                self.live[slot / self.ways] -= 1;
                self.live_by_size[(self.keys[slot] & 3) as usize] -= 1;
                self.rebuild_sig(slot / self.ways);
            }
        }
    }

    fn flush(&mut self, keep_global: bool) {
        for set in 0..self.sets {
            // Every path that empties a set rebuilds its signature, so
            // an empty set's is already 0: only live sets are visited.
            if self.live[set] == 0 {
                debug_assert_eq!(self.sig[set], 0, "empty set {set} keeps signature bits");
                continue;
            }
            let base = set * self.ways;
            for slot in base..base + self.ways {
                let stale =
                    self.stamps[slot] != 0 && !(keep_global && self.entries[slot].perms.global);
                if stale {
                    self.stamps[slot] = 0;
                    self.live[set] -= 1;
                    self.live_by_size[(self.keys[slot] & 3) as usize] -= 1;
                }
            }
            self.rebuild_sig(set);
        }
    }

    /// Back to the state [`SetAssoc::new`] builds: every way dead and
    /// the clock at zero. Only live sets are written; dead ways' keys
    /// and entries are never read.
    fn reset(&mut self) {
        for set in 0..self.sets {
            if self.live[set] != 0 {
                let base = set * self.ways;
                self.stamps[base..base + self.ways].fill(0);
                self.live[set] = 0;
                self.sig[set] = 0;
            }
        }
        self.live_by_size = [0; 3];
        self.clock = 0;
    }

    fn contains(&self, va: VirtAddr) -> bool {
        (0..self.stamps.len()).any(|s| self.stamps[s] != 0 && self.entries[s].covers(va))
    }

    fn set_dirty(&mut self, va: VirtAddr) {
        for slot in 0..self.stamps.len() {
            if self.stamps[slot] != 0 && self.entries[slot].covers(va) {
                self.entries[slot].perms.dirty = true;
            }
        }
    }

    fn len(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != 0).count()
    }
}

/// Fully-associative array with an open-addressed key index: probes
/// miss it on nearly every sweep candidate, so membership must not cost
/// a scan. Hit order (first matching slot) and LRU replacement are
/// identical to the reference tuple-vector implementation — the index
/// stores slot positions, and the (at most three) per-size candidates
/// are resolved to the lowest position, which is exactly the first
/// match of a slot-order scan.
#[derive(Clone, Debug)]
struct FullyAssoc {
    capacity: usize,
    keys: Vec<u64>,
    entries: Vec<TlbEntry>,
    stamps: Vec<u64>,
    clock: u64,
    index: crate::tagidx::TagIndex,
    /// Live entries per page-size code (see [`SetAssoc::live_by_size`]):
    /// lets `covering_position` skip the hash probe for a size with no
    /// cached translations — a guaranteed miss with no observable state.
    live_by_size: [u32; 3],
}

impl FullyAssoc {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            keys: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            clock: 0,
            index: crate::tagidx::TagIndex::with_capacity(capacity),
            live_by_size: [0; 3],
        }
    }

    /// Slot holding exactly `key`, via the shared tag index (keys are
    /// unique: insert dedups by (vpn, size)).
    fn key_position(&self, key: u64) -> Option<usize> {
        self.index.find(key)
    }

    /// First slot whose entry covers `va` (scan order = slot order, as
    /// in the reference implementation). An entry covers `va` iff its
    /// packed key equals the key derived from `va` at the entry's page
    /// size; distinct sizes may both cover `va` (stale entries), so the
    /// lowest slot position wins — the first match of a linear scan.
    fn covering_position(&self, va: VirtAddr) -> Option<usize> {
        // Only 2 MiB / 1 GiB translations ever land here ([`Tlb`] routes
        // 4 KiB entries to the D-TLB), so two candidate keys suffice —
        // and a size with zero live entries needs no probe at all.
        let mut best: Option<usize> = None;
        for shift in [21u32, 30] {
            if self.live_by_size[size_code_for_shift(shift)] == 0 {
                continue;
            }
            if let Some(pos) = self.key_position(tlb_key_for_shift(va, shift)) {
                best = Some(best.map_or(pos, |b: usize| b.min(pos)));
            }
        }
        best
    }

    fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        if let Some(i) = self.covering_position(va) {
            // Clock ticks only on stamp assignment — see
            // `SetAssoc::lookup` for why this preserves LRU order.
            self.clock += 1;
            self.stamps[i] = self.clock;
            return Some(self.entries[i]);
        }
        None
    }

    fn insert(&mut self, entry: TlbEntry) {
        self.clock += 1;
        let key = tlb_key(entry.vpn, entry.size);
        if let Some(i) = self.key_position(key) {
            self.entries[i] = entry;
            self.stamps[i] = self.clock;
            return;
        }
        if self.keys.len() < self.capacity {
            self.keys.push(key);
            self.entries.push(entry);
            self.stamps.push(self.clock);
            self.live_by_size[(key & 3) as usize] += 1;
            self.index.insert(key, self.keys.len() - 1);
        } else if let Some(victim) = (0..self.stamps.len()).min_by_key(|&i| self.stamps[i]) {
            self.live_by_size[(self.keys[victim] & 3) as usize] -= 1;
            self.live_by_size[(key & 3) as usize] += 1;
            self.keys[victim] = key;
            self.entries[victim] = entry;
            self.stamps[victim] = self.clock;
            self.index.rebuild(&self.keys);
        }
    }

    fn invalidate(&mut self, va: VirtAddr) {
        while let Some(i) = self.covering_position(va) {
            self.live_by_size[(self.keys[i] & 3) as usize] -= 1;
            self.keys.remove(i);
            self.entries.remove(i);
            self.stamps.remove(i);
            // Positions shifted; rebuild before re-probing.
            self.index.rebuild(&self.keys);
        }
    }

    fn flush(&mut self, keep_global: bool) {
        if keep_global {
            let mut i = 0;
            while i < self.keys.len() {
                if self.entries[i].perms.global {
                    i += 1;
                } else {
                    self.live_by_size[(self.keys[i] & 3) as usize] -= 1;
                    self.keys.remove(i);
                    self.entries.remove(i);
                    self.stamps.remove(i);
                }
            }
            self.index.rebuild(&self.keys);
        } else {
            self.index.clear(&self.keys);
            self.keys.clear();
            self.entries.clear();
            self.stamps.clear();
            self.live_by_size = [0; 3];
        }
    }

    /// Back to the state [`FullyAssoc::new`] builds.
    fn reset(&mut self) {
        self.flush(false);
        self.clock = 0;
    }

    fn contains(&self, va: VirtAddr) -> bool {
        self.covering_position(va).is_some()
    }

    fn set_dirty(&mut self, va: VirtAddr) {
        for i in 0..self.keys.len() {
            if self.entries[i].covers(va) {
                self.entries[i].perms.dirty = true;
            }
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// The two-level TLB.
///
/// ```
/// use avx_mmu::{Tlb, TlbConfig, TlbEntry, PageSize};
/// use avx_mmu::walk::EffectivePerms;
/// use avx_mmu::VirtAddr;
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// let va = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
/// tlb.insert(TlbEntry {
///     vpn: va.as_u64() >> PageSize::Size2M.shift(),
///     size: PageSize::Size2M,
///     pfn: 0x1000,
///     perms: EffectivePerms::kernel_default(),
/// });
/// assert!(tlb.lookup(va).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    dtlb: SetAssoc,
    huge: FullyAssoc,
    stlb: SetAssoc,
    config: TlbConfig,
    hits_l1: u64,
    hits_l2: u64,
    misses: u64,
    /// Conservative hull `span.0..=span.1` of every address a cached
    /// entry may cover: it widens on each fill and resets only when
    /// [`Tlb::flush`] empties every array (`span.0 > span.1` means
    /// empty). Invalidations leave it wide, which keeps it an upper
    /// bound. An address outside it is a guaranteed miss.
    span: (u64, u64),
}

impl Tlb {
    /// Creates an empty TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless set counts are powers of two and ways are non-zero.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.dtlb_sets.is_power_of_two(), "dtlb_sets must be 2^n");
        assert!(config.stlb_sets.is_power_of_two(), "stlb_sets must be 2^n");
        assert!(config.dtlb_ways > 0 && config.stlb_ways > 0, "ways > 0");
        Self {
            dtlb: SetAssoc::new(config.dtlb_sets, config.dtlb_ways),
            huge: FullyAssoc::new(config.huge_entries),
            stlb: SetAssoc::new(config.stlb_sets, config.stlb_ways),
            config,
            hits_l1: 0,
            hits_l2: 0,
            misses: 0,
            span: EMPTY_SPAN,
        }
    }

    /// The geometry this TLB was built with.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Looks up a translation for `va`, updating replacement state.
    ///
    /// An STLB hit is promoted into the first level, as hardware does.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<(TlbEntry, TlbLookup)> {
        if let Some(e) = self.dtlb.lookup(va, PageSize::Size4K.shift()) {
            self.hits_l1 += 1;
            return Some((e, TlbLookup::L1));
        }
        if let Some(e) = self.huge.lookup(va) {
            self.hits_l1 += 1;
            return Some((e, TlbLookup::L1));
        }
        // Unified STLB holds all page sizes.
        for shift in [
            PageSize::Size4K.shift(),
            PageSize::Size2M.shift(),
            PageSize::Size1G.shift(),
        ] {
            if let Some(e) = self.stlb.lookup(va, shift) {
                self.hits_l2 += 1;
                self.promote(e);
                return Some((e, TlbLookup::L2));
            }
        }
        self.misses += 1;
        None
    }

    /// Peeks without touching replacement state or counters.
    #[must_use]
    pub fn contains(&self, va: VirtAddr) -> bool {
        self.dtlb.contains(va) || self.huge.contains(va) || self.stlb.contains(va)
    }

    /// `false` only when no cached entry can cover `va`, so a
    /// [`Tlb::lookup`] of it is a guaranteed miss. Pure and O(1).
    #[must_use]
    pub fn may_cover(&self, va: VirtAddr) -> bool {
        self.span.0 <= va.as_u64() && va.as_u64() <= self.span.1
    }

    /// Books `n` misses the caller proved with [`Tlb::may_cover`]: the
    /// only state change a missing [`Tlb::lookup`] makes is its counter.
    pub fn record_misses(&mut self, n: u64) {
        self.misses += n;
    }

    fn promote(&mut self, entry: TlbEntry) {
        let start = entry.vpn << entry.size.shift();
        self.span = (
            self.span.0.min(start),
            self.span.1.max(start | (entry.size.bytes() - 1)),
        );
        match entry.size {
            PageSize::Size4K => {
                let _ = self.dtlb.insert(entry);
            }
            _ => self.huge.insert(entry),
        }
    }

    /// Inserts a translation into both levels (walk completion).
    pub fn insert(&mut self, entry: TlbEntry) {
        self.promote(entry);
        let _ = self.stlb.insert(entry);
    }

    /// Updates the cached dirty state for `va`, if cached (store fills).
    pub fn set_dirty(&mut self, va: VirtAddr) {
        self.dtlb.set_dirty(va);
        self.huge.set_dirty(va);
        self.stlb.set_dirty(va);
    }

    /// Invalidates any translation covering `va` (the `INVLPG` part that
    /// touches the TLB proper; the PSC has its own `invlpg`).
    pub fn invlpg(&mut self, va: VirtAddr) {
        self.dtlb.invalidate(va);
        self.huge.invalidate(va);
        self.stlb.invalidate(va);
    }

    /// Flushes everything (CR3 write). Global entries survive unless
    /// `keep_global` is false (CR4.PGE toggle).
    pub fn flush(&mut self, keep_global: bool) {
        self.dtlb.flush(keep_global);
        self.huge.flush(keep_global);
        self.stlb.flush(keep_global);
        if !keep_global {
            self.span = EMPTY_SPAN;
        }
    }

    /// Puts the TLB back into exactly the state [`Tlb::new`] builds for
    /// its geometry: no entries, zeroed replacement clocks and hit/miss
    /// counters, an empty span. Only the sets and slots that hold
    /// entries are cleared, and the allocations are kept, so one TLB
    /// serves a stream of fresh machines.
    pub fn reset(&mut self) {
        self.dtlb.reset();
        self.huge.reset();
        self.stlb.reset();
        self.hits_l1 = 0;
        self.hits_l2 = 0;
        self.misses = 0;
        self.span = EMPTY_SPAN;
    }

    /// Simulates the user-level eviction pattern of Gras et al.: fills the
    /// D-TLB and STLB sets that `va` maps to with attacker translations,
    /// evicting the victim entry without `INVLPG`.
    ///
    /// Returns how many filler translations were inserted.
    pub fn evict_address(&mut self, va: VirtAddr) -> usize {
        let vpn = va.vpn();
        let mut inserted = 0;
        // Enough fillers to exhaust both the D-TLB set and the STLB set:
        // filler vpns congruent modulo both set counts.
        let stride = (self.config.dtlb_sets * self.config.stlb_sets) as u64;
        let fillers = self.config.dtlb_ways + self.config.stlb_ways;
        for i in 1..=fillers {
            // Attacker-controlled user addresses; top bits cleared so they
            // never alias kernel translations.
            let filler_vpn = (vpn & (stride - 1)) + stride * i as u64 + (1 << 30);
            let entry = TlbEntry {
                vpn: filler_vpn,
                size: PageSize::Size4K,
                pfn: filler_vpn,
                perms: EffectivePerms {
                    user: true,
                    writable: true,
                    no_execute: true,
                    global: false,
                    dirty: true,
                },
            };
            self.insert(entry);
            inserted += 1;
        }
        // Huge-page victims sit in the fully-associative array and in
        // STLB sets the 4 KiB fillers do not index; the attacker's real
        // eviction loop also touches huge-page buffers, modelled here as
        // a direct invalidation.
        self.huge.invalidate(va);
        self.stlb.invalidate(va);
        inserted
    }

    /// Number of live entries across all arrays (L1 + L2, duplicates
    /// counted once per array).
    #[must_use]
    pub fn len(&self) -> usize {
        self.dtlb.len() + self.huge.len() + self.stlb.len()
    }

    /// `true` when completely empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (L1 hits, L2 hits, misses) counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits_l1, self.hits_l2, self.misses)
    }

    /// First-level D-TLB associativity (used by eviction-pressure tests).
    #[must_use]
    pub fn dtlb_ways(&self) -> usize {
        self.config.dtlb_ways
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new(TlbConfig::default())
    }
}

impl fmt::Display for Tlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (h1, h2, m) = self.stats();
        write!(
            f,
            "TLB(dtlb={}, huge={}, stlb={}, hits={}+{}, misses={})",
            self.dtlb.len(),
            self.huge.len(),
            self.stlb.len(),
            h1,
            h2,
            m
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_4k(vpn: u64) -> TlbEntry {
        TlbEntry {
            vpn,
            size: PageSize::Size4K,
            pfn: vpn ^ 0xaaaa,
            perms: EffectivePerms {
                user: true,
                writable: true,
                no_execute: true,
                global: false,
                dirty: false,
            },
        }
    }

    fn entry_2m(vpn: u64, global: bool) -> TlbEntry {
        TlbEntry {
            vpn,
            size: PageSize::Size2M,
            pfn: vpn,
            perms: EffectivePerms {
                user: false,
                writable: false,
                no_execute: false,
                global,
                dirty: false,
            },
        }
    }

    fn va_of_4k(vpn: u64) -> VirtAddr {
        VirtAddr::new_truncate(vpn << 12)
    }

    /// A set-associative array with no shortcuts (no per-set counts,
    /// signatures or per-size counts): the reference for [`SetAssoc`].
    struct RefSetAssoc {
        sets: usize,
        /// Per set, its ways: `(stamp, entry)` or free.
        ways: Vec<Vec<Option<(u64, TlbEntry)>>>,
        clock: u64,
    }

    impl RefSetAssoc {
        fn new(sets: usize, ways: usize) -> Self {
            Self {
                sets,
                ways: vec![vec![None; ways]; sets],
                clock: 0,
            }
        }

        fn set_of(&self, vpn: u64) -> usize {
            (vpn as usize) & (self.sets - 1)
        }

        fn lookup(&mut self, va: VirtAddr, size: PageSize) -> Option<TlbEntry> {
            let vpn = va.as_u64() >> size.shift();
            let set = self.set_of(vpn);
            let way = self.ways[set]
                .iter_mut()
                .flatten()
                .find(|(_, e)| e.size == size && e.vpn == vpn)?;
            self.clock += 1;
            way.0 = self.clock;
            Some(way.1)
        }

        fn insert(&mut self, entry: TlbEntry) {
            self.clock += 1;
            let clock = self.clock;
            let set = self.set_of(entry.vpn);
            let set = &mut self.ways[set];
            let same = |(_, e): &(u64, TlbEntry)| e.size == entry.size && e.vpn == entry.vpn;
            let way = match set.iter().position(|w| w.as_ref().is_some_and(same)) {
                Some(way) => way,
                None => match set.iter().position(Option::is_none) {
                    Some(free) => free,
                    None => (0..set.len())
                        .min_by_key(|&w| set[w].map(|(stamp, _)| stamp))
                        .expect("ways > 0"),
                },
            };
            set[way] = Some((clock, entry));
        }

        fn invalidate(&mut self, va: VirtAddr) {
            for way in self.ways.iter_mut().flatten() {
                if way.is_some_and(|(_, e)| e.covers(va)) {
                    *way = None;
                }
            }
        }

        fn flush(&mut self, keep_global: bool) {
            for way in self.ways.iter_mut().flatten() {
                if way.is_some_and(|(_, e)| !(keep_global && e.perms.global)) {
                    *way = None;
                }
            }
        }
    }

    #[test]
    fn set_assoc_flush_keeps_signatures_and_matches_a_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (sets, ways) = (8, 3);
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tlb = SetAssoc::new(sets, ways);
            let mut reference = RefSetAssoc::new(sets, ways);
            let random_entry = |rng: &mut StdRng| {
                let vpn = rng.gen_range(0u64..48);
                if rng.gen_range(0u32..3) == 0 {
                    entry_2m(vpn, rng.gen_range(0u32..2) == 0)
                } else {
                    let mut e = entry_4k(vpn);
                    e.perms.global = rng.gen_range(0u32..4) == 0;
                    e
                }
            };
            for step in 0..400 {
                match rng.gen_range(0u32..10) {
                    0..=4 => {
                        let e = random_entry(&mut rng);
                        let _ = tlb.insert(e);
                        reference.insert(e);
                    }
                    5 | 6 => {
                        let e = random_entry(&mut rng);
                        let va = VirtAddr::new_truncate(e.vpn << e.size.shift());
                        tlb.invalidate(va);
                        reference.invalidate(va);
                    }
                    7 => {
                        let keep_global = rng.gen_range(0u32..2) == 0;
                        tlb.flush(keep_global);
                        reference.flush(keep_global);
                    }
                    _ => {
                        let e = random_entry(&mut rng);
                        let va = VirtAddr::new_truncate(e.vpn << e.size.shift());
                        assert_eq!(
                            tlb.lookup(va, e.size.shift()),
                            reference.lookup(va, e.size),
                            "seed {seed}, step {step}: lookup of {va:?}"
                        );
                    }
                }
                for set in 0..sets {
                    let sig = tlb.sig[set];
                    tlb.rebuild_sig(set);
                    assert_eq!(
                        sig, tlb.sig[set],
                        "seed {seed}, step {step}: set {set} signature"
                    );
                    let live = reference.ways[set].iter().flatten().count();
                    assert_eq!(
                        usize::from(tlb.live[set]),
                        live,
                        "seed {seed}, step {step}: set {set}"
                    );
                }
                let by_size = |size| {
                    reference
                        .ways
                        .iter()
                        .flatten()
                        .flatten()
                        .filter(|(_, e)| e.size == size)
                        .count()
                };
                assert_eq!(tlb.live_by_size[0], by_size(PageSize::Size4K) as u32);
                assert_eq!(tlb.live_by_size[1], by_size(PageSize::Size2M) as u32);
            }
        }
    }

    #[test]
    fn insert_then_hit_l1() {
        let mut tlb = Tlb::default();
        tlb.insert(entry_4k(0x1234));
        let (e, lvl) = tlb.lookup(va_of_4k(0x1234)).unwrap();
        assert_eq!(e.vpn, 0x1234);
        assert_eq!(lvl, TlbLookup::L1);
    }

    #[test]
    fn miss_on_empty() {
        let mut tlb = Tlb::default();
        assert!(tlb.lookup(va_of_4k(0x42)).is_none());
        assert_eq!(tlb.stats().2, 1);
    }

    #[test]
    fn huge_entry_covers_interior_addresses() {
        let mut tlb = Tlb::default();
        let base = 0xffff_ffff_a1e0_0000u64;
        tlb.insert(entry_2m(base >> 21, true));
        let inner = VirtAddr::new_truncate(base + 0x12_3456);
        assert!(tlb.lookup(inner).is_some());
    }

    #[test]
    fn dtlb_eviction_falls_back_to_stlb() {
        let mut tlb = Tlb::default();
        let cfg = tlb.config();
        let victim_vpn = 0x7000;
        tlb.insert(entry_4k(victim_vpn));
        // Fill the victim's D-TLB set with congruent vpns (same low bits).
        for i in 1..=cfg.dtlb_ways as u64 {
            tlb.insert(entry_4k(victim_vpn + i * cfg.dtlb_sets as u64));
        }
        // The victim was evicted from L1 but still hits in the STLB.
        let (_, lvl) = tlb.lookup(va_of_4k(victim_vpn)).unwrap();
        assert_eq!(lvl, TlbLookup::L2);
        // And the hit promoted it back to L1.
        let (_, lvl) = tlb.lookup(va_of_4k(victim_vpn)).unwrap();
        assert_eq!(lvl, TlbLookup::L1);
    }

    #[test]
    fn evict_address_forces_full_miss() {
        let mut tlb = Tlb::default();
        let vpn = 0xffff_ffff_a1e0_0000u64 >> 12;
        tlb.insert(entry_4k(vpn));
        assert!(tlb.contains(va_of_4k(vpn)));
        tlb.evict_address(va_of_4k(vpn));
        assert!(
            tlb.lookup(va_of_4k(vpn)).is_none(),
            "victim must be evicted from both levels"
        );
    }

    #[test]
    fn invlpg_removes_entry_everywhere() {
        let mut tlb = Tlb::default();
        tlb.insert(entry_4k(0x99));
        tlb.invlpg(va_of_4k(0x99));
        assert!(!tlb.contains(va_of_4k(0x99)));
        assert!(tlb.lookup(va_of_4k(0x99)).is_none());
    }

    #[test]
    fn flush_keeps_global_when_asked() {
        let mut tlb = Tlb::default();
        tlb.insert(entry_4k(0x11)); // non-global
        tlb.insert(entry_2m(0xffff_ffff_a1e0_0000u64 >> 21, true)); // global
        tlb.flush(true);
        assert!(!tlb.contains(va_of_4k(0x11)));
        assert!(tlb.contains(VirtAddr::new_truncate(0xffff_ffff_a1e0_0000)));
        tlb.flush(false);
        assert!(tlb.is_empty());
    }

    #[test]
    fn set_dirty_updates_cached_perms() {
        let mut tlb = Tlb::default();
        tlb.insert(entry_4k(0x55));
        tlb.set_dirty(va_of_4k(0x55));
        let (e, _) = tlb.lookup(va_of_4k(0x55)).unwrap();
        assert!(e.perms.dirty);
    }

    #[test]
    fn duplicate_insert_updates_in_place() {
        let mut tlb = Tlb::default();
        tlb.insert(entry_4k(0x77));
        let mut updated = entry_4k(0x77);
        updated.perms.dirty = true;
        tlb.insert(updated);
        let (e, _) = tlb.lookup(va_of_4k(0x77)).unwrap();
        assert!(e.perms.dirty);
        // No duplicate entries accumulated in the STLB.
        assert!(tlb.len() <= 2 * 2);
    }

    #[test]
    fn lookup_promotes_and_counts() {
        let mut tlb = Tlb::default();
        tlb.insert(entry_4k(0x31));
        let _ = tlb.lookup(va_of_4k(0x31));
        let (h1, h2, m) = tlb.stats();
        assert_eq!((h1, h2, m), (1, 0, 0));
        let _ = tlb.lookup(va_of_4k(0x32));
        assert_eq!(tlb.stats().2, 1);
    }

    #[test]
    #[should_panic(expected = "dtlb_sets must be 2^n")]
    fn non_power_of_two_sets_rejected() {
        let _ = Tlb::new(TlbConfig {
            dtlb_sets: 3,
            ..TlbConfig::default()
        });
    }
}
