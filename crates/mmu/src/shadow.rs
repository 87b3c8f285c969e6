//! The shadow translation index: an epoch-cached interval map over an
//! [`AddressSpace`].
//!
//! Sweep-shaped attacks walk millions of candidate addresses through
//! page-table regions that are overwhelmingly static: tables only change
//! at setup time and (once) while Accessed/Dirty bits settle. Yet every
//! probe re-walked up to four `Vec`-backed structures, re-deriving the
//! same table chain each time. The shadow index derives, once per
//! [`AddressSpace::shape_epoch`], a sorted interval map in which every
//! canonical address belongs to exactly one interval whose *walk shape*
//! — the chain of paging structures visited and the level at which the
//! walk terminates — is constant. A walk becomes an O(log n) interval
//! lookup (O(1) for the sequential-sweep common case, via a caller-held
//! hint) plus a replay of the stored chain that reads the live PTE at
//! each level.
//!
//! Reading entry *values* live is what keeps the index valid across the
//! flags-only churn of steady-state probing: the first access to a user
//! page sets its Accessed bit, which changes the PTE value but not the
//! walk shape, so only [`AddressSpace::shape_epoch`] (structural
//! mutations: map/unmap/alloc/Present flips) invalidates the index.
//!
//! # Bit-exactness contract
//!
//! [`ShadowIndex::walk_costed`] — the one shadow walk, which every
//! probe and kernel touch runs — must be observably identical to
//! [`Walker::walk_with_psc`] / [`Walker::walk`] in every respect the
//! timing engine can see: the returned [`ShadowWalk`] (terminal level,
//! access count, resumed, leaf, perms, page size, frame; all but the
//! analytic `clean_replay`), the access list it streams to
//! `on_access`, and the PSC lookup/insert sequence, including LRU clock
//! advancement on misses. Two details make this subtle:
//!
//! * The PSC is consulted **exactly once** per walk — its replacement
//!   clocks advance on lookup, so the index may not "peek and retry".
//! * A stale PSC entry (inserted before a later mutation, never
//!   invalidated — exactly like hardware without `INVLPG`) may resume
//!   the walk somewhere the current tables do not reach. When the
//!   cached resume point disagrees with the stored chain, the index
//!   falls back to `Walker::walk_from` *continuing from the PSC state
//!   already obtained*, which is precisely what the slow walker does.
//!
//! The property suite in `tests/shadow_props.rs` pins this equivalence
//! at every step of randomized map/unmap/protect/A-D-bit/probe
//! interleavings.
//!
//! # Build cost
//!
//! Every structural mutation (a module load, a re-randomizer slide)
//! forces a rebuild, so event-driven victims rebuild often.
//! [`ShadowIndex::build`] therefore never reads a page table — the
//! bulk of a layout: a page table is always exactly one interval. An
//! upper-level table costs one
//! [`PageTable::iter_live`](crate::PageTable::iter_live) pass (a walk
//! over the set bits of its presence bitmap) plus O(1) per live entry, since each terminal run
//! between two descending entries is emitted arithmetically. The tests
//! pin it to a verbatim copy of the per-entry build
//! (`tests/support/shadow_reference.rs`).

use core::fmt;
use std::sync::OnceLock;

use crate::addr::VirtAddr;
use crate::psc::{PagingStructureCache, PscEntry, PscResume};
use crate::space::{AddressSpace, MappedRegion, PageSize};
use crate::table::{FrameId, Level, PageTable, ENTRIES_PER_TABLE};
use crate::walk::{EffectivePerms, WalkOutcome, Walker};

/// One interval of the index: a maximal canonical address range whose
/// walk shape (table chain + terminal level) is constant.
#[derive(Clone, Copy)]
struct ShadowInterval {
    /// First covered address.
    start: u64,
    /// Last covered address (inclusive; avoids overflow at the top of
    /// the kernel half).
    last: u64,
    /// Paging structures visited, indexed by level down to `terminal`;
    /// `tables[Level::Pml4]` is the root.
    tables: [FrameId; 4],
    /// The level whose entry terminates the walk: a leaf, a non-present
    /// guard, or zero.
    terminal: Level,
}

impl ShadowInterval {
    fn covers(&self, va: u64) -> bool {
        self.start <= va && va <= self.last
    }

    /// The table holding the terminal entry.
    fn terminal_table(&self) -> FrameId {
        self.tables[self.terminal]
    }
}

impl fmt::Debug for ShadowInterval {
    /// Prints the number of levels visited as `depth`, the form the
    /// per-entry reference build in the tests prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShadowInterval")
            .field("start", &self.start)
            .field("last", &self.last)
            .field("tables", &self.tables)
            .field("depth", &(self.terminal as u8 + 1))
            .finish()
    }
}

/// The epoch-cached shadow translation index over one address space.
#[derive(Clone, Debug)]
pub struct ShadowIndex {
    shape_epoch: u64,
    intervals: Vec<ShadowInterval>,
}

/// A shadow index built at most once for one address space and shared
/// by every copy-on-write snapshot of it.
///
/// A fixture that many trial machines snapshot holds one of these: the
/// first machine whose walk needs the index builds it from its own
/// snapshot, and every later machine whose space still has the recorded
/// [`AddressSpace::shape_epoch`] reuses it. A snapshot that has not
/// changed shape is structurally the source space (shape epochs only
/// grow), and the index reads entry values live, so the shared index
/// answers every walk exactly as one the machine built itself. Nothing
/// is built until a walk asks for it.
///
/// Only snapshots of the space the cell was made for may use it: the
/// epoch alone cannot tell two unrelated spaces apart.
#[derive(Debug)]
pub struct SharedShadow {
    shape_epoch: u64,
    index: OnceLock<ShadowIndex>,
}

impl SharedShadow {
    /// An unbuilt index for `space` at its current walk shape.
    #[must_use]
    pub fn new(space: &AddressSpace) -> Self {
        Self {
            shape_epoch: space.shape_epoch(),
            index: OnceLock::new(),
        }
    }

    /// `true` while `space` (the source space or a snapshot of it) has
    /// the walk shape the cell was made at.
    #[must_use]
    pub fn is_current(&self, space: &AddressSpace) -> bool {
        self.shape_epoch == space.shape_epoch()
    }

    /// The index, if some walk has built it.
    #[must_use]
    pub fn get(&self) -> Option<&ShadowIndex> {
        self.index.get()
    }

    /// The index, built from `space` by the first caller. `space` must
    /// be current ([`SharedShadow::is_current`]). The interval list is
    /// shrunk to its length: a campaign keeps one cell per fixture
    /// alive for its whole run.
    pub fn get_or_build(&self, space: &AddressSpace) -> &ShadowIndex {
        debug_assert!(
            self.is_current(space),
            "shared shadow index of another shape"
        );
        self.index.get_or_init(|| {
            let mut index = ShadowIndex::build(space);
            index.intervals.shrink_to_fit();
            index
        })
    }
}

/// Lean walk verdict for the execution engine's hot path: everything a
/// timing model needs from a walk, with no access-list or
/// [`WalkOutcome`] materialization. Structure accesses are streamed to
/// the caller through the `on_access` callback of
/// [`ShadowIndex::walk_costed`] in walk order instead.
#[derive(Clone, Copy, Debug)]
pub struct ShadowWalk {
    /// Level whose entry terminated the walk.
    pub terminal_level: Level,
    /// Number of paging-structure accesses performed.
    pub structures_accessed: u8,
    /// `true` when the walk resumed from a PSC entry (level extras do
    /// not apply, exactly as for `WalkOutcome::psc_resume_level`).
    pub resumed: bool,
    /// `true` when a present leaf was found.
    pub present_leaf: bool,
    /// Accumulated permissions (meaningful when `present_leaf`).
    pub perms: EffectivePerms,
    /// Leaf page size (meaningful when `present_leaf`).
    pub page_size: PageSize,
    /// Leaf physical frame number (meaningful when `present_leaf`).
    pub frame_number: u64,
    /// `true` when this walk ran through the pure shadow replay with
    /// the PSC engaged and **no** stale-PSC fallback. For such a walk,
    /// an immediately repeated walk of the same address (the engine's
    /// non-present retry) is fully determined: it resumes from the
    /// deepest intermediate this walk left in the PSC (or the root for
    /// a PML4-terminated walk), reads exactly the terminal entry again,
    /// and finds its line warm — so the engine may charge it
    /// analytically. See `Machine::translate_page` in `avx-uarch`.
    pub clean_replay: bool,
}

/// A proof, made once per shadow interval, that every walk of an
/// address in that interval starts the same way: the PSC lookup
/// resolves to one known slot (or misses every array), and the walk
/// resumes right above the terminal entry. Built by
/// [`ShadowIndex::resume_memo`], consumed by
/// [`ShadowIndex::open_run`]; it holds while the space's
/// [`AddressSpace::shape_epoch`], the PSC's
/// [`PagingStructureCache::generation`], the interval and (for a
/// resumed walk) the PSC tag all match.
#[derive(Clone, Copy, Debug)]
pub struct ResumeMemo {
    interval: usize,
    shape_epoch: u64,
    psc_generation: u64,
    /// The deepest intermediate's PSC slot; `None` for a walk that
    /// terminates at the PML4 and misses all three arrays.
    resume: Option<PscResume>,
}

/// A run of O(1) non-present walks, opened by [`ShadowIndex::open_run`]
/// once its [`ResumeMemo`]'s epoch and generation proof holds.
///
/// Each walk then needs only its own two checks ([`NonpresentRun::serves`]):
/// the address lies in the memo's interval and carries its PSC tag, and
/// the terminal entry, read live, is not present. Such a walk is
/// [`ShadowIndex::walk_costed`] reduced to its effects: one access to
/// the terminal entry, the PSC lookup the memo proved, and the verdict
/// [`NonpresentRun::walk`]. The caller touches the terminal entry's line
/// per walk; [`NonpresentRun::close`] applies the lookups and the hint
/// once for the whole run. Serving walks changes nothing the proof
/// rests on (no PSC insert, no space write), so it holds for the whole
/// run.
#[derive(Clone, Copy, Debug)]
pub struct NonpresentRun<'a> {
    /// The interval ∩ the PSC tag's span, inclusive.
    lo: u64,
    hi: u64,
    /// The terminal table and its live entries.
    table: FrameId,
    entries: &'a PageTable,
    interval: usize,
    resume: Option<PscResume>,
    walk: ShadowWalk,
}

impl NonpresentRun<'_> {
    /// The (table, entry index) slot `va`'s walk reads when the run
    /// serves it: `va` inside the interval, carrying the PSC tag, and
    /// its terminal entry not present. `None` otherwise. Pure and O(1).
    #[inline]
    #[must_use]
    pub fn serves(&self, va: VirtAddr) -> Option<(FrameId, usize)> {
        if va.as_u64() < self.lo || self.hi < va.as_u64() {
            return None;
        }
        let idx = va.index_for(self.walk.terminal_level);
        (!self.entries.entry(idx).is_present()).then_some((self.table, idx))
    }

    /// `true` when the run's addresses lie in the kernel half (an
    /// interval never straddles the canonical hole, so all of them do
    /// or none).
    #[must_use]
    pub fn kernel_half(&self) -> bool {
        VirtAddr::new_truncate(self.lo).is_kernel_half()
    }

    /// The verdict every served walk returns.
    #[must_use]
    pub fn walk(&self) -> ShadowWalk {
        self.walk
    }

    /// Applies the state changes of `n` served walks beyond their line
    /// touches: `n` replays of the proven PSC lookup (a hit on the
    /// memo's slot, or a miss of every array) and the interval hint.
    pub fn close(&self, n: u64, psc: &mut PagingStructureCache, hint: &mut usize) {
        match &self.resume {
            Some(proof) => psc.replay_hits(proof, n),
            None => psc.replay_misses(n),
        }
        *hint = self.interval;
    }
}

/// Outcome of the O(log n) point query ([`ShadowIndex::lookup`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowLookup {
    /// Level whose entry terminates the walk for this address.
    pub terminal_level: Level,
    /// The present leaf covering the address, if any.
    pub mapping: Option<MappedRegion>,
    /// Permissions accumulated over a root walk (meaningful when
    /// `mapping.is_some()`).
    pub perms: EffectivePerms,
}

impl ShadowIndex {
    /// Derives the index from the current state of `space`.
    #[must_use]
    pub fn build(space: &AddressSpace) -> Self {
        let mut intervals = Vec::with_capacity(64);
        let mut chain = [FrameId::default(); 4];
        build_table(
            space,
            space.root(),
            Level::Pml4,
            0,
            &mut chain,
            &mut intervals,
        );
        debug_assert!(intervals.windows(2).all(|w| w[0].last < w[1].start));
        Self {
            shape_epoch: space.shape_epoch(),
            intervals,
        }
    }

    /// The [`AddressSpace::shape_epoch`] this index was derived at.
    #[must_use]
    pub fn shape_epoch(&self) -> u64 {
        self.shape_epoch
    }

    /// `true` while `space`'s walk shape has not changed since the
    /// index was built (flags-only PTE rewrites keep it current).
    #[must_use]
    pub fn is_current(&self, space: &AddressSpace) -> bool {
        self.shape_epoch == space.shape_epoch()
    }

    /// Number of intervals in the index.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` for an index with no intervals (cannot happen for a real
    /// space: even an empty one yields a whole-space interval).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// O(log n) point query: where does the walk for `va` terminate, and
    /// what does it find? Pure — no translation-cache state is touched.
    #[must_use]
    pub fn lookup(&self, space: &AddressSpace, va: VirtAddr) -> ShadowLookup {
        let iv = &self.intervals[self.find(va.as_u64(), &mut 0)];
        let mut perms = EffectivePerms::most_permissive();
        for level in Level::WALK_ORDER
            .into_iter()
            .take_while(|&l| l < iv.terminal)
        {
            let entry = space.table(iv.tables[level]).entry(va.index_for(level));
            perms = perms.and_level(entry.flags());
        }
        let (mapping, perms) = resolve_terminal(space, iv, va, perms);
        ShadowLookup {
            terminal_level: iv.terminal,
            mapping,
            perms,
        }
    }

    /// Bit-exact replacement for [`Walker::walk`] /
    /// [`Walker::walk_with_psc`] for the timing engine: identical
    /// translation semantics and PSC evolution, but structure accesses
    /// are streamed to `on_access` (in walk order — the engine charges
    /// line-cache costs there) and the result is the lean
    /// [`ShadowWalk`] instead of a full [`WalkOutcome`].
    ///
    /// `hint` is a caller-held cursor into the interval list; sequential
    /// sweeps hit the same or the next interval almost every time, which
    /// turns the lookup O(1). Any `usize` value is safe.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the index is current for `space`; a stale
    /// index would silently replay outdated translations.
    pub fn walk_costed<F: FnMut(FrameId, usize)>(
        &self,
        space: &AddressSpace,
        va: VirtAddr,
        mut psc: Option<&mut PagingStructureCache>,
        hint: &mut usize,
        on_access: &mut F,
    ) -> ShadowWalk {
        debug_assert!(self.is_current(space), "stale shadow index");
        let iv = &self.intervals[self.find(va.as_u64(), hint)];
        let level = iv.terminal;

        let (start, mut perms, resumed) = match resume_from_psc(iv, space, va, psc.as_deref_mut()) {
            Ok(resume) => resume,
            Err(fallback) => {
                for (table, idx) in fallback.accesses.iter() {
                    on_access(table, idx);
                }
                return ShadowWalk::from(&fallback);
            }
        };

        let mut at = start;
        while at < level {
            let next = at.next().expect("the terminal level lies below");
            let idx = va.index_for(at);
            on_access(iv.tables[at], idx);
            let entry = space.table(iv.tables[at]).entry(idx);
            perms = perms.and_level(entry.flags());
            if let Some(psc) = psc.as_deref_mut() {
                let next_table = iv.tables[next];
                psc.insert(at, va, PscEntry { next_table, perms });
            }
            at = next;
        }

        let terminal_idx = va.index_for(level);
        on_access(iv.terminal_table(), terminal_idx);
        let terminal = space.table(iv.terminal_table()).entry(terminal_idx);

        // An immediate re-walk is analytically determined only when the
        // deepest intermediate of this walk is guaranteed to sit in the
        // PSC afterwards: either there is no intermediate (PML4
        // termination) or its level is actually cacheable.
        let clean_replay = match &psc {
            Some(psc) => level.parent().is_none_or(|p| psc.can_cache(p)),
            None => false,
        };
        let mut walk = ShadowWalk {
            terminal_level: level,
            structures_accessed: (level as u8 - start as u8) + 1,
            resumed,
            present_leaf: false,
            perms,
            page_size: PageSize::Size4K,
            frame_number: 0,
            clean_replay,
        };
        if terminal.is_present() && level.is_leaf(terminal) {
            walk.present_leaf = true;
            walk.perms = perms.and_level(terminal.flags());
            walk.page_size =
                PageSize::from_leaf_level(level).expect("leaf levels map to a page size");
            walk.frame_number = terminal.addr().frame_number();
        }
        walk
    }

    /// Proves, without touching any state, how the walk of `va` begins
    /// for every address of its interval that shares its PSC tag: the
    /// `lookup_deepest` outcome and a resume point right above the
    /// terminal entry, so the walk reads the terminal entry alone.
    /// `None` when no such proof holds (the deepest intermediate is not
    /// cached, a deeper PSC array holds a tag inside the range, or the
    /// cached entry is stale). `hint` as in
    /// [`ShadowIndex::walk_costed`], taken by value.
    #[must_use]
    pub fn resume_memo(
        &self,
        space: &AddressSpace,
        va: VirtAddr,
        psc: &PagingStructureCache,
        mut hint: usize,
    ) -> Option<ResumeMemo> {
        if !self.is_current(space) {
            return None;
        }
        let interval = self.find(va.as_u64(), &mut hint);
        let iv = &self.intervals[interval];
        let resume = match iv.terminal.parent() {
            None if !psc.proves_miss(iv.start, iv.last) => return None,
            None => None,
            Some(level) => {
                let (proof, entry) = psc.prove_resume(level, va, iv.start, iv.last)?;
                if entry.next_table != iv.terminal_table() {
                    return None;
                }
                Some(proof)
            }
        };
        Some(ResumeMemo {
            interval,
            shape_epoch: self.shape_epoch,
            psc_generation: psc.generation(),
            resume,
        })
    }

    /// `true` while `memo` proves the start of `va`'s walk: same shape
    /// epoch, same PSC generation, `va` inside the memo's interval and
    /// carrying its PSC tag. Pure and O(1).
    #[must_use]
    pub fn memo_applies(
        &self,
        memo: &ResumeMemo,
        space: &AddressSpace,
        psc: &PagingStructureCache,
        va: VirtAddr,
    ) -> bool {
        memo.shape_epoch == space.shape_epoch()
            && memo.shape_epoch == self.shape_epoch
            && memo.psc_generation == psc.generation()
            && self.intervals[memo.interval].covers(va.as_u64())
            && memo.resume.is_none_or(|r| r.tags(va))
    }

    /// Opens a run of O(1) non-present walks under `memo`: checks once
    /// that the shape epoch and the PSC generation still match, which
    /// every walk of the run then shares. `None` when either moved.
    /// Pure and O(1); see [`NonpresentRun`] for the per-walk checks.
    #[must_use]
    pub fn open_run<'a>(
        &self,
        memo: &ResumeMemo,
        space: &'a AddressSpace,
        psc: &PagingStructureCache,
    ) -> Option<NonpresentRun<'a>> {
        let proven = memo.shape_epoch == space.shape_epoch()
            && memo.shape_epoch == self.shape_epoch
            && memo.psc_generation == psc.generation();
        if !proven {
            return None;
        }
        let iv = &self.intervals[memo.interval];
        let (mut lo, mut hi) = (iv.start, iv.last);
        let perms = match &memo.resume {
            Some(proof) => {
                // A terminal table lies inside its parent entry's tag
                // span, so this leaves the interval as it is; it keeps
                // the tag proof in the range all the same.
                let (tag_lo, tag_hi) = proof.span();
                (lo, hi) = (lo.max(tag_lo), hi.min(tag_hi));
                psc.resume_entry(proof).perms
            }
            None => EffectivePerms::most_permissive(),
        };
        let table = iv.terminal_table();
        Some(NonpresentRun {
            lo,
            hi,
            table,
            entries: space.table(table),
            interval: memo.interval,
            resume: memo.resume,
            walk: ShadowWalk {
                terminal_level: iv.terminal,
                structures_accessed: 1,
                resumed: memo.resume.is_some(),
                present_leaf: false,
                perms,
                page_size: PageSize::Size4K,
                frame_number: 0,
                clean_replay: true,
            },
        })
    }

    /// The (table, entry index) slot whose entry terminates the walk
    /// for `va` — the leaf slot when `va` is mapped. Pure; `hint` as in
    /// [`ShadowIndex::walk_costed`]. The engine uses this to test
    /// Accessed/Dirty bits without re-walking.
    #[must_use]
    pub fn terminal_slot(&self, va: VirtAddr, hint: &mut usize) -> (FrameId, usize) {
        let iv = &self.intervals[self.find(va.as_u64(), hint)];
        (iv.terminal_table(), va.index_for(iv.terminal))
    }

    /// Locates the interval covering `va`, preferring the hint and its
    /// successor before falling back to binary search.
    fn find(&self, va: u64, hint: &mut usize) -> usize {
        if let Some(iv) = self.intervals.get(*hint) {
            if iv.covers(va) {
                return *hint;
            }
        }
        if let Some(iv) = self.intervals.get(*hint + 1) {
            if iv.covers(va) {
                *hint += 1;
                return *hint;
            }
        }
        let idx = match self.intervals.partition_point(|iv| iv.start <= va) {
            0 => 0,
            n => n - 1,
        };
        debug_assert!(
            self.intervals[idx].covers(va),
            "index covers every canonical address"
        );
        *hint = idx;
        idx
    }
}

impl From<&WalkOutcome> for ShadowWalk {
    /// Lean view of a full [`WalkOutcome`] (the stale-PSC fallback and
    /// the reference-walker path produce outcomes; the timing engine
    /// consumes this form).
    fn from(outcome: &WalkOutcome) -> Self {
        ShadowWalk {
            terminal_level: outcome.terminal_level,
            structures_accessed: outcome.structures_accessed,
            resumed: outcome.psc_resume_level.is_some(),
            present_leaf: outcome.mapping.is_some(),
            perms: outcome.perms,
            page_size: outcome.mapping.map_or(PageSize::Size4K, |m| m.size),
            frame_number: outcome.mapping.map_or(0, |m| m.phys.frame_number()),
            clean_replay: false,
        }
    }
}

/// Consults the PSC for `va` — exactly once, as in the slow walker (the
/// lookup advances replacement clocks even on a miss) — and validates
/// the resume point against the interval's chain.
///
/// `Ok((start, perms, resumed))` resumes the replay at level `start`
/// with the cached perms; a stale resume point (mutation
/// since the entry was cached, never `INVLPG`ed — exactly like
/// hardware) yields `Err` with the completed live walk, continued from
/// the already-obtained PSC state via `Walker::walk_from`.
fn resume_from_psc(
    iv: &ShadowInterval,
    space: &AddressSpace,
    va: VirtAddr,
    psc: Option<&mut PagingStructureCache>,
) -> Result<(Level, EffectivePerms, bool), WalkOutcome> {
    let root = (Level::Pml4, EffectivePerms::most_permissive(), false);
    let Some(psc) = psc else {
        return Ok(root);
    };
    let Some((cached_level, entry)) = psc.lookup_deepest(va) else {
        return Ok(root);
    };
    let resume = cached_level
        .next()
        .expect("PSC never caches PT entries, so next() exists");
    if resume > iv.terminal || entry.next_table != iv.tables[resume] {
        return Err(Walker::new().walk_from(
            space,
            va,
            resume,
            entry.next_table,
            entry.perms,
            Some(cached_level),
            Some(psc),
        ));
    }
    Ok((resume, entry.perms, true))
}

/// Reads and applies the terminal entry of `iv` for `va`: present leaf →
/// mapping + final perms accumulation, otherwise no mapping.
fn resolve_terminal(
    space: &AddressSpace,
    iv: &ShadowInterval,
    va: VirtAddr,
    mut perms: EffectivePerms,
) -> (Option<MappedRegion>, EffectivePerms) {
    let level = iv.terminal;
    let terminal = space.table(iv.terminal_table()).entry(va.index_for(level));
    if !terminal.is_present() {
        return (None, perms);
    }
    if !level.is_leaf(terminal) {
        // Unreachable while the index is current (a present intermediate
        // would have recursed at build time, and turning a terminal slot
        // into an intermediate bumps the shape epoch), but mirror the
        // walker's semantics defensively.
        return (None, perms);
    }
    perms = perms.and_level(terminal.flags());
    let size = PageSize::from_leaf_level(level).expect("leaf levels always map to a page size");
    (
        Some(MappedRegion {
            start: va.align_down(size.bytes()),
            size,
            flags: terminal.flags(),
            phys: terminal.addr(),
        }),
        perms,
    )
}

/// Emits the intervals of `table_id`'s slots, recursing into present
/// intermediates. Consecutive slots that terminate the walk at this
/// level — zero, guard, or leaf alike — merge into one interval: the
/// walk shape is identical across them and values are read live. So a
/// page table is one interval, emitted without reading its entries, and
/// an upper-level table only visits its live entries (see "Build
/// cost" in the module docs).
fn build_table(
    space: &AddressSpace,
    table_id: FrameId,
    level: Level,
    va_prefix: u64,
    chain: &mut [FrameId; 4],
    out: &mut Vec<ShadowInterval>,
) {
    chain[level] = table_id;
    let Some(next_level) = level.next() else {
        emit_terminal_slots(0, ENTRIES_PER_TABLE, level, va_prefix, chain, out);
        return;
    };
    let mut next_slot = 0;
    for (idx, entry) in space.table(table_id).iter_live() {
        let Some(next) = level.link(entry) else {
            continue;
        };
        emit_terminal_slots(next_slot, idx, level, va_prefix, chain, out);
        let prefix = slot_va(level, va_prefix, idx);
        build_table(space, next, next_level, prefix, chain, out);
        chain[level] = table_id;
        next_slot = idx + 1;
    }
    emit_terminal_slots(next_slot, ENTRIES_PER_TABLE, level, va_prefix, chain, out);
}

/// First address of slot `idx` of a `level` table under `va_prefix`,
/// canonicalized: at the PML4 level bit 47 sign-extends.
fn slot_va(level: Level, va_prefix: u64, idx: usize) -> u64 {
    VirtAddr::new_truncate(va_prefix | (idx as u64) << level.shift()).as_u64()
}

/// Emits the terminal run of slots `lo..hi` (nothing when empty) as one
/// interval — two at the PML4 level when the run straddles the
/// canonical hole between slots 255 and 256, whose address ranges are
/// not adjacent.
fn emit_terminal_slots(
    lo: usize,
    hi: usize,
    level: Level,
    va_prefix: u64,
    chain: &[FrameId; 4],
    out: &mut Vec<ShadowInterval>,
) {
    const KERNEL_HALF_SLOT: usize = ENTRIES_PER_TABLE / 2;
    if lo >= hi {
        return;
    }
    if level == Level::Pml4 && lo < KERNEL_HALF_SLOT && KERNEL_HALF_SLOT < hi {
        emit_terminal_slots(lo, KERNEL_HALF_SLOT, level, va_prefix, chain, out);
        emit_terminal_slots(KERNEL_HALF_SLOT, hi, level, va_prefix, chain, out);
        return;
    }
    out.push(ShadowInterval {
        start: slot_va(level, va_prefix, lo),
        last: slot_va(level, va_prefix, hi - 1) + (level.entry_span() - 1),
        tables: *chain,
        terminal: level,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::PteFlags;
    use crate::psc::PscConfig;

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    fn sample_space() -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map(
            va(0xffff_ffff_a1e0_0000),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(
            va(0xffff_ffff_c012_3000),
            PageSize::Size4K,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        s
    }

    /// Runs [`ShadowIndex::walk_costed`], collecting the accesses it
    /// streams, and asserts it matches the walker's `slow` outcome on
    /// every [`ShadowWalk`] field but `clean_replay` and on the access
    /// list.
    fn assert_costed_matches(
        index: &ShadowIndex,
        space: &AddressSpace,
        addr: VirtAddr,
        psc: Option<&mut PagingStructureCache>,
        hint: &mut usize,
        slow: &WalkOutcome,
    ) {
        let mut accesses = Vec::new();
        let fast = index.walk_costed(space, addr, psc, hint, &mut |table, idx| {
            accesses.push((table, idx));
        });
        let want = ShadowWalk::from(slow);
        assert_eq!(fast.terminal_level, want.terminal_level, "{addr}");
        assert_eq!(fast.structures_accessed, want.structures_accessed, "{addr}");
        assert_eq!(fast.resumed, want.resumed, "{addr}");
        assert_eq!(fast.present_leaf, want.present_leaf, "{addr}");
        assert_eq!(fast.perms, want.perms, "{addr}");
        assert_eq!(fast.page_size, want.page_size, "{addr}");
        assert_eq!(fast.frame_number, want.frame_number, "{addr}");
        assert_eq!(accesses, slow.accesses.iter().collect::<Vec<_>>(), "{addr}");
    }

    #[test]
    fn index_covers_full_canonical_space_in_order() {
        let index = ShadowIndex::build(&sample_space());
        let first = index.intervals.first().unwrap();
        let last = index.intervals.last().unwrap();
        assert_eq!(first.start, 0);
        assert_eq!(last.last, u64::MAX);
        for w in index.intervals.windows(2) {
            assert!(w[0].last < w[1].start, "sorted and non-overlapping");
        }
    }

    #[test]
    fn walk_matches_walker_without_psc() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let walker = Walker::new();
        let mut hint = 0usize;
        for addr in [
            0u64,
            0x5555_5555_4000,
            0x5555_5555_4fff,
            0x5555_5555_5000,
            0xffff_ffff_a1e0_0000,
            0xffff_ffff_a1ff_ffff,
            0xffff_ffff_a000_0000,
            0xffff_ffff_c012_3000,
            0xffff_ffff_c012_4000,
            0xffff_8000_0000_0000,
            u64::MAX,
        ] {
            let slow = walker.walk(&space, va(addr));
            assert_costed_matches(&index, &space, va(addr), None, &mut hint, &slow);
        }
    }

    #[test]
    fn walk_matches_walker_with_psc_warmup_and_resume() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let walker = Walker::new();
        let mut psc_slow = PagingStructureCache::new(PscConfig::default());
        let mut psc_fast = PagingStructureCache::new(PscConfig::default());
        let mut hint = 0usize;
        let addrs = [
            0xffff_ffff_c012_3000u64,
            0xffff_ffff_c012_3000, // resume from PDE on repeat
            0xffff_ffff_a1e0_0000,
            0xffff_ffff_a000_0000, // sibling resumes from PDPTE
            0x5555_5555_4000,
            0x1234_5678_9000,
        ];
        for addr in addrs {
            let slow = walker.walk_with_psc(&space, va(addr), &mut psc_slow);
            let psc = Some(&mut psc_fast);
            assert_costed_matches(&index, &space, va(addr), psc, &mut hint, &slow);
            assert_eq!(psc_fast.len(), psc_slow.len());
            assert_eq!(psc_fast.hits(), psc_slow.hits());
            assert_eq!(psc_fast.misses(), psc_slow.misses());
        }
    }

    #[test]
    fn stale_psc_resume_falls_back_to_live_walk() {
        let mut space = sample_space();
        let walker = Walker::new();
        let mut psc_slow = PagingStructureCache::new(PscConfig::default());
        let mut psc_fast = PagingStructureCache::new(PscConfig::default());
        let target = va(0xffff_ffff_c012_3000);
        // Warm both PSCs, then unmap without any PSC invalidation — the
        // cached PDE now points at a pruned table, like hardware without
        // INVLPG.
        let _ = walker.walk_with_psc(&space, target, &mut psc_slow);
        let _ = ShadowIndex::build(&space).walk_costed(
            &space,
            target,
            Some(&mut psc_fast),
            &mut 0,
            &mut |_, _| {},
        );
        space.unmap(target, PageSize::Size4K).unwrap();
        let index = ShadowIndex::build(&space);
        let slow = walker.walk_with_psc(&space, target, &mut psc_slow);
        let psc = Some(&mut psc_fast);
        assert_costed_matches(&index, &space, target, psc, &mut 0, &slow);
    }

    /// A PROT_NONE 2 MiB or 1 GiB page ends the walk at its own level,
    /// unmapped, exactly as in the reference walker, with and without
    /// the PSC: the build does not follow the guard as a table link.
    #[test]
    fn huge_guards_end_the_walk_as_in_the_walker() {
        let guard = PteFlags::kernel_rx().difference(PteFlags::PRESENT);
        let walker = Walker::new();
        for size in [PageSize::Size2M, PageSize::Size1G] {
            let mut space = sample_space();
            let a = va(0xffff_c000_0000_0000);
            space.map(a, size, PteFlags::kernel_rx()).unwrap();
            space.protect(a, size, guard).unwrap();
            let index = ShadowIndex::build(&space);
            let mut psc_slow = PagingStructureCache::default();
            let mut psc_fast = PagingStructureCache::default();
            let end = a.wrapping_add(size.bytes() - 1);
            for addr in [a, end, a, a.wrapping_add(size.bytes())] {
                let slow = walker.walk(&space, addr);
                assert_costed_matches(&index, &space, addr, None, &mut 0, &slow);
                let slow = walker.walk_with_psc(&space, addr, &mut psc_slow);
                let psc = Some(&mut psc_fast);
                assert_costed_matches(&index, &space, addr, psc, &mut 0, &slow);
            }
            let at_guard = index.lookup(&space, end);
            assert_eq!(at_guard.terminal_level, size.leaf_level(), "{size}");
            assert!(at_guard.mapping.is_none(), "{size}");
        }
    }

    #[test]
    fn lookup_reports_mapping_and_terminal_level() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let hit = index.lookup(&space, va(0xffff_ffff_a1e1_2345));
        assert_eq!(hit.terminal_level, Level::Pd);
        let m = hit.mapping.expect("mapped");
        assert_eq!(m.start, va(0xffff_ffff_a1e0_0000));
        assert!(!hit.perms.user);

        let miss = index.lookup(&space, va(0x1234_5678_9000));
        assert!(miss.mapping.is_none());
        assert_eq!(miss.terminal_level, Level::Pml4);
    }

    #[test]
    fn flags_only_mutations_keep_the_index_current() {
        let mut space = sample_space();
        let index = ShadowIndex::build(&space);
        assert!(index.is_current(&space));
        // A/D-bit settling and permission rewrites change PTE values but
        // not the walk shape: the index stays valid and reads the new
        // values live.
        space.mark_accessed(va(0x5555_5555_4000), true).unwrap();
        assert!(index.is_current(&space));
        let hit = index.lookup(&space, va(0x5555_5555_4000));
        assert!(hit.mapping.unwrap().flags.is_dirty());
        space
            .protect(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        assert!(index.is_current(&space), "present-preserving mprotect");
        // Structural mutations invalidate it.
        space
            .map(va(0x7000_0000_0000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        assert!(!index.is_current(&space));
    }

    #[test]
    fn present_flip_invalidates_the_index() {
        let mut space = sample_space();
        let index = ShadowIndex::build(&space);
        space
            .protect(
                va(0x5555_5555_4000),
                PageSize::Size4K,
                PteFlags::none_guard(),
            )
            .unwrap();
        assert!(!index.is_current(&space), "Present flip is a shape change");
    }

    #[test]
    fn hint_accelerates_sequential_sweeps_correctly() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let walker = Walker::new();
        let mut hint = 0usize;
        for slot in 0..512u64 {
            let addr = va(0xffff_ffff_8000_0000 + slot * 0x20_0000);
            let slow = walker.walk(&space, addr);
            assert_costed_matches(&index, &space, addr, None, &mut hint, &slow);
        }
    }

    #[test]
    fn merged_terminal_runs_keep_the_index_small() {
        // A whole PT of 4 KiB leaves collapses into one interval.
        let mut space = AddressSpace::new();
        space
            .map_range(
                va(0x7f00_0000_0000),
                512,
                PageSize::Size4K,
                PteFlags::user_ro(),
            )
            .unwrap();
        let index = ShadowIndex::build(&space);
        assert!(
            index.len() <= 8,
            "512 leaves must not mean 512 intervals: {}",
            index.len()
        );
    }
}
