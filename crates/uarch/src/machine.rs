//! The execution engine: one simulated core running masked ops.
//!
//! [`Machine`] owns an [`AddressSpace`] plus the translation caches and
//! counters, and executes [`MaskedOp`]s with the timing semantics the
//! paper measures:
//!
//! * valid, accessible, TLB-hit access → base cost only (Fig. 2 USER-M),
//! * invalid or inaccessible translation → microcode assist, faults
//!   suppressed for masked-out lanes (P1), retried walks for non-present
//!   pages (Fig. 2 PMC column),
//! * masked store to a clean writable page → dirty-bit assist whose cost
//!   equals the kernel-mapped load cost (the §IV-B calibration identity),
//! * TLB hit vs miss and walk depth modulate latency (P2–P4),
//! * masked stores run ~16–18 cycles faster than loads under assist (P6).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use avx_mmu::{
    AddressSpace, Level, PagingStructureCache, ResumeMemo, ShadowWalk, SharedShadow, Tlb, TlbEntry,
    TlbLookup, VirtAddr, Walker,
};

use crate::defense::{Rerandomizer, VictimDefense};
use crate::lines::PteLineCache;
use crate::masked::{ElemWidth, Fault, MaskedOp, OpKind};
use crate::memory::SparseMemory;
use crate::noise::{NoiseModel, NoiseSchedule, V1Tile, NOISE_BLOCK};
use crate::observables::ObservablesVersion;
use crate::pmc::{Event, PmcBank};
use crate::profile::{CpuProfile, TimingParams};
use crate::sched::VictimSchedule;

/// Result of executing one masked operation.
#[derive(Clone, Debug)]
pub struct MaskedOutcome {
    /// Measured latency in cycles (noise included).
    pub cycles: u64,
    /// Architecturally delivered fault, if any unmasked lane touched a
    /// bad page. `None` for suppressed (masked-out) problems.
    pub fault: Option<Fault>,
    /// A microcode assist fired (invalid/inaccessible translation).
    pub assist: bool,
    /// The dirty-bit assist fired (store to a clean writable page).
    pub dirty_assist: bool,
    /// Completed page-table walks during this op.
    pub walks_completed: u8,
    /// TLB outcome for the first touched page (`None` = miss/bypass).
    pub tlb_hit: Option<TlbLookup>,
    /// Walk-termination level for the first touched page, when a walk ran.
    pub terminal_level: Option<Level>,
    /// Loaded bytes (loads only): `lanes × width` bytes, zeros in
    /// masked-out lanes, zeros for suppressed pages.
    pub data: Option<Vec<u8>>,
}

/// Per-page translation verdict, internal to the engine.
struct PageVerdict {
    present: bool,
    user: bool,
    writable: bool,
    dirty: bool,
    phys_frame: Option<u64>,
    tlb_hit: Option<TlbLookup>,
    terminal_level: Option<Level>,
    walks: u8,
    cycles: f64,
}

/// Running per-op accounting shared by the scalar ([`Machine::execute`])
/// and batched ([`Machine::execute_batch`]) paths — one source of truth
/// for the timing/PMC/assist semantics, so the two paths cannot drift.
struct OpAccounting {
    cycles: f64,
    assist: bool,
    dirty_assist: bool,
    walks_total: u8,
    user_nonpresent: bool,
    primary_tlb: Option<TlbLookup>,
    primary_level: Option<Level>,
    first_page_seen: bool,
}

impl OpAccounting {
    fn new(base_cycles: f64) -> Self {
        Self {
            cycles: base_cycles,
            assist: false,
            dirty_assist: false,
            walks_total: 0,
            user_nonpresent: false,
            primary_tlb: None,
            primary_level: None,
            first_page_seen: false,
        }
    }
}

/// Footprint of the probe ops built by [`MaskedOp::probe_load`] /
/// [`MaskedOp::probe_store`]: 8 dword lanes, so the last lane starts 28
/// bytes past the base address.
const PROBE_LAST_LANE_OFFSET: u64 = 7 * ElemWidth::Dword.bytes();

/// The per-kind constants of one batch of all-zero-mask probes.
struct BatchProbe {
    kind: OpKind,
    retired_event: Event,
    walk_event: Event,
    base: f64,
    /// The fault-suppression assist of a probe that touched a bad page.
    assist: f64,
    /// Extra cycles of a probe that touched a non-present user page
    /// (loads only).
    nonpresent_extra: f64,
}

impl BatchProbe {
    fn new(kind: OpKind, t: &crate::profile::TimingParams) -> Self {
        match kind {
            OpKind::Load => Self {
                kind,
                retired_event: Event::MaskedLoadRetired,
                walk_event: Event::DtlbLoadWalkCompleted,
                base: t.base_load,
                assist: t.assist_load,
                nonpresent_extra: t.user_nonpresent_load_extra,
            },
            OpKind::Store => Self {
                kind,
                retired_event: Event::MaskedStoreRetired,
                walk_event: Event::DtlbStoreWalkCompleted,
                base: t.base_store,
                assist: t.assist_store,
                nonpresent_extra: 0.0,
            },
        }
    }
}

/// One simulated core: address space + TLB + PSC + PTE-line cache +
/// counters + clock.
///
/// ```
/// use avx_uarch::{CpuProfile, Machine, MaskedOp};
/// use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
///
/// # fn main() -> Result<(), avx_mmu::MmuError> {
/// let mut space = AddressSpace::new();
/// let page = VirtAddr::new(0x5555_5555_4000)?;
/// space.map(page, PageSize::Size4K, PteFlags::user_rw())?;
///
/// let mut m = Machine::new(CpuProfile::ice_lake_i7_1065g7(), space, 42);
/// let out = m.execute(MaskedOp::probe_load(page));
/// assert!(out.fault.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    profile: CpuProfile,
    space: AddressSpace,
    tlb: Tlb,
    psc: PagingStructureCache,
    lines: PteLineCache,
    walker: Walker,
    /// Epoch-cached shadow translation index; rebuilt lazily whenever
    /// the address space's *walk shape* mutates (keyed on
    /// [`AddressSpace::shape_epoch`] — flags-only PTE rewrites such as
    /// A/D-bit settling deliberately do not invalidate it, because the
    /// index reads entry values live). A snapshot machine starts on its
    /// fixture's shared index ([`Machine::share_shadow`]) and builds
    /// its own only once its space changes shape.
    shadow: Option<Arc<SharedShadow>>,
    /// Interval cursor of the last shadow lookup — sweeps touch
    /// consecutive intervals, making the common lookup O(1).
    shadow_hint: usize,
    /// `false` forces the reference walker (the bit-exactness property
    /// suites compare the two paths). Starts `true` unless the crate is
    /// built with the test-only `reference-walk` feature.
    shadow_enabled: bool,
    /// The PSC-resume proof of the batch paths' non-present run server
    /// ([`Machine::serve_nonpresent_run`]), rebuilt after a full-path
    /// probe it does not cover.
    resume_memo: Option<ResumeMemo>,
    pmc: PmcBank,
    mem: SparseMemory,
    noise: NoiseModel,
    /// Probe-indexed noise trajectory ([`crate::NoiseProfile::Drift`]):
    /// when set, each executed op draws its noise from
    /// [`NoiseSchedule::model_at`] instead of the stationary model.
    schedule: Option<NoiseSchedule>,
    /// Ops executed so far — the index the schedule interpolates on.
    probe_seq: u64,
    /// Which noise-observables regime the machine runs under:
    /// [`ObservablesVersion::V1`] (default) reproduces the historical
    /// per-sample Box–Muller stream bit-for-bit; V2 draws the same
    /// distribution through the batched ziggurat kernel.
    observables: ObservablesVersion,
    /// Victim-side ASLR defenses ([`crate::defense`]). `None` — the
    /// default — is the bit-exact undefended engine: no per-op check
    /// beyond one `Option` discriminant read, no RNG interaction, no
    /// translation rewriting.
    defense: Option<VictimDefense>,
    /// Event-driven victim environment ([`crate::sched`]). `None` —
    /// the default — is the bit-exact open-loop engine: no clock
    /// reads, no per-op work beyond one `Option` discriminant read.
    sched: Option<VictimSchedule>,
    rng: StdRng,
    /// Scratch of the v1 batch path; empty between batch calls.
    v1_tile: V1Tile,
    tsc: u64,
}

impl Machine {
    /// Creates a machine over `space` with the profile's caches and noise.
    #[must_use]
    pub fn new(profile: CpuProfile, space: AddressSpace, seed: u64) -> Self {
        let tlb = Tlb::new(profile.tlb);
        let psc = PagingStructureCache::new(profile.psc);
        let noise = profile_noise(&profile.timing);
        Self {
            profile,
            space,
            tlb,
            psc,
            lines: PteLineCache::default(),
            walker: Walker::new(),
            shadow: None,
            shadow_hint: 0,
            shadow_enabled: !cfg!(feature = "reference-walk"),
            resume_memo: None,
            pmc: PmcBank::new(),
            mem: SparseMemory::new(),
            noise,
            schedule: None,
            probe_seq: 0,
            observables: ObservablesVersion::V1,
            defense: None,
            sched: None,
            rng: StdRng::seed_from_u64(seed),
            v1_tile: V1Tile::new(),
            tsc: 0,
        }
    }

    /// Puts this machine back into exactly the state
    /// `Machine::new(profile.clone(), space.clone(), seed)` builds, in
    /// place: a copy-on-write snapshot of `space`, empty TLB, PSC and
    /// PTE-line cache, zeroed counters, memory and clock, the profile's
    /// stationary noise under v1 observables, no drift schedule, defense
    /// or victim schedule, the shadow index on (unless built with
    /// `reference-walk`) and not yet built, and the RNG seeded from
    /// `seed`. Only what the previous run filled is cleared, and the
    /// caches keep their allocations when the geometry is unchanged, so
    /// a worker that attacks victim after victim on one machine pays no
    /// set-up a fresh machine would not (invariant 16).
    pub fn reset(&mut self, profile: &CpuProfile, space: &AddressSpace, seed: u64) {
        // Destructured so that a new field cannot be left out.
        let Self {
            profile: own_profile,
            space: own_space,
            tlb,
            psc,
            lines,
            walker: _,
            shadow,
            shadow_hint,
            shadow_enabled,
            resume_memo,
            pmc,
            mem,
            noise,
            schedule,
            probe_seq,
            observables,
            defense,
            sched,
            rng,
            v1_tile,
            tsc,
        } = self;
        if tlb.config() == profile.tlb {
            tlb.reset();
        } else {
            *tlb = Tlb::new(profile.tlb);
        }
        if psc.config() == profile.psc {
            psc.reset();
        } else {
            *psc = PagingStructureCache::new(profile.psc);
        }
        own_profile.clone_from(profile);
        own_space.clone_from(space);
        lines.flush();
        *shadow = None;
        *shadow_hint = 0;
        *shadow_enabled = !cfg!(feature = "reference-walk");
        *resume_memo = None;
        pmc.reset();
        mem.clear();
        *noise = profile_noise(&profile.timing);
        *schedule = None;
        *probe_seq = 0;
        *observables = ObservablesVersion::V1;
        *defense = None;
        *sched = None;
        *rng = StdRng::seed_from_u64(seed);
        *v1_tile = V1Tile::new();
        *tsc = 0;
    }

    /// Starts this machine on `shadow`, the shared index of the space
    /// it was last reset onto ([`SharedShadow`]), while its space still
    /// has that shape; a later shape change makes it build its own.
    pub fn share_shadow(&mut self, shadow: &Arc<SharedShadow>) {
        if shadow.is_current(&self.space) {
            self.shadow = Some(Arc::clone(shadow));
        }
    }

    /// The CPU profile in use.
    #[must_use]
    pub fn profile(&self) -> &CpuProfile {
        &self.profile
    }

    /// Read access to the address space.
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the address space (OS-model surgery). Note that
    /// changing mappings does **not** flush the TLB — exactly like
    /// hardware; call [`Machine::invlpg`] as an OS would.
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The TLB (diagnostics; the fast-path oracle tests compare it).
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The paging-structure caches (diagnostics).
    #[must_use]
    pub fn psc(&self) -> &PagingStructureCache {
        &self.psc
    }

    /// The cache of recently walked paging-structure lines
    /// (diagnostics).
    #[must_use]
    pub fn pte_lines(&self) -> &PteLineCache {
        &self.lines
    }

    /// The performance counters.
    #[must_use]
    pub fn pmc(&self) -> &PmcBank {
        &self.pmc
    }

    /// Mutable counters (reset between experiments).
    pub fn pmc_mut(&mut self) -> &mut PmcBank {
        &mut self.pmc
    }

    /// Cumulative cycle count of executed operations.
    #[must_use]
    pub fn elapsed_cycles(&self) -> u64 {
        self.tsc
    }

    /// Advances the clock without executing anything (models attack loop
    /// overhead around the timed instruction).
    pub fn spend_cycles(&mut self, cycles: u64) {
        self.tsc += cycles;
    }

    /// Replaces the noise model (tests use [`NoiseModel::none`]) and
    /// clears any drift schedule: an explicit model is stationary.
    pub fn set_noise(&mut self, noise: NoiseModel) {
        self.noise = noise;
        self.schedule = None;
    }

    /// The active stationary noise model (for a drifting environment,
    /// the model in effect before the ramp's onset).
    #[must_use]
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// Installs (or clears) a probe-indexed noise trajectory. The
    /// schedule interpolates on the machine's op counter, so a freshly
    /// built victim drifts at the same point of every identically-seeded
    /// attack run.
    pub fn set_noise_schedule(&mut self, schedule: Option<NoiseSchedule>) {
        self.schedule = schedule;
    }

    /// The installed noise trajectory, if the environment drifts.
    #[must_use]
    pub fn noise_schedule(&self) -> Option<NoiseSchedule> {
        self.schedule
    }

    /// The noise model for the op about to execute, advancing the
    /// probe-sequence counter. With no schedule this is exactly the
    /// stationary model — same draws, same RNG stream, bit-exact with
    /// the pre-drift engine.
    fn next_noise(&mut self) -> NoiseModel {
        let model = match &self.schedule {
            Some(s) => s.model_at(self.probe_seq),
            None => self.noise,
        };
        self.probe_seq += 1;
        model
    }

    /// Selects the noise-observables regime. V1 (the construction
    /// default) is the bit-exact historical stream; V2 is the batched
    /// ziggurat kernel — same distribution, different (cheaper) draws.
    /// Switching mid-run is supported but changes the stream from that
    /// point on, so campaigns set it once at machine construction.
    pub fn set_observables(&mut self, observables: ObservablesVersion) {
        self.observables = observables;
    }

    /// The active noise-observables regime.
    #[must_use]
    pub fn observables(&self) -> ObservablesVersion {
        self.observables
    }

    /// Applies measurement noise to one op's deterministic cycle cost —
    /// the single dispatch point between the v1 and v2 regimes for the
    /// scalar path (the v2 batch path pre-draws whole noise blocks but
    /// consumes the RNG in the same per-sample order, so scalar and
    /// batched v2 streams stay bit-identical, except across a scheduled
    /// noise-shaped event inside a block — see `execute_tiles_v2`).
    fn measure_cycles(&mut self, cycles: f64) -> u64 {
        match self.observables {
            ObservablesVersion::V1 => self.next_noise().perturb(&mut self.rng, cycles),
            ObservablesVersion::V2 => {
                let model = self.next_noise();
                (cycles + model.sample_v2(&mut self.rng)).round().max(1.0) as u64
            }
        }
    }

    /// Switches to a named noise environment: the preset's factors are
    /// applied to this machine's profile baseline anchors. A
    /// [`crate::NoiseProfile::Drift`] profile additionally installs its
    /// probe-indexed [`NoiseSchedule`] (see
    /// [`Machine::set_noise_schedule`]); stationary presets clear it.
    ///
    /// ```
    /// use avx_mmu::AddressSpace;
    /// use avx_uarch::{CpuProfile, Machine, NoiseProfile};
    ///
    /// let mut machine = Machine::new(
    ///     CpuProfile::alder_lake_i5_12400f(),
    ///     AddressSpace::new(),
    ///     7,
    /// );
    /// machine.set_noise_profile(NoiseProfile::LaptopDvfs);
    /// assert_eq!(
    ///     machine.noise(),
    ///     NoiseProfile::LaptopDvfs.model_for(&machine.profile().timing),
    /// );
    /// ```
    pub fn set_noise_profile(&mut self, profile: crate::noise::NoiseProfile) {
        self.noise = profile.model_for(&self.profile.timing);
        self.schedule = profile.schedule_for(&self.profile.timing);
    }

    /// Installs (or removes) the victim-side defense layer. Installing
    /// `None` — or never calling this — is the bit-exact undefended
    /// engine; a defended machine defends its *own* address space (the
    /// campaign layer hands every machine a copy-on-write snapshot, so
    /// shared fixtures are never touched).
    pub fn set_defense(&mut self, defense: Option<VictimDefense>) {
        self.defense = defense.filter(VictimDefense::is_active);
    }

    /// The installed defense layer, if any.
    #[must_use]
    pub fn defense(&self) -> Option<&VictimDefense> {
        self.defense.as_ref()
    }

    /// Completed live re-randomization events across all protected
    /// images (0 without a [`crate::defense::Rerandomizer`]).
    #[must_use]
    pub fn rerandomizations(&self) -> u64 {
        self.defense.as_ref().map_or(0, |d| d.rerandomizations)
    }

    /// The defense's view of an attacker-issued page address: masked
    /// translation rewrites it, everything else (and the undefended
    /// machine) is identity.
    #[inline]
    fn defended_page(&self, page: VirtAddr) -> VirtAddr {
        match &self.defense {
            Some(d) => d.masked(page),
            None => page,
        }
    }

    /// Advances every live re-randomizer by one executed op; on a
    /// firing, performs the TLB shootdown an OS would after moving the
    /// image (non-global flush + paging-structure caches). Runs before
    /// the op's translations, so a firing is visible to the very op
    /// that triggered it — the mid-scan race the defense creates.
    #[inline]
    fn defense_tick(&mut self) {
        let Some(defense) = &mut self.defense else {
            return;
        };
        if defense.rerandomizers.is_empty() {
            return;
        }
        let mut fired = false;
        for r in &mut defense.rerandomizers {
            if r.tick(&mut self.space) {
                defense.rerandomizations += 1;
                fired = true;
            }
        }
        if fired {
            self.tlb.flush(false);
            self.psc.flush_all();
        }
    }

    /// Installs (or removes) the victim's event schedule. Installing
    /// `None` — or never calling this, or installing a schedule with
    /// an empty queue — is the bit-exact open-loop engine: the per-op
    /// hook reduces to one `Option` discriminant read and the machine
    /// never reads the virtual wall clock at all.
    pub fn set_victim_schedule(&mut self, sched: Option<VictimSchedule>) {
        self.sched = sched.filter(VictimSchedule::is_active);
    }

    /// The installed victim schedule, if the environment is
    /// event-driven.
    #[must_use]
    pub fn victim_schedule(&self) -> Option<&VictimSchedule> {
        self.sched.as_ref()
    }

    /// Advances the victim's wall clock by one observed op and applies
    /// any due events. Runs before [`Machine::defense_tick`] at every
    /// op site (scalar and both batch paths): environment events are
    /// the world the op executes in, defenses react inside that world.
    #[inline]
    fn sched_tick(&mut self) {
        if self.sched.is_some() {
            self.sched_advance();
        }
    }

    /// The out-of-line slow path of [`Machine::sched_tick`]: pops all
    /// due events in `(tick, insertion-seq)` order and routes their
    /// effects through the existing chokepoints — noise-shaped events
    /// re-resolve the stationary model via [`Machine::set_noise`] (the
    /// same swap site every preset change uses), space-shaped events
    /// mutate [`Machine::space`] through `map`/`unmap` (`write_entry`)
    /// followed by the same TLB shootdown a defense firing performs.
    fn sched_advance(&mut self) {
        let due = self.sched.as_mut().is_some_and(VictimSchedule::advance_op);
        if !due {
            return;
        }
        // Borrowed in place, not moved out and back: the move compiled
        // to two `memcpy` calls of the whole schedule per due event.
        let sched = self.sched.as_mut().expect("checked due above");
        let mut noise_dirty = false;
        let mut space_dirty = false;
        while let Some(event) = sched.pop_due() {
            noise_dirty |= sched.apply_env_event(event);
            space_dirty |= sched.apply_space_event(event, &mut self.space);
        }
        if noise_dirty {
            let model = sched.effective_model(&self.profile.timing);
            self.set_noise(model);
        }
        if space_dirty {
            self.tlb.flush(false);
            self.psc.flush_all();
        }
    }

    /// The ops, the current (already ticked) one included, before a
    /// schedule event or a re-randomization can fall due: the minimum of
    /// the schedule's and every re-randomizer's bound, unbounded
    /// (`u64::MAX`) with neither.
    #[inline]
    fn quiet_ops(&self) -> u64 {
        let sched = self
            .sched
            .as_ref()
            .map_or(u64::MAX, VictimSchedule::quiet_ops);
        let rerandomizers = self.defense.iter().flat_map(|d| &d.rerandomizers);
        rerandomizers
            .map(Rerandomizer::quiet_ops)
            .fold(sched, u64::min)
    }

    /// Counts `n` ops on the schedule and every re-randomizer without
    /// ticking them; `n` stays below [`Machine::quiet_ops`], so no tick
    /// it stands for would have fired.
    #[inline]
    fn skip_ops(&mut self, n: u64) {
        if let Some(sched) = &mut self.sched {
            sched.skip_ops(n);
        }
        for r in self.defense.iter_mut().flat_map(|d| &mut d.rerandomizers) {
            r.skip_ops(n);
        }
    }

    /// Flushes the whole TLB (CR3 reload). Global entries survive when
    /// `keep_global`.
    pub fn flush_tlb(&mut self, keep_global: bool) {
        self.tlb.flush(keep_global);
        if !keep_global {
            self.psc.flush_all();
        }
    }

    /// `INVLPG`: invalidates the TLB entry and paging-structure-cache
    /// entries for `va`. PTE lines stay in the data caches (they are
    /// ordinary memory), matching the §III-B P3 experiment setup.
    pub fn invlpg(&mut self, va: VirtAddr) {
        self.tlb.invlpg(va);
        self.psc.invlpg(va);
    }

    /// User-level eviction of the translation for `va` (Gras-style): the
    /// attacker touches thousands of own pages, which as a side effect
    /// also thrashes the paging-structure caches and the cached PTE
    /// lines. This is the "TLB eviction to reduce noise" of the paper's
    /// TLB attack (P4) and produces the *cold-walk* timings (381 cycles
    /// in §III-B, the ≈430-cycle idle band of Fig. 6).
    pub fn evict_translation(&mut self, va: VirtAddr) {
        // The eviction targets the translation the attacker's probes
        // actually exercise — under masked translation, the masked one.
        let va = self.defended_page(va);
        self.tlb.evict_address(va);
        self.psc.flush_all();
        self.lines.flush();
    }

    /// Disables (or re-enables) the shadow translation index, forcing
    /// every walk through the reference [`Walker`]. Disabling it also
    /// turns off the batch paths' non-present run server — on every
    /// machine, scheduled and defended ones included — so the disabled
    /// machine is the full reference. The paths are observably
    /// identical — this switch exists so the property suites can
    /// *prove* that by running both against the same op sequence. A
    /// machine starts with the index on, unless `avx-uarch` is built
    /// with the `reference-walk` feature (which runs every machine of a
    /// test binary on the reference walker).
    pub fn set_shadow_enabled(&mut self, enabled: bool) {
        self.shadow_enabled = enabled;
    }

    /// Accessed/Dirty maintenance after a successful translation. The
    /// slow path re-walks to the leaf on every probe; in steady state
    /// the bits are already set, so consult the shadow index's terminal
    /// slot first and skip the (no-op) write entirely.
    fn mark_accessed_shadowed(&mut self, page: VirtAddr, write: bool) {
        if self.shadow_enabled {
            let current = self.shadow.as_deref().filter(|s| s.is_current(&self.space));
            if let Some(shadow) = current.and_then(SharedShadow::get) {
                let (table, idx) = shadow.terminal_slot(page, &mut self.shadow_hint);
                let entry = self.space.table(table).entry(idx);
                let mut need = avx_mmu::PteFlags::ACCESSED;
                if write {
                    need |= avx_mmu::PteFlags::DIRTY;
                }
                if entry.is_present() && entry.flags().contains(need) {
                    return; // already set: the write below would no-op
                }
            }
        }
        let _ = self.space.mark_accessed(page, write);
    }

    /// Simulates the *kernel itself* using the page at `va` (syscall,
    /// interrupt handler, driver code): the translation is walked and
    /// cached in the shared TLB with its true (supervisor) permissions.
    /// Drives the Fig. 6 user-behaviour signal and the FLARE bypass.
    /// The walk is the probes' own (`Machine::perform_walk`); its
    /// cycles are discarded, since nothing times the kernel's access.
    pub fn touch_as_kernel(&mut self, va: VirtAddr) {
        let (walk, _) = self.perform_walk(va, false);
        if walk.present_leaf {
            self.tlb.insert(TlbEntry {
                vpn: va.as_u64() >> walk.page_size.shift(),
                size: walk.page_size,
                pfn: walk.frame_number,
                perms: walk.perms,
            });
        }
    }

    /// The attack probe: executes the all-zero-mask op
    /// [`MaskedOp::probe_load`] or [`MaskedOp::probe_store`] at `addr`
    /// and returns the measured cycles.
    ///
    /// Observably identical to `execute(op).cycles` — same caches,
    /// counters, clock and noise stream (`probe_matches_execute_*`) —
    /// but allocation-free: an all-zero mask can neither fault nor move
    /// data, so no touched-page list, no transfer buffer and no
    /// [`MaskedOutcome`] are built. Its translation step is the one the
    /// batch paths take for a probe the run server does not serve.
    pub fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64 {
        self.sched_tick();
        self.defense_tick();
        let probe = BatchProbe::new(kind, &self.profile.timing);
        self.pmc.bump(probe.retired_event);
        let cycles = self.zero_mask_cycles(&probe, addr);
        let measured = self.measure_cycles(cycles);
        self.tsc += measured;
        measured
    }

    /// Batched probe: executes one all-zero-mask op per address and
    /// returns the measured cycles in input order.
    ///
    /// Observably identical to calling [`Machine::probe`] once per
    /// address — same translation-cache evolution, same performance
    /// counters, same noise stream — but the per-op bookkeeping of
    /// [`Machine::execute`] is amortized away: no [`MaskedOutcome`] is
    /// materialized and no lane-transfer buffer is allocated (an
    /// all-zero mask moves no data), which is what makes large
    /// Fig. 4/5/7-style sweeps fast.
    pub fn execute_batch(&mut self, kind: OpKind, addrs: &[VirtAddr]) -> Vec<u64> {
        let mut out = Vec::with_capacity(addrs.len());
        self.execute_batch_into(kind, addrs, &mut out);
        out
    }

    /// Allocation-free variant of [`Machine::execute_batch`]: appends
    /// one measurement per address to `out`, reusing its capacity.
    /// Sweep engines thread one scratch buffer through every tile, so
    /// the steady-state probe loop performs no heap allocation at all.
    ///
    /// Both regimes run in [`NOISE_BLOCK`]-sized tiles. Retired-op PMC
    /// bumps are aggregated per tile — batch callers have no mid-batch
    /// observation point, so the post-batch counter values are
    /// unchanged.
    ///
    /// Built with the test-only `scalar-probes` feature, it runs every
    /// address through [`Machine::probe`] instead: the end-to-end oracle
    /// of the batch paths.
    pub fn execute_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        out.reserve(addrs.len());
        if cfg!(feature = "scalar-probes") {
            for &addr in addrs {
                let measured = self.probe(kind, addr);
                out.push(measured);
            }
            return;
        }
        let probe = BatchProbe::new(kind, &self.profile.timing);
        // The run server's one batch-wide precondition: the shadow index
        // is on. Schedule events and defense firings run in the ticks
        // before the run server's proofs, which see every effect they
        // can have, and no run crosses an op at which one falls due
        // (invariant 15).
        match (self.observables, self.shadow_enabled) {
            (ObservablesVersion::V1, true) => self.execute_tiles_v1::<true>(&probe, addrs, out),
            (ObservablesVersion::V1, false) => self.execute_tiles_v1::<false>(&probe, addrs, out),
            (ObservablesVersion::V2, true) => self.execute_tiles_v2::<true>(&probe, addrs, out),
            (ObservablesVersion::V2, false) => self.execute_tiles_v2::<false>(&probe, addrs, out),
        }
    }

    /// The v1 batched hot path. Each tile passes its probes through
    /// three steps: translation ([`Machine::translate_run`], a run of
    /// probes at a time), the noise draws in the per-probe order of the
    /// scalar path — taken after the run's translation, so drift ramps,
    /// victim-schedule noise swaps and defense ticks land on the same
    /// probe (a run never crosses an op at which one falls due): a
    /// drift ramp resolves each probe's model ([`Machine::next_noise`]),
    /// and otherwise the whole run draws from the live model
    /// ([`V1Tile::push_run`]) — and the evaluation of the
    /// tile's Box–Muller transcendentals together ([`V1Tile`]). Every
    /// measurement and the RNG state are bit-identical to the same
    /// probes run through the scalar path (asserted by
    /// `execute_batch_matches_scalar_*`).
    fn execute_tiles_v1<const FAST: bool>(
        &mut self,
        probe: &BatchProbe,
        addrs: &[VirtAddr],
        out: &mut Vec<u64>,
    ) {
        let mut cycles = [0.0f64; NOISE_BLOCK];
        for chunk in addrs.chunks(NOISE_BLOCK) {
            self.pmc.add(probe.retired_event, chunk.len() as u64);
            let mut done = 0;
            while done < chunk.len() {
                let run = &mut cycles[done..chunk.len()];
                let n = self.translate_run::<FAST>(probe, &chunk[done..], run);
                if self.schedule.is_some() {
                    for &c in &run[..n] {
                        let model = self.next_noise();
                        self.v1_tile.push(&model, &mut self.rng, c);
                    }
                } else {
                    // No event falls due inside a run, so its probes all
                    // draw from the model its first tick left in force.
                    self.v1_tile.push_run(&self.noise, &mut self.rng, &run[..n]);
                    self.probe_seq += n as u64;
                }
                done += n;
            }
            let measured = self.v1_tile.flush();
            self.tsc += measured.iter().sum::<u64>();
            out.extend_from_slice(measured);
        }
    }

    /// The v2 batched hot path: each tile's noise is pre-drawn into one
    /// stack block by the ziggurat kernel ([`NoiseModel::fill_block`])
    /// before its probes are translated, a run at a time
    /// ([`Machine::translate_run`]). Translation never touches the RNG,
    /// so pre-drawing preserves the per-sample stream: a v2 batch is
    /// bit-identical to the same probes run through the v2 scalar path
    /// (`v2_batch_matches_v2_scalar_*`) — unless a scheduled
    /// noise-shaped event (noise swap, tenant arrival or departure)
    /// fires inside a block. The block was drawn from the model in
    /// force at its first probe, while the scalar path draws each later
    /// probe from the swapped model. Space-only schedules and drift
    /// ramps (resolved per probe index) keep the identity.
    fn execute_tiles_v2<const FAST: bool>(
        &mut self,
        probe: &BatchProbe,
        addrs: &[VirtAddr],
        out: &mut Vec<u64>,
    ) {
        let mut block = [0.0f64; NOISE_BLOCK];
        let mut cycles = [0.0f64; NOISE_BLOCK];
        for chunk in addrs.chunks(NOISE_BLOCK) {
            let noise = &mut block[..chunk.len()];
            self.fill_noise_block(noise);
            self.pmc.add(probe.retired_event, chunk.len() as u64);
            let mut done = 0;
            while done < chunk.len() {
                done += self.translate_run::<FAST>(
                    probe,
                    &chunk[done..],
                    &mut cycles[done..chunk.len()],
                );
            }
            for (&c, &n) in cycles.iter().zip(noise.iter()) {
                let measured = (c + n).round().max(1.0) as u64;
                self.tsc += measured;
                out.push(measured);
            }
        }
    }

    /// Translates a run of all-zero-mask probes from the front of
    /// `addrs` up to their noise, writing each one's deterministic cycle
    /// cost to `cycles`, and returns how many it took (at least one) —
    /// the translation step of both batch paths. Never touches the RNG.
    ///
    /// It ticks the victim schedule and defenses, then lets the run
    /// server ([`Machine::serve_nonpresent_run`]) serve what it can
    /// prove when `FAST` (the shadow index is on). When it serves
    /// nothing, the first probe takes the full path. The ticks run
    /// first, so whatever an event or a firing changed is already
    /// visible to the run server's proofs. A run never crosses an op at
    /// which a schedule event or a re-randomization falls due, so the
    /// ticks of its later probes would report nothing; the run server
    /// counts them on the clocks instead, and the due probe opens a new
    /// run with its own tick.
    #[inline]
    fn translate_run<const FAST: bool>(
        &mut self,
        probe: &BatchProbe,
        addrs: &[VirtAddr],
        cycles: &mut [f64],
    ) -> usize {
        self.sched_tick();
        self.defense_tick();
        if FAST {
            let served = self.serve_nonpresent_run(probe, addrs, cycles);
            if served > 0 {
                return served;
            }
        }
        let addr = addrs[0];
        cycles[0] = self.zero_mask_cycles(probe, addr);
        let first_page = addr.align_down(4096);
        if FAST && addr.wrapping_add(PROBE_LAST_LANE_OFFSET).align_down(4096) == first_page {
            self.refresh_resume_memo(self.defended_page(first_page));
        }
        1
    }

    /// The full path of one all-zero-mask probe after its ticks: visits
    /// its one or two pages, books its walks and returns its
    /// deterministic cycle cost (noise not yet drawn). The zero mask
    /// means no lane is unmasked, so no page can report a fault and no
    /// data moves. Shared by [`Machine::probe`] and the batch paths'
    /// [`Machine::translate_run`].
    fn zero_mask_cycles(&mut self, probe: &BatchProbe, addr: VirtAddr) -> f64 {
        let mut acc = OpAccounting::new(probe.base);
        let first_page = addr.align_down(4096);
        let last_page = addr.wrapping_add(PROBE_LAST_LANE_OFFSET).align_down(4096);
        let _ = self.visit_page(probe.kind, first_page, false, &mut acc, None);
        if last_page != first_page {
            let _ = self.visit_page(probe.kind, last_page, false, &mut acc, None);
        }
        if acc.user_nonpresent {
            acc.cycles += probe.nonpresent_extra;
        }
        self.pmc.add(probe.walk_event, u64::from(acc.walks_total));
        acc.cycles
    }

    /// Whether `page` walks uncached: AMD's kernel-half walks bypass the
    /// TLB and the PSC. The full path and the memo builder must agree
    /// on this, so they both ask here (the run server never sees such
    /// a page: its memo's interval lies in one half).
    fn walks_uncached(&self, page: VirtAddr) -> bool {
        self.profile.kernel_walks_uncached() && page.is_kernel_half()
    }

    /// The run server: the O(1) translation of the longest prefix of
    /// `addrs` whose walks end at a non-present entry, with each served
    /// probe's cost written to `cycles`; returns how many it served.
    ///
    /// The [`ResumeMemo`]'s epoch and generation proof is checked once
    /// ([`ShadowIndex::open_run`]). Each probe then needs its own
    /// proofs, checked before any state changes: a single-page
    /// footprint; its page (the defense's view) outside
    /// [`Tlb::may_cover`]'s span, so a lookup would miss without
    /// touching replacement state; inside the memo's interval and
    /// carrying its PSC tag, so the PSC lookup hits the proven slot (or
    /// misses every array) and the walk resumes right above the
    /// terminal entry; and a terminal entry, read live, that is not
    /// present ([`avx_mmu::NonpresentRun::serves`]). The first probe
    /// that fails one ends the run, and so does the op at which a
    /// victim schedule event or a re-randomization falls due
    /// ([`Machine::quiet_ops`]): the run is at most that many probes
    /// long, and the ticks of its later probes, which would report
    /// nothing, are counted at once ([`Machine::skip_ops`]).
    ///
    /// A served probe touches its terminal entry's line, and costs one
    /// of two values fixed per run — a cold or a warm line — each built
    /// once, through the full path's cost terms in its `f64` order
    /// ([`served_probe_cycles`]). The run's other state changes are
    /// applied once for all of its probes: the PSC lookups and the
    /// shadow hint ([`avx_mmu::NonpresentRun::close`]), the TLB misses,
    /// and the `TlbMiss`, `AssistsAny`, `SuppressedFault` and walk
    /// events — the same totals the full path books one probe at a time.
    fn serve_nonpresent_run(
        &mut self,
        probe: &BatchProbe,
        addrs: &[VirtAddr],
        cycles: &mut [f64],
    ) -> usize {
        let shadow = self.shadow.as_deref().and_then(SharedShadow::get);
        let (Some(memo), Some(shadow)) = (self.resume_memo.as_ref(), shadow) else {
            return 0;
        };
        let Some(run) = shadow.open_run(memo, &self.space, &self.psc) else {
            return 0;
        };
        // Borrowed, not copied: a copy of the timing block is a memcpy
        // per run, which short runs measurably pay.
        let t = &self.profile.timing;
        let walk = run.walk();
        // No event or firing falls on an op strictly inside the run, so
        // every proof below holds for all of its probes.
        let max = usize::try_from(self.quiet_ops()).map_or(addrs.len(), |q| q.min(addrs.len()));
        let user = !run.kernel_half();
        // The cold and the warm cost, each built when a probe first
        // needs it: a run that ends at its first probe builds one.
        let mut cost = [None; 2];
        let mut served = 0;
        for (&addr, slot) in addrs[..max].iter().zip(cycles.iter_mut()) {
            let first_page = addr.align_down(4096);
            if addr.wrapping_add(PROBE_LAST_LANE_OFFSET).align_down(4096) != first_page {
                break;
            }
            let page = self.defended_page(first_page);
            if self.tlb.may_cover(page) {
                break;
            }
            let Some((table, idx)) = run.serves(page) else {
                break;
            };
            debug_assert!(!self.walks_uncached(page) && page.is_kernel_half() != user);
            let warm = self.lines.touch(table, idx);
            *slot = *cost[usize::from(warm)]
                .get_or_insert_with(|| served_probe_cycles(t, probe, &walk, warm, user));
            served += 1;
        }
        if served > 0 {
            let n = served as u64;
            run.close(n, &mut self.psc, &mut self.shadow_hint);
            self.tlb.record_misses(n);
            self.pmc.add(Event::TlbMiss, n);
            self.pmc.add(Event::AssistsAny, n);
            self.pmc.add(Event::SuppressedFault, n);
            let walks = u64::from(t.nonpresent_retries.max(1));
            self.pmc.add(probe.walk_event, walks * n);
            self.skip_ops(n - 1);
        }
        served
    }

    /// Rebuilds the run server's [`ResumeMemo`] after a full-path probe
    /// of `page`, unless the current memo already covers it.
    fn refresh_resume_memo(&mut self, page: VirtAddr) {
        if self.walks_uncached(page) {
            return;
        }
        let Some(shadow) = self.shadow.as_deref().and_then(SharedShadow::get) else {
            return;
        };
        if let Some(memo) = &self.resume_memo {
            if shadow.memo_applies(memo, &self.space, &self.psc, page) {
                return;
            }
        }
        self.resume_memo = shadow.resume_memo(&self.space, page, &self.psc, self.shadow_hint);
    }

    /// Fills one noise block in per-sample order, advancing the probe
    /// sequence by the block length. A drifting schedule resolves its
    /// model per probe index — block boundaries never quantize the
    /// ramp, so the drift trajectory is identical whether the sweep
    /// probes scalar or batched (the block-boundary consistency
    /// property in `noise_props.rs`).
    fn fill_noise_block(&mut self, out: &mut [f64]) {
        match self.schedule {
            None => {
                let model = self.noise;
                model.fill_block(&mut self.rng, out);
            }
            Some(s) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = s
                        .model_at(self.probe_seq + i as u64)
                        .sample_v2(&mut self.rng);
                }
            }
        }
        self.probe_seq += out.len() as u64;
    }

    /// Translates and accounts one touched page of a masked op — the
    /// shared per-page core of [`Machine::execute`] and
    /// [`Machine::execute_batch`]. Returns the fault to deliver when an
    /// *unmasked* lane touched a bad page.
    fn visit_page(
        &mut self,
        kind: OpKind,
        page: VirtAddr,
        has_unmasked: bool,
        acc: &mut OpAccounting,
        ok_pages: Option<&mut Vec<(VirtAddr, u64)>>,
    ) -> Option<Fault> {
        // The single defense chokepoint of every attacker-issued op:
        // scalar, v1-batch and v2-batch paths all translate through
        // here, so masked translation rewrites the walked (and
        // TLB-/shadow-indexed) address in one place. Kernel-side
        // accesses (`touch_as_kernel`) keep the unmasked view.
        let page = self.defended_page(page);
        let verdict = self.translate_page(page);
        // Account the page: its cycles and walks, the dirty-bit assist
        // or A/D maintenance of an accessible page, and the fault or the
        // suppression assist of a bad one.
        let t = self.profile.timing;
        acc.cycles += verdict.cycles;
        acc.walks_total += verdict.walks;
        if !acc.first_page_seen {
            acc.first_page_seen = true;
            acc.primary_tlb = verdict.tlb_hit;
            acc.primary_level = verdict.terminal_level;
        }

        let accessible =
            verdict.present && verdict.user && (kind == OpKind::Load || verdict.writable);
        if accessible {
            if kind == OpKind::Store && !verdict.dirty && !acc.dirty_assist {
                // First store to a clean page: dirty-bit microcode
                // assist, regardless of the mask (the assist must
                // inspect the mask to know whether D may be set).
                acc.dirty_assist = true;
                acc.cycles += self.profile.dirty_assist();
                self.pmc.bump(Event::AssistsAny);
            }
            if let (Some(ok_pages), Some(frame)) = (ok_pages, verdict.phys_frame) {
                ok_pages.push((page, frame));
            }
            // A-bit maintenance; D only when lanes actually store.
            let writes = kind == OpKind::Store && has_unmasked;
            self.mark_accessed_shadowed(page, writes);
            if writes {
                self.tlb.set_dirty(page);
            }
            None
        } else if has_unmasked {
            // An unmasked lane touches a bad page: deliver #PF.
            Some(Fault {
                addr: page,
                write: kind == OpKind::Store,
                protection: verdict.present,
            })
        } else {
            // Bad page, all lanes masked: suppression via assist.
            if !acc.assist {
                acc.assist = true;
                acc.cycles += match kind {
                    OpKind::Load => t.assist_load,
                    OpKind::Store => t.assist_store,
                };
                self.pmc.bump(Event::AssistsAny);
            }
            if !verdict.present && !page.is_kernel_half() {
                acc.user_nonpresent = true;
            }
            self.pmc.bump(Event::SuppressedFault);
            None
        }
    }

    /// Executes one masked operation, advancing the clock.
    pub fn execute(&mut self, op: MaskedOp) -> MaskedOutcome {
        self.sched_tick();
        self.defense_tick();
        let retired_event = match op.kind {
            OpKind::Load => Event::MaskedLoadRetired,
            OpKind::Store => Event::MaskedStoreRetired,
        };
        self.pmc.bump(retired_event);

        let t = self.profile.timing;
        let mut acc = OpAccounting::new(match op.kind {
            OpKind::Load => t.base_load,
            OpKind::Store => t.base_store,
        });

        let pages = op.touched_pages();
        let mut fault: Option<Fault> = None;
        let mut ok_pages: Vec<(VirtAddr, u64)> = Vec::with_capacity(pages.len());

        for &(page, has_unmasked) in pages.iter() {
            let page_fault =
                self.visit_page(op.kind, page, has_unmasked, &mut acc, Some(&mut ok_pages));
            if fault.is_none() {
                fault = page_fault;
            }
        }

        if acc.user_nonpresent && op.kind == OpKind::Load {
            acc.cycles += t.user_nonpresent_load_extra;
        }

        if let Some(f) = fault {
            acc.cycles += t.fault_cost;
            self.pmc.bump(Event::PageFault);
            let measured = self.measure_cycles(acc.cycles);
            self.tsc += measured;
            return MaskedOutcome {
                cycles: measured,
                fault: Some(f),
                assist: acc.assist,
                dirty_assist: acc.dirty_assist,
                walks_completed: acc.walks_total,
                tlb_hit: acc.primary_tlb,
                terminal_level: acc.primary_level,
                data: None,
            };
        }

        let walk_event = match op.kind {
            OpKind::Load => Event::DtlbLoadWalkCompleted,
            OpKind::Store => Event::DtlbStoreWalkCompleted,
        };
        self.pmc.add(walk_event, u64::from(acc.walks_total));

        // Move the data for unmasked lanes on good pages.
        let data = self.transfer(&op, &ok_pages);

        let measured = self.measure_cycles(acc.cycles);
        self.tsc += measured;
        MaskedOutcome {
            cycles: measured,
            fault: None,
            assist: acc.assist,
            dirty_assist: acc.dirty_assist,
            walks_completed: acc.walks_total,
            tlb_hit: acc.primary_tlb,
            terminal_level: acc.primary_level,
            data,
        }
    }

    /// Translates one page, charging cycles for TLB/walk behaviour and
    /// updating the caches.
    fn translate_page(&mut self, page: VirtAddr) -> PageVerdict {
        let t = self.profile.timing;
        let bypass = self.walks_uncached(page);

        if !bypass {
            if let Some((entry, lookup)) = self.tlb.lookup(page) {
                self.pmc.bump(match lookup {
                    TlbLookup::L1 => Event::TlbHitL1,
                    TlbLookup::L2 => Event::TlbHitL2,
                });
                let extra = match lookup {
                    TlbLookup::L1 => 0.0,
                    TlbLookup::L2 => t.stlb_hit_extra,
                };
                return PageVerdict {
                    present: true,
                    user: entry.perms.user,
                    writable: entry.perms.writable,
                    dirty: entry.perms.dirty,
                    phys_frame: Some(entry.pfn),
                    tlb_hit: Some(lookup),
                    terminal_level: None,
                    walks: 0,
                    cycles: extra,
                };
            }
            self.pmc.bump(Event::TlbMiss);
        }

        // Walk. Non-present translations are re-walked while the assist
        // decides suppression (Fig. 2: 2 completed walks per probe).
        let (walk, cycles) = self.perform_walk(page, bypass);

        if !walk.present_leaf {
            return self.nonpresent_verdict(page, bypass, &walk, cycles);
        }

        if !bypass {
            // Present translations are cached even when the permission
            // check will fail — the observable that keeps KERNEL-M at
            // zero walks in Fig. 2.
            self.tlb.insert(TlbEntry {
                vpn: page.as_u64() >> walk.page_size.shift(),
                size: walk.page_size,
                pfn: walk.frame_number,
                perms: walk.perms,
            });
        }
        PageVerdict {
            present: true,
            user: walk.perms.user,
            writable: walk.perms.writable,
            dirty: walk.perms.dirty,
            phys_frame: Some(walk.frame_number),
            tlb_hit: None,
            terminal_level: Some(walk.terminal_level),
            walks: 1,
            cycles,
        }
    }

    /// The verdict of a walk that ended at a non-present entry, `cycles`
    /// being the first walk's cost: the non-present retry accounting of
    /// [`Machine::translate_page`], whose clean-retry term the run
    /// server's [`served_probe_cycles`] shares.
    fn nonpresent_verdict(
        &mut self,
        page: VirtAddr,
        bypass: bool,
        walk: &ShadowWalk,
        mut cycles: f64,
    ) -> PageVerdict {
        let t = self.profile.timing;
        let mut walks: u8 = 1;
        // Intel's suppression assist re-walks the translation (Fig. 2:
        // 2 completed walks). AMD shows no such retry — mapped and
        // unmapped kernel pages time identically (§IV-B).
        if !bypass {
            for _ in 1..t.nonpresent_retries.max(1) {
                if walk.clean_replay {
                    add_clean_retry(&t, walk, &mut cycles);
                } else {
                    let retry = self.perform_walk(page, bypass);
                    cycles += retry.1;
                }
                walks += 1;
            }
        }
        PageVerdict {
            present: false,
            user: false,
            writable: false,
            dirty: false,
            phys_frame: None,
            tlb_hit: None,
            terminal_level: Some(walk.terminal_level),
            walks,
            cycles,
        }
    }

    /// One page-table walk with cycle accounting.
    ///
    /// The shadow path streams structure accesses straight into the
    /// line-cache cost model (no access-list or [`avx_mmu::WalkOutcome`]
    /// materialization); the reference path produces the full outcome
    /// and charges the identical costs from its access list.
    fn perform_walk(&mut self, page: VirtAddr, bypass_psc: bool) -> (ShadowWalk, f64) {
        // Borrowed, not copied: the copy compiled to a `memcpy` per walk.
        let t = &self.profile.timing;
        let mut cycles = 0.0;

        let walk: ShadowWalk = if self.shadow_enabled {
            let current = matches!(&self.shadow, Some(s) if s.is_current(&self.space));
            if !current {
                self.shadow = Some(Arc::new(SharedShadow::new(&self.space)));
            }
            let shadow = self.shadow.as_deref().expect("just set");
            let shadow = shadow.get_or_build(&self.space);
            let lines = &mut self.lines;
            let mut on_access = |table, idx| {
                let warm = if bypass_psc {
                    // AMD kernel walks re-fetch structures each time.
                    false_warm_for_amd(lines, table, idx)
                } else {
                    lines.touch(table, idx)
                };
                cycles += step_cycles(t, warm);
            };
            let psc = if bypass_psc {
                None
            } else {
                Some(&mut self.psc)
            };
            shadow.walk_costed(
                &self.space,
                page,
                psc,
                &mut self.shadow_hint,
                &mut on_access,
            )
        } else {
            let outcome = if bypass_psc {
                self.walker.walk(&self.space, page)
            } else {
                self.walker.walk_with_psc(&self.space, page, &mut self.psc)
            };
            for (table, idx) in outcome.accesses.iter() {
                let warm = if bypass_psc {
                    false_warm_for_amd(&mut self.lines, table, idx)
                } else {
                    self.lines.touch(table, idx)
                };
                cycles += step_cycles(t, warm);
            }
            ShadowWalk::from(&outcome)
        };

        add_root_walk_extra(t, &walk, bypass_psc, &mut cycles);
        (walk, cycles)
    }

    /// Moves bytes for unmasked lanes whose pages translated fine.
    fn transfer(&mut self, op: &MaskedOp, ok_pages: &[(VirtAddr, u64)]) -> Option<Vec<u8>> {
        let width = op.width.bytes() as usize;
        let mut data = match op.kind {
            OpKind::Load => Some(vec![0u8; usize::from(op.mask.lanes()) * width]),
            OpKind::Store => None,
        };
        for lane in op.mask.set_lanes() {
            let la = op.lane_addr(lane);
            let page = self.defended_page(la.align_down(4096));
            let Some(&(_, frame)) = ok_pages.iter().find(|(p, _)| *p == page) else {
                continue; // suppressed page: lane dropped (loads read 0)
            };
            let pa = avx_mmu::PhysAddr::from_frame_number(frame).wrapping_add(la.as_u64() & 0xfff);
            match (&mut data, op.kind) {
                (Some(buf), OpKind::Load) => {
                    let off = usize::from(lane) * width;
                    self.mem.read(pa, &mut buf[off..off + width]);
                }
                (None, OpKind::Store) => {
                    // Stores write a recognizable lane pattern.
                    let pattern = [0xa5u8; 8];
                    self.mem.write(pa, &pattern[..width]);
                }
                _ => unreachable!("data buffer existence tracks op kind"),
            }
        }
        data
    }

    /// Writes bytes into simulated physical memory behind `va` (test and
    /// example setup). Pages must be mapped.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mapped.
    pub fn poke(&mut self, va: VirtAddr, bytes: &[u8]) {
        let mapping = self.space.lookup(va).expect("poke target must be mapped");
        let offset = va.as_u64() - mapping.start.as_u64();
        let pa = mapping.phys.wrapping_add(offset);
        self.mem.write(pa, bytes);
    }

    /// Reads bytes from simulated physical memory behind `va`.
    ///
    /// Allocates a fresh buffer per call; assertion loops that peek in
    /// a hot path should reuse one via [`Machine::peek_into`].
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mapped.
    #[must_use]
    pub fn peek(&mut self, va: VirtAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.peek_into(va, &mut buf);
        buf
    }

    /// Reads `buf.len()` bytes from simulated physical memory behind
    /// `va` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mapped.
    pub fn peek_into(&mut self, va: VirtAddr, buf: &mut [u8]) {
        let mapping = self.space.lookup(va).expect("peek target must be mapped");
        let offset = va.as_u64() - mapping.start.as_u64();
        let pa = mapping.phys.wrapping_add(offset);
        self.mem.read(pa, buf);
    }
}

/// The profile's own stationary noise, the model a new machine starts
/// with.
fn profile_noise(t: &TimingParams) -> NoiseModel {
    NoiseModel::new(t.noise_sigma, t.spike_prob, t.spike_range)
}

/// Cost of one paging-structure access whose line was warm or cold.
fn step_cycles(t: &TimingParams, warm: bool) -> f64 {
    if warm {
        t.walk_step_warm
    } else {
        t.walk_step_cold
    }
}

/// The termination-level extra a root (unresumed) walk pays.
fn level_extra(t: &TimingParams, terminal: Level) -> f64 {
    match terminal {
        Level::Pt => t.level_extra_pt,
        Level::Pd => t.level_extra_pd,
        Level::Pdpt => t.level_extra_pdpt,
        Level::Pml4 => t.level_extra_pml4,
    }
}

/// Adds `walk`'s termination-level extra to `cycles` when it applies:
/// to root walks only, PSC-resumed ones excepted (see
/// `TimingParams::level_extra_pt`: the extras are fitted to the §III-B
/// P3 level ordering).
fn add_root_walk_extra(t: &TimingParams, walk: &ShadowWalk, bypass_psc: bool, cycles: &mut f64) {
    if !walk.resumed || bypass_psc {
        *cycles += level_extra(t, walk.terminal_level);
    }
}

/// Adds the cost of one retry of a clean shadow replay (see
/// `ShadowWalk::clean_replay`) to `cycles`. The retry is fully
/// determined: it resumes from the deepest intermediate the first walk
/// left in the PSC and re-reads only the terminal entry, whose line the
/// first walk just made warm. A PML4-terminated walk has no resume
/// point, so it alone pays the level extras. PSC/line replacement
/// *order* is untouched — the retry would only refresh the entry that
/// is already the most recent of its array.
fn add_clean_retry(t: &TimingParams, walk: &ShadowWalk, cycles: &mut f64) {
    *cycles += step_cycles(t, true);
    if walk.terminal_level == Level::Pml4 {
        *cycles += level_extra(t, Level::Pml4);
    }
}

/// The cycles of one batch probe the run server serves, its terminal
/// line `warm` or cold, on a `user`-half page: the full path's terms in
/// its `f64` order — the first walk's terminal access and root extra
/// ([`Machine::perform_walk`]), the clean retries
/// ([`Machine::nonpresent_verdict`]), then the probe base plus that
/// walk, the suppression assist ([`Machine::visit_page`]) and the
/// user-half extra ([`Machine::translate_run`]).
fn served_probe_cycles(
    t: &TimingParams,
    probe: &BatchProbe,
    walk: &ShadowWalk,
    warm: bool,
    user: bool,
) -> f64 {
    let mut walk_cycles = 0.0;
    walk_cycles += step_cycles(t, warm);
    add_root_walk_extra(t, walk, false, &mut walk_cycles);
    for _ in 1..t.nonpresent_retries.max(1) {
        add_clean_retry(t, walk, &mut walk_cycles);
    }
    let mut cycles = probe.base;
    cycles += walk_cycles;
    cycles += probe.assist;
    if user {
        cycles += probe.nonpresent_extra;
    }
    cycles
}

/// AMD kernel walks bypass cached structures; still record the touch so
/// user-half behaviour stays realistic.
fn false_warm_for_amd(lines: &mut PteLineCache, table: avx_mmu::FrameId, idx: usize) -> bool {
    let _ = lines.touch(table, idx);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::AddressMask;
    use crate::masked::{ElemWidth, Mask};
    use crate::sched::SchedEvent;
    use avx_mmu::{PageSize, PteFlags};

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    /// USER-M, USER-U, KERNEL-M, KERNEL-U pages as in Fig. 2.
    fn fig2_machine() -> Machine {
        fig2_machine_on(CpuProfile::ice_lake_i7_1065g7())
    }

    fn fig2_machine_on(profile: CpuProfile) -> Machine {
        let mut space = AddressSpace::new();
        space
            .map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        // USER-U: adjacent VMA exists but page non-present.
        space
            .map(va(0x5555_5555_5000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        space
            .protect(
                va(0x5555_5555_5000),
                PageSize::Size4K,
                PteFlags::none_guard(),
            )
            .unwrap();
        space
            .map(
                va(0xffff_ffff_a1e0_0000),
                PageSize::Size2M,
                PteFlags::kernel_rx(),
            )
            .unwrap();
        let mut m = Machine::new(profile, space, 1);
        m.set_noise(NoiseModel::none());
        m
    }

    const USER_M: u64 = 0x5555_5555_4000;
    const USER_U: u64 = 0x5555_5555_5000;
    const KERNEL_M: u64 = 0xffff_ffff_a1e0_0000;
    const KERNEL_U: u64 = 0xffff_ffff_a1a0_0000; // unmapped 2 MiB slot nearby

    /// Steady-state probe: run twice, report the second (paper §IV-B).
    fn steady(m: &mut Machine, kind: OpKind, addr: u64) -> MaskedOutcome {
        let op = match kind {
            OpKind::Load => MaskedOp::probe_load(va(addr)),
            OpKind::Store => MaskedOp::probe_store(va(addr)),
        };
        let _ = m.execute(op);
        m.execute(op)
    }

    #[test]
    fn fig2_user_mapped_is_base_cost() {
        let mut m = fig2_machine();
        let out = steady(&mut m, OpKind::Load, USER_M);
        assert_eq!(out.cycles, 13);
        assert!(!out.assist);
        assert_eq!(out.walks_completed, 0);
        assert_eq!(out.tlb_hit, Some(TlbLookup::L1));
    }

    #[test]
    fn fig2_kernel_mapped_is_assist_no_walk() {
        let mut m = fig2_machine();
        let out = steady(&mut m, OpKind::Load, KERNEL_M);
        assert_eq!(out.cycles, 93);
        assert!(out.assist);
        assert_eq!(out.walks_completed, 0, "translation cached in TLB");
        assert!(out.fault.is_none(), "fault suppressed");
    }

    #[test]
    fn fig2_kernel_unmapped_walks_twice() {
        let mut m = fig2_machine();
        let out = steady(&mut m, OpKind::Load, KERNEL_U);
        assert_eq!(out.cycles, 107);
        assert!(out.assist);
        assert_eq!(out.walks_completed, 2);
    }

    #[test]
    fn fig2_user_unmapped_slightly_above_kernel_unmapped() {
        let mut m = fig2_machine();
        let ku = steady(&mut m, OpKind::Load, KERNEL_U).cycles;
        let uu = steady(&mut m, OpKind::Load, USER_U).cycles;
        assert_eq!(uu, 110);
        assert_eq!(uu - ku, 3);
    }

    #[test]
    fn fig2_pmc_pattern_matches_paper() {
        let mut m = fig2_machine();
        // Warm up all four page types, then measure one probe each.
        for addr in [USER_M, USER_U, KERNEL_M, KERNEL_U] {
            let _ = m.execute(MaskedOp::probe_load(va(addr)));
        }
        let mut assists = Vec::new();
        let mut walks = Vec::new();
        for addr in [USER_M, USER_U, KERNEL_M, KERNEL_U] {
            let snap = m.pmc().snapshot();
            let _ = m.execute(MaskedOp::probe_load(va(addr)));
            let d = m.pmc().delta(&snap);
            assists.push(d.get(Event::AssistsAny));
            walks.push(d.get(Event::DtlbLoadWalkCompleted));
        }
        assert_eq!(assists, vec![0, 1, 1, 1], "Fig. 2 ASSISTS.ANY");
        assert_eq!(walks, vec![0, 2, 0, 2], "Fig. 2 WALK_COMPLETED");
    }

    #[test]
    fn p6_kernel_store_faster_than_load() {
        let mut m = fig2_machine();
        let load = steady(&mut m, OpKind::Load, KERNEL_M).cycles;
        let store = steady(&mut m, OpKind::Store, KERNEL_M).cycles;
        assert_eq!(load, 93);
        assert_eq!(store, 76);
        assert!((16..=18).contains(&(load - store)));
    }

    #[test]
    fn fault_suppression_all_zero_mask_never_faults() {
        let mut m = fig2_machine();
        for addr in [USER_U, KERNEL_M, KERNEL_U, 0x10_0000_0000] {
            let out = m.execute(MaskedOp::probe_load(va(addr)));
            assert!(out.fault.is_none(), "addr {addr:#x}");
        }
    }

    #[test]
    fn unmasked_lane_on_bad_page_faults() {
        let mut m = fig2_machine();
        let op = MaskedOp {
            kind: OpKind::Load,
            addr: va(USER_U),
            mask: Mask::new(0b1, 8),
            width: ElemWidth::Dword,
        };
        let out = m.execute(op);
        let fault = out.fault.expect("must fault");
        assert!(!fault.protection, "non-present fault");
        assert!(!fault.write);
    }

    #[test]
    fn fig1_cross_page_cases() {
        // Fig. 1: access straddling a mapped(low)/unmapped(high) boundary.
        let mut m = fig2_machine();
        let base = va(USER_M + 0xff0); // last 16 bytes of USER_M page
                                       // Case A/B: an unmasked lane on the unmapped page → #PF.
        let faulting = MaskedOp {
            kind: OpKind::Load,
            addr: base,
            mask: Mask::new(0b1111_0001, 8),
            width: ElemWidth::Dword,
        };
        assert!(m.execute(faulting).fault.is_some());
        // Case C/D: lanes on the unmapped page are masked → suppressed.
        let suppressed = MaskedOp {
            kind: OpKind::Load,
            addr: base,
            mask: Mask::new(0b0000_0111, 8),
            width: ElemWidth::Dword,
        };
        let out = m.execute(suppressed);
        assert!(out.fault.is_none());
        assert!(out.assist);
    }

    #[test]
    fn store_dirty_assist_matches_kernel_mapped_load() {
        let mut m = fig2_machine();
        // Fresh writable page, D=0. Warm translation with a load first.
        let _ = m.execute(MaskedOp::probe_load(va(USER_M)));
        let kernel = steady(&mut m, OpKind::Load, KERNEL_M).cycles;
        let clean_store = m.execute(MaskedOp::probe_store(va(USER_M))).cycles;
        assert_eq!(
            clean_store, kernel,
            "§IV-B calibration identity: clean-store == kernel-mapped load"
        );
    }

    #[test]
    fn zero_mask_store_never_sets_dirty_so_assist_repeats() {
        let mut m = fig2_machine();
        let _ = m.execute(MaskedOp::probe_load(va(USER_M)));
        let first = m.execute(MaskedOp::probe_store(va(USER_M)));
        let second = m.execute(MaskedOp::probe_store(va(USER_M)));
        assert!(first.dirty_assist);
        assert!(second.dirty_assist, "no lane stored, D stays clear");
        assert_eq!(first.cycles, second.cycles);
    }

    #[test]
    fn real_store_sets_dirty_and_becomes_fast() {
        let mut m = fig2_machine();
        let op = MaskedOp {
            kind: OpKind::Store,
            addr: va(USER_M),
            mask: Mask::all_set(8),
            width: ElemWidth::Dword,
        };
        let first = m.execute(op);
        assert!(first.dirty_assist);
        let second = m.execute(op);
        assert!(!second.dirty_assist);
        assert_eq!(second.cycles, 12, "base store cost after D is set");
    }

    #[test]
    fn load_transfers_unmasked_lanes_only() {
        let mut m = fig2_machine();
        m.poke(va(USER_M), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let op = MaskedOp {
            kind: OpKind::Load,
            addr: va(USER_M),
            mask: Mask::new(0b0000_0001, 8),
            width: ElemWidth::Dword,
        };
        let out = m.execute(op);
        let data = out.data.unwrap();
        assert_eq!(&data[..4], &[1, 2, 3, 4], "lane 0 transferred");
        assert_eq!(&data[4..8], &[0, 0, 0, 0], "lane 1 masked out");
    }

    #[test]
    fn suppressed_cross_page_load_still_transfers_valid_lanes() {
        let mut m = fig2_machine();
        let base = va(USER_M + 0xff8); // 2 dword lanes fit, rest on USER_U
        m.poke(base, &[9, 9, 9, 9]);
        let op = MaskedOp {
            kind: OpKind::Load,
            addr: base,
            mask: Mask::new(0b0000_0011, 8), // lanes 0,1 valid page only
            width: ElemWidth::Dword,
        };
        let out = m.execute(op);
        assert!(out.fault.is_none());
        let data = out.data.unwrap();
        assert_eq!(&data[..4], &[9, 9, 9, 9]);
    }

    #[test]
    fn tlb_eviction_makes_next_probe_cold() {
        let mut m = fig2_machine();
        let warm = steady(&mut m, OpKind::Load, KERNEL_M).cycles;
        m.evict_translation(va(KERNEL_M));
        let cold = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        assert!(
            cold > warm + 100,
            "cold walk must be much slower: warm={warm} cold={cold}"
        );
    }

    #[test]
    fn p4_coffee_lake_hit_miss_anchors() {
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        let mut m = Machine::new(CpuProfile::coffee_lake_i9_9900(), space, 3);
        m.set_noise(NoiseModel::none());
        // Warm up, then evict: first probe cold, second probe hit.
        let _ = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        m.evict_translation(va(KERNEL_M));
        let miss = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        let hit = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        assert_eq!(miss, 381, "3 cold steps + assist + base");
        assert_eq!(hit, 147);
    }

    #[test]
    fn touch_as_kernel_fills_tlb_for_user_probe() {
        let mut m = fig2_machine();
        m.evict_translation(va(KERNEL_M));
        m.touch_as_kernel(va(KERNEL_M));
        let out = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        assert_eq!(out.tlb_hit, Some(TlbLookup::L1));
        assert_eq!(out.cycles, 93);
    }

    #[test]
    fn amd_kernel_probes_always_walk() {
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        let mut m = Machine::new(CpuProfile::zen3_ryzen5_5600x(), space, 4);
        m.set_noise(NoiseModel::none());
        let first = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        let second = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        assert!(first.walks_completed >= 1);
        assert!(second.walks_completed >= 1, "no TLB shortcut on AMD");
        assert_eq!(first.cycles, second.cycles, "steady and identical");
    }

    #[test]
    fn amd_mapped_and_unmapped_kernel_indistinguishable_but_4k_visible() {
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        // A 4 KiB kernel page in the same PDPT.
        space
            .map(
                va(0xffff_ffff_a1c0_0000),
                PageSize::Size4K,
                PteFlags::kernel_ro(),
            )
            .unwrap();
        let mut m = Machine::new(CpuProfile::zen3_ryzen5_5600x(), space, 5);
        m.set_noise(NoiseModel::none());
        let mapped_2m = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        let unmapped = m.execute(MaskedOp::probe_load(va(KERNEL_U))).cycles;
        let mapped_4k = m
            .execute(MaskedOp::probe_load(va(0xffff_ffff_a1c0_0000)))
            .cycles;
        assert_eq!(mapped_2m, unmapped, "P-bit invisible on AMD");
        assert!(
            mapped_4k > mapped_2m + 20,
            "PT-terminated walks stand out: {mapped_4k} vs {mapped_2m}"
        );
    }

    #[test]
    fn user_half_on_amd_still_uses_tlb() {
        let mut space = AddressSpace::new();
        space
            .map(va(USER_M), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        let mut m = Machine::new(CpuProfile::zen3_ryzen5_5600x(), space, 6);
        m.set_noise(NoiseModel::none());
        let _ = m.execute(MaskedOp::probe_load(va(USER_M)));
        let out = m.execute(MaskedOp::probe_load(va(USER_M)));
        assert_eq!(out.tlb_hit, Some(TlbLookup::L1));
        assert_eq!(out.walks_completed, 0);
    }

    #[test]
    fn permission_fig3_pattern() {
        let mut space = AddressSpace::new();
        let ro = va(0x7f00_0000_0000);
        let rx = va(0x7f00_0000_1000);
        let rw = va(0x7f00_0000_2000);
        let none = va(0x7f00_0000_3000);
        space
            .map(ro, PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        space
            .map(rx, PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        space
            .map(rw, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        // PROT_NONE: map then drop present, like mprotect(PROT_NONE).
        space
            .map(none, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        space
            .protect(none, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();

        let mut m = Machine::new(CpuProfile::generic_desktop(), space, 7);
        m.set_noise(NoiseModel::none());
        // Warm up translations + dirty bits with real accesses.
        for page in [ro, rx, rw] {
            let _ = m.execute(MaskedOp::probe_load(page));
        }
        let write_all = MaskedOp {
            kind: OpKind::Store,
            addr: rw,
            mask: Mask::all_set(8),
            width: ElemWidth::Dword,
        };
        let _ = m.execute(write_all);

        // Masked load: 16 / 16 / 16 / 115.
        assert_eq!(m.execute(MaskedOp::probe_load(ro)).cycles, 16);
        assert_eq!(m.execute(MaskedOp::probe_load(rx)).cycles, 16);
        assert_eq!(m.execute(MaskedOp::probe_load(rw)).cycles, 16);
        let _ = m.execute(MaskedOp::probe_load(none));
        assert_eq!(m.execute(MaskedOp::probe_load(none)).cycles, 115);

        // Masked store: 82 / 82 / 16 / 96.
        assert_eq!(m.execute(MaskedOp::probe_store(ro)).cycles, 82);
        assert_eq!(m.execute(MaskedOp::probe_store(rx)).cycles, 82);
        assert_eq!(m.execute(write_all).cycles, 16);
        assert_eq!(m.execute(MaskedOp::probe_store(none)).cycles, 96);
    }

    #[test]
    fn p3_level_ordering_with_invlpg() {
        // Kernel pages terminating at PT, PD, PDPT plus an empty PML4
        // slot; INVLPG before each probe → root walks with level extras.
        let mut space = AddressSpace::new();
        let pt_page = va(0xffff_ffff_c012_3000);
        let pd_page = va(0xffff_ffff_a1e0_0000);
        let pdpt_page = va(0xffff_c000_0000_0000);
        let pml4_hole = va(0xffff_9000_0000_0000);
        space
            .map(pt_page, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        space
            .map(pd_page, PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        space
            .map(pdpt_page, PageSize::Size1G, PteFlags::kernel_rw())
            .unwrap();

        let mut m = Machine::new(CpuProfile::coffee_lake_i9_9900(), space, 8);
        m.set_noise(NoiseModel::none());
        let mut measure = |addr: VirtAddr| {
            // Warm lines first so the signal is the level pattern, not
            // cold-line noise.
            let _ = m.execute(MaskedOp::probe_load(addr));
            m.invlpg(addr);
            let _ = m.execute(MaskedOp::probe_load(addr));
            m.invlpg(addr);
            m.execute(MaskedOp::probe_load(addr)).cycles
        };
        let t_pd = measure(pd_page);
        let t_pdpt = measure(pdpt_page);
        let t_pml4 = measure(pml4_hole);
        let t_pt = measure(pt_page);
        assert!(t_pd < t_pdpt, "PD {t_pd} < PDPT {t_pdpt}");
        assert!(t_pdpt < t_pml4, "PDPT {t_pdpt} < PML4 {t_pml4}");
        assert!(t_pt > t_pd, "PT off the line: {t_pt} > {t_pd}");
    }

    #[test]
    fn clock_advances_with_execution() {
        let mut m = fig2_machine();
        assert_eq!(m.elapsed_cycles(), 0);
        let out = m.execute(MaskedOp::probe_load(va(USER_M)));
        assert_eq!(m.elapsed_cycles(), out.cycles);
        m.spend_cycles(100);
        assert_eq!(m.elapsed_cycles(), out.cycles + 100);
    }

    #[test]
    fn poke_peek_round_trip() {
        let mut m = fig2_machine();
        m.poke(va(USER_M + 8), &[0xde, 0xad]);
        assert_eq!(m.peek(va(USER_M + 8), 2), vec![0xde, 0xad]);
    }

    #[test]
    fn execute_batch_matches_scalar_probes_exactly() {
        // Two identically-built machines: one runs the batched fast
        // path, the other the scalar loop. Cycles, clock and PMCs must
        // agree bit for bit — including a page-straddling probe.
        let addrs: Vec<VirtAddr> = [USER_M, USER_U, KERNEL_M, KERNEL_U, USER_M + 0xff0]
            .iter()
            .map(|&a| va(a))
            .collect();
        for kind in [OpKind::Load, OpKind::Store] {
            let mut scalar = fig2_machine();
            let mut batched = fig2_machine();
            let batch = batched.execute_batch(kind, &addrs);
            let looped: Vec<u64> = addrs.iter().map(|&a| scalar.probe(kind, a)).collect();
            assert_eq!(batch, looped, "{kind}");
            assert_eq!(scalar.elapsed_cycles(), batched.elapsed_cycles());
            for event in [
                Event::AssistsAny,
                Event::SuppressedFault,
                Event::DtlbLoadWalkCompleted,
                Event::DtlbStoreWalkCompleted,
                Event::TlbMiss,
                Event::TlbHitL1,
            ] {
                assert_eq!(
                    scalar.pmc().read(event),
                    batched.pmc().read(event),
                    "{kind}: {event:?}"
                );
            }
        }
    }

    #[test]
    fn drift_schedule_widens_noise_mid_run() {
        use crate::noise::NoiseProfile;
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        let mut m = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 21);
        m.set_noise_profile(NoiseProfile::drift_with(
            NoiseProfile::Quiet,
            NoiseProfile::LaptopDvfs,
            64,
            64,
        ));
        assert!(m.noise_schedule().is_some());
        let probe = MaskedOp::probe_load(va(KERNEL_M));
        let _ = m.execute(probe); // warm the translation
        let spread = |m: &mut Machine, n: usize| {
            let samples: Vec<f64> = (0..n).map(|_| m.execute(probe).cycles as f64).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64).sqrt()
        };
        let early = spread(&mut m, 60); // probes 1..61: quiet phase
        for _ in 0..64 {
            let _ = m.execute(probe); // cross the step
        }
        let late = spread(&mut m, 200); // fully drifted
        assert!(
            late > early * 2.0,
            "post-step spread must widen: early {early:.2} vs late {late:.2}"
        );
        // set_noise clears the trajectory again (stationary override).
        m.set_noise(NoiseModel::none());
        assert!(m.noise_schedule().is_none());
        assert_eq!(m.execute(probe).cycles, m.execute(probe).cycles);
    }

    #[test]
    fn execute_batch_matches_scalar_under_noise() {
        // With the full noise model the two paths must also consume the
        // RNG stream identically (same draws in the same order).
        let addrs: Vec<VirtAddr> = (0..64)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        let mut scalar = fig2_machine();
        let mut batched = fig2_machine();
        scalar.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        batched.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        let batch = batched.execute_batch(OpKind::Load, &addrs);
        let looped: Vec<u64> = addrs
            .iter()
            .map(|&a| scalar.probe(OpKind::Load, a))
            .collect();
        assert_eq!(batch, looped);
    }

    #[test]
    fn execute_batch_matches_scalar_on_v1_tile_edges() {
        // The v1 tile path defers each tile's transcendentals and
        // recomputes near-tie measurements exactly. Every victim-side
        // mechanism that reads or swaps the noise model per op must
        // still land on the same probe, for tails shorter than, equal
        // to and longer than one tile — and the exact-tie inputs must
        // come out as the scalar round-half-away-from-zero.
        use crate::defense::Rerandomizer;
        use crate::noise::NoiseProfile;
        use crate::sched::{SchedEvent, VictimSchedule};
        let mut half_cycle = CpuProfile::ice_lake_i7_1065g7();
        half_cycle.timing.base_load += 0.5;
        half_cycle.timing.base_store += 0.5;
        let ice_lake = CpuProfile::ice_lake_i7_1065g7();
        let zen3 = CpuProfile::zen3_ryzen5_5600x();
        let mut tiny_psc = CpuProfile::alder_lake_i5_12400f();
        tiny_psc.psc = avx_mmu::PscConfig {
            pml4e_entries: 2,
            pdpte_entries: 1,
            pde_entries: 0,
        };
        type Case<'a> = (&'a str, &'a CpuProfile, fn(&mut Machine));
        let cases: [Case; 10] = [
            // The batch machine of every row, the scheduled and
            // defended ones included, serves single-page non-present
            // probes in O(1); the scalar machine never does.
            ("fast path, noisy", &ice_lake, |m| {
                m.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
            }),
            (
                "fast path, Zen 3 kernel walks bypass the PSC",
                &zen3,
                |_| {},
            ),
            ("fast path, zero-capacity PDE cache", &tiny_psc, |_| {}),
            (
                "fast path, after a kernel touch and a flush",
                &ice_lake,
                |m| {
                    m.touch_as_kernel(va(KERNEL_M));
                    m.flush_tlb(true);
                    m.touch_as_kernel(va(USER_M));
                },
            ),
            ("σ = 0, certain spike, x.5 cycles", &half_cycle, |m| {
                m.set_noise(NoiseModel::new(0.0, 1.0, (300.0, 300.0)));
            }),
            ("noiseless, x.5 cycles", &half_cycle, |_| {}),
            ("noisy, x.5 cycles", &half_cycle, |m| {
                m.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
            }),
            ("drift ramp", &ice_lake, |m| {
                m.set_noise_profile(NoiseProfile::drift_with(
                    NoiseProfile::Quiet,
                    NoiseProfile::LaptopDvfs,
                    5,
                    40,
                ));
            }),
            ("mid-tile noise swaps", &ice_lake, |m| {
                m.set_victim_schedule(Some(
                    VictimSchedule::new(1, 9)
                        .with_base(NoiseProfile::Quiet)
                        .every(3, 7, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
                        .every(6, 7, SchedEvent::NoiseSwap(NoiseProfile::SmtSibling))
                        .every(4, 9, SchedEvent::TenantArrive),
                ));
            }),
            ("re-randomizing defense", &ice_lake, |m| {
                m.set_noise_profile(NoiseProfile::NoisyNeighbor);
                let r = Rerandomizer::capture(
                    m.space(),
                    0xffff_ffff_8000_0000,
                    0xffff_ffff_c000_0000,
                    0x20_0000,
                    3,
                    11,
                )
                .expect("kernel image mapped");
                m.set_defense(Some(VictimDefense::new().with_rerandomizer(r)));
            }),
        ];
        // 2 MiB kernel slots across KERNEL_M, 4 KiB user pages across
        // USER_M/USER_U, and 1 GiB strides through both halves.
        let runs = [
            (0xffff_ffff_a000_0000u64, 0x20_0000u64),
            (USER_M - 0x3000, 0x1000),
            (0xffff_ff80_0000_0000, 0x4000_0000),
            (0x5540_0000_0000, 0x4000_0000),
        ];
        for (label, profile, configure) in cases {
            for (&(start, stride), len) in runs
                .iter()
                .flat_map(|run| [1u64, 15, 16, 17, 69].map(|len| (run, len)))
            {
                let addrs: Vec<VirtAddr> = (0..len).map(|i| va(start + i * stride)).collect();
                for kind in [OpKind::Load, OpKind::Store] {
                    let mut scalar = fig2_machine_on(profile.clone());
                    let mut batched = fig2_machine_on(profile.clone());
                    configure(&mut scalar);
                    configure(&mut batched);
                    let batch = batched.execute_batch(kind, &addrs);
                    let looped: Vec<u64> = addrs.iter().map(|&a| scalar.probe(kind, a)).collect();
                    assert_eq!(batch, looped, "{label}, {start:#x} + {len} × {kind}");
                    assert_eq!(scalar.elapsed_cycles(), batched.elapsed_cycles());
                    assert_eq!(scalar.rerandomizations(), batched.rerandomizations());
                    for event in [
                        Event::MaskedLoadRetired,
                        Event::MaskedStoreRetired,
                        Event::AssistsAny,
                    ] {
                        assert_eq!(scalar.pmc().read(event), batched.pmc().read(event));
                    }
                    assert_eq!(scalar.tlb().stats(), batched.tlb().stats(), "{label}");
                    for (a, b) in [
                        (
                            format!("{:?}", scalar.tlb()),
                            format!("{:?}", batched.tlb()),
                        ),
                        (
                            format!("{:?}", scalar.psc()),
                            format!("{:?}", batched.psc()),
                        ),
                        (
                            format!("{:?}", scalar.pte_lines()),
                            format!("{:?}", batched.pte_lines()),
                        ),
                    ] {
                        assert_eq!(
                            a, b,
                            "{label}, {start:#x} + {len} × {kind}: translation state"
                        );
                    }
                    // RNG, schedule and defense state continue in step.
                    let next = |m: &mut Machine| m.execute_batch(kind, &addrs[..1]);
                    assert_eq!(
                        next(&mut batched),
                        next(&mut scalar),
                        "{label}: state after"
                    );
                }
            }
        }
    }

    #[test]
    fn v2_batch_matches_v2_scalar_under_noise() {
        // The v2 block path pre-draws noise per chunk; because
        // translation never consumes RNG, its stream must equal the v2
        // scalar path's draw-per-probe stream — including a tail chunk
        // shorter than NOISE_BLOCK (69 = 4×16 + 5) and PMC totals.
        use crate::observables::ObservablesVersion;
        let addrs: Vec<VirtAddr> = (0..69)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        for kind in [OpKind::Load, OpKind::Store] {
            let mut scalar = fig2_machine();
            let mut batched = fig2_machine();
            for m in [&mut scalar, &mut batched] {
                m.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
                m.set_observables(ObservablesVersion::V2);
            }
            assert_eq!(batched.observables(), ObservablesVersion::V2);
            let batch = batched.execute_batch(kind, &addrs);
            let looped: Vec<u64> = addrs.iter().map(|&a| scalar.probe(kind, a)).collect();
            assert_eq!(batch, looped, "{kind}");
            assert_eq!(scalar.elapsed_cycles(), batched.elapsed_cycles());
            for event in [
                Event::MaskedLoadRetired,
                Event::MaskedStoreRetired,
                Event::AssistsAny,
                Event::SuppressedFault,
                Event::DtlbLoadWalkCompleted,
                Event::DtlbStoreWalkCompleted,
                Event::TlbMiss,
                Event::TlbHitL1,
            ] {
                assert_eq!(
                    scalar.pmc().read(event),
                    batched.pmc().read(event),
                    "{kind}: {event:?}"
                );
            }
        }
    }

    #[test]
    fn v2_batch_matches_v2_scalar_under_space_only_schedules() {
        // The v2 block is drawn from the model in force at its first
        // probe. Space events never touch that model, so a schedule of
        // module churn alone — events landing mid-block, on the probed
        // pages — keeps the v2 batch equal to the v2 scalar path. (A
        // noise-shaped event mid-block does not; see
        // `execute_tiles_v2`.)
        use crate::observables::ObservablesVersion;
        use crate::sched::{SchedEvent, SchedRegion, VictimSchedule};
        const MODULES: u64 = 0xffff_ffff_c000_0000;
        let addrs: Vec<VirtAddr> = (0..69).map(|i| va(MODULES + i * 0x1000)).collect();
        for ops_per_tick in [1, 3, 16] {
            for kind in [OpKind::Load, OpKind::Store] {
                let mut scalar = fig2_machine();
                let mut batched = fig2_machine();
                for m in [&mut scalar, &mut batched] {
                    m.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
                    m.set_observables(ObservablesVersion::V2);
                    m.set_victim_schedule(Some(
                        VictimSchedule::new(ops_per_tick, 5)
                            .with_module_region(SchedRegion::new(
                                MODULES,
                                MODULES + 0x2_0000,
                                0x1000,
                            ))
                            .every(1, 2, SchedEvent::ModuleLoad { pages: 2 })
                            .every(2, 3, SchedEvent::ModuleUnload),
                    ));
                }
                let batch = batched.execute_batch(kind, &addrs);
                let looped: Vec<u64> = addrs.iter().map(|&a| scalar.probe(kind, a)).collect();
                let ctx = format!("{ops_per_tick} ops/tick, {kind}");
                assert_eq!(batch, looped, "{ctx}");
                assert_eq!(scalar.elapsed_cycles(), batched.elapsed_cycles());
                let fired = |m: &Machine| m.victim_schedule().map(VictimSchedule::fired);
                assert!(fired(&batched) >= Some(3), "{ctx}: events fired mid-batch");
                assert_eq!(fired(&scalar), fired(&batched), "{ctx}");
                assert_eq!(
                    scalar.space().iter_regions(),
                    batched.space().iter_regions(),
                    "{ctx}"
                );
                for event in Event::ALL {
                    assert_eq!(
                        scalar.pmc().read(event),
                        batched.pmc().read(event),
                        "{ctx}: {event:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn v2_drift_schedule_indexes_blocks_per_probe() {
        // Under a drifting schedule the v2 block fill resolves the
        // model per probe index, so batch and scalar agree even when a
        // block straddles the ramp onset (onset 40 inside the 3rd
        // 16-probe block).
        use crate::noise::NoiseProfile;
        use crate::observables::ObservablesVersion;
        let addrs: Vec<VirtAddr> = (0..96)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        let drift = NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 40, 72);
        let mut scalar = fig2_machine();
        let mut batched = fig2_machine();
        for m in [&mut scalar, &mut batched] {
            m.set_noise_profile(drift);
            m.set_observables(ObservablesVersion::V2);
        }
        let batch = batched.execute_batch(OpKind::Load, &addrs);
        let looped: Vec<u64> = addrs
            .iter()
            .map(|&a| scalar.probe(OpKind::Load, a))
            .collect();
        assert_eq!(batch, looped);
    }

    #[test]
    fn v1_default_stream_is_unchanged_by_the_dispatch() {
        // The observables dispatch must leave the default (v1) stream
        // bit-exact: a machine that never calls set_observables produces
        // the same cycles as one explicitly set to V1.
        use crate::observables::ObservablesVersion;
        let addrs: Vec<VirtAddr> = (0..32)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        let mut default = fig2_machine();
        let mut explicit = fig2_machine();
        default.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        explicit.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        assert_eq!(default.observables(), ObservablesVersion::V1);
        explicit.set_observables(ObservablesVersion::V1);
        assert_eq!(
            default.execute_batch(OpKind::Load, &addrs),
            explicit.execute_batch(OpKind::Load, &addrs)
        );
    }

    /// Everything an op can change that the probe oracle compares: the
    /// counters, the TLB, PSC and line-cache diagnostics, the clock and
    /// the next RNG draw.
    fn observed(m: &Machine) -> String {
        use rand::RngCore;
        format!(
            "{:?} tlb {:?}/{} psc {}/{}/{}/{} lines {} tsc {} seq {} next {}",
            m.pmc,
            m.tlb.stats(),
            m.tlb.len(),
            m.psc.hits(),
            m.psc.misses(),
            m.psc.len(),
            m.psc.generation(),
            m.lines.len(),
            m.elapsed_cycles(),
            m.probe_seq,
            m.rng.clone().next_u64(),
        )
    }

    /// A noisy Fig. 2 machine under `observables`, with `victim`'s
    /// defense or schedule installed.
    fn oracle_machine(observables: ObservablesVersion, victim: fn(&mut Machine)) -> Machine {
        let mut m = fig2_machine_on(CpuProfile::alder_lake_i5_12400f());
        m.set_noise_profile(crate::NoiseProfile::LaptopDvfs);
        m.set_observables(observables);
        victim(&mut m);
        m
    }

    /// Runs the oracle's op sequence — user and kernel pages, present
    /// and not, at page-straddling offsets 4064–4095, loads and stores,
    /// each twice — through `Machine::probe` on one machine and through
    /// `execute(MaskedOp::probe_*)` on its twin, comparing after every
    /// op.
    fn assert_probe_matches_execute(victim: fn(&mut Machine), what: &str) {
        const PAGES: [u64; 6] = [
            USER_M,
            USER_U,
            KERNEL_M,
            KERNEL_U,
            0x7000_0000_0000,
            KERNEL_M + 0x1f_f000,
        ];
        let offsets = [0u64, 8, 4064, 4067, 4068, 4069, 4072, 4080, 4088, 4095];
        for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
            let mut fast = oracle_machine(observables, victim);
            let mut full = oracle_machine(observables, victim);
            let mut step = 0;
            for round in 0..2 {
                for &page in &PAGES {
                    for &offset in &offsets {
                        for kind in [OpKind::Load, OpKind::Store] {
                            let addr = va(page + offset);
                            let op = match kind {
                                OpKind::Load => MaskedOp::probe_load(addr),
                                OpKind::Store => MaskedOp::probe_store(addr),
                            };
                            let got = fast.probe(kind, addr);
                            let want = full.execute(op).cycles;
                            let ctx = format!("{what} {observables} round {round} step {step}");
                            assert_eq!(got, want, "{ctx}: {kind} {addr}");
                            assert_eq!(observed(&fast), observed(&full), "{ctx}");
                            step += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probe_matches_execute_on_bare_machines() {
        assert_probe_matches_execute(|_| {}, "bare");
    }

    #[test]
    fn probe_matches_execute_under_masked_translation_and_rerandomization() {
        assert_probe_matches_execute(
            |m| {
                let mask = AddressMask::new(KERNEL_M, KERNEL_M + 0x2000_0000, 0x20_0000, 3);
                m.set_defense(Some(VictimDefense::new().with_mask(mask)));
            },
            "masked",
        );
        assert_probe_matches_execute(
            |m| {
                let r = Rerandomizer::capture(
                    m.space(),
                    KERNEL_M,
                    KERNEL_M + 0x2000_0000,
                    0x20_0000,
                    37,
                    5,
                )
                .unwrap();
                m.set_defense(Some(VictimDefense::new().with_rerandomizer(r)));
            },
            "rerandomized",
        );
    }

    #[test]
    fn probe_matches_execute_on_scheduled_victims() {
        assert_probe_matches_execute(
            |m| {
                use crate::sched::SchedRegion;
                const MODULES: u64 = 0xffff_ffff_c000_0000;
                m.set_victim_schedule(Some(
                    VictimSchedule::new(3, 11)
                        .with_module_region(SchedRegion::new(MODULES, MODULES + 0x2_0000, 0x1000))
                        .at(4, SchedEvent::NoiseSwap(crate::NoiseProfile::Quiet))
                        .at(9, SchedEvent::TenantArrive)
                        .every(2, 5, SchedEvent::ModuleLoad { pages: 2 })
                        .every(3, 7, SchedEvent::ModuleUnload)
                        .at(30, SchedEvent::TenantDepart),
                ));
            },
            "scheduled",
        );
    }

    /// A machine after an arbitrary history, reset, behaves exactly like
    /// a new one: scalar probes, both batch paths, a data-moving op and
    /// the diagnostics, on the same and on another profile.
    #[test]
    fn reset_machine_replays_like_a_new_one() {
        let workload = |m: &mut Machine, observables: ObservablesVersion| {
            m.set_observables(observables);
            let addrs: Vec<VirtAddr> = (0..40)
                .map(|i| va(KERNEL_U - 0x40_0000 + i * 0x20_0000))
                .chain((0..24).map(|i| va(USER_U + i * 0x1000)))
                .collect();
            let mut out = m.execute_batch(OpKind::Load, &addrs);
            out.extend(m.execute_batch(OpKind::Store, &addrs));
            out.extend(addrs.iter().map(|&a| m.probe(OpKind::Load, a)));
            let op = MaskedOp {
                kind: OpKind::Load,
                addr: va(USER_M + 0x10),
                mask: Mask::new(0b1011, 8),
                width: ElemWidth::Dword,
            };
            let data = m.execute(op).data;
            (out, data, observed(m), m.space().iter_regions())
        };
        let source = fig2_machine().space().clone();
        for profile in [
            CpuProfile::alder_lake_i5_12400f(),
            CpuProfile::zen3_ryzen5_5600x(),
        ] {
            for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
                // A history that leaves every part of the state dirty.
                let mut m = fig2_machine();
                m.set_noise_profile(crate::NoiseProfile::drift_quiet_to_laptop());
                m.set_defense(Some(VictimDefense::new().with_mask(AddressMask::new(
                    KERNEL_M,
                    KERNEL_M + 0x2000_0000,
                    0x20_0000,
                    9,
                ))));
                m.set_victim_schedule(Some(
                    VictimSchedule::new(1, 2).at(5, SchedEvent::TenantArrive),
                ));
                m.poke(va(USER_M), &[7, 7, 7, 7]);
                m.evict_translation(va(KERNEL_M));
                // The workload last, so the TLB, PSC and line cache are
                // full when the reset comes.
                let _ = workload(&mut m, ObservablesVersion::V2);
                m.set_shadow_enabled(false);
                m.space_mut()
                    .map(va(0x6000_0000_0000), PageSize::Size4K, PteFlags::user_rw())
                    .unwrap();

                m.reset(&profile, &source, 77);
                let mut fresh = Machine::new(profile.clone(), source.clone(), 77);
                assert_eq!(observed(&m), observed(&fresh), "{}", profile.model);
                assert_eq!(m.noise(), fresh.noise());
                assert_eq!(
                    workload(&mut m, observables),
                    workload(&mut fresh, observables),
                    "{} {observables}",
                    profile.model
                );
            }
        }
    }

    /// How many of a tile of 16 non-present user pages the run server
    /// serves on its first tick after `victim` is installed and a
    /// one-probe warm-up batch built the resume memo (the tick is op 2).
    fn served_run(victim: impl FnOnce(&mut Machine)) -> (usize, Machine) {
        let mut m = fig2_machine();
        victim(&mut m);
        let addrs: Vec<_> = (1..=16).map(|i| va(USER_U + i * 0x1000)).collect();
        let _ = m.execute_batch(OpKind::Load, &addrs[..1]);
        let probe = BatchProbe::new(OpKind::Load, &m.profile.timing);
        let mut cycles = [0.0; 16];
        m.sched_tick();
        m.defense_tick();
        let served = m.serve_nonpresent_run(&probe, &addrs, &mut cycles);
        (served, m)
    }

    #[test]
    fn a_run_ends_where_a_victim_event_falls_due() {
        let swap = SchedEvent::NoiseSwap(crate::NoiseProfile::Quiet);
        let (served, _) = served_run(|_| {});
        assert_eq!(served, 16, "a bare machine serves the whole tile");

        // Due at op 7: ops 2–6 are quiet, and the run counts them.
        let (served, m) = served_run(|m| {
            m.set_victim_schedule(Some(VictimSchedule::new(1, 0).at(7, swap)));
        });
        assert_eq!(served, 5, "the event 5 ops away ends the run");
        let sched = m.victim_schedule().unwrap();
        assert_eq!((sched.ops_seen(), sched.fired()), (6, 0));

        // Fires at op 5: ops 2–4 are quiet.
        let (served, m) = served_run(|m| {
            let r =
                Rerandomizer::capture(m.space(), KERNEL_M, KERNEL_M + 0x2000_0000, 0x20_0000, 5, 0)
                    .unwrap();
            m.set_defense(Some(VictimDefense::new().with_rerandomizer(r)));
        });
        assert_eq!(served, 3, "the firing 3 ops away ends the run");
        assert_eq!(m.defense().unwrap().rerandomizers[0].quiet_ops(), 1);

        let (served, _) = served_run(|m| {
            let mask = AddressMask::new(KERNEL_M, KERNEL_M + 0x2000_0000, 0x20_0000, 0);
            m.set_defense(Some(VictimDefense::new().with_mask(mask)));
        });
        assert_eq!(served, 16, "masks never fall due");

        // The one event fires at op 1, the warm-up: the queue is empty.
        let (served, m) = served_run(|m| {
            m.set_victim_schedule(Some(VictimSchedule::new(1, 0).at(1, swap)));
        });
        assert_eq!(served, 16, "an empty queue never falls due");
        assert_eq!(m.victim_schedule().unwrap().ops_seen(), 17);
    }
}
