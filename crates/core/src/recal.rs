//! Closed-loop self-recalibration: keep the calibration honest while
//! the environment drifts.
//!
//! Every attack of §IV calibrates once and then trusts that fit for the
//! whole scan. That is the paper's quiet-host methodology — and exactly
//! what breaks when DVFS kicks in or a co-tenant lands on the core
//! mid-sweep: the threshold stays roughly right (the band *means* do
//! not move), but the fitted σ the SPRT's likelihoods assume goes stale,
//! so an [`crate::AdaptiveSampler`] built during the quiet phase settles
//! wrong answers with great confidence. NetSpectre-style remote attacks
//! live or die on continuous threshold re-estimation; Oreo argues ASLR
//! defenses must be evaluated against attackers that adapt online. This
//! module supplies that attacker:
//!
//! * [`DriftMonitor`] streams each probed tile's representative samples
//!   into a sliding window and watches two signals: the per-band
//!   MAD-dispersion (did the Gaussian widen past what the current fit
//!   claims?) and the SPRT forced-decision rate (is the sampler running
//!   out of budget without crossing a boundary?).
//! * [`Recalibrating`] drives a [`PageTableAttack`] sweep tile by tile;
//!   when the monitor trips it re-fits from the window via
//!   [`Threshold::refit_bimodal`] (the EM re-fit recovers both band
//!   means *and* the live σ from in-scan data — no second calibration
//!   page visit needed), rebuilds the sampler through the
//!   [`Sampling::sampler_from_fit`] single-σ-policy chokepoint, and
//!   re-classifies the suspicious window under the new fit.
//! * [`RecalibratingMinFilter`] is the level-signal analogue for the
//!   AMD path (no threshold to re-fit): on a dispersion shift it
//!   escalates the min-filter's probe budget so the latency floors stay
//!   trustworthy.
//!
//! Recalibration is **off by default** everywhere
//! ([`PageTableAttack::recal`], `CampaignConfig::recal` are `None`), and
//! with the trigger never firing the driver is bit-exact with the
//! non-recalibrating sweep — both properties are pinned by
//! `crates/core/tests/recal_props.rs`, which is what keeps every
//! pre-existing golden row untouched.
//!
//! # Example: a drifting scan that recalibrates itself
//!
//! ```
//! use avx_channel::recal::{RecalConfig, Recalibrating};
//! use avx_channel::{
//!     AdaptiveSampler, CalibratorKind, PageTableAttack, SimProber, Threshold,
//! };
//! use avx_channel::attacks::kaslr::KernelBaseFinder;
//! use avx_os::linux::{LinuxConfig, LinuxSystem};
//! use avx_uarch::{CpuProfile, NoiseProfile};
//!
//! let sys = LinuxSystem::build(LinuxConfig::seeded(5));
//! let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 5);
//! // A quiet host whose environment ramps to laptop-DVFS mid-scan.
//! machine.set_noise_profile(NoiseProfile::drift_quiet_to_laptop());
//! let mut p = SimProber::new(machine);
//!
//! // One-shot calibration happens in the quiet phase and measures σ ≈ 1.
//! let fit = Threshold::calibrate_with(
//!     &mut p,
//!     truth.user.calibration,
//!     16,
//!     CalibratorKind::NoiseAware,
//! );
//! let attack = PageTableAttack::new(fit.threshold)
//!     .with_adaptive(AdaptiveSampler::from_fit(&fit));
//! let mut driver = Recalibrating::new(attack, RecalConfig::default());
//! let sweep = driver.sweep(&mut p, &KernelBaseFinder::candidate_range());
//! // The dispersion monitor notices the drift and re-fits in-scan.
//! assert!(sweep.refits >= 1);
//! assert!(driver.threshold().is_mapped(93));
//! assert_eq!(sweep.mapped.len(), 512);
//! ```

use std::collections::VecDeque;

use avx_mmu::VirtAddr;

use crate::adaptive::{AdaptiveMinFilter, MinFilterBatch, MinFilterScratch, Sampling};
use crate::calibrate::{CalibrationFit, Threshold};
use crate::primitives::{PageTableAttack, SweepClassification, TileScratch};
use crate::prober::{ProbeStrategy, Prober};
use crate::stats::{mad_sigma_runs, SampleRuns};
use crate::sweep::TileSource;

/// Tuning knobs of the closed loop. The defaults are the pinned
/// campaign configuration (`repro --recalibrate`); `docs/CALIBRATION.md`
/// discusses when to move each one.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RecalConfig {
    /// Sliding-window length in representative samples (one per probed
    /// candidate address).
    pub window: usize,
    /// Minimum window fill before the triggers arm.
    pub min_samples: usize,
    /// Dispersion trigger: fires when a band's windowed MAD-σ exceeds
    /// `dispersion_ratio ×` the current fit's σ.
    pub dispersion_ratio: f64,
    /// Floor under the fit σ when forming the dispersion limit, so a
    /// near-zero quiet fit cannot make single-cycle jitter look like
    /// drift.
    pub sigma_floor: f64,
    /// SPRT trigger: fires when the fraction of forced (budget-
    /// exhausted) decisions in the window exceeds this rate. Only the
    /// adaptive sampling path produces forced decisions.
    pub unsettled_rate: f64,
    /// Samples to observe after a refit before the triggers re-arm.
    pub cooldown: usize,
    /// Re-classify the window's addresses under the new fit after a
    /// refit (the samples that accumulated while the stale fit was
    /// still deciding). Bounded by `window` extra measurements per
    /// refit.
    pub rescan: bool,
    /// Hard cap on refits per driver, a runaway-loop backstop.
    pub max_refits: u32,
}

impl Default for RecalConfig {
    fn default() -> Self {
        Self {
            window: 128,
            min_samples: 64,
            dispersion_ratio: 2.0,
            sigma_floor: 1.0,
            unsettled_rate: 0.25,
            cooldown: 64,
            rescan: true,
            max_refits: 8,
        }
    }
}

/// Why the monitor tripped.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DriftSignal {
    /// A band's windowed MAD-σ exceeded the fit's claim.
    Dispersion {
        /// The measured windowed band MAD-σ.
        measured: f64,
        /// The limit it exceeded (`dispersion_ratio × fit σ`).
        limit: f64,
    },
    /// Too many SPRT decisions were forced at the budget.
    Unsettled {
        /// Fraction of forced decisions in the window.
        rate: f64,
    },
}

/// One recalibration the driver performed.
#[derive(Clone, Copy, Debug)]
pub struct RecalEvent {
    /// Global candidate index (within this driver's lifetime) at which
    /// the trigger fired.
    pub at_address: usize,
    /// The signal that fired.
    pub signal: DriftSignal,
    /// The threshold in effect before the refit.
    pub threshold_before: Threshold,
    /// The fit the window produced.
    pub fit: CalibrationFit,
}

/// One window entry: a candidate's representative sample plus how its
/// decision was reached.
#[derive(Clone, Copy, Debug)]
struct WindowEntry {
    index: usize,
    addr: VirtAddr,
    sample: u64,
    settled: bool,
}

/// The sliding-window drift detector.
///
/// Samples in a sweep are *bimodal* (mapped and unmapped candidates
/// interleave), so a window-wide dispersion estimate would read the
/// band gap as noise. The monitor therefore splits the window at the
/// current decision boundary and measures each band's MAD-σ separately;
/// under a stationary environment that matches the fit's σ, and under
/// `NoiseModel::none()` it is exactly zero, so the trigger can never
/// fire on a noiseless scan (property-pinned).
///
/// The window is kept twice: in arrival order (what the rescan,
/// eviction and the freshest-half σ refresh need) and as a run-length
/// multiset sorted by sample value, with a running count of forced
/// decisions. A 128-sample window holds a dozen to a few dozen distinct
/// cycle counts, so [`DriftMonitor::observe`] is a binary search plus
/// an increment (and the decrement of the evicted sample), the EM
/// re-fit reads the runs as they are, and [`DriftMonitor::check`]
/// splits the runs at the boundary and reads each band's doubled
/// median and doubled deviation-median by walking them — the exact
/// integer order statistics of [`crate::stats::mad_sigma`], so every
/// trigger decision and [`DriftSignal`] payload is bit-identical to
/// selecting over the window. Samples must lie below
/// [`crate::stats::MAD_EXACT_LIMIT`] (debug-asserted); a verbatim copy
/// of the selection-based monitor is the oracle of
/// `crates/core/tests/recal_props.rs`.
#[derive(Clone, Debug)]
pub struct DriftMonitor {
    config: RecalConfig,
    /// σ the current fit claims; the dispersion limit scales from it.
    baseline_sigma: f64,
    /// The window in arrival order.
    entries: VecDeque<WindowEntry>,
    /// The same samples as sorted `(value, count)` runs.
    sorted: SampleRuns,
    /// Entries whose decision was forced at the probe budget.
    forced: usize,
    since_refit: usize,
}

/// Band entries below this count are too thin for a MAD estimate.
pub const MIN_BAND_SAMPLES: usize = 8;

/// The one band-partition rule of the monitor: a sample belongs to the
/// fast (mapped) band iff it lies at or below the decision boundary.
/// Monotone in the sample, so it splits sorted runs at one point; a NaN
/// boundary puts every sample in the slow band.
fn in_fast_band(sample: u64, boundary: f64) -> bool {
    sample as f64 <= boundary
}

/// MAD-σ of one band's runs; 0 for bands thinner than
/// [`MIN_BAND_SAMPLES`].
fn band_sigma(runs: &[(u64, usize)]) -> f64 {
    if runs.iter().map(|&(_, count)| count).sum::<usize>() < MIN_BAND_SAMPLES {
        return 0.0;
    }
    mad_sigma_runs(runs).unwrap_or(0.0)
}

/// The larger MAD-σ of the two bands `boundary` splits sorted `runs`
/// into (each read by [`band_sigma`]).
fn per_band_sigma(runs: &[(u64, usize)], boundary: f64) -> f64 {
    let split = runs.partition_point(|&(sample, _)| in_fast_band(sample, boundary));
    band_sigma(&runs[..split]).max(band_sigma(&runs[split..]))
}

impl DriftMonitor {
    /// A monitor against the σ of the calibration currently in effect.
    #[must_use]
    pub fn new(config: RecalConfig, baseline_sigma: f64) -> Self {
        Self {
            config,
            baseline_sigma,
            entries: VecDeque::with_capacity(config.window.max(1)),
            sorted: SampleRuns::default(),
            forced: 0,
            // The initial fit needs no cooldown: trigger as soon as the
            // window has evidence.
            since_refit: config.cooldown,
        }
    }

    /// Streams one candidate's representative sample into the window.
    pub fn observe(&mut self, index: usize, addr: VirtAddr, sample: u64, settled: bool) {
        if self.entries.len() >= self.config.window.max(1) {
            if let Some(old) = self.entries.pop_front() {
                self.sorted.remove(old.sample);
                self.forced -= usize::from(!old.settled);
            }
        }
        self.sorted.insert(sample);
        self.forced += usize::from(!settled);
        self.entries.push_back(WindowEntry {
            index,
            addr,
            sample,
            settled,
        });
        self.since_refit = self.since_refit.saturating_add(1);
    }

    /// The windowed per-band dispersion: the larger MAD-σ of the two
    /// bands the decision boundary splits the window into (bands with
    /// fewer than [`MIN_BAND_SAMPLES`] entries read as 0). O(distinct
    /// sample values).
    #[must_use]
    pub fn band_dispersion(&self, boundary: f64) -> f64 {
        per_band_sigma(self.sorted.runs(), boundary)
    }

    /// Fraction of window entries whose decision was forced at the
    /// probe budget.
    #[must_use]
    pub fn unsettled_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.forced as f64 / self.entries.len() as f64
    }

    /// Checks the triggers against the current decision boundary.
    #[must_use]
    pub fn check(&self, boundary: f64) -> Option<DriftSignal> {
        if self.entries.len() < self.config.min_samples.max(1)
            || self.since_refit < self.config.cooldown
        {
            return None;
        }
        let limit = self.config.dispersion_ratio * self.baseline_sigma.max(self.config.sigma_floor);
        let measured = self.band_dispersion(boundary);
        if measured > limit {
            return Some(DriftSignal::Dispersion { measured, limit });
        }
        let rate = self.unsettled_fraction();
        if rate > self.config.unsettled_rate {
            return Some(DriftSignal::Unsettled { rate });
        }
        None
    }

    /// The window's samples in arrival order (what the re-fit consumes).
    pub fn samples(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.sample)
    }

    /// The EM re-fit of the window, [`Threshold::refit_bimodal`] of
    /// [`DriftMonitor::samples`], read from the window's sorted runs
    /// instead of a sorted copy of its samples.
    pub(crate) fn refit_bimodal(&self) -> Option<CalibrationFit> {
        Threshold::refit_bimodal_runs(self.sorted.runs())
    }

    /// Per-band MAD-σ of the *freshest half* of the window. While a
    /// ramp is still in progress the window mixes noise levels, so a
    /// full-window estimate lags the live σ; the freshest half tracks
    /// it, and a continuing ramp simply re-trips the (re-based) trigger
    /// and walks the estimate up step by step. Runs once per refit, so
    /// it sorts the half into runs once instead of keeping a second
    /// sorted window, with the band rule of [`DriftMonitor::check`].
    #[must_use]
    pub fn fresh_sigma(&self, boundary: f64) -> f64 {
        let skip = self.entries.len() / 2;
        let fresh = SampleRuns::from_unsorted(self.entries.iter().skip(skip).map(|e| e.sample));
        let per_band = per_band_sigma(fresh.runs(), boundary);
        if per_band > 0.0 {
            per_band
        } else {
            // Both bands too thin to split: fall back to the half's
            // overall MAD (still spike-robust).
            mad_sigma_runs(fresh.runs()).unwrap_or(0.0)
        }
    }

    /// Resets the window around a fresh fit: the old samples were drawn
    /// under the stale calibration and must not re-trip the new one.
    pub fn note_refit(&mut self, new_sigma: f64) {
        self.baseline_sigma = new_sigma;
        self.entries.clear();
        self.sorted.clear();
        self.forced = 0;
        self.since_refit = 0;
    }
}

/// The sweep driver of [`PageTableAttack::sweep`], closed-loop when
/// the attack carries a [`RecalConfig`].
///
/// Classifies tile by tile through the [`TileSource`] decomposition,
/// and under a [`RecalConfig`] feeds every tile's representative
/// samples through a [`DriftMonitor`]. State persists across calls, so
/// chunked scans (the Windows §IV-G region loop) keep one threshold
/// trajectory for the whole region. Without a config it never refits
/// and is the open-loop sweep.
#[derive(Clone, Debug)]
pub struct Recalibrating {
    attack: PageTableAttack,
    /// The drift monitor and refit state; `None` for the open loop.
    closed: Option<ClosedLoop>,
    /// Candidates processed across the driver's lifetime.
    processed: usize,
    /// Reused per-tile buffers (no allocation per sweep tile).
    tile: TileScratch,
}

/// Everything only the closed loop needs.
#[derive(Clone, Debug)]
struct ClosedLoop {
    config: RecalConfig,
    monitor: DriftMonitor,
    /// The threshold the attack was *calibrated* with — the fixed
    /// anchor of the EM re-centering gate. The live threshold may be
    /// refit many times on a long scan; gating each refit against this
    /// anchor (not the previous refit) keeps the accepted moves inside
    /// one tolerance of the reference level, so successive mid-ramp EM
    /// artifacts cannot random-walk the boundary into a band tail.
    reference: Threshold,
    events: Vec<RecalEvent>,
    /// Reused buffer of the rescanned candidates' addresses.
    rescan_addrs: Vec<VirtAddr>,
}

impl Recalibrating {
    /// The closed-loop driver around `attack` under `config`.
    #[must_use]
    pub fn new(attack: PageTableAttack, config: RecalConfig) -> Self {
        Self::for_attack(attack.with_recalibration(config))
    }

    /// The driver `attack` describes: closed-loop under
    /// [`PageTableAttack::recal`], open-loop without. The monitor's
    /// baseline σ is the sampler's fitted σ on the adaptive path and
    /// the [`RecalConfig::sigma_floor`] on the fixed path (the fixed
    /// path carries no σ model to compare against).
    #[must_use]
    pub fn for_attack(attack: PageTableAttack) -> Self {
        let closed = attack.recal.map(|config| {
            let baseline_sigma = attack
                .sampler
                .map_or(config.sigma_floor, |s| s.sigma)
                .max(config.sigma_floor);
            ClosedLoop {
                config,
                monitor: DriftMonitor::new(config, baseline_sigma),
                reference: attack.threshold,
                events: Vec::new(),
                rescan_addrs: Vec::with_capacity(config.window.max(1)),
            }
        });
        Self {
            attack,
            closed,
            processed: 0,
            tile: TileScratch::default(),
        }
    }

    /// The driver on `scratch`'s tile buffers instead of its own
    /// (see [`PageTableAttack::sweep_in`]).
    #[must_use]
    pub(crate) fn with_scratch(mut self, scratch: TileScratch) -> Self {
        self.tile = scratch;
        self
    }

    /// Ends the driver, returning its tile buffers for the next one.
    #[must_use]
    pub(crate) fn into_scratch(self) -> TileScratch {
        self.tile
    }

    /// The driver's tile buffers, idle between sweeps: the streaming
    /// scans run their confirmation re-visits on them.
    pub(crate) fn scratch_mut(&mut self) -> &mut TileScratch {
        &mut self.tile
    }

    /// The threshold currently in effect (moves across refits).
    #[must_use]
    pub fn threshold(&self) -> Threshold {
        self.attack.threshold
    }

    /// Recalibrations performed so far.
    #[must_use]
    pub fn refits(&self) -> u32 {
        self.events().len() as u32
    }

    /// The recalibration log.
    #[must_use]
    pub fn events(&self) -> &[RecalEvent] {
        self.closed.as_ref().map_or(&[], |c| &c.events)
    }

    /// Sweeps `candidates` (a slice or an [`crate::AddrRange`]).
    pub fn sweep<P: Prober + ?Sized, C: TileSource + ?Sized>(
        &mut self,
        p: &mut P,
        candidates: &C,
    ) -> SweepClassification {
        let mut out = SweepClassification {
            samples: Vec::with_capacity(candidates.candidate_count()),
            mapped: Vec::with_capacity(candidates.candidate_count()),
            probes: 0,
            refits: 0,
        };
        let call_base = self.processed;
        candidates.for_each_tile(|tile| self.sweep_tile(p, tile, call_base, &mut out));
        out
    }

    /// One tile: classify with the current fit and, on the closed loop,
    /// feed the monitor and possibly refit.
    fn sweep_tile<P: Prober + ?Sized>(
        &mut self,
        p: &mut P,
        tile: &[VirtAddr],
        call_base: usize,
        out: &mut SweepClassification,
    ) {
        out.probes += self.attack.classify_tile(p, tile, &mut self.tile);
        let batch = &self.tile.batch;
        out.samples.extend_from_slice(&batch.samples);
        out.mapped.extend_from_slice(&batch.mapped);
        let first = self.processed;
        self.processed += tile.len();
        let Some(closed) = &mut self.closed else {
            return;
        };
        for (i, &addr) in tile.iter().enumerate() {
            closed
                .monitor
                .observe(first + i, addr, batch.samples[i], batch.settled[i]);
        }
        if closed.events.len() < closed.config.max_refits as usize {
            if let Some(signal) = closed.monitor.check(self.attack.threshold.boundary()) {
                self.refit(p, signal, call_base, out);
            }
        }
    }

    /// Re-fits from the window, rebuilds the sampler, and (optionally)
    /// re-classifies the window's addresses under the new fit.
    fn refit<P: Prober + ?Sized>(
        &mut self,
        p: &mut P,
        signal: DriftSignal,
        call_base: usize,
        out: &mut SweepClassification,
    ) {
        let Self {
            attack,
            closed: Some(closed),
            processed,
            tile,
        } = self
        else {
            return;
        };
        // The EM re-fit recovers both band means and the live σ when
        // the window genuinely straddles both populations. Mid-ramp,
        // though, EM can "discover" two modes *inside* one noise band
        // (early tight samples vs late wide ones) and drag the
        // threshold into the unmapped band's tail — so the fit is only
        // trusted when its mapped mean lands near the *calibrated*
        // reference level (`closed.reference`, never the previous
        // refit: successive artifacts must not compound into a random
        // walk), which is a stable microarchitectural constant:
        // environment drift widens the bands, it does not move them.
        // Otherwise (including the single-band window of a thin scan
        // like the KPTI trampoline hunt) the threshold stays put and
        // only the σ model is refreshed, from the freshest half of the
        // window so a still-running ramp is tracked rather than
        // averaged away.
        let tolerance = (closed.reference.margin / 2.0).max(2.0);
        let fit = closed
            .monitor
            .refit_bimodal()
            .filter(|f| (f.threshold.value - closed.reference.value).abs() <= tolerance)
            .unwrap_or(CalibrationFit {
                threshold: attack.threshold,
                sigma: closed
                    .monitor
                    .fresh_sigma(attack.threshold.boundary())
                    .max(closed.config.sigma_floor),
                estimator: "drift-sigma",
            });
        closed.events.push(RecalEvent {
            at_address: *processed,
            signal,
            threshold_before: attack.threshold,
            fit,
        });
        out.refits += 1;

        attack.threshold = fit.threshold;
        if let Some(old) = attack.sampler {
            // The single-σ-policy chokepoint: hypotheses *and*
            // likelihood σ both come from the new fit, budgets carry
            // over from the old sampler.
            attack.sampler = Sampling::Adaptive(old.config).sampler_from_fit(&fit);
        }
        if closed.config.rescan {
            closed.rescan(attack, tile, p, call_base, out);
        }
        closed
            .monitor
            .note_refit(fit.sigma.max(closed.config.sigma_floor));
    }
}

impl ClosedLoop {
    /// Rescan: the window's candidates were decided under the stale fit
    /// while the drift built up — re-classify them with the fresh one,
    /// tile by tile. Only entries of the *current* call can be patched
    /// (earlier chunks of a streaming scan are already consumed); their
    /// indices rise in arrival order, so they are a suffix of the
    /// window.
    fn rescan<P: Prober + ?Sized>(
        &mut self,
        attack: &PageTableAttack,
        scratch: &mut TileScratch,
        p: &mut P,
        call_base: usize,
        out: &mut SweepClassification,
    ) {
        let entries = &self.monitor.entries;
        let first = entries.partition_point(|e| e.index < call_base);
        self.rescan_addrs.clear();
        self.rescan_addrs
            .extend(entries.range(first..).map(|e| e.addr));
        let mut next = first;
        self.rescan_addrs.for_each_tile(|tile| {
            out.probes += attack.classify_tile(p, tile, scratch);
            let batch = &scratch.batch;
            let targets = entries.range(next..next + tile.len());
            for (e, (&sample, &mapped)) in targets.zip(batch.samples.iter().zip(&batch.mapped)) {
                let local = e.index - call_base;
                out.samples[local] = sample;
                out.mapped[local] = mapped;
            }
            next += tile.len();
        });
    }
}

/// Closed-loop companion for the level-signal (P3 / AMD) sweeps.
///
/// The AMD path has no threshold to re-fit — its post-hoc outlier split
/// happens after the sweep — but its min-filtered latency floors stop
/// being floors when the environment widens mid-scan. This driver
/// watches the windowed dispersion of the floors against the quietest
/// window seen so far and, on a shift, escalates the min-filter budget
/// (double `max_probes`, one more stable round) so later candidates buy
/// the extra evidence the noise demands.
#[derive(Clone, Debug)]
pub struct RecalibratingMinFilter {
    filter: AdaptiveMinFilter,
    config: RecalConfig,
    /// The window of floors in arrival order (for eviction) and as
    /// sorted runs (its whole-window MAD, the unsplit case of
    /// [`DriftMonitor::band_dispersion`]).
    window: VecDeque<u64>,
    sorted: SampleRuns,
    /// Quiet-phase reference dispersion, established from the first
    /// full window.
    baseline: Option<f64>,
    since_escalation: usize,
    escalations: u32,
    /// Reused per-tile buffers (no allocation per sweep tile).
    batch: MinFilterBatch,
    scratch: MinFilterScratch,
}

/// Hard cap on the escalated min-filter width.
const MAX_ESCALATED_PROBES: u8 = 32;

impl RecalibratingMinFilter {
    /// Wraps a min-filter in the escalation loop.
    #[must_use]
    pub fn new(filter: AdaptiveMinFilter, config: RecalConfig) -> Self {
        Self {
            filter,
            config,
            window: VecDeque::with_capacity(config.window.max(1)),
            sorted: SampleRuns::default(),
            baseline: None,
            since_escalation: config.cooldown,
            escalations: 0,
            batch: MinFilterBatch::with_capacity(ProbeStrategy::BATCH_TILE),
            scratch: MinFilterScratch::default(),
        }
    }

    /// Budget escalations performed so far.
    #[must_use]
    pub fn escalations(&self) -> u32 {
        self.escalations
    }

    /// The min-filter currently in effect.
    #[must_use]
    pub fn filter(&self) -> AdaptiveMinFilter {
        self.filter
    }

    /// Sweeps `candidates` (a slice or an [`crate::AddrRange`]) with
    /// the escalating min-filter; returns the floors and the raw probe
    /// count, like [`crate::LevelAttack::measure`].
    pub fn measure_range<P: Prober + ?Sized, C: TileSource + ?Sized>(
        &mut self,
        p: &mut P,
        candidates: &C,
    ) -> (Vec<u64>, u64) {
        let mut floors = Vec::with_capacity(candidates.candidate_count());
        let mut probes = 0u64;
        candidates.for_each_tile(|tile| {
            self.batch.clear();
            self.filter.measure_tile(
                p,
                avx_uarch::OpKind::Load,
                tile,
                &mut self.batch,
                &mut self.scratch,
            );
            probes += self.batch.total_probes();
            for &floor in &self.batch.mins {
                if self.window.len() >= self.config.window.max(1) {
                    if let Some(old) = self.window.pop_front() {
                        self.sorted.remove(old);
                    }
                }
                self.window.push_back(floor);
                self.sorted.insert(floor);
                self.since_escalation = self.since_escalation.saturating_add(1);
            }
            floors.extend_from_slice(&self.batch.mins);
            self.maybe_escalate();
        });
        (floors, probes)
    }

    /// Establishes the baseline from the first full window, then
    /// escalates when a later window's dispersion exceeds the ratio.
    fn maybe_escalate(&mut self) {
        if self.window.len() < self.config.min_samples.max(1) {
            return;
        }
        let dispersion = mad_sigma_runs(self.sorted.runs()).unwrap_or(0.0);
        let Some(baseline) = self.baseline else {
            if self.window.len() >= self.config.window.max(1) {
                self.baseline = Some(dispersion);
            }
            return;
        };
        if self.since_escalation < self.config.cooldown
            || self.escalations >= self.config.max_refits
        {
            return;
        }
        let limit = self.config.dispersion_ratio * baseline.max(self.config.sigma_floor);
        if dispersion > limit {
            self.filter.max_probes = self
                .filter
                .max_probes
                .saturating_mul(2)
                .min(MAX_ESCALATED_PROBES);
            self.filter.stable_rounds = self.filter.stable_rounds.saturating_add(1);
            self.baseline = Some(dispersion);
            self.since_escalation = 0;
            self.escalations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveSampler;
    use crate::primitives::PageTableAttack;
    use crate::prober::SimProber;
    use crate::sweep::AddrRange;
    use avx_os::linux::{LinuxConfig, LinuxSystem};
    use avx_uarch::{CpuProfile, NoiseModel, NoiseProfile, OpKind};

    fn addr(i: u64) -> VirtAddr {
        VirtAddr::new_truncate(0xffff_ffff_8000_0000 + i * 0x20_0000)
    }

    #[test]
    fn monitor_never_trips_on_constant_bands() {
        let mut monitor = DriftMonitor::new(RecalConfig::default(), 1.0);
        // A noiseless sweep: constant 107 unmapped with a constant 93
        // mapped run in the middle — both bands have zero MAD.
        for i in 0..400usize {
            let sample = if (180..205).contains(&i) { 93 } else { 107 };
            monitor.observe(i, addr(i as u64), sample, true);
            assert_eq!(monitor.check(100.0), None, "index {i}");
        }
        assert_eq!(monitor.band_dispersion(100.0), 0.0);
    }

    #[test]
    fn monitor_trips_within_one_window_of_a_sigma_step() {
        let config = RecalConfig::default();
        let mut monitor = DriftMonitor::new(config, 1.0);
        // Quiet phase: tight unmapped band.
        for i in 0..200usize {
            monitor.observe(i, addr(i as u64), 107 + (i as u64 % 3), true);
        }
        assert_eq!(monitor.check(100.0), None, "quiet phase must stay calm");
        // σ×6 step: the same band suddenly spreads ±12 cycles.
        let mut fired_at = None;
        for i in 200..200 + config.window {
            let wobble = (i as i64 * 7919) % 25 - 12; // deterministic ±12 spread
            let sample = (107 + wobble).max(101) as u64;
            monitor.observe(i, addr(i as u64), sample, true);
            if monitor.check(100.0).is_some() {
                fired_at = Some(i);
                break;
            }
        }
        let fired = fired_at.expect("σ×6 step must trip within one window");
        assert!(fired < 200 + config.window, "fired at {fired}");
        assert!(matches!(
            monitor.check(100.0),
            Some(DriftSignal::Dispersion { .. })
        ));
    }

    #[test]
    fn monitor_trips_on_forced_decision_pileup() {
        let config = RecalConfig::default();
        let mut monitor = DriftMonitor::new(config, 1.0);
        for i in 0..config.window {
            // Constant samples (no dispersion signal), but 40 % forced.
            monitor.observe(i, addr(i as u64), 107, i % 5 >= 2);
        }
        assert!(matches!(
            monitor.check(100.0),
            Some(DriftSignal::Unsettled { rate }) if rate > 0.25
        ));
    }

    #[test]
    fn refit_resets_the_window_and_baseline() {
        let mut monitor = DriftMonitor::new(RecalConfig::default(), 1.0);
        for i in 0..150usize {
            monitor.observe(i, addr(i as u64), 107 + (i as u64 % 13), true);
        }
        assert!(monitor.check(100.0).is_some());
        monitor.note_refit(6.0);
        assert_eq!(monitor.samples().len(), 0);
        // Fresh samples at the new σ stay inside the new baseline.
        for i in 150..320usize {
            monitor.observe(i, addr(i as u64), 107 + (i as u64 % 13), true);
            assert_eq!(monitor.check(100.0), None, "index {i}");
        }
    }

    /// Every field of a calibration fit, its floats as raw bits.
    fn fit_bits(fit: Option<CalibrationFit>) -> Option<([u64; 3], &'static str)> {
        fit.map(|f| {
            let bits = [f.threshold.value, f.threshold.margin, f.sigma].map(f64::to_bits);
            (bits, f.estimator)
        })
    }

    #[test]
    fn window_refit_from_runs_equals_the_refit_of_its_samples() {
        let config = RecalConfig::default();
        let mut monitor = DriftMonitor::new(config, 1.0);
        let mut state = 0x0e_f17_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(1);
            crate::fleet::splitmix64(state) % bound
        };
        let mut fits = 0;
        // Past the window's capacity (evicting), through a reset, then
        // past the capacity again.
        for i in 0..5 * config.window {
            if i == 2 * config.window + 17 {
                monitor.note_refit(3.0);
            }
            // A sweep window: 1 in 8 mapped, jitter, rare spikes.
            let band = if next(8) == 0 { 93 } else { 107 };
            let spike = if next(64) == 0 { 400 + next(4000) } else { 0 };
            monitor.observe(i, addr(i as u64), band + next(5) + spike, true);
            let samples: Vec<u64> = monitor.samples().collect();
            let want = Threshold::refit_bimodal(&samples);
            assert_eq!(
                fit_bits(monitor.refit_bimodal()),
                fit_bits(want),
                "index {i}: {samples:?}"
            );
            fits += usize::from(want.is_some());
        }
        // Both outcomes were compared: separated fits and refusals.
        assert!(
            (config.window..4 * config.window).contains(&fits),
            "{fits} windows separated"
        );
    }

    #[test]
    fn noiseless_driver_is_bit_exact_with_the_open_loop() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(9));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 9);
        m.set_noise(NoiseModel::none());
        let mut p = SimProber::new(m);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let range = crate::attacks::kaslr::KernelBaseFinder::candidate_range();

        let attack = PageTableAttack::new(th);
        let open = attack.sweep(&mut p, &range);
        let mut driver = Recalibrating::new(attack, RecalConfig::default());
        let closed = driver.sweep(&mut p, &range);
        assert_eq!(closed.refits, 0, "noiseless: trigger must not fire");
        assert_eq!(closed.samples, open.samples);
        assert_eq!(closed.mapped, open.mapped);
        assert_eq!(closed.probes, open.probes);
        assert!(driver.events().is_empty());
    }

    #[test]
    fn drifting_adaptive_scan_refits_and_recovers_the_base() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(33));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 33);
        m.set_noise_profile(NoiseProfile::drift_quiet_to_laptop());
        let mut p = SimProber::new(m);
        let fit = Threshold::calibrate_with(
            &mut p,
            truth.user.calibration,
            16,
            crate::CalibratorKind::NoiseAware,
        );
        let attack =
            PageTableAttack::new(fit.threshold).with_adaptive(AdaptiveSampler::from_fit(&fit));
        let mut driver = Recalibrating::new(attack, RecalConfig::default());
        let sweep = driver.sweep(
            &mut p,
            &crate::attacks::kaslr::KernelBaseFinder::candidate_range(),
        );
        assert!(sweep.refits >= 1, "drift must trigger a refit");
        assert_eq!(sweep.refits, driver.refits());
        let event = driver.events()[0];
        assert!(matches!(event.signal, DriftSignal::Dispersion { .. }));
        // The new σ model reflects the drifted environment.
        assert!(
            event.fit.sigma > 2.0,
            "refit σ should see the widened noise: {}",
            event.fit.sigma
        );
        let _ = truth;
    }

    #[test]
    fn min_filter_driver_escalates_under_a_step_and_not_when_quiet() {
        // Quiet: floors are constant → never escalate.
        let sys = LinuxSystem::build(LinuxConfig::seeded(11));
        let (mut m, _) = sys.into_machine(CpuProfile::zen3_ryzen5_5600x(), 11);
        m.set_noise(NoiseModel::none());
        let mut p = SimProber::new(m);
        let mut driver =
            RecalibratingMinFilter::new(AdaptiveMinFilter::default(), RecalConfig::default());
        let range = crate::attacks::kaslr::KernelBaseFinder::candidate_range();
        let (floors, probes) = driver.measure_range(&mut p, &range);
        assert_eq!(floors.len(), 512);
        assert!(probes > 0);
        assert_eq!(driver.escalations(), 0);

        // A σ step mid-scan escalates the budget.
        let sys = LinuxSystem::build(LinuxConfig::seeded(11));
        let (mut m, _) = sys.into_machine(CpuProfile::zen3_ryzen5_5600x(), 11);
        m.set_noise_profile(NoiseProfile::drift_with(
            NoiseProfile::Quiet,
            NoiseProfile::LaptopDvfs,
            1024,
            1024,
        ));
        let mut p = SimProber::new(m);
        let before = AdaptiveMinFilter::default();
        let mut driver = RecalibratingMinFilter::new(before, RecalConfig::default());
        let _ = driver.measure_range(&mut p, &range);
        assert!(driver.escalations() >= 1, "step must escalate the budget");
        assert!(driver.filter().max_probes > before.max_probes);
    }

    #[test]
    fn rescan_patches_only_the_current_call() {
        // Chunked driving (the Windows shape): state persists across
        // calls, and a refit in chunk 2 cannot touch chunk 1's output.
        let sys = LinuxSystem::build(LinuxConfig::seeded(44));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 44);
        m.set_noise_profile(NoiseProfile::drift_quiet_to_laptop());
        let mut p = SimProber::new(m);
        let fit = Threshold::calibrate_with(
            &mut p,
            truth.user.calibration,
            16,
            crate::CalibratorKind::NoiseAware,
        );
        let attack =
            PageTableAttack::new(fit.threshold).with_adaptive(AdaptiveSampler::from_fit(&fit));
        let mut driver = Recalibrating::new(attack, RecalConfig::default());
        let range = crate::attacks::kaslr::KernelBaseFinder::candidate_range();
        let mut total = 0u32;
        for chunk in range.chunks(128) {
            let sweep = driver.sweep(&mut p, &chunk);
            assert_eq!(sweep.mapped.len(), 128);
            total += sweep.refits;
        }
        assert_eq!(total, driver.refits());
        assert!(driver.refits() >= 1);
    }

    #[test]
    fn sweep_slice_and_range_agree() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(7));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 7);
        m.set_noise(NoiseModel::none());
        let mut p = SimProber::new(m);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let range = AddrRange::new(addr(0), 0x20_0000, 64);
        let attack = PageTableAttack::new(th);
        let a = Recalibrating::new(attack, RecalConfig::default()).sweep(&mut p, &range);
        let b = Recalibrating::new(attack, RecalConfig::default()).sweep(&mut p, &range.to_vec());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.mapped, b.mapped);
        assert_eq!(a.probes, b.probes);
        let _ = OpKind::Load;
    }
}
