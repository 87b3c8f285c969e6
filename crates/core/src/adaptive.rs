//! Adaptive sequential probing: spend probes where the signal is weak.
//!
//! The paper's pipeline burns a *fixed* repetition budget per candidate
//! address (probe twice keep the second, or min-of-N), sized for the
//! noisiest environment it must survive. NetSpectre's observation is
//! that the probe count a reliable decision actually needs varies by
//! orders of magnitude with the noise floor — so this module adds an
//! early-stopping decision layer on top of the batched probe pipeline:
//!
//! * [`AdaptiveSampler`] wraps the [`SequentialLlr`] accumulator from
//!   [`crate::stats`] and drives the mapped/unmapped scans (P2): every
//!   address keeps its own log-likelihood ratio and drops out of the
//!   sweep the moment its classification is statistically settled.
//! * [`AdaptiveMinFilter`] is the sequential analogue of the min-filter
//!   used by the AMD walk-level scans (P3): it stops re-probing an
//!   address once its running minimum has stopped improving.
//! * [`Sampling`] is the campaign-facing policy switch between the
//!   paper's fixed-budget strategies and the adaptive engine.
//!
//! Both run through [`crate::Prober::probe_batch`] in the same
//! [`crate::ProbeStrategy::BATCH_TILE`]-sized tiles as the fixed path,
//! so TLB-warmth semantics are identical; only the *number* of probes
//! per address changes. Under [`avx_uarch::NoiseModel::none`] the
//! adaptive decisions are bit-exact with the fixed-threshold decisions
//! (a property test pins this).
//!
//! # Example: an adaptive sweep over kernel candidates
//!
//! ```
//! use avx_channel::adaptive::AdaptiveSampler;
//! use avx_channel::{SimProber, Threshold};
//! use avx_os::linux::{LinuxConfig, LinuxSystem};
//! use avx_uarch::{CpuProfile, OpKind};
//!
//! let sys = LinuxSystem::build(LinuxConfig::seeded(3));
//! let (machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 3);
//! let mut p = SimProber::new(machine);
//!
//! // Calibrate, then let each address buy only the evidence it needs.
//! let fit = Threshold::calibrate_with(
//!     &mut p,
//!     truth.user.calibration,
//!     16,
//!     avx_channel::CalibratorKind::NoiseAware,
//! );
//! let sampler = AdaptiveSampler::from_fit(&fit);
//! let addrs = [truth.kernel_base, truth.kernel_base.wrapping_add(0x4000_0000)];
//! let batch = sampler.classify(&mut p, OpKind::Load, &addrs);
//! assert_eq!(batch.mapped, vec![true, false]);
//! assert!(batch.probes_per_address() <= 9.0, "hard budget respected");
//! ```

use avx_mmu::VirtAddr;
use avx_uarch::OpKind;

use crate::calibrate::{CalibrationFit, Threshold};
use crate::prober::{ProbeStrategy, Prober};
use crate::stats::{SeqDecision, SequentialLlr};
use crate::sweep::TileSource;

/// Probe budgets and the confidence target of the sequential test.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AdaptiveConfig {
    /// Samples required before a decision may be taken (≥ 1).
    pub min_probes: u32,
    /// Hard per-address budget of measurement samples; exhausting it
    /// forces the decision from the accumulated evidence.
    pub max_probes: u32,
    /// Target per-address error rate ε (SPRT boundaries at
    /// `±ln((1−ε)/ε)`).
    pub error_rate: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            min_probes: 1,
            max_probes: 8,
            error_rate: 1e-4,
        }
    }
}

impl AdaptiveConfig {
    /// Budget-capped config with the default confidence target.
    #[must_use]
    pub fn with_max_probes(max_probes: u32) -> Self {
        Self {
            max_probes: max_probes.max(1),
            ..Self::default()
        }
    }
}

/// How a sweep spends its probe budget.
///
/// The three policies tell the noise-robustness story of the adaptive
/// engine: [`Sampling::Fixed`] is the paper's quiet-host-tuned schedule
/// (cheap, degrades in noise), [`Sampling::FixedBudget`] is the fixed
/// schedule sized to survive the noisy profiles (robust, pays the full
/// width everywhere), and [`Sampling::Adaptive`] matches the robust
/// budget's accuracy while only spending it where the evidence demands.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Sampling {
    /// Fixed per-address repetition (the paper's §IV methodology).
    #[default]
    Fixed,
    /// Fixed min-of-N repetition at a noise-robust width — what you
    /// must pay *everywhere* to keep accuracy without early stopping.
    FixedBudget(u8),
    /// SPRT-based early stopping with the given budgets.
    Adaptive(AdaptiveConfig),
}

impl Sampling {
    /// Adaptive sampling with default budgets.
    #[must_use]
    pub fn adaptive() -> Self {
        Sampling::Adaptive(AdaptiveConfig::default())
    }

    /// The noise-robust fixed comparator with the same worst-case width
    /// as the default adaptive budget.
    #[must_use]
    pub fn fixed_budget() -> Self {
        Sampling::FixedBudget(AdaptiveConfig::default().max_probes.min(255) as u8)
    }

    /// `true` for the adaptive variant.
    #[must_use]
    pub const fn is_adaptive(&self) -> bool {
        matches!(self, Sampling::Adaptive(_))
    }

    /// Short label for reports.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Sampling::Fixed => "fixed",
            Sampling::FixedBudget(_) => "fixed-budget",
            Sampling::Adaptive(_) => "adaptive",
        }
    }

    /// The fixed probe strategy this policy imposes on mapped/unmapped
    /// sweeps, when it does ([`Sampling::FixedBudget`] only).
    #[must_use]
    pub fn strategy_override(&self) -> Option<ProbeStrategy> {
        match *self {
            Sampling::FixedBudget(n) => Some(ProbeStrategy::MinOf(n.max(1))),
            _ => None,
        }
    }

    /// The sampler this policy induces for a calibrated threshold in an
    /// environment with Gaussian noise `sigma`; `None` for the fixed
    /// policy.
    #[must_use]
    pub fn sampler(&self, threshold: &Threshold, sigma: f64) -> Option<AdaptiveSampler> {
        match *self {
            Sampling::Fixed | Sampling::FixedBudget(_) => None,
            Sampling::Adaptive(config) => {
                Some(AdaptiveSampler::from_threshold(threshold, sigma).with_config(config))
            }
        }
    }

    /// The sampler this policy induces for a full [`CalibrationFit`]:
    /// hypotheses from the fitted threshold, likelihood σ from the
    /// fit's own dispersion estimate — the no-oracle path, where the
    /// attacker models the noise it *measured* during calibration
    /// instead of being told [`avx_uarch::NoiseProfile::effective_sigma`].
    /// `None` for the fixed policies.
    #[must_use]
    pub fn sampler_from_fit(&self, fit: &CalibrationFit) -> Option<AdaptiveSampler> {
        match *self {
            Sampling::Fixed | Sampling::FixedBudget(_) => None,
            Sampling::Adaptive(config) => Some(AdaptiveSampler::from_fit(fit).with_config(config)),
        }
    }

    /// The one place the estimator-dependent σ policy lives: under
    /// [`crate::CalibratorKind::Legacy`] the SPRT keeps the historical
    /// oracle σ (`oracle_sigma`, typically
    /// [`avx_uarch::NoiseProfile::effective_sigma`] — preserving
    /// bit-exact golden rows); any robust estimator switches to the
    /// fit's own measured dispersion ([`Sampling::sampler_from_fit`]),
    /// so threshold *and* noise model both come from the attacker's
    /// measurements. Campaign, cloud and user-space paths must all
    /// route through here rather than re-implementing the match.
    #[must_use]
    pub fn sampler_for_calibration(
        &self,
        calibrator: crate::CalibratorKind,
        fit: &CalibrationFit,
        oracle_sigma: f64,
    ) -> Option<AdaptiveSampler> {
        match calibrator {
            crate::CalibratorKind::Legacy => self.sampler(&fit.threshold, oracle_sigma),
            _ => self.sampler_from_fit(fit),
        }
    }

    /// The early-stopping min-filter this policy induces for the
    /// walk-level (P3) scans; `None` for the fixed policies.
    #[must_use]
    pub fn min_filter(&self) -> Option<AdaptiveMinFilter> {
        match *self {
            Sampling::Fixed | Sampling::FixedBudget(_) => None,
            Sampling::Adaptive(config) => Some(AdaptiveMinFilter {
                max_probes: config.max_probes.min(u32::from(u8::MAX)) as u8,
                ..AdaptiveMinFilter::default()
            }),
        }
    }
}

/// Result of one adaptive sweep over a candidate set.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveBatch {
    /// Per-address mapped/unmapped decision, input order.
    pub mapped: Vec<bool>,
    /// Representative latency per address (minimum measurement sample —
    /// the spike-free floor, comparable to the fixed path's series).
    pub samples: Vec<u64>,
    /// Raw probes issued per address, warm-up included.
    pub probes: Vec<u32>,
    /// `true` where the SPRT crossed a boundary; `false` where the
    /// budget ran out and the decision was forced from the evidence
    /// sign.
    pub settled: Vec<bool>,
}

impl AdaptiveBatch {
    /// An empty batch with room for `n` addresses.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            mapped: Vec::with_capacity(n),
            samples: Vec::with_capacity(n),
            probes: Vec::with_capacity(n),
            settled: Vec::with_capacity(n),
        }
    }

    /// Empties the batch, keeping its buffers for reuse.
    pub(crate) fn clear(&mut self) {
        self.mapped.clear();
        self.samples.clear();
        self.probes.clear();
        self.settled.clear();
    }

    /// Total raw probes the sweep issued.
    #[must_use]
    pub fn total_probes(&self) -> u64 {
        self.probes.iter().map(|&n| u64::from(n)).sum()
    }

    /// Mean probes per address (0 for an empty sweep).
    #[must_use]
    pub fn probes_per_address(&self) -> f64 {
        if self.probes.is_empty() {
            0.0
        } else {
            self.total_probes() as f64 / self.probes.len() as f64
        }
    }
}

/// The SPRT-driven mapped/unmapped sweep engine.
///
/// Built from a calibrated [`Threshold`]: the mapped hypothesis mean is
/// the calibrated reference level and the unmapped hypothesis sits one
/// full acceptance gap above it, so the SPRT midpoint coincides with
/// [`Threshold::boundary`] and a forced decision equals the fixed
/// threshold decision.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveSampler {
    /// Mean of the mapped (fast) hypothesis, cycles.
    pub mapped_mean: f64,
    /// Mean of the unmapped (slow) hypothesis, cycles.
    pub unmapped_mean: f64,
    /// Gaussian σ of the environment the likelihoods assume.
    pub sigma: f64,
    /// Budgets and confidence target.
    pub config: AdaptiveConfig,
}

impl AdaptiveSampler {
    /// Builds the sampler around a calibrated threshold.
    ///
    /// `sigma` is the Gaussian noise level of the environment (e.g.
    /// [`avx_uarch::NoiseProfile::effective_sigma`]); larger σ makes
    /// the test demand more evidence per address automatically.
    ///
    /// The hypotheses are centered on [`Threshold::boundary`] — also
    /// when a degenerate margin forces the half-gap onto its floor —
    /// so a forced decision always equals the fixed threshold decision.
    #[must_use]
    pub fn from_threshold(threshold: &Threshold, sigma: f64) -> Self {
        let half_gap = threshold.margin.max(1.0);
        Self {
            mapped_mean: threshold.boundary() - half_gap,
            unmapped_mean: threshold.boundary() + half_gap,
            sigma,
            config: AdaptiveConfig::default(),
        }
    }

    /// Builds the sampler from a [`CalibrationFit`]: hypotheses around
    /// the fitted threshold, likelihood σ taken from the fit's own
    /// (MAD- or EM-based) dispersion estimate, floored at 1 cycle so a
    /// degenerate calibration series cannot make the SPRT overconfident.
    #[must_use]
    pub fn from_fit(fit: &CalibrationFit) -> Self {
        Self::from_threshold(&fit.threshold, fit.sigma.max(1.0))
    }

    /// Replaces the budgets/confidence target.
    #[must_use]
    pub fn with_config(mut self, config: AdaptiveConfig) -> Self {
        self.config = config;
        self
    }

    /// A fresh per-address accumulator.
    #[must_use]
    pub fn accumulator(&self) -> SequentialLlr {
        SequentialLlr::new(
            self.mapped_mean,
            self.unmapped_mean,
            self.sigma,
            self.config.error_rate,
        )
    }

    /// Sweeps `candidates` (a slice or an [`crate::AddrRange`]),
    /// classifying each with as few probes as its evidence allows.
    ///
    /// Works in [`ProbeStrategy::BATCH_TILE`]-sized tiles exactly like
    /// the fixed batched path: one warm-up pass per tile (translations
    /// resident for the measurement rounds), then measurement rounds
    /// over the tile's still-undecided addresses until every address
    /// has crossed an SPRT boundary or spent its budget.
    pub fn classify<P: Prober + ?Sized, C: TileSource + ?Sized>(
        &self,
        p: &mut P,
        kind: OpKind,
        candidates: &C,
    ) -> AdaptiveBatch {
        let mut out = AdaptiveBatch::with_capacity(candidates.candidate_count());
        let mut scratch = AdaptiveScratch::default();
        candidates.for_each_tile(|tile| self.classify_tile(p, kind, tile, &mut out, &mut scratch));
        out
    }

    /// One warm-up + SPRT measurement rounds over a single tile,
    /// appending the per-address calls to `out`. All intermediate state
    /// lives in `scratch`, so a tile allocates nothing once the buffers
    /// have grown; a sweep call that builds its own scratch still
    /// allocates them once per call (a trial's sweeps and re-visits
    /// share one through [`crate::primitives::TileScratch`]).
    pub(crate) fn classify_tile<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        kind: OpKind,
        tile: &[VirtAddr],
        out: &mut AdaptiveBatch,
        s: &mut AdaptiveScratch,
    ) {
        let max_probes = self.config.max_probes.max(1);

        // Warm-up pass: same TLB-priming role as the fixed path's
        // first probe; its reading is discarded.
        s.warm.clear();
        p.probe_batch_into(kind, tile, &mut s.warm);

        s.acc.clear();
        s.acc.resize(tile.len(), self.accumulator());
        s.floor.clear();
        s.floor.resize(tile.len(), u64::MAX);
        s.probes.clear();
        s.probes.resize(tile.len(), 1u32);
        s.decision.clear();
        s.decision.resize(tile.len(), SeqDecision::Undecided);
        s.live.clear();
        s.live.extend(0..tile.len());

        for round in 1..=max_probes {
            s.subset.clear();
            s.subset.extend(s.live.iter().map(|&i| tile[i]));
            s.samples.clear();
            p.probe_batch_into(kind, &s.subset, &mut s.samples);
            for (&i, &sample) in s.live.iter().zip(&s.samples) {
                s.probes[i] += 1;
                s.floor[i] = s.floor[i].min(sample);
                let d = s.acc[i].push(sample);
                if round >= self.config.min_probes {
                    s.decision[i] = d;
                }
            }
            let decision = &s.decision;
            s.live.retain(|&i| decision[i] == SeqDecision::Undecided);
            if s.live.is_empty() {
                break;
            }
        }

        for i in 0..tile.len() {
            let settled = s.decision[i] != SeqDecision::Undecided;
            let call = if settled {
                s.decision[i]
            } else {
                s.acc[i].forced()
            };
            out.mapped.push(call == SeqDecision::Mapped);
            out.samples.push(s.floor[i]);
            out.probes.push(s.probes[i]);
            out.settled.push(settled);
        }
    }
}

/// Reusable per-tile state of [`AdaptiveSampler::classify_tile`]. Every
/// buffer is cleared before use, so one instance can serve any number
/// of tiles, samplers and calls. Its eight buffers are allocated by the
/// first tiles that grow them: per tile the loop is allocation-free,
/// per sweep call only when the caller keeps the scratch.
#[derive(Clone, Debug, Default)]
pub(crate) struct AdaptiveScratch {
    warm: Vec<u64>,
    acc: Vec<SequentialLlr>,
    floor: Vec<u64>,
    probes: Vec<u32>,
    decision: Vec<SeqDecision>,
    live: Vec<usize>,
    subset: Vec<VirtAddr>,
    samples: Vec<u64>,
}

/// Result of one adaptive min-filter sweep.
#[derive(Clone, Debug, Default)]
pub struct MinFilterBatch {
    /// Per-address spike-filtered minimum, input order.
    pub mins: Vec<u64>,
    /// Raw probes issued per address, warm-up included.
    pub probes: Vec<u32>,
}

impl MinFilterBatch {
    /// An empty batch with room for `n` addresses.
    #[must_use]
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            mins: Vec::with_capacity(n),
            probes: Vec::with_capacity(n),
        }
    }

    /// Empties the batch, keeping its buffers for reuse.
    pub(crate) fn clear(&mut self) {
        self.mins.clear();
        self.probes.clear();
    }

    /// Total raw probes the sweep issued.
    #[must_use]
    pub fn total_probes(&self) -> u64 {
        self.probes.iter().map(|&n| u64::from(n)).sum()
    }
}

/// Early-stopping min-filter for the walk-level scans (P3, the AMD
/// path).
///
/// The fixed pipeline takes the minimum of a full `repeats`-wide window
/// because interrupt spikes only ever *add* latency. But the minimum
/// converges long before the window is spent on a quiet machine: this
/// filter keeps probing an address only until its running minimum has
/// failed to improve (by more than `epsilon` cycles) for
/// `stable_rounds` consecutive samples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdaptiveMinFilter {
    /// Hard per-address budget of measurement samples.
    pub max_probes: u8,
    /// Consecutive non-improving samples that settle the minimum.
    pub stable_rounds: u8,
    /// Improvement below this many cycles counts as "not improving"
    /// (absorbs sub-cycle Gaussian wiggle around the floor).
    pub epsilon: u64,
}

impl Default for AdaptiveMinFilter {
    fn default() -> Self {
        Self {
            max_probes: 8,
            stable_rounds: 2,
            epsilon: 1,
        }
    }
}

impl AdaptiveMinFilter {
    /// Sweeps `candidates` (a slice or an [`crate::AddrRange`]) with
    /// the early-stopping min-filter, tile by tile.
    pub fn measure<P: Prober + ?Sized, C: TileSource + ?Sized>(
        &self,
        p: &mut P,
        kind: OpKind,
        candidates: &C,
    ) -> MinFilterBatch {
        let mut out = MinFilterBatch::with_capacity(candidates.candidate_count());
        let mut scratch = MinFilterScratch::default();
        candidates.for_each_tile(|tile| self.measure_tile(p, kind, tile, &mut out, &mut scratch));
        out
    }

    /// One warm-up + early-stopping rounds over a single tile,
    /// appending the per-address floors and probe counts to `out`. All
    /// intermediate state lives in `s`, so a tile loop allocates
    /// nothing.
    pub(crate) fn measure_tile<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        kind: OpKind,
        tile: &[VirtAddr],
        out: &mut MinFilterBatch,
        s: &mut MinFilterScratch,
    ) {
        let max_probes = self.max_probes.max(1);
        let stable_target = self.stable_rounds.max(1);

        s.warm.clear();
        p.probe_batch_into(kind, tile, &mut s.warm); // warm-up, discarded
        s.min.clear();
        s.min.resize(tile.len(), u64::MAX);
        s.stable.clear();
        s.stable.resize(tile.len(), 0u8);
        s.probes.clear();
        s.probes.resize(tile.len(), 1u32);
        s.live.clear();
        s.live.extend(0..tile.len());

        for _round in 1..=max_probes {
            s.subset.clear();
            s.subset.extend(s.live.iter().map(|&i| tile[i]));
            s.samples.clear();
            p.probe_batch_into(kind, &s.subset, &mut s.samples);
            for (&i, &sample) in s.live.iter().zip(&s.samples) {
                s.probes[i] += 1;
                if sample.saturating_add(self.epsilon) >= s.min[i] {
                    s.stable[i] = s.stable[i].saturating_add(1);
                } else {
                    s.stable[i] = 0;
                }
                s.min[i] = s.min[i].min(sample);
            }
            let stable = &s.stable;
            s.live.retain(|&i| stable[i] < stable_target);
            if s.live.is_empty() {
                break;
            }
        }

        for i in 0..tile.len() {
            out.mins.push(s.min[i]);
            out.probes.push(s.probes[i]);
        }
    }
}

/// Reusable per-tile state of [`AdaptiveMinFilter::measure_tile`].
/// Every buffer is cleared before use.
#[derive(Clone, Debug, Default)]
pub(crate) struct MinFilterScratch {
    warm: Vec<u64>,
    min: Vec<u64>,
    stable: Vec<u8>,
    probes: Vec<u32>,
    live: Vec<usize>,
    subset: Vec<VirtAddr>,
    samples: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use avx_mmu::{AddressSpace, PageSize, PteFlags};
    use avx_os::linux::{LinuxConfig, LinuxSystem};
    use avx_uarch::{CpuProfile, Machine, NoiseModel};

    fn quiet_linux(seed: u64) -> (SimProber, avx_os::LinuxTruth) {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        m.set_noise(NoiseModel::none());
        (SimProber::new(m), truth)
    }

    fn calibrated(p: &mut SimProber, truth: &avx_os::LinuxTruth) -> Threshold {
        Threshold::calibrate(p, truth.user.calibration, 8)
    }

    fn kernel_range() -> Vec<VirtAddr> {
        crate::attacks::kaslr::KernelBaseFinder::candidate_range().to_vec()
    }

    #[test]
    fn sampler_midpoint_matches_threshold_boundary() {
        let th = Threshold::new(93.0, 7.0);
        let s = AdaptiveSampler::from_threshold(&th, 1.0);
        assert_eq!(s.accumulator().midpoint(), th.boundary());
        // Degenerate margins hit the half-gap floor but must stay
        // centered on the boundary, or forced decisions would diverge
        // from the fixed rule.
        for margin in [0.0, 0.4, 0.9] {
            let th = Threshold::new(93.0, margin);
            let s = AdaptiveSampler::from_threshold(&th, 1.0);
            assert_eq!(s.accumulator().midpoint(), th.boundary(), "margin {margin}");
            assert!(s.unmapped_mean > s.mapped_mean);
        }
    }

    #[test]
    fn quiet_sweep_matches_fixed_classification_with_fewer_probes() {
        let (mut p, truth) = quiet_linux(3);
        let th = calibrated(&mut p, &truth);
        let addrs = kernel_range();

        // Fixed comparator: the noise-robust budget the adaptive engine
        // is allowed to spend (warm-up + 8 samples).
        let (mut p_fixed, _) = quiet_linux(3);
        let fixed_samples =
            ProbeStrategy::MinOf(8).measure_batch(&mut p_fixed, OpKind::Load, &addrs);
        let fixed_mapped: Vec<bool> = fixed_samples.iter().map(|&s| th.is_mapped(s)).collect();
        let fixed_probes =
            addrs.len() as u64 * u64::from(ProbeStrategy::MinOf(8).probes_per_measurement());

        let sampler = AdaptiveSampler::from_threshold(&th, 1.0);
        let batch = sampler.classify(&mut p, OpKind::Load, &addrs);
        assert_eq!(batch.mapped, fixed_mapped, "same classification");
        assert!(
            batch.total_probes() * 2 <= fixed_probes,
            "≥2x fewer probes: adaptive {} vs fixed {fixed_probes}",
            batch.total_probes()
        );
        assert!(
            batch.settled.iter().all(|&s| s),
            "quiet: everything settles"
        );
    }

    #[test]
    fn budget_is_hard_capped_and_forced_decisions_flagged() {
        // A sampler whose hypotheses sit miles away from the actual
        // readings never crosses a boundary: every address must stop at
        // the budget and be flagged unsettled.
        let (mut p, _) = quiet_linux(5);
        let th = Threshold::new(1e6, 1.0);
        let sampler = AdaptiveSampler::from_threshold(&th, 1e5)
            .with_config(AdaptiveConfig::with_max_probes(3));
        let addrs: Vec<VirtAddr> = kernel_range().into_iter().take(48).collect();
        let batch = sampler.classify(&mut p, OpKind::Load, &addrs);
        for (i, &n) in batch.probes.iter().enumerate() {
            assert_eq!(n, 1 + 3, "addr {i}: warm-up + full budget");
            assert!(!batch.settled[i]);
            // All readings are far below the hypothetical means → the
            // evidence sign says mapped.
            assert!(batch.mapped[i]);
        }
    }

    #[test]
    fn probe_accounting_matches_prober_counter() {
        let (mut p, truth) = quiet_linux(7);
        let th = calibrated(&mut p, &truth);
        let sampler = AdaptiveSampler::from_threshold(&th, 1.0);
        let addrs: Vec<VirtAddr> = kernel_range().into_iter().take(64).collect();
        let before = p.probes_issued();
        let batch = sampler.classify(&mut p, OpKind::Load, &addrs);
        assert_eq!(p.probes_issued() - before, batch.total_probes());
    }

    #[test]
    fn adaptive_min_filter_finds_the_floor_under_spikes() {
        let mut space = AddressSpace::new();
        let kernel = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
        space
            .map(kernel, PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        let mut m = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 41);
        m.set_noise(NoiseModel::new(0.0, 0.4, (500.0, 600.0)));
        let mut p = SimProber::new(m);
        let filter = AdaptiveMinFilter {
            max_probes: 12,
            ..AdaptiveMinFilter::default()
        };
        let batch = filter.measure(&mut p, OpKind::Load, &[kernel]);
        assert_eq!(batch.mins, vec![93], "spikes filtered to the floor");
    }

    #[test]
    fn adaptive_min_filter_stops_early_on_quiet_machines() {
        let (mut p, _) = quiet_linux(11);
        let addrs: Vec<VirtAddr> = kernel_range().into_iter().take(128).collect();
        let filter = AdaptiveMinFilter::default();
        let batch = filter.measure(&mut p, OpKind::Load, &addrs);
        // Noiseless: round 1 sets the min, rounds 2–3 confirm it.
        for &n in &batch.probes {
            assert_eq!(n, 1 + 3, "warm-up + settle in stable_rounds+1");
        }
        let fixed =
            addrs.len() as u64 * u64::from(ProbeStrategy::MinOf(8).probes_per_measurement());
        assert!(batch.total_probes() * 2 <= fixed);
    }

    #[test]
    fn empty_sweeps_are_empty() {
        let (mut p, truth) = quiet_linux(13);
        let th = calibrated(&mut p, &truth);
        let sampler = AdaptiveSampler::from_threshold(&th, 1.0);
        let batch = sampler.classify(&mut p, OpKind::Load, &[] as &[VirtAddr]);
        assert!(batch.mapped.is_empty());
        assert_eq!(batch.probes_per_address(), 0.0);
        let filter = AdaptiveMinFilter::default();
        assert!(filter
            .measure(&mut p, OpKind::Load, &[] as &[VirtAddr])
            .mins
            .is_empty());
    }

    #[test]
    fn sampling_policy_builds_the_right_engines() {
        let th = Threshold::new(93.0, 7.0);
        assert!(Sampling::Fixed.sampler(&th, 1.0).is_none());
        assert!(Sampling::Fixed.min_filter().is_none());
        assert!(!Sampling::Fixed.is_adaptive());
        assert_eq!(Sampling::Fixed.name(), "fixed");

        let budget = Sampling::fixed_budget();
        assert_eq!(budget, Sampling::FixedBudget(8));
        assert_eq!(budget.name(), "fixed-budget");
        assert_eq!(budget.strategy_override(), Some(ProbeStrategy::MinOf(8)));
        assert!(budget.sampler(&th, 1.0).is_none());
        assert!(budget.min_filter().is_none());

        let adaptive = Sampling::adaptive();
        assert!(adaptive.is_adaptive());
        assert_eq!(adaptive.name(), "adaptive");
        assert!(adaptive.strategy_override().is_none());
        let sampler = adaptive.sampler(&th, 2.5).unwrap();
        assert_eq!(sampler.sigma, 2.5);
        assert_eq!(sampler.mapped_mean, 93.0);
        assert_eq!(sampler.unmapped_mean, 107.0);
        let filter = adaptive.min_filter().unwrap();
        assert_eq!(filter.max_probes, 8);
    }
}
