//! Kernel-module detection and identification (§IV-C, Fig. 5).
//!
//! Probes all 16384 4 KiB-aligned candidates of the module area,
//! extracts mapped runs (modules are separated by unmapped guard
//! pages), and classifies each run by correlating its size against the
//! `/proc/modules` database — unique sizes identify their module.

use avx_mmu::VirtAddr;
use avx_os::linux::{LoadedModule, MODULE_ALIGN, MODULE_REGION_START, MODULE_SLOTS};
use avx_os::modules::ModuleSpec;

use crate::adaptive::AdaptiveSampler;
use crate::calibrate::Threshold;
use crate::decision::{ConfirmConfig, Confirmer};
use crate::primitives::{PageTableAttack, TileScratch};
use crate::prober::{ProbeStrategy, Prober};
use crate::recal::RecalConfig;
use crate::stats::Trials;
use crate::sweep::AddrRange;

/// Record-keeping overhead per probed page.
pub const PER_PAGE_OVERHEAD_CYCLES: u64 = 120;

/// One detected mapped run in the module area.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectedModule {
    /// First mapped page of the run.
    pub base: VirtAddr,
    /// Run length in bytes.
    pub size: u64,
}

/// Result of scanning the module area.
#[derive(Clone, Debug)]
pub struct ModuleScan {
    /// Per-page mapped classification (16384 entries).
    pub page_mapped: Vec<bool>,
    /// Extracted mapped runs.
    pub detected: Vec<DetectedModule>,
    /// Probing cycles.
    pub probing_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Raw probes the sweep issued (warm-ups included).
    pub probes: u64,
    /// In-scan recalibrations the closed loop performed.
    pub refits: u32,
}

/// The module-area scanner.
#[derive(Clone, Copy, Debug)]
pub struct ModuleScanner {
    attack: PageTableAttack,
    confirm: Option<ConfirmConfig>,
}

impl super::PageTableScan for ModuleScanner {
    fn knobs(&mut self) -> (&mut PageTableAttack, &mut Option<ConfirmConfig>) {
        (&mut self.attack, &mut self.confirm)
    }
}

impl ModuleScanner {
    /// Builds a scanner; uses a min-of-2 strategy because a single spike
    /// would otherwise split a module into two runs.
    #[must_use]
    pub fn new(threshold: Threshold) -> Self {
        let mut attack = PageTableAttack::new(threshold);
        attack.strategy = ProbeStrategy::MinOf(2);
        Self {
            attack,
            confirm: None,
        }
    }

    /// Re-tests each detected run's anchor page through the
    /// confirmation decision layer ([`crate::decision`]): phantom
    /// single-page runs from background false positives are dropped
    /// instead of entering the size-correlation database.
    #[must_use]
    pub fn with_confirmation(mut self, config: ConfirmConfig) -> Self {
        self.confirm = Some(config);
        self
    }

    /// Routes the 16384-page sweep through the adaptive engine; the
    /// SPRT's spike clamping subsumes the min-of-2 rationale (no single
    /// disturbed reading can split a module run).
    #[must_use]
    pub fn with_adaptive(mut self, sampler: AdaptiveSampler) -> Self {
        self.attack = self.attack.with_adaptive(sampler);
        self
    }

    /// Overrides the fixed probe strategy (default: min-of-2).
    #[must_use]
    pub fn with_strategy(mut self, strategy: ProbeStrategy) -> Self {
        self.attack.strategy = strategy;
        self
    }

    /// Runs the 16384-page sweep under the closed-loop recalibration
    /// driver ([`crate::recal::Recalibrating`]).
    #[must_use]
    pub fn with_recalibration(mut self, config: RecalConfig) -> Self {
        self.attack = self.attack.with_recalibration(config);
        self
    }

    /// The 16384-page candidate range of the §IV-C scan.
    #[must_use]
    pub fn candidate_range() -> AddrRange {
        AddrRange::new(
            VirtAddr::new_truncate(MODULE_REGION_START),
            MODULE_ALIGN,
            MODULE_SLOTS,
        )
    }

    /// Scans the whole module area through the batched probe pipeline.
    pub fn scan<P: Prober + ?Sized>(&self, p: &mut P) -> ModuleScan {
        self.scan_in(p, &mut TileScratch::default())
    }

    /// [`ModuleScanner::scan`] on caller-kept tile buffers, shared by
    /// the sweep and the confirmation re-visits.
    pub(crate) fn scan_in<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        scratch: &mut TileScratch,
    ) -> ModuleScan {
        let probing_before = p.probing_cycles();
        let total_before = p.total_cycles();
        let range = Self::candidate_range();
        let start = range.start;
        let sweep = self.attack.sweep_in(p, &range, scratch);
        p.spend(MODULE_SLOTS * PER_PAGE_OVERHEAD_CYCLES);
        let mut detected = extract_runs(&sweep.mapped, start);
        let mut confirm_probes = 0u64;
        if let Some(config) = self.confirm {
            let confirmer = Confirmer::new(&self.attack, config);
            detected.retain(|module| {
                let retest = confirmer.confirm_mapped_in(p, module.base, scratch);
                confirm_probes += retest.probes;
                retest.confirmed
            });
        }
        ModuleScan {
            page_mapped: sweep.mapped,
            detected,
            probing_cycles: p.probing_cycles() - probing_before,
            total_cycles: p.total_cycles() - total_before,
            probes: sweep.probes + confirm_probes,
            refits: sweep.refits,
        }
    }
}

/// Converts the page bitmap into base/size runs.
fn extract_runs(page_mapped: &[bool], start: VirtAddr) -> Vec<DetectedModule> {
    let mut runs = Vec::new();
    let mut run_start: Option<usize> = None;
    for (i, &mapped) in page_mapped.iter().enumerate() {
        match (mapped, run_start) {
            (true, None) => run_start = Some(i),
            (false, Some(s)) => {
                runs.push(DetectedModule {
                    base: start.wrapping_add(s as u64 * MODULE_ALIGN),
                    size: (i - s) as u64 * MODULE_ALIGN,
                });
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        runs.push(DetectedModule {
            base: start.wrapping_add(s as u64 * MODULE_ALIGN),
            size: (page_mapped.len() - s) as u64 * MODULE_ALIGN,
        });
    }
    runs
}

/// One identification: a detected run plus the database modules whose
/// size matches. A single candidate = identified (unique size).
#[derive(Clone, Debug)]
pub struct Identification<'a> {
    /// The detected run.
    pub detected: DetectedModule,
    /// All size-compatible database entries.
    pub candidates: Vec<&'a ModuleSpec>,
}

impl Identification<'_> {
    /// `Some(name)` when the size is unique in the database.
    #[must_use]
    pub fn unique_name(&self) -> Option<&'static str> {
        match self.candidates.as_slice() {
            [only] => Some(only.name),
            _ => None,
        }
    }
}

/// Size-correlation classifier over a `/proc/modules` database.
#[derive(Clone, Copy, Debug)]
pub struct ModuleClassifier<'a> {
    db: &'a [ModuleSpec],
}

impl<'a> ModuleClassifier<'a> {
    /// Builds a classifier over the database.
    #[must_use]
    pub fn new(db: &'a [ModuleSpec]) -> Self {
        Self { db }
    }

    /// Classifies every detected run.
    #[must_use]
    pub fn classify(&self, scan: &ModuleScan) -> Vec<Identification<'a>> {
        scan.detected
            .iter()
            .map(|&detected| Identification {
                detected,
                candidates: self.db.iter().filter(|m| m.size == detected.size).collect(),
            })
            .collect()
    }
}

/// Accuracy of one scan against ground truth.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModuleScore {
    /// True modules whose base and size were both detected exactly.
    pub exact: Trials,
    /// Unique-size true modules that were correctly named.
    pub identified: Trials,
}

/// Scores a scan + classification against the ground truth placement.
#[must_use]
pub fn score(
    scan: &ModuleScan,
    identifications: &[Identification<'_>],
    truth: &[LoadedModule],
) -> ModuleScore {
    let mut s = ModuleScore::default();
    for m in truth {
        let exact = scan
            .detected
            .iter()
            .any(|d| d.base == m.base && d.size == m.spec.size);
        s.exact.record(exact);
    }
    // Unique-size truth modules: is there an identification naming them
    // at the right base?
    for m in truth {
        let unique = truth.iter().filter(|o| o.spec.size == m.spec.size).count() == 1;
        if !unique {
            continue;
        }
        let named = identifications
            .iter()
            .any(|id| id.detected.base == m.base && id.unique_name() == Some(m.spec.name));
        s.identified.record(named);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use avx_os::linux::{LinuxConfig, LinuxSystem};
    use avx_os::modules::UBUNTU_18_04_MODULES;
    use avx_uarch::{CpuProfile, NoiseModel};

    fn run(seed: u64, noise: bool) -> (ModuleScan, Vec<LoadedModule>, SimProber) {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (mut m, truth) = sys.into_machine(CpuProfile::ice_lake_i7_1065g7(), seed);
        if !noise {
            m.set_noise(NoiseModel::none());
        }
        let mut p = SimProber::new(m);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let scan = ModuleScanner::new(th).scan(&mut p);
        (scan, truth.modules, p)
    }

    #[test]
    fn detects_all_modules_exactly_without_noise() {
        let (scan, truth, _) = run(1, false);
        assert_eq!(scan.detected.len(), truth.len());
        for (d, t) in scan.detected.iter().zip(truth.iter()) {
            assert_eq!(d.base, t.base, "{}", t.spec.name);
            assert_eq!(d.size, t.spec.size, "{}", t.spec.name);
        }
    }

    #[test]
    fn confirmed_scan_keeps_every_true_module() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(7));
        let (mut m, truth) = sys.into_machine(CpuProfile::ice_lake_i7_1065g7(), 7);
        m.set_noise(NoiseModel::none());
        let mut p = SimProber::new(m);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let plain = ModuleScanner::new(th).scan(&mut p);
        let confirmed = ModuleScanner::new(th)
            .with_confirmation(ConfirmConfig::default())
            .scan(&mut p);
        assert_eq!(confirmed.detected, plain.detected);
        assert_eq!(confirmed.detected.len(), truth.modules.len());
        assert!(confirmed.probes > plain.probes, "anchor re-tests billed");
    }

    #[test]
    fn classification_identifies_unique_sizes_only() {
        let (scan, truth, _) = run(2, false);
        let classifier = ModuleClassifier::new(&UBUNTU_18_04_MODULES);
        let ids = classifier.classify(&scan);
        let s = score(&scan, &ids, &truth);
        assert_eq!(s.exact.total, 125);
        assert_eq!(s.exact.successes, 125);
        assert_eq!(s.identified.total, 19, "19 unique-size modules");
        assert_eq!(s.identified.successes, 19);
    }

    #[test]
    fn fig5_names_resolved_correctly() {
        let (scan, truth, _) = run(3, false);
        let classifier = ModuleClassifier::new(&UBUNTU_18_04_MODULES);
        let ids = classifier.classify(&scan);
        // video/mac_hid/pinctrl_icelake are identified...
        for name in ["video", "mac_hid", "pinctrl_icelake"] {
            let t = truth.iter().find(|m| m.spec.name == name).unwrap();
            let id = ids
                .iter()
                .find(|id| id.detected.base == t.base)
                .expect("detected");
            assert_eq!(id.unique_name(), Some(name));
        }
        // ...autofs4/x_tables collide at 0xB000.
        let autofs = truth.iter().find(|m| m.spec.name == "autofs4").unwrap();
        let id = ids
            .iter()
            .find(|id| id.detected.base == autofs.base)
            .expect("detected");
        assert_eq!(id.unique_name(), None);
        assert!(id.candidates.len() >= 2);
    }

    #[test]
    fn accuracy_stays_high_under_noise() {
        let (scan, truth, _) = run(4, true);
        let classifier = ModuleClassifier::new(&UBUNTU_18_04_MODULES);
        let ids = classifier.classify(&scan);
        let s = score(&scan, &ids, &truth);
        assert!(
            s.exact.rate() > 0.97,
            "exact-detection accuracy {}",
            s.exact
        );
    }

    #[test]
    fn extract_runs_handles_edges() {
        let start = VirtAddr::new_truncate(MODULE_REGION_START);
        // Run at the very end of the bitmap.
        let mut pages = vec![false; 8];
        pages[6] = true;
        pages[7] = true;
        let runs = extract_runs(&pages, start);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].size, 2 * MODULE_ALIGN);
        // Adjacent runs separated by a single guard page.
        let pages = vec![true, false, true];
        let runs = extract_runs(&pages, start);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].base, start);
        assert_eq!(runs[1].base, start.wrapping_add(2 * MODULE_ALIGN));
    }

    #[test]
    fn runtime_accounting_present() {
        let (scan, _, _) = run(5, false);
        assert!(scan.probing_cycles > 0);
        assert!(scan.total_cycles > scan.probing_cycles);
        assert_eq!(
            scan.probes,
            avx_os::linux::MODULE_SLOTS
                * u64::from(ProbeStrategy::MinOf(2).probes_per_measurement())
        );
    }

    #[test]
    fn adaptive_module_scan_detects_exactly_with_fewer_probes() {
        use crate::adaptive::AdaptiveSampler;
        let sys = LinuxSystem::build(LinuxConfig::seeded(6));
        let (mut m, truth) = sys.into_machine(CpuProfile::ice_lake_i7_1065g7(), 6);
        m.set_noise(NoiseModel::none());
        let mut p = SimProber::new(m);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);

        let fixed = {
            let mut scanner = ModuleScanner::new(th);
            scanner.attack.strategy = ProbeStrategy::MinOf(8);
            scanner.scan(&mut p)
        };
        let adaptive = ModuleScanner::new(th)
            .with_adaptive(AdaptiveSampler::from_threshold(&th, 1.0))
            .scan(&mut p);
        assert_eq!(adaptive.page_mapped, fixed.page_mapped);
        assert_eq!(adaptive.detected.len(), truth.modules.len());
        for (d, t) in adaptive.detected.iter().zip(truth.modules.iter()) {
            assert_eq!(d.base, t.base, "{}", t.spec.name);
            assert_eq!(d.size, t.spec.size, "{}", t.spec.name);
        }
        assert!(
            adaptive.probes * 2 <= fixed.probes,
            "adaptive {} vs fixed {}",
            adaptive.probes,
            fixed.probes
        );
    }
}
