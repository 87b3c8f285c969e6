//! Failure injection: the attacks under hostile measurement conditions
//! and against defense-hardened layouts.

use avx_aslr::channel::defense::point_checks::evaluate_flare;
use avx_aslr::channel::{KernelBaseFinder, ProbeStrategy, Prober, SimProber, Threshold};
use avx_aslr::os::linux::{LinuxConfig, LinuxSystem};
use avx_aslr::os::ExecutionContext;
use avx_aslr::uarch::{CpuProfile, NoiseModel};

/// A spike storm (two orders of magnitude above realistic interrupt
/// rates) degrades the single-shot attack but min-filtered probing
/// still recovers the base.
#[test]
fn spike_storm_defeated_by_min_filtering() {
    let system = LinuxSystem::build(LinuxConfig::seeded(60));
    let (mut machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 60);
    machine.set_noise(NoiseModel::new(1.0, 0.25, (200.0, 2000.0)));
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 64);
    let robust = KernelBaseFinder::new(th).with_strategy(ProbeStrategy::MinOf(6));
    let scan = robust.scan(&mut p);
    assert_eq!(
        scan.base,
        Some(truth.kernel_base),
        "min-of-6 survives 25% spikes"
    );
}

/// A wildly miscalibrated threshold fails closed: everything looks
/// unmapped (threshold too low) or the base lands on slot 0 (too high),
/// never a silent plausible-but-wrong result in between.
#[test]
fn miscalibrated_thresholds_fail_predictably() {
    let system = LinuxSystem::build(LinuxConfig::seeded(61));
    let (mut machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 61);
    machine.set_noise(NoiseModel::none());
    let mut p = SimProber::new(machine);

    // Too low: nothing classifies as mapped.
    let low = Threshold::new(20.0, 0.0);
    let scan = KernelBaseFinder::new(low).scan(&mut p);
    assert_eq!(scan.base, None);
    assert!(scan.mapped.iter().all(|&m| !m));

    // Too high: everything classifies as mapped → base = slot 0 ≠ truth
    // (unless the slide is literally 0).
    let high = Threshold::new(1_000.0, 0.0);
    let scan = KernelBaseFinder::new(high).scan(&mut p);
    assert!(scan.mapped.iter().all(|&m| m));
    if truth.slide_slots != 0 {
        assert_ne!(scan.base, Some(truth.kernel_base));
    }
}

/// The bimodal fallback calibration recovers a usable threshold from
/// one scan's raw samples when no calibration page exists (the
/// Windows-guest bootstrap). The EM re-fit replaced the historical
/// k-means split here; it additionally recovers the environment σ, so
/// the bootstrapped attack can feed an adaptive sampler too.
#[test]
fn bimodal_fallback_calibration_works() {
    let system = LinuxSystem::build(LinuxConfig::seeded(62));
    let (machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 62);
    let mut p = SimProber::new(machine);
    // First pass with an arbitrary threshold just to collect samples.
    let bootstrap = KernelBaseFinder::new(Threshold::new(0.0, 0.0)).scan(&mut p);
    let fit = Threshold::refit_bimodal(&bootstrap.samples).expect("bimodal");
    assert!(fit.sigma > 0.0, "EM re-fit measures the environment");
    let scan = KernelBaseFinder::new(fit.threshold).scan(&mut p);
    assert_eq!(scan.base, Some(truth.kernel_base));
}

/// FLARE blinds the page-table attack completely (the defended
/// direction must actually defend).
#[test]
fn flare_blinds_page_table_attack() {
    let eval = evaluate_flare(CpuProfile::alder_lake_i5_12400f(), 63);
    assert!(eval.page_table_defeated);
    assert!(eval.page_table_mapped_slots >= 500, "dummies everywhere");
    // And the documented bypass still works.
    assert!(eval.tlb_correct);
}

/// SGX1's degraded timer (4× noise) hurts but does not break the
/// coarse-grained mapped/unmapped classification.
#[test]
fn sgx1_degraded_timer_still_classifies() {
    let system = LinuxSystem::build(LinuxConfig::seeded(64));
    let (machine, truth) = system.into_machine(CpuProfile::ice_lake_i7_1065g7(), 64);
    let mut p = SimProber::with_context(machine, ExecutionContext::sgx1());
    assert!(!p.context().has_precise_timer());
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 64);
    let finder = KernelBaseFinder::new(th).with_strategy(ProbeStrategy::MinOf(8));
    let scan = finder.scan(&mut p);
    assert_eq!(scan.base, Some(truth.kernel_base));
}

/// Probing must never advance past the canonical hole into a panic:
/// scan helpers touch the full candidate ranges without crashing.
#[test]
fn scans_of_empty_systems_return_none_gracefully() {
    // A machine with no kernel at all (everything unmapped).
    let mut space = avx_aslr::mmu::AddressSpace::new();
    let calib = avx_aslr::mmu::VirtAddr::new_truncate(0x5555_5555_4000);
    space
        .map(
            calib,
            avx_aslr::mmu::PageSize::Size4K,
            avx_aslr::mmu::PteFlags::user_rw(),
        )
        .unwrap();
    let machine = avx_aslr::uarch::Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 1);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, calib, 16);
    let scan = KernelBaseFinder::new(th).scan(&mut p);
    assert_eq!(scan.base, None);
    assert_eq!(scan.samples.len(), 512);
    assert!(p.total_cycles() > 0);
}
