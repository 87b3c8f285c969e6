//! Determinism guarantees: identical seeds → identical layouts,
//! traces and attack outcomes (the property that makes every number
//! `repro` prints reproducible).

use avx_aslr::channel::{KernelBaseFinder, Prober, SimProber, Threshold};
use avx_aslr::os::linux::{LinuxConfig, LinuxSystem};
use avx_aslr::os::windows::{WindowsConfig, WindowsSystem};
use avx_aslr::uarch::{CpuProfile, MaskedOp, OpKind};

fn full_run(seed: u64) -> (Option<u64>, Vec<u64>, u64) {
    let system = LinuxSystem::build(LinuxConfig::seeded(seed));
    let (machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    let scan = KernelBaseFinder::new(th).scan(&mut p);
    (
        scan.base.map(|b| b.as_u64()),
        scan.samples,
        p.total_cycles(),
    )
}

#[test]
fn identical_seeds_identical_everything() {
    let a = full_run(314);
    let b = full_run(314);
    assert_eq!(a.0, b.0, "same base");
    assert_eq!(a.1, b.1, "same 512-sample trace, noise included");
    assert_eq!(a.2, b.2, "same cycle accounting");
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = full_run(1);
    let b = full_run(2);
    assert!(a.0 != b.0 || a.1 != b.1, "different layouts or traces");
}

#[test]
fn layout_seed_and_machine_seed_are_independent() {
    // Same layout, different probe-noise seed: same base, different trace.
    let system = LinuxSystem::build(LinuxConfig::seeded(50));
    let truth_base = system.truth().kernel_base;
    let (m1, _) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 111);
    let system = LinuxSystem::build(LinuxConfig::seeded(50));
    let (m2, _) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 222);

    let run = |machine| {
        let mut p = SimProber::new(machine);
        let th = Threshold::calibrate(
            &mut p,
            LinuxSystem::build(LinuxConfig::seeded(50))
                .truth()
                .user
                .calibration,
            16,
        );
        KernelBaseFinder::new(th).scan(&mut p)
    };
    let s1 = run(m1);
    let s2 = run(m2);
    assert_eq!(s1.base.unwrap(), truth_base);
    assert_eq!(s1.base, s2.base, "layout identical → same base");
    assert_ne!(s1.samples, s2.samples, "noise seeds differ → traces differ");
}

#[test]
fn windows_layout_deterministic() {
    let a = WindowsSystem::build(WindowsConfig {
        seed: 9,
        ..WindowsConfig::default()
    });
    let b = WindowsSystem::build(WindowsConfig {
        seed: 9,
        ..WindowsConfig::default()
    });
    assert_eq!(a.truth().kernel_base, b.truth().kernel_base);
    assert_eq!(a.truth().entry, b.truth().entry);
}

#[test]
fn single_probe_stream_is_reproducible() {
    let mk = || {
        let system = LinuxSystem::build(LinuxConfig::seeded(3));
        let (machine, truth) = system.into_machine(CpuProfile::ice_lake_i7_1065g7(), 77);
        (machine, truth)
    };
    let (mut m1, truth) = mk();
    let (mut m2, _) = mk();
    let probe = MaskedOp::probe_load(truth.kernel_base);
    for i in 0..200 {
        assert_eq!(
            m1.execute(probe).cycles,
            m2.execute(probe).cycles,
            "probe {i}"
        );
    }
    let _ = OpKind::Load;
}
