//! The batch paths' O(1) non-present fast path on the real victim
//! layouts the attacks sweep: the Windows region scan, the Linux
//! kernel-text and module-area sweeps, and the KPTI trampoline scan.
//! Each runs through the three-machine oracle of
//! `crates/uarch/tests/support/fast_path.rs` (batch vs scalar vs the
//! reference walker) on every oracle profile. The same layouts, one of
//! them churned by module events, pin the shadow index's live-entry
//! build to the per-entry reference build of
//! `crates/mmu/tests/support/shadow_reference.rs`.

#[path = "../../uarch/tests/support/fast_path.rs"]
mod fast_path;
#[path = "../../mmu/tests/support/shadow_reference.rs"]
mod shadow_reference;

use avx_mmu::{AddressSpace, VirtAddr};
use avx_os::linux::{
    LinuxConfig, LinuxSystem, KASLR_ALIGN, KERNEL_TEXT_REGION_END, KERNEL_TEXT_REGION_START,
    MODULE_ALIGN, MODULE_REGION_END, MODULE_REGION_START,
};
use avx_os::windows::{WindowsConfig, WindowsSystem, WIN_KASLR_ALIGN, WIN_KERNEL_REGION_START};
use avx_uarch::sched::{SchedEvent, SchedRegion, VictimSchedule};
use avx_uarch::OpKind;
use fast_path::{run_of, Oracle, Step};
use shadow_reference::assert_build_matches_reference;

/// Runs `sweeps` (load and store passes of each) and then a seeded
/// script around `sites` on every oracle profile, with `victim`
/// installed on the oracle's three machines.
fn check(
    label: &str,
    space: &AddressSpace,
    sweeps: &[Vec<VirtAddr>],
    sites: &[u64],
    victim: &dyn Fn(&mut avx_uarch::Machine),
) {
    for (name, profile) in fast_path::profiles() {
        let mut oracle = Oracle::new(&profile, space, 0x5eed, victim);
        let mut script: Vec<Step> = sweeps
            .iter()
            .flat_map(|addrs| {
                [
                    Step::Probe(OpKind::Load, addrs.clone()),
                    Step::Probe(OpKind::Store, addrs.clone()),
                ]
            })
            .collect();
        script.extend(fast_path::random_script(0x5eed, sites, 24));
        oracle.run(&format!("{label}, {name}"), &script);
    }
}

#[test]
fn windows_region_scan() {
    let system = WindowsSystem::build(WindowsConfig {
        seed: 3,
        ..WindowsConfig::default()
    });
    let base = system.truth().kernel_base.as_u64();
    let sweeps = [
        run_of(WIN_KERNEL_REGION_START, WIN_KASLR_ALIGN, 2048),
        run_of(base - 16 * WIN_KASLR_ALIGN, WIN_KASLR_ALIGN, 33),
    ];
    check(
        "Windows",
        system.space(),
        &sweeps,
        &[WIN_KERNEL_REGION_START, base, system.truth().entry.as_u64()],
        &|_| {},
    );
}

#[test]
fn linux_kernel_text_and_module_area() {
    let system = LinuxSystem::build(LinuxConfig::seeded(5));
    let truth = system.truth();
    let module = truth.modules[0].base.as_u64();
    let sweeps = [
        run_of(KERNEL_TEXT_REGION_START, KASLR_ALIGN, 512),
        run_of(MODULE_REGION_START, MODULE_ALIGN, 2048),
        run_of(module - 64 * MODULE_ALIGN, MODULE_ALIGN, 256),
    ];
    check(
        "Linux",
        system.space(),
        &sweeps,
        &[
            truth.kernel_base.as_u64(),
            module,
            truth.user.calibration.as_u64(),
        ],
        &|_| {},
    );
}

#[test]
fn linux_sweeps_under_schedules_and_defenses() {
    // Module churn lands in the swept part of the module area, the
    // defenses protect the kernel text. The script's map/unmap sites
    // stay outside the churned region, which the schedule owns.
    let system = LinuxSystem::build(LinuxConfig::seeded(5));
    let truth = system.truth();
    let swept_modules = (
        MODULE_REGION_START,
        MODULE_REGION_START + 512 * MODULE_ALIGN,
    );
    let sweeps = [
        run_of(KERNEL_TEXT_REGION_START, KASLR_ALIGN, 512),
        run_of(MODULE_REGION_START, MODULE_ALIGN, 512),
    ];
    let sites = [truth.kernel_base.as_u64(), truth.user.calibration.as_u64()];
    for (name, victim) in fast_path::victims(
        swept_modules,
        (KERNEL_TEXT_REGION_START, KERNEL_TEXT_REGION_END),
        0x5eed,
    ) {
        check(
            &format!("Linux, {name}"),
            system.space(),
            &sweeps,
            &sites,
            &victim,
        );
    }
}

#[test]
fn kpti_trampoline_scan() {
    let system = LinuxSystem::build(LinuxConfig {
        kpti: true,
        ..LinuxConfig::seeded(9)
    });
    let truth = system.truth();
    let trampoline = truth.trampoline.expect("KPTI maps a trampoline").as_u64();
    let sweeps = [
        run_of(KERNEL_TEXT_REGION_START, KASLR_ALIGN, 512),
        run_of(trampoline - 8 * 0x1000, 0x1000, 24),
    ];
    check(
        "KPTI",
        system.space(),
        &sweeps,
        &[trampoline, truth.kernel_base.as_u64()],
        &|_| {},
    );
}

#[test]
fn shadow_build_matches_the_per_entry_build_on_fixtures_and_module_churn() {
    let windows = WindowsSystem::build(WindowsConfig {
        seed: 3,
        ..WindowsConfig::default()
    });
    let kpti = LinuxSystem::build(LinuxConfig {
        kpti: true,
        ..LinuxConfig::seeded(9)
    });
    assert_build_matches_reference(windows.space(), "Windows");
    assert_build_matches_reference(kpti.space(), "KPTI");

    // Module churn on the Linux layout, through the schedule's own
    // `map`/`unmap` path: loads of 1–4 pages, with unloads in between.
    let linux = LinuxSystem::build(LinuxConfig::seeded(5));
    let mut space = linux.space().clone();
    assert_build_matches_reference(&space, "Linux");
    let mut sched = VictimSchedule::new(1, 11).with_module_region(SchedRegion::new(
        MODULE_REGION_START,
        MODULE_REGION_END,
        MODULE_ALIGN,
    ));
    for i in 0..48u64 {
        let event = if i % 3 == 2 {
            SchedEvent::ModuleUnload
        } else {
            SchedEvent::ModuleLoad { pages: 1 + i % 4 }
        };
        sched.apply_space_event(event, &mut space);
        assert_build_matches_reference(&space, &format!("Linux, churn event {i}: {event}"));
    }
    assert!(sched.loaded_modules() > 0, "the churn left modules loaded");
}
