//! The batch paths' O(1) non-present fast path on the real victim
//! layouts the attacks sweep: the Windows region scan, the Linux
//! kernel-text and module-area sweeps, and the KPTI trampoline scan.
//! Each runs through the three-machine oracle of
//! `crates/uarch/tests/support/fast_path.rs` (batch vs scalar vs the
//! reference walker) on every oracle profile.

#[path = "../../uarch/tests/support/fast_path.rs"]
mod fast_path;

use avx_mmu::{AddressSpace, VirtAddr};
use avx_os::linux::{
    LinuxConfig, LinuxSystem, KASLR_ALIGN, KERNEL_TEXT_REGION_START, MODULE_ALIGN,
    MODULE_REGION_START,
};
use avx_os::windows::{WindowsConfig, WindowsSystem, WIN_KASLR_ALIGN, WIN_KERNEL_REGION_START};
use avx_uarch::OpKind;
use fast_path::{run_of, Oracle, Step};

/// Runs `sweeps` (load and store passes of each) and then a seeded
/// script around `sites` on every oracle profile.
fn check(label: &str, space: &AddressSpace, sweeps: &[Vec<VirtAddr>], sites: &[u64]) {
    for (name, profile) in fast_path::profiles() {
        let mut oracle = Oracle::new(&profile, space, 0x5eed);
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
    );
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
    );
}
