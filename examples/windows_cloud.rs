//! Windows 10 KASLR/KVAS breaks and the three cloud scenarios
//! (paper §IV-G and §IV-H).
//!
//! ```text
//! cargo run --release --example windows_cloud
//! ```

use avx_channel::attacks::campaign::CampaignConfig;
use avx_channel::attacks::cloud::run_scenario;
use avx_channel::attacks::windows::kernel_base_from_shadow;
use avx_channel::report::fmt_seconds;
use avx_channel::{Prober, SimProber, Threshold, WindowsKaslrAttack};
use avx_mmu::VirtAddr;
use avx_os::cloud::CloudScenario;
use avx_os::windows::{WindowsConfig, WindowsSystem, WindowsVersion, WIN_KERNEL_SLOTS};
use avx_uarch::CpuProfile;

fn main() {
    windows_18bit();
    windows_kvas();
    clouds();
}

/// §IV-G: 18 bits of Windows KASLR entropy from a 2 MiB-granular scan.
fn windows_18bit() {
    println!("== Windows 10: 18-bit region scan ({WIN_KERNEL_SLOTS} candidates) ==");
    let system = WindowsSystem::build(WindowsConfig::default());
    let (machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 21);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user_scratch, 16);

    let attack = WindowsKaslrAttack::new(th);
    let scan = attack.find_kernel_region(&mut p);
    println!(
        "kernel region (5 × 2 MiB pages) at {} — slot {} of {WIN_KERNEL_SLOTS} — in {}",
        scan.base.expect("found"),
        scan.slot.expect("found"),
        fmt_seconds(scan.total_cycles as f64 / (p.clock_ghz() * 1e9))
    );
    assert_eq!(scan.base, Some(truth.kernel_base));
    println!("=> 18 bits of KASLR entropy derandomized.");

    // §IV-G continues: "break the remaining 9 bits of entropy" — the
    // 4 KiB-randomized entry point — with the TLB attack while the
    // victim performs syscalls.
    let entry = attack
        .refine_entry_point(&mut p, scan.base.unwrap(), |p| {
            avx_os::windows::perform_syscall(p.machine_mut(), &truth)
        })
        .expect("entry page located");
    println!("entry page via TLB attack: {entry} (truth {})", truth.entry);
    assert_eq!(entry, truth.entry.align_down(4096));
    println!("=> all 27 bits broken.\n");
}

/// §IV-G: KVAS-enabled Windows 10 1709 — find the shadow entry pages.
fn windows_kvas() {
    println!("== Windows 10 1709 with KVAS (Meltdown mitigation) ==");
    let system = WindowsSystem::build(WindowsConfig {
        version: WindowsVersion::V1709,
        kvas: true,
        fixed_slot: None,
        seed: 22,
    });
    let (machine, truth) = system.into_machine(CpuProfile::skylake_i7_6600u(), 22);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user_scratch, 16);

    let attack = WindowsKaslrAttack::new(th);
    // A 4 KiB-granular sweep; windowed here (the full 512 GiB sweep is
    // the same loop — 8 s on the paper's hardware).
    let window = VirtAddr::new_truncate(truth.kernel_base.as_u64() - 2048 * 4096);
    let shadow = attack
        .find_kvas_shadow(&mut p, window, 4096)
        .expect("three consecutive 4 KiB pages found");
    let base = kernel_base_from_shadow(shadow);
    println!("KiSystemCall64Shadow pages at {shadow}");
    println!(
        "kernel base = shadow - 0x298000 = {base} (truth {})",
        truth.kernel_base
    );
    assert_eq!(base, truth.kernel_base);
    println!("=> KASLR broken despite KVAS.\n");
}

/// §IV-H: Amazon EC2, Google GCE and Microsoft Azure presets.
fn clouds() {
    println!("== cloud guests ==");
    for scenario in CloudScenario::all(1234) {
        let report = run_scenario(&scenario, 23, &CampaignConfig::default());
        println!("{report}");
        assert!(report.base_correct);
    }
    println!("=> all three cloud guests derandomized.");
}
