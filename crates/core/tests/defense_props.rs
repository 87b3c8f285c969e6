//! Property suite for the defense axis (`avx_channel::defense`).
//!
//! Pins the four arena invariants:
//! 1. `DefenseKind::None` is bit-identical to the historical
//!    no-defense path — probe values *and* probe counts, both
//!    observables regimes (invariant 12: `Defense::None` is silent).
//! 2. Re-randomization is deterministic: same seed + trigger schedule
//!    ⇒ bit-identical `CampaignRow`.
//! 3. Masked translation is total: every probe of a masked space
//!    measures and classifies; guard pages, huge pages, split slots
//!    and region boundaries never panic.
//! 4. Mid-scan re-randomization never violates the
//!    `AddrRange::tiles()` probe-order contract: the attacker's sweep
//!    schedule is the attacker's, no matter what the victim does.

use avx_channel::attacks::campaign::{CampaignConfig, CampaignRow, Scenario};
use avx_channel::defense::{
    Defense, DefenseKind, DefenseRegion, Rerandomizing, DEFAULT_RERANDOMIZE_PERIOD,
};
use avx_channel::schedule::ScheduleKind;
use avx_channel::{AddrRange, KernelBaseFinder, Prober, SimProber, Threshold};
use avx_mmu::VirtAddr;
use avx_os::linux::{
    LinuxConfig, LinuxSystem, KASLR_ALIGN, KERNEL_SLOTS, KERNEL_TEXT_REGION_END,
    KERNEL_TEXT_REGION_START, MODULE_REGION_END,
};
use avx_uarch::{CpuProfile, ObservablesVersion, OpKind};

fn profile() -> CpuProfile {
    CpuProfile::alder_lake_i5_12400f()
}

fn assert_rows_bit_identical(a: &CampaignRow, b: &CampaignRow, what: &str) {
    assert_eq!(
        a.probing_seconds.to_bits(),
        b.probing_seconds.to_bits(),
        "{what}: probing seconds moved"
    );
    assert_eq!(
        a.total_seconds.to_bits(),
        b.total_seconds.to_bits(),
        "{what}: total seconds moved"
    );
    assert_eq!(a.probes, b.probes, "{what}: probe count moved");
    assert_eq!(
        a.probes_per_address.to_bits(),
        b.probes_per_address.to_bits(),
        "{what}: probes/address moved"
    );
    assert_eq!(
        a.accuracy.successes, b.accuracy.successes,
        "{what}: successes moved"
    );
    assert_eq!(a.accuracy.total, b.accuracy.total, "{what}: records moved");
}

// ---------------------------------------------------------------------
// Property 1: Defense::None is the bit-exact historical path.

#[test]
fn none_campaign_rows_are_bit_identical_in_both_regimes() {
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        for scenario in [Scenario::KernelBase, Scenario::Kpti] {
            let base = CampaignConfig::new(3, 41).with_observables(observables);
            let plain = scenario.campaign(&profile(), base);
            let defended = scenario.campaign(&profile(), base.with_defense(DefenseKind::None));
            assert_rows_bit_identical(
                &plain,
                &defended,
                &format!("{scenario}/{}", observables.name()),
            );
            assert_eq!(plain.defense, "none");
            assert_eq!(defended.defense, "none");
        }
    }
}

#[test]
fn none_machine_probe_values_are_bit_identical_in_both_regimes() {
    // Below the campaign: the raw per-probe cycle stream of an
    // installed-None machine equals the untouched machine's, value for
    // value, under both observables regimes.
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        let sys = LinuxSystem::build(LinuxConfig::seeded(42));
        let (mut plain, truth) = sys.machine(profile(), 42);
        let (mut defended, _) = sys.machine(profile(), 42);
        plain.set_observables(observables);
        defended.set_observables(observables);
        DefenseKind::None.install(
            &mut defended,
            &[
                DefenseRegion::linux_kernel_text(),
                DefenseRegion::linux_modules(),
            ],
            42,
        );
        assert!(defended.defense().is_none(), "None never installs");

        let addrs: Vec<VirtAddr> = (0..64)
            .map(|s| truth.kernel_base.wrapping_add(s * KASLR_ALIGN))
            .chain(std::iter::once(truth.user.calibration))
            .collect();
        let a = plain.execute_batch(OpKind::Load, &addrs);
        let b = defended.execute_batch(OpKind::Load, &addrs);
        assert_eq!(a, b, "probe stream moved under {}", observables.name());
    }
}

// ---------------------------------------------------------------------
// Property 2: re-randomization is deterministic.

#[test]
fn rerandomizing_campaign_rows_are_deterministic() {
    let config = CampaignConfig::new(4, 7).with_defense(DefenseKind::Rerandomizing);
    let first = Scenario::KernelBase.campaign(&profile(), config);
    let second = Scenario::KernelBase.campaign(&profile(), config);
    assert_eq!(first.defense, "rerandomizing");
    assert_rows_bit_identical(&first, &second, "rerandomizing replay");
}

#[test]
fn rerandomizing_determinism_holds_under_v2_observables() {
    let config = CampaignConfig::new(3, 9)
        .with_defense(DefenseKind::Rerandomizing)
        .with_observables(ObservablesVersion::V2);
    let first = Scenario::KernelBase.campaign(&profile(), config);
    let second = Scenario::KernelBase.campaign(&profile(), config);
    assert_rows_bit_identical(&first, &second, "rerandomizing v2 replay");
}

// ---------------------------------------------------------------------
// Property 3: masked translation is total.

#[test]
fn rerandomizing_modules_survive_module_churn_in_both_regimes() {
    // Module churn maps fresh module pages into the region the module
    // image re-slides within; a slide drawn onto a filled slot must
    // leave the image in place instead of panicking mid-move.
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        let config = CampaignConfig::new(6, 3)
            .with_defense(DefenseKind::Rerandomizing)
            .with_schedule(ScheduleKind::ModuleChurn)
            .with_observables(observables);
        let first = Scenario::Modules.campaign(&profile(), config);
        let second = Scenario::Modules.campaign(&profile(), config);
        assert_eq!(first.defense, "rerandomizing");
        assert_eq!(first.schedule, "module-churn");
        assert_rows_bit_identical(&first, &second, &format!("{} replay", observables.name()));
    }
}

#[test]
fn masked_translation_is_total_on_layout_edges() {
    let sys = LinuxSystem::build(LinuxConfig::seeded(13));
    let (mut machine, truth) = sys.machine(profile(), 13);
    DefenseKind::MaskedTranslation.install(
        &mut machine,
        &[
            DefenseRegion::linux_kernel_text(),
            DefenseRegion::linux_modules(),
        ],
        13,
    );

    // Every flavour of edge the Linux layout can produce: region
    // boundaries, 2 MiB huge-page interiors, 4 KiB split-slot pages,
    // module guard gaps, and addresses just outside the masked regions.
    let split_slot = truth.kernel_base.wrapping_add(8 * KASLR_ALIGN + 0x3000);
    let first_module = truth.modules.first().expect("modules loaded");
    let guard_gap = first_module.end();
    let mut edges = vec![
        VirtAddr::new_truncate(KERNEL_TEXT_REGION_START),
        VirtAddr::new_truncate(KERNEL_TEXT_REGION_END - 0x1000),
        VirtAddr::new_truncate(KERNEL_TEXT_REGION_START - 0x1000),
        VirtAddr::new_truncate(MODULE_REGION_END - 0x1000),
        truth.kernel_base,
        truth.kernel_base.wrapping_add(0x1234),
        split_slot,
        first_module.base,
        guard_gap,
        truth.user.calibration,
    ];
    for slot in 0..KERNEL_SLOTS {
        edges.push(VirtAddr::new_truncate(
            KERNEL_TEXT_REGION_START + slot * KASLR_ALIGN,
        ));
    }

    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    for &addr in &edges {
        let cycles = p.probe(OpKind::Load, addr);
        assert!(cycles > 0, "probe of {addr} must measure");
        // Classification is total: every measurement lands on one side
        // of the boundary.
        let _mapped = (cycles as f64) <= th.boundary();
    }

    // The mask itself is involutive and total on the same edge set.
    let defense = p.machine().defense().expect("mask installed").clone();
    for &addr in &edges {
        let once = defense.masked(addr);
        assert_eq!(defense.masked(once), addr, "involution at {addr}");
    }
}

// ---------------------------------------------------------------------
// Property 4: mid-scan re-randomization never bends the probe order.

/// A transparent prober that records every probed address in issue
/// order — the instrument for the `AddrRange::tiles()` contract.
struct RecordingProber {
    inner: SimProber,
    log: Vec<VirtAddr>,
}

impl Prober for RecordingProber {
    fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64 {
        self.log.push(addr);
        self.inner.probe(kind, addr)
    }

    fn probe_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        self.log.extend_from_slice(addrs);
        self.inner.probe_batch_into(kind, addrs, out);
    }

    fn evict(&mut self, addr: VirtAddr) {
        self.inner.evict(addr);
    }

    fn spend(&mut self, cycles: u64) {
        self.inner.spend(cycles);
    }

    fn probes_issued(&self) -> u64 {
        self.inner.probes_issued()
    }

    fn probing_cycles(&self) -> u64 {
        self.inner.probing_cycles()
    }

    fn total_cycles(&self) -> u64 {
        self.inner.total_cycles()
    }

    fn clock_ghz(&self) -> f64 {
        self.inner.clock_ghz()
    }
}

#[test]
fn mid_scan_rerandomization_preserves_tile_probe_order() {
    let sys = LinuxSystem::build(LinuxConfig::seeded(33));
    let (mut machine, truth) = sys.machine(profile(), 33);
    // An aggressive trigger: fires many times inside the 512-slot scan.
    Rerandomizing { period: 128 }.install(&mut machine, &[DefenseRegion::linux_kernel_text()], 33);
    let mut p = RecordingProber {
        inner: SimProber::new(machine),
        log: Vec::new(),
    };
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    p.log.clear();

    let scan = KernelBaseFinder::new(th).scan(&mut p);
    assert_eq!(scan.mapped.len(), KERNEL_SLOTS as usize, "scan completed");
    assert!(
        p.inner.machine().rerandomizations() >= 2,
        "the victim re-randomized mid-scan ({} events)",
        p.inner.machine().rerandomizations()
    );

    // The attacker's sweep schedule is exactly the tile order of the
    // kernel region — first occurrences in the log match tile-flattened
    // candidates one for one, re-randomization or not.
    let expected: Vec<VirtAddr> = AddrRange::new(
        VirtAddr::new_truncate(KERNEL_TEXT_REGION_START),
        KASLR_ALIGN,
        KERNEL_SLOTS,
    )
    .tiles()
    .flat_map(|tile| tile.to_vec())
    .collect();
    let mut seen = std::collections::HashSet::new();
    let first_occurrences: Vec<VirtAddr> = p
        .log
        .iter()
        .copied()
        .filter(|a| {
            let v = a.as_u64();
            (KERNEL_TEXT_REGION_START..KERNEL_TEXT_REGION_END).contains(&v) && seen.insert(*a)
        })
        .collect();
    assert_eq!(first_occurrences, expected, "probe order bent");
}

// ---------------------------------------------------------------------
// The defended rows themselves stay deterministic enough to pin: the
// default trigger period is part of the public contract.

#[test]
fn default_trigger_period_is_pinned() {
    assert_eq!(DEFAULT_RERANDOMIZE_PERIOD, 384);
    assert_eq!(
        Rerandomizing::default().period,
        DEFAULT_RERANDOMIZE_PERIOD,
        "default Rerandomizing uses the pinned trigger"
    );
}
