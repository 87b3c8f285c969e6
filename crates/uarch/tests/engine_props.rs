//! Property tests of the execution engine's timing and counter
//! semantics — the invariants the attack's correctness rests on.

use proptest::prelude::*;

use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
use avx_uarch::{CpuProfile, ElemWidth, Event, Machine, Mask, MaskedOp, NoiseModel, OpKind};

#[path = "support/fast_path.rs"]
mod fast_path;

const USER_M: u64 = 0x5555_5555_4000;
const KERNEL_M: u64 = 0xffff_ffff_a1e0_0000;
const KERNEL_U: u64 = 0xffff_ffff_a1a0_0000;

fn machine(profile: CpuProfile, seed: u64) -> Machine {
    let mut space = AddressSpace::new();
    space
        .map(
            VirtAddr::new_truncate(USER_M),
            PageSize::Size4K,
            PteFlags::user_rw(),
        )
        .unwrap();
    space
        .map(
            VirtAddr::new_truncate(KERNEL_M),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
    let mut m = Machine::new(profile, space, seed);
    m.set_noise(NoiseModel::none());
    m
}

fn steady(m: &mut Machine, op: MaskedOp) -> u64 {
    let _ = m.execute(op);
    m.execute(op).cycles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ordering P2 depends on holds on every Intel profile:
    /// user-mapped < kernel-mapped < kernel-unmapped (steady state).
    #[test]
    fn p2_ordering_holds_on_all_intel_profiles(idx in 0usize..7) {
        let profiles = [
            CpuProfile::ice_lake_i7_1065g7(),
            CpuProfile::coffee_lake_i9_9900(),
            CpuProfile::alder_lake_i5_12400f(),
            CpuProfile::skylake_i7_6600u(),
            CpuProfile::xeon_e5_2676(),
            CpuProfile::xeon_cascade_lake(),
            CpuProfile::xeon_platinum_8171m(),
        ];
        let mut m = machine(profiles[idx].clone(), 1);
        let user = steady(&mut m, MaskedOp::probe_load(VirtAddr::new_truncate(USER_M)));
        let mapped = steady(&mut m, MaskedOp::probe_load(VirtAddr::new_truncate(KERNEL_M)));
        let unmapped = steady(&mut m, MaskedOp::probe_load(VirtAddr::new_truncate(KERNEL_U)));
        prop_assert!(user < mapped, "{user} < {mapped}");
        prop_assert!(mapped < unmapped, "{mapped} < {unmapped}");
    }

    /// P6 holds on every profile: the store assist is cheaper than the
    /// load assist by 16–18 cycles.
    #[test]
    fn p6_delta_in_band_on_all_profiles(idx in 0usize..8) {
        let profiles = CpuProfile::all_evaluated();
        let mut m = machine(profiles[idx].clone(), 2);
        let load = steady(&mut m, MaskedOp::probe_load(VirtAddr::new_truncate(KERNEL_M)));
        let store = steady(&mut m, MaskedOp::probe_store(VirtAddr::new_truncate(KERNEL_M)));
        let delta = load as i64 - store as i64;
        prop_assert!((16..=18).contains(&delta), "delta {delta}");
    }

    /// Walk counters agree with outcome reporting for any probe mix.
    #[test]
    fn pmc_walks_match_outcomes(ops in prop::collection::vec(any::<(bool, bool)>(), 1..60)) {
        let mut m = machine(CpuProfile::alder_lake_i5_12400f(), 3);
        for (store, kernel_unmapped) in ops {
            let addr = if kernel_unmapped { KERNEL_U } else { KERNEL_M };
            let op = if store {
                MaskedOp::probe_store(VirtAddr::new_truncate(addr))
            } else {
                MaskedOp::probe_load(VirtAddr::new_truncate(addr))
            };
            let snap = m.pmc().snapshot();
            let out = m.execute(op);
            let d = m.pmc().delta(&snap);
            let event = if store {
                Event::DtlbStoreWalkCompleted
            } else {
                Event::DtlbLoadWalkCompleted
            };
            prop_assert_eq!(d.get(event), u64::from(out.walks_completed));
            prop_assert_eq!(d.get(Event::AssistsAny) > 0, out.assist || out.dirty_assist);
        }
    }

    /// Suppressed probes never change architectural state: no dirty
    /// bits appear anywhere from any sequence of zero-mask probes.
    #[test]
    fn zero_mask_probes_leave_no_dirty_bits(addrs in prop::collection::vec(any::<u16>(), 1..80)) {
        let mut m = machine(CpuProfile::ice_lake_i7_1065g7(), 4);
        for a in addrs {
            let addr = VirtAddr::new_truncate(KERNEL_M + u64::from(a) * 4096);
            let _ = m.execute(MaskedOp::probe_store(addr));
        }
        // The kernel page's dirty bit must still be clear.
        let region = m.space().lookup(VirtAddr::new_truncate(KERNEL_M)).unwrap();
        prop_assert!(!region.flags.is_dirty());
    }

    /// The measured latency after any prefix of operations stays within
    /// the model's envelope (base .. cold-walk + assist + extras): no
    /// state combination produces nonsense.
    #[test]
    fn latency_envelope(seq in prop::collection::vec(any::<(u8, bool)>(), 1..100)) {
        let profile = CpuProfile::alder_lake_i5_12400f();
        let t = profile.timing;
        let hi = t.base_load
            + t.assist_load
            + 2.0 * (4.0 * t.walk_step_cold + t.level_extra_pml4)
            + t.user_nonpresent_load_extra
            + 1.0;
        let mut m = machine(profile, 5);
        for (page, evict) in seq {
            let addr = VirtAddr::new_truncate(KERNEL_M + u64::from(page % 64) * 4096);
            if evict {
                m.evict_translation(addr);
            }
            let out = m.execute(MaskedOp::probe_load(addr));
            prop_assert!(out.fault.is_none());
            prop_assert!((out.cycles as f64) >= t.base_load, "{}", out.cycles);
            prop_assert!((out.cycles as f64) <= hi, "{} > {hi}", out.cycles);
        }
    }

    /// Masked stores with at least one unmasked lane on a writable page
    /// set the dirty bit exactly once and get fast afterwards.
    #[test]
    fn dirty_transition_is_monotone(mask_bits in 1u8..=0xff) {
        let mut m = machine(CpuProfile::alder_lake_i5_12400f(), 6);
        let op = MaskedOp {
            kind: OpKind::Store,
            addr: VirtAddr::new_truncate(USER_M),
            mask: Mask::new(mask_bits, 8),
            width: ElemWidth::Dword,
        };
        let first = m.execute(op);
        prop_assert!(first.dirty_assist);
        let second = m.execute(op);
        prop_assert!(!second.dirty_assist, "D already set");
        prop_assert!(second.cycles < first.cycles);
    }

    /// Noise never produces sub-floor measurements: with spikes-only
    /// noise the minimum over many probes equals the deterministic value.
    #[test]
    fn spikes_are_strictly_positive(seed in any::<u64>()) {
        let mut space = AddressSpace::new();
        space
            .map(
                VirtAddr::new_truncate(KERNEL_M),
                PageSize::Size2M,
                PteFlags::kernel_rx(),
            )
            .unwrap();
        let mut m = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, seed);
        m.set_noise(NoiseModel::new(0.0, 0.4, (100.0, 3000.0)));
        let probe = MaskedOp::probe_load(VirtAddr::new_truncate(KERNEL_M));
        let _ = m.execute(probe);
        let min = (0..64).map(|_| m.execute(probe).cycles).min().unwrap();
        prop_assert_eq!(min, 93);
    }

    /// The shadow-index fast path is observably identical to the
    /// reference walker at machine level: cycles, clock, PMCs, faults
    /// and the evolving PTE state agree under randomized interleavings
    /// of probes, batches, mutations, INVLPG and evictions — with the
    /// full noise model consuming the same RNG stream on both paths.
    #[test]
    fn shadow_fast_path_is_bit_exact_with_reference_walker(
        seed in any::<u64>(),
        profile_idx in 0usize..3,
    ) {
        let profiles = [
            CpuProfile::alder_lake_i5_12400f(), // Intel: PSC + retries
            CpuProfile::zen3_ryzen5_5600x(),    // AMD: PSC-bypass kernel walks
            CpuProfile::coffee_lake_i9_9900(),
        ];
        let build = || {
            let mut space = AddressSpace::new();
            space
                .map(
                    VirtAddr::new_truncate(USER_M),
                    PageSize::Size4K,
                    PteFlags::user_rw(),
                )
                .unwrap();
            space
                .map(
                    VirtAddr::new_truncate(KERNEL_M),
                    PageSize::Size2M,
                    PteFlags::kernel_rx(),
                )
                .unwrap();
            space
                .map(
                    VirtAddr::new_truncate(0xffff_ffff_c012_3000),
                    PageSize::Size4K,
                    PteFlags::kernel_rx(),
                )
                .unwrap();
            Machine::new(profiles[profile_idx].clone(), space, seed ^ 0x5ade)
        };
        let mut fast = build();
        let mut slow = build();
        slow.set_shadow_enabled(false);

        // A small deterministic op schedule derived from the seed.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let sites = [
            USER_M,
            USER_M + 0x1000,
            KERNEL_M,
            KERNEL_U,
            0xffff_ffff_c012_3000,
            0x1234_5678_9000,
        ];
        for step in 0..96 {
            let addr = VirtAddr::new_truncate(
                sites[(next() % sites.len() as u64) as usize]
                    .wrapping_add((next() % 4) * 0x1000),
            );
            match next() % 8 {
                0 => {
                    let kind = if next() % 2 == 0 { OpKind::Load } else { OpKind::Store };
                    let batch: Vec<VirtAddr> =
                        (0..4).map(|i| addr.wrapping_add(i * 0x20_0000)).collect();
                    let mut out_fast = Vec::new();
                    let mut out_slow = Vec::new();
                    fast.execute_batch_into(kind, &batch, &mut out_fast);
                    slow.execute_batch_into(kind, &batch, &mut out_slow);
                    prop_assert_eq!(out_fast, out_slow, "step {}", step);
                }
                1 => {
                    fast.invlpg(addr);
                    slow.invlpg(addr);
                }
                2 => {
                    fast.evict_translation(addr);
                    slow.evict_translation(addr);
                }
                3 => {
                    fast.touch_as_kernel(addr);
                    slow.touch_as_kernel(addr);
                }
                4 => {
                    // Structural mutation mid-run: unmap/remap a page.
                    let page = VirtAddr::new_truncate(USER_M + 0x1000);
                    let _ = fast.space_mut().map(page, PageSize::Size4K, PteFlags::user_ro());
                    let _ = slow.space_mut().map(page, PageSize::Size4K, PteFlags::user_ro());
                    if next() % 2 == 0 {
                        let _ = fast.space_mut().unmap(page, PageSize::Size4K);
                        let _ = slow.space_mut().unmap(page, PageSize::Size4K);
                    }
                }
                _ => {
                    let op = if next() % 2 == 0 {
                        MaskedOp::probe_load(addr)
                    } else {
                        MaskedOp::probe_store(addr)
                    };
                    let a = fast.execute(op);
                    let b = slow.execute(op);
                    prop_assert_eq!(a.cycles, b.cycles, "step {}", step);
                    prop_assert_eq!(a.fault.is_some(), b.fault.is_some(), "step {}", step);
                    prop_assert_eq!(a.assist, b.assist, "step {}", step);
                    prop_assert_eq!(a.walks_completed, b.walks_completed, "step {}", step);
                    prop_assert_eq!(a.tlb_hit, b.tlb_hit, "step {}", step);
                    prop_assert_eq!(a.terminal_level, b.terminal_level, "step {}", step);
                }
            }
        }
        prop_assert_eq!(fast.elapsed_cycles(), slow.elapsed_cycles());
        for event in Event::ALL {
            prop_assert_eq!(
                fast.pmc().read(event),
                slow.pmc().read(event),
                "{:?}",
                event
            );
        }
        prop_assert_eq!(fast.space().iter_regions(), slow.space().iter_regions());
    }

    /// The batch paths' O(1) non-present fast path is observably
    /// identical to the scalar path (which never takes it) and to the
    /// reference walker (shadow index off, so no fast path either):
    /// measurements, clocks, PMCs, TLB and PSC counters, and the TLB,
    /// PSC and PTE-line cache state, under seeded scripts of 4 KiB,
    /// 2 MiB and 1 GiB stride runs in both halves, page-crossing
    /// footprints, repeated batches, loads and stores, and INVLPG,
    /// flushes, evictions, kernel touches and map/unmap between
    /// batches, on every profile of `fast_path::profiles`.
    #[test]
    fn nonpresent_fast_path_matches_scalar_and_reference(
        seed in any::<u64>(),
        profile_idx in 0usize..4,
    ) {
        let (name, profile) = fast_path::profiles().swap_remove(profile_idx);
        let space = fast_path_space();
        let sites = [
            USER_M,
            USER_M + 0x4000, // the guard page
            USER_M - 0x20_0000,
            0x7f00_0000_0000,
            0x40_0000_0000, // a 1 GiB user page
            0x7fff_ffe0_0000, // top of the user half
            KERNEL_M,
            KERNEL_U,
            0xffff_ffff_8000_0000,
            0xffff_ffff_c012_3000,
            0xffff_ff80_4000_0000,
            0xffff_ffc0_0000_0000, // a 1 GiB kernel page
            0xffff_8000_0000_0000, // bottom of the kernel half
        ];
        let mut oracle = fast_path::Oracle::new(&profile, &space, seed, &|_| {});
        let script = fast_path::random_script(seed, &sites, 40);
        oracle.run(&format!("{name}, seed {seed:#x}"), &script);
    }

    /// The same oracle on scheduled and defended victims, whose batch
    /// machines take the fast path too: module loads and unloads among
    /// the probed 4 KiB kernel pages, noise swaps and tenant churn (at
    /// 1, 16 and 64 ops per tick), masked translation and
    /// re-randomizers of the kernel image firing every 37 and 100 ops.
    /// Every event or firing falls due between the runs of one batch,
    /// before the fast path's proofs.
    #[test]
    fn nonpresent_fast_path_matches_under_schedules_and_defenses(
        seed in any::<u64>(),
        profile_idx in 0usize..4,
        victim_idx in 0usize..9,
    ) {
        let (name, profile) = fast_path::profiles().swap_remove(profile_idx);
        // Modules load into 4 KiB slots just above the mapped pages at
        // 0xffff_ffff_c012_3000, where no script site maps or unmaps;
        // the defenses protect the 2 MiB kernel text of the first
        // kernel GiB.
        let (victim_name, victim) = fast_path::victims(
            (0xffff_ffff_c013_0000, 0xffff_ffff_c017_0000),
            (0xffff_ffff_8000_0000, 0xffff_ffff_c000_0000),
            seed,
        )
        .swap_remove(victim_idx);
        let space = fast_path_space();
        let sites = [
            USER_M,
            USER_M + 0x4000, // the guard page
            KERNEL_M,
            KERNEL_U,
            0xffff_ffff_8000_0000,
            0xffff_ffff_c012_3000,
            0xffff_ffc0_0000_0000, // a 1 GiB kernel page
        ];
        let mut oracle = fast_path::Oracle::new(&profile, &space, seed, &victim);
        let script = fast_path::random_script(seed, &sites, 40);
        oracle.run(&format!("{name}, {victim_name}, seed {seed:#x}"), &script);
    }
}

/// The two hazards the fast path's O(1) proofs guard against, as fixed
/// scripts: a PSC slot the resume proof names is evicted and refilled
/// by walks that do not refresh the proof (page-crossing probes), and a
/// stale TLB entry still covers a page that was unmapped without
/// `INVLPG`. A PSC `insert` that did not bump the generation, or a TLB
/// fill that did not widen the span, fails this test.
#[test]
fn nonpresent_fast_path_tracks_psc_eviction_and_stale_tlb_entries() {
    use fast_path::{run_of, Step};
    let space = fast_path_space();
    let gib = |i: u64| 0xffff_ff80_0000_0000 + i * 0x4000_0000;
    let user_page = USER_M + 0x10_0000;
    let script = [
        // Resume proof for the PD of GiB 1 (slot 0 is a 2 MiB leaf).
        Step::Probe(OpKind::Load, run_of(gib(1) + 0x20_0000, 0x20_0000, 8)),
        // Two page-crossing walks fill the PDPTEs of GiB 2 and 3.
        Step::Probe(
            OpKind::Load,
            vec![
                VirtAddr::new_truncate(gib(2) + 0x40_0ff0),
                VirtAddr::new_truncate(gib(3) + 0x40_0ff0),
            ],
        ),
        Step::Probe(OpKind::Store, run_of(gib(1) + 0x60_0000, 0x20_0000, 4)),
        // A TLB entry that outlives its mapping.
        Step::Map(VirtAddr::new_truncate(user_page)),
        Step::Probe(OpKind::Load, run_of(user_page, 0x1000, 1)),
        Step::Unmap(VirtAddr::new_truncate(user_page)),
        Step::Probe(
            OpKind::Load,
            [user_page, user_page + 0x1000, user_page, user_page + 0x2000]
                .map(VirtAddr::new_truncate)
                .to_vec(),
        ),
    ];
    for (name, profile) in fast_path::profiles() {
        for seed in [0, 7] {
            let mut oracle = fast_path::Oracle::new(&profile, &space, seed, &|_| {});
            oracle.run(&format!("{name}, seed {seed}"), &script);
        }
    }
}

/// The run server ends a run mid-tile, and the probe that ended it
/// takes the full path, once for each stop reason, as fixed scripts of
/// 16-probe tiles checked by the three-machine oracle:
///
/// * a present terminal entry (`USER_M` after eight unmapped pages);
/// * the end of the interval (a 4 KiB run leaving `USER_M`'s page
///   table);
/// * a PSC tag change under a resumed walk (a 2 MiB run from one
///   page directory into the next GiB's; a terminal table lies in its
///   parent entry's tag, so the tag changes where the interval ends);
/// * a page mapped earlier in the tile, whose TLB fill widens the
///   span over the unmapped pages after it;
/// * a page-crossing offset (0xfe1–0xfff) inside a run;
/// * the user/kernel half boundary (a 4 KiB run across the canonical
///   hole);
/// * a victim event or a re-randomization falling due (112 unmapped
///   pages, ops 98–209: the 64-ops/tick schedules fall due at ops 128
///   and 192, the period-100 re-randomizer at ops 100 and 200, each
///   inside a run and mid-tile).
///
/// Each script runs with loads and with stores, on bare machines and on
/// every scheduled and defended victim of `fast_path::victims` (whose
/// runs end where an event or a firing falls due), under v1 and v2
/// observables — v2 without noise swaps and tenants, whose mid-block
/// events are the v2 block path's known departure from the scalar
/// stream. Charging a warm line the cold cost, replaying the PSC for a
/// whole tile instead of the served run, or letting a run cross an op
/// at which an event falls due fails this test.
#[test]
fn run_server_ends_runs_mid_tile_for_every_reason() {
    use avx_uarch::ObservablesVersion;
    use fast_path::{run_of, Step};
    let va = VirtAddr::new_truncate;
    let user_pt_end = 0x5555_5560_0000u64;
    let (gib_a, gib_b) = (0x20_0000_0000u64, 0x20_4000_0000u64);
    let widen = USER_M + 0x7_8000;
    let cached = USER_M + 0x8_0000;
    let mut crossing = run_of(USER_M - 0x10_0000, 0x1000, 16);
    crossing[7] = va(USER_M - 0x10_0000 + 0x6ff0);
    let script = |kind: OpKind| {
        vec![
            // A present terminal entry: eight unmapped pages, USER_M,
            // its mapped neighbours, and the guard page after them.
            Step::Probe(kind, run_of(USER_M - 0x8000, 0x1000, 16)),
            // The end of the interval: the run leaves the page table.
            Step::Probe(kind, run_of(user_pt_end - 0x8000, 0x1000, 16)),
            // A tag change: slot 100 of two adjacent page directories is
            // mapped, so slots 504–511 of the first and 0–7 of the second
            // are two PD-terminated intervals under two PDPTE tags.
            Step::Map(va(gib_a + 100 * 0x20_0000)),
            Step::Map(va(gib_b + 100 * 0x20_0000)),
            Step::Probe(kind, run_of(gib_b - 8 * 0x20_0000, 0x20_0000, 16)),
            // A TLB span widened mid-tile: with only `cached` in the
            // TLB, the run below `widen` is served; the fill of `widen`
            // covers the unmapped pages between the two.
            Step::Map(va(widen)),
            Step::Map(va(cached)),
            Step::FlushTlb(false),
            Step::Probe(kind, run_of(cached, 0x1000, 1)),
            Step::Probe(kind, run_of(widen - 0x8000, 0x1000, 16)),
            // A page-crossing offset in the middle of a run.
            Step::FlushTlb(false),
            Step::Probe(kind, crossing.clone()),
            // The canonical hole: the top of the user half, then the
            // bottom of the kernel half.
            Step::Probe(kind, run_of(0x7fff_ffff_8000, 0x1000, 16)),
            // Seven tiles of unmapped pages right below USER_M, one page
            // table: the victims' events fall due inside their runs.
            Step::FlushTlb(false),
            Step::Probe(kind, run_of(USER_M - 0x7_0000, 0x1000, 112)),
        ]
    };
    let modules = (0xffff_ffff_c013_0000, 0xffff_ffff_c017_0000);
    let image = (0xffff_ffff_8000_0000, 0xffff_ffff_c000_0000);
    let space = fast_path_space();
    for (name, profile) in fast_path::profiles() {
        for seed in [0, 7] {
            let mut victims: Vec<(String, fast_path::Victim)> =
                vec![("bare".into(), Box::new(|_: &mut Machine| {}))];
            victims.extend(fast_path::victims(modules, image, seed));
            for (victim_name, victim) in &victims {
                for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
                    if observables == ObservablesVersion::V2 && victim_name.starts_with("noise") {
                        continue;
                    }
                    let install = |m: &mut Machine| {
                        victim(m);
                        m.set_observables(observables);
                    };
                    for kind in [OpKind::Load, OpKind::Store] {
                        let mut oracle = fast_path::Oracle::new(&profile, &space, seed, &install);
                        oracle.run(
                            &format!(
                                "{name}, {victim_name}, {observables:?}, {kind:?}, seed {seed}"
                            ),
                            &script(kind),
                        );
                    }
                }
            }
        }
    }
}

/// A space with leaves of every size in both halves, a guard page, and
/// 2 MiB pages spread over several GiB so small PSC arrays thrash.
fn fast_path_space() -> AddressSpace {
    let mut space = AddressSpace::new();
    let va = VirtAddr::new_truncate;
    space
        .map_range(va(USER_M), 4, PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    space
        .map(va(USER_M + 0x4000), PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    space
        .protect(
            va(USER_M + 0x4000),
            PageSize::Size4K,
            PteFlags::none_guard(),
        )
        .unwrap();
    space
        .map(va(0x7f00_0000_0000), PageSize::Size2M, PteFlags::user_ro())
        .unwrap();
    space
        .map(va(0x40_0000_0000), PageSize::Size1G, PteFlags::user_rw())
        .unwrap();
    space
        .map_range(va(KERNEL_M), 3, PageSize::Size2M, PteFlags::kernel_rx())
        .unwrap();
    for base in [
        0xffff_ffff_8000_0000u64,
        0xffff_ff80_4000_0000,
        0xffff_ff80_8000_0000,
        0xffff_ff80_c000_0000,
    ] {
        space
            .map(va(base), PageSize::Size2M, PteFlags::kernel_rw())
            .unwrap();
    }
    space
        .map_range(
            va(0xffff_ffff_c012_3000),
            3,
            PageSize::Size4K,
            PteFlags::kernel_rx(),
        )
        .unwrap();
    space
        .map(
            va(0xffff_ffc0_0000_0000),
            PageSize::Size1G,
            PteFlags::kernel_ro(),
        )
        .unwrap();
    space
}
