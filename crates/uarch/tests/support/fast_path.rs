//! The three-machine oracle of the batch paths' non-present fast path,
//! shared by `engine_props.rs` and the OS-fixture suite of `avx-os`
//! (`crates/os/tests/fast_path_fixtures.rs` includes this file).
//!
//! One space, one profile, one seed, three machines:
//! * `batch` runs `execute_batch` with the shadow index on — the only
//!   machine eligible for the fast path;
//! * `scalar` runs `execute` once per probe, which never takes it;
//! * `reference` runs `execute_batch` with the shadow index off, which
//!   also turns the fast path off.
//!
//! A victim environment ([`victims`]: a schedule or a defense) may be
//! installed on all three alike; the batch machine stays eligible.
//!
//! After every step the three agree on measurements, clocks, PMC banks
//! and `Tlb::stats()`. `batch` and `scalar` also agree on PSC hit/miss
//! counts and print the same TLB, PSC and PTE-line cache (`{:?}`),
//! replacement stamps and MRU slots included. (The reference walker
//! re-walks a non-present retry that the shadow path charges
//! analytically, so its PSC counters legitimately run ahead.)

use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
use avx_uarch::sched::{SchedEvent, SchedRegion, VictimSchedule};
use avx_uarch::{
    AddressMask, CpuProfile, Event, Machine, NoiseProfile, OpKind, Rerandomizer, VictimDefense,
};

/// One step of an oracle script, applied to all three machines.
#[derive(Clone, Debug)]
pub enum Step {
    /// One batch of all-zero-mask probes.
    Probe(OpKind, Vec<VirtAddr>),
    Invlpg(VirtAddr),
    FlushTlb(bool),
    Evict(VirtAddr),
    TouchAsKernel(VirtAddr),
    /// `space_mut().map` of one 4 KiB page (errors ignored, alike on all
    /// three machines).
    Map(VirtAddr),
    /// `space_mut().unmap` of one 4 KiB page, without `INVLPG`.
    Unmap(VirtAddr),
}

/// The profiles every oracle case runs on: Intel with retries, AMD's
/// PSC-bypassing kernel walks, half-cycle costs (the v1 tile's tie
/// filter) and a PSC with a zero-capacity PDE array and two-entry upper
/// arrays (constant eviction, no cacheable PDEs).
pub fn profiles() -> Vec<(&'static str, CpuProfile)> {
    let mut half_cycle = CpuProfile::ice_lake_i7_1065g7();
    half_cycle.timing.base_load += 0.5;
    half_cycle.timing.base_store += 0.5;
    let mut tiny_psc = CpuProfile::alder_lake_i5_12400f();
    tiny_psc.psc = avx_mmu::PscConfig {
        pml4e_entries: 2,
        pdpte_entries: 2,
        pde_entries: 0,
    };
    vec![
        ("Alder Lake", CpuProfile::alder_lake_i5_12400f()),
        ("Zen 3", CpuProfile::zen3_ryzen5_5600x()),
        ("x.5 cycles", half_cycle),
        ("tiny PSC", tiny_psc),
    ]
}

/// A victim environment, installed alike on the three machines.
pub type Victim = Box<dyn Fn(&mut Machine)>;

/// The scheduled and defended victims of the oracle, seeded by `seed`:
/// module loads and unloads in `modules` (4 KiB slots), noise swaps,
/// and tenant arrivals and departures, each at 1 and 16 ops per tick,
/// where events fall due every few ops; the same two at the
/// closed-loop cadence of `avx_core::schedule` (64 ops per tick, its
/// event intervals, first events at ticks 2 and 3 — ops 128 and 192),
/// where long runs form between events; masked translation of `image`
/// (2 MiB slots), and re-randomizers of the image mapped there, firing
/// every 37 and every 100 ops (the second period not a multiple of a
/// 16-probe tile).
pub fn victims(modules: (u64, u64), image: (u64, u64), seed: u64) -> Vec<(String, Victim)> {
    let mut out: Vec<(String, Victim)> = Vec::new();
    for ops_per_tick in [1, 16] {
        out.push((
            format!("module churn, {ops_per_tick} ops/tick"),
            Box::new(move |m| {
                m.set_victim_schedule(Some(
                    VictimSchedule::new(ops_per_tick, seed)
                        .with_module_region(SchedRegion::new(modules.0, modules.1, 0x1000))
                        .every(2, 5, SchedEvent::ModuleLoad { pages: 2 })
                        .every(1, 3, SchedEvent::ModuleLoad { pages: 1 })
                        .every(4, 4, SchedEvent::ModuleUnload),
                ));
            }),
        ));
        out.push((
            format!("noise swaps and tenants, {ops_per_tick} ops/tick"),
            Box::new(move |m| {
                m.set_victim_schedule(Some(
                    VictimSchedule::new(ops_per_tick, seed)
                        .with_base(NoiseProfile::Quiet)
                        .every(3, 7, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
                        .every(6, 7, SchedEvent::NoiseSwap(NoiseProfile::SmtSibling))
                        .every(2, 5, SchedEvent::TenantArrive)
                        .every(4, 5, SchedEvent::TenantDepart),
                ));
            }),
        ));
    }
    out.push((
        "module churn, 64 ops/tick".into(),
        Box::new(move |m| {
            m.set_victim_schedule(Some(
                VictimSchedule::new(64, seed)
                    .with_module_region(SchedRegion::new(modules.0, modules.1, 0x1000))
                    .every(2, 8, SchedEvent::ModuleLoad { pages: 16 })
                    .every(3, 8, SchedEvent::ModuleUnload),
            ));
        }),
    ));
    out.push((
        "noise swaps and tenants, 64 ops/tick".into(),
        Box::new(move |m| {
            m.set_victim_schedule(Some(
                VictimSchedule::new(64, seed)
                    .with_base(NoiseProfile::Quiet)
                    .every(2, 12, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
                    .every(3, 12, SchedEvent::NoiseSwap(NoiseProfile::Quiet))
                    .every(2, 16, SchedEvent::TenantArrive)
                    .every(3, 16, SchedEvent::TenantDepart),
            ));
        }),
    ));
    out.push((
        "masked translation".into(),
        Box::new(move |m| {
            let mask = AddressMask::new(image.0, image.1, 0x20_0000, seed);
            m.set_defense(Some(VictimDefense::new().with_mask(mask)));
        }),
    ));
    for period in [37, 100] {
        out.push((
            format!("re-randomizer, period {period}"),
            Box::new(move |m| {
                let r = Rerandomizer::capture(m.space(), image.0, image.1, 0x20_0000, period, seed)
                    .expect("an image is mapped in the region");
                m.set_defense(Some(VictimDefense::new().with_rerandomizer(r)));
            }),
        ));
    }
    out
}

/// The batch, scalar and reference machines over one space.
pub struct Oracle {
    batch: Machine,
    scalar: Machine,
    reference: Machine,
}

impl Oracle {
    /// Three machines with `profile`'s full noise model and one seed,
    /// `victim` installed on each (`&|_| {}` for a bare machine).
    pub fn new(
        profile: &CpuProfile,
        space: &AddressSpace,
        seed: u64,
        victim: &dyn Fn(&mut Machine),
    ) -> Self {
        let build = || {
            let mut m = Machine::new(profile.clone(), space.clone(), seed);
            victim(&mut m);
            m
        };
        let mut reference = build();
        reference.set_shadow_enabled(false);
        Self {
            batch: build(),
            scalar: build(),
            reference,
        }
    }

    /// Applies `step` to all three machines and checks that they agree.
    pub fn step(&mut self, step: &Step, ctx: &str) {
        if let Step::Probe(kind, addrs) = step {
            let batch = self.batch.execute_batch(*kind, addrs);
            let reference = self.reference.execute_batch(*kind, addrs);
            let scalar: Vec<u64> = addrs.iter().map(|&a| self.scalar.probe(*kind, a)).collect();
            assert_eq!(batch, scalar, "{ctx}: batch vs scalar measurements");
            assert_eq!(batch, reference, "{ctx}: batch vs reference measurements");
        } else {
            for m in [&mut self.batch, &mut self.scalar, &mut self.reference] {
                apply(m, step);
            }
        }
        self.check(ctx);
    }

    /// Runs a whole script, naming the failing step.
    pub fn run(&mut self, label: &str, script: &[Step]) {
        for (i, step) in script.iter().enumerate() {
            self.step(step, &format!("{label}, step {i}"));
        }
    }

    fn check(&self, ctx: &str) {
        let b = &self.batch;
        for (name, m) in [("scalar", &self.scalar), ("reference", &self.reference)] {
            assert_eq!(
                b.elapsed_cycles(),
                m.elapsed_cycles(),
                "{ctx}: clock vs {name}"
            );
            for event in Event::ALL {
                assert_eq!(
                    b.pmc().read(event),
                    m.pmc().read(event),
                    "{ctx}: {event:?} vs {name}"
                );
            }
            assert_eq!(
                b.tlb().stats(),
                m.tlb().stats(),
                "{ctx}: TLB stats vs {name}"
            );
            assert_eq!(
                (
                    b.rerandomizations(),
                    b.victim_schedule().map(VictimSchedule::fired),
                    b.space().shape_epoch(),
                ),
                (
                    m.rerandomizations(),
                    m.victim_schedule().map(VictimSchedule::fired),
                    m.space().shape_epoch(),
                ),
                "{ctx}: victim events and space shape vs {name}"
            );
        }
        let s = &self.scalar;
        assert_eq!(
            (b.psc().hits(), b.psc().misses()),
            (s.psc().hits(), s.psc().misses()),
            "{ctx}: PSC hits/misses"
        );
        assert_eq!(
            format!("{:?}", b.tlb()),
            format!("{:?}", s.tlb()),
            "{ctx}: TLB"
        );
        assert_eq!(
            format!("{:?}", b.psc()),
            format!("{:?}", s.psc()),
            "{ctx}: PSC"
        );
        assert_eq!(
            format!("{:?}", b.pte_lines()),
            format!("{:?}", s.pte_lines()),
            "{ctx}: PTE lines"
        );
    }
}

fn apply(m: &mut Machine, step: &Step) {
    match *step {
        Step::Probe(..) => unreachable!("probes are run by Oracle::step"),
        Step::Invlpg(va) => m.invlpg(va),
        Step::FlushTlb(keep_global) => m.flush_tlb(keep_global),
        Step::Evict(va) => m.evict_translation(va),
        Step::TouchAsKernel(va) => m.touch_as_kernel(va),
        Step::Map(va) => {
            let flags = if va.is_kernel_half() {
                PteFlags::kernel_rw()
            } else {
                PteFlags::user_rw()
            };
            let _ = m
                .space_mut()
                .map(va.align_down(4096), PageSize::Size4K, flags);
        }
        Step::Unmap(va) => {
            let _ = m.space_mut().unmap(va.align_down(4096), PageSize::Size4K);
        }
    }
}

/// A run of `len` probes from `start` with `stride` bytes between them.
pub fn run_of(start: u64, stride: u64, len: u64) -> Vec<VirtAddr> {
    (0..len)
        .map(|i| VirtAddr::new_truncate(start.wrapping_add(i.wrapping_mul(stride))))
        .collect()
}

/// A seeded script around `sites`: stride runs of 4 KiB, 2 MiB and
/// 1 GiB that start a few strides below a site (so they cross interval
/// boundaries and present leaves), page-crossing offsets `0xfe1..=0xfff`,
/// repeated batches, loads and stores, and every translation-cache and
/// space mutation the engine exposes between batches.
pub fn random_script(seed: u64, sites: &[u64], steps: usize) -> Vec<Step> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..steps)
        .map(|_| {
            let site = sites[(next() % sites.len() as u64) as usize];
            let va = VirtAddr::new_truncate(site);
            match next() % 14 {
                0..=7 => {
                    let stride = [0x1000, 0x20_0000, 0x4000_0000][(next() % 3) as usize];
                    let offset = match next() % 3 {
                        0 => 0xfe1 + next() % 31,
                        1 => 0,
                        _ => (next() % 64) * 4,
                    };
                    let start = site.wrapping_sub((next() % 8) * stride) + offset;
                    let mut addrs = run_of(start, stride, 1 + next() % 40);
                    if next() % 4 == 0 {
                        addrs.extend(addrs.clone());
                    }
                    let kind = if next() % 2 == 0 {
                        OpKind::Load
                    } else {
                        OpKind::Store
                    };
                    Step::Probe(kind, addrs)
                }
                8 => Step::Invlpg(va),
                9 => Step::FlushTlb(next() % 2 == 0),
                10 => Step::Evict(va),
                11 => Step::TouchAsKernel(va),
                12 => Step::Map(va),
                _ => Step::Unmap(va),
            }
        })
        .collect()
}
