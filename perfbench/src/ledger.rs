//! The layer ledger: ns/op of each stage a simulated probe passes
//! through, measured by micro-loops over the layers' public functions,
//! and the accounting check that multiplies them by the traced event
//! counts to re-derive the machine's measured cost per probe.

use std::hint::black_box;
use std::time::Instant;

use avx_channel::{KernelBaseFinder, Prober, SimProber, Threshold};
use avx_mmu::{
    EffectivePerms, PageSize, PagingStructureCache, ShadowIndex, Tlb, TlbEntry, VirtAddr, Walker,
};
use avx_os::linux::{LinuxConfig, LinuxSystem};
use avx_uarch::{CpuProfile, NoiseProfile, ObservablesVersion, PteLineCache, NOISE_BLOCK};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats;

/// Host cost of one operation of each measured layer.
#[derive(Clone, Copy, Debug)]
pub struct Ledger {
    /// `Tlb::lookup` hitting the first level, ns.
    pub tlb_hit_ns: f64,
    /// `Tlb::lookup` missing both levels, ns.
    pub tlb_miss_ns: f64,
    /// `PagingStructureCache::lookup_deepest`, ns.
    pub psc_lookup_ns: f64,
    /// `ShadowIndex::lookup`, ns.
    pub shadow_lookup_ns: f64,
    /// `Walker::walk` (the reference walker the shadow index replaces), ns.
    pub walk_ns: f64,
    /// `PteLineCache::touch` of one paging-structure entry, ns.
    pub line_touch_ns: f64,
    /// One v1 (Box–Muller) noise draw, `NoiseModel::perturb`, ns.
    pub v1_draw_ns: f64,
    /// One v2 (ziggurat) noise draw, `NoiseModel::fill_block` per
    /// sample, ns.
    pub v2_draw_ns: f64,
    /// One `Threshold::refit_bimodal` over a 512-slot scan series, µs.
    pub refit_bimodal_us: f64,
}

/// Median ns per op of `op` over seven rounds of at least 5 ms each;
/// `op` performs `ops_per_call` operations per call.
fn ns_per_op(ops_per_call: usize, mut op: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            op();
        }
        if t.elapsed().as_secs_f64() >= 0.005 {
            break;
        }
        calls *= 2;
    }
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            t.elapsed().as_nanos() as f64 / (calls * ops_per_call) as f64
        })
        .collect();
    stats::median(&rounds)
}

/// Runs every micro-loop against a seed-1 Linux victim on `profile`,
/// probing the 512 kernel-base candidate slots the Fig. 4 scan sweeps.
pub fn measure(profile: &CpuProfile) -> Ledger {
    let sys = LinuxSystem::build(LinuxConfig::seeded(1));
    let space = sys.space();
    let slots = KernelBaseFinder::candidate_range().to_vec();
    // One probe tile of huge-page translations: what a warm sweep hits.
    let tile: Vec<VirtAddr> = slots[..NOISE_BLOCK].to_vec();

    let mut tlb = Tlb::new(profile.tlb);
    for (i, va) in tile.iter().enumerate() {
        tlb.insert(TlbEntry {
            vpn: va.as_u64() >> PageSize::Size2M.shift(),
            size: PageSize::Size2M,
            pfn: i as u64,
            perms: EffectivePerms::kernel_default(),
        });
    }
    let tlb_hit_ns = ns_per_op(tile.len(), || {
        for &va in &tile {
            black_box(tlb.lookup(black_box(va)));
        }
    });
    let cold = &slots[NOISE_BLOCK..];
    let tlb_miss_ns = ns_per_op(cold.len(), || {
        for &va in cold {
            black_box(tlb.lookup(black_box(va)));
        }
    });

    let walker = Walker::new();
    let mut psc = PagingStructureCache::new(profile.psc);
    for &va in &slots {
        black_box(walker.walk_with_psc(space, va, &mut psc));
    }
    let psc_lookup_ns = ns_per_op(slots.len(), || {
        for &va in &slots {
            black_box(psc.lookup_deepest(black_box(va)));
        }
    });
    let shadow = ShadowIndex::build(space);
    let shadow_lookup_ns = ns_per_op(slots.len(), || {
        for &va in &slots {
            black_box(shadow.lookup(space, black_box(va)));
        }
    });
    let walk_ns = ns_per_op(slots.len(), || {
        for &va in &slots {
            black_box(walker.walk(space, black_box(va)));
        }
    });

    let entries: Vec<_> = tile
        .iter()
        .flat_map(|&va| walker.walk(space, va).accesses.iter().collect::<Vec<_>>())
        .collect();
    let mut lines = PteLineCache::default();
    let line_touch_ns = ns_per_op(entries.len(), || {
        for &(table, idx) in &entries {
            black_box(lines.touch(black_box(table), idx));
        }
    });

    let model = NoiseProfile::Quiet.model_for(&profile.timing);
    let mut rng = StdRng::seed_from_u64(7);
    let v1_draw_ns = ns_per_op(NOISE_BLOCK, || {
        for _ in 0..NOISE_BLOCK {
            black_box(model.perturb(&mut rng, black_box(100.0)));
        }
    });
    let mut block = [0.0f64; NOISE_BLOCK];
    let v2_draw_ns = ns_per_op(NOISE_BLOCK, || {
        model.fill_block(&mut rng, black_box(&mut block));
        black_box(&block);
    });

    let (machine, truth) = sys.machine(profile.clone(), 1);
    let mut p = SimProber::new(machine);
    let threshold = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    let series = KernelBaseFinder::new(threshold).scan(&mut p).samples;
    let refit_bimodal_us = ns_per_op(1, || {
        black_box(Threshold::refit_bimodal(black_box(&series)));
    }) / 1e3;
    debug_assert!(p.probes_issued() > 0);

    Ledger {
        tlb_hit_ns,
        tlb_miss_ns,
        psc_lookup_ns,
        shadow_lookup_ns,
        walk_ns,
        line_touch_ns,
        v1_draw_ns,
        v2_draw_ns,
        refit_bimodal_us,
    }
}

/// Event counts of the traced machine, summed over re-driven trials.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Simulated probes.
    pub probes: u64,
    /// First-level TLB hits.
    pub tlb_hit_l1: u64,
    /// Second-level TLB hits.
    pub tlb_hit_l2: u64,
    /// TLB misses (each one walks).
    pub tlb_miss: u64,
}

/// The accounting check: ledger ns/op × traced event counts, per probe.
pub struct Accounting {
    /// ns per probe the ledger explains.
    pub predicted_ns: f64,
    /// `measured − predicted`, as a share of measured.
    pub unexplained_share: f64,
}

/// Each probe draws one noise sample and translates one page: a TLB
/// lookup, and on a miss the PSC probe, the shadow-index walk and one
/// PTE-line touch (a PSC-resumed walk reads only its terminal entry).
pub fn account(
    ledger: &Ledger,
    counts: &Counts,
    observables: ObservablesVersion,
    measured_ns: f64,
) -> Accounting {
    let per_probe = |n: u64| n as f64 / counts.probes.max(1) as f64;
    let noise = match observables {
        ObservablesVersion::V1 => ledger.v1_draw_ns,
        ObservablesVersion::V2 => ledger.v2_draw_ns,
    };
    let predicted_ns = noise
        + per_probe(counts.tlb_hit_l1 + counts.tlb_hit_l2) * ledger.tlb_hit_ns
        + per_probe(counts.tlb_miss)
            * (ledger.tlb_miss_ns
                + ledger.psc_lookup_ns
                + ledger.shadow_lookup_ns
                + ledger.line_touch_ns);
    Accounting {
        predicted_ns,
        unexplained_share: (measured_ns - predicted_ns) / measured_ns,
    }
}
