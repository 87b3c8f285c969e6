//! Property tests for the adaptive sequential stopping rule.
//!
//! Pin the three contracts the engine must keep with the fixed-budget
//! pipeline it replaces: (1) the per-address budget is a hard cap,
//! (2) under [`NoiseModel::none`] the decisions are bit-exact with the
//! fixed-threshold decisions, and (3) the decision is invariant to the
//! order in which a batch tile's samples arrive.

use proptest::prelude::*;

use avx_channel::adaptive::{AdaptiveConfig, AdaptiveSampler};
use avx_channel::stats::SequentialLlr;
use avx_channel::{ProbeStrategy, SimProber, Threshold};
use avx_mmu::VirtAddr;
use avx_os::linux::{LinuxConfig, LinuxSystem, KASLR_ALIGN, KERNEL_TEXT_REGION_START};
use avx_uarch::{CpuProfile, NoiseModel, OpKind};

fn quiet_prober(seed: u64) -> (SimProber, Threshold) {
    let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
    let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
    m.set_noise(NoiseModel::none());
    let mut p = SimProber::new(m);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
    (p, th)
}

fn noisy_prober(seed: u64) -> (SimProber, Threshold) {
    let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
    let (machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
    let mut p = SimProber::new(machine); // full profile noise
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
    (p, th)
}

fn slots(offset: u64, count: u64) -> Vec<VirtAddr> {
    (0..count)
        .map(|i| VirtAddr::new_truncate(KERNEL_TEXT_REGION_START + (offset + i) * KASLR_ALIGN))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (1) No address may ever exceed warm-up + `max_probes` samples —
    /// even under the full noise model, where the SPRT may never cross
    /// a boundary and must be cut off by the budget.
    #[test]
    fn budget_is_never_exceeded(
        seed in 0u64..1000,
        max_probes in 1u32..12,
        error_exp in 1u32..8,
        offset in 0u64..400,
        count in 1u64..48,
    ) {
        let (mut p, th) = noisy_prober(seed);
        let config = AdaptiveConfig {
            min_probes: 1,
            max_probes,
            error_rate: 10f64.powi(-(error_exp as i32)),
        };
        let sampler = AdaptiveSampler::from_threshold(&th, 1.0).with_config(config);
        let addrs = slots(offset, count);
        let batch = sampler.classify(&mut p, OpKind::Load, &addrs);
        for (i, &n) in batch.probes.iter().enumerate() {
            prop_assert!(n >= 2, "addr {i}: at least warm-up + one sample, got {n}");
            prop_assert!(
                n <= 1 + max_probes,
                "addr {i}: {n} probes exceeds warm-up + budget {max_probes}"
            );
        }
    }

    /// (2) Under `NoiseModel::none()` every adaptive decision equals the
    /// fixed-N threshold decision on the same candidates.
    #[test]
    fn noiseless_decisions_are_bit_exact_with_fixed(
        seed in 0u64..1000,
        max_probes in 1u32..10,
        offset in 0u64..400,
        count in 1u64..64,
    ) {
        let addrs = slots(offset, count);

        let (mut p_fixed, th) = quiet_prober(seed);
        let fixed_samples =
            ProbeStrategy::SecondOfTwo.measure_batch(&mut p_fixed, OpKind::Load, &addrs);
        let fixed: Vec<bool> = fixed_samples.iter().map(|&s| th.is_mapped(s)).collect();

        let (mut p, th) = quiet_prober(seed);
        let sampler = AdaptiveSampler::from_threshold(&th, 1.0)
            .with_config(AdaptiveConfig::with_max_probes(max_probes));
        let batch = sampler.classify(&mut p, OpKind::Load, &addrs);
        prop_assert_eq!(batch.mapped, fixed);
    }

    /// (3a) The accumulated evidence is a sum: any permutation of the
    /// same sample multiset reaches the same Λ and the same forced call.
    #[test]
    fn accumulator_is_sample_order_invariant(
        samples in prop::collection::vec(80u64..1000, 1..24),
        rotation in 0usize..24,
        sigma_tenths in 5u64..60,
    ) {
        let sigma = sigma_tenths as f64 / 10.0;
        let build = || SequentialLlr::new(93.0, 107.0, sigma, 1e-4);

        let mut forward = build();
        for &s in &samples {
            forward.push(s);
        }
        let mut rotated = samples.clone();
        rotated.rotate_left(rotation % samples.len());
        let mut perm = build();
        for &s in &rotated {
            perm.push(s);
        }
        prop_assert!((forward.llr() - perm.llr()).abs() < 1e-9);
        prop_assert_eq!(forward.forced(), perm.forced());
        prop_assert_eq!(forward.count(), perm.count());
    }

    /// (3b) Within one batch tile, the order of the candidate addresses
    /// does not change any candidate's decision or probe count (under
    /// no noise, where readings are order-independent).
    #[test]
    fn tile_decisions_are_address_order_invariant(
        seed in 0u64..1000,
        offset in 0u64..400,
        rotation in 1usize..16,
    ) {
        // One full tile of candidates.
        let tile = slots(offset, ProbeStrategy::BATCH_TILE as u64);

        let (mut p, th) = quiet_prober(seed);
        let sampler = AdaptiveSampler::from_threshold(&th, 1.0);
        let straight = sampler.classify(&mut p, OpKind::Load, &tile);

        let mut shuffled = tile.clone();
        shuffled.rotate_left(rotation % tile.len());
        let (mut p, th) = quiet_prober(seed);
        let sampler = AdaptiveSampler::from_threshold(&th, 1.0);
        let rotated = sampler.classify(&mut p, OpKind::Load, &shuffled);

        for (i, &addr) in tile.iter().enumerate() {
            let j = shuffled.iter().position(|&a| a == addr).unwrap();
            prop_assert_eq!(
                straight.mapped[i], rotated.mapped[j],
                "addr {:?}: decision depends on tile order", addr
            );
            prop_assert_eq!(
                straight.probes[i], rotated.probes[j],
                "addr {:?}: budget depends on tile order", addr
            );
        }
    }
}

/// The fixed-budget cap also binds the early-stopping min-filter.
#[test]
fn min_filter_budget_is_never_exceeded() {
    use avx_channel::adaptive::AdaptiveMinFilter;
    for seed in 0..6u64 {
        let (mut p, _) = noisy_prober(seed);
        let filter = AdaptiveMinFilter {
            max_probes: 5,
            stable_rounds: 200, // unreachably strict: budget must bind
            epsilon: 0,
        };
        let batch = filter.measure(&mut p, OpKind::Load, &slots(seed * 7, 40));
        assert!(batch.probes.iter().all(|&n| n == 1 + 5), "seed {seed}");
    }
}
