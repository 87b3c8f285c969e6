//! Property tests for the closed-loop recalibration engine.
//!
//! Three contracts:
//!
//! 1. **Silence under silence** — with `NoiseModel::none()` the drift
//!    trigger can never fire, and the [`Recalibrating`] driver is
//!    bit-exact with the open-loop sweep (samples, verdicts and probe
//!    counts), on both the fixed and the adaptive path. This is what
//!    keeps every pre-recalibration golden row untouched when the
//!    feature is threaded through the campaign engine.
//! 2. **A σ×6 step fires within one window** — once at least
//!    `min_samples` post-step samples have been observed, the
//!    dispersion trigger trips no later than `window` samples after the
//!    step, at the monitor level for arbitrary band levels and
//!    end-to-end through a drifting machine.
//! 3. **The k-means → EM retirement is value-preserving** — on clean
//!    (non-drifting) bimodal sweep data, [`Threshold::refit_bimodal`]
//!    places its decision boundary where the retired
//!    [`Threshold::from_bimodal_samples`] k-means split placed it,
//!    within tolerance, while additionally recovering the environment
//!    σ the k-means path never produced.
//!
//! And one oracle: the run-length [`DriftMonitor`] reads the same
//! trigger decisions, payload bits and dispersions as a verbatim copy
//! of the selection-based monitor it replaced
//! (`support/drift_reference.rs`).

use proptest::prelude::*;

use avx_channel::attacks::kaslr::KernelBaseFinder;
use avx_channel::attacks::modules::ModuleScanner;
use avx_channel::fleet::splitmix64;
use avx_channel::primitives::SweepClassification;
use avx_channel::recal::{
    DriftMonitor, DriftSignal, RecalConfig, Recalibrating, RecalibratingMinFilter,
};
use avx_channel::sweep::AddrRange;
use avx_channel::{
    AdaptiveMinFilter, AdaptiveSampler, LevelAttack, PageTableAttack, ProbeStrategy, Prober,
    SimProber, Threshold,
};
use avx_mmu::VirtAddr;
use avx_os::linux::{LinuxConfig, LinuxSystem};
use avx_uarch::{CpuProfile, NoiseModel, NoiseProfile, OpKind};

fn quiet_prober(seed: u64) -> (SimProber, avx_os::LinuxTruth) {
    let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
    let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
    machine.set_noise(NoiseModel::none());
    (SimProber::new(machine), truth)
}

fn va(i: u64) -> VirtAddr {
    VirtAddr::new_truncate(0xffff_ffff_8000_0000 + i * 0x1000)
}

#[path = "support/drift_reference.rs"]
mod drift_reference;

/// A trigger decision by bits: equal only if the variant and every
/// payload bit are (NaN-safe, unlike `PartialEq`).
fn signal_bits(signal: Option<DriftSignal>) -> Option<(u8, u64, u64)> {
    signal.map(|s| match s {
        DriftSignal::Dispersion { measured, limit } => (0, measured.to_bits(), limit.to_bits()),
        DriftSignal::Unsettled { rate } => (1, rate.to_bits(), 0),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The run-length window against the selection-based reference:
    /// after every tile, `check` (payload bits included),
    /// `band_dispersion`, `fresh_sigma`, `unsettled_fraction` and the
    /// arrival-order samples agree at boundaries that leave a band
    /// empty or thin, equal a sample value, or are NaN or ±∞. Streams
    /// carry duplicates and 4000-cycle spikes; windows run from 1 to
    /// 200 samples (shorter than a tile, a tile evicts its own
    /// samples); refits reset the window mid-stream.
    #[test]
    fn drift_monitor_matches_the_selection_reference(
        seed in any::<u64>(),
        window in prop_oneof![1usize..=16, 1usize..=200],
        min_samples in 0usize..80,
        cooldown in 0usize..80,
        tile_len in 1usize..=16,
        shape in 0u8..4,
    ) {
        let config = RecalConfig {
            window,
            min_samples,
            cooldown,
            dispersion_ratio: 1.5,
            sigma_floor: 0.5,
            unsettled_rate: 0.2,
            ..RecalConfig::default()
        };
        let mut new = DriftMonitor::new(config, 1.0);
        let mut old = drift_reference::DriftMonitor::new(config, 1.0);
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(1);
            splitmix64(state) % bound
        };
        let len = 200 + next(400) as usize;
        let mut index = 0usize;
        while index < len {
            let mut last = 0;
            for _ in 0..tile_len.min(len - index) {
                let sample = match shape {
                    // One tight band: mostly duplicates.
                    0 => 107 + next(3),
                    // Two bands, as a sweep window holds them.
                    1 => [93, 107][next(2) as usize] + next(5),
                    // A wide spread of distinct values.
                    2 => 80 + next(60),
                    // One band with a thin second band beside it.
                    _ => if next(20) == 0 { 93 } else { 107 + next(2) },
                } + if next(16) == 0 { 4_000 } else { 0 };
                let settled = next(4) != 0;
                new.observe(index, va(index as u64), sample, settled);
                old.observe(index, va(index as u64), sample, settled);
                last = sample;
                index += 1;
            }
            if next(12) == 0 {
                let sigma = 0.5 + next(8) as f64;
                new.note_refit(sigma);
                old.note_refit(sigma);
            }
            prop_assert_eq!(new.samples().collect::<Vec<_>>(), old.samples());
            prop_assert_eq!(
                new.unsettled_fraction().to_bits(),
                old.unsettled_fraction().to_bits()
            );
            for boundary in [
                100.0,
                93.0,
                last as f64,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                4_100.5,
            ] {
                let at = format!("index {index}, boundary {boundary}");
                prop_assert_eq!(
                    signal_bits(new.check(boundary)),
                    signal_bits(old.check(boundary)),
                    "check at {}", at
                );
                prop_assert_eq!(
                    new.band_dispersion(boundary).to_bits(),
                    old.band_dispersion(boundary).to_bits(),
                    "band_dispersion at {}", at
                );
                prop_assert_eq!(
                    new.fresh_sigma(boundary).to_bits(),
                    old.fresh_sigma(boundary).to_bits(),
                    "fresh_sigma at {}", at
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (1) Noiseless fixed-path sweeps: driver == open loop, bit for
    /// bit, and the trigger never fires — across seeds and strategies.
    #[test]
    fn noiseless_fixed_sweep_is_bit_exact_and_never_refits(
        seed in 0u64..500,
        strategy_pick in 0u8..3,
    ) {
        let strategy = match strategy_pick {
            0 => ProbeStrategy::Single,
            1 => ProbeStrategy::SecondOfTwo,
            _ => ProbeStrategy::MinOf(4),
        };
        // Two identically-built machines: translation-cache state must
        // match probe for probe (the no-warm-up `Single` strategy is
        // cache-state sensitive).
        let (mut p_open, truth) = quiet_prober(seed);
        let (mut p_closed, _) = quiet_prober(seed);
        let th = Threshold::calibrate(&mut p_open, truth.user.calibration, 8);
        let th2 = Threshold::calibrate(&mut p_closed, truth.user.calibration, 8);
        prop_assert_eq!(th, th2);
        let mut attack = PageTableAttack::new(th);
        attack.strategy = strategy;
        let range = KernelBaseFinder::candidate_range();

        let open = attack.sweep(&mut p_open, &range);
        let mut driver = Recalibrating::new(attack, RecalConfig::default());
        let closed = driver.sweep(&mut p_closed, &range);

        prop_assert_eq!(closed.refits, 0);
        prop_assert_eq!(closed.samples, open.samples);
        prop_assert_eq!(closed.mapped, open.mapped);
        prop_assert_eq!(closed.probes, open.probes);
        prop_assert_eq!(driver.threshold(), th, "threshold must not move");
    }

    /// (1) Noiseless adaptive-path sweeps: same contract through the
    /// SPRT engine (the path the campaign's adaptive golden rows use).
    #[test]
    fn noiseless_adaptive_sweep_is_bit_exact_and_never_refits(seed in 0u64..500) {
        let (mut p, truth) = quiet_prober(seed);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let attack = PageTableAttack::new(th)
            .with_adaptive(AdaptiveSampler::from_threshold(&th, 1.0));
        let range = KernelBaseFinder::candidate_range();

        let open = attack.sweep(&mut p, &range);
        let mut driver = Recalibrating::new(attack, RecalConfig::default());
        let closed = driver.sweep(&mut p, &range);

        prop_assert_eq!(closed.refits, 0);
        prop_assert_eq!(closed.samples, open.samples);
        prop_assert_eq!(closed.mapped, open.mapped);
        prop_assert_eq!(closed.probes, open.probes);
    }

    /// (2) Monitor level: after a σ×6 step of the band dispersion, the
    /// trigger fires within one window of the step, for arbitrary band
    /// levels and pre-step jitter.
    #[test]
    fn sigma_step_fires_within_one_window(
        level in 60u64..500,
        pre_jitter in 0u64..2,
        phase in 0u64..7919,
    ) {
        let config = RecalConfig::default();
        // Baseline σ covers the pre-step jitter (a correct fit).
        let mut monitor = DriftMonitor::new(config, pre_jitter.max(1) as f64);
        let boundary = level as f64 - 10.0; // all samples in the slow band
        for i in 0..300usize {
            monitor.observe(i, va(i as u64), level + (i as u64 % (pre_jitter + 1)), true);
            prop_assert_eq!(monitor.check(boundary), None, "pre-step at {}", i);
        }
        // The step: spread jumps to ±6×(pre-step σ ∨ 1) — a σ×6 shift.
        let spread = 6 * pre_jitter.max(1);
        let mut fired = None;
        for i in 300..300 + config.window {
            let wobble = ((i as u64 * 7919 + phase) % (2 * spread + 1)) as i64 - spread as i64;
            let sample = (level as i64 + wobble).max(1) as u64;
            monitor.observe(i, va(i as u64), sample, true);
            if monitor.check(boundary).is_some() {
                fired = Some(i);
                break;
            }
        }
        let fired = fired.expect("σ×6 step must fire within one window");
        prop_assert!(fired < 300 + config.window, "fired at {}", fired);
    }

    /// (3) The k-means retirement: on clean two-band data the EM re-fit
    /// and the retired k-means split agree on the decision boundary
    /// within 2 cycles (≈ the band quantization), classify both band
    /// means identically, and the EM fit recovers a σ consistent with
    /// the injected wobble.
    #[test]
    fn em_refit_matches_retired_kmeans_boundary_on_clean_input(
        lo in 60u64..120,
        gap in 12u64..40,
        wobble in 1u64..4,
        per_band in 60usize..220,
    ) {
        let hi = lo + gap;
        let mut samples = Vec::with_capacity(per_band * 2);
        for i in 0..per_band as u64 {
            samples.push(lo + (i % (2 * wobble + 1)));
            samples.push(hi + (i % (2 * wobble + 1)));
        }
        let kmeans = Threshold::from_bimodal_samples(&samples)
            .expect("k-means splits clean bimodal data");
        let em = Threshold::refit_bimodal(&samples)
            .expect("EM refit splits clean bimodal data");
        prop_assert!(
            (em.threshold.boundary() - kmeans.boundary()).abs() <= 2.0,
            "boundaries diverged: em {} vs k-means {}",
            em.threshold.boundary(),
            kmeans.boundary()
        );
        // Identical verdicts on both band centers (the contract the
        // Windows-guest bootstrap needs).
        let center = |b: u64| b + wobble;
        prop_assert_eq!(em.threshold.is_mapped(center(lo)), kmeans.is_mapped(center(lo)));
        prop_assert_eq!(em.threshold.is_mapped(center(hi)), kmeans.is_mapped(center(hi)));
        prop_assert!(em.threshold.is_mapped(center(lo)));
        prop_assert!(!em.threshold.is_mapped(center(hi)));
        // And the EM path adds what k-means never had: a σ estimate.
        prop_assert!(em.sigma > 0.0 && em.sigma <= 2.0 * wobble as f64 + 1.0);
    }
}

/// (1) The module-area scan (a different range shape: 16384 × 4 KiB)
/// under the noiseless contract, driven chunk by chunk like the
/// streaming Windows scan.
#[test]
fn noiseless_chunked_sweep_is_bit_exact_and_never_refits() {
    let (mut p, truth) = quiet_prober(77);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
    let scanner_range = ModuleScanner::candidate_range();
    let mut attack = PageTableAttack::new(th);
    attack.strategy = ProbeStrategy::MinOf(2);

    let open = attack.sweep(&mut p, &scanner_range);
    let mut driver = Recalibrating::new(attack, RecalConfig::default());
    let mut samples = Vec::new();
    let mut mapped = Vec::new();
    let mut probes = 0u64;
    for chunk in scanner_range.chunks(1024) {
        let sweep = driver.sweep(&mut p, &chunk);
        assert_eq!(sweep.refits, 0);
        samples.extend(sweep.samples);
        mapped.extend(sweep.mapped);
        probes += sweep.probes;
    }
    assert_eq!(samples, open.samples);
    assert_eq!(mapped, open.mapped);
    assert_eq!(probes, open.probes);
}

/// (2) End-to-end: a machine whose noise steps quiet → laptop (σ×6)
/// mid-scan must trip the driver, and no later than one window of
/// addresses past the step (each address costs at least one probe, so
/// the step's probe index bounds its address index).
#[test]
fn sigma_step_fires_within_one_window_end_to_end() {
    const STEP_AT_PROBE: u64 = 600;
    let sys = LinuxSystem::build(LinuxConfig::seeded(21));
    let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 21);
    machine.set_noise_profile(NoiseProfile::drift_with(
        NoiseProfile::Quiet,
        NoiseProfile::LaptopDvfs,
        STEP_AT_PROBE,
        STEP_AT_PROBE,
    ));
    let mut p = SimProber::new(machine);
    let fit = Threshold::calibrate_with(
        &mut p,
        truth.user.calibration,
        16,
        avx_channel::CalibratorKind::NoiseAware,
    );
    let config = RecalConfig::default();
    let attack = PageTableAttack::new(fit.threshold).with_adaptive(AdaptiveSampler::from_fit(&fit));
    let mut driver = Recalibrating::new(attack, config);
    let sweep = driver.sweep(&mut p, &KernelBaseFinder::candidate_range());
    assert!(sweep.refits >= 1, "σ×6 step must trigger the loop");
    let first = driver.events()[0];
    assert!(
        (first.at_address as u64) <= STEP_AT_PROBE + config.window as u64,
        "trigger lagged more than one window past the step: address {}",
        first.at_address
    );
}

/// The recovered fit feeds the σ-policy chokepoint: after a refit the
/// driver's sampler hypotheses stay centred on the (unchanged)
/// calibrated boundary while the σ model widens — which is exactly
/// what `Sampling::sampler_from_fit` produces from the new fit.
#[test]
fn refit_rebuilds_the_sampler_through_the_fit() {
    let sys = LinuxSystem::build(LinuxConfig::seeded(5));
    let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 5);
    machine.set_noise_profile(NoiseProfile::drift_quiet_to_laptop());
    let mut p = SimProber::new(machine);
    let fit = Threshold::calibrate_with(
        &mut p,
        truth.user.calibration,
        16,
        avx_channel::CalibratorKind::NoiseAware,
    );
    let sampler = AdaptiveSampler::from_fit(&fit);
    let attack = PageTableAttack::new(fit.threshold).with_adaptive(sampler);
    let mut driver = Recalibrating::new(attack, RecalConfig::default());
    let _ = driver.sweep(&mut p, &KernelBaseFinder::candidate_range());
    assert!(driver.refits() >= 1);
    let last = driver.events().last().unwrap();
    assert!(
        last.fit.sigma > sampler.sigma,
        "the refit must widen the σ model: {} vs initial {}",
        last.fit.sigma,
        sampler.sigma
    );
    // The boundary survives the refits (band means are stable).
    assert!((driver.threshold().boundary() - fit.threshold.boundary()).abs() <= 4.0);
}

/// The driver's reused tile buffers carry no state from one tile or
/// call to the next. On a drifting scan with refits firing, slice and
/// range sweeps over the same uneven chunks (each ending in a partial
/// tile) agree call by call, events included. With the rescan off —
/// the only step that depends on call boundaries — tile-aligned chunks
/// reproduce one whole-range call exactly.
#[test]
fn reused_tile_buffers_carry_no_state_across_tiles_or_calls() {
    let drifting = |rescan: bool| {
        let sys = LinuxSystem::build(LinuxConfig::seeded(44));
        let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 44);
        machine.set_noise_profile(NoiseProfile::drift_quiet_to_laptop());
        let mut p = SimProber::new(machine);
        let fit = Threshold::calibrate_with(
            &mut p,
            truth.user.calibration,
            16,
            avx_channel::CalibratorKind::NoiseAware,
        );
        let attack =
            PageTableAttack::new(fit.threshold).with_adaptive(AdaptiveSampler::from_fit(&fit));
        let config = RecalConfig {
            rescan,
            ..RecalConfig::default()
        };
        (p, Recalibrating::new(attack, config))
    };
    let events = |driver: &Recalibrating| format!("{:?}", driver.events());
    let kernel = KernelBaseFinder::candidate_range();
    let range = AddrRange::new(kernel.addr(0), 0x20_0000, 525);

    let (mut p_slice, mut by_slice) = drifting(true);
    let (mut p_range, mut by_range) = drifting(true);
    for chunk in range.chunks(85) {
        let a = by_slice.sweep(&mut p_slice, &chunk.to_vec());
        let b = by_range.sweep(&mut p_range, &chunk);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.mapped, b.mapped);
        assert_eq!((a.probes, a.refits), (b.probes, b.refits));
        assert_eq!(events(&by_slice), events(&by_range));
    }
    assert!(
        by_slice.refits() >= 2,
        "the scan must refit: {}",
        by_slice.refits()
    );

    let (mut p_whole, mut whole) = drifting(false);
    let (mut p_chunked, mut chunked) = drifting(false);
    let one = whole.sweep(&mut p_whole, &range);
    let (mut samples, mut mapped, mut probes, mut refits) = (Vec::new(), Vec::new(), 0, 0);
    for chunk in range.chunks(80) {
        let part = chunked.sweep(&mut p_chunked, &chunk.to_vec());
        samples.extend(part.samples);
        mapped.extend(part.mapped);
        probes += part.probes;
        refits += part.refits;
    }
    assert!(one.refits >= 2, "the scan must refit: {}", one.refits);
    assert_eq!(samples, one.samples);
    assert_eq!(mapped, one.mapped);
    assert_eq!((probes, refits), (one.probes, one.refits));
    assert_eq!(events(&chunked), events(&whole));
}

/// Everything one sweep leaves behind: its output, the driver state it
/// reports and the prober's counters and clocks.
#[derive(Debug, PartialEq)]
struct SweepTrace {
    samples: Vec<u64>,
    mapped: Vec<bool>,
    probes: u64,
    refits: u32,
    escalations: u32,
    /// The closed loop's refit log, or the sampler's per-address probe
    /// counts and settled flags.
    log: String,
    probes_issued: u64,
    probing_cycles: u64,
    total_cycles: u64,
}

impl SweepTrace {
    fn new(p: &SimProber, samples: Vec<u64>, mapped: Vec<bool>, probes: u64) -> Self {
        Self {
            samples,
            mapped,
            probes,
            refits: 0,
            escalations: 0,
            log: String::new(),
            probes_issued: p.probes_issued(),
            probing_cycles: p.probing_cycles(),
            total_cycles: p.total_cycles(),
        }
    }
}

/// A machine whose noise steps quiet → laptop (σ×6) at probe `step`,
/// so the closed loops refit and escalate mid-sweep.
fn stepping_prober(seed: u64, profile: CpuProfile, step: u64) -> (SimProber, avx_os::LinuxTruth) {
    let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
    let (mut machine, truth) = sys.into_machine(profile, seed);
    machine.set_noise_profile(NoiseProfile::drift_with(
        NoiseProfile::Quiet,
        NoiseProfile::LaptopDvfs,
        step,
        step,
    ));
    (SimProber::new(machine), truth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every sweep engine reads a candidate range and the same
    /// candidates as a slice identically: samples, verdicts, probe
    /// counts, refits, escalations, the refit log, the sampler's
    /// settled flags, the prober's probe count and both cycle clocks. The machine's noise steps up
    /// mid-sweep, so the closed loops refit and escalate; the range
    /// starts anywhere and ends mid-tile.
    #[test]
    fn every_engine_sweeps_a_range_and_its_slice_identically(
        seed in 0u64..1000,
        first in 0u64..40,
        count in 300u64..=472,
        step in 200u64..800,
        min_of in 1u8..5,
    ) {
        let kernel = KernelBaseFinder::candidate_range();
        let range = AddrRange::new(kernel.addr(first), kernel.stride, count);
        let slice = range.to_vec();

        // Engines 0–2 are open-loop (`SecondOfTwo`, `MinOf`, adaptive);
        // 3 and 4 run the closed loop on the fixed and adaptive paths;
        // 5 drives the adaptive sampler directly.
        let page_table = |engine: u8, by_range: bool| {
            let (mut p, truth) = stepping_prober(seed, CpuProfile::alder_lake_i5_12400f(), step);
            let fit = Threshold::calibrate_with(
                &mut p,
                truth.user.calibration,
                16,
                avx_channel::CalibratorKind::NoiseAware,
            );
            let sampler = AdaptiveSampler::from_fit(&fit);
            let mut attack = PageTableAttack::new(fit.threshold);
            match engine {
                1 => attack.strategy = ProbeStrategy::MinOf(min_of),
                2 | 4 => attack = attack.with_adaptive(sampler),
                _ => {}
            }
            let (sweep, log) = match engine {
                0..=2 => {
                    let sweep = if by_range {
                        attack.sweep(&mut p, &range)
                    } else {
                        attack.sweep(&mut p, &slice)
                    };
                    (sweep, String::new())
                }
                3 | 4 => {
                    let mut driver = Recalibrating::new(attack, RecalConfig::default());
                    let sweep = if by_range {
                        driver.sweep(&mut p, &range)
                    } else {
                        driver.sweep(&mut p, &slice)
                    };
                    (sweep, format!("{:?}", driver.events()))
                }
                _ => {
                    let batch = if by_range {
                        sampler.classify(&mut p, OpKind::Load, &range)
                    } else {
                        sampler.classify(&mut p, OpKind::Load, &slice)
                    };
                    let log = format!("{:?} {:?}", batch.probes, batch.settled);
                    let sweep = SweepClassification {
                        probes: batch.total_probes(),
                        samples: batch.samples,
                        mapped: batch.mapped,
                        refits: 0,
                    };
                    (sweep, log)
                }
            };
            let mut trace = SweepTrace::new(&p, sweep.samples, sweep.mapped, sweep.probes);
            trace.refits = sweep.refits;
            trace.log = log;
            trace
        };
        for engine in 0..6u8 {
            let a = page_table(engine, true);
            let b = page_table(engine, false);
            prop_assert_eq!(a, b, "page-table engine {}", engine);
        }

        // Engines 0–2 are `LevelAttack` fixed, early-stop and
        // escalating; 3 drives the escalating min-filter directly.
        let level = |engine: u8, by_range: bool| {
            let (mut p, _) = stepping_prober(seed, CpuProfile::zen3_ryzen5_5600x(), step);
            let mut attack = LevelAttack::default();
            match engine {
                0 => attack.repeats = min_of + 2,
                1 => attack = attack.with_early_stop(AdaptiveMinFilter::default()),
                2 => attack = attack.with_recalibration(RecalConfig::default()),
                _ => {
                    let mut driver = RecalibratingMinFilter::new(
                        AdaptiveMinFilter::default(),
                        RecalConfig::default(),
                    );
                    let (samples, probes) = if by_range {
                        driver.measure_range(&mut p, &range)
                    } else {
                        driver.measure_range(&mut p, &slice)
                    };
                    let mut trace = SweepTrace::new(&p, samples, Vec::new(), probes);
                    trace.escalations = driver.escalations();
                    return trace;
                }
            }
            let (samples, probes) = if by_range {
                attack.measure(&mut p, &range)
            } else {
                attack.measure(&mut p, &slice)
            };
            SweepTrace::new(&p, samples, Vec::new(), probes)
        };
        for engine in 0..4u8 {
            let a = level(engine, true);
            let b = level(engine, false);
            prop_assert_eq!(a, b, "level engine {}", engine);
        }
    }
}
