//! Ablation studies of the attack's design choices.
//!
//! Not a paper figure — these sweeps justify the knobs the paper fixes
//! implicitly:
//!
//! 1. **probe strategy** — single-shot vs probe-twice vs min-of-k:
//!    why the paper's "execute twice, measure the second" works, and
//!    what min-filtering buys under interrupt noise;
//! 2. **threshold margin** — sensitivity of the mapped/unmapped
//!    classifier around the calibrated value (the 14-cycle band gap);
//! 3. **spike probability** — attack accuracy as the machine gets
//!    noisier, showing where the paper's 99.x % regime lives;
//! 4. **eviction necessity** — the behaviour spy with and without TLB
//!    eviction (the paper: "we use this attack primitive in
//!    combination with a TLB eviction to reduce noise").

use std::sync::Once;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use avx_bench::{calibrate, linux_prober};
use avx_channel::report::Table;
use avx_channel::stats::Trials;
use avx_channel::{KernelBaseFinder, ProbeStrategy, Prober, SimProber, Threshold, TlbAttack};
use avx_os::activity::{apply_activity, ActivityTimeline};
use avx_os::linux::{LinuxConfig, LinuxSystem};
use avx_uarch::{CpuProfile, NoiseModel};

const TRIALS: u64 = 40;

fn base_accuracy(strategy: ProbeStrategy, spike_prob: Option<f64>, margin: Option<f64>) -> f64 {
    let mut acc = Trials::new();
    for seed in 0..TRIALS {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed * 23 + 7));
        let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        if let Some(p) = spike_prob {
            let t = machine.profile().timing;
            machine.set_noise(NoiseModel::new(t.noise_sigma, p, t.spike_range));
        }
        let mut prober = SimProber::new(machine);
        let mut th = Threshold::calibrate(&mut prober, truth.user.calibration, 16);
        if let Some(m) = margin {
            th.margin = m;
        }
        let finder = KernelBaseFinder::new(th).with_strategy(strategy);
        acc.record(finder.scan(&mut prober).base == Some(truth.kernel_base));
    }
    acc.percent()
}

fn print_ablations() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        println!("\nAblation 1 — probe strategy vs accuracy (n={TRIALS}, profile noise):");
        let mut t = Table::new(["strategy", "probes/slot", "accuracy"]);
        for (label, s) in [
            ("single-shot", ProbeStrategy::Single),
            ("second-of-two (paper)", ProbeStrategy::SecondOfTwo),
            ("min-of-4", ProbeStrategy::MinOf(4)),
        ] {
            t.row([
                label.to_string(),
                s.probes_per_measurement().to_string(),
                format!("{:.1} %", base_accuracy(s, None, None)),
            ]);
        }
        println!("{t}");

        println!("Ablation 2 — threshold margin vs accuracy (gap is 14 cycles):");
        let mut t = Table::new(["margin (cycles)", "accuracy"]);
        for margin in [0.0, 3.0, 7.0, 11.0, 14.0, 20.0] {
            t.row([
                format!("{margin:.0}"),
                format!(
                    "{:.1} %",
                    base_accuracy(ProbeStrategy::SecondOfTwo, None, Some(margin))
                ),
            ]);
        }
        println!("{t}");

        println!("Ablation 3 — interrupt-spike probability vs accuracy:");
        let mut t = Table::new(["spike prob", "second-of-two", "min-of-4"]);
        for p in [0.0, 0.002, 0.01, 0.05, 0.2] {
            t.row([
                format!("{p}"),
                format!(
                    "{:.1} %",
                    base_accuracy(ProbeStrategy::SecondOfTwo, Some(p), None)
                ),
                format!(
                    "{:.1} %",
                    base_accuracy(ProbeStrategy::MinOf(4), Some(p), None)
                ),
            ]);
        }
        println!("{t}");

        println!("Ablation 4 — behaviour spy with vs without eviction:");
        let timeline = ActivityTimeline::bluetooth_session();
        let (mut p, truth) = linux_prober(CpuProfile::ice_lake_i7_1065g7(), 9);
        let th = calibrate(&mut p, &truth);
        let module = truth.module("bluetooth").unwrap();
        let (base, pages) = (module.base, module.spec.pages());
        let tlb = TlbAttack::from_threshold(&th);

        // With eviction (the paper's procedure).
        let spy = avx_channel::attacks::behavior::TlbSpy::new(Default::default(), tlb);
        let trace = spy.monitor(&mut p, base, |p, t| {
            apply_activity(p.machine_mut(), &timeline, base, pages, t);
        });
        let with_eviction = trace.score(&timeline, tlb.hit_boundary);

        // Without eviction: probe directly each second. The first probe
        // caches the translation itself, so idle samples also hit.
        let mut without_hits = 0usize;
        let mut samples = 0usize;
        for step in 0..100u64 {
            let t = step as f64;
            apply_activity(p.machine_mut(), &timeline, base, pages, t);
            let cycles = p.probe(avx_uarch::OpKind::Load, base);
            let detected = (cycles as f64) <= tlb.hit_boundary;
            if detected == timeline.active_at(t) {
                without_hits += 1;
            }
            samples += 1;
        }
        let without_eviction = without_hits as f64 / samples as f64;
        println!(
            "  with eviction: {:.1} % agreement; without: {:.1} % (self-pollution)\n",
            with_eviction * 100.0,
            without_eviction * 100.0
        );
    });
}

fn bench(c: &mut Criterion) {
    print_ablations();
    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (label, strategy) in [
        ("scan_single", ProbeStrategy::Single),
        ("scan_second_of_two", ProbeStrategy::SecondOfTwo),
        ("scan_min_of_4", ProbeStrategy::MinOf(4)),
    ] {
        group.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let (mut p, truth) = linux_prober(CpuProfile::alder_lake_i5_12400f(), seed);
                let th = calibrate(&mut p, &truth);
                KernelBaseFinder::new(th)
                    .with_strategy(strategy)
                    .scan(&mut p)
                    .base
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
