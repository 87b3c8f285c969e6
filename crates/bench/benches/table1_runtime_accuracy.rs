//! Table I — runtime and accuracy of base/module derandomization.
//!
//! Paper rows (probing / total / accuracy, n = 10000):
//!   i5-12400F base 67 µs / 0.28 ms / 99.60 %, modules 2.43 / 2.62 ms / 99.84 %
//!   i7-1065G7 base 0.26 / 0.57 ms / 99.29 %, modules 8.42 / 8.64 ms / 99.72 %
//!   Ryzen 5600X base 1.91 / 2.90 ms / 99.48 %
//!
//! Accuracy trials default to 60 per row for bench snappiness; set
//! `AVX_TRIALS` (e.g. 10000) to match the paper's n.

use std::sync::Once;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use avx_bench::{calibrate, linux_prober, paper, Cli};
use avx_channel::report::{fmt_seconds, Table};
use avx_channel::{AmdKernelBaseFinder, KernelBaseFinder};
use avx_uarch::CpuProfile;

fn print_table1() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // `cargo bench` passes its own flags, so only the environment
        // is parsed: `AVX_TRIALS` through the repro binary's parser.
        let trials = match Cli::parse(std::iter::empty::<&str>(), |name| std::env::var(name).ok()) {
            Ok(cli) => cli.trials,
            Err(err) => {
                eprintln!("table1_runtime_accuracy: {err}");
                std::process::exit(2);
            }
        };
        let rows = avx_channel::attacks::campaign::table1(
            avx_channel::attacks::campaign::CampaignConfig::new(trials, 0),
        );
        let mut table = Table::new([
            "CPU",
            "Target",
            "Probing",
            "Total",
            "Accuracy",
            "Paper (prob/total/acc)",
        ]);
        for (row, paper_row) in rows.iter().zip(paper::TABLE1.iter()) {
            table.row([
                row.cpu.clone(),
                row.target.to_string(),
                fmt_seconds(row.probing_seconds),
                fmt_seconds(row.total_seconds),
                format!("{:.2} %", row.accuracy.percent()),
                format!("{} / {} / {:.2} %", paper_row.2, paper_row.3, paper_row.4),
            ]);
        }
        println!("\nTable I — derandomization runtime and accuracy (n={trials}):");
        println!("{table}");
    });
}

fn bench(c: &mut Criterion) {
    print_table1();
    let mut group = c.benchmark_group("table1");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("alder_lake_base_attack", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let (mut p, truth) = linux_prober(CpuProfile::alder_lake_i5_12400f(), seed);
            let th = calibrate(&mut p, &truth);
            KernelBaseFinder::new(th).scan(&mut p).base
        })
    });
    group.bench_function("zen3_base_attack", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let (mut p, _) = linux_prober(CpuProfile::zen3_ryzen5_5600x(), seed);
            AmdKernelBaseFinder::for_default_kernel().scan(&mut p).base
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
