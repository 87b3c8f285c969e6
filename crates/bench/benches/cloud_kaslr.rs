//! §IV-H — KASLR breaks in cloud computing systems.
//!
//! Paper: EC2 base via the aws-kernel trampoline (offset 0xe00000) in
//! 0.03 ms (+1.14 ms modules); GCE base in 0.08 ms (+2.7 ms modules);
//! Azure (Windows) 18 bits in 2.06 s.

use std::sync::Once;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use avx_bench::paper;
use avx_channel::attacks::campaign::CampaignConfig;
use avx_channel::attacks::cloud::run_scenario;
use avx_channel::report::{fmt_seconds, Table};
use avx_os::cloud::CloudScenario;

fn print_cloud() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        println!("\n§IV-H — cloud KASLR breaks:");
        let mut table = Table::new(["provider", "method", "base", "runtime", "paper"]);
        let paper_base = [
            paper::CLOUD_SECONDS[0],
            paper::CLOUD_SECONDS[2],
            paper::CLOUD_SECONDS[4],
        ];
        for (i, scenario) in CloudScenario::all(77).iter().enumerate() {
            let report = run_scenario(scenario, 7 + i as u64, &CampaignConfig::default());
            assert!(report.base_correct, "{report}");
            table.row([
                report.provider.to_string(),
                report.method.to_string(),
                report.base.map_or("-".into(), |b| format!("{b}")),
                fmt_seconds(report.base_seconds),
                fmt_seconds(paper_base[i]),
            ]);
            if let (Some(n), Some(s)) = (report.modules_detected, report.modules_seconds) {
                println!("  ({}: {n} modules in {})", report.provider, fmt_seconds(s));
            }
        }
        println!("{table}");
    });
}

fn bench(c: &mut Criterion) {
    print_cloud();
    let quiet = CampaignConfig::default();
    let mut group = c.benchmark_group("cloud_kaslr");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("ec2_trampoline_break", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_scenario(&CloudScenario::amazon_ec2(seed), seed, &quiet).base_correct
        })
    });
    group.bench_function("gce_direct_break", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_scenario(&CloudScenario::google_gce(seed), seed, &quiet).base_correct
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
