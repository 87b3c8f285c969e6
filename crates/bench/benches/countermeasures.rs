//! §V-A — software countermeasures: FLARE and FGKASLR.
//!
//! Paper: FLARE's dummy mappings defeat the page-table attack but not
//! the TLB attack; FGKASLR still leaks the base, and TLB template
//! attacks locate function pages despite the shuffle.

use std::sync::Once;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use avx_channel::defense::point_checks::{evaluate_fgkaslr, evaluate_flare};
use avx_uarch::CpuProfile;

fn print_countermeasures() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        println!("\n§V-A — countermeasure evaluation:");
        let flare = evaluate_flare(CpuProfile::alder_lake_i5_12400f(), 5);
        println!("  {flare}");
        assert!(flare.page_table_defeated);
        assert!(flare.tlb_correct, "the paper's bypass must hold");

        let fg = evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), 6, "commit_creds");
        println!("  {fg}");
        assert!(fg.base_correct);
        assert!(fg.function_page_correct);
        println!();
    });
}

fn bench(c: &mut Criterion) {
    print_countermeasures();
    let mut group = c.benchmark_group("countermeasures");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("flare_tlb_bypass", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            evaluate_flare(CpuProfile::alder_lake_i5_12400f(), seed).tlb_correct
        })
    });
    group.bench_function("fgkaslr_template_attack", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), seed, "commit_creds")
                .function_page_correct
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
