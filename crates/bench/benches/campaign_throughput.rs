//! End-to-end campaign throughput: probes/sec and trials/sec over the
//! full attack × CPU × noise grid, plus the quiet Fig. 4 sweep.
//!
//! The same measurements back the release throughput smoke
//! (`tests/throughput_smoke.rs`). Performance claims use the repository
//! benchmark, `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};

use avx_bench::throughput::{measure_fig4_sweep, measure_noise_grid};
use avx_uarch::ObservablesVersion;

fn noise_grid_throughput(c: &mut Criterion) {
    // One up-front standardized measurement with the headline metrics.
    let grid = measure_noise_grid(2, ObservablesVersion::V1);
    println!(
        "campaign_throughput/noise_grid(n=2): {} rows, {} probes, {:.2} s \
         → {:.0} probes/s, {:.1} trials/s",
        grid.rows, grid.probes, grid.wall_seconds, grid.probes_per_sec, grid.trials_per_sec
    );

    let mut group = c.benchmark_group("campaign_throughput");
    group
        .sample_size(3)
        .warm_up_time(std::time::Duration::from_millis(100))
        .measurement_time(std::time::Duration::from_secs(8));
    group.bench_function("noise_grid_n2", |b| {
        b.iter(|| measure_noise_grid(2, ObservablesVersion::V1))
    });
    group.finish();
}

fn fig4_sweep_throughput(c: &mut Criterion) {
    let sweep = measure_fig4_sweep(64 * 1024, ObservablesVersion::V1);
    println!(
        "campaign_throughput/fig4_sweep: {} probes in {:.3} s → {:.0} probes/s",
        sweep.probes, sweep.wall_seconds, sweep.probes_per_sec
    );

    let mut group = c.benchmark_group("campaign_throughput");
    group
        .sample_size(5)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("fig4_sweep_64k_probes", |b| {
        b.iter(|| measure_fig4_sweep(64 * 1024, ObservablesVersion::V1))
    });
    group.finish();
}

criterion_group!(benches, noise_grid_throughput, fig4_sweep_throughput);
criterion_main!(benches);
