//! Release-mode throughput smoke (tier-1 CI, `--include-ignored`).
//!
//! Guards the probe hot path against silent regressions: the
//! quiet-profile Fig. 4 sweep and the noise-grid campaign must stay
//! above conservative probes/sec floors, in both observables regimes.
//! Absolute throughput is machine-dependent, so the floors are set well
//! below the recording machine's numbers (`BENCH_campaign.json`: ~15M+
//! probes/s sweeps, ~10M+ grid; the pre-PR-3 pipeline did ~5.1M grid on
//! the same box) to tolerate slower shared CI runners — they therefore
//! catch *catastrophic* regressions (per-probe allocation storms,
//! quadratic cache scans, debug-mode benches), not a subtle partial
//! revert; the recorded trajectory in `BENCH_campaign.json` is the
//! fine-grained cross-PR signal. Run-to-run variance on one box spans
//! tens of percent (the recording machine's Fig. 4 sweep ranged
//! 12.4–18.5M probes/s across otherwise-identical runs), which is why
//! each gate keeps the better of two measurements and the floors sit at
//! a fraction of the recorded numbers.

use std::time::Instant;

use avx_channel::attacks::campaign::{Campaign, CampaignConfig};
use avx_channel::{KernelBaseFinder, Prober, Threshold};
use avx_uarch::{CpuProfile, ObservablesVersion};

/// One end-to-end measurement of the full noise-grid campaign.
#[derive(Clone, Copy, Debug)]
struct CampaignThroughput {
    /// Campaign rows produced.
    rows: usize,
    /// Raw simulated probes issued across all rows.
    probes: u64,
    /// Probes per wall-clock second — the headline throughput metric.
    probes_per_sec: f64,
}

/// Runs the full attack × CPU × noise grid once under `observables` and
/// reports throughput. v1 is the bit-exact paper stream; the v2
/// measurement is the perf target the batched ziggurat kernel is
/// accountable to.
fn measure_noise_grid(trials: u64, observables: ObservablesVersion) -> CampaignThroughput {
    let campaign =
        Campaign::noise_grid(CampaignConfig::new(trials, 0).with_observables(observables));
    let start = Instant::now();
    let rows = campaign.run();
    let wall_seconds = start.elapsed().as_secs_f64();
    let probes: u64 = rows.iter().map(|r| r.probes).sum();
    CampaignThroughput {
        rows: rows.len(),
        probes,
        probes_per_sec: probes as f64 / wall_seconds.max(1e-9),
    }
}

/// One measurement of the quiet-profile Fig. 4 sweep (the paper's
/// 512 × 2 MiB kernel scan), repeated until ~`min_probes` probes ran.
#[derive(Clone, Copy, Debug)]
struct SweepThroughput {
    /// Observables regime the sweep ran under.
    observables: ObservablesVersion,
    /// Raw probes issued.
    probes: u64,
    /// Wall-clock seconds.
    wall_seconds: f64,
    /// Probes per wall-clock second.
    probes_per_sec: f64,
}

/// Measures the quiet-profile Fig. 4 sweep throughput under
/// `observables`: one fresh system, then repeated full 512-slot scans
/// until at least `min_probes` raw probes have been issued. The sweep
/// runs noise-free in either regime (quiet prober), so the v2 number
/// isolates the batched block plumbing's overhead from the sampler
/// speedup.
fn measure_fig4_sweep(min_probes: u64, observables: ObservablesVersion) -> SweepThroughput {
    let (mut p, truth) = avx_bench::quiet_linux_prober(CpuProfile::alder_lake_i5_12400f(), 4);
    p.machine_mut().set_observables(observables);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    let finder = KernelBaseFinder::new(th);
    let start = Instant::now();
    let before = p.probes_issued();
    while p.probes_issued() - before < min_probes {
        let scan = finder.scan(&mut p);
        assert_eq!(
            scan.base,
            Some(truth.kernel_base),
            "sweep must stay correct"
        );
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let probes = p.probes_issued() - before;
    SweepThroughput {
        observables,
        probes,
        wall_seconds,
        probes_per_sec: probes as f64 / wall_seconds.max(1e-9),
    }
}

/// Conservative sweep floor in probes per second (see module docs for
/// what this can and cannot catch).
const SWEEP_FLOOR_PROBES_PER_SEC: f64 = 3_000_000.0;

/// Conservative noise-grid floor. The grid exercises every attack ×
/// noise cell (calibration, adaptive sampling, heavy noise rows), so it
/// runs slower than the quiet sweep; the floor is scaled accordingly.
const GRID_FLOOR_PROBES_PER_SEC: f64 = 2_000_000.0;

fn best_sweep(observables: ObservablesVersion) -> SweepThroughput {
    // Two measurements; keep the better one to shrug off scheduler
    // hiccups on shared runners.
    let a = measure_fig4_sweep(128 * 1024, observables);
    let b = measure_fig4_sweep(128 * 1024, observables);
    if a.probes_per_sec >= b.probes_per_sec {
        a
    } else {
        b
    }
}

fn best_grid(observables: ObservablesVersion) -> CampaignThroughput {
    let a = measure_noise_grid(1, observables);
    let b = measure_noise_grid(1, observables);
    if a.probes_per_sec >= b.probes_per_sec {
        a
    } else {
        b
    }
}

#[test]
#[ignore = "release-mode perf gate; debug builds are expected to be slower (CI runs with --release --include-ignored)"]
fn fig4_sweep_throughput_stays_above_floor() {
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        let best = best_sweep(observables).probes_per_sec;
        assert!(
            best >= SWEEP_FLOOR_PROBES_PER_SEC,
            "Fig. 4 sweep ({observables}) throughput regressed: \
             {best:.0} probes/s < floor {SWEEP_FLOOR_PROBES_PER_SEC:.0}"
        );
    }
}

#[test]
#[ignore = "release-mode perf gate; debug builds are expected to be slower (CI runs with --release --include-ignored)"]
fn noise_grid_throughput_stays_above_floor() {
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        let best = best_grid(observables).probes_per_sec;
        assert!(
            best >= GRID_FLOOR_PROBES_PER_SEC,
            "noise-grid ({observables}) throughput regressed: \
             {best:.0} probes/s < floor {GRID_FLOOR_PROBES_PER_SEC:.0}"
        );
    }
}

#[test]
fn bench_json_flag_produces_valid_record() {
    // The sweep measurement works end to end (small n; runs in debug
    // CI too) and times a non-empty run.
    let sweep = measure_fig4_sweep(2048, ObservablesVersion::V1);
    assert!(sweep.probes >= 2048);
    assert!(sweep.wall_seconds > 0.0);
}

#[test]
fn sweep_measurement_reports_positive_throughput() {
    let sweep = measure_fig4_sweep(1024, ObservablesVersion::V1);
    assert!(sweep.probes >= 1024);
    assert!(sweep.probes_per_sec > 0.0);
}

#[test]
fn v2_sweep_measurement_reports_positive_throughput() {
    let sweep = measure_fig4_sweep(1024, ObservablesVersion::V2);
    assert_eq!(sweep.observables, ObservablesVersion::V2);
    assert!(sweep.probes >= 1024);
    assert!(sweep.probes_per_sec > 0.0);
}

/// Absolute probe count of the n=2 noise grid under the bit-exact v1
/// regime — pinned at this value since PR 3 (`BENCH_campaign.json`).
/// Any drift means the default probe stream itself moved.
const GRID_PROBES_V1: u64 = 10_850_014;

/// Absolute probe count of the n=2 noise grid under the batched
/// ziggurat v2 regime, pinned since the regime was re-goldened (PR 6).
const GRID_PROBES_V2: u64 = 11_075_285;

#[test]
fn grid_measurement_pins_probe_counts_per_regime() {
    // The probe *count* of a fixed grid is deterministic per regime —
    // wall-clock varies, the simulated work does not. The absolute pins
    // double as the schedule axis's no-schedule canary: the default
    // grid carries `ScheduleKind::None`, so these counts moving would
    // mean the event scheduler leaked into the unscheduled path
    // (invariant 13).
    let v1 = measure_noise_grid(2, ObservablesVersion::V1);
    assert_eq!(v1.probes, GRID_PROBES_V1, "v1 grid probe count moved");
    let v2 = measure_noise_grid(2, ObservablesVersion::V2);
    assert_eq!(v2.probes, GRID_PROBES_V2, "v2 grid probe count moved");
    assert_eq!(v1.rows, v2.rows, "regimes run the same grid shape");
}
