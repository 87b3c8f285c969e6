//! End-to-end campaign throughput measurement.
//!
//! The paper's headline numbers are wall-clock (Table I, Fig. 4/5
//! sweeps), so *simulator* throughput — probes per second and trials per
//! second of the full attack × CPU × noise grid — is what gates scaling
//! the campaign matrix. This module is the measurement the
//! `campaign_throughput` bench and the release throughput smoke share.
//! Performance claims use the repository benchmark (`perfbench/`)
//! instead; `BENCH_campaign.json` is a frozen record of this module's
//! retired JSON writer.

use std::time::Instant;

use avx_channel::attacks::campaign::{Campaign, CampaignConfig};
use avx_channel::{KernelBaseFinder, Prober, Threshold};
use avx_uarch::{CpuProfile, ObservablesVersion};

/// One end-to-end measurement of the full noise-grid campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignThroughput {
    /// Observables regime the grid ran under.
    pub observables: ObservablesVersion,
    /// Requested trials per cell (heavyweight cells are capped by
    /// [`avx_channel::attacks::campaign::Scenario::max_trials`]).
    pub trials_per_cell: u64,
    /// Wall-clock seconds of the whole grid run.
    pub wall_seconds: f64,
    /// Campaign rows produced.
    pub rows: usize,
    /// Raw simulated probes issued across all rows.
    pub probes: u64,
    /// Trials executed across all rows (success records of the base
    /// scenarios; per-module/sample records count their trial once).
    pub trials: u64,
    /// Probes per wall-clock second — the headline throughput metric.
    pub probes_per_sec: f64,
    /// Trials per wall-clock second.
    pub trials_per_sec: f64,
}

/// Runs the full attack × CPU × noise grid once under `observables` and
/// reports throughput. v1 is the bit-exact paper stream; the v2
/// measurement is the perf target the batched ziggurat kernel is
/// accountable to.
#[must_use]
pub fn measure_noise_grid(trials: u64, observables: ObservablesVersion) -> CampaignThroughput {
    let campaign =
        Campaign::noise_grid(CampaignConfig::new(trials, 0).with_observables(observables));
    let start = Instant::now();
    let rows = campaign.run();
    let wall_seconds = start.elapsed().as_secs_f64();
    let probes: u64 = rows.iter().map(|r| r.probes).sum();
    // The rows report their own trial counts, so the metric can never
    // drift from the engine's cell-selection/clamping rules.
    let trials_total: u64 = rows.iter().map(|r| r.trials).sum();
    CampaignThroughput {
        observables,
        trials_per_cell: trials,
        wall_seconds,
        rows: rows.len(),
        probes,
        trials: trials_total,
        probes_per_sec: probes as f64 / wall_seconds.max(1e-9),
        trials_per_sec: trials_total as f64 / wall_seconds.max(1e-9),
    }
}

/// One measurement of the quiet-profile Fig. 4 sweep (the paper's
/// 512 × 2 MiB kernel scan), repeated until ~`min_probes` probes ran.
#[derive(Clone, Copy, Debug)]
pub struct SweepThroughput {
    /// Observables regime the sweep ran under.
    pub observables: ObservablesVersion,
    /// Raw probes issued.
    pub probes: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Probes per wall-clock second.
    pub probes_per_sec: f64,
}

/// Measures the quiet-profile Fig. 4 sweep throughput under
/// `observables`: one fresh system, then repeated full 512-slot scans
/// until at least `min_probes` raw probes have been issued. The sweep
/// runs noise-free in either regime (quiet prober), so the v2 number
/// isolates the batched block plumbing's overhead from the sampler
/// speedup.
#[must_use]
pub fn measure_fig4_sweep(min_probes: u64, observables: ObservablesVersion) -> SweepThroughput {
    let (mut p, truth) = crate::quiet_linux_prober(CpuProfile::alder_lake_i5_12400f(), 4);
    p.machine_mut().set_observables(observables);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    let finder = KernelBaseFinder::new(th);
    let start = Instant::now();
    let before = p.probes_issued();
    let mut scans = 0u64;
    while p.probes_issued() - before < min_probes {
        let scan = finder.scan(&mut p);
        assert_eq!(
            scan.base,
            Some(truth.kernel_base),
            "sweep must stay correct"
        );
        scans += 1;
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let probes = p.probes_issued() - before;
    let _ = scans;
    SweepThroughput {
        observables,
        probes,
        wall_seconds,
        probes_per_sec: probes as f64 / wall_seconds.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
