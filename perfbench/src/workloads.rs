//! The three benchmark workloads, their measured calls and their
//! deterministic outputs.
//!
//! Every workload is a closed-loop batch job: a fixed amount of work is
//! generated from the seed and runs to completion inside one public
//! engine call (`Campaign::run` or `Fleet::run`), with the rayon shim's
//! default of one worker per CPU the process may use.

use avx_channel::attacks::campaign::{
    Campaign, CampaignConfig, CampaignRow, Scenario, TrialFixture,
};
use avx_channel::fleet::{legacy_trial_seed, victim_seed, Fleet, FleetConfig, FleetReducer};
use avx_channel::{CalibratorKind, ConfirmConfig, RecalConfig, Sampling, ScheduleKind};
use avx_uarch::{CpuProfile, ObservablesVersion};
use rayon::prelude::*;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The attack × CPU × noise grid (`Campaign::noise_grid`) at eight
    /// trials per cell under the default attacker.
    PaperGrid,
    /// 10⁵ kernel-base victims streamed through `Fleet`.
    FleetBase,
    /// Adaptive, self-recalibrating, confirming attacker against
    /// event-driven victims (three schedules × four scenarios).
    ClosedLoopVictims,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::FleetBase,
        Workload::ClosedLoopVictims,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::FleetBase => "fleet-base",
            Workload::ClosedLoopVictims => "closed-loop-victims",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Observables regime the workload's machines run under.
    pub fn observables(self) -> ObservablesVersion {
        match self {
            Workload::PaperGrid | Workload::FleetBase => ObservablesVersion::V1,
            Workload::ClosedLoopVictims => ObservablesVersion::V2,
        }
    }

    /// The campaign a campaign workload runs (`None` for the fleet).
    ///
    /// `--seed n` becomes the campaign's first layout seed `n · 2³²`:
    /// seed 0 is the historical `seed0 = 0` grid, and distinct seeds
    /// never share a layout (scenario salts and trial indices stay far
    /// below 2³²).
    pub fn campaign(self, seed: u64) -> Option<Campaign> {
        let seed0 = seed.wrapping_mul(1 << 32);
        match self {
            Workload::PaperGrid => Some(Campaign::noise_grid(CampaignConfig::new(8, seed0))),
            Workload::FleetBase => None,
            Workload::ClosedLoopVictims => {
                let config = CampaignConfig::new(1024, seed0)
                    .with_observables(ObservablesVersion::V2)
                    .with_sampling(Sampling::adaptive())
                    .with_calibrator(CalibratorKind::NoiseAware)
                    .with_recalibration(RecalConfig::default())
                    .with_confirmation(ConfirmConfig::default());
                Some(
                    Campaign::new(
                        vec![CpuProfile::alder_lake_i5_12400f()],
                        vec![
                            Scenario::KernelBase,
                            Scenario::Kpti,
                            Scenario::UserSpace,
                            Scenario::Modules,
                        ],
                        config,
                    )
                    .with_schedules(vec![
                        ScheduleKind::DvfsSquare,
                        ScheduleKind::CoTenantBurst,
                        ScheduleKind::ModuleChurn,
                    ]),
                )
            }
        }
    }

    /// The fleet the fleet workload runs (`None` for campaigns);
    /// `--seed n` is the fleet's campaign seed.
    pub fn fleet(self, seed: u64) -> Option<Fleet> {
        (self == Workload::FleetBase).then(|| {
            Fleet::new(
                Scenario::KernelBase,
                CpuProfile::alder_lake_i5_12400f(),
                CampaignConfig::default(),
                FleetConfig::new(100_000).with_seed(seed),
            )
        })
    }

    /// Builds the workload's victim fixtures through
    /// `Scenario::build_fixture`, one pool per scenario, exactly as the
    /// measured call builds them for itself. Returns `(scenario, pool)`
    /// in the measured call's order.
    pub fn build_pools(self, seed: u64) -> Vec<(Scenario, Vec<TrialFixture>)> {
        build_pools_with(self, seed, |scenario, seed| scenario.build_fixture(seed))
    }

    /// Runs the measured call once and returns its deterministic output.
    pub fn execute(self, seed: u64) -> Output {
        if let Some(campaign) = self.campaign(seed) {
            Output::from_rows(&campaign.run())
        } else {
            let fleet = self
                .fleet(seed)
                .expect("every workload is a campaign or a fleet");
            let report = fleet
                .run()
                .expect("a checkpoint-free fleet run cannot fail");
            Output::from_fleet(&report.aggregate)
        }
    }
}

/// The (scenario, trial seeds) of every fixture pool the workload's
/// measured call builds, fixture `i` of a pool built from `seeds[i]`.
pub fn pool_seeds(workload: Workload, seed: u64) -> Vec<(Scenario, Vec<u64>)> {
    if let Some(campaign) = workload.campaign(seed) {
        campaign
            .scenarios
            .iter()
            .map(|&scenario| {
                if !campaign.profiles.iter().any(|p| scenario.supported_on(p)) {
                    return (scenario, Vec::new());
                }
                let trials = campaign.config.trials.clamp(1, scenario.max_trials());
                let seeds = (0..trials)
                    .map(|i| legacy_trial_seed(campaign.config.seed0, scenario.seed_salt(), i))
                    .collect();
                (scenario, seeds)
            })
            .collect()
    } else {
        let fleet = workload.fleet(seed).expect("campaign or fleet");
        let salt = fleet.scenario.seed_salt();
        let seeds = (0..fleet.config.pool_size())
            .map(|i| victim_seed(fleet.config.campaign_seed, salt, i))
            .collect();
        vec![(fleet.scenario, seeds)]
    }
}

/// [`Workload::build_pools`] with a caller-supplied builder (the traced
/// run wraps each build in a span). Pools are built rayon-parallel,
/// one scenario after another, like `Campaign::run` and
/// `Fleet::build_pool` do.
pub fn build_pools_with<F>(
    workload: Workload,
    seed: u64,
    build: F,
) -> Vec<(Scenario, Vec<TrialFixture>)>
where
    F: Fn(Scenario, u64) -> TrialFixture + Sync,
{
    pool_seeds(workload, seed)
        .into_iter()
        .map(|(scenario, seeds)| {
            let pool = seeds.into_par_iter().map(|s| build(scenario, s)).collect();
            (scenario, pool)
        })
        .collect()
}

/// The deterministic outputs of one measured call. Two runs of the same
/// workload and seed must produce equal outputs, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    /// Simulated probes issued — the work canary.
    pub probes: u64,
    /// Pooled success records.
    pub hits: u64,
    /// Pooled records.
    pub records: u64,
    /// Trials (campaign) or victims (fleet) run.
    pub trials: u64,
    /// Mean simulated attack time per trial at the profile clock, ms
    /// (`CampaignRow::total_seconds`; campaigns only).
    pub sim_attack_ms: Option<f64>,
    /// One line per campaign row, or the fleet aggregate line.
    pub lines: Vec<String>,
}

impl Output {
    /// Outputs of a campaign run.
    pub fn from_rows(rows: &[CampaignRow]) -> Self {
        let trials: u64 = rows.iter().map(|r| r.trials).sum();
        let sim_seconds: f64 = rows.iter().map(|r| r.total_seconds * r.trials as f64).sum();
        Self {
            probes: rows.iter().map(|r| r.probes).sum(),
            hits: rows.iter().map(|r| r.accuracy.successes).sum(),
            records: rows.iter().map(|r| r.accuracy.total).sum(),
            trials,
            sim_attack_ms: Some(sim_seconds / trials.max(1) as f64 * 1e3),
            lines: rows.iter().map(row_line).collect(),
        }
    }

    /// Outputs of a fleet run.
    pub fn from_fleet(aggregate: &FleetReducer) -> Self {
        Self {
            probes: aggregate.probes,
            hits: aggregate.hits,
            records: aggregate.records,
            trials: aggregate.victims,
            sim_attack_ms: None,
            lines: vec![format!("fleet aggregate: {aggregate}")],
        }
    }

    /// Pooled accuracy, percent.
    pub fn accuracy_pct(&self) -> f64 {
        self.hits as f64 * 100.0 / self.records.max(1) as f64
    }

    /// FNV-1a digest of every output line — what the pins compare.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
}

/// The pinned form of one campaign row: its cell tag, per-row accuracy,
/// probe count and simulated runtimes with every digit.
fn row_line(row: &CampaignRow) -> String {
    format!(
        "{} {} [{}/{}/{}/{}/{}/{}] acc={}/{} probes={} probing_s={:?} total_s={:?}",
        row.cpu,
        row.target,
        row.noise,
        row.sampling,
        row.calibrator,
        row.observables,
        row.defense,
        row.schedule,
        row.accuracy.successes,
        row.accuracy.total,
        row.probes,
        row.probing_seconds,
        row.total_seconds,
    )
}

/// The n = 2 grid probe-count canaries (seed 0): the ROADMAP's
/// bit-identity contract for both observables regimes.
pub const GRID_CANARIES: [(ObservablesVersion, u64); 2] = [
    (ObservablesVersion::V1, 10_850_014),
    (ObservablesVersion::V2, 11_075_285),
];

/// Runs the n = 2 noise grid under `observables` and returns its probe
/// count.
pub fn grid_canary(observables: ObservablesVersion) -> u64 {
    Campaign::noise_grid(CampaignConfig::new(2, 0).with_observables(observables))
        .run()
        .iter()
        .map(|r| r.probes)
        .sum()
}
