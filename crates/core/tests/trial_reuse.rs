//! The reuse contract (ARCHITECTURE.md invariant 16): trials run in a
//! shuffled order on one reused [`TrialState`] — one machine reset
//! from victim to victim, across scenarios, CPU profiles, defenses,
//! schedules and observables regimes, and one set of tile buffers —
//! return exactly the outcomes of the same trials run on fresh states.
//!
//! The trials cover every scenario of the every-axis grid
//! (`grid_fingerprint.rs`) under module-churn, DVFS and co-tenant
//! schedules, masked and re-randomizing defenses, v1 and v2
//! observables, adaptive and fixed sampling, recalibration and
//! confirmation; kernel-base and KPTI victims revisit a fixture, so a
//! machine is reset onto the snapshot it last ran on as well as onto
//! fresh ones.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use avx_channel::attacks::campaign::{
    CampaignConfig, Scenario, TrialFixture, TrialOutcome, TrialState,
};
use avx_channel::fleet::legacy_trial_seed;
use avx_channel::{
    CalibratorKind, ConfirmConfig, DefenseKind, RecalConfig, Sampling, ScheduleKind,
};
use avx_uarch::{CpuProfile, NoiseProfile, ObservablesVersion};

/// The victim environments and attacker policies the trials run under.
fn configs() -> [CampaignConfig; 4] {
    [
        CampaignConfig::new(1, 11)
            .with_defense(DefenseKind::MaskedTranslation)
            .with_schedule(ScheduleKind::ModuleChurn)
            .with_confirmation(ConfirmConfig::default()),
        CampaignConfig::new(1, 22)
            .with_noise(NoiseProfile::LaptopDvfs)
            .with_sampling(Sampling::adaptive())
            .with_calibrator(CalibratorKind::NoiseAware)
            .with_recalibration(RecalConfig::default())
            .with_confirmation(ConfirmConfig::default())
            .with_observables(ObservablesVersion::V2)
            .with_defense(DefenseKind::Rerandomizing)
            .with_schedule(ScheduleKind::DvfsSquare),
        CampaignConfig::new(1, 33)
            .with_noise(NoiseProfile::SmtSibling)
            .with_sampling(Sampling::FixedBudget(3))
            .with_observables(ObservablesVersion::V2)
            .with_schedule(ScheduleKind::CoTenantBurst),
        CampaignConfig::new(1, 44)
            .with_sampling(Sampling::adaptive())
            .with_schedule(ScheduleKind::ModuleChurn)
            .with_defense(DefenseKind::Rerandomizing),
    ]
}

/// Whether `scenario` runs under `config`: the long module, Windows and
/// cloud scans run under the first and third configs only (both
/// observables regimes, a defense and two schedules between them), to
/// keep the test short in debug builds.
fn covered(scenario: Scenario, config: &CampaignConfig) -> bool {
    let long = matches!(
        scenario,
        Scenario::Modules | Scenario::WindowsKaslr | Scenario::Cloud
    );
    !long || matches!(config.seed0, 11 | 33)
}

/// One trial: scenario, profile, config, fixture and trial seed.
struct Unit {
    scenario: Scenario,
    profile: CpuProfile,
    config: CampaignConfig,
    fixture: usize,
    seed: u64,
}

impl Unit {
    fn run(&self, state: &mut TrialState, fixtures: &[TrialFixture]) -> TrialOutcome {
        self.scenario.run_trial_in(
            state,
            &self.profile,
            &fixtures[self.fixture],
            self.seed,
            self.config,
        )
    }
}

/// Every scenario under the configs that [`covered`] gives it, each on
/// a profile that supports it; kernel-base and KPTI trials run twice
/// per config, the second time on the same fixture under another trial
/// seed.
fn units(fixtures: &mut Vec<TrialFixture>) -> Vec<Unit> {
    let profiles = [
        CpuProfile::alder_lake_i5_12400f(),
        CpuProfile::zen3_ryzen5_5600x(),
    ];
    let mut units = Vec::new();
    for (c, config) in configs().into_iter().enumerate() {
        for scenario in Scenario::ALL {
            if !covered(scenario, &config) {
                continue;
            }
            let profile = profiles
                .iter()
                .find(|p| scenario.supported_on(p))
                .expect("every scenario runs on one of the profiles");
            let seed = legacy_trial_seed(config.seed0, scenario.seed_salt(), 0);
            fixtures.push(scenario.build_fixture(seed));
            let repeats = match scenario {
                Scenario::KernelBase | Scenario::Kpti => 2,
                _ => 1,
            };
            for r in 0..repeats {
                units.push(Unit {
                    scenario,
                    profile: profile.clone(),
                    config,
                    fixture: fixtures.len() - 1,
                    seed: seed + 1000 * (c as u64 + 1) * r,
                });
            }
        }
    }
    units
}

/// Every field, floats printed to the shortest round-tripping string:
/// equal strings mean bit-equal outcomes.
fn fingerprint(outcome: &TrialOutcome) -> String {
    format!("{outcome:?}")
}

#[test]
fn shuffled_trials_on_one_reused_state_equal_fresh_runs() {
    let mut fixtures = Vec::new();
    let units = units(&mut fixtures);
    let fresh: Vec<String> = units
        .iter()
        .map(|u| fingerprint(&u.run(&mut TrialState::new(), &fixtures)))
        .collect();
    for order_seed in [1u64, 2] {
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(order_seed));
        let mut state = TrialState::new();
        for &i in &order {
            let u = &units[i];
            assert_eq!(
                fingerprint(&u.run(&mut state, &fixtures)),
                fresh[i],
                "order {order_seed}: {} on {} under {:?}",
                u.scenario,
                u.profile.model,
                u.config
            );
        }
    }
}
