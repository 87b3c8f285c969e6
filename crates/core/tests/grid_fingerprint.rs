//! A value pin over every campaign axis: the rows of four small grids,
//! which between them run all eight scenarios under every sampling
//! policy, both calibrators, recalibration and confirmation on and
//! off, both observables regimes, both defenses and two schedules, are
//! hashed into one constant.
//!
//! The golden rows in `tests/accuracy_regression.rs` pin the
//! undefended, unscheduled paper cells; this test also pins the
//! defended and scheduled Cloud, Windows and user-space rows, so a
//! change to how a trial installs its victim or tunes its attacker
//! cannot move any row unnoticed. When a change is *meant* to move
//! rows, re-record [`PINNED`] from the failure message and say why.

use avx_channel::attacks::campaign::{Campaign, CampaignConfig, CampaignRow, Scenario};
use avx_channel::{
    CalibratorKind, ConfirmConfig, DefenseKind, RecalConfig, Sampling, ScheduleKind,
};
use avx_uarch::{CpuProfile, NoiseProfile, ObservablesVersion};

/// FNV-1a hash of the four grids' [`fingerprint`]s, in case order.
const PINNED: u64 = 0xab11_ce14_9490_e798;

/// Every field of every row, floats printed to the shortest string that
/// round-trips — equal strings mean bit-equal rows (the same fingerprint
/// as `parallel_props.rs`).
fn fingerprint(rows: &[CampaignRow]) -> String {
    format!("{rows:#?}")
}

/// 64-bit FNV-1a: a hash that is fixed by its definition, not by the
/// toolchain, so the pin survives compiler upgrades.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One trial per cell of all eight scenarios, each on a profile that
/// supports it (AMD base on Zen 3, the rest on Alder Lake).
fn grid(config: CampaignConfig) -> Campaign {
    Campaign::new(
        vec![
            CpuProfile::alder_lake_i5_12400f(),
            CpuProfile::zen3_ryzen5_5600x(),
        ],
        Scenario::ALL.to_vec(),
        config,
    )
}

/// The four grids. Between them every knob takes each value at least
/// once: `FixedBudget` is the only policy with a strategy override, and
/// the re-randomizing cloud guests draw their slides from the guest's
/// machine seed.
fn cases() -> [CampaignConfig; 4] {
    [
        CampaignConfig::new(1, 101),
        CampaignConfig::new(1, 202)
            .with_noise(NoiseProfile::LaptopDvfs)
            .with_sampling(Sampling::FixedBudget(4))
            .with_calibrator(CalibratorKind::NoiseAware)
            .with_recalibration(RecalConfig::default())
            .with_confirmation(ConfirmConfig::default())
            .with_observables(ObservablesVersion::V2)
            .with_defense(DefenseKind::Rerandomizing)
            .with_schedule(ScheduleKind::DvfsSquare),
        CampaignConfig::new(1, 303)
            .with_noise(NoiseProfile::SmtSibling)
            .with_sampling(Sampling::adaptive())
            .with_confirmation(ConfirmConfig::default())
            .with_defense(DefenseKind::MaskedTranslation)
            .with_schedule(ScheduleKind::ModuleChurn),
        CampaignConfig::new(1, 404)
            .with_noise(NoiseProfile::NoisyNeighbor)
            .with_sampling(Sampling::adaptive())
            .with_calibrator(CalibratorKind::NoiseAware)
            .with_recalibration(RecalConfig::default())
            .with_observables(ObservablesVersion::V2),
    ]
}

#[test]
fn every_axis_grid_rows_match_the_pinned_fingerprint() {
    let mut text = String::new();
    for config in cases() {
        let rows = grid(config).run();
        assert_eq!(rows.len(), Scenario::ALL.len(), "one row per scenario");
        text.push_str(&fingerprint(&rows));
    }
    let hash = fnv1a(text.as_bytes());
    assert_eq!(
        hash, PINNED,
        "campaign rows moved: fingerprint hash is {hash:#018x}\n{text}"
    );
}
