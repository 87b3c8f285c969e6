//! # avx-bench — the reproduction harness
//!
//! Shared machinery for the Criterion benches (one per table/figure of
//! the paper) and the `repro` binary that regenerates every number in
//! `EXPERIMENTS.md`.
//!
//! The `paper` module records the published values so every bench can
//! print a paper-vs-measured comparison next to its timing output.

pub mod throughput;

use avx_channel::attacks::campaign::{CampaignConfig, Scenario};
use avx_channel::attacks::KaslrScan;
use avx_channel::{
    CalibratorKind, ConfirmConfig, DefenseKind, KernelBaseFinder, RecalConfig, Sampling,
    ScheduleKind, SimProber, Threshold,
};
use avx_os::linux::{LinuxConfig, LinuxSystem, LinuxTruth};
use avx_uarch::{CpuProfile, NoiseModel, NoiseProfile, ObservablesVersion, VictimSchedule};

/// The paper's published numbers, used for side-by-side reporting.
pub mod paper {
    /// Fig. 2 masked-load means on the i7-1065G7 (cycles):
    /// USER-M, USER-U, KERNEL-M, KERNEL-U.
    pub const FIG2_MEANS: [f64; 4] = [13.0, 110.0, 93.0, 107.0];
    /// Fig. 2 `ASSISTS.ANY` per probe.
    pub const FIG2_ASSISTS: [u64; 4] = [0, 1, 1, 1];
    /// Fig. 2 completed walks per probe.
    pub const FIG2_WALKS: [u64; 4] = [0, 2, 0, 2];
    /// Fig. 3 masked-load means (r--, r-x, rw-, ---).
    pub const FIG3_LOAD: [f64; 4] = [16.0, 16.0, 16.0, 115.0];
    /// Fig. 3 masked-store means (r--, r-x, rw-, ---).
    pub const FIG3_STORE: [f64; 4] = [82.0, 82.0, 16.0, 96.0];
    /// §III-B P4 on the i9-9900: (TLB hit, TLB miss) cycles.
    pub const P4_HIT_MISS: (f64, f64) = (147.0, 381.0);
    /// §III-B P6 on the i7-1065G7: (masked load, masked store) cycles
    /// on a kernel-mapped page.
    pub const P6_LOAD_STORE: (f64, f64) = (92.0, 76.0);
    /// Fig. 4 bands on the i5-12400F: (mapped, unmapped) cycles.
    pub const FIG4_BANDS: (f64, f64) = (93.0, 107.0);
    /// Table I rows: (cpu, target, probing, total, accuracy %).
    pub const TABLE1: [(&str, &str, &str, &str, f64); 5] = [
        ("Intel Core i5-12400F", "Base", "67 µs", "0.28 ms", 99.60),
        (
            "Intel Core i5-12400F",
            "Modules",
            "2.43 ms",
            "2.62 ms",
            99.84,
        ),
        ("Intel Core i7-1065G7", "Base", "0.26 ms", "0.57 ms", 99.29),
        (
            "Intel Core i7-1065G7",
            "Modules",
            "8.42 ms",
            "8.64 ms",
            99.72,
        ),
        ("AMD Ryzen 5 5600X", "Base", "1.91 ms", "2.90 ms", 99.48),
    ];
    /// §IV-C: loaded modules / unique sizes / accuracy %.
    pub const MODULES: (usize, usize, f64) = (125, 19, 99.72);
    /// §IV-D trampoline offset observed on Ubuntu.
    pub const KPTI_TRAMPOLINE: u64 = 0xc0_0000;
    /// §IV-F runtimes: (masked-load scan, masked-store scan) seconds.
    pub const SGX_SCAN_SECONDS: (f64, f64) = (51.0, 44.0);
    /// §IV-G: Windows region scan ≈ 60 ms; KVAS scan 8 s at 100 %.
    pub const WINDOWS_REGION_MS: f64 = 60.0;
    /// §IV-H cloud runtimes (seconds): EC2 base, EC2 modules, GCE base,
    /// GCE modules, Azure 18-bit scan.
    pub const CLOUD_SECONDS: [f64; 5] = [0.03e-3, 1.14e-3, 0.08e-3, 2.7e-3, 2.06];
    /// §V-B survey: 6 of 4104 executables contain masked ops.
    pub const SURVEY: (usize, usize) = (6, 4104);
}

/// Builds a Linux machine + prober on `profile`, with realistic noise.
#[must_use]
pub fn linux_prober(profile: CpuProfile, seed: u64) -> (SimProber, LinuxTruth) {
    linux_prober_with(LinuxConfig::seeded(seed), profile, seed)
}

/// Builds a Linux machine + prober with custom config.
#[must_use]
pub fn linux_prober_with(
    config: LinuxConfig,
    profile: CpuProfile,
    seed: u64,
) -> (SimProber, LinuxTruth) {
    let sys = LinuxSystem::build(config);
    let (machine, truth) = sys.into_machine(profile, seed.wrapping_add(0x9e37_79b9));
    (SimProber::new(machine), truth)
}

/// Same, with timing noise disabled (deterministic mean extraction).
#[must_use]
pub fn quiet_linux_prober(profile: CpuProfile, seed: u64) -> (SimProber, LinuxTruth) {
    let (mut p, truth) = linux_prober(profile, seed);
    p.machine_mut().set_noise(NoiseModel::none());
    (p, truth)
}

/// Calibrates the §IV-B threshold on a fresh prober.
pub fn calibrate(p: &mut SimProber, truth: &LinuxTruth) -> Threshold {
    Threshold::calibrate(p, truth.user.calibration, 16)
}

/// Gaussian-jitter-only noise for the §III characterization benches:
/// the paper measures those distributions on a quiescent machine where
/// interrupt spikes are rare enough to be filtered, hence σ ≈ 1 cycle.
/// The end-to-end attack benches keep the full noise model.
#[must_use]
pub fn sigma_only_noise(profile: &CpuProfile) -> NoiseModel {
    NoiseModel::new(profile.timing.noise_sigma, 0.0, (0.0, 0.0))
}

/// Number of trials for accuracy sweeps; override with the
/// `AVX_TRIALS` environment variable (the paper uses n = 10000, which
/// is minutes of simulation — the default keeps `cargo bench` snappy).
#[must_use]
pub fn accuracy_trials() -> u64 {
    std::env::var("AVX_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Noise environment for the campaign sections: `--noise <name>` (or
/// `--noise=<name>`) on the command line, else the `AVX_NOISE`
/// environment variable, else the quiet host. Unknown names fall back
/// to quiet rather than aborting a long repro run.
#[must_use]
pub fn noise_profile() -> NoiseProfile {
    let mut args = std::env::args();
    let mut from_args = None;
    while let Some(arg) = args.next() {
        if arg == "--noise" {
            from_args = args.next();
            break;
        }
        if let Some(value) = arg.strip_prefix("--noise=") {
            from_args = Some(value.to_string());
            break;
        }
    }
    from_args
        .or_else(|| std::env::var("AVX_NOISE").ok())
        .and_then(|v| NoiseProfile::parse(&v))
        .unwrap_or(NoiseProfile::Quiet)
}

/// Threshold estimator for the campaign sections:
/// `--calibrator legacy|trimmed|bimodal|noise-aware` (or
/// `--calibrator=<name>`) on the command line, else the
/// `AVX_CALIBRATOR` environment variable, else the historical
/// [`CalibratorKind::Legacy`] min-pulled floor. Unknown names fall
/// back to legacy rather than aborting a long repro run.
#[must_use]
pub fn calibrator_kind() -> CalibratorKind {
    let mut args = std::env::args();
    let mut from_args = None;
    while let Some(arg) = args.next() {
        if arg == "--calibrator" {
            from_args = args.next();
            break;
        }
        if let Some(value) = arg.strip_prefix("--calibrator=") {
            from_args = Some(value.to_string());
            break;
        }
    }
    from_args
        .or_else(|| std::env::var("AVX_CALIBRATOR").ok())
        .and_then(|v| CalibratorKind::parse(&v))
        .unwrap_or(CalibratorKind::Legacy)
}

/// Closed-loop recalibration for the campaign sections: `--recalibrate`
/// (or `AVX_RECALIBRATE=1`) runs every sweep attack under the
/// [`avx_channel::recal::Recalibrating`] driver with the pinned default
/// [`RecalConfig`]. Off by default — the paper's one-shot calibration.
#[must_use]
pub fn recal_config() -> Option<RecalConfig> {
    let from_args = std::env::args().any(|a| a == "--recalibrate");
    let from_env = std::env::var("AVX_RECALIBRATE")
        .map(|v| !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")))
        .unwrap_or(false);
    (from_args || from_env).then(RecalConfig::default)
}

/// Confirmation decision layer for the campaign sections: `--confirm`
/// (or `AVX_CONFIRM=1`) re-tests every needle-in-haystack candidate
/// through [`avx_channel::decision`] with the pinned default
/// [`ConfirmConfig`]. Off by default — the historical first-mapped-wins
/// detection rules.
#[must_use]
pub fn confirm_config() -> Option<ConfirmConfig> {
    let from_args = std::env::args().any(|a| a == "--confirm");
    let from_env = std::env::var("AVX_CONFIRM")
        .map(|v| !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")))
        .unwrap_or(false);
    (from_args || from_env).then(ConfirmConfig::default)
}

/// Observables regime for the campaign sections:
/// `--observables v1|v2` (or `--observables=<name>`) on the command
/// line, else the `AVX_OBSERVABLES` environment variable, else the
/// bit-exact [`ObservablesVersion::V1`] stream. Unknown names fall back
/// to v1 rather than aborting a long repro run.
#[must_use]
pub fn observables_version() -> ObservablesVersion {
    let mut args = std::env::args();
    let mut from_args = None;
    while let Some(arg) = args.next() {
        if arg == "--observables" {
            from_args = args.next();
            break;
        }
        if let Some(value) = arg.strip_prefix("--observables=") {
            from_args = Some(value.to_string());
            break;
        }
    }
    from_args
        .or_else(|| std::env::var("AVX_OBSERVABLES").ok())
        .and_then(|v| ObservablesVersion::parse(&v))
        .unwrap_or(ObservablesVersion::V1)
}

/// Victim-side defense for the campaign sections:
/// `--defense none|masked|rerandomizing` (or `--defense=<name>`) on the
/// command line, else the `AVX_DEFENSE` environment variable, else the
/// undefended [`DefenseKind::None`] victim — which is architecturally
/// silent, so the default repro output is bit-exact. Unknown names fall
/// back to none rather than aborting a long repro run.
#[must_use]
pub fn defense_kind() -> DefenseKind {
    arg_value("defense")
        .or_else(|| std::env::var("AVX_DEFENSE").ok())
        .and_then(|v| DefenseKind::parse(&v))
        .unwrap_or(DefenseKind::None)
}

/// Raw victim-schedule selector for the campaign sections:
/// `--schedule <name|trace-file>` (or `--schedule=<value>`) on the
/// command line, else the `AVX_SCHEDULE` environment variable. The
/// repro binary treats values that are not preset names as trace-file
/// paths (see `docs/VICTIMS.md` for the grammar).
#[must_use]
pub fn schedule_spec() -> Option<String> {
    arg_value("schedule").or_else(|| std::env::var("AVX_SCHEDULE").ok())
}

/// Victim event schedule for the campaign sections, resolved to a
/// preset: `--schedule none|dvfs-square|cotenant-burst|module-churn`
/// (or `AVX_SCHEDULE=<name>`), else the event-free
/// [`ScheduleKind::None`] victim — which installs nothing, so the
/// default repro output is bit-exact. Non-preset values (trace-file
/// paths, typos) fall back to none here; the repro binary's schedule
/// section separately demonstrates trace files.
#[must_use]
pub fn schedule_kind() -> ScheduleKind {
    schedule_spec()
        .and_then(|v| ScheduleKind::parse(&v))
        .unwrap_or(ScheduleKind::None)
}

/// Value of `--<name> <value>` or `--<name>=<value>` on the command
/// line. Exact-name match: `--fleet` never swallows `--fleet-shards`.
fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next();
        }
        if let Some(value) = arg.strip_prefix(&prefixed) {
            return Some(value.to_string());
        }
    }
    None
}

/// Fleet population size: `--fleet N` (or `AVX_FLEET=N`) switches the
/// repro binary into the streaming population-sweep mode of
/// [`avx_channel::fleet`]. `None` — the default — runs the classic
/// figure/table repro.
#[must_use]
pub fn fleet_victims() -> Option<u64> {
    arg_value("fleet")
        .or_else(|| std::env::var("AVX_FLEET").ok())
        .and_then(|v| v.parse().ok())
}

/// Fleet shard count: `--fleet-shards K` (or `AVX_FLEET_SHARDS=K`)
/// partitions the population into K contiguous shards instead of the
/// default ~1024-victim shard size.
#[must_use]
pub fn fleet_shards() -> Option<u64> {
    arg_value("fleet-shards")
        .or_else(|| std::env::var("AVX_FLEET_SHARDS").ok())
        .and_then(|v| v.parse().ok())
}

/// Fleet checkpoint file: `--fleet-checkpoint <path>` (or
/// `AVX_FLEET_CHECKPOINT=<path>`) enables shard-granular
/// checkpoint/resume.
#[must_use]
pub fn fleet_checkpoint() -> Option<std::path::PathBuf> {
    arg_value("fleet-checkpoint")
        .or_else(|| std::env::var("AVX_FLEET_CHECKPOINT").ok())
        .map(std::path::PathBuf::from)
}

/// Fleet per-run shard cap: `--fleet-max-shards M` (or
/// `AVX_FLEET_MAX_SHARDS=M`) executes at most M pending shards before
/// returning — the kill-and-resume lever the CI resume smoke uses.
#[must_use]
pub fn fleet_max_shards() -> Option<u64> {
    arg_value("fleet-max-shards")
        .or_else(|| std::env::var("AVX_FLEET_MAX_SHARDS").ok())
        .and_then(|v| v.parse().ok())
}

/// Probe-budget policy for the campaign sections: `--adaptive` (or
/// `AVX_ADAPTIVE=1`) switches from the paper's fixed schedule to the
/// SPRT engine; `--fixed-budget` selects the noise-robust fixed
/// comparator.
#[must_use]
pub fn sampling_policy() -> Sampling {
    let args: Vec<String> = std::env::args().collect();
    let env_adaptive = std::env::var("AVX_ADAPTIVE")
        .map(|v| !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")))
        .unwrap_or(false);
    if args.iter().any(|a| a == "--adaptive") || env_adaptive {
        Sampling::adaptive()
    } else if args.iter().any(|a| a == "--fixed-budget") {
        Sampling::fixed_budget()
    } else {
        Sampling::Fixed
    }
}

/// The campaign config the command-line flags select: `--noise`, the
/// sampling flags, `--calibrator`, `--recalibrate`, `--confirm`,
/// `--observables`, `--defense` and `--schedule`, each with its `AVX_*`
/// fallback, over the default trial count and first seed.
#[must_use]
pub fn cli_config() -> CampaignConfig {
    CampaignConfig {
        noise: noise_profile(),
        sampling: sampling_policy(),
        calibrator: calibrator_kind(),
        recal: recal_config(),
        confirm: confirm_config(),
        observables: observables_version(),
        defense: defense_kind(),
        schedule: schedule_kind(),
        ..CampaignConfig::default()
    }
}

/// One kernel-base scan of the seeded Linux victim on the i5-12400F
/// running a user-authored victim `schedule` (the trace grammar of
/// `docs/VICTIMS.md`). The victim goes through
/// [`CampaignConfig::install`] like a campaign trial, with the trace's
/// `base` preset as its noise environment and the trace in place of
/// `config.schedule`; the attacker calibrates with `config.calibrator`
/// and runs under [`CampaignConfig::tune`]. Returns the prober (its
/// machine holds the fired schedule), the victim's ground truth and the
/// scan.
#[must_use]
pub fn trace_demo_scan(
    schedule: VictimSchedule,
    config: CampaignConfig,
    seed: u64,
) -> (SimProber, LinuxTruth, KaslrScan) {
    let profile = CpuProfile::alder_lake_i5_12400f();
    let (mut p, truth) = linux_prober(profile.clone(), seed);
    let config = CampaignConfig {
        noise: schedule.profile(),
        schedule: ScheduleKind::None,
        ..config
    };
    config.install(
        p.machine_mut(),
        &Scenario::KernelBase.defense_regions(),
        seed,
    );
    p.machine_mut().set_victim_schedule(Some(schedule));
    let fit = Threshold::calibrate_with(&mut p, truth.user.calibration, 16, config.calibrator);
    let finder = config.tune(
        KernelBaseFinder::new(fit.threshold),
        config.sampler_for(&profile, &fit),
    );
    let scan = finder.scan(&mut p);
    (p, truth, scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_channel::Prober;

    #[test]
    fn helpers_compose_into_a_working_attack() {
        let (mut p, truth) = quiet_linux_prober(CpuProfile::alder_lake_i5_12400f(), 3);
        let th = calibrate(&mut p, &truth);
        let scan = KernelBaseFinder::new(th).scan(&mut p);
        assert_eq!(scan.base, Some(truth.kernel_base));
    }

    #[test]
    fn trace_demo_honors_the_defense_and_confirmation_knobs() {
        let demo = |config: CampaignConfig| {
            let trace = VictimSchedule::from_trace("every 8 8 module-load 4\n", 77).unwrap();
            trace_demo_scan(trace, config, 77)
        };
        let config = CampaignConfig::default();
        let (p, truth, scan) = demo(config);
        assert!(p.machine().victim_schedule().unwrap().fired() > 0);
        assert_eq!(scan.base, Some(truth.kernel_base));
        // The confirmation layer re-tests candidates before committing.
        let (confirmed, _, confirmed_scan) =
            demo(config.with_confirmation(ConfirmConfig::default()));
        assert_eq!(confirmed_scan.base, scan.base);
        assert!(
            confirmed.probes_issued() > p.probes_issued(),
            "confirmation re-tests: {} vs {} probes",
            confirmed.probes_issued(),
            p.probes_issued()
        );
        // The masked victim decouples the scan from the real layout.
        let (_, truth, masked) = demo(config.with_defense(DefenseKind::MaskedTranslation));
        assert_ne!(masked.base, Some(truth.kernel_base));
    }

    #[test]
    fn trials_default_and_override() {
        std::env::remove_var("AVX_TRIALS");
        assert_eq!(accuracy_trials(), 60);
    }

    #[test]
    fn noise_and_sampling_defaults_are_the_paper_setup() {
        std::env::remove_var("AVX_NOISE");
        std::env::remove_var("AVX_ADAPTIVE");
        assert_eq!(noise_profile(), NoiseProfile::Quiet);
        assert_eq!(sampling_policy(), Sampling::Fixed);
        // Explicitly-off values of the env knob stay off.
        for off in ["0", "", "false", "FALSE"] {
            std::env::set_var("AVX_ADAPTIVE", off);
            assert_eq!(sampling_policy(), Sampling::Fixed, "AVX_ADAPTIVE={off:?}");
        }
        std::env::set_var("AVX_ADAPTIVE", "1");
        assert_eq!(sampling_policy(), Sampling::adaptive());
        std::env::remove_var("AVX_ADAPTIVE");
    }

    #[test]
    fn recalibration_defaults_off_and_honors_the_env_knob() {
        std::env::remove_var("AVX_RECALIBRATE");
        assert_eq!(recal_config(), None);
        std::env::set_var("AVX_RECALIBRATE", "1");
        assert_eq!(recal_config(), Some(RecalConfig::default()));
        std::env::set_var("AVX_RECALIBRATE", "0");
        assert_eq!(recal_config(), None);
        std::env::remove_var("AVX_RECALIBRATE");
    }

    #[test]
    fn confirmation_defaults_off_and_honors_the_env_knob() {
        std::env::remove_var("AVX_CONFIRM");
        assert_eq!(confirm_config(), None);
        std::env::set_var("AVX_CONFIRM", "1");
        assert_eq!(confirm_config(), Some(ConfirmConfig::default()));
        std::env::set_var("AVX_CONFIRM", "false");
        assert_eq!(confirm_config(), None);
        std::env::remove_var("AVX_CONFIRM");
    }

    #[test]
    fn observables_default_to_v1_and_honor_the_env_knob() {
        std::env::remove_var("AVX_OBSERVABLES");
        assert_eq!(observables_version(), ObservablesVersion::V1);
        std::env::set_var("AVX_OBSERVABLES", "v2");
        assert_eq!(observables_version(), ObservablesVersion::V2);
        // Unknown names fall back instead of aborting a long repro run.
        std::env::set_var("AVX_OBSERVABLES", "v9");
        assert_eq!(observables_version(), ObservablesVersion::V1);
        std::env::remove_var("AVX_OBSERVABLES");
    }

    #[test]
    fn fleet_flags_default_off_and_honor_the_env_knobs() {
        for var in [
            "AVX_FLEET",
            "AVX_FLEET_SHARDS",
            "AVX_FLEET_CHECKPOINT",
            "AVX_FLEET_MAX_SHARDS",
        ] {
            std::env::remove_var(var);
        }
        assert_eq!(fleet_victims(), None);
        assert_eq!(fleet_shards(), None);
        assert_eq!(fleet_checkpoint(), None);
        assert_eq!(fleet_max_shards(), None);
        std::env::set_var("AVX_FLEET", "100000");
        assert_eq!(fleet_victims(), Some(100_000));
        std::env::set_var("AVX_FLEET_SHARDS", "4");
        assert_eq!(fleet_shards(), Some(4));
        std::env::set_var("AVX_FLEET_CHECKPOINT", "/tmp/ck.json");
        assert_eq!(
            fleet_checkpoint(),
            Some(std::path::PathBuf::from("/tmp/ck.json"))
        );
        std::env::set_var("AVX_FLEET_MAX_SHARDS", "1");
        assert_eq!(fleet_max_shards(), Some(1));
        // Unparseable numbers fall back instead of aborting.
        std::env::set_var("AVX_FLEET", "lots");
        assert_eq!(fleet_victims(), None);
        for var in [
            "AVX_FLEET",
            "AVX_FLEET_SHARDS",
            "AVX_FLEET_CHECKPOINT",
            "AVX_FLEET_MAX_SHARDS",
        ] {
            std::env::remove_var(var);
        }
    }

    #[test]
    fn defense_defaults_to_none_and_honors_the_env_knob() {
        std::env::remove_var("AVX_DEFENSE");
        assert_eq!(defense_kind(), DefenseKind::None);
        std::env::set_var("AVX_DEFENSE", "masked");
        assert_eq!(defense_kind(), DefenseKind::MaskedTranslation);
        std::env::set_var("AVX_DEFENSE", "rerandomizing");
        assert_eq!(defense_kind(), DefenseKind::Rerandomizing);
        // Unknown names fall back instead of aborting a long repro run.
        std::env::set_var("AVX_DEFENSE", "bogus");
        assert_eq!(defense_kind(), DefenseKind::None);
        std::env::remove_var("AVX_DEFENSE");
    }

    #[test]
    fn schedule_defaults_to_none_and_honors_the_env_knob() {
        std::env::remove_var("AVX_SCHEDULE");
        assert_eq!(schedule_kind(), ScheduleKind::None);
        assert_eq!(schedule_spec(), None);
        std::env::set_var("AVX_SCHEDULE", "dvfs-square");
        assert_eq!(schedule_kind(), ScheduleKind::DvfsSquare);
        std::env::set_var("AVX_SCHEDULE", "cotenant-burst");
        assert_eq!(schedule_kind(), ScheduleKind::CoTenantBurst);
        // Non-preset values (trace-file paths) resolve to none at the
        // preset layer but stay visible through the raw spec.
        std::env::set_var("AVX_SCHEDULE", "/tmp/victim.trace");
        assert_eq!(schedule_kind(), ScheduleKind::None);
        assert_eq!(schedule_spec(), Some("/tmp/victim.trace".to_string()));
        std::env::remove_var("AVX_SCHEDULE");
    }

    #[test]
    fn calibrator_defaults_to_legacy_and_honors_the_env_knob() {
        std::env::remove_var("AVX_CALIBRATOR");
        assert_eq!(calibrator_kind(), CalibratorKind::Legacy);
        std::env::set_var("AVX_CALIBRATOR", "noise-aware");
        assert_eq!(calibrator_kind(), CalibratorKind::NoiseAware);
        // Unknown names fall back instead of aborting a long repro run.
        std::env::set_var("AVX_CALIBRATOR", "bogus");
        assert_eq!(calibrator_kind(), CalibratorKind::Legacy);
        std::env::remove_var("AVX_CALIBRATOR");
    }
}
