//! # avx-bench — the reproduction harness
//!
//! Shared machinery for the `repro` binary that regenerates every
//! number the README and `ARCHITECTURE.md` report, and for the tests
//! that hold the paper's pass/fail claims (`tests/paper_artifacts.rs`).
//! [`Cli`] is the one reader of the binary's flags and `AVX_*`
//! environment.
//!
//! The `paper` module records the published values so `repro` can
//! print a paper-vs-measured comparison next to every measurement.

use std::fmt;
use std::path::PathBuf;

use avx_channel::attacks::campaign::{CampaignConfig, Scenario};
use avx_channel::attacks::KaslrScan;
use avx_channel::fleet::FleetConfig;
use avx_channel::{
    CalibratorKind, ConfirmConfig, DefenseKind, KernelBaseFinder, RecalConfig, Sampling,
    ScheduleKind, SimProber, Threshold,
};
use avx_mmu::AddressSpace;
use avx_os::linux::{LinuxConfig, LinuxSystem, LinuxTruth};
use avx_uarch::{
    CpuProfile, Machine, NoiseModel, NoiseProfile, ObservablesVersion, VictimSchedule,
};

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

/// A machine over `space` with Gaussian-jitter-only noise, for the
/// §III characterizations: the paper measures those distributions on a
/// quiescent machine where interrupt spikes are rare enough to be
/// filtered, hence σ ≈ 1 cycle. The end-to-end attacks keep the full
/// noise model.
#[must_use]
pub fn sigma_only_machine(profile: CpuProfile, space: AddressSpace, seed: u64) -> Machine {
    let noise = NoiseModel::new(profile.timing.noise_sigma, 0.0, (0.0, 0.0));
    let mut m = Machine::new(profile, space, seed);
    m.set_noise(noise);
    m
}

/// Seed of the `--schedule <trace-file>` victim schedule and of the
/// demonstration scan `repro` runs against it.
pub const TRACE_SEED: u64 = 77;

/// A user-authored victim schedule named by `--schedule <trace-file>`
/// (the grammar of `docs/VICTIMS.md`).
#[derive(Clone, Debug)]
pub struct Trace {
    /// The path as given.
    pub path: String,
    /// The parsed schedule, seeded with [`TRACE_SEED`].
    pub schedule: VictimSchedule,
}

/// Everything the repro harness reads from its command line and its
/// `AVX_*` environment, validated once by [`Cli::parse`]. A flag beats
/// its environment variable.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Trials per accuracy sweep: `AVX_TRIALS`, else 60 (the paper
    /// uses n = 10000, which is minutes of simulation).
    pub trials: u64,
    /// The campaign flags over the default trial count and first seed:
    /// `--noise`, `--adaptive` / `--fixed-budget`, `--calibrator`,
    /// `--recalibrate`, `--confirm`, `--observables`, `--defense` and a
    /// preset `--schedule`.
    pub campaign: CampaignConfig,
    /// `--schedule <trace-file>`: a non-preset schedule value, read and
    /// parsed. The campaign itself stays unscheduled.
    pub trace: Option<Trace>,
    /// `--fleet N` with `--fleet-shards K`, `--fleet-checkpoint <path>`
    /// and `--fleet-max-shards M`: the streaming population sweep of
    /// [`avx_channel::fleet`]. `None` runs the figure/table repro.
    pub fleet: Option<FleetConfig>,
}

/// Why [`Cli::parse`] refused its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// An argument that is not one of the harness's flags.
    UnknownArgument(String),
    /// A value-taking flag with nothing after it.
    MissingValue(&'static str),
    /// A name outside a flag's menu, or a number that does not parse.
    InvalidValue {
        /// The flag or environment variable that carried the value.
        name: &'static str,
        /// The value as given.
        value: String,
        /// What the flag accepts.
        expected: &'static str,
    },
    /// A non-preset schedule value that is not a readable, valid trace.
    Trace {
        /// The flag or environment variable that carried the path.
        name: &'static str,
        /// The path as given.
        path: String,
        /// The I/O or grammar error.
        reason: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownArgument(arg) => write!(f, "unknown argument {arg:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::InvalidValue {
                name,
                value,
                expected,
            } => write!(f, "invalid {name} value {value:?}: expected {expected}"),
            CliError::Trace { name, path, reason } => {
                write!(f, "invalid {name} value {path:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The value-taking flags, each with the environment variable behind it.
const KNOBS: [(&str, &str); 9] = [
    ("--noise", "AVX_NOISE"),
    ("--calibrator", "AVX_CALIBRATOR"),
    ("--observables", "AVX_OBSERVABLES"),
    ("--defense", "AVX_DEFENSE"),
    ("--schedule", "AVX_SCHEDULE"),
    ("--fleet", "AVX_FLEET"),
    ("--fleet-shards", "AVX_FLEET_SHARDS"),
    ("--fleet-checkpoint", "AVX_FLEET_CHECKPOINT"),
    ("--fleet-max-shards", "AVX_FLEET_MAX_SHARDS"),
];

/// The switches, with the environment variable behind each one that
/// has one.
const SWITCHES: [(&str, Option<&str>); 4] = [
    ("--adaptive", Some("AVX_ADAPTIVE")),
    ("--fixed-budget", None),
    ("--recalibrate", Some("AVX_RECALIBRATE")),
    ("--confirm", Some("AVX_CONFIRM")),
];

const NUMBER: &str = "a non-negative integer";

impl Cli {
    /// [`Cli::parse`] over the process's arguments (program name
    /// skipped) and environment. Bytes that are not UTF-8 become
    /// U+FFFD, so they never match a flag or a name.
    ///
    /// # Errors
    ///
    /// As [`Cli::parse`].
    pub fn from_env() -> Result<Self, CliError> {
        Self::parse(
            std::env::args_os()
                .skip(1)
                .map(|arg| arg.to_string_lossy().into_owned()),
            |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()),
        )
    }

    /// Parses `args` (`--flag value` or `--flag=value`; the first
    /// occurrence of a flag wins) over the `AVX_*` variables `env`
    /// returns. An empty variable counts as unset, and a switch's
    /// variable is on unless it is `0` or `false`. `--adaptive` (or
    /// `AVX_ADAPTIVE`) beats `--fixed-budget`. A `--schedule` value that
    /// is not a preset name is read as a trace file.
    ///
    /// # Errors
    ///
    /// An unknown argument, a flag without its value, a name outside a
    /// flag's menu, a number that does not parse, or a trace file that
    /// cannot be read or that [`VictimSchedule::from_trace`] rejects.
    pub fn parse<I>(args: I, env: impl Fn(&str) -> Option<String>) -> Result<Self, CliError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut switches: Vec<&'static str> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            if let Some(&(flag, _)) = SWITCHES.iter().find(|(flag, _)| *flag == arg) {
                switches.push(flag);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg, None),
            };
            let Some(&(flag, _)) = KNOBS.iter().find(|(flag, _)| *flag == name) else {
                return Err(CliError::UnknownArgument(arg.to_string()));
            };
            let value = match inline {
                Some(value) => value,
                None => match args.next() {
                    Some(value) => value.as_ref().to_string(),
                    None => return Err(CliError::MissingValue(flag)),
                },
            };
            if given.iter().all(|(seen, _)| *seen != flag) {
                given.push((flag, value));
            }
        }
        let from_env = |var: &'static str| env(var).filter(|v| !v.is_empty()).map(|v| (var, v));
        // The value of `flag`, else of its variable, with the name it came under.
        let raw = |flag: &str| {
            let &(flag, var) = KNOBS.iter().find(|(f, _)| *f == flag).expect("a knob");
            match given.iter().find(|(seen, _)| *seen == flag) {
                Some((_, value)) => Some((flag, value.clone())),
                None => from_env(var),
            }
        };
        let switch = |flag: &str| {
            let (_, var) = SWITCHES.iter().find(|(f, _)| *f == flag).expect("a switch");
            switches.contains(&flag)
                || var
                    .and_then(from_env)
                    .is_some_and(|(_, v)| !(v == "0" || v.eq_ignore_ascii_case("false")))
        };
        let number = |flag| typed(raw(flag), NUMBER, |v| v.parse::<u64>().ok());

        let (schedule, trace) = match raw("--schedule") {
            None => (ScheduleKind::None, None),
            Some((name, path)) => match ScheduleKind::parse(&path) {
                Some(schedule) => (schedule, None),
                None => (ScheduleKind::None, Some(Trace::read(name, path)?)),
            },
        };
        let default = CampaignConfig::default();
        let campaign = CampaignConfig {
            noise: typed(
                raw("--noise"),
                "quiet, smt, laptop, cloud or drift",
                NoiseProfile::parse,
            )?
            .unwrap_or(default.noise),
            sampling: if switch("--adaptive") {
                Sampling::adaptive()
            } else if switch("--fixed-budget") {
                Sampling::fixed_budget()
            } else {
                Sampling::Fixed
            },
            calibrator: typed(
                raw("--calibrator"),
                "legacy, trimmed, bimodal or noise-aware",
                CalibratorKind::parse,
            )?
            .unwrap_or(default.calibrator),
            recal: switch("--recalibrate").then(RecalConfig::default),
            confirm: switch("--confirm").then(ConfirmConfig::default),
            observables: typed(raw("--observables"), "v1 or v2", ObservablesVersion::parse)?
                .unwrap_or(default.observables),
            defense: typed(
                raw("--defense"),
                "none, masked or rerandomizing",
                DefenseKind::parse,
            )?
            .unwrap_or(default.defense),
            schedule,
            ..default
        };

        let shards = number("--fleet-shards")?;
        let checkpoint = raw("--fleet-checkpoint").map(|(_, path)| PathBuf::from(path));
        let max_shards = number("--fleet-max-shards")?;
        let fleet = number("--fleet")?.map(|victims| {
            let config = FleetConfig {
                checkpoint,
                max_shards,
                ..FleetConfig::new(victims)
            };
            match shards {
                Some(shards) => config.with_shards(shards),
                None => config,
            }
        });

        let trials = typed(from_env("AVX_TRIALS"), NUMBER, |v| v.parse().ok())?;
        Ok(Self {
            trials: trials.unwrap_or(60),
            campaign,
            trace,
            fleet,
        })
    }
}

/// `parse` applied to a raw value, or the [`CliError::InvalidValue`]
/// naming its flag or variable.
fn typed<T>(
    raw: Option<(&'static str, String)>,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, CliError> {
    raw.map(|(name, value)| match parse(&value) {
        Some(parsed) => Ok(parsed),
        None => Err(CliError::InvalidValue {
            name,
            value,
            expected,
        }),
    })
    .transpose()
}

impl Trace {
    fn read(name: &'static str, path: String) -> Result<Self, CliError> {
        let refuse = |reason: String| CliError::Trace {
            name,
            path: path.clone(),
            reason,
        };
        let text = std::fs::read_to_string(&path).map_err(|err| {
            refuse(format!(
                "not a preset (none, dvfs-square, cotenant-burst or module-churn) \
                 and not a readable trace file ({err})"
            ))
        })?;
        let schedule = VictimSchedule::from_trace(&text, TRACE_SEED).map_err(refuse)?;
        Ok(Self { path, schedule })
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
        Scenario::KernelBase.defense_regions(),
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

    type Env<'a> = &'a [(&'a str, &'a str)];

    /// [`Cli::parse`] over `argv` and an environment holding exactly
    /// `env`.
    fn parse(argv: &[&str], env: Env) -> Result<Cli, CliError> {
        Cli::parse(argv, |name| {
            env.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| (*value).to_string())
        })
    }

    fn cli(argv: &[&str], env: Env) -> Cli {
        parse(argv, env).unwrap_or_else(|err| panic!("{argv:?} {env:?}: {err}"))
    }

    /// The error `argv` and `env` must produce; its message names the
    /// argument, flag or variable and the value it refused.
    fn refusal(argv: &[&str], env: Env) -> CliError {
        let Err(err) = parse(argv, env) else {
            panic!("{argv:?} {env:?} must be refused")
        };
        let message = err.to_string();
        let named = match &err {
            CliError::UnknownArgument(arg) => vec![arg.as_str()],
            CliError::MissingValue(flag) => vec![*flag],
            CliError::InvalidValue { name, value, .. } => vec![*name, value.as_str()],
            CliError::Trace { name, path, .. } => vec![*name, path.as_str()],
        };
        for word in named {
            assert!(message.contains(word), "{message:?} names {word:?}");
        }
        err
    }

    fn invalid(name: &'static str, value: &str, expected: &'static str) -> CliError {
        CliError::InvalidValue {
            name,
            value: value.to_string(),
            expected,
        }
    }

    #[test]
    fn trials_default_and_override() {
        let cases: [(Env, u64); 4] = [
            (&[], 60),
            (&[("AVX_TRIALS", "")], 60),
            (&[("AVX_TRIALS", "7")], 7),
            (&[("AVX_TRIALS", "0")], 0),
        ];
        for (env, trials) in cases {
            assert_eq!(cli(&[], env).trials, trials, "{env:?}");
        }
        for bad in ["many", "-1", "1e4", "18446744073709551616"] {
            assert_eq!(
                refusal(&[], &[("AVX_TRIALS", bad)]),
                invalid("AVX_TRIALS", bad, NUMBER)
            );
        }
    }

    #[test]
    fn noise_and_sampling_defaults_are_the_paper_setup() {
        let default = cli(&[], &[]).campaign;
        assert_eq!(default.noise, NoiseProfile::Quiet);
        assert_eq!(default.sampling, Sampling::Fixed);
        let noise: [(&[&str], Env, NoiseProfile); 5] = [
            (&["--noise", "smt"], &[], NoiseProfile::SmtSibling),
            (&["--noise=laptop"], &[], NoiseProfile::LaptopDvfs),
            (&[], &[("AVX_NOISE", "cloud")], NoiseProfile::NoisyNeighbor),
            (
                &["--noise", "smt"],
                &[("AVX_NOISE", "cloud")],
                NoiseProfile::SmtSibling,
            ),
            (
                &["--noise", "drift"],
                &[],
                NoiseProfile::drift_quiet_to_laptop(),
            ),
        ];
        for (argv, env, expected) in noise {
            assert_eq!(cli(argv, env).campaign.noise, expected, "{argv:?} {env:?}");
        }
        // `--adaptive` (or a switched-on `AVX_ADAPTIVE`) beats
        // `--fixed-budget`; explicitly-off values of the variable stay off.
        let sampling: [(&[&str], Env, Sampling); 8] = [
            (&[], &[("AVX_ADAPTIVE", "0")], Sampling::Fixed),
            (&[], &[("AVX_ADAPTIVE", "")], Sampling::Fixed),
            (&[], &[("AVX_ADAPTIVE", "false")], Sampling::Fixed),
            (&[], &[("AVX_ADAPTIVE", "FALSE")], Sampling::Fixed),
            (&[], &[("AVX_ADAPTIVE", "1")], Sampling::adaptive()),
            (&["--fixed-budget"], &[], Sampling::fixed_budget()),
            (&["--fixed-budget", "--adaptive"], &[], Sampling::adaptive()),
            (
                &["--fixed-budget"],
                &[("AVX_ADAPTIVE", "1")],
                Sampling::adaptive(),
            ),
        ];
        for (argv, env, expected) in sampling {
            assert_eq!(
                cli(argv, env).campaign.sampling,
                expected,
                "{argv:?} {env:?}"
            );
        }
        let expected = "quiet, smt, laptop, cloud or drift";
        assert_eq!(
            refusal(&["--noise", "smtt"], &[]),
            invalid("--noise", "smtt", expected)
        );
        assert_eq!(
            refusal(&[], &[("AVX_NOISE", "smtt")]),
            invalid("AVX_NOISE", "smtt", expected)
        );
        assert_eq!(
            refusal(&["--noise"], &[]),
            CliError::MissingValue("--noise")
        );
    }

    #[test]
    fn recalibration_defaults_off_and_honors_the_env_knob() {
        let cases: [(&[&str], Env, bool); 5] = [
            (&[], &[], false),
            (&[], &[("AVX_RECALIBRATE", "1")], true),
            (&[], &[("AVX_RECALIBRATE", "0")], false),
            (&["--recalibrate"], &[], true),
            (&["--recalibrate"], &[("AVX_RECALIBRATE", "0")], true),
        ];
        for (argv, env, on) in cases {
            let expected = on.then(RecalConfig::default);
            assert_eq!(cli(argv, env).campaign.recal, expected, "{argv:?} {env:?}");
        }
    }

    #[test]
    fn confirmation_defaults_off_and_honors_the_env_knob() {
        let cases: [(&[&str], Env, bool); 5] = [
            (&[], &[], false),
            (&[], &[("AVX_CONFIRM", "1")], true),
            (&[], &[("AVX_CONFIRM", "false")], false),
            (&["--confirm"], &[], true),
            (&["--confirm"], &[("AVX_CONFIRM", "false")], true),
        ];
        for (argv, env, on) in cases {
            let expected = on.then(ConfirmConfig::default);
            assert_eq!(
                cli(argv, env).campaign.confirm,
                expected,
                "{argv:?} {env:?}"
            );
        }
    }

    #[test]
    fn observables_default_to_v1_and_honor_the_env_knob() {
        let cases: [(&[&str], Env, ObservablesVersion); 4] = [
            (&[], &[], ObservablesVersion::V1),
            (&[], &[("AVX_OBSERVABLES", "v2")], ObservablesVersion::V2),
            (&["--observables=v2"], &[], ObservablesVersion::V2),
            (
                &["--observables", "v1"],
                &[("AVX_OBSERVABLES", "v2")],
                ObservablesVersion::V1,
            ),
        ];
        for (argv, env, expected) in cases {
            assert_eq!(
                cli(argv, env).campaign.observables,
                expected,
                "{argv:?} {env:?}"
            );
        }
        assert_eq!(
            refusal(&[], &[("AVX_OBSERVABLES", "v9")]),
            invalid("AVX_OBSERVABLES", "v9", "v1 or v2")
        );
    }

    #[test]
    fn fleet_flags_default_off_and_honor_the_env_knobs() {
        assert_eq!(cli(&[], &[]).fleet, None);
        // The population settings only matter in fleet mode.
        assert_eq!(cli(&["--fleet-shards", "4"], &[]).fleet, None);
        let env: Env = &[
            ("AVX_FLEET", "100000"),
            ("AVX_FLEET_SHARDS", "4"),
            ("AVX_FLEET_CHECKPOINT", "ck.json"),
            ("AVX_FLEET_MAX_SHARDS", "1"),
        ];
        let full = FleetConfig::new(100_000)
            .with_shards(4)
            .with_checkpoint("ck.json")
            .with_max_shards(1);
        assert_eq!(cli(&[], env).fleet, Some(full));
        assert_eq!(
            cli(&["--fleet", "2000", "--fleet-shards=8"], env).fleet,
            Some(
                FleetConfig::new(2000)
                    .with_shards(8)
                    .with_checkpoint("ck.json")
                    .with_max_shards(1)
            )
        );
        assert_eq!(
            cli(&["--fleet", "18446744073709551615"], &[]).fleet,
            Some(FleetConfig::new(u64::MAX))
        );
        for (argv, env, name, value) in [
            (&["--fleet", "lots"][..], &[][..], "--fleet", "lots"),
            (&[], &[("AVX_FLEET", "lots")], "AVX_FLEET", "lots"),
            (&["--fleet-shards", "-1"], &[], "--fleet-shards", "-1"),
            (
                &["--fleet-max-shards=1.5"],
                &[],
                "--fleet-max-shards",
                "1.5",
            ),
            (
                &["--fleet", "18446744073709551616"],
                &[],
                "--fleet",
                "18446744073709551616",
            ),
        ] {
            assert_eq!(refusal(argv, env), invalid(name, value, NUMBER));
        }
    }

    #[test]
    fn defense_defaults_to_none_and_honors_the_env_knob() {
        let cases: [(&[&str], Env, DefenseKind); 4] = [
            (&[], &[], DefenseKind::None),
            (
                &[],
                &[("AVX_DEFENSE", "masked")],
                DefenseKind::MaskedTranslation,
            ),
            (
                &["--defense", "rerandomizing"],
                &[],
                DefenseKind::Rerandomizing,
            ),
            (
                &["--defense", "none"],
                &[("AVX_DEFENSE", "masked")],
                DefenseKind::None,
            ),
        ];
        for (argv, env, expected) in cases {
            assert_eq!(
                cli(argv, env).campaign.defense,
                expected,
                "{argv:?} {env:?}"
            );
        }
        assert_eq!(
            refusal(&["--noise", "smt", "--defense", "masekd"], &[]),
            invalid("--defense", "masekd", "none, masked or rerandomizing")
        );
    }

    #[test]
    fn schedule_defaults_to_none_and_honors_the_env_knob() {
        let default = cli(&[], &[]);
        assert_eq!(default.campaign.schedule, ScheduleKind::None);
        assert!(default.trace.is_none());
        let cases: [(&[&str], Env, ScheduleKind); 3] = [
            (
                &[],
                &[("AVX_SCHEDULE", "dvfs-square")],
                ScheduleKind::DvfsSquare,
            ),
            (
                &["--schedule=cotenant-burst"],
                &[],
                ScheduleKind::CoTenantBurst,
            ),
            (
                &["--schedule", "module-churn"],
                &[("AVX_SCHEDULE", "dvfs-square")],
                ScheduleKind::ModuleChurn,
            ),
        ];
        for (argv, env, expected) in cases {
            let parsed = cli(argv, env);
            assert_eq!(parsed.campaign.schedule, expected, "{argv:?} {env:?}");
            assert!(parsed.trace.is_none());
        }

        // A non-preset value is a trace file: read and parsed here, while
        // the campaign itself stays unscheduled.
        let dir = std::env::temp_dir();
        let good = dir.join(format!("avx-cli-{}-good.trace", std::process::id()));
        let bad = dir.join(format!("avx-cli-{}-bad.trace", std::process::id()));
        std::fs::write(&good, "every 8 8 module-load 4\n").unwrap();
        std::fs::write(&bad, "every 8 8 warp-drive\n").unwrap();
        let (good, bad) = (good.to_str().unwrap(), bad.to_str().unwrap());
        let parsed = cli(&["--schedule", good], &[]);
        assert_eq!(parsed.campaign.schedule, ScheduleKind::None);
        let trace = parsed.trace.expect("a trace");
        assert_eq!(trace.path, good);
        assert!(trace.schedule.pending() > 0);
        assert_eq!(
            cli(&[], &[("AVX_SCHEDULE", good)]).trace.unwrap().path,
            good
        );

        let expect_trace_error =
            |argv: &[&str], env: Env, name: &str, path: &str| match refusal(argv, env) {
                CliError::Trace {
                    name: got, path: p, ..
                } => assert_eq!((got, p.as_str()), (name, path)),
                other => panic!("{other:?}"),
            };
        expect_trace_error(&["--schedule", bad], &[], "--schedule", bad);
        expect_trace_error(
            &["--schedule", "/nonexistent.trace"],
            &[],
            "--schedule",
            "/nonexistent.trace",
        );
        expect_trace_error(
            &[],
            &[("AVX_SCHEDULE", "dvfs-sqaure")],
            "AVX_SCHEDULE",
            "dvfs-sqaure",
        );
        std::fs::remove_file(good).unwrap();
        std::fs::remove_file(bad).unwrap();
    }

    #[test]
    fn calibrator_defaults_to_legacy_and_honors_the_env_knob() {
        let cases: [(&[&str], Env, CalibratorKind); 4] = [
            (&[], &[], CalibratorKind::Legacy),
            (
                &[],
                &[("AVX_CALIBRATOR", "noise-aware")],
                CalibratorKind::NoiseAware,
            ),
            (&["--calibrator", "bimodal"], &[], CalibratorKind::Bimodal),
            (
                &["--calibrator=trimmed"],
                &[("AVX_CALIBRATOR", "noise-aware")],
                CalibratorKind::Trimmed,
            ),
        ];
        for (argv, env, expected) in cases {
            assert_eq!(
                cli(argv, env).campaign.calibrator,
                expected,
                "{argv:?} {env:?}"
            );
        }
        assert_eq!(
            refusal(&[], &[("AVX_CALIBRATOR", "bogus")]),
            invalid(
                "AVX_CALIBRATOR",
                "bogus",
                "legacy, trimmed, bimodal or noise-aware"
            )
        );
    }

    #[test]
    fn unknown_arguments_and_missing_values_are_refused() {
        for (argv, arg) in [
            (&["--bench-json", "x"][..], "--bench-json"),
            (&["--bench-json=x"], "--bench-json=x"),
            (&["--adaptive=1"], "--adaptive=1"),
            (&["--noise", "smt", "extra"], "extra"),
            (&["--bench"], "--bench"),
            (&["--Noise", "smt"], "--Noise"),
        ] {
            assert_eq!(
                refusal(argv, &[]),
                CliError::UnknownArgument(arg.to_string())
            );
        }
        for flag in [
            "--calibrator",
            "--schedule",
            "--fleet",
            "--fleet-checkpoint",
        ] {
            assert_eq!(refusal(&[flag], &[]), CliError::MissingValue(flag));
        }
    }
}
