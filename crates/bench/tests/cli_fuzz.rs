//! Fuzzing of the repro harness's command line: [`Cli::parse`] over
//! argv vectors and `AVX_*` environments.
//!
//! Two harnesses, a fixed number of deterministic cases each: argv and
//! environments shaped by the flag grammar (every flag and switch,
//! `--flag value` and `--flag=value`, missing values, repeated and
//! unknown flags, names inside and outside each menu, edge-case
//! numbers, trace-file paths that parse, that do not, and that do not
//! exist), and byte-mutated variants of valid command lines
//! (`crates/core/tests/support/fuzz.rs`). Every input must give an
//! `Err` or a value, never a panic, and every error must print.

use std::path::PathBuf;

use proptest::prelude::*;
use proptest::TestRng;

use avx_bench::Cli;

#[path = "../../core/tests/support/fuzz.rs"]
#[allow(dead_code)] // `Mutated` serves the single-string harnesses
mod fuzz;

use fuzz::{fuzz_cases, mutate};

/// Cases per harness.
const CASES: usize = 2_000;

/// One command line: its arguments and its environment.
type Input = (Vec<String>, Vec<(String, String)>);

/// The value-taking flags with their environment variables and the
/// values worth trying for each (the last ones outside the menu).
const KNOBS: &[(&str, &str, &[&str])] = &[
    (
        "--noise",
        "AVX_NOISE",
        &[
            "quiet", "smt", "laptop", "cloud", "drift", " Laptop ", "smtt",
        ],
    ),
    (
        "--calibrator",
        "AVX_CALIBRATOR",
        &["legacy", "trimmed", "bimodal", "noise-aware", "auto", "EM"],
    ),
    ("--observables", "AVX_OBSERVABLES", &["v1", "v2", "v3"]),
    (
        "--defense",
        "AVX_DEFENSE",
        &["none", "masked", "rerandomizing", "oreo", "aslr"],
    ),
    (
        "--schedule",
        "AVX_SCHEDULE",
        &[
            "none",
            "dvfs-square",
            "cotenant-burst",
            "module-churn",
            "churn",
        ],
    ),
    ("--fleet", "AVX_FLEET", &[]),
    ("--fleet-shards", "AVX_FLEET_SHARDS", &[]),
    (
        "--fleet-checkpoint",
        "AVX_FLEET_CHECKPOINT",
        &["ck.json", ""],
    ),
    ("--fleet-max-shards", "AVX_FLEET_MAX_SHARDS", &[]),
];

/// The switches with their environment variables.
const SWITCHES: &[(&str, Option<&str>)] = &[
    ("--adaptive", Some("AVX_ADAPTIVE")),
    ("--fixed-budget", None),
    ("--recalibrate", Some("AVX_RECALIBRATE")),
    ("--confirm", Some("AVX_CONFIRM")),
];

/// Arguments that are no flag of the harness.
const UNKNOWN: &[&str] = &[
    "--bench-json",
    "--NOISE",
    "-n",
    "--",
    "-",
    "",
    "=",
    "--adaptive=1",
];

/// Number tokens at the edges of `u64`, plus some that are no numbers.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "4",
    "2000",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+7",
    "1e3",
    " 4",
    "",
    "lots",
];

/// Trace files written for one harness run and removed after it.
struct TraceFiles {
    valid: PathBuf,
    invalid: PathBuf,
}

impl TraceFiles {
    fn write(tag: &str) -> Self {
        let path = |kind: &str| {
            std::env::temp_dir().join(format!(
                "cli-fuzz-{tag}-{kind}-{}.trace",
                std::process::id()
            ))
        };
        let files = Self {
            valid: path("valid"),
            invalid: path("invalid"),
        };
        std::fs::write(&files.valid, "ops-per-tick 8\nevery 2 4 noise laptop\n").unwrap();
        std::fs::write(&files.invalid, "every 2 0 noise laptop\n").unwrap();
        files
    }

    /// Schedule values that name files: a valid trace, an invalid one,
    /// a missing file and a directory.
    fn paths(&self) -> Vec<String> {
        let missing = self.valid.with_extension("missing");
        [&self.valid, &self.invalid, &missing, &std::env::temp_dir()]
            .map(|p| p.display().to_string())
            .to_vec()
    }
}

impl Drop for TraceFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.valid);
        let _ = std::fs::remove_file(&self.invalid);
    }
}

/// One of `options`.
fn pick<T: Clone>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize].clone()
}

/// A value for the knob at `KNOBS[knob]`.
fn knob_value(rng: &mut TestRng, knob: usize, paths: &[String]) -> String {
    let (flag, _, names) = KNOBS[knob];
    match rng.below(4) {
        0 => pick(rng, NUMBERS).to_string(),
        _ if flag == "--schedule" && rng.below(2) == 0 => pick(rng, paths),
        _ if names.is_empty() => pick(rng, NUMBERS).to_string(),
        _ => pick(rng, names).to_string(),
    }
}

/// Command lines shaped by the flag grammar of [`Cli::parse`].
struct CliGrammar {
    paths: Vec<String>,
}

impl Strategy for CliGrammar {
    type Value = Input;

    fn new_value(&self, rng: &mut TestRng) -> Input {
        let mut args = Vec::new();
        for _ in 0..rng.below(7) {
            match rng.below(8) {
                0 | 1 => args.push(pick(rng, SWITCHES).0.to_string()),
                2 => args.push(pick(rng, UNKNOWN).to_string()),
                _ => {
                    let knob = rng.below(KNOBS.len() as u64) as usize;
                    let value = knob_value(rng, knob, &self.paths);
                    match rng.below(3) {
                        0 => args.push(format!("{}={value}", KNOBS[knob].0)),
                        _ => args.extend([KNOBS[knob].0.to_string(), value]),
                    }
                }
            }
        }
        if rng.below(8) == 0 {
            // A flag with its value cut off.
            args.push(pick(rng, KNOBS).0.to_string());
        }
        let mut env = Vec::new();
        for _ in 0..rng.below(4) {
            match rng.below(3) {
                0 => {
                    let var = pick(rng, SWITCHES).1.unwrap_or("AVX_UNKNOWN");
                    let value = pick(rng, &["1", "0", "false", "FALSE", "", "yes"]);
                    env.push((var.to_string(), value.to_string()));
                }
                1 => env.push(("AVX_TRIALS".into(), pick(rng, NUMBERS).to_string())),
                _ => {
                    let knob = rng.below(KNOBS.len() as u64) as usize;
                    let value = knob_value(rng, knob, &self.paths);
                    env.push((KNOBS[knob].1.to_string(), value));
                }
            }
        }
        (args, env)
    }
}

/// Byte-mutated variants of valid command lines: each argument and
/// environment value is mutated with probability ⅓, and now and then
/// one argument is dropped or repeated.
struct CliMutated {
    seeds: Vec<Input>,
}

impl Strategy for CliMutated {
    type Value = Input;

    fn new_value(&self, rng: &mut TestRng) -> Input {
        const TOKENS: &[&str] = &["--", "=", "--noise", "--schedule", "18446744073709551616"];
        let (mut args, mut env) = pick(rng, &self.seeds);
        for text in args.iter_mut().chain(env.iter_mut().map(|(_, v)| v)) {
            if rng.below(3) == 0 {
                *text = mutate(rng, text, TOKENS);
            }
        }
        if !args.is_empty() && rng.below(4) == 0 {
            let at = rng.below(args.len() as u64) as usize;
            match rng.below(2) {
                0 => {
                    args.remove(at);
                }
                _ => args.insert(at, args[at].clone()),
            }
        }
        (args, env)
    }
}

/// Parses one command line; `true` when accepted. Errors must print.
fn parse((args, env): &Input) -> bool {
    let lookup = |name: &str| {
        env.iter()
            .find(|(var, _)| var == name)
            .map(|(_, value)| value.clone())
    };
    match Cli::parse(args, lookup) {
        Ok(_) => true,
        Err(err) => {
            assert!(!err.to_string().is_empty(), "{err:?}");
            false
        }
    }
}

/// `true` when a mutated value could name a device or kernel file,
/// whose read might never end; such cases are skipped.
fn names_a_special_file((args, env): &Input) -> bool {
    let special = |v: &String| ["/dev", "/proc", "/sys"].iter().any(|p| v.contains(p));
    args.iter().any(special) || env.iter().any(|(_, v)| special(v))
}

#[test]
fn cli_parser_never_panics_on_grammar_shaped_input() {
    let files = TraceFiles::write("grammar");
    let grammar = CliGrammar {
        paths: files.paths(),
    };
    let accepted = fuzz_cases("cli grammar", CASES, &grammar, parse);
    assert!(
        accepted >= CASES / 20,
        "only {accepted} command lines accepted"
    );
}

#[test]
fn cli_parser_never_panics_on_mutated_input() {
    let files = TraceFiles::write("mutated");
    let owned = |args: &[&str], env: &[(&str, &str)]| -> Input {
        (
            args.iter().map(|a| a.to_string()).collect(),
            env.iter()
                .map(|&(var, value)| (var.to_string(), value.to_string()))
                .collect(),
        )
    };
    let trace = files.valid.display().to_string();
    let seeds = CliMutated {
        seeds: vec![
            owned(
                &[
                    "--noise",
                    "laptop",
                    "--adaptive",
                    "--calibrator=noise-aware",
                ],
                &[("AVX_TRIALS", "4")],
            ),
            owned(
                &[
                    "--fleet",
                    "2000",
                    "--fleet-shards=4",
                    "--fleet-checkpoint",
                    "ck.json",
                ],
                &[("AVX_FLEET_MAX_SHARDS", "1")],
            ),
            owned(
                &["--schedule", &trace, "--defense", "masked", "--confirm"],
                &[("AVX_OBSERVABLES", "v2")],
            ),
            owned(&["--recalibrate"], &[("AVX_SCHEDULE", "dvfs-square")]),
        ],
    };
    let accepted = fuzz_cases("cli mutations", CASES, &seeds, |input| {
        !names_a_special_file(input) && parse(input)
    });
    assert!(
        accepted >= CASES / 20,
        "only {accepted} command lines accepted"
    );
}
