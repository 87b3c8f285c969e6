//! Fuzzing of the outside inputs the attack library parses: victim
//! trace files ([`VictimSchedule::from_trace`]) and fleet checkpoints
//! ([`Checkpoint::from_json`]).
//!
//! Each parser sees grammar-shaped inputs (valid structure with edge
//! values, wrong arities, stray tokens and unknown names) and
//! byte-mutated variants of valid inputs (`support/fuzz.rs`), a fixed
//! number of deterministic cases each. Every input must give an `Err`
//! or a value, never a panic. An accepted trace is then driven for a
//! few hundred ops, and an accepted checkpoint must survive a
//! `to_json` round trip unchanged. Each harness also asserts a floor on
//! the inputs its parser accepts, so it cannot decay into one that only
//! ever sees errors.

use proptest::prelude::*;
use proptest::TestRng;

use avx_channel::fleet::{Checkpoint, FLEET_CHECKPOINT_SCHEMA};
use avx_mmu::AddressSpace;
use avx_uarch::sched::VictimSchedule;
use avx_uarch::CpuProfile;

#[path = "support/fuzz.rs"]
mod fuzz;

use fuzz::{fuzz_cases, Mutated};

/// Cases per harness.
const CASES: usize = 2_000;

/// Number tokens at the edges of every integer and float the parsers
/// read, plus a few that are no numbers at all.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "7",
    "64",
    "4294967295",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211455",
    "340282366920938463463374607431768211456",
    "-1",
    "+3",
    "-0",
    "0.0",
    "1.5",
    "1e3",
    "1e308",
    "NaN",
    "inf",
    "-inf",
    "0x10",
    "",
];

/// One of `options`.
fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len() as u64) as usize]
}

/// An edge-case number token, or now and then a random `u64`.
fn number(rng: &mut TestRng) -> String {
    if rng.below(4) == 0 {
        rng.below(u64::MAX).to_string()
    } else {
        pick(rng, NUMBERS).to_string()
    }
}

/// Trace files shaped by the grammar of `docs/VICTIMS.md`: headers and
/// event lines with edge-case numbers, unknown presets, events and
/// directives, missing and trailing tokens, comments, blank lines and
/// CRLF endings.
struct TraceGrammar;

impl Strategy for TraceGrammar {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        const PRESETS: &[&str] = &[
            "quiet",
            "smt",
            "laptop",
            "cloud",
            "drift",
            "dvfs",
            "noisy-neighbor",
            "QUIET",
            "bogus",
        ];
        const EVENTS: &[&str] = &[
            "noise",
            "tenant-arrive",
            "tenant-depart",
            "module-load",
            "module-unload",
            "process-spawn",
            "reboot",
        ];
        let mut text = String::new();
        for _ in 0..rng.below(12) {
            let mut line: Vec<String> = Vec::new();
            match rng.below(9) {
                0 => line.extend(["ops-per-tick".into(), number(rng)]),
                1 => line.extend(["tenant-weight".into(), number(rng)]),
                2 => line.extend(["base".into(), pick(rng, PRESETS).into()]),
                3 | 4 => line.extend(["at".into(), number(rng)]),
                5 | 6 => line.extend(["every".into(), number(rng), number(rng)]),
                7 => line.push(pick(rng, &["#", "# comment", "ramp", "AT"]).into()),
                _ => {}
            }
            if matches!(line.first().map(String::as_str), Some("at" | "every")) {
                let event = pick(rng, EVENTS);
                line.push(event.into());
                match event {
                    "noise" => line.push(pick(rng, PRESETS).into()),
                    "module-load" | "process-spawn" => line.push(number(rng)),
                    _ => {}
                }
            }
            if rng.below(8) == 0 {
                line.pop();
            }
            if rng.below(8) == 0 {
                line.push(pick(rng, &["extra", "7", "# trailing comment"]).into());
            }
            let sep = pick(rng, &[" ", " ", "\t", "  "]);
            text.push_str(&line.join(sep));
            text.push_str(pick(rng, &["\n", "\n", "\r\n"]));
        }
        text
    }
}

/// Valid traces the byte mutator starts from.
const TRACE_SEEDS: &[&str] = &[
    "ops-per-tick 32\nevery 4 8 noise laptop\nevery 8 8 noise quiet\nat 16 tenant-arrive\n",
    "# a co-tenant burst\nbase smt\ntenant-weight 1.5\nat 2 tenant-arrive\nat 9 tenant-depart\n",
    "ops-per-tick 1\nevery 0 1 module-load 4\nevery 3 3 module-unload\nat 5 process-spawn 2\n",
];

/// Words worth splicing into a trace.
const TRACE_TOKENS: &[&str] = &[
    " at ",
    " every ",
    "ops-per-tick ",
    "tenant-weight ",
    "base ",
    " noise ",
    " module-load ",
    "18446744073709551615",
    "18446744073709551616",
    " -1",
    " NaN",
    " 1e308",
    "#",
    "\n",
];

/// Parses `text`; when the trace is accepted, drives the schedule for
/// 256 ops, applying every due event to the environment and to an
/// empty address space (a trace carries no module or spawn region, so
/// the space events must be no-ops). `true` when accepted.
fn parse_and_drive(text: &str) -> bool {
    let Ok(mut sched) = VictimSchedule::from_trace(text, 7) else {
        return false;
    };
    let timing = CpuProfile::alder_lake_i5_12400f().timing;
    let mut space = AddressSpace::new();
    for _ in 0..256 {
        if !sched.advance_op() {
            continue;
        }
        for event in std::iter::from_fn(|| sched.pop_due())
            .take(64)
            .collect::<Vec<_>>()
        {
            let _ = sched.apply_env_event(event);
            assert!(!sched.apply_space_event(event, &mut space));
        }
        let model = sched.effective_model(&timing);
        assert!(model.sigma.is_finite(), "{model:?}");
    }
    true
}

/// Checkpoints shaped by the format of [`Checkpoint::to_json`]: a
/// consistent reducer whose fields are each, now and then, replaced by
/// an edge value, a wrong type, or left out.
struct CheckpointGrammar;

impl Strategy for CheckpointGrammar {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        let shards = rng.below(9);
        let victims = rng.below(1 << 20);
        let probes = victims * rng.below(600);
        let bits: String = (0..shards)
            .map(|_| if rng.below(2) == 0 { '0' } else { '1' })
            .collect();
        let confidence = [0; 4].map(|_| rng.below(victims / 4 + 1));
        let mut fields: Vec<(&str, String)> = vec![
            ("schema", format!("\"{FLEET_CHECKPOINT_SCHEMA}\"")),
            ("fingerprint", format!("\"{:016x}\"", rng.next_u64())),
            ("shards", shards.to_string()),
            ("completed", format!("\"{bits}\"")),
            ("victims", victims.to_string()),
            ("hits", (victims / 2).to_string()),
            ("records", victims.to_string()),
            ("probes", probes.to_string()),
            ("addresses", (victims * 512).to_string()),
            ("probe_n", victims.to_string()),
            ("probe_sum", format!("\"{probes}\"")),
            ("probe_sumsq", format!("\"{}\"", u128::from(probes) * 600)),
            ("probe_min", "1".into()),
            ("probe_max", "600".into()),
            (
                "confidence",
                format!(
                    "[{}, {}, {}, {}]",
                    confidence[0], confidence[1], confidence[2], confidence[3]
                ),
            ),
        ];
        for (_, value) in &mut fields {
            match rng.below(24) {
                0 => *value = number(rng),
                1 => *value = format!("\"{}\"", number(rng)),
                2 => *value = format!("[{}, {}]", number(rng), number(rng)),
                3 => *value = pick(rng, &["\"", "[", "{", "null", "\"0g\"", "\"\""]).into(),
                _ => {}
            }
        }
        if rng.below(8) == 0 {
            let gone = rng.below(fields.len() as u64) as usize;
            fields.remove(gone);
        }
        let body: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!("{{\n  {}\n}}\n", body.join(",\n  "))
    }
}

/// A valid checkpoint in the exact layout of [`Checkpoint::to_json`].
const CHECKPOINT_SEED: &str = "{\n  \"schema\": \"avx-aslr/fleet-checkpoint/v1\",\n  \
     \"fingerprint\": \"00c0ffee12345678\",\n  \"shards\": 4,\n  \
     \"completed\": \"1010\",\n  \"reducer\": {\n    \
     \"victims\": 1000,\n    \"hits\": 990,\n    \"records\": 1000,\n    \
     \"probes\": 123456,\n    \"addresses\": 512000,\n    \
     \"probe_n\": 1000,\n    \"probe_sum\": \"123456\",\n    \
     \"probe_sumsq\": \"15241383936\",\n    \"probe_min\": 100,\n    \
     \"probe_max\": 140,\n    \"confidence\": [10, 20, 30, 40]\n  }\n}\n";

/// Words worth splicing into a checkpoint.
const CHECKPOINT_TOKENS: &[&str] = &[
    "\"shards\": ",
    "\"completed\": \"",
    "\"probe_sum\": \"",
    "\"confidence\": [",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "\"",
    ", ",
    "]",
];

/// Parses `src`; an accepted checkpoint must re-parse from its own
/// `to_json` to the same value. `true` when accepted.
fn parse_and_round_trip(src: &str) -> bool {
    let Ok(checkpoint) = Checkpoint::from_json(src) else {
        return false;
    };
    let again = Checkpoint::from_json(&checkpoint.to_json());
    assert_eq!(again.as_ref(), Ok(&checkpoint), "round trip of {src:?}");
    true
}

#[test]
fn the_seed_inputs_are_accepted() {
    for seed in TRACE_SEEDS {
        assert!(VictimSchedule::from_trace(seed, 7).is_ok(), "{seed:?}");
    }
    assert!(Checkpoint::from_json(CHECKPOINT_SEED).is_ok());
}

/// Grammar-shaped trace files parse to an error or a schedule that
/// runs.
#[test]
fn trace_parser_never_panics_on_grammar_shaped_input() {
    let accepted = fuzz_cases("trace grammar", CASES, &TraceGrammar, |t| {
        parse_and_drive(t)
    });
    assert!(accepted >= CASES / 20, "only {accepted} traces accepted");
}

/// Byte-mutated trace files parse to an error or a schedule that runs.
#[test]
fn trace_parser_never_panics_on_mutated_input() {
    let mutated = Mutated {
        seeds: TRACE_SEEDS,
        tokens: TRACE_TOKENS,
    };
    let accepted = fuzz_cases("trace mutations", CASES, &mutated, |t| parse_and_drive(t));
    assert!(accepted >= CASES / 100, "only {accepted} traces accepted");
}

/// Grammar-shaped checkpoints parse to an error or a checkpoint that
/// round-trips.
#[test]
fn checkpoint_parser_never_panics_on_grammar_shaped_input() {
    let accepted = fuzz_cases("checkpoint grammar", CASES, &CheckpointGrammar, |src| {
        parse_and_round_trip(src)
    });
    assert!(
        accepted >= CASES / 50,
        "only {accepted} checkpoints accepted"
    );
}

/// Byte-mutated checkpoints parse to an error or a checkpoint that
/// round-trips.
#[test]
fn checkpoint_parser_never_panics_on_mutated_input() {
    let mutated = Mutated {
        seeds: &[CHECKPOINT_SEED],
        tokens: CHECKPOINT_TOKENS,
    };
    let accepted = fuzz_cases("checkpoint mutations", CASES, &mutated, |src| {
        parse_and_round_trip(src)
    });
    assert!(
        accepted >= CASES / 50,
        "only {accepted} checkpoints accepted"
    );
}
