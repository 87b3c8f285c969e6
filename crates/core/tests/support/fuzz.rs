//! Shared pieces of the outside-input fuzz harnesses
//! (`crates/core/tests/input_fuzz.rs` and
//! `crates/bench/tests/cli_fuzz.rs`, which includes this file by path):
//! a byte mutator over seed inputs and a case loop that runs every
//! input under `catch_unwind` and names the input that panicked.
//!
//! Cases come from the `proptest` shim's deterministic per-test RNG, so
//! every run replays the same inputs and a failure reproduces exactly.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::TestRng;

/// Bytes the mutator favours: the separators, signs and digits the
/// parsers split and read on, plus bytes that are never valid UTF-8.
const INTERESTING: &[u8] = b" \t\n\r#=-+.,:;\"[]{}0129eEfx\x00\x7f\xc3\xff";

/// Byte-mutated variants of seed inputs: each value is one of `seeds`
/// after 1 to 8 random edits — a bit flip, a byte overwrite, an insert,
/// a deletion, a splice of one of `tokens`, or a duplicated span.
/// Invalid UTF-8 is replaced by U+FFFD, as the command line's lossy
/// conversion does.
pub struct Mutated<'a> {
    /// Well-formed inputs the edits start from.
    pub seeds: &'a [&'a str],
    /// Whole tokens worth splicing in (keywords, edge-case numbers).
    pub tokens: &'a [&'a str],
}

impl Strategy for Mutated<'_> {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        let seed = self.seeds[rng.below(self.seeds.len() as u64) as usize];
        mutate(rng, seed, self.tokens)
    }
}

/// One draw of [`Mutated`] from the single seed `seed`.
pub fn mutate(rng: &mut TestRng, seed: &str, tokens: &[&str]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.below(8) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let end = (at + 1 + rng.below(8) as usize).min(bytes.len());
        let interesting = INTERESTING[rng.below(INTERESTING.len() as u64) as usize];
        match rng.below(6) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 if at < bytes.len() => bytes[at] = interesting,
            2 => bytes.insert(at, interesting),
            3 => {
                bytes.drain(at..end);
            }
            4 if !tokens.is_empty() => {
                let token = tokens[rng.below(tokens.len() as u64) as usize];
                bytes.splice(at..at, token.bytes());
            }
            _ => {
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `check` on `cases` inputs drawn from `strategy` (the RNG seeded
/// from `name`), each under `catch_unwind`: a panic fails the test with
/// the input that caused it. Returns how many inputs `check` accepted.
pub fn fuzz_cases<S: Strategy>(
    name: &str,
    cases: usize,
    strategy: &S,
    check: impl Fn(&S::Value) -> bool,
) -> usize
where
    S::Value: Debug,
{
    let mut rng = TestRng::deterministic(name);
    let mut accepted = 0;
    for _ in 0..cases {
        let input = strategy.new_value(&mut rng);
        match catch_unwind(AssertUnwindSafe(|| check(&input))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("{name}: panicked on {input:?}"),
        }
    }
    accepted
}
