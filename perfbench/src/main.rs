//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|fleet-base|closed-loop-victims> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's measured call for `--seconds`
//! seconds and prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of one traced run. The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md`.

mod host;
mod ledger;
mod pins;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Output, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-grid|fleet-base|closed-loop-victims> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// The result block: the benchmark's last line of output.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; an unmeasurable value reads 0 and the
                // run is already marked incorrect by whoever produced it.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks every run's outputs: against the recorded pin when the seed
/// has one, and against the first run of this process always (the
/// outputs are a pure function of workload and seed).
pub struct Checker {
    workload: Workload,
    seed: u64,
    first: Option<Output>,
}

impl Checker {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            first: None,
        }
    }

    /// `true` when `out` is the workload's correct output.
    pub fn accept(&mut self, out: &Output) -> bool {
        if let Some(first) = &self.first {
            if first != out {
                println!("MISMATCH: outputs differ from this process's first run");
                return false;
            }
            return true;
        }
        if let Some(pin) = pins::lookup(self.workload.name(), self.seed) {
            let ok = pin.probes == out.probes
                && pin.hits == out.hits
                && pin.records == out.records
                && pin.sim_attack_ms == out.sim_attack_ms
                && pin.digest == out.digest();
            if !ok {
                println!(
                    "MISMATCH: pin probes={} acc={}/{} sim_attack_ms={:?} digest={:016x}; \
                     measured entry:\n    Pin {{ workload: {:?}, seed: {}, probes: {}, hits: {}, \
                     records: {}, sim_attack_ms: {:?}, digest: 0x{:016x} }},",
                    pin.probes,
                    pin.hits,
                    pin.records,
                    pin.sim_attack_ms,
                    pin.digest,
                    pin.workload,
                    pin.seed,
                    out.probes,
                    out.hits,
                    out.records,
                    out.sim_attack_ms,
                    out.digest()
                );
                for line in &out.lines {
                    println!("    // {line}");
                }
                return false;
            }
        }
        self.first = Some(out.clone());
        true
    }

    /// Whether the run was checked against a recorded pin.
    pub fn pinned(&self) -> bool {
        pins::lookup(self.workload.name(), self.seed).is_some()
    }
}

/// Runs the n = 2 grid canaries (they are checked, not timed); returns
/// how many failed.
pub fn run_canaries() -> u64 {
    let mut failed = 0;
    for (observables, expected) in workloads::GRID_CANARIES {
        let got = catch_unwind(|| workloads::grid_canary(observables)).ok();
        let ok = got == Some(expected);
        println!(
            "canary: n=2 grid {observables} probes {} (pinned {expected}) {}",
            got.map_or("panicked".into(), |g| g.to_string()),
            if ok { "ok" } else { "MISMATCH" }
        );
        failed += u64::from(!ok);
    }
    failed
}

/// Timed calls repeat while the next one is expected to end within
/// `--seconds`, and at least this many run. No warm-up call: the set-up
/// builds before each call already grow the heap, and first calls
/// measured no slower than later ones.
const MIN_TIMED_CALLS: usize = 2;

/// Set-up time per build: the workload's fixtures are built repeatedly
/// until this much set-up time has accumulated (at least once), so
/// millisecond-scale set-ups still yield a stable median.
const SETUP_SECONDS_PER_RUN: f64 = 1.0;

fn setup_samples(workload: Workload, seed: u64) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.iter().sum::<f64>() < SETUP_SECONDS_PER_RUN {
        let t = Instant::now();
        let pools = workload.build_pools(seed);
        samples.push(t.elapsed().as_secs_f64());
        drop(pools);
    }
    samples
}

/// `--trace 0`: repeat the measured call, report end-to-end metrics.
fn measure(args: &Args) -> Report {
    let workload = args.workload;
    let mut checker = Checker::new(workload, args.seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup_s, mut probes_per_s, mut cpu_ns_per_probe) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut output: Option<Output> = None;
    let start = Instant::now();
    loop {
        attempted += 1;
        let call_start = start.elapsed().as_secs_f64();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let setup = setup_samples(workload, args.seed);
            let cpu0 = host::cpu_seconds();
            let t = Instant::now();
            let out = workload.execute(args.seed);
            let wall = t.elapsed().as_secs_f64();
            (setup, out, wall, host::cpu_seconds() - cpu0)
        }));
        match run {
            Ok((setup, out, wall, cpu)) if checker.accept(&out) => {
                println!(
                    "call {attempted}: wall {wall:.4} s, {:.0} probes/s, {:.2} cpu ns/probe",
                    out.probes as f64 / wall,
                    cpu * 1e9 / out.probes as f64,
                );
                setup_s.extend(setup);
                probes_per_s.push(out.probes as f64 / wall);
                cpu_ns_per_probe.push(cpu * 1e9 / out.probes as f64);
                output.get_or_insert(out);
            }
            _ => failed += 1,
        }
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + (elapsed - call_start);
        let enough = probes_per_s.len() >= MIN_TIMED_CALLS;
        // The second bound stops a run whose calls keep failing.
        if (enough && next_end > args.seconds) || elapsed >= 2.0 * args.seconds {
            break;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    attempted += workloads::GRID_CANARIES.len() as u64;
    failed += run_canaries();

    if let Some(out) = &output {
        println!(
            "outputs: probes={} accuracy_pct={} ({}/{}) trials={} sim_attack_ms={} \
             digest={:016x} ({})",
            out.probes,
            out.accuracy_pct(),
            out.hits,
            out.records,
            out.trials,
            out.sim_attack_ms
                .map_or("n/a".into(), |ms| format!("{ms:?}")),
            out.digest(),
            if checker.pinned() {
                "pinned seed"
            } else {
                "unpinned seed: checked for repeatability"
            },
        );
    }
    for (name, xs, unit) in [
        ("probes_per_s", &probes_per_s, "1/s"),
        ("cpu_ns_per_probe", &cpu_ns_per_probe, "ns"),
        ("setup_s", &setup_s, "s"),
    ] {
        println!("metric {name}: {} {unit}", stats::describe(xs));
    }
    println!(
        "error_rate: {failed}/{attempted} = {}",
        failed as f64 / attempted as f64
    );
    let measured = !probes_per_s.is_empty();
    Report {
        correct: failed == 0 && measured,
        attempted,
        failed,
        metrics: vec![
            ("probes_per_s", stats::median(&probes_per_s), "1/s"),
            ("cpu_ns_per_probe", stats::median(&cpu_ns_per_probe), "ns"),
            ("setup_s", stats::median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::block(args.workload.name(), args.seed));
    let report = if args.trace {
        trace::run(args.workload, args.seed)
    } else {
        measure(&args)
    };
    println!("{}", report.json());
    ExitCode::SUCCESS
}
