//! The traced run (`--trace 1`): per-layer metrics from spans recorded
//! in this benchmark around calls into each layer's public functions.
//!
//! The span tree is workload → cell (one `Scenario::campaign_with` cell
//! or one fleet shard) → trial (`Scenario::run_trial_with`); fixture
//! spans (`Scenario::build_fixture`) hang off the workload, because the
//! engines build each layout once and share it across cells. Kernel-base
//! and KPTI trials are re-driven stage by stage — snapshot, victim
//! install, calibration, scan — through a [`TimedProber`] that times
//! every probe call, and each re-driven outcome is checked equal to
//! `run_trial_with`'s, so the trace measures the same program.
//!
//! Spans of one trial share its `(cell, trial)` id, are kept in memory,
//! and are written to `.bench_trace/<workload>.spans.tsv` at the end.

use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use avx_channel::attacks::campaign::{
    CampaignConfig, CampaignRow, Scenario, TrialFixture, TrialOutcome,
};
use avx_channel::fleet::{legacy_trial_seed, machine_seed, victim_seed, FleetReducer};
use avx_channel::stats::Trials;
use avx_channel::{KernelBaseFinder, KptiAttack, Prober, SimProber, Threshold};
use avx_mmu::VirtAddr;
use avx_os::linux::{LinuxSystem, KERNEL_SLOTS, KPTI_TRAMPOLINE_OFFSET};
use avx_uarch::{CpuProfile, Event, OpKind};
use rayon::prelude::*;

use crate::ledger::{self, Counts};
use crate::workloads::{build_pools_with, Output, Workload};
use crate::{host, stats, Checker, Report};

/// Span kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Workload,
    Fixture,
    Cell,
    Trial,
    Snapshot,
    Install,
    Calibrate,
    /// Every probe call inside the calibration, summed; starts with it.
    CalibrateProbes,
    Attack,
    /// Every probe call inside the scan, summed; starts with it.
    AttackProbes,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Workload => "workload",
            Kind::Fixture => "os.build_fixture",
            Kind::Cell => "channel.cell",
            Kind::Trial => "channel.trial",
            Kind::Snapshot => "os.snapshot",
            Kind::Install => "uarch.victim.install",
            Kind::Calibrate => "channel.calibrate",
            Kind::CalibrateProbes => "uarch.machine.calibrate_probes",
            Kind::Attack => "channel.attack",
            Kind::AttackProbes => "uarch.machine.attack_probes",
        }
    }
}

/// Cell id of spans that belong to no cell.
const NO_CELL: u32 = u32::MAX;

/// One recorded span; `(cell, trial)` identifies the trial it belongs to
/// (fixture spans carry their layout seed as `trial`).
#[derive(Clone, Copy, Debug)]
struct Span {
    kind: Kind,
    cell: u32,
    trial: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span sink shared by the worker threads.
struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends spans in one critical section, keeping each trial's
    /// spans contiguous.
    fn push(&self, spans: &[Span]) {
        self.spans
            .lock()
            .expect("a span writer panicked")
            .extend_from_slice(spans);
    }

    fn span(&self, kind: Kind, cell: u32, trial: u64, start_ns: u64) -> Span {
        Span {
            kind,
            cell,
            trial,
            start_ns,
            dur_ns: self.now() - start_ns,
        }
    }
}

/// A prober wrapper that times every probe call into the machine.
pub struct TimedProber<P> {
    inner: P,
    /// Host ns spent inside probe calls.
    busy_ns: u64,
    /// Probe calls (a scalar probe counts as a batch of one).
    calls: u64,
}

impl<P: Prober> TimedProber<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            busy_ns: 0,
            calls: 0,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl<P: Prober> Prober for TimedProber<P> {
    fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64 {
        self.timed(|p| p.probe(kind, addr))
    }

    fn probe_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        self.timed(|p| p.probe_batch_into(kind, addrs, out));
    }

    fn evict(&mut self, addr: VirtAddr) {
        self.inner.evict(addr);
    }

    fn spend(&mut self, cycles: u64) {
        self.inner.spend(cycles);
    }

    fn probes_issued(&self) -> u64 {
        self.inner.probes_issued()
    }

    fn probing_cycles(&self) -> u64 {
        self.inner.probing_cycles()
    }

    fn total_cycles(&self) -> u64 {
        self.inner.total_cycles()
    }

    fn clock_ghz(&self) -> f64 {
        self.inner.clock_ghz()
    }
}

/// One unit of parallel work: a campaign cell (trials run in parallel,
/// as in `Scenario::campaign_with`) or a fleet shard (victims run in
/// order, shards in parallel, as in `Fleet::run`).
struct Cell {
    label: String,
    scenario: Scenario,
    profile: CpuProfile,
    config: CampaignConfig,
    /// Index of the fixture pool the cell draws layouts from.
    pool: usize,
    trials: std::ops::Range<u64>,
    /// Fleet shards seed victim `v` with `victim_seed` and attack layout
    /// `v % pool`; campaign cells use the legacy seeds and fixture `i`.
    fleet_seed: Option<u64>,
}

impl Cell {
    fn inputs<'a>(&self, pool: &'a [TrialFixture], idx: u64) -> (&'a TrialFixture, u64) {
        let salt = self.scenario.seed_salt();
        match self.fleet_seed {
            None => (
                &pool[idx as usize],
                legacy_trial_seed(self.config.seed0, salt, idx),
            ),
            Some(seed) => (
                &pool[(idx % pool.len() as u64) as usize],
                victim_seed(seed, salt, idx),
            ),
        }
    }
}

/// The cells of a workload, in the order its engine runs them.
fn cells_for(workload: Workload, seed: u64, pools: &[(Scenario, Vec<TrialFixture>)]) -> Vec<Cell> {
    let mut cells = Vec::new();
    if let Some(fleet) = workload.fleet(seed) {
        for shard in 0..fleet.config.shard_count() {
            let (start, end) = fleet.shard_range(shard);
            cells.push(Cell {
                label: format!("shard {shard}"),
                scenario: fleet.scenario,
                profile: fleet.profile.clone(),
                config: fleet.campaign,
                pool: 0,
                trials: start..end,
                fleet_seed: Some(fleet.config.campaign_seed),
            });
        }
        return cells;
    }
    // Campaign::run's loop nest: noise, defense, schedule, scenario,
    // profile; the cloud scenario runs once, on its first supported
    // profile.
    let campaign = workload.campaign(seed).expect("campaign or fleet");
    for &noise in &campaign.noises {
        for &defense in &campaign.defenses {
            for &schedule in &campaign.schedules {
                for (pool, (scenario, fixtures)) in pools.iter().enumerate() {
                    let config = CampaignConfig {
                        trials: fixtures.len() as u64,
                        noise,
                        defense,
                        schedule,
                        ..campaign.config
                    };
                    let mut profiles = campaign
                        .profiles
                        .iter()
                        .filter(|p| scenario.supported_on(p));
                    let profiles: Vec<&CpuProfile> = if *scenario == Scenario::Cloud {
                        profiles.next().into_iter().collect()
                    } else {
                        profiles.collect()
                    };
                    for profile in profiles {
                        cells.push(Cell {
                            label: format!(
                                "{} {} [{noise}/{}/{schedule}]",
                                profile.model,
                                scenario,
                                defense.name()
                            ),
                            scenario: *scenario,
                            profile: profile.clone(),
                            config,
                            pool,
                            trials: 0..fixtures.len() as u64,
                            fleet_seed: None,
                        });
                    }
                }
            }
        }
    }
    cells
}

/// What the traced machine did during one re-driven trial.
#[derive(Clone, Copy, Debug, Default)]
struct MachineStats {
    probe_ns: u64,
    calls: u64,
    tlb_hit_l1: u64,
    tlb_hit_l2: u64,
    tlb_miss: u64,
    walks: u64,
    assists: u64,
    sched_events: u64,
    shape_bumps: u64,
}

/// One traced trial: its outcome, and machine statistics when it was
/// re-driven stage by stage.
struct Traced {
    outcome: TrialOutcome,
    machine: Option<MachineStats>,
}

/// Re-drives a kernel-base or KPTI trial through the public calls
/// `Scenario::run_trial_with` makes, recording one span per stage.
fn redrive(
    rec: &Recorder,
    spans: &mut Vec<Span>,
    (c, idx): (u32, u64),
    cell: &Cell,
    sys: &LinuxSystem,
    seed: u64,
) -> Traced {
    let (scenario, profile, config) = (cell.scenario, &cell.profile, cell.config);
    let start = rec.now();
    let (mut machine, truth) = sys.machine(profile.clone(), machine_seed(seed));
    spans.push(rec.span(Kind::Snapshot, c, idx, start));

    let start = rec.now();
    machine.set_noise_profile(config.noise);
    machine.set_observables(config.observables);
    config
        .defense
        .install(&mut machine, &scenario.defense_regions(), seed);
    config.schedule.install(&mut machine, config.noise, seed);
    spans.push(rec.span(Kind::Install, c, idx, start));
    let epoch = machine.space().shape_epoch();

    let start = rec.now();
    let mut p = TimedProber::new(SimProber::new(machine));
    let fit = Threshold::calibrate_with(&mut p, truth.user.calibration, 16, config.calibrator);
    spans.push(rec.span(Kind::Calibrate, c, idx, start));
    let calibrate_probe_ns = p.busy_ns;
    spans.push(Span {
        dur_ns: calibrate_probe_ns,
        ..rec.span(Kind::CalibrateProbes, c, idx, start)
    });

    let start = rec.now();
    let sampler = config.sampler_for(profile, &fit);
    let strategy = config.sampling.strategy_override();
    let (base, probing_cycles, total_cycles, confidence) = if scenario == Scenario::KernelBase {
        let mut finder = KernelBaseFinder::new(fit.threshold);
        if let Some(sampler) = sampler {
            finder = finder.with_adaptive(sampler);
        }
        if let Some(strategy) = strategy {
            finder = finder.with_strategy(strategy);
        }
        if let Some(recal) = config.recal {
            finder = finder.with_recalibration(recal);
        }
        if let Some(confirm) = config.confirm {
            finder = finder.with_confirmation(confirm);
        }
        let scan = finder.scan(&mut p);
        (scan.base, scan.probing_cycles, scan.total_cycles, None)
    } else {
        let mut attack = KptiAttack::new(fit.threshold, KPTI_TRAMPOLINE_OFFSET);
        if let Some(sampler) = sampler {
            attack = attack.with_adaptive(sampler);
        }
        if let Some(strategy) = strategy {
            attack = attack.with_strategy(strategy);
        }
        if let Some(recal) = config.recal {
            attack = attack.with_recalibration(recal);
        }
        if let Some(confirm) = config.confirm {
            attack = attack.with_confirmation(confirm);
        }
        let scan = attack.scan(&mut p);
        (
            scan.base,
            scan.probing_cycles,
            scan.total_cycles,
            Some(scan.confidence),
        )
    };
    spans.push(rec.span(Kind::Attack, c, idx, start));
    spans.push(Span {
        dur_ns: p.busy_ns - calibrate_probe_ns,
        ..rec.span(Kind::AttackProbes, c, idx, start)
    });

    let ghz = p.clock_ghz();
    let mut accuracy = Trials::new();
    accuracy.record(base == Some(truth.kernel_base));
    let outcome = TrialOutcome {
        probing_seconds: probing_cycles as f64 / (ghz * 1e9),
        total_seconds: total_cycles as f64 / (ghz * 1e9),
        probes: p.probes_issued(),
        addresses: KERNEL_SLOTS,
        accuracy,
        confidence,
    };
    let machine = p.inner.machine();
    let pmc = machine.pmc();
    let stats = MachineStats {
        probe_ns: p.busy_ns,
        calls: p.calls,
        tlb_hit_l1: pmc.read(Event::TlbHitL1),
        tlb_hit_l2: pmc.read(Event::TlbHitL2),
        tlb_miss: pmc.read(Event::TlbMiss),
        walks: pmc.read(Event::DtlbLoadWalkCompleted) + pmc.read(Event::DtlbStoreWalkCompleted),
        assists: pmc.read(Event::AssistsAny),
        sched_events: machine.victim_schedule().map_or(0, |s| s.fired()),
        shape_bumps: machine.space().shape_epoch() - epoch,
    };
    Traced {
        outcome,
        machine: Some(stats),
    }
}

fn traced_trial(rec: &Recorder, c: u32, cell: &Cell, pool: &[TrialFixture], idx: u64) -> Traced {
    let (fixture, seed) = cell.inputs(pool, idx);
    let mut spans = Vec::with_capacity(7);
    let start = rec.now();
    let traced = match (cell.scenario, fixture) {
        (Scenario::KernelBase | Scenario::Kpti, TrialFixture::Linux(sys)) => {
            redrive(rec, &mut spans, (c, idx), cell, sys, seed)
        }
        (scenario, fixture) => Traced {
            outcome: scenario.run_trial_with(&cell.profile, fixture, seed, cell.config),
            machine: None,
        },
    };
    spans.push(rec.span(Kind::Trial, c, idx, start));
    rec.push(&spans);
    traced
}

/// Runs `f` over every trial of every cell with the engine's
/// parallelism: trials of one cell in parallel for campaigns, shards in
/// parallel for fleets. Results come back per cell, in trial order;
/// with a recorder, each cell is a span.
fn for_each_trial<R, F>(rec: Option<&Recorder>, cells: &[Cell], by_shard: bool, f: F) -> Vec<Vec<R>>
where
    R: Send,
    F: Fn(u32, &Cell, u64) -> R + Sync,
{
    let run_cell = |c: usize, parallel: bool| {
        let start = rec.map_or(0, Recorder::now);
        let cell = &cells[c];
        let out: Vec<R> = if parallel {
            cell.trials
                .clone()
                .into_par_iter()
                .map(|i| f(c as u32, cell, i))
                .collect()
        } else {
            cell.trials.clone().map(|i| f(c as u32, cell, i)).collect()
        };
        if let Some(rec) = rec {
            rec.push(&[rec.span(Kind::Cell, c as u32, 0, start)]);
        }
        out
    };
    if by_shard {
        (0..cells.len())
            .into_par_iter()
            .map(|c| run_cell(c, false))
            .collect()
    } else {
        (0..cells.len()).map(|c| run_cell(c, true)).collect()
    }
}

/// Bit-exact equality of two trial outcomes.
fn same_outcome(a: &TrialOutcome, b: &TrialOutcome) -> bool {
    a.probing_seconds.to_bits() == b.probing_seconds.to_bits()
        && a.total_seconds.to_bits() == b.total_seconds.to_bits()
        && a.probes == b.probes
        && a.addresses == b.addresses
        && a.accuracy == b.accuracy
        && a.confidence == b.confidence
}

/// The untraced measured call's full result.
enum Reference {
    Rows(Vec<CampaignRow>),
    Fleet(FleetReducer),
}

fn reference_call(workload: Workload, seed: u64) -> Reference {
    match (workload.campaign(seed), workload.fleet(seed)) {
        (Some(campaign), _) => Reference::Rows(campaign.run()),
        (None, Some(fleet)) => Reference::Fleet(
            fleet
                .run()
                .expect("a checkpoint-free fleet run cannot fail")
                .aggregate,
        ),
        (None, None) => unreachable!("every workload is a campaign or a fleet"),
    }
}

fn reference_output(reference: &Reference) -> Output {
    match reference {
        Reference::Rows(rows) => Output::from_rows(rows),
        Reference::Fleet(aggregate) => Output::from_fleet(aggregate),
    }
}

/// Whether the traced cells reproduce the untraced call's rows or
/// aggregate exactly.
fn traced_matches(reference: &Reference, results: &[Vec<Traced>]) -> bool {
    match reference {
        Reference::Rows(rows) => {
            rows.len() == results.len()
                && rows.iter().zip(results).all(|(row, trials)| {
                    let n = trials.len().max(1) as f64;
                    let (mut probing, mut total, mut probes) = (0.0f64, 0.0f64, 0u64);
                    let mut accuracy = Trials::new();
                    for t in trials {
                        probing += t.outcome.probing_seconds;
                        total += t.outcome.total_seconds;
                        probes += t.outcome.probes;
                        accuracy.successes += t.outcome.accuracy.successes;
                        accuracy.total += t.outcome.accuracy.total;
                    }
                    row.probes == probes
                        && row.accuracy == accuracy
                        && row.probing_seconds.to_bits() == (probing / n).to_bits()
                        && row.total_seconds.to_bits() == (total / n).to_bits()
                })
        }
        Reference::Fleet(aggregate) => {
            let mut merged = FleetReducer::new();
            for shard in results {
                let mut local = FleetReducer::new();
                for t in shard {
                    local.push(&t.outcome);
                }
                merged.merge(&local);
            }
            merged == *aggregate
        }
    }
}

/// Checks the span tree; returns `(checks made, violations)`. Self
/// times add up to the trial span by construction (a trial's own self
/// time is what its stages leave), so what is checked is what can fail:
/// a re-driven trial's stage spans carry its id and fit inside it, and
/// a cell's trial spans lie inside the cell span and sum to at most the
/// cell span times the workers that ran them (one for a fleet shard).
fn check_spans(spans: &[Span], cells: &[Cell], by_shard: bool) -> (u64, u64) {
    let mut cell_spans: Vec<Option<&Span>> = vec![None; cells.len()];
    for span in spans.iter().filter(|s| s.kind == Kind::Cell) {
        cell_spans[span.cell as usize] = Some(span);
    }
    let mut trial_ns = vec![0u64; cells.len()];
    let mut outside = vec![false; cells.len()];
    let (mut checked, mut violations) = (0u64, 0u64);
    let mut group: Vec<&Span> = Vec::new();
    for span in spans {
        match span.kind {
            Kind::Snapshot
            | Kind::Install
            | Kind::Calibrate
            | Kind::CalibrateProbes
            | Kind::Attack
            | Kind::AttackProbes => group.push(span),
            Kind::Trial => {
                let c = span.cell as usize;
                trial_ns[c] += span.dur_ns;
                outside[c] |= cell_spans[c].is_none_or(|cell| {
                    span.start_ns < cell.start_ns
                        || span.start_ns + span.dur_ns > cell.start_ns + cell.dur_ns
                });
                let dur = |k: Kind| -> i128 {
                    group
                        .iter()
                        .filter(|s| s.kind == k)
                        .map(|s| i128::from(s.dur_ns))
                        .sum()
                };
                let foreign = group
                    .iter()
                    .any(|s| s.cell != span.cell || s.trial != span.trial);
                let trial_self = i128::from(span.dur_ns)
                    - dur(Kind::Snapshot)
                    - dur(Kind::Install)
                    - dur(Kind::Calibrate)
                    - dur(Kind::Attack);
                let calibrate_self = dur(Kind::Calibrate) - dur(Kind::CalibrateProbes);
                let attack_self = dur(Kind::Attack) - dur(Kind::AttackProbes);
                let bad = foreign || trial_self < 0 || calibrate_self < 0 || attack_self < 0;
                checked += 1;
                violations += u64::from(bad);
                group.clear();
            }
            Kind::Workload | Kind::Fixture | Kind::Cell => {}
        }
    }
    for (c, cell) in cells.iter().enumerate() {
        let workers = if by_shard {
            1
        } else {
            host::workers().min((cell.trials.end - cell.trials.start) as usize)
        };
        let capacity = cell_spans[c].map_or(0, |s| s.dur_ns * workers as u64);
        checked += 1;
        violations += u64::from(outside[c] || trial_ns[c] > capacity);
    }
    (checked, violations)
}

/// Writes every span, plus the cell labels, as tab-separated lines.
fn write_spans(workload: Workload, cells: &[Cell], spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.spans.tsv", workload.name()));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    for (c, cell) in cells.iter().enumerate() {
        writeln!(out, "# cell {c}\t{}", cell.label)?;
    }
    writeln!(out, "# kind\tcell\ttrial\tstart_ns\tdur_ns")?;
    for s in spans {
        let cell = if s.cell == NO_CELL {
            "-".to_string()
        } else {
            s.cell.to_string()
        };
        writeln!(
            out,
            "{}\t{cell}\t{}\t{}\t{}",
            s.kind.name(),
            s.trial,
            s.start_ns,
            s.dur_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

/// `--trace 1`: one untraced run of the measured call, one traced run,
/// the re-drive check, the ledger and the accounting check.
pub fn run(workload: Workload, seed: u64) -> Report {
    let mut checker = Checker::new(workload, seed);
    let (mut attempted, mut failed) = (1u64, 0u64);
    let shards = workload == Workload::FleetBase;

    // Untraced pass: the reference outputs, the overhead baseline and
    // the engine's CPU utilization on the rayon shim's workers.
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let untraced = catch_unwind(|| reference_call(workload, seed));
    let untraced_wall = t.elapsed().as_secs_f64();
    let engine_cpu_util = (host::cpu_seconds() - cpu0) / (untraced_wall * host::workers() as f64);
    let Ok(reference) = untraced else {
        println!("untraced run panicked");
        return Report {
            correct: false,
            attempted,
            failed: 1,
            metrics: Vec::new(),
        };
    };
    failed += u64::from(!checker.accept(&reference_output(&reference)));

    // Traced pass.
    let rec = Recorder::new();
    let traced = catch_unwind(AssertUnwindSafe(|| {
        let start = rec.now();
        let pools = build_pools_with(workload, seed, |scenario, s| {
            let start = rec.now();
            let fixture = scenario.build_fixture(s);
            rec.push(&[rec.span(Kind::Fixture, NO_CELL, s, start)]);
            fixture
        });
        let cells = cells_for(workload, seed, &pools);
        let results = for_each_trial(Some(&rec), &cells, shards, |c, cell, i| {
            traced_trial(&rec, c, cell, &pools[cell.pool].1, i)
        });
        rec.push(&[rec.span(Kind::Workload, NO_CELL, 0, start)]);
        (pools, cells, results)
    }));
    attempted += 1;
    let Ok((pools, cells, results)) = traced else {
        println!("traced run panicked");
        return Report {
            correct: false,
            attempted,
            failed: failed + 1,
            metrics: Vec::new(),
        };
    };
    let spans = rec.spans.into_inner().expect("a span writer panicked");
    let traced_wall = spans
        .iter()
        .find(|s| s.kind == Kind::Workload)
        .map_or(f64::NAN, |s| s.dur_ns as f64 * 1e-9);
    let same_program = traced_matches(&reference, &results);
    println!(
        "traced run reproduces the untraced {}: {}",
        if shards {
            "fleet aggregate"
        } else {
            "campaign rows"
        },
        if same_program { "yes" } else { "NO" }
    );
    attempted += 1;
    failed += u64::from(!same_program);

    // Re-drive check: every re-driven outcome equals run_trial_with's.
    let compared = AtomicU64::new(0);
    let differing = AtomicU64::new(0);
    let checked = catch_unwind(AssertUnwindSafe(|| {
        for_each_trial(None, &cells, shards, |c, cell, i| {
            let traced = &results[c as usize][(i - cell.trials.start) as usize];
            if traced.machine.is_some() {
                let (fixture, seed) = cell.inputs(&pools[cell.pool].1, i);
                let reference =
                    cell.scenario
                        .run_trial_with(&cell.profile, fixture, seed, cell.config);
                compared.fetch_add(1, Ordering::Relaxed);
                if !same_outcome(&reference, &traced.outcome) {
                    differing.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }));
    let (compared, differing) = (compared.into_inner(), differing.into_inner());
    println!(
        "re-driven kernel-base/KPTI trials equal run_trial_with: {}/{compared}",
        compared - differing
    );
    attempted += 1;
    failed += u64::from(checked.is_err() || differing > 0 || compared == 0);

    let (checked, violations) = check_spans(&spans, &cells, shards);
    println!(
        "span tree consistent (stages inside their trial, trials inside their cell on at \
         most its workers): {}/{checked} trials and cells",
        checked - violations
    );
    attempted += 1;
    failed += u64::from(violations > 0);

    // Span-derived layer metrics.
    let durations = |kind: Kind| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns as f64)
            .collect()
    };
    let fixture_us: Vec<f64> = durations(Kind::Fixture).iter().map(|ns| ns / 1e3).collect();
    let mean_us = |kind: Kind| {
        let d = durations(kind);
        d.iter().sum::<f64>() / d.len().max(1) as f64 / 1e3
    };
    let self_us = |outer: Kind, inner: Kind| {
        let (o, i) = (durations(outer), durations(inner));
        (o.iter().sum::<f64>() - i.iter().sum::<f64>()) / o.len().max(1) as f64 / 1e3
    };
    let mut m = MachineStats::default();
    let mut redriven = 0u64;
    let mut redriven_probes = 0u64;
    let (mut all_probes, mut all_addresses) = (0u64, 0u64);
    for t in results.iter().flatten() {
        all_probes += t.outcome.probes;
        all_addresses += t.outcome.addresses;
        if let Some(s) = t.machine {
            redriven += 1;
            redriven_probes += t.outcome.probes;
            m.probe_ns += s.probe_ns;
            m.calls += s.calls;
            m.tlb_hit_l1 += s.tlb_hit_l1;
            m.tlb_hit_l2 += s.tlb_hit_l2;
            m.tlb_miss += s.tlb_miss;
            m.walks += s.walks;
            m.assists += s.assists;
            m.sched_events += s.sched_events;
            m.shape_bumps += s.shape_bumps;
        }
    }
    let redriven_trial_ns: f64 = spans
        .iter()
        .filter(|s| s.kind == Kind::Trial)
        .filter(|s| {
            results[s.cell as usize][(s.trial - cells[s.cell as usize].trials.start) as usize]
                .machine
                .is_some()
        })
        .map(|s| s.dur_ns as f64)
        .sum();
    let ns_per_probe = m.probe_ns as f64 / redriven_probes.max(1) as f64;
    let lookups = m.tlb_hit_l1 + m.tlb_hit_l2 + m.tlb_miss;
    println!(
        "uarch.machine: {ns_per_probe:.1} ns/probe, timed on the re-driven kernel-base/KPTI \
         trials only: {redriven_probes} of {all_probes} probes ({:.2} %)",
        redriven_probes as f64 * 100.0 / all_probes.max(1) as f64
    );

    // Cells by wall share: where the workload's time goes.
    let mut cell_spans: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Cell).collect();
    let cell_total: f64 = cell_spans.iter().map(|s| s.dur_ns as f64).sum();
    cell_spans.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
    println!("top cells by wall share:");
    for s in cell_spans.iter().take(5) {
        println!(
            "  {:>6.2} %  {}",
            s.dur_ns as f64 * 100.0 / cell_total,
            cells[s.cell as usize].label
        );
    }
    let top_cell_share = cell_spans
        .first()
        .map_or(0.0, |s| s.dur_ns as f64 / cell_total);

    // The ledger and the accounting check.
    let profile = CpuProfile::alder_lake_i5_12400f();
    let ledger = ledger::measure(&profile);
    let counts = Counts {
        probes: redriven_probes,
        tlb_hit_l1: m.tlb_hit_l1,
        tlb_hit_l2: m.tlb_hit_l2,
        tlb_miss: m.tlb_miss,
    };
    let accounting = ledger::account(&ledger, &counts, workload.observables(), ns_per_probe);
    println!(
        "ledger: {:.1} ns/probe explained of {ns_per_probe:.1} measured ({:+.1} % unexplained); \
         {}",
        accounting.predicted_ns,
        accounting.unexplained_share * 100.0,
        if accounting.unexplained_share.abs() <= 0.15 {
            "the ledger reproduces the machine's cost per probe within 15 %".to_string()
        } else {
            format!(
                "{:.1} ns/probe sit in an unmeasured layer: uarch.machine's per-op \
                 bookkeeping inside execute_batch_into (walk-step costing, PMC bumps, victim \
                 schedule and defense ticks, shadow-index rebuilds after layout writes)",
                ns_per_probe - accounting.predicted_ns
            )
        }
    );
    println!(
        "tracing overhead: traced {traced_wall:.3} s - untraced {untraced_wall:.3} s = {:.3} s",
        traced_wall - untraced_wall
    );
    match write_spans(workload, &cells, &spans) {
        Ok(path) => println!("spans: {} written to {path}", spans.len()),
        Err(err) => println!("spans: not written ({err})"),
    }
    attempted += crate::workloads::GRID_CANARIES.len() as u64;
    failed += crate::run_canaries();

    let campaign = !shards;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("os.build_fixture_us_p50", stats::median(&fixture_us), "us"),
            (
                "os.build_fixture_us_p99",
                stats::percentile(&fixture_us, 99.0),
                "us",
            ),
            ("os.snapshot_us", mean_us(Kind::Snapshot), "us"),
            ("uarch.victim.install_us", mean_us(Kind::Install), "us"),
            ("uarch.victim.sched_events", m.sched_events as f64, "count"),
            ("mmu.shape_epoch_bumps", m.shape_bumps as f64, "count"),
            ("uarch.machine.ns_per_probe", ns_per_probe, "ns"),
            (
                "uarch.machine.busy_share",
                m.probe_ns as f64 / redriven_trial_ns.max(1.0),
                "ratio",
            ),
            ("uarch.machine.batches", m.calls as f64, "count"),
            ("uarch.machine.probes", redriven_probes as f64, "count"),
            ("uarch.pmc.tlb_hit_l1", m.tlb_hit_l1 as f64, "count"),
            ("uarch.pmc.tlb_hit_l2", m.tlb_hit_l2 as f64, "count"),
            ("uarch.pmc.tlb_miss", m.tlb_miss as f64, "count"),
            ("uarch.pmc.walks_completed", m.walks as f64, "count"),
            ("uarch.pmc.assists", m.assists as f64, "count"),
            (
                "uarch.pmc.tlb_hit_ratio",
                ratio(m.tlb_hit_l1 + m.tlb_hit_l2, lookups),
                "ratio",
            ),
            ("mmu.tlb_hit_ns", ledger.tlb_hit_ns, "ns"),
            ("mmu.tlb_miss_ns", ledger.tlb_miss_ns, "ns"),
            ("mmu.psc_lookup_ns", ledger.psc_lookup_ns, "ns"),
            ("mmu.shadow_lookup_ns", ledger.shadow_lookup_ns, "ns"),
            ("mmu.walk_ns", ledger.walk_ns, "ns"),
            ("uarch.lines.touch_ns", ledger.line_touch_ns, "ns"),
            ("uarch.noise.v1_draw_ns", ledger.v1_draw_ns, "ns"),
            ("uarch.noise.v2_draw_ns", ledger.v2_draw_ns, "ns"),
            (
                "channel.calibrate.self_us",
                self_us(Kind::Calibrate, Kind::CalibrateProbes),
                "us",
            ),
            (
                "channel.calibrate.refit_bimodal_us",
                ledger.refit_bimodal_us,
                "us",
            ),
            (
                "channel.attack.self_us",
                self_us(Kind::Attack, Kind::AttackProbes),
                "us",
            ),
            (
                "channel.attack.probes_per_address",
                ratio(all_probes, all_addresses),
                "ratio",
            ),
            (
                "channel.campaign.cpu_util",
                if campaign { engine_cpu_util } else { 0.0 },
                "ratio",
            ),
            (
                "channel.campaign.top_cell_share",
                if campaign { top_cell_share } else { 0.0 },
                "ratio",
            ),
            (
                "channel.fleet.cpu_util",
                if campaign { 0.0 } else { engine_cpu_util },
                "ratio",
            ),
            (
                "ledger.predicted_ns_per_probe",
                accounting.predicted_ns,
                "ns",
            ),
            (
                "ledger.unexplained_share",
                accounting.unexplained_share,
                "ratio",
            ),
            (
                "trace.redriven_probe_share",
                ratio(redriven_probes, all_probes),
                "ratio",
            ),
            ("trace.overhead_s", traced_wall - untraced_wall, "s"),
            ("trace.redriven_trials", redriven as f64, "count"),
        ],
    }
}
