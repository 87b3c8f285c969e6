//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! cargo run -p avx-bench --release --bin repro            # default trials
//! AVX_TRIALS=10000 cargo run -p avx-bench --release --bin repro   # paper-scale n
//! cargo run -p avx-bench --release --bin repro -- --noise smt --adaptive
//! ```
//!
//! `--noise quiet|smt|laptop|cloud|drift` selects the victim's noise
//! environment for the campaign sections (`drift` is the quiet→laptop
//! mid-scan ramp), `--adaptive` / `--fixed-budget` select the
//! probe-budget policy, `--recalibrate` runs every sweep attack
//! under the closed-loop recalibration driver, `--confirm` layers the
//! confirmation decision policy over every needle-in-haystack scan,
//! `--observables v1|v2` selects the noise-observables regime (v1
//! is the bit-exact paper stream, v2 the batched ziggurat kernel),
//! `--defense none|masked|rerandomizing` runs the campaign sections
//! against a defended victim (see `docs/DEFENSES.md`), and
//! `--schedule none|dvfs-square|cotenant-burst|module-churn` runs them
//! against an event-driven victim whose environment changes on a
//! virtual wall clock mid-scan — a non-preset `--schedule` value is
//! read as a trace file in the grammar of `docs/VICTIMS.md` — together
//! they reproduce the probes-per-address numbers of the noise-scenario
//! matrix and the drifting-noise recovery row. Each flag has an `AVX_*`
//! environment fallback, and `--fleet N` switches to the population
//! sweep ([`avx_bench::Cli`] lists them all). An unknown flag or name, a
//! number that does not parse, or an unreadable or invalid trace file
//! is refused with a message and exit status 2. The README and
//! `ARCHITECTURE.md` record what this binary prints.

use avx_bench::{
    calibrate, linux_prober, linux_prober_with, paper, sigma_only_machine, Cli, Trace, TRACE_SEED,
};
use avx_channel::attacks::behavior::{SpyConfig, TlbSpy};
use avx_channel::attacks::campaign::CampaignConfig;
use avx_channel::attacks::cloud::run_scenario;
use avx_channel::attacks::modules::score;
use avx_channel::attacks::userspace::{LibraryMatcher, UserSpaceScanner};
use avx_channel::attacks::windows::kernel_base_from_shadow;
use avx_channel::countermeasures::MaskedOpSurvey;
use avx_channel::defense::{evaluate_fgkaslr, evaluate_flare};
use avx_channel::report::{ascii_plot_clamped, fmt_seconds, Series, Table};
use avx_channel::stats::{Summary, Trials};
use avx_channel::{
    KernelBaseFinder, KptiAttack, ModuleClassifier, ModuleScanner, PermissionAttack, ProbeStrategy,
    Prober, SimProber, Threshold, TlbAttack,
};
use avx_hw::scan::{survey_corpus, synthetic_corpus};
use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
use avx_os::activity::{apply_activity, ActivityTimeline};
use avx_os::cloud::CloudScenario;
use avx_os::linux::{LinuxConfig, LinuxSystem, KPTI_TRAMPOLINE_OFFSET};
use avx_os::modules::{unique_sized, UBUNTU_18_04_MODULES};
use avx_os::process::{build_process, ImageSignature};
use avx_os::windows::{WindowsConfig, WindowsSystem, WindowsVersion};
use avx_os::ExecutionContext;
use avx_uarch::{CpuProfile, Event, Machine, MaskedOp, NoiseModel, OpKind};

fn heading(text: &str) {
    println!("\n## {text}\n");
}

fn main() {
    let cli = match Cli::from_env() {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("repro: {err}");
            std::process::exit(2);
        }
    };

    // `repro --fleet N [--fleet-shards K] [--fleet-checkpoint <path>]`:
    // streaming population sweep via the fleet engine — constant-memory
    // sharded reducers with checkpoint/resume instead of the figure
    // sections.
    if let Some(config) = &cli.fleet {
        fleet(cli.campaign, config.clone());
        return;
    }

    println!("# AVX timing side-channel reproduction — full experiment run");
    println!("(simulated substrate; see README.md for the substitution statement)");

    fig1();
    fig2();
    fig3();
    prop3();
    prop4();
    prop6();
    fig4();
    table1(&cli);
    fig5();
    kpti();
    fig6();
    fig7();
    windows();
    cloud();
    countermeasures();
    survey();
    ablations();
    adaptive_economy(&cli);
    calibration_menu(&cli);
    recalibration(&cli);
    confirmation(&cli);
    defense_arena(&cli);
    schedules(&cli);
    full_campaign(&cli);
    println!("\ndone.");
}

/// `--fleet N`: the streaming kernel-base population sweep
/// ([`avx_channel::fleet`]) under the campaign flags — sharded
/// constant-memory reducers, optional checkpoint/resume. Prints the
/// canonical `fleet aggregate:` line (bit-identical across shardings
/// and kill-and-resume boundaries; CI diffs it) and a `victims/sec`
/// throughput line.
fn fleet(campaign: CampaignConfig, config: avx_channel::fleet::FleetConfig) {
    use avx_channel::attacks::campaign::Scenario;
    use avx_channel::fleet::Fleet;

    heading("Fleet campaign — kernel-base population sweep");
    let fleet = Fleet::new(
        Scenario::KernelBase,
        CpuProfile::alder_lake_i5_12400f(),
        campaign,
        config,
    );
    println!(
        "fleet config: victims={} shards={} shard_size={} pool={} noise={} sampling={} \
         calibrator={} observables={} defense={} schedule={} confirm={} recal={} seed={}",
        fleet.config.victims,
        fleet.config.shard_count(),
        fleet.config.shard_size,
        fleet.config.pool_size(),
        fleet.campaign.noise,
        fleet.campaign.sampling.name(),
        fleet.campaign.calibrator.name(),
        fleet.campaign.observables.name(),
        fleet.campaign.defense.name(),
        fleet.campaign.schedule.name(),
        if fleet.campaign.confirm.is_some() {
            "on"
        } else {
            "off"
        },
        if fleet.campaign.recal.is_some() {
            "on"
        } else {
            "off"
        },
        fleet.config.campaign_seed,
    );
    let report = match fleet.run() {
        Ok(report) => report,
        Err(err) => {
            eprintln!("fleet error: {err}");
            std::process::exit(1);
        }
    };
    if report.shards_resumed > 0 {
        println!(
            "fleet resume: {} of {} shards restored from checkpoint",
            report.shards_resumed, report.shards
        );
    }
    println!("fleet aggregate: {}", report.aggregate);
    println!(
        "fleet throughput: {:.1} victims/sec, {:.0} probes/sec ({} victims over {} shards \
         in {:.2} s{})",
        report.victims_per_sec(),
        report.probes_per_sec(),
        report.victims_run,
        report.shards_run,
        report.wall_seconds,
        if report.complete {
            ""
        } else {
            "; population incomplete — rerun with the same checkpoint to resume"
        },
    );
}

/// The defense arena: the kernel-base cell against every entry of the
/// defense menu, quiet and laptop hosts — the per-row efficacy picture
/// `docs/DEFENSES.md` documents.
fn defense_arena(cli: &Cli) {
    use avx_channel::attacks::campaign::Scenario;
    use avx_channel::DefenseKind;
    use avx_uarch::NoiseProfile;
    let trials = cli.trials.min(12);
    heading(&format!(
        "Defense arena — kernel-base attack vs the defense menu (n={trials})"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let mut table = Table::new(["Noise", "Defense", "p/addr", "Accuracy"]);
    for noise in [NoiseProfile::Quiet, NoiseProfile::LaptopDvfs] {
        for defense in DefenseKind::ALL {
            let row = Scenario::KernelBase.campaign(
                &profile,
                CampaignConfig::new(trials, 0)
                    .with_noise(noise)
                    .with_sampling(cli.campaign.sampling)
                    .with_calibrator(cli.campaign.calibrator)
                    .with_observables(cli.campaign.observables)
                    .with_defense(defense),
            );
            table.row([
                noise.to_string(),
                row.defense.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!("  (select per run: repro --defense <none|masked|rerandomizing>)");
}

/// The event-driven-victim story: the kernel-base cell against every
/// entry of the schedule menu, one-shot vs closed-loop calibration.
/// The square-wave DVFS victim is the motivating pair: its mid-scan
/// noise-preset swaps go stale against a one-shot threshold, and the
/// closed loop recovers through `DriftMonitor::check` alone (see
/// `docs/VICTIMS.md` for the per-row helps-vs-hurts picture).
fn schedules(cli: &Cli) {
    use avx_channel::attacks::campaign::Scenario;
    use avx_channel::{CalibratorKind, RecalConfig, Sampling, ScheduleKind};
    let trials = cli.trials.min(12);
    heading(&format!(
        "Event-driven victims — schedule menu (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let base = CampaignConfig::new(trials, 0)
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_observables(cli.campaign.observables);
    let mut table = Table::new(["Schedule", "Calibration", "p/addr", "Accuracy"]);
    for schedule in ScheduleKind::ALL {
        for (label, config) in [
            ("one-shot", base.with_schedule(schedule)),
            (
                "closed-loop",
                base.with_schedule(schedule)
                    .with_recalibration(RecalConfig::default()),
            ),
        ] {
            let row = Scenario::KernelBase.campaign(&profile, config);
            table.row([
                row.schedule.to_string(),
                label.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!(
        "  (select per run: repro --schedule <none|dvfs-square|cotenant-burst|module-churn> \
         or --schedule <trace-file>)"
    );
    if let Some(trace) = &cli.trace {
        trace_demo(trace, cli.campaign);
    }
}

/// `--schedule <trace-file>`: one demonstration scan against a
/// user-authored victim schedule (the trace grammar of
/// `docs/VICTIMS.md`), reported alongside the preset menu. The command
/// line's victim flags (`--observables`, `--defense`) and attacker flags
/// (sampling, `--calibrator`, `--recalibrate`, `--confirm`) apply
/// exactly as in a campaign trial.
fn trace_demo(trace: &Trace, config: CampaignConfig) {
    let spec = &trace.path;
    let (p, truth, scan) = avx_bench::trace_demo_scan(trace.schedule.clone(), config, TRACE_SEED);
    let fired = p.machine().victim_schedule().map_or(0, |s| s.fired());
    println!(
        "  trace demo {spec:?} (defense={}, confirm={}): base {} (truth {}, {}), {fired} events fired over {} probes",
        config.defense,
        if config.confirm.is_some() { "on" } else { "off" },
        scan.base.map_or("-".into(), |b| b.to_string()),
        truth.kernel_base,
        if scan.base == Some(truth.kernel_base) {
            "recovered"
        } else {
            "missed — try --adaptive --calibrator noise-aware --recalibrate"
        },
        p.probes_issued(),
    );
}

/// The generalized Table I: every §IV attack scenario across the three
/// evaluated desktop/mobile parts, trials parallelized via rayon.
fn full_campaign(cli: &Cli) {
    use avx_channel::attacks::campaign::Campaign;
    let config = CampaignConfig {
        trials: cli.trials.min(12),
        ..cli.campaign
    };
    heading(&format!(
        "Full campaign — all 8 attacks x 3 CPUs (n={}, noise={}, sampling={}, calibrator={}, recalibrate={}, confirm={}, observables={}, defense={}, schedule={}, rayon-parallel)",
        config.trials,
        config.noise,
        config.sampling.name(),
        config.calibrator,
        if config.recal.is_some() { "on" } else { "off" },
        if config.confirm.is_some() { "on" } else { "off" },
        config.observables,
        config.defense,
        config.schedule,
    ));
    let campaign = Campaign::full(config);
    let mut table = Table::new([
        "CPU", "Target", "Probing", "Total", "p/addr", "Accuracy", "Records",
    ]);
    for row in campaign.run() {
        table.row([
            row.cpu.clone(),
            row.target.to_string(),
            fmt_seconds(row.probing_seconds),
            fmt_seconds(row.total_seconds),
            format!("{:.2}", row.probes_per_address),
            format!("{:.2} %", row.accuracy.percent()),
            format!("{}", row.accuracy.total),
        ]);
    }
    println!("{table}");
}

/// Kernel-base accuracy over 40 fixed seeds (i5-12400F) with one knob
/// moved: the probe strategy, an interrupt-spike probability in place of
/// the profile's, or the threshold margin.
fn ablation_accuracy(strategy: ProbeStrategy, spike_prob: Option<f64>, margin: Option<f64>) -> f64 {
    let mut acc = Trials::new();
    for seed in 0..40u64 {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed * 23 + 7));
        let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        if let Some(p) = spike_prob {
            let t = machine.profile().timing;
            machine.set_noise(NoiseModel::new(t.noise_sigma, p, t.spike_range));
        }
        let mut prober = SimProber::new(machine);
        let mut th = Threshold::calibrate(&mut prober, truth.user.calibration, 16);
        if let Some(m) = margin {
            th.margin = m;
        }
        let scan = KernelBaseFinder::new(th)
            .with_strategy(strategy)
            .scan(&mut prober);
        acc.record(scan.base == Some(truth.kernel_base));
    }
    acc.percent()
}

/// The knobs the paper fixes implicitly: the probe strategy ("execute
/// twice, measure the second"), the threshold margin around the
/// 14-cycle band gap, the interrupt-spike rate, and the TLB eviction
/// before each behaviour-spy probe.
fn ablations() {
    heading("Ablations — the attack's fixed knobs (kernel base, n=40)");
    let pct = |x: f64| format!("{x:.1} %");
    let mut t = Table::new(["Strategy", "Probes/slot", "Accuracy"]);
    for (label, s) in [
        ("single-shot", ProbeStrategy::Single),
        ("second-of-two (paper)", ProbeStrategy::SecondOfTwo),
        ("min-of-4", ProbeStrategy::MinOf(4)),
    ] {
        t.row([
            label.to_string(),
            s.probes_per_measurement().to_string(),
            pct(ablation_accuracy(s, None, None)),
        ]);
    }
    println!("{t}");
    let mut t = Table::new(["Margin (cycles)", "Accuracy"]);
    for margin in [0.0, 3.0, 7.0, 11.0, 14.0, 20.0] {
        let acc = ablation_accuracy(ProbeStrategy::SecondOfTwo, None, Some(margin));
        t.row([format!("{margin:.0}"), pct(acc)]);
    }
    println!("{t}");
    let mut t = Table::new(["Spike prob", "Second-of-two", "Min-of-4"]);
    for p in [0.0, 0.002, 0.01, 0.05, 0.2] {
        t.row([
            p.to_string(),
            pct(ablation_accuracy(ProbeStrategy::SecondOfTwo, Some(p), None)),
            pct(ablation_accuracy(ProbeStrategy::MinOf(4), Some(p), None)),
        ]);
    }
    println!("{t}");

    // The behaviour spy with eviction (Fig. 6's procedure) and without:
    // a direct probe caches the translation itself, so idle seconds hit
    // too.
    let timeline = ActivityTimeline::bluetooth_session();
    let (mut p, truth) = linux_prober(CpuProfile::ice_lake_i7_1065g7(), 9);
    let th = calibrate(&mut p, &truth);
    let module = truth.module("bluetooth").unwrap();
    let (base, pages) = (module.base, module.spec.pages());
    let tlb = TlbAttack::from_threshold(&th);
    let spy = TlbSpy::new(SpyConfig::default(), tlb);
    let trace = spy.monitor(&mut p, base, |p, t| {
        apply_activity(p.machine_mut(), &timeline, base, pages, t);
    });
    let mut without = Trials::new();
    for step in 0..100u64 {
        let t = step as f64;
        apply_activity(p.machine_mut(), &timeline, base, pages, t);
        let hit = (p.probe(OpKind::Load, base) as f64) <= tlb.hit_boundary;
        without.record(hit == timeline.active_at(t));
    }
    println!(
        "  behaviour spy agreement: {} with eviction, {} without (self-pollution)",
        pct(trace.score(&timeline, tlb.hit_boundary) * 100.0),
        pct(without.percent())
    );
}

/// The adaptive engine's probe economy: the kernel-base cell across
/// every noise preset, fixed vs fixed-budget vs adaptive.
fn adaptive_economy(cli: &Cli) {
    use avx_channel::attacks::campaign::Scenario;
    use avx_channel::Sampling;
    use avx_uarch::NoiseProfile;
    let trials = cli.trials.min(8);
    heading(&format!(
        "Adaptive vs fixed — probes/address x accuracy across the noise matrix (n={trials})"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let mut table = Table::new(["Noise", "Sampling", "p/addr", "Accuracy"]);
    for noise in NoiseProfile::ALL {
        for sampling in [
            Sampling::Fixed,
            Sampling::fixed_budget(),
            Sampling::adaptive(),
        ] {
            let row = Scenario::KernelBase.campaign(
                &profile,
                CampaignConfig::new(trials, 0)
                    .with_noise(noise)
                    .with_sampling(sampling)
                    .with_calibrator(cli.campaign.calibrator)
                    .with_observables(cli.campaign.observables),
            );
            table.row([
                noise.to_string(),
                row.sampling.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!(
        "  (reproduce under any environment: repro --noise <quiet|smt|laptop|cloud> [--adaptive])"
    );
}

/// The calibration-estimator menu on the row that motivated it: the
/// laptop-DVFS kernel-base cell under adaptive sampling, where the
/// min-pulled legacy floor drifts ≈ 8 cycles low and caps accuracy
/// regardless of the probe budget. Quiet rows ride along to show the
/// robust estimators cost nothing when the host is quiet.
fn calibration_menu(cli: &Cli) {
    use avx_channel::attacks::campaign::Scenario;
    use avx_channel::{CalibratorKind, Sampling};
    use avx_uarch::NoiseProfile;
    let trials = cli.trials.min(12);
    heading(&format!(
        "Calibration estimators — noise-aware floor fitting (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let mut table = Table::new(["Noise", "Calibrator", "p/addr", "Accuracy"]);
    for noise in [NoiseProfile::Quiet, NoiseProfile::LaptopDvfs] {
        for calibrator in CalibratorKind::ALL {
            let row = Scenario::KernelBase.campaign(
                &profile,
                CampaignConfig::new(trials, 0)
                    .with_noise(noise)
                    .with_sampling(Sampling::adaptive())
                    .with_calibrator(calibrator)
                    .with_observables(cli.campaign.observables),
            );
            table.row([
                noise.to_string(),
                row.calibrator.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!("  (select per run: repro --calibrator <legacy|trimmed|bimodal|noise-aware>)");
}

/// The closed-loop story: the kernel-base cell under the quiet→laptop
/// drift ramp, one-shot calibration vs the self-recalibrating scan.
/// One-shot calibration goes stale mid-sweep (the SPRT keeps trusting
/// the quiet-phase σ); the closed loop detects the dispersion shift,
/// re-fits via the EM threshold re-fit and recovers.
fn recalibration(cli: &Cli) {
    use avx_channel::attacks::campaign::Scenario;
    use avx_channel::{CalibratorKind, RecalConfig, Sampling};
    use avx_uarch::NoiseProfile;
    let trials = cli.trials.min(12);
    heading(&format!(
        "Closed-loop recalibration — quiet→laptop drift mid-scan (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let base = CampaignConfig::new(trials, 0)
        .with_noise(NoiseProfile::drift_quiet_to_laptop())
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_observables(cli.campaign.observables);
    let mut table = Table::new(["Calibration", "p/addr", "Accuracy"]);
    for (label, config) in [
        ("one-shot", base),
        (
            "closed-loop",
            base.with_recalibration(RecalConfig::default()),
        ),
    ] {
        let row = Scenario::KernelBase.campaign(&profile, config);
        table.row([
            label.to_string(),
            format!("{:.2}", row.probes_per_address),
            format!("{:.2} %", row.accuracy.percent()),
        ]);
    }
    println!("{table}");
    println!(
        "  (reproduce: repro --noise drift --adaptive --calibrator noise-aware [--recalibrate])"
    );
}

/// The confirmation-policy story: the KPTI trampoline cell under
/// laptop-DVFS noise, first-mapped-slot-wins vs confirmed decisions.
/// Laptop jitter sprays false-positive slots below the trampoline and
/// the legacy first-wins rule latches onto them; the confirmation
/// layer re-tests every candidate with an escalated budget and a
/// slot-level sequential test before committing.
fn confirmation(cli: &Cli) {
    use avx_channel::attacks::campaign::Scenario;
    use avx_channel::{CalibratorKind, ConfirmConfig, Sampling};
    use avx_uarch::NoiseProfile;
    let trials = cli.trials.min(12);
    heading(&format!(
        "Confirmation policy — KPTI trampoline under laptop DVFS (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let base = CampaignConfig::new(trials, 0)
        .with_noise(NoiseProfile::LaptopDvfs)
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_observables(cli.campaign.observables);
    let mut table = Table::new(["Decision", "p/addr", "Accuracy"]);
    for (label, config) in [
        ("confirm=off (first-wins)", base),
        (
            "confirm=on (re-tested)",
            base.with_confirmation(ConfirmConfig::default()),
        ),
    ] {
        let row = Scenario::Kpti.campaign(&profile, config);
        table.row([
            label.to_string(),
            format!("{:.2}", row.probes_per_address),
            format!("{:.2} %", row.accuracy.percent()),
        ]);
    }
    println!("{table}");
    println!("  (reproduce: repro --noise laptop --adaptive --calibrator noise-aware [--confirm])");
}

fn fig1() {
    heading("Fig. 1 — fault suppression (A–D)");
    let mut space = AddressSpace::new();
    let mapped = VirtAddr::new_truncate(0x5555_5555_4000);
    space
        .map(mapped, PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    let mut m = sigma_only_machine(CpuProfile::ice_lake_i7_1065g7(), space, 1);
    let boundary = mapped.wrapping_add(0xff0);
    for (label, kind, bits) in [
        (
            "A load, invalid lane unmasked ",
            OpKind::Load,
            0b1111_0001u8,
        ),
        ("B load, invalid lanes masked  ", OpKind::Load, 0b0000_0111),
        ("C store, invalid lane unmasked", OpKind::Store, 0b1111_0001),
        ("D store, invalid lanes masked ", OpKind::Store, 0b0000_0111),
    ] {
        let op = avx_uarch::MaskedOp {
            kind,
            addr: boundary,
            mask: avx_uarch::Mask::new(bits, 8),
            width: avx_uarch::ElemWidth::Dword,
        };
        let out = m.execute(op);
        println!(
            "  {label}: {}",
            match out.fault {
                Some(f) => format!("#PF delivered ({f})"),
                None => format!("suppressed, assist={}, {} cycles", out.assist, out.cycles),
            }
        );
    }
}

fn fig2() {
    heading("Fig. 2 — latency + PMCs per page type (i7-1065G7)");
    let mut space = AddressSpace::new();
    let user_m = VirtAddr::new_truncate(0x5555_5555_4000);
    let user_u = VirtAddr::new_truncate(0x5555_5555_5000);
    let kernel_m = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
    let kernel_u = VirtAddr::new_truncate(0xffff_ffff_a1a0_0000);
    space
        .map(user_m, PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    space
        .map(user_u, PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    space
        .protect(user_u, PageSize::Size4K, PteFlags::none_guard())
        .unwrap();
    space
        .map(kernel_m, PageSize::Size2M, PteFlags::kernel_rx())
        .unwrap();
    let mut m = sigma_only_machine(CpuProfile::ice_lake_i7_1065g7(), space, 2);

    let mut table = Table::new(["page type", "measured", "paper", "assists", "walks"]);
    for (i, (label, addr)) in [
        ("USER-M", user_m),
        ("USER-U", user_u),
        ("KERNEL-M", kernel_m),
        ("KERNEL-U", kernel_u),
    ]
    .iter()
    .enumerate()
    {
        let probe = MaskedOp::probe_load(*addr);
        for _ in 0..4 {
            let _ = m.execute(probe);
        }
        let snap = m.pmc().snapshot();
        let samples: Vec<u64> = (0..1000).map(|_| m.execute(probe).cycles).collect();
        let d = m.pmc().delta(&snap);
        let s = Summary::of(&samples);
        table.row([
            label.to_string(),
            format!("{:.0}±{:.2}", s.mean, s.stddev),
            format!("{:.0}", paper::FIG2_MEANS[i]),
            format!("{}", d.get(Event::AssistsAny) / 1000),
            format!("{}", d.get(Event::DtlbLoadWalkCompleted) / 1000),
        ]);
    }
    println!("{table}");
}

fn fig3() {
    heading("Fig. 3 — latency by permission (generic desktop)");
    let mut space = AddressSpace::new();
    let ro = VirtAddr::new_truncate(0x7f00_0000_0000);
    let rx = VirtAddr::new_truncate(0x7f00_0000_1000);
    let rw = VirtAddr::new_truncate(0x7f00_0000_2000);
    let none = VirtAddr::new_truncate(0x7f00_0000_3000);
    space
        .map(ro, PageSize::Size4K, PteFlags::user_ro())
        .unwrap();
    space
        .map(rx, PageSize::Size4K, PteFlags::user_rx())
        .unwrap();
    space
        .map(rw, PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    space.mark_accessed(rw, true).unwrap();
    space
        .map(none, PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    space
        .protect(none, PageSize::Size4K, PteFlags::none_guard())
        .unwrap();
    let mut m = sigma_only_machine(CpuProfile::generic_desktop(), space, 3);

    let mut table = Table::new(["perm", "load", "paper", "store", "paper"]);
    for (i, (label, addr)) in [("r--", ro), ("r-x", rx), ("rw-", rw), ("---", none)]
        .iter()
        .enumerate()
    {
        let mut run = |kind: OpKind| {
            let op = match (kind, *addr == rw) {
                (OpKind::Store, true) => avx_uarch::MaskedOp {
                    kind,
                    addr: *addr,
                    mask: avx_uarch::Mask::all_set(8),
                    width: avx_uarch::ElemWidth::Dword,
                },
                (OpKind::Load, _) => MaskedOp::probe_load(*addr),
                (OpKind::Store, _) => MaskedOp::probe_store(*addr),
            };
            for _ in 0..4 {
                let _ = m.execute(op);
            }
            let samples: Vec<u64> = (0..500).map(|_| m.execute(op).cycles).collect();
            Summary::of(&samples).mean
        };
        let load = run(OpKind::Load);
        let store = run(OpKind::Store);
        table.row([
            label.to_string(),
            format!("{load:.0}"),
            format!("{:.0}", paper::FIG3_LOAD[i]),
            format!("{store:.0}"),
            format!("{:.0}", paper::FIG3_STORE[i]),
        ]);
    }
    println!("{table}");
}

fn prop3() {
    heading("§III-B P3 — walk-termination level (i9-9900, INVLPG methodology)");
    let mut space = AddressSpace::new();
    let pt = VirtAddr::new_truncate(0xffff_ffff_c012_3000);
    let pd = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
    let pdpt = VirtAddr::new_truncate(0xffff_c000_0000_0000);
    let pml4 = VirtAddr::new_truncate(0xffff_9000_0000_0000);
    space
        .map(pt, PageSize::Size4K, PteFlags::kernel_rx())
        .unwrap();
    space
        .map(pd, PageSize::Size2M, PteFlags::kernel_rx())
        .unwrap();
    space
        .map(pdpt, PageSize::Size1G, PteFlags::kernel_rw())
        .unwrap();
    let mut m = sigma_only_machine(CpuProfile::coffee_lake_i9_9900(), space, 4);
    for (label, addr) in [
        ("PD   (2 MiB)", pd),
        ("PDPT (1 GiB)", pdpt),
        ("PML4 (hole) ", pml4),
        ("PT   (4 KiB)", pt),
    ] {
        let probe = MaskedOp::probe_load(addr);
        let _ = m.execute(probe);
        let samples: Vec<u64> = (0..500)
            .map(|_| {
                m.invlpg(addr);
                m.execute(probe).cycles
            })
            .collect();
        println!("  {label}: {:.1} cycles", Summary::of(&samples).mean);
    }
    println!("  (paper: linear increase PD → PML4, PT above the line)");
}

fn prop4() {
    heading("§III-B P4 — TLB hit vs miss (i9-9900, n=1000)");
    let mut space = AddressSpace::new();
    let kernel = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
    space
        .map(kernel, PageSize::Size2M, PteFlags::kernel_rx())
        .unwrap();
    let mut m = sigma_only_machine(CpuProfile::coffee_lake_i9_9900(), space, 5);
    let probe = MaskedOp::probe_load(kernel);
    let _ = m.execute(probe);
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    for _ in 0..1000 {
        m.evict_translation(kernel);
        miss.push(m.execute(probe).cycles);
        hit.push(m.execute(probe).cycles);
    }
    println!(
        "  miss: {:.0} cycles [paper {:.0}], hit: {:.0} cycles [paper {:.0}]",
        Summary::of(&miss).mean,
        paper::P4_HIT_MISS.1,
        Summary::of(&hit).mean,
        paper::P4_HIT_MISS.0
    );
}

fn prop6() {
    heading("§III-B P6 — masked store vs load on KERNEL-M (i7-1065G7)");
    let mut space = AddressSpace::new();
    let kernel = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
    space
        .map(kernel, PageSize::Size2M, PteFlags::kernel_rx())
        .unwrap();
    let mut m = sigma_only_machine(CpuProfile::ice_lake_i7_1065g7(), space, 6);
    let load = MaskedOp::probe_load(kernel);
    let store = MaskedOp::probe_store(kernel);
    for _ in 0..4 {
        let _ = m.execute(load);
        let _ = m.execute(store);
    }
    let loads: Vec<u64> = (0..1000).map(|_| m.execute(load).cycles).collect();
    let stores: Vec<u64> = (0..1000).map(|_| m.execute(store).cycles).collect();
    let (l, s) = (Summary::of(&loads).mean, Summary::of(&stores).mean);
    println!(
        "  load {l:.0} [paper {:.0}], store {s:.0} [paper {:.0}], delta {:.1}",
        paper::P6_LOAD_STORE.0,
        paper::P6_LOAD_STORE.1,
        l - s
    );
}

fn fig4() {
    heading("Fig. 4 — 512-offset kernel scan (i5-12400F, slide pinned to 271)");
    let (mut p, truth) = linux_prober_with(
        LinuxConfig {
            fixed_slide: Some(271),
            ..LinuxConfig::seeded(7)
        },
        CpuProfile::alder_lake_i5_12400f(),
        7,
    );
    let th = calibrate(&mut p, &truth);
    let scan = KernelBaseFinder::new(th).scan(&mut p);
    let series = Series::from_samples("cycles per 2 MiB offset", &scan.samples);
    println!("{}", ascii_plot_clamped(&series, 100, 12, 130.0));
    println!(
        "  base recovered: {} (truth {}); threshold {:.1}",
        scan.base.map_or("-".into(), |b| b.to_string()),
        truth.kernel_base,
        th.boundary()
    );
}

fn table1(cli: &Cli) {
    let CampaignConfig {
        noise,
        sampling,
        calibrator,
        ..
    } = cli.campaign;
    let trials = cli.trials;
    heading(&format!(
        "Table I — runtime and accuracy (n={trials}, noise={noise}, sampling={}, calibrator={calibrator})",
        sampling.name()
    ));
    // Table I runs the paper's victim: the victim-side flags
    // (`--observables`, `--defense`, `--schedule`) do not apply here.
    let config = CampaignConfig {
        recal: cli.campaign.recal,
        confirm: cli.campaign.confirm,
        ..CampaignConfig::new(trials, 0)
            .with_noise(noise)
            .with_sampling(sampling)
            .with_calibrator(calibrator)
    };
    let rows = avx_channel::attacks::campaign::table1(config);
    let mut table = Table::new(["CPU", "Target", "Probing", "Total", "p/addr", "Accuracy"]);
    for row in &rows {
        table.row([
            row.cpu.clone(),
            row.target.to_string(),
            fmt_seconds(row.probing_seconds),
            fmt_seconds(row.total_seconds),
            format!("{:.2}", row.probes_per_address),
            format!("{:.2} %", row.accuracy.percent()),
        ]);
    }
    println!("{table}");
    println!("  paper rows:");
    for (cpu, target, probing, total, acc) in paper::TABLE1 {
        println!("    {cpu} {target}: {probing} / {total} / {acc:.2} %");
    }
}

fn fig5() {
    heading("Fig. 5 — module detection and identification (i7-1065G7)");
    let (mut p, truth) = linux_prober(CpuProfile::ice_lake_i7_1065g7(), 8);
    let th = calibrate(&mut p, &truth);
    let scan = ModuleScanner::new(th).scan(&mut p);
    let ids = ModuleClassifier::new(&UBUNTU_18_04_MODULES).classify(&scan);
    let s = score(&scan, &ids, &truth.modules);
    println!(
        "  modules loaded: {} ({} unique sizes); detected runs: {}",
        truth.modules.len(),
        unique_sized(&UBUNTU_18_04_MODULES).len(),
        scan.detected.len()
    );
    for name in ["autofs4", "x_tables", "video", "mac_hid", "pinctrl_icelake"] {
        let m = truth.module(name).unwrap();
        let id = ids.iter().find(|i| i.detected.base == m.base);
        println!(
            "    {name} (size {:#x}) → {}",
            m.spec.size,
            match id.and_then(|i| i.unique_name()) {
                Some(n) => format!("identified as {n}"),
                None => format!(
                    "ambiguous among {} same-size modules",
                    id.map_or(0, |i| i.candidates.len())
                ),
            }
        );
    }
    println!(
        "  exact detection {:.2} %, unique-size identification {:.2} % [paper accuracy {:.2} %]",
        s.exact.percent(),
        s.identified.percent(),
        paper::MODULES.2
    );
}

fn kpti() {
    heading("§IV-D — KASLR break with KPTI enabled");
    let (mut p, truth) = linux_prober_with(
        LinuxConfig {
            kpti: true,
            fixed_slide: Some(8),
            ..LinuxConfig::seeded(9)
        },
        CpuProfile::alder_lake_i5_12400f(),
        9,
    );
    let th = calibrate(&mut p, &truth);
    let scan = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET).scan(&mut p);
    println!(
        "  trampoline at {} [paper: 0xffffffff81c00000], base {} (truth {})",
        scan.trampoline.map_or("-".into(), |t| t.to_string()),
        scan.base.map_or("-".into(), |b| b.to_string()),
        truth.kernel_base
    );
}

fn fig6() {
    heading("Fig. 6 — behaviour inference (bluetooth / psmouse, 1 Hz, 100 s)");
    for (timeline, seed) in [
        (ActivityTimeline::bluetooth_session(), 10u64),
        (ActivityTimeline::mouse_session(), 11),
    ] {
        let (mut p, truth) = linux_prober(CpuProfile::ice_lake_i7_1065g7(), seed);
        let th = calibrate(&mut p, &truth);
        let module = truth.module(timeline.behaviour.module_name()).unwrap();
        let (base, pages) = (module.base, module.spec.pages());
        let tlb = TlbAttack::from_threshold(&th);
        let spy = TlbSpy::new(SpyConfig::default(), tlb);
        let trace = spy.monitor(&mut p, base, |p, t| {
            apply_activity(p.machine_mut(), &timeline, base, pages, t);
        });
        let series = Series {
            label: format!("{}", timeline.behaviour),
            points: trace
                .samples
                .iter()
                .map(|s| (s.t, s.cycles as f64))
                .collect(),
        };
        println!("{}", ascii_plot_clamped(&series, 100, 8, 500.0));
        println!(
            "  agreement with ground truth: {:.1} %\n",
            trace.score(&timeline, tlb.hit_boundary) * 100.0
        );
    }
}

fn fig7() {
    heading("§IV-F + Fig. 7 — user-space break inside SGX2");
    let mut space = AddressSpace::new();
    let truth = build_process(
        &mut space,
        &ImageSignature::fig7_app(),
        &ImageSignature::standard_set(),
        12,
    );
    let own = VirtAddr::new_truncate(0x5400_0000_0000);
    space
        .map(own, PageSize::Size4K, PteFlags::user_ro())
        .unwrap();
    let machine = Machine::new(CpuProfile::ice_lake_i7_1065g7(), space, 12);
    let mut p = SimProber::with_context(machine, ExecutionContext::sgx2());
    let perm = PermissionAttack::calibrate(&mut p, own);
    let scanner = UserSpaceScanner::new(perm);

    let libc = truth.library_base("libc.so.6").unwrap();
    let pages = (ImageSignature::libc().span() + 0x6000) / 4096;
    let before = p.probing_cycles();
    let map = scanner.scan(&mut p, libc, pages);
    let cycles = p.probing_cycles() - before;
    println!("  detected libc regions:");
    for r in &map.regions {
        println!("    {r}");
    }
    let matcher = LibraryMatcher::new(ImageSignature::standard_set());
    let first = truth.libraries.first().unwrap().base;
    let last = truth.libraries.last().unwrap();
    let span = last.base.as_u64() + last.signature.span() + 0x10_0000 - first.as_u64();
    let full = scanner.scan(&mut p, first, span / 4096);
    let found = matcher.find_all(&full);
    println!("  libraries identified: {}", found.len());
    for m in &found {
        println!(
            "    {} at {} ({})",
            m.name,
            m.base,
            if truth.library_base(m.name) == Some(m.base) {
                "correct"
            } else {
                "WRONG"
            }
        );
    }
    let per_page = cycles as f64 / pages as f64;
    println!(
        "  extrapolated full 2^28-page scan: {:.0} s [paper: {:.0} s load / {:.0} s store]",
        per_page * (1u64 << 28) as f64 / (p.clock_ghz() * 1e9),
        paper::SGX_SCAN_SECONDS.0,
        paper::SGX_SCAN_SECONDS.1
    );
}

fn windows() {
    heading("§IV-G — Windows 10 KASLR / KVAS");
    let sys = WindowsSystem::build(WindowsConfig::default());
    let (machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 13);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user_scratch, 16);
    let scan = avx_channel::WindowsKaslrAttack::new(th).find_kernel_region(&mut p);
    println!(
        "  18-bit region scan: base {} (truth {}), {} [paper ≈ {:.0} ms]",
        scan.base.map_or("-".into(), |b| b.to_string()),
        truth.kernel_base,
        fmt_seconds(scan.total_cycles as f64 / (p.clock_ghz() * 1e9)),
        paper::WINDOWS_REGION_MS
    );

    let sys = WindowsSystem::build(WindowsConfig {
        version: WindowsVersion::V1709,
        kvas: true,
        fixed_slot: None,
        seed: 14,
    });
    let (machine, truth) = sys.into_machine(CpuProfile::skylake_i7_6600u(), 14);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user_scratch, 16);
    let attack = avx_channel::WindowsKaslrAttack::new(th);
    let window = VirtAddr::new_truncate(truth.kernel_base.as_u64() - 2048 * 4096);
    if let Some(shadow) = attack.find_kvas_shadow(&mut p, window, 4096) {
        println!(
            "  KVAS: shadow at {shadow} → base {} (truth {}) [paper: 8 s full sweep, 100 %]",
            kernel_base_from_shadow(shadow),
            truth.kernel_base
        );
    } else {
        println!("  KVAS: shadow not found");
    }
}

fn cloud() {
    heading("§IV-H — cloud KASLR breaks");
    for scenario in CloudScenario::all(99) {
        let report = run_scenario(&scenario, 15, &CampaignConfig::default());
        println!("  {report}");
    }
    println!(
        "  paper runtimes: EC2 {} base / {} modules; GCE {} / {}; Azure {}",
        fmt_seconds(paper::CLOUD_SECONDS[0]),
        fmt_seconds(paper::CLOUD_SECONDS[1]),
        fmt_seconds(paper::CLOUD_SECONDS[2]),
        fmt_seconds(paper::CLOUD_SECONDS[3]),
        fmt_seconds(paper::CLOUD_SECONDS[4])
    );
    println!("  note: our KPTI model hides the module area, so EC2 reports no modules.");
}

fn countermeasures() {
    heading("§V-A — FLARE and FGKASLR");
    println!(
        "  {}",
        evaluate_flare(CpuProfile::alder_lake_i5_12400f(), 16)
    );
    println!(
        "  {}",
        evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), 17, "commit_creds")
    );
}

fn survey() {
    heading("§V-B — masked-op usage survey");
    let corpus = synthetic_corpus(paper::SURVEY.1, paper::SURVEY.0, 16 * 1024, 18);
    let count = survey_corpus(&corpus);
    let s = MaskedOpSurvey {
        total: count.total,
        containing: count.containing,
    };
    println!(
        "  {s} [paper: 6 of 4104] — NOP replacement impact: {}",
        if s.low_impact() { "low" } else { "HIGH" }
    );
    let _ = ProbeStrategy::SecondOfTwo; // (referenced for doc purposes)
}
