//! Property tests of the fleet engine's contracts (ARCHITECTURE.md
//! invariant 11): the reducer merge is exact, associative and
//! commutative; aggregates are invariant to how the population is
//! sharded; kill-and-resume is bit-identical to an uninterrupted run;
//! any single victim reruns in isolation to its in-fleet outcome; and
//! the counters survive million-victim magnitudes without overflow.

use std::path::PathBuf;

use avx_channel::attacks::campaign::{CampaignConfig, Scenario, TrialOutcome};
use avx_channel::fleet::{splitmix64, victim_seed, Checkpoint, Fleet, FleetConfig, FleetReducer};
use avx_channel::stats::Trials;
use avx_channel::{DefenseKind, KptiConfidence, ScheduleKind};
use avx_uarch::CpuProfile;

/// A small but real kernel-base fleet: big enough to span several
/// shards and wrap the fixture pool, small enough to run in tier 1.
fn small_fleet(config: FleetConfig) -> Fleet {
    Fleet::new(
        Scenario::KernelBase,
        CpuProfile::alder_lake_i5_12400f(),
        CampaignConfig::default(),
        config,
    )
}

/// Deterministic synthetic outcome stream for pure reducer tests —
/// magnitudes picked to look like real per-victim probe counts.
fn synthetic_outcome(i: u64) -> TrialOutcome {
    let r = splitmix64(i);
    TrialOutcome {
        probes: 1000 + r % 700,
        addresses: 512,
        accuracy: Trials {
            successes: u64::from(!r.is_multiple_of(10)),
            total: 1,
        },
        confidence: match r % 4 {
            0 => Some(KptiConfidence::NoCandidate),
            1 => Some(KptiConfidence::Unique),
            2 => Some(KptiConfidence::GuessedFirst),
            _ => Some(KptiConfidence::Confirmed),
        },
        ..TrialOutcome::default()
    }
}

fn reduce(indices: impl Iterator<Item = u64>) -> FleetReducer {
    let mut r = FleetReducer::new();
    for i in indices {
        r.push(&synthetic_outcome(i));
    }
    r
}

/// Unique scratch path per test (the suite runs tests in parallel).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fleet-props-{tag}-{}.json", std::process::id()))
}

#[test]
fn reducer_merge_is_associative_and_commutative_to_the_bit() {
    for window in [1u64, 7, 64, 1000] {
        let a = reduce(0..window);
        let b = reduce(window..window * 2 + 3);
        let c = reduce(window * 2 + 3..window * 3 + 11);

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "window {window}");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = ab;
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "window {window}");

        // Identity: the empty reducer is neutral on both sides.
        let mut with_empty = a;
        with_empty.merge(&FleetReducer::new());
        assert_eq!(with_empty, a, "window {window}");
    }
}

#[test]
fn shard_count_invariance_is_bit_identical() {
    // The same 48-victim population on one shard, even shards, a
    // non-dividing shard size, and one victim per shard.
    let baseline = small_fleet(FleetConfig::new(48).with_pool(4).with_shard_size(48))
        .run()
        .expect("single-shard run");
    assert_eq!(baseline.shards, 1);
    assert_eq!(baseline.aggregate.victims, 48);
    for shard_size in [16u64, 7, 1] {
        let report = small_fleet(
            FleetConfig::new(48)
                .with_pool(4)
                .with_shard_size(shard_size),
        )
        .run()
        .expect("sharded run");
        assert_eq!(
            report.aggregate, baseline.aggregate,
            "shard_size {shard_size} diverged from the single-shard aggregate"
        );
    }
    // with_shards partitions the same way.
    let report = small_fleet(FleetConfig::new(48).with_pool(4).with_shards(6))
        .run()
        .expect("with_shards run");
    assert_eq!(report.shards, 6);
    assert_eq!(report.aggregate, baseline.aggregate);
}

#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted() {
    let path = scratch("resume");
    let _ = std::fs::remove_file(&path);

    let fresh = small_fleet(FleetConfig::new(40).with_pool(4).with_shards(4))
        .run()
        .expect("uninterrupted run");
    assert!(fresh.complete);

    // "Kill" after the first shard: run one pending shard per call.
    let killed = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path)
            .with_max_shards(1),
    );
    let first = killed.run().expect("first shard");
    assert!(!first.complete);
    assert_eq!(first.shards_run, 1);
    assert_eq!(first.aggregate.victims, 10);

    // Resume the remaining shards in one go.
    let resumed = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path),
    )
    .run()
    .expect("resumed run");
    assert!(resumed.complete);
    assert_eq!(resumed.shards_resumed, 1);
    assert_eq!(resumed.shards_run, 3);
    assert_eq!(
        resumed.aggregate, fresh.aggregate,
        "kill-and-resume aggregate diverged from the uninterrupted run"
    );

    // A third run finds everything complete and executes nothing.
    let idle = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path),
    )
    .run()
    .expect("idle run");
    assert!(idle.complete);
    assert_eq!(idle.shards_run, 0);
    assert_eq!(idle.aggregate, fresh.aggregate);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_recorded_under_a_different_config_is_refused() {
    let path = scratch("mismatch");
    let _ = std::fs::remove_file(&path);

    let partial = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path)
            .with_max_shards(1),
    );
    partial.run().expect("first shard");

    // Different campaign seed — resuming would merge incompatible
    // aggregates, so the engine must refuse.
    let err = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_seed(1)
            .with_checkpoint(&path),
    )
    .run()
    .expect_err("fingerprint mismatch must be refused");
    assert!(err.contains("fingerprint"), "{err}");

    // Different defense or victim schedule — the aggregates measure a
    // different victim.
    for campaign in [
        CampaignConfig::default().with_defense(DefenseKind::MaskedTranslation),
        CampaignConfig::default().with_schedule(ScheduleKind::DvfsSquare),
    ] {
        let err = Fleet::new(
            Scenario::KernelBase,
            CpuProfile::alder_lake_i5_12400f(),
            campaign,
            FleetConfig::new(40)
                .with_pool(4)
                .with_shards(4)
                .with_checkpoint(&path),
        )
        .run()
        .expect_err("fingerprint mismatch must be refused");
        assert!(err.contains("fingerprint"), "{err}");
    }

    // Different shard count — the bitmap no longer lines up.
    let err = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(8)
            .with_checkpoint(&path),
    )
    .run()
    .expect_err("shard-count mismatch must be refused");
    assert!(
        err.contains("fingerprint") || err.contains("shards"),
        "{err}"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_population_too_large_to_track_is_an_error_not_an_abort() {
    for config in [
        FleetConfig::new(u64::MAX),
        FleetConfig::new(u64::MAX).with_shard_size(1),
    ] {
        let err = small_fleet(config)
            .run()
            .expect_err("the shard bitmap cannot be allocated");
        assert!(err.contains("cannot allocate"), "{err}");
    }
}

#[test]
fn every_victim_reruns_in_isolation_to_its_in_fleet_outcome() {
    let fleet = small_fleet(FleetConfig::new(12).with_pool(4).with_shards(3));
    let pool = fleet.build_pool();

    // Folding the per-victim outcomes by hand reproduces the fleet
    // aggregate...
    let report = fleet.run().expect("fleet run");
    let mut by_hand = FleetReducer::new();
    for idx in 0..12 {
        by_hand.push(&fleet.run_victim_in(&pool, idx));
    }
    assert_eq!(by_hand, report.aggregate);

    // ...and any single victim, rerun in complete isolation (its own
    // freshly built fixture), matches its in-fleet outcome exactly.
    for idx in [0u64, 3, 5, 11] {
        let in_fleet = fleet.run_victim_in(&pool, idx);
        let isolated = fleet.run_victim(idx);
        assert_eq!(isolated.probes, in_fleet.probes, "victim {idx}");
        assert_eq!(isolated.addresses, in_fleet.addresses, "victim {idx}");
        assert_eq!(
            isolated.accuracy.successes, in_fleet.accuracy.successes,
            "victim {idx}"
        );
        assert_eq!(isolated.confidence, in_fleet.confidence, "victim {idx}");
        assert!((isolated.probing_seconds - in_fleet.probing_seconds).abs() < 1e-15);
    }
}

#[test]
fn victim_streams_are_unique_and_scenario_separated() {
    // 10⁵ victims across two scenario streams: no collision within a
    // stream, no cross-stream aliasing at matching indices.
    let mut seeds: Vec<u64> = (0..100_000u64)
        .map(|i| victim_seed(42, Scenario::KernelBase.seed_salt(), i))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 100_000);
    for i in (0..100_000u64).step_by(9973) {
        assert_ne!(
            victim_seed(42, Scenario::KernelBase.seed_salt(), i),
            victim_seed(42, Scenario::Kpti.seed_salt(), i),
            "victim {i} aliased across scenario streams"
        );
    }
}

#[test]
fn counters_survive_million_victim_magnitudes_without_overflow() {
    // Simulated 10⁶-victim campaign at realistic per-victim cost:
    // ~54k probes each (the heaviest measured per-trial budget, the
    // KPTI cell) pushed as 1000 shard reducers of 1000 victims each.
    const VICTIMS_PER_SHARD: u64 = 1000;
    const SHARDS: u64 = 1000;
    const PROBES_PER_VICTIM: u64 = 54_582;

    let mut shard = FleetReducer::new();
    for _ in 0..VICTIMS_PER_SHARD {
        shard.push(&TrialOutcome {
            probes: PROBES_PER_VICTIM,
            addresses: 512,
            accuracy: Trials {
                successes: 1,
                total: 1,
            },
            confidence: Some(KptiConfidence::Confirmed),
            ..TrialOutcome::default()
        });
    }
    let mut total = FleetReducer::new();
    for _ in 0..SHARDS {
        total.merge(&shard);
    }

    let victims = VICTIMS_PER_SHARD * SHARDS;
    assert_eq!(total.victims, victims);
    assert_eq!(total.probes, victims * PROBES_PER_VICTIM); // 5.45e10 ≫ u32
    assert_eq!(total.addresses, victims * 512);
    assert_eq!(total.accuracy().total, victims);
    assert_eq!(total.confidence[3], victims);
    // The moment carrier is exact at this magnitude too: Σx² =
    // 10⁶ × 54582² ≈ 3e15 per the u128 sum, so σ over a constant
    // stream is exactly zero — any f64 roundoff would show here.
    assert_eq!(total.probe_moments.count(), victims);
    assert!((total.probe_moments.mean() - PROBES_PER_VICTIM as f64).abs() < 1e-9);
    assert_eq!(total.probe_moments.stddev(), 0.0);

    // And the checkpoint format carries the magnitudes losslessly.
    let checkpoint = Checkpoint {
        fingerprint: 7,
        completed: vec![true; SHARDS as usize],
        reducer: total,
    };
    let back = Checkpoint::from_json(&checkpoint.to_json()).expect("roundtrip");
    assert_eq!(back, checkpoint);
}

/// A serialized single-shard checkpoint over `victims` synthetic
/// outcomes: consistent, so each negative test below breaks exactly
/// one rule of it.
fn checkpoint_json(victims: u64) -> String {
    Checkpoint {
        fingerprint: 3,
        completed: vec![true],
        reducer: reduce(0..victims),
    }
    .to_json()
}

#[test]
fn checkpoint_with_probe_count_other_than_victims_is_refused() {
    let good = checkpoint_json(5);
    assert!(Checkpoint::from_json(&good).is_ok());
    let bad = good.replace("\"probe_n\": 5", "\"probe_n\": 6");
    let err = Checkpoint::from_json(&bad).expect_err("probe_n != victims");
    assert!(
        err.contains("probe_n 6") && err.contains("victims 5"),
        "{err}"
    );
}

#[test]
fn checkpoint_with_probe_min_above_max_is_refused() {
    let good = checkpoint_json(5);
    let r = Checkpoint::from_json(&good).expect("consistent").reducer;
    let (min, max) = (
        r.probe_moments.min().unwrap(),
        r.probe_moments.max().unwrap(),
    );
    let bad = good.replace(
        &format!("\"probe_min\": {min}"),
        &format!("\"probe_min\": {}", max + 1),
    );
    let err = Checkpoint::from_json(&bad).expect_err("probe_min > probe_max");
    assert!(
        err.contains("probe_min") && err.contains("probe_max"),
        "{err}"
    );
    // An empty reducer keeps its sentinel min > max and stays valid.
    assert!(Checkpoint::from_json(&checkpoint_json(0)).is_ok());
}

#[test]
fn checkpoint_with_more_hits_than_records_is_refused() {
    let good = checkpoint_json(5);
    let r = Checkpoint::from_json(&good).expect("consistent").reducer;
    let bad = good.replace(
        &format!("\"hits\": {}", r.hits),
        &format!("\"hits\": {}", r.records + 1),
    );
    let err = Checkpoint::from_json(&bad).expect_err("hits > records");
    assert!(err.contains("hits") && err.contains("records"), "{err}");
}

#[test]
fn resume_refuses_a_checkpoint_whose_victims_disagree_with_its_shards() {
    let path = scratch("victims");
    let _ = std::fs::remove_file(&path);
    let config = || {
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path)
    };
    small_fleet(config().with_max_shards(1))
        .run()
        .expect("first shard");

    // One completed shard of 10 victims, re-counted as 9 (probe moments
    // kept consistent, so only the resume-time check can catch it).
    let json = std::fs::read_to_string(&path).expect("checkpoint written");
    let edited = json
        .replace("\"victims\": 10", "\"victims\": 9")
        .replace("\"probe_n\": 10", "\"probe_n\": 9");
    assert_ne!(edited, json);
    Checkpoint::from_json(&edited).expect("self-consistent reducer");
    std::fs::write(&path, edited).expect("rewrite checkpoint");
    let err = small_fleet(config())
        .run()
        .expect_err("victims disagreeing with the completed shards must be refused");
    assert!(err.contains("victims"), "{err}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_refuses_a_checkpoint_whose_probe_total_would_overflow() {
    let path = scratch("overflow");
    let _ = std::fs::remove_file(&path);
    let config = || {
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path)
    };
    small_fleet(config().with_max_shards(1))
        .run()
        .expect("first shard");
    let json = std::fs::read_to_string(&path).expect("checkpoint written");
    let probes = Checkpoint::from_json(&json)
        .expect("consistent")
        .reducer
        .probes;
    let crafted = (u64::MAX - 5).to_string();

    // A probe total the probe moments do not sum to, and a confidence
    // histogram tagging more victims than the checkpoint holds, are
    // refused on load.
    let edited = json.replace(
        &format!("\"probes\": {probes}"),
        &format!("\"probes\": {crafted}"),
    );
    assert_ne!(edited, json);
    let err = Checkpoint::from_json(&edited).expect_err("probes != probe_sum");
    assert!(err.contains("probes") && err.contains("probe_sum"), "{err}");
    std::fs::write(&path, &edited).expect("rewrite checkpoint");
    let err = small_fleet(config())
        .run()
        .expect_err("an inconsistent probe total must be refused");
    assert!(err.contains("probes"), "{err}");
    let tagged = json.replace(
        "\"confidence\": [0, 0, 0, 0]",
        "\"confidence\": [0, 11, 0, 0]",
    );
    assert_ne!(tagged, json);
    let err = Checkpoint::from_json(&tagged).expect_err("11 tags over 10 victims");
    assert!(err.contains("confidence"), "{err}");

    // A self-consistent total that overflows once the remaining shards
    // merge in is an error naming the field, not a panic or a wrapped
    // total.
    let edited = edited.replace(
        &format!("\"probe_sum\": \"{probes}\""),
        &format!("\"probe_sum\": \"{crafted}\""),
    );
    Checkpoint::from_json(&edited).expect("self-consistent reducer");
    std::fs::write(&path, edited).expect("rewrite checkpoint");
    let err = small_fleet(config())
        .run()
        .expect_err("an overflowing probe total must be refused");
    assert!(err.contains("probes") && err.contains("overflow"), "{err}");

    let _ = std::fs::remove_file(&path);
}
