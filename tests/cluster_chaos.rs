//! Chaos differential for the cluster layer: under seeded worker crashes,
//! network partitions, lost acks, and forced rebalances, the simulated
//! multi-node cluster must report **byte-identical** per-session outcomes
//! (verdict *and* consumed-event count) to a fault-free single-process
//! run of the same stream — and must lose or double-apply nothing: every
//! submitted event is routed exactly once (`events_routed == stream len`),
//! with duplicates eaten by the per-vshard sequence watermark and stale
//! owners stopped by the epoch fence.
//!
//! Structure mirrors `stream_faults.rs`: 256 seeded proptest cases whose
//! failure messages embed the seed, four pinned regression seeds, a
//! CI-pluggable `REGA_SIM_SEED`/`RANDOM_SEED` round, and deterministic
//! pinned scenarios for the specific orders that once raced — a crash
//! mid-batch, a partition during a migration, a double rebalance before
//! the first converges.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_cluster::{ClusterFaultPlan, ControlConfig, SimCluster, VSHARDS};
use rega_core::spec::parse_spec;
use rega_data::{Database, Schema, Value};
use rega_stream::{CompiledSpec, Engine, EngineConfig, Event, SessionOutcome};
use std::sync::Arc;

/// Nondeterministic control plus a guard, so verdicts depend on real
/// monitor state that must survive checkpoint/extract/install round trips.
fn spec() -> Arc<CompiledSpec> {
    let ext = parse_spec(
        "\
registers 1
state p init accept
state q
trans p -> p : x1 = x1
trans p -> q :
trans q -> p : x1 = y1
",
    )
    .unwrap();
    Arc::new(CompiledSpec::compile(ext, Database::new(Schema::empty()), None).unwrap())
}

/// A seeded workload: interleaved sessions with varying lengths, some
/// left open, some with register patterns that genuinely violate.
fn gen_stream(rng: &mut StdRng) -> Vec<Event> {
    let sessions = rng.gen_range(3usize..9);
    let mut per_session: Vec<Vec<Event>> = Vec::new();
    for s in 0..sessions {
        let name = format!("s{s}");
        let steps = rng.gen_range(1usize..12);
        let mut events = Vec::new();
        for _ in 0..steps {
            let state = if rng.gen_bool(0.8) { "p" } else { "q" };
            events.push(Event::Step {
                session: name.clone(),
                state: state.to_string(),
                regs: vec![Value(rng.gen_range(0u64..4))],
            });
        }
        if rng.gen_bool(0.6) {
            events.push(Event::End {
                session: name.clone(),
            });
        }
        per_session.push(events);
    }
    let mut stream = Vec::new();
    loop {
        let nonempty: Vec<usize> = (0..per_session.len())
            .filter(|&i| !per_session[i].is_empty())
            .collect();
        if nonempty.is_empty() {
            break;
        }
        let pick = nonempty[rng.gen_range(0..nonempty.len())];
        stream.push(per_session[pick].remove(0));
    }
    stream
}

/// The cluster chaos plan for one case: crash/partition/ack-loss rates
/// plus up to two forced rebalances (the second may land before the first
/// converges — the double-rebalance order).
fn gen_plan(rng: &mut StdRng, seed: u64, stream_len: usize) -> ClusterFaultPlan {
    let mut rebalance_at = Vec::new();
    if stream_len > 2 && rng.gen_bool(0.7) {
        rebalance_at.push(rng.gen_range(1..stream_len as u64));
        if rng.gen_bool(0.4) {
            rebalance_at.push(rng.gen_range(1..stream_len as u64));
        }
    }
    ClusterFaultPlan {
        seed,
        crash_prob: if rng.gen_bool(0.6) {
            rng.gen_range(0u64..12) as f64 / 100.0
        } else {
            0.0
        },
        ack_loss_prob: rng.gen_range(0u64..15) as f64 / 100.0,
        partition_prob: rng.gen_range(0u64..10) as f64 / 100.0,
        partition_events: rng.gen_range(1u64..6),
        rebalance_at,
        checkpoint_every: rng.gen_range(1u64..16),
    }
}

fn baseline(events: &[Event]) -> Vec<SessionOutcome> {
    let mut engine = Engine::start_sim(spec(), EngineConfig::default(), 0);
    for e in events {
        engine.submit(e.clone()).unwrap();
    }
    engine.finish().outcomes
}

/// One full differential case for `seed`. Returns an error message that
/// embeds the seed so proptest shrinking and the pinned tests share it.
fn run_case(seed: u64) -> Result<(), String> {
    let fail = |msg: String| Err(format!("[seed {seed:#x}] {msg}"));
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = gen_stream(&mut rng);
    let nodes = rng.gen_range(2usize..5);
    let plan = gen_plan(&mut rng, seed, stream.len());
    let want = baseline(&stream);

    let mut cluster = SimCluster::new(
        spec(),
        EngineConfig::default(),
        nodes,
        ControlConfig::default(),
        plan.clone(),
    );
    for (i, e) in stream.iter().enumerate() {
        if let Err(e) = cluster.submit(e.clone()) {
            return fail(format!("submit {i} failed under chaos: {e}"));
        }
    }
    let report = cluster.finish().unwrap();
    if report.outcomes != want {
        return fail(format!(
            "verdict streams diverged under chaos plan {plan:?}\n cluster: {:?}\n baseline: {:?}",
            report.outcomes, want
        ));
    }
    if report.metrics.events_routed.get() != stream.len() as u64 {
        return fail(format!(
            "event loss or double-apply: routed {} of {} submitted",
            report.metrics.events_routed.get(),
            stream.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// 256 seeded chaos cases; a failure prints its seed — pin it below.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chaos_cluster_matches_single_process(seed in 0u64..u64::MAX) {
        if let Err(msg) = run_case(seed) {
            panic!("{msg}");
        }
    }
}

// Pinned regression seeds: previously-explored cases kept as fixed tests.
const PINNED_SEEDS: [u64; 4] = [0x0, 0xC1A5_7E12, 0xFEED_FACE_CAFE, 0x0123_4567_89AB_CDEF];

#[test]
fn pinned_seed_zero() {
    run_case(PINNED_SEEDS[0]).unwrap();
}

#[test]
fn pinned_seed_c1a57e12() {
    run_case(PINNED_SEEDS[1]).unwrap();
}

#[test]
fn pinned_seed_feedface() {
    run_case(PINNED_SEEDS[2]).unwrap();
}

#[test]
fn pinned_seed_counting() {
    run_case(PINNED_SEEDS[3]).unwrap();
}

/// CI's randomized round: `REGA_SIM_SEED` (or `RANDOM_SEED`) picks the
/// case; a failure prints the seed for pinning.
#[test]
fn random_seed_round_from_env() {
    let seed = std::env::var("REGA_SIM_SEED")
        .or_else(|_| std::env::var("RANDOM_SEED"))
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0xC1A5);
    run_case(seed)
        .unwrap_or_else(|msg| panic!("random round failed — pin this seed in PINNED_SEEDS: {msg}"));
}

// ---------------------------------------------------------------------
// Deterministic pinned scenarios: the specific orders worth naming.
// ---------------------------------------------------------------------

/// A fixed workload for the deterministic scenarios below: 10 sessions ×
/// 8 steps round-robin, every third session left open.
fn fixed_stream() -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..8usize {
        for s in 0..10usize {
            events.push(Event::Step {
                session: format!("session-{s}"),
                state: "p".into(),
                regs: vec![Value((i * 10 + s) as u64)],
            });
        }
    }
    for s in 0..10usize {
        if s % 3 != 0 {
            events.push(Event::End {
                session: format!("session-{s}"),
            });
        }
    }
    events
}

/// Worker crash mid-batch: kill node 0 without warning halfway through,
/// with checkpoints enabled — recovery must replay from checkpoint +
/// journal to byte-identical verdicts, and the at-most-once watermark
/// must eat every replayed duplicate rather than double-applying.
#[test]
fn crash_mid_batch_recovers_exactly_once() {
    let events = fixed_stream();
    let want = baseline(&events);
    let plan = ClusterFaultPlan {
        checkpoint_every: 5,
        ..ClusterFaultPlan::none(21)
    };
    let mut cluster = SimCluster::new(
        spec(),
        EngineConfig::default(),
        2,
        ControlConfig::default(),
        plan,
    );
    let half = events.len() / 2;
    for e in &events[..half] {
        cluster.submit(e.clone()).unwrap();
    }
    cluster.force_crash(0);
    for e in &events[half..] {
        cluster.submit(e.clone()).unwrap();
    }
    let report = cluster.finish().unwrap();
    assert_eq!(report.outcomes, want, "crash recovery diverged");
    assert!(report.metrics.crashes.get() >= 1);
    assert!(report.metrics.respawns.get() >= 1);
    assert!(
        report.metrics.events_replayed.get() >= 1,
        "recovery must replay the journal suffix"
    );
    assert_eq!(
        report.metrics.events_routed.get(),
        events.len() as u64,
        "exactly-once routing across the crash"
    );
}

/// Partition during migration: the donor node is partitioned in the very
/// window where a forced rebalance is converging. Deliveries shed with
/// `rebalancing`, retries ride the backoff, and nothing is lost or
/// double-applied when the partition heals.
#[test]
fn partition_during_migration_sheds_but_loses_nothing() {
    let events = fixed_stream();
    let want = baseline(&events);
    let plan = ClusterFaultPlan {
        partition_prob: 0.15,
        partition_events: 4,
        rebalance_at: vec![30, 55],
        checkpoint_every: 6,
        ..ClusterFaultPlan::none(5)
    };
    let mut cluster = SimCluster::new(
        spec(),
        EngineConfig::default(),
        3,
        ControlConfig::default(),
        plan,
    );
    for e in &events {
        cluster.submit(e.clone()).unwrap();
    }
    let report = cluster.finish().unwrap();
    assert_eq!(report.outcomes, want, "partition+migration diverged");
    assert!(report.metrics.migrations.get() >= 1, "rebalances must run");
    assert_eq!(
        report.metrics.events_routed.get(),
        events.len() as u64,
        "zero loss through partition + migration"
    );
}

/// Double rebalance: a second forced migration retargets the same shards
/// before the first has converged. Epoch fencing must keep the slow first
/// owner from ever double-applying — at-most-once is pinned here by the
/// exact routed count plus byte-identical outcomes.
#[test]
fn double_rebalance_is_epoch_fenced_at_most_once() {
    let events = fixed_stream();
    let want = baseline(&events);
    let mut cluster = SimCluster::new(
        spec(),
        EngineConfig::default(),
        3,
        ControlConfig::default(),
        ClusterFaultPlan::none(9),
    );
    let third = events.len() / 3;
    for e in &events[..third] {
        cluster.submit(e.clone()).unwrap();
    }
    // First rebalance: everything to node 1; immediately retarget to
    // node 2 before submitting anything — the first migration may still
    // be mid-flight when the second lands.
    let all: Vec<usize> = (0..VSHARDS).collect();
    cluster.force_migration(&all, 1);
    cluster.force_migration(&all, 2);
    for e in &events[third..2 * third] {
        cluster.submit(e.clone()).unwrap();
    }
    // And back again mid-stream for good measure.
    cluster.force_migration(&all, 0);
    for e in &events[2 * third..] {
        cluster.submit(e.clone()).unwrap();
    }
    let epoch_after = cluster.epoch();
    let report = cluster.finish().unwrap();
    assert_eq!(report.outcomes, want, "double rebalance diverged");
    assert!(epoch_after >= 2, "each converged retarget bumps the epoch");
    assert!(report.metrics.migrations.get() >= 2);
    assert_eq!(
        report.metrics.events_routed.get(),
        events.len() as u64,
        "epoch fence kept routing at-most-once per event"
    );
}

/// Bit-for-bit reproducibility: the same seed must produce the identical
/// report — outcomes and every chaos-path metric — across two runs.
#[test]
fn same_seed_is_bit_for_bit_reproducible() {
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = gen_stream(&mut rng);
        let nodes = rng.gen_range(2usize..5);
        let plan = gen_plan(&mut rng, seed, stream.len());
        let mut cluster = SimCluster::new(
            spec(),
            EngineConfig::default(),
            nodes,
            ControlConfig::default(),
            plan,
        );
        for e in &stream {
            cluster.submit(e.clone()).unwrap();
        }
        let report = cluster.finish().unwrap();
        (
            report.outcomes,
            report.metrics.events_routed.get(),
            report.metrics.events_replayed.get(),
            report.metrics.events_deduped.get(),
            report.metrics.retries.get(),
            report.metrics.sheds_rebalancing.get(),
            report.metrics.stale_epoch_rejections.get(),
            report.metrics.crashes.get(),
            report.metrics.respawns.get(),
        )
    };
    for seed in [3u64, 0xBEEF, 0x7777_7777] {
        assert_eq!(run(seed), run(seed), "[seed {seed:#x}] runs diverged");
    }
}

/// Coverage floor: summed over a fixed seed range, every recovery path
/// the differential relies on must actually fire. Without it, a reordered
/// RNG draw or a supervisor change could quietly turn the chaos schedule
/// into a no-op and the differential above would still pass.
#[test]
fn chaos_schedule_fires_every_recovery_path() {
    let mut totals = [0u64; 7];
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = gen_stream(&mut rng);
        let nodes = rng.gen_range(2usize..5);
        let plan = gen_plan(&mut rng, seed, stream.len());
        let mut cluster = SimCluster::new(
            spec(),
            EngineConfig::default(),
            nodes,
            ControlConfig::default(),
            plan,
        );
        for e in &stream {
            cluster.submit(e.clone()).unwrap();
        }
        let m = cluster.finish().unwrap().metrics;
        let fired = [
            m.crashes.get(),
            m.respawns.get(),
            m.events_replayed.get(),
            m.events_deduped.get(),
            m.sheds_rebalancing.get(),
            m.stale_epoch_rejections.get(),
            m.migrations.get(),
        ];
        for (total, n) in totals.iter_mut().zip(fired) {
            *total += n;
        }
    }
    eprintln!("chaos coverage over seeds 0..64: {totals:?}");
    // Floors sit at about half of what seeds 0..64 fire today.
    let floors = [
        ("crashes", 50),
        ("respawns", 90),
        ("events replayed", 500),
        ("ack-loss dedups", 150),
        ("rebalancing sheds", 3),
        ("stale-epoch rejections", 18),
        ("migrations", 18),
    ];
    for ((path, floor), total) in floors.iter().zip(totals) {
        assert!(
            total >= *floor,
            "chaos coverage fell: {path} fired {total} times over seeds 0..64, floor {floor}"
        );
    }
}
