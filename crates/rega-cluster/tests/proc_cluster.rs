//! Differential test for the real multi-process cluster: worker
//! processes (re-execs of this test binary), TCP wire frames, crash
//! recovery from durable checkpoints + journal replay, and epoch-fenced
//! live migration — all pinned against a single-process engine run.
//!
//! `harness = false` because the supervisor re-execs `current_exe()` as
//! workers: `main` must route worker invocations to the worker loop
//! before any test logic runs.

use rega_cluster::proc::maybe_worker_entry;
use rega_cluster::{
    vshard, ClusterFaultPlan, ClusterReport, ControlConfig, ProcCluster, SimCluster, Supervisor,
    Transport,
};
use rega_stream::event::Event;
use rega_stream::{CompiledSpec, EngineConfig, SessionOutcome, SimScheduler};
use std::path::PathBuf;
use std::sync::Arc;

const SPEC: &str = "\
registers 1
state p init accept
state q
trans p -> p : x1 = x1
trans p -> q :
trans q -> p : x1 = y1
";

fn compiled() -> Arc<CompiledSpec> {
    let ext = rega_core::spec::parse_spec(SPEC).unwrap();
    let db = rega_data::Database::new(ext.ra().schema().clone());
    Arc::new(CompiledSpec::compile(ext, db, None).unwrap())
}

fn workload(sessions: usize, per: usize) -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..per {
        for s in 0..sessions {
            events.push(Event::Step {
                session: format!("session-{s}"),
                state: "p".into(),
                regs: vec![rega_data::Value((i * sessions + s) as u64)],
            });
        }
    }
    for s in 0..sessions {
        if s % 3 != 0 {
            events.push(Event::End {
                session: format!("session-{s}"),
            });
        }
    }
    events
}

fn baseline(events: &[Event]) -> Vec<SessionOutcome> {
    let mut engine = SimScheduler::start(compiled(), EngineConfig::default(), 0);
    for e in events {
        engine.submit(e.clone()).unwrap();
    }
    let mut outcomes = engine.finish().outcomes;
    outcomes.sort_by(|a, b| a.session.cmp(&b.session));
    outcomes
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rega-proc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn plain_run_matches_baseline() {
    let events = workload(6, 8);
    let expected = baseline(&events);
    for nodes in [1usize, 3] {
        let mut cluster = ProcCluster::new(nodes, SPEC, None, 0xBEEF, None, 0).unwrap();
        for e in &events {
            cluster.submit(e.clone()).unwrap();
        }
        let report = cluster.finish().unwrap();
        assert_eq!(
            report.outcomes, expected,
            "{nodes}-process verdicts must be byte-identical to single-process"
        );
        assert_eq!(
            report.metrics.events_routed.get(),
            events.len() as u64,
            "every event routed exactly once ({nodes} nodes)"
        );
    }
    println!("ok - plain_run_matches_baseline");
}

fn batches_match_baseline() {
    let events = workload(6, 8);
    let expected = baseline(&events);
    let mut cluster = ProcCluster::new(2, SPEC, None, 0xBEEF, None, 0).unwrap();
    cluster.submit_batch(&events).unwrap();
    let report = cluster.finish().unwrap();
    assert_eq!(
        report.outcomes, expected,
        "batched delivery changes nothing"
    );
    println!("ok - batches_match_baseline");
}

/// One `submit_batch` whose events would encode to more than the wire's
/// 1 MiB frame limit on a single worker still lands, split into frames.
fn oversized_batch_is_split_into_frames() {
    let events = workload(8, 2_000);
    let expected = baseline(&events);
    let mut cluster = ProcCluster::new(1, SPEC, None, 0xBEEF, None, 0).unwrap();
    cluster.submit_batch(&events).unwrap();
    let report = cluster.finish().unwrap();
    assert_eq!(
        report.outcomes, expected,
        "an oversized batch changes nothing"
    );
    let m = &report.metrics;
    assert_eq!(m.events_routed.get(), events.len() as u64);
    assert_eq!(m.retries.get(), 0, "no frame was refused");
    assert_eq!(m.crashes.get(), 0, "no worker died on a frame");
    println!("ok - oversized_batch_is_split_into_frames");
}

fn kill_midstream_recovers_from_checkpoint_and_journal() {
    let events = workload(6, 8);
    let expected = baseline(&events);
    let dir = scratch_dir("kill");
    let mut cluster = ProcCluster::new(2, SPEC, None, 0xBEEF, Some(dir.clone()), 5).unwrap();
    let half = events.len() / 2;
    for e in &events[..half] {
        cluster.submit(e.clone()).unwrap();
    }
    cluster.kill_worker(0);
    for e in &events[half..] {
        cluster.submit(e.clone()).unwrap();
    }
    let report = cluster.finish().unwrap();
    assert_eq!(
        report.outcomes, expected,
        "a SIGKILLed worker must recover with zero loss and no double-apply"
    );
    assert!(report.metrics.crashes.get() >= 1, "the crash was observed");
    assert!(
        report.metrics.checkpoints.get() >= 1,
        "durable checkpoints were written"
    );
    std::fs::remove_dir_all(&dir).ok();
    println!("ok - kill_midstream_recovers_from_checkpoint_and_journal");
}

fn corrupt_checkpoint_is_discarded_not_trusted() {
    let events = workload(6, 8);
    let expected = baseline(&events);
    let dir = scratch_dir("corrupt");
    let mut cluster = ProcCluster::new(2, SPEC, None, 0xBEEF, Some(dir.clone()), 3).unwrap();
    let half = events.len() / 2;
    for e in &events[..half] {
        cluster.submit(e.clone()).unwrap();
    }
    // Flip one payload byte in every snapshot on disk: the checksum
    // footer must catch it and recovery must fall back to journal replay.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        if !bytes.is_empty() {
            bytes[0] ^= 0x40;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 1, "at least one snapshot existed to corrupt");
    cluster.kill_worker(0);
    cluster.kill_worker(1);
    for e in &events[half..] {
        cluster.submit(e.clone()).unwrap();
    }
    cluster.supervise().unwrap();
    let report = cluster.finish().unwrap();
    assert_eq!(
        report.outcomes, expected,
        "corrupt checkpoints must be discarded; journal replay rebuilds everything"
    );
    std::fs::remove_dir_all(&dir).ok();
    println!("ok - corrupt_checkpoint_is_discarded_not_trusted");
}

fn live_migration_is_epoch_fenced_and_lossless() {
    let events = workload(6, 8);
    let expected = baseline(&events);
    let mut cluster = ProcCluster::new(2, SPEC, None, 0xBEEF, None, 0).unwrap();
    let half = events.len() / 2;
    for e in &events[..half] {
        cluster.submit(e.clone()).unwrap();
    }
    // Move the vshards of half the sessions to worker 1 mid-stream.
    let moving: Vec<usize> = (0..3).map(|s| vshard(&format!("session-{s}"))).collect();
    let epoch_before = cluster.epoch();
    cluster.migrate(&moving, 1).unwrap();
    assert!(cluster.epoch() > epoch_before, "migration bumps the epoch");
    for e in &events[half..] {
        cluster.submit(e.clone()).unwrap();
    }
    let report = cluster.finish().unwrap();
    assert_eq!(
        report.outcomes, expected,
        "live migration must not lose, reorder, or double-apply"
    );
    assert!(report.metrics.migrations.get() >= 1);
    assert!(
        report.metrics.sessions_migrated.get() >= 1,
        "live sessions actually moved"
    );
    println!("ok - live_migration_is_epoch_fenced_and_lossless");
}

/// The parity script: a batched prefix, one live migration, per-event
/// submits, a worker crash, and a batched suffix that has to wait for the
/// respawn. Returns the report plus the epoch before the drain.
fn parity_script<T: Transport>(
    mut cluster: Supervisor<T>,
    events: &[Event],
) -> (ClusterReport, u64) {
    let third = events.len() / 3;
    cluster.submit_batch(&events[..third]).unwrap();
    let moving: Vec<usize> = (0..3).map(|s| vshard(&format!("session-{s}"))).collect();
    cluster.migrate(&moving, 1).unwrap();
    for e in &events[third..2 * third] {
        cluster.submit(e.clone()).unwrap();
    }
    cluster.kill_worker(0);
    cluster.submit_batch(&events[2 * third..]).unwrap();
    let epoch = cluster.epoch();
    (cluster.finish().unwrap(), epoch)
}

/// The simulated and the process transport run the same supervisor, so
/// one script must give the same outcomes and the same cluster story.
fn transports_agree_on_one_script() {
    let events = workload(6, 8);
    let expected = baseline(&events);
    let sim = SimCluster::new(
        compiled(),
        EngineConfig::default(),
        2,
        ControlConfig::default(),
        ClusterFaultPlan::none(0xBEEF),
    );
    let procs = ProcCluster::new(2, SPEC, None, 0xBEEF, None, 0).unwrap();
    let (sim, sim_epoch) = parity_script(sim, &events);
    let (procs, proc_epoch) = parity_script(procs, &events);
    assert_eq!(sim.outcomes, expected, "sim transport diverged");
    assert_eq!(
        procs.outcomes, sim.outcomes,
        "transports disagree on outcomes"
    );
    assert_eq!(
        proc_epoch, sim_epoch,
        "transports disagree on the final epoch"
    );
    let story = |r: &ClusterReport| {
        let m = &r.metrics;
        [
            m.events_routed.get(),
            m.migrations.get(),
            m.sessions_migrated.get(),
            m.epoch.get(),
        ]
    };
    assert_eq!(
        story(&procs),
        story(&sim),
        "routed/migrations/sessions/epoch"
    );
    assert_eq!(sim.metrics.events_routed.get(), events.len() as u64);
    assert!(sim.metrics.sessions_migrated.get() >= 1);
    for r in [&sim, &procs] {
        assert_eq!(
            r.metrics.ack_latency.count(),
            r.metrics.events_routed.get(),
            "every routed event, batched or not, records its ack latency"
        );
        assert!(r.metrics.crashes.get() >= 1 && r.metrics.respawns.get() >= 1);
    }
    println!("ok - transports_agree_on_one_script");
}

fn main() {
    // Worker invocations of this same binary divert here and never return.
    maybe_worker_entry();

    plain_run_matches_baseline();
    batches_match_baseline();
    oversized_batch_is_split_into_frames();
    kill_midstream_recovers_from_checkpoint_and_journal();
    corrupt_checkpoint_is_discarded_not_trusted();
    live_migration_is_epoch_fenced_and_lossless();
    transports_agree_on_one_script();
    println!("all proc_cluster tests passed");
}
