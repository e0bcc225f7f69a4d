//! E21: multi-process cluster scale-out — events/s through a supervised
//! [`rega_cluster::ProcCluster`] at 1, 2, and 4 worker processes, plus the
//! p99 ingress ack latency of deliveries inside a forced live-migration
//! window versus the same window undisturbed.
//!
//! Every worker is a re-exec of this bench binary (the first line of
//! `main` is [`rega_cluster::maybe_worker_entry`]), speaking the
//! length-prefixed binary framing over loopback TCP. The throughput
//! stream is delivered through `submit_batch` (consecutive same-owner
//! runs coalesce into one `event-batch` frame); the latency window times
//! each per-event `submit` into a window-only histogram (the cluster's
//! own ack histogram also holds the batched warm-up), covering the full
//! delivery including any `rebalancing` sheds and epoch refreshes a
//! migration inflicts on it.
//!
//! **Honest caveats** (also in EXPERIMENTS.md): this container pins all
//! processes to a small CPU budget, so worker processes time-slice one
//! core instead of running in parallel — the per-process counts measure
//! supervision/wire overhead, not parallel speedup. Read the scaling
//! column as "what the coordination costs", not "what N cores buy".
//! Writes `BENCH_e21.json` at the repo root.

use rega_bench::write_bench_json;
use rega_cluster::ProcCluster;
use rega_data::Value;
use rega_stream::Event;
use serde_json::json;
use std::time::Instant;

const SPEC: &str = "registers 1\nstate p init accept\ntrans p -> p : x1 = x1\n";
const SESSIONS: usize = 16;
const EVENTS: usize = 6_000;
const RUNS: usize = 5;
/// Batch granularity for the throughput stream — the shape an ingress
/// proxy would use, large enough to amortize a frame, small enough that
/// ownership changes still interleave.
const BATCH: usize = 64;

fn workload() -> Vec<Event> {
    let mut events = Vec::with_capacity(EVENTS);
    for i in 0..EVENTS {
        events.push(Event::Step {
            session: format!("session-{}", i % SESSIONS),
            state: "p".into(),
            regs: vec![Value(i as u64)],
        });
    }
    events
}

/// One timed throughput run: batch-submit the whole stream and drain.
/// Returns events/s including the final drain.
fn throughput_run(procs: usize, seed: u64, events: &[Event]) -> f64 {
    let mut cluster = ProcCluster::new(procs, SPEC, None, seed, None, 0).expect("cluster spawns");
    let started = Instant::now();
    for chunk in events.chunks(BATCH) {
        cluster.submit_batch(chunk).expect("batch delivers");
    }
    let report = cluster.finish().expect("drain");
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(report.outcomes.len(), SESSIONS);
    assert_eq!(report.metrics.events_routed.get(), events.len() as u64);
    events.len() as f64 / secs
}

/// p99 ack latency (ns) for a window of per-event submits — with
/// `migrate` true, a full rebalance of worker 0's shards onto worker 1 is
/// forced immediately before the window, so its deliveries eat the
/// rebalancing sheds, cache refreshes, and epoch fence retries.
fn window_p99(procs: usize, seed: u64, events: &[Event], migrate: bool) -> (u64, f64) {
    let mut cluster = ProcCluster::new(procs, SPEC, None, seed, None, 0).expect("cluster spawns");
    let warm = events.len() * 2 / 5;
    let window = events.len() / 5;
    for chunk in events[..warm].chunks(BATCH) {
        cluster.submit_batch(chunk).expect("warmup delivers");
    }
    let mut pause_ms = 0.0;
    if migrate {
        let owned = cluster.owned_by(0);
        let started = Instant::now();
        cluster.migrate(&owned, 1).expect("live migration");
        // The supervisor runs the two-phase handoff synchronously, so the
        // client-visible cost of a migration is this stop-the-world pause
        // (drain + extract + install + resync), not a latency tail.
        pause_ms = started.elapsed().as_secs_f64() * 1e3;
    }
    let acks = rega_obs::Histogram::new();
    for e in &events[warm..warm + window] {
        let started = Instant::now();
        cluster.submit(e.clone()).expect("window delivers");
        acks.record(started.elapsed());
    }
    let p99 = acks.approx_quantile_ns(0.99);
    for chunk in events[warm + window..].chunks(BATCH) {
        cluster.submit_batch(chunk).expect("tail delivers");
    }
    let report = cluster.finish().expect("drain");
    assert_eq!(report.metrics.events_routed.get(), events.len() as u64);
    if migrate {
        assert!(report.metrics.migrations.get() >= 1, "migration must run");
    }
    (p99, pause_ms)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    // Worker processes re-enter here; the supervisor path continues below.
    rega_cluster::maybe_worker_entry();
    let events = workload();

    let mut scaling = Vec::new();
    for procs in [1usize, 2, 4] {
        // Interleaved rounds would not help here (each run spawns its own
        // fleet), but the median over RUNS still suppresses one-off
        // scheduler spikes.
        let samples: Vec<f64> = (0..RUNS)
            .map(|r| throughput_run(procs, r as u64, &events))
            .collect();
        let eps = median(samples);
        eprintln!("e21: {procs} proc(s): {eps:.0} events/s");
        scaling.push(json!({"procs": procs, "events_per_sec": eps}));
    }

    let steady: Vec<f64> = (0..RUNS)
        .map(|r| window_p99(2, 100 + r as u64, &events, false).0 as f64)
        .collect();
    let (migrating, pauses): (Vec<f64>, Vec<f64>) = (0..RUNS)
        .map(|r| {
            let (p99, pause) = window_p99(2, 200 + r as u64, &events, true);
            (p99 as f64, pause)
        })
        .unzip();
    let steady_p99 = median(steady);
    let migrating_p99 = median(migrating);
    let pause_ms = median(pauses);
    eprintln!(
        "e21: window p99 ack: steady {steady_p99:.0} ns, post-migration {migrating_p99:.0} ns; \
         migration pause {pause_ms:.1} ms"
    );

    let payload = json!({
        "experiment": "e21_cluster_scaleout",
        "note": "single small-CPU container: processes time-slice, so per-proc \
                 counts measure supervision/wire overhead, not parallel speedup; \
                 latency windows are per-event submits, throughput runs are \
                 64-event batch frames",
        "events_per_run": EVENTS,
        "sessions": SESSIONS,
        "runs": RUNS,
        "scaling": scaling,
        "steady_p99_ack_ns": steady_p99,
        "post_migration_p99_ack_ns": migrating_p99,
        "migration_pause_ms": pause_ms,
    });
    let path = write_bench_json("BENCH_e21", &payload);
    eprintln!("e21: wrote {}", path.display());
}
