//! Engine metrics, backed by the workspace-wide [`rega_obs`] registry:
//! monotonic counters, a live-session gauge with a high-water mark,
//! fault/quarantine accounting, coarse power-of-two latency histograms,
//! and per-shard queue-depth gauges.
//!
//! Every handle here is registered by name in a per-engine
//! [`Registry`](rega_obs::Registry) (engines must not share counts, so the
//! process-global registry is not used), and the hot paths touch only the
//! cloned lock-free handles. All timestamps feeding the histograms come
//! from an injectable [`ObsClock`](rega_obs::ObsClock), so a simulation run
//! with a [`ManualClock`](rega_obs::ManualClock) produces bit-for-bit
//! reproducible snapshots — the JSON schema is pinned by a golden-file
//! test.

use rega_obs::{Counter, Gauge, Registry};
use serde_json::{json, Value as Json};

/// The coarse base-2 latency histogram (now the shared
/// [`rega_obs::Histogram`]; the old standalone type moved there when the
/// registry was introduced).
pub type LatencyHistogram = rega_obs::Histogram;

/// Counters shared by the producer and all workers. Everything is a
/// relaxed-atomic [`rega_obs`] handle: metrics never synchronize data,
/// they only count.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Events submitted to the engine (accepted into a queue).
    pub events_submitted: Counter,
    /// Events fully processed by a worker.
    pub events_processed: Counter,
    /// Step events applied to an `Active` session without violation.
    pub events_ok: Counter,
    /// Sessions created.
    pub sessions_started: Counter,
    /// Sessions that received their terminal event while still valid.
    pub sessions_ended: Counter,
    /// Sessions whose stream violated the specification.
    pub sessions_violated: Counter,
    /// Sessions evicted (terminal event or violation) — their monitoring
    /// state has been dropped.
    pub sessions_evicted: Counter,
    /// Events addressed to an already-evicted session (ignored).
    pub events_after_eviction: Counter,
    /// Sessions whose view observer degraded to three-valued answers.
    pub view_degraded: Counter,
    /// Currently resident sessions across all shards, with the high-water
    /// mark tracked by the gauge's peak.
    pub sessions_active: Gauge,
    /// Transport-faulty events (bad arity, unknown state, post-eviction or
    /// post-end traffic) dropped without touching session state, in
    /// lenient mode (`quarantine_cap > 0`).
    pub events_quarantined: Counter,
    /// Worker panics that were caught, with the worker respawned in place
    /// and its session table handed back to it.
    pub worker_panics: Counter,
    /// Submissions rejected with a typed error (arity validation, queue
    /// timeout, dead workers).
    pub submit_errors: Counter,
    /// Per-event worker processing latency.
    pub process_latency: LatencyHistogram,
    /// Time events spent waiting in shard queues.
    pub queue_latency: LatencyHistogram,
    /// σ-type cache hits of the spec's [`SatCache`](rega_data::SatCache)
    /// (interned satisfiability/saturation lookups that were served from
    /// the memo tables). Synced from the spec by workers; stores, not
    /// increments, so replays cannot double-count.
    pub type_cache_hits: Counter,
    /// σ-type cache misses (lookups that had to run the full analysis).
    pub type_cache_misses: Counter,
    /// Per-shard queue depth (events enqueued, not yet handled), one gauge
    /// per shard; empty for engines built without shard knowledge.
    pub queue_depth: Vec<Gauge>,
    /// The registry all the handles above are registered in, for uniform
    /// by-name snapshots alongside the schema-pinned [`snapshot`].
    ///
    /// [`snapshot`]: EngineMetrics::snapshot
    registry: Registry,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::with_shards(0)
    }
}

impl EngineMetrics {
    /// A fresh metric set registered in its own registry, with one
    /// queue-depth gauge per shard.
    pub fn with_shards(shards: usize) -> Self {
        let registry = Registry::new();
        let queue_depth = (0..shards)
            .map(|i| registry.gauge(&format!("stream.queue.depth.{i}")))
            .collect();
        EngineMetrics {
            events_submitted: registry.counter("stream.events.submitted"),
            events_processed: registry.counter("stream.events.processed"),
            events_ok: registry.counter("stream.events.ok"),
            sessions_started: registry.counter("stream.sessions.started"),
            sessions_ended: registry.counter("stream.sessions.ended"),
            sessions_violated: registry.counter("stream.sessions.violated"),
            sessions_evicted: registry.counter("stream.sessions.evicted"),
            events_after_eviction: registry.counter("stream.events.after_eviction"),
            view_degraded: registry.counter("stream.sessions.view_degraded"),
            sessions_active: registry.gauge("stream.sessions.active"),
            events_quarantined: registry.counter("stream.faults.quarantined"),
            worker_panics: registry.counter("stream.faults.worker_panics"),
            submit_errors: registry.counter("stream.faults.submit_errors"),
            process_latency: registry.histogram("stream.latency.process_ns"),
            queue_latency: registry.histogram("stream.latency.queue_ns"),
            type_cache_hits: registry.counter("stream.symbolic.type_cache_hits"),
            type_cache_misses: registry.counter("stream.symbolic.type_cache_misses"),
            queue_depth,
            registry,
        }
    }

    /// The registry holding every handle, keyed by `stream.*` names.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Registers a session becoming resident.
    pub fn session_in(&self) {
        self.sessions_active.inc();
    }

    /// Registers a session being evicted. The gauge saturates at zero
    /// rather than wrapping, so a restore-after-crash that replays an
    /// eviction can never poison the metric.
    pub fn session_out(&self) {
        self.sessions_active.dec();
        self.sessions_evicted.inc();
    }

    /// Overwrites the σ-type cache counters with the cache's current
    /// totals (absolute stores: the `SatCache` owns the running count).
    pub fn sync_type_cache(&self, stats: &rega_data::CacheStats) {
        self.type_cache_hits.set(stats.hits);
        self.type_cache_misses.set(stats.misses);
    }

    /// A JSON snapshot of all counters, histograms, and queue gauges.
    pub fn snapshot(&self) -> Json {
        let queues: Vec<Json> = self
            .queue_depth
            .iter()
            .enumerate()
            .map(|(i, g)| json!({"shard": i, "depth": g.get(), "peak": g.peak()}))
            .collect();
        json!({
            "events": {
                "submitted": self.events_submitted.get(),
                "processed": self.events_processed.get(),
                "ok": self.events_ok.get(),
                "after_eviction": self.events_after_eviction.get(),
            },
            "sessions": {
                "started": self.sessions_started.get(),
                "ended": self.sessions_ended.get(),
                "violated": self.sessions_violated.get(),
                "evicted": self.sessions_evicted.get(),
                "active": self.sessions_active.get(),
                "active_peak": self.sessions_active.peak(),
                "view_degraded": self.view_degraded.get(),
            },
            "faults": {
                "quarantined": self.events_quarantined.get(),
                "worker_panics": self.worker_panics.get(),
                "submit_errors": self.submit_errors.get(),
            },
            "latency": {
                "process": self.process_latency.snapshot(),
                "queue": self.queue_latency.snapshot(),
            },
            "queues": Json::Array(queues),
            "symbolic": {
                "type_cache_hits": self.type_cache_hits.get(),
                "type_cache_misses": self.type_cache_misses.get(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_obs::{ManualClock, ObsClock};
    use std::time::Duration;

    #[test]
    fn session_gauge_saturates_instead_of_wrapping() {
        let m = EngineMetrics::default();
        m.session_in();
        m.session_out();
        m.session_out(); // extra eviction (e.g. replayed after a restore)
        assert_eq!(m.sessions_active.get(), 0);
        assert_eq!(m.sessions_evicted.get(), 2);
        // The gauge still works afterwards.
        m.session_in();
        assert_eq!(m.sessions_active.get(), 1);
    }

    #[test]
    fn snapshot_is_json() {
        let m = EngineMetrics::with_shards(2);
        m.session_in();
        m.session_in();
        m.session_out();
        m.process_latency.record(Duration::from_micros(3));
        m.queue_depth[1].inc();
        let snap = m.snapshot();
        assert_eq!(snap["sessions"]["active"].as_u64(), Some(1));
        assert_eq!(snap["sessions"]["active_peak"].as_u64(), Some(2));
        assert_eq!(snap["latency"]["process"]["count"].as_u64(), Some(1));
        assert_eq!(
            snap["latency"]["process"]["saturated"].as_bool(),
            Some(false)
        );
        assert_eq!(snap["faults"]["quarantined"].as_u64(), Some(0));
        assert_eq!(snap["queues"][1]["depth"].as_u64(), Some(1));
        // round-trips through the serializer
        let text = serde_json::to_string(&snap).unwrap();
        assert!(serde_json::from_str(&text).is_ok());
    }

    /// The same counts are visible through the registry's uniform by-name
    /// snapshot (what `--metrics-interval-ms` and dashboards consume).
    #[test]
    fn registry_snapshot_mirrors_the_handles() {
        let m = EngineMetrics::with_shards(1);
        m.events_submitted.add(5);
        m.session_in();
        m.queue_depth[0].inc();
        let snap = m.registry().snapshot();
        assert_eq!(snap["stream.events.submitted"].as_u64(), Some(5));
        assert_eq!(snap["stream.sessions.active"]["value"].as_u64(), Some(1));
        assert_eq!(snap["stream.queue.depth.0"]["peak"].as_u64(), Some(1));
    }

    /// Golden-file schema test: a fixed sequence of counter updates and
    /// clock-derived latencies must serialize to exactly the pinned JSON.
    /// If this fails because the schema deliberately changed, update
    /// `testdata/metrics_snapshot.golden.json` alongside the consumers of
    /// the snapshot (CLI summary, dashboards).
    #[test]
    fn snapshot_schema_matches_golden_file() {
        let clock = ManualClock::new();
        let m = EngineMetrics::default();
        for (advance_ns, process_ns) in [(100u64, 700u64), (250, 1_300), (4_000, 90)] {
            let submitted = clock.now_ns();
            clock.advance(advance_ns);
            m.queue_latency.record_ns(clock.now_ns() - submitted);
            let started = clock.now_ns();
            clock.advance(process_ns);
            m.process_latency.record_ns(clock.now_ns() - started);
            m.events_submitted.inc();
            m.events_processed.inc();
            m.events_ok.inc();
        }
        m.session_in();
        m.session_in();
        m.session_out();
        m.sessions_started.add(2);
        m.sessions_ended.inc();
        m.events_quarantined.add(3);
        m.worker_panics.inc();
        m.sync_type_cache(&rega_data::CacheStats {
            hits: 42,
            misses: 7,
            distinct_types: 7,
        });
        let got = serde_json::to_string_pretty(&m.snapshot()).unwrap();
        let want = include_str!("testdata/metrics_snapshot.golden.json");
        assert_eq!(
            got.trim(),
            want.trim(),
            "metrics snapshot schema drifted from the golden file"
        );
    }
}
