//! Cluster-level metrics, scoped under `cluster.*` in a shared
//! [`rega_obs::Registry`].
//!
//! Every robustness mechanism in the crate increments something here, so
//! a chaos run's story is reconstructible from a metrics snapshot alone:
//! how many events were routed, how many retried or shed during
//! rebalancing, how many duplicates the at-most-once fence dropped, how
//! many crashes the supervisor saw and how many respawns it paid for.

use rega_obs::{Counter, Gauge, Histogram, Registry, ScopedRegistry};
use std::sync::Arc;

/// Counters, gauges, and latency histograms for one cluster.
#[derive(Clone)]
pub struct ClusterMetrics {
    /// Events accepted and applied somewhere (freshly, not as dupes).
    pub events_routed: Counter,
    /// Events re-applied from the journal during crash recovery.
    pub events_replayed: Counter,
    /// Redelivered events dropped by the sequence watermark.
    pub events_deduped: Counter,
    /// Delivery attempts beyond the first (any retry reason).
    pub retries: Counter,
    /// Deliveries answered `rebalancing` (the graceful-degradation shed).
    pub sheds_rebalancing: Counter,
    /// Deliveries rejected by the epoch fence.
    pub stale_epoch_rejections: Counter,
    /// Migrations completed (extract + install committed).
    pub migrations: Counter,
    /// Sessions moved across nodes by those migrations.
    pub sessions_migrated: Counter,
    /// Workers found stopped without the supervisor stopping them.
    pub crashes: Counter,
    /// Worker respawns performed.
    pub respawns: Counter,
    /// Heartbeat deadlines missed.
    pub heartbeats_missed: Counter,
    /// Durable checkpoints written.
    pub checkpoints: Counter,
    /// Workers currently up.
    pub nodes_up: Gauge,
    /// Current fencing epoch (actual side: the epoch requests are
    /// stamped with).
    pub epoch: Gauge,
    /// End-to-end ack latency per successfully delivered event.
    pub ack_latency: Histogram,
}

impl ClusterMetrics {
    /// Registers the full metric set under `cluster.*` in `registry`.
    pub fn new(registry: Arc<Registry>) -> ClusterMetrics {
        let scope = ScopedRegistry::new(registry, &["cluster"]);
        ClusterMetrics {
            events_routed: scope.counter("events.routed"),
            events_replayed: scope.counter("events.replayed"),
            events_deduped: scope.counter("events.deduped"),
            retries: scope.counter("retries"),
            sheds_rebalancing: scope.counter("sheds.rebalancing"),
            stale_epoch_rejections: scope.counter("stale_epoch.rejections"),
            migrations: scope.counter("migrations"),
            sessions_migrated: scope.counter("sessions.migrated"),
            crashes: scope.counter("crashes"),
            respawns: scope.counter("respawns"),
            heartbeats_missed: scope.counter("heartbeats.missed"),
            checkpoints: scope.counter("checkpoints"),
            nodes_up: scope.gauge("nodes.up"),
            epoch: scope.gauge("epoch"),
            ack_latency: scope.histogram("ack.latency"),
        }
    }

    /// A metric set backed by a private registry — for tests and
    /// harnesses that do not export.
    pub fn private() -> ClusterMetrics {
        ClusterMetrics::new(Arc::new(Registry::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_under_the_cluster_scope() {
        let registry = Arc::new(Registry::new());
        let m = ClusterMetrics::new(Arc::clone(&registry));
        m.events_routed.inc();
        m.nodes_up.set(3);
        let snap = registry.snapshot();
        assert_eq!(snap["cluster.events.routed"].as_u64(), Some(1));
        assert_eq!(snap["cluster.nodes.up"]["value"].as_u64(), Some(3));
    }
}
