//! The deterministic in-memory transport: every robustness claim in this
//! crate is tested through it, under seeded chaos, against a
//! single-process baseline.
//!
//! [`SimTransport`] holds N [`NodeAgent`]s in one process on a
//! [`SimClock`] (1 ms per submitted event), serves the worker protocol
//! through the same dispatch table worker processes run, and injects a
//! [`ClusterFaultPlan`] at the transport boundary: worker crashes right
//! after an apply, lost acks (a redelivery the sequence watermark must
//! drop), network partitions, and operator-triggered rebalances. The
//! supervisor on top is the shipping [`Supervisor`], so the heartbeat
//! deadlines, capped-backoff respawns, journal replays and epoch-fenced
//! migrations exercised here are production's. Everything derives from
//! `plan.seed`: two runs with the same plan produce bit-for-bit identical
//! reports.

use crate::assign::VSHARDS;
use crate::control::ControlConfig;
use crate::error::ClusterError;
use crate::node::NodeAgent;
use crate::proc::{dispatch, dispatch_batch, reply_result};
use crate::supervisor::{Supervisor, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_stream::{Clock, CompiledSpec, EngineConfig, FaultPlan, SessionOutcome, SimClock};
use serde_json::{json, Value as Json};
use std::sync::Arc;

/// Seeded chaos schedule for one [`SimCluster`] run. All probabilities
/// are per submitted event; everything is drawn from `seed`.
#[derive(Clone, Debug)]
pub struct ClusterFaultPlan {
    /// Seed for every fault draw and the per-node engine seeds.
    pub seed: u64,
    /// Probability that the node that just applied an event crashes
    /// immediately after (in-memory state lost; durable checkpoint and
    /// journal survive).
    pub crash_prob: f64,
    /// Probability that the ack for an applied event is "lost" and the
    /// event is redelivered — the dedup watermark must drop the copy.
    pub ack_loss_prob: f64,
    /// Probability that a random node becomes unreachable (no
    /// heartbeats, no deliveries) for [`partition_events`](Self::partition_events) submits.
    pub partition_prob: f64,
    /// Partition duration, in submitted events.
    pub partition_events: u64,
    /// Submit indices (1-based) at which a random contiguous vshard
    /// range is retargeted to a random node — a forced rebalance.
    pub rebalance_at: Vec<u64>,
    /// Write a durable checkpoint after a node applies this many fresh
    /// events (`0` = never; recovery then relies on full journal replay).
    pub checkpoint_every: u64,
}

impl ClusterFaultPlan {
    /// No chaos: just the cluster protocol under the given seed.
    pub fn none(seed: u64) -> ClusterFaultPlan {
        ClusterFaultPlan {
            seed,
            crash_prob: 0.0,
            ack_loss_prob: 0.0,
            partition_prob: 0.0,
            partition_events: 0,
            rebalance_at: Vec::new(),
            checkpoint_every: 0,
        }
    }
}

struct SimNode {
    /// The running agent; `None` once crashed or killed.
    agent: Option<NodeAgent>,
    /// Latest durable checkpoint (models shared durable storage the
    /// supervisor can read back after a crash).
    durable: Option<Json>,
    /// Unreachable until this submit index (0 = reachable).
    partitioned_until: u64,
}

/// In-memory workers under seeded chaos. See the module docs.
pub struct SimTransport {
    spec: Arc<CompiledSpec>,
    config: EngineConfig,
    plan: ClusterFaultPlan,
    rng: StdRng,
    clock: SimClock,
    nodes: Vec<SimNode>,
    submits: u64,
}

/// The in-process simulated cluster: the shipping supervisor over
/// [`SimTransport`].
pub type SimCluster = Supervisor<SimTransport>;

impl Supervisor<SimTransport> {
    /// A cluster of `nodes` workers over `spec`, with fault injection
    /// *inside* each engine forced off — the cluster plan is the only
    /// chaos source, so per-session verdicts stay comparable to a
    /// fault-free single-process baseline.
    pub fn new(
        spec: Arc<CompiledSpec>,
        mut config: EngineConfig,
        nodes: usize,
        control: ControlConfig,
        plan: ClusterFaultPlan,
    ) -> SimCluster {
        config.fault = FaultPlan::none();
        let nodes = nodes.max(1);
        let (seed, checkpoint_every) = (plan.seed, plan.checkpoint_every);
        let transport = SimTransport {
            spec,
            config,
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            clock: SimClock::new(),
            nodes: (0..nodes)
                .map(|_| SimNode {
                    agent: None,
                    durable: None,
                    partitioned_until: 0,
                })
                .collect(),
            submits: 0,
        };
        Supervisor::start(transport, nodes, control, seed, checkpoint_every)
            .expect("in-memory workers always spawn")
    }

    /// Test hook: crash node `n` right now, exactly as the crash fault
    /// would — in-memory state gone, checkpoint and journal intact.
    pub fn force_crash(&mut self, n: usize) {
        self.kill_worker(n);
    }
}

impl Transport for SimTransport {
    fn clock(&self) -> &dyn Clock {
        &self.clock
    }

    /// Advances simulated time by 1 ms and draws this submit's scheduled
    /// chaos: operator rebalances fire at their submit index, partitions
    /// by probability.
    fn tick(&mut self) -> Option<(Vec<usize>, usize)> {
        self.submits += 1;
        self.clock.advance(1_000_000);
        let mut rebalance = None;
        if self.plan.rebalance_at.contains(&self.submits) {
            let start = self.rng.gen_range(0..VSHARDS);
            let len = self.rng.gen_range(1..17usize);
            let to = self.rng.gen_range(0..self.nodes.len());
            rebalance = Some(((start..(start + len).min(VSHARDS)).collect(), to));
        }
        if self.plan.partition_prob > 0.0 && self.rng.gen_bool(self.plan.partition_prob) {
            let n = self.rng.gen_range(0..self.nodes.len());
            self.nodes[n].partitioned_until = self.submits + self.plan.partition_events;
        }
        rebalance
    }

    fn running(&self, n: usize) -> bool {
        self.nodes[n].agent.is_some()
    }

    fn reachable(&self, n: usize) -> bool {
        self.running(n) && self.submits >= self.nodes[n].partitioned_until
    }

    fn heal(&mut self) {
        for node in &mut self.nodes {
            node.partitioned_until = 0;
        }
    }

    fn spawn(&mut self, n: usize, seed: u64) -> Result<(), ClusterError> {
        let agent = NodeAgent::new(Arc::clone(&self.spec), self.config.clone(), seed, n);
        self.nodes[n].agent = Some(agent);
        self.nodes[n].partitioned_until = 0;
        Ok(())
    }

    fn kill(&mut self, n: usize) {
        self.nodes[n].agent = None;
    }

    /// The worker protocol, served in memory by the worker's own
    /// dispatch table.
    fn call(&mut self, n: usize, request: &Json) -> Result<Json, ClusterError> {
        if !self.running(n) {
            return Err(ClusterError::WorkerDown { node: n });
        }
        reply_result(dispatch(&mut self.nodes[n].agent, n, request).0)
    }

    /// The same frame bytes a worker process reads, decoded by the same
    /// codec.
    fn batch(&mut self, n: usize, frame: &[u8]) -> Result<Json, ClusterError> {
        if !self.running(n) {
            return Err(ClusterError::WorkerDown { node: n });
        }
        reply_result(dispatch_batch(&mut self.nodes[n].agent, frame))
    }

    /// Delivers, then draws post-apply chaos: a lost ack (redelivered
    /// here; the watermark must drop every copy), then maybe a crash of
    /// the very node that holds the freshly applied events.
    fn deliver(&mut self, n: usize, frame: &[u8]) -> Result<Json, ClusterError> {
        let mut reply = self.batch(n, frame)?;
        if self.plan.ack_loss_prob > 0.0 && self.rng.gen_bool(self.plan.ack_loss_prob) {
            reply = self.batch(n, frame)?;
            assert_eq!(
                reply["fresh"].as_u64(),
                Some(0),
                "redelivered events must be deduped, not re-applied"
            );
        }
        if self.plan.crash_prob > 0.0 && self.rng.gen_bool(self.plan.crash_prob) {
            self.kill(n);
        }
        Ok(reply)
    }

    fn checkpoint(&mut self, n: usize) -> bool {
        let Ok(reply) = self.call(n, &json!({"cmd": "checkpoint"})) else {
            return false;
        };
        self.nodes[n].durable = Some(reply["bundle"].clone());
        true
    }

    fn durable(&mut self, n: usize) -> Option<Json> {
        self.nodes[n].durable.clone()
    }

    fn finish(&mut self, n: usize) -> Result<Vec<SessionOutcome>, ClusterError> {
        let agent = self.nodes[n].agent.take();
        let agent = agent.ok_or(ClusterError::WorkerDown { node: n })?;
        Ok(agent.finish().outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::spec::parse_spec;
    use rega_data::{Database, Schema, Value};
    use rega_stream::event::Event;
    use rega_stream::Engine;

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

    /// A deterministic little workload: `sessions` interleaved sessions,
    /// `per` steps each, every third session left open (no End).
    fn workload(sessions: usize, per: usize) -> Vec<Event> {
        let mut events = Vec::new();
        for i in 0..per {
            for s in 0..sessions {
                events.push(Event::Step {
                    session: format!("session-{s}"),
                    state: "p".into(),
                    regs: vec![Value((i * sessions + s) as u64)],
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
        let mut engine = Engine::start_sim(spec(), EngineConfig::default(), 0);
        for e in events {
            engine.submit(e.clone()).unwrap();
        }
        engine.finish().outcomes
    }

    #[test]
    fn chaos_free_cluster_matches_single_process() {
        let events = workload(12, 6);
        let want = baseline(&events);
        for nodes in [1usize, 2, 4] {
            let mut cluster = SimCluster::new(
                spec(),
                EngineConfig::default(),
                nodes,
                ControlConfig::default(),
                ClusterFaultPlan::none(7),
            );
            for e in &events {
                cluster.submit(e.clone()).unwrap();
            }
            let report = cluster.finish().unwrap();
            assert_eq!(report.outcomes, want, "{nodes}-node cluster diverged");
        }
    }

    #[test]
    fn forced_migration_loses_nothing_and_exercises_the_window() {
        let events = workload(10, 8);
        let want = baseline(&events);
        let mut cluster = SimCluster::new(
            spec(),
            EngineConfig::default(),
            2,
            ControlConfig::default(),
            ClusterFaultPlan::none(3),
        );
        // Split exactly before a session-0 event (vshard 26, node 0's
        // half): the first post-retarget delivery then lands inside the
        // one-reconcile rebalancing window and must be shed, not lost.
        let half = 40;
        assert_eq!(events[half].session(), "session-0");
        for e in &events[..half] {
            cluster.submit(e.clone()).unwrap();
        }
        // Move every vshard to node 1 mid-stream.
        cluster.force_migration(&(0..VSHARDS).collect::<Vec<_>>(), 1);
        for e in &events[half..] {
            cluster.submit(e.clone()).unwrap();
        }
        let report = cluster.finish().unwrap();
        assert_eq!(report.outcomes, want);
        assert!(
            report.metrics.migrations.get() >= 1,
            "the retarget must migrate"
        );
        assert!(
            report.metrics.sheds_rebalancing.get() >= 1,
            "two-phase migration must expose a rebalancing window"
        );
        assert!(
            report.metrics.stale_epoch_rejections.get() >= 1,
            "the stale ingress cache must hit the epoch fence"
        );
        let total: u64 = report.outcomes.iter().map(|o| o.events).sum();
        assert_eq!(total, events.len() as u64, "zero event loss");
    }

    #[test]
    fn crashes_with_checkpoints_recover_identically() {
        let events = workload(8, 10);
        let want = baseline(&events);
        let plan = ClusterFaultPlan {
            crash_prob: 0.05,
            checkpoint_every: 7,
            ..ClusterFaultPlan::none(11)
        };
        let mut cluster = SimCluster::new(
            spec(),
            EngineConfig::default(),
            2,
            ControlConfig::default(),
            plan,
        );
        for e in &events {
            cluster.submit(e.clone()).unwrap();
        }
        let report = cluster.finish().unwrap();
        assert_eq!(report.outcomes, want);
        assert!(
            report.metrics.crashes.get() >= 1,
            "chaos must actually bite"
        );
        assert!(report.metrics.respawns.get() >= 1);
    }

    #[test]
    fn failed_worker_fails_over_without_loss() {
        let events = workload(9, 6);
        let want = baseline(&events);
        let control = ControlConfig {
            max_respawns: 0, // first deadline trip is terminal
            ..ControlConfig::default()
        };
        let mut cluster = SimCluster::new(
            spec(),
            EngineConfig::default(),
            2,
            control,
            ClusterFaultPlan::none(5),
        );
        let half = events.len() / 2;
        for e in &events[..half] {
            cluster.submit(e.clone()).unwrap();
        }
        // Node 0 dies for good: with a zero respawn budget the deadline
        // trip declares it Failed and its shards must fail over to node 1,
        // rebuilt from the journal.
        cluster.force_crash(0);
        for e in &events[half..] {
            cluster.submit(e.clone()).unwrap();
        }
        let report = cluster.finish().unwrap();
        assert_eq!(report.outcomes, want);
        assert_eq!(report.metrics.crashes.get(), 1);
        assert!(
            report.metrics.events_replayed.get() >= 1,
            "failover must rebuild node 0's state from the journal"
        );
    }

    #[test]
    fn runs_are_bit_for_bit_reproducible() {
        let events = workload(10, 6);
        let plan = ClusterFaultPlan {
            crash_prob: 0.03,
            ack_loss_prob: 0.05,
            partition_prob: 0.02,
            partition_events: 20,
            rebalance_at: vec![17, 40],
            checkpoint_every: 9,
            seed: 0xC1A0,
        };
        let run = |plan: ClusterFaultPlan| {
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
            (
                report.outcomes,
                report.metrics.events_routed.get(),
                report.metrics.crashes.get(),
                report.metrics.migrations.get(),
            )
        };
        assert_eq!(run(plan.clone()), run(plan));
    }
}
