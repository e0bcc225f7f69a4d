//! The deterministic simulation engine.
//!
//! [`SimScheduler`] runs the whole engine on the calling thread: shard
//! queues are plain `VecDeque`s, the sessions of every shard live in one
//! session table, the clock is a [`ManualClock`] that moves only when the
//! simulation spends time, and every nondeterministic choice the threaded
//! [`Engine`](crate::scheduler::Engine) leaves to the OS — which shard a
//! worker serves next, how long an event waits in its queue, how long
//! processing takes, which deliveries a fault hits — is drawn from one RNG
//! seeded by `seed ^ fault-plan seed`. The same `(spec, config, seed)`
//! therefore replays bit-for-bit: identical outcome sets, quarantine
//! counts, and metrics snapshots on every run, which CI asserts across
//! five runs.
//!
//! Per-session event order is still FIFO (each queue pops from the front),
//! so the simulation explores exactly the interleavings the sharded
//! threaded engine could produce — cross-shard orderings — and no others.
//!
//! [`SimScheduler::checkpoint`] first drains every queue (graceful
//! failover: in-flight events are flushed, not lost), then serializes all
//! live sessions and closed outcomes via the [`snapshot`](crate::snapshot)
//! codecs. [`SimScheduler::restore`] rebuilds an engine from such a
//! snapshot — sessions are keyed by name, not by shard, so the shard count
//! may change across the restart — and the `stream_faults` suite asserts
//! that a crashed-and-restored run reaches the same verdicts as an
//! uninterrupted one. [`SimScheduler::extract`] and
//! [`SimScheduler::absorb`] move a subset of sessions between running
//! engines (cluster migration). The four share one encoder and one
//! decoder: the simulation is the only engine that can serialize
//! mid-stream state.

use crate::engine::{
    check_submit_arity, make_report, process, shard_index, EngineConfig, EngineReport,
    SessionOutcome, SessionTable, SubmitError,
};
use crate::event::Event;
use crate::fault::FaultInjector;
use crate::metrics::EngineMetrics;
use crate::session::Session;
use crate::snapshot::{
    declared_version, err, outcome_from_json, outcome_to_json, SnapshotError, SNAPSHOT_VERSION,
};
use crate::spec::CompiledSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_obs::{ManualClock, ObsClock};
use serde_json::{json, Value as Json};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Queue-wait jitter drawn per delivery, in nanoseconds.
const QUEUE_JITTER_NS: std::ops::Range<u64> = 50..2_000;
/// Processing-time jitter drawn per delivery, in nanoseconds.
const PROCESS_JITTER_NS: std::ops::Range<u64> = 200..5_000;
/// Maximum number of deliveries drained opportunistically after a submit.
const MAX_BURST: u64 = 4;

/// An event sitting in a simulated shard queue.
struct QueuedEvent {
    event: Event,
    submitted_ns: u64,
    fault_immune: bool,
    /// The serving request the producer submitted under, re-installed for
    /// the delivery so its span carries the same `request` field the
    /// threaded workers attach.
    request: Option<Arc<str>>,
}

/// The single-threaded deterministic engine. See the module docs.
pub struct SimScheduler {
    spec: Arc<CompiledSpec>,
    metrics: Arc<EngineMetrics>,
    clock: ManualClock,
    rng: StdRng,
    worker_faults: FaultInjector,
    producer_faults: FaultInjector,
    queues: Vec<VecDeque<QueuedEvent>>,
    sessions: SessionTable,
    registers: usize,
    max_frontier: usize,
    quarantine_cap: u64,
    queue_capacity: usize,
    /// Set once the simulated respawn budget is exhausted: the "workers"
    /// are dead and every further submit fails fast.
    dead: bool,
}

impl SimScheduler {
    /// Starts the simulation: shard-queue interleavings, the clock, and
    /// every injected fault derive from `seed` (xor-ed into the fault
    /// plan's own seed), so the same seed and config replay bit-for-bit.
    pub fn start(spec: Arc<CompiledSpec>, config: EngineConfig, seed: u64) -> SimScheduler {
        let shards = config.shards.max(1);
        let mut plan = config.fault.clone();
        plan.seed ^= seed;
        SimScheduler {
            registers: spec.registers(),
            spec,
            metrics: Arc::new(EngineMetrics::with_shards(shards)),
            clock: ManualClock::new(),
            rng: StdRng::seed_from_u64(seed),
            worker_faults: FaultInjector::new(&plan, 0),
            producer_faults: FaultInjector::new(&plan, u64::MAX),
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            sessions: SessionTable::default(),
            max_frontier: config.max_view_frontier,
            quarantine_cap: config.quarantine_cap,
            queue_capacity: config.queue_capacity.max(1),
            dead: false,
        }
    }

    /// Rebuilds a simulation from a [`checkpoint`](SimScheduler::checkpoint):
    /// a fresh engine at the snapshot's clock that [`absorb`](SimScheduler::absorb)s
    /// it, counting every live session as started. Snapshots hold sessions
    /// by name, so `config` may shard differently than the checkpointing
    /// engine did. The RNG is reseeded (randomness is not part of the
    /// persisted state), so only *verdicts* — not latency jitter — are
    /// comparable across a restart.
    pub fn restore(
        spec: Arc<CompiledSpec>,
        config: EngineConfig,
        seed: u64,
        snapshot: &Json,
    ) -> Result<SimScheduler, SnapshotError> {
        let mut sim = Self::start(spec, config, seed);
        let (live, _) = sim.merge(snapshot)?;
        sim.metrics.sessions_started.add(live as u64);
        let clock_ns = snapshot["clock_ns"]
            .as_u64()
            .ok_or_else(|| err("clock_ns must be a number"))?;
        sim.clock = ManualClock::at(clock_ns);
        Ok(sim)
    }

    /// Drains in-flight events (graceful failover: they are flushed, not
    /// lost), then serializes every live session and closed outcome. The
    /// engine stays usable afterwards.
    pub fn checkpoint(&mut self) -> Json {
        self.drain();
        self.encode(&self.sessions.live, self.sessions.closed.values())
    }

    /// Migration donor half: drains, then removes every session — live or
    /// closed — whose name `select`s and returns them as a restorable
    /// snapshot, leaving the engine live for the sessions that stay.
    /// Extraction is not eviction — the active-sessions gauge drops for
    /// each live session handed over, but `sessions_evicted` and the
    /// outcome counters stay untouched (the recipient finishes the story).
    pub fn extract(&mut self, select: &dyn Fn(&str) -> bool) -> Json {
        self.drain();
        let live: Vec<(String, Session)> = self
            .sessions
            .live
            .extract_if(|name, _| select(name))
            .collect();
        let closed: Vec<SessionOutcome> = self
            .sessions
            .closed
            .extract_if(|name, _| select(name))
            .map(|(_, o)| o)
            .collect();
        for _ in &live {
            self.metrics.sessions_active.dec();
        }
        self.encode(live.iter().map(|(name, session)| (name, session)), &closed)
    }

    /// Migration recipient half: merges an [`extract`](SimScheduler::extract)ed
    /// (or whole-[`checkpoint`](SimScheduler::checkpoint)) snapshot into this
    /// running engine. Returns how many sessions (live plus closed) were
    /// absorbed. A session that already exists here rejects the merge — a
    /// double migration is a protocol error, not a last-writer-wins
    /// overwrite — and a rejected merge leaves the engine exactly as it
    /// was.
    pub fn absorb(&mut self, snapshot: &Json) -> Result<usize, SnapshotError> {
        self.merge(snapshot).map(|(live, closed)| live + closed)
    }

    /// Submits one event: rejects arity-invalid step events, enqueues it
    /// (delivering from its shard while that queue is full), then delivers
    /// an RNG-sized burst so queue occupancy — and with it the explored
    /// cross-shard orderings — varies by seed. Once the simulated respawn
    /// budget is exhausted every submit fails with
    /// [`SubmitError::WorkersDead`].
    pub fn submit(&mut self, event: Event) -> Result<(), SubmitError> {
        if self.dead {
            self.metrics.submit_errors.inc();
            return Err(SubmitError::WorkersDead);
        }
        check_submit_arity(&event, self.registers, &self.metrics)?;
        let injected = self.producer_faults.injected_copies(&event);
        self.enqueue(event);
        for copy in injected {
            self.enqueue(copy);
        }
        let burst = self.rng.gen_range(0..MAX_BURST);
        for _ in 0..burst {
            if self.dead || !self.poll_one() {
                break;
            }
        }
        if self.dead {
            self.metrics.submit_errors.inc();
            return Err(SubmitError::WorkersDead);
        }
        Ok(())
    }

    /// The live metrics handle.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Drains every queue and returns the combined report.
    pub fn finish(mut self) -> EngineReport {
        self.drain();
        make_report(self.sessions.report(&self.metrics), self.metrics)
    }

    /// The one snapshot encoder: `live` and `closed` sorted by session
    /// name, stamped with the format version and the simulated clock.
    fn encode<'a>(
        &self,
        live: impl IntoIterator<Item = (&'a String, &'a Session)>,
        closed: impl IntoIterator<Item = &'a SessionOutcome>,
    ) -> Json {
        let mut live: Vec<_> = live.into_iter().collect();
        live.sort_by(|a, b| a.0.cmp(b.0));
        let mut closed: Vec<_> = closed.into_iter().collect();
        closed.sort_by(|a, b| a.session.cmp(&b.session));
        json!({
            "format_version": SNAPSHOT_VERSION,
            "clock_ns": self.clock.now_ns(),
            "live": live
                .into_iter()
                .map(|(name, session)| json!({
                    "session": name.as_str(),
                    "state": session.snapshot(),
                }))
                .collect::<Vec<Json>>(),
            "closed": closed.into_iter().map(outcome_to_json).collect::<Vec<Json>>(),
        })
    }

    /// The one snapshot decoder: checks the version and decodes the whole
    /// snapshot before it merges anything, so a session named twice in the
    /// snapshot (live twice, closed twice, or both live and closed), or
    /// one this engine already holds, rejects the merge with no state
    /// changed. Returns how many live and closed sessions were merged.
    fn merge(&mut self, snapshot: &Json) -> Result<(usize, usize), SnapshotError> {
        let found = declared_version(snapshot);
        // Version 1 differs only in the name of the version field; the
        // payload decodes unchanged. Anything else (including unversioned
        // v0 blobs) is rejected with the typed mismatch, not a decode
        // error further in.
        if found != SNAPSHOT_VERSION && found != 1 {
            return Err(SnapshotError::VersionMismatch {
                found,
                expected: SNAPSHOT_VERSION,
            });
        }
        let entries = |field: &str| {
            snapshot[field]
                .as_array()
                .ok_or_else(|| err(&format!("{field} must be an array")))
        };
        let mut live: Vec<(String, Session)> = Vec::new();
        for entry in entries("live")? {
            let name = entry["session"]
                .as_str()
                .ok_or_else(|| err("live session must be named"))?;
            live.push((
                name.to_string(),
                Session::restore(&self.spec, &entry["state"])?,
            ));
        }
        let closed: Vec<SessionOutcome> = entries("closed")?
            .iter()
            .map(outcome_from_json)
            .collect::<Result<_, _>>()?;
        let mut incoming = BTreeSet::new();
        for name in live
            .iter()
            .map(|(name, _)| name)
            .chain(closed.iter().map(|o| &o.session))
        {
            if !incoming.insert(name) {
                return Err(err("snapshot names a session twice"));
            }
            if self.sessions.live.contains_key(name) || self.sessions.closed.contains_key(name) {
                return Err(err("absorb would duplicate a session"));
            }
        }
        let merged = (live.len(), closed.len());
        for (name, session) in live {
            self.metrics.session_in();
            self.sessions.live.insert(name, session);
        }
        let closed = closed.into_iter().map(|o| (o.session.clone(), o));
        self.sessions.closed.extend(closed);
        Ok(merged)
    }

    /// Delivers the front event of `shard_idx`, spending simulated time
    /// and drawing faults exactly where the threaded worker would.
    fn deliver_front(&mut self, shard_idx: usize) {
        let Some(q) = self.queues[shard_idx].pop_front() else {
            return;
        };
        if let Some(depth) = self.metrics.queue_depth.get(shard_idx) {
            depth.dec();
        }
        // Mirror the threaded worker's batch span (batch size is always 1
        // here). Tracing never touches the metrics or the RNG, so the
        // determinism suites are unaffected.
        let _req = rega_obs::RequestGuard::enter_opt(q.request.clone());
        let _batch = rega_obs::span!("stream.shard_batch", shard = shard_idx as u64);
        self.clock.advance(self.rng.gen_range(QUEUE_JITTER_NS));
        self.metrics
            .queue_latency
            .record_ns(self.clock.now_ns().saturating_sub(q.submitted_ns));
        if self.worker_faults.is_active() && !q.fault_immune {
            if let Some(ns) = self.worker_faults.stall_ns() {
                self.clock.stall(ns);
            }
            if self.worker_faults.should_panic() {
                // The simulated worker "panics" before touching session
                // state, respawns, and retries the event as immune — the
                // same recovery the threaded scheduler performs, minus the
                // actual unwinding.
                self.metrics.worker_panics.inc();
                if !self.worker_faults.respawn() {
                    self.dead = true;
                    return; // the event dies with the worker pool
                }
            }
        }
        let started = self.clock.now_ns();
        process(
            &self.spec,
            &self.metrics,
            &mut self.sessions,
            q.event,
            self.max_frontier,
            self.quarantine_cap,
        );
        self.clock.advance(self.rng.gen_range(PROCESS_JITTER_NS));
        self.metrics
            .process_latency
            .record_ns(self.clock.now_ns().saturating_sub(started));
        self.metrics.events_processed.inc();
    }

    /// Delivers one event from an RNG-chosen non-empty shard. Returns
    /// whether anything was delivered.
    fn poll_one(&mut self) -> bool {
        let nonempty: Vec<usize> = (0..self.queues.len())
            .filter(|&i| !self.queues[i].is_empty())
            .collect();
        if nonempty.is_empty() {
            return false;
        }
        let pick = nonempty[self.rng.gen_range(0..nonempty.len())];
        self.deliver_front(pick);
        true
    }

    /// Drains every queue.
    fn drain(&mut self) {
        while !self.dead && self.poll_one() {}
    }

    fn enqueue(&mut self, event: Event) {
        let shard = shard_index(event.session(), self.queues.len());
        // Bounded queues: a full shard back-pressures the producer, which
        // in the simulation means delivering from that shard until there
        // is room (the threaded engine blocks the producer the same way).
        while !self.dead && self.queues[shard].len() >= self.queue_capacity {
            self.deliver_front(shard);
        }
        self.metrics.events_submitted.inc();
        if let Some(depth) = self.metrics.queue_depth.get(shard) {
            depth.inc();
        }
        self.queues[shard].push_back(QueuedEvent {
            event,
            submitted_ns: self.clock.now_ns(),
            fault_immune: false,
            request: rega_obs::active_request(),
        });
    }
}
