//! The cluster supervisor, written once and generic over how it reaches
//! its workers.
//!
//! [`Supervisor`] plays ingress *and* supervisor for N workers. It owns
//! every mechanism the crate's robustness contract rests on, each exactly
//! once:
//!
//! * the **ingress journal** — every accepted event, per vshard, where
//!   `journal[v][i]` carries per-vshard sequence number `i + 1`;
//! * the **delivery retry loop** — route by the cached assignment, wait
//!   out `rebalancing` sheds, refresh the cache on `stale-epoch` /
//!   `not-owner`, and wait for unreachable owners under supervision;
//! * **rebuild** — a respawned worker gets its last durable checkpoint,
//!   filtered to what it owns now, then a journal replay starting at each
//!   vshard's restored watermark;
//! * **reconcile** — [`ControlPlane`] heartbeat deadlines and
//!   capped-backoff respawns, failover off permanently failed workers,
//!   and two-phase epoch-fenced migration;
//! * **shutdown** — converge pending migrations, bring back any worker
//!   still owing shards, merge the outcome reports.
//!
//! How a worker is reached is a [`Transport`]; either way the requests
//! and replies are the worker protocol of [`crate::proc`].
//! [`SimTransport`](crate::sim::SimTransport) serves them in memory
//! through the workers' own dispatch table, on a simulated clock, and
//! injects a seeded [`ClusterFaultPlan`](crate::sim::ClusterFaultPlan) at
//! the transport boundary. [`ProcTransport`](crate::proc::ProcTransport)
//! frames them to real worker processes on the wall clock. The chaos
//! suite and production run the same supervisor and the same protocol.
//!
//! # Why verdicts survive chaos
//!
//! Nodes apply events in per-vshard sequence order and drop anything at
//! or below their applied watermark. A crashed node is rebuilt from its
//! checkpoint plus a replay of everything newer; a migrated vshard
//! carries its watermark inside the extract bundle. The monitor is
//! deterministic per session and a session maps to exactly one vshard,
//! so every session's event sequence is applied exactly once and in order
//! *somewhere*: the merged per-session outcomes are byte-identical to a
//! single-process run, however crashes and migrations interleave.
//!
//! # Deliberate staleness
//!
//! The ingress routing cache is refreshed **only** on a typed rejection
//! ([`ClusterError::StaleEpoch`], [`ClusterError::NotOwner`]) or after
//! waiting for an unreachable owner, never proactively. Every migration
//! therefore exercises the fencing path for real: the first
//! post-migration delivery is stamped with the old epoch and must be
//! rejected, not absorbed.

use crate::assign::{vshard, Assignment, Migration, VSHARDS};
use crate::batch::{encode_batch, FRAME_EVENTS};
use crate::control::{ControlConfig, ControlPlane, WorkerState};
use crate::error::ClusterError;
use crate::metrics::ClusterMetrics;
use crate::node::{filter_bundle, seqs_from_json};
use rega_obs::ObsClock;
use rega_stream::event::Event;
use rega_stream::SessionOutcome;
use serde_json::{json, Value as Json};
use std::collections::{BTreeMap, BTreeSet};

const MS: u64 = 1_000_000;

/// How long the supervisor waits before looking again at an owner it
/// cannot reach or a migration that cannot progress yet.
const POLL_MS: u64 = 5;

/// How the supervisor reaches worker `n`. Requests and replies are the
/// worker protocol of [`crate::proc`], whichever side of a process
/// boundary the worker is on.
///
/// `Err(ClusterError::WorkerDown)` from any operation means the worker
/// did not answer: the transport has forgotten it ([`running`] turns
/// false) and the supervisor recovers it under supervision. Every other
/// error is the worker's own typed answer.
///
/// [`running`]: Transport::running
pub trait Transport {
    /// The time source of deadlines, backoff, waits and ack latency.
    fn clock(&self) -> &dyn ObsClock;

    /// Called once per submitted event, before reconcile; returns an
    /// operator rebalance (`vshards`, target node) when one is due now.
    fn tick(&mut self) -> Option<(Vec<usize>, usize)> {
        None
    }

    /// Whether worker `n` is running (not crashed or killed).
    fn running(&self, n: usize) -> bool;

    /// Whether worker `n` can be talked to right now.
    fn reachable(&self, n: usize) -> bool {
        self.running(n)
    }

    /// Ends every network partition (shutdown drains a whole cluster).
    fn heal(&mut self) {}

    /// Starts worker `n` afresh with an empty engine seeded with `seed`,
    /// replacing whatever ran as `n`. It owns nothing until assigned.
    fn spawn(&mut self, n: usize, seed: u64) -> Result<(), ClusterError>;

    /// Stops worker `n` without warning; it is no longer running.
    fn kill(&mut self, n: usize);

    /// One JSON control request to worker `n`; `Ok` carries an
    /// `ok: true` reply.
    fn call(&mut self, n: usize, request: &Json) -> Result<Json, ClusterError>;

    /// One binary `event-batch` frame ([`crate::batch`]) to worker `n`;
    /// `Ok` carries the `ok: true` reply counting `fresh` and `duplicate`
    /// records.
    fn batch(&mut self, n: usize, frame: &[u8]) -> Result<Json, ClusterError>;

    /// An ingress batch: [`Transport::batch`] plus any faults the
    /// transport injects. Journal replays use plain `batch`.
    fn deliver(&mut self, n: usize, frame: &[u8]) -> Result<Json, ClusterError> {
        self.batch(n, frame)
    }

    /// Writes a durable checkpoint of worker `n`; `false` when none was
    /// written (no durable storage configured, or the worker is gone).
    fn checkpoint(&mut self, n: usize) -> bool;

    /// Worker `n`'s last durable checkpoint from this run, if intact.
    fn durable(&mut self, n: usize) -> Option<Json>;

    /// Drains worker `n` and returns every session it owns.
    fn finish(&mut self, n: usize) -> Result<Vec<SessionOutcome>, ClusterError>;
}

/// What the cluster knows after a clean shutdown: the merged per-session
/// outcomes (sorted by session id, the order of a single-process
/// [`rega_stream::EngineReport`]) plus the cluster metrics.
pub struct ClusterReport {
    /// Every session ever seen, each exactly once, sorted by session id.
    pub outcomes: Vec<SessionOutcome>,
    /// The cluster metric set (final values).
    pub metrics: ClusterMetrics,
}

/// The cluster supervisor over transport `T`. See the module docs.
pub struct Supervisor<T: Transport> {
    transport: T,
    control: ControlPlane,
    /// Per-vshard event journal; `journal[v][i]` carries sequence `i+1`.
    journal: Vec<Vec<Event>>,
    /// Ingress routing cache, refreshed only on typed rejection.
    cached: Assignment,
    /// Extracted-but-not-installed migration bundles.
    in_flight: Vec<(Migration, Json)>,
    /// The epoch each worker was last brought to.
    held: Vec<u64>,
    /// Whether each worker was running when last seen: one that stops
    /// running without the supervisor stopping it has crashed.
    live: Vec<bool>,
    applied_since_ckpt: Vec<u64>,
    /// Rebuilds so far: a rebuild replays the journal, so it may have
    /// applied events an ingest call still has in flight.
    rebuilds: u64,
    /// The batch frame being sent, reused across deliveries.
    frame: Vec<u8>,
    checkpoint_every: u64,
    seed: u64,
    budget_ms: u64,
    metrics: ClusterMetrics,
}

/// One journaled event on its way to a worker: `(vshard, seq, event)`.
type Item<'a> = (usize, u64, &'a Event);

fn vshards_json(vshards: &[usize]) -> Json {
    Json::Array(vshards.iter().map(|&v| json!(v as u64)).collect())
}

/// Moves `field` out of a reply without copying it.
fn take(reply: Json, field: &str) -> Json {
    match reply {
        Json::Object(mut fields) => fields.remove(field).unwrap_or(Json::Null),
        _ => Json::Null,
    }
}

fn count(reply: &Json, field: &str) -> u64 {
    reply[field].as_u64().unwrap_or(0)
}

/// Maps "the worker did not answer" to `None`: supervision recovers it.
fn answered<R>(result: Result<R, ClusterError>) -> Result<Option<R>, ClusterError> {
    match result {
        Ok(r) => Ok(Some(r)),
        Err(ClusterError::WorkerDown { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

impl<T: Transport> Supervisor<T> {
    /// Starts `nodes` workers on `transport` with a balanced assignment.
    /// `seed` derives each worker's engine seed (stable across respawns,
    /// so recovery rebuilds the engine a crash interrupted); every
    /// `checkpoint_every` applied events (`0` = never) a worker writes a
    /// durable checkpoint.
    pub fn start(
        transport: T,
        nodes: usize,
        config: ControlConfig,
        seed: u64,
        checkpoint_every: u64,
    ) -> Result<Supervisor<T>, ClusterError> {
        let nodes = nodes.max(1);
        let budget_ms = config.delivery_budget_ms();
        let control = ControlPlane::new(nodes, config, transport.clock().now_ns() / MS);
        let mut sup = Supervisor {
            transport,
            cached: control.actual.clone(),
            control,
            journal: vec![Vec::new(); VSHARDS],
            in_flight: Vec::new(),
            held: vec![0; nodes],
            live: vec![false; nodes],
            applied_since_ckpt: vec![0; nodes],
            rebuilds: 0,
            frame: Vec::new(),
            checkpoint_every,
            seed,
            budget_ms,
            metrics: ClusterMetrics::private(),
        };
        for n in 0..nodes {
            sup.rebuild(n)?;
        }
        sup.metrics.nodes_up.set(nodes as u64);
        sup.metrics.epoch.set(sup.control.actual.epoch);
        Ok(sup)
    }

    /// The cluster metric set (live).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The current fencing epoch (actual assignment).
    pub fn epoch(&self) -> u64 {
        self.control.actual.epoch
    }

    /// The vshards currently owned by worker `n` (actual assignment).
    pub fn owned_by(&self, n: usize) -> Vec<usize> {
        self.control.actual.owned_by(n)
    }

    /// Operator intent: move `vshards` to worker `to` at the next
    /// reconcile, through the full two-phase path (rebalancing window
    /// included). Returns at once.
    pub fn force_migration(&mut self, vshards: &[usize], to: usize) {
        self.control.retarget(vshards, to);
    }

    /// Moves `vshards` to worker `to` and returns once the migration has
    /// converged: extract from each donor, commit the epoch bump, install
    /// on the target, resync every other worker.
    pub fn migrate(&mut self, vshards: &[usize], to: usize) -> Result<(), ClusterError> {
        self.force_migration(vshards, to);
        self.converge()
    }

    /// Kills worker `n` without warning, exactly as a crash would: its
    /// in-memory state is gone; checkpoint and journal survive. Supervision
    /// notices at the next reconcile and respawns it under backoff.
    pub fn kill_worker(&mut self, n: usize) {
        self.transport.kill(n);
    }

    /// Heartbeat sweep: pings every worker (one that does not answer is
    /// forgotten), then reconciles.
    pub fn supervise(&mut self) -> Result<(), ClusterError> {
        for n in 0..self.live.len() {
            self.transport.call(n, &json!({"cmd": "ping"})).ok();
        }
        self.reconcile().map(drop)
    }

    /// Submits one event: journal it, route it, retry through typed
    /// rejections until it is applied exactly once.
    pub fn submit(&mut self, event: Event) -> Result<(), ClusterError> {
        self.submit_batch(std::slice::from_ref(&event))
    }

    /// Submits a batch through the same path: consecutive events with the
    /// same owner travel as one batch frame of at most [`FRAME_EVENTS`].
    /// On error, the events from the failing one on were never applied
    /// and are not journaled.
    pub fn submit_batch(&mut self, events: &[Event]) -> Result<(), ClusterError> {
        let started_ns = self.now_ns();
        for _ in events {
            if let Some((vshards, to)) = self.transport.tick() {
                self.control.retarget(&vshards, to);
            }
        }
        self.reconcile()?;
        let rebuilds = self.rebuilds;
        let items: Vec<Item<'_>> = events
            .iter()
            .map(|event| {
                let v = vshard(event.session());
                self.journal[v].push(event.clone());
                (v, self.journal[v].len() as u64, event)
            })
            .collect();
        let (acked, e) = match self.route(&items, started_ns) {
            Ok(()) => return Ok(()),
            Err(failure) => failure,
        };
        // Never applied anywhere: drop from the journal so replays and the
        // single-process baseline see the same accepted stream.
        let dropped: BTreeSet<usize> = items[acked..].iter().map(|&(v, _, _)| v).collect();
        for &(v, _, _) in items[acked..].iter().rev() {
            self.journal[v].pop();
        }
        // A rebuild during this call replayed the journal with those
        // events in it: stop the workers that may hold them, so that
        // supervision rebuilds them from the journal as it now stands.
        if self.rebuilds != rebuilds {
            for v in dropped {
                for n in [self.control.actual.owner_of(v), self.cached.owner_of(v)] {
                    self.transport.kill(n);
                    self.live[n] = false;
                }
            }
        }
        Err(e)
    }

    /// The delivery retry loop. On a terminal error, also returns how many
    /// leading items were acked.
    fn route(&mut self, items: &[Item<'_>], started_ns: u64) -> Result<(), (usize, ClusterError)> {
        let mut done = 0;
        let mut attempts = 0u64;
        let mut waiting_since = self.now_ns();
        // A multi-event delivery that fails terminally is retried one
        // event at a time, to pin exactly the event that caused it.
        let mut one_at_a_time = false;
        while done < items.len() {
            attempts += 1;
            let v = items[done].0;
            if attempts > 1 {
                self.metrics.retries.inc();
                if self.now_ns() - waiting_since > self.budget_ms * MS {
                    return Err((
                        done,
                        ClusterError::Unavailable {
                            vshard: v,
                            attempts,
                        },
                    ));
                }
            }
            let owner = self.cached.owner_of(v);
            if !self.transport.reachable(owner) {
                // Crashed, partitioned, or failed for good with failover
                // pending: a real ingress would time out, then re-resolve
                // against the control plane.
                let nodes = self.control.nodes();
                if (0..nodes).all(|n| self.control.worker(n).state == WorkerState::Failed) {
                    return Err((done, ClusterError::WorkerDown { node: owner }));
                }
                self.wait(POLL_MS).map_err(|e| (done, e))?;
                if self.control.actual.epoch != self.cached.epoch {
                    self.cached = self.control.actual.clone();
                }
                continue;
            }
            let same_owner = |item: &&Item<'_>| self.cached.owner_of(item.0) == owner;
            let run = if one_at_a_time {
                1
            } else {
                let owned_run = items[done..].iter().take_while(same_owner);
                owned_run.take(FRAME_EVENTS).count()
            };
            encode_batch(self.cached.epoch, &items[done..done + run], &mut self.frame);
            let retry = match self.transport.deliver(owner, &self.frame) {
                Ok(reply) => {
                    self.acked(owner, run as u64, count(&reply, "duplicate"), started_ns);
                    done += run;
                    attempts = 0;
                    waiting_since = self.now_ns();
                    Ok(())
                }
                Err(ClusterError::Rebalancing { retry_after_ms, .. }) => {
                    self.metrics.sheds_rebalancing.inc();
                    self.wait(retry_after_ms.max(1))
                }
                Err(ClusterError::StaleEpoch { .. }) => {
                    self.metrics.stale_epoch_rejections.inc();
                    self.refresh()
                }
                Err(ClusterError::NotOwner { .. }) => self.refresh(),
                // The transport forgot the worker; the next pass waits for
                // supervision to bring it back.
                Err(ClusterError::WorkerDown { .. }) => Ok(()),
                Err(_) if run > 1 => {
                    one_at_a_time = true;
                    Ok(())
                }
                Err(e) => Err(e),
            };
            retry.map_err(|e| (done, e))?;
        }
        Ok(())
    }

    /// Post-ack bookkeeping for `n` events applied on `owner`, of which
    /// `duplicate` were redeliveries the watermark dropped.
    fn acked(&mut self, owner: usize, n: u64, duplicate: u64, started_ns: u64) {
        self.metrics.events_routed.add(n);
        self.metrics.events_deduped.add(duplicate);
        // Ack latency covers the whole delivery, waits and retries
        // included: what an ingress client experiences.
        let latency = self.now_ns() - started_ns;
        for _ in 0..n {
            self.metrics.ack_latency.record_ns(latency);
        }
        self.applied_since_ckpt[owner] += n;
        if self.checkpoint_every > 0 && self.applied_since_ckpt[owner] >= self.checkpoint_every {
            self.applied_since_ckpt[owner] = 0;
            if self.transport.checkpoint(owner) {
                self.metrics.checkpoints.inc();
            }
        }
    }

    /// A typed rejection says the routing cache is stale. When it is
    /// already current, the worker is the one behind: give reconcile a
    /// pass to resync it.
    fn refresh(&mut self) -> Result<(), ClusterError> {
        if self.cached.epoch == self.control.actual.epoch {
            return self.wait(POLL_MS);
        }
        self.cached = self.control.actual.clone();
        Ok(())
    }

    /// Spends `ms` on the transport's clock, then reconciles.
    fn wait(&mut self, ms: u64) -> Result<(), ClusterError> {
        self.transport.clock().stall(ms * MS);
        self.reconcile().map(drop)
    }

    fn now_ns(&self) -> u64 {
        self.transport.clock().now_ns()
    }

    /// Rebuilds worker `n` to exactly what the actual assignment says it
    /// owns: a fresh worker, its durable checkpoint filtered to those
    /// vshards (it may predate migrations), then an in-order journal
    /// replay past each restored watermark. A missing or corrupt
    /// checkpoint degrades to a full replay: the journal is the truth.
    fn rebuild(&mut self, n: usize) -> Result<(), ClusterError> {
        let epoch = self.control.actual.epoch;
        let owned = self.control.actual.owned_by(n);
        // Per-node seed, stable across respawns.
        let seed = self.seed ^ rega_stream::fnv1a(&(n as u64).to_le_bytes());
        self.live[n] = false;
        self.rebuilds += 1;
        self.transport.spawn(n, seed)?;
        self.live[n] = true;
        self.applied_since_ckpt[n] = 0;
        let assign = json!({"cmd": "assign", "epoch": epoch, "owned": vshards_json(&owned)});
        self.transport.call(n, &assign)?;
        self.held[n] = epoch;
        let mut watermarks = BTreeMap::new();
        if let Some(bundle) = self.transport.durable(n) {
            // A vshard checkpointed past the journal's end holds events a
            // failed submit took back: it is replayed from scratch instead.
            let seqs = seqs_from_json(&bundle["seqs"]).unwrap_or_default();
            let journal = &self.journal;
            let fits = |v: &usize| seqs.get(v).is_none_or(|&s| s as usize <= journal[*v].len());
            let keep = owned.iter().copied().filter(fits).collect();
            let bundle = filter_bundle(&bundle, &keep);
            watermarks = seqs_from_json(&bundle["seqs"]).unwrap_or_default();
            let install = json!({"cmd": "install", "epoch": epoch, "bundle": bundle});
            self.transport.call(n, &install)?;
        }
        for &v in &owned {
            let from = watermarks.get(&v).copied().unwrap_or(0) as usize;
            let suffix = self.journal[v].get(from..).unwrap_or(&[]);
            for (c, chunk) in suffix.chunks(FRAME_EVENTS).enumerate() {
                let first = (from + c * FRAME_EVENTS) as u64 + 1;
                let items: Vec<Item<'_>> =
                    (first..).zip(chunk).map(|(seq, e)| (v, seq, e)).collect();
                encode_batch(epoch, &items, &mut self.frame);
                let reply = self.transport.batch(n, &self.frame)?;
                self.metrics.events_replayed.add(count(&reply, "fresh"));
                self.metrics.events_deduped.add(count(&reply, "duplicate"));
            }
        }
        // Any bundle still in flight toward this node is now redundant:
        // the replay above already reconstructed that state.
        self.in_flight.retain(|(m, _)| m.to != n);
        Ok(())
    }

    /// One supervision + reconciliation pass: notice crashes, collect
    /// heartbeats, sweep deadlines, perform due respawns, fail over shards
    /// stranded on permanently failed workers, run phase 2 (install) of
    /// in-flight migrations, start phase 1 (extract) of newly planned
    /// ones, and resync lagging epochs. Phase 2 runs *before* new phase
    /// 1s and only for bundles extracted on an earlier pass, so every
    /// migration leaves a real window in which the target answers
    /// [`ClusterError::Rebalancing`]. Returns whether anything moved.
    fn reconcile(&mut self) -> Result<bool, ClusterError> {
        let now = self.now_ns() / MS;
        let nodes = self.control.nodes();
        let mut progressed = false;
        for n in 0..nodes {
            if self.live[n] && !self.transport.running(n) {
                self.live[n] = false;
                self.metrics.crashes.inc();
            }
            if self.transport.reachable(n) {
                self.control.note_heartbeat(n, now);
            }
        }
        // Newly Failed workers are stopped for good: their state is fenced
        // off and recovered elsewhere from checkpoint + journal.
        for n in self.control.check_deadlines(now) {
            self.metrics.heartbeats_missed.inc();
            if self.control.worker(n).state == WorkerState::Failed {
                self.transport.kill(n);
                self.live[n] = false;
            }
        }
        // A worker that dies mid-rebuild is left to supervision.
        for n in self.control.due_respawns(now) {
            if answered(self.rebuild(n))?.is_some() {
                self.metrics.respawns.inc();
            }
            self.control.note_respawned(n, now);
            progressed = true;
        }
        // Failover: shards assigned to a permanently failed worker are
        // retargeted to the lowest-index live worker.
        let failed = |c: &ControlPlane, n: usize| c.worker(n).state == WorkerState::Failed;
        if let Some(survivor) = (0..nodes).find(|&n| !failed(&self.control, n)) {
            for n in (0..nodes)
                .filter(|&n| failed(&self.control, n))
                .collect::<Vec<_>>()
            {
                let stranded = self.control.desired.owned_by(n);
                if !stranded.is_empty() {
                    self.control.retarget(&stranded, survivor);
                }
            }
        }
        let control = &self.control;
        self.in_flight.retain(|(m, _)| !failed(control, m.to));
        // Phase 2: install bundles extracted on an earlier pass. A target
        // that died keeps its bundle until its rebuild makes it redundant.
        let epoch = self.control.actual.epoch;
        for (m, bundle) in std::mem::take(&mut self.in_flight) {
            let install = json!({"cmd": "install", "epoch": epoch, "bundle": bundle});
            let reply = if self.transport.reachable(m.to) {
                answered(self.transport.call(m.to, &install))?
            } else {
                None
            };
            let Some(reply) = reply else {
                self.in_flight.push((m, take(install, "bundle")));
                continue;
            };
            self.held[m.to] = epoch;
            self.metrics.migrations.inc();
            self.metrics
                .sessions_migrated
                .add(count(&reply, "sessions"));
            progressed = true;
        }
        // Phase 1: extract for newly planned migrations, both ends
        // reachable. The commit bumps the fencing epoch immediately; the
        // install lands on a later pass.
        for m in self.control.plan_migrations() {
            if failed(&self.control, m.from) {
                // The donor is permanently gone: commit the ownership
                // change and rebuild the target from checkpoint + journal.
                if self.transport.reachable(m.to) {
                    self.control.commit_migration(&m);
                    answered(self.rebuild(m.to))?;
                    self.metrics.migrations.inc();
                    progressed = true;
                }
                continue;
            }
            let parties = [m.from, m.to];
            let busy = (self.in_flight.iter())
                .any(|(f, _)| parties.contains(&f.from) || parties.contains(&f.to));
            if busy || !parties.iter().all(|&n| self.transport.reachable(n)) {
                continue;
            }
            let new_epoch = self.control.actual.epoch + 1;
            let vshards = vshards_json(&m.vshards);
            let extract = json!({"cmd": "extract", "epoch": new_epoch, "vshards": vshards.clone()});
            let Some(reply) = answered(self.transport.call(m.from, &extract))? else {
                continue;
            };
            self.held[m.from] = new_epoch;
            self.control.commit_migration(&m);
            let incoming = json!({"cmd": "incoming", "epoch": new_epoch, "vshards": vshards});
            let opened = answered(self.transport.call(m.to, &incoming));
            self.in_flight.push((m, take(reply, "bundle")));
            progressed = true;
            if opened?.is_some() {
                self.held[parties[1]] = new_epoch;
            }
        }
        // Epoch resync: reachable workers that missed a bump (they were
        // not a party to the migration) are brought to the actual epoch.
        let epoch = self.control.actual.epoch;
        for n in 0..nodes {
            if self.held[n] < epoch && self.transport.reachable(n) {
                let owned = self.control.actual.owned_by(n);
                let assign =
                    json!({"cmd": "assign", "epoch": epoch, "owned": vshards_json(&owned)});
                if answered(self.transport.call(n, &assign))?.is_some() {
                    self.held[n] = epoch;
                }
            }
        }
        self.metrics.epoch.set(epoch);
        let up = (0..nodes).filter(|&n| self.transport.reachable(n)).count();
        self.metrics.nodes_up.set(up as u64);
        Ok(progressed)
    }

    /// Reconciles until actual matches desired and nothing is in flight,
    /// waiting out unreachable parties under supervision.
    fn converge(&mut self) -> Result<(), ClusterError> {
        let mut waiting_since = self.now_ns();
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            let progressed = self.reconcile()?;
            if progressed {
                waiting_since = self.now_ns();
            }
            let plan = self.control.plan_migrations();
            let mut pending = plan.iter().chain(self.in_flight.iter().map(|(m, _)| m));
            let Some(m) = pending.next() else {
                return Ok(());
            };
            if self.now_ns() - waiting_since > self.budget_ms * MS {
                let vshard = m.vshards[0];
                return Err(ClusterError::Unavailable { vshard, attempts });
            }
            if !progressed {
                self.transport.clock().stall(POLL_MS * MS);
            }
        }
    }

    /// Drains the cluster: heals partitions, converges pending
    /// migrations, brings back every worker still owing shards (shutdown
    /// does not wait out a backoff), then merges every worker's report,
    /// sorted by session id. Permanently failed workers stay down; their
    /// shards have failed over.
    pub fn finish(mut self) -> Result<ClusterReport, ClusterError> {
        self.transport.heal();
        self.converge()?;
        let now = self.now_ns() / MS;
        let mut outcomes: Vec<SessionOutcome> = Vec::new();
        for n in 0..self.control.nodes() {
            if self.control.worker(n).state == WorkerState::Failed {
                continue;
            }
            if !self.transport.running(n) && !self.control.actual.owned_by(n).is_empty() {
                self.rebuild(n)?;
                self.control.note_respawned(n, now);
                self.metrics.respawns.inc();
            }
            if !self.transport.running(n) {
                continue;
            }
            let report = match self.transport.finish(n) {
                // Died after its last delivery: rebuild it and drain that.
                Err(ClusterError::WorkerDown { .. }) => {
                    self.metrics.crashes.inc();
                    self.rebuild(n)?;
                    self.metrics.respawns.inc();
                    self.transport.finish(n)
                }
                report => report,
            };
            outcomes.extend(report?);
        }
        outcomes.sort_by(|a, b| a.session.cmp(&b.session));
        Ok(ClusterReport {
            outcomes,
            metrics: self.metrics,
        })
    }
}
