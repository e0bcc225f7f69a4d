//! Execution strategies behind the [`Engine`](crate::engine::Engine)
//! facade.
//!
//! A [`Scheduler`] decides *when and on which thread* events are applied
//! to their shards; the shard-processing core itself
//! ([`process`](crate::engine::process)) is shared, so the production
//! [`ThreadedScheduler`] and the deterministic
//! [`SimScheduler`](crate::sim::SimScheduler) agree on semantics by
//! construction — the property the `stream_faults` differential suite
//! leans on.
//!
//! The threaded scheduler's failure handling: each worker runs its shard
//! loop under [`catch_unwind`](std::panic::catch_unwind) with its shard
//! state held *outside* the unwind boundary, so a panic (injected or
//! genuine) costs the in-flight event at most — the worker increments
//! `worker_panics`, re-enters its loop with all session state intact, and
//! retries the event once. A second panic on the same event poisons it:
//! the event is quarantined and its session evicted as
//! [`ViolationKind::WorkerPanic`](crate::session::ViolationKind::WorkerPanic).
//! When a worker exhausts its respawn budget it exits; once every worker
//! has exited, [`Scheduler::submit`] fails fast with
//! [`SubmitError::WorkersDead`] instead of blocking forever.

use crate::engine::{
    evict, make_report, process, report_shards, shard_index, EngineConfig, EngineReport,
    SessionOutcome, ShardState, SubmitError,
};
use crate::event::Event;
use crate::fault::FaultInjector;
use crate::metrics::EngineMetrics;
use crate::session::ViolationKind;
use crate::spec::CompiledSpec;
use rega_obs::{MonotonicClock, ObsClock};
use serde_json::Value as Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An event execution strategy. All schedulers share the shard-processing
/// core, so they differ only in interleaving, timing, and fault handling.
pub trait Scheduler: Send {
    /// Submits one event (see [`Engine::submit`](crate::engine::Engine::submit)).
    fn submit(&mut self, event: Event) -> Result<(), SubmitError>;

    /// The live metrics handle.
    fn metrics(&self) -> &Arc<EngineMetrics>;

    /// Drains in-flight events and serializes the monitoring state
    /// (deterministic schedulers only).
    fn checkpoint(&mut self) -> Option<Json>;

    /// A cloneable concurrent-ingest handle, if this scheduler supports
    /// submission from multiple threads (the threaded scheduler does; the
    /// deterministic simulation, whose whole point is a single-threaded
    /// interleaving, does not).
    fn handle(&self) -> Option<EngineHandle> {
        None
    }

    /// Migration donor half: drains in-flight events, then removes every
    /// session — live or closed — whose name `select`s, returning them as
    /// a restorable snapshot. The engine stays live and keeps serving the
    /// sessions left behind. `None` on schedulers that cannot serialize
    /// mid-stream state (the threaded pool).
    fn extract(&mut self, _select: &dyn Fn(&str) -> bool) -> Option<Json> {
        None
    }

    /// Migration recipient half: merges a snapshot produced by
    /// [`extract`](Scheduler::extract) (or a whole
    /// [`checkpoint`](Scheduler::checkpoint)) into this *running* engine,
    /// re-routing sessions by hash. Returns how many sessions (live plus
    /// closed) were absorbed; a session that already exists here rejects
    /// the merge — a double migration is a protocol error, not a
    /// last-writer-wins overwrite.
    fn absorb(&mut self, _snapshot: &Json) -> Result<usize, crate::snapshot::SnapshotError> {
        Err(crate::snapshot::SnapshotError::Malformed(
            "this scheduler does not support session migration".into(),
        ))
    }

    /// Signals end-of-stream, drains every queue, and reports.
    fn finish(self: Box<Self>) -> EngineReport;
}

/// The routing core shared by the scheduler's own submit path and every
/// cloned [`EngineHandle`]: arity validation at the edge plus shard
/// routing with bounded back-pressure. Cloning shares the same shard
/// queues, metrics, and liveness view; `SyncSender` is `Send + Sync`, so
/// clones may submit concurrently from any number of threads while
/// per-session ordering is still guaranteed *per submitting thread* (one
/// session fed by one producer keeps its order; interleaving across
/// producers is the callers' business, exactly as with any socket).
#[derive(Clone)]
pub(crate) struct Router {
    senders: Vec<SyncSender<Envelope>>,
    metrics: Arc<EngineMetrics>,
    clock: Arc<MonotonicClock>,
    live_workers: Arc<AtomicUsize>,
    registers: usize,
    shards: usize,
    submit_timeout: Option<Duration>,
}

impl Router {
    /// Rejects arity-invalid step events before they reach any queue.
    fn check_arity(&self, event: &Event) -> Result<(), SubmitError> {
        if let Event::Step { regs, .. } = event {
            if regs.len() != self.registers {
                self.metrics.submit_errors.inc();
                return Err(SubmitError::Arity {
                    got: regs.len(),
                    want: self.registers,
                });
            }
        }
        Ok(())
    }

    /// Counts and routes one already-validated event. Captures the
    /// submitting thread's request id (one `Arc` bump, and only while a
    /// trace sink is installed) so the worker can re-install it around
    /// the shard-batch span — the cross-thread half of request tracing.
    fn submit_unchecked(&self, event: Event) -> Result<(), SubmitError> {
        self.metrics.events_submitted.inc();
        self.route(Envelope {
            event,
            submitted_ns: self.clock.now_ns(),
            fault_immune: false,
            request: rega_obs::active_request(),
        })
    }

    /// Routes one envelope to its shard queue, back-pressuring on a full
    /// queue up to the submit timeout.
    fn route(&self, mut env: Envelope) -> Result<(), SubmitError> {
        let shard = shard_index(env.event.session(), self.shards);
        let deadline_ns = self.submit_timeout.map(|t| {
            self.clock
                .now_ns()
                .saturating_add(t.as_nanos().min(u128::from(u64::MAX)) as u64)
        });
        loop {
            match self.senders[shard].try_send(env) {
                Ok(()) => {
                    if let Some(depth) = self.metrics.queue_depth.get(shard) {
                        depth.inc();
                    }
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.metrics.submit_errors.inc();
                    return Err(SubmitError::WorkersDead);
                }
                Err(TrySendError::Full(back)) => {
                    env = back;
                    if self.live_workers.load(Ordering::Acquire) == 0 {
                        self.metrics.submit_errors.inc();
                        return Err(SubmitError::WorkersDead);
                    }
                    if let Some(deadline) = deadline_ns {
                        if self.clock.now_ns() >= deadline {
                            self.metrics.submit_errors.inc();
                            return Err(SubmitError::QueueFull { shard });
                        }
                    }
                    self.clock.stall(10_000); // 10 µs between retries
                }
            }
        }
    }
}

/// A cloneable ingest handle onto a running threaded engine.
///
/// Obtained from [`Engine::handle`](crate::engine::Engine::handle); any
/// number of clones may [`submit`](EngineHandle::submit) concurrently from
/// different threads (a network server's connection handlers, most
/// prominently) while the engine itself stays owned by whoever will
/// eventually drain it with `finish`. Handles share the engine's arity
/// validation, back-pressure, and metrics; they bypass producer-side fault
/// injection, which remains a test feature of the owning scheduler's
/// submit path.
///
/// A handle does not keep the engine alive: after `finish` drops the shard
/// queues, submissions fail with [`SubmitError::WorkersDead`].
#[derive(Clone)]
pub struct EngineHandle {
    router: Router,
}

impl EngineHandle {
    /// Submits one event, exactly as [`Engine::submit`](crate::engine::Engine::submit)
    /// would: arity-invalid step events are rejected at the edge, a full
    /// shard queue back-pressures up to the submit timeout, and dead
    /// workers fail fast.
    pub fn submit(&self, event: Event) -> Result<(), SubmitError> {
        self.router.check_arity(&event)?;
        self.router.submit_unchecked(event)
    }

    /// The engine's live metrics.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.router.metrics
    }

    /// The register arity every step event must carry.
    pub fn registers(&self) -> usize {
        self.router.registers
    }
}

/// An envelope carrying the submit timestamp for queue-latency accounting
/// and the retry marker for panic recovery.
pub(crate) struct Envelope {
    pub(crate) event: Event,
    pub(crate) submitted_ns: u64,
    /// Set when the event already survived one worker panic: no further
    /// faults are injected against it, and a second (genuine) panic
    /// poisons it instead of retrying again.
    pub(crate) fault_immune: bool,
    /// The serving request this event belongs to, captured at submission
    /// while tracing was active (`None` otherwise). The worker re-installs
    /// it around the shard-batch span so the trace ties shard work back to
    /// the request that submitted it.
    pub(crate) request: Option<Arc<str>>,
}

/// Payload type of injected panics, so the unwind skips the default panic
/// hook's backtrace noise (`resume_unwind` does not invoke the hook).
struct InjectedPanic;

/// The production scheduler: a sharded worker pool on OS threads.
pub struct ThreadedScheduler {
    router: Router,
    workers: Vec<JoinHandle<Vec<SessionOutcome>>>,
    producer_faults: FaultInjector,
}

impl ThreadedScheduler {
    /// Spawns the worker pool against a compiled spec.
    pub fn start(spec: Arc<CompiledSpec>, config: EngineConfig) -> ThreadedScheduler {
        let shards = config.shards.max(1);
        let workers = config.workers.max(1).min(shards);
        let metrics = Arc::new(EngineMetrics::with_shards(shards));
        let clock = Arc::new(MonotonicClock::new());
        let live_workers = Arc::new(AtomicUsize::new(workers));
        let mut senders = Vec::with_capacity(shards);
        let mut receivers: Vec<Option<Receiver<Envelope>>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = sync_channel(config.queue_capacity.max(1));
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            // Worker w owns shards w, w+workers, w+2·workers, …
            let owned_ids: Vec<usize> = (w..shards).step_by(workers).collect();
            let owned: Vec<Receiver<Envelope>> = owned_ids
                .iter()
                .map(|&i| receivers[i].take().expect("each shard owned once"))
                .collect();
            let spec = Arc::clone(&spec);
            let metrics = Arc::clone(&metrics);
            let clock = Arc::clone(&clock);
            let live = Arc::clone(&live_workers);
            let injector = FaultInjector::new(&config.fault, w as u64);
            let max_frontier = config.max_view_frontier;
            let quarantine_cap = config.quarantine_cap;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rega-stream-{w}"))
                    .spawn(move || {
                        let outcomes = worker_entry(
                            spec,
                            metrics,
                            clock,
                            owned,
                            owned_ids,
                            injector,
                            max_frontier,
                            quarantine_cap,
                        );
                        live.fetch_sub(1, Ordering::Release);
                        outcomes
                    })
                    .expect("spawn worker thread"),
            );
        }
        ThreadedScheduler {
            router: Router {
                senders,
                metrics,
                clock,
                live_workers,
                registers: spec.registers(),
                shards,
                submit_timeout: config.submit_timeout,
            },
            workers: handles,
            // Index u64::MAX keeps the producer's RNG stream disjoint from
            // every worker's.
            producer_faults: FaultInjector::new(&config.fault, u64::MAX),
        }
    }
}

impl Scheduler for ThreadedScheduler {
    fn submit(&mut self, event: Event) -> Result<(), SubmitError> {
        self.router.check_arity(&event)?;
        // Producer-side transport-fault injection: corrupted copies and
        // duplicated terminal events ride in *after* the genuine event
        // (and bypass the arity gate — that is the point).
        let injected = self.producer_faults.injected_copies(&event);
        self.router.submit_unchecked(event)?;
        for copy in injected {
            self.router.submit_unchecked(copy)?;
        }
        Ok(())
    }

    fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.router.metrics
    }

    fn checkpoint(&mut self) -> Option<Json> {
        None
    }

    fn handle(&self) -> Option<EngineHandle> {
        Some(EngineHandle {
            router: self.router.clone(),
        })
    }

    fn finish(self: Box<Self>) -> EngineReport {
        let ThreadedScheduler {
            router, workers, ..
        } = *self;
        let metrics = Arc::clone(&router.metrics);
        // Handles cloned off this engine keep their own sender clones, so
        // dropping the router here only guarantees disconnection once those
        // handles are gone too; workers also observe end-of-stream through
        // the producer's senders going away.
        drop(router);
        let mut outcomes: Vec<SessionOutcome> = Vec::new();
        for handle in workers {
            outcomes.extend(handle.join().expect("worker thread died outside its loop"));
        }
        make_report(outcomes, metrics)
    }
}

/// Per-worker state that must survive panics: it lives *outside* the
/// unwind boundary, so `catch_unwind` hands it back to the respawned loop
/// untouched.
struct WorkerCtx {
    shards: Vec<ShardState>,
    open: Vec<bool>,
    /// The envelope being processed, stashed (only while fault injection
    /// is active) so a caught panic can retry or poison it.
    inflight: Option<(usize, Envelope)>,
}

#[allow(clippy::too_many_arguments)]
fn worker_entry(
    spec: Arc<CompiledSpec>,
    metrics: Arc<EngineMetrics>,
    clock: Arc<MonotonicClock>,
    receivers: Vec<Receiver<Envelope>>,
    shard_ids: Vec<usize>,
    mut injector: FaultInjector,
    max_frontier: usize,
    quarantine_cap: u64,
) -> Vec<SessionOutcome> {
    let mut ctx = WorkerCtx {
        shards: receivers.iter().map(|_| ShardState::default()).collect(),
        open: vec![true; receivers.len()],
        inflight: None,
    };
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(
                &spec,
                &metrics,
                &*clock,
                &receivers,
                &shard_ids,
                &mut ctx,
                &mut injector,
                max_frontier,
                quarantine_cap,
            )
        }));
        match run {
            Ok(()) => break, // clean drain: every owned queue disconnected
            Err(_) => {
                metrics.worker_panics.inc();
                if let Some((i, env)) = ctx.inflight.take() {
                    if env.fault_immune {
                        // Second panic on the same event: poison it.
                        poison(&metrics, &mut ctx.shards[i], &env.event);
                    } else {
                        ctx.inflight = Some((
                            i,
                            Envelope {
                                fault_immune: true,
                                ..env
                            },
                        ));
                    }
                }
                if !injector.respawn() {
                    // Respawn budget exhausted: exit for good. Dropping the
                    // receivers disconnects the shard queues, which the
                    // producer observes as `WorkersDead`.
                    break;
                }
            }
        }
    }
    report_shards(&metrics, ctx.shards)
}

/// Quarantines a twice-panicking event and evicts its session as
/// [`ViolationKind::WorkerPanic`].
fn poison(metrics: &EngineMetrics, shard: &mut ShardState, event: &Event) {
    metrics.events_quarantined.inc();
    let name = event.session().to_string();
    if let Some(session) = shard.live.get_mut(&name) {
        session.force_violation(ViolationKind::WorkerPanic);
        metrics.sessions_violated.inc();
        evict(metrics, shard, &name);
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    spec: &CompiledSpec,
    metrics: &EngineMetrics,
    clock: &dyn ObsClock,
    receivers: &[Receiver<Envelope>],
    shard_ids: &[usize],
    ctx: &mut WorkerCtx,
    injector: &mut FaultInjector,
    max_frontier: usize,
    quarantine_cap: u64,
) {
    let faulty = injector.is_active();
    // A retry left over from a caught panic is processed first.
    if let Some((i, env)) = ctx.inflight.take() {
        handle_one(
            spec,
            metrics,
            clock,
            ctx,
            injector,
            i,
            shard_ids[i],
            env,
            max_frontier,
            quarantine_cap,
            faulty,
        );
    }
    // Spans are batch-granular (one per drained burst, carrying the global
    // shard id), not per-event — a span on every event would dominate the
    // hot path.
    const BATCH: usize = 64;
    // Between batches (their spans closed) the worker yields its CPU once
    // this long has passed since it last did, so a producer sharing that
    // CPU (a serving connection thread, say) waits for it about this long,
    // not for the rest of a scheduler time slice. With nothing else
    // runnable the yield returns at once.
    const YIELD_EVERY: Duration = Duration::from_micros(250);
    let mut last_yield = Instant::now();
    let mut pause = || {
        if last_yield.elapsed() >= YIELD_EVERY {
            std::thread::yield_now();
            last_yield = Instant::now();
        }
    };
    // Single-shard workers can block on recv (no other queue to starve).
    if let [rx] = receivers {
        while let Ok(env) = rx.recv() {
            // The batch span carries the *first* envelope's request id —
            // batch-granular attribution, matching the span itself.
            let _req = rega_obs::RequestGuard::enter_opt(env.request.clone());
            let _batch = rega_obs::span!("stream.shard_batch", shard = shard_ids[0]);
            handle_one(
                spec,
                metrics,
                clock,
                ctx,
                injector,
                0,
                shard_ids[0],
                env,
                max_frontier,
                quarantine_cap,
                faulty,
            );
            for _ in 1..BATCH {
                match rx.try_recv() {
                    Ok(env) => handle_one(
                        spec,
                        metrics,
                        clock,
                        ctx,
                        injector,
                        0,
                        shard_ids[0],
                        env,
                        max_frontier,
                        quarantine_cap,
                        faulty,
                    ),
                    Err(_) => break,
                }
            }
            drop((_batch, _req));
            pause();
        }
        return;
    }
    // Round-robin over owned shards; drain in small batches to stay fair.
    loop {
        let mut progressed = false;
        for (i, rx) in receivers.iter().enumerate() {
            if !ctx.open[i] {
                continue;
            }
            match rx.try_recv() {
                Ok(first) => {
                    let _req = rega_obs::RequestGuard::enter_opt(first.request.clone());
                    let _batch = rega_obs::span!("stream.shard_batch", shard = shard_ids[i]);
                    handle_one(
                        spec,
                        metrics,
                        clock,
                        ctx,
                        injector,
                        i,
                        shard_ids[i],
                        first,
                        max_frontier,
                        quarantine_cap,
                        faulty,
                    );
                    progressed = true;
                    for _ in 1..BATCH {
                        match rx.try_recv() {
                            Ok(env) => {
                                handle_one(
                                    spec,
                                    metrics,
                                    clock,
                                    ctx,
                                    injector,
                                    i,
                                    shard_ids[i],
                                    env,
                                    max_frontier,
                                    quarantine_cap,
                                    faulty,
                                );
                            }
                            Err(TryRecvError::Empty) => break,
                            Err(TryRecvError::Disconnected) => {
                                ctx.open[i] = false;
                                break;
                            }
                        }
                    }
                    drop((_batch, _req));
                    pause();
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    ctx.open[i] = false;
                }
            }
        }
        if ctx.open.iter().all(|o| !o) {
            return;
        }
        if !progressed {
            // All owned queues momentarily empty: yield briefly instead of
            // spinning. (Blocking recv would stall the other owned shards.)
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// Applies one envelope: fault draws (stall, panic), latency accounting,
/// then the shared shard-processing core.
#[allow(clippy::too_many_arguments)]
fn handle_one(
    spec: &CompiledSpec,
    metrics: &EngineMetrics,
    clock: &dyn ObsClock,
    ctx: &mut WorkerCtx,
    injector: &mut FaultInjector,
    shard_idx: usize,
    shard_id: usize,
    env: Envelope,
    max_frontier: usize,
    quarantine_cap: u64,
    faulty: bool,
) {
    if let Some(depth) = metrics.queue_depth.get(shard_id) {
        depth.dec();
    }
    metrics
        .queue_latency
        .record_ns(clock.now_ns().saturating_sub(env.submitted_ns));
    if faulty && !env.fault_immune {
        if let Some(ns) = injector.stall_ns() {
            clock.stall(ns);
        }
        if injector.should_panic() {
            // Stash the envelope so the respawned loop retries it, then
            // unwind without invoking the panic hook (no backtrace spam).
            ctx.inflight = Some((shard_idx, env));
            std::panic::resume_unwind(Box::new(InjectedPanic));
        }
    }
    if faulty {
        // Keep the envelope reachable across a *genuine* panic inside
        // `process` too (clone only on the fault-injected path — the
        // fast path pays nothing).
        ctx.inflight = Some((
            shard_idx,
            Envelope {
                event: env.event.clone(),
                submitted_ns: env.submitted_ns,
                fault_immune: env.fault_immune,
                request: env.request.clone(),
            },
        ));
    }
    let started = clock.now_ns();
    process(
        spec,
        metrics,
        &mut ctx.shards[shard_idx],
        env.event,
        max_frontier,
        quarantine_cap,
    );
    metrics
        .process_latency
        .record_ns(clock.now_ns().saturating_sub(started));
    metrics.events_processed.inc();
    ctx.inflight = None;
}
