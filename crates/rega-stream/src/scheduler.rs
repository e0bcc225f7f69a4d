//! The production engine: a sharded worker pool on OS threads.
//!
//! [`Engine`] hashes sessions onto shards and hands each shard to exactly
//! one worker thread; with fewer workers than shards, worker `w` owns
//! shards `w, w + workers, w + 2·workers, …`. Each worker has one bounded
//! queue for all the shards it owns, holding `queue_capacity` events per
//! owned shard, and one session table for all their sessions. It applies
//! events through the shared core (`engine::process`), so the pool and
//! the deterministic [`SimScheduler`](crate::sim::SimScheduler) agree on
//! semantics by construction — the property the `stream_faults`
//! differential suite leans on.
//!
//! The worker blocks in `recv` while its queue is empty. A producer that
//! finds the queue full waits until the worker wakes it, its submit
//! timeout passes, or the worker exits. The worker wakes waiting
//! producers at its yield gate, just before it blocks on an empty queue,
//! after a caught panic, and on exit — not after every batch, which would
//! hand the CPU back to the producer far too often.
//!
//! Failure handling: each worker runs its loop under
//! [`catch_unwind`](std::panic::catch_unwind) with its session table held
//! *outside* the unwind boundary, so a panic (injected or genuine) costs
//! the in-flight event at most — the worker increments `worker_panics`,
//! re-enters its loop with all session state intact, and retries the
//! event once. A second panic on the same event poisons it: the event is
//! quarantined and its session evicted as
//! [`ViolationKind::WorkerPanic`](crate::session::ViolationKind::WorkerPanic).
//! When a worker exhausts its respawn budget it exits; from then on a
//! [`Engine::submit`] routed to its shards fails fast with
//! [`SubmitError::WorkersDead`] instead of blocking forever.

use crate::engine::{
    check_submit_arity, evict, make_report, process, shard_index, EngineConfig, EngineReport,
    SessionOutcome, SessionTable, SubmitError,
};
use crate::event::Event;
use crate::fault::FaultInjector;
use crate::metrics::EngineMetrics;
use crate::session::ViolationKind;
use crate::spec::CompiledSpec;
use rega_obs::{MonotonicClock, ObsClock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A cloneable ingest handle onto a running threaded engine.
///
/// Obtained from [`Engine::handle`]; any number of clones may
/// [`submit`](EngineHandle::submit) concurrently from different threads (a
/// network server's connection handlers, most prominently) while the
/// engine itself stays owned by whoever will eventually drain it with
/// [`Engine::finish`]. Handles share the engine's arity validation,
/// back-pressure, and metrics; they bypass producer-side fault injection,
/// which remains a test feature of [`Engine::submit`]. Per-session ordering holds *per submitting thread* (one
/// session fed by one producer keeps its order; interleaving across
/// producers is the callers' business, exactly as with any socket).
///
/// A handle keeps the worker queues connected: `finish` drains only once
/// every clone is dropped.
#[derive(Clone)]
pub struct EngineHandle {
    /// One queue per worker; shard `s` goes to worker `s % queues.len()`.
    queues: Vec<(SyncSender<Envelope>, Arc<Waiters>)>,
    metrics: Arc<EngineMetrics>,
    clock: Arc<MonotonicClock>,
    registers: usize,
    shards: usize,
    submit_timeout: Option<Duration>,
}

impl EngineHandle {
    /// Submits one event, exactly as [`Engine::submit`] would:
    /// arity-invalid step events are rejected at the edge, a full worker
    /// queue back-pressures up to the submit timeout, and dead workers
    /// fail fast.
    pub fn submit(&self, event: Event) -> Result<(), SubmitError> {
        check_submit_arity(&event, self.registers, &self.metrics)?;
        self.submit_unchecked(event)
    }

    /// The engine's live metrics.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The register arity every step event must carry.
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// Counts and routes one already-validated event. Captures the
    /// submitting thread's request id (one `Arc` bump, and only while a
    /// trace sink is installed) so the worker can re-install it around
    /// the shard-batch span — the cross-thread half of request tracing.
    fn submit_unchecked(&self, event: Event) -> Result<(), SubmitError> {
        self.metrics.events_submitted.inc();
        let shard = shard_index(event.session(), self.shards);
        let (queue, waiters) = &self.queues[shard % self.queues.len()];
        let env = Envelope {
            event,
            shard,
            submitted_ns: self.clock.now_ns(),
            fault_immune: false,
            request: rega_obs::active_request(),
        };
        let sent = match queue.try_send(env) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(env)) => waiters.send(queue, env, self.submit_timeout),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::WorkersDead),
        };
        match sent {
            Ok(()) => {
                if let Some(depth) = self.metrics.queue_depth.get(shard) {
                    depth.inc();
                }
            }
            Err(_) => self.metrics.submit_errors.inc(),
        }
        sent
    }
}

/// The producers blocked on one worker's full queue, and the worker's
/// means of waking them.
///
/// A producer announces itself in `waiting`, then retries the queue under
/// `lock` before it waits; the worker frees slots, then reads `waiting`
/// and notifies under the same lock. With a `SeqCst` fence between the
/// write and the read on both sides, either the producer's retry sees the
/// freed slot or the worker sees the waiter, so no wake is lost.
#[derive(Default)]
struct Waiters {
    waiting: AtomicUsize,
    lock: Mutex<()>,
    freed: Condvar,
}

impl Waiters {
    /// Worker side: wakes every producer waiting on this queue.
    fn wake(&self) {
        fence(SeqCst);
        if self.waiting.load(SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.freed.notify_all();
        }
    }

    /// Producer side: retries `env` on the full `queue`, waiting between
    /// tries, until it fits, the worker exits or `timeout` passes.
    fn send(
        &self,
        queue: &SyncSender<Envelope>,
        mut env: Envelope,
        timeout: Option<Duration>,
    ) -> Result<(), SubmitError> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiting.fetch_add(1, SeqCst);
        fence(SeqCst);
        let sent = loop {
            env = match queue.try_send(env) {
                Ok(()) => break Ok(()),
                Err(TrySendError::Full(env)) => env,
                Err(TrySendError::Disconnected(_)) => break Err(SubmitError::WorkersDead),
            };
            guard = match deadline {
                None => self
                    .freed
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break Err(SubmitError::QueueFull { shard: env.shard });
                    }
                    let waited = self.freed.wait_timeout(guard, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        };
        self.waiting.fetch_sub(1, SeqCst);
        sent
    }
}

/// An event on its way to a worker, with its shard, the submit timestamp
/// for queue-latency accounting, and the retry marker for panic recovery.
#[derive(Clone)]
pub(crate) struct Envelope {
    pub(crate) event: Event,
    /// The global shard the event's session hashes to.
    pub(crate) shard: usize,
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

/// A running threaded engine. Created with [`Engine::start`], fed with
/// [`Engine::submit`] (or concurrently through [`Engine::handle`]s), torn
/// down with [`Engine::finish`].
pub struct Engine {
    ingest: EngineHandle,
    workers: Vec<JoinHandle<Vec<SessionOutcome>>>,
    producer_faults: FaultInjector,
}

impl Engine {
    /// Spawns the worker pool against a compiled spec.
    pub fn start(spec: Arc<CompiledSpec>, config: EngineConfig) -> Engine {
        let shards = config.shards.max(1);
        let workers = config.workers.max(1).min(shards);
        let metrics = Arc::new(EngineMetrics::with_shards(shards));
        let clock = Arc::new(MonotonicClock::new());
        let mut queues = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            // Worker w owns shards w, w+workers, w+2·workers, … and one
            // queue that buffers as many events as their shard queues would.
            let owned = (w..shards).step_by(workers).count();
            let (queue, inbox) = sync_channel(config.queue_capacity.max(1).saturating_mul(owned));
            let waiters = Arc::new(Waiters::default());
            queues.push((queue, Arc::clone(&waiters)));
            let worker = Worker {
                spec: Arc::clone(&spec),
                metrics: Arc::clone(&metrics),
                clock: Arc::clone(&clock),
                injector: FaultInjector::new(&config.fault, w as u64),
                max_view_frontier: config.max_view_frontier,
                quarantine_cap: config.quarantine_cap,
                waiters,
                sessions: SessionTable::default(),
                inflight: None,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rega-stream-{w}"))
                    .spawn(move || worker.run(inbox))
                    .expect("spawn worker thread"),
            );
        }
        Engine {
            ingest: EngineHandle {
                queues,
                metrics,
                clock,
                registers: spec.registers(),
                shards,
                submit_timeout: config.submit_timeout,
            },
            workers: threads,
            // Index u64::MAX keeps the producer's RNG stream disjoint from
            // every worker's.
            producer_faults: FaultInjector::new(&config.fault, u64::MAX),
        }
    }

    /// Submits one event. While the queue of the worker owning the target
    /// shard is full, blocks until that worker wakes it (bounded by
    /// [`EngineConfig::submit_timeout`]); rejects arity-invalid step events
    /// and submission against dead workers with a typed error instead of
    /// panicking or hanging.
    pub fn submit(&mut self, event: Event) -> Result<(), SubmitError> {
        check_submit_arity(&event, self.ingest.registers, &self.ingest.metrics)?;
        // Producer-side transport-fault injection: corrupted copies and
        // duplicated terminal events ride in *after* the genuine event
        // (and bypass the arity gate — that is the point).
        let injected = self.producer_faults.injected_copies(&event);
        self.ingest.submit_unchecked(event)?;
        for copy in injected {
            self.ingest.submit_unchecked(copy)?;
        }
        Ok(())
    }

    /// The live metrics handle.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.ingest.metrics
    }

    /// A cloneable concurrent-ingest handle. Any number of clones may
    /// submit from different threads; all clones must be dropped before
    /// [`Engine::finish`] can drain — a surviving handle keeps the worker
    /// queues connected.
    pub fn handle(&self) -> EngineHandle {
        self.ingest.clone()
    }

    /// Signals end-of-stream, drains every queue, and returns the combined
    /// report.
    pub fn finish(self) -> EngineReport {
        let Engine {
            ingest, workers, ..
        } = self;
        let metrics = Arc::clone(&ingest.metrics);
        // Workers see end-of-stream once every sender of their queue is
        // gone: these, and those of any handle cloned off this engine.
        drop(ingest);
        let mut outcomes: Vec<SessionOutcome> = Vec::new();
        for handle in workers {
            outcomes.extend(handle.join().expect("worker thread died outside its loop"));
        }
        make_report(outcomes, metrics)
    }
}

/// One worker thread: what it runs with, and the state that must survive
/// its panics. `catch_unwind` wraps only [`drain`](Worker::drain), so the
/// session table lives outside the unwind boundary and the respawned loop
/// finds it untouched.
struct Worker {
    spec: Arc<CompiledSpec>,
    metrics: Arc<EngineMetrics>,
    clock: Arc<MonotonicClock>,
    injector: FaultInjector,
    max_view_frontier: usize,
    quarantine_cap: u64,
    waiters: Arc<Waiters>,
    /// The sessions of every shard this worker owns.
    sessions: SessionTable,
    /// The envelope being processed, stashed (only while fault injection
    /// is active) so a caught panic can retry or poison it.
    inflight: Option<Envelope>,
}

impl Worker {
    fn run(mut self, inbox: Receiver<Envelope>) -> Vec<SessionOutcome> {
        while catch_unwind(AssertUnwindSafe(|| self.drain(&inbox))).is_err() {
            self.metrics.worker_panics.inc();
            if let Some(env) = self.inflight.take() {
                if env.fault_immune {
                    // Second panic on the same event: poison it.
                    poison(&self.metrics, &mut self.sessions, &env.event);
                } else {
                    self.inflight = Some(Envelope {
                        fault_immune: true,
                        ..env
                    });
                }
            }
            if !self.injector.respawn() {
                break; // respawn budget exhausted: exit for good
            }
            self.waiters.wake();
        }
        // Dropping the inbox disconnects the queue, which producers observe
        // as `WorkersDead`; the wake reaches those already waiting on it.
        drop(inbox);
        self.waiters.wake();
        self.sessions.report(&self.metrics)
    }

    /// Processes envelopes until every sender of `inbox` is gone.
    fn drain(&mut self, inbox: &Receiver<Envelope>) {
        // A retry left over from a caught panic is processed first.
        if let Some(env) = self.inflight.take() {
            self.handle(env);
        }
        // Spans are batch-granular (one per drained burst), not per-event —
        // a span on every event would dominate the hot path.
        const BATCH: usize = 64;
        // Between batches (their spans closed) the worker wakes waiting
        // producers and yields its CPU once this long has passed since it
        // last did, so a producer sharing that CPU (a serving connection
        // thread, say) waits for it about this long, not for the rest of a
        // scheduler time slice. With nothing else runnable the yield
        // returns at once.
        const YIELD_EVERY: Duration = Duration::from_micros(250);
        let mut last_yield = Instant::now();
        // The next envelope, waking waiting producers before blocking on
        // an empty queue.
        let waiters = Arc::clone(&self.waiters);
        let next = || {
            inbox.try_recv().or_else(|_| {
                waiters.wake();
                inbox.recv()
            })
        };
        while let Ok(first) = next() {
            // A batch may hold several owned shards' events; its span
            // carries the *first* envelope's shard and request id.
            let _req = rega_obs::RequestGuard::enter_opt(first.request.clone());
            let _batch = rega_obs::span!("stream.shard_batch", shard = first.shard);
            self.handle(first);
            for env in inbox.try_iter().take(BATCH - 1) {
                self.handle(env);
            }
            drop((_batch, _req));
            if last_yield.elapsed() >= YIELD_EVERY {
                self.waiters.wake();
                std::thread::yield_now();
                last_yield = Instant::now();
            }
        }
    }

    /// Applies one envelope: fault draws (stall, panic), latency
    /// accounting, then the shared session-processing core.
    fn handle(&mut self, env: Envelope) {
        let faulty = self.injector.is_active();
        if let Some(depth) = self.metrics.queue_depth.get(env.shard) {
            depth.dec();
        }
        self.metrics
            .queue_latency
            .record_ns(self.clock.now_ns().saturating_sub(env.submitted_ns));
        if faulty && !env.fault_immune {
            if let Some(ns) = self.injector.stall_ns() {
                self.clock.stall(ns);
            }
            if self.injector.should_panic() {
                // Stash the envelope so the respawned loop retries it, then
                // unwind without invoking the panic hook (no backtrace spam).
                self.inflight = Some(env);
                std::panic::resume_unwind(Box::new(InjectedPanic));
            }
        }
        if faulty {
            // Keep the envelope reachable across a *genuine* panic inside
            // `process` too (clone only on the fault-injected path — the
            // fast path pays nothing).
            self.inflight = Some(env.clone());
        }
        let started = self.clock.now_ns();
        process(
            &self.spec,
            &self.metrics,
            &mut self.sessions,
            env.event,
            self.max_view_frontier,
            self.quarantine_cap,
        );
        self.metrics
            .process_latency
            .record_ns(self.clock.now_ns().saturating_sub(started));
        self.metrics.events_processed.inc();
        self.inflight = None;
    }
}

/// Quarantines a twice-panicking event and evicts its session as
/// [`ViolationKind::WorkerPanic`].
fn poison(metrics: &EngineMetrics, sessions: &mut SessionTable, event: &Event) {
    metrics.events_quarantined.inc();
    let name = event.session().to_string();
    if let Some(session) = sessions.live.get_mut(&name) {
        session.force_violation(ViolationKind::WorkerPanic);
        metrics.sessions_violated.inc();
        evict(metrics, sessions, &name);
    }
}
