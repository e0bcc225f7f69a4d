//! What both engines share: their configuration, errors and report, shard
//! routing, the submit-time arity gate, and the session-processing core.
//!
//! Two engines run this core. [`Engine`](crate::scheduler::Engine) is the
//! production worker pool on OS threads;
//! [`SimScheduler`](crate::sim::SimScheduler) is the single-threaded
//! deterministic simulation whose interleavings, clock, and injected
//! faults all derive from one seed. Both hash sessions onto `shards`
//! shards and give each shard's events one FIFO path to the one place
//! that applies them, so events of one session are always processed in
//! submission order. A shard partitions *queues*: the sessions themselves
//! live in one `SessionTable` per threaded worker, and in one table in
//! the simulation.
//!
//! Flow control: a full queue back-pressures the producer rather than
//! buffering unboundedly — the threaded engine waits until the worker
//! wakes it, and with [`EngineConfig::submit_timeout`] set gives up with a
//! typed [`SubmitError`] instead of blocking forever; the simulation
//! delivers from the full shard until there is room.
//!
//! Failure semantics (see the README for the full contract):
//!
//! * Transport-faulty events (wrong register arity, unknown control state,
//!   traffic for an evicted session) are **quarantined** when
//!   [`EngineConfig::quarantine_cap`] is non-zero: counted, dropped, and
//!   the touched session's state left exactly as it was. A session
//!   accumulating more than `quarantine_cap` such events is evicted as
//!   [`ViolationKind::QuarantineOverflow`]. With a zero cap (the default)
//!   the engine is strict: a transport-faulty step event violates its
//!   session, exactly as in the pre-fault-injection engine.
//! * Worker panics are caught; the worker respawns in place with its
//!   session table intact and retries the in-flight event once. A second
//!   panic on the same event quarantines it and evicts its session as
//!   [`ViolationKind::WorkerPanic`].

use crate::event::Event;
use crate::fault::FaultPlan;
use crate::metrics::EngineMetrics;
use crate::session::{Session, SessionStatus, ViolationKind};
use crate::spec::CompiledSpec;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Engine sizing and failure-semantics knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of shards (session partitions). At least 1.
    pub shards: usize,
    /// Number of worker threads. Clamped to `shards` (extra workers would
    /// own no shard).
    pub workers: usize,
    /// Events buffered per shard: each worker's queue holds
    /// `queue_capacity` × the number of shards it owns, and a full queue
    /// back-pressures [`Engine::submit`](crate::scheduler::Engine::submit).
    pub queue_capacity: usize,
    /// Frontier bound for per-session view observers.
    pub max_view_frontier: usize,
    /// Per-session budget of quarantined (transport-faulty) events.
    /// `0` = strict mode: a transport-faulty step event violates its
    /// session. `> 0` = lenient mode: such events are counted and dropped
    /// without touching session state, and a session exceeding the budget
    /// is evicted as [`ViolationKind::QuarantineOverflow`].
    pub quarantine_cap: u64,
    /// How long [`Engine::submit`](crate::scheduler::Engine::submit) may
    /// wait on a full worker queue before
    /// returning [`SubmitError::QueueFull`]. `None` waits until the worker
    /// frees a slot and wakes the producer, or exits
    /// ([`SubmitError::WorkersDead`]).
    pub submit_timeout: Option<Duration>,
    /// Seeded fault injection; [`FaultPlan::none`] (the default) injects
    /// nothing.
    pub fault: FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 8,
            workers: 4,
            queue_capacity: 1024,
            max_view_frontier: 256,
            quarantine_cap: 0,
            submit_timeout: None,
            fault: FaultPlan::none(),
        }
    }
}

/// Why an engine's `submit` rejected an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The step event's register tuple does not match the specification
    /// (validated at submit time, before the event reaches any queue).
    Arity {
        /// Arity the event carried.
        got: usize,
        /// The specification's register count.
        want: usize,
    },
    /// The queue holding the target shard's events stayed full past
    /// [`EngineConfig::submit_timeout`].
    QueueFull {
        /// The shard the rejected event was routed to.
        shard: usize,
    },
    /// Every worker thread has exited (e.g. the respawn budget was
    /// exhausted); the engine can no longer make progress. Without this
    /// error a submit against dead workers would block forever.
    WorkersDead,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Arity { got, want } => {
                write!(f, "event arity {got} does not match specification ({want})")
            }
            SubmitError::QueueFull { shard } => {
                write!(f, "shard {shard} queue stayed full past the submit timeout")
            }
            SubmitError::WorkersDead => write!(f, "all workers have exited"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The final state of one session, reported at shutdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Session identifier.
    pub session: String,
    /// Final lifecycle status. `Active` means the stream ended without a
    /// terminal event for this session.
    pub status: SessionStatus,
    /// Events consumed by the session.
    pub events: u64,
    /// Whether the session's view observer ever degraded to three-valued
    /// answers (frontier overflow).
    pub view_degraded: bool,
    /// Transport-faulty events quarantined against this session.
    pub quarantined: u64,
}

/// Everything the engine knows after a clean shutdown.
#[derive(Debug)]
pub struct EngineReport {
    /// All sessions ever seen, sorted by session id.
    pub outcomes: Vec<SessionOutcome>,
    /// The shared metrics (final values).
    pub metrics: Arc<EngineMetrics>,
}

impl EngineReport {
    /// The outcomes that ended in violation, sorted by session id.
    pub fn violations(&self) -> impl Iterator<Item = &SessionOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, SessionStatus::Violated(_)))
    }
}

/// Builds the sorted final report from the engine's outcomes.
pub(crate) fn make_report(
    mut outcomes: Vec<SessionOutcome>,
    metrics: Arc<EngineMetrics>,
) -> EngineReport {
    outcomes.sort_by(|a, b| a.session.cmp(&b.session));
    EngineReport { outcomes, metrics }
}

/// The shard an event for `session` is routed to.
///
/// Routing must be *stable*: a seeded simulation replays only if every
/// event lands in the same queue, replay tooling compares shard
/// assignments across processes, and the `engine.queue_depth.<shard>`
/// gauges and [`SubmitError::QueueFull`] name shards. `DefaultHasher` is
/// explicitly not stable across Rust releases (or even processes, once
/// seeded hashing applies), so the engine pins FNV-1a, whose assignment is
/// covered by a regression test.
pub(crate) fn shard_index(session: &str, shards: usize) -> usize {
    (crate::persist::fnv1a(session.as_bytes()) % shards as u64) as usize
}

/// The submit-time arity gate both engines share: a step event whose
/// register tuple does not match the specification is counted as a submit
/// error and rejected before it reaches any queue.
pub(crate) fn check_submit_arity(
    event: &Event,
    registers: usize,
    metrics: &EngineMetrics,
) -> Result<(), SubmitError> {
    match event {
        Event::Step { regs, .. } if regs.len() != registers => {
            metrics.submit_errors.inc();
            Err(SubmitError::Arity {
                got: regs.len(),
                want: registers,
            })
        }
        _ => Ok(()),
    }
}

/// The sessions one engine thread owns: live sessions plus the outcomes of
/// already evicted ones (the latter also serve as tombstones so late events
/// for a closed session are counted, not resurrected).
#[derive(Default)]
pub(crate) struct SessionTable {
    pub(crate) live: HashMap<String, Session>,
    pub(crate) closed: HashMap<String, SessionOutcome>,
}

impl SessionTable {
    /// End of stream: reports evicted sessions plus whatever is still live.
    pub(crate) fn report(self, metrics: &EngineMetrics) -> Vec<SessionOutcome> {
        let mut outcomes: Vec<SessionOutcome> = self.closed.into_values().collect();
        for (name, session) in self.live {
            metrics.session_out();
            outcomes.push(SessionOutcome {
                session: name,
                status: session.status().clone(),
                events: session.events,
                view_degraded: session.view_degraded,
                quarantined: session.quarantined,
            });
        }
        outcomes
    }
}

/// Applies one event to its session table. `quarantine_cap > 0` selects
/// lenient mode: transport-faulty events are quarantined instead of
/// violating.
pub(crate) fn process(
    spec: &CompiledSpec,
    metrics: &EngineMetrics,
    table: &mut SessionTable,
    event: Event,
    max_frontier: usize,
    quarantine_cap: u64,
) {
    let lenient = quarantine_cap > 0;
    // Keep the snapshot-visible σ-type cache counters current (absolute
    // stores into relaxed atomics — two cheap writes per event).
    metrics.sync_type_cache(&spec.type_cache_stats());
    let name = event.session();
    if table.closed.contains_key(name) {
        metrics.events_after_eviction.inc();
        if lenient {
            // Post-eviction traffic (e.g. a duplicated terminal event) is
            // a transport fault too; it is benign in both modes, but in
            // lenient mode it also shows up in the quarantine counter.
            metrics.events_quarantined.inc();
        }
        return;
    }
    match event {
        Event::Step {
            session: name,
            state,
            regs,
        } => {
            if lenient && (regs.len() != spec.registers() || spec.state_id(&state).is_none()) {
                metrics.events_quarantined.inc();
                // Corrupt events never *create* a session; they only count
                // against an existing one's budget.
                if let Some(session) = table.live.get_mut(&name) {
                    session.quarantined += 1;
                    if session.quarantined > quarantine_cap {
                        session.force_violation(ViolationKind::QuarantineOverflow);
                        metrics.sessions_violated.inc();
                        evict(metrics, table, &name);
                    }
                }
                return;
            }
            let session = table.live.entry(name.clone()).or_insert_with(|| {
                metrics.sessions_started.inc();
                metrics.session_in();
                Session::new(spec, max_frontier)
            });
            match session.step(spec, &state, &regs) {
                SessionStatus::Active => {
                    metrics.events_ok.inc();
                }
                SessionStatus::Violated(_) => {
                    metrics.sessions_violated.inc();
                    evict(metrics, table, &name);
                }
                SessionStatus::Ended => unreachable!("step never yields Ended"),
            }
        }
        Event::End { session: name } => {
            match table.live.get_mut(&name) {
                Some(session) => {
                    if session.end() == &SessionStatus::Ended {
                        metrics.sessions_ended.inc();
                    }
                    evict(metrics, table, &name);
                }
                None => {
                    // An end for a session that never stepped: record it as
                    // an ended, empty session.
                    metrics.sessions_started.inc();
                    metrics.sessions_ended.inc();
                    metrics.sessions_evicted.inc();
                    table.closed.insert(
                        name.clone(),
                        SessionOutcome {
                            session: name,
                            status: SessionStatus::Ended,
                            events: 1,
                            view_degraded: false,
                            quarantined: 0,
                        },
                    );
                }
            }
        }
    }
}

/// Moves a session from the live map to the closed (outcome) map, dropping
/// its monitor and observer state.
pub(crate) fn evict(metrics: &EngineMetrics, table: &mut SessionTable, name: &str) {
    let Some(session) = table.live.remove(name) else {
        return;
    };
    if session.view_degraded {
        metrics.view_degraded.inc();
    }
    metrics.session_out();
    table.closed.insert(
        name.to_string(),
        SessionOutcome {
            session: name.to_string(),
            status: session.status().clone(),
            events: session.events,
            view_degraded: session.view_degraded,
            quarantined: session.quarantined,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::spec::parse_spec;
    use rega_data::{Database, Schema, Value};

    /// Shard routing is part of seeded replay: these assignments may only
    /// change together with a deliberate replay-format bump. The
    /// expected values are FNV-1a of the session name mod the shard
    /// count, computed once and pinned.
    #[test]
    fn shard_routing_is_pinned() {
        // (session, shards, expected shard)
        let pinned: &[(&str, usize, usize)] = &[
            ("", 8, 5), // FNV offset basis % 8
            ("alice", 8, 7),
            ("bob", 8, 4),
            ("carol", 8, 2),
            ("session-0", 8, 2),
            ("session-1", 8, 5),
            ("session-2", 8, 4),
            ("alice", 3, 2),
            ("bob", 3, 0),
            ("carol", 3, 1),
            ("alice", 1, 0),
        ];
        for &(name, shards, want) in pinned {
            assert_eq!(
                shard_index(name, shards),
                want,
                "shard assignment for {name:?} over {shards} shards drifted"
            );
        }
        // Spot-check the reference implementation directly.
        let fnv = |s: &str| -> u64 {
            s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for name in ["alice", "bob", "carol", "session-17", ""] {
            for shards in [1usize, 2, 3, 8, 16] {
                assert_eq!(
                    shard_index(name, shards),
                    (fnv(name) % shards as u64) as usize
                );
            }
        }
    }

    fn tiny_spec() -> CompiledSpec {
        let ext = parse_spec(
            "\
registers 1
state p init accept
trans p -> p : x1 = x1
",
        )
        .unwrap();
        CompiledSpec::compile(ext, Database::new(Schema::empty()), None).unwrap()
    }

    /// The quarantine budget boundary, exactly as documented: a session
    /// may accumulate *up to* `quarantine_cap` transport-faulty events and
    /// stay `Active`; the `cap + 1`-st evicts it as `QuarantineOverflow`.
    #[test]
    fn quarantine_budget_boundary_is_exact() {
        for cap in [1u64, 2, 5] {
            let spec = tiny_spec();
            let metrics = EngineMetrics::default();
            let mut table = SessionTable::default();
            // One valid step creates the session.
            let ok = Event::Step {
                session: "s".into(),
                state: "p".into(),
                regs: vec![Value(1)],
            };
            process(&spec, &metrics, &mut table, ok.clone(), 16, cap);
            assert_eq!(table.live["s"].status(), &SessionStatus::Active);
            // Exactly `cap` malformed events: counted, session survives.
            for i in 0..cap {
                let bad = Event::Step {
                    session: "s".into(),
                    state: "no-such-state".into(),
                    regs: vec![Value(2)],
                };
                process(&spec, &metrics, &mut table, bad, 16, cap);
                assert_eq!(
                    table.live["s"].status(),
                    &SessionStatus::Active,
                    "session evicted after {} malformed events with cap {cap}",
                    i + 1
                );
            }
            assert_eq!(table.live["s"].quarantined, cap);
            // The cap + 1-st malformed event tips the budget.
            let bad = Event::Step {
                session: "s".into(),
                state: "p".into(),
                regs: vec![], // wrong arity
            };
            process(&spec, &metrics, &mut table, bad, 16, cap);
            assert!(!table.live.contains_key("s"), "session must be evicted");
            assert_eq!(
                table.closed["s"].status,
                SessionStatus::Violated(ViolationKind::QuarantineOverflow)
            );
            assert_eq!(
                metrics.events_quarantined.get(),
                cap + 1,
                "every malformed event is counted, including the tipping one"
            );
        }
    }
}
