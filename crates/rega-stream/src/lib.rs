#![warn(missing_docs)]

//! `rega-stream` — a sharded, multi-session streaming engine that monitors
//! many concurrent runs of one register automaton (and, optionally, the
//! consistency of their projection view) against a single compiled
//! specification.
//!
//! The paper's workflow reading motivates the shape: a specification like
//! the reviewing workflow (Example 1 / Section 5) describes *one* paper's
//! lifecycle, but a deployed system processes thousands of papers at once,
//! each an independent run of the same automaton, with events arriving as
//! one interleaved stream. The engine demultiplexes that stream:
//!
//! * [`spec::CompiledSpec`] — everything derived from the automaton once,
//!   shared read-only (`Arc`) across all sessions and workers: state-name
//!   table, per-state transition indices, the global-constraint DFAs, and
//!   optionally the Proposition 20 / Theorem 13 projection view for
//!   observer checking.
//! * [`session::Session`] — the per-run mutable state: current
//!   configuration, the incremental
//!   [`ConstraintMonitor`](rega_core::monitor::ConstraintMonitor), the
//!   one-step-reachable control-state set, and an optional
//!   [`ViewObserver`](rega_views::ViewObserver) fed the projected tuple.
//! * [`engine::Engine`] — sessions are hashed onto shards; each shard has a
//!   bounded queue consumed by exactly one worker thread (so per-session
//!   event order is preserved), workers own ⌈shards/workers⌉ queues, and a
//!   full queue back-pressures the producer. Sessions are evicted on their
//!   terminal event, keeping resident state proportional to the number of
//!   *live* sessions, not the number ever seen.
//! * [`metrics::EngineMetrics`] — a per-engine [`rega_obs`] metrics
//!   registry: lock-free counters, queue-depth gauges per shard, and
//!   coarse power-of-two latency histograms, exportable as JSON.
//!
//! Failure semantics and testability (see the README's "Failure
//! semantics" section for the full contract):
//!
//! * [`scheduler::Scheduler`] abstracts *how* events execute. The
//!   production [`scheduler::ThreadedScheduler`] runs the worker pool; the
//!   deterministic [`sim::SimScheduler`] interleaves shard polls from a
//!   seeded RNG on one thread with a simulated [`clock::SimClock`], so
//!   whole runs — verdicts, quarantine counts, metrics snapshots — replay
//!   bit-for-bit per seed.
//! * [`fault::FaultPlan`] injects worker panics (caught and respawned with
//!   session state intact), processing stalls, and transport-corrupt /
//!   duplicated events, which lenient engines quarantine instead of
//!   violating on.
//! * [`snapshot`] serializes a drained engine's complete monitoring state
//!   so a restarted engine resumes mid-stream with identical verdicts.
//!
//! Everything is built on `std` (`std::thread`, `std::sync::mpsc`); the
//! engine introduces no external dependencies.

pub mod clock;
pub mod engine;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod persist;
pub mod scheduler;
pub mod session;
pub mod sim;
pub mod snapshot;
pub mod spec;

pub use clock::{Clock, SimClock, SystemClock};
pub use engine::{Engine, EngineConfig, EngineReport, SessionOutcome, SubmitError};
pub use event::{
    decode_event, decode_event_checked, parse_event, parse_event_checked, parse_event_located,
    Event, EventError, LocatedEventError,
};
pub use fault::FaultPlan;
pub use metrics::EngineMetrics;
pub use persist::{fnv1a, PersistError};
pub use scheduler::{EngineHandle, Scheduler, ThreadedScheduler};
pub use session::{Session, SessionStatus, ViolationKind};
pub use sim::SimScheduler;
pub use snapshot::SnapshotError;
pub use spec::CompiledSpec;
