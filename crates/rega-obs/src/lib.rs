//! `rega-obs` — the observability substrate of the rega workspace.
//!
//! The paper's constructions (`SControl(A)`, the projection views, the
//! chase, Büchi emptiness) are exponential-prone pipelines; when a run
//! takes seconds the interesting question is *which phase* and *how many
//! σ-types*. This crate makes that visible with three std-only pieces:
//!
//! * **Tracing** ([`trace`], [`sink`]): a thread-local span stack with
//!   timestamps from an injectable [`ObsClock`] ([`clock`]) and pluggable
//!   sinks — a JSONL writer for offline analysis, an in-memory collector
//!   for tests, and a no-op default whose cost is one relaxed atomic load
//!   per span. The [`span!`] and [`event!`] macros compile to nothing with
//!   the `trace` feature disabled.
//! * **Request context** ([`context`]): a per-thread request id installed
//!   by the serving stack; every span and event automatically carries it
//!   as a `request` field, and workers re-install it from their envelopes,
//!   so one trace stitches client request → shard work → kernel decision.
//! * **Metrics** ([`metrics`], [`expose`]): lock-free [`Counter`]/
//!   [`Gauge`]/[`Histogram`] handles, registered by name in a [`Registry`]
//!   (one process-wide [`global()`] registry plus per-engine instances),
//!   snapshotted as JSON or rendered in the Prometheus text exposition
//!   format.
//! * **Reporting** ([`report`]): parses a JSONL trace back into a
//!   per-span wall-time tree — globally and grouped per request id — plus
//!   the latest structured values; the engine behind `rega trace-report`.
//!
//! Tracing is *process-global* and opt-in: nothing is recorded until a
//! sink is [`install`](trace::install)ed. Installation takes a
//! process-wide lock released when the returned guard drops, so
//! concurrent tests serialize instead of corrupting each other's traces.

pub mod clock;
pub mod context;
pub mod expose;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod trace;

pub use clock::{ManualClock, MonotonicClock, ObsClock};
pub use context::{active_request, current_request, RequestGuard};
pub use expose::{render_prometheus, sanitize_metric_name};
pub use metrics::{global, sanitize_segment, Counter, Gauge, Histogram, Registry, ScopedRegistry};
pub use sink::{JsonlSink, MemorySink, TraceSink};
pub use trace::{
    install, install_jsonl, install_memory, is_active, FieldValue, SinkGuard, SpanGuard,
    TraceEvent, TraceEventKind,
};
