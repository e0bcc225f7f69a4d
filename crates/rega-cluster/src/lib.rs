//! Supervised multi-process scale-out for register-automaton view
//! monitoring.
//!
//! This crate turns the single-process [`rega_stream::Engine`] into a
//! small cluster: sessions hash onto [`assign::VSHARDS`] virtual shards,
//! a control plane assigns shard ranges to worker nodes, and a reconcile
//! loop converges actual ownership toward desired by draining,
//! extracting, and installing session state over epoch-fenced bundles.
//! The moving parts:
//!
//! * [`assign`] — virtual-shard routing, [`assign::Assignment`] epochs,
//!   and the desired-vs-actual diff that yields migrations;
//! * [`control`] — heartbeat-deadline failure detection, capped
//!   exponential backoff with deterministic jitter, respawn budgets — one
//!   policy for both transports;
//! * [`node`] — the per-worker agent: epoch fence, rebalancing window,
//!   per-vshard sequence dedup, extract/install/checkpoint;
//! * [`supervisor`] — the one [`Supervisor`]: ingress journal, per-vshard
//!   sequencing, the delivery retry loop, rebuild from checkpoint plus
//!   journal replay, reconcile and two-phase migration, shutdown — generic
//!   over a [`Transport`];
//! * [`sim`] — the deterministic in-memory transport with seeded chaos
//!   (crashes, partitions, lost acks, forced rebalances), which the
//!   differential tests use to pin cluster verdicts to a single-process
//!   baseline;
//! * [`proc`] — real worker processes over the length-prefixed
//!   `rega-serve` wire framing, and the worker side of that protocol;
//! * [`error`] — the typed failure taxonomy ([`ClusterError`]), including
//!   the graceful-degradation `rebalancing` rejection and the
//!   `stale-epoch` fence;
//! * [`metrics`] — `cluster.*` counters/gauges in a shared
//!   [`rega_obs::Registry`].
//!
//! # Robustness contract
//!
//! 1. **At-most-once apply.** Every event carries a per-vshard sequence
//!    number; nodes drop anything at or below their applied watermark.
//!    Combined with the epoch fence (requests from any other assignment
//!    epoch are rejected before state is touched), no event is ever
//!    applied twice — not by a slow old owner, not by a redelivery, not
//!    by a crash replay.
//! 2. **Zero loss.** The ingress journal is the source of truth; crashed
//!    workers are rebuilt from their last durable checkpoint plus an
//!    in-order replay of everything newer. Deterministic monitors make
//!    the rebuilt state byte-identical.
//! 3. **Graceful degradation.** A shard range in mid-migration answers
//!    with a typed `rebalancing` error and a retry delay instead of
//!    blocking or dropping; overload at the serve layer sheds with
//!    `overloaded` the same way.

pub mod assign;
pub mod control;
pub mod error;
pub mod metrics;
pub mod node;
pub mod proc;
pub mod sim;
pub mod supervisor;

pub use assign::{vshard, Assignment, Migration, VSHARDS};
pub use control::{Backoff, ControlConfig, ControlPlane, WorkerState};
pub use error::ClusterError;
pub use metrics::ClusterMetrics;
pub use node::{Applied, NodeAgent};
pub use proc::{maybe_worker_entry, ProcCluster, ProcTransport};
pub use sim::{ClusterFaultPlan, SimCluster, SimTransport};
pub use supervisor::{ClusterReport, Supervisor, Transport};
