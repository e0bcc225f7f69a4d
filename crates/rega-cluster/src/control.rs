//! The control plane: worker supervision and assignment reconciliation.
//!
//! The control plane is transport-free: a state machine over heartbeat
//! timestamps and two [`Assignment`]s (desired vs. actual). Its one
//! caller is the [`Supervisor`](crate::supervisor::Supervisor), which
//! feeds it the time of its transport's clock: simulated milliseconds
//! under [`SimTransport`](crate::sim::SimTransport), wall-clock
//! milliseconds under [`ProcTransport`](crate::proc::ProcTransport). The
//! deadline, backoff and fencing decisions the chaos suite tests are
//! therefore the ones production takes.
//!
//! Failure detection is heartbeat-deadline based: a worker that has not
//! heartbeated within [`ControlConfig::heartbeat_deadline_ms`] is marked
//! [`WorkerState::Down`] and a respawn is planned under capped
//! exponential backoff with deterministic jitter. A worker that exhausts
//! [`ControlConfig::max_respawns`] becomes [`WorkerState::Failed`] —
//! permanently down; its shards fail over to a live worker.
//!
//! Reconciliation: [`ControlPlane::plan_migrations`] diffs desired vs.
//! actual ownership; the supervisor executes each migration (extract →
//! install) and calls [`ControlPlane::commit_migration`], which bumps the
//! actual epoch — the fencing token every node checks.

use crate::assign::{Assignment, Migration};

/// Supervision knobs. Defaults are sim-scale (milliseconds); the process
/// cluster widens the backoff.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// Silence longer than this marks the worker down.
    pub heartbeat_deadline_ms: u64,
    /// First respawn delay; doubles per consecutive failure.
    pub backoff_base_ms: u64,
    /// Upper bound the exponential backoff saturates at.
    pub backoff_cap_ms: u64,
    /// Consecutive respawns allowed before the worker is declared
    /// permanently failed.
    pub max_respawns: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            heartbeat_deadline_ms: 50,
            backoff_base_ms: 20,
            backoff_cap_ms: 500,
            max_respawns: u64::MAX,
            seed: 0,
        }
    }
}

impl ControlConfig {
    /// How long one delivery may wait for its owner before the supervisor
    /// gives up with [`ClusterError::Unavailable`](crate::ClusterError):
    /// two back-to-back supervision cycles, each a missed heartbeat
    /// deadline plus the longest jittered backoff.
    pub fn delivery_budget_ms(&self) -> u64 {
        2 * (self.heartbeat_deadline_ms + self.backoff_cap_ms + self.backoff_cap_ms / 2)
    }
}

/// Capped exponential backoff with deterministic jitter.
///
/// Delay for attempt `n` is `min(base · 2ⁿ, cap)` plus a jitter of up to
/// half that, drawn from FNV-1a of `(seed, n)` — fully reproducible under
/// a seed (the sim leans on this) while still decorrelating workers that
/// fail together (each worker's backoff carries a different seed).
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    seed: u64,
    /// Consecutive failures so far.
    pub attempts: u64,
}

impl Backoff {
    /// A fresh backoff at zero attempts.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            seed,
            attempts: 0,
        }
    }

    /// Registers a failure and returns the delay to wait before the next
    /// attempt.
    pub fn next_delay_ms(&mut self) -> u64 {
        let exp = self.attempts.min(32);
        self.attempts += 1;
        let raw = self
            .base_ms
            .saturating_mul(1u64 << exp)
            .min(self.cap_ms)
            .max(1);
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&self.seed.to_le_bytes());
        key[8..].copy_from_slice(&self.attempts.to_le_bytes());
        let jitter = rega_stream::fnv1a(&key) % (raw / 2 + 1);
        raw + jitter
    }

    /// Clears the failure streak after a successful recovery.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }
}

/// Supervision state of one worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Heartbeating within deadline.
    Up,
    /// Heartbeat deadline missed; a respawn is scheduled for `at_ms`.
    Down {
        /// Absolute time (ms) the planned respawn may proceed.
        respawn_at_ms: u64,
    },
    /// Respawn budget exhausted; the worker stays down.
    Failed,
}

/// Per-worker supervision record.
#[derive(Clone, Debug)]
pub struct WorkerHealth {
    /// Current supervision verdict.
    pub state: WorkerState,
    /// Last observed heartbeat, absolute ms.
    pub last_heartbeat_ms: u64,
    /// Respawn backoff, seeded per worker.
    pub backoff: Backoff,
    /// Total respawns performed.
    pub respawns: u64,
    /// When the last respawn came up, until the worker has stayed up
    /// past one heartbeat deadline and its backoff streak is cleared.
    pub respawned_at_ms: Option<u64>,
}

/// The assignment + supervision state machine. See the module docs.
pub struct ControlPlane {
    /// What the operator wants.
    pub desired: Assignment,
    /// What the cluster currently is. `actual.epoch` is the fencing
    /// epoch all requests are stamped with.
    pub actual: Assignment,
    workers: Vec<WorkerHealth>,
    config: ControlConfig,
}

impl ControlPlane {
    /// A control plane over `nodes` workers with a balanced initial
    /// assignment at epoch 1, all workers assumed up at time `now_ms`.
    pub fn new(nodes: usize, config: ControlConfig, now_ms: u64) -> ControlPlane {
        let assignment = Assignment::balanced(1, nodes);
        ControlPlane {
            desired: assignment.clone(),
            actual: assignment,
            workers: (0..nodes)
                .map(|n| WorkerHealth {
                    state: WorkerState::Up,
                    last_heartbeat_ms: now_ms,
                    backoff: Backoff::new(
                        config.backoff_base_ms,
                        config.backoff_cap_ms,
                        config.seed ^ rega_stream::fnv1a(&(n as u64).to_le_bytes()),
                    ),
                    respawns: 0,
                    respawned_at_ms: None,
                })
                .collect(),
            config,
        }
    }

    /// The supervision record of worker `node`.
    pub fn worker(&self, node: usize) -> &WorkerHealth {
        &self.workers[node]
    }

    /// Number of supervised workers.
    pub fn nodes(&self) -> usize {
        self.workers.len()
    }

    /// Records a heartbeat. A `Down` worker heartbeating again (a healed
    /// partition) goes back `Up` and its backoff resets. A respawned
    /// worker's streak clears once it heartbeats more than one deadline
    /// after the respawn, so a crash loop still climbs the backoff and
    /// counts toward [`ControlConfig::max_respawns`]. `Failed` is terminal.
    pub fn note_heartbeat(&mut self, node: usize, now_ms: u64) {
        let deadline = self.config.heartbeat_deadline_ms;
        let w = &mut self.workers[node];
        w.last_heartbeat_ms = now_ms;
        match w.state {
            WorkerState::Failed => {}
            WorkerState::Down { .. } => {
                w.backoff.reset();
                w.state = WorkerState::Up;
            }
            WorkerState::Up => {
                if w.respawned_at_ms
                    .is_some_and(|at| now_ms.saturating_sub(at) > deadline)
                {
                    w.backoff.reset();
                    w.respawned_at_ms = None;
                }
            }
        }
    }

    /// Sweeps heartbeat deadlines. Workers newly past the deadline are
    /// marked `Down` with a respawn scheduled under their backoff (or
    /// `Failed` once the budget is exhausted); returns the indices that
    /// changed state this sweep.
    pub fn check_deadlines(&mut self, now_ms: u64) -> Vec<usize> {
        let deadline = self.config.heartbeat_deadline_ms;
        let max = self.config.max_respawns;
        let mut tripped = Vec::new();
        for (n, w) in self.workers.iter_mut().enumerate() {
            if matches!(w.state, WorkerState::Up)
                && now_ms.saturating_sub(w.last_heartbeat_ms) > deadline
            {
                w.state = if w.backoff.attempts >= max {
                    WorkerState::Failed
                } else {
                    let delay = w.backoff.next_delay_ms();
                    WorkerState::Down {
                        respawn_at_ms: now_ms + delay,
                    }
                };
                tripped.push(n);
            }
        }
        tripped
    }

    /// Workers whose scheduled respawn time has arrived.
    pub fn due_respawns(&self, now_ms: u64) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter_map(|(n, w)| match w.state {
                WorkerState::Down { respawn_at_ms } if now_ms >= respawn_at_ms => Some(n),
                _ => None,
            })
            .collect()
    }

    /// Records that the supervisor respawned worker `node` (it will mark
    /// itself `Up` with its first heartbeat).
    pub fn note_respawned(&mut self, node: usize, now_ms: u64) {
        let w = &mut self.workers[node];
        w.respawns += 1;
        w.last_heartbeat_ms = now_ms;
        w.respawned_at_ms = Some(now_ms);
        w.state = WorkerState::Up;
    }

    /// The transfers still needed to make actual match desired.
    pub fn plan_migrations(&self) -> Vec<Migration> {
        self.actual.diff(&self.desired)
    }

    /// Commits one completed transfer: actual ownership changes and the
    /// fencing epoch bumps.
    pub fn commit_migration(&mut self, m: &Migration) {
        self.actual.commit(m);
    }

    /// Operator intent: move `vshards` to `to` (bumps the desired epoch;
    /// the reconcile loop converges actual toward it).
    pub fn retarget(&mut self, vshards: &[usize], to: usize) {
        self.desired.retarget(vshards, to);
    }

    /// Whether actual matches desired (no migrations pending).
    pub fn converged(&self) -> bool {
        self.plan_migrations().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let mut b = Backoff::new(20, 500, 0xABCD);
        let mut prev_raw = 0;
        for attempt in 0..12 {
            let raw = 20u64.saturating_mul(1 << attempt).min(500);
            let d = b.next_delay_ms();
            assert!(
                d >= raw && d <= raw + raw / 2,
                "attempt {attempt}: delay {d} outside [{raw}, {}]",
                raw + raw / 2
            );
            assert!(raw >= prev_raw, "raw schedule must be nondecreasing");
            prev_raw = raw;
        }
        // Deterministic under the same seed...
        let mut c = Backoff::new(20, 500, 0xABCD);
        let mut b2 = Backoff::new(20, 500, 0xABCD);
        assert_eq!(c.next_delay_ms(), b2.next_delay_ms());
        // ...and reset clears the streak.
        c.reset();
        assert_eq!(c.attempts, 0);
    }

    #[test]
    fn deadline_trip_schedules_respawn_and_budget_exhaustion_fails() {
        let config = ControlConfig {
            heartbeat_deadline_ms: 50,
            max_respawns: 2,
            ..ControlConfig::default()
        };
        let mut cp = ControlPlane::new(2, config, 0);
        // Worker 1 heartbeats; worker 0 goes silent past the deadline.
        cp.note_heartbeat(1, 60);
        assert_eq!(cp.check_deadlines(60), vec![0]);
        let WorkerState::Down { respawn_at_ms } = cp.worker(0).state else {
            panic!("worker 0 must be Down");
        };
        assert!(respawn_at_ms > 60, "respawn must be delayed by backoff");
        assert!(cp.due_respawns(respawn_at_ms - 1).is_empty());
        assert_eq!(cp.due_respawns(respawn_at_ms), vec![0]);
        cp.note_respawned(0, respawn_at_ms);
        assert_eq!(cp.worker(0).respawns, 1);
        // Second silence: budget 2 → still a timed respawn. Third: Failed.
        // (Worker 1 keeps heartbeating throughout.)
        cp.note_heartbeat(1, respawn_at_ms + 100);
        assert_eq!(cp.check_deadlines(respawn_at_ms + 100), vec![0]);
        let at = match cp.worker(0).state {
            WorkerState::Down { respawn_at_ms } => respawn_at_ms,
            ref s => panic!("expected Down, got {s:?}"),
        };
        cp.note_respawned(0, at);
        cp.note_heartbeat(1, at + 100);
        assert_eq!(cp.check_deadlines(at + 100), vec![0]);
        assert_eq!(cp.worker(0).state, WorkerState::Failed);
        // A heartbeat cannot resurrect a Failed worker.
        cp.note_heartbeat(0, at + 200);
        assert_eq!(cp.worker(0).state, WorkerState::Failed);
    }

    #[test]
    fn heartbeat_resets_backoff_streak() {
        let mut cp = ControlPlane::new(1, ControlConfig::default(), 0);
        assert_eq!(cp.check_deadlines(100), vec![0]);
        assert_eq!(cp.worker(0).backoff.attempts, 1);
        // The worker reappears (healed partition): Up again, streak clear.
        cp.note_heartbeat(0, 150);
        assert_eq!(cp.worker(0).state, WorkerState::Up);
        assert_eq!(cp.worker(0).backoff.attempts, 0);
    }

    #[test]
    fn respawned_worker_clears_its_streak_after_staying_up() {
        let mut cp = ControlPlane::new(1, ControlConfig::default(), 0);
        assert_eq!(cp.check_deadlines(100), vec![0]);
        cp.note_respawned(0, 150);
        // Heartbeats within one deadline of the respawn keep the streak:
        // a worker that crashes again at once backs off longer.
        cp.note_heartbeat(0, 190);
        assert_eq!(cp.worker(0).backoff.attempts, 1);
        // Up for longer than a deadline: the respawn held, streak clear.
        cp.note_heartbeat(0, 201);
        assert_eq!(cp.worker(0).backoff.attempts, 0);
        assert_eq!(cp.worker(0).state, WorkerState::Up);
    }

    #[test]
    fn reconcile_plan_tracks_desired() {
        let mut cp = ControlPlane::new(2, ControlConfig::default(), 0);
        assert!(cp.converged());
        cp.retarget(&[0, 1], 1);
        let plan = cp.plan_migrations();
        assert_eq!(plan.len(), 1);
        let before = cp.actual.epoch;
        cp.commit_migration(&plan[0]);
        assert!(cp.converged());
        assert_eq!(cp.actual.epoch, before + 1, "commit bumps the epoch");
    }
}
