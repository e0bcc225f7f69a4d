//! Seeded fault injection.
//!
//! A [`FaultPlan`] describes, with probabilities drawn from a seeded RNG,
//! the failures a deployed multi-session monitor sees: worker panics (the
//! worker catches the unwind, keeps its session table, and resumes — the
//! event being processed is retried once), processing stalls (back-pressure
//! up to the producer), and transport-level corruption (events with a
//! mangled register tuple or an unknown control state, and duplicated
//! terminal events). The same plan drives both the threaded engine
//! (each worker derives its own RNG stream from the seed) and the
//! deterministic [`SimScheduler`](crate::sim::SimScheduler), where every
//! draw is replayable.
//!
//! Corrupt and duplicate injections are *transport* faults: with a lenient
//! [`quarantine_cap`](crate::engine::EngineConfig::quarantine_cap) the
//! engine routes them to the quarantine counters without touching session
//! state, so verdicts under any fault plan equal the fault-free run — the
//! invariant the `stream_faults` suite checks for hundreds of random plans.

use crate::event::Event;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Control-state name used for injected "unknown state" corruption; no
/// spec parsed by `rega_core::spec` can contain it (names are
/// whitespace-delimited words, and this one carries a `\u{1}` byte).
pub const CORRUPT_STATE: &str = "\u{1}corrupt";

/// A seeded description of which faults to inject, configured via
/// [`EngineConfig::fault`](crate::engine::EngineConfig). The default plan
/// injects nothing.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for every injection draw (and the simulation schedule).
    pub seed: u64,
    /// Per-delivery probability that the worker panics before processing
    /// the event. The panic is caught; the worker resumes with its shard
    /// state intact and retries the event once (a second panic on the same
    /// event quarantines it and evicts its session as poisoned).
    pub panic_prob: f64,
    /// Number of injected panics a worker survives before giving up and
    /// exiting; submissions then observe dead workers as
    /// [`SubmitError::WorkersDead`](crate::engine::SubmitError::WorkersDead).
    pub max_respawns: u64,
    /// Per-delivery probability that processing stalls for [`stall_ns`](Self::stall_ns).
    pub stall_prob: f64,
    /// Stall duration (simulated time in the sim scheduler, a real sleep in
    /// the threaded one).
    pub stall_ns: u64,
    /// Per-submit probability that a corrupted copy of the event (wrong
    /// register arity or an unknown control state) is injected right after
    /// it.
    pub corrupt_prob: f64,
    /// Per-submit probability that a terminal event is delivered twice
    /// (the duplicate lands on the post-eviction path).
    pub dup_end_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_prob: 0.0,
            max_respawns: u64::MAX,
            stall_prob: 0.0,
            stall_ns: 0,
            corrupt_prob: 0.0,
            dup_end_prob: 0.0,
        }
    }
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.panic_prob > 0.0
            || self.stall_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.dup_end_prob > 0.0
    }
}

/// One party's seeded view of a [`FaultPlan`]: the producer and each worker
/// hold their own injector so the threaded scheduler needs no cross-thread
/// RNG state, and the simulation gets one deterministic stream.
#[derive(Clone, Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    panics: u64,
}

impl FaultInjector {
    /// The injector for stream `index` (worker index, or a distinct
    /// constant for the producer side).
    pub(crate) fn new(plan: &FaultPlan, index: u64) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(
                plan.seed ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            plan: plan.clone(),
            panics: 0,
        }
    }

    /// Whether this injector can ever fire (mirrors
    /// [`FaultPlan::is_active`]). Lets the hot path skip fault draws and
    /// envelope bookkeeping entirely when the plan is empty.
    pub(crate) fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Draws whether this delivery panics. Counts towards the respawn
    /// budget; when the budget is exhausted the caller must stop instead.
    pub(crate) fn should_panic(&mut self) -> bool {
        self.plan.panic_prob > 0.0 && self.rng.gen_bool(self.plan.panic_prob)
    }

    /// Registers one injected panic; returns `false` when the respawn
    /// budget is exhausted and the worker should exit for good.
    pub(crate) fn respawn(&mut self) -> bool {
        self.panics += 1;
        self.panics <= self.plan.max_respawns
    }

    /// Draws a stall for this delivery, in nanoseconds.
    pub(crate) fn stall_ns(&mut self) -> Option<u64> {
        (self.plan.stall_prob > 0.0 && self.rng.gen_bool(self.plan.stall_prob))
            .then_some(self.plan.stall_ns)
    }

    /// Draws the transport faults to inject after accepting `event`:
    /// a corrupted copy and/or a duplicated terminal event.
    pub(crate) fn injected_copies(&mut self, event: &Event) -> Vec<Event> {
        let mut out = Vec::new();
        if self.plan.corrupt_prob > 0.0 && self.rng.gen_bool(self.plan.corrupt_prob) {
            if let Some(bad) = self.corrupt_copy(event) {
                out.push(bad);
            }
        }
        if let Event::End { session } = event {
            if self.plan.dup_end_prob > 0.0 && self.rng.gen_bool(self.plan.dup_end_prob) {
                out.push(Event::End {
                    session: session.clone(),
                });
            }
        }
        out
    }

    /// A transport-corrupted copy of a step event: either the register
    /// tuple loses/gains an entry (arity fault) or the control state is
    /// replaced by [`CORRUPT_STATE`]. `End` events are not corrupted (a
    /// mangled `End` is indistinguishable from a legitimate one).
    fn corrupt_copy(&mut self, event: &Event) -> Option<Event> {
        let Event::Step {
            session,
            state,
            regs,
        } = event
        else {
            return None;
        };
        Some(if self.rng.gen_bool(0.5) && !regs.is_empty() {
            let mut bad = regs.clone();
            bad.pop();
            Event::Step {
                session: session.clone(),
                state: state.clone(),
                regs: bad,
            }
        } else {
            Event::Step {
                session: session.clone(),
                state: CORRUPT_STATE.to_string(),
                regs: regs.clone(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_data::Value;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(&plan, 0);
        let step = Event::Step {
            session: "s".into(),
            state: "q".into(),
            regs: vec![Value(1)],
        };
        for _ in 0..100 {
            assert!(!inj.should_panic());
            assert!(inj.stall_ns().is_none());
            assert!(inj.injected_copies(&step).is_empty());
        }
    }

    #[test]
    fn injections_are_deterministic_per_seed_and_index() {
        let plan = FaultPlan {
            seed: 42,
            panic_prob: 0.3,
            corrupt_prob: 0.5,
            dup_end_prob: 0.5,
            stall_prob: 0.2,
            stall_ns: 10,
            ..FaultPlan::default()
        };
        let end = Event::End {
            session: "s".into(),
        };
        let draw = |mut inj: FaultInjector| {
            (0..64)
                .map(|_| {
                    (
                        inj.should_panic(),
                        inj.stall_ns(),
                        inj.injected_copies(&end).len(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let a = draw(FaultInjector::new(&plan, 3));
        let b = draw(FaultInjector::new(&plan, 3));
        assert_eq!(a, b, "same seed and index must replay identically");
        let c = draw(FaultInjector::new(&plan, 4));
        assert_ne!(a, c, "different workers should see different streams");
    }

    #[test]
    fn corrupt_copies_are_detectably_malformed() {
        let plan = FaultPlan {
            seed: 7,
            corrupt_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 0);
        let step = Event::Step {
            session: "s".into(),
            state: "q".into(),
            regs: vec![Value(1), Value(2)],
        };
        for _ in 0..32 {
            for bad in inj.injected_copies(&step) {
                let Event::Step { state, regs, .. } = &bad else {
                    panic!("step corruption must stay a step event");
                };
                assert!(
                    state == CORRUPT_STATE || regs.len() != 2,
                    "injected copy must be transport-detectable"
                );
            }
        }
    }
}
