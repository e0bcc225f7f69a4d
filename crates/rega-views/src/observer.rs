//! Online observation of a projection view: does an observed stream of
//! visible register tuples stay consistent with the view automaton?
//!
//! The view produced by [`prop20`](crate::prop20) (or
//! [`thm13`](crate::thm13)) is a *nondeterministic* extended automaton over
//! the visible registers. The observer runs the standard online subset
//! simulation: it maintains a frontier of possible configurations — pairs
//! of a view control state and the incremental
//! [`ConstraintMonitor`](rega_core::monitor::ConstraintMonitor) state for
//! the view's global constraints — and advances every configuration on each
//! observed tuple. Because all of the view's registers are visible, an
//! observed tuple fully determines the register contents; the only
//! nondeterminism is in the control state and the constraint bookkeeping.
//!
//! The check is **safety-only** (prefix consistency): an empty frontier
//! proves no run of the view produces the observed prefix; a non-empty
//! frontier means some finite run does. Büchi acceptance of infinite
//! continuations is *not* decided here — that is the lasso checker's job.
//!
//! Frontiers are deduplicated exactly by (state, monitor configuration)
//! and capped; past the cap the observer degrades soundly to three-valued
//! answers (`Unknown` instead of `Violation` once configurations may have
//! been dropped).
//!
//! A step costs time in the successors' live monitor runs only and, once
//! warmed up, allocates nothing: each successor is written by
//! [`ConstraintMonitor::step_into`] into a monitor recycled from earlier
//! steps, and duplicates are found through a hash table of indices into
//! the successor list. The recycled buffers are bounded by the frontier
//! and its successors, and freed when the frontier dies.

use rega_core::monitor::{ConstraintMonitor, ExportedSlots};
use rega_core::{ExtendedAutomaton, StateId};
use rega_data::{Database, Value};
use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, Hash, Hasher};

/// Default bound on the number of simultaneously tracked view
/// configurations.
pub const DEFAULT_MAX_FRONTIER: usize = 256;

/// Result of feeding one observed tuple to the observer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Some run of the view produces the observed prefix.
    Consistent,
    /// No run of the view produces the observed prefix.
    Violation,
    /// The frontier overflowed earlier and is now empty: the observed
    /// prefix may or may not be producible (dropped configurations could
    /// have survived).
    Unknown,
}

/// Online subset-simulation of a projection view.
///
/// Like the monitor it wraps, the observer owns only its mutable state; the
/// view automaton is borrowed per [`observe`](Self::observe) call, so many
/// observers (one per streaming session) can share one compiled view.
#[derive(Clone, Debug)]
pub struct ViewObserver {
    /// Possible (control state, constraint state) configurations after the
    /// observed prefix.
    frontier: Vec<(StateId, ConstraintMonitor)>,
    /// The previously observed tuple (the view's current register
    /// contents), shared by every frontier configuration.
    last_regs: Option<Vec<Value>>,
    max_frontier: usize,
    overflowed: bool,
    dead: bool,
    /// Successor-list and buffer reuse between steps (not observer state:
    /// never exported, and cloned empty).
    scratch: Scratch,
}

/// The buffers one [`ViewObserver::observe`] call builds the next
/// frontier in, kept between calls so a step does not allocate.
#[derive(Debug)]
struct Scratch {
    /// The successor frontier under construction, in discovery order.
    next: Vec<(StateId, ConstraintMonitor)>,
    /// Open-addressing table of indices into `next` (`EMPTY` = free);
    /// its length is a power of two at least twice `next.len()`.
    table: Vec<u32>,
    /// Monitors whose buffers the next successors are written into.
    pool: Vec<ConstraintMonitor>,
    /// Random key of the table's hash, so register values a client
    /// chooses cannot be aimed at one bucket. Even colliding keys cost at
    /// most `max_frontier + 1` comparisons per successor, as the table
    /// never holds more entries.
    seed: u64,
}

const EMPTY: u32 = u32::MAX;

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            next: Vec::new(),
            table: Vec::new(),
            pool: Vec::new(),
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// The multiply-rotate hash of the Fx scheme, with a final avalanche so
/// the table can index by the low bits. The keys are short integer
/// sequences, on which SipHash would cost as much as the step itself.
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^ (z >> 33)
    }
}

impl Scratch {
    /// Starts a successor list expected to grow to about `expect`
    /// entries.
    fn begin(&mut self, expect: usize) {
        debug_assert!(self.next.is_empty());
        self.table.clear();
        self.table
            .resize((2 * expect + 2).next_power_of_two().max(16), EMPTY);
    }

    fn slot_of(&self, state: StateId, monitor: &ConstraintMonitor) -> usize {
        let mut hasher = FxHasher(self.seed);
        state.hash(&mut hasher);
        monitor.hash(&mut hasher);
        hasher.finish() as usize & (self.table.len() - 1)
    }

    /// Steps `from` into a recycled monitor and appends the successor
    /// `(to, ·)` unless the step violates a constraint or the
    /// configuration is already listed.
    fn push_successor(
        &mut self,
        view: &ExtendedAutomaton,
        from: &ConstraintMonitor,
        to: StateId,
        regs: &[Value],
    ) {
        let mut monitor = self
            .pool
            .pop()
            .unwrap_or_else(|| ConstraintMonitor::new(view));
        if from.step_into(view, to, regs, &mut monitor).is_some() {
            self.pool.push(monitor);
            return;
        }
        let mask = self.table.len() - 1;
        let mut at = self.slot_of(to, &monitor);
        // `EMPTY` indexes past the end of `next`.
        while let Some((state, listed)) = self.next.get(self.table[at] as usize) {
            if *state == to && *listed == monitor {
                self.pool.push(monitor);
                return;
            }
            at = (at + 1) & mask;
        }
        self.table[at] = self.next.len() as u32;
        self.next.push((to, monitor));
        if 2 * self.next.len() > self.table.len() {
            let size = 2 * self.table.len();
            self.table.clear();
            self.table.resize(size, EMPTY);
            for i in 0..self.next.len() {
                let (state, monitor) = &self.next[i];
                let mut at = self.slot_of(*state, monitor);
                while self.table[at] != EMPTY {
                    at = (at + 1) & (size - 1);
                }
                self.table[at] = i as u32;
            }
        }
    }
}

impl ViewObserver {
    /// A fresh observer (no tuple observed yet) with the default frontier
    /// bound.
    pub fn new() -> Self {
        Self::with_max_frontier(DEFAULT_MAX_FRONTIER)
    }

    /// A fresh observer with an explicit frontier bound (≥ 1).
    pub fn with_max_frontier(max_frontier: usize) -> Self {
        ViewObserver {
            frontier: Vec::new(),
            last_regs: None,
            max_frontier: max_frontier.max(1),
            overflowed: false,
            dead: false,
            scratch: Scratch::default(),
        }
    }

    /// Number of configurations currently tracked.
    pub fn frontier_size(&self) -> usize {
        self.frontier.len()
    }

    /// Whether the frontier bound was ever hit (verdicts degraded to
    /// [`Verdict::Unknown`] on emptiness from then on).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The set of view control states the observed prefix may be in.
    pub fn possible_states(&self) -> BTreeSet<StateId> {
        self.frontier.iter().map(|(s, _)| *s).collect()
    }

    /// Feeds the next observed visible tuple. `view` must be the same
    /// extended automaton on every call and `regs` must have exactly the
    /// view's register count.
    pub fn observe(&mut self, view: &ExtendedAutomaton, db: &Database, regs: &[Value]) -> Verdict {
        assert_eq!(
            regs.len(),
            view.ra().k() as usize,
            "observed tuple arity must match the view's register count"
        );
        if self.dead {
            return self.empty_verdict();
        }
        let ra = view.ra();
        // Once `max_frontier + 1` distinct successors are listed the kept
        // prefix and the overflow flag are settled: later candidates could
        // only be duplicates or get truncated away.
        let limit = self.max_frontier.saturating_add(1);
        let scratch = &mut self.scratch;
        scratch.begin(self.frontier.len());
        match &self.last_regs {
            None => {
                // First observation: any initial state, registers loaded
                // with the observed tuple, monitor consuming position 0.
                let fresh = ConstraintMonitor::new(view);
                for state in ra.initial_states() {
                    if scratch.next.len() == limit {
                        break;
                    }
                    scratch.push_successor(view, &fresh, state, regs);
                }
            }
            Some(prev) => {
                'frontier: for (state, monitor) in &self.frontier {
                    for &t in ra.outgoing(*state) {
                        if scratch.next.len() == limit {
                            break 'frontier;
                        }
                        let tr = ra.transition(t);
                        if tr.ty.satisfied_by(db, prev, regs) {
                            scratch.push_successor(view, monitor, tr.to, regs);
                        }
                    }
                }
            }
        }
        if scratch.next.len() > self.max_frontier {
            let dropped = scratch.next.drain(self.max_frontier..);
            scratch.pool.extend(dropped.map(|(_, m)| m));
            self.overflowed = true;
        }
        std::mem::swap(&mut self.frontier, &mut scratch.next);
        scratch.pool.extend(scratch.next.drain(..).map(|(_, m)| m));
        // Keep as many spare monitors as the next step can fill.
        scratch.pool.truncate(self.frontier.len() + 1);
        match &mut self.last_regs {
            Some(last) => last.copy_from_slice(regs),
            None => self.last_regs = Some(regs.to_vec()),
        }
        if self.frontier.is_empty() {
            self.dead = true;
            self.scratch = Scratch::default();
            self.empty_verdict()
        } else {
            Verdict::Consistent
        }
    }

    fn empty_verdict(&self) -> Verdict {
        if self.overflowed {
            Verdict::Unknown
        } else {
            Verdict::Violation
        }
    }

    /// Exports the observer state as plain data (see [`ObserverSnapshot`]);
    /// the inverse of [`from_snapshot`](Self::from_snapshot).
    pub fn export(&self) -> ObserverSnapshot {
        ObserverSnapshot {
            frontier: self
                .frontier
                .iter()
                .map(|(s, m)| (*s, m.export_slots()))
                .collect(),
            last_regs: self.last_regs.clone(),
            max_frontier: self.max_frontier,
            overflowed: self.overflowed,
            dead: self.dead,
        }
    }

    /// Rebuilds an observer from an exported snapshot against the same view
    /// automaton. Returns `None` when the snapshot does not fit `view`
    /// (out-of-range control state or malformed monitor slots).
    pub fn from_snapshot(view: &ExtendedAutomaton, snap: &ObserverSnapshot) -> Option<Self> {
        let mut frontier = Vec::with_capacity(snap.frontier.len());
        for (state, slots) in &snap.frontier {
            if state.0 as usize >= view.ra().num_states() {
                return None;
            }
            frontier.push((*state, ConstraintMonitor::from_slots(view, slots)?));
        }
        if let Some(regs) = &snap.last_regs {
            if regs.len() != view.ra().k() as usize {
                return None;
            }
        }
        Some(ViewObserver {
            frontier,
            last_regs: snap.last_regs.clone(),
            max_frontier: snap.max_frontier.max(1),
            overflowed: snap.overflowed,
            dead: snap.dead,
            scratch: Scratch::default(),
        })
    }
}

/// A plain-data export of a [`ViewObserver`]'s state, for snapshot /
/// restore of in-flight streaming sessions. The monitor states use the
/// sparse-slot encoding of
/// [`ConstraintMonitor::export_slots`](rega_core::monitor::ConstraintMonitor::export_slots);
/// serialization to a wire format is the caller's concern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObserverSnapshot {
    /// The tracked (control state, monitor slots) configurations.
    pub frontier: Vec<(StateId, ExportedSlots)>,
    /// The previously observed visible tuple, if any.
    pub last_regs: Option<Vec<Value>>,
    /// The frontier bound.
    pub max_frontier: usize,
    /// Whether the bound was ever hit.
    pub overflowed: bool,
    /// Whether the frontier emptied (verdicts are terminal).
    pub dead: bool,
}

impl Default for ViewObserver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop20::project_register_automaton;
    use rega_core::generate::{random_automaton, GenParams};
    use rega_core::simulate::{self, SearchLimits};
    use rega_core::RegisterAutomaton;
    use rega_data::{Schema, SigmaType, Term};

    /// Two-state automaton over one register: in state `a` the register
    /// must keep its value, moving to `b` changes it arbitrarily.
    fn keep_then_free() -> ExtendedAutomaton {
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let a = ra.add_state("a");
        let b = ra.add_state("b");
        ra.set_initial(a);
        ra.set_accepting(b);
        let keep = SigmaType::new(1, [rega_data::Literal::eq(Term::x(0), Term::y(0))]);
        ra.add_transition(a, keep, a).unwrap();
        ra.add_transition(a, SigmaType::empty(1), b).unwrap();
        ra.add_transition(b, SigmaType::empty(1), b).unwrap();
        ExtendedAutomaton::new(ra)
    }

    #[test]
    fn accepts_consistent_and_rejects_inconsistent_prefixes() {
        let ext = keep_then_free();
        let db = Database::new(Schema::empty());
        let mut obs = ViewObserver::new();
        // a(7) → a(7) → b(9): legal.
        assert_eq!(obs.observe(&ext, &db, &[Value(7)]), Verdict::Consistent);
        assert_eq!(obs.observe(&ext, &db, &[Value(7)]), Verdict::Consistent);
        assert_eq!(obs.observe(&ext, &db, &[Value(9)]), Verdict::Consistent);
        assert!(obs.possible_states().len() == 1); // must be in b
                                                   // Once a value changed we are in b and stay there; anything goes.
        assert_eq!(obs.observe(&ext, &db, &[Value(1)]), Verdict::Consistent);
    }

    #[test]
    fn violation_is_sticky() {
        // One state, register frozen forever: a change is a violation.
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let a = ra.add_state("a");
        ra.set_initial(a);
        ra.set_accepting(a);
        let keep = SigmaType::new(1, [rega_data::Literal::eq(Term::x(0), Term::y(0))]);
        ra.add_transition(a, keep, a).unwrap();
        let ext = ExtendedAutomaton::new(ra);
        let db = Database::new(Schema::empty());
        let mut obs = ViewObserver::new();
        assert_eq!(obs.observe(&ext, &db, &[Value(1)]), Verdict::Consistent);
        assert_eq!(obs.observe(&ext, &db, &[Value(2)]), Verdict::Violation);
        // Dead: even a "legal-looking" tuple cannot resurrect the prefix.
        assert_eq!(obs.observe(&ext, &db, &[Value(2)]), Verdict::Violation);
    }

    #[test]
    fn agrees_with_batch_enumeration_on_random_views() {
        // For random projections, every enumerated settled trace of the
        // view must be accepted by the observer, position by position.
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2)];
        let params = GenParams {
            states: 2,
            k: 2,
            out_degree: 2,
            literals_per_type: 2,
            unary_relations: 0,
            relational_probability: 0.0,
        };
        let limits = SearchLimits {
            max_nodes: 200_000,
            max_runs: 50_000,
        };
        for seed in 0..8 {
            let ra = random_automaton(&params, seed);
            let Ok(proj) = project_register_automaton(&ra, 1) else {
                continue;
            };
            for len in 1..=3 {
                let traces =
                    simulate::projected_settled_traces(&proj.view, &db, len, 1, &pool, limits);
                for trace in &traces {
                    let mut obs = ViewObserver::new();
                    for tuple in trace {
                        assert_eq!(
                            obs.observe(&proj.view, &db, tuple),
                            Verdict::Consistent,
                            "seed {seed}: view's own trace rejected"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trips_and_resumes_identically() {
        let ext = keep_then_free();
        let db = Database::new(Schema::empty());
        let mut obs = ViewObserver::new();
        assert_eq!(obs.observe(&ext, &db, &[Value(7)]), Verdict::Consistent);
        assert_eq!(obs.observe(&ext, &db, &[Value(7)]), Verdict::Consistent);
        let snap = obs.export();
        let mut restored = ViewObserver::from_snapshot(&ext, &snap).expect("round-trip");
        assert_eq!(restored.frontier_size(), obs.frontier_size());
        assert_eq!(restored.possible_states(), obs.possible_states());
        // Both must answer identically from here on, including a violation.
        for v in [9u64, 9, 3] {
            assert_eq!(
                obs.observe(&ext, &db, &[Value(v)]),
                restored.observe(&ext, &db, &[Value(v)]),
                "restored observer diverged"
            );
        }
        // A snapshot naming a state the view does not have is rejected.
        let mut bad = snap.clone();
        bad.frontier.push((StateId(999), Vec::new()));
        assert!(ViewObserver::from_snapshot(&ext, &bad).is_none());
    }

    #[test]
    fn tiny_frontier_cap_degrades_to_unknown() {
        let ext = keep_then_free();
        let db = Database::new(Schema::empty());
        let mut obs = ViewObserver::with_max_frontier(1);
        assert_eq!(obs.observe(&ext, &db, &[Value(7)]), Verdict::Consistent);
        // A repeated value can stay in a or move to b: two configurations,
        // and the cap of 1 drops one of them.
        assert_eq!(obs.observe(&ext, &db, &[Value(7)]), Verdict::Consistent);
        assert!(obs.overflowed());
        // From here on an empty frontier is inconclusive, never Violation.
        let mut saw_unknown = false;
        for v in [7u64, 8, 8, 9] {
            if obs.observe(&ext, &db, &[Value(v)]) == Verdict::Unknown {
                saw_unknown = true;
            }
        }
        let _ = saw_unknown; // frontier may survive; verdict must never be Violation
    }
}
