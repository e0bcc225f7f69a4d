//! Incremental monitors for the global constraints of extended automata.
//!
//! The streaming interpretation of a constraint `eᵢⱼ`: at every position `n`
//! a monitor run starts in the constraint DFA (capturing the candidate
//! factor start `n`, with the value `d_n[i]`); every active run advances on
//! each state letter; whenever a run is in an accepting DFA state at
//! position `m` the factor `q_n … q_m` matches, and the stored value is
//! compared against `d_m[j]`.
//!
//! Runs in the same DFA state are merged into a value *set* — for `≠`
//! constraints all stored values must differ from the target, for `=`
//! constraints all must equal it — which keeps the configuration finite
//! whenever the run uses finitely many values (the key to exact checking of
//! lasso runs).
//!
//! The monitor owns its state and borrows the automaton only per
//! [`step`](ConstraintMonitor::step) call, so external drivers (the
//! `rega-stream` engine) can keep thousands of session monitors hot against
//! one shared compiled spec. A constraint's configuration is the sorted,
//! duplicate-free list of its active runs as `(DFA state, stored value)`
//! pairs; the runs sharing a DFA state are that state's value set. One
//! successor kernel advances the runs, spawns the new one and fires the
//! matches, reading one list and writing another, so
//! [`step`](ConstraintMonitor::step) runs it against the monitor's own
//! spare list and [`step_into`](ConstraintMonitor::step_into) against a
//! caller's recycled monitor (the view observer's frontier successors).
//! Lists keep their capacity, so a warmed-up step does not allocate, and
//! a step costs time in the number of live runs, not in the DFA sizes.

use crate::automaton::StateId;
use crate::extended::{ConstraintKind, ExtendedAutomaton, GlobalConstraint};
use rega_data::Value;

/// A reported constraint violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated constraint in the automaton's constraint list.
    pub constraint: usize,
    /// Source register of the constraint.
    pub i: u16,
    /// Target register of the constraint.
    pub j: u16,
}

/// One constraint's configuration: the active runs as `(dfa_state,
/// stored_value)` pairs, sorted and duplicate-free.
type Runs = Vec<(u32, Value)>;

/// The successor kernel for one constraint: advances the runs of `cur` on
/// `letter` into `next` (overwriting it), spawns the run whose factor
/// starts at this position and fires the matches. Returns whether the
/// constraint is violated at this position.
fn advance(
    constraint: &GlobalConstraint,
    letter: usize,
    regs: &[Value],
    cur: &[(u32, Value)],
    next: &mut Runs,
) -> bool {
    let dfa = constraint.dfa();
    next.clear();
    // Advance existing runs; runs meeting in one DFA state merge their
    // value sets by the sort below.
    for &(s, v) in cur {
        let t = dfa.step_idx(s as usize, letter);
        if constraint.is_alive(t) {
            next.push((t as u32, v));
        }
    }
    // Spawn the run whose factor starts here.
    let s0 = dfa.step_idx(dfa.init(), letter);
    if constraint.is_alive(s0) {
        next.push((s0 as u32, regs[constraint.i.idx()]));
    }
    next.sort_unstable();
    next.dedup();
    // Fire matches.
    let target = regs[constraint.j.idx()];
    next.iter().any(|&(s, v)| {
        dfa.is_accepting(s as usize)
            && match constraint.kind {
                ConstraintKind::Equal => v != target,
                ConstraintKind::NotEqual => v == target,
            }
    })
}

fn letter_of(constraint: &GlobalConstraint, state: StateId) -> usize {
    constraint
        .letter(state)
        .expect("monitor stepped with a state outside the constraint alphabet")
}

fn violation(cid: usize, constraint: &GlobalConstraint) -> Violation {
    Violation {
        constraint: cid,
        i: constraint.i.0,
        j: constraint.j.0,
    }
}

/// The runs of `runs` grouped by DFA state: `(dfa_state, values)` slots in
/// ascending state order, values ascending.
fn slots(runs: &[(u32, Value)]) -> impl Iterator<Item = (usize, &[(u32, Value)])> {
    runs.chunk_by(|a, b| a.0 == b.0)
        .map(|group| (group[0].0 as usize, group))
}

/// Plain-data form of a monitor's live configuration, as produced by
/// [`ConstraintMonitor::export_slots`]: per constraint, the sparse list of
/// `(dfa_state, stored_values)` slots.
pub type ExportedSlots = Vec<Vec<(usize, Vec<Value>)>>;

/// The monitor state for all constraints of an extended automaton.
///
/// The monitor is a pure state machine: it stores no reference to the
/// automaton, which must be passed (unchanged between calls) to
/// [`step`](Self::step). Stepping with a *different* automaton than the one
/// given to [`new`](Self::new) is a logic error and may panic on
/// out-of-range states.
///
/// Equality and hashing compare configurations: the same relation as
/// equal [`fingerprint`](Self::fingerprint)s, since the spare list is
/// empty between steps.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConstraintMonitor {
    /// Per constraint: the active runs.
    active: Vec<Runs>,
    /// Scratch list a [`step`](Self::step) writes each constraint's
    /// successor into before swapping it with `active` (kept empty
    /// between steps).
    spare: Runs,
}

impl ConstraintMonitor {
    /// A fresh monitor (no positions consumed yet) for the constraints of
    /// `ext`.
    pub fn new(ext: &ExtendedAutomaton) -> Self {
        ConstraintMonitor {
            active: vec![Vec::new(); ext.constraints().len()],
            spare: Vec::new(),
        }
    }

    /// Consumes one position of the run (its state and register values).
    /// Returns a violation if some constraint fires and fails.
    ///
    /// `ext` must be the automaton this monitor was created for.
    pub fn step(
        &mut self,
        ext: &ExtendedAutomaton,
        state: StateId,
        regs: &[Value],
    ) -> Option<Violation> {
        for (cid, constraint) in ext.constraints().iter().enumerate() {
            let letter = letter_of(constraint, state);
            let violated = advance(constraint, letter, regs, &self.active[cid], &mut self.spare);
            std::mem::swap(&mut self.active[cid], &mut self.spare);
            self.spare.clear();
            if violated {
                return Some(violation(cid, constraint));
            }
        }
        None
    }

    /// Writes the configuration [`step`](Self::step) would reach from
    /// `self` into `out`, reusing `out`'s buffers, and leaves `self`
    /// unchanged. `out` may hold any earlier configuration; it is
    /// overwritten. On a violation `out` holds a partial configuration and
    /// is only fit to be overwritten by the next `step_into`.
    pub fn step_into(
        &self,
        ext: &ExtendedAutomaton,
        state: StateId,
        regs: &[Value],
        out: &mut ConstraintMonitor,
    ) -> Option<Violation> {
        out.active.resize_with(self.active.len(), Vec::new);
        for (cid, constraint) in ext.constraints().iter().enumerate() {
            let letter = letter_of(constraint, state);
            if advance(
                constraint,
                letter,
                regs,
                &self.active[cid],
                &mut out.active[cid],
            ) {
                return Some(violation(cid, constraint));
            }
        }
        None
    }

    /// A canonical byte fingerprint of the configuration, used to detect
    /// repetition when checking lasso runs.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.fingerprint_into(&mut out);
        out
    }

    /// Appends the canonical fingerprint to `out` (allocation-reusing
    /// variant for hot callers).
    pub fn fingerprint_into(&self, out: &mut Vec<u8>) {
        for runs in &self.active {
            out.extend_from_slice(&(slots(runs).count() as u64).to_le_bytes());
            for (s, group) in slots(runs) {
                out.extend_from_slice(&(s as u64).to_le_bytes());
                out.extend_from_slice(&(group.len() as u64).to_le_bytes());
                for (_, v) in group {
                    out.extend_from_slice(&v.raw().to_le_bytes());
                }
            }
        }
    }

    /// Exports the live configuration as plain data: per constraint, the
    /// sparse list of `(dfa_state, stored_values)` slots. Together with
    /// [`from_slots`](Self::from_slots) this gives monitor snapshot /
    /// restore without committing this crate to a serialization format —
    /// callers (the `rega-stream` engine) encode the nested vectors in
    /// whatever wire format they use.
    pub fn export_slots(&self) -> ExportedSlots {
        self.active
            .iter()
            .map(|runs| {
                slots(runs)
                    .map(|(s, group)| (s, group.iter().map(|&(_, v)| v).collect()))
                    .collect()
            })
            .collect()
    }

    /// Rebuilds a monitor from [`export_slots`](Self::export_slots) data.
    /// Returns `None` when the data does not fit `ext` (wrong constraint
    /// count, an out-of-range DFA state, or a slot without values, which
    /// no export contains), so corrupted snapshots are rejected instead of
    /// panicking later. A DFA state listed twice keeps its last slot.
    pub fn from_slots(
        ext: &ExtendedAutomaton,
        exported: &[Vec<(usize, Vec<Value>)>],
    ) -> Option<Self> {
        let mut monitor = Self::new(ext);
        if exported.len() != monitor.active.len() {
            return None;
        }
        for ((constraint_slots, runs), constraint) in exported
            .iter()
            .zip(&mut monitor.active)
            .zip(ext.constraints())
        {
            for (s, vals) in constraint_slots {
                if *s >= constraint.dfa().num_states() || vals.is_empty() {
                    return None;
                }
                let s = *s as u32;
                runs.retain(|&(t, _)| t != s);
                runs.extend(vals.iter().map(|&v| (s, v)));
            }
            runs.sort_unstable();
            runs.dedup();
        }
        Some(monitor)
    }

    /// Total number of active (state, value) pairs — used by the streaming
    /// ablation experiment E12 and the engine's memory accounting.
    pub fn active_size(&self) -> usize {
        self.active.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::RegisterAutomaton;
    use rega_data::{RegIdx, Schema, SigmaType};

    /// Single-state automaton with an equality constraint matching factors
    /// of length exactly 3 (value must return after two steps).
    fn every_other_equal() -> ExtendedAutomaton {
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let q = ra.add_state("q");
        ra.set_initial(q);
        ra.set_accepting(q);
        ra.add_transition(q, SigmaType::empty(1), q).unwrap();
        let mut ext = ExtendedAutomaton::new(ra);
        ext.add_constraint_str(ConstraintKind::Equal, RegIdx(0), RegIdx(0), "q q q")
            .unwrap();
        ext
    }

    #[test]
    fn equality_constraint_fires_at_distance_two() {
        let ext = every_other_equal();
        let q = StateId(0);
        let mut m = ConstraintMonitor::new(&ext);
        assert!(m.step(&ext, q, &[Value(1)]).is_none());
        assert!(m.step(&ext, q, &[Value(2)]).is_none());
        // position 2 must equal position 0
        assert!(m.step(&ext, q, &[Value(1)]).is_none());
        // position 3 must equal position 1: violate it
        assert_eq!(
            m.step(&ext, q, &[Value(9)]),
            Some(Violation {
                constraint: 0,
                i: 0,
                j: 0
            })
        );
    }

    #[test]
    fn inequality_constraint() {
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let q = ra.add_state("q");
        ra.set_initial(q);
        ra.set_accepting(q);
        ra.add_transition(q, SigmaType::empty(1), q).unwrap();
        let mut ext = ExtendedAutomaton::new(ra);
        // consecutive values must differ
        ext.add_constraint_str(ConstraintKind::NotEqual, RegIdx(0), RegIdx(0), "q q")
            .unwrap();
        let mut m = ConstraintMonitor::new(&ext);
        assert!(m.step(&ext, StateId(0), &[Value(1)]).is_none());
        assert!(m.step(&ext, StateId(0), &[Value(2)]).is_none());
        assert!(m.step(&ext, StateId(0), &[Value(2)]).is_some());
    }

    #[test]
    fn fingerprint_detects_periodicity() {
        let ext = every_other_equal();
        let q = StateId(0);
        let mut m = ConstraintMonitor::new(&ext);
        let mut prints = Vec::new();
        for step in 0..8 {
            m.step(&ext, q, &[Value(step % 2)]);
            prints.push(m.fingerprint());
        }
        // After warm-up the configuration is 2-periodic.
        assert_eq!(prints[4], prints[6]);
        assert_eq!(prints[5], prints[7]);
    }

    #[test]
    fn dead_runs_are_pruned() {
        // Constraint only matches factors "q p": runs die in state p-less
        // automaton paths.
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let q = ra.add_state("q");
        let p = ra.add_state("p");
        ra.set_initial(q);
        ra.set_accepting(q);
        ra.add_transition(q, SigmaType::empty(1), q).unwrap();
        ra.add_transition(q, SigmaType::empty(1), p).unwrap();
        ra.add_transition(p, SigmaType::empty(1), q).unwrap();
        let mut ext = ExtendedAutomaton::new(ra);
        ext.add_constraint_str(ConstraintKind::NotEqual, RegIdx(0), RegIdx(0), "q p")
            .unwrap();
        let mut m = ConstraintMonitor::new(&ext);
        // staying in q forever: all spawned runs die immediately after "q q"
        for v in 0..5 {
            assert!(m.step(&ext, StateId(0), &[Value(v)]).is_none());
        }
        assert!(m.active_size() <= 1); // only the freshly spawned run lives
    }

    #[test]
    fn export_import_round_trips_mid_run() {
        let ext = every_other_equal();
        let q = StateId(0);
        let mut m = ConstraintMonitor::new(&ext);
        for v in 0..5 {
            assert!(m.step(&ext, q, &[Value(v)]).is_none() || v >= 2);
            let restored = ConstraintMonitor::from_slots(&ext, &m.export_slots())
                .expect("own export must round-trip");
            assert_eq!(m.fingerprint(), restored.fingerprint());
        }
        // The restored monitor behaves identically from here on.
        let mut restored =
            ConstraintMonitor::from_slots(&ext, &m.export_slots()).expect("round-trip");
        for v in [7u64, 7, 9, 2] {
            assert_eq!(
                m.step(&ext, q, &[Value(v)]),
                restored.step(&ext, q, &[Value(v)]),
                "restored monitor diverged"
            );
        }
        // Corrupt shapes are rejected, not panicked on.
        assert!(ConstraintMonitor::from_slots(&ext, &[]).is_none());
        assert!(
            ConstraintMonitor::from_slots(&ext, &[vec![(usize::MAX, vec![Value(1)])]]).is_none()
        );
    }

    #[test]
    fn spare_buffers_stay_clear_and_sets_move() {
        // Long single-predecessor chains must not grow the configuration:
        // the `q q q` equality constraint carries at most two live sets.
        let ext = every_other_equal();
        let q = StateId(0);
        let mut m = ConstraintMonitor::new(&ext);
        for v in 0..64 {
            assert!(m.step(&ext, q, &[Value(v % 2)]).is_none());
            assert!(m.spare.is_empty());
            assert!(m.active_size() <= 4, "configuration must stay bounded");
        }
    }
}
