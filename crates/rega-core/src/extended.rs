//! Extended register automata (Section 3): register automata with *global*
//! regular (in)equality constraints.
//!
//! An extended automaton is a pair `𝒜 = (A, Σ)` where `Σ` is a finite set of
//! regular expressions over the states `Q`, each written `e=ᵢⱼ` or `e≠ᵢⱼ`.
//! A run satisfies `Σ` if for all positions `n ≤ m`: whenever the factor
//! `q_n … q_m` belongs to `e=ᵢⱼ` (resp. `e≠ᵢⱼ`), the values `d_n[i]` and
//! `d_m[j]` are equal (resp. distinct).

use crate::automaton::{RegisterAutomaton, StateId};
use crate::error::CoreError;
use crate::monitor::ConstraintMonitor;
use crate::run::LassoRun;
use rega_automata::{Dfa, Regex};
use rega_data::{Database, RegIdx};
use std::collections::HashMap;
use std::fmt;

/// Whether a global constraint demands equality or inequality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConstraintKind {
    /// `e=ᵢⱼ` — matched endpoints must hold equal values.
    Equal,
    /// `e≠ᵢⱼ` — matched endpoints must hold distinct values.
    NotEqual,
}

/// A compiled global constraint `eᵢⱼ`.
#[derive(Clone, Debug)]
pub struct GlobalConstraint {
    /// Equality or inequality.
    pub kind: ConstraintKind,
    /// Source register `i` (value read at the factor's first position).
    pub i: RegIdx,
    /// Target register `j` (value read at the factor's last position).
    pub j: RegIdx,
    /// The defining regular expression over states, when the constraint was
    /// given as one (`None` for constraints built directly as automata,
    /// e.g. by the Lemma 21 constructions).
    pub regex: Option<Regex<StateId>>,
    /// The compiled monitor DFA over the automaton's full state alphabet.
    dfa: Dfa<StateId>,
    /// Per DFA state: whether an accepting state is still reachable (dead
    /// monitor runs are pruned).
    alive: Vec<bool>,
    /// Per automaton state id: its DFA letter index (`usize::MAX` when
    /// the DFA alphabet lacks it), so monitors look letters up densely.
    letters: Vec<usize>,
}

impl GlobalConstraint {
    /// The compiled DFA.
    pub fn dfa(&self) -> &Dfa<StateId> {
        &self.dfa
    }

    /// Whether a monitor run in this DFA state can still reach acceptance.
    pub fn is_alive(&self, dfa_state: usize) -> bool {
        self.alive[dfa_state]
    }

    /// The DFA letter index of automaton state `state`, if the DFA's
    /// alphabet has it (the dense form of [`Dfa::letter_index`]).
    pub fn letter(&self, state: StateId) -> Option<usize> {
        self.letters
            .get(state.idx())
            .copied()
            .filter(|&l| l != usize::MAX)
    }
}

/// An extended register automaton `𝒜 = (A, Σ)`.
#[derive(Clone, Debug)]
pub struct ExtendedAutomaton {
    ra: RegisterAutomaton,
    constraints: Vec<GlobalConstraint>,
}

impl ExtendedAutomaton {
    /// Wraps a register automaton with an (initially empty) constraint set.
    /// With no constraints, the extended automaton has exactly the runs of
    /// `A`.
    pub fn new(ra: RegisterAutomaton) -> Self {
        ExtendedAutomaton {
            ra,
            constraints: Vec::new(),
        }
    }

    /// The underlying register automaton `A`.
    pub fn ra(&self) -> &RegisterAutomaton {
        &self.ra
    }

    /// The global constraints `Σ`.
    pub fn constraints(&self) -> &[GlobalConstraint] {
        &self.constraints
    }

    /// Number of registers.
    pub fn k(&self) -> u16 {
        self.ra.k()
    }

    /// Adds a global constraint given by a regular expression over states.
    pub fn add_constraint(
        &mut self,
        kind: ConstraintKind,
        i: RegIdx,
        j: RegIdx,
        regex: Regex<StateId>,
    ) -> Result<usize, CoreError> {
        let k = self.ra.k();
        for r in [i, j] {
            if r.0 >= k {
                return Err(CoreError::ConstraintRegisterOutOfRange { index: r.0, k });
            }
        }
        for s in regex.letters() {
            if s.idx() >= self.ra.num_states() {
                return Err(CoreError::ConstraintUnknownState(format!("q{}", s.0)));
            }
        }
        let alphabet: Vec<StateId> = self.ra.states().collect();
        let dfa = Dfa::from_regex(&regex, &alphabet);
        self.push_constraint(kind, i, j, Some(regex), dfa)
    }

    /// Adds a global constraint given directly as a (total) DFA over the
    /// automaton's states. Used by the projection constructions, whose
    /// constraints come out of subset constructions (Lemma 21) rather than
    /// textual expressions.
    pub fn add_constraint_dfa(
        &mut self,
        kind: ConstraintKind,
        i: RegIdx,
        j: RegIdx,
        dfa: Dfa<StateId>,
    ) -> Result<usize, CoreError> {
        let k = self.ra.k();
        for r in [i, j] {
            if r.0 >= k {
                return Err(CoreError::ConstraintRegisterOutOfRange { index: r.0, k });
            }
        }
        for s in self.ra.states() {
            if dfa.letter_index(&s).is_none() {
                return Err(CoreError::ConstraintUnknownState(format!(
                    "DFA alphabet is missing state `{}`",
                    self.ra.state_name(s)
                )));
            }
        }
        self.push_constraint(kind, i, j, None, dfa)
    }

    fn push_constraint(
        &mut self,
        kind: ConstraintKind,
        i: RegIdx,
        j: RegIdx,
        regex: Option<Regex<StateId>>,
        dfa: Dfa<StateId>,
    ) -> Result<usize, CoreError> {
        let alive = (0..dfa.num_states())
            .map(|s| dfa.can_accept_from(s))
            .collect();
        let size = dfa
            .alphabet()
            .iter()
            .map(|s| s.idx() + 1)
            .max()
            .unwrap_or(0);
        let mut letters = vec![usize::MAX; size];
        for (l, s) in dfa.alphabet().iter().enumerate() {
            letters[s.idx()] = l;
        }
        self.constraints.push(GlobalConstraint {
            kind,
            i,
            j,
            regex,
            dfa,
            alive,
            letters,
        });
        Ok(self.constraints.len() - 1)
    }

    /// Adds a constraint from another automaton, re-based through the state
    /// surjection `old_of` (each of *this* automaton's states behaves like
    /// its image). Used when constructions refine the state space.
    pub fn add_lifted_constraint(
        &mut self,
        c: &GlobalConstraint,
        old_of: impl Fn(StateId) -> StateId,
    ) -> Result<usize, CoreError> {
        let new_alphabet: Vec<StateId> = self.ra.states().collect();
        let dfa = c.dfa.rebase_alphabet(new_alphabet, |s| old_of(*s));
        self.push_constraint(c.kind, c.i, c.j, None, dfa)
    }

    /// Adds a constraint from a textual regular expression whose atoms are
    /// state names, e.g. `"p1 p2* p1"`.
    pub fn add_constraint_str(
        &mut self,
        kind: ConstraintKind,
        i: RegIdx,
        j: RegIdx,
        expr: &str,
    ) -> Result<usize, CoreError> {
        let regex = Regex::parse(expr, |name| self.ra.state_by_name(name))
            .map_err(|e| CoreError::ConstraintUnknownState(e.to_string()))?;
        self.add_constraint(kind, i, j, regex)
    }

    /// Checks whether a lasso run is a run of the extended automaton over
    /// `db`: validity for the underlying register automaton (including
    /// Büchi acceptance) *and* satisfaction of all global constraints over
    /// the infinite unfolding.
    ///
    /// Constraint satisfaction over the infinite word is decided exactly:
    /// the monitor configuration evolves deterministically, the run is
    /// ultimately periodic, and the configuration space is finite (monitor
    /// states × values occurring in the run), so the monitor trajectory is
    /// itself eventually periodic; we iterate until a configuration repeats
    /// at the same loop phase.
    pub fn check_lasso_run(&self, db: &Database, run: &LassoRun) -> Result<(), CoreError> {
        run.validate(&self.ra, db)?;
        let mut monitor = ConstraintMonitor::new(self);
        let mut seen: HashMap<(usize, Vec<u8>), ()> = HashMap::new();
        let mut m = 0usize;
        loop {
            let cfg = run.config_at(m);
            if let Some(violation) = monitor.step(self, cfg.state, &cfg.regs) {
                return Err(CoreError::InvalidRun(format!(
                    "global constraint {} violated at position {} (register {} vs {})",
                    violation.constraint, m, violation.i, violation.j,
                )));
            }
            m += 1;
            if m >= run.loop_start {
                let phase = (m - run.loop_start) % run.period();
                let key = (phase, monitor.fingerprint());
                if seen.insert(key, ()).is_some() {
                    return Ok(());
                }
            }
        }
    }

    /// Whether a finite run prefix avoids violating any constraint *so far*
    /// (a prefix may of course still be doomed later).
    pub fn check_finite_prefix(
        &self,
        db: &Database,
        run: &crate::run::FiniteRun,
    ) -> Result<(), CoreError> {
        run.validate(&self.ra, db)?;
        let mut monitor = ConstraintMonitor::new(self);
        for (m, cfg) in run.configs.iter().enumerate() {
            if let Some(v) = monitor.step(self, cfg.state, &cfg.regs) {
                return Err(CoreError::InvalidRun(format!(
                    "global constraint {} violated at position {m}",
                    v.constraint
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ExtendedAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ra)?;
        for (n, c) in self.constraints.iter().enumerate() {
            let op = match c.kind {
                ConstraintKind::Equal => "=",
                ConstraintKind::NotEqual => "≠",
            };
            match &c.regex {
                Some(r) => writeln!(
                    f,
                    "  constraint {}: e{}[{},{}] = {}",
                    n,
                    op,
                    c.i.0 + 1,
                    c.j.0 + 1,
                    r.map(&|s: &StateId| self.ra.state_name(*s).to_string())
                )?,
                None => writeln!(
                    f,
                    "  constraint {}: e{}[{},{}] = <{}-state DFA>",
                    n,
                    op,
                    c.i.0 + 1,
                    c.j.0 + 1,
                    c.dfa.num_states()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::run::Config;
    use rega_data::{Schema, Value};

    #[test]
    fn example5_constraint_accepts_constant_p1_value() {
        let ext = paper::example5();
        let db = Database::new(Schema::empty());
        let p1 = ext.ra().state_by_name("p1").unwrap();
        let p2 = ext.ra().state_by_name("p2").unwrap();
        // p1(d1) p2(d2) p2(d3) looping back to p1(d1): t ids from paper::example5
        let t_p1p2 = ext.ra().outgoing(p1)[0];
        let p2outs = ext.ra().outgoing(p2);
        let t_p2p2 = p2outs
            .iter()
            .copied()
            .find(|&t| ext.ra().transition(t).to == p2)
            .unwrap();
        let t_p2p1 = p2outs
            .iter()
            .copied()
            .find(|&t| ext.ra().transition(t).to == p1)
            .unwrap();
        let run = LassoRun::new(
            vec![
                Config::new(p1, vec![Value(1)]),
                Config::new(p2, vec![Value(2)]),
                Config::new(p2, vec![Value(3)]),
            ],
            vec![t_p1p2, t_p2p2, t_p2p1],
            0,
        );
        assert!(ext.check_lasso_run(&db, &run).is_ok());
    }

    #[test]
    fn example5_constraint_rejects_changing_p1_value() {
        let ext = paper::example5();
        let db = Database::new(Schema::empty());
        let p1 = ext.ra().state_by_name("p1").unwrap();
        let p2 = ext.ra().state_by_name("p2").unwrap();
        let t_p1p2 = ext.ra().outgoing(p1)[0];
        let p2outs = ext.ra().outgoing(p2);
        let t_p2p1 = p2outs
            .iter()
            .copied()
            .find(|&t| ext.ra().transition(t).to == p1)
            .unwrap();
        // p1(d1) p2(d2) p1(d3) p2(d2) looping: p1 values differ (1 vs 3).
        let run = LassoRun::new(
            vec![
                Config::new(p1, vec![Value(1)]),
                Config::new(p2, vec![Value(2)]),
                Config::new(p1, vec![Value(3)]),
                Config::new(p2, vec![Value(2)]),
            ],
            vec![t_p1p2, t_p2p1, t_p1p2, t_p2p1],
            0,
        );
        assert!(ext.check_lasso_run(&db, &run).is_err());
    }

    #[test]
    fn example7_all_distinct_rejects_lasso_repeats() {
        // Any lasso run of Example 7's automaton repeats values in the loop,
        // so it violates the all-distinct constraint.
        let ext = paper::example7();
        let db = Database::new(Schema::empty());
        let q = ext.ra().state_by_name("q").unwrap();
        let t = ext.ra().outgoing(q)[0];
        let run = LassoRun::new(
            vec![
                Config::new(q, vec![Value(1)]),
                Config::new(q, vec![Value(2)]),
            ],
            vec![t, t],
            0,
        );
        assert!(ext.check_lasso_run(&db, &run).is_err());
    }

    #[test]
    fn example7_prefix_with_distinct_values_ok() {
        let ext = paper::example7();
        let db = Database::new(Schema::empty());
        let q = ext.ra().state_by_name("q").unwrap();
        let t = ext.ra().outgoing(q)[0];
        let mut run = crate::run::FiniteRun::start(Config::new(q, vec![Value(1)]));
        for v in 2..10 {
            run.push(t, Config::new(q, vec![Value(v)]));
        }
        assert!(ext.check_finite_prefix(&db, &run).is_ok());
        // Repeating a value violates.
        run.push(t, Config::new(q, vec![Value(5)]));
        assert!(ext.check_finite_prefix(&db, &run).is_err());
    }

    #[test]
    fn constraint_validation() {
        let (ra, _) = paper::example1();
        let mut ext = ExtendedAutomaton::new(ra);
        assert!(ext
            .add_constraint_str(ConstraintKind::Equal, RegIdx(5), RegIdx(0), "q1")
            .is_err());
        assert!(ext
            .add_constraint_str(ConstraintKind::Equal, RegIdx(0), RegIdx(0), "nosuch")
            .is_err());
        assert!(ext
            .add_constraint_str(ConstraintKind::Equal, RegIdx(0), RegIdx(0), "q1 q2* q1")
            .is_ok());
    }
}
