//! Proposition 6: elimination of global *equality* constraints.
//!
//! For each equality constraint `e=ᵢⱼ` with (minimal) DFA `E`, the new
//! automaton tracks, in its control state, the set of `E`-states of the
//! constraint runs spawned at every earlier position, and stores each run's
//! source value `d_n[i]` in a dedicated extra register — one per live
//! `E`-state, since runs converging on the same state must carry the same
//! value anyway (the transition type enforces it, which is exactly the
//! convergence argument of the paper's proof). When a run reaches an
//! accepting state after reading `q_m`, a local literal equates the stored
//! register with `x_j` — the constraint has become *streaming*.
//!
//! The result has only inequality constraints (lifted through the state
//! projection) and satisfies `Reg(D, 𝒜) = Π_k(Reg(D, ℬ))` for every `D`.

use crate::lemma21::Frontier;
use rega_core::extended::ConstraintKind;
use rega_core::{CoreError, ExtendedAutomaton, RegisterAutomaton, StateId};
use rega_data::{Literal, RegIdx, Term};
use std::collections::{BTreeSet, HashMap};

/// The result of the elimination.
#[derive(Clone, Debug)]
pub struct Prop6Result {
    /// The equality-free extended automaton `ℬ`.
    pub automaton: ExtendedAutomaton,
    /// The number of registers of the input automaton (`Π` back onto these).
    pub original_k: u16,
    /// For each new state, the original state it simulates.
    pub state_map: Vec<StateId>,
}

/// Eliminates all global equality constraints, adding registers
/// (Proposition 6).
pub fn eliminate_global_equalities(ext: &ExtendedAutomaton) -> Result<Prop6Result, CoreError> {
    let ra = ext.ra();
    let k = ra.k();

    // Partition the constraints.
    let eq_constraints: Vec<usize> = (0..ext.constraints().len())
        .filter(|&c| ext.constraints()[c].kind == ConstraintKind::Equal)
        .collect();
    if eq_constraints.is_empty() {
        // Nothing to do; return a copy with an identity state map.
        let mut out = ExtendedAutomaton::new(ra.clone());
        for c in ext.constraints() {
            out.add_lifted_constraint(c, |s| s)?;
        }
        return Ok(Prop6Result {
            automaton: out,
            original_k: k,
            state_map: ra.states().collect(),
        });
    }

    // Register layout: for each equality constraint, one register per DFA
    // state that can still fire a *future* check — i.e. some successor is
    // alive. A run entering an accepting state has its check enforced
    // inline by the transition's literals; if no further acceptance is
    // reachable, its value need not be stored at all. (This keeps the
    // register count minimal, which matters downstream: Theorem 13
    // completes the resulting automaton, exponentially in the register
    // count.)
    let mut next_reg = k;
    let mut reg_of: Vec<HashMap<usize, u16>> = Vec::new();
    for &ci in &eq_constraints {
        let c = &ext.constraints()[ci];
        let dfa = c.dfa();
        let mut map = HashMap::new();
        for s in 0..dfa.num_states() {
            let future = ra.states().any(|q| c.is_alive(dfa.step(s, &q)));
            if c.is_alive(s) && future {
                map.insert(s, next_reg);
                next_reg += 1;
            }
        }
        reg_of.push(map);
    }
    let new_k = next_reg;

    // Lazy product construction over (original state, active-state vector).
    type Active = Vec<BTreeSet<usize>>;
    let mut out = RegisterAutomaton::new(new_k, ra.schema().clone());
    let mut states: Frontier<(StateId, Active)> = Frontier::new();
    // Each product state joins `out` when discovered (a transition needs
    // its target); only initial states with the empty active vector are
    // initial.
    let intern = |states: &mut Frontier<(StateId, Active)>, out: &mut RegisterAutomaton, key| {
        let (id, new) = states.intern(key);
        let sid = StateId(id as u32);
        if new {
            let (q, act) = &states[id];
            out.add_state(&format!("{}_{id}", ra.state_name(*q)));
            if ra.is_initial(*q) && act.iter().all(|a| a.is_empty()) {
                out.set_initial(sid);
            }
            if ra.is_accepting(*q) {
                out.set_accepting(sid);
            }
        }
        sid
    };
    let empty_active: Active = eq_constraints.iter().map(|_| BTreeSet::new()).collect();
    for q in ra.states().filter(|&q| ra.is_initial(q)) {
        intern(&mut states, &mut out, (q, empty_active.clone()));
    }

    while let Some(id) = states.pop() {
        let (q, act) = states[id].clone();
        let sid = StateId(id as u32);
        for &t in ra.outgoing(q) {
            let tr = ra.transition(t);
            let mut ty = tr.ty.with_k(new_k);
            let mut next_act: Active = Vec::with_capacity(eq_constraints.len());
            let mut ok = true;
            for (pos, &ci) in eq_constraints.iter().enumerate() {
                let c = &ext.constraints()[ci];
                let dfa = c.dfa();
                let regs = &reg_of[pos];
                // Advance existing runs and spawn the new one (the spawned
                // run's value is x_i; existing runs' values are in their
                // registers).
                // targets: dfa_state -> source terms (x-registers or x_i).
                let mut targets: HashMap<usize, Vec<Term>> = HashMap::new();
                for &s in &act[pos] {
                    let s2 = dfa.step(s, &q);
                    if regs.contains_key(&s2) {
                        targets
                            .entry(s2)
                            .or_default()
                            .push(Term::X(RegIdx(regs[&s])));
                    }
                    // Acceptance of an advanced run: factor matched ending
                    // here; stored value must equal x_j *at this position*.
                    if dfa.is_accepting(s2) {
                        ty.add(Literal::eq(Term::X(RegIdx(regs[&s])), Term::X(c.j)));
                    }
                }
                let s0 = dfa.step(dfa.init(), &q);
                if regs.contains_key(&s0) {
                    targets.entry(s0).or_default().push(Term::X(c.i));
                }
                if dfa.is_accepting(s0) {
                    // Single-position factor: x_i = x_j at this position.
                    ty.add(Literal::eq(Term::X(c.i), Term::X(c.j)));
                }
                // Move values; enforce convergence.
                let mut new_set = BTreeSet::new();
                for (s2, sources) in &targets {
                    let dst = Term::Y(RegIdx(regs[s2]));
                    for (n, src) in sources.iter().enumerate() {
                        if n == 0 {
                            ty.add(Literal::eq(dst, *src));
                        } else {
                            ty.add(Literal::eq(*src, sources[0]));
                        }
                    }
                    new_set.insert(*s2);
                }
                next_act.push(new_set);
                // The added equalities might be unsatisfiable with the
                // base type — then this transition variant cannot fire.
                if !ty.is_satisfiable(ra.schema()) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            let tid = intern(&mut states, &mut out, (tr.to, next_act));
            out.add_transition(sid, ty, tid)?;
        }
    }

    // Lift the inequality constraints.
    let state_map: Vec<StateId> = states.keys().iter().map(|&(q, _)| q).collect();
    let mut out = ExtendedAutomaton::new(out);
    for c in ext.constraints() {
        if c.kind == ConstraintKind::NotEqual {
            out.add_lifted_constraint(c, |s| state_map[s.idx()])?;
        }
    }
    Ok(Prop6Result {
        automaton: out,
        original_k: k,
        state_map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::paper;
    use rega_core::simulate::{self, SearchLimits};
    use rega_data::{Database, Schema, Value};

    #[test]
    fn example5_equalities_become_registers() {
        let ext = paper::example5();
        let r = eliminate_global_equalities(&ext).unwrap();
        assert!(r
            .automaton
            .constraints()
            .iter()
            .all(|c| c.kind == ConstraintKind::NotEqual));
        assert!(r.automaton.k() > 1, "extra registers added");
        assert_eq!(r.original_k, 1);
    }

    #[test]
    fn example5_projection_preserves_prefix_traces() {
        // Π₁ of the eliminated automaton's prefix traces equals the prefix
        // traces of the original extended automaton.
        let ext = paper::example5();
        let r = eliminate_global_equalities(&ext).unwrap();
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2)];
        let len = 4;
        let original =
            simulate::projected_settled_traces(&ext, &db, len, 1, &pool, SearchLimits::default());
        let eliminated = simulate::projected_settled_traces(
            &r.automaton,
            &db,
            len,
            1,
            &pool,
            SearchLimits {
                max_nodes: 500_000,
                max_runs: 100_000,
            },
        );
        assert_eq!(
            original, eliminated,
            "projected traces must agree (len {len})"
        );
    }

    #[test]
    fn no_equalities_is_identity_modulo_copy() {
        let ext = paper::example7(); // only an inequality constraint
        let r = eliminate_global_equalities(&ext).unwrap();
        assert_eq!(r.automaton.k(), 1);
        assert_eq!(r.automaton.ra().num_states(), ext.ra().num_states());
        assert_eq!(r.automaton.constraints().len(), 1);
    }

    #[test]
    fn eliminated_automaton_enforces_equality_locally() {
        // A run of the eliminated Example 5 that changes the p1-value must
        // not exist even as a prefix (the stored register forces equality
        // when the constraint DFA accepts).
        let ext = paper::example5();
        let r = eliminate_global_equalities(&ext).unwrap();
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2)];
        // All prefixes of length 4: check that every one whose state trace
        // visits p1 twice holds the same register-1 value there.
        let runs = simulate::enumerate_prefixes(
            &r.automaton,
            &db,
            5,
            &pool,
            SearchLimits {
                max_nodes: 500_000,
                max_runs: 100_000,
            },
        );
        assert!(!runs.is_empty());
        for run in &runs {
            // Settled positions only: the check for a factor ending at the
            // final position fires on that position's outgoing transition,
            // which a prefix has not fired yet.
            let p1_vals: Vec<Value> = run.configs[..run.configs.len() - 1]
                .iter()
                .filter(|c| r.automaton.ra().state_name(c.state).starts_with("p1"))
                .map(|c| c.regs[0])
                .collect();
            for w in p1_vals.windows(2) {
                assert_eq!(w[0], w[1], "p1-positions must share one value");
            }
        }
    }
}
