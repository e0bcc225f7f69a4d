//! LTL-FO model checking of extended register automata (Theorem 12).
//!
//! `𝒜 ⊨ ∀z̄ φ_f` iff no run of `𝒜` (under any valuation of `z̄`) satisfies
//! `¬φ_f`. The pipeline, following the paper:
//!
//! 1. *Global-variable elimination*: `|z̄|` extra registers are added,
//!    propagated unchanged by every transition; each run then carries a
//!    valuation of `z̄`.
//! 2. *Type refinement*: transition types are refined just enough to decide
//!    every atom the formula mentions (the paper completes fully; deciding
//!    only the needed atoms is equivalent for evaluation and exponentially
//!    cheaper).
//! 3. The negated formula is translated to a Büchi automaton (tableau
//!    construction) whose guards are evaluated under the transition types.
//! 4. The product of the automaton with the formula automaton is again an
//!    extended automaton; `𝒜 ⊨ φ` iff the product is empty (Corollary 10).
//!
//! One [`SatCache`] serves the whole pipeline: the refinement analyzes
//! every refined type to keep the satisfiable ones, so the truth table, the
//! product's transitions and the emptiness check find each type already
//! interned and analyzed. Spans: `verify` (the root), with `verify.refine`,
//! `verify.truth` (translating `¬φ` and evaluating its propositions under
//! every refined type), `verify.product` and `emptiness.check` beneath it.

use crate::emptiness::{check_emptiness_governed, EmptinessOptions, EmptinessVerdict, Witness};
use rega_automata::Frontier;
use rega_core::transform::complete_extended_for_atoms_governed;
use rega_core::{Budget, CoreError, ExtendedAutomaton, RegisterAutomaton, StateId};
use rega_data::fxhash::FxSeed;
use rega_data::{Literal, SatCache, Term, TypeId};
use rega_logic::translate::ltl_to_automaton;
use rega_logic::LtlFo;
use std::borrow::Cow;

/// Budgets for verification (the underlying emptiness search).
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyOptions {
    /// Budgets of the emptiness check on the product automaton.
    pub emptiness: EmptinessOptions,
}

/// The verdict of verification.
#[derive(Clone, Debug)]
pub enum VerifyResult {
    /// Every run satisfies the sentence.
    Holds,
    /// Some run violates it; the witness lives in the product automaton
    /// (its register trace projected to the first `k` registers is a run of
    /// the original automaton, and registers `k..k+|z̄|` value the globals).
    CounterExample(Box<Witness>),
}

impl VerifyResult {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, VerifyResult::Holds)
    }
}

/// Adds `nz` constant ("global") registers to an extended automaton: each
/// transition additionally propagates registers `k..k+nz` unchanged.
pub fn add_global_registers(
    ext: &ExtendedAutomaton,
    nz: u16,
) -> Result<ExtendedAutomaton, CoreError> {
    let ra = ext.ra();
    let k = ra.k();
    let mut out = RegisterAutomaton::new(k + nz, ra.schema().clone());
    for s in ra.states() {
        let s2 = out.add_state(ra.state_name(s));
        debug_assert_eq!(s, s2);
        if ra.is_initial(s) {
            out.set_initial(s);
        }
        if ra.is_accepting(s) {
            out.set_accepting(s);
        }
    }
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        let mut ty = tr.ty.with_k(k + nz);
        for i in 0..nz {
            ty.add(Literal::eq(Term::x(k + i), Term::y(k + i)));
        }
        out.add_transition(tr.from, ty, tr.to)?;
    }
    let mut out = ExtendedAutomaton::new(out);
    for c in ext.constraints() {
        out.add_lifted_constraint(c, |s| s)?;
    }
    Ok(out)
}

/// Model checks an LTL-FO sentence against an extended automaton
/// (Theorem 12). Returns [`VerifyResult::Holds`] or a counterexample run.
pub fn verify(
    ext: &ExtendedAutomaton,
    phi: &LtlFo,
    opts: &VerifyOptions,
) -> Result<VerifyResult, CoreError> {
    let _verify = rega_obs::span!("verify");
    let k = ext.ra().k();
    phi.validate(ext.ra().schema(), k)?;
    let nz = phi.num_globals();

    // 1. Eliminate globals.
    let (ext, phi): (Cow<ExtendedAutomaton>, Cow<LtlFo>) = if nz > 0 {
        (
            Cow::Owned(add_global_registers(ext, nz)?),
            Cow::Owned(phi.eliminate_globals(k)),
        )
    } else {
        (Cow::Borrowed(ext), Cow::Borrowed(phi))
    };
    let cache = SatCache::new(ext.ra().schema().clone());
    let budget = Budget::unlimited();

    // 2. Refine the types just enough to decide every atom the formula
    // mentions.
    let ext = {
        let _refine = rega_obs::span!("verify.refine");
        let mut atoms = Vec::new();
        for q in &phi.props {
            atoms.extend(q.atoms().ok_or_else(|| {
                CoreError::Data(rega_data::DataError::Undetermined(
                    "global variable not eliminated".into(),
                ))
            })?);
        }
        atoms.sort();
        atoms.dedup();
        complete_extended_for_atoms_governed(&ext, &atoms, &cache, &budget)?
    };

    // 3. Translate ¬φ, and evaluate each proposition under each
    // transition's (refined) type.
    let (auto, prop_truth) = {
        let _truth = rega_obs::span!("verify.truth");
        let neg = phi.negated();
        let auto = ltl_to_automaton(&neg.formula);
        let mut prop_truth: Vec<Vec<bool>> = Vec::with_capacity(ext.ra().num_transitions());
        for t in ext.ra().transition_ids() {
            let analysis = cache.analyze(&ext.ra().transition(t).ty)?;
            let mut row = Vec::with_capacity(neg.props.len());
            for q in &neg.props {
                row.push(q.eval_under_analysis(&analysis)?);
            }
            prop_truth.push(row);
        }
        (auto, prop_truth)
    };
    let guard_ok = |atom: usize, t: rega_core::TransId| -> bool {
        let g = &auto.guards[atom];
        g.pos.iter().all(|&p| prop_truth[t.idx()][p as usize])
            && g.neg.iter().all(|&p| !prop_truth[t.idx()][p as usize])
    };

    // 4. Product automaton, built lazily. States: (q, atom, counter) over
    // 1 + m acceptance sets (set 0 = F of the automaton, sets 1..=m from
    // the formula automaton).
    let product_ext = {
        let _product = rega_obs::span!("verify.product");
        let m = auto.acc.len();
        let n_sets = 1 + m;
        let ra = ext.ra();
        let mut product = RegisterAutomaton::new(ra.k(), ra.schema().clone());
        let mut states: Frontier<(StateId, usize, usize), FxSeed> = Frontier::new();
        // Each product state joins `product` when discovered (a transition
        // needs its target). It is named after its automaton state; its
        // full key `(q, atom, counter)` stays in `states`.
        let intern = |states: &mut Frontier<_, _>, product: &mut RegisterAutomaton, key| {
            let (id, new) = states.intern(key);
            if new {
                let (q, _, _) = key;
                product.add_state(ra.state_name(q));
            }
            StateId(id as u32)
        };
        // The refinement interned every type it kept, so each product
        // transition shares its type by id: no copy, no second hash.
        let type_of: Vec<TypeId> = ra
            .transition_ids()
            .map(|t| cache.intern(&ra.transition(t).ty))
            .collect();
        for q in ra.states().filter(|&q| ra.is_initial(q)) {
            for &a0 in &auto.inits {
                let id = intern(&mut states, &mut product, (q, a0, 0));
                product.set_initial(id);
            }
        }
        let in_set = |q: StateId, a: usize, set: usize| -> bool {
            if set == 0 {
                ra.is_accepting(q)
            } else {
                auto.acc[set - 1][a]
            }
        };
        while let Some(id) = states.pop() {
            let (q, a, c) = states[id];
            let sid = StateId(id as u32);
            if c == 0 && in_set(q, a, 0) {
                product.set_accepting(sid);
            }
            let c2 = if in_set(q, a, c) { (c + 1) % n_sets } else { c };
            for &t in ra.outgoing(q) {
                if !guard_ok(a, t) {
                    continue;
                }
                let tr = ra.transition(t);
                for &a2 in &auto.succ[a] {
                    let tid = intern(&mut states, &mut product, (tr.to, a2, c2));
                    product.add_transition_interned_id(sid, type_of[t.idx()], tid, &cache)?;
                }
            }
        }

        // Lift the global constraints through the projection to q.
        let state_of: Vec<StateId> = states.keys().iter().map(|&(q, _, _)| q).collect();
        let mut product_ext = ExtendedAutomaton::new(product);
        for con in ext.constraints() {
            product_ext.add_lifted_constraint(con, |s| state_of[s.idx()])?;
        }
        product_ext
    };

    // 5. Emptiness of the product.
    match check_emptiness_governed(&product_ext, &opts.emptiness, &cache, &budget)? {
        EmptinessVerdict::Empty => Ok(VerifyResult::Holds),
        EmptinessVerdict::NonEmpty(w) => Ok(VerifyResult::CounterExample(w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::paper;
    use rega_data::{Qf, QfTerm, SigmaType};

    /// Example 1's automaton: register 2 is constant along every run.
    #[test]
    fn register2_globally_constant_holds() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let phi = LtlFo::new(
            "G stable2",
            [("stable2", Qf::Eq(QfTerm::x(1), QfTerm::y(1)))],
        )
        .unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        assert!(v.holds());
    }

    /// Register 1 is *not* globally constant in Example 1.
    #[test]
    fn register1_globally_constant_fails() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let phi = LtlFo::new(
            "G stable1",
            [("stable1", Qf::Eq(QfTerm::x(0), QfTerm::y(0)))],
        )
        .unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        match v {
            VerifyResult::CounterExample(w) => {
                // The counterexample's prefix run changes register 1.
                let r = &w.prefix_run;
                assert!(r.configs.windows(2).any(|p| p[0].regs[0] != p[1].regs[0]));
            }
            VerifyResult::Holds => panic!("G (x1 = y1) must fail on Example 1"),
        }
    }

    /// Register 2 propagates even when the two registers disagree.
    #[test]
    fn registers_agree_at_q1() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let phi = LtlFo::new(
            "G (disagree -> keep2)",
            [
                ("disagree", Qf::neq(QfTerm::x(0), QfTerm::x(1))),
                ("keep2", Qf::Eq(QfTerm::x(1), QfTerm::y(1))),
            ],
        )
        .unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        assert!(v.holds());
    }

    /// A property with a global variable: in Example 7 (all values
    /// distinct), once a value occurs it never recurs:
    /// ∀z G (x1 = z -> X G x1 ≠ z).
    #[test]
    fn example7_no_value_recurs() {
        let ext = paper::example7();
        let phi = LtlFo::new(
            "G (hit -> X (G miss))",
            [
                ("hit", Qf::Eq(QfTerm::x(0), QfTerm::z(0))),
                ("miss", Qf::neq(QfTerm::x(0), QfTerm::z(0))),
            ],
        )
        .unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        assert!(v.holds());
    }

    /// The same property fails without the all-distinct constraint.
    #[test]
    fn free_automaton_values_can_recur() {
        let mut ra = RegisterAutomaton::new(1, rega_data::Schema::empty());
        let q = ra.add_state("q");
        ra.set_initial(q);
        ra.set_accepting(q);
        ra.add_transition(q, SigmaType::empty(1), q).unwrap();
        let ext = ExtendedAutomaton::new(ra);
        let phi = LtlFo::new(
            "G (hit -> X (G miss))",
            [
                ("hit", Qf::Eq(QfTerm::x(0), QfTerm::z(0))),
                ("miss", Qf::neq(QfTerm::x(0), QfTerm::z(0))),
            ],
        )
        .unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        assert!(!v.holds());
    }

    /// Trivially true and trivially false sentences.
    #[test]
    fn trivial_sentences() {
        let (ra, _) = paper::example1();
        let ext = ExtendedAutomaton::new(ra);
        let tt = LtlFo::new("G taut", [("taut", Qf::True)]).unwrap();
        assert!(verify(&ext, &tt, &VerifyOptions::default())
            .unwrap()
            .holds());
        let ff = LtlFo::new("F bad", [("bad", Qf::False)]).unwrap();
        assert!(!verify(&ext, &ff, &VerifyOptions::default())
            .unwrap()
            .holds());
    }

    /// Database propositions: Example 8's register is always in P.
    #[test]
    fn example8_register_always_in_p() {
        let ext = paper::example8();
        let p_rel = ext.ra().schema().relation("P").unwrap();
        let phi = LtlFo::new("G inP", [("inP", Qf::Rel(p_rel, vec![QfTerm::x(0)]))]).unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        assert!(v.holds());
    }

    /// Along infinite runs every position fires a transition requiring
    /// `P(x1)`, so the *next* value is also always in P.
    #[test]
    fn example8_next_register_always_in_p() {
        let ext = paper::example8();
        let p_rel = ext.ra().schema().relation("P").unwrap();
        let phi = LtlFo::new("G inP", [("inP", Qf::Rel(p_rel, vec![QfTerm::y(0)]))]).unwrap();
        let v = verify(&ext, &phi, &VerifyOptions::default()).unwrap();
        assert!(v.holds());
    }
}
