//! Executable versions of the paper's separating examples, with the trace
//! families that witness each separation. The automata themselves live in
//! [`rega_core::paper`]; this module packages each example together with
//! the *distinguishing argument*, executable as assertions, for use by the
//! experiment suite (E1, E5, E8).

use rega_core::paper;
use rega_core::run::FiniteRun;
use rega_core::simulate::{self, SearchLimits};
use rega_core::{CoreError, ExtendedAutomaton};
use rega_data::{Database, Schema, Value};

/// **Example 4's argument, executably.** For any candidate 1-register
/// automaton claiming to express `Π₁(Reg(A))` of Example 1, the paper
/// derives a contradiction from a pumping swap. This function runs the
/// *semantic core* of that argument against a candidate: it checks whether
/// the candidate accepts a prefix in which the initial value recurs and
/// also a swapped prefix in which it does not — no correct view may accept
/// the latter.
///
/// Returns `Ok(true)` if the candidate is refuted (accepts an illegal
/// swapped trace or rejects a legal one), `Ok(false)` if it survives this
/// particular test family.
pub fn refute_view_candidate(
    candidate: &ExtendedAutomaton,
    len: usize,
    pool: &[Value],
    limits: SearchLimits,
) -> Result<bool, CoreError> {
    if candidate.k() != 1 {
        return Err(CoreError::RegisterCountMismatch {
            expected: 1,
            got: candidate.k(),
        });
    }
    let db = Database::new(Schema::empty());
    let (ra, _) = paper::example1();
    let original = ExtendedAutomaton::new(ra);
    // Finite horizon: settled prefix-trace sets must agree.
    let legal = simulate::projected_settled_traces(&original, &db, len, 1, pool, limits);
    let claimed = simulate::projected_settled_traces(candidate, &db, len, 1, pool, limits);
    if legal != claimed {
        return Ok(true);
    }
    // Infinite horizon — the actual Example 4 argument: probe ultimately
    // periodic traces whose initial value does or does not recur. The
    // legal view accepts a trace iff the value at every revisit of the
    // initial control point equals the initial value.
    let probes = [
        // initial value recurs forever: legal.
        rega_automata::Lasso::periodic(vec![vec![Value(1)], vec![Value(2)]]),
        // initial value occurs only once: illegal (Example 4's swap).
        rega_automata::Lasso::new(vec![vec![Value(1)]], vec![vec![Value(2)], vec![Value(2)]]),
    ];
    for probe in &probes {
        let reference =
            simulate::find_lasso_with_projection(&original, &db, probe, pool, 12, limits)?
                .is_some();
        let candidate_accepts =
            simulate::find_lasso_with_projection(candidate, &db, probe, pool, 12, limits)?
                .is_some();
        if reference != candidate_accepts {
            return Ok(true);
        }
    }
    Ok(false)
}

/// **Example 7/17's argument**: all-distinct register traces exist as
/// prefixes of every length, but no lasso run exists. Returns the pair
/// (longest all-distinct prefix found, whether a lasso run exists within
/// the budget).
pub fn example7_separation(
    len: usize,
    limits: SearchLimits,
) -> Result<(Option<FiniteRun>, bool), CoreError> {
    let ext = paper::example7();
    let db = Database::new(Schema::empty());
    let pool: Vec<Value> = (0..len as u64 + 1).map(Value).collect();
    let prefixes = simulate::enumerate_prefixes(&ext, &db, len, &pool, limits);
    let lasso = simulate::find_lasso_run(&ext, &db, len, &pool, limits)?;
    Ok((prefixes.into_iter().next(), lasso.is_some()))
}

/// **Example 8's argument**: with `|P| = n`, runs exist whose `p`-blocks
/// have length up to `n` but none longer — the non-ω-regular bound on
/// state traces. Returns the longest pure-`p` *prefix* realizable within
/// the budget; since a prefix's final position is not yet constrained by
/// an outgoing transition, this equals `n + 1` — the bound shifted by the
/// one dangling position.
pub fn example8_longest_p_block(n_values: usize, limits: SearchLimits) -> usize {
    let ext = paper::example8();
    let schema = ext.ra().schema().clone();
    let p_rel = schema.relation("P").expect("declared");
    let mut db = Database::new(schema);
    for v in 0..n_values as u64 {
        db.insert(p_rel, vec![Value(v)]).expect("unary fact");
    }
    let p = ext.ra().state_by_name("p").expect("state p");
    let pool = simulate::default_pool(&db, 1);
    // Longest prefix visiting only p.
    let mut best = 0;
    for len in 1..=n_values + 2 {
        let runs = simulate::enumerate_prefixes(&ext, &db, len, &pool, limits);
        let ok = runs.iter().any(|r| r.configs.iter().all(|c| c.state == p));
        if ok {
            best = len;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop20::project_register_automaton;
    use rega_core::paper;
    use rega_core::RegisterAutomaton;
    use rega_data::SigmaType;

    fn limits() -> SearchLimits {
        SearchLimits {
            max_nodes: 2_000_000,
            max_runs: 500_000,
        }
    }

    #[test]
    fn free_automaton_is_refuted_as_view() {
        // A 1-register automaton with no constraints accepts too much.
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let p1 = ra.add_state("p1");
        let p2 = ra.add_state("p2");
        ra.set_initial(p1);
        ra.set_accepting(p1);
        ra.add_transition(p1, SigmaType::empty(1), p2).unwrap();
        ra.add_transition(p2, SigmaType::empty(1), p2).unwrap();
        ra.add_transition(p2, SigmaType::empty(1), p1).unwrap();
        let candidate = ExtendedAutomaton::new(ra);
        let refuted =
            refute_view_candidate(&candidate, 4, &[Value(1), Value(2)], limits()).unwrap();
        assert!(refuted, "the unconstrained candidate must be refuted");
    }

    #[test]
    fn example5_survives_as_view() {
        // The paper's extended automaton (Example 5) is the correct view.
        let candidate = paper::example5();
        for len in 1..=4 {
            let refuted =
                refute_view_candidate(&candidate, len, &[Value(1), Value(2)], limits()).unwrap();
            assert!(!refuted, "Example 5 is the correct view (length {len})");
        }
    }

    #[test]
    fn constructed_projection_survives_as_view() {
        // So does the Lemma 21-based construction.
        let (ra, _) = paper::example1();
        let proj = project_register_automaton(&ra, 1).unwrap();
        for len in 1..=4 {
            let refuted =
                refute_view_candidate(&proj.view, len, &[Value(1), Value(2)], limits()).unwrap();
            assert!(!refuted, "constructed view must be faithful (length {len})");
        }
    }

    #[test]
    fn example7_prefixes_without_lasso() {
        let (prefix, has_lasso) = example7_separation(5, limits()).unwrap();
        assert!(prefix.is_some(), "all-distinct prefixes exist");
        assert!(!has_lasso, "no ultimately periodic run exists");
    }

    #[test]
    fn example8_blocks_bounded_by_database() {
        for n in 1..=3 {
            let best = example8_longest_p_block(n, limits());
            assert_eq!(
                best,
                n + 1,
                "longest pure-p prefix must equal |P| + 1 = {} (the final position dangles)",
                n + 1
            );
        }
    }
}
