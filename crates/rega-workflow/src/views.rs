//! Projection views of the reviewing workflow — the paper's motivating
//! scenario made executable.
//!
//! * Authors do not see their reviewers: [`author_view`] keeps
//!   `[paper, author]` and hides the reviewer register.
//! * Under double-blind reviewing, reviewers do not see the author:
//!   [`reviewer_view_double_blind`] keeps `[paper, reviewer]`.
//!
//! Both use the Proposition 20 construction on the abstract (no-database)
//! model; the result is an extended automaton the user can treat as *the
//! specification of what they observe*, including the non-local constraints
//! the hidden registers induce.

use crate::model::{abstract_model, Workflow};
use rega_core::run::FiniteRun;
use rega_core::transform::permute_registers;
use rega_core::{Budget, CoreError};
use rega_data::{SatCache, Value};
use rega_views::prop20::{project_register_automaton_governed, Projection};

/// The author's view of the abstract workflow: `[paper, author]` visible,
/// the reviewer register hidden.
pub fn author_view() -> Result<Projection, CoreError> {
    let w = abstract_model();
    author_projection(&w, &SatCache::new(w.automaton.schema().clone()))
}

/// The double-blind reviewer's view: `[paper, reviewer]` visible, the
/// author hidden. The registers are permuted so the visible ones lead.
pub fn reviewer_view_double_blind() -> Result<Projection, CoreError> {
    let w = abstract_model();
    reviewer_projection(&w, &SatCache::new(w.automaton.schema().clone()))
}

fn author_projection(w: &Workflow, cache: &SatCache) -> Result<Projection, CoreError> {
    // paper, author are already the leading registers.
    project_register_automaton_governed(&w.automaton, 2, cache, &Budget::unlimited())
}

fn reviewer_projection(w: &Workflow, cache: &SatCache) -> Result<Projection, CoreError> {
    // new order: paper(0), reviewer(2), author(1)
    let permuted = permute_registers(&w.automaton, &[0, 2, 1]);
    project_register_automaton_governed(&permuted, 2, cache, &Budget::unlimited())
}

/// The runtime view of a concrete run: the registers in `keep`, in order.
/// (What a user with the given permissions actually observes of a running
/// workflow instance.)
pub fn project_run(run: &FiniteRun, keep: &[u16]) -> Vec<Vec<Value>> {
    run.configs
        .iter()
        .map(|c| keep.iter().map(|&r| c.regs[r as usize]).collect())
        .collect()
}

/// Convenience bundle for examples: the workflow plus both views.
pub struct WorkflowWithViews {
    /// The abstract workflow.
    pub workflow: Workflow,
    /// The author's view.
    pub author: Projection,
    /// The double-blind reviewer's view.
    pub reviewer: Projection,
}

/// Builds the abstract workflow together with both projection views. Both
/// projections run over one shared σ-type cache (the abstract model's
/// schema is empty either way, so the memo tables are fully shared).
pub fn with_views() -> Result<WorkflowWithViews, CoreError> {
    let workflow = abstract_model();
    let cache = SatCache::new(workflow.automaton.schema().clone());
    Ok(WorkflowWithViews {
        author: author_projection(&workflow, &cache)?,
        reviewer: reviewer_projection(&workflow, &cache)?,
        workflow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_analysis::lr::{is_lr_bounded, LrOptions};
    use rega_core::simulate::{self, SearchLimits};
    use rega_core::ExtendedAutomaton;
    use rega_data::{Database, Schema};

    fn limits() -> SearchLimits {
        SearchLimits {
            max_nodes: 2_000_000,
            max_runs: 200_000,
        }
    }

    #[test]
    fn author_view_builds_and_is_lr_bounded() {
        let v = author_view().unwrap();
        assert_eq!(v.view.k(), 2);
        let lr = is_lr_bounded(&v.view, &LrOptions::default()).unwrap();
        assert!(lr.bounded, "Proposition 20 guarantees LR-boundedness");
    }

    #[test]
    fn reviewer_view_builds() {
        let v = reviewer_view_double_blind().unwrap();
        assert_eq!(v.view.k(), 2);
    }

    #[test]
    fn author_view_is_faithful_on_settled_traces() {
        let w = abstract_model();
        let original = ExtendedAutomaton::new(w.automaton.clone());
        let view = author_view().unwrap().view;
        let db = Database::new(Schema::empty());
        let pool: Vec<Value> = (1..=3).map(Value).collect();
        for len in 1..=3 {
            let want = simulate::projected_settled_traces(&original, &db, len, 2, &pool, limits());
            let got = simulate::projected_settled_traces(&view, &db, len, 2, &pool, limits());
            assert_eq!(want, got, "author view differs at length {len}");
        }
    }

    #[test]
    fn runtime_view_hides_reviewer() {
        let w = abstract_model();
        let db = Database::new(Schema::empty());
        let ext = ExtendedAutomaton::new(w.automaton.clone());
        let pool: Vec<Value> = (1..=3).map(Value).collect();
        let runs = simulate::enumerate_prefixes(&ext, &db, 3, &pool, limits());
        assert!(!runs.is_empty());
        for run in &runs {
            let view = project_run(run, &[0, 1]);
            assert_eq!(view.len(), run.configs.len());
            for (v, c) in view.iter().zip(run.configs.iter()) {
                assert_eq!(v[0], c.regs[0]);
                assert_eq!(v[1], c.regs[1]);
                assert_eq!(v.len(), 2);
            }
        }
    }

    #[test]
    fn with_views_bundle() {
        let bundle = with_views().unwrap();
        assert_eq!(bundle.author.m, 2);
        assert_eq!(bundle.reviewer.m, 2);
        assert_eq!(bundle.workflow.automaton.k(), 3);
    }
}
