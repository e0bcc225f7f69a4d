//! Resource governance for the exponential constructions (re-exported from
//! `rega-data`, where the primitives live next to the σ-type machinery they
//! must be able to interrupt).
//!
//! Every exponential-prone entry point in the workspace has a `*_governed`
//! variant taking a [`Budget`]:
//!
//! | construction | governed entry point |
//! |---|---|
//! | completion (Example 2) | [`transform::complete_governed`](crate::transform::complete_governed) |
//! | partial completion | [`transform::complete_for_atoms_governed`](crate::transform::complete_for_atoms_governed) |
//! | state-driven form (Example 3) | [`transform::state_driven_governed`](crate::transform::state_driven_governed) |
//! | `SControl(A)` NBA (Theorem 9) | [`symbolic::scontrol_nba_governed`](crate::symbolic::scontrol_nba_governed) |
//! | emptiness (Corollary 10) | `rega-analysis::emptiness::check_emptiness_governed` |
//! | class structure | `rega-analysis::classes::ClassStructure::build_governed` |
//! | chase / universal witness | `rega-analysis::chase::universal_witness_database_governed` |
//! | Prop 20 projection | `rega-views::prop20::project_register_automaton_governed` |
//! | Thm 13 projection | `rega-views::thm13::project_extended_governed` |
//! | Thm 24 projection | `rega-views::thm24::project_hiding_database_governed` |
//! | completion enumeration itself | [`rega_data::SigmaType::completions_governed`] |
//!
//! The plain, ungoverned entry points (`complete`, `scontrol_nba`, …) all
//! call their `*_governed` form with a fresh `SatCache` and
//! [`Budget::unlimited`], whose per-iteration cost is a single branch —
//! benchmark E17 pins the overhead on the e04/e15 workloads to the noise
//! floor. A budget trip surfaces as [`CoreError::Govern`](crate::CoreError)
//! carrying the [`GovernError`] diagnostics (phase, nodes expanded,
//! elapsed), emits a `govern.tripped` trace event, and bumps the
//! `govern.tripped` / `govern.tripped.<phase>` counters in the global
//! metrics registry.

pub use rega_data::govern::{Budget, BudgetSpec, CancelToken, GovernError, STRIDE};
