#![warn(missing_docs)]

//! Projection views of register automata — the constructions of *Projection
//! Views of Register Automata* (Segoufin & Vianu, PODS 2020).
//!
//! The paper's motivating question: a register automaton models a workflow;
//! a class of users sees only some of its registers (e.g. authors of a
//! manuscript never see the reviewer registers). Can the *view* — the
//! projected register traces — itself be described by an automaton, so the
//! user has a faithful specification of what they can observe?
//!
//! * [`lemma21`] — the value-flow automata of Lemma 21: for a complete,
//!   state-driven register automaton, regular languages (here: DFAs over
//!   the state alphabet) characterizing `(a,i) ∼ (b,j)` and
//!   `(a,i) ≠ (b,j)` by the factor `q_a … q_b` of the state trace.
//! * [`prop6`] — Proposition 6: global *equality* constraints are
//!   eliminated using extra registers; only inequality constraints remain.
//! * [`prop20`] — Proposition 20 (the "only if" half of Theorem 19, and the
//!   workhorse API): the projection of a register automaton onto its first
//!   `m` registers, as an LR-bounded extended automaton.
//! * [`thm13`] — Theorem 13: closure of extended automata under projection
//!   (no database), by reduction through Proposition 6 to the Lemma 21
//!   machinery.
//! * [`prop22`] — Proposition 22 (the "if" half of Theorem 19): LR-bounded
//!   extended automata are projections of register automata; implemented as
//!   the streaming enforcement engine with the `2M² + 1` register budget.
//! * [`thm24`] — Theorem 24: hiding some registers *and the entire
//!   database*, as an enhanced automaton with finiteness and
//!   tuple-inequality constraints.
//! * [`counterexamples`] — executable versions of the paper's separating
//!   examples (4, 7, 8, 16, 17, 23), used by the experiment suite.

mod assemble;
pub mod counterexamples;
pub mod lemma21;
pub mod observer;
pub mod prop20;
pub mod prop22;
pub mod prop6;
pub mod thm13;
pub mod thm24;

pub use observer::{ObserverSnapshot, Verdict, ViewObserver};
pub use prop20::{
    project_register_automaton, project_register_automaton_governed,
    project_register_automaton_reference_governed, Projection,
};
pub use prop6::eliminate_global_equalities;
pub use thm13::{project_extended, project_extended_governed, project_extended_reference_governed};
pub use thm24::{
    project_hiding_database, project_hiding_database_governed,
    project_hiding_database_reference_governed,
};
