#![warn(missing_docs)]

//! Decision procedures for (extended) register automata, after *Projection
//! Views of Register Automata* (Segoufin & Vianu, PODS 2020):
//!
//! * [`classes`] — the equivalence relation `∼_w` over (position, register)
//!   pairs of a symbolic control trace, its inequality relation `≠_w`, and
//!   the active-domain classes (the machinery behind Theorem 9);
//! * [`graph`] — the LR inequality graph `G^w_h` (Definition 15) and its
//!   maximum matching;
//! * [`emptiness`] — Corollary 10: emptiness of extended automata, with
//!   witness construction (a finite database plus a concrete run);
//! * [`lr`] — Theorem 18: deciding LR-boundedness;
//! * [`verify`] — Theorem 12: LTL-FO model checking;
//! * [`chase`] — the guarded chase building Theorem 9's stage-1 witness
//!   database directly from the automaton.
//!
//! ## Budgets and exactness
//!
//! The paper's decidability proofs go through MSO with bounding quantifiers;
//! executable counterparts work on ultimately periodic (lasso) traces. Each
//! procedure here is exact on the lassos it examines (constraint structures
//! are computed to a *stabilized* horizon and growth between horizons is
//! detected); the set of lassos examined is budgeted by explicit options.
//! All of the paper's examples are decided correctly within tiny budgets;
//! the experiment suite (EXPERIMENTS.md) probes the budget sensitivity.

pub mod chase;
pub mod classes;
pub mod emptiness;
pub mod graph;
pub mod lr;
pub mod verify;

pub use classes::{ClassOptions, ClassStructure};
pub use emptiness::{EmptinessOptions, EmptinessVerdict, Witness};
pub use lr::{LrOptions, LrVerdict};
pub use verify::{VerifyOptions, VerifyResult};
