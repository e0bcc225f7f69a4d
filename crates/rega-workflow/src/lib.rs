#![warn(missing_docs)]

//! The manuscript-reviewing workflow from the paper's introduction, modeled
//! as a register automaton, with the projection views the paper motivates:
//! authors never see the reviewer registers, and under double-blind
//! reviewing the reviewers never see the author.
//!
//! Two models are provided, mirroring the paper's own scoping:
//!
//! * [`abstract_model`] — no database (reviewer chosen nondeterministically
//!   subject to register constraints). Sections 4–5 develop projection
//!   views exactly in this setting, so [`author_view`] and
//!   [`reviewer_view_double_blind`] use the Proposition 20 construction and
//!   come with LR-boundedness guarantees.
//! * [`database_model`] — papers, authors, reviewers, and topic preferences
//!   in a relational database queried by the transitions; used for run
//!   simulation, LTL-FO verification (Theorem 12) and emptiness checking
//!   (Corollary 10). Projection views in the presence of a database need
//!   the Section 6 machinery ([`rega_views::thm24`]).

pub mod model;
pub mod scenario;
pub mod views;

pub use model::{abstract_model, database_model, Roles, Workflow};
pub use scenario::sample_database;
pub use views::{author_view, project_run, reviewer_view_double_blind};
