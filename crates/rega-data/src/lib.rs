#![warn(missing_docs)]

//! Data substrate for `rega`: the infinite data domain, relational schemas,
//! finite databases, and the symbolic σ-types used by register automata.
//!
//! This crate implements Section 2 ("Preliminaries") of *Projection Views of
//! Register Automata* (Segoufin & Vianu, PODS 2020):
//!
//! * [`Value`] — elements of the infinite data domain `𝔻`.
//! * [`Schema`] — relational signatures with constants.
//! * [`Database`] — finite relational structures over `𝔻`.
//! * [`SigmaType`] — quantifier-free conjunctive formulas ("types") over the
//!   register variables `x̄` (current) and `ȳ` (next), with satisfiability,
//!   restriction, completion, and compatibility checks.
//! * [`Qf`] — arbitrary quantifier-free first-order formulas, used by the
//!   LTL-FO verification layer (Definition 11 of the paper).
//! * [`SatCache`] / [`TypeInterner`] — hash-consed σ-types ([`TypeId`]
//!   handles) with memoized analysis, saturation, restriction, joint
//!   satisfiability, and completion, shared by the whole analysis stack.
//! * [`TypeBits`] / [`TypeBitsSpace`] — a fixed-width bitset encoding of
//!   σ-types with word-level kernels for the same operations, used by the
//!   fast symbolic-control paths and losslessly convertible to/from
//!   [`SigmaType`] and interned [`TypeId`]s.
//! * [`fxhash`] — the seeded Fx hash every hot table of the stack is keyed
//!   on (the `SatCache` tables, the Lemma 21 and Thm 24 interning tables,
//!   the view observer's configuration sets).

pub mod database;
pub mod error;
pub mod fxhash;
pub mod govern;
pub mod intern;
pub mod literal;
pub mod qf;
pub mod schema;
pub mod term;
pub mod typebits;
pub mod types;
pub mod value;

pub use database::Database;
pub use error::DataError;
pub use govern::{Budget, BudgetSpec, CancelToken, GovernError};
pub use intern::{CacheStats, RestrictOp, SatCache, TypeId, TypeInterner};
pub use literal::Literal;
pub use qf::{Qf, QfTerm};
pub use schema::{ConstSym, RelSym, Schema};
pub use term::{RegIdx, Term};
pub use typebits::{TypeBits, TypeBitsSpace};
pub use types::SigmaType;
pub use value::{Value, ValueSupply};
