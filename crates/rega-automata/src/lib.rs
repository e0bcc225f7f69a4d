#![warn(missing_docs)]

//! Automata substrate for `rega`: finite-word and ω-word automata.
//!
//! The paper's constructions lean on classical automata theory:
//!
//! * regular expressions over the *states* of a register automaton specify
//!   the global constraints of extended register automata (Section 3);
//! * the symbolic control traces `SControl(A)` form an ω-regular language
//!   recognized by a Büchi automaton (Section 2);
//! * Lemma 21 builds subset-construction automata tracking value flow;
//! * verification (Theorem 12) intersects Büchi automata and decides
//!   emptiness;
//! * tests use Büchi complementation to check ω-language containment.
//!
//! All of these constructions explore their automaton from the initial
//! states through one [`Frontier`], which decides the state numbering.
//!
//! Everything here is generic over the letter type `L` (a [`Letter`]), which
//! downstream crates instantiate with state or transition identifiers.

pub mod arena;
pub mod buchi;
pub mod complement;
pub mod dfa;
pub mod emptiness;
pub mod frontier;
pub mod lasso;
pub mod nfa;
pub mod regex;

pub use arena::{EdgeArena, NbaSource, SuccessorSource};
pub use buchi::{Nba, Ngba};
pub use dfa::Dfa;
pub use frontier::Frontier;
pub use lasso::Lasso;
pub use nfa::Nfa;
pub use regex::{Regex, RegexParseError};

/// Bound required of automaton letters. Blanket-implemented.
pub trait Letter: Clone + Eq + std::hash::Hash + Ord + std::fmt::Debug {}
impl<T: Clone + Eq + std::hash::Hash + Ord + std::fmt::Debug> Letter for T {}
