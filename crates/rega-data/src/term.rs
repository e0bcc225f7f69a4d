//! Terms appearing in σ-types: register variables and constants.
//!
//! A transition type of a `k`-register automaton speaks about two `k`-tuples
//! of variables: `x₁ … x_k` (register values *before* the transition) and
//! `y₁ … y_k` (register values *after*), plus the constant symbols of the
//! schema.

use crate::schema::ConstSym;
use std::fmt;

/// A register index `i ∈ [k]`, 0-based in code (the paper is 1-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegIdx(pub u16);

impl RegIdx {
    /// The 0-based index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0 + 1) // display 1-based, like the paper
    }
}

/// A term of a σ-type: a pre-register variable `x_i`, a post-register
/// variable `y_i`, or a constant symbol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// `x_i` — the value of register `i` before the transition.
    X(RegIdx),
    /// `y_i` — the value of register `i` after the transition.
    Y(RegIdx),
    /// A constant symbol of the schema.
    Const(ConstSym),
}

impl Term {
    /// Convenience constructor for `x_i` with a 0-based index.
    pub fn x(i: u16) -> Term {
        Term::X(RegIdx(i))
    }

    /// Convenience constructor for `y_i` with a 0-based index.
    pub fn y(i: u16) -> Term {
        Term::Y(RegIdx(i))
    }

    /// Convenience constructor for the `c`-th constant.
    pub fn cst(c: u32) -> Term {
        Term::Const(ConstSym(c))
    }

    /// Is this a pre-register variable?
    pub fn is_x(&self) -> bool {
        matches!(self, Term::X(_))
    }

    /// Is this a post-register variable?
    pub fn is_y(&self) -> bool {
        matches!(self, Term::Y(_))
    }

    /// Renames `y_i → x_i`, leaving other terms unchanged. This is the
    /// isomorphism used when comparing `δ|ȳ` with `δ′|x̄` in the definition
    /// of symbolic control traces.
    pub fn y_to_x(self) -> Term {
        match self {
            Term::Y(i) => Term::X(i),
            t => t,
        }
    }

    /// Renames `x_i → y_i`, leaving other terms unchanged.
    pub fn x_to_y(self) -> Term {
        match self {
            Term::X(i) => Term::Y(i),
            t => t,
        }
    }

    /// The register index if this is a register variable.
    pub fn register(&self) -> Option<RegIdx> {
        match self {
            Term::X(i) | Term::Y(i) => Some(*i),
            Term::Const(_) => None,
        }
    }

    /// Remaps the register index through `f` (used when adding/removing
    /// registers in automaton constructions); constants are unchanged.
    pub fn map_register(self, f: impl Fn(RegIdx) -> RegIdx) -> Term {
        match self {
            Term::X(i) => Term::X(f(i)),
            Term::Y(i) => Term::Y(f(i)),
            c => c,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::X(i) => write!(f, "x{i}"),
            Term::Y(i) => write!(f, "y{i}"),
            Term::Const(c) => write!(f, "c{}", c.0 + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_y_to_x() {
        assert_eq!(Term::y(3).y_to_x(), Term::x(3));
        assert_eq!(Term::x(3).y_to_x(), Term::x(3));
        assert_eq!(Term::cst(0).y_to_x(), Term::cst(0));
    }

    #[test]
    fn rename_x_to_y() {
        assert_eq!(Term::x(1).x_to_y(), Term::y(1));
        assert_eq!(Term::y(1).x_to_y(), Term::y(1));
    }

    #[test]
    fn display_is_one_based() {
        assert_eq!(Term::x(0).to_string(), "x1");
        assert_eq!(Term::y(1).to_string(), "y2");
    }

    #[test]
    fn register_accessor() {
        assert_eq!(Term::x(2).register(), Some(RegIdx(2)));
        assert_eq!(Term::cst(0).register(), None);
    }

    #[test]
    fn map_register_shifts() {
        let t = Term::y(1).map_register(|r| RegIdx(r.0 + 5));
        assert_eq!(t, Term::y(6));
    }
}
