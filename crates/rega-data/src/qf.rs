//! Quantifier-free first-order formulas, used as the propositions of LTL-FO
//! (Definition 11 of the paper).
//!
//! LTL-FO propositions speak about the registers before (`x̄`) and after
//! (`ȳ`) the current transition, plus globally-quantified variables `z̄`
//! which are eliminated by the verifier by turning them into constant
//! registers. Unlike [`SigmaType`]s, these formulas admit
//! arbitrary boolean structure.

use crate::database::Database;
use crate::error::DataError;
use crate::literal::Literal;
use crate::schema::{ConstSym, RelSym, Schema};
use crate::term::{RegIdx, Term};
use crate::types::SigmaType;
use crate::value::Value;
use std::fmt;

/// A term of a quantifier-free formula: like [`Term`] but with global
/// variables `z_i`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QfTerm {
    /// `x_i` — register `i` before the transition.
    X(RegIdx),
    /// `y_i` — register `i` after the transition.
    Y(RegIdx),
    /// `z_i` — a global variable, universally quantified over the run.
    Z(RegIdx),
    /// A constant symbol.
    Const(ConstSym),
}

impl QfTerm {
    /// Convenience constructors mirroring [`Term`].
    pub fn x(i: u16) -> QfTerm {
        QfTerm::X(RegIdx(i))
    }
    /// `y_i`.
    pub fn y(i: u16) -> QfTerm {
        QfTerm::Y(RegIdx(i))
    }
    /// `z_i`.
    pub fn z(i: u16) -> QfTerm {
        QfTerm::Z(RegIdx(i))
    }
    /// The `c`-th constant.
    pub fn cst(c: u32) -> QfTerm {
        QfTerm::Const(ConstSym(c))
    }

    /// Eliminates global variables by mapping `z_i` to register `base + i`
    /// (the verifier adds `|z̄|` constant registers). Other terms unchanged.
    pub fn z_to_register(self, base: u16) -> Term {
        match self {
            QfTerm::X(i) => Term::X(i),
            QfTerm::Y(i) => Term::Y(i),
            QfTerm::Z(i) => Term::X(RegIdx(base + i.0)),
            QfTerm::Const(c) => Term::Const(c),
        }
    }
}

impl fmt::Display for QfTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QfTerm::X(i) => write!(f, "x{i}"),
            QfTerm::Y(i) => write!(f, "y{i}"),
            QfTerm::Z(i) => write!(f, "z{i}"),
            QfTerm::Const(c) => write!(f, "c{}", c.0 + 1),
        }
    }
}

/// A quantifier-free first-order formula over a schema.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Qf {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// `s = t`.
    Eq(QfTerm, QfTerm),
    /// `R(args)`.
    Rel(RelSym, Vec<QfTerm>),
    /// Negation.
    Not(Box<Qf>),
    /// Conjunction.
    And(Vec<Qf>),
    /// Disjunction.
    Or(Vec<Qf>),
}

impl Qf {
    /// `s ≠ t` as a derived form.
    pub fn neq(s: QfTerm, t: QfTerm) -> Qf {
        Qf::Not(Box::new(Qf::Eq(s, t)))
    }

    /// Implication `p → q` as a derived form.
    pub fn implies(p: Qf, q: Qf) -> Qf {
        Qf::Or(vec![Qf::Not(Box::new(p)), q])
    }

    /// Validates relation symbols, arities and register ranges (`x`/`y`
    /// against `k` registers, `z` against `nz` global variables).
    pub fn validate(&self, schema: &Schema, k: u16, nz: u16) -> Result<(), DataError> {
        let check_term = |t: &QfTerm| -> Result<(), DataError> {
            match t {
                QfTerm::X(i) | QfTerm::Y(i) => {
                    if i.0 >= k {
                        return Err(DataError::RegisterOutOfRange { index: i.0, k });
                    }
                }
                QfTerm::Z(i) => {
                    if i.0 >= nz {
                        return Err(DataError::RegisterOutOfRange { index: i.0, k: nz });
                    }
                }
                QfTerm::Const(c) => {
                    if c.0 as usize >= schema.num_constants() {
                        return Err(DataError::UnknownConstant(format!("c{}", c.0)));
                    }
                }
            }
            Ok(())
        };
        match self {
            Qf::True | Qf::False => Ok(()),
            Qf::Eq(s, t) => {
                check_term(s)?;
                check_term(t)
            }
            Qf::Rel(rel, args) => {
                if rel.0 as usize >= schema.num_relations() {
                    return Err(DataError::UnknownRelation(format!("R{}", rel.0)));
                }
                schema.check_arity(*rel, args.len())?;
                args.iter().try_for_each(check_term)
            }
            Qf::Not(inner) => inner.validate(schema, k, nz),
            Qf::And(parts) | Qf::Or(parts) => {
                parts.iter().try_for_each(|p| p.validate(schema, k, nz))
            }
        }
    }

    /// Evaluates the formula against a database and register/global
    /// valuations (`pre` for `x̄`, `post` for `ȳ`, `zvals` for `z̄`).
    pub fn eval(&self, db: &Database, pre: &[Value], post: &[Value], zvals: &[Value]) -> bool {
        let term = |t: &QfTerm| -> Value {
            match t {
                QfTerm::X(i) => pre[i.idx()],
                QfTerm::Y(i) => post[i.idx()],
                QfTerm::Z(i) => zvals[i.idx()],
                QfTerm::Const(c) => db.constant(*c),
            }
        };
        match self {
            Qf::True => true,
            Qf::False => false,
            Qf::Eq(s, t) => term(s) == term(t),
            Qf::Rel(rel, args) => {
                let vals: Vec<Value> = args.iter().map(term).collect();
                db.contains(*rel, &vals)
            }
            Qf::Not(inner) => !inner.eval(db, pre, post, zvals),
            Qf::And(parts) => parts.iter().all(|p| p.eval(db, pre, post, zvals)),
            Qf::Or(parts) => parts.iter().any(|p| p.eval(db, pre, post, zvals)),
        }
    }

    /// Evaluates the formula under a *complete* σ-type: in a complete
    /// automaton the control trace determines the truth of every atom at
    /// each position (Section 3, "Verification of extended automata").
    ///
    /// Global variables must already have been eliminated (mapped to
    /// registers via [`QfTerm::z_to_register`]); an error is returned otherwise,
    /// or if the type does not decide some atom.
    pub fn eval_under_type(&self, ty: &SigmaType, schema: &Schema) -> Result<bool, DataError> {
        let analysis = ty.analyze(schema)?;
        self.eval_under_analysis(&analysis)
    }

    /// [`Qf::eval_under_type`] on an analysis the caller already holds —
    /// typically [`SatCache::analyze`](crate::SatCache::analyze)'s memoized
    /// one, so a type shared by many transitions is analyzed once.
    pub fn eval_under_analysis(&self, a: &crate::types::TypeAnalysis) -> Result<bool, DataError> {
        let to_term = |t: &QfTerm| -> Result<Term, DataError> {
            match t {
                QfTerm::X(i) => Ok(Term::X(*i)),
                QfTerm::Y(i) => Ok(Term::Y(*i)),
                QfTerm::Const(c) => Ok(Term::Const(*c)),
                QfTerm::Z(_) => Err(DataError::Undetermined(
                    "global variable not eliminated".into(),
                )),
            }
        };
        match self {
            Qf::True => Ok(true),
            Qf::False => Ok(false),
            Qf::Eq(s, t) => {
                let s = to_term(s)?;
                let t = to_term(t)?;
                if a.forced_eq(s, t) {
                    Ok(true)
                } else if a.forced_neq(s, t) {
                    Ok(false)
                } else {
                    Err(DataError::Undetermined(format!("{s} = {t}")))
                }
            }
            Qf::Rel(rel, args) => {
                let classes: Vec<usize> = args
                    .iter()
                    .map(|t| to_term(t).map(|t| a.class_of(t)))
                    .collect::<Result<_, _>>()?;
                if a.has_pos_fact(*rel, &classes) {
                    Ok(true)
                } else if a.has_neg_fact(*rel, &classes) {
                    Ok(false)
                } else {
                    Err(DataError::Undetermined(format!("R{}(..)", rel.0)))
                }
            }
            Qf::Not(inner) => Ok(!inner.eval_under_analysis(a)?),
            Qf::And(parts) => {
                for p in parts {
                    if !p.eval_under_analysis(a)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Qf::Or(parts) => {
                for p in parts {
                    if p.eval_under_analysis(a)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Rewrites global variables `z_i` into registers `base + i` and returns
    /// the literals if the formula is a conjunction of literals, for use as
    /// a transition-type fragment. General boolean structure is kept in
    /// [`Qf`] form; this helper is for the common conjunctive case.
    pub fn map_z_to_registers(&self, base: u16) -> Qf {
        match self {
            Qf::True => Qf::True,
            Qf::False => Qf::False,
            Qf::Eq(s, t) => {
                let f = |t: &QfTerm| match t {
                    QfTerm::Z(i) => QfTerm::X(RegIdx(base + i.0)),
                    other => *other,
                };
                Qf::Eq(f(s), f(t))
            }
            Qf::Rel(rel, args) => Qf::Rel(
                *rel,
                args.iter()
                    .map(|t| match t {
                        QfTerm::Z(i) => QfTerm::X(RegIdx(base + i.0)),
                        other => *other,
                    })
                    .collect(),
            ),
            Qf::Not(inner) => Qf::Not(Box::new(inner.map_z_to_registers(base))),
            Qf::And(parts) => Qf::And(parts.iter().map(|p| p.map_z_to_registers(base)).collect()),
            Qf::Or(parts) => Qf::Or(parts.iter().map(|p| p.map_z_to_registers(base)).collect()),
        }
    }

    /// The number of distinct global variables `z_i` (as `max index + 1`).
    pub fn num_globals(&self) -> u16 {
        fn term_max(t: &QfTerm) -> u16 {
            match t {
                QfTerm::Z(i) => i.0 + 1,
                _ => 0,
            }
        }
        match self {
            Qf::True | Qf::False => 0,
            Qf::Eq(s, t) => term_max(s).max(term_max(t)),
            Qf::Rel(_, args) => args.iter().map(term_max).max().unwrap_or(0),
            Qf::Not(inner) => inner.num_globals(),
            Qf::And(parts) | Qf::Or(parts) => {
                parts.iter().map(|p| p.num_globals()).max().unwrap_or(0)
            }
        }
    }

    /// Collects the atoms of the formula as *positive* type literals
    /// (equalities and relational atoms). Requires the formula to be free
    /// of global variables; returns `None` otherwise. Used by the verifier
    /// to complete transition types exactly where the formula looks.
    pub fn atoms(&self) -> Option<Vec<Literal>> {
        fn conv(t: &QfTerm) -> Option<Term> {
            match t {
                QfTerm::X(i) => Some(Term::X(*i)),
                QfTerm::Y(i) => Some(Term::Y(*i)),
                QfTerm::Const(c) => Some(Term::Const(*c)),
                QfTerm::Z(_) => None,
            }
        }
        fn go(f: &Qf, out: &mut Vec<Literal>) -> Option<()> {
            match f {
                Qf::True | Qf::False => Some(()),
                Qf::Eq(s, t) => {
                    out.push(Literal::eq(conv(s)?, conv(t)?));
                    Some(())
                }
                Qf::Rel(rel, args) => {
                    let args: Option<Vec<Term>> = args.iter().map(conv).collect();
                    out.push(Literal::rel(*rel, args?));
                    Some(())
                }
                Qf::Not(inner) => go(inner, out),
                Qf::And(parts) | Qf::Or(parts) => parts.iter().try_for_each(|p| go(p, out)),
            }
        }
        let mut out = Vec::new();
        go(self, &mut out)?;
        out.sort();
        out.dedup();
        Some(out)
    }

    /// Converts a conjunction of literals (no `z`, no `Or`/`Not` except on
    /// atoms) into type literals, or `None` if the formula is not of that
    /// shape.
    pub fn to_literals(&self) -> Option<Vec<Literal>> {
        fn conv_term(t: &QfTerm) -> Option<Term> {
            match t {
                QfTerm::X(i) => Some(Term::X(*i)),
                QfTerm::Y(i) => Some(Term::Y(*i)),
                QfTerm::Const(c) => Some(Term::Const(*c)),
                QfTerm::Z(_) => None,
            }
        }
        match self {
            Qf::True => Some(vec![]),
            Qf::Eq(s, t) => Some(vec![Literal::eq(conv_term(s)?, conv_term(t)?)]),
            Qf::Rel(rel, args) => {
                let args: Option<Vec<Term>> = args.iter().map(conv_term).collect();
                Some(vec![Literal::rel(*rel, args?)])
            }
            Qf::Not(inner) => match &**inner {
                Qf::Eq(s, t) => Some(vec![Literal::neq(conv_term(s)?, conv_term(t)?)]),
                Qf::Rel(rel, args) => {
                    let args: Option<Vec<Term>> = args.iter().map(conv_term).collect();
                    Some(vec![Literal::not_rel(*rel, args?)])
                }
                _ => None,
            },
            Qf::And(parts) => {
                let mut lits = Vec::new();
                for p in parts {
                    lits.extend(p.to_literals()?);
                }
                Some(lits)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Qf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Qf::True => write!(f, "⊤"),
            Qf::False => write!(f, "⊥"),
            Qf::Eq(s, t) => write!(f, "{s}={t}"),
            Qf::Rel(rel, args) => {
                write!(f, "R{}(", rel.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Qf::Not(inner) => write!(f, "¬({inner})"),
            Qf::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Qf::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_concrete() {
        let schema = Schema::with(&[("U", 1)], &[]);
        let u = schema.relation("U").unwrap();
        let mut db = Database::new(schema);
        db.insert(u, vec![Value(5)]).unwrap();
        let f = Qf::And(vec![
            Qf::Rel(u, vec![QfTerm::x(0)]),
            Qf::neq(QfTerm::x(0), QfTerm::y(0)),
        ]);
        assert!(f.eval(&db, &[Value(5)], &[Value(6)], &[]));
        assert!(!f.eval(&db, &[Value(5)], &[Value(5)], &[]));
        assert!(!f.eval(&db, &[Value(6)], &[Value(5)], &[]));
    }

    #[test]
    fn eval_with_globals() {
        let schema = Schema::empty();
        let db = Database::new(schema);
        let f = Qf::Eq(QfTerm::x(0), QfTerm::z(0));
        assert!(f.eval(&db, &[Value(1)], &[Value(1)], &[Value(1)]));
        assert!(!f.eval(&db, &[Value(1)], &[Value(1)], &[Value(2)]));
    }

    #[test]
    fn eval_under_complete_type() {
        let schema = Schema::empty();
        let ty = SigmaType::new(1, [Literal::eq(Term::x(0), Term::y(0))]);
        let f = Qf::Eq(QfTerm::x(0), QfTerm::y(0));
        assert!(f.eval_under_type(&ty, &schema).unwrap());
        let g = Qf::neq(QfTerm::x(0), QfTerm::y(0));
        assert!(!g.eval_under_type(&ty, &schema).unwrap());
    }

    #[test]
    fn eval_under_incomplete_type_errors() {
        let schema = Schema::empty();
        let ty = SigmaType::empty(1);
        let f = Qf::Eq(QfTerm::x(0), QfTerm::y(0));
        assert!(f.eval_under_type(&ty, &schema).is_err());
    }

    #[test]
    fn z_elimination() {
        let f = Qf::Eq(QfTerm::x(0), QfTerm::z(0));
        assert_eq!(f.num_globals(), 1);
        let g = f.map_z_to_registers(3);
        assert_eq!(g, Qf::Eq(QfTerm::x(0), QfTerm::x(3)));
        assert_eq!(g.num_globals(), 0);
    }

    #[test]
    fn to_literals_conjunctive() {
        let schema = Schema::with(&[("U", 1)], &[]);
        let u = schema.relation("U").unwrap();
        let f = Qf::And(vec![
            Qf::Rel(u, vec![QfTerm::x(0)]),
            Qf::Not(Box::new(Qf::Eq(QfTerm::x(0), QfTerm::y(0)))),
        ]);
        let lits = f.to_literals().unwrap();
        assert_eq!(lits.len(), 2);
        assert!(lits.contains(&Literal::rel(u, vec![Term::x(0)])));
        assert!(lits.contains(&Literal::neq(Term::x(0), Term::y(0))));
    }

    #[test]
    fn to_literals_rejects_disjunction() {
        let f = Qf::Or(vec![Qf::True, Qf::False]);
        assert!(f.to_literals().is_none());
    }

    #[test]
    fn validate_ranges() {
        let schema = Schema::empty();
        let f = Qf::Eq(QfTerm::x(3), QfTerm::y(0));
        assert!(f.validate(&schema, 2, 0).is_err());
        assert!(f.validate(&schema, 4, 0).is_ok());
        let g = Qf::Eq(QfTerm::z(1), QfTerm::z(1));
        assert!(g.validate(&schema, 1, 1).is_err());
        assert!(g.validate(&schema, 1, 2).is_ok());
    }

    #[test]
    fn implies_derived_form() {
        let db = Database::new(Schema::empty());
        let f = Qf::implies(Qf::True, Qf::False);
        assert!(!f.eval(&db, &[], &[], &[]));
        let g = Qf::implies(Qf::False, Qf::False);
        assert!(g.eval(&db, &[], &[], &[]));
    }
}
