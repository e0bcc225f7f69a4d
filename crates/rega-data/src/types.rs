//! σ-types: quantifier-free conjunctive formulas over register variables.
//!
//! A *type* (Section 2) is a satisfiable conjunction of literals over the
//! variables `x̄ ∪ ȳ` and the constants of the schema. Types label the
//! transitions of register automata and specify how registers may change.
//!
//! This module provides:
//! * satisfiability checking ([`SigmaType::analyze`]),
//! * logical saturation (closure under equality reasoning),
//! * restriction to sub-tuples of the variables (`δ|m`, `π₁(δ)`, `δ|ȳ`),
//! * the compatibility test between consecutive types used by symbolic
//!   control traces (`δ_n|ȳ ≅ δ_{n+1}|x̄`),
//! * completeness testing and enumeration of complete extensions
//!   (Example 2's completion construction), and
//! * evaluation against a concrete database and register tuples.

use crate::database::Database;
use crate::error::DataError;
use crate::govern::Budget;
use crate::literal::Literal;
use crate::schema::{ConstSym, RelSym, Schema};
use crate::term::Term;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A σ-type: a conjunction of [`Literal`]s over `x̄ ∪ ȳ ∪ c̄` for a
/// `k`-register automaton. The literal set is kept canonical (deduplicated,
/// ordered), so equal types compare equal structurally.
///
/// The set is shared between clones and copied on the first write, so a
/// construction that gives many transitions one type (a product, a
/// completion) clones it in constant time.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SigmaType {
    k: u16,
    literals: Arc<BTreeSet<Literal>>,
}

impl SigmaType {
    /// The empty (always-true) type over `k` registers.
    pub fn empty(k: u16) -> Self {
        SigmaType::new(k, [])
    }

    /// A type from a list of literals.
    pub fn new(k: u16, literals: impl IntoIterator<Item = Literal>) -> Self {
        SigmaType {
            k,
            literals: Arc::new(literals.into_iter().collect()),
        }
    }

    /// The number of registers `k` this type speaks about.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// The literals of the type.
    pub fn literals(&self) -> impl Iterator<Item = &Literal> {
        self.literals.iter()
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Whether the type has no literals (always true).
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether the literal is (syntactically) present.
    pub fn contains(&self, lit: &Literal) -> bool {
        self.literals.contains(lit)
    }

    /// Adds a literal.
    pub fn add(&mut self, lit: Literal) {
        // A shared set is copied only when the literal is new to it.
        if Arc::get_mut(&mut self.literals).is_some() || !self.literals.contains(&lit) {
            Arc::make_mut(&mut self.literals).insert(lit);
        }
    }

    /// Returns this type extended with a literal.
    pub fn with(&self, lit: Literal) -> SigmaType {
        let mut t = self.clone();
        t.add(lit);
        t
    }

    /// Conjunction of two types over the same `k`.
    pub fn conjoin(&self, other: &SigmaType) -> SigmaType {
        debug_assert_eq!(self.k, other.k);
        let mut t = self.clone();
        for lit in other.literals() {
            t.add(lit.clone());
        }
        t
    }

    /// Validates that all terms are within range for `k` registers and the
    /// schema's symbols, and that relation arities match.
    pub fn validate(&self, schema: &Schema) -> Result<(), DataError> {
        for lit in self.literals() {
            if let Literal::Rel { rel, args, .. } = lit {
                if rel.0 as usize >= schema.num_relations() {
                    return Err(DataError::UnknownRelation(format!("R{}", rel.0)));
                }
                schema.check_arity(*rel, args.len())?;
            }
            for t in lit.terms() {
                match t {
                    Term::X(i) | Term::Y(i) => {
                        if i.0 >= self.k {
                            return Err(DataError::RegisterOutOfRange {
                                index: i.0,
                                k: self.k,
                            });
                        }
                    }
                    Term::Const(c) => {
                        if c.0 as usize >= schema.num_constants() {
                            return Err(DataError::UnknownConstant(format!("c{}", c.0)));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The term universe of this type: `x₁…x_k, y₁…y_k` and the constants.
    pub fn universe(&self, schema: &Schema) -> Vec<Term> {
        let mut terms = Vec::with_capacity(2 * self.k as usize + schema.num_constants());
        for i in 0..self.k {
            terms.push(Term::x(i));
        }
        for i in 0..self.k {
            terms.push(Term::y(i));
        }
        for c in 0..schema.num_constants() as u32 {
            terms.push(Term::Const(ConstSym(c)));
        }
        terms
    }

    /// Analyzes the type: computes equality classes, class-level
    /// inequalities and relational facts, and checks satisfiability.
    pub fn analyze(&self, schema: &Schema) -> Result<TypeAnalysis, DataError> {
        TypeAnalysis::build(self, schema)
    }

    /// Whether the type is satisfiable over the given schema.
    ///
    /// Satisfiability of a conjunction of (in)equality and relational
    /// literals over an infinite domain reduces to: no equality class is
    /// related to itself by `≠`, and no relational atom is forced both
    /// positive and negative (up to the equalities).
    pub fn is_satisfiable(&self, schema: &Schema) -> bool {
        self.analyze(schema).is_ok()
    }

    /// Saturates the type: adds every literal *implied* by the type over its
    /// term universe (equalities within classes, inequalities between
    /// `≠`-related classes, relational atoms propagated through equality).
    /// Undecided atoms are *not* added. Fails if unsatisfiable.
    pub fn saturate(&self, schema: &Schema) -> Result<SigmaType, DataError> {
        let a = self.analyze(schema)?;
        Ok(a.to_saturated_type())
    }

    /// Restriction to the literals whose terms all satisfy `keep`, computed
    /// on the *saturated* type so the restriction is semantically faithful
    /// for complete types. The register count of the result is `new_k`.
    pub fn restrict(
        &self,
        schema: &Schema,
        new_k: u16,
        keep: impl Fn(Term) -> bool,
    ) -> Result<SigmaType, DataError> {
        let sat = self.saturate(schema)?;
        let literals = sat
            .literals()
            .filter(|l| l.terms().into_iter().all(&keep))
            .cloned();
        Ok(SigmaType::new(new_k, literals))
    }

    /// `δ|m` — restriction to the first `m` registers (both `x` and `y`),
    /// keeping constants. Used by the projection constructions (Thm 13, 24).
    pub fn restrict_registers(&self, schema: &Schema, m: u16) -> Result<SigmaType, DataError> {
        self.restrict(schema, m, |t| match t {
            Term::X(i) | Term::Y(i) => i.0 < m,
            Term::Const(_) => true,
        })
    }

    /// The Thm 24 view restriction: the saturated (in)equality literals
    /// whose terms are all among the first `m` registers — constants and
    /// relational facts are hidden along with the database — rebuilt
    /// (canonicalized) at arity `m`.
    pub fn restrict_eq_registers(&self, schema: &Schema, m: u16) -> Result<SigmaType, DataError> {
        let sat = self.saturate(schema)?;
        let keep = sat.literals().filter(|l| {
            matches!(l, Literal::Eq(..) | Literal::Neq(..))
                && l.terms().into_iter().all(|t| match t {
                    Term::X(i) | Term::Y(i) => i.0 < m,
                    Term::Const(_) => false,
                })
        });
        Ok(SigmaType::new(m, keep.cloned()))
    }

    /// `π₁(δ)` — the type induced on `x̄` (and constants): the saturated
    /// restriction to pre-register variables. Used by the guarded formula
    /// `Ψ_A` in Theorem 9.
    pub fn pre_type(&self, schema: &Schema) -> Result<SigmaType, DataError> {
        self.restrict(schema, self.k, |t| !t.is_y())
    }

    /// `δ|ȳ` renamed by `y_i ↦ x_i` — the type induced on the *next*
    /// registers, expressed over `x̄`. Condition (iii) of symbolic control
    /// traces compares this with the successor's [`SigmaType::pre_type`].
    pub fn post_type_as_pre(&self, schema: &Schema) -> Result<SigmaType, DataError> {
        let restricted = self.restrict(schema, self.k, |t| !t.is_x())?;
        let literals = restricted.literals().map(|l| l.map_terms(Term::y_to_x));
        Ok(SigmaType::new(self.k, literals))
    }

    /// Condition (iii) of symbolic control traces: `δ|ȳ ≅ δ′|x̄` under
    /// `y_i ↦ x_i`. Compares saturations, which is exact for complete types.
    pub fn agrees_with(&self, next: &SigmaType, schema: &Schema) -> Result<bool, DataError> {
        let post = self.post_type_as_pre(schema)?;
        let pre = next.pre_type(schema)?;
        Ok(post.literals == pre.literals)
    }

    /// Whether this type (at position `n`) and `next` (at position `n+1`)
    /// are *jointly satisfiable*: `∃ d_n d_{n+1} d_{n+2}` with
    /// `self(d_n, d_{n+1})` and `next(d_{n+1}, d_{n+2})`. For complete types
    /// this coincides with [`SigmaType::agrees_with`]; for incomplete types
    /// it is the correct successor condition (syntactic agreement would
    /// wrongly reject, e.g., `P(x1)` following `P(x1)`).
    pub fn jointly_satisfiable_with(&self, next: &SigmaType, schema: &Schema) -> bool {
        let k = self.k;
        debug_assert_eq!(k, next.k);
        // Encode over 2k registers: x(0..k) = d_n, x(k..2k) = d_{n+1},
        // y(0..k) = d_{n+2}.
        let first = self
            .map_terms(|t| match t {
                Term::Y(i) => Term::x(k + i.0),
                other => other,
            })
            .with_k(2 * k);
        let second = next
            .map_terms(|t| match t {
                Term::X(i) => Term::x(k + i.0),
                other => other,
            })
            .with_k(2 * k);
        first.conjoin(&second).is_satisfiable(schema)
    }

    /// Whether the type is *complete*: it decides every equality between
    /// pairs of terms and every relational atom over its term universe.
    pub fn is_complete(&self, schema: &Schema) -> Result<bool, DataError> {
        let a = self.analyze(schema)?;
        Ok(a.undecided_atom(schema).is_none())
    }

    /// All complete satisfiable extensions of this type (Example 2).
    ///
    /// There may be exponentially many; intended for small `k` and schemas,
    /// as in the paper's constructions.
    pub fn completions(&self, schema: &Schema) -> Result<Vec<SigmaType>, DataError> {
        self.completions_governed(schema, &Budget::unlimited())
    }

    /// [`SigmaType::completions`] under a [`Budget`]: the worklist — the
    /// single most explosive loop in the workspace (the number of complete
    /// extensions grows like the number of set partitions of the term
    /// universe) — ticks once per popped node, so a deadline, node ceiling
    /// or cancellation interrupts the enumeration itself, not just its
    /// callers.
    pub fn completions_governed(
        &self,
        schema: &Schema,
        budget: &Budget,
    ) -> Result<Vec<SigmaType>, DataError> {
        self.analyze(schema)?; // must be satisfiable to start
        let mut done = Vec::new();
        let mut work = vec![self.clone()];
        while let Some(t) = work.pop() {
            budget.tick("sigma.completions")?;
            let a = match t.analyze(schema) {
                Ok(a) => a,
                Err(_) => continue,
            };
            match a.undecided_atom(schema) {
                None => done.push(a.to_saturated_type()),
                Some(atom) => {
                    let pos = t.with(atom.clone());
                    let neg = t.with(atom.negated());
                    if pos.is_satisfiable(schema) {
                        work.push(pos);
                    }
                    if neg.is_satisfiable(schema) {
                        work.push(neg);
                    }
                }
            }
        }
        // Canonical order for reproducibility.
        done.sort();
        done.dedup();
        Ok(done)
    }

    /// Evaluates a term under a valuation of the registers and the database's
    /// constant interpretation.
    pub fn eval_term(t: Term, db: &Database, pre: &[Value], post: &[Value]) -> Value {
        match t {
            Term::X(i) => pre[i.idx()],
            Term::Y(i) => post[i.idx()],
            Term::Const(c) => db.constant(c),
        }
    }

    /// `D ⊨ δ(pre, post)` — whether the type holds in the database with the
    /// given register valuations.
    pub fn satisfied_by(&self, db: &Database, pre: &[Value], post: &[Value]) -> bool {
        debug_assert_eq!(pre.len(), self.k as usize);
        debug_assert_eq!(post.len(), self.k as usize);
        self.literals.iter().all(|lit| match lit {
            Literal::Eq(s, t) => {
                Self::eval_term(*s, db, pre, post) == Self::eval_term(*t, db, pre, post)
            }
            Literal::Neq(s, t) => {
                Self::eval_term(*s, db, pre, post) != Self::eval_term(*t, db, pre, post)
            }
            Literal::Rel {
                rel,
                args,
                positive,
            } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| Self::eval_term(*a, db, pre, post))
                    .collect();
                db.contains(*rel, &vals) == *positive
            }
        })
    }

    /// Applies a term substitution to every literal.
    pub fn map_terms(&self, f: impl Fn(Term) -> Term) -> SigmaType {
        SigmaType::new(self.k, self.literals().map(|l| l.map_terms(&f)))
    }

    /// Returns the same literals viewed as a type over `new_k` registers
    /// (callers must ensure no literal mentions a register `>= new_k`).
    pub fn with_k(&self, new_k: u16) -> SigmaType {
        SigmaType {
            k: new_k,
            literals: Arc::clone(&self.literals),
        }
    }
}

impl fmt::Display for SigmaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "⊤");
        }
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// The result of analyzing a satisfiable type: equality classes over the
/// term universe, class-level inequalities, and class-level relational facts.
///
/// Class indices are *dense* (`0..classes.len()`) and ordered by the least
/// term in the class.
#[derive(Clone, Debug)]
pub struct TypeAnalysis {
    k: u16,
    /// The equivalence classes (each a sorted list of terms).
    classes: Vec<Vec<Term>>,
    class_of: HashMap<Term, usize>,
    /// Class pairs `(a, b)` with `a <= b` related by `≠`.
    neq: BTreeSet<(usize, usize)>,
    /// Positive relational facts at class level.
    pos_facts: BTreeSet<(RelSym, Vec<usize>)>,
    /// Negative relational facts at class level.
    neg_facts: BTreeSet<(RelSym, Vec<usize>)>,
}

impl TypeAnalysis {
    fn build(ty: &SigmaType, schema: &Schema) -> Result<TypeAnalysis, DataError> {
        ty.validate(schema)?;
        let universe = ty.universe(schema);
        let index: HashMap<Term, usize> =
            universe.iter().enumerate().map(|(i, t)| (*t, i)).collect();

        // Union-find over the universe.
        let mut parent: Vec<usize> = (0..universe.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for lit in ty.literals() {
            if let Literal::Eq(s, t) = lit {
                let a = find(&mut parent, index[s]);
                let b = find(&mut parent, index[t]);
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }

        // Dense class ids ordered by least member.
        let mut root_to_class: HashMap<usize, usize> = HashMap::new();
        let mut classes: Vec<Vec<Term>> = Vec::new();
        let mut class_of: HashMap<Term, usize> = HashMap::new();
        for (i, t) in universe.iter().enumerate() {
            let r = find(&mut parent, i);
            let cid = *root_to_class.entry(r).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[cid].push(*t);
            class_of.insert(*t, cid);
        }

        // Inequalities at class level; check consistency.
        let mut neq: BTreeSet<(usize, usize)> = BTreeSet::new();
        for lit in ty.literals() {
            if let Literal::Neq(s, t) = lit {
                let a = class_of[s];
                let b = class_of[t];
                if a == b {
                    return Err(DataError::Unsatisfiable);
                }
                neq.insert((a.min(b), a.max(b)));
            }
        }

        // Relational facts at class level; check consistency.
        let mut pos_facts: BTreeSet<(RelSym, Vec<usize>)> = BTreeSet::new();
        let mut neg_facts: BTreeSet<(RelSym, Vec<usize>)> = BTreeSet::new();
        for lit in ty.literals() {
            if let Literal::Rel {
                rel,
                args,
                positive,
            } = lit
            {
                let cls: Vec<usize> = args.iter().map(|a| class_of[a]).collect();
                if *positive {
                    pos_facts.insert((*rel, cls));
                } else {
                    neg_facts.insert((*rel, cls));
                }
            }
        }
        if pos_facts.intersection(&neg_facts).next().is_some() {
            return Err(DataError::Unsatisfiable);
        }

        Ok(TypeAnalysis {
            k: ty.k,
            classes,
            class_of,
            neq,
            pos_facts,
            neg_facts,
        })
    }

    /// Number of registers.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// The equality classes.
    pub fn classes(&self) -> &[Vec<Term>] {
        &self.classes
    }

    /// The class id of a term of the universe.
    pub fn class_of(&self, t: Term) -> usize {
        self.class_of[&t]
    }

    /// Whether two terms are forced equal.
    pub fn forced_eq(&self, s: Term, t: Term) -> bool {
        self.class_of(s) == self.class_of(t)
    }

    /// Whether two terms are forced distinct.
    pub fn forced_neq(&self, s: Term, t: Term) -> bool {
        let a = self.class_of(s);
        let b = self.class_of(t);
        self.neq.contains(&(a.min(b), a.max(b)))
    }

    /// Class-level `≠` pairs.
    pub fn neq_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.neq.iter().copied()
    }

    /// Class-level positive relational facts.
    pub fn pos_facts(&self) -> impl Iterator<Item = &(RelSym, Vec<usize>)> {
        self.pos_facts.iter()
    }

    /// Class-level negative relational facts.
    pub fn neg_facts(&self) -> impl Iterator<Item = &(RelSym, Vec<usize>)> {
        self.neg_facts.iter()
    }

    /// Whether the class-level positive fact holds.
    pub fn has_pos_fact(&self, rel: RelSym, classes: &[usize]) -> bool {
        self.pos_facts.contains(&(rel, classes.to_vec()))
    }

    /// Whether the class-level negative fact holds.
    pub fn has_neg_fact(&self, rel: RelSym, classes: &[usize]) -> bool {
        self.neg_facts.contains(&(rel, classes.to_vec()))
    }

    /// Finds an atom (over the universe) whose truth value the type does not
    /// determine, or `None` if the type is complete.
    fn undecided_atom(&self, schema: &Schema) -> Option<Literal> {
        // Equalities: every pair of classes must be separated by ≠ (same
        // class means =, different classes need an explicit ≠ literal).
        let n = self.classes.len();
        for a in 0..n {
            for b in (a + 1)..n {
                if !self.neq.contains(&(a, b)) {
                    return Some(Literal::eq(self.classes[a][0], self.classes[b][0]));
                }
            }
        }
        // Relational atoms: every class tuple must be decided.
        for r in schema.relations() {
            let arity = schema.arity(r);
            let total = n.checked_pow(arity as u32).expect("arity overflow");
            for flat in 0..total {
                let mut tuple = Vec::with_capacity(arity);
                let mut rest = flat;
                for _ in 0..arity {
                    tuple.push(rest % n);
                    rest /= n;
                }
                if !self.pos_facts.contains(&(r, tuple.clone()))
                    && !self.neg_facts.contains(&(r, tuple.clone()))
                {
                    let args: Vec<Term> = tuple.iter().map(|&c| self.classes[c][0]).collect();
                    return Some(Literal::rel(r, args));
                }
            }
        }
        None
    }

    /// Produces the saturated type: all implied literals, no undecided ones.
    pub fn to_saturated_type(&self) -> SigmaType {
        let mut literals = BTreeSet::new();
        // Equalities within classes (all pairs).
        for class in &self.classes {
            for i in 0..class.len() {
                for j in (i + 1)..class.len() {
                    literals.insert(Literal::eq(class[i], class[j]));
                }
            }
        }
        // Inequalities between ≠-related classes (all member pairs).
        for &(a, b) in &self.neq {
            for &s in &self.classes[a] {
                for &t in &self.classes[b] {
                    literals.insert(Literal::neq(s, t));
                }
            }
        }
        // Relational facts expanded over class members.
        let expand = |facts: &BTreeSet<(RelSym, Vec<usize>)>,
                      positive: bool,
                      literals: &mut BTreeSet<Literal>| {
            for (rel, cls) in facts {
                let mut combos: Vec<Vec<Term>> = vec![Vec::new()];
                for &c in cls {
                    let mut next = Vec::new();
                    for combo in &combos {
                        for &member in &self.classes[c] {
                            let mut ext = combo.clone();
                            ext.push(member);
                            next.push(ext);
                        }
                    }
                    combos = next;
                }
                for args in combos {
                    literals.insert(Literal::Rel {
                        rel: *rel,
                        args,
                        positive,
                    });
                }
            }
        };
        expand(&self.pos_facts, true, &mut literals);
        expand(&self.neg_facts, false, &mut literals);
        SigmaType {
            k: self.k,
            literals: Arc::new(literals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_db() -> Schema {
        Schema::empty()
    }

    #[test]
    fn empty_type_is_satisfiable() {
        let t = SigmaType::empty(2);
        assert!(t.is_satisfiable(&no_db()));
    }

    #[test]
    fn direct_contradiction_unsat() {
        let t = SigmaType::new(
            1,
            [
                Literal::eq(Term::x(0), Term::y(0)),
                Literal::neq(Term::x(0), Term::y(0)),
            ],
        );
        assert!(!t.is_satisfiable(&no_db()));
    }

    #[test]
    fn transitive_contradiction_unsat() {
        // x1 = x2, x2 = y1, x1 ≠ y1
        let t = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(0)),
                Literal::neq(Term::x(0), Term::y(0)),
            ],
        );
        assert!(!t.is_satisfiable(&no_db()));
    }

    #[test]
    fn relational_clash_unsat() {
        let schema = Schema::with(&[("U", 1)], &[]);
        let u = schema.relation("U").unwrap();
        // U(x1), ¬U(x2), x1 = x2
        let t = SigmaType::new(
            2,
            [
                Literal::rel(u, vec![Term::x(0)]),
                Literal::not_rel(u, vec![Term::x(1)]),
                Literal::eq(Term::x(0), Term::x(1)),
            ],
        );
        assert!(!t.is_satisfiable(&schema));
    }

    #[test]
    fn relational_no_clash_sat() {
        let schema = Schema::with(&[("U", 1)], &[]);
        let u = schema.relation("U").unwrap();
        let t = SigmaType::new(
            2,
            [
                Literal::rel(u, vec![Term::x(0)]),
                Literal::not_rel(u, vec![Term::x(1)]),
            ],
        );
        assert!(t.is_satisfiable(&schema));
    }

    #[test]
    fn saturation_derives_equalities() {
        // Example 1's δ1: x1 = x2 ∧ x2 = y2 implies x1 = y2.
        let t = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(1)),
            ],
        );
        let sat = t.saturate(&no_db()).unwrap();
        assert!(sat.contains(&Literal::eq(Term::x(0), Term::y(1))));
    }

    #[test]
    fn saturation_derives_inequalities() {
        // x1 = x2, x2 ≠ y1 implies x1 ≠ y1
        let t = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::neq(Term::x(1), Term::y(0)),
            ],
        );
        let sat = t.saturate(&no_db()).unwrap();
        assert!(sat.contains(&Literal::neq(Term::x(0), Term::y(0))));
    }

    #[test]
    fn saturation_propagates_relations() {
        let schema = Schema::with(&[("U", 1)], &[]);
        let u = schema.relation("U").unwrap();
        let t = SigmaType::new(
            2,
            [
                Literal::rel(u, vec![Term::x(0)]),
                Literal::eq(Term::x(0), Term::x(1)),
            ],
        );
        let sat = t.saturate(&schema).unwrap();
        assert!(sat.contains(&Literal::rel(u, vec![Term::x(1)])));
    }

    #[test]
    fn pre_and_post_types() {
        // δ1 from Example 1: x1 = x2 ∧ x2 = y2
        let t = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(1)),
            ],
        );
        let pre = t.pre_type(&no_db()).unwrap();
        assert!(pre.contains(&Literal::eq(Term::x(0), Term::x(1))));
        assert!(!pre.literals().any(|l| l.terms().iter().any(|t| t.is_y())));
        let post = t.post_type_as_pre(&no_db()).unwrap();
        // only y2 is constrained on the post side, alone — no literal survives
        assert!(post.is_empty());
    }

    #[test]
    fn agreement_of_consecutive_types() {
        // δ: y1 = y2 — post side says x1 = x2 after renaming.
        let t1 = SigmaType::new(2, [Literal::eq(Term::y(0), Term::y(1))]);
        // δ': x1 = x2
        let t2 = SigmaType::new(2, [Literal::eq(Term::x(0), Term::x(1))]);
        assert!(t1.agrees_with(&t2, &no_db()).unwrap());
        // δ'': x1 ≠ x2 disagrees
        let t3 = SigmaType::new(2, [Literal::neq(Term::x(0), Term::x(1))]);
        assert!(!t1.agrees_with(&t3, &no_db()).unwrap());
    }

    #[test]
    fn incomplete_vs_complete() {
        let schema = no_db();
        let t = SigmaType::new(1, [Literal::eq(Term::x(0), Term::y(0))]);
        assert!(t.is_complete(&schema).unwrap());
        let t2 = SigmaType::empty(1);
        assert!(!t2.is_complete(&schema).unwrap());
    }

    #[test]
    fn completions_of_empty_type_one_register() {
        // Over 1 register, no db: atoms are just x1 = y1 — two completions.
        let schema = no_db();
        let t = SigmaType::empty(1);
        let comps = t.completions(&schema).unwrap();
        assert_eq!(comps.len(), 2);
        for c in &comps {
            assert!(c.is_complete(&schema).unwrap());
        }
    }

    #[test]
    fn completions_of_example_2() {
        // Example 2: completing δ1 = (x1=x2 ∧ x2=y2) over 2 registers yields
        // exactly two completions (settle y1 vs the single class of
        // x1,x2,y2): y1 = y2 or y1 ≠ y2.
        let schema = no_db();
        let d1 = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(1)),
            ],
        );
        let comps = d1.completions(&schema).unwrap();
        assert_eq!(comps.len(), 2);
        let with_eq = comps
            .iter()
            .filter(|c| c.contains(&Literal::eq(Term::y(0), Term::y(1))))
            .count();
        let with_neq = comps
            .iter()
            .filter(|c| c.contains(&Literal::neq(Term::y(0), Term::y(1))))
            .count();
        assert_eq!(with_eq, 1);
        assert_eq!(with_neq, 1);
    }

    #[test]
    fn completions_with_unary_relation() {
        // 1 register, one unary relation: atoms x1=y1, U(x1), U(y1).
        // Completions: choose x1=y1 (then U(x1) determines U(y1)): 2·2 = ...
        // x1=y1: U decided on one class → 2 completions.
        // x1≠y1: U(x1), U(y1) independent → 4 completions. Total 6.
        let schema = Schema::with(&[("U", 1)], &[]);
        let comps = SigmaType::empty(1).completions(&schema).unwrap();
        assert_eq!(comps.len(), 6);
    }

    #[test]
    fn satisfied_by_concrete_values() {
        let schema = Schema::with(&[("E", 2)], &[]);
        let e = schema.relation("E").unwrap();
        let mut db = Database::new(schema.clone());
        db.insert(e, vec![Value(1), Value(2)]).unwrap();
        let t = SigmaType::new(
            2,
            [
                Literal::rel(e, vec![Term::x(0), Term::x(1)]),
                Literal::eq(Term::x(0), Term::y(0)),
            ],
        );
        assert!(t.satisfied_by(&db, &[Value(1), Value(2)], &[Value(1), Value(9)]));
        assert!(!t.satisfied_by(&db, &[Value(2), Value(1)], &[Value(2), Value(9)]));
        assert!(!t.satisfied_by(&db, &[Value(1), Value(2)], &[Value(3), Value(9)]));
    }

    #[test]
    fn restrict_registers_drops_hidden() {
        // x1 = y1 ∧ x2 = y2 restricted to 1 register keeps only x1 = y1.
        let t = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::y(0)),
                Literal::eq(Term::x(1), Term::y(1)),
            ],
        );
        let r = t.restrict_registers(&no_db(), 1).unwrap();
        assert_eq!(r.k(), 1);
        assert!(r.contains(&Literal::eq(Term::x(0), Term::y(0))));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn restrict_keeps_derived_facts() {
        // x1 = x2 ∧ x2 = y1: restriction to register 1 must keep x1 = y1,
        // which is only *derived*.
        let t = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(0)),
            ],
        );
        let r = t.restrict_registers(&no_db(), 1).unwrap();
        assert!(r.contains(&Literal::eq(Term::x(0), Term::y(0))));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let t = SigmaType::new(1, [Literal::eq(Term::x(0), Term::x(5))]);
        assert!(t.validate(&no_db()).is_err());
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let schema = Schema::with(&[("E", 2)], &[]);
        let e = schema.relation("E").unwrap();
        let t = SigmaType::new(1, [Literal::rel(e, vec![Term::x(0)])]);
        assert!(t.validate(&schema).is_err());
    }

    #[test]
    fn constants_participate_in_classes() {
        let schema = Schema::with(&[], &["c"]);
        // x1 = c ∧ y1 = c implies x1 = y1
        let t = SigmaType::new(
            1,
            [
                Literal::eq(Term::x(0), Term::cst(0)),
                Literal::eq(Term::y(0), Term::cst(0)),
            ],
        );
        let sat = t.saturate(&schema).unwrap();
        assert!(sat.contains(&Literal::eq(Term::x(0), Term::y(0))));
    }

    #[test]
    fn analysis_accessors() {
        let t = SigmaType::new(2, [Literal::eq(Term::x(0), Term::y(1))]);
        let a = t.analyze(&no_db()).unwrap();
        assert!(a.forced_eq(Term::x(0), Term::y(1)));
        assert!(!a.forced_eq(Term::x(0), Term::x(1)));
        assert!(!a.forced_neq(Term::x(0), Term::x(1)));
        assert_eq!(a.classes().len(), 3);
    }

    #[test]
    fn display_renders() {
        let t = SigmaType::new(1, [Literal::eq(Term::x(0), Term::y(0))]);
        assert_eq!(t.to_string(), "x1=y1");
        assert_eq!(SigmaType::empty(1).to_string(), "⊤");
    }
}
