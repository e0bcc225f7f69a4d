//! `TypeBits`: a fixed-width bitset encoding of σ-types.
//!
//! Register automata in practice have *few* registers (the paper's examples
//! use k ≤ 2), so the term universe of a σ-type — `x̄ ∪ ȳ ∪ c̄` — fits in a
//! machine word's worth of bits. Following the finite exact small-int
//! representation idea (Chen–Lengál–Tan–Wu), this module packs a σ-type
//! into a [`TypeBits`] value:
//!
//! * (in)equality literals over term pairs as bits of a `u128` (triangular
//!   pair indexing over ≤ [`MAX_TERMS`] terms),
//! * degenerate self-literals `t = t` / `t ≠ t` as `u16` masks (kept so the
//!   encoding is *lossless* at the literal level),
//! * unary relational literals as `u16` masks per relation, and
//! * binary relational literals as 16×16 bit matrices per relation.
//!
//! Every σ-type operation the symbolic constructions use — satisfiability,
//! saturation, restriction, joint satisfiability of consecutive types,
//! completion — then becomes a handful of word operations: the
//! equality closure is computed by merging `u16` class masks (small-int
//! partition refinement) instead of a heap-allocated union-find plus hash
//! maps, and all consistency checks are mask intersections.
//!
//! The encoding is *exact*, not approximate: [`TypeBitsSpace::encode`] /
//! [`TypeBitsSpace::decode`] round-trip every representable [`SigmaType`]
//! identically, and each word-level operation computes the same function as
//! its [`SigmaType`] counterpart (pinned by the `typebits_equivalence`
//! differential suite). Inputs outside the supported fragment — more than
//! [`MAX_TERMS`] terms, more than [`MAX_RELS`] relations, or arities other
//! than 1 and 2 — are *gated*, not mis-handled: [`TypeBitsSpace::new`] and
//! [`TypeBitsSpace::encode`] return `None` and callers fall back to the
//! general [`SigmaType`]/[`SatCache`](crate::SatCache) path. Outside this
//! crate only `rega_core::typeops::TypeOps` chooses between the two paths.

use crate::error::DataError;
use crate::govern::Budget;
use crate::literal::Literal;
use crate::schema::{ConstSym, Schema};
use crate::term::Term;
use crate::types::SigmaType;

/// Maximum universe size (terms) a [`TypeBitsSpace`] supports: class masks
/// are `u16` and term pairs index into a `u128` (120 pairs over 16 terms).
pub const MAX_TERMS: usize = 16;

/// Maximum number of relation symbols a [`TypeBitsSpace`] supports.
pub const MAX_RELS: usize = 4;

/// Triangular index of the unordered pair `{i, j}` with `i < j`.
#[inline]
fn pair_bit(i: usize, j: usize) -> u128 {
    debug_assert!(i < j && j < MAX_TERMS);
    1u128 << (j * (j - 1) / 2 + i)
}

/// Inverse of [`pair_bit`]: `PAIRS[p]` is the `(i, j)` pair at bit `p`.
const PAIRS: [(u8, u8); 128] = {
    let mut t = [(0u8, 0u8); 128];
    let mut j = 1;
    while j < MAX_TERMS {
        let mut i = 0;
        while i < j {
            t[j * (j - 1) / 2 + i] = (i as u8, j as u8);
            i += 1;
        }
        j += 1;
    }
    t
};

/// Iterates the set bits of a `u16` mask.
#[inline]
fn bits(mask: u16) -> impl Iterator<Item = usize> {
    let mut rem = mask;
    std::iter::from_fn(move || {
        if rem == 0 {
            return None;
        }
        let i = rem.trailing_zeros() as usize;
        rem &= rem - 1;
        Some(i)
    })
}

/// Iterates the set pair-bits of a `u128`, decoded to `(i, j)` with `i < j`.
#[inline]
fn pairs(set: u128) -> impl Iterator<Item = (usize, usize)> {
    let mut rem = set;
    std::iter::from_fn(move || {
        if rem == 0 {
            return None;
        }
        let p = rem.trailing_zeros() as usize;
        rem &= rem - 1;
        let (i, j) = PAIRS[p];
        Some((i as usize, j as usize))
    })
}

/// Union of the class masks of every term in `mask`.
#[inline]
fn lift(cm: &[u16; MAX_TERMS], mask: u16) -> u16 {
    let mut out = 0;
    for i in bits(mask) {
        out |= cm[i];
    }
    out
}

/// A σ-type packed into fixed-width bitsets. Values are only meaningful
/// relative to the [`TypeBitsSpace`] that produced them (which fixes the
/// term numbering); the derived `Ord` is an arbitrary total order used for
/// canonical sorting, not a semantic one.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TypeBits {
    /// Equality literals between *distinct* terms, as triangular pair bits.
    eq: u128,
    /// Inequality literals between distinct terms.
    neq: u128,
    /// Trivial `t = t` literals (lossless round-trip of degenerate input).
    self_eq: u16,
    /// Trivial `t ≠ t` literals (syntactically representable, always unsat).
    self_neq: u16,
    /// Positive unary literals: one term mask per relation.
    un_pos: [u16; MAX_RELS],
    /// Negative unary literals.
    un_neg: [u16; MAX_RELS],
    /// Positive binary literals: `bin_pos[r][i]` has bit `j` iff `R(i, j)`.
    bin_pos: [[u16; MAX_TERMS]; MAX_RELS],
    /// Negative binary literals.
    bin_neg: [[u16; MAX_TERMS]; MAX_RELS],
}

impl TypeBits {
    /// The empty (always-true) type.
    pub fn empty() -> TypeBits {
        TypeBits {
            eq: 0,
            neq: 0,
            self_eq: 0,
            self_neq: 0,
            un_pos: [0; MAX_RELS],
            un_neg: [0; MAX_RELS],
            bin_pos: [[0; MAX_TERMS]; MAX_RELS],
            bin_neg: [[0; MAX_TERMS]; MAX_RELS],
        }
    }

    /// Whether no literal bit is set.
    pub fn is_empty(&self) -> bool {
        *self == TypeBits::empty()
    }

    /// Number of encoded literals.
    pub fn len(&self) -> usize {
        let mut n = (self.eq.count_ones()
            + self.neq.count_ones()
            + self.self_eq.count_ones()
            + self.self_neq.count_ones()) as usize;
        for r in 0..MAX_RELS {
            n += (self.un_pos[r].count_ones() + self.un_neg[r].count_ones()) as usize;
            for i in 0..MAX_TERMS {
                n += (self.bin_pos[r][i].count_ones() + self.bin_neg[r][i].count_ones()) as usize;
            }
        }
        n
    }

    /// In-place union of the literal bits (conjunction of the two types).
    fn or_assign(&mut self, other: &TypeBits) {
        self.eq |= other.eq;
        self.neq |= other.neq;
        self.self_eq |= other.self_eq;
        self.self_neq |= other.self_neq;
        for r in 0..MAX_RELS {
            self.un_pos[r] |= other.un_pos[r];
            self.un_neg[r] |= other.un_neg[r];
            for i in 0..MAX_TERMS {
                self.bin_pos[r][i] |= other.bin_pos[r][i];
                self.bin_neg[r][i] |= other.bin_neg[r][i];
            }
        }
    }
}

/// The context a [`TypeBits`] value lives in: a schema and register count,
/// fixing the term numbering `x₀…x_{k-1}, y₀…y_{k-1}, c₀…c_{C-1}` (the same
/// order as [`SigmaType::universe`], so term index order coincides with
/// [`Term`]'s `Ord`). Construction fails (`None`) outside the supported
/// fragment; see the module docs.
#[derive(Clone, Debug)]
pub struct TypeBitsSpace {
    schema: Schema,
    k: u16,
    n: usize,
    num_rels: usize,
    /// Arity (1 or 2) per relation symbol, indexed by `RelSym.0`.
    arity: [u8; MAX_RELS],
    joint_supported: bool,
}

/// An undecided atom found by the completion search, at the bit level.
#[derive(Clone, Copy, Debug)]
enum Atom {
    /// Equality between the representative terms of two classes.
    Eq(usize, usize),
    /// Unary atom `R(t)` on a class representative.
    Un(usize, usize),
    /// Binary atom `R(s, t)` on class representatives.
    Bin(usize, usize, usize),
}

impl TypeBitsSpace {
    /// A space for `k`-register types over `schema`, or `None` if the
    /// fragment is unsupported (too many terms or relations, or an arity
    /// other than 1 or 2).
    pub fn new(schema: &Schema, k: u16) -> Option<TypeBitsSpace> {
        let c = schema.num_constants();
        let n = 2 * k as usize + c;
        if n > MAX_TERMS {
            return None;
        }
        let num_rels = schema.num_relations();
        if num_rels > MAX_RELS {
            return None;
        }
        let mut arity = [0u8; MAX_RELS];
        for r in schema.relations() {
            let a = schema.arity(r);
            if a != 1 && a != 2 {
                return None;
            }
            arity[r.0 as usize] = a as u8;
        }
        Some(TypeBitsSpace {
            schema: schema.clone(),
            k,
            n,
            num_rels,
            arity,
            // Joint satisfiability needs three consecutive register tuples.
            joint_supported: 3 * k as usize + c <= MAX_TERMS,
        })
    }

    /// The register count of the types in this space.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// The schema the space is relative to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Whether [`TypeBitsSpace::jointly_satisfiable`] is available
    /// (`3k + C ≤ MAX_TERMS`; the joint check lives in a wider universe).
    pub fn supports_joint(&self) -> bool {
        self.joint_supported
    }

    /// The bit index of a term, or `None` if out of range for this space.
    fn term_index(&self, t: Term) -> Option<usize> {
        let k = self.k as usize;
        match t {
            Term::X(i) if (i.0 as usize) < k => Some(i.0 as usize),
            Term::Y(i) if (i.0 as usize) < k => Some(k + i.0 as usize),
            Term::Const(c) if (c.0 as usize) < self.schema.num_constants() => {
                Some(2 * k + c.0 as usize)
            }
            _ => None,
        }
    }

    /// The term at a bit index (inverse of [`TypeBitsSpace::term_index`]).
    fn term_at(&self, i: usize) -> Term {
        let k = self.k as usize;
        debug_assert!(i < self.n);
        if i < k {
            Term::x(i as u16)
        } else if i < 2 * k {
            Term::y((i - k) as u16)
        } else {
            Term::Const(ConstSym((i - 2 * k) as u32))
        }
    }

    /// Sets the bit(s) of one literal in `b`, or `None` if the literal does
    /// not fit this space (out-of-range term, unknown relation, bad arity).
    fn add_literal(&self, b: &mut TypeBits, lit: &Literal) -> Option<()> {
        match lit {
            Literal::Eq(s, t) => {
                let (i, j) = (self.term_index(*s)?, self.term_index(*t)?);
                if i == j {
                    b.self_eq |= 1 << i;
                } else {
                    b.eq |= pair_bit(i.min(j), i.max(j));
                }
            }
            Literal::Neq(s, t) => {
                let (i, j) = (self.term_index(*s)?, self.term_index(*t)?);
                if i == j {
                    b.self_neq |= 1 << i;
                } else {
                    b.neq |= pair_bit(i.min(j), i.max(j));
                }
            }
            Literal::Rel {
                rel,
                args,
                positive,
            } => {
                let r = rel.0 as usize;
                if r >= self.num_rels || args.len() != self.arity[r] as usize {
                    return None;
                }
                match self.arity[r] {
                    1 => {
                        let i = self.term_index(args[0])?;
                        if *positive {
                            b.un_pos[r] |= 1 << i;
                        } else {
                            b.un_neg[r] |= 1 << i;
                        }
                    }
                    _ => {
                        let (i, j) = (self.term_index(args[0])?, self.term_index(args[1])?);
                        if *positive {
                            b.bin_pos[r][i] |= 1 << j;
                        } else {
                            b.bin_neg[r][i] |= 1 << j;
                        }
                    }
                }
            }
        }
        Some(())
    }

    /// Losslessly encodes a σ-type, or `None` if the type does not fit this
    /// space (wrong `k`, out-of-range term, unknown relation, bad arity).
    pub fn encode(&self, ty: &SigmaType) -> Option<TypeBits> {
        if ty.k() != self.k {
            return None;
        }
        let mut b = TypeBits::empty();
        for lit in ty.literals() {
            self.add_literal(&mut b, lit)?;
        }
        Some(b)
    }

    /// `b` conjoined with one more literal — the word-level
    /// [`SigmaType::with`]. `None` if the literal does not fit this space;
    /// the result decodes to `decode(b).with(lit)` up to canonicalization.
    pub fn with_literal(&self, b: &TypeBits, lit: &Literal) -> Option<TypeBits> {
        let mut out = b.clone();
        self.add_literal(&mut out, lit)?;
        Some(out)
    }

    /// Decodes back to the σ-type [`TypeBitsSpace::encode`] came from.
    /// Term-index order coincides with [`Term`]'s order, so the emitted
    /// (in)equality literals are already canonical.
    pub fn decode(&self, b: &TypeBits) -> SigmaType {
        let mut lits = Vec::with_capacity(b.len());
        for i in bits(b.self_eq) {
            lits.push(Literal::eq(self.term_at(i), self.term_at(i)));
        }
        for i in bits(b.self_neq) {
            lits.push(Literal::neq(self.term_at(i), self.term_at(i)));
        }
        for (i, j) in pairs(b.eq) {
            lits.push(Literal::eq(self.term_at(i), self.term_at(j)));
        }
        for (i, j) in pairs(b.neq) {
            lits.push(Literal::neq(self.term_at(i), self.term_at(j)));
        }
        for r in 0..self.num_rels {
            let sym = crate::schema::RelSym(r as u32);
            match self.arity[r] {
                1 => {
                    for i in bits(b.un_pos[r]) {
                        lits.push(Literal::rel(sym, vec![self.term_at(i)]));
                    }
                    for i in bits(b.un_neg[r]) {
                        lits.push(Literal::not_rel(sym, vec![self.term_at(i)]));
                    }
                }
                _ => {
                    for i in 0..self.n {
                        for j in bits(b.bin_pos[r][i]) {
                            lits.push(Literal::rel(sym, vec![self.term_at(i), self.term_at(j)]));
                        }
                        for j in bits(b.bin_neg[r][i]) {
                            lits.push(Literal::not_rel(
                                sym,
                                vec![self.term_at(i), self.term_at(j)],
                            ));
                        }
                    }
                }
            }
        }
        SigmaType::new(self.k, lits)
    }

    /// Equality closure over `n` terms: the class mask (bitset of members)
    /// of every term, or `None` if the literals are inconsistent — exactly
    /// when [`SigmaType::analyze`] returns [`DataError::Unsatisfiable`].
    fn closure_raw(&self, n: usize, b: &TypeBits) -> Option<[u16; MAX_TERMS]> {
        let mut cm = [0u16; MAX_TERMS];
        for (i, m) in cm.iter_mut().enumerate().take(n) {
            *m = 1 << i;
        }
        // Partition refinement by mask merging: each equality literal
        // unions two class masks and broadcasts the result to all members.
        for (i, j) in pairs(b.eq) {
            if cm[i] & (1 << j) == 0 {
                let m = cm[i] | cm[j];
                for t in bits(m) {
                    cm[t] = m;
                }
            }
        }
        // `t ≠ t` is unsatisfiable outright.
        if b.self_neq != 0 {
            return None;
        }
        // An inequality inside one class is a contradiction.
        for (i, j) in pairs(b.neq) {
            if cm[i] & (1 << j) != 0 {
                return None;
            }
        }
        // A relational atom forced both positive and negative on the same
        // class tuple is a contradiction.
        for r in 0..self.num_rels {
            if self.arity[r] == 1 {
                if lift(&cm, b.un_pos[r]) & b.un_neg[r] != 0 {
                    return None;
                }
            } else {
                // Lift the positive matrix to class level (rows keyed by
                // class representative, columns class-closed), then check
                // the negative entries against it.
                let mut lifted = [0u16; MAX_TERMS];
                for i in 0..n {
                    let row = b.bin_pos[r][i];
                    if row != 0 {
                        lifted[cm[i].trailing_zeros() as usize] |= lift(&cm, row);
                    }
                }
                for i in 0..n {
                    let row = b.bin_neg[r][i];
                    if row != 0 && lifted[cm[i].trailing_zeros() as usize] & row != 0 {
                        return None;
                    }
                }
            }
        }
        Some(cm)
    }

    fn closure(&self, b: &TypeBits) -> Option<[u16; MAX_TERMS]> {
        self.closure_raw(self.n, b)
    }

    /// Word-level [`SigmaType::is_satisfiable`].
    pub fn is_consistent(&self, b: &TypeBits) -> bool {
        self.closure(b).is_some()
    }

    /// Saturation given a precomputed closure: all implied literals, no
    /// undecided and no degenerate ones — the image of
    /// [`TypeAnalysis::to_saturated_type`](crate::types::TypeAnalysis).
    fn saturate_with(&self, b: &TypeBits, cm: &[u16; MAX_TERMS]) -> TypeBits {
        let n = self.n;
        let mut out = TypeBits::empty();
        // All intra-class pairs.
        for j in 1..n {
            for (i, &m) in cm.iter().enumerate().take(j) {
                if m & (1 << j) != 0 {
                    out.eq |= pair_bit(i, j);
                }
            }
        }
        // All member pairs across ≠-related classes, via an adjacency mask.
        let mut adj = [0u16; MAX_TERMS];
        for (i, j) in pairs(b.neq) {
            let (ma, mb) = (cm[i], cm[j]);
            for t in bits(ma) {
                adj[t] |= mb;
            }
            for t in bits(mb) {
                adj[t] |= ma;
            }
        }
        for j in 1..n {
            for (i, &m) in adj.iter().enumerate().take(j) {
                if m & (1 << j) != 0 {
                    out.neq |= pair_bit(i, j);
                }
            }
        }
        // Relational facts expanded over class members.
        for r in 0..self.num_rels {
            if self.arity[r] == 1 {
                out.un_pos[r] = lift(cm, b.un_pos[r]);
                out.un_neg[r] = lift(cm, b.un_neg[r]);
            } else {
                for i in 0..n {
                    let pos = b.bin_pos[r][i];
                    if pos != 0 {
                        let cols = lift(cm, pos);
                        for t in bits(cm[i]) {
                            out.bin_pos[r][t] |= cols;
                        }
                    }
                    let neg = b.bin_neg[r][i];
                    if neg != 0 {
                        let cols = lift(cm, neg);
                        for t in bits(cm[i]) {
                            out.bin_neg[r][t] |= cols;
                        }
                    }
                }
            }
        }
        out
    }

    /// Word-level [`SigmaType::saturate`] (`None` iff unsatisfiable).
    pub fn saturate(&self, b: &TypeBits) -> Option<TypeBits> {
        let cm = self.closure(b)?;
        Some(self.saturate_with(b, &cm))
    }

    /// Keeps the literals whose terms are all mapped, renumbering them.
    /// `map` must be monotone on its domain so pair bits stay canonical.
    fn remap(&self, b: &TypeBits, map: &[Option<usize>; MAX_TERMS]) -> TypeBits {
        let map_mask = |mask: u16| -> u16 {
            let mut out = 0;
            for i in bits(mask) {
                if let Some(m) = map[i] {
                    out |= 1 << m;
                }
            }
            out
        };
        let mut out = TypeBits::empty();
        for (i, j) in pairs(b.eq) {
            if let (Some(a), Some(c)) = (map[i], map[j]) {
                debug_assert!(a < c, "remap must be monotone");
                out.eq |= pair_bit(a, c);
            }
        }
        for (i, j) in pairs(b.neq) {
            if let (Some(a), Some(c)) = (map[i], map[j]) {
                debug_assert!(a < c, "remap must be monotone");
                out.neq |= pair_bit(a, c);
            }
        }
        out.self_eq = map_mask(b.self_eq);
        out.self_neq = map_mask(b.self_neq);
        for r in 0..self.num_rels {
            if self.arity[r] == 1 {
                out.un_pos[r] = map_mask(b.un_pos[r]);
                out.un_neg[r] = map_mask(b.un_neg[r]);
            } else {
                for (i, &m) in map.iter().enumerate().take(self.n) {
                    let Some(a) = m else { continue };
                    out.bin_pos[r][a] = map_mask(b.bin_pos[r][i]);
                    out.bin_neg[r][a] = map_mask(b.bin_neg[r][i]);
                }
            }
        }
        out
    }

    /// The space the result of `restrict_registers(·, m)` lives in.
    pub fn sub_space(&self, m: u16) -> Option<TypeBitsSpace> {
        TypeBitsSpace::new(&self.schema, m)
    }

    /// Word-level [`SigmaType::restrict_registers`]: saturate, keep the
    /// literals over the first `m` registers plus constants, renumber into
    /// the `m`-register universe. `None` if unsatisfiable or if the target
    /// universe does not fit. Results live in [`TypeBitsSpace::sub_space`].
    pub fn restrict_registers(&self, b: &TypeBits, m: u16) -> Option<TypeBits> {
        let (k, mu) = (self.k as usize, m as usize);
        if 2 * mu + self.schema.num_constants() > MAX_TERMS {
            return None;
        }
        let sat = self.saturate(b)?;
        let mut map = [None; MAX_TERMS];
        for i in 0..k.min(mu) {
            map[i] = Some(i); // x_i
            map[k + i] = Some(mu + i); // y_i
        }
        for c in 0..self.schema.num_constants() {
            map[2 * k + c] = Some(2 * mu + c);
        }
        Some(self.remap(&sat, &map))
    }

    /// Word-level [`SigmaType::jointly_satisfiable_with`]: are `a` (at step
    /// n) and `b` (at step n+1) satisfiable over shared middle registers?
    /// Encoded over the `3k + C` universe `d_n d_{n+1} d_{n+2} c̄`; `None`
    /// when that universe does not fit ([`TypeBitsSpace::supports_joint`]).
    pub fn jointly_satisfiable(&self, a: &TypeBits, b: &TypeBits) -> Option<bool> {
        if !self.joint_supported {
            return None;
        }
        let (k, c) = (self.k as usize, self.schema.num_constants());
        let mut map_a = [None; MAX_TERMS];
        let mut map_b = [None; MAX_TERMS];
        for i in 0..k {
            map_a[i] = Some(i); // a's x̄ = d_n
            map_a[k + i] = Some(k + i); // a's ȳ = d_{n+1}
            map_b[i] = Some(k + i); // b's x̄ = d_{n+1}
            map_b[k + i] = Some(2 * k + i); // b's ȳ = d_{n+2}
        }
        for j in 0..c {
            map_a[2 * k + j] = Some(3 * k + j);
            map_b[2 * k + j] = Some(3 * k + j);
        }
        let mut joint = self.remap(a, &map_a);
        joint.or_assign(&self.remap(b, &map_b));
        Some(self.closure_raw(3 * k + c, &joint).is_some())
    }

    /// The (in)equality-only restriction to the first `m` registers, hiding
    /// the database: saturate, keep the `=`/`≠` literals whose terms are all
    /// among `x_0..x_{m-1}, y_0..y_{m-1}` (constants and relational facts
    /// dropped), renumber into the `m`-register universe. This is the word
    /// level of the Thm 24 restriction (saturate, filter to visible
    /// equality literals, rebuild at arity `m`). `None` iff `b` is
    /// unsatisfiable or the target universe does not fit. Results live in
    /// [`TypeBitsSpace::sub_space`].
    pub fn restrict_eq_registers(&self, b: &TypeBits, m: u16) -> Option<TypeBits> {
        let (k, mu) = (self.k as usize, m as usize);
        if 2 * mu + self.schema.num_constants() > MAX_TERMS {
            return None;
        }
        let mut sat = self.saturate(b)?;
        // Hide the database: only (in)equalities survive.
        sat.un_pos = [0; MAX_RELS];
        sat.un_neg = [0; MAX_RELS];
        sat.bin_pos = [[0; MAX_TERMS]; MAX_RELS];
        sat.bin_neg = [[0; MAX_TERMS]; MAX_RELS];
        let mut map = [None; MAX_TERMS];
        for i in 0..k.min(mu) {
            map[i] = Some(i); // x_i
            map[k + i] = Some(mu + i); // y_i
        }
        // Constants stay unmapped: literals touching them are hidden too.
        Some(self.remap(&sat, &map))
    }

    /// Finds the first undecided atom in the same deterministic order as
    /// `TypeAnalysis::undecided_atom`: class-pair equalities (classes in
    /// least-member order), then relational atoms in flat tuple order.
    fn undecided(&self, b: &TypeBits, cm: &[u16; MAX_TERMS]) -> Option<Atom> {
        let n = self.n;
        // Class representatives (least members), in ascending order — the
        // same dense class order the `SigmaType` analysis uses.
        let mut reps = [0usize; MAX_TERMS];
        let mut ncl = 0;
        for (i, m) in cm.iter().enumerate().take(n) {
            if m.trailing_zeros() as usize == i {
                reps[ncl] = i;
                ncl += 1;
            }
        }
        // Class-level ≠ adjacency.
        let mut adj = [0u16; MAX_TERMS];
        for (i, j) in pairs(b.neq) {
            let (ma, mb) = (cm[i], cm[j]);
            for t in bits(ma) {
                adj[t] |= mb;
            }
            for t in bits(mb) {
                adj[t] |= ma;
            }
        }
        for a in 0..ncl {
            for bc in (a + 1)..ncl {
                let (i, j) = (reps[a], reps[bc]);
                if adj[i] & (1 << j) == 0 {
                    return Some(Atom::Eq(i, j));
                }
            }
        }
        let row_hit = |matrix: &[u16; MAX_TERMS], m0: u16, m1: u16| -> bool {
            bits(m0).any(|i| matrix[i] & m1 != 0)
        };
        for r in 0..self.num_rels {
            if self.arity[r] == 1 {
                for &rep in reps.iter().take(ncl) {
                    let m = cm[rep];
                    if b.un_pos[r] & m == 0 && b.un_neg[r] & m == 0 {
                        return Some(Atom::Un(r, rep));
                    }
                }
            } else {
                // Flat tuple order: the first argument varies fastest.
                for flat in 0..ncl * ncl {
                    let (m0, m1) = (cm[reps[flat % ncl]], cm[reps[flat / ncl]]);
                    if !row_hit(&b.bin_pos[r], m0, m1) && !row_hit(&b.bin_neg[r], m0, m1) {
                        return Some(Atom::Bin(r, reps[flat % ncl], reps[flat / ncl]));
                    }
                }
            }
        }
        None
    }

    /// `b` extended with `atom` asserted positively or negatively.
    fn with_atom(&self, b: &TypeBits, atom: Atom, positive: bool) -> TypeBits {
        let mut out = b.clone();
        match atom {
            Atom::Eq(i, j) => {
                if positive {
                    out.eq |= pair_bit(i, j);
                } else {
                    out.neq |= pair_bit(i, j);
                }
            }
            Atom::Un(r, i) => {
                if positive {
                    out.un_pos[r] |= 1 << i;
                } else {
                    out.un_neg[r] |= 1 << i;
                }
            }
            Atom::Bin(r, i, j) => {
                if positive {
                    out.bin_pos[r][i] |= 1 << j;
                } else {
                    out.bin_neg[r][i] |= 1 << j;
                }
            }
        }
        out
    }

    /// Word-level [`SigmaType::completions`].
    pub fn completions(&self, b: &TypeBits) -> Result<Vec<TypeBits>, DataError> {
        self.completions_governed(b, &Budget::unlimited())
    }

    /// Word-level [`SigmaType::completions_governed`]: all complete
    /// satisfiable extensions, saturated, in a canonical (bit) order. The
    /// worklist ticks the budget once per popped node under the
    /// `typebits.completions` phase. The decoded result set equals the
    /// [`SigmaType`] one (the set of completions is canonical, independent
    /// of branching order).
    pub fn completions_governed(
        &self,
        b: &TypeBits,
        budget: &Budget,
    ) -> Result<Vec<TypeBits>, DataError> {
        if self.closure(b).is_none() {
            return Err(DataError::Unsatisfiable);
        }
        let mut done = Vec::new();
        let mut work = vec![b.clone()];
        while let Some(t) = work.pop() {
            budget.tick("typebits.completions")?;
            let Some(cm) = self.closure(&t) else { continue };
            match self.undecided(&t, &cm) {
                None => done.push(self.saturate_with(&t, &cm)),
                Some(atom) => {
                    let pos = self.with_atom(&t, atom, true);
                    let neg = self.with_atom(&t, atom, false);
                    if self.is_consistent(&pos) {
                        work.push(pos);
                    }
                    if self.is_consistent(&neg) {
                        work.push(neg);
                    }
                }
            }
        }
        done.sort();
        done.dedup();
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSym;

    fn schema() -> Schema {
        Schema::with(&[("P", 1), ("R", 2)], &["c"])
    }

    fn space() -> TypeBitsSpace {
        TypeBitsSpace::new(&schema(), 2).unwrap()
    }

    fn roundtrip(ty: &SigmaType, sp: &TypeBitsSpace) -> SigmaType {
        sp.decode(&sp.encode(ty).unwrap())
    }

    #[test]
    fn gates_unsupported_fragments() {
        // Too many terms: 2·8 + 1 > 16.
        assert!(TypeBitsSpace::new(&schema(), 8).is_none());
        // Arity 3.
        let s3 = Schema::with(&[("T", 3)], &[]);
        assert!(TypeBitsSpace::new(&s3, 1).is_none());
        // Too many relations.
        let many = Schema::with(&[("A", 1), ("B", 1), ("C", 1), ("D", 1), ("E", 1)], &[]);
        assert!(TypeBitsSpace::new(&many, 1).is_none());
        // k = 2 with one constant: joint universe 3·2 + 1 = 7 ≤ 16.
        assert!(space().supports_joint());
    }

    #[test]
    fn encode_decode_roundtrip_including_degenerates() {
        let sp = space();
        let p = schema().relation("P").unwrap();
        let r = schema().relation("R").unwrap();
        let ty = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(0)),  // degenerate t = t
                Literal::neq(Term::y(1), Term::y(1)), // degenerate t ≠ t
                Literal::eq(Term::x(0), Term::y(1)),
                Literal::neq(Term::x(1), Term::cst(0)),
                Literal::rel(p, vec![Term::y(0)]),
                Literal::not_rel(r, vec![Term::x(0), Term::x(0)]),
                Literal::rel(r, vec![Term::cst(0), Term::y(1)]),
            ],
        );
        assert_eq!(roundtrip(&ty, &sp), ty);
        assert_eq!(roundtrip(&SigmaType::empty(2), &sp), SigmaType::empty(2));
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let sp = space();
        assert!(sp
            .encode(&SigmaType::new(2, [Literal::eq(Term::x(0), Term::x(5))]))
            .is_none());
        assert!(sp.encode(&SigmaType::empty(1)).is_none(), "wrong k");
        assert!(sp
            .encode(&SigmaType::new(
                2,
                [Literal::rel(RelSym(7), vec![Term::x(0)])]
            ))
            .is_none());
    }

    #[test]
    fn consistency_matches_analyze() {
        let sp = space();
        let sch = schema();
        let cases = [
            SigmaType::empty(2),
            SigmaType::new(
                2,
                [
                    Literal::eq(Term::x(0), Term::x(1)),
                    Literal::eq(Term::x(1), Term::y(0)),
                    Literal::neq(Term::x(0), Term::y(0)),
                ],
            ),
            SigmaType::new(2, [Literal::neq(Term::x(0), Term::x(0))]),
            SigmaType::new(
                2,
                [
                    Literal::rel(sch.relation("P").unwrap(), vec![Term::x(0)]),
                    Literal::not_rel(sch.relation("P").unwrap(), vec![Term::y(1)]),
                    Literal::eq(Term::x(0), Term::y(1)),
                ],
            ),
        ];
        for ty in &cases {
            let b = sp.encode(ty).unwrap();
            assert_eq!(
                sp.is_consistent(&b),
                ty.analyze(&sch).is_ok(),
                "disagrees on {ty}"
            );
        }
    }

    #[test]
    fn saturate_matches_sigma_type() {
        let sp = space();
        let sch = schema();
        let r = sch.relation("R").unwrap();
        let ty = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(1)),
                Literal::neq(Term::y(0), Term::cst(0)),
                Literal::rel(r, vec![Term::x(0), Term::y(0)]),
            ],
        );
        let b = sp.encode(&ty).unwrap();
        let sat = sp.saturate(&b).unwrap();
        assert_eq!(sp.decode(&sat), ty.saturate(&sch).unwrap());
    }

    #[test]
    fn joint_satisfiability_matches_sigma_type() {
        let sp = space();
        let sch = schema();
        let p = sch.relation("P").unwrap();
        // The incomplete pair from the interning suite: P(x1) then P(x1).
        let t = SigmaType::new(2, [Literal::rel(p, vec![Term::x(0)])]);
        let u = SigmaType::new(
            2,
            [
                Literal::eq(Term::y(0), Term::cst(0)),
                Literal::neq(Term::x(0), Term::cst(0)),
            ],
        );
        for (a, b) in [(&t, &t), (&t, &u), (&u, &t), (&u, &u)] {
            let (ba, bb) = (sp.encode(a).unwrap(), sp.encode(b).unwrap());
            assert_eq!(
                sp.jointly_satisfiable(&ba, &bb).unwrap(),
                a.jointly_satisfiable_with(b, &sch),
                "disagrees on {a} ; {b}"
            );
        }
    }

    #[test]
    fn completions_match_sigma_type() {
        let sch = Schema::with(&[("U", 1)], &[]);
        let sp = TypeBitsSpace::new(&sch, 1).unwrap();
        let ty = SigmaType::empty(1);
        let b = sp.encode(&ty).unwrap();
        let mut got: Vec<SigmaType> = sp
            .completions(&b)
            .unwrap()
            .iter()
            .map(|c| sp.decode(c))
            .collect();
        got.sort();
        assert_eq!(got, ty.completions(&sch).unwrap());
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn completions_are_governed() {
        use crate::govern::BudgetSpec;
        let sch = Schema::with(&[("U", 1)], &[]);
        let sp = TypeBitsSpace::new(&sch, 2).unwrap();
        let b = sp.encode(&SigmaType::empty(2)).unwrap();
        let budget = Budget::start(&BudgetSpec {
            max_nodes: Some(3),
            ..BudgetSpec::default()
        });
        let err = sp.completions_governed(&b, &budget).unwrap_err();
        match err {
            DataError::Govern(g) => assert_eq!(g.phase(), "typebits.completions"),
            other => panic!("expected a govern trip, got {other:?}"),
        }
    }

    #[test]
    fn restriction_matches_sigma_type() {
        let sp = space();
        let sch = schema();
        let ty = SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(0)),
                Literal::neq(Term::y(1), Term::cst(0)),
            ],
        );
        let b = sp.encode(&ty).unwrap();
        for m in 0..=2u16 {
            let sub = sp.sub_space(m).unwrap();
            let got = sub.decode(&sp.restrict_registers(&b, m).unwrap());
            assert_eq!(got, ty.restrict_registers(&sch, m).unwrap(), "m = {m}");
        }
    }

    #[test]
    fn with_literal_matches_sigma_type_with() {
        let sp = space();
        let p = schema().relation("P").unwrap();
        let ty = SigmaType::new(2, [Literal::eq(Term::x(0), Term::y(1))]);
        let b = sp.encode(&ty).unwrap();
        for lit in [
            Literal::neq(Term::x(1), Term::cst(0)),
            Literal::rel(p, vec![Term::y(0)]),
            Literal::eq(Term::x(0), Term::y(1)), // already present
        ] {
            let got = sp.decode(&sp.with_literal(&b, &lit).unwrap());
            assert_eq!(got, ty.with(lit.clone()), "conjoining {lit:?}");
        }
        // Out-of-range literals are rejected, leaving `b` untouched.
        assert!(sp
            .with_literal(&b, &Literal::eq(Term::x(0), Term::x(9)))
            .is_none());
    }

    /// The Thm 24 restriction reference: saturate, keep the (in)equality
    /// literals whose terms are all visible registers, rebuild at arity `m`.
    fn eq_restrict_reference(ty: &SigmaType, sch: &Schema, m: u16) -> SigmaType {
        let sat = ty.saturate(sch).unwrap();
        let keep: Vec<Literal> = sat
            .literals()
            .filter(|l| {
                matches!(l, Literal::Eq(..) | Literal::Neq(..))
                    && l.terms().iter().all(|t| match t {
                        Term::X(i) | Term::Y(i) => i.0 < m,
                        Term::Const(_) => false,
                    })
            })
            .cloned()
            .collect();
        SigmaType::new(m, keep)
    }

    #[test]
    fn eq_restriction_matches_thm24_filter() {
        let sp = space();
        let sch = schema();
        let r = sch.relation("R").unwrap();
        let cases = [
            SigmaType::new(
                2,
                [
                    Literal::eq(Term::x(0), Term::x(1)),
                    Literal::eq(Term::x(1), Term::y(0)),
                    Literal::neq(Term::y(1), Term::cst(0)),
                    Literal::rel(r, vec![Term::x(0), Term::y(1)]),
                ],
            ),
            SigmaType::new(2, [Literal::eq(Term::x(1), Term::cst(0))]),
            SigmaType::empty(2),
        ];
        for ty in &cases {
            let b = sp.encode(ty).unwrap();
            for m in 0..=2u16 {
                let sub = sp.sub_space(m).unwrap();
                let got = sub.decode(&sp.restrict_eq_registers(&b, m).unwrap());
                assert_eq!(got, eq_restrict_reference(ty, &sch, m), "{ty} at m = {m}");
            }
        }
        // Unsatisfiable input: `None`, like the saturation it starts from.
        let bad = sp
            .encode(&SigmaType::new(2, [Literal::neq(Term::x(0), Term::x(0))]))
            .unwrap();
        assert!(sp.restrict_eq_registers(&bad, 1).is_none());
    }
}
