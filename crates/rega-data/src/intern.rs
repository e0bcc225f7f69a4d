//! σ-type interning and memoized type operations.
//!
//! Every construction in the paper — `SControl(A)` (Theorem 9), emptiness
//! (Corollary 10), the projection closures (Theorem 13, Proposition 20) and
//! the database-hiding construction (Theorem 24) — is built from the same
//! handful of σ-type operations: analysis/satisfiability, saturation,
//! restriction, joint satisfiability of consecutive types, and completion.
//! The automata these constructions traverse repeat a *small* set of
//! distinct types across a *large* set of transitions (state-driven normal
//! forms duplicate each type once per successor pair), so re-deriving the
//! operations per call site wastes almost all of the work.
//!
//! This module hash-conses types into cheap [`TypeId`] handles
//! ([`TypeInterner`]) and memoizes the derived facts keyed on those handles
//! ([`SatCache`]). A `SatCache` is tied to one [`Schema`] (the operations it
//! memoizes are all schema-relative) and is internally synchronized, so it
//! can be shared behind an `Arc` by concurrent consumers — e.g. a compiled
//! streaming specification shared across worker threads.

use crate::error::DataError;
use crate::fxhash::FxMap;
use crate::govern::Budget;
use crate::schema::Schema;
use crate::typebits::{TypeBits, TypeBitsSpace};
use crate::types::{SigmaType, TypeAnalysis};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cheap, copyable handle to an interned [`SigmaType`].
///
/// Ids are dense (`0..interner.len()`) and stable for the lifetime of the
/// interner that issued them; they are meaningless across interners.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The id as a usize index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing table for σ-types: structurally equal types map to the
/// same [`TypeId`], and each distinct type is stored exactly once (behind an
/// `Arc`, so resolving never clones the literal set). The lookup table is
/// hashed by the seeded [`FxMap`]: a type hashes as a handful of small
/// integers, on which SipHash would cost more than the lookup.
#[derive(Debug, Default)]
pub struct TypeInterner {
    ids: FxMap<Arc<SigmaType>, TypeId>,
    types: Vec<Arc<SigmaType>>,
}

impl TypeInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a type by reference (clones only on first sight).
    pub fn intern(&mut self, ty: &SigmaType) -> TypeId {
        if let Some(&id) = self.ids.get(ty) {
            return id;
        }
        self.insert(Arc::new(ty.clone()))
    }

    /// Interns an owned type (never clones).
    pub fn intern_owned(&mut self, ty: SigmaType) -> TypeId {
        if let Some(&id) = self.ids.get(&ty) {
            return id;
        }
        self.insert(Arc::new(ty))
    }

    fn insert(&mut self, ty: Arc<SigmaType>) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.types.push(Arc::clone(&ty));
        self.ids.insert(ty, id);
        id
    }

    /// The type behind a handle.
    pub fn resolve(&self, id: TypeId) -> &Arc<SigmaType> {
        &self.types[id.idx()]
    }

    /// Number of distinct interned types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether no type has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

/// The named restriction operations [`SatCache`] memoizes. Restriction is
/// keyed on an enum rather than a closure so that semantically identical
/// requests share one cache entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RestrictOp {
    /// `δ|m` — keep the first `m` registers (x and y sides), plus constants.
    Registers(u16),
    /// `π₁(δ)` — the induced pre-type over `x̄` and constants.
    Pre,
    /// `δ|ȳ` renamed by `y_i ↦ x_i` — the induced post-type expressed over
    /// `x̄`.
    PostAsPre,
    /// The Thm 24 view restriction: saturated (in)equality literals over the
    /// first `m` registers only — constants and relational facts hidden.
    EqRegisters(u16),
}

/// The memo tables of a [`SatCache`]. Every table (the interner's too) is
/// an [`FxMap`] with its own random seed: the keys are types and type
/// handles an input automaton determines, so a fixed seed would let a
/// crafted input collide them.
#[derive(Debug, Default)]
struct CacheInner {
    interner: TypeInterner,
    analyses: FxMap<TypeId, Result<Arc<TypeAnalysis>, DataError>>,
    saturated: FxMap<TypeId, Result<TypeId, DataError>>,
    restricted: FxMap<(TypeId, RestrictOp), Result<TypeId, DataError>>,
    joint: FxMap<(TypeId, TypeId), bool>,
    agrees: FxMap<(TypeId, TypeId), Result<bool, DataError>>,
    completions: FxMap<TypeId, Result<Vec<TypeId>, DataError>>,
    /// Bitset spaces per register count (`None` = fragment unsupported).
    bit_spaces: FxMap<u16, Option<Arc<TypeBitsSpace>>>,
    /// Lossless bitset encodings per interned type (`None` = unsupported).
    bits: FxMap<TypeId, Option<TypeBits>>,
}

impl CacheInner {
    /// The (memoized) bitset space for `k`-register types over `schema`.
    fn bit_space(&mut self, schema: &Schema, k: u16) -> Option<Arc<TypeBitsSpace>> {
        self.bit_spaces
            .entry(k)
            .or_insert_with(|| TypeBitsSpace::new(schema, k).map(Arc::new))
            .clone()
    }
}

/// Hit/miss counters and interner size of a [`SatCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Memoized lookups answered from the cache.
    pub hits: u64,
    /// Memoized lookups that had to compute.
    pub misses: u64,
    /// Number of distinct interned types.
    pub distinct_types: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (`0.0` with no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A schema-tied memoization cache over interned σ-types.
///
/// All derived facts (`analyze`, `saturate`, restriction, joint
/// satisfiability, agreement, completions) are computed at most once per
/// distinct type (or type pair) and shared thereafter. Interior mutability
/// makes the cache usable through `&self` everywhere a type operation used
/// to be called on an owned `SigmaType`, and `Send + Sync` lets one cache
/// back a spec shared across threads.
#[derive(Debug)]
pub struct SatCache {
    schema: Schema,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Process-global mirrors in the [`rega_obs::global`] registry,
    /// aggregated across every cache instance, so a trace or metrics dump
    /// can report σ-type cache effectiveness without a handle on the
    /// specific cache.
    global_hits: rega_obs::Counter,
    global_misses: rega_obs::Counter,
}

impl SatCache {
    /// A fresh cache for the given schema.
    pub fn new(schema: Schema) -> Self {
        SatCache {
            schema,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            global_hits: rega_obs::global().counter("satcache.hits"),
            global_misses: rega_obs::global().counter("satcache.misses"),
        }
    }

    /// The schema all memoized operations are relative to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.global_hits.inc();
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.global_misses.inc();
    }

    /// Interns a type, returning its handle.
    pub fn intern(&self, ty: &SigmaType) -> TypeId {
        self.inner.lock().unwrap().interner.intern(ty)
    }

    /// Interns an owned type.
    pub fn intern_owned(&self, ty: SigmaType) -> TypeId {
        self.inner.lock().unwrap().interner.intern_owned(ty)
    }

    /// The type behind a handle (cheap `Arc` clone).
    pub fn resolve(&self, id: TypeId) -> Arc<SigmaType> {
        Arc::clone(self.inner.lock().unwrap().interner.resolve(id))
    }

    /// Memoized [`SigmaType::analyze`].
    pub fn analyze(&self, ty: &SigmaType) -> Result<Arc<TypeAnalysis>, DataError> {
        let id = self.intern(ty);
        self.analyze_id(id)
    }

    /// Memoized analysis by handle.
    pub fn analyze_id(&self, id: TypeId) -> Result<Arc<TypeAnalysis>, DataError> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(r) = inner.analyses.get(&id) {
            self.hit();
            return r.clone();
        }
        self.miss();
        let ty = Arc::clone(inner.interner.resolve(id));
        let r = ty.analyze(&self.schema).map(Arc::new);
        inner.analyses.insert(id, r.clone());
        r
    }

    /// Memoized satisfiability ([`SigmaType::is_satisfiable`]).
    pub fn is_consistent(&self, ty: &SigmaType) -> bool {
        self.analyze(ty).is_ok()
    }

    /// Memoized satisfiability by handle.
    pub fn is_consistent_id(&self, id: TypeId) -> bool {
        self.analyze_id(id).is_ok()
    }

    /// Memoized [`SigmaType::saturate`]; the result is interned too.
    pub fn saturate(&self, ty: &SigmaType) -> Result<Arc<SigmaType>, DataError> {
        let id = self.intern(ty);
        let sat = self.saturate_id(id)?;
        Ok(self.resolve(sat))
    }

    /// Memoized saturation by handle.
    pub fn saturate_id(&self, id: TypeId) -> Result<TypeId, DataError> {
        // Reuse the memoized analysis (saturation = analysis + rebuild).
        let analysis = self.analyze_id(id)?;
        let mut inner = self.inner.lock().unwrap();
        if let Some(r) = inner.saturated.get(&id) {
            self.hit();
            return r.clone();
        }
        self.miss();
        let sat = inner.interner.intern_owned(analysis.to_saturated_type());
        inner.saturated.insert(id, Ok(sat));
        Ok(sat)
    }

    /// Memoized restriction by named operation; the result is interned.
    pub fn restrict_id(&self, id: TypeId, op: RestrictOp) -> Result<TypeId, DataError> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(r) = inner.restricted.get(&(id, op)) {
            self.hit();
            return r.clone();
        }
        self.miss();
        let ty = Arc::clone(inner.interner.resolve(id));
        let computed = match op {
            RestrictOp::Registers(m) => ty.restrict_registers(&self.schema, m),
            RestrictOp::Pre => ty.pre_type(&self.schema),
            RestrictOp::PostAsPre => ty.post_type_as_pre(&self.schema),
            RestrictOp::EqRegisters(m) => ty.restrict_eq_registers(&self.schema, m),
        };
        let r = computed.map(|t| inner.interner.intern_owned(t));
        inner.restricted.insert((id, op), r.clone());
        r
    }

    /// Memoized [`SigmaType::restrict_registers`].
    pub fn restrict_registers(&self, ty: &SigmaType, m: u16) -> Result<Arc<SigmaType>, DataError> {
        let id = self.intern(ty);
        let r = self.restrict_id(id, RestrictOp::Registers(m))?;
        Ok(self.resolve(r))
    }

    /// Memoized [`SigmaType::pre_type`].
    pub fn pre_type(&self, ty: &SigmaType) -> Result<Arc<SigmaType>, DataError> {
        let id = self.intern(ty);
        let r = self.restrict_id(id, RestrictOp::Pre)?;
        Ok(self.resolve(r))
    }

    /// Memoized [`SigmaType::post_type_as_pre`].
    pub fn post_type_as_pre(&self, ty: &SigmaType) -> Result<Arc<SigmaType>, DataError> {
        let id = self.intern(ty);
        let r = self.restrict_id(id, RestrictOp::PostAsPre)?;
        Ok(self.resolve(r))
    }

    /// Memoized [`SigmaType::jointly_satisfiable_with`] by handles.
    pub fn jointly_satisfiable_ids(&self, a: TypeId, b: TypeId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if let Some(&r) = inner.joint.get(&(a, b)) {
            self.hit();
            return r;
        }
        self.miss();
        let first = Arc::clone(inner.interner.resolve(a));
        let second = Arc::clone(inner.interner.resolve(b));
        let r = first.jointly_satisfiable_with(&second, &self.schema);
        inner.joint.insert((a, b), r);
        r
    }

    /// Memoized [`SigmaType::jointly_satisfiable_with`].
    pub fn jointly_satisfiable(&self, a: &SigmaType, b: &SigmaType) -> bool {
        let (a, b) = (self.intern(a), self.intern(b));
        self.jointly_satisfiable_ids(a, b)
    }

    /// Memoized [`SigmaType::agrees_with`] by handles.
    pub fn agrees_with_ids(&self, a: TypeId, b: TypeId) -> Result<bool, DataError> {
        {
            let inner = self.inner.lock().unwrap();
            if let Some(r) = inner.agrees.get(&(a, b)) {
                self.hit();
                return r.clone();
            }
        }
        self.miss();
        // Built from the memoized restrictions, so the agreement check
        // itself shares work with every other consumer of pre/post types.
        let r = (|| {
            let post = self.restrict_id(a, RestrictOp::PostAsPre)?;
            let pre = self.restrict_id(b, RestrictOp::Pre)?;
            if post == pre {
                return Ok(true);
            }
            let (post, pre) = (self.resolve(post), self.resolve(pre));
            Ok(post.literals().eq(pre.literals()))
        })();
        self.inner.lock().unwrap().agrees.insert((a, b), r.clone());
        r
    }

    /// Memoized [`SigmaType::agrees_with`].
    pub fn agrees_with(&self, a: &SigmaType, b: &SigmaType) -> Result<bool, DataError> {
        let (a, b) = (self.intern(a), self.intern(b));
        self.agrees_with_ids(a, b)
    }

    /// Memoized [`SigmaType::completions`] by handle, each completion
    /// interned, under a [`Budget`]. The enumeration
    /// itself is interruptible (see [`SigmaType::completions_governed`]);
    /// budget trips are returned but **not** memoized — the same type may
    /// complete fine under a larger budget — and the enumeration runs
    /// outside the cache lock, so `stats()` (and other threads) stay
    /// responsive while a governed completion grinds.
    pub fn completions_id_governed(
        &self,
        id: TypeId,
        budget: &Budget,
    ) -> Result<Vec<TypeId>, DataError> {
        let ty = {
            let inner = self.inner.lock().unwrap();
            if let Some(r) = inner.completions.get(&id) {
                self.hit();
                return r.clone();
            }
            Arc::clone(inner.interner.resolve(id))
        };
        self.miss();
        match ty.completions_governed(&self.schema, budget) {
            Err(DataError::Govern(g)) => Err(DataError::Govern(g)),
            r => {
                let mut inner = self.inner.lock().unwrap();
                let r = r.map(|cs| {
                    cs.into_iter()
                        .map(|c| inner.interner.intern_owned(c))
                        .collect::<Vec<_>>()
                });
                inner.completions.insert(id, r.clone());
                r
            }
        }
    }

    /// Memoized [`SigmaType::completions`].
    pub fn completions(&self, ty: &SigmaType) -> Result<Vec<Arc<SigmaType>>, DataError> {
        self.completions_governed(ty, &Budget::unlimited())
    }

    /// Memoized [`SigmaType::completions`] under a [`Budget`].
    pub fn completions_governed(
        &self,
        ty: &SigmaType,
        budget: &Budget,
    ) -> Result<Vec<Arc<SigmaType>>, DataError> {
        let id = self.intern(ty);
        let ids = self.completions_id_governed(id, budget)?;
        let inner = self.inner.lock().unwrap();
        Ok(ids
            .into_iter()
            .map(|c| Arc::clone(inner.interner.resolve(c)))
            .collect())
    }

    /// The shared [`TypeBitsSpace`] for `k`-register types over this
    /// cache's schema, or `None` when the bitset fragment cannot represent
    /// them. Memoized per `k`, so fast paths can fetch it freely.
    pub fn typebits_space(&self, k: u16) -> Option<Arc<TypeBitsSpace>> {
        self.inner.lock().unwrap().bit_space(&self.schema, k)
    }

    /// The memoized lossless [`TypeBits`] encoding of an interned type, or
    /// `None` when the type falls outside the bitset fragment. Decoding the
    /// result in [`SatCache::typebits_space`] of the type's `k` yields the
    /// original type back, and [`SatCache::intern_typebits`] is the inverse
    /// direction.
    pub fn typebits(&self, id: TypeId) -> Option<TypeBits> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(b) = inner.bits.get(&id) {
            self.hit();
            return b.clone();
        }
        self.miss();
        let ty = Arc::clone(inner.interner.resolve(id));
        let b = inner
            .bit_space(&self.schema, ty.k())
            .and_then(|sp| sp.encode(&ty));
        inner.bits.insert(id, b.clone());
        b
    }

    /// Interns the σ-type a [`TypeBits`] value decodes to, returning its
    /// handle (the inverse of [`SatCache::typebits`] for types of the
    /// space's register count).
    pub fn intern_typebits(&self, space: &TypeBitsSpace, bits: &TypeBits) -> TypeId {
        self.intern_owned(space.decode(bits))
    }

    /// The memoized space+encoding of `id`, or `None` when the type falls
    /// outside the bitset fragment. Shared preamble of the kernel-routed
    /// operations below.
    fn kernel_operands(&self, id: TypeId) -> Option<(Arc<TypeBitsSpace>, TypeBits)> {
        let bits = self.typebits(id)?;
        let sp = self.typebits_space(self.resolve(id).k())?;
        Some((sp, bits))
    }

    /// [`SatCache::restrict_id`] with `RestrictOp::Registers(m)`, computed
    /// on the [`TypeBits`] kernel when the type is in-fragment. Shares the
    /// restriction memo table with the reference path — the kernel result
    /// decodes to exactly [`SigmaType::restrict_registers`]'s output — and
    /// falls back to the `SigmaType` path out of fragment or on
    /// unsatisfiable input (so error values stay byte-identical).
    pub fn restrict_registers_id_kernel(&self, id: TypeId, m: u16) -> Result<TypeId, DataError> {
        self.restrict_id_kernel(id, RestrictOp::Registers(m))
    }

    /// Memoized Thm 24 view restriction ([`SigmaType::restrict_eq_registers`])
    /// by handle, on the reference path.
    pub fn restrict_eq_registers_id(&self, id: TypeId, m: u16) -> Result<TypeId, DataError> {
        self.restrict_id(id, RestrictOp::EqRegisters(m))
    }

    /// [`SatCache::restrict_eq_registers_id`] computed on the [`TypeBits`]
    /// kernel when in-fragment; same memo table and fallback discipline as
    /// [`SatCache::restrict_registers_id_kernel`].
    pub fn restrict_eq_registers_id_kernel(&self, id: TypeId, m: u16) -> Result<TypeId, DataError> {
        self.restrict_id_kernel(id, RestrictOp::EqRegisters(m))
    }

    fn restrict_id_kernel(&self, id: TypeId, op: RestrictOp) -> Result<TypeId, DataError> {
        {
            let inner = self.inner.lock().unwrap();
            if let Some(r) = inner.restricted.get(&(id, op)) {
                self.hit();
                return r.clone();
            }
        }
        let kernel = self.kernel_operands(id).and_then(|(sp, bits)| {
            let (rb, m) = match op {
                RestrictOp::Registers(m) => (sp.restrict_registers(&bits, m)?, m),
                RestrictOp::EqRegisters(m) => (sp.restrict_eq_registers(&bits, m)?, m),
                _ => return None,
            };
            Some(sp.sub_space(m)?.decode(&rb))
        });
        match kernel {
            Some(ty) => {
                self.miss();
                let mut inner = self.inner.lock().unwrap();
                let r = Ok(inner.interner.intern_owned(ty));
                inner.restricted.insert((id, op), r.clone());
                r
            }
            None => self.restrict_id(id, op),
        }
    }

    /// [`SatCache::completions_id_governed`] computed on the [`TypeBits`]
    /// kernel worklist when the type is in-fragment (decoding and interning
    /// the results in `SigmaType` order, so the output — and the shared memo
    /// entry — is identical to the reference enumeration). Budget trips pass
    /// through unmemoized; out-of-fragment types and unsatisfiable inputs
    /// fall back to the `SigmaType` path for byte-identical errors.
    pub fn completions_id_governed_kernel(
        &self,
        id: TypeId,
        budget: &Budget,
    ) -> Result<Vec<TypeId>, DataError> {
        {
            let inner = self.inner.lock().unwrap();
            if let Some(r) = inner.completions.get(&id) {
                self.hit();
                return r.clone();
            }
        }
        let Some((sp, bits)) = self.kernel_operands(id) else {
            return self.completions_id_governed(id, budget);
        };
        self.miss();
        match sp.completions_governed(&bits, budget) {
            Ok(cs) => {
                let mut done: Vec<SigmaType> = cs.iter().map(|c| sp.decode(c)).collect();
                done.sort();
                done.dedup();
                let mut inner = self.inner.lock().unwrap();
                let r: Result<Vec<TypeId>, DataError> = Ok(done
                    .into_iter()
                    .map(|c| inner.interner.intern_owned(c))
                    .collect());
                inner.completions.insert(id, r.clone());
                r
            }
            Err(DataError::Govern(g)) => Err(DataError::Govern(g)),
            Err(_) => self.completions_id_governed(id, budget),
        }
    }

    /// Current hit/miss counters and interner size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            distinct_types: self.inner.lock().unwrap().interner.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use crate::term::Term;

    fn ty_eq() -> SigmaType {
        SigmaType::new(
            2,
            [
                Literal::eq(Term::x(0), Term::x(1)),
                Literal::eq(Term::x(1), Term::y(1)),
            ],
        )
    }

    #[test]
    fn interner_dedupes_structurally_equal_types() {
        let mut i = TypeInterner::new();
        let a = i.intern(&ty_eq());
        let b = i.intern(&ty_eq());
        let c = i.intern(&SigmaType::empty(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(**i.resolve(a), ty_eq());
    }

    #[test]
    fn analyze_is_cached() {
        let cache = SatCache::new(Schema::empty());
        let t = ty_eq();
        let a1 = cache.analyze(&t).unwrap();
        let a2 = cache.analyze(&t).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn unsat_types_cache_the_error() {
        let cache = SatCache::new(Schema::empty());
        let t = SigmaType::new(
            1,
            [
                Literal::eq(Term::x(0), Term::y(0)),
                Literal::neq(Term::x(0), Term::y(0)),
            ],
        );
        assert!(!cache.is_consistent(&t));
        assert!(!cache.is_consistent(&t));
        assert!(cache.saturate(&t).is_err());
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one analysis, errors included");
    }

    #[test]
    fn saturate_matches_direct() {
        let schema = Schema::empty();
        let cache = SatCache::new(schema.clone());
        let t = ty_eq();
        assert_eq!(*cache.saturate(&t).unwrap(), t.saturate(&schema).unwrap());
    }

    #[test]
    fn restrict_ops_match_direct() {
        let schema = Schema::empty();
        let cache = SatCache::new(schema.clone());
        let t = ty_eq();
        assert_eq!(
            *cache.restrict_registers(&t, 1).unwrap(),
            t.restrict_registers(&schema, 1).unwrap()
        );
        assert_eq!(*cache.pre_type(&t).unwrap(), t.pre_type(&schema).unwrap());
        assert_eq!(
            *cache.post_type_as_pre(&t).unwrap(),
            t.post_type_as_pre(&schema).unwrap()
        );
    }

    #[test]
    fn joint_satisfiability_matches_direct_including_incomplete() {
        // The incomplete case from `symbolic.rs`: `P(x1)` followed by
        // `P(x1)` is jointly satisfiable even though syntactic pre/post
        // agreement would reject it.
        let schema = Schema::with(&[("P", 1)], &[]);
        let p = schema.relation("P").unwrap();
        let cache = SatCache::new(schema.clone());
        let t = SigmaType::new(1, [Literal::rel(p, vec![Term::x(0)])]);
        assert!(cache.jointly_satisfiable(&t, &t));
        assert_eq!(
            cache.jointly_satisfiable(&t, &t),
            t.jointly_satisfiable_with(&t, &schema)
        );
        // Second call is a pure hit.
        let before = cache.stats().hits;
        cache.jointly_satisfiable(&t, &t);
        assert!(cache.stats().hits > before);
    }

    #[test]
    fn agrees_with_matches_direct() {
        let schema = Schema::empty();
        let cache = SatCache::new(schema.clone());
        let t1 = SigmaType::new(2, [Literal::eq(Term::y(0), Term::y(1))]);
        let t2 = SigmaType::new(2, [Literal::eq(Term::x(0), Term::x(1))]);
        let t3 = SigmaType::new(2, [Literal::neq(Term::x(0), Term::x(1))]);
        assert_eq!(
            cache.agrees_with(&t1, &t2).unwrap(),
            t1.agrees_with(&t2, &schema).unwrap()
        );
        assert_eq!(
            cache.agrees_with(&t1, &t3).unwrap(),
            t1.agrees_with(&t3, &schema).unwrap()
        );
    }

    #[test]
    fn completions_match_direct() {
        let schema = Schema::empty();
        let cache = SatCache::new(schema.clone());
        let t = SigmaType::empty(1);
        let cached: Vec<SigmaType> = cache
            .completions(&t)
            .unwrap()
            .into_iter()
            .map(|c| (*c).clone())
            .collect();
        assert_eq!(cached, t.completions(&schema).unwrap());
    }

    #[test]
    fn stats_track_hit_rate() {
        let cache = SatCache::new(Schema::empty());
        let t = ty_eq();
        for _ in 0..4 {
            cache.analyze(&t).unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(s.distinct_types, 1);
    }

    #[test]
    fn typebits_roundtrip_via_cache() {
        let schema = Schema::with(&[("P", 1)], &[]);
        let cache = SatCache::new(schema);
        let id = cache.intern(&ty_eq());
        let bits = cache.typebits(id).expect("k = 2 over P/1 is in-fragment");
        let space = cache.typebits_space(2).unwrap();
        assert_eq!(cache.intern_typebits(&space, &bits), id);
        // The encoding is memoized: a second lookup is a pure hit.
        let before = cache.stats();
        assert_eq!(cache.typebits(id), Some(bits));
        let after = cache.stats();
        assert_eq!(before.misses, after.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn typebits_space_gated_per_k() {
        let cache = SatCache::new(Schema::empty());
        assert!(cache.typebits_space(2).is_some());
        // 2·9 = 18 terms exceeds the bitset fragment.
        assert!(cache.typebits_space(9).is_none());
        let id = cache.intern(&SigmaType::empty(9));
        assert_eq!(cache.typebits(id), None);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(SatCache::new(Schema::empty()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                let t = ty_eq();
                for _ in 0..16 {
                    assert!(c.is_consistent(&t));
                    assert!(c.jointly_satisfiable(&t, &t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4 * 16 * 2);
    }
}
