//! Path-selectable σ-type operations for the projection constructions.
//!
//! The exponential constructions (completion, the three view projections,
//! the chase) perform the same handful of σ-type operations in their inner
//! loops: joint satisfiability of consecutive types, completion enumeration,
//! and restriction into the observable sub-space. [`TypeOps`] dispatches
//! each of them either to the [`TypeBits`] word-level kernel (the fast
//! path, with a [`SatCache`] fallback for out-of-fragment types — the same
//! discipline as `SControlSource` in [`crate::symbolic`]) or to the
//! memoized `SigmaType` path (the retained reference the differential
//! suites compare against). Counters `typebits.proj_fast` /
//! `typebits.proj_fallback` record which path served each fast-mode
//! request.
//!
//! Independently of the path, [`TypeOps`] deduplicates repeated
//! joint-satisfiability requests for the same ordered `(type, type)` pair
//! in a local memo — the projections' restrict loops re-check the same pair
//! once per (transition, successor-transition) pair, which collapses to
//! once per distinct type pair here before any kernel or cache work
//! happens. [`TypeOps::joint_stats`] exposes the request/compute split so
//! tests can pin the dedupe.

use rega_data::fxhash::FxMap;
use rega_data::{Budget, DataError, SatCache, SigmaType, TypeBits, TypeBitsSpace, TypeId};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Which implementation serves the σ-type operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TypePath {
    /// The [`TypeBits`] kernel when the fragment supports it, falling back
    /// to the memoized [`SatCache`] path per operation otherwise.
    Fast,
    /// The memoized `SigmaType` path only — the retained reference the
    /// differential suites compare the kernel against.
    Reference,
}

/// A per-construction dispatcher over one [`SatCache`]. Cheap to build;
/// intended to live for one governed construction (its memos are local, so
/// cross-call sharing still goes through the cache).
pub struct TypeOps<'a> {
    cache: &'a SatCache,
    path: TypePath,
    /// The `k`-register bitset space, when the fragment supports it (fast
    /// path only).
    space: Option<Arc<TypeBitsSpace>>,
    /// `space`, additionally supporting the `3k + C` joint universe.
    joint_space: Option<Arc<TypeBitsSpace>>,
    bits: RefCell<FxMap<TypeId, Option<TypeBits>>>,
    joint_memo: RefCell<FxMap<(TypeId, TypeId), bool>>,
    joint_requests: Cell<u64>,
    joint_computed: Cell<u64>,
    fast_ctr: rega_obs::Counter,
    fallback_ctr: rega_obs::Counter,
    /// Per-construction mirrors of the global path counters, emitted as a
    /// `typebits.stats` trace event on drop so a trace can attribute the
    /// kernel/fallback split to the construction — and through the request
    /// context, to the serving request — that caused it.
    fast_local: Cell<u64>,
    fallback_local: Cell<u64>,
}

impl<'a> TypeOps<'a> {
    /// Operations for `k`-register types over `cache`'s schema, served by
    /// `path`.
    pub fn new(cache: &'a SatCache, k: u16, path: TypePath) -> Self {
        let space = match path {
            TypePath::Fast => cache.typebits_space(k),
            TypePath::Reference => None,
        };
        let joint_space = space.clone().filter(|sp| sp.supports_joint());
        let registry = rega_obs::global();
        TypeOps {
            cache,
            path,
            space,
            joint_space,
            bits: RefCell::default(),
            joint_memo: RefCell::default(),
            joint_requests: Cell::new(0),
            joint_computed: Cell::new(0),
            fast_ctr: registry.counter("typebits.proj_fast"),
            fallback_ctr: registry.counter("typebits.proj_fallback"),
            fast_local: Cell::new(0),
            fallback_local: Cell::new(0),
        }
    }

    /// The backing cache.
    pub fn cache(&self) -> &'a SatCache {
        self.cache
    }

    /// The serving path.
    pub fn path(&self) -> TypePath {
        self.path
    }

    /// The `k`-register bitset space, when this is a fast-path dispatcher
    /// over a supported fragment.
    pub fn space(&self) -> Option<&Arc<TypeBitsSpace>> {
        self.space.as_ref()
    }

    /// Interns a type in the backing cache.
    pub fn intern(&self, ty: &SigmaType) -> TypeId {
        self.cache.intern(ty)
    }

    /// The type behind a handle.
    pub fn resolve(&self, id: TypeId) -> Arc<SigmaType> {
        self.cache.resolve(id)
    }

    /// The (locally memoized) bitset encoding of `id`, when in-fragment and
    /// on the fast path.
    pub fn bits_of(&self, id: TypeId) -> Option<TypeBits> {
        self.space.as_ref()?;
        self.bits
            .borrow_mut()
            .entry(id)
            .or_insert_with(|| self.cache.typebits(id))
            .clone()
    }

    /// `(requests, computed)` joint-satisfiability counts — the gap is the
    /// local dedupe of repeated `(a, b)` pairs.
    pub fn joint_stats(&self) -> (u64, u64) {
        (self.joint_requests.get(), self.joint_computed.get())
    }

    /// `(fast, fallback)` — how many fast-mode operations *this
    /// construction* served through the kernel vs. the memoized fallback
    /// (the per-construction slice of the `typebits.proj_*` counters).
    pub fn path_stats(&self) -> (u64, u64) {
        (self.fast_local.get(), self.fallback_local.get())
    }

    fn count_fast(&self) {
        self.fast_ctr.inc();
        self.fast_local.set(self.fast_local.get() + 1);
    }

    fn count_fallback(&self) {
        self.fallback_ctr.inc();
        self.fallback_local.set(self.fallback_local.get() + 1);
    }

    /// Whether `a` (at step n) and `b` (at step n+1) are jointly
    /// satisfiable over the shared middle registers. Each distinct ordered
    /// pair is computed once per dispatcher.
    pub fn jointly_satisfiable_ids(&self, a: TypeId, b: TypeId) -> bool {
        self.joint_requests.set(self.joint_requests.get() + 1);
        if let Some(&r) = self.joint_memo.borrow().get(&(a, b)) {
            return r;
        }
        self.joint_computed.set(self.joint_computed.get() + 1);
        let r = match self.path {
            TypePath::Fast => {
                let kernel = match (&self.joint_space, self.bits_of(a), self.bits_of(b)) {
                    (Some(sp), Some(ba), Some(bb)) => sp.jointly_satisfiable(&ba, &bb),
                    _ => None,
                };
                match kernel {
                    Some(sat) => {
                        self.count_fast();
                        sat
                    }
                    None => {
                        self.count_fallback();
                        self.cache.jointly_satisfiable_ids(a, b)
                    }
                }
            }
            TypePath::Reference => self.cache.jointly_satisfiable_ids(a, b),
        };
        self.joint_memo.borrow_mut().insert((a, b), r);
        r
    }

    /// Counts a fast-mode request against the path that will serve it.
    fn count(&self, kernel_eligible: bool) {
        if self.path == TypePath::Fast {
            if kernel_eligible {
                self.count_fast();
            } else {
                self.count_fallback();
            }
        }
    }

    /// The complete extensions of `id`, interned in `SigmaType` order —
    /// identical output (and shared memo entries) on both paths.
    pub fn completions_id_governed(
        &self,
        id: TypeId,
        budget: &Budget,
    ) -> Result<Vec<TypeId>, DataError> {
        match self.path {
            TypePath::Fast => {
                self.count(self.bits_of(id).is_some());
                self.cache.completions_id_governed_kernel(id, budget)
            }
            TypePath::Reference => self.cache.completions_id_governed(id, budget),
        }
    }

    /// `δ|m` — restriction to the first `m` registers plus constants.
    pub fn restrict_registers_id(&self, id: TypeId, m: u16) -> Result<TypeId, DataError> {
        match self.path {
            TypePath::Fast => {
                self.count(self.bits_of(id).is_some());
                self.cache.restrict_registers_id_kernel(id, m)
            }
            TypePath::Reference => self
                .cache
                .restrict_id(id, rega_data::RestrictOp::Registers(m)),
        }
    }

    /// The Thm 24 view restriction: saturated (in)equality literals over
    /// the first `m` registers only (database and constants hidden).
    pub fn restrict_eq_registers_id(&self, id: TypeId, m: u16) -> Result<TypeId, DataError> {
        match self.path {
            TypePath::Fast => {
                self.count(self.bits_of(id).is_some());
                self.cache.restrict_eq_registers_id_kernel(id, m)
            }
            TypePath::Reference => self.cache.restrict_eq_registers_id(id, m),
        }
    }
}

impl Drop for TypeOps<'_> {
    /// Emits this construction's kernel/fallback split as a
    /// `typebits.stats` trace event. One event per governed construction,
    /// attributed to the span (and request) it ran under — the global
    /// `typebits.proj_*` counters cannot provide that attribution.
    fn drop(&mut self) {
        let (fast, fallback) = self.path_stats();
        if fast + fallback > 0 {
            rega_obs::event!("typebits.stats", fast = fast, fallback = fallback);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_data::{Literal, Schema, Term};

    fn schema() -> Schema {
        Schema::with(&[("P", 1)], &["c"])
    }

    fn t_eq() -> SigmaType {
        SigmaType::new(2, [Literal::eq(Term::x(0), Term::y(1))])
    }

    fn t_neq() -> SigmaType {
        SigmaType::new(2, [Literal::neq(Term::y(0), Term::cst(0))])
    }

    #[test]
    fn fast_and_reference_agree_and_share_the_cache_memo() {
        let cache = SatCache::new(schema());
        let fast = TypeOps::new(&cache, 2, TypePath::Fast);
        let refr = TypeOps::new(&cache, 2, TypePath::Reference);
        let (a, b) = (cache.intern(&t_eq()), cache.intern(&t_neq()));
        assert_eq!(
            fast.jointly_satisfiable_ids(a, b),
            refr.jointly_satisfiable_ids(a, b)
        );
        assert_eq!(
            fast.completions_id_governed(a, &Budget::unlimited())
                .unwrap(),
            refr.completions_id_governed(a, &Budget::unlimited())
                .unwrap()
        );
        for m in 0..=2 {
            assert_eq!(
                fast.restrict_registers_id(a, m).unwrap(),
                refr.restrict_registers_id(a, m).unwrap()
            );
            assert_eq!(
                fast.restrict_eq_registers_id(b, m).unwrap(),
                refr.restrict_eq_registers_id(b, m).unwrap()
            );
        }
    }

    #[test]
    fn path_stats_count_only_fast_mode_operations() {
        let cache = SatCache::new(schema());
        let (a, b) = (cache.intern(&t_eq()), cache.intern(&t_neq()));
        let ops = TypeOps::new(&cache, 2, TypePath::Fast);
        ops.jointly_satisfiable_ids(a, b);
        ops.restrict_registers_id(a, 1).unwrap();
        let (fast, fallback) = ops.path_stats();
        assert_eq!(fast + fallback, 2, "one count per distinct operation");
        // The reference path never touches the kernel counters.
        let refr = TypeOps::new(&cache, 2, TypePath::Reference);
        refr.jointly_satisfiable_ids(a, b);
        assert_eq!(refr.path_stats(), (0, 0));
    }

    #[test]
    fn repeated_joint_pairs_compute_once() {
        let cache = SatCache::new(schema());
        let ops = TypeOps::new(&cache, 2, TypePath::Fast);
        let (a, b) = (cache.intern(&t_eq()), cache.intern(&t_neq()));
        for _ in 0..5 {
            ops.jointly_satisfiable_ids(a, b);
            ops.jointly_satisfiable_ids(b, a);
        }
        assert_eq!(ops.joint_stats(), (10, 2));
    }
}
