//! The one dispatcher between the two implementations of every σ-type
//! operation the symbolic constructions repeat.
//!
//! `SControl(A)` (condition (iii)'s joint satisfiability), completion,
//! atom refinement and the view restrictions all perform the same handful
//! of σ-type operations in their inner loops. [`TypeOps`] serves each of
//! them either on the [`TypeBits`] word-level kernel (the fast path, with a
//! [`SatCache`] fallback for out-of-fragment types) or on the memoized
//! `SigmaType` path (the retained reference the differential suites
//! compare against). It is the only code outside `rega-data` that
//! encodes types into [`TypeBits`], and the only code that counts which
//! path served a request: the counters `typebits.proj_fast` /
//! `typebits.proj_fallback` and the per-construction `typebits.stats`
//! event it emits on drop.
//!
//! The kernel results go into the cache's own memo tables
//! ([`SatCache::restrict_id_with`], [`SatCache::completions_id_with`]),
//! which they share with the reference path: both paths compute the same
//! values, so a table entry does not record which path filled it.
//!
//! Independently of the path, [`TypeOps`] deduplicates repeated
//! joint-satisfiability requests for the same ordered `(type, type)` pair
//! in a local memo — `SControl(A)` and the projections' restrict loops
//! re-check the same pair once per pair of transitions, which collapses to
//! once per distinct type pair here before any kernel or cache work
//! happens. [`TypeOps::joint_stats`] exposes the request/compute split so
//! tests can pin the dedupe.

use rega_data::fxhash::FxMap;
use rega_data::{
    Budget, DataError, GovernError, Literal, RestrictOp, SatCache, Schema, SigmaType, TypeBits,
    TypeBitsSpace, TypeId,
};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
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

    /// Interns a type in the backing cache.
    pub fn intern(&self, ty: &SigmaType) -> TypeId {
        self.cache.intern(ty)
    }

    /// The type behind a handle.
    pub fn resolve(&self, id: TypeId) -> Arc<SigmaType> {
        self.cache.resolve(id)
    }

    /// The (locally memoized) bitset encoding of `id`, when in-fragment and
    /// on the fast path. Every type a dispatcher serves has its `k`.
    fn bits_of(&self, id: TypeId) -> Option<TypeBits> {
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

    /// Counts a fast-mode request against the path that will serve it.
    fn count(&self, kernel_eligible: bool) {
        if self.path == TypePath::Fast {
            let (ctr, local) = if kernel_eligible {
                (&self.fast_ctr, &self.fast_local)
            } else {
                (&self.fallback_ctr, &self.fallback_local)
            };
            ctr.inc();
            local.set(local.get() + 1);
        }
    }

    /// The space and encoding the kernel serves `id` with, or `None` on the
    /// reference path and for out-of-fragment types. Counts the request.
    fn kernel_operands(&self, id: TypeId) -> Option<(&TypeBitsSpace, TypeBits)> {
        let bits = self.bits_of(id);
        self.count(bits.is_some());
        Some((self.space.as_deref()?, bits?))
    }

    /// Whether `a` (at step n) and `b` (at step n+1) are jointly
    /// satisfiable over the shared middle registers. Each distinct ordered
    /// pair is computed once per dispatcher.
    pub fn jointly_satisfiable_ids(&self, a: TypeId, b: TypeId) -> bool {
        self.joint_requests.set(self.joint_requests.get() + 1);
        let mut memo = self.joint_memo.borrow_mut();
        let slot = match memo.entry((a, b)) {
            Entry::Occupied(hit) => return *hit.get(),
            Entry::Vacant(slot) => slot,
        };
        self.joint_computed.set(self.joint_computed.get() + 1);
        let kernel = match (&self.joint_space, self.bits_of(a), self.bits_of(b)) {
            (Some(sp), Some(ba), Some(bb)) => sp.jointly_satisfiable(&ba, &bb),
            _ => None,
        };
        self.count(kernel.is_some());
        *slot.insert(kernel.unwrap_or_else(|| self.cache.jointly_satisfiable_ids(a, b)))
    }

    /// The complete extensions of `id`, interned in `SigmaType` order —
    /// identical output (and shared memo entries) on both paths.
    pub fn completions_id_governed(
        &self,
        id: TypeId,
        budget: &Budget,
    ) -> Result<Vec<TypeId>, DataError> {
        let Some((sp, bits)) = self.kernel_operands(id) else {
            return self.cache.completions_id_governed(id, budget);
        };
        let schema = self.cache.schema();
        self.cache.completions_id_with(id, |ty| {
            match sp.completions_governed(&bits, budget) {
                Ok(cs) => {
                    let mut done: Vec<SigmaType> = cs.iter().map(|c| sp.decode(c)).collect();
                    done.sort();
                    done.dedup();
                    Ok(done)
                }
                Err(DataError::Govern(g)) => Err(DataError::Govern(g)),
                // Unsatisfiable input: the reference path's error value.
                Err(_) => ty.completions_governed(schema, budget),
            }
        })
    }

    /// `δ|m` — restriction to the first `m` registers plus constants.
    pub fn restrict_registers_id(&self, id: TypeId, m: u16) -> Result<TypeId, DataError> {
        self.restrict(
            id,
            m,
            RestrictOp::Registers,
            TypeBitsSpace::restrict_registers,
            SigmaType::restrict_registers,
        )
    }

    /// The Thm 24 view restriction: saturated (in)equality literals over
    /// the first `m` registers only (database and constants hidden).
    pub fn restrict_eq_registers_id(&self, id: TypeId, m: u16) -> Result<TypeId, DataError> {
        self.restrict(
            id,
            m,
            RestrictOp::EqRegisters,
            TypeBitsSpace::restrict_eq_registers,
            SigmaType::restrict_eq_registers,
        )
    }

    /// A restriction to `m` registers, `op(m)` naming it in the cache's
    /// memo. The kernel result decodes to exactly the `reference` output;
    /// where the kernel declines (target universe too large, unsatisfiable
    /// input) `reference` computes it, so error values stay identical.
    fn restrict(
        &self,
        id: TypeId,
        m: u16,
        op: fn(u16) -> RestrictOp,
        kernel: fn(&TypeBitsSpace, &TypeBits, u16) -> Option<TypeBits>,
        reference: fn(&SigmaType, &Schema, u16) -> Result<SigmaType, DataError>,
    ) -> Result<TypeId, DataError> {
        let Some((sp, bits)) = self.kernel_operands(id) else {
            return self.cache.restrict_id(id, op(m));
        };
        let schema = self.cache.schema();
        self.cache.restrict_id_with(id, op(m), |ty| {
            kernel(sp, &bits, m)
                .and_then(|b| Some(sp.sub_space(m)?.decode(&b)))
                .map_or_else(|| reference(ty, schema, m), Ok)
        })
    }

    /// The satisfiable refinements of `ty` by each of `atoms` and its
    /// negation in turn, sorted and deduplicated, interned — the variants
    /// [`crate::transform::complete_for_atoms`] puts in place of one
    /// transition. Ticks `budget` (phase `transform.complete_for_atoms`,
    /// with the interned-type ceiling) once per variant it refines. Both
    /// paths give the same variants: `SigmaType` canonicalizes literal
    /// sets, and bit-level consistency agrees with the analysis. The kernel
    /// serves `ty` when it and every atom fit the space.
    pub fn refine_by_atoms(
        &self,
        ty: &SigmaType,
        atoms: &[Literal],
        budget: &Budget,
    ) -> Result<Vec<TypeId>, GovernError> {
        let cache = self.cache;
        let tick = || {
            budget.tick_mem("transform.complete_for_atoms", || {
                cache.stats().distinct_types
            })
        };
        let kernel = self.space.as_deref().and_then(|sp| {
            let b0 = sp.encode(ty)?;
            atoms
                .iter()
                .all(|a| sp.with_literal(&b0, a).is_some())
                .then_some((sp, b0))
        });
        self.count(kernel.is_some());
        let mut variants: Vec<SigmaType> = match kernel {
            Some((sp, b0)) => {
                let mut vs = vec![b0];
                for atom in atoms {
                    let negated = atom.negated();
                    let mut next = Vec::new();
                    for v in vs {
                        tick()?;
                        for lit in [atom, &negated] {
                            let r = sp.with_literal(&v, lit).expect("atom fits the space");
                            if sp.is_consistent(&r) {
                                next.push(r);
                            }
                        }
                    }
                    vs = next;
                }
                vs.iter().map(|b| sp.decode(b)).collect()
            }
            None => {
                let mut vs = vec![ty.clone()];
                for atom in atoms {
                    let mut next = Vec::new();
                    for v in vs {
                        tick()?;
                        for lit in [atom.clone(), atom.negated()] {
                            let r = v.with(lit);
                            if cache.is_consistent(&r) {
                                next.push(r);
                            }
                        }
                    }
                    vs = next;
                }
                vs
            }
        };
        variants.sort();
        variants.dedup();
        Ok(variants
            .into_iter()
            .map(|v| cache.intern_owned(v))
            .collect())
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
