//! Cooperative resource governance for the exponential constructions.
//!
//! Every symbolic construction in this workspace — completion, the
//! state-driven form, `SControl(A)`, emptiness, the chase, the projection
//! views — is exponential-prone: a hostile input can make any of them run
//! for hours or intern types until the process OOMs. Nothing here makes
//! those algorithms cheaper; instead a [`Budget`] handle is threaded into
//! their inner loops so a runaway construction *stops*, returning a typed
//! [`GovernError`] that says which phase tripped, how many nodes it had
//! expanded, and how long it had been running.
//!
//! The design is cooperative and amortized:
//!
//! * [`Budget::unlimited`] carries no allocation and its [`tick`]
//!   (Budget::tick) is a single branch on a `None` — the ungoverned hot
//!   path (every plain entry point, which calls its `*_governed` form with
//!   it) stays within measurement noise (pinned by the E17 benchmark).
//! * A live budget counts every tick with one relaxed `fetch_add` and
//!   compares it against the node ceiling exactly; the wall-clock deadline,
//!   the cancellation token, and the interned-type ceiling are only
//!   consulted every [`STRIDE`] ticks (the same relaxed-fast-path pattern
//!   as the rega-obs sink slot).
//! * Time comes from an injectable [`ObsClock`], so tests drive deadlines
//!   with a `ManualClock` instead of sleeping.
//!
//! Cancellation is a cloneable [`CancelToken`] (an `AtomicBool`): flip it
//! from any thread — a ctrl-c handler, a supervisor, a test — and every
//! governed loop sharing the budget unwinds with [`GovernError::Cancelled`]
//! within one stride.

use rega_obs::{MonotonicClock, ObsClock};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Ticks between slow-path checks (deadline, cancellation, type ceiling).
/// The inner loops this governs do at least ~100 ns of work per tick, so a
/// ~25 ns clock read every 64 ticks is far below the noise floor while
/// still bounding deadline overshoot to a few milliseconds.
pub const STRIDE: u64 = 64;

/// Declarative limits for a [`Budget`]. All fields are optional; an empty
/// spec still yields a live budget whose [`CancelToken`] works.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Wall-clock deadline, in milliseconds from [`Budget::start`].
    pub deadline_ms: Option<u64>,
    /// Ceiling on governed loop iterations ("nodes expanded") across every
    /// construction sharing the budget.
    pub max_nodes: Option<u64>,
    /// Ceiling on distinct interned σ-types (peak memory proxy), checked
    /// against the [`SatCache`](crate::SatCache) the caller passes to
    /// [`Budget::tick_mem`].
    pub max_types: Option<usize>,
}

impl BudgetSpec {
    /// A spec with no limits set.
    pub fn none() -> BudgetSpec {
        BudgetSpec::default()
    }

    /// The pointwise-tighter combination of two specs: for each limit the
    /// smaller of the two when both are set, the set one when only one is.
    /// This is the admission-control composition — a server-wide ceiling
    /// tightened by a per-tenant quota yields the budget a tenant's
    /// compilation actually runs under, and no tenant can *loosen* a
    /// global limit by declaring a bigger one.
    pub fn tightened(&self, other: &BudgetSpec) -> BudgetSpec {
        fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (one, None) | (None, one) => one,
            }
        }
        BudgetSpec {
            deadline_ms: tighter(self.deadline_ms, other.deadline_ms),
            max_nodes: tighter(self.max_nodes, other.max_nodes),
            max_types: tighter(self.max_types, other.max_types),
        }
    }
}

/// A cloneable cancellation flag. All clones share one `AtomicBool`;
/// [`cancel`](CancelToken::cancel) from any thread makes every governed
/// loop holding a budget with this token return [`GovernError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Leaks one reference to the shared flag and returns it with a
    /// `'static` lifetime. This exists for signal handlers, which may only
    /// touch `static` atomics: leak the flag once at setup, store the
    /// reference in a `static`, and the handler's store is async-signal
    /// safe. The leak is one `AtomicBool` per call — call it once.
    pub fn leaked_flag(&self) -> &'static AtomicBool {
        // Safety: `Arc::into_raw` yields a pointer valid as long as the
        // (intentionally leaked) strong count it represents is never
        // dropped, which is forever.
        unsafe { &*Arc::into_raw(Arc::clone(&self.flag)) }
    }
}

struct BudgetInner {
    clock: Arc<dyn ObsClock>,
    start_ns: u64,
    /// Relative deadline in nanoseconds, if any.
    deadline_ns: Option<u64>,
    max_nodes: Option<u64>,
    max_types: Option<usize>,
    cancel: CancelToken,
    nodes: AtomicU64,
}

impl BudgetInner {
    /// Bumps the node counter and returns the new count.
    ///
    /// Plain load + store rather than `fetch_add`: a budget is ticked by
    /// the one thread running the construction, while other threads only
    /// *read* the counter (diagnostics) or flip the cancellation flag.
    /// Dropping the atomic RMW keeps an armed tick at load/compare/store
    /// cost — on microsecond-scale constructions the locked `fetch_add`
    /// alone pushed armed-vs-unarmed past E17's noise floor. Should two
    /// threads ever tick one budget concurrently, a few expansions could
    /// go uncounted; ceilings are still enforced to within that slip.
    #[inline]
    fn bump(&self) -> u64 {
        let n = self.nodes.load(Ordering::Relaxed) + 1;
        self.nodes.store(n, Ordering::Relaxed);
        n
    }

    fn elapsed_ms(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns) / 1_000_000
    }

    /// The amortized checks: cancellation first (a cancel must win over a
    /// deadline that expired at the same instant), then the deadline.
    #[cold]
    fn slow_check(&self, phase: &'static str, nodes: u64) -> Result<(), GovernError> {
        if self.cancel.is_cancelled() {
            return Err(trip(GovernError::Cancelled {
                phase,
                nodes,
                elapsed_ms: self.elapsed_ms(),
            }));
        }
        if let Some(deadline_ns) = self.deadline_ns {
            let elapsed = self.clock.now_ns().saturating_sub(self.start_ns);
            if elapsed > deadline_ns {
                return Err(trip(GovernError::DeadlineExceeded {
                    phase,
                    nodes,
                    elapsed_ms: elapsed / 1_000_000,
                    deadline_ms: deadline_ns / 1_000_000,
                }));
            }
        }
        Ok(())
    }
}

/// A shared handle bounding a family of governed constructions.
///
/// Cloning is cheap and every clone shares the same counters, deadline and
/// cancellation token, so one budget can cover a whole pipeline (e.g. all
/// three phases of `check_emptiness` plus the projection that follows).
/// [`Budget::unlimited`] is the zero-cost null object every plain
/// (ungoverned) entry point passes to its `*_governed` form.
#[derive(Clone, Default)]
pub struct Budget {
    inner: Option<Arc<BudgetInner>>,
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Budget::unlimited"),
            Some(inner) => f
                .debug_struct("Budget")
                .field("deadline_ns", &inner.deadline_ns)
                .field("max_nodes", &inner.max_nodes)
                .field("max_types", &inner.max_types)
                .field("nodes", &inner.nodes.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl Budget {
    /// The null budget: never trips, costs one branch per tick.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// Starts a live budget on the real (monotonic) clock.
    pub fn start(spec: &BudgetSpec) -> Budget {
        Self::start_with_clock(spec, Arc::new(MonotonicClock::new()))
    }

    /// Starts a live budget on an injectable clock (tests use
    /// [`ManualClock`](rega_obs::ManualClock) to cross deadlines without
    /// sleeping).
    pub fn start_with_clock(spec: &BudgetSpec, clock: Arc<dyn ObsClock>) -> Budget {
        let start_ns = clock.now_ns();
        Budget {
            inner: Some(Arc::new(BudgetInner {
                clock,
                start_ns,
                deadline_ns: spec.deadline_ms.map(|ms| ms.saturating_mul(1_000_000)),
                max_nodes: spec.max_nodes,
                max_types: spec.max_types,
                cancel: CancelToken::new(),
                nodes: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this is the null budget.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The cancellation token shared by every clone of this budget. For an
    /// unlimited budget this returns a fresh disconnected token (cancelling
    /// it does nothing, by construction).
    pub fn cancel_token(&self) -> CancelToken {
        match &self.inner {
            Some(inner) => inner.cancel.clone(),
            None => CancelToken::new(),
        }
    }

    /// Nodes expanded so far across all constructions sharing the budget.
    pub fn nodes(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.nodes.load(Ordering::Relaxed))
    }

    /// Milliseconds since [`Budget::start`] (0 for the null budget).
    pub fn elapsed_ms(&self) -> u64 {
        self.inner.as_deref().map_or(0, BudgetInner::elapsed_ms)
    }

    /// Counts one expansion in `phase`. The node ceiling is enforced
    /// exactly on every tick; deadline and cancellation are checked every
    /// [`STRIDE`] ticks.
    #[inline]
    pub fn tick(&self, phase: &'static str) -> Result<(), GovernError> {
        let Some(inner) = self.inner.as_deref() else {
            return Ok(());
        };
        let n = inner.bump();
        if let Some(max) = inner.max_nodes {
            if n > max {
                return Err(trip(GovernError::NodeBudgetExceeded {
                    phase,
                    nodes: n,
                    elapsed_ms: inner.elapsed_ms(),
                    max_nodes: max,
                }));
            }
        }
        if n % STRIDE == 0 {
            inner.slow_check(phase, n)?;
        }
        Ok(())
    }

    /// Like [`tick`](Budget::tick), but additionally enforces the
    /// interned-type ceiling on the amortized slow path. `distinct_types`
    /// is only evaluated every [`STRIDE`] ticks — pass a closure reading
    /// `cache.stats().distinct_types` and the lock it takes stays off the
    /// hot path.
    #[inline]
    pub fn tick_mem<F: FnOnce() -> usize>(
        &self,
        phase: &'static str,
        distinct_types: F,
    ) -> Result<(), GovernError> {
        let Some(inner) = self.inner.as_deref() else {
            return Ok(());
        };
        let n = inner.bump();
        if let Some(max) = inner.max_nodes {
            if n > max {
                return Err(trip(GovernError::NodeBudgetExceeded {
                    phase,
                    nodes: n,
                    elapsed_ms: inner.elapsed_ms(),
                    max_nodes: max,
                }));
            }
        }
        if n % STRIDE == 0 {
            inner.slow_check(phase, n)?;
            if let Some(max) = inner.max_types {
                let distinct = distinct_types();
                if distinct > max {
                    return Err(trip(GovernError::MemBudgetExceeded {
                        phase,
                        nodes: n,
                        elapsed_ms: inner.elapsed_ms(),
                        distinct_types: distinct,
                        max_types: max,
                    }));
                }
            }
        }
        Ok(())
    }

    /// Unconditional slow check (deadline + cancellation), without counting
    /// a node. For coarse boundaries — per lasso, per chase round, per
    /// stabilization rebuild — where a full stride may never accumulate.
    pub fn check(&self, phase: &'static str) -> Result<(), GovernError> {
        match self.inner.as_deref() {
            None => Ok(()),
            Some(inner) => inner.slow_check(phase, inner.nodes.load(Ordering::Relaxed)),
        }
    }
}

/// Emits the `govern.tripped` trace event and bumps the global counters
/// (one total, one per phase) before handing the error back.
fn trip(e: GovernError) -> GovernError {
    rega_obs::event!(
        "govern.tripped",
        kind = e.kind(),
        phase = e.phase(),
        nodes = e.nodes(),
        elapsed_ms = e.elapsed_ms(),
    );
    let registry = rega_obs::global();
    registry.counter("govern.tripped").inc();
    registry
        .counter(&format!("govern.tripped.{}", e.phase()))
        .inc();
    e
}

/// A governed construction hit one of its limits. Every variant carries
/// partial-progress diagnostics: the phase that tripped, nodes expanded so
/// far across the budget, and elapsed wall-clock time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GovernError {
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// Construction phase that observed the trip.
        phase: &'static str,
        /// Nodes expanded across the budget when it tripped.
        nodes: u64,
        /// Wall-clock milliseconds since the budget started.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds.
        deadline_ms: u64,
    },
    /// The expansion-count ceiling was reached (enforced exactly).
    NodeBudgetExceeded {
        /// Construction phase that observed the trip.
        phase: &'static str,
        /// Nodes expanded across the budget when it tripped.
        nodes: u64,
        /// Wall-clock milliseconds since the budget started.
        elapsed_ms: u64,
        /// The configured node ceiling.
        max_nodes: u64,
    },
    /// The distinct-interned-type ceiling was crossed.
    MemBudgetExceeded {
        /// Construction phase that observed the trip.
        phase: &'static str,
        /// Nodes expanded across the budget when it tripped.
        nodes: u64,
        /// Wall-clock milliseconds since the budget started.
        elapsed_ms: u64,
        /// Distinct σ-types interned when the check ran.
        distinct_types: usize,
        /// The configured ceiling on distinct interned types.
        max_types: usize,
    },
    /// The cancellation token was flipped.
    Cancelled {
        /// Construction phase that observed the trip.
        phase: &'static str,
        /// Nodes expanded across the budget when it tripped.
        nodes: u64,
        /// Wall-clock milliseconds since the budget started.
        elapsed_ms: u64,
    },
}

impl GovernError {
    /// Short machine-readable discriminant (`deadline`, `nodes`, `mem`,
    /// `cancelled`) — used as the `kind` field of structured CLI errors and
    /// the `govern.tripped` trace event.
    pub fn kind(&self) -> &'static str {
        match self {
            GovernError::DeadlineExceeded { .. } => "deadline",
            GovernError::NodeBudgetExceeded { .. } => "nodes",
            GovernError::MemBudgetExceeded { .. } => "mem",
            GovernError::Cancelled { .. } => "cancelled",
        }
    }

    /// The construction phase that observed the trip.
    pub fn phase(&self) -> &'static str {
        match self {
            GovernError::DeadlineExceeded { phase, .. }
            | GovernError::NodeBudgetExceeded { phase, .. }
            | GovernError::MemBudgetExceeded { phase, .. }
            | GovernError::Cancelled { phase, .. } => phase,
        }
    }

    /// Nodes expanded across the budget when it tripped.
    pub fn nodes(&self) -> u64 {
        match self {
            GovernError::DeadlineExceeded { nodes, .. }
            | GovernError::NodeBudgetExceeded { nodes, .. }
            | GovernError::MemBudgetExceeded { nodes, .. }
            | GovernError::Cancelled { nodes, .. } => *nodes,
        }
    }

    /// Wall-clock milliseconds since the budget started.
    pub fn elapsed_ms(&self) -> u64 {
        match self {
            GovernError::DeadlineExceeded { elapsed_ms, .. }
            | GovernError::NodeBudgetExceeded { elapsed_ms, .. }
            | GovernError::MemBudgetExceeded { elapsed_ms, .. }
            | GovernError::Cancelled { elapsed_ms, .. } => *elapsed_ms,
        }
    }
}

impl fmt::Display for GovernError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernError::DeadlineExceeded {
                phase,
                nodes,
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline of {deadline_ms} ms exceeded in `{phase}` \
                 ({nodes} nodes expanded in {elapsed_ms} ms)"
            ),
            GovernError::NodeBudgetExceeded {
                phase,
                nodes,
                elapsed_ms,
                max_nodes,
            } => write!(
                f,
                "node budget of {max_nodes} exceeded in `{phase}` \
                 ({nodes} nodes expanded in {elapsed_ms} ms)"
            ),
            GovernError::MemBudgetExceeded {
                phase,
                nodes,
                elapsed_ms,
                distinct_types,
                max_types,
            } => write!(
                f,
                "interned-type budget of {max_types} exceeded in `{phase}` \
                 ({distinct_types} distinct types, {nodes} nodes expanded in {elapsed_ms} ms)"
            ),
            GovernError::Cancelled {
                phase,
                nodes,
                elapsed_ms,
            } => write!(
                f,
                "cancelled in `{phase}` ({nodes} nodes expanded in {elapsed_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for GovernError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_obs::ManualClock;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10 * STRIDE {
            b.tick("test").unwrap();
        }
        assert!(b.is_unlimited());
        assert_eq!(b.nodes(), 0);
        // A disconnected token: cancelling is a no-op.
        b.cancel_token().cancel();
        b.check("test").unwrap();
    }

    #[test]
    fn node_ceiling_is_exact() {
        let b = Budget::start(&BudgetSpec {
            max_nodes: Some(10),
            ..BudgetSpec::default()
        });
        for _ in 0..10 {
            b.tick("test").unwrap();
        }
        let err = b.tick("test").unwrap_err();
        assert_eq!(
            err,
            GovernError::NodeBudgetExceeded {
                phase: "test",
                nodes: 11,
                elapsed_ms: err.elapsed_ms(),
                max_nodes: 10,
            }
        );
    }

    #[test]
    fn deadline_observed_within_one_stride() {
        let clock = Arc::new(ManualClock::new());
        let b = Budget::start_with_clock(
            &BudgetSpec {
                deadline_ms: Some(5),
                ..BudgetSpec::default()
            },
            clock.clone(),
        );
        // Before the deadline: a full stride of ticks passes.
        for _ in 0..STRIDE {
            b.tick("test").unwrap();
        }
        clock.advance(6_000_000);
        let err = (0..STRIDE)
            .find_map(|_| b.tick("test").err())
            .expect("deadline must trip within one stride");
        assert_eq!(err.kind(), "deadline");
        assert_eq!(err.phase(), "test");
        assert!(err.elapsed_ms() >= 6);
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = Budget::start(&BudgetSpec::none());
        let clone = b.clone();
        b.cancel_token().cancel();
        assert!(clone.cancel_token().is_cancelled());
        let err = clone.check("test").unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        // And the amortized path sees it too.
        let err = (0..STRIDE)
            .find_map(|_| b.tick("test").err())
            .expect("cancellation must trip within one stride");
        assert_eq!(err.kind(), "cancelled");
    }

    #[test]
    fn mem_ceiling_checked_on_stride() {
        let b = Budget::start(&BudgetSpec {
            max_types: Some(3),
            ..BudgetSpec::default()
        });
        let mut evaluated = 0u32;
        for _ in 0..STRIDE - 1 {
            b.tick_mem("test", || {
                evaluated += 1;
                100
            })
            .unwrap();
        }
        assert_eq!(evaluated, 0, "closure must stay off the fast path");
        let err = b
            .tick_mem("test", || {
                evaluated += 1;
                100
            })
            .unwrap_err();
        assert_eq!(evaluated, 1);
        assert_eq!(err.kind(), "mem");
    }

    #[test]
    fn tightened_takes_the_stricter_of_each_limit() {
        let server = BudgetSpec {
            deadline_ms: Some(1_000),
            max_nodes: None,
            max_types: Some(10_000),
        };
        let tenant = BudgetSpec {
            deadline_ms: Some(250),
            max_nodes: Some(50_000),
            max_types: Some(1_000_000), // cannot loosen the server's ceiling
        };
        let got = server.tightened(&tenant);
        assert_eq!(
            got,
            BudgetSpec {
                deadline_ms: Some(250),
                max_nodes: Some(50_000),
                max_types: Some(10_000),
            }
        );
        // Commutative, and `none` is the identity.
        assert_eq!(got, tenant.tightened(&server));
        assert_eq!(server.tightened(&BudgetSpec::none()), server);
        assert_eq!(BudgetSpec::none().tightened(&server), server);
    }

    #[test]
    fn leaked_flag_aliases_the_token() {
        let token = CancelToken::new();
        let flag = token.leaked_flag();
        assert!(!token.is_cancelled());
        flag.store(true, Ordering::SeqCst);
        assert!(token.is_cancelled());
    }
}
