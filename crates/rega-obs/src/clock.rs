//! Injectable time sources, shared by the tracer, the budget deadlines,
//! the streaming engine and the cluster transports.
//!
//! Nothing that measures or spends time reads `Instant::now()` directly:
//! it goes through an [`ObsClock`]. Production code uses the monotonic
//! [`MonotonicClock`]; deterministic tests and simulations use a
//! [`ManualClock`], whose time only moves when it is advanced, which makes
//! traces, latency histograms and whole metrics snapshots bit-for-bit
//! reproducible per seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic nanosecond time source that can also "spend" time.
pub trait ObsClock: Send + Sync {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;

    /// Spends `ns` nanoseconds: real clocks sleep the calling thread,
    /// manual clocks advance their counter. Used by fault-injected stalls,
    /// retry loops and polling waits.
    fn stall(&self, ns: u64);
}

/// The real wall clock, anchored at construction time.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsClock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn stall(&self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// A manually advanced clock: time is a counter that moves only via
/// [`advance`](ManualClock::advance) (or [`ObsClock::stall`]).
/// Deterministic by construction.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: AtomicU64,
}

impl ManualClock {
    /// A clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `ns` (a simulation resumed from a snapshot).
    pub fn at(ns: u64) -> Self {
        ManualClock {
            now_ns: AtomicU64::new(ns),
        }
    }

    /// Moves time forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl ObsClock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    fn stall(&self, ns: u64) {
        self.advance(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulation clock: a [`ManualClock`].
    #[test]
    fn sim_clock_moves_only_when_advanced() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(25);
        c.stall(17);
        assert_eq!(c.now_ns(), 42);
        assert_eq!(ManualClock::at(42).now_ns(), 42);
    }

    /// The system clock: a [`MonotonicClock`].
    #[test]
    fn system_clock_is_monotonic() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
