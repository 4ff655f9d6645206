//! Pluggable time sources.
//!
//! Every instrumented component reads time through [`TimeSource`] instead
//! of calling `std::time::Instant::now()` directly. Simulation code plugs
//! in a [`ManualTime`] advanced by the simulated clock (or by modeled work
//! units), keeping runs bit-for-bit deterministic; bench binaries plug in
//! a [`MonotonicTime`]. `augur-audit` enforces the discipline: raw
//! `Instant::now()` in an instrumented library crate fails the audit —
//! this module is the single sanctioned wall-clock read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotone clock expressed in integer nanoseconds since an arbitrary
/// origin.
///
/// Implementations must be cheap (called on metric hot paths) and
/// thread-safe. `now_micros` is derived and need not be overridden.
pub trait TimeSource: Send + Sync {
    /// Nanoseconds since the source's origin.
    fn now_nanos(&self) -> u64;

    /// Microseconds since the source's origin (derived).
    fn now_micros(&self) -> u64 {
        self.now_nanos() / 1_000
    }
}

/// A shared, dynamically dispatched time source handle.
pub type Clock = Arc<dyn TimeSource>;

/// A manually advanced time source for deterministic runs.
///
/// Simulation code advances it from event time or from modeled work units
/// (the convention used by the scenario spans: one work unit ≙ one
/// microsecond of modeled latency). All methods take `&self` so a single
/// `Arc<ManualTime>` can be shared between the driver and any number of
/// [`crate::Tracer`]s.
///
/// # Example
///
/// ```
/// use augur_telemetry::{ManualTime, TimeSource};
///
/// let t = ManualTime::new();
/// t.advance_micros(250);
/// assert_eq!(t.now_micros(), 250);
/// ```
#[derive(Debug, Default)]
pub struct ManualTime {
    nanos: AtomicU64,
}

impl ManualTime {
    /// A manual clock at origin zero.
    pub fn new() -> Self {
        ManualTime {
            nanos: AtomicU64::new(0),
        }
    }

    /// A shared handle to a fresh manual clock.
    pub fn shared() -> Arc<ManualTime> {
        Arc::new(ManualTime::new())
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance_nanos(&self, ns: u64) {
        self.nanos.fetch_add(ns, Ordering::Relaxed);
    }

    /// Advances the clock by `us` microseconds (saturating at `u64::MAX` ns).
    pub fn advance_micros(&self, us: u64) {
        self.advance_nanos(us.saturating_mul(1_000));
    }
}

impl TimeSource for ManualTime {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// The real monotonic clock, for bench binaries and live deployments.
///
/// This is the only place in the instrumented workspace that reads
/// `std::time::Instant` (see the module docs).
#[derive(Debug, Clone)]
pub struct MonotonicTime {
    origin: Instant,
}

impl MonotonicTime {
    /// A monotonic source with its origin at the moment of construction.
    pub fn new() -> Self {
        MonotonicTime {
            origin: Instant::now(),
        }
    }

    /// A shared handle to a fresh monotonic source.
    pub fn shared() -> Arc<MonotonicTime> {
        Arc::new(MonotonicTime::new())
    }
}

impl Default for MonotonicTime {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for MonotonicTime {
    fn now_nanos(&self) -> u64 {
        let n = self.origin.elapsed().as_nanos();
        u64::try_from(n).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_time_advances() {
        let t = ManualTime::new();
        assert_eq!(t.now_nanos(), 0);
        t.advance_nanos(500);
        assert_eq!(t.now_nanos(), 500);
        t.advance_micros(2);
        assert_eq!(t.now_micros(), 2); // 2_500 ns
    }

    #[test]
    fn monotonic_time_is_monotone() {
        let t = MonotonicTime::new();
        let a = t.now_nanos();
        let b = t.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn clock_handle_is_object_safe() {
        let c: Clock = ManualTime::shared();
        c.now_nanos();
        let m: Clock = MonotonicTime::shared();
        let _ = m.now_micros();
    }
}
