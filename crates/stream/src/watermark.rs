//! Event-time watermarks.
//!
//! A watermark `W(t)` asserts that no further records with event time
//! ≤ `t` are expected. Windows fire when the watermark passes their end,
//! which is how the engine trades completeness against the AR latency
//! budget: a larger out-of-orderness bound waits longer but drops less.

/// A watermark value (event time in microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Watermark(pub u64);

impl std::fmt::Display for Watermark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "W({})", self.0)
    }
}

/// Generates watermarks from observed event times.
pub trait WatermarkGenerator {
    /// Observes a record's event time; returns the new watermark if it
    /// advanced.
    fn observe(&mut self, event_time_us: u64) -> Option<Watermark>;

    /// The current watermark.
    fn current(&self) -> Watermark;
}

/// The standard bounded-out-of-orderness generator: watermark trails the
/// maximum observed event time by a fixed bound.
///
/// # Example
///
/// ```
/// use augur_stream::{BoundedOutOfOrderness, WatermarkGenerator};
/// let mut wm = BoundedOutOfOrderness::new(1_000);
/// wm.observe(5_000);
/// assert_eq!(wm.current().0, 4_000);
/// // A late record does not regress the watermark.
/// wm.observe(3_000);
/// assert_eq!(wm.current().0, 4_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedOutOfOrderness {
    bound_us: u64,
    max_seen_us: u64,
}

impl BoundedOutOfOrderness {
    /// Creates a generator trailing the max event time by `bound_us`.
    pub fn new(bound_us: u64) -> Self {
        BoundedOutOfOrderness {
            bound_us,
            max_seen_us: 0,
        }
    }

    /// The configured lateness bound in microseconds.
    pub fn bound_us(&self) -> u64 {
        self.bound_us
    }
}

impl WatermarkGenerator for BoundedOutOfOrderness {
    fn observe(&mut self, event_time_us: u64) -> Option<Watermark> {
        if event_time_us > self.max_seen_us {
            self.max_seen_us = event_time_us;
            Some(self.current())
        } else {
            None
        }
    }

    fn current(&self) -> Watermark {
        Watermark(self.max_seen_us.saturating_sub(self.bound_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_trails_max_by_bound() {
        let mut g = BoundedOutOfOrderness::new(500);
        assert_eq!(g.current(), Watermark(0));
        assert_eq!(g.observe(1_000), Some(Watermark(500)));
        assert_eq!(g.observe(2_000), Some(Watermark(1_500)));
    }

    #[test]
    fn late_records_do_not_regress() {
        let mut g = BoundedOutOfOrderness::new(100);
        g.observe(10_000);
        assert_eq!(g.observe(5_000), None);
        assert_eq!(g.current(), Watermark(9_900));
    }

    #[test]
    fn saturates_at_zero() {
        let mut g = BoundedOutOfOrderness::new(1_000_000);
        g.observe(10);
        assert_eq!(g.current(), Watermark(0));
    }

    #[test]
    fn zero_bound_tracks_max_exactly() {
        let mut g = BoundedOutOfOrderness::new(0);
        g.observe(42);
        assert_eq!(g.current(), Watermark(42));
    }
}
