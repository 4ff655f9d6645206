//! Simulated time.
//!
//! All Augur components are driven by explicit timestamps rather than the
//! wall clock, which keeps every experiment deterministic and lets the
//! stream substrate implement *event time* semantics (the paper's
//! "Velocity" dimension) independent of processing speed.

/// Microseconds since the simulation epoch.
///
/// A newtype (C-NEWTYPE) so event time cannot be confused with counts or
/// durations in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The simulation epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from microseconds since the epoch.
    pub fn from_micros(us: u64) -> Self {
        Timestamp(us)
    }

    /// Creates a timestamp from milliseconds since the epoch.
    pub fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000)
    }

    /// Creates a timestamp from whole seconds since the epoch.
    pub fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Creates a timestamp from fractional seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "timestamp seconds must be >= 0");
        Timestamp((s * 1e6).round() as u64)
    }

    /// Microseconds since the epoch.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This timestamp advanced by a duration.
    pub fn advanced(&self, by: std::time::Duration) -> Timestamp {
        Timestamp(self.0 + by.as_micros() as u64)
    }

    /// Saturating difference `self - earlier`.
    pub fn since(&self, earlier: Timestamp) -> std::time::Duration {
        std::time::Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl std::ops::Add<std::time::Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: std::time::Duration) -> Timestamp {
        self.advanced(rhs)
    }
}

impl std::ops::Sub<Timestamp> for Timestamp {
    type Output = std::time::Duration;
    fn sub(self, rhs: Timestamp) -> std::time::Duration {
        self.since(rhs)
    }
}

/// A manually advanced simulation clock.
///
/// # Example
///
/// ```
/// use augur_sensor::SimClock;
/// use std::time::Duration;
///
/// let mut clock = SimClock::new();
/// clock.advance(Duration::from_millis(33));
/// assert_eq!(clock.now().as_millis(), 33);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimClock {
    now: Timestamp,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        SimClock {
            now: Timestamp::ZERO,
        }
    }

    /// A clock starting at `at`.
    pub fn starting_at(at: Timestamp) -> Self {
        SimClock { now: at }
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advances the clock by `dt`.
    pub fn advance(&mut self, dt: std::time::Duration) {
        self.now = self.now.advanced(dt);
    }

    /// Advances the clock to `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — simulated time is
    /// monotone.
    pub fn advance_to(&mut self, at: Timestamp) {
        assert!(at >= self.now, "simulated time must be monotone");
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn conversions_round_trip() {
        let t = Timestamp::from_millis(1234);
        assert_eq!(t.as_micros(), 1_234_000);
        assert_eq!(t.as_millis(), 1234);
        assert!((t.as_secs_f64() - 1.234).abs() < 1e-12);
        assert_eq!(Timestamp::from_secs(2), Timestamp::from_millis(2000));
        assert_eq!(
            Timestamp::from_secs_f64(0.5),
            Timestamp::from_micros(500_000)
        );
    }

    #[test]
    #[should_panic(expected = "timestamp seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = Timestamp::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        let u = t + Duration::from_secs(5);
        assert_eq!(u, Timestamp::from_secs(15));
        assert_eq!(u - t, Duration::from_secs(5));
        // Saturating difference.
        assert_eq!(t - u, Duration::ZERO);
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new();
        c.advance(Duration::from_millis(10));
        c.advance_to(Timestamp::from_millis(20));
        assert_eq!(c.now().as_millis(), 20);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn clock_rejects_rewind() {
        let mut c = SimClock::starting_at(Timestamp::from_secs(5));
        c.advance_to(Timestamp::from_secs(4));
    }

    #[test]
    fn display_format() {
        assert_eq!(Timestamp::from_millis(1500).to_string(), "t+1.500000s");
    }
}
