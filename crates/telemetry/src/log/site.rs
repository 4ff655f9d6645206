//! Per-call-site token-bucket rate limiting.
//!
//! Every emit path passes through a [`LogSite`]: a token bucket whose
//! reference time is the caller's clock (microseconds), so under
//! [`ManualTime`](crate::ManualTime) suppression decisions are
//! a pure function of the modeled timeline — same seed, same set of
//! admitted records, which is what keeps the JSONL export byte-identical
//! across runs. Denied records are counted in [`LogSite::suppressed`],
//! never silently lost.

use std::sync::atomic::{AtomicU64, Ordering};

/// Reference time occupies the high 48 bits of the packed state word
/// (≈ 8.9 years of microseconds); tokens live in the low 16.
const TIME_BITS: u32 = 48;
const TOKEN_MASK: u64 = (1 << 16) - 1;
const TIME_MASK: u64 = (1 << TIME_BITS) - 1;

/// One rate-limited emission site.
///
/// The bucket holds up to `burst` tokens and refills at `per_sec`
/// tokens per second of clock time; each admitted record spends one.
/// Refill is whole-token granular: the reference time advances to `now`
/// whenever at least one token accrues, so sub-token remainders are
/// forfeited (documented slack, at most one token per refill).
#[derive(Debug)]
pub struct LogSite {
    /// `(last_refill_us << 16) | tokens`, advanced by CAS.
    state: AtomicU64,
    /// Bucket capacity; 0 marks an unlimited site (no bucket at all —
    /// `new` clamps real bursts to at least 1).
    burst: u64,
    /// Tokens per second; 0 means the bucket never refills.
    per_sec: u64,
    suppressed: AtomicU64,
}

impl LogSite {
    /// A site admitting bursts of up to `burst` records and a sustained
    /// `per_sec` records per second. `burst` clamps to `1..=65535`.
    pub fn new(burst: u32, per_sec: u32) -> LogSite {
        LogSite {
            state: AtomicU64::new(u64::from(burst).clamp(1, TOKEN_MASK)),
            burst: u64::from(burst).clamp(1, TOKEN_MASK),
            per_sec: u64::from(per_sec),
            suppressed: AtomicU64::new(0),
        }
    }

    /// A site that never suppresses (lifecycle events, run summaries).
    pub fn unlimited() -> LogSite {
        LogSite {
            state: AtomicU64::new(0),
            burst: 0,
            per_sec: 0,
            suppressed: AtomicU64::new(0),
        }
    }

    /// Records denied by the bucket so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Spends one token at clock time `now_us`; `false` means the record
    /// must be suppressed (and has been counted). Lock-free CAS loop.
    pub(crate) fn admit(&self, now_us: u64) -> bool {
        if self.burst == 0 {
            return true;
        }
        let now = now_us & TIME_MASK;
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            let mut tokens = cur & TOKEN_MASK;
            let mut last = cur >> 16;
            if now > last {
                let refill = (now - last) * self.per_sec / 1_000_000;
                if refill > 0 {
                    tokens = (tokens + refill).min(self.burst);
                    last = now;
                }
            }
            if tokens == 0 {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let next = (last << 16) | (tokens - 1);
            if self
                .state
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_suppression_then_refill() {
        let site = LogSite::new(3, 1_000); // 3-burst, 1 token per ms
        assert!(site.admit(0));
        assert!(site.admit(0));
        assert!(site.admit(0));
        assert!(!site.admit(0), "burst spent");
        assert!(!site.admit(500), "half a token accrued: still denied");
        assert_eq!(site.suppressed(), 2);
        assert!(site.admit(1_000), "one token refilled");
        assert!(!site.admit(1_000));
        assert!(site.admit(5_000), "idle time refills up to burst");
        assert!(site.admit(5_000));
        assert!(site.admit(5_000));
        assert!(!site.admit(5_000), "refill clamps at burst");
    }

    #[test]
    fn unlimited_site_never_suppresses() {
        let site = LogSite::unlimited();
        for i in 0..10_000u64 {
            assert!(site.admit(i % 7));
        }
        assert_eq!(site.suppressed(), 0);
    }

    #[test]
    fn admission_is_deterministic_under_a_replayed_timeline() {
        let timeline: Vec<u64> = (0..200).map(|i| i * 137 % 4_000).collect();
        let run = || {
            let site = LogSite::new(2, 2_000);
            timeline.iter().map(|&t| site.admit(t)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
