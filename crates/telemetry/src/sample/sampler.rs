//! Deterministic head sampling: keep 1 trace in N, decided per trace id.
//!
//! The verdict is a pure function of `(seed, trace_id)`: the SplitMix64
//! finalizer over `seed ^ mix64(trace_id)` reduced modulo the rate. No
//! state, no clock, no RNG stream — which is what makes the decision
//! identical on every lane and invariant under arbitrary interleavings
//! (the property `tests/verdict_purity.rs` and the workspace-level
//! `crates/xray/tests/lane_determinism.rs` pin).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::trace::{mix64, TraceContext};

/// A deterministic head-sampling policy: keep 1 trace in `rate`.
///
/// Clones share the admission counters, so one policy handed to many
/// worker lanes still reports a single admitted/rejected tally; the
/// verdict itself ([`Sampler::admits`]) is stateless and pure.
#[derive(Debug, Clone)]
pub struct Sampler {
    seed: u64,
    rate: u64,
    admitted: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
}

impl Sampler {
    /// A policy keeping 1 trace in `rate` under `seed`. `rate` 0 or 1
    /// keeps everything.
    pub fn new(seed: u64, rate: u64) -> Sampler {
        Sampler {
            seed,
            rate: rate.max(1),
            admitted: Arc::new(AtomicU64::new(0)),
            rejected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The configured 1-in-N rate (≥ 1).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// The expected kept fraction, `1/rate` — what the xray report
    /// carries as `effective_rate`.
    pub fn effective_rate(&self) -> f64 {
        1.0 / self.rate as f64
    }

    /// Whether head sampling is actually discarding anything.
    pub fn is_sampling(&self) -> bool {
        self.rate > 1
    }

    /// The pure verdict: whether the chain named by `trace_id` is kept.
    /// Same `(seed, trace_id)`, same answer — on any lane, in any order.
    pub fn admits(&self, trace_id: u64) -> bool {
        self.rate <= 1 || mix64(self.seed ^ mix64(trace_id)).is_multiple_of(self.rate)
    }

    /// Applies the verdict to `ctx`: returns the context with its
    /// `sampled` bit set to the verdict (an already-unsampled context
    /// stays unsampled), tallying the decision.
    pub fn apply(&self, ctx: TraceContext) -> TraceContext {
        let keep = ctx.sampled && self.admits(ctx.trace_id);
        if keep {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            ctx
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            ctx.unsampled()
        }
    }

    /// Contexts kept by [`Sampler::apply`] so far (shared by clones).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Contexts rejected by [`Sampler::apply`] so far (shared by clones).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The observed kept fraction over all [`Sampler::apply`] calls;
    /// falls back to the configured rate before any decision was made.
    pub fn observed_rate(&self) -> f64 {
        let kept = self.admitted();
        let total = kept + self.rejected();
        if total == 0 {
            self.effective_rate()
        } else {
            kept as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_is_pure_and_seed_dependent() {
        let a = Sampler::new(7, 8);
        let b = Sampler::new(7, 8);
        let other_seed = Sampler::new(8, 8);
        let mut diverged = false;
        for key in 0..512u64 {
            let id = TraceContext::root(7, key).trace_id;
            assert_eq!(a.admits(id), b.admits(id), "same policy, same verdict");
            diverged |= a.admits(id) != other_seed.admits(id);
        }
        assert!(diverged, "a different seed must sample a different slice");
    }

    #[test]
    fn rate_one_keeps_everything_and_counts() {
        let s = Sampler::new(1, 1);
        for key in 0..64u64 {
            assert!(s.apply(TraceContext::root(1, key)).sampled);
        }
        assert_eq!(s.admitted(), 64);
        assert_eq!(s.rejected(), 0);
        assert_eq!(s.observed_rate(), 1.0);
        assert!(!s.is_sampling());
    }

    #[test]
    fn sampling_rate_lands_near_the_target() {
        let s = Sampler::new(42, 64);
        for key in 0..4096u64 {
            s.apply(TraceContext::root(42, key));
        }
        let kept = s.admitted();
        assert_eq!(kept + s.rejected(), 4096);
        // A well-mixed hash keeps ~64 of 4096; allow a generous band.
        assert!((16..=192).contains(&kept), "kept {kept} of 4096 at 1/64");
        assert!((s.effective_rate() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn apply_preserves_an_upstream_unsampled_bit() {
        let s = Sampler::new(3, 1);
        let ctx = TraceContext::root(3, 3).unsampled();
        assert!(!s.apply(ctx).sampled, "apply must not resurrect a trace");
        assert_eq!(s.admitted(), 0);
        assert_eq!(s.rejected(), 1);
    }

    #[test]
    fn clones_share_the_tallies() {
        let s = Sampler::new(9, 2);
        let t = s.clone();
        for key in 0..32u64 {
            let ctx = TraceContext::root(9, key);
            if key % 2 == 0 {
                s.apply(ctx);
            } else {
                t.apply(ctx);
            }
        }
        assert_eq!(s.admitted() + s.rejected(), 32);
        assert_eq!(s.admitted(), t.admitted());
    }
}
