//! Causal trace context: the identity a unit of work carries across
//! layer boundaries.
//!
//! A [`TraceContext`] names one causal chain (`trace_id`), the current
//! position in it (`span_id`), and the position it descends from
//! (`parent_span_id`). The stream layer attaches a context to each
//! [`Record`](https://docs.rs/), the pipeline forwards it through its
//! stages, and the cloud/store layers derive children for offload tasks
//! and flush/compaction work — so a slow frame can be walked back to the
//! exact stage, record, or offload decision that caused it.
//!
//! **Determinism.** Ids are *derived*, never drawn from entropy: a root
//! context is a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! finalizer over `(seed, key)` and every child id mixes the parent's
//! `span_id` with a caller-supplied salt. Two runs with the same seed and
//! the same record keys produce bit-for-bit identical traces under
//! [`ManualTime`](crate::ManualTime) — the property `tests/trace_causality.rs`
//! asserts at the workspace level.
//!
//! # Example
//!
//! ```
//! use augur_telemetry::TraceContext;
//!
//! let root = TraceContext::root(42, 7);
//! let child = root.child_named("pipeline/transform");
//! assert_eq!(child.trace_id, root.trace_id);
//! assert_eq!(child.parent_span_id, root.span_id);
//! // Same inputs, same ids: derivation is pure.
//! assert_eq!(TraceContext::root(42, 7), root);
//! ```

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixing function.
/// Used for id derivation only — this is not a cryptographic hash.
/// Public so downstream deterministic policies (the `sample`
/// head-sampling verdict and reservoir keys) hash with the exact same
/// mix as trace-id derivation.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a over `bytes`: the workspace's one stable string and
/// key hash (child-span salts, registry shards, partition routing,
/// scenario and bench trace roots). Unlike `DefaultHasher` it is fixed
/// across runs and platforms, so the ids it feeds are reproducible.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over a name, used to salt child-span derivation so siblings
/// with different stage names get distinct span ids.
fn name_salt(name: &str) -> u64 {
    fnv1a64(name.as_bytes())
}

/// Span id 0 is reserved to mean "no parent" (a root); derived ids are
/// nudged off zero so the reservation is unambiguous.
fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

/// The causal identity carried by a unit of work. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identity of the whole causal chain (stable across all descendants).
    pub trace_id: u64,
    /// Identity of the current span within the chain (never 0).
    pub span_id: u64,
    /// The span this one descends from; 0 for a root.
    pub parent_span_id: u64,
    /// Whether downstream layers should record events for this chain.
    /// Unsampled contexts still propagate ids (so a child created later
    /// stays causally linked) but recorders skip them.
    pub sampled: bool,
}

impl TraceContext {
    /// A root context derived deterministically from a run `seed` and a
    /// work `key` (record key, frame index, task ordinal). Same inputs,
    /// same ids.
    pub fn root(seed: u64, key: u64) -> TraceContext {
        let trace_id = nonzero(mix64(seed ^ mix64(key)));
        TraceContext {
            trace_id,
            span_id: nonzero(mix64(trace_id)),
            parent_span_id: 0,
            sampled: true,
        }
    }

    /// A child of `self` salted by an arbitrary `salt` (use a stage
    /// ordinal or an interned name id when the name string is not at
    /// hand). Derivation is pure: same parent + salt, same child.
    pub fn child(&self, salt: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: nonzero(mix64(self.span_id ^ mix64(salt))),
            parent_span_id: self.span_id,
            sampled: self.sampled,
        }
    }

    /// A child of `self` salted by a stage name.
    pub fn child_named(&self, name: &str) -> TraceContext {
        self.child(name_salt(name))
    }

    /// A copy with sampling turned off (ids keep propagating; recorders
    /// skip the events).
    pub fn unsampled(self) -> TraceContext {
        TraceContext {
            sampled: false,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_derivation_is_deterministic_and_distinct() {
        let a = TraceContext::root(1, 1);
        assert_eq!(a, TraceContext::root(1, 1));
        assert_ne!(a.trace_id, TraceContext::root(1, 2).trace_id);
        assert_ne!(a.trace_id, TraceContext::root(2, 1).trace_id);
        assert_eq!(a.parent_span_id, 0);
        assert!(a.sampled);
        assert_ne!(a.span_id, 0);
    }

    #[test]
    fn children_stay_in_trace_and_link_to_parent() {
        let root = TraceContext::root(9, 9);
        let a = root.child_named("transform");
        let b = root.child_named("window");
        assert_eq!(a.trace_id, root.trace_id);
        assert_eq!(a.parent_span_id, root.span_id);
        assert_ne!(a.span_id, b.span_id, "sibling stages get distinct spans");
        let grand = a.child(3);
        assert_eq!(grand.parent_span_id, a.span_id);
        assert_eq!(grand.trace_id, root.trace_id);
    }

    #[test]
    fn sampling_propagates_to_children() {
        let root = TraceContext::root(5, 5).unsampled();
        assert!(!root.child(1).sampled);
        // Ids are unaffected by the sampling bit.
        assert_eq!(
            root.child(1).span_id,
            TraceContext::root(5, 5).child(1).span_id
        );
    }

    #[test]
    fn derived_ids_avoid_the_reserved_zero() {
        for seed in 0..64u64 {
            for key in 0..64u64 {
                let r = TraceContext::root(seed, key);
                assert_ne!(r.span_id, 0);
                assert_ne!(r.child(key).span_id, 0);
            }
        }
    }
}
