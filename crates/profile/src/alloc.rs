//! Allocation accounting: a counting `#[global_allocator]` wrapper that
//! tags allocation counts and bytes to the active profiling scope.
//!
//! This module is the workspace's **sole sanctioned global-allocator
//! site** (the audit's `alloc-confined` rule denies `global_allocator`
//! everywhere else). The wrapper forwards every call to
//! [`std::alloc::System`] and, when the calling thread is inside an
//! [`AllocScope`], charges the allocation to that scope's slot in a
//! fixed atomic table — no locks and no allocation on the hook path,
//! so the accounting can never recurse or stall a frame.
//!
//! Installation is feature-gated (`global-alloc`) and intended for
//! bins and test harnesses only: `augur-bench` turns it on, libraries
//! never do, so embedding `augur-profile` does not hijack the host
//! binary's allocator. Code using the API works either way —
//! [`counting_enabled`] reports whether counts are live, and every
//! accessor degrades to zeros when the wrapper is not installed.
//!
//! Allocation *counts* are not covered by the byte-identical
//! determinism guarantee the modeled-time profiles carry (the standard
//! library may allocate differently across runs); treat them as
//! diagnostics, not gate inputs.

// The GlobalAlloc contract is inherently unsafe; this file is the one
// audited place in the workspace allowed to implement it.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use augur_telemetry::Registry;
use parking_lot::Mutex;

/// Fixed number of scope slots; registration beyond this folds into the
/// last ("overflow") slot so accounting never fails.
const MAX_SCOPES: usize = 256;

/// Sentinel: the thread is not inside any [`AllocScope`].
const NO_SCOPE: u32 = u32::MAX;

/// Slot of last resort once the table is full.
const OVERFLOW_SLOT: usize = MAX_SCOPES - 1;

static ALLOC_COUNTS: [AtomicU64; MAX_SCOPES] = [const { AtomicU64::new(0) }; MAX_SCOPES];
static ALLOC_BYTES: [AtomicU64; MAX_SCOPES] = [const { AtomicU64::new(0) }; MAX_SCOPES];

/// Registered scope names, index-aligned with the atomic tables.
/// Locked only on registration and snapshot paths, never in the hook.
static SCOPE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// The scope active on this thread (`NO_SCOPE` outside any guard).
    /// Const-initialized `Cell` — reading it never allocates, which
    /// keeps the allocator hook reentrancy-free.
    static CURRENT_SCOPE: Cell<u32> = const { Cell::new(NO_SCOPE) };
}

/// True when the counting allocator is compiled in as the global
/// allocator (feature `global-alloc`), i.e. when scope counters
/// actually advance.
pub fn counting_enabled() -> bool {
    cfg!(feature = "global-alloc")
}

/// A registered allocation scope; obtain via [`register_scope`] and
/// activate with [`AllocScope::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(u32);

/// Registers (or looks up) the scope named `name`. Idempotent: the
/// same name always maps to the same slot. Once [`MAX_SCOPES`] names
/// exist, further names share the overflow slot.
pub fn register_scope(name: &str) -> ScopeId {
    let mut names = SCOPE_NAMES.lock();
    if let Some(pos) = names.iter().position(|n| n == name) {
        return ScopeId(pos as u32);
    }
    if names.len() >= OVERFLOW_SLOT {
        while names.len() < MAX_SCOPES {
            names.push(String::from("(overflow)"));
        }
        return ScopeId(OVERFLOW_SLOT as u32);
    }
    names.push(name.to_string());
    ScopeId((names.len() - 1) as u32)
}

/// RAII guard making `scope` the thread's active allocation scope;
/// restores the previous scope (supporting nesting — the scope *stack*
/// lives on the program stack) when dropped.
#[derive(Debug)]
pub struct AllocScope {
    prev: u32,
}

impl AllocScope {
    /// Enters `scope` on the current thread.
    pub fn enter(scope: ScopeId) -> AllocScope {
        let prev = CURRENT_SCOPE
            .try_with(|c| {
                let prev = c.get();
                c.set(scope.0);
                prev
            })
            .unwrap_or(NO_SCOPE);
        AllocScope { prev }
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        let _ = CURRENT_SCOPE.try_with(|c| c.set(self.prev));
    }
}

/// One scope's allocation activity over a snapshot interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStat {
    /// Scope name as registered.
    pub name: String,
    /// Allocations (alloc + realloc + alloc_zeroed calls) charged.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// A point-in-time capture of every scope's cumulative counters; use
/// [`AllocSnapshot::delta`] to get per-scope activity since capture.
#[derive(Debug, Clone)]
pub struct AllocSnapshot {
    counts: Vec<u64>,
    bytes: Vec<u64>,
}

impl AllocSnapshot {
    /// Captures the current cumulative counters.
    pub fn capture() -> AllocSnapshot {
        AllocSnapshot {
            counts: ALLOC_COUNTS
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            bytes: ALLOC_BYTES
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Per-scope activity between this capture and now, in scope
    /// registration order; scopes with no activity are omitted. Empty
    /// when the counting allocator is not installed.
    pub fn delta(&self) -> Vec<ScopeStat> {
        let names = SCOPE_NAMES.lock();
        let mut out = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let count = ALLOC_COUNTS
                .get(i)
                .map_or(0, |c| c.load(Ordering::Relaxed))
                .saturating_sub(self.counts.get(i).copied().unwrap_or(0));
            let bytes = ALLOC_BYTES
                .get(i)
                .map_or(0, |c| c.load(Ordering::Relaxed))
                .saturating_sub(self.bytes.get(i).copied().unwrap_or(0));
            if count > 0 || bytes > 0 {
                out.push(ScopeStat {
                    name: name.clone(),
                    count,
                    bytes,
                });
            }
        }
        out
    }
}

/// Exports per-scope allocation stats as registry counters
/// `profile_alloc_total{scope=...}` / `profile_alloc_bytes_total{scope=...}`,
/// so allocation activity rides the same snapshot/rollup machinery as
/// every other metric.
pub fn export_alloc_to_registry(stats: &[ScopeStat], registry: &Registry) {
    for s in stats {
        registry
            .counter_labeled("profile_alloc_total", &[("scope", &s.name)])
            .add(s.count);
        registry
            .counter_labeled("profile_alloc_bytes_total", &[("scope", &s.name)])
            .add(s.bytes);
    }
}

/// Allocation accounting for one profiled run: charges the thread's
/// allocations to a named top-level scope until finished, then reports
/// that scope's activity plus that of its `<scope>/…` stage scopes.
#[derive(Debug)]
pub struct AllocCapture {
    scope: String,
    snapshot: AllocSnapshot,
    guard: AllocScope,
}

impl AllocCapture {
    /// Enters the scope named `scope` on the current thread and captures
    /// the counters it will be diffed against.
    pub fn enter(scope: &str) -> AllocCapture {
        let id = register_scope(scope);
        let snapshot = AllocSnapshot::capture();
        AllocCapture {
            scope: scope.to_string(),
            snapshot,
            guard: AllocScope::enter(id),
        }
    }

    /// Leaves the scope and returns the activity of it and its stage
    /// scopes since [`AllocCapture::enter`], also exported into
    /// `registry` (see [`export_alloc_to_registry`]). Attach the stats to
    /// the run's profile with `Profile::attach_alloc`.
    pub fn finish(self, registry: &Registry) -> Vec<ScopeStat> {
        drop(self.guard);
        let prefix = format!("{}/", self.scope);
        let stats: Vec<ScopeStat> = self
            .snapshot
            .delta()
            .into_iter()
            .filter(|s| s.name == self.scope || s.name.starts_with(&prefix))
            .collect();
        export_alloc_to_registry(&stats, registry);
        stats
    }
}

/// Charges one allocation of `size` bytes to the thread's active scope
/// (no-op outside a scope). Atomic adds only — safe inside the
/// allocator hook.
fn record_alloc(size: usize) {
    let scope = CURRENT_SCOPE.try_with(Cell::get).unwrap_or(NO_SCOPE);
    if scope == NO_SCOPE {
        return;
    }
    let slot = (scope as usize).min(OVERFLOW_SLOT);
    if let Some(c) = ALLOC_COUNTS.get(slot) {
        c.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(b) = ALLOC_BYTES.get(slot) {
        b.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// The counting allocator: forwards to [`std::alloc::System`], charging
/// scoped allocations along the way. Install with the `global-alloc`
/// feature; see the module docs for the confinement policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds
// the GlobalAlloc contract; the accounting side effects touch only
// atomics and a const-initialized thread-local (no allocation, no
// locks), so the hooks are reentrancy- and signal-safe to the same
// degree as `System` itself.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        record_alloc(layout.size());
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        record_alloc(layout.size());
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        record_alloc(new_size);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

/// The installed global allocator (bins/tests that enable the
/// `global-alloc` feature link this in; everything else keeps the
/// default system allocator).
#[cfg(feature = "global-alloc")]
#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let a = register_scope("alloc-test/idempotent");
        let b = register_scope("alloc-test/idempotent");
        assert_eq!(a, b);
    }

    #[test]
    fn scope_guard_nests_and_restores() {
        let outer = register_scope("alloc-test/outer");
        let inner = register_scope("alloc-test/inner");
        let before = CURRENT_SCOPE.with(Cell::get);
        {
            let _o = AllocScope::enter(outer);
            assert_eq!(CURRENT_SCOPE.with(Cell::get), outer.0);
            {
                let _i = AllocScope::enter(inner);
                assert_eq!(CURRENT_SCOPE.with(Cell::get), inner.0);
            }
            assert_eq!(CURRENT_SCOPE.with(Cell::get), outer.0);
        }
        assert_eq!(CURRENT_SCOPE.with(Cell::get), before);
    }

    #[test]
    fn scoped_allocations_are_charged_when_installed() {
        let scope = register_scope("alloc-test/charged");
        let snap = AllocSnapshot::capture();
        {
            let _guard = AllocScope::enter(scope);
            let v: Vec<u64> = (0..512).collect();
            std::hint::black_box(&v);
        }
        let delta = snap.delta();
        let mine = delta.iter().find(|s| s.name == "alloc-test/charged");
        if counting_enabled() {
            let stat = mine.unwrap_or_else(|| unreachable!("scope missing from delta"));
            assert!(stat.count >= 1);
            assert!(stat.bytes >= 512 * 8);
        } else {
            assert!(mine.is_none(), "no counts without the global allocator");
        }
    }

    #[test]
    fn unscoped_allocations_are_never_charged() {
        let snap = AllocSnapshot::capture();
        let v: Vec<u64> = (0..1024).collect();
        std::hint::black_box(&v);
        // Other tests run concurrently in their own scopes on their own
        // threads; this thread held no scope, so nothing new may be
        // charged to a scope this test registered.
        let _ = register_scope("alloc-test/unscoped");
        assert!(snap.delta().iter().all(|s| s.name != "alloc-test/unscoped"));
    }

    #[test]
    fn export_writes_labeled_counters() {
        let registry = Registry::new();
        export_alloc_to_registry(
            &[ScopeStat {
                name: "scope-x".to_string(),
                count: 3,
                bytes: 96,
            }],
            &registry,
        );
        assert_eq!(
            registry
                .counter_labeled("profile_alloc_total", &[("scope", "scope-x")])
                .get(),
            3
        );
        assert_eq!(
            registry
                .counter_labeled("profile_alloc_bytes_total", &[("scope", "scope-x")])
                .get(),
            96
        );
    }
}
