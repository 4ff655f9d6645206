//! `augur-audit`: in-repo static analysis enforcing workspace invariants.
//!
//! The platform's availability story (paper §4: an AR overlay must degrade
//! gracefully, never abort mid-frame) and its reproducibility story (ExpAR:
//! controlled, repeatable experimentation) are both *mechanical* properties —
//! so this crate checks them mechanically, with a small hand-rolled lexer
//! that needs no network or external parser. Invariants:
//!
//! 1. **Panic-freedom** — no `unwrap()` / `expect()` / `panic!`-family macros
//!    in non-test library code of the hot-path crates ([`scan::HOT_CRATES`]).
//! 2. **Lock discipline** — no `std::sync::{Mutex, RwLock}`; the workspace
//!    standard is `parking_lot` (non-poisoning).
//! 3. **Determinism** — no `SystemTime::now()` in library code, no
//!    entropy-seeded RNG anywhere, no `Instant::now()` in simulation paths
//!    ([`scan::SIM_PATHS`]).
//! 4. **Time-source discipline** — telemetry-instrumented crates
//!    ([`scan::TELEMETRY_CRATES`]) never call raw `Instant::now()`; time is
//!    read through `augur_telemetry::TimeSource`, so instrumentation runs
//!    deterministically under `ManualTime` and against the monotonic clock
//!    in benches. The single sanctioned wall-clock read is
//!    [`scan::TIME_SOURCE_EXEMPT`].
//! 5. **Documented exports** — every `pub` item in a crate root (`lib.rs`)
//!    carries a doc comment.
//!
//! On top of the per-file token rules sits a cross-file concurrency pass
//! (the [`scope`] symbol layer feeding [`concurrency`]) enforcing five
//! more invariants for the sharded dataflow engine (ROADMAP item 1):
//!
//! 6. **Deadlock freedom** — the workspace-wide lock-order graph
//!    (guard lifetimes + one call-index hop) must be acyclic
//!    (`lock-order-cycle`).
//! 7. **Non-blocking hot path** — no blocking calls in per-record crates,
//!    directly or one hop away (`no-blocking-hot-path`).
//! 8. **Channel discipline** — bounded channels only, with named
//!    capacities (`bounded-channels-only`).
//! 9. **Spawn confinement** — threads only in the sanctioned worker-pool
//!    modules (`spawn-confined`).
//! 10. **Atomics-ordering discipline** — `Ordering::Relaxed` only for
//!     counters in sanctioned modules or reviewed [`allow::Allowlist`]
//!     entries (`atomics-ordering`).
//!
//! Every deny finding fails the run. The one way to sanction a finding is
//! a reviewed `audit.allow` entry ([`allow::Allowlist`]), and an entry that permits no `Relaxed` site is
//! itself a deny finding, so the exceptions only ever shrink. Reports
//! export as SARIF 2.1.0 ([`sarif`]) for CI ingestion, and every rule code
//! is documented via `--explain` ([`explain`]).
//!
//! Run it three ways: `cargo run -p augur-audit` (CLI), the tier-1
//! integration test `tests/static_audit.rs` (keeps `cargo test` enforcing the
//! invariants forever), and `cargo run -p augur-audit -- --self-test` (the
//! analyzer checks itself against seeded violations).

/// The reviewed `Ordering::Relaxed` exceptions (`audit.allow`).
pub mod allow;
/// Cross-file concurrency rules over the scope pass.
pub mod concurrency;
/// `--explain` documentation for every rule code.
pub mod explain;
/// Source scrubbing: comments, literals, `#[cfg(test)]` stripping.
pub mod lexer;
/// The audit rules and the per-file policy they run under.
pub mod rules;
/// SARIF 2.1.0 export.
pub mod sarif;
/// Workspace traversal and report assembly.
pub mod scan;
/// Scope/symbol pass: `fn` spans, guard lifetimes, call sites.
pub mod scope;
/// Seeded-violation self-test fixtures.
pub mod selftest;

/// The allowlist re-exported from [`allow`].
pub use allow::Allowlist;
/// Rule types re-exported from [`rules`].
pub use rules::{FilePolicy, Severity, Violation};
/// Scanning entry points re-exported from [`scan`].
pub use scan::{analyze_files, audit_workspace, Report};
