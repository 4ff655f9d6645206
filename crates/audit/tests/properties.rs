//! Property tests for the cross-file concurrency analysis: the report is a
//! pure function of the *set* of input files (any permutation yields a
//! byte-identical rendering), and lock-order cycle detection is exact on
//! seeded ring/chain topologies of any size and order.

use augur_audit::{analyze_files, Allowlist};
use proptest::prelude::*;

/// Deterministic Fisher–Yates driven by an LCG over `seed` (the proptest
/// shim has no shuffle strategy, so the permutation is derived from a
/// generated seed instead).
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut v: Vec<T> = items.to_vec();
    let mut i = v.len();
    while i > 1 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((seed >> 33) as usize) % i;
        i -= 1;
        v.swap(i, j);
    }
    v
}

/// `k` files in one crate, file `i` acquiring `lk{i}` then its successor.
/// With `wrap` the successor of the last is `lk0` (a k-cycle); without, the
/// chain is acyclic.
fn ring_files(k: usize, wrap: bool) -> Vec<(String, String)> {
    (0..k)
        .map(|i| {
            let next = if wrap { (i + 1) % k } else { i + 1 };
            (
                format!("crates/geo/src/gen_{i}.rs"),
                format!(
                    "pub fn f{i}(s: &Shared) {{\n    let a = s.lk{i}.lock();\n    \
                     let b = s.lk{next}.lock();\n    drop(b);\n    drop(a);\n}}\n"
                ),
            )
        })
        .collect()
}

/// Fixture files exercising the other concurrency rules, so the
/// order-independence property covers every violation shape at once.
fn mixed_files() -> Vec<(String, String)> {
    vec![
        (
            String::from("crates/store/src/gen_spawn.rs"),
            String::from("pub fn bg() {\n    std::thread::spawn(|| {});\n}\n"),
        ),
        (
            String::from("crates/semantic/src/gen_unbounded.rs"),
            String::from(
                "pub fn mk() {\n    let _c = crossbeam::channel::unbounded::<u32>();\n}\n",
            ),
        ),
        (
            String::from("crates/stream/src/gen_block.rs"),
            String::from(
                "pub fn op() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
            ),
        ),
        (
            String::from("crates/cloud/src/gen_relaxed.rs"),
            String::from(
                "use std::sync::atomic::{AtomicBool, Ordering};\n\
                 pub fn raise(flag: &AtomicBool) {\n    flag.store(true, Ordering::Relaxed);\n}\n",
            ),
        ),
    ]
}

proptest! {
    #[test]
    fn report_is_order_independent(seed in any::<u64>(), k in 2usize..6) {
        let mut files = ring_files(k, true);
        files.extend(mixed_files());
        let permuted = shuffled(&files, seed);
        let allow = Allowlist::default();
        let sorted_run = analyze_files(&files, &allow);
        let permuted_run = analyze_files(&permuted, &allow);
        prop_assert_eq!(
            sorted_run.render_text(true),
            permuted_run.render_text(true),
            "shuffled input must produce a byte-identical report"
        );
        // The report covers every seeded rule regardless of input order.
        for rule in [
            "lock-order-cycle",
            "spawn-confined",
            "bounded-channels-only",
            "no-blocking-hot-path",
            "atomics-ordering",
        ] {
            prop_assert!(
                permuted_run.violations.iter().any(|v| v.rule == rule),
                "rule {} missing from shuffled report", rule
            );
        }
    }

    #[test]
    fn cycles_always_detected_chains_never(seed in any::<u64>(), k in 2usize..6) {
        let allow = Allowlist::default();

        let cycle = shuffled(&ring_files(k, true), seed);
        let report = analyze_files(&cycle, &allow);
        prop_assert!(
            report.violations.iter().any(|v| v.rule == "lock-order-cycle"),
            "a seeded {}-cycle must always be detected", k
        );

        let chain = shuffled(&ring_files(k, false), seed);
        let report = analyze_files(&chain, &allow);
        prop_assert!(
            report.violations.iter().all(|v| v.rule != "lock-order-cycle"),
            "an acyclic {}-chain must never be flagged", k
        );
    }
}
