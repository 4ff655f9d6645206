//! `--explain` documentation for every rule code.
//!
//! One entry per rule: the short summary doubles as the SARIF rule
//! description; the long text is the review-time rationale shown by
//! `augur-audit --explain <RULE>`.

/// A documented rule: `(code, summary, rationale)`.
pub type RuleDoc = (&'static str, &'static str, &'static str);

/// Every rule the audit can emit, in stable (alphabetical) order.
pub const RULES: [RuleDoc; 19] = [
    (
        "alloc-confined",
        "No global allocator: the workspace runs on the system allocator.",
        "Declaring or implementing a global allocator is denied in every file, bins and \
         examples included. An allocator needs `unsafe`, which the workspace lints forbid; \
         this rule names the reason where the compiler would only say `unsafe`.",
    ),
    (
        "atomics-ordering",
        "Ordering::Relaxed only for counters in sanctioned modules or reviewed allowlist entries.",
        "Relaxed loads and stores carry no synchronization: correct for monotonic counters that \
         are only ever summed, wrong for flags, tickets, and seqlock cells whose readers rely \
         on happens-before. Relaxed is therefore permitted only in the sanctioned counter \
         modules (crates/telemetry/src/metric.rs, crates/telemetry/src/time.rs, \
         crates/telemetry/src/lane.rs) or under a reviewed `audit.allow` entry of the form \
         `<file> <symbol> <reason>`. Everything else must use Acquire/Release (or stronger) so \
         the sharded engine's cross-thread handoffs are fenced by construction. An entry that \
         permits no Relaxed site is reported at its `audit.allow` line: prune it.",
    ),
    (
        "bounded-channels-only",
        "Channels must be bounded, with a named capacity constant.",
        "ROADMAP item 1 (the parallel sharded dataflow engine) makes backpressure load-bearing: \
         an unbounded queue turns overload into unbounded memory growth and masks the stall the \
         paper's availability story (§4) says must surface as graceful degradation. \
         `crossbeam::channel::unbounded` and `std::sync::mpsc::channel` are denied \
         workspace-wide, and `bounded(N)` with a bare numeric literal is denied too: name the \
         constant (or thread a config field) so every capacity is auditable and tunable in one \
         place.",
    ),
    (
        "documented-exports",
        "Every public item in a crate root must carry a doc comment.",
        "Crate roots are the API surface other crates read first; an undocumented `pub use` or \
         `pub mod` there is an undocumented contract. The rule walks top-level `pub` items in \
         lib.rs files and requires a `///` (or `#[doc]`) line above each.",
    ),
    (
        "indexing",
        "Slice indexing can panic; prefer .get() on untrusted indices (advice).",
        "Advisory only: `a[i]` panics on out-of-range. On the hot path that aborts a frame. \
         Indices proved in-range by construction are fine — the advisory exists so the proof is \
         a conscious step during review, not an accident.",
    ),
    (
        "lock-order-cycle",
        "Lock acquisition order must be globally consistent (deadlock freedom).",
        "Every parking_lot acquisition is recorded with its guard lifetime (let-bound guards \
         live to the end of the block; if/while/match scrutinee temporaries to the end of the \
         statement; expression temporaries to their semicolon). Nested acquisitions — and, one \
         call-index hop deep, acquisitions made by functions called while a guard is held — \
         form edges `held -> acquired` in a workspace-wide order graph, with locks identified \
         as `<crate>/<receiver field>`. Any cycle is a potential deadlock once workers \
         multiply and is reported on every edge that closes it. Fix by acquiring in one global \
         order, narrowing a guard's scope, or merging the locks.",
    ),
    (
        "net-confined",
        "Raw std::net sockets are confined to the watch endpoint module.",
        "crates/watch/src/serve.rs is the sole sanctioned socket site, so the workspace's \
         entire network surface is auditable at a glance. Everything else serves state through \
         `augur_watch::WatchSession::serve`.",
    ),
    (
        "no-blocking-hot-path",
        "No blocking operations on the per-record hot path, directly or one call away.",
        "An AR overlay must degrade gracefully, never stall mid-frame (paper §4). Blocking \
         primitives — `recv()`, `recv_timeout()`, blocking `send()`, condvar \
         `wait`/`wait_for`/`wait_until`, `thread::sleep`, file I/O — are denied in per-record \
         crate code (crates/stream), and the one-hop call index extends the check: per-record \
         code calling a helper in another crate that blocks is flagged at the call site. The \
         one sanctioned park is the broker's `wait_for_append` (`PARK_EXEMPT`), where the \
         continuous pipeline's own thread sleeps on an empty topic. Use the try_ variants, or \
         hand the blocking work to a thread that owns its wait.",
    ),
    (
        "no-expect",
        "No .expect() in hot-path library code.",
        "Same contract as no-unwrap: `.expect()` aborts the frame with a nicer message. \
         Propagate through the crate error enum instead.",
    ),
    (
        "no-global-registry",
        "Library code takes &Registry from the caller; the global registry is for bins.",
        "`Registry::global()` in library code makes metrics land in a process-wide snapshot \
         instead of the caller's, breaking scoped measurement in tests and concurrent runs. \
         Library APIs accept a `&Registry` or `Tracer`; only examples and binaries use the \
         global convenience.",
    ),
    (
        "no-panic",
        "No panic!/unreachable!/todo!/unimplemented! in hot-path library code.",
        "A panic in per-record code aborts the frame mid-flight — exactly the stall the paper's \
         availability story forbids. Return the crate error enum; `debug_assert!` remains \
         available for invariants checked in development.",
    ),
    (
        "no-unwrap",
        "No .unwrap() in hot-path library code.",
        "`.unwrap()` turns a recoverable absence into a frame-aborting panic. Hot-path crates \
         (stream, geo, store, semantic, cloud, core, telemetry, doctor, watch, xray, audit) \
         must propagate errors through their error enums; tests and bins are exempt.",
    ),
    (
        "no-wall-clock",
        "Simulation code derives time from the simulated clock, not the OS.",
        "`SystemTime::now()` / `Instant::now()` in simulation code (crates/sensor, scenario \
         replay) breaks reproducibility: two runs of the same seed would disagree. Timestamps \
         are inputs (sensor clock / event time), never ambient reads.",
    ),
    (
        "parking-lot-standard",
        "The workspace lock standard is parking_lot, not std::sync.",
        "std::sync locks poison on panic, turning one failure into cascading `PoisonError` \
         handling; parking_lot locks are smaller, faster, and non-poisoning. One lock library \
         also keeps the lock-order analysis (`lock-order-cycle`) sound: it models parking_lot \
         acquisition/guard semantics only.",
    ),
    (
        "print-confined",
        "Console-print macros are confined to the telemetry log's writer module.",
        "`println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in library code bypass levels, \
         per-site rate limits, and the deterministic JSONL exporters — and they litter bench \
         stdout CI has to parse. Emit a structured event through `augur_telemetry::log`; a \
         genuine console line (progress tables, exporter summaries) goes through \
         crates/telemetry/src/log/writer.rs, the sole sanctioned library print site. Binaries, CLIs, \
         and tests are exempt and may print directly.",
    ),
    (
        "seeded-rng-only",
        "All randomness comes from a seeded StdRng.",
        "`thread_rng()`, `from_entropy()`, and `rand::random()` draw from OS entropy, so no two \
         runs agree. Every experiment threads an explicit `StdRng::seed_from_u64` so results \
         are reproducible bit-for-bit (ExpAR-style controllable experimentation).",
    ),
    (
        "spawn-confined",
        "thread::spawn is allowed only in the sanctioned worker-pool modules.",
        "Threads are confined to crates/stream/src/pipeline.rs, crates/stream/src/broker.rs, \
         and crates/watch/src/serve.rs (plus bins and tests). The sharded engine's worker pool \
         must be the single spawn surface so thread budgets, shutdown, and panics have one \
         owner; a raw `thread::spawn` (or `thread::Builder`) elsewhere is an unaccounted \
         thread.",
    ),
    (
        "spawn-lane-registered",
        "Worker-pool spawns must register a LaneId.",
        "Inside the sanctioned worker-pool modules (crates/stream/src/pipeline.rs and \
         crates/stream/src/broker.rs), every spawned thread is a *worker* and must be \
         registered as a trace lane: the spawning function must reference a `Lane*` symbol \
         (`Lanes::register`, `LaneIo`). An unregistered worker has no per-lane flight ring, \
         no busy/blocked accounting, and silently corrupts xray's measured parallel \
         efficiency. The watch endpoint's listener thread is control-plane and exempt.",
    ),
    (
        "time-source-only",
        "Telemetry-instrumented crates read time through TimeSource.",
        "Raw `Instant::now()` in instrumented crates bypasses `augur_telemetry::TimeSource`, \
         so the same code cannot run under `ManualTime` in simulations and `MonotonicTime` in \
         benches. crates/telemetry/src/time.rs is the one sanctioned wall-clock read.",
    ),
];

/// Looks up one rule's documentation by code.
pub fn find(code: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|(c, _, _)| *c == code)
}

/// Renders one rule's documentation.
pub fn explain(code: &str) -> Option<String> {
    find(code).map(|(c, summary, detail)| format!("{c}\n  {summary}\n\n{detail}\n"))
}

/// Renders the one-line index of every rule.
pub fn index() -> String {
    let mut out = String::from("rules:\n");
    for (code, summary, _) in RULES {
        out.push_str(&format!("  {code:<24} {summary}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_are_sorted_and_unique() {
        for pair in RULES.windows(2) {
            if let [(a, _, _), (b, _, _)] = pair {
                assert!(a < b, "RULES must stay sorted: {a} >= {b}");
            }
        }
    }

    #[test]
    fn every_emitted_rule_is_documented() {
        // The emitting modules reference rules by string literal; keep this
        // list in sync with them (checked again by the self-test fixtures).
        for code in [
            "no-unwrap",
            "no-expect",
            "no-panic",
            "parking-lot-standard",
            "no-wall-clock",
            "seeded-rng-only",
            "time-source-only",
            "no-global-registry",
            "net-confined",
            "alloc-confined",
            "print-confined",
            "documented-exports",
            "indexing",
            "lock-order-cycle",
            "no-blocking-hot-path",
            "bounded-channels-only",
            "spawn-confined",
            "spawn-lane-registered",
            "atomics-ordering",
        ] {
            assert!(find(code).is_some(), "undocumented rule: {code}");
            assert!(explain(code).is_some_and(|t| t.contains(code)));
        }
        assert!(find("no-such-rule").is_none());
        assert!(index().contains("lock-order-cycle"));
    }
}
