//! Audit self-test: seeds violations into a throwaway tree and asserts the
//! scanner reports them (and that clean code passes). Guards against the
//! analyzer silently rotting into a no-op.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::scan;

/// A seeded violation fixture: file path (workspace-relative), source, and
/// the deny rules the scanner must fire on it.
const FIXTURES: [(&str, &str, &[&str]); 22] = [
    (
        "crates/stream/src/bad_cycle_a.rs",
        "pub fn ab(s: &Shared) {\n    let g = s.alpha.lock();\n    let h = s.beta.lock();\n    drop(h);\n    drop(g);\n}\n",
        &["lock-order-cycle"],
    ),
    (
        "crates/stream/src/bad_cycle_b.rs",
        "pub fn ba(s: &Shared) {\n    let g = s.beta.lock();\n    let h = s.alpha.lock();\n    drop(h);\n    drop(g);\n}\n",
        &["lock-order-cycle"],
    ),
    (
        "crates/stream/src/bad_block_op.rs",
        "pub fn op() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
        &["no-blocking-hot-path"],
    ),
    (
        "crates/stream/src/bad_park.rs",
        "pub fn per_record(s: &Shared, x: u32) -> u32 {\n    let mut ready = s.ready.lock();\n    s.filled.wait(&mut ready);\n    x\n}\n",
        &["no-blocking-hot-path"],
    ),
    (
        "crates/stream/src/bad_reach.rs",
        "pub fn per_record(x: u32) -> u32 {\n    helper_wait();\n    x\n}\n",
        &["no-blocking-hot-path"],
    ),
    (
        "crates/semantic/src/bad_wait_helper.rs",
        "pub fn helper_wait() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n",
        &[],
    ),
    (
        "crates/semantic/src/bad_unbounded.rs",
        "pub fn make() -> (crossbeam::channel::Sender<u32>, crossbeam::channel::Receiver<u32>) {\n    crossbeam::channel::unbounded::<u32>()\n}\n",
        &["bounded-channels-only"],
    ),
    (
        "crates/stream/src/bad_bounded_literal.rs",
        "pub fn make() -> (crossbeam::channel::Sender<u32>, crossbeam::channel::Receiver<u32>) {\n    crossbeam::channel::bounded::<u32>(4096)\n}\n",
        &["bounded-channels-only"],
    ),
    (
        "crates/store/src/bad_spawn.rs",
        "pub fn background() -> std::thread::JoinHandle<()> {\n    std::thread::spawn(|| {})\n}\n",
        &["spawn-confined"],
    ),
    // The broker's sanctioned park sits beside its unregistered spawn:
    // only the spawn may be reported (checked in `run_in`).
    (
        "crates/stream/src/broker.rs",
        "pub fn background_flush<F: FnOnce() + Send + 'static>(f: F) -> std::thread::JoinHandle<()> {\n    std::thread::spawn(f)\n}\n\npub fn wait_for_append(t: &Topic, seen: u64) {\n    let mut guard = t.wake.lock();\n    while t.epoch() == seen {\n        t.appended.wait(&mut guard);\n    }\n}\n",
        &["spawn-lane-registered"],
    ),
    (
        "crates/geo/src/bad_relaxed.rs",
        "use std::sync::atomic::{AtomicBool, Ordering};\npub fn raise(flag: &AtomicBool) {\n    flag.store(true, Ordering::Relaxed);\n}\n",
        &["atomics-ordering"],
    ),
    (
        "crates/render/src/bad_global_registry.rs",
        "fn f() { let c = augur_telemetry::Registry::global().counter(\"frames\"); c.inc(); }\n",
        &["no-global-registry"],
    ),
    (
        "crates/stream/src/bad_unwrap.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        &["no-unwrap"],
    ),
    (
        "crates/geo/src/bad_panic.rs",
        "fn f() { panic!(\"boom\"); }\n",
        &["no-panic"],
    ),
    (
        "crates/store/src/bad_lock.rs",
        "use std::sync::{Arc, Mutex};\nfn f() {}\n",
        &["parking-lot-standard"],
    ),
    (
        "crates/sensor/src/bad_clock.rs",
        "fn now_us() -> u128 { std::time::Instant::now().elapsed().as_micros() }\n",
        &["no-wall-clock"],
    ),
    (
        "crates/core/src/scenario/bad_entropy.rs",
        "fn f() { let mut rng = thread_rng(); }\n",
        &["seeded-rng-only"],
    ),
    (
        "crates/store/src/bad_instant.rs",
        "fn now_us() -> u128 { std::time::Instant::now().elapsed().as_micros() }\n",
        &["time-source-only"],
    ),
    (
        "crates/semantic/src/lib.rs",
        "//! Crate docs.\npub mod undocumented_item;\n",
        &["documented-exports"],
    ),
    (
        "crates/stream/src/bad_net.rs",
        "fn f() -> std::io::Result<()> { let _l = std::net::TcpListener::bind(\"127.0.0.1:0\")?; Ok(()) }\n",
        &["net-confined"],
    ),
    (
        "crates/stream/src/bad_alloc.rs",
        "#[global_allocator]\nstatic ALLOC: std::alloc::System = std::alloc::System;\n",
        &["alloc-confined"],
    ),
    (
        "crates/render/src/bad_print.rs",
        "pub fn report(frames: usize) {\n    println!(\"rendered {frames} frames\");\n    dbg!(frames);\n}\n",
        &["print-confined"],
    ),
];

/// Clean fixture for the time-source exemption: raw `Instant::now()` is
/// allowed only at `crates/telemetry/src/time.rs`, the sanctioned
/// `MonotonicTime` implementation site. (Telemetry is a hot crate, so the
/// fixture must also be panic-free.)
const CLEAN_TIME_SOURCE: &str = r#"//! Clean fixture: the sanctioned monotonic clock read.
use std::time::Instant;

/// Nanoseconds since an origin instant.
pub fn since(origin: Instant) -> u64 {
    let nanos = Instant::now().duration_since(origin).as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}
"#;

/// Clean fixture for the net exemption: raw `std::net` sockets are allowed
/// only at `crates/watch/src/serve.rs`, the sanctioned live-endpoint site.
/// (Watch is a hot, instrumented crate, so the fixture must also be
/// panic-free and must not read `Instant::now()`.)
const CLEAN_NET_ENDPOINT: &str = r#"//! Clean fixture: the sanctioned endpoint socket site.
use std::net::TcpListener;

/// Binds an ephemeral listener.
pub fn bind_any() -> std::io::Result<TcpListener> {
    TcpListener::bind("127.0.0.1:0")
}
"#;

/// Clean fixture for spawn confinement and channel discipline: a
/// `thread::spawn` and a named-capacity `bounded()` are both fine inside
/// the sanctioned worker-pool module `crates/stream/src/pipeline.rs` —
/// provided the spawning function registers a trace lane
/// (`spawn-lane-registered`). (Stream is hot and per-record, so the
/// fixture is also panic-free and contains no blocking operations.)
const CLEAN_SPAWN_SITE: &str = r#"//! Clean fixture: the sanctioned worker-pool spawn site.
use std::thread;

/// Channel capacity for the worker pool.
pub const POOL_CAPACITY: usize = 64;

/// Builds the pool's bounded channel (named capacity: passes the audit).
pub fn pool_channel() -> (crossbeam::channel::Sender<u32>, crossbeam::channel::Receiver<u32>) {
    crossbeam::channel::bounded::<u32>(POOL_CAPACITY)
}

/// Spawns one worker registered as a trace lane (passes the audit).
pub fn spawn_worker<F: FnOnce() + Send + 'static>(
    lanes: &augur_telemetry::Lanes,
    f: F,
) -> thread::JoinHandle<()> {
    let lane = lanes.register("worker");
    let _ = lane.id();
    thread::spawn(f)
}
"#;

/// Clean fixture for print confinement: console macros are allowed only at
/// `crates/telemetry/src/log/writer.rs`, the sanctioned console sink every library
/// crate routes genuine console lines through.
const CLEAN_PRINT_WRITER: &str = r#"//! Clean fixture: the sanctioned console sink.

/// Writes one line to stdout.
pub fn out_line(line: &str) {
    println!("{line}");
}

/// Writes one line to stderr.
pub fn err_line(line: &str) {
    eprintln!("{line}");
}
"#;

/// Clean fixture for atomics-ordering: `Ordering::Relaxed` on a counter is
/// fine inside the sanctioned counter module `crates/telemetry/src/metric.rs`.
const CLEAN_RELAXED_COUNTER: &str = r#"//! Clean fixture: the sanctioned counter module.
use std::sync::atomic::{AtomicU64, Ordering};

/// Increments a monotonic event counter.
pub fn bump(events: &AtomicU64) {
    events.fetch_add(1, Ordering::Relaxed);
}
"#;

/// Fixture for the `audit.allow` mechanism: a `Relaxed` counter *outside*
/// the sanctioned modules, suppressed by a reviewed allowlist entry that
/// the self-test writes into the temp root.
const CLEAN_ALLOWED_RELAXED: &str = r#"//! Clean fixture: a reviewed Relaxed exception via audit.allow.
use std::sync::atomic::{AtomicU64, Ordering};

/// Records one hit on a counter reviewed in audit.allow.
pub fn record(hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
}
"#;

/// The allowlist covering [`CLEAN_ALLOWED_RELAXED`].
const ALLOW_FILE: &str = "# self-test allowlist\n\
crates/telemetry/src/allowed_relaxed.rs hits monotonic counter, only ever summed by the snapshotter\n";

/// Clean source that must produce zero deny findings even under the strictest
/// policy (hot crate): test-gated panics, literals, and error propagation.
const CLEAN: &str = r#"//! Clean fixture.
use std::sync::Arc;

/// Divides safely.
pub fn safe_div(a: u32, b: u32) -> Result<u32, String> {
    a.checked_div(b).ok_or_else(|| "division by zero".to_string())
}

fn doc_mentions() {
    // A comment saying x.unwrap() and panic!() must not trip the scanner.
    let _s = "x.unwrap() panic!(\"no\") std::sync::Mutex";
    let _arc = Arc::new(());
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
"#;

/// Runs the self-test. Returns `Ok(())` when the scanner catches every seeded
/// violation and passes the clean fixture; `Err` describes the first failure.
pub fn run() -> Result<(), String> {
    let root = temp_root()?;
    let result = run_in(&root);
    // Best-effort cleanup; a leftover temp tree is harmless.
    let _ = fs::remove_dir_all(&root);
    result
}

fn run_in(root: &Path) -> Result<(), String> {
    // Seed every violation fixture plus one clean file per policy tier.
    for (rel, source, _) in FIXTURES {
        write_fixture(root, rel, source)?;
    }
    write_fixture(root, "crates/stream/src/clean.rs", CLEAN)?;
    write_fixture(root, "crates/telemetry/src/time.rs", CLEAN_TIME_SOURCE)?;
    write_fixture(root, "crates/watch/src/serve.rs", CLEAN_NET_ENDPOINT)?;
    write_fixture(root, "crates/stream/src/pipeline.rs", CLEAN_SPAWN_SITE)?;
    write_fixture(
        root,
        "crates/telemetry/src/log/writer.rs",
        CLEAN_PRINT_WRITER,
    )?;
    write_fixture(
        root,
        "crates/telemetry/src/metric.rs",
        CLEAN_RELAXED_COUNTER,
    )?;
    write_fixture(
        root,
        "crates/telemetry/src/allowed_relaxed.rs",
        CLEAN_ALLOWED_RELAXED,
    )?;
    fs::write(root.join("audit.allow"), ALLOW_FILE).map_err(|e| format!("self-test write: {e}"))?;

    let report = scan::audit_workspace(root).map_err(|e| format!("self-test scan failed: {e}"))?;

    for (rel, _, expected_rules) in FIXTURES {
        for rule in expected_rules {
            let hit = report.denials().any(|v| v.file == rel && v.rule == *rule);
            if !hit {
                return Err(format!(
                    "self-test: seeded violation `{rule}` in {rel} was NOT detected"
                ));
            }
        }
    }

    // The clean fixture and every sanctioned site must pass: the
    // time-source module, the endpoint socket module, the worker-pool
    // spawn module, the counter module, the allowlisted Relaxed counter,
    // the console-sink writer, and the allowlist entry (it permits a site).
    for sanctioned in [
        "crates/stream/src/clean.rs",
        "crates/telemetry/src/time.rs",
        "crates/watch/src/serve.rs",
        "crates/stream/src/pipeline.rs",
        "crates/telemetry/src/metric.rs",
        "crates/telemetry/src/allowed_relaxed.rs",
        "crates/telemetry/src/log/writer.rs",
        "audit.allow",
    ] {
        let denials: Vec<_> = report.denials().filter(|v| v.file == sanctioned).collect();
        if !denials.is_empty() {
            return Err(format!(
                "self-test: clean or sanctioned site {sanctioned} produced deny \
                 findings: {denials:?}"
            ));
        }
    }

    // The sanctioned park (`scan::PARK_EXEMPT`) is not a blocking call.
    let park_denials: Vec<_> = report
        .denials()
        .filter(|v| v.file == "crates/stream/src/broker.rs" && v.rule == "no-blocking-hot-path")
        .collect();
    if !park_denials.is_empty() {
        return Err(format!(
            "self-test: the sanctioned wait-for-append park produced deny findings: \
             {park_denials:?}"
        ));
    }

    // The one-hop blocking finding must land at the per-record caller, not
    // inside the helper crate (which is not on the per-record path).
    let helper_denials: Vec<_> = report
        .denials()
        .filter(|v| v.file == "crates/semantic/src/bad_wait_helper.rs")
        .collect();
    if !helper_denials.is_empty() {
        return Err(format!(
            "self-test: blocking helper outside the per-record path must not be \
             flagged directly: {helper_denials:?}"
        ));
    }
    Ok(())
}

fn write_fixture(root: &Path, rel: &str, source: &str) -> Result<(), String> {
    let path = root.join(rel);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("self-test mkdir: {e}"))?;
    }
    fs::write(&path, source).map_err(|e| format!("self-test write: {e}"))
}

fn temp_root() -> Result<PathBuf, String> {
    let base = std::env::temp_dir().join(format!("augur-audit-selftest-{}", std::process::id()));
    if base.exists() {
        let _ = fs::remove_dir_all(&base);
    }
    fs::create_dir_all(&base).map_err(|e: io::Error| format!("self-test tempdir: {e}"))?;
    Ok(base)
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_passes() {
        super::run().expect("audit self-test must pass");
    }
}
