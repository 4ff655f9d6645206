//! Workspace walker: maps each library source file to its rule policy,
//! runs the per-file token rules and the cross-file concurrency pass
//! under the committed `audit.allow` exceptions.
//!
//! The analysis is deliberately two-phase so results are a pure function
//! of the *set* of files: phase one collects per-file facts (token
//! findings plus the concurrency sites from [`crate::scope`]); phase two
//! ([`crate::concurrency::check_workspace`]) runs the workspace-level
//! rules over all files at once. [`analyze_files`] sorts its input and
//! every workspace structure is a BTree map/set, so a shuffled file list
//! produces a byte-identical report (property-tested).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allow::Allowlist;
use crate::concurrency;
use crate::rules::{self, FilePolicy, Severity, Violation};

/// Crates whose library code must be panic-free (the AR hot path: a panic
/// here aborts a frame mid-flight).
pub const HOT_CRATES: [&str; 11] = [
    "stream",
    "geo",
    "store",
    "semantic",
    "cloud",
    "core",
    "audit",
    "telemetry",
    "doctor",
    "watch",
    "xray",
];

/// Path fragments identifying simulation code, where wall-clock reads are
/// denied so experiment runs stay reproducible (ExpAR-style determinism).
pub const SIM_PATHS: [&str; 2] = ["crates/sensor/src", "crates/core/src/scenario"];

/// Telemetry-instrumented crates: library code must read time through
/// `augur_telemetry::TimeSource` rather than raw `Instant::now()`, so the
/// same instrumentation runs deterministically under `ManualTime` in
/// simulations and against the monotonic clock in benches.
pub const TELEMETRY_CRATES: [&str; 7] = [
    "stream",
    "store",
    "cloud",
    "core",
    "telemetry",
    "watch",
    "xray",
];

/// The one sanctioned wall-clock read: `MonotonicTime` in the telemetry
/// crate's time-source module.
pub const TIME_SOURCE_EXEMPT: &str = "crates/telemetry/src/time.rs";

/// The one sanctioned `std::net` site: the watch crate's live endpoint.
/// Confining sockets to a single module keeps the workspace's network
/// surface auditable at a glance (and trivially greppable).
pub const NET_EXEMPT: &str = "crates/watch/src/serve.rs";

/// The one sanctioned console-print site: the telemetry log's writer
/// module. Library code that genuinely needs a console line routes it
/// through `augur_telemetry::log::writer`; everything else emits
/// structured events. Bins, CLIs, and tests stay exempt and may print
/// directly.
pub const PRINT_EXEMPT: &str = "crates/telemetry/src/log/writer.rs";

/// Sanctioned `thread::spawn` sites: the sharded engine's worker pool and
/// the watch endpoint's listener thread. Keeping one spawn surface gives
/// thread budgets, shutdown, and panic handling a single owner.
pub const SPAWN_EXEMPT: [&str; 3] = [
    "crates/stream/src/pipeline.rs",
    "crates/stream/src/broker.rs",
    "crates/watch/src/serve.rs",
];

/// Sanctioned spawn sites whose threads are *worker* threads and must
/// therefore register a `LaneId` (reference a `Lane*` symbol in the
/// spawning function) so every worker lands on a per-lane flight ring
/// with busy/blocked accounting. `watch/src/serve.rs` stays off this
/// list: its listener thread is control-plane, not a worker.
pub const LANE_REQUIRED: [&str; 2] = [
    "crates/stream/src/pipeline.rs",
    "crates/stream/src/broker.rs",
];

/// Sanctioned `Ordering::Relaxed` modules: monotonic counters that are
/// only ever summed. Everything else needs acquire/release or a reviewed
/// `audit.allow` entry.
pub const ATOMICS_EXEMPT: [&str; 3] = [
    "crates/telemetry/src/metric.rs",
    "crates/telemetry/src/time.rs",
    "crates/telemetry/src/lane.rs",
];

/// Crates on the per-record hot path, where blocking operations are
/// denied directly and one call-index hop away (paper §4: never stall a
/// frame).
pub const PER_RECORD_CRATES: [&str; 1] = ["stream"];

/// The one sanctioned condvar wait in a per-record crate, as (file,
/// function): the broker's wait-for-append helper, where a dedicated
/// continuous-pipeline thread sleeps on an empty topic until an append
/// or a stop wakes it. Every other wait there blocks a record.
pub const PARK_EXEMPT: (&str, &str) = ("crates/stream/src/broker.rs", "wait_for_append");

/// Result of auditing a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, deny and advice alike.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Deny findings: any one fails the audit.
    pub fn denials(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Deny)
    }

    /// Whether the audit passes: no deny findings.
    pub fn clean(&self) -> bool {
        self.denials().next().is_none()
    }

    /// Renders the report as deterministic plain text. With `verbose`,
    /// advisories are included.
    pub fn render_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        for v in self.denials() {
            out.push_str(&format!(
                "deny  {:<22} {}:{} {}\n",
                v.rule, v.file, v.line, v.message
            ));
        }
        if verbose {
            for v in &self.violations {
                if v.severity == Severity::Advice {
                    out.push_str(&format!(
                        "advice {:<21} {}:{} {}\n",
                        v.rule, v.file, v.line, v.message
                    ));
                }
            }
        }
        out.push_str(&format!(
            "{} files scanned, {} deny, {} advice\n",
            self.files_scanned,
            self.denials().count(),
            self.violations
                .iter()
                .filter(|v| v.severity == Severity::Advice)
                .count(),
        ));
        out
    }
}

/// Audits a workspace rooted at `root` (the directory holding `crates/`)
/// under the `audit.allow` next to it (none means no exceptions). An
/// unreadable tree or a malformed `audit.allow` is an error.
pub fn audit_workspace(root: &Path) -> io::Result<Report> {
    let allow = Allowlist::discover(root)?;
    let files = collect_files(root)?;
    Ok(analyze_files(&files, &allow))
}

/// Reads every library source file under `root`: `crates/*/src` plus the
/// facade crate's `src/`. Returns `(workspace-relative path, contents)`
/// pairs.
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_tree(root, &src, &mut files)?;
        }
    }
    // The facade crate's root lives at <root>/src.
    let facade = root.join("src");
    if facade.is_dir() {
        collect_tree(root, &facade, &mut files)?;
    }
    Ok(files)
}

fn collect_tree(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_tree(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Runs both analysis phases over an in-memory file set under `allow`.
/// Pure and order-independent: the input is sorted (and deduplicated by
/// path) first, and every workspace-level structure is ordered, so any
/// permutation of `files` yields an identical [`Report`].
pub fn analyze_files(files: &[(String, String)], allow: &Allowlist) -> Report {
    let mut sorted: Vec<&(String, String)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    sorted.dedup_by(|a, b| a.0 == b.0);

    let mut violations = Vec::new();
    let mut concs = Vec::new();
    for (rel, src) in &sorted {
        let policy = policy_for(rel);
        rules::check_source(rel, src, policy, &mut violations);
        concs.push(concurrency::collect(rel, src, policy));
    }
    concurrency::check_workspace(&concs, allow, &mut violations);

    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    violations.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    Report {
        violations,
        files_scanned: sorted.len(),
    }
}

/// Derives the rule policy for a workspace-relative file path.
pub fn policy_for(rel: &str) -> FilePolicy {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let hot = HOT_CRATES.contains(&crate_name);
    let sim = SIM_PATHS.iter().any(|p| rel.starts_with(p));
    let instrumented = TELEMETRY_CRATES.contains(&crate_name);
    // Experiment driver binaries (crates/bench/src/bin) are CLIs, not library
    // code; only the workspace-wide determinism and lock rules apply there.
    let is_bin = rel.contains("/src/bin/");
    let is_entry = is_bin || rel.ends_with("src/main.rs");
    let is_crate_root = rel.ends_with("src/lib.rs");
    FilePolicy {
        deny_panics: hot && !is_bin,
        deny_wall_clock: sim,
        deny_raw_instant: instrumented && !is_bin && rel != TIME_SOURCE_EXEMPT,
        // The process-global registry is an examples/bin convenience;
        // library code must thread a `&Registry` so metrics are scoped to
        // the caller's run. Experiment driver binaries are exempt.
        deny_global_registry: !is_bin,
        // Sockets are confined workspace-wide — bins included: demo and
        // experiment binaries serve state through `WatchSession::serve`.
        deny_raw_net: rel != NET_EXEMPT,
        // Library code logs through the telemetry log; only the sanctioned writer
        // and process entry points (bins, CLIs) touch stdio directly.
        deny_prints: !is_entry && rel != PRINT_EXEMPT,
        advise_indexing: hot && !is_bin,
        require_docs: is_crate_root,
        // Threads are confined to the sanctioned worker-pool modules;
        // binary entry points own their process and may spawn.
        deny_unsanctioned_spawn: !is_entry && !SPAWN_EXEMPT.contains(&rel),
        // Worker-pool spawns must register a trace lane; the watch
        // listener is control-plane and exempt.
        require_lane_registration: LANE_REQUIRED.contains(&rel),
        // Backpressure is workspace-wide — bins included: an unbounded
        // queue in a driver binary still masks overload.
        deny_unbounded_channel: true,
        deny_blocking_hot_path: PER_RECORD_CRATES.contains(&crate_name) && !is_entry,
        relaxed_exempt: ATOMICS_EXEMPT.contains(&rel),
        is_entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_mapping() {
        assert!(policy_for("crates/stream/src/broker.rs").deny_panics);
        assert!(policy_for("crates/geo/src/geohash.rs").deny_panics);
        assert!(!policy_for("crates/render/src/layout.rs").deny_panics);
        assert!(!policy_for("crates/bench/src/bin/a1_watermark.rs").deny_panics);
        assert!(policy_for("crates/sensor/src/imu.rs").deny_wall_clock);
        assert!(policy_for("crates/core/src/scenario/retail.rs").deny_wall_clock);
        assert!(!policy_for("crates/stream/src/broker.rs").deny_wall_clock);
        assert!(policy_for("crates/semantic/src/lib.rs").require_docs);
        assert!(!policy_for("crates/semantic/src/json.rs").require_docs);
    }

    #[test]
    fn global_registry_policy_mapping() {
        assert!(policy_for("crates/telemetry/src/metric.rs").deny_global_registry);
        assert!(policy_for("crates/render/src/layout.rs").deny_global_registry);
        assert!(policy_for("crates/doctor/src/lib.rs").deny_global_registry);
        assert!(!policy_for("crates/bench/src/bin/e3_offload.rs").deny_global_registry);
        // Doctor is hot-path tooling: its verdicts gate CI, so panics are
        // denied like the rest of the hot set.
        assert!(policy_for("crates/doctor/src/lib.rs").deny_panics);
        assert!(policy_for("crates/doctor/src/main.rs").deny_panics);
    }

    #[test]
    fn time_source_policy_mapping() {
        assert!(policy_for("crates/stream/src/pipeline.rs").deny_raw_instant);
        assert!(policy_for("crates/store/src/lsm.rs").deny_raw_instant);
        assert!(policy_for("crates/cloud/src/offload.rs").deny_raw_instant);
        assert!(policy_for("crates/telemetry/src/registry.rs").deny_raw_instant);
        // The sanctioned monotonic source and non-instrumented crates.
        assert!(!policy_for("crates/telemetry/src/time.rs").deny_raw_instant);
        assert!(!policy_for("crates/render/src/frame.rs").deny_raw_instant);
        assert!(!policy_for("crates/bench/src/bin/e2_timeliness.rs").deny_raw_instant);
        // Telemetry is hot-path code: panic discipline applies.
        assert!(policy_for("crates/telemetry/src/metric.rs").deny_panics);
    }

    #[test]
    fn net_confinement_policy_mapping() {
        // The endpoint module is the sole sanctioned socket site.
        assert!(!policy_for("crates/watch/src/serve.rs").deny_raw_net);
        assert!(policy_for("crates/watch/src/rollup.rs").deny_raw_net);
        assert!(policy_for("crates/stream/src/pipeline.rs").deny_raw_net);
        // Unlike the panic rules, bins are NOT exempt: they serve state
        // through `WatchSession::serve` rather than opening sockets.
        assert!(policy_for("crates/bench/src/bin/e2_timeliness.rs").deny_raw_net);
        // Watch joined the hot + instrumented sets.
        assert!(policy_for("crates/watch/src/slo.rs").deny_panics);
        assert!(policy_for("crates/watch/src/rollup.rs").deny_raw_instant);
    }

    #[test]
    fn xray_policy_mapping() {
        // The trace-analysis crate is hot and instrumented.
        assert!(policy_for("crates/xray/src/profile.rs").deny_panics);
        assert!(policy_for("crates/xray/src/tree.rs").deny_raw_instant);
        assert!(policy_for("crates/xray/src/lib.rs").require_docs);
    }

    #[test]
    fn print_confinement_policy_mapping() {
        // The log writer is the sole sanctioned library print site.
        assert!(!policy_for("crates/telemetry/src/log/writer.rs").deny_prints);
        assert!(policy_for("crates/telemetry/src/log/export.rs").deny_prints);
        assert!(policy_for("crates/bench/src/lib.rs").deny_prints);
        assert!(policy_for("crates/stream/src/pipeline.rs").deny_prints);
        // Bins and CLI entry points own their stdout.
        assert!(!policy_for("crates/bench/src/bin/e2_timeliness.rs").deny_prints);
        assert!(!policy_for("crates/doctor/src/main.rs").deny_prints);
    }

    #[test]
    fn concurrency_policy_mapping() {
        // Spawn confinement: sanctioned modules, bins, and main.rs only.
        assert!(!policy_for("crates/stream/src/pipeline.rs").deny_unsanctioned_spawn);
        assert!(!policy_for("crates/stream/src/broker.rs").deny_unsanctioned_spawn);
        assert!(!policy_for("crates/watch/src/serve.rs").deny_unsanctioned_spawn);
        assert!(!policy_for("crates/bench/src/bin/e1_ingest.rs").deny_unsanctioned_spawn);
        assert!(!policy_for("crates/doctor/src/main.rs").deny_unsanctioned_spawn);
        assert!(policy_for("crates/store/src/lsm.rs").deny_unsanctioned_spawn);
        assert!(policy_for("crates/watch/src/rollup.rs").deny_unsanctioned_spawn);
        // Channels: workspace-wide, bins included.
        assert!(policy_for("crates/bench/src/bin/e1_ingest.rs").deny_unbounded_channel);
        assert!(policy_for("crates/render/src/layout.rs").deny_unbounded_channel);
        // Blocking: per-record crates only; entries exempt.
        assert!(policy_for("crates/stream/src/pipeline.rs").deny_blocking_hot_path);
        assert!(!policy_for("crates/store/src/lsm.rs").deny_blocking_hot_path);
        assert!(!policy_for("crates/watch/src/main.rs").deny_blocking_hot_path);
        // Atomics: the three counter modules are exempt.
        assert!(policy_for("crates/telemetry/src/metric.rs").relaxed_exempt);
        assert!(policy_for("crates/telemetry/src/time.rs").relaxed_exempt);
        assert!(policy_for("crates/telemetry/src/lane.rs").relaxed_exempt);
        assert!(!policy_for("crates/telemetry/src/flight.rs").relaxed_exempt);
        assert!(!policy_for("crates/stream/src/pipeline.rs").relaxed_exempt);
    }

    #[test]
    fn analyze_is_order_independent() {
        let files = vec![
            (
                String::from("crates/stream/src/z.rs"),
                String::from(
                    "fn z(s: &S) { let g = s.beta.lock(); let h = s.alpha.lock(); g; h; }",
                ),
            ),
            (
                String::from("crates/stream/src/a.rs"),
                String::from(
                    "fn a(s: &S) { let g = s.alpha.lock(); let h = s.beta.lock(); g; h; }",
                ),
            ),
        ];
        let mut reversed = files.clone();
        reversed.reverse();
        let al = Allowlist::default();
        let r1 = analyze_files(&files, &al);
        let r2 = analyze_files(&reversed, &al);
        assert_eq!(r1.render_text(true), r2.render_text(true));
        assert!(!r1.clean(), "the cycle must be found");
    }
}
