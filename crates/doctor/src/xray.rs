//! Xray-gate mode (`--xray`): bottleneck-shape regression detection.
//!
//! The pairwise gate watches scalar metrics; this mode watches the
//! *shape* of the bottleneck. It diffs two `*.xray.json` artifacts (the
//! canonical reports `augur-xray` renders, byte-stable for a fixed
//! seed) and fails when the current run's bottleneck profile regressed
//! against the committed baseline:
//!
//! - **Head change**: the heaviest critical-path frame is a different
//!   stage than the baseline's — the bottleneck moved, and the report
//!   names where it moved to (this is the red-gate CI relies on: an
//!   injected single-stage slowdown must surface here by name).
//! - **Share regression**: any stage's critical-path share grew by more
//!   than [`SHARE_TOLERANCE`] absolute — one stage is eating a larger
//!   fraction of end-to-end latency.
//! - **Bound drop**: `parallel_speedup_bound` fell by more than
//!   [`BOUND_DROP_TOLERANCE`] relative — the ceiling the sharding arc
//!   (ROADMAP item 1) is chasing got lower.
//! - **Efficiency drop**: `measured.parallel_efficiency` (the *measured*
//!   counterpart of the modeled bound, from per-lane busy counters) fell
//!   by more than [`EFFICIENCY_DROP_TOLERANCE`] relative — the workers
//!   are really running less in parallel than they used to.
//! - **Blocked-share growth**: a stage's or a worker lane's measured
//!   blocked share grew by more than [`BLOCKED_SHARE_TOLERANCE`]
//!   absolute — new contention, named by stage and by lane (this is the
//!   lane red-gate: an injected stall must surface here by name).
//! - **Truncation**: the current report was built from a lossy drain
//!   (`"truncated": true`); a critical path with holes must not pass a
//!   gate quietly — **unless** the report says the loss was deliberate:
//!   `sampling.sampled: true` with an `effective_rate` consistent with
//!   the kept-event fraction is tail sampling doing its job, and passes
//!   with a note. An inconsistent rate (or no sampling claim at all) is
//!   genuine ring overflow and still fails. The verdict names which
//!   case it saw.
//!
//! The measured fields and the sampling section are optional in both
//! artifacts: baselines committed before lanes or sampling existed
//! still parse and gate on the original checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use augur_semantic::json::JsonValue;

/// Absolute growth in a stage's critical-path share tolerated before
/// the gate fails (shares are fractions in `0..=1`).
pub const SHARE_TOLERANCE: f64 = 0.05;

/// Relative drop in `parallel_speedup_bound` tolerated before the gate
/// fails.
pub const BOUND_DROP_TOLERANCE: f64 = 0.10;

/// Relative drop in `measured.parallel_efficiency` tolerated before
/// the gate fails.
pub const EFFICIENCY_DROP_TOLERANCE: f64 = 0.10;

/// Absolute growth in a stage's or lane's measured blocked share
/// tolerated before the gate fails (shares are fractions in `0..=1`).
pub const BLOCKED_SHARE_TOLERANCE: f64 = 0.05;

/// Absolute mismatch tolerated between a truncated report's advertised
/// `sampling.effective_rate` and the kept-event fraction its own
/// `events` section implies, before the truncation stops counting as
/// deliberate sampling and becomes a ring-overflow regression.
pub const SAMPLING_RATE_TOLERANCE: f64 = 0.05;

/// The gate-relevant slice of one xray artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct XraySummary {
    /// Scenario the report covers (`"xray"` field).
    pub scenario: String,
    /// Heaviest critical-path frame, `None` for an empty drain.
    pub head: Option<String>,
    /// The parallel speedup bound headline.
    pub bound: f64,
    /// Whether the drain behind the report dropped events.
    pub truncated: bool,
    /// Total events the report accounts for (`events.total`, drained
    /// plus dropped); 0 for pre-events artifacts.
    pub total_events: u64,
    /// Events the drain lost (`events.dropped`).
    pub dropped_events: u64,
    /// Whether the report says it was built from a sampled slice
    /// (`sampling.sampled`); `false` for pre-sampling artifacts.
    pub sampled: bool,
    /// The kept fraction the report advertises
    /// (`sampling.effective_rate`), `None` for pre-sampling artifacts.
    pub effective_rate: Option<f64>,
    /// Critical-path share per stage name.
    pub shares: BTreeMap<String, f64>,
    /// Measured parallel efficiency (`measured.parallel_efficiency`),
    /// `None` for artifacts rendered before lanes existed.
    pub efficiency: Option<f64>,
    /// Measured blocked share per stage name (absent pre-lane).
    pub stage_blocked: BTreeMap<String, f64>,
    /// Measured blocked share per lane name (absent pre-lane).
    pub lane_blocked: BTreeMap<String, f64>,
}

impl XraySummary {
    /// The kept-event fraction the `events` section implies:
    /// `(total - dropped) / total`, 1.0 when the report accounts for no
    /// events at all.
    pub fn kept_fraction(&self) -> f64 {
        if self.total_events == 0 {
            1.0
        } else {
            self.total_events.saturating_sub(self.dropped_events) as f64 / self.total_events as f64
        }
    }

    /// Whether this report's truncation is explained by deliberate
    /// sampling: it claims `sampled: true` and its advertised
    /// `effective_rate` agrees with the kept fraction its own event
    /// counts imply (within [`SAMPLING_RATE_TOLERANCE`]). Anything else
    /// — no claim, or a rate that doesn't match the loss — is genuine
    /// ring overflow.
    pub fn truncation_is_sampling(&self) -> bool {
        self.sampled
            && self
                .effective_rate
                .map(|rate| (rate - self.kept_fraction()).abs() <= SAMPLING_RATE_TOLERANCE)
                .unwrap_or(false)
    }
}

/// Outcome of diffing a current xray artifact against the baseline.
#[derive(Debug, Clone)]
pub struct XrayGateReport {
    /// The committed baseline's summary.
    pub baseline: XraySummary,
    /// The current run's summary.
    pub current: XraySummary,
    /// Human-readable regression statements; any entry fails the gate.
    pub regressions: Vec<String>,
    /// Non-failing observations worth surfacing in the verdict (e.g.
    /// truncation explained by deliberate tail sampling).
    pub notes: Vec<String>,
}

/// Parses the gate-relevant fields out of an xray artifact.
///
/// # Errors
///
/// Shape mismatches surface as [`io::ErrorKind::InvalidData`] — a
/// malformed artifact must not silently pass the gate.
pub fn parse_xray_report(text: &str) -> io::Result<XraySummary> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let doc = JsonValue::parse(text).map_err(|e| bad(format!("invalid JSON ({e})")))?;
    let scenario = doc
        .field("xray")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| bad(format!("missing xray scenario ({e})")))?;
    let truncated = match doc.field("truncated") {
        Ok(JsonValue::Bool(b)) => *b,
        Ok(other) => {
            return Err(bad(format!(
                "truncated: expected bool, found {}",
                other.to_json()
            )))
        }
        Err(e) => return Err(bad(format!("missing truncated ({e})"))),
    };
    let bound = doc
        .field("speedup")
        .and_then(|s| s.field("parallel_speedup_bound"))
        .and_then(|v| v.as_f64())
        .map_err(|e| bad(format!("missing speedup.parallel_speedup_bound ({e})")))?;
    let head = match doc.field("head") {
        Ok(JsonValue::Null) => None,
        Ok(v) => Some(
            v.as_str()
                .map(str::to_string)
                .map_err(|e| bad(format!("head: {e}")))?,
        ),
        Err(e) => return Err(bad(format!("missing head ({e})"))),
    };
    let mut shares = BTreeMap::new();
    let frames = doc
        .field("critical_path")
        .and_then(|v| v.as_array())
        .map_err(|e| bad(format!("missing critical_path ({e})")))?;
    for frame in frames {
        let name = frame
            .field("name")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| bad(format!("critical_path frame missing name ({e})")))?;
        let share = frame
            .field("share")
            .and_then(|v| v.as_f64())
            .map_err(|e| bad(format!("critical_path frame missing share ({e})")))?;
        shares.insert(name, share);
    }
    // Event accounting: optional with zero defaults, so minimal
    // fixtures and old artifacts keep parsing.
    let event_count = |key: &str| -> u64 {
        doc.field("events")
            .and_then(|e| e.field(key))
            .and_then(|v| v.as_f64())
            .ok()
            .map(|v| v.max(0.0) as u64)
            .unwrap_or(0)
    };
    // Sampling section: optional, so baselines committed before
    // sampling existed keep parsing (they read as unsampled).
    let sampled = doc
        .field("sampling")
        .and_then(|s| s.field("sampled"))
        .ok()
        .and_then(|v| match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        })
        .unwrap_or(false);
    let effective_rate = doc
        .field("sampling")
        .and_then(|s| s.field("effective_rate"))
        .and_then(|v| v.as_f64())
        .ok();
    // Lane-era fields: optional, so baselines committed before worker
    // lanes existed keep parsing (and simply skip the measured gates).
    let efficiency = doc
        .field("measured")
        .and_then(|m| m.field("parallel_efficiency"))
        .and_then(|v| v.as_f64())
        .ok();
    let blocked_by_name = |array: &str, key: &str| -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        if let Ok(rows) = doc.field(array).and_then(|v| v.as_array()) {
            for row in rows {
                let name = row.field(key).and_then(|v| v.as_str().map(str::to_string));
                let share = row.field("blocked_share").and_then(|v| v.as_f64());
                if let (Ok(name), Ok(share)) = (name, share) {
                    out.insert(name, share);
                }
            }
        }
        out
    };
    Ok(XraySummary {
        scenario,
        head,
        bound,
        truncated,
        total_events: event_count("total"),
        dropped_events: event_count("dropped"),
        sampled,
        effective_rate,
        shares,
        efficiency,
        stage_blocked: blocked_by_name("stages", "name"),
        lane_blocked: blocked_by_name("lanes", "name"),
    })
}

/// Diffs two summaries into the gate verdict (pure; see
/// [`run_xray_gate`] for the file-reading front end).
pub fn diff_xray(baseline: XraySummary, current: XraySummary) -> XrayGateReport {
    let mut regressions = Vec::new();
    let mut notes = Vec::new();
    if current.truncated {
        if current.truncation_is_sampling() {
            notes.push(format!(
                "current report is truncated by deliberate tail sampling, not ring overflow: \
                 sampled with effective_rate {:.6} consistent with the kept-event fraction \
                 {:.6} — intentional loss, gate continues",
                current.effective_rate.unwrap_or(1.0),
                current.kept_fraction(),
            ));
        } else if current.sampled {
            regressions.push(format!(
                "current report is truncated by genuine ring overflow, not sampling: it claims \
                 sampled with effective_rate {:.6}, but its events imply a kept fraction of \
                 {:.6} (mismatch > {SAMPLING_RATE_TOLERANCE}) — rerun with a larger ring \
                 before gating",
                current.effective_rate.unwrap_or(1.0),
                current.kept_fraction(),
            ));
        } else {
            regressions.push(
                "current report is truncated by genuine ring overflow (lossy flight drain, no \
                 sampling claimed) — its critical path has holes; rerun with a larger ring \
                 before gating"
                    .to_string(),
            );
        }
    }
    if current.head != baseline.head {
        let name = |h: &Option<String>| h.clone().unwrap_or_else(|| "(none)".to_string());
        regressions.push(format!(
            "critical-path head moved: `{}` -> `{}` — the bottleneck is now {}",
            name(&baseline.head),
            name(&current.head),
            name(&current.head),
        ));
    }
    for (stage, &cur) in &current.shares {
        let base = baseline.shares.get(stage).copied().unwrap_or(0.0);
        if cur - base > SHARE_TOLERANCE {
            regressions.push(format!(
                "stage `{stage}` critical-path share grew {:.1}% -> {:.1}% \
                 (+{:.1} pts > {:.0} pt tolerance)",
                base * 100.0,
                cur * 100.0,
                (cur - base) * 100.0,
                SHARE_TOLERANCE * 100.0,
            ));
        }
    }
    if current.bound < baseline.bound * (1.0 - BOUND_DROP_TOLERANCE) {
        regressions.push(format!(
            "parallel speedup bound dropped {:.2}x -> {:.2}x \
             (more than {:.0}% — the sharding headroom shrank)",
            baseline.bound,
            current.bound,
            BOUND_DROP_TOLERANCE * 100.0,
        ));
    }
    if let (Some(base), Some(cur)) = (baseline.efficiency, current.efficiency) {
        if cur < base * (1.0 - EFFICIENCY_DROP_TOLERANCE) {
            regressions.push(format!(
                "measured parallel efficiency dropped {base:.2} -> {cur:.2} \
                 (more than {:.0}% — the lanes really are running less in parallel)",
                EFFICIENCY_DROP_TOLERANCE * 100.0,
            ));
        }
    }
    for (stage, &cur) in &current.stage_blocked {
        let base = baseline.stage_blocked.get(stage).copied().unwrap_or(0.0);
        if cur - base > BLOCKED_SHARE_TOLERANCE {
            regressions.push(format!(
                "stage `{stage}` blocked share grew {:.1}% -> {:.1}% \
                 (+{:.1} pts > {:.0} pt tolerance) — contention grew at stage {stage}",
                base * 100.0,
                cur * 100.0,
                (cur - base) * 100.0,
                BLOCKED_SHARE_TOLERANCE * 100.0,
            ));
        }
    }
    for (lane, &cur) in &current.lane_blocked {
        let base = baseline.lane_blocked.get(lane).copied().unwrap_or(0.0);
        if cur - base > BLOCKED_SHARE_TOLERANCE {
            regressions.push(format!(
                "lane `{lane}` blocked share grew {:.1}% -> {:.1}% \
                 (+{:.1} pts > {:.0} pt tolerance) — lane {lane} is stalled",
                base * 100.0,
                cur * 100.0,
                (cur - base) * 100.0,
                BLOCKED_SHARE_TOLERANCE * 100.0,
            ));
        }
    }
    XrayGateReport {
        baseline,
        current,
        regressions,
        notes,
    }
}

/// Diffs a current xray artifact against a committed baseline artifact.
///
/// # Errors
///
/// I/O errors reading either file; malformed content surfaces as
/// [`io::ErrorKind::InvalidData`] naming the offending file.
pub fn run_xray_gate(current: &Path, baseline: &Path) -> io::Result<XrayGateReport> {
    let label =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let cur_text = std::fs::read_to_string(current).map_err(|e| label(current, e))?;
    let cur = parse_xray_report(&cur_text).map_err(|e| label(current, e))?;
    let base_text = std::fs::read_to_string(baseline).map_err(|e| label(baseline, e))?;
    let base = parse_xray_report(&base_text).map_err(|e| label(baseline, e))?;
    Ok(diff_xray(base, cur))
}

/// True when the bottleneck shape regressed; the CLI exits 1.
pub fn has_xray_regressions(report: &XrayGateReport) -> bool {
    !report.regressions.is_empty()
}

/// Renders the gate verdict: the share table, the bound movement, and
/// every regression statement.
pub fn render_xray_markdown(report: &XrayGateReport) -> String {
    let mut out = String::from("# augur-doctor xray gate\n\n");
    let name = |h: &Option<String>| h.clone().unwrap_or_else(|| "(none)".to_string());
    let _ = writeln!(
        out,
        "scenario `{}`: head `{}` (baseline `{}`), speedup bound {:.2}x (baseline {:.2}x)\n",
        report.current.scenario,
        name(&report.current.head),
        name(&report.baseline.head),
        report.current.bound,
        report.baseline.bound,
    );
    if let (Some(base), Some(cur)) = (report.baseline.efficiency, report.current.efficiency) {
        let _ = writeln!(
            out,
            "measured parallel efficiency {cur:.2} (baseline {base:.2})\n",
        );
    }
    if report.current.sampled {
        let _ = writeln!(
            out,
            "current report is sampled (effective rate {:.6}, kept fraction {:.6})\n",
            report.current.effective_rate.unwrap_or(1.0),
            report.current.kept_fraction(),
        );
    }
    out.push_str("| stage | baseline share | current share | delta |\n|---|---|---|---|\n");
    let mut stages: Vec<&String> = report
        .baseline
        .shares
        .keys()
        .chain(report.current.shares.keys())
        .collect();
    stages.sort();
    stages.dedup();
    for stage in stages {
        let base = report.baseline.shares.get(stage).copied().unwrap_or(0.0);
        let cur = report.current.shares.get(stage).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "| `{stage}` | {:.1}% | {:.1}% | {:+.1} pts |",
            base * 100.0,
            cur * 100.0,
            (cur - base) * 100.0,
        );
    }
    if !report.notes.is_empty() {
        out.push('\n');
        for n in &report.notes {
            let _ = writeln!(out, "- note: {n}");
        }
    }
    if report.regressions.is_empty() {
        out.push_str("\nNo xray regressions: bottleneck shape matches the baseline.\n");
    } else {
        let _ = writeln!(
            out,
            "\n**XRAY REGRESSIONS**: {} finding(s)\n",
            report.regressions.len()
        );
        for r in &report.regressions {
            let _ = writeln!(out, "- {r}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(head: &str, head_share: f64, other_share: f64, bound: f64) -> String {
        format!(
            "{{\"xray\":\"t\",\"truncated\":false,\"events\":{{\"total\":4,\"dropped\":0}},\
             \"roots\":1,\"makespan_us\":100,\"work_us\":100,\"span_us\":100,\
             \"speedup\":{{\"work_span_bound\":1,\"stage_bound\":{bound},\
             \"parallel_speedup_bound\":{bound}}},\"head\":\"{head}\",\
             \"critical_path\":[{{\"name\":\"{head}\",\"self_us\":60,\"count\":1,\
             \"share\":{head_share}}},{{\"name\":\"other\",\"self_us\":40,\"count\":1,\
             \"share\":{other_share}}}],\"stages\":[],\"queues\":[]}}"
        )
    }

    fn parse(text: &str) -> XraySummary {
        parse_xray_report(text).unwrap_or_else(|e| unreachable!("{e}"))
    }

    #[test]
    fn identical_reports_pass() {
        let a = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let report = diff_xray(a.clone(), a);
        assert!(!has_xray_regressions(&report));
        assert!(render_xray_markdown(&report).contains("No xray regressions"));
    }

    #[test]
    fn head_change_is_named() {
        let base = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let cur = parse(&artifact("window", 0.6, 0.4, 2.0));
        let report = diff_xray(base, cur);
        assert!(has_xray_regressions(&report));
        let md = render_xray_markdown(&report);
        assert!(
            md.contains("the bottleneck is now window"),
            "the new head must be named: {md}"
        );
    }

    #[test]
    fn share_growth_past_tolerance_fails() {
        let base = parse(&artifact("transform", 0.60, 0.40, 2.0));
        let cur = parse(&artifact("transform", 0.66, 0.34, 2.0));
        let report = diff_xray(base, cur);
        assert!(has_xray_regressions(&report));
        assert!(report.regressions[0].contains("`transform`"));
        // Growth inside tolerance passes.
        let base = parse(&artifact("transform", 0.60, 0.40, 2.0));
        let cur = parse(&artifact("transform", 0.64, 0.36, 2.0));
        assert!(!has_xray_regressions(&diff_xray(base, cur)));
    }

    #[test]
    fn bound_drop_past_tolerance_fails() {
        let base = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let cur = parse(&artifact("transform", 0.6, 0.4, 1.7));
        let report = diff_xray(base, cur);
        assert!(has_xray_regressions(&report));
        assert!(report.regressions[0].contains("speedup bound dropped"));
        // A 5% dip stays inside the 10% tolerance.
        let base = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let cur = parse(&artifact("transform", 0.6, 0.4, 1.9));
        assert!(!has_xray_regressions(&diff_xray(base, cur)));
    }

    #[test]
    fn truncated_current_fails_loudly() {
        let base = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let text = artifact("transform", 0.6, 0.4, 2.0)
            .replace("\"truncated\":false", "\"truncated\":true");
        let report = diff_xray(base, parse(&text));
        assert!(has_xray_regressions(&report));
        assert!(report.regressions[0].contains("truncated"));
        assert!(
            report.regressions[0].contains("genuine ring overflow"),
            "the verdict must say which case it is: {}",
            report.regressions[0]
        );
    }

    /// Injects a `sampling` section and truncation loss into a fixture:
    /// 64 of 4096 events kept (1/64 tail retention).
    fn sampled_artifact(effective_rate: f64) -> String {
        artifact("transform", 0.6, 0.4, 2.0)
            .replace("\"truncated\":false", "\"truncated\":true")
            .replace(
                "\"events\":{\"total\":4,\"dropped\":0}",
                &format!(
                    "\"events\":{{\"total\":4096,\"dropped\":4032}},\
                     \"sampling\":{{\"sampled\":true,\"effective_rate\":{effective_rate},\
                     \"estimated_roots\":64,\"estimated_events\":4096}}"
                ),
            )
    }

    #[test]
    fn truncation_explained_by_consistent_sampling_passes_with_note() {
        let base = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let cur = parse(&sampled_artifact(1.0 / 64.0));
        assert!(cur.sampled);
        assert!(cur.truncation_is_sampling());
        let report = diff_xray(base, cur);
        assert!(
            !has_xray_regressions(&report),
            "deliberate tail sampling must not fail the gate: {:?}",
            report.regressions
        );
        let md = render_xray_markdown(&report);
        assert!(
            md.contains("deliberate tail sampling, not ring overflow"),
            "the verdict must say which case it is: {md}"
        );
        assert!(md.contains("current report is sampled (effective rate 0.015625"));
    }

    #[test]
    fn truncation_with_inconsistent_rate_is_still_ring_overflow() {
        // Claims it kept half, but its own events say 1/64 survived:
        // the loss is not explained by the advertised sampling.
        let base = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let cur = parse(&sampled_artifact(0.5));
        assert!(!cur.truncation_is_sampling());
        let report = diff_xray(base, cur);
        assert!(has_xray_regressions(&report));
        assert!(
            report.regressions[0].contains("genuine ring overflow, not sampling"),
            "the verdict must say which case it is: {}",
            report.regressions[0]
        );
    }

    #[test]
    fn untruncated_sampled_report_gates_normally() {
        // Pure head sampling: unsampled events never reach the ring, so
        // truncated stays false and nothing special fires.
        let base = parse(&artifact("transform", 0.6, 0.4, 2.0));
        let text = artifact("transform", 0.6, 0.4, 2.0).replace(
            "\"events\":{\"total\":4,\"dropped\":0}",
            "\"events\":{\"total\":4,\"dropped\":0},\
             \"sampling\":{\"sampled\":true,\"effective_rate\":0.015625,\
             \"estimated_roots\":64,\"estimated_events\":256}",
        );
        let report = diff_xray(base, parse(&text));
        assert!(!has_xray_regressions(&report));
        assert!(report.notes.is_empty());
    }

    /// A lane-era artifact: measured section plus stage/lane blocked
    /// shares (shapes match what `augur-xray` renders).
    fn lane_artifact(efficiency: f64, stage_blocked: f64, lane_blocked: f64) -> String {
        format!(
            "{{\"xray\":\"t\",\"truncated\":false,\"events\":{{\"total\":4,\"dropped\":0}},\
             \"roots\":1,\"makespan_us\":100,\"work_us\":100,\"span_us\":100,\
             \"speedup\":{{\"work_span_bound\":1,\"stage_bound\":2,\
             \"parallel_speedup_bound\":2}},\
             \"measured\":{{\"lanes\":2,\"busy_us\":130,\"blocked_us\":20,\
             \"parallel_efficiency\":{efficiency}}},\"head\":\"produce\",\
             \"critical_path\":[{{\"name\":\"produce\",\"self_us\":100,\"count\":1,\
             \"share\":1.0}}],\
             \"stages\":[{{\"name\":\"produce\",\"count\":1,\"busy_us\":100,\
             \"arrival_per_s\":1,\"service_us\":100,\"utilization\":1,\
             \"queue_wait_us\":0,\"queue_wait_share\":0,\"blocked_us\":20,\
             \"blocked_share\":{stage_blocked}}}],\
             \"lanes\":[{{\"lane\":1,\"name\":\"producer-1\",\"busy_us\":80,\
             \"blocked_us\":20,\"dropped\":0,\"utilization\":0.8,\
             \"blocked_share\":{lane_blocked}}}],\"queues\":[]}}"
        )
    }

    #[test]
    fn efficiency_drop_past_tolerance_fails() {
        let base = parse(&lane_artifact(0.9, 0.0, 0.0));
        let cur = parse(&lane_artifact(0.7, 0.0, 0.0));
        let report = diff_xray(base, cur);
        assert!(has_xray_regressions(&report));
        assert!(report.regressions[0].contains("measured parallel efficiency dropped"));
        // A drop inside the 10% relative tolerance passes.
        let base = parse(&lane_artifact(0.9, 0.0, 0.0));
        let cur = parse(&lane_artifact(0.85, 0.0, 0.0));
        assert!(!has_xray_regressions(&diff_xray(base, cur)));
        let md = render_xray_markdown(&diff_xray(
            parse(&lane_artifact(0.9, 0.0, 0.0)),
            parse(&lane_artifact(0.85, 0.0, 0.0)),
        ));
        assert!(md.contains("measured parallel efficiency 0.85 (baseline 0.90)"));
    }

    #[test]
    fn blocked_share_growth_names_the_stage_and_lane() {
        let base = parse(&lane_artifact(0.9, 0.02, 0.02));
        let cur = parse(&lane_artifact(0.9, 0.30, 0.30));
        let report = diff_xray(base, cur);
        assert_eq!(report.regressions.len(), 2);
        assert!(
            report.regressions[0].contains("contention grew at stage produce"),
            "stage must be named: {:?}",
            report.regressions
        );
        assert!(
            report.regressions[1].contains("lane `producer-1` blocked share grew"),
            "lane must be named: {:?}",
            report.regressions
        );
        // Growth inside the 5 pt tolerance passes.
        let base = parse(&lane_artifact(0.9, 0.02, 0.02));
        let cur = parse(&lane_artifact(0.9, 0.06, 0.06));
        assert!(!has_xray_regressions(&diff_xray(base, cur)));
    }

    #[test]
    fn pre_lane_baseline_still_parses_and_skips_measured_gates() {
        // Old committed baseline: no measured/lanes/blocked fields.
        let base = parse(&artifact("produce", 1.0, 0.0, 2.0));
        assert_eq!(base.efficiency, None);
        assert!(base.lane_blocked.is_empty());
        // New current with an awful efficiency: no efficiency gate
        // fires (nothing to compare against), but blocked-share growth
        // still gates against an implicit zero baseline.
        let cur = parse(&lane_artifact(0.1, 0.0, 0.4));
        let report = diff_xray(base, cur);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].contains("lane `producer-1`"));
    }

    #[test]
    fn malformed_artifact_is_invalid_data() {
        let err = parse_xray_report("{\"xray\":\"t\"}")
            .err()
            .unwrap_or_else(|| unreachable!());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = parse_xray_report("not json")
            .err()
            .unwrap_or_else(|| unreachable!());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
