//! Log-fingerprint mode (`--logs`): novel-error-pattern detection.
//!
//! The pairwise gate watches *metrics*; this mode watches the
//! *narrative*. It reduces a JSONL event log (the artifact a scenario
//! run with an event log attached to its `Obs`, and the watch `/logs`
//! tail, emit) to a set of WARN/ERROR
//! **pattern fingerprints** — `(level, message with digit runs
//! collapsed to '#')` — and diffs that set against a committed
//! baseline. A pattern the baseline has never seen fails the gate:
//! because same-seed runs produce byte-identical logs, a novel WARN or
//! ERROR line is a behaviour change, not noise. Patterns the baseline
//! expects but the run no longer produces are reported as stale so the
//! baseline can be re-tightened, but they never fail CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use augur_semantic::json::JsonValue;
use augur_telemetry::escape_json;

/// One WARN/ERROR message pattern with its occurrence count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogFingerprint {
    /// Lowercase level string (`warn`, `error`).
    pub level: String,
    /// Message with every digit run collapsed to `#`.
    pub pattern: String,
    /// Occurrences in the scanned log (informational — counts drift
    /// with workload shape and never gate).
    pub count: u64,
}

/// Outcome of diffing a log's fingerprints against the baseline.
#[derive(Debug, Clone)]
pub struct LogGateReport {
    /// Patterns in the current log the baseline has never seen — each
    /// one fails the gate.
    pub novel: Vec<LogFingerprint>,
    /// Baseline patterns the current log no longer produces —
    /// informational, a prompt to tighten the baseline.
    pub stale: Vec<LogFingerprint>,
    /// Patterns present on both sides, with current counts.
    pub matched: Vec<LogFingerprint>,
    /// Total records scanned (all levels, gate-relevant or not).
    pub scanned: u64,
}

/// Collapses every run of ASCII digits in `msg` to a single `#`, so
/// messages that interpolate ids or counts fold into one pattern.
pub fn normalize_pattern(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    let mut in_digits = false;
    for c in msg.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
            }
            in_digits = true;
        } else {
            out.push(c);
            in_digits = false;
        }
    }
    out
}

/// Whether a record at this level participates in the gate. Unknown
/// level strings are treated as gate-relevant: a malformed or novel
/// severity should trip the diff, not slip past it.
fn gate_relevant(level: &str) -> bool {
    !matches!(level, "trace" | "debug" | "info")
}

/// Fingerprint counts keyed by `(level, normalized pattern)`.
pub type FingerprintCounts = BTreeMap<(String, String), u64>;

/// Reduces a JSONL log to `(level, pattern) -> count` fingerprints,
/// also returning the total record count scanned.
///
/// # Errors
///
/// A line that is not a JSON object with string `level` and `msg`
/// fields surfaces as [`io::ErrorKind::InvalidData`] with its line
/// number — a corrupt log artifact must not silently pass the gate.
pub fn extract_fingerprints(jsonl: &str) -> io::Result<(FingerprintCounts, u64)> {
    let mut fingerprints = BTreeMap::new();
    let mut scanned = 0u64;
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {what}", idx + 1),
            )
        };
        let value = JsonValue::parse(line).map_err(|e| bad(&format!("invalid JSON ({e})")))?;
        let level = value
            .field("level")
            .and_then(|v| v.as_str())
            .map_err(|e| bad(&format!("missing level ({e})")))?
            .to_ascii_lowercase();
        let msg = value
            .field("msg")
            .and_then(|v| v.as_str())
            .map_err(|e| bad(&format!("missing msg ({e})")))?;
        scanned += 1;
        if gate_relevant(&level) {
            *fingerprints
                .entry((level, normalize_pattern(msg)))
                .or_insert(0) += 1;
        }
    }
    Ok((fingerprints, scanned))
}

/// Parses a baseline fingerprint file (the JSON `render_baseline_json`
/// writes) back into the fingerprint map.
///
/// # Errors
///
/// Shape mismatches surface as [`io::ErrorKind::InvalidData`].
pub fn parse_baseline_json(text: &str) -> io::Result<FingerprintCounts> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let doc = JsonValue::parse(text).map_err(|e| bad(format!("invalid JSON ({e})")))?;
    let entries = doc
        .field("fingerprints")
        .and_then(|v| v.as_array())
        .map_err(|e| bad(format!("missing fingerprints array ({e})")))?;
    let mut out = BTreeMap::new();
    for entry in entries {
        let level = entry
            .field("level")
            .and_then(|v| v.as_str())
            .map_err(|e| bad(format!("fingerprint missing level ({e})")))?;
        let pattern = entry
            .field("pattern")
            .and_then(|v| v.as_str())
            .map_err(|e| bad(format!("fingerprint missing pattern ({e})")))?;
        let count = entry.field("count").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        out.insert((level.to_string(), pattern.to_string()), count);
    }
    Ok(out)
}

/// Renders a fingerprint map in the committed-baseline format (sorted,
/// one fingerprint per line — diff-friendly under version control).
pub fn render_baseline_json(fingerprints: &FingerprintCounts) -> String {
    let mut out = String::from("{\n  \"fingerprints\": [\n");
    for (i, ((level, pattern), count)) in fingerprints.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "    {{\"level\": \"{}\", \"pattern\": \"{}\", \"count\": {count}}}",
            escape_json(level),
            escape_json(pattern)
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Diffs the WARN/ERROR fingerprints of `current` (a JSONL log) against
/// `baseline` (a committed fingerprint JSON).
///
/// # Errors
///
/// I/O errors reading either file; malformed content surfaces as
/// [`io::ErrorKind::InvalidData`] naming the offending file.
pub fn run_log_gate(current: &Path, baseline: &Path) -> io::Result<LogGateReport> {
    let label =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let jsonl = std::fs::read_to_string(current).map_err(|e| label(current, e))?;
    let (cur, scanned) = extract_fingerprints(&jsonl).map_err(|e| label(current, e))?;
    let base_text = std::fs::read_to_string(baseline).map_err(|e| label(baseline, e))?;
    let base = parse_baseline_json(&base_text).map_err(|e| label(baseline, e))?;
    let fp = |(level, pattern): &(String, String), count: u64| LogFingerprint {
        level: level.clone(),
        pattern: pattern.clone(),
        count,
    };
    let mut report = LogGateReport {
        novel: Vec::new(),
        stale: Vec::new(),
        matched: Vec::new(),
        scanned,
    };
    for (key, &count) in &cur {
        if base.contains_key(key) {
            report.matched.push(fp(key, count));
        } else {
            report.novel.push(fp(key, count));
        }
    }
    for (key, &count) in &base {
        if !cur.contains_key(key) {
            report.stale.push(fp(key, count));
        }
    }
    // Errors outrank warnings within each section; ties sort by pattern
    // (BTreeMap iteration already gave pattern order within a level).
    let rank = |f: &LogFingerprint| (if f.level == "error" { 0 } else { 1 }, f.pattern.clone());
    report.novel.sort_by_key(rank);
    report.stale.sort_by_key(rank);
    Ok(report)
}

/// True when any current pattern is absent from the baseline.
pub fn has_novel_patterns(report: &LogGateReport) -> bool {
    !report.novel.is_empty()
}

/// Renders the gate verdict: novel patterns (failures) first, then
/// stale baseline entries and the matched summary.
pub fn render_log_gate_markdown(report: &LogGateReport) -> String {
    let mut out = String::from("# augur-doctor log gate\n\n");
    let _ = writeln!(
        out,
        "{} record(s) scanned; {} pattern(s) matched the baseline.\n",
        report.scanned,
        report.matched.len()
    );
    if report.novel.is_empty() {
        out.push_str("No novel WARN/ERROR patterns.\n");
    } else {
        out.push_str("| level | novel pattern | count |\n|---|---|---|\n");
        for f in &report.novel {
            let _ = writeln!(out, "| {} | `{}` | {} |", f.level, f.pattern, f.count);
        }
        let _ = writeln!(
            out,
            "\n**NOVEL PATTERNS**: {} WARN/ERROR pattern(s) absent from the baseline",
            report.novel.len()
        );
    }
    if !report.stale.is_empty() {
        out.push_str("\nStale baseline entries (no longer produced — consider removing):\n");
        for f in &report.stale {
            let _ = writeln!(out, "- {} `{}`", f.level, f.pattern);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("augur-doctor-log-gate-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap_or_else(|e| unreachable!("{e}"));
        path
    }

    fn line(level: &str, msg: &str) -> String {
        format!(
            "{{\"ts_us\":1,\"level\":\"{level}\",\"msg\":\"{msg}\",\
             \"trace_id\":\"0000000000000001\",\"span_id\":\"0000000000000002\",\"fields\":{{}}}}\n"
        )
    }

    #[test]
    fn digit_runs_collapse_to_one_pattern() {
        assert_eq!(
            normalize_pattern("shard 17 stalled 250ms"),
            "shard # stalled #ms"
        );
        assert_eq!(normalize_pattern("no digits"), "no digits");
        let jsonl = format!(
            "{}{}{}",
            line("warn", "shard 3 stalled"),
            line("warn", "shard 12 stalled"),
            line("info", "shard 12 ok")
        );
        let (fps, scanned) = extract_fingerprints(&jsonl).unwrap_or_else(|e| unreachable!("{e}"));
        assert_eq!(scanned, 3, "info records scan but do not fingerprint");
        assert_eq!(
            fps.get(&("warn".to_string(), "shard # stalled".to_string())),
            Some(&2)
        );
        assert_eq!(fps.len(), 1);
    }

    #[test]
    fn novel_error_pattern_fails_and_stale_is_reported() {
        let baseline_fps = BTreeMap::from([
            (
                ("warn".to_string(), "tourism/declutter_drop".to_string()),
                4,
            ),
            (("warn".to_string(), "gone/forever".to_string()), 1),
        ]);
        let baseline = write_tmp("base.json", &render_baseline_json(&baseline_fps));
        let current = write_tmp(
            "cur.jsonl",
            &format!(
                "{}{}",
                line("warn", "tourism/declutter_drop"),
                line("error", "store/corrupt_segment 9")
            ),
        );
        let report = run_log_gate(&current, &baseline).unwrap_or_else(|e| unreachable!("{e}"));
        assert!(has_novel_patterns(&report));
        assert_eq!(report.novel.len(), 1);
        assert_eq!(report.novel[0].level, "error");
        assert_eq!(report.novel[0].pattern, "store/corrupt_segment #");
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.stale[0].pattern, "gone/forever");
        assert_eq!(report.matched.len(), 1);
        let md = render_log_gate_markdown(&report);
        assert!(md.contains("store/corrupt_segment #"), "{md}");
        assert!(md.contains("NOVEL PATTERNS"), "{md}");
        assert!(md.contains("gone/forever"), "{md}");
    }

    #[test]
    fn clean_log_against_its_own_baseline_passes() {
        let jsonl = format!(
            "{}{}",
            line("warn", "pipeline/late_drop"),
            line("info", "tourism/summary")
        );
        let (fps, _) = extract_fingerprints(&jsonl).unwrap_or_else(|e| unreachable!("{e}"));
        let baseline = write_tmp("self.json", &render_baseline_json(&fps));
        let current = write_tmp("self.jsonl", &jsonl);
        let report = run_log_gate(&current, &baseline).unwrap_or_else(|e| unreachable!("{e}"));
        assert!(!has_novel_patterns(&report));
        assert!(report.stale.is_empty());
        assert!(render_log_gate_markdown(&report).contains("No novel WARN/ERROR patterns."));
    }

    #[test]
    fn baseline_json_round_trips() {
        let fps = BTreeMap::from([
            (("error".to_string(), "x \"quoted\"".to_string()), 7),
            (("warn".to_string(), "y".to_string()), 1),
        ]);
        let text = render_baseline_json(&fps);
        let parsed = parse_baseline_json(&text).unwrap_or_else(|e| unreachable!("{e}"));
        assert_eq!(parsed, fps);
    }

    #[test]
    fn malformed_inputs_are_invalid_data() {
        let bad_log = write_tmp("bad.jsonl", "not json\n");
        let ok_base = write_tmp("ok.json", "{\"fingerprints\": []}\n");
        let err = run_log_gate(&bad_log, &ok_base)
            .err()
            .unwrap_or_else(|| unreachable!());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let ok_log = write_tmp("ok.jsonl", &line("warn", "w"));
        let bad_base = write_tmp("bad.json", "{\"nope\": []}\n");
        let err = run_log_gate(&ok_log, &bad_base)
            .err()
            .unwrap_or_else(|| unreachable!());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A record missing its msg is corrupt, not ignorable.
        let no_msg = write_tmp("nomsg.jsonl", "{\"level\":\"warn\"}\n");
        let err = run_log_gate(&no_msg, &ok_base)
            .err()
            .unwrap_or_else(|| unreachable!());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
