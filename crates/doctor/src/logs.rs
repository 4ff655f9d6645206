//! Event logs (`.log.jsonl`, written by scenario runs and the watch
//! `/logs` tail): which WARN/ERROR patterns are novel or gone.
//!
//! A log reduces to a set of **pattern fingerprints**, `(level, message
//! with digit runs collapsed to '#')`, so messages that interpolate ids
//! or counts fold into one pattern. Same-seed runs write byte-identical
//! logs, so a novel WARN or ERROR pattern is a behaviour change, and a
//! gone one is too.

use std::collections::BTreeMap;
use std::io;

use augur_semantic::json::JsonValue;

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

/// Whether a record at this level is fingerprinted. Unknown level
/// strings are: a malformed or novel severity should show in the diff,
/// not slip past it.
fn fingerprinted(level: &str) -> bool {
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
/// number — a corrupt log artifact must not read as an unchanged one.
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
        if fingerprinted(&level) {
            *fingerprints
                .entry((level, normalize_pattern(msg)))
                .or_insert(0) += 1;
        }
    }
    Ok((fingerprints, scanned))
}

/// The fingerprints of `a` that `b` lacks; errors outrank warnings, and
/// ties keep pattern order.
fn only_in<'a>(
    a: &'a FingerprintCounts,
    b: &FingerprintCounts,
) -> Vec<(&'a (String, String), u64)> {
    let mut rows: Vec<_> = a
        .iter()
        .filter(|(key, _)| !b.contains_key(*key))
        .map(|(key, count)| (key, *count))
        .collect();
    rows.sort_by_key(|((level, _), _)| level != "error");
    rows
}

/// Explains how log `cur` differs from `base`: the WARN/ERROR patterns
/// only `cur` has (novel), those only `base` has (gone), and the record
/// count. Empty when none of these changed.
///
/// # Errors
///
/// [`extract_fingerprints`]'s errors.
pub fn explain(base: &str, cur: &str) -> io::Result<Vec<String>> {
    let (base_fps, base_records) = extract_fingerprints(base)?;
    let (cur_fps, cur_records) = extract_fingerprints(cur)?;
    let mut out = Vec::new();
    if base_records != cur_records {
        out.push(format!("- records: {base_records} -> {cur_records}"));
    }
    let novel = only_in(&cur_fps, &base_fps);
    if !novel.is_empty() {
        out.push(format!(
            "- **NOVEL PATTERNS**: {} WARN/ERROR pattern(s) absent from the base",
            novel.len()
        ));
        out.push(String::new());
        out.push("| level | novel pattern | count |".to_string());
        out.push("|---|---|---|".to_string());
        for ((level, pattern), count) in novel {
            out.push(format!("| {level} | `{pattern}` | {count} |"));
        }
        out.push(String::new());
    }
    for ((level, pattern), count) in only_in(&base_fps, &cur_fps) {
        out.push(format!("- gone: {level} `{pattern}` (base count {count})"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn novel_and_gone_patterns_are_named() {
        let base = format!(
            "{}{}",
            line("warn", "tourism/declutter_drop"),
            line("warn", "gone/forever")
        );
        let cur = format!(
            "{}{}",
            line("warn", "tourism/declutter_drop"),
            line("error", "store/corrupt_segment 9")
        );
        let text = explain(&base, &cur)
            .unwrap_or_else(|e| unreachable!("{e}"))
            .join("\n");
        assert!(text.contains("NOVEL PATTERNS**: 1 "), "{text}");
        assert!(
            text.contains("| error | `store/corrupt_segment #` | 1 |"),
            "{text}"
        );
        assert!(text.contains("- gone: warn `gone/forever`"), "{text}");
        assert!(!text.contains("records:"), "same record count: {text}");
    }

    #[test]
    fn digit_only_changes_explain_no_pattern() {
        let base = line("warn", "shard 3 stalled");
        let cur = line("warn", "shard 4 stalled");
        assert!(explain(&base, &cur)
            .unwrap_or_else(|e| unreachable!("{e}"))
            .is_empty());
    }

    #[test]
    fn malformed_logs_are_invalid_data() {
        // A record missing its msg is corrupt, not ignorable.
        for bad in ["not json\n", "{\"level\":\"warn\"}\n"] {
            let err = explain(&line("warn", "w"), bad)
                .err()
                .unwrap_or_else(|| unreachable!());
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
