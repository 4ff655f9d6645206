//! JSONL and human-readable log exporters.
//!
//! ## Determinism contract
//!
//! [`render_jsonl`] is the byte-identity surface CI diffs: it sorts
//! records into **canonical order** — ascending `ts_us`, then the fully
//! rendered line as a total tiebreak — before rendering. Concurrent
//! producers may win ring tickets in any interleaving, but the *set* of
//! admitted records under a seed + `ManualTime` timeline is fixed, so
//! the sorted output is byte-for-byte identical at any thread count
//! (asserted by `tests/log_determinism.rs`).

use std::fmt::Write as _;

use crate::export::{escape_json, json_f64};

use super::ring::{FieldValue, LogRecord};

/// Renders one record as a single JSONL object (no trailing newline):
/// `{"ts_us":…,"level":"…","msg":"…","trace_id":"%016x","span_id":"%016x","fields":{…}}`.
pub fn render_jsonl_line(r: &LogRecord) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"ts_us\":{},\"level\":\"{}\",\"msg\":\"{}\",\"trace_id\":\"{:016x}\",\
         \"span_id\":\"{:016x}\",\"fields\":{{",
        r.ts_us,
        r.level,
        escape_json(&r.msg),
        r.trace_id,
        r.span_id
    );
    for (i, (key, value)) in r.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape_json(key));
        push_value_json(&mut out, value);
    }
    out.push_str("}}");
    out
}

fn push_value_json(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) => out.push_str(&json_f64(*v)),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(s) => {
            let _ = write!(out, "\"{}\"", escape_json(s));
        }
    }
}

/// Sorts records into the canonical export order (see module docs).
pub fn canonical_order(records: &mut Vec<LogRecord>) {
    let mut keyed: Vec<(u64, String, LogRecord)> = records
        .drain(..)
        .map(|r| (r.ts_us, render_jsonl_line(&r), r))
        .collect();
    keyed.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    records.extend(keyed.into_iter().map(|(_, _, r)| r));
}

/// Renders records as a JSONL document in canonical order, one object
/// per line, with a trailing newline (empty input renders empty).
pub fn render_jsonl(records: &[LogRecord]) -> String {
    let mut lines: Vec<(u64, String)> = records
        .iter()
        .map(|r| (r.ts_us, render_jsonl_line(r)))
        .collect();
    lines.sort();
    let mut out = String::new();
    for (_, line) in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders records as an aligned human-readable listing in canonical
/// order: `[  ts_us] LEVEL message key=value … (trace=… span=…)`.
pub fn render_human(records: &[LogRecord]) -> String {
    let mut sorted: Vec<LogRecord> = records.to_vec();
    canonical_order(&mut sorted);
    let mut out = String::new();
    for r in &sorted {
        let _ = write!(
            out,
            "[{:>10}µs] {:<5} {}",
            r.ts_us,
            r.level.as_str().to_ascii_uppercase(),
            r.msg
        );
        for (key, value) in &r.fields {
            out.push(' ');
            out.push_str(key);
            out.push('=');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => out.push_str(&json_f64(*v)),
                FieldValue::Bool(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::Str(s) => {
                    let _ = write!(out, "{s:?}");
                }
            }
        }
        let _ = writeln!(out, " (trace={:016x} span={:016x})", r.trace_id, r.span_id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::level::Level;

    fn record(ts_us: u64, msg: &str) -> LogRecord {
        LogRecord {
            ts_us,
            level: Level::Info,
            msg: msg.to_string(),
            trace_id: 0xabc,
            span_id: 0xdef,
            fields: vec![
                ("count".into(), FieldValue::U64(3)),
                ("ratio".into(), FieldValue::F64(0.5)),
                ("mode".into(), FieldValue::Str("x\"y".into())),
            ],
        }
    }

    #[test]
    fn jsonl_lines_are_valid_escaped_json() {
        let line = render_jsonl_line(&record(42, "msg \"quoted\"\n"));
        assert!(line.starts_with("{\"ts_us\":42,\"level\":\"info\""));
        assert!(line.contains("\"msg\":\"msg \\\"quoted\\\"\\n\""));
        assert!(line.contains("\"trace_id\":\"0000000000000abc\""));
        assert!(line.contains("\"count\":3"));
        assert!(line.contains("\"ratio\":0.5"));
        assert!(line.contains("\"mode\":\"x\\\"y\""));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn rendering_sorts_canonically_and_is_pure() {
        let records = vec![record(20, "b"), record(10, "z"), record(20, "a")];
        let doc = render_jsonl(&records);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"msg\":\"z\""), "ts order first");
        assert!(lines[1].contains("\"msg\":\"a\""), "line order breaks ties");
        assert!(lines[2].contains("\"msg\":\"b\""));
        assert_eq!(doc, render_jsonl(&records), "pure function of records");
        let mut shuffled = vec![record(20, "a"), record(20, "b"), record(10, "z")];
        canonical_order(&mut shuffled);
        assert_eq!(render_jsonl(&shuffled), doc, "order-independent");
    }

    #[test]
    fn human_rendering_includes_fields_and_ids() {
        let text = render_human(&[record(7, "hello")]);
        assert!(text.contains("INFO  hello"));
        assert!(text.contains("count=3"));
        assert!(text.contains("mode=\"x\\\"y\""));
        assert!(text.contains("span=0000000000000def"));
    }
}
