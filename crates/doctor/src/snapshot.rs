//! Bench snapshots (`{"bench", "params", "metrics"}`, written by
//! `augur-bench`): which params changed, and which metrics changed,
//! appeared or disappeared.

use std::collections::BTreeMap;
use std::io;

use augur_semantic::json::JsonValue;

/// One parsed bench snapshot: name, parameters, and a flat metric map
/// keyed `name{label=value,...}`; each histogram contributes one
/// `key.<stat>` entry per numeric field (`count`, `sum`, `p95`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// The bench name (output file stem).
    pub bench: String,
    /// Rendered parameter values by name.
    pub params: BTreeMap<String, String>,
    /// Flat metric samples.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses one snapshot document.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the text is not JSON or lacks a
/// snapshot field.
pub fn parse_snapshot(text: &str) -> io::Result<BenchDoc> {
    parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))
}

fn parse(text: &str) -> Result<BenchDoc, augur_semantic::SemanticError> {
    let doc = JsonValue::parse(text)?;
    let bench = doc.field("bench")?.as_str()?.to_string();
    let mut params = BTreeMap::new();
    for (k, v) in doc.field("params")?.as_object()? {
        params.insert(k.clone(), v.to_json());
    }
    let metrics_doc = doc.field("metrics")?;
    let mut metrics = BTreeMap::new();
    for series in ["counters", "gauges"] {
        for entry in metrics_doc.field(series)?.as_array()? {
            metrics.insert(metric_key(entry)?, entry.field("value")?.as_f64()?);
        }
    }
    for entry in metrics_doc.field("histograms")?.as_array()? {
        let key = metric_key(entry)?;
        for (stat, v) in entry.as_object()? {
            if let Ok(v) = v.as_f64() {
                metrics.insert(format!("{key}.{stat}"), v);
            }
        }
    }
    Ok(BenchDoc {
        bench,
        params,
        metrics,
    })
}

/// Renders an entry's `name{labels}` identity key.
fn metric_key(entry: &JsonValue) -> Result<String, augur_semantic::SemanticError> {
    let name = entry.field("name")?.as_str()?;
    let labels = entry.field("labels")?.as_object()?;
    if labels.is_empty() {
        return Ok(name.to_string());
    }
    let labels: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", v.to_json()))
        .collect();
    Ok(format!("{name}{{{}}}", labels.join(",")))
}

/// One line per key whose value differs between `base` and `cur`.
fn changes<V: PartialEq + std::fmt::Display>(
    what: &str,
    base: &BTreeMap<String, V>,
    cur: &BTreeMap<String, V>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (key, b) in base {
        out.push(match cur.get(key) {
            Some(c) if c == b => continue,
            Some(c) => format!("- {what} `{key}`: {b} -> {c}"),
            None => format!("- {what} `{key}`: removed (was {b})"),
        });
    }
    for (key, c) in cur {
        if !base.contains_key(key) {
            out.push(format!("- {what} `{key}`: added ({c})"));
        }
    }
    out
}

/// Explains how snapshot `cur` differs from `base`: the bench name, then
/// params, then metrics. Empty when the parsed documents are equal.
///
/// # Errors
///
/// [`parse_snapshot`]'s errors.
pub fn explain(base: &str, cur: &str) -> io::Result<Vec<String>> {
    let (base, cur) = (parse_snapshot(base)?, parse_snapshot(cur)?);
    let mut out = Vec::new();
    if base.bench != cur.bench {
        out.push(format!("- bench `{}` -> `{}`", base.bench, cur.bench));
    }
    out.extend(changes("param", &base.params, &cur.params));
    out.extend(changes("metric", &base.metrics, &cur.metrics));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(events: u32, p95: f64, extra: &str) -> String {
        format!(
            concat!(
                "{{\"bench\":\"e_test\",\"params\":{{\"events\":{}}},\"metrics\":{{",
                "\"counters\":[{{\"name\":\"records_total\",\"labels\":{{\"topic\":\"t\"}},\"value\":7}}{}],",
                "\"gauges\":[],",
                "\"histograms\":[{{\"name\":\"latency_us\",\"labels\":{{}},",
                "\"count\":10,\"sum\":500,\"p95\":{}}}]}}}}"
            ),
            events, extra, p95
        )
    }

    #[test]
    fn equal_documents_explain_nothing() {
        let text = snapshot(100, 80.0, "");
        assert_eq!(explain(&text, &text).unwrap(), Vec::<String>::new());
        // Formatting alone is no change.
        let spaced = text.replace(",\"gauges\"", ", \"gauges\"");
        assert_eq!(explain(&text, &spaced).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn params_and_metrics_are_named() {
        let base = snapshot(100, 80.0, ",{\"name\":\"gone\",\"labels\":{},\"value\":1}");
        let cur = snapshot(200, 95.0, ",{\"name\":\"new\",\"labels\":{},\"value\":2}");
        assert_eq!(
            explain(&base, &cur).unwrap(),
            [
                "- param `events`: 100 -> 200",
                "- metric `gone`: removed (was 1)",
                "- metric `latency_us.p95`: 80 -> 95",
                "- metric `new`: added (2)",
            ]
        );
    }

    #[test]
    fn labels_are_part_of_the_key() {
        let doc = parse_snapshot(&snapshot(1, 1.0, "")).unwrap();
        assert_eq!(doc.metrics.get("records_total{topic=\"t\"}"), Some(&7.0));
        assert_eq!(doc.metrics.get("latency_us.count"), Some(&10.0));
    }

    #[test]
    fn a_non_snapshot_is_invalid_data() {
        for text in ["[]", "not json", "{\"bench\":\"x\"}"] {
            let err = parse_snapshot(text).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text}");
        }
    }
}
