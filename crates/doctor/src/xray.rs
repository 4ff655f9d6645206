//! Xray reports (`*.xray.json`, rendered by `augur-xray`): how the
//! shape of the bottleneck moved.
//!
//! Reported, each only when it changed:
//!
//! - event accounting, truncation and sampling;
//! - the **head**, the heaviest critical-path frame: when it moves, the
//!   line names where it moved to (an injected one-stage slowdown must
//!   surface here by name);
//! - each stage's critical-path share;
//! - `parallel_speedup_bound`, the modeled pipelining ceiling;
//! - `measured.parallel_efficiency`, its counterpart from per-lane busy
//!   counters;
//! - each stage's and each worker lane's measured blocked share: growth
//!   is named as contention at that stage or a stall on that lane.

use std::collections::BTreeMap;
use std::io;

use augur_semantic::json::JsonValue;

/// The fields of one xray report that [`explain`] compares.
#[derive(Debug, Clone, PartialEq)]
pub struct XraySummary {
    /// Heaviest critical-path frame, `None` for an empty drain.
    pub head: Option<String>,
    /// The parallel speedup bound headline.
    pub bound: f64,
    /// Whether the drain behind the report dropped events.
    pub truncated: bool,
    /// `events.total` and `events.dropped` (0 when absent).
    pub events: (f64, f64),
    /// `sampling.sampled` and `sampling.effective_rate`, when present.
    pub sampling: Option<(bool, f64)>,
    /// Critical-path share per stage name.
    pub shares: BTreeMap<String, f64>,
    /// `measured.parallel_efficiency`, when present.
    pub efficiency: Option<f64>,
    /// Measured blocked share per stage name.
    pub stage_blocked: BTreeMap<String, f64>,
    /// Measured blocked share per lane name.
    pub lane_blocked: BTreeMap<String, f64>,
}

/// Parses the compared fields out of an xray report.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the text is not JSON or lacks
/// `truncated`, `speedup.parallel_speedup_bound`, `head` or a
/// well-formed `critical_path`.
pub fn parse_xray_report(text: &str) -> io::Result<XraySummary> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let doc = JsonValue::parse(text).map_err(|e| bad(format!("invalid JSON ({e})")))?;
    let truncated = match doc.field("truncated") {
        Ok(JsonValue::Bool(b)) => *b,
        _ => return Err(bad("truncated: expected a bool".to_string())),
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
        let name = frame.field("name").and_then(|v| v.as_str());
        let share = frame.field("share").and_then(|v| v.as_f64());
        match (name, share) {
            (Ok(name), Ok(share)) => shares.insert(name.to_string(), share),
            _ => return Err(bad("critical_path frame without name or share".to_string())),
        };
    }
    let number = |section: &str, key: &str| {
        doc.field(section)
            .and_then(|s| s.field(key))
            .and_then(|v| v.as_f64())
            .ok()
    };
    let sampled = match doc.field("sampling").and_then(|s| s.field("sampled")) {
        Ok(JsonValue::Bool(b)) => Some(*b),
        _ => None,
    };
    let blocked_by_name = |array: &str| {
        let mut out = BTreeMap::new();
        for row in doc.field(array).and_then(|v| v.as_array()).unwrap_or(&[]) {
            let name = row.field("name").and_then(|v| v.as_str());
            let share = row.field("blocked_share").and_then(|v| v.as_f64());
            if let (Ok(name), Ok(share)) = (name, share) {
                out.insert(name.to_string(), share);
            }
        }
        out
    };
    Ok(XraySummary {
        head,
        bound,
        truncated,
        events: (
            number("events", "total").unwrap_or(0.0),
            number("events", "dropped").unwrap_or(0.0),
        ),
        sampling: sampled.zip(number("sampling", "effective_rate")),
        shares,
        efficiency: number("measured", "parallel_efficiency"),
        stage_blocked: blocked_by_name("stages"),
        lane_blocked: blocked_by_name("lanes"),
    })
}

/// Percentage points of a share.
fn pct(share: f64) -> f64 {
    share * 100.0
}

/// `"grew"` or `"shrank"` for a move from `base` to `cur`.
fn moved(base: f64, cur: f64) -> &'static str {
    if cur > base {
        "grew"
    } else {
        "shrank"
    }
}

/// One line per blocked share that changed, naming `what` (`stage` or
/// `lane`) and, on growth, `cause(name)`.
fn blocked_changes(
    what: &str,
    base: &BTreeMap<String, f64>,
    cur: &BTreeMap<String, f64>,
    cause: impl Fn(&str) -> String,
    out: &mut Vec<String>,
) {
    let mut names: Vec<&String> = base.keys().chain(cur.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let b = base.get(name).copied().unwrap_or(0.0);
        let c = cur.get(name).copied().unwrap_or(0.0);
        if b == c {
            continue;
        }
        let mut line = format!(
            "- {what} `{name}` blocked share {} {:.1}% -> {:.1}%",
            moved(b, c),
            pct(b),
            pct(c)
        );
        if c > b {
            line.push_str(&format!(" — {}", cause(name)));
        }
        out.push(line);
    }
}

/// Explains how xray report `cur` differs from `base`. Empty when every
/// compared field is equal.
///
/// # Errors
///
/// [`parse_xray_report`]'s errors.
pub fn explain(base: &str, cur: &str) -> io::Result<Vec<String>> {
    let (base, cur) = (parse_xray_report(base)?, parse_xray_report(cur)?);
    let mut out = Vec::new();
    if (base.truncated, base.events) != (cur.truncated, cur.events) {
        out.push(format!(
            "- events: {} total, {} dropped, truncated {} (base {} total, {} dropped, truncated {})",
            cur.events.0, cur.events.1, cur.truncated, base.events.0, base.events.1, base.truncated
        ));
    }
    if base.sampling != cur.sampling {
        let show = |s: Option<(bool, f64)>| match s {
            Some((sampled, rate)) => format!("sampled {sampled} at rate {rate:.6}"),
            None => "no sampling section".to_string(),
        };
        out.push(format!(
            "- sampling: {} (base {})",
            show(cur.sampling),
            show(base.sampling)
        ));
    }
    if base.head != cur.head {
        let name = |h: &Option<String>| h.clone().unwrap_or_else(|| "(none)".to_string());
        out.push(format!(
            "- critical-path head moved: `{}` -> `{}` — the bottleneck is now {}",
            name(&base.head),
            name(&cur.head),
            name(&cur.head),
        ));
    }
    let mut stages: Vec<&String> = base.shares.keys().chain(cur.shares.keys()).collect();
    stages.sort();
    stages.dedup();
    let mut table = Vec::new();
    for stage in stages {
        let b = base.shares.get(stage).copied().unwrap_or(0.0);
        let c = cur.shares.get(stage).copied().unwrap_or(0.0);
        if b != c {
            table.push(format!(
                "| `{stage}` | {:.1}% | {:.1}% | {:+.1} pts |",
                pct(b),
                pct(c),
                pct(c - b)
            ));
        }
    }
    if !table.is_empty() {
        out.push(String::new());
        out.push("| stage | base share | current share | delta |".to_string());
        out.push("|---|---|---|---|".to_string());
        out.append(&mut table);
        out.push(String::new());
    }
    if base.bound != cur.bound {
        out.push(format!(
            "- parallel speedup bound {} {:.2}x -> {:.2}x",
            if cur.bound < base.bound {
                "dropped"
            } else {
                "rose"
            },
            base.bound,
            cur.bound
        ));
    }
    if let (Some(b), Some(c)) = (base.efficiency, cur.efficiency) {
        if b != c {
            let verb = if c < b { "dropped" } else { "rose" };
            out.push(format!(
                "- measured parallel efficiency {verb} {b:.2} -> {c:.2}"
            ));
        }
    }
    blocked_changes(
        "stage",
        &base.stage_blocked,
        &cur.stage_blocked,
        |s| format!("contention grew at stage {s}"),
        &mut out,
    );
    blocked_changes(
        "lane",
        &base.lane_blocked,
        &cur.lane_blocked,
        |l| format!("lane {l} is stalled"),
        &mut out,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(head: &str, head_share: f64, bound: f64) -> String {
        format!(
            "{{\"xray\":\"t\",\"truncated\":false,\"events\":{{\"total\":4,\"dropped\":0}},\
             \"speedup\":{{\"parallel_speedup_bound\":{bound}}},\"head\":\"{head}\",\
             \"critical_path\":[{{\"name\":\"{head}\",\"share\":{head_share}}},\
             {{\"name\":\"other\",\"share\":{}}}],\"stages\":[],\"queues\":[]}}",
            1.0 - head_share
        )
    }

    /// A report with a measured section and one stage and one lane.
    fn lane_artifact(efficiency: f64, stage_blocked: f64, lane_blocked: f64) -> String {
        format!(
            "{{\"xray\":\"t\",\"truncated\":false,\"speedup\":{{\"parallel_speedup_bound\":2}},\
             \"measured\":{{\"parallel_efficiency\":{efficiency}}},\"head\":\"produce\",\
             \"critical_path\":[{{\"name\":\"produce\",\"share\":1.0}}],\
             \"stages\":[{{\"name\":\"produce\",\"blocked_share\":{stage_blocked}}}],\
             \"lanes\":[{{\"name\":\"producer-1\",\"blocked_share\":{lane_blocked}}}]}}"
        )
    }

    fn explained(base: &str, cur: &str) -> String {
        explain(base, cur)
            .unwrap_or_else(|e| unreachable!("{e}"))
            .join("\n")
    }

    #[test]
    fn identical_reports_explain_nothing() {
        let a = artifact("transform", 0.6, 2.0);
        assert_eq!(explained(&a, &a), "");
    }

    #[test]
    fn a_head_change_names_the_new_head() {
        let text = explained(
            &artifact("transform", 0.6, 2.0),
            &artifact("window", 0.6, 2.0),
        );
        assert!(text.contains("the bottleneck is now window"), "{text}");
    }

    #[test]
    fn any_share_or_bound_change_is_listed() {
        let text = explained(
            &artifact("transform", 0.60, 2.0),
            &artifact("transform", 0.61, 1.9),
        );
        assert!(
            text.contains("| `transform` | 60.0% | 61.0% | +1.0 pts |"),
            "{text}"
        );
        assert!(
            text.contains("| `other` | 40.0% | 39.0% | -1.0 pts |"),
            "{text}"
        );
        assert!(
            text.contains("parallel speedup bound dropped 2.00x -> 1.90x"),
            "{text}"
        );
    }

    #[test]
    fn truncation_and_sampling_are_reported() {
        let base = artifact("transform", 0.6, 2.0);
        let cur = base
            .replace("\"truncated\":false", "\"truncated\":true")
            .replace(
                "\"dropped\":0}",
                "\"dropped\":3},\"sampling\":{\"sampled\":true,\"effective_rate\":0.25}",
            );
        let text = explained(&base, &cur);
        assert!(
            text.contains("4 total, 3 dropped, truncated true"),
            "{text}"
        );
        assert!(
            text.contains("sampled true at rate 0.250000 (base no sampling section)"),
            "{text}"
        );
    }

    #[test]
    fn measured_changes_name_the_stage_and_lane() {
        let text = explained(
            &lane_artifact(0.9, 0.02, 0.02),
            &lane_artifact(0.7, 0.30, 0.30),
        );
        assert!(
            text.contains("measured parallel efficiency dropped 0.90 -> 0.70"),
            "{text}"
        );
        assert!(text.contains("contention grew at stage produce"), "{text}");
        assert!(text.contains("lane producer-1 is stalled"), "{text}");
        let text = explained(
            &lane_artifact(0.7, 0.30, 0.30),
            &lane_artifact(0.9, 0.02, 0.02),
        );
        assert!(text.contains("efficiency rose"), "{text}");
        assert!(
            text.contains("lane `producer-1` blocked share shrank"),
            "{text}"
        );
        assert!(!text.contains("stalled"), "{text}");
    }

    #[test]
    fn malformed_artifact_is_invalid_data() {
        for text in ["{\"xray\":\"t\"}", "not json"] {
            let err = parse_xray_report(text).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
