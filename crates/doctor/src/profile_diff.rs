//! Folded profiles (`.folded`, collapsed stacks): where the time moved.
//!
//! Each path's self time is keyed by its leaf frame, and frames are
//! ranked by self-time delta, worst growth first, so a difference comes
//! with the stack frame that caused it.

use std::collections::BTreeMap;
use std::io;

/// One frame's self-time movement between two profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDelta {
    /// Frame (span) name.
    pub name: String,
    /// Self time in the baseline profile, microseconds.
    pub baseline_us: u64,
    /// Self time in the current profile, microseconds.
    pub current_us: u64,
    /// `current - baseline` (negative = improvement).
    pub delta_us: i64,
}

impl FrameDelta {
    /// Relative change against the baseline (`delta / baseline`);
    /// a frame appearing from nothing reports `f64::INFINITY`.
    pub fn ratio(&self) -> f64 {
        if self.baseline_us == 0 {
            if self.delta_us == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.delta_us as f64 / self.baseline_us as f64
        }
    }
}

/// Parses collapsed-stack text (`path<space>value` per line) into a
/// stack → weight map. Duplicate paths accumulate; blank lines are
/// skipped.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] naming the line when a non-blank line
/// has no space-separated trailing integer, or when a weight or the
/// running total exceeds `i64::MAX`. That bound keeps every per-frame
/// sum, and so every signed delta [`diff_folded`] takes, exact.
fn parse_folded(text: &str) -> io::Result<BTreeMap<String, u64>> {
    let mut stacks = BTreeMap::new();
    let mut total = 0u64;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed folded stack at line {}: {what}", i + 1),
            )
        };
        let (path, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| bad("expected `path<space>integer`"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| bad("expected `path<space>integer`"))?;
        total = total
            .checked_add(value)
            .filter(|t| i64::try_from(*t).is_ok())
            .ok_or_else(|| bad("total weight exceeds i64::MAX"))?;
        *stacks.entry(path.to_string()).or_insert(0u64) += value;
    }
    Ok(stacks)
}

/// Collapses a stack map to per-frame self time, keyed by each path's
/// leaf frame.
fn frame_self_times(stacks: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let mut frames = BTreeMap::new();
    for (path, weight) in stacks {
        let leaf = path.rsplit(';').next().unwrap_or(path);
        *frames.entry(leaf.to_string()).or_insert(0u64) += weight;
    }
    frames
}

/// Diffs two parsed stack maps, returning every frame present in either
/// profile ranked by self-time delta, worst regression first (ties
/// broken by name). [`parse_folded`] bounds each map's total by
/// `i64::MAX`, so the signed deltas are exact.
fn diff_folded(
    baseline: &BTreeMap<String, u64>,
    current: &BTreeMap<String, u64>,
) -> Vec<FrameDelta> {
    let base_frames = frame_self_times(baseline);
    let cur_frames = frame_self_times(current);
    let mut names: Vec<&String> = base_frames.keys().collect();
    for name in cur_frames.keys() {
        if !base_frames.contains_key(name) {
            names.push(name);
        }
    }
    let mut out: Vec<FrameDelta> = names
        .into_iter()
        .map(|name| {
            let baseline_us = base_frames.get(name).copied().unwrap_or(0);
            let current_us = cur_frames.get(name).copied().unwrap_or(0);
            FrameDelta {
                name: name.clone(),
                baseline_us,
                current_us,
                delta_us: current_us as i64 - baseline_us as i64,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.delta_us
            .cmp(&a.delta_us)
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// Explains how folded profile `cur` differs from `base`: every frame
/// whose self time changed, worst growth first, and the worst frame by
/// name. Empty when no frame's self time changed.
///
/// # Errors
///
/// Malformed folded input (including a weight or total above
/// `i64::MAX`) as [`io::ErrorKind::InvalidData`] naming the line.
pub fn explain(base: &str, cur: &str) -> io::Result<Vec<String>> {
    let deltas: Vec<FrameDelta> = diff_folded(&parse_folded(base)?, &parse_folded(cur)?)
        .into_iter()
        .filter(|d| d.delta_us != 0)
        .collect();
    let Some(first) = deltas.first() else {
        return Ok(Vec::new());
    };
    let worst = if first.delta_us > 0 {
        format!("worst: `{}` ({:+} µs)", first.name, first.delta_us)
    } else {
        "none grew".to_string()
    };
    let mut out = vec![
        "| frame | base µs | current µs | delta µs | delta % |".to_string(),
        "|---|---:|---:|---:|---:|".to_string(),
    ];
    for d in &deltas {
        let pct = if d.ratio().is_infinite() {
            String::from("new")
        } else {
            format!("{:+.1}%", d.ratio() * 100.0)
        };
        out.push(format!(
            "| `{}` | {} | {} | {:+} | {} |",
            d.name, d.baseline_us, d.current_us, d.delta_us, pct
        ));
    }
    out.push(String::new());
    out.push(format!(
        "{} frame(s) changed self time; {worst}",
        deltas.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(text: &str) -> BTreeMap<String, u64> {
        parse_folded(text).unwrap_or_else(|e| unreachable!("{e}"))
    }

    fn parse_error(text: &str) -> String {
        let err = parse_folded(text)
            .err()
            .unwrap_or_else(|| unreachable!("{text:?} must be rejected"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn parse_accumulates_and_rejects_garbage() {
        let stacks = parsed("a;b 10\na;b 5\nroot 3\n\n");
        assert_eq!(stacks.get("a;b"), Some(&15));
        assert_eq!(stacks.get("root"), Some(&3));
        assert!(parse_error("nospace\n").contains("line 1"));
        assert!(parse_error("ok 1\na;b ten\n").contains("line 2"));
    }

    #[test]
    fn parse_rejects_weights_past_i64_max() {
        let max = i64::MAX as u64;
        assert_eq!(parsed(&format!("a {max}\n")).get("a"), Some(&max));
        // 2^63 would cast to a negative delta and read as an improvement.
        let err = parse_error(&format!("run 1\nrun;hog {}\n", max + 1));
        assert!(err.contains("line 2") && err.contains("i64::MAX"), "{err}");
        // So would two weights that only overflow once summed.
        let err = parse_error(&format!("a {max}\nb 0\nc 1\n"));
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn diff_ranks_worst_regression_first() {
        let base = parsed("run 100\nrun;slow 50\nrun;fast 50\n");
        let cur = parsed("run 100\nrun;slow 450\nrun;fast 45\n");
        let deltas = diff_folded(&base, &cur);
        assert_eq!(deltas[0].name, "slow");
        assert_eq!(deltas[0].delta_us, 400);
        assert!((deltas[0].ratio() - 8.0).abs() < 1e-9);
        let fast = deltas
            .iter()
            .find(|d| d.name == "fast")
            .unwrap_or_else(|| unreachable!());
        assert_eq!(fast.delta_us, -5);
    }

    #[test]
    fn frames_new_and_gone_are_reported() {
        let deltas = diff_folded(&parsed("a 10\n"), &parsed("b 10\n"));
        assert_eq!(deltas[0].name, "b");
        assert!(deltas[0].ratio().is_infinite());
        assert_eq!(deltas[1].name, "a");
        assert_eq!(deltas[1].delta_us, -10);
    }

    #[test]
    fn explain_lists_changed_frames_worst_first() {
        let base = "run 1000\nrun;slow 500\nrun;same 7\nrun;noise 500\n";
        let cur = "run 1000\nrun;slow 800\nrun;same 7\nrun;noise 490\n";
        let lines = explain(base, cur).unwrap_or_else(|e| unreachable!("{e}"));
        assert_eq!(lines[2], "| `slow` | 500 | 800 | +300 | +60.0% |");
        assert_eq!(lines[3], "| `noise` | 500 | 490 | -10 | -2.0% |");
        assert_eq!(lines.len(), 6, "unchanged frames are left out: {lines:?}");
        assert_eq!(
            lines[5],
            "2 frame(s) changed self time; worst: `slow` (+300 µs)"
        );
        let lines = explain("a 5\n", "a 3\n").unwrap_or_else(|e| unreachable!("{e}"));
        assert_eq!(lines[4], "1 frame(s) changed self time; none grew");
    }

    #[test]
    fn equal_self_times_explain_nothing() {
        // Reordered lines fold to the same frames.
        let lines = explain("a 1\nb 2\n", "b 2\na 1\n").unwrap_or_else(|e| unreachable!("{e}"));
        assert!(lines.is_empty());
    }

    #[test]
    fn malformed_input_is_invalid_data() {
        let err = explain("not-a-profile\n", "run 10\n")
            .err()
            .unwrap_or_else(|| unreachable!());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
