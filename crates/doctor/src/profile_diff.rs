//! Differential-profile mode (`--profile-diff`): regression
//! localization.
//!
//! The pairwise and trend gates answer *whether* a bench regressed;
//! this mode answers *where*. Given two folded-stack profiles (the
//! `.folded` files of `--artifacts` bundles), it ranks every frame by
//! exclusive self-time delta and fails — naming the frame — when the
//! worst movement exceeds the latency tolerance the snapshot gate
//! already uses. A failing doctor verdict thus comes with the stack
//! frame that caused it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::Tolerances;

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

/// Outcome of diffing two folded profiles.
#[derive(Debug, Clone)]
pub struct ProfileDiffReport {
    /// Every frame present in either profile, worst regression first.
    pub deltas: Vec<FrameDelta>,
    /// Names of frames whose self-time growth exceeds the latency
    /// tolerance, in delta order (worst first).
    pub regressed: Vec<String>,
}

/// Diffs `baseline` against `current` (both folded-stack files),
/// gating each frame's self-time growth on `tol.latency`.
///
/// # Errors
///
/// I/O errors reading either file; malformed folded input (including a
/// weight or total above `i64::MAX`) surfaces as
/// [`io::ErrorKind::InvalidData`] naming the file and line.
pub fn run_profile_diff(
    baseline: &Path,
    current: &Path,
    tol: &Tolerances,
) -> io::Result<ProfileDiffReport> {
    let parse = |path: &Path| -> io::Result<_> {
        let text = std::fs::read_to_string(path)?;
        parse_folded(&text)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    };
    let base = parse(baseline)?;
    let cur = parse(current)?;
    let deltas = diff_folded(&base, &cur);
    let regressed = deltas
        .iter()
        .filter(|d| d.delta_us > 0 && !tol.latency.allows(d.baseline_us as f64, d.delta_us as f64))
        .map(|d| d.name.clone())
        .collect();
    Ok(ProfileDiffReport { deltas, regressed })
}

/// True when any frame's growth breaks the tolerance.
pub fn has_profile_regressions(report: &ProfileDiffReport) -> bool {
    !report.regressed.is_empty()
}

/// Renders the localization verdict: the ranked frame table plus a
/// verdict line naming the worst offender (or declaring the profiles
/// within tolerance).
pub fn render_profile_diff_markdown(report: &ProfileDiffReport) -> String {
    let mut out = String::from("# augur-doctor profile diff\n\n");
    out.push_str("| frame | baseline µs | current µs | delta µs | delta % |\n");
    out.push_str("|---|---:|---:|---:|---:|\n");
    for d in &report.deltas {
        let pct = if d.ratio().is_infinite() {
            String::from("new")
        } else {
            format!("{:+.1}%", d.ratio() * 100.0)
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:+} | {} |",
            d.name, d.baseline_us, d.current_us, d.delta_us, pct
        );
    }
    out.push('\n');
    match report.regressed.first() {
        Some(worst) => {
            let _ = writeln!(
                out,
                "**REGRESSION**: {} frame(s) over latency tolerance; worst: `{worst}`",
                report.regressed.len()
            );
        }
        None => {
            out.push_str("No frame exceeds the latency tolerance.\n");
        }
    }
    out
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

    fn write_tmp(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("augur-doctor-profile-diff-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap_or_else(|e| unreachable!("{e}"));
        path
    }

    #[test]
    fn flags_only_out_of_tolerance_growth() {
        let base = write_tmp("base.folded", "run 1000\nrun;slow 500\nrun;noise 500\n");
        let cur = write_tmp("cur.folded", "run 1000\nrun;slow 800\nrun;noise 510\n");
        let report = run_profile_diff(&base, &cur, &Tolerances::default())
            .unwrap_or_else(|e| unreachable!("{e}"));
        assert!(has_profile_regressions(&report));
        assert_eq!(report.regressed, vec!["slow"], "2% noise stays inside");
        assert_eq!(report.deltas[0].name, "slow");
        let md = render_profile_diff_markdown(&report);
        assert!(md.contains("worst: `slow`"), "{md}");
        assert!(
            md.contains("| `slow` | 500 | 800 | +300 | +60.0% |"),
            "{md}"
        );
    }

    #[test]
    fn clean_diff_has_no_regressions() {
        let base = write_tmp("clean-base.folded", "run 1000\n");
        let cur = write_tmp("clean-cur.folded", "run 1005\n");
        let report = run_profile_diff(&base, &cur, &Tolerances::default())
            .unwrap_or_else(|e| unreachable!("{e}"));
        assert!(!has_profile_regressions(&report));
        assert!(render_profile_diff_markdown(&report)
            .contains("No frame exceeds the latency tolerance."));
    }

    #[test]
    fn malformed_input_is_invalid_data() {
        let bad = write_tmp("bad.folded", "not-a-profile\n");
        let ok = write_tmp("ok.folded", "run 10\n");
        let err = run_profile_diff(&bad, &ok, &Tolerances::default())
            .err()
            .unwrap_or_else(|| unreachable!());
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
