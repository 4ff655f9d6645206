//! `augur-doctor` CLI: the perf-regression gate.
//!
//! ```text
//! augur-doctor --baseline results/baseline --current results [--json results/doctor.json]
//! augur-doctor --trend results/baseline/history
//! augur-doctor --profile-diff baseline.folded current.folded
//! augur-doctor --logs current.jsonl results/baseline/log_fingerprints.json
//! augur-doctor --wallbench-result wallbench.out
//! ```
//!
//! Pairwise mode compares every bench snapshot present in BOTH
//! directories (the intersection rule: wall-clock benches without a
//! committed baseline never flake the gate), prints a markdown verdict,
//! optionally writes a JSON verdict, and exits 0 when clean, 1 on any
//! regression, 2 on usage or I/O errors.
//!
//! Trend mode (`--trend`, exclusive with the pairwise flags) fits every
//! snapshot history under one directory — files ordered by name, grouped
//! by bench — and exits 1 on **sustained drift**: a metric whose fitted
//! worsening across the whole history exceeds its class tolerance, even
//! when every individual step was inside tolerance.
//!
//! Profile-diff mode (`--profile-diff <baseline.folded>
//! <current.folded>`, exclusive with the others) localizes a
//! regression: it ranks every stack frame by exclusive self-time delta
//! between the two folded profiles (the `.folded` files of
//! `--artifacts` bundles) and exits 1 — naming the frame — when the worst growth
//! exceeds the latency tolerance.
//!
//! Log-gate mode (`--logs <current.jsonl> <baseline.json>`, exclusive
//! with the others) diffs the WARN/ERROR pattern fingerprints of a
//! JSONL event log against a committed baseline and exits 1 on any
//! novel pattern. `--json <path>` here writes the current fingerprint
//! set in baseline format — the way to refresh the committed file.
//!
//! Xray-gate mode (`--xray <current.xray.json> <baseline.xray.json>`,
//! exclusive with the others) diffs two bottleneck reports and exits 1
//! when the critical-path head moved (naming the new head), any
//! stage's critical-path share grew past tolerance, the parallel
//! speedup bound dropped, or the current report is truncated.
//!
//! Wallbench-result mode (`--wallbench-result <file>`, exclusive with
//! the others) reads the saved output of one `augur-wallbench` run,
//! prints how many operations it attempted, and exits 1 unless its last
//! line says `correct: true` with `failed: 0`; an unreadable or
//! malformed last line exits 2.

use std::path::PathBuf;

use augur_doctor::logs::{
    extract_fingerprints, has_novel_patterns, render_baseline_json, render_log_gate_markdown,
    run_log_gate,
};
use augur_doctor::profile_diff::{
    has_profile_regressions, render_profile_diff_markdown, run_profile_diff,
};
use augur_doctor::trend::{has_drift, render_trend_markdown, run_trend};
use augur_doctor::wallbench::read_result;
use augur_doctor::xray::{has_xray_regressions, render_xray_markdown, run_xray_gate};
use augur_doctor::{has_regressions, render_json, render_markdown, run_gate, Tolerances};

enum Mode {
    Pairwise {
        baseline: PathBuf,
        current: PathBuf,
        json_out: Option<PathBuf>,
    },
    Trend {
        history: PathBuf,
    },
    ProfileDiff {
        baseline: PathBuf,
        current: PathBuf,
    },
    Logs {
        current: PathBuf,
        baseline: PathBuf,
        json_out: Option<PathBuf>,
    },
    Xray {
        current: PathBuf,
        baseline: PathBuf,
    },
    Wallbench {
        result: PathBuf,
    },
}

const USAGE: &str = "usage: augur-doctor --baseline <dir> --current <dir> [--json <path>]\n\
       augur-doctor --trend <dir>\n\
       augur-doctor --profile-diff <baseline.folded> <current.folded>\n\
       augur-doctor --logs <current.jsonl> <baseline.json> [--json <path>]\n\
       augur-doctor --xray <current.xray.json> <baseline.xray.json>\n\
       augur-doctor --wallbench-result <run-output>";

fn parse_args() -> Result<Mode, String> {
    let mut baseline = None;
    let mut current = None;
    let mut json_out = None;
    let mut trend = None;
    let mut profile_diff = None;
    let mut logs = None;
    let mut xray = None;
    let mut wallbench = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(take("--baseline")?)),
            "--current" => current = Some(PathBuf::from(take("--current")?)),
            "--json" => json_out = Some(PathBuf::from(take("--json")?)),
            "--trend" => trend = Some(PathBuf::from(take("--trend")?)),
            "--profile-diff" => {
                let base = PathBuf::from(take("--profile-diff")?);
                let cur = PathBuf::from(take("--profile-diff")?);
                profile_diff = Some((base, cur));
            }
            "--logs" => {
                let cur = PathBuf::from(take("--logs")?);
                let base = PathBuf::from(take("--logs")?);
                logs = Some((cur, base));
            }
            "--xray" => {
                let cur = PathBuf::from(take("--xray")?);
                let base = PathBuf::from(take("--xray")?);
                xray = Some((cur, base));
            }
            "--wallbench-result" => {
                wallbench = Some(PathBuf::from(take("--wallbench-result")?));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(result) = wallbench {
        if baseline.is_some()
            || current.is_some()
            || json_out.is_some()
            || trend.is_some()
            || profile_diff.is_some()
            || logs.is_some()
            || xray.is_some()
        {
            return Err(format!(
                "--wallbench-result is exclusive with other modes\n{USAGE}"
            ));
        }
        return Ok(Mode::Wallbench { result });
    }
    if let Some((cur, base)) = xray {
        if baseline.is_some()
            || current.is_some()
            || json_out.is_some()
            || trend.is_some()
            || profile_diff.is_some()
            || logs.is_some()
        {
            return Err(format!("--xray is exclusive with other modes\n{USAGE}"));
        }
        return Ok(Mode::Xray {
            current: cur,
            baseline: base,
        });
    }
    if let Some((cur, base)) = logs {
        if baseline.is_some() || current.is_some() || trend.is_some() || profile_diff.is_some() {
            return Err(format!("--logs is exclusive with other modes\n{USAGE}"));
        }
        return Ok(Mode::Logs {
            current: cur,
            baseline: base,
            json_out,
        });
    }
    if let Some((base, cur)) = profile_diff {
        if baseline.is_some() || current.is_some() || json_out.is_some() || trend.is_some() {
            return Err(format!(
                "--profile-diff is exclusive with other modes\n{USAGE}"
            ));
        }
        return Ok(Mode::ProfileDiff {
            baseline: base,
            current: cur,
        });
    }
    if let Some(history) = trend {
        if baseline.is_some() || current.is_some() || json_out.is_some() {
            return Err(format!(
                "--trend is exclusive with --baseline/--current/--json\n{USAGE}"
            ));
        }
        return Ok(Mode::Trend { history });
    }
    Ok(Mode::Pairwise {
        baseline: baseline.ok_or_else(|| format!("--baseline is required\n{USAGE}"))?,
        current: current.ok_or_else(|| format!("--current is required\n{USAGE}"))?,
        json_out,
    })
}

fn run() -> i32 {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    match mode {
        Mode::Wallbench { result } => match read_result(&result) {
            Ok(r) => {
                println!(
                    "wallbench result: correct={} attempted={} failed={}",
                    r.correct, r.attempted, r.failed
                );
                if r.passed() {
                    0
                } else {
                    1
                }
            }
            Err(e) => {
                eprintln!("augur-doctor: failed reading {}: {e}", result.display());
                2
            }
        },
        Mode::Xray { current, baseline } => {
            let report = match run_xray_gate(&current, &baseline) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("augur-doctor: xray gate failed: {e}");
                    return 2;
                }
            };
            print!("{}", render_xray_markdown(&report));
            if has_xray_regressions(&report) {
                1
            } else {
                0
            }
        }
        Mode::Logs {
            current,
            baseline,
            json_out,
        } => {
            let report = match run_log_gate(&current, &baseline) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("augur-doctor: log gate failed: {e}");
                    return 2;
                }
            };
            print!("{}", render_log_gate_markdown(&report));
            if let Some(path) = &json_out {
                // Re-extract from the log so the written file is the
                // exact baseline a clean future run will match.
                let result = std::fs::read_to_string(&current)
                    .and_then(|text| extract_fingerprints(&text))
                    .and_then(|(fps, _)| std::fs::write(path, render_baseline_json(&fps)));
                if let Err(e) = result {
                    eprintln!("augur-doctor: failed writing {}: {e}", path.display());
                    return 2;
                }
                println!("\nfingerprint baseline JSON: {}", path.display());
            }
            if has_novel_patterns(&report) {
                1
            } else {
                0
            }
        }
        Mode::ProfileDiff { baseline, current } => {
            let report = match run_profile_diff(&baseline, &current, &Tolerances::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "augur-doctor: failed diffing {} / {}: {e}",
                        baseline.display(),
                        current.display()
                    );
                    return 2;
                }
            };
            print!("{}", render_profile_diff_markdown(&report));
            if has_profile_regressions(&report) {
                1
            } else {
                0
            }
        }
        Mode::Trend { history } => {
            let reports = match run_trend(&history, &Tolerances::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("augur-doctor: failed reading {}: {e}", history.display());
                    return 2;
                }
            };
            print!("{}", render_trend_markdown(&reports));
            if has_drift(&reports) {
                1
            } else {
                0
            }
        }
        Mode::Pairwise {
            baseline,
            current,
            json_out,
        } => {
            let comps = match run_gate(&baseline, &current, &Tolerances::default()) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!(
                        "augur-doctor: failed reading {} / {}: {e}",
                        baseline.display(),
                        current.display()
                    );
                    return 2;
                }
            };
            print!("{}", render_markdown(&comps));
            if let Some(path) = &json_out {
                if let Err(e) = std::fs::write(path, render_json(&comps)) {
                    eprintln!("augur-doctor: failed writing {}: {e}", path.display());
                    return 2;
                }
                println!("\nverdict JSON: {}", path.display());
            }
            if has_regressions(&comps) {
                1
            } else {
                0
            }
        }
    }
}

fn main() {
    std::process::exit(run());
}
