//! Wallbench-result mode (`--wallbench-result <file>`): the smoke check
//! over one `augur-wallbench` run's output.
//!
//! A wallbench run prints one `metric` line per metric and, last, one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. The check passes when that last line parses, `correct` is
//! `true` and `failed` is 0. Anything else — a false verdict, a failed
//! operation, or a run that died before printing its verdict — fails.

use std::io;
use std::path::Path;

use augur_semantic::json::JsonValue;

/// The verdict line of one wallbench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallbenchResult {
    /// Whether every checked output matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

impl WallbenchResult {
    /// Whether the run is clean: correct, with no failed operation.
    pub fn passed(&self) -> bool {
        self.correct && self.failed == 0
    }
}

/// Parses the verdict from a run's output: its last non-blank line.
///
/// # Errors
///
/// A message naming what is missing when the output is empty, the last
/// line is not JSON, or `correct`, `attempted` or `failed` is absent or
/// of the wrong type.
pub fn parse_result(output: &str) -> Result<WallbenchResult, String> {
    let last = output
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the output is empty")?;
    let doc = JsonValue::parse(last).map_err(|e| format!("the last line is not JSON: {e}"))?;
    let field = |name: &str| doc.field(name).map_err(|e| e.to_string());
    let count = |name: &str| -> Result<u64, String> {
        let n = field(name)?.as_f64().map_err(|e| format!("{name}: {e}"))?;
        if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(format!("{name} is not a count: {n}"))
        }
    };
    let correct = match field("correct")? {
        JsonValue::Bool(b) => *b,
        _ => return Err("correct is not a boolean".to_string()),
    };
    Ok(WallbenchResult {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
    })
}

/// Reads and parses the run output saved at `path`.
///
/// # Errors
///
/// I/O errors reading the file, and [`parse_result`]'s errors as
/// [`io::ErrorKind::InvalidData`].
pub fn read_result(path: &Path) -> io::Result<WallbenchResult> {
    let text = std::fs::read_to_string(path)?;
    parse_result(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRIC: &str = "metric p50_us 123.4 us\n";

    #[test]
    fn a_clean_run_passes() {
        let out = format!(
            "{METRIC}{{\"correct\": true, \"attempted\": 42, \"failed\": 0, \"metrics\": {{}}}}\n\n"
        );
        let r = parse_result(&out).unwrap();
        assert_eq!(
            r,
            WallbenchResult {
                correct: true,
                attempted: 42,
                failed: 0
            }
        );
        assert!(r.passed());
    }

    #[test]
    fn an_incorrect_run_fails() {
        let out = format!(
            "{METRIC}{{\"correct\": false, \"attempted\": 7, \"failed\": 0, \"metrics\": {{}}}}"
        );
        let r = parse_result(&out).unwrap();
        assert!(!r.correct);
        assert!(!r.passed());
    }

    #[test]
    fn a_run_with_failed_operations_fails() {
        let out = "{\"correct\": true, \"attempted\": 7, \"failed\": 2, \"metrics\": {}}";
        let r = parse_result(out).unwrap();
        assert_eq!(r.failed, 2);
        assert!(!r.passed());
    }

    #[test]
    fn a_malformed_last_line_is_an_error() {
        // A run that died mid-way leaves a metric line (or nothing) last.
        assert!(parse_result(METRIC).is_err());
        assert!(parse_result("").is_err());
        assert!(parse_result("{\"correct\": true, \"attempted\": 7").is_err());
        // Present but mistyped or missing fields are errors too.
        assert!(parse_result("{\"correct\": 1, \"attempted\": 7, \"failed\": 0}").is_err());
        assert!(parse_result("{\"correct\": true, \"attempted\": -1, \"failed\": 0}").is_err());
        assert!(parse_result("{\"correct\": true, \"attempted\": 7}").is_err());
    }
}
