//! Perf-regression gate over bench snapshots.
//!
//! `augur-doctor` loads the `results/*.json` snapshots the bench
//! binaries write (schema `{"bench", "params", "metrics"}`, see
//! `augur-bench`), pairs each with the committed baseline snapshot of
//! the same name under `results/baseline/`, and classifies every metric
//! into a tolerance class:
//!
//! - **Latency** (`*_ms`, `*_us`, `latency`, `duration`, histogram
//!   `p95`): regression when current exceeds baseline by more than the
//!   class tolerance.
//! - **Throughput** (`throughput`, `rps`, `per_sec`): regression when
//!   current falls below baseline by more than the tolerance.
//! - **Drop** (`drop`, `dropped`, `lost`): a loss counter; regression
//!   when it grows beyond the tolerance.
//! - **Share** (`*_share`, `overhead`): a fraction in `0..=1` where
//!   lower is better (e.g. `obs_overhead_share`, the observability
//!   self-cost ratio); regression when it grows beyond a tight
//!   absolute tolerance — the 1% budgets these track would drown in
//!   the drop class's integer-sized floor.
//! - **Count** (everything else): informational — reported as changed,
//!   never a failure, since raw event counts move with workload shape.
//!
//! Snapshots whose `params` objects differ are skipped with a warning
//! rather than compared — a changed workload is not a regression. The
//! CLI renders a markdown report, optionally a JSON verdict, and exits
//! nonzero when any regression survives.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use augur_semantic::json::JsonValue;
use augur_telemetry::escape_json;

/// Log-fingerprint gate over JSONL event logs (`--logs`).
pub mod logs;
/// Differential-profile regression localization (`--profile-diff`).
pub mod profile_diff;
/// Trend fitting over snapshot histories (`--trend`).
pub mod trend;
/// Smoke check over one wallbench run's verdict (`--wallbench-result`).
pub mod wallbench;
/// Bottleneck-shape gate over xray artifacts (`--xray`).
pub mod xray;

/// Which tolerance rule a metric falls under, derived from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Lower is better; gate on increases.
    Latency,
    /// Higher is better; gate on decreases.
    Throughput,
    /// Loss counter; gate on increases.
    Drop,
    /// Small budgeted fraction (lower is better); gate on increases
    /// with a tight absolute floor.
    Share,
    /// Informational count; never gates.
    Count,
}

impl MetricClass {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MetricClass::Latency => "latency",
            MetricClass::Throughput => "throughput",
            MetricClass::Drop => "drop",
            MetricClass::Share => "share",
            MetricClass::Count => "count",
        }
    }
}

/// Classifies a metric key by name heuristics (the workspace's metric
/// naming is regular enough for this to be reliable; see DESIGN.md).
pub fn classify(key: &str) -> MetricClass {
    let k = key.to_ascii_lowercase();
    let name = k.split('{').next().unwrap_or(&k);
    // Share first: `blocked_share` and friends must not fall into the
    // drop/latency buckets their substrings would otherwise match.
    if name.ends_with("_share") || name.contains("overhead") {
        return MetricClass::Share;
    }
    if name.contains("drop") || name.contains("lost") {
        return MetricClass::Drop;
    }
    if name.contains("throughput") || name.contains("rps") || name.contains("per_sec") {
        return MetricClass::Throughput;
    }
    if name.ends_with("_ms")
        || name.ends_with("_us")
        || name.ends_with("_ns")
        || name.contains("latency")
        || name.contains("duration")
        || k.ends_with(".p95")
    {
        return MetricClass::Latency;
    }
    MetricClass::Count
}

/// A per-class tolerance: a change is within tolerance when
/// `|delta| <= max(ratio * |baseline|, abs)`.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative slack as a fraction of the baseline magnitude.
    pub ratio: f64,
    /// Absolute slack floor (covers near-zero baselines).
    pub abs: f64,
}

impl Tolerance {
    /// Whether a worsening of `delta` (already oriented so positive =
    /// worse) stays within this tolerance of `baseline`.
    pub fn allows(&self, baseline: f64, delta: f64) -> bool {
        delta <= (self.ratio * baseline.abs()).max(self.abs)
    }
}

/// The gate's tolerance schedule, one rule per metric class.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Applied to [`MetricClass::Latency`] increases.
    pub latency: Tolerance,
    /// Applied to [`MetricClass::Throughput`] decreases.
    pub throughput: Tolerance,
    /// Applied to [`MetricClass::Drop`] increases.
    pub drops: Tolerance,
    /// Applied to [`MetricClass::Share`] increases.
    pub share: Tolerance,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            latency: Tolerance {
                ratio: 0.15,
                abs: 0.5,
            },
            throughput: Tolerance {
                ratio: 0.15,
                abs: 1.0,
            },
            drops: Tolerance {
                ratio: 0.10,
                abs: 2.0,
            },
            // Shares are fractions of small budgets (the obs overhead
            // budget is 0.01): an absolute floor of one budget unit, so
            // a healthy ~0.004 share jumping to 0.8 under the inject
            // probe is a regression while deterministic same-seed noise
            // (which is zero) never fires.
            share: Tolerance {
                ratio: 0.10,
                abs: 0.01,
            },
        }
    }
}

/// One parsed bench snapshot: name, parameters, and a flat metric map
/// keyed `name{label=value,...}` (histograms contribute `.p95` and
/// `.count` entries).
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The bench name (output file stem).
    pub bench: String,
    /// Rendered parameter map, used for the changed-workload check.
    pub params: BTreeMap<String, String>,
    /// Flat metric samples.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses one snapshot document.
///
/// # Errors
///
/// Propagates JSON syntax/shape errors from the semantic parser.
pub fn parse_snapshot(text: &str) -> Result<BenchDoc, augur_semantic::SemanticError> {
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
            let key = metric_key(entry)?;
            metrics.insert(key, entry.field("value")?.as_f64()?);
        }
    }
    for entry in metrics_doc.field("histograms")?.as_array()? {
        let key = metric_key(entry)?;
        metrics.insert(format!("{key}.p95"), entry.field("p95")?.as_f64()?);
        metrics.insert(format!("{key}.count"), entry.field("count")?.as_f64()?);
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
    let mut key = format!("{name}{{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={}", v.to_json());
    }
    key.push('}');
    Ok(key)
}

/// Outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or an informational count change).
    Ok,
    /// Outside tolerance in the worse direction.
    Regression,
    /// Outside tolerance in the better direction.
    Improved,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The metric identity key (`name{labels}` or `….p95`).
    pub metric: String,
    /// Tolerance class the metric fell under.
    pub class: MetricClass,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Comparison outcome.
    pub verdict: Verdict,
}

/// Result of comparing one bench pair (or the reason it was skipped).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The bench name.
    pub bench: String,
    /// When `Some`, the pair was not compared and this is the reason.
    pub skipped: Option<String>,
    /// Per-metric findings (empty when skipped).
    pub findings: Vec<Finding>,
}

impl Comparison {
    /// Findings that fail the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.verdict == Verdict::Regression)
    }
}

/// Compares one baseline/current snapshot pair. Metrics present on only
/// one side are ignored (new instrumentation must not fail old
/// baselines); params mismatch skips the pair entirely.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc, tol: &Tolerances) -> Comparison {
    if baseline.params != current.params {
        let changed: Vec<&str> = baseline
            .params
            .iter()
            .filter(|(k, v)| current.params.get(*k) != Some(v))
            .map(|(k, _)| k.as_str())
            .chain(
                current
                    .params
                    .keys()
                    .filter(|k| !baseline.params.contains_key(*k))
                    .map(String::as_str),
            )
            .collect();
        return Comparison {
            bench: baseline.bench.clone(),
            skipped: Some(format!(
                "params differ ({}); not comparable",
                changed.join(", ")
            )),
            findings: Vec::new(),
        };
    }
    let mut findings = Vec::new();
    for (key, &base) in &baseline.metrics {
        let Some(&cur) = current.metrics.get(key) else {
            continue;
        };
        let class = classify(key);
        // Orient delta so positive = worse for the gated classes.
        let (rule, worse_delta) = match class {
            MetricClass::Latency => (Some(tol.latency), cur - base),
            MetricClass::Drop => (Some(tol.drops), cur - base),
            MetricClass::Share => (Some(tol.share), cur - base),
            MetricClass::Throughput => (Some(tol.throughput), base - cur),
            MetricClass::Count => (None, 0.0),
        };
        let verdict = match rule {
            Some(t) if !t.allows(base, worse_delta) => Verdict::Regression,
            Some(t) if !t.allows(base, -worse_delta) => Verdict::Improved,
            _ => Verdict::Ok,
        };
        findings.push(Finding {
            metric: key.clone(),
            class,
            baseline: base,
            current: cur,
            verdict,
        });
    }
    Comparison {
        bench: baseline.bench.clone(),
        skipped: None,
        findings,
    }
}

/// Loads every `*.json` snapshot directly under `dir`, keyed by bench
/// name. Files that fail to parse as snapshots are skipped (trace files
/// and other artefacts share the results directory).
///
/// # Errors
///
/// Propagates directory-read failures; unreadable individual files are
/// skipped.
pub fn load_dir(dir: &Path) -> io::Result<BTreeMap<String, BenchDoc>> {
    let mut docs = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for path in paths {
        if path.extension().and_then(|e| e.to_str()) != Some("json") || !path.is_file() {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if let Ok(doc) = parse_snapshot(&text) {
            docs.insert(doc.bench.clone(), doc);
        }
    }
    Ok(docs)
}

/// Runs the gate over two snapshot directories: every baseline bench
/// that also exists in `current` is compared (the intersection rule —
/// wall-clock benches absent from the baseline never flake the gate).
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn run_gate(
    baseline_dir: &Path,
    current_dir: &Path,
    tol: &Tolerances,
) -> io::Result<Vec<Comparison>> {
    let baseline = load_dir(baseline_dir)?;
    let current = load_dir(current_dir)?;
    Ok(baseline
        .values()
        .filter_map(|b| current.get(&b.bench).map(|c| compare(b, c, tol)))
        .collect())
}

/// Whether any comparison carries a regression.
pub fn has_regressions(comps: &[Comparison]) -> bool {
    comps.iter().any(|c| c.regressions().next().is_some())
}

/// Renders the markdown verdict report.
pub fn render_markdown(comps: &[Comparison]) -> String {
    let mut out = String::from("# augur-doctor verdict\n\n");
    if comps.is_empty() {
        out.push_str("No baseline/current snapshot pairs to compare.\n");
        return out;
    }
    let regressed = has_regressions(comps);
    let _ = writeln!(
        out,
        "**{}** — {} bench pair(s) compared.\n",
        if regressed { "REGRESSION" } else { "OK" },
        comps.len()
    );
    for c in comps {
        if let Some(reason) = &c.skipped {
            let _ = writeln!(out, "- `{}`: **skipped** — {reason}", c.bench);
            continue;
        }
        let regressions: Vec<&Finding> = c.regressions().collect();
        let improved = c
            .findings
            .iter()
            .filter(|f| f.verdict == Verdict::Improved)
            .count();
        let _ = writeln!(
            out,
            "- `{}`: {} metric(s), {} regression(s), {} improvement(s)",
            c.bench,
            c.findings.len(),
            regressions.len(),
            improved
        );
        if !regressions.is_empty() {
            out.push_str("\n  | metric | class | baseline | current |\n");
            out.push_str("  |---|---|---|---|\n");
            for f in regressions {
                let _ = writeln!(
                    out,
                    "  | `{}` | {} | {} | {} |",
                    f.metric,
                    f.class.label(),
                    f.baseline,
                    f.current
                );
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the machine-readable JSON verdict.
pub fn render_json(comps: &[Comparison]) -> String {
    let mut out = String::from("{\"status\":\"");
    out.push_str(if has_regressions(comps) {
        "regression"
    } else {
        "ok"
    });
    out.push_str("\",\"benches\":[");
    for (i, c) in comps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"bench\":\"{}\",", escape_json(&c.bench));
        match &c.skipped {
            Some(reason) => {
                let _ = write!(out, "\"skipped\":\"{}\",", escape_json(reason));
            }
            None => out.push_str("\"skipped\":null,"),
        }
        out.push_str("\"regressions\":[");
        for (j, f) in c.regressions().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"metric\":\"{}\",\"class\":\"{}\",\"baseline\":{},\"current\":{}}}",
                escape_json(&f.metric),
                f.class.label(),
                f.baseline,
                f.current
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(bench: &str, p95: f64, throughput: f64, dropped: f64) -> String {
        format!(
            concat!(
                "{{\"bench\":\"{}\",\"params\":{{\"events\":1000}},\"metrics\":{{",
                "\"counters\":[{{\"name\":\"records_dropped_total\",\"labels\":{{}},\"value\":{}}}],",
                "\"gauges\":[{{\"name\":\"pipeline_throughput_rps\",\"labels\":{{}},\"value\":{}}}],",
                "\"histograms\":[{{\"name\":\"record_latency_ns\",\"labels\":{{}},",
                "\"count\":1000,\"sum\":50000,\"min\":10,\"max\":900,\"mean\":50,",
                "\"p50\":40,\"p90\":80,\"p95\":{},\"p99\":200}}]}}}}"
            ),
            bench, dropped, throughput, p95
        )
    }

    fn doc(bench: &str, p95: f64, throughput: f64, dropped: f64) -> BenchDoc {
        match parse_snapshot(&snapshot(bench, p95, throughput, dropped)) {
            Ok(d) => d,
            Err(e) => unreachable!("fixture must parse: {e}"),
        }
    }

    #[test]
    fn classifies_by_name_heuristics() {
        assert_eq!(
            classify("device_ms{network=\"wifi\"}"),
            MetricClass::Latency
        );
        assert_eq!(classify("record_latency_ns.p95"), MetricClass::Latency);
        assert_eq!(classify("pipeline_throughput_rps"), MetricClass::Throughput);
        assert_eq!(classify("records_dropped_total"), MetricClass::Drop);
        assert_eq!(classify("beacons_lost"), MetricClass::Drop);
        assert_eq!(classify("records_in_total"), MetricClass::Count);
        assert_eq!(classify("obs_overhead_share"), MetricClass::Share);
        assert_eq!(classify("lane_blocked_share"), MetricClass::Share);
    }

    #[test]
    fn share_metrics_gate_on_tight_absolute_growth() {
        let mk = |share: f64| {
            let mut d = doc("e_test", 100.0, 5000.0, 0.0);
            d.metrics.insert("obs_overhead_share".into(), share);
            d
        };
        // A healthy 0.4% share blowing up to 80% (the inject probe) is
        // a regression...
        let comp = compare(&mk(0.004), &mk(0.8), &Tolerances::default());
        let regs: Vec<_> = comp.regressions().collect();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "obs_overhead_share");
        assert_eq!(regs[0].class, MetricClass::Share);
        // ...while wiggle inside one budget unit (abs 0.01) passes.
        let comp = compare(&mk(0.004), &mk(0.009), &Tolerances::default());
        assert!(comp.regressions().next().is_none());
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = doc("e_test", 100.0, 5000.0, 0.0);
        let cur = doc("e_test", 100.0, 5000.0, 0.0);
        let comp = compare(&base, &cur, &Tolerances::default());
        assert!(comp.skipped.is_none());
        assert!(comp.regressions().next().is_none());
        assert!(!comp.findings.is_empty());
    }

    #[test]
    fn perturbed_p95_is_a_regression() {
        let base = doc("e_test", 100.0, 5000.0, 0.0);
        // +40% p95: far past the 15% latency tolerance.
        let cur = doc("e_test", 140.0, 5000.0, 0.0);
        let comp = compare(&base, &cur, &Tolerances::default());
        let regs: Vec<_> = comp.regressions().collect();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "record_latency_ns.p95");
        assert_eq!(regs[0].class, MetricClass::Latency);
        assert!(has_regressions(&[comp]));
    }

    #[test]
    fn throughput_gates_downward_only() {
        let base = doc("e_test", 100.0, 5000.0, 0.0);
        let faster = doc("e_test", 100.0, 9000.0, 0.0);
        let comp = compare(&base, &faster, &Tolerances::default());
        assert!(comp.regressions().next().is_none());
        assert!(comp
            .findings
            .iter()
            .any(|f| f.metric == "pipeline_throughput_rps" && f.verdict == Verdict::Improved));

        let slower = doc("e_test", 100.0, 3000.0, 0.0);
        let comp = compare(&base, &slower, &Tolerances::default());
        let regs: Vec<_> = comp.regressions().collect();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "pipeline_throughput_rps");
    }

    #[test]
    fn drop_counters_gate_with_absolute_floor() {
        let base = doc("e_test", 100.0, 5000.0, 0.0);
        // +2 drops from zero: inside the abs=2 floor.
        let wiggle = doc("e_test", 100.0, 5000.0, 2.0);
        let comp = compare(&base, &wiggle, &Tolerances::default());
        assert!(comp.regressions().next().is_none());
        // +50 drops: regression.
        let burst = doc("e_test", 100.0, 5000.0, 50.0);
        let comp = compare(&base, &burst, &Tolerances::default());
        assert_eq!(comp.regressions().count(), 1);
    }

    #[test]
    fn params_mismatch_skips_instead_of_comparing() {
        let base = doc("e_test", 100.0, 5000.0, 0.0);
        let mut cur = doc("e_test", 400.0, 1.0, 999.0);
        cur.params.insert("events".into(), "2000".into());
        let comp = compare(&base, &cur, &Tolerances::default());
        assert!(comp.skipped.is_some());
        assert!(comp.findings.is_empty());
        assert!(!has_regressions(&[comp]));
    }

    #[test]
    fn gate_runs_over_directories_and_renders() {
        let dir = std::env::temp_dir().join("augur-doctor-gate-test");
        let baseline = dir.join("baseline");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&baseline).unwrap();
        std::fs::write(
            baseline.join("e_test.json"),
            snapshot("e_test", 100.0, 5000.0, 0.0),
        )
        .unwrap();
        // A baseline-only bench must not fail the gate (intersection rule),
        // and a non-snapshot JSON artefact must be ignored.
        std::fs::write(
            baseline.join("e_only_in_baseline.json"),
            snapshot("e_only_in_baseline", 1.0, 1.0, 0.0),
        )
        .unwrap();
        std::fs::write(
            dir.join("e_test.json"),
            snapshot("e_test", 101.0, 4990.0, 0.0),
        )
        .unwrap();
        std::fs::write(dir.join("weird.trace.json"), "[]").unwrap();

        let comps = run_gate(&baseline, &dir, &Tolerances::default()).unwrap();
        assert_eq!(comps.len(), 1);
        assert!(!has_regressions(&comps));
        let md = render_markdown(&comps);
        assert!(md.contains("OK"), "markdown: {md}");
        let json = render_json(&comps);
        assert!(json.contains("\"status\":\"ok\""), "json: {json}");
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(parsed.field("status").unwrap().as_str().unwrap(), "ok");

        // Perturb and re-run: regression, nonzero verdict.
        std::fs::write(
            dir.join("e_test.json"),
            snapshot("e_test", 140.0, 5000.0, 0.0),
        )
        .unwrap();
        let comps = run_gate(&baseline, &dir, &Tolerances::default()).unwrap();
        assert!(has_regressions(&comps));
        assert!(render_markdown(&comps).contains("REGRESSION"));
        assert!(render_json(&comps).contains("\"status\":\"regression\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_param_and_metric_names_render_valid_json() {
        let comps = vec![Comparison {
            bench: "we\"ird\\bench\n".into(),
            skipped: Some("param \"x\" changed".into()),
            findings: Vec::new(),
        }];
        let json = render_json(&comps);
        assert!(JsonValue::parse(&json).is_ok(), "must stay valid: {json}");
    }
}
