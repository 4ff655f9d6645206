//! Every committed JSON artifact under `results/baseline/` parses, and
//! snapshots and xray reports match their documented shapes: CI requires
//! a fresh bundle to equal these files byte for byte, so a malformed
//! baseline would pin a malformed artifact.
#![allow(clippy::expect_used, clippy::panic)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use augur::semantic::json::JsonValue;

/// `path`'s object keys; panics naming `path` when it is not an object.
fn keys(v: &JsonValue, path: &Path) -> BTreeSet<String> {
    v.as_object()
        .unwrap_or_else(|e| panic!("{}: not an object: {e:?}", path.display()))
        .keys()
        .cloned()
        .collect()
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|n| n.to_string()).collect()
}

fn field<'a>(v: &'a JsonValue, name: &str, path: &Path) -> &'a JsonValue {
    v.field(name)
        .unwrap_or_else(|e| panic!("{}: no {name}: {e:?}", path.display()))
}

fn num(v: &JsonValue, name: &str, path: &Path) -> f64 {
    field(v, name, path)
        .as_f64()
        .unwrap_or_else(|e| panic!("{}: {name} is not a number: {e:?}", path.display()))
}

fn flag(v: &JsonValue, name: &str, path: &Path) -> bool {
    match field(v, name, path) {
        JsonValue::Bool(b) => *b,
        other => panic!("{}: {name} is not a bool: {other:?}", path.display()),
    }
}

fn array<'a>(v: &'a JsonValue, name: &str, path: &Path) -> &'a [JsonValue] {
    field(v, name, path)
        .as_array()
        .unwrap_or_else(|e| panic!("{}: {name} is not an array: {e:?}", path.display()))
}

fn check_snapshot(doc: &JsonValue, path: &Path) {
    assert_eq!(
        keys(doc, path),
        set(&["bench", "params", "metrics"]),
        "{}",
        path.display()
    );
    assert!(
        !keys(field(doc, "params", path), path).is_empty(),
        "{}: empty params",
        path.display()
    );
    assert!(
        keys(field(doc, "metrics", path), path).is_superset(&set(&[
            "counters",
            "gauges",
            "histograms"
        ])),
        "{}: metrics sections",
        path.display()
    );
}

fn check_xray(doc: &JsonValue, path: &Path) {
    let p = path.display();
    assert_eq!(
        keys(doc, path),
        set(&[
            "xray",
            "truncated",
            "events",
            "roots",
            "makespan_us",
            "work_us",
            "span_us",
            "speedup",
            "measured",
            "head",
            "critical_path",
            "stages",
            "lanes",
            "queues",
            "sampling",
        ]),
        "{p}"
    );
    assert!(
        !flag(doc, "truncated", path),
        "{p}: committed baseline is truncated"
    );
    assert_eq!(num(field(doc, "events", path), "dropped", path), 0.0, "{p}");

    let sampling = field(doc, "sampling", path);
    assert_eq!(
        keys(sampling, path),
        set(&[
            "sampled",
            "effective_rate",
            "estimated_roots",
            "estimated_events"
        ]),
        "{p}"
    );
    let rate = num(sampling, "effective_rate", path);
    assert!(rate > 0.0 && rate <= 1.0, "{p}: effective_rate {rate}");
    let sampled = flag(sampling, "sampled", path);
    assert_eq!(sampled, rate < 1.0, "{p}: sampled vs effective_rate");

    let speedup = field(doc, "speedup", path);
    assert_eq!(
        keys(speedup, path),
        set(&["work_span_bound", "stage_bound", "parallel_speedup_bound"]),
        "{p}"
    );
    assert_eq!(
        num(speedup, "parallel_speedup_bound", path),
        num(speedup, "work_span_bound", path).max(num(speedup, "stage_bound", path)),
        "{p}: parallel_speedup_bound is the larger bound"
    );

    let cp = array(doc, "critical_path", path);
    assert!(!cp.is_empty(), "{p}: empty critical path");
    assert_eq!(
        field(doc, "head", path).as_str().ok(),
        field(&cp[0], "name", path).as_str().ok(),
        "{p}: head is the first critical-path frame"
    );
    let shares: Vec<f64> = cp.iter().map(|f| num(f, "share", path)).collect();
    assert!(
        shares.windows(2).all(|w| w[0] >= w[1]),
        "{p}: not ranked by share: {shares:?}"
    );
    let total: f64 = shares.iter().sum();
    assert!(
        total > 0.0 && total <= 1.0 + 1e-9,
        "{p}: shares sum {total}"
    );
    for frame in cp {
        assert_eq!(
            keys(frame, path),
            set(&["name", "self_us", "count", "share"]),
            "{p}"
        );
    }

    let measured = field(doc, "measured", path);
    assert_eq!(
        keys(measured, path),
        set(&["lanes", "busy_us", "blocked_us", "parallel_efficiency"]),
        "{p}"
    );
    assert!(num(measured, "lanes", path) >= 1.0, "{p}: no measured lane");
    // Efficiency may exceed 1 for a control-lane drain whose modeled
    // spans overlap (concurrent offload tasks on one recorder), and for
    // sampled drains (lane busy time covers the population while the
    // drain holds only the admitted spans); it is never negative.
    // Unsampled multi-lane drains stay in 0..=1.
    let efficiency = num(measured, "parallel_efficiency", path);
    assert!(efficiency >= 0.0, "{p}: efficiency {efficiency}");
    let lanes = array(doc, "lanes", path);
    if lanes.len() > 1 && !sampled {
        assert!(efficiency <= 1.0 + 1e-9, "{p}: efficiency {efficiency}");
    }
    for lane in lanes {
        assert_eq!(
            keys(lane, path),
            set(&[
                "lane",
                "name",
                "busy_us",
                "blocked_us",
                "dropped",
                "utilization",
                "blocked_share",
            ]),
            "{p}"
        );
        assert_eq!(
            num(lane, "dropped", path),
            0.0,
            "{p}: committed baseline lost lane events"
        );
    }
    for stage in array(doc, "stages", path) {
        assert_eq!(
            keys(stage, path),
            set(&[
                "name",
                "count",
                "busy_us",
                "service_us",
                "arrival_per_s",
                "utilization",
                "queue_wait_us",
                "queue_wait_share",
                "blocked_us",
                "blocked_share",
            ]),
            "{p}"
        );
        // Utilization may exceed 1 when a stage overlaps itself
        // (concurrent offload tasks); it is never negative.
        assert!(num(stage, "utilization", path) >= 0.0, "{p}: utilization");
    }
    for queue in array(doc, "queues", path) {
        assert_eq!(
            keys(queue, path),
            set(&[
                "topic",
                "enqueued",
                "dequeued",
                "depth",
                "occupancy_mean",
                "occupancy_p95",
            ]),
            "{p}"
        );
    }
}

/// Every JSON (`*.json`) and JSON-lines (`*.jsonl`) file in `dir`, in
/// sorted order.
fn json_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("baseline directory is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json" || e == "jsonl"))
        .collect();
    out.sort();
    out
}

/// Checks every JSON artifact in `dir` and returns how many it saw.
fn check_baseline_dir(dir: &Path) -> usize {
    let files = json_files(dir);
    for path in &files {
        let text = std::fs::read_to_string(path).expect("baseline file is readable");
        let parse = |text: &str| {
            JsonValue::parse(text).unwrap_or_else(|e| panic!("{}: not JSON: {e:?}", path.display()))
        };
        let name = path.to_string_lossy();
        if name.ends_with(".log.jsonl") {
            for line in text.lines() {
                parse(line);
            }
        } else if name.ends_with(".trace.json") || name.ends_with(".speedscope.json") {
            parse(&text);
        } else if name.ends_with(".xray.json") {
            check_xray(&parse(&text), path);
        } else {
            check_snapshot(&parse(&text), path);
        }
    }
    files.len()
}

#[test]
fn committed_baselines_match_their_schemas() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/baseline");
    let checked = check_baseline_dir(&dir);
    assert!(
        checked >= 25,
        "expected the full committed baseline set, saw {checked}"
    );
}
