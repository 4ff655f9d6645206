//! One harness binary end to end in smoke mode: `e2_timeliness --smoke
//! --artifacts <dir>` must write its telemetry snapshot with the
//! documented `{bench, params, metrics}` schema, including its
//! `batch_us` gauge, and its artifact bundle beside it; a bare
//! `--artifacts` is a usage error.

#![allow(clippy::expect_used)] // integration tests: a panic here IS the test failure

use std::collections::BTreeSet;
use std::process::Command;

use augur_semantic::json::JsonValue;

#[test]
fn e2_smoke_snapshot_has_the_documented_schema() {
    let dir = std::env::temp_dir().join(format!("augur-bench-schema-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_e2_timeliness"))
        .args(["--smoke", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("e2_timeliness runs");
    assert!(
        output.status.success(),
        "e2_timeliness --smoke failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(dir.join("e2_timeliness.json")).expect("snapshot written");
    let mut written: Vec<_> = std::fs::read_dir(&dir)
        .expect("output directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
        .collect();
    written.sort();
    std::fs::remove_dir_all(&dir).expect("remove the output directory");
    let bundle = [
        "folded",
        "json",
        "speedscope.json",
        "trace.json",
        "xray.json",
    ];
    assert_eq!(written, bundle.map(|ext| format!("e2_timeliness.{ext}")));
    let doc = JsonValue::parse(&text).expect("snapshot is JSON");

    let keys = |v: &JsonValue| -> BTreeSet<String> {
        v.as_object().expect("an object").keys().cloned().collect()
    };
    assert_eq!(
        keys(&doc),
        ["bench", "metrics", "params"].map(String::from).into()
    );
    assert_eq!(
        doc.field("bench").and_then(JsonValue::as_str).ok(),
        Some("e2_timeliness")
    );
    assert!(
        !keys(doc.field("params").expect("params")).is_empty(),
        "params must not be empty"
    );
    let metrics = doc.field("metrics").expect("metrics");
    assert!(
        keys(metrics).is_superset(
            &["counters", "gauges", "histograms"]
                .map(String::from)
                .into()
        ),
        "metrics sections: {:?}",
        keys(metrics)
    );
    let gauges = metrics
        .field("gauges")
        .and_then(JsonValue::as_array)
        .expect("gauges array");
    assert!(
        gauges
            .iter()
            .any(|g| g.field("name").and_then(JsonValue::as_str).ok() == Some("batch_us")),
        "no batch_us gauge among {} gauges",
        gauges.len()
    );
}

#[test]
fn a_bare_artifacts_flag_exits_with_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_e2_timeliness"))
        .args(["--smoke", "--artifacts"])
        .output()
        .expect("e2_timeliness runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--artifacts <dir>"));
}
