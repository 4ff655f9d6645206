//! Acceptance test for regression localization (ISSUE 5): record a
//! modeled three-stage pipeline twice — once healthy, once with a
//! slowdown injected into exactly one stage — fold both runs into
//! `.folded` profiles, and require `augur-doctor --profile-diff` to
//! (a) exit nonzero and (b) rank the slowed stage's frame first.
#![allow(clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

use augur_telemetry::{FlightRecorder, ManualTime, TimeSource, TraceContext};
use augur_xray::profile::Profile;

/// Runs a modeled ingest → transform → emit pipeline, with
/// `transform_slowdown_us` of extra modeled work injected into the
/// transform stage, and returns the folded profile.
fn folded_pipeline(transform_slowdown_us: u64) -> String {
    let rec = FlightRecorder::new(1024);
    let clock = ManualTime::shared();
    let run_name = rec.intern("pipeline");
    let stages = [
        ("pipeline/ingest", rec.intern("pipeline/ingest"), 200u64),
        (
            "pipeline/transform",
            rec.intern("pipeline/transform"),
            300 + transform_slowdown_us,
        ),
        ("pipeline/emit", rec.intern("pipeline/emit"), 250u64),
    ];
    let root = TraceContext::root(11, 0xF00D);
    let t0 = clock.now_micros();
    for _cycle in 0..8 {
        for (name, id, work_us) in &stages {
            let start = clock.now_micros();
            clock.advance_micros(*work_us);
            rec.record_span(root.child_named(name), *id, start, *work_us);
        }
    }
    rec.record_span(root, run_name, t0, clock.now_micros() - t0);
    Profile::from_events(&rec.drain()).render_folded()
}

fn write_tmp(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("augur-doctor-profile-diff-accept");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write profile");
    path
}

#[test]
fn profile_diff_ranks_the_slowed_stage_first() {
    let baseline = write_tmp("baseline.folded", &folded_pipeline(0));
    let current = write_tmp("current.folded", &folded_pipeline(400));
    let output = Command::new(env!("CARGO_BIN_EXE_augur-doctor"))
        .args(["--profile-diff"])
        .arg(&baseline)
        .arg(&current)
        .output()
        .expect("doctor runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(1),
        "injected slowdown must fail the gate:\n{stdout}"
    );
    assert!(
        stdout.contains("worst: `pipeline/transform`"),
        "verdict must name the slowed stage:\n{stdout}"
    );
    // The ranked table lists the slowed stage on its first data row.
    let first_row = stdout
        .lines()
        .find(|l| l.starts_with("| `"))
        .expect("ranked table present");
    assert!(
        first_row.contains("`pipeline/transform`"),
        "worst frame first: {first_row}"
    );
    // 8 cycles x 400us injected = +3200us on that stage alone.
    assert!(first_row.contains("+3200"), "{first_row}");
}

#[test]
fn profile_diff_of_identical_profiles_is_clean() {
    let baseline = write_tmp("same-a.folded", &folded_pipeline(0));
    let current = write_tmp("same-b.folded", &folded_pipeline(0));
    let output = Command::new(env!("CARGO_BIN_EXE_augur-doctor"))
        .args(["--profile-diff"])
        .arg(&baseline)
        .arg(&current)
        .output()
        .expect("doctor runs");
    assert_eq!(output.status.code(), Some(0));
    // Determinism end to end: the two same-seed folded renderings are
    // byte-identical files.
    let a = std::fs::read(&baseline).expect("read");
    let b = std::fs::read(&current).expect("read");
    assert_eq!(a, b);
}

#[test]
fn profile_diff_rejects_weights_that_would_read_as_improvements() {
    // A frame growing from nothing to 2^63 µs: as a signed delta that
    // weight wraps negative, so the gate must refuse the input rather
    // than rank the regression as an improvement and pass.
    let baseline = write_tmp("huge-base.folded", "run 10\n");
    let current = write_tmp("huge-cur.folded", "run 10\nrun;hog 9223372036854775808\n");
    let output = Command::new(env!("CARGO_BIN_EXE_augur-doctor"))
        .args(["--profile-diff"])
        .arg(&baseline)
        .arg(&current)
        .output()
        .expect("doctor runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("line 2"), "error names the line: {stderr}");
}

#[test]
fn profile_diff_usage_errors_exit_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_augur-doctor"))
        .args(["--profile-diff", "/nonexistent/a.folded"])
        .output()
        .expect("doctor runs");
    assert_eq!(output.status.code(), Some(2), "missing second operand");
    let output = Command::new(env!("CARGO_BIN_EXE_augur-doctor"))
        .args([
            "--profile-diff",
            "/nonexistent/a.folded",
            "/nonexistent/b.folded",
        ])
        .output()
        .expect("doctor runs");
    assert_eq!(output.status.code(), Some(2), "unreadable inputs");
}
