//! `augur-doctor diff` over copies of the committed baseline bundle: an
//! identical copy exits 0, and a file on one side only, one changed byte
//! in a trace, or one changed snapshot value exits 1 naming the file; a
//! missing path exits 2.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baseline")
}

/// A fresh copy of the committed baseline under the temp directory.
fn copy_of_baseline(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("augur-doctor-diff-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for entry in std::fs::read_dir(baseline()).expect("baseline is readable") {
        let path = entry.expect("baseline entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    dir
}

fn doctor_diff(base: &Path, cur: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_augur-doctor"))
        .arg("diff")
        .arg(base)
        .arg(cur)
        .output()
        .expect("doctor runs")
}

/// Runs `diff` from the baseline to `cur`, requires exit 1 and a
/// section for `name`, and returns stdout.
fn differs(cur: &Path, name: &str) -> String {
    let output = doctor_diff(&baseline(), cur);
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    std::fs::remove_dir_all(cur).expect("remove the copy");
    assert_eq!(output.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains(&format!("## `{name}`")), "{stdout}");
    assert!(stdout.contains("**1 of "), "only {name} differs:\n{stdout}");
    stdout
}

#[test]
fn identical_directories_exit_0() {
    let copy = copy_of_baseline("same");
    let output = doctor_diff(&baseline(), &copy);
    std::fs::remove_dir_all(&copy).expect("remove the copy");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("file(s) identical."), "{stdout}");
}

#[test]
fn a_file_on_one_side_only_is_a_difference() {
    let copy = copy_of_baseline("one-side");
    std::fs::remove_file(copy.join("e3_offload.folded")).expect("remove one file");
    let stdout = differs(&copy, "e3_offload.folded");
    assert!(stdout.contains("only in base"), "{stdout}");
}

#[test]
fn one_changed_byte_in_a_trace_is_a_difference() {
    let copy = copy_of_baseline("trace-byte");
    let path = copy.join("e12_stream.trace.json");
    let mut bytes = std::fs::read(&path).expect("read trace");
    let at = bytes.len() / 2;
    bytes[at] ^= 1;
    std::fs::write(&path, bytes).expect("write trace");
    let stdout = differs(&copy, "e12_stream.trace.json");
    assert!(stdout.contains("bytes differ"), "{stdout}");
}

#[test]
fn one_changed_snapshot_value_is_named() {
    let copy = copy_of_baseline("snapshot-value");
    let path = copy.join("e12_stream.json");
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    let changed = text.replace(
        "{\"name\":\"exactly_once\",\"labels\":{},\"value\":1}",
        "{\"name\":\"exactly_once\",\"labels\":{},\"value\":0}",
    );
    assert_ne!(text, changed, "the snapshot has an exactly_once gauge");
    std::fs::write(&path, changed).expect("write snapshot");
    let stdout = differs(&copy, "e12_stream.json");
    assert!(
        stdout.contains("- metric `exactly_once`: 1 -> 0"),
        "{stdout}"
    );
}

#[test]
fn a_missing_path_exits_2() {
    let missing = std::env::temp_dir().join("augur-doctor-diff-no-such-dir");
    let output = doctor_diff(&baseline(), &missing);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("augur-doctor-diff-no-such-dir"), "{stderr}");
}
