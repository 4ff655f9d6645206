//! CLI contract tests: the exit-code mapping (0 clean, 1 violations or
//! an unused `audit.allow` entry, 2 usage, 3 internal error), `--explain`,
//! and SARIF output. These are the codes CI keys off — a red `1` means
//! the tree regressed, a red `3` means the audit itself could not run.

#![allow(clippy::unwrap_used, clippy::expect_used)] // integration tests: a panic here IS the test failure

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_augur-audit"))
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A throwaway tree seeded with `files`; removed on drop.
struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str, files: &[(&str, &str)]) -> Self {
        let root =
            std::env::temp_dir().join(format!("augur-audit-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, src) in files {
            let path = root.join(rel);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent).unwrap();
            }
            fs::write(&path, src).unwrap();
        }
        TempTree(root)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn committed_tree_exits_zero() {
    let status = bin().arg("--root").arg(workspace_root()).status().unwrap();
    assert_eq!(
        status.code(),
        Some(0),
        "the committed tree must audit clean"
    );
}

#[test]
fn violations_exit_one() {
    let tree = TempTree::new(
        "viol",
        &[(
            "crates/stream/src/bad.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )],
    );
    let status = bin().arg("--root").arg(&tree.0).status().unwrap();
    assert_eq!(status.code(), Some(1));
}

#[test]
fn missing_root_exits_three() {
    let status = bin()
        .arg("--root")
        .arg("/nonexistent/audit/root")
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(3),
        "I/O failure is internal, not a violation"
    );
}

#[test]
fn malformed_allowlist_exits_three() {
    let tree = TempTree::new(
        "badallow",
        &[
            ("crates/geo/src/ok.rs", "pub fn f() {}\n"),
            ("audit.allow", "crates/geo/src/ok.rs flag\n"),
        ],
    );
    let status = bin().arg("--root").arg(&tree.0).status().unwrap();
    assert_eq!(
        status.code(),
        Some(3),
        "an entry without a reason is a parse failure, which must not read as clean"
    );
}

#[test]
fn unknown_flag_and_bad_format_exit_two() {
    let status = bin().arg("--bogus").status().unwrap();
    assert_eq!(status.code(), Some(2));
    let status = bin().args(["--format", "xml"]).status().unwrap();
    assert_eq!(status.code(), Some(2));
}

#[test]
fn unused_allowlist_entry_exits_one() {
    let tree = TempTree::new(
        "unused",
        &[
            ("crates/geo/src/ok.rs", "pub fn f() {}\n"),
            (
                "audit.allow",
                "# reviewed\ncrates/geo/src/gone.rs flag the site was fixed\n",
            ),
        ],
    );
    let out = bin().arg("--root").arg(&tree.0).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "an allowlist entry that permits nothing must fail the run"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit.allow:2"), "{text}");
}

#[test]
fn sarif_output_is_written_and_versioned() {
    let tree = TempTree::new(
        "sarif",
        &[(
            "crates/stream/src/bad.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )],
    );
    let out_path = tree.0.join("audit.sarif");
    let status = bin()
        .arg("--root")
        .arg(&tree.0)
        .args(["--format", "sarif", "--output"])
        .arg(&out_path)
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(1),
        "SARIF output does not change the exit code"
    );
    let doc = fs::read_to_string(&out_path).unwrap();
    assert!(doc.contains("\"version\":\"2.1.0\""));
    assert!(doc.contains("\"ruleId\":\"no-unwrap\""));
}

#[test]
fn explain_documents_every_rule() {
    let out = bin().args(["--explain", "all"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "lock-order-cycle",
        "no-blocking-hot-path",
        "bounded-channels-only",
        "spawn-confined",
        "atomics-ordering",
        "no-unwrap",
    ] {
        assert!(text.contains(rule), "--explain all must list {rule}");
        let one = bin().args(["--explain", rule]).output().unwrap();
        assert_eq!(one.status.code(), Some(0));
        assert!(String::from_utf8_lossy(&one.stdout).contains(rule));
    }
    let unknown = bin().args(["--explain", "no-such-rule"]).output().unwrap();
    assert_eq!(unknown.status.code(), Some(2));
}

#[test]
fn self_test_passes() {
    let status = bin().arg("--self-test").status().unwrap();
    assert_eq!(status.code(), Some(0));
}
