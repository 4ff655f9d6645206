//! Tier-1 gate for the in-repo static analyzer.
//!
//! Running `cargo test` must fail if anyone reintroduces a panic path,
//! a std lock, wall-clock/entropy use, a lock-order cycle, a blocking
//! call on the per-record path, an unbounded channel, a stray
//! `thread::spawn`, or an unreviewed `Ordering::Relaxed` — the same
//! policy `cargo run -p augur-audit` applies, wired into the test suite
//! so CI and local runs cannot skip it. Every deny finding fails the
//! gate; the committed `audit.allow` is the one list of reviewed
//! exceptions, and an entry in it that permits nothing is a finding too.
//! The SARIF export the CI step uploads is checked against SARIF 2.1.0's
//! required structure here as well.
#![allow(clippy::expect_used, clippy::panic)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use augur::semantic::json::JsonValue;
use augur_audit::{audit_workspace, explain, sarif, Report, Severity};

/// The shipped tree passes the audit: no deny findings, and every
/// `audit.allow` entry still permits at least one site.
#[test]
fn workspace_is_audit_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = audit_workspace(root).expect("workspace sources are readable");
    let denials: Vec<String> = report
        .denials()
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        denials.is_empty(),
        "static audit found {} denial(s):\n{}",
        denials.len(),
        denials.join("\n")
    );
}

/// The analyzer itself still detects every seeded violation class —
/// guards against the audit silently going blind. Covers the five
/// concurrency rules (lock-order cycle, blocking reachability, channel
/// discipline, spawn confinement, atomics ordering) alongside the
/// original per-file rules.
#[test]
fn analyzer_detects_seeded_violations() {
    augur_audit::selftest::run().expect("self-test detects all fixture violations");
}

/// Slice indexing is an advisory, never a denial: the committed tree has
/// `indexing` findings, and every one of them is `Severity::Advice`.
/// Promoting the rule to deny in `rules.rs` fails this test.
#[test]
fn advisories_are_not_denials() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = audit_workspace(root).expect("workspace sources are readable");
    let indexing: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "indexing")
        .collect();
    assert!(!indexing.is_empty(), "no indexing findings in the tree");
    assert!(indexing.iter().all(|v| v.severity == Severity::Advice));
}

/// The value at `path` below `v`.
fn at<'a>(v: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter().fold(v, |v, name| {
        v.field(name)
            .unwrap_or_else(|e| panic!("SARIF: no {}: {e:?}", path.join(".")))
    })
}

fn text<'a>(v: &'a JsonValue, path: &[&str]) -> &'a str {
    at(v, path)
        .as_str()
        .unwrap_or_else(|e| panic!("SARIF: {} is not a string: {e:?}", path.join(".")))
}

fn array<'a>(v: &'a JsonValue, path: &[&str]) -> &'a [JsonValue] {
    at(v, path)
        .as_array()
        .unwrap_or_else(|e| panic!("SARIF: {} is not an array: {e:?}", path.join(".")))
}

/// Checks `report`'s SARIF export against SARIF 2.1.0's required
/// structure and returns each result's `(message, uri)`, in order.
fn check_sarif(report: &Report) -> Vec<(String, String)> {
    let rendered = sarif::render(report);
    // The export is compact, so any control character in it sits
    // unescaped inside a string, which JSON forbids (and which
    // `JsonValue::parse` would accept).
    assert!(
        !rendered.chars().any(char::is_control),
        "unescaped control character"
    );
    let doc = JsonValue::parse(&rendered).expect("SARIF parses as JSON");
    assert_eq!(text(&doc, &["version"]), "2.1.0");
    let schema = text(&doc, &["$schema"]);
    assert!(schema.contains("sarif-schema-2.1.0"), "{schema}");
    let runs = array(&doc, &["runs"]);
    assert_eq!(runs.len(), 1, "exactly one run");
    let run = &runs[0];
    assert_eq!(text(run, &["tool", "driver", "name"]), "augur-audit");

    let rules = array(run, &["tool", "driver", "rules"]);
    let ids: BTreeSet<&str> = rules.iter().map(|r| text(r, &["id"])).collect();
    assert_eq!(ids.len(), rules.len(), "duplicate rule ids");
    for rule in rules {
        let id = text(rule, &["id"]);
        assert!(
            !text(rule, &["shortDescription", "text"]).is_empty(),
            "{id}"
        );
    }
    for (code, _, _) in explain::RULES {
        assert!(ids.contains(code), "documented rule {code} missing");
    }

    let results = array(run, &["results"]);
    assert_eq!(results.len(), report.violations.len());
    results
        .iter()
        .map(|res| {
            let rule = text(res, &["ruleId"]);
            assert!(ids.contains(rule), "{rule} is not a driver rule");
            let level = text(res, &["level"]);
            assert!(matches!(level, "error" | "warning" | "note"), "{level}");
            assert!(
                res.field("suppressions").is_err(),
                "no result is suppressed"
            );
            let message = text(res, &["message", "text"]);
            assert!(!message.is_empty(), "{rule}: empty message");
            let loc = at(
                array(res, &["locations"]).first().expect("a location"),
                &["physicalLocation"],
            );
            let uri = text(loc, &["artifactLocation", "uri"]);
            assert!(!uri.is_empty(), "{rule}: empty uri");
            let line = at(loc, &["region", "startLine"])
                .as_f64()
                .expect("startLine is a number");
            assert!(line >= 1.0, "{rule}: startLine {line}");
            (message.to_string(), uri.to_string())
        })
        .collect()
}

/// A throwaway tree seeded with `files`; removed on drop.
struct TempTree(PathBuf);

impl TempTree {
    fn new(files: &[(&str, &str)]) -> Self {
        let root = std::env::temp_dir().join(format!("augur-static-audit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, src) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("a parent")).expect("tree is writable");
            fs::write(&path, src).expect("tree is writable");
        }
        TempTree(root)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The committed tree's SARIF export has SARIF 2.1.0's structure, and
/// so has a report whose one deny finding needs escaping: its message
/// quotes a source line holding `"` and `\`, and its file lies under a
/// crate directory whose name holds `"` and a newline. Both read back
/// unchanged.
#[test]
fn sarif_export_is_structurally_valid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = audit_workspace(root).expect("workspace sources are readable");
    check_sarif(&report);

    let tree = TempTree::new(&[(
        "crates/q\"uote\nline/src/lib.rs",
        "//! Crate docs.\npub const S: &str = \"a\\\"b\\\\c\";\n",
    )]);
    let report = audit_workspace(&tree.0).expect("temp tree is readable");
    let finding = report.denials().next().expect("the export is undocumented");
    assert_eq!(finding.rule, "documented-exports");
    assert!(
        finding.message.contains("\"a\\\"b\\\\c\""),
        "{}",
        finding.message
    );
    assert!(finding.file.contains("\"uote\nline"), "{}", finding.file);
    let expected: Vec<(String, String)> = report
        .violations
        .iter()
        .map(|v| (v.message.clone(), v.file.clone()))
        .collect();
    assert_eq!(check_sarif(&report), expected);
}
