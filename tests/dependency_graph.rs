//! Every dependency edge a manifest declares is one its code uses. For
//! the root manifest and each `crates/*/Cargo.toml`, a `[dependencies]`
//! entry must be named (`name::` or `use name`, `-` written `_`) by
//! library code under `src/`, not counting comments, literals and
//! `#[cfg(test)]` items; a `[dev-dependencies]` entry must be named
//! under `src/` (doctests too), `tests/`, `examples/` or `benches/`. Each
//! `vendor/<name>` crate must be a dependency of one of those manifests.
//! `wallbench/` is a workspace of its own and is not checked here.
#![allow(clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use augur_audit::lexer::{scrub, strip_test_items};

/// The entry names of the manifest table whose header is `[<header>`.
fn table(manifest: &str, header: &str) -> Vec<String> {
    let body = manifest.split("\n[").find_map(|s| s.strip_prefix(header));
    let lines = body.unwrap_or_default().lines().skip(1);
    let entries = lines.filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    entries
        .filter_map(|l| l.split(['.', '=', ' ']).next().map(str::to_owned))
        .collect()
}

/// Every `.rs` file below `dir` (none if `dir` is absent).
fn sources(dir: PathBuf) -> Vec<String> {
    let entries = fs::read_dir(dir).into_iter().flatten();
    let paths = entries.map(|e| e.expect("directory entry").path());
    paths
        .flat_map(|path| match path.extension() {
            _ if path.is_dir() => sources(path),
            Some(ext) if ext == "rs" => vec![fs::read_to_string(&path).expect("readable source")],
            _ => Vec::new(),
        })
        .collect()
}

/// Whether `code` names crate `ident` as a path root or in a `use`.
fn names(code: &str, ident: &str) -> bool {
    code.match_indices(ident).any(|(at, _)| {
        let (before, after) = (&code[..at], &code[at + ident.len()..]);
        !before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
            && (after.starts_with("::")
                || before.trim_end().ends_with("use") && after.starts_with([';', ' ']))
    })
}

#[test]
fn every_dependency_edge_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    let mut packages: Vec<PathBuf> = crates.map(|e| e.expect("crates/ entry").path()).collect();
    packages.push(root.to_path_buf());
    let (mut unused, mut declared) = (Vec::new(), Vec::new());
    for package in &packages {
        let manifest = fs::read_to_string(package.join("Cargo.toml")).expect("readable manifest");
        let lib = sources(package.join("src")).into_iter();
        let lib = lib.map(|src| strip_test_items(&scrub(&src))).collect();
        let targets = ["src", "tests", "examples", "benches"].map(|d| sources(package.join(d)));
        for (header, code) in [
            ("dependencies]", lib),
            ("dev-dependencies]", targets.concat()),
        ] {
            for dep in table(&manifest, header) {
                let ident = dep.replace('-', "_");
                if !code.iter().any(|text| names(text, &ident)) {
                    unused.push(format!("{}: [{header} {dep}", package.display()));
                }
                declared.push(dep);
            }
        }
    }
    for entry in fs::read_dir(root.join("vendor")).expect("vendor/ is readable") {
        let name = entry.expect("vendor/ entry").file_name();
        if !declared.iter().any(|dep| name == dep.as_str()) {
            unused.push(format!("{name:?}: no manifest depends on it"));
        }
    }
    assert_eq!(unused, Vec::<String>::new(), "unused dependency edges");
}
