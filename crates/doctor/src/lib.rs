//! Explains how two artifact bundles differ.
//!
//! Every artifact under `results/baseline/` runs on modeled time under
//! fixed seeds, so a fresh `--artifacts` run reproduces it byte for
//! byte, and equality is the gate. [`diff_paths`] compares two files or
//! two directories (over the union of their file names: a file on one
//! side only is a difference) and explains each pair whose bytes differ
//! in the artifact's own terms:
//!
//! - `.xray.json` ([`xray`]): the critical-path head, stage shares, the
//!   speedup bound, measured efficiency and blocked shares;
//! - `.folded` ([`profile_diff`]): frames ranked by self-time delta;
//! - `.log.jsonl` ([`logs`]): WARN/ERROR patterns that are novel or gone;
//! - any other `.json` but `.trace.json` and `.speedscope.json`
//!   ([`snapshot`]): changed params and changed, added or removed
//!   metrics;
//! - anything else, or a difference none of the above explains:
//!   "bytes differ".
//!
//! [`wallbench`] checks one measured run's verdict line, the only
//! artifact here that is not reproducible.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Log patterns that are novel or gone (`.log.jsonl`).
pub mod logs;
/// Frames ranked by self-time delta (`.folded`).
pub mod profile_diff;
/// Param and metric changes between bench snapshots (`.json`).
pub mod snapshot;
/// Smoke check over one wallbench run's verdict (`--wallbench-result`).
pub mod wallbench;
/// Bottleneck-shape changes between xray reports (`.xray.json`).
pub mod xray;

/// One compared file whose bytes differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDiff {
    /// The file's path relative to the compared directories, or the base
    /// file's name when two files were compared; its suffix picks the
    /// artifact kind.
    pub name: String,
    /// Markdown lines explaining the difference; never empty.
    pub explanation: Vec<String>,
}

/// The outcome of comparing two files or two directories.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Files compared (the union of both sides' names).
    pub compared: usize,
    /// The files that differ, in name order.
    pub differing: Vec<FileDiff>,
}

/// Explains how the bytes of `cur` differ from `base` for an artifact
/// named `name`; the artifact kind follows from the name's suffix.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when either side does not parse as the
/// artifact kind its name says.
pub fn explain(name: &str, base: &[u8], cur: &[u8]) -> io::Result<Vec<String>> {
    let text = |bytes| {
        std::str::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("not UTF-8: {e}")))
    };
    let lines = if name.ends_with(".xray.json") {
        xray::explain(text(base)?, text(cur)?)?
    } else if name.ends_with(".folded") {
        profile_diff::explain(text(base)?, text(cur)?)?
    } else if name.ends_with(".log.jsonl") {
        logs::explain(text(base)?, text(cur)?)?
    } else if name.ends_with(".json")
        && !name.ends_with(".trace.json")
        && !name.ends_with(".speedscope.json")
    {
        snapshot::explain(text(base)?, text(cur)?)?
    } else {
        Vec::new()
    };
    if lines.is_empty() {
        return Ok(vec!["bytes differ".to_string()]);
    }
    Ok(lines)
}

/// Every file below `dir`, as paths relative to it.
fn files_below(dir: &Path, prefix: &Path, out: &mut BTreeSet<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let rel = prefix.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            files_below(&entry.path(), &rel, out)?;
        } else {
            out.insert(rel);
        }
    }
    Ok(())
}

/// Compares `base` with `cur`: two files, or two directories over the
/// union of the files below them.
///
/// # Errors
///
/// An I/O error, labelled with its path, when a path cannot be read, or
/// when one path is a directory and the other is not; a parse error
/// from [`explain`], labelled with the file's path.
pub fn diff_paths(base: &Path, cur: &Path) -> io::Result<DiffReport> {
    let label =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let base_meta = std::fs::metadata(base).map_err(|e| label(base, e))?;
    let cur_meta = std::fs::metadata(cur).map_err(|e| label(cur, e))?;
    let (names, base_dir, cur_dir) = match (base_meta.is_dir(), cur_meta.is_dir()) {
        (true, true) => {
            let mut names = BTreeSet::new();
            files_below(base, Path::new(""), &mut names).map_err(|e| label(base, e))?;
            files_below(cur, Path::new(""), &mut names).map_err(|e| label(cur, e))?;
            (names, base.to_path_buf(), cur.to_path_buf())
        }
        (false, false) => {
            let name = base.file_name().map(PathBuf::from).unwrap_or_default();
            let report = DiffReport {
                compared: 1,
                differing: diff_file(&name, base, cur)?.into_iter().collect(),
            };
            return Ok(report);
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} and {} must both be files or both be directories",
                    base.display(),
                    cur.display()
                ),
            ))
        }
    };
    let mut report = DiffReport {
        compared: names.len(),
        differing: Vec::new(),
    };
    for name in &names {
        let (b, c) = (base_dir.join(name), cur_dir.join(name));
        let only = |side: &str| FileDiff {
            name: name.display().to_string(),
            explanation: vec![format!("only in {side}")],
        };
        let diff = match (b.exists(), c.exists()) {
            (true, false) => Some(only("base")),
            (false, true) => Some(only("current")),
            _ => diff_file(name, &b, &c)?,
        };
        report.differing.extend(diff);
    }
    Ok(report)
}

/// Compares the files `base` and `cur`, explaining a difference under
/// the artifact name `name`.
fn diff_file(name: &Path, base: &Path, cur: &Path) -> io::Result<Option<FileDiff>> {
    let read = |path: &Path| {
        std::fs::read(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    };
    let (b, c) = (read(base)?, read(cur)?);
    if b == c {
        return Ok(None);
    }
    let name = name.display().to_string();
    let explanation = explain(&name, &b, &c).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{} / {}: {e}", base.display(), cur.display()),
        )
    })?;
    Ok(Some(FileDiff { name, explanation }))
}

/// Renders the report: one section per differing file, then a summary
/// line.
pub fn render_markdown(report: &DiffReport) -> String {
    let mut out = String::from("# augur-doctor diff\n");
    for diff in &report.differing {
        let _ = writeln!(out, "\n## `{}`\n", diff.name);
        for line in &diff.explanation {
            let _ = writeln!(out, "{line}");
        }
    }
    if report.differing.is_empty() {
        let _ = writeln!(out, "\n{} file(s) identical.", report.compared);
    } else {
        let _ = writeln!(
            out,
            "\n**{} of {} file(s) differ.**",
            report.differing.len(),
            report.compared
        );
    }
    out
}
