//! The `Ordering::Relaxed` allowlist.
//!
//! The `audit.allow` file is the reviewed-exception list for the
//! `atomics-ordering` rule, and the only way to sanction a deny finding:
//! one line per `<file> <symbol> <reason...>`, e.g. a seqlock sequence
//! cell whose `Relaxed` ticket read is made correct by later
//! acquire/release fences. The reason is mandatory: an allowlist line
//! *is* the review record. An entry that permits no `Relaxed` site is
//! itself a finding ([`crate::concurrency::check_workspace`]), so the
//! exceptions only ever shrink.

use std::fs;
use std::io;
use std::path::Path;

/// One reviewed `Ordering::Relaxed` exception.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative path.
    pub file: String,
    /// Atomic receiver symbol (`*` matches any symbol in the file).
    pub symbol: String,
    /// Review rationale (mandatory).
    pub reason: String,
    /// 1-based line of the entry in `audit.allow`.
    pub line: usize,
}

impl AllowEntry {
    /// Whether this entry covers a `Relaxed` use of `symbol` in `file`.
    pub fn permits(&self, file: &str, symbol: &str) -> bool {
        self.file == file && (self.symbol == "*" || self.symbol == symbol)
    }
}

/// The parsed `audit.allow` file.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses `audit.allow` content: one `<file> <symbol> <reason...>` per
    /// line; `#` comments and blank lines are skipped.
    pub fn parse(input: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let mut parts = t.splitn(3, char::is_whitespace);
            let file = parts.next().unwrap_or("").to_string();
            let symbol = parts.next().unwrap_or("").to_string();
            let reason = parts.next().unwrap_or("").trim().to_string();
            if file.is_empty() || symbol.is_empty() || reason.is_empty() {
                return Err(format!(
                    "audit.allow line {}: expected `<file> <symbol> <reason...>` \
                     (the reason is the review record and is mandatory)",
                    lineno + 1
                ));
            }
            entries.push(AllowEntry {
                file,
                symbol,
                reason,
                line: lineno + 1,
            });
        }
        Ok(Self { entries })
    }

    /// Loads `<root>/audit.allow`. A missing file is the empty list; an
    /// unreadable or malformed one is an error
    /// ([`io::ErrorKind::InvalidData`] when malformed, so the CLI exits 3).
    pub fn discover(root: &Path) -> io::Result<Self> {
        let path = root.join("audit.allow");
        if !path.is_file() {
            return Ok(Self::default());
        }
        Self::parse(&fs::read_to_string(&path)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Whether a `Relaxed` use of `symbol` in `file` is reviewed-allowed.
    pub fn permits(&self, file: &str, symbol: &str) -> bool {
        self.entries.iter().any(|e| e.permits(file, symbol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_matching() {
        let a = Allowlist::parse(
            "# reviewed exceptions\n\
             crates/t/src/f.rs write ticket counter, published by Release stores\n\
             \n\
             crates/t/src/g.rs * whole file reviewed\n",
        )
        .unwrap_or_default();
        assert!(a.permits("crates/t/src/f.rs", "write"));
        assert!(!a.permits("crates/t/src/f.rs", "other"));
        assert!(a.permits("crates/t/src/g.rs", "anything"));
        assert!(!a.permits("crates/t/src/h.rs", "write"));
        let lines: Vec<usize> = a.entries.iter().map(|e| e.line).collect();
        assert_eq!(lines, vec![2, 4]);
        assert!(Allowlist::parse("f.rs sym\n").is_err(), "reason required");
    }
}
