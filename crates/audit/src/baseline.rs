//! Baseline (suppression) file and `Ordering::Relaxed` allowlist.
//!
//! New rules land strict: pre-existing findings are not grandfathered
//! silently but recorded in a committed `audit.baseline.json`, each entry
//! naming the file, the rule, the exact number of expected findings, and
//! the burn-down rationale. The audit subtracts baseline entries from the
//! deny set; an entry that matches *fewer* findings than its count is
//! **stale** and fails the run — fixing a finding forces the suppression
//! to be pruned in the same change, so the baseline only ever shrinks.
//!
//! The `audit.allow` file is the reviewed-exception list for the
//! `atomics-ordering` rule: one line per `<file> <symbol> <reason...>`,
//! e.g. a seqlock sequence cell whose `Relaxed` ticket read is made
//! correct by later acquire/release fences. The reason is mandatory: an
//! allowlist line *is* the review record.
//!
//! The baseline is JSON (so CI and editors can manipulate it) parsed by a
//! minimal hand-rolled reader — the audit crate stays dependency-free.

use std::fs;
use std::path::Path;

use crate::rules::{Severity, Violation};

// ---------------------------------------------------------------------------
// Minimal JSON reader (objects/arrays/strings/numbers/bools/null).
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `{...}` with insertion-ordered keys.
    Object(Vec<(String, Json)>),
    /// `[...]`.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// A number (f64 is enough for counts and versions).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The reader
/// recurses once per level, so a bound keeps hostile input from
/// overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document, returning a readable error on malformed input
/// (nesting deeper than [`MAX_DEPTH`] included).
pub fn parse_json(input: &str) -> Result<Json, String> {
    let t: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    let v = parse_value(&t, &mut i, 0)?;
    skip_ws(&t, &mut i);
    if i != t.len() {
        return Err(format!("trailing content at offset {i}"));
    }
    Ok(v)
}

fn skip_ws(t: &[char], i: &mut usize) {
    while t.get(*i).is_some_and(|c| c.is_whitespace()) {
        *i += 1;
    }
}

/// Parses the value at `i`, nested `depth` arrays/objects deep.
fn parse_value(t: &[char], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(t, i);
    match t.get(*i) {
        Some('{' | '[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {i}"))
        }
        Some('{') => parse_object(t, i, depth + 1),
        Some('[') => parse_array(t, i, depth + 1),
        Some('"') => parse_string(t, i).map(Json::Str),
        Some('t') => parse_lit(t, i, "true", Json::Bool(true)),
        Some('f') => parse_lit(t, i, "false", Json::Bool(false)),
        Some('n') => parse_lit(t, i, "null", Json::Null),
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(t, i),
        Some(c) => Err(format!("unexpected `{c}` at offset {i}")),
        None => Err(String::from("unexpected end of input")),
    }
}

fn parse_lit(t: &[char], i: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    let l: Vec<char> = lit.chars().collect();
    if t.len() >= *i + l.len() && t[*i..*i + l.len()] == l[..] {
        *i += l.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at offset {i}"))
    }
}

fn parse_number(t: &[char], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    if t.get(*i) == Some(&'-') {
        *i += 1;
    }
    while t
        .get(*i)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
    {
        *i += 1;
    }
    let s: String = t.get(start..*i).unwrap_or(&[]).iter().collect();
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{s}` at offset {start}"))
}

fn parse_string(t: &[char], i: &mut usize) -> Result<String, String> {
    if t.get(*i) != Some(&'"') {
        return Err(format!("expected string at offset {i}"));
    }
    *i += 1;
    let mut s = String::new();
    loop {
        match t.get(*i) {
            None => return Err(String::from("unterminated string")),
            Some('"') => {
                *i += 1;
                return Ok(s);
            }
            Some('\\') => {
                *i += 1;
                match t.get(*i) {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let hex: String = t.get(*i + 1..*i + 5).unwrap_or(&[]).iter().collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape at offset {i}"))?;
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at offset {i}")),
                }
                *i += 1;
            }
            Some(c) => {
                s.push(*c);
                *i += 1;
            }
        }
    }
}

fn parse_array(t: &[char], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // '['
    let mut items = Vec::new();
    skip_ws(t, i);
    if t.get(*i) == Some(&']') {
        *i += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(t, i, depth)?);
        skip_ws(t, i);
        match t.get(*i) {
            Some(',') => *i += 1,
            Some(']') => {
                *i += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {i}")),
        }
    }
}

fn parse_object(t: &[char], i: &mut usize, depth: usize) -> Result<Json, String> {
    *i += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(t, i);
    if t.get(*i) == Some(&'}') {
        *i += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(t, i);
        let key = parse_string(t, i)?;
        skip_ws(t, i);
        if t.get(*i) != Some(&':') {
            return Err(format!("expected `:` at offset {i}"));
        }
        *i += 1;
        let value = parse_value(t, i, depth)?;
        pairs.push((key, value));
        skip_ws(t, i);
        match t.get(*i) {
            Some(',') => *i += 1,
            Some('}') => {
                *i += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {i}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Baseline.
// ---------------------------------------------------------------------------

/// One suppression: up to `count` deny findings of `rule` in `file`.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Workspace-relative path the suppression applies to.
    pub file: String,
    /// Rule identifier, e.g. `no-blocking-hot-path`.
    pub rule: String,
    /// Exact number of findings this entry must match (stale otherwise).
    pub count: usize,
    /// Burn-down rationale (required — the entry is the review record).
    pub reason: String,
}

/// A committed suppression set ([`BaselineEntry`] list).
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// All entries, in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// The empty baseline (suppresses nothing).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses `audit.baseline.json` content.
    pub fn parse(input: &str) -> Result<Self, String> {
        let doc = parse_json(input)?;
        let entries_json = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| String::from("baseline: missing `entries` array"))?;
        let mut entries = Vec::new();
        for (n, e) in entries_json.iter().enumerate() {
            let field = |k: &str| -> Result<String, String> {
                e.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline entry {n}: missing string `{k}`"))
            };
            let count = e.get("count").and_then(Json::as_num).unwrap_or(1.0);
            if count < 1.0 || count.fract() != 0.0 {
                return Err(format!(
                    "baseline entry {n}: `count` must be a positive integer"
                ));
            }
            entries.push(BaselineEntry {
                file: field("file")?,
                rule: field("rule")?,
                count: count as usize,
                reason: field("reason")?,
            });
        }
        Ok(Self { entries })
    }

    /// Loads and parses a baseline file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Splits findings into kept and suppressed, and reports stale entries.
    ///
    /// Deny findings are matched against entries in order; an entry whose
    /// matched total differs from its declared `count` is stale (the
    /// mismatch direction is named in the message). Advice findings are
    /// never suppressed.
    pub fn apply(
        &self,
        violations: Vec<Violation>,
    ) -> (Vec<Violation>, Vec<Violation>, Vec<String>) {
        let mut matched = vec![0usize; self.entries.len()];
        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        for v in violations {
            if v.severity != Severity::Deny {
                kept.push(v);
                continue;
            }
            let slot = self.entries.iter().enumerate().find(|(n, e)| {
                e.file == v.file && e.rule == v.rule && matched.get(*n).copied() < Some(e.count)
            });
            match slot {
                Some((n, _)) => {
                    if let Some(m) = matched.get_mut(n) {
                        *m += 1;
                    }
                    suppressed.push(v);
                }
                None => kept.push(v),
            }
        }
        let mut stale = Vec::new();
        for (n, e) in self.entries.iter().enumerate() {
            let got = matched.get(n).copied().unwrap_or(0);
            if got < e.count {
                stale.push(format!(
                    "{} {}: baseline expects {} finding(s), matched {} — prune the entry \
                     (the finding was fixed)",
                    e.file, e.rule, e.count, got
                ));
            }
        }
        (kept, suppressed, stale)
    }
}

// ---------------------------------------------------------------------------
// Allowlist.
// ---------------------------------------------------------------------------

/// One reviewed `Ordering::Relaxed` exception.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative path.
    pub file: String,
    /// Atomic receiver symbol (`*` matches any symbol in the file).
    pub symbol: String,
    /// Review rationale (mandatory).
    pub reason: String,
}

/// The parsed `audit.allow` file.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// The empty allowlist (permits nothing).
    pub fn empty() -> Self {
        Self::default()
    }

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
            });
        }
        Ok(Self { entries })
    }

    /// Loads and parses an allowlist file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read allowlist {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Whether a `Relaxed` use of `symbol` in `file` is reviewed-allowed.
    pub fn permits(&self, file: &str, symbol: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.file == file && (e.symbol == "*" || e.symbol == symbol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vio(file: &str, rule: &'static str) -> Violation {
        Violation {
            file: file.to_string(),
            line: 1,
            rule,
            severity: Severity::Deny,
            message: String::from("m"),
        }
    }

    #[test]
    fn json_round_trip_basics() {
        let doc = parse_json(
            "{\"version\": 1, \"entries\": [{\"file\": \"a.rs\", \"count\": 2, \
             \"ok\": true, \"note\": null, \"msg\": \"a \\\"q\\\" \\u0041\"}]}",
        );
        let doc = match doc {
            Ok(d) => d,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(doc.get("version").and_then(Json::as_num), Some(1.0));
        let entry = doc
            .get("entries")
            .and_then(Json::as_array)
            .and_then(<[Json]>::first);
        let msg = entry.and_then(|e| e.get("msg")).and_then(Json::as_str);
        assert_eq!(msg, Some("a \"q\" A"));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn baseline_suppresses_exact_counts() {
        let b = Baseline::parse(
            "{\"entries\": [{\"file\": \"f.rs\", \"rule\": \"no-unwrap\", \
             \"count\": 2, \"reason\": \"burn down\"}]}",
        )
        .unwrap_or_default();
        assert_eq!(b.entries.len(), 1);
        let (kept, suppressed, stale) =
            b.apply(vec![vio("f.rs", "no-unwrap"), vio("f.rs", "no-unwrap")]);
        assert!(kept.is_empty());
        assert_eq!(suppressed.len(), 2);
        assert!(stale.is_empty());
        // A third finding of the same shape is NOT suppressed.
        let (kept, suppressed, _) = b.apply(vec![
            vio("f.rs", "no-unwrap"),
            vio("f.rs", "no-unwrap"),
            vio("f.rs", "no-unwrap"),
        ]);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed.len(), 2);
    }

    #[test]
    fn baseline_reports_stale_entries() {
        let b = Baseline::parse(
            "{\"entries\": [{\"file\": \"gone.rs\", \"rule\": \"no-panic\", \
             \"reason\": \"was fixed\"}]}",
        )
        .unwrap_or_default();
        let (kept, suppressed, stale) = b.apply(vec![vio("other.rs", "no-panic")]);
        assert_eq!(kept.len(), 1);
        assert!(suppressed.is_empty());
        assert_eq!(stale.len(), 1);
        assert!(stale.first().is_some_and(|s| s.contains("gone.rs")));
    }

    #[test]
    fn baseline_rejects_malformed_input() {
        assert!(Baseline::parse("{}").is_err(), "missing entries");
        assert!(
            Baseline::parse("{\"entries\": [{\"file\": \"f.rs\"}]}").is_err(),
            "missing rule/reason"
        );
        assert!(
            Baseline::parse(
                "{\"entries\": [{\"file\": \"f\", \"rule\": \"r\", \
                 \"reason\": \"x\", \"count\": 0}]}"
            )
            .is_err(),
            "zero count"
        );
    }

    #[test]
    fn allowlist_matching() {
        let a = Allowlist::parse(
            "# reviewed exceptions\n\
             crates/t/src/f.rs write ticket counter, published by Release stores\n\
             crates/t/src/g.rs * whole file reviewed\n",
        )
        .unwrap_or_default();
        assert!(a.permits("crates/t/src/f.rs", "write"));
        assert!(!a.permits("crates/t/src/f.rs", "other"));
        assert!(a.permits("crates/t/src/g.rs", "anything"));
        assert!(!a.permits("crates/t/src/h.rs", "write"));
        assert!(Allowlist::parse("f.rs sym\n").is_err(), "reason required");
    }
}
