//! Invariant rules evaluated over scrubbed, test-stripped source.
//!
//! See `DESIGN.md` § "Correctness tooling" for the rationale behind each
//! invariant. Severities: a [`Severity::Deny`] finding fails the audit (and
//! the tier-1 test suite); [`Severity::Advice`] findings are informational and
//! printed only in verbose mode.

use crate::lexer;

/// How a finding affects the audit exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the audit.
    Deny,
    /// Reported in verbose mode; never fails the audit.
    Advice,
}

/// A single rule finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Short rule identifier, e.g. `no-unwrap`.
    pub rule: &'static str,
    /// Effect on exit status.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

/// Per-file rule configuration, derived from the file's crate and path.
#[derive(Debug, Clone, Copy)]
pub struct FilePolicy {
    /// Panic-family calls (`unwrap`/`expect`/`panic!`/...) are denied.
    pub deny_panics: bool,
    /// Wall-clock and entropy sources are denied (simulation determinism).
    pub deny_wall_clock: bool,
    /// Raw `Instant::now()` is denied: telemetry-instrumented crates must
    /// read time through `augur_telemetry::TimeSource`.
    pub deny_raw_instant: bool,
    /// `Registry::global()` is denied: library code must take a
    /// `&Registry` (or a `Tracer`) from the caller so metrics land in the
    /// caller's snapshot; the process-global registry is an
    /// examples/bin-only convenience.
    pub deny_global_registry: bool,
    /// Raw `std::net` socket use is denied: the live health endpoint in
    /// `crates/watch/src/serve.rs` is the sole sanctioned network site, so
    /// every listener the workspace opens is inventoried in one place.
    pub deny_raw_net: bool,
    /// `println!`/`eprintln!`/`dbg!` are denied: library code emits
    /// structured events through `augur_telemetry::log`, or routes a genuine console
    /// line through the sanctioned writer
    /// ([`crate::scan::PRINT_EXEMPT`]). Bins, CLIs, and tests are exempt.
    pub deny_prints: bool,
    /// Slice-indexing advisories are collected.
    pub advise_indexing: bool,
    /// The file is a crate root whose public items must be documented.
    pub require_docs: bool,
    /// `thread::spawn` / `thread::Builder` are denied: threads are confined
    /// to the sanctioned worker-pool modules ([`crate::scan::SPAWN_EXEMPT`]),
    /// bins, and tests.
    pub deny_unsanctioned_spawn: bool,
    /// Every `thread::spawn` in this file must register a worker lane:
    /// the enclosing function must reference a `Lane*` symbol
    /// (`Lanes::register`, `LaneIo`, ...). True for the sanctioned
    /// worker-pool modules ([`crate::scan::LANE_REQUIRED`]), so no
    /// worker thread escapes the per-lane flight rings and the
    /// busy/blocked accounting that xray's measured parallel efficiency
    /// is built on.
    pub require_lane_registration: bool,
    /// Unbounded channels (and bare-literal `bounded()` capacities) are
    /// denied: every queue needs named, auditable backpressure.
    pub deny_unbounded_channel: bool,
    /// Blocking operations are denied, directly and one call hop away: the
    /// file is on the per-record hot path and must never stall a frame.
    pub deny_blocking_hot_path: bool,
    /// `Ordering::Relaxed` is permitted without an allowlist entry: the
    /// file is a sanctioned counter module
    /// ([`crate::scan::ATOMICS_EXEMPT`]).
    pub relaxed_exempt: bool,
    /// The file is a binary entry point (`src/bin/` or `src/main.rs`):
    /// exempt from spawn confinement and excluded from the call index.
    pub is_entry: bool,
}

/// Panic-family patterns: method calls checked with exact substrings, macros
/// checked with a word boundary before the name.
const PANIC_METHODS: [(&str, &str); 3] = [
    (".unwrap()", "no-unwrap"),
    (".expect(", "no-expect"),
    (".unwrap_unchecked(", "no-unwrap"),
];

const PANIC_MACROS: [(&str, &str); 4] = [
    ("panic!", "no-panic"),
    ("unreachable!", "no-panic"),
    ("todo!", "no-panic"),
    ("unimplemented!", "no-panic"),
];

/// Lock-discipline patterns denied everywhere in library code: the workspace
/// standard is `parking_lot` (non-poisoning; see vendor/parking_lot).
const STD_LOCKS: [&str; 2] = ["std::sync::Mutex", "std::sync::RwLock"];

/// Determinism patterns denied everywhere: entropy-based RNG construction.
const ENTROPY: [&str; 3] = ["thread_rng", "from_entropy", "rand::random"];

/// Network-socket patterns confined to the sanctioned endpoint module.
const RAW_NET: [&str; 4] = ["std::net::", "TcpListener", "TcpStream", "UdpSocket"];

/// Global-allocator patterns, denied in every file.
const GLOBAL_ALLOC: [&str; 2] = ["global_allocator", "GlobalAlloc"];

/// Console-print macros confined to the sanctioned writer module. Matched at
/// word boundaries, so `println!` inside `eprintln!` reports once.
const PRINT_MACROS: [&str; 5] = ["println!", "eprintln!", "print!", "eprint!", "dbg!"];

/// Checks one file's source, appending findings to `out`.
pub fn check_source(file: &str, src: &str, policy: FilePolicy, out: &mut Vec<Violation>) {
    let scrubbed = lexer::scrub(src);
    let lib_code = lexer::strip_test_items(&scrubbed);

    if policy.deny_panics {
        for (pat, rule) in PANIC_METHODS {
            for idx in find_all(&lib_code, pat) {
                push(
                    out,
                    file,
                    &lib_code,
                    idx,
                    rule,
                    Severity::Deny,
                    format!(
                        "`{pat}` in library code: propagate through the crate error enum instead"
                    ),
                );
            }
        }
        for (pat, rule) in PANIC_MACROS {
            for idx in find_all(&lib_code, pat) {
                if is_word_start(&lib_code, idx) {
                    push(
                        out,
                        file,
                        &lib_code,
                        idx,
                        rule,
                        Severity::Deny,
                        format!(
                        "`{pat}` in library code: return an error instead of aborting the frame"
                    ),
                    );
                }
            }
        }
    }

    for pat in STD_LOCKS {
        for idx in find_all(&lib_code, pat) {
            push(
                out,
                file,
                &lib_code,
                idx,
                "parking-lot-standard",
                Severity::Deny,
                format!("`{pat}`: the workspace lock standard is parking_lot (non-poisoning)"),
            );
        }
    }
    // `use std::sync::{.., Mutex, ..}` grouped imports dodge the substring
    // match above; check import lines mentioning the tokens.
    for (lineno, line) in lib_code.lines().enumerate() {
        let t = line.trim_start();
        if t.starts_with("use std::sync::")
            && (contains_word(t, "Mutex") || contains_word(t, "RwLock"))
        {
            out.push(Violation {
                file: file.to_string(),
                line: lineno + 1,
                rule: "parking-lot-standard",
                severity: Severity::Deny,
                message: "std::sync lock import: the workspace lock standard is parking_lot"
                    .to_string(),
            });
        }
    }

    for idx in find_all(&lib_code, "SystemTime::now(") {
        push(out, file, &lib_code, idx, "no-wall-clock", Severity::Deny, String::from(
            "`SystemTime::now()` in library code: take timestamps as inputs (sensor clock / event time)"
        ));
    }

    for pat in ENTROPY {
        for idx in find_all(&lib_code, pat) {
            if is_word_start(&lib_code, idx) {
                push(
                    out,
                    file,
                    &lib_code,
                    idx,
                    "seeded-rng-only",
                    Severity::Deny,
                    format!(
                    "`{pat}`: all randomness must come from a seeded StdRng for reproducible runs"
                ),
                );
            }
        }
    }

    // One `Instant::now` scan serves both flags; the stricter simulation
    // rule wins when a path is covered by both so a site is reported once.
    if policy.deny_wall_clock || policy.deny_raw_instant {
        let (rule, message) = if policy.deny_wall_clock {
            (
                "no-wall-clock",
                "`Instant::now()` in simulation code: derive time from the simulated clock",
            )
        } else {
            (
                "time-source-only",
                "raw `Instant::now()` in a telemetry-instrumented crate: read time through \
                 `augur_telemetry::TimeSource` (ManualTime in simulations, MonotonicTime in benches)",
            )
        };
        for idx in find_all(&lib_code, "Instant::now(") {
            push(
                out,
                file,
                &lib_code,
                idx,
                rule,
                Severity::Deny,
                String::from(message),
            );
        }
    }

    if policy.deny_global_registry {
        for idx in find_all(&lib_code, "Registry::global(") {
            push(
                out,
                file,
                &lib_code,
                idx,
                "no-global-registry",
                Severity::Deny,
                String::from(
                    "`Registry::global()` in library code: accept a `&Registry` (or `Tracer`) \
                     from the caller so metrics land in the caller's snapshot; the global \
                     registry is for examples and binaries only",
                ),
            );
        }
    }

    if policy.deny_raw_net {
        for pat in RAW_NET {
            for idx in find_all(&lib_code, pat) {
                if is_word_start(&lib_code, idx) {
                    push(
                        out,
                        file,
                        &lib_code,
                        idx,
                        "net-confined",
                        Severity::Deny,
                        format!(
                            "`{pat}`: raw std::net sockets are confined to the watch \
                             endpoint (crates/watch/src/serve.rs); expose state through \
                             `augur_watch::WatchSession::serve` instead"
                        ),
                    );
                }
            }
        }
    }

    for pat in GLOBAL_ALLOC {
        for idx in find_all(&lib_code, pat) {
            if is_word_start(&lib_code, idx) {
                push(
                    out,
                    file,
                    &lib_code,
                    idx,
                    "alloc-confined",
                    Severity::Deny,
                    format!(
                        "`{pat}`: the workspace runs on the system allocator; a global \
                         allocator needs `unsafe`, which the workspace lints forbid"
                    ),
                );
            }
        }
    }

    if policy.deny_prints {
        for pat in PRINT_MACROS {
            for idx in find_all(&lib_code, pat) {
                if is_word_start(&lib_code, idx) {
                    push(
                        out,
                        file,
                        &lib_code,
                        idx,
                        "print-confined",
                        Severity::Deny,
                        format!(
                            "`{pat}` in library code: emit a structured event through \
                             `augur_telemetry::log`, or route a genuine console line \
                             through the sanctioned writer \
                             (crates/telemetry/src/log/writer.rs); ad-hoc prints \
                             bypass levels, rate limits, and the deterministic exporters"
                        ),
                    );
                }
            }
        }
    }

    if policy.advise_indexing {
        for idx in indexing_sites(&lib_code) {
            push(
                out,
                file,
                &lib_code,
                idx,
                "indexing",
                Severity::Advice,
                String::from("slice indexing can panic; prefer `.get()` on untrusted indices"),
            );
        }
    }

    if policy.require_docs {
        check_lib_docs(file, src, &scrubbed, out);
    }
}

/// Requires a doc comment on every `pub` item declared at the top level of a
/// crate root (`lib.rs`) — including `pub use` re-exports and `pub mod`s.
fn check_lib_docs(file: &str, raw: &str, scrubbed: &str, out: &mut Vec<Violation>) {
    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut depth = 0isize;
    for (lineno, sline) in scrubbed.lines().enumerate() {
        let at_top = depth == 0;
        for c in sline.chars() {
            match c {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' => depth -= 1,
                _ => {}
            }
        }
        if !at_top {
            continue;
        }
        let trimmed = sline.trim_start();
        if !(trimmed.starts_with("pub ") || trimmed.starts_with("pub(")) {
            continue;
        }
        // Walk upward over attributes to the nearest doc line.
        let mut k = lineno;
        let mut documented = false;
        while k > 0 {
            k -= 1;
            let above = raw_lines.get(k).map(|l| l.trim_start()).unwrap_or("");
            if above.starts_with("#[") || above.starts_with("#![") {
                continue;
            }
            documented = above.starts_with("///") || above.starts_with("#[doc");
            break;
        }
        if !documented {
            out.push(Violation {
                file: file.to_string(),
                line: lineno + 1,
                rule: "documented-exports",
                severity: Severity::Deny,
                message: format!(
                    "undocumented public item in crate root: `{}`",
                    raw_lines.get(lineno).map(|l| l.trim()).unwrap_or("<line>")
                ),
            });
        }
    }
}

/// All char indices at which `pat` occurs in `text`.
fn find_all(text: &str, pat: &str) -> Vec<usize> {
    let tv: Vec<char> = text.chars().collect();
    let pv: Vec<char> = pat.chars().collect();
    let mut hits = Vec::new();
    if pv.is_empty() || tv.len() < pv.len() {
        return hits;
    }
    for i in 0..=(tv.len() - pv.len()) {
        if tv[i..i + pv.len()] == pv[..] {
            hits.push(i);
        }
    }
    hits
}

/// Whether the char before `idx` is not part of an identifier (word boundary).
fn is_word_start(text: &str, idx: usize) -> bool {
    if idx == 0 {
        return true;
    }
    match text.chars().nth(idx - 1) {
        Some(c) => !(c.is_alphanumeric() || c == '_' || c == ':' || c == '.'),
        None => true,
    }
}

/// Whether `word` occurs in `text` bounded by non-identifier characters.
fn contains_word(text: &str, word: &str) -> bool {
    let tv: Vec<char> = text.chars().collect();
    let wv: Vec<char> = word.chars().collect();
    if wv.is_empty() || tv.len() < wv.len() {
        return false;
    }
    for i in 0..=(tv.len() - wv.len()) {
        if tv[i..i + wv.len()] == wv[..] {
            let before_ok = i == 0 || !(tv[i - 1].is_alphanumeric() || tv[i - 1] == '_');
            let after_ok = match tv.get(i + wv.len()) {
                Some(c) => !(c.is_alphanumeric() || *c == '_'),
                None => true,
            };
            if before_ok && after_ok {
                return true;
            }
        }
    }
    false
}

/// Heuristic slice-indexing detector: `ident[`, `)[`, `][` where the bracket
/// is not an attribute (`#[`) and not a type position we can cheaply exclude.
fn indexing_sites(text: &str) -> Vec<usize> {
    let tv: Vec<char> = text.chars().collect();
    let mut hits = Vec::new();
    for (i, &c) in tv.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        // Previous non-space char decides the context.
        let mut p = i;
        let mut prev = None;
        while p > 0 {
            p -= 1;
            if !tv[p].is_whitespace() {
                prev = Some(tv[p]);
                break;
            }
        }
        let indexing =
            matches!(prev, Some(pc) if pc.is_alphanumeric() || pc == '_' || pc == ')' || pc == ']');
        if !indexing {
            continue;
        }
        // Exclude empty-or-range-only brackets (`a[..]` clones a slice view).
        hits.push(i);
    }
    hits
}

fn push(
    out: &mut Vec<Violation>,
    file: &str,
    text: &str,
    idx: usize,
    rule: &'static str,
    severity: Severity,
    message: String,
) {
    out.push(Violation {
        file: file.to_string(),
        line: lexer::line_of(text, idx),
        rule,
        severity,
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const STRICT: FilePolicy = FilePolicy {
        deny_panics: true,
        deny_wall_clock: true,
        deny_raw_instant: false,
        deny_global_registry: true,
        deny_raw_net: true,
        deny_prints: true,
        advise_indexing: true,
        require_docs: false,
        deny_unsanctioned_spawn: true,
        require_lane_registration: false,
        deny_unbounded_channel: true,
        deny_blocking_hot_path: false,
        relaxed_exempt: false,
        is_entry: false,
    };

    fn deny_rules(src: &str) -> Vec<&'static str> {
        let mut v = Vec::new();
        check_source("t.rs", src, STRICT, &mut v);
        v.into_iter()
            .filter(|x| x.severity == Severity::Deny)
            .map(|x| x.rule)
            .collect()
    }

    #[test]
    fn flags_panic_family() {
        assert_eq!(deny_rules("fn f() { x.unwrap(); }"), vec!["no-unwrap"]);
        assert_eq!(deny_rules("fn f() { x.expect(\"m\"); }"), vec!["no-expect"]);
        assert_eq!(deny_rules("fn f() { panic!(\"m\"); }"), vec!["no-panic"]);
        assert_eq!(deny_rules("fn f() { todo!(); }"), vec!["no-panic"]);
    }

    #[test]
    fn ignores_test_code_and_literals() {
        assert!(deny_rules("#[cfg(test)] mod t { fn f() { x.unwrap(); } }").is_empty());
        assert!(deny_rules("fn f() { let s = \"x.unwrap()\"; }").is_empty());
        assert!(deny_rules("// x.unwrap()\nfn f() {}").is_empty());
    }

    #[test]
    fn no_false_positive_on_related_names() {
        assert!(deny_rules("fn f() { x.unwrap_or(0); }").is_empty());
        assert!(deny_rules("fn f() { x.unwrap_or_else(|| 0); }").is_empty());
        assert!(deny_rules("fn f() { x.expect_err(\"m\"); }").is_empty());
        assert!(deny_rules("fn f() { debug_assert!(true); }").is_empty());
    }

    #[test]
    fn flags_std_locks_and_clock() {
        assert_eq!(
            deny_rules("use std::sync::Mutex;"),
            vec!["parking-lot-standard", "parking-lot-standard"]
        );
        assert_eq!(
            deny_rules("use std::sync::{Arc, Mutex};"),
            vec!["parking-lot-standard"]
        );
        assert!(deny_rules("use std::sync::Arc;").is_empty());
        assert_eq!(
            deny_rules("fn f() { let t = std::time::SystemTime::now(); }"),
            vec!["no-wall-clock"]
        );
        assert_eq!(
            deny_rules("fn f() { let r = thread_rng(); }"),
            vec!["seeded-rng-only"]
        );
    }

    #[test]
    fn doc_rule_applies_to_lib_root() {
        let policy = FilePolicy {
            deny_panics: false,
            deny_wall_clock: false,
            deny_raw_instant: false,
            deny_global_registry: false,
            deny_raw_net: false,
            deny_prints: false,
            advise_indexing: false,
            require_docs: true,
            deny_unsanctioned_spawn: false,
            require_lane_registration: false,
            deny_unbounded_channel: false,
            deny_blocking_hot_path: false,
            relaxed_exempt: false,
            is_entry: false,
        };
        let mut v = Vec::new();
        check_source(
            "lib.rs",
            "/// Documented.\npub mod a;\npub use a::Thing;\n",
            policy,
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "documented-exports");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn raw_instant_rule_and_precedence() {
        let instrumented = FilePolicy {
            deny_wall_clock: false,
            deny_raw_instant: true,
            ..STRICT
        };
        let mut v = Vec::new();
        check_source(
            "t.rs",
            "fn f() { let t = std::time::Instant::now(); }",
            instrumented,
            &mut v,
        );
        let rules: Vec<_> = v
            .iter()
            .filter(|x| x.severity == Severity::Deny)
            .map(|x| x.rule)
            .collect();
        assert_eq!(rules, vec!["time-source-only"]);

        // When a path is both simulation and instrumented, the site is
        // reported once, under the simulation rule.
        let both = FilePolicy {
            deny_raw_instant: true,
            ..STRICT
        };
        let mut v = Vec::new();
        check_source("t.rs", "fn f() { Instant::now(); }", both, &mut v);
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["no-wall-clock"]);

        // Elapsed reads on an existing Instant are fine; only `now` is the
        // sanctioned-clock bypass.
        let mut v = Vec::new();
        check_source(
            "t.rs",
            "fn f(t: std::time::Instant) -> u128 { t.elapsed().as_nanos() }",
            instrumented,
            &mut v,
        );
        assert!(v.iter().all(|x| x.severity != Severity::Deny));
    }

    #[test]
    fn flags_global_registry_in_library_code() {
        assert_eq!(
            deny_rules("fn f() { let c = Registry::global().counter(\"x\"); }"),
            vec!["no-global-registry"]
        );
        assert_eq!(
            deny_rules("fn f() { augur_telemetry::Registry::global().gauge(\"g\").set(1.0); }"),
            vec!["no-global-registry"]
        );
        // Test code, comments, and passing a registry are all fine.
        assert!(deny_rules("#[cfg(test)] mod t { fn f() { Registry::global(); } }").is_empty());
        assert!(deny_rules("// call Registry::global() from bins only\nfn f() {}").is_empty());
        assert!(deny_rules("fn f(r: &Registry) { r.counter(\"x\").inc(); }").is_empty());
        // Exempt policy (bins): no finding.
        let bin_policy = FilePolicy {
            deny_global_registry: false,
            ..STRICT
        };
        let mut v = Vec::new();
        check_source("b.rs", "fn f() { Registry::global(); }", bin_policy, &mut v);
        assert!(v.iter().all(|x| x.rule != "no-global-registry"));
    }

    #[test]
    fn flags_raw_net_outside_the_endpoint() {
        // The path form is reported once at the `std::net::` site (the
        // type name after `::` is not at a word boundary), and bare type
        // names are caught wherever the import was split from the use.
        assert_eq!(
            deny_rules("fn f() { let l = std::net::TcpListener::bind(\"a\"); }"),
            vec!["net-confined"]
        );
        assert_eq!(
            deny_rules("fn f() { let s = TcpStream::connect(\"a\"); }"),
            vec!["net-confined"]
        );
        assert_eq!(
            deny_rules("fn f() { let u = UdpSocket::bind(\"a\"); }"),
            vec!["net-confined"]
        );
        // Comments, strings, and test code never trip the rule.
        assert!(deny_rules("// std::net::TcpStream is confined\nfn f() {}").is_empty());
        assert!(
            deny_rules("#[cfg(test)] mod t { fn f() { TcpListener::bind(\"a\"); } }").is_empty()
        );
        // The sanctioned endpoint policy is exempt.
        let endpoint = FilePolicy {
            deny_raw_net: false,
            ..STRICT
        };
        let mut v = Vec::new();
        check_source(
            "serve.rs",
            "fn f() { let l = std::net::TcpListener::bind(\"a\"); }",
            endpoint,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "net-confined"));
    }

    #[test]
    fn flags_global_allocators() {
        assert_eq!(
            deny_rules("#[global_allocator]\nstatic A: std::alloc::System = std::alloc::System;\n"),
            vec!["alloc-confined"]
        );
        assert_eq!(
            deny_rules("unsafe impl GlobalAlloc for MyAlloc {}\n"),
            vec!["alloc-confined"]
        );
        // Comments, strings, and test code never trip the rule.
        assert!(deny_rules("// a #[global_allocator] would be denied\nfn f() {}").is_empty());
        assert!(deny_rules("#[cfg(test)] mod t { unsafe impl GlobalAlloc for T {} }").is_empty());
    }

    #[test]
    fn flags_prints_outside_the_sanctioned_writer() {
        assert_eq!(
            deny_rules("fn f() { println!(\"progress {}\", 1); }"),
            vec!["print-confined"]
        );
        // `println!` inside `eprintln!` is not a second word-boundary
        // match: the site reports exactly once.
        assert_eq!(
            deny_rules("fn f() { eprintln!(\"oops\"); }"),
            vec!["print-confined"]
        );
        assert_eq!(
            deny_rules("fn f(x: u32) { dbg!(x); }"),
            vec!["print-confined"]
        );
        assert_eq!(
            deny_rules("fn f() { print!(\"a\"); eprint!(\"b\"); }"),
            vec!["print-confined", "print-confined"]
        );
        // Comments, strings, test code, and lookalike names never trip it.
        assert!(deny_rules("// println!(\"doc\") is denied here\nfn f() {}").is_empty());
        assert!(deny_rules("fn f() { let s = \"println!(no)\"; }").is_empty());
        assert!(deny_rules("#[cfg(test)] mod t { fn f() { println!(\"ok\"); } }").is_empty());
        assert!(deny_rules("fn f(w: &mut String) { my_println!(w); }").is_empty());
        // The sanctioned writer policy is exempt.
        let writer = FilePolicy {
            deny_prints: false,
            ..STRICT
        };
        let mut v = Vec::new();
        check_source(
            "writer.rs",
            "pub fn out_line(line: &str) { println!(\"{line}\"); }",
            writer,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "print-confined"));
    }

    #[test]
    fn indexing_is_advice_only() {
        let mut v = Vec::new();
        check_source("t.rs", "fn f(a: &[u8]) -> u8 { a[0] }", STRICT, &mut v);
        assert!(v.iter().all(|x| x.severity == Severity::Advice));
        assert!(v.iter().any(|x| x.rule == "indexing"));
    }
}
