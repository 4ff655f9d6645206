//! Cross-file concurrency & determinism rules over the scope pass.
//!
//! The ROADMAP's keystone refactor (the parallel sharded dataflow engine)
//! turns the paper's availability story (§4: degrade gracefully, never
//! stall mid-frame) into *concurrency* invariants. This module enforces
//! five of them mechanically, on top of [`crate::scope`]:
//!
//! 1. **`lock-order-cycle`** — every `parking_lot` acquisition is recorded
//!    with its guard lifetime; nested acquisitions (and, one level deep,
//!    acquisitions made by functions *called* while a guard is held) become
//!    edges in a workspace-wide lock-order graph. Any cycle is a potential
//!    deadlock and is reported on every edge that closes it.
//! 2. **`no-blocking-hot-path`** — blocking operations (`recv()`, blocking
//!    `send()`, condvar waits, `thread::sleep`, file I/O) are denied in
//!    per-record crates ([`crate::scan::PER_RECORD_CRATES`]), directly and
//!    one call-index hop away: per-record code calling a helper that blocks
//!    is flagged at the call site. The one sanctioned park is
//!    [`crate::scan::PARK_EXEMPT`], where a dedicated reader sleeps on an
//!    empty topic.
//! 3. **`bounded-channels-only`** — unbounded channels are denied
//!    workspace-wide (backpressure is load-bearing for ROADMAP item 1),
//!    and `bounded()` call sites must carry a *named* capacity, not a bare
//!    numeric literal.
//! 4. **`spawn-confined`** — `thread::spawn` / `thread::Builder` are
//!    allowed only in the sanctioned worker-pool modules
//!    ([`crate::scan::SPAWN_EXEMPT`]), bins, and tests, so the sharded
//!    engine keeps a single auditable spawn surface.
//! 5. **`atomics-ordering`** — `Ordering::Relaxed` is permitted only in
//!    the sanctioned counter modules ([`crate::scan::ATOMICS_EXEMPT`]) or
//!    under a reviewed entry in the `audit.allow` file; flag and seqlock
//!    sites must use acquire/release. An entry that permits no `Relaxed`
//!    site is reported at its `audit.allow` line, to be pruned.
//! 6. **`spawn-lane-registered`** — inside the sanctioned worker-pool
//!    modules ([`crate::scan::LANE_REQUIRED`]), every `thread::spawn`
//!    must sit in a function that references a `Lane*` symbol
//!    (`Lanes::register`, `LaneIo`, ...): a worker thread without a
//!    lane is invisible to the per-lane flight rings and corrupts the
//!    measured parallel-efficiency denominator.

use std::collections::{BTreeMap, BTreeSet};

use crate::allow::Allowlist;
use crate::lexer;
use crate::rules::{FilePolicy, Severity, Violation};
use crate::scan::PARK_EXEMPT;
use crate::scope;

/// A `parking_lot` guard acquisition with its conservative lifetime.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Normalized lock identity within the file's crate (the receiver's
    /// last component, e.g. `partitions` for `t.partitions[i].write()`).
    pub ident: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Char position of the acquisition (the `.` of `.lock()`).
    pub pos: usize,
    /// Char position past which the guard is surely dead.
    pub held_until: usize,
}

/// A `thread::spawn` / `thread::Builder` site with its lane evidence.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// 1-based line of the spawn.
    pub line: usize,
    /// Whether the enclosing function (or the file, for module-level
    /// sites) references a `Lane*` symbol — the textual evidence that
    /// the spawned thread is registered as a worker lane.
    pub lane_registered: bool,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee's last path segment.
    pub callee: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Char position of the call's `(`.
    pub pos: usize,
}

/// One function's concurrency-relevant sites.
#[derive(Debug, Default, Clone)]
pub struct FnConc {
    /// Function name (empty for sites outside any `fn`).
    pub name: String,
    /// Lock acquisitions, in source order.
    pub locks: Vec<LockSite>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Direct blocking operations: `(pattern, line)`.
    pub blocking: Vec<(String, usize)>,
}

/// Per-file analysis input for the workspace pass. Built by [`collect`];
/// consumed by [`check_workspace`].
#[derive(Debug)]
pub struct FileConc {
    /// Workspace-relative path.
    pub rel: String,
    /// Owning crate name (empty for the facade's `src/`).
    pub crate_name: String,
    /// Functions with their sites.
    pub fns: Vec<FnConc>,
    /// `Ordering::Relaxed` sites: `(receiver symbol, line)`.
    pub relaxed: Vec<(String, usize)>,
    /// `thread::spawn` / `thread::Builder` sites.
    pub spawns: Vec<SpawnSite>,
    /// Unbounded-channel construction lines.
    pub unbounded: Vec<usize>,
    /// `bounded(...)` call lines whose capacity is a bare numeric literal.
    pub literal_bounded: Vec<usize>,
    /// Policy bits carried from [`crate::scan::policy_for`].
    pub policy: FilePolicy,
}

/// Blocking primitives denied on the per-record path. `try_send` /
/// `try_recv` are fine (non-blocking); `.send(` matches only the blocking
/// channel form because the `.` excludes `try_send(`. Condvar waits
/// ([`PARKS`]) block too.
const BLOCKING: [&str; 8] = [
    "thread::sleep",
    ".recv()",
    ".recv_timeout(",
    ".send(",
    "std::fs::",
    "File::open(",
    "File::create(",
    "OpenOptions::new",
];

/// Condvar waits: parking a thread until another wakes it.
const PARKS: [&str; 3] = [".wait(", ".wait_for(", ".wait_until("];

/// Lock-acquisition method patterns (empty argument lists distinguish
/// `parking_lot` guards from `io::Write::write(buf)` and friends).
const LOCK_METHODS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// Spawn-site patterns (direct and via `thread::Builder`).
const SPAWNS: [&str; 2] = ["thread::spawn", "thread::Builder"];

/// Unbounded-channel constructors (crossbeam and std mpsc).
const UNBOUNDED: [&str; 2] = ["unbounded", "mpsc::channel"];

/// Extracts every concurrency-relevant site from one file. Pure and
/// order-independent: the result depends only on `(rel, src, policy)`.
pub fn collect(rel: &str, src: &str, policy: FilePolicy) -> FileConc {
    let scrubbed = lexer::scrub(src);
    let lib_code = lexer::strip_test_items(&scrubbed);
    let sf = scope::scope_file(&lib_code);
    let text = &sf.text;

    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();

    // Group sites by innermost enclosing fn (index into sf.fns, or None).
    let mut per_fn: BTreeMap<Option<usize>, FnConc> = BTreeMap::new();
    let fn_index_of = |pos: usize| -> Option<usize> {
        sf.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.sig_pos <= pos && pos <= f.body_end)
            .max_by_key(|(_, f)| f.sig_pos)
            .map(|(i, _)| i)
    };

    for pat in LOCK_METHODS {
        for pos in scope::find_pattern_any(text, pat) {
            let Some(ident) = scope::receiver_component(text, pos) else {
                continue;
            };
            if ident == "self" || ident.is_empty() {
                continue;
            }
            let key = fn_index_of(pos);
            let body_end = key
                .and_then(|i| sf.fns.get(i))
                .map_or(text.len().saturating_sub(1), |f| f.body_end);
            let lower = key.and_then(|i| sf.fns.get(i)).map_or(0, |f| f.body_start);
            let kind = scope::statement_kind(text, pos, lower);
            let held = scope::held_until(text, pos, body_end, kind);
            per_fn.entry(key).or_default().locks.push(LockSite {
                ident,
                line: scope::line_of(text, pos),
                pos,
                held_until: held,
            });
        }
    }

    for f in sf.fns.iter() {
        let key = fn_index_of(f.body_start + 1);
        for (pos, callee) in scope::call_sites(text, f.body_start, f.body_end) {
            // Attribute to the innermost fn only (nested fns re-scan).
            if fn_index_of(pos) != key {
                continue;
            }
            per_fn.entry(key).or_default().calls.push(CallSite {
                callee,
                line: scope::line_of(text, pos),
                pos,
            });
        }
    }

    for pat in BLOCKING.iter().chain(&PARKS) {
        for pos in scope::find_pattern_any(text, pat) {
            let key = fn_index_of(pos);
            per_fn
                .entry(key)
                .or_default()
                .blocking
                .push((pat.to_string(), scope::line_of(text, pos)));
        }
    }

    let mut fns: Vec<FnConc> = Vec::new();
    for (key, mut fc) in per_fn {
        fc.name = key
            .and_then(|i| sf.fns.get(i))
            .map_or(String::new(), |f| f.name.clone());
        fns.push(fc);
    }
    fns.sort_by(|a, b| a.name.cmp(&b.name));

    // Relaxed-ordering sites with their receiver symbol.
    let mut relaxed = Vec::new();
    for pos in scope::find_pattern(text, "Ordering::Relaxed") {
        let symbol = atomic_receiver(text, pos).unwrap_or_else(|| String::from("?"));
        relaxed.push((symbol, scope::line_of(text, pos)));
    }

    // Lane evidence per spawn: any `Lane*` reference (Lanes, LaneIo,
    // LaneId, ...) within the spawning fn's signature-to-body range, or
    // anywhere in the file for module-level sites.
    let lane_refs = scope::find_pattern(text, "Lane");
    let mut spawns = Vec::new();
    for pat in SPAWNS {
        for pos in scope::find_pattern(text, pat) {
            let (lo, hi) = fn_index_of(pos)
                .and_then(|i| sf.fns.get(i))
                .map_or((0, text.len()), |f| (f.sig_pos, f.body_end));
            let lane_registered = lane_refs.iter().any(|&p| p >= lo && p <= hi);
            spawns.push(SpawnSite {
                line: scope::line_of(text, pos),
                lane_registered,
            });
        }
    }
    spawns.sort_unstable_by_key(|s| s.line);

    let mut unbounded = Vec::new();
    for pat in UNBOUNDED {
        for pos in scope::find_pattern(text, pat) {
            // Must be a construction: `unbounded(`, `unbounded::<T>(`.
            let after = pos + pat.chars().count();
            if next_is_call(text, after) {
                unbounded.push(scope::line_of(text, pos));
            }
        }
    }
    unbounded.sort_unstable();

    let mut literal_bounded = Vec::new();
    for pos in scope::find_pattern(text, "bounded") {
        let after = pos + "bounded".chars().count();
        if let Some(open) = call_paren(text, after) {
            let close = match_paren(text, open);
            let arg: String = text.get(open + 1..close).unwrap_or(&[]).iter().collect();
            if !arg.trim().is_empty() && !arg.chars().any(|c| c.is_alphabetic()) {
                literal_bounded.push(scope::line_of(text, pos));
            }
        }
    }
    literal_bounded.sort_unstable();

    FileConc {
        rel: rel.to_string(),
        crate_name,
        fns,
        relaxed,
        spawns,
        unbounded,
        literal_bounded,
        policy,
    }
}

/// Whether a call's argument list opens right after `after` (allowing
/// whitespace and a turbofish `::<...>`).
fn next_is_call(text: &[char], after: usize) -> bool {
    call_paren(text, after).is_some()
}

/// Char index of the `(` opening a call whose callee ends at `after`,
/// skipping whitespace and a turbofish.
fn call_paren(text: &[char], after: usize) -> Option<usize> {
    let mut i = after;
    while i < text.len() && text[i].is_whitespace() {
        i += 1;
    }
    if text.get(i) == Some(&':') && text.get(i + 1) == Some(&':') && text.get(i + 2) == Some(&'<') {
        let mut depth = 0isize;
        let mut j = i + 2;
        while j < text.len() {
            match text[j] {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
        while i < text.len() && text[i].is_whitespace() {
            i += 1;
        }
    }
    (text.get(i) == Some(&'(')).then_some(i)
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(text: &[char], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < text.len() {
        match text[i] {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    text.len().saturating_sub(1)
}

/// The receiver symbol of the atomic call containing an
/// `Ordering::Relaxed` argument at `pos`: walks out to the opening `(`
/// of the enclosing call, then back over the method name to the receiver.
fn atomic_receiver(text: &[char], pos: usize) -> Option<String> {
    let mut depth = 0isize;
    let mut i = pos;
    let open = loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match text[i] {
            ')' => depth += 1,
            '(' => {
                if depth == 0 {
                    break i;
                }
                depth -= 1;
            }
            ';' | '{' | '}' if depth == 0 => return None,
            _ => {}
        }
    };
    // Method name just before the `(` (possibly with a turbofish).
    let mut j = open;
    while j > 0 && text[j - 1].is_whitespace() {
        j -= 1;
    }
    let method_end = j;
    while j > 0 && (text[j - 1].is_alphanumeric() || text[j - 1] == '_') {
        j -= 1;
    }
    if j == method_end {
        return None;
    }
    if j == 0 || text[j - 1] != '.' {
        return None;
    }
    scope::receiver_component(text, j - 1)
}

/// A lock-order edge: acquiring `to` while holding `from`.
type Edge = (String, String);

/// Runs the workspace-level rules over all collected files, appending
/// findings to `out`. Deterministic: results depend only on the *set* of
/// files, not their order.
pub fn check_workspace(files: &[FileConc], allow: &Allowlist, out: &mut Vec<Violation>) {
    // ---- Per-file rules (spawn confinement, channels, atomics). ----
    for f in files {
        if f.policy.require_lane_registration {
            for s in &f.spawns {
                if s.lane_registered {
                    continue;
                }
                out.push(violation(
                    &f.rel,
                    s.line,
                    "spawn-lane-registered",
                    "worker-pool `thread::spawn` without a registered trace lane: the \
                     spawning function must register a `LaneId` (`Lanes::register` / \
                     `LaneIo`) so the thread lands on a per-lane flight ring with \
                     busy/blocked accounting — an unregistered worker corrupts xray's \
                     measured parallel efficiency"
                        .to_string(),
                ));
            }
        }
        if f.policy.deny_unsanctioned_spawn {
            for s in &f.spawns {
                out.push(violation(
                    &f.rel,
                    s.line,
                    "spawn-confined",
                    "`thread::spawn` outside the sanctioned worker-pool modules: threads are \
                     confined to stream/src/pipeline.rs, stream/src/broker.rs, \
                     watch/src/serve.rs, bins, and tests so the sharded engine keeps a single \
                     auditable spawn surface"
                        .to_string(),
                ));
            }
        }
        if f.policy.deny_unbounded_channel {
            for &line in &f.unbounded {
                out.push(violation(
                    &f.rel,
                    line,
                    "bounded-channels-only",
                    "unbounded channel: every queue needs backpressure; use a bounded \
                     channel with a named capacity constant"
                        .to_string(),
                ));
            }
            for &line in &f.literal_bounded {
                out.push(violation(
                    &f.rel,
                    line,
                    "bounded-channels-only",
                    "`bounded()` with a bare numeric capacity: name the constant (or thread a \
                     config field) so every backpressure limit is auditable and tunable"
                        .to_string(),
                ));
            }
        }
        if !f.policy.relaxed_exempt {
            for (sym, line) in &f.relaxed {
                if allow.permits(&f.rel, sym) {
                    continue;
                }
                out.push(violation(
                    &f.rel,
                    *line,
                    "atomics-ordering",
                    format!(
                        "`Ordering::Relaxed` on `{sym}` outside the sanctioned counter modules: \
                         flags and seqlock cells need acquire/release; counters belong in \
                         telemetry or under a reviewed `audit.allow` entry"
                    ),
                ));
            }
        }
    }
    for e in &allow.entries {
        let used = files.iter().any(|f| {
            !f.policy.relaxed_exempt && f.relaxed.iter().any(|(sym, _)| e.permits(&f.rel, sym))
        });
        if !used {
            out.push(violation(
                "audit.allow",
                e.line,
                "atomics-ordering",
                format!(
                    "entry `{} {}` permits no `Ordering::Relaxed` site: prune it \
                     (the reviewed exceptions only ever shrink)",
                    e.file, e.symbol
                ),
            ));
        }
    }

    // ---- Call index: fn name -> definitions (for one-hop propagation). ----
    let mut defs: BTreeMap<&str, Vec<(&FileConc, &FnConc)>> = BTreeMap::new();
    for f in files {
        if f.policy.is_entry {
            continue; // bins are not per-record callees
        }
        for fc in &f.fns {
            if fc.name.is_empty() || fc.name == "main" {
                continue;
            }
            defs.entry(fc.name.as_str()).or_default().push((f, fc));
        }
    }
    // Resolution: same-crate definitions win; otherwise a unique global one.
    let resolve = |crate_name: &str, callee: &str| -> Vec<(&FileConc, &FnConc)> {
        let Some(cands) = defs.get(callee) else {
            return Vec::new();
        };
        let same: Vec<_> = cands
            .iter()
            .filter(|(f, _)| f.crate_name == crate_name)
            .copied()
            .collect();
        if !same.is_empty() {
            return same;
        }
        if cands.len() == 1 {
            return cands.clone();
        }
        Vec::new()
    };

    // ---- Blocking-call reachability. ----
    for f in files {
        if !f.policy.deny_blocking_hot_path {
            continue;
        }
        for fc in &f.fns {
            let sanctioned_park = (f.rel.as_str(), fc.name.as_str()) == PARK_EXEMPT;
            for (pat, line) in &fc.blocking {
                if sanctioned_park && PARKS.contains(&pat.as_str()) {
                    continue;
                }
                out.push(violation(
                    &f.rel,
                    *line,
                    "no-blocking-hot-path",
                    format!(
                        "blocking `{pat}` on the per-record hot path: an operator must never \
                         stall a frame (paper §4); hand blocking work to a thread that owns \
                         its wait, or use the try_ variants"
                    ),
                ));
            }
            for call in &fc.calls {
                if matches!(call.callee.as_str(), "lock" | "read" | "write") {
                    continue;
                }
                for (df, dfn) in resolve(&f.crate_name, &call.callee) {
                    if df.policy.deny_blocking_hot_path {
                        continue; // the callee is flagged directly
                    }
                    if let Some((pat, bl)) = dfn.blocking.first() {
                        out.push(violation(
                            &f.rel,
                            call.line,
                            "no-blocking-hot-path",
                            format!(
                                "per-record code reaches a blocking operation: `{}` calls \
                                 `{}` which blocks (`{pat}` at {}:{bl})",
                                fc.name, call.callee, df.rel
                            ),
                        ));
                    }
                }
            }
        }
    }

    // ---- Lock-order graph. ----
    // Edge sites: (from, to) -> earliest (file, line) closing that edge.
    let mut edges: BTreeMap<Edge, BTreeSet<(String, usize)>> = BTreeMap::new();
    for f in files {
        for fc in &f.fns {
            for a in &fc.locks {
                let from = format!("{}/{}", f.crate_name, a.ident);
                // Nested acquisitions inside a's guard lifetime.
                for b in &fc.locks {
                    if b.pos > a.pos && b.pos <= a.held_until {
                        let to = format!("{}/{}", f.crate_name, b.ident);
                        edges
                            .entry((from.clone(), to))
                            .or_default()
                            .insert((f.rel.clone(), b.line));
                    }
                }
                // One-hop propagation: calls made while a's guard is held
                // pull in the callee's own acquisitions.
                for call in &fc.calls {
                    if call.pos <= a.pos || call.pos > a.held_until {
                        continue;
                    }
                    if matches!(call.callee.as_str(), "lock" | "read" | "write") {
                        continue;
                    }
                    for (df, dfn) in resolve(&f.crate_name, &call.callee) {
                        for b in &dfn.locks {
                            let to = format!("{}/{}", df.crate_name, b.ident);
                            if to == from {
                                continue; // self-call noise, not evidence
                            }
                            edges
                                .entry((from.clone(), to.clone()))
                                .or_default()
                                .insert((f.rel.clone(), call.line));
                        }
                    }
                }
            }
        }
    }

    // Adjacency for cycle checks.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    let reachable = |start: &str, goal: &str| -> Option<Vec<String>> {
        // BFS path start -> goal over sorted adjacency (deterministic).
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: Vec<&str> = vec![start];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        seen.insert(start);
        while let Some(u) = queue.first().copied() {
            queue.remove(0);
            if u == goal {
                let mut path = vec![goal.to_string()];
                let mut cur = goal;
                while cur != start {
                    let Some(&p) = prev.get(cur) else { break };
                    path.push(p.to_string());
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(nexts) = adj.get(u) {
                for &v in nexts {
                    if seen.insert(v) {
                        prev.insert(v, u);
                        queue.push(v);
                    }
                }
            }
        }
        None
    };

    for ((from, to), sites) in &edges {
        // The edge from->to closes a cycle iff `from` is reachable from
        // `to` (including the self-loop case from == to).
        let back = if from == to {
            Some(vec![from.clone()])
        } else {
            reachable(to, from)
        };
        let Some(path) = back else { continue };
        let Some((file, line)) = sites.iter().next() else {
            continue;
        };
        // `path` runs to -> ... -> from inclusive, so prepending `from`
        // yields the closed cycle from -> to -> ... -> from.
        let mut cycle = vec![from.clone()];
        cycle.extend(path);
        out.push(violation(
            file,
            *line,
            "lock-order-cycle",
            format!(
                "lock-order cycle ({}): acquiring `{to}` while holding `{from}` closes the \
                 cycle — potential deadlock once workers multiply; acquire locks in one \
                 global order or merge them",
                cycle.join(" -> ")
            ),
        ));
    }
}

fn violation(file: &str, line: usize, rule: &'static str, message: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule,
        severity: Severity::Deny,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::policy_for;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        run_allowed(files, "")
    }

    /// Runs the workspace rules under an `audit.allow` reading `allow`.
    fn run_allowed(files: &[(&str, &str)], allow: &str) -> Vec<Violation> {
        let collected: Vec<FileConc> = files
            .iter()
            .map(|(rel, src)| collect(rel, src, policy_for(rel)))
            .collect();
        let mut out = Vec::new();
        let allow = Allowlist::parse(allow).expect("test allowlist parses");
        check_workspace(&collected, &allow, &mut out);
        out
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn detects_cross_file_lock_order_cycle() {
        let v = run(&[
            (
                "crates/stream/src/a.rs",
                "fn a(s: &S) { let g = s.alpha.lock(); let h = s.beta.lock(); g; h; }",
            ),
            (
                "crates/stream/src/b.rs",
                "fn b(s: &S) { let g = s.beta.lock(); let h = s.alpha.lock(); g; h; }",
            ),
        ]);
        let cyc: Vec<_> = v.iter().filter(|x| x.rule == "lock-order-cycle").collect();
        assert_eq!(cyc.len(), 2, "one finding per closing edge: {v:?}");
        let files: Vec<&str> = cyc.iter().map(|x| x.file.as_str()).collect();
        assert!(files.contains(&"crates/stream/src/a.rs"));
        assert!(files.contains(&"crates/stream/src/b.rs"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let v = run(&[
            (
                "crates/stream/src/a.rs",
                "fn a(s: &S) { let g = s.alpha.lock(); let h = s.beta.lock(); g; h; }",
            ),
            (
                "crates/stream/src/b.rs",
                "fn b(s: &S) { let g = s.alpha.lock(); let h = s.beta.lock(); g; h; }",
            ),
        ]);
        assert!(
            !rules_of(&v).contains(&"lock-order-cycle"),
            "consistent order must not report: {v:?}"
        );
    }

    #[test]
    fn statement_temporaries_do_not_create_edges() {
        // Two guards that each die at their own `;` never overlap.
        let v = run(&[(
            "crates/stream/src/a.rs",
            "fn a(s: &S) { *s.alpha.lock() = 1; *s.beta.lock() = 2; }\n\
             fn b(s: &S) { *s.beta.lock() = 1; *s.alpha.lock() = 2; }",
        )]);
        assert!(
            !rules_of(&v).contains(&"lock-order-cycle"),
            "statement temps must not nest: {v:?}"
        );
    }

    #[test]
    fn propagates_lock_order_one_call_hop() {
        let v = run(&[
            (
                "crates/stream/src/a.rs",
                "fn outer(s: &S) { let g = s.alpha.lock(); helper(s); g; }\n\
                 fn helper(s: &S) { let h = s.beta.lock(); h; }",
            ),
            (
                "crates/stream/src/b.rs",
                "fn other(s: &S) { let g = s.beta.lock(); let h = s.alpha.lock(); g; h; }",
            ),
        ]);
        assert!(
            rules_of(&v).contains(&"lock-order-cycle"),
            "call-hop edge alpha->beta plus direct beta->alpha must cycle: {v:?}"
        );
    }

    #[test]
    fn flags_blocking_in_per_record_crate_only() {
        let blocked = "fn op() { std::thread::sleep(std::time::Duration::from_millis(1)); }";
        let v = run(&[("crates/stream/src/op.rs", blocked)]);
        assert_eq!(rules_of(&v), vec!["no-blocking-hot-path"]);
        let v = run(&[("crates/render/src/op.rs", blocked)]);
        assert!(v.is_empty(), "render is not per-record: {v:?}");
    }

    #[test]
    fn condvar_waits_block_except_at_the_sanctioned_park() {
        let park = "fn wait_for_append(t: &T) { let mut g = t.wake.lock(); \
                    t.appended.wait(&mut g); }";
        let v = run(&[("crates/stream/src/broker.rs", park)]);
        assert!(v.is_empty(), "the sanctioned park: {v:?}");
        // The same wait anywhere else in a per-record crate is denied,
        // and so is any other wait form in another function.
        let v = run(&[("crates/stream/src/window.rs", park)]);
        assert_eq!(rules_of(&v), vec!["no-blocking-hot-path"], "{v:?}");
        let elsewhere = "fn per_record(t: &T) { let mut g = t.wake.lock(); \
                         t.appended.wait_for(&mut g, d); t.appended.wait_until(&mut g, i); }";
        let v = run(&[("crates/stream/src/broker.rs", elsewhere)]);
        assert_eq!(
            rules_of(&v),
            vec!["no-blocking-hot-path", "no-blocking-hot-path"],
            "{v:?}"
        );
        // A sleep inside the sanctioned function is still a sleep.
        let sleepy = "fn wait_for_append() { std::thread::sleep(d); }";
        let v = run(&[("crates/stream/src/broker.rs", sleepy)]);
        assert_eq!(rules_of(&v), vec!["no-blocking-hot-path"], "{v:?}");
    }

    #[test]
    fn blocking_reachability_crosses_files() {
        let v = run(&[
            (
                "crates/stream/src/caller.rs",
                "fn per_record(x: u32) -> u32 { wait_for_io(); x }",
            ),
            (
                "crates/semantic/src/helper.rs",
                "pub fn wait_for_io() { std::thread::sleep(std::time::Duration::from_millis(1)); }",
            ),
        ]);
        let hits: Vec<_> = v
            .iter()
            .filter(|x| x.rule == "no-blocking-hot-path")
            .collect();
        assert_eq!(hits.len(), 1, "{v:?}");
        assert_eq!(hits[0].file, "crates/stream/src/caller.rs");
    }

    #[test]
    fn channel_discipline() {
        let v = run(&[(
            "crates/render/src/chan.rs",
            "fn f() { let a = crossbeam::channel::unbounded::<u32>(); \
             let b = crossbeam::channel::bounded::<u32>(4096); \
             let c = crossbeam::channel::bounded::<u32>(self.cap); a; b; c; }",
        )]);
        let hits = rules_of(&v);
        assert_eq!(
            hits.iter()
                .filter(|r| **r == "bounded-channels-only")
                .count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn spawn_confinement() {
        let bad = "fn f() { std::thread::spawn(|| {}); }";
        let v = run(&[("crates/store/src/bg.rs", bad)]);
        assert_eq!(rules_of(&v), vec!["spawn-confined"]);
        // Sanctioned module: no spawn-confined finding (the lane rule
        // is separate and covered below).
        let v = run(&[("crates/stream/src/pipeline.rs", bad)]);
        assert!(
            !rules_of(&v).contains(&"spawn-confined"),
            "sanctioned module: {v:?}"
        );
        let v = run(&[("crates/bench/src/bin/e99.rs", bad)]);
        assert!(v.is_empty(), "bins may spawn: {v:?}");
    }

    #[test]
    fn lane_registration_in_worker_pool_modules() {
        let bare = "fn f() { std::thread::spawn(|| {}); }";
        let v = run(&[("crates/stream/src/pipeline.rs", bare)]);
        assert_eq!(rules_of(&v), vec!["spawn-lane-registered"], "{v:?}");
        // A Lane reference anywhere in the spawning fn is the evidence.
        let laned = "fn f(lanes: &Lanes) { let lane = lanes.register(\"w\"); \
                     let _ = lane.id(); std::thread::spawn(|| {}); }";
        let v = run(&[("crates/stream/src/broker.rs", laned)]);
        assert!(v.is_empty(), "registered worker must pass: {v:?}");
        // The watch listener is control-plane: sanctioned to spawn, not
        // required to register a lane.
        let v = run(&[("crates/watch/src/serve.rs", bare)]);
        assert!(v.is_empty(), "control-plane listener is exempt: {v:?}");
    }

    #[test]
    fn atomics_ordering_with_allowlist() {
        let bad = "use std::sync::atomic::{AtomicBool, Ordering};\n\
                   fn f(b: &AtomicBool) { b.store(true, Ordering::Relaxed); }";
        let v = run(&[("crates/geo/src/flag.rs", bad)]);
        assert_eq!(rules_of(&v), vec!["atomics-ordering"]);
        assert!(v[0].message.contains("`b`"), "{}", v[0].message);
        // Sanctioned counter module.
        let v = run(&[("crates/telemetry/src/metric.rs", bad)]);
        assert!(v.is_empty(), "{v:?}");
        // Reviewed allowlist entry.
        let v = run_allowed(
            &[("crates/geo/src/flag.rs", bad)],
            "crates/geo/src/flag.rs b reviewed: test fixture\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unused_allowlist_entries_are_denied() {
        let relaxed = "use std::sync::atomic::{AtomicBool, Ordering};\n\
                       fn f(b: &AtomicBool) { b.store(true, Ordering::Relaxed); }";
        let fixed = relaxed.replace("Relaxed", "Release");
        // Used entries pass; an entry for another symbol, for a file whose
        // site was fixed, or for a sanctioned module permits nothing.
        let out = run_allowed(
            &[
                ("crates/geo/src/flag.rs", relaxed),
                ("crates/geo/src/fixed.rs", &fixed),
                ("crates/telemetry/src/metric.rs", relaxed),
            ],
            "crates/geo/src/flag.rs b reviewed\n\
             crates/geo/src/flag.rs * reviewed\n\
             # comment\n\
             crates/geo/src/flag.rs c reviewed\n\
             crates/geo/src/fixed.rs b reviewed\n\
             crates/telemetry/src/metric.rs b reviewed\n",
        );
        let at: Vec<(&str, usize)> = out.iter().map(|v| (v.file.as_str(), v.line)).collect();
        assert_eq!(
            at,
            vec![("audit.allow", 4), ("audit.allow", 5), ("audit.allow", 6)],
            "{out:?}"
        );
        assert_eq!(rules_of(&out), vec!["atomics-ordering"; 3]);
        assert!(out[0].message.contains("prune"), "{}", out[0].message);
    }
}
