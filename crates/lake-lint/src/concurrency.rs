//! Concurrency-discipline lints: the workspace-wide lock-site model
//! behind rules 6–8.
//!
//! Unlike the per-file passes, this one accumulates facts across every
//! scanned source ([`Analysis::add_source`]) and judges them together
//! ([`Analysis::finish`]):
//!
//! 6. **Nested lock** — every lock is a leaf: no `.lock()`, `.read()` or
//!    `.write()` on a lock while a guard is live, directly or through a
//!    uniquely named callee that acquires one. A thread that never waits
//!    for a lock while holding another cannot deadlock on locks, whatever
//!    the order. The one declared nested pair takes its inner lock with
//!    `LeafMutex::lock_inside`, which is not an acquisition here.
//! 7. **Guard across blocking** — no lock guard may stay live across an
//!    `ObjectStore` call, `retry_with_stats`, a channel send/recv, or a
//!    `lake_core::par` fan-out: backoff and I/O under a lock serialize
//!    the very paths the lock was meant to keep short, and a hang turns
//!    into a pile-up.
//! 8. **Atomic-ordering discipline** — `Ordering::Relaxed` is allowed
//!    only on declared counter atomics (the lake-obs metric cells);
//!    anywhere else needs a `// lint: ordering` justification on the
//!    same or preceding line. Only the exact `Ordering::Relaxed` token
//!    is matched, so `std::cmp::Ordering` (which has no `Relaxed`) can
//!    never false-positive.
//!
//! The model is a hand-rolled token walk over comment/string-stripped
//! source — no `syn` in this offline workspace — so it is deliberately
//! heuristic: guard liveness is tracked through `let` bindings, block
//! scopes, statement-end for temporaries, and explicit `drop(..)`;
//! interprocedural edges resolve callees by bare name across the
//! workspace, skipping [`GENERIC_CALLEES`] (ubiquitous method names
//! whose collisions would drown the signal). Heuristics err toward
//! silence on constructs they cannot read; the runtime sanitizer in
//! `lake_core::sync` backstops them under the chaos suites.

use std::collections::{BTreeMap, BTreeSet};

use crate::errors::strip_comments_and_strings;
use crate::{Finding, Rule};

/// Path prefixes whose atomics are declared counters: `Ordering::Relaxed`
/// is the documented norm there (lake-obs metric cells), no per-site
/// justification needed.
pub const COUNTER_ATOMIC_PATHS: &[&str] = &["crates/lake-obs/src/"];

/// Callee names that block: retry/backoff drivers, channel endpoints,
/// sleeps, and `lake_core::par` fan-outs. A guard live across one of
/// these is a rule-7 violation.
const BLOCKING_FNS: &[&str] = &[
    "retry",
    "retry_with_stats",
    "recv",
    "recv_timeout",
    "try_recv",
    "send",
    "send_timeout",
    "try_send",
    "sleep_ms",
    "map_range",
    "map_indexed",
    "run_parallel",
    "scope",
];

/// `ObjectStore` methods: blocking when invoked on a store-ish receiver
/// (`store`, `files`, `inner`, or anything containing "store").
const STORE_METHODS: &[&str] = &["put", "put_if_absent", "get", "delete", "exists", "list", "size"];

/// Method names that *are* acquisitions — call events on these are
/// handled by the acquisition tracking, not the interprocedural pass.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// The declared nested pair's method (`LeafMutex::lock_inside`): neither
/// an acquisition nor a call resolved into the lock it wraps.
const DECLARED_NESTING: &str = "lock_inside";

/// Lock types whose `name: Type<…>` declarations make `.read()` and
/// `.write()` on `name` acquisitions (`.lock()` always is one).
const LOCK_TYPES: &[&str] = &["LeafMutex", "LeafRwLock", "Mutex", "RwLock"];

/// Ubiquitous names excluded from interprocedural resolution: resolving
/// `guard.clear()` to `Tracer::clear`, or `dir.join(..)` to
/// `ServerHandle::join`, by bare-name collision would report locks the
/// real callee never takes.
const GENERIC_CALLEES: &[&str] = &[
    "and_then", "as_ref", "as_str", "clear", "clone", "cmp", "collect", "contains",
    "contains_key", "count", "default", "drain", "entry", "eq", "extend", "filter", "fmt",
    "from", "get", "get_mut", "hash", "insert", "into", "into_iter", "is_empty", "iter",
    "join", "keys", "len", "map", "new", "next", "ok_or_else", "pop", "pop_front", "push",
    "push_back", "remove", "retain", "snapshot", "sort", "sort_by", "to_string",
    "unwrap_or", "unwrap_or_default", "unwrap_or_else", "values", "with_capacity",
];

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

/// One lock the walker currently considers held.
#[derive(Debug, Clone)]
struct Hold {
    /// The receiver the guard was taken on (`rows` in `self.rows.read()`).
    lock: String,
    line: usize,
    /// Brace depth the hold was created at.
    depth: usize,
    /// `Some(name)` for `let`-bound guards (killable by `drop(name)`),
    /// `None` for statement temporaries.
    binding: Option<String>,
    /// Temporaries die at the end of their statement; bindings at the
    /// end of their block.
    temp: bool,
}

/// A call observed while at least one lock was held.
#[derive(Debug, Clone)]
struct Event {
    file: String,
    line: usize,
    callee: String,
    /// The innermost held guard's lock and acquisition line.
    held: (String, usize),
}

/// Workspace-wide accumulator for rules 6–8. Feed every library source
/// through [`Analysis::add_source`], then call [`Analysis::finish`].
#[derive(Debug, Default)]
pub struct Analysis {
    events: Vec<Event>,
    /// Functions that directly acquire a lock, and the first one.
    fn_acquires: BTreeMap<String, String>,
    /// Functions that directly make a blocking call, and which one.
    fn_blocks: BTreeMap<String, String>,
    /// Call edges per function name.
    fn_calls: BTreeMap<String, BTreeSet<String>>,
    /// How many `fn name` definitions each bare name has. Bare-name call
    /// resolution is only trusted when a name is defined exactly once —
    /// anything else would merge unrelated functions across crates.
    fn_defs: BTreeMap<String, usize>,
    /// Rule 6–8 findings completed during the per-file walks.
    findings: Vec<Finding>,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// Tokenize stripped source into idents and single-char puncts with
/// 1-based line numbers. Numeric literals come through as `Ident`s of
/// their digits.
fn lex(stripped: &str) -> Vec<(Tok, usize)> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push((Tok::Ident(chars[start..i].iter().collect()), line));
        } else {
            toks.push((Tok::Punct(c), line));
            i += 1;
        }
    }
    toks
}

fn ident_at(toks: &[(Tok, usize)], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some((Tok::Ident(s), _)) => Some(s),
        _ => None,
    }
}

fn punct_at(toks: &[(Tok, usize)], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some((Tok::Punct(p), _)) if *p == c)
}

impl Analysis {
    /// Scan one library source file, accumulating lock facts and
    /// emitting any per-file (rule 6–8) findings.
    pub fn add_source(&mut self, file: &str, src: &str) {
        let stripped = strip_comments_and_strings(src);
        let raw_lines: Vec<&str> = src.lines().collect();
        let toks = lex(&stripped);
        let locks = lock_fields(&toks);
        self.walk(file, &toks, &locks, &raw_lines);
    }

    /// Linear walk: track braces, `#[cfg(test)]` regions, the current
    /// function, live guards, and record acquisition/call/atomic events.
    fn walk(
        &mut self,
        file: &str,
        toks: &[(Tok, usize)],
        locks: &BTreeSet<String>,
        raw_lines: &[&str],
    ) {
        let mut depth = 0usize;
        let mut cfg_test: Option<usize> = None;
        let mut pending_fn: Option<String> = None;
        let mut fn_stack: Vec<(String, usize)> = Vec::new();
        let mut holds: Vec<Hold> = Vec::new();
        let mut pending_let: Option<(usize, Option<String>)> = None;
        let mut i = 0;
        while i < toks.len() {
            let line = toks[i].1;
            match &toks[i].0 {
                Tok::Punct('#')
                    if punct_at(toks, i + 1, '[')
                        && ident_at(toks, i + 2) == Some("cfg")
                        && punct_at(toks, i + 3, '(')
                        && ident_at(toks, i + 4) == Some("test") =>
                {
                    cfg_test.get_or_insert(depth);
                    i += 5;
                    continue;
                }
                Tok::Punct('{') => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if cfg_test.is_some_and(|d| depth < d) {
                        cfg_test = None;
                    }
                    while fn_stack.last().is_some_and(|(_, d)| *d > depth) {
                        fn_stack.pop();
                    }
                    // Closing a block ends the statements in it: kill
                    // bindings from inside, and temporaries whose
                    // statement just ended (if-let scrutinees, loop
                    // headers live exactly until their block closes).
                    holds.retain(|h| if h.temp { h.depth < depth } else { h.depth <= depth });
                    if pending_let.as_ref().is_some_and(|(d, _)| *d > depth) {
                        pending_let = None;
                    }
                }
                Tok::Punct(';') => {
                    holds.retain(|h| !(h.temp && h.depth == depth));
                    if pending_let.as_ref().is_some_and(|(d, _)| *d == depth) {
                        pending_let = None;
                    }
                    pending_fn = None;
                }
                Tok::Ident(w) if w == "fn" => {
                    if let Some(name) = ident_at(toks, i + 1) {
                        *self.fn_defs.entry(name.to_string()).or_insert(0) += 1;
                        pending_fn = Some(name.to_string());
                        i += 2;
                        continue;
                    }
                }
                Tok::Ident(w) if w == "let" => {
                    // `if let` / `while let` scrutinee guards are
                    // temporaries (they die with the statement's block),
                    // not bindings.
                    let scrutinee = i > 0
                        && matches!(&toks[i - 1].0,
                            Tok::Ident(k) if k == "if" || k == "while");
                    if !scrutinee {
                        let mut j = i + 1;
                        while ident_at(toks, j) == Some("mut") {
                            j += 1;
                        }
                        pending_let = Some((depth, ident_at(toks, j).map(str::to_string)));
                    }
                }
                Tok::Ident(w) if w == "drop" && punct_at(toks, i + 1, '(') => {
                    if let Some(name) = ident_at(toks, i + 2) {
                        if punct_at(toks, i + 3, ')') {
                            holds.retain(|h| h.binding.as_deref() != Some(name));
                        }
                    }
                }
                Tok::Ident(w)
                    if w == "Ordering"
                        && punct_at(toks, i + 1, ':')
                        && punct_at(toks, i + 2, ':')
                        && ident_at(toks, i + 3) == Some("Relaxed") =>
                {
                    if cfg_test.is_none()
                        && !is_counter_atomic_path(file)
                        && !has_ordering_justification(raw_lines, line)
                    {
                        self.findings.push(Finding {
                            rule: Rule::AtomicOrdering,
                            file: file.to_string(),
                            line,
                            message: "Ordering::Relaxed outside a declared counter atomic; \
                                      use a stronger ordering or justify with `// lint: ordering`"
                                .to_string(),
                        });
                    }
                    i += 4;
                    continue;
                }
                Tok::Ident(name) => {
                    if cfg_test.is_some() || KEYWORDS.contains(&name.as_str()) {
                        i += 1;
                        continue;
                    }
                    // Acquisition: `<recv>.lock()` / `.read()` / `.write()`.
                    if i >= 2
                        && punct_at(toks, i - 1, '.')
                        && ACQUIRE_METHODS.contains(&name.as_str())
                        && punct_at(toks, i + 1, '(')
                        && punct_at(toks, i + 2, ')')
                    {
                        // An unresolved `.read()`/`.write()` is not a lock.
                        let recv = ident_at(toks, i - 2)
                            .filter(|r| name == "lock" || locks.contains(*r));
                        if let Some(recv) = recv {
                            // `x.lock().foo(..)`: the guard is a
                            // statement temporary — the chained result,
                            // not the guard, reaches any `let` binding.
                            let chained = punct_at(toks, i + 3, '.');
                            self.on_acquire(
                                file,
                                line,
                                recv,
                                depth,
                                chained,
                                &mut holds,
                                &pending_let,
                                &fn_stack,
                            );
                            i += 3;
                            continue;
                        }
                    }
                    // Call event: `name(` that is not a macro (`name!`),
                    // a definition (preceded by `fn`), or a type-ish
                    // constructor (uppercase).
                    if punct_at(toks, i + 1, '(')
                        && name.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                        && !ACQUIRE_METHODS.contains(&name.as_str())
                    {
                        // Store methods block only on store-ish receivers:
                        // `self.store.get(..)` yes, `map.get(..)` no.
                        let receiver = if punct_at(toks, i - 1, '.') {
                            ident_at(toks, i.wrapping_sub(2))
                        } else {
                            None
                        };
                        let store_blocking = STORE_METHODS.contains(&name.as_str())
                            && receiver.is_some_and(is_storeish);
                        let blocking = BLOCKING_FNS.contains(&name.as_str()) || store_blocking;
                        self.on_call(file, line, name, blocking, &holds, &fn_stack);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_acquire(
        &mut self,
        file: &str,
        line: usize,
        lock: &str,
        depth: usize,
        chained: bool,
        holds: &mut Vec<Hold>,
        pending_let: &Option<(usize, Option<String>)>,
        fn_stack: &[(String, usize)],
    ) {
        if let Some(h) = holds.last() {
            self.findings.push(Finding {
                rule: Rule::NestedLock,
                file: file.to_string(),
                line,
                message: format!(
                    "nested lock: acquiring `{lock}` while holding `{}` (acquired line {}); \
                     a thread holds at most one lock, so release `{}` first",
                    h.lock, h.line, h.lock,
                ),
            });
        }
        if let Some((name, _)) = fn_stack.last() {
            self.fn_acquires.entry(name.clone()).or_insert_with(|| lock.to_string());
        }
        let (binding, temp) = match pending_let {
            Some((d, name)) if *d == depth && !chained => (name.clone(), false),
            _ => (None, true),
        };
        holds.push(Hold { lock: lock.to_string(), line, depth, binding, temp });
    }

    fn on_call(
        &mut self,
        file: &str,
        line: usize,
        name: &str,
        blocking: bool,
        holds: &[Hold],
        fn_stack: &[(String, usize)],
    ) {
        if let Some((caller, _)) = fn_stack.last() {
            self.fn_calls.entry(caller.clone()).or_default().insert(name.to_string());
            if blocking {
                self.fn_blocks.entry(caller.clone()).or_insert_with(|| name.to_string());
            }
        }
        // Innermost (most recently acquired) guard named; the fix is
        // usually to shrink that one's scope.
        let Some(h) = holds.last() else { return };
        if blocking {
            self.findings.push(Finding {
                rule: Rule::GuardBlocking,
                file: file.to_string(),
                line,
                message: format!(
                    "lock guard `{}` (acquired line {}) held across blocking call `{name}`; \
                     release the guard before I/O, backoff, channel ops, or fan-out",
                    h.lock, h.line,
                ),
            });
        } else if !GENERIC_CALLEES.contains(&name) {
            self.events.push(Event {
                file: file.to_string(),
                line,
                callee: name.to_string(),
                held: (h.lock.clone(), h.line),
            });
        }
    }

    /// Judge the accumulated facts: calls made under a guard into a
    /// function that (transitively) blocks or acquires a lock — plus the
    /// findings already collected per file.
    pub fn finish(mut self) -> Vec<Finding> {
        let mut findings = std::mem::take(&mut self.findings);
        let blocking = self.closure(&self.fn_blocks);
        let locking = self.closure(&self.fn_acquires);
        for ev in &self.events {
            if !self.resolvable(&ev.callee) {
                continue;
            }
            let (callee, (held, held_line)) = (&ev.callee, &ev.held);
            if let Some(via) = blocking.get(callee.as_str()) {
                findings.push(Finding {
                    rule: Rule::GuardBlocking,
                    file: ev.file.clone(),
                    line: ev.line,
                    message: format!(
                        "lock guard `{held}` held across call into `{callee}`, which blocks \
                         (via `{via}`); release the guard first",
                    ),
                });
            }
            if let Some(lock) = locking.get(callee.as_str()) {
                findings.push(Finding {
                    rule: Rule::NestedLock,
                    file: ev.file.clone(),
                    line: ev.line,
                    message: format!(
                        "nested lock: call into `{callee}` acquires `{lock}` while holding \
                         `{held}` (acquired line {held_line}); a thread holds at most one lock",
                    ),
                });
            }
        }
        findings
    }

    /// Is `name` safe to resolve by bare name — defined exactly once in
    /// the workspace? (A colliding name would merge unrelated functions.)
    fn resolvable(&self, name: &str) -> bool {
        self.fn_defs.get(name) == Some(&1)
            && !GENERIC_CALLEES.contains(&name)
            && !ACQUIRE_METHODS.contains(&name)
            && name != DECLARED_NESTING
    }

    /// Fixpoint of which functions (transitively) do what `direct` says
    /// some function does itself — block, or acquire a lock — and the
    /// first call or lock that does it; propagates only through
    /// uniquely-named callees.
    fn closure<'a>(&'a self, direct: &'a BTreeMap<String, String>) -> BTreeMap<&'a str, String> {
        let mut reached: BTreeMap<&str, String> =
            direct.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        loop {
            let mut changed = false;
            for (caller, callees) in &self.fn_calls {
                if reached.contains_key(caller.as_str()) {
                    continue;
                }
                for callee in callees {
                    if !self.resolvable(callee) {
                        continue;
                    }
                    if let Some(via) = reached.get(callee.as_str()).cloned() {
                        reached.insert(caller.as_str(), via);
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                return reached;
            }
        }
    }

}

fn is_counter_atomic_path(file: &str) -> bool {
    COUNTER_ATOMIC_PATHS.iter().any(|p| file.starts_with(p))
}

fn is_storeish(receiver: &str) -> bool {
    receiver == "files" || receiver == "inner" || receiver.contains("store")
}

/// Is there a `lint: ordering` justification on `line` or in the
/// contiguous `//` comment block immediately above it?
fn has_ordering_justification(raw_lines: &[&str], line: usize) -> bool {
    let here = raw_lines.get(line.wrapping_sub(1)).copied().unwrap_or("");
    if here.contains("lint: ordering") {
        return true;
    }
    let mut ln = line.wrapping_sub(1); // 0-based index of the line above
    while ln > 0 {
        ln -= 1;
        let text = raw_lines.get(ln).copied().unwrap_or("").trim_start();
        if !text.starts_with("//") {
            return false;
        }
        if text.contains("lint: ordering") {
            return true;
        }
    }
    false
}

/// Names declared `name: LeafMutex<…>` (or another of [`LOCK_TYPES`]):
/// struct fields and typed locals.
fn lock_fields(toks: &[(Tok, usize)]) -> BTreeSet<String> {
    let mut locks = BTreeSet::new();
    for i in 2..toks.len() {
        if ident_at(toks, i).is_some_and(|w| LOCK_TYPES.contains(&w))
            && punct_at(toks, i + 1, '<')
            && punct_at(toks, i - 1, ':')
            && !punct_at(toks, i - 2, ':')
        {
            if let Some(name) = ident_at(toks, i - 2) {
                locks.insert(name.to_string());
            }
        }
    }
    locks
}
