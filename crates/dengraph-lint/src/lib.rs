//! `dengraph-lint`: project-invariant static analysis for the dengraph
//! workspace.
//!
//! The system's headline guarantee — checkpoint-restored and
//! journal-recovered runs are **bit-identical** to uninterrupted ones, and
//! every run of the same input is bit-identical to the last — has been
//! violated by real bugs (hash-map iteration order leaking into cluster
//! ids and event ordering, fixed in PRs 2–3).  This crate turns those
//! bug classes into machine-checked, deny-by-default lints instead of
//! review folklore.  It is dependency-free by design, matching the
//! vendored-offline workspace: a hand-rolled surface lexer
//! ([`lexer`]) plus line-oriented rules, not a compiler plugin.
//!
//! ## Rules
//!
//! | rule | what it forbids | why |
//! |------|-----------------|-----|
//! | L001 | iterating a `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.into_iter()`, `for … in &map`) in library code | hash iteration order is nondeterministic and has twice leaked into observable output |
//! | L002 | `.unwrap()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`, and `.expect()` with a vacuous message (on its line or the next code line) in non-test library code | library panics crash the service; every residual panic site must state its invariant |
//! | L003 | `partial_cmp(..).unwrap()` (or `unwrap_or`) as an f64 ordering | NaN-unsafe and panicky; `f64::total_cmp` is the project's canonical float order |
//! | L004 | `unsafe` without a `// SAFETY:` comment | every unsafe block must state why it is sound |
//! | L005 | undocumented `pub` items in `dengraph-core` / `dengraph-json` | the session/codec surface is the public API |
//!
//! Every rule reads comment-stripped lines — a site's own and a few
//! around it — plus brace depth for test regions; nothing is parsed.  Four ids are retired and not reused: L006
//! (lock-order inversions) and L009 (`f64` folds in parallel-phase code)
//! went with the worker pool they checked; L007 (panic sites reachable
//! from pipeline entry points) could only fire where an `allow(L002, …)`
//! already stood, and L008 (wire-decoded lengths sizing allocations) is
//! a runtime test now — `tests/decoder_mutation.rs` mutates every restore
//! entry point's input and bounds what restore may allocate.
//!
//! A site can be justified with an allow comment on the same line or the
//! line above; one `lint:` marker may stack several allows when a line
//! violates more than one rule:
//!
//! ```text
//! // lint: allow(L001, canonicalised by the sort two lines down)
//! // lint: allow(L001, validation walk; order-free) allow(L002, fails loudly on corrupt state)
//! ```
//!
//! The reason is **mandatory**; an allow without one is itself reported.
//! L001 sites whose surrounding statement feeds an immediate sort (or an
//! order-insensitive `all`/`any`/`count`) are exempt automatically.

pub mod lexer;

use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Rules and violations
// ---------------------------------------------------------------------------

/// A project lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Hash-order iteration in library code.
    L001,
    /// Panic-class calls in non-test library code.
    L002,
    /// `partial_cmp(..).unwrap()` float orderings.
    L003,
    /// `unsafe` without a `// SAFETY:` comment.
    L004,
    /// Undocumented `pub` item in a docs-required crate.
    L005,
}

/// Every rule, in id order.
pub const ALL_RULES: [Rule; 5] = [Rule::L001, Rule::L002, Rule::L003, Rule::L004, Rule::L005];

impl Rule {
    /// The rule's stable id (`"L001"`…).
    pub fn id(self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
        }
    }

    /// One-line description used in reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::L001 => "hash-map/set iteration order may leak into output",
            Rule::L002 => "panic-class call in non-test library code",
            Rule::L003 => "float ordering via partial_cmp().unwrap(); use total_cmp",
            Rule::L004 => "unsafe without a `// SAFETY:` comment",
            Rule::L005 => "undocumented public item",
        }
    }

    fn parse(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// 1-based line number.
    pub line: usize,
    /// What exactly is wrong at this site.
    pub message: String,
}

/// How a file is treated by the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Shipping library code: all rules apply; `docs_required` adds L005.
    Library {
        /// Whether L005 (public-item rustdoc) applies.
        docs_required: bool,
    },
    /// Benches, examples, test-support and binary entry points: only the
    /// universal safety rules (L003, L004) apply.
    Support,
}

impl FileClass {
    fn strict(self) -> bool {
        matches!(self, FileClass::Library { .. })
    }

    fn docs_required(self) -> bool {
        matches!(
            self,
            FileClass::Library {
                docs_required: true
            }
        )
    }
}

// ---------------------------------------------------------------------------
// Allow comments
// ---------------------------------------------------------------------------

/// A parsed `lint: allow(RULE, reason)` comment.
#[derive(Debug, Clone)]
struct Allow {
    rule: Option<Rule>,
    reason: String,
    /// 1-based line the comment sits on.
    line: usize,
}

/// Extracts every allow comment from the lexed lines.
fn collect_allows(lines: &[lexer::Line]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let comment = &line.comment;
        // Doc comments (`///` → `/ …`, `//!` → `! …`) are prose; only a
        // plain `//` comment can justify a site.
        let trimmed = comment.trim_start();
        if trimmed.starts_with('/') || trimmed.starts_with('!') {
            continue;
        }
        let Some(start) = comment.find("lint: allow(") else {
            continue;
        };
        // One `lint:` marker may carry several `allow(RULE, reason)`
        // groups (a site can violate more than one rule, and stacking
        // comment lines would mis-anchor the upper ones).
        let mut rest = &comment[start + "lint: ".len()..];
        while let Some(open) = rest.find("allow(") {
            let body = &rest[open + "allow(".len()..];
            let Some(end) = body.find(')') else {
                break;
            };
            let inner = &body[..end];
            let (id, reason) = match inner.split_once(',') {
                Some((id, reason)) => (id.trim(), reason.trim()),
                None => (inner.trim(), ""),
            };
            allows.push(Allow {
                rule: Rule::parse(id),
                reason: reason.to_string(),
                line: i + 1,
            });
            rest = &body[end + 1..];
        }
    }
    allows
}

/// Does an allow for `rule` cover 1-based `line` (same line or the line
/// directly above)?
fn allowed(allows: &[Allow], rule: Rule, line: usize) -> bool {
    allows.iter().any(|a| {
        a.rule == Some(rule) && !a.reason.is_empty() && (a.line == line || a.line + 1 == line)
    })
}

// ---------------------------------------------------------------------------
// Per-file context: brace depth, test regions, attribute spans
// ---------------------------------------------------------------------------

struct FileContext {
    lines: Vec<lexer::Line>,
    /// True for lines inside a `#[cfg(test)]` / `#[test]` item.
    in_test: Vec<bool>,
    /// True for attribute lines (`#[…]` including multi-line spans).
    attr_line: Vec<bool>,
}

fn build_context(source: &str) -> FileContext {
    let lines = lexer::split(source);
    let n = lines.len();
    let mut in_test = vec![false; n];
    let mut attr_line = vec![false; n];

    // Attribute spans: a trimmed code line starting with `#[` opens an
    // attribute; it continues across lines until its square brackets
    // balance.
    let mut attr_depth = 0i32;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        let opens = code.matches('[').count() as i32;
        let closes = code.matches(']').count() as i32;
        if attr_depth > 0 {
            attr_line[i] = true;
            attr_depth += opens - closes;
            attr_depth = attr_depth.max(0);
            continue;
        }
        if code.starts_with("#[") || code.starts_with("#![") {
            attr_line[i] = true;
            attr_depth = (opens - closes).max(0);
        }
    }

    // Test regions: a `#[cfg(test)]` or `#[test]` attribute marks the
    // next brace-delimited item; everything until the matching close
    // brace is test code.
    let mut depth = 0i64;
    let mut pending_test = false;
    // Depth at which each active test region's braces opened.
    let mut test_entry: Vec<i64> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        if !test_entry.is_empty() {
            in_test[i] = true;
        }
        if attr_line[i]
            && (code.contains("cfg(test")
                || code.contains("#[test]")
                || code.contains("cfg(all(test"))
        {
            pending_test = true;
            in_test[i] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_test {
                        test_entry.push(depth);
                        pending_test = false;
                        in_test[i] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_entry.last().is_some_and(|&entry| depth <= entry) {
                        test_entry.pop();
                    }
                }
                _ => {}
            }
        }
    }
    FileContext {
        lines,
        in_test,
        attr_line,
    }
}

// ---------------------------------------------------------------------------
// L001: hash iteration
// ---------------------------------------------------------------------------

const HASH_TYPES: [&str; 4] = ["FxHashMap", "FxHashSet", "HashMap", "HashSet"];
/// Order-preserving container types: a declaration with one of these
/// *shadows* an earlier hash-typed declaration of the same name (the
/// table is per-file, declarations are resolved nearest-first).
const SEQ_TYPES: [&str; 5] = ["Vec", "VecDeque", "BTreeMap", "BTreeSet", "String"];
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// One `name: Type` / `name = Type::new()` declaration found in a file.
struct Decl {
    name: String,
    /// 0-based line of the declaration.
    line: usize,
    /// True for hash-map/set types, false for order-preserving ones.
    is_hash: bool,
}

/// Scans a file for identifiers declared with a container type
/// (`name: FxHashMap<…>`, `name = HashSet::new()`, struct fields, fn
/// params) and records each declaration with its line.  Matching at use
/// sites is by final path segment, so `self.adj` resolves through
/// `adj`; a use resolves to the *nearest preceding* declaration of its
/// name (falling back to the nearest following one), which lets a
/// `users: Vec<…>` field coexist with a `users: FxHashSet<…>` local
/// elsewhere in the file.
fn container_decls(lines: &[lexer::Line]) -> Vec<Decl> {
    let mut decls = Vec::new();
    for (line_idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        for (ty, is_hash) in HASH_TYPES
            .iter()
            .map(|t| (*t, true))
            .chain(SEQ_TYPES.iter().map(|t| (*t, false)))
        {
            let mut from = 0;
            while let Some(pos) = code[from..].find(ty) {
                let at = from + pos;
                from = at + ty.len();
                // Word-boundary on both sides of the type name.
                let before_ok =
                    at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
                let after = code[at + ty.len()..].chars().next().unwrap_or(' ');
                if !before_ok || is_ident_char(after) {
                    continue;
                }
                // Walk back over `: `, `= `, `&`, `mut `, path prefixes
                // (`&mut`, `& mut`, `&&mut` all reduce to the separator).
                let mut head = code[..at].trim_end();
                loop {
                    let before = head;
                    head = head.trim_end_matches(|c: char| c == '&' || c.is_whitespace());
                    if let Some(h) = head.strip_suffix("mut") {
                        // Only strip `mut` as a whole word, not an
                        // identifier tail like `permut`.
                        if h.chars().next_back().is_none_or(|c| !is_ident_char(c)) {
                            head = h;
                        }
                    }
                    if head == before {
                        break;
                    }
                }
                let Some(sep) = head.chars().next_back() else {
                    continue;
                };
                if sep != ':' && sep != '=' {
                    continue;
                }
                let head = head[..head.len() - 1].trim_end();
                let name: String = head
                    .chars()
                    .rev()
                    .take_while(|&c| is_ident_char(c))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty() && name != "mut" {
                    decls.push(Decl {
                        name,
                        line: line_idx,
                        is_hash,
                    });
                }
            }
        }
    }
    decls
}

/// Is `name` hash-typed at (0-based) `line`, under nearest-declaration
/// resolution?
fn is_hash_at(decls: &[Decl], name: &str, line: usize) -> bool {
    let mut best_before: Option<&Decl> = None;
    let mut best_after: Option<&Decl> = None;
    for d in decls.iter().filter(|d| d.name == name) {
        if d.line <= line {
            if best_before.is_none_or(|b| d.line >= b.line) {
                best_before = Some(d);
            }
        } else if best_after.is_none_or(|b| d.line < b.line) {
            best_after = Some(d);
        }
    }
    best_before.or(best_after).is_some_and(|d| d.is_hash)
}

/// The receiver path ending just before byte offset `dot` (exclusive),
/// e.g. `self.adj` for `self.adj.iter()`.  Returns the final segment.
fn receiver_segment(code: &str, dot: usize) -> Option<&str> {
    let head = &code[..dot];
    let start = head
        .rfind(|c: char| !is_ident_char(c) && c != '.')
        .map_or(0, |p| p + 1);
    let path = &head[start..];
    let segment = path.rsplit('.').next().unwrap_or(path);
    if segment.is_empty() {
        None
    } else {
        Some(segment)
    }
}

/// Is the statement around `line_idx` order-insensitive — does it feed an
/// immediate sort (or a BTree collection / pure predicate)?
fn feeds_immediate_sort(ctx: &FileContext, line_idx: usize) -> bool {
    let window_end = (line_idx + 4).min(ctx.lines.len());
    let window: String = ctx.lines[line_idx..window_end]
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    window.contains(".sort")
        || window.contains("BTreeMap")
        || window.contains("BTreeSet")
        || window.contains(".all(")
        || window.contains(".any(")
        || window.contains(".count()")
}

fn check_l001(ctx: &FileContext, decls: &[Decl], out: &mut Vec<Violation>) {
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let code = &line.code;
        // Method-call form: `recv.iter()` etc.
        for method in ITER_METHODS {
            let needle = format!(".{method}(");
            let mut from = 0;
            while let Some(pos) = code[from..].find(&needle) {
                let at = from + pos;
                from = at + needle.len();
                let Some(recv) = receiver_segment(code, at) else {
                    continue;
                };
                if is_hash_at(decls, recv, i) && !feeds_immediate_sort(ctx, i) {
                    out.push(Violation {
                        rule: Rule::L001,
                        line: i + 1,
                        message: format!(
                            "`{recv}.{method}()` iterates a hash container in nondeterministic order"
                        ),
                    });
                }
            }
        }
        // For-loop form: `for pat in &recv {`.
        if let Some(for_pos) = code.find("for ") {
            if let Some(in_pos) = code[for_pos..].find(" in ") {
                let tail = &code[for_pos + in_pos + 4..];
                let tail = tail.split('{').next().unwrap_or(tail).trim();
                let tail = tail
                    .trim_start_matches('&')
                    .trim_start_matches("mut ")
                    .trim();
                if !tail.is_empty() && tail.chars().all(|c| is_ident_char(c) || c == '.') {
                    let segment = tail.rsplit('.').next().unwrap_or(tail);
                    if is_hash_at(decls, segment, i) && !feeds_immediate_sort(ctx, i) {
                        out.push(Violation {
                            rule: Rule::L001,
                            line: i + 1,
                            message: format!(
                                "`for … in {tail}` iterates a hash container in nondeterministic order"
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L002: panic-class calls
// ---------------------------------------------------------------------------

/// Minimum length for an `expect` message to count as stating an
/// invariant (the lexer preserves literal lengths).
const MIN_EXPECT_MESSAGE: usize = 10;

fn check_l002(ctx: &FileContext, out: &mut Vec<Violation>) {
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let code = &line.code;
        if code.contains(".unwrap()") {
            out.push(Violation {
                rule: Rule::L002,
                line: i + 1,
                message: "`.unwrap()` in library code; propagate the error or use \
                          `expect(\"<invariant>\")`"
                    .into(),
            });
        }
        for mac in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
            if let Some(pos) = code.find(mac) {
                // Word boundary: `std::panic!` vs `catch_unwind`… the
                // char before must not be ident-like (rules out
                // `debug_unreachable!`-style wrappers, none here).
                let before_ok =
                    pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap_or(' '));
                if before_ok {
                    out.push(Violation {
                        rule: Rule::L002,
                        line: i + 1,
                        message: format!("`{}…)` in library code", &mac[..mac.len() - 1]),
                    });
                }
            }
        }
        // `.expect(` with a vacuous message.  Literal contents were
        // blanked length-preserving by the lexer, so the span between
        // the quotes is the message length.
        let mut from = 0;
        while let Some(pos) = code[from..].find(".expect(") {
            let at = from + pos;
            from = at + ".expect(".len();
            let mut tail = code[at + ".expect(".len()..].trim_start();
            // rustfmt moves a long argument onto the next code line.
            if tail.is_empty() {
                tail = ctx.lines[i + 1..]
                    .iter()
                    .map(|l| l.code.trim_start())
                    .find(|c| !c.is_empty())
                    .unwrap_or("");
            }
            // A non-literal argument (formatted or computed message) is
            // treated as descriptive and skipped.
            if let Some(rest) = tail.strip_prefix('"') {
                let len = rest.find('"').unwrap_or(rest.len());
                if len < MIN_EXPECT_MESSAGE {
                    out.push(Violation {
                        rule: Rule::L002,
                        line: i + 1,
                        message: format!(
                            "`.expect()` message is too short ({len} chars) to state an \
                             invariant (need ≥ {MIN_EXPECT_MESSAGE})"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L003: float orderings
// ---------------------------------------------------------------------------

fn check_l003(ctx: &FileContext, out: &mut Vec<Violation>) {
    for (i, line) in ctx.lines.iter().enumerate() {
        let code = &line.code;
        let Some(pos) = code.find("partial_cmp") else {
            continue;
        };
        let tail = &code[pos..];
        if tail.contains(".unwrap()") || tail.contains(".unwrap_or(") || tail.contains(".expect(") {
            out.push(Violation {
                rule: Rule::L003,
                line: i + 1,
                message: "float ordering via `partial_cmp(..).unwrap()`; use `f64::total_cmp`"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L004: unsafe without SAFETY
// ---------------------------------------------------------------------------

fn check_l004(ctx: &FileContext, out: &mut Vec<Violation>) {
    for (i, line) in ctx.lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        while let Some(pos) = code[from..].find("unsafe") {
            let at = from + pos;
            from = at + "unsafe".len();
            let before_ok =
                at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
            let after = code[at + "unsafe".len()..].chars().next().unwrap_or(' ');
            if !before_ok || is_ident_char(after) {
                continue;
            }
            // A SAFETY comment on the same line, or above it — walking up
            // through the comment block (any length) and at most 3
            // statement-head code lines (the `unsafe` may sit on a
            // continuation line of a multi-line statement).
            let mut documented = ctx.lines[i].comment.contains("SAFETY:");
            let mut code_budget = 3u32;
            let mut j = i;
            while !documented && code_budget > 0 && j > 0 {
                j -= 1;
                let above = &ctx.lines[j];
                if above.comment.contains("SAFETY:") {
                    documented = true;
                } else if !above.code.trim().is_empty() {
                    code_budget -= 1;
                }
            }
            if !documented {
                out.push(Violation {
                    rule: Rule::L004,
                    line: i + 1,
                    message: "`unsafe` without an attached `// SAFETY:` comment".into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L005: public-item docs
// ---------------------------------------------------------------------------

// `mod` is deliberately absent: module docs are `//!` inner docs in the
// module's own file, and an outer `///` on the declaration would merge
// with them and re-scope their intra-doc links into the declaring file
// (breaking `cargo doc`).
const PUB_ITEMS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

fn check_l005(ctx: &FileContext, out: &mut Vec<Violation>) {
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.in_test[i] || ctx.attr_line[i] {
            continue;
        }
        let code = line.code.trim_start();
        let Some(rest) = code.strip_prefix("pub ") else {
            continue;
        };
        let item = rest.split_whitespace().next().unwrap_or("");
        let item = item.trim_start_matches("unsafe").trim();
        let is_item = PUB_ITEMS.contains(&item)
            || (item.is_empty() && rest.trim_start().starts_with("unsafe"))
            || rest.starts_with("unsafe fn")
            || rest.starts_with("async fn");
        if !PUB_ITEMS.contains(&item) && !is_item {
            continue;
        }
        if item.is_empty() {
            continue;
        }
        // Walk upward over attributes and blank lines looking for a doc
        // comment (`///` lexes to a comment starting with `/`) or a
        // `#[doc…]` attribute; `#[doc(hidden)]` waives the requirement.
        let mut documented = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let above = &ctx.lines[j];
            let above_code = above.code.trim();
            if above.comment.trim_start().starts_with('/') {
                documented = true;
                break;
            }
            if ctx.attr_line[j] {
                if above_code.contains("doc") {
                    documented = true;
                    break;
                }
                continue;
            }
            if above_code.is_empty() && above.comment.is_empty() {
                // Blank line between docs and item: stop (rustdoc would
                // not attach the comment either).
                break;
            }
            if above_code.is_empty() {
                // A plain comment directly above is not a doc comment.
                break;
            }
            break;
        }
        if !documented {
            out.push(Violation {
                rule: Rule::L005,
                line: i + 1,
                message: format!("public {item} is missing a rustdoc comment"),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lints one file's source text under the given [`FileClass`].  Returns
/// the surviving (unjustified) violations, including malformed allow
/// comments.
pub fn lint_source(source: &str, class: FileClass) -> Vec<Violation> {
    let ctx = build_context(source);
    let allows = collect_allows(&ctx.lines);
    let mut raw = Vec::new();
    if class.strict() {
        let decls = container_decls(&ctx.lines);
        check_l001(&ctx, &decls, &mut raw);
        check_l002(&ctx, &mut raw);
    }
    check_l003(&ctx, &mut raw);
    check_l004(&ctx, &mut raw);
    if class.docs_required() {
        check_l005(&ctx, &mut raw);
    }
    let mut out: Vec<Violation> = raw
        .into_iter()
        .filter(|v| !allowed(&allows, v.rule, v.line))
        .collect();
    // An allow that names no valid rule or carries no reason is itself a
    // violation: justifications must be auditable.
    for a in &allows {
        match a.rule {
            None => out.push(Violation {
                rule: Rule::L002,
                line: a.line,
                message: "`lint: allow(…)` names an unknown rule".into(),
            }),
            Some(rule) if a.reason.is_empty() => out.push(Violation {
                rule,
                line: a.line,
                message: format!("`lint: allow({rule})` is missing its mandatory reason"),
            }),
            Some(_) => {}
        }
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Counts the *justified* sites per rule (allow comments with a reason),
/// for trend reporting.
pub fn count_allows(source: &str) -> Vec<(Rule, usize)> {
    let ctx = build_context(source);
    let allows = collect_allows(&ctx.lines);
    let mut counts = vec![0usize; ALL_RULES.len()];
    for a in &allows {
        if let Some(rule) = a.rule {
            if !a.reason.is_empty() {
                counts[ALL_RULES.iter().position(|&r| r == rule).unwrap_or(0)] += 1;
            }
        }
    }
    ALL_RULES.iter().copied().zip(counts).collect()
}

/// One linted file's outcome.
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Surviving violations.
    pub violations: Vec<Violation>,
    /// Justified sites per rule in this file.
    pub allows: Vec<(Rule, usize)>,
}

/// The whole workspace's lint outcome.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Per-file outcomes that carry violations or allows.
    pub files: Vec<FileReport>,
}

impl WorkspaceReport {
    /// Total surviving violations.
    pub fn violation_count(&self) -> usize {
        self.files.iter().map(|f| f.violations.len()).sum()
    }

    /// `(violations, allows)` per rule, in rule order.
    pub fn per_rule(&self) -> [(Rule, usize, usize); ALL_RULES.len()] {
        let mut out = ALL_RULES.map(|r| (r, 0, 0));
        for file in &self.files {
            for v in &file.violations {
                let slot = &mut out[ALL_RULES.iter().position(|&r| r == v.rule).unwrap_or(0)];
                slot.1 += 1;
            }
            for &(rule, n) in &file.allows {
                let slot = &mut out[ALL_RULES.iter().position(|&r| r == rule).unwrap_or(0)];
                slot.2 += n;
            }
        }
        out
    }

    /// Renders the machine-readable JSON report (`lint_report.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"files_scanned\": ");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\n  \"violations\": ");
        s.push_str(&self.violation_count().to_string());
        s.push_str(",\n  \"per_rule\": {");
        for (i, (rule, violations, allows)) in self.per_rule().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{rule}\": {{\"violations\": {violations}, \"allowed\": {allows}}}"
            ));
        }
        s.push_str("\n  },\n  \"sites\": [");
        let mut first = true;
        for file in &self.files {
            for v in &file.violations {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!(
                    "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                    v.rule,
                    file.path.display(),
                    v.line,
                    v.message.replace('\\', "\\\\").replace('"', "\\\"")
                ));
            }
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Crates whose `src/` is library code, with their L005 (docs) flag.
const LIBRARY_CRATES: [(&str, bool); 8] = [
    ("dengraph-core", true),
    ("dengraph-json", true),
    ("dengraph-graph", false),
    ("dengraph-minhash", false),
    ("dengraph-parallel", false),
    ("dengraph-stream", false),
    ("dengraph-text", false),
    ("dengraph-lint", false),
];

/// Classifies one workspace-relative source path.  Returns `None` for
/// files outside the lint's scope (vendored code, generated output).
pub fn classify(path: &Path) -> Option<FileClass> {
    let mut components = path.components().map(|c| c.as_os_str().to_string_lossy());
    if components.next().as_deref() != Some("crates") {
        return None;
    }
    let crate_name = components.next()?;
    if components.next().as_deref() != Some("src") {
        // benches/, tests/, examples/ inside a crate: out of scope.
        return None;
    }
    // Binary entry points are operational glue, not library surface.
    let rest: Vec<String> = components.map(|c| c.into_owned()).collect();
    if rest.first().map(String::as_str) == Some("bin") {
        return Some(FileClass::Support);
    }
    match LIBRARY_CRATES.iter().find(|(name, _)| *name == crate_name) {
        Some(&(_, docs_required)) => Some(FileClass::Library { docs_required }),
        None => Some(FileClass::Support),
    }
}

/// Recursively collects `.rs` files under `dir`, workspace-relative.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(root.join(dir))? {
        let entry = entry?;
        let rel = dir.join(entry.file_name());
        let kind = entry.file_type()?;
        if kind.is_dir() {
            collect_rs(root, &rel, out)?;
        } else if rel.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints every in-scope source file under the workspace `root`
/// (`crates/*/src/**/*.rs`; the vendored crates are out of scope).
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs(root, Path::new("crates"), &mut files)?;
    files.sort();
    let mut report = WorkspaceReport::default();
    for rel in files {
        let Some(class) = classify(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(root.join(&rel))?;
        report.files_scanned += 1;
        let violations = lint_source(&source, class);
        let allows: Vec<(Rule, usize)> = count_allows(&source)
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .collect();
        if !violations.is_empty() || !allows.is_empty() {
            report.files.push(FileReport {
                path: rel,
                violations,
                allows,
            });
        }
    }
    Ok(report)
}
