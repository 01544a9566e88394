//! The semantic rules L007 and L008, built on the parsed workspace
//! ([`crate::resolve`]) and the call graph ([`crate::callgraph`]).
//!
//! * **L007 — panic reachability.**  No call-graph path may lead from a
//!   pipeline entry point (`process_quantum`, `push_message`, the sink
//!   dispatch methods, `restore*`, WAL `replay`) to a panic-class site.
//!   The panic class is exactly L002's: `.unwrap()`, `panic!`-family
//!   macros, and short-message `.expect()`.  A justified `allow(L002)`
//!   does **not** exempt the site from L007 — justified existence is not
//!   justified reachability — it needs its own `allow(L007, …)`.
//!   Long-message `expect`s are asserted invariants, not panic sites.
//! * **L008 — untrusted-length allocation.**  Inside the wire decoders
//!   (`dengraph_json::*` and `dengraph_core::wal`), an integer decoded
//!   from wire bytes (`.usize()` / `.u64()` / `.u32()` on a reader)
//!   taints the variables it flows into; a tainted value reaching
//!   `with_capacity` / `vec![_; n]` / `.reserve` without first passing a
//!   bounds check (a `seq_len(…)` call, or an `if` comparing it against
//!   `remaining()` / `.len()`) is rejected.  Taint is per-function; no
//!   interprocedural flow.

use crate::ast::{Block, Chain, ChainRoot, ChainSeg, Expr, Stmt};
use crate::callgraph::CallGraph;
use crate::resolve::Workspace;
use crate::{Rule, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Function names treated as pipeline entry points for L007.
pub const ENTRY_POINTS: [&str; 13] = [
    "on_event",
    "on_quantum",
    "on_quantum_batch",
    "on_slide",
    "process_quantum",
    "push_message",
    "replay",
    "restore",
    "restore_bytes",
    "restore_detector_from_bytes",
    "restore_from_dir",
    "restore_from_dir_with_report",
    "restore_from_journal",
];

/// Reader methods whose result is attacker-controlled (L008 taint
/// sources).
const TAINT_SOURCES: [&str; 3] = ["u32", "u64", "usize"];

/// Allocation sinks for L008.
const ALLOC_SINKS: [&str; 2] = ["with_capacity", "reserve"];

/// Scope of one analysis run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The real workspace: L008 limited to the wire decoders.
    Workspace,
    /// A single fixture file: every rule applies everywhere.
    SingleFile,
}

/// L007 and L008 violations, grouped per workspace-relative file.
pub fn analyze(ws: &Workspace, mode: Mode) -> BTreeMap<PathBuf, Vec<Violation>> {
    let graph = CallGraph::build(ws);
    let mut out: BTreeMap<PathBuf, Vec<Violation>> = BTreeMap::new();
    let mut push = |file: &Path, v: Violation| {
        out.entry(file.to_path_buf()).or_default().push(v);
    };
    check_l007(&graph, &mut push);
    check_l008(&graph, mode, &mut push);
    for list in out.values_mut() {
        list.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
        list.dedup();
    }
    out
}

/// Parses a single source file (fixture mode) and runs every semantic
/// rule on it.
pub fn analyze_single(source: &str) -> Vec<Violation> {
    let ws = Workspace::load_single(source);
    analyze(&ws, Mode::SingleFile)
        .into_values()
        .flatten()
        .collect()
}

// ---------------------------------------------------------------------------
// L007: panic reachability
// ---------------------------------------------------------------------------

fn check_l007(graph: &CallGraph<'_>, push: &mut dyn FnMut(&Path, Violation)) {
    let roots: Vec<String> = graph
        .fns
        .values()
        .filter(|f| !f.in_test && ENTRY_POINTS.contains(&f.name.as_str()))
        .map(|f| f.id.clone())
        .collect();
    let parents = graph.reachable(&roots);
    for (id, info) in &graph.fns {
        if info.in_test || info.panics.is_empty() || !parents.contains_key(id) {
            continue;
        }
        let path = CallGraph::path_to(&parents, id);
        let shown: Vec<&str> = path
            .iter()
            .map(|p| p.rsplit("::").next().unwrap_or(p))
            .collect();
        for panic in &info.panics {
            push(
                &info.file,
                Violation {
                    rule: Rule::L007,
                    line: panic.line,
                    message: format!(
                        "`{}` is reachable from pipeline entry `{}` (path: {}); return an \
                         error or justify with allow(L007, …)",
                        panic.what,
                        shown.first().copied().unwrap_or("?"),
                        shown.join(" -> ")
                    ),
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L008: untrusted-length allocation
// ---------------------------------------------------------------------------

fn check_l008(graph: &CallGraph<'_>, mode: Mode, push: &mut dyn FnMut(&Path, Violation)) {
    for info in graph.fns.values() {
        if info.in_test {
            continue;
        }
        let in_scope = match mode {
            Mode::SingleFile => true,
            Mode::Workspace => {
                info.module.starts_with("dengraph_json") || info.module == "dengraph_core::wal"
            }
        };
        if !in_scope {
            continue;
        }
        let Some(body) = info.body else { continue };
        let mut t = TaintWalker {
            tainted: BTreeSet::new(),
            sanitized: BTreeSet::new(),
            violations: Vec::new(),
        };
        t.walk_block(body);
        for v in t.violations {
            push(&info.file, v);
        }
    }
}

struct TaintWalker {
    tainted: BTreeSet<String>,
    sanitized: BTreeSet<String>,
    violations: Vec<Violation>,
}

impl TaintWalker {
    fn walk_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let(l) => {
                    if let Some(init) = &l.init {
                        self.walk_expr(init);
                        let taints = self.expr_taints(init);
                        for name in &l.names {
                            if taints {
                                self.tainted.insert(name.clone());
                                self.sanitized.remove(name);
                            } else {
                                // Rebinding with a clean value clears.
                                self.tainted.remove(name);
                            }
                        }
                    }
                    if let Some(else_block) = &l.else_block {
                        self.walk_block(else_block);
                    }
                }
                Stmt::Expr(e) => {
                    self.scan_sanitizer(e);
                    self.walk_expr(e);
                }
                Stmt::Item(_) => {}
            }
        }
    }

    /// An `if` whose condition compares a tainted variable against the
    /// input's remaining length sanitizes that variable from here on
    /// (flow-insensitively within the function — the decoders return
    /// early on the failing branch).
    fn scan_sanitizer(&mut self, expr: &Expr) {
        if let Expr::If { cond, .. } = expr {
            let mut names = BTreeSet::new();
            idents_of(cond, &mut names);
            let mentions_bound = {
                let mut found = false;
                bound_methods(cond, &mut found);
                found
            };
            if mentions_bound {
                for name in names {
                    if self.tainted.contains(&name) {
                        self.sanitized.insert(name);
                    }
                }
            }
        }
    }

    /// Does evaluating this expression produce a tainted value?
    fn expr_taints(&self, expr: &Expr) -> bool {
        match expr {
            Expr::Chain(chain) => {
                // A `seq_len(…)` result is validated by construction.
                if chain
                    .segs
                    .iter()
                    .any(|s| matches!(s, ChainSeg::Method { name, .. } if name == "seq_len"))
                {
                    return false;
                }
                // Reader decode methods taint.
                let decodes = chain.segs.iter().any(|s| {
                    matches!(s, ChainSeg::Method { name, args, .. }
                        if args.is_empty() && TAINT_SOURCES.contains(&name.as_str()))
                });
                if decodes {
                    return true;
                }
                // Propagation through an already-tainted variable.
                let mut names = BTreeSet::new();
                idents_of(expr, &mut names);
                names
                    .iter()
                    .any(|n| self.tainted.contains(n) && !self.sanitized.contains(n))
            }
            Expr::Seq(parts) => parts.iter().any(|p| self.expr_taints(p)),
            Expr::If {
                then_block: _,
                else_expr: _,
                ..
            } => false,
            _ => false,
        }
    }

    fn walk_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Chain(chain) => self.walk_chain(chain),
            Expr::Closure(c) => self.walk_expr(&c.body),
            Expr::Block(b) => self.walk_block(b),
            Expr::If {
                cond,
                then_block,
                else_expr,
            } => {
                self.scan_sanitizer(expr);
                self.walk_expr(cond);
                self.walk_block(then_block);
                if let Some(e) = else_expr {
                    self.walk_expr(e);
                }
            }
            Expr::For { iter, body, .. } => {
                self.walk_expr(iter);
                self.walk_block(body);
            }
            Expr::While { cond, body } => {
                self.walk_expr(cond);
                self.walk_block(body);
            }
            Expr::Loop { body } => self.walk_block(body),
            Expr::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                for arm in arms {
                    self.walk_expr(arm);
                }
            }
            Expr::Macro(mac) => {
                // `vec![elem; n]` with a tainted n.
                let base = mac.name.rsplit("::").next().unwrap_or(&mac.name);
                if base == "vec" && mac.args.len() == 2 {
                    if let Some(name) = self.tainted_value(&mac.args[1]) {
                        self.violations.push(Violation {
                            rule: Rule::L008,
                            line: mac.line,
                            message: format!(
                                "`vec![…; {name}]` sizes an allocation from an unvalidated \
                                 wire length; bound it against the remaining input first"
                            ),
                        });
                    }
                }
                for arg in &mac.args {
                    self.walk_expr(arg);
                }
            }
            Expr::Seq(parts) => {
                for p in parts {
                    self.walk_expr(p);
                }
            }
            Expr::Unit => {}
        }
    }

    fn walk_chain(&mut self, chain: &Chain) {
        if let ChainRoot::Expr(e) = &chain.root {
            self.walk_expr(e);
        }
        for (i, seg) in chain.segs.iter().enumerate() {
            match seg {
                ChainSeg::Call { args, line } => {
                    if i == 0 {
                        if let ChainRoot::Path(path) = &chain.root {
                            if path
                                .last()
                                .is_some_and(|l| ALLOC_SINKS.contains(&l.as_str()))
                            {
                                self.check_sink(
                                    path.last().expect("matched Some above"),
                                    args,
                                    *line,
                                );
                            }
                        }
                    }
                    for arg in args {
                        self.walk_expr(arg);
                    }
                }
                ChainSeg::Method {
                    name, args, line, ..
                } => {
                    if ALLOC_SINKS.contains(&name.as_str()) {
                        self.check_sink(name, args, *line);
                    }
                    for arg in args {
                        self.walk_expr(arg);
                    }
                }
                ChainSeg::Index(args) | ChainSeg::StructLit(args) => {
                    for arg in args {
                        self.walk_expr(arg);
                    }
                }
                ChainSeg::Field(_) => {}
            }
        }
    }

    fn check_sink(&mut self, sink: &str, args: &[Expr], line: usize) {
        let Some(arg) = args.first() else { return };
        if let Some(name) = self.tainted_value(arg) {
            self.violations.push(Violation {
                rule: Rule::L008,
                line,
                message: format!(
                    "`{sink}({name})` sizes an allocation from an unvalidated wire length; \
                     bound it against the remaining input (`seq_len`, `remaining()`) first"
                ),
            });
        }
    }

    /// If the expression's value is tainted, a representative variable
    /// name for the message.
    fn tainted_value(&self, expr: &Expr) -> Option<String> {
        let mut names = BTreeSet::new();
        idents_of(expr, &mut names);
        let live: Vec<&String> = names
            .iter()
            .filter(|n| self.tainted.contains(*n) && !self.sanitized.contains(*n))
            .collect();
        if let Some(first) = live.first() {
            return Some((*first).clone());
        }
        // A direct decode feeding the sink: `with_capacity(r.usize()?)`.
        if self.expr_taints(expr) {
            return Some("<decoded length>".to_string());
        }
        None
    }
}

/// Collects every path-root identifier mentioned in an expression.
fn idents_of(expr: &Expr, out: &mut BTreeSet<String>) {
    match expr {
        Expr::Chain(chain) => {
            if let ChainRoot::Path(p) = &chain.root {
                if let Some(first) = p.first() {
                    out.insert(first.clone());
                }
            }
            if let ChainRoot::Expr(e) = &chain.root {
                idents_of(e, out);
            }
            for seg in &chain.segs {
                match seg {
                    ChainSeg::Call { args, .. }
                    | ChainSeg::Method { args, .. }
                    | ChainSeg::Index(args)
                    | ChainSeg::StructLit(args) => {
                        for arg in args {
                            idents_of(arg, out);
                        }
                    }
                    ChainSeg::Field(_) => {}
                }
            }
        }
        Expr::Closure(c) => idents_of(&c.body, out),
        Expr::Block(b) => {
            for stmt in &b.stmts {
                if let Stmt::Expr(e) = stmt {
                    idents_of(e, out);
                }
            }
        }
        Expr::If {
            cond,
            then_block: _,
            else_expr,
        } => {
            idents_of(cond, out);
            if let Some(e) = else_expr {
                idents_of(e, out);
            }
        }
        Expr::Match { scrutinee, .. } => idents_of(scrutinee, out),
        Expr::Macro(mac) => {
            for arg in &mac.args {
                idents_of(arg, out);
            }
        }
        Expr::Seq(parts) => {
            for p in parts {
                idents_of(p, out);
            }
        }
        _ => {}
    }
}

/// Does the expression call a length-bound method (`remaining()` /
/// `.len()` / `seq_len`) anywhere?
fn bound_methods(expr: &Expr, found: &mut bool) {
    match expr {
        Expr::Chain(chain) => {
            if let ChainRoot::Expr(e) = &chain.root {
                bound_methods(e, found);
            }
            for seg in &chain.segs {
                match seg {
                    ChainSeg::Method { name, args, .. } => {
                        if matches!(name.as_str(), "remaining" | "len" | "seq_len") {
                            *found = true;
                        }
                        for arg in args {
                            bound_methods(arg, found);
                        }
                    }
                    ChainSeg::Call { args, .. }
                    | ChainSeg::Index(args)
                    | ChainSeg::StructLit(args) => {
                        for arg in args {
                            bound_methods(arg, found);
                        }
                    }
                    ChainSeg::Field(_) => {}
                }
            }
        }
        Expr::Seq(parts) => {
            for p in parts {
                bound_methods(p, found);
            }
        }
        Expr::Macro(mac) => {
            for arg in &mac.args {
                bound_methods(arg, found);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real_ws() -> Workspace {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        Workspace::load(&root)
    }

    #[test]
    fn real_workspace_raw_findings_are_exactly_the_justified_panics() {
        let ws = real_ws();
        let all = analyze(&ws, Mode::Workspace);
        let found: Vec<(String, Rule)> = all
            .iter()
            .flat_map(|(file, vs)| {
                vs.iter()
                    .map(|v| (file.display().to_string(), v.rule))
                    .collect::<Vec<_>>()
            })
            .collect();
        // `analyze` reports pre-allow findings: the only one is the
        // deliberate panic re-raise, whose `allow(L007, …)` comment
        // `lint_workspace` then applies.
        assert_eq!(
            found,
            vec![(
                "crates/dengraph-core/src/detector.rs".to_string(),
                Rule::L007
            )]
        );
    }
}
