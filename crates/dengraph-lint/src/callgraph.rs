//! Workspace call graph with per-function summaries.
//!
//! Built on [`crate::resolve::Workspace`]: every function (free, impl
//! method, trait default method, statement-level nested fn) becomes a
//! node with a fully-qualified id — `dengraph_core::session::restore`,
//! `dengraph_core::session::<DetectorSession>::push_message` — and each
//! body is walked for call sites and panic sites.
//!
//! **Model limits** (documented, deliberate):
//!
//! * Method calls are linked by *name*: `x.merge(y)` edges to every
//!   `merge` method in the workspace.  There is no trait-object or
//!   generic-receiver resolution, so the graph over-approximates —
//!   fine for reachability-style rules, where missing an edge is the
//!   dangerous direction.
//! * Closures are analysed as part of their enclosing function: a call
//!   inside a closure is an edge from the function that *defines* the
//!   closure.
//! * Panic sites are the L002 panic class — `.unwrap()`, `panic!`-family
//!   macros, and `.expect()` with a message too short to state an
//!   invariant.  A long `expect` message is an asserted invariant, not a
//!   panic site (this is what makes lock-poisoning `expect`s exempt from
//!   L007 without special cases).

use crate::ast::{Block, Chain, ChainRoot, ChainSeg, Expr, Item, ItemKind, Stmt};
use crate::resolve::{base_type_name, Module, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Canonicalised path for path calls; the bare name for method calls.
    pub target: Vec<String>,
    /// True for `.name(…)` method calls (linked by name only).
    pub method: bool,
    /// 1-based line.
    pub line: usize,
}

/// One panic-class site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// Human-readable form (`.unwrap()`, `panic!`, …).
    pub what: String,
}

/// Per-function summary node.
pub struct FnInfo<'w> {
    /// Fully-qualified id (`module::name` or `module::<Ty>::name`).
    pub id: String,
    /// Bare function name.
    pub name: String,
    /// Module key (`::`-joined module path).
    pub module: String,
    /// Workspace-relative source file.
    pub file: PathBuf,
    /// 1-based line of the `fn`.
    pub line: usize,
    /// True under `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
    /// Base type name for impl methods (`<Journal>` → `Journal`).
    pub self_ty: Option<String>,
    /// Parameter `(name, type-text)` pairs, `("self", "Self")` first
    /// for methods.
    pub params: Vec<(String, String)>,
    /// The body, if the fn has one.
    pub body: Option<&'w Block>,
    /// Raw call sites in body order.
    pub calls: Vec<CallSite>,
    /// Panic-class sites.
    pub panics: Vec<PanicSite>,
    /// Resolved callee fn ids (sorted, deduped).
    pub edges: Vec<String>,
}

/// The workspace call graph.
pub struct CallGraph<'w> {
    /// Fn id → node.
    pub fns: BTreeMap<String, FnInfo<'w>>,
    /// Bare name → ids of impl/trait methods with that name.
    methods_by_name: BTreeMap<String, Vec<String>>,
}

impl<'w> CallGraph<'w> {
    /// Builds the graph over every module of the workspace.
    pub fn build(ws: &'w Workspace) -> CallGraph<'w> {
        let mut graph = CallGraph {
            fns: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
        };
        for module in ws.modules.values() {
            for item in &module.items {
                graph.collect_item(ws, module, item, None, item.in_test);
            }
        }
        graph.link();
        graph
    }

    fn collect_item(
        &mut self,
        ws: &'w Workspace,
        module: &'w Module,
        item: &'w Item,
        self_ty: Option<&str>,
        in_test: bool,
    ) {
        match &item.kind {
            ItemKind::Fn(def) => {
                let id = match self_ty {
                    Some(ty) => format!("{}::<{}>::{}", module.path.join("::"), ty, def.name),
                    None => format!("{}::{}", module.path.join("::"), def.name),
                };
                let mut info = FnInfo {
                    id: id.clone(),
                    name: def.name.clone(),
                    module: module.path.join("::"),
                    file: module.file.clone(),
                    line: def.line,
                    in_test: in_test || item.in_test,
                    self_ty: self_ty.map(str::to_string),
                    params: def.params.clone(),
                    body: def.body.as_ref(),
                    calls: Vec::new(),
                    panics: Vec::new(),
                    edges: Vec::new(),
                };
                if let Some(body) = &def.body {
                    let mut walker = Walker {
                        ws,
                        module,
                        info: &mut info,
                    };
                    walker.walk_block(body);
                }
                // Only real methods (a `self` receiver) are candidates
                // for dot-call resolution; associated fns like
                // `Workspace::load` must not shadow std method names
                // (`.load(…)` on an atomic is not our `load`).
                let takes_self = info.params.first().is_some_and(|(n, _)| n == "self");
                if info.self_ty.is_some() && takes_self {
                    self.methods_by_name
                        .entry(info.name.clone())
                        .or_default()
                        .push(id.clone());
                }
                self.fns.insert(id, info);
            }
            ItemKind::Impl {
                self_ty: ty, items, ..
            } => {
                let base = base_type_name(ty).to_string();
                for inner in items {
                    self.collect_item(ws, module, inner, Some(&base), in_test || item.in_test);
                }
            }
            ItemKind::Trait { name, items } => {
                for inner in items {
                    self.collect_item(ws, module, inner, Some(name), in_test || item.in_test);
                }
            }
            ItemKind::Mod { .. } => {
                // File and inline modules are registered as their own
                // [`Module`] entries by the resolver; walking the nested
                // copy here would double-count their fns.
            }
            _ => {}
        }
    }

    /// Resolves every call site to callee fn ids.
    fn link(&mut self) {
        let resolved: Vec<(String, BTreeSet<String>)> = self
            .fns
            .iter()
            .map(|(id, info)| {
                let edges = info
                    .calls
                    .iter()
                    .flat_map(|site| self.resolve_site(site))
                    .collect();
                (id.clone(), edges)
            })
            .collect();
        for (id, edges) in resolved {
            if let Some(info) = self.fns.get_mut(&id) {
                info.edges = edges.into_iter().collect();
            }
        }
    }

    /// The callee candidates of one site.
    fn resolve_site(&self, site: &CallSite) -> Vec<String> {
        if site.method {
            let name = site.target.first().map(String::as_str).unwrap_or("");
            return self.methods_by_name.get(name).cloned().unwrap_or_default();
        }
        let path = &site.target;
        // Exact free-fn match.
        let joined = path.join("::");
        if self.fns.contains_key(&joined) {
            return vec![joined];
        }
        if path.len() >= 2 {
            // `Type::method` (or `module::Type::method`): match by the
            // trailing pair against impl ids anywhere in the workspace.
            let ty = &path[path.len() - 2];
            let meth = &path[path.len() - 1];
            let suffix = format!("::<{ty}>::{meth}");
            let hits: Vec<String> = self
                .fns
                .keys()
                .filter(|id| id.ends_with(&suffix))
                .cloned()
                .collect();
            if !hits.is_empty() {
                return hits;
            }
            // Re-exported free fn: match by trailing `module::fn` pair.
            let tail = format!("::{ty}::{meth}");
            let hits: Vec<String> = self
                .fns
                .keys()
                .filter(|id| id.ends_with(&tail))
                .cloned()
                .collect();
            if hits.len() == 1 {
                return hits;
            }
        }
        Vec::new()
    }

    /// BFS from `roots` over call edges.  Returns reached fn id →
    /// parent fn id (roots map to themselves), for path reconstruction.
    pub fn reachable(&self, roots: &[String]) -> BTreeMap<String, String> {
        let mut parent: BTreeMap<String, String> = BTreeMap::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        for root in roots {
            if self.fns.contains_key(root) && !parent.contains_key(root) {
                parent.insert(root.clone(), root.clone());
                queue.push_back(root.clone());
            }
        }
        while let Some(id) = queue.pop_front() {
            let Some(info) = self.fns.get(&id) else {
                continue;
            };
            for callee in &info.edges {
                if !parent.contains_key(callee) {
                    parent.insert(callee.clone(), id.clone());
                    queue.push_back(callee.clone());
                }
            }
        }
        parent
    }

    /// Reconstructs the call path root → … → `target` from a
    /// [`Self::reachable`] parent map.
    pub fn path_to(parents: &BTreeMap<String, String>, target: &str) -> Vec<String> {
        let mut path = vec![target.to_string()];
        let mut cur = target.to_string();
        for _ in 0..64 {
            match parents.get(&cur) {
                Some(p) if *p != cur => {
                    path.push(p.clone());
                    cur = p.clone();
                }
                _ => break,
            }
        }
        path.reverse();
        path
    }
}

/// Body walker accumulating call and panic sites into one [`FnInfo`].
struct Walker<'a, 'w> {
    ws: &'w Workspace,
    module: &'w Module,
    info: &'a mut FnInfo<'w>,
}

/// Minimum `expect` message length to count as a stated invariant
/// (mirrors L002's threshold).
const MIN_EXPECT_MESSAGE: usize = 10;

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

impl<'w> Walker<'_, 'w> {
    fn walk_block(&mut self, block: &'w Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let(l) => {
                    if let Some(init) = &l.init {
                        self.walk_expr(init);
                    }
                    if let Some(else_block) = &l.else_block {
                        self.walk_block(else_block);
                    }
                }
                Stmt::Expr(e) => self.walk_expr(e),
                Stmt::Item(_) => {
                    // Statement-level items (nested fns) are rare and
                    // deliberately not graphed.
                }
            }
        }
    }

    fn walk_expr(&mut self, expr: &'w Expr) {
        match expr {
            Expr::Chain(chain) => self.walk_chain(chain),
            Expr::Closure(c) => self.walk_expr(&c.body),
            Expr::Block(b) => self.walk_block(b),
            Expr::If {
                cond,
                then_block,
                else_expr,
            } => {
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
                let base = mac.name.rsplit("::").next().unwrap_or(&mac.name);
                if PANIC_MACROS.contains(&base) {
                    self.info.panics.push(PanicSite {
                        line: mac.line,
                        what: format!("{base}!"),
                    });
                }
                for arg in &mac.args {
                    self.walk_expr(arg);
                }
            }
            Expr::Seq(parts) => {
                for part in parts {
                    self.walk_expr(part);
                }
            }
            Expr::Unit => {}
        }
    }

    fn walk_chain(&mut self, chain: &'w Chain) {
        if let ChainRoot::Expr(e) = &chain.root {
            self.walk_expr(e);
        }
        for (i, seg) in chain.segs.iter().enumerate() {
            match seg {
                ChainSeg::Call { args, line } => {
                    // A call group directly after a path root is a call
                    // of that path; after anything else it is an
                    // expression-call (fn pointer / closure), unlinked.
                    if i == 0 {
                        if let ChainRoot::Path(path) = &chain.root {
                            self.info.calls.push(CallSite {
                                target: self.ws.canonicalize(self.module, path),
                                method: false,
                                line: *line,
                            });
                        }
                    }
                    self.walk_args(args);
                }
                ChainSeg::Method {
                    name,
                    args,
                    line,
                    turbofish: _,
                } => {
                    self.record_method(chain, name, args, *line);
                    self.walk_args(args);
                }
                ChainSeg::Index(args) | ChainSeg::StructLit(args) => self.walk_args(args),
                ChainSeg::Field(_) => {}
            }
        }
    }

    fn walk_args(&mut self, args: &'w [Expr]) {
        for arg in args {
            self.walk_expr(arg);
        }
    }

    fn record_method(&mut self, chain: &Chain, name: &str, args: &'w [Expr], line: usize) {
        // Panic-class sites.
        if !self.info.in_test {
            if name == "unwrap" && args.is_empty() && !is_partial_cmp_receiver(chain, line) {
                self.info.panics.push(PanicSite {
                    line,
                    what: ".unwrap()".to_string(),
                });
            }
            if name == "expect" {
                if let Some(Expr::Chain(arg)) = args.first() {
                    if let ChainRoot::Lit(text) = &arg.root {
                        if text.starts_with('"')
                            && text.len().saturating_sub(2) < MIN_EXPECT_MESSAGE
                        {
                            self.info.panics.push(PanicSite {
                                line,
                                what: ".expect(<short message>)".to_string(),
                            });
                        }
                    }
                }
            }
        }
        self.info.calls.push(CallSite {
            target: vec![name.to_string()],
            method: true,
            line,
        });
    }
}

/// `partial_cmp().unwrap()` is L003's domain (a float-ordering defect,
/// not a panic-path defect); keep the two rules disjoint.
fn is_partial_cmp_receiver(chain: &Chain, unwrap_line: usize) -> bool {
    chain.segs.iter().any(|seg| {
        matches!(seg, ChainSeg::Method { name, line, .. }
            if name == "partial_cmp" && *line <= unwrap_line)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn workspace_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root is two levels up")
    }

    #[test]
    fn builds_nodes_for_known_functions() {
        let ws = Workspace::load(workspace_root());
        let graph = CallGraph::build(&ws);
        assert!(
            graph
                .fns
                .contains_key("dengraph_core::session::<DetectorSession>::push_message"),
            "DetectorSession::push_message missing; ids: {:?}",
            graph
                .fns
                .keys()
                .filter(|k| k.starts_with("dengraph_core::session"))
                .collect::<Vec<_>>()
        );
        assert!(graph.fns.keys().any(|k| k.ends_with("::process_quantum")));
    }

    #[test]
    fn reachability_walks_cross_crate_edges() {
        let ws = Workspace::load(workspace_root());
        let graph = CallGraph::build(&ws);
        let roots: Vec<String> = graph
            .fns
            .keys()
            .filter(|k| k.ends_with("::process_quantum"))
            .cloned()
            .collect();
        assert!(!roots.is_empty());
        let reached = graph.reachable(&roots);
        // process_quantum maintains the AKG, so something in
        // dengraph_graph must be reachable.
        let target = reached
            .keys()
            .find(|k| k.starts_with("dengraph_graph"))
            .expect("graph crate unreachable from process_quantum");
        // And a path can be reconstructed for any reached node.
        let path = CallGraph::path_to(&reached, target);
        assert_eq!(path.last().map(String::as_str), Some(target.as_str()));
        assert!(path.len() >= 2);
    }
}
