//! Workspace module-graph resolution.
//!
//! Loads every library crate's `src/` tree, follows `mod x;`
//! declarations to their files, parses each file with [`crate::ast`],
//! and builds per-module `use` maps so that a path written in one file
//! (`DetectorConfig::validate`, `wal::Journal`, `crate::wal::Journal`) can
//! be canonicalised to a workspace-global path
//! (`dengraph_core::config::DetectorConfig::validate`).  Re-exports
//! (`pub use`) are followed when canonicalising, so
//! `dengraph_core::DetectorConfig` and `dengraph_core::config::DetectorConfig`
//! name the same item.
//!
//! Everything here is deterministic: modules are stored in sorted
//! `BTreeMap`s and files are visited in path order, so downstream rule
//! output is stable run-to-run.

use crate::ast::{self, Item, ItemKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One parsed module (one source file, or an inline `mod` block hoisted
/// to its own entry).
pub struct Module {
    /// Global module path, e.g. `["dengraph_core", "cluster", "registry"]`.
    pub path: Vec<String>,
    /// Workspace-relative source file.
    pub file: PathBuf,
    /// Items of this module (inline child `mod` blocks still appear
    /// nested here as well as in their own [`Module`] entry).
    pub items: Vec<Item>,
    /// `use` map: local name → full target path (first segment is a
    /// crate id, `std`, or another extern crate).
    pub uses: BTreeMap<String, Vec<String>>,
    /// Glob imports: target module paths of `use foo::*;`.
    pub globs: Vec<Vec<String>>,
    /// Full source text of the file this module lives in (shared by
    /// inline child modules; used for line-oriented lexical scans).
    pub source: String,
}

/// The fully loaded workspace: all library-crate modules, keyed by
/// their `::`-joined module path.
#[derive(Default)]
pub struct Workspace {
    /// Module path (joined with `::`) → module.
    pub modules: BTreeMap<String, Module>,
}

/// Crate ids (dir name with `-` → `_`) of the workspace's own crates,
/// used to recognise cross-crate paths.
pub const WORKSPACE_CRATES: [&str; 10] = [
    "dengraph_core",
    "dengraph_examples",
    "dengraph_graph",
    "dengraph_json",
    "dengraph_lint",
    "dengraph_minhash",
    "dengraph_parallel",
    "dengraph_stream",
    "dengraph_tests",
    "dengraph_text",
];

/// A child module discovered while registering a parent: its module
/// path, its backing file (for `mod name;`), and its hoisted items
/// (for inline `mod name { … }`).
type ChildModule = (Vec<String>, Option<PathBuf>, Option<Vec<Item>>);

impl Workspace {
    /// Loads every crate under `root/crates/` that has a `src/lib.rs`.
    /// Unreadable or missing module files are skipped, never an error.
    pub fn load(root: &Path) -> Workspace {
        let mut ws = Workspace::default();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.is_dir())
                    .collect()
            })
            .unwrap_or_default();
        crate_dirs.sort();
        for dir in crate_dirs {
            let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let crate_id = name.replace('-', "_");
            let lib = dir.join("src").join("lib.rs");
            if lib.is_file() {
                let rel = PathBuf::from("crates")
                    .join(name)
                    .join("src")
                    .join("lib.rs");
                ws.load_module(root, &rel, vec![crate_id]);
            }
        }
        ws
    }

    /// Parses one module file, registers it, and recurses into its file
    /// submodules and inline `mod` blocks.
    fn load_module(&mut self, root: &Path, rel: &Path, mod_path: Vec<String>) {
        let Ok(source) = std::fs::read_to_string(root.join(rel)) else {
            return;
        };
        let file = ast::parse_file(&source);
        self.register(root, rel, &source, mod_path, file.items);
    }

    /// Builds a one-module workspace from a single source string; the
    /// module is registered as crate `fixture`.  Used to run the
    /// semantic rules on lint fixtures without a crate layout.
    pub fn load_single(source: &str) -> Workspace {
        let mut ws = Workspace::default();
        let file = ast::parse_file(source);
        ws.register(
            Path::new(""),
            Path::new("fixture.rs"),
            source,
            vec!["fixture".to_string()],
            file.items,
        );
        ws
    }

    fn register(
        &mut self,
        root: &Path,
        rel: &Path,
        source: &str,
        mod_path: Vec<String>,
        items: Vec<Item>,
    ) {
        let mut uses = BTreeMap::new();
        let mut globs = Vec::new();
        for item in &items {
            collect_uses(item, &mod_path, &mut uses, &mut globs);
        }
        // Child modules: files live next to lib.rs for the crate root,
        // or under `<parent>/` for nested modules.
        let dir = module_dir(rel, &mod_path);
        let mut children: Vec<ChildModule> = Vec::new();
        for item in &items {
            if let ItemKind::Mod {
                name,
                items: inline,
            } = &item.kind
            {
                let mut child_path = mod_path.clone();
                child_path.push(name.clone());
                match inline {
                    Some(inner) => {
                        // Inline module: hoist a clone of its items into
                        // its own entry so paths resolve through it.
                        children.push((child_path, None, Some(inner.clone())));
                    }
                    None => {
                        let as_file = dir.join(format!("{name}.rs"));
                        let as_dir = dir.join(name).join("mod.rs");
                        let file = if root.join(&as_file).is_file() {
                            Some(as_file)
                        } else if root.join(&as_dir).is_file() {
                            Some(as_dir)
                        } else {
                            None
                        };
                        if let Some(file) = file {
                            children.push((child_path, Some(file), None));
                        }
                    }
                }
            }
        }
        self.modules.insert(
            mod_path.join("::"),
            Module {
                path: mod_path,
                file: rel.to_path_buf(),
                items,
                uses,
                globs,
                source: source.to_string(),
            },
        );
        for (child_path, file, inline) in children {
            match (file, inline) {
                (Some(file), _) => self.load_module(root, &file, child_path),
                (None, Some(items)) => self.register(root, rel, source, child_path, items),
                (None, None) => {}
            }
        }
    }

    /// Canonicalises `path` as written inside `module`: resolves
    /// `crate`/`self`/`super`, substitutes `use` aliases, prefixes
    /// module-local names, and follows `pub use` re-exports.  Paths that
    /// cannot be anchored (locals, std items, macros) are returned with
    /// whatever prefix could be resolved.
    pub fn canonicalize(&self, module: &Module, path: &[String]) -> Vec<String> {
        let mut out = self.anchor(module, path);
        // Follow re-exports: find the longest module prefix of `out`,
        // and if the next segment is a `use` alias in that module,
        // substitute and repeat.  Bounded to avoid alias cycles.
        for _ in 0..8 {
            let Some((prefix_len, target)) = self.reexport_step(&out) else {
                break;
            };
            let mut next = target;
            next.extend(out[prefix_len..].iter().cloned());
            if next == out {
                break;
            }
            out = next;
        }
        out
    }

    /// One re-export substitution step over a canonical path.
    fn reexport_step(&self, path: &[String]) -> Option<(usize, Vec<String>)> {
        // Longest module prefix strictly shorter than the path.
        for prefix_len in (1..path.len()).rev() {
            let key = path[..prefix_len].join("::");
            let Some(module) = self.modules.get(&key) else {
                continue;
            };
            let seg = &path[prefix_len];
            // A child module with this name wins over a use alias.
            let mut child_key = key.clone();
            child_key.push_str("::");
            child_key.push_str(seg);
            if self.modules.contains_key(&child_key) {
                return None;
            }
            if let Some(target) = module.uses.get(seg) {
                return Some((prefix_len + 1, target.clone()));
            }
            return None;
        }
        None
    }

    /// Anchors a written path to a global one without following
    /// re-exports.
    fn anchor(&self, module: &Module, path: &[String]) -> Vec<String> {
        let Some(first) = path.first() else {
            return Vec::new();
        };
        let crate_id = &module.path[0];
        match first.as_str() {
            "crate" => {
                let mut out = vec![crate_id.clone()];
                out.extend(path[1..].iter().cloned());
                out
            }
            "self" => {
                let mut out = module.path.clone();
                out.extend(path[1..].iter().cloned());
                out
            }
            "super" => {
                let mut base = module.path.clone();
                let mut rest = path;
                while rest.first().is_some_and(|s| s == "super") {
                    base.pop();
                    rest = &rest[1..];
                }
                base.extend(rest.iter().cloned());
                base
            }
            _ => {
                if let Some(target) = module.uses.get(first) {
                    let mut out = target.clone();
                    out.extend(path[1..].iter().cloned());
                    return out;
                }
                if WORKSPACE_CRATES.contains(&first.as_str()) {
                    return path.to_vec();
                }
                // A sibling module or module-local item: resolve only if
                // the first segment names a child module, otherwise
                // treat the name as module-local (item or free fn).
                let mut child_key = module.path.join("::");
                child_key.push_str("::");
                child_key.push_str(first);
                if self.modules.contains_key(&child_key)
                    || path.len() == 1
                    || is_local_item(module, first)
                {
                    let mut out = module.path.clone();
                    out.extend(path.iter().cloned());
                    return out;
                }
                // Unknown root (std, extern, macro): leave as written.
                path.to_vec()
            }
        }
    }
}

/// Does `module` define an item named `name` at its top level?
fn is_local_item(module: &Module, name: &str) -> bool {
    module.items.iter().any(|item| match &item.kind {
        ItemKind::Fn(def) => def.name == name,
        ItemKind::Struct { name: n, .. }
        | ItemKind::Trait { name: n, .. }
        | ItemKind::Static { name: n, .. }
        | ItemKind::Mod { name: n, .. } => n == name,
        ItemKind::Impl { self_ty, .. } => base_type_name(self_ty) == name,
        _ => false,
    })
}

/// The base identifier of a type text: `Arc<Mutex<S>>` → `Arc`,
/// `&mut[u8]` → `u8` is *not* wanted, so we take the leading ident run
/// after stripping reference/pointer sigils.
pub fn base_type_name(ty: &str) -> &str {
    let t = ty.trim_start_matches(['&', '*', ' ']);
    let t = t.strip_prefix("mut").unwrap_or(t);
    let t = t.trim_start_matches(' ');
    // Skip path prefixes: take the last `::` segment before any `<`.
    let head_end = t.find(['<', '(', '[', ' ']).unwrap_or(t.len());
    let head = &t[..head_end];
    head.rsplit("::").next().unwrap_or(head)
}

fn collect_uses(
    item: &Item,
    mod_path: &[String],
    uses: &mut BTreeMap<String, Vec<String>>,
    globs: &mut Vec<Vec<String>>,
) {
    if let ItemKind::Use(targets) = &item.kind {
        for target in targets {
            let mut path = target.path.clone();
            // Normalise the anchor segment.
            match path.first().map(String::as_str) {
                Some("crate") => path[0] = mod_path[0].clone(),
                Some("self") => {
                    let mut full = mod_path.to_vec();
                    full.extend(path[1..].iter().cloned());
                    path = full;
                }
                Some("super") => {
                    let mut base = mod_path.to_vec();
                    let mut rest = path.as_slice();
                    while rest.first().is_some_and(|s| s == "super") {
                        base.pop();
                        rest = &rest[1..];
                    }
                    base.extend(rest.iter().cloned());
                    path = base;
                }
                // Bare paths whose root is neither an extern crate nor a
                // workspace crate are crate-root-relative (`pub use
                // config::DetectorConfig;` at the crate root).
                Some(first)
                    if !matches!(first, "std" | "core" | "alloc")
                        && !WORKSPACE_CRATES.contains(&first) =>
                {
                    let mut full = vec![mod_path[0].clone()];
                    full.extend(path.iter().cloned());
                    path = full;
                }
                _ => {}
            }
            if target.local == "*" {
                path.pop();
                globs.push(path);
            } else {
                uses.insert(target.local.clone(), path);
            }
        }
    }
}

/// The directory child-module files live in for a module at `rel`.
fn module_dir(rel: &Path, mod_path: &[String]) -> PathBuf {
    let parent = rel.parent().map(Path::to_path_buf).unwrap_or_default();
    let file_name = rel.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if file_name == "lib.rs" || file_name == "mod.rs" || file_name == "main.rs" {
        parent
    } else {
        // `foo.rs` declaring `mod bar;` → `foo/bar.rs`.
        let _ = mod_path;
        parent.join(file_name.trim_end_matches(".rs"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_type_name_strips_wrappers() {
        assert_eq!(base_type_name("Arc<Mutex<S>>"), "Arc");
        assert_eq!(base_type_name("&mut Session"), "Session");
        assert_eq!(base_type_name("config::DetectorConfig"), "DetectorConfig");
        assert_eq!(base_type_name("Mutex<HashMap<usize, u8>>"), "Mutex");
    }

    #[test]
    fn loads_the_real_workspace_and_resolves_paths() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root is two levels up");
        let ws = Workspace::load(root);
        // Every crate root is present.
        assert!(ws.modules.contains_key("dengraph_core"));
        assert!(ws.modules.contains_key("dengraph_core::session"));
        assert!(ws.modules.contains_key("dengraph_core::cluster::registry"));

        // `use` resolution: session.rs imports from the wal module.
        let session = &ws.modules["dengraph_core::session"];
        let canon = ws.canonicalize(session, &["Journal".to_string()]);
        // Whatever the local spelling, the canonical path must land in
        // dengraph_core (either wal::Journal directly or via re-export).
        if session.uses.contains_key("Journal") {
            assert_eq!(canon.first().map(String::as_str), Some("dengraph_core"));
        }

        // Re-export following: dengraph_core::DetectorConfig →
        // config::DetectorConfig.
        let core_root = &ws.modules["dengraph_core"];
        let canon = ws.canonicalize(
            core_root,
            &["DetectorConfig".to_string(), "validate".to_string()],
        );
        assert_eq!(
            canon.join("::"),
            "dengraph_core::config::DetectorConfig::validate",
            "re-export not followed"
        );
    }

    #[test]
    fn canonicalize_handles_crate_self_super() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let ws = Workspace::load(root);
        let registry = &ws.modules["dengraph_core::cluster::registry"];
        let canon = ws.canonicalize(
            registry,
            &[
                "crate".to_string(),
                "event".to_string(),
                "Event".to_string(),
            ],
        );
        assert_eq!(canon.join("::"), "dengraph_core::event::Event");
        let canon = ws.canonicalize(registry, &["super".to_string(), "maintainer".to_string()]);
        assert_eq!(canon.join("::"), "dengraph_core::cluster::maintainer");
    }
}
