//! Integration tests for the semantic rules L007 and L008: each rule is
//! proven by a failing fixture and an allowed fixture under
//! `tests/fixtures/`, and the real workspace is held to the same bar.

use dengraph_lint::semantic::analyze_single;
use dengraph_lint::Rule;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Rules hit by a fixture, with their lines, in report order.
fn hits(name: &str) -> Vec<(Rule, usize)> {
    analyze_single(&fixture(name))
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn l007_failing_fixture_reports_transitive_reach() {
    let all = analyze_single(&fixture("l007_panic_reach.rs"));
    assert_eq!(all.len(), 1, "hits: {all:?}");
    assert_eq!(all[0].rule, Rule::L007);
    assert_eq!(all[0].line, 13);
    // The message reconstructs the whole call path for the report.
    assert!(
        all[0].message.contains("process_quantum -> step -> widest"),
        "message: {}",
        all[0].message
    );
}

#[test]
fn l007_allowed_fixture_is_clean() {
    // `diagnostics_only` keeps an unwrap, but no entry point reaches it.
    assert_eq!(hits("l007_allowed.rs"), vec![]);
}

#[test]
fn l008_failing_fixture_reports_all_three_sinks() {
    let l008: Vec<usize> = hits("l008_untrusted_len.rs")
        .into_iter()
        .filter(|(r, _)| *r == Rule::L008)
        .map(|(_, line)| line)
        .collect();
    // `with_capacity` (line 20), `vec![0u8; len]` (line 27), and
    // `.reserve` (line 33).
    assert_eq!(l008, vec![20, 27, 33]);
}

#[test]
fn l008_allowed_fixture_is_clean() {
    assert_eq!(hits("l008_allowed.rs"), vec![]);
}

#[test]
fn real_workspace_has_no_unjustified_violations() {
    let report = dengraph_lint::lint_workspace(&workspace_root()).expect("workspace walk failed");
    let surviving: Vec<String> = report
        .files
        .iter()
        .flat_map(|f| {
            f.violations
                .iter()
                .map(|v| format!("{} {}:{}", v.rule, f.path.display(), v.line))
        })
        .collect();
    assert_eq!(surviving, Vec::<String>::new());
}

#[test]
fn fingerprints_are_line_stable_and_baseline_roundtrips() {
    let report = dengraph_lint::lint_workspace(&workspace_root()).expect("workspace walk failed");
    let fps = report.fingerprints();
    let json = dengraph_lint::baseline_json(&fps);
    assert_eq!(dengraph_lint::parse_baseline(&json), fps);
    // A clean report diffs clean against its own baseline.
    assert_eq!(report.new_since(&fps), vec![]);
}

#[test]
fn enclosing_symbol_resolves_impl_methods() {
    let source = fixture("l008_untrusted_len.rs");
    let file = dengraph_lint::ast::parse_file(&source);
    // Line 9 is inside `Reader::usize`.
    assert_eq!(dengraph_lint::enclosing_symbol(&file, 9), "Reader::usize");
    assert_eq!(dengraph_lint::enclosing_symbol(&file, 20), "decode");
    assert_eq!(dengraph_lint::enclosing_symbol(&file, 2), "<file>");
}
