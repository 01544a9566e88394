//! Fixture-driven tests for the project lints: every rule is proven by a
//! known-bad snippet that must fire, and by allow-comment / exemption /
//! false-positive snippets that must stay silent.

use dengraph_lint::{classify, lint_source, FileClass, Rule};
use std::path::Path;

const LIB: FileClass = FileClass::Library {
    docs_required: false,
};
const LIB_DOCS: FileClass = FileClass::Library {
    docs_required: true,
};

fn lines_for(source: &str, class: FileClass, rule: Rule) -> Vec<usize> {
    lint_source(source, class)
        .into_iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn l001_catches_every_hash_iteration_form() {
    let src = include_str!("fixtures/l001_hash_iteration.rs");
    let lines = lines_for(src, LIB, Rule::L001);
    // for-loop, .keys(), .values(), .iter(), .drain().
    assert_eq!(lines, vec![10, 17, 18, 19, 25]);
}

#[test]
fn l001_respects_allows_exemptions_and_vec_types() {
    let src = include_str!("fixtures/l001_allowed.rs");
    assert_eq!(lines_for(src, LIB, Rule::L001), Vec::<usize>::new());
}

#[test]
fn l001_does_not_apply_to_support_code() {
    let src = include_str!("fixtures/l001_hash_iteration.rs");
    assert_eq!(lines_for(src, FileClass::Support, Rule::L001), vec![]);
}

#[test]
fn l002_catches_panic_class_calls() {
    let src = include_str!("fixtures/l002_panics.rs");
    let lines = lines_for(src, LIB, Rule::L002);
    // unwrap, panic!, unreachable!, short expect, short expect whose
    // message sits on the next line — and nothing from the invariant
    // expects, unwrap_or, or the #[cfg(test)] module.
    assert_eq!(lines, vec![4, 9, 16, 21, 33]);
}

#[test]
fn l003_catches_nan_unsafe_orderings() {
    let src = include_str!("fixtures/l003_float_ordering.rs");
    let lines = lines_for(src, LIB, Rule::L003);
    assert_eq!(lines, vec![4, 8]);
    // L003 applies to support code too (benches sort floats as well).
    assert_eq!(lines_for(src, FileClass::Support, Rule::L003), vec![4, 8]);
}

#[test]
fn l004_requires_safety_comments() {
    let src = include_str!("fixtures/l004_unsafe.rs");
    let lines = lines_for(src, LIB, Rule::L004);
    assert_eq!(lines, vec![4]);
}

#[test]
fn l005_requires_rustdoc_on_public_items() {
    let src = include_str!("fixtures/l005_docs.rs");
    let lines = lines_for(src, LIB_DOCS, Rule::L005);
    assert_eq!(lines, vec![3, 5]);
    // Without the docs flag the rule is off entirely.
    assert_eq!(lines_for(src, LIB, Rule::L005), vec![]);
}

#[test]
fn allow_without_reason_is_itself_a_violation() {
    let src = "fn f(m: &std::collections::HashMap<u8, u8>) -> usize {\n\
               // lint: allow(L001)\n\
               m.keys().count()\n\
               }\n";
    let violations = lint_source(src, LIB);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == Rule::L001 && v.message.contains("mandatory reason")),
        "reasonless allow must be reported: {violations:?}"
    );
}

/// Retired ids (L006–L009) are unknown rules too: they are not reused.
#[test]
fn allow_with_unknown_rule_is_reported() {
    for src in [
        "fn f() {}\n// lint: allow(L999, not a rule)\n",
        "fn f() {}\n// lint: allow(L007, retired with the call graph)\n",
    ] {
        let violations = lint_source(src, LIB);
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("unknown rule")),
            "{src:?}: {violations:?}"
        );
    }
}

#[test]
fn code_inside_strings_never_fires() {
    let src = r#"pub fn f() -> &'static str {
    "for k in &map { map.iter(); x.unwrap(); unsafe {} partial_cmp().unwrap() }"
}
"#;
    assert_eq!(lint_source(src, LIB), vec![]);
}

#[test]
fn classification_covers_the_workspace_layout() {
    assert_eq!(
        classify(Path::new("crates/dengraph-core/src/detector.rs")),
        Some(FileClass::Library {
            docs_required: true
        })
    );
    assert_eq!(
        classify(Path::new("crates/dengraph-graph/src/scp.rs")),
        Some(FileClass::Library {
            docs_required: false
        })
    );
    assert_eq!(
        classify(Path::new("crates/dengraph-stream/src/bin/gen.rs")),
        Some(FileClass::Support)
    );
    // Crate tests/benches and anything outside crates/ are out of scope.
    assert_eq!(classify(Path::new("crates/dengraph-core/tests/x.rs")), None);
    assert_eq!(classify(Path::new("vendor/rand/src/lib.rs")), None);
    assert_eq!(classify(Path::new("tests/determinism.rs")), None);
}

#[test]
fn workspace_report_json_shape() {
    let src = include_str!("fixtures/l003_float_ordering.rs");
    let violations = lint_source(src, LIB);
    assert!(!violations.is_empty());
    // The JSON renderer is exercised through the workspace entry point in
    // CI; here we only pin the per-rule counting used to build it.
    let l003 = violations.iter().filter(|v| v.rule == Rule::L003).count();
    assert_eq!(l003, 2);
}

#[test]
fn real_workspace_has_no_unjustified_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dengraph_lint::lint_workspace(&root).expect("workspace walk failed");
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
