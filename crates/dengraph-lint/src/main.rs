//! Workspace lint driver: `cargo run -p dengraph-lint [-- FLAGS]`.
//!
//! Walks `crates/*/src/**/*.rs`, applies the lexical project lints
//! L001–L005 (see [`dengraph_lint`]) and exits non-zero if any
//! unjustified violation survives.
//!
//! Flags:
//!
//! * `--json PATH` — also write the machine-readable `lint_report.json`
//!   consumed by CI.  A failed write prints the path and exits non-zero
//!   even when the lint itself is clean.
//! * `--root DIR` — workspace root override.

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: dengraph-lint [--json PATH] [--root DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<PathBuf> = None;
    let mut root_override: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next().map(PathBuf::from),
            "--root" => root_override = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument: {other}");
                return usage();
            }
        }
    }

    let Some(root) = root_override.or_else(find_workspace_root) else {
        eprintln!("dengraph-lint: could not locate the workspace root (no crates/ dir found)");
        return ExitCode::from(2);
    };

    let report = match dengraph_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("dengraph-lint: walk failed: {err}");
            return ExitCode::from(2);
        }
    };

    for file in &report.files {
        for v in &file.violations {
            println!(
                "{}: {}:{}: {}",
                v.rule,
                file.path.display(),
                v.line,
                v.message
            );
        }
    }

    println!(
        "dengraph-lint: {} files scanned, {} violations",
        report.files_scanned,
        report.violation_count()
    );
    for (rule, violations, allows) in report.per_rule() {
        println!(
            "  {rule}: {violations} violations, {allows} justified allows — {}",
            rule.summary()
        );
    }

    // The report is written after the human output so a write failure
    // never swallows findings, but a failed write is itself a hard
    // failure: CI must not mistake a missing report for a clean one.
    if let Some(path) = &json_path {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!(
                "dengraph-lint: failed to write report to {}: {err}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }

    if report.violation_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
