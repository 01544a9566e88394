//! Scratch journal directories for the tests that write journals.
//! Included by `#[path]`, like `alloc_gate.rs`.
#![allow(dead_code, reason = "each binary uses part of this file")]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dengraph_core::{DurableJournalConfig, FsyncPolicy};

/// A path under the OS temp directory that no other call, in this test
/// process or another, returns; anything already there is removed.  The
/// directory itself is not created (opening a journal creates it).
/// `label` only makes the name readable.
pub fn scratch_dir(label: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dengraph-test-{}-{call}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journal with a snapshot every `rebase_every` deltas that never
/// syncs (reads go through the page cache) and never rotates, so every
/// frame lands in one segment.
pub fn one_segment(rebase_every: u32) -> DurableJournalConfig {
    DurableJournalConfig {
        rebase_every,
        fsync: FsyncPolicy::Never,
        segment_bytes: u64::MAX,
    }
}

/// The bytes of the only file under `dir`: the one segment of a journal
/// that never rotated.
pub fn only_file(dir: &Path) -> Vec<u8> {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("the directory reads")
        .map(|entry| entry.expect("a directory entry reads").path())
        .collect();
    assert_eq!(files.len(), 1, "{} holds {files:?}", dir.display());
    std::fs::read(&files[0]).expect("the file reads")
}
