//! The repository benchmark.
//!
//! Everything here measures the engine **from outside**, by timing calls
//! into the crates' public functions; it reads no timing the engine keeps
//! about itself, so an engine change can neither flatter nor break it.
//!
//! * [`gen`] — the benchmark's own seeded, parameterised stream generator.
//! * [`workload`] — the four permanent workloads and their set-up.
//! * [`drive`] — the closed loop that pushes a workload through a
//!   `DetectorSession` and times it.
//! * [`staged`] — the quantum pipeline re-composed from the layers' public
//!   functions, one span per call, for the per-layer numbers.
//! * [`trace`], [`alloc`] — the span recorder and the counting allocator
//!   behind the traced run.
//! * [`metrics`] — the metric tables (name, unit, direction, bound).
//! * [`stats`], [`compare`] — order statistics and `bench --compare`.
//! * [`cli`] — argument parsing and result printing shared by the two
//!   binaries.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod digest;
pub mod drive;
pub mod gen;
pub mod metrics;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

/// `benchmark/out/`, created on demand: the only place the benchmark
/// writes (result files, span traces, scratch WAL directories).
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
