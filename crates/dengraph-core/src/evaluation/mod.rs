//! Scoring detected events against a trace's ground truth (Section 7).
//!
//! * [`matching`] — matching discovered events against the injected ground
//!   truth.
//! * [`mod@precision_recall`] — precision / recall / F1 (Figures 7–10).
//!
//! These two stay in the engine only because the repo benchmark imports
//! them by path to score its runs; re-pointing the benchmark at the
//! `dengraph-tests` library would let them move there too.  The rest of
//! the paper's evaluation — the Section 7 run reports, cluster quality and
//! the Table 3 scheme comparison — is `dengraph_tests::evaluation`.

// Module docs live as `//!` inner docs in each module's own file (outer
// `///` docs here would re-scope their intra-doc links into this file).
pub mod matching;
pub mod precision_recall;
