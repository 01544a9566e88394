//! The baseline clustering scheme of the evaluation (Section 7.3).
//!
//! * [`offline_bc`] — the offline biconnected-component clustering of
//!   Bansal et al. (VLDB 2007) as the paper describes it: after every
//!   quantum the biconnected components of the entire AKG are recomputed
//!   from scratch; edges outside any component are optionally reported as
//!   clusters of size 2.  [`crate::evaluation::compare_schemes`] runs it
//!   beside the incremental SCP clusters.
//!
//! The global SCP recomputation that the incremental maintenance must
//! agree with (property P3 of Section 4.3) is
//! [`dengraph_graph::scp_clusters_global`]; `tests/scp_vs_offline.rs`
//! calls it directly.

// Module docs live as `//!` inner docs in each module's own file (outer
// `///` docs here would re-scope their intra-doc links into this file).
pub mod offline_bc;
