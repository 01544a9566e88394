//! A reference detector for Sections 3–6, written naively from the paper.
//!
//! The engine keeps a window index of sketches, joins candidate pairs on
//! shared minima, maintains clusters edit by edit and re-ranks only the
//! clusters whose inputs moved.  This detector does none of that.  Per
//! quantum it:
//!
//! 1. recounts, from the raw window of the last w quanta, the distinct
//!    users of every keyword;
//! 2. removes *stale* AKG keywords (in no quantum of the window);
//! 3. admits this quantum's *bursty* keywords (≥ σ distinct users in the
//!    quantum) as AKG nodes;
//! 4. scores Section 3.2.1's two candidate sets by the exact Jaccard
//!    coefficient of the user-id sets: (1) every pair of bursty keywords,
//!    whose edge is added or re-weighted at ≥ τ and otherwise left as it
//!    is; (2) every existing edge of an AKG keyword occurring this quantum
//!    whose other end is not also bursty, re-weighted at ≥ τ and removed
//!    below it — set (2) is read before any edge changes;
//! 5. demotes AKG keywords with no edge that are not bursty, except (the
//!    hysteresis rule) members of a cluster at the end of the previous
//!    quantum;
//! 6. forms clusters by [`scp_clusters_global`] on the whole AKG;
//! 7. ranks each by Section 6, `(1/n) Σ_i w_i (1 + Σ_j EC_ij)`, with `w_i`
//!    a member's window users, each row adding its cluster edges ascending
//!    by neighbour and the total adding rows ascending by member (the
//!    order `dengraph_core::ranking` documents, so equal inputs give equal
//!    bits), and reports the clusters whose rank reaches
//!    `σ · (1 + 2τ) · rank_threshold_factor`.
//!
//! These are the rules `dengraph_core::akg` documents.  It reads only
//! [`DetectorConfig`]'s values from the engine: no index, sketch, arena,
//! cluster registry or event tracker.  It applies no noun filter, so it
//! is compared with engines built with `require_noun(false)`; and it has
//! no cluster ids, which depend on history, so a report is a list of
//! keyword sets with their rank and support.
//!
//! The engine matches it bit for bit when `min_sketch_size ≥ Δ·w`: a
//! window holds at most Δ·w users per keyword, so each sketch is then a
//! whole user set and the min-hash estimate is the exact Jaccard
//! coefficient.

use std::collections::{BTreeSet, VecDeque};

use dengraph_core::DetectorConfig;
use dengraph_graph::{scp_clusters_global, DynamicGraph, NodeId};
use dengraph_stream::Message;
use dengraph_text::KeywordId;

use crate::window::{jaccard, recount, user_sets, UserSets};

/// One reported cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleEvent {
    /// The cluster's keywords, ascending.
    pub keywords: Vec<KeywordId>,
    /// Its Section 6 rank.
    pub rank: f64,
    /// The sum of its members' window user counts.
    pub support: usize,
}

/// The reference detector's state across quanta.
#[derive(Debug)]
pub struct Oracle {
    sigma: usize,
    tau: f64,
    window_quanta: usize,
    hysteresis: bool,
    rank_threshold: f64,
    /// The last w quanta, oldest first, each as its keywords' user sets.
    window: VecDeque<UserSets>,
    /// The AKG: node ids are keyword ids, weights are edge correlations.
    akg: DynamicGraph,
    /// The keywords in a cluster at the end of the previous quantum.
    members: BTreeSet<KeywordId>,
}

impl Oracle {
    /// A detector with `config`'s thresholds and window, before its first
    /// quantum.  Panics unless the configuration asks for no noun filter.
    pub fn new(config: &DetectorConfig) -> Self {
        assert!(
            !config.require_noun,
            "the oracle applies no noun filter; build the engine with require_noun(false)"
        );
        let sigma = config.high_state_threshold;
        let tau = config.edge_correlation_threshold;
        Self {
            sigma: sigma as usize,
            tau,
            window_quanta: config.window_quanta,
            hysteresis: config.hysteresis,
            rank_threshold: sigma as f64 * (1.0 + 2.0 * tau) * config.rank_threshold_factor,
            window: VecDeque::new(),
            akg: DynamicGraph::new(),
            members: BTreeSet::new(),
        }
    }

    /// Runs `messages` in quanta of `quantum_size` and returns each
    /// quantum's report.
    pub fn run(config: &DetectorConfig, messages: &[Message]) -> Vec<Vec<OracleEvent>> {
        let mut oracle = Self::new(config);
        messages
            .chunks(config.quantum_size)
            .map(|quantum| oracle.quantum(quantum))
            .collect()
    }

    /// Processes one quantum and returns what it reports, ordered by
    /// keyword set.
    pub fn quantum(&mut self, messages: &[Message]) -> Vec<OracleEvent> {
        self.window.push_back(user_sets(messages));
        if self.window.len() > self.window_quanta {
            self.window.pop_front();
        }
        let users = recount(&self.window);
        let jaccard = |a: KeywordId, b: KeywordId| jaccard(&users[&a], &users[&b]);
        let record = self.window.back().expect("a quantum was just pushed");
        let node = |keyword: KeywordId| NodeId(keyword.0);
        let keyword = |node: NodeId| KeywordId(node.0);

        // Stale removal.
        let stale: Vec<NodeId> = self
            .akg
            .nodes()
            .filter(|&n| !users.contains_key(&keyword(n)))
            .collect();
        for n in stale {
            self.akg.remove_node(n);
        }

        // Admission, and the two candidate sets.
        let bursty: BTreeSet<KeywordId> = record
            .iter()
            .filter(|(_, set)| set.len() >= self.sigma)
            .map(|(&k, _)| k)
            .collect();
        let mut set2 = BTreeSet::new();
        for &k in record.keys() {
            if !self.akg.contains_node(node(k)) {
                continue;
            }
            for other in self.akg.neighbors(node(k)).map(keyword) {
                if !(bursty.contains(&k) && bursty.contains(&other)) {
                    set2.insert((k.min(other), k.max(other)));
                }
            }
        }
        for &k in &bursty {
            self.akg.add_node(node(k));
        }
        for &a in &bursty {
            for &b in bursty.range(a..).skip(1) {
                let ec = jaccard(a, b);
                if ec >= self.tau {
                    self.akg.add_edge(node(a), node(b), ec);
                }
            }
        }
        for (a, b) in set2 {
            let ec = jaccard(a, b);
            if ec >= self.tau {
                self.akg.set_edge_weight(node(a), node(b), ec);
            } else {
                self.akg.remove_edge(node(a), node(b));
            }
        }

        // Lazy demotion, with hysteresis.
        let demoted: Vec<NodeId> = self
            .akg
            .nodes()
            .filter(|&n| self.akg.degree(n) == 0 && !bursty.contains(&keyword(n)))
            .filter(|&n| !(self.hysteresis && self.members.contains(&keyword(n))))
            .collect();
        for n in demoted {
            self.akg.remove_node(n);
        }

        // Clusters, ranked and filtered.
        let clusters = scp_clusters_global(&self.akg);
        self.members = clusters
            .iter()
            .flat_map(|c| c.nodes.iter().map(|&n| keyword(n)))
            .collect();
        let mut events: Vec<OracleEvent> = clusters
            .iter()
            .map(|cluster| {
                let mut total = 0.0;
                let mut support = 0;
                for &member in &cluster.nodes {
                    let mut neighbours: Vec<NodeId> = cluster
                        .edges
                        .iter()
                        .filter_map(|e| e.other(member))
                        .collect();
                    neighbours.sort_unstable();
                    let mut row = 1.0;
                    for other in neighbours {
                        row += self.akg.edge_weight(member, other).unwrap_or(0.0);
                    }
                    let w = users[&keyword(member)].len();
                    support += w;
                    total += w as f64 * row;
                }
                OracleEvent {
                    keywords: cluster.nodes.iter().map(|&n| keyword(n)).collect(),
                    rank: total / cluster.nodes.len() as f64,
                    support,
                }
            })
            .filter(|event| event.rank >= self.rank_threshold)
            .collect();
        events.sort_by(|a, b| a.keywords.cmp(&b.keywords));
        events
    }
}
