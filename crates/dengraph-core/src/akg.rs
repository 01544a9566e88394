//! Active-CKG (AKG) maintenance — Section 3 of the paper.
//!
//! The AKG is the small, slowly changing subgraph of the CKG on which
//! clusters are actually discovered.  Per quantum the maintainer
//!
//! 1. removes *stale* keywords (not seen in any quantum of the window),
//! 2. promotes keywords that are *bursty* this quantum (≥ σ distinct users)
//!    into the high state, which is AKG membership: Section 3.1's
//!    two-state automaton is the graph's node set, with no copy of its
//!    own,
//! 3. computes edge correlations for the two candidate sets of Section
//!    3.2.1 — (1) pairs of this quantum's bursty keywords **whose window
//!    sketches share a minimum** and (2) AKG keywords occurring this
//!    quantum with their existing neighbours — adding, re-weighting or
//!    removing edges against the threshold τ, and
//! 4. lazily demotes AKG keywords that lost all their edges and are no
//!    longer bursty (the hysteresis rule keeps cluster members alive even
//!    when their frequency dips).
//!
//! Every change is reported as a [`GraphDelta`] so the cluster maintainer
//! (Section 5) can update clusters locally.
//!
//! ## Candidate set 1 is a join, not a cross product
//!
//! Section 3.2.2 sizes the sketch (`p = min(σ/2, 1/τ)`) so that two
//! keywords whose sketches share no minimum cannot reach τ, and the
//! estimator agrees: it counts shared values, so such a pair scores
//! exactly 0.0.  The set-1 apply loop acts only on `ec ≥ τ` — it adds or
//! re-weights, and has no removal branch — so for τ > 0 (which
//! [`DetectorConfig::validate`] enforces) a bursty pair without a shared
//! minimum is a no-op whether or not it is scored.  Set 1 is therefore
//! generated by a self-join of the bursty keywords on their sketch minima
//! (`MinimaJoin`): work is bounded by the posting lists and the pairs
//! emitted, not by C(|set 1|, 2), and the AKG, the delta log and every
//! reported event are bit-identical to the all-pairs enumeration.  The
//! join is an equi-join on the minimum, so it sorts nothing: its postings
//! stay grouped by keyword as they are collected, and one open-addressed
//! table (a Fibonacci hash of the whole minimum) chains each posting to
//! the next one holding the same minimum.  Ordering the postings would
//! not be linear even by a counting scatter on their top bits: minima are
//! the *smallest* hashes of each user set, so their top bits crowd
//! together — on the benchmark's streams 90 % of the postings (`tw-ids`,
//! `es-durable`, ≈ 500 a quantum) and 99.8 % (`dense-ids`, ≈ 2 000) share
//! a top-bits bucket with another, the largest holding 14–25 on average.
//! What remains is output-sensitive work, bounded by Σ r_m² over the
//! minima `m` shared by `r_m` keywords.
//!
//! ## One estimator
//!
//! Every candidate pair is scored by one estimator — of the first `p`
//! values of the union of two keywords' window sketches (ascending user
//! hashes, read off the index in place), the share held by both — and
//! applied as soon as it is scored: a score reads only the window, which
//! applying never mutates.  The join meets each set-1 pair once per
//! shared minimum, in ascending order, so it counts the estimator's
//! integers itself (`MinimaJoin::bursty_pairs`); every other pair is
//! scored by `dengraph_minhash::estimate_jaccard_minima`'s merge walk.
//! Both divide the same two integers, so the two paths agree bit for bit.
//!
//! There is no separate exact mode.  A window holds at most Δ·w messages,
//! so at most Δ·w distinct users per keyword; with `min_sketch_size ≥ Δ·w`
//! every sketch is its keyword's whole user set (user hashing is a
//! bijection), and a bottom-k estimate with k ≥ |A ∪ B| is the exact
//! Jaccard coefficient.  `dengraph_tests::oracle`, which recounts user
//! sets from the raw window, is the reference the engine is held to at
//! that width.

use dengraph_graph::{ComponentIndex, DynamicGraph, NodeId};
use dengraph_json::{Decode, Encode};
use dengraph_text::KeywordId;

use crate::config::DetectorConfig;
use crate::keyword_state::{check_keyword_index, QuantumRecord, WindowState};
use crate::scratch::ScratchArena;

/// Converts a keyword id into the graph-node id used by the AKG.
#[inline]
pub fn node_of(keyword: KeywordId) -> NodeId {
    NodeId(keyword.0)
}

/// Converts a graph-node id back into a keyword id.
#[inline]
pub fn keyword_of(node: NodeId) -> KeywordId {
    KeywordId(node.0)
}

/// The keyword of `node` if the window holds a live index entry for it,
/// else why `node` cannot be an AKG node.  A keyword enters the AKG in a
/// quantum that brings it σ users — the index's materialization
/// threshold, so its entry goes live in the same push — and stale removal
/// drops it in the quantum its last record slides out, which is when the
/// entry dies.  So every AKG node has a live index entry: ranking reads
/// support through it, the graph decoders admit a node only with one
/// (before the graph's id-indexed slots are sized), and
/// `EventDetector::validate_invariants` and journal replay check it.
pub(crate) fn live_keyword(window: &WindowState, node: NodeId) -> Result<KeywordId, String> {
    let keyword = keyword_of(node);
    // Only index entries hand out minima.
    match window.window_minima(keyword) {
        Some(_) => Ok(keyword),
        None => Err(format!("AKG node {keyword} has no live window index entry")),
    }
}

/// One structural change applied to the AKG during a quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphDelta {
    /// A keyword entered the AKG.
    NodeAdded {
        /// The keyword's node.
        node: NodeId,
    },
    /// A new edge was admitted (correlation ≥ τ).
    EdgeAdded {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The edge correlation.
        weight: f64,
    },
    /// An existing edge's correlation was re-estimated and stays ≥ τ.
    EdgeWeightUpdated {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The re-estimated edge correlation.
        weight: f64,
    },
    /// An existing edge's correlation dropped below τ.
    EdgeRemoved {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A keyword left the AKG (stale or lazily demoted); all its incident
    /// edges are reported as [`GraphDelta::EdgeRemoved`] first.
    NodeRemoved {
        /// The keyword's node.
        node: NodeId,
    },
}

impl GraphDelta {
    /// Appends the compact binary encoding (one tag byte plus operands).
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        match *self {
            GraphDelta::NodeAdded { node } => {
                w.byte(0);
                w.u32(node.0);
            }
            GraphDelta::EdgeAdded { a, b, weight } => {
                w.byte(1);
                w.u32(a.0);
                w.u32(b.0);
                w.f64(weight);
            }
            GraphDelta::EdgeWeightUpdated { a, b, weight } => {
                w.byte(2);
                w.u32(a.0);
                w.u32(b.0);
                w.f64(weight);
            }
            GraphDelta::EdgeRemoved { a, b } => {
                w.byte(3);
                w.u32(a.0);
                w.u32(b.0);
            }
            GraphDelta::NodeRemoved { node } => {
                w.byte(4);
                w.u32(node.0);
            }
        }
    }

    /// Reconstructs a delta encoded by [`Self::to_bin`].  Node ids are
    /// keyword ids, bounded like every decoded one: a replayed node must
    /// own a live window index slot, and no slot lies beyond the bound.
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let node = |r: &mut dengraph_json::BinReader<'_>| -> dengraph_json::Result<NodeId> {
            let id = r.u32()?;
            check_keyword_index(id as usize, r.pos())?;
            Ok(NodeId(id))
        };
        Ok(match r.byte()? {
            0 => GraphDelta::NodeAdded { node: node(r)? },
            1 => GraphDelta::EdgeAdded {
                a: node(r)?,
                b: node(r)?,
                weight: r.f64()?,
            },
            2 => GraphDelta::EdgeWeightUpdated {
                a: node(r)?,
                b: node(r)?,
                weight: r.f64()?,
            },
            3 => GraphDelta::EdgeRemoved {
                a: node(r)?,
                b: node(r)?,
            },
            4 => GraphDelta::NodeRemoved { node: node(r)? },
            other => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown graph delta tag {other}"),
                    offset: r.pos(),
                })
            }
        })
    }
}

/// Per-quantum summary statistics of the AKG maintenance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AkgQuantumStats {
    /// Keywords that were bursty this quantum.
    pub bursty_keywords: usize,
    /// Candidate pairs whose correlation was evaluated.
    pub pairs_evaluated: usize,
    /// Edges added this quantum.
    pub edges_added: usize,
    /// Edges removed this quantum.
    pub edges_removed: usize,
    /// Nodes added this quantum.
    pub nodes_added: usize,
    /// Nodes removed this quantum.
    pub nodes_removed: usize,
}

impl AkgQuantumStats {
    /// Streams the object [`Self::to_json`] builds, byte for byte.
    pub fn write_json(&self, w: &mut dengraph_json::JsonWriter<'_>) {
        w.begin_obj();
        w.key("bursty_keywords");
        w.u64(self.bursty_keywords as u64);
        w.key("edges_added");
        w.u64(self.edges_added as u64);
        w.key("edges_removed");
        w.u64(self.edges_removed as u64);
        w.key("nodes_added");
        w.u64(self.nodes_added as u64);
        w.key("nodes_removed");
        w.u64(self.nodes_removed as u64);
        w.key("pairs_evaluated");
        w.u64(self.pairs_evaluated as u64);
        w.end_obj();
    }
}

impl Encode for AkgQuantumStats {
    /// Serialises the statistics to a [`dengraph_json::Value`].
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("bursty_keywords", Value::from(self.bursty_keywords)),
            ("pairs_evaluated", Value::from(self.pairs_evaluated)),
            ("edges_added", Value::from(self.edges_added)),
            ("edges_removed", Value::from(self.edges_removed)),
            ("nodes_added", Value::from(self.nodes_added)),
            ("nodes_removed", Value::from(self.nodes_removed)),
        ])
    }

    /// Appends the compact binary encoding (six varints).
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.bursty_keywords);
        w.usize(self.pairs_evaluated);
        w.usize(self.edges_added);
        w.usize(self.edges_removed);
        w.usize(self.nodes_added);
        w.usize(self.nodes_removed);
    }
}

impl Decode for AkgQuantumStats {
    /// Reconstructs statistics serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            bursty_keywords: value.get("bursty_keywords")?.as_usize()?,
            pairs_evaluated: value.get("pairs_evaluated")?.as_usize()?,
            edges_added: value.get("edges_added")?.as_usize()?,
            edges_removed: value.get("edges_removed")?.as_usize()?,
            nodes_added: value.get("nodes_added")?.as_usize()?,
            nodes_removed: value.get("nodes_removed")?.as_usize()?,
        })
    }

    /// Reconstructs statistics encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Ok(Self {
            bursty_keywords: r.usize()?,
            pairs_evaluated: r.usize()?,
            edges_added: r.usize()?,
            edges_removed: r.usize()?,
            nodes_added: r.usize()?,
            nodes_removed: r.usize()?,
        })
    }
}

/// Marks the end of a [`MinimaJoin`] chain and a vacant table slot.
const NO_POSTING: u32 = u32::MAX;

/// The multiplier of the join table's Fibonacci hash: 2⁶⁴ divided by the
/// golden ratio.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The transient inverted index *sketch minimum → bursty keywords* behind
/// candidate set 1 (see the module docs), rebuilt every quantum out of
/// retained capacity: a chained hash join that scores each pair it meets.
/// Keywords are addressed by their position in set 1, which is sorted, so
/// position order is keyword order.
///
/// The trust model is the window index overflow table's (`keyword_state`
/// module docs): a minimum is `UserHasher::hash` of a user id, a public
/// bijection, so user ids chosen to collide in `table` lengthen a probe
/// run — by at most the number of distinct minima that collide — and cost
/// probes, never answers: a probe compares the whole minimum.  Equal
/// minima (a keyword family) chain on their first probe.
#[derive(Debug, Default)]
pub(crate) struct MinimaJoin {
    /// One `(minimum, position)` per sketch minimum of every set-1
    /// keyword, grouped by position, each group in column order.
    postings: Vec<(u64, u32)>,
    /// Per set-1 keyword, where its postings end; they start where the
    /// previous keyword's end.
    ends: Vec<u32>,
    /// Per posting, the next posting holding the same minimum (which
    /// belongs to a larger position: a keyword's minima are distinct), or
    /// [`NO_POSTING`].
    next: Vec<u32>,
    /// Open-addressed, linear probing, a power of two ≥ 2·|postings| long:
    /// per minimum, the first posting of its chain, or [`NO_POSTING`].
    table: Vec<u32>,
    /// Per set-1 position `b`, its meeting with the current left keyword.
    meets: Vec<Meet>,
    /// The right keywords the current left keyword has met, in meeting
    /// order.
    met: Vec<u32>,
}

/// What the join has counted of one pair `(a, b)`: a family of keywords
/// over the same users shares every minimum, and must still yield each of
/// its pairs once.
#[derive(Debug, Clone, Copy)]
struct Meet {
    /// The left position `a` these counts belong to (stale otherwise).
    left: u32,
    /// Shared minima met so far.
    shared: u32,
    /// Of those, the ones among the first `p` values of the union.
    in_both: u32,
}

impl MinimaJoin {
    /// Scores every position pair `(a, b)`, `a < b`, of `set1` keywords
    /// whose window sketches share at least one minimum — each pair once,
    /// ascending — and hands `apply` the pairs whose estimate reaches
    /// `tau`.  Returns the number of pairs scored.
    ///
    /// The estimate is `estimate_jaccard_minima(a, b, p)`'s, counted from
    /// the join's own walk: a shared minimum at index `i` of `a`'s column
    /// and `j` of `b`'s, with `s` shared minima before it, has `i + j − s`
    /// union values below it, so it is among the union's first `p` values
    /// iff `i + j − s < p`.  With `c` shared minima in all, the union has
    /// `|a| + |b| − c` values, so the estimate is `in_both / min(p, |a| +
    /// |b| − c)` — the integers the merge walk would divide, bit for bit.
    ///
    /// Costs one table insert per posting (≤ p per set-1 keyword) plus one
    /// count per (pair, shared minimum): the ℓ2 degree bound Σ r_m² over
    /// minima `m` shared by `r_m` keywords.  The degenerate quantum in
    /// which every bursty keyword shares every minimum pays p·C(n, 2)
    /// counts, still less than the C(n, 2) sketch walks the cross product
    /// costs.
    fn bursty_pairs(
        &mut self,
        window: &WindowState,
        set1: &[KeywordId],
        p: usize,
        tau: f64,
        mut apply: impl FnMut(u32, u32, f64),
    ) -> usize {
        let Self {
            postings,
            ends,
            next,
            table,
            meets,
            met,
        } = self;
        postings.clear();
        ends.clear();
        for (a, &keyword) in set1.iter().enumerate() {
            let minima = window.window_minima(keyword).unwrap_or_default();
            postings.extend(minima.iter().map(|&m| (m, a as u32)));
            ends.push(postings.len() as u32);
        }

        // Chain equal minima: walking backwards, each posting links to the
        // chain its minimum has so far and becomes its head, so a chain
        // runs forward through ascending positions.  At least two table
        // slots, so the shift below stays under 64.
        let bits = (2 * postings.len())
            .max(2)
            .next_power_of_two()
            .trailing_zeros();
        table.clear();
        table.resize(1 << bits, NO_POSTING);
        next.clear();
        next.resize(postings.len(), NO_POSTING);
        let mask = table.len() - 1;
        for (i, &(minimum, _)) in postings.iter().enumerate().rev() {
            let mut at = (minimum.wrapping_mul(FIBONACCI) >> (u64::BITS - bits)) as usize;
            loop {
                let head = table[at];
                if head == NO_POSTING || postings[head as usize].0 == minimum {
                    next[i] = head;
                    table[at] = i as u32;
                    break;
                }
                at = (at + 1) & mask;
            }
        }

        // Walk grouped by left keyword, so one `Meet` per right keyword
        // counts a pair.  The chain after a posting of `a` holds exactly
        // the keywords b > a sharing its minimum, and `a`'s postings run
        // in column order, so each pair meets its shared minima ascending.
        meets.clear();
        meets.resize(
            set1.len(),
            Meet {
                left: u32::MAX,
                shared: 0,
                in_both: 0,
            },
        );
        let (mut start, mut scored) = (0, 0);
        for (a, &end) in ends.iter().enumerate() {
            let a = a as u32;
            met.clear();
            for (i, &head) in next[start..end as usize].iter().enumerate() {
                let mut at = head;
                while at != NO_POSTING {
                    let b = postings[at as usize].1;
                    let meet = &mut meets[b as usize];
                    if meet.left != a {
                        *meet = Meet {
                            left: a,
                            shared: 0,
                            in_both: 0,
                        };
                        met.push(b);
                    }
                    // `b > a ≥ 0`, so `b`'s postings start at `ends[b − 1]`.
                    let j = at as usize - ends[b as usize - 1] as usize;
                    meet.in_both += u32::from(i + j - (meet.shared as usize) < p);
                    meet.shared += 1;
                    at = next[at as usize];
                }
            }
            met.sort_unstable();
            let len_a = end as usize - start;
            for &b in met.iter() {
                let Meet {
                    shared, in_both, ..
                } = meets[b as usize];
                let len_b = (ends[b as usize] - ends[b as usize - 1]) as usize;
                let taken = p.min(len_a + len_b - shared as usize);
                let ec = f64::from(in_both) / taken as f64;
                if ec >= tau {
                    apply(a, b, ec);
                }
            }
            scored += met.len();
            start = end as usize;
        }
        scored
    }
}

/// Maintains the AKG across quanta.  A keyword is in Section 3.1's high
/// state exactly while it is a node of [`Self::graph`].
#[derive(Debug)]
pub struct AkgMaintainer {
    config: DetectorConfig,
    graph: DynamicGraph,
    last_stats: AkgQuantumStats,
}

impl AkgMaintainer {
    /// Creates an empty AKG maintainer.
    pub fn new(config: DetectorConfig) -> Self {
        Self {
            config,
            graph: DynamicGraph::new(),
            last_stats: AkgQuantumStats::default(),
        }
    }

    /// The current AKG.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The stateless stand-in for the retired component index, held only
    /// because the repo benchmark names it (`dengraph_graph::components`).
    pub fn components(&self) -> &ComponentIndex {
        &ComponentIndex
    }

    /// Statistics of the most recently processed quantum.
    pub fn last_stats(&self) -> AkgQuantumStats {
        self.last_stats
    }

    /// Serialises the maintainer's state (graph, last stats).  The
    /// configuration is *not* included — it is shared detector state and
    /// travels once at the checkpoint's top level.
    pub fn to_json(&self) -> dengraph_json::Value {
        dengraph_json::Value::obj([
            ("graph", self.graph.to_json()),
            ("last_stats", self.last_stats.to_json()),
        ])
    }

    /// Reconstructs a maintainer serialised by [`Self::to_json`] under the
    /// given configuration, beside the already-decoded `window`: the graph
    /// admits only nodes whose keyword has a live entry in the window's
    /// index, and only edges between its listed nodes.
    pub fn from_json(
        config: DetectorConfig,
        window: &WindowState,
        value: &dengraph_json::Value,
    ) -> dengraph_json::Result<Self> {
        Ok(Self {
            config,
            graph: DynamicGraph::from_json_admitting(value.get("graph")?, |node| {
                live_keyword(window, node)
            })?,
            last_stats: AkgQuantumStats::from_json(value.get("last_stats")?)?,
        })
    }

    /// Appends the compact binary encoding (graph, last stats) — the
    /// binary twin of [`Self::to_json`].
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.graph.to_bin(w);
        self.last_stats.to_bin(w);
    }

    /// Reconstructs a maintainer encoded by [`Self::to_bin`] under the
    /// given configuration and beside `window`, admitting the graph's
    /// nodes and edges like [`Self::from_json`].
    pub fn from_bin(
        config: DetectorConfig,
        window: &WindowState,
        r: &mut dengraph_json::BinReader<'_>,
    ) -> dengraph_json::Result<Self> {
        Ok(Self {
            config,
            graph: DynamicGraph::from_bin_admitting(r, |node| live_keyword(window, node))?,
            last_stats: AkgQuantumStats::from_bin(r)?,
        })
    }

    /// Re-applies one quantum's worth of logged deltas to the graph — the
    /// redo half of incremental checkpointing.  The node deltas are the
    /// original run's promotions and demotions, so replaying them
    /// reproduces the high-state set (the node set) bit-for-bit without
    /// re-scoring a single correlation.
    pub(crate) fn replay_deltas(&mut self, deltas: &[GraphDelta], stats: AkgQuantumStats) {
        for delta in deltas {
            match *delta {
                GraphDelta::NodeAdded { node } => {
                    self.graph.add_node(node);
                }
                GraphDelta::NodeRemoved { node } => {
                    self.graph.remove_node(node);
                }
                GraphDelta::EdgeAdded { a, b, weight } => {
                    self.graph.add_edge(a, b, weight);
                }
                GraphDelta::EdgeWeightUpdated { a, b, weight } => {
                    self.graph.add_edge(a, b, weight);
                }
                GraphDelta::EdgeRemoved { a, b } => {
                    self.graph.remove_edge(a, b);
                }
            }
        }
        self.last_stats = stats;
    }

    /// Processes one quantum.  `window` must already contain `record` as its
    /// most recent entry.  `cluster_members` answers "is this keyword
    /// currently part of any cluster?" — the hysteresis rule keeps such
    /// keywords in the AKG even when they stop being bursty.
    pub fn process_quantum<F>(
        &mut self,
        record: &QuantumRecord,
        window: &WindowState,
        cluster_members: F,
    ) -> Vec<GraphDelta>
    where
        F: Fn(KeywordId) -> bool,
    {
        let mut scratch = ScratchArena::default();
        self.process_quantum_into(record, window, cluster_members, &mut scratch);
        std::mem::take(&mut scratch.deltas)
    }

    /// Scratch-reusing variant of [`Self::process_quantum`]: the delta log
    /// lands in `scratch.deltas` and every working vector reuses the
    /// arena's capacity, so steady-state quanta allocate nothing here.
    pub(crate) fn process_quantum_into<F>(
        &mut self,
        record: &QuantumRecord,
        window: &WindowState,
        cluster_members: F,
        scratch: &mut ScratchArena,
    ) where
        F: Fn(KeywordId) -> bool,
    {
        let ScratchArena {
            ref mut deltas,
            ref mut nodes,
            ref mut set1,
            ref mut keyword_bits,
            ref mut set2,
            ref mut edge_pairs,
            ref mut join,
            ..
        } = *scratch;
        deltas.clear();
        let mut stats = AkgQuantumStats::default();
        let sigma = self.config.high_state_threshold;
        let tau = self.config.edge_correlation_threshold;

        // --- 1. stale removal -------------------------------------------------
        // `nodes()` is ascending, so the delta order is canonical.
        nodes.clear();
        nodes.extend(
            self.graph
                .nodes()
                .filter(|&n| window.is_stale(keyword_of(n))),
        );
        #[expect(
            clippy::needless_range_loop,
            reason = "`nodes` and `deltas` are sibling scratch buffers; an iterator would pin the borrow"
        )]
        for i in 0..nodes.len() {
            self.remove_node(nodes[i], deltas, &mut stats);
        }

        // --- 2. burstiness / node admission -----------------------------------
        // `record.iter()` is ascending by keyword id, so the admission
        // order is canonical without a sort.
        set1.clear();
        // set(2): keywords already in the AKG that occur in this quantum.
        set2.clear();
        for (keyword, users) in record.iter() {
            let count = users.len();
            let already_in_akg = self.graph.contains_node(node_of(keyword));
            if count >= sigma as usize {
                set1.push(keyword);
                if !already_in_akg {
                    self.graph.add_node(node_of(keyword));
                    deltas.push(GraphDelta::NodeAdded {
                        node: node_of(keyword),
                    });
                    stats.nodes_added += 1;
                }
            }
            if already_in_akg {
                set2.push(keyword);
            }
        }
        stats.bursty_keywords = set1.len();
        // Set 1 as one bit per keyword id, cleared again before returning.
        for &keyword in set1.iter() {
            keyword_bits.mark(keyword);
        }
        let in_set1 = |keyword: KeywordId| keyword_bits.contains(keyword);

        // --- 3. edge recomputation --------------------------------------------
        // The two candidate sets of Section 3.2.1: (2) existing edges of
        // AKG keywords seen this quantum, collected before any edge
        // mutation, and (1) pairs of this quantum's bursty keywords whose
        // window sketches share a minimum.  Bursty pairs sharing none score
        // exactly 0.0 < τ and the set-1 apply loop below only ever acts on
        // `ec >= tau`, so leaving them out changes nothing but the work
        // (module docs; τ > 0 is a validated precondition).  An existing
        // edge between two bursty keywords belongs to set 1 alone — it is
        // re-weighted there if still ≥ τ and otherwise left as it is.
        edge_pairs.clear();
        for &keyword in set2.iter() {
            let keyword_bursty = in_set1(keyword);
            for other in self.graph.neighbors(node_of(keyword)) {
                let other_kw = keyword_of(other);
                if keyword_bursty && in_set1(other_kw) {
                    continue;
                }
                let pair = if keyword <= other_kw {
                    (keyword, other_kw)
                } else {
                    (other_kw, keyword)
                };
                edge_pairs.push(pair);
            }
        }
        // An edge between two set-2 keywords is reachable from both ends;
        // canonicalise + dedup so each pair is evaluated exactly once.
        edge_pairs.sort_unstable();
        edge_pairs.dedup();

        // Set 1 first, as ascending position pairs (position order is
        // keyword order), which is the order cluster-id assignment relies
        // on.  Only pairs at `ec >= tau` act, so the join scores each pair
        // it meets as it walks and hands over only those.
        let p = window.sketch_size().max(1);
        let graph = &mut self.graph;
        let bursty_scored = join.bursty_pairs(window, set1, p, tau, |a, b, ec| {
            let (na, nb) = (node_of(set1[a as usize]), node_of(set1[b as usize]));
            if graph.add_edge(na, nb, ec) {
                deltas.push(GraphDelta::EdgeAdded {
                    a: na,
                    b: nb,
                    weight: ec,
                });
                stats.edges_added += 1;
            } else {
                deltas.push(GraphDelta::EdgeWeightUpdated {
                    a: na,
                    b: nb,
                    weight: ec,
                });
            }
        });
        stats.pairs_evaluated = bursty_scored + edge_pairs.len();
        // Then set 2, each pair by the merge walk over the two sketches.
        let minima = |keyword| window.window_minima(keyword).unwrap_or_default();
        for &(a, b) in edge_pairs.iter() {
            let ec = dengraph_minhash::estimate_jaccard_minima(minima(a), minima(b), p);
            let (na, nb) = (node_of(a), node_of(b));
            if ec >= tau {
                self.graph.set_edge_weight(na, nb, ec);
                deltas.push(GraphDelta::EdgeWeightUpdated {
                    a: na,
                    b: nb,
                    weight: ec,
                });
            } else {
                self.graph.remove_edge(na, nb);
                deltas.push(GraphDelta::EdgeRemoved { a: na, b: nb });
                stats.edges_removed += 1;
            }
        }

        // --- 4. lazy demotion --------------------------------------------------
        nodes.clear();
        nodes.extend(self.graph.nodes().filter(|&n| self.graph.degree(n) == 0));
        #[expect(
            clippy::needless_range_loop,
            reason = "`nodes` and `deltas` are sibling scratch buffers; an iterator would pin the borrow"
        )]
        for i in 0..nodes.len() {
            let node = nodes[i];
            let keyword = keyword_of(node);
            if in_set1(keyword) {
                continue;
            }
            let keep = self.config.hysteresis && cluster_members(keyword);
            if !keep {
                self.remove_node(node, deltas, &mut stats);
            }
        }
        // Only set-1 bits were set, so zeroing their words clears the
        // column in O(|set 1|).
        for &keyword in set1.iter() {
            keyword_bits.clear_word(keyword);
        }

        self.last_stats = stats;
    }

    /// Removes a node (and its incident edges) from the AKG, recording the
    /// corresponding deltas.
    fn remove_node(
        &mut self,
        node: NodeId,
        deltas: &mut Vec<GraphDelta>,
        stats: &mut AkgQuantumStats,
    ) {
        for (other, _) in self.graph.remove_node(node) {
            deltas.push(GraphDelta::EdgeRemoved {
                a: node.min(other),
                b: node.max(other),
            });
            stats.edges_removed += 1;
        }
        deltas.push(GraphDelta::NodeRemoved { node });
        stats.nodes_removed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_minhash::UserHasher;
    use dengraph_stream::{Message, UserId};

    fn config() -> DetectorConfig {
        DetectorConfig {
            high_state_threshold: 3,
            edge_correlation_threshold: 0.3,
            window_quanta: 3,
            ..Default::default()
        }
    }

    fn k(i: u32) -> KeywordId {
        KeywordId(i)
    }

    fn msg(user: u64, kws: &[u32]) -> Message {
        Message::new(UserId(user), 0, kws.iter().map(|&i| KeywordId(i)).collect())
    }

    /// Pushes a quantum of messages through a window + maintainer pair.
    fn step(
        akg: &mut AkgMaintainer,
        window: &mut WindowState,
        index: u64,
        messages: &[Message],
    ) -> Vec<GraphDelta> {
        let record = QuantumRecord::from_messages(index, messages);
        window.push(record.clone());
        akg.process_quantum(&record, window, |_| false)
    }

    fn window_for(cfg: &DetectorConfig) -> WindowState {
        WindowState::new(cfg.window_quanta, cfg.sketch_size(), UserHasher::new(1))
    }

    /// Messages where three users all mention keywords 1 and 2 together.
    fn correlated_burst() -> Vec<Message> {
        vec![
            msg(1, &[1, 2]),
            msg(2, &[1, 2]),
            msg(3, &[1, 2]),
            msg(4, &[50]),
            msg(5, &[51]),
        ]
    }

    #[test]
    fn bursty_correlated_keywords_get_nodes_and_an_edge() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        let deltas = step(&mut akg, &mut window, 0, &correlated_burst());
        assert!(akg.graph().contains_node(node_of(k(1))));
        assert!(akg.graph().contains_node(node_of(k(2))));
        assert!(akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
        assert!(deltas
            .iter()
            .any(|d| matches!(d, GraphDelta::EdgeAdded { .. })));
        // Non-bursty keywords stay out of the AKG.
        assert!(!akg.graph().contains_node(node_of(k(50))));
    }

    #[test]
    fn uncorrelated_bursty_keywords_get_no_edge() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        // Keywords 1 and 2 are each bursty but never used by the same user.
        let messages = vec![
            msg(1, &[1]),
            msg(2, &[1]),
            msg(3, &[1]),
            msg(4, &[2]),
            msg(5, &[2]),
            msg(6, &[2]),
        ];
        step(&mut akg, &mut window, 0, &messages);
        assert!(akg.graph().contains_node(node_of(k(1))));
        assert!(akg.graph().contains_node(node_of(k(2))));
        assert!(!akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
    }

    #[test]
    fn stale_keywords_are_removed_after_the_window_passes() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        step(&mut akg, &mut window, 0, &correlated_burst());
        assert!(akg.graph().contains_node(node_of(k(1))));
        // Three quanta of unrelated traffic push the burst out of the window.
        for q in 1..=3 {
            step(&mut akg, &mut window, q, &[msg(9, &[90]), msg(10, &[91])]);
        }
        assert!(!akg.graph().contains_node(node_of(k(1))));
        assert!(!akg.graph().contains_node(node_of(k(2))));
    }

    #[test]
    fn edge_is_dropped_when_correlation_decays() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        step(&mut akg, &mut window, 0, &correlated_burst());
        assert!(akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
        // Subsequent quanta: keyword 1 is used by many users *without*
        // keyword 2, so the window Jaccard drops below tau; keyword 1 keeps
        // occurring so set(2) refreshes the edge.
        for q in 1..=2 {
            let messages: Vec<Message> = (0..12).map(|u| msg(100 + u + q * 50, &[1])).collect();
            step(&mut akg, &mut window, q, &messages);
        }
        assert!(!akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
    }

    #[test]
    fn isolated_non_bursty_nodes_are_lazily_demoted() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        // Keyword 1 bursts alone (no correlated partner): node added, no edges.
        let messages = vec![msg(1, &[1]), msg(2, &[1]), msg(3, &[1])];
        step(&mut akg, &mut window, 0, &messages);
        assert!(akg.graph().contains_node(node_of(k(1))));
        // Next quantum it appears once (not bursty): with no cluster
        // membership, the lazy update removes it.
        step(&mut akg, &mut window, 1, &[msg(4, &[1])]);
        assert!(!akg.graph().contains_node(node_of(k(1))));
    }

    #[test]
    fn cluster_membership_keeps_nodes_via_hysteresis() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        let messages = vec![msg(1, &[1]), msg(2, &[1]), msg(3, &[1])];
        let record = QuantumRecord::from_messages(0, &messages);
        window.push(record.clone());
        akg.process_quantum(&record, &window, |_| false);
        assert!(akg.graph().contains_node(node_of(k(1))));
        // Keyword 1 stops being bursty but is claimed by a cluster.
        let record = QuantumRecord::from_messages(1, &[msg(4, &[1])]);
        window.push(record.clone());
        akg.process_quantum(&record, &window, |kw| kw == k(1));
        assert!(
            akg.graph().contains_node(node_of(k(1))),
            "cluster membership must keep the node"
        );
    }

    #[test]
    fn stats_reflect_the_quantum() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        step(&mut akg, &mut window, 0, &correlated_burst());
        let stats = akg.last_stats();
        assert_eq!(stats.bursty_keywords, 2);
        assert_eq!(stats.nodes_added, 2);
        assert_eq!(stats.edges_added, 1);
        assert!(stats.pairs_evaluated >= 1);
    }

    #[test]
    fn node_conversion_round_trips() {
        assert_eq!(keyword_of(node_of(k(17))), k(17));
    }
}
