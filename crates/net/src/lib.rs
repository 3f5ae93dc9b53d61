//! Text-attached heterogeneous information networks (THINs) and the
//! collapsed edge-weighted networks CATHY/CATHYHIN analyze.
//!
//! The dissertation's Definition 1 models data as typed nodes, typed link
//! weights, and per-node documents. Chapter 3 collapses the document nodes
//! away: documents become term–term co-occurrence links, and entity–document
//! links become entity–term links (Example 3.1). This crate provides:
//!
//! * [`TypedNetwork`] — an edge-weighted multi-typed network;
//! * [`co_occurrence_network`] — the text-only collapse of §3.1;
//! * [`collapsed_network`] — the heterogeneous collapse of §3.2.
//!
//! Link weights are *presence-based*: the weight between two nodes is the
//! number of documents in which both occur (Example 3.1).

// DESIGN.md §10: library code must surface typed errors, not unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use lesm_corpus::Corpus;
use std::collections::HashMap;

/// Errors produced by network construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A node type index was out of range.
    UnknownType(usize),
    /// A link refers to a node id beyond the declared node count.
    NodeOutOfRange {
        /// Offending node type.
        etype: usize,
        /// Offending node id.
        id: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownType(t) => write!(f, "unknown node type {t}"),
            NetError::NodeOutOfRange { etype, id } => {
                write!(f, "node {id} out of range for type {etype}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// All links between one (unordered) pair of node types.
///
/// For `tx == ty` edges are stored with `i <= j`; self-links (`i == j`) are
/// permitted. For `tx < ty`, `i` indexes type `tx` and `j` type `ty`.
#[derive(Debug, Clone)]
pub struct LinkBlock {
    /// First node type.
    pub tx: usize,
    /// Second node type (`tx <= ty`).
    pub ty: usize,
    /// `(i, j, weight)` triples with strictly positive weights.
    pub edges: Vec<(u32, u32, f64)>,
}

impl LinkBlock {
    /// Total link weight in the block.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Number of non-zero links.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the block holds no links.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// An edge-weighted network with typed nodes.
///
/// This is `G^t` of the root topic in the dissertation's notation: CATHYHIN
/// flattens it once and recursively soft-partitions the flattened links
/// into subtopic subnetworks, which are never built as networks.
#[derive(Debug, Clone)]
pub struct TypedNetwork {
    /// Human-readable type names, e.g. `["author", "venue", "term"]`.
    pub type_names: Vec<String>,
    /// Number of nodes of each type.
    pub node_counts: Vec<usize>,
    /// One block per unordered type pair that has at least one link.
    pub blocks: Vec<LinkBlock>,
}

impl TypedNetwork {
    /// Creates an empty network with the given types.
    pub fn new(type_names: Vec<String>, node_counts: Vec<usize>) -> Self {
        assert_eq!(type_names.len(), node_counts.len());
        Self {
            type_names,
            node_counts,
            blocks: Vec::new(),
        }
    }

    /// Number of node types.
    pub fn num_types(&self) -> usize {
        self.type_names.len()
    }

    /// Total link weight across all blocks (`M^t`).
    pub fn total_weight(&self) -> f64 {
        self.blocks.iter().map(LinkBlock::total_weight).sum()
    }

    /// Total number of non-zero links.
    pub fn num_links(&self) -> usize {
        self.blocks.iter().map(LinkBlock::len).sum()
    }

    /// Looks up the block for an unordered type pair.
    pub fn block(&self, tx: usize, ty: usize) -> Option<&LinkBlock> {
        let (a, b) = if tx <= ty { (tx, ty) } else { (ty, tx) };
        self.blocks.iter().find(|blk| blk.tx == a && blk.ty == b)
    }

    /// Validates that every edge endpoint is within the declared node count.
    pub fn validate(&self) -> Result<(), NetError> {
        for blk in &self.blocks {
            if blk.tx >= self.num_types() {
                return Err(NetError::UnknownType(blk.tx));
            }
            if blk.ty >= self.num_types() {
                return Err(NetError::UnknownType(blk.ty));
            }
            for &(i, j, _) in &blk.edges {
                if i as usize >= self.node_counts[blk.tx] {
                    return Err(NetError::NodeOutOfRange {
                        etype: blk.tx,
                        id: i,
                    });
                }
                if j as usize >= self.node_counts[blk.ty] {
                    return Err(NetError::NodeOutOfRange {
                        etype: blk.ty,
                        id: j,
                    });
                }
            }
        }
        Ok(())
    }

    /// Per-type weighted degree: `deg[t][i]` is the total weight of links
    /// incident to node `i` of type `t` (self-links counted once).
    pub fn weighted_degrees(&self) -> Vec<Vec<f64>> {
        let mut deg: Vec<Vec<f64>> = self.node_counts.iter().map(|&n| vec![0.0; n]).collect();
        for blk in &self.blocks {
            for &(i, j, w) in &blk.edges {
                deg[blk.tx][i as usize] += w;
                if !(blk.tx == blk.ty && i == j) {
                    deg[blk.ty][j as usize] += w;
                }
            }
        }
        deg
    }

    /// Summary statistics (the Table 3.4 style counts).
    pub fn stats(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (t, (name, n)) in self.type_names.iter().zip(&self.node_counts).enumerate() {
            let _ = writeln!(s, "type {t} ({name}): {n} nodes");
        }
        for blk in &self.blocks {
            let _ = writeln!(
                s,
                "links {}-{}: {} edges, total weight {:.0}",
                self.type_names[blk.tx],
                self.type_names[blk.ty],
                blk.len(),
                blk.total_weight()
            );
        }
        s
    }
}

/// Builder that accumulates link weights in hash maps and freezes them into
/// sorted [`LinkBlock`]s.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    type_names: Vec<String>,
    node_counts: Vec<usize>,
    maps: HashMap<(usize, usize), HashMap<(u32, u32), f64>>,
}

impl NetworkBuilder {
    /// Starts a builder with the given node types.
    pub fn new(type_names: Vec<String>, node_counts: Vec<usize>) -> Self {
        assert_eq!(type_names.len(), node_counts.len());
        Self {
            type_names,
            node_counts,
            maps: HashMap::new(),
        }
    }

    /// Adds `w` to the (undirected) link between `(tx, i)` and `(ty, j)`.
    pub fn add(&mut self, tx: usize, i: u32, ty: usize, j: u32, w: f64) {
        let (tx, i, ty, j) = if tx < ty || (tx == ty && i <= j) {
            (tx, i, ty, j)
        } else {
            (ty, j, tx, i)
        };
        *self
            .maps
            .entry((tx, ty))
            .or_default()
            .entry((i, j))
            .or_insert(0.0) += w;
    }

    /// Freezes into a [`TypedNetwork`] with deterministic edge order.
    pub fn build(self) -> TypedNetwork {
        let mut blocks: Vec<LinkBlock> = self
            .maps
            .into_iter()
            .map(|((tx, ty), m)| {
                let mut edges: Vec<(u32, u32, f64)> =
                    m.into_iter().map(|((i, j), w)| (i, j, w)).collect();
                edges.sort_unstable_by_key(|a| (a.0, a.1));
                LinkBlock { tx, ty, edges }
            })
            .collect();
        blocks.sort_unstable_by_key(|a| (a.tx, a.ty));
        TypedNetwork {
            type_names: self.type_names,
            node_counts: self.node_counts,
            blocks,
        }
    }
}

/// Builds the term co-occurrence network of §3.1 from a corpus.
///
/// One node type ("term"); the weight between two distinct terms is the
/// number of documents containing both. A term repeated within a document
/// contributes a self-link.
pub fn co_occurrence_network(corpus: &Corpus) -> TypedNetwork {
    let v = corpus.num_words();
    let mut b = NetworkBuilder::new(vec!["term".into()], vec![v]);
    let mut present: Vec<u32> = Vec::new();
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for doc in &corpus.docs {
        present.clear();
        counts.clear();
        for &w in &doc.tokens {
            let c = counts.entry(w).or_insert(0);
            if *c == 0 {
                present.push(w);
            }
            *c += 1;
        }
        present.sort_unstable();
        for (a_idx, &wa) in present.iter().enumerate() {
            if counts[&wa] >= 2 {
                b.add(0, wa, 0, wa, 1.0);
            }
            for &wb in &present[a_idx + 1..] {
                b.add(0, wa, 0, wb, 1.0);
            }
        }
    }
    b.build()
}

/// Builds the collapsed heterogeneous network of §3.2 (Example 3.1).
///
/// Node types are the corpus' entity types followed by `"term"` (so in the
/// DBLP schema: author, venue, term). Weights are document co-occurrence
/// counts for every type pair; venue–venue links are naturally absent when
/// each document carries one venue.
pub fn collapsed_network(corpus: &Corpus) -> TypedNetwork {
    collapsed_network_from(corpus, 0)
}

/// The delta variant of [`collapsed_network`]: collapses only the
/// documents at index `from_doc` onward, over the **full** corpus node
/// space (all interned words and entities, including ones only earlier
/// documents mention). Because interning is append-only, the network
/// built from an updated corpus's tail is exactly the edge set the new
/// documents add to the base collapse — the input
/// `lesm_hier::EdgeState::append_delta` and `TopicHierarchy::update`
/// expect.
pub fn collapsed_network_from(corpus: &Corpus, from_doc: usize) -> TypedNetwork {
    let n_etypes = corpus.entities.num_types();
    let term_type = n_etypes;
    let mut names: Vec<String> = (0..n_etypes)
        .map(|t| corpus.entities.type_name(t).unwrap_or("entity").to_owned())
        .collect();
    names.push("term".into());
    let mut counts: Vec<usize> = (0..n_etypes).map(|t| corpus.entities.count(t)).collect();
    counts.push(corpus.num_words());
    let mut b = NetworkBuilder::new(names, counts);

    let mut terms: Vec<u32> = Vec::new();
    let mut seen: HashMap<u32, u32> = HashMap::new();
    for doc in corpus.docs.iter().skip(from_doc) {
        terms.clear();
        seen.clear();
        for &w in &doc.tokens {
            let c = seen.entry(w).or_insert(0);
            if *c == 0 {
                terms.push(w);
            }
            *c += 1;
        }
        terms.sort_unstable();
        // term-term
        for (a_idx, &wa) in terms.iter().enumerate() {
            if seen[&wa] >= 2 {
                b.add(term_type, wa, term_type, wa, 1.0);
            }
            for &wb in &terms[a_idx + 1..] {
                b.add(term_type, wa, term_type, wb, 1.0);
            }
        }
        // entity-term and entity-entity
        for (e_idx, ea) in doc.entities.iter().enumerate() {
            for &w in &terms {
                b.add(ea.etype, ea.id, term_type, w, 1.0);
            }
            for eb in &doc.entities[e_idx + 1..] {
                if ea.etype == eb.etype && ea.id == eb.id {
                    continue; // duplicate link of the same entity in one doc
                }
                b.add(ea.etype, ea.id, eb.etype, eb.id, 1.0);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesm_corpus::Corpus;

    fn tiny_corpus() -> Corpus {
        let mut c = Corpus::new();
        let author = c.entities.add_type("author");
        let venue = c.entities.add_type("venue");
        let d0 = c.push_text("query processing query");
        c.link_entity(d0, author, "alice").unwrap();
        c.link_entity(d0, author, "bob").unwrap();
        c.link_entity(d0, venue, "SIGMOD").unwrap();
        let d1 = c.push_text("query optimization");
        c.link_entity(d1, author, "alice").unwrap();
        c.link_entity(d1, venue, "VLDB").unwrap();
        c
    }

    #[test]
    fn co_occurrence_counts_docs() {
        let c = tiny_corpus();
        let g = co_occurrence_network(&c);
        assert_eq!(g.num_types(), 1);
        let q = c.vocab.get("query").unwrap();
        let p = c.vocab.get("processing").unwrap();
        let o = c.vocab.get("optimization").unwrap();
        let blk = g.block(0, 0).unwrap();
        let find = |i: u32, j: u32| {
            let (i, j) = if i <= j { (i, j) } else { (j, i) };
            blk.edges
                .iter()
                .find(|&&(a, b, _)| a == i && b == j)
                .map(|&(_, _, w)| w)
        };
        assert_eq!(find(q, p), Some(1.0));
        assert_eq!(find(q, o), Some(1.0));
        assert_eq!(find(p, o), None);
        // "query" occurs twice in doc 0 -> self-link.
        assert_eq!(find(q, q), Some(1.0));
        g.validate().unwrap();
    }

    #[test]
    fn collapsed_network_schema() {
        let c = tiny_corpus();
        let g = collapsed_network(&c);
        assert_eq!(g.num_types(), 3);
        assert_eq!(g.type_names, vec!["author", "venue", "term"]);
        g.validate().unwrap();
        // author-term: alice co-occurs with "query" in 2 docs.
        let alice = 0u32;
        let q = c.vocab.get("query").unwrap();
        let at = g.block(0, 2).unwrap();
        let w = at
            .edges
            .iter()
            .find(|&&(i, j, _)| i == alice && j == q)
            .map(|&(_, _, w)| w)
            .unwrap();
        assert_eq!(w, 2.0);
        // author-author: alice-bob co-author once.
        let aa = g.block(0, 0).unwrap();
        assert_eq!(aa.edges.len(), 1);
        assert_eq!(aa.edges[0], (0, 1, 1.0));
        // no venue-venue block (one venue per doc).
        assert!(g.block(1, 1).is_none());
    }

    #[test]
    fn collapsed_network_from_covers_only_the_tail_over_the_full_node_space() {
        let mut c = tiny_corpus();
        let base_docs = c.docs.len();
        let author = 0usize;
        let d2 = c.push_text("query planning");
        c.link_entity(d2, author, "carol").unwrap();
        let delta = collapsed_network_from(&c, base_docs);
        // Full node space: every interned word and entity, old and new.
        assert_eq!(delta.node_counts[2], c.num_words());
        assert_eq!(delta.node_counts[0], c.entities.count(0));
        delta.validate().unwrap();
        // Only the tail document's co-occurrences are present.
        let q = c.vocab.get("query").unwrap();
        let p = c.vocab.get("processing").unwrap();
        let plan = c.vocab.get("planning").unwrap();
        let tt = delta.block(2, 2).unwrap();
        assert!(tt
            .edges
            .iter()
            .any(|&(i, j, _)| (i, j) == (q.min(plan), q.max(plan))));
        assert!(!tt
            .edges
            .iter()
            .any(|&(i, j, _)| (i, j) == (q.min(p), q.max(p))));
        // from_doc = 0 is exactly the full collapse.
        let full = collapsed_network(&c);
        let again = collapsed_network_from(&c, 0);
        assert_eq!(full.num_links(), again.num_links());
        assert_eq!(full.total_weight(), again.total_weight());
        // Past-the-end tail is an empty (but well-formed) network.
        let empty = collapsed_network_from(&c, c.docs.len());
        assert_eq!(empty.num_links(), 0);
        assert_eq!(empty.node_counts, full.node_counts);
    }

    #[test]
    fn builder_merges_directions() {
        let mut b = NetworkBuilder::new(vec!["a".into(), "b".into()], vec![3, 3]);
        b.add(1, 2, 0, 1, 1.0); // reversed order
        b.add(0, 1, 1, 2, 2.0);
        let g = b.build();
        let blk = g.block(0, 1).unwrap();
        assert_eq!(blk.edges, vec![(1, 2, 3.0)]);
    }

    #[test]
    fn degrees_count_self_links_once() {
        let mut b = NetworkBuilder::new(vec!["t".into()], vec![2]);
        b.add(0, 0, 0, 0, 2.0);
        b.add(0, 0, 0, 1, 3.0);
        let g = b.build();
        let deg = g.weighted_degrees();
        assert_eq!(deg[0][0], 5.0);
        assert_eq!(deg[0][1], 3.0);
        assert_eq!(g.total_weight(), 5.0);
    }

    #[test]
    fn validate_rejects_bad_ids() {
        let g = TypedNetwork {
            type_names: vec!["t".into()],
            node_counts: vec![1],
            blocks: vec![LinkBlock {
                tx: 0,
                ty: 0,
                edges: vec![(0, 5, 1.0)],
            }],
        };
        assert!(matches!(g.validate(), Err(NetError::NodeOutOfRange { .. })));
    }

    #[test]
    fn stats_renders() {
        let g = co_occurrence_network(&tiny_corpus());
        let s = g.stats();
        assert!(s.contains("term"));
        assert!(s.contains("edges"));
    }
}
