//! [`QueryIndex`]: the derived, deterministic structure queries execute
//! against.
//!
//! Built from [`IndexParts`] only, which one extractor reads through any
//! `ModelView` (an owned model, a mapped v2 snapshot or any one shard of
//! it), so every backend constructs bit-identical state. All
//! doc-derived quantities are set unions or integer counts; the only
//! floating-point inference (TPFG advisor edges) runs over the identical
//! global paper list on every backend, so its outputs are bit-identical
//! too (DESIGN.md §11, §14).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::parts::{IndexParts, TopicMeta};
use crate::program::TopicRef;
use crate::QueryError;
use lesm_corpus::synth::GenPaper;

/// Advisor→advisee edges of the forest [`lesm_relations::advising_forest`]
/// mines, the one `lesm advisors` prints; adjacency per author id,
/// ascending.
#[derive(Debug, Default)]
pub struct AdvisorEdges {
    pub advisees: Vec<Vec<u32>>,
    pub advisors: Vec<Vec<u32>>,
}

/// The immutable query index. Construction is the only expensive step;
/// execution reads pre-sorted adjacency and integer count tables.
#[derive(Debug)]
pub struct QueryIndex {
    pub(crate) type_names: Vec<String>,
    pub(crate) entity_names: Vec<Vec<String>>,
    pub(crate) topics: Vec<TopicMeta>,
    /// Lookup maps (queried by key, never iterated — DESIGN.md §11).
    name_to_id: Vec<HashMap<String, u32>>,
    path_to_topic: HashMap<String, usize>,
    type_by_name: HashMap<String, usize>,
    pub(crate) doc_gids: Vec<u64>,
    /// Per-document columns, compact so a filter scans them in one
    /// branch-free pass: the year (0 when unknown), whether it is known,
    /// and the leaf topic.
    pub(crate) doc_years: Vec<i32>,
    pub(crate) doc_year_known: Vec<bool>,
    pub(crate) doc_leaf: Vec<u32>,
    /// Every document's entity occurrences `(etype, id)` in stored order,
    /// concatenated: document `d`'s are
    /// `doc_links[doc_link_bounds[d]..doc_link_bounds[d + 1]]`.
    doc_links: Vec<(u32, u32)>,
    doc_link_bounds: Vec<usize>,
    /// etype → entity id → ascending local doc indices (deduplicated).
    pub(crate) entity_docs: Vec<Vec<Vec<u32>>>,
    /// etype → entity id → ascending co-occurring same-type entity ids.
    pub(crate) cooccur: Vec<Vec<Vec<u32>>>,
    /// etype → topic → entity occurrence counts (nonzero only at each
    /// doc's leaf topic; subtree aggregates are exact integer sums).
    pub(crate) leaf_counts: Vec<Vec<Vec<u64>>>,
    pub(crate) author_type: Option<usize>,
    /// FNV-1a 64 over the canonical parts serialization. Folded into
    /// every cursor's stamp so a cursor minted against one model version
    /// is a typed [`QueryError::BadCursor`] against any other — a page
    /// stream can never silently interleave two hot-swapped models. It is
    /// content-derived, not an epoch, so cursors survive restarts and
    /// rebuilds of the *same* model (DESIGN.md §14).
    pub(crate) model_stamp: u64,
    advisor: OnceLock<AdvisorEdges>,
}

/// Checks that a count fits the engine's `u32` node-id space. The
/// traversal engine seeds frontiers with `0..n as u32` ranges; an
/// unchecked cast past `u32::MAX` would silently wrap and drop every
/// node above the wrap point, so the bound is enforced once, here, at
/// build time.
pub(crate) fn checked_id_range(n: usize, what: &str) -> Result<(), QueryError> {
    if u32::try_from(n).is_err() {
        return Err(QueryError::IndexOverflow(format!(
            "{what} count {n} exceeds the u32 node-id range"
        )));
    }
    Ok(())
}

/// Converts an index position from a [`checked_id_range`]-validated id
/// space (documents, topics, entity types, one type's entities) to a
/// `u32` node id. This is the crate's sole narrowing point: every
/// caller indexes a space whose size was proven `<= u32::MAX` at build
/// time, so the cast cannot truncate.
pub(crate) fn id32(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "id {i} escaped checked_id_range validation");
    // lesm-lint: allow(W1) — sole narrowing point; inputs come from id spaces proven <= u32::MAX by checked_id_range at build
    i as u32
}

/// Whether a year column entry is a known year in `lo..=hi`. Evaluates
/// every comparison, so a scan over all documents has no data-dependent
/// branch.
pub(crate) fn year_in(year: i32, known: bool, lo: i64, hi: i64) -> bool {
    known & (lo <= i64::from(year)) & (i64::from(year) <= hi)
}

impl QueryIndex {
    /// Builds the index from canonical parts. Fails with
    /// [`QueryError::IndexOverflow`] if any id range (documents, topics,
    /// or one type's entities) does not fit the engine's `u32` node ids.
    pub fn build(parts: IndexParts) -> Result<QueryIndex, QueryError> {
        let model_stamp = parts.stamp();
        let IndexParts { type_names, entity_names, topics, docs } = parts;
        let n_types = type_names.len();
        let n_topics = topics.len();
        checked_id_range(docs.len(), "document")?;
        checked_id_range(n_topics, "topic")?;
        checked_id_range(n_types, "entity type")?;
        for (t, names) in entity_names.iter().enumerate() {
            let type_name = type_names.get(t).map(String::as_str).unwrap_or("?");
            checked_id_range(names.len(), &format!("entity (type {type_name:?})"))?;
        }

        let mut name_to_id: Vec<HashMap<String, u32>> = Vec::with_capacity(n_types);
        for names in &entity_names {
            let mut map = HashMap::with_capacity(names.len());
            for (id, name) in names.iter().enumerate() {
                map.entry(name.clone()).or_insert(id32(id));
            }
            name_to_id.push(map);
        }
        let mut type_by_name = HashMap::with_capacity(n_types);
        for (t, name) in type_names.iter().enumerate() {
            type_by_name.entry(name.clone()).or_insert(t);
        }
        let mut path_to_topic = HashMap::with_capacity(n_topics);
        for (t, topic) in topics.iter().enumerate() {
            path_to_topic.entry(topic.path.clone()).or_insert(t);
        }

        let mut doc_gids = Vec::with_capacity(docs.len());
        let mut doc_years = Vec::with_capacity(docs.len());
        let mut doc_year_known = Vec::with_capacity(docs.len());
        let mut doc_leaf = Vec::with_capacity(docs.len());
        let mut doc_links = Vec::with_capacity(docs.iter().map(|doc| doc.entities.len()).sum());
        let mut doc_link_bounds = Vec::with_capacity(docs.len() + 1);
        doc_link_bounds.push(0);
        let mut entity_docs: Vec<Vec<Vec<u32>>> = entity_names
            .iter()
            .map(|names| vec![Vec::new(); names.len()])
            .collect();
        let mut leaf_counts: Vec<Vec<Vec<u64>>> = entity_names
            .iter()
            .map(|names| vec![vec![0u64; names.len()]; n_topics])
            .collect();
        let mut cooccur: Vec<Vec<Vec<u32>>> = entity_names
            .iter()
            .map(|names| vec![Vec::new(); names.len()])
            .collect();
        let mut members: Vec<u32> = Vec::new();
        for (d, doc) in docs.into_iter().enumerate() {
            doc_gids.push(doc.gid);
            doc_years.push(doc.year.unwrap_or(0));
            doc_year_known.push(doc.year.is_some());
            // The topic count fits a u32 (checked above), so a leaf past
            // u32::MAX saturates to an id that is still out of range.
            doc_leaf.push(u32::try_from(doc.leaf).unwrap_or(u32::MAX));
            for &(t, id) in &doc.entities {
                let (t, id) = (t as usize, id as usize);
                leaf_counts[t][doc.leaf][id] += 1;
                let list = &mut entity_docs[t][id];
                if list.last() != Some(&id32(d)) {
                    list.push(id32(d));
                }
            }
            for (t, adjacency) in cooccur.iter_mut().enumerate() {
                members.clear();
                members.extend(doc.entities.iter().filter(|&&(et, _)| et as usize == t).map(|&(_, id)| id));
                members.sort_unstable();
                members.dedup();
                for &a in &members {
                    for &b in &members {
                        if a != b {
                            adjacency[a as usize].push(b);
                        }
                    }
                }
            }
            doc_links.extend_from_slice(&doc.entities);
            doc_link_bounds.push(doc_links.len());
        }
        // The adjacency lists grew by doubling, and the co-author lists
        // hold every pair once per shared document until deduplicated; the
        // index keeps them for the model's lifetime, so they are trimmed.
        for lists in &mut cooccur {
            for list in lists {
                list.sort_unstable();
                list.dedup();
                list.shrink_to_fit();
            }
        }
        entity_docs.iter_mut().flatten().for_each(Vec::shrink_to_fit);
        let author_type = type_by_name.get("author").copied();

        Ok(QueryIndex {
            type_names,
            entity_names,
            topics,
            name_to_id,
            path_to_topic,
            type_by_name,
            doc_gids,
            doc_years,
            doc_year_known,
            doc_leaf,
            doc_links,
            doc_link_bounds,
            entity_docs,
            cooccur,
            leaf_counts,
            author_type,
            model_stamp,
            advisor: OnceLock::new(),
        })
    }

    pub fn num_types(&self) -> usize {
        self.type_names.len()
    }

    pub fn num_topics(&self) -> usize {
        self.topics.len()
    }

    pub fn num_docs(&self) -> usize {
        self.doc_gids.len()
    }

    pub fn num_entities(&self, etype: usize) -> usize {
        self.entity_names[etype].len()
    }

    /// Document `d`'s entity occurrences `(etype, id)`, in stored order.
    pub(crate) fn doc_entities(&self, d: usize) -> &[(u32, u32)] {
        &self.doc_links[self.doc_link_bounds[d]..self.doc_link_bounds[d + 1]]
    }

    /// Document `d`'s year, if known.
    pub(crate) fn doc_year(&self, d: usize) -> Option<i32> {
        self.doc_year_known[d].then_some(self.doc_years[d])
    }

    /// Whether document `d` has a known year in `lo..=hi`.
    pub(crate) fn doc_year_in(&self, d: usize, lo: i64, hi: i64) -> bool {
        year_in(self.doc_years[d], self.doc_year_known[d], lo, hi)
    }

    /// Resolves an entity type by catalog name.
    pub fn resolve_type(&self, name: &str) -> Result<usize, QueryError> {
        self.type_by_name
            .get(name)
            .copied()
            .ok_or_else(|| QueryError::UnknownType(name.to_string()))
    }

    /// Resolves a topic by index or hierarchy path.
    pub fn resolve_topic(&self, r: &TopicRef) -> Result<usize, QueryError> {
        match r {
            TopicRef::Id(id) if *id < self.topics.len() => Ok(*id),
            TopicRef::Id(id) => Err(QueryError::UnknownTopic(id.to_string())),
            TopicRef::Path(p) => {
                self.topic_by_path(p).ok_or_else(|| QueryError::UnknownTopic(p.clone()))
            }
        }
    }

    /// Looks up a topic by hierarchy path.
    pub(crate) fn topic_by_path(&self, path: &str) -> Option<usize> {
        self.path_to_topic.get(path).copied()
    }

    /// Looks up an entity id by name.
    pub fn entity_by_name(&self, etype: usize, name: &str) -> Option<u32> {
        self.name_to_id[etype].get(name).copied()
    }

    /// The subtree rooted at `t` (inclusive), ascending. Robust against
    /// hostile parts with cyclic child links: each topic visits once.
    pub fn subtree(&self, t: usize) -> Vec<usize> {
        let mut seen = vec![false; self.topics.len()];
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            out.push(n);
            stack.extend(self.topics[n].children.iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Subtree membership of every topic: `mask[z]` is whether `z` lies
    /// in the subtree rooted at `t`.
    pub(crate) fn subtree_mask(&self, t: usize) -> Vec<bool> {
        let mut mask = vec![false; self.topics.len()];
        for z in self.subtree(t) {
            mask[z] = true;
        }
        mask
    }

    /// Integer entity counts aggregated over the subtree of `t`.
    pub fn subtree_counts(&self, etype: usize, t: usize) -> Vec<u64> {
        let mut out = vec![0u64; self.num_entities(etype)];
        for z in self.subtree(t) {
            for (e, &c) in self.leaf_counts[etype][z].iter().enumerate() {
                out[e] += c;
            }
        }
        out
    }

    /// Advisor→advisee edges, inferred lazily on first use. Corpora
    /// without an `author` type, years, or surviving candidates yield
    /// empty edge sets rather than errors: "no advisors found" is a valid
    /// query answer.
    pub fn advisor_edges(&self) -> &AdvisorEdges {
        self.advisor.get_or_init(|| self.build_advisor_edges())
    }

    fn build_advisor_edges(&self) -> AdvisorEdges {
        let Some(author) = self.author_type else {
            return AdvisorEdges::default();
        };
        let n_authors = self.num_entities(author);
        let mut edges = AdvisorEdges {
            advisees: vec![Vec::new(); n_authors],
            advisors: vec![Vec::new(); n_authors],
        };
        // The paper list `lesm advisors` builds (`corpus_to_papers`):
        // docs in ascending global order, keeping only those with a year
        // and at least one author.
        let papers: Vec<GenPaper> = (0..self.num_docs())
            .filter_map(|d| {
                let year = self.doc_year(d)?;
                let authors: Vec<u32> = self
                    .doc_entities(d)
                    .iter()
                    .filter(|&&(t, _)| t as usize == author)
                    .map(|&(_, id)| id)
                    .collect();
                if authors.is_empty() {
                    None
                } else {
                    Some(GenPaper { year, authors })
                }
            })
            .collect();
        let Ok(forest) = lesm_relations::advising_forest(&papers, n_authors) else {
            return edges;
        };
        for node in &forest.nodes {
            for &child in &node.children {
                edges.advisees[node.author as usize].push(id32(child));
                edges.advisors[child].push(node.author);
            }
        }
        for list in edges.advisees.iter_mut().chain(edges.advisors.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        edges
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parts::DocRecord;

    pub(crate) fn tiny_parts() -> IndexParts {
        IndexParts {
            type_names: vec!["author".into(), "venue".into()],
            entity_names: vec![
                vec!["alice".into(), "bob".into(), "carol".into()],
                vec!["vldb".into()],
            ],
            topics: vec![
                TopicMeta { parent: None, children: vec![1, 2], path: "o".into() },
                TopicMeta { parent: Some(0), children: vec![], path: "o/1".into() },
                TopicMeta { parent: Some(0), children: vec![], path: "o/2".into() },
            ],
            docs: vec![
                DocRecord {
                    gid: 0,
                    year: Some(2000),
                    leaf: 1,
                    entities: vec![(0, 0), (0, 1), (1, 0)],
                },
                DocRecord { gid: 1, year: Some(2004), leaf: 2, entities: vec![(0, 1), (0, 2)] },
                DocRecord { gid: 2, year: Some(2006), leaf: 1, entities: vec![(0, 0), (0, 0)] },
            ],
        }
    }

    #[test]
    fn adjacency_and_counts_are_exact() {
        let idx = QueryIndex::build(tiny_parts()).unwrap();
        assert_eq!(idx.cooccur[0][1], vec![0, 2]);
        assert_eq!(idx.entity_docs[0][0], vec![0, 2]);
        // alice occurs once in doc 0 (leaf 1) and twice in doc 2 (leaf 1).
        assert_eq!(idx.leaf_counts[0][1][0], 3);
        assert_eq!(idx.subtree_counts(0, 0), vec![3, 2, 1]);
        assert_eq!(idx.subtree(0), vec![0, 1, 2]);
        assert_eq!(idx.subtree(1), vec![1]);
    }

    #[test]
    fn resolution_is_typed() {
        let idx = QueryIndex::build(tiny_parts()).unwrap();
        assert_eq!(idx.resolve_type("venue").unwrap(), 1);
        assert!(matches!(idx.resolve_type("nope"), Err(QueryError::UnknownType(_))));
        assert_eq!(idx.resolve_topic(&TopicRef::Path("o/2".into())).unwrap(), 2);
        assert!(idx.resolve_topic(&TopicRef::Id(9)).is_err());
        assert_eq!(idx.entity_by_name(0, "carol"), Some(2));
    }

    #[test]
    fn oversized_id_ranges_are_a_typed_build_error() {
        // The guard itself: anything past u32::MAX must refuse.
        assert!(super::checked_id_range(u32::MAX as usize, "document").is_ok());
        let r = super::checked_id_range(u32::MAX as usize + 1, "document");
        match r {
            Err(QueryError::IndexOverflow(m)) => {
                assert!(m.contains("document"), "{m}");
            }
            other => panic!("expected IndexOverflow, got {other:?}"),
        }
        // Overflow is a server-state error (HTTP 500), not a request error.
        assert!(!QueryError::IndexOverflow(String::new()).is_request_error());
        // In-range parts still build.
        assert!(QueryIndex::build(tiny_parts()).is_ok());
    }

    #[test]
    fn cyclic_topic_links_terminate() {
        let mut parts = tiny_parts();
        parts.topics[1].children = vec![0]; // hostile cycle
        let idx = QueryIndex::build(parts).unwrap();
        assert_eq!(idx.subtree(0), vec![0, 1, 2]);
    }

    #[test]
    fn advisor_edges_default_empty_without_signal() {
        let mut parts = tiny_parts();
        for d in &mut parts.docs {
            d.year = None;
        }
        let idx = QueryIndex::build(parts).unwrap();
        assert!(idx.advisor_edges().advisees.iter().all(Vec::is_empty));
    }
}
