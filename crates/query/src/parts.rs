//! [`IndexParts`]: the canonical extract of a mined model that the query
//! engine indexes — the entity catalog, the topic tree, and one record
//! per document (global id, year, leaf topic, entity links).
//!
//! Every backend builds its index from the same parts. An owned model
//! extracts them with [`IndexParts::from_model`]; a mapped artifact reads
//! them from its hot sections (`MappedSnapshot::query_parts` in
//! `lesm-serve`), and a shard artifact carries every document's record,
//! so one shard yields exactly the parts of the unsharded model. Because
//! every doc-derived quantity downstream is either a set union or an
//! integer count (see `QueryIndex::build`), every query response is
//! byte-identical across backends and shard counts (DESIGN.md §11, §14).
//!
//! [`IndexParts::to_text`] is the canonical rendering whose hash stamps
//! cursors with the model they were minted on.

use crate::QueryError;
use lesm_core::export::json_string;
use lesm_core::MinedStructure;
use lesm_corpus::Corpus;

/// Replicated metadata for one topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicMeta {
    pub parent: Option<usize>,
    pub children: Vec<usize>,
    pub path: String,
}

/// One document's query-relevant facts, keyed by global doc id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocRecord {
    pub gid: u64,
    pub year: Option<i32>,
    /// Leaf-topic assignment ([`MinedStructure::doc_leaf`]).
    pub leaf: usize,
    /// Entity occurrences `(etype, id)` in stored order (duplicates count).
    pub entities: Vec<(u32, u32)>,
}

/// The canonical model extract the query engine is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexParts {
    pub type_names: Vec<String>,
    /// Entity names per type, in id order.
    pub entity_names: Vec<Vec<String>>,
    pub topics: Vec<TopicMeta>,
    /// Ascending by `gid`.
    pub docs: Vec<DocRecord>,
}

impl IndexParts {
    /// Extracts parts from an owned model; document `d` is global id `d`.
    pub fn from_model(corpus: &Corpus, mined: &MinedStructure) -> Result<IndexParts, QueryError> {
        let n_types = corpus.entities.num_types();
        // Prove every id space fits the u32 wire fields before any
        // narrowing below; id32() relies on these bounds.
        crate::index::checked_id_range(n_types, "entity type")?;
        for t in 0..n_types {
            let type_name = corpus.entities.type_name(t).unwrap_or("?");
            crate::index::checked_id_range(
                corpus.entities.count(t),
                &format!("entity (type {type_name:?})"),
            )?;
        }
        let type_names: Vec<String> = (0..n_types)
            .map(|t| corpus.entities.type_name(t).unwrap_or("").to_string())
            .collect();
        let entity_names: Vec<Vec<String>> = (0..n_types)
            .map(|t| {
                let count = corpus.entities.count(t);
                let table = corpus.entities.table(t);
                (0..crate::index::id32(count))
                    .map(|id| {
                        table
                            .and_then(|v| v.name(id))
                            .unwrap_or("")
                            .to_string()
                    })
                    .collect()
            })
            .collect();
        let topics: Vec<TopicMeta> = mined
            .hierarchy
            .topics
            .iter()
            .map(|t| TopicMeta {
                parent: t.parent,
                children: t.children.clone(),
                path: t.path.clone(),
            })
            .collect();
        let docs: Vec<DocRecord> = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| DocRecord {
                gid: d as u64,
                year: doc.year,
                leaf: mined.doc_leaf(d),
                entities: doc.entities.iter().map(|e| (crate::index::id32(e.etype), e.id)).collect(),
            })
            .collect();
        Ok(IndexParts { type_names, entity_names, topics, docs })
    }

    /// The canonical line rendering of the parts. Its FNV-1a hash is the
    /// model half of every cursor stamp (DESIGN.md §14.2).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("lesmq-parts 1\n");
        out.push_str(&format!("types {}\n", self.type_names.len()));
        for (t, name) in self.type_names.iter().enumerate() {
            out.push_str(&format!("t {} {}\n", self.entity_names[t].len(), json_string(name)));
            for ename in &self.entity_names[t] {
                out.push_str(&format!("e {}\n", json_string(ename)));
            }
        }
        out.push_str(&format!("topics {}\n", self.topics.len()));
        for topic in &self.topics {
            let parent = topic.parent.map_or("-".to_string(), |p| p.to_string());
            let children = if topic.children.is_empty() {
                "-".to_string()
            } else {
                topic
                    .children
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!("topic {} {} {}\n", parent, children, json_string(&topic.path)));
        }
        out.push_str(&format!("docs {}\n", self.docs.len()));
        for doc in &self.docs {
            let year = doc.year.map_or("-".to_string(), |y| y.to_string());
            let ents = if doc.entities.is_empty() {
                "-".to_string()
            } else {
                doc.entities
                    .iter()
                    .map(|(t, id)| format!("{t}:{id}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!("d {} {} {} {}\n", doc.gid, year, doc.leaf, ents));
        }
        out
    }
}
