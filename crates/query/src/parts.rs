//! [`IndexParts`]: the canonical extract of a mined model that the query
//! engine indexes — the entity catalog, the topic tree, and one record
//! per document (global id, year, leaf topic, entity links).
//!
//! Every backend builds its index from the same parts, extracted by one
//! function, [`IndexParts::from_view`], over any [`ModelView`]. Backends
//! differ only in which view they are: an owned model's `MinedView` or a
//! mapped v2 artifact. A shard artifact carries every document's record,
//! so one shard yields exactly the parts of the unsharded model. Because
//! every doc-derived quantity downstream is either a set union or an
//! integer count (see `QueryIndex::build`), every query response is
//! byte-identical across backends and shard counts (DESIGN.md §11, §14).
//!
//! [`IndexParts::stamp`] hashes the parts' canonical text rendering; it
//! stamps cursors with the model they were minted on.

use crate::index::{checked_id_range, id32};
use crate::QueryError;
use lesm_core::export::json_string;
use lesm_core::{Fnv1a, ModelView};
use std::fmt;
use std::hash::Hasher;

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
    /// Leaf-topic assignment (`MinedStructure::doc_leaf`).
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
    /// Extracts the parts of `m`: its entity catalog, its topic tree and
    /// every document of the whole model, by global id. Fails with
    /// [`QueryError::IndexOverflow`] when the entity types or one type's
    /// entities do not fit the `u32` ids the records store.
    pub fn from_view<V: ModelView>(m: &V) -> Result<IndexParts, QueryError> {
        let n_types = m.num_entity_types();
        // Prove every id space fits the u32 fields before any narrowing
        // below; id32() relies on these bounds.
        checked_id_range(n_types, "entity type")?;
        let type_names: Vec<String> =
            (0..n_types).map(|t| m.entity_type_name(t).unwrap_or("").to_string()).collect();
        for (t, type_name) in type_names.iter().enumerate() {
            checked_id_range(m.num_entities(t), &format!("entity (type {type_name:?})"))?;
        }
        let entity_names = (0..n_types)
            .map(|t| (0..id32(m.num_entities(t))).map(|id| m.entity_name(t, id).to_string()).collect())
            .collect();
        let topics = (0..m.num_topics())
            .map(|t| TopicMeta {
                parent: m.topic_parent(t),
                children: m.topic_children(t).collect(),
                path: m.topic_path(t).to_string(),
            })
            .collect();
        let docs = (0..m.num_global_docs())
            .map(|g| DocRecord {
                gid: g as u64,
                year: m.global_doc_year(g),
                leaf: m.global_doc_leaf(g),
                entities: m.global_doc_links(g).map(|e| (id32(e.etype), e.id)).collect(),
            })
            .collect();
        Ok(IndexParts { type_names, entity_names, topics, docs })
    }

    /// Writes the canonical line rendering of the parts to `out`.
    fn write_text(&self, out: &mut impl fmt::Write) -> fmt::Result {
        writeln!(out, "lesmq-parts 1")?;
        writeln!(out, "types {}", self.type_names.len())?;
        for (t, name) in self.type_names.iter().enumerate() {
            writeln!(out, "t {} {}", self.entity_names[t].len(), json_string(name))?;
            for ename in &self.entity_names[t] {
                writeln!(out, "e {}", json_string(ename))?;
            }
        }
        writeln!(out, "topics {}", self.topics.len())?;
        for topic in &self.topics {
            match topic.parent {
                Some(p) => write!(out, "topic {p} ")?,
                None => write!(out, "topic - ")?,
            }
            write_list(out, &topic.children, |out, c| write!(out, "{c}"))?;
            writeln!(out, " {}", json_string(&topic.path))?;
        }
        writeln!(out, "docs {}", self.docs.len())?;
        for doc in &self.docs {
            match doc.year {
                Some(y) => write!(out, "d {} {y} {} ", doc.gid, doc.leaf)?,
                None => write!(out, "d {} - {} ", doc.gid, doc.leaf)?,
            }
            write_list(out, &doc.entities, |out, (t, id)| write!(out, "{t}:{id}"))?;
            writeln!(out)?;
        }
        Ok(())
    }

    /// The FNV-1a 64 hash of the parts' canonical line rendering, hashed
    /// as the text is written: the model half of every cursor stamp
    /// (DESIGN.md §14.2).
    pub fn stamp(&self) -> u64 {
        let mut h = Fnv1a::default();
        // Writing into a hasher cannot fail.
        let _ = self.write_text(&mut h);
        h.finish()
    }
}

/// Writes `items` comma-separated, or `-` when there are none.
fn write_list<W: fmt::Write, T>(
    out: &mut W,
    items: &[T],
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    if items.is_empty() {
        return out.write_char('-');
    }
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        item(out, x)?;
    }
    Ok(())
}
