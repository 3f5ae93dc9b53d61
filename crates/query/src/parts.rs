//! [`IndexParts`]: the canonical, serializable extract of a mined model
//! that the query engine indexes.
//!
//! Why this indirection exists: shards partition *documents* but replicate
//! the mined structure, so a front tier cannot answer traversal queries
//! from any single shard. Instead every shard exports its `IndexParts`
//! contribution (`/internal/qparts`) — replicated metadata plus its own
//! document records keyed by **global** doc id — and the front
//! reconstructs the exact parts a single unsharded server would build:
//! metadata taken from the first shard (replicated, byte-identical
//! everywhere) and document records merged in ascending global-id order.
//! Because every doc-derived quantity downstream is either a set union or
//! an integer count (see `QueryIndex::build`), the rebuilt index — and
//! therefore every query response — is byte-identical regardless of shard
//! count (DESIGN.md §11, §14).
//!
//! The text format is line-based and versioned; parsing is defensive
//! (typed errors, hard caps) since it crosses a network boundary.

use crate::QueryError;
use lesm_core::export::json_string;
use lesm_core::MinedStructure;
use lesm_corpus::Corpus;

/// Hard cap on parsed text size (64 MiB) — a parts payload for a corpus
/// far larger than anything the serving tier handles.
pub const MAX_PARTS_BYTES: usize = 64 * 1024 * 1024;

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
    /// Extracts parts from an owned model. `ids` maps local doc index to
    /// global doc id (shards); `None` means local ids are global.
    pub fn from_model(
        corpus: &Corpus,
        mined: &MinedStructure,
        ids: Option<&[u64]>,
    ) -> Result<IndexParts, QueryError> {
        if let Some(ids) = ids {
            if ids.len() != corpus.docs.len() {
                return Err(QueryError::Internal(format!(
                    "doc id table has {} entries for {} docs",
                    ids.len(),
                    corpus.docs.len()
                )));
            }
        }
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
        let mut docs: Vec<DocRecord> = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| DocRecord {
                gid: ids.map_or(d as u64, |ids| ids[d]),
                year: doc.year,
                leaf: mined.doc_leaf(d),
                entities: doc.entities.iter().map(|e| (crate::index::id32(e.etype), e.id)).collect(),
            })
            .collect();
        docs.sort_by_key(|d| d.gid);
        Ok(IndexParts { type_names, entity_names, topics, docs })
    }

    /// Merges shard contributions: replicated metadata from the first
    /// part, document records concatenated and re-sorted by global id.
    pub fn merge(mut parts: Vec<IndexParts>) -> Result<IndexParts, QueryError> {
        let mut first = match parts.is_empty() {
            true => return Err(QueryError::Internal("no shard parts to merge".into())),
            false => parts.remove(0),
        };
        for p in parts {
            first.docs.extend(p.docs);
        }
        first.docs.sort_by_key(|d| d.gid);
        Ok(first)
    }

    /// Serializes to the versioned line format served by `/internal/qparts`.
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

    /// Parses the line format; the inverse of [`IndexParts::to_text`].
    pub fn parse_text(text: &str) -> Result<IndexParts, QueryError> {
        if text.len() > MAX_PARTS_BYTES {
            return Err(QueryError::Internal("parts payload too large".into()));
        }
        let mut lines = text.lines();
        let perr = |what: &str| QueryError::Internal(format!("parts: {what}"));
        if lines.next() != Some("lesmq-parts 1") {
            return Err(perr("bad header"));
        }
        let n_types = field_count(lines.next(), "types").ok_or_else(|| perr("bad types line"))?;
        let mut type_names = Vec::with_capacity(n_types);
        let mut entity_names = Vec::with_capacity(n_types);
        for _ in 0..n_types {
            let line = lines.next().ok_or_else(|| perr("truncated type table"))?;
            let rest = line.strip_prefix("t ").ok_or_else(|| perr("bad type line"))?;
            let (count_str, name_json) =
                rest.split_once(' ').ok_or_else(|| perr("bad type line"))?;
            let count: usize = count_str.parse().map_err(|_| perr("bad type count"))?;
            type_names.push(parse_json_string(name_json).ok_or_else(|| perr("bad type name"))?);
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                let line = lines.next().ok_or_else(|| perr("truncated entity table"))?;
                let rest = line.strip_prefix("e ").ok_or_else(|| perr("bad entity line"))?;
                names.push(parse_json_string(rest).ok_or_else(|| perr("bad entity name"))?);
            }
            entity_names.push(names);
        }
        let n_topics = field_count(lines.next(), "topics").ok_or_else(|| perr("bad topics line"))?;
        let mut topics = Vec::with_capacity(n_topics);
        for _ in 0..n_topics {
            let line = lines.next().ok_or_else(|| perr("truncated topic table"))?;
            let rest = line.strip_prefix("topic ").ok_or_else(|| perr("bad topic line"))?;
            let mut fields = rest.splitn(3, ' ');
            let parent = match fields.next().ok_or_else(|| perr("bad topic line"))? {
                "-" => None,
                p => Some(p.parse::<usize>().map_err(|_| perr("bad topic parent"))?),
            };
            let children = match fields.next().ok_or_else(|| perr("bad topic line"))? {
                "-" => Vec::new(),
                list => list
                    .split(',')
                    .map(|c| c.parse::<usize>().map_err(|_| perr("bad topic child")))
                    .collect::<Result<_, _>>()?,
            };
            let path = parse_json_string(fields.next().ok_or_else(|| perr("bad topic line"))?)
                .ok_or_else(|| perr("bad topic path"))?;
            if let Some(p) = parent {
                if p >= n_topics {
                    return Err(perr("topic parent out of range"));
                }
            }
            if children.iter().any(|&c| c >= n_topics) {
                return Err(perr("topic child out of range"));
            }
            topics.push(TopicMeta { parent, children, path });
        }
        let n_docs = field_count(lines.next(), "docs").ok_or_else(|| perr("bad docs line"))?;
        let mut docs = Vec::with_capacity(n_docs.min(1 << 20));
        for _ in 0..n_docs {
            let line = lines.next().ok_or_else(|| perr("truncated doc table"))?;
            let rest = line.strip_prefix("d ").ok_or_else(|| perr("bad doc line"))?;
            let mut fields = rest.splitn(4, ' ');
            let gid: u64 = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| perr("bad doc gid"))?;
            let year = match fields.next().ok_or_else(|| perr("bad doc line"))? {
                "-" => None,
                y => Some(y.parse::<i32>().map_err(|_| perr("bad doc year"))?),
            };
            let leaf: usize = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| perr("bad doc leaf"))?;
            if leaf >= n_topics {
                return Err(perr("doc leaf out of range"));
            }
            let entities = match fields.next().ok_or_else(|| perr("bad doc line"))? {
                "-" => Vec::new(),
                list => list
                    .split(',')
                    .map(|pair| {
                        let (t, id) = pair.split_once(':')?;
                        let t: u32 = t.parse().ok()?;
                        let id: u32 = id.parse().ok()?;
                        if (t as usize) < n_types
                            && (id as usize) < entity_names[t as usize].len()
                        {
                            Some((t, id))
                        } else {
                            None
                        }
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| perr("bad doc entity"))?,
            };
            docs.push(DocRecord { gid, year, leaf, entities });
        }
        if lines.next().is_some() {
            return Err(perr("trailing lines"));
        }
        Ok(IndexParts { type_names, entity_names, topics, docs })
    }
}

fn field_count(line: Option<&str>, tag: &str) -> Option<usize> {
    line?.strip_prefix(tag)?.strip_prefix(' ')?.parse().ok()
}

/// Decodes one JSON string literal (as produced by `json_string`).
fn parse_json_string(s: &str) -> Option<String> {
    match crate::json::parse_json(s).ok()? {
        crate::json::Json::Str(v) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IndexParts {
        IndexParts {
            type_names: vec!["author".into(), "venue".into()],
            entity_names: vec![
                vec!["alice \"a\"".into(), "bob".into()],
                vec!["sigmod\nnorth".into()],
            ],
            topics: vec![
                TopicMeta { parent: None, children: vec![1, 2], path: "o".into() },
                TopicMeta { parent: Some(0), children: vec![], path: "o/1".into() },
                TopicMeta { parent: Some(0), children: vec![], path: "o/2".into() },
            ],
            docs: vec![
                DocRecord { gid: 0, year: Some(2001), leaf: 1, entities: vec![(0, 0), (1, 0)] },
                DocRecord { gid: 3, year: None, leaf: 2, entities: vec![] },
            ],
        }
    }

    #[test]
    fn text_round_trips() {
        let parts = sample();
        let text = parts.to_text();
        let back = IndexParts::parse_text(&text).unwrap();
        assert_eq!(parts, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn merge_interleaves_by_global_id() {
        let mut a = sample();
        let mut b = sample();
        a.docs = vec![DocRecord { gid: 2, year: None, leaf: 1, entities: vec![] }];
        b.docs = vec![
            DocRecord { gid: 0, year: None, leaf: 1, entities: vec![] },
            DocRecord { gid: 5, year: None, leaf: 2, entities: vec![] },
        ];
        let merged = IndexParts::merge(vec![a, b]).unwrap();
        let gids: Vec<u64> = merged.docs.iter().map(|d| d.gid).collect();
        assert_eq!(gids, vec![0, 2, 5]);
    }

    #[test]
    fn hostile_parts_rejected() {
        for bad in [
            "",
            "lesmq-parts 2\ntypes 0\ntopics 0\ndocs 0\n",
            "lesmq-parts 1\ntypes 1\n",
            "lesmq-parts 1\ntypes 0\ntopics 1\ntopic 9 - \"o\"\ndocs 0\n",
            "lesmq-parts 1\ntypes 0\ntopics 1\ntopic - - \"o\"\ndocs 1\nd 0 - 7 -\n",
            "lesmq-parts 1\ntypes 0\ntopics 0\ndocs 0\nextra\n",
        ] {
            assert!(IndexParts::parse_text(bad).is_err(), "{bad:?} should fail");
        }
    }
}
