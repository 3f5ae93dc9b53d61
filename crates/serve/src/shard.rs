//! Splitting a mined model into document shards.
//!
//! Sharding partitions the **documents**; the mined structure (hierarchy,
//! phrases, entity rankings, phrase-topic frequencies) is small relative
//! to the corpus and is replicated to every shard. That replication is
//! what makes the front tier's merge exact: every shard ranks topics and
//! scores documents with the identical structure, so per-shard scores are
//! the scores an unsharded server would compute, and the merge only has
//! to re-impose the global (score, doc) order (DESIGN.md §13).
//!
//! Each shard is written as a format-v2 artifact whose `doc-ids` section
//! maps shard-local document rows back to global document ids, plus a
//! `manifest.json` naming the shard files in order. The `doc-facts`
//! section (each document's entity links, year and leaf topic) is
//! replicated too, so every shard answers `POST /query` on its own.

use crate::v2::save_snapshot_v2_with_lineage;
use crate::{ServeError, SnapshotError};
use lesm_core::pipeline::MinedStructure;
use lesm_corpus::Corpus;
use lesm_query::{parse_json, Json};
use std::path::Path;

/// Document-to-shard assignment strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBy {
    /// Contiguous ranges over the primary (first-listed) entity id: shard
    /// `i` holds documents whose anchor entity falls in the `i`-th range.
    /// Keeps an entity's documents colocated, the layout the paper's
    /// entity-centric queries want.
    EntityRange,
    /// By the level-1 ancestor of each document's strongest leaf topic,
    /// taken modulo the shard count. Keeps topical neighborhoods
    /// colocated.
    TopicSubtree,
}

impl ShardBy {
    /// Parses the CLI spelling (`entity-range` / `topic-subtree`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "entity-range" => Some(ShardBy::EntityRange),
            "topic-subtree" => Some(ShardBy::TopicSubtree),
            _ => None,
        }
    }

    /// The CLI / manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            ShardBy::EntityRange => "entity-range",
            ShardBy::TopicSubtree => "topic-subtree",
        }
    }
}

/// Deterministically assigns every document to a shard in `0..n`.
pub fn assign_docs(corpus: &Corpus, mined: &MinedStructure, by: ShardBy, n: usize) -> Vec<usize> {
    let n = n.max(1);
    match by {
        ShardBy::EntityRange => {
            // Anchor each document to its first entity reference; the id
            // space of that entity's type is cut into n equal ranges.
            (0..corpus.num_docs())
                .map(|d| match corpus.docs[d].entities.first() {
                    Some(e) => {
                        let count = corpus.entities.count(e.etype).max(1);
                        (e.id as usize * n / count).min(n - 1)
                    }
                    None => 0,
                })
                .collect()
        }
        ShardBy::TopicSubtree => (0..corpus.num_docs())
            .map(|d| {
                let mut t = mined.doc_leaf(d);
                while mined.hierarchy.topics[t].level > 1 {
                    match mined.hierarchy.topics[t].parent {
                        Some(p) => t = p,
                        None => break,
                    }
                }
                t % n
            })
            .collect(),
    }
}

/// A written shard set: the manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Assignment strategy name (`entity-range` / `topic-subtree`).
    pub by: String,
    /// Shard artifact file names, relative to the manifest directory.
    pub files: Vec<String>,
    /// Documents per shard (same order as `files`).
    pub docs: Vec<usize>,
}

impl ShardManifest {
    /// Serializes the manifest as JSON.
    pub fn to_json(&self) -> String {
        use lesm_core::export::json_string;
        let mut out = String::from("{\n");
        out.push_str("  \"format\": 1,\n");
        out.push_str(&format!("  \"by\": {},\n", json_string(&self.by)));
        out.push_str("  \"shards\": [\n");
        for (i, (file, docs)) in self.files.iter().zip(&self.docs).enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"docs\": {}}}{}\n",
                json_string(file),
                docs,
                if i + 1 < self.files.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Writes the shard artifacts (`shard-0000.lesm`, ...) and
/// `manifest.json` into `out_dir`, creating it if needed. Shards may be
/// empty.
pub fn write_shards(
    corpus: &Corpus,
    mined: &MinedStructure,
    by: ShardBy,
    n: usize,
    out_dir: &Path,
) -> Result<ShardManifest, SnapshotError> {
    std::fs::create_dir_all(out_dir).map_err(SnapshotError::Io)?;
    let n = n.max(1);
    let assignment = assign_docs(corpus, mined, by, n);
    let mut manifest =
        ShardManifest { by: by.name().to_string(), files: Vec::new(), docs: Vec::new() };
    for i in 0..n {
        let file = format!("shard-{i:04}.lesm");
        // Ascending global ids: document order within a shard preserves it.
        let ids: Vec<u64> = (0..corpus.num_docs())
            .filter(|&d| assignment[d] == i)
            .map(|d| d as u64)
            .collect();
        let bytes = save_snapshot_v2_with_lineage(corpus, mined, Some(&ids), None)?;
        std::fs::write(out_dir.join(&file), bytes).map_err(SnapshotError::Io)?;
        manifest.docs.push(ids.len());
        manifest.files.push(file);
    }
    std::fs::write(out_dir.join("manifest.json"), manifest.to_json())
        .map_err(SnapshotError::Io)?;
    Ok(manifest)
}

/// Parses a `manifest.json` written by [`write_shards`].
pub fn parse_manifest(text: &str) -> Result<ShardManifest, ServeError> {
    let invalid = |what: &str| ServeError::InvalidConfig(format!("manifest {what}"));
    let json = parse_json(text).map_err(|e| invalid(&format!("is not JSON: {e}")))?;
    let by = json.get("by").and_then(Json::as_str).ok_or_else(|| invalid("missing \"by\""))?;
    let shards = json.get("shards").and_then(Json::as_arr).unwrap_or_default();
    if shards.is_empty() {
        return Err(invalid("lists no shards"));
    }
    let mut manifest = ShardManifest { by: by.to_string(), files: Vec::new(), docs: Vec::new() };
    for shard in shards {
        let file = shard.get("file").and_then(Json::as_str);
        manifest.files.push(file.ok_or_else(|| invalid("has a malformed shard"))?.to_string());
        let docs = shard.get("docs").ok_or_else(|| invalid("shard missing \"docs\""))?;
        let docs = docs.as_i64().and_then(|n| usize::try_from(n).ok());
        let docs = docs.ok_or_else(|| invalid("shard \"docs\" is not a non-negative integer"))?;
        manifest.docs.push(docs);
    }
    Ok(manifest)
}

/// Reads and parses a manifest file.
pub fn load_manifest(path: &Path) -> Result<ShardManifest, ServeError> {
    parse_manifest(&std::fs::read_to_string(path).map_err(ServeError::Io)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = ShardManifest {
            by: "entity-range".into(),
            files: vec!["shard-0000.lesm".into(), "shard-0001.lesm".into()],
            docs: vec![40, 20],
        };
        let json = manifest.to_json();
        assert!(lesm_core::export::is_balanced_json(&json), "{json}");
        assert_eq!(parse_manifest(&json).expect("parse"), manifest);
    }

    #[test]
    fn malformed_manifests_are_typed_errors() {
        assert!(parse_manifest("{}").is_err());
        assert!(parse_manifest("{\"by\": \"entity-range\", \"shards\": []}").is_err());
        assert!(parse_manifest("not json").is_err());
        for docs in ["-1", "1.5", "\"40\"", "null"] {
            let text = format!(
                "{{\"by\": \"entity-range\", \"shards\": [{{\"file\": \"a.lesm\", \"docs\": {docs}}}]}}"
            );
            assert!(parse_manifest(&text).is_err(), "docs {docs} accepted");
        }
    }

    #[test]
    fn manifest_keys_may_come_in_any_order() {
        let text = r#"{"shards": [{"docs": 40, "file": "shard-0000.lesm"},
                                  {"docs": 20, "file": "shard-0001.lesm"}],
                       "by": "topic-subtree", "format": 1}"#;
        let manifest = parse_manifest(text).expect("parse");
        assert_eq!(manifest.by, "topic-subtree");
        assert_eq!(manifest.files, ["shard-0000.lesm", "shard-0001.lesm"]);
        assert_eq!(manifest.docs, [40, 20]);
    }

    #[test]
    fn parse_round_trips_strategy_names() {
        for by in [ShardBy::EntityRange, ShardBy::TopicSubtree] {
            assert_eq!(ShardBy::parse(by.name()), Some(by));
        }
        assert_eq!(ShardBy::parse("hash"), None);
    }
}
