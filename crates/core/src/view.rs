//! One read-only view of a served model, so every response renderer
//! exists once.
//!
//! [`ModelView`] is the one way to read a model. Search
//! ([`crate::search`]), topic rendering and the hierarchy export
//! ([`crate::export`]) read topic metadata, ranked phrases and entities,
//! the phrase-topic frequency entries in ascending phrase-key order,
//! vocabulary lookup, and per-document tokens, topic weights and global
//! ids. The query engine's extract (`lesm_query::IndexParts::from_view`)
//! reads the entity catalog and, for every document of the whole model,
//! its entity links, year and leaf topic. Two backends implement it:
//! [`MinedView`] borrows an owned corpus plus mined structure, and
//! `lesm_serve::MappedSnapshot` reads a zero-copy v2 artifact. Both run
//! through the same renderers and the same extract, so their answers are
//! byte-identical by construction.

use crate::pipeline::MinedStructure;
use lesm_corpus::{Corpus, EntityRef};

/// Read access to a mined model, as the response renderers need it.
///
/// Out-of-range topic and document indices may panic; the fallbacks the
/// renderers print (`"<unk>"`, `"<unk-entity>"`) belong to the vocabulary
/// and entity lookups.
pub trait ModelView {
    /// Number of topics in the hierarchy.
    fn num_topics(&self) -> usize;
    /// Path string of topic `t` (e.g. `"o/2/1"`).
    fn topic_path(&self, t: usize) -> &str;
    /// Parent of topic `t` (`None` for the root).
    fn topic_parent(&self, t: usize) -> Option<usize>;
    /// Hierarchy level of topic `t`.
    fn topic_level(&self, t: usize) -> usize;
    /// Background mixing weight of topic `t`.
    fn topic_rho(&self, t: usize) -> f64;
    /// Child topic ids of `t`, in stored order.
    fn topic_children(&self, t: usize) -> impl Iterator<Item = usize> + '_;
    /// Ranked phrases of topic `t` as (tokens, score, topic frequency).
    fn topic_phrases(&self, t: usize) -> impl Iterator<Item = (&[u32], f64, f64)> + '_;
    /// Number of per-entity-type cells of topic `t`.
    fn entity_cells(&self, t: usize) -> usize;
    /// Ranked (entity id, score) list of topic `t` for type cell `x`.
    fn topic_entities(&self, t: usize, x: usize) -> impl Iterator<Item = (u32, f64)> + '_;
    /// Topic `t`'s phrase-frequency entries in ascending phrase-key
    /// order — the one order every float sum over them uses.
    fn ptf_entries(&self, t: usize) -> impl Iterator<Item = (&[u32], f64)> + '_;
    /// Word id of `name`, if it is in the vocabulary.
    fn word_id(&self, name: &str) -> Option<u32>;
    /// Token ids joined by spaces, `"<unk>"` for unknown ids.
    fn render_tokens(&self, ids: &[u32]) -> String;
    /// Entity type name, if in range.
    fn entity_type_name(&self, x: usize) -> Option<&str>;
    /// Entity surface name, `"<unk-entity>"` when unknown.
    fn entity_name(&self, x: usize, id: u32) -> &str;
    /// Number of entity types.
    fn num_entity_types(&self) -> usize;
    /// Number of entities of type `x` (0 past the last type).
    fn num_entities(&self, x: usize) -> usize;
    /// Number of documents.
    fn num_docs(&self) -> usize;
    /// Token ids of document `d`.
    fn doc_tokens(&self, d: usize) -> &[u32];
    /// Document `d`'s weight for topic `t` (0.0 past the row's end).
    fn doc_topic(&self, d: usize, t: usize) -> f64;
    /// Global id of document `d` (the printed document number).
    fn doc_id(&self, d: usize) -> u64;
    /// Document `d`'s tokens rendered as text.
    fn render_doc(&self, d: usize) -> String {
        self.render_tokens(self.doc_tokens(d))
    }
    /// Number of documents of the whole model, numbered by global id. A
    /// shard holds fewer documents ([`ModelView::num_docs`]) but carries
    /// every document's links, year and leaf topic.
    fn num_global_docs(&self) -> usize;
    /// Global document `g`'s entity links, in stored order.
    fn global_doc_links(&self, g: usize) -> impl Iterator<Item = EntityRef> + '_;
    /// Global document `g`'s year, if known.
    fn global_doc_year(&self, g: usize) -> Option<i32>;
    /// Global document `g`'s leaf topic ([`MinedStructure::doc_leaf`]).
    fn global_doc_leaf(&self, g: usize) -> usize;
}

/// A [`ModelView`] over an owned corpus and mined structure; documents
/// are globally numbered by their index.
#[derive(Debug, Clone, Copy)]
pub struct MinedView<'a> {
    /// Vocabulary, entity catalog, and document tokens.
    pub corpus: &'a Corpus,
    /// The mined structure.
    pub mined: &'a MinedStructure,
}

impl ModelView for MinedView<'_> {
    fn num_topics(&self) -> usize {
        self.mined.hierarchy.len()
    }
    fn topic_path(&self, t: usize) -> &str {
        &self.mined.hierarchy.topics[t].path
    }
    fn topic_parent(&self, t: usize) -> Option<usize> {
        self.mined.hierarchy.topics[t].parent
    }
    fn topic_level(&self, t: usize) -> usize {
        self.mined.hierarchy.topics[t].level
    }
    fn topic_rho(&self, t: usize) -> f64 {
        self.mined.hierarchy.topics[t].rho
    }
    fn topic_children(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        self.mined.hierarchy.topics[t].children.iter().copied()
    }
    fn topic_phrases(&self, t: usize) -> impl Iterator<Item = (&[u32], f64, f64)> + '_ {
        self.mined.topic_phrases[t].iter().map(|p| (p.tokens.as_slice(), p.score, p.topic_freq))
    }
    fn entity_cells(&self, t: usize) -> usize {
        self.mined.topic_entities[t].len()
    }
    fn topic_entities(&self, t: usize, x: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.mined.topic_entities[t][x].iter().copied()
    }
    fn ptf_entries(&self, t: usize) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        // HashMap iteration order is process-random: sort by key.
        let mut entries: Vec<(&[u32], f64)> =
            self.mined.phrase_topic_freq[t].iter().map(|(k, &v)| (k.as_slice(), v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }
    fn word_id(&self, name: &str) -> Option<u32> {
        self.corpus.vocab.get(name)
    }
    fn render_tokens(&self, ids: &[u32]) -> String {
        self.corpus.vocab.render(ids)
    }
    fn entity_type_name(&self, x: usize) -> Option<&str> {
        self.corpus.entities.type_name(x)
    }
    fn entity_name(&self, x: usize, id: u32) -> &str {
        self.corpus.entities.name(EntityRef::new(x, id))
    }
    fn num_entity_types(&self) -> usize {
        self.corpus.entities.num_types()
    }
    fn num_entities(&self, x: usize) -> usize {
        self.corpus.entities.count(x)
    }
    fn num_docs(&self) -> usize {
        self.corpus.num_docs()
    }
    fn doc_tokens(&self, d: usize) -> &[u32] {
        &self.corpus.docs[d].tokens
    }
    fn doc_topic(&self, d: usize, t: usize) -> f64 {
        self.mined.doc_topic[d].get(t).copied().unwrap_or(0.0)
    }
    fn doc_id(&self, d: usize) -> u64 {
        d as u64
    }
    fn num_global_docs(&self) -> usize {
        self.corpus.num_docs()
    }
    fn global_doc_links(&self, g: usize) -> impl Iterator<Item = EntityRef> + '_ {
        self.corpus.docs[g].entities.iter().copied()
    }
    fn global_doc_year(&self, g: usize) -> Option<i32> {
        self.corpus.docs[g].year
    }
    fn global_doc_leaf(&self, g: usize) -> usize {
        self.mined.doc_leaf(g)
    }
}

impl MinedStructure {
    /// This structure over `corpus` as a [`ModelView`].
    pub fn view<'a>(&'a self, corpus: &'a Corpus) -> MinedView<'a> {
        MinedView { corpus, mined: self }
    }
}
