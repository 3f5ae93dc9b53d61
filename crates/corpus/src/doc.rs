//! Documents, corpora and attached typed entities.

use crate::vocab::Vocabulary;
use crate::CorpusError;

/// A reference to an entity: `(type index, entity id within that type)`.
///
/// Type indices are positions in an [`EntityCatalog`]; e.g. in the DBLP-like
/// schema, type 0 is `author` and type 1 is `venue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityRef {
    /// Index of the entity type in the corpus' [`EntityCatalog`].
    pub etype: usize,
    /// Id of the entity within its type's vocabulary.
    pub id: u32,
}

impl EntityRef {
    /// Convenience constructor.
    pub fn new(etype: usize, id: u32) -> Self {
        Self { etype, id }
    }
}

/// Per-type entity name tables.
#[derive(Debug, Clone, Default)]
pub struct EntityCatalog {
    type_names: Vec<String>,
    tables: Vec<Vocabulary>,
}

impl EntityCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an entity type (e.g. `"author"`), returning its index.
    pub fn add_type(&mut self, name: &str) -> usize {
        self.type_names.push(name.to_owned());
        self.tables.push(Vocabulary::new());
        self.type_names.len() - 1
    }

    /// Number of registered entity types.
    pub fn num_types(&self) -> usize {
        self.type_names.len()
    }

    /// Name of entity type `t`.
    pub fn type_name(&self, t: usize) -> Option<&str> {
        self.type_names.get(t).map(String::as_str)
    }

    /// Interns an entity name under type `t`.
    pub fn intern(&mut self, t: usize, name: &str) -> Result<EntityRef, CorpusError> {
        let table = self.tables.get_mut(t).ok_or(CorpusError::UnknownEntityType(t))?;
        Ok(EntityRef::new(t, table.intern(name)))
    }

    /// The name table for type `t`.
    pub fn table(&self, t: usize) -> Option<&Vocabulary> {
        self.tables.get(t)
    }

    /// Number of entities of type `t` (0 for unknown types).
    pub fn count(&self, t: usize) -> usize {
        self.tables.get(t).map_or(0, Vocabulary::len)
    }

    /// Display name of an entity reference.
    pub fn name(&self, e: EntityRef) -> &str {
        self.tables
            .get(e.etype)
            .and_then(|t| t.name(e.id))
            .unwrap_or("<unk-entity>")
    }
}

/// One document: a token-id sequence plus weak structure.
#[derive(Debug, Clone, Default)]
pub struct Doc {
    /// Token ids into the corpus vocabulary, in text order.
    pub tokens: Vec<u32>,
    /// Entities linked to the document (authors, venues, persons, ...).
    pub entities: Vec<EntityRef>,
    /// Optional gold category label (labeled corpora only).
    pub label: Option<u32>,
    /// Optional publication year.
    pub year: Option<i32>,
}

impl Doc {
    /// A text-only document.
    pub fn from_tokens(tokens: Vec<u32>) -> Self {
        Self { tokens, ..Self::default() }
    }

    /// Entities of a given type.
    pub fn entities_of(&self, etype: usize) -> impl Iterator<Item = u32> + '_ {
        self.entities.iter().filter(move |e| e.etype == etype).map(|e| e.id)
    }
}

/// A corpus: interned vocabulary, documents, and an entity catalog.
///
/// This is the concrete realization of the dissertation's *text-attached
/// heterogeneous information network* (Definition 1): documents are the
/// text-attached nodes, and `Doc::entities` are the explicit links to typed
/// entity nodes.
///
/// ```
/// use lesm_corpus::Corpus;
///
/// let mut corpus = Corpus::new();
/// let author = corpus.entities.add_type("author");
/// let d = corpus.push_text("Query processing in database systems");
/// corpus.link_entity(d, author, "alice").unwrap();
/// assert_eq!(corpus.num_docs(), 1);
/// assert_eq!(corpus.render_doc(d), "query processing in database systems");
/// assert_eq!(corpus.docs[d].entities_of(author).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Word vocabulary shared by every document.
    pub vocab: Vocabulary,
    /// The documents.
    pub docs: Vec<Doc>,
    /// Typed entity name tables.
    pub entities: EntityCatalog,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Vocabulary size.
    pub fn num_words(&self) -> usize {
        self.vocab.len()
    }

    /// Adds a document built from raw text using [`crate::text::tokenize`]
    /// (tokens are lowercased before interning).
    pub fn push_text(&mut self, text: &str) -> usize {
        let tokens = crate::text::tokenize(text)
            .map(|w| self.vocab.intern(&crate::text::lowercase(w)))
            .collect();
        self.docs.push(Doc::from_tokens(tokens));
        self.docs.len() - 1
    }

    /// Links an entity (by type index and name) to document `doc`.
    pub fn link_entity(&mut self, doc: usize, etype: usize, name: &str) -> Result<EntityRef, CorpusError> {
        if doc >= self.docs.len() {
            return Err(CorpusError::DocOutOfRange(doc));
        }
        let e = self.entities.intern(etype, name)?;
        self.docs[doc].entities.push(e);
        Ok(e)
    }

    /// Per-word document frequency (number of docs containing each word).
    pub fn doc_freq(&self) -> Vec<u32> {
        let mut df = vec![0u32; self.vocab.len()];
        let mut seen = vec![u32::MAX; self.vocab.len()];
        for (i, d) in self.docs.iter().enumerate() {
            for &w in &d.tokens {
                let w = w as usize;
                if seen[w] != i as u32 {
                    seen[w] = i as u32;
                    df[w] += 1;
                }
            }
        }
        df
    }

    /// Per-word total term frequency.
    pub fn term_freq(&self) -> Vec<u64> {
        let mut tf = vec![0u64; self.vocab.len()];
        for d in &self.docs {
            for &w in &d.tokens {
                tf[w as usize] += 1;
            }
        }
        tf
    }

    /// Renders document `doc` back to a string (debugging and case studies).
    pub fn render_doc(&self, doc: usize) -> String {
        self.docs
            .get(doc)
            .map(|d| self.vocab.render(&d.tokens))
            .unwrap_or_default()
    }

    /// Returns a copy of the corpus with rare and ubiquitous words removed
    /// (the standard preprocessing for real corpora): words must appear in
    /// at least `min_df` documents and at most `max_df_frac` of them.
    ///
    /// Word ids are re-interned densely; entity links, labels and years are
    /// preserved. The returned map gives `old id -> new id` for callers
    /// that must translate external references.
    pub fn prune_vocabulary(&self, min_df: u32, max_df_frac: f64) -> (Corpus, Vec<Option<u32>>) {
        let df = self.doc_freq();
        let max_df = (self.num_docs() as f64 * max_df_frac.clamp(0.0, 1.0)).ceil() as u32;
        let mut out = Corpus::new();
        out.entities = self.entities.clone();
        let mut remap: Vec<Option<u32>> = vec![None; self.vocab.len()];
        for (old_id, name) in self.vocab.iter() {
            let f = df[old_id as usize];
            if f >= min_df && f <= max_df {
                remap[old_id as usize] = Some(out.vocab.intern(name));
            }
        }
        for doc in &self.docs {
            let tokens: Vec<u32> =
                doc.tokens.iter().filter_map(|&w| remap[w as usize]).collect();
            out.docs.push(Doc {
                tokens,
                entities: doc.entities.clone(),
                label: doc.label,
                year: doc.year,
            });
        }
        (out, remap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_text_interns_tokens() {
        let mut c = Corpus::new();
        let d = c.push_text("Query processing in query engines");
        assert_eq!(d, 0);
        assert_eq!(c.docs[0].tokens.len(), 5);
        // "query" appears twice with the same id.
        assert_eq!(c.docs[0].tokens[0], c.docs[0].tokens[3]);
        assert_eq!(c.num_words(), 4);
    }

    #[test]
    fn entity_linking() {
        let mut c = Corpus::new();
        let author = c.entities.add_type("author");
        let venue = c.entities.add_type("venue");
        let d = c.push_text("query processing");
        let a = c.link_entity(d, author, "alice").unwrap();
        let v = c.link_entity(d, venue, "SIGMOD").unwrap();
        assert_eq!(c.entities.name(a), "alice");
        assert_eq!(c.entities.name(v), "SIGMOD");
        assert_eq!(c.docs[d].entities_of(author).collect::<Vec<_>>(), vec![0]);
        assert!(c.link_entity(5, author, "bob").is_err());
        assert!(c.link_entity(d, 9, "bob").is_err());
    }

    #[test]
    fn doc_freq_counts_documents_not_tokens() {
        let mut c = Corpus::new();
        c.push_text("data data data");
        c.push_text("data mining");
        let data = c.vocab.get("data").unwrap() as usize;
        let mining = c.vocab.get("mining").unwrap() as usize;
        let df = c.doc_freq();
        assert_eq!(df[data], 2);
        assert_eq!(df[mining], 1);
        let tf = c.term_freq();
        assert_eq!(tf[data], 4);
    }

    #[test]
    fn render_roundtrip() {
        let mut c = Corpus::new();
        let d = c.push_text("topic model inference");
        assert_eq!(c.render_doc(d), "topic model inference");
    }

    #[test]
    fn prune_vocabulary_drops_rare_and_ubiquitous_words() {
        let mut c = Corpus::new();
        let author = c.entities.add_type("author");
        // "common" in every doc, "rare" in one, "mid" in half.
        for i in 0..10 {
            let text = if i % 2 == 0 { "common mid" } else { "common" };
            let d = c.push_text(text);
            c.link_entity(d, author, "alice").unwrap();
        }
        c.docs[0].tokens.push(c.vocab.intern("rare"));
        let (pruned, remap) = c.prune_vocabulary(2, 0.8);
        assert_eq!(pruned.num_docs(), 10);
        // "common" (df 10 > 8) and "rare" (df 1 < 2) are gone; "mid" stays.
        assert!(pruned.vocab.get("common").is_none());
        assert!(pruned.vocab.get("rare").is_none());
        assert!(pruned.vocab.get("mid").is_some());
        assert_eq!(pruned.docs[0].tokens.len(), 1);
        assert_eq!(pruned.docs[1].tokens.len(), 0);
        // Entities preserved; remap consistent.
        assert_eq!(pruned.docs[0].entities.len(), 1);
        let mid_old = c.vocab.get("mid").unwrap();
        assert_eq!(remap[mid_old as usize], pruned.vocab.get("mid"));
        let common_old = c.vocab.get("common").unwrap();
        assert_eq!(remap[common_old as usize], None);
    }
}
