//! Snapshot format v2 — the `.lesm` artifact format: a zero-copy,
//! mmap-friendly layout (DESIGN.md §13).
//!
//! Values are stored exactly (floats as raw little-endian bits, maps in
//! sorted-key order), and the hot query-time data is laid out as
//! alignment-padded arenas behind a fixed-offset section table, so the
//! load hot path is:
//!
//! 1. map the file ([`crate::mapping::Mapping`]: `mmap` or an aligned
//!    read fallback),
//! 2. verify the word-lane FNV trailer checksum,
//! 3. validate the section table and every arena's bounds, offset
//!    monotonicity, UTF-8, sort and cross-reference invariants **once**,
//! 4. hand out typed `&[u32]`/`&[u64]`/`&[f64]`/`&str` views that borrow
//!    directly from the mapping. No per-section heap deserialization.
//!
//! Checksum-then-borrow makes step 4 safe against corrupt files; step 3
//! makes it safe against *crafted* files with a valid checksum, which is
//! why every invariant an infallible accessor relies on is checked at
//! load time.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic "LESM" (4) | version=2 (4) | section count (4) | reserved (4)
//! offset 16  section table: count × { id u32, reserved u32, offset u64, length u64 }
//! ...        sections, each starting at a 64-byte-aligned offset
//! EOF-8      u64 checksum: 4-lane FNV-1a over the 8-byte LE words of the body
//! ```
//!
//! Every section is declared once, in [`SECTIONS`]: its id, its inspect
//! name, whether an artifact may omit it, and the writer and parser that
//! define its bytes. Saving writes the entries in table order, loading
//! parses them in the same order (later sections check their counts
//! against earlier ones), and `lesm snapshot inspect` takes its names
//! from it.
//!
//! Within a section, scalars are u64 and arrays are padded to their
//! element alignment; because every section starts 64-byte aligned and
//! the mapping base is at least 8-byte aligned, every array view is
//! correctly aligned for its element type. The rarely-read remainder of
//! the model (EM fits, per-topic phi, the root's network, labels,
//! segments) lives in a single *cold* section, packed without padding:
//! u64 length prefixes, option tags, values back to back. The same writer
//! and cursor as the other sections write and read it, through their
//! packed methods, and only [`MappedSnapshot::to_snapshot`] decodes it —
//! never the load hot path. The hierarchy owns one network, the root's:
//! the root's record keeps its links, every other topic's record repeats
//! its node space without links, and a fit record (option tag 3) holds
//! the fitted parameters, the final objective, a background flag and the
//! parent importance: no log-likelihood, objective trace or `φ0` rows.
//! After the fits, an α list repeats each fit's link-type weights; the
//! decode checks it against the fits. The retired layouts' links below
//! the root and tag-1 and tag-2 fit records decode to a typed
//! [`SnapshotError::RetiredLayout`].
//!
//! The `doc-facts` section holds what the query engine reads per
//! document: entity links, year and leaf topic, one row per document of
//! the whole model, indexed by global document id. A shard carries every
//! row, so it can build the full query index on its own: its
//! [`ModelView`] answers every global document's links, year and leaf.
//!
//! Any other version tag — including the retired v1 streaming format —
//! fails with [`SnapshotError::VersionMismatch`]; rebuild such an
//! artifact with `lesm snapshot`.
//!
//! Incrementally updated artifacts carry the table's one *optional*
//! section, `delta-lineage` ([`DeltaInfo`]): the artifact stays full and
//! self-contained, the section only records which base artifact it was
//! derived from and the base's append-only id ranges. Readers skip
//! section ids they do not know.

use crate::mapping::Mapping;
use crate::snapshot::{Snapshot, MAGIC};
use crate::SnapshotError;
use lesm_core::pipeline::MinedStructure;
use lesm_core::{ModelView, SearchIndex};
use lesm_corpus::{Corpus, Doc, EntityRef};
use lesm_hier::em::EmFit;
use lesm_hier::hierarchy::HierTopic;
use lesm_hier::TopicHierarchy;
use lesm_net::{LinkBlock, TypedNetwork};
use std::sync::{Arc, OnceLock};

/// The v2 format version tag.
pub const FORMAT_VERSION_V2: u32 = 2;

/// The `cold` section's tag for a present EM fit record.
const FIT_TAG: u8 = 3;
/// The tags of the retired fit record layouts, which decoding refuses:
/// tag 1 stored `φ0` rows, an objective trace and a log-likelihood, tag 2
/// the `φ0` rows and the trace.
const RETIRED_FIT_TAGS: [u8; 2] = [1, 2];

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 24;
const SECTION_ALIGN: usize = 64;

/// One v2 section: everything the writer, the loader and the inspector
/// need to know about it.
struct Section {
    /// The id stored in the section table.
    id: u32,
    /// The name `lesm snapshot inspect` prints.
    name: &'static str,
    /// Whether an artifact may omit the section.
    optional: bool,
    /// Appends the section's bytes (the caller aligns and records it).
    write: fn(&mut ArenaWriter, &SaveInput<'_>) -> Result<(), SnapshotError>,
    /// Claims and validates the section's arrays into the layout.
    parse: fn(&mut Cursor<'_>, &mut Layout) -> Result<(), SnapshotError>,
}

/// Every v2 section, in byte order. The loader parses them in this order
/// too, so a section may check itself against the ones above it.
const SECTIONS: [Section; 12] = [
    Section { id: 1, name: "vocab", optional: false, write: write_vocab, parse: parse_vocab },
    Section {
        id: 2,
        name: "entities",
        optional: false,
        write: write_entities,
        parse: parse_entities,
    },
    Section { id: 3, name: "docs", optional: false, write: write_docs, parse: parse_docs },
    Section { id: 4, name: "topics", optional: false, write: write_topics, parse: parse_topics },
    Section { id: 5, name: "phrases", optional: false, write: write_phrases, parse: parse_phrases },
    Section {
        id: 6,
        name: "topic-entities",
        optional: false,
        write: write_topic_entities,
        parse: parse_topic_entities,
    },
    Section {
        id: 7,
        name: "phrase-topic-freq",
        optional: false,
        write: write_ptf,
        parse: parse_ptf,
    },
    Section {
        id: 8,
        name: "doc-topic",
        optional: false,
        write: write_doc_topic,
        parse: parse_doc_topic,
    },
    Section { id: 9, name: "doc-ids", optional: false, write: write_doc_ids, parse: parse_doc_ids },
    Section {
        id: 12,
        name: "doc-facts",
        optional: false,
        write: write_doc_facts,
        parse: parse_doc_facts,
    },
    Section { id: 10, name: "cold", optional: false, write: write_cold, parse: parse_cold },
    Section {
        id: 11,
        name: "delta-lineage",
        optional: true,
        write: write_delta,
        parse: parse_delta,
    },
];

/// Delta lineage carried by an incrementally updated artifact (section
/// `delta-lineage`, id 11). The artifact itself is always *full* — every
/// section covers all documents — so readers need no base artifact to
/// serve it; the lineage records which base it was derived from and how
/// much of each append-only id range the base already covered, and drives
/// the compaction policy (an update whose chain would exceed the
/// configured depth is written without this section, resetting the chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaInfo {
    /// File name of the base artifact this delta was mined against
    /// (e.g. `v0007.lesm`).
    pub base_artifact: String,
    /// Documents the base already covered; ids `>= base_docs` are appended.
    pub base_docs: u64,
    /// Words the base vocabulary already interned.
    pub base_words: u64,
    /// Per-entity-type catalog sizes in the base (aligned with the
    /// artifact's entity types).
    pub base_entities: Vec<u64>,
    /// Length of the update chain ending at this artifact (1 = first
    /// update on a full base).
    pub chain_depth: u64,
}

/// 4-lane FNV-1a over 8-byte words. The independent lanes break the
/// sequential multiply dependency chain (≈4x throughput over a
/// byte-at-a-time FNV) while staying a pure deterministic function of the
/// word sequence; the fold hashes the lane digests plus the word count.
pub(crate) fn checksum_words(words: &[u64]) -> u64 {
    fold_lanes(words, |&w| w)
}

/// The trailer checksum of an artifact body held as bytes (a whole number
/// of words; the loader checksums its aligned mapping in place instead).
/// Reads each word where it lies, so the body is never copied.
fn body_checksum(body: &[u8]) -> u64 {
    fold_lanes(body.as_chunks::<8>().0, |b| u64::from_le_bytes(*b))
}

/// [`checksum_words`] over `items`, where `word` reads item `i` as word `i`.
fn fold_lanes<T>(items: &[T], word: impl Fn(&T) -> u64) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut l0 = BASIS ^ 1;
    let mut l1 = BASIS ^ 2;
    let mut l2 = BASIS ^ 3;
    let mut l3 = BASIS ^ 4;
    let mut chunks = items.chunks_exact(4);
    for c in &mut chunks {
        l0 = (l0 ^ word(&c[0])).wrapping_mul(PRIME);
        l1 = (l1 ^ word(&c[1])).wrapping_mul(PRIME);
        l2 = (l2 ^ word(&c[2])).wrapping_mul(PRIME);
        l3 = (l3 ^ word(&c[3])).wrapping_mul(PRIME);
    }
    let mut lanes = [l0, l1, l2, l3];
    for (j, w) in chunks.remainder().iter().enumerate() {
        lanes[j] = (lanes[j] ^ word(w)).wrapping_mul(PRIME);
    }
    let mut h = BASIS ^ (items.len() as u64);
    for l in lanes {
        h = (h ^ l).wrapping_mul(PRIME);
    }
    h
}

/// The little-endian `u64` at the start of `b` (which holds at least 8 bytes).
fn le_u64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

/// The little-endian `u32` at the start of `b` (which holds at least 4 bytes).
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct ArenaWriter {
    buf: Vec<u8>,
}

impl ArenaWriter {
    fn align(&mut self, a: usize) {
        while !self.buf.len().is_multiple_of(a) {
            self.buf.push(0);
        }
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// Writes the prefix-sum bounds array for `lens` (n+1 u64 entries).
    fn bounds<I: IntoIterator<Item = usize>>(&mut self, lens: I) {
        self.align(8);
        let mut acc = 0u64;
        self.u64(0);
        for len in lens {
            acc += len as u64;
            self.u64(acc);
        }
    }

    // Packed writers (no padding) for the cold section and the lineage
    // name: a length is a u64 prefix, an option a 0/1 tag byte.

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn u32_seq(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u32(x);
        }
    }
    fn f64_seq(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
    fn f64_rows(&mut self, rows: &[Vec<f64>]) {
        self.u64(rows.len() as u64);
        for row in rows {
            self.f64_seq(row);
        }
    }
    fn option<T>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                put(self, x);
            }
        }
    }
}

/// What one save serializes.
struct SaveInput<'a> {
    corpus: &'a Corpus,
    mined: &'a MinedStructure,
    /// The documents the artifact holds, by global id: all of them, or
    /// one shard's.
    docs: Vec<usize>,
    delta: Option<&'a DeltaInfo>,
}

/// Serializes a corpus + mined structure as a v2 artifact with identity
/// document ids (document `d` is globally `d`). Fails with
/// [`SnapshotError::TooLarge`] if any id or count overflows its 32-bit
/// wire field — the save refuses rather than truncating.
pub fn save_snapshot_v2(corpus: &Corpus, mined: &MinedStructure) -> Result<Vec<u8>, SnapshotError> {
    save_snapshot_v2_with_lineage(corpus, mined, None, None)
}

/// Serializes a v2 artifact. `doc_ids`, when given, makes it a shard of
/// the model: it holds only the documents with those global ids (indices
/// into `corpus.docs`), in the given order, and renders them under those
/// ids, while the replicated structure and the `doc-facts` rows cover
/// every document. `delta`, when given, stamps the artifact with delta
/// lineage (see [`DeltaInfo`]). Artifacts written without lineage are
/// compacted full artifacts; readers treat both identically apart from
/// [`MappedSnapshot::delta_info`].
pub fn save_snapshot_v2_with_lineage(
    corpus: &Corpus,
    mined: &MinedStructure,
    doc_ids: Option<&[u64]>,
    delta: Option<&DeltaInfo>,
) -> Result<Vec<u8>, SnapshotError> {
    let n = corpus.docs.len();
    let invalid = |what: String| SnapshotError::Malformed { offset: 0, what };
    // Every per-document table is indexed by document, and `doc-facts`
    // reads each document's leaf topic from its doc-topic row.
    let n_topics = mined.hierarchy.topics.len();
    if mined.doc_topic.len() != n || mined.segments.len() != n {
        return Err(invalid(format!(
            "the mined structure has {} doc-topic rows and {} segment lists for {n} documents",
            mined.doc_topic.len(),
            mined.segments.len()
        )));
    }
    if let Some(d) = mined.doc_topic.iter().position(|row| row.len() != n_topics) {
        return Err(invalid(format!("doc-topic row {d} does not hold one weight per topic")));
    }
    let docs = match doc_ids {
        None => (0..n).collect(),
        Some(ids) => ids
            .iter()
            .map(|&g| {
                usize::try_from(g)
                    .ok()
                    .filter(|&d| d < n)
                    .ok_or_else(|| invalid(format!("document id {g} is past the model's {n}")))
            })
            .collect::<Result<_, _>>()?,
    };
    let input = SaveInput { corpus, mined, docs, delta };
    // Delta lineage is the one optional section: written exactly when the
    // save carries lineage.
    let present: Vec<&Section> =
        SECTIONS.iter().filter(|s| !s.optional || delta.is_some()).collect();
    let mut w = ArenaWriter { buf: Vec::new() };
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION_V2);
    w.u32(crate::wire_u32(present.len(), "section count")?);
    w.u32(0);
    // Placeholder table, patched as each section's extent becomes known.
    w.buf.resize(HEADER_LEN + present.len() * TABLE_ENTRY_LEN, 0);
    for (i, section) in present.iter().enumerate() {
        w.align(SECTION_ALIGN);
        let start = w.buf.len();
        (section.write)(&mut w, &input)?;
        let len = w.buf.len() - start;
        let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
        w.buf[at..at + 4].copy_from_slice(&section.id.to_le_bytes());
        w.buf[at + 8..at + 16].copy_from_slice(&(start as u64).to_le_bytes());
        w.buf[at + 16..at + 24].copy_from_slice(&(len as u64).to_le_bytes());
    }
    // Pad the body to a whole number of words, append the checksum.
    w.align(8);
    let checksum = body_checksum(&w.buf);
    w.buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(w.buf)
}

fn write_vocab(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let vocab = &s.corpus.vocab;
    let n = vocab.len();
    let n32 = crate::wire_u32(n, "vocab size")?;
    w.u64(n as u64);
    w.bounds((0..n32).map(|id| vocab.name_or_unk(id).len()));
    for id in 0..n32 {
        w.bytes(vocab.name_or_unk(id).as_bytes());
    }
    w.align(4);
    let mut sorted: Vec<u32> = (0..n32).collect();
    sorted
        .sort_unstable_by(|&a, &b| vocab.name_or_unk(a).cmp(vocab.name_or_unk(b)).then(a.cmp(&b)));
    for id in sorted {
        w.u32(id);
    }
    Ok(())
}

fn write_entities(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let entities = &s.corpus.entities;
    let nt = entities.num_types();
    w.u64(nt as u64);
    w.bounds((0..nt).map(|t| entities.type_name(t).unwrap_or("").len()));
    for t in 0..nt {
        w.bytes(entities.type_name(t).unwrap_or("").as_bytes());
    }
    w.bounds((0..nt).map(|t| entities.count(t)));
    w.align(8);
    let ent_name = |t: usize, id: u32| -> &str {
        entities.table(t).and_then(|tab| tab.name(id)).unwrap_or("")
    };
    w.u64(0);
    let mut acc = 0u64;
    for t in 0..nt {
        for id in 0..crate::wire_u32(entities.count(t), "entity count")? {
            acc += ent_name(t, id).len() as u64;
            w.u64(acc);
        }
    }
    for t in 0..nt {
        for id in 0..crate::wire_u32(entities.count(t), "entity count")? {
            w.bytes(ent_name(t, id).as_bytes());
        }
    }
    Ok(())
}

fn write_docs(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let docs: Vec<&Doc> = s.docs.iter().map(|&d| &s.corpus.docs[d]).collect();
    w.u64(docs.len() as u64);
    w.bounds(docs.iter().map(|d| d.tokens.len()));
    w.align(4);
    for &tok in docs.iter().flat_map(|d| &d.tokens) {
        w.u32(tok);
    }
    Ok(())
}

fn write_topics(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let topics = &s.mined.hierarchy.topics;
    w.u64(topics.len() as u64);
    w.align(8);
    for t in topics {
        w.u64(t.parent.map_or(u64::MAX, |p| p as u64));
    }
    for t in topics {
        w.u64(t.level as u64);
    }
    for t in topics {
        w.f64(t.rho);
    }
    w.bounds(topics.iter().map(|t| t.children.len()));
    for &c in topics.iter().flat_map(|t| &t.children) {
        w.u64(c as u64);
    }
    w.bounds(topics.iter().map(|t| t.path.len()));
    for t in topics {
        w.bytes(t.path.as_bytes());
    }
    Ok(())
}

fn write_phrases(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let lists = &s.mined.topic_phrases;
    w.u64(lists.len() as u64);
    w.bounds(lists.iter().map(|l| l.len()));
    w.bounds(lists.iter().flatten().map(|p| p.tokens.len()));
    w.align(4);
    for &tok in lists.iter().flatten().flat_map(|p| &p.tokens) {
        w.u32(tok);
    }
    w.align(8);
    for p in lists.iter().flatten() {
        w.f64(p.score);
    }
    for p in lists.iter().flatten() {
        w.f64(p.topic_freq);
    }
    Ok(())
}

fn write_topic_entities(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let per_topic = &s.mined.topic_entities;
    w.u64(per_topic.len() as u64);
    w.bounds(per_topic.iter().map(|cells| cells.len()));
    w.bounds(per_topic.iter().flatten().map(|list| list.len()));
    w.align(4);
    for &(id, _) in per_topic.iter().flatten().flatten() {
        w.u32(id);
    }
    w.align(8);
    for &(_, score) in per_topic.iter().flatten().flatten() {
        w.f64(score);
    }
    Ok(())
}

/// Phrase-topic frequency tables, each in ascending phrase-key order.
fn write_ptf(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let tables: Vec<Vec<(&Vec<u32>, f64)>> = s
        .mined
        .phrase_topic_freq
        .iter()
        .map(|table| {
            let mut entries: Vec<(&Vec<u32>, f64)> = table.iter().map(|(k, &v)| (k, v)).collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            entries
        })
        .collect();
    w.u64(tables.len() as u64);
    w.bounds(tables.iter().map(|t| t.len()));
    w.bounds(tables.iter().flatten().map(|(p, _)| p.len()));
    w.align(4);
    for (phrase, _) in tables.iter().flatten() {
        for &tok in phrase.iter() {
            w.u32(tok);
        }
    }
    w.align(8);
    for &(_, freq) in tables.iter().flatten() {
        w.f64(freq);
    }
    Ok(())
}

fn write_doc_topic(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let rows: Vec<&Vec<f64>> = s.docs.iter().map(|&d| &s.mined.doc_topic[d]).collect();
    w.u64(rows.len() as u64);
    w.bounds(rows.iter().map(|r| r.len()));
    for &v in rows.iter().copied().flatten() {
        w.f64(v);
    }
    Ok(())
}

fn write_doc_ids(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    w.u64(s.docs.len() as u64);
    w.align(8);
    for &d in &s.docs {
        w.u64(d as u64);
    }
    Ok(())
}

/// One row per document of the whole model, indexed by global id: its
/// entity links, its leaf topic, and its year (a value plus a known flag).
fn write_doc_facts(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let docs = &s.corpus.docs;
    w.u64(docs.len() as u64);
    w.bounds(docs.iter().map(|d| d.entities.len()));
    w.align(4);
    for e in docs.iter().flat_map(|d| &d.entities) {
        w.u32(crate::wire_u32(e.etype, "entity type id")?);
        w.u32(e.id);
    }
    for d in 0..docs.len() {
        w.u32(crate::wire_u32(s.mined.doc_leaf(d), "leaf topic")?);
    }
    for doc in docs {
        w.i32(doc.year.unwrap_or(0));
    }
    for doc in docs {
        w.u8(u8::from(doc.year.is_some()));
    }
    Ok(())
}

/// The cold remainder, packed; only [`MappedSnapshot::to_snapshot`]
/// reads it.
fn write_cold(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    let h = &s.mined.hierarchy;
    w.u64(h.network.type_names.len() as u64);
    for name in &h.network.type_names {
        w.string(name);
    }
    w.u64(h.topics.len() as u64);
    for (t, topic) in h.topics.iter().enumerate() {
        w.f64_rows(&topic.phi);
        // Only the root's record keeps the links (see the module docs).
        write_network(w, &h.network, t == 0);
    }
    w.u64(h.fits.len() as u64);
    for fit in &h.fits {
        match fit {
            None => w.u8(0),
            Some(fit) => {
                w.u8(FIT_TAG);
                write_fit(w, fit);
            }
        }
    }
    // Each fit's link-type weights again, as a list of their own.
    w.u64(h.fits.len() as u64);
    for fit in &h.fits {
        w.option(fit.as_ref().map(|f| &f.alpha), |w, a| w.f64_seq(a));
    }
    w.u64(s.docs.len() as u64);
    for &d in &s.docs {
        w.option(s.corpus.docs[d].label.as_ref(), |w, &l| w.u32(l));
    }
    w.u64(s.docs.len() as u64);
    for doc_segs in s.docs.iter().map(|&d| &s.mined.segments[d]) {
        w.u64(doc_segs.len() as u64);
        for seg in doc_segs {
            w.u32_seq(seg);
        }
    }
    Ok(())
}

/// Writes `net`'s node space and, when `with_links`, its link blocks
/// (otherwise a block count of 0).
fn write_network(w: &mut ArenaWriter, net: &TypedNetwork, with_links: bool) {
    w.u64(net.type_names.len() as u64);
    for name in &net.type_names {
        w.string(name);
    }
    w.u64(net.node_counts.len() as u64);
    for &n in &net.node_counts {
        w.u64(n as u64);
    }
    let blocks = if with_links { &net.blocks[..] } else { &[] };
    w.u64(blocks.len() as u64);
    for block in blocks {
        w.u64(block.tx as u64);
        w.u64(block.ty as u64);
        w.u64(block.edges.len() as u64);
        for &(i, j, weight) in &block.edges {
            w.u32(i);
            w.u32(j);
            w.f64(weight);
        }
    }
}

fn write_fit(w: &mut ArenaWriter, fit: &EmFit) {
    w.u64(fit.k as u64);
    w.u64(fit.phi.len() as u64);
    for per_type in &fit.phi {
        w.f64_rows(per_type);
    }
    // `φ0` is the parent importance when the background is on, so the
    // flag stands for its rows.
    w.u8(u8::from(fit.background));
    w.f64_seq(&fit.rho);
    w.f64_seq(&fit.alpha);
    w.f64_seq(&fit.theta);
    w.f64(fit.objective);
    w.f64_rows(&fit.parent_phi);
}

fn write_delta(w: &mut ArenaWriter, s: &SaveInput<'_>) -> Result<(), SnapshotError> {
    if let Some(d) = s.delta {
        w.u64(d.base_docs);
        w.u64(d.base_words);
        w.u64(d.chain_depth);
        w.u64(d.base_entities.len() as u64);
        for &c in &d.base_entities {
            w.u64(c);
        }
        w.string(&d.base_artifact);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

/// A validated view of one array within the mapping: absolute byte
/// offset plus element count.
#[derive(Clone, Copy, Debug, Default)]
struct ArrayRef {
    off: usize,
    count: usize,
}

/// One entry of the artifact's section table (exposed for inspection).
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// Section id.
    pub id: u32,
    /// Absolute byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

#[derive(Debug, Default)]
struct Layout {
    // vocab
    n_words: usize,
    word_name_offsets: ArrayRef,
    word_names: ArrayRef,
    word_sorted: ArrayRef,
    // entities
    n_types: usize,
    type_name_offsets: ArrayRef,
    type_names: ArrayRef,
    type_bounds: ArrayRef,
    ent_name_offsets: ArrayRef,
    ent_names: ArrayRef,
    // docs
    n_docs: usize,
    doc_tok_bounds: ArrayRef,
    doc_tokens: ArrayRef,
    // topics
    n_topics: usize,
    parent: ArrayRef,
    level: ArrayRef,
    rho: ArrayRef,
    child_bounds: ArrayRef,
    children: ArrayRef,
    path_offsets: ArrayRef,
    paths: ArrayRef,
    // phrases
    phrase_topic_bounds: ArrayRef,
    phrase_tok_bounds: ArrayRef,
    phrase_tokens: ArrayRef,
    phrase_scores: ArrayRef,
    phrase_freqs: ArrayRef,
    // topic entities
    te_cell_bounds: ArrayRef,
    te_entry_bounds: ArrayRef,
    te_ids: ArrayRef,
    te_scores: ArrayRef,
    // phrase-topic freq
    ptf_topic_bounds: ArrayRef,
    ptf_tok_bounds: ArrayRef,
    ptf_tokens: ArrayRef,
    ptf_freqs: ArrayRef,
    // doc-topic
    dt_row_bounds: ArrayRef,
    dt_values: ArrayRef,
    // doc ids
    doc_ids: ArrayRef,
    // doc facts, one row per global document
    n_fact_rows: usize,
    fact_link_bounds: ArrayRef,
    /// Flattened `(etype, id)` pairs: two u32 per link.
    fact_links: ArrayRef,
    fact_leaves: ArrayRef,
    fact_years: ArrayRef,
    fact_year_known: ArrayRef,
    // cold (raw bytes)
    cold: ArrayRef,
    // delta lineage (absent on compacted full artifacts)
    delta: Option<DeltaInfo>,
}

/// Bounds-checked sequential reader over one section of the mapping.
struct Cursor<'m> {
    map: &'m Mapping,
    /// Offset of the section, where its count mismatches are reported.
    start: usize,
    pos: usize,
    end: usize,
}

impl<'m> Cursor<'m> {
    fn new(map: &'m Mapping, off: usize, len: usize) -> Self {
        Cursor { map, start: off, pos: off, end: off + len }
    }

    fn align(&mut self, a: usize) -> Result<(), SnapshotError> {
        let next = self.pos.div_ceil(a) * a;
        if next > self.end {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                needed: next - self.pos,
                available: self.end - self.pos,
            });
        }
        self.pos = next;
        Ok(())
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let r = self.array(1, 8, 8, "scalar")?;
        Ok(self.map.view_u64(r.off, 1)[0])
    }

    fn count(&mut self, what: &str) -> Result<usize, SnapshotError> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: format!("{what} count {v} overflows usize"),
        })
    }

    /// Reads a count that must equal `expected`, the count of the
    /// section this one is parallel to.
    fn count_eq(&mut self, what: &str, expected: usize) -> Result<usize, SnapshotError> {
        let n = self.count(what)?;
        if n != expected {
            return Err(SnapshotError::Malformed {
                offset: self.start,
                what: format!("{what}: section has {n}, expected {expected}"),
            });
        }
        Ok(n)
    }

    /// Claims an array of `count` elements of `elem` bytes each, aligned
    /// to `align`, and advances past it.
    fn array(
        &mut self,
        count: usize,
        elem: usize,
        align: usize,
        what: &str,
    ) -> Result<ArrayRef, SnapshotError> {
        self.align(align)?;
        let end = count.checked_mul(elem).and_then(|bytes| self.pos.checked_add(bytes));
        match end {
            Some(end) if end <= self.end => {
                let r = ArrayRef { off: self.pos, count };
                self.pos = end;
                Ok(r)
            }
            Some(end) => Err(SnapshotError::Truncated {
                offset: self.pos,
                needed: end - self.pos,
                available: self.end - self.pos,
            }),
            None => Err(SnapshotError::Malformed {
                offset: self.pos,
                what: format!("{what} length overflows"),
            }),
        }
    }

    /// Claims the `n + 1` prefix sums that split an array into `n` runs,
    /// checks that they start at 0 and never decrease, and returns them
    /// with the total they end at: the length of the array they split.
    fn bounds(&mut self, n: usize, what: &str) -> Result<(ArrayRef, usize), SnapshotError> {
        let count = n.checked_add(1).ok_or_else(|| SnapshotError::Malformed {
            offset: self.pos,
            what: format!("{what} count overflows"),
        })?;
        let r = self.array(count, 8, 8, what)?;
        let v = self.map.view_u64(r.off, r.count);
        if v[0] != 0 {
            return Err(SnapshotError::Malformed {
                offset: r.off,
                what: format!("{what} bounds do not start at 0"),
            });
        }
        if v.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotError::Malformed {
                offset: r.off,
                what: format!("{what} bounds are not monotonic"),
            });
        }
        let total = usize::try_from(v[n]).map_err(|_| SnapshotError::Malformed {
            offset: r.off,
            what: format!("{what} total length overflows usize"),
        })?;
        Ok((r, total))
    }

    /// Claims a byte arena split by `offsets` (from [`Cursor::bounds`])
    /// and checks that every entry is valid UTF-8, so string accessors
    /// can be infallible.
    fn utf8_arena(
        &mut self,
        offsets: ArrayRef,
        len: usize,
        what: &str,
    ) -> Result<ArrayRef, SnapshotError> {
        let arena = self.array(len, 1, 1, what)?;
        let offs = self.map.view_u64(offsets.off, offsets.count);
        let bytes = &self.map.bytes()[arena.off..arena.off + arena.count];
        for w in offs.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            if std::str::from_utf8(&bytes[a..b]).is_err() {
                return Err(SnapshotError::Malformed {
                    offset: arena.off + a,
                    what: format!("{what} arena entry is not valid UTF-8"),
                });
            }
        }
        Ok(arena)
    }

    // Packed readers (`get_*`, no alignment) for what the packed writers
    // wrote. A sequence claims its whole extent at once, so a hostile
    // length fails before anything is allocated.

    /// Claims the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'m [u8], SnapshotError> {
        let r = self.array(n, 1, 1, "packed bytes")?;
        Ok(&self.map.bytes()[r.off..r.off + r.count])
    }

    fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(le_u32(self.take(4)?))
    }

    fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(le_u64(self.take(8)?))
    }

    fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length prefix for `n` items of at least `min` bytes each,
    /// rejecting one the rest of the section cannot hold.
    fn get_len(&mut self, min: usize) -> Result<usize, SnapshotError> {
        let at = self.pos;
        let raw = self.get_u64()?;
        let n = usize::try_from(raw).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: format!("length {raw} overflows usize"),
        })?;
        let needed = n.saturating_mul(min);
        if needed > self.end - self.pos {
            return Err(SnapshotError::Truncated {
                offset: at,
                needed,
                available: self.end - self.pos,
            });
        }
        Ok(n)
    }

    fn get_string(&mut self, what: &str) -> Result<String, SnapshotError> {
        let n = self.get_len(1)?;
        let at = self.pos;
        let bytes = self.take(n)?;
        let s = std::str::from_utf8(bytes).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: format!("{what} is not valid UTF-8"),
        })?;
        Ok(s.to_string())
    }

    fn get_u32_seq(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.get_len(4)?;
        Ok(self.take(4 * n)?.chunks_exact(4).map(le_u32).collect())
    }

    fn get_f64_seq(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.get_len(8)?;
        Ok(self.take(8 * n)?.chunks_exact(8).map(|b| f64::from_bits(le_u64(b))).collect())
    }

    fn get_f64_rows(&mut self) -> Result<Vec<Vec<f64>>, SnapshotError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_f64_seq()).collect()
    }

    fn get_option<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        let at = self.pos;
        match self.take(1)?[0] {
            0 => Ok(None),
            1 => get(self).map(Some),
            tag => Err(SnapshotError::Malformed {
                offset: at,
                what: format!("invalid Option tag {tag}"),
            }),
        }
    }
}

/// A v2 snapshot backed by a memory mapping, read through its
/// [`ModelView`] impl. Every read borrows typed views directly from the
/// mapping and is infallible: every invariant it relies on was validated
/// once at load time.
#[derive(Debug)]
pub struct MappedSnapshot {
    map: Arc<Mapping>,
    layout: Layout,
    sections: Vec<SectionInfo>,
    /// Built on the first search, never at load, and dropped with the
    /// snapshot (so a hot-swap retires it with the old model).
    search_index: OnceLock<SearchIndex>,
}

impl MappedSnapshot {
    /// Maps and validates the artifact at `path`.
    pub fn open(path: &str) -> Result<Self, SnapshotError> {
        Self::from_mapping(Mapping::open(path)?)
    }

    /// Copies `bytes` into an aligned buffer and validates them. Accepts
    /// arbitrarily (mis)aligned input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::from_mapping(Mapping::from_bytes(bytes))
    }

    fn from_mapping(map: Mapping) -> Result<Self, SnapshotError> {
        let len = map.len();
        check_header(map.bytes())?;
        if len < HEADER_LEN + 8 {
            return Err(SnapshotError::Truncated {
                offset: 8,
                needed: HEADER_LEN + 8,
                available: len,
            });
        }
        let body_len = len - 8;
        if !body_len.is_multiple_of(8) {
            return Err(SnapshotError::Malformed {
                offset: body_len,
                what: format!("body length {body_len} is not a multiple of 8"),
            });
        }
        let stored = le_u64(&map.bytes()[body_len..]);
        let actual = checksum_words(map.view_u64(0, body_len / 8));
        if stored != actual {
            return Err(SnapshotError::ChecksumMismatch { expected: stored, actual });
        }

        let sections = parse_section_table(&map, body_len)?;
        let mut layout = Layout::default();
        for section in &SECTIONS {
            let Some(entry) = sections.iter().find(|s| s.id == section.id) else {
                if section.optional {
                    continue;
                }
                return Err(SnapshotError::Malformed {
                    offset: HEADER_LEN,
                    what: format!("missing section {} ({})", section.id, section.name),
                });
            };
            let mut cursor = Cursor::new(&map, entry.offset as usize, entry.len as usize);
            (section.parse)(&mut cursor, &mut layout)?;
        }

        Ok(MappedSnapshot { map: Arc::new(map), layout, sections, search_index: OnceLock::new() })
    }

    /// Delta lineage for incrementally updated artifacts; `None` on full
    /// (compacted) artifacts.
    pub fn delta_info(&self) -> Option<&DeltaInfo> {
        self.layout.delta.as_ref()
    }

    /// The parsed section table (for `lesm snapshot inspect`).
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Total artifact size in bytes.
    pub fn artifact_len(&self) -> usize {
        self.map.len()
    }

    /// The search postings of this snapshot, built on first use and
    /// memoized for its lifetime (DESIGN.md §9.3).
    pub(crate) fn search_index(&self) -> &SearchIndex {
        self.search_index.get_or_init(|| SearchIndex::build(self))
    }

    fn u64s(&self, r: ArrayRef) -> &[u64] {
        self.map.view_u64(r.off, r.count)
    }
    fn u32s(&self, r: ArrayRef) -> &[u32] {
        self.map.view_u32(r.off, r.count)
    }
    fn f64s(&self, r: ArrayRef) -> &[f64] {
        self.map.view_f64(r.off, r.count)
    }
    fn arena_str(&self, offsets: ArrayRef, arena: ArrayRef, i: usize) -> &str {
        let offs = self.u64s(offsets);
        let (a, b) = (offs[i] as usize, offs[i + 1] as usize);
        let bytes = &self.map.bytes()[arena.off + a..arena.off + b];
        // Validated at load; the fallback keeps the accessor infallible.
        std::str::from_utf8(bytes).unwrap_or("")
    }
    fn span(&self, bounds: ArrayRef, i: usize) -> (usize, usize) {
        let b = self.u64s(bounds);
        (b[i] as usize, b[i + 1] as usize)
    }

    /// Word `id`'s surface form, or `"<unk>"` out of range (matching
    /// [`lesm_corpus::Vocabulary::name_or_unk`]).
    fn word_or_unk(&self, id: u32) -> &str {
        if (id as usize) < self.layout.n_words {
            self.arena_str(self.layout.word_name_offsets, self.layout.word_names, id as usize)
        } else {
            "<unk>"
        }
    }

    /// Document `d`'s topic weight row, at its stored length.
    fn doc_topic_row(&self, d: usize) -> &[f64] {
        let (a, b) = self.span(self.layout.dt_row_bounds, d);
        &self.f64s(self.layout.dt_values)[a..b]
    }

    /// [`ModelView::num_docs`] (shard-local), for callers that do not
    /// import the trait.
    pub fn num_docs(&self) -> usize {
        ModelView::num_docs(self)
    }

    /// [`ModelView::num_topics`], for callers that do not import the
    /// trait.
    pub fn num_topics(&self) -> usize {
        ModelView::num_topics(self)
    }

    // --- full decode (cold path) ---

    /// Fully decodes the artifact into an owned [`Snapshot`] — the only
    /// place the cold section is read. Used by tooling and tests; the
    /// serve hot path never calls this.
    pub fn to_snapshot(&self) -> Result<Snapshot, SnapshotError> {
        let cold = self.layout.cold;
        let mut r = Cursor::new(&self.map, cold.off, cold.count);

        // Hierarchy extras.
        let n_hier_types = r.get_len(8)?;
        let mut type_names = Vec::with_capacity(n_hier_types);
        for _ in 0..n_hier_types {
            type_names.push(r.get_string("hierarchy type name")?);
        }
        let n_cold_topics = r.get_len(8)?;
        if n_cold_topics != self.layout.n_topics {
            return Err(SnapshotError::Malformed {
                offset: r.pos,
                what: format!(
                    "cold section has {n_cold_topics} topics but the topics section has {}",
                    self.layout.n_topics
                ),
            });
        }
        // The root's record (the topics section always holds a root)
        // carries the hierarchy's network; every later record must repeat
        // its node space without the links only the retired layout kept.
        let malformed = |offset, what: &str| SnapshotError::Malformed { offset, what: what.into() };
        let mut phis = vec![r.get_f64_rows()?];
        let network = read_network(&mut r)?;
        if network.type_names != type_names {
            return Err(malformed(cold.off, "hierarchy type names differ from the root network's"));
        }
        for _ in 1..n_cold_topics {
            phis.push(r.get_f64_rows()?);
            let (at, record) = (r.pos, read_network(&mut r)?);
            if record.type_names != network.type_names || record.node_counts != network.node_counts {
                return Err(malformed(at, "a topic's node space differs from the root network's"));
            }
            if !record.blocks.is_empty() {
                return Err(SnapshotError::RetiredLayout { offset: at, what: "links below the root" });
            }
        }
        let topics = (phis.into_iter().enumerate())
            .map(|(t, phi)| HierTopic {
                parent: self.topic_parent(t),
                children: self.topic_children(t).collect(),
                level: self.topic_level(t),
                path: self.topic_path(t).to_string(),
                phi,
                rho: self.topic_rho(t),
            })
            .collect();
        let n_fits = r.get_len(1)?;
        let mut fits = Vec::with_capacity(n_fits);
        for _ in 0..n_fits {
            fits.push(read_fit_option(&mut r)?);
        }
        // The α list repeats each fit's `alpha`; it must match bit for bit.
        let at = r.pos;
        if r.get_len(1)? != fits.len() {
            return Err(malformed(at, "the α list and the fits differ in length"));
        }
        let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for fit in &fits {
            let (at, alpha) = (r.pos, r.get_option(|r| r.get_f64_seq())?);
            if alpha.as_deref().map(bits) != fit.as_ref().map(|f| bits(&f.alpha)) {
                return Err(malformed(at, "an α list entry differs from its fit's alpha"));
            }
        }
        let hierarchy = TopicHierarchy { network, topics, fits };

        // Corpus: hot arenas + cold per-doc extras.
        let mut corpus = Corpus::new();
        for w in 0..crate::wire_u32(self.layout.n_words, "vocab size")? {
            corpus.vocab.intern(self.word_or_unk(w));
        }
        for t in 0..self.num_entity_types() {
            let n = self.num_entities(t);
            let ty = corpus.entities.add_type(self.entity_type_name(t).unwrap_or(""));
            for id in 0..crate::wire_u32(n, "entity count")? {
                corpus.entities.intern(ty, self.entity_name(t, id)).map_err(|e| {
                    SnapshotError::Malformed {
                        offset: cold.off,
                        what: format!("entity intern failed: {e}"),
                    }
                })?;
            }
            // Links were checked against the stored catalog; a decoded
            // catalog that merged repeated names would leave them dangling.
            if corpus.entities.count(ty) != n {
                return Err(SnapshotError::Malformed {
                    offset: self.layout.ent_names.off,
                    what: format!("entity names of type {t} are not distinct"),
                });
            }
        }
        let n_cold_docs = r.get_len(1)?;
        if n_cold_docs != self.layout.n_docs {
            return Err(SnapshotError::Malformed {
                offset: r.pos,
                what: format!(
                    "cold section has {n_cold_docs} docs but the docs section has {}",
                    self.layout.n_docs
                ),
            });
        }
        for d in 0..n_cold_docs {
            let g = self.doc_id(d) as usize;
            let entities = self.global_doc_links(g).collect();
            let label = r.get_option(|r| r.get_u32())?;
            let year = self.global_doc_year(g);
            corpus.docs.push(Doc { tokens: self.doc_tokens(d).to_vec(), entities, label, year });
        }

        // Segments.
        let n_seg_docs = r.get_len(8)?;
        let mut segments = Vec::with_capacity(n_seg_docs);
        for _ in 0..n_seg_docs {
            let n = r.get_len(8)?;
            let mut doc_segs = Vec::with_capacity(n);
            for _ in 0..n {
                doc_segs.push(r.get_u32_seq()?);
            }
            segments.push(doc_segs);
        }

        // Hot structure arrays back into owned form.
        let topic_phrases = (0..self.num_topics())
            .map(|t| {
                self.topic_phrases(t)
                    .map(|(tokens, score, topic_freq)| lesm_phrases::TopicalPhrase {
                        tokens: tokens.to_vec(),
                        score,
                        topic_freq,
                    })
                    .collect()
            })
            .collect();
        let topic_entities = (0..self.num_topics())
            .map(|t| (0..self.entity_cells(t)).map(|x| self.topic_entities(t, x).collect()).collect())
            .collect();
        let phrase_topic_freq = (0..self.num_topics())
            .map(|t| self.ptf_entries(t).map(|(tokens, freq)| (tokens.to_vec(), freq)).collect())
            .collect();
        let doc_topic =
            (0..self.num_docs()).map(|d| self.doc_topic_row(d).to_vec()).collect();

        Ok(Snapshot {
            corpus,
            mined: MinedStructure {
                hierarchy,
                topic_phrases,
                topic_entities,
                phrase_topic_freq,
                segments,
                doc_topic,
            },
        })
    }
}

fn read_network(r: &mut Cursor<'_>) -> Result<TypedNetwork, SnapshotError> {
    let n_types = r.get_len(8)?;
    let mut type_names = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        type_names.push(r.get_string("network type name")?);
    }
    let n_counts = r.get_len(8)?;
    if n_counts != n_types {
        return Err(SnapshotError::Malformed {
            offset: r.pos,
            what: format!("network has {n_types} type names but {n_counts} node counts"),
        });
    }
    let mut node_counts = Vec::with_capacity(n_counts);
    for _ in 0..n_counts {
        node_counts.push(r.get_u64()? as usize);
    }
    let n_blocks = r.get_len(8)?;
    let mut net = TypedNetwork::new(type_names, node_counts);
    for _ in 0..n_blocks {
        let tx = r.get_u64()? as usize;
        let ty = r.get_u64()? as usize;
        let n_edges = r.get_len(16)?;
        let edges = r.take(16 * n_edges)?.chunks_exact(16);
        let edges = edges.map(|e| (le_u32(e), le_u32(&e[4..]), f64::from_bits(le_u64(&e[8..]))));
        net.blocks.push(LinkBlock { tx, ty, edges: edges.collect() });
    }
    net.validate().map_err(|e| SnapshotError::Malformed {
        offset: r.pos,
        what: format!("invalid network: {e}"),
    })?;
    Ok(net)
}

/// Reads one fit slot: a tag byte, then the record when the tag is
/// [`FIT_TAG`]. A tag of [`RETIRED_FIT_TAGS`] marks a record of a retired
/// layout, whose extra fields would shift every later one, so it is a
/// typed [`SnapshotError::RetiredLayout`].
fn read_fit_option(r: &mut Cursor<'_>) -> Result<Option<EmFit>, SnapshotError> {
    let at = r.pos;
    match r.take(1)?[0] {
        0 => Ok(None),
        FIT_TAG => read_fit(r).map(Some),
        tag if RETIRED_FIT_TAGS.contains(&tag) => {
            Err(SnapshotError::RetiredLayout { offset: at, what: "an EM fit record" })
        }
        tag => Err(SnapshotError::Malformed {
            offset: at,
            what: format!("invalid fit record tag {tag}"),
        }),
    }
}

fn read_fit(r: &mut Cursor<'_>) -> Result<EmFit, SnapshotError> {
    let k = r.get_u64()? as usize;
    let n_types = r.get_len(8)?;
    let phi = (0..n_types).map(|_| r.get_f64_rows()).collect::<Result<_, _>>()?;
    let at = r.pos;
    let background = match r.take(1)?[0] {
        0 => false,
        1 => true,
        flag => {
            return Err(SnapshotError::Malformed {
                offset: at,
                what: format!("invalid background flag {flag}"),
            })
        }
    };
    let rho = r.get_f64_seq()?;
    let alpha = r.get_f64_seq()?;
    let theta = r.get_f64_seq()?;
    let objective = r.get_f64()?;
    let parent_phi = r.get_f64_rows()?;
    Ok(EmFit {
        k,
        phi,
        background,
        rho,
        alpha,
        theta,
        objective,
        parent_phi: Arc::new(parent_phi),
    })
}

/// The mapped backend of the shared renderers and the query extract:
/// every accessor borrows from the mapping, so search scans documents
/// without allocating.
impl ModelView for MappedSnapshot {
    fn num_topics(&self) -> usize {
        self.layout.n_topics
    }
    fn topic_path(&self, t: usize) -> &str {
        self.arena_str(self.layout.path_offsets, self.layout.paths, t)
    }
    fn topic_parent(&self, t: usize) -> Option<usize> {
        let v = self.u64s(self.layout.parent)[t];
        (v != u64::MAX).then_some(v as usize)
    }
    fn topic_level(&self, t: usize) -> usize {
        self.u64s(self.layout.level)[t] as usize
    }
    fn topic_rho(&self, t: usize) -> f64 {
        self.f64s(self.layout.rho)[t]
    }
    fn topic_children(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        let (a, b) = self.span(self.layout.child_bounds, t);
        self.u64s(self.layout.children)[a..b].iter().map(|&c| c as usize)
    }
    fn topic_phrases(&self, t: usize) -> impl Iterator<Item = (&[u32], f64, f64)> + '_ {
        let (a, b) = self.span(self.layout.phrase_topic_bounds, t);
        (a..b).map(move |p| {
            let (ta, tb) = self.span(self.layout.phrase_tok_bounds, p);
            (
                &self.u32s(self.layout.phrase_tokens)[ta..tb],
                self.f64s(self.layout.phrase_scores)[p],
                self.f64s(self.layout.phrase_freqs)[p],
            )
        })
    }
    fn entity_cells(&self, t: usize) -> usize {
        let (a, b) = self.span(self.layout.te_cell_bounds, t);
        b - a
    }
    fn topic_entities(&self, t: usize, x: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (a, _) = self.span(self.layout.te_cell_bounds, t);
        let (ea, eb) = self.span(self.layout.te_entry_bounds, a + x);
        let scores = &self.f64s(self.layout.te_scores)[ea..eb];
        self.u32s(self.layout.te_ids)[ea..eb].iter().copied().zip(scores.iter().copied())
    }
    /// Entries are stored in ascending phrase-key order.
    fn ptf_entries(&self, t: usize) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        let (a, b) = self.span(self.layout.ptf_topic_bounds, t);
        (a..b).map(move |e| {
            let (ta, tb) = self.span(self.layout.ptf_tok_bounds, e);
            (&self.u32s(self.layout.ptf_tokens)[ta..tb], self.f64s(self.layout.ptf_freqs)[e])
        })
    }
    /// Binary search over the name-sorted id permutation; ties resolve to
    /// the smallest id, matching first-wins interning.
    fn word_id(&self, name: &str) -> Option<u32> {
        let sorted = self.u32s(self.layout.word_sorted);
        let at = sorted.partition_point(|&id| {
            self.arena_str(self.layout.word_name_offsets, self.layout.word_names, id as usize)
                < name
        });
        let &id = sorted.get(at)?;
        let found =
            self.arena_str(self.layout.word_name_offsets, self.layout.word_names, id as usize);
        (found == name).then_some(id)
    }
    fn render_tokens(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.word_or_unk(id));
        }
        out
    }
    fn entity_type_name(&self, x: usize) -> Option<&str> {
        (x < self.layout.n_types)
            .then(|| self.arena_str(self.layout.type_name_offsets, self.layout.type_names, x))
    }
    fn entity_name(&self, x: usize, id: u32) -> &str {
        if x >= self.layout.n_types {
            return "<unk-entity>";
        }
        let (a, b) = self.span(self.layout.type_bounds, x);
        let global = a + id as usize;
        if global >= b {
            return "<unk-entity>";
        }
        self.arena_str(self.layout.ent_name_offsets, self.layout.ent_names, global)
    }
    fn num_entity_types(&self) -> usize {
        self.layout.n_types
    }
    fn num_entities(&self, x: usize) -> usize {
        if x >= self.layout.n_types {
            return 0;
        }
        let (a, b) = self.span(self.layout.type_bounds, x);
        b - a
    }
    fn num_docs(&self) -> usize {
        self.layout.n_docs
    }
    fn doc_tokens(&self, d: usize) -> &[u32] {
        let (a, b) = self.span(self.layout.doc_tok_bounds, d);
        &self.u32s(self.layout.doc_tokens)[a..b]
    }
    fn doc_topic(&self, d: usize, t: usize) -> f64 {
        self.doc_topic_row(d).get(t).copied().unwrap_or(0.0)
    }
    fn doc_id(&self, d: usize) -> u64 {
        self.u64s(self.layout.doc_ids)[d]
    }
    /// The `doc-facts` rows: every document of the model this artifact
    /// was cut from.
    fn num_global_docs(&self) -> usize {
        self.layout.n_fact_rows
    }
    fn global_doc_links(&self, g: usize) -> impl Iterator<Item = EntityRef> + '_ {
        let (a, b) = self.span(self.layout.fact_link_bounds, g);
        self.u32s(self.layout.fact_links)[2 * a..2 * b]
            .chunks_exact(2)
            .map(|p| EntityRef::new(p[0] as usize, p[1]))
    }
    fn global_doc_year(&self, g: usize) -> Option<i32> {
        let known = self.map.bytes()[self.layout.fact_year_known.off + g] == 1;
        known.then(|| i32::from_ne_bytes(self.u32s(self.layout.fact_years)[g].to_ne_bytes()))
    }
    fn global_doc_leaf(&self, g: usize) -> usize {
        self.u32s(self.layout.fact_leaves)[g] as usize
    }
}

/// Checks the magic and the version tag: the header fields every reader
/// needs before anything else.
fn check_header(bytes: &[u8]) -> Result<(), SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated { offset: 0, needed: 8, available: bytes.len() });
    }
    let found = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if found != MAGIC {
        return Err(SnapshotError::BadMagic { found });
    }
    let version = le_u32(&bytes[4..]);
    if version != FORMAT_VERSION_V2 {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION_V2,
        });
    }
    Ok(())
}

/// Entry `i` of the section table, which the caller has checked lies
/// within `bytes`.
fn table_entry(bytes: &[u8], i: usize) -> SectionInfo {
    let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
    SectionInfo {
        id: le_u32(&bytes[at..]),
        offset: le_u64(&bytes[at + 8..]),
        len: le_u64(&bytes[at + 16..]),
    }
}

fn parse_section_table(map: &Mapping, body_len: usize) -> Result<Vec<SectionInfo>, SnapshotError> {
    let bytes = map.bytes();
    let count = le_u32(&bytes[8..]) as usize;
    let table_end = HEADER_LEN.saturating_add(count.saturating_mul(TABLE_ENTRY_LEN));
    if table_end > body_len {
        return Err(SnapshotError::Malformed {
            offset: 8,
            what: format!("section table ({count} entries) extends past the body"),
        });
    }
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let entry = table_entry(bytes, i);
        let SectionInfo { id, offset: off, len } = entry;
        let off_us = usize::try_from(off).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: format!("section {id} offset overflows usize"),
        })?;
        let len_us = usize::try_from(len).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: format!("section {id} length overflows usize"),
        })?;
        if !off_us.is_multiple_of(SECTION_ALIGN) {
            return Err(SnapshotError::Malformed {
                offset: at,
                what: format!("section {id} offset {off} is not {SECTION_ALIGN}-byte aligned"),
            });
        }
        if off_us.saturating_add(len_us) > body_len {
            return Err(SnapshotError::Malformed {
                offset: at,
                what: format!("section {id} extends past the artifact body"),
            });
        }
        sections.push(entry);
    }
    Ok(sections)
}

fn parse_vocab(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    l.n_words = c.count("vocab")?;
    let arena_len;
    (l.word_name_offsets, arena_len) = c.bounds(l.n_words, "vocab name")?;
    l.word_names = c.utf8_arena(l.word_name_offsets, arena_len, "vocab name")?;
    l.word_sorted = c.array(l.n_words, 4, 4, "vocab sorted ids")?;
    // The sorted array must be a permutation of 0..n in nondecreasing
    // name order for binary-search lookups to be correct.
    let map = c.map;
    let sorted = map.view_u32(l.word_sorted.off, l.word_sorted.count);
    let mut seen = vec![false; l.n_words];
    for &id in sorted {
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ => {
                return Err(SnapshotError::Malformed {
                    offset: l.word_sorted.off,
                    what: format!("vocab sorted ids are not a permutation (id {id})"),
                })
            }
        }
    }
    let offs = map.view_u64(l.word_name_offsets.off, l.word_name_offsets.count);
    let arena = &map.bytes()[l.word_names.off..l.word_names.off + l.word_names.count];
    let name_of = |id: u32| &arena[offs[id as usize] as usize..offs[id as usize + 1] as usize];
    if sorted.windows(2).any(|w| name_of(w[0]) > name_of(w[1])) {
        return Err(SnapshotError::Malformed {
            offset: l.word_sorted.off,
            what: "vocab sorted ids are not in name order".into(),
        });
    }
    Ok(())
}

fn parse_entities(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    l.n_types = c.count("entity types")?;
    let (type_name_len, n_entities, name_len);
    (l.type_name_offsets, type_name_len) = c.bounds(l.n_types, "entity type name")?;
    l.type_names = c.utf8_arena(l.type_name_offsets, type_name_len, "entity type name")?;
    (l.type_bounds, n_entities) = c.bounds(l.n_types, "entity type")?;
    (l.ent_name_offsets, name_len) = c.bounds(n_entities, "entity name")?;
    l.ent_names = c.utf8_arena(l.ent_name_offsets, name_len, "entity name")?;
    Ok(())
}

fn parse_docs(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    l.n_docs = c.count("docs")?;
    let n_tokens;
    (l.doc_tok_bounds, n_tokens) = c.bounds(l.n_docs, "doc token")?;
    l.doc_tokens = c.array(n_tokens, 4, 4, "doc tokens")?;
    Ok(())
}

fn parse_topics(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let n = c.count("topics")?;
    l.n_topics = n;
    l.parent = c.array(n, 8, 8, "topic parents")?;
    l.level = c.array(n, 8, 8, "topic levels")?;
    l.rho = c.array(n, 8, 8, "topic rho")?;
    let (n_children, path_len);
    (l.child_bounds, n_children) = c.bounds(n, "topic child")?;
    l.children = c.array(n_children, 8, 8, "topic children")?;
    (l.path_offsets, path_len) = c.bounds(n, "topic path")?;
    l.paths = c.utf8_arena(l.path_offsets, path_len, "topic path")?;

    // The links must form one tree rooted at topic 0: the root has no
    // parent, every other topic's parent comes before it, and every
    // topic but the root is listed exactly once, as a child of its
    // parent. Subtree walks, the hierarchy export and shard assignment's
    // climb to level 1 rely on it to stay in range and to terminate.
    let map = c.map;
    let parent = map.view_u64(l.parent.off, n);
    let bounds = map.view_u64(l.child_bounds.off, n + 1);
    let children = map.view_u64(l.children.off, n_children);
    let not_a_tree = |why: String| SnapshotError::Malformed {
        offset: c.start,
        what: format!("topic links do not form a tree rooted at topic 0: {why}"),
    };
    if parent.first() != Some(&u64::MAX) {
        return Err(not_a_tree("topic 0 is missing or has a parent".into()));
    }
    if let Some((t, p)) = parent.iter().enumerate().skip(1).find(|&(t, &p)| p >= t as u64) {
        return Err(not_a_tree(format!("topic {t} has parent {p}, not an earlier topic")));
    }
    if n_children != n - 1 {
        return Err(not_a_tree(format!("{n_children} child links for {n} topics")));
    }
    let mut listed = vec![false; n];
    for t in 0..n {
        for &child in &children[bounds[t] as usize..bounds[t + 1] as usize] {
            let slot =
                usize::try_from(child).ok().filter(|&ch| parent.get(ch) == Some(&(t as u64)));
            match slot.and_then(|ch| listed.get_mut(ch)) {
                Some(seen) if !*seen => *seen = true,
                _ => return Err(not_a_tree(format!("topic {t} lists child {child}"))),
            }
        }
    }
    Ok(())
}

fn parse_phrases(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let n = c.count_eq("phrase topics", l.n_topics)?;
    let (n_phrases, n_tokens);
    (l.phrase_topic_bounds, n_phrases) = c.bounds(n, "phrase")?;
    (l.phrase_tok_bounds, n_tokens) = c.bounds(n_phrases, "phrase token")?;
    l.phrase_tokens = c.array(n_tokens, 4, 4, "phrase tokens")?;
    l.phrase_scores = c.array(n_phrases, 8, 8, "phrase scores")?;
    l.phrase_freqs = c.array(n_phrases, 8, 8, "phrase freqs")?;
    Ok(())
}

fn parse_topic_entities(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let n = c.count_eq("topic-entity topics", l.n_topics)?;
    let (n_cells, n_entries);
    (l.te_cell_bounds, n_cells) = c.bounds(n, "topic-entity cell")?;
    (l.te_entry_bounds, n_entries) = c.bounds(n_cells, "topic-entity entry")?;
    l.te_ids = c.array(n_entries, 4, 4, "topic-entity ids")?;
    l.te_scores = c.array(n_entries, 8, 8, "topic-entity scores")?;
    Ok(())
}

fn parse_ptf(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let n = c.count_eq("phrase-freq topics", l.n_topics)?;
    let (n_entries, n_tokens);
    (l.ptf_topic_bounds, n_entries) = c.bounds(n, "phrase-freq entry")?;
    (l.ptf_tok_bounds, n_tokens) = c.bounds(n_entries, "phrase-freq token")?;
    l.ptf_tokens = c.array(n_tokens, 4, 4, "phrase-freq tokens")?;
    l.ptf_freqs = c.array(n_entries, 8, 8, "phrase-freq freqs")?;
    // Entries must be in strictly ascending phrase-key order within each
    // topic: the query path sums them in stored order and must match the
    // owned collect-then-sort order bit for bit.
    let map = c.map;
    let tb = map.view_u64(l.ptf_topic_bounds.off, n + 1);
    let eb = map.view_u64(l.ptf_tok_bounds.off, n_entries + 1);
    let toks = map.view_u32(l.ptf_tokens.off, n_tokens);
    for t in 0..n {
        for e in tb[t] as usize..(tb[t + 1] as usize).saturating_sub(1) {
            let a = &toks[eb[e] as usize..eb[e + 1] as usize];
            let b = &toks[eb[e + 1] as usize..eb[e + 2] as usize];
            if a >= b {
                return Err(SnapshotError::Malformed {
                    offset: l.ptf_tokens.off,
                    what: format!("phrase-freq entries of topic {t} are not sorted"),
                });
            }
        }
    }
    Ok(())
}

fn parse_doc_topic(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let n = c.count_eq("doc-topic rows", l.n_docs)?;
    let n_values;
    (l.dt_row_bounds, n_values) = c.bounds(n, "doc-topic value")?;
    l.dt_values = c.array(n_values, 8, 8, "doc-topic values")?;
    // One weight per topic in every row: the decoded model's leaf lookup
    // indexes each row by topic id.
    let rows = c.map.view_u64(l.dt_row_bounds.off, n + 1);
    if let Some(d) = rows.windows(2).position(|w| w[1] - w[0] != l.n_topics as u64) {
        return Err(SnapshotError::Malformed {
            offset: l.dt_row_bounds.off,
            what: format!("doc-topic row {d} does not hold one weight per topic ({})", l.n_topics),
        });
    }
    Ok(())
}

fn parse_doc_ids(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let n = c.count_eq("doc ids", l.n_docs)?;
    l.doc_ids = c.array(n, 8, 8, "doc ids")?;
    Ok(())
}

/// Claims the doc-facts rows and checks every reference in them: each
/// link names a known entity type and an id inside that type's catalog,
/// each leaf is a leaf topic, each year flag is 0 or 1, and every
/// document of this artifact has a row.
fn parse_doc_facts(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let n = c.count("doc-facts rows")?;
    l.n_fact_rows = n;
    let n_links;
    (l.fact_link_bounds, n_links) = c.bounds(n, "doc-facts link")?;
    let links = c.array(n_links, 8, 4, "doc-facts links")?;
    l.fact_links = ArrayRef { off: links.off, count: 2 * n_links };
    l.fact_leaves = c.array(n, 4, 4, "doc-facts leaves")?;
    l.fact_years = c.array(n, 4, 4, "doc-facts years")?;
    l.fact_year_known = c.array(n, 1, 1, "doc-facts year flags")?;

    let map = c.map;
    let bad = |offset: usize, what: String| SnapshotError::Malformed { offset, what };
    let type_bounds = map.view_u64(l.type_bounds.off, l.n_types + 1);
    let pairs = map.view_u32(l.fact_links.off, l.fact_links.count);
    for (i, pair) in pairs.chunks_exact(2).enumerate() {
        let (t, id) = (pair[0] as usize, u64::from(pair[1]));
        let at = links.off + 8 * i;
        if t >= l.n_types {
            return Err(bad(at, format!("entity type {t} out of range ({} types)", l.n_types)));
        }
        let known = type_bounds[t + 1] - type_bounds[t];
        if id >= known {
            return Err(bad(at, format!("entity {id} of type {t} out of range ({known} entities)")));
        }
    }
    let child_bounds = map.view_u64(l.child_bounds.off, l.n_topics + 1);
    let leaves = map.view_u32(l.fact_leaves.off, n);
    let not_leaf = |t: usize| t >= l.n_topics || child_bounds[t] != child_bounds[t + 1];
    if let Some(g) = leaves.iter().position(|&t| not_leaf(t as usize)) {
        return Err(bad(l.fact_leaves.off + 4 * g, format!("row {g}'s leaf is not a leaf topic")));
    }
    let flags = &map.bytes()[l.fact_year_known.off..l.fact_year_known.off + n];
    if let Some(g) = flags.iter().position(|&f| f > 1) {
        return Err(bad(l.fact_year_known.off + g, format!("row {g}'s year flag is not 0 or 1")));
    }
    let doc_ids = map.view_u64(l.doc_ids.off, l.n_docs);
    if let Some(d) = doc_ids.iter().position(|&g| g >= n as u64) {
        return Err(bad(
            l.doc_ids.off + 8 * d,
            format!("doc id {} points past the last doc-facts row ({n} rows)", doc_ids[d]),
        ));
    }
    Ok(())
}

/// The cold section is only claimed here; [`MappedSnapshot::to_snapshot`]
/// decodes and checks it.
fn parse_cold(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    l.cold = c.array(c.end - c.pos, 1, 1, "cold")?;
    Ok(())
}

/// Decodes the delta lineage and checks its base ranges against the
/// artifact's own (superset) ranges.
fn parse_delta(c: &mut Cursor<'_>, l: &mut Layout) -> Result<(), SnapshotError> {
    let base_docs = c.u64()?;
    let base_words = c.u64()?;
    let chain_depth = c.u64()?;
    if chain_depth == 0 {
        return Err(SnapshotError::Malformed {
            offset: c.start,
            what: "delta lineage chain depth is 0".to_string(),
        });
    }
    if base_docs > l.n_docs as u64 || base_words > l.n_words as u64 {
        return Err(SnapshotError::Malformed {
            offset: c.start,
            what: format!(
                "delta lineage base ranges ({base_docs} docs, {base_words} words) exceed \
                 the artifact's ({} docs, {} words)",
                l.n_docs, l.n_words
            ),
        });
    }
    let nt = c.count_eq("delta lineage entity types", l.n_types)?;
    let counts = c.array(nt, 8, 8, "delta lineage entity counts")?;
    let base_entities: Vec<u64> = c.map.view_u64(counts.off, nt).to_vec();
    let type_bounds = c.map.view_u64(l.type_bounds.off, nt + 1);
    for (t, &have) in base_entities.iter().enumerate() {
        let total = type_bounds[t + 1] - type_bounds[t];
        if have > total {
            return Err(SnapshotError::Malformed {
                offset: counts.off,
                what: format!(
                    "delta lineage base entity count {have} for type {t} exceeds the \
                     artifact's {total}"
                ),
            });
        }
    }
    let base_artifact = c.get_string("delta lineage base name")?;
    l.delta = Some(DeltaInfo { base_artifact, base_docs, base_words, base_entities, chain_depth });
    Ok(())
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// Renders a deterministic human-readable description of an artifact:
/// format version, size, checksum status, and the section table with
/// offsets, lengths, and offset alignment. Works on artifacts too
/// damaged to load; only a bad magic or an unsupported version fails.
pub fn describe_artifact(bytes: &[u8]) -> Result<String, SnapshotError> {
    use std::fmt::Write as _;
    check_header(bytes)?;
    let mut out = String::new();
    let _ = writeln!(out, "format version: {FORMAT_VERSION_V2}");
    let _ = writeln!(out, "size: {} bytes", bytes.len());
    if bytes.len() < 16 {
        let _ = writeln!(out, "checksum: <artifact too short>");
        return Ok(out);
    }
    let trailer_at = bytes.len() - 8;
    let stored = le_u64(&bytes[trailer_at..]);
    let checksum_ok = trailer_at.is_multiple_of(8) && body_checksum(&bytes[..trailer_at]) == stored;
    let _ =
        writeln!(out, "checksum: {stored:#018x} ({})", if checksum_ok { "ok" } else { "MISMATCH" });
    let count = le_u32(&bytes[8..]) as usize;
    let _ = writeln!(out, "sections: {count}");
    let _ = writeln!(
        out,
        "  {:>3}  {:<18} {:>12} {:>12} {:>6}",
        "id", "name", "offset", "length", "align"
    );
    for i in 0..count {
        if HEADER_LEN + (i + 1) * TABLE_ENTRY_LEN > trailer_at {
            let _ = writeln!(out, "  <table truncated at entry {i}>");
            break;
        }
        let SectionInfo { id, offset: off, len } = table_entry(bytes, i);
        let name = SECTIONS.iter().find(|s| s.id == id).map_or("unknown", |s| s.name);
        let align = if off == 0 { 1 } else { 1u64 << off.trailing_zeros().min(6) };
        let _ = writeln!(out, "  {id:>3}  {name:<18} {off:>12} {len:>12} {align:>6}");
    }
    Ok(out)
}

/// Renders [`describe_artifact`] for the file at `path`, prefixed with
/// the file name.
pub fn describe_artifact_file(path: &str) -> Result<String, SnapshotError> {
    let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
    Ok(format!("file: {path}\n{}", describe_artifact(&bytes)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesm_core::export::{hierarchy_to_json, render_topic};
    use lesm_core::search::{render_hits, search};
    use lesm_corpus::synth::{HierarchySpec, PapersConfig, SyntheticPapers};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A small model saved with lineage, so every section is present.
    /// The tree keeps two levels below the root; vocabulary and entity
    /// pools are cut down so the crafted-word run takes a few seconds in
    /// a debug build.
    fn fixture() -> (Corpus, MinedStructure, Vec<u8>) {
        let mut config = PapersConfig::dblp(20, 5);
        config.hierarchy = HierarchySpec {
            branching: vec![3, 2],
            words_per_topic: 6,
            phrases_per_topic: 2,
            background_words: 12,
            zipf_s: 1.0,
        };
        config.entity_specs[0].pool_per_node = 3;
        config.entity_specs[0].shared_pool = 2;
        config.entity_specs[1].pool_per_node = 2;
        let papers = SyntheticPapers::generate(&config).expect("synth corpus");
        let mut mined = lesm_core::model_from_truth(&papers);
        let corpus = papers.corpus;
        let entities = &corpus.entities;
        // A root fit and root links, so the crafted words also land in
        // the cold section's network and fit records.
        let h = &mut mined.hierarchy;
        let counts = h.network.node_counts.clone();
        let (k, types) = (h.topics[0].children.len(), counts.len());
        let rows = |v: f64| counts.iter().map(|&n| vec![v; n]).collect::<Vec<_>>();
        let links = vec![(0, 0, 2.0), (1, 1, 0.5)];
        h.network.blocks.push(LinkBlock { tx: 0, ty: 1, edges: links });
        h.fits[0] = Some(EmFit {
            k,
            phi: (0..types).map(|x| vec![vec![0.25; counts[x]]; k]).collect(),
            background: true,
            rho: vec![1.0 / (k + 1) as f64; k + 1],
            alpha: vec![1.0; types * types],
            theta: vec![0.25; types * types],
            objective: -3.5,
            parent_phi: Arc::new(rows(0.125)),
        });
        let lineage = DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: corpus.docs.len() as u64 / 2,
            base_words: corpus.vocab.len() as u64 / 2,
            base_entities: (0..entities.num_types())
                .map(|t| entities.count(t) as u64 / 2)
                .collect(),
            chain_depth: 2,
        };
        let bytes = save_snapshot_v2_with_lineage(&corpus, &mined, None, Some(&lineage))
            .expect("save fixture");
        (corpus, mined, bytes)
    }

    /// Byte offset and length of section `id`.
    fn locate(bytes: &[u8], id: u32) -> (usize, usize) {
        let count = le_u32(&bytes[8..]) as usize;
        let entry = (0..count).map(|i| table_entry(bytes, i)).find(|e| e.id == id);
        let entry = entry.expect("section present");
        (entry.offset as usize, entry.len as usize)
    }

    /// `bytes` with the word at byte offset `at` replaced by `value` and
    /// the checksum recomputed, so only the loader's validation stands
    /// between the crafted word and the accessors.
    fn craft(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let body = out.len() - 8;
        let sum = body_checksum(&out[..body]);
        out[body..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// A retired fit record layout.
    #[derive(Debug, Clone, Copy)]
    enum Retired {
        /// Tag 1: `φ0` rows, an objective trace, then this log-likelihood.
        Loglik(f64),
        /// Tag 2: `φ0` rows and an objective trace.
        Trace,
    }

    impl Retired {
        fn tag(self) -> u8 {
            match self {
                Retired::Loglik(_) => RETIRED_FIT_TAGS[0],
                Retired::Trace => RETIRED_FIT_TAGS[1],
            }
        }
    }

    /// Writes `fit` as a record of the `retired` layout, tag included: its
    /// `φ0` rows are the parent importance (zeros without the background)
    /// and its trace is the one final objective.
    fn write_retired_fit(w: &mut ArenaWriter, fit: &EmFit, retired: Retired) {
        w.u8(retired.tag());
        w.u64(fit.k as u64);
        w.u64(fit.phi.len() as u64);
        for per_type in &fit.phi {
            w.f64_rows(per_type);
        }
        let zeros = |row: &Vec<f64>| vec![0.0; row.len()];
        let phi0: Vec<Vec<f64>> = if fit.background {
            fit.parent_phi.to_vec()
        } else {
            fit.parent_phi.iter().map(zeros).collect()
        };
        w.f64_rows(&phi0);
        w.f64_seq(&fit.rho);
        w.f64_seq(&fit.alpha);
        w.f64_seq(&fit.theta);
        w.f64(fit.objective);
        w.f64_seq(&[fit.objective]);
        if let Retired::Loglik(loglik) = retired {
            w.f64(loglik);
        }
        w.f64_rows(&fit.parent_phi);
    }

    /// A `cold` section of `corpus` and `mined` with `names` as the
    /// hierarchy type names, `records[t]` as topic `t`'s network record
    /// (its links written when the flag is set) and `alphas` as the α
    /// list. With `retired`, every fit is written in that retired layout.
    fn crafted_cold(
        corpus: &Corpus,
        mined: &MinedStructure,
        names: &[String],
        records: &[(&TypedNetwork, bool)],
        alphas: &[Option<&Vec<f64>>],
        retired: Option<Retired>,
    ) -> Vec<u8> {
        let h = &mined.hierarchy;
        let mut w = ArenaWriter { buf: Vec::new() };
        w.u64(names.len() as u64);
        for name in names {
            w.string(name);
        }
        w.u64(h.topics.len() as u64);
        for (topic, &(net, with_links)) in h.topics.iter().zip(records) {
            w.f64_rows(&topic.phi);
            write_network(&mut w, net, with_links);
        }
        w.u64(h.fits.len() as u64);
        for fit in &h.fits {
            match (fit, retired) {
                (None, _) => w.u8(0),
                (Some(fit), None) => {
                    w.u8(FIT_TAG);
                    write_fit(&mut w, fit);
                }
                (Some(fit), Some(retired)) => write_retired_fit(&mut w, fit, retired),
            }
        }
        w.u64(alphas.len() as u64);
        for &alpha in alphas {
            w.option(alpha, |w, a| w.f64_seq(a));
        }
        w.u64(corpus.docs.len() as u64);
        for doc in &corpus.docs {
            w.option(doc.label.as_ref(), |w, &l| w.u32(l));
        }
        w.u64(corpus.docs.len() as u64);
        for doc_segs in &mined.segments {
            w.u64(doc_segs.len() as u64);
            for seg in doc_segs {
                w.u32_seq(seg);
            }
        }
        w.buf
    }

    /// The records [`write_cold`] writes for `mined`: the root's network
    /// with its links, then its node space alone for every other topic.
    fn stored_records(mined: &MinedStructure) -> Vec<(&TypedNetwork, bool)> {
        let h = &mined.hierarchy;
        (0..h.topics.len()).map(|t| (&h.network, t == 0)).collect()
    }

    /// The α list [`write_cold`] writes for `mined`: each fit's `alpha`.
    fn stored_alphas(mined: &MinedStructure) -> Vec<Option<&Vec<f64>>> {
        mined.hierarchy.fits.iter().map(|f| f.as_ref().map(|f| &f.alpha)).collect()
    }

    /// `bytes` with its cold section replaced by `cold`. The sections
    /// keep their table order and 64-byte alignment, and the checksum is
    /// recomputed.
    fn with_cold(bytes: &[u8], cold: &[u8]) -> Vec<u8> {
        let count = le_u32(&bytes[8..]) as usize;
        let mut w = ArenaWriter { buf: bytes[..HEADER_LEN + count * TABLE_ENTRY_LEN].to_vec() };
        for i in 0..count {
            let entry = table_entry(bytes, i);
            let (off, len) = (entry.offset as usize, entry.len as usize);
            w.align(SECTION_ALIGN);
            let start = w.buf.len();
            let section = if entry.id == 10 { cold } else { &bytes[off..off + len] };
            w.bytes(section);
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
            w.buf[at + 8..at + 16].copy_from_slice(&(start as u64).to_le_bytes());
            w.buf[at + 16..at + 24].copy_from_slice(&(section.len() as u64).to_le_bytes());
        }
        w.align(8);
        let checksum = body_checksum(&w.buf);
        w.buf.extend_from_slice(&checksum.to_le_bytes());
        w.buf
    }

    /// `bytes` (a full artifact of `corpus` and `mined`) with its fit
    /// records rewritten in the `retired` layout: the artifact a build
    /// from before it wrote. The fixture's topics below the root hold no
    /// links, so their records read the same in every layout, and the
    /// first retired record is a fit.
    fn retired_artifact(
        corpus: &Corpus,
        mined: &MinedStructure,
        bytes: &[u8],
        retired: Retired,
    ) -> Vec<u8> {
        let names = &mined.hierarchy.network.type_names;
        let (records, alphas) = (stored_records(mined), stored_alphas(mined));
        with_cold(bytes, &crafted_cold(corpus, mined, names, &records, &alphas, Some(retired)))
    }

    /// The retired layouts the crafted tests cover.
    const RETIRED: [Retired; 2] = [Retired::Loglik(-1234.5), Retired::Trace];

    /// A `cold` record that disagrees with the root network or the fits is
    /// a typed error at its offset inside `cold`: hierarchy type names or
    /// a node space other than the root network's, and an α list entry
    /// other than its fit's `alpha`, are malformed; links below the root
    /// are the retired layout.
    #[test]
    fn cold_records_that_disagree_with_the_root_network_are_typed_errors() {
        let (corpus, mined, bytes) = fixture();
        let root = &mined.hierarchy.network;
        let (stored, alphas) = (stored_records(&mined), stored_alphas(&mined));
        let crafted_with = |names: &[String], records: &[(&TypedNetwork, bool)], alphas: &[_]| {
            with_cold(&bytes, &crafted_cold(&corpus, &mined, names, records, alphas, None))
        };
        let crafted = |names: &[String], records: &[(&TypedNetwork, bool)]| {
            crafted_with(names, records, &alphas)
        };
        assert!(crafted(&root.type_names, &stored) == bytes, "the crafted writer is write_cold");
        let decode_error = |artifact: &[u8]| {
            let (off, len) = locate(artifact, 10);
            let m = MappedSnapshot::from_bytes(artifact).expect("the hot sections load");
            let err = m.to_snapshot().map(drop).expect_err("the decode fails");
            (err, off..off + len)
        };

        let mut renamed = root.type_names.clone();
        renamed[0].push('2');
        match decode_error(&crafted(&renamed, &stored)) {
            (SnapshotError::Malformed { offset, what }, cold) => {
                assert_eq!(offset, cold.start, "{what}");
                assert!(what.contains("type names"), "{what}");
            }
            other => panic!("renamed types: expected Malformed, got {other:?}"),
        }

        let mut grown = TypedNetwork::new(root.type_names.clone(), root.node_counts.clone());
        grown.node_counts[0] += 1;
        let mut records = stored.clone();
        records[1] = (&grown, false);
        match decode_error(&crafted(&root.type_names, &records)) {
            (SnapshotError::Malformed { offset, what }, cold) => {
                assert!(cold.contains(&offset), "offset {offset} outside {cold:?}");
                assert!(what.contains("node space"), "{what}");
            }
            other => panic!("grown node space: expected Malformed, got {other:?}"),
        }

        let mut records = stored.clone();
        records[1] = (root, true);
        match decode_error(&crafted(&root.type_names, &records)) {
            (e @ SnapshotError::RetiredLayout { offset, .. }, cold) => {
                assert!(cold.contains(&offset), "offset {offset} outside {cold:?}");
                assert!(e.to_string().contains("links below the root"), "{e}");
            }
            other => panic!("links below the root: expected RetiredLayout, got {other:?}"),
        }

        let doubled: Vec<f64> = alphas[0].expect("the fixture fits the root").iter().map(|a| 2.0 * a).collect();
        let mut other = alphas.clone();
        other[0] = Some(&doubled);
        match decode_error(&crafted_with(&root.type_names, &stored, &other)) {
            (SnapshotError::Malformed { offset, what }, cold) => {
                assert!(cold.contains(&offset), "offset {offset} outside {cold:?}");
                assert!(what.contains("α list"), "{what}");
            }
            other => panic!("an α list unlike its fit: expected Malformed, got {other:?}"),
        }
    }

    /// An artifact written in a retired fit record layout still serves
    /// from its hot sections, which did not change, but its full decode
    /// (and so `lesm update` and `lesm shard`) fails typed at the first
    /// fit record instead of decoding a shifted structure.
    #[test]
    fn a_retired_cold_layout_fails_to_decode_typed_and_still_serves() {
        let (corpus, mined, bytes) = fixture();
        serve_everything(&bytes).expect("the current layout serves and decodes");
        let now = MappedSnapshot::from_bytes(&bytes).expect("current");
        for layout in RETIRED {
            let retired = retired_artifact(&corpus, &mined, &bytes, layout);
            let then = MappedSnapshot::from_bytes(&retired).expect("the hot sections load");
            for id in [1, 2, 3, 4, 5, 6, 7, 8, 9, 12] {
                let ((a, n), (b, m)) = (locate(&bytes, id), locate(&retired, id));
                assert!(bytes[a..a + n] == retired[b..b + m], "{layout:?}: section {id} moved");
            }
            assert_eq!(hierarchy_to_json(&now, 5), hierarchy_to_json(&then, 5));
            let (cold, len) = locate(&retired, 10);
            match then.to_snapshot().map(drop) {
                Err(e @ SnapshotError::RetiredLayout { offset, .. }) => {
                    assert!((cold..cold + len).contains(&offset), "offset {offset} outside the cold section");
                    assert_eq!(retired[offset], layout.tag());
                    assert!(e.to_string().contains("`lesm snapshot`"), "no rebuild hint in {e}");
                }
                other => panic!("{layout:?}: expected RetiredLayout, got {other:?}"),
            }
        }
    }

    /// Byte offset of the fixture's first fit record (its tag) in
    /// `bytes`: the first byte at which its `cold` section differs from
    /// the same model's section in a retired layout, since everything
    /// before the fits is written the same way.
    fn first_fit_tag(corpus: &Corpus, mined: &MinedStructure, bytes: &[u8]) -> usize {
        let retired = retired_artifact(corpus, mined, bytes, Retired::Trace);
        let ((now, n), (then, m)) = (locate(bytes, 10), locate(&retired, 10));
        let same = bytes[now..now + n].iter().zip(&retired[then..then + m]).take_while(|(a, b)| a == b);
        now + same.count()
    }

    /// A tag-2 fit record, the layout with `φ0` rows and an objective
    /// trace, is the retired layout at exactly its tag's offset; a fit
    /// record of the current layout whose background flag is neither 0
    /// nor 1 is malformed at the flag's offset.
    #[test]
    fn a_tag_2_fit_record_is_a_retired_layout_at_its_offset() {
        let (corpus, mined, bytes) = fixture();
        let tag_at = first_fit_tag(&corpus, &mined, &bytes);
        assert_eq!(bytes[tag_at], FIT_TAG);
        // The sections before `cold` keep their bytes, so the record sits
        // at the same offset in the retired artifact.
        let retired = retired_artifact(&corpus, &mined, &bytes, Retired::Trace);
        let m = MappedSnapshot::from_bytes(&retired).expect("the hot sections load");
        match m.to_snapshot().map(drop) {
            Err(SnapshotError::RetiredLayout { offset, what }) => {
                assert_eq!(offset, tag_at, "{what}");
                assert_eq!(retired[offset], 2);
            }
            other => panic!("a tag-2 record: expected RetiredLayout, got {other:?}"),
        }

        // The flag follows the tag, k, the type count and the φ rows.
        let fit = mined.hierarchy.fits[0].as_ref().expect("the fixture fits the root");
        let mut head = ArenaWriter { buf: Vec::new() };
        head.u64(fit.k as u64);
        head.u64(fit.phi.len() as u64);
        for per_type in &fit.phi {
            head.f64_rows(per_type);
        }
        let flag_at = tag_at + 1 + head.buf.len();
        assert_eq!(bytes[flag_at], 1, "the fixture's fit has the background");
        let crafted = craft(&bytes, flag_at, (le_u64(&bytes[flag_at..]) & !0xff) | 2);
        let m = MappedSnapshot::from_bytes(&crafted).expect("the hot sections load");
        match m.to_snapshot().map(drop) {
            Err(SnapshotError::Malformed { offset, what }) => {
                assert_eq!(offset, flag_at, "{what}");
                assert!(what.contains("background flag"), "{what}");
            }
            other => panic!("a background flag of 2: expected Malformed, got {other:?}"),
        }
    }

    /// Reads every accessor of `m` over all topics and documents.
    fn read_all(m: &MappedSnapshot) {
        for t in 0..m.num_topics() {
            let _ = (m.topic_path(t), m.topic_parent(t), m.topic_level(t), m.topic_rho(t));
            let _ = m.topic_children(t).count() + m.topic_phrases(t).count();
            let _ = m.ptf_entries(t).count();
            for x in 0..m.entity_cells(t) {
                let _ = m.entity_type_name(x);
                for (id, _) in m.topic_entities(t, x) {
                    let _ = m.entity_name(x, id);
                }
            }
        }
        for d in 0..m.num_docs() {
            let _ = (m.render_doc(d), m.doc_topic(d, 0), m.doc_id(d));
        }
        for x in 0..=m.num_entity_types() {
            let _ = (m.entity_type_name(x), m.num_entities(x));
        }
        for g in 0..m.num_global_docs() {
            let _ = (m.global_doc_links(g).count(), m.global_doc_leaf(g), m.global_doc_year(g));
        }
        for w in 0..m.layout.n_words as u32 {
            let _ = m.word_id(m.word_or_unk(w));
        }
        let _ = (m.delta_info(), m.sections(), m.artifact_len());
    }

    /// Everything a server does with an artifact, from load to a query
    /// answer. A typed error at any step ends the run.
    fn serve_everything(bytes: &[u8]) -> Result<(), String> {
        let m = MappedSnapshot::from_bytes(bytes).map_err(|e| e.to_string())?;
        read_all(&m);
        for t in 0..m.num_topics() {
            let _ = render_topic(&m, t, 5);
        }
        let _ = hierarchy_to_json(&m, 5);
        let query = format!("{} {}", m.word_or_unk(0), m.word_or_unk(1));
        let _ = render_hits(&m, &search(&m, m.search_index(), &query, 10));
        let parts = lesm_query::IndexParts::from_view(&m).map_err(|e| e.to_string())?;
        let index = lesm_query::QueryIndex::build(parts).map_err(|e| e.to_string())?;
        let program = r#"{"steps":[{"filter":{"type":"doc","topic":0}},{"traverse":{"edge":"entities"}}]}"#;
        lesm_query::run_query(&index, program).map_err(|e| e.to_string())?;
        let snap = m.to_snapshot().map_err(|e| e.to_string())?;
        let _ =
            crate::shard::assign_docs(&snap.corpus, &snap.mined, crate::ShardBy::TopicSubtree, 2);
        Ok(())
    }

    /// Every word count hits each lane-remainder case several times.
    #[test]
    fn body_checksum_equals_checksum_words_of_the_collected_words() {
        for n in 0..=41usize {
            let body: Vec<u8> =
                (0..n * 8).map(|i| (i as u8).wrapping_mul(151).wrapping_add(n as u8)).collect();
            let words: Vec<u64> = body.chunks_exact(8).map(le_u64).collect();
            assert_eq!(body_checksum(&body), checksum_words(&words), "{n} words");
        }
    }

    /// Substitutes hostile values into the words of every section of
    /// [`SECTIONS`] (all leading words, where counts and bounds live,
    /// plus a fixed-seed sample of the rest) under a valid checksum:
    /// each crafted artifact must fail typed or serve without a panic.
    #[test]
    fn crafted_words_in_every_section_fail_typed_or_serve() {
        const LEADING: usize = 16;
        const SAMPLED: usize = 16;
        let (corpus, mined, bytes) = fixture();
        let m = MappedSnapshot::from_bytes(&bytes).expect("fixture loads");
        let listed: Vec<u32> = m.sections().iter().map(|s| s.id).collect();
        let registry: Vec<u32> = SECTIONS.iter().map(|s| s.id).collect();
        assert_eq!(listed, registry, "the fixture must carry every registered section");
        serve_everything(&bytes).expect("the untouched fixture serves");

        let n_topics = mined.hierarchy.topics.len() as u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut failures = Vec::new();
        let mut cases = 0;
        // Every registered section, then the cold section of the same
        // model in each retired fit record layout. The current cold
        // section also gets every word of its first fit record.
        let retired = RETIRED.map(|layout| retired_artifact(&corpus, &mined, &bytes, layout));
        let fit_words = {
            let fit = mined.hierarchy.fits[0].as_ref().expect("the fixture fits the root");
            let mut record = ArenaWriter { buf: Vec::new() };
            write_fit(&mut record, fit);
            let (off, _) = locate(&bytes, 10);
            let tag_at = first_fit_tag(&corpus, &mined, &bytes) - off;
            (tag_at / 8..=(tag_at + record.buf.len()) / 8).collect::<Vec<_>>()
        };
        let targets = SECTIONS.iter().map(|s| {
            let extra = if s.id == 10 { fit_words.clone() } else { Vec::new() };
            (&bytes, s.id, s.name, extra)
        });
        let retired_targets = (retired.iter().zip(["retired cold (tag 1)", "retired cold (tag 2)"]))
            .map(|(bytes, name)| (bytes, 10, name, Vec::new()));
        for (bytes, id, name, extra) in targets.chain(retired_targets) {
            let (off, len) = locate(bytes, id);
            let words = len / 8;
            let mut positions: Vec<usize> = (0..words.min(LEADING)).collect();
            if words > LEADING {
                for _ in 0..SAMPLED {
                    // splitmix64: a fixed-seed sample, identical on every run.
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    positions.push(LEADING + (z ^ (z >> 31)) as usize % (words - LEADING));
                }
            }
            positions.extend(extra.into_iter().filter(|&w| w >= LEADING && w < words));
            for word in positions {
                let at = off + word * 8;
                let original = le_u64(&bytes[at..]);
                let hostile = [
                    0,
                    1,
                    n_topics,
                    99,
                    1 << 32,
                    1 << 63,
                    u64::MAX,
                    original.wrapping_sub(1),
                    original.wrapping_add(1),
                ];
                for value in hostile.into_iter().filter(|&v| v != original) {
                    cases += 1;
                    let crafted = craft(bytes, at, value);
                    if let Err(panic) =
                        catch_unwind(AssertUnwindSafe(|| serve_everything(&crafted)))
                    {
                        let message = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_default();
                        failures.push(format!("{name} word {word} = {value:#x}: {message}"));
                    }
                }
            }
        }
        assert!(cases > 1000, "only {cases} crafted cases");
        assert!(
            failures.is_empty(),
            "{} of {cases} crafted cases panicked:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }

    /// The hand-found crafted inputs, each a typed error now.
    #[test]
    fn probe_cases_are_typed_errors() {
        let (mut corpus, mined, bytes) = fixture();
        let load_fails = |crafted: Vec<u8>, what: &str| match MappedSnapshot::from_bytes(&crafted) {
            Err(SnapshotError::Malformed { .. } | SnapshotError::Truncated { .. }) => {}
            other => panic!("{what}: expected a typed load error, got {other:?}"),
        };
        // Counts whose n + 1 prefix sums overflow.
        for id in [1, 2, 3] {
            let (off, _) = locate(&bytes, id);
            load_fails(craft(&bytes, off, u64::MAX), &format!("section {id} count u64::MAX"));
        }
        // A vocab name arena whose end overflows the cursor.
        let (off, _) = locate(&bytes, 1);
        let n_words = le_u64(&bytes[off..]) as usize;
        load_fails(craft(&bytes, off + 8 * (1 + n_words), u64::MAX - 8), "vocab arena length");
        // Topic links that do not form a tree: an out-of-range child and
        // a self-parent.
        let (off, _) = locate(&bytes, 4);
        let n = le_u64(&bytes[off..]) as usize;
        let first_child = off + 8 * (1 + 3 * n + n + 1);
        load_fails(craft(&bytes, first_child, 99), "child topic 99");
        load_fails(craft(&bytes, off + 8 * (1 + n - 1), n as u64 - 1), "self-parent");
        // doc-facts (id 12): a count, n + 1 link bounds, then the links as
        // (etype, id) u32 pairs, so one crafted word rewrites one link.
        let (off, _) = locate(&bytes, 12);
        let rows = le_u64(&bytes[off..]) as usize;
        let links = off + 8 * (2 + rows);
        let n_links = le_u64(&bytes[links - 8..]) as usize;
        let n_types = corpus.entities.num_types() as u64;
        load_fails(craft(&bytes, links, n_types), "entity type past n_types");
        let past_catalog = corpus.entities.count(0) as u64 + 7;
        load_fails(craft(&bytes, links, past_catalog << 32), "entity id past its catalog");
        // Two u32 leaves per word: topic 0, the root, has children.
        load_fails(craft(&bytes, links + 8 * n_links, 0), "leaf 0 is not a leaf topic");
        let (ids, _) = locate(&bytes, 9);
        load_fails(craft(&bytes, ids + 8, rows as u64), "doc id past the last row");
        // A document linking an entity its catalog does not have.
        corpus.docs[0].entities.push(EntityRef::new(0, corpus.entities.count(0) as u32 + 7));
        let dangling = save_snapshot_v2(&corpus, &mined).expect("save");
        load_fails(dangling, "dangling entity id");
    }

    /// A cold-section error reports its offset in the artifact, not in
    /// the section.
    #[test]
    fn cold_section_errors_report_absolute_offsets() {
        let (_, _, bytes) = fixture();
        let (off, len) = locate(&bytes, 10);
        // The first cold word counts the hierarchy's type names.
        let m = MappedSnapshot::from_bytes(&craft(&bytes, off, u64::MAX)).expect("cold is lazy");
        let offset = match m.to_snapshot() {
            Err(SnapshotError::Truncated { offset, .. }) => offset,
            Err(SnapshotError::Malformed { offset, .. }) => offset,
            other => panic!("expected a typed error, got {:?}", other.map(drop)),
        };
        assert!((off..off + len).contains(&offset), "offset {offset} outside {off}+{len}");
    }

    /// A cursor over all of `map`.
    fn cursor(map: &Mapping) -> Cursor<'_> {
        Cursor::new(map, 0, map.len())
    }

    #[test]
    fn packed_values_round_trip_bit_for_bit() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = ArenaWriter { buf: Vec::new() };
        w.u8(7);
        w.i32(-42);
        w.f64(-0.0);
        w.f64(nan);
        w.string("snapshot ✓");
        w.f64_seq(&[-0.0, nan]);
        w.u32_seq(&[0xDEAD_BEEF, 1]);
        w.option(Some(&u64::MAX), |w, &v| w.u64(v));
        w.option(None::<&u64>, |w, &v| w.u64(v));
        let map = Mapping::from_bytes(&w.buf);
        let mut r = cursor(&map);
        assert_eq!(r.take(1).unwrap(), [7]);
        assert_eq!(r.take(4).unwrap(), (-42i32).to_le_bytes());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), nan.to_bits());
        assert_eq!(r.get_string("s").unwrap(), "snapshot ✓");
        let seq: Vec<u64> = r.get_f64_seq().unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(seq, [(-0.0f64).to_bits(), nan.to_bits()]);
        assert_eq!(r.get_u32_seq().unwrap(), [0xDEAD_BEEF, 1]);
        assert_eq!(r.get_option(|r| r.get_u64()).unwrap(), Some(u64::MAX));
        assert_eq!(r.get_option(|r| r.get_u64()).unwrap(), None);
        assert_eq!(r.pos, map.len());
    }

    #[test]
    fn packed_reads_past_the_end_are_typed_errors() {
        let map = Mapping::from_bytes(&5u64.to_le_bytes()[..6]);
        assert!(matches!(cursor(&map).get_u64(), Err(SnapshotError::Truncated { .. })));
        // A length claiming ~2^64 elements fails before any allocation.
        let map = Mapping::from_bytes(&u64::MAX.to_le_bytes());
        let typed = |r: Result<(), SnapshotError>| {
            matches!(r, Err(SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. }))
        };
        assert!(typed(cursor(&map).get_u32_seq().map(drop)));
        assert!(typed(cursor(&map).get_f64_seq().map(drop)));
        assert!(typed(cursor(&map).get_string("s").map(drop)));
    }

    #[test]
    fn packed_option_tags_are_checked() {
        let map = Mapping::from_bytes(&[2]);
        assert!(matches!(
            cursor(&map).get_option(|r| r.get_u32()),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
