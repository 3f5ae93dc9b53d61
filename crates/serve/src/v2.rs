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
//!    monotonicity, UTF-8, and sort invariants **once**,
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
//! Within a section, scalars are u64 and arrays are padded to their
//! element alignment; because every section starts 64-byte aligned and
//! the mapping base is at least 8-byte aligned, every array view is
//! correctly aligned for its element type. The rarely-read remainder of
//! the model (EM fits, per-topic phi/networks, entity links, segments)
//! lives in a single *cold* section in the streaming [`crate::wire`]
//! encoding (networks and fits through the [`crate::snapshot`] codecs),
//! decoded only by [`MappedSnapshot::to_snapshot`] — never on the load
//! hot path.
//!
//! Any other version tag — including the retired v1 streaming format —
//! fails with [`SnapshotError::VersionMismatch`]; rebuild such an
//! artifact with `lesm snapshot`.
//!
//! Incrementally updated artifacts carry one extra *optional* section,
//! `delta-lineage` (id 11, [`DeltaInfo`]): the artifact stays full and
//! self-contained, the section only records which base artifact it was
//! derived from and the base's append-only id ranges. Readers that don't
//! know the id skip it (the section table tolerates unknown ids).

use crate::mapping::Mapping;
use crate::snapshot::{self, Snapshot, MAGIC};
use crate::wire::{ByteReader, ByteWriter};
use crate::SnapshotError;
use lesm_core::pipeline::MinedStructure;
use lesm_core::{ModelView, SearchIndex};
use lesm_corpus::{Corpus, Doc, EntityRef};
use lesm_hier::hierarchy::HierTopic;
use lesm_hier::TopicHierarchy;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The v2 format version tag.
pub const FORMAT_VERSION_V2: u32 = 2;

const SEC_VOCAB: u32 = 1;
const SEC_ENTITIES: u32 = 2;
const SEC_DOCS: u32 = 3;
const SEC_TOPICS: u32 = 4;
const SEC_PHRASES: u32 = 5;
const SEC_TOPIC_ENTITIES: u32 = 6;
const SEC_PTF: u32 = 7;
const SEC_DOC_TOPIC: u32 = 8;
const SEC_DOC_IDS: u32 = 9;
const SEC_COLD: u32 = 10;
const SEC_DELTA: u32 = 11;
const N_SECTIONS: usize = 10;

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 24;
const SECTION_ALIGN: usize = 64;

/// Human-readable v2 section name (for `lesm snapshot inspect`).
fn v2_section_name(id: u32) -> &'static str {
    match id {
        SEC_VOCAB => "vocab",
        SEC_ENTITIES => "entities",
        SEC_DOCS => "docs",
        SEC_TOPICS => "topics",
        SEC_PHRASES => "phrases",
        SEC_TOPIC_ENTITIES => "topic-entities",
        SEC_PTF => "phrase-topic-freq",
        SEC_DOC_TOPIC => "doc-topic",
        SEC_DOC_IDS => "doc-ids",
        SEC_COLD => "cold",
        SEC_DELTA => "delta-lineage",
        _ => "unknown",
    }
}

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
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut l0 = BASIS ^ 1;
    let mut l1 = BASIS ^ 2;
    let mut l2 = BASIS ^ 3;
    let mut l3 = BASIS ^ 4;
    let mut chunks = words.chunks_exact(4);
    for c in &mut chunks {
        l0 = (l0 ^ c[0]).wrapping_mul(PRIME);
        l1 = (l1 ^ c[1]).wrapping_mul(PRIME);
        l2 = (l2 ^ c[2]).wrapping_mul(PRIME);
        l3 = (l3 ^ c[3]).wrapping_mul(PRIME);
    }
    let mut lanes = [l0, l1, l2, l3];
    for (j, &w) in chunks.remainder().iter().enumerate() {
        lanes[j] = (lanes[j] ^ w).wrapping_mul(PRIME);
    }
    let mut h = BASIS ^ (words.len() as u64);
    for l in lanes {
        h = (h ^ l).wrapping_mul(PRIME);
    }
    h
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
    /// Pads to the section alignment and returns the section's offset.
    fn begin_section(&mut self) -> usize {
        self.align(SECTION_ALIGN);
        self.buf.len()
    }
}

/// Serializes a corpus + mined structure as a v2 artifact with identity
/// document ids (document `d` is globally `d`). Fails with
/// [`SnapshotError::TooLarge`] if any id or count overflows its 32-bit
/// wire field — the save refuses rather than truncating.
pub fn save_snapshot_v2(corpus: &Corpus, mined: &MinedStructure) -> Result<Vec<u8>, SnapshotError> {
    save_snapshot_v2_with_lineage(corpus, mined, None, None)
}

/// Serializes a v2 artifact. `doc_ids`, when given, maps the local
/// document index to its global id (used by shards so merged responses
/// render the same document numbers as an unsharded server); it must
/// have one entry per document. `delta`, when given, stamps the artifact
/// with delta lineage (see [`DeltaInfo`]). Artifacts written without
/// lineage are compacted full artifacts; readers treat both identically
/// apart from [`MappedSnapshot::delta_info`].
pub fn save_snapshot_v2_with_lineage(
    corpus: &Corpus,
    mined: &MinedStructure,
    doc_ids: Option<&[u64]>,
    delta: Option<&DeltaInfo>,
) -> Result<Vec<u8>, SnapshotError> {
    let n_sections = N_SECTIONS + usize::from(delta.is_some());
    let mut w = ArenaWriter { buf: Vec::new() };
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION_V2);
    w.u32(crate::wire_u32(n_sections, "section count")?);
    w.u32(0);
    // Placeholder table, patched once section extents are known.
    w.buf.resize(HEADER_LEN + n_sections * TABLE_ENTRY_LEN, 0);
    let mut table: Vec<(u32, u64, u64)> = Vec::with_capacity(n_sections);

    // --- vocab ---
    let start = w.begin_section();
    {
        let n = corpus.vocab.len();
        let n32 = crate::wire_u32(n, "vocab size")?;
        w.u64(n as u64);
        w.bounds((0..n32).map(|id| corpus.vocab.name_or_unk(id).len()));
        for id in 0..n32 {
            let name = corpus.vocab.name_or_unk(id);
            w.bytes(name.as_bytes());
        }
        w.align(4);
        let mut sorted: Vec<u32> = (0..n32).collect();
        sorted.sort_unstable_by(|&a, &b| {
            corpus.vocab.name_or_unk(a).cmp(corpus.vocab.name_or_unk(b)).then(a.cmp(&b))
        });
        for id in sorted {
            w.u32(id);
        }
    }
    table.push((SEC_VOCAB, start as u64, (w.buf.len() - start) as u64));

    // --- entities ---
    let start = w.begin_section();
    {
        let nt = corpus.entities.num_types();
        w.u64(nt as u64);
        w.bounds((0..nt).map(|t| corpus.entities.type_name(t).unwrap_or("").len()));
        for t in 0..nt {
            w.bytes(corpus.entities.type_name(t).unwrap_or("").as_bytes());
        }
        w.bounds((0..nt).map(|t| corpus.entities.count(t)));
        w.align(8);
        let ent_name = |t: usize, id: u32| -> &str {
            corpus.entities.table(t).and_then(|tab| tab.name(id)).unwrap_or("")
        };
        w.u64(0);
        let mut acc = 0u64;
        for t in 0..nt {
            for id in 0..crate::wire_u32(corpus.entities.count(t), "entity count")? {
                acc += ent_name(t, id).len() as u64;
                w.u64(acc);
            }
        }
        for t in 0..nt {
            for id in 0..crate::wire_u32(corpus.entities.count(t), "entity count")? {
                w.bytes(ent_name(t, id).as_bytes());
            }
        }
    }
    table.push((SEC_ENTITIES, start as u64, (w.buf.len() - start) as u64));

    // --- docs ---
    let start = w.begin_section();
    {
        let n = corpus.docs.len();
        w.u64(n as u64);
        w.bounds(corpus.docs.iter().map(|d| d.tokens.len()));
        w.align(4);
        for d in &corpus.docs {
            for &tok in &d.tokens {
                w.u32(tok);
            }
        }
    }
    table.push((SEC_DOCS, start as u64, (w.buf.len() - start) as u64));

    // --- topics ---
    let start = w.begin_section();
    {
        let topics = &mined.hierarchy.topics;
        let n = topics.len();
        w.u64(n as u64);
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
        for t in topics {
            for &c in &t.children {
                w.u64(c as u64);
            }
        }
        w.bounds(topics.iter().map(|t| t.path.len()));
        for t in topics {
            w.bytes(t.path.as_bytes());
        }
    }
    table.push((SEC_TOPICS, start as u64, (w.buf.len() - start) as u64));

    // --- phrases ---
    let start = w.begin_section();
    {
        let lists = &mined.topic_phrases;
        w.u64(lists.len() as u64);
        w.bounds(lists.iter().map(|l| l.len()));
        w.bounds(lists.iter().flat_map(|l| l.iter()).map(|p| p.tokens.len()));
        w.align(4);
        for p in lists.iter().flatten() {
            for &tok in &p.tokens {
                w.u32(tok);
            }
        }
        w.align(8);
        for p in lists.iter().flatten() {
            w.f64(p.score);
        }
        for p in lists.iter().flatten() {
            w.f64(p.topic_freq);
        }
    }
    table.push((SEC_PHRASES, start as u64, (w.buf.len() - start) as u64));

    // --- topic entities ---
    let start = w.begin_section();
    {
        let per_topic = &mined.topic_entities;
        w.u64(per_topic.len() as u64);
        w.bounds(per_topic.iter().map(|cells| cells.len()));
        w.bounds(per_topic.iter().flat_map(|cells| cells.iter()).map(|list| list.len()));
        w.align(4);
        for list in per_topic.iter().flatten() {
            for &(id, _) in list {
                w.u32(id);
            }
        }
        w.align(8);
        for list in per_topic.iter().flatten() {
            for &(_, score) in list {
                w.f64(score);
            }
        }
    }
    table.push((SEC_TOPIC_ENTITIES, start as u64, (w.buf.len() - start) as u64));

    // --- phrase-topic frequency tables (sorted-key order) ---
    let start = w.begin_section();
    {
        let tables: Vec<Vec<(&Vec<u32>, f64)>> = mined
            .phrase_topic_freq
            .iter()
            .map(|table| {
                let mut entries: Vec<(&Vec<u32>, f64)> =
                    table.iter().map(|(k, &v)| (k, v)).collect();
                entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
                entries
            })
            .collect();
        w.u64(tables.len() as u64);
        w.bounds(tables.iter().map(|t| t.len()));
        w.bounds(tables.iter().flat_map(|t| t.iter()).map(|(p, _)| p.len()));
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
    }
    table.push((SEC_PTF, start as u64, (w.buf.len() - start) as u64));

    // --- doc-topic weights ---
    let start = w.begin_section();
    {
        let rows = &mined.doc_topic;
        w.u64(rows.len() as u64);
        w.bounds(rows.iter().map(|r| r.len()));
        for row in rows {
            for &v in row {
                w.f64(v);
            }
        }
    }
    table.push((SEC_DOC_TOPIC, start as u64, (w.buf.len() - start) as u64));

    // --- global doc ids ---
    let start = w.begin_section();
    {
        let n = corpus.docs.len();
        w.u64(n as u64);
        w.align(8);
        match doc_ids {
            Some(ids) => {
                for d in 0..n {
                    w.u64(ids.get(d).copied().unwrap_or(d as u64));
                }
            }
            None => {
                for d in 0..n {
                    w.u64(d as u64);
                }
            }
        }
    }
    table.push((SEC_DOC_IDS, start as u64, (w.buf.len() - start) as u64));

    // --- cold remainder (streaming wire encoding; only to_snapshot reads it) ---
    let start = w.begin_section();
    {
        let mut cw = ByteWriter::new();
        let h = &mined.hierarchy;
        cw.put_usize(h.type_names.len());
        for name in &h.type_names {
            cw.put_str(name);
        }
        cw.put_usize(h.topics.len());
        for topic in &h.topics {
            cw.put_usize(topic.phi.len());
            for row in &topic.phi {
                cw.put_f64_seq(row);
            }
            snapshot::encode_network(&mut cw, &topic.network);
        }
        cw.put_usize(h.fits.len());
        for fit in &h.fits {
            cw.put_option(fit.as_ref(), snapshot::encode_fit);
        }
        cw.put_usize(h.alphas.len());
        for alpha in &h.alphas {
            cw.put_option(alpha.as_ref(), |w, a| w.put_f64_seq(a));
        }
        cw.put_usize(corpus.docs.len());
        for doc in &corpus.docs {
            cw.put_usize(doc.entities.len());
            for e in &doc.entities {
                cw.put_u32(crate::wire_u32(e.etype, "entity type id")?);
                cw.put_u32(e.id);
            }
            cw.put_option(doc.label.as_ref(), |w, &l| w.put_u32(l));
            cw.put_option(doc.year.as_ref(), |w, &y| w.put_i32(y));
        }
        cw.put_usize(mined.segments.len());
        for doc_segs in &mined.segments {
            cw.put_usize(doc_segs.len());
            for seg in doc_segs {
                cw.put_u32_seq(seg);
            }
        }
        w.bytes(&cw.into_bytes());
    }
    table.push((SEC_COLD, start as u64, (w.buf.len() - start) as u64));

    // --- delta lineage (optional; incremental updates only) ---
    if let Some(d) = delta {
        let start = w.begin_section();
        w.u64(d.base_docs);
        w.u64(d.base_words);
        w.u64(d.chain_depth);
        w.u64(d.base_entities.len() as u64);
        for &c in &d.base_entities {
            w.u64(c);
        }
        w.u64(d.base_artifact.len() as u64);
        w.bytes(d.base_artifact.as_bytes());
        table.push((SEC_DELTA, start as u64, (w.buf.len() - start) as u64));
    }

    // Patch the table, pad the body to a whole number of words, append
    // the checksum trailer.
    // lesm-lint: allow(D2) — `table` is a Vec built in fixed section order, not a hash map
    for (i, (id, off, len)) in table.iter().enumerate() {
        let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
        w.buf[at..at + 4].copy_from_slice(&id.to_le_bytes());
        w.buf[at + 8..at + 16].copy_from_slice(&off.to_le_bytes());
        w.buf[at + 16..at + 24].copy_from_slice(&len.to_le_bytes());
    }
    w.align(8);
    let words: Vec<u64> = w
        .buf
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    let checksum = checksum_words(&words);
    w.buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(w.buf)
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
    // cold
    cold_off: usize,
    cold_len: usize,
    // delta lineage (absent on compacted full artifacts)
    delta: Option<DeltaInfo>,
}

/// Bounds-checked sequential reader over one section of the mapping.
struct Cursor<'m> {
    map: &'m Mapping,
    pos: usize,
    end: usize,
}

impl<'m> Cursor<'m> {
    fn new(map: &'m Mapping, off: usize, len: usize) -> Self {
        Cursor { map, pos: off, end: off + len }
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
        self.align(8)?;
        if self.pos + 8 > self.end {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                needed: 8,
                available: self.end - self.pos,
            });
        }
        let b = &self.map.bytes()[self.pos..self.pos + 8];
        self.pos += 8;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn count(&mut self, what: &str) -> Result<usize, SnapshotError> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed {
            offset: at,
            what: format!("{what} count {v} overflows usize"),
        })
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
        let bytes = count.checked_mul(elem).ok_or_else(|| SnapshotError::Malformed {
            offset: self.pos,
            what: format!("{what} length overflows"),
        })?;
        if self.pos + bytes > self.end {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                needed: bytes,
                available: self.end - self.pos,
            });
        }
        let r = ArrayRef { off: self.pos, count };
        self.pos += bytes;
        Ok(r)
    }
}

/// Validates a prefix-sum bounds array (first 0, nondecreasing) and
/// returns its final value — the element count of the array it indexes.
fn check_bounds(map: &Mapping, r: ArrayRef, what: &str) -> Result<usize, SnapshotError> {
    let v = map.view_u64(r.off, r.count);
    if v.first() != Some(&0) {
        return Err(SnapshotError::Malformed {
            offset: r.off,
            what: format!("{what} bounds do not start at 0"),
        });
    }
    for w in v.windows(2) {
        if w[0] > w[1] {
            return Err(SnapshotError::Malformed {
                offset: r.off,
                what: format!("{what} bounds are not monotonic"),
            });
        }
    }
    usize::try_from(*v.last().unwrap_or(&0)).map_err(|_| SnapshotError::Malformed {
        offset: r.off,
        what: format!("{what} total length overflows usize"),
    })
}

/// Validates that every `[offsets[i], offsets[i+1])` slice of the byte
/// arena is valid UTF-8, so string accessors can be infallible.
fn check_utf8(
    map: &Mapping,
    offsets: ArrayRef,
    arena: ArrayRef,
    what: &str,
) -> Result<(), SnapshotError> {
    let offs = map.view_u64(offsets.off, offsets.count);
    let bytes = &map.bytes()[arena.off..arena.off + arena.count];
    for w in offs.windows(2) {
        let (a, b) = (w[0] as usize, w[1] as usize);
        if std::str::from_utf8(&bytes[a..b]).is_err() {
            return Err(SnapshotError::Malformed {
                offset: arena.off + a,
                what: format!("{what} arena entry is not valid UTF-8"),
            });
        }
    }
    Ok(())
}

/// A v2 snapshot backed by a memory mapping. All accessors borrow typed
/// views directly from the mapping and are infallible: every invariant
/// they rely on was validated once at load time.
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
        if len < 8 {
            return Err(SnapshotError::Truncated { offset: 0, needed: 8, available: len });
        }
        let bytes = map.bytes();
        let found = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if found != MAGIC {
            return Err(SnapshotError::BadMagic { found });
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != FORMAT_VERSION_V2 {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                supported: FORMAT_VERSION_V2,
            });
        }
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
        let trailer = &bytes[body_len..];
        let stored = u64::from_le_bytes([
            trailer[0], trailer[1], trailer[2], trailer[3], trailer[4], trailer[5], trailer[6],
            trailer[7],
        ]);
        let actual = checksum_words(map.view_u64(0, body_len / 8));
        if stored != actual {
            return Err(SnapshotError::ChecksumMismatch { expected: stored, actual });
        }

        let sections = parse_section_table(&map, body_len)?;
        let find = |id: u32| -> Result<(usize, usize), SnapshotError> {
            sections
                .iter()
                .find(|s| s.id == id)
                .map(|s| (s.offset as usize, s.len as usize))
                .ok_or_else(|| SnapshotError::Malformed {
                    offset: HEADER_LEN,
                    what: format!("missing section {id} ({})", v2_section_name(id)),
                })
        };

        let mut layout = Layout::default();
        parse_vocab(&map, find(SEC_VOCAB)?, &mut layout)?;
        parse_entities(&map, find(SEC_ENTITIES)?, &mut layout)?;
        parse_docs(&map, find(SEC_DOCS)?, &mut layout)?;
        parse_topics(&map, find(SEC_TOPICS)?, &mut layout)?;
        parse_phrases(&map, find(SEC_PHRASES)?, &mut layout)?;
        parse_topic_entities(&map, find(SEC_TOPIC_ENTITIES)?, &mut layout)?;
        parse_ptf(&map, find(SEC_PTF)?, &mut layout)?;
        parse_doc_topic(&map, find(SEC_DOC_TOPIC)?, &mut layout)?;
        parse_doc_ids(&map, find(SEC_DOC_IDS)?, &mut layout)?;
        let (cold_off, cold_len) = find(SEC_COLD)?;
        layout.cold_off = cold_off;
        layout.cold_len = cold_len;
        if let Some(s) = sections.iter().find(|s| s.id == SEC_DELTA) {
            layout.delta =
                Some(parse_delta(&map, (s.offset as usize, s.len as usize), &layout)?);
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

    // --- vocabulary ---

    /// Number of vocabulary words.
    pub fn num_words(&self) -> usize {
        self.layout.n_words
    }

    /// The word's surface form, or `"<unk>"` out of range (matching
    /// [`lesm_corpus::Vocabulary::name_or_unk`]).
    pub fn word_or_unk(&self, id: u32) -> &str {
        if (id as usize) < self.layout.n_words {
            self.arena_str(self.layout.word_name_offsets, self.layout.word_names, id as usize)
        } else {
            "<unk>"
        }
    }

    // --- entities ---

    /// Number of entity types.
    pub fn num_types(&self) -> usize {
        self.layout.n_types
    }

    /// Entity type name, if in range.
    pub fn type_name(&self, t: usize) -> Option<&str> {
        (t < self.layout.n_types)
            .then(|| self.arena_str(self.layout.type_name_offsets, self.layout.type_names, t))
    }

    // --- documents ---

    /// Number of documents in this artifact (shard-local).
    pub fn num_docs(&self) -> usize {
        self.layout.n_docs
    }

    // --- topics ---

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.layout.n_topics
    }

    /// Parent topic of `t`.
    pub fn parent(&self, t: usize) -> Option<usize> {
        let v = self.u64s(self.layout.parent)[t];
        (v != u64::MAX).then_some(v as usize)
    }

    /// Hierarchy level of `t`.
    pub fn level(&self, t: usize) -> usize {
        self.u64s(self.layout.level)[t] as usize
    }

    /// Background mixing weight of `t`.
    pub fn rho(&self, t: usize) -> f64 {
        self.f64s(self.layout.rho)[t]
    }

    /// Child topic ids of `t`.
    pub fn children(&self, t: usize) -> &[u64] {
        let (a, b) = self.span(self.layout.child_bounds, t);
        &self.u64s(self.layout.children)[a..b]
    }

    /// Path string of `t` (e.g. `"o/2/1"`).
    pub fn path(&self, t: usize) -> &str {
        self.arena_str(self.layout.path_offsets, self.layout.paths, t)
    }

    /// Leaf topics (no children), ascending (matching
    /// [`lesm_hier::TopicHierarchy::leaves`]).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.layout.n_topics).filter(|&t| self.children(t).is_empty()).collect()
    }

    // --- ranked phrases ---

    /// Number of ranked phrases for topic `t`.
    pub fn phrase_count(&self, t: usize) -> usize {
        let (a, b) = self.span(self.layout.phrase_topic_bounds, t);
        b - a
    }

    /// The `i`-th ranked phrase of topic `t`: (tokens, score, topic
    /// frequency), in the original ranked order.
    pub fn phrase(&self, t: usize, i: usize) -> (&[u32], f64, f64) {
        let (a, _) = self.span(self.layout.phrase_topic_bounds, t);
        let p = a + i;
        let (ta, tb) = self.span(self.layout.phrase_tok_bounds, p);
        (
            &self.u32s(self.layout.phrase_tokens)[ta..tb],
            self.f64s(self.layout.phrase_scores)[p],
            self.f64s(self.layout.phrase_freqs)[p],
        )
    }

    // --- ranked entities ---

    /// The ranked entity list for topic `t`, type cell `x`: parallel
    /// (ids, scores) slices.
    pub fn topic_entity_slices(&self, t: usize, x: usize) -> (&[u32], &[f64]) {
        let (a, _) = self.span(self.layout.te_cell_bounds, t);
        let (ea, eb) = self.span(self.layout.te_entry_bounds, a + x);
        (&self.u32s(self.layout.te_ids)[ea..eb], &self.f64s(self.layout.te_scores)[ea..eb])
    }

    // --- phrase-topic frequency ---

    /// Number of phrase-frequency entries for topic `t`.
    pub fn ptf_count(&self, t: usize) -> usize {
        let (a, b) = self.span(self.layout.ptf_topic_bounds, t);
        b - a
    }

    /// The `i`-th phrase-frequency entry of topic `t` (entries are stored
    /// in ascending phrase-key order — the order
    /// [`ModelView::ptf_entries`] promises).
    pub fn ptf_entry(&self, t: usize, i: usize) -> (&[u32], f64) {
        let (a, _) = self.span(self.layout.ptf_topic_bounds, t);
        let e = a + i;
        let (ta, tb) = self.span(self.layout.ptf_tok_bounds, e);
        (&self.u32s(self.layout.ptf_tokens)[ta..tb], self.f64s(self.layout.ptf_freqs)[e])
    }

    // --- doc-topic weights ---

    /// Document `d`'s topic weight row.
    pub fn doc_topic_row(&self, d: usize) -> &[f64] {
        let (a, b) = self.span(self.layout.dt_row_bounds, d);
        &self.f64s(self.layout.dt_values)[a..b]
    }

    /// The leaf topic with the highest weight for document `d` (matching
    /// [`lesm_core::pipeline::MinedStructure::doc_leaf`]).
    pub fn doc_leaf(&self, d: usize) -> usize {
        self.leaves()
            .into_iter()
            .max_by(|&a, &b| self.doc_topic(d, a).total_cmp(&self.doc_topic(d, b)))
            .unwrap_or(0)
    }

    // --- full decode (cold path) ---

    /// Fully decodes the artifact into an owned [`Snapshot`] — the only
    /// place the cold section is read. Used by tooling and tests; the
    /// serve hot path never calls this.
    pub fn to_snapshot(&self) -> Result<Snapshot, SnapshotError> {
        let cold_bytes =
            &self.map.bytes()[self.layout.cold_off..self.layout.cold_off + self.layout.cold_len];
        let mut r = ByteReader::new(cold_bytes);

        // Hierarchy extras.
        let n_hier_types = r.get_len(8)?;
        let mut type_names = Vec::with_capacity(n_hier_types);
        for _ in 0..n_hier_types {
            type_names.push(r.get_str()?);
        }
        let n_cold_topics = r.get_len(8)?;
        if n_cold_topics != self.layout.n_topics {
            return Err(SnapshotError::Malformed {
                offset: self.layout.cold_off + r.position(),
                what: format!(
                    "cold section has {n_cold_topics} topics but the topics section has {}",
                    self.layout.n_topics
                ),
            });
        }
        let mut topics = Vec::with_capacity(n_cold_topics);
        for t in 0..n_cold_topics {
            let n_phi = r.get_len(8)?;
            let mut phi = Vec::with_capacity(n_phi);
            for _ in 0..n_phi {
                phi.push(r.get_f64_seq()?);
            }
            let network = snapshot::decode_network(&mut r)?;
            topics.push(HierTopic {
                parent: self.parent(t),
                children: self.children(t).iter().map(|&c| c as usize).collect(),
                level: self.level(t),
                path: self.path(t).to_string(),
                phi,
                rho: self.rho(t),
                network,
            });
        }
        let n_fits = r.get_len(1)?;
        let mut fits = Vec::with_capacity(n_fits);
        for _ in 0..n_fits {
            fits.push(r.get_option(snapshot::decode_fit)?);
        }
        let n_alphas = r.get_len(1)?;
        let mut alphas = Vec::with_capacity(n_alphas);
        for _ in 0..n_alphas {
            alphas.push(r.get_option(|r| r.get_f64_seq())?);
        }
        let hierarchy = TopicHierarchy { type_names, topics, fits, alphas };

        // Corpus: hot arenas + cold per-doc extras.
        let mut corpus = Corpus::new();
        for w in 0..crate::wire_u32(self.layout.n_words, "vocab size")? {
            corpus.vocab.intern(self.word_or_unk(w));
        }
        for t in 0..self.layout.n_types {
            let (a, b) = self.span(self.layout.type_bounds, t);
            let ty = corpus.entities.add_type(self.type_name(t).unwrap_or(""));
            for id in 0..crate::wire_u32(b - a, "entity count")? {
                corpus.entities.intern(ty, self.entity_name(t, id)).map_err(|e| {
                    SnapshotError::Malformed {
                        offset: self.layout.cold_off,
                        what: format!("entity intern failed: {e}"),
                    }
                })?;
            }
        }
        let n_cold_docs = r.get_len(1)?;
        if n_cold_docs != self.layout.n_docs {
            return Err(SnapshotError::Malformed {
                offset: self.layout.cold_off + r.position(),
                what: format!(
                    "cold section has {n_cold_docs} docs but the docs section has {}",
                    self.layout.n_docs
                ),
            });
        }
        for d in 0..n_cold_docs {
            let n_links = r.get_len(8)?;
            let mut entities = Vec::with_capacity(n_links);
            for _ in 0..n_links {
                let at = r.position();
                let etype = r.get_u32()? as usize;
                let id = r.get_u32()?;
                if etype >= self.layout.n_types {
                    return Err(SnapshotError::Malformed {
                        offset: self.layout.cold_off + at,
                        what: format!(
                            "entity type {etype} out of range ({} types)",
                            self.layout.n_types
                        ),
                    });
                }
                entities.push(EntityRef::new(etype, id));
            }
            let label = r.get_option(|r| r.get_u32())?;
            let year = r.get_option(|r| r.get_i32())?;
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
        let topic_phrases = (0..self.layout.n_topics)
            .map(|t| {
                (0..self.phrase_count(t))
                    .map(|i| {
                        let (tokens, score, topic_freq) = self.phrase(t, i);
                        lesm_phrases::TopicalPhrase { tokens: tokens.to_vec(), score, topic_freq }
                    })
                    .collect()
            })
            .collect();
        let topic_entities = (0..self.layout.n_topics)
            .map(|t| {
                (0..self.entity_cells(t))
                    .map(|x| {
                        let (ids, scores) = self.topic_entity_slices(t, x);
                        ids.iter().copied().zip(scores.iter().copied()).collect()
                    })
                    .collect()
            })
            .collect();
        let phrase_topic_freq = (0..self.layout.n_topics)
            .map(|t| {
                let mut table = HashMap::with_capacity(self.ptf_count(t));
                for i in 0..self.ptf_count(t) {
                    let (tokens, freq) = self.ptf_entry(t, i);
                    table.insert(tokens.to_vec(), freq);
                }
                table
            })
            .collect();
        let doc_topic =
            (0..self.layout.n_docs).map(|d| self.doc_topic_row(d).to_vec()).collect();

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

/// The mapped backend of the shared renderers: every accessor borrows
/// from the mapping, so search scans documents without allocating.
impl ModelView for MappedSnapshot {
    fn num_topics(&self) -> usize {
        self.layout.n_topics
    }
    fn topic_path(&self, t: usize) -> &str {
        self.path(t)
    }
    fn topic_parent(&self, t: usize) -> Option<usize> {
        self.parent(t)
    }
    fn topic_level(&self, t: usize) -> usize {
        self.level(t)
    }
    fn topic_rho(&self, t: usize) -> f64 {
        self.rho(t)
    }
    fn topic_children(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        self.children(t).iter().map(|&c| c as usize)
    }
    fn topic_phrases(&self, t: usize) -> impl Iterator<Item = (&[u32], f64, f64)> + '_ {
        (0..self.phrase_count(t)).map(move |i| self.phrase(t, i))
    }
    fn entity_cells(&self, t: usize) -> usize {
        let (a, b) = self.span(self.layout.te_cell_bounds, t);
        b - a
    }
    fn topic_entities(&self, t: usize, x: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (ids, scores) = self.topic_entity_slices(t, x);
        ids.iter().copied().zip(scores.iter().copied())
    }
    fn ptf_entries(&self, t: usize) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        (0..self.ptf_count(t)).map(move |i| self.ptf_entry(t, i))
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
        self.type_name(x)
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
}

fn parse_section_table(map: &Mapping, body_len: usize) -> Result<Vec<SectionInfo>, SnapshotError> {
    let bytes = map.bytes();
    let count = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
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
        let id = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[at + 8..at + 16]);
        let off = u64::from_le_bytes(w);
        w.copy_from_slice(&bytes[at + 16..at + 24]);
        let len = u64::from_le_bytes(w);
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
        let end = off_us.saturating_add(len_us);
        if end > body_len {
            return Err(SnapshotError::Malformed {
                offset: at,
                what: format!("section {id} extends past the artifact body"),
            });
        }
        sections.push(SectionInfo { id, offset: off, len });
    }
    Ok(sections)
}

fn parse_vocab(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("vocab")?;
    let offsets = c.array(n + 1, 8, 8, "vocab name offsets")?;
    let arena_len = check_bounds(map, offsets, "vocab name")?;
    let names = c.array(arena_len, 1, 1, "vocab name arena")?;
    check_utf8(map, offsets, names, "vocab name")?;
    let sorted = c.array(n, 4, 4, "vocab sorted ids")?;
    // The sorted array must be a permutation of 0..n in nondecreasing
    // name order for binary-search lookups to be correct.
    let sorted_view = map.view_u32(sorted.off, sorted.count);
    let mut seen = vec![false; n];
    for &id in sorted_view {
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ => {
                return Err(SnapshotError::Malformed {
                    offset: sorted.off,
                    what: format!("vocab sorted ids are not a permutation (id {id})"),
                })
            }
        }
    }
    let offs = map.view_u64(offsets.off, offsets.count);
    let arena = &map.bytes()[names.off..names.off + names.count];
    let name_of = |id: u32| &arena[offs[id as usize] as usize..offs[id as usize + 1] as usize];
    for w in sorted_view.windows(2) {
        if name_of(w[0]) > name_of(w[1]) {
            return Err(SnapshotError::Malformed {
                offset: sorted.off,
                what: "vocab sorted ids are not in name order".into(),
            });
        }
    }
    layout.n_words = n;
    layout.word_name_offsets = offsets;
    layout.word_names = names;
    layout.word_sorted = sorted;
    Ok(())
}

fn parse_entities(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let nt = c.count("entity types")?;
    let type_name_offsets = c.array(nt + 1, 8, 8, "entity type name offsets")?;
    let tn_len = check_bounds(map, type_name_offsets, "entity type name")?;
    let type_names = c.array(tn_len, 1, 1, "entity type name arena")?;
    check_utf8(map, type_name_offsets, type_names, "entity type name")?;
    let type_bounds = c.array(nt + 1, 8, 8, "entity type bounds")?;
    let n_entities = check_bounds(map, type_bounds, "entity type")?;
    let ent_name_offsets = c.array(n_entities + 1, 8, 8, "entity name offsets")?;
    let en_len = check_bounds(map, ent_name_offsets, "entity name")?;
    let ent_names = c.array(en_len, 1, 1, "entity name arena")?;
    check_utf8(map, ent_name_offsets, ent_names, "entity name")?;
    layout.n_types = nt;
    layout.type_name_offsets = type_name_offsets;
    layout.type_names = type_names;
    layout.type_bounds = type_bounds;
    layout.ent_name_offsets = ent_name_offsets;
    layout.ent_names = ent_names;
    Ok(())
}

fn parse_docs(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("docs")?;
    let tok_bounds = c.array(n + 1, 8, 8, "doc token bounds")?;
    let n_tokens = check_bounds(map, tok_bounds, "doc token")?;
    let tokens = c.array(n_tokens, 4, 4, "doc tokens")?;
    layout.n_docs = n;
    layout.doc_tok_bounds = tok_bounds;
    layout.doc_tokens = tokens;
    Ok(())
}

fn parse_topics(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("topics")?;
    let parent = c.array(n, 8, 8, "topic parents")?;
    let level = c.array(n, 8, 8, "topic levels")?;
    let rho = c.array(n, 8, 8, "topic rho")?;
    let child_bounds = c.array(n + 1, 8, 8, "topic child bounds")?;
    let n_children = check_bounds(map, child_bounds, "topic child")?;
    let children = c.array(n_children, 8, 8, "topic children")?;
    let path_offsets = c.array(n + 1, 8, 8, "topic path offsets")?;
    let p_len = check_bounds(map, path_offsets, "topic path")?;
    let paths = c.array(p_len, 1, 1, "topic path arena")?;
    check_utf8(map, path_offsets, paths, "topic path")?;
    layout.n_topics = n;
    layout.parent = parent;
    layout.level = level;
    layout.rho = rho;
    layout.child_bounds = child_bounds;
    layout.children = children;
    layout.path_offsets = path_offsets;
    layout.paths = paths;
    Ok(())
}

fn parse_phrases(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("phrase topics")?;
    if n != layout.n_topics {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: format!("phrases section has {n} topics, topics section {}", layout.n_topics),
        });
    }
    let topic_bounds = c.array(n + 1, 8, 8, "phrase topic bounds")?;
    let n_phrases = check_bounds(map, topic_bounds, "phrase")?;
    let tok_bounds = c.array(n_phrases + 1, 8, 8, "phrase token bounds")?;
    let n_tokens = check_bounds(map, tok_bounds, "phrase token")?;
    let tokens = c.array(n_tokens, 4, 4, "phrase tokens")?;
    let scores = c.array(n_phrases, 8, 8, "phrase scores")?;
    let freqs = c.array(n_phrases, 8, 8, "phrase freqs")?;
    layout.phrase_topic_bounds = topic_bounds;
    layout.phrase_tok_bounds = tok_bounds;
    layout.phrase_tokens = tokens;
    layout.phrase_scores = scores;
    layout.phrase_freqs = freqs;
    Ok(())
}

fn parse_topic_entities(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("topic-entity topics")?;
    if n != layout.n_topics {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: format!(
                "topic-entities section has {n} topics, topics section {}",
                layout.n_topics
            ),
        });
    }
    let cell_bounds = c.array(n + 1, 8, 8, "topic-entity cell bounds")?;
    let n_cells = check_bounds(map, cell_bounds, "topic-entity cell")?;
    let entry_bounds = c.array(n_cells + 1, 8, 8, "topic-entity entry bounds")?;
    let n_entries = check_bounds(map, entry_bounds, "topic-entity entry")?;
    let ids = c.array(n_entries, 4, 4, "topic-entity ids")?;
    let scores = c.array(n_entries, 8, 8, "topic-entity scores")?;
    layout.te_cell_bounds = cell_bounds;
    layout.te_entry_bounds = entry_bounds;
    layout.te_ids = ids;
    layout.te_scores = scores;
    Ok(())
}

fn parse_ptf(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("phrase-freq topics")?;
    if n != layout.n_topics {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: format!(
                "phrase-topic-freq section has {n} topics, topics section {}",
                layout.n_topics
            ),
        });
    }
    let topic_bounds = c.array(n + 1, 8, 8, "phrase-freq topic bounds")?;
    let n_entries = check_bounds(map, topic_bounds, "phrase-freq entry")?;
    let tok_bounds = c.array(n_entries + 1, 8, 8, "phrase-freq token bounds")?;
    let n_tokens = check_bounds(map, tok_bounds, "phrase-freq token")?;
    let tokens = c.array(n_tokens, 4, 4, "phrase-freq tokens")?;
    let freqs = c.array(n_entries, 8, 8, "phrase-freq freqs")?;
    // Entries must be in strictly ascending phrase-key order within each
    // topic: the query path sums them in stored order and must match the
    // owned collect-then-sort order bit for bit.
    let tb = map.view_u64(topic_bounds.off, topic_bounds.count);
    let eb = map.view_u64(tok_bounds.off, tok_bounds.count);
    let toks = map.view_u32(tokens.off, tokens.count);
    for t in 0..n {
        for e in tb[t] as usize..(tb[t + 1] as usize).saturating_sub(1) {
            let a = &toks[eb[e] as usize..eb[e + 1] as usize];
            let b = &toks[eb[e + 1] as usize..eb[e + 2] as usize];
            if a >= b {
                return Err(SnapshotError::Malformed {
                    offset: tokens.off,
                    what: format!("phrase-freq entries of topic {t} are not sorted"),
                });
            }
        }
    }
    layout.ptf_topic_bounds = topic_bounds;
    layout.ptf_tok_bounds = tok_bounds;
    layout.ptf_tokens = tokens;
    layout.ptf_freqs = freqs;
    Ok(())
}

fn parse_doc_topic(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("doc-topic rows")?;
    if n != layout.n_docs {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: format!("doc-topic section has {n} rows, docs section {}", layout.n_docs),
        });
    }
    let row_bounds = c.array(n + 1, 8, 8, "doc-topic row bounds")?;
    let n_values = check_bounds(map, row_bounds, "doc-topic value")?;
    let values = c.array(n_values, 8, 8, "doc-topic values")?;
    layout.dt_row_bounds = row_bounds;
    layout.dt_values = values;
    Ok(())
}

fn parse_doc_ids(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &mut Layout,
) -> Result<(), SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let n = c.count("doc ids")?;
    if n != layout.n_docs {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: format!("doc-ids section has {n} entries, docs section {}", layout.n_docs),
        });
    }
    layout.doc_ids = c.array(n, 8, 8, "doc ids")?;
    Ok(())
}

/// Decodes and validates the optional delta-lineage section. Runs after
/// every mandatory section so the base ranges can be checked against the
/// artifact's own (superset) ranges.
fn parse_delta(
    map: &Mapping,
    (off, len): (usize, usize),
    layout: &Layout,
) -> Result<DeltaInfo, SnapshotError> {
    let mut c = Cursor::new(map, off, len);
    let base_docs = c.u64()?;
    let base_words = c.u64()?;
    let chain_depth = c.u64()?;
    if chain_depth == 0 {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: "delta lineage chain depth is 0".to_string(),
        });
    }
    if base_docs > layout.n_docs as u64 || base_words > layout.n_words as u64 {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: format!(
                "delta lineage base ranges ({base_docs} docs, {base_words} words) exceed \
                 the artifact's ({} docs, {} words)",
                layout.n_docs, layout.n_words
            ),
        });
    }
    let nt = c.count("delta lineage entity types")?;
    if nt != layout.n_types {
        return Err(SnapshotError::Malformed {
            offset: off,
            what: format!(
                "delta lineage has {nt} entity types, entities section {}",
                layout.n_types
            ),
        });
    }
    let counts = c.array(nt, 8, 8, "delta lineage entity counts")?;
    let base_entities: Vec<u64> = map.view_u64(counts.off, counts.count).to_vec();
    let type_bounds = map.view_u64(layout.type_bounds.off, layout.type_bounds.count);
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
    let name_len = c.count("delta lineage base name")?;
    let name_ref = c.array(name_len, 1, 1, "delta lineage base name")?;
    let name_bytes = &map.bytes()[name_ref.off..name_ref.off + name_ref.count];
    let base_artifact = std::str::from_utf8(name_bytes)
        .map_err(|_| SnapshotError::Malformed {
            offset: name_ref.off,
            what: "delta lineage base name is not valid UTF-8".to_string(),
        })?
        .to_string();
    Ok(DeltaInfo { base_artifact, base_docs, base_words, base_entities, chain_depth })
}

// ---------------------------------------------------------------------------
// Version sniffing and inspection
// ---------------------------------------------------------------------------

/// Renders a deterministic human-readable description of an artifact:
/// format version, size, checksum status, and the section table with
/// offsets, lengths, and offset alignment. Works on artifacts too
/// damaged to load; only a bad magic or an unsupported version fails.
pub fn describe_artifact(bytes: &[u8]) -> Result<String, SnapshotError> {
    use std::fmt::Write as _;
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated { offset: 0, needed: 8, available: bytes.len() });
    }
    let found = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if found != MAGIC {
        return Err(SnapshotError::BadMagic { found });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != FORMAT_VERSION_V2 {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION_V2,
        });
    }
    let mut out = String::new();
    let _ = writeln!(out, "format version: {version}");
    let _ = writeln!(out, "size: {} bytes", bytes.len());
    if bytes.len() < 16 {
        let _ = writeln!(out, "checksum: <artifact too short>");
        return Ok(out);
    }
    let trailer_at = bytes.len() - 8;
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[trailer_at..]);
    let stored = u64::from_le_bytes(w);
    let checksum_ok = trailer_at.is_multiple_of(8)
        && checksum_words(
            &bytes[..trailer_at]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect::<Vec<u64>>(),
        ) == stored;
    let _ = writeln!(
        out,
        "checksum: {stored:#018x} ({})",
        if checksum_ok { "ok" } else { "MISMATCH" }
    );
    let count = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let _ = writeln!(out, "sections: {count}");
    let _ = writeln!(out, "  {:>3}  {:<18} {:>12} {:>12} {:>6}", "id", "name", "offset", "length", "align");
    for i in 0..count {
        let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
        if at + TABLE_ENTRY_LEN > trailer_at {
            let _ = writeln!(out, "  <table truncated at entry {i}>");
            break;
        }
        let id = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        w.copy_from_slice(&bytes[at + 8..at + 16]);
        let off = u64::from_le_bytes(w);
        w.copy_from_slice(&bytes[at + 16..at + 24]);
        let len = u64::from_le_bytes(w);
        let name = v2_section_name(id);
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
