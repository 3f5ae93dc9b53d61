//! Snapshot format v2 guarantees:
//!
//! 1. `save_v2(to_snapshot(map(save_v2(m)))) == save_v2(m)` byte for
//!    byte, and the decoded model equals `m` field by field on raw float
//!    bits. An update chain run from decoded models publishes the same
//!    bytes as the chain run in memory.
//! 2. The owned and the mapped [`ModelView`] answer every rendered query
//!    (search, topic rendering, hierarchy JSON) identically — the
//!    renderers exist once, so this checks the two accessor sets.
//! 3. Anything but a v2 artifact is a typed error: a v1 artifact is
//!    `VersionMismatch { found: 1, supported: 2 }`, never a checksum
//!    error or a panic.
//! 4. Truncation, byte flips, and misaligned buffers surface as typed
//!    [`SnapshotError`]s (or load correctly via the aligned-copy
//!    fallback) — never panics, never silently wrong data.

use lesm_core::export::{hierarchy_to_json, render_topic};
use lesm_core::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_core::search::{rank_topics, render_hits, search, SearchIndex};
use lesm_core::ModelView;
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::{Corpus, Doc, EntityRef};
use lesm_hier::em::EmFit;
use lesm_hier::hierarchy::HierTopic;
use lesm_hier::TopicHierarchy;
use lesm_net::{LinkBlock, TypedNetwork};
use lesm_phrases::TopicalPhrase;
use lesm_query::IndexParts;
use lesm_serve::{
    describe_artifact, load_model_file, save_snapshot_v2, save_snapshot_v2_with_lineage,
    write_shards, DeltaInfo, MappedSnapshot, Model, ShardBy, SnapshotError,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Mines a small real structure with the actual pipeline.
fn mined_fixture() -> (Corpus, MinedStructure) {
    let papers = SyntheticPapers::generate(&PapersConfig::dblp(60, 42)).expect("synth corpus");
    let mut config = MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    config.threads = 2;
    let mined = LatentStructureMiner::mine(&papers.corpus, &config).expect("mine");
    (papers.corpus, mined)
}

/// Hand-builds a two-topic structure whose every field is populated from
/// the given words and raw score bits, including documents, segments,
/// topical frequency tables, and doc-topic rows.
fn synthetic_structure(words: &[String], score_bits: &[u64]) -> (Corpus, MinedStructure) {
    let mut corpus = Corpus::new();
    let etype = corpus.entities.add_type("author");
    let mut ids = Vec::new();
    for w in words {
        ids.push(corpus.vocab.intern(w));
    }
    for (i, w) in words.iter().enumerate() {
        corpus.entities.intern(etype, w).expect("known type");
        corpus.docs.push(Doc {
            tokens: ids.clone(),
            entities: vec![EntityRef::new(etype, i as u32)],
            label: if i % 2 == 0 { Some(i as u32) } else { None },
            year: if i % 3 == 0 { Some(2000 + i as i32) } else { None },
        });
    }
    let score = |i: usize| f64::from_bits(score_bits[i % score_bits.len()]);
    let topic = |parent, level, path: &str, children: Vec<usize>| HierTopic {
        parent,
        children,
        level,
        path: path.into(),
        phi: vec![vec![score(0), score(1)]],
        rho: score(2),
    };
    let hierarchy = TopicHierarchy {
        network: TypedNetwork::new(vec!["author".into()], vec![corpus.entities.count(etype)]),
        topics: vec![topic(None, 0, "o", vec![1]), topic(Some(0), 1, "o/1", vec![])],
        fits: vec![None, None],
    };
    let phrases: Vec<TopicalPhrase> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| TopicalPhrase { tokens: vec![id], score: score(i), topic_freq: score(i + 1) })
        .collect();
    let entities: Vec<(u32, f64)> =
        (0..corpus.entities.count(etype) as u32).map(|i| (i, score(i as usize))).collect();
    let mut freq = HashMap::new();
    for (i, &id) in ids.iter().enumerate() {
        freq.insert(vec![id], score(i));
        if i + 1 < ids.len() {
            freq.insert(vec![id, ids[i + 1]], score(i + 2));
        }
    }
    let n_docs = corpus.docs.len();
    let mined = MinedStructure {
        hierarchy,
        topic_phrases: vec![phrases.clone(), phrases],
        topic_entities: vec![vec![entities.clone()], vec![entities]],
        phrase_topic_freq: vec![freq.clone(), freq],
        segments: (0..n_docs).map(|_| vec![ids.clone()]).collect(),
        doc_topic: (0..n_docs).map(|d| vec![score(d), score(d + 1)]).collect(),
    };
    (corpus, mined)
}

/// Raw bits of every float, so NaN payloads and signed zeros compare.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A field-by-field canonical form of a model: every float as raw bits,
/// phrase-frequency tables in sorted-key order. Structs are destructured
/// exhaustively, so a field added later cannot be silently skipped.
fn canonical(corpus: &Corpus, mined: &MinedStructure) -> Vec<String> {
    let mut out = vec![format!("vocab {:?}", corpus.vocab.iter().collect::<Vec<_>>())];
    for t in 0..corpus.entities.num_types() {
        let names = corpus.entities.table(t).map(|tab| tab.iter().collect::<Vec<_>>());
        out.push(format!("entity type {t} {:?} {names:?}", corpus.entities.type_name(t)));
    }
    for (d, Doc { tokens, entities, label, year }) in corpus.docs.iter().enumerate() {
        out.push(format!("doc {d} {tokens:?} {entities:?} {label:?} {year:?}"));
    }
    let MinedStructure {
        hierarchy: TopicHierarchy { network, topics, fits },
        topic_phrases,
        topic_entities,
        phrase_topic_freq,
        segments,
        doc_topic,
    } = mined;
    let TypedNetwork { type_names, node_counts, blocks } = network;
    out.push(format!("network {type_names:?} {node_counts:?}"));
    for LinkBlock { tx, ty, edges } in blocks {
        let edges: Vec<_> = edges.iter().map(|&(i, j, w)| (i, j, w.to_bits())).collect();
        out.push(format!("block {tx} {ty} {edges:?}"));
    }
    for (t, topic) in topics.iter().enumerate() {
        let HierTopic { parent, children, level, path, phi, rho } = topic;
        let phi: Vec<_> = phi.iter().map(|row| bits(row)).collect();
        out.push(format!("topic {t} {parent:?} {children:?} {level} {path:?} {phi:?} {}", rho.to_bits()));
    }
    for (t, fit) in fits.iter().enumerate() {
        let Some(fit) = fit else {
            out.push(format!("fit {t} none"));
            continue;
        };
        let EmFit {
            k,
            phi,
            background,
            rho,
            alpha,
            theta,
            objective,
            parent_phi,
        } = fit;
        let phi: Vec<Vec<_>> = phi.iter().map(|x| x.iter().map(|row| bits(row)).collect()).collect();
        let parent_phi: Vec<_> = parent_phi.iter().map(|row| bits(row)).collect();
        out.push(format!(
            "fit {t} {k} {phi:?} {background} {:?} {:?} {:?} {} {parent_phi:?}",
            bits(rho),
            bits(alpha),
            bits(theta),
            objective.to_bits(),
        ));
    }
    for (t, list) in topic_phrases.iter().enumerate() {
        for TopicalPhrase { tokens, score, topic_freq } in list {
            out.push(format!("phrase {t} {tokens:?} {} {}", score.to_bits(), topic_freq.to_bits()));
        }
    }
    for (t, cells) in topic_entities.iter().enumerate() {
        for (x, list) in cells.iter().enumerate() {
            let list: Vec<_> = list.iter().map(|&(id, s)| (id, s.to_bits())).collect();
            out.push(format!("entities {t} {x} {list:?}"));
        }
    }
    for (t, table) in phrase_topic_freq.iter().enumerate() {
        let mut entries: Vec<_> = table.iter().map(|(k, v)| (k, v.to_bits())).collect();
        entries.sort_unstable();
        out.push(format!("ptf {t} {entries:?}"));
    }
    out.push(format!("segments {segments:?}"));
    for (d, row) in doc_topic.iter().enumerate() {
        out.push(format!("doc-topic {d} {:?}", bits(row)));
    }
    out
}

/// v2 round-trip: the decoded snapshot equals the original field by field
/// (raw float bits), and re-saving v2 reproduces the artifact bit-for-bit.
fn assert_v2_round_trip(corpus: &Corpus, mined: &MinedStructure) -> Vec<u8> {
    let bytes = save_snapshot_v2(corpus, mined).expect("save");
    let mapped = MappedSnapshot::from_bytes(&bytes).expect("load v2 back");
    let snap = mapped.to_snapshot().expect("full decode");
    assert_eq!(
        canonical(corpus, mined),
        canonical(&snap.corpus, &snap.mined),
        "v2 round-trip changed the value"
    );
    assert_eq!(
        bytes,
        save_snapshot_v2(&snap.corpus, &snap.mined).expect("save"),
        "re-saving the round-tripped value changed the v2 artifact"
    );
    bytes
}

/// Every answer a model gives: hierarchy JSON at two depths, every
/// topic, and per query the search lines plus the raw bits of every
/// topic's relevance score (which depend on the phrase-frequency order).
fn answers<V: ModelView>(m: &V, queries: &[&str]) -> Vec<String> {
    let mut out = vec![hierarchy_to_json(m, 10), hierarchy_to_json(m, 3)];
    out.extend((0..m.num_topics()).map(|t| render_topic(m, t, 10)));
    let index = SearchIndex::build(m);
    for q in queries {
        out.push(render_hits(m, &search(m, &index, q, 10)).join("\n"));
        let tokens: Vec<u32> = q.split(' ').filter_map(|w| m.word_id(w)).collect();
        let scores = rank_topics(&index, &tokens, usize::MAX);
        out.push(format!("{:?}", scores.iter().map(|&(t, s)| (t, s.to_bits())).collect::<Vec<_>>()));
    }
    out
}

#[test]
fn real_mined_structure_round_trips_through_v2() {
    let (corpus, mined) = mined_fixture();
    assert_v2_round_trip(&corpus, &mined);
}

/// A depth-2 tree, with fits below the root and the root's links, decodes
/// to the model it was saved from.
#[test]
fn a_two_level_tree_round_trips_exactly() {
    let (corpus, mined) = chain_fixture(0);
    let h = &mined.hierarchy;
    assert!(h.fits.iter().filter(|f| f.is_some()).count() > 1, "level 1 is expanded");
    assert!(h.topics.iter().any(|t| t.level == 2), "the tree reaches level 2");
    assert!(h.network.num_links() > 0);
    assert_v2_round_trip(&corpus, &mined);
}

/// The base of [`chain_fixture`] plus `steps` appended batches.
const CHAIN_BASE: usize = 60;
const CHAIN_STEP: usize = 2;

/// A depth-2 model mined from the first [`CHAIN_BASE`] documents of a
/// synthetic corpus, and that corpus truncated to `CHAIN_BASE + steps *
/// CHAIN_STEP` documents (a truncated clone keeps every word and entity
/// id, as `lesm update`'s append-only contract requires).
fn chain_fixture(steps: usize) -> (Corpus, MinedStructure) {
    let mut corpus = SyntheticPapers::generate(&PapersConfig::dblp(CHAIN_BASE + 5 * CHAIN_STEP, 3))
        .expect("synth corpus")
        .corpus;
    let mut base = corpus.clone();
    base.docs.truncate(CHAIN_BASE);
    let mined = LatentStructureMiner::mine(&base, &chain_config()).expect("mine");
    corpus.docs.truncate(CHAIN_BASE + steps * CHAIN_STEP);
    (if steps == 0 { base } else { corpus }, mined)
}

fn chain_config() -> MinerConfig {
    let mut config = MinerConfig::default();
    config.hierarchy.children = lesm_hier::hierarchy::ChildCount::Fixed(2);
    config.hierarchy.max_depth = 2;
    config.hierarchy.min_links = 10;
    config.hierarchy.em.iters = 15;
    config.hierarchy.em.restarts = 1;
    config.phrase_min_support = 2;
    config
}

/// The proof that an update reads nothing the artifact does not store:
/// five `lesm update` steps with compaction after a chain of two, once
/// from each published artifact decoded and once from the in-memory
/// result of the step before. Every step publishes the same bytes.
#[test]
fn an_update_chain_from_decoded_artifacts_publishes_the_in_memory_bytes() {
    const MAX_DELTA_CHAIN: u64 = 2;
    let (full, base) = chain_fixture(5);
    let budget = lesm_core::UpdateBudget::default();
    let config = chain_config();
    let mut corpus = full.clone();
    corpus.docs.truncate(CHAIN_BASE);
    let mut published = save_snapshot_v2(&corpus, &base).expect("save base");
    let mut in_memory = base;
    let mut depth = 0;
    for step in 1..=5 {
        let base_docs = corpus.num_docs();
        let appended = &full.docs[base_docs..base_docs + CHAIN_STEP];
        corpus.docs.extend_from_slice(appended);
        let decoded = MappedSnapshot::from_bytes(&published).expect("load").to_snapshot().expect("decode");
        let mut merged = decoded.corpus;
        merged.docs.extend_from_slice(appended);
        let from_disk = LatentStructureMiner::update(&merged, &decoded.mined, base_docs, &config, &budget)
            .expect("update from the decoded artifact");
        in_memory = LatentStructureMiner::update(&corpus, &in_memory, base_docs, &config, &budget)
            .expect("update in memory");
        depth += 1;
        let lineage = (depth <= MAX_DELTA_CHAIN).then(|| DeltaInfo {
            base_artifact: format!("v{step:04}.lesm"),
            base_docs: base_docs as u64,
            base_words: corpus.num_words() as u64,
            base_entities: (0..corpus.entities.num_types())
                .map(|t| corpus.entities.count(t) as u64)
                .collect(),
            chain_depth: depth,
        });
        if lineage.is_none() {
            depth = 0;
        }
        let save = |c: &Corpus, m: &MinedStructure| {
            save_snapshot_v2_with_lineage(c, m, None, lineage.as_ref()).expect("save")
        };
        published = save(&merged, &from_disk);
        assert!(published == save(&corpus, &in_memory), "step {step}: the two chains diverged");
    }
    assert_eq!(corpus.num_docs(), full.num_docs());
}

#[test]
fn owned_and_mapped_views_answer_identically() {
    let cases = [
        ("mined", mined_fixture()),
        (
            "synthetic",
            synthetic_structure(
                &["mining".into(), "latent".into(), "structures".into()],
                &[1.0f64.to_bits(), 0.25f64.to_bits(), (-0.0f64).to_bits()],
            ),
        ),
        (
            "hostile",
            synthetic_structure(
                &["a\"b".into(), "\\".into(), "\u{1} x".into()],
                &[f64::NAN.to_bits() | 7, f64::INFINITY.to_bits(), 1],
            ),
        ),
    ];
    for (name, (corpus, mined)) in cases {
        let mapped = MappedSnapshot::from_bytes(&save_snapshot_v2(&corpus, &mined).expect("save"))
            .expect("load v2");
        let some_word = corpus.vocab.name_or_unk(0).to_string();
        let queries = ["mining", &some_word, "mining latent", "zzz-unknown", ""];
        assert_eq!(
            answers(&mined.view(&corpus), &queries),
            answers(&mapped, &queries),
            "{name}: owned and mapped views answer differently"
        );
    }
}

/// Every [`ModelView`] read of `m` as text: each topic, each entity type
/// and entity (one past the end of each too), each document, each global
/// document's facts, and each word id that occurs (one past the largest).
fn view_dump<V: ModelView>(m: &V) -> Vec<String> {
    let mut out = vec![format!(
        "topics {} types {} docs {} global docs {}",
        m.num_topics(),
        m.num_entity_types(),
        m.num_docs(),
        m.num_global_docs()
    )];
    for t in 0..m.num_topics() {
        out.push(format!(
            "topic {t} {:?} {:?} {} {:016x} {:?} cells {}",
            m.topic_path(t),
            m.topic_parent(t),
            m.topic_level(t),
            m.topic_rho(t).to_bits(),
            m.topic_children(t).collect::<Vec<_>>(),
            m.entity_cells(t)
        ));
        for (tokens, score, freq) in m.topic_phrases(t) {
            out.push(format!("phrase {tokens:?} {:016x} {:016x}", score.to_bits(), freq.to_bits()));
        }
        for x in 0..m.entity_cells(t) {
            for (id, score) in m.topic_entities(t, x) {
                out.push(format!("ranked {x} {id} {:016x}", score.to_bits()));
            }
        }
        for (tokens, freq) in m.ptf_entries(t) {
            out.push(format!("ptf {tokens:?} {:016x}", freq.to_bits()));
        }
    }
    for x in 0..=m.num_entity_types() {
        out.push(format!("type {x} {:?} {}", m.entity_type_name(x), m.num_entities(x)));
        for id in 0..=m.num_entities(x) as u32 {
            out.push(format!("entity {x} {id} {:?}", m.entity_name(x, id)));
        }
    }
    let mut max_word = 0;
    for d in 0..m.num_docs() {
        out.push(format!("doc {d} {} {:?} {:?}", m.doc_id(d), m.doc_tokens(d), m.render_doc(d)));
        let weights: Vec<u64> = (0..=m.num_topics()).map(|t| m.doc_topic(d, t).to_bits()).collect();
        out.push(format!("weights {weights:x?}"));
        max_word = m.doc_tokens(d).iter().copied().fold(max_word, u32::max);
    }
    for g in 0..m.num_global_docs() {
        let links: Vec<_> = m.global_doc_links(g).map(|e| (e.etype, e.id)).collect();
        out.push(format!(
            "global {g} {links:?} {:?} {}",
            m.global_doc_year(g),
            m.global_doc_leaf(g)
        ));
    }
    for w in 0..=max_word + 1 {
        let name = m.render_tokens(&[w]);
        out.push(format!("word {w} {name:?} {:?}", m.word_id(&name)));
    }
    out
}

#[test]
fn every_view_of_a_model_reads_the_same_model() {
    let (corpus, mined) = mined_fixture();
    let owned = mined.view(&corpus);
    let mapped = MappedSnapshot::from_bytes(&save_snapshot_v2(&corpus, &mined).expect("save"))
        .expect("load v2");
    let (owned_dump, mapped_dump) = (view_dump(&owned), view_dump(&mapped));
    for (i, (a, b)) in owned_dump.iter().zip(&mapped_dump).enumerate() {
        assert_eq!(a, b, "line {i}: owned and mapped views differ");
    }
    assert_eq!(owned_dump.len(), mapped_dump.len());

    // One extractor over every view: the owned model, its artifact, and
    // every shard of it.
    let parts = IndexParts::from_view(&owned).expect("owned parts");
    assert!(parts.docs.iter().any(|d| d.leaf != 0) && parts.docs.iter().any(|d| d.year.is_some()));
    assert_eq!(IndexParts::from_view(&mapped).expect("mapped parts"), parts);
    let dir = std::env::temp_dir().join(format!("lesm-v2test-{}-views", std::process::id()));
    for by in [ShardBy::EntityRange, ShardBy::TopicSubtree] {
        for n in [2, 3] {
            let _ = std::fs::remove_dir_all(&dir);
            let manifest = write_shards(&corpus, &mined, by, n, &dir).expect("write shards");
            assert_eq!(manifest.files.len(), n);
            for file in &manifest.files {
                let path = dir.join(file);
                let shard = MappedSnapshot::open(path.to_str().expect("utf-8 path")).expect("load shard");
                let shard_parts = IndexParts::from_view(&shard).expect("shard parts");
                assert!(shard_parts == parts, "{by:?} x{n}: shard {file} extracts other parts");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_doc_ids_rename_rendered_documents() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into(), "structures".into()],
        &[1.0f64.to_bits(), 0.25f64.to_bits()],
    );
    // A shard holding global documents 2 and 1 of the three, in that order.
    let ids: Vec<u64> = vec![2, 1];
    let bytes = save_snapshot_v2_with_lineage(&corpus, &mined, Some(&ids), None).expect("save");
    let mapped = MappedSnapshot::from_bytes(&bytes).expect("load v2");
    assert_eq!(mapped.num_docs(), ids.len());
    for (d, &g) in ids.iter().enumerate() {
        assert_eq!(mapped.doc_id(d), g);
    }
    // Every document's query facts are replicated into the shard.
    assert_eq!(mapped.num_global_docs(), corpus.num_docs());
    // An id past the model's documents is a typed save error.
    assert!(save_snapshot_v2_with_lineage(&corpus, &mined, Some(&[3]), None).is_err());
    let lines = Model::Mapped(Box::new(mapped)).search_lines("mining", 10);
    assert!(!lines.is_empty());
    for line in &lines {
        let doc: u64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("doc number in line");
        assert!(ids.contains(&doc), "rendered doc {doc} is not a global id: {line}");
    }
}

/// A minimal artifact in the retired v1 layout: magic, version 1, an
/// empty section table, and its byte-wise FNV-1a 64 trailer.
fn v1_artifact() -> Vec<u8> {
    let mut bytes = b"LESM".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    let h = lesm_core::fnv1a64(&bytes);
    bytes.extend_from_slice(&h.to_le_bytes());
    bytes
}

#[test]
fn other_versions_and_bad_magic_are_typed_errors() {
    let v1 = v1_artifact();
    let expect_v1 = |what: &str, r: Result<(), SnapshotError>| match r {
        Err(e @ SnapshotError::VersionMismatch { found: 1, supported: 2 }) => {
            assert!(e.to_string().contains("`lesm snapshot`"), "{what}: no rebuild hint in {e}");
        }
        other => panic!("{what}: expected VersionMismatch {{ 1, 2 }}, got {other:?}"),
    };
    expect_v1("from_bytes", MappedSnapshot::from_bytes(&v1).map(drop));
    expect_v1("describe_artifact", describe_artifact(&v1).map(drop));
    let path = std::env::temp_dir().join(format!("lesm-v2test-{}-v1.lesm", std::process::id()));
    std::fs::write(&path, &v1).expect("write v1");
    expect_v1("load_model_file", load_model_file(&path.to_string_lossy()).map(drop));
    std::fs::remove_file(&path).ok();

    // The version is checked before the checksum, so a v2 artifact
    // stamped with a future version reports the skew, not the trailer.
    let (corpus, mined) = synthetic_structure(&["mining".into()], &[1.0f64.to_bits()]);
    let mut future = save_snapshot_v2(&corpus, &mined).expect("save");
    future[4..8].copy_from_slice(&3u32.to_le_bytes());
    match MappedSnapshot::from_bytes(&future) {
        Err(SnapshotError::VersionMismatch { found: 3, supported: 2 }) => {}
        other => panic!("expected VersionMismatch {{ 3, 2 }}, got {other:?}"),
    }
    // Payload corruption is a checksum error.
    let mut corrupt = save_snapshot_v2(&corpus, &mined).expect("save");
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    match MappedSnapshot::from_bytes(&corrupt) {
        Err(SnapshotError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // Non-snapshot input reports the bytes it found.
    match MappedSnapshot::from_bytes(b"id\ttext\tauthors\n0\thello world\ta") {
        Err(SnapshotError::BadMagic { found }) => assert_eq!(&found, b"id\tt"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn truncated_v2_artifacts_report_typed_errors_never_panic() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into(), "structures".into()],
        &[1.0f64.to_bits(), 0.25f64.to_bits()],
    );
    let bytes = assert_v2_round_trip(&corpus, &mined);
    for len in 0..bytes.len() {
        let err = MappedSnapshot::from_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncated v2 artifact of {len} bytes must not load"));
        match err {
            SnapshotError::Truncated { .. }
            | SnapshotError::ChecksumMismatch { .. }
            | SnapshotError::Malformed { .. } => {}
            other => panic!("unexpected error for prefix of {len} bytes: {other}"),
        }
    }
}

#[test]
fn misaligned_buffers_load_through_the_aligned_copy() {
    let (corpus, mined) = mined_fixture();
    let bytes = save_snapshot_v2(&corpus, &mined).expect("save");
    let reference = hierarchy_to_json(&mined.view(&corpus), 10);
    // Shift the artifact to every misalignment of an 8-byte window; the
    // loader must still produce identical views.
    for shift in 1..8 {
        let mut buf = vec![0u8; shift];
        buf.extend_from_slice(&bytes);
        let mapped = MappedSnapshot::from_bytes(&buf[shift..])
            .unwrap_or_else(|e| panic!("misaligned by {shift}: {e}"));
        assert_eq!(reference, hierarchy_to_json(&mapped, 10), "shift {shift}");
    }
}

#[test]
fn describe_artifact_reports_the_section_table() {
    let (corpus, mined) = synthetic_structure(&["x".into()], &[1.0f64.to_bits()]);
    let v2 = save_snapshot_v2(&corpus, &mined).expect("save");

    let d2 = describe_artifact(&v2).expect("describe v2");
    assert!(d2.contains("format version: 2"), "{d2}");
    for name in ["vocab", "entities", "docs", "topics", "phrase-topic-freq", "cold"] {
        assert!(d2.contains(name), "missing section {name} in:\n{d2}");
    }
    assert!(d2.contains("(ok)"), "{d2}");
    // Section offsets are 64-byte aligned, so every align column is 64.
    for line in d2.lines().filter(|l| l.contains("vocab") || l.contains("cold")) {
        assert!(line.trim_end().ends_with("64"), "unaligned section: {line}");
    }

    // Corruption is visible but does not abort inspection.
    let mut broken = v2.clone();
    let mid = broken.len() / 2;
    broken[mid] ^= 0xff;
    let db = describe_artifact(&broken).expect("describe corrupt v2");
    assert!(db.contains("MISMATCH"), "{db}");

    // Non-snapshot input is a typed error.
    match describe_artifact(b"id\ttext\tauthors\n0\thello\ta") {
        Err(SnapshotError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn delta_lineage_round_trips_and_is_optional() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into(), "structures".into()],
        &[1.0f64.to_bits(), 0.25f64.to_bits()],
    );
    let lineage = DeltaInfo {
        base_artifact: "v0007.lesm".into(),
        base_docs: 2,
        base_words: 2,
        base_entities: vec![1],
        chain_depth: 3,
    };
    let with = save_snapshot_v2_with_lineage(&corpus, &mined, None, Some(&lineage)).expect("save");
    let mapped = MappedSnapshot::from_bytes(&with).expect("load delta artifact");
    assert_eq!(mapped.delta_info(), Some(&lineage));
    // The artifact stays full: all data sections decode exactly as the
    // lineage-free artifact does.
    let plain = save_snapshot_v2(&corpus, &mined).expect("save");
    let snap = mapped.to_snapshot().expect("decode delta artifact");
    assert_eq!(plain, save_snapshot_v2(&snap.corpus, &snap.mined).expect("save"));
    assert_eq!(MappedSnapshot::from_bytes(&plain).expect("load").delta_info(), None);
    // Inspection names the extra section.
    let d = describe_artifact(&with).expect("describe");
    assert!(d.contains("delta-lineage"), "{d}");
    assert!(d.contains("sections: 12"), "{d}");
}

#[test]
fn invalid_delta_lineage_is_a_typed_load_error() {
    let (corpus, mined) = synthetic_structure(
        &["mining".into(), "latent".into()],
        &[1.0f64.to_bits()],
    );
    let cases = [
        // Base ranges exceeding the artifact's own ranges.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 99,
            base_words: 0,
            base_entities: vec![0],
            chain_depth: 1,
        },
        // Zero chain depth.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 1,
            base_words: 1,
            base_entities: vec![0],
            chain_depth: 0,
        },
        // Entity-type arity mismatch.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 1,
            base_words: 1,
            base_entities: vec![0, 0],
            chain_depth: 1,
        },
        // Base entity count exceeding the catalog.
        DeltaInfo {
            base_artifact: "v0001.lesm".into(),
            base_docs: 1,
            base_words: 1,
            base_entities: vec![99],
            chain_depth: 1,
        },
    ];
    for lineage in &cases {
        let bytes = save_snapshot_v2_with_lineage(&corpus, &mined, None, Some(lineage)).expect("save");
        match MappedSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed { .. }) => {}
            other => panic!("lineage {lineage:?}: expected Malformed, got {other:?}"),
        }
    }
}

// Words drawn from a deliberately hostile alphabet (quotes, backslashes,
// control characters, whitespace) and scores from arbitrary bit patterns
// (NaNs with payloads, infinities, subnormals, -0.0).
const NASTY: &str = "[a-z\"\\\u{0}-\u{8} ]{1,6}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_structures_round_trip_through_v2(
        words in vec(NASTY, 1..5),
        score_bits in vec(0u64..=u64::MAX, 1..6),
    ) {
        let (corpus, mined) = synthetic_structure(&words, &score_bits);
        let bytes = assert_v2_round_trip(&corpus, &mined);
        let mapped = MappedSnapshot::from_bytes(&bytes).expect("load v2");
        // Rendering stays identical even for hostile vocab/scores.
        let queries = [words[0].as_str(), "zzz-unknown"];
        prop_assert_eq!(answers(&mined.view(&corpus), &queries), answers(&mapped, &queries));
    }

    #[test]
    fn any_single_byte_flip_in_v2_is_a_typed_error(
        pos_seed in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        let (corpus, mined) = synthetic_structure(
            &["mining".into(), "latent".into()],
            &[0.5f64.to_bits(), 2.0f64.to_bits()],
        );
        let mut bytes = save_snapshot_v2(&corpus, &mined).expect("save");
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        // Every lane of the word checksum absorbs its words through
        // bijective steps and the fold is bijective in each lane digest,
        // so any body flip trips the trailer check; flips in the magic,
        // version, or table hit their own typed checks.
        prop_assert!(MappedSnapshot::from_bytes(&bytes).is_err());
    }
}
