//! Property tests for the JSON export: structural well-formedness and
//! escaping must hold for *any* vocabulary content (quotes, backslashes,
//! control characters, braces) and any score bit pattern (including NaN
//! and infinities), not just the tame synthetic corpora. The final block
//! drives the whole miner over arbitrary small corpora (DESIGN.md §10):
//! `mine` must return `Ok` or a typed `CoreError` — never panic — and
//! every structure it does produce must export finite, balanced JSON.

use lesm_core::export::{hierarchy_to_json, is_balanced_json, json_number, json_string};
use lesm_core::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_corpus::Corpus;
use lesm_hier::em::{EmConfig, WeightMode};
use lesm_hier::hierarchy::{CathyConfig, ChildCount, HierTopic};
use lesm_hier::TopicHierarchy;
use lesm_net::TypedNetwork;
use lesm_phrases::TopicalPhrase;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Builds a two-topic structure whose phrases are single tokens over the
/// given vocabulary and whose scores come from raw `f64` bit patterns.
fn synthetic_structure(
    words: &[String],
    entity_names: &[String],
    score_bits: &[u64],
) -> (Corpus, MinedStructure) {
    let mut corpus = Corpus::new();
    let etype = corpus.entities.add_type(entity_names.first().map(String::as_str).unwrap_or("t"));
    let mut ids = Vec::new();
    for w in words {
        ids.push(corpus.vocab.intern(w));
    }
    for name in entity_names {
        corpus.entities.intern(etype, name).unwrap();
    }
    let score = |i: usize| f64::from_bits(score_bits[i % score_bits.len()]);
    let topic = |parent, level, path: &str, children: Vec<usize>| HierTopic {
        parent,
        children,
        level,
        path: path.into(),
        phi: vec![vec![1.0]],
        rho: score(0),
    };
    let hierarchy = TopicHierarchy {
        network: TypedNetwork::new(vec![], vec![]),
        topics: vec![topic(None, 0, "o", vec![1]), topic(Some(0), 1, "o/1", vec![])],
        fits: vec![None, None],
    };
    let phrases: Vec<TopicalPhrase> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| TopicalPhrase {
            tokens: vec![id],
            score: score(i),
            topic_freq: score(i + 1),
        })
        .collect();
    let entities: Vec<(u32, f64)> = (0..entity_names.len() as u32).map(|i| (i, score(i as usize))).collect();
    let mined = MinedStructure {
        hierarchy,
        topic_phrases: vec![phrases.clone(), phrases],
        topic_entities: vec![vec![entities.clone()], vec![entities]],
        phrase_topic_freq: vec![HashMap::new(), HashMap::new()],
        segments: vec![],
        doc_topic: vec![],
    };
    (corpus, mined)
}

// The character class deliberately mixes lowercase letters with JSON
// metacharacters (quote, backslash, braces, brackets-by-way-of-braces),
// whitespace escapes, and raw C0 control characters \u{0}-\u{8}.
const NASTY: &str = "[a-z\"\\\u{0}-\u{8}{}\n\t ]{1,8}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn export_is_balanced_for_any_vocab_and_scores(
        words in vec(NASTY, 1..6),
        entity_names in vec(NASTY, 1..4),
        score_bits in vec(0u64..=u64::MAX, 1..6),
    ) {
        let (corpus, mined) = synthetic_structure(&words, &entity_names, &score_bits);
        let json = hierarchy_to_json(&mined.view(&corpus), 10);
        prop_assert!(is_balanced_json(&json), "unbalanced JSON:\n{json}");
    }

    #[test]
    fn export_escapes_every_vocab_term(
        words in vec(NASTY, 1..6),
        entity_names in vec(NASTY, 1..4),
    ) {
        let (corpus, mined) = synthetic_structure(&words, &entity_names, &[1.0f64.to_bits()]);
        let json = hierarchy_to_json(&mined.view(&corpus), 10);
        // Every interned word renders as a single-token phrase, so its
        // RFC 8259 escaping must appear verbatim; same for entity names
        // and the entity type name.
        for w in &words {
            prop_assert!(
                json.contains(&json_string(w)),
                "escaped term {:?} missing from export",
                w
            );
        }
        for name in &entity_names {
            prop_assert!(json.contains(&json_string(name)));
        }
        // Raw (unescaped) quotes or control characters must never leak:
        // scan string interiors for un-escaped C0 bytes.
        prop_assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n'),
            "raw control character leaked into export");
    }

    #[test]
    fn json_number_is_always_valid_json(bits in 0u64..=u64::MAX) {
        let rendered = json_number(f64::from_bits(bits));
        // Must be `null` or a fixed-point decimal with optional sign.
        if rendered != "null" {
            let rest = rendered.strip_prefix('-').unwrap_or(&rendered);
            prop_assert!(
                rest.chars().all(|c| c.is_ascii_digit() || c == '.'),
                "json_number produced {rendered:?}"
            );
            prop_assert!(rest.contains('.'));
        }
    }
}

/// A deliberately tiny EM budget so the full-pipeline property stays fast
/// while still exercising hierarchy construction, phrase mining,
/// segmentation, and ranking on every generated corpus.
fn tiny_config(k: usize, depth: usize, min_support: u64) -> MinerConfig {
    MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::Fixed(k),
            max_depth: depth,
            em: EmConfig {
                iters: 6,
                restarts: 1,
                seed: 11,
                background: true,
                weights: WeightMode::Learned,
                ..EmConfig::default()
            },
            min_links: 1,
            subnet_threshold: 0.5,
        },
        phrase_min_support: min_support,
        phrase_max_len: 4,
        seg_alpha: 2.0,
        phrases_per_topic: 8,
        entities_per_topic: 8,
        min_topic_freq: 1.0,
        threads: 1,
        em_tol: 0.0,
    }
}

/// Asserts that every float the mined structure exposes is finite.
fn assert_all_finite(mined: &MinedStructure) -> Result<(), proptest::test_runner::TestCaseError> {
    for (t, phrases) in mined.topic_phrases.iter().enumerate() {
        for p in phrases {
            prop_assert!(p.score.is_finite(), "non-finite phrase score in topic {t}");
            prop_assert!(p.topic_freq.is_finite(), "non-finite topic_freq in topic {t}");
        }
    }
    for row in &mined.doc_topic {
        for &v in row {
            prop_assert!(v.is_finite(), "non-finite doc_topic weight");
        }
    }
    for topic in &mined.hierarchy.topics {
        prop_assert!(topic.rho.is_finite(), "non-finite topic rho");
        for dist in &topic.phi {
            for &v in dist {
                prop_assert!(v.is_finite(), "non-finite phi entry");
            }
        }
    }
    Ok(())
}

proptest! {
    // The full pipeline is the expensive property, so fewer cases; the
    // corpora are small enough (< 8 docs) that each case is milliseconds.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `mine` over arbitrary small corpora — including empty corpora,
    /// empty documents, and single-word vocabularies — either succeeds or
    /// returns a typed error, and anything it produces is finite and
    /// exports balanced JSON.
    #[test]
    fn mine_never_panics_on_small_corpora(
        docs in vec(vec("[a-z]{1,4}", 0..6), 0..8),
        k in 1usize..4,
        depth in 1usize..4,
        min_support in 0u64..3,
    ) {
        let mut corpus = Corpus::new();
        for doc in &docs {
            corpus.push_text(&doc.join(" "));
        }
        match LatentStructureMiner::mine(&corpus, &tiny_config(k, depth, min_support)) {
            Ok(mined) => {
                assert_all_finite(&mined)?;
                let json = hierarchy_to_json(&mined.view(&corpus), 8);
                prop_assert!(is_balanced_json(&json), "unbalanced JSON:\n{json}");
            }
            // Typed rejection (e.g. an empty corpus) is an acceptable
            // outcome; panicking is not, and proptest treats any panic
            // inside the closure as a test failure.
            Err(_typed) => {}
        }
    }
}
