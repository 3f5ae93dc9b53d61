//! Differential tests for indexed search: [`search`] and [`rank_topics`]
//! over a [`SearchIndex`] must return exactly what a scan of every
//! document and every phrase-frequency entry returns — the same documents
//! and topics in the same order, with the same score bits.
//!
//! The scan below is the test oracle: the straightforward definition of
//! both rankings, kept here and nowhere else. Like the indexed functions,
//! it maps every NaN score to the canonical NaN ([`canonical_nan`]) before
//! sorting: the sign of a NaN result is not fixed by the language, so
//! without that rule the two sides could disagree by build profile.

use lesm_core::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_core::search::{canonical_nan, rank_topics, search, SearchHit, SearchIndex};
use lesm_core::{model_from_truth, ModelView};
use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
use lesm_corpus::{Corpus, Doc, EntityRef};
use lesm_hier::hierarchy::HierTopic;
use lesm_hier::TopicHierarchy;
use lesm_net::TypedNetwork;
use lesm_phrases::TopicalPhrase;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Oracle: every topic scored by a scan of its entries in ptf order.
fn scan_rank_topics<V: ModelView>(m: &V, query: &[u32], top_n: usize) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = (0..m.num_topics())
        .map(|t| {
            let (mut total, mut hit) = (0.0, 0.0);
            for (phrase, f) in m.ptf_entries(t) {
                total += f;
                if query.iter().any(|q| phrase.contains(q)) {
                    hit += f;
                }
            }
            (t, if total <= 0.0 { 0.0 } else { canonical_nan(hit / total) })
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(top_n);
    scored
}

/// Oracle: every document scored, filtered, sorted and truncated.
fn scan_search<V: ModelView>(m: &V, query_text: &str, top_n: usize) -> Vec<SearchHit> {
    let query: Vec<u32> = lesm_corpus::text::tokenize(query_text)
        .filter_map(|t| m.word_id(&lesm_corpus::text::lowercase(t)))
        .collect();
    if query.is_empty() {
        return Vec::new();
    }
    let topics = scan_rank_topics(m, &query, 3);
    let best_topic = topics
        .iter()
        .find(|&&(t, s)| t != 0 && s > 0.0)
        .map(|&(t, _)| t)
        .unwrap_or(0);
    let mut hits: Vec<SearchHit> = (0..m.num_docs())
        .filter_map(|d| {
            let tokens = m.doc_tokens(d);
            let matched = query.iter().filter(|q| tokens.contains(q)).count();
            let overlap = matched as f64 / query.len() as f64;
            let topical = m.doc_topic(d, best_topic);
            let score = canonical_nan(overlap + topical);
            if matched == 0 && topical <= 0.0 {
                None
            } else {
                Some(SearchHit {
                    doc: d,
                    score,
                    topic: best_topic,
                })
            }
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
    hits.truncate(top_n);
    hits
}

fn hit_bits(hits: &[SearchHit]) -> Vec<(usize, usize, u64)> {
    hits.iter()
        .map(|h| (h.doc, h.topic, h.score.to_bits()))
        .collect()
}

fn rank_bits(ranked: &[(usize, f64)]) -> Vec<(usize, u64)> {
    ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Checks every query at every `top_n` against the oracle; `Err` names
/// the first difference.
fn check<V: ModelView>(m: &V, queries: &[String], raw: &[Vec<u32>]) -> Result<(), String> {
    let index = SearchIndex::build(m);
    let tops = [1, 3, 10, m.num_docs() + 5];
    for q in queries {
        for &top in &tops {
            let got = hit_bits(&search(m, &index, q, top));
            let want = hit_bits(&scan_search(m, q, top));
            if got != want {
                return Err(format!("search({q:?}, {top}): {got:?} != {want:?}"));
            }
        }
    }
    for ids in raw {
        for top in [1, 3, usize::MAX] {
            let got = rank_bits(&rank_topics(&index, ids, top));
            let want = rank_bits(&scan_rank_topics(m, ids, top));
            if got != want {
                return Err(format!("rank_topics({ids:?}, {top}): {got:?} != {want:?}"));
            }
        }
    }
    Ok(())
}

/// Queries over the model's vocabulary: each word alone, pairs, a
/// repeated word, and words outside the vocabulary.
fn vocab_queries(corpus: &Corpus, limit: usize) -> (Vec<String>, Vec<Vec<u32>>) {
    let words: Vec<(u32, &str)> = corpus.vocab.iter().take(limit).collect();
    let mut texts = vec![String::new(), "zzz-unknown".to_string()];
    let mut raw = vec![Vec::new(), vec![u32::MAX]];
    for (i, &(a, w)) in words.iter().enumerate() {
        let (b, next) = words[(i + 1) % words.len()];
        texts.push(w.to_string());
        texts.push(format!("{w} {next}"));
        texts.push(format!("{w} {next} {w}"));
        texts.push(format!("{w} zzz-unknown"));
        raw.push(vec![a]);
        raw.push(vec![a, b, a]);
    }
    (texts, raw)
}

/// The model of `owned_and_mapped_views_answer_identically`'s "mined"
/// case: the real pipeline on a small synthetic corpus.
fn mined_fixture() -> (Corpus, MinedStructure) {
    let papers = SyntheticPapers::generate(&PapersConfig::dblp(60, 42)).expect("synth corpus");
    let mut config = MinerConfig::default();
    config.hierarchy.max_depth = 1;
    config.phrase_min_support = 2;
    config.threads = 2;
    let mined = LatentStructureMiner::mine(&papers.corpus, &config).expect("mine");
    (papers.corpus, mined)
}

/// A two-topic structure from the given words and raw score bits (the
/// "synthetic" and "hostile" cases of the same test).
fn synthetic_structure(words: &[&str], score_bits: &[u64]) -> (Corpus, MinedStructure) {
    let mut corpus = Corpus::new();
    let etype = corpus.entities.add_type("author");
    let ids: Vec<u32> = words.iter().map(|w| corpus.vocab.intern(w)).collect();
    for (i, w) in words.iter().enumerate() {
        corpus.entities.intern(etype, w).expect("known type");
        corpus.docs.push(Doc {
            tokens: ids.clone(),
            entities: vec![EntityRef::new(etype, i as u32)],
            label: None,
            year: None,
        });
    }
    let score = |i: usize| f64::from_bits(score_bits[i % score_bits.len()]);
    let mut freq = HashMap::new();
    for (i, &id) in ids.iter().enumerate() {
        freq.insert(vec![id], score(i));
        if i + 1 < ids.len() {
            freq.insert(vec![id, ids[i + 1]], score(i + 2));
        }
    }
    let n_docs = corpus.docs.len();
    let rows = (0..n_docs).map(|d| vec![score(d), score(d + 1)]).collect();
    let mined = structure(vec![freq.clone(), freq], rows, n_docs);
    (corpus, mined)
}

/// A root with `ptf.len() - 1` leaf children, carrying the given
/// phrase-frequency tables and doc-topic rows.
fn structure(
    ptf: Vec<HashMap<Vec<u32>, f64>>,
    doc_topic: Vec<Vec<f64>>,
    n_docs: usize,
) -> MinedStructure {
    let n_topics = ptf.len();
    let topic = |t: usize| HierTopic {
        parent: (t > 0).then_some(0),
        children: if t == 0 {
            (1..n_topics).collect()
        } else {
            Vec::new()
        },
        level: usize::from(t > 0),
        path: if t == 0 {
            "o".to_string()
        } else {
            format!("o/{t}")
        },
        phi: Vec::new(),
        rho: 1.0,
    };
    MinedStructure {
        hierarchy: TopicHierarchy {
            network: TypedNetwork::new(vec![], vec![]),
            topics: (0..n_topics).map(topic).collect(),
            fits: vec![None; n_topics],
        },
        topic_phrases: vec![Vec::<TopicalPhrase>::new(); n_topics],
        topic_entities: vec![Vec::new(); n_topics],
        phrase_topic_freq: ptf,
        segments: vec![Vec::new(); n_docs],
        doc_topic,
    }
}

#[test]
fn indexed_search_matches_the_scan_on_mined_synthetic_and_hostile_models() {
    let mut cases = vec![
        ("mined", mined_fixture()),
        (
            "synthetic",
            synthetic_structure(
                &["mining", "latent", "structures"],
                &[1.0f64.to_bits(), 0.25f64.to_bits(), (-0.0f64).to_bits()],
            ),
        ),
        (
            "hostile",
            synthetic_structure(
                &["a\"b", "\\", "\u{1} x"],
                &[f64::NAN.to_bits() | 7, f64::INFINITY.to_bits(), 1],
            ),
        ),
    ];
    let papers = SyntheticPapers::generate(&PapersConfig::dblp(300, 5)).expect("synth corpus");
    let truth = model_from_truth(&papers);
    cases.push(("from truth", (papers.corpus, truth)));
    for (name, (corpus, mined)) in &cases {
        let (texts, raw) = vocab_queries(corpus, 40);
        if let Err(e) = check(&mined.view(corpus), &texts, &raw) {
            panic!("{name}: {e}");
        }
    }
}

/// Doc-topic weights that stress the ordering: special values, ties, and
/// both signs of zero and NaN.
fn weight() -> impl Strategy<Value = f64> {
    (0usize..12, 0u32..4).prop_map(|(kind, k)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        5 => 0.0,
        6 => -0.5,
        _ => f64::from(k) * 0.25,
    })
}

/// A random model: `words` vocabulary words, documents whose tokens run
/// past the vocabulary, rows shorter or longer than the topic count, and
/// phrase tables over in- and out-of-vocabulary ids.
#[allow(clippy::type_complexity)]
fn random_model() -> impl Strategy<
    Value = (
        usize,
        Vec<Vec<u32>>,
        Vec<Vec<f64>>,
        Vec<Vec<(Vec<u32>, f64)>>,
    ),
> {
    (1usize..7, 1usize..5).prop_flat_map(|(words, topics)| {
        let token = 0u32..(words as u32 + 3);
        (
            Just(words),
            vec(vec(token.clone(), 0..6), 0..24),
            vec(vec(weight(), 0..(topics + 2)), 24..25),
            vec(
                vec((vec(token, 1..4), weight()), 0..6),
                topics..(topics + 1),
            ),
        )
    })
}

fn build_random(
    words: usize,
    docs: Vec<Vec<u32>>,
    mut rows: Vec<Vec<f64>>,
    tables: Vec<Vec<(Vec<u32>, f64)>>,
) -> (Corpus, MinedStructure) {
    let mut corpus = Corpus::new();
    for w in 0..words {
        corpus.vocab.intern(&format!("w{w}"));
    }
    let n_docs = docs.len();
    for tokens in docs {
        corpus.docs.push(Doc {
            tokens,
            entities: Vec::new(),
            label: None,
            year: None,
        });
    }
    rows.resize(n_docs, Vec::new());
    rows.truncate(n_docs);
    let ptf = tables
        .into_iter()
        .map(|entries| entries.into_iter().collect())
        .collect();
    (corpus, structure(ptf, rows, n_docs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random models with NaN, infinite and signed-zero weights, short
    /// rows, out-of-vocabulary document tokens, and duplicate query words.
    #[test]
    fn indexed_search_matches_the_scan_on_random_models(
        (words, docs, rows, tables) in random_model(),
        picks in vec(vec(0usize..8, 1..4), 1..5),
    ) {
        let (corpus, mined) = build_random(words, docs, rows, tables);
        let texts: Vec<String> = picks
            .iter()
            .map(|p| p.iter().map(|&w| format!("w{w}")).collect::<Vec<_>>().join(" "))
            .collect();
        let raw: Vec<Vec<u32>> =
            picks.iter().map(|p| p.iter().map(|&w| w as u32).collect()).collect();
        let checked = check(&mined.view(&corpus), &texts, &raw);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
