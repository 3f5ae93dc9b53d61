//! Relevance targeting — the §8.1.2 application.
//!
//! Given a free-text query, locate the most relevant topics in a mined
//! hierarchy and rank documents by a mixture of direct phrase overlap and
//! topical affinity. This is the "retrieving knowledge from data that are
//! otherwise hard to handle due to the lack of structures" use case the
//! introduction motivates.

use crate::view::ModelView;

/// A scored search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Document index (local to the view; [`ModelView::doc_id`] gives the
    /// printed global number).
    pub doc: usize,
    /// Relevance score (higher is better).
    pub score: f64,
    /// The best-matching topic for this hit.
    pub topic: usize,
}

/// Ranks the hierarchy's topics by relevance to a token-id query.
///
/// A topic's relevance is the summed topical frequency of query tokens
/// among its ranked phrases, normalized by the topic's total phrase mass.
///
/// Ordering is total and deterministic: descending score, with exact
/// score ties broken by ascending topic id (so truncation to `top_n`
/// never depends on iteration order or float quirks).
pub fn rank_topics<V: ModelView>(m: &V, query: &[u32], top_n: usize) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = (0..m.num_topics())
        .map(|t| {
            // Both sums run in ascending phrase-key order: f64 addition
            // is not associative, so the order is part of the answer.
            let (mut total, mut hit) = (0.0, 0.0);
            for (phrase, f) in m.ptf_entries(t) {
                total += f;
                if query.iter().any(|q| phrase.contains(q)) {
                    hit += f;
                }
            }
            (t, if total <= 0.0 { 0.0 } else { hit / total })
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(top_n);
    scored
}

/// Searches documents: `score = overlap + topical`, where `overlap` is the
/// fraction of query tokens present in the document and `topical` is the
/// document's membership in the best query topic (so on-topic documents
/// rank above off-topic documents with the same literal overlap).
///
/// Like [`rank_topics`], the result order is total and deterministic:
/// descending score with exact ties broken by ascending document index.
pub fn search<V: ModelView>(m: &V, query_text: &str, top_n: usize) -> Vec<SearchHit> {
    let query: Vec<u32> = lesm_corpus::text::tokenize(query_text)
        .filter_map(|t| m.word_id(&lesm_corpus::text::lowercase(t)))
        .collect();
    if query.is_empty() {
        return Vec::new();
    }
    // Best-matching non-root topic (fall back to root when nothing scores).
    let topics = rank_topics(m, &query, 3);
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
            let score = overlap + topical;
            if matched == 0 && topical <= 0.0 {
                None
            } else {
                Some(SearchHit { doc: d, score, topic: best_topic })
            }
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
    hits.truncate(top_n);
    hits
}

/// Renders search hits as the canonical one-line-per-hit text output.
///
/// This is the single formatting point shared by `lesm search` and the
/// `lesm-serve` `/search` endpoint, so server responses are byte-identical
/// to offline CLI output. The printed document number is the global id,
/// so a shard prints what an unsharded server prints for the same
/// document.
pub fn render_hits<V: ModelView>(m: &V, hits: &[SearchHit]) -> Vec<String> {
    hits.iter()
        .map(|hit| {
            format!(
                "doc {:>5}  score {:.3}  topic {}  {}",
                m.doc_id(hit.doc),
                hit.score,
                m.topic_path(hit.topic),
                m.render_doc(hit.doc)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
    use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
    use lesm_hier::em::{EmConfig, WeightMode};
    use lesm_hier::hierarchy::{CathyConfig, ChildCount};

    fn mined() -> (SyntheticPapers, MinedStructure) {
        let mut cfg = PapersConfig::dblp(400, 61);
        cfg.hierarchy.branching = vec![2];
        cfg.hierarchy.words_per_topic = 12;
        cfg.entity_specs[0].level = 1;
        cfg.entity_specs[0].pool_per_node = 4;
        cfg.entity_specs[1].pool_per_node = 2;
        let papers = SyntheticPapers::generate(&cfg).unwrap();
        let m = LatentStructureMiner::mine(
            &papers.corpus,
            &MinerConfig {
                hierarchy: CathyConfig {
                    children: ChildCount::Fixed(2),
                    max_depth: 1,
                    em: EmConfig {
                        iters: 100,
                        restarts: 3,
                        seed: 3,
                        background: true,
                        weights: WeightMode::Equal,
                        ..EmConfig::default()
                    },
                    min_links: 10,
                    subnet_threshold: 0.5,
                },
                phrase_min_support: 3,
                ..MinerConfig::default()
            },
        )
        .unwrap();
        (papers, m)
    }

    #[test]
    fn query_finds_on_topic_documents() {
        let (papers, m) = mined();
        // Query with a ground-truth leaf word.
        let leaf = papers.truth.hierarchy.leaves[0];
        let word = papers.truth.hierarchy.own_words[leaf][0];
        let query = papers.corpus.vocab.name_or_unk(word).to_string();
        let hits = search(&m.view(&papers.corpus), &query, 10);
        assert!(!hits.is_empty());
        // Most hits should be documents of that ground-truth leaf.
        let on_topic = hits
            .iter()
            .filter(|h| papers.truth.doc_leaf[h.doc] == leaf)
            .count();
        assert!(
            on_topic * 2 >= hits.len(),
            "only {on_topic}/{} hits on topic",
            hits.len()
        );
        // Results sorted by score.
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn unknown_query_returns_empty() {
        let (papers, m) = mined();
        assert!(search(&m.view(&papers.corpus), "zzzz-not-a-word", 10).is_empty());
        assert!(search(&m.view(&papers.corpus), "", 10).is_empty());
    }

    /// A hand-built corpus + structure where scores tie *exactly*: four
    /// identical docs, three topics with identical phrase tables.
    fn tied_structure() -> (lesm_corpus::Corpus, MinedStructure) {
        use lesm_hier::hierarchy::HierTopic;
        use lesm_hier::TopicHierarchy;
        use lesm_net::TypedNetwork;
        use std::collections::HashMap;

        let mut corpus = lesm_corpus::Corpus::new();
        for _ in 0..4 {
            corpus.push_text("alpha");
        }
        let alpha = corpus.vocab.get("alpha").unwrap();
        let topic = |parent, level, path: &str, children: Vec<usize>| HierTopic {
            parent,
            children,
            level,
            path: path.into(),
            phi: vec![vec![1.0]],
            rho: 1.0,
            network: TypedNetwork::new(vec!["term".into()], vec![1]),
        };
        let hierarchy = TopicHierarchy {
            type_names: vec!["term".into()],
            topics: vec![
                topic(None, 0, "o", vec![1, 2]),
                topic(Some(0), 1, "o/1", vec![]),
                topic(Some(0), 1, "o/2", vec![]),
            ],
            fits: vec![None, None, None],
            alphas: vec![None, None, None],
        };
        let table: HashMap<Vec<u32>, f64> = [(vec![alpha], 2.0)].into_iter().collect();
        let mined = MinedStructure {
            hierarchy,
            topic_phrases: vec![vec![]; 3],
            topic_entities: vec![vec![]; 3],
            phrase_topic_freq: vec![table.clone(), table.clone(), table],
            segments: vec![vec![]; 4],
            doc_topic: vec![vec![1.0, 0.5, 0.5]; 4],
        };
        (corpus, mined)
    }

    #[test]
    fn rank_topics_breaks_exact_score_ties_by_ascending_topic_id() {
        let (corpus, mined) = tied_structure();
        let alpha = corpus.vocab.get("alpha").unwrap();
        let ranked = rank_topics(&mined.view(&corpus), &[alpha], 10);
        // All three topics score exactly 1.0; the pinned order is by id.
        assert_eq!(ranked.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(ranked.windows(2).all(|w| w[0].1 == w[1].1), "scores should tie exactly");
        // Truncation under a tie is deterministic too: lowest ids survive.
        assert_eq!(
            rank_topics(&mined.view(&corpus), &[alpha], 2).iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn search_breaks_exact_score_ties_by_ascending_doc_id() {
        let (corpus, mined) = tied_structure();
        let hits = search(&mined.view(&corpus), "alpha", 10);
        assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(hits.windows(2).all(|w| w[0].score == w[1].score), "scores should tie exactly");
        // Truncation keeps the lowest doc ids.
        assert_eq!(
            search(&mined.view(&corpus), "alpha", 2).iter().map(|h| h.doc).collect::<Vec<_>>(),
            vec![0, 1]
        );
        // A strictly better doc still outranks the tied block.
        let (corpus, mut mined) = tied_structure();
        mined.doc_topic[2][1] = 0.9;
        let hits = search(&mined.view(&corpus), "alpha", 10);
        assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn render_hits_formats_one_line_per_hit() {
        let (corpus, mined) = tied_structure();
        let hits = search(&mined.view(&corpus), "alpha", 2);
        let lines = render_hits(&mined.view(&corpus), &hits);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "doc     0  score 1.500  topic o/1  alpha");
    }

    #[test]
    fn topic_ranking_prefers_owning_topic() {
        let (papers, m) = mined();
        let leaf = papers.truth.hierarchy.leaves[0];
        let word = papers.truth.hierarchy.own_words[leaf][0];
        let ranked = rank_topics(&m.view(&papers.corpus), &[word], 5);
        assert!(!ranked.is_empty());
        // The top-ranked non-root topic should carry the word in its
        // phrase table.
        let (t, s) = ranked[0];
        assert!(s > 0.0);
        assert!(m.phrase_topic_freq[t].keys().any(|p| p.contains(&word)));
    }
}
