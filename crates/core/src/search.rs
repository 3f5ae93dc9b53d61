//! Relevance targeting — the §8.1.2 application.
//!
//! Given a free-text query, locate the most relevant topics in a mined
//! hierarchy and rank documents by a mixture of direct phrase overlap and
//! topical affinity. This is the "retrieving knowledge from data that are
//! otherwise hard to handle due to the lack of structures" use case the
//! introduction motivates.
//!
//! Queries run against a [`SearchIndex`] built once per model, so a query
//! touches only the postings of its own words plus the head of one
//! topic's document list — never every document (DESIGN.md §9.3).

use crate::view::ModelView;
use std::cmp::Ordering;
use std::collections::HashMap;

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

/// Postings that let [`search`] and [`rank_topics`] score only what a
/// query touches.
///
/// The index is a pure function of the view it was built from and must
/// only be queried together with that view. Every list is in the order
/// the answer needs it, so the indexed functions add the same `f64`s in
/// the same order as a scan over every document and phrase would: no
/// score bit and no tie order depends on the index.
pub struct SearchIndex {
    /// word → ascending, deduplicated document indices containing it.
    doc_postings: HashMap<u32, Vec<u32>>,
    /// topic → the documents whose unmatched score
    /// (`0.0 + doc_topic(d, t)`) is not `<= 0.0`, in result order: that
    /// score descending under `total_cmp`, then document ascending.
    topic_docs: Vec<Vec<u32>>,
    /// word → ascending `(topic, ptf entry, freq)` of every
    /// phrase-frequency entry whose phrase contains the word.
    phrase_postings: HashMap<u32, Vec<(usize, usize, f64)>>,
    /// topic → its phrase mass, summed in ptf order.
    topic_mass: Vec<f64>,
}

impl std::fmt::Debug for SearchIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchIndex")
            .field("words", &self.doc_postings.len())
            .field("topics", &self.topic_mass.len())
            .finish_non_exhaustive()
    }
}

/// Maps every NaN to the one canonical NaN (`f64::NAN`) and leaves every
/// other value alone. Rust, like IEEE 754, leaves the sign and payload of
/// a NaN result unspecified, so the same sum may give `+NaN` in a debug
/// build and `-NaN` under the optimizer, and `total_cmp` sorts the two
/// signs to opposite ends. Every score passes through here before it is
/// sorted or returned, so the order cannot depend on the build.
pub fn canonical_nan(score: f64) -> f64 {
    if score.is_nan() {
        f64::NAN
    } else {
        score
    }
}

/// Narrows a document index to the index's `u32` storage; the one
/// narrowing of a document index in this module.
fn doc32(d: usize) -> u32 {
    // lesm-lint: allow(R1) — a view's documents fit u32: v2 artifacts store the count in a u32 field, and 2^32 owned documents do not fit in memory
    u32::try_from(d).expect("document index exceeds u32")
}

/// A document's relevance: the fraction of query tokens it contains plus
/// its weight in the query's best topic. The one place the score is
/// computed, for matched documents and for the index's unmatched order.
fn doc_score(matched: usize, query_len: usize, topical: f64) -> f64 {
    canonical_nan(matched as f64 / query_len as f64 + topical)
}

/// The result order of [`search`]: descending score, exact ties by
/// ascending document index.
fn hit_order(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc))
}

impl SearchIndex {
    /// Builds the index of `m`: one pass over the documents, one over
    /// each topic's phrase-frequency entries, and one sort per topic.
    /// Token ids outside the vocabulary are indexed like any other id.
    pub fn build<V: ModelView>(m: &V) -> Self {
        let mut doc_postings: HashMap<u32, Vec<u32>> = HashMap::new();
        for d in 0..m.num_docs() {
            let d32 = doc32(d);
            for &w in m.doc_tokens(d) {
                let list = doc_postings.entry(w).or_default();
                if list.last() != Some(&d32) {
                    list.push(d32);
                }
            }
        }
        let n_topics = m.num_topics();
        let mut topic_docs = Vec::with_capacity(n_topics);
        for t in 0..n_topics {
            let mut scored: Vec<SearchHit> = (0..m.num_docs())
                .map(|d| SearchHit { doc: d, score: doc_score(0, 1, m.doc_topic(d, t)), topic: t })
                .filter(|h| h.score > 0.0 || h.score.is_nan())
                .collect();
            scored.sort_unstable_by(hit_order);
            // Collected from a borrow, so the list is allocated at its
            // length: collecting `scored` by value would reuse its buffer,
            // three times the size.
            topic_docs.push(scored.iter().map(|h| doc32(h.doc)).collect::<Vec<_>>());
        }
        let mut phrase_postings: HashMap<u32, Vec<(usize, usize, f64)>> = HashMap::new();
        let mut topic_mass = Vec::with_capacity(n_topics);
        for t in 0..n_topics {
            let mut total = 0.0;
            for (e, (phrase, f)) in m.ptf_entries(t).enumerate() {
                total += f;
                for &w in phrase {
                    let list = phrase_postings.entry(w).or_default();
                    if list.last().is_none_or(|&(lt, le, _)| (lt, le) != (t, e)) {
                        list.push((t, e, f));
                    }
                }
            }
            topic_mass.push(total);
        }
        // The postings grew by doubling; a served model keeps them for
        // its lifetime, so they are trimmed to their lengths.
        // lesm-lint: allow(D2, D4) — trimming each list in place does not depend on the visit order
        doc_postings.values_mut().for_each(Vec::shrink_to_fit);
        // lesm-lint: allow(D2, D4) — trimming each list in place does not depend on the visit order
        phrase_postings.values_mut().for_each(Vec::shrink_to_fit);
        Self { doc_postings, topic_docs, phrase_postings, topic_mass }
    }

    fn docs_with(&self, w: u32) -> &[u32] {
        self.doc_postings.get(&w).map_or(&[], Vec::as_slice)
    }
}

/// Ranks the hierarchy's topics by relevance to a token-id query.
///
/// A topic's relevance is the summed topical frequency of query tokens
/// among its ranked phrases, normalized by the topic's total phrase mass.
/// Only the phrase-frequency entries containing a query token are read;
/// they are summed in ascending entry order, the order a scan of every
/// entry would add them in (f64 addition is not associative, so the
/// order is part of the answer).
///
/// Ordering is total and deterministic: descending score, with exact
/// score ties broken by ascending topic id (so truncation to `top_n`
/// never depends on iteration order or float quirks). A NaN score is
/// always the canonical NaN ([`canonical_nan`]).
pub fn rank_topics(index: &SearchIndex, query: &[u32], top_n: usize) -> Vec<(usize, f64)> {
    let mut words = query.to_vec();
    words.sort_unstable();
    words.dedup();
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for &w in &words {
        entries.extend(index.phrase_postings.get(&w).into_iter().flatten());
    }
    if words.len() > 1 {
        // A phrase holding two query words counts once.
        entries.sort_unstable_by_key(|&(t, e, _)| (t, e));
        entries.dedup_by_key(|&mut (t, e, _)| (t, e));
    }
    let mut hit = vec![0.0; index.topic_mass.len()];
    for &(t, _, f) in &entries {
        hit[t] += f;
    }
    let mut scored: Vec<(usize, f64)> = index
        .topic_mass
        .iter()
        .zip(hit)
        .enumerate()
        .map(|(t, (&total, hit))| {
            (t, if total <= 0.0 { 0.0 } else { canonical_nan(hit / total) })
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
/// Documents with no query token and no positive topical weight are not
/// hits.
///
/// `index` must be built from `m`. Only the query words' postings are
/// scored; documents without a query word come from the head of the best
/// topic's list, which is already in result order.
///
/// Like [`rank_topics`], the result order is total and deterministic:
/// descending score with exact ties broken by ascending document index,
/// and a NaN score is always the canonical NaN ([`canonical_nan`]).
pub fn search<V: ModelView>(
    m: &V,
    index: &SearchIndex,
    query_text: &str,
    top_n: usize,
) -> Vec<SearchHit> {
    let query: Vec<u32> = lesm_corpus::text::tokenize(query_text)
        .filter_map(|t| m.word_id(&lesm_corpus::text::lowercase(t)))
        .collect();
    if query.is_empty() {
        return Vec::new();
    }
    // Best-matching non-root topic (fall back to root when nothing scores).
    let topics = rank_topics(index, &query, 3);
    let best_topic = topics
        .iter()
        .find(|&&(t, s)| t != 0 && s > 0.0)
        .map(|&(t, _)| t)
        .unwrap_or(0);

    // Each distinct query word once, weighted by how often the query
    // repeats it: a document's overlap counts query tokens, not words.
    let mut words = query.clone();
    words.sort_unstable();
    let mut lists: Vec<(&[u32], usize)> = words
        .chunk_by(|a, b| a == b)
        .map(|run| (index.docs_with(run[0]), run.len()))
        .collect();
    // Matched documents: a merge of the ascending postings.
    let mut hits: Vec<SearchHit> = Vec::new();
    while let Some(d) = lists.iter().filter_map(|(docs, _)| docs.first().copied()).min() {
        let mut matched = 0;
        for (docs, times) in &mut lists {
            if docs.first() == Some(&d) {
                matched += *times;
                *docs = &docs[1..];
            }
        }
        let d = d as usize;
        let score = doc_score(matched, query.len(), m.doc_topic(d, best_topic));
        hits.push(SearchHit { doc: d, score, topic: best_topic });
    }
    // Unmatched documents: only the first `top_n` of the best topic's
    // list can make the cut, because the list is in result order.
    let unmatched = index
        .topic_docs
        .get(best_topic)
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .map(|&d| d as usize)
        .filter(|&d| hits.binary_search_by_key(&d, |h| h.doc).is_err())
        .take(top_n)
        .map(|d| SearchHit {
            doc: d,
            score: doc_score(0, query.len(), m.doc_topic(d, best_topic)),
            topic: best_topic,
        })
        .collect::<Vec<_>>();
    hits.extend(unmatched);
    if top_n < hits.len() {
        hits.select_nth_unstable_by(top_n, hit_order);
        hits.truncate(top_n);
    }
    hits.sort_unstable_by(hit_order);
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

    /// Searches `m` through a freshly built index.
    fn search_in<V: ModelView>(m: &V, query: &str, top_n: usize) -> Vec<SearchHit> {
        search(m, &SearchIndex::build(m), query, top_n)
    }

    fn rank_in<V: ModelView>(m: &V, query: &[u32], top_n: usize) -> Vec<(usize, f64)> {
        rank_topics(&SearchIndex::build(m), query, top_n)
    }

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
        let hits = search_in(&m.view(&papers.corpus), &query, 10);
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
        assert!(search_in(&m.view(&papers.corpus), "zzzz-not-a-word", 10).is_empty());
        assert!(search_in(&m.view(&papers.corpus), "", 10).is_empty());
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
        };
        let hierarchy = TopicHierarchy {
            network: TypedNetwork::new(vec!["term".into()], vec![1]),
            topics: vec![
                topic(None, 0, "o", vec![1, 2]),
                topic(Some(0), 1, "o/1", vec![]),
                topic(Some(0), 1, "o/2", vec![]),
            ],
            fits: vec![None, None, None],
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
        let ranked = rank_in(&mined.view(&corpus), &[alpha], 10);
        // All three topics score exactly 1.0; the pinned order is by id.
        assert_eq!(ranked.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(ranked.windows(2).all(|w| w[0].1 == w[1].1), "scores should tie exactly");
        // Truncation under a tie is deterministic too: lowest ids survive.
        assert_eq!(
            rank_in(&mined.view(&corpus), &[alpha], 2).iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn search_breaks_exact_score_ties_by_ascending_doc_id() {
        let (corpus, mined) = tied_structure();
        let hits = search_in(&mined.view(&corpus), "alpha", 10);
        assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(hits.windows(2).all(|w| w[0].score == w[1].score), "scores should tie exactly");
        // Truncation keeps the lowest doc ids.
        assert_eq!(
            search_in(&mined.view(&corpus), "alpha", 2).iter().map(|h| h.doc).collect::<Vec<_>>(),
            vec![0, 1]
        );
        // A strictly better doc still outranks the tied block.
        let (corpus, mut mined) = tied_structure();
        mined.doc_topic[2][1] = 0.9;
        let hits = search_in(&mined.view(&corpus), "alpha", 10);
        assert_eq!(hits.iter().map(|h| h.doc).collect::<Vec<_>>(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn render_hits_formats_one_line_per_hit() {
        let (corpus, mined) = tied_structure();
        let hits = search_in(&mined.view(&corpus), "alpha", 2);
        let lines = render_hits(&mined.view(&corpus), &hits);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "doc     0  score 1.500  topic o/1  alpha");
    }

    #[test]
    fn topic_ranking_prefers_owning_topic() {
        let (papers, m) = mined();
        let leaf = papers.truth.hierarchy.leaves[0];
        let word = papers.truth.hierarchy.own_words[leaf][0];
        let ranked = rank_in(&m.view(&papers.corpus), &[word], 5);
        assert!(!ranked.is_empty());
        // The top-ranked non-root topic should carry the word in its
        // phrase table.
        let (t, s) = ranked[0];
        assert!(s > 0.0);
        assert!(m.phrase_topic_freq[t].keys().any(|p| p.contains(&word)));
    }
}
