//! The end-to-end mining pipeline.

use crate::CoreError;
use lesm_corpus::Corpus;
use lesm_hier::{CathyConfig, TopicHierarchy};
use lesm_net::collapsed_network;
use lesm_phrases::topmine::{FrequentPhrases, Segmenter, SegmenterConfig};
use lesm_phrases::TopicalPhrase;
use std::collections::HashMap;

/// Configuration for [`LatentStructureMiner::mine`].
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Hierarchy construction settings (Chapter 3).
    pub hierarchy: CathyConfig,
    /// Minimum support for frequent phrase mining (Chapter 4).
    pub phrase_min_support: u64,
    /// Maximum mined phrase length.
    pub phrase_max_len: usize,
    /// Segmentation significance threshold α.
    pub seg_alpha: f64,
    /// Ranked phrases kept per topic.
    pub phrases_per_topic: usize,
    /// Ranked entities kept per topic and type.
    pub entities_per_topic: usize,
    /// Minimum topical frequency for a phrase to stay attached to a topic.
    pub min_topic_freq: f64,
    /// Worker threads for hierarchy EM, phrase mining, and segmentation
    /// (`0` = all available cores). Overrides `hierarchy.em.threads`. Any
    /// value produces identical results.
    pub threads: usize,
    /// Relative-improvement early-exit tolerance for hierarchy EM
    /// (`0` = run every configured iteration). Overrides
    /// `hierarchy.em.tol`. See `EmConfig::tol`.
    pub em_tol: f64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            hierarchy: CathyConfig::default(),
            phrase_min_support: 5,
            phrase_max_len: 4,
            seg_alpha: 2.0,
            phrases_per_topic: 20,
            entities_per_topic: 20,
            min_topic_freq: 1.0,
            threads: 0,
            em_tol: 0.0,
        }
    }
}

/// The full mined structure: a phrase-represented, entity-enriched topical
/// hierarchy plus per-document topic attributions.
#[derive(Debug)]
pub struct MinedStructure {
    /// The multi-typed topical hierarchy.
    pub hierarchy: TopicHierarchy,
    /// Ranked phrases per topic (aligned with `hierarchy.topics`).
    pub topic_phrases: Vec<Vec<TopicalPhrase>>,
    /// Ranked entities per topic, per entity type:
    /// `topic_entities[t][etype]` is a `(entity id, score)` list.
    pub topic_entities: Vec<Vec<Vec<(u32, f64)>>>,
    /// Topical frequency `f_t(P)` tables per topic.
    pub phrase_topic_freq: Vec<HashMap<Vec<u32>, f64>>,
    /// Bag-of-phrases segmentation of every document.
    pub segments: Vec<Vec<Vec<u32>>>,
    /// Per-document topic weights (aligned with `hierarchy.topics`;
    /// `doc_topic[d][t]`, with the root fixed at 1.0).
    pub doc_topic: Vec<Vec<f64>>,
}

impl MinedStructure {
    /// The leaf topic with the largest weight for document `d`.
    pub fn doc_leaf(&self, d: usize) -> usize {
        self.hierarchy
            .leaves()
            .into_iter()
            .max_by(|&a, &b| self.doc_topic[d][a].total_cmp(&self.doc_topic[d][b]))
            .unwrap_or(0)
    }
}

/// The integrated miner.
#[derive(Debug, Default)]
pub struct LatentStructureMiner;

impl LatentStructureMiner {
    /// Runs the full pipeline on a corpus.
    pub fn mine(corpus: &Corpus, config: &MinerConfig) -> Result<MinedStructure, CoreError> {
        // 1-2. Collapsed network → hierarchy.
        let net = collapsed_network(corpus);
        let mut hier_cfg = config.hierarchy.clone();
        hier_cfg.em.threads = config.threads;
        hier_cfg.em.tol = config.em_tol;
        let hierarchy = TopicHierarchy::construct(net, &hier_cfg)?;
        let term_type = corpus.entities.num_types();

        // 3. Frequent phrases + segmentation (shared across topics).
        let docs: Vec<Vec<u32>> = corpus.docs.iter().map(|d| d.tokens.clone()).collect();
        let phrases = FrequentPhrases::mine_threads(
            &docs,
            config.phrase_min_support,
            config.phrase_max_len,
            config.threads,
        );
        let segments = Segmenter::segment_threads(
            &docs,
            &phrases,
            &SegmenterConfig { alpha: config.seg_alpha },
            config.threads,
        );

        let derived = derive_artifacts(&hierarchy, &segments, term_type, config);
        Ok(MinedStructure {
            hierarchy,
            topic_phrases: derived.topic_phrases,
            topic_entities: derived.topic_entities,
            phrase_topic_freq: derived.ptf,
            segments,
            doc_topic: derived.doc_topic,
        })
    }
}

/// The per-topic artifacts derived from a hierarchy plus a segmented
/// corpus (pipeline steps 4-7). Shared between [`LatentStructureMiner::mine`]
/// and the incremental [`LatentStructureMiner::update`] path so both produce
/// byte-identical artifacts for the same `(hierarchy, segments)` inputs.
pub(crate) struct DerivedArtifacts {
    pub ptf: Vec<HashMap<Vec<u32>, f64>>,
    pub topic_phrases: Vec<Vec<TopicalPhrase>>,
    pub topic_entities: Vec<Vec<Vec<(u32, f64)>>>,
    pub doc_topic: Vec<Vec<f64>>,
}

/// Derives topical frequencies, ranked phrases, ranked entities, and
/// per-document topic attributions from a constructed hierarchy and the
/// bag-of-phrases segmentation of every document.
///
/// Every phrase of the root table is interned once, and each topic's table
/// is held as a dense row over those ids while the steps run. A row holds
/// 0.0 where its table has no entry: entries are always positive (root
/// counts are at least 1, child shares at least 1e-6), so a 0.0 read is
/// exactly what a missing-key lookup defaulting to 0.0 returns. The
/// `HashMap` tables in the output are built from the rows at the end.
pub(crate) fn derive_artifacts(
    hierarchy: &TopicHierarchy,
    segments: &[Vec<Vec<u32>>],
    term_type: usize,
    config: &MinerConfig,
) -> DerivedArtifacts {
    let n_topics = hierarchy.len();
    // Intern the root table's phrases (ids in first-occurrence order) and
    // map every document's non-empty segments to ids, once.
    let mut ids: HashMap<&[u32], u32> = HashMap::new();
    let mut phrases: Vec<&[u32]> = Vec::new();
    let doc_ids: Vec<Vec<u32>> = segments
        .iter()
        .map(|doc_segs| {
            doc_segs
                .iter()
                .filter(|seg| !seg.is_empty())
                .map(|seg| {
                    *ids.entry(seg.as_slice()).or_insert_with(|| {
                        phrases.push(seg);
                        (phrases.len() - 1) as u32
                    })
                })
                .collect()
        })
        .collect();
    let n_phrases = phrases.len();

    // 4. Topical frequency estimation, top-down (Definition 3 / eq. 4.3):
    //    the root owns the raw corpus counts; each expanded node splits
    //    its phrases among children by the children's term-type phi.
    let mut freq: Vec<Vec<f64>> = vec![vec![0.0; n_phrases]; n_topics];
    for doc in &doc_ids {
        for &id in doc {
            freq[0][id as usize] += 1.0;
        }
    }
    let mut post: Vec<f64> = Vec::new();
    // Walk topics in index order: parents precede children by construction.
    for t in 0..n_topics {
        let children = &hierarchy.topics[t].children;
        if children.is_empty() {
            continue;
        }
        let Some(fit) = hierarchy.fits[t].as_ref() else { continue };
        // ln ρ_z and ln φ_z(w), once per child instead of once per phrase word.
        let ln_rho: Vec<f64> =
            (0..children.len()).map(|z| fit.rho[z + 1].max(1e-12).ln()).collect();
        let ln_phi: Vec<Vec<f64>> = (0..children.len())
            .map(|z| fit.phi[term_type][z].iter().map(|p| p.max(1e-300).ln()).collect())
            .collect();
        let mut child_rows: Vec<Vec<f64>> =
            children.iter().map(|&c| std::mem::take(&mut freq[c])).collect();
        for (id, &f) in freq[t].iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            post.clear();
            for (&lr, lphi) in ln_rho.iter().zip(&ln_phi) {
                let mut lp = lr;
                for &w in phrases[id] {
                    lp += lphi[w as usize];
                }
                post.push(lp);
            }
            let max_lp = post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut norm = 0.0;
            for v in post.iter_mut() {
                *v = (*v - max_lp).exp();
                norm += *v;
            }
            for (row, v) in child_rows.iter_mut().zip(&post) {
                let fz = f * v / norm;
                if fz >= 1e-6 {
                    row[id] = fz;
                }
            }
        }
        for (&c, row) in children.iter().zip(child_rows) {
            freq[c] = row;
        }
    }

    // 5. Rank phrases per topic by pointwise KL vs the parent (eq. 4.9).
    //    A table's mass is summed in sorted-phrase order: f64 addition is
    //    not associative, so the order must not depend on interning.
    let mut sorted: Vec<usize> = (0..n_phrases).collect();
    sorted.sort_unstable_by(|&a, &b| phrases[a].cmp(phrases[b]));
    let totals: Vec<f64> = freq
        .iter()
        .map(|row| sorted.iter().map(|&id| row[id]).filter(|&f| f != 0.0).sum())
        .collect();
    let mut topic_phrases: Vec<Vec<TopicalPhrase>> = Vec::with_capacity(n_topics);
    for t in 0..n_topics {
        let n_t: f64 = totals[t];
        let parent = hierarchy.topics[t].parent;
        let mut list: Vec<TopicalPhrase> = freq[t]
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f != 0.0 && f >= config.min_topic_freq)
            .map(|(id, &f)| {
                let p_t = f / n_t.max(1e-12);
                let score = match parent {
                    None => p_t,
                    Some(pt) => {
                        let n_p: f64 = totals[pt];
                        let f_parent = if freq[pt][id] == 0.0 { f } else { freq[pt][id] };
                        let p_parent = f_parent / n_p.max(1e-12);
                        p_t * (p_t / p_parent.max(1e-300)).ln()
                    }
                };
                TopicalPhrase { tokens: phrases[id].to_vec(), score, topic_freq: f }
            })
            .collect();
        list.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.tokens.cmp(&b.tokens)));
        list.truncate(config.phrases_per_topic);
        topic_phrases.push(list);
    }

    // 6. Entity rankings straight from the hierarchy's phi.
    let mut topic_entities: Vec<Vec<Vec<(u32, f64)>>> = Vec::with_capacity(n_topics);
    for t in 0..n_topics {
        let mut per_type = Vec::with_capacity(term_type);
        for etype in 0..term_type {
            per_type.push(hierarchy.top_nodes(t, etype, config.entities_per_topic));
        }
        topic_entities.push(per_type);
    }

    // 7. Document topic attribution via topical phrase frequencies
    //    (eqs. 5.4-5.5, applied top-down).
    let mut doc_topic = vec![vec![0.0f64; n_topics]; segments.len()];
    let (mut tpf, mut weights) = (Vec::new(), Vec::new());
    for (d, doc) in doc_ids.iter().enumerate() {
        doc_topic[d][0] = 1.0;
        // Process expanded topics in index order (parents first).
        for t in 0..n_topics {
            let children = &hierarchy.topics[t].children;
            if children.is_empty() || doc_topic[d][t] <= 0.0 {
                continue;
            }
            tpf.clear();
            tpf.resize(children.len(), 0.0f64);
            weights.resize(children.len(), 0.0f64);
            for &id in doc {
                let mut norm = 0.0;
                for (z, &c) in children.iter().enumerate() {
                    let f = freq[c][id as usize];
                    weights[z] = f;
                    norm += f;
                }
                if norm > 0.0 {
                    for (z, w) in weights.iter().enumerate() {
                        tpf[z] += w / norm;
                    }
                }
            }
            let total: f64 = tpf.iter().sum();
            if total > 0.0 {
                for (z, &c) in children.iter().enumerate() {
                    doc_topic[d][c] = doc_topic[d][t] * tpf[z] / total;
                }
            }
        }
    }

    let ptf = freq
        .iter()
        .map(|row| {
            row.iter()
                .zip(&phrases)
                .filter(|&(&f, _)| f != 0.0)
                .map(|(&f, p)| (p.to_vec(), f))
                .collect()
        })
        .collect();
    DerivedArtifacts { ptf, topic_phrases, topic_entities, doc_topic }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lesm_corpus::synth::{PapersConfig, SyntheticPapers};
    use lesm_hier::em::{EmConfig, WeightMode};
    use lesm_hier::hierarchy::ChildCount;

    pub(crate) fn small_corpus() -> SyntheticPapers {
        let mut cfg = PapersConfig::dblp(400, 21);
        cfg.hierarchy.branching = vec![2, 2];
        cfg.hierarchy.words_per_topic = 14;
        cfg.hierarchy.phrases_per_topic = 4;
        cfg.entity_specs[0].pool_per_node = 6;
        cfg.entity_specs[1].pool_per_node = 2;
        SyntheticPapers::generate(&cfg).unwrap()
    }

    pub(crate) fn miner_config() -> MinerConfig {
        MinerConfig {
            hierarchy: CathyConfig {
                children: ChildCount::Fixed(2),
                max_depth: 2,
                em: EmConfig {
                    iters: 200,
                    restarts: 5,
                    seed: 5,
                    background: true,
                    weights: WeightMode::Learned,
                    ..EmConfig::default()
                },
                min_links: 20,
                subnet_threshold: 0.5,
            },
            phrase_min_support: 4,
            ..MinerConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_consistent_structure() {
        let s = small_corpus();
        let mined = LatentStructureMiner::mine(&s.corpus, &miner_config()).unwrap();
        let n = mined.hierarchy.len();
        assert!(n >= 3, "hierarchy should expand");
        assert_eq!(mined.topic_phrases.len(), n);
        assert_eq!(mined.topic_entities.len(), n);
        assert_eq!(mined.doc_topic.len(), s.corpus.num_docs());
        // Every expanded non-root topic carries phrases and entities.
        for t in 1..n {
            if mined.hierarchy.topics[t].rho > 0.2 {
                assert!(
                    !mined.topic_phrases[t].is_empty(),
                    "topic {t} ({}) has no phrases",
                    mined.hierarchy.topics[t].path
                );
            }
        }
        // Child doc weights never exceed the parent's.
        for d in 0..mined.doc_topic.len() {
            for t in 0..n {
                if let Some(p) = mined.hierarchy.topics[t].parent {
                    assert!(mined.doc_topic[d][t] <= mined.doc_topic[d][p] + 1e-9);
                }
            }
        }
    }

    #[test]
    fn render_topic_is_human_readable() {
        let s = small_corpus();
        let mined = LatentStructureMiner::mine(&s.corpus, &miner_config()).unwrap();
        let txt = crate::export::render_topic(&mined.view(&s.corpus), 1, 5);
        assert!(txt.contains("o/1"));
        assert!(txt.contains('{'));
    }

    #[test]
    fn level1_topics_align_with_ground_truth_supertopics() {
        let s = small_corpus();
        let mined = LatentStructureMiner::mine(&s.corpus, &miner_config()).unwrap();
        // For each level-1 topic, look at its top words: most should come
        // from a single ground-truth level-1 subtree.
        let gt = &s.truth.hierarchy;
        let l1: Vec<usize> = mined.hierarchy.topics[0].children.clone();
        let term_type = s.corpus.entities.num_types();
        let mut distinct_supers = std::collections::HashSet::new();
        for &t in &l1 {
            let top = mined.hierarchy.top_nodes(t, term_type, 10);
            let mut votes: HashMap<usize, usize> = HashMap::new();
            for &(w, _) in &top {
                if let Some(owner) = s.truth.word_topic(w) {
                    // Map to its level-1 ancestor.
                    let mut cur = owner;
                    while gt.nodes[cur].level > 1 {
                        cur = gt.nodes[cur].parent.unwrap();
                    }
                    *votes.entry(cur).or_insert(0) += 1;
                }
            }
            if let Some((&winner, &count)) = votes.iter().max_by_key(|&(_, &c)| c) {
                let total: usize = votes.values().sum();
                assert!(
                    count * 3 >= total * 2,
                    "mined topic mixes ground-truth supertopics: {votes:?}"
                );
                distinct_supers.insert(winner);
            }
        }
        assert_eq!(distinct_supers.len(), 2, "the two supertopics should both be found");
    }
}
