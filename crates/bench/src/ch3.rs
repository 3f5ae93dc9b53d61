//! Chapter-3 experiment machinery: subtopic-discovery method runners and
//! intrusion-task generators for the 8 hierarchy methods of §3.3.2.

use lesm_core::pipeline::{LatentStructureMiner, MinedStructure, MinerConfig};
use lesm_corpus::synth::PapersGroundTruth;
use lesm_corpus::Corpus;
use lesm_eval::annotator::{panel_intrusion_accuracy, SimulatedAnnotator};
use lesm_hier::em::{CathyHinEm, EmConfig, WeightMode};
use lesm_hier::hierarchy::{CathyConfig, ChildCount};
use lesm_net::collapsed_network;
use lesm_topicmodel::{NetClus, NetClusConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ranked items per subtopic per node type (`per_topic[z][type]`), in the
/// collapsed-network type order (entity types first, term last).
pub struct SubtopicRanking {
    /// Method display name.
    pub name: String,
    /// `per_topic[z][type]` ranked `(item, score)` lists.
    pub per_topic: Vec<Vec<Vec<(u32, f64)>>>,
}

/// A standard EM config used by all chapter-3 runs.
pub fn em_config(k: usize, weights: WeightMode, seed: u64) -> EmConfig {
    EmConfig {
        k,
        iters: 250,
        restarts: 6,
        seed,
        background: true,
        weights,
        ..EmConfig::default()
    }
}

/// CATHYHIN one-level subtopic discovery on the collapsed network.
pub fn cathyhin_subtopics(
    corpus: &Corpus,
    k: usize,
    weights: WeightMode,
    seed: u64,
    top_n: usize,
) -> SubtopicRanking {
    let name = match &weights {
        WeightMode::Equal => "CATHYHIN (equal weight)",
        WeightMode::Normalized => "CATHYHIN (norm weight)",
        WeightMode::Learned => "CATHYHIN (learn weight)",
    };
    let net = collapsed_network(corpus);
    let fit = CathyHinEm::fit(&net, &em_config(k, weights, seed)).expect("non-empty network");
    let n_types = net.num_types();
    let per_topic = (0..k)
        .map(|z| (0..n_types).map(|x| fit.top_nodes(x, z, top_n)).collect())
        .collect();
    SubtopicRanking { name: name.into(), per_topic }
}

/// NetClus one-level subtopic discovery.
pub fn netclus_subtopics(
    corpus: &Corpus,
    k: usize,
    lambda_s: f64,
    seed: u64,
    top_n: usize,
) -> SubtopicRanking {
    let model = NetClus::fit(corpus, &NetClusConfig { k, lambda_s, iters: 80, seed });
    let n_types = corpus.entities.num_types() + 1;
    let per_topic = (0..k)
        .map(|z| (0..n_types).map(|x| model.top_items(z, x, top_n)).collect())
        .collect();
    SubtopicRanking { name: "NetClus".into(), per_topic }
}

/// TopK baseline: every "topic" is the global frequency ranking.
pub fn topk_subtopics(corpus: &Corpus, k: usize, top_n: usize) -> SubtopicRanking {
    let n_etypes = corpus.entities.num_types();
    let mut counts: Vec<std::collections::HashMap<u32, f64>> =
        vec![std::collections::HashMap::new(); n_etypes + 1];
    for doc in &corpus.docs {
        for &w in &doc.tokens {
            *counts[n_etypes].entry(w).or_insert(0.0) += 1.0;
        }
        for e in &doc.entities {
            *counts[e.etype].entry(e.id).or_insert(0.0) += 1.0;
        }
    }
    let ranked: Vec<Vec<(u32, f64)>> = counts
        .into_iter()
        .map(|m| {
            let mut v: Vec<(u32, f64)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v.truncate(top_n);
            v
        })
        .collect();
    SubtopicRanking { name: "TopK".into(), per_topic: vec![ranked; k] }
}

/// A hierarchy produced by one of the §3.3.2 comparison methods, reduced
/// to what the intrusion tasks need.
pub struct MethodHierarchy {
    /// Method display name.
    pub name: String,
    /// Parent index per topic (`None` at the root).
    pub parents: Vec<Option<usize>>,
    /// Children per topic.
    pub children: Vec<Vec<usize>>,
    /// Ranked phrases (token sequences) per topic.
    pub topic_phrases: Vec<Vec<Vec<u32>>>,
    /// Ranked entity ids per topic per entity type (empty when the method
    /// does not rank entities).
    pub topic_entities: Vec<Vec<Vec<u32>>>,
}

/// Standard miner configuration for the hierarchy methods.
pub fn miner_config(branching: &[usize], seed: u64) -> MinerConfig {
    MinerConfig {
        hierarchy: CathyConfig {
            children: ChildCount::PerLevel(branching.to_vec()),
            max_depth: branching.len(),
            em: em_config(branching[0], WeightMode::Learned, seed),
            min_links: 20,
            subnet_threshold: 0.5,
        },
        phrase_min_support: 5,
        ..MinerConfig::default()
    }
}

fn mined_to_method(name: &str, corpus: &Corpus, mined: &MinedStructure, unigram_only: bool) -> MethodHierarchy {
    let n = mined.hierarchy.len();
    let term_type = corpus.entities.num_types();
    let topic_phrases: Vec<Vec<Vec<u32>>> = (0..n)
        .map(|t| {
            if unigram_only {
                mined
                    .hierarchy
                    .top_nodes(t, term_type, 20)
                    .into_iter()
                    .map(|(w, _)| vec![w])
                    .collect()
            } else {
                mined.topic_phrases[t].iter().map(|p| p.tokens.clone()).collect()
            }
        })
        .collect();
    let topic_entities: Vec<Vec<Vec<u32>>> = (0..n)
        .map(|t| {
            mined.topic_entities[t]
                .iter()
                .map(|list| list.iter().map(|&(id, _)| id).collect())
                .collect()
        })
        .collect();
    MethodHierarchy {
        name: name.into(),
        parents: mined.hierarchy.topics.iter().map(|t| t.parent).collect(),
        children: mined.hierarchy.topics.iter().map(|t| t.children.clone()).collect(),
        topic_phrases,
        topic_entities,
    }
}

/// CATHYHIN (full pipeline) or its unigram-restricted variant CATHYHIN1.
pub fn method_cathyhin(
    corpus: &Corpus,
    branching: &[usize],
    seed: u64,
    unigram_only: bool,
) -> MethodHierarchy {
    let mined = LatentStructureMiner::mine(corpus, &miner_config(branching, seed))
        .expect("pipeline succeeds");
    let name = if unigram_only { "CATHYHIN1" } else { "CATHYHIN" };
    mined_to_method(name, corpus, &mined, unigram_only)
}

/// CATHY (text-only) and CATHY1; with `heuristic_entities` the
/// CATHYheuristicHIN variant attaches entities by document-weighted links.
pub fn method_cathy(
    corpus: &Corpus,
    branching: &[usize],
    seed: u64,
    unigram_only: bool,
    heuristic_entities: bool,
) -> MethodHierarchy {
    // Strip entities: the text-only pipeline sees the same docs, no links.
    let mut text_only = Corpus::new();
    text_only.vocab = corpus.vocab.clone();
    text_only.docs = corpus
        .docs
        .iter()
        .map(|d| lesm_corpus::Doc { tokens: d.tokens.clone(), ..Default::default() })
        .collect();
    let mined = LatentStructureMiner::mine(&text_only, &miner_config(branching, seed))
        .expect("pipeline succeeds");
    let mut mh = mined_to_method(
        if heuristic_entities {
            "CATHYheurHIN"
        } else if unigram_only {
            "CATHY1"
        } else {
            "CATHY"
        },
        &text_only,
        &mined,
        unigram_only,
    );
    if heuristic_entities {
        // Posterior-hoc entity ranking: score(e, t) = Σ_d doc_topic[d][t] ×
        // [e linked to d] (the §3.3.2 heuristic comparison).
        let n_types = corpus.entities.num_types();
        let n_topics = mined.hierarchy.len();
        let mut scores: Vec<Vec<std::collections::HashMap<u32, f64>>> =
            vec![vec![std::collections::HashMap::new(); n_types]; n_topics];
        for (d, doc) in corpus.docs.iter().enumerate() {
            for t in 0..n_topics {
                let w = mined.doc_topic[d][t];
                if w <= 0.0 {
                    continue;
                }
                for e in &doc.entities {
                    *scores[t][e.etype].entry(e.id).or_insert(0.0) += w;
                }
            }
        }
        mh.topic_entities = scores
            .into_iter()
            .map(|per_type| {
                per_type
                    .into_iter()
                    .map(|m| {
                        let mut v: Vec<(u32, f64)> = m.into_iter().collect();
                        v.sort_by(|a, b| {
                            b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
                        });
                        v.into_iter().take(20).map(|(id, _)| id).collect()
                    })
                    .collect()
            })
            .collect();
    }
    mh
}

/// NetClus-based hierarchy (recursive hard partitioning) with optional
/// phrase representation (the NetClus / NetClusphrase variants).
pub fn method_netclus(
    corpus: &Corpus,
    branching: &[usize],
    lambda_s: f64,
    seed: u64,
    phrases: bool,
    unigram_only: bool,
) -> MethodHierarchy {
    let n_etypes = corpus.entities.num_types();
    // Frequent phrases for the phrase-ranking step.
    let docs: Vec<Vec<u32>> = corpus.docs.iter().map(|d| d.tokens.clone()).collect();
    let fp = lesm_phrases::topmine::FrequentPhrases::mine(&docs, 5, 4);
    let segs = lesm_phrases::topmine::Segmenter::segment(
        &docs,
        &fp,
        &lesm_phrases::topmine::SegmenterConfig { alpha: 2.0 },
    );
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut children: Vec<Vec<usize>> = vec![vec![]];
    let mut topic_docs: Vec<Vec<usize>> = vec![(0..corpus.num_docs()).collect()];
    let mut topic_phrases: Vec<Vec<Vec<u32>>> = vec![vec![]];
    let mut topic_entities: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n_etypes]];
    let mut frontier = vec![0usize];
    for (level, &k) in branching.iter().enumerate() {
        let mut next = Vec::new();
        for &node in &frontier {
            let ids = topic_docs[node].clone();
            if ids.len() < k * 5 {
                continue;
            }
            let model = NetClus::fit_subset(
                corpus,
                &ids,
                &NetClusConfig { k, lambda_s, iters: 60, seed: seed + level as u64 },
            );
            // Hard partition of documents.
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (pos, &d) in ids.iter().enumerate() {
                buckets[model.argmax_cluster(pos)].push(d);
            }
            for (z, bucket) in buckets.into_iter().enumerate() {
                let idx = parents.len();
                parents.push(Some(node));
                children.push(vec![]);
                children[node].push(idx);
                // Phrase representation of the cluster.
                let phrase_list = if phrases && !unigram_only {
                    rank_cluster_phrases(&segs, &bucket, corpus.num_docs(), 20)
                } else {
                    model.top_items(z, n_etypes, 20).into_iter().map(|(w, _)| vec![w]).collect()
                };
                topic_phrases.push(phrase_list);
                topic_entities.push(
                    (0..n_etypes)
                        .map(|x| model.top_items(z, x, 20).into_iter().map(|(id, _)| id).collect())
                        .collect(),
                );
                topic_docs.push(bucket);
                next.push(idx);
            }
        }
        frontier = next;
    }
    let name = match (phrases, unigram_only) {
        (true, false) => "NetClusphrase",
        (true, true) | (false, true) => "NetClusphrase1",
        (false, false) => "NetClus",
    };
    MethodHierarchy { name: name.into(), parents, children, topic_phrases, topic_entities }
}

/// Ranks a document cluster's phrases by frequency × purity vs the corpus.
fn rank_cluster_phrases(
    segs: &[Vec<Vec<u32>>],
    cluster: &[usize],
    n_docs: usize,
    top_n: usize,
) -> Vec<Vec<u32>> {
    use std::collections::HashMap;
    let mut inside: HashMap<&[u32], f64> = HashMap::new();
    for &d in cluster {
        for seg in &segs[d] {
            if !seg.is_empty() {
                *inside.entry(seg.as_slice()).or_insert(0.0) += 1.0;
            }
        }
    }
    let mut global: HashMap<&[u32], f64> = HashMap::new();
    for doc in segs {
        for seg in doc {
            if !seg.is_empty() {
                *global.entry(seg.as_slice()).or_insert(0.0) += 1.0;
            }
        }
    }
    let n_in = cluster.len().max(1) as f64;
    let mut scored: Vec<(Vec<u32>, f64)> = inside
        .into_iter()
        .filter(|&(_, c)| c >= 2.0)
        .map(|(p, c)| {
            let p_in = c / n_in;
            let p_all = global[p] / n_docs as f64;
            (p.to_vec(), p_in * (p_in / p_all.max(1e-12)).ln().max(0.0))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.into_iter().take(top_n).map(|(p, _)| p).collect()
}

/// One intrusion question: option signatures plus the intruder index.
pub type Question = (Vec<Vec<f64>>, usize);

/// Builds phrase-intrusion questions for a method hierarchy.
pub fn phrase_intrusion_questions(
    mh: &MethodHierarchy,
    truth: &PapersGroundTruth,
    n_questions: usize,
    seed: u64,
) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut questions = Vec::new();
    let topics_with_sibs: Vec<usize> = (0..mh.parents.len())
        .filter(|&t| {
            mh.topic_phrases[t].len() >= 4
                && siblings(mh, t).iter().any(|&s| !mh.topic_phrases[s].is_empty())
        })
        .collect();
    if topics_with_sibs.is_empty() {
        return questions;
    }
    let mut guard = 0;
    while questions.len() < n_questions && guard < n_questions * 20 {
        guard += 1;
        let t = topics_with_sibs[rng.gen_range(0..topics_with_sibs.len())];
        let sibs: Vec<usize> =
            siblings(mh, t).into_iter().filter(|&s| !mh.topic_phrases[s].is_empty()).collect();
        let s = sibs[rng.gen_range(0..sibs.len())];
        let own: Vec<&Vec<u32>> = mh.topic_phrases[t].iter().take(10).collect();
        let intruder = &mh.topic_phrases[s][rng.gen_range(0..mh.topic_phrases[s].len().min(10))];
        let mut picks: Vec<&Vec<u32>> = Vec::new();
        while picks.len() < 4 {
            let cand = own[rng.gen_range(0..own.len())];
            if !picks.contains(&cand) && cand != intruder {
                picks.push(cand);
            }
            if picks.len() + 1 > own.len() {
                break;
            }
        }
        if picks.len() < 4 {
            continue;
        }
        let group: Vec<Vec<f64>> =
            picks.iter().map(|p| crate::signatures::phrase_signature(truth, p)).collect();
        let intruder_sig = crate::signatures::phrase_signature(truth, intruder);
        if !distinguishable(&group, &intruder_sig) {
            continue;
        }
        let pos = rng.gen_range(0..=group.len());
        let mut sigs = group;
        sigs.insert(pos, intruder_sig);
        questions.push((sigs, pos));
    }
    questions
}

/// Builds entity-intrusion questions for one entity type.
pub fn entity_intrusion_questions(
    mh: &MethodHierarchy,
    truth: &PapersGroundTruth,
    etype: usize,
    n_questions: usize,
    seed: u64,
) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut questions = Vec::new();
    let eligible: Vec<usize> = (0..mh.parents.len())
        .filter(|&t| {
            mh.topic_entities[t].get(etype).is_some_and(|l| l.len() >= 4)
                && siblings(mh, t)
                    .iter()
                    .any(|&s| mh.topic_entities[s].get(etype).is_some_and(|l| !l.is_empty()))
        })
        .collect();
    if eligible.is_empty() {
        return questions;
    }
    let mut guard = 0;
    while questions.len() < n_questions && guard < n_questions * 20 {
        guard += 1;
        let t = eligible[rng.gen_range(0..eligible.len())];
        let sibs: Vec<usize> = siblings(mh, t)
            .into_iter()
            .filter(|&s| mh.topic_entities[s].get(etype).is_some_and(|l| !l.is_empty()))
            .collect();
        let s = sibs[rng.gen_range(0..sibs.len())];
        let own = &mh.topic_entities[t][etype];
        let intr_list = &mh.topic_entities[s][etype];
        let intruder = intr_list[rng.gen_range(0..intr_list.len().min(10))];
        let mut picks: Vec<u32> = Vec::new();
        let mut tries = 0;
        while picks.len() < 4 && tries < 40 {
            tries += 1;
            let cand = own[rng.gen_range(0..own.len().min(10))];
            if !picks.contains(&cand) && cand != intruder {
                picks.push(cand);
            }
        }
        if picks.len() < 4 {
            continue;
        }
        let group: Vec<Vec<f64>> = picks
            .iter()
            .map(|&id| crate::signatures::entity_signature(truth, etype, id))
            .collect();
        let intruder_sig = crate::signatures::entity_signature(truth, etype, intruder);
        if !distinguishable(&group, &intruder_sig) {
            continue;
        }
        let pos = rng.gen_range(0..=group.len());
        let mut sigs = group;
        sigs.insert(pos, intruder_sig);
        questions.push((sigs, pos));
    }
    questions
}

/// Builds topic-intrusion questions: candidate child topics of a parent
/// plus one non-child; each topic represented by its top-5 phrases.
pub fn topic_intrusion_questions(
    mh: &MethodHierarchy,
    truth: &PapersGroundTruth,
    n_questions: usize,
    seed: u64,
) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut questions = Vec::new();
    let parents: Vec<usize> =
        (0..mh.parents.len()).filter(|&t| mh.children[t].len() >= 2).collect();
    if parents.len() < 2 {
        return questions;
    }
    let topic_sig = |t: usize| {
        let phrases: Vec<Vec<u32>> = mh.topic_phrases[t].iter().take(5).cloned().collect();
        crate::signatures::topic_signature(truth, &phrases)
    };
    let mut guard = 0;
    while questions.len() < n_questions && guard < n_questions * 20 {
        guard += 1;
        let p = parents[rng.gen_range(0..parents.len())];
        let kids = &mh.children[p];
        let kid_depth = depth(mh, kids[0]);
        // A non-child at the same level (the paper's question design).
        let others: Vec<usize> = (0..mh.parents.len())
            .filter(|&t| {
                mh.parents[t].is_some()
                    && mh.parents[t] != Some(p)
                    && depth(mh, t) == kid_depth
                    && !mh.topic_phrases[t].is_empty()
            })
            .collect();
        if others.is_empty() {
            continue;
        }
        let intruder = others[rng.gen_range(0..others.len())];
        let take = kids.len().min(3);
        let opts: Vec<usize> = kids.iter().copied().take(take).collect();
        let group: Vec<Vec<f64>> = opts.iter().map(|&t| topic_sig(t)).collect();
        let intruder_sig = topic_sig(intruder);
        if !distinguishable(&group, &intruder_sig) {
            continue;
        }
        let pos = rng.gen_range(0..=group.len());
        let mut sigs = group;
        sigs.insert(pos, intruder_sig);
        questions.push((sigs, pos));
    }
    questions
}

fn siblings(mh: &MethodHierarchy, t: usize) -> Vec<usize> {
    match mh.parents[t] {
        None => vec![],
        Some(p) => mh.children[p].iter().copied().filter(|&c| c != t).collect(),
    }
}

fn depth(mh: &MethodHierarchy, mut t: usize) -> usize {
    let mut d = 0;
    while let Some(p) = mh.parents[t] {
        t = p;
        d += 1;
    }
    d
}

/// Whether the intruder signature is actually distinguishable from the
/// in-group options. Human question designers discard questions whose
/// intruder is indistinguishable (e.g. venue intruders between leaf
/// topics that share an area's venues); the oracle does the same.
fn distinguishable(group: &[Vec<f64>], intruder: &[f64]) -> bool {
    let dim = intruder.len();
    let mut mean = vec![0.0f64; dim];
    for g in group {
        for (m, v) in mean.iter_mut().zip(g) {
            *m += v;
        }
    }
    let (mut ab, mut aa, mut bb) = (0.0, 0.0, 0.0);
    for (m, v) in mean.iter().zip(intruder) {
        ab += m * v;
        aa += m * m;
        bb += v * v;
    }
    if aa <= 0.0 || bb <= 0.0 {
        return false; // empty signatures: nothing to judge
    }
    ab / (aa.sqrt() * bb.sqrt()) < 0.85
}

/// Scores a question set with a fresh 3-annotator panel.
pub fn score_questions(questions: &[Question], seed: u64) -> f64 {
    if questions.is_empty() {
        return 0.0;
    }
    let mut panel = SimulatedAnnotator::panel(seed, 3);
    panel_intrusion_accuracy(&mut panel, questions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::dblp_small;

    #[test]
    fn subtopic_runners_produce_rankings() {
        let p = dblp_small(300, 9);
        let r1 = cathyhin_subtopics(&p.corpus, 2, WeightMode::Equal, 1, 10);
        assert_eq!(r1.per_topic.len(), 2);
        assert_eq!(r1.per_topic[0].len(), 3);
        let r2 = netclus_subtopics(&p.corpus, 2, 0.3, 1, 10);
        assert_eq!(r2.per_topic.len(), 2);
        let r3 = topk_subtopics(&p.corpus, 2, 10);
        assert_eq!(r3.per_topic[0][2].len(), 10);
        // TopK's two "topics" are identical.
        assert_eq!(r3.per_topic[0][2], r3.per_topic[1][2]);
    }

    #[test]
    fn intrusion_questions_generate_and_score() {
        let p = dblp_small(400, 10);
        let mh = method_cathyhin(&p.corpus, &[2, 2], 3, false);
        let qs = phrase_intrusion_questions(&mh, &p.truth, 20, 1);
        assert!(!qs.is_empty());
        let acc = score_questions(&qs, 5);
        assert!((0.0..=1.0).contains(&acc));
        let eqs = entity_intrusion_questions(&mh, &p.truth, 0, 10, 2);
        assert!(!eqs.is_empty());
        let tqs = topic_intrusion_questions(&mh, &p.truth, 10, 3);
        assert!(!tqs.is_empty());
    }

    #[test]
    fn netclus_method_builds_hierarchy() {
        let p = dblp_small(300, 11);
        let mh = method_netclus(&p.corpus, &[2], 0.3, 1, true, false);
        assert!(mh.parents.len() >= 3);
        assert_eq!(mh.children[0].len(), 2);
    }
}
