//! Deterministic mined-structure construction from synthetic ground truth.
//!
//! [`model_from_truth`] turns a [`SyntheticPapers`] sample into a
//! [`MinedStructure`] *directly from the generator's latent variables* —
//! no EM, no phrase mining, no sampling. The output has the same shape as
//! a [`crate::LatentStructureMiner`] result (hierarchy, ranked phrases,
//! ranked entities, topical frequency tables, segmentations, document
//! memberships), so it can be snapshotted, sharded, and served like any
//! mined model.
//!
//! The point is scale: serving and replay benchmarks need models over
//! tens of thousands of documents, and running the full mining pipeline
//! at that size costs minutes of EM per measurement. Reading the latent
//! structure back out of the generator costs one linear pass over the
//! corpus and is exactly reproducible for a given seed, which keeps
//! benchmark artifacts byte-stable across runs and machines.

use crate::pipeline::MinedStructure;
use lesm_corpus::synth::SyntheticPapers;
use lesm_hier::hierarchy::HierTopic;
use lesm_hier::TopicHierarchy;
use lesm_net::TypedNetwork;
use lesm_phrases::TopicalPhrase;
use std::collections::HashMap;

/// How many entities per type each topic keeps in its ranked list.
const TOP_ENTITIES: usize = 20;

/// Builds a [`MinedStructure`] from the ground truth of a synthetic
/// corpus. Fully deterministic: the output is a pure function of the
/// input sample (itself a pure function of its config and seed).
///
/// Construction, per ground-truth node `t`:
///
/// * **hierarchy** — mirrors the truth tree node for node (same parents,
///   children, levels, `o/…` paths); `rho` is the node's share of its
///   parent subtree's documents.
/// * **segments** — each document is greedily segmented against the
///   phrase inventory of its root-to-leaf path (longest match first,
///   ties by node depth), falling back to unigrams.
/// * **phrase tables** — every segment of every document counts toward
///   `f_t(P)` for *all* nodes on the document's path, so internal nodes
///   aggregate their subtrees the way CATHY's tables do.
/// * **topic phrases** — the node's table entries ranked by frequency
///   (ties by token sequence), multi-word phrases before unigrams.
/// * **entities** — empirical entity→leaf counts aggregated up the tree
///   and normalized per node.
/// * **doc_topic** — each document's segment mass per path node over its
///   total segments, with the root pinned at 1.0.
pub fn model_from_truth(papers: &SyntheticPapers) -> MinedStructure {
    let corpus = &papers.corpus;
    let truth = &papers.truth;
    let gt = &truth.hierarchy;
    let n_topics = gt.len();
    let n_types = corpus.entities.num_types();

    // --- Hierarchy skeleton ------------------------------------------------
    // Document counts per subtree drive rho.
    let mut subtree_docs = vec![0usize; n_topics];
    for &leaf in &truth.doc_leaf {
        for &node in &gt.path_nodes(leaf) {
            subtree_docs[node] += 1;
        }
    }
    let type_names: Vec<String> = (0..n_types)
        .map(|t| corpus.entities.type_name(t).unwrap_or("entity").to_string())
        .collect();
    let topics: Vec<HierTopic> = (0..n_topics)
        .map(|t| {
            let node = &gt.nodes[t];
            let rho = match node.parent {
                Some(p) if subtree_docs[p] > 0 => subtree_docs[t] as f64 / subtree_docs[p] as f64,
                _ => 1.0,
            };
            HierTopic {
                parent: node.parent,
                children: node.children.clone(),
                level: node.level,
                path: node.path.clone(),
                phi: Vec::new(),
                rho,
            }
        })
        .collect();
    let node_counts = (0..n_types).map(|x| corpus.entities.count(x)).collect();
    let hierarchy = TopicHierarchy {
        network: TypedNetwork::new(type_names, node_counts),
        topics,
        fits: vec![None; n_topics],
    };

    // --- Segmentation + phrase tables --------------------------------------
    // The phrase inventory per path: (tokens, owning node), longest first so
    // greedy matching prefers the most specific contiguous phrase.
    let mut phrase_topic_freq: Vec<HashMap<Vec<u32>, f64>> = vec![HashMap::new(); n_topics];
    let mut segments: Vec<Vec<Vec<u32>>> = Vec::with_capacity(corpus.num_docs());
    let mut doc_topic: Vec<Vec<f64>> = Vec::with_capacity(corpus.num_docs());
    // Word → owning node, for attributing unigram segments.
    let mut word_node: HashMap<u32, usize> = HashMap::new();
    for (t, words) in gt.own_words.iter().enumerate() {
        for &w in words {
            word_node.insert(w, t);
        }
    }

    for (d, doc) in corpus.docs.iter().enumerate() {
        let leaf = truth.doc_leaf[d];
        let path = gt.path_nodes(leaf);
        let mut inventory: Vec<(&[u32], usize)> = path
            .iter()
            .flat_map(|&node| gt.phrases[node].iter().map(move |p| (p.as_slice(), node)))
            .collect();
        inventory.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(b.0)));

        let mut doc_segments: Vec<Vec<u32>> = Vec::new();
        let mut mass = vec![0.0f64; n_topics];
        let mut i = 0;
        while i < doc.tokens.len() {
            let rest = &doc.tokens[i..];
            let hit = inventory.iter().find(|(p, _)| rest.starts_with(p));
            let (segment, node): (Vec<u32>, usize) = match hit {
                Some(&(p, node)) => (p.to_vec(), node),
                None => {
                    let w = doc.tokens[i];
                    // Background / leaked words attribute to the doc's leaf.
                    (vec![w], *word_node.get(&w).filter(|n| path.contains(n)).unwrap_or(&leaf))
                }
            };
            i += segment.len();
            // Every ancestor of the owning node absorbs the segment, so
            // internal tables aggregate their subtrees.
            for &t in &path {
                *phrase_topic_freq[t].entry(segment.clone()).or_insert(0.0) += 1.0;
                mass[t] += 1.0;
                if t == node {
                    break;
                }
            }
            doc_segments.push(segment);
        }
        let total = doc_segments.len().max(1) as f64;
        let mut weights: Vec<f64> = mass.iter().map(|&m| m / total).collect();
        weights[0] = 1.0;
        doc_topic.push(weights);
        segments.push(doc_segments);
    }

    // --- Ranked phrases per topic ------------------------------------------
    let topic_phrases: Vec<Vec<TopicalPhrase>> = phrase_topic_freq
        .iter()
        .map(|table| {
            let mut ranked: Vec<TopicalPhrase> = table
                .iter()
                .map(|(tokens, &f)| TopicalPhrase {
                    tokens: tokens.clone(),
                    // Multi-word phrases outrank unigrams of equal mass.
                    score: f * tokens.len() as f64,
                    topic_freq: f,
                })
                .collect();
            ranked.sort_by(|a, b| {
                b.score.total_cmp(&a.score).then_with(|| a.tokens.cmp(&b.tokens))
            });
            ranked
        })
        .collect();

    // --- Ranked entities per topic ------------------------------------------
    let mut topic_entities: Vec<Vec<Vec<(u32, f64)>>> =
        vec![vec![Vec::new(); n_types]; n_topics];
    for (etype, per_entity) in truth.entity_leaf_counts.iter().enumerate() {
        let mut node_counts: Vec<HashMap<u32, u32>> = vec![HashMap::new(); n_topics];
        for (id, leaf_counts) in per_entity.iter().enumerate() {
            for &(leaf, c) in leaf_counts {
                for &node in &gt.path_nodes(leaf) {
                    *node_counts[node].entry(id as u32).or_insert(0) += c;
                }
            }
        }
        for (t, counts) in node_counts.into_iter().enumerate() {
            let total: u32 = counts.values().sum();
            if total == 0 {
                continue;
            }
            let mut ranked: Vec<(u32, f64)> =
                counts.into_iter().map(|(id, c)| (id, c as f64 / total as f64)).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(TOP_ENTITIES);
            topic_entities[t][etype] = ranked;
        }
    }

    MinedStructure {
        hierarchy,
        topic_phrases,
        topic_entities,
        phrase_topic_freq,
        segments,
        doc_topic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesm_corpus::synth::{PapersConfig, SyntheticPapers};

    fn sample(docs: usize, seed: u64) -> SyntheticPapers {
        let mut cfg = PapersConfig::dblp(docs, seed);
        cfg.hierarchy.branching = vec![3, 2];
        SyntheticPapers::generate(&cfg).expect("synth")
    }

    #[test]
    fn shapes_align_with_the_truth_tree() {
        let papers = sample(400, 17);
        let m = model_from_truth(&papers);
        let n = papers.truth.hierarchy.len();
        assert_eq!(m.hierarchy.len(), n);
        assert_eq!(m.topic_phrases.len(), n);
        assert_eq!(m.topic_entities.len(), n);
        assert_eq!(m.phrase_topic_freq.len(), n);
        assert_eq!(m.segments.len(), 400);
        assert_eq!(m.doc_topic.len(), 400);
        for (t, topic) in m.hierarchy.topics.iter().enumerate() {
            assert_eq!(topic.path, papers.truth.hierarchy.nodes[t].path);
            assert_eq!(topic.children, papers.truth.hierarchy.nodes[t].children);
            assert!(topic.rho > 0.0 && topic.rho <= 1.0, "rho out of range at {t}");
        }
        for w in &m.doc_topic {
            assert_eq!(w[0], 1.0, "root membership must be pinned at 1.0");
        }
    }

    #[test]
    fn segments_cover_every_token_in_order() {
        let papers = sample(200, 3);
        let m = model_from_truth(&papers);
        for (d, doc) in papers.corpus.docs.iter().enumerate() {
            let flat: Vec<u32> = m.segments[d].iter().flatten().copied().collect();
            assert_eq!(flat, doc.tokens, "doc {d} segmentation loses tokens");
        }
    }

    #[test]
    fn is_deterministic() {
        let a = model_from_truth(&sample(300, 29));
        let b = model_from_truth(&sample(300, 29));
        assert_eq!(a.doc_topic, b.doc_topic);
        assert_eq!(a.segments, b.segments);
        for (x, y) in a.topic_phrases.iter().zip(&b.topic_phrases) {
            let xs: Vec<_> = x.iter().map(|p| (&p.tokens, p.score.to_bits())).collect();
            let ys: Vec<_> = y.iter().map(|p| (&p.tokens, p.score.to_bits())).collect();
            assert_eq!(xs, ys);
        }
        assert_eq!(a.topic_entities, b.topic_entities);
    }

    #[test]
    fn search_over_the_synthetic_model_finds_on_topic_docs() {
        let papers = sample(400, 7);
        let m = model_from_truth(&papers);
        let leaf = papers.truth.hierarchy.leaves[0];
        let word = papers.truth.hierarchy.own_words[leaf][0];
        let query = papers.corpus.vocab.name_or_unk(word).to_string();
        let view = m.view(&papers.corpus);
        let hits = crate::search::search(&view, &crate::SearchIndex::build(&view), &query, 10);
        assert!(!hits.is_empty(), "ground-truth leaf word must match");
        let on_topic =
            hits.iter().filter(|h| papers.truth.doc_leaf[h.doc] == leaf).count();
        assert!(on_topic * 2 >= hits.len(), "only {on_topic}/{} hits on topic", hits.len());
    }
}
