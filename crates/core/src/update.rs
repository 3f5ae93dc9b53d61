//! Incremental mining: extend a previously mined structure with appended
//! documents without re-running the full pipeline.
//!
//! The update path mirrors [`LatentStructureMiner::mine`] stage for stage
//! but replaces the expensive parts with deltas:
//!
//! 1. only the appended documents are collapsed into link weights
//!    (`collapsed_network_from`), over the full append-only node space;
//! 2. the hierarchy is warm-started from the base fit and refined under a
//!    small convergence budget ([`UpdateBudget`]) instead of multi-restart
//!    EM from scratch ([`TopicHierarchy::update`]);
//! 3. only the appended documents are segmented, against the base
//!    documents' counts of just the phrases they contain
//!    ([`FrequentPhrases::mine_for`], which segments them exactly as the
//!    full base inventory would; token ids are append-only, so this is
//!    bit-stable) — base segmentations are reused verbatim;
//! 4. the cheap artifact-derivation stages (topical frequencies, phrase
//!    and entity ranking, document attribution) run through the same code
//!    path as `mine`, so shared inputs produce byte-identical artifacts.
//!
//! Determinism contract: the same base structure plus the same update
//! sequence yields bit-identical results, independent of worker threads.
//! `update(base, delta)` is *not* required to equal `mine(base ∪ delta)` —
//! the warm-started fit is a continuation, not a restart. The phrase
//! counts cover the base documents only, so a phrase frequent only within
//! the delta is not merged in that delta. The next update's base is this
//! result, delta included, so that phrase can be merged in later deltas;
//! documents already segmented are never segmented again, and compaction
//! (an artifact written without lineage) re-mines nothing.

use crate::pipeline::{derive_artifacts, MinedStructure, MinerConfig};
use crate::{CoreError, LatentStructureMiner};
use lesm_corpus::Corpus;
use lesm_hier::{TopicHierarchy, UpdateBudget};
use lesm_net::collapsed_network_from;
use lesm_phrases::topmine::{FrequentPhrases, Segmenter, SegmenterConfig};

impl LatentStructureMiner {
    /// Incrementally extends `base` — mined from the first `base_docs`
    /// documents of `corpus` — to cover the documents appended after them.
    ///
    /// `corpus` must be the base corpus grown append-only (e.g. via
    /// `lesm_corpus::append_tsv`): every base document, token id, and
    /// entity id unchanged, new material only at the end. `config` should
    /// be the configuration the base was mined with; `budget` bounds the
    /// warm-start refinement.
    pub fn update(
        corpus: &Corpus,
        base: &MinedStructure,
        base_docs: usize,
        config: &MinerConfig,
        budget: &UpdateBudget,
    ) -> Result<MinedStructure, CoreError> {
        if base_docs > corpus.num_docs() {
            return Err(CoreError::Update(format!(
                "base covers {base_docs} documents but the corpus has only {}",
                corpus.num_docs()
            )));
        }
        if base.segments.len() != base_docs {
            return Err(CoreError::Update(format!(
                "base structure segments {} documents, expected {base_docs}",
                base.segments.len()
            )));
        }
        if base.doc_topic.len() != base_docs {
            return Err(CoreError::Update(format!(
                "base structure attributes {} documents, expected {base_docs}",
                base.doc_topic.len()
            )));
        }

        // 1-2. Delta collapse over the full (append-only) node space, then
        //      a warm-started hierarchy refinement under the budget.
        let delta_net = collapsed_network_from(corpus, base_docs);
        let mut hier_cfg = config.hierarchy.clone();
        hier_cfg.em.threads = config.threads;
        hier_cfg.em.tol = config.em_tol;
        let hierarchy = TopicHierarchy::update(&base.hierarchy, &delta_net, &hier_cfg, budget)?;
        let term_type = corpus.entities.num_types();

        // 3. Count over the base documents only the phrases the appended
        //    documents can use, and segment only the appended documents.
        let delta_tokens: Vec<Vec<u32>> =
            corpus.docs[base_docs..].iter().map(|d| d.tokens.clone()).collect();
        let phrases = FrequentPhrases::mine_for(
            corpus.docs[..base_docs].iter().map(|d| d.tokens.as_slice()),
            &delta_tokens,
            config.phrase_min_support,
            config.phrase_max_len,
        );
        let delta_segments = Segmenter::segment_threads(
            &delta_tokens,
            &phrases,
            &SegmenterConfig { alpha: config.seg_alpha },
            config.threads,
        );
        let mut segments = base.segments.clone();
        segments.extend(delta_segments);

        // 4-7. Shared artifact derivation (identical code path to `mine`).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{miner_config, small_corpus};

    /// Splits the synthetic corpus into a base prefix and a ~1% tail. The
    /// truncated clone keeps the full vocabulary and entity catalog, which
    /// matches the append-only contract (ids stable, ranges extend).
    fn split_corpus(tail: usize) -> (Corpus, Corpus, usize) {
        let s = small_corpus();
        let full = s.corpus;
        let base_docs = full.num_docs() - tail;
        let mut base = full.clone();
        base.docs.truncate(base_docs);
        (base, full, base_docs)
    }

    #[test]
    fn update_extends_the_structure_over_appended_docs() {
        let (base_corpus, full, base_docs) = split_corpus(4);
        let cfg = miner_config();
        let base = LatentStructureMiner::mine(&base_corpus, &cfg).unwrap();
        let budget = UpdateBudget::default();
        let up = LatentStructureMiner::update(&full, &base, base_docs, &cfg, &budget).unwrap();

        // Same tree shape as the base (warm start pins the topology)…
        assert_eq!(up.hierarchy.len(), base.hierarchy.len());
        for (a, b) in up.hierarchy.topics.iter().zip(&base.hierarchy.topics) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.children.len(), b.children.len());
        }
        // …but artifacts now cover every document.
        assert_eq!(up.segments.len(), full.num_docs());
        assert_eq!(up.doc_topic.len(), full.num_docs());
        assert_eq!(&up.segments[..base_docs], &base.segments[..]);
        for d in base_docs..full.num_docs() {
            assert_eq!(up.doc_topic[d][0], 1.0, "appended doc {d} unattributed");
        }
    }

    #[test]
    fn update_is_bit_deterministic_across_runs_and_threads() {
        let (base_corpus, full, base_docs) = split_corpus(4);
        let cfg = miner_config();
        let base = LatentStructureMiner::mine(&base_corpus, &cfg).unwrap();
        let budget = UpdateBudget::default();
        let a = LatentStructureMiner::update(&full, &base, base_docs, &cfg, &budget).unwrap();
        let b = LatentStructureMiner::update(&full, &base, base_docs, &cfg, &budget).unwrap();
        let mut cfg4 = cfg.clone();
        cfg4.threads = 4;
        let c = LatentStructureMiner::update(&full, &base, base_docs, &cfg4, &budget).unwrap();
        for other in [&b, &c] {
            assert_eq!(a.doc_topic, other.doc_topic);
            assert_eq!(a.topic_phrases, other.topic_phrases);
            assert_eq!(a.segments, other.segments);
            assert_eq!(a.topic_entities, other.topic_entities);
            for (fa, fo) in a.hierarchy.fits.iter().zip(&other.hierarchy.fits) {
                match (fa, fo) {
                    (Some(fa), Some(fo)) => {
                        assert_eq!(fa.phi, fo.phi);
                        assert_eq!(fa.rho, fo.rho);
                    }
                    (None, None) => {}
                    _ => panic!("fit presence differs between runs"),
                }
            }
        }
    }

    #[test]
    fn update_rejects_inconsistent_shapes() {
        let (base_corpus, full, base_docs) = split_corpus(4);
        let cfg = miner_config();
        let base = LatentStructureMiner::mine(&base_corpus, &cfg).unwrap();
        let budget = UpdateBudget::default();
        // Claiming more base docs than the corpus holds.
        let r = LatentStructureMiner::update(&full, &base, full.num_docs() + 1, &cfg, &budget);
        assert!(matches!(r, Err(CoreError::Update(_))));
        // Claiming a base prefix that disagrees with the base structure.
        let r = LatentStructureMiner::update(&full, &base, base_docs - 1, &cfg, &budget);
        assert!(matches!(r, Err(CoreError::Update(_))));
    }
}
