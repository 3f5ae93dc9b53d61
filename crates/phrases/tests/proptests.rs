//! Property-based tests for phrase-mining invariants.

use lesm_phrases::kert::{Kert, KertConfig};
use lesm_phrases::topmine::{FrequentPhrases, Segmenter, SegmenterConfig};
use proptest::prelude::*;

fn random_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..15, 0..25), 1..25)
}

/// Docs over a six-word vocabulary, so phrases of three and four words
/// recur often enough to pass a support threshold.
fn dense_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..6, 0..25), 1..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn downward_closure_and_support(docs in random_docs(), min_sup in 1u64..5) {
        let fp = FrequentPhrases::mine(&docs, min_sup, 5);
        for (p, c) in fp.iter() {
            prop_assert!(c >= min_sup, "{p:?} below support");
            if p.len() >= 2 {
                prop_assert!(fp.count(&p[..p.len() - 1]) >= c, "prefix of {p:?}");
                prop_assert!(fp.count(&p[1..]) >= c, "suffix of {p:?}");
            }
        }
    }

    #[test]
    fn counts_match_brute_force(docs in random_docs()) {
        let fp = FrequentPhrases::mine(&docs, 2, 4);
        for (p, c) in fp.iter().take(20) {
            let brute: u64 = docs
                .iter()
                .map(|d| d.windows(p.len()).filter(|w| *w == p.as_slice()).count() as u64)
                .sum();
            prop_assert_eq!(c, brute, "count mismatch for {:?}", p);
        }
    }

    #[test]
    fn segmentation_is_a_partition(docs in random_docs(), alpha in 0.5f64..5.0) {
        let fp = FrequentPhrases::mine(&docs, 2, 4);
        let segs = Segmenter::segment(&docs, &fp, &SegmenterConfig { alpha });
        prop_assert_eq!(segs.len(), docs.len());
        for (doc, seg) in docs.iter().zip(&segs) {
            let flat: Vec<u32> = seg.iter().flatten().copied().collect();
            prop_assert_eq!(&flat, doc, "partition property violated");
            // Every multi-word segment must be a frequent phrase.
            for s in seg {
                if s.len() >= 2 {
                    prop_assert!(fp.count(s) >= 2, "segment {s:?} not frequent");
                }
            }
        }
    }

    #[test]
    fn higher_alpha_never_creates_longer_segments(docs in random_docs()) {
        let fp = FrequentPhrases::mine(&docs, 2, 4);
        let loose = Segmenter::segment(&docs, &fp, &SegmenterConfig { alpha: 1.0 });
        let strict = Segmenter::segment(&docs, &fp, &SegmenterConfig { alpha: 6.0 });
        let count_multi = |segs: &Vec<Vec<Vec<u32>>>| -> usize {
            segs.iter().flatten().filter(|s| s.len() >= 2).map(|s| s.len()).sum()
        };
        prop_assert!(count_multi(&strict) <= count_multi(&loose));
    }

    #[test]
    fn kert_scores_are_finite_and_sorted(docs in random_docs(), k in 1usize..4) {
        let topics: Vec<Vec<u16>> = docs
            .iter()
            .map(|d| d.iter().map(|&w| (w as usize % k) as u16).collect())
            .collect();
        let cfg = KertConfig { min_support: 2, max_len: 3, ..Default::default() };
        let ranked = Kert::run(&docs, &topics, k, &cfg).unwrap();
        prop_assert_eq!(ranked.len(), k);
        for topic in &ranked {
            for w in topic.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
            for p in topic {
                prop_assert!(p.score.is_finite());
                prop_assert!(p.topic_freq >= 2.0);
            }
        }
    }

    #[test]
    fn kert_topical_frequencies_sum_to_total(docs in random_docs()) {
        let k = 2;
        let topics: Vec<Vec<u16>> = docs
            .iter()
            .map(|d| d.iter().map(|&w| (w % 2) as u16).collect())
            .collect();
        let cfg = KertConfig { min_support: 2, max_len: 2, ..Default::default() };
        let patterns = Kert::mine(&docs, &topics, k, &cfg).unwrap();
        for (p, &total) in &patterns.total_freq {
            let sum: u64 = (0..k)
                .map(|t| patterns.topic_freq[t].get(p).copied().unwrap_or(0))
                .sum();
            prop_assert_eq!(total, sum, "f(P) != Σ f_t(P) for {:?}", p);
        }
    }

    /// The targets are `(doc, start, len)` cuts from the docs plus random
    /// token runs over ids 0..9, of which 6..9 never occur in the docs.
    #[test]
    fn mine_for_matches_mine_on_every_target_sub_phrase(
        docs in dense_docs(),
        cuts in proptest::collection::vec((0usize..100, 0usize..100, 0usize..14), 0..6),
        randoms in proptest::collection::vec(proptest::collection::vec(0u32..9, 0..12), 0..4),
        min_sup in 0u64..5,
        max_len in 0usize..6,
    ) {
        let mut targets: Vec<Vec<u32>> = cuts
            .iter()
            .map(|&(d, start, len)| {
                let doc = &docs[d % docs.len()];
                let start = start % (doc.len() + 1);
                doc[start..(start + len).min(doc.len())].to_vec()
            })
            .collect();
        targets.extend(randoms);
        let full = FrequentPhrases::mine(&docs, min_sup, max_len);
        let part =
            FrequentPhrases::mine_for(docs.iter().map(Vec::as_slice), &targets, min_sup, max_len);
        prop_assert_eq!(part.total_tokens(), full.total_tokens());
        // Every sub-phrase of every target, longer than `max_len` too.
        let mut held = std::collections::HashSet::new();
        for t in &targets {
            for i in 0..t.len() {
                for j in i + 1..=t.len() {
                    let p = &t[i..j];
                    prop_assert_eq!(part.count(p), full.count(p), "count of {:?}", p);
                    if full.count(p) > 0 {
                        held.insert(p.to_vec());
                    }
                }
            }
        }
        // No phrase beyond those: nothing absent from `mine`, no stored zero.
        prop_assert_eq!(part.len(), held.len());
        for t in &targets {
            for alpha in [-1.0, 0.5, 2.0, 4.0] {
                let cfg = SegmenterConfig { alpha };
                prop_assert_eq!(
                    Segmenter::segment_doc(t, &part, &cfg),
                    Segmenter::segment_doc(t, &full, &cfg),
                    "segments of {:?} at alpha {}",
                    t,
                    alpha
                );
            }
        }
    }
}
