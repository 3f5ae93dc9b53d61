//! ToPMine — topical phrase mining for general text (§4.3).
//!
//! Three stages:
//!
//! 1. [`FrequentPhrases::mine`] — contiguous frequent phrase mining with
//!    position-based Apriori pruning and data antimonotonicity
//!    (Algorithm 1);
//! 2. [`Segmenter::segment`] — bottom-up agglomerative merging guided by
//!    the significance score of eq. 4.7 (Algorithm 2), inducing a
//!    "bag of phrases" partition of every document;
//! 3. [`ToPMine::run`] — PhraseLDA over the segments followed by topical
//!    phrase ranking (eqs. 4.8–4.9).

use crate::kert::TopicalPhrase;
use crate::PhraseError;
use lesm_par::WorkHint;
use lesm_topicmodel::{PhraseLda, PhraseLdaConfig, PhraseLdaModel};
use std::collections::HashMap;
use std::ops::Range;

/// Chunk count for parallel phrase counting — fixed so the chunking (and
/// thus the per-chunk tables merged below) never depends on thread count.
const MINE_PIECES: usize = 32;

/// Counts phrases over disjoint chunks of `[0, n_items)` in parallel and
/// merges the per-chunk tables in chunk order. Counts are exact integer
/// sums, so the merged table is identical for any thread count.
fn count_chunks<F>(n_items: usize, threads: usize, count: F) -> HashMap<Vec<u32>, u64>
where
    F: Fn(Range<usize>, &mut HashMap<Vec<u32>, u64>) + Sync,
{
    let ranges = lesm_par::chunk_ranges(n_items, lesm_par::grain_for_pieces(n_items, MINE_PIECES));
    let ranges_ref = &ranges;
    let count_ref = &count;
    let maps = lesm_par::par_map_collect(ranges.len(), threads, WorkHint::HEAVY, |c| {
        let mut m = HashMap::new();
        count_ref(ranges_ref[c].clone(), &mut m);
        m
    });
    let mut out: HashMap<Vec<u32>, u64> = HashMap::new();
    for m in maps {
        // lesm-lint: allow(D2) — `u64 +=` merge into a keyed map is order-independent
        for (k, v) in m {
            *out.entry(k).or_insert(0) += v;
        }
    }
    out
}

/// Frequent contiguous phrases with their corpus counts.
///
/// ```
/// use lesm_phrases::topmine::FrequentPhrases;
///
/// // "0 1" is a frequent bigram; "1 2" crosses it only once.
/// let docs = vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 1, 4]];
/// let fp = FrequentPhrases::mine(&docs, 2, 4);
/// assert_eq!(fp.count(&[0, 1]), 3);
/// assert_eq!(fp.count(&[1, 2]), 0);
/// assert!(fp.significance(&[0], &[1]).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrequentPhrases {
    counts: HashMap<Vec<u32>, u64>,
    total_tokens: u64,
}

impl FrequentPhrases {
    /// Mines all contiguous phrases with count `>= min_support` and length
    /// `<= max_len` (Algorithm 1).
    pub fn mine(docs: &[Vec<u32>], min_support: u64, max_len: usize) -> Self {
        Self::mine_threads(docs, min_support, max_len, 1)
    }

    /// [`mine`](Self::mine) with the per-document counting passes fanned
    /// out over `threads` workers (`0` = all available cores). Phrase
    /// counts are exact integer sums over disjoint document chunks, so the
    /// result is identical for any thread count.
    pub fn mine_threads(
        docs: &[Vec<u32>],
        min_support: u64,
        max_len: usize,
        threads: usize,
    ) -> Self {
        let total_tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
        // Length-1 pass.
        let mut counts = count_chunks(docs.len(), threads, |range, m| {
            for doc in &docs[range] {
                for &w in doc {
                    *m.entry(vec![w]).or_insert(0) += 1;
                }
            }
        });
        counts.retain(|_, &mut c| c >= min_support);
        // `alive[d]` holds start positions whose length-(n-1) phrase is
        // frequent (position-based Apriori); documents with no alive
        // positions are dropped (data antimonotonicity).
        let counts_ref = &counts;
        let mut alive: Vec<Vec<usize>> =
            lesm_par::par_map_collect(docs.len(), threads, WorkHint::HEAVY, |d| {
                let doc = &docs[d];
                (0..doc.len())
                    .filter(|&i| counts_ref.contains_key(std::slice::from_ref(&doc[i])))
                    .collect()
            });
        let mut active_docs: Vec<usize> =
            (0..docs.len()).filter(|&d| !alive[d].is_empty()).collect();
        let mut n = 2usize;
        while !active_docs.is_empty() && n <= max_len {
            let alive_ref = &alive;
            let active_ref = &active_docs;
            let mut next_counts = count_chunks(active_docs.len(), threads, |range, m| {
                for &d in &active_ref[range] {
                    let doc = &docs[d];
                    // A length-n candidate at i needs frequent length-(n-1)
                    // phrases at both i and i+1 (downward closure).
                    let set: std::collections::HashSet<usize> =
                        alive_ref[d].iter().copied().collect();
                    for &i in &alive_ref[d] {
                        if i + n <= doc.len() && set.contains(&(i + 1)) {
                            *m.entry(doc[i..i + n].to_vec()).or_insert(0) += 1;
                        }
                    }
                }
            });
            next_counts.retain(|_, &mut c| c >= min_support);
            if next_counts.is_empty() {
                break;
            }
            // Refresh alive positions for length n.
            let next_ref = &next_counts;
            let alive_ref = &alive;
            let refreshed: Vec<Vec<usize>> =
                lesm_par::par_map_collect(active_docs.len(), threads, WorkHint::HEAVY, |j| {
                    let d = active_ref[j];
                    let doc = &docs[d];
                    alive_ref[d]
                        .iter()
                        .copied()
                        .filter(|&i| i + n <= doc.len() && next_ref.contains_key(&doc[i..i + n]))
                        .collect()
                });
            for (j, fresh) in refreshed.into_iter().enumerate() {
                alive[active_docs[j]] = fresh;
            }
            active_docs.retain(|&d| !alive[d].is_empty());
            counts.extend(next_counts);
            n += 1;
        }
        Self { counts, total_tokens }
    }

    /// The part of [`mine`](Self::mine)`(docs, min_support, max_len)` that
    /// segmenting `targets` can read: every contiguous sub-phrase of a
    /// target with its true count over `docs`, kept when it is frequent.
    ///
    /// [`Segmenter::segment_doc`] only looks up runs of adjacent segments
    /// of the document it segments, and `mine` is exact (it holds every
    /// phrase of length `<= max(max_len, 1)` with count
    /// `>= max(min_support, 1)`), so `targets` segment against this table
    /// exactly as against the full inventory. The cost is one scan of
    /// `docs` plus a table the size of the targets, not the inventory of
    /// `docs`.
    ///
    /// ```
    /// use lesm_phrases::topmine::FrequentPhrases;
    ///
    /// let docs = vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 1, 4]];
    /// let fp = FrequentPhrases::mine_for(docs.iter().map(Vec::as_slice), &[vec![1, 9]], 2, 4);
    /// assert_eq!(fp.count(&[1]), 3);
    /// assert_eq!(fp.count(&[9]), 0, "absent from docs");
    /// assert_eq!(fp.count(&[0, 1]), 0, "frequent, but not a sub-phrase of a target");
    /// assert_eq!(fp.total_tokens(), 9);
    /// ```
    pub fn mine_for<'a>(
        docs: impl IntoIterator<Item = &'a [u32]>,
        targets: &[Vec<u32>],
        min_support: u64,
        max_len: usize,
    ) -> Self {
        // `mine` always counts unigrams, whatever `max_len` says.
        let max_len = max_len.max(1);
        let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
        for t in targets {
            for i in 0..t.len() {
                for end in i + 1..=t.len().min(i + max_len) {
                    counts.entry(t[i..end].to_vec()).or_insert(0);
                }
            }
        }
        // The table is prefix-closed, so a run that leaves it at length n
        // has no longer extension in it either.
        let mut total_tokens = 0u64;
        for doc in docs {
            total_tokens += doc.len() as u64;
            for i in 0..doc.len() {
                for end in i + 1..=doc.len().min(i + max_len) {
                    match counts.get_mut(&doc[i..end]) {
                        Some(c) => *c += 1,
                        None => break,
                    }
                }
            }
        }
        // `mine` never stores a phrase that does not occur, even at
        // `min_support` 0.
        let min_support = min_support.max(1);
        counts.retain(|_, &mut c| c >= min_support);
        Self { counts, total_tokens }
    }

    /// Count of a phrase (0 when not frequent).
    pub fn count(&self, phrase: &[u32]) -> u64 {
        self.counts.get(phrase).copied().unwrap_or(0)
    }

    /// Total token count `L` of the mined corpus.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Number of stored frequent phrases (all lengths).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no phrase met the support threshold.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(phrase, count)` pairs in unspecified order; callers that
    /// emit or accumulate floats must sort first.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u32>, u64)> {
        // lesm-lint: allow(D2) — deliberately exposes the map; order documented as unspecified
        self.counts.iter().map(|(p, &c)| (p, c))
    }

    /// Significance of merging adjacent phrases `p1 ⊕ p2` (eq. 4.7):
    /// `(f(p1⊕p2) - L p(p1) p(p2)) / sqrt(f(p1⊕p2))`.
    ///
    /// Returns `None` if the concatenation is not itself frequent (it then
    /// can never be merged).
    pub fn significance(&self, p1: &[u32], p2: &[u32]) -> Option<f64> {
        let mut cat = Vec::with_capacity(p1.len() + p2.len());
        cat.extend_from_slice(p1);
        cat.extend_from_slice(p2);
        let f_cat = self.count(&cat);
        if f_cat == 0 {
            return None;
        }
        let l = self.total_tokens.max(1) as f64;
        let mu = l * (self.count(p1) as f64 / l) * (self.count(p2) as f64 / l);
        Some((f_cat as f64 - mu) / (f_cat as f64).sqrt())
    }
}

/// Configuration for the bottom-up segmenter.
#[derive(Debug, Clone)]
pub struct SegmenterConfig {
    /// Merge threshold α on the significance score.
    pub alpha: f64,
}

impl Default for SegmenterConfig {
    fn default() -> Self {
        Self { alpha: 2.0 }
    }
}

/// Bottom-up agglomerative phrase construction (Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct Segmenter;

impl Segmenter {
    /// Induces a bag-of-phrases partition on one document.
    pub fn segment_doc(
        doc: &[u32],
        phrases: &FrequentPhrases,
        config: &SegmenterConfig,
    ) -> Vec<Vec<u32>> {
        let mut segs: Vec<Vec<u32>> = doc.iter().map(|&w| vec![w]).collect();
        loop {
            // Titles and sentences are short: a linear scan for the best
            // adjacent merge beats heap maintenance at these lengths.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..segs.len().saturating_sub(1) {
                if let Some(sig) = phrases.significance(&segs[i], &segs[i + 1]) {
                    if sig >= config.alpha && best.is_none_or(|(_, b)| sig > b) {
                        best = Some((i, sig));
                    }
                }
            }
            match best {
                Some((i, _)) => {
                    let right = segs.remove(i + 1);
                    segs[i].extend(right);
                }
                None => break,
            }
        }
        segs
    }

    /// Segments every document.
    pub fn segment(
        docs: &[Vec<u32>],
        phrases: &FrequentPhrases,
        config: &SegmenterConfig,
    ) -> Vec<Vec<Vec<u32>>> {
        Self::segment_threads(docs, phrases, config, 1)
    }

    /// [`segment`](Self::segment) fanned out over `threads` workers (`0` =
    /// all available cores). Each document is segmented independently, so
    /// the partition is identical for any thread count.
    pub fn segment_threads(
        docs: &[Vec<u32>],
        phrases: &FrequentPhrases,
        config: &SegmenterConfig,
        threads: usize,
    ) -> Vec<Vec<Vec<u32>>> {
        lesm_par::par_map_collect(docs.len(), threads, WorkHint::HEAVY, |d| {
            Self::segment_doc(&docs[d], phrases, config)
        })
    }
}

/// Configuration for the full ToPMine pipeline.
#[derive(Debug, Clone)]
pub struct ToPMineConfig {
    /// Minimum phrase support μ.
    pub min_support: u64,
    /// Maximum phrase length mined.
    pub max_len: usize,
    /// Segmentation significance threshold α.
    pub seg_alpha: f64,
    /// PhraseLDA settings (`k` topics live here).
    pub lda: PhraseLdaConfig,
    /// Mix weight ω between pointwise-KL rank and significance bonus in the
    /// final ranking `(1-ω) r_t(P) + ω p(P|t) log sig(P)` (§4.3.3).
    pub omega: f64,
    /// Number of ranked phrases kept per topic.
    pub top_n: usize,
    /// Worker threads for phrase counting and segmentation (`0` = all
    /// available cores). Any value produces identical results.
    pub threads: usize,
}

impl Default for ToPMineConfig {
    fn default() -> Self {
        Self {
            min_support: 5,
            max_len: 5,
            seg_alpha: 2.0,
            lda: PhraseLdaConfig::default(),
            omega: 0.3,
            top_n: 30,
            threads: 1,
        }
    }
}

/// Result of the ToPMine pipeline.
#[derive(Debug, Clone)]
pub struct ToPMineResult {
    /// The bag-of-phrases partition of every document.
    pub segments: Vec<Vec<Vec<u32>>>,
    /// The fitted phrase-constrained LDA model.
    pub model: PhraseLdaModel,
    /// Ranked topical phrases per topic.
    pub topical_phrases: Vec<Vec<TopicalPhrase>>,
    /// The mined frequent-phrase table.
    pub phrases: FrequentPhrases,
}

/// The ToPMine pipeline runner.
#[derive(Debug, Default)]
pub struct ToPMine;

impl ToPMine {
    /// Runs phrase mining → segmentation → PhraseLDA → ranking.
    pub fn run(
        docs: &[Vec<u32>],
        vocab_size: usize,
        config: &ToPMineConfig,
    ) -> Result<ToPMineResult, PhraseError> {
        if config.min_support == 0 {
            return Err(PhraseError::InvalidConfig("min_support must be >= 1".into()));
        }
        if config.max_len < 2 {
            return Err(PhraseError::InvalidConfig("max_len must be >= 2".into()));
        }
        if !(0.0..=1.0).contains(&config.omega) {
            return Err(PhraseError::InvalidConfig("omega must be in [0,1]".into()));
        }
        let phrases =
            FrequentPhrases::mine_threads(docs, config.min_support, config.max_len, config.threads);
        let seg_cfg = SegmenterConfig { alpha: config.seg_alpha };
        let segments = Segmenter::segment_threads(docs, &phrases, &seg_cfg, config.threads);
        let model = PhraseLda::fit(&segments, vocab_size, &config.lda);
        let topical_phrases = rank_topical_phrases(&segments, &model, &phrases, config);
        Ok(ToPMineResult { segments, model, topical_phrases, phrases })
    }
}

/// Topical phrase ranking (eqs. 4.8–4.9 for a flat hierarchy: the parent of
/// each topic is the whole collection).
fn rank_topical_phrases(
    segments: &[Vec<Vec<u32>>],
    model: &PhraseLdaModel,
    phrases: &FrequentPhrases,
    config: &ToPMineConfig,
) -> Vec<Vec<TopicalPhrase>> {
    let k = model.k;
    // Segment occurrence counts (phrases of any length, as segmented).
    let mut seg_count: HashMap<&[u32], f64> = HashMap::new();
    for doc in segments {
        for seg in doc {
            if !seg.is_empty() {
                *seg_count.entry(seg.as_slice()).or_insert(0.0) += 1.0;
            }
        }
    }
    // Fix the segment order before ranking: HashMap iteration order varies
    // per process, and both the float total and the emitted lists must not
    // inherit that arbitrariness.
    let mut seg_list: Vec<(&[u32], f64)> = seg_count.iter().map(|(&s, &c)| (s, c)).collect();
    seg_list.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let total: f64 = seg_list.iter().map(|&(_, c)| c).sum();
    // Topical frequency via eq. 4.8's posterior p(t | P) ∝ ρ_t Π_v φ_{t,v}.
    let mut per_topic: Vec<Vec<TopicalPhrase>> = vec![Vec::new(); k];
    for &(seg, count) in &seg_list {
        let mut post = vec![0.0f64; k];
        let mut norm = 0.0;
        for (t, p_slot) in post.iter_mut().enumerate() {
            let mut lp = model.topic_weight[t].max(1e-12).ln();
            for &w in seg.iter() {
                lp += model.topic_word[t][w as usize].max(1e-300).ln();
            }
            *p_slot = lp;
        }
        let max_lp = post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in post.iter_mut() {
            *p = (*p - max_lp).exp();
            norm += *p;
        }
        let sig_bonus = if seg.len() >= 2 {
            let head = &seg[..1];
            let tail = &seg[1..];
            phrases.significance(head, tail).unwrap_or(1.0).max(1.0).ln()
        } else {
            0.0
        };
        for t in 0..k {
            let ft = count * post[t] / norm;
            let p_t = ft / total.max(1.0) / model.topic_weight[t].max(1e-12);
            let p_parent = count / total.max(1.0);
            if ft < 1.0 {
                continue;
            }
            // r_t(P) = p(P|t) log (p(P|t)/p(P|parent))  (eq. 4.9)
            let r = p_t * (p_t / p_parent.max(1e-300)).ln();
            let score = (1.0 - config.omega) * r + config.omega * p_t * sig_bonus;
            per_topic[t].push(TopicalPhrase {
                tokens: seg.to_vec(),
                score,
                topic_freq: ft,
            });
        }
    }
    for list in &mut per_topic {
        list.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.tokens.cmp(&b.tokens)));
        list.truncate(config.top_n);
    }
    per_topic
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "mining frequent patterns" style docs: (0,1) and (1,2) frequent,
    /// (0,1,2) frequent trigram in theme A; (7,8) bigram in theme B.
    fn docs() -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                out.push(vec![0, 1, 2, 3, 0, 1, 2]);
            } else {
                out.push(vec![7, 8, 9, 7, 8, 5]);
            }
        }
        out
    }

    #[test]
    fn mining_finds_contiguous_phrases() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        assert!(fp.count(&[0, 1]) >= 15);
        assert!(fp.count(&[0, 1, 2]) >= 15);
        assert!(fp.count(&[7, 8]) >= 15);
        assert_eq!(fp.count(&[3, 7]), 0, "cross-theme n-gram never frequent");
        assert_eq!(fp.count(&[3, 0]), 15, "mid-title bigram occurs once per theme-A doc");
    }

    #[test]
    fn downward_closure_holds() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        for (p, c) in fp.iter() {
            if p.len() >= 2 {
                assert!(fp.count(&p[..p.len() - 1]) >= c, "prefix less frequent than {p:?}");
                assert!(fp.count(&p[1..]) >= c, "suffix less frequent than {p:?}");
            }
        }
    }

    #[test]
    fn min_support_respected() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        for (_, c) in fp.iter() {
            assert!(c >= 5);
        }
        let fp_hi = FrequentPhrases::mine(&docs(), 10_000, 5);
        assert!(fp_hi.is_empty());
    }

    #[test]
    fn significance_positive_for_collocations() {
        let fp = FrequentPhrases::mine(&docs(), 5, 5);
        let sig = fp.significance(&[0], &[1]).unwrap();
        assert!(sig > 2.0, "collocation should be significant, got {sig}");
        assert!(fp.significance(&[3], &[7]).is_none(), "non-frequent merge impossible");
    }

    #[test]
    fn segmentation_reconstructs_and_groups() {
        let d = docs();
        let fp = FrequentPhrases::mine(&d, 5, 5);
        let segs = Segmenter::segment(&d, &fp, &SegmenterConfig { alpha: 2.0 });
        for (doc, seg) in d.iter().zip(&segs) {
            let flat: Vec<u32> = seg.iter().flatten().copied().collect();
            assert_eq!(&flat, doc, "partition property violated");
        }
        // The trigram (0,1,2) should be a single segment somewhere.
        let found = segs.iter().flatten().any(|s| s.as_slice() == [0, 1, 2]);
        assert!(found, "expected [0,1,2] segment, got {:?}", &segs[0]);
    }

    #[test]
    fn full_pipeline_ranks_topical_phrases() {
        let d = docs();
        let cfg = ToPMineConfig {
            min_support: 5,
            max_len: 4,
            seg_alpha: 2.0,
            lda: PhraseLdaConfig { k: 2, iters: 60, ..Default::default() },
            omega: 0.3,
            top_n: 10,
            threads: 2,
        };
        let r = ToPMine::run(&d, 10, &cfg).unwrap();
        assert_eq!(r.topical_phrases.len(), 2);
        // One topic should rank a theme-A phrase on top, the other theme-B.
        let top_of = |t: usize| r.topical_phrases[t].first().map(|p| p.tokens.clone());
        let t0 = top_of(0).expect("topic 0 has phrases");
        let t1 = top_of(1).expect("topic 1 has phrases");
        let a_words = [0u32, 1, 2, 3];
        let t0_is_a = a_words.contains(&t0[0]);
        let t1_is_a = a_words.contains(&t1[0]);
        assert_ne!(t0_is_a, t1_is_a, "topics should specialize: {t0:?} vs {t1:?}");
        // Multi-word phrases must survive ranking (comparability property).
        let has_multi = r.topical_phrases.iter().flatten().any(|p| p.tokens.len() >= 2);
        assert!(has_multi);
    }

    #[test]
    fn parallel_mining_and_segmentation_identical_to_serial() {
        let d = docs();
        let serial = FrequentPhrases::mine(&d, 5, 5);
        let seg_cfg = SegmenterConfig::default();
        let serial_segs = Segmenter::segment(&d, &serial, &seg_cfg);
        for threads in 2..=8 {
            let par = FrequentPhrases::mine_threads(&d, 5, 5, threads);
            assert_eq!(serial.counts, par.counts, "threads={threads}");
            assert_eq!(serial.total_tokens, par.total_tokens);
            let par_segs = Segmenter::segment_threads(&d, &par, &seg_cfg, threads);
            assert_eq!(serial_segs, par_segs, "threads={threads}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let d = docs();
        let bad1 = ToPMineConfig { min_support: 0, ..Default::default() };
        assert!(ToPMine::run(&d, 10, &bad1).is_err());
        let bad2 = ToPMineConfig { max_len: 1, ..Default::default() };
        assert!(ToPMine::run(&d, 10, &bad2).is_err());
        let bad3 = ToPMineConfig { omega: 1.5, ..Default::default() };
        assert!(ToPMine::run(&d, 10, &bad3).is_err());
    }
}
