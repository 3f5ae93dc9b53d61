//! Latent Dirichlet allocation with collapsed Gibbs sampling.
//!
//! This is the maximum-likelihood-family baseline that Chapter 7 contrasts
//! STROD against: nondeterministic across seeds, with per-iteration cost
//! `O(total tokens × k)` and no convergence guarantee — exactly the
//! properties §7.1 lists as undesirable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`Lda::fit`].
#[derive(Debug, Clone)]
pub struct LdaConfig {
    /// Number of topics.
    pub k: usize,
    /// Symmetric document-topic Dirichlet hyperparameter.
    pub alpha: f64,
    /// Symmetric topic-word Dirichlet hyperparameter.
    pub beta: f64,
    /// Gibbs sweeps.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self { k: 10, alpha: 0.5, beta: 0.01, iters: 200, seed: 42 }
    }
}

/// A fitted LDA model.
#[derive(Debug, Clone)]
pub struct LdaModel {
    /// Number of topics.
    pub k: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// `k x V` topic-word distributions (each row sums to 1).
    pub topic_word: Vec<Vec<f64>>,
    /// `D x k` document-topic distributions.
    pub doc_topic: Vec<Vec<f64>>,
    /// Final topic assignment of every token.
    pub assignments: Vec<Vec<u16>>,
}

impl LdaModel {
    /// Top `n` words of topic `t` by probability.
    pub fn top_words(&self, t: usize, n: usize) -> Vec<(u32, f64)> {
        let mut idx: Vec<(u32, f64)> =
            self.topic_word[t].iter().enumerate().map(|(w, &p)| (w as u32, p)).collect();
        idx.sort_by(|a, b| b.1.total_cmp(&a.1));
        idx.truncate(n);
        idx
    }

    /// The most probable topic of document `d`.
    pub fn argmax_topic(&self, d: usize) -> usize {
        self.doc_topic[d]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(t, _)| t)
            .unwrap_or(0)
    }
}

/// Collapsed-Gibbs LDA fitter.
#[derive(Debug, Default)]
pub struct Lda;

impl Lda {
    /// Fits LDA on token-id documents over a vocabulary of size `vocab_size`.
    ///
    /// Panics if `config.k == 0` (programming error).
    pub fn fit(docs: &[Vec<u32>], vocab_size: usize, config: &LdaConfig) -> LdaModel {
        assert!(config.k > 0, "k must be positive");
        let k = config.k;
        let v = vocab_size;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut n_wt = vec![vec![0i64; v]; k]; // topic -> word counts
        let mut n_t = vec![0i64; k];
        let mut n_dt: Vec<Vec<i64>> = docs.iter().map(|_| vec![0i64; k]).collect();
        let mut z: Vec<Vec<u16>> =
            docs.iter().map(|d| d.iter().map(|_| rng.gen_range(0..k) as u16).collect()).collect();
        for (d, doc) in docs.iter().enumerate() {
            for (i, &w) in doc.iter().enumerate() {
                let t = z[d][i] as usize;
                n_wt[t][w as usize] += 1;
                n_t[t] += 1;
                n_dt[d][t] += 1;
            }
        }
        let vbeta = v as f64 * config.beta;
        let mut probs = vec![0.0f64; k];
        for _ in 0..config.iters {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let w = w as usize;
                    let old = z[d][i] as usize;
                    n_wt[old][w] -= 1;
                    n_t[old] -= 1;
                    n_dt[d][old] -= 1;
                    let mut total = 0.0;
                    for t in 0..k {
                        let p = (n_dt[d][t] as f64 + config.alpha)
                            * (n_wt[t][w] as f64 + config.beta)
                            / (n_t[t] as f64 + vbeta);
                        probs[t] = p;
                        total += p;
                    }
                    let mut u = rng.gen::<f64>() * total;
                    let mut new = k - 1;
                    for (t, &p) in probs.iter().enumerate() {
                        u -= p;
                        if u <= 0.0 {
                            new = t;
                            break;
                        }
                    }
                    z[d][i] = new as u16;
                    n_wt[new][w] += 1;
                    n_t[new] += 1;
                    n_dt[d][new] += 1;
                }
            }
        }
        let topic_word: Vec<Vec<f64>> = (0..k)
            .map(|t| {
                let denom = n_t[t] as f64 + vbeta;
                (0..v).map(|w| (n_wt[t][w] as f64 + config.beta) / denom).collect()
            })
            .collect();
        let doc_topic: Vec<Vec<f64>> = docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                let denom = doc.len() as f64 + k as f64 * config.alpha;
                (0..k).map(|t| (n_dt[d][t] as f64 + config.alpha) / denom).collect()
            })
            .collect();
        LdaModel { k, vocab_size: v, topic_word, doc_topic, assignments: z }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clearly separated themes: words 0-4 vs words 5-9.
    fn themed_docs(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { 0u32 } else { 5u32 };
                (0..8).map(|j| base + (j % 5) as u32).collect()
            })
            .collect()
    }

    #[test]
    fn distributions_are_normalized() {
        let docs = themed_docs(40);
        let m = Lda::fit(&docs, 10, &LdaConfig { k: 2, iters: 50, ..LdaConfig::default() });
        for t in 0..2 {
            let s: f64 = m.topic_word[t].iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "phi row sums to {s}");
        }
        for d in 0..docs.len() {
            let s: f64 = m.doc_topic[d].iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn recovers_two_themes() {
        let docs = themed_docs(60);
        let m = Lda::fit(&docs, 10, &LdaConfig { k: 2, iters: 150, seed: 5, ..LdaConfig::default() });
        // Each theme's words should dominate exactly one topic.
        let top0: Vec<u32> = m.top_words(0, 5).into_iter().map(|(w, _)| w).collect();
        let low: usize = top0.iter().filter(|&&w| w < 5).count();
        assert!(low == 5 || low == 0, "topic 0 should be pure, got {low}/5 low words");
        // Documents should separate by parity.
        let t_even = m.argmax_topic(0);
        let t_odd = m.argmax_topic(1);
        assert_ne!(t_even, t_odd);
        for d in 0..20 {
            let expect = if d % 2 == 0 { t_even } else { t_odd };
            assert_eq!(m.argmax_topic(d), expect, "doc {d}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let docs = themed_docs(20);
        let cfg = LdaConfig { k: 3, iters: 30, seed: 9, ..LdaConfig::default() };
        let a = Lda::fit(&docs, 10, &cfg);
        let b = Lda::fit(&docs, 10, &cfg);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn different_seeds_differ() {
        // The nondeterminism-across-seeds property §7.1 complains about.
        let docs = themed_docs(20);
        let a = Lda::fit(&docs, 10, &LdaConfig { k: 3, iters: 30, seed: 1, ..LdaConfig::default() });
        let b = Lda::fit(&docs, 10, &LdaConfig { k: 3, iters: 30, seed: 2, ..LdaConfig::default() });
        assert_ne!(a.assignments, b.assignments);
    }

    #[test]
    fn handles_empty_docs() {
        let docs = vec![vec![], vec![0, 1]];
        let m = Lda::fit(&docs, 2, &LdaConfig { k: 2, iters: 5, ..LdaConfig::default() });
        assert_eq!(m.assignments[0].len(), 0);
        let s: f64 = m.doc_topic[0].iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
