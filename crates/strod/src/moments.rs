//! Dirichlet-corrected empirical moments, computed matrix-free.
//!
//! For LDA with Dirichlet parameter `α` (`α₀ = Σ α_z`), the corrected
//! moments (Anandkumar et al. \[5\], as used by §7.3.1) are:
//!
//! ```text
//! M2 = E[x1 ⊗ x2] − c2 · M1 ⊗ M1,                 c2 = α0/(α0+1)
//! M3 = E[x1⊗x2⊗x3] − c3 · sym(E[x1⊗x2] ⊗ M1) + c1 · M1⊗M1⊗M1
//!      c3 = α0/(α0+2),  c1 = 2α0²/((α0+1)(α0+2))
//! ```
//!
//! and satisfy `M2 = Σ_z w_z μ_z μ_z^T`, `M3 = Σ_z w'_z μ_z^⊗3`. We never
//! materialize the `V×V` matrix or the `V³` tensor: `M2` is exposed as a
//! [`lesm_linalg::SymOp`] and the *whitened* third moment `T = M3(W,W,W)`
//! is accumulated document by document (§7.3.2).

use crate::StrodError;
use lesm_linalg::{Mat, SparseRows, SymOp, Tensor3};

/// Per-document sufficient statistics for moment estimation: sparse word
/// counts plus document lengths.
#[derive(Debug, Clone)]
pub struct DocStats {
    /// Sparse per-document word counts.
    pub counts: SparseRows,
    /// Per-document weights (1.0 for plain corpora; topic posteriors when
    /// recursing down a topic tree).
    pub weights: Vec<f64>,
    /// Cached per-document token totals.
    lengths: Vec<f64>,
    /// Cached M1 under the current weights.
    m1: Vec<f64>,
    /// Sum of weights over usable documents (length >= 3).
    usable_weight: f64,
}

impl DocStats {
    /// Builds statistics from token-id documents with uniform weights.
    pub fn from_docs(docs: &[Vec<u32>], vocab_size: usize) -> Result<Self, StrodError> {
        let mut counts = SparseRows::new(vocab_size);
        for doc in docs {
            let mut m: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
            for &w in doc {
                *m.entry(w).or_insert(0.0) += 1.0;
            }
            let mut pairs: Vec<(u32, f64)> = m.into_iter().collect();
            pairs.sort_unstable_by_key(|&(w, _)| w);
            counts.push_row(&pairs);
        }
        Self::from_counts(counts, vec![1.0; docs.len()])
    }

    /// Builds statistics from pre-computed sparse counts and weights.
    pub fn from_counts(counts: SparseRows, weights: Vec<f64>) -> Result<Self, StrodError> {
        assert_eq!(counts.rows(), weights.len());
        let lengths: Vec<f64> = (0..counts.rows()).map(|d| counts.row_sum(d)).collect();
        let mut usable_weight = 0.0;
        for (d, &l) in lengths.iter().enumerate() {
            if l >= 3.0 && weights[d] > 0.0 {
                usable_weight += weights[d];
            }
        }
        if usable_weight <= 0.0 {
            return Err(StrodError::TooFewDocuments);
        }
        // M1 = weighted mean of per-doc word frequencies.
        let mut m1 = vec![0.0; counts.cols()];
        for d in 0..counts.rows() {
            let (l, w) = (lengths[d], weights[d]);
            if l < 3.0 || w <= 0.0 {
                continue;
            }
            counts.row_axpy(d, w / l, &mut m1);
        }
        for v in &mut m1 {
            *v /= usable_weight;
        }
        Ok(Self { counts, weights, lengths, m1, usable_weight })
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.counts.cols()
    }

    /// The first moment `M1`.
    pub fn m1(&self) -> &[f64] {
        &self.m1
    }

    /// Total weight of usable documents.
    pub fn usable_weight(&self) -> f64 {
        self.usable_weight
    }

    /// Whether document `d` participates in moment estimation.
    #[inline]
    fn usable(&self, d: usize) -> bool {
        self.lengths[d] >= 3.0 && self.weights[d] > 0.0
    }
}

/// The Dirichlet-corrected second moment as a matrix-free symmetric
/// operator: `y = M2 x` computed in `O(nnz)` per application.
#[derive(Debug)]
pub struct M2Op<'a> {
    stats: &'a DocStats,
    alpha0: f64,
}

impl<'a> M2Op<'a> {
    /// Wraps `stats` with concentration `alpha0`.
    pub fn new(stats: &'a DocStats, alpha0: f64) -> Self {
        Self { stats, alpha0 }
    }
}

impl SymOp for M2Op<'_> {
    fn dim(&self) -> usize {
        self.stats.vocab_size()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let s = self.stats;
        // E[x1 ⊗ x2] x  =  mean_d [ (c·x) c − diag(c) x ] / (l (l−1))
        for d in 0..s.counts.rows() {
            if !s.usable(d) {
                continue;
            }
            let l = s.lengths[d];
            let scale = s.weights[d] / (l * (l - 1.0)) / s.usable_weight;
            let cx = s.counts.row_dot(d, x);
            for (w, c) in s.counts.row(d) {
                let w = w as usize;
                y[w] += scale * (cx * c - c * x[w]);
            }
        }
        // − α0/(α0+1) (M1 · x) M1
        let shift = self.alpha0 / (self.alpha0 + 1.0) * lesm_linalg::dot(&s.m1, x);
        for (yi, &m) in y.iter_mut().zip(&s.m1) {
            *yi -= shift * m;
        }
    }
}

/// Whitened second/third moments ready for tensor decomposition.
#[derive(Debug, Clone)]
pub struct WhitenedMoments {
    /// `V x k` whitening matrix (`W^T M2 W = I`).
    pub w: Mat,
    /// `V x k` un-whitening matrix `B = M2 W` (`B = (W^T)^+`).
    pub b: Mat,
    /// Positive eigenvalues of `M2` used for whitening.
    pub eigenvalues: Vec<f64>,
    /// The whitened third moment `T = M3(W, W, W)`, a `k³` dense tensor.
    pub t3: Tensor3,
}

impl WhitenedMoments {
    /// Computes the whitening transform (top-k eigenpairs of the `M2`
    /// operator via subspace iteration) and accumulates the whitened third
    /// moment directly from the documents.
    pub fn compute(
        stats: &DocStats,
        k: usize,
        alpha0: f64,
        seed: u64,
        parallel_threads: usize,
    ) -> Result<Self, StrodError> {
        if k == 0 {
            return Err(StrodError::InvalidConfig("k must be >= 1".into()));
        }
        let op = M2Op::new(stats, alpha0);
        let eig = lesm_linalg::topk_eigen_threads(&op, k, 300, 1e-10, seed, parallel_threads);
        let positive = eig.values.iter().filter(|&&v| v > 1e-12).count();
        if positive < k {
            return Err(StrodError::RankDeficient { requested: k, found: positive });
        }
        let v = stats.vocab_size();
        // The whitening block is assembled transposed (one contiguous row
        // per whitened direction) so the operator applications below read
        // and write contiguous memory with no per-column gathers.
        let mut wt = Mat::zeros(k, v);
        for c in 0..k {
            let scale = 1.0 / eig.values[c].sqrt();
            for r in 0..v {
                wt[(c, r)] = eig.vectors[(r, c)] * scale;
            }
        }
        // B = M2 W column by column (matrix-free). Columns are independent
        // applications of the operator, so they parallelize exactly. The
        // per-application cost is O(nnz), unknown here, so the hint stays
        // HEAVY.
        let mut bt = Mat::zeros(k, v);
        lesm_par::par_for_blocks(
            bt.as_mut_slice(),
            v,
            parallel_threads,
            lesm_par::WorkHint::HEAVY,
            |c, y| op.apply(wt.row(c), y),
        );
        let w = wt.transpose();
        let b = bt.transpose();
        let t3 = whitened_third_moment(stats, &w, alpha0, parallel_threads);
        Ok(Self { w, b, eigenvalues: eig.values, t3 })
    }
}

/// Number of document chunks the moment accumulation is split into.
///
/// Fixed (never derived from the thread count) so that the chunk layout —
/// and therefore the floating-point summation grouping — is identical for
/// any degree of parallelism. 64 pieces keep up to 64 threads busy while
/// the `O(pieces · k³)` merge stays negligible.
const MOMENT_PIECES: usize = 64;

/// Accumulates `T = M3(W, W, W)` from sparse documents (§7.3.2). With
/// `threads > 1`, document chunks are spread across scoped worker threads
/// (the PSTROD variant); the chunk layout and the left-to-right fold of
/// partial tensors are fixed, so the result is bit-identical to
/// `threads = 1`.
pub fn whitened_third_moment(stats: &DocStats, w: &Mat, alpha0: f64, threads: usize) -> Tensor3 {
    let k = w.cols();
    let (k3, k2) = (k * k * k, k * k);
    let n_docs = stats.counts.rows();
    let grain = lesm_par::grain_for_pieces(n_docs, MOMENT_PIECES);
    // Each distinct (doc, word) pair costs two k³ rank-one updates plus a
    // k² pair update.
    let hint = lesm_par::WorkHint::units(
        (stats.counts.nnz() as u64).saturating_mul((2 * k3 + k2) as u64),
    );
    let flat =
        lesm_par::par_buffer_reduce(n_docs, grain, threads, hint, k3 + k2, |range, buf| {
            accumulate_range(stats, w, range, buf);
        });
    let total = Tensor3::from_vec(k, flat[..k3].to_vec());
    let pair = Mat::from_vec(k, k, flat[k3..].to_vec());
    let mut t3 = finish_t3(stats, w, alpha0, total, pair, threads);
    // Symmetrize against floating-point drift.
    symmetrize(&mut t3);
    t3
}

/// Per-document accumulation of the raw whitened triple moment and the
/// whitened pair moment `P = W^T E[x1⊗x2] W`, written directly into the
/// reduce buffer `buf = [t3 (k³) | pair (k²)]` — no per-chunk `Tensor3` or
/// `Mat` temporaries and no final copy.
fn accumulate_range(stats: &DocStats, w: &Mat, range: std::ops::Range<usize>, buf: &mut [f64]) {
    let k = w.cols();
    let (tbuf, pairbuf) = buf.split_at_mut(k * k * k);
    let mut wc = vec![0.0f64; k];
    for d in range {
        if !stats.usable(d) {
            continue;
        }
        let l = stats.lengths[d];
        let weight = stats.weights[d] / stats.usable_weight;
        let s3 = weight / (l * (l - 1.0) * (l - 2.0));
        let s2 = weight / (l * (l - 1.0));
        // wc = W^T c  (sparse).
        wc.iter_mut().for_each(|x| *x = 0.0);
        for (word, c) in stats.counts.row(d) {
            let row = w.row(word as usize);
            for (acc, &wv) in wc.iter_mut().zip(row) {
                *acc += c * wv;
            }
        }
        // Triples with distinct positions:
        // wc⊗³ − Σ_i c_i sym(w_i ⊗ w_i ⊗ wc) + 2 Σ_i c_i w_i⊗³.
        lesm_linalg::rank_one_into(tbuf, s3, &wc);
        for (word, c) in stats.counts.row(d) {
            let wi = w.row(word as usize);
            lesm_linalg::sym_rank_one_pair_into(tbuf, -s3 * c, wi, &wc);
            lesm_linalg::rank_one_into(tbuf, 2.0 * s3 * c, wi);
            // Pair moment: wc⊗wc − Σ_i c_i w_i⊗w_i, scaled by 1/(l(l−1)).
            let sc = s2 * c;
            for (a, &wia) in wi.iter().enumerate() {
                let fa = sc * wia;
                for (p, &wib) in pairbuf[a * k..(a + 1) * k].iter_mut().zip(wi) {
                    *p -= fa * wib;
                }
            }
        }
        for (a, &wca) in wc.iter().enumerate() {
            let fa = s2 * wca;
            for (p, &wcb) in pairbuf[a * k..(a + 1) * k].iter_mut().zip(&wc) {
                *p += fa * wcb;
            }
        }
    }
}

/// Applies the Dirichlet corrections in whitened space.
fn finish_t3(
    stats: &DocStats,
    w: &Mat,
    alpha0: f64,
    mut t: Tensor3,
    pair: Mat,
    threads: usize,
) -> Tensor3 {
    let k = w.cols();
    let m1w = w.tmatvec_threads(stats.m1(), threads); // W^T M1
    let c3 = alpha0 / (alpha0 + 2.0);
    let c1 = 2.0 * alpha0 * alpha0 / ((alpha0 + 1.0) * (alpha0 + 2.0));
    // − c3 · sym(P ⊗ m1w): for each (i,j,l): P_ij m_l + P_il m_j + P_jl m_i.
    // Row slices and the (i,j)-invariant products are hoisted out of the
    // inner loop; the sum itself keeps the original operand order, so the
    // result is bit-identical to the naive triple loop.
    for i in 0..k {
        let mi = m1w[i];
        for j in 0..k {
            let mj = m1w[j];
            let pij = pair[(i, j)];
            let pi = pair.row(i);
            let pj = pair.row(j);
            for l in 0..k {
                let corr = pij * m1w[l] + pi[l] * mj + pj[l] * mi;
                t.add(i, j, l, -c3 * corr);
            }
        }
    }
    t.add_rank_one(c1, &m1w);
    t
}

fn symmetrize(t: &mut Tensor3) {
    let k = t.dim();
    for i in 0..k {
        for j in i..k {
            for l in j..k {
                let avg = (t.get(i, j, l)
                    + t.get(i, l, j)
                    + t.get(j, i, l)
                    + t.get(j, l, i)
                    + t.get(l, i, j)
                    + t.get(l, j, i))
                    / 6.0;
                for (a, b, c) in
                    [(i, j, l), (i, l, j), (j, i, l), (j, l, i), (l, i, j), (l, j, i)]
                {
                    let cur = t.get(a, b, c);
                    t.add(a, b, c, avg - cur);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic LDA corpus with two near-disjoint topics.
    fn lda_docs(n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let phi: [Vec<f64>; 2] = [
            vec![0.3, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.01, 0.005, 0.005],
            vec![0.005, 0.005, 0.01, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.3],
        ];
        (0..n)
            .map(|_| {
                // Near-single-topic docs (small alpha regime).
                let t = rng.gen_range(0..2usize);
                (0..20)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        let mut acc = 0.0;
                        for (w, &p) in phi[t].iter().enumerate() {
                            acc += p;
                            if u <= acc {
                                return w as u32;
                            }
                        }
                        9
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn m1_is_a_distribution() {
        let docs = lda_docs(200, 1);
        let stats = DocStats::from_docs(&docs, 10).unwrap();
        let s: f64 = stats.m1().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn m2_operator_is_symmetric() {
        let docs = lda_docs(100, 2);
        let stats = DocStats::from_docs(&docs, 10).unwrap();
        let op = M2Op::new(&stats, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut ax = vec![0.0; 10];
        let mut ay = vec![0.0; 10];
        op.apply(&x, &mut ax);
        op.apply(&y, &mut ay);
        let xay = lesm_linalg::dot(&x, &ay);
        let yax = lesm_linalg::dot(&y, &ax);
        assert!((xay - yax).abs() < 1e-10, "asymmetry: {xay} vs {yax}");
    }

    #[test]
    fn whitening_orthogonalizes_m2() {
        let docs = lda_docs(800, 4);
        let stats = DocStats::from_docs(&docs, 10).unwrap();
        let wm = WhitenedMoments::compute(&stats, 2, 0.2, 5, 1).unwrap();
        // W^T M2 W should be close to identity: W^T B = W^T (M2 W).
        let k = 2;
        for i in 0..k {
            for j in 0..k {
                let mut s = 0.0;
                for r in 0..10 {
                    s += wm.w[(r, i)] * wm.b[(r, j)];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-6, "W^T M2 W [{i}{j}] = {s}");
            }
        }
    }

    #[test]
    fn whitened_tensor_is_symmetric() {
        let docs = lda_docs(400, 6);
        let stats = DocStats::from_docs(&docs, 10).unwrap();
        let wm = WhitenedMoments::compute(&stats, 2, 0.2, 7, 1).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                for l in 0..2 {
                    let x = wm.t3.get(i, j, l);
                    assert!((x - wm.t3.get(j, i, l)).abs() < 1e-9);
                    assert!((x - wm.t3.get(l, j, i)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn parallel_accumulation_is_bit_identical_to_sequential() {
        let docs = lda_docs(300, 8);
        let stats = DocStats::from_docs(&docs, 10).unwrap();
        let seq = WhitenedMoments::compute(&stats, 2, 0.3, 9, 1).unwrap();
        for threads in 2..=8 {
            let par = WhitenedMoments::compute(&stats, 2, 0.3, 9, threads).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    for l in 0..2 {
                        assert_eq!(
                            seq.t3.get(i, j, l).to_bits(),
                            par.t3.get(i, j, l).to_bits(),
                            "parallel mismatch at ({i},{j},{l}) with {threads} threads"
                        );
                    }
                }
            }
            assert_eq!(seq.b.as_slice(), par.b.as_slice(), "B mismatch at {threads} threads");
        }
    }

    #[test]
    fn short_docs_rejected() {
        let docs = vec![vec![0, 1], vec![1]];
        assert!(matches!(DocStats::from_docs(&docs, 3), Err(StrodError::TooFewDocuments)));
    }
}
