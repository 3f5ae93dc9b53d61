//! Symmetric eigensolvers.
//!
//! Two solvers cover every use in the workspace:
//!
//! * [`jacobi_eigen`] — classic cyclic Jacobi rotation for *small* dense
//!   symmetric matrices (topic-count sized, `k <= ~100`).
//! * [`topk_eigen`] — matrix-free subspace (orthogonal) iteration that
//!   extracts the top-k eigenpairs of a large symmetric positive
//!   semi-definite operator given only a `y = A x` callback. STROD uses this
//!   to whiten the vocabulary-sized second moment without materializing it.

use crate::mat::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A symmetric linear operator `A: R^n -> R^n` presented matrix-free.
///
/// `Sync` is a supertrait so that operators can be shared across the scoped
/// worker threads of [`topk_eigen_threads`].
pub trait SymOp: Sync {
    /// Dimension `n` of the operator.
    fn dim(&self) -> usize;
    /// Computes `y = A x`. `y` has length `dim()` and arrives zeroed.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// A dense symmetric matrix viewed as a [`SymOp`].
impl SymOp for Mat {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols());
        self.rows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let out = self.matvec(x);
        y.copy_from_slice(&out);
    }
}

/// Result of an eigendecomposition: `values[i]` pairs with column `i` of
/// `vectors` (an `n x k` matrix whose columns are orthonormal eigenvectors).
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues, sorted in descending order.
    pub values: Vec<f64>,
    /// `n x k` matrix of eigenvectors (column `i` pairs with `values[i]`).
    pub vectors: Mat,
}

/// Full eigendecomposition of a small dense symmetric matrix by cyclic
/// Jacobi rotations.
///
/// Eigenpairs are returned sorted by descending eigenvalue. Intended for
/// matrices up to a few hundred rows; cost is `O(n^3)` per sweep.
///
/// Panics if `a` is not square.
pub fn jacobi_eigen(a: &Mat, max_sweeps: usize, tol: f64) -> Eigen {
    assert_eq!(a.rows(), a.cols(), "jacobi_eigen needs a square matrix");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Mat::identity(n);
    for _ in 0..max_sweeps {
        if m.max_offdiag() < tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < tol * 1e-3 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = 0.5 * (aqq - app) / apq;
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p, q, theta) on both sides: m = G^T m G.
                for i in 0..n {
                    let mip = m[(i, p)];
                    let miq = m[(i, q)];
                    m[(i, p)] = c * mip - s * miq;
                    m[(i, q)] = s * mip + c * miq;
                }
                for j in 0..n {
                    let mpj = m[(p, j)];
                    let mqj = m[(q, j)];
                    m[(p, j)] = c * mpj - s * mqj;
                    m[(q, j)] = s * mpj + c * mqj;
                }
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = c * vip - s * viq;
                    v[(i, q)] = s * vip + c * viq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].total_cmp(&m[(i, i)]));
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Mat::zeros(n, n);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_c)] = v[(r, old_c)];
        }
    }
    Eigen { values, vectors }
}

/// Top-`k` eigenpairs of a symmetric PSD operator by subspace iteration.
///
/// Starts from a random `n x k` block (seeded deterministically), repeatedly
/// applies the operator and re-orthonormalizes, then solves the small
/// projected eigenproblem with Jacobi (a Rayleigh–Ritz step). Convergence is
/// declared when the Ritz values stabilize to `tol` relative change.
pub fn topk_eigen(op: &dyn SymOp, k: usize, max_iters: usize, tol: f64, seed: u64) -> Eigen {
    topk_eigen_threads(op, k, max_iters, tol, seed, 1)
}

/// [`topk_eigen`] with the per-column operator applications and the dense
/// products fanned out over `threads` workers (`0` = all available cores).
///
/// Columns are applied independently and the matrix products are blocked
/// by output row, so the decomposition is bit-identical for any thread
/// count.
///
/// Internally the basis is held *transposed* (`k x n`, one contiguous row
/// per basis vector), which makes every step allocation-free inside the
/// iteration loop: operator applications write straight into a reused
/// `k x n` block, the Rayleigh–Ritz projection is a fused
/// [`Mat::matmul_nt`], the Ritz rotation a fused [`Mat::matmul_tn`], and
/// re-orthonormalization runs on contiguous rows
/// ([`Mat::orthonormalize_rows`]).
pub fn topk_eigen_threads(
    op: &dyn SymOp,
    k: usize,
    max_iters: usize,
    tol: f64,
    seed: u64,
    threads: usize,
) -> Eigen {
    let n = op.dim();
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    // qt row c is basis vector c. The RNG is drawn in the same (r, c)
    // order as the untransposed layout used, so the starting subspace is
    // unchanged for a given seed.
    let mut qt = Mat::zeros(k, n);
    for r in 0..n {
        for c in 0..k {
            qt[(c, r)] = rng.gen_range(-1.0..1.0);
        }
    }
    qt.orthonormalize_rows();
    // aqt row c is A * (basis vector c), written in place each iteration.
    // Each row is an independent operator application, so the fan-out is
    // exact. The per-application cost is operator-defined and can be
    // large (sparse corpus sweeps), so the work hint stays HEAVY.
    let mut aqt = Mat::zeros(k, n);
    let mut prev_ritz = vec![f64::INFINITY; k];
    for _ in 0..max_iters {
        lesm_par::par_for_blocks(
            aqt.as_mut_slice(),
            n,
            threads,
            lesm_par::WorkHint::HEAVY,
            |c, y| {
                y.fill(0.0);
                op.apply(qt.row(c), y);
            },
        );
        // Rayleigh–Ritz: B = Q^T A Q (k x k), eigendecompose, rotate Q.
        // With both blocks transposed this is (AQ)^T-rows against Q-rows;
        // the symmetrization makes the A·Bᵀ orientation interchangeable
        // with the seed's Qᵀ·AQ.
        let mut b = aqt.matmul_nt_threads(&qt, threads);
        // Symmetrize against round-off.
        for i in 0..k {
            for j in (i + 1)..k {
                let avg = 0.5 * (b[(i, j)] + b[(j, i)]);
                b[(i, j)] = avg;
                b[(j, i)] = avg;
            }
        }
        let small = jacobi_eigen(&b, 50, 1e-14);
        // q <- (A q) rotated into the Ritz basis, then re-orthonormalized.
        // Transposed: qt <- V^T * aqt, a fused product with no transpose
        // materialization.
        qt = small.vectors.matmul_tn_threads(&aqt, threads);
        qt.orthonormalize_rows();
        let converged = small
            .values
            .iter()
            .zip(&prev_ritz)
            .all(|(&cur, &prev)| (cur - prev).abs() <= tol * (1.0 + cur.abs()));
        prev_ritz = small.values.clone();
        if converged {
            break;
        }
    }
    // Final Rayleigh quotient per basis vector, with one reused operator
    // output buffer per worker.
    let values: Vec<f64> = lesm_par::par_map_collect_scratch(
        k,
        threads,
        lesm_par::WorkHint::HEAVY,
        || vec![0.0; n],
        |c, y| {
            y.fill(0.0);
            op.apply(qt.row(c), y);
            crate::dot(qt.row(c), y)
        },
    );
    // Sort descending by eigenvalue.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| values[j].total_cmp(&values[i]));
    let sorted_vals: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let mut sorted_vecs = Mat::zeros(n, k);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            sorted_vecs[(r, new_c)] = qt[(old_c, r)];
        }
    }
    Eigen { values: sorted_vals, vectors: sorted_vecs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(entries: &[f64], n: usize) -> Mat {
        Mat::from_vec(n, n, entries.to_vec())
    }

    #[test]
    fn jacobi_diagonal() {
        let a = sym(&[3.0, 0.0, 0.0, 1.0], 2);
        let e = jacobi_eigen(&a, 30, 1e-12);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = sym(&[2.0, 1.0, 1.0, 2.0], 2);
        let e = jacobi_eigen(&a, 30, 1e-12);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v0: Vec<f64> = e.vectors.col_iter(0).collect();
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
    }

    #[test]
    fn jacobi_reconstructs() {
        let a = sym(&[4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 1.0], 3);
        let e = jacobi_eigen(&a, 50, 1e-13);
        // A ?= V diag(w) V^T
        let mut recon = Mat::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for m in 0..3 {
                    s += e.vectors[(i, m)] * e.values[m] * e.vectors[(j, m)];
                }
                recon[(i, j)] = s;
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-8, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn subspace_matches_jacobi_on_dense() {
        // PSD matrix: B^T B.
        let b = Mat::from_vec(4, 4, vec![
            1.0, 2.0, 0.0, 1.0,
            0.0, 1.0, 3.0, 0.0,
            2.0, 0.0, 1.0, 1.0,
            1.0, 1.0, 0.0, 2.0,
        ]);
        let a = b.transpose().matmul(&b);
        let full = jacobi_eigen(&a, 60, 1e-13);
        let top = topk_eigen(&a, 2, 500, 1e-12, 7);
        assert!((top.values[0] - full.values[0]).abs() < 1e-6);
        assert!((top.values[1] - full.values[1]).abs() < 1e-6);
        // Eigenvector alignment up to sign.
        for c in 0..2 {
            let u: Vec<f64> = top.vectors.col_iter(c).collect();
            let v: Vec<f64> = full.vectors.col_iter(c).collect();
            assert!(crate::dot(&u, &v).abs() > 1.0 - 1e-5);
        }
    }

    #[test]
    fn topk_clamps_k_to_dim() {
        let a = Mat::identity(3);
        let e = topk_eigen(&a, 10, 50, 1e-10, 1);
        assert_eq!(e.values.len(), 3);
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn topk_on_a_zero_dimension_operator_is_empty() {
        // k clamps to n = 0: the answer is an empty decomposition, for any
        // requested k and thread count, not a panic.
        let a = Mat::zeros(0, 0);
        for threads in [1usize, 4] {
            let e = topk_eigen_threads(&a, 3, 50, 1e-10, 1, threads);
            assert!(e.values.is_empty());
            assert_eq!((e.vectors.rows(), e.vectors.cols()), (0, 0));
        }
        assert!(topk_eigen(&a, 0, 50, 1e-10, 1).values.is_empty());
    }
}
