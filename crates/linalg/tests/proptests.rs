//! Property-based tests for the linear-algebra substrate.

use lesm_linalg::{dot, jacobi_eigen, norm2, normalize, to_distribution, Mat, Tensor3};
use proptest::prelude::*;

fn small_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n)
}

fn small_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn matvec_distributes_over_composition(a in small_mat(4, 3), b in small_mat(3, 5), x in small_vec(5)) {
        // A (B x) == (A B) x
        let bx = b.matvec(&x);
        let lhs = a.matvec(&bx);
        let ab = a.matmul(&b);
        let rhs = ab.matvec(&x);
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-8, "{l} vs {r}");
        }
    }

    #[test]
    fn transpose_is_involution(a in small_mat(3, 6)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn tmatvec_matches_explicit_transpose(a in small_mat(4, 3), x in small_vec(4)) {
        let implicit = a.tmatvec(&x);
        let explicit = a.transpose().matvec(&x);
        for (l, r) in implicit.iter().zip(&explicit) {
            prop_assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn gram_schmidt_output_is_orthonormal(a in small_mat(6, 3)) {
        let mut q = a;
        let kept = q.orthonormalize_cols();
        prop_assert!(kept <= 3);
        for i in 0..3 {
            let ci: Vec<f64> = q.col_iter(i).collect();
            let n = norm2(&ci);
            // Kept columns are unit; dropped ones are zero.
            prop_assert!((n - 1.0).abs() < 1e-8 || n < 1e-8, "col {i} norm {n}");
            for j in (i + 1)..3 {
                let cj: Vec<f64> = q.col_iter(j).collect();
                prop_assert!(dot(&ci, &cj).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn jacobi_reconstructs_symmetric_matrices(entries in proptest::collection::vec(-3.0f64..3.0, 10)) {
        // Build a 4x4 symmetric matrix from 10 free entries.
        let mut a = Mat::zeros(4, 4);
        let mut it = entries.into_iter();
        for i in 0..4 {
            for j in i..4 {
                let v = it.next().unwrap();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = jacobi_eigen(&a, 100, 1e-13);
        // Reconstruct and compare.
        for i in 0..4 {
            for j in 0..4 {
                let mut s = 0.0;
                for m in 0..4 {
                    s += e.vectors[(i, m)] * e.values[m] * e.vectors[(j, m)];
                }
                prop_assert!((s - a[(i, j)]).abs() < 1e-6, "({i},{j}): {s} vs {}", a[(i, j)]);
            }
        }
        // Eigenvalues sorted descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn normalize_gives_unit_or_zero(mut v in small_vec(5)) {
        let n = normalize(&mut v);
        if n > 1e-12 {
            prop_assert!((norm2(&v) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn to_distribution_sums_to_one(mut v in proptest::collection::vec(0.0f64..10.0, 1..20)) {
        to_distribution(&mut v);
        let s: f64 = v.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rank_one_tensor_contraction_identity(a in small_vec(3), u in small_vec(3), w in -3.0f64..3.0) {
        // (w a⊗a⊗a)(u,u,u) == w (a·u)^3
        let mut t = Tensor3::zeros(3);
        t.add_rank_one(w, &a);
        let au = dot(&a, &u);
        let got = t.apply_vvv(&u);
        let want = w * au.powi(3);
        prop_assert!((got - want).abs() < 1e-6 * (1.0 + want.abs()), "{got} vs {want}");
    }

    #[test]
    fn tensor_deflation_cancels(a in small_vec(4), w in 0.1f64..3.0) {
        let mut t = Tensor3::zeros(4);
        t.add_rank_one(w, &a);
        t.deflate(w, &a);
        prop_assert!(t.max_abs() < 1e-9);
    }

    #[test]
    fn sym_pair_update_is_fully_symmetric(a in small_vec(3), b in small_vec(3)) {
        let mut t = Tensor3::zeros(3);
        t.add_sym_rank_one_pair(1.0, &a, &b);
        for i in 0..3 {
            for j in 0..3 {
                for l in 0..3 {
                    let x = t.get(i, j, l);
                    prop_assert!((x - t.get(i, l, j)).abs() < 1e-9);
                    prop_assert!((x - t.get(j, i, l)).abs() < 1e-9);
                    prop_assert!((x - t.get(l, j, i)).abs() < 1e-9);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden bit-identity checks for the rewritten kernels. Each reference below
// is the seed implementation spelled out naively: ascending-k axpy updates
// with the same zero-skip. The blocked/fused kernels must reproduce its
// output bit for bit — per DESIGN.md §11, only the instruction schedule may
// change, never the floating-point grouping.
// ---------------------------------------------------------------------------

/// Seed matmul: one output row at a time, `out_row += a_ik · b_row(k)` in
/// ascending-k order, skipping zero coefficients.
fn matmul_reference(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let coef = a[(i, k)];
            if coef == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += coef * b[(k, j)];
            }
        }
    }
    out
}

/// Seed tmatvec: the row range is cut into the same fixed 64-piece chunk
/// layout the production kernel uses, each chunk accumulated row by row
/// (ascending, zero-skip) into a fresh partial, and the partials folded
/// left to right. That grouping — not a flat single-accumulator loop — is
/// what the bit-identity contract pins down.
fn tmatvec_reference(a: &Mat, x: &[f64]) -> Vec<f64> {
    let grain = lesm_par::grain_for_pieces(a.rows(), 64);
    let mut out = vec![0.0; a.cols()];
    for range in lesm_par::chunk_ranges(a.rows(), grain) {
        let mut part = vec![0.0; a.cols()];
        for r in range {
            let coef = x[r];
            if coef == 0.0 {
                continue;
            }
            for (o, &v) in part.iter_mut().zip(a.row(r)) {
                *o += coef * v;
            }
        }
        for (o, &p) in out.iter_mut().zip(&part) {
            *o += p;
        }
    }
    out
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

fn mat_pair() -> impl Strategy<Value = (Mat, Mat)> {
    (1usize..12, 1usize..12, 1usize..12).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-5.0f64..5.0, m * k),
            proptest::collection::vec(-5.0f64..5.0, k * n),
        )
            .prop_map(move |(da, db)| (Mat::from_vec(m, k, da), Mat::from_vec(k, n, db)))
    })
}

/// Operand pair for `Aᵀ·B`: equal row counts, independent widths.
fn tn_pair() -> impl Strategy<Value = (Mat, Mat)> {
    (1usize..12, 1usize..8, 1usize..8).prop_flat_map(|(r, p, q)| {
        (
            proptest::collection::vec(-5.0f64..5.0, r * p),
            proptest::collection::vec(-5.0f64..5.0, r * q),
        )
            .prop_map(move |(da, db)| (Mat::from_vec(r, p, da), Mat::from_vec(r, q, db)))
    })
}

proptest! {
    #[test]
    fn blocked_matmul_is_bit_identical_to_reference((a, b) in mat_pair()) {
        let want = matmul_reference(&a, &b);
        for threads in [1usize, 2, 4] {
            let got = a.matmul_threads(&b, threads);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "threads={}", threads);
            }
        }
    }

    #[test]
    fn fused_tmatvec_is_bit_identical_to_reference(a in small_mat(9, 5), x in small_vec(9)) {
        let want = tmatvec_reference(&a, &x);
        for threads in [1usize, 2, 4] {
            let got = a.tmatvec_threads(&x, threads);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "threads={}", threads);
            }
        }
    }

    #[test]
    fn matmul_tn_is_bit_identical_to_transpose_then_matmul((a, b) in tn_pair()) {
        // Aᵀ·B via the fused kernel vs explicit transpose + blocked matmul.
        let want = a.transpose().matmul(&b);
        for threads in [1usize, 2, 4] {
            let got = a.matmul_tn_threads(&b, threads);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "threads={}", threads);
            }
        }
    }
}

/// Deterministic sweep across the adaptive-dispatch boundary: 16³ work sits
/// far below the `lesm-par` dispatch threshold (sequential dispatch), 96³ far
/// above it (parallel dispatch when cores allow). Results must carry the
/// same bits on both sides and for every requested thread count.
#[test]
fn adaptive_dispatch_boundary_preserves_bits() {
    for n in [16usize, 96] {
        let a = Mat::from_vec(n, n, (0..n * n).map(|i| (i as f64 * 0.37).sin()).collect());
        let b = Mat::from_vec(n, n, (0..n * n).map(|i| (i as f64 * 0.71).cos()).collect());
        let want = matmul_reference(&a, &b);
        for threads in [1usize, 2, 4] {
            let got = a.matmul_threads(&b, threads);
            assert_bits_eq(got.as_slice(), want.as_slice(), &format!("matmul n={n} t={threads}"));
        }
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let want_t = tmatvec_reference(&a, &x);
        for threads in [1usize, 2, 4] {
            let got = a.tmatvec_threads(&x, threads);
            assert_bits_eq(&got, &want_t, &format!("tmatvec n={n} t={threads}"));
        }
    }
}
