//! Row-major dense matrices.
//!
//! The kernels here are register-blocked (DESIGN.md §12): `matmul`
//! processes [`MATMUL_MR`] output rows per step against a transposed
//! packed panel of the left operand, and `tmatvec` fuses four input rows
//! per accumulator pass. Blocking changes neither the per-element
//! summation order nor the zero-coefficient skip of the original scalar
//! kernels, so every product is bit-identical to its naive reference —
//! the proptests in `tests/proptests.rs` pin that down.

use crate::{dot, EPS};
use std::ops::Range;

/// Chunk count for [`Mat::tmatvec_threads`] — fixed so the summation
/// grouping never depends on the thread count.
const TMATVEC_PIECES: usize = 64;

/// Output rows per register block in [`Mat::matmul_threads`]. Four rows
/// share each load of a right-hand-side row, quartering its memory
/// traffic, and give the autovectorizer four independent accumulator
/// streams.
const MATMUL_MR: usize = 4;

/// A dense, row-major `rows x cols` matrix of `f64`.
///
/// This intentionally implements only the operations the workspace needs;
/// it is not a general linear-algebra library.
///
/// ```
/// use lesm_linalg::Mat;
///
/// let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(a.matvec(&[1.0, 0.0]), vec![1.0, 3.0]);
/// assert_eq!(a.matmul(&Mat::identity(2)), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from row-major data.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over column `c` top to bottom without allocating.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(c < self.cols, "column {c} out of range");
        (0..self.rows).map(move |r| self.data[r * self.cols + c])
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Transposes a square matrix in place (no allocation).
    ///
    /// Panics if the matrix is not square.
    pub fn transpose_in_place(&mut self) {
        assert_eq!(self.rows, self.cols, "transpose_in_place requires a square matrix");
        for r in 0..self.rows {
            for c in 0..r {
                self.data.swap(r * self.cols + c, c * self.cols + r);
            }
        }
    }

    /// Dense matrix product `self * other`.
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Mat) -> Mat {
        self.matmul_threads(other, 1)
    }

    /// [`matmul`](Self::matmul) with output row blocks spread across
    /// `threads` workers (`0` = all available cores).
    ///
    /// The kernel packs `self` into a transposed panel once, then walks
    /// [`MATMUL_MR`] output rows at a time: for each inner index `k` the
    /// panel yields the block's coefficients as one contiguous quad and a
    /// single load of `other.row(k)` feeds all four accumulator rows.
    /// Per output element the sum still runs over `k` in increasing order
    /// and still skips zero coefficients, so the product is bit-identical
    /// to the naive row-at-a-time kernel — for any thread count.
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_threads(&self, other: &Mat, threads: usize) -> Mat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, other.cols);
        if self.rows == 0 || other.cols == 0 {
            return out;
        }
        // Transposed packed panel: panel.row(k)[i] = self[(i, k)].
        let panel = self.transpose();
        let n = other.cols;
        let hint = lesm_par::WorkHint::items(self.rows, self.cols * n);
        lesm_par::par_for_blocks(
            &mut out.data,
            MATMUL_MR * n,
            threads,
            hint,
            |blk, out_block| {
                let i0 = blk * MATMUL_MR;
                if out_block.len() == MATMUL_MR * n {
                    let (o0, rest) = out_block.split_at_mut(n);
                    let (o1, rest) = rest.split_at_mut(n);
                    let (o2, o3) = rest.split_at_mut(n);
                    for k in 0..self.cols {
                        let a = &panel.row(k)[i0..i0 + MATMUL_MR];
                        let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
                        let br = other.row(k);
                        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                            for j in 0..n {
                                let b = br[j];
                                o0[j] += a0 * b;
                                o1[j] += a1 * b;
                                o2[j] += a2 * b;
                                o3[j] += a3 * b;
                            }
                        } else {
                            // A zero coefficient: keep the seed kernel's
                            // skip semantics row by row for this k.
                            for (o, coef) in
                                [(&mut *o0, a0), (&mut *o1, a1), (&mut *o2, a2), (&mut *o3, a3)]
                            {
                                if coef == 0.0 {
                                    continue;
                                }
                                for (x, &b) in o.iter_mut().zip(br) {
                                    *x += coef * b;
                                }
                            }
                        }
                    }
                } else {
                    // Ragged tail block: plain row-at-a-time kernel.
                    for (r, out_row) in out_block.chunks_mut(n).enumerate() {
                        for k in 0..self.cols {
                            let coef = panel.row(k)[i0 + r];
                            if coef == 0.0 {
                                continue;
                            }
                            for (x, &b) in out_row.iter_mut().zip(other.row(k)) {
                                *x += coef * b;
                            }
                        }
                    }
                }
            },
        );
        out
    }

    /// Fused `self^T * other` without materializing the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(other)`: each output
    /// element sums over the rows of `self` in increasing order with the
    /// same zero-coefficient skip.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        self.matmul_tn_threads(other, 1)
    }

    /// [`matmul_tn`](Self::matmul_tn) with output rows spread across
    /// `threads` workers (`0` = all available cores).
    ///
    /// Panics if the two operands disagree on row count.
    pub fn matmul_tn_threads(&self, other: &Mat, threads: usize) -> Mat {
        assert_eq!(self.rows, other.rows, "row counts must agree");
        let mut out = Mat::zeros(self.cols, other.cols);
        if self.cols == 0 || other.cols == 0 {
            return out;
        }
        let n = other.cols;
        let hint = lesm_par::WorkHint::items(self.cols, self.rows * n);
        lesm_par::par_for_blocks(&mut out.data, n, threads, hint, |ka, out_row| {
            for r in 0..self.rows {
                let coef = self.data[r * self.cols + ka];
                if coef == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(other.row(r)) {
                    *o += coef * b;
                }
            }
        });
        out
    }

    /// Fused `self * other^T` without materializing the transpose.
    ///
    /// Each output element is `dot(self.row(i), other.row(j))` — both
    /// operands are walked unit-stride, which is the natural kernel when
    /// both matrices hold their vectors as rows (the transposed-basis
    /// layout `eig.rs` uses).
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        self.matmul_nt_threads(other, 1)
    }

    /// [`matmul_nt`](Self::matmul_nt) with output rows spread across
    /// `threads` workers (`0` = all available cores).
    ///
    /// Panics if the two operands disagree on column count.
    pub fn matmul_nt_threads(&self, other: &Mat, threads: usize) -> Mat {
        assert_eq!(self.cols, other.cols, "column counts must agree");
        let mut out = Mat::zeros(self.rows, other.rows);
        if self.rows == 0 || other.rows == 0 {
            return out;
        }
        let n = other.rows;
        let hint = lesm_par::WorkHint::items(self.rows, self.cols * n);
        lesm_par::par_for_blocks(&mut out.data, n, threads, hint, |i, out_row| {
            let a = self.row(i);
            for (o, j) in out_row.iter_mut().zip(0..n) {
                *o = dot(a, other.row(j));
            }
        });
        out
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), x)).collect()
    }

    /// Accumulates `x[r] * row_r` into `out` for `r` in `rows`, four rows
    /// per pass.
    ///
    /// Bit-identical to the row-at-a-time loop it replaces: `+` is
    /// left-associative, so the fused update `((((o + x0·a0) + x1·a1) +
    /// x2·a2) + x3·a3)` is the exact grouping of four sequential row
    /// updates, and any block containing a zero weight falls back to the
    /// per-row loop so the zero-skip semantics are preserved too.
    fn tmatvec_accum(&self, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
        let cols = self.cols;
        let mut r = rows.start;
        while r + MATMUL_MR <= rows.end {
            let (x0, x1, x2, x3) = (x[r], x[r + 1], x[r + 2], x[r + 3]);
            if x0 != 0.0 && x1 != 0.0 && x2 != 0.0 && x3 != 0.0 {
                let block = &self.data[r * cols..(r + MATMUL_MR) * cols];
                let (a0, rest) = block.split_at(cols);
                let (a1, rest) = rest.split_at(cols);
                let (a2, a3) = rest.split_at(cols);
                for j in 0..cols {
                    out[j] = out[j] + x0 * a0[j] + x1 * a1[j] + x2 * a2[j] + x3 * a3[j];
                }
            } else {
                for rr in r..r + MATMUL_MR {
                    let xr = x[rr];
                    if xr == 0.0 {
                        continue;
                    }
                    for (o, &a) in out.iter_mut().zip(self.row(rr)) {
                        *o += xr * a;
                    }
                }
            }
            r += MATMUL_MR;
        }
        for rr in r..rows.end {
            let xr = x[rr];
            if xr == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(rr)) {
                *o += xr * a;
            }
        }
    }

    /// `self^T * x` without materializing the transpose.
    pub fn tmatvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, x.len(), "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        self.tmatvec_accum(x, 0..self.rows, &mut out);
        out
    }

    /// `self^T * x` as a blocked parallel reduction over row chunks
    /// (`0` threads = all available cores).
    ///
    /// The chunk layout is fixed (independent of the thread count), so the
    /// result is bit-identical for any thread count — though it may differ
    /// in the last bit from the strictly serial [`tmatvec`](Self::tmatvec),
    /// whose summation is not chunked.
    pub fn tmatvec_threads(&self, x: &[f64], threads: usize) -> Vec<f64> {
        assert_eq!(self.rows, x.len(), "dimension mismatch");
        let grain = lesm_par::grain_for_pieces(self.rows, TMATVEC_PIECES);
        let hint = lesm_par::WorkHint::items(self.rows, self.cols);
        lesm_par::par_buffer_reduce(
            self.rows,
            grain,
            threads,
            hint,
            self.cols,
            |range, out| self.tmatvec_accum(x, range, out),
        )
    }

    /// Maximum absolute off-diagonal entry (square matrices only).
    pub fn max_offdiag(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    m = m.max(self[(i, j)].abs());
                }
            }
        }
        m
    }

    /// Orthonormalizes the columns in place with modified Gram–Schmidt.
    ///
    /// Columns that become (numerically) zero are replaced by zero vectors;
    /// the return value is the number of independent columns kept.
    pub fn orthonormalize_cols(&mut self) -> usize {
        let mut scratch = Vec::new();
        self.orthonormalize_cols_scratch(&mut scratch)
    }

    /// [`orthonormalize_cols`](Self::orthonormalize_cols) reusing a
    /// caller-owned scratch buffer for the transposed working copy.
    ///
    /// Modified Gram–Schmidt is column-oriented, which on a row-major
    /// layout means every dot product strides by `cols`. The kernel
    /// therefore works on a transposed copy held in `scratch` (columns
    /// contiguous), then writes the result back. The operation order —
    /// projection dots, subtractions, norm, scaling, all over row index
    /// in increasing order — matches the strided original exactly, so
    /// the result is bit-identical; iteration-level callers (`eig.rs`)
    /// keep one scratch alive to avoid the per-call allocation.
    pub fn orthonormalize_cols_scratch(&mut self, scratch: &mut Vec<f64>) -> usize {
        let (rows, cols) = (self.rows, self.cols);
        scratch.clear();
        scratch.resize(rows * cols, 0.0);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (c, &v) in row.iter().enumerate() {
                scratch[c * rows + r] = v;
            }
        }
        let kept = mgs_rows(scratch, cols, rows);
        for r in 0..rows {
            for c in 0..cols {
                self.data[r * cols + c] = scratch[c * rows + r];
            }
        }
        kept
    }

    /// Orthonormalizes the *rows* in place with modified Gram–Schmidt —
    /// the natural variant when basis vectors are stored as contiguous
    /// rows (the transposed layout the subspace iteration uses); no
    /// scratch or transposition needed.
    ///
    /// Rows that become (numerically) zero are replaced by zero vectors;
    /// the return value is the number of independent rows kept.
    pub fn orthonormalize_rows(&mut self) -> usize {
        mgs_rows(&mut self.data, self.rows, self.cols)
    }
}

/// Modified Gram–Schmidt over the `len`-sized rows of a flat buffer:
/// every vector is contiguous, so the projection dots and updates are
/// unit-stride. Shared by the row- and column-oriented entry points.
fn mgs_rows(data: &mut [f64], n_vecs: usize, len: usize) -> usize {
    let mut kept = 0;
    for c in 0..n_vecs {
        // Subtract projections on previously processed vectors.
        let (done, rest) = data.split_at_mut(c * len);
        let vec_c = &mut rest[..len];
        for p in 0..c {
            let vec_p = &done[p * len..(p + 1) * len];
            let proj = dot(vec_c, vec_p);
            for (x, &v) in vec_c.iter_mut().zip(vec_p) {
                *x -= proj * v;
            }
        }
        let n = dot(vec_c, vec_c).sqrt();
        if n > EPS {
            for x in vec_c.iter_mut() {
                *x /= n;
            }
            kept += 1;
        } else {
            vec_c.fill(0.0);
        }
    }
    kept
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Mat::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_in_place_matches_transpose() {
        let mut a = Mat::from_vec(3, 3, (0..9).map(|i| i as f64).collect());
        let want = a.transpose();
        a.transpose_in_place();
        assert_eq!(a, want);
    }

    #[test]
    fn col_iter_matches_indexing() {
        let a = Mat::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c1: Vec<f64> = a.col_iter(1).collect();
        assert_eq!(c1, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn matmul_tn_matches_transpose_then_matmul() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let a = Mat::from_vec(13, 7, (0..13 * 7).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let b = Mat::from_vec(13, 5, (0..13 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let want = a.transpose().matmul(&b);
        assert_eq!(want, a.matmul_tn(&b));
        for threads in 2..=4 {
            assert_eq!(want, a.matmul_tn_threads(&b, threads), "threads={threads}");
        }
    }

    #[test]
    fn threaded_matmul_and_tmatvec_bit_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let a = Mat::from_vec(37, 19, (0..37 * 19).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let b = Mat::from_vec(19, 23, (0..19 * 23).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let x: Vec<f64> = (0..37).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let serial_mm = a.matmul(&b);
        let serial_tv = a.tmatvec_threads(&x, 1);
        for threads in 2..=8 {
            assert_eq!(serial_mm, a.matmul_threads(&b, threads), "matmul threads={threads}");
            assert_eq!(serial_tv, a.tmatvec_threads(&x, threads), "tmatvec threads={threads}");
        }
    }

    #[test]
    fn matvec_and_tmatvec_agree_with_transpose() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = vec![1.0, -1.0];
        assert_eq!(a.tmatvec(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn gram_schmidt_orthonormal() {
        let mut a = Mat::from_vec(3, 2, vec![1.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
        let kept = a.orthonormalize_cols();
        assert_eq!(kept, 2);
        let c0: Vec<f64> = a.col_iter(0).collect();
        let c1: Vec<f64> = a.col_iter(1).collect();
        assert!((dot(&c0, &c0) - 1.0).abs() < 1e-10);
        assert!((dot(&c1, &c1) - 1.0).abs() < 1e-10);
        assert!(dot(&c0, &c1).abs() < 1e-10);
    }

    #[test]
    fn gram_schmidt_detects_dependence() {
        let mut a = Mat::from_vec(3, 2, vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(a.orthonormalize_cols(), 1);
    }

    #[test]
    fn gram_schmidt_scratch_reuse_is_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = Vec::new();
        for (rows, cols) in [(9usize, 4usize), (5, 5), (12, 3)] {
            let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut fresh = Mat::from_vec(rows, cols, data.clone());
            let mut reused = Mat::from_vec(rows, cols, data);
            let k1 = fresh.orthonormalize_cols();
            let k2 = reused.orthonormalize_cols_scratch(&mut scratch);
            assert_eq!(k1, k2);
            assert_eq!(fresh, reused);
        }
    }

    use crate::dot;
}
