//! Small dense linear algebra kernel.
//!
//! Sized for the paper's problem dimensions (frames of a few hundred
//! samples): row-major matrices, matrix/vector products, Cholesky
//! factorisation and least-squares solves. No external numeric crates.

use efficsense_dsp::approx::is_zero;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Euclidean norm of every column, in one row-major pass.
    ///
    /// Equivalent to `(0..cols).map(|c| norm2(&self.col(c)))` but without
    /// the per-column `Vec` allocation and the strided column walks: the
    /// squared sums accumulate across rows (ascending, so each column's
    /// summation order matches the column-copy path bit for bit).
    pub fn col_norms(&self) -> Vec<f64> {
        let mut sq = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (acc, &v) in sq.iter_mut().zip(self.row(r)) {
                *acc += v * v;
            }
        }
        for v in &mut sq {
            *v = v.sqrt();
        }
        sq
    }

    /// Gram matrix `AᵀA` (`cols × cols`, symmetric positive semi-definite).
    ///
    /// Accumulates rank-one row outer products into the upper triangle and
    /// mirrors it, so the whole pass runs on contiguous row slices. This is
    /// the decoder-side precomputation that lets OMP update correlations as
    /// `Aᵀr = Aᵀy − G[:,S]·x_S` without touching `A` again.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let row = self.row(i);
            for j in 0..n {
                let v = row[j];
                if is_zero(v) {
                    continue;
                }
                let grow = &mut g.data[j * n..(j + 1) * n];
                for (k, &rk) in row[j..].iter().enumerate() {
                    grow[j + k] += v * rk;
                }
            }
        }
        for r in 1..n {
            for c in 0..r {
                g.data[r * n + c] = g.data[c * n + r];
            }
        }
        g
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must match column count");
        (0..self.rows).map(|r| dot(self.row(r), x)).collect()
    }

    /// Transposed product `Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "vector length must match row count");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            let row = self.row(r);
            for (c, &arc) in row.iter().enumerate() {
                y[c] += arc * xr;
            }
        }
        y
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != b.rows`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, b.cols);
        // Blocked over the inner dimension so one panel of `b` rows stays
        // cache-resident while every output row accumulates against it. For
        // each output element the `k` order is still strictly ascending and
        // exact-zero `a[i,k]` terms are still skipped, so the result is
        // bit-identical to the naive i-k-j triple loop.
        const KB: usize = 64;
        let mut k0 = 0;
        while k0 < self.cols {
            let k1 = (k0 + KB).min(self.cols);
            for i in 0..self.rows {
                let apanel = &self.data[i * self.cols + k0..i * self.cols + k1];
                let orow = out.row_mut(i);
                for (dk, &aik) in apanel.iter().enumerate() {
                    if is_zero(aik) {
                        continue;
                    }
                    let brow = b.row(k0 + dk);
                    for (j, &bkj) in brow.iter().enumerate() {
                        orow[j] += aik * bkj;
                    }
                }
            }
            k0 = k1;
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest singular value, estimated by power iteration on `AᵀA`.
    pub fn spectral_norm_est(&self, iterations: usize) -> f64 {
        let mut v = vec![1.0; self.cols];
        let mut lambda = 0.0;
        for _ in 0..iterations.max(1) {
            let av = self.matvec(&v);
            let atav = self.matvec_t(&av);
            lambda = norm2(&atav);
            if is_zero(lambda) {
                return 0.0;
            }
            for (vi, ai) in v.iter_mut().zip(&atav) {
                *vi = ai / lambda;
            }
        }
        lambda.sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:9.4}")).collect();
            writeln!(
                f,
                "  [{}{}]",
                shown.join(" "),
                if self.cols > 8 { " …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ (release truncates).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four independent accumulators break the serial add dependency so the
    // loop can keep multiple FMAs in flight; the lanes are folded pairwise
    // at the end. This changes the summation order relative to a serial
    // fold, which is fine — callers rely on determinism, not on one
    // particular rounding schedule.
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Error from a failed numerical factorisation or solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveError {
    what: String,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "linear solve failed: {}", self.what)
    }
}

impl std::error::Error for SolveError {}

impl SolveError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

/// Solves the symmetric positive-definite system `A·x = b` by Cholesky
/// factorisation.
///
/// # Errors
///
/// Returns [`SolveError`] if `A` is not positive definite (within a small
/// pivot tolerance).
///
/// # Panics
///
/// Panics if `A` is not square or `b` has the wrong length.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    assert_eq!(b.len(), a.rows(), "rhs length must match");
    let n = a.rows();
    // Factor A = L·Lᵀ.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 1e-300 {
                    return Err(SolveError::new(format!("non-positive pivot at {i}")));
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    // Forward substitution L·y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    // Backward substitution Lᵀ·x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    efficsense_dsp::approx::debug_assert_all_finite(&x, "cholesky_solve solution");
    Ok(x)
}

/// Least-squares solution of an overdetermined `A·x ≈ b` via the normal
/// equations `AᵀA·x = Aᵀb` with a small ridge for conditioning.
///
/// # Errors
///
/// Returns [`SolveError`] if the normal equations are singular even after
/// regularisation.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    assert_eq!(b.len(), a.rows(), "rhs length must match row count");
    let at = a.transpose();
    let mut ata = at.matmul(a);
    let atb = a.matvec_t(b);
    // Tiny ridge keeps near-collinear supports solvable.
    let ridge = 1e-12 * (ata.frobenius_norm() / ata.rows() as f64).max(1e-300);
    for i in 0..ata.rows() {
        ata[(i, i)] += ridge;
    }
    efficsense_dsp::approx::debug_assert_all_finite(&atb, "least_squares normal-equation rhs");
    cholesky_solve(&ata, &atb)
}

/// Incrementally grown Cholesky factor of a ridge-regularised Gram matrix
/// `G_S + ridge·I`, where the support `S` gains one atom per OMP iteration.
///
/// Appending atom `k` costs O(k²) (one forward solve against the existing
/// factor) instead of the O(k³) full refactorisation that
/// [`cholesky_solve`] performs, and a solve against the current factor
/// costs O(k²). The pivot acceptance test is the same `> 1e-300` threshold
/// as [`cholesky_solve`], so a degenerate (linearly dependent) atom is
/// rejected at exactly the same point in exact arithmetic.
///
/// A support that grows one atom at a time also grows its right-hand side
/// one entry at a time, and the earlier rows of `L` never change. So the
/// forward solution of `L·z = b_S` is kept and extended by one entry per
/// append ([`solve_appended`](Self::solve_appended)); each solve then
/// reruns only the back substitution.
#[derive(Debug, Clone)]
pub struct GrowingCholesky {
    cap: usize,
    dim: usize,
    ridge: f64,
    /// Row-major `cap × cap` storage; row `i` holds `L[i, 0..=i]`.
    l: Vec<f64>,
    /// Scratch for the forward solve of an appended column.
    w: Vec<f64>,
    /// Forward solution of `L·z = b_S` over the right-hand-side entries
    /// passed to [`solve_appended`](Self::solve_appended) so far.
    z: Vec<f64>,
}

impl GrowingCholesky {
    /// Empty factor able to grow to `cap` atoms.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn new(cap: usize, ridge: f64) -> Self {
        assert!(cap > 0, "capacity must be positive");
        Self {
            cap,
            dim: 0,
            ridge,
            l: vec![0.0; cap * cap],
            w: vec![0.0; cap],
            z: Vec::with_capacity(cap),
        }
    }

    /// Drops all appended atoms and installs a new ridge, keeping the
    /// allocated storage for reuse across decodes.
    pub fn reset(&mut self, ridge: f64) {
        self.dim = 0;
        self.ridge = ridge;
        self.z.clear();
    }

    /// Number of atoms currently factored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dim
    }

    /// Maximum number of atoms this factor can grow to.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether no atoms have been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// Appends one atom: `cross` holds `G[S, j]` (one entry per atom already
    /// in the factor, in append order) and `diag` is `G[j, j]`.
    ///
    /// On success the factor covers the enlarged support. On error (the new
    /// pivot is not positive, i.e. the atom is numerically dependent on the
    /// current support even after the ridge) the factor is left unchanged,
    /// mirroring the reference path's rejection of a singular refit.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] with the same "non-positive pivot" message as
    /// [`cholesky_solve`] when the appended pivot is `<= 1e-300`.
    ///
    /// # Panics
    ///
    /// Panics if `cross.len()` differs from [`len`](Self::len) or the factor
    /// is already at capacity.
    pub fn try_append(&mut self, cross: &[f64], diag: f64) -> Result<(), SolveError> {
        let k = self.dim;
        assert_eq!(cross.len(), k, "one cross term per factored atom");
        assert!(k < self.cap, "factor is at capacity");
        // Forward solve L·w = cross against the existing factor.
        for (i, &ci) in cross.iter().enumerate() {
            let lrow = &self.l[i * self.cap..i * self.cap + i];
            let s = ci - dot(lrow, &self.w[..i]);
            self.w[i] = s / self.l[i * self.cap + i];
        }
        let pivot = diag + self.ridge - dot(&self.w[..k], &self.w[..k]);
        if pivot <= 1e-300 {
            return Err(SolveError::new(format!("non-positive pivot at {k}")));
        }
        let row = &mut self.l[k * self.cap..k * self.cap + k];
        row.copy_from_slice(&self.w[..k]);
        self.l[k * self.cap + k] = pivot.sqrt();
        self.dim = k + 1;
        Ok(())
    }

    /// Solves `(L·Lᵀ)·x = b` for the current support, writing the solution
    /// into `x` (resized to [`len`](Self::len)).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from [`len`](Self::len).
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        let k = self.dim;
        assert_eq!(b.len(), k, "rhs length must match factored dimension");
        x.clear();
        x.resize(k, 0.0);
        // Forward substitution L·y = b (y stored in x).
        for i in 0..k {
            x[i] = self.forward_entry(i, b[i], &x[..i]);
        }
        self.back_substitute(x);
    }

    /// Extends the kept forward solution by `rhs`, the right-hand-side entry
    /// of the most recently appended atom, then solves `(L·Lᵀ)·x = b_S` into
    /// `x` by back substitution alone. Bit-identical to
    /// [`solve_into`](Self::solve_into) over the same `b_S`: each forward
    /// entry is the same expression over the same values.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one atom was appended since the previous call
    /// (or since [`reset`](Self::reset)).
    pub fn solve_appended(&mut self, rhs: f64, x: &mut Vec<f64>) {
        let i = self.z.len();
        assert_eq!(i + 1, self.dim, "one rhs entry per appended atom");
        let zi = self.forward_entry(i, rhs, &self.z);
        self.z.push(zi);
        x.clear();
        x.extend_from_slice(&self.z);
        self.back_substitute(x);
    }

    /// Entry `i` of the forward solution of `L·z = b`, given `z[..i]`.
    fn forward_entry(&self, i: usize, b_i: f64, z: &[f64]) -> f64 {
        let lrow = &self.l[i * self.cap..i * self.cap + i];
        (b_i - dot(lrow, z)) / self.l[i * self.cap + i]
    }

    /// Backward substitution `Lᵀ·x = z` in place (`x` holds `z` on entry).
    fn back_substitute(&self, x: &mut [f64]) {
        for i in (0..x.len()).rev() {
            let mut s = x[i];
            for (t, &xt) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[t * self.cap + i] * xt;
            }
            x[i] = s / self.l[i * self.cap + i];
        }
        efficsense_dsp::approx::debug_assert_all_finite(x, "growing-cholesky solution");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_rows() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.col(2), vec![0.0, 5.0]);
    }

    #[test]
    fn matvec_identity() {
        let i = Matrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x);
        assert_eq!(i.matvec_t(&x), x);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matmul_against_hand_result() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2]
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let x = cholesky_solve(&a, &[10.0, 9.0]).expect("SPD system solves");
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(cholesky_solve(&a, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn least_squares_recovers_exact_solution() {
        // Overdetermined consistent system.
        let a = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0]);
        let x_true = [3.0, -2.0];
        let b = a.matvec(&x_true);
        let x = least_squares(&a, &b).expect("full-rank LS solves");
        assert!((x[0] - 3.0).abs() < 1e-8);
        assert!((x[1] + 2.0).abs() < 1e-8);
    }

    #[test]
    fn least_squares_minimises_residual() {
        let a = Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let x = least_squares(&a, &[1.0, 2.0, 6.0]).expect("solves");
        assert!((x[0] - 3.0).abs() < 1e-8); // mean
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = -5.0;
        a[(2, 2)] = 2.0;
        let s = a.spectral_norm_est(50);
        assert!((s - 5.0).abs() < 1e-6, "estimated {s}");
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn from_vec_checks_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn solve_appended_matches_a_full_solve_bit_for_bit() {
        let a = Matrix::from_vec(
            5,
            4,
            vec![
                1.0, 0.3, -0.2, 0.7, 0.4, 1.1, 0.5, -0.3, -0.6, 0.2, 0.9, 0.1, 0.25, -0.8, 0.35,
                1.3, 0.5, 0.45, -0.15, 0.6,
            ],
        );
        let g = a.gram();
        let b = [0.7, -1.2, 0.4, 2.5];
        let mut chol = GrowingCholesky::new(4, 1e-9);
        let (mut full, mut grown) = (Vec::new(), Vec::new());
        for k in 0..4 {
            let cross: Vec<f64> = (0..k).map(|s| g[(s, k)]).collect();
            chol.try_append(&cross, g[(k, k)])
                .expect("well-conditioned");
            chol.solve_into(&b[..=k], &mut full);
            chol.solve_appended(b[k], &mut grown);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&full), bits(&grown), "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "one rhs entry per appended atom")]
    fn solve_appended_needs_one_append_per_call() {
        let mut chol = GrowingCholesky::new(2, 0.0);
        chol.try_append(&[], 2.0).expect("positive pivot");
        let mut x = Vec::new();
        chol.solve_appended(1.0, &mut x);
        chol.solve_appended(1.0, &mut x);
    }

    #[test]
    fn display_truncates() {
        let m = Matrix::zeros(10, 10);
        let s = m.to_string();
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains('…'));
    }
}
