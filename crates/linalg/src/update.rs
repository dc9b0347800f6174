//! A Cholesky factor updated in place, for incremental retraining.
//!
//! QuickSel's warm refine path keeps the factor `L` of the training
//! system `M = Q + λAᵀA + εI` between refines. A new constraint row `r`
//! changes the system by the symmetric rank-1 term `λ·rᵀr`, and a row
//! that history compaction evicts takes the same term back out, so the
//! factor follows the system without ever being recomputed:
//!
//! * [`update`](UpdatableCholesky::update) folds `x = √λ·r` in with one
//!   Givens rotation per column (`L·Lᵀ + x·xᵀ`). One pass over the
//!   factor applies up to four rows: per column, each row's rotation is
//!   formed and then all of them sweep the column together, so every
//!   element sees the same operations in the same order as the
//!   sequential rank-1 sweeps and the result is equal bit for bit.
//! * [`downdate`](UpdatableCholesky::downdate) folds `x` out with one
//!   hyperbolic rotation per column (`L·Lᵀ − x·xᵀ`) and fails with a
//!   typed error on a pivot that would turn non-positive or cancel to
//!   under a millionth of its square; the caller then refactors.
//!
//! Each costs O(m²) instead of the O(m³) refactor. Columns where a row's
//! entry is zero skip that row's rotation, so a row's leading zeros cost
//! nothing.
//!
//! The update's fused pass is written once, as portable Rust, and
//! compiled twice on x86-64: the second build enables AVX2 and runs
//! whenever the host has it, so a column sweep rotates four elements per
//! instruction instead of two. Neither build enables FMA, and Rust
//! neither contracts `a*b + c` nor reorders float operations, so both
//! compute the same bits and an update does not depend on the host.
//! Neither does [`solve`](UpdatableCholesky::solve): its [`dot`] and
//! [`axpy`] fuse with `f64::mul_add`, which rounds once in every build
//! (see the `vector` module docs). What does depend on the platform is
//! the rotation's `f64::hypot`, whose precision Rust leaves to libc.
//!
//! A rotation walks one column of `L` per step, so the factor is stored
//! as `Lᵀ` row-major: [`factor`](UpdatableCholesky::factor) and
//! [`from_lower`](UpdatableCholesky::from_lower) transpose once, and
//! [`lower`](UpdatableCholesky::lower) transposes back for persistence.
//! Both transpositions move entries without rounding, so a restored
//! factor solves and updates bit for bit like the one it was captured
//! from.

use crate::cholesky::{factor_spd, CholeskyFactor};
use crate::matrix::DMatrix;
use crate::vector::{axpy, dot};
use crate::LinalgError;

/// Rows one pass of [`UpdatableCholesky::update`] folds in together.
const FUSED_ROWS: usize = 4;

/// The least fraction of its square a downdate may leave a pivot: past
/// it, cancellation in `lkk² − x²` leaves few correct digits.
const MIN_PIVOT_RATIO: f64 = 1e-6;

/// A Cholesky factor `L` (`L·Lᵀ = M`) that rank-1 updates and downdates
/// in place; see the module docs.
#[derive(Debug, Clone)]
pub struct UpdatableCholesky {
    /// `Lᵀ` row-major: row `j` holds column `j` of `L` from the diagonal
    /// on. The strict lower triangle is never read.
    ut: DMatrix,
}

impl UpdatableCholesky {
    /// Factors the symmetric `system` in its own storage, retrying like
    /// [`factor_spd`] when it is only semi-definite.
    pub fn factor(mut system: DMatrix) -> Result<Self, LinalgError> {
        let n = system.rows();
        if system.cols() != n {
            return Err(LinalgError::ShapeMismatch { context: "cholesky requires square matrix" });
        }
        let diagonal: Vec<f64> = (0..n).map(|i| system.get(i, i)).collect();
        if CholeskyFactor::factor_lower(&mut system).is_err() {
            // Only the lower triangle was overwritten: the untouched upper
            // one, transposed back, and the saved diagonal restore it.
            transpose_square(&mut system);
            diagonal.iter().enumerate().for_each(|(i, &d)| system.set(i, i, d));
            system = factor_spd(&system)?.into_lower();
        }
        transpose_square(&mut system);
        // Clear the system's old upper triangle so `lower` exports `L`.
        for i in 1..n {
            system.row_mut(i)[..i].fill(0.0);
        }
        Ok(Self { ut: system })
    }

    /// Adopts a lower triangle captured by [`lower`](Self::lower),
    /// validated like [`CholeskyFactor::from_lower`].
    pub fn from_lower(l: DMatrix) -> Result<Self, LinalgError> {
        let mut ut = CholeskyFactor::from_lower(l)?.into_lower();
        transpose_square(&mut ut);
        Ok(Self { ut })
    }

    /// The factor as a row-major lower triangle `L`.
    pub fn lower(&self) -> DMatrix {
        let mut l = self.ut.clone();
        transpose_square(&mut l);
        l
    }

    /// Folds `scale·rᵀr` in for every row `r` of `rows` (`k × m`,
    /// flattened), in row order, four rows per pass.
    ///
    /// # Panics
    /// Panics when `rows` is not a whole number of rows or `scale` is
    /// not positive and finite.
    pub fn update(&mut self, rows: &[f64], scale: f64) {
        let n = self.ut.rows();
        assert!(rows.len().is_multiple_of(n), "update rows must be k × order");
        assert!(scale > 0.0 && scale.is_finite(), "update scale must be positive");
        let root = scale.sqrt();
        let mut work = Vec::with_capacity(FUSED_ROWS * n);
        for batch in rows.chunks(FUSED_ROWS * n.max(1)) {
            work.clear();
            work.extend(batch.iter().map(|v| v * root));
            rotate_in(&mut self.ut, &mut work);
        }
    }

    /// Folds `scale·rᵀr` out: the factor of `M − scale·rᵀr`.
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when a pivot would
    /// turn non-positive or keep less than a millionth of its square;
    /// the factor is then partially downdated and must be rebuilt.
    pub fn downdate(&mut self, row: &[f64], scale: f64) -> Result<(), LinalgError> {
        let n = self.ut.rows();
        assert_eq!(row.len(), n, "downdate row length must equal the order");
        assert!(scale > 0.0 && scale.is_finite(), "downdate scale must be positive");
        let root = scale.sqrt();
        let mut x: Vec<f64> = row.iter().map(|v| v * root).collect();
        for k in 0..n {
            let xk = x[k];
            if xk == 0.0 {
                continue;
            }
            let (head, col) = self.ut.row_mut(k)[k..].split_at_mut(1);
            let lkk = head[0];
            let r2 = (lkk - xk) * (lkk + xk);
            if !(r2 > MIN_PIVOT_RATIO * lkk * lkk && r2.is_finite()) {
                return Err(LinalgError::NotPositiveDefinite { pivot: k });
            }
            let r = r2.sqrt();
            head[0] = r;
            let (c, s, inv_c) = (r / lkk, xk / lkk, lkk / r);
            for (l, xi) in col.iter_mut().zip(&mut x[k + 1..]) {
                *l = (*l - s * *xi) * inv_c;
                *xi = c * *xi - s * *l;
            }
        }
        Ok(())
    }

    /// Solves `M x = b`: forward substitution down the columns of `L`
    /// (contiguous rows of `Lᵀ`), then back substitution as row dots of
    /// `Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.ut.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut b = b.to_vec();
        for j in 0..n {
            let row = self.ut.row(j);
            let (head, tail) = b.split_at_mut(j + 1);
            let yj = head[j] / row[j];
            head[j] = yj;
            if yj != 0.0 {
                axpy(-yj, &row[j + 1..], tail);
            }
        }
        for i in (0..n).rev() {
            let row = self.ut.row(i);
            b[i] = (b[i] - dot(&row[i + 1..], &b[i + 1..])) / row[i];
        }
        b
    }
}

/// One fused pass over `Lᵀ`: folds the (at most `FUSED_ROWS`) rows of
/// `x` in, overwriting `x`. Runs the AVX2 build of the pass where the
/// host has AVX2; it computes the same bits as the portable one.
fn rotate_in(ut: &mut DMatrix, x: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host has AVX2, the clone's only target feature.
        return unsafe { rotate_in_avx2(ut, x) };
    }
    rotate_in_portable(ut, x)
}

/// [`rotate_in_portable`] compiled for AVX2, without FMA (see the module
/// docs for why the bits match).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rotate_in_avx2(ut: &mut DMatrix, x: &mut [f64]) {
    rotate_in_portable(ut, x)
}

/// The one source of the fused pass, inlined into both builds.
#[inline(always)]
fn rotate_in_portable(ut: &mut DMatrix, x: &mut [f64]) {
    let n = ut.rows();
    let mut xs: Vec<&mut [f64]> = x.chunks_exact_mut(n).collect();
    for k in 0..n {
        let (head, col) = ut.row_mut(k)[k..].split_at_mut(1);
        let (mut c, mut s) = ([0.0; FUSED_ROWS], [0.0; FUSED_ROWS]);
        let mut active = [false; FUSED_ROWS];
        let mut count = 0;
        for (j, xj) in xs.iter().enumerate() {
            let xk = xj[k];
            if xk != 0.0 {
                let r = head[0].hypot(xk);
                (c[count], s[count]) = (head[0] / r, xk / r);
                head[0] = r;
                active[j] = true;
                count += 1;
            }
        }
        let mut tails = xs.iter_mut().zip(active).filter(|(_, a)| *a).map(|(x, _)| &mut x[k + 1..]);
        let mut next = || tails.next().expect("one tail per active row");
        match count {
            0 => {}
            1 => rotate_column(col, [next()], [c[0]], [s[0]]),
            2 => rotate_column(col, [next(), next()], [c[0], c[1]], [s[0], s[1]]),
            3 => {
                rotate_column(col, [next(), next(), next()], [c[0], c[1], c[2]], [s[0], s[1], s[2]])
            }
            _ => rotate_column(col, [next(), next(), next(), next()], c, s),
        }
    }
}

/// Transposes a square matrix in place, swapping in cache tiles.
fn transpose_square(m: &mut DMatrix) {
    const TILE: usize = 32;
    let n = m.rows();
    let d = m.as_mut_slice();
    for i0 in (0..n).step_by(TILE) {
        for j0 in (0..=i0).step_by(TILE) {
            for i in i0..(i0 + TILE).min(n) {
                for j in j0..(j0 + TILE).min(i) {
                    d.swap(i * n + j, j * n + i);
                }
            }
        }
    }
}

/// Applies `K` Givens rotations `(c, s)`, in order, to one column tail
/// of `L` and the matching tails of the `K` work rows.
#[inline(always)]
fn rotate_column<const K: usize>(col: &mut [f64], xs: [&mut [f64]; K], c: [f64; K], s: [f64; K]) {
    let n = col.len();
    let xs = xs.map(|x| &mut x[..n]);
    for (i, l) in col.iter_mut().enumerate() {
        let mut li = *l;
        for t in 0..K {
            let xi = xs[t][i];
            xs[t][i] = c[t] * xi - s[t] * li;
            li = c[t] * li + s[t] * xi;
        }
        *l = li;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic diagonally-dominant SPD matrix.
    fn spd(n: usize, seed: u64) -> DMatrix {
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let h = ((i * 31 + j * 17 + seed as usize) % 13) as f64 * 0.05;
                let v = h / (1.0 + (i as f64 - j as f64).abs());
                a.add_to(i, j, v);
                a.add_to(j, i, v);
            }
            a.add_to(i, i, 3.0);
        }
        a
    }

    /// `m + sign·scale·rᵀr`, formed densely.
    fn add_outer(m: &mut DMatrix, row: &[f64], scale: f64) {
        for (i, &ri) in row.iter().enumerate() {
            for (j, &rj) in row.iter().enumerate() {
                m.add_to(i, j, scale * ri * rj);
            }
        }
    }

    /// The reference: one plain rank-1 sweep per row, with the fused
    /// kernel's per-element operations and zero skips.
    fn rank_one_reference(f: &mut UpdatableCholesky, row: &[f64], scale: f64) {
        let ut = &mut f.ut;
        let mut x: Vec<f64> = row.iter().map(|v| v * scale.sqrt()).collect();
        for k in 0..ut.rows() {
            let xk = x[k];
            if xk == 0.0 {
                continue;
            }
            let lkk = ut.get(k, k);
            let r = lkk.hypot(xk);
            let (c, s) = (lkk / r, xk / r);
            ut.set(k, k, r);
            for (i, xi) in x.iter_mut().enumerate().skip(k + 1) {
                let (l, x_old) = (ut.get(k, i), *xi);
                *xi = c * x_old - s * l;
                ut.set(k, i, c * l + s * x_old);
            }
        }
    }

    fn max_rel_diff(x: &[f64], y: &[f64]) -> f64 {
        let scale = y.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(f64::MIN_POSITIVE);
        x.iter().zip(y).fold(0.0f64, |m, (a, b)| m.max((a - b).abs())) / scale
    }

    /// Rows exercising every fused-kernel branch: an all-zero row, rows
    /// with leading zeros of different lengths, and interior zeros.
    fn awkward_rows(n: usize, k: usize) -> Vec<f64> {
        let mut rows = Vec::with_capacity(k * n);
        for r in 0..k {
            for i in 0..n {
                let v = match r % 4 {
                    0 if r > 0 => 0.0,
                    _ if i < (r * 5) % n => 0.0,
                    _ if (i + r) % 3 == 0 => 0.0,
                    _ => ((i * 7 + r * 11) % 10) as f64 * 0.1 + 0.05,
                };
                rows.push(v);
            }
        }
        rows
    }

    #[test]
    fn fused_update_equals_sequential_rank_one_sweeps_bit_for_bit() {
        for (n, k) in [(9, 1), (9, 3), (17, 4), (40, 7), (70, 9), (131, 12)] {
            let base = UpdatableCholesky::factor(spd(n, n as u64)).unwrap();
            let rows = awkward_rows(n, k);
            let mut fused = base.clone();
            fused.update(&rows, 1e3);
            let mut sequential = base;
            for row in rows.chunks(n) {
                rank_one_reference(&mut sequential, row, 1e3);
            }
            assert_eq!(fused.ut.as_slice(), sequential.ut.as_slice(), "n={n} k={k}");
        }
    }

    /// The factor's bits, so signed zeros and NaNs compare too.
    fn bits(f: &UpdatableCholesky) -> Vec<u64> {
        f.ut.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dispatched_update_equals_the_portable_body_bit_for_bit() {
        // On an AVX2 host `update` runs the AVX2 clone; calling the
        // portable body by name keeps the non-AVX2 build under test too.
        let scale = 1e3;
        for n in [9, 17, 40, 70, 131] {
            let base = UpdatableCholesky::factor(spd(n, n as u64)).unwrap();
            for k in 1..=12 {
                let rows = awkward_rows(n, k);
                let mut dispatched = base.clone();
                dispatched.update(&rows, scale);
                let mut portable = base.clone();
                for batch in rows.chunks(FUSED_ROWS * n) {
                    let mut work: Vec<f64> = batch.iter().map(|v| v * scale.sqrt()).collect();
                    rotate_in_portable(&mut portable.ut, &mut work);
                }
                assert_eq!(bits(&dispatched), bits(&portable), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn zero_rows_leave_the_factor_unchanged() {
        let base = UpdatableCholesky::factor(spd(12, 3)).unwrap();
        let mut f = base.clone();
        f.update(&[0.0; 36], 50.0);
        assert_eq!(f.ut.as_slice(), base.ut.as_slice());
        // No rows are no work, even on an empty system.
        let mut empty = UpdatableCholesky::factor(DMatrix::zeros(0, 0)).unwrap();
        empty.update(&[], 1.0);
        assert!(empty.solve(&[]).is_empty());
    }

    #[test]
    fn factor_and_lower_round_trip_the_cold_factor_exactly() {
        let a = spd(23, 5);
        let cold = factor_spd(&a).unwrap();
        let mut f = UpdatableCholesky::factor(a.clone()).unwrap();
        assert_eq!(f.lower().as_slice(), cold.l().as_slice());
        let b: Vec<f64> = (0..23).map(|i| (i as f64) - 11.0).collect();
        assert!(max_rel_diff(&f.solve(&b), &cold.solve(&b)) < 1e-13);
        // A restore holds the very same `Lᵀ`, so it solves and updates
        // bit for bit like its source.
        f.update(&awkward_rows(23, 3), 10.0);
        let mut back = UpdatableCholesky::from_lower(f.lower()).unwrap();
        assert_eq!(back.ut.as_slice(), f.ut.as_slice());
        assert_eq!(back.solve(&b), f.solve(&b));
        back.update(&awkward_rows(23, 2), 10.0);
        f.update(&awkward_rows(23, 2), 10.0);
        assert_eq!(back.ut.as_slice(), f.ut.as_slice());
        let mut bad = f.lower();
        bad.set(4, 4, -1.0);
        assert!(UpdatableCholesky::from_lower(bad).is_err());
    }

    #[test]
    fn a_semi_definite_system_takes_the_ridge_retries() {
        // A rank-1 PSD matrix fails the first attempt in place; the
        // retries must see the original matrix, as `factor_spd` does.
        let mut a = DMatrix::zeros(5, 5);
        add_outer(&mut a, &[1.0, 2.0, 0.5, -1.0, 3.0], 1.0);
        let f = UpdatableCholesky::factor(a.clone()).unwrap();
        assert_eq!(f.lower().as_slice(), factor_spd(&a).unwrap().l().as_slice());
        assert!(UpdatableCholesky::factor(DMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn downdate_that_would_leave_the_matrix_indefinite_is_a_typed_error() {
        // M = I; folding out 2·e₀e₀ᵀ leaves diag(−1, 1, …).
        let mut f = UpdatableCholesky::factor(DMatrix::identity(6)).unwrap();
        let mut row = vec![0.0; 6];
        row[0] = 1.0;
        assert_eq!(f.downdate(&row, 2.0), Err(LinalgError::NotPositiveDefinite { pivot: 0 }));
        // Exactly singular is refused too, and so is a pivot that would
        // keep less than a millionth of its square.
        for scale in [1.0, 1.0 - 1e-9] {
            let mut f = UpdatableCholesky::factor(DMatrix::identity(6)).unwrap();
            assert_eq!(f.downdate(&row, scale), Err(LinalgError::NotPositiveDefinite { pivot: 0 }));
        }
        let mut f = UpdatableCholesky::factor(DMatrix::identity(6)).unwrap();
        f.downdate(&row, 1.0 - 1e-3).unwrap();
        assert!((f.lower().get(0, 0) - 1e-3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn downdate_undoes_an_update() {
        let n = 30;
        let a = spd(n, 8);
        let rows = awkward_rows(n, 5);
        let mut f = UpdatableCholesky::factor(a.clone()).unwrap();
        f.update(&rows, 200.0);
        for row in rows.chunks(n).rev() {
            f.downdate(row, 200.0).unwrap();
        }
        let fresh = factor_spd(&a).unwrap();
        assert!(f.lower().max_abs_diff(fresh.l()) < 1e-10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Updates and downdates match a dense refactor of the same
        /// system, including all-zero rows.
        #[test]
        fn prop_update_and_downdate_match_dense_refactor(
            seed in 0u64..64,
            rows in prop::collection::vec(prop::collection::vec(0.0..1.0f64, 10), 2..9),
            b in prop::collection::vec(-2.0..2.0f64, 10),
        ) {
            let n = 10;
            let lambda = 100.0;
            let mut dense = spd(n, seed);
            let mut f = UpdatableCholesky::factor(dense.clone()).unwrap();
            let mut flat = Vec::new();
            for (i, r) in rows.iter().enumerate() {
                let r = if i == 0 { vec![0.0; n] } else { r.clone() };
                add_outer(&mut dense, &r, lambda);
                flat.extend(r);
            }
            f.update(&flat, lambda);
            let x = f.solve(&b);
            let xd = crate::cholesky::solve_spd(&dense, &b).unwrap();
            prop_assert!(max_rel_diff(&x, &xd) < 1e-9, "update: {:?} vs {:?}", x, xd);
            // Fold every other row back out.
            for r in rows.iter().skip(1).step_by(2) {
                add_outer(&mut dense, r, -lambda);
                f.downdate(r, lambda).unwrap();
            }
            let x = f.solve(&b);
            let xd = crate::cholesky::solve_spd(&dense, &b).unwrap();
            prop_assert!(max_rel_diff(&x, &xd) < 1e-8, "downdate: {:?} vs {:?}", x, xd);
        }
    }
}
