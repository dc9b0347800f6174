//! Cholesky factorization for symmetric positive-definite systems.
//!
//! QuickSel's analytic training step (§4.2) solves
//! `(Q + λAᵀA) w = λAᵀs` where the system matrix is symmetric positive
//! *semi*-definite; a tiny trace-scaled ridge is added on failure so the
//! factorization always succeeds on real workloads.
//!
//! The factorization is **blocked** (right-looking, [`CHOL_BLOCK`]-wide
//! panels): the O(n³) bulk of the work is the trailing symmetric update,
//! which here is a tile-local dot of two contiguous `CHOL_BLOCK`-length
//! row slices — four at a time through `vector::dot4`, in an AVX2+FMA
//! clone of the update loop where the host has both — and each panel
//! tile is streamed from L1 instead of re-read from main memory per row,
//! so at QuickSel's `m = 4000` the factorization runs near memory
//! bandwidth rather than at the latency of strided scalar loads. The
//! reference unblocked implementation is kept as
//! [`CholeskyFactor::new_reference`] for the equivalence suite
//! (`tests/blocked_cholesky.rs` and the unit tests here).
//!
//! # Parallel trailing update
//!
//! Per panel, the diagonal-block factorization stays serial (it is
//! O(`CHOL_BLOCK`³) and strictly sequential), while the two O(n²)/O(n³)
//! phases fan out on the workspace pool when the trailing row count
//! clears the gate: the **panel solve** partitions its rows into
//! disjoint contiguous slabs (plain `split_at_mut`), and the **trailing
//! update** partitions output rows across jobs — each row's update
//! reads only panel columns `[k0, k0+kb)` (finalized by the panel
//! solve, never written during the update) and writes only its own
//! row's trailing columns, so accesses are provably disjoint. Per-entry
//! arithmetic (the same `dot`/`dot4` calls over the same slices) is
//! unchanged, so the parallel factor equals the serial factor
//! **exactly**, not just to tolerance — `tests/parallel_cholesky.rs`
//! pins bitwise equality across thread counts.

use crate::matrix::DMatrix;
use crate::vector::{dot, dot4_body};
use crate::LinalgError;
use quicksel_parallel::SharedSlice;

/// Panel width of the blocked factorization and the blocked substitution
/// sweeps: wide enough that the trailing-update tiles amortize loop
/// overhead and fill vector lanes, narrow enough that one panel tile
/// (`CHOL_BLOCK²` doubles = 32 KiB) stays resident in L1.
pub const CHOL_BLOCK: usize = 64;

/// Minimum trailing rows per parallel chunk in the factorization's
/// panel-solve and trailing-update fan-outs; below this the dispatch
/// overhead beats the win and the serial loops run unchanged.
const PAR_MIN_ROWS: usize = 16;

/// A lower-triangular Cholesky factor `L` with `L·Lᵀ = A`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: DMatrix,
}

impl CholeskyFactor {
    /// Factors a symmetric positive-definite matrix with the blocked
    /// right-looking algorithm (see the module docs).
    ///
    /// Only the lower triangle of `a` is read. Results agree with
    /// [`new_reference`](Self::new_reference) to floating-point
    /// reassociation tolerance (the proptest suite pins this).
    pub fn new(a: &DMatrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch { context: "cholesky requires square matrix" });
        }
        let mut l = DMatrix::zeros(n, n);
        // Seed the lower triangle; the strict upper triangle stays zero.
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        Self::factor_lower(&mut l)?;
        Ok(Self { l })
    }

    /// [`new`](Self::new)'s factorization in `a`'s own storage (`a`
    /// square): `L` overwrites the lower triangle, and the strict upper
    /// triangle is neither read nor written.
    pub(crate) fn factor_lower(a: &mut DMatrix) -> Result<(), LinalgError> {
        let n = a.rows();
        let data = a.as_mut_slice();
        // Scratch: the current factored diagonal block (row-major
        // kb×kb), L1-resident.
        let mut diag = [0.0f64; CHOL_BLOCK * CHOL_BLOCK];
        let pool = quicksel_parallel::current();

        let mut k0 = 0;
        while k0 < n {
            let kb = CHOL_BLOCK.min(n - k0);

            // 1. Factor the kb×kb diagonal block in place (scalar; all
            //    accesses are contiguous row prefixes).
            for j in 0..kb {
                let rj = (k0 + j) * n + k0;
                let mut d = data[rj + j];
                for t in 0..j {
                    d -= data[rj + t] * data[rj + t];
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: k0 + j });
                }
                let djs = d.sqrt();
                data[rj + j] = djs;
                let inv = 1.0 / djs;
                for i in (j + 1)..kb {
                    let ri = (k0 + i) * n + k0;
                    let mut v = data[ri + j];
                    for t in 0..j {
                        v -= data[ri + t] * data[rj + t];
                    }
                    data[ri + j] = v * inv;
                }
            }

            // Copy the factored block into the L1 scratch so the panel
            // solve below borrows it without aliasing `data`.
            for j in 0..kb {
                let rj = (k0 + j) * n + k0;
                diag[j * kb..j * kb + j + 1].copy_from_slice(&data[rj..rj + j + 1]);
            }

            // 2. Panel solve: rows below the block solve
            //    L[i, k0..k0+kb] · diagᵀ = A[i, k0..k0+kb] by forward
            //    substitution against the factored block. Rows are
            //    independent (each reads only `diag` and itself), so
            //    they fan out as disjoint contiguous row slabs.
            let below = k0 + kb;
            let pieces = pool.chunks_for(n - below, PAR_MIN_ROWS * 2);
            {
                let diag = &diag;
                let (_, rows) = data.split_at_mut(below * n);
                pool.scope_slabs(rows, n, pieces, |range, slab| {
                    for k in 0..range.end - range.start {
                        panel_solve_row(&mut slab[k * n + k0..k * n + k0 + kb], diag, kb);
                    }
                });
            }

            // 3. Trailing update A22 -= P·Pᵀ, tiled over column blocks so
            //    each jb-tile of panel rows stays in L1 while every row i
            //    streams past it. The inner kernel is the fused
            //    multi-accumulator `dot4` — a single-chain reduction would
            //    pin the whole O(n³) bulk to scalar FP latency.
            //
            //    Output rows partition across the pool: every job writes
            //    only its rows' trailing columns (`>= k0 + kb`) and reads
            //    only panel columns `[k0, k0 + kb)` — finalized in step 2
            //    and untouched here — so the fan-out is free of overlap
            //    and per-entry arithmetic is identical to the serial
            //    sweep (the equivalence suite pins exact equality).
            {
                let shared = SharedSlice::new(data);
                let shared = &shared;
                // SAFETY: `run_chunks` hands out disjoint row ranges
                // (inline over the full range in the serial case) —
                // see `trailing_update_rows`'s contract.
                pool.run_chunks(n - below, PAR_MIN_ROWS, |range| unsafe {
                    trailing_update_rows(shared, n, k0, kb, below + range.start..below + range.end)
                });
            }
            k0 += kb;
        }
        Ok(())
    }

    /// The reference unblocked factorization (the pre-optimization
    /// implementation). Kept for the blocked-vs-reference equivalence
    /// suite (`tests/blocked_cholesky.rs`).
    pub fn new_reference(a: &DMatrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::ShapeMismatch { context: "cholesky requires square matrix" });
        }
        let mut l = DMatrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a.get(j, j);
            let lj = l.row(j);
            for &v in &lj[..j] {
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let djs = d.sqrt();
            l.set(j, j, djs);
            // Column below the diagonal. Row-major access pattern: for each
            // i > j compute L[i][j] from rows i and j.
            let inv = 1.0 / djs;
            for i in (j + 1)..n {
                let mut v = a.get(i, j);
                // dot of the first j entries of rows i and j of L
                let (ri, rj) = {
                    // Split borrows: rows are disjoint slices of the backing vec.
                    let cols = n;
                    let data = l.as_slice();
                    (&data[i * cols..i * cols + j], &data[j * cols..j * cols + j])
                };
                for k in 0..j {
                    v -= ri[k] * rj[k];
                }
                l.set(i, j, v * inv);
            }
        }
        Ok(Self { l })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &DMatrix {
        &self.l
    }

    /// Consumes the factor, returning its lower triangle.
    pub fn into_lower(self) -> DMatrix {
        self.l
    }

    /// Rebuilds a factor from a previously-computed lower triangle (e.g.
    /// one captured by [`l`](Self::l) for persistence). The matrix must
    /// be square with finite, strictly positive diagonal entries — the
    /// invariants every successful factorization guarantees — so a
    /// restored factor solves exactly like the one it was captured from.
    pub fn from_lower(l: DMatrix) -> Result<Self, LinalgError> {
        let n = l.rows();
        if l.cols() != n {
            return Err(LinalgError::ShapeMismatch { context: "cholesky factor must be square" });
        }
        for i in 0..n {
            let d = l.get(i, i);
            if !(d.is_finite() && d > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
        }
        Ok(Self { l })
    }

    /// Order `n` of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward/back substitution.
    ///
    /// Both sweeps stream **rows** of `L` contiguously: the forward sweep
    /// is the usual row-prefix dot, and the backward sweep (`Lᵀx = y`)
    /// runs in outer-product form — once `x[i]` is final, its
    /// contribution `L[i][k]·x[i]` is subtracted from every earlier
    /// equation using row `i` of `L` as one contiguous slice, instead of
    /// walking column `i` with stride `n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut b = b.to_vec();
        // Forward: L y = b (row-prefix dots, unrolled-accumulator kernel).
        for i in 0..n {
            let row = self.l.row(i);
            let v = b[i] - dot(&row[..i], &b[..i]);
            b[i] = v / row[i];
        }
        // Backward: Lᵀ x = y, outer-product form over rows of L.
        for i in (0..n).rev() {
            let row = self.l.row(i);
            let xi = b[i] / row[i];
            b[i] = xi;
            if xi != 0.0 {
                for (bk, &lik) in b[..i].iter_mut().zip(row) {
                    *bk -= lik * xi;
                }
            }
        }
        b
    }

    /// The reference substitution sweeps (the pre-optimization
    /// implementation, with the strided column walk in the backward
    /// sweep). Kept for the equivalence suite.
    pub fn solve_reference(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Forward: L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let mut v = y[i];
            for k in 0..i {
                v -= row[k] * y[k];
            }
            y[i] = v / row[i];
        }
        // Backward: Lᵀ x = y
        let mut x = y;
        for i in (0..n).rev() {
            let mut v = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                v -= self.l.get(k, i) * xk;
            }
            x[i] = v / self.l.get(i, i);
        }
        x
    }

    /// Log-determinant of `A` (`2 Σ log L_ii`); occasionally useful for
    /// diagnostics.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }
}

/// Forward-substitutes one panel row against the factored diagonal
/// block (`row` is the row's `[k0, k0+kb)` column slice, `diag` the
/// L1-resident factored block). One iteration of the serial panel
/// solve, shared verbatim by the serial and fanned-out paths.
#[inline]
fn panel_solve_row(row: &mut [f64], diag: &[f64; CHOL_BLOCK * CHOL_BLOCK], kb: usize) {
    for c in 0..kb {
        let v = row[c] - dot(&row[..c], &diag[c * kb..c * kb + c]);
        row[c] = v / diag[c * kb + c];
    }
}

/// The trailing update `A22 -= P·Pᵀ` restricted to output rows `rows`,
/// with the serial sweep's exact tiling and `dot`/`dot4` kernels (see
/// step 3 in [`CholeskyFactor::factor_lower`]). Writes touch only `rows`' cells
/// at columns `>= k0 + kb`; reads touch only columns `[k0, k0 + kb)`,
/// which no trailing update writes. Runs the AVX2+FMA build of the loop
/// where the host has both; it computes the same bits as the portable
/// one (see the `vector` module docs).
///
/// # Safety
/// Concurrent callers over the same matrix must use disjoint `rows`
/// ranges and must not otherwise access the matrix.
unsafe fn trailing_update_rows(
    data: &SharedSlice<'_, f64>,
    n: usize,
    k0: usize,
    kb: usize,
    rows: std::ops::Range<usize>,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::vector::fma_clones() {
        // SAFETY: the host has AVX2 and FMA; the caller keeps the contract.
        return unsafe { trailing_update_rows_fma(data, n, k0, kb, rows) };
    }
    trailing_update_rows_portable(data, n, k0, kb, rows)
}

/// [`trailing_update_rows_portable`] compiled for AVX2+FMA.
///
/// # Safety
/// As for [`trailing_update_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn trailing_update_rows_fma(
    data: &SharedSlice<'_, f64>,
    n: usize,
    k0: usize,
    kb: usize,
    rows: std::ops::Range<usize>,
) {
    trailing_update_rows_portable(data, n, k0, kb, rows)
}

/// The one source of the trailing update, inlined into both builds.
///
/// # Safety
/// As for [`trailing_update_rows`].
#[inline(always)]
unsafe fn trailing_update_rows_portable(
    data: &SharedSlice<'_, f64>,
    n: usize,
    k0: usize,
    kb: usize,
    rows: std::ops::Range<usize>,
) {
    // One L1-resident panel-row buffer per invocation (= per chunk).
    let mut pbuf = [0.0f64; CHOL_BLOCK];
    let mut jb = k0 + kb;
    while jb < rows.end {
        let jl = CHOL_BLOCK.min(n - jb);
        for i in rows.start.max(jb)..rows.end {
            pbuf[..kb].copy_from_slice(data.slice(i * n + k0..i * n + k0 + kb));
            let jmax = (jb + jl).min(i + 1);
            let out = data.slice_mut(i * n + jb..i * n + jmax);
            // Four output columns per step share the panel-row loads
            // (see `dot4`); scalar tail for the remainder.
            let mut j = jb;
            while j + 4 <= jmax {
                let s = {
                    let base = |jj: usize| jj * n + k0;
                    dot4_body(
                        &pbuf[..kb],
                        data.slice(base(j)..base(j) + kb),
                        data.slice(base(j + 1)..base(j + 1) + kb),
                        data.slice(base(j + 2)..base(j + 2) + kb),
                        data.slice(base(j + 3)..base(j + 3) + kb),
                    )
                };
                out[j - jb] -= s[0];
                out[j - jb + 1] -= s[1];
                out[j - jb + 2] -= s[2];
                out[j - jb + 3] -= s[3];
                j += 4;
            }
            while j < jmax {
                let s = dot(&pbuf[..kb], data.slice(j * n + k0..j * n + k0 + kb));
                out[j - jb] -= s;
                j += 1;
            }
        }
        jb += jl;
    }
}

/// Factors the SPD matrix `A`, retrying with progressively larger
/// trace-scaled ridge terms when `A` is only semi-definite.
///
/// The ridge sequence is `tr(A)/n · 10^{-10, -8, -6, -4}`; QuickSel's
/// system matrix `Q + λAᵀA` is PSD by construction, so in practice the
/// first or second attempt succeeds. The retry loop keeps **one** working
/// copy and raises its diagonal by the *delta* between successive ridge
/// levels — the previous implementation cloned the full matrix per
/// attempt (~128 MB each at `m = 4000`).
pub fn factor_spd(a: &DMatrix) -> Result<CholeskyFactor, LinalgError> {
    match CholeskyFactor::new(a) {
        Ok(f) => return Ok(f),
        Err(LinalgError::ShapeMismatch { context }) => {
            return Err(LinalgError::ShapeMismatch { context })
        }
        Err(_) => {}
    }
    let n = a.rows().max(1);
    let scale = (a.trace().abs() / n as f64).max(f64::MIN_POSITIVE);
    let mut last = LinalgError::NotPositiveDefinite { pivot: 0 };
    let mut aj = a.clone();
    let mut applied = 0.0;
    for exp in [-10i32, -8, -6, -4] {
        let ridge = scale * 10f64.powi(exp);
        aj.add_diagonal(ridge - applied);
        applied = ridge;
        match CholeskyFactor::new(&aj) {
            Ok(f) => return Ok(f),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Solves the SPD system `A x = b` through [`factor_spd`].
pub fn solve_spd(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Ok(factor_spd(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd3() -> DMatrix {
        DMatrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let f = CholeskyFactor::new(&a).unwrap();
        let rec = f.l().matmul(&f.l().transpose());
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = CholeskyFactor::new(&a).unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(CholeskyFactor::new(&a), Err(LinalgError::NotPositiveDefinite { .. })));
        assert!(matches!(
            CholeskyFactor::new_reference(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(CholeskyFactor::new(&a), Err(LinalgError::ShapeMismatch { .. })));
        assert!(matches!(
            CholeskyFactor::new_reference(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solve_spd_handles_semidefinite_via_jitter() {
        // Rank-1 PSD matrix: xxᵀ with x = (1, 1).
        let a = DMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let b = vec![2.0, 2.0];
        let x = solve_spd(&a, &b).unwrap();
        // Any solution with x0 + x1 ≈ 2 satisfies the (regularized) system.
        let r = a.matvec(&x);
        assert!((r[0] - 2.0).abs() < 1e-3 && (r[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn log_det_of_diagonal() {
        let mut a = DMatrix::zeros(2, 2);
        a.set(0, 0, 4.0);
        a.set(1, 1, 9.0);
        let f = CholeskyFactor::new(&a).unwrap();
        assert!((f.log_det() - (36.0f64).ln()).abs() < 1e-12);
    }

    /// Blocked factorization must cross block boundaries correctly: an
    /// order well above `CHOL_BLOCK` (and deliberately not a multiple of
    /// it) still reconstructs and solves.
    #[test]
    fn blocked_factor_crosses_block_boundaries() {
        let n = CHOL_BLOCK * 2 + 13;
        // Deterministic diagonally-dominant SPD matrix.
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = 1.0 / (1.0 + (i as f64 - j as f64).abs());
                a.set(i, j, v);
            }
            a.add_to(i, i, 2.0);
        }
        let f = CholeskyFactor::new(&a).unwrap();
        let r = CholeskyFactor::new_reference(&a).unwrap();
        assert!(f.l().max_abs_diff(r.l()) < 1e-9, "blocked factor diverged from reference");
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.matvec(&x_true);
        let x = f.solve(&b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn dispatched_trailing_update_equals_the_portable_body_bit_for_bit() {
        // On an AVX2+FMA host the update runs its clone; calling the
        // portable body by name keeps the plain build under test too.
        // Panel widths below and above 16, with and without a 4-block
        // remainder, reach every branch of `dot4` and `dot`.
        let n = 2 * CHOL_BLOCK + 13;
        let start: Vec<f64> = (0..n * n).map(|i| ((i * 7919) % 1013) as f64 / 97.0 - 5.0).collect();
        type Update = unsafe fn(&SharedSlice<'_, f64>, usize, usize, usize, std::ops::Range<usize>);
        let shapes = [(0, CHOL_BLOCK), (CHOL_BLOCK, CHOL_BLOCK), (5, 3), (9, 15), (2, 17), (1, 30)];
        for (k0, kb) in shapes {
            let run = |update: Update| {
                let mut data = start.clone();
                // SAFETY: one caller, over every row below the panel.
                unsafe { update(&SharedSlice::new(&mut data), n, k0, kb, k0 + kb..n) };
                data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let portable = run(trailing_update_rows_portable);
            assert_eq!(run(trailing_update_rows), portable, "k0={k0} kb={kb}");
        }
    }

    /// Random SPD matrices via Gram products of random rectangular matrices.
    fn arb_spd(n: usize) -> impl Strategy<Value = DMatrix> {
        prop::collection::vec(-2.0..2.0f64, (n + 3) * n).prop_map(move |d| {
            let b = DMatrix::from_vec(n + 3, n, d);
            let mut g = b.gram();
            g.add_diagonal(0.5); // keep comfortably definite
            g
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_solve_round_trip(a in arb_spd(5), x in prop::collection::vec(-3.0..3.0f64, 5)) {
            let b = a.matvec(&x);
            let xr = CholeskyFactor::new(&a).unwrap().solve(&b);
            for (u, v) in xr.iter().zip(&x) {
                prop_assert!((u - v).abs() < 1e-6, "{} vs {}", u, v);
            }
        }

        #[test]
        fn prop_factor_reconstructs(a in arb_spd(6)) {
            let f = CholeskyFactor::new(&a).unwrap();
            let rec = f.l().matmul(&f.l().transpose());
            prop_assert!(rec.max_abs_diff(&a) < 1e-8);
        }

        /// Blocked vs reference: factors and solves agree to fp tolerance.
        #[test]
        fn prop_blocked_matches_reference(a in arb_spd(7), x in prop::collection::vec(-3.0..3.0f64, 7)) {
            let blocked = CholeskyFactor::new(&a).unwrap();
            let reference = CholeskyFactor::new_reference(&a).unwrap();
            prop_assert!(blocked.l().max_abs_diff(reference.l()) < 1e-10);
            let b = a.matvec(&x);
            let xb = blocked.solve(&b);
            let xr = reference.solve_reference(&b);
            for (u, v) in xb.iter().zip(&xr) {
                prop_assert!((u - v).abs() < 1e-8, "{} vs {}", u, v);
            }
        }
    }
}
