//! Dense row-major matrices with the handful of kernels QuickSel needs.

use crate::sparse::CsrMatrix;
use crate::vector::dot;
use quicksel_parallel::SharedSlice;
use std::fmt;

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// The training path of QuickSel only needs a few operations — Gram
/// products (`AᵀA`), matrix–vector products, symmetric assembly, and
/// factorizations — so the API is intentionally small and allocation
/// behaviour explicit.
#[derive(Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Builds from nested row slices (test/helper convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
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

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Appends one row (the incremental trainer's constraint matrix
    /// grows one observed query at a time).
    ///
    /// # Panics
    /// Panics when `row.len() != cols` (on a non-empty matrix).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "pushed row length must equal cols");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Removes row `r`, shifting later rows up (order-preserving).
    ///
    /// Used by the bounded-history trainer to evict constraint rows
    /// while keeping the row order aligned with the query history.
    pub fn remove_row(&mut self, r: usize) {
        assert!(r < self.rows, "remove_row index out of range");
        let start = r * self.cols;
        self.data.drain(start..start + self.cols);
        self.rows -= 1;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self · rhs` using an ikj loop order (streaming rows
    /// of `rhs`, cache-friendly for row-major storage).
    pub fn matmul(&self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = DMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue; // A matrices are often sparse-ish (disjoint rects)
                }
                let b_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec shape mismatch");
        (0..self.rows).map(|i| dot(self.row(i), x)).collect()
    }

    /// Transposed matrix–vector product `selfᵀ · x`.
    pub fn t_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, x.len(), "t_matvec shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        out
    }

    /// Output-row group width of [`gram`](Self::gram): `g` rows
    /// `[i0, i0+GRAM_ROW_GROUP)` (a ≤2 MB suffix-triangular slab at
    /// m=4000) absorb **all** input rows' contributions while
    /// cache-resident, so the dominant read-modify-write stream over
    /// `g` touches DRAM once total instead of once per input row.
    pub const GRAM_ROW_GROUP: usize = 64;

    /// Gram product `selfᵀ · self` (an SPD `cols × cols` matrix), computed
    /// as a symmetric rank-k accumulation over rows.
    ///
    /// Zero entries on the left operand are skipped through per-row
    /// nonzero lists (QuickSel's constraint rows are sparse-ish — most
    /// predicates overlap a minority of subpopulations), and the
    /// accumulation is grouped over output rows (see
    /// [`GRAM_ROW_GROUP`](Self::GRAM_ROW_GROUP)) so one group's `g` slab
    /// stays in cache across every input row. Per-entry accumulation
    /// order is unchanged (input rows ascending), so the result is
    /// identical to the straightforward row-at-a-time sweep.
    ///
    /// Output-row groups fan out across the workspace pool (disjoint
    /// contiguous slabs of `g`, one cursor vector per job seeded by
    /// binary search instead of the serial sweep's carried cursors);
    /// each output entry still accumulates input rows in ascending
    /// order, so the parallel Gram equals the serial Gram exactly.
    pub fn gram(&self) -> DMatrix {
        // Per-row nonzero column lists (ascending), computed once; the
        // cursors advance monotonically as the groups sweep left→right.
        let mut nz: Vec<u32> = Vec::new();
        let mut nz_start = Vec::with_capacity(self.rows + 1);
        nz_start.push(0usize);
        for r in 0..self.rows {
            nz.extend(
                self.row(r).iter().enumerate().filter(|(_, v)| **v != 0.0).map(|(i, _)| i as u32),
            );
            nz_start.push(nz.len());
        }
        self.gram_over(&nz, &nz_start)
    }

    /// [`gram`](Self::gram) of a matrix whose nonzeros are already
    /// listed: `pattern`'s entries, row by row, must cover every nonzero
    /// of `self` (entries over zeros add nothing). Skips the scan that
    /// finds the nonzeros; the sweep, and so the result, is the same bit
    /// for bit.
    ///
    /// # Panics
    /// Panics when `pattern`'s shape differs from `self`'s.
    pub fn gram_with_pattern(&self, pattern: &CsrMatrix) -> DMatrix {
        assert_eq!((pattern.rows(), pattern.cols()), (self.rows, self.cols), "gram pattern shape");
        self.gram_over(pattern.indices(), pattern.offsets())
    }

    /// The Gram sweep over per-row nonzero column lists `nz`, row `r`'s
    /// at `nz[nz_start[r]..nz_start[r + 1]]`, ascending.
    fn gram_over(&self, nz: &[u32], nz_start: &[usize]) -> DMatrix {
        let n = self.cols;
        let mut g = DMatrix::zeros(n, n);
        let pool = quicksel_parallel::current();
        let groups = n.div_ceil(Self::GRAM_ROW_GROUP.max(1));
        let pieces = pool.chunks_for(groups, 2);
        pool.scope_slabs(&mut g.data, n, pieces, |range, slab| {
            // Seed this job's cursors at its first output column;
            // from there the sweep is the serial one. (The serial
            // case seeds at column 0, where the seek is a no-op.)
            let cursor: Vec<usize> = (0..nz_start.len() - 1)
                .map(|r| {
                    let row_nz = &nz[nz_start[r]..nz_start[r + 1]];
                    nz_start[r] + row_nz.partition_point(|&c| (c as usize) < range.start)
                })
                .collect();
            self.gram_columns(slab, range.start, range.end, cursor, nz, nz_start);
        });
        // Mirror the upper triangle (pure copies: reads are strictly
        // upper-triangle cells, writes strictly lower, so row chunks
        // cannot overlap).
        let shared = SharedSlice::new(&mut g.data);
        let shared = &shared;
        // SAFETY: `run_chunks` hands out disjoint target-row ranges
        // (inline over the full range in the serial case) — see
        // `mirror_lower_rows`'s contract.
        pool.run_chunks(n, Self::GRAM_ROW_GROUP, |range| unsafe {
            mirror_lower_rows(shared, n, range)
        });
        g
    }

    /// The Gram accumulation restricted to output columns `[c0, c1)`,
    /// writing into `out` (the rows-`[c0, c1)` slab of the result,
    /// `(c1 - c0) × cols` row-major). `cursor[r]` must index the first
    /// entry of input row `r`'s nonzero list that is `>= c0`; group
    /// sweeps then advance it exactly as the serial implementation
    /// does.
    fn gram_columns(
        &self,
        out: &mut [f64],
        c0: usize,
        c1: usize,
        mut cursor: Vec<usize>,
        nz: &[u32],
        nz_start: &[usize],
    ) {
        let n = self.cols;
        let mut i0 = c0;
        while i0 < c1 {
            let iend = (i0 + Self::GRAM_ROW_GROUP).min(c1);
            for r in 0..self.rows {
                let row = self.row(r);
                let mut c = cursor[r];
                while c < nz_start[r + 1] && (nz[c] as usize) < iend {
                    let i = nz[c] as usize;
                    let g_row = &mut out[(i - c0) * n + i..(i - c0 + 1) * n];
                    crate::vector::axpy(row[i], &row[i..], g_row);
                    c += 1;
                }
                cursor[r] = c;
            }
            i0 = iend;
        }
    }

    /// `self += alpha * rhs` (element-wise).
    pub fn add_scaled(&mut self, alpha: f64, rhs: &DMatrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Adds `alpha` to the diagonal (ridge / jitter).
    pub fn add_diagonal(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += alpha;
        }
    }

    /// Trace (sum of diagonal entries).
    pub fn trace(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        dot(&self.data, &self.data).sqrt()
    }

    /// Max absolute element difference against `other` (test helper).
    pub fn max_abs_diff(&self, other: &DMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }
}

/// Copies the strict upper triangle into the lower one for target rows
/// `i ∈ rows` (`data[i][j] = data[j][i]` for `j < i`).
///
/// # Safety
/// Concurrent callers over the same matrix must use disjoint `rows`
/// ranges and must not otherwise access the matrix.
unsafe fn mirror_lower_rows(data: &SharedSlice<'_, f64>, n: usize, rows: std::ops::Range<usize>) {
    for i in rows {
        for j in 0..i {
            data.set(i * n + j, data.get(j * n + i));
        }
    }
}

impl fmt::Debug for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for r in 0..show {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_times_anything_is_identity_mapping() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DMatrix::identity(2);
        assert_eq!(i.matmul(&a), a);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, DMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&g2) < 1e-12);
    }

    #[test]
    fn transpose_round_trip() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn diagonal_and_trace() {
        let mut a = DMatrix::zeros(3, 3);
        a.add_diagonal(2.5);
        assert_eq!(a.trace(), 7.5);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = DMatrix::identity(2);
        let b = DMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        a.add_scaled(2.0, &b);
        assert_eq!(a, DMatrix::from_rows(&[&[3.0, 2.0], &[2.0, 3.0]]));
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut a = DMatrix::zeros(0, 3);
        a.push_row(&[1.0, 2.0, 3.0]);
        a.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(a, DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "pushed row length must equal cols")]
    fn push_row_rejects_ragged() {
        let mut a = DMatrix::zeros(1, 3);
        a.push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn mismatched_matmul_panics() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    fn arb_matrix(r: usize, c: usize) -> impl Strategy<Value = DMatrix> {
        prop::collection::vec(-5.0..5.0f64, r * c).prop_map(move |d| DMatrix::from_vec(r, c, d))
    }

    proptest! {
        #[test]
        fn prop_matmul_associates_with_vector(a in arb_matrix(4, 3), b in arb_matrix(3, 5), x in prop::collection::vec(-2.0..2.0f64, 5)) {
            // (A·B)·x == A·(B·x)
            let lhs = a.matmul(&b).matvec(&x);
            let rhs = a.matvec(&b.matvec(&x));
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_gram_is_symmetric_psd_diag(a in arb_matrix(6, 4)) {
            let g = a.gram();
            for i in 0..4 {
                prop_assert!(g.get(i, i) >= -1e-12);
                for j in 0..4 {
                    prop_assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn prop_gram_with_pattern_equals_gram(
            picks in prop::collection::vec(0u8..4, 9 * 70),
        ) {
            // Mostly zeros, like a constraint matrix; wide enough for the
            // FMA blocks and their unfused tails.
            let data = picks.iter().map(|&p| [0.0, 0.0, 0.75, -1.5][p as usize]).collect();
            let a = DMatrix::from_vec(9, 70, data);
            let g = a.gram();
            prop_assert!(a.gram_with_pattern(&CsrMatrix::from_dense(&a)) == g);
            // A pattern that also lists zeros changes nothing either.
            let mut full = CsrMatrix::new(70);
            let every: Vec<u32> = (0..70).collect();
            for r in 0..9 {
                full.push_gathered(&every, a.row(r));
            }
            prop_assert!(a.gram_with_pattern(&full) == g);
        }

        #[test]
        fn prop_t_matvec_matches_transpose(a in arb_matrix(5, 3), x in prop::collection::vec(-2.0..2.0f64, 5)) {
            let lhs = a.t_matvec(&x);
            let rhs = a.transpose().matvec(&x);
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }
    }
}
