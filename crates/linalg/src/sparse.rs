//! Compressed sparse rows, for QuickSel's constraint matrix `A`.
//!
//! A constraint row holds `|B ∩ G_j| / |G_j|` for every subpopulation
//! `G_j`, and a predicate overlaps only a minority of the supports, so
//! `A` is mostly zeros (31–33% nonzero on the repository benchmark's
//! tables). [`CsrMatrix`] keeps only the nonzeros: per row, the
//! strictly ascending column indices and their values.

use crate::matrix::DMatrix;
use crate::LinalgError;

/// A `rows × cols` matrix in compressed sparse rows: row `r`'s
/// nonzeros are `indices[offsets[r]..offsets[r + 1]]` (strictly
/// ascending, each below `cols`) with the matching `values`. Every
/// constructor and edit keeps that invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    cols: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An empty (zero-row) matrix of `cols` columns.
    ///
    /// # Panics
    /// Panics when `cols` does not fit the `u32` column indices.
    pub fn new(cols: usize) -> Self {
        Self::with_capacity(cols, 0, 0)
    }

    /// An empty matrix of `cols` columns with room for `rows` rows
    /// holding `nnz` entries in all.
    ///
    /// # Panics
    /// Panics when `cols` does not fit the `u32` column indices.
    pub fn with_capacity(cols: usize, rows: usize, nnz: usize) -> Self {
        assert!(u32::try_from(cols).is_ok(), "sparse column count must fit in u32");
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self { cols, offsets, indices: Vec::with_capacity(nnz), values: Vec::with_capacity(nnz) }
    }

    /// Keeps the nonzeros of a dense matrix.
    pub fn from_dense(m: &DMatrix) -> Self {
        let mut out = Self::new(m.cols());
        let mut cols = Vec::new();
        for r in 0..m.rows() {
            let row = m.row(r);
            cols.clear();
            cols.extend((0..row.len()).filter(|&j| row[j] != 0.0).map(|j| j as u32));
            out.push_gathered(&cols, row);
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Every stored value, row after row.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Every row's column indices, row after row.
    pub(crate) fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Where each row starts in [`indices`](Self::indices), plus the
    /// total entry count.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Row `r` as its column indices and values.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.offsets[r]..self.offsets[r + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Row `r` expanded to a dense vector of length `cols`.
    pub fn dense_row(&self, r: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        let (cols, vals) = self.row(r);
        for (&j, &v) in cols.iter().zip(vals) {
            out[j as usize] = v;
        }
        out
    }

    /// The whole matrix, dense.
    pub fn to_dense(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            let (cols, vals) = self.row(r);
            let dense = out.row_mut(r);
            for (&j, &v) in cols.iter().zip(vals) {
                dense[j as usize] = v;
            }
        }
        out
    }

    /// Appends a row given its column indices and values. Fails, and
    /// leaves the matrix unchanged, when the two lengths differ or the
    /// columns are not strictly ascending and below `cols`.
    pub fn push_row(&mut self, cols: &[u32], values: &[f64]) -> Result<(), LinalgError> {
        if cols.len() != values.len() {
            return Err(LinalgError::ShapeMismatch {
                context: "sparse row has unequal index and value counts",
            });
        }
        self.check_columns(cols)?;
        self.indices.extend_from_slice(cols);
        self.values.extend_from_slice(values);
        self.offsets.push(self.indices.len());
        Ok(())
    }

    /// Appends the row whose nonzeros sit at `cols` of the dense row
    /// `dense`.
    ///
    /// # Panics
    /// Panics when `dense` is not `cols()` long or `cols` is not
    /// strictly ascending.
    pub fn push_gathered(&mut self, cols: &[u32], dense: &[f64]) {
        assert_eq!(dense.len(), self.cols, "gathered row length must equal cols");
        self.check_columns(cols).expect("gathered columns must be strictly ascending");
        self.indices.extend_from_slice(cols);
        self.values.extend(cols.iter().map(|&j| dense[j as usize]));
        self.offsets.push(self.indices.len());
    }

    /// Appends every row of `other`, in order.
    ///
    /// # Panics
    /// Panics when the column counts differ.
    pub fn append(&mut self, other: &CsrMatrix) {
        assert_eq!(self.cols, other.cols, "appended matrix must have the same columns");
        let base = self.indices.len();
        self.indices.extend_from_slice(&other.indices);
        self.values.extend_from_slice(&other.values);
        self.offsets.extend(other.offsets[1..].iter().map(|&o| base + o));
    }

    /// Replaces row `r` with the nonzeros at `cols` of the dense row
    /// `dense`, under the same conditions as
    /// [`push_gathered`](Self::push_gathered).
    pub fn replace_gathered(&mut self, r: usize, cols: &[u32], dense: &[f64]) {
        assert_eq!(dense.len(), self.cols, "gathered row length must equal cols");
        self.check_columns(cols).expect("gathered columns must be strictly ascending");
        let span = self.offsets[r]..self.offsets[r + 1];
        let old_len = span.len();
        self.indices.splice(span.clone(), cols.iter().copied());
        self.values.splice(span, cols.iter().map(|&j| dense[j as usize]));
        for o in &mut self.offsets[r + 1..] {
            *o = *o - old_len + cols.len();
        }
    }

    /// Removes row `r`, shifting later rows up.
    pub fn remove_row(&mut self, r: usize) {
        assert!(r < self.rows(), "remove_row index out of range");
        let span = self.offsets[r]..self.offsets[r + 1];
        let len = span.len();
        self.indices.drain(span.clone());
        self.values.drain(span);
        self.offsets.remove(r + 1);
        for o in &mut self.offsets[r + 1..] {
            *o -= len;
        }
    }

    /// Matrix–vector product `self · x`. Each row's dot runs four
    /// accumulator chains over its entries.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec shape mismatch");
        (0..self.rows())
            .map(|r| {
                let (cols, vals) = self.row(r);
                let (col4, col_tail) = cols.as_chunks::<4>();
                let (val4, val_tail) = vals.as_chunks::<4>();
                let mut acc = [0.0; 4];
                for (c, v) in col4.iter().zip(val4) {
                    for t in 0..4 {
                        acc[t] += v[t] * x[c[t] as usize];
                    }
                }
                let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
                for (&c, &v) in col_tail.iter().zip(val_tail) {
                    sum += v * x[c as usize];
                }
                sum
            })
            .collect()
    }

    /// Transposed matrix–vector product `selfᵀ · x`: rows in order,
    /// each row's entries ascending, skipping rows where `x` is zero, as
    /// [`DMatrix::t_matvec`] sums them (the zeros it adds change no
    /// partial sum), so the two agree bit for bit.
    pub fn t_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows(), "t_matvec shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out[c as usize] += xr * v;
            }
        }
        out
    }

    fn check_columns(&self, cols: &[u32]) -> Result<(), LinalgError> {
        if !cols.windows(2).all(|w| w[0] < w[1]) {
            return Err(LinalgError::ShapeMismatch {
                context: "sparse row columns are not strictly ascending",
            });
        }
        if cols.last().is_some_and(|&c| c as usize >= self.cols) {
            return Err(LinalgError::ShapeMismatch { context: "sparse row column out of range" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> DMatrix {
        DMatrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0, 0.0, 3.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.5, 0.25, 0.0, 4.0, 1.5, 0.0],
        ])
    }

    #[test]
    fn dense_round_trip_keeps_only_nonzeros() {
        let d = sample();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (3, 6, 7));
        assert_eq!(s.row(0), (&[0u32, 2, 5][..], &[1.0, 2.0, 3.0][..]));
        assert_eq!(s.row(1), (&[][..], &[][..]));
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.dense_row(2), d.row(2));
    }

    #[test]
    fn push_row_refuses_malformed_rows_and_leaves_the_matrix_unchanged() {
        let mut s = CsrMatrix::from_dense(&sample());
        let before = s.clone();
        assert!(s.push_row(&[0, 2], &[1.0]).is_err(), "unequal lengths");
        assert!(s.push_row(&[2, 1], &[1.0, 1.0]).is_err(), "unsorted");
        assert!(s.push_row(&[1, 1], &[1.0, 1.0]).is_err(), "duplicate");
        assert!(s.push_row(&[6], &[1.0]).is_err(), "out of range");
        assert_eq!(s, before);
        s.push_row(&[1, 5], &[7.0, 8.0]).unwrap();
        assert_eq!(s.dense_row(3), vec![0.0, 7.0, 0.0, 0.0, 0.0, 8.0]);
    }

    #[test]
    fn row_edits_match_the_dense_edits() {
        let mut d = sample();
        let mut s = CsrMatrix::from_dense(&d);
        let new_row = [0.0, 9.0, 0.0, 0.0, 0.0, 0.0];
        s.replace_gathered(0, &[1], &new_row);
        d.row_mut(0).copy_from_slice(&new_row);
        assert_eq!(s.to_dense(), d);
        s.remove_row(1);
        d.remove_row(1);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s, CsrMatrix::from_dense(&d));
        let mut t = CsrMatrix::new(6);
        t.append(&s);
        t.append(&s);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.row(3), s.row(1));
    }

    proptest! {
        #[test]
        fn prop_matvec_matches_dense(
            picks in prop::collection::vec(0u8..5, 5 * 11),
            x in prop::collection::vec(-3.0..3.0f64, 11),
        ) {
            // Mostly zeros, like a constraint row.
            let data = picks.iter().map(|&p| [0.0, 0.0, 0.5, 1.0, -2.0][p as usize]).collect();
            let d = DMatrix::from_vec(5, 11, data);
            let s = CsrMatrix::from_dense(&d);
            for (a, b) in s.matvec(&x).iter().zip(d.matvec(&x)) {
                prop_assert!((a - b).abs() < 1e-12, "{} vs {}", a, b);
            }
            // The transposed product sums in the dense order: equal bits.
            let y: Vec<f64> = x[..5].iter().map(|v| if *v < 0.0 { 0.0 } else { *v }).collect();
            prop_assert_eq!(s.t_matvec(&y), d.t_matvec(&y));
        }
    }
}
