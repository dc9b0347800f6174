//! Pruned SoA assembly of the training QP (Theorem 1).
//!
//! The naive transcription of §4.2 assembles `Q` by evaluating
//! `intersection_volume` for **all** m² subpopulation pairs through
//! bounds-checked `DMatrix::set` calls, and every `A` row against all m
//! supports. But §3.3 sizes subpopulations from nearest-neighbour
//! distances precisely so that each support only *slightly* overlaps its
//! neighbours — at `m = 4000` the overwhelming majority of pairs are
//! disjoint by construction, and the naive loop spends its time proving
//! zeros.
//!
//! [`SubpopGrid`] bins the supports into a uniform spatial grid (~one
//! cell per subpopulation) and reads their bounds from the
//! dimension-major columns of the shared support set that the trainer's
//! models and the batched kernel also read (see [`crate::model`]). Q's
//! assembly then only visits *candidate* pairs — pairs sharing at least
//! one grid cell, a superset of the overlapping pairs — and writes rows
//! through slices; `A` rows gather candidates the same way. The upper
//! triangle is assembled first and mirrored in cache-friendly tiles.
//!
//! # Equivalence contract
//!
//! Every matrix entry the pruned path writes is computed with the same
//! per-dimension `(hi.min(q_hi) - lo.max(q_lo)).max(0.0)` product, in
//! the same dimension order and term association, as
//! [`Rect::intersection_volume`]; pairs the grid prunes are exactly the
//! pairs whose overlap is zero, where the naive path writes nothing
//! (leaving the zero from `DMatrix::zeros`). The assembled `Q`/`A`
//! therefore match the naive [`build_qp`](crate::train::build_qp) to
//! ≤1e-12 (in practice: bit-for-bit) — `tests/assembly_equivalence.rs`
//! pins this on random models including touching, degenerate, and
//! clamped-edge supports.
//!
//! # Parallel assembly
//!
//! Both assembly loops fan out on the workspace pool
//! ([`quicksel_parallel::current`]) when the row count clears the
//! parallel gate (`PAR_MIN_ROWS`): `Q`'s rows and `A`'s constraint rows are written
//! through **disjoint contiguous row slabs** (one deterministic chunk
//! per task, each with its own [`GridScratch`]), and the symmetric
//! mirror partitions by *target* row — writes land strictly in the
//! lower triangle while reads come strictly from the upper, so no cell
//! is ever touched twice. Per-row arithmetic is byte-for-byte the
//! serial loop's, so parallel output equals serial output exactly
//! (`tests/parallel_equivalence.rs` pins this at several thread
//! counts); with one thread (or small `m`) the original serial loops
//! run unchanged.

use crate::model::Supports;
use quicksel_data::ObservedQuery;
use quicksel_geometry::Rect;
use quicksel_linalg::{CsrMatrix, DMatrix, QpProblem};
use quicksel_parallel::SharedSlice;
use std::sync::Arc;

/// Tile edge for the symmetric mirror pass (upper → lower triangle).
const MIRROR_TILE: usize = 64;

/// Minimum rows per parallel chunk in the assembly loops: below this
/// the per-task dispatch (plus a fresh [`GridScratch`]) costs more than
/// the rows it covers, so smaller jobs stay on the serial path.
const PAR_MIN_ROWS: usize = 32;

/// Subpopulation supports binned into a uniform spatial grid, over the
/// shared support columns. See the module docs.
#[derive(Debug, Clone)]
pub struct SubpopGrid {
    /// The supports: bound columns and `1 / |G_z|`, the latter exactly
    /// as the naive assembly computes it.
    supports: Arc<Supports>,
    /// Cells per dimension.
    res: Vec<usize>,
    /// Flattened-index stride per dimension (last dimension contiguous).
    stride: Vec<usize>,
    /// Grid origin (bounding-box lower corner) per dimension.
    origin: Vec<f64>,
    /// Reciprocal cell width per dimension (0 for zero-extent dims).
    inv_w: Vec<f64>,
    /// CSR cell lists: subpops overlapping cell `c` are
    /// `items[start[c]..start[c + 1]]`.
    start: Vec<usize>,
    items: Vec<u32>,
}

/// Reusable scratch for candidate gathering — one per assembly loop, so
/// per-row gathers allocate nothing.
#[derive(Debug, Clone)]
pub struct GridScratch {
    stamp: Vec<u32>,
    tick: u32,
    /// Gathered candidate subpopulation indexes (deduplicated).
    cand: Vec<u32>,
    /// The last constraint row's nonzero columns, ascending.
    nz: Vec<u32>,
    /// One bit per subpopulation, marking the nonzero columns of the row
    /// being filled; all clear between rows.
    nz_bits: Vec<u64>,
    clo: Vec<usize>,
    chi: Vec<usize>,
    cur: Vec<usize>,
}

impl GridScratch {
    /// The nonzero columns, ascending, of the row the last
    /// [`SubpopGrid::constraint_row_into`] call filled.
    pub fn nonzeros(&self) -> &[u32] {
        &self.nz
    }
}

impl SubpopGrid {
    /// Lays `subpops` out as a support set of their own and bins it into
    /// a grid of roughly one cell per subpopulation (`res ≈ m^(1/d)` per
    /// dimension).
    ///
    /// # Panics
    /// Panics when the supports disagree on dimensionality or one has
    /// zero volume.
    pub fn new(subpops: &[Rect]) -> Self {
        Self::over(Arc::new(Supports::new(subpops.to_vec())))
    }

    /// Bins shared `supports` (see [`new`](Self::new)).
    pub(crate) fn over(supports: Arc<Supports>) -> Self {
        let len = supports.len();
        let dim = supports.dim();

        // Bounding box over all supports.
        let mut origin = vec![0.0; dim];
        let mut extent = vec![0.0; dim];
        for d in 0..dim {
            let col_lo = &supports.lo()[d * len..(d + 1) * len];
            let col_hi = &supports.hi()[d * len..(d + 1) * len];
            let mn = col_lo.iter().copied().fold(f64::INFINITY, f64::min);
            let mx = col_hi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            origin[d] = mn;
            extent[d] = (mx - mn).max(0.0);
        }

        // ~one cell per subpopulation, capped so pathological inputs
        // cannot blow the cell table up.
        let per_dim = if dim == 0 || len == 0 {
            1
        } else {
            ((len as f64).powf(1.0 / dim as f64).round() as usize).clamp(1, 1024)
        };
        let mut res = vec![1usize; dim.max(1)];
        res.truncate(dim.max(1));
        let mut total: usize = 1;
        for d in 0..dim {
            let r = if extent[d] > 0.0 { per_dim } else { 1 };
            res[d] = r;
            total = total.saturating_mul(r);
        }
        // Shrink if the cap still left too many cells (deep dimensions).
        while total > 4 * len.max(16) {
            let (dmax, _) = res.iter().enumerate().max_by_key(|(_, &r)| r).expect("non-empty res");
            if res[dmax] == 1 {
                break;
            }
            total = total / res[dmax] * (res[dmax] / 2).max(1);
            res[dmax] = (res[dmax] / 2).max(1);
        }
        let mut stride = vec![1usize; dim.max(1)];
        for d in (0..dim.saturating_sub(1)).rev() {
            stride[d] = stride[d + 1] * res[d + 1];
        }
        let inv_w: Vec<f64> = (0..dim)
            .map(|d| if extent[d] > 0.0 { res[d] as f64 / extent[d] } else { 0.0 })
            .collect();

        let mut grid =
            Self { supports, res, stride, origin, inv_w, start: Vec::new(), items: Vec::new() };
        grid.fill_cells();
        grid
    }

    /// Two-pass CSR fill: count cell coverage per subpop, then place.
    fn fill_cells(&mut self) {
        let (len, dim) = (self.len(), self.dim());
        let cells = self.cell_count();
        let mut counts = vec![0usize; cells + 1];
        let mut clo = vec![0usize; dim.max(1)];
        let mut chi = vec![0usize; dim.max(1)];
        let mut cur = vec![0usize; dim.max(1)];
        for z in 0..len {
            self.subpop_cell_range(z, &mut clo, &mut chi);
            for_each_cell(&self.stride[..dim], &clo, &chi, &mut cur, |c| {
                counts[c + 1] += 1;
            });
        }
        for c in 0..cells {
            counts[c + 1] += counts[c];
        }
        let mut items = vec![0u32; counts[cells]];
        let mut cursor = counts.clone();
        for z in 0..len {
            self.subpop_cell_range(z, &mut clo, &mut chi);
            for_each_cell(&self.stride[..dim], &clo, &chi, &mut cur, |c| {
                items[cursor[c]] = z as u32;
                cursor[c] += 1;
            });
        }
        self.start = counts;
        self.items = items;
    }

    /// Number of subpopulations `m`.
    pub fn len(&self) -> usize {
        self.supports.len()
    }

    /// True when the grid indexes no subpopulations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the supports (0 for an empty set).
    pub fn dim(&self) -> usize {
        self.supports.dim()
    }

    /// The shared supports this grid indexes.
    pub(crate) fn supports(&self) -> &Arc<Supports> {
        &self.supports
    }

    /// Total grid cells.
    fn cell_count(&self) -> usize {
        if self.dim() == 0 {
            1
        } else {
            self.res[..self.dim()].iter().product()
        }
    }

    /// Fresh scratch sized for this grid.
    pub fn scratch(&self) -> GridScratch {
        let (len, dim) = (self.len(), self.dim());
        GridScratch {
            stamp: vec![0; len],
            tick: 0,
            cand: Vec::with_capacity(64),
            nz: Vec::with_capacity(64),
            nz_bits: vec![0; len.div_ceil(64)],
            clo: vec![0; dim.max(1)],
            chi: vec![0; dim.max(1)],
            cur: vec![0; dim.max(1)],
        }
    }

    /// Cell index of coordinate `x` along dimension `d`, clamped into
    /// the grid.
    #[inline]
    fn cell_of(&self, d: usize, x: f64) -> usize {
        let t = (x - self.origin[d]) * self.inv_w[d];
        if t > 0.0 {
            (t as usize).min(self.res[d] - 1)
        } else {
            0 // also absorbs NaN from 0·∞-free inputs
        }
    }

    fn subpop_cell_range(&self, z: usize, clo: &mut [usize], chi: &mut [usize]) {
        let s = &*self.supports;
        let (m, lo, hi) = (s.len(), s.lo(), s.hi());
        for d in 0..s.dim() {
            clo[d] = self.cell_of(d, lo[d * m + z]);
            chi[d] = self.cell_of(d, hi[d * m + z]);
        }
    }

    /// `|G_i ∩ G_j|`: same per-dimension product (and early exit on a
    /// zero factor) as [`Rect::intersection_volume`].
    #[inline]
    fn pair_overlap(s: &Supports, i: usize, j: usize) -> f64 {
        let (m, lo, hi) = (s.len(), s.lo(), s.hi());
        let mut v = 1.0;
        for d in 0..s.dim() {
            let base = d * m;
            let h = hi[base + i].min(hi[base + j]);
            let l = lo[base + i].max(lo[base + j]);
            v *= (h - l).max(0.0);
            if v == 0.0 {
                return 0.0;
            }
        }
        v
    }

    /// `|B ∩ G_j|` for a probe rectangle, matching
    /// `rect.intersection_volume(&subpops[j])` exactly.
    #[inline]
    fn rect_overlap(s: &Supports, rect: &Rect, j: usize) -> f64 {
        let (m, lo, hi) = (s.len(), s.lo(), s.hi());
        let mut v = 1.0;
        for (d, side) in rect.sides().iter().enumerate() {
            let base = d * m;
            let h = side.hi.min(hi[base + j]);
            let l = side.lo.max(lo[base + j]);
            v *= (h - l).max(0.0);
            if v == 0.0 {
                return 0.0;
            }
        }
        v
    }

    /// Gathers the deduplicated subpop indexes sharing at least one cell
    /// with the cell range in `scratch.clo/chi` into `scratch.cand`.
    fn gather_cells(&self, scratch: &mut GridScratch) {
        scratch.cand.clear();
        if scratch.tick == u32::MAX {
            scratch.stamp.fill(0);
            scratch.tick = 0;
        }
        scratch.tick += 1;
        let tick = scratch.tick;
        let GridScratch { stamp, cand, clo, chi, cur, .. } = scratch;
        for_each_cell(&self.stride[..self.dim()], clo, chi, cur, |c| {
            for &z in &self.items[self.start[c]..self.start[c + 1]] {
                let zi = z as usize;
                if stamp[zi] != tick {
                    stamp[zi] = tick;
                    cand.push(z);
                }
            }
        });
    }

    /// Assembles the full symmetric `Q` matrix
    /// (`Q_ij = |G_i∩G_j|/(|G_i||G_j|)`, diagonal `1/|G_i|`): candidate
    /// pairs from the grid, slice row writes, upper triangle first, then
    /// a tiled mirror.
    pub fn assemble_q(&self) -> DMatrix {
        let m = self.len();
        let mut q = DMatrix::zeros(m, m);
        let pool = quicksel_parallel::current();
        // Candidate-pair tiles write disjoint row slabs, so the fan-out
        // is bit-identical to the serial sweep.
        let pieces = pool.chunks_for(m, PAR_MIN_ROWS);
        pool.scope_slabs(q.as_mut_slice(), m, pieces, |rows, slab| {
            let mut scratch = self.scratch();
            for (k, i) in rows.enumerate() {
                self.q_row_upper(i, &mut slab[k * m..(k + 1) * m], &mut scratch);
            }
        });
        self.mirror_upper_to_lower(q.as_mut_slice(), &pool);
        q
    }

    /// Fills row `i`'s diagonal and strict upper triangle (`j > i`),
    /// exactly as one iteration of the serial assembly sweep.
    fn q_row_upper(&self, i: usize, row: &mut [f64], scratch: &mut GridScratch) {
        self.subpop_cell_range(i, &mut scratch.clo, &mut scratch.chi);
        self.gather_cells(scratch);
        let s = &*self.supports;
        let inv_vol = s.inv_volumes();
        row[i] = inv_vol[i];
        for &zj in &scratch.cand {
            let j = zj as usize;
            if j <= i {
                continue;
            }
            let inter = Self::pair_overlap(s, i, j);
            if inter > 0.0 {
                row[j] = inter * inv_vol[i] * inv_vol[j];
            }
        }
    }

    /// Mirrors the upper triangle into the lower one in cache-friendly
    /// tiles, partitioned by *target* row across the pool: every write
    /// lands strictly below the diagonal while every read comes
    /// strictly from above it, so concurrent chunks never touch the
    /// same cell (pure copies — any order yields the same matrix).
    fn mirror_upper_to_lower(&self, data: &mut [f64], pool: &quicksel_parallel::ThreadPool) {
        let m = self.len();
        let shared = SharedSlice::new(data);
        let shared = &shared;
        // SAFETY: `run_chunks` hands out disjoint target-row ranges
        // (inline over the full range in the serial case) — see
        // `mirror_rows`'s contract.
        pool.run_chunks(m, PAR_MIN_ROWS * 2, |range| unsafe { mirror_rows(shared, m, range) });
    }

    /// Fills one `A` row (`A_j = |B∩G_j|/|G_j|`) for a predicate
    /// rectangle: zeroes the row, then writes only grid candidates. Wide
    /// rectangles covering most of the grid fall back to the dense scan
    /// (same values, no gather overhead). The written columns are left,
    /// ascending, in [`GridScratch::nonzeros`].
    pub fn constraint_row_into(&self, rect: &Rect, row: &mut [f64], scratch: &mut GridScratch) {
        let s = &*self.supports;
        assert_eq!(row.len(), s.len(), "constraint row length must be m");
        assert!(
            s.len() == 0 || rect.dim() == s.dim(),
            "constraint rect dimensionality {} does not match the supports' {}",
            rect.dim(),
            s.dim()
        );
        row.fill(0.0);
        scratch.nz.clear();
        if s.len() == 0 {
            return;
        }
        let inv_vol = s.inv_volumes();
        let mut covered: usize = 1;
        for d in 0..s.dim() {
            let side = rect.side(d);
            scratch.clo[d] = self.cell_of(d, side.lo.min(side.hi));
            scratch.chi[d] = self.cell_of(d, side.hi.max(side.lo));
            covered = covered.saturating_mul(scratch.chi[d] - scratch.clo[d] + 1);
        }
        if covered * 2 >= self.cell_count() {
            for (j, r) in row.iter_mut().enumerate() {
                let inter = Self::rect_overlap(s, rect, j);
                if inter > 0.0 {
                    *r = inter * inv_vol[j];
                    scratch.nz.push(j as u32);
                }
            }
            return;
        }
        self.gather_cells(scratch);
        for &zj in &scratch.cand {
            let j = zj as usize;
            let inter = Self::rect_overlap(s, rect, j);
            if inter > 0.0 {
                row[j] = inter * inv_vol[j];
                scratch.nz_bits[j / 64] |= 1 << (j % 64);
            }
        }
        // Candidates arrive in cell-visit order; reading the marks back
        // word by word lists the columns ascending, and clears them.
        for (w, word) in scratch.nz_bits.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                scratch.nz.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Assembles the constraint matrix `A` (row 0 the implicit `(B0, 1)`
    /// all-ones row), dense and as compressed sparse rows, and the
    /// observed-selectivity rhs `s`. Each row's sparse form comes from
    /// the columns its grid pass wrote, so nothing rescans the dense `A`.
    pub fn assemble_a(&self, queries: &[ObservedQuery]) -> (DMatrix, CsrMatrix, Vec<f64>) {
        let m = self.len();
        let n = queries.len() + 1;
        let mut a = DMatrix::zeros(n, m);
        let mut s = Vec::with_capacity(n);
        a.row_mut(0).fill(1.0);
        s.push(1.0);
        let pool = quicksel_parallel::current();
        // Grid-pruned rows write disjoint slabs of A (row 0 is the
        // implicit all-ones row, already written above); each slab
        // returns its rows' sparse form, appended in slab order.
        let pieces = pool.chunks_for(queries.len(), PAR_MIN_ROWS);
        let slabs = pool.scope_slabs(&mut a.as_mut_slice()[m..], m, pieces, |rows, slab| {
            let mut scratch = self.scratch();
            let mut part = CsrMatrix::new(m);
            for (k, qi) in rows.enumerate() {
                let row = &mut slab[k * m..(k + 1) * m];
                self.constraint_row_into(&queries[qi].rect, row, &mut scratch);
                part.push_gathered(scratch.nonzeros(), row);
            }
            part
        });
        let nnz = m + slabs.iter().map(CsrMatrix::nnz).sum::<usize>();
        let mut sparse = CsrMatrix::with_capacity(m, n, nnz);
        sparse.push_gathered(&(0..m as u32).collect::<Vec<_>>(), a.row(0));
        for part in &slabs {
            sparse.append(part);
        }
        s.extend(queries.iter().map(|q| q.selectivity));
        (a, sparse, s)
    }

    /// Assembles the whole training QP; the pruned equivalent of the
    /// naive [`build_qp`](crate::train::build_qp).
    pub fn assemble_qp(&self, queries: &[ObservedQuery]) -> QpProblem {
        let q = self.assemble_q();
        let (a, _, s) = self.assemble_a(queries);
        QpProblem::new(q, a, s).expect("assembled shapes are consistent by construction")
    }
}

/// Copies the strict upper triangle into the lower one for the target
/// rows `j ∈ rows`, in [`MIRROR_TILE`]-sized tiles. Every write is a
/// strict-lower cell `(j, i)` with `j` in `rows`; every read is a
/// strict-upper cell `(i, j)` — no mirror invocation writes those.
///
/// # Safety
/// Concurrent callers over the same matrix must use disjoint `rows`
/// ranges and must not otherwise access the matrix.
unsafe fn mirror_rows(data: &SharedSlice<'_, f64>, m: usize, rows: std::ops::Range<usize>) {
    let mut j0 = rows.start;
    while j0 < rows.end {
        let jmax = (j0 + MIRROR_TILE).min(rows.end);
        let mut i0 = 0;
        while i0 < jmax {
            let imax = (i0 + MIRROR_TILE).min(jmax);
            for i in i0..imax {
                for j in j0.max(i + 1)..jmax {
                    let v = data.get(i * m + j);
                    if v != 0.0 {
                        data.set(j * m + i, v);
                    }
                }
            }
            i0 = imax;
        }
        j0 = jmax;
    }
}

/// Odometer iteration over the flattened indexes of the cell box
/// `[clo, chi]` (inclusive); `cur` is caller scratch.
fn for_each_cell(
    stride: &[usize],
    clo: &[usize],
    chi: &[usize],
    cur: &mut [usize],
    mut f: impl FnMut(usize),
) {
    let d = stride.len();
    if d == 0 {
        f(0);
        return;
    }
    cur[..d].copy_from_slice(&clo[..d]);
    loop {
        let flat: usize = (0..d).map(|k| cur[k] * stride[k]).sum();
        f(flat);
        // Increment the odometer, last dimension fastest.
        let mut k = d;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            cur[k] += 1;
            if cur[k] <= chi[k] {
                break;
            }
            cur[k] = clo[k];
            if k == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::build_qp;
    use quicksel_geometry::Domain;

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    fn grid_subpops() -> Vec<Rect> {
        let d = domain();
        let mut v = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let cx = 0.85 + 1.66 * i as f64;
                let cy = 0.85 + 1.66 * j as f64;
                v.push(
                    Rect::from_bounds(&[(cx - 1.1, cx + 1.1), (cy - 1.1, cy + 1.1)])
                        .clamp_to(&d.full_rect()),
                );
            }
        }
        v
    }

    #[test]
    fn pruned_q_matches_naive_exactly() {
        let subs = grid_subpops();
        let queries = vec![
            ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.5),
            ObservedQuery::new(Rect::from_bounds(&[(2.0, 2.0), (0.0, 10.0)]), 0.0), // degenerate
            ObservedQuery::new(Rect::from_bounds(&[(-5.0, 0.0), (0.0, 5.0)]), 0.0), // touching edge
            ObservedQuery::new(Rect::from_bounds(&[(20.0, 30.0), (20.0, 30.0)]), 0.0), // disjoint
        ];
        let naive = build_qp(&subs, &queries);
        let pruned = SubpopGrid::new(&subs).assemble_qp(&queries);
        assert_eq!(naive.q.max_abs_diff(&pruned.q), 0.0, "Q diverged");
        assert_eq!(naive.a.max_abs_diff(&pruned.a), 0.0, "A diverged");
        assert_eq!(naive.s, pruned.s);
    }

    #[test]
    fn empty_and_single_subpop() {
        let grid = SubpopGrid::new(&[]);
        assert!(grid.is_empty());
        assert_eq!(grid.assemble_q().rows(), 0);

        let one = vec![Rect::from_bounds(&[(0.0, 2.0), (0.0, 2.0)])];
        let grid = SubpopGrid::new(&one);
        let q = grid.assemble_q();
        assert_eq!(q.rows(), 1);
        assert!((q.get(0, 0) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn wide_probe_takes_dense_path_with_same_values() {
        let subs = grid_subpops();
        let grid = SubpopGrid::new(&subs);
        let wide = Rect::from_bounds(&[(-100.0, 100.0), (-100.0, 100.0)]);
        let mut scratch = grid.scratch();
        let mut row = vec![0.0; subs.len()];
        grid.constraint_row_into(&wide, &mut row, &mut scratch);
        for (j, r) in row.iter().enumerate() {
            let inter = wide.intersection_volume(&subs[j]);
            assert_eq!(*r, inter * (1.0 / subs[j].volume()));
        }
    }

    #[test]
    fn identical_supports_share_cells() {
        // Duplicated supports (sampling can repeat centers) must still
        // produce the full pairwise overlap structure.
        let r = Rect::from_bounds(&[(1.0, 3.0), (1.0, 3.0)]);
        let subs = vec![r.clone(), r.clone(), r];
        let q = SubpopGrid::new(&subs).assemble_q();
        let naive = build_qp(&subs, &[]);
        assert_eq!(naive.q.max_abs_diff(&q), 0.0);
    }
}
