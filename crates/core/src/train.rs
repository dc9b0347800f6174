//! Training: matrix assembly (Theorem 1) and weight solving (§4.2).
//!
//! Two assembly paths exist: the naive all-pairs transcription
//! ([`build_qp`], kept as the equivalence reference and the
//! `train_throughput` bench's baseline) and the grid-pruned SoA path
//! ([`build_qp_pruned`] / [`SubpopGrid`]) that [`train`] and the
//! estimator use. On top of the cold path, [`IncrementalTrainer`] keeps
//! the assembled `Q`, `AᵀA`, and the Cholesky factor cached between
//! refines: when the subpopulation set is unchanged, a refine folds only
//! the new queries' `A` rows into `AᵀA` and into the factor (in-place
//! Givens updates) and solves with two triangular substitutions,
//! skipping both the O(n·m²) Gram rebuild and the O(m³) factorization.

use crate::assembly::SubpopGrid;
use crate::config::TrainingMethod;
use crate::model::UniformMixtureModel;
use crate::state::{StateError, TrainerState};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_linalg::{solve_analytic, AdmmQp, DMatrix, LinalgError, QpProblem, UpdatableCholesky};
use std::time::{Duration, Instant};

/// Minimum rank-k fold size `k·m` before the warm-refine gram update fans
/// out on the workspace pool; below this the serial sweep wins.
const PAR_MIN_FOLD: usize = 32 * 1024;

/// Minimum gram rows per parallel chunk in the rank-k fold.
const PAR_MIN_FOLD_ROWS: usize = 64;

/// Diagnostics from one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Number of subpopulations `m`.
    pub num_subpops: usize,
    /// Number of constraints (observed queries + the implicit `(B0, 1)`).
    pub num_constraints: usize,
    /// Time spent assembling `Q` and `A` (on a warm refine: folding the
    /// new rows into the cached system and its Cholesky factor).
    pub assemble_time: Duration,
    /// Time spent in the solver.
    pub solve_time: Duration,
    /// Constraint violation `‖Aw − s‖∞` of the returned weights.
    pub constraint_violation: f64,
    /// Iterations used (0 for the analytic path).
    pub iterations: usize,
    /// True when this run reused the cached assembly (`Q`, `AᵀA`, and
    /// the Cholesky factor) instead of rebuilding from scratch.
    pub assembly_reused: bool,
    /// Constraint rows appended by this run — the rank of the
    /// incremental update on a warm refine, or the full constraint count
    /// on a cold rebuild.
    pub rows_appended: usize,
    /// History entries evicted (merged away) since the previous report.
    /// Filled in by the estimator, which owns the history budget; plain
    /// trainer runs report 0.
    pub evicted_rows: usize,
    /// Retained feedback-history length at the time of this run (0 when
    /// the run came from a bare trainer with no estimator attached).
    pub history_len: usize,
}

/// Assembles the QP of Theorem 1 from subpopulation supports and observed
/// queries — the naive all-pairs reference implementation:
///
/// * `Q_ij = |G_i ∩ G_j| / (|G_i|·|G_j|)` — m×m, symmetric PSD,
/// * `A_ij = |B_i ∩ G_j| / |G_j|` — one row per constraint, with row 0 the
///   implicit full-domain query `(B0, 1)` (every weight fully inside `B0`),
/// * `s_i` — the observed selectivities.
///
/// The training path itself uses the grid-pruned [`build_qp_pruned`];
/// this O(m²·d) transcription is retained as the equivalence-suite
/// reference and the pre-optimization bench baseline.
pub fn build_qp(_domain: &Domain, subpops: &[Rect], queries: &[ObservedQuery]) -> QpProblem {
    let m = subpops.len();
    let n = queries.len() + 1; // +1 for (B0, 1)
    let inv_vol: Vec<f64> = subpops.iter().map(|g| 1.0 / g.volume()).collect();

    // Q matrix: symmetric, diagonal = 1/|G_i|.
    let mut q = DMatrix::zeros(m, m);
    for i in 0..m {
        q.set(i, i, inv_vol[i]);
        for j in (i + 1)..m {
            let inter = subpops[i].intersection_volume(&subpops[j]);
            if inter > 0.0 {
                let v = inter * inv_vol[i] * inv_vol[j];
                q.set(i, j, v);
                q.set(j, i, v);
            }
        }
    }

    // A matrix and rhs; row 0 is (B0, 1): subpops are clipped to B0 so the
    // overlap fraction is exactly 1.
    let mut a = DMatrix::zeros(n, m);
    let mut s = Vec::with_capacity(n);
    for j in 0..m {
        a.set(0, j, 1.0);
    }
    s.push(1.0);
    for (qi, query) in queries.iter().enumerate() {
        let row = a.row_mut(qi + 1);
        for j in 0..m {
            let inter = query.rect.intersection_volume(&subpops[j]);
            if inter > 0.0 {
                row[j] = inter * inv_vol[j];
            }
        }
        s.push(query.selectivity);
    }

    QpProblem::new(q, a, s).expect("assembled shapes are consistent by construction")
}

/// Grid-pruned SoA assembly of the same QP; entries match [`build_qp`]
/// exactly (see the [`crate::assembly`] module docs for the equivalence
/// contract).
pub fn build_qp_pruned(_domain: &Domain, subpops: &[Rect], queries: &[ObservedQuery]) -> QpProblem {
    SubpopGrid::new(subpops).assemble_qp(queries)
}

/// Trains a uniform mixture model on `subpops` against `queries`.
///
/// `method` selects the paper's analytic penalty solution or the iterative
/// standard-QP baseline; `lambda` and `ridge_rel` only apply to the
/// former. Assembly goes through the grid-pruned path either way.
pub fn train(
    domain: &Domain,
    subpops: Vec<Rect>,
    queries: &[ObservedQuery],
    method: TrainingMethod,
    lambda: f64,
    ridge_rel: f64,
) -> Result<(UniformMixtureModel, TrainReport), LinalgError> {
    let t0 = Instant::now();
    let qp = build_qp_pruned(domain, &subpops, queries);
    let assemble_time = t0.elapsed();

    let t1 = Instant::now();
    let (weights, iterations) = match method {
        TrainingMethod::AnalyticPenalty => (solve_analytic(&qp, lambda, ridge_rel)?, 0),
        TrainingMethod::StandardQp => {
            let report = AdmmQp::default().solve(&qp)?;
            (report.w, report.iterations)
        }
    };
    let solve_time = t1.elapsed();

    let report = TrainReport {
        num_subpops: subpops.len(),
        num_constraints: qp.num_constraints(),
        assemble_time,
        solve_time,
        constraint_violation: qp.constraint_violation(&weights),
        iterations,
        assembly_reused: false,
        rows_appended: qp.num_constraints(),
        evicted_rows: 0,
        history_len: 0,
    };
    Ok((UniformMixtureModel::new(subpops, weights), report))
}

/// Analytic trainer with cached assembly for incremental refines.
///
/// [`cold`](Self::cold) runs the full pruned assembly + factorization
/// once and keeps `Q`, `A`, `AᵀA`, `Aᵀs`, and the factor. While the
/// subpopulation set is unchanged, [`refine`](Self::refine) appends only
/// the new queries' constraint rows `r`: each adds `λ·rᵀr` to the
/// system and folds into the factor as an in-place rank-1 update, and
/// history compaction folds evicted rows back out as downdates. The
/// system `Q + λAᵀA + εI` is refactored only where an update cannot
/// apply: a downdate that fails, λ ≤ 0, or a restored capture that
/// still carries Woodbury pending rows.
///
/// The cache holds O(m²) state (three m×m matrices at `m = 4000` ≈
/// 384 MB) plus the growing n×m constraint matrix; it trades memory for
/// refine latency by design.
#[derive(Debug, Clone)]
pub struct IncrementalTrainer {
    subpops: Vec<Rect>,
    grid: SubpopGrid,
    q: DMatrix,
    a: DMatrix,
    s: Vec<f64>,
    /// `AᵀA`, maintained by rank-1 updates as rows append.
    gram: DMatrix,
    /// `Aᵀs`, maintained alongside.
    ats: Vec<f64>,
    /// Cholesky factor of `Q + λAᵀA + εI`, updated in place.
    factor: UpdatableCholesky,
    lambda: f64,
    /// Absolute ridge ε baked into the cached system at the cold build;
    /// refactors reuse it so the answered system never shifts mid-cache.
    ridge_abs: f64,
    warm_refines: usize,
}

impl IncrementalTrainer {
    /// Full (cold) build: pruned assembly, Gram, factorization, solve.
    pub fn cold(
        _domain: &Domain,
        subpops: Vec<Rect>,
        queries: &[ObservedQuery],
        lambda: f64,
        ridge_rel: f64,
    ) -> Result<(Self, UniformMixtureModel, TrainReport), LinalgError> {
        let m = subpops.len();
        let t0 = Instant::now();
        let grid = SubpopGrid::new(&subpops);
        let q = grid.assemble_q();
        let (a, s) = grid.assemble_a(queries);
        let gram = a.gram();
        let ats = a.t_matvec(&s);
        let assemble_time = t0.elapsed();

        let t1 = Instant::now();
        // The absolute ridge is derived once here (from the cold
        // system's trace, exactly like `solve_analytic`) and reused by
        // every refactor, so all of this trainer's refines answer for
        // one well-defined system `Q + λAᵀA + εI` — recomputing the
        // trace-relative ridge as the Gram grows would silently switch
        // systems between refactors. A cold rebuild re-derives it.
        let mut system = Self::system_matrix(&q, &gram, lambda, 0.0);
        let ridge_abs =
            if ridge_rel > 0.0 { system.trace() / m.max(1) as f64 * ridge_rel } else { 0.0 };
        if ridge_abs > 0.0 {
            system.add_diagonal(ridge_abs);
        }
        let factor = UpdatableCholesky::factor(system)?;
        let trainer =
            Self { subpops, grid, q, a, s, gram, ats, factor, lambda, ridge_abs, warm_refines: 0 };
        let weights = trainer.solve_weights();
        let solve_time = t1.elapsed();

        let report = TrainReport {
            num_subpops: m,
            num_constraints: trainer.a.rows(),
            assemble_time,
            solve_time,
            constraint_violation: trainer.violation(&weights),
            iterations: 0,
            assembly_reused: false,
            rows_appended: trainer.a.rows(),
            evicted_rows: 0,
            history_len: 0,
        };
        let model = UniformMixtureModel::new(trainer.subpops.clone(), weights);
        Ok((trainer, model, report))
    }

    /// `M = Q + λAᵀA + εI` (ε absolute), the same algebra as
    /// `solve_analytic` but fused into one pass over the two m×m
    /// operands (three 128 MB streams at m=4000 instead of five).
    fn system_matrix(q: &DMatrix, gram: &DMatrix, lambda: f64, ridge_abs: f64) -> DMatrix {
        let data: Vec<f64> =
            q.as_slice().iter().zip(gram.as_slice()).map(|(&qv, &gv)| qv + lambda * gv).collect();
        let mut system = DMatrix::from_vec(q.rows(), q.cols(), data);
        if ridge_abs > 0.0 {
            system.add_diagonal(ridge_abs);
        }
        system
    }

    fn solve_weights(&self) -> Vec<f64> {
        // rhs = λAᵀs
        let rhs: Vec<f64> = self.ats.iter().map(|v| v * self.lambda).collect();
        self.factor.solve(&rhs)
    }

    /// Refactors the exactly maintained system, for where an in-place
    /// update cannot apply (see the type docs).
    fn refactor(&mut self) -> Result<(), LinalgError> {
        let system = Self::system_matrix(&self.q, &self.gram, self.lambda, self.ridge_abs);
        self.factor = UpdatableCholesky::factor(system)?;
        Ok(())
    }

    fn violation(&self, weights: &[f64]) -> f64 {
        let aw = self.a.matvec(weights);
        aw.iter().zip(&self.s).fold(0.0, |acc, (x, t)| acc.max((x - t).abs()))
    }

    /// Number of cached subpopulations `m`.
    pub fn subpop_count(&self) -> usize {
        self.subpops.len()
    }

    /// The cached supports.
    pub fn subpops(&self) -> &[Rect] {
        &self.subpops
    }

    /// Observed queries folded into the cached system so far (excluding
    /// the implicit `(B0, 1)` row).
    pub fn trained_queries(&self) -> usize {
        self.a.rows() - 1
    }

    /// Warm refines served since the cold build.
    pub fn warm_refines(&self) -> usize {
        self.warm_refines
    }

    /// Warm refine: folds `new_queries`' constraint rows into the cached
    /// system and its factor and re-solves without reassembling Q/A,
    /// recomputing the Gram product, or refactoring.
    pub fn refine(
        &mut self,
        new_queries: &[ObservedQuery],
    ) -> Result<(UniformMixtureModel, TrainReport), LinalgError> {
        let m = self.subpops.len();
        let t0 = Instant::now();
        let mut scratch = self.grid.scratch();
        let mut row = vec![0.0; m];
        // Stage 1 (serial): constraint rows come out of the stateful grid
        // scratch one at a time and append to `A`/`s`. `Aᵀs` updates run
        // here in the original per-row order; the rows and their nonzero
        // lists are collected so `AᵀA` and the factor can fold them as
        // one batch.
        let k = new_queries.len();
        let mut rows_flat = Vec::with_capacity(k * m);
        let mut nz_flat: Vec<usize> = Vec::new();
        let mut nz_off = Vec::with_capacity(k + 1);
        nz_off.push(0);
        for query in new_queries {
            self.grid.constraint_row_into(&query.rect, &mut row, &mut scratch);
            self.a.push_row(&row);
            self.s.push(query.selectivity);
            for (i, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    nz_flat.push(i);
                    self.ats[i] += query.selectivity * v;
                }
            }
            nz_off.push(nz_flat.len());
            rows_flat.extend_from_slice(&row);
        }
        // Stage 2: the k rank-1 symmetric updates of `AᵀA`, batched into
        // one rank-k fold that partitions gram rows across the workspace
        // pool. Per gram entry the additions still run in query order, so
        // the fold is bit-identical to the serial per-row sweep.
        // Stage 3: the same rows fold into the factor. Non-positive λ
        // refactors instead: `λ·rᵀr` is then no positive update, while a
        // refactor of `Q + λAᵀA` is exact for any λ.
        if k > 0 {
            fold_rank_k_into_gram(&mut self.gram, &rows_flat, &nz_flat, &nz_off, m);
        }
        if self.lambda > 0.0 {
            self.factor.update(&rows_flat, self.lambda);
        } else {
            self.refactor()?;
        }
        let assemble_time = t0.elapsed();

        let t1 = Instant::now();
        let weights = self.solve_weights();
        let solve_time = t1.elapsed();
        self.warm_refines += 1;

        let report = TrainReport {
            num_subpops: m,
            num_constraints: self.a.rows(),
            assemble_time,
            solve_time,
            constraint_violation: self.violation(&weights),
            iterations: 0,
            assembly_reused: true,
            rows_appended: new_queries.len(),
            evicted_rows: 0,
            history_len: 0,
        };
        Ok((UniformMixtureModel::new(self.subpops.clone(), weights), report))
    }

    /// Applies one history-compaction edit to the cached system: the
    /// trained constraints at `replaced` and `removed` (0-based trained-
    /// query indices, excluding the implicit `(B0, 1)` row) fold *out*
    /// and the `merged` summary constraint folds *in*, keeping `A`/`s`
    /// aligned with the estimator's edited query history (`merged`
    /// overwrites `replaced` in place; `removed` is dropped with
    /// order-preserving shifting). The factor takes the merged row in
    /// before it downdates the two old ones out; a failed downdate
    /// refactors the system, which is already updated by then.
    pub fn apply_history_edit(
        &mut self,
        replaced: usize,
        removed: usize,
        merged: &ObservedQuery,
    ) -> Result<(), LinalgError> {
        let n = self.trained_queries();
        assert!(replaced < n && removed < n && replaced != removed, "edit indices out of range");
        let m = self.subpops.len();
        // Fold the two old constraint rows out of AᵀA / Aᵀs.
        let old_rows = [replaced, removed].map(|idx| self.a.row(idx + 1).to_vec());
        for (idx, row) in [replaced, removed].into_iter().zip(&old_rows) {
            let sv = self.s[idx + 1];
            for (i, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    self.ats[i] -= sv * v;
                }
            }
            rank_one_gram(&mut self.gram, row, -1.0);
        }
        // Fold the merged summary constraint in.
        let mut scratch = self.grid.scratch();
        let mut new_row = vec![0.0; m];
        self.grid.constraint_row_into(&merged.rect, &mut new_row, &mut scratch);
        for (i, &v) in new_row.iter().enumerate() {
            if v != 0.0 {
                self.ats[i] += merged.selectivity * v;
            }
        }
        rank_one_gram(&mut self.gram, &new_row, 1.0);
        // Keep A/s aligned with the edited history.
        self.a.row_mut(replaced + 1).copy_from_slice(&new_row);
        self.s[replaced + 1] = merged.selectivity;
        self.a.remove_row(removed + 1);
        self.s.remove(removed + 1);
        if self.lambda <= 0.0 {
            return self.refactor();
        }
        self.factor.update(&new_row, self.lambda);
        if old_rows.iter().try_for_each(|row| self.factor.downdate(row, self.lambda)).is_err() {
            self.refactor()?;
        }
        Ok(())
    }

    /// Captures the complete trainer state (supports, assembled system,
    /// factor) for persistence; it carries no pending rows. Restoring
    /// through [`try_from_state`](Self::try_from_state) yields a trainer
    /// whose refines are bit-identical to this one's.
    pub fn export_state(&self) -> TrainerState {
        TrainerState {
            subpops: self.subpops.clone(),
            q: self.q.clone(),
            a: self.a.clone(),
            s: self.s.clone(),
            gram: self.gram.clone(),
            ats: self.ats.clone(),
            factor_lower: self.factor.lower(),
            // Older builds restore a Woodbury solver from this field,
            // which needs a positive scale.
            solver_scale: if self.lambda > 0.0 { self.lambda } else { 1.0 },
            pending_rows: Vec::new(),
            pending_solved: Vec::new(),
            pending_signs: Vec::new(),
            pending_rank: 0,
            lambda: self.lambda,
            ridge_abs: self.ridge_abs,
            warm_refines: self.warm_refines,
        }
    }

    /// Rebuilds a trainer from an exported capture, validating every
    /// structural invariant first — mismatched shapes, non-finite
    /// entries, or degenerate supports reject with a typed
    /// [`StateError`] instead of panicking downstream. The subpopulation
    /// grid is rebuilt deterministically from the captured supports. A
    /// capture that still carries Woodbury pending rows (written before
    /// factors were updated in place) refactors its captured system.
    pub fn try_from_state(state: TrainerState) -> Result<Self, StateError> {
        let invalid = |context: &'static str| StateError::Invalid { context };
        let m = state.subpops.len();
        if m == 0 {
            return Err(invalid("trainer capture has no subpopulations"));
        }
        let dim = state.subpops[0].dim();
        for r in &state.subpops {
            if r.dim() != dim {
                return Err(invalid("trainer supports disagree on dimensionality"));
            }
            let v = r.volume();
            if !(v.is_finite() && v > 0.0) {
                return Err(invalid("trainer support has non-positive volume"));
            }
        }
        if state.q.rows() != m || state.q.cols() != m {
            return Err(invalid("Q shape does not match the subpopulation count"));
        }
        if state.gram.rows() != m || state.gram.cols() != m {
            return Err(invalid("AᵀA shape does not match the subpopulation count"));
        }
        if state.a.cols() != m {
            return Err(invalid("A width does not match the subpopulation count"));
        }
        if state.a.rows() != state.s.len() || state.a.rows() == 0 {
            return Err(invalid("A height does not match the selectivity vector"));
        }
        if state.ats.len() != m {
            return Err(invalid("Aᵀs length does not match the subpopulation count"));
        }
        if state.factor_lower.rows() != m || state.factor_lower.cols() != m {
            return Err(invalid("factor shape does not match the subpopulation count"));
        }
        let finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
        if !finite(state.q.as_slice())
            || !finite(state.gram.as_slice())
            || !finite(state.a.as_slice())
            || !finite(&state.s)
            || !finite(&state.ats)
        {
            return Err(invalid("trainer capture contains non-finite entries"));
        }
        if !(state.lambda.is_finite() && state.ridge_abs.is_finite() && state.ridge_abs >= 0.0) {
            return Err(invalid("trainer capture has invalid lambda/ridge"));
        }
        let pending = state.pending_rank > 0 || !state.pending_rows.is_empty();
        let factor = if pending {
            let system = Self::system_matrix(&state.q, &state.gram, state.lambda, state.ridge_abs);
            UpdatableCholesky::factor(system)
                .map_err(|_| invalid("captured system with pending rows does not factor"))?
        } else {
            UpdatableCholesky::from_lower(state.factor_lower)
                .map_err(|_| invalid("captured Cholesky factor is not a valid lower triangle"))?
        };
        let grid = SubpopGrid::new(&state.subpops);
        Ok(Self {
            subpops: state.subpops,
            grid,
            q: state.q,
            a: state.a,
            s: state.s,
            gram: state.gram,
            ats: state.ats,
            factor,
            lambda: state.lambda,
            ridge_abs: state.ridge_abs,
            warm_refines: state.warm_refines,
        })
    }
}

/// One signed symmetric rank-1 update `gram += sign·rᵀr`, restricted to
/// the row's nonzero support. Used by history eviction, where edits
/// arrive one merge at a time and the parallel batched fold would not
/// pay for itself.
fn rank_one_gram(gram: &mut DMatrix, row: &[f64], sign: f64) {
    let nz: Vec<usize> =
        row.iter().enumerate().filter(|&(_, &v)| v != 0.0).map(|(i, _)| i).collect();
    for &i in &nz {
        let ri = sign * row[i];
        let g_row = gram.row_mut(i);
        for &j in &nz {
            g_row[j] += ri * row[j];
        }
    }
}

/// Folds `k` constraint rows into `gram += Σ_r r_rᵀ r_r` as one rank-k
/// symmetric update, partitioning gram rows across the workspace pool.
///
/// **Exactness contract** (the PR-3/PR-5 discipline): for every gram
/// entry `(i, j)` the contributions accumulate in query order
/// `r = 0..k` — the same per-entry addition order as the serial rank-1
/// sweep — and chunks write disjoint row slabs, so the fold compares
/// equal (`==`) to the serial path at any thread count.
fn fold_rank_k_into_gram(
    gram: &mut DMatrix,
    rows_flat: &[f64],
    nz_flat: &[usize],
    nz_off: &[usize],
    m: usize,
) {
    let k = nz_off.len() - 1;
    let pool = quicksel_parallel::current();
    let pieces = if k * m >= PAR_MIN_FOLD { pool.chunks_for(m, PAR_MIN_FOLD_ROWS) } else { 1 };
    pool.scope_slabs(gram.as_mut_slice(), m, pieces, |range, slab| {
        for i in range.clone() {
            let g_row = &mut slab[(i - range.start) * m..(i - range.start) * m + m];
            for r in 0..k {
                let row = &rows_flat[r * m..(r + 1) * m];
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for &j in &nz_flat[nz_off[r]..nz_off[r + 1]] {
                    g_row[j] += ri * row[j];
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_geometry::Domain;

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    fn quadrant_queries(_d: &Domain) -> Vec<ObservedQuery> {
        // Data entirely in the lower-left quadrant.
        vec![
            ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 1.0),
            ObservedQuery::new(Rect::from_bounds(&[(5.0, 10.0), (0.0, 10.0)]), 0.0),
            ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 2.5)]), 0.5),
        ]
    }

    fn grid_subpops(d: &Domain) -> Vec<Rect> {
        // 4×4 grid of overlapping boxes covering the domain.
        let mut v = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let cx = 1.25 + 2.5 * i as f64;
                let cy = 1.25 + 2.5 * j as f64;
                v.push(
                    Rect::from_bounds(&[(cx - 1.5, cx + 1.5), (cy - 1.5, cy + 1.5)])
                        .clamp_to(&d.full_rect()),
                );
            }
        }
        v
    }

    #[test]
    fn qp_shapes_and_symmetry() {
        let d = domain();
        let subs = grid_subpops(&d);
        let queries = quadrant_queries(&d);
        let qp = build_qp(&d, &subs, &queries);
        assert_eq!(qp.num_params(), 16);
        assert_eq!(qp.num_constraints(), 4); // 3 + B0 row
        for i in 0..16 {
            // Diagonal = 1/|G_i| > 0.
            assert!(qp.q.get(i, i) > 0.0);
            for j in 0..16 {
                assert!((qp.q.get(i, j) - qp.q.get(j, i)).abs() < 1e-12);
                assert!(qp.q.get(i, j) >= 0.0);
            }
        }
        // A row 0 is all ones (supports clipped inside B0).
        for j in 0..16 {
            assert_eq!(qp.a.get(0, j), 1.0);
        }
        // A entries are overlap fractions in [0, 1].
        for i in 0..4 {
            for j in 0..16 {
                let v = qp.a.get(i, j);
                assert!((0.0..=1.0 + 1e-12).contains(&v), "A[{i}][{j}] = {v}");
            }
        }
        assert_eq!(qp.s[0], 1.0);
    }

    #[test]
    fn pruned_qp_matches_naive_reference() {
        let d = domain();
        let subs = grid_subpops(&d);
        let queries = quadrant_queries(&d);
        let naive = build_qp(&d, &subs, &queries);
        let pruned = build_qp_pruned(&d, &subs, &queries);
        assert!(naive.q.max_abs_diff(&pruned.q) <= 1e-12);
        assert!(naive.a.max_abs_diff(&pruned.a) <= 1e-12);
        assert_eq!(naive.s, pruned.s);
    }

    #[test]
    fn analytic_training_satisfies_observations() {
        let d = domain();
        let queries = quadrant_queries(&d);
        let (model, report) =
            train(&d, grid_subpops(&d), &queries, TrainingMethod::AnalyticPenalty, 1e6, 0.0)
                .unwrap();
        assert!(report.constraint_violation < 1e-3, "violation {}", report.constraint_violation);
        assert_eq!(report.iterations, 0);
        assert!(!report.assembly_reused);
        assert_eq!(report.rows_appended, report.num_constraints);
        // The model reproduces each training selectivity.
        for q in &queries {
            let est = model.estimate(&q.rect);
            assert!((est - q.selectivity).abs() < 1e-2, "est {est} vs true {}", q.selectivity);
        }
        // Total mass ≈ 1 from the (B0, 1) row.
        assert!((model.total_weight() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn standard_qp_training_agrees_with_analytic() {
        let d = domain();
        let queries = quadrant_queries(&d);
        let (ma, _) =
            train(&d, grid_subpops(&d), &queries, TrainingMethod::AnalyticPenalty, 1e6, 0.0)
                .unwrap();
        let (ms, rs) =
            train(&d, grid_subpops(&d), &queries, TrainingMethod::StandardQp, 1e6, 0.0).unwrap();
        assert!(rs.iterations > 0, "ADMM must iterate");
        // Both models should reproduce the training constraints.
        for q in &queries {
            assert!((ms.estimate(&q.rect) - q.selectivity).abs() < 2e-2);
            assert!((ma.estimate(&q.rect) - ms.estimate(&q.rect)).abs() < 5e-2);
        }
    }

    #[test]
    fn generalization_interpolates_quadrant() {
        let d = domain();
        let queries = quadrant_queries(&d);
        let (model, _) =
            train(&d, grid_subpops(&d), &queries, TrainingMethod::AnalyticPenalty, 1e6, 0.0)
                .unwrap();
        // Unseen query inside the data quadrant should estimate high…
        let inside = Rect::from_bounds(&[(0.0, 5.0), (2.5, 5.0)]);
        // (true value would be 0.5 for uniform-in-quadrant data)
        let e_in = model.estimate(&inside);
        assert!(e_in > 0.3, "inside estimate {e_in}");
        // …and a query in the empty quadrant should estimate low.
        let outside = Rect::from_bounds(&[(6.0, 9.0), (6.0, 9.0)]);
        let e_out = model.estimate(&outside);
        assert!(e_out < 0.15, "outside estimate {e_out}");
    }

    #[test]
    fn training_with_no_queries_spreads_mass_uniformly() {
        let d = domain();
        let (model, _) =
            train(&d, grid_subpops(&d), &[], TrainingMethod::AnalyticPenalty, 1e6, 0.0).unwrap();
        assert!((model.total_weight() - 1.0).abs() < 1e-4);
        // Symmetric supports + only the (B0,1) constraint ⇒ roughly equal
        // per-quadrant mass.
        let q1 = model.estimate(&Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]));
        let q2 = model.estimate(&Rect::from_bounds(&[(5.0, 10.0), (5.0, 10.0)]));
        assert!((q1 - q2).abs() < 0.05, "q1={q1} q2={q2}");
    }

    #[test]
    fn incremental_refine_matches_from_scratch() {
        let d = domain();
        let subs = grid_subpops(&d);
        let all = quadrant_queries(&d);
        let (first, rest) = all.split_at(1);

        // Cold on the first query, then warm refines folding the rest in
        // one at a time.
        let (mut trainer, _, cold_report) =
            IncrementalTrainer::cold(&d, subs.clone(), first, 1e6, 0.0).unwrap();
        assert!(!cold_report.assembly_reused);
        let mut warm_model = None;
        for q in rest {
            let (model, report) = trainer.refine(std::slice::from_ref(q)).unwrap();
            assert!(report.assembly_reused);
            assert_eq!(report.rows_appended, 1);
            warm_model = Some(model);
        }
        assert_eq!(trainer.trained_queries(), all.len());
        assert_eq!(trainer.warm_refines(), rest.len());

        // From-scratch rebuild over the same subpops and full query set.
        let (scratch_model, _) =
            train(&d, subs, &all, TrainingMethod::AnalyticPenalty, 1e6, 0.0).unwrap();
        let warm_model = warm_model.unwrap();
        for (wi, ws) in warm_model.weights().iter().zip(scratch_model.weights()) {
            assert!((wi - ws).abs() < 1e-7, "incremental {wi} vs scratch {ws}");
        }
    }

    #[test]
    fn zero_lambda_degenerate_setting_still_trains_incrementally() {
        // λ = 0 is the no-penalty degenerate setting the one-shot path
        // accepts (rhs = 0 ⇒ all-zero weights); the incremental trainer
        // must reproduce it instead of erroring, via the always-refactor
        // warm path.
        let d = domain();
        let subs = grid_subpops(&d);
        let queries = quadrant_queries(&d);
        let (scratch, _) =
            train(&d, subs.clone(), &queries, TrainingMethod::AnalyticPenalty, 0.0, 0.0).unwrap();
        let (mut trainer, _, _) =
            IncrementalTrainer::cold(&d, subs, &queries[..1], 0.0, 0.0).unwrap();
        let (warm_model, report) = trainer.refine(&queries[1..]).unwrap();
        assert!(report.assembly_reused);
        for (a, b) in warm_model.weights().iter().zip(scratch.weights()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// Whether the factor is bit for bit a refactor of the maintained
    /// system, as after a fallback and never after an in-place edit.
    fn refactored(trainer: &IncrementalTrainer) -> bool {
        let t = trainer;
        let system = IncrementalTrainer::system_matrix(&t.q, &t.gram, t.lambda, t.ridge_abs);
        UpdatableCholesky::factor(system).unwrap().lower().as_slice() == t.factor.lower().as_slice()
    }

    #[test]
    fn failed_downdate_refactors_from_the_updated_system() {
        // Swap in a factor of I, far below the real system: folding the
        // merged row in succeeds, but folding an old row out of
        // `I + λ·mmᵀ` meets a negative pivot. The edit must then answer
        // for the edited system as a fresh factorization does.
        let d = domain();
        let subs = grid_subpops(&d);
        let mut queries: Vec<ObservedQuery> = (0..12)
            .map(|i| {
                let (x, y) = ((i * 37 % 70) as f64 * 0.1, (i * 53 % 60) as f64 * 0.1);
                let w = 1.0 + (i % 6) as f64 * 0.5;
                let rect = Rect::from_bounds(&[(x, (x + w).min(10.0)), (y, (y + w).min(10.0))]);
                ObservedQuery::new(rect, (i * 17 % 11) as f64 / 20.0)
            })
            .collect();
        let (trainer, _, _) =
            IncrementalTrainer::cold(&d, subs.clone(), &queries, 1e6, 0.0).unwrap();
        let mut state = trainer.export_state();
        state.factor_lower = DMatrix::identity(subs.len());
        let mut trainer = IncrementalTrainer::try_from_state(state).unwrap();
        let merged = ObservedQuery::new(queries[0].rect.hull(&queries[1].rect), 0.5);
        trainer.apply_history_edit(0, 1, &merged).unwrap();
        assert!(refactored(&trainer));
        queries[0] = merged;
        queries.remove(1);

        let (warm, _) = trainer.refine(&[]).unwrap();
        let (scratch, _) =
            train(&d, subs, &queries, TrainingMethod::AnalyticPenalty, 1e6, 0.0).unwrap();
        let scale = scratch.weights().iter().fold(0.0f64, |m, w| m.max(w.abs()));
        for (wi, ws) in warm.weights().iter().zip(scratch.weights()) {
            assert!((wi - ws).abs() < 1e-8 * scale, "refactored {wi} vs scratch {ws}");
        }
    }

    #[test]
    fn history_edit_matches_from_scratch_on_edited_queries() {
        // Fold 40 queries in cold, merge the oldest two into a bounding-box
        // summary via the factor downdate path (in place, not through the
        // refactor fallback), and demand the warm re-solve matches a
        // from-scratch train over the edited history.
        let d = domain();
        let subs = grid_subpops(&d);
        let queries: Vec<ObservedQuery> = (0..40)
            .map(|i| {
                let lo = (i % 5) as f64;
                ObservedQuery::new(
                    Rect::from_bounds(&[(lo, lo + 3.0), (0.5 * (i % 4) as f64, 7.0)]),
                    ((i % 4) as f64) * 0.25,
                )
            })
            .collect();
        let (mut trainer, _, _) =
            IncrementalTrainer::cold(&d, subs.clone(), &queries, 1e6, 0.0).unwrap();
        let merged = ObservedQuery::new(queries[0].rect.hull(&queries[1].rect), {
            (queries[0].selectivity + queries[1].selectivity) / 2.0
        });
        trainer.apply_history_edit(0, 1, &merged).unwrap();
        assert_eq!(trainer.trained_queries(), queries.len() - 1);
        assert!(!refactored(&trainer), "the edit fell back to a refactor");

        let mut edited: Vec<ObservedQuery> = queries[2..].to_vec();
        edited.insert(0, merged);
        let (warm_model, _) = trainer.refine(&[]).unwrap();
        let (scratch_model, _) =
            train(&d, subs.clone(), &edited, TrainingMethod::AnalyticPenalty, 1e6, 0.0).unwrap();
        for (wi, ws) in warm_model.weights().iter().zip(scratch_model.weights()) {
            assert!((wi - ws).abs() < 1e-6, "edited {wi} vs scratch {ws}");
        }

        // Many more edits keep matching too.
        let mut current = edited.clone();
        for _ in 0..14 {
            let merged = ObservedQuery::new(current[0].rect.hull(&current[1].rect), {
                (current[0].selectivity + current[1].selectivity) / 2.0
            });
            trainer.apply_history_edit(0, 1, &merged).unwrap();
            assert!(!refactored(&trainer), "the edit fell back to a refactor");
            current.remove(1);
            current[0] = merged;
            if current.len() < 2 {
                break;
            }
        }
        let (warm_model, _) = trainer.refine(&[]).unwrap();
        let (scratch_model, _) =
            train(&d, subs, &current, TrainingMethod::AnalyticPenalty, 1e6, 0.0).unwrap();
        for (wi, ws) in warm_model.weights().iter().zip(scratch_model.weights()) {
            assert!((wi - ws).abs() < 1e-5, "after many edits {wi} vs scratch {ws}");
        }
    }
}
