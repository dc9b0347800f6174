//! Training: matrix assembly (Theorem 1) and weight solving (§4.2).
//!
//! [`IncrementalTrainer`] is the one trainer: the analytic solve of the
//! penalized QP (Problem 3). Its cold build assembles through the
//! grid-pruned SoA path ([`SubpopGrid`]); the naive all-pairs
//! transcription [`build_qp`] is kept as the equivalence reference of
//! `tests/assembly_equivalence.rs`. Between refines the trainer
//! keeps the Cholesky factor and the sparse constraint matrix: when the
//! subpopulation set is unchanged, a refine folds only the new queries'
//! `A` rows into the factor (in-place Givens updates) and solves with
//! two triangular substitutions, skipping both the O(n·m²) Gram rebuild
//! and the O(m³) factorization. The supports themselves are laid out
//! once per cold build and shared by the grid and every model the
//! trainer publishes, so a warm refine allocates only its weights.

use crate::assembly::SubpopGrid;
use crate::model::{Supports, UniformMixtureModel};
use crate::state::{StateError, TrainerState};
use quicksel_data::ObservedQuery;
use quicksel_geometry::Rect;
use quicksel_linalg::{CsrMatrix, DMatrix, LinalgError, QpProblem, UpdatableCholesky};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// True when this run reused the cached factor and constraint matrix
    /// instead of rebuilding from scratch.
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
/// The trainer itself assembles through the grid-pruned [`SubpopGrid`],
/// whose entries match these exactly; this O(m²·d) transcription is
/// retained as the equivalence-suite reference and the pre-optimization
/// bench baseline.
pub fn build_qp(subpops: &[Rect], queries: &[ObservedQuery]) -> QpProblem {
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

/// Analytic trainer with a cached factor for incremental refines.
///
/// [`cold`](Self::cold) runs the full pruned assembly + factorization
/// once and keeps what a refine cannot recompute cheaply: the factor of
/// `Q + λAᵀA + εI`, `A` as compressed sparse rows, `s` and `Aᵀs`. While
/// the subpopulation set is unchanged, [`refine`](Self::refine) appends
/// only the new queries' constraint rows `r`: each adds `λ·rᵀr` to the
/// system and folds into the factor as an in-place rank-1 update, and
/// history compaction folds evicted rows back out as downdates. `Q` and
/// `AᵀA` are pure functions of the supports and of `A`, so they are not
/// kept: where a downdate fails, the system is assembled fresh, `Q` from
/// the grid and `AᵀA` from `A`, and refactored.
///
/// The factor is the one m×m matrix held (128 MB at `m = 4000`), beside
/// the growing sparse constraint matrix; it trades memory for refine
/// latency by design.
#[derive(Debug, Clone)]
pub struct IncrementalTrainer {
    /// The grid over the shared supports, which every published model
    /// also holds.
    grid: SubpopGrid,
    a: CsrMatrix,
    s: Vec<f64>,
    /// `Aᵀs`, maintained as rows append.
    ats: Vec<f64>,
    /// Cholesky factor of `Q + λAᵀA + εI`, updated in place.
    factor: UpdatableCholesky,
    lambda: f64,
    /// Absolute ridge ε baked into the cached system at the cold build;
    /// refactors reuse it so the answered system never shifts mid-cache.
    ridge_abs: f64,
}

impl IncrementalTrainer {
    /// Full (cold) build: pruned assembly, Gram, factorization, solve.
    ///
    /// # Panics
    ///
    /// If `lambda` is not positive and finite, or if the supports
    /// disagree on dimensionality or one has zero volume.
    pub fn cold(
        subpops: Vec<Rect>,
        queries: &[ObservedQuery],
        lambda: f64,
        ridge_rel: f64,
    ) -> Result<(Self, UniformMixtureModel, TrainReport), LinalgError> {
        assert!(lambda > 0.0 && lambda.is_finite(), "λ must be positive and finite, got {lambda}");
        let m = subpops.len();
        let t0 = Instant::now();
        let grid = SubpopGrid::over(Arc::new(Supports::new(subpops)));
        let mut system = grid.assemble_q();
        // The dense `A` exists only for the Gram kernel, which the sparse
        // rows spare its scan for nonzeros.
        let (dense_a, a, s) = grid.assemble_a(queries);
        let gram = dense_a.gram_with_pattern(&a);
        let ats = a.t_matvec(&s);
        let assemble_time = t0.elapsed();

        let t1 = Instant::now();
        // `Q + λAᵀA`, formed in `Q`'s buffer; the Gram product and the
        // dense `A` are freed before the factorization. The absolute
        // ridge is derived once here (from this system's trace, exactly
        // like `solve_analytic`) and reused by every refactor, so all of
        // this trainer's refines answer for one well-defined system
        // `Q + λAᵀA + εI` — recomputing the trace-relative ridge as `A`
        // grows would silently switch systems between refactors. A cold
        // rebuild re-derives it.
        system.add_scaled(lambda, &gram);
        drop((gram, dense_a));
        let ridge_abs =
            if ridge_rel > 0.0 { system.trace() / m.max(1) as f64 * ridge_rel } else { 0.0 };
        if ridge_abs > 0.0 {
            system.add_diagonal(ridge_abs);
        }
        let factor = UpdatableCholesky::factor(system)?;
        let trainer = Self { grid, a, s, ats, factor, lambda, ridge_abs };
        let weights = trainer.solve_weights();
        let solve_time = t1.elapsed();

        let report = TrainReport {
            num_subpops: m,
            num_constraints: trainer.a.rows(),
            assemble_time,
            solve_time,
            constraint_violation: trainer.violation(&weights),
            assembly_reused: false,
            rows_appended: trainer.a.rows(),
            evicted_rows: 0,
            history_len: 0,
        };
        let model = trainer.publish(weights);
        Ok((trainer, model, report))
    }

    /// Factors `Q + λAᵀA + εI` assembled fresh: `Q` from the grid and
    /// `AᵀA` from `A` densified, through the cold build's Gram kernel
    /// and system expression.
    fn fresh_factor(
        grid: &SubpopGrid,
        a: &CsrMatrix,
        lambda: f64,
        ridge_abs: f64,
    ) -> Result<UpdatableCholesky, LinalgError> {
        let mut system = grid.assemble_q();
        system.add_scaled(lambda, &a.to_dense().gram_with_pattern(a));
        if ridge_abs > 0.0 {
            system.add_diagonal(ridge_abs);
        }
        UpdatableCholesky::factor(system)
    }

    /// A model of `weights` over the shared supports.
    fn publish(&self, weights: Vec<f64>) -> UniformMixtureModel {
        UniformMixtureModel::with_supports(Arc::clone(self.grid.supports()), weights)
    }

    fn solve_weights(&self) -> Vec<f64> {
        // rhs = λAᵀs
        let rhs: Vec<f64> = self.ats.iter().map(|v| v * self.lambda).collect();
        self.factor.solve(&rhs)
    }

    fn violation(&self, weights: &[f64]) -> f64 {
        let aw = self.a.matvec(weights);
        aw.iter().zip(&self.s).fold(0.0, |acc, (x, t)| acc.max((x - t).abs()))
    }

    /// Number of cached subpopulations `m`.
    pub fn subpop_count(&self) -> usize {
        self.grid.len()
    }

    /// The cached supports.
    pub fn subpops(&self) -> &[Rect] {
        self.grid.supports().rects()
    }

    /// Observed queries folded into the cached system so far (excluding
    /// the implicit `(B0, 1)` row).
    pub fn trained_queries(&self) -> usize {
        self.a.rows() - 1
    }

    /// Warm refine: folds `new_queries`' constraint rows into the cached
    /// factor and re-solves without reassembling Q/A, recomputing the
    /// Gram product, or refactoring.
    pub fn refine(&mut self, new_queries: &[ObservedQuery]) -> (UniformMixtureModel, TrainReport) {
        let m = self.grid.len();
        let t0 = Instant::now();
        let mut scratch = self.grid.scratch();
        // Constraint rows come out of the stateful grid scratch one at a
        // time and append to `A`/`s`; `Aᵀs` updates in query order, each
        // row's columns ascending. The dense rows are kept so the factor
        // can fold them as one batch.
        let mut rows_flat = vec![0.0; new_queries.len() * m];
        for (qi, query) in new_queries.iter().enumerate() {
            let row = &mut rows_flat[qi * m..(qi + 1) * m];
            self.grid.constraint_row_into(&query.rect, row, &mut scratch);
            for &j in scratch.nonzeros() {
                self.ats[j as usize] += query.selectivity * row[j as usize];
            }
            self.a.push_gathered(scratch.nonzeros(), row);
            self.s.push(query.selectivity);
        }
        self.factor.update(&rows_flat, self.lambda);
        let assemble_time = t0.elapsed();

        let t1 = Instant::now();
        let weights = self.solve_weights();
        let solve_time = t1.elapsed();

        let report = TrainReport {
            num_subpops: m,
            num_constraints: self.a.rows(),
            assemble_time,
            solve_time,
            constraint_violation: self.violation(&weights),
            assembly_reused: true,
            rows_appended: new_queries.len(),
            evicted_rows: 0,
            history_len: 0,
        };
        (self.publish(weights), report)
    }

    /// Applies one history-compaction edit to the cached system: the
    /// trained constraints at `replaced` and `removed` (0-based trained-
    /// query indices, excluding the implicit `(B0, 1)` row) fold *out*
    /// and the `merged` summary constraint folds *in*, keeping `A`/`s`
    /// aligned with the estimator's edited query history (`merged`
    /// overwrites `replaced` in place; `removed` is dropped with
    /// order-preserving shifting). The factor takes the merged row in
    /// before it downdates the two old ones out; a failed downdate
    /// refactors the edited system, assembled fresh.
    pub fn apply_history_edit(
        &mut self,
        replaced: usize,
        removed: usize,
        merged: &ObservedQuery,
    ) -> Result<(), LinalgError> {
        let n = self.trained_queries();
        assert!(replaced < n && removed < n && replaced != removed, "edit indices out of range");
        let m = self.grid.len();
        // Fold the two old constraint rows out of Aᵀs; they are densified
        // only for the factor downdates.
        let old_rows = [replaced, removed].map(|idx| self.a.dense_row(idx + 1));
        for idx in [replaced, removed] {
            let sv = self.s[idx + 1];
            let (cols, vals) = self.a.row(idx + 1);
            for (&j, &v) in cols.iter().zip(vals) {
                self.ats[j as usize] -= sv * v;
            }
        }
        // Fold the merged summary constraint in.
        let mut scratch = self.grid.scratch();
        let mut new_row = vec![0.0; m];
        self.grid.constraint_row_into(&merged.rect, &mut new_row, &mut scratch);
        for &j in scratch.nonzeros() {
            self.ats[j as usize] += merged.selectivity * new_row[j as usize];
        }
        // Keep A/s aligned with the edited history.
        self.a.replace_gathered(replaced + 1, scratch.nonzeros(), &new_row);
        self.s[replaced + 1] = merged.selectivity;
        self.a.remove_row(removed + 1);
        self.s.remove(removed + 1);
        self.factor.update(&new_row, self.lambda);
        if old_rows.iter().try_for_each(|row| self.factor.downdate(row, self.lambda)).is_err() {
            self.factor = Self::fresh_factor(&self.grid, &self.a, self.lambda, self.ridge_abs)?;
        }
        Ok(())
    }

    /// Captures the complete trainer state (supports, sparse constraint
    /// system, factor) for persistence. Restoring through
    /// [`try_from_state`](Self::try_from_state) yields a trainer whose
    /// refines are bit-identical to this one's.
    pub fn export_state(&self) -> TrainerState {
        TrainerState {
            subpops: self.subpops().to_vec(),
            a: self.a.clone(),
            s: self.s.clone(),
            ats: self.ats.clone(),
            factor_lower: self.factor.lower(),
            lambda: self.lambda,
            ridge_abs: self.ridge_abs,
        }
    }

    /// Rebuilds a trainer from an exported capture, validating every
    /// structural invariant first — mismatched shapes, non-finite
    /// entries, degenerate supports, or a λ that is not positive and
    /// finite reject with a typed [`StateError`] instead of panicking
    /// downstream. The shared supports and their grid are rebuilt
    /// deterministically from the captured rects, after validation, and
    /// the captured factor is adopted as it is.
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
        if !finite(state.a.values())
            || !finite(&state.s)
            || !finite(&state.ats)
            || !finite(state.factor_lower.as_slice())
        {
            return Err(invalid("trainer capture contains non-finite entries"));
        }
        if !(state.lambda > 0.0
            && state.lambda.is_finite()
            && state.ridge_abs.is_finite()
            && state.ridge_abs >= 0.0)
        {
            return Err(invalid("trainer capture has invalid lambda/ridge"));
        }
        let grid = SubpopGrid::over(Arc::new(Supports::new(state.subpops)));
        let factor = UpdatableCholesky::from_lower(state.factor_lower)
            .map_err(|_| invalid("captured Cholesky factor is not a valid lower triangle"))?;
        Ok(Self {
            grid,
            a: state.a,
            s: state.s,
            ats: state.ats,
            factor,
            lambda: state.lambda,
            ridge_abs: state.ridge_abs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_geometry::Domain;
    use quicksel_linalg::solve_analytic;

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    fn quadrant_queries() -> Vec<ObservedQuery> {
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

    /// The from-scratch reference: the analytic solve of the QP assembled
    /// over `subpops` and `queries`, as a fresh cold build computes it.
    fn scratch_weights(subpops: &[Rect], queries: &[ObservedQuery]) -> Vec<f64> {
        solve_analytic(&SubpopGrid::new(subpops).assemble_qp(queries), 1e6, 0.0).unwrap()
    }

    #[test]
    fn qp_shapes_and_symmetry() {
        let d = domain();
        let subs = grid_subpops(&d);
        let queries = quadrant_queries();
        let qp = build_qp(&subs, &queries);
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
        let queries = quadrant_queries();
        let naive = build_qp(&subs, &queries);
        let pruned = SubpopGrid::new(&subs).assemble_qp(&queries);
        assert!(naive.q.max_abs_diff(&pruned.q) <= 1e-12);
        assert!(naive.a.max_abs_diff(&pruned.a) <= 1e-12);
        assert_eq!(naive.s, pruned.s);
    }

    #[test]
    fn analytic_training_satisfies_observations() {
        let d = domain();
        let queries = quadrant_queries();
        let (_, model, report) =
            IncrementalTrainer::cold(grid_subpops(&d), &queries, 1e6, 0.0).unwrap();
        assert!(report.constraint_violation < 1e-3, "violation {}", report.constraint_violation);
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
    fn generalization_interpolates_quadrant() {
        let d = domain();
        let queries = quadrant_queries();
        let (_, model, _) = IncrementalTrainer::cold(grid_subpops(&d), &queries, 1e6, 0.0).unwrap();
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
        let (_, model, _) = IncrementalTrainer::cold(grid_subpops(&d), &[], 1e6, 0.0).unwrap();
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
        let all = quadrant_queries();
        let (first, rest) = all.split_at(1);

        // Cold on the first query, then warm refines folding the rest in
        // one at a time.
        let (mut trainer, _, cold_report) =
            IncrementalTrainer::cold(subs.clone(), first, 1e6, 0.0).unwrap();
        assert!(!cold_report.assembly_reused);
        let mut warm_model = None;
        for q in rest {
            let (model, report) = trainer.refine(std::slice::from_ref(q));
            assert!(report.assembly_reused);
            assert_eq!(report.rows_appended, 1);
            warm_model = Some(model);
        }
        assert_eq!(trainer.trained_queries(), all.len());

        // From-scratch solve over the same subpops and full query set.
        let warm_model = warm_model.unwrap();
        for (wi, ws) in warm_model.weights().iter().zip(&scratch_weights(&subs, &all)) {
            assert!((wi - ws).abs() < 1e-7, "incremental {wi} vs scratch {ws}");
        }
    }

    /// Whether the factor is bit for bit a factorization of the freshly
    /// assembled system, as after a fallback and never after an in-place
    /// edit.
    fn refactored(t: &IncrementalTrainer) -> bool {
        let fresh = IncrementalTrainer::fresh_factor(&t.grid, &t.a, t.lambda, t.ridge_abs);
        fresh.unwrap().lower().as_slice() == t.factor.lower().as_slice()
    }

    #[test]
    fn failed_downdate_refactors_from_the_updated_system() {
        // Swap in a factor of I, far below the real system: folding the
        // merged row in succeeds, but folding an old row out of
        // `I + λ·mmᵀ` meets a negative pivot. The edit must then answer
        // for the edited system, assembled fresh, as a fresh
        // factorization does.
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
        let (trainer, _, _) = IncrementalTrainer::cold(subs.clone(), &queries, 1e6, 0.0).unwrap();
        let mut state = trainer.export_state();
        state.factor_lower = DMatrix::identity(subs.len());
        let mut trainer = IncrementalTrainer::try_from_state(state).unwrap();
        let merged = ObservedQuery::new(queries[0].rect.hull(&queries[1].rect), 0.5);
        trainer.apply_history_edit(0, 1, &merged).unwrap();
        assert!(refactored(&trainer));
        queries[0] = merged;
        queries.remove(1);

        let (warm, _) = trainer.refine(&[]);
        let scratch = scratch_weights(&subs, &queries);
        let scale = scratch.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        for (wi, ws) in warm.weights().iter().zip(&scratch) {
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
            IncrementalTrainer::cold(subs.clone(), &queries, 1e6, 0.0).unwrap();
        let merged = ObservedQuery::new(queries[0].rect.hull(&queries[1].rect), {
            (queries[0].selectivity + queries[1].selectivity) / 2.0
        });
        trainer.apply_history_edit(0, 1, &merged).unwrap();
        assert_eq!(trainer.trained_queries(), queries.len() - 1);
        assert!(!refactored(&trainer), "the edit fell back to a refactor");

        let mut edited: Vec<ObservedQuery> = queries[2..].to_vec();
        edited.insert(0, merged);
        let (warm_model, _) = trainer.refine(&[]);
        for (wi, ws) in warm_model.weights().iter().zip(&scratch_weights(&subs, &edited)) {
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
        let (warm_model, _) = trainer.refine(&[]);
        for (wi, ws) in warm_model.weights().iter().zip(&scratch_weights(&subs, &current)) {
            assert!((wi - ws).abs() < 1e-5, "after many edits {wi} vs scratch {ws}");
        }
    }
}
