//! The [`QuickSel`] estimator: observation buffer + refine loop.

use crate::config::{QuickSelConfig, RefinePolicy};
use crate::model::UniformMixtureModel;
use crate::snapshot::ModelSnapshot;
use crate::state::{QuickSelState, StateError};
use crate::subpop::{build_subpopulations, workload_points};
use crate::train::{IncrementalTrainer, TrainReport};
use quicksel_data::{
    Estimate, EstimatorError, Learn, ObservedQuery, RefineOutcome, SnapshotSource,
};
use quicksel_geometry::{Domain, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Query-driven selectivity learner backed by a uniform mixture model.
///
/// Feed it `(predicate, actual selectivity)` pairs with
/// [`observe_batch`](Learn::observe_batch) (or the single-query
/// [`observe`](Learn::observe) convenience); depending on the configured
/// [`RefinePolicy`] it retrains after each batch, once `k` observations
/// accumulate, or only on explicit [`refine`](QuickSel::refine) calls.
/// Estimates come from the last trained model; before any training, the
/// estimator falls back to the uniform prior `|B ∩ B0| / |B0|`.
///
/// Training is fallible: explicit `refine` calls return the typed
/// [`EstimatorError`], and failures of *automatic* refines inside
/// `observe_batch` keep the previous model and are recorded in
/// [`last_error`](QuickSel::last_error) instead of being discarded.
///
/// For concurrent serving, [`snapshot`](QuickSel::snapshot) freezes the
/// current model into a cheap, immutable [`ModelSnapshot`] that answers
/// [`Estimate`] queries from any number of threads.
pub struct QuickSel {
    domain: Arc<Domain>,
    config: QuickSelConfig,
    queries: Vec<ObservedQuery>,
    /// Workload-aware points, `points_per_query` per observation (§3.3
    /// step 1); generated once at observe time so refines are stable.
    point_pool: Vec<Vec<f64>>,
    model: Option<Arc<UniformMixtureModel>>,
    rng: StdRng,
    pending_since_refine: usize,
    last_report: Option<TrainReport>,
    last_error: Option<EstimatorError>,
    version: u64,
    /// Cached training state (Cholesky factor, sparse `A`, `Aᵀs`).
    /// Present after a successful cold refine; serves warm incremental
    /// refines while the subpopulation budget is unchanged.
    trainer: Option<IncrementalTrainer>,
    /// Pool points held per query, parallel to `queries` (the pool is
    /// their concatenation, in query order).
    point_counts: Vec<u32>,
    /// Length of the compacted summary prefix of `queries`: entries
    /// `0..compacted_len` are merged summaries of evicted history.
    compacted_len: usize,
    /// Members folded into each compacted entry (`compacted_len` long).
    compact_counts: Vec<u64>,
    /// History entries evicted (merged away) over this estimator's life.
    evicted_total: u64,
    /// Evictions since the last successful refine; surfaced through
    /// [`TrainReport::evicted_rows`] and reset at install.
    evicted_since_refine: usize,
    /// Cold resamples forced by the drift detector.
    drift_resamples: u64,
    /// EWMA baseline of warm-refine constraint violation (NaN = unset).
    violation_ewma: f64,
    /// Consecutive warm refines whose violation broke the drift ratio.
    drift_strikes: u32,
    /// The drift detector demands the next refine resample cold.
    force_cold: bool,
    /// History was edited (evictions) since the last refine — the model
    /// is stale even with nothing pending.
    history_dirty: bool,
    /// The last refine kept the prior on all-degenerate feedback; that
    /// feedback is consumed, so later refines return cheaply instead of
    /// re-running the full rebuild just to fail again.
    prior_kept: bool,
}

/// Neighbours averaged when sizing a subpopulation: the paper's k
/// (§3.3 step 3).
const SIZE_NEIGHBORS: usize = 10;

/// Drift trigger: a warm refine whose constraint violation exceeds this
/// multiple of the violation baseline counts as a drift strike.
const DRIFT_RATIO: f64 = 3.0;

/// Smoothing factor of the warm-refine violation baseline.
const DRIFT_EWMA_ALPHA: f64 = 0.2;

/// Violations below this floor never count as drift — a near-zero
/// baseline would otherwise turn ordinary solver noise into strikes.
const DRIFT_VIOLATION_FLOOR: f64 = 1e-4;

impl QuickSel {
    /// Creates an estimator with the paper-default configuration.
    pub fn new(domain: Domain) -> Self {
        Self::with_config(domain, QuickSelConfig::default())
    }

    /// Creates an estimator with an explicit configuration.
    ///
    /// # Panics
    ///
    /// If `config.lambda` is not positive and finite.
    pub fn with_config(domain: Domain, config: QuickSelConfig) -> Self {
        let lambda = config.lambda;
        assert!(lambda > 0.0 && lambda.is_finite(), "λ must be positive and finite, got {lambda}");
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            domain: Arc::new(domain),
            config,
            queries: Vec::new(),
            point_pool: Vec::new(),
            model: None,
            rng,
            pending_since_refine: 0,
            last_report: None,
            last_error: None,
            version: 0,
            trainer: None,
            point_counts: Vec::new(),
            compacted_len: 0,
            compact_counts: Vec::new(),
            evicted_total: 0,
            evicted_since_refine: 0,
            drift_resamples: 0,
            violation_ewma: f64::NAN,
            drift_strikes: 0,
            force_cold: false,
            history_dirty: false,
            prior_kept: false,
        }
    }

    /// Starts a fluent configuration, e.g.
    ///
    /// ```
    /// use quicksel_core::{QuickSel, RefinePolicy};
    /// use quicksel_geometry::Domain;
    ///
    /// let domain = Domain::of_reals(&[("x", 0.0, 1.0)]);
    /// let qs = QuickSel::builder(domain)
    ///     .refine_policy(RefinePolicy::EveryK(100))
    ///     .lambda(1e6)
    ///     .seed(7)
    ///     .build();
    /// assert_eq!(qs.config().seed, 7);
    /// ```
    pub fn builder(domain: Domain) -> QuickSelBuilder {
        QuickSelBuilder { domain, config: QuickSelConfig::default() }
    }

    /// The estimator's domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The active configuration.
    pub fn config(&self) -> &QuickSelConfig {
        &self.config
    }

    /// Number of queries observed so far.
    pub fn observed_count(&self) -> usize {
        self.queries.len()
    }

    /// The observed queries so far, in arrival order.
    pub fn observed(&self) -> &[ObservedQuery] {
        &self.queries
    }

    /// Observations ingested since the last successful refine.
    pub fn pending_feedback(&self) -> usize {
        self.pending_since_refine
    }

    /// Retained feedback-history length (≤ `config.max_history`; merged
    /// summaries count as one entry each).
    pub fn history_len(&self) -> usize {
        self.queries.len()
    }

    /// History entries evicted (merged away) over this estimator's
    /// lifetime.
    pub fn evicted_rows(&self) -> u64 {
        self.evicted_total
    }

    /// Cold resamples forced by the drift detector so far.
    pub fn drift_resamples(&self) -> u64 {
        self.drift_resamples
    }

    /// Diagnostics from the most recent training run.
    pub fn last_report(&self) -> Option<&TrainReport> {
        self.last_report.as_ref()
    }

    /// The current model, if trained.
    pub fn model(&self) -> Option<&UniformMixtureModel> {
        self.model.as_deref()
    }

    /// Training version: 0 before the first successful refine, then
    /// incremented by each retrain.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The most recent training failure from an automatic refine inside
    /// `observe_batch` (or an explicit [`refine`](Self::refine) call).
    /// Cleared by the next successful refine.
    pub fn last_error(&self) -> Option<&EstimatorError> {
        self.last_error.as_ref()
    }

    /// Freezes the current model into an immutable, cheaply-cloneable
    /// snapshot for lock-free concurrent estimation.
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::new(
            Arc::clone(&self.domain),
            self.model.clone(),
            self.version,
            self.queries.len(),
        )
    }

    /// Retrains the mixture model on everything observed so far.
    ///
    /// A **cold** refine runs the full §3.3 + §4 pipeline: sample
    /// `m = min(4n, 4000)` centers from the workload point pool, size
    /// their supports, assemble the QP, solve it analytically. While the
    /// subpopulation budget `m` is unchanged, a **warm** refine reuses
    /// the cached supports and factor and folds only the new queries in
    /// as a rank-k update — orders of magnitude cheaper;
    /// [`last_report`](Self::last_report) records which path fired via
    /// `assembly_reused`/`rows_appended`, and the returned
    /// [`RefineOutcome::Retrained`] carries the `incremental` flag. The
    /// supports stay frozen until the drift detector (see
    /// [`QuickSelConfig::drift_patience`]) forces a cold resample.
    ///
    /// Returns [`RefineOutcome::UpToDate`] when there is nothing new to
    /// learn, [`RefineOutcome::KeptPrior`] when all observed predicates
    /// were degenerate, and a typed [`EstimatorError`] when the solver
    /// fails (the previous model is kept in that case).
    pub fn refine(&mut self) -> Result<RefineOutcome, EstimatorError> {
        self.enforce_history_budget();
        if self.queries.is_empty() {
            return Ok(RefineOutcome::UpToDate);
        }
        if self.pending_since_refine == 0 && !self.history_dirty {
            if self.model.is_some() {
                return Ok(RefineOutcome::UpToDate);
            }
            if self.prior_kept {
                // Everything observed so far was degenerate and has
                // already been consumed by a KeptPrior refine.
                return Ok(RefineOutcome::KeptPrior);
            }
        }
        let m = self.config.target_subpops(self.queries.len());
        if let Some(trainer) = self.trainer.as_mut().filter(|t| {
            !self.force_cold && t.subpop_count() == m && t.trained_queries() <= self.queries.len()
        }) {
            let (model, report) = trainer.refine(&self.queries[trainer.trained_queries()..]);
            return Ok(self.install(model, report, true));
        }

        let subpops = build_subpopulations(
            &self.domain,
            &self.point_pool,
            m,
            SIZE_NEIGHBORS,
            self.config.overlap_factor,
            &mut self.rng,
        );
        if subpops.is_empty() {
            // All observed predicates were degenerate; keep the prior and
            // mark the feedback consumed — retrying the full rebuild on
            // the same degenerate pool could never succeed.
            self.pending_since_refine = 0;
            self.history_dirty = false;
            self.prior_kept = true;
            return Ok(RefineOutcome::KeptPrior);
        }
        // A cold rebuild replaces (or, on failure, discards) any cached
        // trainer — a stale cache can never be legitimately reused and
        // would only pin O(m²) dead state.
        self.trainer = None;
        match IncrementalTrainer::cold(
            subpops,
            &self.queries,
            self.config.lambda,
            self.config.ridge_rel,
        ) {
            Ok((trainer, model, report)) => {
                self.trainer = Some(trainer);
                Ok(self.install(model, report, false))
            }
            Err(e) => {
                let err = EstimatorError::from(e);
                self.last_error = Some(err.clone());
                Err(err)
            }
        }
    }

    /// Publishes a freshly-trained model and its report.
    fn install(
        &mut self,
        model: UniformMixtureModel,
        mut report: TrainReport,
        incremental: bool,
    ) -> RefineOutcome {
        report.evicted_rows = self.evicted_since_refine;
        report.history_len = self.queries.len();
        self.evicted_since_refine = 0;
        self.update_drift(report.constraint_violation, incremental);
        let outcome = RefineOutcome::Retrained {
            params: model.len(),
            constraints: report.num_constraints,
            incremental,
        };
        self.model = Some(Arc::new(model));
        self.last_report = Some(report);
        self.pending_since_refine = 0;
        self.history_dirty = false;
        self.prior_kept = false;
        self.last_error = None;
        self.version += 1;
        outcome
    }

    /// Tracks the constraint-violation trend across refines. A warm
    /// refine whose violation breaks `DRIFT_RATIO ×` the EWMA baseline
    /// counts as a strike; `drift_patience` consecutive strikes force
    /// the next refine cold (resampling supports against the current
    /// workload). Cold rebuilds clear the baseline — it re-seeds from
    /// the *first warm* refine afterwards, because cold-fit violations
    /// (few pending rows, freshly placed supports) sit an order of
    /// magnitude below warm ones and would make every stable workload
    /// look like drift. A stable workload therefore lets warm refines
    /// run indefinitely.
    fn update_drift(&mut self, violation: f64, incremental: bool) {
        if !incremental {
            self.violation_ewma = f64::NAN;
            self.drift_strikes = 0;
            self.force_cold = false;
            return;
        }
        if self.config.drift_patience == usize::MAX || !violation.is_finite() {
            return;
        }
        let baseline = self.violation_ewma;
        if baseline.is_nan() {
            self.violation_ewma = violation;
            return;
        }
        if violation > DRIFT_RATIO * baseline.max(DRIFT_VIOLATION_FLOOR) {
            self.drift_strikes += 1;
            if self.drift_strikes as usize >= self.config.drift_patience.max(1) {
                self.force_cold = true;
                self.drift_resamples += 1;
                self.drift_strikes = 0;
            }
        } else {
            self.drift_strikes = 0;
            self.violation_ewma =
                DRIFT_EWMA_ALPHA * violation + (1.0 - DRIFT_EWMA_ALPHA) * baseline;
        }
    }

    /// Cap on the compacted summary prefix: an eighth of the budget,
    /// but at least 2 so a merge pair always exists.
    fn compact_prefix_cap(budget: usize) -> usize {
        (budget / 8).max(2)
    }

    /// Enforces `config.max_history` by merge-oldest compaction: the
    /// oldest entries graduate into a bounded summary prefix, and within
    /// that prefix the adjacent pair whose bounding box inflates least
    /// is merged (hull rect, inclusion–exclusion selectivity) until the
    /// history fits the budget. Merging never consumes the RNG and the
    /// pool is downsampled deterministically, so replayed feedback
    /// streams stay bit-exact; with `max_history = usize::MAX` this is
    /// a no-op by construction.
    fn enforce_history_budget(&mut self) {
        let budget = self.config.max_history.max(1);
        while self.queries.len() > budget {
            let cap = Self::compact_prefix_cap(budget).min(self.queries.len());
            while self.compacted_len < cap {
                self.compact_counts.push(1);
                self.compacted_len += 1;
            }
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for i in 0..self.compacted_len - 1 {
                let a = &self.queries[i].rect;
                let b = &self.queries[i + 1].rect;
                let cost = a.hull(b).volume() - a.volume() - b.volume();
                if cost < best_cost {
                    best_cost = cost;
                    best = i;
                }
            }
            self.merge_history_pair(best);
        }
    }

    /// Merges history entries `i` and `i + 1` (both inside the compacted
    /// prefix) into one summary constraint, keeping the trainer's cached
    /// system, the point pool, and all bookkeeping aligned.
    fn merge_history_pair(&mut self, i: usize) {
        let j = i + 1;
        let merged_rect = self.queries[i].rect.hull(&self.queries[j].rect);
        // Mass is additive, so the hull's selectivity is estimated by
        // inclusion–exclusion (overlap mass approximated as uniform
        // within each box), clamped into the bracket every union obeys:
        // at least the bigger member, at most the sum. A count-weighted
        // *mean* here would be badly wrong — as summaries grow toward
        // the domain their constraint would fight the implicit `(B0, 1)`
        // row, deflating the whole model.
        let (sa, sb) = (self.queries[i].selectivity, self.queries[j].selectivity);
        let (va, vb) = (self.queries[i].rect.volume(), self.queries[j].rect.volume());
        let vi = self.queries[i].rect.intersection_volume(&self.queries[j].rect);
        let overlap = if va > 0.0 && vb > 0.0 { 0.5 * (sa * vi / va + sb * vi / vb) } else { 0.0 };
        let merged_sel = (sa + sb - overlap).clamp(sa.max(sb), (sa + sb).min(1.0)).clamp(0.0, 1.0);
        let merged = ObservedQuery::new(merged_rect, merged_sel);

        // Mirror the edit into the trainer's cached system when both
        // entries are already folded in. A pair straddling the trained
        // boundary (only possible when refines lag far behind ingest)
        // cannot be edited consistently — drop the cache and let the
        // next refine rebuild cold.
        let trained = self.trainer.as_ref().map_or(0, |t| t.trained_queries());
        if j < trained {
            let edit_ok = self
                .trainer
                .as_mut()
                .expect("trained > 0 implies a trainer")
                .apply_history_edit(i, j, &merged)
                .is_ok();
            if !edit_ok {
                self.trainer = None;
            }
        } else if i < trained {
            self.trainer = None;
        } else {
            // Both entries were still pending; the merged one still is.
            self.pending_since_refine = self.pending_since_refine.saturating_sub(1);
        }

        // Splice the pool: the two spans are adjacent, so their union is
        // contiguous; downsample it deterministically (strided — no RNG)
        // back to the per-query point budget.
        let off: usize = self.point_counts[..i].iter().map(|&c| c as usize).sum();
        let total = self.point_counts[i] as usize + self.point_counts[j] as usize;
        let keep = total.min(self.config.points_per_query);
        if keep < total {
            let kept: Vec<Vec<f64>> =
                (0..keep).map(|t| self.point_pool[off + t * total / keep].clone()).collect();
            self.point_pool.splice(off..off + total, kept);
        }
        self.point_counts[i] = keep as u32;
        self.point_counts.remove(j);

        self.queries[i] = merged;
        self.queries.remove(j);
        let cj = self.compact_counts[j];
        self.compact_counts[i] += cj;
        self.compact_counts.remove(j);
        self.compacted_len -= 1;

        self.evicted_total += 1;
        self.evicted_since_refine += 1;
        self.history_dirty = true;
    }

    /// Captures the estimator's complete learning state for persistence:
    /// observed queries, the workload point pool, the trained model, the
    /// RNG mid-stream, and the cached incremental trainer. Restoring the
    /// capture with [`try_from_state`](Self::try_from_state) yields an
    /// estimator that is *bit-identical* going forward — same estimates,
    /// same models after any future feedback, and a **warm** first refine
    /// (the trainer's cached assembly rides along).
    ///
    /// Transient diagnostics (`last_report`, `last_error`) are not
    /// captured; they restore as `None`.
    pub fn export_state(&self) -> QuickSelState {
        QuickSelState {
            domain: (*self.domain).clone(),
            config: self.config.clone(),
            queries: self.queries.clone(),
            point_pool: self.point_pool.clone(),
            point_counts: self.point_counts.clone(),
            compacted_len: self.compacted_len,
            compact_counts: self.compact_counts.clone(),
            evicted_total: self.evicted_total,
            drift_resamples: self.drift_resamples,
            violation_ewma: self.violation_ewma,
            drift_strikes: self.drift_strikes,
            force_cold: self.force_cold,
            history_dirty: self.history_dirty,
            model: self.model.as_deref().map(|m| (m.rects().to_vec(), m.weights().to_vec())),
            rng_state: self.rng.state(),
            pending_since_refine: self.pending_since_refine,
            version: self.version,
            trainer: self.trainer.as_ref().map(IncrementalTrainer::export_state),
        }
    }

    /// Rebuilds an estimator from an exported capture, validating every
    /// cross-field invariant first (a positive finite λ,
    /// dimensionalities, finite weights, positive support volumes,
    /// trainer/query consistency). Inconsistent captures — hand-edited,
    /// corrupted past the checksums, or from a buggy encoder — reject
    /// with a typed [`StateError`] instead of panicking in a model
    /// constructor downstream.
    pub fn try_from_state(state: QuickSelState) -> Result<Self, StateError> {
        let invalid = |context: &'static str| StateError::Invalid { context };
        let lambda = state.config.lambda;
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(invalid("configured lambda is not positive and finite"));
        }
        let dim = state.domain.dim();
        for q in &state.queries {
            if q.rect.dim() != dim {
                return Err(invalid("observed query dimensionality differs from the domain"));
            }
            if !q.is_valid() {
                return Err(invalid("observed query has an invalid selectivity"));
            }
        }
        for p in &state.point_pool {
            if p.len() != dim {
                return Err(invalid("point pool entry dimensionality differs from the domain"));
            }
            if !p.iter().all(|x| x.is_finite()) {
                return Err(invalid("point pool entry contains non-finite coordinates"));
            }
        }
        let model = match state.model {
            None => None,
            Some((rects, weights)) => {
                if rects.is_empty() || rects.len() != weights.len() {
                    return Err(invalid("model supports and weights disagree in length"));
                }
                for r in &rects {
                    if r.dim() != dim {
                        return Err(invalid(
                            "model support dimensionality differs from the domain",
                        ));
                    }
                    let v = r.volume();
                    if !(v.is_finite() && v > 0.0) {
                        return Err(invalid("model support has non-positive volume"));
                    }
                }
                if !weights.iter().all(|w| w.is_finite()) {
                    return Err(invalid("model weights contain non-finite entries"));
                }
                Some(Arc::new(UniformMixtureModel::new(rects, weights)))
            }
        };
        if model.is_none() && state.version != 0 {
            return Err(invalid("nonzero training version without a trained model"));
        }
        if state.pending_since_refine > state.queries.len() {
            return Err(invalid("pending feedback exceeds the observed-query history"));
        }
        if state.point_counts.len() != state.queries.len() {
            return Err(invalid("point counts do not align with the query history"));
        }
        let counted: usize = state.point_counts.iter().map(|&c| c as usize).sum();
        if counted != state.point_pool.len() {
            return Err(invalid("point counts do not sum to the pool size"));
        }
        if state.compacted_len > state.queries.len()
            || state.compact_counts.len() != state.compacted_len
            || state.compact_counts.contains(&0)
        {
            return Err(invalid("compacted history prefix is inconsistent"));
        }
        if state.violation_ewma.is_infinite() {
            return Err(invalid("violation baseline is not NaN-or-finite"));
        }
        let trainer = match state.trainer {
            None => None,
            Some(ts) => {
                let t = IncrementalTrainer::try_from_state(ts)?;
                if t.subpops().first().is_some_and(|r| r.dim() != dim) {
                    return Err(invalid("trainer support dimensionality differs from the domain"));
                }
                if t.trained_queries() > state.queries.len() {
                    return Err(invalid("trainer has folded in more queries than were observed"));
                }
                Some(t)
            }
        };
        Ok(Self {
            domain: Arc::new(state.domain),
            config: state.config,
            queries: state.queries,
            point_pool: state.point_pool,
            model,
            rng: StdRng::from_state(state.rng_state),
            pending_since_refine: state.pending_since_refine,
            last_report: None,
            last_error: None,
            version: state.version,
            trainer,
            point_counts: state.point_counts,
            compacted_len: state.compacted_len,
            compact_counts: state.compact_counts,
            evicted_total: state.evicted_total,
            evicted_since_refine: 0,
            drift_resamples: state.drift_resamples,
            violation_ewma: state.violation_ewma,
            drift_strikes: state.drift_strikes,
            force_cold: state.force_cold,
            history_dirty: state.history_dirty,
            prior_kept: false,
        })
    }
}

impl Estimate for QuickSel {
    fn name(&self) -> &'static str {
        "QuickSel"
    }

    fn estimate(&self, rect: &Rect) -> f64 {
        // Same read path as ModelSnapshot: trained model or the uniform
        // prior before the first successful refine.
        crate::snapshot::estimate_model_or_prior(&self.domain, self.model.as_deref(), rect)
    }

    /// Batched estimation through the model's blocked kernel
    /// (term-order identical to the scalar path, so results compare
    /// equal); the uniform prior answers per rect before the first
    /// refine.
    fn estimate_many(&self, rects: &[Rect]) -> Vec<f64> {
        match self.model.as_deref() {
            Some(m) => m.estimate_many(rects),
            None => rects.iter().map(|r| self.estimate(r)).collect(),
        }
    }

    fn param_count(&self) -> usize {
        // The learned parameters are the subpopulation weights (m of them,
        // = min(4n, 4000) under the default policy) — Figure 4's y-axis.
        self.model.as_ref().map_or(0, |m| m.len())
    }
}

impl Learn for QuickSel {
    fn observe_batch(&mut self, batch: &[ObservedQuery]) {
        let mut ingested = 0usize;
        let mut rejected = None;
        for (index, query) in batch.iter().enumerate() {
            // Invalid feedback (NaN / out-of-range selectivity) must not
            // reach the QP right-hand side; skip it and record the
            // rejection instead of training on garbage.
            if !query.is_valid() {
                rejected =
                    Some(EstimatorError::InvalidFeedback { index, selectivity: query.selectivity });
                continue;
            }
            let pts = workload_points(&query.rect, self.config.points_per_query, &mut self.rng);
            self.point_counts.push(pts.len() as u32);
            self.point_pool.extend(pts);
            self.queries.push(query.clone());
            ingested += 1;
        }
        self.pending_since_refine += ingested;
        self.enforce_history_budget();
        let retrain = match self.config.refine_policy {
            RefinePolicy::EveryQuery => ingested > 0,
            RefinePolicy::EveryK(k) => self.pending_since_refine >= k.max(1),
            RefinePolicy::Manual => false,
        };
        if retrain && self.refine().is_err() {
            // Training failures (pathological degenerate workloads) keep
            // the previous model rather than panicking the host DBMS; the
            // failure is retrievable through `last_error`.
        }
        // Recorded after any auto-refine so a successful retrain of the
        // valid remainder doesn't erase the rejection signal.
        if let Some(e) = rejected {
            self.last_error = Some(e);
        }
    }

    fn refine(&mut self) -> Result<RefineOutcome, EstimatorError> {
        QuickSel::refine(self)
    }

    fn last_error(&self) -> Option<&EstimatorError> {
        QuickSel::last_error(self)
    }

    fn training_version(&self) -> u64 {
        self.version
    }

    fn history_len(&self) -> usize {
        QuickSel::history_len(self)
    }

    fn evicted_rows(&self) -> u64 {
        QuickSel::evicted_rows(self)
    }

    fn drift_resamples(&self) -> u64 {
        QuickSel::drift_resamples(self)
    }
}

impl SnapshotSource for QuickSel {
    fn snapshot_shared(&self) -> Arc<dyn Estimate + Send + Sync> {
        Arc::new(self.snapshot())
    }
}

/// Fluent configuration for [`QuickSel`]; created by
/// [`QuickSel::builder`]. Unset knobs keep the paper defaults.
#[derive(Debug, Clone)]
pub struct QuickSelBuilder {
    domain: Domain,
    config: QuickSelConfig,
}

impl QuickSelBuilder {
    /// Penalty weight λ of Problem 3 (paper: `10⁶`); must be positive
    /// and finite, or [`build`](Self::build) panics.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.config.lambda = lambda;
        self
    }

    /// Relative Tikhonov ridge on the analytic solve (0 = the paper's
    /// unregularized closed form).
    pub fn ridge_rel(mut self, ridge_rel: f64) -> Self {
        self.config.ridge_rel = ridge_rel;
        self
    }

    /// Random points generated inside each observed predicate (paper: 10).
    pub fn points_per_query(mut self, points: usize) -> Self {
        self.config.points_per_query = points;
        self
    }

    /// Subpopulations per observed query before the cap (paper: 4).
    pub fn subpops_per_query(mut self, subpops: usize) -> Self {
        self.config.subpops_per_query = subpops;
        self
    }

    /// Hard cap on the number of subpopulations (paper: 4000).
    pub fn max_subpops(mut self, max: usize) -> Self {
        self.config.max_subpops = max;
        self
    }

    /// Multiplier on the neighbour distance when sizing supports.
    pub fn overlap_factor(mut self, factor: f64) -> Self {
        self.config.overlap_factor = factor;
        self
    }

    /// Retraining cadence.
    pub fn refine_policy(mut self, policy: RefinePolicy) -> Self {
        self.config.refine_policy = policy;
        self
    }

    /// Budget on retained feedback history; older entries compact by
    /// merging once it is exceeded. `usize::MAX` (the default) retains
    /// everything.
    pub fn max_history(mut self, budget: usize) -> Self {
        self.config.max_history = budget;
        self
    }

    /// Consecutive drift strikes before a forced cold resample;
    /// `usize::MAX` disables drift detection.
    pub fn drift_patience(mut self, patience: usize) -> Self {
        self.config.drift_patience = patience;
        self
    }

    /// RNG seed for point generation and sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Pins the subpopulation budget to a fixed `m` instead of the `4·n`
    /// default (the §5.6 parameter-count study).
    pub fn fixed_subpops(mut self, m: usize) -> Self {
        self.config = self.config.with_fixed_subpops(m);
        self
    }

    /// Replaces the accumulated configuration wholesale.
    pub fn config(mut self, config: QuickSelConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the estimator.
    ///
    /// # Panics
    ///
    /// As [`QuickSel::with_config`]: if λ is not positive and finite.
    pub fn build(self) -> QuickSel {
        QuickSel::with_config(self.domain, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_data::datasets::gaussian::gaussian_table;
    use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
    use quicksel_data::{mean_rel_error_pct, Table};

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    #[test]
    fn prior_is_uniform_before_observations() {
        let qs = QuickSel::new(domain());
        let q = Rect::from_bounds(&[(0.0, 5.0), (0.0, 10.0)]);
        assert!((qs.estimate(&q) - 0.5).abs() < 1e-12);
        assert_eq!(qs.param_count(), 0);
        assert_eq!(qs.version(), 0);
    }

    #[test]
    fn observing_retrains_under_default_policy() {
        let mut qs = QuickSel::new(domain());
        let q = ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.9);
        qs.observe(&q);
        assert_eq!(qs.observed_count(), 1);
        assert!(qs.model().is_some());
        assert!(qs.last_error().is_none());
        assert_eq!(qs.version(), 1);
        assert_eq!(qs.param_count(), 4); // min(4·1, 4000)
                                         // The training constraint is reproduced.
        assert!((qs.estimate(&q.rect) - 0.9).abs() < 0.05);
    }

    #[test]
    fn manual_policy_defers_training() {
        let mut qs = QuickSel::builder(domain()).refine_policy(RefinePolicy::Manual).build();
        let q = ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.9);
        qs.observe(&q);
        assert!(qs.model().is_none());
        assert_eq!(qs.pending_feedback(), 1);
        let outcome = qs.refine().unwrap();
        assert!(outcome.retrained());
        assert!(qs.model().is_some());
        assert_eq!(qs.pending_feedback(), 0);
        // A second refine with no new feedback is a no-op.
        assert_eq!(qs.refine().unwrap(), RefineOutcome::UpToDate);
        assert_eq!(qs.version(), 1);
    }

    #[test]
    fn every_k_policy_batches() {
        let mut qs = QuickSel::builder(domain()).refine_policy(RefinePolicy::EveryK(3)).build();
        let q = ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.9);
        qs.observe(&q);
        qs.observe(&q);
        assert!(qs.model().is_none());
        qs.observe(&q);
        assert!(qs.model().is_some());
    }

    #[test]
    fn observe_batch_triggers_policy_once_per_batch() {
        let mut qs = QuickSel::builder(domain()).refine_policy(RefinePolicy::EveryK(3)).build();
        let q = ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.9);
        // A batch crossing the threshold retrains exactly once.
        qs.observe_batch(&[q.clone(), q.clone(), q.clone(), q.clone()]);
        assert_eq!(qs.version(), 1);
        assert_eq!(qs.observed_count(), 4);
        assert_eq!(qs.param_count(), 16);
    }

    #[test]
    fn batch_matches_sequential_observes_under_manual_policy() {
        let table = gaussian_table(2, 0.4, 5_000, 91);
        let mut gen =
            RectWorkload::new(table.domain().clone(), 19, ShiftMode::Random, CenterMode::DataRow)
                .with_width_frac(0.15, 0.45);
        let train = gen.take_queries(&table, 30);
        let probes = gen.take_queries(&table, 20);

        let mut one_by_one =
            QuickSel::builder(table.domain().clone()).refine_policy(RefinePolicy::Manual).build();
        for q in &train {
            one_by_one.observe(q);
        }
        one_by_one.refine().unwrap();

        let mut batched =
            QuickSel::builder(table.domain().clone()).refine_policy(RefinePolicy::Manual).build();
        batched.observe_batch(&train);
        batched.refine().unwrap();

        // Identical feedback stream + identical RNG consumption ⇒
        // identical models, bit for bit.
        for p in &probes {
            assert_eq!(one_by_one.estimate(&p.rect), batched.estimate(&p.rect));
        }
    }

    #[test]
    fn degenerate_observations_keep_prior() {
        let mut qs = QuickSel::new(domain());
        let degenerate = ObservedQuery::new(Rect::from_bounds(&[(5.0, 5.0), (0.0, 10.0)]), 0.0);
        qs.observe(&degenerate);
        // No points could be generated, so we remain on the prior.
        assert!(qs.model().is_none());
        assert!(qs.last_error().is_none(), "degenerate feedback is not an error");
        assert_eq!(qs.refine().unwrap(), RefineOutcome::KeptPrior);
        let q = Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
        assert_eq!(qs.estimate(&q), 1.0);
        // Regression: `KeptPrior` consumes the degenerate feedback. It
        // used to leave `pending_since_refine` nonzero forever, so every
        // later refine re-ran the full (futile) subpopulation build.
        assert_eq!(qs.pending_feedback(), 0, "KeptPrior must consume degenerate feedback");
        assert_eq!(qs.refine().unwrap(), RefineOutcome::KeptPrior);
        assert_eq!(qs.pending_feedback(), 0);
    }

    #[test]
    fn snapshot_is_frozen_while_source_trains_on() {
        let mut qs = QuickSel::new(domain());
        let q1 = ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.9);
        qs.observe(&q1);
        let snap = qs.snapshot();
        assert_eq!(snap.version(), 1);
        let frozen = snap.estimate(&q1.rect);

        // Contradictory later feedback moves the live estimator…
        let q2 = ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.1);
        for _ in 0..5 {
            qs.observe(&q2);
        }
        assert!(qs.version() > 1);
        assert!((qs.estimate(&q1.rect) - frozen).abs() > 0.2);
        // …but the snapshot still answers from its frozen model.
        assert_eq!(snap.estimate(&q1.rect), frozen);
        assert_eq!(snap.version(), 1);
    }

    #[test]
    fn snapshot_source_returns_shared_estimate() {
        let mut qs = QuickSel::new(domain());
        qs.observe(&ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.9));
        let shared = qs.snapshot_shared();
        assert_eq!(shared.name(), "QuickSel");
        assert_eq!(shared.param_count(), 4);
    }

    #[test]
    fn builder_covers_every_knob() {
        let qs = QuickSel::builder(domain())
            .lambda(1e5)
            .ridge_rel(1e-7)
            .points_per_query(5)
            .subpops_per_query(2)
            .max_subpops(100)
            .overlap_factor(1.5)
            .refine_policy(RefinePolicy::EveryK(10))
            .seed(99)
            .max_history(500)
            .drift_patience(5)
            .build();
        let c = qs.config();
        assert_eq!(c.lambda, 1e5);
        assert_eq!(c.ridge_rel, 1e-7);
        assert_eq!(c.points_per_query, 5);
        assert_eq!(c.subpops_per_query, 2);
        assert_eq!(c.max_subpops, 100);
        assert_eq!(c.overlap_factor, 1.5);
        assert_eq!(c.refine_policy, RefinePolicy::EveryK(10));
        assert_eq!(c.seed, 99);
        assert_eq!(c.max_history, 500);
        assert_eq!(c.drift_patience, 5);
        let pinned = QuickSel::builder(domain()).fixed_subpops(64).build();
        assert_eq!(pinned.config().target_subpops(1_000_000), 64);
    }

    #[test]
    #[should_panic(expected = "λ must be positive and finite")]
    fn zero_lambda_is_refused_at_construction() {
        QuickSel::builder(domain()).lambda(0.0).build();
    }

    #[test]
    fn fixed_budget_refines_go_warm_after_the_cold_build() {
        let mut qs = QuickSel::builder(domain())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(8)
            .build();
        qs.observe(&ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.9));
        let first = qs.refine().unwrap();
        assert!(matches!(first, RefineOutcome::Retrained { incremental: false, .. }), "{first:?}");
        let report = qs.last_report().unwrap();
        assert!(!report.assembly_reused);

        qs.observe(&ObservedQuery::new(Rect::from_bounds(&[(2.0, 7.0), (2.0, 7.0)]), 0.4));
        let second = qs.refine().unwrap();
        assert!(matches!(second, RefineOutcome::Retrained { incremental: true, .. }), "{second:?}");
        let report = qs.last_report().unwrap();
        assert!(report.assembly_reused);
        assert_eq!(report.rows_appended, 1);
        assert_eq!(qs.version(), 2);
        // Both observations are reproduced by the warm-refined model.
        assert!((qs.estimate(&Rect::from_bounds(&[(2.0, 7.0), (2.0, 7.0)])) - 0.4).abs() < 0.05);
    }

    #[test]
    fn drift_detector_forces_cold_resample_on_workload_shift() {
        // Phase 1: a stable, self-consistent workload in the lower-left
        // quadrant — warm refines establish a violation baseline.
        let mut qs = QuickSel::builder(domain())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(16)
            .drift_patience(2)
            .build();
        for i in 0..10 {
            let lo = (i % 4) as f64 * 0.5;
            qs.observe(&ObservedQuery::new(Rect::from_bounds(&[(lo, lo + 2.0), (0.0, 4.0)]), 0.08));
            qs.refine().unwrap();
        }
        assert_eq!(qs.drift_resamples(), 0, "stable workload must not trip the detector");
        let warm = qs.last_report().unwrap();
        assert!(warm.assembly_reused, "phase 1 must end on the warm path");

        // Phase 2: the workload jumps to the opposite corner with
        // contradictory selectivities; the supports sampled for phase 1
        // fit it badly, violations break the baseline, and after
        // `drift_patience` strikes a refine goes cold (resampling
        // against the shifted workload).
        let mut saw_cold = false;
        for i in 0..12 {
            let lo = 6.0 + (i % 4) as f64 * 0.5;
            qs.observe(&ObservedQuery::new(Rect::from_bounds(&[(lo, lo + 2.0), (6.0, 10.0)]), 0.9));
            let outcome = qs.refine().unwrap();
            if matches!(outcome, RefineOutcome::Retrained { incremental: false, .. }) {
                saw_cold = true;
                break;
            }
        }
        assert!(saw_cold, "workload shift never forced a cold resample");
        assert!(qs.drift_resamples() >= 1);
        // The post-resample model serves the shifted region.
        let probe = Rect::from_bounds(&[(6.0, 8.0), (6.0, 10.0)]);
        assert!((qs.estimate(&probe) - 0.9).abs() < 0.3, "estimate {}", qs.estimate(&probe));
    }

    #[test]
    fn disabled_drift_patience_never_resamples() {
        let mut qs = QuickSel::builder(domain())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(16)
            .drift_patience(usize::MAX)
            .build();
        for i in 0..8 {
            let lo = if i < 4 { 0.0 } else { 7.0 };
            qs.observe(&ObservedQuery::new(
                Rect::from_bounds(&[(lo, lo + 2.0), (lo, lo + 2.0)]),
                if i < 4 { 0.05 } else { 0.95 },
            ));
            qs.refine().unwrap();
        }
        assert_eq!(qs.drift_resamples(), 0);
    }

    fn learning_run(table: &Table, train_n: usize, cfg: QuickSelConfig) -> f64 {
        let mut gen =
            RectWorkload::new(table.domain().clone(), 7, ShiftMode::Random, CenterMode::DataRow)
                .with_width_frac(0.15, 0.45);
        let mut qs = QuickSel::with_config(table.domain().clone(), cfg);
        for q in gen.take_queries(table, train_n) {
            qs.observe(&q);
        }
        let test = gen.take_queries(table, 50);
        let pairs: Vec<(f64, f64)> =
            test.iter().map(|q| (q.selectivity, qs.estimate(&q.rect))).collect();
        mean_rel_error_pct(&pairs)
    }

    #[test]
    fn learns_gaussian_distribution() {
        let table = gaussian_table(2, 0.4, 20_000, 31);
        let mut gen =
            RectWorkload::new(table.domain().clone(), 7, ShiftMode::Random, CenterMode::DataRow)
                .with_width_frac(0.15, 0.45);
        let mut qs =
            QuickSel::builder(table.domain().clone()).refine_policy(RefinePolicy::Manual).build();
        qs.observe_batch(&gen.take_queries(&table, 100));
        qs.refine().unwrap();
        let test = gen.take_queries(&table, 50);
        let pairs: Vec<(f64, f64)> =
            test.iter().map(|q| (q.selectivity, qs.estimate(&q.rect))).collect();
        let err = mean_rel_error_pct(&pairs);
        // Paper reports low-single-digit % on the Gaussian workload after
        // 100 queries (Fig 7a); allow generous slack for the synthetic rig.
        assert!(err < 30.0, "relative error {err}%");
        // And we must beat the uninformed uniform prior by a wide margin.
        let prior_pairs: Vec<(f64, f64)> = test
            .iter()
            .map(|q| {
                let b0 = table.domain().full_rect();
                (q.selectivity, q.rect.volume() / b0.volume())
            })
            .collect();
        let prior_err = mean_rel_error_pct(&prior_pairs);
        assert!(err < 0.5 * prior_err, "learned {err}% vs prior {prior_err}%");
    }

    #[test]
    fn error_decreases_with_more_observations() {
        let table = gaussian_table(2, 0.4, 20_000, 33);
        let cfg = QuickSelConfig { refine_policy: RefinePolicy::EveryK(25), ..Default::default() };
        let few = learning_run(&table, 10, cfg.clone());
        let many = learning_run(&table, 150, cfg);
        assert!(
            many < few * 0.9,
            "error should drop with data: 10 queries → {few}%, 150 queries → {many}%"
        );
    }

    #[test]
    fn estimates_always_in_unit_interval() {
        let table = gaussian_table(2, 0.6, 5_000, 37);
        let mut gen =
            RectWorkload::new(table.domain().clone(), 11, ShiftMode::Random, CenterMode::Uniform);
        let mut qs = QuickSel::new(table.domain().clone());
        for q in gen.take_queries(&table, 30) {
            qs.observe(&q);
        }
        for q in gen.take_queries(&table, 100) {
            let e = qs.estimate(&q.rect);
            assert!((0.0..=1.0).contains(&e), "estimate {e}");
        }
    }

    #[test]
    fn param_count_follows_four_n_rule() {
        let table = gaussian_table(2, 0.0, 2_000, 39);
        let mut gen =
            RectWorkload::new(table.domain().clone(), 13, ShiftMode::Random, CenterMode::DataRow);
        let mut qs = QuickSel::new(table.domain().clone());
        for (i, q) in gen.take_queries(&table, 20).iter().enumerate() {
            qs.observe(q);
            assert_eq!(qs.param_count(), 4 * (i + 1));
        }
    }

    #[test]
    fn estimate_many_is_consistent_with_estimate() {
        let table = gaussian_table(2, 0.5, 5_000, 40);
        let mut gen =
            RectWorkload::new(table.domain().clone(), 14, ShiftMode::Random, CenterMode::DataRow);
        let mut qs = QuickSel::new(table.domain().clone());
        for q in gen.take_queries(&table, 20) {
            qs.observe(&q);
        }
        let probes: Vec<Rect> = gen.take_queries(&table, 25).into_iter().map(|q| q.rect).collect();
        let many = qs.estimate_many(&probes);
        for (r, m) in probes.iter().zip(&many) {
            assert_eq!(qs.estimate(r), *m);
        }
    }
}
