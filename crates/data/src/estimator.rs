//! The estimator abstraction shared by QuickSel and every baseline.
//!
//! The contract is split into a **read side** ([`Estimate`]) and a
//! **write side** ([`Learn`]):
//!
//! * [`Estimate`] is the immutable serving interface — every method takes
//!   `&self`, so estimators (and model snapshots) can answer concurrent
//!   planner probes without synchronization.
//! * [`Learn`] is the training interface — feedback arrives in batches
//!   ([`observe_batch`](Learn::observe_batch)), data churn through
//!   [`sync_data`](Learn::sync_data), and retraining is an explicit,
//!   **fallible** step ([`refine`](Learn::refine)) whose failures surface
//!   as [`EstimatorError`] instead of being silently discarded.
//!
//! Learners that can additionally publish a cheap immutable snapshot of
//! their current model implement [`SnapshotSource`]; the
//! `quicksel-service` crate serves such snapshots lock-free to unlimited
//! reader threads.

use crate::table::Table;
use quicksel_geometry::{Interval, Rect};
use quicksel_linalg::LinalgError;
use std::sync::Arc;

/// An observed query: a predicate rectangle `B_i` together with the exact
/// selectivity `s_i` the execution engine reported (§2.2, Problem 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedQuery {
    /// The predicate's hyperrectangle.
    pub rect: Rect,
    /// The true selectivity in `[0, 1]`.
    pub selectivity: f64,
}

impl ObservedQuery {
    /// Bundles a rectangle with its measured selectivity.
    pub fn new(rect: Rect, selectivity: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&selectivity), "selectivity {selectivity} out of range");
        Self { rect, selectivity }
    }

    /// Deterministic routing key of this observation's predicate
    /// rectangle; see [`route_hash`].
    pub fn route_hash(&self) -> u64 {
        route_hash(&self.rect)
    }

    /// Convenience: evaluates the true selectivity against `table`.
    pub fn from_table(table: &Table, rect: Rect) -> Self {
        let s = table.selectivity(&rect);
        Self { rect, selectivity: s }
    }

    /// True when the observation is trainable: a finite selectivity in
    /// `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        self.selectivity.is_finite() && (0.0..=1.0).contains(&self.selectivity)
    }

    /// Appends this observation's fixed wire encoding to `out`: the
    /// dimensionality as a `u32`, then each side's `lo`/`hi` and finally
    /// the selectivity as IEEE-754 bit patterns, all little-endian. The
    /// encoding is exact — floats round-trip by bits, not by formatting —
    /// so a WAL replay feeds the learner byte-identical feedback.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let sides = self.rect.sides();
        out.extend_from_slice(&(sides.len() as u32).to_le_bytes());
        for side in sides {
            out.extend_from_slice(&side.lo.to_bits().to_le_bytes());
            out.extend_from_slice(&side.hi.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.selectivity.to_bits().to_le_bytes());
    }

    /// Decodes one observation from the front of `bytes`, returning it
    /// with the number of bytes consumed — `None` on a short or
    /// structurally impossible buffer (never panics: WAL tails can be
    /// torn mid-record by a crash).
    pub fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        let dim = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let need = 4 + dim * 16 + 8;
        if bytes.len() < need {
            return None;
        }
        let f64_at = |off: usize| {
            f64::from_bits(u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes")))
        };
        let sides =
            (0..dim).map(|d| Interval::new(f64_at(4 + d * 16), f64_at(4 + d * 16 + 8))).collect();
        let selectivity = f64_at(4 + dim * 16);
        Some((Self { rect: Rect::new(sides), selectivity }, need))
    }
}

/// Deterministic 64-bit routing key of a predicate rectangle.
///
/// The sharded serving layer partitions feedback across estimator shards
/// by this hash, so it must be *stable*: the same rectangle yields the
/// same key on every call, from every thread, in every process run —
/// there is no per-process seed. The implementation is FNV-1a over the
/// bit patterns of the side endpoints, with `-0.0` collapsed onto `0.0`
/// so the two encodings of zero route identically.
pub fn route_hash(rect: &Rect) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for side in rect.sides() {
        for v in [side.lo, side.hi] {
            let v = if v == 0.0 { 0.0 } else { v };
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// Validates a feedback batch, returning the first invalid observation as
/// [`EstimatorError::InvalidFeedback`]. Used by the serving layer before
/// ingestion and by learners that guard their own `observe_batch`.
pub fn validate_batch(batch: &[ObservedQuery]) -> Result<(), EstimatorError> {
    for (index, q) in batch.iter().enumerate() {
        if !q.is_valid() {
            return Err(EstimatorError::InvalidFeedback { index, selectivity: q.selectivity });
        }
    }
    Ok(())
}

/// Errors surfaced by estimator training.
///
/// Replaces the previous design in which solver failures inside the
/// observe path were discarded (`let _ = self.refine()`): every refine is
/// now fallible, and auto-refining learners record the most recent
/// failure retrievably through [`Learn::last_error`].
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorError {
    /// The training solver failed (singular or ill-conditioned system,
    /// shape mismatch).
    Solver(LinalgError),
    /// A feedback observation was rejected before training.
    InvalidFeedback {
        /// Position of the offending observation within its batch.
        index: usize,
        /// The out-of-range or non-finite selectivity it carried.
        selectivity: f64,
    },
    /// Durable logging of the batch failed, so it was **not** ingested:
    /// acknowledging feedback the WAL never captured would silently lose
    /// it across a crash. The batch is safe to retry.
    PersistRefused,
    /// The serving shard is degraded (read-only): repeated persist
    /// failures tripped its health machine, and ingest is refused until
    /// a write probe of the durable directory succeeds. Estimates keep
    /// serving from the last published snapshot.
    Degraded {
        /// Suggested client backoff until the next re-arm probe is due.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimatorError::Solver(e) => write!(f, "training solver failed: {e}"),
            EstimatorError::InvalidFeedback { index, selectivity } => {
                write!(f, "invalid feedback at batch index {index}: selectivity {selectivity}")
            }
            EstimatorError::PersistRefused => {
                write!(f, "batch refused: durable logging failed before ingestion")
            }
            EstimatorError::Degraded { retry_after_ms } => {
                write!(f, "shard degraded (read-only); retry ingest after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for EstimatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimatorError::Solver(e) => Some(e),
            EstimatorError::InvalidFeedback { .. }
            | EstimatorError::PersistRefused
            | EstimatorError::Degraded { .. } => None,
        }
    }
}

impl From<LinalgError> for EstimatorError {
    fn from(e: LinalgError) -> Self {
        EstimatorError::Solver(e)
    }
}

/// What a successful [`Learn::refine`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineOutcome {
    /// The model was retrained: `params` parameters fitted against
    /// `constraints` feedback constraints.
    Retrained {
        /// Model parameters after retraining.
        params: usize,
        /// Feedback constraints the training run used.
        constraints: usize,
        /// True when the retrain reused cached training state and folded
        /// only the new feedback in (an incremental/warm refine) instead
        /// of rebuilding from scratch. Methods without an incremental
        /// path always report `false`.
        incremental: bool,
    },
    /// Nothing to do — no (new) feedback since the last refine, or the
    /// method trains incrementally inside `observe_batch`.
    UpToDate,
    /// All pending feedback was degenerate (e.g. zero-volume predicates);
    /// the previous model or prior was kept.
    KeptPrior,
}

impl RefineOutcome {
    /// True when the call produced a new model.
    pub fn retrained(&self) -> bool {
        matches!(self, RefineOutcome::Retrained { .. })
    }
}

/// The read side: immutable selectivity estimation.
///
/// All methods take `&self`; implementations must be safe to call from
/// any number of threads in parallel when `Self: Sync`.
pub trait Estimate {
    /// Short stable identifier used in experiment output.
    fn name(&self) -> &'static str;

    /// Estimates the selectivity of a new predicate rectangle, in `[0, 1]`.
    fn estimate(&self, rect: &Rect) -> f64;

    /// Estimates a batch of predicate rectangles, in input order.
    ///
    /// This is the batch primitive: the default maps
    /// [`estimate`](Self::estimate), and implementations with an
    /// amortizable setup (a blocked batch kernel, snapshot loading)
    /// override it. The result must equal element-wise single-call estimation.
    fn estimate_many(&self, rects: &[Rect]) -> Vec<f64> {
        rects.iter().map(|r| self.estimate(r)).collect()
    }

    /// Gather form of [`estimate_many`](Self::estimate_many): estimates
    /// `rects[indexes[k]]` for each `k`, in `indexes` order.
    ///
    /// Routed batch dispatch (the sharded serving layer) regroups one
    /// caller batch into per-shard subsets; this entry point makes that
    /// regrouping index shuffling instead of rectangle cloning. The
    /// default maps [`estimate`](Self::estimate); batched implementors
    /// override it alongside [`estimate_many`](Self::estimate_many). The
    /// result must equal element-wise single-call estimation of the
    /// gathered rects.
    fn estimate_gather(&self, rects: &[Rect], indexes: &[usize]) -> Vec<f64> {
        indexes.iter().map(|&i| self.estimate(&rects[i])).collect()
    }

    /// Number of model parameters currently held (buckets, subpopulation
    /// weights, sampled rows, …) — the x-axis of Figure 4.
    fn param_count(&self) -> usize;
}

/// The write side: feedback ingestion and (fallible) retraining.
///
/// Two information channels exist:
///
/// * **query feedback** — [`observe_batch`](Self::observe_batch) delivers
///   `(predicate, selectivity)` pairs after queries execute. Query-driven
///   methods (QuickSel, STHoles, ISOMER, …) learn from this; scan-based
///   methods ignore it.
/// * **data change notifications** — [`sync_data`](Self::sync_data) tells
///   the estimator how much the underlying table has churned. Scan-based
///   methods (AutoHist, AutoSample) decide here whether to re-scan
///   (SQL Server's 20%/10% auto-update rules); query-driven methods ignore
///   it.
pub trait Learn: Estimate {
    /// Ingests a batch of observed queries. Default: no-op (scan-based
    /// methods).
    ///
    /// Batch ingestion is the primitive: methods that retrain on feedback
    /// may do so once per batch rather than once per query, which is the
    /// cheap path for high-throughput feedback streams. Auto-refine
    /// failures must not panic; they are recorded and retrievable through
    /// [`last_error`](Self::last_error).
    fn observe_batch(&mut self, _batch: &[ObservedQuery]) {}

    /// Convenience: ingests a single observed query (a one-element batch).
    fn observe(&mut self, query: &ObservedQuery) {
        self.observe_batch(std::slice::from_ref(query));
    }

    /// Notifies that `changed_rows` rows were inserted/updated in `table`
    /// since the last notification. Default: no-op (query-driven methods).
    fn sync_data(&mut self, _table: &Table, _changed_rows: usize) {}

    /// Explicitly retrains the model on everything observed so far.
    ///
    /// Default: nothing to retrain ([`RefineOutcome::UpToDate`]) — correct
    /// for scan-based methods and for methods that train incrementally
    /// inside `observe_batch`.
    fn refine(&mut self) -> Result<RefineOutcome, EstimatorError> {
        Ok(RefineOutcome::UpToDate)
    }

    /// The most recent training failure, if the estimator auto-refines
    /// inside `observe_batch`. Cleared by the next successful refine.
    fn last_error(&self) -> Option<&EstimatorError> {
        None
    }

    /// Monotonic counter incremented every time the model actually
    /// changes (a successful retrain, or incremental ingestion for
    /// methods that train inside `observe_batch`). Lets callers detect
    /// retrains that happened *during* ingestion — e.g. under an
    /// every-query auto-refine policy — which an explicit
    /// [`refine`](Self::refine) afterwards would report as
    /// [`RefineOutcome::UpToDate`]. Default: 0 (untracked).
    fn training_version(&self) -> u64 {
        0
    }

    /// Number of feedback observations currently retained in the
    /// learner's history (compacted summaries count once). Bounded
    /// learners report their live window; methods without retained
    /// history report 0 (the default).
    fn history_len(&self) -> usize {
        0
    }

    /// Total history entries evicted (merged away) under a history
    /// budget over this learner's lifetime. Default: 0 (unbounded or
    /// untracked).
    fn evicted_rows(&self) -> u64 {
        0
    }

    /// Cold resamples forced by drift detection over this learner's
    /// lifetime. Default: 0 (no drift detector).
    fn drift_resamples(&self) -> u64 {
        0
    }
}

/// Learners able to publish an immutable, thread-safe view of their
/// current model for lock-free serving.
pub trait SnapshotSource: Learn {
    /// A cheap snapshot of the current model. The returned object answers
    /// [`Estimate`] queries forever at the state it was taken in,
    /// unaffected by later training on the source.
    fn snapshot_shared(&self) -> Arc<dyn Estimate + Send + Sync>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_geometry::Domain;

    /// A trivial estimator used to exercise trait defaults.
    struct Constant(f64);
    impl Estimate for Constant {
        fn name(&self) -> &'static str {
            "constant"
        }
        fn estimate(&self, _rect: &Rect) -> f64 {
            self.0
        }
        fn param_count(&self) -> usize {
            1
        }
    }
    impl Learn for Constant {}

    #[test]
    fn default_channels_are_noops() {
        let domain = Domain::of_reals(&[("x", 0.0, 1.0)]);
        let mut e = Constant(0.5);
        let q = ObservedQuery::new(domain.full_rect(), 1.0);
        e.observe(&q);
        e.observe_batch(&[q.clone(), q]);
        let t = Table::new(domain.clone());
        e.sync_data(&t, 0);
        assert_eq!(e.refine(), Ok(RefineOutcome::UpToDate));
        assert!(e.last_error().is_none());
        assert_eq!(e.estimate(&domain.full_rect()), 0.5);
        assert_eq!(e.param_count(), 1);
        assert_eq!(e.name(), "constant");
    }

    #[test]
    fn estimate_many_matches_single_calls() {
        let e = Constant(0.25);
        let rects = vec![
            Rect::from_bounds(&[(0.0, 1.0)]),
            Rect::from_bounds(&[(2.0, 3.0)]),
            Rect::from_bounds(&[(4.0, 5.0)]),
        ];
        let many = e.estimate_many(&rects);
        assert_eq!(many.len(), 3);
        for (r, m) in rects.iter().zip(&many) {
            assert_eq!(e.estimate(r), *m);
        }
    }

    #[test]
    fn observed_query_from_table() {
        let domain = Domain::of_reals(&[("x", 0.0, 10.0)]);
        let mut t = Table::new(domain);
        for i in 0..10 {
            t.push_row(&[i as f64 + 0.5]);
        }
        let q = ObservedQuery::from_table(&t, Rect::from_bounds(&[(0.0, 5.0)]));
        assert_eq!(q.selectivity, 0.5);
    }

    #[test]
    fn errors_display_and_convert() {
        let e: EstimatorError = LinalgError::Singular { pivot: 3 }.into();
        assert_eq!(e, EstimatorError::Solver(LinalgError::Singular { pivot: 3 }));
        assert!(e.to_string().contains("singular"));
        let bad = EstimatorError::InvalidFeedback { index: 2, selectivity: 1.5 };
        assert!(bad.to_string().contains("index 2"));
        // Source chains to the underlying solver error.
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(bad.source().is_none());
    }

    #[test]
    fn refine_outcome_retrained_flag() {
        assert!(
            RefineOutcome::Retrained { params: 4, constraints: 2, incremental: false }.retrained()
        );
        assert!(
            RefineOutcome::Retrained { params: 4, constraints: 2, incremental: true }.retrained()
        );
        assert!(!RefineOutcome::UpToDate.retrained());
        assert!(!RefineOutcome::KeptPrior.retrained());
    }

    #[test]
    fn route_hash_is_stable_and_shape_sensitive() {
        let a = Rect::from_bounds(&[(0.0, 5.0), (1.0, 2.0)]);
        // Same rect, fresh construction: identical key.
        assert_eq!(route_hash(&a), route_hash(&Rect::from_bounds(&[(0.0, 5.0), (1.0, 2.0)])));
        assert_eq!(ObservedQuery::new(a.clone(), 0.5).route_hash(), route_hash(&a));
        // Different bounds: different key (FNV over distinct byte streams).
        assert_ne!(route_hash(&a), route_hash(&Rect::from_bounds(&[(0.0, 5.0), (1.0, 3.0)])));
        // The two encodings of zero route identically.
        let neg = Rect::from_bounds(&[(-0.0, 5.0), (1.0, 2.0)]);
        assert_eq!(route_hash(&a), route_hash(&neg));
    }

    #[test]
    fn dyn_learn_upcasts_to_estimate() {
        // The serving layer relies on &dyn Learn → &dyn Estimate coercion.
        let c = Constant(0.4);
        let learn: &dyn Learn = &c;
        let est: &dyn Estimate = learn;
        assert_eq!(est.estimate(&Rect::from_bounds(&[(0.0, 1.0)])), 0.4);
    }
}
