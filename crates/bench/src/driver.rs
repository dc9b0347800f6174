//! Evaluation drivers shared by the experiment binaries.

use quicksel_data::{ErrorStats, Estimate, Learn, ObservedQuery};
use std::time::Instant;

/// Result of feeding a training workload and evaluating a test workload.
#[derive(Debug, Clone)]
pub struct QueryDrivenRun {
    /// Wall time of each `observe` call (milliseconds) — includes any
    /// retraining the method performs inside `observe`.
    pub per_observe_ms: Vec<f64>,
    /// Total training wall time in milliseconds.
    pub total_train_ms: f64,
    /// Mean per-query training time (the paper's "per-query time").
    pub mean_per_query_ms: f64,
    /// Error statistics on the test workload.
    pub stats: ErrorStats,
    /// `param_count()` after training (Figure 4's y-axis).
    pub final_params: usize,
}

/// Feeds `train` into the estimator (timing each observation) and scores
/// it on `test`.
pub fn run_query_driven(
    est: &mut dyn Learn,
    train: &[ObservedQuery],
    test: &[ObservedQuery],
) -> QueryDrivenRun {
    let mut per_observe_ms = Vec::with_capacity(train.len());
    let t_total = Instant::now();
    for q in train {
        let t = Instant::now();
        est.observe(q);
        per_observe_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let total_train_ms = t_total.elapsed().as_secs_f64() * 1e3;
    let stats = score(&*est, test);
    QueryDrivenRun {
        mean_per_query_ms: if train.is_empty() { 0.0 } else { total_train_ms / train.len() as f64 },
        per_observe_ms,
        total_train_ms,
        stats,
        final_params: est.param_count(),
    }
}

/// Scores an estimator on a test workload through **one** batched
/// `estimate_many` call over the whole workload.
///
/// This matters for the serving path: `Estimate::estimate_many` is where
/// QuickSel runs its blocked kernel over the model's dimension-major
/// support columns, so scoring N test queries costs one kernel pass
/// instead of N scalar walks of the array-of-structs model. Scores are
/// identical either way — the kernel is term-order identical to the
/// scalar path (see `quicksel_core::batch`) — only the time changes;
/// `tests/driver_score.rs` pins the equality.
pub fn score(est: &dyn Estimate, test: &[ObservedQuery]) -> ErrorStats {
    let rects: Vec<_> = test.iter().map(|q| q.rect.clone()).collect();
    let estimates = est.estimate_many(&rects);
    let pairs: Vec<(f64, f64)> =
        test.iter().zip(&estimates).map(|(q, &e)| (q.selectivity, e)).collect();
    ErrorStats::from_pairs(&pairs)
}

/// Back-compatible alias of [`score`].
pub fn evaluate(est: &dyn Estimate, test: &[ObservedQuery]) -> ErrorStats {
    score(est, test)
}

/// One measurement point of a streaming run (Figures 3 and 4).
#[derive(Debug, Clone)]
pub struct StreamCheckpoint {
    /// Number of observed queries so far.
    pub n: usize,
    /// Training time of the most recent observation window (ms/query).
    pub window_per_query_ms: f64,
    /// Cumulative training time (ms).
    pub cumulative_ms: f64,
    /// Test error statistics at this point.
    pub stats: ErrorStats,
    /// `param_count()` at this point.
    pub params: usize,
}

/// Streams `train` into the estimator and snapshots error/params/time at
/// each of the (ascending) `checkpoints`.
pub fn stream_with_checkpoints(
    est: &mut dyn Learn,
    train: &[ObservedQuery],
    test: &[ObservedQuery],
    checkpoints: &[usize],
) -> Vec<StreamCheckpoint> {
    let mut out = Vec::with_capacity(checkpoints.len());
    let mut cumulative = 0.0f64;
    let mut window = 0.0f64;
    let mut window_len = 0usize;
    let mut next = 0usize;
    for (i, q) in train.iter().enumerate() {
        if next >= checkpoints.len() {
            break;
        }
        let t = Instant::now();
        est.observe(q);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        cumulative += ms;
        window += ms;
        window_len += 1;
        if i + 1 == checkpoints[next] {
            out.push(StreamCheckpoint {
                n: i + 1,
                window_per_query_ms: window / window_len.max(1) as f64,
                cumulative_ms: cumulative,
                stats: score(&*est, test),
                params: est.param_count(),
            });
            window = 0.0;
            window_len = 0;
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_geometry::{Domain, Rect};

    /// Estimator that memorizes observed rects exactly.
    struct Memorizer {
        seen: Vec<ObservedQuery>,
    }
    impl Estimate for Memorizer {
        fn name(&self) -> &'static str {
            "memorizer"
        }
        fn estimate(&self, rect: &Rect) -> f64 {
            self.seen.iter().find(|q| &q.rect == rect).map_or(0.5, |q| q.selectivity)
        }
        fn param_count(&self) -> usize {
            self.seen.len()
        }
    }
    impl Learn for Memorizer {
        fn observe_batch(&mut self, batch: &[ObservedQuery]) {
            self.seen.extend_from_slice(batch);
        }
    }

    #[test]
    fn driver_times_and_scores() {
        let domain = Domain::of_reals(&[("x", 0.0, 1.0)]);
        let q1 = ObservedQuery::new(Rect::from_bounds(&[(0.0, 0.5)]), 0.3);
        let q2 = ObservedQuery::new(Rect::from_bounds(&[(0.5, 1.0)]), 0.7);
        let mut m = Memorizer { seen: vec![] };
        let run = run_query_driven(&mut m, std::slice::from_ref(&q1), &[q1.clone(), q2.clone()]);
        assert_eq!(run.per_observe_ms.len(), 1);
        assert_eq!(run.final_params, 1);
        // Perfect on q1 (memorized), 20pp absolute error on q2 (prior 0.5).
        assert_eq!(run.stats.count, 2);
        assert!((run.stats.mean_abs - 0.1).abs() < 1e-12);
        let _ = domain;
    }

    #[test]
    fn empty_training_is_fine() {
        let mut m = Memorizer { seen: vec![] };
        let run = run_query_driven(&mut m, &[], &[]);
        assert_eq!(run.mean_per_query_ms, 0.0);
        assert_eq!(run.stats.count, 0);
    }
}
