//! Regression: `driver::score` (one batched `estimate_many` over the
//! whole workload, one kernel pass) must produce *identical* error
//! statistics to scoring the same estimator with per-rect scalar
//! `estimate` calls — batching changes the time, never the numbers.

use quicksel_bench::driver::{evaluate, score};
use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::{ErrorStats, Estimate, Learn, ObservedQuery};
use quicksel_geometry::{Domain, Rect};

fn workload(n: usize, phase: usize) -> Vec<ObservedQuery> {
    (0..n)
        .map(|i| {
            let lo = ((i * 3 + phase) % 7) as f64;
            let rect = Rect::from_bounds(&[(lo, lo + 2.5), ((i % 5) as f64, (i % 5 + 3) as f64)]);
            ObservedQuery::new(rect, 0.1 + ((i + phase) % 8) as f64 * 0.1)
        })
        .collect()
}

fn scalar_score(est: &dyn Estimate, test: &[ObservedQuery]) -> ErrorStats {
    let pairs: Vec<(f64, f64)> =
        test.iter().map(|q| (q.selectivity, est.estimate(&q.rect))).collect();
    ErrorStats::from_pairs(&pairs)
}

fn assert_stats_identical(batched: &ErrorStats, scalar: &ErrorStats) {
    assert_eq!(batched.count, scalar.count);
    assert_eq!(batched.mean_rel_pct, scalar.mean_rel_pct, "mean relative error diverged");
    assert_eq!(batched.mean_abs, scalar.mean_abs, "mean absolute error diverged");
    assert_eq!(batched.max_rel_pct, scalar.max_rel_pct, "max relative error diverged");
}

#[test]
fn driver_scores_identical_scalar_vs_batched() {
    let domain = Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)]);
    let mut qs = QuickSel::builder(domain).refine_policy(RefinePolicy::Manual).seed(5).build();
    qs.observe_batch(&workload(30, 0));
    qs.refine().expect("training failed");
    let test = workload(50, 3);

    let batched = score(&qs, &test);
    assert_eq!(batched.count, test.len());
    assert_stats_identical(&batched, &scalar_score(&qs, &test));

    // A snapshot scores identically too.
    let snap = qs.snapshot();
    assert_stats_identical(&score(&snap, &test), &scalar_score(&qs, &test));

    // The back-compat alias is the same function.
    assert_stats_identical(&evaluate(&qs, &test), &batched);
}

#[test]
fn untrained_estimator_scores_identical_too() {
    let domain = Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)]);
    let qs = QuickSel::new(domain);
    let test = workload(40, 1);
    assert_stats_identical(&score(&qs, &test), &scalar_score(&qs, &test));
    let empty = score(&qs, &[]);
    assert_eq!(empty.count, 0);
}
