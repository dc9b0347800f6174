//! The bounded-history contract:
//!
//! * `max_history = usize::MAX` is **bit-identical** (`==`, not a
//!   tolerance) to the historic unbounded path — the budget enforcement
//!   must be a structural no-op, consuming no RNG and touching no state;
//! * under eviction, a stationary workload's estimates stay within
//!   tolerance of the unbounded reference (compacted summaries keep
//!   covering the old regions);
//! * after ingesting many times the budget, every history-proportional
//!   structure (query log, point pool, trainer system) is bounded by
//!   the budget, not the ingest count.

use proptest::prelude::*;
use quicksel_core::{QuickSel, RefinePolicy, SubpopGrid};
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::{Estimate, Learn, ObservedQuery, RefineOutcome};
use quicksel_geometry::{Domain, Rect};
use quicksel_linalg::{factor_spd, solve_spd};

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn obs(k: usize) -> ObservedQuery {
    let lo_x = (k * 13 % 70) as f64 * 0.1;
    let lo_y = (k * 29 % 60) as f64 * 0.1;
    let len = 0.8 + (k % 5) as f64 * 0.6;
    let rect = Rect::from_bounds(&[(lo_x, lo_x + len), (lo_y, lo_y + len)]);
    ObservedQuery::new(rect, (k % 10) as f64 * 0.1)
}

fn probes() -> Vec<Rect> {
    (0..40)
        .map(|k| {
            let lo_x = (k * 7 % 80) as f64 * 0.1;
            let lo_y = (k * 17 % 80) as f64 * 0.1;
            let len = 0.5 + (k % 7) as f64 * 1.1;
            Rect::from_bounds(&[(lo_x, (lo_x + len).min(10.0)), (lo_y, (lo_y + len).min(10.0))])
        })
        .collect()
}

fn learner(seed: u64, max_history: usize) -> QuickSel {
    QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(32)
        .seed(seed)
        .max_history(max_history)
        .build()
}

#[test]
fn unbounded_budget_is_bit_identical_to_a_huge_finite_one() {
    // `usize::MAX` takes the structural no-op path; a finite budget that
    // is never reached takes the enforcement loop's zero-iteration path.
    // Both must match exactly: same estimates, same RNG stream, same
    // refine decisions.
    let mut a = learner(17, usize::MAX);
    let mut b = learner(17, 1_000_000);
    for i in 0..15 {
        let batch: Vec<ObservedQuery> = (0..3).map(|j| obs(i * 3 + j)).collect();
        a.observe_batch(&batch);
        b.observe_batch(&batch);
        assert_eq!(a.refine().unwrap(), b.refine().unwrap());
    }
    for p in probes() {
        assert_eq!(a.estimate(&p), b.estimate(&p));
    }
    assert_eq!(a.evicted_rows(), 0);
    assert_eq!(b.evicted_rows(), 0);
}

#[test]
fn stationary_workload_stays_accurate_under_eviction() {
    // Same stationary feedback stream into an unbounded reference and a
    // tightly bounded learner; the bounded one must keep estimating the
    // stationary distribution, not forget it.
    let table = gaussian_table(2, 0.35, 4_000, 23);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 31, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.15, 0.45);
    let train = gen.take_queries(&table, 120);
    let probes = gen.take_queries(&table, 40);

    let build = |budget: usize| {
        QuickSel::builder(table.domain().clone())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(48)
            .seed(5)
            .max_history(budget)
            .build()
    };
    let mut unbounded = build(usize::MAX);
    let mut bounded = build(30);
    for chunk in train.chunks(4) {
        unbounded.observe_batch(chunk);
        bounded.observe_batch(chunk);
        unbounded.refine().expect("unbounded refine");
        bounded.refine().expect("bounded refine");
    }
    assert!(bounded.evicted_rows() > 0, "budget 30 over 120 rows must evict");
    assert!(bounded.history_len() <= 30);

    let mut err_unbounded = 0.0;
    let mut err_bounded = 0.0;
    for p in &probes {
        let truth = table.selectivity(&p.rect);
        err_unbounded += (unbounded.estimate(&p.rect) - truth).abs();
        err_bounded += (bounded.estimate(&p.rect) - truth).abs();
    }
    err_unbounded /= probes.len() as f64;
    err_bounded /= probes.len() as f64;
    // The bounded model may lose some fidelity but must stay in the same
    // accuracy regime as the unbounded reference on a stationary
    // workload.
    assert!(
        err_bounded <= err_unbounded + 0.05,
        "bounded mean abs error {err_bounded:.4} vs unbounded {err_unbounded:.4}"
    );
}

#[test]
fn long_bounded_run_keeps_the_updated_factor_on_a_fresh_solve() {
    // A cold build on 100 rows, then 1,400 single-row warm refines: the
    // first 900 fill the budget, and each of the last 500 also forces a
    // compaction merge, which the trainer's factor takes as one update
    // and two downdates. After all of them the weights must stay within
    // 1e-8 (relative) of a fresh factorization of the system the trainer
    // answers for, assembled fresh: `Q` from the supports, `AᵀA` and
    // `Aᵀs` from `A`.
    let mut est = QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(64)
        .drift_patience(usize::MAX)
        .seed(5)
        .max_history(1000)
        .build();
    est.observe_batch(&(0..100).map(obs).collect::<Vec<_>>());
    est.refine().unwrap();
    for k in 100..1500 {
        est.observe_batch(&[obs(k)]);
        let outcome = est.refine().unwrap();
        assert!(
            matches!(outcome, RefineOutcome::Retrained { incremental: true, .. }),
            "refine {k} was not warm: {outcome:?}"
        );
    }
    assert!(est.evicted_rows() >= 500, "only {} merges", est.evicted_rows());

    let t = est.export_state().trainer.unwrap();
    let a = t.a.to_dense();
    let mut system = SubpopGrid::new(&t.subpops).assemble_q();
    system.add_scaled(t.lambda, &a.gram());
    system.add_diagonal(t.ridge_abs);
    // The factor was maintained in place: it is not what a refactor of
    // the fresh assembly would give.
    assert_ne!(t.factor_lower.as_slice(), factor_spd(&system).unwrap().l().as_slice());
    let rhs: Vec<f64> = a.t_matvec(&t.s).iter().map(|v| v * t.lambda).collect();
    let fresh = solve_spd(&system, &rhs).unwrap();
    let scale = fresh.iter().fold(0.0f64, |m, w| m.max(w.abs()));
    for (w, f) in est.model().unwrap().weights().iter().zip(&fresh) {
        assert!((w - f).abs() < 1e-8 * scale, "updated {w} vs fresh {f}");
    }
}

#[test]
fn heap_state_is_bounded_by_the_budget_after_ten_times_the_ingest() {
    let budget = 24;
    let ppq = 10; // the config default
    let mut qs = learner(9, budget);
    let total = budget * 10;
    for i in 0..total {
        qs.observe(&obs(i));
        if i % 4 == 3 {
            qs.refine().expect("refine");
        }
    }
    qs.refine().expect("final refine");

    let state = qs.export_state();
    assert_eq!(qs.history_len(), state.queries.len());
    assert!(state.queries.len() <= budget, "query log {} > budget {budget}", state.queries.len());
    assert!(
        state.point_pool.len() <= budget * ppq,
        "point pool {} > budget×ppq {}",
        state.point_pool.len(),
        budget * ppq
    );
    assert_eq!(state.point_counts.len(), state.queries.len());
    let counted: u64 = state.point_counts.iter().map(|&c| u64::from(c)).sum();
    assert_eq!(counted, state.point_pool.len() as u64);
    let trainer = state.trainer.expect("trained");
    // The trainer's constraint system: budget rows + the implicit
    // full-domain row.
    assert!(trainer.a.rows() <= budget + 1, "trainer A has {} rows", trainer.a.rows());
    assert_eq!(trainer.s.len(), trainer.a.rows());
    assert_eq!(qs.evicted_rows(), (total - state.queries.len()) as u64);

    // The compacted summaries keep the estimator serving sane values.
    for p in probes() {
        let e = qs.estimate(&p);
        assert!((0.0..=1.0).contains(&e), "estimate {e} out of range");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-identity of the unbounded path, under random workloads,
    /// batch shapes, and refine cadences.
    #[test]
    fn prop_unbounded_budget_matches_legacy_path_exactly(
        seed in 0..500u64,
        batches in 1..10usize,
        batch_size in 1..5usize,
    ) {
        let mut a = learner(seed, usize::MAX);
        let mut b = learner(seed, 1_000_000);
        for i in 0..batches {
            let batch: Vec<ObservedQuery> =
                (0..batch_size).map(|j| obs(i * batch_size + j + seed as usize)).collect();
            a.observe_batch(&batch);
            b.observe_batch(&batch);
            prop_assert_eq!(a.refine().is_ok(), b.refine().is_ok());
        }
        for p in probes() {
            prop_assert_eq!(a.estimate(&p), b.estimate(&p));
        }
    }

    /// Under eviction the history length invariant holds at every step,
    /// and the estimator keeps producing valid probabilities.
    #[test]
    fn prop_eviction_keeps_history_at_budget(
        seed in 0..500u64,
        budget in 4..20usize,
        rows in 30..80usize,
    ) {
        let mut qs = learner(seed, budget);
        for i in 0..rows {
            qs.observe(&obs(i));
            prop_assert!(qs.history_len() <= budget);
            if i % 5 == 4 {
                let _ = qs.refine();
            }
        }
        for p in probes() {
            let e = qs.estimate(&p);
            prop_assert!((0.0..=1.0).contains(&e));
        }
    }
}
