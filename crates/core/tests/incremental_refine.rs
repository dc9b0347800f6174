//! Incremental (warm) refine correctness.
//!
//! Three contracts:
//!
//! * weights from the rank-k–updated cached system match a from-scratch
//!   rebuild over the same subpopulations and query set,
//! * `RefineOutcome`/`TrainReport` faithfully report the reuse
//!   (`incremental` / `assembly_reused` / `rows_appended`),
//! * the grid-accelerated partial-selection `size_subpopulations`
//!   produces **identical** rects to the full-sort reference path.

use proptest::prelude::*;
use quicksel_core::subpop::{size_subpopulations, size_subpopulations_reference};
use quicksel_core::train::IncrementalTrainer;
use quicksel_core::{QuickSel, RefinePolicy, SubpopGrid, UniformMixtureModel};
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::{Estimate, Learn, ObservedQuery, RefineOutcome};
use quicksel_geometry::{Domain, Rect};
use quicksel_linalg::solve_analytic;

fn workload(seed: u64, n: usize) -> (quicksel_data::Table, Vec<ObservedQuery>) {
    let table = gaussian_table(2, 0.4, 8_000, seed);
    let mut gen =
        RectWorkload::new(table.domain().clone(), seed, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let queries = gen.take_queries(&table, n);
    (table, queries)
}

/// Warm refines folding queries in one at a time end at the same weights
/// as one cold rebuild over the identical subpops + full query set.
#[test]
fn incremental_weights_match_from_scratch_rebuild() {
    let (table, queries) = workload(401, 24);
    // Fix the subpop set for both paths: size it from the first batch's
    // workload points via a throwaway estimator's pipeline.
    let mut seeder = QuickSel::builder(table.domain().clone())
        .refine_policy(RefinePolicy::Manual)
        .seed(9)
        .build();
    seeder.observe_batch(&queries[..8]);
    seeder.refine().unwrap();
    let subpops = seeder.model().unwrap().rects().to_vec();

    let (mut trainer, _, _) =
        IncrementalTrainer::cold(subpops.clone(), &queries[..8], 1e6, 0.0).unwrap();
    let mut warm = None;
    for chunk in queries[8..].chunks(4) {
        let (model, report) = trainer.refine(chunk);
        assert!(report.assembly_reused);
        assert_eq!(report.rows_appended, chunk.len());
        warm = Some(model);
    }
    let warm = warm.unwrap();

    // The from-scratch reference: the analytic solve of the QP assembled
    // over the same subpops and the full query set.
    let qp = SubpopGrid::new(&subpops).assemble_qp(&queries);
    let scratch = UniformMixtureModel::new(subpops, solve_analytic(&qp, 1e6, 0.0).unwrap());
    let scale: f64 = scratch.weights().iter().map(|w| w.abs()).fold(1e-9, f64::max);
    for (wi, ws) in warm.weights().iter().zip(scratch.weights()) {
        assert!(
            (wi - ws).abs() <= 1e-6 * scale.max(1.0),
            "incremental {wi} vs from-scratch {ws} (scale {scale})"
        );
    }
    // And the two models estimate alike everywhere we probe.
    let probes = [
        Rect::from_bounds(&[(-1.0, 0.0), (-1.0, 0.0)]),
        Rect::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
        Rect::from_bounds(&[(0.2, 1.4), (-0.8, 0.3)]),
    ];
    for p in &probes {
        assert!((warm.estimate(p) - scratch.estimate(p)).abs() < 1e-6);
    }
}

/// The estimator surface: once the budget plateaus, refines report
/// `incremental: true` + `assembly_reused`, and the warm model keeps
/// satisfying its training constraints.
#[test]
fn estimator_warm_refine_reports_reuse_and_stays_accurate() {
    let (table, queries) = workload(402, 30);
    let mut qs = QuickSel::builder(table.domain().clone())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(48)
        .seed(11)
        .build();
    qs.observe_batch(&queries[..15]);
    let cold = qs.refine().unwrap();
    assert!(matches!(cold, RefineOutcome::Retrained { incremental: false, .. }), "{cold:?}");

    qs.observe_batch(&queries[15..]);
    let warm = qs.refine().unwrap();
    match warm {
        RefineOutcome::Retrained { params, constraints, incremental } => {
            assert!(incremental, "expected a warm refine");
            assert_eq!(params, 48);
            assert_eq!(constraints, queries.len() + 1);
        }
        other => panic!("expected Retrained, got {other:?}"),
    }
    let report = qs.last_report().unwrap();
    assert!(report.assembly_reused);
    assert_eq!(report.rows_appended, 15);
    assert!(report.constraint_violation < 1e-2, "violation {}", report.constraint_violation);

    // The warm model still reproduces recent feedback reasonably.
    let mut err = 0.0f64;
    for q in &queries[15..] {
        err = err.max((qs.estimate(&q.rect) - q.selectivity).abs());
    }
    assert!(err < 0.05, "warm model training error {err}");
}

/// Degenerate new feedback (zero-volume predicates → all-zero constraint
/// rows) must not break the warm path.
#[test]
fn warm_refine_accepts_degenerate_rows() {
    let subpops = vec![
        Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]),
        Rect::from_bounds(&[(4.0, 9.0), (4.0, 9.0)]),
    ];
    let first = [ObservedQuery::new(Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]), 0.6)];
    let (mut trainer, _, _) = IncrementalTrainer::cold(subpops, &first, 1e6, 0.0).unwrap();
    let degenerate = ObservedQuery::new(Rect::from_bounds(&[(3.0, 3.0), (0.0, 10.0)]), 0.0);
    let (model, report) = trainer.refine(std::slice::from_ref(&degenerate));
    assert!(report.assembly_reused);
    assert_eq!(report.rows_appended, 1);
    // The all-zero row constrains nothing; the model still satisfies the
    // original observation.
    assert!((model.estimate(&first[0].rect) - 0.6).abs() < 0.05);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grid-accelerated partial-selection sizing returns *identical*
    /// rects to the full-sort reference, across dimensions, duplicate
    /// centers, boundary centers, and k larger than the center count.
    #[test]
    fn prop_sizing_matches_reference_exactly(
        dim in 1..4usize,
        k in 0..12usize,
        center_raw in prop::collection::vec(-1.0..11.0f64, 1..90),
        dup in 0..3usize,
    ) {
        let cols: Vec<(&str, f64, f64)> =
            ["x", "y", "z", "w"][..dim].iter().map(|&n| (n, 0.0, 10.0)).collect();
        let d = Domain::of_reals(&cols);
        let mut centers: Vec<Vec<f64>> =
            center_raw.chunks_exact(dim).map(|c| c.to_vec()).collect();
        if centers.is_empty() {
            return Ok(());
        }
        // Force duplicates and a boundary center into the mix.
        for _ in 0..dup {
            let c = centers[0].clone();
            centers.push(c);
        }
        centers.push(vec![0.0; dim]);
        let fast = size_subpopulations(&d, &centers, k, 1.2);
        let reference = size_subpopulations_reference(&d, &centers, k, 1.2);
        prop_assert_eq!(fast.len(), reference.len());
        for (zi, (f, r)) in fast.iter().zip(&reference).enumerate() {
            for dimi in 0..dim {
                let (fs, rs) = (f.side(dimi), r.side(dimi));
                prop_assert_eq!(fs.lo, rs.lo, "center {} dim {} lo", zi, dimi);
                prop_assert_eq!(fs.hi, rs.hi, "center {} dim {} hi", zi, dimi);
            }
        }
    }
}
