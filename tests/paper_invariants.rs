//! Paper-level invariants asserted as integration tests: the formal claims
//! of §3–§4 hold on the real pipeline, not just on unit fixtures.

use quicksel::core::subpop::{build_subpopulations, workload_points};
use quicksel::core::train::build_qp;
use quicksel::linalg::{solve_analytic, AdmmQp};
use quicksel::prelude::*;
use rand::SeedableRng;

fn pipeline_qp(
    table: &Table,
    n_queries: usize,
    m: usize,
    seed: u64,
) -> (quicksel::linalg::QpProblem, Vec<Rect>, Vec<ObservedQuery>) {
    let mut workload =
        RectWorkload::new(table.domain().clone(), seed, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let queries = workload.take_queries(table, n_queries);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut pool = Vec::new();
    for q in &queries {
        pool.extend(workload_points(&q.rect, 10, &mut rng));
    }
    let subpops = build_subpopulations(table.domain(), &pool, m, 10, 1.2, &mut rng);
    let qp = build_qp(&subpops, &queries);
    (qp, subpops, queries)
}

/// Theorem 1: the Q matrix is symmetric PSD with entries
/// `|G_i∩G_j|/(|G_i||G_j|)`, and A rows are overlap fractions in [0,1].
#[test]
fn theorem1_matrix_structure() {
    let table = quicksel::data::datasets::gaussian_table(2, 0.5, 5_000, 41);
    let (qp, subpops, _) = pipeline_qp(&table, 30, 120, 1);
    let m = subpops.len();
    for i in 0..m {
        assert!((qp.q.get(i, i) - 1.0 / subpops[i].volume()).abs() < 1e-9);
        for j in 0..m {
            assert!((qp.q.get(i, j) - qp.q.get(j, i)).abs() < 1e-12);
            let expect = subpops[i].intersection_volume(&subpops[j])
                / (subpops[i].volume() * subpops[j].volume());
            assert!((qp.q.get(i, j) - expect).abs() < 1e-9);
        }
    }
    // wᵀQw = ∫f² ≥ 0 for arbitrary w (PSD check on random vectors).
    let mut rng_state = 0.7f64;
    for _ in 0..16 {
        let w: Vec<f64> = (0..m)
            .map(|_| {
                rng_state = (rng_state * 9301.0 + 49297.0).rem_euclid(233280.0) / 233280.0;
                rng_state - 0.5
            })
            .collect();
        assert!(qp.objective(&w) >= -1e-9);
    }
    for i in 0..qp.num_constraints() {
        for j in 0..m {
            let a = qp.a.get(i, j);
            assert!((0.0..=1.0 + 1e-9).contains(&a), "A[{i}][{j}] = {a}");
        }
    }
}

/// §4.2: the analytic solution of the penalized problem satisfies the
/// observations (λ = 10⁶ makes violations tiny) and the positivity
/// relaxation is "naturally satisfied" in aggregate: the resulting model
/// yields non-negative clamped estimates matching constraints.
#[test]
fn penalized_solution_consistency() {
    let table = quicksel::data::datasets::gaussian_table(2, 0.5, 20_000, 42);
    let (qp, subpops, queries) = pipeline_qp(&table, 40, 160, 2);
    let w = solve_analytic(&qp, 1e6, 0.0).expect("solve");
    assert!(qp.constraint_violation(&w) < 1e-3);
    let model = quicksel::core::UniformMixtureModel::new(subpops, w);
    for q in &queries {
        assert!((model.estimate(&q.rect) - q.selectivity).abs() < 1e-2);
    }
    // Total mass pinned by the (B0, 1) row.
    assert!((model.total_weight() - 1.0).abs() < 1e-4);
}

/// §5.4: the analytic solution and the standard QP agree on the training
/// constraints; the analytic path performs zero iterations.
#[test]
fn analytic_matches_standard_qp() {
    let table = quicksel::data::datasets::gaussian_table(2, 0.3, 10_000, 43);
    let (qp, _, _) = pipeline_qp(&table, 20, 80, 3);
    let wa = solve_analytic(&qp, 1e6, 0.0).expect("analytic");
    let report = AdmmQp::default().solve(&qp).expect("admm");
    assert!(report.iterations > 0);
    let aw_a = qp.a.matvec(&wa);
    let aw_i = qp.a.matvec(&report.w);
    for (x, y) in aw_a.iter().zip(&aw_i) {
        assert!((x - y).abs() < 5e-3, "Aw mismatch: {x} vs {y}");
    }
}

/// §3.2: estimation is exactly `Σ w_z |G_z∩B|/|G_z|` — verified against a
/// brute-force Monte-Carlo integration of the mixture density.
#[test]
fn estimation_matches_density_integral() {
    let table = quicksel::data::datasets::gaussian_table(2, 0.5, 10_000, 44);
    let mut workload =
        RectWorkload::new(table.domain().clone(), 45, ShiftMode::Random, CenterMode::DataRow);
    let mut qs = QuickSel::new(table.domain().clone());
    for q in workload.take_queries(&table, 25) {
        qs.observe(&q);
    }
    let model = qs.model().expect("trained");
    let probe = Rect::from_bounds(&[(-1.5, 1.5), (-1.5, 1.5)]);
    // Deterministic grid integration of f(x) over the probe.
    let steps = 200;
    let (w, h) = (3.0 / steps as f64, 3.0 / steps as f64);
    let mut integral = 0.0;
    for i in 0..steps {
        for j in 0..steps {
            let x = -1.5 + (i as f64 + 0.5) * w;
            let y = -1.5 + (j as f64 + 0.5) * h;
            integral += model.density(&[x, y]) * w * h;
        }
    }
    let est = model.estimate_raw(&probe);
    assert!((integral - est).abs() < 0.02, "integral {integral} vs est {est}");
}

/// §3.3: the default subpopulation budget follows m = min(4n, 4000) and
/// supports always stay inside B0 with positive volume.
#[test]
fn subpopulation_budget_and_supports() {
    let table = quicksel::data::datasets::gaussian_table(2, 0.2, 5_000, 46);
    let mut workload =
        RectWorkload::new(table.domain().clone(), 47, ShiftMode::Random, CenterMode::DataRow);
    let mut qs = QuickSel::new(table.domain().clone());
    for (i, q) in workload.take_queries(&table, 30).iter().enumerate() {
        qs.observe(q);
        let model = qs.model().expect("trained");
        assert_eq!(model.len(), (4 * (i + 1)).min(4000));
        let b0 = table.domain().full_rect();
        for g in model.rects() {
            assert!(g.volume() > 0.0);
            assert!(b0.contains_rect(g));
        }
    }
}
