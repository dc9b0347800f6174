//! Training-path throughput: cold retrain + warm incremental refine,
//! naive vs optimized, with machine-readable JSON output.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench train_throughput
//! ```
//!
//! Measures one full model refinement at the paper's subpopulation
//! budgets, three ways:
//!
//! * **cold naive** — the pre-optimization path: full-sort k-NN sizing
//!   (`size_subpopulations_reference`), all-pairs `build_qp` through
//!   per-element `set`, dense Gram, and the reference unblocked Cholesky
//!   with its strided backward sweep.
//! * **cold optimized** — grid-accelerated sizing, grid-pruned SoA
//!   assembly (`SubpopGrid`), blocked Cholesky (`IncrementalTrainer::cold`).
//! * **warm incremental** — `IncrementalTrainer::refine` folding a small
//!   query delta into the cached system as a rank-k update (subpops
//!   unchanged), against the naive path's only option of a full cold
//!   rebuild.
//!
//! Before timing, the bench asserts the pruned assembly equals the naive
//! assembly (≤1e-12) and that warm weights match a from-scratch rebuild,
//! so the speedups compare *equivalent* computations.
//!
//! A JSON document is written to
//! `target/bench-results/train_throughput.json` (override with
//! `TRAIN_BENCH_OUT=...`), same convention as `batched_estimate`,
//! including the m=4000 cold and warm headline speedups the README and
//! acceptance criteria quote.

use quicksel_core::subpop::{size_subpopulations_reference, workload_points};
use quicksel_core::train::{build_qp, IncrementalTrainer};
use quicksel_core::SubpopGrid;
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_linalg::CholeskyFactor;
use rand::SeedableRng;
use std::time::Instant;

const LAMBDA: f64 = 1e6;
const RIDGE_REL: f64 = quicksel_linalg::qp::DEFAULT_RIDGE_REL;
/// Queries folded in per warm refine ("small query delta").
const WARM_DELTA: usize = 16;
/// Subpopulation budgets measured; 4000 is the paper cap and the
/// acceptance headline.
const BUDGETS: [usize; 2] = [1000, 4000];

struct Workload {
    domain: Domain,
    queries: Vec<ObservedQuery>,
    pool: Vec<Vec<f64>>,
}

/// Gaussian table + workload sized so `m = min(4n, 4000)` hits `m`
/// exactly, plus `WARM_DELTA` extra queries for the warm phase.
fn workload(m: usize) -> Workload {
    let n = m / 4;
    let table = gaussian_table(3, 0.5, 20_000, 7171);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 7172, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let queries = gen.take_queries(&table, n + WARM_DELTA);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7173);
    let mut pool = Vec::new();
    for q in &queries[..n] {
        pool.extend(workload_points(&q.rect, 10, &mut rng));
    }
    Workload { domain: table.domain().clone(), queries, pool }
}

/// §3.3 centers for the budget (shared by both paths so sizing is the
/// only differing step).
fn centers(w: &Workload, m: usize) -> Vec<Vec<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7174);
    quicksel_core::subpop::sample_centers(&w.pool, m, &mut rng)
}

/// The pre-optimization cold retrain, end to end: reference sizing,
/// naive all-pairs assembly, dense Gram, reference Cholesky solve.
fn cold_naive(w: &Workload, centers: &[Vec<f64>], n: usize) -> (Vec<Rect>, Vec<f64>, f64) {
    let subpops = size_subpopulations_reference(&w.domain, centers, 10, 1.2);
    let qp = build_qp(&subpops, &w.queries[..n]);
    // solve_analytic as it was before blocked Cholesky: same algebra,
    // reference factorization + reference substitution.
    let gram = qp.a.gram();
    let mut system = qp.q.clone();
    system.add_scaled(LAMBDA, &gram);
    let m = qp.num_params().max(1);
    system.add_diagonal(system.trace() / m as f64 * RIDGE_REL);
    let mut rhs = qp.a.t_matvec(&qp.s);
    for v in &mut rhs {
        *v *= LAMBDA;
    }
    let weights =
        CholeskyFactor::new_reference(&system).expect("ridged system is SPD").solve_reference(&rhs);
    let violation = qp.constraint_violation(&weights);
    (subpops, weights, violation)
}

/// The optimized cold retrain (grid sizing + pruned assembly + blocked
/// factor), returning the trainer for the warm phase.
fn cold_optimized(w: &Workload, centers: &[Vec<f64>], n: usize) -> (IncrementalTrainer, Vec<f64>) {
    let subpops = quicksel_core::subpop::size_subpopulations(&w.domain, centers, 10, 1.2);
    let (trainer, model, _) =
        IncrementalTrainer::cold(subpops, &w.queries[..n], LAMBDA, RIDGE_REL).expect("cold train");
    let weights = model.weights().to_vec();
    (trainer, weights)
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn main() {
    println!("train_throughput: naive vs pruned-SoA + blocked-Cholesky + incremental refine");
    let mut lines = Vec::new();
    let mut headline_cold = 0.0;
    let mut headline_warm = 0.0;

    for &m in &BUDGETS {
        let n = m / 4;
        let w = workload(m);
        let cs = centers(&w, m);
        assert_eq!(cs.len(), m, "pool must saturate the budget");

        // --- Correctness gates before any timing. ---
        // 1. Pruned assembly equals naive assembly on these subpops.
        let ref_subpops = size_subpopulations_reference(&w.domain, &cs, 10, 1.2);
        let fast_subpops = quicksel_core::subpop::size_subpopulations(&w.domain, &cs, 10, 1.2);
        for (a, b) in ref_subpops.iter().zip(&fast_subpops) {
            assert_eq!(format!("{a}"), format!("{b}"), "sizing paths diverged");
        }
        let probe_n = n.min(64); // full QP equivalence is O(n·m); sample it
        let naive_qp = build_qp(&ref_subpops, &w.queries[..probe_n]);
        let pruned_qp = SubpopGrid::new(&ref_subpops).assemble_qp(&w.queries[..probe_n]);
        assert!(naive_qp.q.max_abs_diff(&pruned_qp.q) <= 1e-12, "Q diverged");
        assert!(naive_qp.a.max_abs_diff(&pruned_qp.a) <= 1e-12, "A diverged");

        // --- Cold naive (seconds at m=4000: measure once). ---
        let t = Instant::now();
        let (_, naive_weights, naive_violation) = cold_naive(&w, &cs, n);
        let cold_naive_s = t.elapsed().as_secs_f64();

        // --- Cold optimized (median of 3). ---
        let mut cold_samples = Vec::new();
        let mut kept: Option<(IncrementalTrainer, Vec<f64>)> = None;
        for _ in 0..3 {
            let t = Instant::now();
            let out = cold_optimized(&w, &cs, n);
            cold_samples.push(t.elapsed().as_secs_f64());
            kept = Some(out);
        }
        let cold_s = median_secs(cold_samples);
        let (trainer, cold_weights) = kept.expect("measured at least once");

        // 2. Optimized cold weights agree with the naive solve (same
        //    system up to blocked-vs-reference fp reassociation).
        let wscale = naive_weights.iter().fold(1e-9f64, |a, w| a.max(w.abs()));
        for (a, b) in naive_weights.iter().zip(&cold_weights) {
            assert!((a - b).abs() <= 1e-6 * wscale.max(1.0), "cold weights diverged: {a} vs {b}");
        }

        // --- Warm incremental refine (median of 3, fresh clone each). ---
        let delta = &w.queries[n..n + WARM_DELTA];
        let mut warm_samples = Vec::new();
        let mut warm_weights = Vec::new();
        for _ in 0..3 {
            let mut fresh = trainer.clone();
            let t = Instant::now();
            let (model, report) = fresh.refine(delta);
            warm_samples.push(t.elapsed().as_secs_f64());
            assert!(report.assembly_reused, "warm path did not fire");
            assert_eq!(report.rows_appended, WARM_DELTA);
            warm_weights = model.weights().to_vec();
        }
        let warm_s = median_secs(warm_samples);

        // 3. Warm weights match a from-scratch rebuild over all n+Δ
        //    queries with the same subpops.
        let scratch = {
            let (_, model, _) = IncrementalTrainer::cold(
                trainer.subpops().to_vec(),
                &w.queries[..n + WARM_DELTA],
                LAMBDA,
                RIDGE_REL,
            )
            .expect("scratch rebuild");
            model.weights().to_vec()
        };
        let sscale = scratch.iter().fold(1e-9f64, |a, w| a.max(w.abs()));
        for (a, b) in warm_weights.iter().zip(&scratch) {
            assert!(
                (a - b).abs() <= 1e-4 * sscale.max(1.0),
                "warm weights diverged from scratch: {a} vs {b}"
            );
        }

        // The naive path's answer to the same warm delta is a full cold
        // rebuild — that is the warm baseline.
        let cold_speedup = cold_naive_s / cold_s;
        let warm_speedup = cold_naive_s / warm_s;
        if m == 4000 {
            headline_cold = cold_speedup;
            headline_warm = warm_speedup;
        }
        println!(
            "  m={m:>4} n={n:>4}: cold naive {:>8.1} ms | cold {:>8.1} ms ({cold_speedup:.2}x) | warm Δ={WARM_DELTA} {:>7.2} ms ({warm_speedup:.1}x) | violation {naive_violation:.2e}",
            cold_naive_s * 1e3,
            cold_s * 1e3,
            warm_s * 1e3,
        );
        lines.push(format!(
            "{{\"subpops\":{m},\"constraints\":{},\"cold_naive_ms\":{:.3},\"cold_ms\":{:.3},\"warm_rows\":{WARM_DELTA},\"warm_ms\":{:.3},\"cold_speedup\":{cold_speedup:.3},\"warm_speedup\":{warm_speedup:.3}}}",
            n + 1,
            cold_naive_s * 1e3,
            cold_s * 1e3,
            warm_s * 1e3,
        ));
    }

    println!("  headline (m=4000): cold {headline_cold:.2}x, warm incremental {headline_warm:.1}x");
    let fields = format!(
        "\"lambda\":{LAMBDA:e},\"grid\":[{}],\"headline_cold_speedup_m4000\":{headline_cold:.3},\"headline_warm_speedup_m4000\":{headline_warm:.3}",
        lines.join(",")
    );
    quicksel_bench::write_bench_json("train_throughput", "TRAIN_BENCH_OUT", &fields);
}
