//! Figure 6 as a Criterion micro-benchmark: the analytic penalized solve
//! vs. the iterative standard-QP (ADMM) solve on identical problems.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use quicksel_core::subpop::{build_subpopulations, workload_points};
use quicksel_core::train::build_qp;
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_linalg::{solve_analytic, AdmmQp, QpProblem};
use rand::SeedableRng;

fn make_problem(n_queries: usize) -> QpProblem {
    let table = gaussian_table(2, 0.5, 20_000, 4242);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 4243, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let queries = gen.take_queries(&table, n_queries);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4244);
    let mut pool = Vec::new();
    for q in &queries {
        pool.extend(workload_points(&q.rect, 10, &mut rng));
    }
    let m = (4 * n_queries).min(4000);
    let subpops = build_subpopulations(table.domain(), &pool, m, 10, 1.2, &mut rng);
    build_qp(&subpops, &queries)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp_solvers");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &[25usize, 50, 100] {
        let qp = make_problem(n);
        group.bench_with_input(BenchmarkId::new("analytic", n), &qp, |b, qp| {
            b.iter(|| {
                black_box(
                    solve_analytic(qp, 1e6, quicksel_linalg::qp::DEFAULT_RIDGE_REL).expect("solve"),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("admm_standard_qp", n), &qp, |b, qp| {
            b.iter(|| black_box(AdmmQp::default().solve(qp).expect("solve")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
