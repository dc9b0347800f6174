//! Diagnostic (not a paper experiment): sensitivity of the analytic solve
//! to an always-on Tikhonov ridge, in the ill-conditioned m ≈ n regime.

use quicksel_bench::driver::evaluate;
use quicksel_core::subpop::{build_subpopulations, workload_points};
use quicksel_core::train::build_qp;
use quicksel_core::UniformMixtureModel;
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::{mean_rel_error_pct, Estimate};
use quicksel_linalg::solve_spd;
use rand::SeedableRng;

struct Model(UniformMixtureModel);
impl Estimate for Model {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn estimate(&self, rect: &quicksel_geometry::Rect) -> f64 {
        self.0.estimate(rect)
    }
    fn param_count(&self) -> usize {
        self.0.len()
    }
}

fn main() {
    let table = gaussian_table(2, 0.5, 50_000, 703);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 53, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    for n in [50usize, 100, 200] {
        let train = gen.take_queries(&table, n);
        let test = gen.take_queries(&table, 100);
        for m in [n / 2, n, 2 * n] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let mut pool = Vec::new();
            for q in &train {
                pool.extend(workload_points(&q.rect, 10, &mut rng));
            }
            let subpops = build_subpopulations(table.domain(), &pool, m, 10, 1.2, &mut rng);
            let qp = build_qp(&subpops, &train);
            for ridge_exp in [0i32, -9, -7, -5, -3] {
                let lambda = 1e6;
                let mut sys = qp.a.gram();
                let mut system = qp.q.clone();
                system.add_scaled(lambda, &sys);
                if ridge_exp != 0 {
                    let ridge = system.trace() / m as f64 * 10f64.powi(ridge_exp);
                    system.add_diagonal(ridge);
                }
                let mut rhs = qp.a.t_matvec(&qp.s);
                for v in &mut rhs {
                    *v *= lambda;
                }
                sys = system;
                let w = solve_spd(&sys, &rhs).unwrap();
                let viol = qp.constraint_violation(&w);
                let model = Model(UniformMixtureModel::new(subpops.clone(), w));
                let stats = evaluate(&model, &test);
                println!(
                    "n={n:4} m={m:4} ridge=1e{ridge_exp:+} err={:7.2}% viol={viol:.2e}",
                    stats.mean_rel_pct
                );
                let _ = mean_rel_error_pct(&[]);
            }
        }
        println!();
    }
}
