//! Figure 6: QuickSel's analytic QP vs. standard (iterative) QP (§5.4).
//!
//! For growing numbers of observed queries, assemble the Theorem-1 QP and
//! time (i) the closed-form penalized solve and (ii) the OSQP-style ADMM
//! solver on the standard constrained program.
//!
//! Run with `cargo run -p quicksel-bench --release --bin fig6`.

use quicksel_bench::{fmt_duration_ms, Scale, TextTable};
use quicksel_core::subpop::build_subpopulations;
use quicksel_core::train::build_qp;
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_linalg::qp::AdmmSettings;
use quicksel_linalg::{solve_analytic, AdmmQp};
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    let table = gaussian_table(2, 0.5, scale.gaussian_rows(), 1860);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 41, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);

    // The paper sweeps 0..1000 observed queries with m = min(4n, 4000);
    // the dense kernels here are single-threaded, so the default grid stops
    // at m = 1600 — the separation between the two solvers is already
    // decisive there (and scaled runs only widen it).
    let ns: &[usize] = if scale.fast { &[25, 50, 100, 200] } else { &[25, 50, 100, 200, 300, 400] };
    let max_n = *ns.last().unwrap();
    let queries = gen.take_queries(&table, max_n);

    println!("=== Figure 6 — standard QP vs QuickSel's analytic QP ===\n");
    let mut t = TextTable::new(vec![
        "n queries",
        "m params",
        "analytic (QuickSel)",
        "ADMM (standard QP)",
        "admm iters",
        "slowdown",
    ]);
    let mut capped = false;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for &n in ns {
        // §3.3 pipeline at this query count.
        let mut pool = Vec::new();
        for q in &queries[..n] {
            pool.extend(quicksel_core::subpop::workload_points(&q.rect, 10, &mut rng));
        }
        let m = (4 * n).min(4000);
        let subpops = build_subpopulations(table.domain(), &pool, m, 10, 1.2, &mut rng);
        let qp = build_qp(&subpops, &queries[..n]);

        let t0 = Instant::now();
        let w_a = solve_analytic(&qp, 1e6, quicksel_linalg::qp::DEFAULT_RIDGE_REL)
            .expect("analytic solve");
        let analytic_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let admm = AdmmQp::default().solve(&qp).expect("admm solve");
        let admm_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Both must satisfy the observations.
        let va = qp.constraint_violation(&w_a);
        let vi = qp.constraint_violation(&admm.w);
        assert!(va < 1e-2, "analytic violation {va}");
        assert!(vi < 1e-2, "admm violation {vi}");

        // A capped run missed its tolerance: its time and slowdown are lower bounds.
        capped |= !admm.converged;
        let (bound, cap) = if admm.converged { ("", "") } else { ("≥", " (cap)") };
        t.row(vec![
            n.to_string(),
            subpops.len().to_string(),
            fmt_duration_ms(analytic_ms),
            format!("{bound}{}", fmt_duration_ms(admm_ms)),
            format!("{}{cap}", admm.iterations),
            format!("{bound}{:.1}x", admm_ms / analytic_ms.max(1e-9)),
        ]);
    }
    t.print();
    let AdmmSettings { rho, max_iter, tol, .. } = AdmmSettings::default();
    if capped {
        println!(
            "\n(cap) ADMM stopped at `AdmmSettings::max_iter` = {max_iter} before its \
             residuals met {tol:e}; ≥ marks a lower bound."
        );
    }
    println!(
        "\n(paper: the analytic form was 1.5x–17.2x faster, growing with n; 8.36x at 1000 queries.\n \
         This ADMM keeps ρ = {rho} fixed, with no adaptive ρ as in OSQP, so it needs more\n \
         iterations and its slowdowns read above the paper's.)"
    );
}
