//! Stage-level timing of one cold retrain at m=4000, plus the factor
//! work of one warm 4-row refine (dev diagnostics).

use quicksel_core::subpop::{sample_centers, size_subpopulations, workload_points};
use quicksel_core::SubpopGrid;
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_linalg::{CholeskyFactor, UpdatableCholesky};
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // Spin the workspace pool up (thread creation + first wake) before
    // the first timed stage, so one-time spin-up isn't attributed to
    // whichever stage happens to fan out first.
    let pool = quicksel_parallel::global();
    pool.warm_up();
    println!("threads      {:>8}", pool.threads());

    let m = 4000;
    let n = m / 4;
    let table = gaussian_table(3, 0.5, 20_000, 7171);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 7172, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let queries = gen.take_queries(&table, n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7173);
    let mut pool = Vec::new();
    for q in &queries {
        pool.extend(workload_points(&q.rect, 10, &mut rng));
    }
    let centers = sample_centers(&pool, m, &mut rng);

    let t = Instant::now();
    let subpops = size_subpopulations(table.domain(), &centers, 10, 1.2);
    println!("sizing       {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let grid = SubpopGrid::new(&subpops);
    println!("grid build   {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let q = grid.assemble_q();
    println!("assemble Q   {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let (a, sparse, s) = grid.assemble_a(&queries);
    println!("assemble A   {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    println!("A nnz frac   {:>8.3}", sparse.nnz() as f64 / (a.rows() * a.cols()) as f64);

    let t = Instant::now();
    let gram = a.gram();
    println!("gram         {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let ats = a.t_matvec(&s);
    let mut system = q.clone();
    system.add_scaled(1e6, &gram);
    system.add_diagonal(system.trace() / m as f64 * 1e-5);
    println!("system       {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let f = CholeskyFactor::new(&system).expect("spd");
    println!("factor       {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let fr = CholeskyFactor::new_reference(&system).expect("spd");
    println!("factor ref   {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    println!("factor diff  {:>8.2e}", f.l().max_abs_diff(fr.l()));

    let t = Instant::now();
    let rhs: Vec<f64> = ats.iter().map(|v| v * 1e6).collect();
    let w = f.solve(&rhs);
    println!("solve        {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    // A warm refine's factor work: four new constraint rows fold into
    // the factor in place (one fused pass), then one re-solve.
    let (new_a, _, _) = grid.assemble_a(&gen.take_queries(&table, 4));
    let mut factor = UpdatableCholesky::from_lower(f.into_lower()).expect("factor");
    let t = Instant::now();
    factor.update(&new_a.as_slice()[m..], 1e6);
    println!("warm update4 {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let w2 = factor.solve(&rhs);
    println!("warm solve   {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box((w, w2));
}
