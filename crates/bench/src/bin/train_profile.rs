//! Stage-level timing of one cold retrain at m=4000, plus the factor
//! work of one warm 4-row refine at m=4000 and at the repository
//! benchmark's shapes, m=400 and m=600 (dev diagnostics).

use quicksel_core::subpop::{sample_centers, size_subpopulations, workload_points};
use quicksel_core::SubpopGrid;
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::Table;
use quicksel_linalg::{CholeskyFactor, DMatrix, UpdatableCholesky};
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn main() {
    // Spin the workspace pool up (thread creation + first wake) before
    // the first timed stage, so one-time spin-up isn't attributed to
    // whichever stage happens to fan out first.
    let pool = quicksel_parallel::global();
    pool.warm_up();
    println!("threads      {:>8}", pool.threads());
    // The update kernel and the estimate kernel run their AVX2 builds
    // exactly when the host has AVX2; the vector kernels (and the factor's
    // trailing update) their AVX2+FMA builds when it also has FMA.
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) =
        (std::arch::is_x86_feature_detected!("avx2"), std::arch::is_x86_feature_detected!("fma"));
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let on = |b: bool| if b { "run" } else { "off" };
    println!("avx2 clones  {:>8}", on(avx2));
    println!("fma clones   {:>8}", on(avx2 && fma));

    let table = gaussian_table(3, 0.5, 20_000, 7171);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 7172, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);

    let m = 4000;
    let (grid, system, rhs) = cold_system(&table, &mut gen, m, m / 4, true);

    let t = Instant::now();
    let f = CholeskyFactor::new(&system).expect("spd");
    println!("factor       {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    let t = Instant::now();
    let fr = CholeskyFactor::new_reference(&system).expect("spd");
    println!("factor ref   {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    println!("factor diff  {:>8.2e}", f.l().max_abs_diff(fr.l()));

    let t = Instant::now();
    let w = f.solve(&rhs);
    println!("solve        {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
    std::hint::black_box(w);

    let factor = UpdatableCholesky::from_lower(f.into_lower()).expect("factor");
    warm_refine(&grid, factor, &rhs, &table, &mut gen, 3);

    // The benchmark's shapes: `planner_m400` cold-trains m=400 from 256
    // rows, `learn_m600` m=600 from 1000.
    for (m, n) in [(400, 256), (600, 1000)] {
        let (grid, system, rhs) = cold_system(&table, &mut gen, m, n, false);
        let factor = UpdatableCholesky::factor(system).expect("spd");
        println!("-- m={m}, n={n}");
        warm_refine(&grid, factor, &rhs, &table, &mut gen, 300);
    }
}

/// Sizes `m` subpopulations for `n` fresh queries and assembles the
/// cold system `Q + λAᵀA + εI` and its right-hand side `λAᵀs`, printing
/// each stage's time when `report` is set.
fn cold_system(
    table: &Table,
    gen: &mut RectWorkload,
    m: usize,
    n: usize,
    report: bool,
) -> (SubpopGrid, DMatrix, Vec<f64>) {
    let stage = |name: &str, t: Instant| {
        if report {
            println!("{name:<12} {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);
        }
    };
    let queries = gen.take_queries(table, n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7173);
    let mut pool = Vec::new();
    for q in &queries {
        pool.extend(workload_points(&q.rect, 10, &mut rng));
    }
    let centers = sample_centers(&pool, m, &mut rng);

    let t = Instant::now();
    let subpops = size_subpopulations(table.domain(), &centers, 10, 1.2);
    stage("sizing", t);

    let t = Instant::now();
    let grid = SubpopGrid::new(&subpops);
    stage("grid build", t);

    let t = Instant::now();
    let q = grid.assemble_q();
    stage("assemble Q", t);

    let t = Instant::now();
    let (a, sparse, s) = grid.assemble_a(&queries);
    stage("assemble A", t);
    if report {
        println!("A nnz frac   {:>8.3}", sparse.nnz() as f64 / (a.rows() * a.cols()) as f64);
    }

    let t = Instant::now();
    let gram = a.gram();
    stage("gram", t);

    let t = Instant::now();
    let rhs: Vec<f64> = a.t_matvec(&s).iter().map(|v| v * 1e6).collect();
    let mut system = q;
    system.add_scaled(1e6, &gram);
    system.add_diagonal(system.trace() / m as f64 * 1e-5);
    stage("system", t);
    (grid, system, rhs)
}

/// A warm refine's factor work: four new constraint rows fold into the
/// factor in place (one fused pass), then one re-solve. Prints the best
/// of `reps` timings of each.
fn warm_refine(
    grid: &SubpopGrid,
    mut factor: UpdatableCholesky,
    rhs: &[f64],
    table: &Table,
    gen: &mut RectWorkload,
    reps: usize,
) {
    // `assemble_a` leads with the whole-domain row; skip it.
    let (new_a, _, _) = grid.assemble_a(&gen.take_queries(table, 4));
    let rows = &new_a.as_slice()[new_a.cols()..];
    let best = |f: &mut dyn FnMut()| {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .unwrap_or(Duration::ZERO)
    };
    // Folding the same rows again costs the same: the pass does the
    // same work for any factor.
    let update = best(&mut || factor.update(rows, 1e6));
    println!("warm update4 {:>8.1} us", update.as_secs_f64() * 1e6);
    let solve = best(&mut || {
        std::hint::black_box(factor.solve(rhs));
    });
    println!("warm solve   {:>8.1} us", solve.as_secs_f64() * 1e6);
}
