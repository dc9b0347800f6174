//! Multicore scaling of the training and estimation hot paths, with
//! machine-readable JSON output.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench parallel_scale
//! ```
//!
//! Runs the workloads the earlier benches established — cold-train QP
//! assembly at the paper's `m = 4000` cap (`train_profile`'s
//! workload), the full cold train, and B=4096 batched estimation
//! (`batched_estimate`'s workload) — at thread counts
//! `{1, 2, 4, max}` through [`quicksel_parallel::with_pool`], and
//! reports each workload's speedup over `threads = 1`.
//!
//! Before timing, every thread count's output is asserted **equal**
//! (`==`) to the serial output — the pool's determinism contract — so
//! the speedups compare identical computations.
//!
//! A JSON document (shared schema: `"meta"` host block + `"grid"` rows)
//! is written to `target/bench-results/parallel_scale.json` (override
//! with `PARALLEL_BENCH_OUT=...`). Acceptance headline: ≥2.5× on cold
//! QP assembly and ≥2× on B=4096 batched estimation at 4 threads —
//! *on a host with ≥4 cores*; the `meta.available_parallelism` field is
//! what makes a 1.0× on a single-core runner interpretable.

use quicksel_bench::write_bench_json;
use quicksel_core::subpop::{sample_centers, size_subpopulations, workload_points};
use quicksel_core::train::IncrementalTrainer;
use quicksel_core::{SubpopGrid, UniformMixtureModel};
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::ObservedQuery;
use quicksel_geometry::Rect;
use quicksel_parallel::{with_pool, ThreadPool};
use rand::SeedableRng;
use std::time::Instant;

const LAMBDA: f64 = 1e6;
const RIDGE_REL: f64 = quicksel_linalg::qp::DEFAULT_RIDGE_REL;
/// `m` for the QP-assembly workload (the paper cap; `train_profile`'s
/// cold-stage budget).
const ASSEMBLY_M: usize = 4000;
/// `m` for the end-to-end cold train (kept smaller so the naive-free
/// full pipeline — assembly + Gram + factorization — times in seconds).
const TRAIN_M: usize = 2000;
/// Batched-estimation workload: `batched_estimate`'s headline point.
const BATCH_B: usize = 4096;
const BATCH_M: usize = 1024;
const BATCH_DIM: usize = 4;
/// Per-measurement repetitions (median reported).
const REPS: usize = 3;

struct TrainWorkload {
    subpops: Vec<Rect>,
    queries: Vec<ObservedQuery>,
}

/// The `train_profile` workload: gaussian table, §3.3-sized supports.
fn train_workload(m: usize) -> TrainWorkload {
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
    let subpops = size_subpopulations(table.domain(), &centers, 10, 1.2);
    TrainWorkload { subpops, queries }
}

/// The `batched_estimate` workload: deterministic overlapping model and
/// probe batch.
fn batch_workload() -> (UniformMixtureModel, Vec<Rect>) {
    let rects: Vec<Rect> = (0..BATCH_M)
        .map(|z| {
            let bounds: Vec<(f64, f64)> = (0..BATCH_DIM)
                .map(|d| {
                    let lo = ((z * 7 + d * 13) % 89) as f64 * 0.1;
                    let w = 0.4 + ((z * 11 + d * 5) % 23) as f64 * 0.12;
                    (lo, (lo + w).min(10.0).max(lo + 0.05))
                })
                .collect();
            Rect::from_bounds(&bounds)
        })
        .collect();
    let weights: Vec<f64> = (0..BATCH_M)
        .map(|z| match z % 9 {
            0 => 0.0,
            1 => -0.002,
            _ => 1.0 / BATCH_M as f64,
        })
        .collect();
    let probes: Vec<Rect> = (0..BATCH_B)
        .map(|i| {
            let bounds: Vec<(f64, f64)> = (0..BATCH_DIM)
                .map(|d| {
                    let lo = ((i * 5 + d * 3) % 83) as f64 * 0.11;
                    let w = 0.5 + ((i + d * 7) % 17) as f64 * 0.5;
                    (lo, (lo + w).min(10.0))
                })
                .collect();
            Rect::from_bounds(&bounds)
        })
        .collect();
    (UniformMixtureModel::new(rects, weights), probes)
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Times `f` under `pool` (`REPS` runs, median), returning seconds and
/// the last run's output for the equality gate.
fn timed<R>(pool: &ThreadPool, mut f: impl FnMut() -> R) -> (f64, R) {
    pool.warm_up();
    let mut samples = Vec::with_capacity(REPS);
    let mut kept = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = with_pool(pool, &mut f);
        samples.push(t.elapsed().as_secs_f64());
        kept = Some(out);
    }
    (median_secs(samples), kept.expect("ran at least once"))
}

fn main() {
    let available =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let max_threads = quicksel_parallel::global().threads();
    let mut thread_counts = vec![1usize, 2, 4, max_threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    println!(
        "parallel_scale: threads {thread_counts:?} (available_parallelism {available}, pool max {max_threads})"
    );
    if available < 4 {
        println!(
            "  note: host advertises {available} core(s); speedups above 1x are not expected here"
        );
    }

    let mut lines = Vec::new();
    let mut headline_assembly = 0.0;
    let mut headline_batched = 0.0;

    // --- Workload 1: cold-train QP assembly at m = 4000. ---
    {
        let w = train_workload(ASSEMBLY_M);
        let serial_pool = ThreadPool::new(1);
        let (serial_s, serial_qp) =
            timed(&serial_pool, || SubpopGrid::new(&w.subpops).assemble_qp(&w.queries));
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let (secs, qp) = timed(&pool, || SubpopGrid::new(&w.subpops).assemble_qp(&w.queries));
            // Equality gate: the parallel assembly must be the serial
            // assembly, bit for bit.
            assert!(qp.q == serial_qp.q && qp.a == serial_qp.a, "assembly diverged at {t} threads");
            assert_eq!(qp.s, serial_qp.s, "rhs diverged at {t} threads");
            let speedup = serial_s / secs;
            if t == 4 {
                headline_assembly = speedup;
            }
            println!(
                "  qp_assembly      m={ASSEMBLY_M} threads={t}: {:>8.1} ms ({speedup:.2}x vs 1)",
                secs * 1e3
            );
            lines.push(format!(
                "{{\"workload\":\"qp_assembly\",\"subpops\":{ASSEMBLY_M},\"threads\":{t},\"ms\":{:.3},\"speedup_vs_serial\":{speedup:.3}}}",
                secs * 1e3
            ));
        }
    }

    // --- Workload 2: end-to-end cold train at m = 2000. ---
    {
        let w = train_workload(TRAIN_M);
        let serial_pool = ThreadPool::new(1);
        let (serial_s, serial_model) = timed(&serial_pool, || {
            let (_, model, _) =
                IncrementalTrainer::cold(w.subpops.clone(), &w.queries, LAMBDA, RIDGE_REL)
                    .expect("cold train");
            model
        });
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let (secs, model) = timed(&pool, || {
                let (_, model, _) =
                    IncrementalTrainer::cold(w.subpops.clone(), &w.queries, LAMBDA, RIDGE_REL)
                        .expect("cold train");
                model
            });
            // Assembly, Gram, and the blocked factor are all exactly
            // thread-count-invariant, so the trained weights are too.
            assert_eq!(
                serial_model.weights(),
                model.weights(),
                "cold-train weights diverged at {t} threads"
            );
            let speedup = serial_s / secs;
            println!(
                "  cold_train       m={TRAIN_M} threads={t}: {:>8.1} ms ({speedup:.2}x vs 1)",
                secs * 1e3
            );
            lines.push(format!(
                "{{\"workload\":\"cold_train\",\"subpops\":{TRAIN_M},\"threads\":{t},\"ms\":{:.3},\"speedup_vs_serial\":{speedup:.3}}}",
                secs * 1e3
            ));
        }
    }

    // --- Workload 3: batched estimation, B = 4096 × m = 1024. ---
    {
        let (model, probes) = batch_workload();
        let scalar: Vec<f64> = probes.iter().map(|r| model.estimate(r)).collect();
        let serial_pool = ThreadPool::new(1);
        let bench_batch = |pool: &ThreadPool| timed(pool, || model.estimate_many(&probes));
        let (serial_s, serial_out) = bench_batch(&serial_pool);
        assert_eq!(scalar, serial_out, "serial kernel diverged from scalar path");
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let (secs, out) = bench_batch(&pool);
            assert_eq!(serial_out, out, "batched kernel diverged at {t} threads");
            let speedup = serial_s / secs;
            if t == 4 {
                headline_batched = speedup;
            }
            let rps = BATCH_B as f64 / secs;
            println!(
                "  batched_estimate B={BATCH_B} m={BATCH_M} threads={t}: {rps:>12.0} rects/s ({speedup:.2}x vs 1)"
            );
            lines.push(format!(
                "{{\"workload\":\"batched_estimate\",\"batch\":{BATCH_B},\"subpops\":{BATCH_M},\"threads\":{t},\"ms\":{:.3},\"rects_per_sec\":{rps:.1},\"speedup_vs_serial\":{speedup:.3}}}",
                secs * 1e3
            ));
        }
    }

    println!(
        "  headline (4 threads): qp_assembly {headline_assembly:.2}x, batched_estimate {headline_batched:.2}x"
    );
    let fields = format!(
        "\"thread_counts\":{thread_counts:?},\"grid\":[{}],\"headline_qp_assembly_speedup_t4\":{headline_assembly:.3},\"headline_batched_speedup_t4\":{headline_batched:.3}",
        lines.join(",")
    );
    write_bench_json("parallel_scale", "PARALLEL_BENCH_OUT", &fields);
}
