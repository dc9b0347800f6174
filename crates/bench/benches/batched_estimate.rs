//! Batched vs scalar estimation kernel bench, with machine-readable JSON
//! output.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench batched_estimate
//! ```
//!
//! Measures rect×subpop estimation throughput over the grid
//! B ∈ {1, 16, 256, 4096} batch sizes × m ∈ {64, 256, 1024}
//! subpopulations, two ways:
//!
//! * **scalar** — the per-rect AoS path: `UniformMixtureModel::estimate`
//!   mapped over the batch (one pointer-chasing, branchy model walk per
//!   rect).
//! * **batched** — `UniformMixtureModel::estimate_many`: the blocked
//!   rect×subpop kernel (`quicksel_core::batch`) over the model's
//!   dimension-major support columns. Results are identical bit for
//!   bit; only the time differs.
//!
//! A JSON document is written to
//! `target/bench-results/batched_estimate.json` (relative to the bench's
//! working directory, i.e. `crates/bench/` under `cargo bench`; override
//! with `BATCHED_BENCH_OUT=...`), including the B=4096 × m=1024 speedup
//! the README quotes.

use quicksel_core::UniformMixtureModel;
use quicksel_geometry::Rect;
use std::time::Instant;

const DIM: usize = 4;
const BATCH_SIZES: [usize; 4] = [1, 16, 256, 4096];
const SUBPOP_COUNTS: [usize; 3] = [64, 256, 1024];
/// Per-measurement time budget (seconds).
const BUDGET: f64 = 0.25;

/// Deterministic model of `m` overlapping subpopulations over a
/// `[0, 10)^DIM` domain, with a mix of positive, negative, and zero
/// weights (all shapes the trained QP produces).
fn model(m: usize) -> UniformMixtureModel {
    let rects: Vec<Rect> = (0..m)
        .map(|z| {
            let bounds: Vec<(f64, f64)> = (0..DIM)
                .map(|d| {
                    let lo = ((z * 7 + d * 13) % 89) as f64 * 0.1;
                    let w = 0.4 + ((z * 11 + d * 5) % 23) as f64 * 0.12;
                    (lo, (lo + w).min(10.0).max(lo + 0.05))
                })
                .collect();
            Rect::from_bounds(&bounds)
        })
        .collect();
    let weights: Vec<f64> = (0..m)
        .map(|z| match z % 9 {
            0 => 0.0,
            1 => -0.002,
            _ => 1.0 / m as f64,
        })
        .collect();
    UniformMixtureModel::new(rects, weights)
}

/// Deterministic probe batch: a spread of narrow, medium, and wide rects.
fn probes(b: usize) -> Vec<Rect> {
    (0..b)
        .map(|i| {
            let bounds: Vec<(f64, f64)> = (0..DIM)
                .map(|d| {
                    let lo = ((i * 5 + d * 3) % 83) as f64 * 0.11;
                    let w = 0.5 + ((i + d * 7) % 17) as f64 * 0.5;
                    (lo, (lo + w).min(10.0))
                })
                .collect();
            Rect::from_bounds(&bounds)
        })
        .collect()
}

/// Runs `f` (which estimates a whole batch of `b` rects) repeatedly for
/// the time budget; returns rects/second.
fn throughput(b: usize, mut f: impl FnMut() -> f64) -> f64 {
    // Warm up.
    std::hint::black_box(f());
    let start = Instant::now();
    let mut reps = 0u64;
    let mut acc = 0.0;
    while start.elapsed().as_secs_f64() < BUDGET {
        acc += f();
        reps += 1;
    }
    std::hint::black_box(acc);
    (reps * b as u64) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let mut lines = Vec::new();
    let mut headline_speedup = 0.0;
    println!("batched_estimate: scalar (AoS map) vs batched (SoA blocked kernel), dim={DIM}");
    for &m in &SUBPOP_COUNTS {
        let model = model(m);
        for &b in &BATCH_SIZES {
            let rects = probes(b);
            // Sanity: the two paths must agree exactly before we time them.
            let scalar: Vec<f64> = rects.iter().map(|r| model.estimate(r)).collect();
            let batched = model.estimate_many(&rects);
            assert_eq!(scalar, batched, "kernel diverged from scalar path");

            let scalar_rps = throughput(b, || rects.iter().map(|r| model.estimate(r)).sum::<f64>());
            let batched_rps = throughput(b, || model.estimate_many(&rects).iter().sum::<f64>());
            let speedup = batched_rps / scalar_rps;
            if b == 4096 && m == 1024 {
                headline_speedup = speedup;
            }
            println!(
                "  B={b:>4} m={m:>4}: scalar {scalar_rps:>12.0} rects/s | batched {batched_rps:>12.0} rects/s | {speedup:.2}x"
            );
            lines.push(format!(
                "{{\"batch\":{b},\"subpops\":{m},\"scalar_rects_per_sec\":{scalar_rps:.1},\"batched_rects_per_sec\":{batched_rps:.1},\"speedup\":{speedup:.3}}}"
            ));
        }
    }
    println!("  headline (B=4096, m=1024): {headline_speedup:.2}x");

    let fields = format!(
        "\"dim\":{DIM},\"grid\":[{}],\"headline_speedup_b4096_m1024\":{headline_speedup:.3}",
        lines.join(",")
    );
    quicksel_bench::write_bench_json("batched_estimate", "BATCHED_BENCH_OUT", &fields);
}
