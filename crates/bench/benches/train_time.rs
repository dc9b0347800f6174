//! Figure 3a/3d as a Criterion micro-benchmark: the cost of one model
//! refinement per method at a fixed number of observed queries.
//!
//! Besides the Criterion console output, a JSON document in the shared
//! bench schema (see `batched_estimate` / `train_throughput`) is written
//! to `target/bench-results/train_time.json` (override with
//! `TRAIN_TIME_BENCH_OUT=...`) so the `BENCH_*.json` perf trajectory
//! covers the training path per method, not just estimation.

use criterion::{black_box, criterion_group, BatchSize, Criterion};
use quicksel_baselines::{Isomer, IsomerQp, QueryModel, STHoles};
use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::{Estimate, Learn, ObservedQuery, Table};
use std::time::Instant;

fn workload(table: &Table, n: usize) -> Vec<ObservedQuery> {
    let mut gen =
        RectWorkload::new(table.domain().clone(), 777, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    gen.take_queries(table, n)
}

fn bench_refine(c: &mut Criterion) {
    let table = gaussian_table(2, 0.5, 20_000, 888);
    let n = 50;
    let queries = workload(&table, n + 1);
    let (warm, last) = queries.split_at(n);

    let mut group = c.benchmark_group("refine_at_50_queries");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // QuickSel: full §3.3 + §4 retrain on the 51st observation.
    group.bench_function("quicksel", |b| {
        let mut qs =
            QuickSel::builder(table.domain().clone()).refine_policy(RefinePolicy::Manual).build();
        for q in warm {
            qs.observe(q);
        }
        b.iter_batched(
            || qs.clone_for_bench(),
            |mut fresh| {
                fresh.observe(&last[0]);
                fresh.refine().expect("train");
                black_box(fresh.param_count())
            },
            BatchSize::LargeInput,
        )
    });

    // STHoles: drill + calibrate + merge.
    group.bench_function("stholes", |b| {
        b.iter_batched(
            || {
                let mut st = STHoles::new(table.domain().clone());
                for q in warm {
                    st.observe(q);
                }
                st
            },
            |mut st| {
                st.observe(&last[0]);
                black_box(st.param_count())
            },
            BatchSize::LargeInput,
        )
    });

    // ISOMER: split + iterative scaling.
    group.bench_function("isomer", |b| {
        b.iter_batched(
            || {
                let mut iso = Isomer::new(table.domain().clone());
                for q in warm {
                    iso.observe(q);
                }
                iso
            },
            |mut iso| {
                iso.observe(&last[0]);
                black_box(iso.param_count())
            },
            BatchSize::LargeInput,
        )
    });

    // ISOMER+QP: split + Woodbury solve.
    group.bench_function("isomer_qp", |b| {
        b.iter_batched(
            || {
                let mut e = IsomerQp::new(table.domain().clone());
                for q in warm {
                    e.observe(q);
                }
                e
            },
            |mut e| {
                e.observe(&last[0]);
                black_box(e.param_count())
            },
            BatchSize::LargeInput,
        )
    });

    // QueryModel: append-only (lazy training).
    group.bench_function("query_model", |b| {
        b.iter_batched(
            || {
                let mut e = QueryModel::new(table.domain().clone());
                for q in warm {
                    e.observe(q);
                }
                e
            },
            |mut e| {
                e.observe(&last[0]);
                black_box(e.param_count())
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

/// Helper so the QuickSel benchmark can snapshot state cheaply.
trait CloneForBench {
    fn clone_for_bench(&self) -> QuickSel;
}

impl CloneForBench for QuickSel {
    fn clone_for_bench(&self) -> QuickSel {
        let mut cfg = self.config().clone();
        cfg.refine_policy = RefinePolicy::Manual;
        let mut fresh = QuickSel::with_config(self.domain().clone(), cfg);
        // Re-observing is the cheapest faithful snapshot (points re-draw).
        for q in self.observed() {
            fresh.observe(q);
        }
        fresh
    }
}

criterion_group!(benches, bench_refine);

/// One timed refine per method (median of `reps`), for the JSON report.
fn timed_refine_ms(reps: usize, mut setup: impl FnMut() -> Box<dyn FnOnce()>) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let run = setup();
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn write_json() {
    let table = gaussian_table(2, 0.5, 20_000, 888);
    let n = 50;
    let queries = workload(&table, n + 1);
    let (warm, last) = queries.split_at(n);

    let mut lines = Vec::new();
    {
        let mut qs =
            QuickSel::builder(table.domain().clone()).refine_policy(RefinePolicy::Manual).build();
        for q in warm {
            qs.observe(q);
        }
        let ms = timed_refine_ms(5, || {
            let mut fresh = qs.clone_for_bench();
            let q = last[0].clone();
            Box::new(move || {
                fresh.observe(&q);
                fresh.refine().expect("train");
                black_box(fresh.param_count());
            })
        });
        lines.push(format!("{{\"method\":\"quicksel\",\"refine_ms\":{ms:.4}}}"));
    }
    macro_rules! baseline {
        ($name:literal, $ctor:expr) => {{
            let ms = timed_refine_ms(5, || {
                let mut e = $ctor;
                for q in warm {
                    e.observe(q);
                }
                let q = last[0].clone();
                Box::new(move || {
                    e.observe(&q);
                    black_box(e.param_count());
                })
            });
            lines.push(format!("{{\"method\":\"{}\",\"refine_ms\":{ms:.4}}}", $name));
        }};
    }
    baseline!("stholes", STHoles::new(table.domain().clone()));
    baseline!("isomer", Isomer::new(table.domain().clone()));
    baseline!("isomer_qp", IsomerQp::new(table.domain().clone()));
    baseline!("query_model", QueryModel::new(table.domain().clone()));

    let fields = format!("\"queries\":{n},\"grid\":[{}]", lines.join(","));
    quicksel_bench::write_bench_json("train_time", "TRAIN_TIME_BENCH_OUT", &fields);
}

fn main() {
    // The vendored criterion shim has no CLI filtering — every run
    // executes the full matrix — so the JSON report is always in sync
    // with what just ran.
    benches();
    write_json();
}
