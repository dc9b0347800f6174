//! Serving-layer throughput bench: sharded ingest scaling, with
//! machine-readable JSON output.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench registry_throughput
//! ```
//!
//! The same feedback workload is pushed through a `ShardedService` at
//! 1/2/4/8 shards, one writer thread per shard. Every `observe_batch`
//! refines the shard's learner, whatever its refine policy. More shards
//! ⇒ less writer-mutex contention *and* smaller per-shard training sets
//! (QuickSel retrain cost grows with observed count), so throughput
//! should rise with the shard count.
//!
//! Results are printed human-readably, and a JSON document is written to
//! `target/bench-results/registry_throughput.json` — relative to the
//! bench's working directory, i.e. `crates/bench/` when run through
//! `cargo bench`; override the path with `REGISTRY_BENCH_OUT=...` — so
//! successive runs can be tracked.

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_service::ShardedService;
use std::sync::Arc;
use std::time::Instant;

const INGEST_QUERIES: usize = 192;
const INGEST_BATCH: usize = 4;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn workload(n: usize) -> Vec<ObservedQuery> {
    (0..n)
        .map(|i| {
            let lo = (i % 31) as f64 * 0.28;
            let w = 0.6 + (i % 17) as f64 * 0.25;
            let rect = Rect::from_bounds(&[(lo, (lo + w).min(10.0)), (0.0, (i % 9 + 1) as f64)]);
            ObservedQuery::new(rect, 0.05 + (i % 9) as f64 * 0.1)
        })
        .collect()
}

fn sharded(shards: usize) -> Arc<ShardedService<QuickSel>> {
    let d = domain();
    Arc::new(ShardedService::new(d.clone(), shards, |i| {
        QuickSel::builder(d.clone())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(64)
            .seed(i as u64)
            .build()
    }))
}

/// Ingest the whole workload with one writer per shard, fanned out on a
/// shard-sized workspace pool; returns (elapsed seconds, queries
/// ingested).
fn bench_ingest(shards: usize) -> (f64, u64) {
    let svc = sharded(shards);
    let feedback = workload(INGEST_QUERIES);
    let parts = svc.partition_batch(&feedback);
    let pool = quicksel_parallel::ThreadPool::new(shards);
    let start = Instant::now();
    pool.scope(|scope| {
        for (i, part) in parts.iter().enumerate() {
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                for batch in part.chunks(INGEST_BATCH.max(1)) {
                    svc.shard(i).observe_batch(batch).expect("ingest failed");
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let ingested = svc.stats().total.queries_ingested;
    assert_eq!(ingested, feedback.len() as u64, "bench lost feedback");
    (secs, ingested)
}

fn main() {
    let mut shard_lines = Vec::new();
    println!("registry_throughput: ingest scaling (one writer per shard)");
    for shards in [1usize, 2, 4, 8] {
        let (secs, ingested) = bench_ingest(shards);
        let per_sec = ingested as f64 / secs;
        println!("  shards={shards}: {ingested} queries in {secs:.3}s -> {per_sec:.0} q/s");
        shard_lines.push(format!(
            "{{\"shards\":{shards},\"queries\":{ingested},\"secs\":{secs:.6},\"queries_per_sec\":{per_sec:.1}}}"
        ));
    }

    let fields = format!("\"ingest\":[{}]", shard_lines.join(","));
    quicksel_bench::write_bench_json("registry_throughput", "REGISTRY_BENCH_OUT", &fields);
}
