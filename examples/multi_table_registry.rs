//! Multi-table sharded serving: the production-shaped deployment of
//! QuickSel inside a database.
//!
//! ```sh
//! cargo run --release --example multi_table_registry
//! ```
//!
//! One `EstimatorRegistry` serves several tables; each table's feedback
//! is partitioned across shards by a deterministic predicate hash, so
//! one writer per shard retrains without contention while planner
//! threads estimate lock-free through the shared registry. Writer
//! fan-out goes through the workspace thread pool (`quicksel::parallel`),
//! the same substrate the training and estimation kernels parallelize
//! on.

use quicksel::parallel::ThreadPool;
use quicksel::prelude::*;
use std::sync::Arc;
use std::thread;

const SHARDS: usize = 4;
const READER_THREADS: usize = 3;
const PROBES_PER_READER: usize = 5_000;

fn main() {
    // Three tables standing in for a small schema, each with its own
    // domain, registered with 4 estimator shards apiece.
    let registry = Arc::new(EstimatorRegistry::new());
    let tables: Vec<(TableId, Table)> = [("orders", 11u64), ("users", 22), ("items", 33)]
        .into_iter()
        .map(|(name, seed)| {
            let table = quicksel::data::datasets::gaussian_table(2, 0.4, 20_000, seed);
            let d = table.domain().clone();
            registry.register_with(name, d.clone(), SHARDS, |i| {
                QuickSel::builder(d.clone())
                    .refine_policy(RefinePolicy::Manual)
                    .fixed_subpops(128)
                    .seed(seed + i as u64)
                    .build()
            });
            (TableId::from(name), table)
        })
        .collect();

    // Write side: per-table feedback, pre-partitioned by owning shard,
    // one writer per shard fanned out on a shard-sized pool — the
    // contention-free path.
    let writer_pool = ThreadPool::new(SHARDS);
    for (id, table) in &tables {
        let service = registry.get(id).expect("registered");
        let mut workload =
            RectWorkload::new(table.domain().clone(), 5, ShiftMode::Random, CenterMode::DataRow)
                .with_width_frac(0.1, 0.4);
        let feedback = workload.take_queries(table, 120);
        let parts = service.partition_batch(&feedback);
        writer_pool.scope(|scope| {
            for (shard, part) in parts.iter().enumerate() {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    for batch in part.chunks(8) {
                        service.shard(shard).observe_batch(batch).expect("train");
                    }
                });
            }
        });
    }

    // Read side: planner threads sharing the registry.
    let mut readers = Vec::new();
    for r in 0..READER_THREADS {
        let registry = Arc::clone(&registry);
        let ids: Vec<TableId> = tables.iter().map(|(id, _)| id.clone()).collect();
        readers.push(thread::spawn(move || {
            let mut acc = 0.0;
            for i in 0..PROBES_PER_READER {
                let id = &ids[(r + i) % ids.len()];
                let lo = -1.5 + (i % 10) as f64 * 0.25;
                let pred = Predicate::new().range(0, lo, lo + 0.8).range(1, lo, lo + 1.2);
                acc += registry.estimate(id, &pred);
            }
            acc
        }));
    }
    for reader in readers {
        assert!(reader.join().expect("reader panicked").is_finite());
    }

    let stats = registry.stats();
    println!(
        "registry: {} tables x {SHARDS} shards = {} shard services",
        stats.tables, stats.shards
    );
    println!(
        "ingested {} observations across shards ({} refines, {} failures)",
        stats.total.queries_ingested, stats.total.refines, stats.total.refine_failures
    );
    for (id, t) in &stats.per_table {
        let spread: Vec<u64> = t.per_shard.iter().map(|s| s.queries_ingested).collect();
        println!("  {id}: per-shard feedback {spread:?}");
    }

    // The learned estimates beat the uniform prior on every table.
    for (id, table) in &tables {
        let mut workload =
            RectWorkload::new(table.domain().clone(), 99, ShiftMode::Random, CenterMode::DataRow)
                .with_width_frac(0.1, 0.4);
        let test = workload.take_queries(table, 60);
        let full = table.domain().full_rect();
        let (mut learned, mut prior) = (0.0, 0.0);
        for q in &test {
            let est = registry.estimate(id, &Predicate::from_rect(&q.rect));
            learned += (est - q.selectivity).abs();
            prior += (q.rect.volume() / full.volume() - q.selectivity).abs();
        }
        println!(
            "  {id}: mean abs error {:.4} (uniform prior {:.4})",
            learned / test.len() as f64,
            prior / test.len() as f64
        );
        assert!(learned < prior, "{id}: learned estimates should beat the prior");
    }
}
