//! Oversubscription stress: many OS threads hammer the workspace pool
//! through the sharded read path while a writer thread trains (and
//! therefore fans training kernels onto the pool) concurrently.
//!
//! The property under test is liveness, not numbers: the pool's
//! help-while-waiting scopes must drain under arbitrary oversubscription
//! — `std::thread::scope` callers stacked on a 2-thread pool, training
//! on the global pool from the writer thread — without deadlock.
//! (The test would hang, and the harness time out, if they could.)

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_parallel::{with_pool, ThreadPool};
use quicksel_service::ShardedService;
use std::sync::Arc;

const OS_THREADS: usize = 8;
const BATCHES_PER_THREAD: usize = 12;
const PROBES_PER_BATCH: usize = 160;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn probes(salt: usize) -> Vec<Rect> {
    (0..PROBES_PER_BATCH)
        .map(|i| {
            let lo = ((i * 5 + salt) % 17) as f64 * 0.5;
            let w = 0.5 + ((i + salt) % 7) as f64 * 1.3; // some cross the blend threshold
            Rect::from_bounds(&[(lo, (lo + w).min(10.0)), (0.0, (1 + (i + salt) % 9) as f64)])
        })
        .collect()
}

/// A fixed set of probes covering at least the blend threshold of the
/// domain, so every one of them runs the cross-shard blend.
fn wide_probes() -> Vec<Rect> {
    (0..32)
        .map(|i| {
            let lo = (i % 4) as f64 * 0.5;
            Rect::from_bounds(&[(lo, lo + 8.0), (0.0, 7.0 + (i % 4) as f64)])
        })
        .collect()
}

#[test]
fn oversubscribed_scope_callers_and_ingest_threads_make_progress() {
    // Force a multi-threaded *global* pool before first use, so the
    // writer thread (which trains through `quicksel_parallel::current()`
    // → global) genuinely shares workers with the reader fan-outs below,
    // whatever the host's core count.
    quicksel_parallel::set_global_threads(3);
    assert!(quicksel_parallel::global().threads() >= 1);

    let d = domain();
    let svc = Arc::new(ShardedService::new(d.clone(), 2, |i| {
        QuickSel::builder(d.clone())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(96)
            .seed(17 + i as u64)
            .build()
    }));
    let wides = wide_probes();
    assert!(wides.iter().all(|w| svc.spans_partitions(w)));

    // Feedback for the writer thread: keeps both shards retraining (QP
    // assembly + Cholesky on the global pool) while the readers run.
    let feedback: Vec<Vec<ObservedQuery>> = (0..24)
        .map(|b| {
            (0..6)
                .map(|i| {
                    let lo = ((b * 7 + i * 3) % 19) as f64 * 0.45;
                    ObservedQuery::new(
                        Rect::from_bounds(&[(lo, lo + 1.5), (lo * 0.5, lo * 0.5 + 2.0)]),
                        0.05 + ((b + i) % 9) as f64 * 0.1,
                    )
                })
                .collect()
        })
        .collect();

    // Reader side: OS threads × a deliberately tiny shared pool, nested
    // under `std::thread::scope` — 8 scope callers contending for 2
    // pool threads while the writer trains.
    let reader_pool = ThreadPool::new(2);
    let rows: usize = feedback.iter().map(Vec::len).sum();
    std::thread::scope(|scope| {
        for t in 0..OS_THREADS {
            let svc = Arc::clone(&svc);
            let reader_pool = &reader_pool;
            let wides = &wides;
            scope.spawn(move || {
                for b in 0..BATCHES_PER_THREAD {
                    let batch = probes(t * 31 + b);
                    let estimates = with_pool(reader_pool, || svc.estimate_many(&batch));
                    assert_eq!(estimates.len(), batch.len());
                    assert!(estimates.iter().all(|e| (0.0..=1.0).contains(e)));
                    let blended = with_pool(reader_pool, || svc.estimate_many(wides));
                    assert!(blended.iter().all(|e| e.is_finite()));
                }
            });
        }
        let svc = &svc;
        scope.spawn(move || {
            for batch in &feedback {
                svc.observe_batch(batch).expect("feedback batch refused");
            }
        });
    });

    let stats = svc.stats();
    assert_eq!(stats.total.queries_ingested, rows as u64, "acknowledged feedback lost");

    // Batched answers at a now-quiescent version equal per-rect answers.
    let batch = probes(7);
    let per_rect: Vec<f64> = batch.iter().map(|r| svc.estimate(r)).collect();
    let batched = with_pool(&reader_pool, || svc.estimate_many(&batch));
    assert_eq!(per_rect, batched, "batched read path diverged from scalar at fixed version");
}
