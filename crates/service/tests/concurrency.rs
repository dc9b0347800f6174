//! Multi-threaded serving smoke tests: readers must see coherent
//! snapshots — never a torn or half-trained model — while the writer
//! ingests feedback batches and retrains.

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Predicate, Rect};
use quicksel_service::{
    CardinalityProvider, EstimatorRegistry, SelectivityService, ShardedService, TableId,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

/// ≥4 reader threads estimate continuously (no locks on their path) while
/// the writer pushes feedback batches and republishes. Every estimate a
/// reader takes from one snapshot must be internally consistent, and the
/// model version must only move forward.
#[test]
fn readers_see_coherent_snapshots_while_writer_retrains() {
    const READERS: usize = 6;
    const BATCHES: usize = 25;

    // A pinned subpopulation budget keeps each debug-mode retrain fast;
    // the concurrency structure is what this test exercises.
    let service = Arc::new(SelectivityService::new(
        QuickSel::builder(domain())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(96)
            .seed(5)
            .build(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    // The writer starts only once every reader has read a snapshot, so it
    // cannot publish all batches before a reader is scheduled.
    let started = Arc::new(Barrier::new(READERS + 1));

    let mut readers = Vec::new();
    for r in 0..READERS {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let mut started = Some(Arc::clone(&started));
        readers.push(thread::spawn(move || {
            let probe_small = Rect::from_bounds(&[(1.0, 3.0), (1.0, 3.0)]);
            let probe_big = Rect::from_bounds(&[(0.0, 4.0), (0.0, 4.0)]);
            let everything = Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
            let mut estimates = 0u64;
            let mut last_version = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let version = service.version();
                assert!(version >= last_version, "version moved backwards");
                last_version = version;

                let snap = service.snapshot();
                if let Some(started) = started.take() {
                    started.wait();
                }
                // Each answer must be a valid selectivity…
                let s = snap.estimate(&probe_small);
                let b = snap.estimate(&probe_big);
                let all = snap.estimate(&everything);
                for e in [s, b, all] {
                    assert!((0.0..=1.0).contains(&e), "reader {r}: estimate {e}");
                }
                // …and answers from ONE snapshot must be mutually
                // consistent: an untrained prior and every trained model
                // with non-negative weights is monotone, and repeating a
                // probe on the same snapshot must be bit-identical (a
                // torn model swap would break this).
                assert_eq!(snap.estimate(&probe_small), s, "snapshot answered inconsistently");
                let many = snap.estimate_many(&[probe_small.clone(), probe_big.clone()]);
                assert_eq!(many, vec![s, b], "estimate_many diverged from estimate");
                estimates += 3;
            }
            estimates
        }));
    }
    started.wait();

    // The writer: batches of feedback sweeping the domain, each followed
    // by a retrain + publish.
    for i in 0..BATCHES {
        let lo = (i % 5) as f64;
        let batch: Vec<ObservedQuery> = (0..4)
            .map(|j| {
                let r = Rect::from_bounds(&[(lo, lo + 4.0), (j as f64, j as f64 + 4.0)]);
                ObservedQuery::new(r, 0.2 + 0.1 * (j as f64 % 3.0))
            })
            .collect();
        service.observe_batch(&batch).expect("training failed mid-run");
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_estimates = 0u64;
    for reader in readers {
        total_estimates += reader.join().expect("reader panicked");
    }
    assert!(total_estimates > 0, "readers never ran");
    assert_eq!(service.version(), BATCHES as u64);
    let stats = service.stats();
    assert_eq!(stats.batches_ingested, BATCHES as u64);
    assert_eq!(stats.refines, BATCHES as u64);
    assert_eq!(stats.refine_failures, 0);
    service.with_learner(|l| {
        assert_eq!(l.observed_count(), BATCHES * 4);
        assert!(l.last_error().is_none());
    });
}

/// A snapshot taken before a retrain keeps answering from its frozen
/// model even while newer versions are published concurrently.
#[test]
fn old_snapshots_survive_concurrent_republishing() {
    let service = Arc::new(SelectivityService::new(
        QuickSel::builder(domain()).refine_policy(RefinePolicy::Manual).build(),
    ));
    let probe = Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]);

    service.observe_batch(&[ObservedQuery::new(probe.clone(), 0.9)]).expect("first training");
    let pinned = service.snapshot();
    let pinned_answer = pinned.estimate(&probe);
    assert!((pinned_answer - 0.9).abs() < 0.05);

    // Contradictory feedback from another thread republishes repeatedly.
    let writer = {
        let service = Arc::clone(&service);
        let probe = probe.clone();
        thread::spawn(move || {
            for _ in 0..20 {
                service.observe_batch(&[ObservedQuery::new(probe.clone(), 0.1)]).expect("training");
            }
        })
    };
    writer.join().unwrap();

    // The live service moved…
    assert!((service.estimate(&probe) - pinned_answer).abs() > 0.2);
    // …the pinned snapshot did not.
    assert_eq!(pinned.estimate(&probe), pinned_answer);
}

/// The registry under full concurrency: M reader threads estimate
/// against K tables through the shared registry while one writer per
/// shard of every table retrains. Versions must move only forward, every
/// estimate must be a valid selectivity, and the final stats must account
/// for every observation — no torn or lost counters.
#[test]
fn registry_readers_and_shard_writers_across_tables() {
    const TABLES: usize = 2;
    const SHARDS: usize = 2;
    const READERS: usize = 4;
    const BATCHES_PER_WRITER: usize = 10;
    const QUERIES_PER_BATCH: usize = 3;

    let registry: Arc<EstimatorRegistry<QuickSel>> = Arc::new(EstimatorRegistry::new());
    let table_ids: Vec<TableId> = (0..TABLES).map(|k| TableId::new(format!("t{k}"))).collect();
    for (k, id) in table_ids.iter().enumerate() {
        let d = domain();
        registry.register_with(id.clone(), d.clone(), SHARDS, |i| {
            QuickSel::builder(d.clone())
                .refine_policy(RefinePolicy::Manual)
                .fixed_subpops(64)
                .seed((k * SHARDS + i) as u64)
                .build()
        });
    }

    // Pre-partition each table's workload by owning shard so each writer
    // thread feeds exactly one shard of one table.
    let mut writer_feeds: Vec<(TableId, usize, Vec<ObservedQuery>)> = Vec::new();
    for id in &table_ids {
        let svc = registry.get(id).expect("registered");
        let workload: Vec<ObservedQuery> = (0..BATCHES_PER_WRITER * QUERIES_PER_BATCH * SHARDS)
            .map(|i| {
                let lo = (i % 29) as f64 * 0.3;
                let w = 0.5 + (i % 13) as f64 * 0.4;
                let rect =
                    Rect::from_bounds(&[(lo, (lo + w).min(10.0)), (0.0, (i % 8 + 2) as f64)]);
                ObservedQuery::new(rect, 0.1 + (i % 8) as f64 * 0.1)
            })
            .collect();
        for (shard, part) in svc.partition_batch(&workload).into_iter().enumerate() {
            writer_feeds.push((id.clone(), shard, part));
        }
    }
    let expected_per_table: Vec<u64> = table_ids
        .iter()
        .map(|id| {
            writer_feeds.iter().filter(|(t, _, _)| t == id).map(|(_, _, p)| p.len() as u64).sum()
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    // The writers start only once every reader has read a version; a
    // reader then finishes its pass, so none can miss the whole run.
    let started = &Barrier::new(READERS + 1);
    thread::scope(|scope| {
        // M readers over the shared registry.
        let mut readers = Vec::new();
        for r in 0..READERS {
            let registry = Arc::clone(&registry);
            let table_ids = table_ids.clone();
            let stop = Arc::clone(&stop);
            let mut started = Some(started);
            readers.push(scope.spawn(move || {
                let mut last_versions = vec![0u64; table_ids.len()];
                let mut estimates = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for (k, id) in table_ids.iter().enumerate() {
                        let version = registry.version(id);
                        if let Some(started) = started.take() {
                            started.wait();
                        }
                        assert!(
                            version >= last_versions[k],
                            "reader {r}: version of {id} moved backwards"
                        );
                        last_versions[k] = version;
                        let lo = ((estimates + k as u64) % 7) as f64;
                        let pred = Predicate::new().range(0, lo, lo + 2.0).range(
                            1,
                            0.0,
                            4.0 + (estimates % 5) as f64,
                        );
                        let e = registry.estimate(id, &pred);
                        assert!((0.0..=1.0).contains(&e), "reader {r}: estimate {e}");
                        estimates += 1;
                    }
                }
                estimates
            }));
        }

        started.wait();

        // N writers: one per (table, shard), each feeding its own shard.
        let mut writers = Vec::new();
        for (id, shard, part) in &writer_feeds {
            let registry = Arc::clone(&registry);
            writers.push(scope.spawn(move || {
                let svc = registry.get(id).expect("registered");
                let chunk = part.len().div_ceil(BATCHES_PER_WRITER).max(1);
                for batch in part.chunks(chunk) {
                    svc.shard(*shard).observe_batch(batch).expect("shard ingest failed");
                }
            }));
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::Release);

        let total_estimates: u64 =
            readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
        assert!(total_estimates > 0, "readers never ran");
    });

    // No stat loss, table by table, shard by shard.
    let stats = registry.stats();
    assert_eq!(stats.tables, TABLES);
    assert_eq!(stats.shards, TABLES * SHARDS);
    assert_eq!(stats.total.refine_failures, 0);
    assert_eq!(stats.total.queries_ingested, expected_per_table.iter().sum::<u64>());
    for (id, expected) in table_ids.iter().zip(&expected_per_table) {
        let per_table = &stats.per_table.iter().find(|(t, _)| t == id).expect("table in stats").1;
        assert_eq!(per_table.total.queries_ingested, *expected, "{id} lost feedback");
        let svc = registry.get(id).unwrap();
        // Every successfully ingested batch publishes exactly once (no
        // sync_data in this test), so the version must account for all
        // of them — a lost publish is a lost model update.
        let published: u64 = per_table.per_shard.iter().map(|s| s.batches_ingested).sum();
        assert_eq!(svc.version(), published, "{id} lost publishes");
        svc.shard(0).with_learner(|l| assert!(l.last_error().is_none()));
    }
}

/// `ShardedService::estimate_many` under concurrent ingest must serve
/// every rect of one call from a *single* model version per shard — the
/// batched path loads each shard's snapshot once per call, so duplicate
/// rects inside a batch can never straddle a publish. (The per-rect
/// scalar path reloads the snapshot per rect and gives no such
/// guarantee.) Wide probes blend all shards, also loaded once per call.
#[test]
fn sharded_estimate_many_is_coherent_under_concurrent_ingest() {
    const SHARDS: usize = 2;
    const BATCHES_PER_WRITER: usize = 20;

    let d = domain();
    let svc = Arc::new(ShardedService::new(d.clone(), SHARDS, |i| {
        QuickSel::builder(d.clone())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(64)
            .seed(17 + i as u64)
            .build()
    }));
    // Two narrow probes on (usually) different shards plus one wide
    // blend probe — each duplicated inside the same batch.
    let narrow_a = Rect::from_bounds(&[(1.0, 2.5), (1.0, 3.0)]);
    let narrow_b = Rect::from_bounds(&[(5.0, 7.0), (4.0, 6.0)]);
    let wide = Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
    assert!(svc.spans_partitions(&wide));
    let batch = vec![
        narrow_a.clone(),
        narrow_b.clone(),
        wide.clone(),
        narrow_a.clone(),
        narrow_b.clone(),
        wide.clone(),
    ];

    let stop = Arc::new(AtomicBool::new(false));
    thread::scope(|scope| {
        // One writer per shard publishes new versions continuously.
        for shard in 0..SHARDS {
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                for i in 0..BATCHES_PER_WRITER {
                    let lo = (i % 5) as f64;
                    let feedback = vec![ObservedQuery::new(
                        Rect::from_bounds(&[(lo, lo + 3.0), (lo, lo + 4.0)]),
                        0.1 + (i % 8) as f64 * 0.1,
                    )];
                    svc.shard(shard).observe_batch(&feedback).expect("shard ingest failed");
                }
            });
        }
        // Readers hammer estimate_many and check intra-call coherence:
        // both copies of a rect must answer identically.
        let mut readers = Vec::new();
        for r in 0..4 {
            let svc = Arc::clone(&svc);
            let batch = batch.clone();
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut calls = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let out = svc.estimate_many(&batch);
                    assert_eq!(out.len(), batch.len());
                    for (i, pair) in [(0usize, 3usize), (1, 4), (2, 5)].into_iter().enumerate() {
                        assert_eq!(
                            out[pair.0], out[pair.1],
                            "reader {r}: duplicate probe {i} answered from two versions"
                        );
                    }
                    for e in &out {
                        assert!((0.0..=1.0).contains(e), "reader {r}: estimate {e}");
                    }
                    calls += 1;
                }
                calls
            }));
        }
        // Let readers overlap the writers, then wind down.
        thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
        assert!(total > 0, "readers never ran");
    });
    // Quiescent: the batched answers now equal the scalar ones exactly.
    let finals = svc.estimate_many(&batch);
    for (r, &e) in batch.iter().zip(&finals) {
        assert_eq!(e, svc.estimate(r));
    }
}
