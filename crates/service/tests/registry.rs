//! Registry + sharding integration tests: deterministic routing (as a
//! property over arbitrary rectangles), estimate consistency, and the
//! multi-writer ingest path with one writer thread per shard.

use proptest::prelude::*;
use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::{route_hash, ObservedQuery};
use quicksel_geometry::{Domain, Interval, Predicate, Rect};
use quicksel_service::{CardinalityProvider, EstimatorRegistry, ShardedService, TableId};
use std::sync::Arc;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn sharded(shards: usize, seed: u64) -> ShardedService<QuickSel> {
    let d = domain();
    ShardedService::new(d.clone(), shards, |i| {
        QuickSel::builder(d.clone())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(64)
            .seed(seed + i as u64)
            .build()
    })
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    prop::collection::vec((0.0..9.0f64, 0.1..5.0f64), 2).prop_map(|v| {
        Rect::new(v.into_iter().map(|(lo, len)| Interval::new(lo, (lo + len).min(10.0))).collect())
    })
}

proptest! {
    /// Same predicate → same shard, on every call and irrespective of
    /// which ShardedService instance computes the route (the hash is
    /// instance-free); and the route agrees with the published
    /// `route_hash` contract.
    #[test]
    fn prop_routing_is_deterministic(rect in arb_rect(), shards in 1usize..9) {
        let a = sharded(shards, 3);
        let b = sharded(shards, 900); // different learners, same routing
        let first = a.shard_for(&rect);
        prop_assert_eq!(first, a.shard_for(&rect));
        prop_assert_eq!(first, b.shard_for(&rect));
        prop_assert_eq!(first as u64, route_hash(&rect) % shards as u64);
    }

    /// Same predicate → same estimate across calls (bit-identical): the
    /// owning shard answers from one published snapshot, and with no
    /// intervening training nothing may drift — including through the
    /// registry.
    #[test]
    fn prop_estimates_are_consistent(rect in arb_rect(), train in arb_rect()) {
        let svc = Arc::new(sharded(4, 17));
        svc.observe(&ObservedQuery::new(train, 0.42)).expect("train");
        let first = svc.estimate(&rect);
        prop_assert!((0.0..=1.0).contains(&first));
        for _ in 0..3 {
            prop_assert_eq!(svc.estimate(&rect), first);
        }
        // Owning-shard answers equal direct shard probes when no blend
        // applies.
        if !svc.spans_partitions(&rect) {
            prop_assert_eq!(svc.shard(svc.shard_for(&rect)).estimate(&rect), first);
        }
        // The registry answers identically.
        let reg = EstimatorRegistry::new();
        reg.register("t", Arc::clone(&svc));
        let t = TableId::from("t");
        let pred = Predicate::from_rect(&rect);
        prop_assert_eq!(reg.estimate(&t, &pred), first);
    }
}

/// The acceptance-path integration test: a registry serving two tables
/// with two shards each, trained through the provider API, estimates
/// improving per table and stats adding up exactly.
#[test]
fn registry_serves_multiple_sharded_tables() {
    let reg: Arc<EstimatorRegistry<QuickSel>> = Arc::new(EstimatorRegistry::new());
    let tables = ["orders", "users", "items"];
    for (k, name) in tables.iter().enumerate() {
        let d = domain();
        reg.register_with(*name, d.clone(), 2 + k % 2, |i| {
            QuickSel::builder(d.clone())
                .refine_policy(RefinePolicy::Manual)
                .fixed_subpops(64)
                .seed((k * 10 + i) as u64)
                .build()
        });
    }
    assert_eq!(reg.len(), 3);

    // Distinct feedback per table through the provider seam.
    let mut sent = 0u64;
    for (k, name) in tables.iter().enumerate() {
        let t = TableId::from(*name);
        let target = 0.2 + 0.2 * k as f64;
        for i in 0..12 {
            let lo = (i % 6) as f64;
            let rect = Rect::from_bounds(&[(lo, lo + 2.5), (lo, lo + 2.5)]);
            reg.observe(&t, &ObservedQuery::new(rect, target));
            sent += 1;
        }
        assert!(reg.version(&t) > 0, "{name} never published");
    }

    // Each table's estimates reflect its own feedback, not a neighbor's.
    for (k, name) in tables.iter().enumerate() {
        let t = TableId::from(*name);
        let target = 0.2 + 0.2 * k as f64;
        let probe = Predicate::new().range(0, 1.0, 3.5).range(1, 1.0, 3.5);
        let est = reg.estimate(&t, &probe);
        assert!((est - target).abs() < 0.1, "{name}: est {est} vs target {target}");
    }

    let stats = reg.stats();
    assert_eq!(stats.tables, 3);
    assert_eq!(stats.shards, 2 + 3 + 2);
    assert_eq!(stats.total.queries_ingested, sent, "no feedback lost");
    assert_eq!(stats.total.refine_failures, 0);
    assert_eq!(stats.missing_table_probes, 0);
    assert_eq!(stats.dropped_feedback, 0);
    // Sharding actually engaged: for at least one table, more than one
    // shard ingested feedback.
    assert!(
        stats.per_table.iter().any(|(_, t)| t
            .per_shard
            .iter()
            .filter(|s| s.queries_ingested > 0)
            .count()
            > 1),
        "feedback never spread across shards"
    );
}

/// One writer per shard via scoped threads, pushing pre-partitioned
/// feedback directly into their own shard — the contention-free ingest
/// path. All feedback must land, all shards must train, no stat may be
/// lost.
#[test]
fn one_writer_per_shard_ingests_without_loss() {
    const SHARDS: usize = 4;
    const BATCHES_PER_SHARD: usize = 8;
    let svc = Arc::new(sharded(SHARDS, 41));

    // A workload large enough that every shard owns some of it.
    let workload: Vec<ObservedQuery> = (0..256)
        .map(|i| {
            let lo = (i % 37) as f64 * 0.2;
            let w = 1.0 + (i % 11) as f64 * 0.3;
            let rect = Rect::from_bounds(&[(lo, (lo + w).min(10.0)), (0.0, (i % 9 + 1) as f64)]);
            ObservedQuery::new(rect, 0.1 + (i % 7) as f64 * 0.1)
        })
        .collect();
    let parts = svc.partition_batch(&workload);
    assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), workload.len());
    let occupied = parts.iter().filter(|p| !p.is_empty()).count();
    assert!(occupied >= 2, "hash routing left all but one shard empty");

    std::thread::scope(|scope| {
        for (i, part) in parts.iter().enumerate() {
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                // Each writer feeds its shard in several batches, as a
                // steady feedback stream would.
                for chunk in part.chunks(part.len().div_ceil(BATCHES_PER_SHARD).max(1)) {
                    svc.shard(i).observe_batch(chunk).expect("shard ingest failed");
                }
            });
        }
    });

    let stats = svc.stats();
    assert_eq!(stats.total.queries_ingested, workload.len() as u64, "stat loss");
    assert_eq!(stats.total.refine_failures, 0);
    for (i, part) in parts.iter().enumerate() {
        assert_eq!(stats.per_shard[i].queries_ingested, part.len() as u64, "shard {i}");
        svc.shard(i).with_learner(|l| assert_eq!(l.observed_count(), part.len()));
    }
    // Every estimate served afterwards is a valid selectivity.
    for q in &workload {
        let e = svc.estimate(&q.rect);
        assert!((0.0..=1.0).contains(&e));
    }
}

/// RCU registry contract: `register`/`remove` clone-and-publish the
/// table map, so readers are never blocked and always see a coherent
/// snapshot — a registered table keeps answering mid-DDL, and lookups
/// observe either the old map or the new one, never a torn state.
#[test]
fn registration_never_blocks_concurrent_readers() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let reg = Arc::new(EstimatorRegistry::<QuickSel>::new());
    let d = domain();
    let anchor: TableId = "anchor".into();
    reg.register_with(anchor.clone(), d.clone(), 1, |_| {
        QuickSel::builder(d.clone()).refine_policy(RefinePolicy::Manual).fixed_subpops(16).build()
    });
    let rect = Rect::from_bounds(&[(1.0, 3.0), (1.0, 3.0)]);
    reg.observe(&anchor, &ObservedQuery::new(rect, 0.6));
    let pred = Predicate::new().range(0, 1.0, 3.0).range(1, 1.0, 3.0);
    let anchored = reg.estimate(&anchor, &pred);

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Readers hammer lookups + estimates while DDL churns.
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            let pred = pred.clone();
            let anchor = anchor.clone();
            let stop = &stop;
            scope.spawn(move || loop {
                // The anchor table must answer identically throughout:
                // DDL on *other* tables cannot touch its service.
                assert_eq!(reg.estimate(&anchor, &pred), anchored);
                assert!(reg.get(&anchor).is_some(), "anchor vanished mid-DDL");
                assert!(!reg.is_empty(), "reader saw an empty map");
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
        // Writer: register and remove transient tables under the DDL
        // mutex; every publish is a fresh map snapshot.
        for i in 0..200 {
            let name = format!("transient-{i}");
            let d2 = domain();
            reg.register_with(name.as_str(), d2.clone(), 1, |_| {
                QuickSel::builder(d2.clone())
                    .refine_policy(RefinePolicy::Manual)
                    .fixed_subpops(8)
                    .build()
            });
            if i % 2 == 0 {
                assert!(reg.remove(&TableId::from(name.as_str())).is_some());
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // 200 registrations, 100 removals: the anchor plus the odd-numbered
    // transients survive, and every DDL bumped the generation.
    assert_eq!(reg.len(), 101);
    assert!(reg.generation() >= 300);
    assert_eq!(reg.estimate(&anchor, &pred), anchored);
}
