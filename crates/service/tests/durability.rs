//! Durability integration tests: the crash-recovery contract of
//! `SelectivityService::open_durable` and the registry built on it.
//!
//! The contract is **exact**, so the assertions are `==`, not
//! tolerances:
//!
//! * a recovered service reproduces the pre-shutdown estimates bit for
//!   bit (checkpointed learner state round-trips exactly, and the WAL
//!   tail replays through the normal ingest path with the original
//!   batch boundaries);
//! * recovery resumes *warm*: the first post-recovery refine reuses the
//!   checkpointed training state instead of a cold rebuild;
//! * truncating the WAL tail at **any** byte offset never loses a
//!   checkpointed row and never double-applies a replayed one.

use proptest::prelude::*;
use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Predicate, Rect};
use quicksel_persist::DurabilityOptions;
use quicksel_service::{
    CardinalityProvider, EstimatorRegistry, SelectivityService, ShardedService,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per call; removed by `Scratch::drop`.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("quicksel-durability-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn learner(seed: u64) -> QuickSel {
    // A fixed subpop count keeps refines on the warm (incremental) path
    // once trained — the path whose cached state recovery must restore.
    QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(48)
        .seed(seed)
        .build()
}

/// Deterministic feedback batch `i`, two observations each.
fn batch(i: usize) -> Vec<ObservedQuery> {
    (0..2)
        .map(|j| {
            let k = i * 2 + j;
            let lo_x = (k * 13 % 70) as f64 * 0.1;
            let lo_y = (k * 29 % 60) as f64 * 0.1;
            let len = 1.0 + (k % 5) as f64 * 0.7;
            let rect = Rect::from_bounds(&[(lo_x, lo_x + len), (lo_y, lo_y + len)]);
            ObservedQuery::new(rect, (k % 10) as f64 * 0.1)
        })
        .collect()
}

/// A fixed probe set wide enough to touch every trained region.
fn probes() -> Vec<Rect> {
    (0..40)
        .map(|k| {
            let lo_x = (k * 7 % 80) as f64 * 0.1;
            let lo_y = (k * 17 % 80) as f64 * 0.1;
            let len = 0.5 + (k % 7) as f64 * 1.1;
            Rect::from_bounds(&[(lo_x, (lo_x + len).min(10.0)), (lo_y, (lo_y + len).min(10.0))])
        })
        .collect()
}

/// Row-threshold-only durability options (the interval never fires), so
/// checkpoint timing is deterministic per test.
fn opts(checkpoint_rows: u64) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_rows,
        checkpoint_interval: Duration::from_secs(100_000),
        ..DurabilityOptions::default()
    }
}

#[test]
fn recovery_reproduces_estimates_exactly() {
    let scratch = Scratch::new("exact");
    let probe_set = probes();
    // 6 rows/checkpoint: batches of 2 rows checkpoint after every third
    // batch. 8 batches = 16 rows → checkpoints at 6 and 12, WAL tail of
    // 2 batches (rows 13..16).
    let (before, stats_before) = {
        let (svc, rec) = SelectivityService::open_durable(scratch.path(), opts(6), || learner(42))
            .expect("fresh open");
        assert!(!rec.recovered_from_checkpoint);
        assert_eq!(rec.replayed_rows, 0);
        for i in 0..8 {
            svc.observe_batch(&batch(i)).expect("train");
        }
        (svc.snapshot().estimate_many(&probe_set), svc.stats())
    };
    assert_eq!(stats_before.queries_ingested, 16);
    assert_eq!(stats_before.checkpoints_written, 2);
    assert!(stats_before.wal_bytes > 0);

    let (svc, rec) = SelectivityService::<QuickSel>::open_durable(scratch.path(), opts(6), || {
        panic!("a checkpoint exists; the cold factory must not run")
    })
    .expect("recover");
    assert!(rec.recovered_from_checkpoint);
    assert_eq!(rec.replayed_batches, 2);
    assert_eq!(rec.replayed_rows, 4);
    assert_eq!(rec.replay_failures, 0);
    assert_eq!(rec.truncated_wal_bytes, 0);

    let after = svc.snapshot().estimate_many(&probe_set);
    assert_eq!(before, after, "recovered estimates diverged");

    // Counters land exactly where the pre-shutdown process had them.
    let stats_after = svc.stats();
    assert_eq!(stats_after.batches_ingested, stats_before.batches_ingested);
    assert_eq!(stats_after.queries_ingested, stats_before.queries_ingested);
    assert_eq!(stats_after.refines, stats_before.refines);
    assert_eq!(stats_after.incremental_refines, stats_before.incremental_refines);
    assert_eq!(stats_after.replayed_rows, 4);
    // 6 versions restored from the checkpoint + 2 replayed publishes.
    assert_eq!(svc.version(), 8);
}

#[test]
fn recovered_service_matches_an_uninterrupted_run_going_forward() {
    let scratch = Scratch::new("forward");
    let probe_set = probes();
    // Reference: one uninterrupted non-durable service over 12 batches.
    let reference = SelectivityService::new(learner(7));
    for i in 0..12 {
        reference.observe_batch(&batch(i)).expect("train");
    }

    // Durable twin: 8 batches, shutdown, recover, 4 more batches.
    {
        let (svc, _) = SelectivityService::open_durable(scratch.path(), opts(6), || learner(7))
            .expect("fresh open");
        for i in 0..8 {
            svc.observe_batch(&batch(i)).expect("train");
        }
    }
    let (svc, _) =
        SelectivityService::open_durable(scratch.path(), opts(6), || learner(7)).expect("recover");
    for i in 8..12 {
        svc.observe_batch(&batch(i)).expect("train");
    }
    assert_eq!(
        reference.snapshot().estimate_many(&probe_set),
        svc.snapshot().estimate_many(&probe_set),
        "a crash/recover cycle changed the estimator's trajectory"
    );
    assert_eq!(reference.stats().refines, svc.stats().refines);
    assert_eq!(reference.stats().incremental_refines, svc.stats().incremental_refines);
}

#[test]
fn recovery_resumes_refining_warm() {
    let scratch = Scratch::new("warm");
    // checkpoint_rows = 2: every batch checkpoints, so recovery starts
    // from the checkpointed trainer with no WAL tail.
    {
        let (svc, _) = SelectivityService::open_durable(scratch.path(), opts(2), || learner(3))
            .expect("fresh open");
        for i in 0..6 {
            svc.observe_batch(&batch(i)).expect("train");
        }
        let stats = svc.stats();
        assert_eq!(stats.checkpoints_written, 6);
        assert!(stats.incremental_refines > 0, "the pre-crash run never went warm");
    }
    let (svc, rec) =
        SelectivityService::open_durable(scratch.path(), opts(2), || learner(3)).expect("recover");
    assert!(rec.recovered_from_checkpoint);
    assert_eq!(rec.replayed_rows, 0);

    let incremental_before = svc.stats().incremental_refines;
    svc.observe_batch(&batch(6)).expect("train");
    // The first post-recovery refine reuses the recovered assembly: no
    // cold retrain, and the incremental counter moves.
    svc.with_learner(|l| {
        let report = l.last_report().expect("refine ran");
        assert!(report.assembly_reused, "first post-recovery refine rebuilt from cold");
    });
    assert_eq!(svc.stats().incremental_refines, incremental_before + 1);
}

/// Recursive directory copy (the test fixture for byte-level WAL
/// truncation: each cut point recovers from a pristine copy).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read src") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

#[test]
fn wal_tail_truncation_loses_nothing_checkpointed_and_double_applies_nothing() {
    let scratch = Scratch::new("truncate");
    let probe_set = probes();
    // 8 batches of 2 rows, checkpoints at rows 6 and 12 → watermark 12,
    // newest WAL segment holds batches 6..=7 (rows 13..=16).
    {
        let (svc, _) = SelectivityService::open_durable(scratch.path(), opts(6), || learner(9))
            .expect("fresh open");
        for i in 0..8 {
            svc.observe_batch(&batch(i)).expect("train");
        }
        assert_eq!(svc.stats().checkpoints_written, 2);
    }
    // The newest segment is the rotation point of the last checkpoint.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(scratch.path())
        .expect("read shard dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "qsl"))
        .collect();
    segments.sort();
    let newest = segments.last().expect("a WAL tail segment").clone();
    let full = std::fs::read(&newest).expect("read tail segment");

    // Reference runs: the estimator fed exactly the first 6+j batches.
    let reference_estimates = |batches: usize| -> Vec<f64> {
        let svc = SelectivityService::new(learner(9));
        for i in 0..batches {
            svc.observe_batch(&batch(i)).expect("train");
        }
        svc.snapshot().estimate_many(&probe_set)
    };
    let references: Vec<Vec<f64>> = (6..=8).map(reference_estimates).collect();

    for cut in 0..=full.len() {
        let copy = Scratch::new("truncate-cut");
        copy_dir(scratch.path(), copy.path());
        std::fs::write(copy.path().join(newest.file_name().unwrap()), &full[..cut])
            .expect("truncate tail");
        let (svc, rec) = SelectivityService::open_durable(copy.path(), opts(6), || learner(9))
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        // Checkpointed rows are never lost; replayed rows are applied
        // exactly once (no double-apply: ingested == watermark + replay).
        let stats = svc.stats();
        assert!(stats.queries_ingested >= 12, "lost checkpointed rows at cut {cut}");
        assert_eq!(
            stats.queries_ingested,
            12 + rec.replayed_rows,
            "double-applied rows at cut {cut}"
        );
        assert!(rec.replayed_batches <= 2, "replayed unlogged batches at cut {cut}");
        // And the recovered state equals the uninterrupted run over the
        // same surviving prefix — exactly.
        let expected = &references[rec.replayed_batches as usize];
        assert_eq!(
            *expected,
            svc.snapshot().estimate_many(&probe_set),
            "estimates diverged at cut {cut} ({} replayed batches)",
            rec.replayed_batches
        );
    }
}

#[test]
fn sharded_recovery_restores_every_shard() {
    let scratch = Scratch::new("sharded");
    let probe_set = probes();
    let make = |i: usize| learner(100 + i as u64);
    let before = {
        let (svc, rec) = ShardedService::open_durable(domain(), 3, scratch.path(), opts(4), make)
            .expect("fresh open");
        assert!(!rec.recovered_from_checkpoint);
        for i in 0..12 {
            svc.observe_batch(&batch(i)).expect("train");
        }
        svc.estimate_many(&probe_set)
    };
    let (svc, rec) =
        ShardedService::open_durable(domain(), 3, scratch.path(), opts(4), make).expect("recover");
    assert!(rec.recovered_from_checkpoint);
    assert_eq!(before, svc.estimate_many(&probe_set), "sharded recovery diverged");
    // Every ingested row is accounted for: checkpointed or replayed.
    assert_eq!(svc.stats().total.queries_ingested, 24);
}

#[test]
fn registry_recover_from_restores_all_tables() {
    let scratch = Scratch::new("registry");
    let registry_probes: Vec<Predicate> = (0..16)
        .map(|k| {
            let lo = (k * 11 % 60) as f64 * 0.1;
            Predicate::new().range(0, lo, lo + 2.0).range(1, 0.0, 5.0 + (k % 4) as f64)
        })
        .collect();
    let orders: quicksel_service::TableId = "orders".into();
    let users: quicksel_service::TableId = "users".into();
    let make = |table: &str| {
        let base: u64 = if table == "orders" { 1000 } else { 2000 };
        move |i: usize| learner(base + i as u64)
    };
    let before = {
        let registry = EstimatorRegistry::new();
        registry
            .register_durable(scratch.path(), "orders", domain(), 2, opts(4), make("orders"))
            .expect("register orders");
        registry
            .register_durable(scratch.path(), "users", domain(), 1, opts(4), make("users"))
            .expect("register users");
        for i in 0..10 {
            registry.observe_batch(&orders, &batch(i));
            registry.observe_batch(&users, &batch(i + 50));
        }
        (
            registry.estimate_many(&orders, &registry_probes),
            registry.estimate_many(&users, &registry_probes),
        )
    };

    let (registry, report) =
        EstimatorRegistry::recover_from(scratch.path(), opts(4), |table, _domain, shard| {
            make(table.as_str())(shard)
        })
        .expect("recover registry");
    assert_eq!(report.tables_recovered, 2);
    assert_eq!(report.tables_skipped, 0);
    assert!(report.shards.recovered_from_checkpoint);
    assert_eq!(registry.table_ids(), vec![orders.clone(), users.clone()]);
    assert_eq!(before.0, registry.estimate_many(&orders, &registry_probes));
    assert_eq!(before.1, registry.estimate_many(&users, &registry_probes));
    let stats = registry.stats();
    assert_eq!(stats.tables_recovered, 2);
    assert_eq!(stats.total.queries_ingested, 40);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random feedback schedules and checkpoint thresholds: recovery
    /// always reproduces the pre-shutdown estimates exactly.
    #[test]
    fn prop_recovery_is_exact(
        batches in 1..14usize,
        checkpoint_rows in 1..9u64,
        seed in 0..500u64,
    ) {
        let scratch = Scratch::new("prop");
        let probe_set = probes();
        let before = {
            let (svc, _) = SelectivityService::open_durable(
                scratch.path(), opts(checkpoint_rows), || learner(seed),
            ).expect("fresh open");
            for i in 0..batches {
                svc.observe_batch(&batch(i + seed as usize)).expect("train");
            }
            svc.snapshot().estimate_many(&probe_set)
        };
        let (svc, rec) = SelectivityService::open_durable(
            scratch.path(), opts(checkpoint_rows), || learner(seed),
        ).expect("recover");
        prop_assert_eq!(before, svc.snapshot().estimate_many(&probe_set));
        prop_assert_eq!(svc.stats().queries_ingested, 2 * batches as u64);
        prop_assert_eq!(svc.stats().replayed_rows, rec.replayed_rows);
    }
}
