//! Fault-injection regression tests: the contracts the torture harness
//! (`examples/torture.rs`) sweeps broadly, pinned here as fast, focused
//! tests that run on every `cargo test`.
//!
//! The three load-bearing guarantees:
//!
//! * **No silent loss.** A feedback batch whose WAL append fails is
//!   *refused* — typed error, nothing ingested — never acknowledged and
//!   quietly dropped from durability. Repeated failures trip the shard
//!   into `Degraded` (read-only) until a write-probe proves the store
//!   healthy again. This test fails against the pre-health-machine
//!   behavior, which acked the batch and only bumped a counter.
//! * **Degraded is recoverable and visible.** The shard re-enters
//!   service through backoff-spaced probes once the underlying store
//!   heals, and the whole episode is observable end to end — service
//!   stats, registry stats, and `Retry{cause: Degraded}` on the wire.
//! * **Fault injection is observationally free when disabled.** A
//!   counting-but-never-injecting plan produces byte-identical on-disk
//!   state and `==` estimates versus the default (disabled) plan, so
//!   the seam can stay compiled into production paths.

use quicksel::fault::FaultPlan;
use quicksel::net::{serve, RetryCause, ServerConfig};
use quicksel::prelude::*;
use quicksel::service::HealthState;
use quicksel::{ClientError, DurabilityOptions, NetClient, SelectivityService, ShardedService};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per call; removed by `Scratch::drop`.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("quicksel-torture-{}-{tag}-{n}", std::process::id()));
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
    QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(32)
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

fn probes() -> Vec<Rect> {
    (0..30)
        .map(|k| {
            let lo_x = (k * 7 % 80) as f64 * 0.1;
            let lo_y = (k * 17 % 80) as f64 * 0.1;
            let len = 0.5 + (k % 7) as f64 * 1.1;
            Rect::from_bounds(&[(lo_x, (lo_x + len).min(10.0)), (lo_y, (lo_y + len).min(10.0))])
        })
        .collect()
}

/// Row-threshold-only durability options so checkpoint timing is
/// deterministic per test.
fn opts(checkpoint_rows: u64) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_rows,
        checkpoint_interval: Duration::from_secs(100_000),
        ..DurabilityOptions::default()
    }
}

/// The regression test for the tentpole: before the health machine, a
/// failed WAL append was *counted* (`persist_failures`) while the batch
/// was ingested and acknowledged anyway — an ack the durability layer
/// could not honor across a crash. Now the batch is refused with a typed
/// error, nothing reaches the learner, and repeated failures trip the
/// shard into `Degraded`.
#[test]
fn wal_append_failure_is_refused_not_silently_lost() {
    let scratch = Scratch::new("refused");
    let mut options = opts(1_000_000);
    // Every op after the initial segment-open fails (ENOSPC-style).
    options.fault = FaultPlan::window(7, 1, u64::MAX / 2);
    options.degrade_after = 3;
    let (service, _) =
        SelectivityService::open_durable(scratch.path(), options, || learner(1)).expect("open");
    let baseline: Vec<f64> = probes().iter().map(|r| service.estimate(r)).collect();

    for i in 0..3 {
        let err = service.observe_batch(&batch(i)).expect_err("append fails, batch refused");
        assert!(
            matches!(err, EstimatorError::PersistRefused),
            "failure {i}: want PersistRefused, got {err:?}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.queries_ingested, 0, "refused batches must not reach the learner");
    assert_eq!(stats.batches_ingested, 0);
    assert_eq!(stats.persist_failures, 3);
    assert_eq!(stats.degraded_transitions, 1, "third failure trips the shard");
    assert_eq!(service.health(), HealthState::Degraded);

    // Degraded: ingest refused up front with the typed cause + a retry
    // hint; reads keep serving the last published snapshot untouched.
    let err = service.observe_batch(&batch(3)).expect_err("degraded shard refuses ingest");
    match err {
        EstimatorError::Degraded { retry_after_ms } => assert!(retry_after_ms >= 1),
        other => panic!("want Degraded, got {other:?}"),
    }
    assert!(service.stats().degraded_refusals >= 1);
    let after: Vec<f64> = probes().iter().map(|r| service.estimate(r)).collect();
    assert_eq!(baseline, after, "reads must be untouched by the degraded episode");
}

/// The sharded write path refuses all or nothing: every target shard's
/// health gate runs before any shard ingests, so a batch with rows for a
/// healthy shard and a degraded one is refused whole — the healthy shard
/// ingests none of it and logs nothing.
#[test]
fn sharded_batch_spanning_a_degraded_shard_is_refused_whole() {
    let open = |dir: &Path, fault: FaultPlan| {
        let mut options = opts(1_000_000);
        options.fault = fault;
        options.degrade_after = 3;
        // No re-arm probe may heal the shard mid-test.
        options.probe_backoff = Duration::from_secs(60);
        let make = |i: usize| learner(20 + i as u64);
        ShardedService::open_durable(domain(), 2, dir, options, make).expect("open").0
    };
    // The plan's op index is global across shards: count what opening
    // the bank takes, then fail the next three ops — the appends routed
    // to shard 1.
    let counting = Scratch::new("sharded-count");
    let plan = FaultPlan::count_only();
    drop(open(counting.path(), plan.clone()));
    let scratch = Scratch::new("sharded");
    let svc = open(scratch.path(), FaultPlan::window(17, plan.ops_seen(), 3));

    let rows: Vec<ObservedQuery> = (0..8).flat_map(batch).collect();
    let row_for = |shard: usize| {
        rows.iter().find(|q| svc.shard_for(&q.rect) == shard).cloned().expect("a row per shard")
    };
    let (healthy, tripped) = (row_for(0), row_for(1));
    for i in 0..3 {
        let err = svc.observe(&tripped).expect_err("append fails, batch refused");
        assert!(matches!(err, EstimatorError::PersistRefused), "failure {i}: {err:?}");
    }
    assert_eq!(svc.shard(1).health(), HealthState::Degraded);
    assert_eq!(svc.shard(0).health(), HealthState::Healthy);

    let err = svc.observe_batch(&[healthy, tripped]).expect_err("spanning batch refused");
    assert!(matches!(err, EstimatorError::Degraded { .. }), "{err:?}");
    let stats = svc.stats();
    assert_eq!(stats.per_shard[0].batches_ingested, 0, "healthy shard ingested half a batch");
    assert_eq!(stats.per_shard[0].persist_failures, 0, "healthy shard logged half a batch");
    assert_eq!(stats.total.queries_ingested, 0);
}

/// A degraded shard re-enters service on its own once the store heals:
/// the backoff-spaced write probe succeeds, ingest resumes, and the
/// whole episode leaves acked data fully recoverable.
#[test]
fn degraded_shard_reenters_service_via_probe() {
    let scratch = Scratch::new("probe");
    let mut options = opts(1_000_000);
    // Ops 1..=3 fail: two appends (trip at degrade_after=2) and the
    // first probe. Everything after heals.
    options.fault = FaultPlan::window(11, 1, 3);
    options.degrade_after = 2;
    options.probe_backoff = Duration::from_millis(1);
    options.probe_backoff_max = Duration::from_millis(8);
    let (service, _) =
        SelectivityService::open_durable(scratch.path(), options, || learner(2)).expect("open");

    assert!(service.observe_batch(&batch(0)).is_err());
    assert!(service.observe_batch(&batch(1)).is_err());
    assert_eq!(service.health(), HealthState::Degraded);

    // First probe fires (op 3) and fails; the shard stays down.
    std::thread::sleep(Duration::from_millis(25));
    assert!(service.observe_batch(&batch(2)).is_err());
    assert_eq!(service.health(), HealthState::Degraded);
    assert!(service.stats().health_probes >= 1);

    // Second probe passes; the same call ingests normally.
    std::thread::sleep(Duration::from_millis(25));
    service.observe_batch(&batch(3)).expect("healed shard must accept ingest");
    assert_eq!(service.health(), HealthState::Healthy);
    let stats = service.stats();
    assert_eq!(stats.degraded_transitions, 1, "one episode, not flapping");
    assert_eq!(stats.queries_ingested, 2);

    // The episode leaves nothing corrupt behind: checkpoint, reopen,
    // and the acked batch is there bit for bit.
    assert!(service.checkpoint_now().expect("checkpoint after heal"));
    let expected: Vec<f64> = probes().iter().map(|r| service.estimate(r)).collect();
    drop(service);
    let (recovered, _) =
        SelectivityService::open_durable(scratch.path(), opts(1_000_000), || learner(2))
            .expect("recover");
    assert_eq!(recovered.stats().queries_ingested, 2);
    let got: Vec<f64> = probes().iter().map(|r| recovered.estimate(r)).collect();
    assert_eq!(expected, got, "recovery after a degraded episode must be exact");
}

/// Every byte under a directory, keyed by relative path.
fn dir_contents(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        let mut entries: Vec<_> =
            std::fs::read_dir(dir).expect("read dir").filter_map(|e| e.ok()).collect();
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").display().to_string();
                out.push((rel, std::fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out
}

/// The zero-cost pin: a `count_only` plan (armed, counting every op,
/// never injecting) must be observationally identical to the default
/// disabled plan — same estimates, same counters, byte-identical files.
/// This is what lets the injection seam live permanently in the
/// production WAL/checkpoint paths.
#[test]
fn armed_but_empty_fault_plan_is_observationally_free() {
    let run = |fault: FaultPlan, scratch: &Scratch| {
        let mut options = opts(6);
        options.fault = fault;
        let (service, _) =
            SelectivityService::open_durable(scratch.path(), options, || learner(3)).expect("open");
        for i in 0..9 {
            service.observe_batch(&batch(i)).expect("ingest");
        }
        service.checkpoint_now().expect("checkpoint");
        let estimates: Vec<f64> = probes().iter().map(|r| service.estimate(r)).collect();
        let mut stats = service.stats();
        // The trailing-rate gauges are wall-clock dependent; everything
        // else must match exactly.
        stats.ingest_rows_per_s = 0.0;
        stats.estimate_rects_per_s = 0.0;
        (estimates, stats)
    };

    let (dir_off, dir_count) = (Scratch::new("off"), Scratch::new("count"));
    let plan = FaultPlan::count_only();
    let (est_off, stats_off) = run(FaultPlan::disabled(), &dir_off);
    let (est_count, stats_count) = run(plan.clone(), &dir_count);

    assert_eq!(est_off, est_count, "estimates must be bit-identical");
    assert_eq!(stats_off, stats_count, "counters must match exactly");
    assert!(plan.ops_seen() > 0, "the counting plan did observe the IO stream");
    assert_eq!(plan.faults_injected(), 0);
    assert_eq!(
        dir_contents(dir_off.path()),
        dir_contents(dir_count.path()),
        "on-disk state must be byte-identical"
    );
}

/// The degraded signal crosses the wire typed: a client feeding a
/// degraded table gets `Retry{cause: Degraded}` (not a hard error),
/// estimates keep serving, and the stats response carries the episode.
#[test]
fn degraded_pushback_travels_the_wire() {
    let scratch = Scratch::new("wire");
    let mut options = opts(1_000_000);
    options.fault = FaultPlan::window(13, 1, u64::MAX / 2);
    options.degrade_after = 1;
    let registry = EstimatorRegistry::new();
    registry
        .register_durable(scratch.path(), "orders", domain(), 1, options, |i| {
            learner(10 + i as u64)
        })
        .expect("register durable");
    let handle = serve(
        Arc::new(registry),
        ServerConfig { shutdown_tick: Duration::from_millis(10), ..ServerConfig::default() },
    )
    .expect("bind");
    let mut client = NetClient::connect(handle.addr()).expect("connect");

    // First batch: the WAL append fails and trips the shard; the client
    // sees a hard (but typed) server error, never a silent ack.
    let err = client.observe_batch("orders", &batch(0)).expect_err("append failure surfaces");
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");

    // From now on the shard is degraded: pushback, not failure.
    let err = client.observe_batch("orders", &batch(1)).expect_err("degraded pushes back");
    match err {
        ClientError::Retry { after_ms, cause } => {
            assert_eq!(cause, RetryCause::Degraded);
            assert!(after_ms >= 1);
        }
        other => panic!("want Retry{{Degraded}}, got {other:?}"),
    }

    // Reads are unaffected by the degraded writer.
    let est = client.estimate_many("orders", &probes()).expect("estimates still serve");
    assert!(est.iter().all(|v| (0.0..=1.0).contains(v)));

    // The whole episode is visible in one stats round-trip.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.degraded_shards, 1);
    assert_eq!(stats.degraded_transitions, 1);
    assert!(stats.degraded_refusals >= 1);
    assert!(stats.degraded_retries_sent >= 1);
    assert_eq!(stats.queries_ingested, 0, "nothing was acked while degraded");
}
