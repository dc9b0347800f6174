//! Replicated-serving contracts, pinned on a real loopback topology:
//!
//! * **Bit-exact shipping.** A replica that pulled the primary's
//!   checkpoints + WAL segments and rebuilt through the ordinary
//!   recovery path answers every probe `==` the primary — no tolerance,
//!   no "approximately replicated".
//! * **Read-only means read-only.** Writes against a replica come back
//!   as a typed `ReadOnly` server error and are counted in the gauges;
//!   nothing is ingested.
//! * **Failover within the staleness bound.** A [`FailoverClient`] over
//!   `[primary, replica]` keeps serving reads `==` the shipped state
//!   after the primary dies, refuses to use a never-synced replica, and
//!   surfaces `NoEndpoint` when nothing can serve a write.

use quicksel::net::{serve, BackendError, ErrorCode, ServerConfig, ServerRole};
use quicksel::persist::{ManifestEntry, ManifestKind};
use quicksel::prelude::*;
use quicksel::replica::ReplicaError;
use quicksel::{
    ClientError, DurabilityOptions, EstimatorRegistry, FailoverClient, NetBackend, NetClient,
    ReplicaAgent, ReplicaBackend, ReplicaOptions, TableId, WireStats,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per call; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("quicksel-replication-{}-{tag}-{n}", std::process::id()));
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

/// Deterministic feedback batch `i`.
fn batch(i: usize) -> Vec<ObservedQuery> {
    (0..3)
        .map(|j| {
            let k = i * 3 + j;
            let lo_x = (k * 13 % 70) as f64 * 0.1;
            let lo_y = (k * 29 % 60) as f64 * 0.1;
            let len = 1.0 + (k % 5) as f64 * 0.7;
            let rect = Rect::from_bounds(&[(lo_x, lo_x + len), (lo_y, lo_y + len)]);
            ObservedQuery::new(rect, (k % 10) as f64 * 0.1)
        })
        .collect()
}

/// The probe battery replicas are compared on.
fn probes() -> Vec<Rect> {
    let d = domain();
    (0..16)
        .map(|i| {
            let lo = (i % 8) as f64 * 1.1;
            Predicate::new().range(0, lo, lo + 2.5).range(i % 2, 1.0, 8.0).to_rect(&d)
        })
        .collect()
}

/// A durable primary with `batches` ingested and a checkpoint taken,
/// served on an ephemeral loopback port.
fn primary_up(
    dir: &Path,
    batches: usize,
) -> (Arc<EstimatorRegistry<QuickSel>>, quicksel::ServerHandle) {
    let registry = EstimatorRegistry::new();
    registry
        .register_durable(dir, "t", domain(), 2, DurabilityOptions::default(), |i| {
            learner(i as u64)
        })
        .expect("register durable table");
    let registry = Arc::new(registry);
    let handle = serve(
        Arc::clone(&registry),
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("bind primary");
    let mut client = NetClient::connect(handle.addr()).expect("connect primary");
    assert_eq!(client.server_role(), ServerRole::Primary);
    for i in 0..batches {
        client.observe_batch("t", &batch(i)).expect("ingest over the wire");
        if i == batches / 2 {
            // A mid-stream checkpoint so the manifest ships a checkpoint
            // AND a WAL tail beyond it.
            client.checkpoint_now().expect("checkpoint");
        }
    }
    (registry, handle)
}

/// Syncs a fresh replica of `primary_addr` into `dir` and serves it.
fn replica_up(
    dir: &Path,
    primary_addr: std::net::SocketAddr,
) -> (Arc<ReplicaBackend<QuickSel>>, quicksel::ServerHandle) {
    let backend: Arc<ReplicaBackend<QuickSel>> = Arc::new(ReplicaBackend::empty());
    let mut agent = ReplicaAgent::new(
        ReplicaOptions::new(primary_addr.to_string(), dir),
        Arc::clone(&backend),
        |_, _, shard| learner(shard as u64),
    );
    let report = agent.sync_once().expect("first sync");
    assert!(report.entries > 0, "primary shipped an empty manifest");
    let handle = serve(
        Arc::clone(&backend),
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("bind replica");
    (backend, handle)
}

#[test]
fn replica_answers_equal_primary_answers_bit_for_bit() {
    let p_dir = Scratch::new("primary");
    let r_dir = Scratch::new("replica");
    let (registry, p_handle) = primary_up(p_dir.path(), 12);
    let (backend, r_handle) = replica_up(r_dir.path(), p_handle.addr());

    let rects = probes();
    let mut p_client = NetClient::connect(p_handle.addr()).expect("connect primary");
    let mut r_client = NetClient::connect(r_handle.addr()).expect("connect replica");
    assert_eq!(r_client.server_role(), ServerRole::Replica);

    // The replica's wire answers equal the primary's wire answers AND
    // the primary's in-process answers — exactly, every bit.
    let over_primary = p_client.estimate_many("t", &rects).expect("primary estimates");
    let over_replica = r_client.estimate_many("t", &rects).expect("replica estimates");
    let id = quicksel::TableId::from("t");
    let in_process = registry.get(&id).expect("table").estimate_many(&rects);
    assert_eq!(over_replica, over_primary, "replica diverged from primary");
    assert_eq!(over_replica, in_process, "wire transport changed replicated estimates");
    assert!(over_replica.iter().any(|&v| v > 0.0 && v < 1.0), "degenerate probe battery");

    // The catalog shipped too.
    assert_eq!(
        r_client.list_tables().expect("replica tables"),
        p_client.list_tables().expect("primary tables")
    );

    // Replication health is visible on the wire.
    let stats = r_client.stats().expect("replica stats");
    assert_eq!(stats.role, 1, "replica must advertise its role in stats");
    assert_eq!(stats.replica_applied_watermark, 36, "12 batches x 3 rows were shipped");
    assert_eq!(stats.replica_watermark_lag, 0, "nothing was ingested after the sync");
    assert_ne!(stats.replica_last_sync_ms, u64::MAX, "sync age must be recorded");
    drop(backend);
}

#[test]
fn replica_refuses_writes_with_typed_error_and_counts_them() {
    let p_dir = Scratch::new("primary");
    let r_dir = Scratch::new("replica");
    let (_registry, p_handle) = primary_up(p_dir.path(), 4);
    let (backend, r_handle) = replica_up(r_dir.path(), p_handle.addr());

    let mut client = NetClient::connect(r_handle.addr()).expect("connect replica");
    let before = client.stats().expect("stats").queries_ingested;
    for _ in 0..2 {
        match client.observe_batch("t", &batch(0)) {
            Err(ClientError::Server { code: ErrorCode::ReadOnly, .. }) => {}
            other => panic!("write to replica must be a typed ReadOnly refusal, got {other:?}"),
        }
    }
    match client.checkpoint_now() {
        Err(ClientError::Server { code: ErrorCode::ReadOnly, .. }) => {}
        other => panic!("checkpoint on replica must be refused, got {other:?}"),
    }

    let stats = client.stats().expect("stats after refusals");
    assert_eq!(stats.readonly_refusals, 3, "every refusal must be counted");
    assert_eq!(stats.queries_ingested, before, "a refused write must ingest nothing");
    assert_eq!(backend.gauges().snapshot().readonly_refusals, 3);
}

#[test]
fn failover_client_keeps_reading_after_the_primary_dies() {
    let p_dir = Scratch::new("primary");
    let r_dir = Scratch::new("replica");
    let (_registry, mut p_handle) = primary_up(p_dir.path(), 10);
    let (_backend, r_handle) = replica_up(r_dir.path(), p_handle.addr());

    let endpoints = [p_handle.addr().to_string(), r_handle.addr().to_string()];
    let mut client = FailoverClient::connect(&endpoints, Duration::from_secs(60))
        .expect("connect failover client");
    assert_eq!(client.active_role(), Some(ServerRole::Primary));

    let rects = probes();
    let with_primary = client.estimate_many("t", &rects).expect("reads via primary");

    // Kill the primary. Reads must transparently move to the replica and
    // stay `==` the last shipped state.
    p_handle.shutdown();
    let with_replica = client.estimate_many("t", &rects).expect("reads fail over to the replica");
    assert_eq!(with_replica, with_primary, "failover changed answers");
    assert_eq!(client.active_role(), Some(ServerRole::Replica));

    // Writes cannot fail over — the replica refuses, the primary is
    // gone, so the caller gets the typed exhaustion error.
    match client.observe_batch("t", &batch(0)) {
        Err(ClientError::NoEndpoint { .. }) => {}
        other => panic!("write with no primary must be NoEndpoint, got {other:?}"),
    }
}

#[test]
fn failover_client_rejects_a_never_synced_replica() {
    // A replica that has not completed a single sync advertises
    // `last_sync_ms == u64::MAX`, which can never be inside a finite
    // staleness bound: serving from it would invent an empty registry.
    let backend: Arc<ReplicaBackend<QuickSel>> = Arc::new(ReplicaBackend::empty());
    let handle = serve(
        Arc::clone(&backend),
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("bind empty replica");

    let endpoints = [handle.addr().to_string()];
    match FailoverClient::connect(&endpoints, Duration::from_secs(3600)) {
        Err(ClientError::NoEndpoint { .. }) => {}
        Ok(_) => panic!("a never-synced replica must not serve reads"),
        Err(other) => panic!("expected NoEndpoint, got {other}"),
    }
}

#[test]
fn remote_provider_degrades_then_recovers_over_endpoints() {
    let p_dir = Scratch::new("primary");
    let r_dir = Scratch::new("replica");
    let (_registry, mut p_handle) = primary_up(p_dir.path(), 12);
    let (_backend, r_handle) = replica_up(r_dir.path(), p_handle.addr());

    let endpoints = [p_handle.addr().to_string(), r_handle.addr().to_string()];
    let provider = quicksel::RemoteProvider::connect_endpoints(&endpoints, Duration::from_secs(60))
        .expect("connect provider");
    let id = quicksel::TableId::from("t");
    let rects = probes();

    let before = provider.estimate_rects(&id, &rects);
    p_handle.shutdown();
    let after = provider.estimate_rects(&id, &rects);
    assert_eq!(before, after, "provider failover changed estimates");
    assert!(before.iter().any(|&v| v > 0.0 && v < 1.0), "degenerate probe battery");
}

/// A broken primary: its manifest advertises one checkpoint of
/// `u64::MAX` bytes, and every chunk it serves is empty.
struct AbsurdManifest;

impl NetBackend for AbsurdManifest {
    fn estimate_many(&self, _: &TableId, _: &[Rect]) -> Result<Vec<f64>, BackendError> {
        Err(BackendError::UnknownTable)
    }

    fn observe_batch(&self, _: &TableId, _: &[ObservedQuery]) -> Result<u64, BackendError> {
        Err(BackendError::UnknownTable)
    }

    fn registry_stats(&self) -> WireStats {
        WireStats::default()
    }

    fn checkpoint_now(&self) -> Result<u32, BackendError> {
        Ok(0)
    }

    fn tables(&self) -> Vec<(String, Domain)> {
        Vec::new()
    }

    fn manifest(&self) -> Result<Vec<ManifestEntry>, BackendError> {
        Ok(vec![ManifestEntry {
            path: "tables/t/shard-0/checkpoint-1.qsc".into(),
            kind: ManifestKind::Checkpoint,
            len: u64::MAX,
            watermark: 0,
        }])
    }

    fn fetch_chunk(&self, _: &str, _: u64, _: u32) -> Result<(u64, Vec<u8>), BackendError> {
        Ok((0, Vec::new()))
    }
}

#[test]
fn absurd_manifest_length_is_a_typed_error() {
    // The manifest length comes off the wire: the replica must not size
    // an allocation by it, and must end the sync with a typed error
    // instead of panicking or aborting.
    let handle = serve(
        Arc::new(AbsurdManifest),
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("bind stub primary");
    let r_dir = Scratch::new("replica");
    let backend: Arc<ReplicaBackend<QuickSel>> = Arc::new(ReplicaBackend::empty());
    let mut agent = ReplicaAgent::new(
        ReplicaOptions::new(handle.addr().to_string(), r_dir.path()),
        Arc::clone(&backend),
        |_, _, shard| learner(shard as u64),
    );
    match agent.sync_once() {
        Err(ReplicaError::Protocol { .. }) => {}
        other => panic!("an absurd manifest length must be a Protocol error, got {other:?}"),
    }
}
