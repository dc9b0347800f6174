//! Replication-lag bench: a durable primary under steady feedback
//! ingest, a replica pull-looping beside it, reporting how far behind
//! the replica runs and what each sync costs.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench replication_lag
//! ```
//!
//! A durable registry is served on loopback; one client thread ingests
//! feedback batches for `REPL_LAG_SECS` (default 2) seconds while the
//! replica agent syncs as fast as it can. Each sync records its
//! wall-clock cost, the watermark lag the primary reported at sync end,
//! and the bytes fetched — the numbers an operator sizes
//! `--sync-interval-ms` and the client staleness bound against.
//!
//! After ingest stops, one final sync must converge the replica to the
//! primary **bit for bit**: identical probe estimates, identical row
//! counts. The bench asserts this — a lag number from a replica that
//! diverges would be meaningless.
//!
//! Results are printed human-readably and written as JSON (shared
//! schema: a `"meta"` host block plus the run row) to
//! `target/bench-results/replication_lag.json` — override with
//! `REPL_LAG_OUT=...`.

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_net::{serve, NetClient, ServerConfig};
use quicksel_persist::DurabilityOptions;
use quicksel_replica::{ReplicaAgent, ReplicaBackend, ReplicaOptions};
use quicksel_service::{EstimatorRegistry, TableId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FEEDBACK_BATCH: usize = 4;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn learner(seed: u64) -> QuickSel {
    QuickSel::builder(domain())
        .refine_policy(RefinePolicy::EveryK(8))
        .fixed_subpops(64)
        .seed(seed)
        .build()
}

fn feedback(k: usize) -> ObservedQuery {
    let lo_x = (k * 13 % 70) as f64 * 0.1;
    let lo_y = (k * 29 % 60) as f64 * 0.1;
    let len = 0.8 + (k % 5) as f64 * 0.6;
    let rect = Rect::from_bounds(&[(lo_x, lo_x + len), (lo_y, lo_y + len)]);
    ObservedQuery::new(rect, (k % 10) as f64 * 0.1)
}

fn probes() -> Vec<Rect> {
    (0..24)
        .map(|k| {
            let lo = (k * 7 % 80) as f64 * 0.1;
            Rect::from_bounds(&[(lo, (lo + 1.5).min(10.0)), (0.0, 0.5 + (k % 9) as f64)])
        })
        .collect()
}

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Closed-loop feedback ingest over the wire until the deadline.
fn ingest_loop(addr: std::net::SocketAddr, secs: f64) -> u64 {
    let mut client = NetClient::connect(addr).expect("ingest client connect");
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(secs);
    let mut rows = 0u64;
    let mut k = 0usize;
    while start.elapsed() < deadline {
        let batch: Vec<ObservedQuery> =
            (0..FEEDBACK_BATCH).map(|j| feedback(k * FEEDBACK_BATCH + j)).collect();
        k += 1;
        match client.observe_batch("t", &batch) {
            Ok(outcome) => rows += u64::from(outcome.accepted_rows),
            Err(quicksel_net::ClientError::Retry { after_ms, .. }) => {
                std::thread::sleep(Duration::from_millis(u64::from(after_ms).min(50)));
            }
            Err(e) => panic!("ingest failed: {e}"),
        }
    }
    rows
}

fn main() {
    let secs: f64 = std::env::var("REPL_LAG_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2.0);

    let scratch =
        std::env::temp_dir().join(format!("quicksel-replication-lag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let p_dir = scratch.join("primary");
    let r_dir = scratch.join("replica");
    std::fs::create_dir_all(&p_dir).expect("create primary dir");

    // The primary: durable, checkpointing every 64 rows so the manifest
    // rotates checkpoints and trims WAL segments mid-run.
    let registry = EstimatorRegistry::new();
    let opts = DurabilityOptions { checkpoint_rows: 64, ..DurabilityOptions::default() };
    registry
        .register_durable(&p_dir, "t", domain(), 2, opts, |i| learner(i as u64))
        .expect("register durable table");
    let primary = Arc::new(registry);
    let handle = serve(
        Arc::clone(&primary),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ingest_rows_per_s: f64::INFINITY,
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let addr = handle.addr();

    println!("replication_lag: {secs}s steady ingest, replica syncing flat out");
    let done = Arc::new(AtomicBool::new(false));
    let ingest = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let rows = ingest_loop(addr, secs);
            done.store(true, Ordering::SeqCst);
            rows
        })
    };

    // The replica: sync as fast as the pull path allows, recording what
    // each pass cost and how far behind it landed.
    let backend: Arc<ReplicaBackend<QuickSel>> = Arc::new(ReplicaBackend::empty());
    let mut agent = ReplicaAgent::new(
        ReplicaOptions::new(addr.to_string(), &r_dir),
        Arc::clone(&backend),
        |_, _, shard| learner(shard as u64),
    );
    let mut sync_ns: Vec<u64> = Vec::new();
    let mut lags: Vec<u64> = Vec::new();
    let mut bytes_fetched = 0u64;
    // A sync can lose the manifest-vs-prune race while the primary is
    // rotating checkpoints under it: the advertised file is gone by the
    // time the chunk fetch lands. That is a transient, typed error the
    // production loop retries through — here it is counted, not fatal.
    let mut sync_errors = 0u64;
    while !done.load(Ordering::SeqCst) {
        let t = Instant::now();
        match agent.sync_once() {
            Ok(report) => {
                sync_ns.push(t.elapsed().as_nanos() as u64);
                lags.push(report.watermark_lag);
                bytes_fetched += report.bytes_fetched;
            }
            Err(_) => sync_errors += 1,
        }
    }
    let rows_ingested = ingest.join().expect("ingest thread");

    // Convergence: a quiet sync (the primary is static now), then the
    // replica must be the primary, bit for bit.
    let report = agent.sync_once().expect("final sync");
    bytes_fetched += report.bytes_fetched;
    assert_eq!(report.watermark_lag, 0, "final sync left the replica behind");
    let table = TableId::from("t");
    let rects = probes();
    let want = primary.get(&table).expect("primary table").estimate_many(&rects);
    let got = backend.registry().get(&table).expect("replica table").estimate_many(&rects);
    assert_eq!(got, want, "replica diverged from the primary");
    assert_eq!(
        backend.registry().stats().total.queries_ingested,
        primary.stats().total.queries_ingested,
        "replica row count diverged"
    );

    let syncs = sync_ns.len() as u64;
    sync_ns.sort_unstable();
    let sync_p50 = percentile_us(&sync_ns, 0.50);
    let sync_p99 = percentile_us(&sync_ns, 0.99);
    let max_lag = lags.iter().copied().max().unwrap_or(0);
    let mean_lag =
        if lags.is_empty() { 0.0 } else { lags.iter().sum::<u64>() as f64 / lags.len() as f64 };
    println!(
        "  {rows_ingested} rows ingested, {syncs} syncs ({sync_errors} raced a prune): \
         sync p50={sync_p50:.1}us p99={sync_p99:.1}us, lag mean={mean_lag:.1} max={max_lag} \
         rows, {bytes_fetched} bytes shipped, converged bit-exact"
    );

    let fields = format!(
        "\"run\":{{\"secs\":{secs},\
         \"rows_ingested\":{rows_ingested},\"syncs\":{syncs},\"sync_errors\":{sync_errors},\
         \"sync_p50_us\":{sync_p50:.1},\"sync_p99_us\":{sync_p99:.1},\
         \"mean_lag_rows\":{mean_lag:.1},\"max_lag_rows\":{max_lag},\
         \"bytes_fetched\":{bytes_fetched},\"bit_exact\":true}}"
    );
    quicksel_bench::write_bench_json("replication_lag", "REPL_LAG_OUT", &fields);
    let _ = std::fs::remove_dir_all(&scratch);
}
