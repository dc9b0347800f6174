//! Networked-serving load bench: a loopback `quicksel-net` server under
//! mixed read/write traffic, reporting request-latency percentiles and
//! throughput.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench net_load
//! ```
//!
//! A trained registry is served on a loopback socket; `NET_LOAD_CLIENTS`
//! (default 4) client threads each run a closed loop for
//! `NET_LOAD_SECS` (default 2) seconds: 90% batched estimates (8 rects
//! per request), 10% feedback batches (4 rows). Per-request wall-clock
//! latencies are merged across clients into p50/p99/p999, alongside
//! aggregate requests/s — the numbers an operator sizes the admission
//! knobs against.
//!
//! Results are printed human-readably and written as JSON (shared
//! schema: a `"meta"` host block plus per-config rows) to
//! `target/bench-results/net_load.json` — override with
//! `NET_LOAD_OUT=...`. The run asserts the server saw **zero** decode
//! errors: load must never be mistaken for corruption.

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_net::{serve, NetClient, ServerConfig};
use quicksel_service::EstimatorRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ESTIMATE_BATCH: usize = 8;
const FEEDBACK_BATCH: usize = 4;
/// 1 write request in every 10 — a feedback-heavy planner workload.
const WRITE_EVERY: usize = 10;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn feedback(k: usize) -> ObservedQuery {
    let lo_x = (k * 13 % 70) as f64 * 0.1;
    let lo_y = (k * 29 % 60) as f64 * 0.1;
    let len = 0.8 + (k % 5) as f64 * 0.6;
    let rect = Rect::from_bounds(&[(lo_x, lo_x + len), (lo_y, lo_y + len)]);
    ObservedQuery::new(rect, (k % 10) as f64 * 0.1)
}

fn probe(k: usize) -> Rect {
    let lo = (k * 7 % 80) as f64 * 0.1;
    Rect::from_bounds(&[(lo, (lo + 1.5).min(10.0)), (0.0, 0.5 + (k % 9) as f64)])
}

fn registry() -> Arc<EstimatorRegistry<QuickSel>> {
    let registry = EstimatorRegistry::new();
    let d = domain();
    let svc = registry.register_with("t", d.clone(), 2, |i| {
        QuickSel::builder(d.clone())
            .refine_policy(RefinePolicy::Manual)
            .fixed_subpops(64)
            .seed(i as u64)
            .build()
    });
    // Pre-train so estimates exercise a real model, not the empty prior.
    for b in 0..24 {
        let batch: Vec<ObservedQuery> = (0..4).map(|j| feedback(b * 4 + j)).collect();
        svc.observe_batch(&batch).expect("pre-train");
    }
    Arc::new(registry)
}

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

struct LoadResult {
    requests: u64,
    estimates: u64,
    writes: u64,
    retries: u64,
    latencies_ns: Vec<u64>,
}

/// One closed-loop client: estimate-heavy mixed traffic until the
/// deadline.
fn client_loop(addr: std::net::SocketAddr, secs: f64, salt: usize) -> LoadResult {
    let mut client = NetClient::connect(addr).expect("bench client connect");
    let mut result = LoadResult {
        requests: 0,
        estimates: 0,
        writes: 0,
        retries: 0,
        latencies_ns: Vec::with_capacity(1 << 16),
    };
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(secs);
    let mut k = salt * 7919;
    while start.elapsed() < deadline {
        k += 1;
        let t = Instant::now();
        let outcome = if k.is_multiple_of(WRITE_EVERY) {
            let rows: Vec<ObservedQuery> =
                (0..FEEDBACK_BATCH).map(|j| feedback(k * FEEDBACK_BATCH + j)).collect();
            result.writes += 1;
            client.observe_batch("t", &rows).map(|_| ())
        } else {
            let rects: Vec<Rect> = (0..ESTIMATE_BATCH).map(|j| probe(k + j)).collect();
            result.estimates += 1;
            client.estimate_many("t", &rects).map(|_| ())
        };
        match outcome {
            Ok(()) => {
                result.requests += 1;
                result.latencies_ns.push(t.elapsed().as_nanos() as u64);
            }
            Err(quicksel_net::ClientError::Retry { after_ms, .. }) => {
                result.retries += 1;
                std::thread::sleep(Duration::from_millis(u64::from(after_ms).min(50)));
            }
            Err(e) => panic!("bench request failed: {e}"),
        }
    }
    result
}

fn run_config(clients: usize, secs: f64) -> String {
    let backend = registry();
    let config = ServerConfig {
        estimate_concurrency: 0,          // throughput run: measure, don't shed
        ingest_rows_per_s: f64::INFINITY, // rate knobs exercised in tests, not here
        ..ServerConfig::default()
    };
    let mut handle = serve(backend, config).expect("bind bench server");
    let addr = handle.addr();

    // Wall clock covers the whole fan-out, spawn to last join — if
    // clients ever get serialized behind too few server workers, the
    // throughput number degrades honestly instead of being divided by
    // one client's private window.
    let t0 = Instant::now();
    let workers: Vec<_> =
        (0..clients).map(|i| std::thread::spawn(move || client_loop(addr, secs, i))).collect();
    let results: Vec<LoadResult> = workers.into_iter().map(|w| w.join().expect("client")).collect();
    let wall = t0.elapsed().as_secs_f64();

    let server_stats = handle.stats();
    handle.shutdown();
    assert_eq!(server_stats.decode_errors, 0, "load produced decode errors");
    assert_eq!(server_stats.errors_sent, 0, "load produced server errors");

    let mut latencies: Vec<u64> =
        results.iter().flat_map(|r| r.latencies_ns.iter().copied()).collect();
    latencies.sort_unstable();
    let requests: u64 = results.iter().map(|r| r.requests).sum();
    let estimates: u64 = results.iter().map(|r| r.estimates).sum();
    let writes: u64 = results.iter().map(|r| r.writes).sum();
    let retries: u64 = results.iter().map(|r| r.retries).sum();
    let req_per_sec = requests as f64 / wall.max(1e-9);
    let p50 = percentile_us(&latencies, 0.50);
    let p99 = percentile_us(&latencies, 0.99);
    let p999 = percentile_us(&latencies, 0.999);

    println!(
        "  clients={clients}: {requests} reqs in {wall:.2}s -> {req_per_sec:>8.0} req/s  \
         p50={p50:>7.1}us p99={p99:>7.1}us p999={p999:>8.1}us  \
         ({estimates} est / {writes} obs, {retries} retries)"
    );
    format!(
        "{{\"clients\":{clients},\"secs\":{wall:.3},\"requests\":{requests},\
         \"estimate_requests\":{estimates},\"observe_requests\":{writes},\"retries\":{retries},\
         \"req_per_sec\":{req_per_sec:.1},\"p50_us\":{p50:.1},\"p99_us\":{p99:.1},\
         \"p999_us\":{p999:.1}}}"
    )
}

fn main() {
    let secs: f64 = std::env::var("NET_LOAD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2.0);
    let max_clients: usize =
        std::env::var("NET_LOAD_CLIENTS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);

    println!(
        "net_load: loopback mixed traffic ({}% estimates of {ESTIMATE_BATCH} rects, \
         {}% feedback of {FEEDBACK_BATCH} rows), {secs}s per config",
        100 - 100 / WRITE_EVERY,
        100 / WRITE_EVERY
    );
    let mut rows = Vec::new();
    let mut clients = 1usize;
    while clients <= max_clients {
        rows.push(run_config(clients, secs));
        clients *= 4;
    }

    let fields = format!("\"mixed\":[{}]", rows.join(","));
    quicksel_bench::write_bench_json("net_load", "NET_LOAD_OUT", &fields);
}
