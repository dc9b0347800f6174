//! End-to-end and per-layer benchmark of the QuickSel serving stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload planner_m400 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload drives the stack a deployment runs: a loopback
//! `quicksel-net` server in front of a durable `EstimatorRegistry` that
//! holds one single-shard QuickSel table over a 3-d Gaussian dataset.
//! The traffic is the planner mix the repository documents for its
//! serving path (README "Load bench", `crates/bench/benches/net_load.rs`):
//! closed-loop clients, each on its own connection, send 8-rect
//! `estimate_many` probes, and every tenth request is a 4-row feedback
//! batch instead. The workloads differ in the table behind the traffic:
//!
//! * `planner_m400`: the documented four clients against an m=400 model
//!   that checkpoints every 512 rows (the default is 4096; 512 puts two
//!   checkpoints in every measured block). Loads the request path under
//!   concurrent feedback, and the durability path: WAL appends,
//!   checkpoints, small warm refines.
//! * `learn_m600`: one client against an m=600 model without
//!   checkpoints. One client, so feedback never queues behind another
//!   client's refine and its latency is the training path's own. With
//!   4-row batches, eight Woodbury appends fill the 32-row refresh rank
//!   and the ninth refreshes the factor. The trainer's dense matrices grow
//!   with m²: at m=1000 and above they outgrow the host's share of a
//!   last-level cache, and the memory-bound appends moved by a fifth to a
//!   quarter from run to run with what else the host ran; m=600 keeps
//!   them steady.
//!
//! The WAL is not fsynced per batch (the `DurabilityOptions` default).
//! Inputs come from `--seed` only. The measured window is cut into blocks
//! that each hold a fixed number of feedback batches, and a run moves to
//! a freshly set-up stack every few blocks, so a run samples several
//! stacks and the retained history cannot grow with the run's speed.
//! Each fresh stack serves a few unmeasured feedback batches first. When
//! a stack has served its blocks, a fresh replica syncs from it over the
//! wire; then the stack is stopped and its table restarted from the files
//! it left (newest checkpoint plus WAL tail, still in the page cache).
//!
//! With `--trace 0` the run reports the end-to-end metrics: `probe_p50_ms`
//! and `probe_p90_ms` of the estimate round trips; `visible_p50_ms`,
//! `visible_p90_ms` and `visible_mean_ms` of the feedback round trips (the
//! ack returns once the refine has published the snapshot the next probe
//! reads); each taken per block (nearest rank) and reported as the
//! interquartile mean across the blocks; `replica_sync_ms` and
//! `recover_ms`, the medians over the run's replica syncs and restarts;
//! and `setup_s`, the median over the run's stack set-ups (registry,
//! durable table, cold train, server start, client connects). With
//! `--trace 1` the server serves through a span-recording backend wrapper
//! and the run reports the per-layer metrics instead: server-side spans
//! around each call into the service layer, the train report of each
//! refine, the clients' codec work re-timed on the same messages, the
//! transport residual of the round trips, the service's counters, the
//! bytes a replica sync ships and the server's time serving them, and the
//! rows a restart replays from the WAL. Every answer is checked: a wire
//! estimate must equal the in-process estimate of the same snapshot bit
//! for bit whenever no feedback published during the request, acks must
//! carry consistent watermarks, feedback must publish a new snapshot
//! before its ack, the table must hold every acknowledged row, a replica
//! and a restarted table must answer held-out queries bit for bit as the
//! serving table does, and the trained model must beat the uniform prior
//! on held-out queries. The last line of stdout is the JSON result.

use quicksel::data::datasets::gaussian_table;
use quicksel::data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel::net::proto::{self, Request, Response};
use quicksel::net::{serve, BackendError};
use quicksel::persist::ManifestEntry;
use quicksel::service::ShardedService;
use quicksel::{
    Domain, DurabilityOptions, EstimatorRegistry, NetBackend, NetClient, ObservedQuery, QuickSel,
    Rect, RefinePolicy, ReplicaAgent, ReplicaBackend, ReplicaOptions, ServerConfig, ServerHandle,
    TableId, WireStats,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLE: &str = "bench";
/// Rects per estimate request and rows per feedback request: the
/// documented planner mix.
const ESTIMATE_RECTS: usize = 8;
const FEEDBACK_ROWS: usize = 4;
/// Every tenth request of a client is a feedback batch.
const WRITE_EVERY: usize = 10;
const PROBE_BATCHES: usize = 256;
/// Feedback rows generated per run; the stream cycles through them.
const FEEDBACK_POOL: usize = 2048;
const HOLDOUT: usize = 64;
/// Stack set-ups before the measured window; `setup_s` is the median over
/// these and the per-episode set-ups.
const SETUPS: usize = 3;
/// Where durable table directories live, relative to the working
/// directory; removed when the run ends.
const WORK_ROOT: &str = ".perfbench-work";

struct Spec {
    name: &'static str,
    /// Subpopulations `m` of the table's model.
    subpops: usize,
    /// Feedback rows the cold train learns from during set-up.
    initial_rows: usize,
    /// Ingested rows between checkpoints (`u64::MAX`: none in a run).
    checkpoint_rows: u64,
    /// Closed-loop clients, one connection each.
    clients: usize,
    /// Feedback batches a fresh stack serves before its first block, so
    /// the first refines after the cold train and the first requests on
    /// each connection are not measured.
    warmup_feedbacks: usize,
    /// A block holds this many feedback batches (of all clients) and the
    /// probes sent between them: at least one period of the workload's
    /// expensive operations (factor refreshes, checkpoints), so every
    /// block holds them in the same proportion. Latency statistics are
    /// taken per block and reported as their interquartile mean across
    /// blocks: a stall on the shared host that spans a few blocks falls
    /// outside the middle half, while stacks that serve at two distinct
    /// speeds average out instead of flipping a median between them.
    block_feedbacks: usize,
    /// Blocks served by one stack before the next starts on a freshly
    /// set-up one. How fast a process serves a workload varies from one
    /// stack to the next by more than from one block to the next, so a
    /// run samples several stacks; a fresh stack also keeps the retained
    /// history from growing with the run's speed.
    blocks_per_stack: usize,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "planner_m400",
        subpops: 400,
        initial_rows: 256,
        checkpoint_rows: 512,
        clients: 4,
        warmup_feedbacks: 16,
        // 1024 rows: two checkpoints, and a refresh every ninth batch.
        block_feedbacks: 256,
        blocks_per_stack: 1,
    },
    Spec {
        name: "learn_m600",
        subpops: 600,
        initial_rows: 1000,
        checkpoint_rows: u64::MAX,
        clients: 1,
        warmup_feedbacks: 1,
        // Eight Woodbury appends, then a refresh.
        block_feedbacks: 9,
        // About a third of a second per stack.
        blocks_per_stack: 16,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number of seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

struct Inputs {
    domain: Domain,
    initial: Vec<ObservedQuery>,
    feedback: Vec<ObservedQuery>,
    probes: Vec<Vec<Rect>>,
    holdout: Vec<ObservedQuery>,
}

fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let table = gaussian_table(3, 0.5, 20_000, seed);
    let domain = table.domain().clone();
    let mut gen = RectWorkload::new(
        domain.clone(),
        seed ^ 0x9E37_79B9_7F4A_7C15,
        ShiftMode::Random,
        CenterMode::DataRow,
    )
    .with_width_frac(0.1, 0.4);
    let initial = gen.take_queries(&table, spec.initial_rows);
    let feedback = gen.take_queries(&table, FEEDBACK_POOL);
    let holdout = gen.take_queries(&table, HOLDOUT);
    let probes = (0..PROBE_BATCHES)
        .map(|_| (0..ESTIMATE_RECTS).map(|_| gen.next_rect(&table)).collect())
        .collect();
    Inputs { domain, initial, feedback, probes, holdout }
}

// ---------------------------------------------------------------------
// The stack
// ---------------------------------------------------------------------

type Registry = EstimatorRegistry<QuickSel>;

/// The cold train that set-up runs, split by the train report.
#[derive(Clone, Copy)]
struct ColdTrain {
    total: Duration,
    assemble: Duration,
    solve: Duration,
}

/// One closed-loop client and its connection.
struct Client {
    conn: NetClient,
    /// Requests sent so far; request `k` is a feedback batch when
    /// `k % WRITE_EVERY == WRITE_EVERY - 1`.
    k: usize,
    /// The watermark of this client's last acknowledged batch.
    watermark: u64,
}

struct Stack {
    registry: Arc<Registry>,
    service: Arc<ShardedService<QuickSel>>,
    tracer: Option<Arc<Traced>>,
    server: ServerHandle,
    clients: Vec<Client>,
    dir: PathBuf,
    /// How long `set_up` took.
    setup: Duration,
    cold: ColdTrain,
    /// Feedback batches the clients have claimed on this stack. Batch `t`
    /// sends rows `t * FEEDBACK_ROWS ..` of the feedback pool, so the
    /// rows a block sends do not depend on which client sends them. A
    /// plain counter: it publishes no other data.
    feedbacks: AtomicUsize,
}

fn durability(spec: &Spec) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_rows: spec.checkpoint_rows,
        checkpoint_interval: Duration::from_secs(3600),
        ..DurabilityOptions::default()
    }
}

fn learner(spec: &Spec, domain: &Domain, seed: u64) -> QuickSel {
    QuickSel::builder(domain.clone())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(spec.subpops)
        .seed(seed)
        .build()
}

/// A timed restart of a stopped stack's table.
#[derive(Clone, Copy)]
struct Recovery {
    time: Duration,
    replayed_rows: u64,
}

/// A fresh replica's first sync from a serving stack.
#[derive(Clone, Copy)]
struct ReplicaSync {
    time: Duration,
    bytes: u64,
    /// Server time in the replica's manifest and chunk requests (traced
    /// runs only).
    serve: Duration,
}

fn holdout_rects(inp: &Inputs) -> Vec<Rect> {
    inp.holdout.iter().map(|q| q.rect.clone()).collect()
}

impl Stack {
    /// Registry, durable table, cold train, server, connected clients.
    fn set_up(
        spec: &Spec,
        inp: &Inputs,
        seed: u64,
        trace: bool,
        dir: PathBuf,
    ) -> Result<Self, String> {
        let start = Instant::now();
        let registry = Arc::new(Registry::new());
        let (service, _) = registry
            .register_durable(&dir, TABLE, inp.domain.clone(), 1, durability(spec), |_| {
                learner(spec, &inp.domain, seed)
            })
            .map_err(|e| format!("opening the durable table: {e:?}"))?;
        let t = Instant::now();
        service.observe_batch(&inp.initial).map_err(|e| format!("cold train: {e:?}"))?;
        let total = t.elapsed();
        let report = service
            .shard(0)
            .with_learner(|l| l.last_report().cloned())
            .ok_or("cold train left no train report")?;
        if report.assembly_reused {
            return Err("the initial train was not a cold build".into());
        }
        let cold = ColdTrain { total, assemble: report.assemble_time, solve: report.solve_time };
        let config = ServerConfig { estimate_concurrency: 0, ..ServerConfig::default() };
        let (tracer, server) = if trace {
            let tracer = Arc::new(Traced::new(Arc::clone(&registry)));
            (Some(Arc::clone(&tracer)), serve(tracer, config))
        } else {
            (None, serve(Arc::clone(&registry), config))
        };
        let server = server.map_err(|e| format!("binding the server: {e}"))?;
        let clients = (0..spec.clients)
            .map(|c| {
                let conn = NetClient::connect(server.addr())
                    .map_err(|e| format!("connecting client {c}: {e:?}"))?;
                // Clients start at different points of the mix, so their
                // feedback batches do not all arrive at once.
                let k = c * WRITE_EVERY / spec.clients;
                Ok(Client { conn, k, watermark: inp.initial.len() as u64 })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Stack {
            registry,
            service,
            tracer,
            server,
            clients,
            dir,
            setup: start.elapsed(),
            cold,
            feedbacks: AtomicUsize::new(0),
        })
    }

    /// Stops the clients and the server and drops the table; its files
    /// stay in the returned directory.
    fn stop(self) -> PathBuf {
        let Stack { registry, service, tracer, mut server, clients, dir, .. } = self;
        drop(clients);
        server.shutdown();
        drop((server, tracer, service, registry));
        dir
    }

    fn tear_down(self) {
        let _ = std::fs::remove_dir_all(self.stop());
    }

    /// Times a fresh replica's first sync from the idle stack: the
    /// `quicksel-replica` agent fetches the manifest, pulls the checkpoints
    /// and WAL segments over the wire into a directory of its own and
    /// rebuilds the table through recovery. The replica must cover every
    /// row and answer the held-out queries bit for bit as the primary does.
    fn replicate(&self, spec: &Spec, inp: &Inputs, seed: u64) -> Result<ReplicaSync, String> {
        let mirror = self.dir.with_extension("replica");
        let backend = Arc::new(ReplicaBackend::empty());
        let options = ReplicaOptions::new(self.server.addr().to_string(), &mirror);
        let mut agent = ReplicaAgent::new(
            options,
            Arc::clone(&backend),
            |_: &TableId, domain: &Domain, _: usize| learner(spec, domain, seed),
        );
        let shipped_ns = || self.tracer.as_ref().map_or(0, |t| t.ship.read().ns);
        let before = shipped_ns();
        let t = Instant::now();
        let report = agent.sync_once();
        let time = t.elapsed();
        let serve = Duration::from_nanos(shipped_ns() - before);
        let report = report.map_err(|e| format!("replica sync: {e:?}"))?;
        let rows = self.registry.stats().total.queries_ingested;
        if report.applied_watermark != rows || report.watermark_lag != 0 {
            return Err(format!("a replica of an idle table reported {report:?}"));
        }
        let rects = holdout_rects(inp);
        let replica =
            backend.registry().get(&TableId::from(TABLE)).ok_or("the replica holds no table")?;
        if replica.estimate_many(&rects) != self.service.estimate_many(&rects) {
            return Err("the replica's estimates differ from the primary's".into());
        }
        drop((replica, agent, backend));
        let _ = std::fs::remove_dir_all(mirror);
        Ok(ReplicaSync { time, bytes: report.bytes_fetched, serve })
    }

    /// Stops the stack and times the restart of its table from the files
    /// it left: `EstimatorRegistry::recover_from` loads the newest
    /// checkpoint and replays the WAL tail through the ingest path. The
    /// restarted table must hold the same rows and answer the held-out
    /// queries bit for bit as the stopped one did.
    fn restart(self, spec: &Spec, inp: &Inputs, seed: u64) -> Result<Recovery, String> {
        let rects = holdout_rects(inp);
        let expected = self.service.estimate_many(&rects);
        let rows = self.registry.stats().total.queries_ingested;
        let dir = self.stop();
        let t = Instant::now();
        let recovered = Registry::recover_from(&dir, durability(spec), |_, domain, _| {
            learner(spec, domain, seed)
        });
        let time = t.elapsed();
        let (registry, report) = recovered.map_err(|e| format!("recovering the table: {e:?}"))?;
        let shards = report.shards;
        if report.tables_recovered != 1
            || report.tables_skipped != 0
            || shards.replay_failures != 0
            || shards.truncated_wal_bytes != 0
            || shards.checkpoints_skipped != 0
        {
            return Err(format!("a clean restart reported {report:?}"));
        }
        let service = registry.get(&TableId::from(TABLE)).ok_or("the table did not recover")?;
        if service.stats().total.queries_ingested != rows {
            return Err("the restarted table does not hold the stopped table's rows".into());
        }
        if service.estimate_many(&rects) != expected {
            return Err("the restarted table's estimates differ from the stopped table's".into());
        }
        drop((service, registry));
        let _ = std::fs::remove_dir_all(dir);
        Ok(Recovery { time, replayed_rows: shards.replayed_rows })
    }
}

/// Removes the run's durable directories however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no concurrent run still uses the root.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Total time and count of one span kind.
#[derive(Default)]
struct Acc {
    ns: AtomicU64,
    n: AtomicU64,
}

impl Acc {
    fn add(&self, d: Duration) {
        self.ns.fetch_add(d.as_nanos() as u64, Relaxed);
        self.n.fetch_add(1, Relaxed);
    }

    fn read(&self) -> Span {
        Span { ns: self.ns.load(Relaxed), n: self.n.load(Relaxed) }
    }
}

/// The registry as the server sees it, with a span around each call into
/// the service layer and the train report of each refine it causes.
struct Traced {
    inner: Arc<Registry>,
    estimate: Acc,
    ingest: Acc,
    fold: Acc,
    solve: Acc,
    /// Manifest and chunk requests of replicas.
    ship: Acc,
    /// The newest model version whose train report has been counted.
    reported: AtomicU64,
}

impl Traced {
    fn new(inner: Arc<Registry>) -> Self {
        Traced {
            inner,
            estimate: Acc::default(),
            ingest: Acc::default(),
            fold: Acc::default(),
            solve: Acc::default(),
            ship: Acc::default(),
            reported: AtomicU64::new(0),
        }
    }
}

impl NetBackend for Traced {
    fn estimate_many(&self, table: &TableId, rects: &[Rect]) -> Result<Vec<f64>, BackendError> {
        let t = Instant::now();
        let out = NetBackend::estimate_many(&*self.inner, table, rects);
        self.estimate.add(t.elapsed());
        out
    }

    fn observe_batch(&self, table: &TableId, rows: &[ObservedQuery]) -> Result<u64, BackendError> {
        let t = Instant::now();
        let out = NetBackend::observe_batch(&*self.inner, table, rows);
        self.ingest.add(t.elapsed());
        if let Some(service) = self.inner.get(table) {
            let (version, report) =
                service.shard(0).with_learner(|l| (l.version(), l.last_report().cloned()));
            // Another client's refine can land between the call and this
            // read, so refines are sampled: each published version's
            // report counts once, and one that was overtaken not at all.
            let fresh = self.reported.fetch_max(version, Relaxed) < version;
            if let (true, Some(report)) = (fresh, report) {
                self.fold.add(report.assemble_time);
                self.solve.add(report.solve_time);
            }
        }
        out
    }

    fn registry_stats(&self) -> WireStats {
        NetBackend::registry_stats(&*self.inner)
    }

    fn checkpoint_now(&self) -> Result<u32, BackendError> {
        NetBackend::checkpoint_now(&*self.inner)
    }

    fn tables(&self) -> Vec<(String, Domain)> {
        NetBackend::tables(&*self.inner)
    }

    fn manifest(&self) -> Result<Vec<ManifestEntry>, BackendError> {
        let t = Instant::now();
        let out = NetBackend::manifest(&*self.inner);
        self.ship.add(t.elapsed());
        out
    }

    fn fetch_chunk(
        &self,
        path: &str,
        offset: u64,
        max_len: u32,
    ) -> Result<(u64, Vec<u8>), BackendError> {
        let t = Instant::now();
        let out = NetBackend::fetch_chunk(&*self.inner, path, offset, max_len);
        self.ship.add(t.elapsed());
        out
    }
}

#[derive(Clone, Copy, Default)]
struct Span {
    ns: u64,
    n: u64,
}

impl Span {
    fn mean_us(self) -> f64 {
        self.ns as f64 / self.n.max(1) as f64 / 1e3
    }
}

/// What the server-side spans and the service counters recorded.
#[derive(Clone, Copy, Default)]
struct Layers {
    estimate: Span,
    ingest: Span,
    fold: Span,
    solve: Span,
    cold_refines: u64,
    rows: u64,
    wal_bytes: u64,
    checkpoints: u64,
}

impl Layers {
    fn read(stack: &Stack) -> Layers {
        let stats = stack.registry.stats().total;
        let mut layers = Layers {
            cold_refines: stats.refines - stats.incremental_refines,
            rows: stats.queries_ingested,
            wal_bytes: stats.wal_bytes,
            checkpoints: stats.checkpoints_written,
            ..Layers::default()
        };
        if let Some(t) = &stack.tracer {
            layers.estimate = t.estimate.read();
            layers.ingest = t.ingest.read();
            layers.fold = t.fold.read();
            layers.solve = t.solve.read();
        }
        layers
    }

    /// `self + (end - start)`, field by field.
    fn add_delta(self, start: Layers, end: Layers) -> Layers {
        let s =
            |acc: Span, a: Span, b: Span| Span { ns: acc.ns + b.ns - a.ns, n: acc.n + b.n - a.n };
        let c = |acc: u64, a: u64, b: u64| acc + b - a;
        Layers {
            estimate: s(self.estimate, start.estimate, end.estimate),
            ingest: s(self.ingest, start.ingest, end.ingest),
            fold: s(self.fold, start.fold, end.fold),
            solve: s(self.solve, start.solve, end.solve),
            cold_refines: c(self.cold_refines, start.cold_refines, end.cold_refines),
            rows: c(self.rows, start.rows, end.rows),
            wal_bytes: c(self.wal_bytes, start.wal_bytes, end.wal_bytes),
            checkpoints: c(self.checkpoints, start.checkpoints, end.checkpoints),
        }
    }
}

/// Frame + message encode and decode of one request and its response:
/// the codec work the client and the server do for that round trip.
fn codec_time(request: &Request, response: &Response) -> Duration {
    let t = Instant::now();
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, &request.encode()).expect("writing to a Vec cannot fail");
    proto::write_frame(&mut wire, &response.encode()).expect("writing to a Vec cannot fail");
    let mut read = &wire[..];
    let request_body = proto::read_frame(&mut read, u32::MAX).expect("own request frame");
    let response_body = proto::read_frame(&mut read, u32::MAX).expect("own response frame");
    let decoded = black_box((Request::decode(&request_body), Response::decode(&response_body)));
    assert!(decoded.0.is_ok() && decoded.1.is_ok(), "own frames must decode");
    t.elapsed()
}

// ---------------------------------------------------------------------
// Driving a workload
// ---------------------------------------------------------------------

/// What one client saw during one block.
#[derive(Default)]
struct ClientLog {
    /// Round trips of estimate and of feedback requests, in milliseconds.
    probe_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Summed round trips and (traced) codec time of the requests that
    /// succeeded.
    rtt: Duration,
    codec: Duration,
    mismatches: Vec<&'static str>,
}

/// Latency statistics of one block, in milliseconds.
#[derive(Clone, Copy)]
struct BlockStats {
    probe_p50: f64,
    probe_p90: f64,
    visible_p50: f64,
    visible_p90: f64,
    visible_mean: f64,
}

#[derive(Default)]
struct Tally {
    blocks: Vec<BlockStats>,
    /// Every measured latency, for the summary on stderr.
    probe_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// Requests in the measured blocks, their summed round trips, and
    /// (traced) their summed codec time.
    requests: u64,
    rtt: Duration,
    codec: Duration,
    layers: Layers,
}

impl Tally {
    fn mismatch(&mut self, what: &str) {
        if self.mismatches < 5 {
            eprintln!("perfbench: check failed: {what}");
        }
        self.mismatches += 1;
    }

    /// Adds the clients' logs of one block; a measured block also gets
    /// its latency statistics.
    fn absorb(&mut self, logs: Vec<ClientLog>, measured: bool) {
        let mut probe = Vec::new();
        let mut visible = Vec::new();
        for log in logs {
            self.attempted += log.attempted;
            self.failed += log.failed;
            for what in log.mismatches {
                self.mismatch(what);
            }
            if measured {
                self.requests += (log.probe_ms.len() + log.visible_ms.len()) as u64;
                self.rtt += log.rtt;
                self.codec += log.codec;
                probe.extend(log.probe_ms);
                visible.extend(log.visible_ms);
            }
        }
        if !measured {
            return;
        }
        if probe.is_empty() || visible.is_empty() {
            self.mismatch("a block completed no probe or no feedback");
            return;
        }
        probe.sort_by(f64::total_cmp);
        visible.sort_by(f64::total_cmp);
        self.blocks.push(BlockStats {
            probe_p50: nearest_rank(&probe, 0.5),
            probe_p90: nearest_rank(&probe, 0.9),
            visible_p50: nearest_rank(&visible, 0.5),
            visible_p90: nearest_rank(&visible, 0.9),
            visible_mean: visible.iter().sum::<f64>() / visible.len() as f64,
        });
        self.probe_ms.extend(probe);
        self.visible_ms.extend(visible);
    }
}

/// Serves one fresh stack: the warm-up batches, then up to
/// `spec.blocks_per_stack` measured blocks, stopping early at the first
/// block boundary past `deadline`.
fn episode(spec: &Spec, inp: &Inputs, stack: &mut Stack, deadline: Instant, tally: &mut Tally) {
    let mut end = spec.warmup_feedbacks;
    tally.absorb(run_block(inp, stack, end), false);
    check_table(spec, stack, tally);
    let start = Layers::read(stack);
    for _ in 0..spec.blocks_per_stack {
        end += spec.block_feedbacks;
        tally.absorb(run_block(inp, stack, end), true);
        check_table(spec, stack, tally);
        if Instant::now() >= deadline {
            break;
        }
    }
    tally.layers = tally.layers.add_delta(start, Layers::read(stack));
}

/// Runs every client of `stack` until the stack has served `end`
/// feedback batches.
fn run_block(inp: &Inputs, stack: &mut Stack, end: usize) -> Vec<ClientLog> {
    let trace = stack.tracer.is_some();
    let service = &*stack.service;
    let feedbacks = &stack.feedbacks;
    std::thread::scope(|s| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        if client.k % WRITE_EVERY == WRITE_EVERY - 1 {
                            let claim = feedbacks
                                .fetch_update(Relaxed, Relaxed, |t| (t < end).then_some(t + 1));
                            let Ok(ticket) = claim else { break };
                            feedback(inp, service, ticket, client, trace, &mut log);
                        } else {
                            probe(inp, service, c, client, trace, &mut log);
                        }
                        client.k += 1;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    })
}

fn in_unit_interval(values: &[f64]) -> bool {
    values.iter().all(|v| (0.0..=1.0).contains(v))
}

/// One estimate request.
fn probe(
    inp: &Inputs,
    service: &ShardedService<QuickSel>,
    c: usize,
    client: &mut Client,
    trace: bool,
    log: &mut ClientLog,
) {
    log.attempted += 1;
    let rects = &inp.probes[(c * 7919 + client.k) % inp.probes.len()];
    let before = service.shard(0).snapshot();
    let t = Instant::now();
    let answer = client.conn.estimate_many(TABLE, rects);
    let latency = t.elapsed();
    let values = match answer {
        Ok(values) => values,
        Err(e) => {
            eprintln!("perfbench: estimate request failed: {e:?}");
            log.failed += 1;
            return;
        }
    };
    log.probe_ms.push(latency.as_secs_f64() * 1e3);
    log.rtt += latency;
    if trace {
        log.codec += codec_time(
            &Request::EstimateMany { id: 1, table: TABLE.into(), rects: rects.to_vec() },
            &Response::Estimates { id: 1, values: values.clone() },
        );
    }
    if !in_unit_interval(&values) {
        log.mismatches.push("probe estimate outside [0, 1]");
    }
    // The server answered from a snapshot it loaded between `before` and
    // the load below; when no publish swapped it meanwhile, the wire
    // answer must be that snapshot's answer, bit for bit.
    if Arc::ptr_eq(&before, &service.shard(0).snapshot()) && before.estimate_many(rects) != values {
        log.mismatches.push("wire estimates differ from in-process estimates");
    }
}

/// One feedback request; its ack must come after the refine published.
fn feedback(
    inp: &Inputs,
    service: &ShardedService<QuickSel>,
    ticket: usize,
    client: &mut Client,
    trace: bool,
    log: &mut ClientLog,
) {
    log.attempted += 1;
    let pool = &inp.feedback;
    let rows: Vec<ObservedQuery> = (0..FEEDBACK_ROWS)
        .map(|j| pool[(ticket * FEEDBACK_ROWS + j) % pool.len()].clone())
        .collect();
    let version = service.version();
    let t = Instant::now();
    let ack = client.conn.observe_batch(TABLE, &rows);
    let latency = t.elapsed();
    let ack = match ack {
        Ok(ack) => ack,
        Err(e) => {
            eprintln!("perfbench: feedback request failed: {e:?}");
            log.failed += 1;
            return;
        }
    };
    log.visible_ms.push(latency.as_secs_f64() * 1e3);
    log.rtt += latency;
    if trace {
        log.codec += codec_time(
            &Request::ObserveBatch { id: 1, table: TABLE.into(), rows: rows.clone() },
            &Response::ObserveAck {
                id: 1,
                accepted_rows: ack.accepted_rows,
                watermark: ack.watermark,
            },
        );
    }
    // The watermark counts the table's rows after this batch, which
    // holds at least this batch on top of the client's previous one.
    if ack.accepted_rows as usize != rows.len()
        || ack.watermark < client.watermark + rows.len() as u64
    {
        log.mismatches.push("ack does not carry a consistent watermark");
    }
    client.watermark = ack.watermark;
    if service.version() <= version {
        log.mismatches.push("feedback did not publish a new snapshot before its ack");
    }
}

/// With every client idle: the table holds exactly the acknowledged rows,
/// the newest ack says so, and no refine failed.
fn check_table(spec: &Spec, stack: &Stack, tally: &mut Tally) {
    let stats = stack.registry.stats().total;
    let sent = stack.feedbacks.load(Relaxed) * FEEDBACK_ROWS;
    if stats.queries_ingested != (spec.initial_rows + sent) as u64 {
        tally.mismatch("the table does not hold exactly the acknowledged rows");
    }
    if stack.clients.iter().map(|c| c.watermark).max() != Some(stats.queries_ingested) {
        tally.mismatch("the newest ack does not carry the table's row count");
    }
    if stats.refine_failures != 0 {
        tally.mismatch("a refine failed");
    }
}

/// Mean absolute error of the served model and of the uniform prior on
/// held-out queries.
fn holdout_errors(stack: &Stack, inp: &Inputs) -> (f64, f64) {
    let estimates = stack.service.estimate_many(&holdout_rects(inp));
    let domain_volume: f64 = (0..inp.domain.dim()).map(|d| inp.domain.bounds(d).length()).product();
    let n = inp.holdout.len() as f64;
    let learned =
        inp.holdout.iter().zip(&estimates).map(|(q, e)| (q.selectivity - e).abs()).sum::<f64>() / n;
    let prior = inp
        .holdout
        .iter()
        .map(|q| (q.selectivity - q.rect.volume() / domain_volume).abs())
        .sum::<f64>()
        / n;
    (learned, prior)
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Nearest-rank quantile of sorted, non-empty values.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

/// Mean of the middle half of `values` (all of them when fewer than four).
fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let trim = values.len() / 4;
    let middle = &values[trim..values.len() - trim];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// Linear-interpolation quantile of sorted values (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `p10/p50/p90/p99` of unsorted values, for the summary on stderr.
fn percentiles(values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q: Vec<String> =
        [0.1, 0.5, 0.9, 0.99].iter().map(|&q| format!("{:.4}", quantile(&sorted, q))).collect();
    q.join("/")
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let spec = SPECS.iter().find(|s| s.name == args.workload).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {:?} (expected one of {names:?})", args.workload)
    })?;
    let inp = inputs(spec, args.seed);
    let work = WorkDir(Path::new(WORK_ROOT).join(format!("{}-{}", spec.name, std::process::id())));

    // Every set-up of the run, including the per-episode ones, is timed.
    let mut setups: Vec<(Duration, ColdTrain)> = Vec::new();
    let mut fresh_stack = || {
        let dir = work.0.join(setups.len().to_string());
        let stack = Stack::set_up(spec, &inp, args.seed, args.trace, dir)?;
        setups.push((stack.setup, stack.cold));
        Ok::<_, String>(stack)
    };
    let mut tally = Tally::default();
    let first = fresh_stack()?;
    let (learned_err, prior_err) = holdout_errors(&first, &inp);
    if learned_err.is_nan() || learned_err >= prior_err {
        tally.mismatch("the trained model does not beat the uniform prior");
    }
    first.tear_down();
    for _ in 1..SETUPS {
        fresh_stack()?.tear_down();
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut syncs: Vec<ReplicaSync> = Vec::new();
    let mut recoveries: Vec<Recovery> = Vec::new();
    while Instant::now() < deadline {
        let mut stack = fresh_stack()?;
        episode(spec, &inp, &mut stack, deadline, &mut tally);
        match stack.replicate(spec, &inp, args.seed) {
            Ok(sync) => syncs.push(sync),
            Err(e) => tally.mismatch(&e),
        }
        match stack.restart(spec, &inp, args.seed) {
            Ok(recovery) => recoveries.push(recovery),
            Err(e) => tally.mismatch(&e),
        }
    }
    drop(work);

    if tally.blocks.is_empty() || syncs.is_empty() || recoveries.is_empty() {
        tally.mismatch("no block, replica sync or restart completed in the measured window");
    }
    let setup_s = median(setups.iter().map(|(d, _)| d.as_secs_f64()).collect());
    let recover_ms = median(recoveries.iter().map(|r| r.time.as_secs_f64() * 1e3).collect());
    let replayed_rows = median(recoveries.iter().map(|r| r.replayed_rows as f64).collect());
    let sync_ms = median(syncs.iter().map(|s| s.time.as_secs_f64() * 1e3).collect());
    let sync_bytes = median(syncs.iter().map(|s| s.bytes as f64).collect());
    let layers = tally.layers;
    eprintln!(
        "perfbench: {} seed={} blocks={} probes={} ms p10/p50/p90/p99={} feedbacks={} ms \
         p10/p50/p90/p99={} setup={setup_s:.4}s over {} set-ups, replica sync={sync_ms:.2}ms \
         over {} syncs shipping {sync_bytes} bytes, restart={recover_ms:.2}ms over {} restarts \
         replaying {replayed_rows} rows, holdout err {learned_err:.4} (prior {prior_err:.4}), \
         checkpoints={} cold_refines={}",
        spec.name,
        args.seed,
        tally.blocks.len(),
        tally.probe_ms.len(),
        percentiles(&tally.probe_ms),
        tally.visible_ms.len(),
        percentiles(&tally.visible_ms),
        setups.len(),
        syncs.len(),
        recoveries.len(),
        layers.checkpoints,
        layers.cold_refines,
    );

    let metrics = if args.trace {
        let handler_ns = (layers.estimate.ns + layers.ingest.ns) as f64;
        let requests = tally.requests.max(1) as f64;
        let codec_ns = tally.codec.as_nanos() as f64;
        let transport_ns = tally.rtt.as_nanos() as f64 - handler_ns - codec_ns;
        let ingest_other_ns =
            layers.ingest.ns as f64 - layers.fold.ns as f64 - layers.solve.ns as f64;
        let rows = layers.rows.max(1) as f64;
        let cold = |f: fn(&ColdTrain) -> Duration| {
            median(setups.iter().map(|(_, c)| f(c).as_secs_f64() * 1e3).collect())
        };
        vec![
            ("codec_us", codec_ns / requests / 1e3, "us"),
            ("transport_us", transport_ns / requests / 1e3, "us"),
            ("estimate_handler_us", layers.estimate.mean_us(), "us"),
            ("ingest_handler_us", layers.ingest.mean_us(), "us"),
            ("refine_fold_us", layers.fold.mean_us(), "us"),
            ("refine_solve_us", layers.solve.mean_us(), "us"),
            ("ingest_other_us", ingest_other_ns / layers.ingest.n.max(1) as f64 / 1e3, "us"),
            ("cold_assemble_ms", cold(|c| c.assemble), "ms"),
            ("cold_solve_ms", cold(|c| c.solve), "ms"),
            ("cold_other_ms", cold(|c| c.total - c.assemble - c.solve), "ms"),
            ("wal_bytes_per_row", layers.wal_bytes as f64 / rows, "bytes"),
            ("checkpoints_per_krow", layers.checkpoints as f64 * 1e3 / rows, "count"),
            ("cold_refines", layers.cold_refines as f64, "count"),
            ("recover_replayed_rows", replayed_rows, "count"),
            ("replica_bytes", sync_bytes, "bytes"),
            (
                "replica_serve_ms",
                median(syncs.iter().map(|s| s.serve.as_secs_f64() * 1e3).collect()),
                "ms",
            ),
        ]
    } else {
        let across_blocks =
            |f: fn(&BlockStats) -> f64| interquartile_mean(tally.blocks.iter().map(f).collect());
        vec![
            ("probe_p50_ms", across_blocks(|b| b.probe_p50), "ms"),
            ("probe_p90_ms", across_blocks(|b| b.probe_p90), "ms"),
            ("visible_p50_ms", across_blocks(|b| b.visible_p50), "ms"),
            ("visible_p90_ms", across_blocks(|b| b.visible_p90), "ms"),
            ("visible_mean_ms", across_blocks(|b| b.visible_mean), "ms"),
            ("replica_sync_ms", sync_ms, "ms"),
            ("recover_ms", recover_ms, "ms"),
            ("setup_s", setup_s, "s"),
        ]
    };
    Ok(json(tally.mismatches == 0 && tally.failed == 0, tally.attempted, tally.failed, &metrics))
}
