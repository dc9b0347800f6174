//! The server runtime: std-TCP acceptor + bounded worker pool serving
//! the wire protocol over a [`NetBackend`].
//!
//! The shape mirrors the rest of the workspace's concurrency story:
//! dependency-free std threading, bounded queues everywhere (the accept
//! queue, the estimate concurrency gate, the per-table ingest buckets),
//! and saturation surfaced as a *typed* signal
//! ([`Response::Retry`]) instead of an unbounded backlog. Worker count
//! defaults to [`quicksel_parallel::default_threads`] — the same sizing
//! convention as the training/estimation pools.
//!
//! **Graceful shutdown**: [`ServerHandle::shutdown`] flips a flag, nudges
//! the acceptor awake, and lets every worker finish the request it is
//! currently serving; connections waiting idle between requests are
//! closed at the next shutdown tick. No in-flight request is abandoned.

use crate::limiter::{ConcurrencyGate, TokenBucket};
use crate::proto::{
    self, ErrorCode, Request, Response, RetryCause, ServerRole, WireError, WireStats,
    DEFAULT_MAX_FRAME, FRAME_HEADER_LEN, MAX_CHUNK_LEN, PROTO_VERSION, PROTO_VERSION_MIN,
};
use quicksel_data::{EstimatorError, ObservedQuery, SnapshotSource};
use quicksel_geometry::{Domain, Rect};
use quicksel_persist::{resolve_manifest_path, scan_manifest, ManifestEntry, PersistLearner};
use quicksel_service::{EstimatorRegistry, TableId};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Floor on the defaulted worker-pool size (`workers: 0`). Workers are
/// connection holders blocked on socket reads, not compute threads, so
/// sizing them purely from core count would cap a 1-core host at one
/// concurrent client.
pub const MIN_DEFAULT_WORKERS: usize = 8;

/// Everything tunable about a server; `Default` is sized for a loopback
/// deployment and documented field by field.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the handle
    /// reports the actual one).
    pub addr: String,
    /// Worker threads serving connections; `0` means
    /// [`quicksel_parallel::default_threads`] with a floor of
    /// [`MIN_DEFAULT_WORKERS`]. One worker owns one connection for its
    /// lifetime, so this bounds *concurrent clients*, not compute —
    /// the floor keeps a 1-core host able to serve several connections
    /// (workers waiting on sockets cost no CPU).
    pub workers: usize,
    /// Accepted connections waiting for a worker; overflow is refused
    /// with `Retry{cause: AcceptQueue}` instead of queueing unboundedly.
    pub accept_queue: usize,
    /// How long a connection may sit idle between requests before the
    /// server closes it.
    pub idle_timeout: Duration,
    /// Deadline for reading the rest of a request (and writing its
    /// response) once its first byte has arrived. Must be positive:
    /// [`serve`] refuses zero.
    pub request_timeout: Duration,
    /// Poll granularity while waiting for a request: the shutdown flag
    /// is re-checked this often, so drain latency is bounded by one
    /// tick. Must be positive: [`serve`] refuses zero.
    pub shutdown_tick: Duration,
    /// Cap on a single frame body; larger announcements are refused
    /// before allocation.
    pub max_frame_len: u32,
    /// Estimate requests allowed to execute concurrently across all
    /// connections (`0` = unlimited); saturation returns
    /// `Retry{cause: EstimateConcurrency}`.
    pub estimate_concurrency: u64,
    /// Per-table feedback ingest rate in rows/s (non-finite or `<= 0`
    /// = unlimited); an empty bucket returns `Retry{cause: IngestRate}`
    /// with the refill time as the backoff hint.
    pub ingest_rows_per_s: f64,
    /// Token-bucket burst: rows a table may ingest instantaneously
    /// after an idle period. A larger batch is admitted from a full
    /// bucket and its excess repaid by the refill.
    pub ingest_burst: f64,
    /// Backoff hint for `Retry` responses that have no natural refill
    /// time (concurrency gate, accept queue).
    pub retry_after_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            accept_queue: 64,
            idle_timeout: Duration::from_secs(30),
            request_timeout: Duration::from_secs(10),
            shutdown_tick: Duration::from_millis(50),
            max_frame_len: DEFAULT_MAX_FRAME,
            estimate_concurrency: 256,
            ingest_rows_per_s: f64::INFINITY,
            ingest_burst: 8192.0,
            retry_after_ms: 20,
        }
    }
}

/// Why a backend refused a request; the server maps each variant onto
/// its wire [`ErrorCode`].
#[derive(Debug)]
pub enum BackendError {
    /// The named table is not registered.
    UnknownTable,
    /// The request contradicts the table's schema.
    BadRequest {
        /// What was inconsistent.
        context: &'static str,
    },
    /// A target shard is degraded (read-only): ingest is refused until
    /// its durable directory takes writes again. Mapped onto
    /// `Retry{cause: Degraded}` rather than an error — the batch is safe
    /// to retry after the hinted delay.
    Degraded {
        /// Suggested backoff until the shard's next re-arm probe.
        retry_after_ms: u64,
    },
    /// The backend understood the request but does not support it
    /// (e.g. replication fetches against a non-durable registry).
    Unsupported {
        /// What was asked for.
        context: &'static str,
    },
    /// The backend serves shipped state read-only; writes belong on the
    /// primary. Mapped onto [`ErrorCode::ReadOnly`] — a routing signal,
    /// not a transient pushback.
    ReadOnly,
    /// An internal failure (persistence, ...).
    Internal(String),
}

/// What the server serves: the estimator-registry surface the wire
/// protocol exposes. Implemented by
/// [`EstimatorRegistry`] directly; test
/// doubles implement it to exercise the runtime without a registry.
pub trait NetBackend: Send + Sync + 'static {
    /// Batched estimates for `rects` against `table`, with the same
    /// contract as `ShardedService::estimate_many` (one snapshot per
    /// routing shard, input order preserved).
    fn estimate_many(&self, table: &TableId, rects: &[Rect]) -> Result<Vec<f64>, BackendError>;

    /// Ingests a *pre-validated* feedback batch, returning the table's
    /// post-ingest watermark (total rows ingested). Refine failures are
    /// not errors — the rows are in, the previous model keeps serving.
    fn observe_batch(&self, table: &TableId, rows: &[ObservedQuery]) -> Result<u64, BackendError>;

    /// The registry half of a [`WireStats`] (serving counters are
    /// filled in by the server).
    fn registry_stats(&self) -> WireStats;

    /// Forces a checkpoint on every durable shard; returns how many
    /// tables had one.
    fn checkpoint_now(&self) -> Result<u32, BackendError>;

    /// Registered `(name, domain)` pairs, sorted by name.
    fn tables(&self) -> Vec<(String, Domain)>;

    /// The role advertised in `HelloAck`; backends serving shipped
    /// state read-only override this to [`ServerRole::Replica`].
    fn role(&self) -> ServerRole {
        ServerRole::Primary
    }

    /// The durable-file manifest replicas mirror. Defaults to
    /// unsupported — only durable backends have files to ship.
    fn manifest(&self) -> Result<Vec<ManifestEntry>, BackendError> {
        Err(BackendError::Unsupported { context: "backend has no durable state to replicate" })
    }

    /// A byte range of one manifest file: `(total_len, bytes)`. The
    /// path is manifest-relative; implementations must confine it to
    /// their durable root.
    fn fetch_chunk(
        &self,
        path: &str,
        offset: u64,
        max_len: u32,
    ) -> Result<(u64, Vec<u8>), BackendError> {
        let _ = (path, offset, max_len);
        Err(BackendError::Unsupported { context: "backend has no durable state to replicate" })
    }
}

impl<L> NetBackend for EstimatorRegistry<L>
where
    L: SnapshotSource + PersistLearner + Send + 'static,
{
    fn estimate_many(&self, table: &TableId, rects: &[Rect]) -> Result<Vec<f64>, BackendError> {
        let svc = self.get(table).ok_or(BackendError::UnknownTable)?;
        let dim = svc.domain().columns().len();
        if rects.iter().any(|r| r.sides().len() != dim) {
            return Err(BackendError::BadRequest {
                context: "rect dimensionality does not match the table's domain",
            });
        }
        Ok(svc.estimate_many(rects))
    }

    fn observe_batch(&self, table: &TableId, rows: &[ObservedQuery]) -> Result<u64, BackendError> {
        let svc = self.get(table).ok_or(BackendError::UnknownTable)?;
        let dim = svc.domain().columns().len();
        if rows.iter().any(|q| q.rect.sides().len() != dim) {
            return Err(BackendError::BadRequest {
                context: "feedback dimensionality does not match the table's domain",
            });
        }
        match svc.observe_batch(rows) {
            // Refine failures keep the previous snapshot serving and are
            // visible in stats; the rows themselves are ingested.
            Ok(()) | Err(EstimatorError::Solver(_)) => {}
            // Degraded shards refuse *before* ingesting anything; the
            // client must not receive an ack for a batch no WAL holds.
            Err(EstimatorError::Degraded { retry_after_ms }) => {
                return Err(BackendError::Degraded { retry_after_ms })
            }
            Err(e) => return Err(BackendError::Internal(e.to_string())),
        }
        Ok(svc.stats().total.queries_ingested)
    }

    fn registry_stats(&self) -> WireStats {
        let s = self.stats();
        let repl = s.replication;
        WireStats {
            role: u64::from(repl.replica),
            replica_applied_watermark: repl.applied_watermark,
            replica_watermark_lag: repl.watermark_lag,
            replica_last_sync_ms: repl.last_sync_ms,
            readonly_refusals: repl.readonly_refusals,
            tables: s.tables as u64,
            shards: s.shards as u64,
            batches_ingested: s.total.batches_ingested,
            queries_ingested: s.total.queries_ingested,
            refines: s.total.refines,
            refine_failures: s.total.refine_failures,
            rejected_batches: s.total.rejected_batches,
            missing_table_probes: s.missing_table_probes,
            dropped_feedback: s.dropped_feedback,
            ingest_rows_per_s: s.total.ingest_rows_per_s,
            estimate_rects_per_s: s.total.estimate_rects_per_s,
            degraded_shards: s.total.degraded,
            degraded_transitions: s.total.degraded_transitions,
            health_probes: s.total.health_probes,
            degraded_refusals: s.total.degraded_refusals,
            poisoned_locks: s.total.poisoned_locks,
            ..WireStats::default()
        }
    }

    fn checkpoint_now(&self) -> Result<u32, BackendError> {
        self.checkpoint_all().map(|n| n as u32).map_err(|e| BackendError::Internal(e.to_string()))
    }

    fn tables(&self) -> Vec<(String, Domain)> {
        self.table_ids()
            .into_iter()
            .filter_map(|id| {
                let svc = self.get(&id)?;
                Some((id.as_str().to_string(), svc.domain().clone()))
            })
            .collect()
    }

    fn manifest(&self) -> Result<Vec<ManifestEntry>, BackendError> {
        let root = self.durable_root().ok_or(BackendError::Unsupported {
            context: "registry is not durable; nothing to replicate",
        })?;
        scan_manifest(&root).map_err(|e| BackendError::Internal(e.to_string()))
    }

    fn fetch_chunk(
        &self,
        path: &str,
        offset: u64,
        max_len: u32,
    ) -> Result<(u64, Vec<u8>), BackendError> {
        let root = self.durable_root().ok_or(BackendError::Unsupported {
            context: "registry is not durable; nothing to replicate",
        })?;
        let abs = resolve_manifest_path(&root, path)
            .map_err(|_| BackendError::BadRequest { context: "manifest path escapes the root" })?;
        read_file_range(&abs, offset, max_len.min(MAX_CHUNK_LEN))
    }
}

/// Reads `[offset, offset + max_len)` of `path`, clamped to the file's
/// length; returns `(total_len, bytes)`. A file pruned between manifest
/// and fetch surfaces as `UnknownTable`-free `Internal` — the fetcher
/// retries against a fresh manifest.
fn read_file_range(
    path: &std::path::Path,
    offset: u64,
    max_len: u32,
) -> Result<(u64, Vec<u8>), BackendError> {
    use std::io::{Seek, SeekFrom};
    let mut file = std::fs::File::open(path).map_err(|e| BackendError::Internal(e.to_string()))?;
    let total_len = file.metadata().map_err(|e| BackendError::Internal(e.to_string()))?.len();
    if offset >= total_len {
        return Ok((total_len, Vec::new()));
    }
    file.seek(SeekFrom::Start(offset)).map_err(|e| BackendError::Internal(e.to_string()))?;
    let want = u64::from(max_len).min(total_len - offset) as usize;
    let mut data = vec![0u8; want];
    // The range [offset, offset+want) is immutable (checkpoints are
    // rename-complete, WAL bytes below the observed length never
    // change), so a short read here is an I/O failure, not a race.
    file.read_exact(&mut data).map_err(|e| BackendError::Internal(e.to_string()))?;
    Ok((total_len, data))
}

/// Lifetime counters of one server; see [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetServerStats {
    /// Connections accepted (admitted or refused).
    pub connections_accepted: u64,
    /// Connections currently being served by a worker.
    pub active_connections: u64,
    /// Responses sent, of any kind.
    pub requests_served: u64,
    /// `Retry` responses sent (admission-control pushback).
    pub retries_sent: u64,
    /// `Error` responses sent.
    pub errors_sent: u64,
    /// Of `retries_sent`, those with [`RetryCause::Degraded`] — ingest
    /// refused because a target shard is serving read-only.
    pub degraded_retries_sent: u64,
    /// Frames or messages that failed to decode (hostile or corrupt
    /// input; each one was answered with a typed error, never a panic).
    /// Plain disconnects — clean close, reset, abort — are not counted.
    pub decode_errors: u64,
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    active_connections: AtomicU64,
    requests_served: AtomicU64,
    retries_sent: AtomicU64,
    errors_sent: AtomicU64,
    degraded_retries_sent: AtomicU64,
    decode_errors: AtomicU64,
}

/// Non-generic server state shared with the [`ServerHandle`].
struct Control {
    shutdown: AtomicBool,
    counters: Counters,
}

struct Shared<B: NetBackend> {
    backend: Arc<B>,
    config: ServerConfig,
    control: Arc<Control>,
    gate: ConcurrencyGate,
    buckets: Mutex<HashMap<TableId, TokenBucket>>,
}

/// A running server; dropping the handle shuts it down gracefully.
pub struct ServerHandle {
    addr: SocketAddr,
    control: Arc<Control>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> NetServerStats {
        let c = &self.control.counters;
        NetServerStats {
            connections_accepted: c.connections_accepted.load(SeqCst),
            active_connections: c.active_connections.load(SeqCst),
            requests_served: c.requests_served.load(SeqCst),
            retries_sent: c.retries_sent.load(SeqCst),
            errors_sent: c.errors_sent.load(SeqCst),
            degraded_retries_sent: c.degraded_retries_sent.load(SeqCst),
            decode_errors: c.decode_errors.load(SeqCst),
        }
    }

    /// Graceful shutdown: stops accepting, drains every in-flight
    /// request, then joins all threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.control.shutdown.swap(true, SeqCst) {
            return;
        }
        // Nudge the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `config.addr` and starts serving `backend`: one acceptor
/// thread feeding a bounded queue drained by the worker pool. Returns
/// as soon as the listener is bound; the handle carries the resolved
/// address.
///
/// A zero `request_timeout` or `shutdown_tick` is refused with
/// [`std::io::ErrorKind::InvalidInput`] before anything binds: both
/// become socket read timeouts, and a zero one cannot be set, so such a
/// server could not answer a single request.
pub fn serve<B: NetBackend>(
    backend: Arc<B>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    if config.request_timeout.is_zero() || config.shutdown_tick.is_zero() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "request_timeout and shutdown_tick must be positive",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let worker_count = if config.workers == 0 {
        quicksel_parallel::default_threads().max(MIN_DEFAULT_WORKERS)
    } else {
        config.workers
    };
    let control =
        Arc::new(Control { shutdown: AtomicBool::new(false), counters: Counters::default() });
    let shared = Arc::new(Shared {
        gate: ConcurrencyGate::new(config.estimate_concurrency),
        buckets: Mutex::new(HashMap::new()),
        backend,
        config,
        control: Arc::clone(&control),
    });
    let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
        mpsc::sync_channel(shared.config.accept_queue.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..worker_count.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("qsnet-worker-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .expect("spawn worker thread")
        })
        .collect();
    let acceptor = std::thread::Builder::new()
        .name("qsnet-acceptor".to_string())
        .spawn(move || acceptor_loop(&listener, &tx, &shared))
        .expect("spawn acceptor thread");
    Ok(ServerHandle { addr, control, acceptor: Some(acceptor), workers })
}

fn acceptor_loop<B: NetBackend>(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shared: &Shared<B>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.control.shutdown.load(SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.control.shutdown.load(SeqCst) {
            break; // the shutdown nudge (or a late client); either way, stop
        }
        shared.control.counters.connections_accepted.fetch_add(1, SeqCst);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => reject_overflow(shared, stream),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` (by returning) lets the workers drain the queue and
    // exit once it is empty.
}

/// The accept queue is full: refuse the connection with a typed
/// `Retry{cause: AcceptQueue}` instead of queueing unboundedly. Best
/// effort — the client may also just see the close.
fn reject_overflow<B: NetBackend>(shared: &Shared<B>, mut stream: TcpStream) {
    // Drain the client's Hello so closing the socket doesn't RST the
    // retry frame off the wire.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut scratch = [0u8; 64];
    let _ = stream.read(&mut scratch);
    let retry = Response::Retry {
        id: 0,
        after_ms: shared.config.retry_after_ms,
        cause: RetryCause::AcceptQueue,
    };
    if proto::write_frame(&mut stream, &retry.encode()).is_ok() {
        let _ = stream.flush();
        shared.control.counters.retries_sent.fetch_add(1, SeqCst);
    }
}

fn worker_loop<B: NetBackend>(shared: &Shared<B>, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let rx = rx.lock().expect("accept queue receiver poisoned");
            rx.recv()
        };
        let Ok(stream) = stream else { break }; // acceptor gone: drain done
        shared.control.counters.active_connections.fetch_add(1, SeqCst);
        serve_conn(shared, stream);
        shared.control.counters.active_connections.fetch_sub(1, SeqCst);
    }
}

/// What [`wait_frame`] observed while waiting for the next request.
enum Waited {
    /// A complete, checksum-valid frame body.
    Frame(Vec<u8>),
    /// The client closed between requests, the idle budget ran out, or
    /// the server is shutting down — close without error.
    Done,
}

/// Waits for the next frame: polls for the first header byte in
/// `shutdown_tick` slices (re-checking the shutdown flag and the idle
/// budget each tick), then reads the rest of the frame under the
/// request timeout. Shutdown can only interrupt *between* frames — once
/// a first byte has arrived the request is in flight and will be served.
fn wait_frame<B: NetBackend>(
    shared: &Shared<B>,
    stream: &mut TcpStream,
) -> Result<Waited, WireError> {
    let cfg = &shared.config;
    let idle_start = Instant::now();
    let mut first = [0u8; 1];
    loop {
        stream.set_read_timeout(Some(cfg.shutdown_tick)).map_err(WireError::Io)?;
        match stream.read(&mut first) {
            Ok(0) => return Ok(Waited::Done), // clean close between requests
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.control.shutdown.load(SeqCst) {
                    return Ok(Waited::Done);
                }
                if idle_start.elapsed() >= cfg.idle_timeout {
                    return Ok(Waited::Done);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // A request has started: the per-request deadline applies from here.
    stream.set_read_timeout(Some(cfg.request_timeout)).map_err(WireError::Io)?;
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = first[0];
    stream.read_exact(&mut header[1..]).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => WireError::Truncated { context: "frame header" },
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            WireError::Timeout { context: "frame header" }
        }
        _ => WireError::Io(e),
    })?;
    let (len, crc) = proto::parse_header(&header, cfg.max_frame_len)?;
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => WireError::Truncated { context: "frame body" },
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            WireError::Timeout { context: "frame body" }
        }
        _ => WireError::Io(e),
    })?;
    proto::check_body(crc, &body)?;
    Ok(Waited::Frame(body))
}

fn send_response<B: NetBackend>(
    shared: &Shared<B>,
    stream: &mut TcpStream,
    response: &Response,
) -> Result<(), WireError> {
    let c = &shared.control.counters;
    c.requests_served.fetch_add(1, SeqCst);
    match response {
        Response::Retry { cause, .. } => {
            c.retries_sent.fetch_add(1, SeqCst);
            if *cause == RetryCause::Degraded {
                c.degraded_retries_sent.fetch_add(1, SeqCst);
            }
        }
        Response::Error { .. } => {
            c.errors_sent.fetch_add(1, SeqCst);
        }
        _ => {}
    }
    proto::write_frame(stream, &response.encode()).map_err(WireError::Io)?;
    stream.flush().map_err(WireError::Io)
}

/// True when the error means the peer's connection is simply gone —
/// reset or aborted at the transport level — as opposed to delivering
/// bytes that failed to parse.
fn peer_gone(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
        )
    )
}

fn serve_conn<B: NetBackend>(shared: &Shared<B>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if handshake(shared, &mut stream).is_err() {
        return;
    }
    loop {
        match wait_frame(shared, &mut stream) {
            Ok(Waited::Done) => return,
            Ok(Waited::Frame(body)) => match Request::decode(&body) {
                Ok(request) => {
                    let response = dispatch(shared, request);
                    if send_response(shared, &mut stream, &response).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    // The frame itself was intact (CRC passed), so the
                    // stream is still in sync: answer with a typed error
                    // and keep the connection.
                    shared.control.counters.decode_errors.fetch_add(1, SeqCst);
                    let response = Response::Error {
                        id: 0,
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    };
                    if send_response(shared, &mut stream, &response).is_err() {
                        return;
                    }
                }
            },
            Err(e) => {
                // A peer that vanished (RST instead of FIN — e.g. it
                // dropped the socket with unread responses buffered) is
                // a disconnect, not hostile input: close without
                // counting and without writing to a dead socket.
                if peer_gone(&e) {
                    return;
                }
                // Frame-level failure (checksum, truncation, oversize):
                // the stream may be desynchronized — answer once, close.
                shared.control.counters.decode_errors.fetch_add(1, SeqCst);
                let response =
                    Response::Error { id: 0, code: ErrorCode::BadRequest, message: e.to_string() };
                let _ = send_response(shared, &mut stream, &response);
                return;
            }
        }
    }
}

fn handshake<B: NetBackend>(shared: &Shared<B>, stream: &mut TcpStream) -> Result<u16, WireError> {
    stream.set_read_timeout(Some(shared.config.request_timeout)).map_err(WireError::Io)?;
    let hello = proto::read_frame(stream, shared.config.max_frame_len)?;
    let version = decode_and_negotiate(&hello);
    match version {
        Ok(version) => {
            proto::write_frame(stream, &proto::encode_hello_ack(version, shared.backend.role()))
                .map_err(WireError::Io)?;
            stream.flush().map_err(WireError::Io)?;
            Ok(version)
        }
        Err(e) => {
            shared.control.counters.decode_errors.fetch_add(1, SeqCst);
            let code = match &e {
                WireError::VersionUnsupported { .. } => ErrorCode::Unsupported,
                _ => ErrorCode::BadRequest,
            };
            let response = Response::Error { id: 0, code, message: e.to_string() };
            let _ = send_response(shared, stream, &response);
            Err(e)
        }
    }
}

fn decode_and_negotiate(hello: &[u8]) -> Result<u16, WireError> {
    let theirs = proto::decode_hello(hello)?;
    proto::negotiate((PROTO_VERSION_MIN, PROTO_VERSION), theirs)
}

fn dispatch<B: NetBackend>(shared: &Shared<B>, request: Request) -> Response {
    let id = request.id();
    match request {
        Request::EstimateMany { id, table, rects } => {
            let Some(_permit) = shared.gate.try_acquire() else {
                return Response::Retry {
                    id,
                    after_ms: shared.config.retry_after_ms,
                    cause: RetryCause::EstimateConcurrency,
                };
            };
            match shared.backend.estimate_many(&TableId::from(table.as_str()), &rects) {
                Ok(values) => Response::Estimates { id, values },
                Err(e) => backend_error(id, e),
            }
        }
        Request::ObserveBatch { id, table, rows } => {
            if let Err(e) = quicksel_data::validate_batch(&rows) {
                return Response::Error {
                    id,
                    code: ErrorCode::InvalidFeedback,
                    message: e.to_string(),
                };
            }
            let table = TableId::from(table.as_str());
            let admitted = {
                let mut buckets = shared.buckets.lock().expect("bucket map poisoned");
                let bucket = buckets.entry(table.clone()).or_insert_with(|| {
                    TokenBucket::new(shared.config.ingest_rows_per_s, shared.config.ingest_burst)
                });
                bucket.try_take(rows.len() as u64)
            };
            if let Err(after_ms) = admitted {
                return Response::Retry {
                    id,
                    after_ms: after_ms.min(u64::from(u32::MAX)) as u32,
                    cause: RetryCause::IngestRate,
                };
            }
            match shared.backend.observe_batch(&table, &rows) {
                Ok(watermark) => {
                    Response::ObserveAck { id, accepted_rows: rows.len() as u32, watermark }
                }
                Err(e) => backend_error(id, e),
            }
        }
        Request::Stats { id } => {
            let mut stats = shared.backend.registry_stats();
            let c = &shared.control.counters;
            stats.connections_accepted = c.connections_accepted.load(SeqCst);
            stats.active_connections = c.active_connections.load(SeqCst);
            stats.requests_served = c.requests_served.load(SeqCst);
            stats.retries_sent = c.retries_sent.load(SeqCst);
            stats.errors_sent = c.errors_sent.load(SeqCst);
            stats.degraded_retries_sent = c.degraded_retries_sent.load(SeqCst);
            Response::StatsReply { id, stats }
        }
        Request::CheckpointNow { id } => match shared.backend.checkpoint_now() {
            Ok(durable_tables) => Response::CheckpointDone { id, durable_tables },
            Err(e) => backend_error(id, e),
        },
        Request::ListTables { id } => Response::Tables { id, tables: shared.backend.tables() },
        Request::FetchManifest { id } => match shared.backend.manifest() {
            Ok(entries) => Response::Manifest { id, entries },
            Err(e) => backend_error(id, e),
        },
        Request::FetchChunk { id, path, offset, max_len } => {
            match shared.backend.fetch_chunk(&path, offset, max_len) {
                Ok((total_len, data)) => Response::Chunk { id, total_len, data },
                Err(e) => backend_error(id, e),
            }
        }
    }
    .with_id(id)
}

fn backend_error(id: u64, e: BackendError) -> Response {
    let (code, message) = match e {
        BackendError::UnknownTable => (ErrorCode::UnknownTable, "table is not registered".into()),
        BackendError::BadRequest { context } => (ErrorCode::BadRequest, context.to_string()),
        BackendError::Degraded { retry_after_ms } => {
            // Not an error: the shard is intact, just read-only until
            // its re-arm probe succeeds — tell the client when to retry.
            return Response::Retry {
                id,
                after_ms: retry_after_ms.clamp(1, u64::from(u32::MAX)) as u32,
                cause: RetryCause::Degraded,
            };
        }
        BackendError::Unsupported { context } => (ErrorCode::Unsupported, context.to_string()),
        BackendError::ReadOnly => {
            (ErrorCode::ReadOnly, "replica serves reads only; write to the primary".into())
        }
        BackendError::Internal(message) => (ErrorCode::Internal, message),
    };
    Response::Error { id, code, message }
}

/// Id plumbing helper: every dispatch arm already sets the right id;
/// this is a debug-time assertion that no arm echoed a stale one.
trait WithId {
    fn with_id(self, id: u64) -> Self;
}

impl WithId for Response {
    fn with_id(self, id: u64) -> Self {
        debug_assert_eq!(self.id(), id, "response id must echo the request id");
        self
    }
}
