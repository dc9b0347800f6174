//! The replication agent: a pull loop that mirrors a primary's durable
//! files (checkpoints, WAL segments, table meta) into a local root and
//! rebuilds a serving registry from them through the ordinary recovery
//! path.
//!
//! Shipping is **file-level and resumable** because the persist layer's
//! tmp+rename discipline makes every named file either immutable
//! (checkpoints, meta) or append-only (WAL segments): checkpoints and
//! meta are fetched whole exactly once, WAL segments are fetched as the
//! byte range above the local length. Every local write goes through
//! the same [`FaultPlan`] IO seam as the primary's persist layer, so
//! the torture harness can crash the agent at any operation index and
//! assert the mirror stays recoverable.

use crate::backend::ReplicaBackend;
use quicksel_data::SnapshotSource;
use quicksel_fault::{jitter_ms, FaultPlan, IoFault, IoOp};
use quicksel_geometry::Domain;
use quicksel_net::proto::{
    self, ErrorCode, Request, Response, WireError, WireStats, DEFAULT_MAX_FRAME, PROTO_VERSION,
    PROTO_VERSION_MIN,
};
use quicksel_persist::{
    resolve_manifest_path, scan_manifest, DurabilityOptions, ManifestEntry, ManifestKind,
    PersistError, PersistLearner,
};
use quicksel_service::{EstimatorRegistry, TableId};
use std::fs::{self, OpenOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional byte stream the agent can speak the wire protocol
/// over: TCP in production, a
/// [`FaultStream`](quicksel_fault::FaultStream) wrapper in torture
/// tests.
pub trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// The connection factory seam: maps an endpoint string to a fresh
/// connection. Tests substitute dialers that cut, chunk, or corrupt the
/// stream at chosen byte offsets.
pub type Dialer = Box<dyn FnMut(&str) -> std::io::Result<Box<dyn Conn>> + Send>;

/// Why a sync attempt failed. Every variant is retryable — the agent's
/// loop backs off and tries again; nothing here poisons local state.
#[derive(Debug)]
pub enum ReplicaError {
    /// Connecting, reading, or writing the transport failed (includes
    /// injected stream faults).
    Io(std::io::Error),
    /// A frame failed to decode or verify.
    Wire(WireError),
    /// Applying or recovering local state failed.
    Persist(PersistError),
    /// The primary refused a request outright.
    Server {
        /// Typed failure class.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The primary pushed back with admission control.
    Retry {
        /// Suggested backoff in milliseconds.
        after_ms: u32,
    },
    /// The conversation or the shipped bytes were inconsistent.
    Protocol {
        /// What was inconsistent.
        context: &'static str,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Io(e) => write!(f, "replication transport failure: {e}"),
            ReplicaError::Wire(e) => write!(f, "replication framing failure: {e}"),
            ReplicaError::Persist(e) => write!(f, "replica state failure: {e}"),
            ReplicaError::Server { code, message } => {
                write!(f, "primary refused replication request ({code:?}): {message}")
            }
            ReplicaError::Retry { after_ms } => {
                write!(f, "primary pushback: retry after {after_ms}ms")
            }
            ReplicaError::Protocol { context } => {
                write!(f, "replication protocol violation: {context}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Io(e) => Some(e),
            ReplicaError::Wire(e) => Some(e),
            ReplicaError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplicaError {
    fn from(e: std::io::Error) -> Self {
        ReplicaError::Io(e)
    }
}

impl From<WireError> for ReplicaError {
    fn from(e: WireError) -> Self {
        ReplicaError::Wire(e)
    }
}

impl From<PersistError> for ReplicaError {
    fn from(e: PersistError) -> Self {
        ReplicaError::Persist(e)
    }
}

/// How the agent pulls: where from, where to, and how hard it retries.
#[derive(Clone)]
pub struct ReplicaOptions {
    /// The primary's (or an upstream replica's) endpoint.
    pub primary: String,
    /// The local mirror root — same layout as the primary's `--dir`.
    pub root: PathBuf,
    /// Bytes requested per chunk fetch (capped by the protocol's
    /// [`MAX_CHUNK_LEN`](quicksel_net::MAX_CHUNK_LEN)).
    pub chunk_len: u32,
    /// Pause between successful syncs.
    pub sync_interval: Duration,
    /// Base backoff after a failed sync (grows with jitter per attempt).
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Connect/read/write timeout for the default TCP dialer.
    pub timeout: Duration,
    /// Fault seam for the agent's local mirror writes (torture harness
    /// hook); `disabled()` in production.
    pub fault: FaultPlan,
    /// Recovery options used when rebuilding the serving registry from
    /// the mirror (carries its own read-side fault seam).
    pub recover: DurabilityOptions,
}

impl ReplicaOptions {
    /// Production defaults for pulling `primary` into `root`.
    pub fn new(primary: impl Into<String>, root: impl Into<PathBuf>) -> Self {
        ReplicaOptions {
            primary: primary.into(),
            root: root.into(),
            chunk_len: 256 * 1024,
            sync_interval: Duration::from_millis(500),
            backoff: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            timeout: Duration::from_secs(10),
            fault: FaultPlan::disabled(),
            recover: DurabilityOptions::default(),
        }
    }
}

/// What one completed sync did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Manifest entries the primary advertised.
    pub entries: usize,
    /// Files fetched whole (new checkpoints, new meta).
    pub files_fetched: usize,
    /// WAL segments extended by a range fetch.
    pub segments_extended: usize,
    /// Bytes pulled over the wire.
    pub bytes_fetched: u64,
    /// Local files removed because the primary no longer lists them
    /// (garbage-collected checkpoints and WAL segments).
    pub pruned: usize,
    /// Rows covered by the replica's applied state after the rebuild.
    pub applied_watermark: u64,
    /// Rows the primary reported beyond the applied state.
    pub watermark_lag: u64,
}

/// One wire conversation with the upstream: handshake on construction,
/// correlated request/response round-trips after.
struct Session {
    conn: Box<dyn Conn>,
    next_id: u64,
}

impl Session {
    fn open(conn: Box<dyn Conn>) -> Result<Self, ReplicaError> {
        let mut session = Session { conn, next_id: 1 };
        proto::write_frame(
            &mut session.conn,
            &proto::encode_hello(PROTO_VERSION_MIN, PROTO_VERSION),
        )?;
        session.conn.flush()?;
        let ack = proto::read_frame(&mut session.conn, DEFAULT_MAX_FRAME)?;
        // The upstream's role does not matter: a replica can chain off
        // another replica's re-exported manifest.
        proto::decode_hello_ack(&ack)?;
        Ok(session)
    }

    fn request(&mut self, request: &Request) -> Result<Response, ReplicaError> {
        proto::write_frame(&mut self.conn, &request.encode())?;
        self.conn.flush()?;
        let body = proto::read_frame(&mut self.conn, DEFAULT_MAX_FRAME)?;
        match Response::decode(&body)? {
            Response::Retry { after_ms, .. } => Err(ReplicaError::Retry { after_ms }),
            Response::Error { code, message, .. } => Err(ReplicaError::Server { code, message }),
            other => {
                if other.id() != request.id() {
                    return Err(ReplicaError::Protocol {
                        context: "response id does not match request",
                    });
                }
                Ok(other)
            }
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn manifest(&mut self) -> Result<Vec<ManifestEntry>, ReplicaError> {
        let id = self.fresh_id();
        match self.request(&Request::FetchManifest { id })? {
            Response::Manifest { entries, .. } => Ok(entries),
            _ => Err(ReplicaError::Protocol { context: "expected Manifest response" }),
        }
    }

    fn chunk(
        &mut self,
        path: &str,
        offset: u64,
        max_len: u32,
    ) -> Result<(u64, Vec<u8>), ReplicaError> {
        let id = self.fresh_id();
        let request = Request::FetchChunk { id, path: path.to_string(), offset, max_len };
        match self.request(&request)? {
            Response::Chunk { total_len, data, .. } => {
                if data.len() as u64 > u64::from(max_len) {
                    return Err(ReplicaError::Protocol { context: "chunk larger than requested" });
                }
                Ok((total_len, data))
            }
            _ => Err(ReplicaError::Protocol { context: "expected Chunk response" }),
        }
    }

    fn stats(&mut self) -> Result<WireStats, ReplicaError> {
        let id = self.fresh_id();
        match self.request(&Request::Stats { id })? {
            Response::StatsReply { stats, .. } => Ok(stats),
            _ => Err(ReplicaError::Protocol { context: "expected StatsReply response" }),
        }
    }

    /// Fetches exactly `[offset, offset + want)` of `path` in
    /// `chunk_len`-sized round-trips. `want` comes off the wire, so at
    /// most one chunk is reserved up front and the buffer grows only as
    /// bytes actually arrive.
    fn range(
        &mut self,
        path: &str,
        offset: u64,
        want: u64,
        chunk_len: u32,
    ) -> Result<Vec<u8>, ReplicaError> {
        let mut bytes = Vec::with_capacity(want.min(u64::from(chunk_len)) as usize);
        while (bytes.len() as u64) < want {
            let at = offset + bytes.len() as u64;
            let ask = (want - bytes.len() as u64).min(u64::from(chunk_len)) as u32;
            let (_, data) = self.chunk(path, at, ask)?;
            if data.is_empty() {
                // The primary's file is shorter than its manifest said:
                // it was replaced mid-sync. Retry with a fresh manifest.
                return Err(ReplicaError::Protocol {
                    context: "file shorter than the manifest advertised",
                });
            }
            bytes.extend_from_slice(&data);
        }
        bytes.truncate(usize::try_from(want).unwrap_or(usize::MAX));
        Ok(bytes)
    }
}

/// The pull agent: owns the dialer, the mirror root, and the backend it
/// installs recovered registries into.
pub struct ReplicaAgent<L: SnapshotSource, F> {
    options: ReplicaOptions,
    dialer: Dialer,
    backend: Arc<ReplicaBackend<L>>,
    make_learner: F,
}

impl<L, F> ReplicaAgent<L, F>
where
    L: SnapshotSource + PersistLearner + Send + 'static,
    F: FnMut(&TableId, &Domain, usize) -> L,
{
    /// An agent that dials the primary over TCP with the options'
    /// timeout. `make_learner` builds the blank learner recovery
    /// deserializes into, exactly as
    /// [`EstimatorRegistry::recover_from`] takes it.
    pub fn new(options: ReplicaOptions, backend: Arc<ReplicaBackend<L>>, make_learner: F) -> Self {
        let timeout = options.timeout;
        let dialer: Dialer = Box::new(move |addr: &str| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            Ok(Box::new(stream) as Box<dyn Conn>)
        });
        Self::with_dialer(options, backend, make_learner, dialer)
    }

    /// An agent over an arbitrary connection factory — the torture
    /// harness's entry point for cut/chunked/corrupted streams.
    pub fn with_dialer(
        options: ReplicaOptions,
        backend: Arc<ReplicaBackend<L>>,
        make_learner: F,
        dialer: Dialer,
    ) -> Self {
        ReplicaAgent { options, dialer, backend, make_learner }
    }

    /// The backend this agent feeds.
    pub fn backend(&self) -> Arc<ReplicaBackend<L>> {
        Arc::clone(&self.backend)
    }

    /// One full pull: manifest → fetch new/extended files → prune
    /// vanished ones → rebuild the registry through recovery → swap it
    /// into the backend and update the lag gauges.
    ///
    /// Failures leave the mirror in a state the next call repairs:
    /// whole files land under tmp+rename (a torn `.tmp` is invisible to
    /// recovery), WAL ranges append remote bytes in order (a torn
    /// append leaves a shorter true prefix, and the next range fetch
    /// resumes above it).
    pub fn sync_once(&mut self) -> Result<SyncReport, ReplicaError> {
        let conn = (self.dialer)(&self.options.primary)?;
        let mut session = Session::open(conn)?;
        let entries = session.manifest()?;
        let mut report = SyncReport { entries: entries.len(), ..SyncReport::default() };

        fs::create_dir_all(&self.options.root)?;
        for entry in &entries {
            let local = resolve_manifest_path(&self.options.root, &entry.path)?;
            match entry.kind {
                ManifestKind::WalSegment => {
                    self.apply_segment(&mut session, entry, &local, &mut report)?
                }
                ManifestKind::Checkpoint | ManifestKind::TableMeta => {
                    self.apply_whole(&mut session, entry, &local, &mut report)?
                }
            }
        }

        // Prune manifest-kind files the primary no longer lists (its
        // checkpoint GC ran). Foreign files are invisible to
        // `scan_manifest` on both ends, so nothing else is touched.
        let keep: std::collections::HashSet<&str> =
            entries.iter().map(|e| e.path.as_str()).collect();
        for stale in scan_manifest(&self.options.root)? {
            if !keep.contains(stale.path.as_str()) {
                fs::remove_file(resolve_manifest_path(&self.options.root, &stale.path)?)?;
                report.pruned += 1;
            }
        }

        // Rebuild through the ordinary recovery path: the replica's
        // serving state is *defined* as "what recovery of the shipped
        // files produces", which is bit-exact with the primary's own
        // post-crash recovery of the same bytes.
        let (registry, _) = EstimatorRegistry::recover_from(
            &self.options.root,
            self.options.recover.clone(),
            |id, domain, shard| (self.make_learner)(id, domain, shard),
        )?;
        report.applied_watermark = registry.stats().total.queries_ingested;

        // Lag is measured against the primary *after* the fetch, so the
        // delta can only over-count rows that arrived mid-sync — the
        // gauge never claims the replica is ahead.
        let primary = session.stats()?;
        report.watermark_lag = primary.queries_ingested.saturating_sub(report.applied_watermark);

        self.backend.install(Arc::new(registry));
        self.backend.gauges().record_sync(report.applied_watermark, report.watermark_lag);
        Ok(report)
    }

    /// Runs sync rounds until `stop` is set: `sync_interval` between
    /// successes, jittered exponential backoff (capped at
    /// `backoff_max`) after failures. Returns the number of successful
    /// syncs.
    pub fn run(&mut self, stop: &AtomicBool) -> u64 {
        let mut synced = 0;
        let mut failed_attempts: u32 = 0;
        let seed = fnv64(self.options.primary.as_bytes()).max(1);
        while !stop.load(Ordering::SeqCst) {
            let wait = match self.sync_once() {
                Ok(_) => {
                    synced += 1;
                    failed_attempts = 0;
                    self.options.sync_interval
                }
                Err(ReplicaError::Retry { after_ms }) => {
                    failed_attempts = failed_attempts.saturating_add(1);
                    Duration::from_millis(u64::from(after_ms).max(1)).min(self.options.backoff_max)
                }
                Err(_) => {
                    failed_attempts = failed_attempts.saturating_add(1);
                    let base = self.options.backoff.as_millis() as u64;
                    Duration::from_millis(jitter_ms(seed, failed_attempts, base.max(1)))
                        .min(self.options.backoff_max)
                }
            };
            // Sleep in slices so `stop` is honored promptly.
            let mut left = wait;
            while !left.is_zero() && !stop.load(Ordering::SeqCst) {
                let slice = left.min(Duration::from_millis(20));
                std::thread::sleep(slice);
                left = left.saturating_sub(slice);
            }
        }
        synced
    }

    /// Mirrors an immutable file (checkpoint or meta): skip when the
    /// local copy already has the manifest's length, otherwise fetch
    /// whole and land it with the same tmp+rename discipline the
    /// primary used — through the fault seam.
    fn apply_whole(
        &mut self,
        session: &mut Session,
        entry: &ManifestEntry,
        local: &Path,
        report: &mut SyncReport,
    ) -> Result<(), ReplicaError> {
        if fs::metadata(local).map(|m| m.len()).ok() == Some(entry.len) {
            return Ok(());
        }
        let bytes = session.range(&entry.path, 0, entry.len, self.options.chunk_len)?;
        report.bytes_fetched += bytes.len() as u64;
        if let Some(parent) = local.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = local.with_extension("tmp");
        faulted_write(&self.options.fault, &tmp, &bytes)?;
        faulted_rename(&self.options.fault, &tmp, local)?;
        report.files_fetched += 1;
        Ok(())
    }

    /// Extends an append-only WAL segment: fetch the byte range above
    /// the local length and append it through the fault seam. A torn
    /// append leaves a shorter *true* prefix of the remote bytes, so
    /// the next sync resumes exactly where the tear happened.
    fn apply_segment(
        &mut self,
        session: &mut Session,
        entry: &ManifestEntry,
        local: &Path,
        report: &mut SyncReport,
    ) -> Result<(), ReplicaError> {
        let local_len = fs::metadata(local).map(|m| m.len()).unwrap_or(0);
        if local_len > entry.len {
            // Segments only grow; a longer local copy means the upstream
            // changed identity (or a test scribbled). Refetch from zero.
            fs::remove_file(local)?;
            return self.apply_segment(session, entry, local, report);
        }
        if local_len == entry.len {
            return Ok(());
        }
        let bytes =
            session.range(&entry.path, local_len, entry.len - local_len, self.options.chunk_len)?;
        report.bytes_fetched += bytes.len() as u64;
        if let Some(parent) = local.parent() {
            fs::create_dir_all(parent)?;
        }
        faulted_append(&self.options.fault, local, local_len, &bytes)?;
        report.segments_extended += 1;
        Ok(())
    }
}

/// Writes `bytes` to `path` (a fresh tmp file) through the fault seam,
/// honoring each [`IoFault`] contract: `Short`/`FlushError` roll the
/// tmp file back (remove it), `Torn` leaves the partial tmp on disk —
/// invisible to recovery and overwritten by the next attempt.
fn faulted_write(fault: &FaultPlan, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    match fault.io(IoOp::CheckpointWrite, bytes.len()) {
        None => fs::write(path, bytes),
        Some(IoFault::Error) => Err(FaultPlan::io_error(IoOp::CheckpointWrite)),
        Some(IoFault::Short { keep }) => {
            fs::write(path, &bytes[..keep.min(bytes.len())])?;
            let _ = fs::remove_file(path); // rollback: tmp never existed
            Err(FaultPlan::io_error(IoOp::CheckpointWrite))
        }
        Some(IoFault::FlushError) => {
            fs::write(path, bytes)?;
            let _ = fs::remove_file(path); // may not be durable: discard
            Err(FaultPlan::io_error(IoOp::CheckpointWrite))
        }
        Some(IoFault::Torn { keep }) => {
            fs::write(path, &bytes[..keep.min(bytes.len())])?;
            Err(FaultPlan::io_error(IoOp::CheckpointWrite))
        }
        // Corruption is a read-side fault; a plan never derives it for
        // writes, but the seam must stay total.
        Some(IoFault::Corrupt { .. }) => Err(FaultPlan::io_error(IoOp::CheckpointWrite)),
    }
}

/// Renames through the fault seam: rename is atomic, so an injected
/// fault fails *before* the rename and the tmp file stays for the next
/// attempt.
fn faulted_rename(fault: &FaultPlan, from: &Path, to: &Path) -> std::io::Result<()> {
    if fault.io(IoOp::CheckpointRename, 0).is_some() {
        return Err(FaultPlan::io_error(IoOp::CheckpointRename));
    }
    fs::rename(from, to)
}

/// Appends `bytes` at `base_len` through the fault seam. `Short` and
/// `FlushError` truncate back to `base_len` (clean rollback); `Torn`
/// leaves a partial append — still a true prefix of the remote segment.
fn faulted_append(
    fault: &FaultPlan,
    path: &Path,
    base_len: u64,
    bytes: &[u8],
) -> std::io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    match fault.io(IoOp::WalAppend, bytes.len()) {
        None => {
            file.write_all(bytes)?;
            file.flush()
        }
        Some(IoFault::Error) => Err(FaultPlan::io_error(IoOp::WalAppend)),
        Some(IoFault::Short { keep }) => {
            file.write_all(&bytes[..keep.min(bytes.len())])?;
            drop(file);
            rollback_len(path, base_len)?;
            Err(FaultPlan::io_error(IoOp::WalAppend))
        }
        Some(IoFault::Torn { keep }) => {
            file.write_all(&bytes[..keep.min(bytes.len())])?;
            Err(FaultPlan::io_error(IoOp::WalAppend))
        }
        Some(IoFault::FlushError) => {
            file.write_all(bytes)?;
            drop(file);
            rollback_len(path, base_len)?;
            Err(FaultPlan::io_error(IoOp::WalAppend))
        }
        Some(IoFault::Corrupt { .. }) => Err(FaultPlan::io_error(IoOp::WalAppend)),
    }
}

fn rollback_len(path: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)
}

/// FNV-1a, used only to derive a stable per-endpoint jitter seed.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
