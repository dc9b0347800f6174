//! The QuickSel wire protocol: length-prefixed, CRC-framed binary
//! messages over any byte stream.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────────────────┐
//! │ len: u32   │ crc32: u32  │ body (len bytes)             │
//! │ LE         │ LE, of body │ kind: u8 + payload           │
//! └────────────┴─────────────┴──────────────────────────────┘
//! ```
//!
//! The CRC32 (the same polynomial as [`quicksel_persist::format`] — one
//! checksum routine for disk and wire) covers exactly the body, so a
//! flipped bit anywhere in a frame is caught before any payload byte is
//! interpreted. `len` is validated against a receiver-chosen cap before
//! any allocation, so a hostile length can neither over-allocate nor
//! hang a reader.
//!
//! Payload primitives are the persist crate's [`PutBytes`]/[`Reader`]
//! pair; rectangles and domains reuse
//! [`quicksel_persist::codec::encode_rect`] /
//! [`quicksel_persist::codec::encode_domain`] verbatim,
//! and feedback rows reuse
//! [`ObservedQuery::encode_into`](quicksel_data::ObservedQuery::encode_into)
//! — the WAL's record layout. Every `f64` travels as its IEEE-754 bit
//! pattern, so estimates fetched over the wire compare equal (`==`) to
//! in-process calls.
//!
//! Decoding never panics: every malformed input — truncation at any
//! byte, bad magic, version skew, checksum flips, unknown tags — returns
//! a typed [`WireError`], mirroring the persist crate's corruption
//! discipline.

use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_persist::codec::{decode_domain, decode_rect, encode_domain, encode_rect};
use quicksel_persist::format::{crc32, PutBytes, Reader};
use quicksel_persist::{ManifestEntry, ManifestKind, PersistError};
use std::io::{Read, Write};

/// Handshake magic: the first bytes of every `Hello` payload.
pub const NET_MAGIC: [u8; 4] = *b"QSNW";

/// Newest protocol version this build speaks. Version 2 adds the
/// replication surface: a server role byte in `HelloAck`,
/// `FetchManifest`/`FetchChunk` for checkpoint shipping, and
/// replication lag fields in `StatsReply`. Version 3 drops the two
/// background-ingest-queue counters (queue-full rejects and queue
/// depth) from `StatsReply`.
pub const PROTO_VERSION: u16 = 3;

/// Oldest protocol version this build still accepts. Message layouts do
/// not depend on the negotiated version, so this equals
/// [`PROTO_VERSION`]: an older peer is refused at the handshake with
/// [`WireError::VersionUnsupported`] rather than failing later on a
/// message it cannot decode.
pub const PROTO_VERSION_MIN: u16 = 3;

/// Default cap on a single frame's body length (32 MiB — far above any
/// sane batch, far below an allocation-bomb).
pub const DEFAULT_MAX_FRAME: u32 = 32 * 1024 * 1024;

/// Bytes of frame header (`len` + `crc32`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Why a wire operation failed. Every variant is *returned* — malformed
/// or hostile input must never panic or hang the peer.
#[derive(Debug)]
pub enum WireError {
    /// An underlying socket operation failed.
    Io(std::io::Error),
    /// The peer closed the connection mid-message.
    ConnectionClosed,
    /// A read deadline expired.
    Timeout {
        /// What was being waited for.
        context: &'static str,
    },
    /// A frame announced a body longer than the receiver's cap.
    FrameTooLarge {
        /// The announced body length.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// A frame's CRC32 did not match its body.
    ChecksumMismatch,
    /// The buffer ended before the structure it claimed to hold.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// The bytes parsed but describe an impossible message.
    Invalid {
        /// What was inconsistent.
        context: &'static str,
    },
    /// A frame body began with a message kind this build does not know.
    UnknownKind {
        /// The unrecognized kind byte.
        kind: u8,
    },
    /// A `Hello` did not start with [`NET_MAGIC`].
    BadMagic {
        /// What the payload actually started with.
        found: [u8; 4],
    },
    /// Version negotiation failed: the peers' version ranges are
    /// disjoint.
    VersionUnsupported {
        /// The peer's offered range.
        offered: (u16, u16),
        /// This side's supported range.
        supported: (u16, u16),
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::ConnectionClosed => write!(f, "connection closed by peer"),
            WireError::Timeout { context } => write!(f, "timed out waiting for {context}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Truncated { context } => write!(f, "truncated while reading {context}"),
            WireError::Invalid { context } => write!(f, "invalid message: {context}"),
            WireError::UnknownKind { kind } => write!(f, "unknown message kind {kind:#04x}"),
            WireError::BadMagic { found } => {
                write!(f, "bad handshake magic {:?}", String::from_utf8_lossy(found))
            }
            WireError::VersionUnsupported { offered, supported } => write!(
                f,
                "no common protocol version: peer offers {}..={}, this side speaks {}..={}",
                offered.0, offered.1, supported.0, supported.1
            ),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::ConnectionClosed,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                WireError::Timeout { context: "socket read" }
            }
            _ => WireError::Io(e),
        }
    }
}

impl From<PersistError> for WireError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => WireError::Io(e),
            PersistError::BadMagic { found, .. } => WireError::BadMagic { found },
            PersistError::UnsupportedVersion { .. } => WireError::VersionUnsupported {
                offered: (0, 0),
                supported: (PROTO_VERSION_MIN, PROTO_VERSION),
            },
            PersistError::CorruptChecksum { .. } => WireError::ChecksumMismatch,
            PersistError::Truncated { context } => WireError::Truncated { context },
            PersistError::Invalid { context } => WireError::Invalid { context },
            PersistError::MissingSection { .. } => {
                WireError::Invalid { context: "missing message section" }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes `body` as one frame (header + body) to `w` in a single
/// `write_all`. Callers write to unbuffered `TCP_NODELAY` sockets, where
/// a separate header write would cost its own syscall and TCP segment.
/// Does not flush.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Parses a frame header into `(body_len, crc32)`, validating the length
/// against `max_len` before the caller allocates anything.
pub fn parse_header(
    header: &[u8; FRAME_HEADER_LEN],
    max_len: u32,
) -> Result<(u32, u32), WireError> {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    Ok((len, crc))
}

/// Verifies a frame body against the header's CRC32.
pub fn check_body(expected_crc: u32, body: &[u8]) -> Result<(), WireError> {
    if crc32(body) != expected_crc {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(())
}

/// Reads one complete frame from `r`, returning its body. A clean EOF
/// *before the first header byte* returns [`WireError::ConnectionClosed`]
/// (the caller decides whether that is an error); EOF anywhere later is
/// a truncated frame.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let (len, crc) = parse_header(&header, max_len)?;
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => WireError::Truncated { context: "frame body" },
        _ => WireError::from(e),
    })?;
    check_body(crc, &body)?;
    Ok(body)
}

// ---------------------------------------------------------------------
// Message kinds
// ---------------------------------------------------------------------

const KIND_HELLO: u8 = 0x01;
const KIND_HELLO_ACK: u8 = 0x02;

const KIND_ESTIMATE_MANY: u8 = 0x10;
const KIND_OBSERVE_BATCH: u8 = 0x11;
const KIND_STATS: u8 = 0x12;
const KIND_CHECKPOINT_NOW: u8 = 0x13;
const KIND_LIST_TABLES: u8 = 0x14;
const KIND_FETCH_MANIFEST: u8 = 0x15;
const KIND_FETCH_CHUNK: u8 = 0x16;

const KIND_ESTIMATES: u8 = 0x20;
const KIND_OBSERVE_ACK: u8 = 0x21;
const KIND_STATS_REPLY: u8 = 0x22;
const KIND_CHECKPOINT_DONE: u8 = 0x23;
const KIND_TABLES: u8 = 0x24;
const KIND_MANIFEST: u8 = 0x25;
const KIND_CHUNK: u8 = 0x26;
const KIND_RETRY: u8 = 0x2E;
const KIND_ERROR: u8 = 0x2F;

/// Largest chunk a `FetchChunk` may request: well under any sane frame
/// cap, large enough that a checkpoint ships in a handful of frames.
pub const MAX_CHUNK_LEN: u32 = 1 << 20;

/// Why the server told the client to back off — each cause is a
/// different *rate* being protected, so clients can react differently
/// (shed estimates vs. buffer feedback vs. reconnect later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// The global estimate concurrency limit is saturated.
    EstimateConcurrency,
    /// The target table's feedback token bucket is empty.
    IngestRate,
    /// The accept queue was full; the connection was not admitted.
    AcceptQueue,
    /// A target shard is degraded (read-only): persist failures tripped
    /// its health machine, and ingest resumes only after a re-arm probe
    /// succeeds. Estimates still serve.
    Degraded,
}

impl RetryCause {
    fn to_u8(self) -> u8 {
        match self {
            RetryCause::EstimateConcurrency => 0,
            RetryCause::IngestRate => 1,
            RetryCause::AcceptQueue => 2,
            RetryCause::Degraded => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(RetryCause::EstimateConcurrency),
            1 => Ok(RetryCause::IngestRate),
            2 => Ok(RetryCause::AcceptQueue),
            3 => Ok(RetryCause::Degraded),
            _ => Err(WireError::Invalid { context: "unknown retry cause" }),
        }
    }
}

/// Typed server-side failure carried by an `Error` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request named a table the registry does not serve.
    UnknownTable,
    /// The feedback batch failed validation (non-finite or out-of-range
    /// selectivity); nothing was ingested.
    InvalidFeedback,
    /// The server understood the request but does not support it (e.g.
    /// `CheckpointNow` against a non-durable registry).
    Unsupported,
    /// The request was structurally valid but semantically impossible
    /// (e.g. rectangle dimensionality does not match the table's domain).
    BadRequest,
    /// An internal failure (persistence error during checkpoint, ...).
    Internal,
    /// The server is a read-only replica: writes (`ObserveBatch`,
    /// `CheckpointNow`) are refused here and belong on the primary.
    /// Unlike `Retry`, this is not transient — the client should route
    /// the write elsewhere, not back off and resend.
    ReadOnly,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnknownTable => 0,
            ErrorCode::InvalidFeedback => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::Internal => 4,
            ErrorCode::ReadOnly => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(ErrorCode::UnknownTable),
            1 => Ok(ErrorCode::InvalidFeedback),
            2 => Ok(ErrorCode::Unsupported),
            3 => Ok(ErrorCode::BadRequest),
            4 => Ok(ErrorCode::Internal),
            5 => Ok(ErrorCode::ReadOnly),
            _ => Err(WireError::Invalid { context: "unknown error code" }),
        }
    }
}

/// What a server *is*, advertised in `HelloAck` so clients can route
/// writes to primaries and bound read staleness on replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerRole {
    /// Accepts reads and writes; owns the durable state.
    #[default]
    Primary,
    /// Serves reads from shipped state; refuses writes with
    /// [`ErrorCode::ReadOnly`].
    Replica,
}

impl ServerRole {
    fn to_u8(self) -> u8 {
        match self {
            ServerRole::Primary => 0,
            ServerRole::Replica => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(ServerRole::Primary),
            1 => Ok(ServerRole::Replica),
            _ => Err(WireError::Invalid { context: "unknown server role" }),
        }
    }
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

/// Encodes a `Hello` body: magic + the sender's supported version range.
pub fn encode_hello(min: u16, max: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(KIND_HELLO);
    out.extend_from_slice(&NET_MAGIC);
    out.put_u16(min);
    out.put_u16(max);
    out
}

/// Decodes a `Hello` body into the peer's `(min, max)` version range.
pub fn decode_hello(body: &[u8]) -> Result<(u16, u16), WireError> {
    let mut r = Reader::new(body);
    let kind = r.bytes(1, "hello kind")?[0];
    if kind != KIND_HELLO {
        return Err(WireError::UnknownKind { kind });
    }
    let magic: [u8; 4] =
        r.bytes(4, "hello magic")?.try_into().expect("4 bytes were just bounds-checked");
    if magic != NET_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let min = r.u16("hello min version")?;
    let max = r.u16("hello max version")?;
    if min > max {
        return Err(WireError::Invalid { context: "hello version range is inverted" });
    }
    Ok((min, max))
}

/// Encodes a `HelloAck` body carrying the negotiated version and the
/// server's role.
pub fn encode_hello_ack(version: u16, role: ServerRole) -> Vec<u8> {
    let mut out = Vec::with_capacity(4);
    out.push(KIND_HELLO_ACK);
    out.put_u16(version);
    out.push(role.to_u8());
    out
}

/// Decodes a `HelloAck` body into the negotiated version and server
/// role.
pub fn decode_hello_ack(body: &[u8]) -> Result<(u16, ServerRole), WireError> {
    let mut r = Reader::new(body);
    let kind = r.bytes(1, "hello-ack kind")?[0];
    if kind != KIND_HELLO_ACK {
        return Err(WireError::UnknownKind { kind });
    }
    let version = r.u16("negotiated version")?;
    let role = ServerRole::from_u8(r.bytes(1, "server role")?[0])?;
    Ok((version, role))
}

/// Picks the protocol version two peers will speak: the highest version
/// both ranges contain, or a typed error when the ranges are disjoint.
pub fn negotiate(ours: (u16, u16), theirs: (u16, u16)) -> Result<u16, WireError> {
    let version = ours.1.min(theirs.1);
    if version < ours.0 || version < theirs.0 {
        return Err(WireError::VersionUnsupported { offered: theirs, supported: ours });
    }
    Ok(version)
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A client→server request. Every variant carries the client-chosen
/// `id`, echoed verbatim in the matching response so pipelined requests
/// can be correlated.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Batched selectivity estimates for `rects` against `table` — the
    /// same contract as `ShardedService::estimate_many`: one snapshot
    /// version per routing shard, answers in input order.
    EstimateMany {
        /// Correlation id, echoed in the response.
        id: u64,
        /// Target table name.
        table: String,
        /// Predicate rectangles, in answer order.
        rects: Vec<Rect>,
    },
    /// A feedback batch for `table` — fire-and-forget from the client's
    /// perspective; the ack carries the table's post-ingest watermark.
    ObserveBatch {
        /// Correlation id, echoed in the ack.
        id: u64,
        /// Target table name.
        table: String,
        /// Observed queries to ingest.
        rows: Vec<ObservedQuery>,
    },
    /// Registry + server counters.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Force a checkpoint on every durable shard of every table.
    CheckpointNow {
        /// Correlation id.
        id: u64,
    },
    /// The registered tables and their domains.
    ListTables {
        /// Correlation id.
        id: u64,
    },
    /// The primary's durable-file manifest — what a replica must mirror.
    FetchManifest {
        /// Correlation id.
        id: u64,
    },
    /// A byte range of one manifest file. `offset` past the current
    /// length returns an empty chunk; ranges are how a replica resumes
    /// the append-only WAL segment above its local watermark.
    FetchChunk {
        /// Correlation id.
        id: u64,
        /// Manifest-relative path (`/`-separated).
        path: String,
        /// Byte offset to read from.
        offset: u64,
        /// Bytes requested, at most [`MAX_CHUNK_LEN`].
        max_len: u32,
    },
}

impl Request {
    /// The request's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Request::EstimateMany { id, .. }
            | Request::ObserveBatch { id, .. }
            | Request::Stats { id }
            | Request::CheckpointNow { id }
            | Request::ListTables { id }
            | Request::FetchManifest { id }
            | Request::FetchChunk { id, .. } => *id,
        }
    }

    /// Encodes this request as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::EstimateMany { id, table, rects } => {
                out.push(KIND_ESTIMATE_MANY);
                out.put_u64(*id);
                out.put_str(table);
                out.put_u32(rects.len() as u32);
                for rect in rects {
                    encode_rect(&mut out, rect);
                }
            }
            Request::ObserveBatch { id, table, rows } => {
                out.push(KIND_OBSERVE_BATCH);
                out.put_u64(*id);
                out.put_str(table);
                out.put_u32(rows.len() as u32);
                for row in rows {
                    row.encode_into(&mut out);
                }
            }
            Request::Stats { id } => {
                out.push(KIND_STATS);
                out.put_u64(*id);
            }
            Request::CheckpointNow { id } => {
                out.push(KIND_CHECKPOINT_NOW);
                out.put_u64(*id);
            }
            Request::ListTables { id } => {
                out.push(KIND_LIST_TABLES);
                out.put_u64(*id);
            }
            Request::FetchManifest { id } => {
                out.push(KIND_FETCH_MANIFEST);
                out.put_u64(*id);
            }
            Request::FetchChunk { id, path, offset, max_len } => {
                out.push(KIND_FETCH_CHUNK);
                out.put_u64(*id);
                out.put_str(path);
                out.put_u64(*offset);
                out.put_u32(*max_len);
            }
        }
        out
    }

    /// Decodes a frame body into a request. Trailing garbage after a
    /// well-formed message is rejected — a length that disagrees with
    /// the payload is corruption, not padding.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let kind = r.bytes(1, "request kind")?[0];
        let id = r.u64("request id")?;
        let req = match kind {
            KIND_ESTIMATE_MANY => {
                let table = r.str("table name")?;
                let n = r.u32("rect count")? as usize;
                // Each rect costs at least its 4-byte dimension header.
                if n.saturating_mul(4) > r.remaining() {
                    return Err(WireError::Truncated { context: "rect list" });
                }
                let rects = (0..n).map(|_| decode_rect(&mut r)).collect::<Result<Vec<_>, _>>()?;
                Request::EstimateMany { id, table, rects }
            }
            KIND_OBSERVE_BATCH => {
                let table = r.str("table name")?;
                let n = r.u32("row count")? as usize;
                // Each row costs at least 4 (dim) + 8 (selectivity).
                if n.saturating_mul(12) > r.remaining() {
                    return Err(WireError::Truncated { context: "feedback rows" });
                }
                let rows = (0..n)
                    .map(|_| {
                        let rect = decode_rect(&mut r)?;
                        let selectivity = r.f64("row selectivity")?;
                        Ok::<_, WireError>(ObservedQuery { rect, selectivity })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Request::ObserveBatch { id, table, rows }
            }
            KIND_STATS => Request::Stats { id },
            KIND_CHECKPOINT_NOW => Request::CheckpointNow { id },
            KIND_LIST_TABLES => Request::ListTables { id },
            KIND_FETCH_MANIFEST => Request::FetchManifest { id },
            KIND_FETCH_CHUNK => {
                let path = r.str("chunk path")?;
                let offset = r.u64("chunk offset")?;
                let max_len = r.u32("chunk max len")?;
                if max_len > MAX_CHUNK_LEN {
                    return Err(WireError::Invalid { context: "chunk request exceeds cap" });
                }
                Request::FetchChunk { id, path, offset, max_len }
            }
            kind => return Err(WireError::UnknownKind { kind }),
        };
        if r.remaining() != 0 {
            return Err(WireError::Invalid { context: "trailing bytes after request" });
        }
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Stats payload
// ---------------------------------------------------------------------

/// The counter set a `Stats` request returns: the registry's aggregate
/// ingestion counters and rate gauges plus the server runtime's own
/// serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireStats {
    /// Registered tables.
    pub tables: u64,
    /// Total shards across all tables.
    pub shards: u64,
    /// Feedback batches ingested (all tables, all shards).
    pub batches_ingested: u64,
    /// Observed queries across those batches.
    pub queries_ingested: u64,
    /// Refines that produced a new model.
    pub refines: u64,
    /// Refines that failed (previous snapshot kept serving).
    pub refine_failures: u64,
    /// Batches rejected before ingestion (invalid feedback).
    pub rejected_batches: u64,
    /// Estimates requested for unregistered tables.
    pub missing_table_probes: u64,
    /// Feedback dropped because its table is unregistered.
    pub dropped_feedback: u64,
    /// Feedback rows ingested per second (trailing-window gauge).
    pub ingest_rows_per_s: f64,
    /// Predicate rectangles evaluated per second (trailing-window gauge).
    pub estimate_rects_per_s: f64,
    /// Connections the server has accepted over its lifetime.
    pub connections_accepted: u64,
    /// Connections currently being served.
    pub active_connections: u64,
    /// Requests answered (any response kind).
    pub requests_served: u64,
    /// `Retry` responses sent (admission-control pushback).
    pub retries_sent: u64,
    /// `Error` responses sent.
    pub errors_sent: u64,
    /// Shards currently degraded (read-only) across all tables (gauge).
    pub degraded_shards: u64,
    /// Healthy → Degraded transitions across all shards (lifetime).
    pub degraded_transitions: u64,
    /// Re-arm write probes attempted by degraded shards.
    pub health_probes: u64,
    /// Ingest batches refused because a target shard was degraded.
    pub degraded_refusals: u64,
    /// Lock poisonings recovered by services (panicking writer adopted).
    pub poisoned_locks: u64,
    /// `Retry { cause: Degraded }` responses this server sent.
    pub degraded_retries_sent: u64,
    /// This server's role: 0 = primary, 1 = read-only replica.
    pub role: u64,
    /// Rows (observed queries) covered by the replica's applied state;
    /// 0 on a primary.
    pub replica_applied_watermark: u64,
    /// Rows the replica is behind the primary's last observed watermark
    /// (watermark delta); 0 on a primary.
    pub replica_watermark_lag: u64,
    /// Milliseconds since the replica's last successful sync;
    /// `u64::MAX` before the first one. 0 on a primary.
    pub replica_last_sync_ms: u64,
    /// Writes refused with [`ErrorCode::ReadOnly`]; 0 on a primary.
    pub readonly_refusals: u64,
}

impl WireStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.tables,
            self.shards,
            self.batches_ingested,
            self.queries_ingested,
            self.refines,
            self.refine_failures,
            self.rejected_batches,
            self.missing_table_probes,
            self.dropped_feedback,
        ] {
            out.put_u64(v);
        }
        out.put_f64(self.ingest_rows_per_s);
        out.put_f64(self.estimate_rects_per_s);
        for v in [
            self.connections_accepted,
            self.active_connections,
            self.requests_served,
            self.retries_sent,
            self.errors_sent,
            self.degraded_shards,
            self.degraded_transitions,
            self.health_probes,
            self.degraded_refusals,
            self.poisoned_locks,
            self.degraded_retries_sent,
            self.role,
            self.replica_applied_watermark,
            self.replica_watermark_lag,
            self.replica_last_sync_ms,
            self.readonly_refusals,
        ] {
            out.put_u64(v);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireStats {
            tables: r.u64("stats tables")?,
            shards: r.u64("stats shards")?,
            batches_ingested: r.u64("stats batches")?,
            queries_ingested: r.u64("stats queries")?,
            refines: r.u64("stats refines")?,
            refine_failures: r.u64("stats refine failures")?,
            rejected_batches: r.u64("stats rejected batches")?,
            missing_table_probes: r.u64("stats missing probes")?,
            dropped_feedback: r.u64("stats dropped feedback")?,
            ingest_rows_per_s: r.f64("stats ingest rate")?,
            estimate_rects_per_s: r.f64("stats estimate rate")?,
            connections_accepted: r.u64("stats connections")?,
            active_connections: r.u64("stats active connections")?,
            requests_served: r.u64("stats requests served")?,
            retries_sent: r.u64("stats retries sent")?,
            errors_sent: r.u64("stats errors sent")?,
            degraded_shards: r.u64("stats degraded shards")?,
            degraded_transitions: r.u64("stats degraded transitions")?,
            health_probes: r.u64("stats health probes")?,
            degraded_refusals: r.u64("stats degraded refusals")?,
            poisoned_locks: r.u64("stats poisoned locks")?,
            degraded_retries_sent: r.u64("stats degraded retries")?,
            role: r.u64("stats role")?,
            replica_applied_watermark: r.u64("stats applied watermark")?,
            replica_watermark_lag: r.u64("stats watermark lag")?,
            replica_last_sync_ms: r.u64("stats last sync age")?,
            readonly_refusals: r.u64("stats readonly refusals")?,
        })
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A server→client response; `id` echoes the request it answers
/// (`Retry`/`Error` use id `0` when the request could not be decoded
/// far enough to learn one).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answers `EstimateMany`, in request rect order.
    Estimates {
        /// Echoed request id.
        id: u64,
        /// Selectivity estimates, bit-exact.
        values: Vec<f64>,
    },
    /// Answers `ObserveBatch`.
    ObserveAck {
        /// Echoed request id.
        id: u64,
        /// Rows accepted into the table's shards.
        accepted_rows: u32,
        /// The table's total ingested-query count after this batch — a
        /// monotone watermark a streaming client can use to confirm how
        /// far the server has caught up.
        watermark: u64,
    },
    /// Answers `Stats`.
    StatsReply {
        /// Echoed request id.
        id: u64,
        /// The counter set.
        stats: WireStats,
    },
    /// Answers `CheckpointNow`.
    CheckpointDone {
        /// Echoed request id.
        id: u64,
        /// Tables that had at least one durable shard to checkpoint.
        durable_tables: u32,
    },
    /// Answers `ListTables`.
    Tables {
        /// Echoed request id.
        id: u64,
        /// `(name, domain)` per registered table, sorted by name.
        tables: Vec<(String, Domain)>,
    },
    /// Answers `FetchManifest`.
    Manifest {
        /// Echoed request id.
        id: u64,
        /// The primary's durable files, path-sorted.
        entries: Vec<ManifestEntry>,
    },
    /// Answers `FetchChunk`.
    Chunk {
        /// Echoed request id.
        id: u64,
        /// The file's total length at read time — lets the fetcher know
        /// whether more chunks remain without a fresh manifest.
        total_len: u64,
        /// The bytes at the requested offset; shorter than `max_len` at
        /// end of file, empty when `offset ≥ total_len`.
        data: Vec<u8>,
    },
    /// Admission-control pushback: the request was not processed; try
    /// again after roughly `after_ms`.
    Retry {
        /// Echoed request id (0 when sent before a request was read).
        id: u64,
        /// Suggested backoff in milliseconds.
        after_ms: u32,
        /// Which rate limit pushed back.
        cause: RetryCause,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Echoed request id (0 when the request could not be decoded).
        id: u64,
        /// Typed failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Estimates { id, .. }
            | Response::ObserveAck { id, .. }
            | Response::StatsReply { id, .. }
            | Response::CheckpointDone { id, .. }
            | Response::Tables { id, .. }
            | Response::Manifest { id, .. }
            | Response::Chunk { id, .. }
            | Response::Retry { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Encodes this response as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Estimates { id, values } => {
                out.push(KIND_ESTIMATES);
                out.put_u64(*id);
                out.put_u32(values.len() as u32);
                for v in values {
                    out.put_f64(*v);
                }
            }
            Response::ObserveAck { id, accepted_rows, watermark } => {
                out.push(KIND_OBSERVE_ACK);
                out.put_u64(*id);
                out.put_u32(*accepted_rows);
                out.put_u64(*watermark);
            }
            Response::StatsReply { id, stats } => {
                out.push(KIND_STATS_REPLY);
                out.put_u64(*id);
                stats.encode_into(&mut out);
            }
            Response::CheckpointDone { id, durable_tables } => {
                out.push(KIND_CHECKPOINT_DONE);
                out.put_u64(*id);
                out.put_u32(*durable_tables);
            }
            Response::Tables { id, tables } => {
                out.push(KIND_TABLES);
                out.put_u64(*id);
                out.put_u32(tables.len() as u32);
                for (name, domain) in tables {
                    out.put_str(name);
                    encode_domain(&mut out, domain);
                }
            }
            Response::Manifest { id, entries } => {
                out.push(KIND_MANIFEST);
                out.put_u64(*id);
                out.put_u32(entries.len() as u32);
                for e in entries {
                    out.put_str(&e.path);
                    out.push(e.kind.as_u8());
                    out.put_u64(e.len);
                    out.put_u64(e.watermark);
                }
            }
            Response::Chunk { id, total_len, data } => {
                out.push(KIND_CHUNK);
                out.put_u64(*id);
                out.put_u64(*total_len);
                out.put_u32(data.len() as u32);
                out.extend_from_slice(data);
            }
            Response::Retry { id, after_ms, cause } => {
                out.push(KIND_RETRY);
                out.put_u64(*id);
                out.put_u32(*after_ms);
                out.push(cause.to_u8());
            }
            Response::Error { id, code, message } => {
                out.push(KIND_ERROR);
                out.put_u64(*id);
                out.push(code.to_u8());
                out.put_str(message);
            }
        }
        out
    }

    /// Decodes a frame body into a response; same strictness as
    /// [`Request::decode`].
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let kind = r.bytes(1, "response kind")?[0];
        let id = r.u64("response id")?;
        let resp = match kind {
            KIND_ESTIMATES => {
                let n = r.u32("estimate count")? as usize;
                // Each estimate is one 8-byte f64.
                if n.saturating_mul(8) > r.remaining() {
                    return Err(WireError::Truncated { context: "estimate list" });
                }
                let values =
                    (0..n).map(|_| r.f64("estimate value")).collect::<Result<Vec<_>, _>>()?;
                Response::Estimates { id, values }
            }
            KIND_OBSERVE_ACK => Response::ObserveAck {
                id,
                accepted_rows: r.u32("accepted rows")?,
                watermark: r.u64("ingest watermark")?,
            },
            KIND_STATS_REPLY => Response::StatsReply { id, stats: WireStats::decode_from(&mut r)? },
            KIND_CHECKPOINT_DONE => {
                Response::CheckpointDone { id, durable_tables: r.u32("durable tables")? }
            }
            KIND_TABLES => {
                let n = r.u32("table count")? as usize;
                // Each entry costs at least a 4-byte name length and a
                // 4-byte column count.
                if n.saturating_mul(8) > r.remaining() {
                    return Err(WireError::Truncated { context: "table list" });
                }
                let tables = (0..n)
                    .map(|_| {
                        let name = r.str("table name")?;
                        let domain = decode_domain(&mut r)?;
                        Ok::<_, WireError>((name, domain))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Response::Tables { id, tables }
            }
            KIND_MANIFEST => {
                let n = r.u32("manifest entry count")? as usize;
                // Each entry costs at least a 4-byte path length, the
                // kind byte, and two u64s.
                if n.saturating_mul(21) > r.remaining() {
                    return Err(WireError::Truncated { context: "manifest entries" });
                }
                let entries = (0..n)
                    .map(|_| {
                        let path = r.str("manifest path")?;
                        let kind = ManifestKind::from_u8(r.bytes(1, "manifest kind")?[0])
                            .ok_or(WireError::Invalid { context: "unknown manifest kind" })?;
                        let len = r.u64("manifest len")?;
                        let watermark = r.u64("manifest watermark")?;
                        Ok::<_, WireError>(ManifestEntry { path, kind, len, watermark })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Response::Manifest { id, entries }
            }
            KIND_CHUNK => {
                let total_len = r.u64("chunk total len")?;
                let n = r.u32("chunk data len")? as usize;
                let data = r.bytes(n, "chunk data")?.to_vec();
                Response::Chunk { id, total_len, data }
            }
            KIND_RETRY => {
                let after_ms = r.u32("retry backoff")?;
                let cause = RetryCause::from_u8(r.bytes(1, "retry cause")?[0])?;
                Response::Retry { id, after_ms, cause }
            }
            KIND_ERROR => {
                let code = ErrorCode::from_u8(r.bytes(1, "error code")?[0])?;
                let message = r.str("error message")?;
                Response::Error { id, code, message }
            }
            kind => return Err(WireError::UnknownKind { kind }),
        };
        if r.remaining() != 0 {
            return Err(WireError::Invalid { context: "trailing bytes after response" });
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_geometry::Interval;

    fn rect2(a: (f64, f64), b: (f64, f64)) -> Rect {
        Rect::new(vec![Interval::new(a.0, a.1), Interval::new(b.0, b.1)])
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(WireError::ConnectionClosed)
        ));
    }

    #[test]
    fn a_frame_goes_out_in_one_write() {
        /// Accepts every byte, counting `write` calls.
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let bodies: [&[u8]; 3] = [b"payload", b"", &[7u8; 4096]];
        let mut w = CountingWriter { writes: 0, bytes: Vec::new() };
        for (k, body) in bodies.iter().enumerate() {
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.writes, k + 1, "frame {k} took more than one write");
        }
        let mut cursor = &w.bytes[..];
        for body in bodies {
            assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), body);
        }
    }

    #[test]
    fn oversized_frames_reject_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        let err = read_frame(&mut &buf[..], 16).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { len: 64, max: 16 }));
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(read_frame(&mut &buf[..], 1024), Err(WireError::ChecksumMismatch)));
    }

    #[test]
    fn handshake_negotiates_the_highest_common_version() {
        let hello = encode_hello(1, 3);
        assert_eq!(decode_hello(&hello).unwrap(), (1, 3));
        assert_eq!(negotiate((1, 2), (1, 3)).unwrap(), 2);
        assert_eq!(negotiate((2, 5), (1, 3)).unwrap(), 3);
        assert!(matches!(negotiate((1, 2), (3, 4)), Err(WireError::VersionUnsupported { .. })));
        let ack = encode_hello_ack(2, ServerRole::Replica);
        assert_eq!(decode_hello_ack(&ack).unwrap(), (2, ServerRole::Replica));
    }

    #[test]
    fn hello_ack_with_unknown_role_byte_is_invalid() {
        // An unknown role byte is corruption, not a silent primary.
        let mut ack = Vec::new();
        ack.push(KIND_HELLO_ACK);
        ack.put_u16(PROTO_VERSION);
        ack.push(7);
        assert!(matches!(decode_hello_ack(&ack), Err(WireError::Invalid { .. })));
    }

    #[test]
    fn hello_with_wrong_magic_is_typed() {
        let mut hello = encode_hello(1, 1);
        hello[1] = b'X';
        assert!(matches!(decode_hello(&hello), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn requests_round_trip_exactly() {
        let requests = vec![
            Request::EstimateMany {
                id: 7,
                table: "orders".into(),
                rects: vec![rect2((0.0, 1.5), (-2.0, 3.0)), rect2((0.25, 0.75), (0.0, 0.0))],
            },
            Request::ObserveBatch {
                id: 8,
                table: "users".into(),
                rows: vec![ObservedQuery { rect: rect2((1.0, 2.0), (3.0, 4.0)), selectivity: 0.5 }],
            },
            Request::Stats { id: 9 },
            Request::CheckpointNow { id: 10 },
            Request::ListTables { id: 11 },
            Request::FetchManifest { id: 12 },
            Request::FetchChunk {
                id: 13,
                path: "tables/t-00/shard-000/wal-00000000000000000001.qsl".into(),
                offset: 4096,
                max_len: MAX_CHUNK_LEN,
            },
        ];
        for req in requests {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req);
            assert_eq!(Request::decode(&body).unwrap().id(), req.id());
        }
    }

    #[test]
    fn responses_round_trip_exactly() {
        let domain = Domain::of_reals(&[("x", 0.0, 10.0), ("y", -1.0, 1.0)]);
        let responses = vec![
            Response::Estimates { id: 1, values: vec![0.25, 1.0, f64::MIN_POSITIVE] },
            Response::ObserveAck { id: 2, accepted_rows: 64, watermark: 1024 },
            Response::StatsReply {
                id: 3,
                stats: WireStats {
                    tables: 2,
                    queries_ingested: 99,
                    ingest_rows_per_s: 1234.5,
                    ..WireStats::default()
                },
            },
            Response::CheckpointDone { id: 4, durable_tables: 2 },
            Response::Tables { id: 5, tables: vec![("orders".into(), domain)] },
            Response::Manifest {
                id: 8,
                entries: vec![
                    ManifestEntry {
                        path: "tables/t/meta.qsm".into(),
                        kind: ManifestKind::TableMeta,
                        len: 64,
                        watermark: 0,
                    },
                    ManifestEntry {
                        path: "tables/t/shard-000/checkpoint-00000000000000000001.qsc".into(),
                        kind: ManifestKind::Checkpoint,
                        len: 4096,
                        watermark: 17,
                    },
                ],
            },
            Response::Chunk { id: 9, total_len: 4096, data: vec![0xAB; 100] },
            Response::Chunk { id: 10, total_len: 0, data: Vec::new() },
            Response::Retry { id: 6, after_ms: 50, cause: RetryCause::IngestRate },
            Response::Error {
                id: 7,
                code: ErrorCode::UnknownTable,
                message: "no such table".into(),
            },
            Response::Error {
                id: 11,
                code: ErrorCode::ReadOnly,
                message: "replica refuses writes".into(),
            },
        ];
        for resp in responses {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn chunk_request_above_the_cap_is_rejected() {
        let req = Request::FetchChunk {
            id: 1,
            path: "tables/t/meta.qsm".into(),
            offset: 0,
            max_len: MAX_CHUNK_LEN + 1,
        };
        assert!(matches!(Request::decode(&req.encode()), Err(WireError::Invalid { .. })));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = Request::Stats { id: 1 }.encode();
        body.push(0xAA);
        assert!(matches!(Request::decode(&body), Err(WireError::Invalid { .. })));
        let mut body = Response::CheckpointDone { id: 1, durable_tables: 0 }.encode();
        body.push(0xAA);
        assert!(matches!(Response::decode(&body), Err(WireError::Invalid { .. })));
    }
}
