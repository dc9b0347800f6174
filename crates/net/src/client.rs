//! The client side of the wire protocol: a blocking connection handle,
//! a pipelined feedback streamer, and a
//! [`CardinalityProvider`] adapter so a
//! planner can swap a remote registry in for a local one without
//! touching call sites.

use crate::limiter::MAX_RETRY_AFTER_MS;
use crate::proto::{
    self, ErrorCode, Request, Response, RetryCause, ServerRole, WireError, WireStats,
    DEFAULT_MAX_FRAME, PROTO_VERSION, PROTO_VERSION_MIN,
};
use quicksel_data::{ObservedQuery, Table};
use quicksel_fault::jitter_ms;
use quicksel_geometry::{Domain, Predicate, Rect};
use quicksel_persist::ManifestEntry;
use quicksel_service::{CardinalityProvider, TableId};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// Why a client call failed. `Retry` and `Server` are the server
/// *telling* the client something; `Wire` and `Protocol` mean the
/// conversation itself broke.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// Admission-control pushback: retry after roughly `after_ms`.
    Retry {
        /// Suggested backoff in milliseconds.
        after_ms: u32,
        /// Which rate limit pushed back.
        cause: RetryCause,
    },
    /// The server processed the request and refused it.
    Server {
        /// Typed failure class.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with something that makes no sense here
    /// (wrong response kind, mismatched correlation id).
    Protocol {
        /// What was inconsistent.
        context: &'static str,
    },
    /// Every configured endpoint was tried and none could serve: the
    /// primary is down and no replica is within the caller's staleness
    /// bound. Carries the last per-endpoint failure.
    NoEndpoint {
        /// Why the final endpoint was rejected.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
            ClientError::Retry { after_ms, cause } => {
                write!(f, "server pushback ({cause:?}): retry after {after_ms}ms")
            }
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Protocol { context } => write!(f, "protocol violation: {context}"),
            ClientError::NoEndpoint { last } => {
                write!(f, "no endpoint could serve (last failure: {last})")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::from(e))
    }
}

/// The outcome of one acknowledged feedback batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOutcome {
    /// Rows the server accepted from this batch.
    pub accepted_rows: u32,
    /// The table's total ingested-row watermark after the batch.
    pub watermark: u64,
}

/// The outcome of a pipelined [`NetClient::observe_stream`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamOutcome {
    /// Rows accepted across every batch.
    pub accepted_rows: u64,
    /// The highest watermark any ack reported.
    pub watermark: u64,
    /// Batches that were `Retry`-refused at least once before landing.
    pub retried_batches: u64,
}

/// A blocking connection to a `quicksel-server`: performs the version
/// handshake on connect, then issues correlated request/response
/// round-trips. One request is in flight at a time except for
/// [`observe_stream`](Self::observe_stream), which pipelines.
pub struct NetClient {
    stream: TcpStream,
    version: u16,
    role: ServerRole,
    next_id: u64,
    max_frame_len: u32,
    /// Rounds a `Retry`-refused request is re-attempted before the last
    /// server-advertised pushback is surfaced to the caller.
    retry_rounds: u32,
    /// Seed for deterministic retry-backoff jitter (per-connection, so
    /// concurrent clients don't retry in lockstep).
    jitter_seed: u64,
}

impl NetClient {
    /// Connects with a 10-second I/O timeout and the default frame cap.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, Duration::from_secs(10), DEFAULT_MAX_FRAME)
    }

    /// Connects, applies `timeout` to every read and write, and runs the
    /// version handshake. A `Retry` or `Error` frame in place of the
    /// `HelloAck` (an overloaded or incompatible server) surfaces as the
    /// corresponding typed error.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Duration,
        max_frame_len: u32,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let jitter_seed = stream.local_addr().map_or(1, |a| u64::from(a.port()).max(1));
        let mut client = NetClient {
            stream,
            version: 0,
            role: ServerRole::Primary,
            next_id: 1,
            max_frame_len,
            retry_rounds: 4,
            jitter_seed,
        };
        proto::write_frame(
            &mut client.stream,
            &proto::encode_hello(PROTO_VERSION_MIN, PROTO_VERSION),
        )?;
        client.stream.flush()?;
        let ack = proto::read_frame(&mut client.stream, max_frame_len)?;
        (client.version, client.role) = match proto::decode_hello_ack(&ack) {
            Ok(negotiated) => negotiated,
            // Not an ack: the server may have refused the connection
            // with a typed frame — surface that instead of "bad ack".
            Err(ack_err) => match Response::decode(&ack) {
                Ok(Response::Retry { after_ms, cause, .. }) => {
                    return Err(ClientError::Retry { after_ms, cause })
                }
                Ok(Response::Error { code, message, .. }) => {
                    return Err(ClientError::Server { code, message })
                }
                _ => return Err(ack_err.into()),
            },
        };
        Ok(client)
    }

    /// The protocol version negotiated at connect time.
    pub fn negotiated_version(&self) -> u16 {
        self.version
    }

    /// The role the server advertised at connect time: writes belong on
    /// a [`ServerRole::Primary`]; a [`ServerRole::Replica`] serves reads
    /// from shipped state and refuses writes.
    pub fn server_role(&self) -> ServerRole {
        self.role
    }

    /// Caps how many rounds `Retry`-refused requests are re-attempted
    /// (estimates and streamed feedback alike); `1` disables retries.
    /// On exhaustion the *last server-advertised* backoff and cause are
    /// returned, never a fabricated one.
    pub fn set_retry_rounds(&mut self, rounds: u32) {
        self.retry_rounds = rounds.max(1);
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// One correlated round-trip. `Retry`/`Error` responses become typed
    /// client errors; anything with the wrong id is a protocol violation.
    fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        proto::write_frame(&mut self.stream, &request.encode())?;
        self.stream.flush()?;
        let body = proto::read_frame(&mut self.stream, self.max_frame_len)?;
        let response = Response::decode(&body)?;
        // Admission pushback and decode-failure errors legitimately
        // carry id 0; anything else must echo ours.
        match &response {
            Response::Retry { .. } | Response::Error { .. } => {}
            r if r.id() != request.id() => {
                return Err(ClientError::Protocol { context: "response id does not match request" })
            }
            _ => {}
        }
        match response {
            Response::Retry { after_ms, cause, .. } => Err(ClientError::Retry { after_ms, cause }),
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Batched selectivity estimates; answers come back bit-exact (every
    /// `f64` travels as its IEEE-754 pattern), so the result compares
    /// `==` with the equivalent in-process call.
    ///
    /// Admission pushback (`Retry` responses — concurrency limits or a
    /// degraded backend) is retried up to [`set_retry_rounds`] rounds,
    /// honoring the server's `after_ms` hint plus deterministic jitter.
    /// On exhaustion the last server-advertised pushback is returned
    /// verbatim so callers see the real backoff and cause.
    ///
    /// [`set_retry_rounds`]: NetClient::set_retry_rounds
    pub fn estimate_many(&mut self, table: &str, rects: &[Rect]) -> Result<Vec<f64>, ClientError> {
        let rounds = self.retry_rounds.max(1);
        for attempt in 1..=rounds {
            let id = self.fresh_id();
            let request =
                Request::EstimateMany { id, table: table.to_string(), rects: rects.to_vec() };
            match self.request(&request) {
                Ok(Response::Estimates { values, .. }) => {
                    if values.len() != rects.len() {
                        return Err(ClientError::Protocol { context: "estimate count mismatch" });
                    }
                    return Ok(values);
                }
                Ok(_) => {
                    return Err(ClientError::Protocol { context: "expected Estimates response" })
                }
                Err(ClientError::Retry { after_ms, cause }) => {
                    if attempt == rounds {
                        return Err(ClientError::Retry { after_ms, cause });
                    }
                    // Honor the server's hint up to the protocol's own
                    // ceiling (60 s): a degraded primary legitimately
                    // quotes multi-second backoffs, and clamping them to
                    // 1 s turns polite clients into a retry stampede.
                    let wait = jitter_ms(self.jitter_seed, attempt, u64::from(after_ms).max(1));
                    std::thread::sleep(Duration::from_millis(wait.clamp(1, MAX_RETRY_AFTER_MS)));
                }
                Err(other) => return Err(other),
            }
        }
        unreachable!("retry loop returns on its final attempt")
    }

    /// One acknowledged feedback batch.
    pub fn observe_batch(
        &mut self,
        table: &str,
        rows: &[ObservedQuery],
    ) -> Result<ObserveOutcome, ClientError> {
        let id = self.fresh_id();
        let request = Request::ObserveBatch { id, table: table.to_string(), rows: rows.to_vec() };
        match self.request(&request)? {
            Response::ObserveAck { accepted_rows, watermark, .. } => {
                Ok(ObserveOutcome { accepted_rows, watermark })
            }
            _ => Err(ClientError::Protocol { context: "expected ObserveAck response" }),
        }
    }

    /// Streams many feedback batches with pipelining: every frame is
    /// written before any ack is read, so the stream costs one
    /// round-trip, not one per batch. `Retry`-refused batches are
    /// re-sent after the server's backoff hint, up to `max_rounds`
    /// rounds; a hard server error fails the call.
    pub fn observe_stream(
        &mut self,
        table: &str,
        batches: &[Vec<ObservedQuery>],
        max_rounds: u32,
    ) -> Result<StreamOutcome, ClientError> {
        let mut outcome = StreamOutcome::default();
        let mut pending: Vec<&Vec<ObservedQuery>> = batches.iter().collect();
        let mut ever_retried: u64 = 0;
        let mut round = 0;
        // The last pushback the server actually sent; surfaced verbatim
        // when rounds run out instead of a fabricated hint.
        let mut last_retry = (1u32, RetryCause::IngestRate);
        while !pending.is_empty() {
            round += 1;
            if round > max_rounds.max(1) {
                let (after_ms, cause) = last_retry;
                return Err(ClientError::Retry { after_ms, cause });
            }
            // Write the whole round back-to-back, then drain the acks in
            // order (the server answers a connection's requests in
            // arrival order).
            let mut wire = Vec::new();
            let mut ids = Vec::with_capacity(pending.len());
            for rows in &pending {
                let id = self.fresh_id();
                ids.push(id);
                let request =
                    Request::ObserveBatch { id, table: table.to_string(), rows: (*rows).clone() };
                let body = request.encode();
                let mut framed = Vec::with_capacity(body.len() + 8);
                proto::write_frame(&mut framed, &body).expect("vec write cannot fail");
                wire.extend_from_slice(&framed);
            }
            self.stream.write_all(&wire)?;
            self.stream.flush()?;
            let mut refused = Vec::new();
            let mut backoff_ms: u64 = 0;
            for (slot, rows) in pending.iter().enumerate() {
                let body = proto::read_frame(&mut self.stream, self.max_frame_len)?;
                match Response::decode(&body)? {
                    Response::ObserveAck { id, accepted_rows, watermark } => {
                        if id != ids[slot] {
                            return Err(ClientError::Protocol {
                                context: "ack id out of order in pipelined stream",
                            });
                        }
                        outcome.accepted_rows += u64::from(accepted_rows);
                        outcome.watermark = outcome.watermark.max(watermark);
                    }
                    Response::Retry { after_ms, cause, .. } => {
                        refused.push(*rows);
                        backoff_ms = backoff_ms.max(u64::from(after_ms));
                        last_retry = (after_ms, cause);
                    }
                    Response::Error { code, message, .. } => {
                        return Err(ClientError::Server { code, message })
                    }
                    _ => {
                        return Err(ClientError::Protocol {
                            context: "expected ObserveAck in pipelined stream",
                        })
                    }
                }
            }
            if !refused.is_empty() {
                ever_retried += refused.len() as u64;
                // Same contract as `estimate_many`: the server's hint is
                // authoritative up to `MAX_RETRY_AFTER_MS`.
                std::thread::sleep(Duration::from_millis(backoff_ms.clamp(1, MAX_RETRY_AFTER_MS)));
            }
            pending = refused;
        }
        outcome.retried_batches = ever_retried;
        Ok(outcome)
    }

    /// Registry + server counters.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::Stats { id })? {
            Response::StatsReply { stats, .. } => Ok(stats),
            _ => Err(ClientError::Protocol { context: "expected StatsReply response" }),
        }
    }

    /// Forces a checkpoint of every durable table; returns how many had
    /// one.
    pub fn checkpoint_now(&mut self) -> Result<u32, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::CheckpointNow { id })? {
            Response::CheckpointDone { durable_tables, .. } => Ok(durable_tables),
            _ => Err(ClientError::Protocol { context: "expected CheckpointDone response" }),
        }
    }

    /// The registered tables and their domains.
    pub fn list_tables(&mut self) -> Result<Vec<(String, Domain)>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::ListTables { id })? {
            Response::Tables { tables, .. } => Ok(tables),
            _ => Err(ClientError::Protocol { context: "expected Tables response" }),
        }
    }

    /// The server's durable-file manifest (replication pull).
    pub fn fetch_manifest(&mut self) -> Result<Vec<ManifestEntry>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::FetchManifest { id })? {
            Response::Manifest { entries, .. } => Ok(entries),
            _ => Err(ClientError::Protocol { context: "expected Manifest response" }),
        }
    }

    /// One byte range of a manifest file: `(total_len, bytes)`.
    pub fn fetch_chunk(
        &mut self,
        path: &str,
        offset: u64,
        max_len: u32,
    ) -> Result<(u64, Vec<u8>), ClientError> {
        let id = self.fresh_id();
        let request = Request::FetchChunk { id, path: path.to_string(), offset, max_len };
        match self.request(&request)? {
            Response::Chunk { total_len, data, .. } => {
                if data.len() as u64 > u64::from(max_len) {
                    return Err(ClientError::Protocol { context: "chunk larger than requested" });
                }
                Ok((total_len, data))
            }
            _ => Err(ClientError::Protocol { context: "expected Chunk response" }),
        }
    }
}

/// A client over a *list* of endpoints — the primary first, replicas
/// after — that heals reads across failures:
///
/// * **Reads** (`estimate_many`, `stats`, `list_tables`) run on the
///   current endpoint; a connect failure, a transport error, or a
///   `Retry{cause: Degraded}` pushback rotates to the next endpoint. A
///   replica only serves if its advertised last-sync age is within the
///   caller's staleness bound (health-probed via a `Stats` round-trip
///   at connect time).
/// * **Writes** (`observe_batch`, `checkpoint_now`) only ever run
///   against an endpoint advertising [`ServerRole::Primary`]; replicas
///   (and their `ReadOnly` refusals) are skipped, never retried.
///
/// When every endpoint is down or out of bound the last failure is
/// surfaced as [`ClientError::NoEndpoint`].
pub struct FailoverClient {
    endpoints: Vec<String>,
    timeout: Duration,
    max_frame_len: u32,
    staleness_bound: Duration,
    active: Option<(usize, NetClient)>,
}

impl FailoverClient {
    /// Builds the client and connects to the first reachable endpoint.
    /// `staleness_bound` caps how old a replica's last successful sync
    /// may be for it to serve reads.
    pub fn connect(
        endpoints: &[impl AsRef<str>],
        staleness_bound: Duration,
    ) -> Result<Self, ClientError> {
        let mut this = FailoverClient {
            endpoints: endpoints.iter().map(|e| e.as_ref().to_string()).collect(),
            timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME,
            staleness_bound,
            active: None,
        };
        if this.endpoints.is_empty() {
            return Err(ClientError::Protocol { context: "no endpoints configured" });
        }
        // Eagerly reach the first live endpoint so configuration errors
        // surface at build time, not first use.
        this.with_read(|_| Ok(()))?;
        Ok(this)
    }

    /// Wraps one already-connected client (no failover peers). Used to
    /// upgrade single-endpoint callers without changing semantics.
    pub fn from_client(client: NetClient) -> Self {
        let addr =
            client.stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| String::new());
        FailoverClient {
            endpoints: vec![addr],
            timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME,
            staleness_bound: Duration::from_secs(u64::MAX / 2000),
            active: Some((0, client)),
        }
    }

    /// The role of the endpoint currently serving, if connected.
    pub fn active_role(&self) -> Option<ServerRole> {
        self.active.as_ref().map(|(_, c)| c.server_role())
    }

    /// True when `e` means "this endpoint cannot serve right now" as
    /// opposed to "the request itself is wrong": transport failures and
    /// degraded pushback rotate; semantic errors surface unchanged.
    fn should_rotate(e: &ClientError) -> bool {
        matches!(e, ClientError::Wire(_) | ClientError::Retry { cause: RetryCause::Degraded, .. })
    }

    /// Connects endpoint `idx` (reusing the live connection when it is
    /// already the active one).
    fn client_at(&mut self, idx: usize) -> Result<&mut NetClient, ClientError> {
        let reusable = matches!(self.active, Some((i, _)) if i == idx);
        if !reusable {
            let client = NetClient::connect_with(
                self.endpoints[idx].as_str(),
                self.timeout,
                self.max_frame_len,
            )?;
            self.active = Some((idx, client));
        }
        Ok(&mut self.active.as_mut().expect("just connected").1)
    }

    /// True when the endpoint may serve reads: primaries always, a
    /// replica only while its last sync is within the staleness bound.
    fn read_eligible(client: &mut NetClient, bound: Duration) -> Result<(), ClientError> {
        if client.server_role() == ServerRole::Primary {
            return Ok(());
        }
        let stats = client.stats()?;
        let bound_ms = u64::try_from(bound.as_millis()).unwrap_or(u64::MAX);
        if stats.replica_last_sync_ms > bound_ms {
            return Err(ClientError::Protocol { context: "replica exceeds the staleness bound" });
        }
        Ok(())
    }

    fn with_read<T>(
        &mut self,
        mut op: impl FnMut(&mut NetClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let n = self.endpoints.len();
        let start = self.active.as_ref().map_or(0, |(i, _)| *i);
        let mut last: Option<ClientError> = None;
        for k in 0..n.max(1) {
            let idx = (start + k) % n;
            let bound = self.staleness_bound;
            let outcome = self.client_at(idx).and_then(|client| {
                Self::read_eligible(client, bound)?;
                op(client)
            });
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) => {
                    // A connection that failed mid-request may be
                    // desynchronized: reconnect before any reuse.
                    self.active = None;
                    if !Self::should_rotate(&e)
                        && !matches!(
                            e,
                            ClientError::Protocol {
                                context: "replica exceeds the staleness bound",
                            }
                        )
                    {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(ClientError::NoEndpoint {
            last: Box::new(
                last.unwrap_or(ClientError::Protocol { context: "no endpoints configured" }),
            ),
        })
    }

    fn with_write<T>(
        &mut self,
        mut op: impl FnMut(&mut NetClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let n = self.endpoints.len();
        let start = self.active.as_ref().map_or(0, |(i, _)| *i);
        let mut last: Option<ClientError> = None;
        for k in 0..n.max(1) {
            let idx = (start + k) % n;
            let outcome = self.client_at(idx).and_then(|client| {
                if client.server_role() != ServerRole::Primary {
                    return Err(ClientError::Server {
                        code: ErrorCode::ReadOnly,
                        message: "endpoint is a read-only replica".to_string(),
                    });
                }
                op(client)
            });
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let skip_replica =
                        matches!(&e, ClientError::Server { code: ErrorCode::ReadOnly, .. });
                    if skip_replica {
                        // The connection itself is fine — keep it for
                        // reads, but keep looking for a primary.
                        last = Some(e);
                        if let Some((i, _)) = &self.active {
                            if *i != idx {
                                self.active = None;
                            }
                        }
                        continue;
                    }
                    self.active = None;
                    if !Self::should_rotate(&e) {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(ClientError::NoEndpoint {
            last: Box::new(
                last.unwrap_or(ClientError::Protocol { context: "no endpoints configured" }),
            ),
        })
    }

    /// Batched estimates with read failover; same bit-exactness
    /// contract as [`NetClient::estimate_many`].
    pub fn estimate_many(&mut self, table: &str, rects: &[Rect]) -> Result<Vec<f64>, ClientError> {
        self.with_read(|client| client.estimate_many(table, rects))
    }

    /// Registry + server counters from whichever endpoint serves.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        self.with_read(|client| client.stats())
    }

    /// Tables from whichever endpoint serves (replicas mirror the
    /// primary's catalog through shipped meta files).
    pub fn list_tables(&mut self) -> Result<Vec<(String, Domain)>, ClientError> {
        self.with_read(|client| client.list_tables())
    }

    /// One acknowledged feedback batch, primary-only.
    pub fn observe_batch(
        &mut self,
        table: &str,
        rows: &[ObservedQuery],
    ) -> Result<ObserveOutcome, ClientError> {
        self.with_write(|client| client.observe_batch(table, rows))
    }

    /// Forces a checkpoint, primary-only.
    pub fn checkpoint_now(&mut self) -> Result<u32, ClientError> {
        self.with_write(|client| client.checkpoint_now())
    }
}

/// A [`CardinalityProvider`] backed by a remote registry over one
/// [`NetClient`] connection: the planner seam, networked.
///
/// Failure semantics mirror the local registry's missing-table path —
/// an unknown table, a refused request, or a broken connection degrades
/// to the conservative `1.0` estimate instead of failing the planner.
/// Feedback for unknown tables is dropped silently, as the local
/// registry does.
pub struct RemoteProvider {
    client: Mutex<FailoverClient>,
    domains: HashMap<TableId, Domain>,
}

impl RemoteProvider {
    /// Connects and snapshots the server's table list for
    /// [`domain_of`](CardinalityProvider::domain_of).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::new(NetClient::connect(addr)?)
    }

    /// Connects over a primary + replica endpoint list: reads fail over
    /// to a replica whose last sync is within `staleness_bound`; writes
    /// only ever reach a primary.
    pub fn connect_endpoints(
        endpoints: &[impl AsRef<str>],
        staleness_bound: Duration,
    ) -> Result<Self, ClientError> {
        Self::from_failover(FailoverClient::connect(endpoints, staleness_bound)?)
    }

    /// Wraps an already-connected client (single endpoint, no failover).
    pub fn new(client: NetClient) -> Result<Self, ClientError> {
        Self::from_failover(FailoverClient::from_client(client))
    }

    fn from_failover(mut client: FailoverClient) -> Result<Self, ClientError> {
        let domains = client
            .list_tables()?
            .into_iter()
            .map(|(name, domain)| (TableId::from(name), domain))
            .collect();
        Ok(RemoteProvider { client: Mutex::new(client), domains })
    }
}

impl RemoteProvider {
    /// Wire-level batched estimates for pre-built rectangles; degrades
    /// to `1.0` per rect on any failure (the planner's conservative
    /// fallback).
    pub fn estimate_rects(&self, table: &TableId, rects: &[Rect]) -> Vec<f64> {
        let mut client = match self.client.lock() {
            Ok(client) => client,
            Err(_) => return vec![1.0; rects.len()],
        };
        client.estimate_many(table.as_str(), rects).unwrap_or_else(|_| vec![1.0; rects.len()])
    }
}

impl CardinalityProvider for RemoteProvider {
    fn estimate_many(&self, table: &TableId, preds: &[Predicate]) -> Vec<f64> {
        let Some(domain) = self.domains.get(table) else {
            return vec![1.0; preds.len()];
        };
        let rects: Vec<Rect> = preds.iter().map(|p| p.to_rect(domain)).collect();
        self.estimate_rects(table, &rects)
    }

    fn observe_batch(&self, table: &TableId, batch: &[ObservedQuery]) {
        if !self.domains.contains_key(table) {
            return; // unknown table: drop, as the local registry does
        }
        if let Ok(mut client) = self.client.lock() {
            let _ = client.observe_batch(table.as_str(), batch);
        }
    }

    fn sync_data(&self, _table: &TableId, _data: &Table, _changed_rows: usize) {
        // Data sync is a local-provider concept (re-sampling a table's
        // rows); a remote registry owns its own data lifecycle.
    }

    fn version(&self, _table: &TableId) -> u64 {
        0
    }

    fn domain_of(&self, table: &TableId) -> Option<Domain> {
        self.domains.get(table).cloned()
    }
}
