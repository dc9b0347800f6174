//! Server-runtime behavior over real loopback sockets: handshake and
//! version skew, typed request failures, rate/concurrency admission
//! control, decode-error handling, idle timeouts, accept-queue
//! overflow, graceful shutdown draining in-flight requests, and
//! concurrent mixed load over a 2-shard table.

use quicksel_core::QuickSel;
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_net::proto::{self, Request, Response};
use quicksel_net::{
    serve, BackendError, ClientError, ErrorCode, NetBackend, NetClient, RetryCause, ServerConfig,
    ServerHandle, WireStats,
};
use quicksel_service::{EstimatorRegistry, TableId};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn registry() -> Arc<EstimatorRegistry<QuickSel>> {
    let registry = EstimatorRegistry::new();
    let d = domain();
    registry.register_with("orders", d.clone(), 2, |i| {
        QuickSel::builder(d.clone()).fixed_subpops(24).seed(i as u64).build()
    });
    Arc::new(registry)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        shutdown_tick: Duration::from_millis(10),
        request_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (ServerHandle, Arc<EstimatorRegistry<QuickSel>>) {
    let backend = registry();
    let handle = serve(Arc::clone(&backend), config).expect("bind loopback");
    (handle, backend)
}

fn rect(lo: f64, hi: f64) -> Rect {
    Rect::from_bounds(&[(lo, hi), (lo, hi)])
}

fn rows(n: usize) -> Vec<ObservedQuery> {
    (0..n)
        .map(|k| ObservedQuery {
            rect: rect(k as f64 * 0.1, k as f64 * 0.1 + 1.0),
            selectivity: 0.3,
        })
        .collect()
}

#[test]
fn basic_round_trips_work() {
    let (mut handle, _backend) = start(quick_config());
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    assert_eq!(client.negotiated_version(), proto::PROTO_VERSION);

    let tables = client.list_tables().expect("list");
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].0, "orders");
    assert_eq!(tables[0].1, domain());

    let outcome = client.observe_batch("orders", &rows(8)).expect("observe");
    assert_eq!(outcome.accepted_rows, 8);
    assert_eq!(outcome.watermark, 8);

    let est = client.estimate_many("orders", &[rect(1.0, 3.0), rect(0.0, 9.0)]).expect("estimate");
    assert_eq!(est.len(), 2);
    assert!(est.iter().all(|v| (0.0..=1.0).contains(v)), "{est:?}");

    // In-memory registry: checkpoint is a no-op, not an error.
    assert_eq!(client.checkpoint_now().expect("checkpoint"), 0);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.tables, 1);
    assert_eq!(stats.queries_ingested, 8);
    assert!(stats.requests_served >= 4, "{stats:?}");
    assert_eq!(stats.active_connections, 1);

    handle.shutdown();
    let server_stats = handle.stats();
    assert_eq!(server_stats.connections_accepted, 1);
    assert_eq!(server_stats.active_connections, 0);
    assert_eq!(server_stats.decode_errors, 0);
}

#[test]
fn zero_socket_timeouts_are_refused_before_binding() {
    // Both durations become socket read timeouts, which cannot be zero:
    // a server started with either would fail every connection.
    let zero_request = ServerConfig { request_timeout: Duration::ZERO, ..quick_config() };
    let zero_tick = ServerConfig { shutdown_tick: Duration::ZERO, ..quick_config() };
    for config in [zero_request, zero_tick] {
        let err = serve(registry(), config).err().expect("a zero timeout must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

#[test]
fn unknown_table_and_bad_dimensionality_are_typed() {
    let (_handle, _backend) = start(quick_config());
    let mut client = NetClient::connect(_handle.addr()).expect("connect");

    let err = client.estimate_many("nope", &[rect(0.0, 1.0)]).unwrap_err();
    assert!(matches!(err, ClientError::Server { code: ErrorCode::UnknownTable, .. }), "{err:?}");

    // A 1-D rect against the 2-D table: refused before the estimator
    // ever sees it.
    let skinny = Rect::from_bounds(&[(0.0, 1.0)]);
    let err = client.estimate_many("orders", &[skinny]).unwrap_err();
    assert!(matches!(err, ClientError::Server { code: ErrorCode::BadRequest, .. }), "{err:?}");

    // The connection survives typed failures.
    assert_eq!(client.estimate_many("orders", &[rect(0.0, 5.0)]).expect("still usable").len(), 1);
}

#[test]
fn invalid_feedback_is_refused_without_ingesting() {
    let (_handle, backend) = start(quick_config());
    let mut client = NetClient::connect(_handle.addr()).expect("connect");

    let bad = vec![ObservedQuery { rect: rect(0.0, 1.0), selectivity: 2.5 }];
    let err = client.observe_batch("orders", &bad).unwrap_err();
    assert!(matches!(err, ClientError::Server { code: ErrorCode::InvalidFeedback, .. }), "{err:?}");
    assert_eq!(backend.stats().total.queries_ingested, 0, "refused batch must not ingest");
}

#[test]
fn version_skew_is_refused_with_a_typed_error() {
    let (_handle, _backend) = start(quick_config());
    let mut stream = TcpStream::connect(_handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // A far-future client: versions 900..=901 only.
    proto::write_frame(&mut stream, &proto::encode_hello(900, 901)).unwrap();
    stream.flush().unwrap();
    let body = proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).expect("reply");
    match Response::decode(&body).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Unsupported error, got {other:?}"),
    }
}

#[test]
fn ingest_rate_limit_pushes_back_with_retry() {
    let config = ServerConfig { ingest_rows_per_s: 10.0, ingest_burst: 8.0, ..quick_config() };
    let (_handle, _backend) = start(config);
    let mut client = NetClient::connect(_handle.addr()).expect("connect");

    // The burst admits the first batch; the bucket is then empty and the
    // next batch must be refused with a refill hint.
    client.observe_batch("orders", &rows(8)).expect("burst admits");
    let err = client.observe_batch("orders", &rows(8)).unwrap_err();
    match err {
        ClientError::Retry { after_ms, cause } => {
            assert_eq!(cause, RetryCause::IngestRate);
            assert!(after_ms >= 1, "backoff hint must be positive");
        }
        other => panic!("expected Retry, got {other:?}"),
    }

    // Estimates are governed by a different limit: still admitted.
    client.estimate_many("orders", &[rect(0.0, 5.0)]).expect("estimates unaffected");
}

/// A backend whose estimates take a configurable time — the tool for
/// exercising concurrency limits and shutdown draining.
struct SlowBackend {
    delay: Duration,
}

impl NetBackend for SlowBackend {
    fn estimate_many(&self, _table: &TableId, rects: &[Rect]) -> Result<Vec<f64>, BackendError> {
        std::thread::sleep(self.delay);
        Ok(vec![0.5; rects.len()])
    }

    fn observe_batch(&self, _table: &TableId, rows: &[ObservedQuery]) -> Result<u64, BackendError> {
        Ok(rows.len() as u64)
    }

    fn registry_stats(&self) -> WireStats {
        WireStats::default()
    }

    fn checkpoint_now(&self) -> Result<u32, BackendError> {
        Ok(0)
    }

    fn tables(&self) -> Vec<(String, Domain)> {
        vec![("slow".to_string(), domain())]
    }
}

#[test]
fn estimate_concurrency_limit_pushes_back_with_retry() {
    let config = ServerConfig { estimate_concurrency: 1, workers: 4, ..quick_config() };
    let backend = Arc::new(SlowBackend { delay: Duration::from_millis(600) });
    let handle = serve(backend, config).expect("bind");
    let addr = handle.addr();

    let busy = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect");
        client.estimate_many("slow", &[rect(0.0, 1.0)])
    });
    std::thread::sleep(Duration::from_millis(150)); // in-flight now holds the only permit

    let mut client = NetClient::connect(addr).expect("connect");
    let err = client.estimate_many("slow", &[rect(0.0, 1.0)]).unwrap_err();
    assert!(
        matches!(err, ClientError::Retry { cause: RetryCause::EstimateConcurrency, .. }),
        "{err:?}"
    );

    // The occupant finishes normally, releasing the permit for a retry.
    assert_eq!(busy.join().unwrap().expect("slow estimate"), vec![0.5]);
    client.estimate_many("slow", &[rect(0.0, 1.0)]).expect("permit released");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let backend = Arc::new(SlowBackend { delay: Duration::from_millis(400) });
    let mut handle = serve(backend, quick_config()).expect("bind");
    let addr = handle.addr();

    let in_flight = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect");
        client.estimate_many("slow", &[rect(0.0, 1.0), rect(1.0, 2.0)])
    });
    std::thread::sleep(Duration::from_millis(100)); // request is now executing

    handle.shutdown(); // must block until the in-flight response is written
    let answer = in_flight.join().unwrap().expect("in-flight request must complete");
    assert_eq!(answer, vec![0.5, 0.5]);

    // New connections are no longer served.
    assert!(NetClient::connect(addr).is_err(), "server must be gone after shutdown");
}

#[test]
fn idle_connections_are_closed_after_the_timeout() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(120),
        shutdown_tick: Duration::from_millis(20),
        ..quick_config()
    };
    let (_handle, _backend) = start(config);
    let mut client = NetClient::connect(_handle.addr()).expect("connect");
    client.estimate_many("orders", &[rect(0.0, 1.0)]).expect("fresh connection serves");

    std::thread::sleep(Duration::from_millis(400)); // exceed the idle budget
    let err = client.estimate_many("orders", &[rect(0.0, 1.0)]).unwrap_err();
    assert!(matches!(err, ClientError::Wire(_)), "idle-closed connection: {err:?}");
}

#[test]
fn idle_timeout_mid_pipeline_releases_the_worker() {
    let config = ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(120),
        shutdown_tick: Duration::from_millis(20),
        ..quick_config()
    };
    let (_handle, _backend) = start(config);
    let addr = _handle.addr();

    // Raw handshake so the pipeline can be driven frame by frame.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    proto::write_frame(&mut stream, &proto::encode_hello(1, proto::PROTO_VERSION)).unwrap();
    stream.flush().unwrap();
    proto::decode_hello_ack(&proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).unwrap())
        .expect("handshake");

    // Three pipelined requests written back-to-back, acks drained...
    for id in 1..=3u64 {
        proto::write_frame(&mut stream, &Request::Stats { id }.encode()).unwrap();
    }
    stream.flush().unwrap();
    for id in 1..=3u64 {
        let body = proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).unwrap();
        match Response::decode(&body).expect("decode") {
            Response::StatsReply { id: got, .. } => assert_eq!(got, id),
            other => panic!("expected StatsReply, got {other:?}"),
        }
    }

    // ...then the client goes quiet mid-session: the idle timeout must
    // reclaim the only worker for fresh connections.
    std::thread::sleep(Duration::from_millis(400));
    let mut fresh = NetClient::connect(addr).expect("worker must be free again");
    fresh.estimate_many("orders", &[rect(0.0, 1.0)]).expect("fresh connection serves");

    // The idle-closed connection really is dead: either the write hits
    // a broken pipe outright or the read finds the stream closed.
    let wrote = proto::write_frame(&mut stream, &Request::Stats { id: 9 }.encode());
    let dead = wrote.is_err()
        || stream.flush().is_err()
        || proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).is_err();
    assert!(dead, "idle connection must have been closed");

    let stats = _handle.stats();
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.active_connections, 1, "only the fresh client remains");
    assert_eq!(stats.decode_errors, 0, "idle close must not count as a decode error");
    assert!(stats.requests_served >= 4, "{stats:?}");
}

#[test]
fn client_disconnect_during_response_write_releases_the_worker() {
    let config = ServerConfig { workers: 1, ..quick_config() };
    let backend = Arc::new(SlowBackend { delay: Duration::from_millis(300) });
    let handle = serve(backend, config).expect("bind");
    let addr = handle.addr();

    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        proto::write_frame(&mut stream, &proto::encode_hello(1, proto::PROTO_VERSION)).unwrap();
        stream.flush().unwrap();
        proto::decode_hello_ack(&proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).unwrap())
            .expect("handshake");
        let request =
            Request::EstimateMany { id: 1, table: "slow".to_string(), rects: vec![rect(0.0, 1.0)] };
        proto::write_frame(&mut stream, &request.encode()).unwrap();
        stream.flush().unwrap();
        // Hang up while the backend is still computing: the response
        // write lands on a dead socket.
        std::thread::sleep(Duration::from_millis(50));
    }

    // The only worker must survive the failed write and serve the next
    // connection (which waits in the accept queue until released).
    let mut client = NetClient::connect(addr).expect("worker released after disconnect");
    assert_eq!(client.estimate_many("slow", &[rect(0.0, 1.0)]).expect("served"), vec![0.5]);

    let stats = handle.stats();
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.active_connections, 1, "disconnected session must be fully retired");
    assert_eq!(stats.decode_errors, 0, "disconnect must not count as a decode error");
}

#[test]
fn accept_queue_overflow_is_refused_with_retry() {
    let config = ServerConfig { workers: 1, accept_queue: 1, ..quick_config() };
    let (_handle, _backend) = start(config);
    let addr = _handle.addr();

    // Client A occupies the single worker for its whole session.
    let _a = NetClient::connect(addr).expect("first connection");
    std::thread::sleep(Duration::from_millis(50));
    // Client B fills the single accept-queue slot (never handshakes —
    // no worker is free to serve it).
    let _b = TcpStream::connect(addr).expect("second connection queues");
    std::thread::sleep(Duration::from_millis(50));
    // Client C overflows the queue: refused with a typed Retry.
    let Err(err) = NetClient::connect(addr) else {
        panic!("third connection must be refused");
    };
    assert!(
        matches!(
            err,
            ClientError::Retry { cause: RetryCause::AcceptQueue, .. } | ClientError::Wire(_)
        ),
        "{err:?}"
    );
}

#[test]
fn malformed_messages_get_typed_errors_and_corrupt_frames_close() {
    let (_handle, _backend) = start(quick_config());
    let mut stream = TcpStream::connect(_handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    proto::write_frame(&mut stream, &proto::encode_hello(1, proto::PROTO_VERSION)).unwrap();
    stream.flush().unwrap();
    let ack = proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).unwrap();
    proto::decode_hello_ack(&ack).expect("handshake");

    // A well-framed (valid CRC) but meaningless body: typed error with
    // id 0, and the connection stays usable.
    proto::write_frame(&mut stream, &[0xFFu8, 0x00, 0x01]).unwrap();
    stream.flush().unwrap();
    let body = proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).unwrap();
    match Response::decode(&body).expect("decode") {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 0);
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected error, got {other:?}"),
    }
    proto::write_frame(&mut stream, &Request::Stats { id: 7 }.encode()).unwrap();
    stream.flush().unwrap();
    let body = proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(Response::decode(&body).unwrap(), Response::StatsReply { id: 7, .. }));

    // A corrupted frame (bad CRC): the stream is no longer trustworthy —
    // the server answers once and closes.
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, &Request::Stats { id: 8 }.encode()).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    let body = proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(Response::decode(&body).unwrap(), Response::Error { .. }));
    assert!(
        proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME).is_err(),
        "server must close after a corrupt frame"
    );

    assert!(_handle.stats().decode_errors >= 2);
}

#[test]
fn pipelined_observe_stream_acks_every_batch() {
    let (_handle, backend) = start(quick_config());
    let mut client = NetClient::connect(_handle.addr()).expect("connect");
    let batches: Vec<Vec<ObservedQuery>> = (0..6).map(|_| rows(4)).collect();
    let outcome = client.observe_stream("orders", &batches, 3).expect("stream");
    assert_eq!(outcome.accepted_rows, 24);
    assert_eq!(outcome.watermark, 24);
    assert_eq!(outcome.retried_batches, 0);
    assert_eq!(backend.stats().total.queries_ingested, 24);
}

#[test]
fn observe_stream_retries_through_rate_limits() {
    let config = ServerConfig { ingest_rows_per_s: 200.0, ingest_burst: 8.0, ..quick_config() };
    let (_handle, backend) = start(config);
    let mut client = NetClient::connect(_handle.addr()).expect("connect");
    // 6 batches × 4 rows against an 8-row burst: most batches need at
    // least one Retry round, but at 200 rows/s they all land eventually.
    let batches: Vec<Vec<ObservedQuery>> = (0..6).map(|_| rows(4)).collect();
    let outcome = client.observe_stream("orders", &batches, 50).expect("stream with retries");
    assert_eq!(outcome.accepted_rows, 24);
    assert!(outcome.retried_batches > 0, "rate limit never engaged");
    assert_eq!(backend.stats().total.queries_ingested, 24);
}

#[test]
fn concurrent_mixed_load_over_two_shards_is_error_free() {
    // Four clients, each on its own connection, over the 2-shard table:
    // every 10th request a 4-row feedback batch, the rest 8-rect probes.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 100;
    let (handle, backend) = start(quick_config());
    let addr = handle.addr();
    let acks: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    let (mut acked, mut watermark) = (0u64, 0u64);
                    for k in 0..REQUESTS {
                        let lo = ((c * REQUESTS + k) % 60) as f64 * 0.1;
                        if k % 10 == 9 {
                            let batch: Vec<ObservedQuery> = (0..4)
                                .map(|j| ObservedQuery {
                                    rect: rect(lo, lo + 1.0 + j as f64 * 0.5),
                                    selectivity: 0.1 + j as f64 * 0.1,
                                })
                                .collect();
                            let outcome = client.observe_batch("orders", &batch).expect("observe");
                            acked += u64::from(outcome.accepted_rows);
                            watermark = watermark.max(outcome.watermark);
                        } else {
                            let rects: Vec<Rect> =
                                (0..8).map(|j| rect(lo, lo + 0.5 + j as f64 * 0.5)).collect();
                            let values = client.estimate_many("orders", &rects).expect("probe");
                            assert_eq!(values.len(), 8);
                        }
                    }
                    (acked, watermark)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client panicked")).collect()
    });

    let stats = handle.stats();
    assert_eq!(stats.decode_errors, 0, "load produced decode errors");
    assert_eq!(stats.errors_sent, 0, "load produced error responses");
    // Every acked row was ingested exactly once, and the last ack saw them all.
    let ingested = backend.stats().total.queries_ingested;
    assert_eq!(acks.iter().map(|a| a.0).sum::<u64>(), ingested);
    assert_eq!(acks.iter().map(|a| a.1).max(), Some(ingested));
}
