//! Wire-protocol robustness: every frame type round-trips bit-exactly
//! under randomized payloads, and every hostile mutation — truncation at
//! *every* byte boundary, bad magic, version skew, checksum flips,
//! unknown kinds, absurd lengths — returns a **typed** [`WireError`],
//! never a panic. Same corruption discipline as the persist crate's
//! `state_edge_cases` suite, applied to the network boundary.

use proptest::prelude::*;
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Interval, Rect};
use quicksel_net::proto::{
    self, Request, Response, WireError, WireStats, DEFAULT_MAX_FRAME, PROTO_VERSION,
    PROTO_VERSION_MIN,
};
use quicksel_net::{ErrorCode, RetryCause};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-1.0e6f64..1.0e6, 0.0f64..1.0e6).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    prop::collection::vec(arb_interval(), 1..5).prop_map(Rect::new)
}

fn arb_row() -> impl Strategy<Value = ObservedQuery> {
    (arb_rect(), 0.0f64..=1.0).prop_map(|(rect, selectivity)| ObservedQuery { rect, selectivity })
}

fn arb_table() -> impl Strategy<Value = String> {
    prop_oneof![Just("orders".to_string()), Just("t".to_string()), Just("π_table".to_string())]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u64..u64::MAX, arb_table(), prop::collection::vec(arb_rect(), 0..6))
            .prop_map(|(id, table, rects)| Request::EstimateMany { id, table, rects }),
        (0u64..u64::MAX, arb_table(), prop::collection::vec(arb_row(), 0..6))
            .prop_map(|(id, table, rows)| Request::ObserveBatch { id, table, rows }),
        (0u64..u64::MAX).prop_map(|id| Request::Stats { id }),
        (0u64..u64::MAX).prop_map(|id| Request::CheckpointNow { id }),
        (0u64..u64::MAX).prop_map(|id| Request::ListTables { id }),
    ]
}

fn arb_stats() -> impl Strategy<Value = WireStats> {
    (0u64..1 << 40, 0u64..1 << 40, 0.0f64..1.0e9, 0.0f64..1.0e9).prop_map(|(a, b, rate1, rate2)| {
        WireStats {
            tables: a % 64,
            shards: a % 256,
            batches_ingested: a,
            queries_ingested: a.wrapping_mul(3),
            refines: b % (1 << 20),
            refine_failures: b % 17,
            rejected_batches: b % 5,
            missing_table_probes: a % 31,
            dropped_feedback: b % 13,
            ingest_rows_per_s: rate1,
            estimate_rects_per_s: rate2,
            connections_accepted: a % (1 << 30),
            active_connections: a % 128,
            requests_served: b,
            retries_sent: b % 1001,
            errors_sent: a % 7,
            degraded_shards: a % 9,
            degraded_transitions: b % 33,
            health_probes: a % 257,
            degraded_refusals: b % 129,
            poisoned_locks: a % 3,
            degraded_retries_sent: b % 65,
            role: a % 2,
            replica_applied_watermark: a.wrapping_mul(7),
            replica_watermark_lag: b % 4097,
            replica_last_sync_ms: if b % 5 == 0 { u64::MAX } else { b % (1 << 22) },
            readonly_refusals: a % 513,
        }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u64..u64::MAX, prop::collection::vec(-1.0e300f64..1.0e300, 0..8)).prop_map(
            |(id, mut values)| {
                // NaN breaks PartialEq round-trip comparison, not the
                // codec; keep values comparable.
                for v in &mut values {
                    if v.is_nan() {
                        *v = 0.25;
                    }
                }
                Response::Estimates { id, values }
            }
        ),
        (0u64..u64::MAX, 0u32..u32::MAX, 0u64..u64::MAX).prop_map(
            |(id, accepted_rows, watermark)| {
                Response::ObserveAck { id, accepted_rows, watermark }
            }
        ),
        (0u64..u64::MAX, arb_stats()).prop_map(|(id, stats)| Response::StatsReply { id, stats }),
        (0u64..u64::MAX, 0u32..1024)
            .prop_map(|(id, durable_tables)| Response::CheckpointDone { id, durable_tables }),
        (0u64..u64::MAX, 1usize..4).prop_map(|(id, dims)| {
            let columns: Vec<(String, f64, f64)> =
                (0..dims).map(|i| (format!("c{i}"), -(i as f64), (i + 1) as f64)).collect();
            let refs: Vec<(&str, f64, f64)> =
                columns.iter().map(|(n, lo, hi)| (n.as_str(), *lo, *hi)).collect();
            Response::Tables { id, tables: vec![("t".to_string(), Domain::of_reals(&refs))] }
        }),
        (
            0u64..u64::MAX,
            0u32..60_000,
            prop_oneof![
                Just(RetryCause::EstimateConcurrency),
                Just(RetryCause::IngestRate),
                Just(RetryCause::AcceptQueue),
                Just(RetryCause::Degraded),
            ]
        )
            .prop_map(|(id, after_ms, cause)| Response::Retry { id, after_ms, cause }),
        (
            0u64..u64::MAX,
            prop_oneof![
                Just(ErrorCode::UnknownTable),
                Just(ErrorCode::InvalidFeedback),
                Just(ErrorCode::BadRequest),
                Just(ErrorCode::Internal)
            ]
        )
            .prop_map(|(id, code)| Response::Error {
                id,
                code,
                message: "detail £ üñïçôdé".to_string()
            }),
    ]
}

// ---------------------------------------------------------------------
// Round-trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip(req in arb_request()) {
        let body = req.encode();
        prop_assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let body = resp.encode();
        prop_assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn frames_round_trip(resp in arb_response()) {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &resp.encode()).unwrap();
        let body = proto::read_frame(&mut &wire[..], DEFAULT_MAX_FRAME).unwrap();
        prop_assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    // -----------------------------------------------------------------
    // Hostile inputs: typed errors, zero panics.
    // -----------------------------------------------------------------

    #[test]
    fn truncation_at_every_byte_is_typed(req in arb_request()) {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &req.encode()).unwrap();
        // Cutting the stream after any prefix must fail with a typed
        // error: ConnectionClosed at byte 0, Truncated anywhere inside.
        for cut in 0..wire.len() {
            let err = proto::read_frame(&mut &wire[..cut], DEFAULT_MAX_FRAME).unwrap_err();
            match err {
                WireError::ConnectionClosed
                | WireError::Truncated { .. }
                | WireError::ChecksumMismatch => {}
                other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
            }
        }
        // And truncating the *body* (with a matching header) must be a
        // typed decode error too, at every interior boundary.
        let body = req.encode();
        for cut in 0..body.len() {
            prop_assert!(Request::decode(&body[..cut]).is_err());
        }
    }

    #[test]
    fn single_bit_flips_never_panic(req in arb_request(), pos in 0usize..4096, bit in 0u8..8) {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &req.encode()).unwrap();
        let pos = pos % wire.len();
        wire[pos] ^= 1 << bit;
        // A flipped bit lands in the length (header mismatch / too
        // large), the CRC, or the body (checksum catches it). Whatever
        // happens must be an Err or — only if the flip hit the length
        // field and made it *smaller* consistently — never a wrong Ok.
        match proto::read_frame(&mut &wire[..], DEFAULT_MAX_FRAME) {
            Err(_) => {}
            Ok(body) => {
                // Only reachable if the CRC still matches, i.e. the flip
                // was outside the covered region — impossible here since
                // header+body is the whole wire image. Decode must still
                // not panic.
                let _ = Request::decode(&body);
            }
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = proto::read_frame(&mut &bytes[..], 4096);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = proto::decode_hello(&bytes);
        let _ = proto::decode_hello_ack(&bytes);
    }
}

// ---------------------------------------------------------------------
// Deterministic hostile cases
// ---------------------------------------------------------------------

#[test]
fn absurd_length_rejects_before_allocation() {
    // Header announcing a 3 GiB body: must reject from the 8 header
    // bytes alone, without attempting the allocation.
    let mut wire = Vec::new();
    wire.extend_from_slice(&(3u32 << 30).to_le_bytes());
    wire.extend_from_slice(&0u32.to_le_bytes());
    let err = proto::read_frame(&mut &wire[..], DEFAULT_MAX_FRAME).unwrap_err();
    assert!(matches!(err, WireError::FrameTooLarge { .. }), "{err:?}");
}

#[test]
fn checksum_flip_is_typed() {
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, &Request::Stats { id: 9 }.encode()).unwrap();
    wire[4] ^= 0xFF; // corrupt the stored CRC
    assert!(matches!(
        proto::read_frame(&mut &wire[..], DEFAULT_MAX_FRAME),
        Err(WireError::ChecksumMismatch)
    ));
}

#[test]
fn bad_hello_magic_is_typed() {
    let mut hello = proto::encode_hello(1, PROTO_VERSION);
    hello[1..5].copy_from_slice(b"EVIL");
    assert!(matches!(proto::decode_hello(&hello), Err(WireError::BadMagic { .. })));
}

#[test]
fn version_skew_is_typed() {
    // A far-future client (versions 900..=901) meets this build.
    let ours = (PROTO_VERSION_MIN, PROTO_VERSION);
    let err = proto::negotiate(ours, (900, 901)).unwrap_err();
    assert!(matches!(err, WireError::VersionUnsupported { offered: (900, 901), .. }));
    // A version-1/2 peer, whose `StatsReply` layout this build no longer
    // decodes, is refused at the handshake.
    let err = proto::negotiate(ours, (1, 2)).unwrap_err();
    assert!(matches!(err, WireError::VersionUnsupported { offered: (1, 2), .. }));
    // An inverted range is invalid before negotiation even starts.
    let hello = proto::encode_hello(5, 2);
    assert!(matches!(proto::decode_hello(&hello), Err(WireError::Invalid { .. })));
}

#[test]
fn unknown_kinds_are_typed() {
    let mut body = Request::Stats { id: 1 }.encode();
    body[0] = 0x7F;
    assert!(matches!(Request::decode(&body), Err(WireError::UnknownKind { kind: 0x7F })));
    let mut body = Response::CheckpointDone { id: 1, durable_tables: 0 }.encode();
    body[0] = 0x7F;
    assert!(matches!(Response::decode(&body), Err(WireError::UnknownKind { kind: 0x7F })));
}

#[test]
fn hostile_counts_cannot_overallocate() {
    // An EstimateMany claiming 4 billion rects in a 32-byte body must be
    // rejected by the count-vs-remaining bound, not by allocating.
    let mut body = vec![0x10u8]; // KIND_ESTIMATE_MANY
    body.extend_from_slice(&1u64.to_le_bytes()); // id
    body.extend_from_slice(&1u32.to_le_bytes()); // name len
    body.push(b't');
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // rect count
    let err = Request::decode(&body).unwrap_err();
    assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
}

#[test]
fn estimate_f64s_survive_the_wire_bit_exactly() {
    // The values that would betray a lossy encoding: subnormals,
    // negative zero, extremes of the exponent range.
    let values = vec![
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0, // subnormal
        -0.0,
        f64::MAX,
        f64::EPSILON,
        1.0 - f64::EPSILON,
    ];
    let resp = Response::Estimates { id: 3, values: values.clone() };
    let Response::Estimates { values: decoded, .. } = Response::decode(&resp.encode()).unwrap()
    else {
        panic!("wrong kind");
    };
    for (a, b) in values.iter().zip(&decoded) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} lost bits over the wire");
    }
}
