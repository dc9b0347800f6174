//! Serialization edge cases for the estimator state format: every
//! corruption mode returns a **typed** [`PersistError`] (never a
//! panic), hostile states are rejected before they can violate core
//! invariants, and valid states — including the degenerate ones —
//! round-trip to bit-identical estimates.

use proptest::prelude::*;
use quicksel_core::{
    IncrementalTrainer, QuickSel, QuickSelState, RefinePolicy, StateError, TrainingMethod,
};
use quicksel_data::{Estimate, Learn, ObservedQuery, RefineOutcome};
use quicksel_geometry::{Domain, Interval, Rect};
use quicksel_linalg::{factor_spd, solve_spd};
use quicksel_persist::format::{write_container, PutBytes};
use quicksel_persist::{
    decode_state, encode_domain, encode_rect, encode_state, PersistError, PersistLearner,
    STATE_MAGIC,
};

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn learner(seed: u64) -> QuickSel {
    QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(24)
        .seed(seed)
        .build()
}

fn obs(k: usize) -> ObservedQuery {
    let lo_x = (k * 13 % 70) as f64 * 0.1;
    let lo_y = (k * 29 % 60) as f64 * 0.1;
    let len = 0.8 + (k % 5) as f64 * 0.6;
    let rect = Rect::from_bounds(&[(lo_x, lo_x + len), (lo_y, lo_y + len)]);
    ObservedQuery::new(rect, (k % 10) as f64 * 0.1)
}

fn probes() -> Vec<Rect> {
    (0..30)
        .map(|k| {
            let lo = (k * 7 % 80) as f64 * 0.1;
            Rect::from_bounds(&[(lo, (lo + 1.5).min(10.0)), (0.0, 0.5 + (k % 9) as f64)])
        })
        .collect()
}

/// A trained estimator (cold train + warm refine), the richest state:
/// model, trainer caches, RNG mid-stream, point pool.
fn trained(seed: u64, batches: usize) -> QuickSel {
    let mut est = learner(seed);
    for b in 0..batches {
        est.observe_batch(&(0..4).map(|j| obs(b * 4 + j)).collect::<Vec<_>>());
        est.refine().expect("train");
    }
    est
}

#[test]
fn empty_estimator_round_trips_exactly() {
    // No feedback, no model, no trainer: the smallest valid state.
    let est = learner(1);
    let bytes = est.save_state().expect("save");
    let restored = QuickSel::load_state(&bytes).expect("load");
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }
    assert_eq!(restored.observed_count(), 0);
    // And the restored copy trains on identically from there.
    let mut a = est;
    let mut b = restored;
    a.observe_batch(&[obs(0), obs(1)]);
    b.observe_batch(&[obs(0), obs(1)]);
    a.refine().expect("train a");
    b.refine().expect("train b");
    for p in probes() {
        assert_eq!(a.estimate(&p), b.estimate(&p));
    }
}

#[test]
fn trained_estimator_round_trips_exactly() {
    let est = trained(5, 6);
    let bytes = est.save_state().expect("save");
    let restored = QuickSel::load_state(&bytes).expect("load");
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }
    assert_eq!(est.observed_count(), restored.observed_count());
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut bytes = trained(2, 2).save_state().expect("save");
    bytes[0..4].copy_from_slice(b"NOPE");
    match QuickSel::load_state(&bytes).err() {
        Some(PersistError::BadMagic { found, .. }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_format_version_is_rejected() {
    let mut bytes = trained(2, 2).save_state().expect("save");
    // The u16 version sits right after the 4-byte magic.
    bytes[4] = 0xFF;
    bytes[5] = 0x7F;
    match QuickSel::load_state(&bytes).err() {
        Some(PersistError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0x7FFF);
            assert!(supported < found);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn corrupt_payload_fails_its_section_checksum() {
    let est = trained(3, 4);
    let clean = est.save_state().expect("save");
    // Flip one byte near the end (deep in section payload, past the
    // header) and demand a checksum rejection — not garbage data.
    let mut bytes = clean.clone();
    let k = bytes.len() - 9;
    bytes[k] ^= 0x40;
    match QuickSel::load_state(&bytes).err() {
        Some(PersistError::CorruptChecksum { .. }) => {}
        other => panic!("expected CorruptChecksum, got {other:?}"),
    }
}

#[test]
fn every_truncation_point_is_a_typed_error_never_a_panic() {
    let bytes = trained(4, 3).save_state().expect("save");
    for cut in 0..bytes.len() {
        match QuickSel::load_state(&bytes[..cut]).err() {
            None => panic!("a strict prefix of {cut} bytes decoded successfully"),
            Some(
                PersistError::Truncated { .. }
                | PersistError::CorruptChecksum { .. }
                | PersistError::BadMagic { .. }
                | PersistError::UnsupportedVersion { .. }
                | PersistError::MissingSection { .. }
                | PersistError::Invalid { .. },
            ) => {}
            Some(other) => panic!("unexpected error class at cut {cut}: {other:?}"),
        }
    }
}

#[test]
fn hostile_states_are_rejected_before_reaching_the_core() {
    let est = trained(6, 4);
    let good = est.export_state();

    // NaN weight: decodes (f64 bits round-trip NaN exactly) but must be
    // rejected by state validation, not handed to the model.
    let mut nan_weight = good.clone();
    let (rects, mut weights) = nan_weight.model.clone().expect("trained");
    weights[0] = f64::NAN;
    nan_weight.model = Some((rects, weights));
    assert!(matches!(QuickSel::try_from_state(nan_weight), Err(StateError::Invalid { .. })));

    // Zero-volume subpopulation in the trainer: its |G_z| divisor is 0.
    let mut flat_subpop = good.clone();
    let trainer = flat_subpop.trainer.as_mut().expect("trained");
    let lo = trainer.subpops[0].sides()[0].lo;
    let mut sides = trainer.subpops[0].sides().to_vec();
    sides[0] = Interval::new(lo, lo);
    trainer.subpops[0] = Rect::new(sides);
    assert!(matches!(QuickSel::try_from_state(flat_subpop), Err(StateError::Invalid { .. })));

    // Trainer claiming more trained queries than the feedback log holds.
    let mut short_log = good.clone();
    short_log.queries.truncate(1);
    short_log.pending_since_refine = 0;
    assert!(matches!(QuickSel::try_from_state(short_log), Err(StateError::Invalid { .. })));

    // The unmodified state still loads — the rejections above are about
    // the mutations, not the fixture.
    assert!(QuickSel::try_from_state(good).is_ok());
}

/// Serializes a capture in the exact **v1** container layout: config
/// stops after `warm_refine_limit`, MISC stops after the training
/// version, the trainer carries no pending signs, and there is no
/// point-count/compaction/drift bookkeeping anywhere. This pins the
/// pre-bounded-history format byte for byte, so checkpoints written by
/// older builds keep decoding.
fn encode_state_v1(state: &QuickSelState) -> Vec<u8> {
    fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
        out.put_usize(xs.len());
        for &v in xs {
            out.put_f64(v);
        }
    }
    fn put_matrix(out: &mut Vec<u8>, m: &quicksel_linalg::DMatrix) {
        out.put_usize(m.rows());
        out.put_usize(m.cols());
        for &v in m.as_slice() {
            out.put_f64(v);
        }
    }

    let mut domain = Vec::new();
    encode_domain(&mut domain, &state.domain);

    let c = &state.config;
    let mut config = Vec::new();
    config.put_f64(c.lambda);
    config.put_f64(c.ridge_rel);
    config.put_usize(c.points_per_query);
    config.put_usize(c.subpops_per_query);
    config.put_usize(c.max_subpops);
    config.put_usize(c.size_neighbors);
    config.put_f64(c.overlap_factor);
    match c.refine_policy {
        RefinePolicy::EveryQuery => config.put_u32(0),
        RefinePolicy::EveryK(k) => {
            config.put_u32(1);
            config.put_usize(k);
        }
        RefinePolicy::Manual => config.put_u32(2),
    }
    match c.training {
        TrainingMethod::AnalyticPenalty => config.put_u32(0),
        TrainingMethod::StandardQp => config.put_u32(1),
    }
    config.put_u64(c.seed);
    config.put_usize(c.warm_refine_limit);

    let mut queries = Vec::new();
    queries.put_usize(state.queries.len());
    for q in &state.queries {
        q.encode_into(&mut queries);
    }

    let mut points = Vec::new();
    points.put_usize(state.point_pool.len());
    for p in &state.point_pool {
        put_f64s(&mut points, p);
    }

    let mut model = Vec::new();
    match &state.model {
        None => model.put_u32(0),
        Some((rects, weights)) => {
            model.put_u32(1);
            model.put_usize(rects.len());
            for rect in rects {
                encode_rect(&mut model, rect);
            }
            put_f64s(&mut model, weights);
        }
    }

    let mut misc = Vec::new();
    for w in state.rng_state {
        misc.put_u64(w);
    }
    misc.put_usize(state.pending_since_refine);
    misc.put_u64(state.version);

    let trainer = state.trainer.as_ref().map(|t| {
        let mut buf = Vec::new();
        buf.put_usize(t.subpops.len());
        for rect in &t.subpops {
            encode_rect(&mut buf, rect);
        }
        put_matrix(&mut buf, &t.q);
        put_matrix(&mut buf, &t.a);
        put_f64s(&mut buf, &t.s);
        put_matrix(&mut buf, &t.gram);
        put_f64s(&mut buf, &t.ats);
        put_matrix(&mut buf, &t.factor_lower);
        buf.put_f64(t.solver_scale);
        put_f64s(&mut buf, &t.pending_rows);
        put_f64s(&mut buf, &t.pending_solved);
        buf.put_usize(t.pending_rank);
        buf.put_f64(t.lambda);
        buf.put_f64(t.ridge_abs);
        buf.put_usize(t.warm_refines);
        buf
    });

    let mut sections: Vec<([u8; 4], &[u8])> = vec![
        (*b"DOMN", &domain),
        (*b"CONF", &config),
        (*b"QRYS", &queries),
        (*b"PNTS", &points),
        (*b"MODL", &model),
        (*b"MISC", &misc),
    ];
    if let Some(t) = &trainer {
        sections.push((*b"TRNR", t));
    }
    write_container(STATE_MAGIC, 1, &sections)
}

#[test]
fn v1_checkpoints_still_decode_and_recover() {
    // A trained estimator whose state is expressible in v1: unbounded
    // history (no compaction), no eviction downdates pending.
    let est = trained(11, 5);
    let state = est.export_state();
    assert_eq!(state.compacted_len, 0, "fixture must be v1-expressible");
    assert!(state.trainer.as_ref().unwrap().pending_signs.iter().all(|&s| s == 1.0));

    let v1_bytes = encode_state_v1(&state);
    let decoded = decode_state(&v1_bytes).expect("v1 container must decode");

    // Migration fills the new fields with v1 semantics.
    assert_eq!(decoded.config.max_history, usize::MAX);
    assert_eq!(decoded.point_counts.len(), decoded.queries.len());
    let total: u64 = decoded.point_counts.iter().map(|&c| u64::from(c)).sum();
    assert_eq!(total, decoded.point_pool.len() as u64);
    assert_eq!(decoded.compacted_len, 0);
    assert_eq!(decoded.evicted_total, 0);
    assert!(!decoded.force_cold);

    // And the migrated state restores to a serving estimator with
    // bit-identical estimates…
    let mut restored = QuickSel::try_from_state(decoded).expect("migrated state must restore");
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }
    assert_eq!(restored.observed_count(), est.observed_count());

    // …that resumes **warm**: the cached trainer survived migration, so
    // the first post-restore refine folds new feedback incrementally.
    restored.observe_batch(&(0..3).map(|j| obs(900 + j)).collect::<Vec<_>>());
    match restored.refine().expect("post-migration refine") {
        RefineOutcome::Retrained { incremental, .. } => assert!(incremental),
        other => panic!("expected a retrain, got {other:?}"),
    }
    for p in probes() {
        let e = restored.estimate(&p);
        assert!((0.0..=1.0).contains(&e));
    }
}

#[test]
fn v1_point_pool_mismatch_is_rejected() {
    // A v1 capture whose pool length contradicts the points-per-query
    // reconstruction rule must fail migration with a typed error.
    let est = trained(12, 3);
    let mut state = est.export_state();
    state.point_pool.pop();
    let v1_bytes = encode_state_v1(&state);
    assert!(matches!(decode_state(&v1_bytes), Err(PersistError::Invalid { .. })));
}

#[test]
fn v1_absurd_pending_rank_is_a_typed_error() {
    // A v1 trainer section whose pending rank claims 2⁴⁰ rows against an
    // empty pending list: decoding must refuse it with a typed error
    // instead of sizing an allocation from it.
    let est = trained(13, 3);
    let mut state = est.export_state();
    state.trainer.as_mut().unwrap().pending_rank = 1 << 40;
    let v1_bytes = encode_state_v1(&state);
    assert!(matches!(decode_state(&v1_bytes), Err(PersistError::Invalid { .. })));
}

/// Rewrites a capture the way a trainer with a Woodbury solver wrote
/// it: the last `k` constraint rows pending on top of a factor of the
/// system without them, each with its cached base-system solve.
fn with_woodbury_pending_rows(state: &mut QuickSelState, k: usize) {
    let t = state.trainer.as_mut().unwrap();
    let m = t.subpops.len();
    let rows = t.a.as_slice()[(t.a.rows() - k) * m..].to_vec();
    let mut base = t.gram.clone();
    for r in rows.chunks(m) {
        for (i, &ri) in r.iter().enumerate() {
            for (j, &rj) in r.iter().enumerate() {
                base.add_to(i, j, -ri * rj);
            }
        }
    }
    let mut system = t.q.clone();
    system.add_scaled(t.lambda, &base);
    system.add_diagonal(t.ridge_abs);
    let factor = factor_spd(&system).unwrap();
    t.factor_lower = factor.l().clone();
    t.solver_scale = t.lambda;
    t.pending_solved = rows.chunks(m).flat_map(|r| factor.solve(r)).collect();
    t.pending_rows = rows;
    t.pending_signs = vec![1.0; k];
    t.pending_rank = k;
}

#[test]
fn capture_with_woodbury_pending_rows_restores_and_resumes_warm() {
    let est = trained(11, 3);
    let mut state = est.export_state();
    assert!(!state.force_cold, "fixture must resume warm");
    let t = state.trainer.as_ref().unwrap();
    assert!(t.pending_rank == 0 && t.pending_rows.is_empty(), "new captures carry no pending rows");
    assert!(t.pending_solved.is_empty() && t.pending_signs.is_empty());
    with_woodbury_pending_rows(&mut state, 8);
    let decoded = decode_state(&encode_state(&state)).expect("a pending capture decodes");

    // The restored trainer answers for its captured system, as a fresh
    // factorization of `Q + λAᵀA + εI` does, and refines warm.
    let t = decoded.trainer.clone().unwrap();
    let mut system = t.q.clone();
    system.add_scaled(t.lambda, &t.gram);
    system.add_diagonal(t.ridge_abs);
    let rhs: Vec<f64> = t.ats.iter().map(|v| v * t.lambda).collect();
    let fresh = solve_spd(&system, &rhs).unwrap();
    let mut trainer = IncrementalTrainer::try_from_state(t).expect("a pending capture restores");
    let (model, report) = trainer.refine(&[]).unwrap();
    assert!(report.assembly_reused);
    let scale = fresh.iter().fold(0.0f64, |m, w| m.max(w.abs()));
    for (w, f) in model.weights().iter().zip(&fresh) {
        assert!((w - f).abs() <= 1e-9 * scale, "restored {w} vs fresh {f}");
    }

    // The estimator restores with bit-identical estimates, resumes
    // warm, and its next capture carries no pending rows.
    let mut restored = QuickSel::try_from_state(decoded).expect("estimator restores");
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }
    restored.observe_batch(&(0..4).map(|j| obs(700 + j)).collect::<Vec<_>>());
    match restored.refine().expect("post-restore refine") {
        RefineOutcome::Retrained { incremental, .. } => assert!(incremental),
        other => panic!("expected a retrain, got {other:?}"),
    }
    assert_eq!(restored.export_state().trainer.unwrap().pending_rank, 0);
}

#[test]
fn bounded_history_state_round_trips_exactly() {
    // A capture that exercises every v2 field: compacted prefix,
    // eviction counters, drift state, point counts.
    let mut est = QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(24)
        .seed(77)
        .max_history(8)
        .build();
    for b in 0..10 {
        est.observe_batch(&(0..4).map(|j| obs(b * 4 + j)).collect::<Vec<_>>());
        est.refine().expect("train");
    }
    let state = est.export_state();
    assert!(state.compacted_len > 0, "fixture must have compacted history");
    assert!(state.evicted_total > 0);

    let bytes = est.save_state().expect("save");
    let restored = QuickSel::load_state(&bytes).expect("load");
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }

    // Continuation equivalence: same feedback → same trajectory, through
    // further evictions.
    let mut a = est;
    let mut b = restored;
    for e in 0..4 {
        let batch: Vec<ObservedQuery> = (0..3).map(|j| obs(500 + e * 3 + j)).collect();
        a.observe_batch(&batch);
        b.observe_batch(&batch);
        assert_eq!(a.refine().is_ok(), b.refine().is_ok());
    }
    for p in probes() {
        assert_eq!(a.estimate(&p), b.estimate(&p));
    }
}

#[test]
fn decode_encode_decode_is_a_fixed_point() {
    let bytes = trained(8, 5).save_state().expect("save");
    let state = decode_state(&bytes).expect("decode");
    let re = encode_state(&state);
    assert_eq!(bytes, re, "encoding is not canonical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random training histories round-trip to bit-identical estimates,
    /// and keep producing identical estimates after further training.
    #[test]
    fn prop_state_round_trip_is_exact(
        seed in 0..1000u64,
        batches in 0..8usize,
        extra in 1..4usize,
    ) {
        let est = trained(seed, batches);
        let restored = QuickSel::load_state(&est.save_state().expect("save")).expect("load");
        for p in probes() {
            prop_assert_eq!(est.estimate(&p), restored.estimate(&p));
        }
        // Diverge-free continuation: same feedback → same trajectory.
        let mut a = est;
        let mut b = restored;
        for e in 0..extra {
            let batch: Vec<ObservedQuery> =
                (0..3).map(|j| obs(1000 + e * 3 + j)).collect();
            a.observe_batch(&batch);
            b.observe_batch(&batch);
            let ra = a.refine();
            let rb = b.refine();
            prop_assert_eq!(ra.is_ok(), rb.is_ok());
        }
        for p in probes() {
            prop_assert_eq!(a.estimate(&p), b.estimate(&p));
        }
    }
}
