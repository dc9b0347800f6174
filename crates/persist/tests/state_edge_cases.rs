//! Serialization edge cases for the estimator state format: every
//! corruption mode returns a **typed** [`PersistError`] (never a
//! panic), hostile states are rejected before they can violate core
//! invariants, and valid states — including the degenerate ones —
//! round-trip to bit-identical estimates.

use proptest::prelude::*;
use quicksel_core::{
    IncrementalTrainer, QuickSel, QuickSelState, RefinePolicy, StateError, SubpopGrid, TrainerState,
};
use quicksel_data::{Estimate, Learn, ObservedQuery, RefineOutcome};
use quicksel_geometry::{Domain, Interval, Rect};
use quicksel_linalg::{factor_spd, solve_spd, DMatrix};
use quicksel_persist::format::{write_container, Container, PutBytes};
use quicksel_persist::{
    decode_state, encode_domain, encode_rect, encode_state, PersistError, PersistLearner,
    STATE_MAGIC, STATE_VERSION,
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

    // λ must be positive and finite, in the config and in the trainer: a
    // trainer folds rows into its factor scaled by √λ.
    for lambda in [0.0, -1.0, f64::NAN] {
        let mut bad = good.clone();
        bad.config.lambda = lambda;
        let refused = matches!(QuickSel::try_from_state(bad), Err(StateError::Invalid { .. }));
        assert!(refused, "config λ {lambda} was accepted");
    }
    for lambda in [0.0, -1.0] {
        let mut bad = good.clone();
        bad.trainer.as_mut().expect("trained").lambda = lambda;
        let refused = matches!(QuickSel::try_from_state(bad), Err(StateError::Invalid { .. }));
        assert!(refused, "trainer λ {lambda} was accepted");
    }

    // The unmodified state still loads — the rejections above are about
    // the mutations, not the fixture.
    assert!(QuickSel::try_from_state(good).is_ok());
}

/// The trainer fields that v1 and v2 captures carried and v3 dropped,
/// and the warm-refine count they wrote.
struct LegacyTrainer {
    q: DMatrix,
    gram: DMatrix,
    factor_lower: DMatrix,
    solver_scale: f64,
    pending_rows: Vec<f64>,
    pending_solved: Vec<f64>,
    pending_signs: Vec<f64>,
    pending_rank: usize,
    warm_refine_count: usize,
}

impl LegacyTrainer {
    /// What a build of that era wrote beside `t`: `Q` and `AᵀA`
    /// (assembled fresh here), the factor, no pending rows, and no warm
    /// refines yet.
    fn of(t: &TrainerState) -> Self {
        Self {
            q: SubpopGrid::new(&t.subpops).assemble_q(),
            gram: t.a.to_dense().gram(),
            factor_lower: t.factor_lower.clone(),
            solver_scale: t.lambda,
            pending_rows: Vec::new(),
            pending_solved: Vec::new(),
            pending_signs: Vec::new(),
            pending_rank: 0,
            warm_refine_count: 0,
        }
    }
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.put_usize(xs.len());
    for &v in xs {
        out.put_f64(v);
    }
}

fn put_matrix(out: &mut Vec<u8>, m: &DMatrix) {
    out.put_usize(m.rows());
    out.put_usize(m.cols());
    for &v in m.as_slice() {
        out.put_f64(v);
    }
}

/// A trainer section in the v1 (`version` 1) or v2 layout: dense `Q`,
/// `A` and `AᵀA`, the full square factor, and the Woodbury fields, with
/// the pending signs appended from v2 on.
fn legacy_trainer_section(t: &TrainerState, legacy: &LegacyTrainer, version: u16) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_usize(t.subpops.len());
    for rect in &t.subpops {
        encode_rect(&mut buf, rect);
    }
    put_matrix(&mut buf, &legacy.q);
    put_matrix(&mut buf, &t.a.to_dense());
    put_f64s(&mut buf, &t.s);
    put_matrix(&mut buf, &legacy.gram);
    put_f64s(&mut buf, &t.ats);
    put_matrix(&mut buf, &legacy.factor_lower);
    buf.put_f64(legacy.solver_scale);
    put_f64s(&mut buf, &legacy.pending_rows);
    put_f64s(&mut buf, &legacy.pending_solved);
    buf.put_usize(legacy.pending_rank);
    buf.put_f64(t.lambda);
    buf.put_f64(t.ridge_abs);
    buf.put_usize(legacy.warm_refine_count);
    if version >= 2 {
        put_f64s(&mut buf, &legacy.pending_signs);
    }
    buf
}

const SECTIONS_BEFORE_TRAINER: [[u8; 4]; 6] =
    [*b"DOMN", *b"CONF", *b"QRYS", *b"PNTS", *b"MODL", *b"MISC"];

/// Re-containers the current-format capture `bytes` as format `version`,
/// with its trainer section replaced by `trainer`.
fn with_trainer_section(bytes: &[u8], version: u16, trainer: &[u8]) -> Vec<u8> {
    let c = Container::open(STATE_MAGIC, STATE_VERSION, bytes).expect("a current capture");
    let mut sections: Vec<([u8; 4], &[u8])> = SECTIONS_BEFORE_TRAINER
        .into_iter()
        .map(|tag| (tag, c.section(tag).expect("section present")))
        .collect();
    sections.push((*b"TRNR", trainer));
    write_container(STATE_MAGIC, version, &sections)
}

/// The warm-refine limit every v1 build wrote: its default.
const V1_WARM_REFINE_LIMIT: usize = 64;

/// Serializes a capture in the exact **v1** container layout: config
/// stops after the warm-refine limit, MISC stops after the training
/// version, the trainer carries no pending signs, and there is no
/// point-count/compaction/drift bookkeeping anywhere. This pins the
/// pre-bounded-history format byte for byte, so checkpoints written by
/// older builds keep decoding. `training_tag` is 0 for the analytic
/// solve and 1 for the standard QP.
fn encode_state_v1(state: &QuickSelState, training_tag: u32, legacy: &LegacyTrainer) -> Vec<u8> {
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
    config.put_u32(training_tag);
    config.put_u64(c.seed);
    config.put_usize(V1_WARM_REFINE_LIMIT);

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

    let trainer = state.trainer.as_ref().map(|t| legacy_trainer_section(t, legacy, 1));

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

/// Serializes a trained capture in the exact **v2** container layout.
/// v2 differs from the current format only in its trainer section (see
/// [`legacy_trainer_section`]), so the other sections are the current
/// encoder's.
fn encode_state_v2(state: &QuickSelState, legacy: &LegacyTrainer) -> Vec<u8> {
    let t = state.trainer.as_ref().expect("a trained capture");
    with_trainer_section(&encode_state(state), 2, &legacy_trainer_section(t, legacy, 2))
}

#[test]
fn v1_checkpoints_still_decode_and_recover() {
    // A trained estimator whose state is expressible in v1: unbounded
    // history (no compaction), no eviction downdates pending.
    let est = trained(11, 5);
    let state = est.export_state();
    assert_eq!(state.compacted_len, 0, "fixture must be v1-expressible");
    let t = state.trainer.as_ref().unwrap();
    // The trainer has used up the limit v1 wrote; the limit is ignored
    // on restore.
    let legacy = LegacyTrainer { warm_refine_count: V1_WARM_REFINE_LIMIT, ..LegacyTrainer::of(t) };

    let v1_bytes = encode_state_v1(&state, 0, &legacy);
    let decoded = decode_state(&v1_bytes).expect("v1 container must decode");

    // Migration fills the new fields with v1 semantics, and the dense
    // `A` becomes the sparse one the trainer held.
    assert_eq!(decoded.config.max_history, usize::MAX);
    assert_eq!(decoded.point_counts.len(), decoded.queries.len());
    let total: u64 = decoded.point_counts.iter().map(|&c| u64::from(c)).sum();
    assert_eq!(total, decoded.point_pool.len() as u64);
    assert_eq!(decoded.compacted_len, 0);
    assert_eq!(decoded.evicted_total, 0);
    assert!(!decoded.force_cold);
    let dt = decoded.trainer.as_ref().unwrap();
    assert_eq!(dt.a, t.a);
    assert!(!dt.legacy_pending_rows);

    // And the migrated state restores to a serving estimator with
    // bit-identical estimates…
    let mut restored = QuickSel::try_from_state(decoded).expect("migrated state must restore");
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }
    assert_eq!(restored.observed_count(), est.observed_count());

    // …that resumes **warm**: the cached trainer survived migration, and
    // no refine cap came with it, so the first post-restore refine folds
    // new feedback incrementally.
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
    let legacy = LegacyTrainer::of(state.trainer.as_ref().unwrap());
    let v1_bytes = encode_state_v1(&state, 0, &legacy);
    assert!(matches!(decode_state(&v1_bytes), Err(PersistError::Invalid { .. })));
}

#[test]
fn v1_standard_qp_captures_restore_to_the_analytic_solve() {
    // An estimator configured for the standard QP (training tag 1) kept a
    // model but cached no trainer.
    let mut state = trained(16, 3).export_state();
    let legacy = LegacyTrainer::of(state.trainer.as_ref().unwrap());
    state.trainer = None;
    let refit = |training_tag| {
        let bytes = encode_state_v1(&state, training_tag, &legacy);
        let mut restored = QuickSel::load_state(&bytes).expect("the capture restores");
        restored.observe_batch(&[obs(800), obs(801)]);
        let outcome = restored.refine().expect("post-restore refine");
        assert!(matches!(outcome, RefineOutcome::Retrained { incremental: false, .. }));
        restored.model().expect("retrained").weights().to_vec()
    };
    // Its next refine is the cold analytic build a tag-0 capture gets.
    assert_eq!(refit(1), refit(0));
    // Any other tag is refused.
    let unknown = encode_state_v1(&state, 2, &legacy);
    assert!(matches!(decode_state(&unknown), Err(PersistError::Invalid { .. })));
}

#[test]
fn v1_absurd_pending_rank_is_a_typed_error() {
    // A v1 trainer section whose pending rank claims 2⁴⁰ rows against an
    // empty pending list: decoding must refuse it with a typed error
    // instead of sizing an allocation from it.
    let est = trained(13, 3);
    let state = est.export_state();
    let mut legacy = LegacyTrainer::of(state.trainer.as_ref().unwrap());
    legacy.pending_rank = 1 << 40;
    let v1_bytes = encode_state_v1(&state, 0, &legacy);
    assert!(matches!(decode_state(&v1_bytes), Err(PersistError::Invalid { .. })));
}

#[test]
fn v2_checkpoints_decode_restore_exactly_and_refine_warm() {
    // A bounded-history capture, so every v2 field is in play.
    let mut est = QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(24)
        .seed(21)
        .max_history(8)
        .build();
    for b in 0..10 {
        est.observe_batch(&(0..4).map(|j| obs(b * 4 + j)).collect::<Vec<_>>());
        est.refine().expect("train");
    }
    let state = est.export_state();
    assert!(state.compacted_len > 0 && !state.force_cold, "fixture must be compacted and warm");
    let t = state.trainer.as_ref().unwrap();
    let v2_bytes = encode_state_v2(&state, &LegacyTrainer::of(t));
    assert_eq!(&v2_bytes[4..6], &2u16.to_le_bytes(), "the fixture is a v2 container");
    let decoded = decode_state(&v2_bytes).expect("v2 container must decode");
    assert!(!decoded.trainer.as_ref().unwrap().legacy_pending_rows);
    // Nothing the current format keeps was lost on the way.
    assert_eq!(encode_state(&decoded), encode_state(&state));

    // It restores with bit-identical estimates and, fed the same
    // feedback as its source, refines warm along the same trajectory.
    let mut restored = QuickSel::try_from_state(decoded).expect("v2 state must restore");
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }
    for e in 0..3 {
        let batch: Vec<ObservedQuery> = (0..4).map(|j| obs(600 + e * 4 + j)).collect();
        est.observe_batch(&batch);
        restored.observe_batch(&batch);
        est.refine().expect("source refine");
        match restored.refine().expect("restored refine") {
            RefineOutcome::Retrained { incremental, .. } => assert!(incremental),
            other => panic!("expected a retrain, got {other:?}"),
        }
    }
    for p in probes() {
        assert_eq!(est.estimate(&p), restored.estimate(&p));
    }
}

/// The legacy fields of a capture written by a trainer with a Woodbury
/// solver: the last `k` constraint rows pending on top of a factor of
/// the system without them, each with its cached base-system solve.
fn woodbury_pending(t: &TrainerState, k: usize) -> LegacyTrainer {
    let m = t.subpops.len();
    let a = t.a.to_dense();
    let rows = a.as_slice()[(a.rows() - k) * m..].to_vec();
    let mut legacy = LegacyTrainer::of(t);
    let mut base = legacy.gram.clone();
    for r in rows.chunks(m) {
        for (i, &ri) in r.iter().enumerate() {
            for (j, &rj) in r.iter().enumerate() {
                base.add_to(i, j, -ri * rj);
            }
        }
    }
    let mut system = legacy.q.clone();
    system.add_scaled(t.lambda, &base);
    system.add_diagonal(t.ridge_abs);
    let factor = factor_spd(&system).unwrap();
    legacy.factor_lower = factor.l().clone();
    legacy.solver_scale = t.lambda;
    legacy.pending_solved = rows.chunks(m).flat_map(|r| factor.solve(r)).collect();
    legacy.pending_rows = rows;
    legacy.pending_signs = vec![1.0; k];
    legacy.pending_rank = k;
    legacy
}

#[test]
fn capture_with_woodbury_pending_rows_restores_and_resumes_warm() {
    let est = trained(11, 3);
    let state = est.export_state();
    assert!(!state.force_cold, "fixture must resume warm");
    let t = state.trainer.as_ref().unwrap();
    assert!(!t.legacy_pending_rows, "new captures carry no pending rows");
    let bytes = encode_state_v2(&state, &woodbury_pending(t, 8));
    let decoded = decode_state(&bytes).expect("a pending capture decodes");
    let t = decoded.trainer.clone().unwrap();
    assert!(t.legacy_pending_rows, "the decoder marks a capture with pending rows");

    // The restored trainer answers for its system, assembled fresh, as a
    // fresh factorization of `Q + λAᵀA + εI` does, and refines warm.
    let a = t.a.to_dense();
    let mut system = SubpopGrid::new(&t.subpops).assemble_q();
    system.add_scaled(t.lambda, &a.gram());
    system.add_diagonal(t.ridge_abs);
    let rhs: Vec<f64> = t.ats.iter().map(|v| v * t.lambda).collect();
    let fresh = solve_spd(&system, &rhs).unwrap();
    let mut trainer = IncrementalTrainer::try_from_state(t).expect("a pending capture restores");
    let (model, report) = trainer.refine(&[]);
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
    assert!(!restored.export_state().trainer.unwrap().legacy_pending_rows);
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

#[test]
fn legacy_dense_matrix_headers_are_bounds_checked_before_skipping() {
    // A v2 trainer section whose skipped `Q` claims a shape past the
    // buffer, or one whose byte count overflows: typed errors, with
    // nothing allocated for the claim.
    let est = trained(15, 2);
    let state = est.export_state();
    let t = state.trainer.as_ref().unwrap();
    let section = legacy_trainer_section(t, &LegacyTrainer::of(t), 2);
    // `Q`'s (rows, cols) header follows the subpopulation count and the
    // supports.
    let dim = t.subpops[0].dim();
    let q_header = 8 + t.subpops.len() * (4 + 16 * dim);
    let bytes = encode_state(&state);
    for (rows, cols, truncated) in [(1u64 << 20, 1u64 << 20, true), (u64::MAX, 2, false)] {
        let mut hostile = section.clone();
        hostile[q_header..q_header + 8].copy_from_slice(&rows.to_le_bytes());
        hostile[q_header + 8..q_header + 16].copy_from_slice(&cols.to_le_bytes());
        match decode_state(&with_trainer_section(&bytes, 2, &hostile)) {
            Err(PersistError::Truncated { .. }) if truncated => {}
            Err(PersistError::Invalid { .. }) if !truncated => {}
            other => panic!("Q header {rows}×{cols}: unexpected {other:?}"),
        }
    }
}

/// A v3 trainer section written field by field, independently of the
/// codec, so a test can pin the layout and corrupt any part of it.
#[derive(Clone)]
struct V3Trainer {
    subpops: Vec<Rect>,
    /// Per constraint row: the nonzero count it claims, its columns and
    /// its values.
    rows: Vec<(u32, Vec<u32>, Vec<f64>)>,
    s: Vec<f64>,
    ats: Vec<f64>,
    factor_order: u64,
    /// The factor's lower triangle, row by row.
    factor: Vec<f64>,
    lambda: f64,
    ridge_abs: f64,
    /// The reserved warm-refine count.
    reserved_count: u64,
}

impl V3Trainer {
    fn of(t: &TrainerState) -> Self {
        let rows = (0..t.a.rows())
            .map(|r| {
                let (cols, vals) = t.a.row(r);
                (cols.len() as u32, cols.to_vec(), vals.to_vec())
            })
            .collect();
        let order = t.factor_lower.rows();
        let factor = (0..order).flat_map(|i| t.factor_lower.row(i)[..=i].to_vec()).collect();
        Self {
            subpops: t.subpops.clone(),
            rows,
            s: t.s.clone(),
            ats: t.ats.clone(),
            factor_order: order as u64,
            factor,
            lambda: t.lambda,
            ridge_abs: t.ridge_abs,
            reserved_count: 0,
        }
    }

    /// The section's prefix, up to and including the constraint rows.
    fn encode_through_rows(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_usize(self.subpops.len());
        for rect in &self.subpops {
            encode_rect(&mut buf, rect);
        }
        buf.put_usize(self.rows.len());
        for (nnz, cols, vals) in &self.rows {
            buf.put_u32(*nnz);
            for &c in cols {
                buf.put_u32(c);
            }
            for &v in vals {
                buf.put_f64(v);
            }
        }
        buf
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = self.encode_through_rows();
        put_f64s(&mut buf, &self.s);
        put_f64s(&mut buf, &self.ats);
        buf.put_u64(self.factor_order);
        for &v in &self.factor {
            buf.put_f64(v);
        }
        buf.put_f64(self.lambda);
        buf.put_f64(self.ridge_abs);
        buf.put_u64(self.reserved_count);
        buf
    }
}

#[test]
fn v3_captures_round_trip_byte_for_byte() {
    let mut bounded = QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(24)
        .seed(31)
        .max_history(8)
        .build();
    for b in 0..10 {
        bounded.observe_batch(&(0..4).map(|j| obs(b * 4 + j)).collect::<Vec<_>>());
        bounded.refine().expect("train");
    }
    assert_eq!(STATE_VERSION, 3);
    for est in [trained(9, 6), bounded] {
        let bytes = est.save_state().expect("save");
        assert_eq!(&bytes[4..6], &STATE_VERSION.to_le_bytes());
        let state = decode_state(&bytes).expect("decode");
        assert_eq!(encode_state(&state), bytes, "encoding is not canonical");
        // The trainer section is exactly the documented v3 layout: sparse
        // rows and the factor's lower triangle, nothing of `Q` or `AᵀA`.
        let c = Container::open(STATE_MAGIC, STATE_VERSION, &bytes).expect("open");
        let t = state.trainer.as_ref().expect("trained");
        assert_eq!(c.section(*b"TRNR").expect("trainer section"), V3Trainer::of(t).encode());
    }
}

#[test]
fn hostile_v3_trainer_sections_are_typed_errors() {
    let bytes = trained(14, 4).save_state().expect("save");
    let state = decode_state(&bytes).expect("decode");
    let good = V3Trainer::of(state.trainer.as_ref().expect("trained"));
    let m = good.subpops.len() as u32;
    assert!(good.rows[1].1.len() >= 2, "the fixture's first query row needs two nonzeros");
    let load = |section: &[u8]| {
        QuickSel::load_state(&with_trainer_section(&bytes, STATE_VERSION, section)).err()
    };
    let edited = |edit: &dyn Fn(&mut V3Trainer)| {
        let mut t = good.clone();
        edit(&mut t);
        t.encode()
    };
    let invalid = |section: Vec<u8>| matches!(load(&section), Some(PersistError::Invalid { .. }));
    let truncated =
        |section: Vec<u8>| matches!(load(&section), Some(PersistError::Truncated { .. }));
    assert!(load(&good.encode()).is_none(), "the unedited section loads");
    // The reserved warm-refine count is read and ignored.
    assert!(load(&edited(&|t| t.reserved_count = 7)).is_none());

    // A column at or past m.
    assert!(invalid(edited(&|t| *t.rows[1].1.last_mut().unwrap() = m)));
    // Unsorted columns, then a repeated one.
    assert!(invalid(edited(&|t| t.rows[1].1.swap(0, 1))));
    assert!(invalid(edited(&|t| t.rows[1].1[1] = t.rows[1].1[0])));
    // A row claiming more nonzeros than there are columns is refused
    // before any of its entries are read.
    assert!(invalid(edited(&|t| t.rows[1].0 = m + 1)));
    assert!(invalid(edited(&|t| t.rows[1].0 = u32::MAX)));
    // A row whose claimed entries run past the end of the section.
    let mut cut = good.clone();
    cut.rows.truncate(2);
    cut.rows[1] = (m, Vec::new(), Vec::new());
    assert!(truncated(cut.encode_through_rows()));
    // Absurd factor orders: one whose entry count overflows, and one
    // whose entries run past the buffer.
    assert!(invalid(edited(&|t| t.factor_order = u64::MAX)));
    assert!(truncated(edited(&|t| t.factor_order = 1 << 20)));
    // Non-finite entries in `A`, in `s` and below the factor's diagonal
    // decode, and the restore refuses them.
    assert!(invalid(edited(&|t| t.rows[1].2[0] = f64::NAN)));
    assert!(invalid(edited(&|t| t.s[1] = f64::INFINITY)));
    assert!(invalid(edited(&|t| t.factor[1] = f64::NAN)));
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
