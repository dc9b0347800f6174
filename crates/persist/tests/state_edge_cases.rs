//! Serialization edge cases for the estimator state format: every
//! corruption mode returns a **typed** [`PersistError`] (never a
//! panic), hostile states are rejected before they can violate core
//! invariants, and valid states — including the degenerate ones —
//! round-trip to bit-identical estimates.

use proptest::prelude::*;
use quicksel_core::{QuickSel, QuickSelConfig, RefinePolicy, StateError, TrainerState};
use quicksel_data::{Estimate, Learn, ObservedQuery, RefineOutcome};
use quicksel_geometry::{Domain, Interval, Rect};
use quicksel_persist::format::{write_container, Container, PutBytes};
use quicksel_persist::{
    decode_state, encode_rect, encode_state, PersistError, PersistLearner, STATE_MAGIC,
    STATE_VERSION,
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
    let good = trained(2, 2).save_state().expect("save");
    // The u16 version sits right after the 4-byte magic. This build reads
    // v3 only: older layouts and newer ones are refused alike.
    for version in [0u16, 1, 2, 4, 0x7FFF] {
        let mut bytes = good.clone();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        match QuickSel::load_state(&bytes).err() {
            Some(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (version, 3));
            }
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
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

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.put_usize(xs.len());
    for &v in xs {
        out.put_f64(v);
    }
}

/// Every section of a capture, in the encoder's order; `TRNR` is absent
/// from a capture without a trainer.
const SECTIONS: [[u8; 4]; 7] =
    [*b"DOMN", *b"CONF", *b"QRYS", *b"PNTS", *b"MODL", *b"MISC", *b"TRNR"];

/// Re-containers the capture `bytes` with its `tag` section replaced by
/// `section`.
fn with_section(bytes: &[u8], tag: [u8; 4], section: &[u8]) -> Vec<u8> {
    let c = Container::open(STATE_MAGIC, STATE_VERSION, bytes).expect("a current capture");
    let sections: Vec<([u8; 4], &[u8])> = SECTIONS
        .into_iter()
        .filter_map(|t| {
            let bytes = if t == tag { Some(section) } else { c.section_opt(t).expect("reads") };
            bytes.map(|b| (t, b))
        })
        .collect();
    write_container(STATE_MAGIC, STATE_VERSION, &sections)
}

#[test]
fn bounded_history_state_round_trips_exactly() {
    // A capture that exercises every field of the history budget and the
    // drift detector: compacted prefix, eviction counters, drift state,
    // point counts.
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

/// A v3 config section written field by field, independently of the
/// codec, so a test can pin the layout and edit its reserved slots. Each
/// reserved slot is a field of its own; the others come from `config`.
#[derive(Clone)]
struct V3Config {
    config: QuickSelConfig,
    size_neighbors: u64,
    training_tag: u32,
    warm_refine_limit: u64,
    drift_ratio: f64,
}

impl V3Config {
    /// The section the encoder writes for `config`.
    fn of(config: &QuickSelConfig) -> Self {
        Self {
            config: config.clone(),
            size_neighbors: 10,
            training_tag: 0,
            warm_refine_limit: u64::MAX,
            drift_ratio: 3.0,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let c = &self.config;
        let mut buf = Vec::new();
        buf.put_f64(c.lambda);
        buf.put_f64(c.ridge_rel);
        buf.put_usize(c.points_per_query);
        buf.put_usize(c.subpops_per_query);
        buf.put_usize(c.max_subpops);
        buf.put_u64(self.size_neighbors);
        buf.put_f64(c.overlap_factor);
        match c.refine_policy {
            RefinePolicy::EveryQuery => buf.put_u32(0),
            RefinePolicy::EveryK(k) => {
                buf.put_u32(1);
                buf.put_usize(k);
            }
            RefinePolicy::Manual => buf.put_u32(2),
        }
        buf.put_u32(self.training_tag);
        buf.put_u64(c.seed);
        buf.put_u64(self.warm_refine_limit);
        buf.put_usize(c.max_history);
        buf.put_f64(self.drift_ratio);
        buf.put_usize(c.drift_patience);
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
    let load =
        |section: &[u8]| QuickSel::load_state(&with_section(&bytes, *b"TRNR", section)).err();
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

#[test]
fn v3_config_reserved_slots_are_read_and_ignored() {
    // A capture with a model and no trainer section, as an estimator on
    // the standard QP (training tag 1), which cached no trainer, left it.
    let mut state = trained(16, 3).export_state();
    state.trainer = None;
    let bytes = encode_state(&state);
    let c = Container::open(STATE_MAGIC, STATE_VERSION, &bytes).expect("open");
    let good = V3Config::of(&state.config);
    assert_eq!(c.section(*b"CONF").expect("config section"), good.encode());
    let load = |edit: &dyn Fn(&mut V3Config)| {
        let mut conf = good.clone();
        edit(&mut conf);
        QuickSel::load_state(&with_section(&bytes, *b"CONF", &conf.encode()))
    };
    let refit = |edit: &dyn Fn(&mut V3Config)| {
        let mut restored = load(edit).expect("the capture restores");
        restored.observe_batch(&[obs(800), obs(801)]);
        let outcome = restored.refine().expect("post-restore refine");
        assert!(matches!(outcome, RefineOutcome::Retrained { incremental: false, .. }));
        restored.model().expect("retrained").weights().to_vec()
    };
    // Its next refine is the cold analytic build a tag-0 capture gets, and
    // other values in the other reserved slots change nothing either.
    let cold = refit(&|_| {});
    assert_eq!(refit(&|conf| conf.training_tag = 1), cold);
    assert_eq!(refit(&|conf| conf.warm_refine_limit = 64), cold);
    assert_eq!(refit(&|conf| conf.size_neighbors = 4), cold);
    assert_eq!(refit(&|conf| conf.drift_ratio = 4.0), cold);
    // Any other tag is refused.
    assert!(matches!(load(&|conf| conf.training_tag = 2), Err(PersistError::Invalid { .. })));
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
