//! Accuracy gate: the estimator's error on fixed workloads, held to
//! committed values.
//!
//! `end_to_end.rs` bounds errors loosely; this gate pins them. Each case
//! trains QuickSel on 100 `DataRow` queries of width 0.1–0.4 under
//! `RefinePolicy::EveryK(25)` (the `end_to_end.rs` protocol), then
//! measures the mean relative error on two probe sets of 200 queries:
//!
//! * **in-distribution** — the next 200 queries of the training
//!   generator;
//! * **out-of-distribution (OOD)** — 200 queries of a `CenterMode::Uniform`
//!   generator with its own fixed seed, centred anywhere in the domain
//!   rather than on data rows.
//!
//! On each probe set the gate also counts two consistency faults of the
//! trained model, read from its raw (pre-clamp) estimates:
//!
//! * **out-of-range** — probes whose raw estimate lies outside [0, 1];
//! * **nested-pair violations** — probes whose widened copy (every side
//!   moved out by [`WIDEN_FRAC`] of its column's extent, clamped to the
//!   domain) estimates more than [`NESTED_SLACK`] below the probe itself,
//!   although it contains it.
//!
//! Each table is also measured on the serving path, the way a planner
//! sees it: an [`EstimatorRegistry`] table of [`SERVING_SHARDS`] shards
//! learns the same 100 queries through `observe_batch` in batches of 4
//! and answers the same probe sets through
//! `CardinalityProvider::estimate_many`. That case gates its errors only:
//! a sharded table has no single model to read raw estimates from.
//!
//! A case fails when an error exceeds its committed value by more than
//! [`TOLERANCE`] (relative), or when a count exceeds its committed value
//! at all: counts are exact. A change that improves accuracy lowers the
//! committed values in the same diff; one that raises a value is an
//! accuracy regression and says so, with the measurement. Every input
//! is seeded and training is deterministic at any thread count, so the
//! measured values are the same on every run.

use quicksel::data::datasets::{dmv, gaussian_table, instacart};
use quicksel::data::mean_rel_error_pct;
use quicksel::prelude::*;
use quicksel::Interval;

/// Relative tolerance on every committed error.
const TOLERANCE: f64 = 0.05;

/// Seed of every case's OOD probe generator.
const OOD_SEED: u64 = 0;

/// Shards of the serving-path case's registry table, as the net,
/// replication and engine fixtures register theirs.
const SERVING_SHARDS: usize = 2;

/// Fraction of its column's extent by which a nested-pair probe's
/// widened copy moves out on every side.
const WIDEN_FRAC: f64 = 0.1;

/// How far a widened copy's raw estimate may read below its probe's
/// before the pair counts as a violation.
const NESTED_SLACK: f64 = 1e-9;

/// `rect` with every side moved out by [`WIDEN_FRAC`] of its column's
/// extent, clamped to `domain`.
fn widened(domain: &Domain, rect: &Rect) -> Rect {
    let sides = rect.sides().iter().zip(domain.columns()).map(|(side, col)| {
        let pad = WIDEN_FRAC * col.bounds.length();
        Interval::new(side.lo - pad, side.hi + pad)
    });
    Rect::new(sides.collect()).clamp_to(&domain.full_rect())
}

/// The gate's queries on `table`: the 100 training queries, then the
/// in-distribution and the OOD probe sets.
fn queries(table: &Table, seed: u64) -> (Vec<ObservedQuery>, [Vec<ObservedQuery>; 2]) {
    let domain = table.domain();
    let mut workload =
        RectWorkload::new(domain.clone(), seed, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let mut ood =
        RectWorkload::new(domain.clone(), OOD_SEED, ShiftMode::Random, CenterMode::Uniform)
            .with_width_frac(0.1, 0.4);
    let training = workload.take_queries(table, 100);
    (training, [workload.take_queries(table, 200), ood.take_queries(table, 200)])
}

/// What the estimator trained on `training` measures on each probe set:
/// the mean relative error (%) of its clamped estimates, its out-of-range
/// count and its nested-pair violations.
fn measure(
    domain: &Domain,
    training: &[ObservedQuery],
    probe_sets: &[Vec<ObservedQuery>; 2],
) -> [(f64, usize, usize); 2] {
    let mut qs = QuickSel::builder(domain.clone()).refine_policy(RefinePolicy::EveryK(25)).build();
    for q in training {
        qs.observe(q);
    }
    let model = qs.model().expect("100 observations train a model");
    probe_sets.each_ref().map(|probes| {
        let rects: Vec<Rect> = probes.iter().map(|q| q.rect.clone()).collect();
        let pairs: Vec<(f64, f64)> =
            probes.iter().map(|q| q.selectivity).zip(qs.estimate_many(&rects)).collect();
        let raw: Vec<f64> = rects.iter().map(|r| model.estimate_raw(r)).collect();
        let out_of_range = raw.iter().filter(|e| !(0.0..=1.0).contains(*e)).count();
        let violations = rects
            .iter()
            .zip(&raw)
            .filter(|&(r, e)| model.estimate_raw(&widened(domain, r)) < e - NESTED_SLACK)
            .count();
        (mean_rel_error_pct(&pairs), out_of_range, violations)
    })
}

/// The mean relative error (%) on each probe set of a registry table of
/// [`SERVING_SHARDS`] shards, fed `training` through `observe_batch` in
/// batches of 4 and probed through `CardinalityProvider::estimate_many`.
fn measure_serving_path(
    domain: &Domain,
    training: &[ObservedQuery],
    probe_sets: &[Vec<ObservedQuery>; 2],
) -> [f64; 2] {
    let registry = EstimatorRegistry::new();
    let t = TableId::from("t");
    registry.register_with(t.clone(), domain.clone(), SERVING_SHARDS, |i| {
        QuickSel::builder(domain.clone())
            .refine_policy(RefinePolicy::EveryK(25))
            .seed(0x5EED + i as u64)
            .build()
    });
    for batch in training.chunks(4) {
        registry.observe_batch(&t, batch);
    }
    assert_eq!(registry.stats().total.queries_ingested, 100, "the registry dropped feedback");
    probe_sets.each_ref().map(|probes| {
        let preds: Vec<Predicate> = probes.iter().map(|q| Predicate::from_rect(&q.rect)).collect();
        let pairs: Vec<(f64, f64)> =
            probes.iter().map(|q| q.selectivity).zip(registry.estimate_many(&t, &preds)).collect();
        mean_rel_error_pct(&pairs)
    })
}

/// Measures `table` both ways and checks the results against the
/// committed values: `committed` for the estimator (errors and counts),
/// `serving_path` for the registry table (errors). Reports every breach
/// at once.
fn gate(
    case: &str,
    table: &Table,
    seed: u64,
    committed: [(f64, usize, usize); 2],
    serving_path: [f64; 2],
) {
    let (training, probe_sets) = queries(table, seed);
    let measured = measure(table.domain(), &training, &probe_sets);
    let served = measure_serving_path(table.domain(), &training, &probe_sets);
    let mut breaches = Vec::new();
    for (i, split) in ["in-distribution", "OOD"].into_iter().enumerate() {
        let ((error, oor, nested), (max_error, max_oor, max_nested)) = (measured[i], committed[i]);
        for (path, error, max_error) in
            [("", error, max_error), (" serving path", served[i], serving_path[i])]
        {
            if error > max_error * (1.0 + TOLERANCE) {
                breaches.push(format!(
                    "{case}{path} {split}: measured {error:.2}%, committed {max_error:.2}%"
                ));
            }
        }
        if oor > max_oor || nested > max_nested {
            breaches.push(format!(
                "{case} {split}: {oor} out-of-range, {nested} nested-pair violations; \
                 committed {max_oor}, {max_nested}"
            ));
        }
    }
    assert!(breaches.is_empty(), "accuracy regressed (error tolerance {TOLERANCE}): {breaches:?}");
}

#[test]
fn gaussian_accuracy_holds() {
    let table = gaussian_table(2, 0.5, 20_000, 11);
    gate("gaussian", &table, 1, [(1.47, 0, 0), (28.05, 9, 10)], [2.74, 42.75]);
}

#[test]
fn dmv_accuracy_holds() {
    let table = dmv::dmv_table(30_000, 12);
    gate("dmv", &table, 2, [(8.18, 0, 0), (39.26, 29, 36)], [17.56, 52.71]);
}

#[test]
fn instacart_accuracy_holds() {
    let table = instacart::instacart_table(30_000, 13);
    gate("instacart", &table, 3, [(6.31, 0, 0), (67.19, 1, 0)], [11.81, 88.87]);
}
