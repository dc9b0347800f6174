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

/// What the estimator trained on `table` by the gate's protocol measures
/// on the in-distribution and the OOD probe sets, in that order: the mean
/// relative error (%) of its clamped estimates, its out-of-range count and
/// its nested-pair violations.
fn measure(table: &Table, seed: u64) -> [(f64, usize, usize); 2] {
    let domain = table.domain().clone();
    let mut workload =
        RectWorkload::new(domain.clone(), seed, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let mut qs = QuickSel::builder(domain.clone()).refine_policy(RefinePolicy::EveryK(25)).build();
    for q in workload.take_queries(table, 100) {
        qs.observe(&q);
    }
    let mut ood =
        RectWorkload::new(domain.clone(), OOD_SEED, ShiftMode::Random, CenterMode::Uniform)
            .with_width_frac(0.1, 0.4);
    let model = qs.model().expect("100 observations train a model");
    let measured = |probes: Vec<ObservedQuery>| {
        let rects: Vec<Rect> = probes.iter().map(|q| q.rect.clone()).collect();
        let pairs: Vec<(f64, f64)> =
            probes.iter().map(|q| q.selectivity).zip(qs.estimate_many(&rects)).collect();
        let raw: Vec<f64> = rects.iter().map(|r| model.estimate_raw(r)).collect();
        let out_of_range = raw.iter().filter(|e| !(0.0..=1.0).contains(*e)).count();
        let violations = rects
            .iter()
            .zip(&raw)
            .filter(|&(r, e)| model.estimate_raw(&widened(&domain, r)) < e - NESTED_SLACK)
            .count();
        (mean_rel_error_pct(&pairs), out_of_range, violations)
    };
    [measured(workload.take_queries(table, 200)), measured(ood.take_queries(table, 200))]
}

/// Checks what [`measure`] read on both probe sets against the committed
/// values, and reports every breach at once.
fn gate(case: &str, measured: [(f64, usize, usize); 2], committed: [(f64, usize, usize); 2]) {
    let mut breaches = Vec::new();
    for ((split, (error, oor, nested)), (max_error, max_oor, max_nested)) in
        ["in-distribution", "OOD"].into_iter().zip(measured).zip(committed)
    {
        if error > max_error * (1.0 + TOLERANCE) {
            breaches
                .push(format!("{case} {split}: measured {error:.2}%, committed {max_error:.2}%"));
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
    gate("gaussian", measure(&table, 1), [(1.47, 0, 0), (28.05, 9, 10)]);
}

#[test]
fn dmv_accuracy_holds() {
    let table = dmv::dmv_table(30_000, 12);
    gate("dmv", measure(&table, 2), [(8.18, 0, 0), (39.26, 29, 36)]);
}

#[test]
fn instacart_accuracy_holds() {
    let table = instacart::instacart_table(30_000, 13);
    gate("instacart", measure(&table, 3), [(6.31, 0, 0), (67.19, 1, 0)]);
}
