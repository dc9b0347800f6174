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
//! A case fails when an error exceeds its committed value by more than
//! [`TOLERANCE`] (relative). A change that improves accuracy lowers the
//! committed values in the same diff; one that raises a value is an
//! accuracy regression and says so, with the measurement. Every input
//! is seeded and training is deterministic at any thread count, so the
//! measured values are the same on every run.

use quicksel::data::datasets::{dmv, gaussian_table, instacart};
use quicksel::data::mean_rel_error_pct;
use quicksel::prelude::*;

/// Relative tolerance on every committed error.
const TOLERANCE: f64 = 0.05;

/// Seed of every case's OOD probe generator.
const OOD_SEED: u64 = 0;

/// Mean relative error (%) of the estimator trained on `table` by the
/// gate's protocol, on the in-distribution and the OOD probe sets.
fn measure(table: &Table, seed: u64) -> (f64, f64) {
    let domain = table.domain().clone();
    let mut workload =
        RectWorkload::new(domain.clone(), seed, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let mut qs = QuickSel::builder(domain.clone()).refine_policy(RefinePolicy::EveryK(25)).build();
    for q in workload.take_queries(table, 100) {
        qs.observe(&q);
    }
    let mut ood = RectWorkload::new(domain, OOD_SEED, ShiftMode::Random, CenterMode::Uniform)
        .with_width_frac(0.1, 0.4);
    let error = |probes: Vec<ObservedQuery>| {
        let rects: Vec<Rect> = probes.iter().map(|q| q.rect.clone()).collect();
        let pairs: Vec<(f64, f64)> =
            probes.iter().map(|q| q.selectivity).zip(qs.estimate_many(&rects)).collect();
        mean_rel_error_pct(&pairs)
    };
    (error(workload.take_queries(table, 200)), error(ood.take_queries(table, 200)))
}

/// Checks both measured errors against their committed values and
/// reports every breach at once.
fn gate(case: &str, (in_dist, ood): (f64, f64), committed: (f64, f64)) {
    let breaches: Vec<String> =
        [("in-distribution", in_dist, committed.0), ("OOD", ood, committed.1)]
            .into_iter()
            .filter(|&(_, measured, bound)| measured > bound * (1.0 + TOLERANCE))
            .map(|(split, measured, bound)| {
                format!("{case} {split}: measured {measured:.2}%, committed {bound:.2}%")
            })
            .collect();
    assert!(breaches.is_empty(), "accuracy regressed beyond {TOLERANCE}: {breaches:?}");
}

#[test]
fn gaussian_accuracy_holds() {
    let table = gaussian_table(2, 0.5, 20_000, 11);
    gate("gaussian", measure(&table, 1), (1.47, 28.05));
}

#[test]
fn dmv_accuracy_holds() {
    let table = dmv::dmv_table(30_000, 12);
    gate("dmv", measure(&table, 2), (8.18, 39.26));
}

#[test]
fn instacart_accuracy_holds() {
    let table = instacart::instacart_table(30_000, 13);
    gate("instacart", measure(&table, 3), (6.31, 67.19));
}
