//! Batched-vs-scalar equivalence at the estimator/snapshot level: the
//! `Estimate::estimate_many` overrides of `QuickSel` and `ModelSnapshot`,
//! both served by the published model's kernel over the shared support
//! columns, must compare equal to per-rect `estimate`, on both the
//! trained-model and uniform-prior paths. Also pins that one cold
//! build's supports are shared, not copied, by every model and snapshot
//! its warm refines publish.

use quicksel_core::{ModelSnapshot, QuickSel, RefinePolicy};
use quicksel_data::{Estimate, Learn, ObservedQuery, RefineOutcome};
use quicksel_geometry::{Domain, Rect};

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn probes() -> Vec<Rect> {
    let mut out: Vec<Rect> = (0..40)
        .map(|i| {
            let lo = (i % 9) as f64;
            let w = 0.5 + (i % 5) as f64;
            Rect::from_bounds(&[(lo, (lo + w).min(10.0)), ((i % 4) as f64, (i % 4 + 3) as f64)])
        })
        .collect();
    out.push(Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)])); // full domain
    out.push(Rect::from_bounds(&[(3.0, 3.0), (0.0, 10.0)])); // zero volume
    out.push(Rect::from_bounds(&[(-50.0, 50.0), (-50.0, 50.0)])); // out of domain
    out
}

fn trained() -> QuickSel {
    let mut qs = QuickSel::builder(domain()).refine_policy(RefinePolicy::Manual).seed(11).build();
    let feedback: Vec<ObservedQuery> = (0..25)
        .map(|i| {
            let lo = (i % 6) as f64;
            let rect = Rect::from_bounds(&[(lo, lo + 3.0), (0.0, (i % 7 + 2) as f64)]);
            ObservedQuery::new(rect, 0.1 + (i % 8) as f64 * 0.1)
        })
        .collect();
    qs.observe_batch(&feedback);
    qs.refine().expect("training failed");
    qs
}

#[test]
fn untrained_estimator_and_snapshot_batch_the_prior() {
    let qs = QuickSel::new(domain());
    let snap = qs.snapshot();
    assert!(snap.model().is_none(), "no model yet ⇒ the prior answers");
    let probes = probes();
    for (p, (e, s)) in
        probes.iter().zip(qs.estimate_many(&probes).into_iter().zip(snap.estimate_many(&probes)))
    {
        assert_eq!(e, qs.estimate(p), "estimator prior batch diverged");
        assert_eq!(s, snap.estimate(p), "snapshot prior batch diverged");
    }
}

#[test]
fn trained_estimator_batches_equal_scalar() {
    let qs = trained();
    assert!(qs.model().is_some());
    let probes = probes();
    let many = qs.estimate_many(&probes);
    for (p, &e) in probes.iter().zip(&many) {
        assert_eq!(e, qs.estimate(p));
    }
    // Single-element batches run the same kernel; still equal.
    for p in probes.iter().take(5) {
        assert_eq!(qs.estimate_many(std::slice::from_ref(p)), vec![qs.estimate(p)]);
    }
    assert!(qs.estimate_many(&[]).is_empty());
}

#[test]
fn snapshot_shares_the_model_and_batches_equal_scalar() {
    let qs = trained();
    let snap = qs.snapshot();
    let model = snap.model().expect("trained snapshot carries the model");
    assert_eq!(model.len(), qs.model().unwrap().len());
    assert_eq!(model.rects().as_ptr(), qs.model().unwrap().rects().as_ptr());
    let probes = probes();
    let many = snap.estimate_many(&probes);
    for (p, &e) in probes.iter().zip(&many) {
        assert_eq!(e, snap.estimate(p), "snapshot batch diverged from snapshot scalar");
        assert_eq!(e, qs.estimate(p), "snapshot diverged from its source estimator");
        assert_eq!(
            [e],
            *model.estimate_many(std::slice::from_ref(p)),
            "snapshot diverged from its model's kernel"
        );
    }
}

fn feedback(range: std::ops::Range<usize>) -> Vec<ObservedQuery> {
    range
        .map(|i| {
            let lo = (i % 7) as f64;
            let rect = Rect::from_bounds(&[(lo, lo + 2.5), ((i % 5) as f64, (i % 5 + 4) as f64)]);
            ObservedQuery::new(rect, 0.05 + (i % 9) as f64 * 0.08)
        })
        .collect()
}

fn incremental(outcome: RefineOutcome) -> bool {
    matches!(outcome, RefineOutcome::Retrained { incremental: true, .. })
}

fn rects_ptr(snap: &ModelSnapshot) -> *const Rect {
    snap.model().expect("trained").rects().as_ptr()
}

fn answer_bits(snap: &ModelSnapshot) -> Vec<u64> {
    snap.estimate_many(&probes()).iter().map(|e| e.to_bits()).collect()
}

#[test]
fn warm_refines_share_one_support_set() {
    let mut qs = QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(48)
        .seed(5)
        .build();
    qs.observe_batch(&feedback(0..20));
    qs.refine().expect("cold refine");
    let first = qs.snapshot();
    let first_bits = answer_bits(&first);
    let mut published = vec![first.clone()];
    for round in 0..4 {
        qs.observe_batch(&feedback(20 + 4 * round..24 + 4 * round));
        assert!(incremental(qs.refine().expect("warm refine")), "round {round} ran cold");
        published.push(qs.snapshot());
    }
    assert_ne!(answer_bits(&qs.snapshot()), first_bits, "the warm refines changed nothing");
    for (k, snap) in published.iter().enumerate() {
        assert_eq!(rects_ptr(snap), rects_ptr(&first), "snapshot {k} holds its own supports");
    }
    assert_eq!(qs.model().unwrap().rects().as_ptr(), rects_ptr(&first));
    // The first snapshot still answers from its own weights.
    assert_eq!(answer_bits(&first), first_bits);

    // Under the default policy m = 4n changes with every query, so each
    // refine is a cold build with supports of its own.
    let mut qs = QuickSel::builder(domain()).refine_policy(RefinePolicy::Manual).seed(5).build();
    qs.observe_batch(&feedback(0..10));
    qs.refine().expect("cold refine");
    let before = qs.snapshot();
    qs.observe_batch(&feedback(10..11));
    assert!(!incremental(qs.refine().expect("cold refine")));
    assert_ne!(rects_ptr(&qs.snapshot()), rects_ptr(&before), "a cold build reused supports");
}
