//! Batched-vs-scalar equivalence at the estimator/snapshot level: the
//! `Estimate::estimate_many` overrides of `QuickSel` (freeze per call)
//! and `ModelSnapshot` (pre-frozen at publish) must compare equal to
//! per-rect `estimate`, on both the trained-model and uniform-prior
//! paths.

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::{Estimate, Learn, ObservedQuery};
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
    assert!(snap.frozen().is_none(), "no model yet ⇒ nothing to freeze");
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
    // Single-element batches take the no-freeze path; still equal.
    for p in probes.iter().take(5) {
        assert_eq!(qs.estimate_many(std::slice::from_ref(p)), vec![qs.estimate(p)]);
    }
    assert!(qs.estimate_many(&[]).is_empty());
}

#[test]
fn snapshot_prefreezes_and_batches_equal_scalar() {
    let qs = trained();
    let snap = qs.snapshot();
    let frozen = snap.frozen().expect("trained snapshot carries a frozen model");
    assert_eq!(frozen.len(), qs.model().unwrap().len());
    assert_eq!(frozen.dim(), 2);
    let probes = probes();
    let many = snap.estimate_many(&probes);
    for (p, &e) in probes.iter().zip(&many) {
        assert_eq!(e, snap.estimate(p), "snapshot batch diverged from snapshot scalar");
        assert_eq!(e, qs.estimate(p), "snapshot diverged from its source estimator");
        assert_eq!(e, frozen.estimate(p), "snapshot diverged from its own frozen kernel");
    }
}
