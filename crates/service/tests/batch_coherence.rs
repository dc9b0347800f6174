//! Service-layer batched-estimation equivalence: at a fixed model
//! version, every batched path (sharded service, registry, learner
//! provider, cross-shard blend) must compare equal to its per-rect
//! scalar counterpart.

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Predicate, Rect};
use quicksel_service::{
    CardinalityProvider, EstimatorRegistry, LearnerProvider, ShardedService, TableId,
};

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn sharded(shards: usize) -> ShardedService<QuickSel> {
    let d = domain();
    ShardedService::new(d.clone(), shards, |i| {
        QuickSel::builder(d.clone()).refine_policy(RefinePolicy::Manual).seed(3 + i as u64).build()
    })
}

fn feed(svc: &ShardedService<QuickSel>, n: usize) {
    let feedback: Vec<ObservedQuery> = (0..n)
        .map(|i| {
            let lo = (i % 7) as f64;
            let rect = Rect::from_bounds(&[(lo, lo + 2.5), (0.0, (i % 6 + 2) as f64)]);
            ObservedQuery::new(rect, 0.1 + (i % 8) as f64 * 0.1)
        })
        .collect();
    svc.observe_batch(&feedback).expect("training failed");
}

/// The blend as an independent oracle: in shard order, each shard's
/// scalar snapshot estimate weighted by `1 + published_queries`.
fn reference_blend(svc: &ShardedService<QuickSel>, rect: &Rect) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for i in 0..svc.shard_count() {
        let shard = svc.shard(i);
        let w = 1.0 + shard.published_queries() as f64;
        num += w * shard.snapshot().estimate(rect);
        den += w;
    }
    num / den
}

/// Narrow (shard-routed), wide (blend-routed), degenerate, and duplicate
/// rects in one batch.
fn probes() -> Vec<Rect> {
    let mut out: Vec<Rect> = (0..24)
        .map(|i| {
            let lo = (i % 8) as f64;
            Rect::from_bounds(&[(lo, lo + 1.5), ((i % 5) as f64, (i % 5) as f64 + 2.0)])
        })
        .collect();
    out.push(Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)])); // wide ⇒ blend
    out.push(Rect::from_bounds(&[(0.0, 9.0), (0.0, 8.0)])); // wide ⇒ blend
    out.push(Rect::from_bounds(&[(4.0, 4.0), (0.0, 10.0)])); // zero volume
    out.push(out[0].clone()); // duplicate of a narrow probe
    out.push(Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)])); // duplicate wide
    out
}

#[test]
fn sharded_batches_equal_per_rect_scalar() {
    for shards in [1usize, 2, 4] {
        let svc = sharded(shards);
        feed(&svc, 24);
        let probes = probes();
        let batched = svc.estimate_many(&probes);
        assert_eq!(batched.len(), probes.len());
        for (p, &b) in probes.iter().zip(&batched) {
            assert_eq!(b, svc.estimate(p), "{shards}-shard batch diverged on {p}");
        }
        assert!(svc.estimate_many(&[]).is_empty());
    }
}

#[test]
fn batched_blend_equals_per_rect_scalar_blend() {
    let svc = sharded(3);
    feed(&svc, 30);
    let wides: Vec<Rect> = (0..6)
        .map(|i| {
            let hi = 8.0 + (i % 3) as f64;
            Rect::from_bounds(&[(0.0, hi), (0.0, hi)])
        })
        .collect();
    for w in &wides {
        assert!(svc.spans_partitions(w), "probe unexpectedly narrow: {w}");
    }
    let batched = svc.estimate_many(&wides);
    for (w, &b) in wides.iter().zip(&batched) {
        assert_eq!(b, reference_blend(&svc, w), "batched blend diverged on {w}");
    }
}

#[test]
fn registry_batches_equal_scalar() {
    let reg: EstimatorRegistry<QuickSel> = EstimatorRegistry::new();
    let d = domain();
    reg.register_with("t", d.clone(), 4, |i| {
        QuickSel::builder(d.clone()).refine_policy(RefinePolicy::Manual).seed(i as u64).build()
    });
    let t: TableId = "t".into();
    for i in 0..20 {
        let lo = (i % 6) as f64;
        let rect = Rect::from_bounds(&[(lo, lo + 2.0), (lo, lo + 2.0)]);
        reg.observe(&t, &ObservedQuery::new(rect, 0.4));
    }
    let preds: Vec<Predicate> = (0..10)
        .map(|i| {
            let lo = (i % 7) as f64;
            Predicate::new().range(0, lo, lo + 1.5).range(1, 0.5, 4.5)
        })
        .chain([Predicate::new()]) // full domain ⇒ blend path
        .collect();

    let from_registry = reg.estimate_many(&t, &preds);
    for (p, &e) in preds.iter().zip(&from_registry) {
        assert_eq!(e, reg.estimate(&t, p), "registry batch diverged");
    }

    // Unknown tables degrade to all-1.0 and count every probe.
    let ghost: TableId = "ghost".into();
    assert_eq!(reg.estimate_many(&ghost, &preds), vec![1.0; preds.len()]);
    assert_eq!(reg.stats().missing_table_probes, preds.len() as u64);
}

#[test]
fn learner_provider_batches_equal_scalar() {
    let d = domain();
    let lp = LearnerProvider::single("t", d.clone(), Box::new(QuickSel::new(d.clone())));
    let t: TableId = "t".into();
    let rect = Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]);
    lp.observe(&t, &ObservedQuery::new(rect, 0.9));
    let preds: Vec<Predicate> =
        (0..8).map(|i| Predicate::new().range(0, i as f64, i as f64 + 2.0)).collect();
    let batched = lp.estimate_many(&t, &preds);
    for (p, &e) in preds.iter().zip(&batched) {
        assert_eq!(e, lp.estimate(&t, p), "learner-provider batch diverged");
    }
    let ghost: TableId = "ghost".into();
    assert_eq!(lp.estimate_many(&ghost, &preds), vec![1.0; preds.len()]);
}

#[test]
fn cross_shard_blend_of_batched_results_equals_scalar_blend_weights() {
    // Blend weights must come from *published* per-shard state: a fixed
    // version ⇒ identical batched and scalar blends, repeatedly.
    let svc = sharded(2);
    feed(&svc, 16);
    let wide = Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
    let version = svc.version();
    let scalar = reference_blend(&svc, &wide);
    for _ in 0..3 {
        assert_eq!(svc.estimate_many(std::slice::from_ref(&wide)), vec![scalar]);
        assert_eq!(svc.version(), version);
    }
}
