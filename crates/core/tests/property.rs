//! Property-based tests of QuickSel's end-to-end invariants over random
//! workloads.

use proptest::prelude::*;
use quicksel_core::{QuickSel, RefinePolicy, UniformMixtureModel};
use quicksel_data::{Estimate, Learn, ObservedQuery};
use quicksel_geometry::{Domain, Rect};

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..8.0f64, 0.5..4.0f64, 0.0..8.0f64, 0.5..4.0f64)
        .prop_map(|(x, wx, y, wy)| Rect::from_bounds(&[(x, x + wx), (y, y + wy)]))
}

/// Observations consistent with a uniform distribution over the
/// lower-left 6×6 square.
fn consistent_observation() -> impl Strategy<Value = ObservedQuery> {
    arb_rect().prop_map(|r| {
        let mass = Rect::from_bounds(&[(0.0, 6.0), (0.0, 6.0)]);
        let s = r.intersection_volume(&mass) / mass.volume();
        ObservedQuery::new(r, s)
    })
}

fn arb_observation() -> impl Strategy<Value = ObservedQuery> {
    (arb_rect(), 0.0..1.0f64).prop_map(|(r, s)| ObservedQuery::new(r, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Estimates are always within [0, 1] no matter the feedback.
    #[test]
    fn estimates_bounded(obs in prop::collection::vec(arb_observation(), 1..12), probe in arb_rect()) {
        let mut qs = QuickSel::new(domain());
        for q in &obs {
            qs.observe(q);
        }
        let e = qs.estimate(&probe);
        prop_assert!((0.0..=1.0).contains(&e), "estimate {}", e);
    }

    /// With consistent feedback, training constraints are reproduced to
    /// within the penalty solver's tolerance.
    #[test]
    fn consistent_constraints_reproduced(obs in prop::collection::vec(consistent_observation(), 2..10)) {
        let mut qs = QuickSel::builder(domain()).refine_policy(RefinePolicy::Manual).build();
        for q in &obs {
            qs.observe(q);
        }
        qs.refine().expect("training");
        for q in &obs {
            let e = qs.estimate(&q.rect);
            prop_assert!((e - q.selectivity).abs() < 5e-2,
                "estimate {} vs constraint {}", e, q.selectivity);
        }
    }

    /// Model mass stays ≈ 1 (the (B0, 1) constraint row).
    #[test]
    fn total_mass_pinned(obs in prop::collection::vec(consistent_observation(), 1..10)) {
        let mut qs = QuickSel::new(domain());
        for q in &obs {
            qs.observe(q);
        }
        if let Some(m) = qs.model() {
            prop_assert!((m.total_weight() - 1.0).abs() < 1e-2,
                "total weight {}", m.total_weight());
        }
    }

    /// A mixture with non-negative weights (the trained supports,
    /// reweighted by `|w|`) is monotone under containment, in the scalar
    /// estimate and in the batched `estimate_many`. The trained weights
    /// are often negative, so this says nothing of the trained estimator.
    #[test]
    fn nonnegative_mixture_is_monotone_under_containment(obs in prop::collection::vec(consistent_observation(), 2..8), probe in arb_rect()) {
        let mut qs = QuickSel::new(domain());
        for q in &obs {
            qs.observe(q);
        }
        let trained = qs.model().expect("observations train a model");
        let weights = trained.weights().iter().map(|w| w.abs()).collect();
        let model = UniformMixtureModel::new(trained.rects().to_vec(), weights);
        let grown = probe.hull(&Rect::from_bounds(&[(0.0, 9.0), (0.0, 9.0)]));
        prop_assert!(model.estimate_raw(&probe) <= model.estimate_raw(&grown) + 1e-9);
        let batched = model.estimate_many(&[probe, grown]);
        prop_assert!(batched[0] <= batched[1] + 1e-9);
    }

    /// Determinism: the same seed and feedback produce identical models.
    #[test]
    fn deterministic_given_seed(obs in prop::collection::vec(arb_observation(), 1..8)) {
        let mk = || {
            let mut qs = QuickSel::new(domain());
            for q in &obs {
                qs.observe(q);
            }
            qs
        };
        let (a, b) = (mk(), mk());
        let probe = Rect::from_bounds(&[(1.0, 7.0), (2.0, 8.0)]);
        prop_assert_eq!(a.estimate(&probe), b.estimate(&probe));
        prop_assert_eq!(a.param_count(), b.param_count());
    }
}
