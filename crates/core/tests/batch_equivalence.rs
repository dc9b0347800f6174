//! Scalar/batched equivalence suite for the SoA estimation kernel.
//!
//! The contract under test (see `quicksel_core::batch`): for any model
//! and any rect batch, `UniformMixtureModel::estimate_many` equals
//! per-rect scalar `UniformMixtureModel::estimate` — not just within tolerance
//! but comparing equal (`==`), because the kernel is term-order
//! identical to the scalar path. The property tests still assert the
//! issue-level `1e-12` bound first so a future, deliberately
//! reassociating kernel fails with a readable message before the exact
//! check does.

use proptest::prelude::*;
use quicksel_core::UniformMixtureModel;
use quicksel_geometry::Rect;

/// Builds rects from `(lo, len)` pairs chunked into `dim`-length groups.
fn rects_from_raw(raw: &[(f64, f64)], dim: usize) -> Vec<Rect> {
    raw.chunks_exact(dim)
        .map(|c| {
            let bounds: Vec<(f64, f64)> = c.iter().map(|&(lo, len)| (lo, lo + len)).collect();
            Rect::from_bounds(&bounds)
        })
        .collect()
}

/// Asserts the full equivalence contract for one (model, batch) pair.
fn assert_equivalent(model: &UniformMixtureModel, probes: &[Rect]) {
    let batched = model.estimate_many(probes);
    assert_eq!(batched.len(), probes.len());
    // The gather form over a reversed index list answers the same
    // rects in reversed order — index shuffling, not rect cloning.
    let reversed: Vec<usize> = (0..probes.len()).rev().collect();
    let gathered = model.estimate_gather(probes, &reversed);
    for (&i, &g) in reversed.iter().zip(&gathered) {
        assert_eq!(g, batched[i], "gather diverged from estimate_many at index {i}");
    }
    for (i, (p, &b)) in probes.iter().zip(&batched).enumerate() {
        let scalar = model.estimate(p);
        assert!(
            (scalar - b).abs() <= 1e-12,
            "probe {i}: scalar {scalar} vs batched {b} beyond 1e-12"
        );
        assert_eq!(scalar, b, "probe {i}: batched diverged from scalar");
        assert_eq!(
            model.estimate_many(std::slice::from_ref(p)),
            [scalar],
            "probe {i}: single-rect kernel diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random domains (1–3 dims), random models (positive, negative, and
    /// exact-zero weights), random batches including zero-volume and far
    /// out-of-domain rects: the kernel must match the scalar path.
    #[test]
    fn kernel_matches_scalar_on_random_models(
        dim in 1..4usize,
        support_raw in prop::collection::vec((-50.0..50.0f64, 0.01..20.0f64), 0..91),
        weight_raw in prop::collection::vec(-0.5..1.5f64, 91),
        probe_raw in prop::collection::vec((-80.0..80.0f64, 0.0..40.0f64), 0..63),
    ) {
        let supports = rects_from_raw(&support_raw, dim);
        let mut weights = weight_raw[..supports.len()].to_vec();
        // Exact zeros exercise the zero-weight skip/select.
        for w in weights.iter_mut().step_by(7) {
            *w = 0.0;
        }
        let model = UniformMixtureModel::new(supports, weights);
        // `len` may sample exactly 0.0 ⇒ genuine zero-volume probes.
        let probes = rects_from_raw(&probe_raw, dim);
        assert_equivalent(&model, &probes);
    }

    /// Batches crossing the kernel's tile/block boundaries (m and B both
    /// beyond one block) stay equivalent.
    #[test]
    fn kernel_matches_scalar_across_block_boundaries(
        m in 120..200usize,
        b in 30..70usize,
        jitter in 0.0..1.0f64,
    ) {
        let supports: Vec<Rect> = (0..m)
            .map(|z| {
                let lo = (z % 17) as f64 * 0.6 + jitter;
                Rect::from_bounds(&[(lo, lo + 1.3), ((z % 5) as f64, (z % 5) as f64 + 2.0)])
            })
            .collect();
        let weights: Vec<f64> = (0..m)
            .map(|z| match z % 11 {
                0 => 0.0,
                1 => -0.01,
                _ => 1.0 / m as f64,
            })
            .collect();
        let model = UniformMixtureModel::new(supports, weights);
        let probes: Vec<Rect> = (0..b)
            .map(|i| {
                let lo = (i % 13) as f64 * 0.8;
                Rect::from_bounds(&[(lo, lo + 2.0 + jitter), (0.5, 4.0)])
            })
            .collect();
        assert_equivalent(&model, &probes);
    }
}

#[test]
fn empty_batch_and_empty_model() {
    let model = UniformMixtureModel::new(vec![Rect::from_bounds(&[(0.0, 1.0)])], vec![1.0]);
    assert!(model.estimate_many(&[]).is_empty());

    let empty = UniformMixtureModel::new(Vec::new(), Vec::new());
    assert_equivalent(&empty, &[Rect::from_bounds(&[(0.0, 1.0)])]);
}

#[test]
fn degenerate_probes_full_domain_and_unclamped_bounds() {
    let model = UniformMixtureModel::new(
        vec![
            Rect::from_bounds(&[(0.0, 4.0), (0.0, 4.0)]),
            Rect::from_bounds(&[(3.0, 9.0), (2.0, 8.0)]),
        ],
        vec![0.6, 0.4],
    );
    let probes = [
        Rect::from_bounds(&[(2.0, 2.0), (0.0, 10.0)]), // zero volume
        Rect::from_bounds(&[(5.0, 2.0), (0.0, 10.0)]), // inverted ⇒ empty
        Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]), // full domain
        Rect::from_bounds(&[(-1e9, 1e9), (-1e9, 1e9)]), // far out of domain
        Rect::from_bounds(&[(f64::NEG_INFINITY, f64::INFINITY), (0.0, 5.0)]), // unclamped
    ];
    assert_equivalent(&model, &probes);
}

#[test]
fn zero_dimensional_model_keeps_the_empty_product() {
    // A dim-0 support has volume 1.0 (empty product) and the scalar
    // path estimates the bare weight sum; the kernel must agree.
    let model = UniformMixtureModel::new(
        vec![Rect::from_bounds(&[]), Rect::from_bounds(&[])],
        vec![0.5, 0.25],
    );
    assert_equivalent(&model, &[Rect::from_bounds(&[]), Rect::from_bounds(&[])]);
    assert_eq!(model.estimate_many(&[Rect::from_bounds(&[])]), [0.75]);
}

#[test]
#[should_panic(expected = "dimensionality")]
fn mismatched_probe_dimensionality_is_rejected() {
    // A hard (release-mode) guard: the kernel zips each probe side with
    // the model's column for that dimension, so a narrower probe would
    // silently skip the dimensions it lacks instead of failing.
    let model =
        UniformMixtureModel::new(vec![Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])], vec![1.0]);
    let _ = model.estimate_many(&[Rect::from_bounds(&[(0.0, 1.0)])]);
}

#[test]
fn negative_weights_clamp_identically() {
    // A net-negative region must clamp to 0.0 on both paths, and the raw
    // values must agree before the clamp.
    let model = UniformMixtureModel::new(
        vec![Rect::from_bounds(&[(0.0, 2.0)]), Rect::from_bounds(&[(1.0, 3.0)])],
        vec![-0.4, 0.1],
    );
    let probes = [
        Rect::from_bounds(&[(0.0, 1.0)]),
        Rect::from_bounds(&[(0.0, 3.0)]),
        Rect::from_bounds(&[(2.0, 3.0)]),
    ];
    assert_equivalent(&model, &probes);
    assert_eq!(model.estimate_many(&probes[..1]), [0.0]);
}
