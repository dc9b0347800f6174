//! The uniform mixture model (§3.1–§3.2).
//!
//! A model is a set of subpopulation supports `G_z`, placed once by a
//! cold build (§3.3), plus the weights `w_z` that every refine solves
//! again (§4). The supports' geometry is one `Supports` value: the
//! [`Rect`]s, their dimension-major bound columns and `1/|G_z|`. A cold
//! build makes it once and shares it by [`Arc`] between the trainer's
//! assembly grid ([`SubpopGrid`](crate::SubpopGrid)), every model the
//! trainer publishes and every snapshot that holds one, so a warm
//! refine allocates only its weights. The batched estimation kernel
//! over the shared columns is in [`crate::batch`].

use quicksel_geometry::Rect;
use std::sync::Arc;

/// The fixed geometry of a set of subpopulation supports.
///
/// For `m` supports over `d` dimensions, `lo` and `hi` are
/// dimension-major columns of length `d · m`: `lo[dim * m + z]` and
/// `hi[dim * m + z]` are support `z`'s bounds in dimension `dim`, so a
/// loop over one dimension streams contiguous memory.
/// `inv_volumes[z]` is `1.0 / |G_z|`, the one expression every path
/// (scalar estimate, batched kernel, assembly) reads.
#[derive(Debug)]
pub(crate) struct Supports {
    rects: Vec<Rect>,
    dim: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    inv_volumes: Vec<f64>,
}

impl Supports {
    /// Lays `rects` out in columns and computes their reciprocal
    /// volumes.
    ///
    /// # Panics
    /// Panics when the supports disagree on dimensionality or any has
    /// zero volume.
    pub(crate) fn new(rects: Vec<Rect>) -> Self {
        let len = rects.len();
        let dim = rects.first().map_or(0, Rect::dim);
        let mut lo = vec![0.0; dim * len];
        let mut hi = vec![0.0; dim * len];
        let mut inv_volumes = Vec::with_capacity(len);
        for (z, r) in rects.iter().enumerate() {
            assert_eq!(r.dim(), dim, "mixed-dimension subpopulation supports");
            let v = r.volume();
            assert!(v > 0.0, "subpopulation support must have positive volume");
            inv_volumes.push(1.0 / v);
            for (d, s) in r.sides().iter().enumerate() {
                lo[d * len + z] = s.lo;
                hi[d * len + z] = s.hi;
            }
        }
        Self { rects, dim, lo, hi, inv_volumes }
    }

    /// Number of supports `m`.
    pub(crate) fn len(&self) -> usize {
        self.rects.len()
    }

    /// The supports, in model order.
    pub(crate) fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Dimensionality of every support (0 for an empty set).
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Dimension-major lower bounds, `lo[dim * m + z]`.
    pub(crate) fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Dimension-major upper bounds, `hi[dim * m + z]`.
    pub(crate) fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// `1 / |G_z|`, parallel to the rects.
    pub(crate) fn inv_volumes(&self) -> &[f64] {
        &self.inv_volumes
    }
}

/// A trained uniform mixture model: subpopulation supports `G_z` plus
/// their weights `w_z = h(z)`.
///
/// `f(x) = Σ_z w_z / |G_z| · I(x ∈ G_z)`; selectivity of a predicate
/// rectangle `B` is `Σ_z w_z |G_z ∩ B| / |G_z|` (§3.2) — evaluated here
/// with precomputed `1/|G_z|` so estimation is a single pass of min/max
/// arithmetic. Models of one cold build share their supports (see the
/// module docs); cloning a model copies only its weights.
#[derive(Debug, Clone)]
pub struct UniformMixtureModel {
    supports: Arc<Supports>,
    weights: Vec<f64>,
}

impl UniformMixtureModel {
    /// Builds a model from supports and weights.
    ///
    /// # Panics
    /// Panics when lengths differ, the supports disagree on
    /// dimensionality, or any support has zero volume.
    pub fn new(rects: Vec<Rect>, weights: Vec<f64>) -> Self {
        Self::with_supports(Arc::new(Supports::new(rects)), weights)
    }

    /// A model over an existing support set, shared rather than copied:
    /// how the trainer publishes each refine's weights.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub(crate) fn with_supports(supports: Arc<Supports>, weights: Vec<f64>) -> Self {
        assert_eq!(supports.len(), weights.len(), "supports/weights length mismatch");
        Self { supports, weights }
    }

    /// The shared support geometry.
    pub(crate) fn supports(&self) -> &Supports {
        &self.supports
    }

    /// Number of subpopulations `m`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the model has no subpopulations.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Subpopulation supports.
    pub fn rects(&self) -> &[Rect] {
        self.supports.rects()
    }

    /// Subpopulation weights (may contain small negatives: the paper drops
    /// the positivity constraint in Problem 3 and relies on the model
    /// approximating a true, non-negative distribution).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Precomputed reciprocal volumes `1 / |G_z|`, parallel to
    /// [`rects`](Self::rects). The scalar path and the batched kernel
    /// both read these, so their terms round identically.
    pub fn inv_volumes(&self) -> &[f64] {
        self.supports.inv_volumes()
    }

    /// Sum of weights — ≈ 1 when training included the `(B0, 1)` row.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Raw (unclamped) selectivity estimate `Σ_z w_z |G_z∩B| / |G_z|`.
    pub fn estimate_raw(&self, query: &Rect) -> f64 {
        let mut s = 0.0;
        for ((r, &w), &inv) in self.rects().iter().zip(&self.weights).zip(self.inv_volumes()) {
            if w == 0.0 {
                continue;
            }
            let overlap = r.intersection_volume(query);
            if overlap > 0.0 {
                s += w * overlap * inv;
            }
        }
        s
    }

    /// Selectivity estimate clamped into `[0, 1]`.
    pub fn estimate(&self, query: &Rect) -> f64 {
        self.estimate_raw(query).clamp(0.0, 1.0)
    }

    /// Probability density at a point, `f(x) = Σ w_z/|G_z| · I(x∈G_z)`.
    pub fn density(&self, point: &[f64]) -> f64 {
        let mut f = 0.0;
        for ((r, &w), &inv) in self.rects().iter().zip(&self.weights).zip(self.inv_volumes()) {
            if r.contains_point(point) {
                f += w * inv;
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_component_model() -> UniformMixtureModel {
        // Two disjoint unit squares with weights 0.3 / 0.7.
        let g1 = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let g2 = Rect::from_bounds(&[(2.0, 3.0), (2.0, 3.0)]);
        UniformMixtureModel::new(vec![g1, g2], vec![0.3, 0.7])
    }

    #[test]
    fn estimate_of_each_component() {
        let m = two_component_model();
        let q1 = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let q2 = Rect::from_bounds(&[(2.0, 3.0), (2.0, 3.0)]);
        assert!((m.estimate(&q1) - 0.3).abs() < 1e-12);
        assert!((m.estimate(&q2) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn estimate_scales_with_fractional_overlap() {
        let m = two_component_model();
        // Half of the first component.
        let q = Rect::from_bounds(&[(0.0, 0.5), (0.0, 1.0)]);
        assert!((m.estimate(&q) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn estimate_of_everything_is_total_weight() {
        let m = two_component_model();
        let all = Rect::from_bounds(&[(-10.0, 10.0), (-10.0, 10.0)]);
        assert!((m.estimate(&all) - 1.0).abs() < 1e-12);
        assert!((m.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_clamps_negative_artifacts() {
        let g = Rect::from_bounds(&[(0.0, 1.0)]);
        let m = UniformMixtureModel::new(vec![g.clone()], vec![-0.2]);
        assert_eq!(m.estimate(&g), 0.0);
        assert!((m.estimate_raw(&g) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn density_adds_over_overlapping_components() {
        let g1 = Rect::from_bounds(&[(0.0, 2.0)]);
        let g2 = Rect::from_bounds(&[(1.0, 3.0)]);
        let m = UniformMixtureModel::new(vec![g1, g2], vec![0.5, 0.5]);
        // In the overlap, both components contribute w/|G| = 0.25 each.
        assert!((m.density(&[1.5]) - 0.5).abs() < 1e-12);
        assert!((m.density(&[0.5]) - 0.25).abs() < 1e-12);
        assert_eq!(m.density(&[10.0]), 0.0);
    }

    #[test]
    fn support_columns_are_dimension_major() {
        let rects = vec![
            Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            Rect::from_bounds(&[(2.0, 3.0), (2.0, 3.0)]),
            Rect::from_bounds(&[(0.5, 2.5), (0.5, 2.5)]),
        ];
        let m = UniformMixtureModel::new(rects, vec![0.3, 0.5, 0.2]);
        let s = m.supports();
        assert_eq!((s.len(), s.dim), (3, 2));
        // Dim 0 lows for z = 0, 1, 2, then dim 1 lows.
        assert_eq!(s.lo, vec![0.0, 2.0, 0.5, 0.0, 2.0, 0.5]);
        assert_eq!(s.hi, vec![1.0, 3.0, 2.5, 1.0, 3.0, 2.5]);
        assert_eq!(s.inv_volumes, vec![1.0, 1.0, 0.25]);
    }

    #[test]
    #[should_panic(expected = "mixed-dimension")]
    fn mixed_dimension_supports_rejected() {
        let supports = vec![Rect::from_bounds(&[(0.0, 1.0)]), Rect::from_bounds(&[(0.0, 1.0); 2])];
        UniformMixtureModel::new(supports, vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive volume")]
    fn zero_volume_support_rejected() {
        let g = Rect::from_bounds(&[(1.0, 1.0)]);
        UniformMixtureModel::new(vec![g], vec![1.0]);
    }

    proptest! {
        /// Estimates are monotone in the query rectangle (for non-negative
        /// weights): growing the query can't shrink the estimate.
        #[test]
        fn prop_monotone_in_query(cut in 0.0..1.0f64) {
            let m = two_component_model();
            let small = Rect::from_bounds(&[(0.0, cut), (0.0, 1.0)]);
            let big = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
            prop_assert!(m.estimate(&small) <= m.estimate(&big) + 1e-12);
        }

        /// Estimates stay in [0, 1] whatever the query.
        #[test]
        fn prop_estimate_in_unit_interval(lo in -5.0..5.0f64, len in 0.0..10.0f64) {
            let m = two_component_model();
            let q = Rect::from_bounds(&[(lo, lo + len), (lo, lo + len)]);
            let e = m.estimate(&q);
            prop_assert!((0.0..=1.0).contains(&e));
        }
    }
}
