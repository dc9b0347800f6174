//! Immutable, cheaply-cloneable snapshots of a trained QuickSel model.
//!
//! A snapshot holds the published model by `Arc`, and the model holds
//! its cold build's supports by `Arc` (see [`crate::model`]): taking or
//! cloning a snapshot copies no geometry, and the batched kernel reads
//! the shared support columns directly.

use crate::model::UniformMixtureModel;
use quicksel_data::Estimate;
use quicksel_geometry::{Domain, Rect};
use std::sync::Arc;

/// The shared QuickSel read path: the trained model when present,
/// otherwise the uniform prior `|B ∩ B0| / |B0|`. Both the live
/// [`QuickSel`](crate::QuickSel) estimator and its frozen snapshots
/// answer through this one function so they can never drift apart.
pub(crate) fn estimate_model_or_prior(
    domain: &Domain,
    model: Option<&UniformMixtureModel>,
    rect: &Rect,
) -> f64 {
    match model {
        Some(m) => m.estimate(rect),
        None => {
            let b0 = domain.full_rect();
            (rect.intersection_volume(&b0) / b0.volume()).clamp(0.0, 1.0)
        }
    }
}

/// A frozen view of a [`QuickSel`](crate::QuickSel) model at one point in
/// its training history.
///
/// Snapshots share the trained [`UniformMixtureModel`] through an [`Arc`],
/// so cloning one is two reference-count bumps — cheap enough to hand a
/// fresh copy to every planner thread. A snapshot taken before the first
/// successful refine answers with the uniform prior `|B ∩ B0| / |B0|`,
/// exactly like an untrained estimator.
///
/// All [`Estimate`] methods take `&self` and the snapshot is `Send +
/// Sync`: readers never observe a half-updated model, because later
/// training builds a *new* model rather than mutating the shared one.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    domain: Arc<Domain>,
    model: Option<Arc<UniformMixtureModel>>,
    version: u64,
    observed: usize,
}

impl ModelSnapshot {
    pub(crate) fn new(
        domain: Arc<Domain>,
        model: Option<Arc<UniformMixtureModel>>,
        version: u64,
        observed: usize,
    ) -> Self {
        Self { domain, model, version, observed }
    }

    /// The training version this snapshot was taken at: 0 before the
    /// first successful refine, then incremented by each retrain.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of queries the source estimator had observed.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// The underlying trained model, if any refine had succeeded.
    pub fn model(&self) -> Option<&UniformMixtureModel> {
        self.model.as_deref()
    }

    /// The estimation domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }
}

impl Estimate for ModelSnapshot {
    fn name(&self) -> &'static str {
        "QuickSel"
    }

    fn estimate(&self, rect: &Rect) -> f64 {
        estimate_model_or_prior(&self.domain, self.model.as_deref(), rect)
    }

    /// Batched estimation through the model's kernel; before the first
    /// refine, the shared `estimate_model_or_prior` read path answers
    /// per rect, so the prior has exactly one implementation. Compares
    /// equal (`==`) to per-rect [`estimate`](Estimate::estimate) — the
    /// kernel's exactness contract, see [`crate::batch`].
    fn estimate_many(&self, rects: &[Rect]) -> Vec<f64> {
        match &self.model {
            Some(m) => m.estimate_many(rects),
            None => rects.iter().map(|r| estimate_model_or_prior(&self.domain, None, r)).collect(),
        }
    }

    /// Index-gather batching for routed dispatch: the sharded serving
    /// layer regroups one batch per shard as index lists and answers
    /// each group from this one snapshot without cloning a rect.
    fn estimate_gather(&self, rects: &[Rect], indexes: &[usize]) -> Vec<f64> {
        match &self.model {
            Some(m) => m.estimate_gather(rects, indexes),
            None => indexes
                .iter()
                .map(|&i| estimate_model_or_prior(&self.domain, None, &rects[i]))
                .collect(),
        }
    }

    fn param_count(&self) -> usize {
        self.model.as_ref().map_or(0, |m| m.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_snapshot_serves_the_prior() {
        let domain = Domain::of_reals(&[("x", 0.0, 10.0)]);
        let snap = ModelSnapshot::new(Arc::new(domain), None, 0, 0);
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.param_count(), 0);
        assert!((snap.estimate(&Rect::from_bounds(&[(0.0, 5.0)])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trained_snapshot_serves_the_model_and_clones_share_it() {
        let domain = Domain::of_reals(&[("x", 0.0, 10.0)]);
        let g = Rect::from_bounds(&[(0.0, 5.0)]);
        let model = Arc::new(UniformMixtureModel::new(vec![g.clone()], vec![1.0]));
        let snap = ModelSnapshot::new(Arc::new(domain), Some(Arc::clone(&model)), 3, 7);
        assert_eq!(snap.version(), 3);
        assert_eq!(snap.observed(), 7);
        assert_eq!(snap.param_count(), 1);
        assert!((snap.estimate(&g) - 1.0).abs() < 1e-12);
        let copy = snap.clone();
        // Clones alias the same model allocation.
        assert_eq!(Arc::strong_count(&model), 3);
        assert_eq!(copy.estimate(&g), snap.estimate(&g));
    }
}
