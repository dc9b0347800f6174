//! Factory for the estimators compared in §5.1.

use quicksel_baselines::isomer::IsomerConfig;
use quicksel_baselines::{AutoHist, AutoSample, Isomer, IsomerQp, QueryModel, STHoles};
use quicksel_core::{QuickSel, QuickSelConfig, RefinePolicy};
use quicksel_data::Learn;
use quicksel_geometry::Domain;

/// The methods of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// QuickSel with the analytic penalty solver (the paper's method).
    QuickSel,
    /// STHoles error-feedback histogram.
    STHoles,
    /// ISOMER max-entropy histogram (iterative scaling).
    Isomer,
    /// ISOMER buckets + QuickSel's QP.
    IsomerQp,
    /// Query-similarity kernel regression.
    QueryModel,
    /// Scan-based equi-width histogram with the 20% auto-update rule.
    AutoHist,
    /// Scan-based uniform sample with the 10% auto-update rule.
    AutoSample,
}

impl MethodKind {
    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::QuickSel => "QuickSel",
            MethodKind::STHoles => "STHoles",
            MethodKind::Isomer => "ISOMER",
            MethodKind::IsomerQp => "ISOMER+QP",
            MethodKind::QueryModel => "QueryModel",
            MethodKind::AutoHist => "AutoHist",
            MethodKind::AutoSample => "AutoSample",
        }
    }

    /// The query-driven methods of Figure 3.
    pub fn query_driven() -> [MethodKind; 5] {
        [
            MethodKind::STHoles,
            MethodKind::Isomer,
            MethodKind::IsomerQp,
            MethodKind::QueryModel,
            MethodKind::QuickSel,
        ]
    }
}

/// Options shared by the factory.
#[derive(Debug, Clone)]
pub struct MethodOptions {
    /// Parameter/space budget for budgeted methods (AutoHist cells,
    /// AutoSample tuples, STHoles buckets, fixed-m QuickSel when
    /// `fixed_params` is set).
    pub budget: usize,
    /// Pin QuickSel's subpopulation count instead of the 4·n default.
    pub fixed_params: Option<usize>,
    /// QuickSel refine cadence.
    pub refine_policy: RefinePolicy,
    /// RNG seed.
    pub seed: u64,
    /// ISOMER bucket-count safety cap.
    pub isomer_bucket_cap: usize,
}

impl Default for MethodOptions {
    fn default() -> Self {
        Self {
            budget: 1000,
            fixed_params: None,
            refine_policy: RefinePolicy::EveryQuery,
            seed: 42,
            isomer_bucket_cap: 400_000,
        }
    }
}

/// Builds a ready-to-run estimator. The returned trait object learns
/// through [`Learn`] and estimates through its
/// [`Estimate`](quicksel_data::Estimate) supertrait.
pub fn make_estimator(kind: MethodKind, domain: &Domain, opts: &MethodOptions) -> Box<dyn Learn> {
    match kind {
        MethodKind::QuickSel => {
            let mut cfg = QuickSelConfig {
                seed: opts.seed,
                refine_policy: opts.refine_policy,
                ..Default::default()
            };
            if let Some(m) = opts.fixed_params {
                cfg = cfg.with_fixed_subpops(m);
            }
            Box::new(QuickSel::with_config(domain.clone(), cfg))
        }
        MethodKind::STHoles => Box::new(STHoles::with_budget(domain.clone(), opts.budget.max(1))),
        MethodKind::Isomer => {
            let cfg = IsomerConfig { max_buckets: opts.isomer_bucket_cap, ..Default::default() };
            Box::new(Isomer::with_config(domain.clone(), cfg))
        }
        MethodKind::IsomerQp => {
            Box::new(IsomerQp::with_params(domain.clone(), 1e6, opts.isomer_bucket_cap))
        }
        MethodKind::QueryModel => Box::new(QueryModel::new(domain.clone())),
        MethodKind::AutoHist => Box::new(AutoHist::with_budget(domain.clone(), opts.budget)),
        MethodKind::AutoSample => {
            Box::new(AutoSample::new(domain.clone(), opts.budget.max(1), opts.seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_method() {
        let domain = Domain::of_reals(&[("x", 0.0, 1.0), ("y", 0.0, 1.0)]);
        let opts = MethodOptions::default();
        for kind in [
            MethodKind::QuickSel,
            MethodKind::STHoles,
            MethodKind::Isomer,
            MethodKind::IsomerQp,
            MethodKind::QueryModel,
            MethodKind::AutoHist,
            MethodKind::AutoSample,
        ] {
            let est = make_estimator(kind, &domain, &opts);
            // Fresh estimators answer with a sane prior.
            let e = est.estimate(&domain.full_rect());
            assert!((0.0..=1.0).contains(&e), "{}: {e}", est.name());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MethodKind::QuickSel.label(), "QuickSel");
        assert_eq!(MethodKind::Isomer.label(), "ISOMER");
        assert_eq!(MethodKind::query_driven().len(), 5);
    }
}
