//! Tuning knobs for QuickSel, defaulting to the paper's settings.

/// When the mixture model is re-trained relative to incoming observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinePolicy {
    /// Retrain after every observed query (the §5.2 protocol).
    EveryQuery,
    /// Retrain after every `k` observed queries (the §5.3 drift protocol
    /// uses `k = 100`).
    EveryK(usize),
    /// Only retrain when [`QuickSel::refine`](crate::QuickSel::refine) is
    /// called explicitly.
    Manual,
}

/// Configuration for a [`QuickSel`](crate::QuickSel) instance.
#[derive(Debug, Clone)]
pub struct QuickSelConfig {
    /// Penalty weight λ of Problem 3. Paper: `10⁶`. Must be positive and
    /// finite: the trainer folds each constraint row `r` into its factor
    /// as an update by `√λ·r`.
    pub lambda: f64,
    /// Relative Tikhonov ridge on the analytic solve (see
    /// [`quicksel_linalg::qp::DEFAULT_RIDGE_REL`] for the rationale); set
    /// to 0 for the paper's unregularized closed form.
    pub ridge_rel: f64,
    /// Random points generated inside each observed predicate (§3.3 step 1).
    /// Paper: 10 ("generating more than 10 points did not improve
    /// accuracy").
    pub points_per_query: usize,
    /// Subpopulations per observed query before the cap (§3.3 footnote:
    /// `m = min(4·n, 4000)`).
    pub subpops_per_query: usize,
    /// Hard cap on the number of subpopulations. Paper: 4000.
    pub max_subpops: usize,
    /// Multiplier on the neighbour distance when sizing `G_z` so that
    /// neighbouring subpopulations "slightly overlap" (§3.3 step 3).
    pub overlap_factor: f64,
    /// Retraining cadence.
    pub refine_policy: RefinePolicy,
    /// RNG seed for point generation and sampling (deterministic runs).
    pub seed: u64,
    /// Budget on retained feedback history (observed queries, their
    /// workload points, and the trainer's cached constraint rows). When
    /// the history exceeds this, the oldest entries are compacted by
    /// merge rather than dropped: a merged pair keeps its bounding-box
    /// rect, and its selectivity is the inclusion–exclusion estimate
    /// clamped to `[max(sa, sb), min(1, sa + sb)]` for member
    /// selectivities `sa`, `sb`. Coverage of old regions survives
    /// eviction; the trainer folds evicted rows *out* of its cached
    /// system as a signed rank-k downdate. `usize::MAX` (the default)
    /// retains everything and is bit-identical to the historic
    /// unbounded path.
    pub max_history: usize,
    /// Consecutive drift strikes required before the next refine is
    /// forced cold (resampling subpopulations against the current
    /// workload). A strike is a warm refine whose constraint violation
    /// exceeds 3× the tracked violation baseline (an EWMA over recent
    /// warm refines). `usize::MAX` disables drift detection.
    pub drift_patience: usize,
}

impl Default for QuickSelConfig {
    fn default() -> Self {
        Self {
            lambda: 1e6,
            ridge_rel: quicksel_linalg::qp::DEFAULT_RIDGE_REL,
            points_per_query: 10,
            subpops_per_query: 4,
            max_subpops: 4000,
            overlap_factor: 1.2,
            refine_policy: RefinePolicy::EveryQuery,
            seed: 0x5EED,
            max_history: usize::MAX,
            drift_patience: 3,
        }
    }
}

impl QuickSelConfig {
    /// The paper's `m = min(4·n, 4000)` given `n` observed queries.
    pub fn target_subpops(&self, observed: usize) -> usize {
        self.subpops_per_query.saturating_mul(observed).min(self.max_subpops).max(1)
    }

    /// Overrides the subpopulation budget to a fixed `m` (the §5.6 "model
    /// parameter count" study disables the 4·n default).
    ///
    /// # Panics
    ///
    /// If `m` is 0.
    pub fn with_fixed_subpops(mut self, m: usize) -> Self {
        assert!(m >= 1, "need at least one subpopulation");
        self.subpops_per_query = usize::MAX / 2; // always hit the cap
        self.max_subpops = m;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = QuickSelConfig::default();
        assert_eq!(c.lambda, 1e6);
        assert_eq!(c.points_per_query, 10);
        assert_eq!(c.max_subpops, 4000);
        assert_eq!(c.target_subpops(10), 40);
        assert_eq!(c.target_subpops(2000), 4000);
    }

    #[test]
    fn target_subpops_is_at_least_one() {
        let c = QuickSelConfig::default();
        assert_eq!(c.target_subpops(0), 1);
    }

    #[test]
    fn fixed_subpops_pins_budget() {
        let c = QuickSelConfig::default().with_fixed_subpops(123);
        assert_eq!(c.target_subpops(1), 123);
        assert_eq!(c.target_subpops(100_000), 123);
    }

    #[test]
    fn history_unbounded_by_default() {
        let c = QuickSelConfig::default();
        assert_eq!(c.max_history, usize::MAX);
        assert!(c.drift_patience >= 1);
    }
}
