//! Exported estimator state: plain-data captures of a [`QuickSel`]
//! estimator and its cached [`IncrementalTrainer`], for persistence.
//!
//! The durability layer (`quicksel-persist`) serializes estimators to
//! disk and restores them after a crash. The correctness bar is **exact**
//! equivalence: a restored estimator must produce bit-identical estimates
//! *and* behave bit-identically on all future feedback. That means the
//! capture cannot stop at the trained model — it must carry the RNG
//! mid-stream state, the workload point pool, the observed-query history,
//! and the trainer's sparse `A`, `s`, `Aᵀs` and Cholesky factor (so the
//! first post-restore refine is a *warm* in-place factor update, not a
//! cold rebuild). `Q` and `AᵀA` are not captured: they are pure functions
//! of the supports and of `A`.
//!
//! [`QuickSelState`] / [`TrainerState`] are dumb data: every field public,
//! no invariants enforced at construction. Validation happens at
//! restore time ([`QuickSel::try_from_state`] /
//! [`IncrementalTrainer::try_from_state`]), which returns a typed
//! [`StateError`] instead of panicking on inconsistent captures — a
//! corrupted or hand-rolled snapshot must never abort the host process.
//!
//! [`QuickSel`]: crate::QuickSel
//! [`IncrementalTrainer`]: crate::IncrementalTrainer
//! [`QuickSel::try_from_state`]: crate::QuickSel::try_from_state
//! [`IncrementalTrainer::try_from_state`]: crate::IncrementalTrainer::try_from_state

use crate::config::QuickSelConfig;
use quicksel_data::ObservedQuery;
use quicksel_geometry::{Domain, Rect};
use quicksel_linalg::{CsrMatrix, DMatrix};

/// Why a state capture was rejected at restore time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// A structural invariant does not hold (mismatched lengths, a
    /// support with non-positive volume, a non-finite weight, …).
    Invalid {
        /// What was inconsistent.
        context: &'static str,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Invalid { context } => write!(f, "invalid estimator state: {context}"),
        }
    }
}

impl std::error::Error for StateError {}

/// A complete capture of an [`IncrementalTrainer`](crate::IncrementalTrainer):
/// the cached supports, the sparse constraint system and the factor.
/// The subpopulation grid is *not* captured — it is rebuilt
/// deterministically from `subpops` at restore time.
#[derive(Debug, Clone)]
pub struct TrainerState {
    /// Cached subpopulation supports.
    pub subpops: Vec<Rect>,
    /// Constraint matrix `A` (n×m, row 0 the implicit `(B0, 1)`), as
    /// compressed sparse rows.
    pub a: CsrMatrix,
    /// Observed selectivities `s`, parallel to `A`'s rows.
    pub s: Vec<f64>,
    /// Incrementally-maintained `Aᵀs`.
    pub ats: Vec<f64>,
    /// Lower triangle of the cached Cholesky factor of `Q + λAᵀA + εI`.
    pub factor_lower: DMatrix,
    /// Penalty weight λ of the trained system.
    pub lambda: f64,
    /// Absolute ridge baked into the cached system at the cold build.
    pub ridge_abs: f64,
}

/// A complete capture of a [`QuickSel`](crate::QuickSel) estimator.
#[derive(Debug, Clone)]
pub struct QuickSelState {
    /// The estimation domain.
    pub domain: Domain,
    /// The active configuration.
    pub config: QuickSelConfig,
    /// Observed queries, in arrival order. The first `compacted_len`
    /// entries are merged summaries of evicted history rather than raw
    /// observations.
    pub queries: Vec<ObservedQuery>,
    /// Workload-aware points generated at observe time, in query order.
    pub point_pool: Vec<Vec<f64>>,
    /// Per-query count of pool points, parallel to `queries` (the pool
    /// is their concatenation).
    pub point_counts: Vec<u32>,
    /// Length of the compacted summary prefix of `queries`.
    pub compacted_len: usize,
    /// Members folded into each compacted summary entry, parallel to the
    /// prefix (`compacted_len` entries, each ≥ 1).
    pub compact_counts: Vec<u64>,
    /// Total history entries evicted (merged away) over this estimator's
    /// lifetime.
    pub evicted_total: u64,
    /// Cold resamples forced by the drift detector.
    pub drift_resamples: u64,
    /// EWMA of warm-refine constraint violation (NaN = no baseline yet).
    pub violation_ewma: f64,
    /// Consecutive drift strikes accumulated against the baseline.
    pub drift_strikes: u32,
    /// True when the drift detector has demanded the next refine be cold.
    pub force_cold: bool,
    /// True when history was edited (evictions) since the last
    /// successful refine — the model is stale even with nothing pending.
    pub history_dirty: bool,
    /// The trained model as `(supports, weights)`, if any refine had
    /// succeeded. Reciprocal volumes are recomputed at restore (the same
    /// `1.0 / volume()` expression, so they rebuild bit-identically).
    pub model: Option<(Vec<Rect>, Vec<f64>)>,
    /// The RNG's raw xoshiro256** state, mid-stream.
    pub rng_state: [u64; 4],
    /// Observations ingested since the last successful refine.
    pub pending_since_refine: usize,
    /// Training version counter.
    pub version: u64,
    /// The cached incremental trainer, when the last refine left one.
    pub trainer: Option<TrainerState>,
}
