//! Data substrate for the QuickSel reproduction: in-memory column-store
//! tables with exact selectivity evaluation, synthetic dataset generators
//! standing in for the paper's real-world datasets, workload generators
//! (including the §5.6 workload-shift patterns), and the estimator
//! contract — the read-side [`Estimate`] and write-side [`Learn`] traits
//! that QuickSel and every baseline implement.
//!
//! ## Dataset substitutions
//!
//! The paper evaluates on the NY DMV registration dump and the Instacart
//! orders table, neither of which is available offline. [`datasets::dmv`]
//! and [`datasets::instacart`] generate synthetic tables that preserve the
//! properties those experiments exercise — attribute correlation,
//! multi-modality, discrete/continuous mixes — with the row count as a
//! knob. The README's "Building and testing" section lists the figure
//! binaries that run on them.

pub mod datasets;
pub mod drift;
pub mod error;
pub mod estimator;
pub mod rng;
pub mod table;
pub mod workload;

pub use error::{mean_abs_error, mean_rel_error_pct, rel_error_pct, ErrorStats};
pub use estimator::{
    route_hash, validate_batch, Estimate, EstimatorError, Learn, ObservedQuery, RefineOutcome,
    SnapshotSource,
};
pub use table::Table;
pub use workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
