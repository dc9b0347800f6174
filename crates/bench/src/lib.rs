//! Experiment harness for the QuickSel paper's evaluation (§5).
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/` (the README's "Building and testing" section lists them);
//! this library holds the shared pieces: the method factory, the
//! query-driven evaluation driver, dataset builders at experiment scale,
//! and plain-text table output.
//!
//! Absolute numbers will differ from the paper (different hardware,
//! synthetic stand-ins for the proprietary datasets, single-threaded dense
//! kernels); the harness is built to reproduce the paper's *shapes*: who
//! wins, by what rough factor, and where the curves cross.

pub mod driver;
pub mod host;
pub mod methods;
pub mod report;
pub mod scale;

pub use driver::{evaluate, run_query_driven, score, QueryDrivenRun};
pub use host::write_bench_json;
pub use methods::{make_estimator, MethodKind};
pub use report::{fmt_duration_ms, fmt_pct, TextTable};
pub use scale::Scale;
