//! # QuickSel — selectivity learning with uniform mixture models
//!
//! A Rust implementation of *"QuickSel: Quick Selectivity Learning with
//! Mixture Models"* (Park, Zhong, Mozafari — SIGMOD 2020).
//!
//! QuickSel is a **query-driven** selectivity estimator: it never scans the
//! data. Instead it observes `(predicate, actual selectivity)` pairs that a
//! DBMS collects for free at query-execution time and fits a *uniform
//! mixture model* of the joint tuple distribution:
//!
//! ```text
//! f(x) = Σ_z  w_z · g_z(x),      g_z uniform on hyperrectangle G_z
//! ```
//!
//! Estimation of a new predicate `B` is then just box intersections (§3.2):
//!
//! ```text
//! ŝ(B) = Σ_z  w_z · |G_z ∩ B| / |G_z|
//! ```
//!
//! Training finds the weights minimizing the L2 distance from the uniform
//! distribution subject to consistency with the observed selectivities
//! (§4.1), which reduces to the quadratic program of Theorem 1 and is
//! solved **analytically** through the penalized form of Problem 3:
//! `w* = (Q + λAᵀA)⁻¹ λAᵀs`.
//!
//! ## Quick start
//!
//! The API separates reading from writing: [`Estimate`](quicksel_data::Estimate)
//! is the immutable serving side, [`Learn`](quicksel_data::Learn) the
//! feedback/training side. Feedback arrives in
//! batches, retraining is fallible, and [`QuickSel::snapshot`] freezes the
//! model for lock-free concurrent estimation.
//!
//! ```
//! use quicksel_core::{QuickSel, RefinePolicy};
//! use quicksel_data::{Estimate, Learn, ObservedQuery};
//! use quicksel_geometry::{Domain, Predicate};
//!
//! let domain = Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)]);
//! let mut qs = QuickSel::builder(domain.clone())
//!     .refine_policy(RefinePolicy::Manual)
//!     .seed(42)
//!     .build();
//!
//! // Feed a batch of query feedback: "x < 5" selected 50% of the rows.
//! let half = Predicate::new().less_than(0, 5.0).to_rect(&domain);
//! qs.observe_batch(&[ObservedQuery::new(half, 0.5)]);
//! let outcome = qs.refine().expect("training failed");
//! assert!(outcome.retrained());
//!
//! // Freeze an immutable snapshot; it estimates with &self only.
//! let snapshot = qs.snapshot();
//! let probe = Predicate::new().range(0, 0.0, 2.5).to_rect(&domain);
//! let est = snapshot.estimate(&probe);
//! assert!((0.0..=1.0).contains(&est));
//! ```

pub mod assembly;
pub mod batch;
pub mod config;
pub mod estimator;
pub mod model;
pub mod snapshot;
pub mod state;
pub mod subpop;
pub mod train;

pub use assembly::SubpopGrid;
pub use config::{QuickSelConfig, RefinePolicy};
pub use estimator::{QuickSel, QuickSelBuilder};
pub use model::UniformMixtureModel;
pub use snapshot::ModelSnapshot;
pub use state::{QuickSelState, StateError, TrainerState};
pub use train::{build_qp, IncrementalTrainer, TrainReport};
