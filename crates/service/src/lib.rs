//! # quicksel-service — lock-free selectivity serving
//!
//! The QuickSel paper puts selectivity estimation inside a DBMS's
//! planning hot path; a production deployment therefore needs **many
//! concurrent readers** (one per planning thread) while **feedback
//! ingestion and retraining** happen elsewhere. This crate supplies that
//! split on top of the [`Estimate`](quicksel_data::Estimate) /
//! [`Learn`](quicksel_data::Learn) contract:
//!
//! * [`ArcCell`] — an RCU-style atomically swappable `Arc` slot: readers
//!   clone the current snapshot with a couple of atomic operations and no
//!   mutex; writers swap and reclaim the old value after a grace period.
//! * [`SelectivityService`] — wraps any
//!   [`SnapshotSource`](quicksel_data::SnapshotSource) learner (QuickSel
//!   in practice): [`snapshot`](SelectivityService::snapshot) /
//!   [`estimate`](SelectivityService::estimate) on the lock-free read
//!   path, and validated batch ingestion + fallible retraining + atomic
//!   publish on the one write path,
//!   [`observe_batch`](SelectivityService::observe_batch).
//! * [`ShardedService`] — N services over one domain with deterministic
//!   predicate-hash feedback routing: one writer per shard, zero
//!   cross-shard write contention, and one routed read path,
//!   [`ShardedService::estimate_many`] (owning shard, or a cross-shard
//!   blend for wide probes).
//! * [`EstimatorRegistry`] — `TableId -> ShardedService`: one sharded
//!   estimator per table behind the planner-facing
//!   [`CardinalityProvider`] API: batched
//!   [`estimate_many`](CardinalityProvider::estimate_many) by table +
//!   predicates and [`observe_batch`](CardinalityProvider::observe_batch)
//!   feedback, plus an
//!   [`estimate_join`](CardinalityProvider::estimate_join) hook. Every
//!   provider implements only the batched calls; the scalar
//!   [`estimate`](CardinalityProvider::estimate) /
//!   [`observe`](CardinalityProvider::observe) are provided
//!   batch-of-one wrappers, so there is one path per operation.
//! * **Durability** (backed by [`quicksel_persist`]) —
//!   [`SelectivityService::open_durable`] /
//!   [`ShardedService::open_durable`] /
//!   [`EstimatorRegistry::register_durable`] log every feedback batch to
//!   a per-shard WAL, checkpoint learner state on configurable
//!   thresholds, and recover exactly (checkpoint + WAL-tail replay)
//!   after a crash; [`EstimatorRegistry::recover_from`] restores a whole
//!   registry from its base directory.
//!
//! ```
//! use quicksel_core::QuickSel;
//! use quicksel_data::{Estimate, ObservedQuery};
//! use quicksel_geometry::{Domain, Predicate};
//! use quicksel_service::SelectivityService;
//! use std::sync::Arc;
//!
//! let domain = Domain::of_reals(&[("x", 0.0, 10.0)]);
//! let service = Arc::new(SelectivityService::new(
//!     QuickSel::builder(domain.clone()).build(),
//! ));
//!
//! // Reader threads each grab a snapshot and estimate lock-free.
//! let reader = {
//!     let service = Arc::clone(&service);
//!     let domain = domain.clone();
//!     std::thread::spawn(move || {
//!         let snapshot = service.snapshot();
//!         snapshot.estimate(&Predicate::new().range(0, 0.0, 5.0).to_rect(&domain))
//!     })
//! };
//!
//! // The writer ingests feedback and publishes new snapshots meanwhile.
//! let full = Predicate::new().to_rect(&domain);
//! service.observe_batch(&[ObservedQuery::new(full, 1.0)]).expect("train");
//!
//! let est = reader.join().unwrap();
//! assert!((0.0..=1.0).contains(&est));
//! ```

pub mod provider;
pub mod rate;
pub mod registry;
pub mod service;
pub mod shard;
pub mod swap;

pub use provider::{CardinalityProvider, LearnerProvider, TableId};
pub use rate::{RateMeter, RATE_WINDOW_SECS};
pub use registry::{
    EstimatorRegistry, RecoveryReport, RegistryStats, ReplicationGauges, ReplicationStats,
};
pub use service::{HealthState, SelectivityService, ServiceStats, ShardRecovery, SharedSnapshot};
pub use shard::{ShardedService, ShardedStats, BLEND_THRESHOLD};
pub use swap::ArcCell;
