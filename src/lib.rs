//! # quicksel — selectivity learning with uniform mixture models
//!
//! A from-scratch Rust reproduction of *"QuickSel: Quick Selectivity
//! Learning with Mixture Models"* (Park, Zhong, Mozafari — SIGMOD 2020),
//! including every substrate the paper's evaluation depends on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`QuickSel`] — the estimator itself (crate `quicksel-core`),
//! * [`SelectivityService`] — lock-free concurrent serving of immutable
//!   model snapshots (crate `quicksel-service`),
//! * [`EstimatorRegistry`] / [`ShardedService`] / [`CardinalityProvider`]
//!   — the multi-table serving layer: per-table sharded estimators with
//!   deterministic feedback routing behind the planner-facing provider
//!   API. Every layer from the provider seam down to the SoA kernel has
//!   one batched estimate path (`estimate_many`); scalar `estimate`
//!   calls are batches of one,
//! * [`geometry`] — predicates, hyperrectangles, domains,
//! * [`linalg`] — the dense solvers behind training,
//! * [`parallel`] — the workspace thread pool the training and batched
//!   estimation hot paths fan out on (`QUICKSEL_THREADS` to override
//!   the size; results are identical at any thread count),
//! * [`data`] — tables, synthetic datasets, workloads, metrics, and the
//!   [`Estimate`]/[`Learn`] estimator contract,
//! * [`persist`] — durable estimator state: a versioned, checksummed
//!   snapshot format, per-shard feedback WALs, and the crash-recovering
//!   checkpoint subsystem behind
//!   [`SelectivityService::open_durable`](quicksel_service::SelectivityService::open_durable)
//!   and [`EstimatorRegistry::recover_from`](quicksel_service::EstimatorRegistry::recover_from),
//! * [`net`] — networked serving: the CRC-framed binary wire protocol,
//!   the `quicksel-server` TCP runtime with bounded workers and graceful
//!   drain, rate-based admission control, and the [`RemoteProvider`]
//!   planner seam over a remote registry,
//! * [`replica`] — replicated serving: the checkpoint/WAL shipping
//!   agent ([`ReplicaAgent`]), the read-only [`ReplicaBackend`], and
//!   the multi-endpoint [`FailoverClient`] that moves reads to a
//!   replica (within a staleness bound) when the primary goes away,
//! * [`baselines`] — STHoles, ISOMER, ISOMER+QP, QueryModel, AutoHist,
//!   AutoSample.
//!
//! ## Quick start
//!
//! The estimator API is split into a read side ([`Estimate`]: `&self`
//! only) and a write side ([`Learn`]: batched feedback + fallible
//! retraining). Configure with the builder, ingest feedback in batches,
//! and freeze snapshots for serving:
//!
//! ```
//! use quicksel::prelude::*;
//!
//! // A table substrate standing in for the DBMS.
//! let table = quicksel::data::datasets::gaussian_table(2, 0.5, 10_000, 7);
//!
//! // The estimator only ever sees query feedback, never the data.
//! let mut estimator = QuickSel::builder(table.domain().clone())
//!     .refine_policy(RefinePolicy::Manual)
//!     .seed(42)
//!     .build();
//! let mut workload = RectWorkload::new(
//!     table.domain().clone(), 42, ShiftMode::Random, CenterMode::DataRow);
//!
//! // Batched feedback ingestion + one explicit (fallible) retrain.
//! let feedback = workload.take_queries(&table, 30);
//! estimator.observe_batch(&feedback);
//! let outcome = estimator.refine().expect("training failed");
//! assert!(outcome.retrained());
//!
//! // Ask for selectivity estimates for new predicates.
//! let probe = workload.next_query(&table);
//! let est = estimator.estimate(&probe.rect);
//! assert!((est - probe.selectivity).abs() < 0.25);
//! ```
//!
//! ## Concurrent serving
//!
//! Wrap the estimator in a [`SelectivityService`] to let any number of
//! planner threads estimate lock-free while feedback batches retrain in
//! the background:
//!
//! ```
//! use quicksel::prelude::*;
//! use std::sync::Arc;
//!
//! let domain = Domain::of_reals(&[("x", 0.0, 10.0)]);
//! let service = Arc::new(SelectivityService::new(
//!     QuickSel::builder(domain.clone()).build(),
//! ));
//!
//! // Reader threads: grab a snapshot, estimate with &self only.
//! let snapshot = service.snapshot();
//! let probe = Predicate::new().range(0, 2.0, 4.0).to_rect(&domain);
//! assert!((0.0..=1.0).contains(&snapshot.estimate(&probe)));
//!
//! // Writer: validated batch ingestion + retrain + atomic publish.
//! let half = Predicate::new().less_than(0, 5.0).to_rect(&domain);
//! service.observe_batch(&[ObservedQuery::new(half, 0.5)]).expect("train");
//! assert_eq!(service.version(), 1);
//! ```

pub use quicksel_baselines as baselines;
pub use quicksel_core as core;
pub use quicksel_data as data;
pub use quicksel_engine as engine;
pub use quicksel_fault as fault;
pub use quicksel_geometry as geometry;
pub use quicksel_linalg as linalg;
pub use quicksel_net as net;
pub use quicksel_parallel as parallel;
pub use quicksel_persist as persist;
pub use quicksel_replica as replica;
pub use quicksel_service as service;

pub use quicksel_baselines::{AutoHist, AutoSample, Isomer, IsomerQp, QueryModel, STHoles};
pub use quicksel_core::{ModelSnapshot, QuickSel, QuickSelBuilder, QuickSelConfig, RefinePolicy};
pub use quicksel_data::{
    Estimate, EstimatorError, Learn, ObservedQuery, RefineOutcome, SnapshotSource, Table,
};
pub use quicksel_fault::{FaultPlan, FaultStream, IoFault, IoOp, StreamFault};
pub use quicksel_geometry::{BoolExpr, Domain, Interval, Predicate, Rect};
pub use quicksel_net::{
    ClientError, FailoverClient, NetBackend, NetClient, NetServerStats, RemoteProvider,
    ServerConfig, ServerHandle, ServerRole, WireError, WireStats,
};
pub use quicksel_persist::{DurabilityOptions, PersistError, PersistLearner};
pub use quicksel_replica::{ReplicaAgent, ReplicaBackend, ReplicaOptions};
pub use quicksel_service::{
    CardinalityProvider, EstimatorRegistry, HealthState, LearnerProvider, RecoveryReport,
    RegistryStats, SelectivityService, ServiceStats, ShardRecovery, ShardedService, ShardedStats,
    SharedSnapshot, TableId,
};

/// Convenience imports covering the common workflow.
pub mod prelude {
    pub use quicksel_core::{ModelSnapshot, QuickSel, QuickSelConfig, RefinePolicy};
    pub use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
    pub use quicksel_data::{
        Estimate, EstimatorError, Learn, ObservedQuery, RefineOutcome, SnapshotSource, Table,
    };
    pub use quicksel_geometry::{Domain, Predicate, Rect};
    pub use quicksel_service::{
        CardinalityProvider, EstimatorRegistry, SelectivityService, ShardedService, TableId,
    };
}
