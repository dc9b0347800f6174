//! [`CardinalityProvider`]: the planner-facing estimation API.
//!
//! The query engine used to reach directly into its catalog's estimator
//! (`catalog.estimator.estimate(...)`), which welded planning to one
//! mutable single-table learner. This module inverts that seam: the
//! planner talks to a *provider* — estimate by table + predicate, feed
//! back observed selectivities, and nothing else — and the serving side
//! decides how estimates are produced:
//!
//! * [`EstimatorRegistry`](crate::EstimatorRegistry) — the production
//!   path: per-table sharded services, lock-free snapshot reads.
//! * [`LearnerProvider`] — a mutex-serialized fallback that adapts *any*
//!   [`Learn`] implementation (the scan-based and histogram baselines
//!   included), for tests and comparisons where snapshot support is not
//!   available.

use quicksel_data::{Learn, ObservedQuery, Table};
use quicksel_geometry::{Domain, Predicate, Rect};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, RwLock};

/// Identifies one table in a provider / registry. Cheap to clone and
/// hash (reference-counted string).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(Arc<str>);

impl TableId {
    /// Wraps a table name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Self(name.into())
    }

    /// The table name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TableId {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

impl From<String> for TableId {
    fn from(name: String) -> Self {
        Self::new(name)
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The only interface through which the query engine consumes (and
/// feeds) selectivity estimates.
///
/// Estimation methods take `&self` so a provider can be shared across
/// planner call sites; implementations synchronize internally. A
/// provider that does not know `table` must degrade safely: estimate
/// `1.0` (the conservative answer — the planner falls back to the
/// sequential scan) and drop feedback rather than panic.
pub trait CardinalityProvider {
    /// Selectivity estimates in `[0, 1]` for a batch of predicates on one
    /// table, in input order — the planner's candidate-plan probe path
    /// and the one estimate path every provider implements.
    ///
    /// Serving-backed providers resolve the table once and answer the
    /// whole batch from coherent model snapshots through the batched SoA
    /// kernel. Results must equal element-wise single-probe estimation
    /// (at a fixed model version).
    fn estimate_many(&self, table: &TableId, preds: &[Predicate]) -> Vec<f64>;

    /// Selectivity estimate in `[0, 1]` for `pred` on `table`: a batch of
    /// one through [`estimate_many`](Self::estimate_many).
    fn estimate(&self, table: &TableId, pred: &Predicate) -> f64 {
        self.estimate_many(table, std::slice::from_ref(pred)).first().copied().unwrap_or(1.0)
    }

    /// Join-cardinality hook: estimates `|σ_p(R) ⋈ σ_q(S)|` from the
    /// unfiltered join cardinality and the per-relation estimates, under
    /// the paper's §2.2 predicate/join independence assumption. The
    /// default is the independence product; providers with join-aware
    /// models can override it.
    fn estimate_join(
        &self,
        base_join_cardinality: f64,
        left: &TableId,
        left_pred: &Predicate,
        right: &TableId,
        right_pred: &Predicate,
    ) -> f64 {
        base_join_cardinality * self.estimate(left, left_pred) * self.estimate(right, right_pred)
    }

    /// Feeds a batch of executed queries' observed selectivities back
    /// into `table`'s estimator — the one feedback path every provider
    /// implements. Unknown tables drop the feedback (counted by
    /// implementations that track stats).
    fn observe_batch(&self, table: &TableId, batch: &[ObservedQuery]);

    /// Feeds one observation back: a batch of one through
    /// [`observe_batch`](Self::observe_batch).
    fn observe(&self, table: &TableId, feedback: &ObservedQuery) {
        self.observe_batch(table, std::slice::from_ref(feedback));
    }

    /// Notifies `table`'s estimator that `changed_rows` rows churned.
    fn sync_data(&self, table: &TableId, data: &Table, changed_rows: usize);

    /// Monotone model-version counter for `table` (`0` when unknown).
    /// Callers may key caches on it: an unchanged version guarantees
    /// unchanged estimates.
    fn version(&self, table: &TableId) -> u64;

    /// The domain `table`'s estimator converts predicates against, if the
    /// provider knows the table. Engines check this at construction: a
    /// provider registered with a different domain than the catalog's
    /// table would silently desynchronize the estimate and feedback
    /// paths (the estimate path converts predicates with the provider's
    /// domain, the feedback path reports rectangles built from the
    /// catalog's). Default: `None` (no check possible).
    fn domain_of(&self, _table: &TableId) -> Option<Domain> {
        None
    }

    /// Monotone counter bumped whenever the provider's *table set*
    /// changes (registration, replacement, removal) — as opposed to
    /// [`version`](Self::version), which tracks one table's model.
    /// Engines re-run their domain check when this moves, so DDL that
    /// re-registers a table under a different domain is caught instead
    /// of silently desynchronizing the learning loop. Default: `0`
    /// (static table set).
    fn generation(&self) -> u64 {
        0
    }
}

struct LearnerEntry {
    domain: Domain,
    learner: Mutex<Box<dyn Learn + Send>>,
    version: AtomicU64,
}

/// Mutex-serialized provider over arbitrary [`Learn`] implementations.
///
/// The registry path requires
/// [`SnapshotSource`](quicksel_data::SnapshotSource); the scan-based and
/// histogram baselines don't implement it. This adapter makes any
/// learner usable behind the [`CardinalityProvider`] seam by locking a
/// per-table mutex around both reads and writes — fine for tests,
/// comparisons, and single-threaded engines; wrong for high-QPS serving
/// (use [`EstimatorRegistry`](crate::EstimatorRegistry) there).
#[derive(Default)]
pub struct LearnerProvider {
    tables: RwLock<HashMap<TableId, Arc<LearnerEntry>>>,
    generation: AtomicU64,
}

impl LearnerProvider {
    /// An empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `table`'s learner.
    pub fn register(
        &self,
        table: impl Into<TableId>,
        domain: Domain,
        learner: Box<dyn Learn + Send>,
    ) {
        let entry = Arc::new(LearnerEntry {
            domain,
            learner: Mutex::new(learner),
            version: AtomicU64::new(0),
        });
        self.tables.write().expect("provider table map poisoned").insert(table.into(), entry);
        self.generation.fetch_add(1, SeqCst);
    }

    /// Convenience: a provider serving exactly one table.
    pub fn single(
        table: impl Into<TableId>,
        domain: Domain,
        learner: Box<dyn Learn + Send>,
    ) -> Self {
        let p = Self::new();
        p.register(table, domain, learner);
        p
    }

    /// Runs a closure against `table`'s locked learner (diagnostics).
    pub fn with_learner<R>(&self, table: &TableId, f: impl FnOnce(&dyn Learn) -> R) -> Option<R> {
        let entry = self.tables.read().expect("provider table map poisoned").get(table).cloned()?;
        let learner = entry.learner.lock().expect("provider learner lock poisoned");
        Some(f(&**learner))
    }

    fn entry(&self, table: &TableId) -> Option<Arc<LearnerEntry>> {
        self.tables.read().expect("provider table map poisoned").get(table).cloned()
    }
}

impl CardinalityProvider for LearnerProvider {
    /// Batched probes under one lock acquisition: the learner is locked
    /// once for the whole batch and answers through its own
    /// [`Estimate::estimate_many`](quicksel_data::Estimate::estimate_many)
    /// (for QuickSel, one blocked kernel pass over the model's shared
    /// support columns).
    fn estimate_many(&self, table: &TableId, preds: &[Predicate]) -> Vec<f64> {
        match self.entry(table) {
            Some(e) => {
                let rects: Vec<Rect> = preds.iter().map(|p| p.to_rect(&e.domain)).collect();
                e.learner.lock().expect("provider learner lock poisoned").estimate_many(&rects)
            }
            None => vec![1.0; preds.len()],
        }
    }

    fn observe_batch(&self, table: &TableId, batch: &[ObservedQuery]) {
        if let Some(e) = self.entry(table) {
            e.learner.lock().expect("provider learner lock poisoned").observe_batch(batch);
            e.version.fetch_add(1, SeqCst);
        }
    }

    fn sync_data(&self, table: &TableId, data: &Table, changed_rows: usize) {
        if let Some(e) = self.entry(table) {
            e.learner.lock().expect("provider learner lock poisoned").sync_data(data, changed_rows);
            e.version.fetch_add(1, SeqCst);
        }
    }

    fn version(&self, table: &TableId) -> u64 {
        self.entry(table).map_or(0, |e| e.version.load(SeqCst))
    }

    fn domain_of(&self, table: &TableId) -> Option<Domain> {
        self.entry(table).map(|e| e.domain.clone())
    }

    fn generation(&self) -> u64 {
        self.generation.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EstimatorRegistry;
    use quicksel_core::{QuickSel, RefinePolicy};

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    fn registry(shards: usize) -> Arc<EstimatorRegistry<QuickSel>> {
        let reg = EstimatorRegistry::new();
        let d = domain();
        reg.register_with("t", d.clone(), shards, |i| {
            QuickSel::builder(d.clone()).refine_policy(RefinePolicy::Manual).seed(i as u64).build()
        });
        Arc::new(reg)
    }

    #[test]
    fn table_id_round_trips() {
        let id: TableId = "orders".into();
        assert_eq!(id.as_str(), "orders");
        assert_eq!(id.to_string(), "orders");
        assert_eq!(id, TableId::new("orders"));
        assert_eq!(TableId::from(String::from("orders")), id);
    }

    #[test]
    fn scalar_probes_count_toward_the_estimate_rate() {
        let reg = registry(1);
        let t: TableId = "t".into();
        let pred = Predicate::new().range(0, 1.0, 3.0);
        for _ in 0..100 {
            reg.estimate(&t, &pred);
        }
        let rate = reg.stats().total.estimate_rects_per_s;
        assert!(rate >= 100.0 / crate::RATE_WINDOW_SECS as f64, "estimate rate {rate}");
    }

    #[test]
    fn registry_estimates_track_ddl() {
        let reg = registry(2);
        let t: TableId = "t".into();
        let pred = Predicate::new().range(0, 1.0, 3.0);
        assert!(reg.estimate(&t, &pred) < 1.0);

        // A removed table degrades to the conservative 1.0 instead of
        // answering from the dead service's snapshots.
        reg.remove(&t).expect("registered");
        assert_eq!(reg.estimate(&t, &pred), 1.0);

        // Re-registering (fresh learners) is picked up the same way.
        let d = domain();
        let service = reg.register_with("t", d.clone(), 3, |i| {
            QuickSel::builder(d.clone())
                .refine_policy(RefinePolicy::Manual)
                .seed(100 + i as u64)
                .build()
        });
        let fresh = reg.estimate(&t, &pred);
        assert_eq!(fresh, service.estimate(&pred.to_rect(&d)));
        assert!(fresh < 1.0, "fresh service answers from its prior");
    }

    #[test]
    fn unknown_tables_degrade_conservatively() {
        let reg = registry(2);
        let ghost: TableId = "ghost".into();
        let pred = Predicate::new().range(0, 0.0, 1.0);
        assert_eq!(reg.estimate(&ghost, &pred), 1.0);
        reg.observe(&ghost, &ObservedQuery::new(Rect::from_bounds(&[(0.0, 1.0)]), 0.5));
        assert_eq!(reg.version(&ghost), 0);
        let stats = reg.stats();
        assert_eq!(stats.missing_table_probes, 1);
        assert_eq!(stats.dropped_feedback, 1);

        let lp = LearnerProvider::new();
        assert_eq!(lp.estimate(&ghost, &pred), 1.0);
        assert_eq!(lp.version(&ghost), 0);
    }

    #[test]
    fn learner_provider_adapts_any_learn() {
        let d = domain();
        let lp =
            LearnerProvider::single("t", d.clone(), Box::new(QuickSel::builder(d.clone()).build()));
        let t: TableId = "t".into();
        let pred = Predicate::new().range(0, 0.0, 5.0).range(1, 0.0, 5.0);
        let rect = pred.to_rect(&d);
        assert_eq!(lp.version(&t), 0);
        lp.observe(&t, &ObservedQuery::new(rect, 0.9));
        assert_eq!(lp.version(&t), 1);
        assert!((lp.estimate(&t, &pred) - 0.9).abs() < 0.05);
        lp.with_learner(&t, |l| assert!(l.param_count() > 0)).unwrap();
        // estimate_join default: the independence product.
        let full = Predicate::new();
        let j = lp.estimate_join(1000.0, &t, &pred, &t, &full);
        let product = 1000.0 * lp.estimate(&t, &pred) * lp.estimate(&t, &full);
        assert!((j - product).abs() < 1e-9);
    }
}
