//! Plan execution with the paper's feedback loop: every executed filter
//! reports its actual selectivity to the estimator (the `FilterExec`
//! integration point of §6) — through the [`CardinalityProvider`], never
//! a directly-held estimator.

use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::planner::{plan_with_estimate, AccessPath};
use quicksel_data::ObservedQuery;
use quicksel_geometry::Predicate;
use quicksel_service::{CardinalityProvider, LearnerProvider, TableId};
use std::sync::Arc;

/// Outcome of executing one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The plan the optimizer chose.
    pub path: AccessPath,
    /// Rows satisfying the predicate.
    pub rows_returned: usize,
    /// Rows the plan had to examine (scan: all; probe: the driving range).
    pub rows_examined: usize,
    /// The actual selectivity, as reported to the provider.
    pub actual_selectivity: f64,
    /// The estimate the planner used for the full predicate.
    pub estimated_selectivity: f64,
    /// Modeled execution cost actually incurred (sequential rows at unit
    /// cost, index-fetched rows at the random-access penalty).
    pub cost_incurred: f64,
}

/// Panics when `provider` knows `table` under a different domain than
/// the catalog's; returns whether the check could run (the provider
/// knew the table).
fn check_domain(
    provider: &dyn CardinalityProvider,
    table: &TableId,
    catalog: &Catalog,
    when: &str,
) -> bool {
    match provider.domain_of(table) {
        Some(provider_domain) => {
            assert_eq!(
                &provider_domain,
                catalog.table.domain(),
                "provider and catalog disagree about the domain of table {table} ({when})"
            );
            true
        }
        None => false,
    }
}

/// The engine: catalog + cost model + execution/feedback loop, with all
/// estimation routed through a shared [`CardinalityProvider`].
///
/// Several engines (one per table) can share one provider — an
/// [`EstimatorRegistry`](quicksel_service::EstimatorRegistry) serving
/// every table.
pub struct Engine {
    catalog: Catalog,
    table: TableId,
    provider: Arc<dyn CardinalityProvider>,
    cost: CostModel,
    /// Provider generation at which the domain check last passed, or
    /// `None` if it has not passed yet (table unknown so far). The check
    /// re-runs whenever the provider's generation moves — registration,
    /// replacement, or removal of tables — so DDL that re-registers this
    /// table under a different domain panics instead of silently
    /// desynchronizing the learning loop.
    domain_checked_at: Option<u64>,
    /// Cumulative rows examined across all executed queries.
    pub total_rows_examined: usize,
    /// Cumulative modeled cost — the quantity the optimizer minimizes and
    /// the one that shrinks as estimates improve.
    pub total_cost: f64,
}

impl Engine {
    /// Creates an engine over `catalog`, reading and feeding `table`'s
    /// estimates through `provider`, with the default cost model.
    pub fn new(
        catalog: Catalog,
        table: impl Into<TableId>,
        provider: Arc<dyn CardinalityProvider>,
    ) -> Self {
        Self::with_cost(catalog, table, provider, CostModel::default())
    }

    /// Creates an engine with an explicit cost model.
    ///
    /// # Panics
    /// Panics when the provider knows `table` under a *different* domain
    /// than the catalog's — estimates would convert predicates against
    /// one geometry while feedback reported rectangles from another,
    /// silently desynchronizing the learning loop.
    pub fn with_cost(
        catalog: Catalog,
        table: impl Into<TableId>,
        provider: Arc<dyn CardinalityProvider>,
        cost: CostModel,
    ) -> Self {
        let table = table.into();
        // Read the generation before checking: if DDL races in between,
        // the next execute sees a moved generation and re-checks.
        let generation = provider.generation();
        let domain_checked_at =
            check_domain(&*provider, &table, &catalog, "at engine construction")
                .then_some(generation);
        Self {
            catalog,
            table,
            provider,
            cost,
            domain_checked_at,
            total_rows_examined: 0,
            total_cost: 0.0,
        }
    }

    /// Convenience for single-table setups: wraps `learner` in a
    /// [`LearnerProvider`] under the table id `"t0"`.
    pub fn with_learner(catalog: Catalog, learner: Box<dyn quicksel_data::Learn + Send>) -> Self {
        let domain = catalog.table.domain().clone();
        let provider = Arc::new(LearnerProvider::single("t0", domain, learner));
        Self::new(catalog, "t0", provider)
    }

    /// Shared access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog. Prefer
    /// [`insert_rows`](Self::insert_rows) for data churn — raw catalog
    /// mutation does not notify the provider.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The table this engine executes against.
    pub fn table_id(&self) -> &TableId {
        &self.table
    }

    /// The provider estimates flow through.
    pub fn provider(&self) -> &Arc<dyn CardinalityProvider> {
        &self.provider
    }

    /// Appends rows to the table, rebuilds indexes, and reports the churn
    /// to the provider (drives the scan-based estimators' auto-update
    /// rules).
    pub fn insert_rows(&mut self, rows: &[Vec<f64>]) {
        self.catalog.insert_rows(rows);
        self.provider.sync_data(&self.table, &self.catalog.table, rows.len());
    }

    /// Plans, executes, and **learns from** one conjunctive filter query.
    ///
    /// # Panics
    /// Panics when the provider has (re-)registered `table` — at any
    /// point after engine construction — under a different domain than
    /// the catalog's (same seam the construction-time check guards).
    pub fn execute(&mut self, pred: &Predicate) -> QueryResult {
        // One atomic load per query; the full check re-runs only when
        // the provider's table set changed (DDL-frequency).
        let generation = self.provider.generation();
        if self.domain_checked_at != Some(generation) {
            self.domain_checked_at =
                check_domain(&*self.provider, &self.table, &self.catalog, "before execution")
                    .then_some(generation);
        }
        let rect = pred.to_rect(self.catalog.table.domain());
        // One batched provider call per query: the full predicate plus
        // every candidate index's driving range, answered from coherent
        // snapshots instead of a scalar estimate per candidate.
        let (path, estimated_selectivity) =
            plan_with_estimate(&self.catalog, &self.table, &*self.provider, pred, &self.cost);

        let (rows_returned, rows_examined) = match &path {
            AccessPath::SeqScan => {
                let hits = self.catalog.table.count(&rect);
                (hits, self.catalog.table.row_count())
            }
            AccessPath::IndexProbe { column, .. } => {
                let index =
                    self.catalog.index_on(*column).expect("planner only probes existing indexes");
                let side = rect.side(*column);
                let mut examined = 0usize;
                let mut hits = 0usize;
                let table = &self.catalog.table;
                for row_id in index.range(side.lo, side.hi) {
                    examined += 1;
                    let row = table.row(row_id as usize);
                    if rect.contains_point(&row) {
                        hits += 1;
                    }
                }
                (hits, examined)
            }
        };
        self.total_rows_examined += rows_examined;
        let cost_incurred = match &path {
            AccessPath::SeqScan => rows_examined as f64 * self.cost.seq_row_cost,
            AccessPath::IndexProbe { .. } => {
                self.cost.index_descend_cost + rows_examined as f64 * self.cost.index_row_cost
            }
        };
        self.total_cost += cost_incurred;

        // The feedback loop: report the actual selectivity (free — the
        // engine just counted the qualifying rows).
        let n = self.catalog.table.row_count().max(1);
        let actual_selectivity = rows_returned as f64 / n as f64;
        self.provider.observe(&self.table, &ObservedQuery::new(rect, actual_selectivity));

        QueryResult {
            path,
            rows_returned,
            rows_examined,
            actual_selectivity,
            estimated_selectivity,
            cost_incurred,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use quicksel_core::{QuickSel, QuickSelConfig, RefinePolicy};
    use quicksel_data::Table;
    use quicksel_geometry::Domain;

    fn engine() -> Engine {
        let d = Domain::of_reals(&[("x", 0.0, 100.0), ("y", 0.0, 100.0)]);
        let mut t = Table::new(d.clone());
        // 90% of rows clustered in x ∈ [0, 10).
        for i in 0..9000 {
            t.push_row(&[(i % 100) as f64 / 10.0, (i % 97) as f64]);
        }
        for i in 0..1000 {
            t.push_row(&[10.0 + (i % 900) as f64 / 10.0, (i % 89) as f64]);
        }
        let est = QuickSel::new(d);
        Engine::with_learner(Catalog::new(t).with_index(0), Box::new(est))
    }

    #[test]
    fn scan_and_probe_agree_on_row_counts() {
        let mut e = engine();
        let p = Predicate::new().range(0, 20.0, 30.0).range(1, 0.0, 50.0);
        let r1 = e.execute(&p);
        // Whatever the path, returned rows must equal the true count.
        let rect = p.to_rect(e.catalog().table.domain());
        assert_eq!(r1.rows_returned, e.catalog().table.count(&rect));
        assert!((r1.actual_selectivity - e.catalog().table.selectivity(&rect)).abs() < 1e-12);
    }

    #[test]
    fn feedback_reaches_the_provider() {
        let mut e = engine();
        let p = Predicate::new().range(0, 0.0, 5.0);
        let before = e.provider().version(e.table_id());
        e.execute(&p);
        assert!(e.provider().version(e.table_id()) > before);
    }

    #[test]
    fn learning_reduces_execution_cost() {
        // Run the same mis-estimated workload twice: once fresh (uniform
        // prior mis-plans the clustered range as a cheap-looking index
        // probe that random-accesses 45% of the table), once after warmup.
        // The learned engine must incur lower modeled cost.
        let workload: Vec<Predicate> = (0..20)
            .map(|i| {
                let lo = (i % 5) as f64;
                Predicate::new().range(0, lo, lo + 5.0)
            })
            .collect();

        let mut cold = engine();
        for p in &workload {
            cold.execute(p);
        }
        let cold_cost = cold.total_cost;

        let mut warm = engine();
        for p in &workload {
            warm.execute(p); // warmup pass (estimator learns)
        }
        warm.total_cost = 0.0;
        for p in &workload {
            warm.execute(p); // measured pass
        }
        assert!(warm.total_cost < cold_cost, "warm {} vs cold {}", warm.total_cost, cold_cost);
    }

    #[test]
    fn estimates_improve_over_the_run() {
        let cfg = QuickSelConfig { refine_policy: RefinePolicy::EveryQuery, ..Default::default() };
        let d = Domain::of_reals(&[("x", 0.0, 100.0), ("y", 0.0, 100.0)]);
        let mut t = Table::new(d.clone());
        for i in 0..5000 {
            t.push_row(&[(i % 100) as f64 / 2.0, (i % 83) as f64]);
        }
        let est = QuickSel::with_config(d, cfg);
        let mut e = Engine::with_learner(Catalog::new(t).with_index(0), Box::new(est));
        let mut early_err = 0.0;
        let mut late_err = 0.0;
        for i in 0..40 {
            let lo = (i % 8) as f64 * 6.0;
            let p = Predicate::new().range(0, lo, lo + 6.0);
            let r = e.execute(&p);
            let err = (r.estimated_selectivity - r.actual_selectivity).abs();
            if i < 8 {
                early_err += err;
            } else if i >= 32 {
                late_err += err;
            }
        }
        assert!(late_err < early_err, "late {late_err} vs early {early_err}");
    }

    #[test]
    fn inserts_keep_engine_consistent() {
        let mut e = engine();
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![50.0, (i % 100) as f64]).collect();
        e.insert_rows(&rows);
        let p = Predicate::new().range(0, 49.5, 50.5);
        let r = e.execute(&p);
        assert!(r.rows_returned >= 500);
    }

    #[test]
    #[should_panic(expected = "disagree about the domain")]
    fn mismatched_provider_domain_is_rejected_at_construction() {
        let catalog_domain = Domain::of_reals(&[("x", 0.0, 100.0), ("y", 0.0, 100.0)]);
        let provider_domain = Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)]);
        let t = Table::new(catalog_domain);
        let provider = Arc::new(quicksel_service::LearnerProvider::single(
            "t",
            provider_domain.clone(),
            Box::new(QuickSel::new(provider_domain)),
        ));
        let _ = Engine::new(Catalog::new(t), "t", provider);
    }

    #[test]
    #[should_panic(expected = "disagree about the domain")]
    fn late_registration_with_wrong_domain_is_caught_on_execute() {
        use quicksel_service::EstimatorRegistry;
        let catalog_domain = Domain::of_reals(&[("x", 0.0, 100.0), ("y", 0.0, 100.0)]);
        let mut t = Table::new(catalog_domain);
        t.push_row(&[1.0, 1.0]);
        let registry: Arc<EstimatorRegistry<QuickSel>> = Arc::new(EstimatorRegistry::new());
        // Table unknown at construction: the check is deferred, not skipped.
        let mut engine = Engine::new(
            Catalog::new(t),
            "t",
            Arc::clone(&registry) as Arc<dyn CardinalityProvider>,
        );
        let wrong = Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)]);
        registry.register_with("t", wrong.clone(), 2, |i| {
            QuickSel::builder(wrong.clone()).seed(i as u64).build()
        });
        let _ = engine.execute(&Predicate::new().range(0, 0.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "disagree about the domain")]
    fn reregistration_with_wrong_domain_is_caught_on_next_execute() {
        use quicksel_service::EstimatorRegistry;
        let catalog_domain = Domain::of_reals(&[("x", 0.0, 100.0), ("y", 0.0, 100.0)]);
        let mut t = Table::new(catalog_domain.clone());
        t.push_row(&[1.0, 1.0]);
        let registry: Arc<EstimatorRegistry<QuickSel>> = Arc::new(EstimatorRegistry::new());
        registry.register_with("t", catalog_domain.clone(), 2, |i| {
            QuickSel::builder(catalog_domain.clone()).seed(i as u64).build()
        });
        // Passes the construction-time check…
        let mut engine = Engine::new(
            Catalog::new(t),
            "t",
            Arc::clone(&registry) as Arc<dyn CardinalityProvider>,
        );
        engine.execute(&Predicate::new().range(0, 0.0, 5.0));
        // …then DDL swaps the table in under a different domain: the
        // generation moved, so the next execute re-checks and panics.
        let wrong = Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)]);
        registry.remove(&"t".into());
        registry.register_with("t", wrong.clone(), 2, |i| {
            QuickSel::builder(wrong.clone()).seed(i as u64).build()
        });
        let _ = engine.execute(&Predicate::new().range(0, 0.0, 5.0));
    }

    #[test]
    fn engines_share_one_provider_across_tables() {
        use quicksel_service::{EstimatorRegistry, TableId};
        let registry: Arc<EstimatorRegistry<QuickSel>> = Arc::new(EstimatorRegistry::new());
        let mut engines = Vec::new();
        for name in ["r", "s"] {
            let d = Domain::of_reals(&[("x", 0.0, 100.0), ("y", 0.0, 100.0)]);
            let mut t = Table::new(d.clone());
            for i in 0..2000 {
                t.push_row(&[(i % 100) as f64, (i % 97) as f64]);
            }
            registry.register_with(name, d.clone(), 2, |i| {
                QuickSel::builder(d.clone()).seed(i as u64).build()
            });
            engines.push(Engine::new(
                Catalog::new(t).with_index(0),
                name,
                Arc::clone(&registry) as Arc<dyn CardinalityProvider>,
            ));
        }
        for e in &mut engines {
            for i in 0..5 {
                let lo = (i * 13 % 80) as f64;
                e.execute(&Predicate::new().range(0, lo, lo + 10.0));
            }
        }
        // Both tables learned independently inside the shared registry.
        assert!(registry.version(&TableId::from("r")) > 0);
        assert!(registry.version(&TableId::from("s")) > 0);
        assert_eq!(registry.stats().total.queries_ingested, 10);
    }
}
