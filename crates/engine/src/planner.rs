//! Cost-based access-path selection driven by selectivity estimates.

use crate::catalog::Catalog;
use crate::cost::CostModel;
use quicksel_geometry::Predicate;
use quicksel_service::{CardinalityProvider, TableId};

/// The physical plan chosen for a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every row, applying the full predicate.
    SeqScan,
    /// Probe the index on `column` with the predicate's range on that
    /// column, then apply the residual predicate to the fetched rows.
    IndexProbe {
        /// Which indexed column drives the probe.
        column: usize,
        /// Estimated selectivity of the index-driving range alone.
        driving_selectivity: f64,
    },
}

/// Candidate index probes for `pred`, as parallel vectors in catalog
/// index order: for each index whose column the predicate constrains,
/// the indexed column plus the *driving range* predicate (that column's
/// constraint alone — the index can only use one column). Parallel so
/// the probe vector can feed `estimate_many` directly, no cloning.
fn index_candidates(catalog: &Catalog, pred: &Predicate) -> (Vec<usize>, Vec<Predicate>) {
    let mut columns = Vec::new();
    let mut drivers = Vec::new();
    for index in &catalog.indexes {
        if let Some(c) = pred.constraints().iter().find(|c| c.column == index.column) {
            columns.push(index.column);
            drivers.push(Predicate::new().with_interval(index.column, c.range));
        }
    }
    (columns, drivers)
}

/// Picks the cheapest path given each candidate column's estimated
/// driving selectivity (parallel slices).
fn choose_path(
    rows: usize,
    cost: &CostModel,
    columns: &[usize],
    selectivities: &[f64],
) -> AccessPath {
    let mut best = (cost.seq_scan(rows), AccessPath::SeqScan);
    for (&column, &sel) in columns.iter().zip(selectivities) {
        let c = cost.index_probe(rows, sel);
        if c < best.0 {
            best = (c, AccessPath::IndexProbe { column, driving_selectivity: sel });
        }
    }
    best.1
}

/// Chooses the cheapest access path for `pred` on `table`.
///
/// All candidate-plan probes (one driving range per usable index) are
/// gathered first and estimated through **one**
/// [`CardinalityProvider::estimate_many`] call, so a serving-backed
/// provider answers every candidate from coherent model snapshots via
/// the batched SoA kernel instead of re-dispatching per index.
/// Estimates flow exclusively through the [`CardinalityProvider`] — the
/// planner never touches an estimator directly.
pub fn plan(
    catalog: &Catalog,
    table: &TableId,
    provider: &dyn CardinalityProvider,
    pred: &Predicate,
    cost: &CostModel,
) -> AccessPath {
    let (columns, drivers) = index_candidates(catalog, pred);
    if columns.is_empty() {
        return AccessPath::SeqScan;
    }
    let selectivities = provider.estimate_many(table, &drivers);
    choose_path(catalog.table.row_count(), cost, &columns, &selectivities)
}

/// [`plan`] fused with the executor's full-predicate estimate: one
/// batched provider call covers the full predicate *and* every
/// candidate driving range, so planning a query costs a single
/// estimation round-trip however many indexes compete. Returns the
/// chosen path plus the full predicate's estimated selectivity.
pub fn plan_with_estimate(
    catalog: &Catalog,
    table: &TableId,
    provider: &dyn CardinalityProvider,
    pred: &Predicate,
    cost: &CostModel,
) -> (AccessPath, f64) {
    let (columns, drivers) = index_candidates(catalog, pred);
    let mut probes: Vec<Predicate> = Vec::with_capacity(drivers.len() + 1);
    probes.push(pred.clone());
    probes.extend(drivers);
    let selectivities = provider.estimate_many(table, &probes);
    let path = choose_path(catalog.table.row_count(), cost, &columns, &selectivities[1..]);
    (path, selectivities[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_core::QuickSel;
    use quicksel_data::{ObservedQuery, Table};
    use quicksel_geometry::Domain;
    use quicksel_service::LearnerProvider;

    fn fixture() -> (Catalog, TableId, LearnerProvider) {
        let d = Domain::of_reals(&[("x", 0.0, 100.0), ("y", 0.0, 100.0)]);
        let mut t = Table::new(d.clone());
        // Dense cluster in x ∈ [0, 10): 90% of rows.
        for i in 0..9000 {
            t.push_row(&[(i % 100) as f64 / 10.0, (i % 97) as f64]);
        }
        for i in 0..1000 {
            t.push_row(&[10.0 + (i % 900) as f64 / 10.0, (i % 89) as f64]);
        }
        let table: TableId = "t".into();
        let provider =
            LearnerProvider::single(table.clone(), d.clone(), Box::new(QuickSel::new(d)));
        (Catalog::new(t).with_index(0), table, provider)
    }

    #[test]
    fn unconstrained_predicate_scans() {
        let (cat, t, provider) = fixture();
        let p = Predicate::new();
        assert_eq!(plan(&cat, &t, &provider, &p, &CostModel::default()), AccessPath::SeqScan);
    }

    #[test]
    fn predicate_on_unindexed_column_scans() {
        let (cat, t, provider) = fixture();
        let p = Predicate::new().range(1, 0.0, 1.0);
        assert_eq!(plan(&cat, &t, &provider, &p, &CostModel::default()), AccessPath::SeqScan);
    }

    #[test]
    fn uninformed_planner_uses_uniformity() {
        let (cat, t, provider) = fixture();
        // Under uniformity x ∈ [0, 5) looks like 5% — index looks good,
        // even though the data is clustered there (truth 45%).
        let p = Predicate::new().range(0, 0.0, 5.0);
        match plan(&cat, &t, &provider, &p, &CostModel::default()) {
            AccessPath::IndexProbe { driving_selectivity, .. } => {
                assert!((driving_selectivity - 0.05).abs() < 1e-9);
            }
            other => panic!("expected index probe, got {other:?}"),
        }
    }

    #[test]
    fn learning_flips_a_wrong_plan() {
        let (cat, t, provider) = fixture();
        let p = Predicate::new().range(0, 0.0, 5.0);
        let rect = p.to_rect(cat.table.domain());
        // Initially mis-planned as an index probe (see above). Feed the
        // true selectivity once through the provider; the planner flips
        // to the scan.
        let truth = cat.table.selectivity(&rect);
        assert!(truth > 0.4);
        provider.observe(&t, &ObservedQuery::new(rect, truth));
        assert_eq!(plan(&cat, &t, &provider, &p, &CostModel::default()), AccessPath::SeqScan);
    }

    #[test]
    fn truly_selective_predicate_keeps_the_index() {
        let (cat, t, provider) = fixture();
        let p = Predicate::new().range(0, 98.0, 99.0);
        let rect = p.to_rect(cat.table.domain());
        let truth = cat.table.selectivity(&rect);
        provider.observe(&t, &ObservedQuery::new(rect, truth));
        assert!(matches!(
            plan(&cat, &t, &provider, &p, &CostModel::default()),
            AccessPath::IndexProbe { .. }
        ));
    }

    /// Provider wrapper that records the size of every `estimate_many`
    /// batch it receives.
    struct BatchSpy<'a> {
        inner: &'a dyn CardinalityProvider,
        batches: std::cell::RefCell<Vec<usize>>,
    }
    impl CardinalityProvider for BatchSpy<'_> {
        fn estimate_many(&self, table: &TableId, preds: &[Predicate]) -> Vec<f64> {
            self.batches.borrow_mut().push(preds.len());
            self.inner.estimate_many(table, preds)
        }
        fn observe_batch(&self, table: &TableId, batch: &[quicksel_data::ObservedQuery]) {
            self.inner.observe_batch(table, batch);
        }
        fn sync_data(&self, table: &TableId, data: &quicksel_data::Table, changed_rows: usize) {
            self.inner.sync_data(table, data, changed_rows);
        }
        fn version(&self, table: &TableId) -> u64 {
            self.inner.version(table)
        }
    }

    #[test]
    fn candidate_probes_go_out_as_one_batch() {
        // Two usable indexes ⇒ plan() issues exactly one 2-probe batch,
        // and plan_with_estimate() one 3-probe batch (full pred first).
        let (cat, t, provider) = fixture();
        let cat = cat.with_index(1);
        let p = Predicate::new().range(0, 20.0, 30.0).range(1, 0.0, 5.0);
        let spy = BatchSpy { inner: &provider, batches: std::cell::RefCell::new(Vec::new()) };
        let batched_plan = plan(&cat, &t, &spy, &p, &CostModel::default());
        assert_eq!(spy.batches.borrow().as_slice(), &[2]);
        spy.batches.borrow_mut().clear();
        let (fused_plan, full_sel) = plan_with_estimate(&cat, &t, &spy, &p, &CostModel::default());
        assert_eq!(spy.batches.borrow().as_slice(), &[3]);
        // Batched and fused planning agree with each other and with the
        // scalar probes they replace.
        assert_eq!(batched_plan, fused_plan);
        assert!((full_sel - provider.estimate(&t, &p)).abs() < 1e-12);
    }

    #[test]
    fn unknown_table_plans_the_safe_scan() {
        let (cat, _, provider) = fixture();
        // A provider that has never heard of the table answers 1.0, so
        // the planner conservatively scans instead of probing blind.
        let ghost: TableId = "ghost".into();
        let p = Predicate::new().range(0, 0.0, 1.0);
        assert_eq!(plan(&cat, &ghost, &provider, &p, &CostModel::default()), AccessPath::SeqScan);
    }
}
