//! Full-stack integration of the sharded registry with the query engine:
//! two tables, two shards each, every estimate flowing through the
//! planner-facing `CardinalityProvider` — plus the join hook.

use quicksel::engine::{
    estimate_join_cardinalities, estimate_join_cardinality, exact_equijoin_cardinality, Catalog,
    Engine,
};
use quicksel::prelude::*;
use quicksel::{EstimatorRegistry, TableId};
use std::sync::Arc;

fn table(seed: u64, rows: usize) -> Table {
    let d = Domain::of_reals(&[("key", 0.0, 50.0), ("payload", 0.0, 100.0)]);
    let mut t = Table::new(d);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..rows {
        let key = (next().powi(2) * 50.0).floor().min(49.0);
        t.push_row(&[key + 0.5, next() * 100.0]);
    }
    t
}

#[test]
fn two_engines_share_one_sharded_registry() {
    let registry: Arc<EstimatorRegistry<QuickSel>> = Arc::new(EstimatorRegistry::new());
    let r_table = table(7, 4000);
    let s_table = table(8, 3000);

    for (name, t) in [("r", &r_table), ("s", &s_table)] {
        let d = t.domain().clone();
        registry.register_with(name, d.clone(), 2, |i| {
            QuickSel::builder(d.clone())
                .refine_policy(RefinePolicy::Manual)
                .fixed_subpops(96)
                .seed(i as u64)
                .build()
        });
    }

    let mut r_engine = Engine::new(
        Catalog::new(r_table.clone()).with_index(0),
        "r",
        Arc::clone(&registry) as Arc<dyn CardinalityProvider>,
    );
    let mut s_engine = Engine::new(
        Catalog::new(s_table.clone()).with_index(1),
        "s",
        Arc::clone(&registry) as Arc<dyn CardinalityProvider>,
    );

    // Execute per-table workloads; the executor's feedback loop trains
    // the registry through the provider seam.
    let mut late_err_r = 0.0;
    for i in 0..30 {
        let lo = (i % 10) as f64 * 4.0;
        let result = r_engine.execute(&Predicate::new().range(1, lo, lo + 25.0));
        if i >= 20 {
            late_err_r += (result.estimated_selectivity - result.actual_selectivity).abs();
        }
    }
    for i in 0..30 {
        let lo = (i % 8) as f64 * 5.0;
        s_engine.execute(&Predicate::new().range(1, lo, lo + 30.0));
    }
    assert!(late_err_r / 10.0 < 0.1, "r estimates did not converge: {late_err_r}");

    // Both tables trained inside the one registry, across shards.
    let stats = registry.stats();
    assert_eq!(stats.tables, 2);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.total.queries_ingested, 60);
    assert_eq!(stats.dropped_feedback, 0);
    let spread = stats
        .per_table
        .iter()
        .map(|(_, t)| t.per_shard.iter().filter(|s| s.queries_ingested > 0).count())
        .collect::<Vec<_>>();
    assert!(spread.iter().all(|&n| n >= 2), "sharding never engaged: {spread:?}");

    // The join hook: |σ_p(R) ⋈ σ_q(S)| via the provider's independence
    // product lands near the exact oracle for payload predicates.
    let rid = TableId::from("r");
    let sid = TableId::from("s");
    let base =
        exact_equijoin_cardinality(&r_table, 0, &Predicate::new(), &s_table, 0, &Predicate::new())
            as f64;
    assert!(base > 0.0);
    let pr = Predicate::new().range(1, 10.0, 40.0);
    let ps = Predicate::new().range(1, 20.0, 55.0);
    let truth = exact_equijoin_cardinality(&r_table, 0, &pr, &s_table, 0, &ps) as f64;
    let est = estimate_join_cardinality(base, &*registry, &rid, &pr, &sid, &ps);
    assert!((est - truth).abs() <= 0.3 * truth + 1.0, "join est {est} vs truth {truth}");

    // A join enumerator pricing candidate pushdowns batches both sides:
    // the batched estimates must equal the per-pair independence product
    // (the registry serves each side's batch from coherent snapshots).
    let candidates: Vec<(Predicate, Predicate)> = (0..4)
        .map(|i| {
            let lo = i as f64 * 12.0;
            (
                Predicate::new().range(1, lo, lo + 30.0),
                Predicate::new().range(1, lo + 5.0, lo + 45.0),
            )
        })
        .collect();
    let batched = estimate_join_cardinalities(base, &*registry, &rid, &sid, &candidates);
    for ((cpr, cps), &b) in candidates.iter().zip(&batched) {
        let scalar = estimate_join_cardinality(base, &*registry, &rid, cpr, &sid, cps);
        assert!((b - scalar).abs() <= 1e-9 * scalar.abs().max(1.0), "batched join diverged");
    }
}
