//! Ablation study for QuickSel's design choices (not a paper figure; the
//! README's "Training path" section describes the path they tune):
//!
//! * points per observed query (paper fixes 10, §3.3 step 1),
//! * subpopulation overlap factor (the "slightly overlap" sizing rule),
//! * penalty weight λ (paper fixes 10⁶),
//! * the Tikhonov ridge (this implementation's addition).
//!
//! Run with `cargo run -p quicksel-bench --release --bin ablation`.

use quicksel_bench::driver::evaluate;
use quicksel_bench::{fmt_pct, Scale, TextTable};
use quicksel_core::{QuickSel, QuickSelConfig, RefinePolicy};
use quicksel_data::datasets::gaussian::gaussian_table;
use quicksel_data::workload::{CenterMode, QueryGenerator, RectWorkload, ShiftMode};
use quicksel_data::{Learn, ObservedQuery, Table};

fn run(table: &Table, train: &[ObservedQuery], test: &[ObservedQuery], cfg: QuickSelConfig) -> f64 {
    let mut qs = QuickSel::with_config(table.domain().clone(), cfg);
    for q in train {
        qs.observe(q);
    }
    qs.refine().expect("training");
    evaluate(&qs, test).mean_rel_pct
}

fn main() {
    let scale = Scale::from_env();
    let table = gaussian_table(2, 0.5, scale.gaussian_rows(), 4040);
    let mut gen =
        RectWorkload::new(table.domain().clone(), 61, ShiftMode::Random, CenterMode::DataRow)
            .with_width_frac(0.1, 0.4);
    let train = gen.take_queries(&table, 100);
    let test = gen.take_queries(&table, 100);
    let base = || QuickSelConfig { refine_policy: RefinePolicy::Manual, ..Default::default() };

    println!("=== Ablation: QuickSel design choices (100 train / 100 test queries) ===\n");

    println!("--- points generated per observed query (paper: 10) ---");
    let mut t = TextTable::new(vec!["points/query", "rel error"]);
    for p in [1usize, 2, 5, 10, 20, 40] {
        let mut cfg = base();
        cfg.points_per_query = p;
        t.row(vec![p.to_string(), fmt_pct(run(&table, &train, &test, cfg))]);
    }
    t.print();
    println!();

    println!("--- subpopulation overlap factor (ours: 1.2) ---");
    let mut t = TextTable::new(vec!["overlap", "rel error"]);
    for f in [0.4, 0.8, 1.0, 1.2, 1.6, 2.4] {
        let mut cfg = base();
        cfg.overlap_factor = f;
        t.row(vec![format!("{f:.1}"), fmt_pct(run(&table, &train, &test, cfg))]);
    }
    t.print();
    println!();

    println!("--- penalty weight λ (paper: 1e6) ---");
    let mut t = TextTable::new(vec!["lambda", "rel error"]);
    for e in [2i32, 4, 6, 8] {
        let mut cfg = base();
        cfg.lambda = 10f64.powi(e);
        t.row(vec![format!("1e{e}"), fmt_pct(run(&table, &train, &test, cfg))]);
    }
    t.print();
    println!();

    println!("--- Tikhonov ridge (ours: 1e-5 relative; 0 = paper's exact form) ---");
    let mut t = TextTable::new(vec!["ridge", "rel error"]);
    for r in [0.0, 1e-9, 1e-7, 1e-5, 1e-3] {
        let mut cfg = base();
        cfg.ridge_rel = r;
        t.row(vec![format!("{r:.0e}"), fmt_pct(run(&table, &train, &test, cfg))]);
    }
    t.print();
    println!();

    println!("--- subpopulations per query (paper: 4, capped at 4000) ---");
    let mut t = TextTable::new(vec!["subpops/query", "rel error"]);
    for s in [1usize, 2, 4, 8] {
        let mut cfg = base();
        cfg.subpops_per_query = s;
        t.row(vec![s.to_string(), fmt_pct(run(&table, &train, &test, cfg))]);
    }
    t.print();
}
