//! Accuracy under data drift with a bounded feedback history.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench drift_accuracy
//! ```
//!
//! Runs the §5.3 Gaussian-drift timeline
//! ([`GaussianDrift`](quicksel_data::drift::GaussianDrift): correlation
//! rises by `rho_step` per phase) against two QuickSel estimators fed
//! identical feedback:
//!
//! * **unbounded** — the historic configuration: every observation
//!   retained forever;
//! * **bounded** — `max_history` capped, with drift detection armed
//!   (`drift_patience` strikes on the constraint-violation trend force
//!   a cold resample against the shifted workload).
//!
//! Reported per phase: mean absolute estimation error for both
//! estimators (the accuracy-under-drift curve), plus the bounded run's
//! peak history length, evictions, and drift-triggered resamples — the
//! memory-bound story next to the accuracy one.
//!
//! A JSON document is written to
//! `target/bench-results/drift_accuracy.json` (override with
//! `DRIFT_BENCH_OUT=...`), same convention as the other benches, with
//! the host fingerprint under `"meta"`. Environment knobs shrink the
//! timeline for CI smoke runs: `DRIFT_PHASES`, `DRIFT_QUERIES_PER_PHASE`,
//! `DRIFT_INITIAL_ROWS`, `DRIFT_BATCH_ROWS`, `DRIFT_BUDGET`,
//! `DRIFT_SUBPOPS`.

use quicksel_core::QuickSel;
use quicksel_data::drift::{DriftEvent, GaussianDrift};
use quicksel_data::{Estimate, Learn, ObservedQuery};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct Tracked {
    est: QuickSel,
    phase_abs_err: Vec<f64>,
    peak_history: usize,
}

impl Tracked {
    fn new(est: QuickSel) -> Self {
        Self { est, phase_abs_err: Vec::new(), peak_history: 0 }
    }

    fn note_history(&mut self) {
        self.peak_history = self.peak_history.max(self.est.history_len());
    }
}

fn main() {
    let phases = env_usize("DRIFT_PHASES", 8);
    let queries_per_phase = env_usize("DRIFT_QUERIES_PER_PHASE", 60);
    let initial_rows = env_usize("DRIFT_INITIAL_ROWS", 20_000);
    let batch_rows = env_usize("DRIFT_BATCH_ROWS", 5_000);
    let budget = env_usize("DRIFT_BUDGET", 120);
    let subpops = env_usize("DRIFT_SUBPOPS", 256);

    let drift = GaussianDrift {
        initial_rows,
        batch_rows,
        queries_per_phase,
        phases,
        rho_step: 0.1,
        seed: 1802,
    };
    println!(
        "drift_accuracy: {phases} phases x {queries_per_phase} queries, \
         {initial_rows}+{batch_rows}/phase rows, budget {budget}, m={subpops}"
    );

    let mut table = drift.initial_table();
    let domain = table.domain().clone();
    let build = |max_history: usize| {
        QuickSel::builder(domain.clone())
            .fixed_subpops(subpops)
            .seed(91)
            .max_history(max_history)
            .drift_patience(2)
            .build()
    };
    let mut unbounded = Tracked::new(build(usize::MAX));
    let mut bounded = Tracked::new(build(budget));

    let mut phase_err_unbounded = 0.0f64;
    let mut phase_err_bounded = 0.0f64;
    let mut phase_queries = 0usize;
    let flush = |tr_u: &mut Tracked, tr_b: &mut Tracked, eu: f64, eb: f64, n: usize| {
        if n > 0 {
            tr_u.phase_abs_err.push(eu / n as f64);
            tr_b.phase_abs_err.push(eb / n as f64);
        }
    };

    for event in drift.events() {
        match event {
            DriftEvent::Query(rect) => {
                let truth = table.selectivity(&rect);
                phase_err_unbounded += (unbounded.est.estimate(&rect) - truth).abs();
                phase_err_bounded += (bounded.est.estimate(&rect) - truth).abs();
                phase_queries += 1;
                let feedback = ObservedQuery::new(rect, truth);
                unbounded.est.observe(&feedback);
                bounded.est.observe(&feedback);
                unbounded.note_history();
                bounded.note_history();
                if phase_queries == queries_per_phase {
                    flush(
                        &mut unbounded,
                        &mut bounded,
                        phase_err_unbounded,
                        phase_err_bounded,
                        phase_queries,
                    );
                    phase_err_unbounded = 0.0;
                    phase_err_bounded = 0.0;
                    phase_queries = 0;
                }
            }
            DriftEvent::Insert(rows) => {
                for row in &rows {
                    table.push_row(row);
                }
                let n = rows.len();
                unbounded.est.sync_data(&table, n);
                bounded.est.sync_data(&table, n);
            }
        }
    }
    flush(&mut unbounded, &mut bounded, phase_err_unbounded, phase_err_bounded, phase_queries);

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let phase_json: Vec<String> = unbounded
        .phase_abs_err
        .iter()
        .zip(&bounded.phase_abs_err)
        .enumerate()
        .map(|(p, (eu, eb))| {
            println!("  phase {p}: err unbounded {eu:.4} | bounded {eb:.4}");
            format!("{{\"phase\":{p},\"err_unbounded\":{eu:.6},\"err_bounded\":{eb:.6}}}")
        })
        .collect();

    let mean_u = mean(&unbounded.phase_abs_err);
    let mean_b = mean(&bounded.phase_abs_err);
    println!(
        "  mean err: unbounded {mean_u:.4} | bounded {mean_b:.4} (budget {budget}, \
         peak history {} vs {})",
        bounded.peak_history, unbounded.peak_history
    );
    println!(
        "  bounded: evicted {} rows, {} drift resamples | unbounded: {} drift resamples",
        bounded.est.evicted_rows(),
        bounded.est.drift_resamples(),
        unbounded.est.drift_resamples()
    );

    let fields = format!(
        "\"budget\":{budget},\"subpops\":{subpops},\
         \"phases\":[{}],\
         \"mean_err_unbounded\":{mean_u:.6},\"mean_err_bounded\":{mean_b:.6},\
         \"peak_history_unbounded\":{},\"peak_history_bounded\":{},\
         \"evicted_rows\":{},\"drift_resamples_bounded\":{},\"drift_resamples_unbounded\":{}",
        phase_json.join(","),
        unbounded.peak_history,
        bounded.peak_history,
        bounded.est.evicted_rows(),
        bounded.est.drift_resamples(),
        unbounded.est.drift_resamples(),
    );
    quicksel_bench::write_bench_json("drift_accuracy", "DRIFT_BENCH_OUT", &fields);
}
