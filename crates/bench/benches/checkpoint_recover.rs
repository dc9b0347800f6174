//! Durability-path benchmarks: checkpoint write bandwidth and recovery
//! latency as a function of the WAL tail length.
//!
//! ```sh
//! cargo bench -p quicksel-bench --bench checkpoint_recover
//! ```
//!
//! Two questions the checkpoint subsystem's tuning knobs
//! (`DurabilityOptions::checkpoint_rows` / `checkpoint_interval`) trade
//! off against each other:
//!
//! * **How expensive is a checkpoint?** — encode a trained estimator's
//!   full state (model, trainer caches, feedback log, RNG) and write it
//!   through the tmp+rename protocol, at the paper's subpopulation
//!   budgets. Reported as encode/write times and end-to-end MB/s.
//! * **What does deferring checkpoints cost at recovery?** — open a
//!   shard whose WAL tail holds 0..512 rows past the newest checkpoint
//!   and time `SelectivityService::open_durable` end to end (checkpoint
//!   decode + WAL replay through the normal ingest path).
//!
//! A JSON document is written to
//! `target/bench-results/checkpoint_recover.json` (override with
//! `CHECKPOINT_BENCH_OUT=...`), same convention as the other benches,
//! with the host fingerprint under `"meta"`.

use quicksel_core::{QuickSel, RefinePolicy};
use quicksel_data::{Learn, ObservedQuery};
use quicksel_geometry::{Domain, Rect};
use quicksel_persist::{DurabilityOptions, PersistLearner, ShardDurability};
use quicksel_service::SelectivityService;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Subpopulation budgets for the checkpoint-write measurement; 4000 is
/// the paper cap, so its state size is the headline.
const BUDGETS: [usize; 2] = [1000, 4000];
/// WAL tail lengths (rows past the newest checkpoint) for the recovery
/// measurement.
const TAILS: [usize; 4] = [0, 32, 128, 512];
/// Rows per WAL batch, matching the service's per-batch record framing.
const BATCH_ROWS: usize = 2;

fn domain() -> Domain {
    Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0), ("z", 0.0, 10.0)])
}

fn learner(subpops: usize) -> QuickSel {
    QuickSel::builder(domain())
        .refine_policy(RefinePolicy::Manual)
        .fixed_subpops(subpops)
        .seed(4242)
        .build()
}

fn batch(i: u64) -> Vec<ObservedQuery> {
    (0..BATCH_ROWS as u64)
        .map(|j| {
            let k = i * BATCH_ROWS as u64 + j;
            let lo_x = (k * 13 % 70) as f64 * 0.1;
            let lo_y = (k * 29 % 60) as f64 * 0.1;
            let lo_z = (k * 17 % 50) as f64 * 0.1;
            let len = 0.8 + (k % 5) as f64 * 0.6;
            let rect =
                Rect::from_bounds(&[(lo_x, lo_x + len), (lo_y, lo_y + len), (lo_z, lo_z + len)]);
            ObservedQuery::new(rect, (k % 10) as f64 * 0.1)
        })
        .collect()
}

/// A fresh scratch directory under the system temp dir; callers remove
/// it when done.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("quicksel-bench-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Checkpoint write bandwidth at one subpopulation budget: state encode
/// time, tmp+rename write time, and end-to-end MB/s (median of 5).
fn bench_checkpoint_write(subpops: usize) -> String {
    // Train enough feedback that the trainer state (factor, sparse A)
    // is at its steady-state size for this budget.
    let mut est = learner(subpops);
    let n_batches = (subpops / 4).max(32) as u64;
    for i in 0..n_batches {
        est.observe_batch(&batch(i));
    }
    est.refine().expect("cold train");

    let dir = scratch(&format!("write-{subpops}"));
    let mut shard =
        ShardDurability::create(&dir, DurabilityOptions::default()).expect("create shard");
    // The watermark must advance per checkpoint, so feed one WAL batch
    // between writes; its cost is excluded from the timed section.
    let mut encode_samples = Vec::new();
    let mut write_samples = Vec::new();
    let mut bytes = 0usize;
    for rep in 0..5u64 {
        shard.log_batch(&batch(n_batches + rep)).expect("wal append");
        let t = Instant::now();
        let state = est.save_state().expect("encode state");
        encode_samples.push(t.elapsed().as_secs_f64());
        bytes = state.len();
        let t = Instant::now();
        shard.write_checkpoint(&state, &[]).expect("write checkpoint");
        write_samples.push(t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&dir);

    let encode_s = median_secs(encode_samples);
    let write_s = median_secs(write_samples);
    let mb = bytes as f64 / (1 << 20) as f64;
    let mbps = mb / (encode_s + write_s);
    println!(
        "  checkpoint m={subpops:>4}: state {:>8.1} KiB | encode {:>7.3} ms | write {:>7.3} ms | {mbps:>7.1} MB/s",
        bytes as f64 / 1024.0,
        encode_s * 1e3,
        write_s * 1e3,
    );
    format!(
        "{{\"subpops\":{subpops},\"state_bytes\":{bytes},\"encode_ms\":{:.4},\"write_ms\":{:.4},\"mb_per_s\":{mbps:.2}}}",
        encode_s * 1e3,
        write_s * 1e3,
    )
}

/// Recovery latency with `tail` rows in the WAL past the newest
/// checkpoint: build the shard once, then time `open_durable` (median
/// of 3 reopen cycles — recovery is read-only, so reopening the same
/// directory re-measures the same work).
fn bench_recovery(tail_rows: usize) -> String {
    let dir = scratch(&format!("recover-{tail_rows}"));
    // Never checkpoint on row count; the bench places the single
    // checkpoint explicitly so the WAL tail length is exact.
    let opts = DurabilityOptions {
        checkpoint_rows: u64::MAX,
        checkpoint_interval: Duration::from_secs(1 << 20),
        ..DurabilityOptions::default()
    };
    let base_batches = 64u64;
    {
        let (svc, _) = SelectivityService::open_durable(&dir, opts.clone(), || learner(256))
            .expect("open durable");
        for i in 0..base_batches {
            svc.observe_batch(&batch(i)).expect("ingest");
        }
        svc.checkpoint_now().expect("checkpoint");
        for i in 0..(tail_rows / BATCH_ROWS) as u64 {
            svc.observe_batch(&batch(base_batches + i)).expect("tail ingest");
        }
    }

    let mut samples = Vec::new();
    let mut replayed = 0u64;
    for _ in 0..3 {
        let t = Instant::now();
        let (_svc, rec) = SelectivityService::<QuickSel>::open_durable(&dir, opts.clone(), || {
            panic!("a checkpoint exists; recovery must not start cold")
        })
        .expect("recover");
        samples.push(t.elapsed().as_secs_f64());
        assert!(rec.recovered_from_checkpoint, "checkpoint not found");
        assert_eq!(rec.replayed_rows as usize, tail_rows, "tail length drifted");
        replayed = rec.replayed_rows;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let recover_s = median_secs(samples);
    println!(
        "  recovery tail={tail_rows:>4} rows: {:>8.2} ms (replayed {replayed} rows)",
        recover_s * 1e3
    );
    format!("{{\"wal_tail_rows\":{tail_rows},\"recover_ms\":{:.4}}}", recover_s * 1e3)
}

fn main() {
    println!("checkpoint_recover: checkpoint write bandwidth + recovery vs WAL tail");
    let writes: Vec<String> = BUDGETS.iter().map(|&m| bench_checkpoint_write(m)).collect();
    let recoveries: Vec<String> = TAILS.iter().map(|&t| bench_recovery(t)).collect();

    let fields = format!(
        "\"checkpoint_write\":[{}],\"recovery\":[{}]",
        writes.join(","),
        recoveries.join(",")
    );
    quicksel_bench::write_bench_json("checkpoint_recover", "CHECKPOINT_BENCH_OUT", &fields);
}
