//! `quicksel-server` — serve an estimator registry over TCP, as a
//! primary or as a read-only replica of another server.
//!
//! ```text
//! quicksel-server [--addr HOST:PORT] [--dir DIR] [--table NAME:DIMS ...]
//!                 [--workers N] [--ingest-rate ROWS_PER_S]
//!                 [--replica-of HOST:PORT] [--sync-interval-ms N]
//! ```
//!
//! * `--addr` — bind address (default `127.0.0.1:7878`; port `0` picks
//!   an ephemeral port, printed on stdout).
//! * `--dir` — durability root. When given, every table already present
//!   under it is **recovered** (checkpoint + WAL replay) and new
//!   `--table`s are registered durably; without it the registry is
//!   in-memory.
//! * `--table NAME:DIMS` — register a table with a `DIMS`-dimensional
//!   unit-cube domain and one learner (repeatable). Tables recovered
//!   from `--dir` do not need re-declaring, and keep the shard count
//!   their table meta records.
//! * `--workers` — serving threads (default: the workspace thread-pool
//!   sizing, `quicksel_parallel::default_threads`).
//! * `--ingest-rate` — per-table feedback admission rate in rows/s
//!   (default unlimited).
//! * `--replica-of HOST:PORT` — run as a **read-only replica**: pull the
//!   given server's checkpoints and WAL segments into `--dir`
//!   (required), rebuild through recovery after every sync, serve
//!   estimates from the result, and refuse writes with a typed
//!   `ReadOnly` error. `--table` and `--ingest-rate` do not apply; the
//!   table catalog is whatever the primary ships.
//! * `--sync-interval-ms` — pause between replica sync rounds
//!   (default 500).
//!
//! The process serves until it reads `quit` (or EOF) on stdin, then
//! shuts down gracefully: in-flight requests drain, durable tables get a
//! final checkpoint (primaries only — a replica never writes its
//! mirror).

use quicksel_core::QuickSel;
use quicksel_geometry::Domain;
use quicksel_net::{serve, ServerConfig};
use quicksel_persist::DurabilityOptions;
use quicksel_replica::{ReplicaAgent, ReplicaBackend, ReplicaOptions};
use quicksel_service::{EstimatorRegistry, TableId};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    dir: Option<String>,
    tables: Vec<(String, usize)>,
    workers: usize,
    ingest_rate: f64,
    replica_of: Option<String>,
    sync_interval_ms: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: quicksel-server [--addr HOST:PORT] [--dir DIR] [--table NAME:DIMS ...]\n\
         \x20                      [--workers N] [--ingest-rate ROWS_PER_S]\n\
         \x20                      [--replica-of HOST:PORT] [--sync-interval-ms N]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        dir: None,
        tables: Vec::new(),
        workers: 0,
        ingest_rate: f64::INFINITY,
        replica_of: None,
        sync_interval_ms: 500,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--dir" => args.dir = Some(value("--dir")?),
            "--table" => {
                let spec = value("--table")?;
                let (name, dims) = spec
                    .split_once(':')
                    .ok_or(format!("bad table spec {spec:?} (want NAME:DIMS)"))?;
                let dims: usize =
                    dims.parse().map_err(|_| format!("bad dimension count in {spec:?}"))?;
                if name.is_empty() || dims == 0 {
                    return Err(format!("bad table spec {spec:?}"));
                }
                args.tables.push((name.to_string(), dims));
            }
            "--workers" => {
                args.workers =
                    value("--workers")?.parse().map_err(|_| "bad --workers".to_string())?
            }
            "--ingest-rate" => {
                args.ingest_rate =
                    value("--ingest-rate")?.parse().map_err(|_| "bad --ingest-rate".to_string())?
            }
            "--replica-of" => args.replica_of = Some(value("--replica-of")?),
            "--sync-interval-ms" => {
                args.sync_interval_ms = value("--sync-interval-ms")?
                    .parse()
                    .map_err(|_| "bad --sync-interval-ms".to_string())?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.replica_of.is_some() && args.dir.is_none() {
        return Err("--replica-of needs --dir (the local mirror root)".to_string());
    }
    Ok(args)
}

fn unit_cube(dims: usize) -> Domain {
    let columns: Vec<(String, f64, f64)> = (0..dims).map(|i| (format!("c{i}"), 0.0, 1.0)).collect();
    let refs: Vec<(&str, f64, f64)> =
        columns.iter().map(|(n, lo, hi)| (n.as_str(), *lo, *hi)).collect();
    Domain::of_reals(&refs)
}

fn learner(domain: &Domain, shard: usize) -> QuickSel {
    QuickSel::builder(domain.clone()).fixed_subpops(64).seed(shard as u64).build()
}

/// Blocks on stdin until `quit` or EOF — the dependency-free shutdown
/// channel (catching SIGTERM needs libc).
fn wait_for_quit() {
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
}

/// Serve as a read-only replica of `primary`: background pull loop +
/// the same TCP runtime over a [`ReplicaBackend`].
fn run_replica(args: &Args, primary: &str) -> ExitCode {
    let dir = args.dir.as_deref().expect("parse_args enforces --dir");
    let backend: Arc<ReplicaBackend<QuickSel>> = Arc::new(ReplicaBackend::empty());
    let mut options = ReplicaOptions::new(primary, dir);
    options.sync_interval = Duration::from_millis(args.sync_interval_ms.max(1));
    let mut agent =
        ReplicaAgent::new(options, Arc::clone(&backend), |_, domain, shard| learner(domain, shard));

    // First sync inline so "listening" means "serving shipped state"
    // when the primary is up; a down primary is not fatal — the pull
    // loop keeps retrying with backoff.
    match agent.sync_once() {
        Ok(report) => println!(
            "synced {} manifest entr{} from {primary} ({} row(s) applied, {} behind)",
            report.entries,
            if report.entries == 1 { "y" } else { "ies" },
            report.applied_watermark,
            report.watermark_lag
        ),
        Err(e) => {
            eprintln!("quicksel-server: initial sync from {primary} failed: {e} (will retry)")
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let puller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || agent.run(&stop))
    };

    let config =
        ServerConfig { addr: args.addr.clone(), workers: args.workers, ..ServerConfig::default() };
    let mut handle = match serve(Arc::clone(&backend), config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("quicksel-server: bind {} failed: {e}", args.addr);
            stop.store(true, Ordering::SeqCst);
            let _ = puller.join();
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {} (replica of {primary})", handle.addr());
    println!("type 'quit' (or close stdin) for graceful shutdown");
    wait_for_quit();

    println!("draining in-flight requests...");
    handle.shutdown();
    stop.store(true, Ordering::SeqCst);
    let synced = puller.join().unwrap_or(0);
    let lag = backend.gauges().snapshot();
    let stats = handle.stats();
    println!(
        "served {} request(s) over {} connection(s); {} sync(s), {} row(s) behind at exit, \
         {} write(s) refused",
        stats.requests_served,
        stats.connections_accepted,
        synced,
        lag.watermark_lag,
        lag.readonly_refusals
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("quicksel-server: {e}");
            return usage();
        }
    };

    if let Some(primary) = args.replica_of.clone() {
        return run_replica(&args, &primary);
    }

    // Build the registry: recover + durable registration when --dir is
    // given, plain in-memory registration otherwise.
    let registry: Arc<EstimatorRegistry<QuickSel>> = match &args.dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let opts = DurabilityOptions::default();
            let (registry, report) =
                match EstimatorRegistry::recover_from(dir, opts.clone(), |_, domain, shard| {
                    learner(domain, shard)
                }) {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("quicksel-server: recovery from {} failed: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                };
            println!(
                "recovered {} table(s), {} replayed row(s), {} skipped dir(s)",
                report.tables_recovered, report.shards.replayed_rows, report.tables_skipped
            );
            let known: Vec<TableId> = registry.table_ids();
            for (name, dims) in &args.tables {
                if known.iter().any(|t| t.as_str() == name) {
                    continue;
                }
                let domain = unit_cube(*dims);
                let d = domain.clone();
                if let Err(e) = registry.register_durable(
                    dir,
                    name.as_str(),
                    domain,
                    1,
                    opts.clone(),
                    |shard| learner(&d, shard),
                ) {
                    eprintln!("quicksel-server: registering {name:?} failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Arc::new(registry)
        }
        None => {
            let registry = EstimatorRegistry::new();
            for (name, dims) in &args.tables {
                let domain = unit_cube(*dims);
                let d = domain.clone();
                registry.register_with(name.as_str(), domain, 1, |shard| learner(&d, shard));
            }
            Arc::new(registry)
        }
    };

    let config = ServerConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        ingest_rows_per_s: args.ingest_rate,
        ..ServerConfig::default()
    };
    let mut handle = match serve(Arc::clone(&registry), config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("quicksel-server: bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    println!("type 'quit' (or close stdin) for graceful shutdown");
    wait_for_quit();

    println!("draining in-flight requests...");
    handle.shutdown();
    if args.dir.is_some() {
        match registry.checkpoint_all() {
            Ok(n) => println!("final checkpoint covered {n} durable table(s)"),
            Err(e) => eprintln!("quicksel-server: final checkpoint failed: {e}"),
        }
    }
    let stats = handle.stats();
    println!(
        "served {} request(s) over {} connection(s); {} retry(ies), {} error(s)",
        stats.requests_served, stats.connections_accepted, stats.retries_sent, stats.errors_sent
    );
    ExitCode::SUCCESS
}
