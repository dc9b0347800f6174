//! [`SelectivityService`]: the serving layer around a snapshotting learner.

use crate::rate::RateMeter;
use crate::swap::ArcCell;
use quicksel_data::{
    Estimate, EstimatorError, ObservedQuery, RefineOutcome, SnapshotSource, Table,
};
use quicksel_fault::jitter_ms;
use quicksel_geometry::Rect;
use quicksel_persist::{DurabilityOptions, PersistError, PersistLearner, ShardDurability};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A shared, immutable model view; what [`SelectivityService::snapshot`]
/// hands to reader threads.
pub type SharedSnapshot = Arc<dyn Estimate + Send + Sync>;

/// A shard's serving health, driven by its durability pipeline.
///
/// ```text
///              ≥ degrade_after consecutive persist failures
///   Healthy ────────────────────────────────────────────────▶ Degraded
///      ▲                                                    (read-only)
///      │   write probe of the shard directory succeeds           │
///      └─────────────────────────────────────────────────────────┘
///            (probes are backoff-paced with deterministic jitter)
/// ```
///
/// While degraded, estimates keep serving the last published snapshot;
/// only ingest is refused (with [`EstimatorError::Degraded`] carrying
/// the suggested retry delay). A non-durable service is always healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Ingest and estimates both served.
    Healthy,
    /// Read-only: persist failures tripped the health machine; ingest is
    /// refused until a re-arm probe succeeds.
    Degraded,
}

/// Running counters describing a service's ingestion history, plus rate
/// gauges windowed over the trailing
/// [`RATE_WINDOW_SECS`](crate::rate::RATE_WINDOW_SECS) seconds (a
/// *number per second*, not a cumulative count). Admission control reads
/// none of them: they are reported through `Stats` only.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceStats {
    /// Feedback batches successfully ingested.
    pub batches_ingested: u64,
    /// Observed queries across those batches.
    pub queries_ingested: u64,
    /// Refines that produced a new model.
    pub refines: u64,
    /// Of those, refines the learner served from cached training state
    /// (warm/incremental refines — QuickSel's rank-k fast path). Always
    /// ≤ `refines`; the gap is the cold-rebuild count.
    pub incremental_refines: u64,
    /// Refines that failed (old snapshot kept serving).
    pub refine_failures: u64,
    /// Batches rejected before ingestion (invalid feedback).
    pub rejected_batches: u64,
    /// Checkpoints written by the durability pipeline (lifetime count,
    /// restored across recoveries; 0 when durability is off).
    pub checkpoints_written: u64,
    /// WAL bytes appended by this process.
    pub wal_bytes: u64,
    /// Rows replayed from the WAL during this process's recovery.
    pub replayed_rows: u64,
    /// Durability operations (WAL appends, checkpoints) that failed;
    /// serving continues, the failure is only counted.
    pub persist_failures: u64,
    /// Feedback rows ingested per second over the trailing rate window
    /// (gauge, not persisted across recoveries).
    pub ingest_rows_per_s: f64,
    /// Predicate rectangles *evaluated* per second over the trailing
    /// rate window (gauge). Counts model evaluations, so a cross-shard
    /// blend counts once per shard it touches: a work rate, reported
    /// through `Stats` only.
    pub estimate_rects_per_s: f64,
    /// Feedback-history entries evicted (merged away) by the learner's
    /// history budget over its lifetime (0 for unbounded or
    /// non-tracking learners).
    pub evicted_rows: u64,
    /// Cold resamples the learner's drift detector forced over its
    /// lifetime.
    pub drift_resamples: u64,
    /// Feedback observations the learner currently retains (gauge;
    /// compacted summaries count once). Bounded learners hold this at or
    /// below their configured budget.
    pub history_len: u64,
    /// 1 while this shard is [`HealthState::Degraded`], else 0 (gauge).
    /// Merged totals count currently-degraded shards.
    pub degraded: u64,
    /// Healthy → Degraded transitions over this process's lifetime.
    pub degraded_transitions: u64,
    /// Re-arm write probes attempted while degraded.
    pub health_probes: u64,
    /// Ingest batches refused because the shard was degraded.
    pub degraded_refusals: u64,
    /// Lock poisonings recovered (a panicking writer thread abandoned a
    /// lock; the service adopted the state and kept serving).
    pub poisoned_locks: u64,
}

impl ServiceStats {
    /// Element-wise sum of two counter sets; used to aggregate per-shard
    /// stats into [`ShardedStats`](crate::ShardedStats) /
    /// [`RegistryStats`](crate::RegistryStats) totals.
    pub fn merge(self, other: ServiceStats) -> ServiceStats {
        ServiceStats {
            batches_ingested: self.batches_ingested + other.batches_ingested,
            queries_ingested: self.queries_ingested + other.queries_ingested,
            refines: self.refines + other.refines,
            incremental_refines: self.incremental_refines + other.incremental_refines,
            refine_failures: self.refine_failures + other.refine_failures,
            rejected_batches: self.rejected_batches + other.rejected_batches,
            checkpoints_written: self.checkpoints_written + other.checkpoints_written,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            replayed_rows: self.replayed_rows + other.replayed_rows,
            persist_failures: self.persist_failures + other.persist_failures,
            ingest_rows_per_s: self.ingest_rows_per_s + other.ingest_rows_per_s,
            estimate_rects_per_s: self.estimate_rects_per_s + other.estimate_rects_per_s,
            evicted_rows: self.evicted_rows + other.evicted_rows,
            drift_resamples: self.drift_resamples + other.drift_resamples,
            history_len: self.history_len + other.history_len,
            degraded: self.degraded + other.degraded,
            degraded_transitions: self.degraded_transitions + other.degraded_transitions,
            health_probes: self.health_probes + other.health_probes,
            degraded_refusals: self.degraded_refusals + other.degraded_refusals,
            poisoned_locks: self.poisoned_locks + other.poisoned_locks,
        }
    }
}

/// Concurrent serving for a query-driven selectivity estimator.
///
/// The service splits the estimator along the
/// [`Estimate`]/[`Learn`](quicksel_data::Learn)
/// seam: the **read path** serves immutable snapshots from an
/// [`ArcCell`], so any number of planner threads call
/// [`snapshot`](Self::snapshot) / [`estimate`](Self::estimate) without
/// taking a lock; the **write path** ingests feedback batches under a
/// writer mutex, retrains, and atomically publishes the new snapshot.
/// Readers holding an old snapshot keep it alive until they drop it —
/// publishing never invalidates an estimate mid-flight.
///
/// ```
/// use quicksel_core::QuickSel;
/// use quicksel_data::{Estimate, ObservedQuery};
/// use quicksel_geometry::{Domain, Predicate};
/// use quicksel_service::SelectivityService;
///
/// let domain = Domain::of_reals(&[("x", 0.0, 10.0)]);
/// let service = SelectivityService::new(QuickSel::builder(domain.clone()).build());
///
/// // Write side: a feedback batch, ingested + retrained + published.
/// let half = Predicate::new().less_than(0, 5.0).to_rect(&domain);
/// service.observe_batch(&[ObservedQuery::new(half, 0.5)]).expect("train");
///
/// // Read side: snapshots estimate without locks.
/// let snapshot = service.snapshot();
/// let probe = Predicate::new().range(0, 0.0, 2.5).to_rect(&domain);
/// assert!((0.0..=1.0).contains(&snapshot.estimate(&probe)));
/// ```
pub struct SelectivityService<L: SnapshotSource> {
    learner: Mutex<L>,
    current: ArcCell<dyn Estimate + Send + Sync>,
    version: AtomicU64,
    batches_ingested: AtomicU64,
    queries_ingested: AtomicU64,
    refines: AtomicU64,
    incremental_refines: AtomicU64,
    refine_failures: AtomicU64,
    rejected_batches: AtomicU64,
    /// `queries_ingested` frozen at the last publish. Blend weights read
    /// this instead of the live counter so that estimates derived from
    /// them can only change when `version` changes (the cache contract:
    /// an unchanged version guarantees unchanged estimates).
    published_queries: AtomicU64,
    checkpoints_written: AtomicU64,
    wal_bytes: AtomicU64,
    replayed_rows: AtomicU64,
    persist_failures: AtomicU64,
    ingest_rate: RateMeter,
    estimate_rate: RateMeter,
    /// Learner-derived gauges mirrored into atomics at publish time (the
    /// only moment the learner lock is held anyway), so `stats()` stays
    /// lock-free.
    evicted_rows: AtomicU64,
    drift_resamples: AtomicU64,
    history_len: AtomicU64,
    /// 0 = [`HealthState::Healthy`], 1 = [`HealthState::Degraded`]. An
    /// atomic so the healthy-path gate check and `health()` never touch
    /// a lock; transitions happen only under the durability lock.
    health: AtomicU64,
    degraded_transitions: AtomicU64,
    health_probes: AtomicU64,
    degraded_refusals: AtomicU64,
    poisoned_locks: AtomicU64,
    durability: Option<DurabilityHook<L>>,
}

/// Mutable durability state, held under its own mutex. Lock order is
/// fixed: the ingest/checkpoint paths acquire learner → durability; the
/// health gate may take the durability lock *alone* (never the learner
/// lock after it), so no cycle exists.
struct DurabilityState {
    shard: ShardDurability,
    last_checkpoint: Instant,
    /// Persist failures since the last durable success; crossing
    /// `degrade_after` trips [`HealthState::Degraded`].
    consecutive_failures: u32,
    /// Probes attempted since degrading (drives exponential backoff).
    probe_attempt: u32,
    /// Earliest instant the next re-arm probe may run.
    next_probe_at: Instant,
    /// Seed for deterministic probe-backoff jitter, derived from the
    /// shard directory path so each shard jitters differently but
    /// reproducibly.
    probe_seed: u64,
}

/// Type-erased `PersistLearner::save_state`, captured at
/// [`SelectivityService::open_durable`] time.
type SaveFn<L> = Box<dyn Fn(&L) -> Result<Vec<u8>, PersistError> + Send + Sync>;

/// Everything a service needs to persist its learner: the shard's
/// WAL/checkpoint directory plus a type-erased `save` so the generic
/// write path ([`SelectivityService::observe_batch`]) can checkpoint
/// without a `PersistLearner` bound on every impl block.
struct DurabilityHook<L> {
    state: Mutex<DurabilityState>,
    save: SaveFn<L>,
}

/// What [`SelectivityService::open_durable`] (and the shard/registry
/// recovery entry points built on it) found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRecovery {
    /// A valid checkpoint was loaded (false = cold start from a fresh or
    /// checkpoint-less directory).
    pub recovered_from_checkpoint: bool,
    /// WAL batches replayed through the normal ingest path.
    pub replayed_batches: u64,
    /// Observed queries across those batches.
    pub replayed_rows: u64,
    /// Replayed batches whose refine failed (the rows are still ingested).
    pub replay_failures: u64,
    /// Bytes of torn WAL tail discarded (crash mid-append).
    pub truncated_wal_bytes: u64,
    /// Corrupt/unreadable checkpoints skipped before a valid one loaded.
    pub checkpoints_skipped: u64,
}

impl ShardRecovery {
    /// Element-wise aggregation across shards/tables.
    pub fn merge(self, other: ShardRecovery) -> ShardRecovery {
        ShardRecovery {
            recovered_from_checkpoint: self.recovered_from_checkpoint
                || other.recovered_from_checkpoint,
            replayed_batches: self.replayed_batches + other.replayed_batches,
            replayed_rows: self.replayed_rows + other.replayed_rows,
            replay_failures: self.replay_failures + other.replay_failures,
            truncated_wal_bytes: self.truncated_wal_bytes + other.truncated_wal_bytes,
            checkpoints_skipped: self.checkpoints_skipped + other.checkpoints_skipped,
        }
    }
}

impl<L: SnapshotSource> SelectivityService<L> {
    /// Wraps a learner and publishes its current state as the first
    /// snapshot (the uniform prior for a fresh estimator).
    pub fn new(learner: L) -> Self {
        let first = learner.snapshot_shared();
        let evicted = learner.evicted_rows();
        let resamples = learner.drift_resamples();
        let history = learner.history_len() as u64;
        Self {
            learner: Mutex::new(learner),
            current: ArcCell::new(first),
            version: AtomicU64::new(0),
            batches_ingested: AtomicU64::new(0),
            queries_ingested: AtomicU64::new(0),
            refines: AtomicU64::new(0),
            incremental_refines: AtomicU64::new(0),
            refine_failures: AtomicU64::new(0),
            rejected_batches: AtomicU64::new(0),
            published_queries: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            replayed_rows: AtomicU64::new(0),
            persist_failures: AtomicU64::new(0),
            ingest_rate: RateMeter::new(),
            estimate_rate: RateMeter::new(),
            evicted_rows: AtomicU64::new(evicted),
            drift_resamples: AtomicU64::new(resamples),
            history_len: AtomicU64::new(history),
            health: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
            health_probes: AtomicU64::new(0),
            degraded_refusals: AtomicU64::new(0),
            poisoned_locks: AtomicU64::new(0),
            durability: None,
        }
    }

    /// The current model snapshot. Lock-free; the returned object keeps
    /// answering at this state however long the caller holds it.
    pub fn snapshot(&self) -> SharedSnapshot {
        self.current.load()
    }

    /// Convenience: estimate one rectangle against the current snapshot.
    pub fn estimate(&self, rect: &Rect) -> f64 {
        self.estimate_rate.record(1);
        self.snapshot().estimate(rect)
    }

    /// Convenience: estimate a batch against one coherent snapshot (all
    /// answers come from the same model version).
    pub fn estimate_many(&self, rects: &[Rect]) -> Vec<f64> {
        self.estimate_rate.record(rects.len() as u64);
        self.snapshot().estimate_many(rects)
    }

    /// Records `n` rectangle evaluations served *through a snapshot* of
    /// this service (the sharded/blend paths estimate via
    /// [`snapshot`](Self::snapshot), bypassing the convenience wrappers
    /// above, so they report their work here to keep the
    /// `estimate_rects_per_s` gauge honest).
    pub(crate) fn note_estimates(&self, n: u64) {
        self.estimate_rate.record(n);
    }

    /// Number of published model versions (0 = still the initial prior).
    pub fn version(&self) -> u64 {
        self.version.load(SeqCst)
    }

    /// Observed queries ingested as of the last publish. Unlike the live
    /// `stats().queries_ingested`, this moves only together with
    /// [`version`](Self::version) — use it for anything that feeds an
    /// estimate (e.g. cross-shard blend weights), so version-keyed caches
    /// stay sound.
    pub fn published_queries(&self) -> u64 {
        self.published_queries.load(SeqCst)
    }

    /// Ingestion counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            batches_ingested: self.batches_ingested.load(SeqCst),
            queries_ingested: self.queries_ingested.load(SeqCst),
            refines: self.refines.load(SeqCst),
            incremental_refines: self.incremental_refines.load(SeqCst),
            refine_failures: self.refine_failures.load(SeqCst),
            rejected_batches: self.rejected_batches.load(SeqCst),
            checkpoints_written: self.checkpoints_written.load(SeqCst),
            wal_bytes: self.wal_bytes.load(SeqCst),
            replayed_rows: self.replayed_rows.load(SeqCst),
            persist_failures: self.persist_failures.load(SeqCst),
            ingest_rows_per_s: self.ingest_rate.per_second(),
            estimate_rects_per_s: self.estimate_rate.per_second(),
            evicted_rows: self.evicted_rows.load(SeqCst),
            drift_resamples: self.drift_resamples.load(SeqCst),
            history_len: self.history_len.load(SeqCst),
            degraded: self.health.load(SeqCst),
            degraded_transitions: self.degraded_transitions.load(SeqCst),
            health_probes: self.health_probes.load(SeqCst),
            degraded_refusals: self.degraded_refusals.load(SeqCst),
            poisoned_locks: self.poisoned_locks.load(SeqCst),
        }
    }

    /// This shard's serving health. Lock-free; see [`HealthState`].
    pub fn health(&self) -> HealthState {
        if self.health.load(SeqCst) == 0 {
            HealthState::Healthy
        } else {
            HealthState::Degraded
        }
    }

    /// Ingests one feedback batch, retrains, and publishes the resulting
    /// snapshot. Readers are never blocked; they keep estimating against
    /// the previous snapshot until the swap.
    ///
    /// The batch is validated first: a non-finite or out-of-range
    /// selectivity rejects the whole batch with
    /// [`EstimatorError::InvalidFeedback`] before the learner sees it.
    /// A failed refine keeps the previous model serving and returns the
    /// solver error.
    ///
    /// Learners that train *during* ingestion — QuickSel under an
    /// auto-refine policy, or incremental methods like STHoles — are
    /// detected through [`Learn::training_version`](quicksel_data::Learn::training_version):
    /// the returned outcome is then `Retrained` (with `constraints` set
    /// to this batch's size) rather than the explicit refine's
    /// `UpToDate`, and `stats().refines` counts the retrain.
    pub fn observe_batch(&self, batch: &[ObservedQuery]) -> Result<RefineOutcome, EstimatorError> {
        self.observe_batch_inner(batch, true)
    }

    /// The shared ingest path. `log_wal` is false only during recovery
    /// replay: the rows being re-applied already sit in the WAL, so they
    /// must not be re-logged — and no checkpoint may be taken until the
    /// replay finishes (the writer's sequence cursor is already past the
    /// whole tail, so a mid-replay watermark would cover rows that have
    /// not been applied yet).
    fn observe_batch_inner(
        &self,
        batch: &[ObservedQuery],
        log_wal: bool,
    ) -> Result<RefineOutcome, EstimatorError> {
        if let Err(e) = quicksel_data::validate_batch(batch) {
            self.rejected_batches.fetch_add(1, SeqCst);
            return Err(e);
        }
        let mut learner = self.lock_learner();
        if log_wal {
            if let Some(hook) = &self.durability {
                let mut st = self.lock_durability(hook);
                self.gate_locked(&mut st)?;
                match st.shard.log_batch(batch) {
                    Ok(bytes) => {
                        st.consecutive_failures = 0;
                        self.wal_bytes.fetch_add(bytes, SeqCst);
                    }
                    Err(_) => {
                        // The batch is **not** ingested and **not**
                        // acknowledged: the WAL never captured it, so
                        // acking would silently lose it across a crash.
                        // The caller may retry; repeated failures trip
                        // the shard into degraded (read-only) serving.
                        self.note_persist_failure(&mut st);
                        return Err(EstimatorError::PersistRefused);
                    }
                }
            }
        }
        let version_before = learner.training_version();
        learner.observe_batch(batch);
        self.batches_ingested.fetch_add(1, SeqCst);
        self.queries_ingested.fetch_add(batch.len() as u64, SeqCst);
        self.ingest_rate.record(batch.len() as u64);
        let outcome = learner.refine();
        let result = match outcome {
            Ok(o) => {
                let trained_during_ingest =
                    !o.retrained() && learner.training_version() != version_before;
                if o.retrained() || trained_during_ingest {
                    self.refines.fetch_add(1, SeqCst);
                }
                if let RefineOutcome::Retrained { incremental: true, .. } = o {
                    self.incremental_refines.fetch_add(1, SeqCst);
                }
                self.publish(&learner);
                if trained_during_ingest {
                    // Retrains hidden inside `observe_batch` don't surface
                    // a report, so they are conservatively counted as
                    // non-incremental.
                    Ok(RefineOutcome::Retrained {
                        params: learner.param_count(),
                        constraints: batch.len(),
                        incremental: false,
                    })
                } else {
                    Ok(o)
                }
            }
            Err(e) => {
                self.refine_failures.fetch_add(1, SeqCst);
                Err(e)
            }
        };
        if log_wal {
            self.maybe_checkpoint(&learner);
        }
        result
    }

    /// Locks the learner, adopting (and counting) a poisoned lock rather
    /// than panicking: a writer that panicked mid-update leaves at worst
    /// a stale model, which the next successful publish replaces —
    /// poisoning every future caller would turn one bad batch into a
    /// permanent outage.
    fn lock_learner(&self) -> MutexGuard<'_, L> {
        self.learner.lock().unwrap_or_else(|poisoned| {
            self.poisoned_locks.fetch_add(1, SeqCst);
            poisoned.into_inner()
        })
    }

    /// Locks the durability state with the same poison recovery; an
    /// interrupted persist call is indistinguishable from an IO failure,
    /// which the health machine already handles.
    fn lock_durability<'a>(&self, hook: &'a DurabilityHook<L>) -> MutexGuard<'a, DurabilityState> {
        hook.state.lock().unwrap_or_else(|poisoned| {
            self.poisoned_locks.fetch_add(1, SeqCst);
            poisoned.into_inner()
        })
    }

    /// Pre-flight ingest admission: healthy (and non-durable) services
    /// pass for free; a degraded shard runs a re-arm probe when one is
    /// due and otherwise refuses with the delay until the next probe.
    /// Takes only the durability lock — never the learner lock — so the
    /// sharded router can refuse a multi-shard batch atomically before
    /// any shard ingests.
    pub fn health_gate(&self) -> Result<(), EstimatorError> {
        if self.health.load(SeqCst) == 0 {
            return Ok(());
        }
        let Some(hook) = &self.durability else { return Ok(()) };
        let mut st = self.lock_durability(hook);
        self.gate_locked(&mut st)
    }

    /// [`health_gate`](Self::health_gate) with the durability lock held.
    fn gate_locked(&self, st: &mut DurabilityState) -> Result<(), EstimatorError> {
        if self.health.load(SeqCst) == 0 {
            return Ok(());
        }
        let now = Instant::now();
        if now >= st.next_probe_at {
            self.health_probes.fetch_add(1, SeqCst);
            match st.shard.probe() {
                Ok(()) => {
                    // The directory takes writes again and the WAL sits
                    // on a fresh segment: back to serving ingest.
                    st.consecutive_failures = 0;
                    st.probe_attempt = 0;
                    self.health.store(0, SeqCst);
                    return Ok(());
                }
                Err(_) => self.arm_next_probe(st, now),
            }
        }
        self.degraded_refusals.fetch_add(1, SeqCst);
        let wait = st.next_probe_at.saturating_duration_since(Instant::now());
        Err(EstimatorError::Degraded { retry_after_ms: (wait.as_millis() as u64).max(1) })
    }

    /// Counts one persist failure and trips Healthy → Degraded once the
    /// consecutive-failure streak reaches `degrade_after`. Called with
    /// the durability lock held.
    fn note_persist_failure(&self, st: &mut DurabilityState) {
        self.persist_failures.fetch_add(1, SeqCst);
        st.consecutive_failures = st.consecutive_failures.saturating_add(1);
        if self.health.load(SeqCst) == 0
            && st.consecutive_failures >= st.shard.options().degrade_after.max(1)
        {
            self.health.store(1, SeqCst);
            self.degraded_transitions.fetch_add(1, SeqCst);
            st.probe_attempt = 0;
            self.arm_next_probe(st, Instant::now());
        }
    }

    /// Schedules the next re-arm probe: exponential backoff from
    /// `probe_backoff` capped at `probe_backoff_max`, with deterministic
    /// jitter keyed on the shard directory and the attempt number (no
    /// wall-clock entropy, so torture runs reproduce exactly).
    fn arm_next_probe(&self, st: &mut DurabilityState, now: Instant) {
        let opts = st.shard.options();
        let base = (opts.probe_backoff.as_millis() as u64).max(1);
        let cap = (opts.probe_backoff_max.as_millis() as u64).max(base);
        let backoff = base.saturating_mul(1u64 << st.probe_attempt.min(20)).min(cap);
        st.probe_attempt = st.probe_attempt.saturating_add(1);
        st.next_probe_at =
            now + Duration::from_millis(jitter_ms(st.probe_seed, st.probe_attempt, backoff));
    }

    /// Takes a checkpoint if the durability thresholds (row count or
    /// elapsed interval, with at least one row pending) say one is due.
    /// Called with the learner lock held so the saved state is exactly
    /// what the WAL watermark covers.
    fn maybe_checkpoint(&self, learner: &L) {
        let Some(hook) = &self.durability else { return };
        let mut st = self.lock_durability(hook);
        let rows = st.shard.rows_since_checkpoint();
        if rows == 0 {
            return;
        }
        let opts = st.shard.options();
        let due = rows >= opts.checkpoint_rows
            || st.last_checkpoint.elapsed() >= opts.checkpoint_interval;
        if !due {
            return;
        }
        if self.checkpoint_locked(hook, &mut st, learner).is_err() {
            self.note_persist_failure(&mut st);
        }
    }

    fn checkpoint_locked(
        &self,
        hook: &DurabilityHook<L>,
        st: &mut DurabilityState,
        learner: &L,
    ) -> Result<(), PersistError> {
        let bytes = (hook.save)(learner)?;
        let counters = self.counter_array();
        st.shard.write_checkpoint(&bytes, &counters)?;
        st.last_checkpoint = Instant::now();
        self.checkpoints_written.store(st.shard.stats().checkpoints_written, SeqCst);
        // A checkpoint is a full durable round-trip (learner capture,
        // temp write, rename, WAL rotation): stronger evidence than any
        // probe, so it both clears the failure streak and re-arms a
        // degraded shard.
        st.consecutive_failures = 0;
        st.probe_attempt = 0;
        self.health.store(0, SeqCst);
        Ok(())
    }

    /// The service counters persisted in each checkpoint's META section,
    /// in the fixed order [`Self::restore_counters`] reads them back.
    fn counter_array(&self) -> Vec<u64> {
        vec![
            self.batches_ingested.load(SeqCst),
            self.queries_ingested.load(SeqCst),
            self.refines.load(SeqCst),
            self.incremental_refines.load(SeqCst),
            self.refine_failures.load(SeqCst),
            self.rejected_batches.load(SeqCst),
            self.version.load(SeqCst),
        ]
    }

    fn restore_counters(&self, counters: &[u64]) {
        let get = |i: usize| counters.get(i).copied().unwrap_or(0);
        self.batches_ingested.store(get(0), SeqCst);
        self.queries_ingested.store(get(1), SeqCst);
        self.refines.store(get(2), SeqCst);
        self.incremental_refines.store(get(3), SeqCst);
        self.refine_failures.store(get(4), SeqCst);
        self.rejected_batches.store(get(5), SeqCst);
        self.version.store(get(6), SeqCst);
        // Publish happens under the learner lock before the lock is
        // released, so at checkpoint time every ingested query had been
        // published: the frozen counter equals the live one.
        self.published_queries.store(get(1), SeqCst);
    }

    /// Forces a checkpoint now (learner state + counters + WAL rotation),
    /// regardless of thresholds. Returns `Ok(false)` when the service has
    /// no durability attached.
    pub fn checkpoint_now(&self) -> Result<bool, PersistError> {
        let Some(hook) = &self.durability else { return Ok(false) };
        let learner = self.lock_learner();
        let mut st = self.lock_durability(hook);
        match self.checkpoint_locked(hook, &mut st, &learner) {
            Ok(()) => Ok(true),
            Err(e) => {
                self.note_persist_failure(&mut st);
                Err(e)
            }
        }
    }

    /// True when this service was opened with durability attached.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Forwards a data-churn notification to the learner and republishes
    /// (scan-based learners may have rebuilt their statistics).
    pub fn sync_data(&self, table: &Table, changed_rows: usize) {
        let mut learner = self.lock_learner();
        learner.sync_data(table, changed_rows);
        self.publish(&learner);
    }

    /// Runs a closure against the locked learner — diagnostics access
    /// (e.g. `QuickSel::last_report`, [`Learn::last_error`](quicksel_data::Learn::last_error)).
    pub fn with_learner<R>(&self, f: impl FnOnce(&L) -> R) -> R {
        f(&self.lock_learner())
    }

    fn publish(&self, learner: &L) {
        self.current.store(learner.snapshot_shared());
        self.published_queries.store(self.queries_ingested.load(SeqCst), SeqCst);
        self.evicted_rows.store(learner.evicted_rows(), SeqCst);
        self.drift_resamples.store(learner.drift_resamples(), SeqCst);
        self.history_len.store(learner.history_len() as u64, SeqCst);
        self.version.fetch_add(1, SeqCst);
    }
}

impl<L: SnapshotSource + PersistLearner> SelectivityService<L> {
    /// Opens a durable service at `dir`: recovers from the newest valid
    /// checkpoint + WAL tail when the directory holds prior state,
    /// otherwise starts fresh from `make_learner()`. Either way the
    /// returned service logs every ingested batch to the WAL and
    /// checkpoints on the thresholds in `opts`.
    ///
    /// Recovery is *exact*: the restored learner is the checkpointed one
    /// bit for bit (including cached training state, so the first
    /// post-recovery refine stays warm), and the WAL tail is replayed
    /// through the normal ingest path with the original batch boundaries,
    /// so counters, refine cadence, and estimates all land exactly where
    /// the pre-crash process had them.
    pub fn open_durable(
        dir: &Path,
        opts: DurabilityOptions,
        make_learner: impl FnOnce() -> L,
    ) -> Result<(Self, ShardRecovery), PersistError> {
        let (shard, recovered) = ShardDurability::recover(dir, opts)?;
        let recovered_from_checkpoint = recovered.learner_bytes.is_some();
        let learner = match &recovered.learner_bytes {
            Some(bytes) => L::load_state(bytes)?,
            None => make_learner(),
        };
        let mut service = Self::new(learner);
        service.restore_counters(&recovered.counters);
        service.checkpoints_written.store(shard.stats().checkpoints_written, SeqCst);
        // FNV-1a over the directory path: per-shard, reproducible probe
        // jitter without any wall-clock entropy.
        let probe_seed =
            dir.as_os_str().to_string_lossy().bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        service.durability = Some(DurabilityHook {
            state: Mutex::new(DurabilityState {
                shard,
                last_checkpoint: Instant::now(),
                consecutive_failures: 0,
                probe_attempt: 0,
                next_probe_at: Instant::now(),
                probe_seed,
            }),
            save: Box::new(|learner: &L| learner.save_state()),
        });
        let mut replay_failures = 0;
        for batch in &recovered.batches {
            if service.observe_batch_inner(batch, false).is_err() {
                replay_failures += 1;
            }
        }
        service.replayed_rows.store(recovered.replayed_rows, SeqCst);
        let report = ShardRecovery {
            recovered_from_checkpoint,
            replayed_batches: recovered.batches.len() as u64,
            replayed_rows: recovered.replayed_rows,
            replay_failures,
            truncated_wal_bytes: recovered.truncated_wal_bytes,
            checkpoints_skipped: recovered.checkpoints_skipped,
        };
        Ok((service, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_core::{QuickSel, RefinePolicy};
    use quicksel_geometry::Domain;

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    fn obs(b: [(f64, f64); 2], s: f64) -> ObservedQuery {
        ObservedQuery::new(Rect::from_bounds(&b), s)
    }

    fn service() -> SelectivityService<QuickSel> {
        SelectivityService::new(
            QuickSel::builder(domain()).refine_policy(RefinePolicy::Manual).build(),
        )
    }

    #[test]
    fn initial_snapshot_is_the_prior() {
        let svc = service();
        assert_eq!(svc.version(), 0);
        let snap = svc.snapshot();
        assert_eq!(snap.param_count(), 0);
        assert!(
            (snap.estimate(&Rect::from_bounds(&[(0.0, 5.0), (0.0, 10.0)])) - 0.5).abs() < 1e-12
        );
    }

    #[test]
    fn observe_batch_trains_and_publishes() {
        let svc = service();
        let before = svc.snapshot();
        let outcome = svc.observe_batch(&[obs([(0.0, 5.0), (0.0, 5.0)], 0.9)]).expect("training");
        assert!(outcome.retrained());
        assert_eq!(svc.version(), 1);
        let after = svc.snapshot();
        // The published snapshot reflects the feedback; the pre-ingest
        // snapshot is untouched.
        let probe = Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]);
        assert!((after.estimate(&probe) - 0.9).abs() < 0.05);
        assert!((before.estimate(&probe) - 0.25).abs() < 1e-12);
        let stats = svc.stats();
        assert_eq!(stats.batches_ingested, 1);
        assert_eq!(stats.queries_ingested, 1);
        assert_eq!(stats.refines, 1);
        assert_eq!(stats.refine_failures, 0);
    }

    #[test]
    fn invalid_feedback_is_rejected_before_the_learner() {
        let svc = service();
        let bad = vec![
            obs([(0.0, 5.0), (0.0, 5.0)], 0.5),
            ObservedQuery { rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]), selectivity: 1.5 },
        ];
        let err = svc.observe_batch(&bad).unwrap_err();
        assert_eq!(err, EstimatorError::InvalidFeedback { index: 1, selectivity: 1.5 });
        assert_eq!(svc.stats().rejected_batches, 1);
        assert_eq!(svc.stats().queries_ingested, 0, "whole batch rejected");
        assert_eq!(svc.version(), 0);
        svc.with_learner(|l| assert_eq!(l.observed_count(), 0));
    }

    #[test]
    fn estimate_many_serves_one_coherent_version() {
        let svc = service();
        svc.observe_batch(&[obs([(0.0, 5.0), (0.0, 5.0)], 0.9)]).expect("training");
        let probes = vec![
            Rect::from_bounds(&[(0.0, 5.0), (0.0, 5.0)]),
            Rect::from_bounds(&[(5.0, 10.0), (5.0, 10.0)]),
        ];
        let many = svc.estimate_many(&probes);
        let snap = svc.snapshot();
        for (r, m) in probes.iter().zip(&many) {
            assert_eq!(snap.estimate(r), *m);
        }
    }

    #[test]
    fn learner_diagnostics_are_reachable() {
        let svc = service();
        svc.observe_batch(&[obs([(0.0, 5.0), (0.0, 5.0)], 0.9)]).expect("training");
        svc.with_learner(|l| {
            assert_eq!(l.observed_count(), 1);
            assert!(l.last_report().is_some());
            assert!(l.last_error().is_none());
        });
    }

    #[test]
    fn auto_refining_learner_reports_retrained_and_counts_refines() {
        // Default policy (EveryQuery): the learner retrains inside
        // observe_batch, so the explicit refine sees nothing pending.
        // The service must still report Retrained and count the refine.
        let svc = SelectivityService::new(QuickSel::new(domain()));
        let outcome = svc.observe_batch(&[obs([(0.0, 5.0), (0.0, 5.0)], 0.9)]).expect("train");
        assert!(outcome.retrained(), "auto-refine hidden from the caller: {outcome:?}");
        assert_eq!(svc.stats().refines, 1);
        assert_eq!(svc.version(), 1);
        // Incremental learners (STHoles-style ingestion) are detected the
        // same way, via training_version.
        let outcome2 = svc.observe_batch(&[obs([(2.0, 7.0), (2.0, 7.0)], 0.4)]).expect("train");
        assert!(outcome2.retrained());
        assert_eq!(svc.stats().refines, 2);
    }

    #[test]
    fn bounded_learner_surfaces_eviction_gauges() {
        // A tiny history budget forces evictions quickly; the service
        // must surface them (and the bounded history length) in stats.
        let svc = SelectivityService::new(
            QuickSel::builder(domain())
                .refine_policy(RefinePolicy::Manual)
                .fixed_subpops(16)
                .max_history(6)
                .build(),
        );
        for i in 0..20 {
            let lo = (i % 8) as f64;
            svc.observe_batch(&[obs([(lo, lo + 2.0), (0.0, 5.0)], 0.3)]).expect("train");
        }
        let stats = svc.stats();
        assert!(stats.evicted_rows > 0, "budget of 6 over 20 rows must evict");
        assert!(stats.history_len <= 6, "history above budget: {}", stats.history_len);
        assert!(stats.history_len > 0);
        svc.with_learner(|l| {
            assert_eq!(l.history_len() as u64, stats.history_len);
            assert_eq!(l.evicted_rows(), stats.evicted_rows);
        });
        // Unbounded services keep reporting zeros.
        let plain = service();
        plain.observe_batch(&[obs([(0.0, 5.0), (0.0, 5.0)], 0.5)]).expect("train");
        let s = plain.stats();
        assert_eq!(s.evicted_rows, 0);
        assert_eq!(s.history_len, 1);
    }
}
