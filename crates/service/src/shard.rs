//! [`ShardedService`]: feedback-partitioned serving across N
//! [`SelectivityService`] shards.
//!
//! The single-service design serializes all ingestion on one writer
//! mutex; at high feedback rates that mutex is the bottleneck (the read
//! path already scales through the `ArcCell`). A [`ShardedService`]
//! removes it by **partitioning feedback deterministically**: every
//! predicate rectangle hashes to one owning shard
//! ([`route_hash`]`(rect) % shards`), feedback
//! for that rectangle trains only the owning shard's learner, and
//! estimates for the rectangle are answered by the owning shard's
//! snapshot. Shards never share state, so one writer per shard ingests
//! with zero cross-shard contention.
//!
//! Because each shard's learner still models the *full* domain (it just
//! sees the hash-slice of the workload routed to it), any shard's answer
//! is a valid selectivity estimate; the owning shard is simply the one
//! that has seen this predicate's own feedback. For very wide probes —
//! rectangles spanning most of the domain, whose selectivity is shaped
//! by feedback scattered across every shard — the service blends all
//! shards instead: a weighted average of per-shard estimates, weighted
//! by how much feedback each shard has ingested.

use crate::service::{SelectivityService, ServiceStats, ShardRecovery, SharedSnapshot};
use quicksel_data::{route_hash, EstimatorError, ObservedQuery, SnapshotSource, Table};
use quicksel_geometry::{Domain, Rect};
use quicksel_persist::{DurabilityOptions, PersistError, PersistLearner};
use std::path::Path;
use std::sync::Arc;

/// Fraction of the domain volume at or above which a probe is answered
/// by the cross-shard blend instead of its owning shard alone.
pub const BLEND_THRESHOLD: f64 = 0.5;

/// Minimum total gathered estimates in a batched read before per-shard
/// groups fan out on the workspace pool; below this the snapshot
/// evaluations run inline. Snapshots and blend weights are always
/// resolved serially in shard order, and blend accumulation stays a
/// serial fold in shard order, so the fan-out cannot change a result
/// bit.
const PAR_MIN_BATCH: usize = 64;

/// Aggregated counters for one [`ShardedService`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardedStats {
    /// Ingestion counters of each shard, in shard order.
    pub per_shard: Vec<ServiceStats>,
    /// Element-wise sum over `per_shard`.
    pub total: ServiceStats,
}

/// A feedback-partitioned bank of [`SelectivityService`] shards over one
/// table's domain.
///
/// * **Routing** is deterministic and stateless: the same predicate
///   rectangle always maps to the same shard
///   ([`shard_for`](Self::shard_for)), on every thread and in every
///   process run.
/// * **Writes** parallelize per shard: [`observe_batch`](Self::observe_batch)
///   splits a batch by owning shard and ingests each slice under that
///   shard's own writer mutex; independent callers touching different
///   shards never contend. For a dedicated writer thread per shard, use
///   [`partition_batch`](Self::partition_batch) + [`shard`](Self::shard).
/// * **Reads** stay lock-free: [`estimate_many`](Self::estimate_many)
///   loads the owning shard's snapshot (or blends all shards for very
///   wide probes — see the module docs).
pub struct ShardedService<L: SnapshotSource> {
    domain: Domain,
    full_volume: f64,
    shards: Vec<Arc<SelectivityService<L>>>,
}

impl<L: SnapshotSource> ShardedService<L> {
    /// Builds `shards` services over `domain`, one learner per shard from
    /// the factory (called with the shard index).
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(domain: Domain, shards: usize, mut make_learner: impl FnMut(usize) -> L) -> Self {
        assert!(shards > 0, "a sharded service needs at least one shard");
        let full_volume = domain.full_rect().volume();
        Self {
            domain,
            full_volume,
            shards: (0..shards)
                .map(|i| Arc::new(SelectivityService::new(make_learner(i))))
                .collect(),
        }
    }

    /// The table domain this service estimates over.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The owning shard of a predicate rectangle. Deterministic: same
    /// rect, same shard, always.
    pub fn shard_for(&self, rect: &Rect) -> usize {
        (route_hash(rect) % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard's service (per-shard writer threads,
    /// diagnostics). Feedback pushed here bypasses routing — pair with
    /// [`partition_batch`](Self::partition_batch) to keep the
    /// same-predicate-same-shard invariant.
    pub fn shard(&self, index: usize) -> &Arc<SelectivityService<L>> {
        &self.shards[index]
    }

    /// Splits a batch into per-shard slices by owning shard; slice `i`
    /// holds exactly the observations [`shard_for`](Self::shard_for)
    /// routes to shard `i`, in input order.
    pub fn partition_batch(&self, batch: &[ObservedQuery]) -> Vec<Vec<ObservedQuery>> {
        let mut parts = vec![Vec::new(); self.shards.len()];
        for q in batch {
            parts[self.shard_for(&q.rect)].push(q.clone());
        }
        parts
    }

    /// Routes a batch to its owning shards and ingests each slice
    /// (retrain + publish per shard). A degraded target shard refuses the
    /// whole batch before any shard ingests. Past that gate, returns the
    /// first per-shard error; slices routed to other shards may still
    /// have been ingested — shards are isolated by design, and per-shard
    /// outcomes are visible in [`stats`](Self::stats).
    pub fn observe_batch(&self, batch: &[ObservedQuery]) -> Result<(), EstimatorError> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.shards.len() == 1 {
            // Everything routes to shard 0; skip the partition clone.
            return self.shards[0].observe_batch(batch).map(|_| ());
        }
        let parts = self.partition_batch(batch);
        // Admission runs over every target shard *before* any shard
        // ingests: a degraded shard mid-scatter would otherwise leave the
        // batch half-applied with no way to report which half.
        for (i, part) in parts.iter().enumerate() {
            if !part.is_empty() {
                self.shards[i].health_gate()?;
            }
        }
        let mut first_err = None;
        for (i, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            if let Err(e) = self.shards[i].observe_batch(&part) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// One observation: a batch of one through
    /// [`observe_batch`](Self::observe_batch).
    pub fn observe(&self, query: &ObservedQuery) -> Result<(), EstimatorError> {
        self.observe_batch(std::slice::from_ref(query))
    }

    /// Estimates one rectangle: a batch of one through
    /// [`estimate_many`](Self::estimate_many).
    pub fn estimate(&self, rect: &Rect) -> f64 {
        self.estimate_many(std::slice::from_ref(rect))[0]
    }

    /// Estimates a batch of rectangles coherently — the one read path.
    /// The owning shard ([`shard_for`](Self::shard_for)) answers each
    /// rect, unless the rect [`spans_partitions`](Self::spans_partitions)
    /// of a multi-shard service, in which case all shards are blended
    /// (weighted by feedback published). Each shard-routed group is
    /// answered by **one** snapshot of its owning shard (loaded once,
    /// batch-estimated through the SoA kernel); blend-routed rects load
    /// every shard's snapshot once for the whole batch. Lock-free
    /// either way.
    ///
    /// Two guarantees follow:
    ///
    /// * **Coherence** — all rects of one call that route to the same
    ///   shard are answered from a single model version, even while that
    ///   shard's writer publishes concurrently.
    /// * **Equivalence** — at a fixed version each result compares equal
    ///   (`==`) to the owning shard's scalar snapshot estimate, or to the
    ///   blend of the per-shard scalar estimates in shard order (the
    ///   kernel's exactness contract plus a serial blend fold).
    pub fn estimate_many(&self, rects: &[Rect]) -> Vec<f64> {
        if rects.is_empty() {
            return Vec::new();
        }
        if self.shards.len() == 1 {
            // Everything routes to shard 0 (blending needs ≥ 2 shards):
            // one snapshot serves the whole batch.
            self.shards[0].note_estimates(rects.len() as u64);
            return self.shards[0].snapshot().estimate_many(rects);
        }
        let mut out = vec![0.0; rects.len()];
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut blended: Vec<usize> = Vec::new();
        for (i, rect) in rects.iter().enumerate() {
            if self.spans_partitions(rect) {
                blended.push(i);
            } else {
                per_shard[self.shard_for(rect)].push(i);
            }
        }
        // Resolve snapshots serially (snapshot-load order is part of the
        // coherence contract), then evaluate the per-shard groups —
        // independent index lists into the caller's batch — concurrently
        // on the workspace pool.
        let groups: Vec<(&Vec<usize>, SharedSnapshot)> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, indexes)| !indexes.is_empty())
            .map(|(shard, indexes)| {
                self.shards[shard].note_estimates(indexes.len() as u64);
                (indexes, self.shards[shard].snapshot())
            })
            .collect();
        // Gather, don't clone: each group is an index list into the
        // caller's batch and the snapshot estimates through it.
        let gathers: Vec<(&SharedSnapshot, &[usize])> =
            groups.iter().map(|(indexes, snapshot)| (snapshot, indexes.as_slice())).collect();
        let estimates = gather_groups(rects, &gathers);
        for ((indexes, _), group_estimates) in groups.iter().zip(estimates) {
            for (&i, e) in indexes.iter().zip(group_estimates) {
                out[i] = e;
            }
        }
        if !blended.is_empty() {
            for (&i, e) in blended.iter().zip(self.blend_gather(rects, &blended)) {
                out[i] = e;
            }
        }
        out
    }

    /// True when `rect` covers at least [`BLEND_THRESHOLD`] of the domain
    /// volume: wide enough that its selectivity is shaped by feedback
    /// routed to *other* shards, so a multi-shard service blends it.
    pub fn spans_partitions(&self, rect: &Rect) -> bool {
        self.full_volume > 0.0 && rect.volume() >= BLEND_THRESHOLD * self.full_volume
    }

    /// The cross-shard blend of `rects[indexes[k]]` for each `k`:
    /// per-shard estimates averaged with weight
    /// `1 + published_queries(shard)`, so shards that have actually seen
    /// feedback dominate while a fully-cold bank degrades to the plain
    /// average of the priors (which all agree anyway). Weights read the
    /// *published* query counts — frozen at each shard's last publish —
    /// so blended estimates can only change when [`version`](Self::version)
    /// changes, keeping version-keyed caches sound even when a refine
    /// fails mid-batch.
    ///
    /// Every shard's snapshot (and its blend weight) is loaded **once**
    /// for the whole batch, so all rects blend the same per-shard model
    /// versions. Per-shard snapshots evaluate **concurrently** on the
    /// workspace pool (they are independent read-only models); the
    /// weighted accumulation stays a serial fold in shard order, so the
    /// blended numbers compare equal (`==`) to the serial sweep at any
    /// thread count.
    fn blend_gather(&self, rects: &[Rect], indexes: &[usize]) -> Vec<f64> {
        // Weights and snapshots load serially in shard order — one
        // coherent (weight, model) pair per shard for the whole batch.
        let loaded: Vec<(f64, SharedSnapshot)> = self
            .shards
            .iter()
            .map(|shard| {
                shard.note_estimates(indexes.len() as u64);
                (1.0 + shard.published_queries() as f64, shard.snapshot())
            })
            .collect();
        let gathers: Vec<(&SharedSnapshot, &[usize])> =
            loaded.iter().map(|(_, snapshot)| (snapshot, indexes)).collect();
        let estimates = gather_groups(rects, &gathers);
        let mut num = vec![0.0; indexes.len()];
        let mut den = 0.0;
        for ((w, _), shard_estimates) in loaded.iter().zip(&estimates) {
            for (n, e) in num.iter_mut().zip(shard_estimates) {
                *n += w * e;
            }
            den += w;
        }
        num.iter().map(|n| n / den).collect()
    }

    /// Sum of per-shard published-version counters. Monotone: every
    /// shard's counter only moves forward.
    pub fn version(&self) -> u64 {
        self.shards.iter().map(|s| s.version()).sum()
    }

    /// Forwards a data-churn notification to every shard (each shard's
    /// learner models the full table).
    pub fn sync_data(&self, table: &Table, changed_rows: usize) {
        for shard in &self.shards {
            shard.sync_data(table, changed_rows);
        }
    }

    /// Per-shard and aggregated counters.
    pub fn stats(&self) -> ShardedStats {
        let per_shard: Vec<ServiceStats> = self.shards.iter().map(|s| s.stats()).collect();
        let total = per_shard.iter().fold(ServiceStats::default(), |a, &b| a.merge(b));
        ShardedStats { per_shard, total }
    }
}

impl<L: SnapshotSource + PersistLearner> ShardedService<L> {
    /// Opens a durable sharded service under `base_dir`: each shard gets
    /// its own WAL + checkpoint subdirectory (`shard-NNN/`), recovered
    /// independently through [`SelectivityService::open_durable`]. Fresh
    /// directories start cold from `make_learner(shard)`; existing ones
    /// recover the checkpointed learner and replay their WAL tail. The
    /// returned [`ShardRecovery`] is the merge across all shards.
    ///
    /// Because feedback routing is deterministic
    /// ([`shard_for`](Self::shard_for)), a recovered bank re-routes every
    /// future observation exactly as the pre-crash process did — shard
    /// state and shard directories stay aligned across restarts as long
    /// as `shards` is kept constant for a given `base_dir`.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn open_durable(
        domain: Domain,
        shards: usize,
        base_dir: &Path,
        opts: DurabilityOptions,
        mut make_learner: impl FnMut(usize) -> L,
    ) -> Result<(Self, ShardRecovery), PersistError> {
        assert!(shards > 0, "a sharded service needs at least one shard");
        let full_volume = domain.full_rect().volume();
        let mut services = Vec::with_capacity(shards);
        let mut recovery = ShardRecovery::default();
        for i in 0..shards {
            let dir = base_dir.join(format!("shard-{i:03}"));
            let (svc, rec) =
                SelectivityService::open_durable(&dir, opts.clone(), || make_learner(i))?;
            recovery = recovery.merge(rec);
            services.push(Arc::new(svc));
        }
        Ok((Self { domain, full_volume, shards: services }, recovery))
    }

    /// Forces a checkpoint on every durable shard; returns true when at
    /// least one shard checkpointed. Stops at the first persist error.
    pub fn checkpoint_now(&self) -> Result<bool, PersistError> {
        let mut any = false;
        for shard in &self.shards {
            any |= shard.checkpoint_now()?;
        }
        Ok(any)
    }
}

/// Evaluates `snapshot.estimate_gather(rects, indexes)` for every
/// `(snapshot, indexes)` group — the one fan-out-or-inline dispatch
/// both batched read paths share. Groups evaluate concurrently on the
/// workspace pool when the total gathered count clears
/// [`PAR_MIN_BATCH`]; results come back in group order either way, so
/// callers' scatter/fold arithmetic (and therefore their exact-equality
/// contracts) never depends on the dispatch choice.
fn gather_groups(rects: &[Rect], groups: &[(&SharedSnapshot, &[usize])]) -> Vec<Vec<f64>> {
    let mut estimates: Vec<Vec<f64>> = vec![Vec::new(); groups.len()];
    let pool = quicksel_parallel::current();
    let total: usize = groups.iter().map(|(_, indexes)| indexes.len()).sum();
    if pool.threads() > 1 && groups.len() > 1 && total >= PAR_MIN_BATCH {
        pool.scope(|s| {
            for ((snapshot, indexes), slot) in groups.iter().zip(estimates.iter_mut()) {
                s.spawn(move || *slot = snapshot.estimate_gather(rects, indexes));
            }
        });
    } else {
        for ((snapshot, indexes), slot) in groups.iter().zip(estimates.iter_mut()) {
            *slot = snapshot.estimate_gather(rects, indexes);
        }
    }
    estimates
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_core::{QuickSel, RefinePolicy};

    fn domain() -> Domain {
        Domain::of_reals(&[("x", 0.0, 10.0), ("y", 0.0, 10.0)])
    }

    fn sharded(n: usize) -> ShardedService<QuickSel> {
        let d = domain();
        ShardedService::new(d.clone(), n, |i| {
            QuickSel::builder(d.clone())
                .refine_policy(RefinePolicy::Manual)
                .seed(7 + i as u64)
                .build()
        })
    }

    fn obs(b: [(f64, f64); 2], s: f64) -> ObservedQuery {
        ObservedQuery::new(Rect::from_bounds(&b), s)
    }

    /// The blend as an independent oracle: in shard order, each shard's
    /// scalar snapshot estimate weighted by `1 + published_queries`.
    fn reference_blend(svc: &ShardedService<QuickSel>, rect: &Rect) -> f64 {
        let (mut num, mut den) = (0.0, 0.0);
        for i in 0..svc.shard_count() {
            let shard = svc.shard(i);
            let w = 1.0 + shard.published_queries() as f64;
            num += w * shard.snapshot().estimate(rect);
            den += w;
        }
        num / den
    }

    #[test]
    fn routing_is_deterministic_and_partition_respects_it() {
        let svc = sharded(4);
        let batch: Vec<ObservedQuery> = (0..32)
            .map(|i| {
                let lo = (i % 7) as f64;
                obs([(lo, lo + 2.0), ((i % 5) as f64, (i % 5) as f64 + 3.0)], 0.3)
            })
            .collect();
        for q in &batch {
            assert_eq!(svc.shard_for(&q.rect), svc.shard_for(&q.rect));
        }
        let parts = svc.partition_batch(&batch);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), batch.len());
        for (i, part) in parts.iter().enumerate() {
            for q in part {
                assert_eq!(svc.shard_for(&q.rect), i);
            }
        }
    }

    #[test]
    fn feedback_trains_only_the_owning_shard() {
        let svc = sharded(4);
        let q = obs([(1.0, 3.0), (2.0, 5.0)], 0.7);
        let owner = svc.shard_for(&q.rect);
        svc.observe(&q).expect("train");
        for i in 0..svc.shard_count() {
            let expected = u64::from(i == owner);
            assert_eq!(svc.shard(i).stats().queries_ingested, expected, "shard {i}");
        }
        // The owning shard's estimate reflects the feedback.
        assert!((svc.estimate(&q.rect) - 0.7).abs() < 0.05);
    }

    #[test]
    fn wide_probes_blend_across_shards() {
        let svc = sharded(2);
        // Train the two shards apart with narrow feedback.
        for i in 0..12 {
            let lo = (i % 6) as f64;
            svc.observe(&obs([(lo, lo + 2.0), (lo, lo + 2.0)], 0.4)).expect("train");
        }
        let wide = Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
        assert!(svc.spans_partitions(&wide));
        assert_eq!(svc.estimate(&wide), reference_blend(&svc, &wide));
        let narrow = Rect::from_bounds(&[(1.0, 2.0), (1.0, 2.0)]);
        assert!(!svc.spans_partitions(&narrow));
        // Blending is a convex combination of per-shard answers.
        let per_shard: Vec<f64> = (0..2).map(|i| svc.shard(i).estimate(&wide)).collect();
        let blended = svc.estimate(&wide);
        let lo = per_shard.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = per_shard.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(blended >= lo - 1e-12 && blended <= hi + 1e-12);
    }

    #[test]
    fn blended_estimates_are_stable_at_a_fixed_version() {
        let svc = sharded(2);
        for i in 0..8 {
            let lo = (i % 4) as f64;
            svc.observe(&obs([(lo, lo + 2.0), (lo, lo + 2.0)], 0.4)).expect("train");
        }
        let wide = Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
        let version = svc.version();
        let blended = svc.estimate(&wide);
        assert_eq!(blended, reference_blend(&svc, &wide));
        // A rejected batch ingests nothing and publishes nothing; the
        // blend must not move while the version holds still.
        let bad = ObservedQuery { rect: wide.clone(), selectivity: 2.0 };
        assert!(svc.observe(&bad).is_err());
        assert_eq!(svc.version(), version);
        assert_eq!(svc.estimate(&wide), blended, "estimate moved at a fixed version");
    }

    #[test]
    fn version_sums_monotonically_and_stats_aggregate() {
        let svc = sharded(3);
        assert_eq!(svc.version(), 0);
        let batch: Vec<ObservedQuery> = (0..9)
            .map(|i| obs([((i % 4) as f64, (i % 4) as f64 + 3.0), (0.0, 5.0)], 0.5))
            .collect();
        svc.observe_batch(&batch).expect("train");
        let stats = svc.stats();
        assert_eq!(stats.total.queries_ingested, 9);
        assert_eq!(stats.per_shard.len(), 3);
        // Every shard that received feedback published a new version.
        let touched = stats.per_shard.iter().filter(|s| s.batches_ingested > 0).count() as u64;
        assert_eq!(svc.version(), touched);
    }
}
