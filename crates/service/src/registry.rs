//! [`EstimatorRegistry`]: one sharded estimator per table, behind the
//! [`CardinalityProvider`] API.
//!
//! QuickSel is cheap enough to run *per table, online*; the registry is
//! the piece that makes that concrete: it maps [`TableId`]s to
//! [`ShardedService`]s, so an engine serving many relations routes every
//! planner probe and every feedback observation to the right table's
//! estimator — and within the table, to the right shard. Registration is
//! rare (DDL-frequency); estimation is constant. The table map is
//! therefore RCU: readers load an immutable `Arc<HashMap>` snapshot from
//! an [`ArcCell`] without ever taking a lock, while `register`/`remove`
//! serialize on a DDL mutex, clone the map, and atomically publish the
//! successor — so a registration can never block (or be blocked by) the
//! estimate hot path.

use crate::provider::{CardinalityProvider, TableId};
use crate::service::{ServiceStats, ShardRecovery};
use crate::shard::{ShardedService, ShardedStats};
use crate::swap::ArcCell;
use quicksel_data::{ObservedQuery, SnapshotSource, Table};
use quicksel_geometry::{Domain, Predicate, Rect};
use quicksel_persist::format::{Container, PutBytes, Reader};
use quicksel_persist::{codec, DurabilityOptions, PersistError, PersistLearner};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A point-in-time view of replication health; all-zero on a primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationStats {
    /// True when this registry serves shipped state read-only.
    pub replica: bool,
    /// Rows (observed queries) covered by the applied state.
    pub applied_watermark: u64,
    /// Rows behind the primary's last observed watermark.
    pub watermark_lag: u64,
    /// Milliseconds since the last successful sync; `u64::MAX` on a
    /// replica that has never synced.
    pub last_sync_ms: u64,
    /// Writes refused because this registry is read-only.
    pub readonly_refusals: u64,
}

/// Lock-free replication gauges, mirrored into [`RegistryStats`] (and
/// from there onto the wire) the same way the PR-8 serving counters
/// are. A replication agent owns one `Arc` of these across registry
/// swaps, so gauges survive each applied snapshot.
#[derive(Debug)]
pub struct ReplicationGauges {
    /// Reference point for the last-sync age; ages are stored as
    /// offsets from it so the hot path stays atomic-only.
    epoch: Instant,
    replica: AtomicU64,
    applied_watermark: AtomicU64,
    watermark_lag: AtomicU64,
    /// Milliseconds from `epoch` to the last successful sync;
    /// `u64::MAX` = never.
    last_sync_at_ms: AtomicU64,
    readonly_refusals: AtomicU64,
}

impl Default for ReplicationGauges {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            replica: AtomicU64::new(0),
            applied_watermark: AtomicU64::new(0),
            watermark_lag: AtomicU64::new(0),
            last_sync_at_ms: AtomicU64::new(u64::MAX),
            readonly_refusals: AtomicU64::new(0),
        }
    }
}

impl ReplicationGauges {
    /// Fresh gauges for a read-only replica (no sync yet).
    pub fn replica() -> Self {
        let gauges = Self::default();
        gauges.replica.store(1, SeqCst);
        gauges
    }

    /// Records a completed sync: the watermark the applied state covers
    /// and how many rows the primary reported beyond it. Resets the
    /// last-sync age.
    pub fn record_sync(&self, applied_watermark: u64, watermark_lag: u64) {
        self.applied_watermark.store(applied_watermark, SeqCst);
        self.watermark_lag.store(watermark_lag, SeqCst);
        self.last_sync_at_ms.store(self.epoch.elapsed().as_millis() as u64, SeqCst);
    }

    /// Counts one refused write; returns the running total.
    pub fn record_refusal(&self) -> u64 {
        self.readonly_refusals.fetch_add(1, SeqCst) + 1
    }

    /// The current gauge values, with the last-sync offset converted to
    /// an age.
    pub fn snapshot(&self) -> ReplicationStats {
        let last_sync_at = self.last_sync_at_ms.load(SeqCst);
        ReplicationStats {
            replica: self.replica.load(SeqCst) != 0,
            applied_watermark: self.applied_watermark.load(SeqCst),
            watermark_lag: self.watermark_lag.load(SeqCst),
            last_sync_ms: if last_sync_at == u64::MAX {
                u64::MAX
            } else {
                (self.epoch.elapsed().as_millis() as u64).saturating_sub(last_sync_at)
            },
            readonly_refusals: self.readonly_refusals.load(SeqCst),
        }
    }
}

/// Registry-wide counters: aggregated ingestion stats plus the
/// degradation signals ([`missing_table_probes`](Self::missing_table_probes),
/// [`dropped_feedback`](Self::dropped_feedback)) that indicate the
/// planner and the registry disagree about which tables exist.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistryStats {
    /// Registered tables.
    pub tables: usize,
    /// Total shards across all tables.
    pub shards: usize,
    /// Ingestion counters summed over every shard of every table.
    pub total: ServiceStats,
    /// Estimates requested for unregistered tables (answered `1.0`).
    pub missing_table_probes: u64,
    /// Feedback observations dropped because their table is unregistered.
    pub dropped_feedback: u64,
    /// Tables restored by [`EstimatorRegistry::recover_from`].
    pub tables_recovered: u64,
    /// Table directories skipped during recovery (unreadable meta).
    pub recovery_skipped: u64,
    /// Replication role and lag gauges; all-zero on a primary.
    pub replication: ReplicationStats,
    /// Per-table breakdowns, sorted by table id.
    pub per_table: Vec<(TableId, ShardedStats)>,
}

/// Maps tables to their sharded estimators and implements
/// [`CardinalityProvider`] on top — the serving side of the planner seam.
///
/// ```
/// use quicksel_core::QuickSel;
/// use quicksel_geometry::{Domain, Predicate};
/// use quicksel_service::{CardinalityProvider, EstimatorRegistry};
///
/// let registry = EstimatorRegistry::new();
/// let orders = Domain::of_reals(&[("hour", 0.0, 24.0)]);
/// registry.register_with("orders", orders.clone(), 4, |_| QuickSel::new(orders.clone()));
///
/// let probe = Predicate::new().range(0, 9.0, 17.0);
/// let sel = registry.estimate(&"orders".into(), &probe);
/// assert!((0.0..=1.0).contains(&sel));
/// ```
pub struct EstimatorRegistry<L: SnapshotSource> {
    /// RCU map: readers load the current immutable snapshot lock-free;
    /// writers clone-and-publish under [`Self::ddl`].
    tables: ArcCell<HashMap<TableId, Arc<ShardedService<L>>>>,
    /// Serializes `register`/`remove` (the `ArcCell` has no
    /// compare-and-swap, so concurrent clone-mutate-publish cycles would
    /// lose updates without it). Never held on the read path.
    ddl: Mutex<()>,
    /// Bumped by every `register`/`remove` (see
    /// [`generation`](Self::generation)).
    generation: AtomicU64,
    missing_table_probes: AtomicU64,
    dropped_feedback: AtomicU64,
    tables_recovered: AtomicU64,
    recovery_skipped: AtomicU64,
    /// The durable base directory this registry's tables live under
    /// (set by [`register_durable`](Self::register_durable) /
    /// [`recover_from`](Self::recover_from)); `None` for an in-memory
    /// registry. Replication ships the files under it.
    durable_root: Mutex<Option<PathBuf>>,
    /// Replication gauges, RCU-swappable so a replication agent can
    /// carry one gauge set across applied-state registry rebuilds.
    replication: ArcCell<ReplicationGauges>,
}

impl<L: SnapshotSource> Default for EstimatorRegistry<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: SnapshotSource> EstimatorRegistry<L> {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            tables: ArcCell::new(Arc::new(HashMap::new())),
            ddl: Mutex::new(()),
            generation: AtomicU64::new(0),
            missing_table_probes: AtomicU64::new(0),
            dropped_feedback: AtomicU64::new(0),
            tables_recovered: AtomicU64::new(0),
            recovery_skipped: AtomicU64::new(0),
            durable_root: Mutex::new(None),
            replication: ArcCell::new(Arc::new(ReplicationGauges::default())),
        }
    }

    /// The durable base directory backing this registry, if any table
    /// was registered or recovered durably.
    pub fn durable_root(&self) -> Option<PathBuf> {
        self.durable_root.lock().expect("durable root lock poisoned").clone()
    }

    fn set_durable_root(&self, base_dir: &Path) {
        *self.durable_root.lock().expect("durable root lock poisoned") =
            Some(base_dir.to_path_buf());
    }

    /// The registry's replication gauges (shared, lock-free).
    pub fn replication(&self) -> Arc<ReplicationGauges> {
        self.replication.load()
    }

    /// Installs a shared gauge set — a replication agent calls this on
    /// every applied registry so lag and refusal counts survive the
    /// swap from one recovered snapshot to the next.
    pub fn adopt_replication(&self, gauges: Arc<ReplicationGauges>) {
        self.replication.store(gauges);
    }

    /// Clone-and-publish one mutation of the table map under the DDL
    /// mutex; returns whatever the mutation returns. Readers racing this
    /// keep the previous snapshot until the `store` — they are never
    /// blocked, and never observe a half-applied map.
    fn mutate_tables<R>(
        &self,
        mutate: impl FnOnce(&mut HashMap<TableId, Arc<ShardedService<L>>>) -> R,
    ) -> R {
        let _ddl = self.ddl.lock().expect("registry ddl lock poisoned");
        let mut next = (*self.tables.load()).clone();
        let result = mutate(&mut next);
        self.tables.store(Arc::new(next));
        result
    }

    /// Monotone counter bumped by every [`register`](Self::register) /
    /// [`remove`](Self::remove). Engines compare it to detect DDL and
    /// re-run their domain check.
    pub fn generation(&self) -> u64 {
        self.generation.load(SeqCst)
    }

    /// Registers (or replaces) `table`'s sharded service. Readers holding
    /// the replaced service keep it alive until they drop it; concurrent
    /// estimates are never blocked (RCU publish).
    pub fn register(&self, table: impl Into<TableId>, service: Arc<ShardedService<L>>) {
        self.mutate_tables(|tables| tables.insert(table.into(), service));
        self.generation.fetch_add(1, SeqCst);
    }

    /// Builds and registers a [`ShardedService`] with `shards` shards
    /// over `domain`, one learner per shard from the factory. Returns the
    /// registered service for direct access (per-shard writers, stats).
    pub fn register_with(
        &self,
        table: impl Into<TableId>,
        domain: Domain,
        shards: usize,
        make_learner: impl FnMut(usize) -> L,
    ) -> Arc<ShardedService<L>> {
        let service = Arc::new(ShardedService::new(domain, shards, make_learner));
        self.register(table, Arc::clone(&service));
        service
    }

    /// The sharded service for `table`, if registered. Lock-free: loads
    /// the current RCU snapshot of the table map.
    pub fn get(&self, table: &TableId) -> Option<Arc<ShardedService<L>>> {
        self.tables.load().get(table).cloned()
    }

    /// Deregisters `table`, returning its service (estimates for the
    /// table degrade to the conservative `1.0` from then on).
    pub fn remove(&self, table: &TableId) -> Option<Arc<ShardedService<L>>> {
        let removed = self.mutate_tables(|tables| tables.remove(table));
        if removed.is_some() {
            self.generation.fetch_add(1, SeqCst);
        }
        removed
    }

    /// Registered table ids, sorted.
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut ids: Vec<TableId> = self.tables.load().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.load().len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across every table and shard.
    pub fn stats(&self) -> RegistryStats {
        let mut per_table: Vec<(TableId, ShardedStats)> = {
            let tables = self.tables.load();
            tables.iter().map(|(id, svc)| (id.clone(), svc.stats())).collect()
        };
        per_table.sort_by(|a, b| a.0.cmp(&b.0));
        let mut stats = RegistryStats {
            tables: per_table.len(),
            missing_table_probes: self.missing_table_probes.load(SeqCst),
            dropped_feedback: self.dropped_feedback.load(SeqCst),
            tables_recovered: self.tables_recovered.load(SeqCst),
            recovery_skipped: self.recovery_skipped.load(SeqCst),
            replication: self.replication.load().snapshot(),
            ..RegistryStats::default()
        };
        for (_, t) in &per_table {
            stats.shards += t.per_shard.len();
            stats.total = stats.total.merge(t.total);
        }
        stats.per_table = per_table;
        stats
    }
}

/// Table-meta container: magic + version for the `meta.qsm` file that
/// pins a durable table's identity (name, shard count, domain) so
/// [`EstimatorRegistry::recover_from`] can rebuild the registry without
/// any out-of-band catalog.
const TABLE_META_MAGIC: [u8; 4] = *b"QSTM";
const TABLE_META_VERSION: u16 = 1;
const TABLE_META_SECTION: [u8; 4] = *b"META";
const TABLE_META_FILE: &str = "meta.qsm";

struct TableMeta {
    table: TableId,
    shards: usize,
    domain: Domain,
}

/// `<base>/tables/<sanitized-name>-<fnv64 hex>/`: readable on disk, and
/// the hash suffix keeps two names that sanitize identically apart.
fn table_dir(base_dir: &Path, table: &TableId) -> PathBuf {
    let name = table.as_str();
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base_dir.join("tables").join(format!("{sanitized}-{hash:016x}"))
}

fn write_table_meta(
    dir: &Path,
    table: &TableId,
    domain: &Domain,
    shards: usize,
) -> Result<(), PersistError> {
    let mut body = Vec::new();
    body.put_str(table.as_str());
    body.put_usize(shards);
    codec::encode_domain(&mut body, domain);
    let bytes = quicksel_persist::format::write_container(
        TABLE_META_MAGIC,
        TABLE_META_VERSION,
        &[(TABLE_META_SECTION, &body)],
    );
    let tmp = dir.join(format!("{TABLE_META_FILE}.tmp"));
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, dir.join(TABLE_META_FILE))?;
    Ok(())
}

fn read_table_meta(dir: &Path) -> Result<TableMeta, PersistError> {
    let bytes = fs::read(dir.join(TABLE_META_FILE))?;
    let container = Container::open(TABLE_META_MAGIC, TABLE_META_VERSION, &bytes)?;
    let mut r = Reader::new(container.section(TABLE_META_SECTION)?);
    let name = r.str("table name")?;
    let shards = r.usize("table shard count")?;
    if shards == 0 {
        return Err(PersistError::Invalid { context: "table meta has zero shards" });
    }
    let domain = codec::decode_domain(&mut r)?;
    Ok(TableMeta { table: TableId::from(name.as_str()), shards, domain })
}

impl<L: SnapshotSource + PersistLearner> EstimatorRegistry<L> {
    /// Builds, registers, **and persists** a durable sharded service for
    /// `table` under `base_dir`: writes the table's `meta.qsm` (name,
    /// shard count, domain) and opens per-shard WAL/checkpoint
    /// directories through [`ShardedService::open_durable`]. Calling this
    /// on a directory that already holds the table's state *recovers* it
    /// instead of starting cold — and [`recover_from`](Self::recover_from)
    /// restores every table registered this way in one call.
    pub fn register_durable(
        &self,
        base_dir: &Path,
        table: impl Into<TableId>,
        domain: Domain,
        shards: usize,
        opts: DurabilityOptions,
        make_learner: impl FnMut(usize) -> L,
    ) -> Result<(Arc<ShardedService<L>>, ShardRecovery), PersistError> {
        let table = table.into();
        let dir = table_dir(base_dir, &table);
        fs::create_dir_all(&dir)?;
        write_table_meta(&dir, &table, &domain, shards)?;
        let (service, recovery) =
            ShardedService::open_durable(domain, shards, &dir, opts, make_learner)?;
        let service = Arc::new(service);
        self.register(table, Arc::clone(&service));
        self.set_durable_root(base_dir);
        Ok((service, recovery))
    }

    /// Rebuilds a registry from everything
    /// [`register_durable`](Self::register_durable) left under
    /// `base_dir`: every readable table meta is recovered — latest valid
    /// checkpoint per shard, WAL tail replayed through the normal ingest
    /// path — and registered under its original [`TableId`].
    /// `make_learner` supplies cold learners for shards with no usable
    /// checkpoint (fresh shards, or all checkpoints corrupt).
    ///
    /// Table directories whose meta is unreadable are skipped and
    /// counted in [`RegistryStats::recovery_skipped`], not fatal: one
    /// corrupted table must not take down every other table's estimator.
    pub fn recover_from(
        base_dir: &Path,
        opts: DurabilityOptions,
        mut make_learner: impl FnMut(&TableId, &Domain, usize) -> L,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let registry = Self::new();
        registry.set_durable_root(base_dir);
        let mut report = RecoveryReport::default();
        let tables_root = base_dir.join("tables");
        let mut dirs: Vec<PathBuf> = match fs::read_dir(&tables_root) {
            Ok(entries) => {
                entries.filter_map(|e| e.ok()).map(|e| e.path()).filter(|p| p.is_dir()).collect()
            }
            Err(_) => Vec::new(), // no tables/ yet: an empty registry
        };
        dirs.sort();
        for dir in dirs {
            let meta = match read_table_meta(&dir) {
                Ok(meta) => meta,
                Err(_) => {
                    report.tables_skipped += 1;
                    registry.recovery_skipped.fetch_add(1, SeqCst);
                    continue;
                }
            };
            let (service, recovery) = ShardedService::open_durable(
                meta.domain.clone(),
                meta.shards,
                &dir,
                opts.clone(),
                |shard| make_learner(&meta.table, &meta.domain, shard),
            )?;
            registry.register(meta.table.clone(), Arc::new(service));
            registry.tables_recovered.fetch_add(1, SeqCst);
            report.tables_recovered += 1;
            report.shards = report.shards.merge(recovery);
        }
        Ok((registry, report))
    }

    /// Forces a checkpoint on every durable shard of every table.
    /// Returns how many tables had at least one durable shard.
    pub fn checkpoint_all(&self) -> Result<usize, PersistError> {
        let tables = self.tables.load();
        let mut durable_tables = 0;
        for service in tables.values() {
            if service.checkpoint_now()? {
                durable_tables += 1;
            }
        }
        Ok(durable_tables)
    }
}

/// What [`EstimatorRegistry::recover_from`] found under a base
/// directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tables successfully recovered and registered.
    pub tables_recovered: u64,
    /// Table directories skipped (unreadable `meta.qsm`).
    pub tables_skipped: u64,
    /// Per-shard recovery outcomes, merged across all tables.
    pub shards: ShardRecovery,
}

impl<L: SnapshotSource> CardinalityProvider for EstimatorRegistry<L> {
    /// Batched probes resolve the table **once** and answer through the
    /// service's coherent batched path (one snapshot per routing shard,
    /// SoA kernel underneath). Unknown tables degrade to all-`1.0` and
    /// count one missing-table probe per predicate.
    fn estimate_many(&self, table: &TableId, preds: &[Predicate]) -> Vec<f64> {
        match self.get(table) {
            Some(svc) => {
                let rects: Vec<Rect> = preds.iter().map(|p| p.to_rect(svc.domain())).collect();
                svc.estimate_many(&rects)
            }
            None => {
                self.missing_table_probes.fetch_add(preds.len() as u64, SeqCst);
                vec![1.0; preds.len()]
            }
        }
    }

    fn observe_batch(&self, table: &TableId, batch: &[ObservedQuery]) {
        match self.get(table) {
            // Ingest errors surface through shard stats and the learner's
            // `last_error`; the feedback loop itself must never panic the
            // executor.
            Some(svc) => {
                let _ = svc.observe_batch(batch);
            }
            None => {
                self.dropped_feedback.fetch_add(batch.len() as u64, SeqCst);
            }
        }
    }

    fn sync_data(&self, table: &TableId, data: &Table, changed_rows: usize) {
        if let Some(svc) = self.get(table) {
            svc.sync_data(data, changed_rows);
        }
    }

    fn version(&self, table: &TableId) -> u64 {
        self.get(table).map_or(0, |svc| svc.version())
    }

    fn domain_of(&self, table: &TableId) -> Option<Domain> {
        self.get(table).map(|svc| svc.domain().clone())
    }

    fn generation(&self) -> u64 {
        self.generation.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_core::{QuickSel, RefinePolicy};
    use quicksel_geometry::Rect;

    fn registry() -> EstimatorRegistry<QuickSel> {
        let reg = EstimatorRegistry::new();
        for (name, hi) in [("orders", 10.0), ("users", 100.0)] {
            let d = Domain::of_reals(&[("a", 0.0, hi), ("b", 0.0, hi)]);
            reg.register_with(name, d.clone(), 2, |i| {
                QuickSel::builder(d.clone())
                    .refine_policy(RefinePolicy::Manual)
                    .seed(i as u64)
                    .build()
            });
        }
        reg
    }

    #[test]
    fn registration_and_lookup() {
        let reg = registry();
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.table_ids(), vec![TableId::from("orders"), TableId::from("users")]);
        assert!(reg.get(&"orders".into()).is_some());
        assert!(reg.get(&"ghost".into()).is_none());
        let removed = reg.remove(&"users".into()).expect("registered");
        assert_eq!(removed.shard_count(), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn per_table_isolation() {
        let reg = registry();
        let orders: TableId = "orders".into();
        let users: TableId = "users".into();
        let pred = Predicate::new().range(0, 0.0, 5.0).range(1, 0.0, 5.0);
        // Feedback to `orders` moves `orders` only.
        let rect = pred.to_rect(reg.get(&orders).unwrap().domain());
        reg.observe(&orders, &ObservedQuery::new(rect, 0.9));
        assert!(reg.version(&orders) > 0);
        assert_eq!(reg.version(&users), 0);
        assert!((reg.estimate(&orders, &pred) - 0.9).abs() < 0.05);
        // `users` still answers from its uniform prior (0.25% of a
        // 100×100 domain for the 5×5 probe).
        assert!((reg.estimate(&users, &pred) - 0.0025).abs() < 1e-9);
    }

    #[test]
    fn stats_aggregate_across_tables() {
        let reg = registry();
        let orders: TableId = "orders".into();
        for i in 0..6 {
            let lo = (i % 3) as f64;
            let rect = Rect::from_bounds(&[(lo, lo + 2.0), (lo, lo + 2.0)]);
            reg.observe(&orders, &ObservedQuery::new(rect, 0.3));
        }
        let stats = reg.stats();
        assert_eq!(stats.tables, 2);
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.total.queries_ingested, 6);
        assert_eq!(stats.per_table.len(), 2);
        assert_eq!(stats.per_table[0].0, orders);
        assert_eq!(stats.per_table[0].1.total.queries_ingested, 6);
        assert_eq!(stats.per_table[1].1.total.queries_ingested, 0);
    }

    /// Satellite for the replication PR: a base directory holding a mix
    /// of healthy and corrupt table dirs. The corrupt one is skipped and
    /// counted — in the report AND in `RegistryStats.recovery_skipped` —
    /// while every healthy table recovers bit-exact.
    #[test]
    fn recovery_skips_corrupt_tables_and_restores_healthy_ones_exactly() {
        use quicksel_persist::DurabilityOptions;

        let base = std::env::temp_dir()
            .join(format!("quicksel-registry-mixed-recovery-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).expect("create scratch dir");

        let reg = EstimatorRegistry::new();
        let names = ["healthy_a", "healthy_b", "doomed"];
        for name in names {
            let d = Domain::of_reals(&[("a", 0.0, 10.0), ("b", 0.0, 10.0)]);
            reg.register_durable(&base, name, d.clone(), 2, DurabilityOptions::default(), |i| {
                QuickSel::builder(d.clone())
                    .refine_policy(RefinePolicy::Manual)
                    .seed(i as u64)
                    .build()
            })
            .expect("register durable table");
        }
        let probe = Rect::from_bounds(&[(1.0, 6.0), (2.0, 7.0)]);
        for (i, name) in names.iter().enumerate() {
            for j in 0..4 {
                let lo = (i * 4 + j) as f64 * 0.5;
                let rect = Rect::from_bounds(&[(lo, lo + 2.0), (lo, lo + 3.0)]);
                reg.observe(&TableId::from(*name), &ObservedQuery::new(rect, 0.1 * (j + 1) as f64));
            }
        }
        reg.checkpoint_all().expect("checkpoint");
        let healthy_before: Vec<f64> = ["healthy_a", "healthy_b"]
            .iter()
            .map(|n| reg.estimate(&TableId::from(*n), &Predicate::new().range(0, 1.0, 6.0)))
            .collect();
        let expected_a = reg
            .get(&TableId::from("healthy_a"))
            .unwrap()
            .estimate_many(std::slice::from_ref(&probe));
        drop(reg);

        // Scribble over the doomed table's meta: magic intact is not
        // enough — the file body no longer checksums.
        let meta = table_dir(&base, &TableId::from("doomed")).join(TABLE_META_FILE);
        assert!(meta.exists(), "meta file must exist before corruption");
        fs::write(&meta, b"QSTM garbage that will not verify").expect("corrupt meta");

        let d = Domain::of_reals(&[("a", 0.0, 10.0), ("b", 0.0, 10.0)]);
        let (recovered, report) =
            EstimatorRegistry::recover_from(&base, DurabilityOptions::default(), |_, _, shard| {
                QuickSel::builder(d.clone())
                    .refine_policy(RefinePolicy::Manual)
                    .seed(shard as u64)
                    .build()
            })
            .expect("mixed recovery must not be fatal");

        assert_eq!(report.tables_recovered, 2, "both healthy tables recover");
        assert_eq!(report.tables_skipped, 1, "the corrupt table is skipped, not fatal");
        assert_eq!(recovered.stats().recovery_skipped, 1, "skip is visible in stats");
        assert_eq!(
            recovered.table_ids(),
            vec![TableId::from("healthy_a"), TableId::from("healthy_b")]
        );

        // Healthy tables are bit-exact with their pre-crash state.
        let healthy_after: Vec<f64> = ["healthy_a", "healthy_b"]
            .iter()
            .map(|n| recovered.estimate(&TableId::from(*n), &Predicate::new().range(0, 1.0, 6.0)))
            .collect();
        assert_eq!(healthy_after, healthy_before, "recovery changed a healthy table");
        assert_eq!(
            recovered.get(&TableId::from("healthy_a")).unwrap().estimate_many(&[probe]),
            expected_a
        );

        let _ = fs::remove_dir_all(&base);
    }
}
