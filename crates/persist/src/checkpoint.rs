//! Crash-recovering checkpoints over the WAL: atomic snapshots of a
//! shard's learner plus watermark bookkeeping that keeps replay exact.
//!
//! A shard directory looks like:
//!
//! ```text
//! shard-000/
//!   checkpoint-00000000000000000003.qsc   (newest wins; last few kept)
//!   checkpoint-00000000000000000002.qsc
//!   wal-00000000000000000121.qsl          (rows 121…)
//! ```
//!
//! **Invariants** that make crash recovery lossless and replay
//! idempotent, at every byte boundary a crash can land on:
//!
//! 1. A batch is WAL-logged *before* it is fed to the learner, under the
//!    same lock. A crash after the log but before the ingest replays the
//!    batch — identical outcome; a crash before the log loses a batch
//!    that was never acknowledged.
//! 2. A checkpoint is taken under that lock too, so the captured learner
//!    state covers exactly the rows with `seq ≤ watermark`
//!    (`watermark = next_seq − 1` at capture time).
//! 3. Checkpoints are written to a temp file and atomically renamed into
//!    place: a crash mid-write leaves a `.tmp` (ignored) and the previous
//!    checkpoint intact.
//! 4. WAL segments are pruned only *after* the rename, and only segments
//!    whose rows are all `≤ watermark`. A crash between rename and prune
//!    leaves covered segments behind — harmless, because replay skips
//!    every record at or below the recovered watermark (no double-apply).
//! 5. Recovery scans checkpoints newest-first and skips corrupt ones
//!    (counted), falling back to older state plus a longer WAL replay —
//!    torn checkpoints degrade recovery time, never correctness.

use crate::format::{write_container, Container, PutBytes, Reader};
use crate::wal::{self, WalWriter};
use crate::PersistError;
use quicksel_data::ObservedQuery;
use quicksel_fault::{FaultPlan, IoFault, IoOp};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic of a checkpoint container.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"QSCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

const SEC_META: [u8; 4] = *b"META";
const SEC_LEARNER: [u8; 4] = *b"LRNR";
const CHECKPOINT_EXT: &str = "qsc";
/// WAL segment rotation threshold, in bytes.
const SEGMENT_BYTES: u64 = 4 << 20;

/// Tuning knobs for a shard's durability pipeline.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Rows ingested since the last checkpoint that trigger a new one.
    pub checkpoint_rows: u64,
    /// Wall-clock interval after which pending rows trigger a checkpoint
    /// even below the row threshold.
    pub checkpoint_interval: Duration,
    /// How many finished checkpoints to keep (≥ 1); older ones are
    /// deleted after each successful write.
    pub keep_checkpoints: usize,
    /// `fsync` the WAL after every batch. Off by default: process
    /// crashes (the common failure) never lose flushed writes, only
    /// whole-machine crashes can, and per-batch fsync costs an order of
    /// magnitude in ingest latency.
    pub sync_wal: bool,
    /// Consecutive persist failures that flip a shard from healthy to
    /// degraded (read-only) serving.
    pub degrade_after: u32,
    /// Initial delay before a degraded shard write-probes its directory
    /// to re-arm; doubles per failed probe.
    pub probe_backoff: Duration,
    /// Upper bound on the probe backoff.
    pub probe_backoff_max: Duration,
    /// Deterministic fault-injection plan threaded through every durable
    /// IO operation this shard performs. Disabled by default: the only
    /// cost on the no-fault path is one `Option` branch per operation.
    pub fault: FaultPlan,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            checkpoint_rows: 4096,
            checkpoint_interval: Duration::from_secs(60),
            keep_checkpoints: 2,
            sync_wal: false,
            degrade_after: 3,
            probe_backoff: Duration::from_millis(100),
            probe_backoff_max: Duration::from_secs(5),
            fault: FaultPlan::disabled(),
        }
    }
}

/// Counters describing a shard's durability activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints successfully written (lifetime, restored across
    /// recoveries).
    pub checkpoints_written: u64,
    /// WAL record bytes appended by this process.
    pub wal_bytes: u64,
}

/// What recovery found in a shard directory.
#[derive(Debug)]
pub struct RecoveredShard {
    /// The newest valid checkpoint's learner bytes, if any checkpoint
    /// survived.
    pub learner_bytes: Option<Vec<u8>>,
    /// The service counter array saved with that checkpoint (empty when
    /// starting fresh).
    pub counters: Vec<u64>,
    /// Highest sequence number the checkpoint covers (0 = none).
    pub watermark: u64,
    /// WAL batches with rows **above** the watermark, in ingest order —
    /// exactly the feedback to replay.
    pub batches: Vec<Vec<ObservedQuery>>,
    /// Rows contained in `batches`.
    pub replayed_rows: u64,
    /// Bytes ignored across torn WAL tails.
    pub truncated_wal_bytes: u64,
    /// Corrupt or unreadable checkpoints skipped before one loaded (or
    /// before falling back to fresh state).
    pub checkpoints_skipped: u64,
}

/// Owns one shard's durable files: the active WAL writer plus
/// checkpoint bookkeeping. All methods take `&mut self`; the service
/// serializes calls under its learner lock.
pub struct ShardDurability {
    dir: PathBuf,
    opts: DurabilityOptions,
    wal: WalWriter,
    /// Ordinal the next checkpoint file will use.
    next_ordinal: u64,
    /// Highest sequence number covered by a finished checkpoint.
    watermark: u64,
    checkpoints_written: u64,
}

impl ShardDurability {
    /// Creates a fresh shard directory (or reuses an empty one): WAL at
    /// sequence 1, no checkpoints.
    pub fn create(dir: &Path, opts: DurabilityOptions) -> Result<Self, PersistError> {
        fs::create_dir_all(dir)?;
        let wal =
            WalWriter::open_with_faults(dir, 1, SEGMENT_BYTES, opts.sync_wal, opts.fault.clone())?;
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            wal,
            next_ordinal: 1,
            watermark: 0,
            checkpoints_written: 0,
        })
    }

    /// Recovers a shard directory: loads the newest valid checkpoint,
    /// reads the WAL tail above its watermark, and opens a fresh WAL
    /// segment positioned after everything found. The caller feeds
    /// [`RecoveredShard::batches`] back through its normal ingest path
    /// (without re-logging) to finish recovery.
    pub fn recover(
        dir: &Path,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveredShard), PersistError> {
        fs::create_dir_all(dir)?;

        // Newest-first checkpoint scan; corrupt ones are skipped, not fatal.
        let mut checkpoints = list_checkpoints(dir)?;
        checkpoints.sort_unstable_by_key(|&(ord, _)| std::cmp::Reverse(ord));
        let mut skipped = 0u64;
        let mut loaded: Option<(u64, CheckpointMeta, Vec<u8>)> = None;
        for (ordinal, path) in &checkpoints {
            match load_checkpoint_with(path, &opts.fault) {
                Ok((meta, learner)) => {
                    loaded = Some((*ordinal, meta, learner));
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let (max_ordinal, meta, learner_bytes) = match loaded {
            Some((ord, meta, learner)) => (ord, Some(meta), Some(learner)),
            None => (checkpoints.first().map_or(0, |&(ord, _)| ord), None, None),
        };
        let watermark = meta.as_ref().map_or(0, |m| m.watermark);

        // Replay the WAL above the watermark, preserving batch boundaries.
        let mut batches = Vec::new();
        let mut replayed_rows = 0u64;
        let mut truncated = 0u64;
        let mut next_seq = watermark + 1;
        for (_, path) in wal::list_segments(dir)? {
            let read = match wal::read_segment_with(&path, &opts.fault) {
                Ok(read) => read,
                // An unreadable segment header means the file never got
                // past creation; nothing in it was acknowledged.
                Err(_) => continue,
            };
            truncated += read.truncated_bytes;
            for rec in read.records {
                let end = rec.first_seq + rec.queries.len() as u64;
                // Records are logged and checkpointed at batch
                // boundaries, so each is entirely covered or entirely
                // uncovered; `end > watermark + 1` would mean a record
                // straddles the watermark, which the write path cannot
                // produce — skip such a record defensively.
                if rec.first_seq <= watermark {
                    continue;
                }
                // Duplicate coverage across segments (a pre-crash prune
                // that never finished) replays in order; seq tracking
                // drops anything already seen.
                if rec.first_seq < next_seq {
                    continue;
                }
                replayed_rows += rec.queries.len() as u64;
                next_seq = end;
                batches.push(rec.queries);
            }
        }

        let wal = WalWriter::open_with_faults(
            dir,
            next_seq,
            SEGMENT_BYTES,
            opts.sync_wal,
            opts.fault.clone(),
        )?;
        let this = Self {
            dir: dir.to_path_buf(),
            opts,
            wal,
            next_ordinal: max_ordinal + 1,
            watermark,
            checkpoints_written: meta.as_ref().map_or(0, |m| m.checkpoints_written),
        };
        let report = RecoveredShard {
            learner_bytes,
            counters: meta.map_or_else(Vec::new, |m| m.counters),
            watermark,
            batches,
            replayed_rows,
            truncated_wal_bytes: truncated,
            checkpoints_skipped: skipped,
        };
        Ok((this, report))
    }

    /// True when any checkpoint or WAL segment exists under `dir` — the
    /// create-or-recover decision point.
    pub fn exists(dir: &Path) -> bool {
        list_checkpoints(dir).map(|c| !c.is_empty()).unwrap_or(false)
            || wal::list_segments(dir).map(|s| !s.is_empty()).unwrap_or(false)
    }

    /// The shard's durability configuration.
    pub fn options(&self) -> &DurabilityOptions {
        &self.opts
    }

    /// Sequence number the next ingested row will receive.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Rows ingested since the last finished checkpoint.
    pub fn rows_since_checkpoint(&self) -> u64 {
        self.wal.next_seq() - 1 - self.watermark
    }

    /// Current durability counters.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            checkpoints_written: self.checkpoints_written,
            wal_bytes: self.wal.bytes_logged(),
        }
    }

    /// Logs one feedback batch ahead of ingestion; returns bytes written.
    pub fn log_batch(&mut self, batch: &[ObservedQuery]) -> Result<u64, PersistError> {
        self.wal.append_batch(batch)
    }

    /// Writes a checkpoint covering everything logged so far: the opaque
    /// learner capture plus the caller's counter array, to a temp file
    /// renamed into place. On success the WAL rotates and all fully
    /// covered segments are deleted.
    pub fn write_checkpoint(
        &mut self,
        learner_bytes: &[u8],
        counters: &[u64],
    ) -> Result<(), PersistError> {
        let watermark = self.wal.next_seq() - 1;
        let mut meta = Vec::new();
        meta.put_u64(watermark);
        meta.put_u64(self.checkpoints_written + 1);
        meta.put_u32(counters.len() as u32);
        for &c in counters {
            meta.put_u64(c);
        }
        let bytes = write_container(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            &[(SEC_META, &meta), (SEC_LEARNER, learner_bytes)],
        );

        let final_path = self.dir.join(checkpoint_name(self.next_ordinal));
        let tmp_path = final_path.with_extension("tmp");
        match self.opts.fault.io(IoOp::CheckpointWrite, bytes.len()) {
            None => fs::write(&tmp_path, &bytes)?,
            Some(IoFault::Short { keep } | IoFault::Torn { keep }) => {
                // Torn temp file, never renamed: recovery ignores it.
                let _ = fs::write(&tmp_path, &bytes[..keep.min(bytes.len())]);
                return Err(FaultPlan::io_error(IoOp::CheckpointWrite).into());
            }
            Some(IoFault::FlushError) => {
                // The bytes land but the flush "fails": a complete temp
                // file that never reaches the rename — exactly a crash
                // between write and rename.
                let _ = fs::write(&tmp_path, &bytes);
                return Err(FaultPlan::io_error(IoOp::CheckpointWrite).into());
            }
            Some(_) => return Err(FaultPlan::io_error(IoOp::CheckpointWrite).into()),
        }
        match self.opts.fault.io(IoOp::CheckpointRename, bytes.len()) {
            None => fs::rename(&tmp_path, &final_path)?,
            Some(_) => return Err(FaultPlan::io_error(IoOp::CheckpointRename).into()),
        }

        self.next_ordinal += 1;
        self.watermark = watermark;
        self.checkpoints_written += 1;

        // Past the rename, the checkpoint is durable: rotate the WAL so
        // a fresh segment starts above the watermark, then prune surplus
        // checkpoints and covered WAL segments. The WAL prunes against
        // the **oldest retained** checkpoint's watermark, not this one's:
        // recovery may have to fall back to that older checkpoint (if the
        // newest later proves corrupt), and it then needs the WAL tail
        // above *its* watermark. Rotation at every checkpoint guarantees
        // each watermark is a segment boundary, so `first_seq ≤ W` is
        // exactly "every row ≤ W". Prune failures are ignored: leftover
        // files only cost disk, and replay skips them by watermark.
        self.wal.rotate()?;
        if let Ok(mut checkpoints) = list_checkpoints(&self.dir) {
            checkpoints.sort_unstable_by_key(|&(ord, _)| std::cmp::Reverse(ord));
            for (_, path) in
                checkpoints.drain(self.opts.keep_checkpoints.max(1).min(checkpoints.len())..)
            {
                let _ = fs::remove_file(path);
            }
            // Oldest retained checkpoint; an unreadable one pins the WAL
            // (watermark 0) rather than risking a prune it cannot cover.
            let prune_below = checkpoints
                .last()
                .map_or(watermark, |(_, path)| read_checkpoint_watermark(path).unwrap_or(0));
            if let Ok(segments) = wal::list_segments(&self.dir) {
                // A segment's rows end where the next segment begins (the
                // active one ends at the writer's cursor). Judging
                // coverage by the *last* row, not just the first, keeps a
                // straddling segment — possible when an earlier rotation
                // failed and rows past the watermark landed in a segment
                // that starts below it — from being pruned with
                // unreplayed rows inside.
                for (i, (first_seq, path)) in segments.iter().enumerate() {
                    let last_row = segments
                        .get(i + 1)
                        .map_or(self.wal.next_seq() - 1, |&(next_first, _)| next_first - 1);
                    if *first_seq <= prune_below && last_row <= prune_below {
                        let _ = fs::remove_file(path);
                    }
                }
            }
        }
        Ok(())
    }

    /// Write-probes the shard directory: proves the disk accepts (and
    /// can remove) a small file again, then rotates the WAL so a torn
    /// tail left by a mid-write crash stops blocking appends. The
    /// degraded-mode re-arm path: a successful probe means ingest can be
    /// accepted again.
    pub fn probe(&mut self) -> Result<(), PersistError> {
        if self.opts.fault.io(IoOp::Probe, 0).is_some() {
            return Err(FaultPlan::io_error(IoOp::Probe).into());
        }
        let probe_path = self.dir.join("probe.tmp");
        fs::write(&probe_path, b"quicksel-probe")?;
        let _ = fs::remove_file(&probe_path);
        self.wal.rotate()
    }
}

/// The file name of checkpoint `ordinal`.
fn checkpoint_name(ordinal: u64) -> String {
    format!("checkpoint-{ordinal:020}.{CHECKPOINT_EXT}")
}

pub(crate) fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("checkpoint-")?.strip_suffix(&format!(".{CHECKPOINT_EXT}"))?;
    rest.parse().ok()
}

/// Lists checkpoint files as `(ordinal, path)`, unsorted.
fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(ord) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            out.push((ord, entry.path()));
        }
    }
    Ok(out)
}

/// Reads just the watermark from a checkpoint's META section; `None` on
/// any corruption (the caller treats that as "covers nothing").
pub(crate) fn read_checkpoint_watermark(path: &Path) -> Option<u64> {
    let bytes = fs::read(path).ok()?;
    let c = Container::open(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &bytes).ok()?;
    Reader::new(c.section(SEC_META).ok()?).u64("checkpoint watermark").ok()
}

struct CheckpointMeta {
    watermark: u64,
    checkpoints_written: u64,
    counters: Vec<u64>,
}

/// Loads a checkpoint with a fault seam over the raw bytes: injected
/// corruption flips a bit *after* the read, so the container's CRC
/// machinery (not the injector) decides what survives.
fn load_checkpoint_with(
    path: &Path,
    fault: &FaultPlan,
) -> Result<(CheckpointMeta, Vec<u8>), PersistError> {
    let mut bytes = fs::read(path)?;
    match fault.io(IoOp::CheckpointRead, bytes.len()) {
        None => {}
        Some(IoFault::Corrupt { offset }) if !bytes.is_empty() => {
            let at = offset % bytes.len();
            bytes[at] ^= 1 << (offset % 8);
        }
        Some(_) => return Err(FaultPlan::io_error(IoOp::CheckpointRead).into()),
    }
    let c = Container::open(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &bytes)?;
    let mut r = Reader::new(c.section(SEC_META)?);
    let watermark = r.u64("checkpoint watermark")?;
    let checkpoints_written = r.u64("checkpoint counter")?;
    let n = r.u32("service counter count")? as usize;
    let counters = (0..n).map(|_| r.u64("service counter")).collect::<Result<Vec<_>, _>>()?;
    let learner = c.section(SEC_LEARNER)?.to_vec();
    Ok((CheckpointMeta { watermark, checkpoints_written, counters }, learner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_geometry::Rect;

    fn batch(lo: f64, n: usize) -> Vec<ObservedQuery> {
        (0..n)
            .map(|i| {
                let l = lo + i as f64;
                ObservedQuery::new(Rect::from_bounds(&[(l, l + 1.0), (0.0, 2.0)]), 0.5)
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quicksel-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_then_recover_skips_covered_rows_and_replays_the_tail() {
        let dir = tmpdir("basic");
        let mut d = ShardDurability::create(&dir, DurabilityOptions::default()).unwrap();
        d.log_batch(&batch(0.0, 3)).unwrap();
        d.log_batch(&batch(10.0, 2)).unwrap();
        d.write_checkpoint(b"learner-v1", &[5, 2]).unwrap();
        d.log_batch(&batch(20.0, 4)).unwrap();
        drop(d);

        let (d, rec) = ShardDurability::recover(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(rec.watermark, 5);
        assert_eq!(rec.learner_bytes.as_deref(), Some(&b"learner-v1"[..]));
        assert_eq!(rec.counters, vec![5, 2]);
        assert_eq!(rec.batches.len(), 1, "only the post-checkpoint batch replays");
        assert_eq!(rec.batches[0], batch(20.0, 4));
        assert_eq!(rec.replayed_rows, 4);
        assert_eq!(rec.checkpoints_skipped, 0);
        assert_eq!(d.next_seq(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_directory_recovers_to_empty_state() {
        let dir = tmpdir("fresh");
        assert!(!ShardDurability::exists(&dir));
        let (d, rec) = ShardDurability::recover(&dir, DurabilityOptions::default()).unwrap();
        assert!(rec.learner_bytes.is_none());
        assert_eq!(rec.watermark, 0);
        assert!(rec.batches.is_empty());
        assert_eq!(d.next_seq(), 1);
        assert!(ShardDurability::exists(&dir), "recovery opened a WAL segment");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_the_previous_one() {
        let dir = tmpdir("fallback");
        let mut d = ShardDurability::create(&dir, DurabilityOptions::default()).unwrap();
        d.log_batch(&batch(0.0, 2)).unwrap();
        d.write_checkpoint(b"old", &[2]).unwrap();
        d.log_batch(&batch(10.0, 3)).unwrap();
        d.write_checkpoint(b"new", &[5]).unwrap();
        drop(d);

        // Flip a payload bit in the newest checkpoint.
        let newest = dir.join(checkpoint_name(2));
        let mut bytes = fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (_, rec) = ShardDurability::recover(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(rec.checkpoints_skipped, 1);
        assert_eq!(rec.learner_bytes.as_deref(), Some(&b"old"[..]));
        assert_eq!(rec.watermark, 2);
        // The rows the torn checkpoint claimed to cover replay from the
        // WAL instead — nothing checkpointed under "old" is lost…
        assert_eq!(rec.replayed_rows, 3);
        assert_eq!(rec.batches, vec![batch(10.0, 3)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keep_limit_prunes_old_checkpoints_and_covered_segments() {
        let dir = tmpdir("prune");
        let opts = DurabilityOptions { keep_checkpoints: 2, ..Default::default() };
        let mut d = ShardDurability::create(&dir, opts).unwrap();
        for i in 0..5 {
            d.log_batch(&batch(i as f64 * 50.0, 2)).unwrap();
            d.write_checkpoint(format!("v{i}").as_bytes(), &[]).unwrap();
        }
        let checkpoints = list_checkpoints(&dir).unwrap();
        assert_eq!(checkpoints.len(), 2);
        // WAL coverage matches the retained set: the segment above the
        // *oldest retained* watermark (rows 9–10, needed if recovery
        // falls back to checkpoint 4) plus the fresh one. Everything the
        // oldest retained checkpoint covers is gone.
        let segments = wal::list_segments(&dir).unwrap();
        assert_eq!(segments.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![9, 11]);
        assert_eq!(d.next_seq(), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_file_from_a_torn_write_is_ignored() {
        let dir = tmpdir("tmp");
        let mut d = ShardDurability::create(&dir, DurabilityOptions::default()).unwrap();
        d.log_batch(&batch(0.0, 2)).unwrap();
        d.write_checkpoint(b"good", &[]).unwrap();
        fs::write(dir.join("checkpoint-99999999999999999999.tmp"), b"torn garbage").unwrap();
        drop(d);
        let (_, rec) = ShardDurability::recover(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(rec.learner_bytes.as_deref(), Some(&b"good"[..]));
        assert_eq!(rec.checkpoints_skipped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
