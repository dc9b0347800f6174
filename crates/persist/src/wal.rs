//! Per-shard write-ahead log of observed feedback between checkpoints.
//!
//! Layout: a shard directory holds segments named
//! `wal-<first_seq:020>.qsl`. Each segment starts with a fixed header
//! (magic, version, the first sequence number it may contain, header
//! CRC) followed by CRC-framed records:
//!
//! ```text
//! segment: QSWL version:u16 first_seq:u64 crc:u32 │ record*
//! record:  len:u32 crc:u32 payload[len]
//! payload: first_seq:u64 count:u32 (ObservedQuery wire encoding)×count
//! ```
//!
//! One record per ingested **batch** — replay preserves the original
//! batch boundaries, which matters because the learner's refine cadence
//! (and hence its exact numeric state) depends on them. Sequence numbers
//! are 1-based and label individual rows; a record covers
//! `[first_seq, first_seq + count)`.
//!
//! **Torn-tail tolerance.** A crash can truncate the final record
//! mid-write. The reader stops at the first short read or CRC mismatch
//! and reports how many bytes it ignored — that is recovery data loss of
//! rows that were never acknowledged as ingested under a checkpoint, not
//! corruption of ones that were. Everything before the torn tail is
//! CRC-verified and replayable.

use crate::format::{crc32, PutBytes, Reader};
use crate::PersistError;
use quicksel_data::ObservedQuery;
use quicksel_fault::{FaultPlan, IoFault, IoOp};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic of a WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"QSWL";
/// The WAL segment format version; a segment stamped with any other is
/// refused.
pub const WAL_VERSION: u16 = 1;

/// Fixed segment header size: magic + version + first_seq + crc.
const SEGMENT_HEADER: usize = 4 + 2 + 8 + 4;

/// Segment file extension.
const SEGMENT_EXT: &str = "qsl";

/// The file name of the segment whose first row is `first_seq`.
pub fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.{SEGMENT_EXT}")
}

/// Parses `first_seq` back out of a segment file name.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    rest.parse().ok()
}

/// Lists a directory's WAL segments as `(first_seq, path)`, ascending.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// One replayable WAL record: a feedback batch and the sequence number
/// of its first row.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Sequence number of the first row in this batch (rows are
    /// numbered consecutively from it).
    pub first_seq: u64,
    /// The batch, in its original ingest order.
    pub queries: Vec<ObservedQuery>,
}

/// The result of reading one segment.
#[derive(Debug)]
pub struct SegmentRead {
    /// The segment's declared first sequence number.
    pub first_seq: u64,
    /// Fully CRC-verified records, in write order.
    pub records: Vec<WalRecord>,
    /// Bytes ignored at the tail (torn final record); 0 on a clean
    /// segment.
    pub truncated_bytes: u64,
}

/// Appends feedback batches to the current segment, rotating to a new
/// file once the configured size is exceeded. Writes are flushed (but
/// not fsynced) per batch; the caller owning the learner lock serializes
/// all access.
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    segment_bytes: u64,
    written: u64,
    next_seq: u64,
    sync_each_batch: bool,
    bytes_logged: u64,
    /// The fault-injection seam; disabled by default (one branch per
    /// operation, nothing else).
    fault: FaultPlan,
    /// Set when the active segment holds a torn tail that could not be
    /// rolled back (a simulated or real crash-mid-write). Appending past
    /// a tear would hide the new record from the reader, so appends are
    /// refused until [`rotate`](Self::rotate) starts a clean segment.
    dirty: bool,
}

impl WalWriter {
    /// Opens a **fresh** segment in `dir` starting at `next_seq`. Always
    /// starts a new file rather than appending to an existing one — after
    /// a crash the previous segment may end in a torn record, and
    /// appending past a tear would hide valid records behind it from the
    /// reader.
    pub fn open(
        dir: &Path,
        next_seq: u64,
        segment_bytes: u64,
        sync_each_batch: bool,
    ) -> Result<Self, PersistError> {
        Self::open_with_faults(dir, next_seq, segment_bytes, sync_each_batch, FaultPlan::disabled())
    }

    /// [`open`](Self::open) with a fault-injection plan threaded through
    /// every subsequent IO operation (segment opens, appends, rotations).
    pub fn open_with_faults(
        dir: &Path,
        next_seq: u64,
        segment_bytes: u64,
        sync_each_batch: bool,
        fault: FaultPlan,
    ) -> Result<Self, PersistError> {
        fs::create_dir_all(dir)?;
        let file = Self::start_segment(dir, next_seq, &fault)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            file,
            segment_bytes: segment_bytes.max(SEGMENT_HEADER as u64 + 1),
            written: SEGMENT_HEADER as u64,
            next_seq,
            sync_each_batch,
            bytes_logged: 0,
            fault,
            dirty: false,
        })
    }

    fn start_segment(dir: &Path, first_seq: u64, fault: &FaultPlan) -> Result<File, PersistError> {
        let mut header = Vec::with_capacity(SEGMENT_HEADER);
        header.put_bytes(&WAL_MAGIC);
        header.put_u16(WAL_VERSION);
        header.put_u64(first_seq);
        let crc = crc32(&header);
        header.put_u32(crc);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(segment_name(first_seq)))?;
        match fault.io(IoOp::WalOpen, header.len()) {
            None => {
                file.write_all(&header)?;
                file.flush()?;
            }
            Some(IoFault::Short { keep } | IoFault::Torn { keep }) => {
                // A torn header: the segment is unreadable, which recovery
                // treats as "never got past creation".
                let _ = file.write_all(&header[..keep.min(header.len())]);
                let _ = file.flush();
                return Err(FaultPlan::io_error(IoOp::WalOpen).into());
            }
            Some(IoFault::FlushError) => {
                let _ = file.write_all(&header);
                return Err(FaultPlan::io_error(IoOp::WalOpen).into());
            }
            Some(_) => return Err(FaultPlan::io_error(IoOp::WalOpen).into()),
        }
        Ok(file)
    }

    /// The sequence number the next appended row will receive (1-based).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total record bytes appended over this writer's lifetime.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes_logged
    }

    /// Logs one feedback batch as a single record, assigning its rows
    /// the next `batch.len()` sequence numbers. Returns the bytes
    /// written. Empty batches write nothing.
    ///
    /// **All-or-nothing**: on any failure — a real IO error or an
    /// injected one — the segment is rolled back to its pre-append
    /// length, so a refused batch leaves no bytes behind to replay. The
    /// one exception is a (simulated) crash mid-write
    /// ([`IoFault::Torn`]) or a failed rollback: the tear stays on disk
    /// for the reader's torn-tail tolerance, and the writer refuses
    /// further appends until [`rotate`](Self::rotate) succeeds.
    pub fn append_batch(&mut self, batch: &[ObservedQuery]) -> Result<u64, PersistError> {
        if batch.is_empty() {
            return Ok(0);
        }
        if self.dirty {
            return Err(PersistError::Io(std::io::Error::other(
                "wal segment holds a torn tail; rotation required before appending",
            )));
        }
        let mut payload = Vec::new();
        payload.put_u64(self.next_seq);
        payload.put_u32(batch.len() as u32);
        for q in batch {
            q.encode_into(&mut payload);
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc32(&payload));
        frame.put_bytes(&payload);
        match self.fault.io(IoOp::WalAppend, frame.len()) {
            None => {
                if let Err(e) = self.write_frame(&frame) {
                    self.rollback();
                    return Err(e.into());
                }
            }
            Some(IoFault::Short { keep }) => {
                let _ = self.file.write_all(&frame[..keep.min(frame.len())]);
                self.rollback();
                return Err(FaultPlan::io_error(IoOp::WalAppend).into());
            }
            Some(IoFault::Torn { keep }) => {
                // Simulated crash: the partial frame stays on disk.
                let _ = self.file.write_all(&frame[..keep.min(frame.len())]);
                let _ = self.file.flush();
                self.dirty = true;
                return Err(FaultPlan::io_error(IoOp::WalAppend).into());
            }
            Some(IoFault::FlushError) => {
                let _ = self.file.write_all(&frame);
                self.rollback();
                return Err(FaultPlan::io_error(IoOp::WalAppend).into());
            }
            Some(_) => return Err(FaultPlan::io_error(IoOp::WalAppend).into()),
        }
        self.next_seq += batch.len() as u64;
        self.written += frame.len() as u64;
        self.bytes_logged += frame.len() as u64;
        if self.written >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(frame.len() as u64)
    }

    fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.file.write_all(frame)?;
        self.file.flush()?;
        if self.sync_each_batch {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Truncates the segment back to its last known-good length after a
    /// failed append; a failed rollback marks the segment dirty so the
    /// tear is never appended past.
    fn rollback(&mut self) {
        let ok = self.file.set_len(self.written).is_ok()
            && self.file.seek(SeekFrom::Start(self.written)).is_ok();
        if !ok {
            self.dirty = true;
        }
    }

    /// Seals the current segment and starts a new one at the current
    /// sequence position. Also the recovery path out of a torn segment:
    /// a successful rotation leaves the tear behind in the sealed file
    /// (where the reader's tolerance handles it) and resumes clean.
    pub fn rotate(&mut self) -> Result<(), PersistError> {
        if !self.dirty {
            self.file.flush()?;
        }
        self.file = Self::start_segment(&self.dir, self.next_seq, &self.fault)?;
        self.written = SEGMENT_HEADER as u64;
        self.dirty = false;
        Ok(())
    }
}

/// Reads one segment, verifying the header strictly and the records
/// leniently: the first torn or corrupt record ends the read (its bytes
/// are counted, not replayed), because nothing after a tear can be
/// trusted to be framed correctly.
pub fn read_segment(path: &Path) -> Result<SegmentRead, PersistError> {
    read_segment_with(path, &FaultPlan::disabled())
}

/// [`read_segment`] with a fault seam over the raw bytes: injected
/// corruption flips a bit *after* the read, so the CRC machinery (not
/// the injector) decides what survives.
pub fn read_segment_with(path: &Path, fault: &FaultPlan) -> Result<SegmentRead, PersistError> {
    let mut bytes = fs::read(path)?;
    match fault.io(IoOp::WalRead, bytes.len()) {
        None => {}
        Some(IoFault::Corrupt { offset }) if !bytes.is_empty() => {
            let at = offset % bytes.len();
            bytes[at] ^= 1 << (offset % 8);
        }
        Some(_) => return Err(FaultPlan::io_error(IoOp::WalRead).into()),
    }
    if bytes.len() < SEGMENT_HEADER {
        return Err(PersistError::Truncated { context: "wal segment header" });
    }
    let mut r = Reader::new(&bytes);
    let magic = r.bytes(4, "wal magic")?;
    if magic != WAL_MAGIC {
        return Err(PersistError::BadMagic {
            expected: WAL_MAGIC,
            found: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let version = r.u16("wal version")?;
    if version != WAL_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version, supported: WAL_VERSION });
    }
    let first_seq = r.u64("wal first seq")?;
    let stored_crc = r.u32("wal header crc")?;
    if crc32(&bytes[..SEGMENT_HEADER - 4]) != stored_crc {
        return Err(PersistError::CorruptChecksum { section: WAL_MAGIC });
    }

    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER;
    let mut expected_seq = first_seq;
    while pos < bytes.len() {
        let Some(rec) = try_read_record(&bytes[pos..]) else { break };
        let (record, consumed) = rec;
        // Sequence numbers must be contiguous within a segment; a gap
        // means framing drifted even though a CRC happened to pass.
        if record.first_seq != expected_seq {
            break;
        }
        expected_seq += record.queries.len() as u64;
        pos += consumed;
        records.push(record);
    }
    Ok(SegmentRead { first_seq, records, truncated_bytes: (bytes.len() - pos) as u64 })
}

/// Attempts to decode one record from `bytes`; `None` on anything short,
/// corrupt, or structurally impossible (the torn-tail stop condition).
fn try_read_record(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let payload = bytes.get(8..8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let first_seq = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let count = u32::from_le_bytes(payload.get(8..12)?.try_into().ok()?) as usize;
    let mut queries = Vec::with_capacity(count.min(payload.len()));
    let mut pos = 12;
    for _ in 0..count {
        let (q, consumed) = ObservedQuery::decode_from(&payload[pos..])?;
        queries.push(q);
        pos += consumed;
    }
    if pos != payload.len() || queries.is_empty() {
        return None;
    }
    Some((WalRecord { first_seq, queries }, 8 + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksel_geometry::Rect;

    fn batch(lo: f64, n: usize) -> Vec<ObservedQuery> {
        (0..n)
            .map(|i| {
                let l = lo + i as f64;
                ObservedQuery::new(Rect::from_bounds(&[(l, l + 1.0), (0.0, 2.0)]), 0.25)
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quicksel-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn batches_round_trip_with_batch_boundaries_preserved() {
        let dir = tmpdir("roundtrip");
        let mut w = WalWriter::open(&dir, 1, 1 << 20, false).unwrap();
        w.append_batch(&batch(0.0, 3)).unwrap();
        w.append_batch(&batch(10.0, 1)).unwrap();
        w.append_batch(&batch(20.0, 5)).unwrap();
        assert_eq!(w.next_seq(), 10);

        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        let read = read_segment(&segs[0].1).unwrap();
        assert_eq!(read.truncated_bytes, 0);
        assert_eq!(read.records.len(), 3);
        assert_eq!(read.records[0].first_seq, 1);
        assert_eq!(read.records[0].queries.len(), 3);
        assert_eq!(read.records[1].first_seq, 4);
        assert_eq!(read.records[2].first_seq, 5);
        assert_eq!(read.records[2].queries, batch(20.0, 5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_at_the_size_threshold() {
        let dir = tmpdir("rotate");
        let mut w = WalWriter::open(&dir, 1, 200, false).unwrap();
        for i in 0..6 {
            w.append_batch(&batch(i as f64 * 100.0, 2)).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "expected rotation, got {} segment(s)", segs.len());
        // Every record lands in the segment whose range covers it, and
        // replaying all segments in order reproduces every batch.
        let mut seen = 0u64;
        for (first, path) in &segs {
            let read = read_segment(path).unwrap();
            assert_eq!(read.first_seq, *first);
            for rec in &read.records {
                assert_eq!(rec.first_seq, seen + 1);
                seen += rec.queries.len() as u64;
            }
        }
        assert_eq!(seen, 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_of_every_length_never_lose_a_preceding_record() {
        let dir = tmpdir("torn");
        let mut w = WalWriter::open(&dir, 1, 1 << 20, false).unwrap();
        let frame1 = w.append_batch(&batch(0.0, 2)).unwrap();
        w.append_batch(&batch(5.0, 2)).unwrap();
        let path = list_segments(&dir).unwrap().remove(0).1;
        let full = fs::read(&path).unwrap();
        // Where record 2 starts: the header plus record 1's frame.
        let after_first = SEGMENT_HEADER + frame1 as usize;
        assert_eq!(read_segment(&path).unwrap().records.len(), 2);

        // Any truncation point: never panics, never yields a partial
        // record, and record 1 survives any cut at or past `after_first`.
        for cut in SEGMENT_HEADER..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let read = read_segment(&path).unwrap();
            for rec in &read.records {
                assert_eq!(rec.queries.len(), 2, "partial record surfaced at cut {cut}");
            }
            if cut >= after_first {
                assert!(!read.records.is_empty(), "record 1 lost at cut {cut}");
            }
            if cut < full.len() {
                assert!(read.records.len() < 2, "torn record 2 replayed at cut {cut}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_record_stops_replay_at_the_corruption() {
        let dir = tmpdir("corrupt");
        let mut w = WalWriter::open(&dir, 1, 1 << 20, false).unwrap();
        w.append_batch(&batch(0.0, 2)).unwrap();
        w.append_batch(&batch(5.0, 2)).unwrap();
        let path = list_segments(&dir).unwrap().remove(0).1;
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // inside record 2's payload
        fs::write(&path, &bytes).unwrap();
        let read = read_segment(&path).unwrap();
        assert_eq!(read.records.len(), 1);
        assert!(read.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_corruption_is_a_hard_error() {
        let dir = tmpdir("hdr");
        let w = WalWriter::open(&dir, 7, 1 << 20, false).unwrap();
        drop(w);
        let path = list_segments(&dir).unwrap().remove(0).1;
        let mut bytes = fs::read(&path).unwrap();
        bytes[6] ^= 0x01; // first_seq field
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_segment(&path), Err(PersistError::CorruptChecksum { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}
