//! # quicksel-persist — durable estimator state
//!
//! A learned selectivity estimator is expensive state: it distills the
//! entire query-feedback history of a table, and losing it on restart
//! means serving from the uniform prior until the workload re-teaches
//! the model. This crate makes that state durable with the classic
//! checkpoint + write-ahead-log pair, specialized to QuickSel's
//! exactness discipline:
//!
//! * [`format`](mod@format) — a versioned, checksummed, dependency-free container
//!   (magic, format version, CRC32-framed sections) shared by every
//!   artifact.
//! * [`codec`] — byte-exact serialization of a full
//!   [`QuickSelState`](quicksel_core::QuickSelState) capture: observed
//!   queries, workload points, model, RNG mid-stream state, and the
//!   incremental trainer's sparse `A`, `Aᵀs` and Cholesky factor, so a
//!   recovered estimator resumes **warm** and estimates **bit-identically**.
//! * [`wal`] — a per-shard write-ahead log of feedback batches between
//!   checkpoints: CRC-framed records, size-based segment rotation, and a
//!   replay that tolerates a torn tail (a crash mid-write costs at most
//!   the torn record, which by WAL ordering was never ingested under a
//!   checkpoint).
//! * [`checkpoint`] — atomic rename-into-place checkpoints with sequence
//!   watermarks; WAL segments are pruned only once a checkpoint covers
//!   them, and replay skips anything at or below the watermark, so a
//!   crash at *any* byte boundary neither loses a checkpointed row nor
//!   double-applies a replayed one.
//! * [`manifest`] — a path-sorted listing of a durability tree
//!   (meta + checkpoints + WAL segments) for checkpoint shipping: the
//!   tmp+rename discipline makes every named file safe to stream as
//!   raw bytes, so replicas mirror files and reuse the ordinary
//!   recovery path.
//!
//! The service layer (`quicksel-service`) wires these into its publish
//! loop; this crate owns only formats and files.

pub mod checkpoint;
pub mod codec;
pub mod format;
pub mod manifest;
pub mod wal;

pub use checkpoint::{CheckpointStats, DurabilityOptions, RecoveredShard, ShardDurability};
pub use codec::{
    decode_domain, decode_rect, decode_state, encode_domain, encode_rect, encode_state,
    STATE_MAGIC, STATE_VERSION,
};
pub use manifest::{resolve_manifest_path, scan_manifest, ManifestEntry, ManifestKind};
pub use wal::{SegmentRead, WalRecord, WalWriter};

use quicksel_core::{QuickSel, StateError};

/// Why a persistence operation failed. Every variant is a *returned*
/// error — corrupt or torn files must never panic the host process.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the expected magic — not ours, or
    /// overwritten.
    BadMagic {
        /// The magic this reader expected.
        expected: [u8; 4],
        /// What the file actually started with.
        found: [u8; 4],
    },
    /// The file's format version is not the one version this build
    /// reads for its kind of file.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u16,
        /// The one version this build reads.
        supported: u16,
    },
    /// A section's (or the header's) CRC32 did not match its contents.
    CorruptChecksum {
        /// The four-byte tag of the failing section (`HDR\0` for the
        /// container header).
        section: [u8; 4],
    },
    /// The buffer ended before the structure it claimed to hold.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// The bytes parsed but describe an impossible state (bad enum tag,
    /// inconsistent lengths, a capture rejected by semantic validation).
    Invalid {
        /// What was inconsistent.
        context: &'static str,
    },
    /// A required container section is absent.
    MissingSection {
        /// The missing section's tag.
        tag: [u8; 4],
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag_str = |t: &[u8; 4]| String::from_utf8_lossy(t).into_owned();
        match self {
            PersistError::Io(e) => write!(f, "persist i/o error: {e}"),
            PersistError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {:?}, found {:?}", tag_str(expected), tag_str(found))
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this build reads only {supported})")
            }
            PersistError::CorruptChecksum { section } => {
                write!(f, "checksum mismatch in section {:?}", tag_str(section))
            }
            PersistError::Truncated { context } => write!(f, "truncated while reading {context}"),
            PersistError::Invalid { context } => write!(f, "invalid persisted state: {context}"),
            PersistError::MissingSection { tag } => {
                write!(f, "missing required section {:?}", tag_str(tag))
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StateError> for PersistError {
    fn from(e: StateError) -> Self {
        match e {
            StateError::Invalid { context } => PersistError::Invalid { context },
        }
    }
}

/// A learner whose complete training state can round-trip through bytes.
///
/// The contract is **exact equivalence**: `load_state(save_state()?)`
/// must yield a learner that estimates bit-identically *and* evolves
/// bit-identically under any future feedback (same models, same RNG
/// stream, same warm/cold refine decisions). The checkpoint layer treats
/// the bytes as opaque; versioning and checksums live inside them.
pub trait PersistLearner: Sized {
    /// Serializes the learner's complete state.
    fn save_state(&self) -> Result<Vec<u8>, PersistError>;

    /// Rebuilds a learner from [`save_state`](Self::save_state) bytes,
    /// validating before constructing — corrupt input returns an error,
    /// never panics.
    fn load_state(bytes: &[u8]) -> Result<Self, PersistError>;
}

impl PersistLearner for QuickSel {
    fn save_state(&self) -> Result<Vec<u8>, PersistError> {
        Ok(encode_state(&self.export_state()))
    }

    fn load_state(bytes: &[u8]) -> Result<Self, PersistError> {
        let state = decode_state(bytes)?;
        Ok(QuickSel::try_from_state(state)?)
    }
}
