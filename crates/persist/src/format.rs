//! The on-disk container format: magic + version + checksummed sections.
//!
//! Every durable artifact (checkpoints, table metadata, the learner
//! capture itself) shares one container layout so the open path has a
//! single set of failure modes:
//!
//! ```text
//! magic[4]  version:u16  section_count:u16
//! ┌ per section ────────────────────────────┐
//! │ tag[4]  offset:u64  len:u64  crc32:u32  │   (offset into payload)
//! └─────────────────────────────────────────┘
//! header_crc32:u32                              (over everything above)
//! payload bytes …
//! ```
//!
//! The header CRC catches torn or garbled section tables before any
//! offset is trusted; each section carries its own CRC32 (IEEE), verified
//! on access, so a flipped bit in one section reports
//! [`PersistError::CorruptChecksum`] with the section named instead of
//! feeding garbage to a decoder. Unknown trailing sections are ignored,
//! which is what lets a newer writer add sections without breaking an
//! older reader within the same major `version`.

use crate::PersistError;

/// Slicing-by-16 lookup tables for [`crc32`]. `CRC_TABLES[0][b]` is the
/// CRC of the single byte `b`; `CRC_TABLES[k][b]` is that CRC advanced
/// through `k` further zero bytes, so the contributions of 16 input
/// bytes can be looked up independently and XORed together.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the ubiquitous
/// checksum zlib/gzip use, and the one checksum behind container
/// sections, WAL records and wire frames.
///
/// A slicing-by-16 kernel: each step XORs the running CRC into the next
/// 16 input bytes and folds them through the 16 lookup tables in
/// `CRC_TABLES` (16 KiB, computed by a `const fn` at compile time); a
/// byte-at-a-time loop over table 0 finishes the last `len % 16` bytes.
/// Its values are those of the classic one-table byte loop, so files and
/// frames written by one build verify on any other.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u32;
    for block in blocks {
        let mut block = *block;
        let head = u32::from_le_bytes([block[0], block[1], block[2], block[3]]) ^ crc;
        block[..4].copy_from_slice(&head.to_le_bytes());
        crc = 0;
        for (i, &b) in block.iter().enumerate() {
            crc ^= CRC_TABLES[15 - i][usize::from(b)];
        }
    }
    for &b in tail {
        crc = CRC_TABLES[0][usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// Little-endian primitive appenders used by every codec.
pub trait PutBytes {
    /// Appends raw bytes.
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Appends a `u16`, little-endian.
    fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — exact, including
    /// NaN payloads and signed zeros (round-trips are bit round-trips).
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.put_bytes(s.as_bytes());
    }
}

impl PutBytes for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A bounds-checked cursor over an encoded buffer. Every getter fails
/// with [`PersistError::Truncated`] instead of panicking — torn files
/// are an expected input, not a bug.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        self.take(n, context)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2, context)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` narrowed to `usize`, rejecting values that do not
    /// fit (a 32-bit host reading a 64-bit capture).
    pub fn usize(&mut self, context: &'static str) -> Result<usize, PersistError> {
        usize::try_from(self.u64(context)?)
            .map_err(|_| PersistError::Invalid { context: "length overflows usize" })
    }

    /// Reads a length field that will be used to allocate or slice, with
    /// a sanity bound: the decoded collection cannot have more elements
    /// than there are bytes left, so anything larger is corruption — and
    /// rejecting it here keeps a flipped length bit from attempting a
    /// multi-terabyte allocation.
    pub fn bounded_len(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, PersistError> {
        let n = self.usize(context)?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(PersistError::Truncated { context });
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a length-prefixed UTF-8 string (`u32` length, matching
    /// [`PutBytes::put_str`]).
    pub fn str(&mut self, context: &'static str) -> Result<String, PersistError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Invalid { context: "string is not UTF-8" })
    }
}

/// Fixed per-section table entry size: tag + offset + len + crc.
const SECTION_ENTRY: usize = 4 + 8 + 8 + 4;

/// Serializes sections into the container layout described in the module
/// docs. Section order is preserved; tags should be unique (lookup
/// returns the first match).
pub fn write_container(magic: [u8; 4], version: u16, sections: &[([u8; 4], &[u8])]) -> Vec<u8> {
    let header_len = 4 + 2 + 2 + sections.len() * SECTION_ENTRY;
    let payload_len: usize = sections.iter().map(|(_, b)| b.len()).sum();
    let mut out = Vec::with_capacity(header_len + 4 + payload_len);
    out.put_bytes(&magic);
    out.put_u16(version);
    out.put_u16(sections.len() as u16);
    let mut offset = 0u64;
    for (tag, bytes) in sections {
        out.put_bytes(tag);
        out.put_u64(offset);
        out.put_u64(bytes.len() as u64);
        out.put_u32(crc32(bytes));
        offset += bytes.len() as u64;
    }
    let header_crc = crc32(&out);
    out.put_u32(header_crc);
    for (_, bytes) in sections {
        out.put_bytes(bytes);
    }
    out
}

/// A parsed container header over a borrowed buffer; sections are
/// CRC-verified lazily on access.
pub struct Container<'a> {
    version: u16,
    entries: Vec<([u8; 4], usize, usize, u32)>,
    payload: &'a [u8],
}

impl<'a> Container<'a> {
    /// Parses and validates the header of `bytes`: magic, version range,
    /// structural bounds, header CRC.
    pub fn open(magic: [u8; 4], max_version: u16, bytes: &'a [u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        let found = r.bytes(4, "container magic")?;
        if found != magic {
            return Err(PersistError::BadMagic {
                expected: magic,
                found: [found[0], found[1], found[2], found[3]],
            });
        }
        let version = r.u16("container version")?;
        if version == 0 || version > max_version {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: max_version,
            });
        }
        let count = r.u16("section count")? as usize;
        let header_len = 4 + 2 + 2 + count * SECTION_ENTRY;
        if bytes.len() < header_len + 4 {
            return Err(PersistError::Truncated { context: "container header" });
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = r.bytes(4, "section tag")?;
            let offset = r.usize("section offset")?;
            let len = r.usize("section length")?;
            let crc = r.u32("section crc")?;
            entries.push(([tag[0], tag[1], tag[2], tag[3]], offset, len, crc));
        }
        let stored_crc = r.u32("header crc")?;
        if crc32(&bytes[..header_len]) != stored_crc {
            return Err(PersistError::CorruptChecksum { section: *b"HDR\0" });
        }
        let payload = &bytes[header_len + 4..];
        for &(_, offset, len, _) in &entries {
            if offset.checked_add(len).is_none_or(|end| end > payload.len()) {
                return Err(PersistError::Truncated { context: "section payload" });
            }
        }
        Ok(Self { version, entries, payload })
    }

    /// The container's format version.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Returns a section's bytes, verifying its CRC.
    pub fn section(&self, tag: [u8; 4]) -> Result<&'a [u8], PersistError> {
        let &(_, offset, len, crc) = self
            .entries
            .iter()
            .find(|&&(t, ..)| t == tag)
            .ok_or(PersistError::MissingSection { tag })?;
        let bytes = &self.payload[offset..offset + len];
        if crc32(bytes) != crc {
            return Err(PersistError::CorruptChecksum { section: tag });
        }
        Ok(bytes)
    }

    /// Like [`section`](Self::section) but `Ok(None)` when absent — for
    /// optional sections (e.g. a trainer capture before any refine).
    pub fn section_opt(&self, tag: [u8; 4]) -> Result<Option<&'a [u8]>, PersistError> {
        match self.section(tag) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(PersistError::MissingSection { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, byte-at-a-time CRC32 loop the slicing-by-16 kernel
    /// replaced, kept as the oracle it must equal.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                    k += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        };
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// A fixed xorshift byte stream, so failures reproduce.
    fn pseudo_random_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_byte_loop_at_every_length_and_alignment() {
        let buf = pseudo_random_bytes(16 + 1024);
        for start in 0..16 {
            for len in 0..=1024 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_reference(bytes), "start {start}, len {len}");
            }
        }
        let big = pseudo_random_bytes(4 << 20);
        assert_eq!(crc32(&big), crc32_reference(&big));
    }

    /// A container image captured from the byte-loop implementation.
    /// Files and wire frames written by one build must read on another,
    /// so any change to the checksum or the layout has to fail here.
    #[test]
    fn container_image_is_pinned_byte_for_byte() {
        const PINNED: [u8; 89] = [
            0x51, 0x53, 0x50, 0x4E, 0x02, 0x00, 0x02, 0x00, 0x41, 0x41, 0x41, 0x41, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x7E, 0xF6, 0xFF, 0xAC, 0x42, 0x42, 0x42, 0x42, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x15, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xEC, 0xC5, 0x18, 0x76,
            0x25, 0x83, 0xA9, 0x5B, 0x71, 0x75, 0x69, 0x63, 0x6B, 0x73, 0x65, 0x6C, 0x5A, 0x7F,
            0x10, 0x35, 0xCE, 0xE3, 0x84, 0x59, 0x72, 0x17, 0x28, 0xCD, 0xE6, 0xBB, 0x5C, 0x71,
            0x0A, 0x2F, 0xC0, 0xE5, 0xBE,
        ];
        let payload: Vec<u8> = (0u8..21).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let image = write_container(*b"QSPN", 2, &[(*b"AAAA", b"quicksel"), (*b"BBBB", &payload)]);
        assert_eq!(image, PINNED);
        let c = Container::open(*b"QSPN", 2, &PINNED).unwrap();
        assert_eq!(c.section(*b"AAAA").unwrap(), b"quicksel");
        assert_eq!(c.section(*b"BBBB").unwrap(), &payload[..]);
    }

    #[test]
    fn container_round_trip() {
        let bytes =
            write_container(*b"TEST", 3, &[(*b"AAAA", &[1, 2, 3]), (*b"BBBB", &[4, 5, 6, 7])]);
        let c = Container::open(*b"TEST", 3, &bytes).unwrap();
        assert_eq!(c.version(), 3);
        assert_eq!(c.section(*b"AAAA").unwrap(), &[1, 2, 3]);
        assert_eq!(c.section(*b"BBBB").unwrap(), &[4, 5, 6, 7]);
        assert!(matches!(
            c.section(*b"ZZZZ"),
            Err(PersistError::MissingSection { tag }) if tag == *b"ZZZZ"
        ));
        assert!(c.section_opt(*b"ZZZZ").unwrap().is_none());
    }

    #[test]
    fn wrong_magic_and_version_reject() {
        let bytes = write_container(*b"TEST", 2, &[]);
        assert!(matches!(Container::open(*b"OTHR", 2, &bytes), Err(PersistError::BadMagic { .. })));
        assert!(matches!(
            Container::open(*b"TEST", 1, &bytes),
            Err(PersistError::UnsupportedVersion { found: 2, supported: 1 })
        ));
    }

    #[test]
    fn flipped_payload_bit_is_detected_on_access() {
        let mut bytes = write_container(*b"TEST", 1, &[(*b"AAAA", &[9u8; 16])]);
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        let c = Container::open(*b"TEST", 1, &bytes).unwrap();
        assert!(matches!(
            c.section(*b"AAAA"),
            Err(PersistError::CorruptChecksum { section }) if section == *b"AAAA"
        ));
    }

    #[test]
    fn flipped_header_bit_rejects_the_whole_container() {
        let mut bytes = write_container(*b"TEST", 1, &[(*b"AAAA", &[9u8; 16])]);
        bytes[9] ^= 0x40; // inside the section table
        assert!(matches!(
            Container::open(*b"TEST", 1, &bytes),
            Err(PersistError::CorruptChecksum { .. })
        ));
    }

    #[test]
    fn truncated_containers_reject_without_panicking() {
        let bytes = write_container(*b"TEST", 1, &[(*b"AAAA", &[9u8; 16])]);
        for cut in 0..bytes.len() {
            let _ = Container::open(*b"TEST", 1, &bytes[..cut]);
        }
    }

    #[test]
    fn oversized_length_field_rejects_instead_of_allocating() {
        let mut buf = Vec::new();
        buf.put_u64(u64::MAX);
        let mut r = Reader::new(&buf);
        assert!(r.bounded_len(8, "huge").is_err());
    }
}
