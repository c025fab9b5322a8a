//! The `SFRZ` on-disk layout: header, section table, bounds-checked
//! cursor, and the image assembler.
//!
//! ```text
//! offset  size  field
//! 0       4     magic            b"SFRZ"
//! 4       2     format version   u16 LE   (FORMAT_VERSION)
//! 6       2     artifact kind    u16 LE   (1 framework, 2 corpus)
//! 8       8     checksum         u64 LE   FNV-1a over bytes[32..]
//! 16      8     source fingerprint u64 LE (framework: spec hash; corpus: 0)
//! 24      4     section count    u32 LE
//! 28      4     reserved         zero
//! 32      …     section table    count × 24 B (kind u32, reserved u32,
//!                                 offset u64, len u64 — all LE)
//! …       …     section payloads, each 8-byte aligned
//! ```
//!
//! All integers are little-endian and fixed-width except inside
//! varint-coded section payloads (LEB128, shared with the SAPK codec's
//! convention). Offsets are absolute image offsets. Every read path
//! goes through [`Cursor`] or [`Image::slice`], both of which bounds-
//! check before touching bytes — a corrupted table yields a typed
//! [`FrozenError`], never an out-of-bounds access.

use saint_adf::{fnv1a, FNV_OFFSET};

use crate::error::FrozenError;
use crate::mmap::MappedBytes;

/// Image magic.
pub const MAGIC: [u8; 4] = *b"SFRZ";

/// Bump this whenever the byte layout changes — the golden-file test
/// in `tests/frozen_golden.rs` pins layout-per-version.
pub const FORMAT_VERSION: u16 = 1;

/// Artifact kind tag: frozen framework model.
pub const KIND_FRAMEWORK: u16 = 1;
/// Artifact kind tag: frozen SAPK corpus.
pub const KIND_CORPUS: u16 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Bytes per section-table entry.
pub const SECTION_ENTRY_LEN: usize = 24;

/// Section kind tags.
pub mod section {
    /// API method lifetimes (varint-coded).
    pub const API_METHODS: u32 = 1;
    /// API class lifetimes (varint-coded).
    pub const API_CLASSES: u32 = 2;
    /// Framework superclass edges (varint-coded).
    pub const API_SUPERS: u32 = 3;
    /// Method → permissions map (varint-coded).
    pub const PERMISSIONS: u32 = 4;
    /// Raw name bytes referenced by index entries.
    pub const STR_BYTES: u32 = 5;
    /// Fixed-width `(level, class) → blob` offset table.
    pub const CLASS_INDEX: u32 = 6;
    /// Concatenated per-class SAPK blobs.
    pub const CLASS_BLOBS: u32 = 7;
    /// Fixed-width `package → container` offset table.
    pub const CORPUS_INDEX: u32 = 8;
    /// Concatenated SAPK containers.
    pub const CORPUS_BLOBS: u32 = 9;
}

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

// ---------------------------------------------------------------------
// Bounds-checked cursor over a byte slice
// ---------------------------------------------------------------------

/// A bounds-checked sequential reader. `base` is the absolute image
/// offset of the slice so error offsets point into the image, not the
/// section.
pub struct Cursor<'a> {
    input: &'a [u8],
    base: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `input`, reporting offsets relative to `base`.
    #[must_use]
    pub fn new(input: &'a [u8], base: usize) -> Self {
        Cursor {
            input,
            base,
            pos: 0,
        }
    }

    /// Absolute image offset of the next read.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.input.len()
    }

    fn eof(&self, context: &'static str) -> FrozenError {
        FrozenError::UnexpectedEof {
            offset: self.offset(),
            context,
        }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], FrozenError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.eof(context))?;
        let s = self
            .input
            .get(self.pos..end)
            .ok_or_else(|| self.eof(context))?;
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, FrozenError> {
        Ok(self.bytes(1, context)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16_le(&mut self, context: &'static str) -> Result<u16, FrozenError> {
        let b = self.bytes(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn u32_le(&mut self, context: &'static str) -> Result<u32, FrozenError> {
        let b = self.bytes(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64_le(&mut self, context: &'static str) -> Result<u64, FrozenError> {
        let b = self.bytes(8, context)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads a LEB128 varint with overflow detection.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, FrozenError> {
        let start = self.offset();
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(context)?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(FrozenError::VarintOverflow { offset: start });
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a varint as a usize length.
    pub fn len(&mut self, context: &'static str) -> Result<usize, FrozenError> {
        let v = self.varint(context)?;
        usize::try_from(v).map_err(|_| FrozenError::VarintOverflow {
            offset: self.offset(),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, FrozenError> {
        let n = self.len(context)?;
        let start = self.offset();
        let raw = self.bytes(n, context)?;
        std::str::from_utf8(raw).map_err(|_| FrozenError::InvalidUtf8 { offset: start })
    }
}

// ---------------------------------------------------------------------
// Varint/str writers (mirror the cursor)
// ---------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a length-prefixed string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Parsed image
// ---------------------------------------------------------------------

struct Section {
    kind: u32,
    start: usize,
    len: usize,
}

/// A verified frozen image: header parsed, checksum checked, every
/// section confirmed in-bounds. All queries borrow from the underlying
/// map — nothing is copied out until a caller decodes a blob.
pub struct Image {
    bytes: MappedBytes,
    sections: Vec<Section>,
    fingerprint: u64,
}

impl Image {
    /// Parses and verifies an image of the expected artifact kind.
    ///
    /// # Errors
    ///
    /// Any header, checksum, or section-bounds violation yields the
    /// corresponding [`FrozenError`]; no byte beyond the slice is ever
    /// touched.
    pub fn parse(bytes: MappedBytes, expected_kind: u16) -> Result<Self, FrozenError> {
        let data: &[u8] = &bytes;
        let mut c = Cursor::new(data, 0);
        let magic = c.bytes(4, "magic")?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(FrozenError::BadMagic { found });
        }
        let version = c.u16_le("format version")?;
        if version != FORMAT_VERSION {
            return Err(FrozenError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let kind = c.u16_le("artifact kind")?;
        if kind != expected_kind {
            return Err(FrozenError::WrongKind {
                found: kind,
                expected: expected_kind,
            });
        }
        let checksum = c.u64_le("checksum")?;
        let fingerprint = c.u64_le("source fingerprint")?;
        let count = c.u32_le("section count")? as usize;
        let _reserved = c.u32_le("reserved")?;
        // The section table must fit before any payload can.
        let table_len = count
            .checked_mul(SECTION_ENTRY_LEN)
            .ok_or(FrozenError::InvalidOffset {
                offset: HEADER_LEN,
                context: "section table size",
            })?;
        let payload_start =
            HEADER_LEN
                .checked_add(table_len)
                .ok_or(FrozenError::InvalidOffset {
                    offset: HEADER_LEN,
                    context: "section table size",
                })?;
        if payload_start > data.len() {
            return Err(FrozenError::UnexpectedEof {
                offset: HEADER_LEN,
                context: "section table",
            });
        }
        let found = fnv1a(&data[HEADER_LEN..], FNV_OFFSET);
        if found != checksum {
            return Err(FrozenError::BadChecksum {
                expected: checksum,
                found,
            });
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let entry_at = c.offset();
            let kind = c.u32_le("section kind")?;
            let _reserved = c.u32_le("section reserved")?;
            let start = c.u64_le("section offset")?;
            let len = c.u64_le("section length")?;
            let start = usize::try_from(start).map_err(|_| FrozenError::InvalidOffset {
                offset: entry_at,
                context: "section offset",
            })?;
            let len = usize::try_from(len).map_err(|_| FrozenError::InvalidOffset {
                offset: entry_at,
                context: "section length",
            })?;
            let end = start.checked_add(len).ok_or(FrozenError::InvalidOffset {
                offset: entry_at,
                context: "section extent",
            })?;
            if start < payload_start || end > data.len() {
                return Err(FrozenError::InvalidOffset {
                    offset: entry_at,
                    context: "section extent",
                });
            }
            sections.push(Section { kind, start, len });
        }
        Ok(Image {
            bytes,
            sections,
            fingerprint,
        })
    }

    /// The source fingerprint recorded at compile time.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total image size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty (it never is after `parse`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Whether the image is served by an actual page mapping.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    fn find(&self, kind: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// A whole section's payload.
    ///
    /// # Errors
    ///
    /// [`FrozenError::MissingSection`] when the image has no such
    /// section.
    pub fn section(&self, kind: u32) -> Result<(&[u8], usize), FrozenError> {
        let s = self
            .find(kind)
            .ok_or(FrozenError::MissingSection { kind })?;
        // In-bounds by parse-time validation.
        Ok((&self.bytes[s.start..s.start + s.len], s.start))
    }

    /// A slice at `(offset, len)` that must lie entirely inside the
    /// `kind` section — the bounds check for every offset-table follow.
    ///
    /// # Errors
    ///
    /// [`FrozenError::InvalidOffset`] when the range escapes the
    /// section, [`FrozenError::MissingSection`] when the section is
    /// absent.
    pub fn slice(
        &self,
        kind: u32,
        offset: u64,
        len: u64,
        context: &'static str,
    ) -> Result<&[u8], FrozenError> {
        let s = self
            .find(kind)
            .ok_or(FrozenError::MissingSection { kind })?;
        let offset = usize::try_from(offset).map_err(|_| FrozenError::InvalidOffset {
            offset: s.start,
            context,
        })?;
        let len = usize::try_from(len).map_err(|_| FrozenError::InvalidOffset {
            offset: s.start,
            context,
        })?;
        let end = offset
            .checked_add(len)
            .ok_or(FrozenError::InvalidOffset { offset, context })?;
        if offset < s.start || end > s.start + s.len {
            return Err(FrozenError::InvalidOffset { offset, context });
        }
        Ok(&self.bytes[offset..end])
    }
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Image")
            .field("len", &self.len())
            .field("sections", &self.sections.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Image assembly
// ---------------------------------------------------------------------

/// Computes the absolute payload offset of each section given the
/// ordered list of payload sizes: header, then table, then payloads in
/// order, each 8-byte aligned. Writers use this to fix up offset-table
/// entries *before* assembly.
#[must_use]
pub fn layout_offsets(sizes: &[usize]) -> Vec<usize> {
    let mut at = HEADER_LEN + sizes.len() * SECTION_ENTRY_LEN;
    let mut out = Vec::with_capacity(sizes.len());
    for &size in sizes {
        at = align8(at);
        out.push(at);
        at += size;
    }
    out
}

/// Assembles a complete image from ordered `(kind, payload)` sections,
/// writing the header checksum last. Deterministic: identical sections
/// yield identical bytes (the golden-file stability guarantee).
#[must_use]
pub fn assemble(kind: u16, fingerprint: u64, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let sizes: Vec<usize> = sections.iter().map(|(_, p)| p.len()).collect();
    let offsets = layout_offsets(&sizes);
    let total = offsets
        .last()
        .map_or(HEADER_LEN + sections.len() * SECTION_ENTRY_LEN, |&o| {
            o + sizes[sizes.len() - 1]
        });
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&[0u8; 8]); // checksum, patched below
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // reserved
    for (i, (kind, payload)) in sections.iter().enumerate() {
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&(offsets[i] as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    for (i, (_, payload)) in sections.iter().enumerate() {
        while out.len() < offsets[i] {
            out.push(0);
        }
        out.extend_from_slice(payload);
    }
    let checksum = fnv1a(&out[HEADER_LEN..], FNV_OFFSET);
    out[8..16].copy_from_slice(&checksum.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_image() -> Vec<u8> {
        assemble(
            KIND_FRAMEWORK,
            0xfeed,
            &[
                (section::STR_BYTES, b"hello".to_vec()),
                (section::CLASS_BLOBS, vec![1, 2, 3]),
            ],
        )
    }

    #[test]
    fn assemble_then_parse_round_trips() {
        let bytes = demo_image();
        let img = Image::parse(MappedBytes::from_vec(bytes), KIND_FRAMEWORK).unwrap();
        assert_eq!(img.fingerprint(), 0xfeed);
        let (strs, off) = img.section(section::STR_BYTES).unwrap();
        assert_eq!(strs, b"hello");
        assert_eq!(off % 8, 0, "sections are 8-byte aligned");
        let blob = img
            .slice(section::CLASS_BLOBS, (off + 8) as u64, 3, "blob")
            .map(<[u8]>::to_vec);
        // the second section starts 8-aligned after "hello"
        assert_eq!(blob.unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = demo_image();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let err = Image::parse(MappedBytes::from_vec(bytes), KIND_FRAMEWORK).unwrap_err();
        assert!(matches!(err, FrozenError::BadChecksum { .. }));
    }

    #[test]
    fn wrong_kind_rejected() {
        let bytes = demo_image();
        let err = Image::parse(MappedBytes::from_vec(bytes), KIND_CORPUS).unwrap_err();
        assert!(matches!(err, FrozenError::WrongKind { .. }));
    }

    #[test]
    fn version_bump_rejected() {
        let mut bytes = demo_image();
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        let err = Image::parse(MappedBytes::from_vec(bytes), KIND_FRAMEWORK).unwrap_err();
        assert!(matches!(err, FrozenError::UnsupportedVersion { .. }));
    }

    #[test]
    fn out_of_section_slice_rejected() {
        let bytes = demo_image();
        let img = Image::parse(MappedBytes::from_vec(bytes), KIND_FRAMEWORK).unwrap();
        let (_, off) = img.section(section::STR_BYTES).unwrap();
        // Reading past the section end is refused even though the image
        // itself is longer.
        let err = img
            .slice(section::STR_BYTES, off as u64, 6, "oob")
            .unwrap_err();
        assert!(matches!(err, FrozenError::InvalidOffset { .. }));
    }

    #[test]
    fn truncation_yields_typed_error_at_every_prefix() {
        let bytes = demo_image();
        for cut in 0..bytes.len() {
            assert!(
                Image::parse(MappedBytes::from_vec(bytes[..cut].to_vec()), KIND_FRAMEWORK).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn cursor_varint_overflow_detected() {
        let mut c = Cursor::new(&[0xff; 11], 0);
        assert!(matches!(
            c.varint("test"),
            Err(FrozenError::VarintOverflow { .. })
        ));
    }
}
