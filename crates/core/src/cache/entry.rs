//! The self-describing, versioned container wrapped around every persisted
//! cache entry.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------+---------+-------+------+------+-------------+----------+
//! | magic  | version | stage | key  | id   | payload     | checksum |
//! | 8 B    | u32     | u8    | 16 B | 16 B | u32 + bytes | u64      |
//! +--------+---------+-------+------+------+-------------+----------+
//! ```
//!
//! `key` is the stage key the entry was stored under (its file name says
//! the same, but a file can be renamed); a load compares it with the
//! requested key, so a moved entry reads as [`EntryError::KeyMismatch`].
//! `id` is the payload's own [`ArtifactId`], stored so a hit hands it on
//! without re-hashing the payload. The trailing checksum is FNV-1a over
//! everything before it, catching truncation and bit rot; the version
//! field retires whole formats at once. Every verification failure maps to
//! an [`EntryError`] and, at the store layer, to a counted, silent
//! recompute.

use super::{fnv1a64_bytes, ArtifactId, StageKind};
use asip_isa::codec::{Codec, CodecError, Reader, Writer};

/// Version stamp of the persisted artifact format. Bump whenever any
/// artifact [`Codec`] or this container changes incompatibly; old entries
/// then read as stale and are recomputed. Version 1 stored the full
/// rendered stage key; version 2 stores the 16-byte key and payload IDs.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening every entry file.
const MAGIC: [u8; 8] = *b"ASIPART\0";

/// Why a persisted entry was rejected. All variants are handled
/// identically — drop the entry, count a stale drop, recompute — but the
/// distinction keeps tests honest about *which* defense caught a corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The file does not open with the entry magic.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The entry was written for a different pipeline stage.
    StageMismatch,
    /// The stored key differs from the requested key (a renamed or moved
    /// file).
    KeyMismatch,
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// Structurally malformed (truncated or trailing bytes).
    Malformed(CodecError),
}

impl From<CodecError> for EntryError {
    fn from(e: CodecError) -> Self {
        EntryError::Malformed(e)
    }
}

/// Wrap `payload` (whose ID is `id`) in the versioned container for
/// (stage, key).
pub(crate) fn encode_entry(
    stage: StageKind,
    key: ArtifactId,
    id: ArtifactId,
    payload: &[u8],
) -> Vec<u8> {
    let mut w = Writer::new();
    for b in MAGIC {
        w.put_u8(b);
    }
    w.put_u32(FORMAT_VERSION);
    w.put_u8(stage as u8);
    key.encode(&mut w);
    id.encode(&mut w);
    w.put_bytes(payload);
    let mut bytes = w.into_bytes();
    let checksum = fnv1a64_bytes(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Unwrap the entry file `bytes`, verifying magic, version, stage, key and
/// checksum. Returns the payload's ID and bytes.
///
/// # Errors
///
/// The first defense that rejects the entry, as an [`EntryError`].
pub fn decode_entry(
    bytes: &[u8],
    stage: StageKind,
    key: ArtifactId,
) -> Result<(ArtifactId, Vec<u8>), EntryError> {
    if bytes.len() < 8 + MAGIC.len() {
        return Err(EntryError::Malformed(CodecError::Truncated));
    }
    let (content, tail) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let mut r = Reader::new(content);
    if r.get_raw(MAGIC.len())? != MAGIC {
        return Err(EntryError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(EntryError::BadVersion(version));
    }
    if r.get_u8()? != stage as u8 {
        return Err(EntryError::StageMismatch);
    }
    if ArtifactId::decode(&mut r)? != key {
        return Err(EntryError::KeyMismatch);
    }
    let id = ArtifactId::decode(&mut r)?;
    let payload = r.get_bytes()?;
    r.finish()?;
    // Checked last so the error diagnoses *what* mismatched when the
    // header itself is intact.
    if fnv1a64_bytes(content) != checksum {
        return Err(EntryError::BadChecksum);
    }
    Ok((id, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_every_defense_fires() {
        let stage = StageKind::Compile;
        let key = ArtifactId::of_bytes(b"the key");
        let payload = b"artifact bytes".to_vec();
        let id = ArtifactId::of_bytes(&payload);
        let good = encode_entry(stage, key, id, &payload);
        assert_eq!(decode_entry(&good, stage, key), Ok((id, payload)));

        // Truncation.
        assert!(matches!(
            decode_entry(&good[..good.len() / 2], stage, key),
            Err(EntryError::Malformed(_) | EntryError::BadChecksum)
        ));
        // Garbage.
        assert!(decode_entry(&[0u8; 64], stage, key).is_err());
        // Magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_entry(&bad, stage, key), Err(EntryError::BadMagic));
        // Version.
        let mut bad = good.clone();
        bad[8] = 0xee;
        assert!(matches!(
            decode_entry(&bad, stage, key),
            Err(EntryError::BadVersion(_))
        ));
        // Stage.
        assert_eq!(
            decode_entry(&good, StageKind::Parse, key),
            Err(EntryError::StageMismatch)
        );
        // Key.
        assert_eq!(
            decode_entry(&good, stage, ArtifactId::of_bytes(b"another key")),
            Err(EntryError::KeyMismatch)
        );
        // Payload bit flip → checksum.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 12] ^= 0x01;
        assert_eq!(decode_entry(&bad, stage, key), Err(EntryError::BadChecksum));
    }
}
