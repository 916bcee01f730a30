//! Content addresses: the 128-bit [`ArtifactId`] every cache key and every
//! cached artifact is named by.
//!
//! The hash is SipHash-2-4 in its 128-bit output mode under a fixed key,
//! hand-rolled so the digest is a property of this source file, not of the
//! toolchain that built it (`std`'s `DefaultHasher` makes no such promise,
//! and disk entries outlive the build). Golden vectors in the tests pin it.

use asip_isa::codec::{Codec, CodecError, Reader, Writer};
use std::fmt;

/// The fixed SipHash key ("asip-artifact-id" as two little-endian words).
/// Changing it renames every persisted entry.
const KEY: (u64, u64) = (0x7472_612d_7069_7361, 0x6469_2d74_6361_6669);

/// A 128-bit content address.
///
/// An artifact's ID is the hash of its codec payload; a stage key is the
/// hash of the stage tag, the IDs of the stage's input artifacts and its
/// options. Both are fixed-size, so probing the cache costs the same for a
/// 100-byte profile as for a 6 KB program. Displays as 32 lowercase hex
/// digits, which is also the disk tier's file name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactId(u128);

impl ArtifactId {
    /// The ID of a byte string.
    pub fn of_bytes(bytes: &[u8]) -> ArtifactId {
        let (lo, hi) = siphash24_128(KEY.0, KEY.1, bytes);
        ArtifactId(u128::from(lo) | u128::from(hi) << 64)
    }

    /// The ID of a value: the hash of its codec encoding. Equal values have
    /// equal encodings (every codec is canonical), hence equal IDs.
    pub fn of<T: Codec>(value: &T) -> ArtifactId {
        ArtifactId::of_bytes(&value.encode_to_vec())
    }
}

/// Little-endian, low word first: 16 bytes, no length prefix.
impl Codec for ArtifactId {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0 as u64);
        w.put_u64((self.0 >> 64) as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let lo = r.get_u64()?;
        let hi = r.get_u64()?;
        Ok(ArtifactId(u128::from(lo) | u128::from(hi) << 64))
    }
}

impl fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for ArtifactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArtifactId({self})")
    }
}

/// One SipRound over the four-word state.
#[inline(always)]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 with 128-bit output (the reference `siphash.c` with
/// `outlen == 16`), as (low word, high word).
fn siphash24_128(k0: u64, k1: u64, msg: &[u8]) -> (u64, u64) {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut words = msg.chunks_exact(8);
    for word in &mut words {
        let m = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        v[3] ^= m;
        sip_round(&mut v);
        sip_round(&mut v);
        v[0] ^= m;
    }
    let mut last = (msg.len() as u64) << 56;
    for (i, &b) in words.remainder().iter().enumerate() {
        last |= u64::from(b) << (8 * i);
    }
    v[3] ^= last;
    sip_round(&mut v);
    sip_round(&mut v);
    v[0] ^= last;
    v[2] ^= 0xee;
    for _ in 0..4 {
        sip_round(&mut v);
    }
    let lo = v[0] ^ v[1] ^ v[2] ^ v[3];
    v[1] ^= 0xdd;
    for _ in 0..4 {
        sip_round(&mut v);
    }
    (lo, v[0] ^ v[1] ^ v[2] ^ v[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_siphash_reference_vectors() {
        // `vectors_sip128` of the reference implementation (key 00..0f,
        // messages "" and "\x00"), read as little-endian words.
        let key = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        let digest = |msg: &[u8]| siphash24_128(key.0, key.1, msg);
        assert_eq!(digest(b""), (0xe6a8_25ba_047f_81a3, 0x9302_55c7_1472_f66d));
        assert_eq!(
            digest(b"\0"),
            (0x44af_996b_d8c1_87da, 0x45fc_229b_1159_7634)
        );
    }

    #[test]
    fn golden_ids_pin_the_hash_across_builds() {
        // Disk entries are named by these digests: if this test fails, the
        // hash changed and every persisted entry silently misses. Change
        // the hash only together with a `FORMAT_VERSION` bump.
        assert_eq!(
            ArtifactId::of_bytes(b"asip artifact").to_string(),
            "2de9dd510636f39776203280e0944f1f"
        );
        let words: Vec<u8> = (0u8..=255).collect();
        assert_eq!(
            ArtifactId::of_bytes(&words).to_string(),
            "3af6eccdd5cc5d836a7a022e7303cd03"
        );
    }

    #[test]
    fn display_and_codec_roundtrip() {
        let id = ArtifactId::of_bytes(b"roundtrip");
        assert_eq!(id.to_string().len(), 32);
        assert_eq!(ArtifactId::decode_all(&id.encode_to_vec()), Ok(id));
        assert_eq!(id.encode_to_vec().len(), 16);
        assert_ne!(id, ArtifactId::of_bytes(b"roundtrip "));
    }
}
