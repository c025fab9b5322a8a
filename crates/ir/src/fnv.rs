//! The repo's one content hash: FNV-1a 64-bit.
//!
//! Every fingerprint, checksum and deterministic shard choice in the
//! workspace — frozen image headers, delta-store keys and checksums,
//! campaign ids, report digests, the interner's and the class caches'
//! shards — is this function, so a value computed in one crate can be
//! checked in another, and shard load is reproducible across runs
//! (unlike `RandomState`).

/// The multiplicative FNV-1a 64-bit hash, continuing from `hash`
/// (start from [`FNV_OFFSET`]).
#[must_use]
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
        // Chaining is the same as hashing the concatenation.
        assert_eq!(
            fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)),
            0x8594_4171_f739_67e8
        );
    }
}
