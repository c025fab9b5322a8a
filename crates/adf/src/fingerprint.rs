//! The repo's one content hash: FNV-1a 64-bit, and the framework-spec
//! fingerprint built from it.
//!
//! Every fingerprint and checksum in the workspace — frozen image
//! headers, delta-store keys and checksums, campaign ids, report
//! digests — is this function, so a value computed in one crate can be
//! checked in another.

use saint_ir::ApiLevel;

use crate::spec::{FrameworkSpec, LifeSpan};

/// The multiplicative FNV-1a 64-bit hash the repo standardizes on for
/// fingerprints and checksums, continuing from `hash` (start from
/// [`FNV_OFFSET`]).
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

fn mix(hash: &mut u64, bytes: &[u8]) {
    *hash = fnv1a(bytes, *hash);
    // Separator byte so ("ab","c") and ("a","bc") hash differently.
    *hash = fnv1a(&[0xff], *hash);
}

fn mix_life(hash: &mut u64, life: LifeSpan) {
    mix(hash, &[life.since.get()]);
    match life.removed {
        Some(l) => mix(hash, &[1, l.get()]),
        None => mix(hash, &[0]),
    }
}

/// A stable content fingerprint of a framework spec: any change to a
/// class, method, lifetime, permission annotation, call edge, or body
/// weight changes the fingerprint. Frozen images record it in their
/// header so an attach against a *different* live spec is refused, and
/// every delta-store key folds it in. A walk over the whole spec, so
/// hot paths read the per-framework memo
/// ([`AndroidFramework::fingerprint`](crate::AndroidFramework::fingerprint))
/// instead of calling this.
#[must_use]
pub fn spec_fingerprint(spec: &FrameworkSpec) -> u64 {
    let mut hash = FNV_OFFSET;
    for class in spec.classes() {
        mix(&mut hash, class.name.as_str().as_bytes());
        match &class.super_class {
            Some(s) => mix(&mut hash, s.as_str().as_bytes()),
            None => mix(&mut hash, &[]),
        }
        for i in &class.interfaces {
            mix(&mut hash, i.as_str().as_bytes());
        }
        mix_life(&mut hash, class.life);
        for m in &class.methods {
            mix(&mut hash, m.name.as_bytes());
            mix(&mut hash, m.descriptor.as_bytes());
            mix_life(&mut hash, m.life);
            for p in &m.permissions {
                mix(&mut hash, p.as_str().as_bytes());
            }
            for c in &m.calls {
                mix(&mut hash, c.target.class.as_str().as_bytes());
                mix(&mut hash, c.target.name.as_bytes());
                mix(&mut hash, c.target.descriptor.as_bytes());
                mix(&mut hash, &[c.guard.map_or(0, ApiLevel::get)]);
            }
            mix(&mut hash, &(m.weight as u64).to_le_bytes());
            mix(&mut hash, &[u8::from(m.is_abstract)]);
        }
    }
    hash
}

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
