//! The framework-spec fingerprint, built from the repo's one content
//! hash ([`saint_ir::fnv1a`]).

use saint_ir::{fnv1a, ApiLevel, FNV_OFFSET};

use crate::spec::{FrameworkSpec, LifeSpan};

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
