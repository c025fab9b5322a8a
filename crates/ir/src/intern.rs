//! Global string interning for name atoms.
//!
//! Class names, method names, descriptors and permissions recur
//! massively across apps in a batch scan: every app names
//! `android.app.Activity`, every exploration re-creates `onCreate`
//! strings, and the framework's own surface is shared by construction.
//! Interning collapses all of those into one `Arc<str>` per distinct
//! string, so equality-heavy workloads (worklist dedup, map keys)
//! compare mostly-shared pointers over short strings and the heap holds
//! one copy of each atom process-wide.
//!
//! The table is append-only and sharded: 16 shards, each a
//! `Mutex<HashSet<Arc<str>>>`, picked by a deterministic FNV-1a hash so
//! concurrent scan workers rarely contend on the same shard.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

use crate::{fnv1a, FNV_OFFSET};

const SHARD_COUNT: usize = 16;

struct Interner {
    shards: [Mutex<HashSet<Arc<str>>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

static INTERNER: LazyLock<Interner> = LazyLock::new(|| Interner {
    shards: std::array::from_fn(|_| Mutex::new(HashSet::new())),
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
});

fn shard_of(text: &str) -> usize {
    (fnv1a(text.as_bytes(), FNV_OFFSET) as usize) % SHARD_COUNT
}

/// Returns the canonical `Arc<str>` for `text`, inserting it on first
/// sight. All name constructors in this crate route through here.
pub fn intern<S>(text: S) -> Arc<str>
where
    S: AsRef<str> + Into<Arc<str>>,
{
    let interner = &*INTERNER;
    let shard = &interner.shards[shard_of(text.as_ref())];
    let mut set = shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(existing) = set.get(text.as_ref()) {
        interner.hits.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(existing);
    }
    interner.misses.fetch_add(1, Ordering::Relaxed);
    let atom: Arc<str> = text.into();
    set.insert(Arc::clone(&atom));
    atom
}

/// A snapshot of interner activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups that found an existing atom.
    pub hits: u64,
    /// Lookups that inserted a new atom.
    pub misses: u64,
    /// Distinct atoms currently held.
    pub entries: usize,
}

impl InternStats {
    /// Hit fraction in `[0, 1]` (zero when nothing was interned yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the global interner counters.
#[must_use]
pub fn intern_stats() -> InternStats {
    let interner = &*INTERNER;
    let entries = interner
        .shards
        .iter()
        .map(|shard| {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        })
        .sum();
    InternStats {
        hits: interner.hits.load(Ordering::Relaxed),
        misses: interner.misses.load(Ordering::Relaxed),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_to_pointer_identity() {
        let a = intern("com.test.intern.PointerIdentity");
        let b = intern("com.test.intern.PointerIdentity".to_string());
        let c = intern(Arc::<str>::from("com.test.intern.PointerIdentity"));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn distinct_strings_stay_distinct() {
        let a = intern("com.test.intern.DistinctA");
        let b = intern("com.test.intern.DistinctB");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a, b);
    }

    #[test]
    fn stats_move_forward() {
        let before = intern_stats();
        let _ = intern("com.test.intern.StatsProbe");
        let _ = intern("com.test.intern.StatsProbe");
        let after = intern_stats();
        assert!(after.hits + after.misses >= before.hits + before.misses + 2);
        assert!(after.entries >= 1);
    }
}
