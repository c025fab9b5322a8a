//! A lock-sharded framework-class cache shared across a batch scan.
//!
//! Materializing a framework class from its spec is the single most
//! repeated unit of work in a batch: every app targeting level L that
//! touches `android.app.Activity` re-materializes the same definition.
//! A [`ShardedClassCache`] is `Arc`-shared by every `FrameworkProvider`
//! in a batch, keyed by `(ApiLevel, ClassName)` so apps targeting
//! different levels never see each other's view of the platform. It is
//! the only place a materialized framework class is shared: neither the
//! framework nor a provider keeps one, so a tool built without this
//! cache materializes each class it loads once per app.
//!
//! **Metering stays exact.** The cache changes *where a definition
//! comes from*, never *whether an app loads it*: each app's
//! [`LoadMeter`](crate::LoadMeter) records class bytes inside its own
//! CLVM on first per-app load, regardless of whether the `Arc` was
//! freshly materialized or served from this cache. Per-app metered
//! bytes are identical with and without sharing (asserted by the
//! engine's parity tests).
//!
//! Sharding: keys are distributed over N independent
//! `RwLock<HashMap>` shards by a deterministic FNV-1a hash, so scan
//! workers materializing disjoint classes proceed without contention,
//! and concurrent readers of hot classes share read locks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use saint_ir::{fnv1a, ApiLevel, ClassDef, ClassName, MethodRef, FNV_OFFSET};
use saint_sync::RwLock;

use crate::explore::MethodArtifacts;

/// A snapshot of one cache's activity counters — the observability
/// layer's [`CacheSnapshot`](saint_obs::CacheSnapshot) under the name
/// this crate's caches report through.
pub use saint_obs::CacheSnapshot as CacheStats;

/// Default shard count: enough to keep `jobs` workers from colliding
/// without bloating the struct.
const DEFAULT_SHARDS: usize = 16;

// Two-level maps so the hot path (a read-lock hit) can probe with the
// borrowed `&ClassName` directly — a flat `(ApiLevel, ClassName)` key
// would force cloning the name into a lookup tuple on every hit.
type Shard = RwLock<HashMap<ApiLevel, HashMap<ClassName, Option<Arc<ClassDef>>>>>;

/// A concurrent `(ApiLevel, ClassName) -> Option<Arc<ClassDef>>` map.
///
/// Negative results (`None`: the class does not exist at that level)
/// are cached too — repeated lookups of missing classes are just as
/// common as hits during exploration.
pub struct ShardedClassCache {
    shards: Vec<Shard>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardedClassCache {
    /// A cache with the default shard count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (power of two not required).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        ShardedClassCache {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, level: ApiLevel, name: &ClassName) -> &Shard {
        let seed = FNV_OFFSET ^ u64::from(level.get());
        let hash = fnv1a(name.as_str().as_bytes(), seed);
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Looks up `(level, name)`, calling `materialize` on a miss.
    ///
    /// The materializer runs *outside* any lock, so a slow
    /// materialization never blocks other shard traffic; if two workers
    /// race on the same key, the first insert wins and both observe the
    /// same `Arc`.
    pub fn get_or_materialize<F>(
        &self,
        level: ApiLevel,
        name: &ClassName,
        materialize: F,
    ) -> Option<Arc<ClassDef>>
    where
        F: FnOnce() -> Option<Arc<ClassDef>>,
    {
        let shard = self.shard_of(level, name);
        // Every probe resolves to exactly one of hit/miss, keeping the
        // observability invariant `hits + misses == lookups` exact.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(cached) = shard.read().get(&level).and_then(|m| m.get(name)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let made = materialize();
        let mut map = shard.write();
        map.entry(level)
            .or_default()
            .entry(name.clone())
            .or_insert(made)
            .clone()
    }

    /// Stores `class` under `(level, name)` without counting a lookup —
    /// a bulk fill (the frozen-image preload), not a probe. An existing
    /// entry wins.
    pub fn insert(&self, level: ApiLevel, name: &ClassName, class: Option<Arc<ClassDef>>) {
        self.shard_of(level, name)
            .write()
            .entry(level)
            .or_default()
            .entry(name.clone())
            .or_insert(class);
    }

    /// Number of cached keys (positive and negative) across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(HashMap::len).sum::<usize>())
            .sum()
    }

    /// Whether nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

impl Default for ShardedClassCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ShardedClassCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ShardedClassCache")
            .field("shards", &self.shards.len())
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// A batch-wide cache of framework [`MethodArtifacts`], keyed by
/// `(snapshot level, method)`.
///
/// Exploration builds a CFG and runs the abstract-state fixpoint for
/// every method it visits — including every framework method reached
/// through the beyond-first-level descent. Those artifacts are
/// app-invariant: the framework body at a given snapshot level is the
/// same for every app, so the CFG/abstract-state pair is too. Sharing
/// them turns the dominant exploration cost from per-app into
/// per-batch.
///
/// **Metering stays exact**: each app's `LoadMeter` records the
/// artifact's byte sizes on visit whether the artifact was freshly
/// built or served from here — the recorded value is a pure function of
/// the artifact's content, which is identical either way. App-origin
/// methods are never cached.
#[derive(Default)]
pub struct ArtifactCache {
    map: RwLock<HashMap<ApiLevel, HashMap<MethodRef, Arc<MethodArtifacts>>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `(level, method)`, calling `build` on a miss. `build`
    /// runs outside the lock; if two workers race on the same key, the
    /// first insert wins and both observe the same `Arc`.
    pub fn get_or_build<F>(
        &self,
        level: ApiLevel,
        method: &MethodRef,
        build: F,
    ) -> Arc<MethodArtifacts>
    where
        F: FnOnce() -> Arc<MethodArtifacts>,
    {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(art) = self.map.read().get(&level).and_then(|m| m.get(method)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(art);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = build();
        Arc::clone(
            self.map
                .write()
                .entry(level)
                .or_default()
                .entry(method.clone())
                .or_insert(built),
        )
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().values().map(HashMap::len).sum::<usize>() as u64,
        }
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ArtifactCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_ir::ClassOrigin;

    fn class(name: &str) -> Option<Arc<ClassDef>> {
        Some(Arc::new(ClassDef::new(name, ClassOrigin::Framework)))
    }

    #[test]
    fn second_lookup_shares_the_arc() {
        let cache = ShardedClassCache::new();
        let name = ClassName::new("android.cache.test.A");
        let level = ApiLevel::new(28);
        let first = cache
            .get_or_materialize(level, &name, || class("android.cache.test.A"))
            .unwrap();
        let second = cache
            .get_or_materialize(level, &name, || panic!("must not re-materialize"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn insert_counts_no_lookup_and_keeps_the_existing_entry() {
        let cache = ShardedClassCache::new();
        let name = ClassName::new("android.cache.test.Pre");
        let level = ApiLevel::new(28);
        let first = class("android.cache.test.Pre");
        cache.insert(level, &name, first.clone());
        cache.insert(level, &name, None);
        assert_eq!(cache.stats().lookups, 0);
        assert_eq!(cache.stats().entries, 1);
        let got = cache.get_or_materialize(level, &name, || panic!("preloaded"));
        assert!(Arc::ptr_eq(&got.unwrap(), &first.unwrap()));
    }

    #[test]
    fn levels_are_isolated() {
        let cache = ShardedClassCache::new();
        let name = ClassName::new("android.cache.test.B");
        let hit21 = cache.get_or_materialize(ApiLevel::new(21), &name, || None);
        let hit28 =
            cache.get_or_materialize(ApiLevel::new(28), &name, || class("android.cache.test.B"));
        assert!(hit21.is_none());
        assert!(hit28.is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn negative_results_are_cached() {
        let cache = ShardedClassCache::new();
        let name = ClassName::new("android.cache.test.Missing");
        assert!(cache
            .get_or_materialize(ApiLevel::new(28), &name, || None)
            .is_none());
        assert!(cache
            .get_or_materialize(ApiLevel::new(28), &name, || panic!("cached negative"))
            .is_none());
    }

    #[test]
    fn concurrent_fill_converges_to_one_arc() {
        let cache = Arc::new(ShardedClassCache::with_shards(4));
        // Release every thread at once so the lookups race for real.
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<Arc<ClassDef>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        cache
                            .get_or_materialize(
                                ApiLevel::new(28),
                                &ClassName::new("android.cache.test.Race"),
                                || class("android.cache.test.Race"),
                            )
                            .unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r));
        }
        assert_eq!(cache.len(), 1);
    }
}
