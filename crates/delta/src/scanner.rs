//! The incremental scan engine.
//!
//! An app is presented as its encoded `SAPK` container bytes (the
//! daemon's wire payload, a `.sapk` file's contents), and a scan
//! proceeds in two tiers, cheapest first:
//!
//! 1. **App fast path** — if the whole-app key (one FNV pass over the
//!    container bytes) matches a stored artifact, the cached merged
//!    report is replayed verbatim (only `duration` is re-measured).
//!    [`DeltaScanner::replay_encoded`] answers this tier from the
//!    in-process memo before the container is even decoded.
//! 2. **Group reuse** — otherwise the app's classes are partitioned
//!    into analysis groups ([`bundled_groups`]); groups whose key
//!    matches a stored artifact are spliced from cache, and only the
//!    changed groups are projected into sub-APKs and pushed through the
//!    pipeline ([`SaintDroid::run_parts`]). Group artifacts hold their
//!    framework ledger entries as [`FrameworkDictionary`] ids, in the
//!    memo as on disk; the ids expand back to names only when a cached
//!    slice is handed to assembly.
//!
//! Tier 2 builds its report with [`SaintDroid::assemble`], the same
//! function a full scan ends in: a splice hands it one slice per group,
//! a full scan one slice for the whole app. A spliced report is
//! therefore byte-identical to a full rescan by construction, and both
//! tiers book their scan through [`SaintDroid::record_scan`]. Corrupt
//! or stale store entries surface as typed
//! [`DeltaError`](crate::DeltaError)s internally and count as misses —
//! they can never change a report.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use saint_ir::{codec, Apk, ClassDef, ClassName, DexFile};
use saint_obs::{Counter, Phase};
use saintdroid::{Report, SaintDroid};

use crate::dictionary::FrameworkDictionary;
use crate::graph::bundled_groups;
use crate::hash;
use crate::store::{DeltaStore, GroupArtifact};

/// What one incremental scan reused and recomputed, in classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Bundled classes the scanner considered (`hits + misses`).
    pub classes_seen: u64,
    /// Classes whose cached artifacts were reused verbatim.
    pub hits: u64,
    /// Classes with no usable cached artifact.
    pub misses: u64,
    /// Classes pushed through a fresh analysis (`== misses`).
    pub reanalyzed: u64,
    /// Analysis groups the app partitioned into (0 on the app-key fast
    /// path).
    pub groups: usize,
    /// Whether the whole-app fast path served this scan.
    pub app_hit: bool,
}

/// Upper bound on in-process app replay-memo entries. At a few KB per
/// merged report this caps the memo in the tens of MB.
const MEMO_CAP: usize = 4096;

/// Upper bound on in-process group-artifact memo entries (groups are
/// smaller but far more numerous than apps).
const GROUP_MEMO_CAP: usize = 16384;

/// One replay-memo entry: a merged report (with `duration` zeroed) and
/// the app's bundled class count, so a replay answered from container
/// bytes alone still reports exact [`DeltaStats`].
#[derive(Debug, Clone)]
struct Replay {
    report: Report,
    classes: u64,
}

/// A bounded in-process memo over one artifact kind, keyed by the
/// artifact's content key. On overflow it is dropped wholesale: the
/// memo is write-through, so the disk store still has everything and
/// eviction is a pure latency trade.
#[derive(Debug)]
struct Memo<T> {
    cap: usize,
    entries: Mutex<HashMap<u64, T>>,
}

impl<T: Clone> Memo<T> {
    fn new(cap: usize) -> Self {
        Memo {
            cap,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The entry under `key`, if `valid` accepts it. The check (the
    /// app's package, the group's member list) guards against an
    /// astronomically-unlikely key collision.
    fn get(&self, key: u64, valid: impl Fn(&T) -> bool) -> Option<T> {
        self.entries.lock().get(&key).filter(|v| valid(v)).cloned()
    }

    /// [`get`](Self::get), falling back to `load` (the on-disk
    /// artifact) and memoizing a valid load.
    fn get_or_load(
        &self,
        key: u64,
        valid: impl Fn(&T) -> bool,
        load: impl FnOnce() -> Option<T>,
    ) -> Option<T> {
        if let Some(hit) = self.get(key, &valid) {
            return Some(hit);
        }
        let loaded = load().filter(|v| valid(v))?;
        self.insert(key, loaded.clone());
        Some(loaded)
    }

    /// Inserts `value`, clearing the memo first when it is at its cap.
    fn insert(&self, key: u64, value: T) {
        let mut entries = self.entries.lock();
        if entries.len() >= self.cap {
            entries.clear();
        }
        entries.insert(key, value);
    }
}

/// Incremental scanner over a [`DeltaStore`].
///
/// Scanners also keep bounded **in-process memos** over both artifact
/// kinds: the merged report of every app this process has scanned (or
/// replayed from disk), and every group slice it has produced or
/// loaded — keyed by the same content keys as the on-disk artifacts.
/// A long-lived scanner — the daemon, a history walk, a rescan wave —
/// serves unchanged apps straight from memory and splices changed apps
/// from in-memory group slices, skipping the artifact reads and
/// decodes entirely. Clones share the memos. Both memos are
/// write-through (every entry also lands in the store), so they can
/// only ever replay what a fresh process would reconstruct from disk.
#[derive(Debug, Clone)]
pub struct DeltaScanner {
    store: DeltaStore,
    apps: Arc<Memo<Replay>>,
    groups: Arc<Memo<Arc<GroupArtifact>>>,
    dictionary: Arc<DictionarySlot>,
}

/// The dictionary of the framework a scanner last scanned groups over,
/// with that framework's fingerprint.
type DictionarySlot = Mutex<Option<(u64, Arc<FrameworkDictionary>)>>;

impl DeltaScanner {
    /// Creates a scanner over the store rooted at `root`
    /// (conventionally `.saint/delta/`).
    #[must_use]
    pub fn new(root: impl AsRef<Path>) -> Self {
        DeltaScanner {
            store: DeltaStore::new(root.as_ref()),
            apps: Arc::new(Memo::new(MEMO_CAP)),
            groups: Arc::new(Memo::new(GROUP_MEMO_CAP)),
            dictionary: Arc::new(Mutex::new(None)),
        }
    }

    /// The underlying artifact store.
    #[must_use]
    pub fn store(&self) -> &DeltaStore {
        &self.store
    }

    /// Scans `apk`, presented alongside its encoded `SAPK` container
    /// bytes (`sapk` must be the canonical encoding of `apk`), reusing
    /// stored artifacts where their keys match and re-analyzing only
    /// the changed groups. The report is byte-identical to
    /// `tool.run_with_jobs(apk, app_jobs)` except for the wall-clock
    /// `duration` field.
    ///
    /// The whole-app fast path is keyed by one sequential FNV pass over
    /// the container bytes. The canonical encoding makes the key sound:
    /// byte-identical containers decode to identical apps. A
    /// byte-level miss (even a re-encoding of the same app) degrades to
    /// the group-splice tier — never to a wrong report.
    #[must_use]
    pub fn scan_encoded(
        &self,
        tool: &SaintDroid,
        sapk: &[u8],
        apk: &Apk,
        app_jobs: usize,
    ) -> (Report, DeltaStats) {
        let start = Instant::now();
        let ctx = hash::context_fingerprint(tool);
        let akey = hash::encoded_app_key(ctx, sapk);
        let total = apk.class_count() as u64;

        // Tier 1: whole-app fast path.
        let package = &apk.manifest.package;
        let hit = self.apps.get_or_load(
            akey,
            |hit| &hit.report.package == package,
            || {
                let report = store_io(tool, || self.store.load_app(akey)).ok()?;
                Some(Replay {
                    report,
                    classes: total,
                })
            },
        );
        if let Some(hit) = hit {
            return replayed(tool, hit, start);
        }

        // Tier 2: per-group reuse.
        let dict = self.dictionary(tool);
        let man = hash::manifest_fingerprint(&apk.manifest);
        let groups = bundled_groups(apk);
        let mut stats = DeltaStats {
            classes_seen: total,
            groups: groups.len(),
            ..DeltaStats::default()
        };
        let mut parts = Vec::with_capacity(groups.len());
        for group in &groups {
            // The partition was built from this same `apk`, so every
            // member resolves.
            let members: Vec<(u32, &ClassDef)> = group
                .iter()
                .filter_map(|(slot, name)| Some((*slot, class_at(apk, *slot, name)?)))
                .collect();
            let key = hash::group_key(ctx, man, &members);
            let names: Vec<ClassName> = group.iter().map(|(_, n)| n.clone()).collect();
            let cached = self.groups.get_or_load(
                key,
                |art| art.members == names,
                || {
                    store_io(tool, || self.store.load_group(key))
                        .ok()
                        .map(Arc::new)
                },
            );
            // A ledger id outside the dictionary makes the artifact
            // malformed: a miss like any other.
            let part = match cached.and_then(|art| art.expand(&dict).ok()) {
                Some(part) => {
                    stats.hits += group.len() as u64;
                    part
                }
                None => {
                    let sub = project(apk, group);
                    let part = tool.run_parts(&sub, app_jobs);
                    let art = Arc::new(GroupArtifact::compact(names, &part, &dict));
                    // Persisting is best-effort: a read-only or full
                    // disk slows future scans down, never breaks this
                    // one.
                    let _ = store_io(tool, || self.store.save_group(key, &art));
                    self.groups.insert(key, art);
                    stats.misses += group.len() as u64;
                    stats.reanalyzed += group.len() as u64;
                    part
                }
            };
            parts.push(part);
        }

        let mut report = tool.assemble(apk, parts);
        report.duration = start.elapsed();
        record(tool, &report, start, stats);

        let mut stored = report.clone();
        stored.duration = std::time::Duration::ZERO;
        let _ = store_io(tool, || self.store.save_app(akey, &stored));
        self.apps.insert(
            akey,
            Replay {
                report: stored,
                classes: total,
            },
        );
        (report, stats)
    }

    /// The dictionary of `tool`'s framework: built on the first group
    /// scan over that framework and kept until a scan over another one.
    fn dictionary(&self, tool: &SaintDroid) -> Arc<FrameworkDictionary> {
        let fingerprint = tool.arm().fingerprint();
        let mut slot = self.dictionary.lock();
        if let Some((fp, dict)) = slot.as_ref() {
            if *fp == fingerprint {
                return Arc::clone(dict);
            }
        }
        let dict = Arc::new(FrameworkDictionary::new(&tool.arm().database()));
        *slot = Some((fingerprint, Arc::clone(&dict)));
        dict
    }

    /// The whole-app fast path from the encoded `SAPK` container alone:
    /// one FNV pass over `sapk`, one replay-memo lookup and a parse of
    /// the container header — no decode of the app itself. `None` on a
    /// memo miss (the caller decodes and falls through to
    /// [`scan_encoded`](Self::scan_encoded), which also consults the
    /// on-disk store), or when the memoized report's package disagrees
    /// with the container's manifest.
    ///
    /// A hit is the same answer `scan_encoded` gives for these bytes:
    /// a memo entry exists only for bytes that already decoded and
    /// scanned successfully, and byte-identical canonical containers
    /// decode to identical apps. Counts
    /// [`Counter::DeltaUndecodedReplays`].
    #[must_use]
    pub fn replay_encoded(&self, tool: &SaintDroid, sapk: &[u8]) -> Option<(Report, DeltaStats)> {
        let start = Instant::now();
        let akey = hash::encoded_app_key(hash::context_fingerprint(tool), sapk);
        let package = codec::decode_manifest(sapk).ok()?.package;
        let hit = self.apps.get(akey, |hit| hit.report.package == package)?;
        if let Some(m) = tool.metrics() {
            m.add(Counter::DeltaUndecodedReplays, 1);
        }
        Some(replayed(tool, hit, start))
    }
}

/// Serves one whole-app replay: re-measures `duration`, books the
/// per-app aggregates, and reports every class as a hit.
fn replayed(tool: &SaintDroid, hit: Replay, start: Instant) -> (Report, DeltaStats) {
    let mut report = hit.report;
    report.duration = start.elapsed();
    let stats = DeltaStats {
        classes_seen: hit.classes,
        hits: hit.classes,
        app_hit: true,
        ..DeltaStats::default()
    };
    record(tool, &report, start, stats);
    (report, stats)
}

/// Books one scan, whichever tier answered it: the tool's per-app
/// aggregates plus the delta reuse counters.
fn record(tool: &SaintDroid, report: &Report, start: Instant, stats: DeltaStats) {
    tool.record_scan(report, start);
    if let Some(m) = tool.metrics() {
        m.add(Counter::DeltaHits, stats.hits);
        m.add(Counter::DeltaMisses, stats.misses);
        m.add(Counter::ClassesReanalyzed, stats.reanalyzed);
    }
}

/// Runs one store read or write, recorded as a [`Phase::DeltaStore`]
/// span when the tool carries a metrics registry. Memo hits never get
/// here: only actual artifact I/O is billed to the phase.
fn store_io<T>(tool: &SaintDroid, io: impl FnOnce() -> T) -> T {
    match tool.metrics() {
        Some(m) => m.time(Phase::DeltaStore, io),
        None => io(),
    }
}

/// Looks a group member up in its recorded dex slot.
fn class_at<'a>(apk: &'a Apk, slot: u32, name: &ClassName) -> Option<&'a ClassDef> {
    if slot == 0 {
        apk.primary.class(name)
    } else {
        apk.secondary.get(slot as usize - 1)?.class(name)
    }
}

/// Projects one group into a standalone sub-APK: the group's classes in
/// their original dex slots (empty dexes dropped, relative order kept),
/// under the full manifest. The sub-APK shares the app's class `Arc`s;
/// nothing is copied but the manifest and the dex names. Projecting the
/// payload dexes per group — rather than handing every group all
/// payloads — is what keeps the reconstructed meter exact: an
/// out-of-group payload class would charge its superclass lookups to
/// the wrong slice.
fn project(apk: &Apk, group: &[(u32, ClassName)]) -> Apk {
    let mut sub = Apk::new(apk.manifest.clone());
    sub.has_source = apk.has_source;
    sub.primary = DexFile::new(apk.primary.name.clone());
    let mut secondaries: Vec<Option<DexFile>> = vec![None; apk.secondary.len()];
    for (slot, name) in group {
        if *slot == 0 {
            if let Some(c) = apk.primary.shared_class(name) {
                let _ = sub.primary.add_shared_class(Arc::clone(c));
            }
        } else if let Some(dex) = apk.secondary.get(*slot as usize - 1) {
            if let Some(c) = dex.shared_class(name) {
                let entry = secondaries[*slot as usize - 1]
                    .get_or_insert_with(|| DexFile::new(dex.name.clone()));
                let _ = entry.add_shared_class(Arc::clone(c));
            }
        }
    }
    sub.secondary = secondaries.into_iter().flatten().collect();
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_adf::{AndroidFramework, SynthConfig};
    use saint_corpus::{generate_lineage, LineageConfig};
    use saint_obs::MetricsRegistry;
    use saintdroid::ScanParts;

    fn fixture(name: &str) -> (SaintDroid, Apk, Vec<u8>, std::path::PathBuf) {
        let framework = Arc::new(AndroidFramework::with_scale(&SynthConfig::small()));
        let tool = SaintDroid::new(framework).with_metrics(Arc::new(MetricsRegistry::new()));
        let (_, apk) = generate_lineage(&LineageConfig::small()).swap_remove(0);
        let sapk = codec::encode_apk(&apk);
        let dir = std::env::temp_dir().join(format!("saint-delta-{name}-{}", std::process::id()));
        (tool, apk, sapk, dir)
    }

    #[test]
    fn undecoded_replay_needs_a_memo_entry_and_disk_still_replays() {
        let (tool, apk, sapk, dir) = fixture("undecoded");
        let scanner = DeltaScanner::new(&dir);
        assert!(scanner.replay_encoded(&tool, &sapk).is_none(), "cold");
        let (first, _) = scanner.scan_encoded(&tool, &sapk, &apk, 1);
        let (replayed, stats) = scanner
            .replay_encoded(&tool, &sapk)
            .expect("memoized bytes replay before decode");
        assert!(stats.app_hit);
        assert_eq!(stats.classes_seen, apk.class_count() as u64);
        assert_eq!(stats.hits, stats.classes_seen);
        assert_eq!(replayed.mismatches, first.mismatches);

        // A fresh scanner has an empty memo: no undecoded replay, but
        // the decoded path still replays the persisted artifact — and
        // memoizes it for the next undecoded request.
        let fresh = DeltaScanner::new(&dir);
        assert!(fresh.replay_encoded(&tool, &sapk).is_none());
        let (_, disk) = fresh.scan_encoded(&tool, &sapk, &apk, 1);
        assert_eq!(disk, stats, "disk replay reports the same stats");
        assert_eq!(
            fresh.replay_encoded(&tool, &sapk).map(|(_, s)| s),
            Some(stats)
        );

        let metrics = tool.metrics().expect("registry attached");
        assert_eq!(metrics.counter(Counter::DeltaUndecodedReplays), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_entry_for_another_package_is_refused() {
        let (tool, apk, sapk, dir) = fixture("collision");
        let scanner = DeltaScanner::new(&dir);
        let _ = scanner.scan_encoded(&tool, &sapk, &apk, 1);
        let akey = hash::encoded_app_key(hash::context_fingerprint(&tool), &sapk);
        let mut forged = scanner.apps.get(akey, |_| true).unwrap();
        forged.report.package = "com.other.app".to_string();
        scanner.apps.insert(akey, forged);
        assert!(
            scanner.replay_encoded(&tool, &sapk).is_none(),
            "the container header names a different package"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_container_never_replays() {
        let (tool, apk, sapk, dir) = fixture("malformed");
        let scanner = DeltaScanner::new(&dir);
        let _ = scanner.scan_encoded(&tool, &sapk, &apk, 1);
        let mut flipped = sapk.clone();
        flipped[0] ^= 0xff;
        assert!(scanner.replay_encoded(&tool, &flipped).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_ledgers_expand_to_the_entries_run_parts_produced() {
        let (tool, _, _, dir) = fixture("ledger");
        let store = DeltaStore::new(&dir);
        let dict = FrameworkDictionary::new(&tool.arm().database());
        let sorted = |mut parts: ScanParts| {
            parts.loaded.sort();
            parts.methods.sort();
            (parts.families, parts.loaded, parts.methods)
        };
        let mut compacted = 0;
        for (version, (_, apk)) in generate_lineage(&LineageConfig::small()).iter().enumerate() {
            for group in &bundled_groups(apk) {
                let parts = tool.run_parts(&project(apk, group), 1);
                assert!(parts.families.invocation.iter().all(|(_, b)| !b.is_empty()));
                let names = group.iter().map(|(_, n)| n.clone()).collect();
                let art = GroupArtifact::compact(names, &parts, &dict);
                compacted += art.framework_loaded.len() + art.framework_methods.len();
                let want = sorted(parts);
                assert_eq!(sorted(art.expand(&dict).unwrap()), want);
                store.save_group(version as u64, &art).unwrap();
                let back = store.load_group(version as u64).unwrap();
                assert_eq!(sorted(back.expand(&dict).unwrap()), want);
            }
        }
        assert!(compacted > 0, "the lineage reaches framework code");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_projections_share_the_apps_classes() {
        let (_, apk) = generate_lineage(&LineageConfig::small()).swap_remove(0);
        let groups = bundled_groups(&apk);
        assert!(groups.len() > 1, "the fixture partitions");
        for group in &groups {
            let sub = project(&apk, group);
            assert_eq!(sub.class_count(), group.len());
            for (slot, name) in group {
                let dex = match *slot {
                    0 => &apk.primary,
                    s => &apk.secondary[s as usize - 1],
                };
                let held = dex.shared_class(name).unwrap();
                let projected = sub.all_shared_classes().find(|c| &c.name == name).unwrap();
                assert!(Arc::ptr_eq(held, projected), "{name} was copied");
            }
        }
    }
}
