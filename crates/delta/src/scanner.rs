//! The incremental scan engine.
//!
//! A scan proceeds in three tiers, cheapest first:
//!
//! 1. **App fast path** — if the whole-app key matches a stored
//!    artifact, the cached merged report is replayed verbatim (only
//!    `duration` is re-measured). For an app presented as container
//!    bytes, [`DeltaScanner::replay_encoded`] answers this tier from the
//!    in-process memo before the container is even decoded.
//! 2. **Group reuse** — otherwise the app's classes are partitioned
//!    into analysis groups ([`bundled_groups`]); groups whose key
//!    matches a stored artifact are spliced from cache, and only the
//!    changed groups are projected into sub-APKs and pushed through the
//!    pipeline ([`SaintDroid::run_parts`]).
//! 3. **Full fallback** — any structural inconsistency (a class the
//!    partition named but the APK no longer holds, which cannot happen
//!    short of a racing mutation) degrades to a plain full rescan.
//!
//! Tiers 2 and 3 build their report with [`SaintDroid::assemble`], the
//! same function a full scan ends in: a splice hands it one slice per
//! group, a full scan one slice for the whole app. A spliced report is
//! therefore byte-identical to a full rescan by construction, and every
//! tier books its scan through [`SaintDroid::record_scan`]. Corrupt or
//! stale store entries surface as typed
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

use crate::graph::bundled_groups;
use crate::hash;
use crate::store::{AppArtifact, DeltaStore, GroupArtifact};

/// What one incremental scan reused and recomputed, in classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Bundled classes the scanner considered (`hits + misses`).
    pub classes_seen: u64,
    /// Classes whose cached artifacts were reused verbatim.
    pub hits: u64,
    /// Classes with no usable cached artifact.
    pub misses: u64,
    /// Classes pushed through a fresh analysis (`== misses`, except a
    /// full fallback re-analyzes everything).
    pub reanalyzed: u64,
    /// Analysis groups the app partitioned into (0 on the app-key fast
    /// path).
    pub groups: usize,
    /// Whether the whole-app fast path served this scan.
    pub app_hit: bool,
}

/// Upper bound on in-process app replay-memo entries. At a few KB per
/// merged report this caps the memo in the tens of MB; on overflow the
/// memo is dropped wholesale (the disk store still has everything, so
/// eviction is a pure latency trade).
const MEMO_CAP: usize = 4096;

/// One replay-memo entry: a merged report (with `duration` zeroed) and
/// the app's bundled class count, so a replay answered from container
/// bytes alone still reports exact [`DeltaStats`].
#[derive(Debug, Clone)]
struct Replay {
    report: Report,
    classes: u64,
}

/// Upper bound on in-process group-artifact memo entries (groups are
/// smaller but far more numerous than apps).
const GROUP_MEMO_CAP: usize = 16384;

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
    memo: Arc<Mutex<HashMap<u64, Replay>>>,
    group_memo: Arc<Mutex<HashMap<u64, GroupArtifact>>>,
}

impl DeltaScanner {
    /// Creates a scanner over the store rooted at `root`
    /// (conventionally `.saint/delta/`).
    #[must_use]
    pub fn new(root: impl AsRef<Path>) -> Self {
        DeltaScanner {
            store: DeltaStore::new(root.as_ref()),
            memo: Arc::new(Mutex::new(HashMap::new())),
            group_memo: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The underlying artifact store.
    #[must_use]
    pub fn store(&self) -> &DeltaStore {
        &self.store
    }

    /// Scans `apk`, reusing stored artifacts where their keys match and
    /// re-analyzing only the changed groups. The report is
    /// byte-identical to `tool.run_with_jobs(apk, app_jobs)` except for
    /// the wall-clock `duration` field.
    #[must_use]
    pub fn scan(&self, tool: &SaintDroid, apk: &Apk, app_jobs: usize) -> (Report, DeltaStats) {
        let start = Instant::now();
        let ctx = hash::context_fingerprint(tool);
        let akey = hash::app_key(ctx, apk);
        self.scan_keyed(tool, apk, app_jobs, start, ctx, akey)
    }

    /// Scans an app presented alongside its encoded `SAPK` container
    /// bytes (`sapk` must be the canonical encoding of `apk` — the
    /// daemon's wire payload, a `.sapk` file's contents). The whole-app
    /// fast path is keyed by **one sequential FNV pass over the
    /// container bytes** instead of the structural per-class walk,
    /// which is the dominant cost of an unchanged-app rescan. The
    /// canonical encoding makes the key sound: byte-identical
    /// containers decode to identical apps. A byte-level miss (even a
    /// re-encoding of the same app) degrades to the structural
    /// group-splice tier — never to a wrong report.
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
        self.scan_keyed(tool, apk, app_jobs, start, ctx, akey)
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
        let hit = self.memo_lookup(akey, &package)?;
        if let Some(m) = tool.metrics() {
            m.add(Counter::DeltaUndecodedReplays, 1);
        }
        Some(self.replayed(tool, hit, start))
    }

    /// The shared scan body behind both whole-app keyspaces.
    fn scan_keyed(
        &self,
        tool: &SaintDroid,
        apk: &Apk,
        app_jobs: usize,
        start: Instant,
        ctx: u64,
        akey: u64,
    ) -> (Report, DeltaStats) {
        let total = apk.class_count() as u64;

        // Tier 1: whole-app fast path.
        if let Some(hit) = self.replay(tool, akey, &apk.manifest.package, total) {
            return self.replayed(tool, hit, start);
        }

        // Tier 2: per-group reuse.
        let man = hash::manifest_fingerprint(&apk.manifest);
        let groups = bundled_groups(apk);
        let mut stats = DeltaStats {
            classes_seen: total,
            groups: groups.len(),
            ..DeltaStats::default()
        };
        let mut parts = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut members: Vec<(u32, &ClassDef)> = Vec::with_capacity(group.len());
            for (slot, name) in group {
                match class_at(apk, *slot, name) {
                    Some(def) => members.push((*slot, def)),
                    // Unreachable short of the APK mutating under us;
                    // degrade to a plain full rescan rather than guess.
                    None => return self.full_fallback(tool, apk, app_jobs, start, total),
                }
            }
            let key = hash::group_key(ctx, man, &members);
            let names: Vec<ClassName> = group.iter().map(|(_, n)| n.clone()).collect();
            match self.cached_group(tool, key, &names) {
                Some(art) => {
                    stats.hits += group.len() as u64;
                    parts.push(art.into_parts());
                }
                None => {
                    let sub = project(apk, group);
                    let art = GroupArtifact::new(names, tool.run_parts(&sub, app_jobs));
                    // Persisting is best-effort: a read-only or full
                    // disk slows future scans down, never breaks this
                    // one.
                    let _ = store_io(tool, || self.store.save_group(key, &art));
                    self.memoize_group(key, art.clone());
                    stats.misses += group.len() as u64;
                    stats.reanalyzed += group.len() as u64;
                    parts.push(art.into_parts());
                }
            }
        }

        let mut report = tool.assemble(apk, parts);
        report.duration = start.elapsed();
        record(tool, &report, start, stats);

        let mut stored = report.clone();
        stored.duration = std::time::Duration::ZERO;
        let _ = store_io(tool, || {
            self.store.save_app(
                akey,
                &AppArtifact {
                    report: stored.clone(),
                },
            )
        });
        self.memoize(
            akey,
            Replay {
                report: stored,
                classes: total,
            },
        );
        (report, stats)
    }

    /// Serves one whole-app replay: re-measures `duration`, books the
    /// per-app aggregates, and reports every class as a hit.
    fn replayed(&self, tool: &SaintDroid, hit: Replay, start: Instant) -> (Report, DeltaStats) {
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

    /// Looks the whole-app key up in the replay memo. The package
    /// sanity check guards against the astronomically-unlikely key
    /// collision across apps.
    fn memo_lookup(&self, akey: u64, package: &str) -> Option<Replay> {
        self.memo
            .lock()
            .get(&akey)
            .filter(|hit| hit.report.package == package)
            .cloned()
    }

    /// Looks the whole-app key up in the replay memo, falling back to
    /// the on-disk artifact (and memoizing a disk hit under the app's
    /// class count `classes`).
    fn replay(&self, tool: &SaintDroid, akey: u64, package: &str, classes: u64) -> Option<Replay> {
        if let Some(hit) = self.memo_lookup(akey, package) {
            return Some(hit);
        }
        let art = store_io(tool, || self.store.load_app(akey)).ok()?;
        if art.report.package != package {
            return None;
        }
        let hit = Replay {
            report: art.report,
            classes,
        };
        self.memoize(akey, hit.clone());
        Some(hit)
    }

    /// Inserts into the replay memo, dropping it wholesale at the cap.
    fn memoize(&self, akey: u64, hit: Replay) {
        let mut memo = self.memo.lock();
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert(akey, hit);
    }

    /// Looks a group key up in the group memo, falling back to the
    /// on-disk artifact (and memoizing a disk hit). The member-list
    /// check guards both sources the same way.
    fn cached_group(
        &self,
        tool: &SaintDroid,
        key: u64,
        names: &[ClassName],
    ) -> Option<GroupArtifact> {
        if let Some(art) = self.group_memo.lock().get(&key) {
            if art.members == names {
                return Some(art.clone());
            }
        }
        let art = store_io(tool, || self.store.load_group(key))
            .ok()
            .filter(|a| a.members == names)?;
        self.memoize_group(key, art.clone());
        Some(art)
    }

    /// Inserts into the group memo, dropping it wholesale at the cap.
    fn memoize_group(&self, key: u64, art: GroupArtifact) {
        let mut memo = self.group_memo.lock();
        if memo.len() >= GROUP_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, art);
    }

    /// Plain full rescan, used when the incremental path cannot even
    /// partition the app. Counted as all-miss, all-reanalyzed.
    fn full_fallback(
        &self,
        tool: &SaintDroid,
        apk: &Apk,
        app_jobs: usize,
        start: Instant,
        total: u64,
    ) -> (Report, DeltaStats) {
        let mut report = tool.assemble(apk, vec![tool.run_parts(apk, app_jobs)]);
        report.duration = start.elapsed();
        let stats = DeltaStats {
            classes_seen: total,
            misses: total,
            reanalyzed: total,
            ..DeltaStats::default()
        };
        record(tool, &report, start, stats);
        (report, stats)
    }
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
        let mut forged = scanner.memo.lock()[&akey].clone();
        forged.report.package = "com.other.app".to_string();
        scanner.memoize(akey, forged);
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
