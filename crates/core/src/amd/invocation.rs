//! API invocation mismatch detection — paper Algorithm 2.
//!
//! Walks every execution context of the app: starting from the
//! call-graph roots (component callbacks and uncalled methods), each
//! method is scanned under the level range that reaches it. Guard
//! conditions narrow the range per block (path sensitivity); calls into
//! user-defined methods recurse with the caller's refined range
//! (context sensitivity, Alg. 2 lines 8–9); calls into framework
//! methods are checked against the API database *and then followed
//! into the framework body* — the beyond-first-level capability that
//! distinguishes SAINTDroid from CID.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use saint_sync::RwLock;

use saint_adf::{ApiDatabase, LifeSpan};
use saint_analysis::{BlockRanges, CacheStats, MethodArtifacts};
use saint_ir::{ApiLevel, ClassOrigin, Instr, LevelRange, MethodRef};

use crate::aum::{is_app_origin, AppModel};
use crate::mismatch::{missing_levels_in, Mismatch, MismatchKind};

const MAX_DEPTH: usize = 48;

/// One mismatch found inside a framework subtree, stored relative to
/// the subtree root: `via` begins with the root method itself, and
/// `context` is the guard-refined range at the offending call site
/// inside the framework body.
#[derive(Debug, Clone)]
struct DeepFinding {
    api: MethodRef,
    life: LifeSpan,
    missing: Vec<ApiLevel>,
    context: LevelRange,
    via: Vec<MethodRef>,
}

/// A cached framework-subtree scan.
#[derive(Clone)]
enum Cached {
    /// The subtree stayed inside framework code: its findings depend
    /// only on the key and replay at any app call site.
    Findings(Arc<Vec<DeepFinding>>),
    /// The subtree descended back into app code (callback dispatch),
    /// so its results are app-specific — always scan it in line.
    Inline,
}

/// A cache of framework-subtree scan results, keyed by
/// `(snapshot level, subtree root, incoming level range)`.
///
/// The beyond-first-level descent — following a call from app code into
/// the framework body and scanning everything below it — is by far the
/// dominant cost of invocation detection, and its result is
/// app-invariant: the framework snapshot at a given level is the same
/// for every app, so the mismatches found under `F` entered with range
/// `R` are the same wherever `F` is called from. Only the *attribution*
/// (which app method is the site, the `via` prefix) differs, and that
/// is recomputed at replay time.
///
/// Subtrees that re-enter app code (framework dispatching a callback)
/// are app-specific; they are marked [`Cached::Inline`] and scanned the
/// old way.
///
/// A single-app scan uses a private per-app cache (collapsing repeated
/// sites within one app); the batch engine shares one instance across a
/// whole corpus so only the first app to reach a subtree pays for it.
#[derive(Default)]
pub struct DeepScanCache {
    map: RwLock<HashMap<(ApiLevel, MethodRef, LevelRange), Cached>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DeepScanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Activity counters (hits, misses, cached subtrees). Maintains
    /// `hits + misses == lookups`: every probe — including speculative
    /// prewarm computations, which count as misses — resolves to
    /// exactly one outcome.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().len() as u64,
        }
    }
}

impl std::fmt::Debug for DeepScanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("DeepScanCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// The sequential detection pass, serving framework-subtree scans from
/// (and filling) `cache`, with each context root's findings kept in
/// its own bucket. Buckets come back in sorted root order, and the memo
/// is shared across roots, so a bucket's contents depend on the roots
/// scanned before it. The incremental layer scans disjoint root subsets
/// separately and re-interleaves their buckets by root to reproduce the
/// full-scan finding order byte-for-byte.
fn detect_rooted_with(
    model: &AppModel,
    db: &ApiDatabase,
    cache: &DeepScanCache,
) -> Vec<(MethodRef, Vec<Mismatch>)> {
    let mut ctx = Ctx {
        model,
        db,
        memo: HashSet::new(),
        out: Vec::new(),
        cache: Some(cache),
        cacheable: true,
        collect: None,
        sites: 0,
    };
    let roots = context_roots(model, db);
    let mut rooted = Vec::with_capacity(roots.len());
    for root in roots {
        let Some(art) = model.exploration.artifacts(&root) else {
            continue;
        };
        let art = Arc::clone(art);
        let mut chain = Vec::new();
        let start = ctx.out.len();
        ctx.scan(&art, model.supported, &mut chain);
        let bucket = ctx.out.split_off(start);
        rooted.push((root, bucket));
    }
    // Site accounting is kept in a plain per-run counter and merged
    // into the shared registry once at the end — the lock-cheap shard
    // pattern; subtree replays and prewarm walks are excluded, so the
    // number means "call sites inspected by this detection pass".
    if let Some(metrics) = model.clvm.metrics() {
        metrics.add(saint_obs::Counter::InvocationSitesScanned, ctx.sites);
    }
    rooted
}

/// Detects API invocation mismatches with `jobs` worker threads
/// computing the deep framework-subtree descents concurrently — the
/// flattening of [`detect_rooted_parallel`].
///
/// The subtree computations are app-invariant (keyed by snapshot level,
/// root and incoming range — see [`DeepScanCache`]), so prewarming the
/// cache in parallel and then running the ordinary sequential pass
/// yields results identical to `jobs = 1`: the sequential pass finds
/// every subtree already cached and replays it at each site in
/// deterministic order. Likewise `cache` changes only where the
/// subtree work happens, never the results.
#[must_use]
pub fn detect_parallel(
    model: &AppModel,
    db: &ApiDatabase,
    cache: &DeepScanCache,
    jobs: usize,
) -> Vec<Mismatch> {
    detect_rooted_parallel(model, db, cache, jobs)
        .into_iter()
        .flat_map(|(_, bucket)| bucket)
        .collect()
}

/// The detection pass with parallel subtree prewarming, each context
/// root's findings in its own bucket (in sorted root order);
/// flattening the buckets is [`detect_parallel`].
#[must_use]
pub fn detect_rooted_parallel(
    model: &AppModel,
    db: &ApiDatabase,
    cache: &DeepScanCache,
    jobs: usize,
) -> Vec<(MethodRef, Vec<Mismatch>)> {
    // Prewarming pays for an extra boundary-collection walk with
    // concurrent subtree computation; on a single-core host the walks
    // serialize and the speculation is a pure loss, so it is gated on
    // actual hardware parallelism, not just the requested job count.
    // Either way the detection pass below computes the same results
    // (uncached boundaries are simply scanned in line).
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if jobs > 1 && cores > 1 {
        prewarm_subtrees(model, db, cache, jobs);
    }
    detect_rooted_with(model, db, cache)
}

/// Walks the app-side execution contexts *without* descending into
/// framework bodies, collecting every app→framework boundary descent
/// `(root, artifacts, range)` the detection pass will take, then
/// computes each subtree not already cached on `jobs` workers.
///
/// Boundaries only reachable through `Cached::Inline` subtrees
/// (framework code dispatching back into the app) are not collected
/// here; the detection pass simply computes those in line, exactly as
/// it would without prewarming.
fn prewarm_subtrees(model: &AppModel, db: &ApiDatabase, cache: &DeepScanCache, jobs: usize) {
    let mut ctx = Ctx {
        model,
        db,
        memo: HashSet::new(),
        out: Vec::new(),
        cache: None,
        cacheable: true,
        collect: Some(Vec::new()),
        sites: 0,
    };
    for root in context_roots(model, db) {
        let Some(art) = model.exploration.artifacts(&root) else {
            continue;
        };
        let art = Arc::clone(art);
        let mut chain = Vec::new();
        ctx.scan(&art, model.supported, &mut chain);
    }

    let mut seen: HashSet<(MethodRef, LevelRange)> = HashSet::new();
    let todo: Vec<(MethodRef, Arc<MethodArtifacts>, LevelRange)> = ctx
        .collect
        .expect("prewarm context carries a collector")
        .into_iter()
        .filter(|(root, _, range)| seen.insert((root.clone(), *range)))
        .filter(|(root, _, range)| {
            let key = (model.target, root.clone(), *range);
            !cache.map.read().contains_key(&key)
        })
        .collect();

    crate::engine::par_map(jobs, &todo, |_, (root, art, range)| {
        let sub = Ctx {
            model,
            db,
            memo: HashSet::new(),
            out: Vec::new(),
            cache: None,
            cacheable: true,
            collect: None,
            sites: 0,
        };
        let computed = sub.compute_subtree(art, *range);
        cache.lookups.fetch_add(1, Ordering::Relaxed);
        cache.misses.fetch_add(1, Ordering::Relaxed);
        let key = (model.target, root.clone(), *range);
        cache.map.write().entry(key).or_insert(computed);
    });
}

/// The methods whose incoming level range is the app's full supported
/// span: methods never called from other analyzed package methods
/// (entry points) plus methods overriding framework APIs (the
/// framework invokes those at whatever level the device runs).
#[must_use]
pub fn context_roots(model: &AppModel, db: &ApiDatabase) -> Vec<MethodRef> {
    let mut called: HashSet<&MethodRef> = HashSet::new();
    for edge in &model.exploration.edges {
        if let Some(resolved) = &edge.resolved {
            // Only in-package callers constrain the context: a call
            // from framework code can happen at any device level.
            let caller_is_app = model
                .exploration
                .artifacts(&edge.caller)
                .is_some_and(|a| is_app_origin(a.origin));
            if caller_is_app {
                called.insert(resolved);
            }
        }
    }
    let mut roots: Vec<MethodRef> = model
        .exploration
        .methods
        .values()
        .filter(|a| is_app_origin(a.origin))
        .filter(|a| {
            if !called.contains(&a.method) {
                return true;
            }
            // Overrides of framework methods are additionally invoked
            // by the platform itself, unconstrained by app-side guards.
            model
                .framework_ancestor(&a.method.class)
                .and_then(|fw| db.overridden_callback(fw, &a.method.signature()))
                .is_some()
        })
        .map(|a| a.method.clone())
        .collect();

    // Methods stuck in call-graph cycles with no entry from outside
    // (mutual recursion) have in-degree > 0 everywhere; promote one
    // representative per uncovered cycle until every app method is
    // reachable from some root.
    let mut reachable: HashSet<MethodRef> = HashSet::new();
    let mut frontier: Vec<MethodRef> = roots.clone();
    let close = |frontier: &mut Vec<MethodRef>, reachable: &mut HashSet<MethodRef>| {
        while let Some(m) = frontier.pop() {
            if !reachable.insert(m.clone()) {
                continue;
            }
            for e in model.exploration.edges_from(&m) {
                if let Some(r) = &e.resolved {
                    if !reachable.contains(r) {
                        frontier.push(r.clone());
                    }
                }
            }
        }
    };
    close(&mut frontier, &mut reachable);
    let mut uncovered: Vec<MethodRef> = model
        .exploration
        .methods
        .values()
        .filter(|a| is_app_origin(a.origin) && !reachable.contains(&a.method))
        .map(|a| a.method.clone())
        .collect();
    uncovered.sort();
    for m in uncovered {
        if reachable.contains(&m) {
            continue;
        }
        roots.push(m.clone());
        let mut frontier = vec![m];
        close(&mut frontier, &mut reachable);
    }
    // Stable report order regardless of hash-map iteration.
    roots.sort();
    roots
}

struct Ctx<'a> {
    model: &'a AppModel,
    db: &'a ApiDatabase,
    memo: HashSet<(MethodRef, LevelRange, Option<MethodRef>)>,
    out: Vec<Mismatch>,
    /// Subtree cache for app→framework boundary descents. `None` inside
    /// a subtree computation (sub-scans run fully in line).
    cache: Option<&'a DeepScanCache>,
    /// Cleared when a sub-scan touches an app-origin frame, poisoning
    /// the subtree for caching.
    cacheable: bool,
    /// Prewarm mode: instead of descending into framework subtrees,
    /// record each boundary `(root, artifacts, range)` here.
    collect: Option<Vec<(MethodRef, Arc<MethodArtifacts>, LevelRange)>>,
    /// Call sites inspected by this context (merged into the metrics
    /// registry once per detection pass, never per site).
    sites: u64,
}

impl Ctx<'_> {
    fn scan(&mut self, art: &MethodArtifacts, incoming: LevelRange, chain: &mut Vec<MethodRef>) {
        if chain.len() >= MAX_DEPTH {
            return;
        }
        let caller_is_app = is_app_origin(art.origin);
        if self.cache.is_none() && caller_is_app {
            // A subtree computation descended back into app code: its
            // findings are app-specific and must not be shared.
            self.cacheable = false;
        }
        // Memoization: app methods are context-keyed by (method, range)
        // alone — any mismatch found inside is attributed to that
        // method itself. Framework methods additionally key on the
        // *app site* currently on the chain: the same framework subtree
        // reached from two different app sites must yield a finding at
        // each site, not just the first one explored.
        let key_site = (!caller_is_app && !chain.is_empty()).then(|| self.attribute(chain).0);
        if !self.memo.insert((art.method.clone(), incoming, key_site)) {
            return;
        }
        let Some(def) = art.class.method(&art.method.signature()) else {
            return;
        };
        let Some(body) = &def.body else { return };
        chain.push(art.method.clone());

        let ranges = BlockRanges::analyze(body, &art.cfg, &art.abs, incoming);
        for (block, range) in ranges.iter() {
            for instr in &body.block(block).instrs {
                let Instr::Invoke { method: target, .. } = instr else {
                    continue;
                };
                self.check_call(target, range, chain, caller_is_app);
            }
        }
        chain.pop();
    }

    fn check_call(
        &mut self,
        target: &MethodRef,
        range: LevelRange,
        chain: &mut Vec<MethodRef>,
        caller_is_app: bool,
    ) {
        self.sites += 1;
        let resolved = self
            .model
            .exploration
            .resolutions
            .get(target)
            .cloned()
            .flatten();

        // Determine the framework API this call reaches, if any. The
        // CLVM resolution (at the target snapshot) wins; the database
        // fallback covers APIs absent from the snapshot entirely —
        // removed classes like org.apache.http (forward compatibility).
        let api = match &resolved {
            Some(r) if self.db.is_api_method(r) => {
                self.db.method_lifespan(r).map(|life| (r.clone(), life))
            }
            _ => self.db.resolve(&target.class, &target.signature()),
        };

        if let Some((api_ref, life)) = api {
            let missing = missing_levels_in(range, life);
            if !missing.is_empty() {
                let (site, via) = self.attribute(chain);
                self.out.push(Mismatch {
                    kind: MismatchKind::ApiInvocation,
                    site,
                    api: api_ref,
                    api_life: Some(life),
                    missing_levels: missing,
                    context: Some(range),
                    permission: None,
                    via,
                });
            }
        }

        // Context-sensitive descent: user-defined callees (Alg. 2
        // lines 8–9) and framework bodies (beyond-first-level) are
        // analyzed under the refined range of this call site.
        if let Some(r) = resolved {
            if let Some(callee) = self.model.exploration.artifacts(&r) {
                let callee = Arc::clone(callee);
                if caller_is_app && matches!(callee.origin, ClassOrigin::Framework) {
                    if let Some(list) = &mut self.collect {
                        list.push((r.clone(), callee, range));
                        return;
                    }
                    if let Some(cache) = self.cache {
                        self.enter_framework(cache, &r, &callee, range, chain);
                        return;
                    }
                }
                self.scan(&callee, range, chain);
            }
        }
    }

    /// Crosses the app→framework boundary: serves the subtree's
    /// findings from the cache (attributing them to the current site)
    /// instead of re-scanning the framework body, computing and caching
    /// them on first visit.
    fn enter_framework(
        &mut self,
        cache: &DeepScanCache,
        root: &MethodRef,
        art: &Arc<MethodArtifacts>,
        range: LevelRange,
        chain: &mut Vec<MethodRef>,
    ) {
        let (site, via_prefix) = self.attribute(chain);
        // Same suppression the in-line scan's memo applies: one visit
        // of a given subtree context per app site.
        let memo_key = (root.clone(), range, Some(site.clone()));
        if self.memo.contains(&memo_key) {
            return;
        }
        let key = (self.model.target, root.clone(), range);
        cache.lookups.fetch_add(1, Ordering::Relaxed);
        let entry = cache.map.read().get(&key).cloned();
        let entry = match entry {
            Some(e) => {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                e
            }
            None => {
                cache.misses.fetch_add(1, Ordering::Relaxed);
                let computed = self.compute_subtree(art, range);
                // First insert wins if two workers raced on the key.
                cache.map.write().entry(key).or_insert(computed).clone()
            }
        };
        match entry {
            // App-specific subtree: scan it in line, exactly as without
            // a cache (`scan` maintains the memo itself).
            Cached::Inline => self.scan(art, range, chain),
            Cached::Findings(findings) => {
                self.memo.insert(memo_key);
                for f in findings.iter() {
                    let mut via = via_prefix.clone();
                    via.extend(f.via.iter().cloned());
                    self.out.push(Mismatch {
                        kind: MismatchKind::ApiInvocation,
                        site: site.clone(),
                        api: f.api.clone(),
                        api_life: Some(f.life),
                        missing_levels: f.missing.clone(),
                        context: Some(f.context),
                        permission: None,
                        via,
                    });
                }
            }
        }
    }

    /// Scans a framework subtree in a fresh context (empty chain, fresh
    /// memo) and packages its findings relative to the subtree root.
    fn compute_subtree(&self, root: &Arc<MethodArtifacts>, range: LevelRange) -> Cached {
        let mut sub = Ctx {
            model: self.model,
            db: self.db,
            memo: HashSet::new(),
            out: Vec::new(),
            cache: None,
            cacheable: true,
            collect: None,
            sites: 0,
        };
        let mut chain = Vec::new();
        sub.scan(root, range, &mut chain);
        if !sub.cacheable {
            return Cached::Inline;
        }
        let findings = sub
            .out
            .into_iter()
            .map(|m| {
                // With an all-framework chain, `attribute` fell back to
                // the subtree root as the site; fold it back into the
                // hop chain so replay can prepend the real site.
                let mut via = vec![m.site];
                via.extend(m.via);
                DeepFinding {
                    api: m.api,
                    life: m.api_life.expect("invocation findings carry a lifespan"),
                    missing: m.missing_levels,
                    context: m.context.expect("invocation findings carry a context"),
                    via,
                }
            })
            .collect();
        Cached::Findings(Arc::new(findings))
    }

    /// Splits the current chain into (site, via): the site is the last
    /// in-package method on the chain; everything below it (framework
    /// hops) goes into `via`.
    fn attribute(&self, chain: &[MethodRef]) -> (MethodRef, Vec<MethodRef>) {
        let split = chain
            .iter()
            .rposition(|m| {
                self.model
                    .exploration
                    .artifacts(m)
                    .is_some_and(|a| is_app_origin(a.origin))
            })
            .unwrap_or(0);
        (chain[split].clone(), chain[split + 1..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aum::Aum;
    use saint_adf::{well_known, AndroidFramework};
    use saint_analysis::ExploreConfig;
    use saint_ir::{ApiLevel, Apk, ApkBuilder, BodyBuilder, ClassBuilder, ClassOrigin};
    use std::sync::Arc;

    fn analyze(apk: &Apk) -> Vec<Mismatch> {
        let fw = Arc::new(AndroidFramework::curated());
        let model = Aum::build(apk, &fw, &ExploreConfig::saintdroid());
        detect_parallel(&model, &fw.database(), &DeepScanCache::new(), 1)
    }

    fn apk_with_oncreate(min: u8, target: u8, f: impl FnOnce(&mut BodyBuilder)) -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", f)
            .unwrap()
            .build();
        ApkBuilder::new("p", ApiLevel::new(min), ApiLevel::new(target))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build()
    }

    #[test]
    fn unguarded_new_api_flagged() {
        // Listing 1: min 21, calls getColorStateList (API 23) unguarded.
        let apk = apk_with_oncreate(21, 28, |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        });
        let ms = analyze(&apk);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].kind, MismatchKind::ApiInvocation);
        assert_eq!(
            ms[0].missing_levels,
            vec![ApiLevel::new(21), ApiLevel::new(22)]
        );
        assert!(!ms[0].is_deep());
    }

    #[test]
    fn guarded_call_is_quiet() {
        let apk = apk_with_oncreate(21, 28, |b| {
            let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
            b.switch_to(then_blk);
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.goto(join);
            b.switch_to(join);
            b.ret_void();
        });
        assert!(analyze(&apk).is_empty());
    }

    #[test]
    fn cross_method_guard_respected() {
        // onCreate guards, helper calls the API: context sensitivity.
        let helper = ClassBuilder::new("p.Helper", ClassOrigin::App)
            .static_method("tint", "()V", |b| {
                b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
                b.switch_to(then_blk);
                b.invoke_static(MethodRef::new("p.Helper", "tint", "()V"), &[], None);
                b.goto(join);
                b.switch_to(join);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .class(helper)
            .unwrap()
            .build();
        assert!(analyze(&apk).is_empty(), "guard must propagate into callee");
    }

    #[test]
    fn unguarded_helper_called_from_unguarded_root_flagged() {
        let helper = ClassBuilder::new("p.Helper", ClassOrigin::App)
            .static_method("tint", "()V", |b| {
                b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_static(MethodRef::new("p.Helper", "tint", "()V"), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .class(helper)
            .unwrap()
            .build();
        let ms = analyze(&apk);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].site.class.as_str(), "p.Helper");
    }

    #[test]
    fn removed_api_forward_mismatch() {
        // App supports 21..=28 and still calls Apache HttpClient
        // (removed at 23).
        let apk = apk_with_oncreate(21, 28, |b| {
            b.invoke_virtual(well_known::http_client_execute(), &[], None);
            b.ret_void();
        });
        let ms = analyze(&apk);
        assert_eq!(ms.len(), 1);
        let missing: Vec<u8> = ms[0].missing_levels.iter().map(|l| l.get()).collect();
        // Undeclared maxSdkVersion defaults to the top of the modeled
        // range (29).
        assert_eq!(missing, vec![23, 24, 25, 26, 27, 28, 29]);
    }

    #[test]
    fn deep_framework_path_detected() {
        // App calls TintHelper.applyTint (present at all levels); its
        // body reaches View.setForeground (API 23). CID-style tools
        // stop at applyTint; SAINTDroid walks in.
        let apk = apk_with_oncreate(21, 28, |b| {
            b.invoke_virtual(well_known::tint_helper_apply_tint(), &[], None);
            b.ret_void();
        });
        let ms = analyze(&apk);
        assert_eq!(ms.len(), 1);
        assert!(ms[0].is_deep());
        assert_eq!(ms[0].api.class.as_str(), "android.view.View");
        assert_eq!(ms[0].site.class.as_str(), "p.Main");
    }

    #[test]
    fn three_hop_deep_chain_detected() {
        let apk = apk_with_oncreate(21, 28, |b| {
            b.invoke_virtual(well_known::font_facade_apply_font(), &[], None);
            b.ret_void();
        });
        let ms = analyze(&apk);
        assert_eq!(ms.len(), 1);
        assert!(
            ms[0].via.len() >= 2,
            "expected ≥2 framework hops, got {:?}",
            ms[0].via
        );
        assert_eq!(ms[0].api.class.as_str(), "android.content.res.Resources");
    }

    #[test]
    fn internally_guarded_compat_shim_is_quiet() {
        // ResourcesCompat guards its API-23 call internally; deep
        // analysis must respect the in-framework guard.
        let apk = apk_with_oncreate(19, 28, |b| {
            b.invoke_virtual(well_known::resources_compat_get_csl(), &[], None);
            b.ret_void();
        });
        assert!(analyze(&apk).is_empty());
    }

    #[test]
    fn app_within_api_lifetime_is_quiet() {
        // min 23: getColorStateList exists everywhere in range.
        let apk = apk_with_oncreate(23, 28, |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        });
        assert!(analyze(&apk).is_empty());
    }

    #[test]
    fn inherited_api_call_resolved_through_app_class() {
        // p.Main extends Activity and calls this.getFragmentManager()
        // (API 11) with min 8 — the CID-Bench "Inheritance" pattern.
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_virtual(
                    MethodRef::new(
                        "p.Main",
                        "getFragmentManager",
                        "()Landroid/app/FragmentManager;",
                    ),
                    &[],
                    None,
                );
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(8), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        let ms = analyze(&apk);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].api.class.as_str(), "android.app.Activity");
        let missing: Vec<u8> = ms[0].missing_levels.iter().map(|l| l.get()).collect();
        assert_eq!(missing, vec![8, 9, 10]);
    }

    #[test]
    fn callback_roots_ignore_internal_guarded_callers() {
        // onResume() is also *called* from a guarded helper, but as an
        // Activity callback the framework invokes it at every level —
        // its unguarded API call must still be flagged.
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onResume", "()V", |b| {
                b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .method("refresh", "()V", |b| {
                let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
                b.switch_to(then_blk);
                b.invoke_virtual(MethodRef::new("p.Main", "onResume", "()V"), &[], None);
                b.goto(join);
                b.switch_to(join);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        let ms = analyze(&apk);
        assert_eq!(
            ms.len(),
            1,
            "callback must be re-scanned with the full range"
        );
        assert_eq!(
            ms[0].missing_levels,
            vec![ApiLevel::new(21), ApiLevel::new(22)]
        );
    }

    #[test]
    fn recursive_app_methods_terminate() {
        let rec = ClassBuilder::new("p.R", ClassOrigin::App)
            .static_method("f", "()V", |b| {
                b.invoke_static(MethodRef::new("p.R", "f", "()V"), &[], None);
                b.invoke_virtual(well_known::context_get_drawable(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(19), ApiLevel::new(28))
            .class(rec)
            .unwrap()
            .build();
        let ms = analyze(&apk);
        assert_eq!(ms.len(), 1); // getDrawable (21) missing at 19,20
    }

    #[test]
    fn prewarmed_cache_detection_matches_plain() {
        // Exercises `prewarm_subtrees` directly (the `detect_parallel`
        // hardware gate may skip it on single-core hosts): collecting
        // boundaries, computing subtrees on workers, and then running
        // the ordinary pass over the warm cache must reproduce the
        // plain run's mismatches, order included.
        let apk = apk_with_oncreate(21, 28, |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.invoke_virtual(well_known::context_get_drawable(), &[], None);
            b.ret_void();
        });
        let fw = Arc::new(AndroidFramework::curated());
        let model = Aum::build(&apk, &fw, &ExploreConfig::saintdroid());
        let db = fw.database();
        let plain = detect_parallel(&model, &db, &DeepScanCache::new(), 1);

        let cache = DeepScanCache::new();
        prewarm_subtrees(&model, &db, &cache, 4);
        let warmed = cache.stats();
        assert!(warmed.entries > 0, "prewarm must compute boundary subtrees");
        let prewarmed = detect_parallel(&model, &db, &cache, 1);
        assert_eq!(plain, prewarmed);
        assert!(
            cache.stats().hits > 0,
            "the detection pass must replay the prewarmed subtrees"
        );
    }
}
