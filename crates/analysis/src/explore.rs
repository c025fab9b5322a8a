//! Worklist exploration of statically analyzable classes — paper
//! Algorithm 1.
//!
//! Starting from a set of root methods (every method of the app's
//! classes — components, callbacks and helpers alike), the explorer
//! pops a method, asks the [`Clvm`] to load and resolve its declaring
//! class, builds the method's control- and data-flow artifacts, appends
//! every discovered callee to the worklist, and chases
//! `DexClassLoader.loadClass`/`Class.forName` string constants into
//! late-bound payload classes. Classes are loaded strictly on demand;
//! the exploration *is* the reachability analysis that makes
//! SAINTDroid's lazy loading sound.

use std::any::Any;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use saint_sync::{Condvar, Mutex};

use saint_ir::{Apk, ClassDef, ClassName, ClassOrigin, Instr, MethodRef};

use crate::absint::{AbsState, AbsVal};
use crate::cfg::Cfg;
use crate::clvm::{Clvm, Resolution};

/// Exploration policy knobs. SAINTDroid uses [`ExploreConfig::saintdroid`];
/// the baselines configure shallower traversals. Delta keys fold its serde encoding.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ExploreConfig {
    /// Follow calls into framework classes and analyze their bodies
    /// (the "beyond the first level" capability, paper §III-A).
    pub follow_framework: bool,
    /// Chase `DexClassLoader.loadClass` / `Class.forName` constants
    /// into late-bound classes (paper §III-A, late binding).
    pub follow_dynamic: bool,
    /// Skip anonymous inner classes (`Foo$1`) — the acknowledged
    /// SAINTDroid limitation (paper §VI), reproduced deliberately.
    pub skip_anonymous: bool,
    /// Load *everything* every provider can serve before exploring —
    /// the monolithic strategy. Only the ablation experiments turn
    /// this on; it exists to quantify what gradual loading buys.
    pub preload_all: bool,
}

impl ExploreConfig {
    /// SAINTDroid's configuration: deep, dynamic-aware, anonymous
    /// classes skipped.
    #[must_use]
    pub fn saintdroid() -> Self {
        ExploreConfig {
            follow_framework: true,
            follow_dynamic: true,
            skip_anonymous: true,
            preload_all: false,
        }
    }

    /// A shallow configuration: stop at the app/framework boundary and
    /// ignore late binding (the CID-style view of the world).
    #[must_use]
    pub fn shallow() -> Self {
        ExploreConfig {
            follow_framework: false,
            follow_dynamic: false,
            skip_anonymous: true,
            preload_all: false,
        }
    }
}

/// Everything the explorer derived about one analyzed method.
#[derive(Debug)]
pub struct MethodArtifacts {
    /// The class declaring the method.
    pub class: Arc<ClassDef>,
    /// Resolved method reference (declaring class + signature).
    pub method: MethodRef,
    /// Where the declaring class came from.
    pub origin: ClassOrigin,
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Abstract register state.
    pub abs: AbsState,
    /// Metered bytes of `cfg` + `abs`, computed once at build time so
    /// every visit (and the report's method ledger) charges a copy.
    pub bytes: usize,
}

/// One call-graph edge discovered during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEdge {
    /// Resolved caller.
    pub caller: MethodRef,
    /// Static target as written at the call site.
    pub target: MethodRef,
    /// Declaring-class resolution of the target, when it stayed inside
    /// the analyzable world.
    pub resolved: Option<MethodRef>,
}

/// A late-binding discovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicLoad {
    /// Method containing the `loadClass`/`forName` call.
    pub site: MethodRef,
    /// Class name recovered from the string constant.
    pub class: ClassName,
    /// Whether the class was found in a bundled payload (vs. loaded
    /// from outside the package, which static analysis cannot see —
    /// paper §III-A caveat).
    pub resolved: bool,
}

/// The exploration result: the analyzed method universe plus the call
/// graph over it.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Artifacts per resolved method (only methods with bodies).
    pub methods: HashMap<MethodRef, Arc<MethodArtifacts>>,
    /// All discovered call edges, in discovery order.
    pub edges: Vec<CallEdge>,
    /// Receiver classes no provider could serve (external / native
    /// terminals).
    pub external_classes: BTreeSet<ClassName>,
    /// Late-binding discoveries.
    pub dynamic_loads: Vec<DynamicLoad>,
    /// Virtual-dispatch resolution of every static call target seen
    /// during exploration (`None` = external / not found). Detectors
    /// reuse this instead of re-resolving.
    pub resolutions: HashMap<MethodRef, Option<MethodRef>>,
    /// Indices into `edges`, grouped by resolved caller (built during
    /// exploration so per-caller edge lookups are O(out-degree)).
    edge_index: HashMap<MethodRef, Vec<u32>>,
}

impl Exploration {
    /// Artifacts of a resolved method.
    #[must_use]
    pub fn artifacts(&self, method: &MethodRef) -> Option<&Arc<MethodArtifacts>> {
        self.methods.get(method)
    }

    /// Outgoing edges of a resolved caller.
    pub fn edges_from<'a>(&'a self, caller: &MethodRef) -> impl Iterator<Item = &'a CallEdge> {
        self.edge_index
            .get(caller)
            .into_iter()
            .flatten()
            .map(|&i| &self.edges[i as usize])
    }

    /// Records an edge, maintaining the per-caller index.
    pub(crate) fn push_edge(&mut self, edge: CallEdge) {
        let idx = self.edges.len() as u32;
        self.edge_index
            .entry(edge.caller.clone())
            .or_default()
            .push(idx);
        self.edges.push(edge);
    }
}

/// Root set helper: every concrete method of every class bundled in
/// the APK's primary dex. Component entry points, framework callbacks
/// and plain helpers are all roots — the conservative ICFG entry set.
#[must_use]
pub fn app_method_roots(apk: &Apk) -> Vec<MethodRef> {
    apk.primary
        .classes()
        .flat_map(|c| {
            c.methods
                .iter()
                .filter(|m| m.body.is_some())
                .map(move |m| m.reference(&c.name))
        })
        .collect()
}

/// Everything one processed method contributed to the exploration, in
/// body order — the unit both the sequential loop and the parallel
/// task pool produce, so the per-method work is identical by
/// construction.
struct MethodVisit {
    resolved: MethodRef,
    art: Arc<MethodArtifacts>,
    edges: Vec<CallEdge>,
    resolutions: Vec<(MethodRef, Option<MethodRef>)>,
    dynamic_loads: Vec<DynamicLoad>,
    externals: Vec<ClassName>,
}

/// What resolving and scanning one worklist target produced.
enum TargetOutcome {
    /// The target resolved to a fresh analyzable method; `Vec` holds
    /// the discovered follow-up targets in body order.
    Visited(Box<MethodVisit>, Vec<MethodRef>),
    /// Resolution left the analyzable world at this class.
    External(ClassName),
    /// Already claimed, unresolvable, or gated out by the config.
    Skipped,
}

/// Resolves one worklist target and, if `claim` accepts the resolved
/// method (first visit), analyzes its body. Shared verbatim between the
/// sequential and the parallel explorer.
fn visit_target<F>(
    clvm: &Clvm,
    config: &ExploreConfig,
    artifact_cache: Option<(&crate::cache::ArtifactCache, saint_ir::ApiLevel)>,
    target: &MethodRef,
    claim: F,
) -> TargetOutcome
where
    F: FnOnce(&MethodRef) -> bool,
{
    let (declaring, resolved) = match clvm.resolve_virtual(target) {
        Resolution::Found { declaring, method } => (declaring, method),
        Resolution::External(class) => return TargetOutcome::External(class),
        Resolution::NotFound => return TargetOutcome::Skipped,
    };
    if !claim(&resolved) {
        return TargetOutcome::Skipped;
    }
    if config.skip_anonymous
        && declaring.name.is_anonymous_inner()
        && !matches!(declaring.origin, ClassOrigin::Framework)
    {
        return TargetOutcome::Skipped;
    }
    if !config.follow_framework && matches!(declaring.origin, ClassOrigin::Framework) {
        // Terminal: the shallow view stops at the framework boundary.
        return TargetOutcome::Skipped;
    }
    let Some(def) = declaring.method(&resolved.signature()) else {
        return TargetOutcome::Skipped;
    };
    let Some(body) = &def.body else {
        return TargetOutcome::Skipped; // abstract / native terminal
    };

    let build = || {
        let cfg = Cfg::build(body);
        let abs = AbsState::analyze(body, &cfg);
        Arc::new(MethodArtifacts {
            class: Arc::clone(&declaring),
            method: resolved.clone(),
            origin: declaring.origin,
            bytes: cfg.size_bytes() + abs.size_bytes(),
            cfg,
            abs,
        })
    };
    let art = match artifact_cache {
        Some((cache, level)) if matches!(declaring.origin, ClassOrigin::Framework) => {
            cache.get_or_build(level, &resolved, build)
        }
        _ => build(),
    };
    // Metered from the artifact's content — the same value whether
    // it was just built or served from the batch cache.
    clvm.meter_ref().record_method(art.bytes);

    let mut visit = MethodVisit {
        resolved: resolved.clone(),
        art: Arc::clone(&art),
        edges: Vec::new(),
        resolutions: Vec::new(),
        dynamic_loads: Vec::new(),
        externals: Vec::new(),
    };
    let mut followups = Vec::new();

    // Scan the body for callees and late-binding sites.
    for (block, bb) in body.iter() {
        for instr in &bb.instrs {
            let Instr::Invoke { method, args, .. } = instr else {
                continue;
            };
            let method: &MethodRef = method;
            let edge_resolved = match clvm.resolve_virtual(method) {
                Resolution::Found { method: m, .. } => Some(m),
                Resolution::External(class) => {
                    visit.externals.push(class);
                    None
                }
                Resolution::NotFound => None,
            };
            visit
                .resolutions
                .push((method.clone(), edge_resolved.clone()));
            visit.edges.push(CallEdge {
                caller: resolved.clone(),
                target: method.clone(),
                resolved: edge_resolved,
            });
            followups.push(method.clone());

            if config.follow_dynamic && is_dynamic_load(method) {
                let env = art.abs.at_entry(block);
                // Recover the first string-constant argument: the
                // class name handed to the loader.
                //
                // NOTE: entry-env is an approximation; constants
                // defined earlier in the same block are found via
                // a forward scan below.
                let mut local = env.clone();
                for earlier in &bb.instrs {
                    if std::ptr::eq(earlier, instr) {
                        break;
                    }
                    local.apply(earlier);
                }
                let name = args.iter().find_map(|r| match local.get(*r) {
                    AbsVal::Str(s) => Some(ClassName::new(s)),
                    _ => None,
                });
                if let Some(class) = name {
                    let loaded = clvm.load_class(&class);
                    let hit = loaded.is_some();
                    if let Some(c) = loaded {
                        for m in c.methods.iter().filter(|m| m.body.is_some()) {
                            followups.push(m.reference(&c.name));
                        }
                    }
                    visit.dynamic_loads.push(DynamicLoad {
                        site: resolved.clone(),
                        class,
                        resolved: hit,
                    });
                }
            }
        }
    }

    TargetOutcome::Visited(Box::new(visit), followups)
}

/// Folds one method's contributions into the exploration result.
fn apply_visit(out: &mut Exploration, visit: MethodVisit) {
    for (target, resolved) in visit.resolutions {
        out.resolutions.insert(target, resolved);
    }
    for edge in visit.edges {
        out.push_edge(edge);
    }
    for class in visit.externals {
        out.external_classes.insert(class);
    }
    out.dynamic_loads.extend(visit.dynamic_loads);
    out.methods.insert(visit.resolved, visit.art);
}

/// Runs Algorithm 1: explores from `roots` through the [`Clvm`].
pub fn explore(
    clvm: &Clvm,
    roots: impl IntoIterator<Item = MethodRef>,
    config: &ExploreConfig,
) -> Exploration {
    explore_cached(clvm, roots, config, None)
}

/// Runs Algorithm 1, optionally serving framework-method artifacts
/// (CFG + abstract state) from a batch-wide [`ArtifactCache`] keyed at
/// `level` — the snapshot level the CLVM's framework provider
/// materializes from. The exploration result (and the per-app meter)
/// is identical either way.
pub fn explore_cached(
    clvm: &Clvm,
    roots: impl IntoIterator<Item = MethodRef>,
    config: &ExploreConfig,
    artifact_cache: Option<(&crate::cache::ArtifactCache, saint_ir::ApiLevel)>,
) -> Exploration {
    saint_faults::trip(saint_faults::FaultPoint::Explore);
    let started = clvm.metrics().map(|_| std::time::Instant::now());
    if config.preload_all {
        clvm.load_everything();
    }
    let mut out = Exploration::default();
    let mut worklist: VecDeque<MethodRef> = roots.into_iter().collect();
    let mut visited_static: HashSet<MethodRef> = HashSet::new();
    let mut claimed: HashSet<MethodRef> = HashSet::new();

    while let Some(target) = worklist.pop_front() {
        if !visited_static.insert(target.clone()) {
            continue;
        }
        match visit_target(clvm, config, artifact_cache, &target, |r| {
            claimed.insert(r.clone())
        }) {
            TargetOutcome::External(class) => {
                out.external_classes.insert(class);
            }
            TargetOutcome::Skipped => {}
            TargetOutcome::Visited(visit, followups) => {
                apply_visit(&mut out, *visit);
                worklist.extend(followups);
            }
        }
    }
    if let (Some(metrics), Some(started)) = (clvm.metrics(), started) {
        metrics.record(saint_obs::Phase::Explore, started.elapsed());
    }
    out
}

/// Shared state of the work-stealing exploration pool.
struct PoolState {
    queue: VecDeque<MethodRef>,
    /// Workers currently processing a target (termination: queue empty
    /// *and* no worker active — an active worker may still enqueue).
    active: usize,
    /// Targets ever enqueued (the sequential loop's `visited_static`).
    visited: HashSet<MethodRef>,
    /// Resolved methods claimed for analysis (exactly-once processing —
    /// what keeps the meter and the artifact set identical to the
    /// sequential run).
    claimed: HashSet<MethodRef>,
    /// Set when a worker's task panicked: peers drain out instead of
    /// exploring a frontier whose result will be discarded anyway.
    failed: bool,
    /// First panic payload observed; re-raised on the calling thread
    /// after every worker has returned, so the pool never leaks a
    /// wedged peer or a half-merged exploration.
    panic_payload: Option<Box<dyn Any + Send>>,
}

struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// Runs Algorithm 1 with `jobs` worker threads sharing one worklist.
///
/// Each task resolves one target method, analyzes its body, and
/// enqueues the discovered callees — the same unit of work the
/// sequential loop performs ([`visit_target`] is shared verbatim).
/// Worker completion order is nondeterministic, so results are merged
/// into the [`Exploration`] sorted by resolved method reference, not by
/// completion: the parallel exploration is deterministic run-to-run,
/// and the derived report is byte-identical to the sequential one (the
/// method universe, the per-caller edge lists, the resolution map and
/// the meter are all order-independent; only the global edge vector's
/// internal arrangement differs, which nothing downstream observes).
///
/// `jobs <= 1` falls back to [`explore_cached`].
pub fn explore_parallel(
    clvm: &Clvm,
    roots: impl IntoIterator<Item = MethodRef>,
    config: &ExploreConfig,
    artifact_cache: Option<(&crate::cache::ArtifactCache, saint_ir::ApiLevel)>,
    jobs: usize,
) -> Exploration {
    if jobs <= 1 {
        return explore_cached(clvm, roots, config, artifact_cache);
    }
    // The `jobs <= 1` fallback trips the injection point and records
    // its own Explore span inside `explore_cached`; this path covers
    // the parallel body only, so every exploration trips and is
    // recorded exactly once.
    saint_faults::trip(saint_faults::FaultPoint::Explore);
    let started = clvm.metrics().map(|_| std::time::Instant::now());
    if config.preload_all {
        clvm.load_everything();
    }

    let mut visited = HashSet::new();
    let mut queue = VecDeque::new();
    for root in roots {
        if visited.insert(root.clone()) {
            queue.push_back(root);
        }
    }
    let pool = Pool {
        state: Mutex::new(PoolState {
            queue,
            active: 0,
            visited,
            claimed: HashSet::new(),
            failed: false,
            panic_payload: None,
        }),
        cv: Condvar::new(),
    };

    let worker = || {
        let mut visits: Vec<MethodVisit> = Vec::new();
        let mut externals: Vec<ClassName> = Vec::new();
        loop {
            let target = {
                let mut st = pool.state.lock();
                loop {
                    if st.failed {
                        break None;
                    }
                    if let Some(t) = st.queue.pop_front() {
                        st.active += 1;
                        break Some(t);
                    }
                    if st.active == 0 {
                        break None;
                    }
                    st = pool.cv.wait(st);
                }
            };
            let Some(target) = target else {
                // Drained (or failed): wake any peer still parked in
                // the wait loop.
                pool.cv.notify_all();
                return (visits, externals);
            };
            // Panic containment: a task that unwinds (a detector-grade
            // bug in one method's analysis, or an injected fault) must
            // not strand its `active` claim — peers parked on the
            // condvar would deadlock waiting for a worker that no
            // longer exists. Catch the unwind, mark the pool failed,
            // and re-raise on the calling thread after the scope joins.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                saint_faults::trip(saint_faults::FaultPoint::ExploreTask);
                visit_target(clvm, config, artifact_cache, &target, |r| {
                    pool.state.lock().claimed.insert(r.clone())
                })
            }));
            let outcome = match caught {
                Ok(outcome) => outcome,
                Err(payload) => {
                    let mut st = pool.state.lock();
                    st.active -= 1;
                    st.failed = true;
                    if st.panic_payload.is_none() {
                        st.panic_payload = Some(payload);
                    }
                    drop(st);
                    pool.cv.notify_all();
                    return (visits, externals);
                }
            };
            let mut followups = Vec::new();
            match outcome {
                TargetOutcome::External(class) => externals.push(class),
                TargetOutcome::Skipped => {}
                TargetOutcome::Visited(visit, f) => {
                    visits.push(*visit);
                    followups = f;
                }
            }
            let mut st = pool.state.lock();
            for t in followups {
                if st.visited.insert(t.clone()) {
                    st.queue.push_back(t);
                }
            }
            st.active -= 1;
            // Targeted wakeups: parked peers are only woken for *surplus*
            // work (two or more pending targets — this worker is about to
            // pop one itself) or for termination. A narrow exploration
            // frontier therefore degrades to one busy worker and silent
            // peers instead of a futex storm per visited method; a missed
            // wakeup only defers parallelism, never progress, because a
            // worker re-checks the queue under the lock before parking
            // and never parks while work is pending.
            let done = st.queue.is_empty() && st.active == 0;
            let surplus = st.queue.len() >= 2;
            drop(st);
            if done {
                pool.cv.notify_all();
            } else if surplus {
                pool.cv.notify_one();
            }
        }
    };

    let results: Vec<(Vec<MethodVisit>, Vec<ClassName>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("explore worker panicked"))
            .collect()
    });

    // All workers returned normally (task panics are caught above), so
    // the scope joined cleanly; if one of them recorded a payload, the
    // exploration as a whole failed — re-raise it here, on the calling
    // thread, where the scan engine's isolation boundary can turn it
    // into a typed report entry.
    if let Some(payload) = pool.state.lock().panic_payload.take() {
        resume_unwind(payload);
    }

    // Deterministic merge: sort by resolved method reference (each
    // method was claimed exactly once, so keys are unique), never by
    // completion order.
    let mut visits: Vec<MethodVisit> = Vec::new();
    let mut out = Exploration::default();
    for (vs, externals) in results {
        visits.extend(vs);
        out.external_classes.extend(externals);
    }
    visits.sort_by(|a, b| a.resolved.cmp(&b.resolved));
    for visit in visits {
        apply_visit(&mut out, visit);
    }
    if let (Some(metrics), Some(started)) = (clvm.metrics(), started) {
        metrics.record(saint_obs::Phase::Explore, started.elapsed());
    }
    out
}

/// Whether a call target is a late-binding entry point.
#[must_use]
pub fn is_dynamic_load(method: &MethodRef) -> bool {
    (&*method.name == "loadClass" && method.class.as_str() == "dalvik.system.DexClassLoader")
        || (&*method.name == "forName" && method.class.as_str() == "java.lang.Class")
}

/// Convenience wrapper: returns all concrete methods of a loaded class
/// as references (used when a dynamically loaded class joins the
/// analysis).
#[must_use]
pub fn concrete_methods(class: &ClassDef) -> Vec<MethodRef> {
    class
        .methods
        .iter()
        .filter(|m| m.body.is_some())
        .map(|m| m.reference(&class.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{FrameworkProvider, PrimaryDexProvider, SecondaryDexProvider};
    use saint_adf::{well_known, AndroidFramework};
    use saint_ir::{ApiLevel, ApkBuilder, BodyBuilder, ClassBuilder, DexFile, InvokeKind};

    fn clvm_for(apk: &Apk) -> Clvm {
        let mut clvm = Clvm::new();
        clvm.add_provider(Box::new(PrimaryDexProvider::new(apk)));
        for dex in &apk.secondary {
            clvm.add_provider(Box::new(SecondaryDexProvider::new(dex)));
        }
        clvm.add_provider(Box::new(FrameworkProvider::new(
            Arc::new(AndroidFramework::curated()),
            ApiLevel::new(28),
        )));
        clvm
    }

    fn simple_apk() -> Apk {
        let helper = ClassBuilder::new("p.Helper", ClassOrigin::App)
            .static_method("work", "()V", |b| {
                b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                |b: &mut BodyBuilder| {
                    b.invoke_static(MethodRef::new("p.Helper", "work", "()V"), &[], None);
                    b.ret_void();
                },
            )
            .unwrap()
            .build();
        ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .class(helper)
            .unwrap()
            .build()
    }

    #[test]
    fn explores_transitively_through_app_methods() {
        let apk = simple_apk();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        assert!(ex
            .artifacts(&MethodRef::new(
                "p.Main",
                "onCreate",
                "(Landroid/os/Bundle;)V"
            ))
            .is_some());
        assert!(ex
            .artifacts(&MethodRef::new("p.Helper", "work", "()V"))
            .is_some());
        // Deep: the framework method body got analyzed too.
        assert!(ex
            .methods
            .keys()
            .any(|m| m.class.as_str() == "android.content.Context"));
    }

    #[test]
    fn shallow_config_stops_at_framework() {
        let apk = simple_apk();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::shallow());
        assert!(ex
            .artifacts(&MethodRef::new("p.Helper", "work", "()V"))
            .is_some());
        assert!(!ex
            .methods
            .keys()
            .any(|m| m.class.as_str().starts_with("android.")));
    }

    #[test]
    fn lazy_loading_touches_only_reachable_classes() {
        let apk = simple_apk();
        let clvm = clvm_for(&apk);
        let _ = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        let loaded = clvm.loaded_count();
        let available = clvm.available_class_names().len();
        assert!(
            loaded * 3 < available,
            "lazy exploration loaded {loaded} of {available} classes"
        );
    }

    #[test]
    fn call_edges_record_resolution() {
        let apk = simple_apk();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        let on_create = MethodRef::new("p.Main", "onCreate", "(Landroid/os/Bundle;)V");
        let edges: Vec<_> = ex.edges_from(&on_create).collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(
            edges[0].resolved.as_ref().map(|m| m.class.as_str()),
            Some("p.Helper")
        );
    }

    #[test]
    fn external_receiver_recorded_as_terminal() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .method("go", "()V", |b| {
                b.invoke_virtual(MethodRef::new("com.vendor.Sdk", "init", "()V"), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(main)
            .unwrap()
            .build();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        assert!(ex
            .external_classes
            .contains(&ClassName::new("com.vendor.Sdk")));
    }

    #[test]
    fn dynamic_payload_classes_fully_analyzed() {
        let mut payload = DexFile::new("assets/plugin.dex");
        payload
            .add_class(
                ClassBuilder::new("plug.Plugin", ClassOrigin::DynamicPayload)
                    .method("run", "()V", |b| {
                        b.invoke_virtual(well_known::context_get_drawable(), &[], None);
                        b.ret_void();
                    })
                    .unwrap()
                    .method("idle", "()V", |b| {
                        b.ret_void();
                    })
                    .unwrap()
                    .build(),
            )
            .unwrap();
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .method("boot", "()V", |b| {
                let loader = b.alloc_reg();
                let name = b.alloc_reg();
                b.new_instance(loader, "dalvik.system.DexClassLoader");
                b.const_str(name, "plug.Plugin");
                b.invoke(
                    InvokeKind::Virtual,
                    well_known::dex_class_loader_load_class(),
                    &[loader, name],
                    None,
                );
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(main)
            .unwrap()
            .secondary_dex(payload)
            .build();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        assert_eq!(ex.dynamic_loads.len(), 1);
        assert!(ex.dynamic_loads[0].resolved);
        // Every method of the payload class was analyzed.
        assert!(ex
            .artifacts(&MethodRef::new("plug.Plugin", "run", "()V"))
            .is_some());
        assert!(ex
            .artifacts(&MethodRef::new("plug.Plugin", "idle", "()V"))
            .is_some());
    }

    #[test]
    fn unresolvable_dynamic_load_recorded() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .method("boot", "()V", |b| {
                let name = b.alloc_reg();
                b.const_str(name, "remote.Downloaded");
                b.invoke_static(
                    MethodRef::new(
                        "java.lang.Class",
                        "forName",
                        "(Ljava/lang/String;)Ljava/lang/Class;",
                    ),
                    &[name],
                    None,
                );
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(main)
            .unwrap()
            .build();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        assert_eq!(ex.dynamic_loads.len(), 1);
        assert!(!ex.dynamic_loads[0].resolved);
    }

    #[test]
    fn anonymous_inner_classes_skipped() {
        let anon = ClassBuilder::new("p.Main$1", ClassOrigin::App)
            .extends("android.webkit.WebViewClient")
            .method(
                "onPageCommitVisible",
                "(Landroid/webkit/WebView;Ljava/lang/String;)V",
                |b| {
                    b.ret_void();
                },
            )
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(19), ApiLevel::new(28))
            .class(anon)
            .unwrap()
            .build();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        assert!(
            ex.methods.is_empty(),
            "anonymous inner class must be invisible"
        );
    }

    #[test]
    fn recursive_calls_terminate() {
        let rec = ClassBuilder::new("p.R", ClassOrigin::App)
            .static_method("f", "()V", |b| {
                b.invoke_static(MethodRef::new("p.R", "g", "()V"), &[], None);
                b.ret_void();
            })
            .unwrap()
            .static_method("g", "()V", |b| {
                b.invoke_static(MethodRef::new("p.R", "f", "()V"), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(rec)
            .unwrap()
            .build();
        let clvm = clvm_for(&apk);
        let ex = explore(&clvm, app_method_roots(&apk), &ExploreConfig::saintdroid());
        assert_eq!(ex.methods.len(), 2);
    }

    /// Asserts the observable exploration state (method universe,
    /// per-caller edges, resolution map, dynamic loads, externals) and
    /// the meter are identical between two runs.
    fn assert_exploration_parity(apk: &Apk, jobs: usize) {
        let seq_clvm = clvm_for(apk);
        let seq = explore(
            &seq_clvm,
            app_method_roots(apk),
            &ExploreConfig::saintdroid(),
        );
        let par_clvm = clvm_for(apk);
        let par = explore_parallel(
            &par_clvm,
            app_method_roots(apk),
            &ExploreConfig::saintdroid(),
            None,
            jobs,
        );
        let keys = |ex: &Exploration| {
            let mut v: Vec<_> = ex.methods.keys().cloned().collect();
            v.sort();
            v
        };
        assert_eq!(
            keys(&seq),
            keys(&par),
            "method universe differs at jobs={jobs}"
        );
        for m in seq.methods.keys() {
            let se: Vec<_> = seq.edges_from(m).cloned().collect();
            let pe: Vec<_> = par.edges_from(m).cloned().collect();
            assert_eq!(se, pe, "edges from {m} differ at jobs={jobs}");
        }
        assert_eq!(seq.resolutions, par.resolutions);
        assert_eq!(seq.external_classes, par.external_classes);
        let loads = |ex: &Exploration| {
            let mut v = ex.dynamic_loads.clone();
            v.sort_by(|a, b| (&a.site, &a.class).cmp(&(&b.site, &b.class)));
            v
        };
        assert_eq!(
            loads(&seq),
            loads(&par),
            "dynamic loads differ at jobs={jobs}"
        );
        assert_eq!(
            seq_clvm.meter(),
            par_clvm.meter(),
            "meter differs at jobs={jobs}"
        );
    }

    #[test]
    fn parallel_exploration_matches_sequential() {
        for jobs in [2, 4, 8] {
            assert_exploration_parity(&simple_apk(), jobs);
        }
    }

    #[test]
    fn parallel_exploration_matches_on_dynamic_loads() {
        let mut payload = DexFile::new("assets/plugin.dex");
        payload
            .add_class(
                ClassBuilder::new("plug.Plugin", ClassOrigin::DynamicPayload)
                    .method("run", "()V", |b| {
                        b.invoke_virtual(well_known::context_get_drawable(), &[], None);
                        b.ret_void();
                    })
                    .unwrap()
                    .build(),
            )
            .unwrap();
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .method("boot", "()V", |b| {
                let loader = b.alloc_reg();
                let name = b.alloc_reg();
                b.new_instance(loader, "dalvik.system.DexClassLoader");
                b.const_str(name, "plug.Plugin");
                b.invoke(
                    InvokeKind::Virtual,
                    well_known::dex_class_loader_load_class(),
                    &[loader, name],
                    None,
                );
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(main)
            .unwrap()
            .secondary_dex(payload)
            .build();
        assert_exploration_parity(&apk, 4);
    }

    #[test]
    fn parallel_with_one_job_is_sequential() {
        let apk = simple_apk();
        let clvm = clvm_for(&apk);
        let ex = explore_parallel(
            &clvm,
            app_method_roots(&apk),
            &ExploreConfig::saintdroid(),
            None,
            1,
        );
        let clvm2 = clvm_for(&apk);
        let seq = explore(&clvm2, app_method_roots(&apk), &ExploreConfig::saintdroid());
        assert_eq!(ex.methods.len(), seq.methods.len());
    }
}
