//! CID (Li et al., "CiD: automating the detection of API-related
//! compatibility issues in Android apps") — reimplemented from its
//! published strategy, including the blind spots the SAINTDroid paper
//! documents:
//!
//! * **monolithic loading** (paper §II-D): CID "first load[s] all code
//!   in the project and then perform[s] analysis on the loaded code" —
//!   here the entire app *and* the framework snapshot are materialized
//!   and graphed up front, which is what costs it the 4× memory and the
//!   Table-III time;
//! * **first-level only** (paper §II-D): "CID only analyzes the initial
//!   API call and does not analyze subsequent calls within the ADF" —
//!   deep facade paths are invisible;
//! * **intraprocedural guards** (paper §V-A): "CID is not
//!   context-sensitive and does not track guard conditions across
//!   function calls" — a guard in the caller does not protect a call in
//!   the callee;
//! * **API level ceiling** (paper §VII): "CID supports compatibility
//!   analysis up to API level 25" — APIs introduced later are simply
//!   absent from its model;
//! * **fragility**: CID "fails to completely analyze four apps"
//!   (Table III dashes); the reproduced failure mode is multi-dex /
//!   late-bound payloads, which its loader cannot process.

use std::sync::Arc;
use std::time::Instant;

use saint_adf::spec::LifeSpan;
use saint_adf::{AndroidFramework, ApiDatabase};
use saint_analysis::{
    AbsState, BlockRanges, Cfg, Clvm, FrameworkProvider, PrimaryDexProvider, Resolution,
};
use saint_ir::{ApiLevel, Apk, ClassOrigin, Instr, LevelRange, MethodRef};
use saintdroid::{
    missing_levels_in, CompatDetector, DetectorSet, Family, Mismatch, MismatchKind, Report,
};

/// The highest API level CID's model covers.
pub const CID_MAX_LEVEL: ApiLevel = ApiLevel::new(25);

/// The CID baseline detector.
pub struct Cid {
    framework: Arc<AndroidFramework>,
}

impl Cid {
    /// Creates CID over a framework model.
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>) -> Self {
        Cid { framework }
    }

    /// CID's view of an API lifetime: unknown beyond level 25.
    fn lifespan(&self, db: &ApiDatabase, api: &MethodRef) -> Option<LifeSpan> {
        let life = db.method_lifespan(api)?;
        (life.since <= CID_MAX_LEVEL).then_some(life)
    }
}

impl CompatDetector for Cid {
    fn name(&self) -> &'static str {
        "CID"
    }

    fn capabilities(&self) -> DetectorSet {
        DetectorSet::of(Family::Api)
    }

    fn analyze(&self, apk: &Apk) -> Option<Report> {
        // Reproduced failure mode: CID's dex loader chokes on apps that
        // ship late-bound secondary payloads (the Table III dashes).
        if !apk.secondary.is_empty() {
            return None;
        }
        let start = Instant::now();
        let mut report = Report::new(apk.manifest.package.clone(), self.name());

        // Monolithic phase: load EVERYTHING — the entire app dex plus
        // the full framework snapshot (at CID's level ceiling) — and
        // build graphs for every loaded method before any detection.
        let level = apk.manifest.target_sdk.clamp_modeled().min(CID_MAX_LEVEL);
        let mut clvm = Clvm::new();
        clvm.add_provider(Box::new(PrimaryDexProvider::new(apk)));
        clvm.add_provider(Box::new(FrameworkProvider::new(
            Arc::clone(&self.framework),
            level,
        )));
        clvm.load_everything();

        let names = clvm.available_class_names();
        let mut app_method_graphs: Vec<(Arc<saint_ir::ClassDef>, usize)> = Vec::new();
        for name in names {
            let Some(class) = clvm.load_class(&name) else {
                continue;
            };
            for (idx, m) in class.methods.iter().enumerate() {
                let Some(body) = &m.body else { continue };
                let cfg = Cfg::build(body);
                let abs = AbsState::analyze(body, &cfg);
                clvm.meter_ref()
                    .record_method(cfg.size_bytes() + abs.size_bytes());
                if matches!(class.origin, ClassOrigin::App | ClassOrigin::Library) {
                    app_method_graphs.push((Arc::clone(&class), idx));
                }
            }
        }

        // Detection phase: the conditional call graph. Every app method
        // is checked independently against the full supported range —
        // guards are honored within the method (backward data-flow to
        // the level check) but never across calls.
        let db = self.framework.database();
        let supported = apk.manifest.supported_levels();
        let supported = supported
            .intersect(LevelRange::new(ApiLevel::MIN, CID_MAX_LEVEL))
            .unwrap_or(supported);
        let mut mismatches = Vec::new();
        for (class, idx) in &app_method_graphs {
            let def = &class.methods[*idx];
            let body = def
                .body
                .as_ref()
                .expect("filtered to body-carrying methods");
            let caller = def.reference(&class.name);
            let cfg = Cfg::build(body);
            let abs = AbsState::analyze(body, &cfg);
            let ranges = BlockRanges::analyze(body, &cfg, &abs, supported);
            for (block, range) in ranges.iter() {
                for instr in &body.block(block).instrs {
                    let Instr::Invoke { method: target, .. } = instr else {
                        continue;
                    };
                    // First level only: resolve the call; if it lands in
                    // the framework, check it; never walk into the body.
                    let api = match clvm.resolve_virtual(target) {
                        Resolution::Found { declaring, method } => {
                            matches!(declaring.origin, ClassOrigin::Framework)
                                .then(|| self.lifespan(&db, &method).map(|l| (method, l)))
                                .flatten()
                        }
                        // Not in the snapshot: maybe a removed API CID's
                        // model still knows about.
                        _ => db
                            .resolve(&target.class, &target.signature())
                            .and_then(|(m, l)| {
                                self.lifespan(&db, &m).map(|l2| (m, l2.min_removed(l)))
                            }),
                    };
                    let Some((api_ref, life)) = api else { continue };
                    let missing = missing_levels_in(range, life);
                    if missing.is_empty() {
                        continue;
                    }
                    mismatches.push(Mismatch {
                        kind: MismatchKind::ApiInvocation,
                        site: caller.clone(),
                        api: api_ref,
                        api_life: Some(life),
                        missing_levels: missing,
                        context: Some(range),
                        permission: None,
                        via: Vec::new(),
                    });
                }
            }
        }
        report.extend_deduped(mismatches);
        report.duration = start.elapsed();
        report.meter = clvm.meter();
        Some(report)
    }
}

trait MinRemoved {
    fn min_removed(self, other: LifeSpan) -> LifeSpan;
}

impl MinRemoved for LifeSpan {
    // When both the snapshot-resolution and DB views exist, keep the
    // DB's removal information.
    fn min_removed(self, other: LifeSpan) -> LifeSpan {
        LifeSpan {
            since: self.since,
            removed: self.removed.or(other.removed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_adf::well_known;
    use saint_ir::{ApkBuilder, BodyBuilder, ClassBuilder, DexFile};

    fn cid() -> Cid {
        Cid::new(Arc::new(AndroidFramework::curated()))
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
    fn detects_direct_unguarded_mismatch() {
        let apk = apk_with_oncreate(21, 25, |b| {
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.ret_void();
        });
        let r = cid().analyze(&apk).unwrap();
        assert_eq!(r.family_count(Family::Api), 1);
    }

    #[test]
    fn respects_same_method_guard() {
        let apk = apk_with_oncreate(21, 25, |b| {
            let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
            b.switch_to(then_blk);
            b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
            b.goto(join);
            b.switch_to(join);
            b.ret_void();
        });
        assert!(cid().analyze(&apk).unwrap().is_clean());
    }

    #[test]
    fn cross_method_guard_false_positive() {
        // Caller guards, helper calls: CID flags the helper anyway —
        // the documented false-alarm source (paper §V-A).
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
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(25))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .class(helper)
            .unwrap()
            .build();
        let r = cid().analyze(&apk).unwrap();
        assert_eq!(
            r.family_count(Family::Api),
            1,
            "CID reports the context-protected call"
        );
    }

    #[test]
    fn misses_deep_framework_path() {
        let apk = apk_with_oncreate(21, 25, |b| {
            b.invoke_virtual(well_known::tint_helper_apply_tint(), &[], None);
            b.ret_void();
        });
        assert!(cid().analyze(&apk).unwrap().is_clean(), "first-level only");
    }

    #[test]
    fn misses_apis_beyond_level_25() {
        let apk = apk_with_oncreate(21, 28, |b| {
            b.invoke_virtual(well_known::create_notification_channel(), &[], None);
            b.ret_void();
        });
        assert!(
            cid().analyze(&apk).unwrap().is_clean(),
            "API 26 is beyond CID's model ceiling"
        );
    }

    #[test]
    fn fails_on_multidex_apps() {
        let mut apk = apk_with_oncreate(21, 25, |b| {
            b.ret_void();
        });
        apk.secondary.push(DexFile::new("assets/extra.dex"));
        assert!(cid().analyze(&apk).is_none());
    }

    #[test]
    fn eager_loading_dominates_meter() {
        let apk = apk_with_oncreate(21, 25, |b| {
            b.ret_void();
        });
        let fw = Arc::new(AndroidFramework::curated());
        let r = Cid::new(Arc::clone(&fw)).analyze(&apk).unwrap();
        // CID loaded essentially the whole framework.
        assert!(r.meter.classes_loaded > fw.class_count() / 2);
    }

    #[test]
    fn capabilities_match_table_iv() {
        assert_eq!(cid().capabilities(), DetectorSet::of(Family::Api));
    }
}
