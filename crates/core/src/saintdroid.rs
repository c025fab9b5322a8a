//! The assembled SAINTDroid pipeline (paper Figure 2): AUM → ARM → AMD.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use saint_adf::{is_dangerous, AndroidFramework};
use saint_analysis::{ArtifactCache, ExploreConfig, ShardedClassCache};
use saint_ir::{Apk, ClassName, MethodRef};
use saint_obs::{Counter, MetricsRegistry, Phase, TraceSink};

use crate::amd;
use crate::amd::declared_sdk::SdkFacts;
use crate::arm::Arm;
use crate::aum::{AppModel, Aum};
use crate::detector::{CompatDetector, DetectorSet, Family};
use crate::error::{in_phase, PhasePanic};
use crate::mismatch::{Mismatch, MismatchKind};
use crate::report::Report;

/// The detector families' raw outputs for one slice of an app (a
/// family the tool's [`DetectorSet`] disables leaves its part empty).
/// The delta store keeps this value whole.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FamilyParts {
    /// Invocation findings bucketed per context root that has some, in
    /// sorted root order (flattening gives Algorithm 2's flat output).
    pub invocation: Vec<(MethodRef, Vec<Mismatch>)>,
    /// Callback findings, in APK class order.
    pub callback: Vec<Mismatch>,
    /// Raw dangerous-permission usages (Algorithm 4's site list, before
    /// the whole-app gates are applied).
    pub usages: Vec<amd::permission::DangerousUsage>,
    /// Whether the scanned slice declares `onRequestPermissionsResult`.
    pub declares_handler: bool,
    /// Raw declared-SDK usage sites.
    pub sdk_usages: Vec<amd::declared_sdk::SdkUsage>,
}

/// Everything [`SaintDroid::assemble`] needs to rebuild a report
/// byte-identically from one pipeline pass over a slice of an app (the
/// whole app, or one class group); produced by [`SaintDroid::run_parts`].
#[derive(Debug, Clone, Default)]
pub struct ScanParts {
    /// The detector families' outputs.
    pub families: FamilyParts,
    /// Every CLVM load-table entry with its metered byte charge
    /// (`None` = remembered failed lookup), each name once, in no
    /// particular order.
    pub loaded: Vec<(ClassName, Option<usize>)>,
    /// Every explored method with its metered artifact bytes, each
    /// method once, in no particular order.
    pub methods: Vec<(MethodRef, usize)>,
}

/// The SAINTDroid analyzer: holds the once-per-framework ARM artifacts
/// and analyzes APKs with gradual class loading.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use saint_adf::AndroidFramework;
/// use saintdroid::{CompatDetector, SaintDroid};
/// use saint_ir::{ApkBuilder, ApiLevel};
///
/// let tool = SaintDroid::new(Arc::new(AndroidFramework::curated()));
/// let apk = ApkBuilder::new("com.example", ApiLevel::new(21), ApiLevel::new(28)).build();
/// let report = tool.analyze(&apk).expect("SAINTDroid analyzes any APK");
/// assert!(report.is_clean());
/// ```
pub struct SaintDroid {
    arm: Arm,
    config: ExploreConfig,
    detectors: DetectorSet,
    cache: Option<Arc<ShardedClassCache>>,
    artifact_cache: Option<Arc<ArtifactCache>>,
    scan_cache: Option<Arc<amd::invocation::DeepScanCache>>,
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<TraceSink>>,
}

impl SaintDroid {
    /// Creates the analyzer over a framework model. Each analysis
    /// materializes framework classes for itself (no cross-app
    /// sharing) — the configuration every single-app consumer wants.
    #[must_use]
    pub fn new(framework: Arc<AndroidFramework>) -> Self {
        Self::with_config(framework, ExploreConfig::saintdroid())
    }

    /// Creates the analyzer with a custom exploration policy (used by
    /// ablation benchmarks).
    #[must_use]
    pub fn with_config(framework: Arc<AndroidFramework>, config: ExploreConfig) -> Self {
        SaintDroid {
            arm: Arm::new(framework),
            config,
            detectors: DetectorSet::default(),
            cache: None,
            artifact_cache: None,
            scan_cache: None,
            metrics: None,
            trace: None,
        }
    }

    /// Attaches a metrics registry: every scan through this instance
    /// records per-phase spans (CLVM load, exploration, ARM mine, each
    /// enabled detector family, scan total) and bumps the monotone
    /// counters. Purely observational — reports and meters are
    /// byte-identical with or without a registry attached.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metrics registry, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Attaches a trace sink: every scan emits Chrome-trace complete
    /// spans (one per phase, named after the app's package) for
    /// `saint-cli scan --trace-json`. Purely observational, like
    /// [`with_metrics`](Self::with_metrics).
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached trace sink, if any.
    #[must_use]
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// Attaches a batch-wide framework-class cache: every app analyzed
    /// through this instance materializes framework classes at most
    /// once per `(level, class)` for the lifetime of the cache. Reports
    /// (mismatches *and* per-app meter) are identical with or without
    /// it; see [`ShardedClassCache`] for why metering stays exact.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<ShardedClassCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached batch cache, if any.
    #[must_use]
    pub fn shared_cache(&self) -> Option<&Arc<ShardedClassCache>> {
        self.cache.as_ref()
    }

    /// Attaches a batch-wide framework-artifact cache: the CFG and
    /// abstract state of a framework method are built at most once per
    /// `(level, method)` for the lifetime of the cache. Reports
    /// (mismatches *and* per-app meter) are identical with or without
    /// it; see [`ArtifactCache`].
    #[must_use]
    pub fn with_shared_artifact_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.artifact_cache = Some(cache);
        self
    }

    /// The attached artifact cache, if any.
    #[must_use]
    pub fn shared_artifact_cache(&self) -> Option<&Arc<ArtifactCache>> {
        self.artifact_cache.as_ref()
    }

    /// Attaches a batch-wide framework-subtree scan cache: the
    /// beyond-first-level descent into a framework body is scanned at
    /// most once per `(level, method, incoming range)` for the lifetime
    /// of the cache, and replayed (re-attributed to each call site)
    /// everywhere else. Reports are identical with or without it; see
    /// [`DeepScanCache`](amd::invocation::DeepScanCache).
    #[must_use]
    pub fn with_shared_scan_cache(mut self, cache: Arc<amd::invocation::DeepScanCache>) -> Self {
        self.scan_cache = Some(cache);
        self
    }

    /// The attached subtree scan cache, if any.
    #[must_use]
    pub fn shared_scan_cache(&self) -> Option<&Arc<amd::invocation::DeepScanCache>> {
        self.scan_cache.as_ref()
    }

    /// The revision modeler (ARM) component.
    #[must_use]
    pub fn arm(&self) -> &Arm {
        &self.arm
    }

    /// The exploration policy this instance scans with. The incremental
    /// layer folds it into artifact keys so a policy change invalidates
    /// every cached slice.
    #[must_use]
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// Selects which detector families this instance runs. Defaults to
    /// [`DetectorSet::amd`] — the paper's three families, preserving
    /// the original report surface. [`DetectorSet::all`] additionally
    /// enables declared-SDK (DSD) vetting.
    #[must_use]
    pub fn with_detectors(mut self, detectors: DetectorSet) -> Self {
        self.detectors = detectors;
        self
    }

    /// The enabled detector families. The incremental layer folds the
    /// set (with the report schema version) into every content key so
    /// a set change invalidates cached artifacts instead of splicing
    /// reports that silently miss a family's findings.
    #[must_use]
    pub fn detectors(&self) -> DetectorSet {
        self.detectors
    }

    /// Builds the AUM model for an APK — exposed for tooling that wants
    /// the intermediate artifacts (paper: "SAINTDroid can be used by
    /// developers, end-users, and third-party reviewers"), on one
    /// worker.
    #[must_use]
    pub fn model(&self, apk: &Apk) -> AppModel {
        self.model_with(apk, 1)
    }

    /// [`model`](Self::model) with an explicit intra-app worker count
    /// for this call: with `app_jobs > 1` the Algorithm-1 exploration
    /// runs on a shared-CLVM task pool.
    #[must_use]
    pub fn model_with(&self, apk: &Apk, app_jobs: usize) -> AppModel {
        Aum::build_metered(
            apk,
            self.arm.framework(),
            &self.config,
            self.cache.as_ref(),
            self.artifact_cache.as_ref(),
            app_jobs,
            self.metrics.as_ref(),
        )
    }

    /// Runs the full pipeline on one worker and returns the report.
    #[must_use]
    pub fn run(&self, apk: &Apk) -> Report {
        self.run_with_jobs(apk, 1)
    }

    /// [`run`](Self::run) with an explicit intra-app worker count for
    /// this call (clamped to at least 1) — how the two-level batch
    /// scheduler hands each app its share of the global budget. With
    /// `app_jobs > 1` the exploration runs on a shared-CLVM task pool,
    /// the enabled detector families run concurrently, and the deep
    /// framework-subtree descents of invocation detection are computed
    /// in parallel; the report is identical to the one-worker run —
    /// mismatches, order and meter. A full scan is
    /// [`run_parts`](Self::run_parts) over the whole app, then
    /// [`assemble`](Self::assemble) and [`record_scan`](Self::record_scan).
    #[must_use]
    pub fn run_with_jobs(&self, apk: &Apk, app_jobs: usize) -> Report {
        let start = Instant::now();
        let parts = self.run_parts(apk, app_jobs);
        let mut report = self.assemble(apk, vec![parts]);
        report.duration = start.elapsed();
        self.record_scan(&report, start);
        report
    }

    /// Runs the pipeline over `apk` and returns the raw, pre-assembly
    /// detector outputs instead of an assembled [`Report`]: the whole
    /// app for a full scan, one class group for an incremental one (see
    /// `saint-delta`).
    ///
    /// The enabled detector families are independent functions of the
    /// finished model; with `app_jobs > 1` they run concurrently, each
    /// recording its own phase span from its own worker. A disabled
    /// family contributes an empty vector without touching its span.
    ///
    /// This records *phase* spans only: the per-app aggregates
    /// (`apps_scanned`, `scan_total`, `mismatches_found`, the meter
    /// counters) are left to [`record_scan`](Self::record_scan) after
    /// assembly, so an app split into N slices is still counted once.
    #[must_use]
    pub fn run_parts(&self, apk: &Apk, app_jobs: usize) -> ScanParts {
        let app_jobs = app_jobs.max(1);
        let package = apk.manifest.package.as_str();
        let start = Instant::now();
        let model = in_phase("explore", || self.model_with(apk, app_jobs));
        // The Explore *phase* span is recorded inside the exploration
        // itself (analysis layer); here we only emit the trace event,
        // which wants the app's package on the span name.
        if let Some(trace) = &self.trace {
            trace.complete(
                format!("explore {package}"),
                Phase::Explore.name(),
                start,
                start.elapsed(),
            );
        }
        let (db, pm) = in_phase("arm_mine", || self.arm.mine(self.metrics.as_deref()));

        let inv = || {
            self.detect(Family::Api, package, || {
                let private = amd::invocation::DeepScanCache::new();
                let cache = self.scan_cache.as_deref().unwrap_or(&private);
                amd::invocation::detect_rooted_parallel(&model, &db, cache, app_jobs)
            })
        };
        let cb = || self.detect(Family::Apc, package, || amd::callback::detect(&model, &db));
        let prm = || {
            self.detect(Family::Prm, package, || {
                amd::permission::dangerous_usages(&model, &pm)
            })
        };
        let dsd = || {
            self.detect(Family::Dsd, package, || {
                amd::declared_sdk::usages(&model, &db)
            })
        };
        let (mut invocation, callback, usages, sdk_usages) = if app_jobs > 1 {
            std::thread::scope(|s| {
                let (inv, cb, prm, dsd) = (s.spawn(inv), s.spawn(cb), s.spawn(prm), s.spawn(dsd));
                // Join *every* handle before surfacing any panic:
                // propagating the first failure while a sibling's
                // panic is still unjoined would double-panic the
                // scope.
                let (inv, cb, prm, dsd) = (inv.join(), cb.join(), prm.join(), dsd.join());
                (
                    rejoin(inv, Family::Api),
                    rejoin(cb, Family::Apc),
                    rejoin(prm, Family::Prm),
                    rejoin(dsd, Family::Dsd),
                )
            })
        } else {
            (inv(), cb(), prm(), dsd())
        };
        invocation.retain(|(_, bucket)| !bucket.is_empty());

        let declares_handler =
            model.declares_app_method("onRequestPermissionsResult", "(I[Ljava/lang/String;[I)V");
        // The meter ledger: the charges the CLVM and the exploration
        // recorded, keyed by names moved out of the finished model.
        let methods = model
            .exploration
            .methods
            .into_iter()
            .map(|(m, a)| (m, a.bytes))
            .collect();

        ScanParts {
            families: FamilyParts {
                invocation,
                callback,
                usages,
                declares_handler,
                sdk_usages,
            },
            loaded: model.clvm.into_loaded_entries(),
            methods,
        }
    }

    /// Assembles the report of `apk` from the [`run_parts`] outputs of
    /// one or more slices that partition its classes — the single
    /// assembly of a SAINTDroid report. A full scan passes one
    /// whole-app slice; the incremental layer passes one per class
    /// group, cached or fresh, and gets the full scan's bytes because
    /// every step below is order-exact over any such partition:
    ///
    /// - *Invocation:* context roots are disjoint across slices and
    ///   the detector visits them in one sorted pass, so buckets
    ///   re-interleave by root.
    /// - *Callback:* the detector iterates the APK's classes in order
    ///   and a finding's site class *is* the iterated class, so
    ///   findings replay per class in APK order.
    /// - *Permission:* usages are emitted grouped by sorted site and
    ///   sites are slice-exclusive, so a stable per-site sort of the
    ///   concatenation is the whole-app order; the whole-app gates are
    ///   recomputed from the manifest and the OR-ed handler flags.
    /// - *Declared-SDK:* usages are per method, so the canonical sort
    ///   of the union is the whole-app order, judged against
    ///   manifest-level facts.
    /// - *Meter:* each ledger entry is one meter event and shared
    ///   framework entries carry identical charges in every slice, so
    ///   the key-deduplicated union rebuilds the whole-app meter.
    ///
    /// A family the tool does not run left its parts empty, and empty
    /// parts assemble to no findings. `duration` is left at zero for
    /// the caller to stamp.
    ///
    /// [`run_parts`]: Self::run_parts
    #[must_use]
    pub fn assemble(&self, apk: &Apk, parts: Vec<ScanParts>) -> Report {
        // One slice is already in whole-app order with each ledger key
        // once, so only several pay for sorting and keying (sorting a
        // full scan's method ledger alone would cost about 2% of the
        // scan). Several slices repeat the framework's ledger entries;
        // keying them as they arrive keeps memory at the union's size.
        let several = parts.len() > 1;
        let mut all = ScanParts::default();
        let mut loaded = BTreeMap::new();
        let mut methods = BTreeMap::new();
        for p in parts {
            all.families.invocation.extend(p.families.invocation);
            all.families.callback.extend(p.families.callback);
            all.families.usages.extend(p.families.usages);
            all.families.sdk_usages.extend(p.families.sdk_usages);
            all.families.declares_handler |= p.families.declares_handler;
            if several {
                loaded.extend(p.loaded);
                methods.extend(p.methods);
            } else {
                all.loaded = p.loaded;
                all.methods = p.methods;
            }
        }
        if several {
            // Stable sorts over concatenated sorted runs.
            all.families.invocation.sort_by(|a, b| a.0.cmp(&b.0));
            let mut buckets: HashMap<ClassName, Vec<Mismatch>> = HashMap::new();
            for m in std::mem::take(&mut all.families.callback) {
                buckets.entry(m.site.class.clone()).or_default().push(m);
            }
            all.families.callback = apk
                .all_classes()
                .filter_map(|class| buckets.remove(&class.name))
                .flatten()
                .collect();
            all.families.usages.sort_by(|a, b| a.site.cmp(&b.site));
            amd::declared_sdk::sort_usages(&mut all.families.sdk_usages);
            all.loaded = loaded.into_iter().collect();
            all.methods = methods.into_iter().collect();
        }

        let f = all.families;
        let manifest = &apk.manifest;
        let supported = manifest.supported_levels();
        let gates = amd::permission::PermissionGates {
            requests_dangerous: manifest.uses_permissions.iter().any(is_dangerous),
            targets_runtime: manifest.targets_runtime_permissions(),
            implements_handler: f.declares_handler,
        };
        let prm = amd::permission::assemble(gates, supported, f.usages);
        let dsd = amd::declared_sdk::assemble(SdkFacts::of(manifest), supported, f.sdk_usages);

        let mut report = Report::new(manifest.package.clone(), self.name());
        report.extend_deduped(f.invocation.into_iter().flat_map(|(_, bucket)| bucket));
        report.extend_deduped(f.callback);
        report.extend_deduped(prm);
        report.extend_deduped(dsd);
        for (_, charge) in all.loaded {
            match charge {
                Some(bytes) => report.meter.record_class(bytes),
                None => report.meter.record_unresolved(),
            }
        }
        for (_, bytes) in all.methods {
            report.meter.record_method(bytes);
        }
        report
    }

    /// Books one finished scan's per-app aggregates — the `scan_total`
    /// span, the app and mismatch counters, the DSD counters when that
    /// family is enabled, and the meter totals — plus the `scan <pkg>`
    /// trace event. Called once per app however its report was
    /// produced (full scan, splice or replay); a no-op with neither a
    /// registry nor a sink attached.
    pub fn record_scan(&self, report: &Report, start: Instant) {
        if let Some(metrics) = &self.metrics {
            metrics.record(Phase::ScanTotal, report.duration);
            metrics.add(Counter::AppsScanned, 1);
            metrics.add(Counter::MismatchesFound, report.mismatches.len() as u64);
            if self.detectors.has(Family::Dsd) {
                metrics.add(Counter::AppsVetted, 1);
                metrics.add(
                    Counter::DsdOveruseFound,
                    report.count(MismatchKind::DsdOveruse) as u64,
                );
                metrics.add(
                    Counter::DsdUnderuseFound,
                    report.count(MismatchKind::DsdUnderuse) as u64,
                );
            }
            // Fold the per-app meter into the fleet-wide byte counters;
            // the report's own meter is untouched.
            report.meter.record_into(metrics);
        }
        if let Some(trace) = &self.trace {
            trace.complete(
                format!("scan {}", report.package),
                Phase::ScanTotal.name(),
                start,
                report.duration,
            );
        }
    }

    /// Runs `family`'s detector `f` if the tool enables the family, and
    /// returns an empty part otherwise. The run carries the family's
    /// phase marker and fault-injection point, and is recorded as a
    /// phase span (and a Chrome-trace event named after the app) when
    /// observation is enabled. With neither a registry nor a sink
    /// attached no clocks are read.
    fn detect<T: Default>(&self, family: Family, package: &str, f: impl FnOnce() -> T) -> T {
        if !self.detectors.has(family) {
            return T::default();
        }
        let phase = family.phase();
        let f = || {
            in_phase(phase.name(), || {
                saint_faults::trip(family.fault_point());
                f()
            })
        };
        if self.metrics.is_none() && self.trace.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        if let Some(metrics) = &self.metrics {
            metrics.record(phase, elapsed);
        }
        if let Some(trace) = &self.trace {
            trace.complete(
                format!("{} {package}", phase.name()),
                phase.name(),
                start,
                elapsed,
            );
        }
        out
    }
}

/// Unwraps a joined detector worker. A failed join is re-raised on this
/// thread wrapped in a [`PhasePanic`] naming the family's phase,
/// because the worker's thread-local phase marker died with the worker.
fn rejoin<T>(joined: std::thread::Result<T>, family: Family) -> T {
    joined.unwrap_or_else(|payload| {
        std::panic::panic_any(PhasePanic {
            phase: family.phase().name(),
            payload,
        })
    })
}

impl CompatDetector for SaintDroid {
    fn name(&self) -> &'static str {
        "SAINTDroid"
    }

    fn capabilities(&self) -> DetectorSet {
        self.detectors
    }

    fn analyze(&self, apk: &Apk) -> Option<Report> {
        Some(self.run(apk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::MismatchKind;
    use saint_adf::well_known;
    use saint_ir::{ApiLevel, ApkBuilder, BodyBuilder, ClassBuilder, ClassOrigin, Permission};
    use std::time::Duration;

    fn tool() -> SaintDroid {
        SaintDroid::new(Arc::new(AndroidFramework::curated()))
    }

    /// One app exhibiting all three mismatch families at once.
    fn triple_threat() -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method(
                "onCreate",
                "(Landroid/os/Bundle;)V",
                |b: &mut BodyBuilder| {
                    // API: getColorStateList (23) with min 19, unguarded.
                    b.invoke_virtual(well_known::context_get_color_state_list(), &[], None);
                    // PRM: camera usage, targets 26, no handler.
                    b.invoke_static(well_known::camera_open(), &[], None);
                    b.ret_void();
                },
            )
            .unwrap()
            // APC: onMultiWindowModeChanged (24) with min 19.
            .method("onMultiWindowModeChanged", "(Z)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        ApkBuilder::new("p.triple", ApiLevel::new(19), ApiLevel::new(26))
            .permission(Permission::android("CAMERA"))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build()
    }

    #[test]
    fn full_pipeline_detects_all_three_families() {
        let report = tool().run(&triple_threat());
        assert_eq!(report.family_count(Family::Api), 1, "{report}");
        assert_eq!(report.family_count(Family::Apc), 1, "{report}");
        assert!(report.family_count(Family::Prm) >= 1, "{report}");
        assert!(report.duration > std::time::Duration::ZERO);
        assert!(report.meter.classes_loaded > 0);
    }

    #[test]
    fn onmultiwindow_not_double_reported_as_invocation() {
        let report = tool().run(&triple_threat());
        // The APC override must not also appear as an API invocation.
        for m in report.of_kind(MismatchKind::ApiInvocation) {
            assert_ne!(&*m.api.name, "onMultiWindowModeChanged");
        }
    }

    #[test]
    fn lazy_loading_smaller_than_framework() {
        let fw = Arc::new(AndroidFramework::curated());
        let t = SaintDroid::new(Arc::clone(&fw));
        let report = t.run(&triple_threat());
        assert!(
            report.meter.classes_loaded < fw.class_count() / 2,
            "loaded {} of {}",
            report.meter.classes_loaded,
            fw.class_count()
        );
    }

    #[test]
    fn capabilities_cover_everything() {
        let t = tool();
        assert_eq!(t.capabilities(), DetectorSet::amd());
        assert!(
            !t.capabilities().has(Family::Dsd),
            "DSD is opt-in, not part of the default set"
        );
        assert!(!t.requires_source());
        assert_eq!(t.name(), "SAINTDroid");
        let all = tool().with_detectors(DetectorSet::all());
        assert_eq!(all.capabilities(), DetectorSet::all());
    }

    #[test]
    fn default_set_reports_no_dsd_findings() {
        // min 21 + unguarded getColorStateList is a DSD overuse, but
        // the default detector set must not report it — the paper
        // families' report surface is unchanged.
        let report = tool().run(&triple_threat());
        assert_eq!(report.family_count(Family::Dsd), 0, "{report}");
    }

    #[test]
    fn dsd_enabled_pipeline_detects_all_four_families() {
        let t = tool().with_detectors(DetectorSet::all());
        let report = t.run(&triple_threat());
        assert_eq!(report.family_count(Family::Api), 1, "{report}");
        assert_eq!(report.family_count(Family::Apc), 1, "{report}");
        assert!(report.family_count(Family::Prm) >= 1, "{report}");
        assert_eq!(report.family_count(Family::Dsd), 1, "{report}");
        assert_eq!(
            report.of_kind(MismatchKind::DsdOveruse).count(),
            1,
            "{report}"
        );
    }

    #[test]
    fn dsd_report_parity_across_app_jobs() {
        let apk = triple_threat();
        let mut seq = tool().with_detectors(DetectorSet::all()).run(&apk);
        let mut par = tool()
            .with_detectors(DetectorSet::all())
            .run_with_jobs(&apk, 8);
        seq.duration = Duration::ZERO;
        par.duration = Duration::ZERO;
        assert_eq!(seq, par);
    }

    #[test]
    fn clean_app_yields_clean_report() {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.invoke_virtual(well_known::activity_set_content_view(), &[], None);
                b.ret_void();
            })
            .unwrap()
            .build();
        let apk = ApkBuilder::new("p.clean", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build();
        let report = tool().run(&apk);
        assert!(report.is_clean(), "{report}");
    }
}
