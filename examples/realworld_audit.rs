//! Real-world audit: generate a slice of the calibrated corpus, write
//! one app to disk in the `SAPK` container format, parse it back (the
//! front-end step every analysis performs), and audit the slice with
//! SAINTDroid — a miniature of the paper's RQ2 study.
//!
//! ```text
//! cargo run --release --example realworld_audit            # 40 apps
//! cargo run --release --example realworld_audit -- 200     # more apps
//! ```

use std::sync::Arc;

use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_ir::codec;
use saintdroid::{CompatDetector, Family, MismatchKind, SaintDroid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let apps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);

    let mut cfg = RealWorldConfig::small();
    cfg.apps = apps;
    let corpus = RealWorldCorpus::new(cfg);
    let framework = Arc::new(AndroidFramework::with_scale(&SynthConfig::small()));
    let tool = SaintDroid::new(framework);

    // Round-trip one app through the on-disk container, as a real
    // pipeline (store → fetch → analyze) would.
    let sample = corpus.get(0);
    let path = std::env::temp_dir().join("saintdroid_sample.sapk");
    std::fs::write(&path, codec::encode_apk(&sample.apk))?;
    let loaded = codec::decode_apk(&std::fs::read(&path)?)?;
    assert_eq!(sample.apk, loaded);
    println!(
        "wrote and re-parsed {} ({} bytes) at {}",
        loaded.manifest.package,
        std::fs::metadata(&path)?.len(),
        path.display()
    );

    let mut api_apps = 0usize;
    let mut api_total = 0usize;
    let mut apc_total = 0usize;
    let mut prm_total = 0usize;
    let mut worst: Option<(String, usize)> = None;
    for app in corpus.iter() {
        let report = tool.analyze(&app.apk).expect("SAINTDroid analyzes any APK");
        let api = report.count(MismatchKind::ApiInvocation);
        if api > 0 {
            api_apps += 1;
        }
        api_total += api;
        apc_total += report.family_count(Family::Apc);
        prm_total += report.family_count(Family::Prm);
        if worst.as_ref().is_none_or(|(_, n)| report.total() > *n) {
            worst = Some((report.package.clone(), report.total()));
        }
    }

    println!("\naudited {apps} generated apps:");
    println!(
        "  API invocation mismatches: {api_total} across {api_apps} apps ({:.0}% of the corpus)",
        100.0 * api_apps as f64 / apps as f64
    );
    println!("  API callback mismatches:   {apc_total}");
    println!("  permission mismatches:     {prm_total}");
    if let Some((package, n)) = worst {
        println!("  most affected app: {package} with {n} findings");
    }
    println!("\n(the paper's full corpus: 68,268 API mismatches in 41.19% of 3,571 apps)");
    Ok(())
}
