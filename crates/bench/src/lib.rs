//! # saint-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! shared plumbing here: framework construction at a chosen scale,
//! repeated timing (the paper averages three runs), markdown table
//! rendering, and JSON result dumps under `target/experiments/`.
//!
//! Scale control: every harness reads `SAINT_SCALE`
//! (`small` | `medium` | `paper`, default `medium`) and, for
//! corpus-wide harnesses, `SAINT_APPS` (number of real-world apps,
//! default scale-dependent). `paper` reproduces the published setup —
//! a ~4,000-class framework and 3,571 apps — and takes correspondingly
//! longer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::RealWorldConfig;
use saintdroid::{CompatDetector, Report};
use serde::Serialize;

/// Experiment scale, selected by the `SAINT_SCALE` environment
/// variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: CI-friendly smoke runs.
    Small,
    /// Medium: minutes-scale local runs (default).
    Medium,
    /// Paper: the published setup (~4,000 framework classes, 3,571
    /// apps).
    Paper,
}

impl Scale {
    /// Reads `SAINT_SCALE` (default `medium`).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("SAINT_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            Ok("paper") | Ok("full") => Scale::Paper,
            _ => Scale::Medium,
        }
    }

    /// The framework expansion for this scale.
    #[must_use]
    pub fn synth_config(self) -> SynthConfig {
        match self {
            Scale::Small => SynthConfig::small(),
            Scale::Medium => SynthConfig::medium(),
            Scale::Paper => SynthConfig::paper(),
        }
    }

    /// The real-world corpus for this scale, honoring `SAINT_APPS`.
    #[must_use]
    pub fn realworld_config(self) -> RealWorldConfig {
        let mut cfg = match self {
            Scale::Small => RealWorldConfig::small(),
            Scale::Medium => RealWorldConfig::medium(),
            Scale::Paper => RealWorldConfig::paper(),
        };
        if let Ok(n) = std::env::var("SAINT_APPS") {
            if let Ok(n) = n.parse::<usize>() {
                cfg.apps = n;
            }
        }
        cfg
    }

    /// Filler multiplier for the benchmark apps (the paper's apps span
    /// 10.4–294.4 KLOC; unit-size apps are only for tests).
    #[must_use]
    pub fn bench_app_factor(self) -> usize {
        match self {
            Scale::Small => 4,
            Scale::Medium => 40,
            Scale::Paper => 150,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// Builds the framework at the chosen scale (curated surface plus
/// synthetic expansion) and pre-mines the ARM artifacts so their
/// one-time cost does not pollute per-app timings — the paper's
/// database is likewise "constructed once … as a reusable model".
#[must_use]
pub fn framework_at(scale: Scale) -> Arc<AndroidFramework> {
    let fw = Arc::new(AndroidFramework::with_scale(&scale.synth_config()));
    let _ = fw.database();
    let _ = fw.permission_map();
    fw
}

/// Runs `f` `runs` times and returns the mean duration alongside the
/// last result (the paper reports each timing "averaged over three
/// attempts").
pub fn timed_mean<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(runs > 0, "need at least one run");
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        last = Some(f());
        total += start.elapsed();
    }
    (total / runs as u32, last.expect("runs > 0"))
}

/// Analyzes one APK with a detector, averaged over `runs` attempts;
/// `None` mirrors the paper's dashes (tool crash / cannot build).
#[must_use]
pub fn timed_analyze(
    tool: &dyn CompatDetector,
    apk: &saint_ir::Apk,
    runs: usize,
) -> Option<(Duration, Report)> {
    let (mean, last) = timed_mean(runs, || tool.analyze(apk));
    last.map(|report| (mean, report))
}

/// Renders a markdown table.
#[must_use]
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Where experiment outputs are written.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes a JSON experiment artifact and returns its path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable experiment output");
    fs::write(&path, json).expect("write experiment output");
    path
}

/// Formats a duration in seconds with one decimal, `-` for `None`
/// (the paper's dash notation).
#[must_use]
pub fn fmt_secs(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.2}", d.as_secs_f64()),
        None => "–".to_string(),
    }
}

/// Formats bytes as mebibytes with one decimal.
#[must_use]
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert!(t.contains("|---|---|"));
    }

    #[test]
    fn timed_mean_counts_runs() {
        let mut n = 0;
        let (_, last) = timed_mean(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(None), "–");
        assert_eq!(fmt_secs(Some(Duration::from_millis(1500))), "1.50");
        assert_eq!(fmt_mib(1024 * 1024), "1.0");
    }

    #[test]
    fn scale_from_env_default_is_medium() {
        // (Does not set the variable: environment-dependent tests are
        // flaky; just exercise the default path.)
        if std::env::var("SAINT_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Medium);
        }
    }
}
