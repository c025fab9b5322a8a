//! Unit checks of the benchmark's own machinery: the percentile rule,
//! the seeded arrival schedule, the report digest and compare mode.

use std::time::Duration;

use saintbench::bench::{compare, BandRow, BenchResult, Movement};
use saintbench::oracle::digest;
use saintbench::schedule::poisson_offsets;
use saintbench::stats::{quartiles, tail_quantile, Band};
use saintbench::wire::{response_id, RequestTemplate};
use saintdroid::Report;

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    assert_eq!(tail_quantile(1000), 0.99);
    assert_eq!(tail_quantile(999), 0.95);
    assert_eq!(tail_quantile(200), 0.95);
    assert_eq!(tail_quantile(199), 0.9);
    assert_eq!(tail_quantile(100), 0.9);
    assert_eq!(tail_quantile(40), 0.75);
    assert_eq!(tail_quantile(39), 0.5);
    assert_eq!(tail_quantile(3), 0.5);
    // Quartiles follow Python's statistics.quantiles(n=4):
    // quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), (2.75, 8.25));
    let band = Band::of(&values);
    assert_eq!(band.median, 5.5);
    assert!((band.spread() - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn arrival_schedule_is_seeded() {
    let a = poisson_offsets(7, 120.0, 5000);
    assert_eq!(a, poisson_offsets(7, 120.0, 5000));
    assert_ne!(a, poisson_offsets(8, 120.0, 5000));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    // 5,000 arrivals at 120/s span about 41.7 s.
    let span = a.last().copied().unwrap_or(Duration::ZERO).as_secs_f64();
    assert!(
        (span - 5000.0 / 120.0).abs() < 0.05 * 5000.0 / 120.0,
        "{span}"
    );
}

#[test]
fn digest_ignores_duration_only() {
    let mut a = Report::new("p.app", "SAINTDroid");
    a.duration = Duration::from_millis(3);
    let mut b = a.clone();
    b.duration = Duration::from_secs(9);
    assert_eq!(digest(&a), digest(&b));
    b.meter.classes_loaded += 1;
    assert_ne!(digest(&a), digest(&b));
    let c = Report::new("p.other", "SAINTDroid");
    assert_ne!(digest(&a), digest(&c));
}

#[test]
fn request_lines_carry_their_id() {
    let template = RequestTemplate::new(b"SAPK bytes", true);
    let line = template.line(42);
    assert!(line.ends_with('\n'));
    assert!(line.contains("\"kind\":\"delta\""));
    assert_eq!(response_id(&line), Some(42));
    assert_eq!(
        response_id("{\"v\":1,\"kind\":\"error\",\"id\":null}"),
        None
    );
}

fn result(metric: &str, better: &str, values: &[f64]) -> BenchResult {
    BenchResult {
        host_cores: 2,
        seed: 1,
        reps: values.len(),
        seconds: 10.0,
        scale: "full".to_string(),
        bands: vec![BandRow {
            workload: "batch-sapk".to_string(),
            metric: metric.to_string(),
            unit: String::new(),
            better: better.to_string(),
            bound: 0.1,
            values: values.to_vec(),
            band: Band::of(values),
        }],
        runs: Vec::new(),
    }
}

fn movement(metric: &str, better: &str, a: &[f64], b: &[f64]) -> Movement {
    let rows = compare(&result(metric, better, a), &result(metric, better, b));
    assert_eq!(rows.len(), 1);
    rows[0].movement
}

#[test]
fn compare_flags_moves_beyond_the_bound() {
    // p50_ms: lower is better; p50_ms and apps_per_s are both bounded
    // at 25% in BENCHMARK.json.
    let base = [10.0, 10.1, 9.9, 10.0, 10.05];
    assert_eq!(movement("p50_ms", "lower", &base, &base), Movement::Same);
    let slower = [14.0, 14.1, 13.9, 14.0, 14.05];
    assert_eq!(movement("p50_ms", "lower", &base, &slower), Movement::Worse);
    let faster = [7.0, 7.1, 6.9, 7.0, 7.05];
    assert_eq!(
        movement("p50_ms", "lower", &base, &faster),
        Movement::Better
    );
    let slightly = [10.8, 10.9, 10.7, 10.8, 10.85];
    assert_eq!(
        movement("p50_ms", "lower", &base, &slightly),
        Movement::Same
    );
    // apps_per_s: higher is better.
    assert_eq!(
        movement("apps_per_s", "higher", &base, &slower),
        Movement::Better
    );
    assert_eq!(
        movement("apps_per_s", "higher", &slower, &base),
        Movement::Worse
    );
    // A side whose own spread exceeds the bound cannot resolve a move,
    // unless every run of one side beats every run of the other.
    let noisy = [6.0, 14.0, 10.0, 8.0, 12.0];
    assert_eq!(
        movement("p50_ms", "lower", &noisy, &slightly),
        Movement::Unresolved
    );
    assert_eq!(
        movement("p50_ms", "lower", &noisy, &[4.0, 4.5, 5.0]),
        Movement::Better
    );
}
