//! The metric contract, compiled in from `BENCHMARK.json`.
//!
//! `BENCHMARK.json` at the repository root is the single source of the
//! workload names, metric names, units, directions and bounds: the
//! binary embeds it, emits exactly the metrics it lists, and compare
//! mode reads the bounds from it. Nothing here restates a name.

use std::sync::OnceLock;

use serde::Deserialize;

const CONTRACT_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    /// Metric name, e.g. `apps_per_s` or `ir.decode_ms`.
    pub name: String,
    /// Unit, e.g. `ms` or `1/s`.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the baseline median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Whether a larger value is an improvement.
    #[must_use]
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// One workload of the contract.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, as passed to `--workload`.
    pub name: String,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads, in file order.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a user of the system sees; printed with `--trace 0`.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers; printed with `--trace 1`.
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    /// The metrics one run prints.
    #[must_use]
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The embedded contract.
///
/// # Panics
/// Panics when the embedded `BENCHMARK.json` does not parse, which the
/// build of this binary makes a bug in the file.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        serde_json::from_str(CONTRACT_JSON).expect("BENCHMARK.json matches the contract shape")
    })
}
