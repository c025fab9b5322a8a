//! **Table IV** — the detection-capability matrix: which mismatch
//! families each tool covers. Rows for the implemented tools come from
//! their [`saintdroid::CompatDetector::capabilities`]; the
//! IctApiFinder row is static, as in the paper (the tool was not
//! publicly available and was not run; §IV-B).
//!
//! ```text
//! cargo run --release -p saint-bench --bin table4_capabilities
//! ```

use std::sync::Arc;

use saint_adf::AndroidFramework;
use saint_baselines::{Cid, Cider, Lint};
use saint_bench::{markdown_table, write_json};
use saintdroid::{CompatDetector, DetectorSet, Family, SaintDroid};
use serde::Serialize;

/// One row of the JSON artifact, whose schema keeps a field per family.
#[derive(Serialize)]
struct Row {
    tool: String,
    api: bool,
    apc: bool,
    prm: bool,
    dsd: bool,
}

fn main() {
    // The capability matrix does not depend on framework scale.
    let fw = Arc::new(AndroidFramework::curated());
    let tools: Vec<Box<dyn CompatDetector>> = vec![
        Box::new(Cid::new(Arc::clone(&fw))),
        Box::new(Cider::new(Arc::clone(&fw))),
        Box::new(Lint::new(Arc::clone(&fw))),
        Box::new(SaintDroid::new(Arc::clone(&fw)).with_detectors(DetectorSet::all())),
    ];
    // (markdown label, JSON label, families covered)
    let mut rows: Vec<(&str, &str, DetectorSet)> = tools
        .iter()
        .map(|t| (t.name(), t.name(), t.capabilities()))
        .collect();
    // The paper's row order places IctApiFinder between CIDER and
    // LINT; we insert its static row right after CIDER.
    let after_cider = rows
        .iter()
        .position(|r| r.0 == "CIDER")
        .map_or(0, |i| i + 1);
    let ict = DetectorSet::of(Family::Api);
    rows.insert(
        after_cider,
        ("IctApiFinder (reported)", "IctApiFinder", ict),
    );

    let mark = |b: bool| if b { "✓" } else { "✗" }.to_string();
    let rows_md: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, _, caps)| {
            std::iter::once(label.to_string())
                .chain(Family::ALL.map(|f| mark(caps.has(f))))
                .collect()
        })
        .collect();
    let rows_json: Vec<Row> = rows
        .iter()
        .map(|&(_, tool, caps)| Row {
            tool: tool.to_string(),
            api: caps.has(Family::Api),
            apc: caps.has(Family::Apc),
            prm: caps.has(Family::Prm),
            dsd: caps.has(Family::Dsd),
        })
        .collect();
    let headers: Vec<&str> = std::iter::once("Tool")
        .chain(Family::ALL.map(Family::name))
        .collect();

    println!("\nTable IV: detection capabilities per tool\n");
    println!("{}", markdown_table(&headers, &rows_md));
    println!("SAINTDroid is the only tool covering all four families, matching the paper's claim.");
    let path = write_json("table4_capabilities", &rows_json);
    eprintln!("json: {}", path.display());
}
