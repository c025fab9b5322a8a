//! **Table II** — accuracy of SAINTDroid, CID, CIDER and Lint on the
//! 19 benchmark apps (12 CIDER-Bench + 7 CID-Bench), scored against
//! each app's recorded ground truth. Per-app TP/FP/FN plus the summary
//! precision / recall / F-measure rows of the paper's table.
//!
//! ```text
//! cargo run --release -p saint-bench --bin table2_accuracy
//! ```

use std::sync::Arc;

use saint_baselines::{Cid, Cider, Lint};
use saint_bench::{framework_at, markdown_table, write_json, Scale};
use saint_corpus::{benchmark_suite, score, Accuracy};
use saintdroid::{CompatDetector, SaintDroid};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    tp: usize,
    fp: usize,
    fn_: usize,
}

#[derive(Serialize)]
struct Row {
    app: String,
    suite: String,
    per_tool: Vec<(String, Option<Cell>)>,
}

#[derive(Serialize)]
struct Summary {
    tool: String,
    family: String,
    precision: f64,
    recall: f64,
    f_measure: f64,
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("table2_accuracy: scale={}", scale.label());
    let fw = framework_at(scale);
    let tools: Vec<Box<dyn CompatDetector>> = vec![
        Box::new(SaintDroid::new(Arc::clone(&fw))),
        Box::new(Cid::new(Arc::clone(&fw))),
        Box::new(Cider::new(Arc::clone(&fw))),
        Box::new(Lint::new(Arc::clone(&fw))),
    ];
    let apps = benchmark_suite();

    // Pre-compute reports once per (tool, app).
    let reports: Vec<Vec<Option<saintdroid::Report>>> = tools
        .iter()
        .map(|t| apps.iter().map(|a| t.analyze(&a.apk)).collect())
        .collect();

    let mut rows_md: Vec<Vec<String>> = Vec::new();
    let mut rows_json: Vec<Row> = Vec::new();
    for (ai, app) in apps.iter().enumerate() {
        let mut md = vec![app.name.to_string()];
        let mut per_tool = Vec::new();
        for (ti, tool) in tools.iter().enumerate() {
            match &reports[ti][ai] {
                Some(report) => {
                    let acc = score(report, &app.truth, None);
                    md.push(format!("{}/{}/{}", acc.tp, acc.fp, acc.fn_));
                    per_tool.push((
                        tool.name().to_string(),
                        Some(Cell {
                            tp: acc.tp,
                            fp: acc.fp,
                            fn_: acc.fn_,
                        }),
                    ));
                }
                None => {
                    md.push("–".to_string());
                    per_tool.push((tool.name().to_string(), None));
                }
            }
        }
        rows_md.push(md);
        rows_json.push(Row {
            app: app.name.to_string(),
            suite: app.suite.to_string(),
            per_tool,
        });
    }

    println!("\nTable II: per-app TP/FP/FN against ground truth (– = tool failed)\n");
    println!(
        "{}",
        markdown_table(&["App", "SAINTDroid", "CID", "CIDER", "Lint"], &rows_md)
    );

    // Summary block: per family SAINTDroid runs and overall, like the
    // paper's precision/recall/F rows.
    let mut summaries = Vec::new();
    let families = tools[0]
        .capabilities()
        .families()
        .map(|f| (f.name(), Some(f.kinds())));
    for (family, kinds) in families.chain([("ALL", None)]) {
        println!("-- {family} --");
        for (ti, tool) in tools.iter().enumerate() {
            let mut acc = Accuracy::default();
            for (ai, app) in apps.iter().enumerate() {
                match &reports[ti][ai] {
                    Some(report) => acc.absorb(score(report, &app.truth, kinds)),
                    None => {
                        let missed = app
                            .truth
                            .iter()
                            .filter(|t| kinds.is_none_or(|ks| ks.contains(&t.kind)))
                            .count();
                        acc.absorb(Accuracy {
                            tp: 0,
                            fp: 0,
                            fn_: missed,
                        });
                    }
                }
            }
            println!("  {:<11} {}", tool.name(), acc);
            summaries.push(Summary {
                tool: tool.name().to_string(),
                family: family.to_string(),
                precision: acc.precision(),
                recall: acc.recall(),
                f_measure: acc.f_measure(),
            });
        }
    }

    let path = write_json("table2_accuracy", &(rows_json, summaries));
    eprintln!("json: {}", path.display());
}
