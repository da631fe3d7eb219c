//! Regenerates **Table 3**: the relative improvement label propagation
//! (§4.4) brings to the training-data curation step — precision, recall,
//! and F1 of the weak-supervision output, plus the end model's AUPRC — for
//! every task.
//!
//! Expected shape (paper): propagation trades a little precision for large
//! recall gains on tasks whose positive mass hides in borderline modes
//! (CT 4, CT 5), is neutral on the "easy" task (CT 2 = 1.00x), and end-model
//! AUPRC never degrades much.
//!
//! The evaluation matrix lives in `specs/table3.json`; `CM_SCALE`,
//! `CM_SEEDS`, `CM_TASK`, and `CM_JSON` still override it.

use cm_bench::{
    fmt_ratio, load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_scenario,
    spec_seeds, task_selected, TaskRun,
};
use cm_json::{Json, ToJson};
use cm_par::ParConfig;
use cm_pipeline::{curate, CurationConfig};

struct Row {
    task: String,
    precision_ratio: f64,
    recall_ratio: f64,
    f1_ratio: f64,
    auprc_ratio: f64,
    without_lp: (f64, f64, f64),
    with_lp: (f64, f64, f64),
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("task", self.task.to_json()),
            ("precision_ratio", self.precision_ratio.to_json()),
            ("recall_ratio", self.recall_ratio.to_json()),
            ("f1_ratio", self.f1_ratio.to_json()),
            ("auprc_ratio", self.auprc_ratio.to_json()),
            ("without_lp", self.without_lp.to_json()),
            ("with_lp", self.with_lp.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("table3");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    let scenario = spec_scenario(&spec, "image-only I+ABCD");

    println!(
        "Table 3 (scale {scale}, {} seed(s)) — relative gain from label propagation",
        seeds.len()
    );
    println!("{:<6} {:>10} {:>10} {:>10} {:>10}", "Task", "Precision", "Recall", "F1", "AUPRC");
    let mut rows = Vec::new();
    for &id in &spec.tasks {
        if !task_selected(id) {
            continue;
        }
        let mut ratios: Vec<[f64; 4]> = Vec::new();
        let mut wo_acc = Vec::new();
        let mut w_acc = Vec::new();
        for &seed in &seeds {
            let run = TaskRun::new(id, scale, seed, spec_reservoir(&spec, scale));
            let runner = run.runner();
            let base_cfg = run.curation_config(seed);
            let without = curate(
                &run.data,
                &CurationConfig { use_label_propagation: false, ..base_cfg.clone() },
            );
            let with = curate(&run.data, &base_cfg);

            let auprc_without = runner.run(&scenario, Some(&without), &par).unwrap().auprc;
            let auprc_with = runner.run(&scenario, Some(&with), &par).unwrap().auprc;

            let ratio = |a: f64, b: f64| if b > 1e-9 { a / b } else { 0.0 };
            ratios.push([
                ratio(with.ws_quality.precision, without.ws_quality.precision),
                ratio(with.ws_quality.recall, without.ws_quality.recall),
                ratio(with.ws_quality.f1, without.ws_quality.f1),
                ratio(auprc_with, auprc_without),
            ]);
            wo_acc.push([
                without.ws_quality.precision,
                without.ws_quality.recall,
                without.ws_quality.f1,
            ]);
            w_acc.push([with.ws_quality.precision, with.ws_quality.recall, with.ws_quality.f1]);
        }
        let col = |v: &[[f64; 4]], i: usize| mean(&v.iter().map(|r| r[i]).collect::<Vec<_>>());
        let col3 = |v: &[[f64; 3]], i: usize| mean(&v.iter().map(|r| r[i]).collect::<Vec<_>>());
        let row = Row {
            task: id.name().to_owned(),
            precision_ratio: col(&ratios, 0),
            recall_ratio: col(&ratios, 1),
            f1_ratio: col(&ratios, 2),
            auprc_ratio: col(&ratios, 3),
            without_lp: (col3(&wo_acc, 0), col3(&wo_acc, 1), col3(&wo_acc, 2)),
            with_lp: (col3(&w_acc, 0), col3(&w_acc, 1), col3(&w_acc, 2)),
        };
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>10}",
            row.task,
            fmt_ratio(row.precision_ratio),
            fmt_ratio(row.recall_ratio),
            fmt_ratio(row.f1_ratio),
            fmt_ratio(row.auprc_ratio),
        );
        rows.push(row);
    }
    maybe_write_json(&rows);
}
