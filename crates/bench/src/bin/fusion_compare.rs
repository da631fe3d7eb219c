//! Regenerates the **§6.6 training-method comparison**: early fusion vs
//! intermediate fusion vs the adapted DeViSE, per task, plus the
//! "materialized CNN features" comparison — our service features vs the raw
//! pre-trained embedding under identical (weak) supervision.
//!
//! The evaluation matrix (tasks, scale, seeds, scenarios) is declared in
//! `specs/fusion_compare.json`; `CM_SCALE`/`CM_SEEDS`/`CM_TASK`/`CM_JSON`
//! still override the spec's defaults.
//!
//! Expected shape (paper): early fusion wins — up to 1.22x (avg 1.08x) over
//! intermediate fusion and up to 5.52x (avg 2.21x) over DeViSE; service
//! features beat the raw embedding by up to 1.54x.

use cm_bench::{
    fmt_ratio, load_spec, maybe_write_json, mean, spec_reservoir, spec_scale, spec_scenario,
    spec_seeds, task_selected, TaskRun,
};
use cm_json::{Json, ToJson};
use cm_par::ParConfig;
use cm_pipeline::curate;

struct Row {
    task: String,
    early_auprc: f64,
    early_vs_intermediate: f64,
    early_vs_devise: f64,
    features_vs_raw_embedding: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("task", self.task.to_json()),
            ("early_auprc", self.early_auprc.to_json()),
            ("early_vs_intermediate", self.early_vs_intermediate.to_json()),
            ("early_vs_devise", self.early_vs_devise.to_json()),
            ("features_vs_raw_embedding", self.features_vs_raw_embedding.to_json()),
        ])
    }
}

fn main() {
    let par = ParConfig::from_env();
    let spec = load_spec("fusion_compare");
    let scale = spec_scale(&spec);
    let seeds = spec_seeds(&spec);
    let early_s = spec_scenario(&spec, "cross-modal T,I+ABCD");
    let inter_s = spec_scenario(&spec, "intermediate");
    let devise_s = spec_scenario(&spec, "devise");
    let feats_s = spec_scenario(&spec, "image-only I+ABCD");
    let raw_s = spec_scenario(&spec, "raw embedding (weak)");
    println!("Fusion comparison (§6.6) (scale {scale}, {} seed(s))", seeds.len());
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>14}",
        "Task", "early", "vs interm.", "vs DeViSE", "feat vs raw"
    );

    let mut rows = Vec::new();
    for &id in &spec.tasks {
        if !task_selected(id) {
            continue;
        }
        let mut early_v = Vec::new();
        let mut vs_int = Vec::new();
        let mut vs_dev = Vec::new();
        let mut feat_raw = Vec::new();
        for &seed in &seeds {
            let run = TaskRun::new(id, scale, seed, spec_reservoir(&spec, scale));
            let runner = run.runner();
            let curation = curate(&run.data, &run.curation_config(seed));

            let e = runner.run(&early_s, Some(&curation), &par).unwrap().auprc;
            let i = runner.run(&inter_s, Some(&curation), &par).unwrap().auprc;
            let d = runner.run(&devise_s, Some(&curation), &par).unwrap().auprc;
            early_v.push(e);
            if i > 1e-9 {
                vs_int.push(e / i);
            }
            if d > 1e-9 {
                vs_dev.push(e / d);
            }

            // Features vs raw embedding, same weak labels: image-only with
            // shared feature sets vs image-only with only the
            // modality-specific features (embedding and friends).
            let feats = runner.run(&feats_s, Some(&curation), &par).unwrap().auprc;
            let raw_ap = runner.run(&raw_s, Some(&curation), &par).unwrap().auprc;
            if raw_ap > 1e-9 {
                feat_raw.push(feats / raw_ap);
            }
        }
        let row = Row {
            task: id.name().to_owned(),
            early_auprc: mean(&early_v),
            early_vs_intermediate: mean(&vs_int),
            early_vs_devise: mean(&vs_dev),
            features_vs_raw_embedding: mean(&feat_raw),
        };
        println!(
            "{:<6} {:>10.4} {:>12} {:>12} {:>14}",
            row.task,
            row.early_auprc,
            fmt_ratio(row.early_vs_intermediate),
            fmt_ratio(row.early_vs_devise),
            fmt_ratio(row.features_vs_raw_embedding),
        );
        rows.push(row);
    }
    if !rows.is_empty() {
        let avg_i = mean(&rows.iter().map(|r| r.early_vs_intermediate).collect::<Vec<_>>());
        let avg_d = mean(&rows.iter().map(|r| r.early_vs_devise).collect::<Vec<_>>());
        println!("\nearly fusion vs intermediate: avg {}", fmt_ratio(avg_i));
        println!("early fusion vs DeViSE:       avg {}", fmt_ratio(avg_d));
    }
    maybe_write_json(&rows);
}
