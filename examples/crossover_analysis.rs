//! Cross-over analysis (the Figure 5 question): how many hand-labeled
//! images would the team need before a classic fully supervised pipeline
//! beats the cross-modal one they can ship today?
//!
//! ```sh
//! cargo run --release --example crossover_analysis
//! ```

use cross_modal::prelude::*;

fn main() {
    let par = ParConfig::from_env();
    let task = TaskConfig::paper(TaskId::Ct2).scaled(0.1);
    let data = TaskData::generate(task, 11, Some(4_000));
    let curation = curate(&data, &CurationConfig::default());
    let runner = ScenarioRunner {
        data: &data,
        model: ModelKind::Mlp { hidden: vec![32] },
        train: TrainConfig { epochs: 20, patience: None, ..TrainConfig::default() },
    };
    let sets = FeatureSet::SHARED;
    let cross = runner.run(&Scenario::cross_modal(&sets), Some(&curation), &par).unwrap();
    println!("cross-modal pipeline (0 hand labels): AUPRC {:.4}\n", cross.auprc);

    println!("{:>12} {:>10} {:>16}", "hand labels", "AUPRC", "vs cross-modal");
    let mut curve = Vec::new();
    for n in [100usize, 250, 500, 1000, 2000, 4000] {
        if n > data.labeled_image.len() {
            break;
        }
        let eval = runner.run(&Scenario::fully_supervised(&sets, n), None, &par).unwrap();
        let cmp = if eval.auprc >= cross.auprc { "ahead" } else { "behind" };
        println!("{n:>12} {:>10.4} {cmp:>16}", eval.auprc);
        curve.push((n as f64, eval.auprc));
    }

    match find_crossover(&CrossoverSeries::new(curve), cross.auprc) {
        Some(n) => println!(
            "\ncross-over at ~{n:.0} hand-labeled images: below that budget, ship the\n\
             cross-modal pipeline today and label later (the paper's days-vs-months claim)."
        ),
        None => println!(
            "\nno cross-over within the swept budget: the cross-modal pipeline wins\n\
             everywhere we measured."
        ),
    }
}
