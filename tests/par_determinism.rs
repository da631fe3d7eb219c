//! Serial ≡ parallel equivalence layer for every `cm-par`-wired hot path.
//!
//! The substrate's contract: the chunk plan depends only on input size,
//! chunk results merge in chunk index order, and the serial fallback runs
//! the identical plan inline — so 1 thread and N threads must produce
//! bit-identical outputs everywhere. Each test here exercises one wired
//! path or library entry point at explicit `ParConfig` values (never
//! `CM_THREADS`, so the tests are immune to the environment they run
//! under).

use std::sync::Arc;
use std::time::Duration;

use cross_modal::featurespace::{
    CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, Label, ServingMode,
    SimilarityConfig, Vocabulary,
};
use cross_modal::labelmodel::{
    CategoricalContainsLf, GenerativeConfig, GenerativeModel, LabelMatrix, LabelingFunction, Vote,
};
use cross_modal::linalg::Matrix;
use cross_modal::mining::{mine_itemsets, MiningConfig};
use cross_modal::models::logistic::{LogisticConfig, LogisticRegression};
use cross_modal::models::train_model;
use cross_modal::pipeline::{DenseView, IncrementalConfig, IncrementalCurator};
use cross_modal::prelude::*;
use cross_modal::propagation::GraphBuilder;

const THREADS: [usize; 3] = [2, 4, 8];

/// A categorical table big enough to cross every parallel threshold.
fn cat_table(n: usize) -> cross_modal::featurespace::FeatureTable {
    let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
        "c",
        FeatureSet::A,
        ServingMode::Servable,
        Vocabulary::from_names(["w", "x", "y", "z"]),
    )]));
    let mut t = cross_modal::featurespace::FeatureTable::new(schema);
    for i in 0..n {
        t.push_row(&[FeatureValue::Categorical(CatSet::single((i % 4) as u32))]);
    }
    t
}

fn lfs() -> Vec<Box<dyn LabelingFunction>> {
    vec![
        Box::new(CategoricalContainsLf::new(0, vec![0], false, Vote::Positive)),
        Box::new(CategoricalContainsLf::new(0, vec![1], false, Vote::Negative)),
        Box::new(CategoricalContainsLf::new(0, vec![2], false, Vote::Positive)),
    ]
}

#[test]
fn vote_matrix_is_bit_identical() {
    let t = cat_table(30_000);
    let base = LabelMatrix::apply_with(&t, &lfs(), &ParConfig::threads(1));
    let base_stats = base.vote_stats(&ParConfig::threads(1));
    for threads in THREADS {
        let par = ParConfig::threads(threads);
        let m = LabelMatrix::apply_with(&t, &lfs(), &par);
        for r in 0..base.n_rows() {
            assert_eq!(m.row(r), base.row(r), "row {r}, threads = {threads}");
        }
        let stats = m.vote_stats(&par);
        assert_eq!(stats, base_stats, "threads = {threads}");
    }
}

#[test]
fn label_model_weights_are_bit_identical() {
    let t = cat_table(25_000);
    let m = LabelMatrix::apply_with(&t, &lfs(), &ParConfig::threads(1));
    let cfg = GenerativeConfig::default();
    let base = GenerativeModel::fit(&m, &cfg, &ParConfig::threads(1));
    let base_probs = base.predict(&m, &ParConfig::threads(1));
    for threads in THREADS {
        let par = ParConfig::threads(threads);
        let model = GenerativeModel::fit(&m, &cfg, &par);
        assert_eq!(model.accuracies(), base.accuracies(), "threads = {threads}");
        assert_eq!(
            model.class_prior().to_bits(),
            base.class_prior().to_bits(),
            "threads = {threads}"
        );
        assert_eq!(model.predict(&m, &par), base_probs, "threads = {threads}");
    }
}

#[test]
fn propagation_edge_lists_are_identical() {
    let t = cat_table(400);
    let cfg = SimilarityConfig::uniform(vec![0]);
    for builder in [GraphBuilder::exact(6), GraphBuilder::approximate(6, 400)] {
        let base = builder.build_with(&t, &cfg, 3, &ParConfig::threads(1));
        for threads in THREADS {
            let g = builder.build_with(&t, &cfg, 3, &ParConfig::threads(threads));
            assert_eq!(g, base, "threads = {threads}");
        }
    }
}

#[test]
fn logistic_weights_are_bit_identical() {
    let n = 4096;
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let cls = if i % 3 == 0 { 1.0f32 } else { -1.0 };
            let jitter = ((i * 37 % 100) as f32) / 100.0 - 0.5;
            vec![cls + jitter, -cls + jitter * 0.5, jitter]
        })
        .collect();
    let x = Matrix::from_rows(&rows);
    let y: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
    // Batch 2048 splits into multiple 256-item gradient chunks.
    let cfg = LogisticConfig { epochs: 4, batch_size: 2048, ..Default::default() };
    let base = LogisticRegression::fit(&x, &y, None, &cfg, &ParConfig::threads(1));
    for threads in THREADS {
        let par = ParConfig::threads(threads);
        let model = LogisticRegression::fit(&x, &y, None, &cfg, &par);
        assert_eq!(model.weights(), base.weights(), "threads = {threads}");
        assert_eq!(model.bias().to_bits(), base.bias().to_bits(), "threads = {threads}");
    }
}

#[test]
fn mined_itemsets_are_identical() {
    let t = cat_table(8000);
    let labels: Vec<Label> =
        (0..8000).map(|i| if i % 4 == 0 { Label::Positive } else { Label::Negative }).collect();
    let cfg = MiningConfig::default();
    let base = mine_itemsets(&t, &labels, &[0], &cfg, &ParConfig::threads(1));
    for threads in THREADS {
        let mined = mine_itemsets(&t, &labels, &[0], &cfg, &ParConfig::threads(threads));
        assert_eq!(mined.positive, base.positive, "threads = {threads}");
        assert_eq!(mined.negative, base.negative, "threads = {threads}");
        assert_eq!(mined.n_candidates, base.n_candidates, "threads = {threads}");
    }
}

#[test]
fn matmul_is_bit_identical() {
    let fill = |seed: u32, rows: usize, cols: usize| {
        let mut m = Matrix::zeros(rows, cols);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) & 0xFF) as f32
                / 255.0
                - 0.5;
        }
        m
    };
    // 150^3 > the matmul flop threshold, so the parallel path engages.
    let a = fill(1, 150, 150);
    let b = fill(2, 150, 150);
    let base = a.matmul(&b, &ParConfig::threads(1));
    for threads in THREADS {
        let c = a.matmul(&b, &ParConfig::threads(threads));
        assert_eq!(c.as_slice(), base.as_slice(), "threads = {threads}");
    }
}

/// A CT2 task big enough that LF evaluation over the text corpus, the
/// propagation graph and the models' gradient and forward passes all
/// cross their parallel thresholds.
fn entry_point_task() -> TaskData {
    TaskData::generate(TaskConfig::paper(TaskId::Ct2).scaled(0.2), 21, Some(400))
}

#[test]
fn curate_with_lfs_is_bit_identical() {
    let data = entry_point_task();
    let cfg = CurationConfig { prop_max_seeds: 400, ..CurationConfig::default() };
    let curate_at = |threads: usize| {
        let lfs = expert_lfs(data.world.schema()).unwrap();
        curate_with_lfs(&data, &cfg, lfs, Duration::ZERO, &ParConfig::threads(threads))
    };
    let base = curate_at(1);
    assert!(base.lf_names.iter().any(|n| n == "label_propagation"), "{:?}", base.lf_names);
    let out = curate_at(4);
    assert_eq!(bits(&out.probabilistic_labels), bits(&base.probabilistic_labels));
    assert_eq!(out.covered, base.covered);
    assert_eq!(out.lf_names, base.lf_names);
    assert_eq!(out.conflict.to_bits(), base.conflict.to_bits());
}

#[test]
fn scenario_runner_is_bit_identical() {
    let data = entry_point_task();
    let cfg = CurationConfig { use_label_propagation: false, ..CurationConfig::default() };
    let curation = curate_with_lfs(
        &data,
        &cfg,
        expert_lfs(data.world.schema()).unwrap(),
        Duration::ZERO,
        &ParConfig::serial(),
    );
    // Batches of 512 split into two gradient chunks.
    let train = TrainConfig { epochs: 2, batch_size: 512, ..TrainConfig::default() };
    let runner = ScenarioRunner { data: &data, model: ModelKind::Mlp { hidden: vec![8] }, train };
    let evals_at = |threads: usize| {
        let par = ParConfig::threads(threads);
        [FusionStrategy::Early, FusionStrategy::Intermediate, FusionStrategy::DeVise].map(|s| {
            let scenario = Scenario { strategy: s, ..Scenario::cross_modal(&FeatureSet::SHARED) };
            runner.run(&scenario, Some(&curation), &par).unwrap()
        })
    };
    let base = evals_at(1);
    for (eval, want) in evals_at(4).iter().zip(&base) {
        assert_eq!(eval.auprc.to_bits(), want.auprc.to_bits(), "{}", want.scenario);
        assert_eq!(eval, want);
    }

    // The predictions behind those AUPRCs: the same model family trained
    // on the text corpus, scored on more rows than the forward pass keeps
    // serial.
    let columns = data.world.schema().columns_in_sets(&FeatureSet::SHARED, false);
    let view = DenseView::fit(&[&data.text.table], columns).unwrap();
    let x = view.encode(&data.text.table);
    let y = data.text.labels_f64();
    let predict_at = |threads: usize| {
        let par = ParConfig::threads(threads);
        train_model(&runner.model, &x, &y, &runner.train, None, &par).predict_proba(&x, &par)
    };
    assert!(x.rows() > 1024);
    assert_eq!(bits(&predict_at(4)), bits(&predict_at(1)));
}

#[test]
fn incremental_restore_is_bit_identical() {
    let task = TaskConfig::paper(TaskId::Ct2).scaled(0.02);
    let world = World::build(WorldConfig::new(task.clone(), 5));
    let text = world.generate(ModalityKind::Text, task.n_text_labeled, 0x51);
    let pool = world.generate(ModalityKind::Image, 120, 0x52);
    let batch = |start: usize| pool.gather(&(start..start + 40).collect::<Vec<_>>());
    let config = IncrementalConfig {
        curation: CurationConfig {
            prop_max_seeds: 400,
            mining: MiningConfig { min_recall: 0.05, ..MiningConfig::default() },
            ..CurationConfig::default()
        },
        refit_max_iters: 20,
    };
    let serial = ParConfig::serial();
    let mut live = IncrementalCurator::new(&world, &text, config.clone());
    live.ingest_batch(&batch(0), &serial);
    live.ingest_batch(&batch(40), &serial);
    let state = live.export_state();
    let restore_at = |threads: usize| {
        let par = ParConfig::threads(threads);
        let mut c = IncrementalCurator::restore(&world, &text, config.clone(), state.clone(), &par);
        let restored = (bits(c.posteriors()), c.covered().to_vec(), c.lf_names().to_vec());
        let next = c.ingest_batch(&batch(80), &par);
        (restored, next, bits(c.posteriors()))
    };
    let base = restore_at(1);
    assert_eq!(base.0 .0, bits(live.posteriors()));
    assert_eq!(restore_at(4), base);
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
