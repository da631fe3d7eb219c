//! Microbenchmarks for every substrate on the pipeline's hot path:
//! feature generation, densification, itemset mining, label-model
//! fitting, graph construction, propagation, and model training.
//!
//! Uses a small in-tree timing harness (`harness = false`) so the
//! workspace builds with zero registry access. Each benchmark warms up,
//! then reports the median and minimum wall time over a fixed number of
//! samples. Filter by substring: `cargo bench --bench substrates -- mining`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cm_featurespace::{FeatureSet, ModalityKind, ServingMode, SimilarityConfig};
use cm_json::Json;
use cm_labelmodel::{AnchoredModel, GenerativeConfig, GenerativeModel, LabelMatrix};
use cm_linalg::Matrix;
use cm_mining::{mine_itemsets, mine_lfs, MiningConfig};
use cm_models::{LogisticRegression, Mlp, MlpEpochConfig};
use cm_orgsim::{TaskConfig, TaskId, World, WorldConfig};
use cm_par::ParConfig;
use cm_pipeline::{curate, curate_streamed, CurationConfig, DenseView, TaskData};
use cm_propagation::{propagate, propagate_streaming, GraphBuilder, PropagationConfig};
use cm_shard::ShardConfig;

/// Minimal stand-in for a criterion benchmark group: warmup + sampled
/// median/min timings, with substring filtering from the command line.
struct Harness {
    filter: Option<String>,
    /// `CM_BENCH_SAMPLES` override: when set, every group runs exactly
    /// this many samples regardless of its configured size. The CI smoke
    /// sets it to 1 so the benchmarks compile-and-execute cheaply.
    sample_override: Option<usize>,
}

impl Harness {
    fn from_args() -> Self {
        // `cargo bench -- <substring>`; ignore harness-style flags.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let sample_override = std::env::var("CM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        Self { filter, sample_override }
    }

    fn samples(&self, configured: usize) -> usize {
        self.sample_override.unwrap_or(configured)
    }

    fn group(&self, name: &'static str) -> Group<'_> {
        Group { harness: self, group: name, sample_size: self.samples(20) }
    }
}

struct Group<'a> {
    harness: &'a Harness,
    group: &'static str,
    sample_size: usize,
}

impl Group<'_> {
    fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = self.harness.samples(n);
        self
    }

    fn enabled(&self, name: &str) -> bool {
        let full = format!("{}/{}", self.group, name);
        self.harness.filter.as_deref().is_none_or(|f| full.contains(f))
    }

    /// Time `f` directly: one warmup call, then `sample_size` timed calls.
    fn bench_function<T>(&mut self, name: impl AsRef<str>, mut f: impl FnMut() -> T) -> &mut Self {
        self.bench_batched(name, || (), move |()| f())
    }

    /// Time `routine` on fresh input from `setup`; setup time is excluded.
    fn bench_batched<I, T>(
        &mut self,
        name: impl AsRef<str>,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> T,
    ) -> &mut Self {
        let name = name.as_ref();
        if !self.enabled(name) {
            return self;
        }
        black_box(routine(setup()));
        let mut samples: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        println!(
            "{}/{:<32} median {:>12?}  min {:>12?}  ({} samples)",
            self.group,
            name,
            median,
            min,
            samples.len()
        );
        self
    }

    fn finish(&mut self) {}
}

fn world() -> World {
    World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct1).scaled(0.05), 7))
}

fn bench_feature_generation(c: &Harness) {
    let mut group = c.group("featuregen");
    group.sample_size(20);
    let w = world();
    group.bench_function("generate_1k_image_rows", || w.generate(ModalityKind::Image, 1000, 3));

    let data = w.generate(ModalityKind::Image, 2000, 4);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, true);
    group.bench_function("dense_fit_2k", || DenseView::fit(&[&data.table], cols.clone()).unwrap());
    let view = DenseView::fit(&[&data.table], cols).unwrap();
    group.bench_function("dense_encode_2k", || view.encode(&data.table));
    group.finish();
}

fn bench_mining(c: &Harness, par: &ParConfig) {
    let mut group = c.group("mining");
    group.sample_size(20);
    let w = world();
    let data = w.generate(ModalityKind::Text, 5000, 5);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    for order in [1usize, 2] {
        let cfg = MiningConfig { max_order: order, ..MiningConfig::default() };
        group.bench_function(format!("apriori_5k_order{order}"), || {
            mine_itemsets(&data.table, &data.labels, &cols, &cfg, par)
        });
    }
    group.finish();
}

fn synthetic_matrix(n: usize, n_lfs: usize) -> (LabelMatrix, Vec<cm_featurespace::Label>) {
    use cm_featurespace::Label;
    let mut votes = Vec::with_capacity(n * n_lfs);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let pos = i % 20 == 0;
        labels.push(if pos { Label::Positive } else { Label::Negative });
        for j in 0..n_lfs {
            let fires = (i * 31 + j * 7) % 10 < 3;
            votes.push(if !fires {
                0
            } else if pos == (j % 2 == 0) {
                1
            } else {
                -1
            });
        }
    }
    let names = (0..n_lfs).map(|j| format!("lf{j}")).collect();
    (LabelMatrix::from_votes(n, n_lfs, votes, names), labels)
}

fn bench_label_model(c: &Harness, par: &ParConfig) {
    let mut c = c.group("labelmodel");
    c.sample_size(20);
    let (m, labels) = synthetic_matrix(20_000, 40);
    c.bench_function("anchored_fit_predict_20k_x40", || {
        let model = AnchoredModel::fit(&m, &labels, None);
        model.predict(&m)
    });
    c.bench_function("em_fit_20k_x40", || {
        let cfg = GenerativeConfig { max_iters: 20, ..GenerativeConfig::default() };
        GenerativeModel::fit(&m, &cfg, par)
    });
    c.finish();
}

fn bench_propagation(c: &Harness) {
    let mut c = c.group("propagation");
    c.sample_size(10);
    let w = world();
    let mut combined = w.generate(ModalityKind::Text, 1500, 8).table;
    combined.extend_from(&w.generate(ModalityKind::Image, 1500, 9).table);
    let mut cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    cols.push(w.schema().column("img_embedding").unwrap());
    let sim = SimilarityConfig::uniform(cols).fit_scales(&combined);

    c.bench_function("knn_graph_3k_anchors", || {
        GraphBuilder::approximate(10, combined.len()).build(&combined, &sim, 1)
    });
    let graph = GraphBuilder::approximate(10, combined.len()).build(&combined, &sim, 1);
    let seeds: Vec<(usize, f64)> = (0..1000).map(|v| (v, (v % 20 == 0) as u8 as f64)).collect();
    let cfg = PropagationConfig::default();
    c.bench_function("jacobi_3k", || propagate(&graph, &seeds, &cfg));
    c.bench_function("gauss_seidel_3k", || propagate_streaming(&graph, &seeds, &cfg));
    c.finish();
}

fn bench_training(c: &Harness, par: &ParConfig) {
    let mut c = c.group("training");
    c.sample_size(10);
    let w = world();
    let data = w.generate(ModalityKind::Image, 4000, 11);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, true);
    let view = DenseView::fit(&[&data.table], cols).unwrap();
    let x = view.encode(&data.table);
    let y = data.labels_f64();

    c.bench_function("logistic_fit_4k", || {
        LogisticRegression::fit(
            &x,
            &y,
            None,
            &cm_models::logistic::LogisticConfig { epochs: 3, ..Default::default() },
            par,
        )
    });
    c.bench_batched(
        "mlp_epoch_4k_h32",
        || Mlp::new(x.cols(), &[32], 0.01, 1),
        |mut mlp| {
            mlp.train_epoch(
                &x,
                &y,
                None,
                &MlpEpochConfig { batch_size: 128, l2: 1e-4, shuffle_seed: 0 },
                par,
            )
        },
    );
    c.finish();
}

/// Serial-vs-parallel comparison of the `cm-par`-wired hot paths at
/// explicit thread counts (independent of `CM_THREADS`). On a single-core
/// host the t4 rows measure substrate overhead rather than speedup; see
/// `results/BENCH_par.json` for recorded context.
fn bench_par_substrate(c: &Harness) {
    let mut group = c.group("par");
    group.sample_size(10);

    // Apriori candidate-support counting (two chunked counting passes).
    let w = world();
    let data = w.generate(ModalityKind::Text, 8000, 5);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    let mine_cfg = MiningConfig::default();
    for threads in [1usize, 4] {
        let par = ParConfig::threads(threads);
        group.bench_function(format!("apriori_support_8k_t{threads}"), || {
            mine_itemsets(&data.table, &data.labels, &cols, &mine_cfg, &par)
        });
    }

    // Vote-matrix statistics over a 100k x 8 matrix (single fused pass).
    let (m, _) = synthetic_matrix(100_000, 8);
    for threads in [1usize, 4] {
        let par = ParConfig::threads(threads);
        group.bench_function(format!("vote_stats_100k_x8_t{threads}"), || m.vote_stats(&par));
    }

    // Dense GEMM, 256^3 (row chunks above the flop threshold).
    let fill = |seed: u32| {
        let mut m = Matrix::zeros(256, 256);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) & 0xFF) as f32
                / 255.0
                - 0.5;
        }
        m
    };
    let (a, b) = (fill(1), fill(2));
    for threads in [1usize, 4] {
        let par = ParConfig::threads(threads);
        group.bench_function(format!("matmul_256_t{threads}"), || a.matmul(&b, &par));
    }
    group.finish();
}

/// The columnar hot-path kernels, benchmarked at an explicit single
/// thread so speedups are layout/fusion wins, not parallelism. The names
/// here are referenced by `results/BENCH_kernels.json`; the CI smoke runs
/// this group once with `CM_BENCH_SAMPLES=1`.
fn bench_kernels(c: &Harness) {
    let mut group = c.group("kernels");
    group.sample_size(10);
    let w = world();
    let par = ParConfig::threads(1);

    // Fused pair-weight kernel: mixed-modality 3k-row knn graph (same
    // workload as propagation/knn_graph_3k_anchors).
    let mut combined = w.generate(ModalityKind::Text, 1500, 8).table;
    combined.extend_from(&w.generate(ModalityKind::Image, 1500, 9).table);
    let mut cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    cols.push(w.schema().column("img_embedding").unwrap());
    let sim = SimilarityConfig::uniform(cols).fit_scales(&combined);
    group.bench_function("frozen_build_3k", || cm_featurespace::FrozenTable::freeze(&combined));
    group.bench_function("knn_graph_3k_anchors", || {
        GraphBuilder::approximate(10, combined.len()).build_with(&combined, &sim, 1, &par)
    });

    // Vertical bitset support counting (same workload as
    // mining/apriori_5k_order{1,2}).
    let data = w.generate(ModalityKind::Text, 5000, 5);
    let mine_cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    for order in [1usize, 2] {
        let cfg = MiningConfig { max_order: order, ..MiningConfig::default() };
        group.bench_function(format!("apriori_5k_order{order}"), || {
            mine_itemsets(&data.table, &data.labels, &mine_cols, &cfg, &par)
        });
    }

    // Mined-LF evaluation through the compiled suite: CT1 LFs mined on 2k
    // labeled text rows (the pool-anchored benchmark's suite shape), applied
    // to 50k image rows. The votes must equal row-wise `vote_frozen`.
    let cur = CurationConfig::default();
    let lf_cols: Vec<usize> = w
        .schema()
        .columns_in_sets(&cur.lf_sets, false)
        .into_iter()
        .filter(|&c| w.schema().def(c).is_some_and(|d| d.serving == ServingMode::Servable))
        .collect();
    let text = w.generate(ModalityKind::Text, 2000, 11);
    let lfs = mine_lfs(
        &text.table,
        &text.labels,
        &lf_cols,
        &cur.mining,
        cur.max_positive_lfs,
        cur.max_negative_lfs,
    )
    .lfs;
    let pool = w.generate(ModalityKind::Image, 50_000, 12).table;
    let frozen = cm_featurespace::FrozenTable::freeze(&pool);
    let applied = LabelMatrix::apply_with(&pool, &lfs, &par);
    for r in 0..pool.len() {
        let want: Vec<i8> = lfs.iter().map(|lf| lf.vote_frozen(&frozen, r).as_i8()).collect();
        assert_eq!(applied.row(r), want, "compiled LF votes differ from vote_frozen at row {r}");
    }
    group.bench_function("lf_apply_50k", || LabelMatrix::apply_with(&pool, &lfs, &par));

    // Cache-blocked GEMM, 256^3 (same operands as par/matmul_256_t1).
    let fill = |seed: u32| {
        let mut m = Matrix::zeros(256, 256);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) & 0xFF) as f32
                / 255.0
                - 0.5;
        }
        m
    };
    let (a, b) = (fill(1), fill(2));
    group.bench_function("matmul_256", || a.matmul(&b, &par));
    group.finish();
}

fn bench_end_to_end_curation(c: &Harness) {
    let mut group = c.group("pipeline");
    group.sample_size(10);
    let data = TaskData::generate(TaskConfig::paper(TaskId::Ct1).scaled(0.02), 3, Some(64));
    let cfg = CurationConfig { prop_max_seeds: 500, ..CurationConfig::default() };
    group.bench_function("curate_ct1_tiny", || curate(&data, &cfg));
    group.finish();
}

/// Overhead of the resilient access layer (see `results/BENCH_faults.json`):
/// featurization routed through a *disabled* fault plan must cost <1% over
/// direct generation, and the degradation accounting in curation must not
/// move the end-to-end hot path.
fn bench_faults(c: &Harness) {
    use cm_faults::{AccessLayer, AccessPolicy, FaultPlan};
    let mut group = c.group("faults");
    group.sample_size(20);
    let w = world();
    group.bench_function("generate_2k_direct", || w.generate(ModalityKind::Image, 2000, 3));
    let disabled = FaultPlan::disabled();
    let descriptors = w.service_descriptors();
    group.bench_function("generate_2k_disabled_layer", || {
        let mut layer =
            AccessLayer::new(&disabled, AccessPolicy::default(), &descriptors, 3).unwrap();
        w.generate_via(ModalityKind::Image, 2000, 3, &mut layer, 0).unwrap()
    });
    let storm = FaultPlan::parse(
        "seed=7;topics=unavailable@0.5;keywords=transient(2)@0.6;page_quality=latency(300)@0.5;\
         user_reports=corrupt@0.4;kg_entities=stale",
    )
    .unwrap();
    group.bench_function("generate_2k_storm", || {
        let mut layer = AccessLayer::new(&storm, AccessPolicy::default(), &descriptors, 3).unwrap();
        w.generate_via(ModalityKind::Image, 2000, 3, &mut layer, 0).unwrap()
    });

    let task = TaskConfig::paper(TaskId::Ct1).scaled(0.02);
    let clean = TaskData::generate(task.clone(), 3, Some(64));
    let faulted =
        TaskData::generate_with_faults(task, 3, Some(64), &storm, AccessPolicy::default()).unwrap();
    let cfg = CurationConfig { prop_max_seeds: 500, ..CurationConfig::default() };
    group.bench_function("curate_clean", || curate(&clean, &cfg));
    group.bench_function("curate_under_storm", || curate(&faulted, &cfg));
    group.finish();
}

/// Scale sweep for the curation driver's streamed arm: 10^4 -> 10^6 pool
/// rows streamed through `curate_streamed` under the default
/// `CM_MEM_BUDGET`, recording rows/sec, peak resident bytes and segment
/// counts into `results/BENCH_scale.json`. Each size is one end-to-end
/// timed run (these are full curations, not microbenchmarks); the per-layer
/// split is the perfbench traced run's. `CM_SCALE_MAX_ROWS` caps the sweep
/// for smoke runs; `CM_SCALE_JSON` overrides the output path.
fn bench_scale(c: &Harness) {
    let group = c.group("scale");
    let max_rows = std::env::var("CM_SCALE_MAX_ROWS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1_000_000);
    let config = CurationConfig { use_label_propagation: false, ..CurationConfig::default() };
    let shard = ShardConfig::default();
    let mut rows: Vec<Json> = Vec::new();
    for n in [10_000usize, 100_000, 1_000_000] {
        let name = format!("curate_streamed_{n}");
        if n > max_rows || !group.enabled(&name) {
            continue;
        }
        let task = TaskConfig {
            n_text_labeled: 2000,
            n_image_unlabeled: n,
            n_image_test: 0,
            ..TaskConfig::paper(TaskId::Ct1)
        };
        let start = Instant::now();
        let streamed = curate_streamed(task, 3, &config, &shard).unwrap();
        let elapsed = start.elapsed();
        let rows_per_sec = n as f64 / elapsed.as_secs_f64();
        println!(
            "scale/{:<32} {:>12?}  {:>10.0} rows/s  peak {:>11} bytes  ({} segments)",
            name, elapsed, rows_per_sec, streamed.stats.peak_bytes, streamed.stats.segments
        );
        assert_eq!(streamed.output.probabilistic_labels.len(), n);
        rows.push(Json::obj([
            ("rows", Json::Num(n as f64)),
            ("segments", Json::Num(streamed.stats.segments as f64)),
            ("segment_rows", Json::Num(streamed.stats.segment_rows as f64)),
            ("elapsed_ms", Json::Num(elapsed.as_secs_f64() * 1e3)),
            ("rows_per_sec", Json::Num(rows_per_sec)),
            ("peak_resident_bytes", Json::Num(streamed.stats.peak_bytes as f64)),
        ]));
    }
    if rows.is_empty() {
        return;
    }
    let report = Json::obj([
        ("bench", Json::Str("scale".to_owned())),
        ("source", Json::Str("cargo bench -p cm-bench --bench substrates -- scale".to_owned())),
        (
            "config",
            Json::obj([
                ("task", Json::Str("CT1 profile, n_text_labeled=2000, no test set".to_owned())),
                ("label_model", Json::Str("anchored".to_owned())),
                ("use_label_propagation", Json::Bool(false)),
                ("shard_rows", Json::Num(shard.segment_rows as f64)),
                ("mem_budget_bytes", Json::Num(shard.budget.limit() as f64)),
            ]),
        ),
        ("results", Json::Arr(rows)),
    ]);
    let path = std::env::var("CM_SCALE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_scale.json").to_owned()
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(&path, report.to_string_pretty()).unwrap();
    println!("scale: wrote {path}");
}

fn main() {
    let harness = Harness::from_args();
    let par = ParConfig::from_env();
    bench_feature_generation(&harness);
    bench_mining(&harness, &par);
    bench_label_model(&harness, &par);
    bench_propagation(&harness);
    bench_training(&harness, &par);
    bench_par_substrate(&harness);
    bench_kernels(&harness);
    bench_end_to_end_curation(&harness);
    bench_faults(&harness);
    bench_scale(&harness);
}
