//! Differential tests for the columnar hot-path kernels: every rewritten
//! kernel must be **bit-identical** to the row-wise implementation it
//! replaced, on seeded random inputs with realistic missingness.
//!
//! Three oracles are pinned here:
//! - [`normalized_similarity`] vs the fused [`PairKernel`] (both the
//!   presence-word fast path and the `>64`-column wide fallback);
//! - `cm_mining::reference::mine_itemsets_reference` (the retired
//!   row-at-a-time miner) vs the vertical bitset engine;
//! - `Matrix::matmul_reference` (the unblocked serial GEMM) vs the
//!   cache-blocked kernel.
//!
//! A final layer re-checks the cm-par contract end to end: graphs,
//! itemsets, and label matrices at explicit thread counts 1/2/4.

use std::sync::Arc;

use cross_modal::featurespace::FrozenTable;
use cross_modal::featurespace::{
    normalized_similarity, CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable,
    FeatureValue, Label, ModalityKind, PairKernel, ServingMode, SimilarityConfig, Vocabulary,
};
use cross_modal::labelmodel::{CategoricalContainsLf, LabelMatrix, LabelingFunction, Vote};
use cross_modal::linalg::Matrix;
use cross_modal::mining::reference::mine_itemsets_reference;
use cross_modal::mining::{mine_itemsets, MiningConfig};
use cross_modal::orgsim::{TaskConfig, TaskId, World, WorldConfig};
use cross_modal::par::ParConfig;
use cross_modal::propagation::GraphBuilder;

/// xorshift64* — deterministic, dependency-free test randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A mixed-kind table (3 numeric, 2 categorical, 1 embedding) with ~25%
/// missingness per cell, seeded.
fn mixed_table(n: usize, seed: u64) -> FeatureTable {
    let schema = Arc::new(FeatureSchema::from_defs(vec![
        FeatureDef::numeric("n0", FeatureSet::A, ServingMode::Servable),
        FeatureDef::numeric("n1", FeatureSet::A, ServingMode::Servable),
        FeatureDef::numeric("n2", FeatureSet::B, ServingMode::Servable),
        FeatureDef::categorical(
            "c0",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names(["a", "b", "c", "d", "e"]),
        ),
        FeatureDef::categorical(
            "c1",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names((0..80).map(|i| format!("t{i}")).collect::<Vec<_>>()),
        ),
        FeatureDef::embedding("e0", 8, FeatureSet::D, ServingMode::Servable),
    ]));
    let mut rng = Rng::new(seed);
    let mut t = FeatureTable::new(schema);
    for _ in 0..n {
        let mut row: Vec<FeatureValue> = Vec::with_capacity(6);
        for c in 0..6 {
            if rng.f64() < 0.25 {
                row.push(FeatureValue::Missing);
                continue;
            }
            row.push(match c {
                0..=2 => FeatureValue::Numeric(rng.f64() * 40.0 - 20.0),
                3 => FeatureValue::Categorical(CatSet::from_ids(
                    (0..1 + rng.below(3)).map(|_| rng.below(5) as u32).collect(),
                )),
                4 => FeatureValue::Categorical(CatSet::from_ids(
                    // Ids up to 80 defeat the u64 category-mask fast path.
                    (0..1 + rng.below(4)).map(|_| rng.below(80) as u32).collect(),
                )),
                _ => FeatureValue::Embedding((0..8).map(|_| rng.f64() as f32 - 0.5).collect()),
            });
        }
        t.push_row(&row);
    }
    t
}

#[test]
fn pair_kernel_is_bit_identical_to_normalized_similarity() {
    let t = mixed_table(80, 11);
    let config = SimilarityConfig::uniform(vec![0, 1, 2, 3, 4, 5]).fit_scales(&t);
    let frozen = FrozenTable::freeze(&t);
    let kernel = PairKernel::compile(&frozen, &config);
    for i in 0..t.len() {
        for j in 0..t.len() {
            let fused = kernel.pair(i, j);
            let reference = normalized_similarity((&t, i), (&t, j), &config);
            assert_eq!(fused.to_bits(), reference.to_bits(), "pair ({i}, {j})");
        }
    }
}

#[test]
fn pair_kernel_wide_fallback_is_bit_identical() {
    // >64 plan columns forces the per-column-bitmap wide path.
    let defs: Vec<FeatureDef> = (0..70)
        .map(|i| FeatureDef::numeric(&format!("n{i}"), FeatureSet::A, ServingMode::Servable))
        .collect();
    let schema = Arc::new(FeatureSchema::from_defs(defs));
    let mut rng = Rng::new(23);
    let mut t = FeatureTable::new(schema);
    for _ in 0..40 {
        let row: Vec<FeatureValue> = (0..70)
            .map(|_| {
                if rng.f64() < 0.3 {
                    FeatureValue::Missing
                } else {
                    FeatureValue::Numeric(rng.f64() * 10.0)
                }
            })
            .collect();
        t.push_row(&row);
    }
    let config = SimilarityConfig::uniform((0..70).collect()).fit_scales(&t);
    let frozen = FrozenTable::freeze(&t);
    let kernel = PairKernel::compile(&frozen, &config);
    for i in 0..t.len() {
        for j in i..t.len() {
            let fused = kernel.pair(i, j);
            let reference = normalized_similarity((&t, i), (&t, j), &config);
            assert_eq!(fused.to_bits(), reference.to_bits(), "pair ({i}, {j})");
        }
    }
}

/// Field-by-field equality of two mined results, with the f64 statistics
/// compared exactly (identical integer operands must give identical
/// quotients).
fn assert_same_itemsets(
    a: &cross_modal::mining::MinedItemsets,
    b: &cross_modal::mining::MinedItemsets,
    context: &str,
) {
    assert_eq!(a.n_candidates, b.n_candidates, "{context}: n_candidates");
    assert_eq!(a.positive, b.positive, "{context}: positive itemsets");
    assert_eq!(a.negative, b.negative, "{context}: negative itemsets");
}

#[test]
fn bitset_miner_matches_rowwise_reference_on_org_data() {
    let w = World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct1).scaled(0.02), 5));
    let data = w.generate(ModalityKind::Text, 1200, 3);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);
    for order in [1usize, 2, 3] {
        let cfg = MiningConfig { max_order: order, ..MiningConfig::default() };
        let fast = mine_itemsets(&data.table, &data.labels, &cols, &cfg, &ParConfig::serial());
        let oracle = mine_itemsets_reference(&data.table, &data.labels, &cols, &cfg);
        assert_same_itemsets(&fast, &oracle, &format!("order {order}"));
    }
}

#[test]
fn bitset_miner_matches_reference_on_seeded_mixed_table() {
    let t = mixed_table(600, 77);
    let mut rng = Rng::new(99);
    let labels: Vec<Label> = (0..t.len())
        .map(|_| if rng.f64() < 0.2 { Label::Positive } else { Label::Negative })
        .collect();
    let cols = vec![0, 1, 2, 3, 4];
    let cfg = MiningConfig { max_order: 2, min_recall: 0.05, ..MiningConfig::default() };
    let fast = mine_itemsets(&t, &labels, &cols, &cfg, &ParConfig::serial());
    let oracle = mine_itemsets_reference(&t, &labels, &cols, &cfg);
    assert_same_itemsets(&fast, &oracle, "mixed table");
}

#[test]
fn blocked_matmul_matches_reference_on_seeded_shapes() {
    let mut rng = Rng::new(41);
    for (m, k, n) in [(5, 7, 3), (64, 64, 64), (127, 65, 33), (33, 128, 1), (2, 3, 129)] {
        let mut fill = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| {
                // ~20% exact zeros exercise the sparsity gate.
                if rng.f64() < 0.2 {
                    0.0
                } else {
                    rng.f64() as f32 * 2.0 - 1.0
                }
            })
        };
        let a = fill(m, k);
        let b = fill(k, n);
        let blocked = a.matmul(&b, &ParConfig::serial());
        let reference = a.matmul_reference(&b);
        assert_eq!(blocked, reference, "shape {m}x{k}x{n}");
    }
}

/// The cm-par contract over the rewritten kernels: explicit thread counts
/// must never change a bit of any output.
#[test]
fn kernel_outputs_are_thread_count_invariant() {
    let w = World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct1).scaled(0.03), 9));
    let data = w.generate(ModalityKind::Text, 5000, 4);
    let cols = w.schema().columns_in_sets(&FeatureSet::SHARED, false);

    // Graph construction over the fused pair kernel.
    let sim = SimilarityConfig::uniform(cols.clone()).fit_scales(&data.table);
    let builder = GraphBuilder::approximate(8, data.table.len());
    let base_graph = builder.build_with(&data.table, &sim, 1, &ParConfig::threads(1));

    // Bitset mining (5k rows crosses MINE_PAR_ROWS).
    let cfg = MiningConfig { max_order: 2, ..MiningConfig::default() };
    let base_mined = mine_itemsets(&data.table, &data.labels, &cols, &cfg, &ParConfig::threads(1));

    // Frozen-view LF application.
    let lfs: Vec<Box<dyn LabelingFunction>> = cols
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, &c)| {
            Box::new(CategoricalContainsLf::new(
                c,
                vec![i as u32],
                false,
                if i % 2 == 0 { Vote::Positive } else { Vote::Negative },
            )) as Box<dyn LabelingFunction>
        })
        .collect();
    let base_votes = LabelMatrix::apply_with(&data.table, &lfs, &ParConfig::threads(1));

    for threads in [2usize, 4] {
        let par = ParConfig::threads(threads);
        assert_eq!(
            builder.build_with(&data.table, &sim, 1, &par),
            base_graph,
            "graph, threads = {threads}"
        );
        let mined = mine_itemsets(&data.table, &data.labels, &cols, &cfg, &par);
        assert_same_itemsets(&mined, &base_mined, &format!("threads = {threads}"));
        let votes = LabelMatrix::apply_with(&data.table, &lfs, &par);
        for r in 0..base_votes.n_rows() {
            assert_eq!(votes.row(r), base_votes.row(r), "row {r}, threads = {threads}");
        }
    }
}
