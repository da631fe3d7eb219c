//! Randomized tests on cross-crate invariants (seeded, in-tree PRNG).

use cross_modal::eval::{auprc, roc_auc};
use cross_modal::featurespace::{
    normalized_similarity, CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable,
    FeatureValue, FrozenTable, ServingMode, SimilarityConfig, Vocabulary,
};
use cross_modal::labelmodel::{
    majority_vote, BoundScoreLf, CategoricalContainsLf, CompiledSuite, ConjunctionLf, LabelMatrix,
    LabelingFunction, NumericThresholdLf, Predicate, ThresholdDirection, Vote, VotePatterns,
    APPEND_BLOCK_ROWS,
};
use cross_modal::linalg::rng::{Rng, StdRng};
use cross_modal::par::ParConfig;
use std::sync::Arc;

const CASES: u64 = 64;

fn schema() -> Arc<FeatureSchema> {
    Arc::new(FeatureSchema::from_defs(vec![
        FeatureDef::numeric("n", FeatureSet::A, ServingMode::Servable),
        FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names((0..8).map(|i| format!("v{i}"))),
        ),
    ]))
}

fn random_row(rng: &mut StdRng) -> Vec<FeatureValue> {
    let num = if rng.gen_bool(0.7) {
        FeatureValue::Numeric(rng.gen_range(-100.0..100.0))
    } else {
        FeatureValue::Missing
    };
    let cats = if rng.gen_bool(0.7) {
        let n = rng.gen_range(0..5usize);
        let mut ids: Vec<u32> = (0..n).map(|_| rng.gen_range(0..8u32)).collect();
        ids.sort_unstable();
        ids.dedup();
        FeatureValue::Categorical(CatSet::from_ids(ids))
    } else {
        FeatureValue::Missing
    };
    vec![num, cats]
}

fn random_table(
    rng: &mut StdRng,
    min_rows: usize,
    max_rows: usize,
) -> (FeatureTable, Vec<Vec<FeatureValue>>) {
    let n = rng.gen_range(min_rows..max_rows);
    let rows: Vec<Vec<FeatureValue>> = (0..n).map(|_| random_row(rng)).collect();
    let mut table = FeatureTable::new(schema());
    for row in &rows {
        table.push_row(row);
    }
    (table, rows)
}

/// Round trip: rows pushed into a table come back value-identical.
#[test]
fn table_round_trips_rows() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7AB1E ^ case);
        let (table, rows) = random_table(&mut rng, 1, 20);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(&table.row(r), row, "case {case}");
        }
    }
}

/// gather is a projection: gathering all indices reproduces the table.
#[test]
fn gather_identity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6A7 ^ case);
        let (table, _) = random_table(&mut rng, 1, 15);
        let all: Vec<usize> = (0..table.len()).collect();
        let g = table.gather(&all);
        for r in 0..table.len() {
            assert_eq!(table.row(r), g.row(r), "case {case}");
        }
    }
}

/// Similarity is symmetric, bounded, and maximal on identical rows.
#[test]
fn similarity_axioms() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51 ^ case);
        let (table, _) = random_table(&mut rng, 2, 12);
        let cfg = SimilarityConfig::uniform(vec![0, 1]);
        for i in 0..table.len() {
            for j in 0..table.len() {
                let a = normalized_similarity((&table, i), (&table, j), &cfg);
                let b = normalized_similarity((&table, j), (&table, i), &cfg);
                assert!((a - b).abs() < 1e-12, "case {case}");
                assert!((0.0..=1.0).contains(&a), "case {case}");
            }
            let present = table.is_present(i, 0) || table.is_present(i, 1);
            if present {
                let self_sim = normalized_similarity((&table, i), (&table, i), &cfg);
                assert!((self_sim - 1.0).abs() < 1e-9, "case {case}");
            }
        }
    }
}

/// AUPRC is invariant under strictly monotone score transforms and
/// bounded by [0, 1]; ROC-AUC of complemented labels mirrors around 0.5.
#[test]
fn ranking_metric_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xAA ^ case);
        let n = rng.gen_range(3..40usize);
        let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let ap = auprc(&scores, &labels);
        assert!((0.0..=1.0 + 1e-12).contains(&ap), "case {case}");
        // Monotone transform: exp(x/25) keeps the order (and stays finite).
        let transformed: Vec<f64> = scores.iter().map(|&s| (s / 25.0).exp()).collect();
        let ap_t = auprc(&transformed, &labels);
        assert!((ap - ap_t).abs() < 1e-9, "case {case}: {ap} vs {ap_t}");

        let auc = roc_auc(&scores, &labels);
        let inverted: Vec<f64> = scores.iter().map(|&s| -s).collect();
        let auc_inv = roc_auc(&inverted, &labels);
        let has_both = labels.iter().any(|&l| l) && labels.iter().any(|&l| !l);
        if has_both {
            assert!((auc + auc_inv - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}

/// Majority vote respects unanimity: rows where all non-abstain votes
/// agree get the extreme label.
#[test]
fn majority_vote_unanimity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x30 ^ case);
        let n_lfs = 4;
        let n_rows = rng.gen_range(1..15usize);
        let votes: Vec<i8> =
            (0..n_rows * n_lfs).map(|_| [-1i8, 0, 1][rng.gen_range(0..3usize)]).collect();
        let names = (0..n_lfs).map(|i| format!("lf{i}")).collect();
        let m = LabelMatrix::from_votes(n_rows, n_lfs, votes, names);
        let mv = majority_vote(&m);
        for (r, &value) in mv.iter().enumerate() {
            let row = m.row(r);
            let pos = row.iter().filter(|&&v| v > 0).count();
            let neg = row.iter().filter(|&&v| v < 0).count();
            if pos > 0 && neg == 0 {
                assert_eq!(value, 1.0, "case {case}");
            } else if neg > 0 && pos == 0 {
                assert_eq!(value, 0.0, "case {case}");
            } else if pos == 0 && neg == 0 {
                assert_eq!(value, 0.5, "case {case}");
            }
            assert!((0.0..=1.0).contains(&value), "case {case}");
        }
    }
}

/// The columns of the compiled-suite property test: two numeric, two
/// categorical and one embedding column (which every LF reads as "of
/// another kind").
fn lf_schema() -> Arc<FeatureSchema> {
    let vocab = || Vocabulary::from_names((0..12).map(|i| format!("v{i}")));
    Arc::new(FeatureSchema::from_defs(vec![
        FeatureDef::numeric("n0", FeatureSet::A, ServingMode::Servable),
        FeatureDef::categorical("c0", FeatureSet::C, ServingMode::Servable, vocab()),
        FeatureDef::numeric("n1", FeatureSet::A, ServingMode::Servable),
        FeatureDef::categorical("c1", FeatureSet::C, ServingMode::Servable, vocab()),
        FeatureDef::embedding("e", 2, FeatureSet::ModalitySpecific, ServingMode::Servable),
    ]))
}

/// A numeric value or threshold, edge values (±∞, NaN, bin-edge ties) half
/// the time.
fn edgy_f64(rng: &mut StdRng) -> f64 {
    const EDGES: [f64; 8] = [f64::NEG_INFINITY, -1.0, 0.0, 0.5, 1.0, 2.0, f64::INFINITY, f64::NAN];
    if rng.gen_bool(0.5) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(-3.0..3.0)
    }
}

/// A table with missing values, empty category sets, NaN and ±∞.
fn lf_table(rng: &mut StdRng, n: usize) -> FeatureTable {
    let mut table = FeatureTable::new(lf_schema());
    for _ in 0..n {
        let num = |rng: &mut StdRng| {
            if rng.gen_bool(0.2) {
                FeatureValue::Missing
            } else {
                FeatureValue::Numeric(edgy_f64(rng))
            }
        };
        let cat = |rng: &mut StdRng| {
            if rng.gen_bool(0.2) {
                FeatureValue::Missing
            } else if rng.gen_bool(0.15) {
                FeatureValue::Categorical(CatSet::new())
            } else {
                let k = rng.gen_range(1..6usize);
                FeatureValue::Categorical(CatSet::from_ids(
                    (0..k).map(|_| rng.gen_range(0..12u32)).collect(),
                ))
            }
        };
        let emb = if rng.gen_bool(0.5) {
            FeatureValue::Embedding(vec![0.5, -0.5])
        } else {
            FeatureValue::Missing
        };
        let row = [num(rng), cat(rng), num(rng), cat(rng), emb];
        table.push_row(&row);
    }
    table
}

/// One random LF of every shape the suites use: mined itemsets and bins
/// (including the single-bin `NEG_INFINITY` range), stumps, any-of and
/// require-all sets with duplicate or no ids, expert multi-column
/// conjunctions, bound scores. Columns are drawn over every kind, so some
/// LFs read a column of another kind.
#[derive(Clone)]
enum LfSpec {
    Cat(usize, Vec<u32>, bool, Vote),
    Num(usize, f64, ThresholdDirection, Vote),
    Conj(Vec<Predicate>, Vote),
    Scores(Arc<[f64]>, f64, f64),
}

impl LfSpec {
    fn random(rng: &mut StdRng, n_rows: usize) -> LfSpec {
        let vote = |rng: &mut StdRng| {
            [Vote::Positive, Vote::Negative, Vote::Abstain][rng.gen_range(0..10usize).min(9) / 4]
        };
        let column = |rng: &mut StdRng| rng.gen_range(0..5usize);
        let pred = |rng: &mut StdRng, column: usize| match rng.gen_range(0..3u32) {
            0 => Predicate::CatContains { column, id: rng.gen_range(0..14u32) },
            1 => Predicate::NumAbove { column, threshold: edgy_f64(rng) },
            _ => Predicate::NumBelow { column, threshold: edgy_f64(rng) },
        };
        match rng.gen_range(0..7u32) {
            0 | 1 => {
                let k = rng.gen_range(0..4usize);
                let ids = (0..k).map(|_| rng.gen_range(0..14u32)).collect();
                LfSpec::Cat(column(rng), ids, rng.gen_bool(0.5), vote(rng))
            }
            2 => {
                let dir = if rng.gen_bool(0.5) {
                    ThresholdDirection::Above
                } else {
                    ThresholdDirection::Below
                };
                LfSpec::Num(column(rng), edgy_f64(rng), dir, vote(rng))
            }
            3 => {
                // A mined numeric bin over one column.
                let c = column(rng);
                let preds = match rng.gen_range(0..4u32) {
                    0 => vec![Predicate::NumAbove { column: c, threshold: f64::NEG_INFINITY }],
                    1 => vec![Predicate::NumAbove { column: c, threshold: edgy_f64(rng) }],
                    2 => vec![Predicate::NumBelow { column: c, threshold: edgy_f64(rng) }],
                    _ => vec![
                        Predicate::NumAbove { column: c, threshold: edgy_f64(rng) },
                        Predicate::NumBelow { column: c, threshold: edgy_f64(rng) },
                    ],
                };
                LfSpec::Conj(preds, vote(rng))
            }
            4 | 5 => {
                // One column (compiled) or several (opaque), mixed kinds.
                let c = column(rng);
                let k = rng.gen_range(1..4usize);
                let one_column = rng.gen_bool(0.5);
                let preds = (0..k)
                    .map(|_| {
                        let at = if one_column { c } else { column(rng) };
                        pred(rng, at)
                    })
                    .collect();
                LfSpec::Conj(preds, vote(rng))
            }
            _ => {
                let scores: Vec<f64> = (0..n_rows).map(|_| edgy_f64(rng)).collect();
                LfSpec::Scores(scores.into(), 0.5, -0.5)
            }
        }
    }

    /// The LF, voting on a segment whose row 0 is row `offset`.
    fn build(&self, offset: usize) -> Box<dyn LabelingFunction> {
        match self {
            LfSpec::Cat(c, ids, all, v) => {
                Box::new(CategoricalContainsLf::new(*c, ids.clone(), *all, *v))
            }
            LfSpec::Num(c, t, d, v) => Box::new(NumericThresholdLf::new(*c, *t, *d, *v)),
            LfSpec::Conj(preds, v) => Box::new(ConjunctionLf::new("conj", preds.clone(), *v)),
            LfSpec::Scores(s, pos, neg) => {
                Box::new(BoundScoreLf::new("scores", Arc::clone(s), *pos, *neg).rebased(offset))
            }
        }
    }
}

/// Compiled ≡ `vote_frozen`, bit for bit: a random suite applied through
/// its compiled form equals the row-wise `vote_frozen` matrix at threads
/// {1, 2, 4}, and the pattern table appended through the suite segment by
/// segment (cuts {1, 97, whole}) equals `VotePatterns::from_matrix` of that
/// matrix — same ids, counts and distinct rows. The postings the suite
/// visits are identical at every thread count and sum exactly over the
/// segments.
#[test]
fn compiled_suite_matches_vote_frozen() {
    let mut covered_paths = (false, false);
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_4D1E ^ case);
        // Most tables are small; a few cross the parallel threshold and
        // the pattern append's block size.
        let n_rows = match case % 8 {
            0 => APPEND_BLOCK_ROWS + 811,
            1 => 5_000,
            _ => rng.gen_range(0..300usize),
        };
        let table = lf_table(&mut rng, n_rows);
        let n_lfs = rng.gen_range(1..24usize);
        let specs: Vec<LfSpec> = (0..n_lfs).map(|_| LfSpec::random(&mut rng, n_rows)).collect();
        let lfs: Vec<Box<dyn LabelingFunction>> = specs.iter().map(|s| s.build(0)).collect();
        let suite = CompiledSuite::compile(&lfs);
        covered_paths.0 |= suite.n_opaque() > 0;
        covered_paths.1 |= suite.n_opaque() < n_lfs;

        let frozen = FrozenTable::freeze(&table);
        let mut rowwise = Vec::with_capacity(n_rows * n_lfs);
        for r in 0..n_rows {
            rowwise.extend(lfs.iter().map(|lf| lf.vote_frozen(&frozen, r).as_i8()));
        }
        let names: Vec<String> = lfs.iter().map(|lf| lf.name().to_owned()).collect();
        let reference = LabelMatrix::from_votes(n_rows, n_lfs, rowwise, names.clone());
        let want = VotePatterns::from_matrix(&reference);

        let mut postings = None;
        for threads in [1usize, 2, 4] {
            let par = ParConfig::threads(threads);
            let m = LabelMatrix::apply_compiled(&table, &suite, &lfs, &par);
            assert_eq!(m, reference, "case {case} threads {threads}");
            assert_eq!(LabelMatrix::apply_with(&table, &lfs, &par), reference, "case {case}");
            for cut in [1usize, 97, n_rows.max(1)] {
                let mut got = VotePatterns::new(names.clone());
                let mut visited = 0u64;
                for start in (0..n_rows).step_by(cut) {
                    let end = (start + cut).min(n_rows);
                    let segment = table.gather(&(start..end).collect::<Vec<_>>());
                    let seg_lfs: Vec<Box<dyn LabelingFunction>> =
                        specs.iter().map(|s| s.build(start)).collect();
                    visited += got.extend_compiled(&segment, &suite, &seg_lfs, &par);
                }
                let what = format!("case {case} threads {threads} cut {cut}");
                assert_eq!(got.row_ids(), want.row_ids(), "{what}");
                assert_eq!(got.counts(), want.counts(), "{what}");
                assert_eq!(got.distinct(), want.distinct(), "{what}");
                assert_eq!(*postings.get_or_insert(visited), visited, "{what}");
            }
        }
    }
    assert!(covered_paths.0 && covered_paths.1, "suites must mix opaque and compiled LFs");
}
