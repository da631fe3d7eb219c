//! Sharded ≡ unsharded, bit for bit.
//!
//! The `cm-shard` contract: streaming curation through fixed-size column
//! segments under a memory budget changes *nothing* about the output — at
//! any shard size (one row, a prime, a power of two, the whole corpus) and
//! any thread count. These tests pin that equivalence end to end (LF
//! votes, label-model posteriors, conflict, quality report) and for the
//! individual substrates (similarity scales, k-NN graphs).

use cross_modal::featurespace::{ErrorKind, SimilarityConfig};
use cross_modal::mining::MiningConfig;
use cross_modal::par::ParConfig;
use cross_modal::prelude::*;
use cross_modal::propagation::{GraphBuilder, KnnMethod};
use cross_modal::shard::corpus::dataset_bytes;
use cross_modal::shard::{
    build_graph_sharded, fit_scales_sharded, MemBudget, MemTracker, SegmentedCorpus, ShardConfig,
    StreamSpec,
};

/// Shard sizes the ISSUE pins: one row, a prime, a power of two, and
/// larger than any corpus here (the whole-corpus / single-segment case).
const SHARD_SIZES: [usize; 4] = [1, 97, 256, 1 << 20];

fn task() -> TaskConfig {
    TaskConfig::paper(TaskId::Ct2).scaled(0.02)
}

fn fast_config() -> CurationConfig {
    CurationConfig {
        prop_max_seeds: 400,
        mining: MiningConfig { min_recall: 0.05, ..MiningConfig::default() },
        ..CurationConfig::default()
    }
}

/// Asserts every output field that must be bit-identical between the
/// resident and streamed drivers (durations excepted).
fn assert_outputs_match(got: &CurationOutput, want: &CurationOutput, what: &str) {
    assert_eq!(got.lf_names, want.lf_names, "{what}: lf_names");
    assert_eq!(got.covered, want.covered, "{what}: covered");
    assert_eq!(got.probabilistic_labels.len(), want.probabilistic_labels.len(), "{what}: len");
    for (i, (g, w)) in got.probabilistic_labels.iter().zip(&want.probabilistic_labels).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: label {i}: {g} vs {w}");
    }
    assert_eq!(got.conflict.to_bits(), want.conflict.to_bits(), "{what}: conflict");
    assert_eq!(got.ws_quality, want.ws_quality, "{what}: ws_quality");
    assert_eq!(got.degradation.dropped_lfs, want.degradation.dropped_lfs, "{what}: drops");
    assert_eq!(
        got.degradation.pool_coverage.to_bits(),
        want.degradation.pool_coverage.to_bits(),
        "{what}: pool_coverage"
    );
}

#[test]
fn streamed_curation_matches_resident_across_shard_sizes_and_threads() {
    let config = CurationConfig { use_label_propagation: false, ..fast_config() };
    let data = TaskData::generate(task(), 5, Some(64));
    let want = curate(&data, &config);
    for shard_rows in SHARD_SIZES {
        for threads in [1usize, 2, 4] {
            let got = curate_streamed_with(
                task(),
                5,
                &config,
                &ShardConfig::with_segment_rows(shard_rows),
                &ParConfig::threads(threads),
            )
            .unwrap();
            let what = format!("shard_rows={shard_rows} threads={threads}");
            assert_outputs_match(&got.output, &want, &what);
            assert_eq!(got.stats.pool_rows, data.pool.len(), "{what}");
            assert_eq!(got.stats.segments, data.pool.len().div_ceil(shard_rows), "{what}");
            assert!(got.stats.peak_bytes > 0, "{what}: nothing was ever charged");
        }
    }
}

#[test]
fn streamed_curation_matches_resident_with_propagation() {
    let config = fast_config();
    let data = TaskData::generate(task(), 5, Some(64));
    let want = curate(&data, &config);
    assert!(
        want.lf_names.iter().any(|n| n == "label_propagation"),
        "fixture must exercise the propagation LF"
    );
    for (shard_rows, threads) in [(97usize, 1usize), (97, 4), (1 << 20, 1), (1 << 20, 4)] {
        let got = curate_streamed_with(
            task(),
            5,
            &config,
            &ShardConfig::with_segment_rows(shard_rows),
            &ParConfig::threads(threads),
        )
        .unwrap();
        assert_outputs_match(&got.output, &want, &format!("prop shard_rows={shard_rows}"));
    }
}

#[test]
fn streamed_curation_matches_resident_under_em_model() {
    let config = CurationConfig {
        use_label_propagation: false,
        label_model: LabelModelKind::Em,
        ..fast_config()
    };
    let want = curate(&TaskData::generate(task(), 5, Some(64)), &config);
    for threads in [1usize, 2] {
        let got = curate_streamed_with(
            task(),
            5,
            &config,
            &ShardConfig::with_segment_rows(64),
            &ParConfig::threads(threads),
        )
        .unwrap();
        assert_outputs_match(&got.output, &want, &format!("em threads={threads}"));
    }
}

/// The streamed driver charges what it holds, so its reported peak is a
/// budget it fits exactly: a rerun at the peak succeeds with the same
/// labels, one byte less is refused with a typed error. With propagation
/// on, the peak covers what the pool sweep holds at once: the text
/// corpus, the pool's vote-pattern ids and the propagation LF's pool
/// scores.
#[test]
fn streamed_curation_fits_exactly_its_own_peak_budget() {
    let data = TaskData::generate(task(), 5, Some(64));
    let n_pool = data.pool.len();
    for propagation in [false, true] {
        let config = CurationConfig { use_label_propagation: propagation, ..fast_config() };
        for segment_rows in [97usize, 1 << 20] {
            let what = format!("propagation={propagation} shard_rows={segment_rows}");
            let run = |budget: MemBudget| {
                curate_streamed_with(
                    task(),
                    5,
                    &config,
                    &ShardConfig { segment_rows, budget },
                    &ParConfig::threads(1),
                )
            };
            let first = run(MemBudget::default()).unwrap();
            let peak = first.stats.peak_bytes;
            let at_peak = run(MemBudget::bytes(peak)).unwrap();
            assert_outputs_match(&at_peak.output, &first.output, &what);
            assert_eq!(at_peak.stats.peak_bytes, peak, "{what}");
            let Err(err) = run(MemBudget::bytes(peak - 1)) else {
                panic!("{what}: a budget one byte under the peak was accepted");
            };
            assert_eq!(err.kind, ErrorKind::InvalidConfig, "{what}: {err}");
            if propagation {
                assert!(
                    first.output.lf_names.iter().any(|n| n == "label_propagation"),
                    "{what}: fixture must exercise the propagation LF"
                );
                // Text corpus, the pool's row → pattern-id column and the
                // propagation LF's pool scores.
                let floor = dataset_bytes(&data.text) + 4 * n_pool + 8 * n_pool;
                assert!(peak >= floor, "{what}: peak {peak} below the sweep's holdings {floor}");
            }
        }
    }
}

#[test]
fn knn_graphs_match_resident_across_shard_sizes_and_threads() {
    let world = World::build(WorldConfig::new(task(), 13));
    let head = world.generate(ModalityKind::Text, 240, 31);
    let tail = world.generate(ModalityKind::Image, 240, 32);
    let mut resident = head.table.clone();
    resident.extend_from(&tail.table);
    let columns: Vec<usize> = (0..resident.schema().len()).collect();
    let sim = SimilarityConfig::uniform(columns.clone()).fit_scales(&resident);

    let exact = GraphBuilder::exact(5);
    let anchors = GraphBuilder {
        k: 5,
        method: KnnMethod::Anchors { n_anchors: 24, probes: 3, max_candidates: 64 },
        min_weight: 0.05,
    };
    assert!(!anchors.uses_exact(resident.len()), "must exercise the anchor path");
    for builder in [&exact, &anchors] {
        let want = builder.build_with(&resident, &sim, 17, &ParConfig::threads(1));
        for threads in [2usize, 4] {
            let same = builder.build_with(&resident, &sim, 17, &ParConfig::threads(threads));
            assert_eq!(same, want, "resident {:?} drifted at {threads} threads", builder.method);
        }
        for shard_rows in SHARD_SIZES {
            let mut corpus = SegmentedCorpus::new(shard_rows);
            corpus.push_head(&head.table);
            corpus.set_stream(StreamSpec {
                world: &world,
                modality: ModalityKind::Image,
                rows: 240,
                seed: 32,
            });
            // Sharded scales must agree first: the graph consumes them.
            let mut tracker = MemTracker::new(MemBudget::default());
            let scales = fit_scales_sharded(&corpus, &columns, &mut tracker).unwrap();
            for ((c1, s1), (c2, s2)) in scales.numeric_scales.iter().zip(&sim.numeric_scales) {
                assert_eq!(c1, c2);
                assert_eq!(s1.to_bits(), s2.to_bits(), "scale for column {c1}");
            }
            let got = build_graph_sharded(&corpus, builder, &sim, 17, &mut tracker).unwrap();
            assert_eq!(got, want, "{:?} at shard_rows={shard_rows}", builder.method);
        }
    }
}
