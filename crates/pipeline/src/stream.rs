//! The one batch curation driver.
//!
//! `curate_pool` runs the whole curation step — LF mining on the resident
//! labeled text corpus, the optional label-propagation LF, LF application
//! over the unlabeled pool, and the label model — over a pool that is
//! either resident or streamed. `curate` and `curate_with_lfs` hand it
//! [`TaskData`]'s resident pool, swept as one borrowed segment at offset 0
//! (no gather, no copy) under an unbounded budget. [`curate_streamed`]
//! never materializes the pool: `orgsim` generation is consumed in
//! `CM_SHARD_ROWS`-sized segments under an explicit `CM_MEM_BUDGET`
//! ([`cm_shard::MemTracker`] fails a run rather than exceed it).
//!
//! The streamed output is **bit-identical** to `curate` over
//! [`TaskData::generate`] with the same `(task, seed, config)`, at any
//! shard size and any `CM_THREADS` — durations excepted. The LF suite is
//! compiled once ([`CompiledSuite`]) and every segment's votes go straight
//! into the pool's vote-pattern table ([`VotePatterns`]); votes are pure
//! per-row and rows are interned in offset order, so the table equals the
//! one of a whole-pool apply, and no pool-sized vote matrix is ever held.
//! The label model is fitted on the dev corpus (anchored) or on exact
//! mergeable moments (EM), the propagation graph's two sources (see
//! `propagation_lf`) build the same edges bit for bit, and the telemetry
//! scans and the label model run once per distinct pattern, bit-identical
//! to the row scans.

use std::time::Duration;

use cm_faults::{FaultSummary, Stopwatch};
use cm_featurespace::{CmResult, Label, ModalityKind, SimilarityConfig};
use cm_labelmodel::{
    majority_vote, AnchoredModel, BoundScoreLf, CompiledSuite, GenerativeConfig, GenerativeModel,
    LabelMatrix, LabelingFunction, LfRates, VotePatterns, VoteStats, APPEND_BLOCK_ROWS,
};
use cm_mining::mine_lfs_tracked;
use cm_orgsim::{ModalityDataset, TaskConfig, World, WorldConfig};
use cm_par::ParConfig;
use cm_propagation::{propagate, GraphBuilder};
use cm_shard::corpus::dataset_bytes;
use cm_shard::{
    build_graph_sharded, fit_scales_sharded, for_each_pool_segment, MemBudget, MemTracker,
    SegmentedCorpus, ShardConfig, StreamSpec,
};

use crate::curation::{
    lf_columns, sim_columns, ws_quality, CurationConfig, CurationOutput, LabelModelKind, PropSetup,
};
use crate::data::TaskData;
use crate::report::{DegradationReport, LfAbstainRates};

/// Telemetry from a streamed curation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Pool segments streamed by the LF-application pass.
    pub segments: usize,
    /// Rows per segment the run was sharded at.
    pub segment_rows: usize,
    /// High-water mark of tracked resident bytes.
    pub peak_bytes: usize,
    /// Total pool rows curated.
    pub pool_rows: usize,
}

/// A streamed curation result: the (resident-identical) curation output
/// plus sharding telemetry.
pub struct StreamedCuration {
    /// The curation output, bit-identical to the resident driver's.
    pub output: CurationOutput,
    /// Sharding and memory telemetry.
    pub stats: StreamStats,
}

/// Runs sharded curation for `(task, seed)` under `shard`'s segment size
/// and memory budget. See the module docs for the equivalence contract.
///
/// # Errors
/// Returns [`cm_featurespace::ErrorKind::InvalidConfig`] when a stage
/// would have to hold more resident bytes than `shard.budget` allows.
pub fn curate_streamed(
    task: TaskConfig,
    seed: u64,
    config: &CurationConfig,
    shard: &ShardConfig,
) -> CmResult<StreamedCuration> {
    // lint: allow(par-from-env) — the perfbench adapter calls curate_streamed
    curate_streamed_with(task, seed, config, shard, &ParConfig::from_env())
}

/// [`curate_streamed`] with an explicit parallel configuration.
///
/// # Errors
/// Returns [`cm_featurespace::ErrorKind::InvalidConfig`] when a stage
/// would have to hold more resident bytes than `shard.budget` allows.
pub fn curate_streamed_with(
    task: TaskConfig,
    seed: u64,
    config: &CurationConfig,
    shard: &ShardConfig,
    par: &ParConfig,
) -> CmResult<StreamedCuration> {
    let world = World::build(WorldConfig::new(task, seed));
    // The per-dataset seeds `TaskData::generate` derives; segment streams
    // with these seeds concatenate to its datasets bit for bit.
    let ds = seed ^ 0xD1CE;
    let text = world.generate(ModalityKind::Text, world.config().task.n_text_labeled, ds ^ 0x1);
    let spec = StreamSpec {
        world: &world,
        modality: ModalityKind::Image,
        rows: world.config().task.n_image_unlabeled,
        seed: ds ^ 0x2,
    };
    let pool = Pool::Streamed { spec, segment_rows: shard.segment_rows };
    let mut tracker = MemTracker::new(shard.budget);
    let (output, segments) = curate_pool(&text, &pool, LfSource::Mined, config, &mut tracker, par)?;
    let stats = StreamStats {
        segments,
        segment_rows: shard.segment_rows,
        peak_bytes: tracker.peak(),
        pool_rows: spec.rows,
    };
    Ok(StreamedCuration { output, stats })
}

/// Where a run's LF suite comes from.
pub(crate) enum LfSource {
    /// Mined from the labeled text corpus (§4.3).
    Mined,
    /// Provided by the caller, with its authoring time reported as the
    /// mining time.
    Provided(Vec<Box<dyn LabelingFunction>>, Duration),
}

/// Runs the driver over `data`'s resident pool: the body of `curate` and
/// `curate_with_lfs`, which stay infallible.
pub(crate) fn curate_resident(
    data: &TaskData,
    config: &CurationConfig,
    lfs: LfSource,
    par: &ParConfig,
) -> CurationOutput {
    let mut tracker = MemTracker::new(MemBudget::bytes(usize::MAX));
    match curate_pool(&data.text, &Pool::Resident(data), lfs, config, &mut tracker, par) {
        Ok((output, _)) => output,
        // A resident pool fails only on a refused charge, and the tracked
        // total saturates at `usize::MAX`: this budget refuses none.
        Err(e) => unreachable!("an unbounded memory budget refused a charge: {e}"),
    }
}

/// The unlabeled pool a run curates.
enum Pool<'a> {
    /// A generated task's resident pool: one borrowed segment at offset 0.
    Resident(&'a TaskData),
    /// The pool [`World::generate`] would produce, regenerated in segments
    /// of `segment_rows`.
    Streamed { spec: StreamSpec<'a>, segment_rows: usize },
}

/// The one curation driver: takes or mines the LF suite, builds the
/// optional propagation LF, sweeps the pool's segments into one
/// vote-pattern table, and fits the label model. Every allocation it
/// holds is charged to `tracker` while held. Returns the output and the
/// segments swept.
fn curate_pool(
    text: &ModalityDataset,
    pool: &Pool<'_>,
    lfs: LfSource,
    config: &CurationConfig,
    tracker: &mut MemTracker,
    par: &ParConfig,
) -> CmResult<(CurationOutput, usize)> {
    let n_rows = match pool {
        Pool::Resident(data) => data.pool.len(),
        Pool::Streamed { spec, .. } => spec.rows,
    };
    // The labeled text corpus stays resident; charge it for the duration.
    tracker.charge(dataset_bytes(text), "labeled text corpus")?;

    let (lfs, mining_time) = match lfs {
        LfSource::Provided(lfs, authoring_time) => (lfs, authoring_time),
        LfSource::Mined => {
            let mined = mine_lfs_tracked(
                &text.table,
                &text.labels,
                &lf_columns(text.table.schema(), config),
                &config.mining,
                config.max_positive_lfs,
                config.max_negative_lfs,
                tracker,
                par,
            )?;
            (mined.lfs, mined.report.mining_time)
        }
    };
    // Dev evidence for the base LFs: the whole labeled text corpus.
    let dev_matrix = LabelMatrix::apply_with(&text.table, &lfs, par);
    let prior = text.positive_rate().clamp(1e-4, 0.5);

    let mut propagation_time = None;
    let mut prop = None;
    if config.use_label_propagation {
        let start = Stopwatch::start();
        prop = propagation_lf(text, pool, config, tracker, par)?;
        propagation_time = Some(start.elapsed());
    }

    // LF application over the pool's segments, through the suite compiled
    // once. Votes are pure per-row and each segment's rows are interned in
    // offset order, so the pattern table equals the one of the whole
    // pool's vote matrix, which is never built. The propagation LF joins
    // the suite as its last (opaque) column, rebased to each segment's
    // first row, so every append votes whole rows. The row-id column is
    // reserved and charged up front, the evaluation block for the whole
    // sweep, and the distinct patterns as they grow.
    let n_base = lfs.len();
    let mut suite = lfs;
    if let Some(p) = &prop {
        suite.push(Box::new(p.pool_lf.clone()));
    }
    let compiled = CompiledSuite::compile(&suite);
    let lf_names: Vec<String> = suite.iter().map(|l| l.name().to_owned()).collect();
    let mut patterns = VotePatterns::new(lf_names.clone());
    patterns.reserve_rows(n_rows);
    let mut patterns_bytes = patterns.heap_bytes();
    tracker.charge(patterns_bytes, "pool vote patterns")?;
    let block_bytes = n_rows.min(APPEND_BLOCK_ROWS) * suite.len();
    tracker.charge(block_bytes, "LF evaluation block")?;
    tracker.charge(n_rows * size_of::<Label>(), "pool ground truth")?;
    let mut pool_truth: Vec<Label> = Vec::with_capacity(n_rows);
    let mut sweep = |offset: usize, seg: &ModalityDataset, tracker: &mut MemTracker| {
        if let Some(p) = &prop {
            suite[n_base] = Box::new(p.pool_lf.rebased(offset));
        }
        patterns.extend_compiled(&seg.table, &compiled, &suite, par);
        pool_truth.extend_from_slice(&seg.labels);
        let held = patterns.heap_bytes();
        tracker.charge(held - patterns_bytes, "pool vote patterns")?;
        patterns_bytes = held;
        Ok(())
    };
    let mut segments = 0usize;
    match pool {
        Pool::Resident(data) => {
            sweep(0, &data.pool, tracker)?;
            segments = 1;
        }
        // Each streamed segment is charged while it is swept.
        Pool::Streamed { spec, segment_rows } => for_each_pool_segment(
            spec.world,
            spec.modality,
            spec.rows,
            spec.seed,
            *segment_rows,
            tracker,
            &mut |offset, seg, tracker| {
                segments += 1;
                sweep(offset, seg, tracker)
            },
        )?,
    }
    tracker.release(block_bytes);
    // Past the sweep only the propagation LF's dev evidence is needed.
    drop(suite);
    let prop = prop.map(|p| {
        tracker.release(p.pool_lf.scores().len() * size_of::<f64>());
        (p.dev_votes, p.rates)
    });

    // From here on the pool is read through its vote-pattern table: the
    // telemetry scans and the label model run once per distinct pattern
    // and scatter back to rows.

    // Abstain-rate telemetry: dev rates over the evidence the LF weights
    // are estimated on (whole corpus for base LFs, the propagation dev
    // slice for the propagation LF), pool rates over the pool votes.
    let n_lfs = lf_names.len();
    let mut dev_abstain = VotePatterns::from_matrix(&dev_matrix).abstain_rates();
    if let Some((votes, _)) = &prop {
        dev_abstain
            .push(votes.iter().filter(|&&v| v == 0).count() as f64 / votes.len().max(1) as f64);
    }
    let pool_abstain = patterns.abstain_rates();

    // Graceful degradation: a column that abstains on every dev row has no
    // rate evidence and is dropped in any run. A column that abstains on
    // every *pool* row casts no vote yet still shifts anchored posteriors
    // through its abstain likelihood; on clean runs that likelihood is
    // dev-calibrated and legitimately models modality shift, but on
    // fault-injected runs the abstention is caused by service loss the dev
    // calibration never saw — so those columns are dropped only when the
    // datasets came through a fault-injecting access layer.
    let fault_summary = match pool {
        Pool::Resident(data) => data.fault_summary.as_ref(),
        Pool::Streamed { .. } => None,
    };
    let fault_aware = fault_summary.is_some();
    let dropped_idx: Vec<usize> = (0..n_lfs)
        .filter(|&c| dev_abstain[c] >= 1.0 || (fault_aware && pool_abstain[c] >= 1.0))
        .collect();
    let dropped_lfs: Vec<String> = dropped_idx.iter().map(|&c| lf_names[c].clone()).collect();
    if !dropped_idx.is_empty() {
        // The full table stays held (and charged) until its copy exists.
        let reduced = patterns.without_columns(&dropped_idx);
        tracker.charge(reduced.heap_bytes(), "column-dropped pool vote patterns")?;
        tracker.release(patterns.heap_bytes());
        patterns = reduced;
    }

    // Coverage is invariant to dropping all-abstain columns, so clean runs
    // see exactly the pre-degradation semantics.
    let covered = patterns.covered();
    tracker.charge(n_rows * size_of::<bool>(), "coverage flags")?;

    let probabilistic_labels = if patterns.n_lfs() == 0 {
        vec![prior; n_rows]
    } else {
        let per_pattern = match config.label_model {
            LabelModelKind::Anchored => {
                let mut rates =
                    AnchoredModel::fit(&dev_matrix, &text.labels, Some(prior)).rates().to_vec();
                rates.extend(prop.as_ref().map(|&(_, r)| r));
                // Fitting is per-column independent, so dropping rate
                // entries by index equals fitting on the reduced matrix.
                let rates: Vec<LfRates> = rates
                    .into_iter()
                    .enumerate()
                    .filter(|&(c, _)| !dropped_idx.contains(&c))
                    .map(|(_, r)| r)
                    .collect();
                AnchoredModel::from_rates(rates, prior).predict_patterns(&patterns)
            }
            LabelModelKind::Em => {
                let gen_cfg =
                    GenerativeConfig { class_prior: Some(prior), ..config.generative.clone() };
                GenerativeModel::fit_patterns(&patterns, &gen_cfg, None, par)
                    .predict_patterns(&patterns, par)
            }
            LabelModelKind::MajorityVote => majority_vote(patterns.distinct()),
        };
        patterns.scatter(&per_pattern)
    };
    tracker.charge(n_rows * size_of::<f64>(), "posteriors")?;

    let pool_coverage = covered.iter().filter(|&&c| c).count() as f64 / covered.len().max(1) as f64;
    let lf_abstain: Vec<LfAbstainRates> = lf_names
        .iter()
        .enumerate()
        .map(|(c, name)| LfAbstainRates {
            name: name.clone(),
            dev_abstain_rate: dev_abstain[c],
            pool_abstain_rate: pool_abstain[c],
            dropped: dropped_idx.contains(&c),
        })
        .collect();
    let degradation = DegradationReport {
        fault_seed: fault_summary.map_or(0, |s| s.seed),
        tripped_services: fault_summary.map_or_else(Vec::new, FaultSummary::tripped_services),
        dropped_lfs,
        pool_coverage,
        lf_abstain,
        faults: fault_summary.cloned(),
        serving: None,
    };

    let ws_quality = ws_quality(&probabilistic_labels, &covered, &pool_truth);
    let output = CurationOutput {
        probabilistic_labels,
        covered,
        lf_names,
        ws_quality,
        mining_time,
        propagation_time,
        conflict: VoteStats::from_counts(patterns.vote_counts()).conflict,
        degradation,
    };
    Ok((output, segments))
}

/// The label-propagation LF and its dev evidence.
struct PropagationLf {
    /// Propagated scores, bound to the pool rows.
    pool_lf: BoundScoreLf,
    /// The LF's votes on the dev slice.
    dev_votes: Vec<i8>,
    /// Class-conditional rates estimated from those votes.
    rates: LfRates,
}

/// Builds the label-propagation LF (§4.4): seeds from the old modality, a
/// k-NN graph over `[seeds | dev | pool]`, propagated scores, thresholds
/// tuned on the dev slice. The pool-score copy the LF holds stays charged
/// to `tracker`; the caller releases it when it drops the LF.
///
/// The graph source follows the pool kind. A resident pool is appended to
/// the seed/dev table and goes through [`GraphBuilder::build_with`], the
/// parallel builder on the fused pair kernel. A streamed pool goes through
/// [`build_graph_sharded`], which replays the same plan over segment
/// sweeps and matches it bit for bit, but single-threaded and on the
/// reference similarity: on a resident pool it would about halve the
/// throughput of a propagation-heavy curation.
fn propagation_lf(
    text: &ModalityDataset,
    pool: &Pool<'_>,
    config: &CurationConfig,
    tracker: &mut MemTracker,
    par: &ParConfig,
) -> CmResult<Option<PropagationLf>> {
    let Some(mut setup) = PropSetup::new(text, config) else {
        return Ok(None);
    };
    let sim_columns = sim_columns(text.table.schema(), config);
    let graph_seed = config.seed ^ 0x6EA9;
    if let Pool::Resident(data) = pool {
        setup.corpus.extend_from(&data.pool.table);
    }
    let corpus_bytes = setup.corpus.approx_bytes();
    tracker.charge(corpus_bytes, "propagation corpus")?;
    let graph = match pool {
        Pool::Resident(_) => {
            let sim = SimilarityConfig::uniform(sim_columns).fit_scales(&setup.corpus);
            GraphBuilder::approximate(config.prop_k, setup.corpus.len()).build_with(
                &setup.corpus,
                &sim,
                graph_seed,
                par,
            )
        }
        Pool::Streamed { spec, segment_rows } => {
            let mut corpus = SegmentedCorpus::new(*segment_rows);
            corpus.push_head(&setup.corpus);
            corpus.set_stream(*spec);
            let sim = fit_scales_sharded(&corpus, &sim_columns, tracker)?;
            let builder = GraphBuilder::approximate(config.prop_k, corpus.total_rows());
            build_graph_sharded(&corpus, &builder, &sim, graph_seed, tracker)?
        }
    };
    let graph_bytes = graph.approx_bytes();
    tracker.charge(graph_bytes, "propagation graph")?;
    let scores = propagate(&graph, &setup.seeds, &setup.cfg);
    let score_bytes = scores.len() * size_of::<f64>();
    tracker.charge(score_bytes, "propagation scores")?;
    drop(graph);
    tracker.release(graph_bytes);

    let prop = setup.lf_from_scores(&scores, config).map(|(pool_lf, dev_votes)| PropagationLf {
        rates: LfRates::estimate(&dev_votes, &setup.dev_labels),
        pool_lf,
        dev_votes,
    });
    if let Some(p) = &prop {
        tracker.charge(p.pool_lf.scores().len() * size_of::<f64>(), "propagation pool scores")?;
    }
    tracker.release(score_bytes + corpus_bytes);
    Ok(prop)
}
