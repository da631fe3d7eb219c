//! Every call the benchmark makes into the program.
//!
//! Each call into a layer runs inside a [`Tracer`] span named
//! `<layer>.<call>`. The curation entry points (`curate`,
//! `curate_streamed`, the incremental curator) are single calls, so the
//! traced run also replays their layer calls on the same inputs: the
//! replayed labels must equal `curate`'s bit for bit, which shows the
//! replay timed the same work.

use std::hint::black_box;
use std::path::Path;

use cm_faults::{AccessLayer, AccessPolicy, FaultPlan};
use cm_featurespace::{
    FeatureKind, FeatureSchema, FeatureSet, FeatureTable, Label, ModalityKind, ServingMode,
    SimilarityConfig,
};
use cm_labelmodel::{AnchoredModel, BoundScoreLf, LabelMatrix, LabelingFunction, LfRates};
use cm_linalg::rng::{SliceRandom, StdRng};
use cm_mining::mine_lfs;
use cm_orgsim::{ModalityDataset, TaskConfig, TaskId, World, WorldConfig};
use cm_par::ParConfig;
use cm_pipeline::{
    curate, curate_streamed, CurationConfig, IncrementalConfig, IncrementalCurator, TaskData,
};
use cm_propagation::{propagate, tune_score_thresholds, GraphBuilder, PropagationConfig};
use cm_serve::snapshot::{self, load_any};
use cm_serve::{
    CheckpointFormat, CheckpointStore, CompactionPolicy, PendingWork, QualityGuards, ServeTelemetry,
};
use cm_shard::{for_each_pool_segment, MemTracker, ShardConfig};

use crate::trace::Tracer;

/// Labeled text rows of the pool workloads' CT1 task.
const POOL_TEXT_ROWS: usize = 2_000;
/// Seed of the pool workloads' world and datasets. The mined LF suite
/// differs between worlds (71 to 94 LFs over seeds 0 to 15), and LF
/// evaluation and the anchored model cost grow with it, so one world keeps
/// the work of a run independent of the benchmark seed.
const POOL_WORLD_SEED: u64 = 3;
/// Scale of the CT2 task the serving workload draws from.
const SERVE_SCALE: f64 = 0.02;
/// Seed of the serving world, its labeled text corpus and its arrivals.
const SERVE_WORLD_SEED: u64 = 11;

/// Work counters of one curation, taken at the layer boundaries of its
/// replay. Each is a pure function of the inputs and the code.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CurationCounts {
    pub lfs: u64,
    pub votes: u64,
    pub vote_slots: u64,
    pub distinct_patterns: u64,
    pub rows: u64,
    pub graph_edges: u64,
    pub segments: u64,
}

/// The columns `curate` mines LFs over: shared features of the configured
/// sets, servable ones only unless nonservable features are allowed.
fn lf_columns(schema: &FeatureSchema, config: &CurationConfig) -> Vec<usize> {
    schema
        .columns_in_sets(&config.lf_sets, false)
        .into_iter()
        .filter(|&c| {
            config.include_nonservable
                || schema.def(c).map(|d| d.serving) == Some(ServingMode::Servable)
        })
        .collect()
}

/// Distinct rows of a label matrix.
fn distinct_patterns(m: &LabelMatrix) -> u64 {
    let mut rows: Vec<&[i8]> = (0..m.n_rows()).map(|r| m.row(r)).collect();
    rows.sort_unstable();
    rows.dedup();
    rows.len() as u64
}

fn nonzero_votes(m: &LabelMatrix) -> u64 {
    (0..m.n_rows()).map(|r| m.row(r).iter().filter(|&&v| v != 0).count() as u64).sum()
}

// --- batch curation --------------------------------------------------------

/// A batch curation workload: the CT1 world of [`POOL_WORLD_SEED`], its
/// labeled text corpus and a pool of `pool_rows` images, curated resident
/// and streamed.
pub struct PoolWorkload {
    task: TaskConfig,
    config: CurationConfig,
    data: TaskData,
}

/// The result of one streamed curation.
pub struct Streamed {
    pub labels: Vec<f64>,
    pub peak_bytes: usize,
    pub segments: usize,
}

/// The result of replaying one resident curation layer by layer.
pub struct Replay {
    pub labels: Vec<f64>,
    pub counts: CurationCounts,
}

impl PoolWorkload {
    /// Generates the task's datasets (the set-up; orgsim only).
    /// `curation_seed` seeds the propagation split and graph.
    pub fn generate(
        pool_rows: usize,
        propagation: bool,
        curation_seed: u64,
        tr: &mut Tracer,
    ) -> Self {
        let task = TaskConfig {
            n_text_labeled: POOL_TEXT_ROWS,
            n_image_unlabeled: pool_rows,
            n_image_test: 0,
            ..TaskConfig::paper(TaskId::Ct1)
        };
        let config = CurationConfig {
            use_label_propagation: propagation,
            seed: curation_seed,
            ..CurationConfig::default()
        };
        let data = tr
            .span("orgsim.generate", || TaskData::generate(task.clone(), POOL_WORLD_SEED, Some(0)));
        PoolWorkload { task, config, data }
    }

    pub fn pool_rows(&self) -> usize {
        self.data.pool.len()
    }

    pub fn curate(&self, tr: &mut Tracer) -> Vec<f64> {
        tr.span("pipeline.curate", || curate(&self.data, &self.config).probabilistic_labels)
    }

    /// Streams the same task from its seed under the default shard config.
    pub fn curate_streamed(&self, tr: &mut Tracer) -> Result<Streamed, String> {
        let out = tr.span("pipeline.curate_streamed", || {
            curate_streamed(
                self.task.clone(),
                POOL_WORLD_SEED,
                &self.config,
                &ShardConfig::default(),
            )
        });
        let out = out.map_err(|e| format!("curate_streamed: {e}"))?;
        Ok(Streamed {
            labels: out.output.probabilistic_labels,
            peak_bytes: out.stats.peak_bytes,
            segments: out.stats.segments,
        })
    }

    /// Replays `curate`'s layer calls on the same inputs. With a tracer
    /// enabled it also replays the orgsim pool stream `curate_streamed`
    /// regenerates, to time the source's share of the streamed run.
    pub fn replay(&self, tr: &mut Tracer) -> Result<Replay, String> {
        let data = &self.data;
        let config = &self.config;
        let columns = lf_columns(data.world.schema(), config);
        let mined = tr.span("mining.mine_lfs", || {
            mine_lfs(
                &data.text.table,
                &data.text.labels,
                &columns,
                &config.mining,
                config.max_positive_lfs,
                config.max_negative_lfs,
            )
        });
        let lfs = mined.lfs;
        let (dev, mut pool) = tr.span("labelmodel.apply", || {
            (LabelMatrix::apply(&data.text.table, &lfs), LabelMatrix::apply(&data.pool.table, &lfs))
        });
        let prior = data.text.positive_rate().clamp(1e-4, 0.5);
        let mut counts = CurationCounts {
            lfs: lfs.len() as u64,
            votes: nonzero_votes(&pool),
            vote_slots: (pool.n_rows() * pool.n_lfs()) as u64,
            rows: pool.n_rows() as u64,
            ..CurationCounts::default()
        };

        let mut prop_rates = None;
        let mut dev_all_abstain = dev.all_abstain_columns();
        if config.use_label_propagation {
            if let Some(p) = self.replay_propagation(&columns, prior, tr, &mut counts) {
                if p.dev_votes.iter().all(|&v| v == 0) {
                    dev_all_abstain.push(lfs.len());
                }
                prop_rates = Some(LfRates::estimate(&p.dev_votes, &p.dev_labels));
                let n = pool.n_rows();
                let mut names = pool.names().to_vec();
                names.push(p.pool_lf.name().to_owned());
                let mut votes = Vec::with_capacity(n * names.len());
                for r in 0..n {
                    votes.extend_from_slice(pool.row(r));
                    votes.push(p.pool_lf.vote_row(r).as_i8());
                }
                pool = LabelMatrix::from_votes(n, names.len(), votes, names);
            }
        }
        let active =
            if dev_all_abstain.is_empty() { pool } else { pool.without_columns(&dev_all_abstain) };
        counts.distinct_patterns = distinct_patterns(&active);

        let labels = if active.n_lfs() == 0 {
            vec![prior; active.n_rows()]
        } else {
            let fitted = tr.span("labelmodel.anchored_fit", || {
                AnchoredModel::fit(&dev, &data.text.labels, Some(prior))
            });
            let mut rates = fitted.rates().to_vec();
            rates.extend(prop_rates);
            let rates: Vec<LfRates> = rates
                .into_iter()
                .enumerate()
                .filter(|(c, _)| !dev_all_abstain.contains(c))
                .map(|(_, r)| r)
                .collect();
            tr.span("labelmodel.anchored_predict", || {
                AnchoredModel::from_rates(rates, prior).predict(&active)
            })
        };

        if tr.enabled() {
            let shard = ShardConfig::default();
            let mut tracker = MemTracker::new(shard.budget);
            let res = tr.span("orgsim.stream", || {
                for_each_pool_segment(
                    &data.world,
                    ModalityKind::Image,
                    self.task.n_image_unlabeled,
                    (POOL_WORLD_SEED ^ 0xD1CE) ^ 0x2,
                    shard.segment_rows,
                    &mut tracker,
                    &mut |_, seg, _| {
                        black_box(seg.len());
                        counts.segments += 1;
                        Ok(())
                    },
                )
            });
            res.map_err(|e| format!("pool stream: {e}"))?;
        }
        Ok(Replay { labels, counts })
    }

    /// The label-propagation LF (§4.4) built from its layer calls: seed
    /// and dev split of the text corpus, similarity scales, k-NN graph,
    /// propagation, dev-tuned thresholds.
    fn replay_propagation(
        &self,
        lf_columns: &[usize],
        prior: f64,
        tr: &mut Tracer,
        counts: &mut CurationCounts,
    ) -> Option<PropagationLf> {
        let data = &self.data;
        let config = &self.config;
        let labels = &data.text.labels;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
        let mut idx: Vec<usize> = (0..labels.len()).collect();
        idx.shuffle(&mut rng);
        let dev_len = (labels.len() / 5).max(1).min(idx.len());
        let (dev_idx, rest) = idx.split_at(dev_len);
        let mut seed_idx: Vec<usize> =
            rest.iter().copied().filter(|&r| labels[r].is_positive()).collect();
        let neg_budget = config.prop_max_seeds.saturating_sub(seed_idx.len());
        seed_idx
            .extend(rest.iter().copied().filter(|&r| !labels[r].is_positive()).take(neg_budget));
        if seed_idx.is_empty() {
            return None;
        }

        let schema = data.world.schema();
        let mut sim_columns = lf_columns.to_vec();
        sim_columns.extend(schema.defs().iter().enumerate().filter_map(|(i, d)| {
            (d.set == FeatureSet::ModalitySpecific
                && matches!(d.kind, FeatureKind::Embedding { .. }))
            .then_some(i)
        }));
        let mut combined: FeatureTable = data.text.table.gather(&seed_idx);
        combined.extend_from(&data.text.table.gather(dev_idx));
        combined.extend_from(&data.pool.table);

        let sim = tr.span("propagation.fit_scales", || {
            SimilarityConfig::uniform(sim_columns).fit_scales(&combined)
        });
        let graph = tr.span("propagation.graph_build", || {
            GraphBuilder::approximate(config.prop_k, combined.len()).build(
                &combined,
                &sim,
                config.seed ^ 0x6EA9,
            )
        });
        counts.graph_edges = graph.n_edges() as u64;
        let seeds: Vec<(usize, f64)> =
            seed_idx.iter().enumerate().map(|(v, &r)| (v, labels[r].as_f64())).collect();
        let prop_cfg = PropagationConfig { max_iters: 50, tol: 1e-4, prior };
        let scores = tr.span("propagation.propagate", || propagate(&graph, &seeds, &prop_cfg));

        let dev_labels: Vec<Label> = dev_idx.iter().map(|&r| labels[r]).collect();
        let dev_scores = &scores[seed_idx.len()..seed_idx.len() + dev_labels.len()];
        let tuned = tune_score_thresholds(
            dev_scores,
            &dev_labels,
            config.prop_min_precision,
            config.prop_max_leakage,
        )?;
        let dev_votes: Vec<i8> = dev_scores
            .iter()
            .map(|&s| {
                if s >= tuned.positive {
                    1
                } else if s <= tuned.negative {
                    -1
                } else {
                    0
                }
            })
            .collect();
        let pool_scores = scores[seed_idx.len() + dev_labels.len()..].to_vec();
        Some(PropagationLf {
            pool_lf: BoundScoreLf::new(
                "label_propagation",
                pool_scores,
                tuned.positive,
                tuned.negative,
            ),
            dev_votes,
            dev_labels,
        })
    }
}

struct PropagationLf {
    pool_lf: BoundScoreLf,
    dev_votes: Vec<i8>,
    dev_labels: Vec<Label>,
}

// --- serving ---------------------------------------------------------------

/// The serving workload: CT2 arrivals pre-generated into fixed batches and
/// fed to the incremental curator one tick at a time, with a wire
/// checkpoint committed after every tick.
pub struct ServeWorkload {
    world: World,
    text: ModalityDataset,
    batches: Vec<ModalityDataset>,
    config: IncrementalConfig,
    guards: QualityGuards,
    par: ParConfig,
}

/// A live serving run: the curator, its checkpoint store, and the
/// telemetry the checkpoints carry.
pub struct ServeRun {
    curator: IncrementalCurator,
    access: AccessLayer,
    store: CheckpointStore,
    telemetry: ServeTelemetry,
    stats_durable: usize,
    ticks: usize,
    rows: usize,
}

/// What one tick did.
pub struct Tick {
    pub accepted: bool,
    pub bytes: usize,
    pub wrote_base: bool,
    pub em_iterations: usize,
}

impl ServeWorkload {
    /// Builds the world, its labeled text corpus and its first
    /// `n_batches` arrival batches of `batch_rows` rows (the set-up;
    /// orgsim only).
    pub fn generate(n_batches: usize, batch_rows: usize, tr: &mut Tracer) -> Self {
        let task = TaskConfig::paper(TaskId::Ct2).scaled(SERVE_SCALE);
        let ds = SERVE_WORLD_SEED ^ 0xD1CE;
        let (world, text) = tr.span("orgsim.generate", || {
            let world = World::build(WorldConfig::new(task.clone(), SERVE_WORLD_SEED));
            let text = world.generate(ModalityKind::Text, task.n_text_labeled, ds ^ 0x1);
            (world, text)
        });
        let batches = tr.span("orgsim.stream", || {
            let mut stream = world.stream(ModalityKind::Image, n_batches * batch_rows, ds ^ 0x2);
            std::iter::from_fn(|| stream.next_segment(batch_rows)).collect()
        });
        ServeWorkload {
            world,
            text,
            batches,
            config: IncrementalConfig::default(),
            guards: QualityGuards::default(),
            par: ParConfig::from_env(),
        }
    }

    pub fn batches(&self) -> &[ModalityDataset] {
        &self.batches
    }

    /// A fresh curator (mines its LFs and seeds the propagation graph)
    /// over an empty checkpoint file at `path`.
    pub fn start(&self, path: &Path, tr: &mut Tracer) -> Result<ServeRun, String> {
        let _ = std::fs::remove_file(path);
        let curator = tr.span("pipeline.curator_new", || {
            IncrementalCurator::new(&self.world, &self.text, self.config.clone())
        });
        let access = AccessLayer::new(
            &FaultPlan::disabled(),
            AccessPolicy::default(),
            &self.world.service_descriptors(),
            SERVE_WORLD_SEED,
        )
        .map_err(|e| format!("access layer: {e}"))?;
        let (store, existing) = CheckpointStore::open(
            path,
            CheckpointFormat::Wire,
            CompactionPolicy::default(),
            self.world.schema(),
        )
        .map_err(|e| format!("checkpoint open: {e}"))?;
        if existing.is_some() {
            return Err(format!("{} is not empty", path.display()));
        }
        Ok(ServeRun {
            curator,
            access,
            store,
            telemetry: ServeTelemetry::default(),
            stats_durable: 0,
            ticks: 0,
            rows: 0,
        })
    }

    /// One clean-path tick on batch `b`: preview, guards, ingest, then a
    /// delta (or, when compaction asks, base) checkpoint commit.
    pub fn tick(&self, run: &mut ServeRun, b: usize, tr: &mut Tracer) -> Result<Tick, String> {
        let batch = &self.batches[b];
        run.ticks += 1;
        run.rows += batch.len();
        let preview =
            tr.span("pipeline.preview_batch", || run.curator.preview_batch(batch, &self.par));
        let verdict =
            tr.span("serve.guards", || self.guards.evaluate(&preview, run.telemetry.last_entropy));
        let mut em_iterations = 0;
        if verdict.pass {
            let stats =
                tr.span("pipeline.ingest_batch", || run.curator.ingest_batch(batch, &self.par));
            em_iterations = stats.em_iterations;
            run.telemetry.last_entropy = Some(stats.mean_entropy);
            run.telemetry.batch_stats.push(stats);
        }
        let wrote_base = run.store.needs_base();
        let access = run.access.export_state();
        let committed = if wrote_base {
            let state = tr.span("pipeline.export", || run.curator.export_state());
            tr.span("snapshot.commit", || {
                let cp = snapshot::capture(
                    run.ticks,
                    run.rows,
                    access,
                    state,
                    PendingWork::default(),
                    run.telemetry.clone(),
                );
                run.store.commit_base(&cp)
            })
        } else {
            let delta = tr.span("pipeline.export", || run.curator.export_delta());
            tr.span("snapshot.commit", || {
                let d = snapshot::capture_delta(
                    run.ticks,
                    run.rows,
                    access,
                    delta,
                    PendingWork::default(),
                    &run.telemetry,
                    run.stats_durable,
                    0,
                );
                run.store.commit_delta(&d)
            })
        };
        let bytes = committed.map_err(|e| format!("checkpoint commit: {e}"))?;
        run.stats_durable = run.telemetry.batch_stats.len();
        Ok(Tick { accepted: verdict.pass, bytes, wrote_base, em_iterations })
    }

    pub fn posteriors<'r>(&self, run: &'r ServeRun) -> &'r [f64] {
        run.curator.posteriors()
    }

    /// Resumes from the checkpoint file: open the store, restore the
    /// curator.
    pub fn resume(&self, path: &Path, tr: &mut Tracer) -> Result<Vec<f64>, String> {
        let opened = tr.span("snapshot.open", || {
            CheckpointStore::open(
                path,
                CheckpointFormat::Wire,
                CompactionPolicy::default(),
                self.world.schema(),
            )
        });
        let (_store, cp) = opened.map_err(|e| format!("checkpoint open: {e}"))?;
        let cp = cp.ok_or_else(|| format!("{} holds no checkpoint", path.display()))?;
        let curator = tr.span("pipeline.restore", || {
            IncrementalCurator::restore(
                &self.world,
                &self.text,
                self.config.clone(),
                cp.curator,
                &self.par,
            )
        });
        Ok(curator.posteriors().to_vec())
    }

    /// Delta records a reader replays on top of the base in `path`.
    pub fn deltas_in(&self, path: &Path) -> Result<usize, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let log =
            load_any(&bytes, self.world.schema()).map_err(|e| format!("checkpoint log: {e}"))?;
        Ok(log.deltas)
    }

    /// Replays the curator's base layer calls on the same inputs: LF
    /// mining on the text corpus, LF evaluation on every batch.
    pub fn replay(&self, tr: &mut Tracer) -> CurationCounts {
        let config = &self.config.curation;
        let columns = lf_columns(self.world.schema(), config);
        let mined = tr.span("mining.mine_lfs", || {
            mine_lfs(
                &self.text.table,
                &self.text.labels,
                &columns,
                &config.mining,
                config.max_positive_lfs,
                config.max_negative_lfs,
            )
        });
        let lfs: Vec<Box<dyn LabelingFunction>> = mined.lfs;
        let matrices: Vec<LabelMatrix> = tr.span("labelmodel.apply", || {
            self.batches.iter().map(|b| LabelMatrix::apply(&b.table, &lfs)).collect()
        });
        let mut rows: Vec<&[i8]> =
            matrices.iter().flat_map(|m| (0..m.n_rows()).map(move |r| m.row(r))).collect();
        let n_rows = rows.len();
        rows.sort_unstable();
        rows.dedup();
        CurationCounts {
            lfs: lfs.len() as u64,
            votes: matrices.iter().map(nonzero_votes).sum(),
            vote_slots: (n_rows * lfs.len()) as u64,
            distinct_patterns: rows.len() as u64,
            rows: n_rows as u64,
            ..CurationCounts::default()
        }
    }
}
