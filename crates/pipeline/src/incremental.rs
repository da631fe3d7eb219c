//! Incremental curation: the batch pipeline of [`crate::curation`]
//! reorganized around *arrival batches* for the long-running serving loop
//! (ROADMAP item 2; the paper's deployment keeps curating as
//! organizational data arrives).
//!
//! The division of labor with `cm-serve`:
//!
//! - This module owns the *curation state machine*: LFs are mined once on
//!   the labeled text corpus, each arrival batch's votes append to the
//!   accumulated label matrix, the EM label model refits warm-started
//!   from the previous fit ([`cm_labelmodel::WarmStart`]), and the
//!   propagation graph grows by online anchor insertion
//!   ([`cm_propagation::OnlineGraph`]) instead of full rebuilds.
//! - `cm-serve` owns the *robustness envelope*: admission control,
//!   quality guards, quarantine, and checkpointing. The curator supports
//!   it with [`IncrementalCurator::preview_batch`] (guard inputs without
//!   state mutation) and [`IncrementalCurator::export_state`] /
//!   [`IncrementalCurator::restore`] (crash recovery).
//!
//! **Resume contract**: `restore(world, text, config, state)` rebuilds a
//! curator whose observable behavior — posteriors, coverage, and every
//! subsequent ingest — is bit-identical to the curator that exported the
//! state and never stopped. Everything derivable from the clean-path
//! inputs (mined LFs, dev split, similarity scales, seed vertices) is
//! recomputed deterministically; only the state that depends on the
//! faulty arrival history (pool rows, EM parameters, graph routing) rides
//! in [`IncrementalState`].
//!
//! Two deliberate divergences from the one-shot batch pipeline, both
//! inherent to serving: similarity scales are fitted on the labeled
//! corpus only (the pool isn't known upfront), and the label model is
//! always the warm-startable EM model rather than the dev-anchored one.

use cm_featurespace::{FeatureTable, FrozenTable, Label, SimilarityConfig};
use cm_labelmodel::{GenerativeConfig, GenerativeModel, LabelMatrix, LabelingFunction, WarmStart};
use cm_mining::mine_lfs;
use cm_orgsim::{ModalityDataset, World};
use cm_par::ParConfig;
use cm_propagation::{
    propagate, OnlineGraph, OnlineGraphDelta, OnlineGraphState, PropagationConfig,
};

use crate::curation::{
    lf_columns, prop_artifacts_from_scores, prop_split, sim_columns, CurationConfig,
};

/// Configuration of the incremental curator.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// The underlying curation settings (mining thresholds, propagation
    /// knobs, seeds). `label_model` is ignored: serving always uses the
    /// warm-startable EM model.
    pub curation: CurationConfig,
    /// EM iteration cap for warm-started refits (the first fit runs the
    /// full `curation.generative.max_iters`). Twenty keeps the warm chain
    /// within a few percent of the from-scratch posterior (see the
    /// `batch_cuts_only_perturb_em_within_tolerance` test).
    pub refit_max_iters: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self { curation: CurationConfig::default(), refit_max_iters: 20 }
    }
}

/// Per-batch telemetry, computed over the batch's own rows. The serving
/// layer's quality guards consume these.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Zero-based index of the ingested batch.
    pub batch_index: usize,
    /// Rows in this batch.
    pub rows: usize,
    /// Pool rows accumulated after the batch.
    pub total_rows: usize,
    /// Fraction of batch rows covered by at least one LF.
    pub coverage: f64,
    /// Fraction of abstain votes over the batch's label-matrix cells.
    pub abstain_rate: f64,
    /// Mean binary entropy of the batch rows' posteriors.
    pub mean_entropy: f64,
    /// EM iterations the refit ran.
    pub em_iterations: usize,
}

/// Guard inputs computed for a *candidate* batch without mutating any
/// state: votes from the mined LFs only (the propagation column is
/// unknown until ingest) and posterior entropy under the current model.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPreview {
    /// Fraction of batch rows covered by at least one mined LF.
    pub coverage: f64,
    /// Fraction of abstain votes over the batch's base-LF cells.
    pub abstain_rate: f64,
    /// Mean posterior entropy under the current model; `None` before the
    /// first fit.
    pub mean_entropy: Option<f64>,
}

/// The arrival-dependent state of an [`IncrementalCurator`] — everything
/// a checkpoint must persist to resume bit-identically. Serialized by
/// `cm-serve`'s snapshot module (the `checkpoint-drift` lint confines
/// field access to that module and to this crate).
#[derive(Debug, Clone)]
pub struct IncrementalState {
    /// Batches ingested so far.
    pub n_batches: usize,
    /// The accumulated pool: featurized arrival rows in ingest order.
    pub pool: ModalityDataset,
    /// Accumulated base-LF votes, row-major `pool.len() x n_base_lfs`.
    /// Required: [`IncrementalCurator::restore`] uses them verbatim and
    /// panics when the length disagrees with the pool.
    pub votes: Vec<i8>,
    /// EM parameters of the current model, if any batch has been fitted.
    pub em_warm: Option<WarmStart>,
    /// Iterations the last refit ran (restored for reporting parity).
    pub em_iterations: usize,
    /// Online propagation-graph routing state, when propagation is on.
    pub graph: Option<OnlineGraphState>,
}

/// Everything an [`IncrementalCurator`] accreted since its last durable
/// point: the payload of one checkpoint delta record, O(batch) where the
/// full [`IncrementalState`] is O(pool). The EM parameters ride whole in
/// every delta — they are a handful of floats and change entirely on each
/// refit, so there is nothing incremental about them.
#[derive(Debug, Clone)]
pub struct IncrementalDelta {
    /// Batches ingested after this delta (absolute, for replay checks).
    pub n_batches: usize,
    /// Pool rows appended since the last durable point.
    pub new_rows: ModalityDataset,
    /// Base-LF votes for the appended rows, row-major.
    pub new_votes: Vec<i8>,
    /// Full EM parameters after the latest refit.
    pub em_warm: Option<WarmStart>,
    /// Iterations the latest refit ran.
    pub em_iterations: usize,
    /// Growth of the online propagation graph, when propagation is on.
    pub graph: Option<OnlineGraphDelta>,
}

impl IncrementalState {
    /// Applies one exported delta in place: pure appends plus the EM
    /// parameter swap. Replaying a base state through every delta in
    /// export order reproduces [`IncrementalCurator::export_state`]'s
    /// output at the same point, bit-identically.
    ///
    /// # Panics
    /// Panics if the delta's propagation-graph presence disagrees with
    /// this state's, or the graph delta misaligns (see
    /// [`OnlineGraphState::apply_delta`]).
    pub fn apply_delta(&mut self, delta: &IncrementalDelta) {
        self.n_batches = delta.n_batches;
        self.pool.table.extend_from(&delta.new_rows.table);
        self.pool.labels.extend_from_slice(&delta.new_rows.labels);
        self.pool.borderline.extend_from_slice(&delta.new_rows.borderline);
        self.votes.extend_from_slice(&delta.new_votes);
        self.em_warm = delta.em_warm.clone();
        self.em_iterations = delta.em_iterations;
        assert_eq!(
            self.graph.is_some(),
            delta.graph.is_some(),
            "delta graph presence disagrees with the base state"
        );
        if let (Some(g), Some(d)) = (&mut self.graph, &delta.graph) {
            g.apply_delta(d);
        }
    }
}

struct PropScaffold {
    /// Fitted similarity config over the propagation columns.
    sim: SimilarityConfig,
    /// `[seeds | dev]` rows followed by every ingested pool row — the
    /// vertex table the online graph indexes into.
    combined: FeatureTable,
    /// Seed vertices `(vertex, label)` for propagation.
    seeds: Vec<(usize, f64)>,
    /// Dev-slice ground truth for threshold tuning.
    dev_labels: Vec<Label>,
    seed_len: usize,
    online: OnlineGraph,
    prop_cfg: PropagationConfig,
}

/// The incremental curation state machine. See the module docs for the
/// serving contract.
pub struct IncrementalCurator {
    config: IncrementalConfig,
    lfs: Vec<Box<dyn LabelingFunction>>,
    lf_names: Vec<String>,
    prior: f64,
    prop: Option<PropScaffold>,
    pool: ModalityDataset,
    /// Base-LF votes over the pool, row-major `n_rows x n_base_lfs`.
    base_votes: Vec<i8>,
    warm: Option<WarmStart>,
    em_iterations: usize,
    posteriors: Vec<f64>,
    covered: Vec<bool>,
    n_batches: usize,
    /// Pool rows already covered by the last durable export (state or
    /// delta); the vote mark is `mark_rows * lfs.len()` by construction.
    mark_rows: usize,
}

impl IncrementalCurator {
    /// Sets up the curator's clean-path scaffolding: mines LFs on the
    /// labeled text corpus and, when propagation is enabled, derives the
    /// seed/dev split, fits similarity scales on the labeled rows, and
    /// inserts them into the online graph.
    pub fn new(world: &World, text: &ModalityDataset, config: IncrementalConfig) -> Self {
        let columns = lf_columns(world.schema(), &config.curation);
        let mined = mine_lfs(
            &text.table,
            &text.labels,
            &columns,
            &config.curation.mining,
            config.curation.max_positive_lfs,
            config.curation.max_negative_lfs,
        );
        let lfs = mined.lfs;
        let mut lf_names: Vec<String> = lfs.iter().map(|l| l.name().to_owned()).collect();
        let prior = text.positive_rate().clamp(1e-4, 0.5);

        let prop = config
            .curation
            .use_label_propagation
            .then(|| {
                let (dev_idx, seed_idx) = prop_split(&text.labels, &config.curation);
                let mut combined = text.table.gather(&seed_idx);
                combined.extend_from(&text.table.gather(&dev_idx));
                let sim = SimilarityConfig::uniform(sim_columns(world.schema(), &config.curation))
                    .fit_scales(&combined);
                let seeds: Vec<(usize, f64)> = seed_idx
                    .iter()
                    .enumerate()
                    .map(|(v, &r)| (v, text.labels[r].as_f64()))
                    .collect();
                let dev_labels: Vec<Label> = dev_idx.iter().map(|&r| text.labels[r]).collect();
                let mut online = OnlineGraph::new(config.curation.prop_k);
                online.insert_rows(&FrozenTable::freeze(&combined), &sim);
                let prop_cfg = PropagationConfig { max_iters: 50, tol: 1e-4, prior };
                PropScaffold {
                    sim,
                    combined,
                    seeds,
                    dev_labels,
                    seed_len: seed_idx.len(),
                    online,
                    prop_cfg,
                }
            })
            // An empty seed set can't propagate; fall back to base LFs only.
            .filter(|p| p.seed_len > 0);
        if prop.is_some() {
            lf_names.push("label_propagation".to_owned());
        }

        let pool = ModalityDataset {
            modality: cm_featurespace::ModalityKind::Image,
            table: FeatureTable::new(world.schema().clone()),
            labels: Vec::new(),
            borderline: Vec::new(),
        };
        IncrementalCurator {
            config,
            lfs,
            lf_names,
            prior,
            prop,
            pool,
            base_votes: Vec::new(),
            warm: None,
            em_iterations: 0,
            posteriors: Vec::new(),
            covered: Vec::new(),
            n_batches: 0,
            mark_rows: 0,
        }
    }

    /// Batches ingested so far.
    pub fn n_batches(&self) -> usize {
        self.n_batches
    }

    /// Pool rows accumulated so far.
    pub fn n_rows(&self) -> usize {
        self.pool.len()
    }

    /// The accumulated pool dataset.
    pub fn pool(&self) -> &ModalityDataset {
        &self.pool
    }

    /// LF names, one per label-matrix column (propagation last, if on).
    pub fn lf_names(&self) -> &[String] {
        &self.lf_names
    }

    /// Current posteriors over the accumulated pool.
    pub fn posteriors(&self) -> &[f64] {
        &self.posteriors
    }

    /// Whether each accumulated pool row is covered by at least one LF.
    pub fn covered(&self) -> &[bool] {
        &self.covered
    }

    /// Class prior (clamped text positive rate) pinned in every fit.
    pub fn prior(&self) -> f64 {
        self.prior
    }

    /// Guard inputs for a candidate batch, without mutating any state.
    pub fn preview_batch(&self, batch: &ModalityDataset, par: &ParConfig) -> BatchPreview {
        let matrix = LabelMatrix::apply_with(&batch.table, &self.lfs, par);
        let n = matrix.n_rows();
        let n_lfs = matrix.n_lfs();
        let covered = (0..n).filter(|&r| matrix.row(r).iter().any(|&v| v != 0)).count();
        let abstains: usize =
            (0..n).map(|r| matrix.row(r).iter().filter(|&&v| v == 0).count()).sum();
        let mean_entropy = self.warm.as_ref().map(|_| {
            // Preview under the current model with the propagation column
            // abstaining (its votes are unknown until ingest).
            let model = self.current_model();
            let mut votes = Vec::with_capacity(n * self.lf_names.len());
            for r in 0..n {
                votes.extend_from_slice(matrix.row(r));
                if self.prop.is_some() {
                    votes.push(0);
                }
            }
            let full =
                LabelMatrix::from_votes(n, self.lf_names.len(), votes, self.lf_names.clone());
            mean_entropy(&model.predict_with(&full, par))
        });
        BatchPreview {
            coverage: covered as f64 / n.max(1) as f64,
            abstain_rate: abstains as f64 / (n * n_lfs).max(1) as f64,
            mean_entropy,
        }
    }

    /// Ingests one arrival batch: appends its rows and votes, grows the
    /// propagation graph, refits the label model (warm-started after the
    /// first batch), and refreshes the pool posteriors.
    ///
    /// # Panics
    /// Panics if the batch's schema disagrees with the world's.
    pub fn ingest_batch(&mut self, batch: &ModalityDataset, par: &ParConfig) -> BatchStats {
        let batch_rows = batch.len();
        self.pool.table.extend_from(&batch.table);
        self.pool.labels.extend_from_slice(&batch.labels);
        self.pool.borderline.extend_from_slice(&batch.borderline);
        let batch_matrix = LabelMatrix::apply_with(&batch.table, &self.lfs, par);
        for r in 0..batch_rows {
            self.base_votes.extend_from_slice(batch_matrix.row(r));
        }
        if let Some(p) = &mut self.prop {
            p.combined.extend_from(&batch.table);
            p.online.insert_rows(&FrozenTable::freeze(&p.combined), &p.sim);
        }

        let matrix = self.assemble_matrix(par);
        let gen_cfg = GenerativeConfig {
            class_prior: Some(self.prior),
            max_iters: if self.warm.is_some() {
                self.config.refit_max_iters
            } else {
                self.config.curation.generative.max_iters
            },
            ..self.config.curation.generative.clone()
        };
        let model =
            GenerativeModel::fit_segments_warm(&[&matrix], &gen_cfg, self.warm.as_ref(), par);
        self.warm = Some(model.warm_start());
        self.em_iterations = model.iterations();
        self.refresh_outputs(&model, &matrix, par);
        self.n_batches += 1;

        let n = self.pool.len();
        let start = n - batch_rows;
        let covered_in_batch = self.covered[start..].iter().filter(|&&c| c).count();
        let abstains: usize =
            (start..n).map(|r| matrix.row(r).iter().filter(|&&v| v == 0).count()).sum();
        BatchStats {
            batch_index: self.n_batches - 1,
            rows: batch_rows,
            total_rows: n,
            coverage: covered_in_batch as f64 / batch_rows.max(1) as f64,
            abstain_rate: abstains as f64 / (batch_rows * matrix.n_lfs()).max(1) as f64,
            mean_entropy: mean_entropy(&self.posteriors[start..]),
            em_iterations: self.em_iterations,
        }
    }

    /// Exports the arrival-dependent state for checkpointing and declares
    /// it durable: the next [`IncrementalCurator::export_delta`] reports
    /// only growth after this call. O(pool) — the delta-log base record.
    pub fn export_state(&mut self) -> IncrementalState {
        self.mark_rows = self.pool.len();
        IncrementalState {
            n_batches: self.n_batches,
            pool: self.pool.clone(),
            votes: self.base_votes.clone(),
            em_warm: self.warm.clone(),
            em_iterations: self.em_iterations,
            graph: self.prop.as_mut().map(|p| {
                p.online.mark_durable();
                p.online.snapshot()
            }),
        }
    }

    /// Exports everything ingested since the last durable point — cost
    /// proportional to the new batches, not the accumulated pool — and
    /// advances the durable mark. The delta-log append record.
    pub fn export_delta(&mut self) -> IncrementalDelta {
        let idx: Vec<usize> = (self.mark_rows..self.pool.len()).collect();
        let new_rows = self.pool.gather(&idx);
        let new_votes = self.base_votes[self.mark_rows * self.lfs.len()..].to_vec();
        self.mark_rows = self.pool.len();
        IncrementalDelta {
            n_batches: self.n_batches,
            new_rows,
            new_votes,
            em_warm: self.warm.clone(),
            em_iterations: self.em_iterations,
            graph: self.prop.as_mut().map(|p| p.online.export_delta()),
        }
    }

    /// Rebuilds a curator from a checkpointed state. `world`, `text`, and
    /// `config` must match the original run's; the clean-path scaffolding
    /// is re-derived from them and the arrival-dependent state is
    /// restored, after which behavior is bit-identical to the exporting
    /// curator's.
    ///
    /// # Panics
    /// Panics if the state disagrees with the configuration (a graph
    /// snapshot with propagation disabled, or vice versa), or if
    /// `state.votes` does not hold exactly one vote per pool row and
    /// mined LF.
    pub fn restore(
        world: &World,
        text: &ModalityDataset,
        config: IncrementalConfig,
        state: IncrementalState,
        par: &ParConfig,
    ) -> Self {
        let mut c = Self::new(world, text, config);
        assert_eq!(
            c.prop.is_some(),
            state.graph.is_some(),
            "checkpointed graph state disagrees with the propagation setting"
        );
        assert_eq!(
            state.votes.len(),
            state.pool.len() * c.lfs.len(),
            "checkpointed votes do not cover the pool: expected one per row and mined LF"
        );
        c.pool = state.pool;
        c.base_votes = state.votes;
        c.n_batches = state.n_batches;
        c.mark_rows = c.pool.len();
        c.warm = state.em_warm;
        c.em_iterations = state.em_iterations;
        if let (Some(p), Some(g)) = (&mut c.prop, state.graph) {
            p.combined.extend_from(&c.pool.table);
            p.online = OnlineGraph::from_snapshot(c.config.curation.prop_k, g);
        }
        if c.warm.is_some() {
            let matrix = c.assemble_matrix(par);
            let model = c.current_model();
            c.refresh_outputs(&model, &matrix, par);
        }
        c
    }

    /// The model implied by the current warm-start parameters.
    ///
    /// # Panics
    /// Panics before the first fit.
    fn current_model(&self) -> GenerativeModel {
        // lint: allow(expect) — documented panic: callers gate on `warm.is_some()`
        let warm = self.warm.as_ref().expect("no model fitted yet");
        GenerativeModel::from_params(warm.accuracies.clone(), warm.class_prior, self.em_iterations)
    }

    /// The full pool label matrix: accumulated base votes plus, when
    /// propagation is on, a freshly propagated-and-tuned column (all
    /// abstain when tuning clears no threshold).
    fn assemble_matrix(&self, par: &ParConfig) -> LabelMatrix {
        let n = self.pool.len();
        let n_base = self.lfs.len();
        let Some(p) = &self.prop else {
            return LabelMatrix::from_votes(
                n,
                n_base,
                self.base_votes.clone(),
                self.lf_names.clone(),
            );
        };
        let scores = propagate(&p.online.graph(), &p.seeds, &p.prop_cfg);
        let artifacts = prop_artifacts_from_scores(
            &scores,
            p.seed_len,
            p.dev_labels.clone(),
            &self.config.curation,
        );
        let _ = par;
        let mut votes = Vec::with_capacity(n * (n_base + 1));
        for r in 0..n {
            votes.extend_from_slice(&self.base_votes[r * n_base..(r + 1) * n_base]);
            votes.push(match &artifacts {
                Some(a) => a.pool_lf.vote_row(r).as_i8(),
                None => 0,
            });
        }
        LabelMatrix::from_votes(n, n_base + 1, votes, self.lf_names.clone())
    }

    fn refresh_outputs(&mut self, model: &GenerativeModel, matrix: &LabelMatrix, par: &ParConfig) {
        self.posteriors = model.predict_with(matrix, par);
        self.covered =
            (0..matrix.n_rows()).map(|r| matrix.row(r).iter().any(|&v| v != 0)).collect();
    }
}

/// Mean binary entropy (nats) of a posterior slice; `0.0` when empty.
pub fn mean_entropy(posteriors: &[f64]) -> f64 {
    if posteriors.is_empty() {
        return 0.0;
    }
    let sum: f64 = posteriors
        .iter()
        .map(|&q| {
            let q = q.clamp(1e-12, 1.0 - 1e-12);
            -(q * q.ln() + (1.0 - q) * (1.0 - q).ln())
        })
        .sum();
    sum / posteriors.len() as f64
}

#[cfg(test)]
mod tests {
    use cm_orgsim::{TaskConfig, TaskId, WorldConfig};

    use super::*;

    fn fixture() -> (World, ModalityDataset, ModalityDataset) {
        let task = TaskConfig::paper(TaskId::Ct2).scaled(0.02);
        let seed = 5u64;
        let world = World::build(WorldConfig::new(task.clone(), seed));
        let ds = seed ^ 0xD1CE;
        let text =
            world.generate(cm_featurespace::ModalityKind::Text, task.n_text_labeled, ds ^ 0x1);
        let pool =
            world.generate(cm_featurespace::ModalityKind::Image, task.n_image_unlabeled, ds ^ 0x2);
        (world, text, pool)
    }

    fn fast_config() -> IncrementalConfig {
        IncrementalConfig {
            curation: CurationConfig {
                prop_max_seeds: 400,
                mining: cm_mining::MiningConfig { min_recall: 0.05, ..Default::default() },
                ..Default::default()
            },
            refit_max_iters: 20,
        }
    }

    fn batches(pool: &ModalityDataset, size: usize) -> Vec<ModalityDataset> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < pool.len() {
            let end = (start + size).min(pool.len());
            let idx: Vec<usize> = (start..end).collect();
            out.push(pool.gather(&idx));
            start = end;
        }
        out
    }

    #[test]
    fn incremental_ingest_produces_useful_labels() {
        let (world, text, pool) = fixture();
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        let par = ParConfig::threads(2);
        for b in batches(&pool, 60) {
            let stats = cur.ingest_batch(&b, &par);
            assert_eq!(stats.total_rows, cur.n_rows());
            assert!(stats.coverage >= 0.0 && stats.coverage <= 1.0);
        }
        assert_eq!(cur.n_rows(), pool.len());
        assert_eq!(cur.posteriors().len(), pool.len());
        // Posterior quality against hidden ground truth, as in the batch
        // pipeline's diagnostics.
        let mut tp = 0usize;
        let mut fp = 0usize;
        for ((&q, &cov), label) in cur.posteriors().iter().zip(cur.covered()).zip(&pool.labels) {
            if cov && q >= 0.5 {
                if label.is_positive() {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        assert!(precision > 0.5, "precision {precision} (tp {tp}, fp {fp})");
    }

    #[test]
    fn batch_cuts_only_perturb_em_within_tolerance() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(2);
        let mut one = IncrementalCurator::new(&world, &text, fast_config());
        let idx: Vec<usize> = (0..pool.len()).collect();
        one.ingest_batch(&pool.gather(&idx), &par);
        let mut many = IncrementalCurator::new(&world, &text, fast_config());
        for b in batches(&pool, 60) {
            many.ingest_batch(&b, &par);
        }
        // The graph is cut-invariant, so coverage is exact; only the EM
        // warm-start chain may drift, and it must stay small.
        assert_eq!(one.covered(), many.covered());
        let max_dq = one
            .posteriors()
            .iter()
            .zip(many.posteriors())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_dq < 0.05, "posterior drift {max_dq}");
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(2);
        let all = batches(&pool, 60);
        let mut whole = IncrementalCurator::new(&world, &text, fast_config());
        for b in &all {
            whole.ingest_batch(b, &par);
        }
        let mut first = IncrementalCurator::new(&world, &text, fast_config());
        for b in &all[..2] {
            first.ingest_batch(b, &par);
        }
        let state = first.export_state();
        let mut resumed = IncrementalCurator::restore(&world, &text, fast_config(), state, &par);
        assert_eq!(resumed.posteriors(), first.posteriors());
        let mut stats_resumed = Vec::new();
        let mut stats_first = Vec::new();
        for b in &all[2..] {
            stats_resumed.push(resumed.ingest_batch(b, &par));
            stats_first.push(first.ingest_batch(b, &par));
        }
        assert_eq!(stats_resumed, stats_first);
        assert_eq!(resumed.posteriors(), whole.posteriors());
        assert_eq!(resumed.covered(), whole.covered());
    }

    #[test]
    fn delta_replay_restores_bit_identically() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(2);
        let all = batches(&pool, 60);
        // Live run: base export after batch 0, one delta per later batch.
        let mut live = IncrementalCurator::new(&world, &text, fast_config());
        live.ingest_batch(&all[0], &par);
        let mut replayed = live.export_state();
        let mut deltas = Vec::new();
        for b in &all[1..] {
            live.ingest_batch(b, &par);
            deltas.push(live.export_delta());
        }
        for d in &deltas {
            replayed.apply_delta(d);
        }
        // The replayed state matches a fresh O(pool) export field-by-field
        // (the pool table has no equality; its votes and labels pin it).
        let full = live.export_state();
        assert_eq!(replayed.n_batches, full.n_batches);
        assert_eq!(replayed.votes, full.votes);
        assert_eq!(replayed.em_warm, full.em_warm);
        assert_eq!(replayed.em_iterations, full.em_iterations);
        assert_eq!(replayed.graph, full.graph);
        assert_eq!(replayed.pool.labels, full.pool.labels);
        assert_eq!(replayed.pool.borderline, full.pool.borderline);
        // A curator restored from the replayed state behaves identically.
        let resumed = IncrementalCurator::restore(&world, &text, fast_config(), replayed, &par);
        assert_eq!(resumed.posteriors(), live.posteriors());
        assert_eq!(resumed.covered(), live.covered());
    }

    #[test]
    fn export_delta_after_export_state_is_empty() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let all = batches(&pool, 60);
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        cur.ingest_batch(&all[0], &par);
        let _ = cur.export_state();
        let idle = cur.export_delta();
        assert_eq!(idle.new_rows.len(), 0);
        assert!(idle.new_votes.is_empty());
        assert_eq!(idle.n_batches, 1);
        if let Some(g) = &idle.graph {
            assert!(g.new_edges.is_empty() && g.new_anchors.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "checkpointed votes do not cover the pool")]
    fn restore_panics_on_misaligned_votes() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let all = batches(&pool, 60);
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        cur.ingest_batch(&all[0], &par);
        let mut state = cur.export_state();
        // One row's votes short of the pool.
        let n_lfs = state.votes.len() / state.pool.len();
        state.votes.truncate(state.votes.len() - n_lfs);
        let _ = IncrementalCurator::restore(&world, &text, fast_config(), state, &par);
    }

    #[test]
    fn preview_does_not_mutate_state() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        let all = batches(&pool, 60);
        cur.ingest_batch(&all[0], &par);
        let before = cur.posteriors().to_vec();
        let preview = cur.preview_batch(&all[1], &par);
        assert!(preview.mean_entropy.is_some());
        assert_eq!(cur.posteriors(), &before[..]);
        assert_eq!(cur.n_batches(), 1);
        let stats = cur.ingest_batch(&all[1], &par);
        // Preview coverage is computed on the same base votes.
        assert!((preview.coverage - stats.coverage).abs() < 0.35);
    }

    #[test]
    fn warm_refits_run_fewer_iterations() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let cfg = fast_config();
        let full_iters = cfg.curation.generative.max_iters;
        let mut cur = IncrementalCurator::new(&world, &text, cfg);
        let all = batches(&pool, 60);
        let first = cur.ingest_batch(&all[0], &par);
        assert!(first.em_iterations <= full_iters);
        for b in &all[1..] {
            let stats = cur.ingest_batch(b, &par);
            assert!(stats.em_iterations <= 20, "refit ran {} iterations", stats.em_iterations);
        }
    }
}
