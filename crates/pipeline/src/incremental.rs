//! Incremental curation: the batch pipeline of [`crate::curation`]
//! reorganized around *arrival batches* for the long-running serving loop
//! (ROADMAP item 2; the paper's deployment keeps curating as
//! organizational data arrives).
//!
//! The division of labor with `cm-serve`:
//!
//! - This module owns the *curation state machine*: LFs are mined and
//!   compiled ([`cm_labelmodel::CompiledSuite`]) once on the labeled text
//!   corpus, each arrival batch's votes append to the pool's vote-pattern
//!   table ([`cm_labelmodel::VotePatterns`]) through that suite, the EM
//!   label model refits warm-started from the previous fit
//!   ([`cm_labelmodel::WarmStart`]) over the distinct patterns, and the
//!   propagation graph grows by online anchor insertion
//!   ([`cm_propagation::OnlineGraph`]) instead of full rebuilds.
//! - `cm-serve` owns the *robustness envelope*: admission control,
//!   quality guards, quarantine, and checkpointing. The curator supports
//!   it with [`IncrementalCurator::preview_batch`] (guard inputs without
//!   state mutation), [`IncrementalCurator::export_state`] /
//!   [`IncrementalCurator::export_delta`] (checkpoint records) and
//!   [`IncrementalCurator::restore`] (crash recovery).
//!
//! **Checkpoint records**: the curator's durable state has one record
//! type, [`IncrementalState`]: the pool rows ingested from its
//! `start_row` on, their base-LF votes, the online graph's per-row routes
//! and edges over the same ingests, and the current EM parameters.
//! `export_state` is the record since pool row 0 (a delta-log base),
//! `export_delta` the record since the last export.
//! [`IncrementalState::merge`] only appends rows or replaces scalars, so
//! a base equals the empty record merged with every record since; it
//! checks that a record continues the state before changing anything.
//!
//! **Resume contract**: `restore(world, text, config, state)` rebuilds a
//! curator whose observable behavior — posteriors, coverage, and every
//! subsequent ingest — is bit-identical to the curator that exported the
//! state and never stopped. Everything derivable from the clean-path
//! inputs (mined LFs, dev split, similarity scales, seed vertices) is
//! recomputed deterministically; only the state that depends on the
//! faulty arrival history (pool rows, EM parameters, graph routes) rides
//! in [`IncrementalState`].
//!
//! Two deliberate divergences from the one-shot batch pipeline, both
//! inherent to serving: similarity scales are fitted on the labeled
//! corpus only (the pool isn't known upfront), and the label model is
//! always the warm-startable EM model rather than the dev-anchored one.

use std::borrow::Cow;
use std::sync::Arc;

use cm_featurespace::{
    CmError, CmResult, ErrorKind, FeatureSchema, FeatureTable, FrozenTable, ModalityKind,
    SimilarityConfig,
};
use cm_labelmodel::{
    CompiledSuite, GenerativeConfig, GenerativeModel, LabelMatrix, LabelingFunction, VotePatterns,
    WarmStart,
};
use cm_mining::mine_lfs_tracked;
use cm_orgsim::{ModalityDataset, World};
use cm_par::ParConfig;
use cm_propagation::{propagate, OnlineGraph, OnlineGraphState};
use cm_shard::{MemBudget, MemTracker};

use crate::curation::{lf_columns, sim_columns, CurationConfig, PropSetup};

/// Name of the propagation LF's column, last in the label matrix.
const PROPAGATION_LF: &str = "label_propagation";

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

/// One checkpoint record of an [`IncrementalCurator`] (see the module
/// docs): a record from pool row 0 is the whole arrival-dependent state.
/// Serialized by `cm-serve`'s snapshot module.
#[derive(Debug, Clone)]
pub struct IncrementalState {
    /// Batches ingested so far (absolute).
    pub n_batches: usize,
    /// Pool rows ingested before this record's first row.
    pub start_row: usize,
    /// The record's pool rows: featurized arrival rows in ingest order.
    pub pool: ModalityDataset,
    /// Base-LF votes of the record's rows, row-major
    /// `pool.len() x n_base_lfs`. [`IncrementalCurator::restore`] uses
    /// them verbatim and panics when the length disagrees with the pool.
    pub votes: Vec<i8>,
    /// EM parameters of the current model, if any batch has been fitted.
    /// They change entirely on each refit, so every record carries them.
    pub em_warm: Option<WarmStart>,
    /// Iterations the last refit ran (restored for reporting parity).
    pub em_iterations: usize,
    /// The online propagation graph's record, when propagation is on.
    pub graph: Option<OnlineGraphState>,
}

impl IncrementalState {
    /// The record of a run that has ingested nothing: the identity of
    /// [`IncrementalState::merge`], so a checkpoint base is this record
    /// merged with every record since.
    pub fn empty(schema: Arc<FeatureSchema>, propagation: bool) -> Self {
        IncrementalState {
            n_batches: 0,
            start_row: 0,
            pool: ModalityDataset {
                modality: ModalityKind::Image,
                table: FeatureTable::new(schema),
                labels: Vec::new(),
                borderline: Vec::new(),
            },
            votes: Vec::new(),
            em_warm: None,
            em_iterations: 0,
            graph: propagation.then(OnlineGraphState::default),
        }
    }

    /// Appends the next record: its rows, votes and graph record append,
    /// its batch count and EM parameters replace. Merging a run's records
    /// in export order reproduces [`IncrementalCurator::export_state`]'s
    /// output at the same point, bit-identically.
    ///
    /// # Errors
    /// Fails, leaving `self` unchanged, when `next` does not start at this
    /// record's last pool row, disagrees on whether propagation is on, or
    /// does not continue the graph ([`OnlineGraphState::merge`]).
    pub fn merge(&mut self, next: IncrementalState) -> CmResult<()> {
        const LOC: &str = "IncrementalState::merge";
        let end = self.start_row + self.pool.len();
        if next.start_row != end {
            return Err(CmError::new(
                ErrorKind::OutOfBounds,
                LOC,
                format!("record starts at pool row {}, state has {end}", next.start_row),
            ));
        }
        match (&mut self.graph, next.graph) {
            (Some(graph), Some(next_graph)) => graph.merge(next_graph)?,
            (None, None) => {}
            _ => {
                return Err(CmError::new(
                    ErrorKind::SchemaMismatch,
                    LOC,
                    "record's propagation graph presence disagrees with the state's",
                ))
            }
        }
        if self.pool.is_empty() {
            self.pool = next.pool;
        } else {
            self.pool.table.extend_from(&next.pool.table);
            self.pool.labels.extend(next.pool.labels);
            self.pool.borderline.extend(next.pool.borderline);
        }
        self.votes.extend(next.votes);
        self.n_batches = next.n_batches;
        self.em_warm = next.em_warm;
        self.em_iterations = next.em_iterations;
        Ok(())
    }
}

struct PropScaffold {
    /// The shared propagation set-up. Every ingested pool row is appended
    /// to its `[seeds | dev]` corpus, the vertex table the online graph
    /// indexes into.
    setup: PropSetup,
    /// Fitted similarity config over the propagation columns.
    sim: SimilarityConfig,
    online: OnlineGraph,
}

/// The incremental curation state machine. See the module docs for the
/// serving contract.
pub struct IncrementalCurator {
    config: IncrementalConfig,
    lfs: Vec<Box<dyn LabelingFunction>>,
    /// `lfs` compiled once; every batch is voted through it.
    suite: CompiledSuite,
    lf_names: Vec<String>,
    prior: f64,
    prop: Option<PropScaffold>,
    pool: ModalityDataset,
    /// Base-LF votes over the pool, held as their pattern table (grown
    /// O(batch) per ingest); row `r`'s votes are `base_patterns.row(r)`.
    base_patterns: VotePatterns,
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
    /// Sets up the curator's clean-path scaffolding under `CM_THREADS`:
    /// mines LFs on the labeled text corpus and, when propagation is
    /// enabled, derives the seed/dev split, fits similarity scales on the
    /// labeled rows, and inserts them into the online graph.
    pub fn new(world: &World, text: &ModalityDataset, config: IncrementalConfig) -> Self {
        // lint: allow(par-from-env) — the perfbench adapter calls IncrementalCurator::new
        Self::scaffold(world, text, config, &ParConfig::from_env())
    }

    /// The body of [`IncrementalCurator::new`] and
    /// [`IncrementalCurator::restore`], mining under `par`.
    fn scaffold(
        world: &World,
        text: &ModalityDataset,
        config: IncrementalConfig,
        par: &ParConfig,
    ) -> Self {
        // The tracked total saturates at `usize::MAX`: this budget refuses
        // no charge.
        let mut unbounded = MemTracker::new(MemBudget::bytes(usize::MAX));
        let lfs = mine_lfs_tracked(
            &text.table,
            &text.labels,
            &lf_columns(world.schema(), &config.curation),
            &config.curation.mining,
            config.curation.max_positive_lfs,
            config.curation.max_negative_lfs,
            &mut unbounded,
            par,
        )
        .unwrap_or_else(|e| unreachable!("an unbounded memory budget refused a charge: {e}"))
        .lfs;
        let suite = CompiledSuite::compile(&lfs);
        let base_patterns = VotePatterns::new(lfs.iter().map(|l| l.name().to_owned()).collect());
        let mut lf_names = base_patterns.distinct().names().to_vec();
        let prior = text.positive_rate().clamp(1e-4, 0.5);

        // An empty seed set can't propagate; fall back to base LFs only.
        let prop = config
            .curation
            .use_label_propagation
            .then(|| PropSetup::new(text, &config.curation))
            .flatten()
            .map(|setup| {
                let sim = SimilarityConfig::uniform(sim_columns(world.schema(), &config.curation))
                    .fit_scales(&setup.corpus);
                let mut online = OnlineGraph::new(config.curation.prop_k);
                online.insert_rows(&FrozenTable::freeze(&setup.corpus), &sim);
                PropScaffold { setup, sim, online }
            });
        if prop.is_some() {
            lf_names.push(PROPAGATION_LF.to_owned());
        }

        let pool = IncrementalState::empty(world.schema().clone(), false).pool;
        IncrementalCurator {
            config,
            lfs,
            suite,
            lf_names,
            prior,
            prop,
            pool,
            base_patterns,
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
        let matrix = LabelMatrix::apply_compiled(&batch.table, &self.suite, &self.lfs, par);
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
            mean_entropy(&model.predict(&full, par))
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
        self.base_patterns.extend_compiled(&batch.table, &self.suite, &self.lfs, par);
        if let Some(p) = &mut self.prop {
            p.setup.corpus.extend_from(&batch.table);
            p.online.insert_rows(&FrozenTable::freeze(&p.setup.corpus), &p.sim);
        }

        let patterns = label_patterns(&self.base_patterns, self.prop.as_ref(), &self.config);
        let gen_cfg = GenerativeConfig {
            class_prior: Some(self.prior),
            max_iters: if self.warm.is_some() {
                self.config.refit_max_iters
            } else {
                self.config.curation.generative.max_iters
            },
            ..self.config.curation.generative.clone()
        };
        let model = GenerativeModel::fit_patterns(&patterns, &gen_cfg, self.warm.as_ref(), par);
        (self.posteriors, self.covered) = pool_outputs(&model, &patterns, par);
        self.warm = Some(model.warm_start());
        self.em_iterations = model.iterations();
        self.n_batches += 1;

        let n = self.pool.len();
        let start = n - batch_rows;
        // Abstains over the batch's label-matrix cells, counted per pattern.
        let pattern_abstains: Vec<usize> = (0..patterns.n_patterns())
            .map(|p| patterns.distinct().row(p).iter().filter(|&&v| v == 0).count())
            .collect();
        let abstains: usize =
            patterns.row_ids()[start..].iter().map(|&id| pattern_abstains[id as usize]).sum();
        let covered_in_batch = self.covered[start..].iter().filter(|&&c| c).count();
        BatchStats {
            batch_index: self.n_batches - 1,
            rows: batch_rows,
            total_rows: n,
            coverage: covered_in_batch as f64 / batch_rows.max(1) as f64,
            abstain_rate: abstains as f64 / (batch_rows * patterns.n_lfs()).max(1) as f64,
            mean_entropy: mean_entropy(&self.posteriors[start..]),
            em_iterations: self.em_iterations,
        }
    }

    /// Exports the record since pool row 0 — the whole arrival-dependent
    /// state, O(pool), the delta-log base — and declares it durable: the
    /// next [`IncrementalCurator::export_delta`] reports only growth after
    /// this call.
    pub fn export_state(&mut self) -> IncrementalState {
        self.export_record(true)
    }

    /// Exports the record since the last durable export — cost
    /// proportional to the new batches, not the accumulated pool — and
    /// advances the durable mark. The delta-log append record.
    pub fn export_delta(&mut self) -> IncrementalState {
        self.export_record(false)
    }

    fn export_record(&mut self, whole: bool) -> IncrementalState {
        let start_row = if whole { 0 } else { self.mark_rows };
        let end = self.pool.len();
        let pool = if whole {
            self.pool.clone()
        } else {
            self.pool.gather(&(start_row..end).collect::<Vec<_>>())
        };
        self.mark_rows = end;
        IncrementalState {
            n_batches: self.n_batches,
            start_row,
            pool,
            votes: self.base_patterns.row_votes(start_row..end),
            em_warm: self.warm.clone(),
            em_iterations: self.em_iterations,
            graph: self.prop.as_mut().map(|p| {
                if whole {
                    p.online.mark_durable();
                    p.online.snapshot()
                } else {
                    p.online.export_delta()
                }
            }),
        }
    }

    /// Rebuilds a curator from a checkpointed state. `world`, `text`, and
    /// `config` must match the original run's; the clean-path scaffolding
    /// is re-derived from them and the arrival-dependent state is
    /// restored, after which behavior is bit-identical to the exporting
    /// curator's.
    ///
    /// # Panics
    /// Panics if the state is not a record since pool row 0, disagrees
    /// with the configuration (a graph record with propagation disabled,
    /// or vice versa), or if `state.votes` does not hold exactly one vote
    /// per pool row and mined LF.
    pub fn restore(
        world: &World,
        text: &ModalityDataset,
        config: IncrementalConfig,
        state: IncrementalState,
        par: &ParConfig,
    ) -> Self {
        let mut c = Self::scaffold(world, text, config, par);
        assert_eq!(state.start_row, 0, "checkpointed state is not a record since pool row 0");
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
        let n_base = c.lfs.len();
        let names = c.base_patterns.distinct().names().to_vec();
        c.base_patterns = VotePatterns::from_matrix(&LabelMatrix::from_votes(
            state.pool.len(),
            n_base,
            state.votes,
            names,
        ));
        c.pool = state.pool;
        c.n_batches = state.n_batches;
        c.mark_rows = c.pool.len();
        c.warm = state.em_warm;
        c.em_iterations = state.em_iterations;
        if let (Some(p), Some(g)) = (&mut c.prop, state.graph) {
            p.setup.corpus.extend_from(&c.pool.table);
            p.online = OnlineGraph::from_snapshot(c.config.curation.prop_k, g);
        }
        if c.warm.is_some() {
            let patterns = label_patterns(&c.base_patterns, c.prop.as_ref(), &c.config);
            (c.posteriors, c.covered) = pool_outputs(&c.current_model(), &patterns, par);
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
}

/// The pool's vote-pattern table over every label-matrix column: the base
/// patterns, plus, when propagation is on, a freshly propagated-and-tuned
/// column (all abstain when tuning clears no threshold), keyed by (base
/// pattern id, propagation vote).
fn label_patterns<'a>(
    base: &'a VotePatterns,
    prop: Option<&PropScaffold>,
    config: &IncrementalConfig,
) -> Cow<'a, VotePatterns> {
    let Some(p) = prop else {
        return Cow::Borrowed(base);
    };
    let scores = propagate(&p.online.graph(), &p.setup.seeds, &p.setup.cfg);
    let pool_lf = p.setup.lf_from_scores(&scores, &config.curation).map(|(lf, _)| lf);
    let column: Vec<i8> = (0..base.n_rows())
        .map(|r| pool_lf.as_ref().map_or(0, |lf| lf.vote_row(r).as_i8()))
        .collect();
    Cow::Owned(base.with_column(PROPAGATION_LF.to_owned(), &column))
}

/// Pool posteriors and coverage flags: each distinct pattern is scored
/// once and scattered to its rows.
fn pool_outputs(
    model: &GenerativeModel,
    patterns: &VotePatterns,
    par: &ParConfig,
) -> (Vec<f64>, Vec<bool>) {
    (patterns.scatter(&model.predict_patterns(patterns, par)), patterns.covered())
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

    /// `P(y = 1 | votes)` of one row under the EM label model, with its
    /// log terms summed in column order.
    fn posterior_rowwise(votes: &[i8], accuracies: &[f64], prior: f64) -> f64 {
        let mut log_pos = prior.ln();
        let mut log_neg = (1.0 - prior).ln();
        let mut any = false;
        for (&v, &a) in votes.iter().zip(accuracies) {
            if v != 0 {
                any = true;
                let (agree, disagree) = (a.ln(), (1.0 - a).ln());
                let (p, n) = if v > 0 { (agree, disagree) } else { (disagree, agree) };
                log_pos += p;
                log_neg += n;
            }
        }
        if !any {
            return prior;
        }
        let m = log_pos.max(log_neg);
        let (pos, neg) = ((log_pos - m).exp(), (log_neg - m).exp());
        pos / (pos + neg)
    }

    /// The row-by-row EM refit (fixed prior, optional warm start): every
    /// row keeps its own posterior and folds into the moments on its own.
    fn em_rowwise(
        matrix: &LabelMatrix,
        cfg: &GenerativeConfig,
        warm: Option<&WarmStart>,
    ) -> (Vec<f64>, usize) {
        let (lo, hi) = cfg.accuracy_bounds;
        let mut accuracies: Vec<f64> = match warm {
            Some(w) => w.accuracies.iter().map(|a| a.clamp(lo, hi)).collect(),
            None => vec![cfg.init_accuracy.clamp(lo, hi); matrix.n_lfs()],
        };
        // The serving loop always pins the prior.
        let prior = cfg.class_prior.unwrap_or(0.5).clamp(1e-4, 1.0 - 1e-4);
        let mut posteriors = vec![0.5f64; matrix.n_rows()];
        let mut iterations = 0;
        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            let mut moments = cm_labelmodel::EmMoments::new(matrix.n_lfs());
            for (r, previous) in posteriors.iter_mut().enumerate() {
                let q = posterior_rowwise(matrix.row(r), &accuracies, prior);
                moments.observe_pattern(matrix.row(r), 1, q, *previous);
                *previous = q;
            }
            for (j, acc) in accuracies.iter_mut().enumerate() {
                if let Some(a) = moments.accuracy(j) {
                    *acc = a.clamp(lo, hi);
                }
            }
            if moments.mean_delta().unwrap_or(0.0) < cfg.tol && iter > 0 {
                break;
            }
        }
        (accuracies, iterations)
    }

    /// A row-wise shadow of the curator: base votes in a flat buffer, the
    /// full label matrix assembled every tick with the propagation column
    /// (over the curator's own graph, which this change leaves alone), and
    /// the row-by-row EM and predict.
    struct RowwiseReference {
        base_votes: Vec<i8>,
        warm: Option<WarmStart>,
        n_batches: usize,
    }

    impl RowwiseReference {
        fn ingest(
            &mut self,
            cur: &IncrementalCurator,
            batch: &ModalityDataset,
            par: &ParConfig,
        ) -> (Vec<f64>, Vec<bool>, BatchStats) {
            let batch_matrix = LabelMatrix::apply_with(&batch.table, &cur.lfs, par);
            for r in 0..batch_matrix.n_rows() {
                self.base_votes.extend_from_slice(batch_matrix.row(r));
            }
            let n = cur.pool.len();
            let n_base = cur.lfs.len();
            let matrix = match &cur.prop {
                None => LabelMatrix::from_votes(
                    n,
                    n_base,
                    self.base_votes.clone(),
                    cur.lf_names.clone(),
                ),
                Some(p) => {
                    let scores = propagate(&p.online.graph(), &p.setup.seeds, &p.setup.cfg);
                    let pool_lf =
                        p.setup.lf_from_scores(&scores, &cur.config.curation).map(|(lf, _)| lf);
                    let mut votes = Vec::with_capacity(n * (n_base + 1));
                    for r in 0..n {
                        votes.extend_from_slice(&self.base_votes[r * n_base..(r + 1) * n_base]);
                        votes.push(pool_lf.as_ref().map_or(0, |lf| lf.vote_row(r).as_i8()));
                    }
                    LabelMatrix::from_votes(n, n_base + 1, votes, cur.lf_names.clone())
                }
            };
            let cfg = GenerativeConfig {
                class_prior: Some(cur.prior),
                max_iters: if self.warm.is_some() {
                    cur.config.refit_max_iters
                } else {
                    cur.config.curation.generative.max_iters
                },
                ..cur.config.curation.generative.clone()
            };
            let (accuracies, iterations) = em_rowwise(&matrix, &cfg, self.warm.as_ref());
            let posteriors: Vec<f64> =
                (0..n).map(|r| posterior_rowwise(matrix.row(r), &accuracies, cur.prior)).collect();
            let covered: Vec<bool> =
                (0..n).map(|r| matrix.row(r).iter().any(|&v| v != 0)).collect();
            self.warm = Some(WarmStart { accuracies, class_prior: cur.prior });
            self.n_batches += 1;
            let start = n - batch.len();
            let abstains: usize =
                (start..n).map(|r| matrix.row(r).iter().filter(|&&v| v == 0).count()).sum();
            let stats = BatchStats {
                batch_index: self.n_batches - 1,
                rows: batch.len(),
                total_rows: n,
                coverage: covered[start..].iter().filter(|&&c| c).count() as f64
                    / batch.len().max(1) as f64,
                abstain_rate: abstains as f64 / (batch.len() * matrix.n_lfs()).max(1) as f64,
                mean_entropy: mean_entropy(&posteriors[start..]),
                em_iterations: iterations,
            };
            (posteriors, covered, stats)
        }
    }

    /// The pattern-folded curator equals the row-wise reference after
    /// every tick, bit for bit, with propagation on and off.
    #[test]
    fn pattern_folded_ticks_match_rowwise_reference_bitwise() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(2);
        let mut no_prop = fast_config();
        no_prop.curation.use_label_propagation = false;
        for config in [fast_config(), no_prop] {
            let propagation = config.curation.use_label_propagation;
            let mut cur = IncrementalCurator::new(&world, &text, config);
            assert_eq!(cur.prop.is_some(), propagation);
            let mut reference =
                RowwiseReference { base_votes: Vec::new(), warm: None, n_batches: 0 };
            for (tick, b) in batches(&pool, 60).iter().enumerate() {
                let stats = cur.ingest_batch(b, &par);
                let (posteriors, covered, expected) = reference.ingest(&cur, b, &par);
                let ctx = format!("propagation = {propagation}, tick = {tick}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(cur.posteriors()), bits(&posteriors), "{ctx}");
                assert_eq!(cur.covered(), &covered[..], "{ctx}");
                assert_eq!(stats, expected, "{ctx}");
                assert_eq!(stats.mean_entropy.to_bits(), expected.mean_entropy.to_bits(), "{ctx}");
                assert_eq!(cur.warm, reference.warm, "{ctx}");
            }
        }
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
        // Live run: base export after batch 0, one delta per later batch,
        // all merged onto the empty record.
        let mut live = IncrementalCurator::new(&world, &text, fast_config());
        live.ingest_batch(&all[0], &par);
        let mut replayed = IncrementalState::empty(world.schema().clone(), true);
        replayed.merge(live.export_state()).expect("base continues the empty record");
        for b in &all[1..] {
            live.ingest_batch(b, &par);
            replayed.merge(live.export_delta()).expect("delta continues the base");
        }
        // The replayed state matches a fresh O(pool) export field-by-field
        // (the pool table has no equality; its votes and labels pin it).
        let full = live.export_state();
        assert_eq!(replayed.n_batches, full.n_batches);
        assert_eq!(replayed.start_row, 0);
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

        // A base written after deltas moved the marks: restoring it gives
        // the live curator, and the next delta matches too.
        let mut live = IncrementalCurator::new(&world, &text, fast_config());
        let mut replayed = IncrementalState::empty(world.schema().clone(), true);
        live.ingest_batch(&all[0], &par);
        replayed.merge(live.export_state()).expect("first base");
        for b in &all[1..all.len() - 1] {
            live.ingest_batch(b, &par);
            replayed.merge(live.export_delta()).expect("delta");
        }
        let base = live.export_state();
        assert_eq!(base.votes, replayed.votes);
        assert_eq!(base.graph, replayed.graph);
        let mut resumed = IncrementalCurator::restore(&world, &text, fast_config(), base, &par);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(resumed.posteriors()), bits(live.posteriors()));
        assert_eq!(resumed.covered(), live.covered());
        let last = &all[all.len() - 1];
        assert_eq!(resumed.ingest_batch(last, &par), live.ingest_batch(last, &par));
        let (next_resumed, next_live) = (resumed.export_delta(), live.export_delta());
        assert_eq!(next_resumed.start_row, next_live.start_row);
        assert_eq!(next_resumed.votes, next_live.votes);
        assert_eq!(next_resumed.em_warm, next_live.em_warm);
        assert_eq!(next_resumed.graph, next_live.graph);
        assert_eq!(next_resumed.pool.labels, next_live.pool.labels);
        assert_eq!(bits(resumed.posteriors()), bits(live.posteriors()));
    }

    #[test]
    fn export_delta_after_export_state_is_empty() {
        let (world, text, pool) = fixture();
        let par = ParConfig::threads(1);
        let all = batches(&pool, 60);
        let mut cur = IncrementalCurator::new(&world, &text, fast_config());
        cur.ingest_batch(&all[0], &par);
        let base = cur.export_state();
        let idle = cur.export_delta();
        assert_eq!(idle.start_row, base.pool.len());
        assert_eq!(idle.pool.len(), 0);
        assert!(idle.votes.is_empty());
        assert_eq!(idle.n_batches, 1);
        if let Some(g) = &idle.graph {
            assert!(g.routes.is_empty() && g.edges.is_empty());
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
