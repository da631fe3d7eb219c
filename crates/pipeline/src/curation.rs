//! Training-data curation (pipeline step B, §4): automatic LF mining,
//! optional label propagation, and the label model.
//!
//! This module holds the configuration, the output, the resident entry
//! points [`curate`] and [`curate_with_lfs`], and the pieces the one
//! curation driver in [`crate::stream`] shares with the incremental
//! curator. The entry points hand [`TaskData`]'s resident pool to that
//! driver as a single segment; `curate_streamed` hands it a generation
//! stream instead.
//!
//! The label model defaults to the dev-anchored variant: LF vote rates are
//! measured on the labeled old-modality corpus (§4.2's "use labeled data of
//! existing modalities as a development set") and posteriors on the
//! unlabeled pool follow from Bayes' rule. The EM generative model and
//! majority vote remain available for the ablation benches.

use std::time::Duration;

use cm_featurespace::{FeatureSchema, FeatureSet, FeatureTable, Label, ServingMode};
use cm_labelmodel::{BoundScoreLf, GenerativeConfig, LabelingFunction};
use cm_linalg::rng::SliceRandom;
use cm_linalg::rng::StdRng;
use cm_mining::MiningConfig;
use cm_orgsim::ModalityDataset;
use cm_par::ParConfig;
use cm_propagation::{tune_score_thresholds, PropagationConfig};

use crate::data::TaskData;
use crate::report::DegradationReport;
use crate::stream::{curate_resident, LfSource};

/// Which label model combines LF votes into probabilistic labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelModelKind {
    /// Dev-set-anchored class-conditional model (default; §4.2).
    Anchored,
    /// EM-fitted conditionally-independent generative model (Snorkel's).
    Em,
    /// Unweighted majority vote (ablation baseline).
    MajorityVote,
}

/// Configuration of the curation step.
#[derive(Debug, Clone)]
pub struct CurationConfig {
    /// Feature sets whose (shared) features feed LF mining.
    pub lf_sets: Vec<FeatureSet>,
    /// Whether nonservable features may feed LFs (§4.1: weak supervision is
    /// offline, so they may — unless ablating).
    pub include_nonservable: bool,
    /// Itemset-mining thresholds.
    pub mining: MiningConfig,
    /// Cap on mined positive LFs.
    pub max_positive_lfs: usize,
    /// Cap on mined negative LFs.
    pub max_negative_lfs: usize,
    /// Whether to add the label-propagation LF (§4.4).
    pub use_label_propagation: bool,
    /// k-NN degree of the propagation graph.
    pub prop_k: usize,
    /// Max old-modality seed vertices (all positives are always kept).
    pub prop_max_seeds: usize,
    /// Dev-set precision floor for the propagation LF's positive side.
    pub prop_min_precision: f64,
    /// Max fraction of dev positives the negative side may swallow.
    pub prop_max_leakage: f64,
    /// Label-model choice.
    pub label_model: LabelModelKind,
    /// EM settings (used when `label_model` is [`LabelModelKind::Em`]).
    pub generative: GenerativeConfig,
    /// Seed for splits and graph construction.
    pub seed: u64,
}

impl Default for CurationConfig {
    fn default() -> Self {
        Self {
            lf_sets: FeatureSet::SHARED.to_vec(),
            include_nonservable: true,
            mining: MiningConfig {
                min_precision: 0.55,
                min_neg_precision: 0.985,
                ..MiningConfig::default()
            },
            max_positive_lfs: 80,
            max_negative_lfs: 30,
            use_label_propagation: true,
            prop_k: 15,
            prop_max_seeds: 5000,
            prop_min_precision: 0.45,
            prop_max_leakage: 0.05,
            label_model: LabelModelKind::Anchored,
            generative: GenerativeConfig::default(),
            seed: 0,
        }
    }
}

/// Quality of the curated labels against the pool's hidden ground truth
/// (a diagnostic the paper measures with its labeled test sets, §6.7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsQuality {
    /// Precision of hard-thresholded probabilistic labels on covered rows.
    pub precision: f64,
    /// Recall over all pool positives.
    pub recall: f64,
    /// F1 of the above.
    pub f1: f64,
    /// Fraction of pool rows labeled by at least one LF.
    pub coverage: f64,
}

/// Result of curation over the unlabeled pool.
pub struct CurationOutput {
    /// Probabilistic label per pool row.
    pub probabilistic_labels: Vec<f64>,
    /// Whether each pool row was covered by at least one LF.
    pub covered: Vec<bool>,
    /// Names of the LFs used.
    pub lf_names: Vec<String>,
    /// Label quality vs ground truth.
    pub ws_quality: WsQuality,
    /// Wall-clock of LF mining (or expert authoring time when provided).
    pub mining_time: Duration,
    /// Wall-clock of graph build + propagation, when used.
    pub propagation_time: Option<Duration>,
    /// Label-matrix conflict rate (Snorkel diagnostic).
    pub conflict: f64,
    /// Degradation telemetry: dropped LFs, abstain rates, service faults.
    /// Populated on every run; a clean run reports zero drops/trips.
    pub degradation: DegradationReport,
}

/// Runs curation with automatically mined LFs (§4.3 + §4.4) under
/// `CM_THREADS`.
pub fn curate(data: &TaskData, config: &CurationConfig) -> CurationOutput {
    // lint: allow(par-from-env) — the perfbench adapter calls curate
    curate_resident(data, config, LfSource::Mined, &ParConfig::from_env())
}

/// Runs curation with a caller-provided LF suite (e.g. the hand-written
/// expert LFs of §6.7.1). `authoring_time` is recorded as the mining time.
pub fn curate_with_lfs(
    data: &TaskData,
    config: &CurationConfig,
    lfs: Vec<Box<dyn LabelingFunction>>,
    authoring_time: Duration,
    par: &ParConfig,
) -> CurationOutput {
    curate_resident(data, config, LfSource::Provided(lfs, authoring_time), par)
}

/// The columns LFs may reference: shared features of the configured sets,
/// optionally filtered to servable ones.
pub(crate) fn lf_columns(schema: &FeatureSchema, config: &CurationConfig) -> Vec<usize> {
    schema
        .columns_in_sets(&config.lf_sets, false)
        .into_iter()
        .filter(|&c| {
            config.include_nonservable
                || schema.def(c).map(|d| d.serving) == Some(ServingMode::Servable)
        })
        .collect()
}

/// The columns the propagation graph compares: LF columns plus
/// modality-specific embeddings — "we use features specific to the new
/// modality to construct edges, including unstructured features such as
/// image embeddings".
pub(crate) fn sim_columns(schema: &FeatureSchema, config: &CurationConfig) -> Vec<usize> {
    let mut columns = lf_columns(schema, config);
    columns.extend(
        schema
            .defs()
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.set == FeatureSet::ModalitySpecific
                    && matches!(d.kind, cm_featurespace::FeatureKind::Embedding { .. })
            })
            .map(|(i, _)| i),
    );
    columns
}

/// The label-propagation set-up (§4.4) every propagation-LF builder
/// shares — the batch driver and the incremental curator. The labeled
/// corpus splits into a dev slice for threshold tuning and seed vertices
/// (every positive plus negatives up to the cap); the split is purely a
/// function of `(labels, config.seed, config.prop_max_seeds)`.
pub(crate) struct PropSetup {
    /// The propagation corpus: the seed rows, then the dev rows, gathered
    /// from the labeled corpus. Pool rows, when resident, follow them.
    pub corpus: FeatureTable,
    /// Seed vertices `(vertex, label)`: the corpus's first rows.
    pub seeds: Vec<(usize, f64)>,
    /// Dev-slice ground truth, one per dev row of the corpus.
    pub dev_labels: Vec<Label>,
    /// Propagation settings, with the labeled corpus's class prior.
    pub cfg: PropagationConfig,
}

impl PropSetup {
    /// Splits `text` and gathers the corpus head. `None` when the split
    /// leaves no seed vertex (nothing to propagate from).
    pub(crate) fn new(text: &ModalityDataset, config: &CurationConfig) -> Option<Self> {
        let labels = &text.labels;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
        let mut idx: Vec<usize> = (0..labels.len()).collect();
        idx.shuffle(&mut rng);
        let dev_len = (labels.len() / 5).max(1);
        let (dev_idx, rest) = idx.split_at(dev_len.min(idx.len()));
        let mut seed_idx: Vec<usize> =
            rest.iter().copied().filter(|&r| labels[r].is_positive()).collect();
        let neg_budget = config.prop_max_seeds.saturating_sub(seed_idx.len());
        seed_idx
            .extend(rest.iter().copied().filter(|&r| !labels[r].is_positive()).take(neg_budget));
        if seed_idx.is_empty() {
            return None;
        }
        let mut corpus = text.table.gather(&seed_idx);
        corpus.extend_from(&text.table.gather(dev_idx));
        Some(PropSetup {
            corpus,
            seeds: seed_idx.iter().enumerate().map(|(v, &r)| (v, labels[r].as_f64())).collect(),
            dev_labels: dev_idx.iter().map(|&r| labels[r]).collect(),
            cfg: PropagationConfig {
                max_iters: 50,
                tol: 1e-4,
                prior: text.positive_rate().clamp(1e-4, 0.5),
            },
        })
    }

    /// Turns propagated scores over `[seeds | dev | pool]` into the
    /// propagation LF: thresholds tuned on the dev slice, the pool's
    /// scores bound to it. Also returns the LF's votes on the dev slice.
    /// `None` when no thresholds clear the configured precision floor
    /// (the LF is then omitted).
    pub(crate) fn lf_from_scores(
        &self,
        scores: &[f64],
        config: &CurationConfig,
    ) -> Option<(BoundScoreLf, Vec<i8>)> {
        let dev_start = self.seeds.len();
        let pool_start = dev_start + self.dev_labels.len();
        let dev_scores = &scores[dev_start..pool_start];
        let tuned = tune_score_thresholds(
            dev_scores,
            &self.dev_labels,
            config.prop_min_precision,
            config.prop_max_leakage,
        )?;
        let lf = |name, scores| BoundScoreLf::new(name, scores, tuned.positive, tuned.negative);
        let dev_lf = lf("", dev_scores);
        let dev_votes = (0..dev_scores.len()).map(|r| dev_lf.vote_row(r).as_i8()).collect();
        Some((lf("label_propagation", &scores[pool_start..]), dev_votes))
    }
}

pub(crate) fn ws_quality(probs: &[f64], covered: &[bool], truth: &[Label]) -> WsQuality {
    let n_pos = truth.iter().filter(|l| l.is_positive()).count();
    let mut tp = 0usize;
    let mut fp = 0usize;
    for ((&q, &cov), label) in probs.iter().zip(covered).zip(truth) {
        if cov && q >= 0.5 {
            if label.is_positive() {
                tp += 1;
            } else {
                fp += 1;
            }
        }
    }
    let precision = if tp + fp > 0 { tp as f64 / (tp + fp) as f64 } else { 0.0 };
    let recall = if n_pos > 0 { tp as f64 / n_pos as f64 } else { 0.0 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    let coverage = covered.iter().filter(|&&c| c).count() as f64 / covered.len().max(1) as f64;
    WsQuality { precision, recall, f1, coverage }
}

#[cfg(test)]
mod tests {
    use cm_orgsim::{TaskConfig, TaskId};

    use super::*;

    fn data() -> TaskData {
        TaskData::generate(TaskConfig::paper(TaskId::Ct2).scaled(0.04), 5, Some(64))
    }

    fn fast_config() -> CurationConfig {
        CurationConfig {
            prop_max_seeds: 400,
            mining: MiningConfig { min_recall: 0.05, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn curate_produces_useful_labels() {
        let d = data();
        let cfg = CurationConfig { use_label_propagation: false, ..fast_config() };
        let out = curate(&d, &cfg);
        assert_eq!(out.probabilistic_labels.len(), d.pool.len());
        assert!(!out.lf_names.is_empty(), "no LFs mined");
        assert!(out.ws_quality.precision > 0.5, "precision {:?}", out.ws_quality);
        assert!(out.ws_quality.recall > 0.2, "recall {:?}", out.ws_quality);
        assert!(out.ws_quality.coverage > 0.1);
        for p in &out.probabilistic_labels {
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn propagation_adds_an_lf_and_recall() {
        let d = data();
        let without = curate(&d, &CurationConfig { use_label_propagation: false, ..fast_config() });
        let with = curate(&d, &fast_config());
        if with.lf_names.iter().any(|n| n == "label_propagation") {
            assert!(with.propagation_time.is_some());
            assert!(
                with.ws_quality.recall >= without.ws_quality.recall * 0.9,
                "LP should not collapse recall: {:?} vs {:?}",
                with.ws_quality,
                without.ws_quality
            );
        }
    }

    #[test]
    fn curate_with_provided_lfs_uses_them() {
        let d = data();
        let cfg = CurationConfig { use_label_propagation: false, ..fast_config() };
        let lfs = crate::expert::expert_lfs(d.world.schema()).unwrap();
        let n = lfs.len();
        let out =
            curate_with_lfs(&d, &cfg, lfs, Duration::from_secs(7 * 3600), &ParConfig::serial());
        assert_eq!(out.lf_names.len(), n);
        assert_eq!(out.mining_time, Duration::from_secs(7 * 3600));
    }

    #[test]
    fn covered_flags_match_labels() {
        let d = data();
        let out = curate(&d, &CurationConfig { use_label_propagation: false, ..fast_config() });
        assert_eq!(out.covered.len(), d.pool.len());
        let n_cov = out.covered.iter().filter(|&&c| c).count();
        assert!(n_cov > 0);
        assert!((out.ws_quality.coverage - n_cov as f64 / d.pool.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn anchored_beats_majority_vote_on_f1() {
        let d = data();
        let base = fast_config();
        let anchored = curate(&d, &CurationConfig { use_label_propagation: false, ..base.clone() });
        let mv = curate(
            &d,
            &CurationConfig {
                use_label_propagation: false,
                label_model: LabelModelKind::MajorityVote,
                ..base
            },
        );
        assert!(
            anchored.ws_quality.f1 >= mv.ws_quality.f1 * 0.9,
            "anchored {:?} vs majority {:?}",
            anchored.ws_quality,
            mv.ws_quality
        );
    }

    #[test]
    fn em_label_model_still_runs() {
        let d = data();
        let out = curate(
            &d,
            &CurationConfig {
                use_label_propagation: false,
                label_model: LabelModelKind::Em,
                ..fast_config()
            },
        );
        assert_eq!(out.probabilistic_labels.len(), d.pool.len());
    }
}
