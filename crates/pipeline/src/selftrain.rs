//! Self-training augmentation (paper §6.4).
//!
//! After the cross-modal model ships, the paper augments it "via techniques
//! for active learning or self-training on the order of days". Self-training
//! re-labels the pool with the deployed model's own most confident
//! predictions and folds them back into the probabilistic labels, sharpening
//! the training signal without any human effort.

use cm_featurespace::{CmError, CmResult, ErrorKind, FeatureSet};
use cm_fusion::{EarlyFusionModel, ModalityData};
use cm_models::{ModelKind, TrainConfig};
use cm_par::ParConfig;

use crate::curation::CurationOutput;
use crate::data::{mask_disallowed_sets, DenseView, TaskData};

/// Configuration of one self-training round.
#[derive(Debug, Clone)]
pub struct SelfTrainConfig {
    /// Confidence required to adopt a model pseudo-label (distance from
    /// 0.5; e.g. 0.4 adopts predictions outside `[0.1, 0.9]`).
    pub confidence_margin: f64,
    /// Number of re-label/retrain rounds.
    pub rounds: usize,
    /// Feature sets the model uses.
    pub sets: Vec<FeatureSet>,
    /// Include modality-specific features.
    pub include_modality_specific: bool,
}

impl Default for SelfTrainConfig {
    fn default() -> Self {
        Self {
            confidence_margin: 0.4,
            rounds: 1,
            sets: FeatureSet::SHARED.to_vec(),
            include_modality_specific: true,
        }
    }
}

/// Outcome of self-training.
pub struct SelfTrainOutcome {
    /// The final trained model.
    pub model: EarlyFusionModel,
    /// Updated probabilistic labels for the pool.
    pub labels: Vec<f64>,
    /// How many pool rows were pseudo-labeled in the final round.
    pub n_pseudo_labeled: usize,
}

/// Runs self-training: trains the cross-modal early-fusion model, adopts
/// its confident pool predictions as labels, and retrains. Repeats for
/// `config.rounds` rounds.
///
/// # Errors
/// Returns [`ErrorKind::InvalidConfig`] if `rounds == 0` or the scenario
/// selects no features.
pub fn self_train(
    data: &TaskData,
    curation: &CurationOutput,
    model_kind: &ModelKind,
    train: &TrainConfig,
    config: &SelfTrainConfig,
    par: &ParConfig,
) -> CmResult<SelfTrainOutcome> {
    if config.rounds == 0 {
        return Err(CmError::new(
            ErrorKind::InvalidConfig,
            "self_train",
            "need at least one round".to_owned(),
        ));
    }
    let schema = data.world.schema();
    let columns = schema.columns_in_sets(&config.sets, config.include_modality_specific);
    if columns.is_empty() {
        return Err(CmError::new(
            ErrorKind::InvalidConfig,
            "self_train",
            "no features selected".to_owned(),
        ));
    }
    let view = DenseView::fit(&[&data.text.table, &data.pool.table], columns)?;

    let mut allowed = config.sets.clone();
    if config.include_modality_specific {
        allowed.push(FeatureSet::ModalitySpecific);
    }
    let mut x_text = view.encode(&data.text.table);
    mask_disallowed_sets(&mut x_text, &view, schema, &allowed);
    let mut x_pool = view.encode(&data.pool.table);
    mask_disallowed_sets(&mut x_pool, &view, schema, &allowed);

    let mut labels = curation.probabilistic_labels.clone();
    let mut n_pseudo = 0usize;
    let mut model = train_once(&x_text, data, &x_pool, &labels, model_kind, train, par);
    for round in 0..config.rounds {
        let preds = model.predict_proba(&x_pool, par);
        n_pseudo = 0;
        for (q, &p) in labels.iter_mut().zip(&preds) {
            if (p - 0.5).abs() >= config.confidence_margin {
                *q = p;
                n_pseudo += 1;
            }
        }
        let cfg = TrainConfig { seed: train.seed.wrapping_add(round as u64 + 1), ..train.clone() };
        model = train_once(&x_text, data, &x_pool, &labels, model_kind, &cfg, par);
    }
    Ok(SelfTrainOutcome { model, labels, n_pseudo_labeled: n_pseudo })
}

fn train_once(
    x_text: &cm_linalg::Matrix,
    data: &TaskData,
    x_pool: &cm_linalg::Matrix,
    pool_labels: &[f64],
    model_kind: &ModelKind,
    train: &TrainConfig,
    par: &ParConfig,
) -> EarlyFusionModel {
    let parts = [
        ModalityData::new(x_text.clone(), data.text.labels_f64()),
        ModalityData::new(x_pool.clone(), pool_labels.to_vec()),
    ];
    EarlyFusionModel::train(&parts, model_kind, train, None, par)
}

#[cfg(test)]
mod tests {
    use cm_orgsim::{TaskConfig, TaskId};

    use super::*;
    use crate::curation::{curate, CurationConfig};

    fn setup() -> (TaskData, CurationOutput) {
        let data = TaskData::generate(TaskConfig::paper(TaskId::Ct2).scaled(0.03), 3, Some(64));
        let curation = curate(&data, &CurationConfig::default());
        (data, curation)
    }

    #[test]
    fn self_training_pseudo_labels_and_does_not_collapse() {
        let (data, curation) = setup();
        let train = TrainConfig { epochs: 8, ..TrainConfig::default() };
        let out = self_train(
            &data,
            &curation,
            &ModelKind::Logistic,
            &train,
            &SelfTrainConfig::default(),
            &ParConfig::serial(),
        )
        .unwrap();
        assert!(out.n_pseudo_labeled > 0, "no confident predictions adopted");
        assert_eq!(out.labels.len(), data.pool.len());
        for q in &out.labels {
            assert!((0.0..=1.0).contains(q));
        }
        // Quality floor: pseudo-labels should still track ground truth.
        let truth: Vec<bool> = data.pool.labels.iter().map(|l| l.is_positive()).collect();
        let ap = cm_eval::auprc(&out.labels, &truth);
        assert!(ap > 0.3, "self-trained labels degraded to AUPRC {ap}");
    }

    #[test]
    fn extra_rounds_only_touch_confident_rows() {
        let (data, curation) = setup();
        let train = TrainConfig { epochs: 5, ..TrainConfig::default() };
        let cfg = SelfTrainConfig { confidence_margin: 0.49, rounds: 2, ..Default::default() };
        let out =
            self_train(&data, &curation, &ModelKind::Logistic, &train, &cfg, &ParConfig::serial())
                .unwrap();
        // With a nearly-1.0 confidence requirement few rows qualify.
        assert!(out.n_pseudo_labeled <= data.pool.len());
        let changed =
            out.labels.iter().zip(&curation.probabilistic_labels).filter(|(a, b)| a != b).count();
        assert!(changed <= out.n_pseudo_labeled + data.pool.len() / 2);
    }

    #[test]
    fn rejects_zero_rounds() {
        let (data, curation) = setup();
        let err = self_train(
            &data,
            &curation,
            &ModelKind::Logistic,
            &TrainConfig::default(),
            &SelfTrainConfig { rounds: 0, ..Default::default() },
            &ParConfig::serial(),
        )
        .err()
        .unwrap();
        assert_eq!(err.kind, ErrorKind::InvalidConfig);
        assert!(err.message.contains("at least one round"));
    }
}
