//! Snuba-style model-based LF generation (the alternative §4.3 rejects).
//!
//! Snuba (Varma & Ré, 2018) generates labeling functions by training small
//! heuristic models over feature subsets and keeping a diverse,
//! high-quality committee. The paper found this "too costly to immediately
//! integrate" with production workflows and used itemset mining instead.
//! This module implements a lightweight Snuba analogue — decision stumps
//! over single features, selected greedily for quality and diversity — so
//! the trade-off can be measured (see the `ablations` bench): stump
//! generation explores thresholds mining's quantile bins miss, at a higher
//! runtime and with more correlated output.

use cm_featurespace::{FeatureKind, FeatureTable, FrozenTable, Label};
use cm_labelmodel::{
    CategoricalContainsLf, LabelingFunction, NumericThresholdLf, ThresholdDirection, Vote,
};

/// Configuration for [`generate_stump_lfs`].
#[derive(Debug, Clone)]
pub struct StumpConfig {
    /// Maximum LFs to keep.
    pub max_lfs: usize,
    /// Minimum F1 (on the dev set, for the LF's vote class) to consider a
    /// stump at all.
    pub min_f1: f64,
    /// Maximum Jaccard overlap (of fired rows) with any already-selected
    /// stump — the diversity criterion.
    pub max_overlap: f64,
    /// Candidate thresholds per numeric feature.
    pub n_thresholds: usize,
}

impl Default for StumpConfig {
    fn default() -> Self {
        Self { max_lfs: 30, min_f1: 0.05, max_overlap: 0.8, n_thresholds: 12 }
    }
}

struct Candidate {
    lf: Box<dyn LabelingFunction>,
    f1: f64,
    fired: Vec<bool>,
}

/// Generates decision-stump LFs from a labeled dev table: one candidate per
/// categorical value and per numeric threshold, scored by dev F1 and
/// selected greedily under a pairwise-overlap cap.
///
/// # Panics
/// Panics on label-count mismatch.
pub fn generate_stump_lfs(
    dev: &FeatureTable,
    labels: &[Label],
    columns: &[usize],
    config: &StumpConfig,
) -> Vec<Box<dyn LabelingFunction>> {
    assert_eq!(dev.len(), labels.len(), "label count mismatch");
    let n = dev.len();
    let n_pos = labels.iter().filter(|l| l.is_positive()).count();
    let n_neg = n - n_pos;
    let frozen = FrozenTable::freeze(dev);

    let mut candidates: Vec<Candidate> = Vec::new();
    let mut consider = |lf: Box<dyn LabelingFunction>, positive_vote: bool| {
        let mut fired = vec![false; n];
        let mut tp = 0usize;
        let mut fp = 0usize;
        for (r, label) in labels.iter().enumerate() {
            if lf.vote_frozen(&frozen, r) != Vote::Abstain {
                fired[r] = true;
                let correct = label.is_positive() == positive_vote;
                if correct {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let class_total = if positive_vote { n_pos } else { n_neg };
        if tp == 0 || class_total == 0 {
            return;
        }
        let precision = tp as f64 / (tp + fp) as f64;
        let recall = tp as f64 / class_total as f64;
        let f1 = 2.0 * precision * recall / (precision + recall);
        if f1 >= config.min_f1 && precision > 0.5 {
            candidates.push(Candidate { lf, f1, fired });
        }
    };

    let schema = dev.schema().clone();
    for &col in columns {
        let Some(def) = schema.def(col) else {
            // Out-of-range columns generate no candidates; `cm-check`
            // validates column lists before execution.
            continue;
        };
        match def.kind {
            FeatureKind::Categorical => {
                for id in 0..def.vocab.len() as u32 {
                    for vote in [Vote::Positive, Vote::Negative] {
                        consider(
                            Box::new(CategoricalContainsLf::new(col, vec![id], false, vote)),
                            vote == Vote::Positive,
                        );
                    }
                }
            }
            FeatureKind::Numeric => {
                let mut values: Vec<f64> = (0..n).filter_map(|r| dev.numeric(r, col)).collect();
                if values.is_empty() {
                    continue;
                }
                values.sort_by(f64::total_cmp);
                for k in 1..=config.n_thresholds {
                    let idx = (k * (values.len() - 1)) / (config.n_thresholds + 1);
                    let threshold = values[idx];
                    for (dir, vote) in [
                        (ThresholdDirection::Above, Vote::Positive),
                        (ThresholdDirection::Below, Vote::Negative),
                        (ThresholdDirection::Above, Vote::Negative),
                        (ThresholdDirection::Below, Vote::Positive),
                    ] {
                        consider(
                            Box::new(NumericThresholdLf::new(col, threshold, dir, vote)),
                            vote == Vote::Positive,
                        );
                    }
                }
            }
            FeatureKind::Embedding { .. } => {}
        }
    }

    // Greedy selection: best F1 first, subject to the overlap cap.
    candidates.sort_by(|a, b| b.f1.total_cmp(&a.f1));
    let mut selected: Vec<Candidate> = Vec::new();
    for cand in candidates {
        if selected.len() >= config.max_lfs {
            break;
        }
        let diverse = selected.iter().all(|s| {
            let inter = s.fired.iter().zip(&cand.fired).filter(|(&a, &b)| a && b).count();
            let union = s.fired.iter().zip(&cand.fired).filter(|(&a, &b)| a || b).count();
            union == 0 || (inter as f64 / union as f64) <= config.max_overlap
        });
        if diverse {
            selected.push(cand);
        }
    }
    selected.into_iter().map(|c| c.lf).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, ServingMode, Vocabulary,
    };
    use cm_labelmodel::LabelMatrix;

    use super::*;

    fn dev() -> (FeatureTable, Vec<Label>) {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::categorical(
                "c",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["p", "bg", "n"]),
            ),
            FeatureDef::numeric("s", FeatureSet::A, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        let mut labels = Vec::new();
        for i in 0..60 {
            t.push_row(&[
                FeatureValue::Categorical(CatSet::from_ids(vec![0, 1])),
                FeatureValue::Numeric(10.0 + (i % 5) as f64),
            ]);
            labels.push(Label::Positive);
        }
        for i in 0..540 {
            t.push_row(&[
                FeatureValue::Categorical(CatSet::from_ids(vec![1, 2])),
                FeatureValue::Numeric((i % 9) as f64),
            ]);
            labels.push(Label::Negative);
        }
        (t, labels)
    }

    #[test]
    fn stumps_find_both_feature_kinds() {
        let (t, labels) = dev();
        let lfs = generate_stump_lfs(&t, &labels, &[0, 1], &StumpConfig::default());
        assert!(!lfs.is_empty());
        assert!(lfs.iter().any(|l| l.name().starts_with("cat[")), "no categorical stump");
        assert!(lfs.iter().any(|l| l.name().starts_with("num[")), "no numeric stump");
    }

    #[test]
    fn stump_votes_are_accurate_on_dev() {
        let (t, labels) = dev();
        let lfs = generate_stump_lfs(&t, &labels, &[0, 1], &StumpConfig::default());
        let m = LabelMatrix::apply(&t, &lfs);
        let mut correct = 0usize;
        let mut total = 0usize;
        for (r, label) in labels.iter().enumerate() {
            for &v in m.row(r) {
                if v != 0 {
                    total += 1;
                    if (v > 0) == label.is_positive() {
                        correct += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.7, "stump committee accuracy {acc}");
    }

    #[test]
    fn diversity_cap_limits_redundancy() {
        let (t, labels) = dev();
        let tight = StumpConfig { max_overlap: 0.1, ..Default::default() };
        let loose = StumpConfig { max_overlap: 1.0, ..Default::default() };
        let n_tight = generate_stump_lfs(&t, &labels, &[0, 1], &tight).len();
        let n_loose = generate_stump_lfs(&t, &labels, &[0, 1], &loose).len();
        assert!(n_tight <= n_loose);
    }

    #[test]
    fn max_lfs_is_respected() {
        let (t, labels) = dev();
        let cfg = StumpConfig { max_lfs: 3, ..Default::default() };
        assert!(generate_stump_lfs(&t, &labels, &[0, 1], &cfg).len() <= 3);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn rejects_mismatched_labels() {
        let (t, _) = dev();
        generate_stump_lfs(&t, &[Label::Positive], &[0], &StumpConfig::default());
    }
}
