//! LF quality diagnostics against a labeled development set (§4.2).
//!
//! The paper's key trick: labeled data of *existing* modalities serves as
//! the development set for LFs that, thanks to the common feature space,
//! apply unchanged to the new modality.

use cm_featurespace::{FeatureTable, FrozenTable, Label};

use crate::lf::{LabelingFunction, Vote};

/// Quality report for a single LF on a labeled dev set.
#[derive(Debug, Clone, PartialEq)]
pub struct LfReport {
    /// LF name.
    pub name: String,
    /// Fraction of rows labeled (not abstained).
    pub coverage: f64,
    /// Of the rows it labeled, fraction labeled correctly.
    pub accuracy: f64,
    /// Precision of its positive votes (positive-voting LFs; `None` if it
    /// never votes positive).
    pub positive_precision: Option<f64>,
    /// Recall of true positives via its positive votes.
    pub positive_recall: f64,
    /// Number of positive / negative votes emitted.
    pub votes: (usize, usize),
}

/// Aggregate report for an LF set.
#[derive(Debug, Clone, PartialEq)]
pub struct LfSummary {
    /// Per-LF reports.
    pub reports: Vec<LfReport>,
    /// Fraction of rows labeled by at least one LF.
    pub overall_coverage: f64,
    /// Precision of the pooled positive votes (any-LF-positive counts as a
    /// positive prediction).
    pub pooled_precision: f64,
    /// Recall of the pooled positive votes.
    pub pooled_recall: f64,
    /// F1 of the pooled positive votes.
    pub pooled_f1: f64,
}

/// Evaluates every LF against a labeled dev table.
///
/// # Panics
/// Panics if `labels.len() != dev.len()`.
pub fn evaluate_lfs(
    dev: &FeatureTable,
    labels: &[Label],
    lfs: &[Box<dyn LabelingFunction>],
) -> LfSummary {
    assert_eq!(dev.len(), labels.len(), "dev set size mismatch");
    let n = dev.len();
    let total_pos = labels.iter().filter(|l| l.is_positive()).count();
    let frozen = FrozenTable::freeze(dev);

    let mut reports = Vec::with_capacity(lfs.len());
    let mut any_vote = vec![false; n];
    let mut pooled_pos = vec![false; n];
    for lf in lfs {
        let mut covered = 0usize;
        let mut correct = 0usize;
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut pos_votes = 0usize;
        let mut neg_votes = 0usize;
        for (r, label) in labels.iter().enumerate() {
            match lf.vote_frozen(&frozen, r) {
                Vote::Abstain => {}
                v => {
                    covered += 1;
                    any_vote[r] = true;
                    let is_pos_vote = v == Vote::Positive;
                    if is_pos_vote {
                        pos_votes += 1;
                        pooled_pos[r] = true;
                        if label.is_positive() {
                            tp += 1;
                        } else {
                            fp += 1;
                        }
                    } else {
                        neg_votes += 1;
                    }
                    let correct_vote = is_pos_vote == label.is_positive();
                    correct += usize::from(correct_vote);
                }
            }
        }
        reports.push(LfReport {
            name: lf.name().to_owned(),
            coverage: covered as f64 / n.max(1) as f64,
            accuracy: if covered > 0 { correct as f64 / covered as f64 } else { 0.0 },
            positive_precision: (tp + fp > 0).then(|| tp as f64 / (tp + fp) as f64),
            positive_recall: if total_pos > 0 { tp as f64 / total_pos as f64 } else { 0.0 },
            votes: (pos_votes, neg_votes),
        });
    }

    let pooled_tp =
        labels.iter().enumerate().filter(|(r, l)| pooled_pos[*r] && l.is_positive()).count();
    let pooled_pred = pooled_pos.iter().filter(|&&p| p).count();
    let precision = if pooled_pred > 0 { pooled_tp as f64 / pooled_pred as f64 } else { 0.0 };
    let recall = if total_pos > 0 { pooled_tp as f64 / total_pos as f64 } else { 0.0 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    LfSummary {
        reports,
        overall_coverage: any_vote.iter().filter(|&&v| v).count() as f64 / n.max(1) as f64,
        pooled_precision: precision,
        pooled_recall: recall,
        pooled_f1: f1,
    }
}

/// Filters LFs to those meeting precision and coverage floors on the dev
/// set — the pre-deployment validation step the paper applies to both mined
/// and expert LFs.
pub fn filter_lfs(
    dev: &FeatureTable,
    labels: &[Label],
    lfs: Vec<Box<dyn LabelingFunction>>,
    min_precision: f64,
    min_coverage: f64,
) -> Vec<Box<dyn LabelingFunction>> {
    let summary = evaluate_lfs(dev, labels, &lfs);
    lfs.into_iter()
        .zip(summary.reports)
        .filter(|(_, rep)| {
            rep.coverage >= min_coverage
                && match rep.positive_precision {
                    Some(p) => p >= min_precision,
                    // Negative-only LFs are kept if their accuracy clears
                    // the same bar.
                    None => rep.accuracy >= min_precision,
                }
        })
        .map(|(lf, _)| lf)
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, ServingMode, Vocabulary,
    };

    use super::*;
    use crate::lf::CategoricalContainsLf;

    /// 10 rows: rows 0-2 positive with id 0; rows 3-4 positive with id 1;
    /// rows 5-9 negative with id 2 (except row 5 which also carries id 0 —
    /// a false-positive trap).
    fn dev() -> (FeatureTable, Vec<Label>) {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "c",
            FeatureSet::A,
            ServingMode::Servable,
            Vocabulary::from_names(["p0", "p1", "bg"]),
        )]));
        let mut t = FeatureTable::new(schema);
        let mut labels = Vec::new();
        for i in 0..10 {
            let (ids, label) = match i {
                0..=2 => (vec![0], Label::Positive),
                3..=4 => (vec![1], Label::Positive),
                5 => (vec![0, 2], Label::Negative),
                _ => (vec![2], Label::Negative),
            };
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(ids))]);
            labels.push(label);
        }
        (t, labels)
    }

    fn lf0() -> Box<dyn LabelingFunction> {
        Box::new(CategoricalContainsLf::new(0, vec![0], false, Vote::Positive))
    }

    #[test]
    fn report_counts_are_correct() {
        let (t, labels) = dev();
        let summary = evaluate_lfs(&t, &labels, &[lf0()]);
        let rep = &summary.reports[0];
        // LF fires on rows 0,1,2 (TP) and 5 (FP).
        assert_eq!(rep.votes, (4, 0));
        assert!((rep.coverage - 0.4).abs() < 1e-12);
        assert_eq!(rep.positive_precision, Some(0.75));
        assert!((rep.positive_recall - 3.0 / 5.0).abs() < 1e-12);
        assert!((rep.accuracy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pooled_metrics_combine_lfs() {
        let (t, labels) = dev();
        let lfs: Vec<Box<dyn LabelingFunction>> =
            vec![lf0(), Box::new(CategoricalContainsLf::new(0, vec![1], false, Vote::Positive))];
        let summary = evaluate_lfs(&t, &labels, &lfs);
        // Pooled positives: rows 0-4 (all 5 TP) + row 5 (FP).
        assert!((summary.pooled_precision - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(summary.pooled_recall, 1.0);
        assert!(summary.pooled_f1 > 0.9);
        assert!((summary.overall_coverage - 0.6).abs() < 1e-12);
    }

    #[test]
    fn filter_drops_low_precision_lfs() {
        let (t, labels) = dev();
        let lfs: Vec<Box<dyn LabelingFunction>> = vec![
            lf0(),                                                                   // precision 0.75
            Box::new(CategoricalContainsLf::new(0, vec![2], false, Vote::Positive)), // precision 1/6
        ];
        let kept = filter_lfs(&t, &labels, lfs, 0.7, 0.05);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name(), lf0().name());
    }

    #[test]
    fn filter_drops_low_coverage_lfs() {
        let (t, labels) = dev();
        let kept = filter_lfs(&t, &labels, vec![lf0()], 0.5, 0.9);
        assert!(kept.is_empty());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn evaluate_rejects_mismatched_labels() {
        let (t, _) = dev();
        evaluate_lfs(&t, &[Label::Positive], &[lf0()]);
    }

    #[test]
    fn negative_lf_has_no_positive_precision() {
        let (t, labels) = dev();
        let lf: Box<dyn LabelingFunction> =
            Box::new(CategoricalContainsLf::new(0, vec![2], false, Vote::Negative));
        let summary = evaluate_lfs(&t, &labels, &[lf]);
        let rep = &summary.reports[0];
        assert_eq!(rep.positive_precision, None);
        assert_eq!(rep.votes.0, 0);
        // Fires on rows 5..=9 and 5 is negative => accuracy 1.0
        assert_eq!(rep.accuracy, 1.0);
    }
}
