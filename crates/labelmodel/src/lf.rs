//! Labeling functions: programmatic weak labelers over the common feature
//! space (§4.1).
//!
//! The common feature space is what makes LFs writable at all for rich
//! modalities (§4.2): predicates over categorical service outputs and
//! numeric statistics, instead of raw pixels.
//!
//! Every LF votes through [`LabelingFunction::vote_frozen`]. An LF can
//! also describe itself through [`LabelingFunction::shape`]: a
//! single-column categorical-contains or numeric-bounds rule, the two
//! shapes itemset mining emits (§4.3), or opaque. A
//! [`crate::CompiledSuite`] evaluates the described shapes through
//! per-column postings and calls `vote_frozen` only for opaque LFs; a
//! shape must vote exactly as `vote_frozen` does on every row.

use std::sync::Arc;

use cm_featurespace::FrozenTable;

/// A labeling-function vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vote {
    /// Label the point positive.
    Positive,
    /// Label the point negative.
    Negative,
    /// Decline to label.
    Abstain,
}

impl Vote {
    /// Snorkel-style integer encoding: `+1`, `-1`, `0`.
    #[inline]
    pub fn as_i8(self) -> i8 {
        match self {
            Vote::Positive => 1,
            Vote::Negative => -1,
            Vote::Abstain => 0,
        }
    }

    /// Inverse of [`Vote::as_i8`].
    ///
    /// # Panics
    /// Panics on values outside `{-1, 0, 1}`.
    #[inline]
    pub fn from_i8(v: i8) -> Self {
        match v {
            1 => Vote::Positive,
            -1 => Vote::Negative,
            0 => Vote::Abstain,
            // Encodings come from Vote::as_i8; cm-check validates any
            // externally built matrix before use.
            // lint: allow(panic)
            other => panic!("invalid vote encoding {other}"),
        }
    }
}

/// A labeling function: maps a row of a frozen feature table to a [`Vote`].
pub trait LabelingFunction: Send + Sync {
    /// Human-readable name (shows up in diagnostics and reports).
    fn name(&self) -> &str;

    /// Votes on row `row` of a frozen columnar view, reading its
    /// contiguous columns directly (no per-row schema dispatch). Must
    /// abstain on missing inputs. Callers freeze a table once and vote
    /// every row through the view, as [`crate::LabelMatrix::apply`] does.
    fn vote_frozen(&self, frozen: &FrozenTable<'_>, row: usize) -> Vote;

    /// How a [`crate::CompiledSuite`] may evaluate this LF without calling
    /// [`LabelingFunction::vote_frozen`]. The default, [`LfShape::Opaque`],
    /// is always correct; any other shape must vote exactly as
    /// `vote_frozen` does on every row of every table.
    fn shape(&self) -> LfShape {
        LfShape::Opaque
    }
}

/// What an LF votes on, as far as a [`crate::CompiledSuite`] needs to
/// know ([`LabelingFunction::shape`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LfShape {
    /// Votes `vote` when categorical column `column` is present and
    /// contains all (`require_all`) or any of `ids`; abstains otherwise,
    /// including on a column of another kind.
    CategoricalContains {
        /// Source column.
        column: usize,
        /// Category ids to look for (duplicates allowed).
        ids: Vec<u32>,
        /// All ids must be present, instead of any one.
        require_all: bool,
        /// Vote emitted on match.
        vote: Vote,
    },
    /// Votes `vote` when numeric column `column` is present and its value
    /// passes every bound (`Above`: `value >= t`, `Below`: `value <= t`);
    /// abstains otherwise, including on a column of another kind.
    NumericBounds {
        /// Source column.
        column: usize,
        /// Bounds the value must pass, compared exactly as written.
        bounds: Vec<(ThresholdDirection, f64)>,
        /// Vote emitted on match.
        vote: Vote,
    },
    /// Any other rule: the suite calls [`LabelingFunction::vote_frozen`].
    Opaque,
}

/// Votes when a categorical feature contains any (or all) of a set of ids.
/// This is the shape itemset mining produces (§4.3): a conjunction of
/// feature values over a *single* feature, minimizing LF correlation.
#[derive(Debug, Clone)]
pub struct CategoricalContainsLf {
    name: String,
    /// Source column (must be categorical).
    pub column: usize,
    /// Category ids to look for.
    pub ids: Vec<u32>,
    /// If true, all ids must be present; otherwise any suffices.
    pub require_all: bool,
    /// Vote emitted on match.
    pub on_match: Vote,
}

impl CategoricalContainsLf {
    /// Creates the LF with a generated name.
    pub fn new(column: usize, ids: Vec<u32>, require_all: bool, on_match: Vote) -> Self {
        let name = format!(
            "cat[{column}]{}{:?}=>{:?}",
            if require_all { "⊇" } else { "∩" },
            ids,
            on_match
        );
        Self { name, column, ids, require_all, on_match }
    }
}

impl LabelingFunction for CategoricalContainsLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn vote_frozen(&self, frozen: &FrozenTable<'_>, row: usize) -> Vote {
        self.vote_ids(frozen.categorical(row, self.column))
    }

    fn shape(&self) -> LfShape {
        LfShape::CategoricalContains {
            column: self.column,
            ids: self.ids.clone(),
            require_all: self.require_all,
            vote: self.on_match,
        }
    }
}

impl CategoricalContainsLf {
    #[inline]
    fn vote_ids(&self, present: Option<&[u32]>) -> Vote {
        let Some(present) = present else {
            return Vote::Abstain;
        };
        let hit = if self.require_all {
            self.ids.iter().all(|id| present.binary_search(id).is_ok())
        } else {
            self.ids.iter().any(|id| present.binary_search(id).is_ok())
        };
        if hit {
            self.on_match
        } else {
            Vote::Abstain
        }
    }
}

/// Threshold direction for numeric LFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdDirection {
    /// Match when `value >= threshold`.
    Above,
    /// Match when `value <= threshold`.
    Below,
}

/// Votes when a numeric feature crosses a threshold.
#[derive(Debug, Clone)]
pub struct NumericThresholdLf {
    name: String,
    /// Source column (must be numeric).
    pub column: usize,
    /// Threshold value.
    pub threshold: f64,
    /// Comparison direction.
    pub direction: ThresholdDirection,
    /// Vote emitted on match.
    pub on_match: Vote,
}

impl NumericThresholdLf {
    /// Creates the LF with a generated name.
    pub fn new(
        column: usize,
        threshold: f64,
        direction: ThresholdDirection,
        on_match: Vote,
    ) -> Self {
        let op = match direction {
            ThresholdDirection::Above => ">=",
            ThresholdDirection::Below => "<=",
        };
        let name = format!("num[{column}]{op}{threshold:.3}=>{on_match:?}");
        Self { name, column, threshold, direction, on_match }
    }
}

impl LabelingFunction for NumericThresholdLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn vote_frozen(&self, frozen: &FrozenTable<'_>, row: usize) -> Vote {
        self.vote_value(frozen.numeric(row, self.column))
    }

    fn shape(&self) -> LfShape {
        LfShape::NumericBounds {
            column: self.column,
            bounds: vec![(self.direction, self.threshold)],
            vote: self.on_match,
        }
    }
}

impl NumericThresholdLf {
    #[inline]
    fn vote_value(&self, value: Option<f64>) -> Vote {
        let Some(v) = value else {
            return Vote::Abstain;
        };
        let hit = match self.direction {
            ThresholdDirection::Above => v >= self.threshold,
            ThresholdDirection::Below => v <= self.threshold,
        };
        if hit {
            self.on_match
        } else {
            Vote::Abstain
        }
    }
}

/// One conjunct of an expert-style multi-feature LF.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Categorical feature contains the id.
    CatContains {
        /// Source column.
        column: usize,
        /// Category id.
        id: u32,
    },
    /// Numeric feature is at least `threshold`.
    NumAbove {
        /// Source column.
        column: usize,
        /// Threshold.
        threshold: f64,
    },
    /// Numeric feature is at most `threshold`.
    NumBelow {
        /// Source column.
        column: usize,
        /// Threshold.
        threshold: f64,
    },
}

impl Predicate {
    /// The column the predicate reads.
    fn column(&self) -> usize {
        match *self {
            Predicate::CatContains { column, .. }
            | Predicate::NumAbove { column, .. }
            | Predicate::NumBelow { column, .. } => column,
        }
    }

    fn holds_frozen(&self, frozen: &FrozenTable<'_>, row: usize) -> Option<bool> {
        match *self {
            Predicate::CatContains { column, id } => {
                frozen.categorical(row, column).map(|ids| ids.binary_search(&id).is_ok())
            }
            Predicate::NumAbove { column, threshold } => {
                frozen.numeric(row, column).map(|v| v >= threshold)
            }
            Predicate::NumBelow { column, threshold } => {
                frozen.numeric(row, column).map(|v| v <= threshold)
            }
        }
    }
}

/// A conjunction of predicates over multiple features — the shape human
/// domain experts write (§6.7.1). Abstains if any referenced feature is
/// missing.
#[derive(Debug, Clone)]
pub struct ConjunctionLf {
    name: String,
    /// Conjuncts that must all hold.
    pub predicates: Vec<Predicate>,
    /// Vote emitted when all hold.
    pub on_match: Vote,
}

impl ConjunctionLf {
    /// Creates a named conjunction LF.
    ///
    /// # Panics
    /// Panics if `predicates` is empty.
    pub fn new(name: impl Into<String>, predicates: Vec<Predicate>, on_match: Vote) -> Self {
        assert!(!predicates.is_empty(), "conjunction LF needs at least one predicate");
        Self { name: name.into(), predicates, on_match }
    }
}

impl LabelingFunction for ConjunctionLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn vote_frozen(&self, frozen: &FrozenTable<'_>, row: usize) -> Vote {
        for p in &self.predicates {
            match p.holds_frozen(frozen, row) {
                Some(true) => {}
                Some(false) | None => return Vote::Abstain,
            }
        }
        self.on_match
    }

    /// A conjunction over one column is a categorical require-all rule
    /// (all `CatContains`) or a numeric range (all `NumAbove`/`NumBelow`,
    /// the shape of a mined numeric bin); anything else is opaque.
    fn shape(&self) -> LfShape {
        let column = self.predicates[0].column();
        if self.predicates.iter().any(|p| p.column() != column) {
            return LfShape::Opaque;
        }
        let ids: Option<Vec<u32>> = self
            .predicates
            .iter()
            .map(|p| match *p {
                Predicate::CatContains { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        if let Some(ids) = ids {
            return LfShape::CategoricalContains {
                column,
                ids,
                require_all: true,
                vote: self.on_match,
            };
        }
        let bounds: Option<Vec<(ThresholdDirection, f64)>> = self
            .predicates
            .iter()
            .map(|p| match *p {
                Predicate::NumAbove { threshold, .. } => {
                    Some((ThresholdDirection::Above, threshold))
                }
                Predicate::NumBelow { threshold, .. } => {
                    Some((ThresholdDirection::Below, threshold))
                }
                Predicate::CatContains { .. } => None,
            })
            .collect();
        bounds.map_or(LfShape::Opaque, |bounds| LfShape::NumericBounds {
            column,
            bounds,
            vote: self.on_match,
        })
    }
}

/// An LF bound to precomputed per-row scores of one specific table — the
/// vehicle for label propagation output (§4.4): propagation runs offline
/// over the unlabeled pool and its scores become a threshold LF.
#[derive(Debug, Clone)]
pub struct BoundScoreLf {
    name: String,
    scores: Arc<[f64]>,
    /// Index into `scores` of this LF's row 0 (see [`BoundScoreLf::rebased`]).
    first_row: usize,
    /// Rows scoring at or above this vote positive.
    pub positive_threshold: f64,
    /// Rows scoring at or below this vote negative (must not exceed
    /// `positive_threshold`).
    pub negative_threshold: f64,
}

impl BoundScoreLf {
    /// Creates the LF over per-row scores.
    ///
    /// # Panics
    /// Panics if `negative_threshold > positive_threshold`.
    pub fn new(
        name: impl Into<String>,
        scores: impl Into<Arc<[f64]>>,
        positive_threshold: f64,
        negative_threshold: f64,
    ) -> Self {
        assert!(
            negative_threshold <= positive_threshold,
            "negative threshold {negative_threshold} exceeds positive {positive_threshold}"
        );
        Self {
            name: name.into(),
            scores: scores.into(),
            first_row: 0,
            positive_threshold,
            negative_threshold,
        }
    }

    /// The bound scores, from this LF's row 0 on.
    pub fn scores(&self) -> &[f64] {
        self.scores.get(self.first_row..).unwrap_or_default()
    }

    /// The same LF with its row 0 moved to this LF's row `first_row`:
    /// what votes on a table segment that starts at that row. Shares the
    /// scores instead of copying them.
    pub fn rebased(&self, first_row: usize) -> Self {
        Self {
            scores: Arc::clone(&self.scores),
            first_row: self.first_row + first_row,
            name: self.name.clone(),
            ..*self
        }
    }
}

impl LabelingFunction for BoundScoreLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn vote_frozen(&self, _frozen: &FrozenTable<'_>, row: usize) -> Vote {
        self.vote_row(row)
    }
}

impl BoundScoreLf {
    /// The vote for a bound row index, independent of any table — the
    /// scores were fixed at construction, so the sharded curation driver
    /// can vote on streamed segments without the pool table resident.
    /// Out-of-range rows abstain.
    #[inline]
    pub fn vote_row(&self, row: usize) -> Vote {
        match self.scores.get(self.first_row + row) {
            Some(&s) if s >= self.positive_threshold => Vote::Positive,
            Some(&s) if s <= self.negative_threshold => Vote::Negative,
            _ => Vote::Abstain,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, ServingMode,
        Vocabulary,
    };

    use super::*;

    fn table() -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::categorical(
                "topic",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["a", "b", "c", "d"]),
            ),
            FeatureDef::numeric("reports", FeatureSet::A, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        t.push_row(&[
            FeatureValue::Categorical(CatSet::from_ids(vec![0, 2])),
            FeatureValue::Numeric(5.0),
        ]);
        t.push_row(&[FeatureValue::Categorical(CatSet::single(3)), FeatureValue::Numeric(1.0)]);
        t.push_row(&[FeatureValue::Missing, FeatureValue::Missing]);
        t
    }

    #[test]
    fn vote_i8_round_trip() {
        for v in [Vote::Positive, Vote::Negative, Vote::Abstain] {
            assert_eq!(Vote::from_i8(v.as_i8()), v);
        }
    }

    #[test]
    #[should_panic(expected = "invalid vote encoding")]
    fn vote_from_bad_i8_panics() {
        Vote::from_i8(3);
    }

    #[test]
    fn categorical_any_match() {
        let table = table();
        let t = FrozenTable::freeze(&table);
        let lf = CategoricalContainsLf::new(0, vec![2, 3], false, Vote::Positive);
        assert_eq!(lf.vote_frozen(&t, 0), Vote::Positive);
        assert_eq!(lf.vote_frozen(&t, 1), Vote::Positive);
        let lf_miss = CategoricalContainsLf::new(0, vec![1], false, Vote::Positive);
        assert_eq!(lf_miss.vote_frozen(&t, 0), Vote::Abstain);
    }

    #[test]
    fn categorical_all_match() {
        let table = table();
        let t = FrozenTable::freeze(&table);
        let lf = CategoricalContainsLf::new(0, vec![0, 2], true, Vote::Negative);
        assert_eq!(lf.vote_frozen(&t, 0), Vote::Negative);
        assert_eq!(lf.vote_frozen(&t, 1), Vote::Abstain);
    }

    #[test]
    fn lfs_abstain_on_missing() {
        let table = table();
        let t = FrozenTable::freeze(&table);
        let c = CategoricalContainsLf::new(0, vec![0], false, Vote::Positive);
        let n = NumericThresholdLf::new(1, 0.0, ThresholdDirection::Above, Vote::Positive);
        assert_eq!(c.vote_frozen(&t, 2), Vote::Abstain);
        assert_eq!(n.vote_frozen(&t, 2), Vote::Abstain);
    }

    #[test]
    fn numeric_threshold_directions() {
        let table = table();
        let t = FrozenTable::freeze(&table);
        let above = NumericThresholdLf::new(1, 3.0, ThresholdDirection::Above, Vote::Positive);
        let below = NumericThresholdLf::new(1, 3.0, ThresholdDirection::Below, Vote::Negative);
        assert_eq!(above.vote_frozen(&t, 0), Vote::Positive);
        assert_eq!(above.vote_frozen(&t, 1), Vote::Abstain);
        assert_eq!(below.vote_frozen(&t, 0), Vote::Abstain);
        assert_eq!(below.vote_frozen(&t, 1), Vote::Negative);
    }

    #[test]
    fn conjunction_requires_all_and_abstains_on_missing() {
        let table = table();
        let t = FrozenTable::freeze(&table);
        let lf = ConjunctionLf::new(
            "expert",
            vec![
                Predicate::CatContains { column: 0, id: 2 },
                Predicate::NumAbove { column: 1, threshold: 4.0 },
            ],
            Vote::Positive,
        );
        assert_eq!(lf.vote_frozen(&t, 0), Vote::Positive);
        assert_eq!(lf.vote_frozen(&t, 1), Vote::Abstain);
        assert_eq!(lf.vote_frozen(&t, 2), Vote::Abstain);
    }

    #[test]
    #[should_panic(expected = "at least one predicate")]
    fn empty_conjunction_rejected() {
        ConjunctionLf::new("bad", vec![], Vote::Positive);
    }

    #[test]
    fn bound_score_lf_thresholds() {
        let table = table();
        let t = FrozenTable::freeze(&table);
        let lf = BoundScoreLf::new("prop", vec![0.9, 0.5, 0.05], 0.8, 0.1);
        assert_eq!(lf.vote_frozen(&t, 0), Vote::Positive);
        assert_eq!(lf.vote_frozen(&t, 1), Vote::Abstain);
        assert_eq!(lf.vote_frozen(&t, 2), Vote::Negative);
        // Out-of-range rows abstain rather than panic.
        assert_eq!(lf.vote_frozen(&t, 99), Vote::Abstain);
    }

    #[test]
    #[should_panic(expected = "exceeds positive")]
    fn bound_score_lf_rejects_inverted_thresholds() {
        BoundScoreLf::new("bad", vec![], 0.1, 0.8);
    }
}
