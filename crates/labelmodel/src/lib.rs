//! Weak supervision substrate (paper §4, Snorkel/Snorkel-Drybell style).
//!
//! Labeling functions ([`lf`]) vote positive / negative / abstain over rows
//! of the common feature space. A suite is compiled once into per-column
//! postings ([`CompiledSuite`]), and its votes are collected into a
//! [`LabelMatrix`] (or, for a pool, straight into [`VotePatterns`]). A
//! [`GenerativeModel`] uses the votes' per-LF agreement structure to
//! estimate LF accuracies and emit *probabilistic labels* — the training signal for
//! the discriminative end model. [`diagnostics`] computes the paper's LF
//! quality metrics (coverage, precision, recall, conflict) against a
//! labeled development set. The models fit and predict over
//! [`VotePatterns`], the distinct vote rows with their counts, since a
//! row's posterior depends only on its votes.

pub mod anchored;
pub mod compiled;
pub mod diagnostics;
pub mod generative;
pub mod lf;
pub mod matrix;
pub mod patterns;

pub use anchored::{AnchoredModel, LfRates, RateCounts};
pub use compiled::CompiledSuite;
pub use diagnostics::{evaluate_lfs, filter_lfs, LfReport, LfSummary};
pub use generative::{majority_vote, EmMoments, GenerativeConfig, GenerativeModel, WarmStart};
pub use lf::{
    BoundScoreLf, CategoricalContainsLf, ConjunctionLf, LabelingFunction, LfShape,
    NumericThresholdLf, Predicate, ThresholdDirection, Vote,
};
pub use matrix::{LabelMatrix, VoteCounts, VoteStats};
pub use patterns::{VotePatterns, APPEND_BLOCK_ROWS};
