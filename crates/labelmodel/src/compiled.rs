//! The compiled LF suite: an LF suite turned once into per-column postings,
//! so a row's votes cost O(its category ids + fired votes) instead of one
//! `vote_frozen` call per LF.
//!
//! Mined LFs have two shapes (§4.3): a categorical itemset over one
//! feature and a numeric bin over one column. [`CompiledSuite::compile`]
//! reads each LF's [`LabelingFunction::shape`] and files it under its
//! column:
//!
//! - a **categorical column** maps each category id to the LFs that look
//!   for it (CSR over ids, a `Vec` lookup, never a hashed one). A row walks
//!   its own sorted ids, bumps a hit count per LF it meets, and an LF votes
//!   when its count reaches the distinct ids it needs (all of them, or one
//!   for any-of). Only the LFs a row touched are reset.
//! - a **numeric column** folds each rule's `>=`/`<=` bounds into one
//!   closed range and compares the row's value against it, which passes
//!   exactly the values every bound passes.
//! - every other LF (multi-column expert conjunctions, [`crate::BoundScoreLf`])
//!   is **opaque** and is asked through `vote_frozen`.
//!
//! A missing column, or one of another kind, emits nothing: the abstain
//! rule. All votes land in one dense row in column order, so the output is
//! bit-identical to calling `vote_frozen` for every (row, LF) cell.

use std::ops::Range;

use cm_featurespace::{FrozenColumn, FrozenTable};
use cm_par::ParConfig;

use crate::lf::{LabelingFunction, LfShape, ThresholdDirection};
use crate::matrix::{MIN_ROWS_PER_CHUNK, PAR_THRESHOLD};

/// An LF suite compiled into per-column postings. Compile once, then
/// evaluate any number of tables through [`crate::LabelMatrix::apply_compiled`]
/// or [`crate::VotePatterns::extend_compiled`], passing the LFs it was
/// compiled from. Opaque columns may be replaced by other opaque LFs
/// between calls (a [`crate::BoundScoreLf`] rebased to a segment).
///
/// ```
/// use cm_labelmodel::{CategoricalContainsLf, CompiledSuite, LabelingFunction, Vote};
/// let lfs: Vec<Box<dyn LabelingFunction>> =
///     vec![Box::new(CategoricalContainsLf::new(0, vec![3, 5], true, Vote::Positive))];
/// let suite = CompiledSuite::compile(&lfs);
/// assert_eq!((suite.n_lfs(), suite.n_opaque()), (1, 0));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSuite {
    /// Per LF: its encoded vote and the distinct category ids it needs
    /// (categorical LFs only).
    lfs: Vec<CompiledLf>,
    /// Categorical columns, in column order.
    cat: Vec<CatPostings>,
    /// Numeric columns, in column order.
    num: Vec<NumRules>,
    /// LFs evaluated through `vote_frozen`, in column order.
    opaque: Vec<usize>,
}

#[derive(Debug, Clone, Copy, Default)]
struct CompiledLf {
    vote: i8,
    need: u32,
}

/// One categorical column's postings.
#[derive(Debug, Clone)]
struct CatPostings {
    column: usize,
    /// `starts[id]..starts[id + 1]` indexes `lfs` for category `id`.
    starts: Vec<u32>,
    /// LF indices grouped by category id, ascending within an id.
    lfs: Vec<u32>,
}

impl CatPostings {
    #[inline]
    fn postings(&self, id: u32) -> &[u32] {
        let id = id as usize;
        match (self.starts.get(id), self.starts.get(id + 1)) {
            (Some(&s), Some(&e)) => &self.lfs[s as usize..e as usize],
            _ => &[],
        }
    }
}

/// One numeric column's rules.
#[derive(Debug, Clone)]
struct NumRules {
    column: usize,
    rules: Vec<NumRule>,
}

/// A numeric rule's bounds as one closed range: a value passes when
/// `lo <= v && v <= hi`. Lower bounds fold by `max` and upper bounds by
/// `min`, which is exact for non-NaN thresholds (±∞ included); a missing
/// side is ±∞, which every non-NaN value passes; and a NaN value fails the
/// range as it fails any bound. A NaN threshold fails every value, so its
/// rule never votes and is not compiled.
#[derive(Debug, Clone, Copy)]
struct NumRule {
    lf: u32,
    vote: i8,
    lo: f64,
    hi: f64,
}

impl NumRule {
    /// The range of `bounds`; `None` if no value passes them all.
    fn new(lf: u32, vote: i8, bounds: &[(ThresholdDirection, f64)]) -> Option<NumRule> {
        let mut rule = NumRule { lf, vote, lo: f64::NEG_INFINITY, hi: f64::INFINITY };
        for &(dir, t) in bounds {
            if t.is_nan() {
                return None;
            }
            match dir {
                ThresholdDirection::Above => rule.lo = rule.lo.max(t),
                ThresholdDirection::Below => rule.hi = rule.hi.min(t),
            }
        }
        Some(rule)
    }
}

impl CompiledSuite {
    /// Compiles `lfs` by their [`LabelingFunction::shape`]. The two shapes
    /// that vote on a present column whatever its value (a require-all
    /// over no ids, bounds over no thresholds) are left opaque.
    ///
    /// # Panics
    /// Panics if the suite has more than `u32::MAX` LFs.
    pub fn compile(lfs: &[Box<dyn LabelingFunction>]) -> Self {
        assert!(u32::try_from(lfs.len()).is_ok(), "LF suite too large to compile");
        let mut compiled = vec![CompiledLf::default(); lfs.len()];
        // (column, (id, LF) pairs), sorted by column below.
        let mut cat: Vec<(usize, Vec<(u32, u32)>)> = Vec::new();
        let mut num: Vec<NumRules> = Vec::new();
        let mut opaque = Vec::new();
        for (j, lf) in lfs.iter().enumerate() {
            match lf.shape() {
                LfShape::CategoricalContains { column, mut ids, require_all, vote }
                    if !(require_all && ids.is_empty()) =>
                {
                    ids.sort_unstable();
                    ids.dedup();
                    let need = if require_all { ids.len() } else { 1 };
                    compiled[j] = CompiledLf { vote: vote.as_i8(), need: need as u32 };
                    let at = match cat.iter().position(|c| c.0 == column) {
                        Some(at) => at,
                        None => {
                            cat.push((column, Vec::new()));
                            cat.len() - 1
                        }
                    };
                    cat[at].1.extend(ids.iter().map(|&id| (id, j as u32)));
                }
                LfShape::NumericBounds { column, bounds, vote } if !bounds.is_empty() => {
                    let at = match num.iter().position(|c| c.column == column) {
                        Some(at) => at,
                        None => {
                            num.push(NumRules { column, rules: Vec::new() });
                            num.len() - 1
                        }
                    };
                    num[at].rules.extend(NumRule::new(j as u32, vote.as_i8(), &bounds));
                }
                _ => opaque.push(j),
            }
        }
        cat.sort_by_key(|c| c.0);
        num.sort_by_key(|c| c.column);
        let cat = cat
            .into_iter()
            .map(|(column, mut pairs)| {
                pairs.sort_unstable();
                let n_ids = pairs.last().map_or(0, |&(id, _)| id as usize + 1);
                let mut starts = vec![0u32; n_ids + 1];
                for &(id, _) in &pairs {
                    starts[id as usize + 1] += 1;
                }
                for i in 0..n_ids {
                    starts[i + 1] += starts[i];
                }
                let lfs = pairs.into_iter().map(|(_, j)| j).collect();
                CatPostings { column, starts, lfs }
            })
            .collect();
        CompiledSuite { lfs: compiled, cat, num, opaque }
    }

    /// LF columns.
    pub fn n_lfs(&self) -> usize {
        self.lfs.len()
    }

    /// LFs evaluated through `vote_frozen`.
    pub fn n_opaque(&self) -> usize {
        self.opaque.len()
    }

    /// Writes the votes of `rows` of `frozen` into `votes` (zeroed, one
    /// row of [`CompiledSuite::n_lfs`] cells per row) and returns the
    /// postings visited.
    pub(crate) fn fill(
        &self,
        frozen: &FrozenTable<'_>,
        lfs: &[Box<dyn LabelingFunction>],
        rows: Range<usize>,
        votes: &mut [i8],
    ) -> u64 {
        let n = self.n_lfs();
        assert_eq!(lfs.len(), n, "LF suite does not match its compiled form");
        debug_assert_eq!(votes.len(), rows.len() * n);
        if n == 0 || rows.is_empty() {
            return 0;
        }
        // Column by column over the rows, so each pass streams one column;
        // every LF writes only its own cell, so the pass order is free.
        let mut visited = 0u64;
        let mut scratch = HitCounts { hits: vec![0; n], touched: Vec::new() };
        for postings in &self.cat {
            let FrozenColumn::Categorical { offsets, ids, present } = frozen.col(postings.column)
            else {
                continue;
            };
            for (r, out) in rows.clone().zip(votes.chunks_exact_mut(n)) {
                if present.get(r) {
                    let row_ids = &ids[offsets[r] as usize..offsets[r + 1] as usize];
                    visited += self.cat_row(postings, row_ids, out, &mut scratch);
                }
            }
        }
        for rules in &self.num {
            let FrozenColumn::Numeric { values, present } = frozen.col(rules.column) else {
                continue;
            };
            for (r, out) in rows.clone().zip(votes.chunks_exact_mut(n)) {
                if !present.get(r) {
                    continue;
                }
                let v = values[r];
                for rule in &rules.rules {
                    // Each rule owns its (zeroed) cell, so an unconditional
                    // write of 0 or the vote is exact, with no branch on
                    // which bin the value falls into.
                    out[rule.lf as usize] = rule.vote * i8::from((rule.lo <= v) & (v <= rule.hi));
                }
            }
        }
        if !self.opaque.is_empty() {
            for (r, out) in rows.zip(votes.chunks_exact_mut(n)) {
                for &j in &self.opaque {
                    out[j] = lfs[j].vote_frozen(frozen, r).as_i8();
                }
            }
        }
        visited
    }

    /// Votes one row's categorical column, whose sorted ids are `ids`, and
    /// returns the postings visited.
    #[inline]
    fn cat_row(
        &self,
        postings: &CatPostings,
        ids: &[u32],
        out: &mut [i8],
        scratch: &mut HitCounts,
    ) -> u64 {
        let mut visited = 0u64;
        // Row ids are distinct (a `CatSet`), so each meets an LF once.
        for &id in ids {
            let hit = postings.postings(id);
            visited += hit.len() as u64;
            for &j in hit {
                let lf = self.lfs[j as usize];
                if lf.need == 1 {
                    out[j as usize] = lf.vote;
                    continue;
                }
                let h = &mut scratch.hits[j as usize];
                if *h == 0 {
                    scratch.touched.push(j);
                }
                *h += 1;
                if *h == lf.need {
                    out[j as usize] = lf.vote;
                }
            }
        }
        if !scratch.touched.is_empty() {
            for j in scratch.touched.drain(..) {
                scratch.hits[j as usize] = 0;
            }
        }
        visited
    }

    /// The votes of `rows` of `frozen` in row chunks of the `cm-par` plan
    /// (evaluated in parallel when the work is large enough), returned in
    /// row order with each chunk's rows and postings visited.
    pub(crate) fn eval_chunks(
        &self,
        frozen: &FrozenTable<'_>,
        lfs: &[Box<dyn LabelingFunction>],
        rows: Range<usize>,
        par: &ParConfig,
    ) -> Vec<(Range<usize>, Vec<i8>, u64)> {
        let n = self.n_lfs();
        let par = if rows.len().saturating_mul(n) < PAR_THRESHOLD {
            ParConfig::serial()
        } else {
            par.clone()
        };
        let first = rows.start;
        let res =
            cm_par::par_map_chunks(&par.with_min_chunk(MIN_ROWS_PER_CHUNK), rows.len(), |chunk| {
                let chunk = first + chunk.start..first + chunk.end;
                let mut votes = vec![0i8; chunk.len() * n];
                let visited = self.fill(frozen, lfs, chunk.clone(), &mut votes);
                (chunk, votes, visited)
            });
        match res {
            Ok(chunks) => chunks,
            Err(e) => e.resume(),
        }
    }
}

/// Per-LF hit counts of the row being voted, reset after each
/// categorical column of each row (only the LFs it touched).
struct HitCounts {
    /// Distinct ids each LF has met.
    hits: Vec<u32>,
    /// LFs with a nonzero count.
    touched: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, ServingMode,
        Vocabulary,
    };

    use super::*;
    use crate::lf::{
        BoundScoreLf, CategoricalContainsLf, ConjunctionLf, NumericThresholdLf, Predicate, Vote,
    };

    fn table() -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::categorical(
                "c",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["a", "b", "c", "d"]),
            ),
            FeatureDef::numeric("x", FeatureSet::A, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        let cat = |ids: Vec<u32>| FeatureValue::Categorical(CatSet::from_ids(ids));
        t.push_row(&[cat(vec![0, 2]), FeatureValue::Numeric(5.0)]);
        t.push_row(&[cat(vec![3]), FeatureValue::Numeric(1.0)]);
        t.push_row(&[FeatureValue::Missing, FeatureValue::Missing]);
        t.push_row(&[cat(vec![]), FeatureValue::Numeric(f64::NAN)]);
        t.push_row(&[cat(vec![0, 1, 2, 3]), FeatureValue::Numeric(f64::INFINITY)]);
        t
    }

    fn suite() -> Vec<Box<dyn LabelingFunction>> {
        vec![
            Box::new(CategoricalContainsLf::new(0, vec![2, 0, 2], true, Vote::Positive)),
            Box::new(CategoricalContainsLf::new(0, vec![3, 1], false, Vote::Negative)),
            Box::new(CategoricalContainsLf::new(0, vec![], true, Vote::Negative)),
            Box::new(CategoricalContainsLf::new(0, vec![], false, Vote::Positive)),
            Box::new(CategoricalContainsLf::new(1, vec![0], false, Vote::Positive)),
            Box::new(NumericThresholdLf::new(1, 2.0, ThresholdDirection::Above, Vote::Positive)),
            Box::new(NumericThresholdLf::new(0, 2.0, ThresholdDirection::Below, Vote::Positive)),
            Box::new(ConjunctionLf::new(
                "bin",
                vec![
                    Predicate::NumAbove { column: 1, threshold: 0.5 },
                    Predicate::NumBelow { column: 1, threshold: 5.0 },
                ],
                Vote::Negative,
            )),
            Box::new(ConjunctionLf::new(
                "mixed",
                vec![
                    Predicate::CatContains { column: 0, id: 0 },
                    Predicate::NumAbove { column: 1, threshold: 4.0 },
                ],
                Vote::Positive,
            )),
            Box::new(BoundScoreLf::new("prop", vec![0.9, 0.5, 0.05, 0.9, 0.0], 0.8, 0.1)),
        ]
    }

    fn rowwise(t: &FeatureTable, lfs: &[Box<dyn LabelingFunction>]) -> Vec<i8> {
        let f = FrozenTable::freeze(t);
        let mut votes = Vec::new();
        for r in 0..t.len() {
            votes.extend(lfs.iter().map(|lf| lf.vote_frozen(&f, r).as_i8()));
        }
        votes
    }

    #[test]
    fn shapes_compile_to_postings_rules_and_opaque_columns() {
        let suite = CompiledSuite::compile(&suite());
        assert_eq!(suite.n_lfs(), 10);
        // The require-all over no ids, the mixed conjunction and the bound
        // scores stay opaque.
        assert_eq!(suite.opaque, vec![2, 8, 9]);
        assert_eq!(suite.cat.iter().map(|c| c.column).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(suite.num.iter().map(|c| c.column).collect::<Vec<_>>(), vec![0, 1]);
        // Duplicate ids count once: LF 0 needs {0, 2}.
        assert_eq!(suite.lfs[0].need, 2);
        assert_eq!(suite.cat[0].postings(0), &[0]);
        assert_eq!(suite.cat[0].postings(2), &[0]);
        assert_eq!(suite.cat[0].postings(3), &[1]);
        assert_eq!(suite.cat[0].postings(9), &[] as &[u32]);
    }

    #[test]
    fn compiled_fill_matches_vote_frozen_on_every_cell() {
        let t = table();
        let lfs = suite();
        let compiled = CompiledSuite::compile(&lfs);
        let frozen = FrozenTable::freeze(&t);
        let mut votes = vec![0i8; t.len() * lfs.len()];
        let visited = compiled.fill(&frozen, &lfs, 0..t.len(), &mut votes);
        assert_eq!(votes, rowwise(&t, &lfs));
        // Row 0 meets ids {0, 2}: one posting each. Row 1 meets id 3 (one
        // posting). Row 4 meets ids 0..=3: 1 + 1 + 1 + 1.
        assert_eq!(visited, 2 + 1 + 4);
        // Any split into chunks visits the same postings.
        let chunks = compiled.eval_chunks(&frozen, &lfs, 1..t.len(), &ParConfig::threads(2));
        let tail: Vec<i8> = chunks.iter().flat_map(|(_, v, _)| v.clone()).collect();
        assert_eq!(tail, votes[lfs.len()..]);
        assert_eq!(chunks.iter().map(|c| c.2).sum::<u64>(), visited - 2);
    }

    #[test]
    fn empty_suite_and_empty_table_emit_nothing() {
        let t = table();
        let none: Vec<Box<dyn LabelingFunction>> = Vec::new();
        let compiled = CompiledSuite::compile(&none);
        let frozen = FrozenTable::freeze(&t);
        assert_eq!(compiled.fill(&frozen, &none, 0..t.len(), &mut []), 0);
        let lfs = suite();
        let compiled = CompiledSuite::compile(&lfs);
        assert_eq!(compiled.fill(&frozen, &lfs, 2..2, &mut []), 0);
    }

    #[test]
    #[should_panic(expected = "does not match its compiled form")]
    fn fill_rejects_a_different_suite() {
        let t = table();
        let lfs = suite();
        let compiled = CompiledSuite::compile(&lfs[..3]);
        let frozen = FrozenTable::freeze(&t);
        compiled.fill(&frozen, &lfs, 0..1, &mut [0; 10]);
    }
}
