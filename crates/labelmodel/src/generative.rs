//! The generative label model: estimates LF accuracies from agreement
//! structure and produces probabilistic labels (§4.1, step 3).
//!
//! This is the conditionally-independent Snorkel model (the one Snorkel
//! Drybell deploys): each LF has an abstain propensity and an accuracy;
//! given the true label, votes are independent. Parameters are fitted with
//! EM; probabilistic labels are the E-step posteriors at convergence.

use cm_linalg::StableSum;
use cm_par::ParConfig;

use crate::matrix::LabelMatrix;
use crate::patterns::VotePatterns;

/// Below this many pattern cells (`distinct patterns * LFs`) the EM fit
/// and predict stay on the serial code path regardless of the requested
/// thread count, so small fits never pay spawn overhead and path selection
/// depends only on input size.
const EM_PAR_THRESHOLD: usize = 50_000;

/// Minimum patterns per chunk for the parallel EM steps. Part of the chunk
/// plan, so it must not depend on the thread count. Each chunk zeroes and
/// merges one [`EmMoments`] (about a kilobyte per LF), which costs as much
/// as folding a few hundred patterns, so chunks stay large.
const EM_MIN_PATTERNS_PER_CHUNK: usize = 2048;

/// Configuration for [`GenerativeModel::fit`].
#[derive(Debug, Clone)]
pub struct GenerativeConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on mean absolute posterior change.
    pub tol: f64,
    /// Class prior `P(y = 1)`. `Some(p)` keeps it fixed (the paper knows
    /// task positive rates from the old modality); `None` re-estimates it
    /// each M-step.
    pub class_prior: Option<f64>,
    /// Initial LF accuracy.
    pub init_accuracy: f64,
    /// Accuracy clamp range, enforcing Snorkel's better-than-random
    /// assumption and numeric safety.
    pub accuracy_bounds: (f64, f64),
}

impl Default for GenerativeConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-6,
            class_prior: None,
            init_accuracy: 0.7,
            accuracy_bounds: (0.55, 0.995),
        }
    }
}

/// Mergeable sufficient statistics of one EM iteration: per-LF agreement
/// mass and vote totals (the M-step numerators/denominators), plus the
/// posterior sum (prior update) and absolute posterior delta (convergence).
///
/// Float masses live in [`StableSum`] superaccumulators and totals are
/// integers, so `merge` is exact — associative and commutative. Folding
/// per-chunk or per-shard moments in any order and then rendering yields
/// bit-identical parameters to a whole-matrix pass, which is what lets the
/// sharded curation layer fit the label model out of core.
#[derive(Debug, Clone)]
pub struct EmMoments {
    agree: Vec<StableSum>,
    total: Vec<u64>,
    delta: StableSum,
    posterior_sum: StableSum,
    n_rows: u64,
}

impl EmMoments {
    /// An empty accumulator for `n_lfs` labeling functions.
    pub fn new(n_lfs: usize) -> Self {
        Self {
            agree: vec![StableSum::new(); n_lfs],
            total: vec![0; n_lfs],
            delta: StableSum::new(),
            posterior_sum: StableSum::new(),
            n_rows: 0,
        }
    }

    /// Folds `count` rows that share the vote pattern `votes` into the
    /// moments: `fresh` is this iteration's E-step posterior for those
    /// rows, `previous` the posterior it replaces. Every float lands
    /// through [`StableSum::add_n`], so folding a pattern once with its
    /// count is bit-identical to folding each of its rows.
    ///
    /// # Panics
    /// Panics if the vote width differs from the accumulator's LF count.
    pub fn observe_pattern(&mut self, votes: &[i8], count: u64, fresh: f64, previous: f64) {
        assert_eq!(votes.len(), self.total.len(), "LF count mismatch");
        let cells = votes.iter().enumerate().filter(|&(_, &v)| v != 0);
        self.observe_cells(cells.map(|(j, &v)| (j as u32, v)), count, fresh, previous);
    }

    /// [`EmMoments::observe_pattern`] over a pattern's non-abstain
    /// `(LF, vote)` cells in column order; abstains fold nothing.
    fn observe_cells(
        &mut self,
        cells: impl IntoIterator<Item = (u32, i8)>,
        count: u64,
        fresh: f64,
        previous: f64,
    ) {
        self.n_rows += count;
        self.delta.add_n((fresh - previous).abs(), count);
        self.posterior_sum.add_n(fresh, count);
        for (j, v) in cells {
            self.total[j as usize] += count;
            self.agree[j as usize].add_n(if v > 0 { fresh } else { 1.0 - fresh }, count);
        }
    }

    /// Folds one row, deposit by deposit: the test oracle of
    /// [`EmMoments::observe_pattern`].
    #[cfg(test)]
    fn observe_row(&mut self, votes: &[i8], fresh: f64, previous: f64) {
        assert_eq!(votes.len(), self.total.len(), "LF count mismatch");
        self.n_rows += 1;
        self.delta.add((fresh - previous).abs());
        self.posterior_sum.add(fresh);
        for (j, &v) in votes.iter().enumerate() {
            if v != 0 {
                self.total[j] += 1;
                self.agree[j].add(if v > 0 { fresh } else { 1.0 - fresh });
            }
        }
    }

    /// Exact merge of another accumulator into this one.
    ///
    /// # Panics
    /// Panics if the LF counts differ.
    pub fn merge(&mut self, other: &EmMoments) {
        assert_eq!(self.total.len(), other.total.len(), "LF count mismatch");
        for (a, b) in self.agree.iter_mut().zip(&other.agree) {
            a.merge(b);
        }
        for (t, o) in self.total.iter_mut().zip(&other.total) {
            *t += *o;
        }
        self.delta.merge(&other.delta);
        self.posterior_sum.merge(&other.posterior_sum);
        self.n_rows += other.n_rows;
    }

    /// Rows folded in so far.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// The M-step accuracy estimate for LF `j`, or `None` if it abstained
    /// everywhere (its accuracy then stays at the previous value).
    pub fn accuracy(&self, j: usize) -> Option<f64> {
        (self.total[j] > 0).then(|| self.agree[j].value() / self.total[j] as f64)
    }

    /// Mean posterior (the re-estimated class prior), or `None` on zero rows.
    pub fn mean_posterior(&self) -> Option<f64> {
        (self.n_rows > 0).then(|| self.posterior_sum.value() / self.n_rows as f64)
    }

    /// Mean absolute posterior change this iteration (convergence metric),
    /// or `None` on zero rows.
    pub fn mean_delta(&self) -> Option<f64> {
        (self.n_rows > 0).then(|| self.delta.value() / self.n_rows as f64)
    }
}

/// A fitted generative label model.
#[derive(Debug, Clone)]
pub struct GenerativeModel {
    accuracies: Vec<f64>,
    class_prior: f64,
    iterations: usize,
}

/// Parameters carried from one fit into the next: the warm start of a
/// mini-batch EM refit in the incremental curation loop. Seeding the next
/// fit from the previous posterior's parameters means a handful of refit
/// iterations keep tracking the vote distribution instead of re-deriving
/// it from scratch on every arrival batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Per-LF accuracies from the previous fit (clamped to the new fit's
    /// accuracy bounds before use).
    pub accuracies: Vec<f64>,
    /// Class prior from the previous fit.
    pub class_prior: f64,
}

impl GenerativeModel {
    /// Fits the model on a label matrix with EM: the matrix folds into its [`VotePatterns`] table and the fit runs
    /// over the patterns ([`GenerativeModel::fit_patterns`]).
    ///
    /// Produces bit-identical parameters and posteriors for any thread
    /// count: every float reduction lives in an exact [`StableSum`]
    /// superaccumulator (via [`EmMoments`]), so neither the chunk plan nor
    /// the worker count can perturb a single bit.
    ///
    /// # Panics
    /// Panics if the matrix has no LFs.
    pub fn fit(matrix: &LabelMatrix, config: &GenerativeConfig, par: &ParConfig) -> Self {
        Self::fit_patterns(&VotePatterns::from_matrix(matrix), config, None, par)
    }

    /// Fits the model over a vote-pattern table: the kernel behind every
    /// fit. Each EM iteration makes one fused E+M pass over the distinct
    /// patterns. A pattern's posterior depends only on its votes and the
    /// current parameters, and every row starts at `0.5`, so all rows of a
    /// pattern carry the same posterior at every iteration; folding the
    /// pattern once with its row count ([`EmMoments::observe_pattern`])
    /// deposits exactly what folding each row deposits. Parameters, iteration
    /// count and posteriors are therefore bit-identical to a row-by-row
    /// fit, at any thread count.
    ///
    /// # Panics
    /// Panics if the table has no LFs, the accuracy bounds are invalid, or
    /// the warm start's accuracy count differs from the LF count.
    pub fn fit_patterns(
        patterns: &VotePatterns,
        config: &GenerativeConfig,
        warm: Option<&WarmStart>,
        par: &ParConfig,
    ) -> Self {
        let n_lfs = patterns.n_lfs();
        assert!(n_lfs > 0, "cannot fit a generative model with zero LFs");
        let (lo, hi) = config.accuracy_bounds;
        assert!(lo > 0.5 && hi < 1.0 && lo < hi, "invalid accuracy bounds");
        let mut accuracies = match warm {
            Some(w) => {
                assert_eq!(w.accuracies.len(), n_lfs, "warm start LF count mismatch");
                w.accuracies.iter().map(|a| a.clamp(lo, hi)).collect()
            }
            None => vec![config.init_accuracy.clamp(lo, hi); n_lfs],
        };
        let mut prior = config
            .class_prior
            .or(warm.map(|w| w.class_prior))
            .unwrap_or(0.5)
            .clamp(1e-4, 1.0 - 1e-4);

        let distinct = patterns.distinct();
        let counts = patterns.counts();
        let cells = VoteCells::new(distinct);
        let par = em_plan(distinct, par);
        let mut posteriors = vec![0.5f64; distinct.n_rows()];
        let mut iterations = 0;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            let kernel = PosteriorKernel::new(&accuracies, prior);
            // Fused E+M pass: per-chunk fresh posteriors plus moment
            // partials, merged exactly.
            let chunks = cm_par::par_map_chunks(&par, distinct.n_rows(), |range| {
                let mut fresh = Vec::with_capacity(range.len());
                let mut part = EmMoments::new(n_lfs);
                for p in range {
                    let q = kernel.posterior(cells.of(p));
                    part.observe_cells(cells.of(p).iter().copied(), counts[p], q, posteriors[p]);
                    fresh.push(q);
                }
                (fresh, part)
            })
            .unwrap_or_else(|e| e.resume());
            let mut moments = EmMoments::new(n_lfs);
            let mut offset = 0usize;
            for (fresh, part) in chunks {
                posteriors[offset..offset + fresh.len()].copy_from_slice(&fresh);
                offset += fresh.len();
                moments.merge(&part);
            }
            for (j, acc) in accuracies.iter_mut().enumerate() {
                if let Some(a) = moments.accuracy(j) {
                    *acc = a.clamp(lo, hi);
                }
            }
            if config.class_prior.is_none() {
                if let Some(p) = moments.mean_posterior() {
                    prior = p.clamp(1e-4, 1.0 - 1e-4);
                }
            }
            let delta = moments.mean_delta().unwrap_or(0.0);
            if delta < config.tol && iter > 0 {
                break;
            }
        }
        Self { accuracies, class_prior: prior, iterations }
    }

    /// Estimated LF accuracies.
    pub fn accuracies(&self) -> &[f64] {
        &self.accuracies
    }

    /// Estimated (or fixed) class prior.
    pub fn class_prior(&self) -> f64 {
        self.class_prior
    }

    /// EM iterations run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The fitted parameters, packaged to seed the next refit.
    pub fn warm_start(&self) -> WarmStart {
        WarmStart { accuracies: self.accuracies.clone(), class_prior: self.class_prior }
    }

    /// Reconstruct a model from previously fitted parameters (checkpoint
    /// restore). The model predicts exactly as the original did.
    pub fn from_params(accuracies: Vec<f64>, class_prior: f64, iterations: usize) -> Self {
        assert!(!accuracies.is_empty(), "model needs at least one LF accuracy");
        GenerativeModel { accuracies, class_prior, iterations }
    }

    /// Probabilistic labels for a (possibly different) label matrix:
    /// [`GenerativeModel::predict_patterns`] over the matrix's pattern
    /// table, scattered back to rows. Rows where every LF abstains get the
    /// class prior.
    ///
    /// # Panics
    /// Panics if the LF count differs from the fitted matrix.
    pub fn predict(&self, matrix: &LabelMatrix, par: &ParConfig) -> Vec<f64> {
        assert_eq!(matrix.n_lfs(), self.accuracies.len(), "LF count mismatch");
        let patterns = VotePatterns::from_matrix(matrix);
        patterns.scatter(&self.predict_patterns(&patterns, par))
    }

    /// Posteriors of the table's distinct patterns, indexed by pattern id.
    /// Posteriors are pattern-independent, so any thread count yields the
    /// same bits; small tables stay serial.
    ///
    /// # Panics
    /// Panics if the LF count differs from the fitted matrix.
    pub fn predict_patterns(&self, patterns: &VotePatterns, par: &ParConfig) -> Vec<f64> {
        assert_eq!(patterns.n_lfs(), self.accuracies.len(), "LF count mismatch");
        let kernel = PosteriorKernel::new(&self.accuracies, self.class_prior);
        let distinct = patterns.distinct();
        let cells = VoteCells::new(distinct);
        cm_par::par_map(&em_plan(distinct, par), distinct.n_rows(), |p| {
            kernel.posterior(cells.of(p))
        })
        .unwrap_or_else(|e| e.resume())
    }
}

/// The chunk plan over the distinct patterns: serial below the size gate,
/// the caller's plan above it. Exact accumulation makes the choice
/// invisible in the output either way.
fn em_plan(distinct: &LabelMatrix, par: &ParConfig) -> ParConfig {
    let par = if distinct.n_rows() * distinct.n_lfs() < EM_PAR_THRESHOLD {
        ParConfig::serial()
    } else {
        par.clone()
    };
    par.with_min_chunk(EM_MIN_PATTERNS_PER_CHUNK)
}

/// The non-abstain votes of every distinct pattern as `(LF, vote)` cells
/// in column order — all the independent model reads of a pattern, since
/// an abstain adds nothing to its posterior or its moments. Built once per
/// fit or predict, so the per-iteration passes skip the abstains.
struct VoteCells {
    starts: Vec<usize>,
    cells: Vec<(u32, i8)>,
}

impl VoteCells {
    fn new(distinct: &LabelMatrix) -> Self {
        let mut starts = Vec::with_capacity(distinct.n_rows() + 1);
        let mut cells = Vec::new();
        starts.push(0);
        for p in 0..distinct.n_rows() {
            let row = distinct.row(p).iter().enumerate().filter(|&(_, &v)| v != 0);
            cells.extend(row.map(|(j, &v)| (j as u32, v)));
            starts.push(cells.len());
        }
        Self { starts, cells }
    }

    fn of(&self, pattern: usize) -> &[(u32, i8)] {
        &self.cells[self.starts[pattern]..self.starts[pattern + 1]]
    }
}

/// `P(y = 1 | votes)` under the independent model, with each LF's
/// `ln(a)` and `ln(1 - a)` taken once per parameter set instead of once
/// per vote. The sums run over the non-abstain votes in column order, so
/// the posterior bits equal a row-by-row evaluation's.
struct PosteriorKernel {
    prior: f64,
    ln_prior: f64,
    ln_not_prior: f64,
    ln_acc: Vec<f64>,
    ln_err: Vec<f64>,
}

impl PosteriorKernel {
    fn new(accuracies: &[f64], prior: f64) -> Self {
        Self {
            prior,
            ln_prior: prior.ln(),
            ln_not_prior: (1.0 - prior).ln(),
            ln_acc: accuracies.iter().map(|a| a.ln()).collect(),
            ln_err: accuracies.iter().map(|a| (1.0 - a).ln()).collect(),
        }
    }

    fn posterior(&self, cells: &[(u32, i8)]) -> f64 {
        if cells.is_empty() {
            return self.prior;
        }
        let mut log_pos = self.ln_prior;
        let mut log_neg = self.ln_not_prior;
        for &(j, v) in cells {
            let (acc, err) = (self.ln_acc[j as usize], self.ln_err[j as usize]);
            if v > 0 {
                log_pos += acc;
                log_neg += err;
            } else {
                log_pos += err;
                log_neg += acc;
            }
        }
        let m = log_pos.max(log_neg);
        let pos = (log_pos - m).exp();
        let neg = (log_neg - m).exp();
        pos / (pos + neg)
    }
}

/// Majority-vote baseline: mean of non-abstain votes mapped to `[0, 1]`;
/// rows with no votes get 0.5.
pub fn majority_vote(matrix: &LabelMatrix) -> Vec<f64> {
    (0..matrix.n_rows())
        .map(|r| {
            let row = matrix.row(r);
            let n = row.iter().filter(|&&v| v != 0).count();
            if n == 0 {
                return 0.5;
            }
            let sum: i32 = row.iter().map(|&v| i32::from(v)).sum();
            if sum > 0 {
                1.0
            } else if sum < 0 {
                0.0
            } else {
                0.5
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use cm_linalg::rng::Rng;
    use cm_linalg::rng::StdRng;

    use super::*;

    /// `P(y = 1 | votes)` for one row, two `ln` calls per vote: the oracle
    /// of [`PosteriorKernel::posterior`].
    fn posterior_for_row(votes: &[i8], accuracies: &[f64], prior: f64) -> f64 {
        let mut log_pos = prior.ln();
        let mut log_neg = (1.0 - prior).ln();
        let mut any = false;
        for (&v, &a) in votes.iter().zip(accuracies) {
            match v {
                1 => {
                    any = true;
                    log_pos += a.ln();
                    log_neg += (1.0 - a).ln();
                }
                -1 => {
                    any = true;
                    log_pos += (1.0 - a).ln();
                    log_neg += a.ln();
                }
                _ => {}
            }
        }
        if !any {
            return prior;
        }
        let m = log_pos.max(log_neg);
        let pos = (log_pos - m).exp();
        let neg = (log_neg - m).exp();
        pos / (pos + neg)
    }

    /// The row-by-row EM fit (serial): one posterior per row, every row
    /// folded into the moments on its own.
    fn fit_rowwise(
        segments: &[&LabelMatrix],
        config: &GenerativeConfig,
        warm: Option<&WarmStart>,
    ) -> GenerativeModel {
        let n_lfs = segments[0].n_lfs();
        let (lo, hi) = config.accuracy_bounds;
        let mut accuracies: Vec<f64> = match warm {
            Some(w) => w.accuracies.iter().map(|a| a.clamp(lo, hi)).collect(),
            None => vec![config.init_accuracy.clamp(lo, hi); n_lfs],
        };
        let mut prior = config
            .class_prior
            .or(warm.map(|w| w.class_prior))
            .unwrap_or(0.5)
            .clamp(1e-4, 1.0 - 1e-4);
        let mut posteriors: Vec<Vec<f64>> =
            segments.iter().map(|m| vec![0.5f64; m.n_rows()]).collect();
        let mut iterations = 0;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            let mut moments = EmMoments::new(n_lfs);
            for (seg, post) in segments.iter().zip(posteriors.iter_mut()) {
                for (r, previous) in post.iter_mut().enumerate() {
                    let q = posterior_for_row(seg.row(r), &accuracies, prior);
                    moments.observe_row(seg.row(r), q, *previous);
                    *previous = q;
                }
            }
            for (j, acc) in accuracies.iter_mut().enumerate() {
                if let Some(a) = moments.accuracy(j) {
                    *acc = a.clamp(lo, hi);
                }
            }
            if config.class_prior.is_none() {
                if let Some(p) = moments.mean_posterior() {
                    prior = p.clamp(1e-4, 1.0 - 1e-4);
                }
            }
            if moments.mean_delta().unwrap_or(0.0) < config.tol && iter > 0 {
                break;
            }
        }
        GenerativeModel { accuracies, class_prior: prior, iterations }
    }

    /// Row-by-row posteriors under a fitted model.
    fn predict_rowwise(model: &GenerativeModel, matrix: &LabelMatrix) -> Vec<f64> {
        (0..matrix.n_rows())
            .map(|r| posterior_for_row(matrix.row(r), model.accuracies(), model.class_prior()))
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Splits `m` into segments ending at `cuts` (and at the last row).
    fn split_rows(m: &LabelMatrix, cuts: &[usize]) -> Vec<LabelMatrix> {
        let mut segs = Vec::new();
        let mut start = 0;
        for &end in cuts.iter().chain([&m.n_rows()]) {
            let mut votes = Vec::new();
            for r in start..end {
                votes.extend_from_slice(m.row(r));
            }
            segs.push(LabelMatrix::from_votes(end - start, m.n_lfs(), votes, m.names().to_vec()));
            start = end;
        }
        segs
    }

    /// Builds a synthetic label matrix: `n` rows with true labels at the
    /// given positive rate, and LFs with the given accuracies/propensities.
    fn synthetic(
        n: usize,
        pos_rate: f64,
        lf_specs: &[(f64, f64)], // (accuracy, propensity)
        seed: u64,
    ) -> (LabelMatrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut votes = Vec::with_capacity(n * lf_specs.len());
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.gen::<f64>() < pos_rate;
            truth.push(y);
            for &(acc, prop) in lf_specs {
                let v = if rng.gen::<f64>() >= prop {
                    0
                } else {
                    let correct = rng.gen::<f64>() < acc;
                    match (y, correct) {
                        (true, true) | (false, false) => 1,
                        _ => -1,
                    }
                };
                votes.push(v);
            }
        }
        let names = (0..lf_specs.len()).map(|i| format!("lf{i}")).collect();
        (LabelMatrix::from_votes(n, lf_specs.len(), votes, names), truth)
    }

    #[test]
    fn em_recovers_accuracy_ordering() {
        let (m, _) = synthetic(5000, 0.3, &[(0.95, 0.8), (0.7, 0.8), (0.6, 0.8)], 1);
        let model = GenerativeModel::fit(&m, &GenerativeConfig::default(), &ParConfig::serial());
        let acc = model.accuracies();
        assert!(acc[0] > acc[1], "acc {acc:?}");
        assert!(acc[1] > acc[2], "acc {acc:?}");
        assert!((acc[0] - 0.95).abs() < 0.08, "acc0 {}", acc[0]);
    }

    #[test]
    fn posterior_beats_majority_vote_with_unequal_lfs() {
        let par = ParConfig::serial();
        let (m, truth) = synthetic(8000, 0.4, &[(0.95, 0.9), (0.56, 0.9), (0.56, 0.9)], 2);
        let model = GenerativeModel::fit(&m, &GenerativeConfig::default(), &par);
        let probs = model.predict(&m, &par);
        let mv = majority_vote(&m);
        let err = |pred: &[f64]| -> f64 {
            pred.iter()
                .zip(&truth)
                .filter(|(p, _)| **p != 0.5)
                .map(|(p, &t)| if (*p >= 0.5) == t { 0.0 } else { 1.0 })
                .sum::<f64>()
        };
        assert!(
            err(&probs) < err(&mv),
            "generative err {} !< majority err {}",
            err(&probs),
            err(&mv)
        );
    }

    #[test]
    fn prior_estimation_tracks_true_rate() {
        let (m, truth) = synthetic(10_000, 0.15, &[(0.9, 0.9), (0.85, 0.9)], 3);
        let model = GenerativeModel::fit(&m, &GenerativeConfig::default(), &ParConfig::serial());
        let true_rate = truth.iter().filter(|&&t| t).count() as f64 / truth.len() as f64;
        assert!(
            (model.class_prior() - true_rate).abs() < 0.05,
            "prior {} vs true {}",
            model.class_prior(),
            true_rate
        );
    }

    #[test]
    fn fixed_prior_is_respected() {
        let (m, _) = synthetic(1000, 0.3, &[(0.9, 0.9)], 4);
        let cfg = GenerativeConfig { class_prior: Some(0.2), ..Default::default() };
        let model = GenerativeModel::fit(&m, &cfg, &ParConfig::serial());
        assert_eq!(model.class_prior(), 0.2);
    }

    #[test]
    fn all_abstain_rows_get_prior() {
        let par = ParConfig::serial();
        let m = LabelMatrix::from_votes(2, 1, vec![0, 1], vec!["a".into()]);
        let cfg = GenerativeConfig { class_prior: Some(0.25), ..Default::default() };
        let model = GenerativeModel::fit(&m, &cfg, &par);
        let probs = model.predict(&m, &par);
        assert_eq!(probs[0], 0.25);
        // A single positive vote lifts the posterior above the prior (the
        // degenerate 2-row matrix can't push it past 0.5).
        assert!(probs[1] > probs[0]);
    }

    #[test]
    fn majority_vote_ties_and_empty() {
        let m =
            LabelMatrix::from_votes(3, 2, vec![1, -1, 1, 0, 0, 0], vec!["a".into(), "b".into()]);
        let mv = majority_vote(&m);
        assert_eq!(mv, vec![0.5, 1.0, 0.5]);
    }

    #[test]
    fn fit_is_deterministic() {
        let par = ParConfig::serial();
        let (m, _) = synthetic(2000, 0.3, &[(0.9, 0.8), (0.7, 0.8)], 5);
        let a = GenerativeModel::fit(&m, &GenerativeConfig::default(), &par);
        let b = GenerativeModel::fit(&m, &GenerativeConfig::default(), &par);
        assert_eq!(a.accuracies(), b.accuracies());
        assert_eq!(a.predict(&m, &par), b.predict(&m, &par));
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        // 20k rows x 3 LFs = 60k cells, above the parallel threshold.
        let (m, _) = synthetic(20_000, 0.3, &[(0.9, 0.8), (0.7, 0.8), (0.6, 0.5)], 11);
        let cfg = GenerativeConfig::default();
        let base = GenerativeModel::fit(&m, &cfg, &ParConfig::threads(1));
        let base_probs = base.predict(&m, &ParConfig::threads(1));
        for threads in [2usize, 4, 8] {
            let par = ParConfig::threads(threads);
            let model = GenerativeModel::fit(&m, &cfg, &par);
            assert_eq!(model.accuracies(), base.accuracies(), "threads = {threads}");
            assert_eq!(
                model.class_prior().to_bits(),
                base.class_prior().to_bits(),
                "threads = {threads}"
            );
            assert_eq!(model.iterations(), base.iterations(), "threads = {threads}");
            let probs = model.predict(&m, &par);
            assert_eq!(probs, base_probs, "threads = {threads}");
        }
    }

    #[test]
    fn em_moments_merge_is_order_free() {
        let (m, _) = synthetic(300, 0.3, &[(0.9, 0.8), (0.7, 0.6)], 13);
        let part = |start: usize, end: usize| {
            let mut p = EmMoments::new(m.n_lfs());
            for r in start..end {
                // Any deterministic (fresh, previous) pair exercises all
                // accumulator fields.
                let q = 0.25 + 0.5 * (r % 7) as f64 / 7.0;
                p.observe_row(m.row(r), q, 0.5);
            }
            p
        };
        let (a, b, c) = (part(0, 100), part(100, 170), part(170, 300));
        let mut fwd = EmMoments::new(m.n_lfs());
        fwd.merge(&a);
        fwd.merge(&b);
        fwd.merge(&c);
        let mut rev = EmMoments::new(m.n_lfs());
        rev.merge(&c);
        rev.merge(&a);
        rev.merge(&b);
        assert_eq!(fwd.n_rows(), 300);
        assert_eq!(fwd.n_rows(), rev.n_rows());
        for j in 0..m.n_lfs() {
            assert_eq!(fwd.accuracy(j).map(f64::to_bits), rev.accuracy(j).map(f64::to_bits));
        }
        assert_eq!(fwd.mean_posterior().map(f64::to_bits), rev.mean_posterior().map(f64::to_bits));
        assert_eq!(fwd.mean_delta().map(f64::to_bits), rev.mean_delta().map(f64::to_bits));
    }

    #[test]
    #[should_panic(expected = "zero LFs")]
    fn fit_rejects_empty_lf_set() {
        let m = LabelMatrix::from_votes(1, 0, vec![], vec![]);
        GenerativeModel::fit(&m, &GenerativeConfig::default(), &ParConfig::serial());
    }

    #[test]
    #[should_panic(expected = "LF count mismatch")]
    fn predict_rejects_mismatched_matrix() {
        let par = ParConfig::serial();
        let (m, _) = synthetic(100, 0.3, &[(0.9, 0.9)], 6);
        let model = GenerativeModel::fit(&m, &GenerativeConfig::default(), &par);
        let (m2, _) = synthetic(100, 0.3, &[(0.9, 0.9), (0.8, 0.9)], 7);
        model.predict(&m2, &par);
    }

    /// A warm start built from the cold-start constants must reproduce the
    /// cold fit bit for bit — the warm path is the cold path with
    /// different initial numbers, not a different algorithm.
    #[test]
    fn warm_start_at_cold_init_matches_cold_fit_bitwise() {
        let (m, _) = synthetic(5000, 0.3, &[(0.9, 0.8), (0.7, 0.8), (0.6, 0.5)], 17);
        let cfg = GenerativeConfig::default();
        let (lo, hi) = cfg.accuracy_bounds;
        let warm = WarmStart {
            accuracies: vec![cfg.init_accuracy.clamp(lo, hi); m.n_lfs()],
            class_prior: 0.5,
        };
        let patterns = VotePatterns::from_matrix(&m);
        for threads in [1usize, 4] {
            let par = ParConfig::threads(threads);
            let cold = GenerativeModel::fit(&m, &cfg, &par);
            let warmed = GenerativeModel::fit_patterns(&patterns, &cfg, Some(&warm), &par);
            assert_eq!(cold.accuracies(), warmed.accuracies(), "threads = {threads}");
            assert_eq!(cold.class_prior().to_bits(), warmed.class_prior().to_bits());
            assert_eq!(cold.iterations(), warmed.iterations());
        }
    }

    /// Refitting from a converged model's own parameters converges almost
    /// immediately and lands near where it started: the mini-batch refit
    /// contract the serving loop relies on.
    #[test]
    fn warm_started_refit_converges_faster_and_stays_close() {
        let (m, _) = synthetic(20_000, 0.3, &[(0.9, 0.8), (0.7, 0.8), (0.6, 0.5)], 11);
        let cfg = GenerativeConfig::default();
        let par = ParConfig::threads(2);
        let cold = GenerativeModel::fit(&m, &cfg, &par);
        let warm = cold.warm_start();
        let refit =
            GenerativeModel::fit_patterns(&VotePatterns::from_matrix(&m), &cfg, Some(&warm), &par);
        assert!(
            refit.iterations() < cold.iterations(),
            "warm refit took {} iterations, cold fit {}",
            refit.iterations(),
            cold.iterations()
        );
        for (a, b) in cold.accuracies().iter().zip(refit.accuracies()) {
            assert!((a - b).abs() < 1e-3, "accuracy drifted: {a} vs {b}");
        }
        assert!((cold.class_prior() - refit.class_prior()).abs() < 1e-3);
    }

    /// A model rebuilt from its exported parameters predicts identically —
    /// the checkpoint restore contract.
    #[test]
    fn from_params_round_trips_predictions() {
        let par = ParConfig::serial();
        let (m, _) = synthetic(3000, 0.2, &[(0.9, 0.7), (0.8, 0.5), (0.6, 0.3)], 8);
        let model = GenerativeModel::fit(&m, &GenerativeConfig::default(), &par);
        let rebuilt = GenerativeModel::from_params(
            model.accuracies().to_vec(),
            model.class_prior(),
            model.iterations(),
        );
        assert_eq!(model.predict(&m, &par), rebuilt.predict(&m, &par));
        assert_eq!(model.warm_start(), rebuilt.warm_start());
    }

    #[test]
    #[should_panic(expected = "warm start LF count mismatch")]
    fn warm_start_rejects_wrong_lf_count() {
        let (m, _) = synthetic(100, 0.3, &[(0.9, 0.9), (0.8, 0.8)], 6);
        let warm = WarmStart { accuracies: vec![0.7], class_prior: 0.5 };
        GenerativeModel::fit_patterns(
            &VotePatterns::from_matrix(&m),
            &GenerativeConfig::default(),
            Some(&warm),
            &ParConfig::serial(),
        );
    }

    #[test]
    fn posteriors_are_probabilities() {
        let par = ParConfig::serial();
        let (m, _) = synthetic(3000, 0.2, &[(0.9, 0.7), (0.8, 0.5), (0.6, 0.3)], 8);
        let model = GenerativeModel::fit(&m, &GenerativeConfig::default(), &par);
        for p in model.predict(&m, &par) {
            assert!((0.0..=1.0).contains(&p), "posterior {p} out of range");
            assert!(!p.is_nan());
        }
    }

    /// The pattern fold's contract: accuracies, prior, iteration count and
    /// posteriors equal the row-by-row EM bit for bit, cold and warm, at
    /// segment cuts {1, 97, whole} and threads {1, 2, 4}. Twelve LFs over
    /// 20k rows give enough distinct patterns to take the parallel path.
    #[test]
    fn pattern_fit_matches_rowwise_fit_bitwise() {
        let specs = [
            (0.9, 0.5),
            (0.8, 0.4),
            (0.7, 0.6),
            (0.65, 0.3),
            (0.9, 0.2),
            (0.6, 0.5),
            (0.75, 0.35),
            (0.85, 0.25),
            (0.7, 0.45),
            (0.95, 0.1),
            (0.6, 0.3),
            (0.8, 0.5),
        ];
        let (m, _) = synthetic(20_000, 0.3, &specs, 23);
        let patterns = VotePatterns::from_matrix(&m);
        assert!(
            patterns.n_patterns() * m.n_lfs() >= EM_PAR_THRESHOLD,
            "{} patterns stay under the parallel gate",
            patterns.n_patterns()
        );
        let warm = WarmStart { accuracies: vec![0.8; m.n_lfs()], class_prior: 0.2 };
        for (cfg, warm) in [
            (GenerativeConfig { max_iters: 25, ..Default::default() }, None),
            (
                GenerativeConfig { max_iters: 6, class_prior: Some(0.3), ..Default::default() },
                Some(&warm),
            ),
            (GenerativeConfig { max_iters: 6, ..Default::default() }, Some(&warm)),
        ] {
            let reference = fit_rowwise(&[&m], &cfg, warm);
            let reference_probs = bits(&predict_rowwise(&reference, &m));
            for cuts in [vec![1usize], vec![97], vec![m.n_rows()]] {
                let segs = split_rows(&m, &cuts);
                let refs: Vec<&LabelMatrix> = segs.iter().collect();
                let rowwise_segs = fit_rowwise(&refs, &cfg, warm);
                assert_eq!(bits(rowwise_segs.accuracies()), bits(reference.accuracies()));
                // The table grows cut by cut, as the streamed driver's does.
                let mut table = VotePatterns::new(m.names().to_vec());
                for seg in &segs {
                    table.extend_from_matrix(seg);
                }
                for threads in [1usize, 2, 4] {
                    let par = ParConfig::threads(threads);
                    let model = GenerativeModel::fit_patterns(&table, &cfg, warm, &par);
                    let ctx =
                        format!("cuts = {cuts:?}, threads = {threads}, warm = {}", warm.is_some());
                    assert_eq!(bits(model.accuracies()), bits(reference.accuracies()), "{ctx}");
                    assert_eq!(
                        model.class_prior().to_bits(),
                        reference.class_prior().to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(model.iterations(), reference.iterations(), "{ctx}");
                    assert_eq!(bits(&model.predict(&m, &par)), reference_probs, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn pattern_moments_match_rowwise_moments() {
        let (m, _) = synthetic(3000, 0.3, &[(0.9, 0.5), (0.7, 0.5), (0.6, 0.5)], 29);
        let patterns = VotePatterns::from_matrix(&m);
        let q = |p: usize| 0.1 + 0.8 * (p % 11) as f64 / 11.0;
        let mut rowwise = EmMoments::new(m.n_lfs());
        for (r, &id) in patterns.row_ids().iter().enumerate() {
            rowwise.observe_row(m.row(r), q(id as usize), 0.5);
        }
        let mut folded = EmMoments::new(m.n_lfs());
        for (p, &count) in patterns.counts().iter().enumerate() {
            folded.observe_pattern(patterns.distinct().row(p), count, q(p), 0.5);
        }
        assert_eq!(folded.n_rows(), rowwise.n_rows());
        for j in 0..m.n_lfs() {
            assert_eq!(folded.accuracy(j).map(f64::to_bits), rowwise.accuracy(j).map(f64::to_bits));
        }
        assert_eq!(
            folded.mean_posterior().map(f64::to_bits),
            rowwise.mean_posterior().map(f64::to_bits)
        );
        assert_eq!(folded.mean_delta().map(f64::to_bits), rowwise.mean_delta().map(f64::to_bits));
    }
}
