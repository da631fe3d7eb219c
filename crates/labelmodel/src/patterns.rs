//! The vote-pattern table: the distinct rows of a label matrix, a count
//! per pattern, and a row → pattern-id column.
//!
//! Every label model here scores a row from its votes alone, so rows that
//! share a vote pattern share a posterior, and LF suites repeat patterns
//! heavily (a few percent of pool rows are distinct). The models fit and
//! predict over [`VotePatterns`] instead of rows and scatter per-pattern
//! results back through the id column. Pattern ids are assigned in
//! first-seen row order, so the table is a pure function of the rows; the
//! hash index behind it is lookup-only and never iterated. Its hash has a
//! fixed key: the keys are LF votes computed in-process, not outside input.
//!
//! A pool's votes go straight into its table:
//! [`VotePatterns::extend_compiled`] evaluates a table segment through a
//! [`CompiledSuite`] in blocks of rows (each block's rows in parallel
//! chunks) and interns the rows serially in row order, so ids and counts
//! equal [`VotePatterns::from_matrix`] of the dense matrix, which is never
//! held.

use std::ops::Range;

use cm_featurespace::{FeatureTable, FrozenTable};
use cm_par::ParConfig;

use crate::compiled::CompiledSuite;
use crate::lf::LabelingFunction;
use crate::matrix::{LabelMatrix, VoteCounts};

/// Marks an empty slot of the hash index.
const EMPTY: u32 = u32::MAX;

/// Rows [`VotePatterns::extend_compiled`] evaluates before interning them:
/// its dense scratch is at most this many rows of votes, whatever the
/// segment size.
pub const APPEND_BLOCK_ROWS: usize = 8192;

/// Distinct vote rows in first-seen order with their counts, plus the
/// pattern id of every row. Grows by appended rows in O(rows appended).
///
/// ```
/// use cm_labelmodel::{LabelMatrix, VotePatterns};
/// let m = LabelMatrix::from_votes(3, 2, vec![1, 0, 0, -1, 1, 0], vec!["a".into(), "b".into()]);
/// let patterns = VotePatterns::from_matrix(&m);
/// assert_eq!(patterns.n_patterns(), 2);
/// assert_eq!(patterns.counts(), &[2, 1]);
/// assert_eq!(patterns.row_ids(), &[0, 1, 0]);
/// assert_eq!(patterns.scatter(&[0.9, 0.1]), vec![0.9, 0.1, 0.9]);
/// ```
#[derive(Debug, Clone)]
pub struct VotePatterns {
    /// One row per pattern, in first-seen order.
    distinct: LabelMatrix,
    /// Rows carrying each pattern.
    counts: Vec<u64>,
    /// Pattern id of every row, in row order.
    row_ids: Vec<u32>,
    /// Finds a row's pattern id.
    index: PatternIndex,
}

impl VotePatterns {
    /// An empty table over the LF columns `names`.
    pub fn new(names: Vec<String>) -> Self {
        Self {
            distinct: LabelMatrix::from_votes(0, names.len(), Vec::new(), names),
            counts: Vec::new(),
            row_ids: Vec::new(),
            index: PatternIndex::default(),
        }
    }

    /// The pattern table of `matrix`'s rows.
    pub fn from_matrix(matrix: &LabelMatrix) -> Self {
        let mut patterns = Self::new(matrix.names().to_vec());
        patterns.extend_from_matrix(matrix);
        patterns
    }

    /// Reserves the row → id column for `additional` more rows, so a
    /// caller can hold (and charge) it up front.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.row_ids.reserve_exact(additional);
    }

    /// Appends every row of `table`, voted by the compiled `suite` over
    /// its LFs `lfs`, and returns the postings the suite visited. Rows are
    /// evaluated [`APPEND_BLOCK_ROWS`] at a time (in parallel row chunks
    /// when a block is large enough) and interned serially in row order,
    /// so the table equals [`VotePatterns::from_matrix`] of
    /// [`LabelMatrix::apply_compiled`]'s matrix at every thread count and
    /// over any cut of the rows into segments.
    ///
    /// # Panics
    /// Panics unless `suite` and `lfs` have one column per table column;
    /// re-raises a worker panic.
    pub fn extend_compiled(
        &mut self,
        table: &FeatureTable,
        suite: &CompiledSuite,
        lfs: &[Box<dyn LabelingFunction>],
        par: &ParConfig,
    ) -> u64 {
        assert_eq!(suite.n_lfs(), self.n_lfs(), "LF count mismatch");
        let n = self.n_lfs();
        let frozen = FrozenTable::freeze(table);
        self.row_ids.reserve(table.len());
        let mut visited = 0;
        for start in (0..table.len()).step_by(APPEND_BLOCK_ROWS) {
            let block = start..(start + APPEND_BLOCK_ROWS).min(table.len());
            for (rows, votes, postings) in suite.eval_chunks(&frozen, lfs, block, par) {
                visited += postings;
                for i in 0..rows.len() {
                    self.push_row(&votes[i * n..(i + 1) * n]);
                }
            }
        }
        visited
    }

    /// Appends every row of `matrix`.
    ///
    /// # Panics
    /// Panics if the LF count differs from the table's.
    pub fn extend_from_matrix(&mut self, matrix: &LabelMatrix) {
        assert_eq!(matrix.n_lfs(), self.n_lfs(), "LF count mismatch");
        self.row_ids.reserve(matrix.n_rows());
        for r in 0..matrix.n_rows() {
            self.push_row(matrix.row(r));
        }
    }

    /// Appends one row of encoded votes and returns its pattern id.
    ///
    /// # Panics
    /// Panics if the row's width differs from the table's LF count.
    pub fn push_row(&mut self, row: &[i8]) -> u32 {
        let id = self.intern(row);
        self.count_row(id);
        id
    }

    /// Rows in the table.
    pub fn n_rows(&self) -> usize {
        self.row_ids.len()
    }

    /// LF columns.
    pub fn n_lfs(&self) -> usize {
        self.distinct.n_lfs()
    }

    /// Distinct patterns.
    pub fn n_patterns(&self) -> usize {
        self.counts.len()
    }

    /// The distinct patterns as a matrix: row `p` holds pattern `p`.
    pub fn distinct(&self) -> &LabelMatrix {
        &self.distinct
    }

    /// Rows carrying each pattern, indexed by pattern id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The pattern id of every row, in row order.
    pub fn row_ids(&self) -> &[u32] {
        &self.row_ids
    }

    /// The encoded votes of row `row`.
    pub fn row(&self, row: usize) -> &[i8] {
        self.distinct.row(self.row_ids[row] as usize)
    }

    /// The votes of `rows`, row-major.
    pub fn row_votes(&self, rows: Range<usize>) -> Vec<i8> {
        let mut votes = Vec::with_capacity(rows.len() * self.n_lfs());
        for r in rows {
            votes.extend_from_slice(self.row(r));
        }
        votes
    }

    /// Spreads per-pattern values to rows: entry `r` is
    /// `per_pattern[row_ids[r]]`.
    ///
    /// # Panics
    /// Panics unless there is exactly one value per pattern.
    pub fn scatter<T: Copy>(&self, per_pattern: &[T]) -> Vec<T> {
        assert_eq!(per_pattern.len(), self.n_patterns(), "one value per pattern expected");
        self.row_ids.iter().map(|&id| per_pattern[id as usize]).collect()
    }

    /// Whether each row carries at least one non-abstain vote.
    pub fn covered(&self) -> Vec<bool> {
        let per_pattern: Vec<bool> =
            (0..self.n_patterns()).map(|p| self.distinct.row(p).iter().any(|&v| v != 0)).collect();
        self.scatter(&per_pattern)
    }

    /// Coverage, overlap and conflict counts over the rows, folded per
    /// pattern: equal to [`LabelMatrix::vote_counts`] of the rows.
    pub fn vote_counts(&self) -> VoteCounts {
        self.counts.iter().enumerate().fold(VoteCounts::default(), |acc, (p, &n)| {
            acc.merge(VoteCounts::of_rows(self.distinct.row(p), n as usize))
        })
    }

    /// The share of abstain votes in each column, over the rows.
    pub fn abstain_rates(&self) -> Vec<f64> {
        let mut abstains = vec![0u64; self.n_lfs()];
        for (p, &n) in self.counts.iter().enumerate() {
            for (a, &v) in abstains.iter_mut().zip(self.distinct.row(p)) {
                if v == 0 {
                    *a += n;
                }
            }
        }
        let rows = self.n_rows().max(1) as f64;
        abstains.iter().map(|&a| a as f64 / rows).collect()
    }

    /// The table of the same rows with column `name` appended, where row
    /// `r` votes `column[r]`. Rows regroup by (pattern id, vote) through a
    /// dense key, so this costs O(rows + new patterns × LFs).
    ///
    /// # Panics
    /// Panics unless `column` holds one vote in `{-1, 0, 1}` per row.
    pub fn with_column(&self, name: String, column: &[i8]) -> VotePatterns {
        assert_eq!(column.len(), self.n_rows(), "one vote per row expected");
        let mut names = self.distinct.names().to_vec();
        names.push(name);
        let mut out = VotePatterns::new(names);
        out.row_ids.reserve(self.n_rows());
        let mut key_ids = vec![EMPTY; self.n_patterns() * 3];
        let mut row = Vec::with_capacity(self.n_lfs() + 1);
        for (&id, &vote) in self.row_ids.iter().zip(column) {
            assert!((-1..=1).contains(&vote), "votes must be in {{-1, 0, 1}}");
            let key = id as usize * 3 + (vote + 1) as usize;
            if key_ids[key] == EMPTY {
                row.clear();
                row.extend_from_slice(self.distinct.row(id as usize));
                row.push(vote);
                key_ids[key] = out.intern(&row);
            }
            out.count_row(key_ids[key]);
        }
        out
    }

    /// The table of the same rows with the `drop` columns removed (same
    /// semantics as [`LabelMatrix::without_columns`]). Patterns that
    /// become equal merge; ids stay in first-seen row order.
    pub fn without_columns(&self, drop: &[usize]) -> VotePatterns {
        let reduced = self.distinct.without_columns(drop);
        let mut out = VotePatterns::new(reduced.names().to_vec());
        // Old ids are in first-seen order, so interning them in id order
        // assigns the new ids in first-seen order too.
        let map: Vec<u32> = (0..reduced.n_rows()).map(|p| out.intern(reduced.row(p))).collect();
        out.row_ids = self.row_ids.iter().map(|&id| map[id as usize]).collect();
        for (&new, &n) in map.iter().zip(&self.counts) {
            out.counts[new as usize] += n;
        }
        out
    }

    /// Heap bytes held: the row → id column, the distinct rows with
    /// their counts, and the hash index.
    pub fn heap_bytes(&self) -> usize {
        self.distinct.capacity_bytes()
            + self.counts.capacity() * size_of::<u64>()
            + self.row_ids.capacity() * size_of::<u32>()
            + self.index.heap_bytes()
    }

    /// The id of pattern `row`, inserted with a zero count if new.
    fn intern(&mut self, row: &[i8]) -> u32 {
        assert_eq!(row.len(), self.n_lfs(), "LF count mismatch");
        match self.index.find_or_insert(self.distinct.votes(), self.n_lfs(), row) {
            Ok(id) => id,
            Err(id) => {
                self.distinct.push_row(row);
                self.counts.push(0);
                id
            }
        }
    }

    fn count_row(&mut self, id: u32) {
        self.counts[id as usize] += 1;
        self.row_ids.push(id);
    }
}

/// Open-addressing hash index from vote rows to pattern ids. It stores
/// ids and hashes only; the rows stay in the caller's row-major buffer.
#[derive(Debug, Clone, Default)]
struct PatternIndex {
    /// Hash of each indexed pattern (rehashing on growth reads these).
    hashes: Vec<u64>,
    /// Pattern ids (`EMPTY` = free), at most half full; the length is a
    /// power of two.
    slots: Vec<u32>,
}

impl PatternIndex {
    /// `Ok(id)` of `row` among the indexed patterns, stored row-major in
    /// `stored` (`n_lfs` votes each, in id order), or `Err(id)` after
    /// indexing `row` as the next id, which the caller then stores.
    fn find_or_insert(&mut self, stored: &[i8], n_lfs: usize, row: &[i8]) -> Result<u32, u32> {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = hash_votes(row);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                break;
            }
            let i = id as usize;
            if self.hashes[i] == hash && stored[i * n_lfs..(i + 1) * n_lfs] == *row {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
        let id = self.hashes.len();
        assert!(id < EMPTY as usize, "vote pattern ids exhausted u32");
        self.hashes.push(hash);
        self.slots[slot] = id as u32;
        Err(id as u32)
    }

    /// Doubles the slots (16 at first) and reinserts every pattern.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let mask = len - 1;
        self.slots = vec![EMPTY; len];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.hashes.capacity() * size_of::<u64>() + self.slots.capacity() * size_of::<u32>()
    }
}

/// A fixed-key hash of one vote row: word-at-a-time multiply-rotate, then
/// a final avalanche so the low bits the index masks with are well mixed.
fn hash_votes(row: &[i8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = row.len() as u64;
    let mut words = row.chunks_exact(8);
    for word in &mut words {
        let mut bytes = [0u8; 8];
        for (b, &v) in bytes.iter_mut().zip(word) {
            *b = v as u8;
        }
        h = (h.rotate_left(5) ^ u64::from_le_bytes(bytes)).wrapping_mul(K);
    }
    for &v in words.remainder() {
        h = (h.rotate_left(5) ^ u64::from(v as u8)).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use cm_linalg::rng::{Rng, StdRng};
    use cm_par::ParConfig;

    use super::*;

    /// `n` rows over `n_lfs` LFs, each voting with probability `fire`,
    /// drawn so that patterns repeat.
    fn random_matrix(n: usize, n_lfs: usize, fire: f64, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let votes = (0..n * n_lfs)
            .map(|_| {
                if rng.gen::<f64>() >= fire {
                    0
                } else if rng.gen::<f64>() < 0.5 {
                    1
                } else {
                    -1
                }
            })
            .collect();
        let names = (0..n_lfs).map(|j| format!("lf{j}")).collect();
        LabelMatrix::from_votes(n, n_lfs, votes, names)
    }

    /// Per-column abstain shares, scanned row by row.
    fn abstain_rates_rowwise(matrix: &LabelMatrix) -> Vec<f64> {
        let n = matrix.n_rows();
        (0..matrix.n_lfs())
            .map(|c| (0..n).filter(|&r| matrix.row(r)[c] == 0).count() as f64 / n.max(1) as f64)
            .collect()
    }

    #[test]
    fn table_reproduces_every_row_in_first_seen_order() {
        let m = random_matrix(3000, 6, 0.2, 1);
        let p = VotePatterns::from_matrix(&m);
        assert_eq!(p.n_rows(), m.n_rows());
        assert!(p.n_patterns() < m.n_rows() / 4, "{} patterns", p.n_patterns());
        for r in 0..m.n_rows() {
            assert_eq!(p.row(r), m.row(r), "row {r}");
        }
        assert_eq!(
            p.row_votes(0..m.n_rows()),
            (0..m.n_rows()).flat_map(|r| m.row(r).to_vec()).collect::<Vec<_>>()
        );
        assert_eq!(p.counts().iter().sum::<u64>(), m.n_rows() as u64);
        // Ids appear in increasing order of first occurrence.
        let mut next = 0u32;
        for &id in p.row_ids() {
            assert!(id <= next);
            if id == next {
                next += 1;
            }
        }
        assert_eq!(next as usize, p.n_patterns());
    }

    #[test]
    fn appending_rows_matches_building_at_once() {
        let m = random_matrix(2000, 9, 0.3, 2);
        let whole = VotePatterns::from_matrix(&m);
        let mut grown = VotePatterns::new(m.names().to_vec());
        for r in 0..m.n_rows() {
            grown.push_row(m.row(r));
        }
        assert_eq!(grown.row_ids(), whole.row_ids());
        assert_eq!(grown.counts(), whole.counts());
        assert_eq!(grown.distinct(), whole.distinct());
    }

    #[test]
    fn folded_vote_counts_and_abstain_rates_match_row_scans() {
        for (n, n_lfs, fire, seed) in [(0, 3, 0.5, 3), (1, 1, 0.5, 4), (40_000, 4, 0.3, 5)] {
            let m = random_matrix(n, n_lfs, fire, seed);
            let p = VotePatterns::from_matrix(&m);
            for threads in [1usize, 2, 4] {
                assert_eq!(p.vote_counts(), m.vote_counts(&ParConfig::threads(threads)));
            }
            let folded: Vec<u64> = p.abstain_rates().iter().map(|x| x.to_bits()).collect();
            let rowwise: Vec<u64> = abstain_rates_rowwise(&m).iter().map(|x| x.to_bits()).collect();
            assert_eq!(folded, rowwise, "n = {n}");
            let covered: Vec<bool> = (0..n).map(|r| m.row(r).iter().any(|&v| v != 0)).collect();
            assert_eq!(p.covered(), covered);
        }
    }

    #[test]
    fn with_column_matches_the_assembled_matrix() {
        let m = random_matrix(5000, 5, 0.25, 6);
        let column: Vec<i8> = (0..m.n_rows()).map(|r| [1, 0, 0, -1][r % 4]).collect();
        let mut votes = Vec::new();
        for r in 0..m.n_rows() {
            votes.extend_from_slice(m.row(r));
            votes.push(column[r]);
        }
        let mut names = m.names().to_vec();
        names.push("extra".into());
        let assembled = LabelMatrix::from_votes(m.n_rows(), 6, votes, names);
        let direct = VotePatterns::from_matrix(&assembled);
        let regrouped = VotePatterns::from_matrix(&m).with_column("extra".into(), &column);
        assert_eq!(regrouped.row_ids(), direct.row_ids());
        assert_eq!(regrouped.counts(), direct.counts());
        assert_eq!(regrouped.distinct(), direct.distinct());
        // The regrouped table keeps a working index.
        let mut grown = regrouped.clone();
        assert_eq!(grown.push_row(assembled.row(7)), direct.row_ids()[7]);
    }

    #[test]
    fn without_columns_matches_the_reduced_matrix() {
        let m = random_matrix(5000, 7, 0.3, 7);
        for drop in [vec![], vec![0], vec![2, 5, 5, 9], vec![0, 1, 2, 3, 4, 5, 6]] {
            let direct = VotePatterns::from_matrix(&m.without_columns(&drop));
            let reduced = VotePatterns::from_matrix(&m).without_columns(&drop);
            assert_eq!(reduced.row_ids(), direct.row_ids(), "drop = {drop:?}");
            assert_eq!(reduced.counts(), direct.counts());
            assert_eq!(reduced.distinct(), direct.distinct());
        }
    }

    #[test]
    fn zero_lf_rows_share_one_pattern() {
        let m = LabelMatrix::from_votes(4, 0, vec![], vec![]);
        let p = VotePatterns::from_matrix(&m);
        assert_eq!(p.n_patterns(), 1);
        assert_eq!(p.counts(), &[4]);
        assert_eq!(p.covered(), vec![false; 4]);
    }

    #[test]
    fn heap_bytes_cover_the_id_column() {
        let m = random_matrix(1000, 3, 0.5, 8);
        let p = VotePatterns::from_matrix(&m);
        assert!(p.heap_bytes() >= 1000 * size_of::<u32>() + p.n_patterns() * 3);
    }
}
