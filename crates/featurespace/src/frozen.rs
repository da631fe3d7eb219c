//! Frozen columnar views: the compiled read-side of a [`FeatureTable`].
//!
//! The write-side table stores validity as `Vec<bool>` and answers every
//! read through an enum match returning `Option<FeatureValue>` pieces.
//! That is fine at ingestion, but the curation kernels (pairwise
//! similarity, Apriori support counting, LF vote fill) read the same
//! columns millions of times. [`FrozenTable`] is built once per table and
//! gives those kernels what they actually need:
//!
//! - per-column presence **bitmaps** (`u64` words, testable in one shift
//!   and maskable/popcountable in bulk);
//! - direct borrows of the contiguous numeric / CSR-categorical /
//!   row-major-embedding storage, with no per-read enum dispatch.
//!
//! Freezing copies only the validity vectors (one bit per row per
//! column); values are borrowed. The view is immutable by construction —
//! freeze after the last `push_row`.

use crate::table::{Column, FeatureTable};

/// A packed validity bitmap over rows.
///
/// Bit `i` of word `i / 64` (at position `i % 64`) is set when row `i`
/// holds a value. The trailing word is zero-padded, so word-wise AND +
/// popcount over two bitmaps of the same length counts exactly the rows
/// set in both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zeros bitmap over `len` rows.
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// Packs a `Vec<bool>` validity vector.
    pub fn from_bools(present: &[bool]) -> Self {
        // One word per 64 flags, without a branch per flag.
        let words = present
            .chunks(64)
            .map(|flags| flags.iter().rev().fold(0u64, |w, &p| (w << 1) | u64::from(p)))
            .collect();
        Self { words, len: present.len() }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics (via slice indexing) if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// The packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `popcount(self AND other)` — rows set in both bitmaps — without
    /// materializing the intersection.
    ///
    /// # Panics
    /// Panics if the bitmaps cover different row counts.
    pub fn and_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// The intersection `self AND other` as a new bitmap.
    ///
    /// # Panics
    /// Panics if the bitmaps cover different row counts.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect(),
            len: self.len,
        }
    }
}

/// One frozen column: borrowed contiguous storage plus a packed presence
/// bitmap.
#[derive(Debug, Clone)]
pub enum FrozenColumn<'a> {
    /// Numeric column (`0.0` at missing rows).
    Numeric {
        /// Per-row values.
        values: &'a [f64],
        /// Packed validity.
        present: Bitmap,
    },
    /// Multivalent categorical column in CSR layout.
    Categorical {
        /// `offsets[r]..offsets[r + 1]` indexes `ids` for row `r`.
        offsets: &'a [u32],
        /// Concatenated sorted category ids.
        ids: &'a [u32],
        /// Packed validity.
        present: Bitmap,
    },
    /// Fixed-width embedding column (zeros at missing rows).
    Embedding {
        /// Embedding width.
        dim: usize,
        /// Row-major flattened embeddings.
        data: &'a [f32],
        /// Packed validity.
        present: Bitmap,
    },
}

impl FrozenColumn<'_> {
    /// The column's presence bitmap.
    pub fn present(&self) -> &Bitmap {
        match self {
            FrozenColumn::Numeric { present, .. }
            | FrozenColumn::Categorical { present, .. }
            | FrozenColumn::Embedding { present, .. } => present,
        }
    }
}

/// An immutable columnar view of a [`FeatureTable`], built once and read
/// many times by the hot kernels.
#[derive(Debug, Clone)]
pub struct FrozenTable<'a> {
    table: &'a FeatureTable,
    cols: Vec<FrozenColumn<'a>>,
}

impl<'a> FrozenTable<'a> {
    /// Freezes a table: packs every validity vector into a bitmap and
    /// borrows the contiguous value storage.
    pub fn freeze(table: &'a FeatureTable) -> Self {
        let cols = (0..table.schema().len())
            .map(|c| match table.column(c) {
                Column::Numeric { values, present } => FrozenColumn::Numeric {
                    values: values.as_slice(),
                    present: Bitmap::from_bools(present),
                },
                Column::Categorical { offsets, ids, present } => FrozenColumn::Categorical {
                    offsets: offsets.as_slice(),
                    ids: ids.as_slice(),
                    present: Bitmap::from_bools(present),
                },
                Column::Embedding { dim, data, present } => FrozenColumn::Embedding {
                    dim: *dim,
                    data: data.as_slice(),
                    present: Bitmap::from_bools(present),
                },
            })
            .collect();
        Self { table, cols }
    }

    /// The backing table.
    pub fn table(&self) -> &'a FeatureTable {
        self.table
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// The frozen column at index `col`.
    pub fn col(&self, col: usize) -> &FrozenColumn<'a> {
        &self.cols[col]
    }

    /// Whether `(row, col)` holds a value.
    #[inline]
    pub fn is_present(&self, row: usize, col: usize) -> bool {
        self.cols[col].present().get(row)
    }

    /// Numeric value at `(row, col)`; `None` if missing or non-numeric.
    #[inline]
    pub fn numeric(&self, row: usize, col: usize) -> Option<f64> {
        match &self.cols[col] {
            FrozenColumn::Numeric { values, present } => present.get(row).then(|| values[row]),
            _ => None,
        }
    }

    /// Sorted category ids at `(row, col)`; `None` if missing or
    /// non-categorical.
    #[inline]
    pub fn categorical(&self, row: usize, col: usize) -> Option<&'a [u32]> {
        match &self.cols[col] {
            FrozenColumn::Categorical { offsets, ids, present } => {
                present.get(row).then(|| &ids[offsets[row] as usize..offsets[row + 1] as usize])
            }
            _ => None,
        }
    }

    /// Embedding at `(row, col)`; `None` if missing or non-embedding.
    #[inline]
    pub fn embedding(&self, row: usize, col: usize) -> Option<&'a [f32]> {
        match &self.cols[col] {
            FrozenColumn::Embedding { dim, data, present } => {
                present.get(row).then(|| &data[row * dim..(row + 1) * dim])
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::schema::{FeatureDef, FeatureSchema, FeatureSet, ServingMode};
    use crate::value::{CatSet, FeatureValue};
    use crate::vocab::Vocabulary;

    fn sample() -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::numeric("n", FeatureSet::A, ServingMode::Servable),
            FeatureDef::categorical(
                "c",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["a", "b", "c"]),
            ),
            FeatureDef::embedding("e", 2, FeatureSet::ModalitySpecific, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        t.push_row(&[
            FeatureValue::Numeric(1.5),
            FeatureValue::Categorical(CatSet::from_ids(vec![0, 2])),
            FeatureValue::Embedding(vec![1.0, -1.0]),
        ]);
        t.push_row(&[FeatureValue::Missing, FeatureValue::Missing, FeatureValue::Missing]);
        t.push_row(&[
            FeatureValue::Numeric(-2.0),
            FeatureValue::Categorical(CatSet::new()),
            FeatureValue::Embedding(vec![0.0, 0.5]),
        ]);
        t
    }

    #[test]
    fn bitmap_round_trips_bools() {
        let bools: Vec<bool> = (0..131).map(|i| i % 3 == 0).collect();
        let b = Bitmap::from_bools(&bools);
        assert_eq!(b.len(), 131);
        for (i, &p) in bools.iter().enumerate() {
            assert_eq!(b.get(i), p, "bit {i}");
        }
        assert_eq!(b.count(), bools.iter().filter(|&&p| p).count());
    }

    #[test]
    fn bitmap_set_and_intersections() {
        let mut a = Bitmap::zeros(100);
        let mut b = Bitmap::zeros(100);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(3) {
            b.set(i);
        }
        // Multiples of 6 in 0..100: 0, 6, ..., 96.
        assert_eq!(a.and_count(&b), 17);
        let both = a.and(&b);
        assert_eq!(both.count(), 17);
        assert!(both.get(6));
        assert!(!both.get(3));
    }

    #[test]
    #[should_panic(expected = "bitmap length mismatch")]
    fn bitmap_and_rejects_length_mismatch() {
        Bitmap::zeros(10).and_count(&Bitmap::zeros(11));
    }

    #[test]
    fn frozen_accessors_match_table() {
        let t = sample();
        let f = FrozenTable::freeze(&t);
        assert_eq!(f.len(), t.len());
        assert_eq!(f.n_cols(), 3);
        for r in 0..t.len() {
            assert_eq!(f.numeric(r, 0), t.numeric(r, 0), "row {r}");
            assert_eq!(f.categorical(r, 1), t.categorical(r, 1), "row {r}");
            assert_eq!(f.embedding(r, 2), t.embedding(r, 2), "row {r}");
            for c in 0..3 {
                assert_eq!(f.is_present(r, c), t.is_present(r, c), "({r}, {c})");
            }
        }
    }

    #[test]
    fn wrong_kind_reads_return_none() {
        let t = sample();
        let f = FrozenTable::freeze(&t);
        assert_eq!(f.numeric(0, 1), None);
        assert_eq!(f.categorical(0, 0), None);
        assert_eq!(f.embedding(0, 1), None);
    }

    #[test]
    fn empty_set_stays_present() {
        let t = sample();
        let f = FrozenTable::freeze(&t);
        assert_eq!(f.categorical(2, 1), Some(&[][..]));
        assert!(f.is_present(2, 1));
        assert!(!f.is_present(1, 1));
    }
}
