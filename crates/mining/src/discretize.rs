//! Quantile discretization of numeric features, so threshold rules can be
//! mined like categorical values.

use cm_featurespace::FeatureTable;

/// Quantile-binned view of one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct Discretizer {
    /// Source column.
    pub column: usize,
    /// Interior bin edges (ascending); `edges.len() + 1` bins.
    pub edges: Vec<f64>,
}

impl Discretizer {
    /// Fits `n_bins` quantile bins over the present values of `column`.
    /// Duplicate edges (heavy ties) are collapsed, so the effective bin
    /// count may be smaller. Returns `None` if the column has no present
    /// values.
    ///
    /// # Panics
    /// Panics if `n_bins < 2`.
    pub fn fit(table: &FeatureTable, column: usize, n_bins: usize) -> Option<Self> {
        let values: Vec<f64> = (0..table.len()).filter_map(|r| table.numeric(r, column)).collect();
        Self::fit_values(column, values, n_bins)
    }

    /// Fits quantile bins from a pre-collected value vector — what the item
    /// catalog's one pass over a frozen column calls. `fit` on a whole
    /// table is exactly this on the values collected in row order; the
    /// quantile edges depend only on the sorted multiset, so any collection
    /// order yields identical bins. Returns `None` on an empty vector.
    ///
    /// # Panics
    /// Panics if `n_bins < 2`.
    pub fn fit_values(column: usize, mut values: Vec<f64>, n_bins: usize) -> Option<Self> {
        assert!(n_bins >= 2, "need at least two bins");
        if values.is_empty() {
            return None;
        }
        values.sort_unstable_by(f64::total_cmp);
        let mut edges = Vec::with_capacity(n_bins - 1);
        for k in 1..n_bins {
            let idx = (k * values.len()) / n_bins;
            let edge = values[idx.min(values.len() - 1)];
            if edges.last() != Some(&edge) {
                edges.push(edge);
            }
        }
        Some(Self { column, edges })
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.edges.len() + 1
    }

    /// Bin index for a value.
    pub fn bin(&self, value: f64) -> u32 {
        self.edges.partition_point(|&e| e <= value) as u32
    }

    /// Inclusive value range of a bin: `(lower, upper)`, unbounded ends as
    /// `None`.
    pub fn bin_range(&self, bin: u32) -> (Option<f64>, Option<f64>) {
        let bin = bin as usize;
        let lower = if bin == 0 { None } else { Some(self.edges[bin - 1]) };
        let upper = self.edges.get(bin).copied();
        (lower, upper)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{FeatureDef, FeatureSchema, FeatureSet, FeatureValue, ServingMode};

    use super::*;

    fn table(values: &[Option<f64>]) -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::numeric(
            "n",
            FeatureSet::A,
            ServingMode::Servable,
        )]));
        let mut t = FeatureTable::new(schema);
        for v in values {
            t.push_row(&[v.map_or(FeatureValue::Missing, FeatureValue::Numeric)]);
        }
        t
    }

    #[test]
    fn quartiles_of_uniform_sequence() {
        let t = table(&(0..100).map(|i| Some(f64::from(i))).collect::<Vec<_>>());
        let d = Discretizer::fit(&t, 0, 4).unwrap();
        assert_eq!(d.n_bins(), 4);
        assert_eq!(d.bin(0.0), 0);
        assert_eq!(d.bin(30.0), 1);
        assert_eq!(d.bin(60.0), 2);
        assert_eq!(d.bin(99.0), 3);
    }

    #[test]
    fn bins_partition_the_line() {
        let t = table(&(0..50).map(|i| Some(f64::from(i) * 0.1)).collect::<Vec<_>>());
        let d = Discretizer::fit(&t, 0, 5).unwrap();
        // Every value falls in exactly one bin and bins are monotone.
        let mut prev = 0;
        for i in 0..50 {
            let b = d.bin(f64::from(i) * 0.1);
            assert!(b >= prev);
            assert!(b < d.n_bins() as u32);
            prev = b;
        }
    }

    #[test]
    fn ties_collapse_edges() {
        let t = table(&vec![Some(1.0); 100]);
        let d = Discretizer::fit(&t, 0, 4).unwrap();
        assert_eq!(d.n_bins(), 2); // single distinct edge survives
    }

    #[test]
    fn missing_only_column_yields_none() {
        let t = table(&[None, None]);
        assert!(Discretizer::fit(&t, 0, 4).is_none());
    }

    #[test]
    fn bin_ranges_cover_and_order() {
        let t = table(&(0..100).map(|i| Some(f64::from(i))).collect::<Vec<_>>());
        let d = Discretizer::fit(&t, 0, 4).unwrap();
        let (lo0, hi0) = d.bin_range(0);
        assert!(lo0.is_none());
        let (lo_last, hi_last) = d.bin_range(d.n_bins() as u32 - 1);
        assert!(hi_last.is_none());
        assert!(hi0.unwrap() <= lo_last.unwrap() || d.n_bins() == 2);
    }

    #[test]
    fn values_outside_training_range_clamp_to_end_bins() {
        let t = table(&(0..10).map(|i| Some(f64::from(i))).collect::<Vec<_>>());
        let d = Discretizer::fit(&t, 0, 2).unwrap();
        assert_eq!(d.bin(-100.0), 0);
        assert_eq!(d.bin(100.0), d.n_bins() as u32 - 1);
    }
}
