//! The order-1 item universe of a resident labeled corpus.
//!
//! The miner is vertical: it needs one row bitset per distinct item.
//! [`ItemCatalog::build`] makes the one pass over the frozen mining
//! columns that finds which categorical ids and numeric quantile bins
//! occur, fits the numeric discretizers, and fixes the item order
//! (column-list order, ascending value). [`ItemCatalog::bitsets`] then
//! sets one bit per corpus row per item. The two steps stay apart so a
//! caller can charge [`ItemCatalog::bitset_bytes`] to its memory budget
//! before the bitsets are allocated.

use cm_featurespace::{Bitmap, FrozenColumn, FrozenTable};

use crate::apriori::{Item, ItemValue};
use crate::discretize::Discretizer;

/// Value-to-item routing for one mining column.
#[derive(Debug, Clone)]
enum Lookup {
    /// Column is absent, not minable (embeddings), or has no values.
    Skip,
    Cat {
        id_to_item: Vec<Option<usize>>,
    },
    Num {
        disc_idx: usize,
        bin_to_item: Vec<Option<usize>>,
    },
}

/// The fixed order-1 item universe of a corpus: items in deterministic
/// (column-list order, ascending value) order, their fitted discretizers,
/// and the routing that fills their row bitsets.
#[derive(Debug, Clone)]
pub(crate) struct ItemCatalog {
    /// The items, in the order their bitsets are laid out.
    pub items: Vec<Item>,
    /// Fitted numeric discretizers, one per numeric column with values.
    pub discretizers: Vec<Discretizer>,
    columns: Vec<usize>,
    lookups: Vec<Lookup>,
    n_rows: usize,
}

impl ItemCatalog {
    /// Finds the items of `columns` in `frozen`. Out-of-table and
    /// embedding columns contribute no items; a numeric column's bins are
    /// quantiles of its present values.
    pub fn build(frozen: &FrozenTable<'_>, columns: &[usize], n_bins: usize) -> Self {
        let mut items = Vec::new();
        let mut discretizers = Vec::new();
        let mut lookups = Vec::with_capacity(columns.len());
        for &col in columns {
            let lookup = match (col < frozen.n_cols()).then(|| frozen.col(col)) {
                Some(FrozenColumn::Categorical { ids, .. }) => {
                    let mut seen = Vec::new();
                    for &id in *ids {
                        let id = id as usize;
                        if id >= seen.len() {
                            seen.resize(id + 1, false);
                        }
                        seen[id] = true;
                    }
                    Lookup::Cat { id_to_item: route(&mut items, col, &seen, ItemValue::Cat) }
                }
                Some(FrozenColumn::Numeric { values, present }) => {
                    let pool: Vec<f64> = values
                        .iter()
                        .enumerate()
                        .filter(|&(r, _)| present.get(r))
                        .map(|(_, &v)| v)
                        .collect();
                    match Discretizer::fit_values(col, pool.clone(), n_bins) {
                        None => Lookup::Skip,
                        Some(d) => {
                            let mut occurs = vec![false; d.n_bins()];
                            for &v in &pool {
                                occurs[d.bin(v) as usize] = true;
                            }
                            let bin_to_item = route(&mut items, col, &occurs, ItemValue::NumBin);
                            discretizers.push(d);
                            Lookup::Num { disc_idx: discretizers.len() - 1, bin_to_item }
                        }
                    }
                }
                _ => Lookup::Skip,
            };
            lookups.push(lookup);
        }
        ItemCatalog {
            items,
            discretizers,
            columns: columns.to_vec(),
            lookups,
            n_rows: frozen.len(),
        }
    }

    /// Corpus rows the catalog was built over.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Approximate size in bytes of the per-item bitsets
    /// [`ItemCatalog::bitsets`] allocates.
    pub fn bitset_bytes(&self) -> usize {
        self.items.len() * self.n_rows.div_ceil(64) * std::mem::size_of::<u64>()
    }

    /// One corpus-length row bitset per item, in item order.
    ///
    /// # Panics
    /// Panics if `frozen` is not the table the catalog was built over.
    pub fn bitsets(&self, frozen: &FrozenTable<'_>) -> Vec<Bitmap> {
        assert_eq!(frozen.len(), self.n_rows, "catalog built over another corpus");
        let mut bits = vec![Bitmap::zeros(self.n_rows); self.items.len()];
        for (lookup, &col) in self.lookups.iter().zip(&self.columns) {
            if matches!(lookup, Lookup::Skip) {
                continue;
            }
            match (lookup, frozen.col(col)) {
                (Lookup::Cat { id_to_item }, FrozenColumn::Categorical { offsets, ids, .. }) => {
                    for r in 0..self.n_rows {
                        for &id in &ids[offsets[r] as usize..offsets[r + 1] as usize] {
                            if let Some(Some(item)) = id_to_item.get(id as usize) {
                                bits[*item].set(r);
                            }
                        }
                    }
                }
                (
                    Lookup::Num { disc_idx, bin_to_item },
                    FrozenColumn::Numeric { values, present },
                ) => {
                    let d = &self.discretizers[*disc_idx];
                    for (r, &v) in values.iter().enumerate() {
                        if present.get(r) {
                            if let Some(Some(item)) = bin_to_item.get(d.bin(v) as usize) {
                                bits[*item].set(r);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        bits
    }
}

/// Appends an item to `items` for each value of `column` that occurs, in
/// ascending value order, and returns each value's item index.
fn route(
    items: &mut Vec<Item>,
    column: usize,
    occurs: &[bool],
    value: fn(u32) -> ItemValue,
) -> Vec<Option<usize>> {
    occurs
        .iter()
        .enumerate()
        .map(|(v, &o)| {
            o.then(|| {
                items.push(Item { column, value: value(v as u32) });
                items.len() - 1
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, ServingMode,
        Vocabulary,
    };

    use super::*;

    fn fixture(n: usize) -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::categorical(
                "c",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["a", "b", "z"]),
            ),
            FeatureDef::numeric("s", FeatureSet::A, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        for i in 0..n {
            let ids = match i % 5 {
                0 => vec![0],
                1 => vec![1, 2],
                2 => vec![2],
                _ => vec![0, 1],
            };
            let num = if i % 7 == 3 {
                FeatureValue::Missing
            } else {
                FeatureValue::Numeric((i % 13) as f64 * 0.5)
            };
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(ids)), num]);
        }
        t
    }

    /// Every item's bitset holds exactly the rows that carry its value.
    #[test]
    fn bitsets_mark_exactly_the_rows_holding_each_item() {
        let t = fixture(200);
        let frozen = FrozenTable::freeze(&t);
        let catalog = ItemCatalog::build(&frozen, &[0, 1], 4);
        let bits = catalog.bitsets(&frozen);
        assert_eq!(catalog.bitset_bytes(), bits.len() * 4 * 8);
        for (item, b) in catalog.items.iter().zip(&bits) {
            for r in 0..t.len() {
                let holds = match item.value {
                    ItemValue::Cat(id) => {
                        frozen.categorical(r, item.column).is_some_and(|ids| ids.contains(&id))
                    }
                    ItemValue::NumBin(bin) => frozen
                        .numeric(r, item.column)
                        .is_some_and(|v| catalog.discretizers[0].bin(v) == bin),
                };
                assert_eq!(b.get(r), holds, "{item:?} row {r}");
            }
        }
    }

    #[test]
    fn empty_corpus_yields_empty_catalog() {
        let t = fixture(0);
        let catalog = ItemCatalog::build(&FrozenTable::freeze(&t), &[0, 1], 4);
        assert!(catalog.items.is_empty());
        assert!(catalog.discretizers.is_empty());
        assert_eq!(catalog.n_rows(), 0);
        assert!(catalog.bitsets(&FrozenTable::freeze(&t)).is_empty());
    }

    #[test]
    fn out_of_schema_columns_are_skipped() {
        let t = fixture(20);
        let catalog = ItemCatalog::build(&FrozenTable::freeze(&t), &[0, 9], 4);
        assert!(catalog.items.iter().all(|i| i.column == 0));
    }
}
