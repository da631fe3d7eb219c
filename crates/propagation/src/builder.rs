//! k-NN similarity-graph construction.

use cm_featurespace::{FeatureTable, FrozenTable, PairKernel, SimilarityConfig};
use cm_linalg::rng::SliceRandom;
use cm_linalg::rng::StdRng;
use cm_par::ParConfig;

use crate::graph::SparseGraph;

/// Minimum rows per chunk for the parallel similarity scans. Part of the
/// chunk plan, so it must not depend on the thread count.
const KNN_MIN_ROWS_PER_CHUNK: usize = 16;

/// Neighbor-search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnMethod {
    /// Exact all-pairs search; O(n²) similarities. Fine below ~10 k rows.
    Exact,
    /// Anchor-based approximate search (a single-machine stand-in for
    /// Expander's distributed build): rows are routed to their `probes`
    /// most-similar anchors out of `n_anchors` sampled rows, and exact
    /// similarities are computed only against co-routed rows, capped at
    /// `max_candidates` per row.
    Anchors {
        /// Number of anchor rows sampled.
        n_anchors: usize,
        /// Anchors each row is routed to.
        probes: usize,
        /// Cap on exact comparisons per row.
        max_candidates: usize,
    },
}

/// Builds k-NN graphs over a feature table.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    /// Neighbors kept per row.
    pub k: usize,
    /// Search strategy.
    pub method: KnnMethod,
    /// Minimum similarity for an edge to exist at all.
    pub min_weight: f64,
}

impl GraphBuilder {
    /// Exact builder with a weight floor of 0.05.
    pub fn exact(k: usize) -> Self {
        Self { k, method: KnnMethod::Exact, min_weight: 0.05 }
    }

    /// Approximate builder with defaults scaled to `n` rows.
    pub fn approximate(k: usize, n: usize) -> Self {
        let n_anchors = ((n as f64).sqrt() as usize).clamp(16, 512);
        Self {
            k,
            method: KnnMethod::Anchors { n_anchors, probes: 4, max_candidates: 256 },
            min_weight: 0.05,
        }
    }

    /// Builds the graph. `seed` only matters for the anchor method.
    pub fn build(&self, table: &FeatureTable, config: &SimilarityConfig, seed: u64) -> SparseGraph {
        // lint: allow(par-from-env) — the perfbench adapter calls GraphBuilder::build
        self.build_with(table, config, seed, &ParConfig::from_env())
    }

    /// [`GraphBuilder::build`] with an explicit parallel configuration.
    ///
    /// Freezes the table and compiles the similarity configuration into a
    /// [`PairKernel`] once, then scans with it. Row chunks scan for
    /// neighbors independently and their edge lists concatenate in chunk
    /// index order, so the graph is identical for any thread count; the
    /// kernel performs the reference arithmetic in the reference order, so
    /// the weights are bit-identical to the pre-kernel builder.
    pub fn build_with(
        &self,
        table: &FeatureTable,
        config: &SimilarityConfig,
        seed: u64,
        par: &ParConfig,
    ) -> SparseGraph {
        let frozen = FrozenTable::freeze(table);
        let n = frozen.len();
        let kernel = PairKernel::compile(&frozen, config);
        let par = par.clone().with_min_chunk(KNN_MIN_ROWS_PER_CHUNK);
        let edges = if self.uses_exact(n) {
            self.build_exact(n, &kernel, &par)
        } else {
            let KnnMethod::Anchors { n_anchors, probes, max_candidates } = self.method else {
                unreachable!("non-exact path implies the anchor method")
            };
            self.build_anchors(n, &kernel, n_anchors, probes, max_candidates, seed, &par)
        };
        SparseGraph::from_edges(n, &edges)
    }

    /// Whether a corpus of `n` rows takes the exact all-pairs path (either
    /// by method choice or the small-input fallback). Sharded builds must
    /// make the same choice from the same `n`, so this is the one place
    /// the decision lives.
    pub fn uses_exact(&self, n: usize) -> bool {
        match self.method {
            KnnMethod::Exact => true,
            // Too small for anchors to pay off; fall back to exact.
            KnnMethod::Anchors { n_anchors, .. } => n <= n_anchors * 4,
        }
    }

    fn build_exact(
        &self,
        n: usize,
        kernel: &PairKernel<'_>,
        par: &ParConfig,
    ) -> Vec<(u32, u32, f32)> {
        let chunks = cm_par::par_map_chunks(par, n, |range| {
            let mut edges = Vec::new();
            for i in range {
                let mut top = TopK::new(self.k);
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let s = kernel.pair(i, j);
                    if s >= self.min_weight {
                        top.push(j as u32, s as f32);
                    }
                }
                top.drain_into(i as u32, &mut edges);
            }
            edges
        })
        .unwrap_or_else(|e| e.resume());
        chunks.into_iter().flatten().collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn build_anchors(
        &self,
        n: usize,
        kernel: &PairKernel<'_>,
        n_anchors: usize,
        probes: usize,
        max_candidates: usize,
        seed: u64,
        par: &ParConfig,
    ) -> Vec<(u32, u32, f32)> {
        let anchor_ids = anchor_plan(n, n_anchors, seed);

        // Route every row to its top `probes` anchors. Rows route
        // independently, so the parallel map is order-preserving.
        let mut anchor_members: Vec<Vec<u32>> = vec![Vec::new(); n_anchors];
        let routes: Vec<Vec<usize>> = cm_par::par_map(par, n, |i| {
            let scores: Vec<f64> = anchor_ids.iter().map(|&row| kernel.pair(i, row)).collect();
            route_row(&scores, probes)
        })
        .unwrap_or_else(|e| e.resume());
        for (i, route) in routes.iter().enumerate() {
            for &a in route {
                anchor_members[a].push(i as u32);
            }
        }
        // Scan each row's co-routed candidates; chunk edge lists
        // concatenate in chunk index order.
        let chunks = cm_par::par_map_chunks(par, n, |range| {
            let mut edges = Vec::new();
            let mut candidates: Vec<u32> = Vec::new();
            for i in range {
                candidates.clear();
                for &a in &routes[i] {
                    candidates.extend_from_slice(&anchor_members[a]);
                }
                candidates.sort_unstable();
                candidates.dedup();
                let stride = candidate_stride(candidates.len(), max_candidates);
                let mut top = TopK::new(self.k);
                for &j in candidates.iter().step_by(stride) {
                    if j as usize == i {
                        continue;
                    }
                    let s = kernel.pair(i, j as usize);
                    if s >= self.min_weight {
                        top.push(j, s as f32);
                    }
                }
                top.drain_into(i as u32, &mut edges);
            }
            edges
        })
        .unwrap_or_else(|e| e.resume());
        chunks.into_iter().flatten().collect()
    }
}

/// The anchor rows the approximate method samples for a corpus of `n`
/// rows: a seeded shuffle of all row ids, truncated to `n_anchors`.
/// Depends only on `(n, n_anchors, seed)`, so a sharded build derives the
/// identical plan without holding the corpus.
pub fn anchor_plan(n: usize, n_anchors: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut anchor_ids: Vec<usize> = (0..n).collect();
    anchor_ids.shuffle(&mut rng);
    anchor_ids.truncate(n_anchors);
    anchor_ids
}

/// Routes one row to its top `probes` anchor slots given the row's
/// similarity to each anchor, in anchor-slot order. The sort is stable and
/// descending by similarity, so ties keep ascending slot order — sharded
/// routing must reproduce exactly this ranking.
pub fn route_row(scores: &[f64], probes: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    scored.sort_by(|x, y| y.1.total_cmp(&x.1));
    scored.truncate(probes);
    scored.into_iter().map(|(a, _)| a).collect()
}

/// Stride that subsamples a candidate bucket down to the `max_candidates`
/// cap (huge buckets stay bounded; small ones scan fully).
pub fn candidate_stride(n_candidates: usize, max_candidates: usize) -> usize {
    (n_candidates / max_candidates.max(1)).max(1)
}

/// Small fixed-capacity top-k accumulator, kept sorted descending by
/// weight. Insertion order breaks ties (earlier wins), so feeding
/// candidates in the resident scan order reproduces the resident edges.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    items: Vec<(u32, f32)>,
}

impl TopK {
    /// An empty accumulator keeping the best `k` entries.
    pub fn new(k: usize) -> Self {
        Self { k, items: Vec::with_capacity(k + 1) }
    }

    /// Offers one candidate.
    pub fn push(&mut self, id: u32, w: f32) {
        if self.items.len() == self.k {
            // items kept sorted descending; last is the weakest.
            if w <= self.items[self.k - 1].1 {
                return;
            }
            self.items.pop();
        }
        let pos = self.items.partition_point(|&(_, x)| x >= w);
        self.items.insert(pos, (id, w));
    }

    /// Appends the kept entries as `(src, dst, weight)` edges, best first.
    pub fn drain_into(self, src: u32, edges: &mut Vec<(u32, u32, f32)>) {
        for (dst, w) in self.items {
            edges.push((src, dst, w));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, ServingMode, Vocabulary,
    };

    use super::*;

    /// Two clean clusters: rows < n/2 share ids {0,1}; the rest share {2,3}.
    fn clustered(n: usize) -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names(["a", "b", "c", "d"]),
        )]));
        let mut t = FeatureTable::new(schema);
        for i in 0..n {
            let ids = if i < n / 2 { vec![0, 1] } else { vec![2, 3] };
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(ids))]);
        }
        t
    }

    #[test]
    fn exact_knn_links_within_clusters() {
        let t = clustered(40);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let g = GraphBuilder::exact(5).build(&t, &cfg, 0);
        for v in 0..40 {
            let (neigh, w) = g.neighbors(v);
            assert!(!neigh.is_empty());
            for (&u, &wt) in neigh.iter().zip(w) {
                assert_eq!((v < 20), ((u as usize) < 20), "cross-cluster edge {v}-{u}");
                assert!((wt - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn k_limits_out_edges_before_symmetrization() {
        let t = clustered(40);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let g = GraphBuilder::exact(3).build(&t, &cfg, 0);
        // Post-symmetrization degree can exceed k, but total edge count is
        // bounded by n * k.
        assert!(g.n_edges() <= 40 * 3);
    }

    #[test]
    fn min_weight_prunes_weak_edges() {
        let t = clustered(10);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut b = GraphBuilder::exact(9);
        b.min_weight = 1.1; // nothing qualifies
        let g = b.build(&t, &cfg, 0);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn anchors_fall_back_to_exact_on_small_inputs() {
        let t = clustered(30);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let approx = GraphBuilder {
            k: 4,
            method: KnnMethod::Anchors { n_anchors: 16, probes: 2, max_candidates: 64 },
            min_weight: 0.05,
        }
        .build(&t, &cfg, 1);
        let exact = GraphBuilder::exact(4).build(&t, &cfg, 1);
        assert_eq!(approx, exact);
    }

    #[test]
    fn anchor_method_recovers_cluster_structure() {
        let t = clustered(600);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let g = GraphBuilder {
            k: 5,
            method: KnnMethod::Anchors { n_anchors: 32, probes: 3, max_candidates: 64 },
            min_weight: 0.05,
        }
        .build(&t, &cfg, 2);
        let mut cross = 0usize;
        let mut total = 0usize;
        for v in 0..600 {
            let (neigh, _) = g.neighbors(v);
            for &u in neigh {
                total += 1;
                if (v < 300) != ((u as usize) < 300) {
                    cross += 1;
                }
            }
        }
        assert!(total > 0);
        assert_eq!(cross, 0, "{cross}/{total} cross-cluster edges");
    }

    #[test]
    fn builder_is_deterministic() {
        let t = clustered(200);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let b = GraphBuilder::approximate(4, 200);
        assert_eq!(b.build(&t, &cfg, 7), b.build(&t, &cfg, 7));
    }

    #[test]
    fn graphs_are_identical_across_thread_counts() {
        let t = clustered(300);
        let cfg = SimilarityConfig::uniform(vec![0]);
        for b in [GraphBuilder::exact(4), GraphBuilder::approximate(4, 300)] {
            let base = b.build_with(&t, &cfg, 7, &ParConfig::threads(1));
            for threads in [2usize, 4, 8] {
                let g = b.build_with(&t, &cfg, 7, &ParConfig::threads(threads));
                assert_eq!(g, base, "method {:?}, threads = {threads}", b.method);
            }
        }
    }

    #[test]
    fn topk_keeps_best() {
        let mut top = TopK::new(2);
        top.push(1, 0.1);
        top.push(2, 0.9);
        top.push(3, 0.5);
        top.push(4, 0.05);
        let mut edges = Vec::new();
        top.drain_into(0, &mut edges);
        let ids: Vec<u32> = edges.iter().map(|e| e.1).collect();
        assert_eq!(ids, vec![2, 3]);
    }
}
