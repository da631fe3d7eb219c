//! Online k-NN graph maintenance for the incremental serving loop.
//!
//! The batch [`GraphBuilder`](crate::GraphBuilder) rebuilds the whole
//! graph from scratch; a long-running curation service cannot afford that
//! on every arrival batch. [`OnlineGraph`] instead *grows* an anchor-based
//! approximate graph: each new row is routed to its nearest existing
//! anchors, scanned only against co-routed rows, and — while the anchor
//! pool is below its size target — promoted to an anchor itself so later
//! arrivals keep routing well as the corpus grows.
//!
//! Two contracts matter for serving:
//!
//! - **Cut invariance**: inserting rows one at a time, or in arrival
//!   batches of any size, produces the identical edge list. Rows are
//!   inserted strictly sequentially (each sees exactly the anchors and
//!   members left by its predecessors), so batch boundaries are invisible
//!   by construction — and so is the thread count.
//! - **Resumability**: the graph's durable state is one record per row:
//!   the anchor indices the row was routed to and the edges it added
//!   ([`OnlineGraphState`]). Whether a row is promoted to an anchor
//!   depends only on its index, so the anchor and member lists are
//!   rebuilt from the routes alone. A checkpoint base is the record of
//!   every row since row 0 ([`OnlineGraph::snapshot`]), a delta the
//!   record since the last export ([`OnlineGraph::export_delta`]), and
//!   merging records in order ([`OnlineGraphState::merge`]) only appends.
//!   A graph restored from the merged record continues bit-identically to
//!   one that never stopped.
//!
//! Earlier rows are never re-routed when a new anchor appears — that is
//! the accepted approximation cost of avoiding full rebuilds, mirroring
//! how Expander-style systems absorb incremental updates between offline
//! rebuilds.

use cm_featurespace::{CmError, CmResult, ErrorKind, FrozenTable, PairKernel, SimilarityConfig};

use crate::builder::{candidate_stride, route_row, TopK};
use crate::graph::SparseGraph;

/// Anchor-pool size target for a corpus of `n` rows. Matches the batch
/// builder's [`GraphBuilder::approximate`](crate::GraphBuilder::approximate)
/// sizing so online and batch graphs face comparable routing fan-out.
pub fn target_anchor_count(n: usize) -> usize {
    ((n as f64).sqrt() as usize).clamp(16, 512)
}

/// Anchors that exist when row `row` is inserted. Row `i` is promoted
/// while `anchors < target_anchor_count(i + 1)`; the target starts at 16
/// and grows by at most one per row, so the count is every row up to 16
/// and the target after that.
fn anchors_before(row: usize) -> usize {
    row.min(target_anchor_count(row))
}

/// One checkpoint record of an [`OnlineGraph`]: the rows inserted from
/// `start_row` on, each with its route, and the edges they added. A record
/// from row 0 is the whole graph. Serialized into the serve checkpoint by
/// `cm-serve`'s snapshot module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineGraphState {
    /// Rows inserted before this record's first row.
    pub start_row: usize,
    /// Per row `start_row + i`: the anchor indices it was routed to.
    pub routes: Vec<Vec<u32>>,
    /// `(src, dst, weight)` edges the rows added; `src` is always the
    /// newer row, symmetrization happens when the [`SparseGraph`] is built.
    pub edges: Vec<(u32, u32, f32)>,
}

impl OnlineGraphState {
    /// Rows inserted once this record is applied.
    pub fn end_row(&self) -> usize {
        self.start_row + self.routes.len()
    }

    /// Appends the next record. Merging a run's records in export order
    /// onto an empty record reproduces the live graph's
    /// [`OnlineGraph::snapshot`] bit for bit.
    ///
    /// # Errors
    /// Fails, leaving `self` unchanged, when `next` does not start where
    /// this record ends, routes a row to an anchor that did not exist yet,
    /// or holds an edge whose source is not one of its rows or whose
    /// target is not an earlier row.
    pub fn merge(&mut self, next: OnlineGraphState) -> CmResult<()> {
        let bad = |message: String| {
            Err(CmError::new(ErrorKind::OutOfBounds, "OnlineGraphState::merge", message))
        };
        let start = self.end_row();
        if next.start_row != start {
            return bad(format!("record starts at row {}, graph has {start}", next.start_row));
        }
        let end = next.end_row();
        for (row, route) in (start..).zip(&next.routes) {
            let anchors = anchors_before(row);
            if let Some(a) = route.iter().find(|&&a| a as usize >= anchors) {
                return bad(format!("row {row} routed to anchor {a} of {anchors}"));
            }
        }
        let misplaced = |&&(src, dst, _): &&(u32, u32, f32)| {
            !(start..end).contains(&(src as usize)) || dst >= src
        };
        if let Some((src, dst, _)) = next.edges.iter().find(misplaced) {
            return bad(format!("edge {src} -> {dst} outside rows {start}..{end}"));
        }
        self.routes.extend(next.routes);
        self.edges.extend(next.edges);
        Ok(())
    }
}

/// Incrementally grown approximate k-NN graph.
#[derive(Debug, Clone)]
pub struct OnlineGraph {
    /// Neighbors kept per inserted row.
    pub k: usize,
    /// Anchors each new row is routed to.
    pub probes: usize,
    /// Cap on exact comparisons per inserted row.
    pub max_candidates: usize,
    /// Minimum similarity for an edge to exist at all.
    pub min_weight: f64,
    /// Per inserted row, the anchor indices it was routed to.
    routes: Vec<Vec<u32>>,
    edges: Vec<(u32, u32, f32)>,
    /// Row ids promoted to anchors, in promotion order, and per anchor the
    /// rows routed to it: an index rebuilt from `routes`.
    anchors: Vec<u32>,
    anchor_members: Vec<Vec<u32>>,
    /// Rows and edges covered by the last durable record.
    mark_rows: usize,
    mark_edges: usize,
}

impl OnlineGraph {
    /// An empty graph keeping `k` neighbors per row, with the batch
    /// builder's default routing parameters (4 probes, 256 candidates,
    /// weight floor 0.05).
    pub fn new(k: usize) -> Self {
        OnlineGraph {
            k,
            probes: 4,
            max_candidates: 256,
            min_weight: 0.05,
            routes: Vec::new(),
            edges: Vec::new(),
            anchors: Vec::new(),
            anchor_members: Vec::new(),
            mark_rows: 0,
            mark_edges: 0,
        }
    }

    /// Rows inserted so far.
    pub fn n_rows(&self) -> usize {
        self.routes.len()
    }

    /// Current anchor-pool size.
    pub fn n_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// Accumulated edge count (pre-symmetrization).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Inserts every row the frozen table holds beyond the rows already
    /// inserted. The table must be a prefix-stable view of the growing
    /// corpus: rows `0..self.n_rows()` are the previously inserted ones,
    /// in the same order.
    ///
    /// # Panics
    /// Panics if the table has fewer rows than were already inserted.
    pub fn insert_rows(&mut self, frozen: &FrozenTable<'_>, config: &SimilarityConfig) {
        assert!(
            frozen.len() >= self.n_rows(),
            "frozen table shrank below the inserted prefix ({} < {})",
            frozen.len(),
            self.n_rows()
        );
        if frozen.len() == self.n_rows() {
            return;
        }
        let kernel = PairKernel::compile(frozen, config);
        for i in self.n_rows()..frozen.len() {
            self.insert_row(&kernel, i);
        }
    }

    fn insert_row(&mut self, kernel: &PairKernel<'_>, i: usize) {
        let scores: Vec<f64> = self.anchors.iter().map(|&a| kernel.pair(i, a as usize)).collect();
        let route = route_row(&scores, self.probes);
        let mut candidates: Vec<u32> = Vec::new();
        for &a in &route {
            candidates.extend_from_slice(&self.anchor_members[a]);
        }
        candidates.sort_unstable();
        candidates.dedup();
        let stride = candidate_stride(candidates.len(), self.max_candidates);
        let mut top = TopK::new(self.k);
        for &j in candidates.iter().step_by(stride) {
            let s = kernel.pair(i, j as usize);
            if s >= self.min_weight {
                top.push(j, s as f32);
            }
        }
        top.drain_into(i as u32, &mut self.edges);
        self.push_route(route.into_iter().map(|a| a as u32).collect());
    }

    /// Records the next row's route: the row joins each routed anchor's
    /// members and, while the anchor pool is below its size target, is
    /// promoted to an anchor itself. Existing rows are never re-routed.
    fn push_route(&mut self, route: Vec<u32>) {
        let i = self.routes.len();
        for &a in &route {
            self.anchor_members[a as usize].push(i as u32);
        }
        if self.anchors.len() < target_anchor_count(i + 1) {
            self.anchors.push(i as u32);
            self.anchor_members.push(vec![i as u32]);
        }
        self.routes.push(route);
    }

    /// Materializes the current graph (symmetrized CSR over all inserted
    /// rows). Rebuilding from the same edge list is deterministic, so the
    /// propagation stage sees identical graphs before and after a resume.
    pub fn graph(&self) -> SparseGraph {
        SparseGraph::from_edges(self.n_rows(), &self.edges)
    }

    fn record_since(&self, rows: usize, edges: usize) -> OnlineGraphState {
        OnlineGraphState {
            start_row: rows,
            routes: self.routes[rows..].to_vec(),
            edges: self.edges[edges..].to_vec(),
        }
    }

    /// The record of every row inserted so far: the whole graph. Does not
    /// move the durable mark — pair with [`OnlineGraph::mark_durable`]
    /// when the record becomes a new delta-log base.
    pub fn snapshot(&self) -> OnlineGraphState {
        self.record_since(0, 0)
    }

    /// Declares everything inserted so far durable: the next
    /// [`OnlineGraph::export_delta`] reports only rows inserted after this
    /// call.
    pub fn mark_durable(&mut self) {
        self.mark_rows = self.routes.len();
        self.mark_edges = self.edges.len();
    }

    /// The record of every row inserted since the last durable point —
    /// cost proportional to the growth, not the graph — and advances the
    /// mark.
    pub fn export_delta(&mut self) -> OnlineGraphState {
        let record = self.record_since(self.mark_rows, self.mark_edges);
        self.mark_durable();
        record
    }

    /// Rebuilds a graph from a record of every row since row 0 (the fold
    /// of a checkpoint's records); insertion resumes exactly where the
    /// record ends. The routing parameters are not part of the record and
    /// must match the original graph's.
    ///
    /// # Panics
    /// Panics if the record does not start at row 0 or routes a row to an
    /// anchor that did not exist yet ([`OnlineGraphState::merge`] checks
    /// both).
    pub fn from_snapshot(k: usize, state: OnlineGraphState) -> Self {
        assert_eq!(state.start_row, 0, "graph record does not start at row 0");
        let mut g = OnlineGraph::new(k);
        for route in state.routes {
            g.push_route(route);
        }
        g.edges = state.edges;
        // Restored state came from a durable record: only growth past it
        // belongs in the next delta.
        g.mark_durable();
        g
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

    /// Interleaved clusters, so any contiguous arrival batch mixes both.
    fn interleaved(n: usize) -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names(["a", "b", "c", "d"]),
        )]));
        let mut t = FeatureTable::new(schema);
        for i in 0..n {
            let ids = if i % 2 == 0 { vec![0, 1] } else { vec![2, 3] };
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(ids))]);
        }
        t
    }

    /// The first `end` rows of `t` as their own table, simulating the
    /// corpus as it looked mid-arrival.
    fn prefix_table(t: &FeatureTable, end: usize) -> FeatureTable {
        let mut prefix = FeatureTable::new(t.schema().clone());
        for r in 0..end {
            prefix.push_row(&t.row(r));
        }
        prefix
    }

    fn insert_in_cuts(t: &FeatureTable, cfg: &SimilarityConfig, cuts: &[usize]) -> OnlineGraph {
        let mut g = OnlineGraph::new(4);
        for &end in cuts.iter().chain([&t.len()]) {
            let prefix = prefix_table(t, end);
            g.insert_rows(&FrozenTable::freeze(&prefix), cfg);
        }
        g
    }

    #[test]
    fn batch_cuts_are_invisible() {
        let t = interleaved(120);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let frozen = FrozenTable::freeze(&t);
        let mut whole = OnlineGraph::new(4);
        whole.insert_rows(&frozen, &cfg);
        for cuts in [vec![1usize], vec![64], vec![10, 30, 90], vec![120]] {
            let g = insert_in_cuts(&t, &cfg, &cuts);
            assert_eq!(g.snapshot(), whole.snapshot(), "cuts = {cuts:?}");
        }
    }

    #[test]
    fn online_graph_recovers_cluster_structure() {
        let t = clustered(400);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let frozen = FrozenTable::freeze(&t);
        let mut og = OnlineGraph::new(5);
        og.insert_rows(&frozen, &cfg);
        let g = og.graph();
        let mut cross = 0usize;
        let mut total = 0usize;
        for v in 0..400 {
            let (neigh, _) = g.neighbors(v);
            for &u in neigh {
                total += 1;
                if (v < 200) != ((u as usize) < 200) {
                    cross += 1;
                }
            }
        }
        assert!(total > 0);
        assert_eq!(cross, 0, "{cross}/{total} cross-cluster edges");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let t = interleaved(200);
        let cfg = SimilarityConfig::uniform(vec![0]);
        // Uninterrupted run.
        let frozen = FrozenTable::freeze(&t);
        let mut whole = OnlineGraph::new(4);
        whole.insert_rows(&frozen, &cfg);
        // Run to row 80, snapshot, restore into a fresh graph, continue.
        let mut first = OnlineGraph::new(4);
        first.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 80)), &cfg);
        let state = first.snapshot();
        let mut resumed = OnlineGraph::from_snapshot(4, state);
        resumed.insert_rows(&frozen, &cfg);
        assert_eq!(resumed.snapshot(), whole.snapshot());
        assert_eq!(resumed.graph(), whole.graph());
    }

    #[test]
    fn anchor_pool_tracks_size_target() {
        let t = clustered(600);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut og = OnlineGraph::new(4);
        og.insert_rows(&FrozenTable::freeze(&t), &cfg);
        assert_eq!(og.n_anchors(), target_anchor_count(600));
    }

    /// The record check's anchor count equals the live graph's at every
    /// row, across the 16-anchor floor and several target steps.
    #[test]
    fn anchors_before_matches_the_live_promotion_rule() {
        let t = interleaved(700);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut og = OnlineGraph::new(4);
        for end in 0..=t.len() {
            og.insert_rows(&FrozenTable::freeze(&prefix_table(&t, end)), &cfg);
            assert_eq!(og.n_anchors(), anchors_before(end), "after {end} rows");
        }
    }

    #[test]
    fn delta_replay_reproduces_the_snapshot_exactly() {
        let t = interleaved(200);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut g = OnlineGraph::new(4);
        // Base at row 40 folded onto an empty record, then per-batch
        // deltas merged onto it.
        g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 40)), &cfg);
        let mut replayed = OnlineGraphState::default();
        replayed.merge(g.snapshot()).expect("base continues the empty record");
        g.mark_durable();
        for end in [55usize, 90, 130, 131, 200] {
            g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, end)), &cfg);
            replayed.merge(g.export_delta()).expect("delta continues the base");
            assert_eq!(replayed, g.snapshot(), "after replaying up to row {end}");
        }
    }

    #[test]
    fn export_delta_is_empty_after_no_growth() {
        let t = clustered(80);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut g = OnlineGraph::new(4);
        g.insert_rows(&FrozenTable::freeze(&t), &cfg);
        let _ = g.export_delta();
        let idle = g.export_delta();
        assert!(idle.routes.is_empty());
        assert!(idle.edges.is_empty());
        assert_eq!(idle.start_row, 80);
    }

    #[test]
    fn restored_graph_deltas_match_uninterrupted_ones() {
        let t = interleaved(160);
        let cfg = SimilarityConfig::uniform(vec![0]);
        // Uninterrupted: base at 60, one delta covering 60..160.
        let mut live = OnlineGraph::new(4);
        live.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 60)), &cfg);
        live.mark_durable();
        live.insert_rows(&FrozenTable::freeze(&t), &cfg);
        let live_delta = live.export_delta();
        // Crashed-and-restored from the row-60 snapshot.
        let mut first = OnlineGraph::new(4);
        first.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 60)), &cfg);
        let mut resumed = OnlineGraph::from_snapshot(4, first.snapshot());
        resumed.insert_rows(&FrozenTable::freeze(&t), &cfg);
        assert_eq!(resumed.export_delta(), live_delta);

        // A base written after deltas moved the mark: row 60 went out as a
        // delta, the row-100 base is a fresh snapshot.
        let mut live = OnlineGraph::new(4);
        live.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 60)), &cfg);
        let _ = live.export_delta();
        live.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 100)), &cfg);
        let base = live.snapshot();
        live.mark_durable();
        let mut resumed = OnlineGraph::from_snapshot(4, base);
        assert_eq!(resumed.snapshot(), live.snapshot());
        assert_eq!(resumed.graph(), live.graph());
        live.insert_rows(&FrozenTable::freeze(&t), &cfg);
        resumed.insert_rows(&FrozenTable::freeze(&t), &cfg);
        assert_eq!(resumed.export_delta(), live.export_delta());
    }

    #[test]
    fn merge_rejects_records_that_do_not_continue_the_graph() {
        let t = interleaved(60);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut g = OnlineGraph::new(4);
        g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 40)), &cfg);
        let base = g.export_delta();
        g.insert_rows(&FrozenTable::freeze(&t), &cfg);
        let delta = g.export_delta();
        let mut gap = delta.clone();
        gap.start_row += 1;
        let mut early_anchor = delta.clone();
        // Row 40 sees 16 anchors (target floor), so index 16 is unborn.
        early_anchor.routes[0] = vec![16];
        let mut foreign_edge = delta.clone();
        foreign_edge.edges.push((39, 0, 0.5));
        let mut future_edge = delta.clone();
        future_edge.edges.push((45, 50, 0.5));
        for bad in [gap, early_anchor, foreign_edge, future_edge] {
            let mut state = OnlineGraphState::default();
            state.merge(base.clone()).expect("base");
            let before = state.clone();
            assert_eq!(
                state.merge(bad.clone()).map_err(|e| e.kind),
                Err(ErrorKind::OutOfBounds),
                "{bad:?}"
            );
            assert_eq!(state, before, "a rejected record must not change the state");
            state.merge(delta.clone()).expect("the honest delta still applies");
            assert_eq!(state, g.snapshot());
        }
    }

    #[test]
    fn empty_insert_is_a_no_op() {
        let t = clustered(50);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut og = OnlineGraph::new(4);
        let frozen = FrozenTable::freeze(&t);
        og.insert_rows(&frozen, &cfg);
        let before = og.snapshot();
        og.insert_rows(&frozen, &cfg);
        assert_eq!(og.snapshot(), before);
    }
}
