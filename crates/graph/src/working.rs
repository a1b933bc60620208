//! The incremental working graph of the decomposition: a CSR overlay with
//! per-edge tombstones, per-vertex live-degree counters, and self-loop
//! compensation tracked as **counts** rather than materialized edges.
//!
//! Theorem 1 maintains a working graph in which every removed edge
//! `{u, v}` is replaced by one self loop at `u` and one at `v`, so degrees
//! never change. The original implementation rebuilt the whole CSR on
//! every removal (`O(n + m)` per `try_remove` call — the quadratic wall
//! the ROADMAP tracked). [`WorkingGraph`] instead snapshots the base CSR
//! once and then:
//!
//! * removal of `k` edges costs `O(k·log Δ)` — one binary search per
//!   directed slot, a tombstone flip, a live-degree decrement, and a loop
//!   counter bump;
//! * insertion of `k` edges costs `O(k·(log Δ + row))` — a dead slot is
//!   resurrected when the base CSR ever held a copy, otherwise the edge
//!   lands in a per-vertex sorted **insert-overlay row** (`extra`);
//! * every read (`degree`, [`WorkingGraph::live_neighbors`], subgraph
//!   extraction via [`crate::view::Subgraph`]) merges the live base slots
//!   with the insert rows in place — nothing is ever copied back into a
//!   fresh `Graph`.
//!
//! # Invariants (the overlay contract, DESIGN.md §9 and §15)
//!
//! 1. **Symmetric tombstones.** The CSR stores each undirected edge as two
//!    directed slots; a removal kills exactly one live slot in each row,
//!    so `#live slots of v in row(u) == #live slots of u in row(v)` holds
//!    at all times (parallel edges lose copies one at a time).
//! 2. **Symmetric insert rows.** An inserted copy of `{u, v}` that cannot
//!    resurrect a dead slot pair appears exactly once in `extra[u]` and
//!    once in `extra[v]`, both rows kept sorted. Because base
//!    multiplicities and live counts are symmetric, dead-slot counts are
//!    too — resurrection always finds a pair.
//! 3. **Live-degree agreement.** `live_deg[v]` equals the number of live
//!    slots in `row(v)` plus `extra[v].len()`; `m()` equals half the total
//!    over all rows.
//! 4. **Degree preservation.** With compensation, `degree(v)` (live
//!    endpoints + loop count) is invariant under removal — exactly the
//!    paper's convention, checked bit-for-bit against a from-scratch
//!    [`Graph::remove_edges`] rebuild by `tests/working_graph.rs`. The
//!    same harness checks insert == rebuild identity via
//!    [`WorkingGraph::to_graph`].

use crate::cut::VertexSet;
use crate::{Graph, VertexId};

/// An incrementally editable overlay over a base [`Graph`] CSR. See the
/// [module docs](self) for the invariant contract.
///
/// # Example
///
/// ```
/// use graph::{Graph, working::WorkingGraph};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// let mut w = WorkingGraph::new(&g);
/// w.remove_edges([(1, 2)], true);
/// assert_eq!(w.m(), 3);
/// assert_eq!(w.degree(1), g.degree(1)); // loop compensation
/// assert_eq!(w.self_loops(1), 1);
/// assert_eq!(w.to_graph(), g.remove_edges([(1, 2)], true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkingGraph {
    /// CSR offsets (shared shape with the base graph; never changes).
    offsets: Vec<usize>,
    /// Flattened sorted neighbor rows (self loops excluded).
    adj: Vec<VertexId>,
    /// Tombstones: `alive[i]` tells whether directed slot `i` still counts.
    alive: Vec<bool>,
    /// Per-vertex sorted insert-overlay rows: copies of edges inserted
    /// after the snapshot that have no dead base slot to resurrect.
    extra: Vec<Vec<VertexId>>,
    /// Number of live slots per row (`deg(v)` without loops).
    live_deg: Vec<u32>,
    /// Self-loop count per vertex: base loops plus compensation.
    loops: Vec<u32>,
    /// Live non-loop undirected edge count.
    m: usize,
    /// Total self loops (base + compensation).
    total_loops: usize,
}

impl WorkingGraph {
    /// Snapshots `g` into an overlay with every edge live. `O(n + m)` —
    /// paid once per decomposition run instead of once per removal.
    pub fn new(g: &Graph) -> Self {
        WorkingGraph {
            offsets: g.offsets.clone(),
            adj: g.adj.clone(),
            alive: vec![true; g.adj.len()],
            extra: vec![Vec::new(); g.n()],
            live_deg: g.offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect(),
            loops: g.loops.clone(),
            m: g.m(),
            total_loops: g.total_self_loops(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Live non-loop undirected edge count.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total self loops (base + compensation).
    #[inline]
    pub fn total_self_loops(&self) -> usize {
        self.total_loops
    }

    /// Degree of `v`: live non-loop endpoints plus self loops (each loop
    /// counts 1, per the paper's convention). With compensation enabled
    /// this is invariant under removal.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.live_deg[v as usize] as usize + self.loops[v as usize] as usize
    }

    /// Number of live non-loop edge endpoints at `v`.
    #[inline]
    pub fn degree_without_loops(&self, v: VertexId) -> usize {
        self.live_deg[v as usize] as usize
    }

    /// Self loops at `v` (base + compensation).
    #[inline]
    pub fn self_loops(&self, v: VertexId) -> u32 {
        self.loops[v as usize]
    }

    /// `Vol(V) = 2·m + total self loops` over the live graph.
    #[inline]
    pub fn total_volume(&self) -> usize {
        2 * self.m + self.total_loops
    }

    /// Iterator over `v`'s **live** neighbors in ascending order (self
    /// loops excluded; parallel edges repeat): the live base slots merged
    /// with the sorted insert-overlay row. Reads through the overlay — no
    /// copy.
    pub fn live_neighbors(&self, v: VertexId) -> LiveNeighbors<'_> {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        LiveNeighbors {
            adj: &self.adj[lo..hi],
            alive: &self.alive[lo..hi],
            i: 0,
            extra: &self.extra[v as usize],
            j: 0,
        }
    }

    /// Iterator over the neighbors `v` has **lost** since the snapshot:
    /// its tombstoned base slots, ascending, parallel copies repeated. A
    /// re-inserted copy resurrects its slot and is not listed, so the
    /// count is net of delete-then-reinsert churn.
    pub fn deleted_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        let live_base = self.live_deg[v as usize] as usize - self.extra[v as usize].len();
        // Rows without a tombstone (almost all of them) are not scanned.
        let hi = if live_base == hi - lo { lo } else { hi };
        (lo..hi).filter(|&i| !self.alive[i]).map(|i| self.adj[i])
    }

    /// Whether at least one live copy of the non-loop edge `{u, v}` exists.
    /// `O(log Δ + multiplicity)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if (u as usize) >= self.n() || (v as usize) >= self.n() {
            return false;
        }
        if u == v {
            return self.loops[u as usize] > 0;
        }
        self.find_live_slot(u, v).is_some() || !self.extra_range(u, v).is_empty()
    }

    /// Live copies of `{u, v}` in the overlay: `loops[u]` when `u == v`,
    /// otherwise live base slots plus insert-row occurrences. Out-of-range
    /// pairs have multiplicity 0.
    pub fn multiplicity(&self, u: VertexId, v: VertexId) -> usize {
        if (u as usize) >= self.n() || (v as usize) >= self.n() {
            return 0;
        }
        if u == v {
            return self.loops[u as usize] as usize;
        }
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        let row = &self.adj[lo..hi];
        let mut i = lo + row.partition_point(|&x| x < v);
        let mut live = 0usize;
        while i < hi && self.adj[i] == v {
            if self.alive[i] {
                live += 1;
            }
            i += 1;
        }
        live + self.extra_range(u, v).len()
    }

    /// First live slot holding `v` inside `u`'s row, if any.
    fn find_live_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        let row = &self.adj[lo..hi];
        let mut i = lo + row.partition_point(|&x| x < v);
        while i < hi && self.adj[i] == v {
            if self.alive[i] {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// First tombstoned slot holding `v` inside `u`'s row, if any — the
    /// resurrection target for an insertion of a previously removed copy.
    fn find_dead_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        let row = &self.adj[lo..hi];
        let mut i = lo + row.partition_point(|&x| x < v);
        while i < hi && self.adj[i] == v {
            if !self.alive[i] {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Index range of `v`'s occurrences inside `u`'s insert-overlay row.
    fn extra_range(&self, u: VertexId, v: VertexId) -> std::ops::Range<usize> {
        let row = &self.extra[u as usize];
        let lo = row.partition_point(|&x| x < v);
        let hi = lo + row[lo..].partition_point(|&x| x == v);
        lo..hi
    }

    /// Inserts one copy of each listed edge. A copy whose base CSR row
    /// holds a tombstoned slot resurrects that slot pair (`O(log Δ)`);
    /// otherwise it lands in both endpoints' sorted insert-overlay rows.
    /// Self loops (`u == v`) bump the loop counter directly; out-of-range
    /// pairs are ignored (mirroring [`WorkingGraph::remove_edges`]).
    /// Returns how many copies were inserted.
    pub fn insert_edges<I>(&mut self, edges: I) -> usize
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut inserted = 0usize;
        let n = self.n();
        for (u, v) in edges {
            if (u as usize) >= n || (v as usize) >= n {
                continue;
            }
            if u == v {
                self.loops[u as usize] += 1;
                self.total_loops += 1;
                inserted += 1;
                continue;
            }
            if let Some(slot_u) = self.find_dead_slot(u, v) {
                let slot_v = self
                    .find_dead_slot(v, u)
                    .expect("symmetric dead-slot invariant");
                self.alive[slot_u] = true;
                self.alive[slot_v] = true;
            } else {
                let pos_u = self.extra[u as usize].partition_point(|&x| x <= v);
                self.extra[u as usize].insert(pos_u, v);
                let pos_v = self.extra[v as usize].partition_point(|&x| x <= u);
                self.extra[v as usize].insert(pos_v, u);
            }
            self.live_deg[u as usize] += 1;
            self.live_deg[v as usize] += 1;
            self.m += 1;
            inserted += 1;
        }
        inserted
    }

    /// Removes one live copy of each listed edge, `O(log Δ)` per edge.
    /// Absent edges are ignored (same contract as [`Graph::remove_edges`]).
    /// With `compensate_with_loops`, each removal adds one self loop at
    /// both endpoints so degrees are preserved. Returns how many edges
    /// were actually removed.
    pub fn remove_edges<I>(&mut self, edges: I, compensate_with_loops: bool) -> usize
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut removed = 0usize;
        let n = self.n();
        for (u, v) in edges {
            if u == v || (u as usize) >= n || (v as usize) >= n {
                continue; // loops are never slots; out-of-range pairs
                          // match nothing (same as Graph::remove_edges)
            }
            if let Some(slot_u) = self.find_live_slot(u, v) {
                let slot_v = self
                    .find_live_slot(v, u)
                    .expect("symmetric tombstone invariant");
                self.alive[slot_u] = false;
                self.alive[slot_v] = false;
            } else {
                let at_u = self.extra_range(u, v);
                if at_u.is_empty() {
                    continue; // absent (or all copies already tombstoned)
                }
                let at_v = self.extra_range(v, u);
                debug_assert!(!at_v.is_empty(), "symmetric insert-row invariant");
                self.extra[u as usize].remove(at_u.start);
                self.extra[v as usize].remove(at_v.start);
            }
            self.live_deg[u as usize] -= 1;
            self.live_deg[v as usize] -= 1;
            self.m -= 1;
            removed += 1;
            if compensate_with_loops {
                self.loops[u as usize] += 1;
                self.loops[v as usize] += 1;
                self.total_loops += 2;
            }
        }
        removed
    }

    /// Number of live edges with both endpoints in `s` (loops excluded).
    /// `O(Vol(S))` through the overlay.
    pub fn internal_edges(&self, s: &VertexSet) -> usize {
        let mut twice = 0usize;
        for u in s.iter() {
            for w in self.live_neighbors(u) {
                if s.contains(w) {
                    twice += 1;
                }
            }
        }
        twice / 2
    }

    /// Volume of a vertex set under the overlay's degrees.
    pub fn volume(&self, s: &VertexSet) -> usize {
        s.iter().map(|v| self.degree(v)).sum()
    }

    /// The vertices that still carry any live volume (a live incident edge
    /// or a self loop) — the overlay's live-vertex list, from which sparse
    /// complements and residual sets can be derived without scanning the
    /// whole universe.
    pub fn live_vertices(&self) -> VertexSet {
        VertexSet::from_fn(self.n(), |v| {
            self.live_deg[v as usize] > 0 || self.loops[v as usize] > 0
        })
    }

    /// Materializes the overlay into a standalone [`Graph`] —
    /// bit-identical to applying every removal to the base graph via
    /// [`Graph::remove_edges`]. Used at audit points and in tests; the hot
    /// path never calls it.
    pub fn to_graph(&self) -> Graph {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.m);
        for u in 0..self.n() as VertexId {
            for w in self.live_neighbors(u) {
                if u <= w {
                    edges.push((u, w));
                }
            }
        }
        let mut g = Graph::from_edges(self.n(), edges).expect("overlay ids in range");
        g.loops.copy_from_slice(&self.loops);
        g.total_loops = self.total_loops;
        g
    }
}

/// Iterator over a vertex's live neighbors: the tombstone-filtered base
/// CSR row merged on the fly with the sorted insert-overlay row. Both
/// inputs are ascending, so the merge is ascending; ties emit the base
/// copy first (parallel edges repeat either way).
pub struct LiveNeighbors<'a> {
    adj: &'a [VertexId],
    alive: &'a [bool],
    i: usize,
    extra: &'a [VertexId],
    j: usize,
}

impl Iterator for LiveNeighbors<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while self.i < self.adj.len() && !self.alive[self.i] {
            self.i += 1;
        }
        let base = (self.i < self.adj.len()).then(|| self.adj[self.i]);
        let ins = (self.j < self.extra.len()).then(|| self.extra[self.j]);
        match (base, ins) {
            (Some(b), Some(e)) if b <= e => {
                self.i += 1;
                Some(b)
            }
            (_, Some(e)) => {
                self.j += 1;
                Some(e)
            }
            (Some(b), None) => {
                self.i += 1;
                Some(b)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn fresh_overlay_mirrors_base() {
        let g = c4();
        let w = WorkingGraph::new(&g);
        assert_eq!(w.n(), 4);
        assert_eq!(w.m(), 4);
        assert_eq!(w.total_volume(), g.total_volume());
        for v in 0..4 {
            assert_eq!(w.degree(v), g.degree(v));
            assert_eq!(
                w.live_neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).to_vec()
            );
        }
        assert_eq!(w.to_graph(), g);
    }

    #[test]
    fn compensated_removal_preserves_degrees() {
        let g = c4();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.remove_edges([(1, 2), (3, 0)], true), 2);
        assert_eq!(w.m(), 2);
        for v in 0..4 {
            assert_eq!(w.degree(v), g.degree(v), "vertex {v}");
        }
        assert_eq!(w.total_volume(), g.total_volume());
        assert_eq!(w.to_graph(), g.remove_edges([(1, 2), (3, 0)], true));
    }

    #[test]
    fn uncompensated_removal_drops_volume() {
        let g = c4();
        let mut w = WorkingGraph::new(&g);
        w.remove_edges([(0, 1)], false);
        assert_eq!(w.degree(0), 1);
        assert_eq!(w.total_self_loops(), 0);
        assert!(!w.has_edge(0, 1));
        assert!(w.has_edge(1, 2));
    }

    #[test]
    fn parallel_edges_lose_one_copy_per_request() {
        let g = Graph::from_edges(2, [(0, 1), (0, 1), (0, 1)]).unwrap();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.remove_edges([(0, 1)], false), 1);
        assert_eq!(w.m(), 2);
        assert!(w.has_edge(0, 1));
        assert_eq!(w.live_neighbors(0).count(), 2);
        assert_eq!(w.remove_edges([(0, 1), (0, 1)], false), 2);
        assert_eq!(w.m(), 0);
        assert!(!w.has_edge(0, 1));
    }

    #[test]
    fn absent_and_loop_requests_are_ignored() {
        let g = c4();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.remove_edges([(0, 2), (1, 1), (9, 0), (0, 9)], true), 0);
        assert!(!w.has_edge(9, 0), "out-of-range pairs match nothing");
        assert_eq!(w.m(), 4);
        assert_eq!(w.total_self_loops(), 0);
        // Removing the same edge twice only works once.
        assert_eq!(w.remove_edges([(0, 1), (1, 0)], true), 1);
    }

    #[test]
    fn internal_edges_and_volume_read_through() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let mut w = WorkingGraph::new(&g);
        let s = VertexSet::from_iter(4, [0u32, 1, 2]);
        assert_eq!(w.internal_edges(&s), 3);
        w.remove_edges([(1, 2)], true);
        assert_eq!(w.internal_edges(&s), 2);
        assert_eq!(w.volume(&s), g.volume(&s)); // compensated
    }

    #[test]
    fn insert_matches_rebuild() {
        let g = c4();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.insert_edges([(0, 2), (1, 3)]), 2);
        assert_eq!(w.m(), 6);
        assert!(w.has_edge(0, 2) && w.has_edge(3, 1));
        assert_eq!(w.live_neighbors(0).collect::<Vec<_>>(), vec![1, 2, 3]);
        let rebuilt =
            Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]).unwrap();
        assert_eq!(w.to_graph(), rebuilt);
    }

    #[test]
    fn reinsert_resurrects_dead_slots() {
        let g = c4();
        let mut w = WorkingGraph::new(&g);
        w.remove_edges([(1, 2)], false);
        assert_eq!(w.insert_edges([(2, 1)]), 1);
        assert_eq!(w.to_graph(), g, "delete-then-reinsert is the identity");
        // The copy went back into the base slots, not the insert rows.
        assert!(w.extra.iter().all(Vec::is_empty));
    }

    #[test]
    fn deleted_neighbors_are_net_of_reinsertion() {
        let g = Graph::from_edges(4, [(0, 1), (0, 1), (0, 2), (0, 3)]).unwrap();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.deleted_neighbors(0).count(), 0);
        w.remove_edges([(0, 1), (0, 3), (0, 2)], false);
        assert_eq!(w.deleted_neighbors(0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(w.deleted_neighbors(1).collect::<Vec<_>>(), vec![0]);
        w.insert_edges([(2, 0)]); // resurrects the slot pair
        assert_eq!(w.deleted_neighbors(0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(w.deleted_neighbors(2).count(), 0);
        // An edge the snapshot never held comes and goes without a trace.
        w.insert_edges([(1, 2)]);
        w.remove_edges([(1, 2)], false);
        assert_eq!(w.deleted_neighbors(2).count(), 0);
        assert_eq!(w.deleted_neighbors(1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn inserted_parallel_copies_and_loops() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.insert_edges([(0, 1), (1, 0), (1, 1)]), 3);
        assert_eq!(w.multiplicity(0, 1), 3);
        assert_eq!(w.multiplicity(1, 1), 1);
        assert_eq!(w.live_neighbors(0).collect::<Vec<_>>(), vec![1, 1, 1]);
        assert_eq!(w.degree(1), 4); // 3 endpoints + 1 loop
        assert_eq!(w.total_self_loops(), 1);
        // Deleting strips extra copies once the base slot is tombstoned.
        assert_eq!(w.remove_edges([(0, 1), (0, 1), (0, 1)], false), 3);
        assert_eq!(w.multiplicity(0, 1), 0);
        assert!(!w.has_edge(0, 1));
        assert!(w.has_edge(1, 1), "loop deletion is not requested here");
    }

    #[test]
    fn insert_ignores_out_of_range() {
        let g = c4();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.insert_edges([(9, 0), (0, 9)]), 0);
        assert_eq!(w.m(), 4);
    }

    #[test]
    fn mixed_churn_tracks_rebuild() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut w = WorkingGraph::new(&g);
        w.remove_edges([(0, 1), (2, 3)], true);
        w.insert_edges([(0, 3), (1, 4), (0, 1)]);
        w.remove_edges([(1, 4)], true);
        // Final multiset: {12, 34, 40, 03, 01}; compensation loops from the
        // three removals land at 0, 1 (twice), 2, 3, and 4.
        let reference = Graph::from_edges(
            5,
            [
                (1, 2),
                (3, 4),
                (4, 0),
                (0, 3),
                (0, 1),
                (0, 0),
                (1, 1),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
            ],
        )
        .unwrap();
        assert_eq!(w.to_graph(), reference);
        assert_eq!(w.m(), reference.m());
        assert_eq!(w.total_self_loops(), reference.total_self_loops());
    }

    #[test]
    fn live_vertices_shrink_only_without_compensation() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let mut w = WorkingGraph::new(&g);
        assert_eq!(w.live_vertices().iter().collect::<Vec<_>>(), vec![0, 1]);
        w.remove_edges([(0, 1)], false);
        assert!(w.live_vertices().is_empty());
        let mut w2 = WorkingGraph::new(&g);
        w2.remove_edges([(0, 1)], true);
        assert_eq!(w2.live_vertices().len(), 2, "loops keep vertices live");
    }
}
