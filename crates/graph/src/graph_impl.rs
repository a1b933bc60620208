//! The core [`Graph`] type: an immutable undirected multigraph in CSR form
//! with explicit self-loop bookkeeping.

use crate::cut::VertexSet;
use crate::{GraphError, Result, VertexId};

/// An undirected multigraph in compressed sparse row (CSR) form.
///
/// Self loops are stored separately from ordinary edges because the paper's
/// algorithms add a self loop at both endpoints of every removed edge so that
/// **degrees never change**. Each self loop contributes exactly 1 to
/// `deg(v)` (the convention of Spielman–Srivastava adopted by the paper).
///
/// The adjacency list of every vertex is sorted, which makes
/// [`Graph::has_edge`] logarithmic and supports merge-based triangle
/// enumeration downstream.
///
/// # Example
///
/// ```
/// use graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(0), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets; `adj[offsets[v]..offsets[v + 1]]` are `v`'s neighbors.
    /// Crate-visible so [`crate::working::WorkingGraph`] can snapshot the
    /// CSR without re-deriving it edge by edge.
    pub(crate) offsets: Vec<usize>,
    /// Flattened sorted neighbor lists (self loops excluded).
    pub(crate) adj: Vec<VertexId>,
    /// Number of self loops at each vertex (each counts 1 toward the degree).
    pub(crate) loops: Vec<u32>,
    /// Number of non-loop undirected edges (with multiplicity).
    pub(crate) m: usize,
    /// Total number of self loops in the graph.
    pub(crate) total_loops: usize,
}

impl Graph {
    /// Builds a graph from an edge list over vertices `0..n`.
    ///
    /// Edges of the form `(v, v)` become self loops. Parallel edges are kept
    /// (the type is a multigraph).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`.
    ///
    /// # Example
    ///
    /// ```
    /// use graph::Graph;
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 2)]).unwrap();
    /// assert_eq!(g.m(), 2);
    /// assert_eq!(g.self_loops(2), 1);
    /// assert_eq!(g.degree(2), 2); // one real edge + one loop
    /// ```
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut loops = vec![0u32; n];
        let mut deg = vec![0usize; n];
        let mut plain: Vec<(VertexId, VertexId)> = Vec::new();
        for (u, v) in edges {
            check_vertex(u, n)?;
            check_vertex(v, n)?;
            if u == v {
                loops[u as usize] += 1;
            } else {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                plain.push((u, v));
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut adj = vec![0 as VertexId; acc];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for &(u, v) in &plain {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let total_loops = loops.iter().map(|&l| l as usize).sum();
        Ok(Graph {
            offsets,
            adj,
            loops,
            m: plain.len(),
            total_loops,
        })
    }

    /// Builds a graph from per-chunk edge lists, finalizing the CSR rows
    /// **in parallel** — the constructor the large-graph generators in
    /// [`crate::gen::scale`] feed (they produce one edge list per vertex
    /// chunk). Semantically identical to concatenating the chunks and
    /// calling [`Graph::from_edges`], but the dominant cost — sorting
    /// every adjacency row — runs one row per parallel task, so
    /// million-edge graphs finalize at memory speed on multicore hosts.
    /// Degree counting and the scatter pass stay sequential (they are
    /// cheap linear sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`.
    pub fn from_edge_chunks(n: usize, chunks: &[Vec<(VertexId, VertexId)>]) -> Result<Self> {
        use rayon::prelude::*;

        let mut loops = vec![0u32; n];
        let mut deg = vec![0usize; n];
        let mut m = 0usize;
        for chunk in chunks {
            for &(u, v) in chunk {
                check_vertex(u, n)?;
                check_vertex(v, n)?;
                if u == v {
                    loops[u as usize] += 1;
                } else {
                    deg[u as usize] += 1;
                    deg[v as usize] += 1;
                    m += 1;
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut adj = vec![0 as VertexId; acc];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for chunk in chunks {
            for &(u, v) in chunk {
                if u != v {
                    adj[cursor[u as usize]] = v;
                    cursor[u as usize] += 1;
                    adj[cursor[v as usize]] = u;
                    cursor[v as usize] += 1;
                }
            }
        }
        // Parallel row sort: slice the flat adjacency into per-vertex
        // rows (safe disjoint splits) and sort each independently.
        let mut rows: Vec<&mut [VertexId]> = Vec::with_capacity(n);
        let mut rest: &mut [VertexId] = &mut adj;
        for v in 0..n {
            let (row, tail) = rest.split_at_mut(offsets[v + 1] - offsets[v]);
            rows.push(row);
            rest = tail;
        }
        rows.par_iter_mut().for_each(|row| row.sort_unstable());
        let total_loops = loops.iter().map(|&l| l as usize).sum();
        Ok(Graph {
            offsets,
            adj,
            loops,
            m,
            total_loops,
        })
    }

    /// Builds a graph directly from pre-assembled CSR arrays, validating
    /// every invariant the accessors rely on. This is the trust boundary
    /// for adjacency data that arrives from **outside** the type system —
    /// e.g. the on-disk CSR files of the `storage` crate — so the checks
    /// are exhaustive rather than debug-only:
    ///
    /// * `offsets` is non-empty, starts at 0, is monotone, and ends at
    ///   `adj.len()`;
    /// * `loops.len() == n`;
    /// * every neighbor id is `< n` and no row contains its own vertex
    ///   (self loops live in `loops`, never in `adj`);
    /// * every row is sorted ascending;
    /// * the adjacency is **symmetric with multiplicity**: `w` appears in
    ///   row `u` exactly as often as `u` appears in row `w`.
    ///
    /// Both the structural sweep and the symmetry pass are `O(n + m)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] naming the violated invariant.
    ///
    /// # Example
    ///
    /// ```
    /// use graph::Graph;
    ///
    /// // A triangle, in raw CSR form.
    /// let g = Graph::from_csr_parts(
    ///     vec![0, 2, 4, 6],
    ///     vec![1, 2, 0, 2, 0, 1],
    ///     vec![0, 0, 0],
    /// )
    /// .unwrap();
    /// assert_eq!(g, Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap());
    ///
    /// // Asymmetric adjacency is rejected.
    /// assert!(Graph::from_csr_parts(vec![0, 1, 1], vec![1], vec![0, 0]).is_err());
    /// ```
    pub fn from_csr_parts(
        offsets: Vec<usize>,
        adj: Vec<VertexId>,
        loops: Vec<u32>,
    ) -> Result<Self> {
        let invalid = |reason: String| Err(GraphError::InvalidCsr { reason });
        if offsets.is_empty() {
            return invalid("offsets must contain at least the terminal entry".to_string());
        }
        let n = offsets.len() - 1;
        if offsets[0] != 0 {
            return invalid(format!("offsets[0] = {} (want 0)", offsets[0]));
        }
        if offsets[n] != adj.len() {
            return invalid(format!(
                "offsets end at {} but adj holds {} entries",
                offsets[n],
                adj.len()
            ));
        }
        if loops.len() != n {
            return invalid(format!(
                "loops has {} entries for {n} vertices",
                loops.len()
            ));
        }
        for v in 0..n {
            if offsets[v + 1] < offsets[v] {
                return invalid(format!("offsets decrease at vertex {v}"));
            }
            let row = &adj[offsets[v]..offsets[v + 1]];
            let mut prev: Option<VertexId> = None;
            for &w in row {
                if (w as usize) >= n {
                    return invalid(format!("neighbor {w} of vertex {v} out of range"));
                }
                if (w as usize) == v {
                    return invalid(format!(
                        "self loop {v} stored in adj (self loops belong in the loops array)"
                    ));
                }
                if prev.is_some_and(|p| w < p) {
                    return invalid(format!("row of vertex {v} not sorted"));
                }
                prev = Some(w);
            }
        }
        // Symmetry with multiplicity, in one linear pass: visiting `u` in
        // ascending order, each `w > u` in row `u` must be the next
        // unmatched entry of row `w` (sorted rows list their lower
        // neighbors in exactly this visiting order), and by `u`'s own turn
        // every lower entry of row `u` must have been matched.
        let mut matched = vec![0usize; n];
        for u in 0..n {
            let row = &adj[offsets[u]..offsets[u + 1]];
            let lower = row.partition_point(|&w| (w as usize) < u);
            if matched[u] != lower {
                return invalid(format!(
                    "asymmetric adjacency: row {u} lists a lower neighbor that does not list {u}"
                ));
            }
            for &w in &row[lower..] {
                let w = w as usize;
                let at = offsets[w] + matched[w];
                if at == offsets[w + 1] || adj[at] as usize != u {
                    return invalid(format!(
                        "asymmetric adjacency: {w} in row {u} has no matching {u} in row {w}"
                    ));
                }
                matched[w] += 1;
            }
        }
        let twice_m = adj.len();
        if twice_m % 2 != 0 {
            return invalid(format!("adj holds {twice_m} entries (must be even)"));
        }
        let total_loops = loops.iter().map(|&l| l as usize).sum();
        Ok(Graph {
            offsets,
            adj,
            loops,
            m: twice_m / 2,
            total_loops,
        })
    }

    /// The raw CSR arrays: `(offsets, adj, loops)`. The inverse of
    /// [`Graph::from_csr_parts`] — what a serializer needs to write the
    /// graph without re-deriving the layout edge by edge.
    pub fn csr_slices(&self) -> (&[usize], &[VertexId], &[u32]) {
        (&self.offsets, &self.adj, &self.loops)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of non-loop undirected edges (with multiplicity).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total number of self loops across all vertices.
    #[inline]
    pub fn total_self_loops(&self) -> usize {
        self.total_loops
    }

    /// Degree of `v`: incident non-loop edge endpoints plus self loops
    /// (each loop counts 1, per the paper's convention).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` (degree lookups are on the hot path; use
    /// [`Graph::n`] to validate externally supplied ids).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) + self.loops[v] as usize
    }

    /// Number of non-loop edge endpoints at `v` (i.e. `|N(v)|` with
    /// multiplicity, loops excluded).
    #[inline]
    pub fn degree_without_loops(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Number of self loops at `v`.
    #[inline]
    pub fn self_loops(&self, v: VertexId) -> u32 {
        self.loops[v as usize]
    }

    /// `Vol(V) = Σ_v deg(v) = 2·m + total self loops`.
    #[inline]
    pub fn total_volume(&self) -> usize {
        2 * self.m + self.total_loops
    }

    /// Sorted slice of `v`'s neighbors (self loops excluded).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterator over `v`'s neighbors (self loops excluded).
    pub fn neighbor_iter(&self, v: VertexId) -> NeighborIter<'_> {
        NeighborIter {
            inner: self.neighbors(v).iter(),
        }
    }

    /// Whether the non-loop edge `{u, v}` is present (any multiplicity).
    ///
    /// Runs in `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return self.loops[u as usize] > 0;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree_without_loops(u) <= self.degree_without_loops(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over every non-loop undirected edge once, as `(u, v)` with
    /// `u < v` for simple edges (parallel edges repeat).
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            g: self,
            v: 0,
            idx: 0,
        }
    }

    /// Volume of a vertex set: `Vol(S) = Σ_{v ∈ S} deg(v)`.
    pub fn volume(&self, s: &VertexSet) -> usize {
        s.iter().map(|v| self.degree(v)).sum()
    }

    /// `|∂(S)|`: the number of non-loop edges with exactly one endpoint in
    /// `S`. Self loops never cross a cut.
    pub fn boundary(&self, s: &VertexSet) -> usize {
        let mut count = 0usize;
        for u in s.iter() {
            for &w in self.neighbors(u) {
                if !s.contains(w) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Conductance `Φ(S) = |∂(S)| / min{Vol(S), Vol(V \ S)}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ZeroVolumeSide`] if either side has volume 0.
    pub fn conductance(&self, s: &VertexSet) -> Result<f64> {
        let vol_s = self.volume(s);
        let vol_rest = self.total_volume() - vol_s;
        if vol_s == 0 || vol_rest == 0 {
            return Err(GraphError::ZeroVolumeSide);
        }
        Ok(self.boundary(s) as f64 / vol_s.min(vol_rest) as f64)
    }

    /// Balance `bal(S) = min{Vol(S), Vol(S̄)} / Vol(V)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if the graph has zero volume.
    pub fn balance(&self, s: &VertexSet) -> Result<f64> {
        let total = self.total_volume();
        if total == 0 {
            return Err(GraphError::Empty {
                what: "graph volume",
            });
        }
        let vol_s = self.volume(s);
        let vol_rest = total - vol_s;
        Ok(vol_s.min(vol_rest) as f64 / total as f64)
    }

    /// The edges of `E(S, V∖S)`, each reported once as `(inside, outside)`.
    pub fn cut_edges(&self, s: &VertexSet) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for u in s.iter() {
            for &w in self.neighbors(u) {
                if !s.contains(w) {
                    out.push((u, w));
                }
            }
        }
        out
    }

    /// Number of edges with **both** endpoints in `S` (`|E(S)|`), loops at
    /// members of `S` excluded.
    pub fn internal_edges(&self, s: &VertexSet) -> usize {
        let mut twice = 0usize;
        for u in s.iter() {
            for &w in self.neighbors(u) {
                if s.contains(w) {
                    twice += 1;
                }
            }
        }
        twice / 2
    }

    /// Returns a new graph with the given non-loop edges removed.
    ///
    /// When `compensate_with_loops` is true, each removed edge `{u, v}` adds
    /// one self loop at `u` and one at `v`, exactly as the paper's
    /// decomposition does (`Remove-1/2/3`), so every vertex degree is
    /// preserved.
    ///
    /// Edges listed but not present are ignored; if an edge has multiplicity
    /// `c` and is listed once, only one copy is removed.
    ///
    /// # Example
    ///
    /// ```
    /// use graph::Graph;
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    /// let h = g.remove_edges([(0, 1)], true);
    /// assert_eq!(h.m(), 1);
    /// assert_eq!(h.degree(0), g.degree(0));
    /// assert_eq!(h.degree(1), g.degree(1));
    /// assert_eq!(h.self_loops(0), 1);
    /// ```
    pub fn remove_edges<I>(&self, edges: I, compensate_with_loops: bool) -> Graph
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let n = self.n();
        // Count removal requests per normalized edge.
        let mut to_remove: std::collections::HashMap<(VertexId, VertexId), usize> =
            std::collections::HashMap::new();
        for (u, v) in edges {
            let key = if u <= v { (u, v) } else { (v, u) };
            *to_remove.entry(key).or_insert(0) += 1;
        }
        let mut loops = self.loops.clone();
        let mut kept: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.m);
        for (u, v) in self.edges() {
            let key = if u <= v { (u, v) } else { (v, u) };
            match to_remove.get_mut(&key) {
                Some(c) if *c > 0 => {
                    *c -= 1;
                    if compensate_with_loops {
                        loops[u as usize] += 1;
                        loops[v as usize] += 1;
                    }
                }
                _ => kept.push((u, v)),
            }
        }
        let mut g = Graph::from_edges(n, kept).expect("kept edges are in range");
        g.loops.copy_from_slice(&loops);
        g.total_loops = loops.iter().map(|&l| l as usize).sum();
        g
    }

    /// The simple graph underlying `self`: every bundle of parallel edges
    /// collapsed to one edge and every self loop dropped. Row `v` is
    /// `neighbors(v)` deduplicated — the neighbor *set* a CONGEST vertex
    /// knows — in one flat CSR.
    ///
    /// # Example
    ///
    /// ```
    /// use graph::Graph;
    /// let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 2)]).unwrap();
    /// let s = g.to_simple();
    /// assert_eq!(s.neighbors(1), &[0, 2]);
    /// assert_eq!((s.m(), s.total_self_loops()), (2, 0));
    /// ```
    pub fn to_simple(&self) -> Graph {
        let n = self.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(self.adj.len());
        offsets.push(0);
        for v in 0..n as VertexId {
            let mut prev = None;
            for &w in self.neighbors(v) {
                if prev != Some(w) {
                    adj.push(w);
                    prev = Some(w);
                }
            }
            offsets.push(adj.len());
        }
        adj.shrink_to_fit();
        Graph {
            offsets,
            m: adj.len() / 2,
            adj,
            loops: vec![0; n],
            total_loops: 0,
        }
    }

    /// [`Graph::to_simple`] by value: a graph that is already simple (no
    /// self loop, no repeated neighbor) comes back as is, without a
    /// second adjacency-sized allocation.
    pub fn into_simple(self) -> Graph {
        let simple = self.total_loops == 0
            && (0..self.n() as VertexId)
                .all(|v| self.neighbors(v).windows(2).all(|p| p[0] != p[1]));
        if simple {
            self
        } else {
            self.to_simple()
        }
    }

    /// Returns a copy with `extra` additional self loops at `v`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if `v >= n`.
    pub fn with_extra_loops(&self, v: VertexId, extra: u32) -> Result<Graph> {
        check_vertex(v, self.n())?;
        let mut g = self.clone();
        g.loops[v as usize] += extra;
        g.total_loops += extra as usize;
        Ok(g)
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all vertices (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.n() as VertexId)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m)
            .field("self_loops", &self.total_loops)
            .finish()
    }
}

fn check_vertex(v: VertexId, n: usize) -> Result<()> {
    if (v as usize) < n {
        Ok(())
    } else {
        Err(GraphError::VertexOutOfRange {
            vertex: v as u64,
            n,
        })
    }
}

/// Iterator over a vertex's neighbors. Created by [`Graph::neighbor_iter`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, VertexId>,
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// Iterator over undirected non-loop edges, each reported once.
/// Created by [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    g: &'a Graph,
    v: usize,
    idx: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.g.n();
        while self.v < n {
            let lo = self.g.offsets[self.v];
            let hi = self.g.offsets[self.v + 1];
            while lo + self.idx < hi {
                let w = self.g.adj[lo + self.idx];
                self.idx += 1;
                // Report each undirected edge from its smaller endpoint.
                // For parallel edges both directions have equal count, so
                // reporting only (v < w) yields each copy exactly once.
                if (self.v as VertexId) < w {
                    return Some((self.v as VertexId, w));
                }
            }
            self.v += 1;
            self.idx = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.total_volume(), 6);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn into_simple_keeps_a_simple_graph() {
        let g = path4();
        let owned = g.clone();
        let rows = owned.neighbors(0).as_ptr();
        let s = owned.into_simple();
        assert_eq!(s, g);
        assert_eq!(s.neighbors(0).as_ptr(), rows, "no rebuilt adjacency");
    }

    #[test]
    fn into_simple_collapses_a_multigraph() {
        let bundle = Graph::from_edges(3, [(0, 1), (1, 0), (1, 2)]).unwrap();
        let looped = Graph::from_edges(3, [(0, 1), (1, 2), (2, 2)]).unwrap();
        for g in [bundle, looped] {
            let s = g.to_simple();
            assert_ne!(s, g);
            assert_eq!(g.into_simple(), s);
        }
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn self_loop_counts_one_toward_degree() {
        let g = Graph::from_edges(2, [(0, 1), (1, 1), (1, 1)]).unwrap();
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.self_loops(1), 2);
        assert_eq!(g.total_volume(), 2 + 2);
        assert!(g.has_edge(1, 1));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn edge_iter_reports_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn edge_iter_handles_parallel_edges() {
        let g = Graph::from_edges(2, [(0, 1), (0, 1)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 1)]);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn boundary_and_conductance() {
        let g = path4();
        let s = VertexSet::from_iter(4, [0u32, 1]);
        assert_eq!(g.boundary(&s), 1);
        assert_eq!(g.volume(&s), 3);
        let phi = g.conductance(&s).unwrap();
        assert!((phi - 1.0 / 3.0).abs() < 1e-12);
        let b = g.balance(&s).unwrap();
        assert!((b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conductance_rejects_zero_volume_side() {
        let g = path4();
        let empty = VertexSet::empty(4);
        assert_eq!(g.conductance(&empty), Err(GraphError::ZeroVolumeSide));
        let all = VertexSet::full(4);
        assert_eq!(g.conductance(&all), Err(GraphError::ZeroVolumeSide));
    }

    #[test]
    fn boundary_ignores_self_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (1, 1)]).unwrap();
        let s = VertexSet::from_iter(3, [1u32]);
        assert_eq!(g.boundary(&s), 2); // the loop at 1 does not cross
    }

    #[test]
    fn remove_edges_with_compensation_preserves_degrees() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let degs: Vec<_> = (0..4).map(|v| g.degree(v)).collect();
        let h = g.remove_edges([(1, 2), (3, 0)], true);
        assert_eq!(h.m(), 2);
        let degs2: Vec<_> = (0..4).map(|v| h.degree(v)).collect();
        assert_eq!(degs, degs2);
        assert_eq!(h.total_volume(), g.total_volume());
    }

    #[test]
    fn remove_edges_without_compensation() {
        let g = path4();
        let h = g.remove_edges([(1, 2)], false);
        assert_eq!(h.m(), 2);
        assert_eq!(h.degree(1), 1);
        assert_eq!(h.total_self_loops(), 0);
    }

    #[test]
    fn remove_only_one_copy_of_parallel_edge() {
        let g = Graph::from_edges(2, [(0, 1), (0, 1)]).unwrap();
        let h = g.remove_edges([(0, 1)], false);
        assert_eq!(h.m(), 1);
        assert!(h.has_edge(0, 1));
    }

    #[test]
    fn remove_absent_edge_is_noop() {
        let g = path4();
        let h = g.remove_edges([(0, 3)], true);
        assert_eq!(h.m(), 3);
        assert_eq!(h.total_self_loops(), 0);
    }

    #[test]
    fn internal_edges_counts_both_endpoint_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let s = VertexSet::from_iter(4, [0u32, 1, 2]);
        assert_eq!(g.internal_edges(&s), 3);
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, n: 2 }
        ));
    }

    #[test]
    fn with_extra_loops() {
        let g = path4();
        let h = g.with_extra_loops(1, 3).unwrap();
        assert_eq!(h.degree(1), 5);
        assert_eq!(h.total_volume(), g.total_volume() + 3);
        assert!(h.with_extra_loops(99, 1).is_err());
    }

    #[test]
    fn debug_is_nonempty() {
        let g = path4();
        let dbg = format!("{g:?}");
        assert!(dbg.contains("Graph") && dbg.contains('4'));
    }

    #[test]
    fn from_edge_chunks_matches_from_edges() {
        let chunks = vec![
            vec![(0u32, 1u32), (3, 2), (1, 1)],
            vec![],
            vec![(2, 0), (1, 3), (0, 1)], // parallel edge across chunks
        ];
        let flat: Vec<_> = chunks.iter().flatten().copied().collect();
        let a = Graph::from_edge_chunks(4, &chunks).unwrap();
        let b = Graph::from_edges(4, flat).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.m(), 5);
        assert_eq!(a.self_loops(1), 1);
        assert!(Graph::from_edge_chunks(2, &[vec![(0, 9)]]).is_err());
        assert_eq!(Graph::from_edge_chunks(3, &[]).unwrap().m(), 0);
    }

    #[test]
    fn from_csr_parts_roundtrips_and_validates() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4), (1, 2), (2, 2)]).unwrap();
        let (offsets, adj, loops) = g.csr_slices();
        let rebuilt =
            Graph::from_csr_parts(offsets.to_vec(), adj.to_vec(), loops.to_vec()).unwrap();
        assert_eq!(rebuilt, g);

        let bad = |o: Vec<usize>, a: Vec<VertexId>, l: Vec<u32>, what: &str| {
            let err = Graph::from_csr_parts(o, a, l).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidCsr { .. }),
                "{what}: {err}"
            );
        };
        bad(vec![], vec![], vec![], "empty offsets");
        bad(vec![1, 1], vec![], vec![0], "offsets[0] != 0");
        bad(vec![0, 2], vec![1], vec![0], "terminal offset mismatch");
        bad(vec![0, 0], vec![], vec![], "loops length mismatch");
        bad(
            vec![0, 1, 2],
            vec![7, 0],
            vec![0, 0],
            "neighbor out of range",
        );
        bad(vec![0, 1, 2], vec![0, 0], vec![0, 0], "loop stored in adj");
        bad(
            vec![0, 2, 3, 4],
            vec![2, 1, 0, 0],
            vec![0, 0, 0],
            "unsorted row",
        );
        bad(vec![0, 1, 1], vec![1], vec![0, 0], "asymmetric simple edge");
        bad(
            vec![0, 2, 3],
            vec![1, 1, 0],
            vec![0, 0],
            "asymmetric multiplicity",
        );
        bad(
            vec![0, 0, 1],
            vec![0],
            vec![0, 0],
            "unmatched lower neighbor",
        );
        bad(
            vec![0, 2, 3, 4],
            vec![1, 2, 0, 1],
            vec![0; 3],
            "crossed rows",
        );
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.total_volume(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
