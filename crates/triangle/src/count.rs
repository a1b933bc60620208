//! Centralized triangle enumeration: ground truth and work baselines.

use graph::{intersect_sorted, Graph, VertexId};

/// A triangle, stored with its vertices sorted (`a < b < c`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triangle {
    /// Smallest vertex.
    pub a: VertexId,
    /// Middle vertex.
    pub b: VertexId,
    /// Largest vertex.
    pub c: VertexId,
}

impl Triangle {
    /// Builds a triangle from any vertex order.
    ///
    /// # Panics
    ///
    /// Panics if two vertices coincide (self loops never form triangles).
    pub fn new(x: VertexId, y: VertexId, z: VertexId) -> Self {
        let mut v = [x, y, z];
        v.sort_unstable();
        assert!(v[0] < v[1] && v[1] < v[2], "degenerate triangle {v:?}");
        Triangle {
            a: v[0],
            b: v[1],
            c: v[2],
        }
    }

    /// Whether the triangle contains vertex `v` — the filter point
    /// queries ([`crate::service::Query`]) are audited against.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = triangle::Triangle::new(5, 2, 9);
    /// assert!(t.contains(9));
    /// assert!(!t.contains(3));
    /// ```
    pub fn contains(&self, v: VertexId) -> bool {
        self.a == v || self.b == v || self.c == v
    }
}

impl std::fmt::Display for Triangle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}, {}, {}}}", self.a, self.b, self.c)
    }
}

/// Enumerates all triangles by degree-ordered merge join: `O(m^{3/2})`.
///
/// Each triangle is reported exactly once, sorted.
///
/// # Example
///
/// ```
/// use triangle::enumerate_triangles;
/// let g = graph::gen::complete(4).unwrap();
/// assert_eq!(enumerate_triangles(&g).len(), 4);
/// ```
pub fn enumerate_triangles(g: &Graph) -> Vec<Triangle> {
    let n = g.n();
    // Rank by (degree, id): orient each edge from lower to higher rank.
    let mut rank = vec![0u32; n];
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by_key(|&v| (g.degree_without_loops(v), v));
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    // Forward adjacency: out(v) = neighbors with higher rank, sorted by id.
    let mut out: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for (u, v) in g.edges() {
        if u == v {
            continue;
        }
        if rank[u as usize] < rank[v as usize] {
            out[u as usize].push(v);
        } else {
            out[v as usize].push(u);
        }
    }
    for list in &mut out {
        list.sort_unstable();
        list.dedup(); // parallel edges yield the same triangles
    }
    let mut found = Vec::new();
    for u in 0..n as VertexId {
        let ou = &out[u as usize];
        for &v in ou {
            intersect_sorted(ou, &out[v as usize], |w| found.push(Triangle::new(u, v, w)));
        }
    }
    found.sort_unstable();
    found.dedup();
    found
}

/// Brute-force `O(n³)` reference enumerator (for cross-checking on small
/// graphs).
pub fn enumerate_triangles_naive(g: &Graph) -> Vec<Triangle> {
    let n = g.n() as VertexId;
    let mut found = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(a, b) {
                continue;
            }
            for c in (b + 1)..n {
                if g.has_edge(a, c) && g.has_edge(b, c) {
                    found.push(Triangle { a, b, c });
                }
            }
        }
    }
    found
}

/// Number of triangles in `g`.
pub fn count_triangles(g: &Graph) -> u64 {
    enumerate_triangles(g).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn complete_graph_count_is_binomial() {
        for n in [3usize, 4, 6, 9] {
            let g = gen::complete(n).unwrap();
            let want = (n * (n - 1) * (n - 2) / 6) as u64;
            assert_eq!(count_triangles(&g), want, "K{n}");
        }
    }

    #[test]
    fn triangle_free_families() {
        assert_eq!(count_triangles(&gen::cycle(8).unwrap()), 0);
        assert_eq!(count_triangles(&gen::grid(5, 5).unwrap()), 0);
        assert_eq!(count_triangles(&gen::star(10).unwrap()), 0);
        assert_eq!(count_triangles(&gen::hypercube(4).unwrap()), 0);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::gnp(40, 0.2, seed).unwrap();
            let fast = enumerate_triangles(&g);
            let slow = enumerate_triangles_naive(&g);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn self_loops_and_parallel_edges_ignored() {
        let g = graph::Graph::from_edges(
            3,
            [(0, 1), (1, 2), (2, 0), (0, 0), (1, 2)], // loop + parallel
        )
        .unwrap();
        let ts = enumerate_triangles(&g);
        assert_eq!(ts, vec![Triangle { a: 0, b: 1, c: 2 }]);
    }

    #[test]
    fn triangle_normalizes_order() {
        let t = Triangle::new(5, 1, 3);
        assert_eq!((t.a, t.b, t.c), (1, 3, 5));
        assert_eq!(t.to_string(), "{1, 3, 5}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_triangle_panics() {
        let _ = Triangle::new(1, 1, 2);
    }

    #[test]
    fn ring_of_cliques_counts() {
        let (g, _) = gen::ring_of_cliques(4, 5).unwrap();
        // Each K5 has C(5,3) = 10 triangles; connectors add none.
        assert_eq!(count_triangles(&g), 40);
    }
}
