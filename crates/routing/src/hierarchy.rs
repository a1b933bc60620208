//! The GKS hierarchical routing structure.
//!
//! Levels `0..=k`: level 0 is the whole vertex set; each group at level
//! `i` splits into `β` random subgroups at level `i+1`, where
//! `β = ⌈n^{1/k}⌉` (so bottom groups have expected constant size). Each
//! group designates portal vertices connecting it to its parent. A query
//! (one routing instance with per-vertex load `O(deg(v))`) is delivered by
//! hierarchical addressing: words descend from the root group toward
//! their destination's bottom group through the portals of each level —
//! the classic Valiant-style load balancing that keeps every level's
//! congestion near-uniform on an expander. The charge model takes the
//! expectation of the random portal draw: each portal of the
//! destination's group carries an equal share of the words.

use crate::mixing::estimate_mixing_time;
use crate::{Result, RoutingError};
use graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cost charged to one routing instance: a cluster's whole DLP
/// redistribution ([`RoutingHierarchy::route_edge_loads`]) or one
/// read-only point query ([`RoutingHierarchy::route_query`]).
///
/// The struct is `Copy`, `Eq` and cheap to aggregate — a long-lived query
/// service produces one per answered query and compares them bit-for-bit
/// between concurrent and sequential replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCharge {
    /// Words delivered (every routed word is received exactly once).
    pub words: u64,
    /// Per-vertex-load-`O(deg(v))` routing queries the delivery decomposes
    /// into (the `Õ(n^{1/3})`-budgeted quantity of the DLP argument).
    pub queries: u64,
    /// Total charged rounds: `queries ×` [`RoutingHierarchy::query_rounds`].
    pub rounds: u64,
    /// Maximum per-vertex word load observed at any level.
    pub max_congestion: u64,
    /// Whether every level had a portal to carry the delivery.
    pub delivered: bool,
}

/// One level of the hierarchy: a partition of `V` into groups.
#[derive(Debug, Clone)]
struct Level {
    /// Group id of every vertex at this level.
    group_of: Vec<u32>,
    /// Portal vertices per group (sampled representatives that carry
    /// inter-level traffic).
    portals: Vec<Vec<VertexId>>,
}

/// The built GKS routing structure over a fixed graph.
///
/// # Example
///
/// ```
/// use routing::RoutingHierarchy;
///
/// let g = graph::gen::random_regular(64, 8, 1).unwrap();
/// let h = RoutingHierarchy::build(&g, 2, 7).unwrap();
/// // Constant k: preprocessing is bounded and queries are polylog·τ_mix.
/// assert!(h.query_rounds() < h.preprocessing_rounds());
/// let degrees: Vec<u32> = (0..64).map(|v| g.degree(v) as u32).collect();
/// assert!(h.route_query(&degrees, 63, 8).unwrap().delivered);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingHierarchy {
    levels: Vec<Level>,
    k: usize,
    beta: usize,
    tau_mix: usize,
    n: usize,
    preprocessing_rounds: u64,
}

/// One level of a [`HierarchyParts`]: the serializable twin of the
/// private level representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelParts {
    /// Group id of every vertex at this level.
    pub group_of: Vec<u32>,
    /// Portal vertices per group.
    pub portals: Vec<Vec<VertexId>>,
}

/// The complete serializable state of a [`RoutingHierarchy`].
///
/// A built hierarchy is plain data — group assignments, portal lists and
/// a handful of scalars — so persistence layers can extract it with
/// [`RoutingHierarchy::to_parts`], store it however they like, and
/// reconstruct a **bit-identical** hierarchy with
/// [`RoutingHierarchy::from_parts`]. Bit-identical matters: query charges
/// ([`RoutingHierarchy::route_query`]) are deterministic functions of
/// this state, and the serve tier's restore path promises byte-equal
/// answers to a freshly built engine.
///
/// # Examples
///
/// ```
/// use routing::RoutingHierarchy;
///
/// let g = graph::gen::random_regular(64, 8, 1).unwrap();
/// let h = RoutingHierarchy::build(&g, 2, 7).unwrap();
/// let restored = RoutingHierarchy::from_parts(h.to_parts()).unwrap();
/// let degrees: Vec<u32> = (0..64).map(|v| g.degree(v) as u32).collect();
/// assert_eq!(
///     h.route_query(&degrees, 3, 40).unwrap(),
///     restored.route_query(&degrees, 3, 40).unwrap(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyParts {
    /// All `k + 1` levels, root first.
    pub levels: Vec<LevelParts>,
    /// Hierarchy depth.
    pub k: usize,
    /// Branching factor `β`.
    pub beta: usize,
    /// Mixing-time estimate used for cost accounting.
    pub tau_mix: usize,
    /// Number of vertices the hierarchy covers.
    pub n: usize,
    /// Charged preprocessing rounds.
    pub preprocessing_rounds: u64,
}

impl RoutingHierarchy {
    /// Extracts the full serializable state (see [`HierarchyParts`]).
    pub fn to_parts(&self) -> HierarchyParts {
        HierarchyParts {
            levels: self
                .levels
                .iter()
                .map(|l| LevelParts {
                    group_of: l.group_of.clone(),
                    portals: l.portals.clone(),
                })
                .collect(),
            k: self.k,
            beta: self.beta,
            tau_mix: self.tau_mix,
            n: self.n,
            preprocessing_rounds: self.preprocessing_rounds,
        }
    }

    /// Reconstructs a hierarchy from extracted parts, validating the
    /// structural invariants the query paths index by.
    ///
    /// # Errors
    ///
    /// [`RoutingError::BadParts`] when the parts are inconsistent: wrong
    /// level count, a level not covering every vertex, group ids without
    /// a portal slot, or portal vertices outside `0..n`.
    pub fn from_parts(parts: HierarchyParts) -> Result<Self> {
        let bad = |reason: String| Err(RoutingError::BadParts { reason });
        if parts.k == 0 {
            return bad("depth k must be >= 1".to_string());
        }
        if parts.levels.len() != parts.k + 1 {
            return bad(format!(
                "{} levels for depth k = {} (want k + 1)",
                parts.levels.len(),
                parts.k
            ));
        }
        for (i, level) in parts.levels.iter().enumerate() {
            if level.group_of.len() != parts.n {
                return bad(format!(
                    "level {i} assigns {} vertices, hierarchy has {}",
                    level.group_of.len(),
                    parts.n
                ));
            }
            for (v, &gid) in level.group_of.iter().enumerate() {
                if gid as usize >= level.portals.len() {
                    return bad(format!(
                        "level {i}: vertex {v} in group {gid}, only {} portal slots",
                        level.portals.len()
                    ));
                }
            }
            for (gid, portals) in level.portals.iter().enumerate() {
                for &p in portals {
                    if p as usize >= parts.n {
                        return bad(format!(
                            "level {i}: portal {p} of group {gid} outside 0..{}",
                            parts.n
                        ));
                    }
                }
            }
        }
        Ok(RoutingHierarchy {
            levels: parts
                .levels
                .into_iter()
                .map(|l| Level {
                    group_of: l.group_of,
                    portals: l.portals,
                })
                .collect(),
            k: parts.k,
            beta: parts.beta,
            tau_mix: parts.tau_mix,
            n: parts.n,
            preprocessing_rounds: parts.preprocessing_rounds,
        })
    }

    /// Builds the hierarchy with depth `k` on `g`.
    ///
    /// # Errors
    ///
    /// [`RoutingError::EmptyGraph`] for graphs without edges;
    /// [`RoutingError::BadDepth`] for `k == 0`.
    pub fn build(g: &Graph, k: usize, seed: u64) -> Result<Self> {
        if g.n() == 0 || g.m() == 0 {
            return Err(RoutingError::EmptyGraph);
        }
        if k == 0 {
            return Err(RoutingError::BadDepth { k });
        }
        let n = g.n();
        let beta = (n as f64).powf(1.0 / k as f64).ceil().max(2.0) as usize;
        let tau_mix = estimate_mixing_time(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut levels = Vec::with_capacity(k + 1);
        // Level 0: one group containing everything.
        let mut group_of = vec![0u32; n];
        levels.push(make_level(g, group_of.clone(), 1, &mut rng));
        let mut groups = 1usize;
        for _ in 1..=k {
            let mut next = vec![0u32; n];
            for v in 0..n {
                let sub: u32 = rng.random_range(0..beta as u32);
                next[v] = group_of[v] * beta as u32 + sub;
            }
            groups *= beta;
            group_of = next;
            levels.push(make_level(g, group_of.clone(), groups, &mut rng));
        }
        let log_n = (n.max(2) as f64).log2().ceil().max(1.0);
        // GKS Lemma 3.2 + 3.3: O(kβ)(log n)^{O(k)}·τ_mix + O(kβ²·log n)·τ_mix.
        let pre = (k as f64 * beta as f64) * log_n.powi(k as i32) * tau_mix as f64
            + (k as f64 * (beta * beta) as f64) * log_n * tau_mix as f64;
        Ok(RoutingHierarchy {
            levels,
            k,
            beta,
            tau_mix,
            n,
            preprocessing_rounds: pre.ceil() as u64,
        })
    }

    /// Hierarchy depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Branching factor `β = ⌈n^{1/k}⌉`.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// The mixing-time estimate used for cost accounting.
    pub fn tau_mix(&self) -> usize {
        self.tau_mix
    }

    /// Rounds charged for building the structure (GKS Lemmas 3.2–3.3).
    pub fn preprocessing_rounds(&self) -> u64 {
        self.preprocessing_rounds
    }

    /// Rounds charged per routing query (GKS Lemma 3.4):
    /// `(log n)^{O(k)}·τ_mix`.
    pub fn query_rounds(&self) -> u64 {
        let log_n = (self.n.max(2) as f64).log2().ceil().max(1.0);
        (log_n.powi(self.k as i32) * self.tau_mix as f64).ceil() as u64
    }

    /// Charges one batched routing instance given its **aggregate
    /// per-vertex word loads** — `holders[i] = (v, w)` meaning `v` sends
    /// `w` words in total, `owners[j] = (v, w)` meaning `v` receives `w`
    /// words in total — without materializing the per-(src, dst) pairs.
    ///
    /// This is the entry point the triangle pipeline's closed-form DLP
    /// accounting uses: it knows each holder's and each owner's word
    /// totals in `O(g² + Σ|bucket|)` arithmetic, while the pair list
    /// those totals summarize can be quadratic in the cluster. Endpoints
    /// are charged their words (`load[src] += w`, `load[dst] += w`).
    /// Portal charges are the deterministic balanced spread: at every
    /// level below the root, **each** portal of a receiver's group is
    /// charged the receiver's expected share `⌈w / |portals|⌉` — the
    /// expectation of a random portal draw per word. Being RNG-free keeps
    /// the charge independent of how word totals split into pairs, which
    /// the sequential-vs-parallel and packed-vs-unpacked equivalence
    /// suites rely on.
    ///
    /// A single query admits per-vertex load `O(deg(v))`, so the instance
    /// decomposes into `queries = max(1, max_v ⌈load(v)/deg(v)⌉)` queries
    /// of [`Self::query_rounds`] each.
    ///
    /// Vertices may appear multiple times in either slice; their words
    /// accumulate. `words` in the charge is the owners' total.
    ///
    /// # Errors
    ///
    /// [`RoutingError::BadRequest`] if a load mentions an unknown vertex.
    pub fn route_edge_loads(
        &self,
        g: &Graph,
        holders: &[(VertexId, u64)],
        owners: &[(VertexId, u64)],
    ) -> Result<QueryCharge> {
        let n = self.n;
        for &(v, _) in holders.iter().chain(owners) {
            if v as usize >= n {
                return Err(RoutingError::BadRequest { vertex: v as u64 });
            }
        }
        let total_words: u64 = owners.iter().map(|&(_, w)| w).sum();
        let mut load = vec![0u64; n];
        let mut delivered = true;
        for &(v, w) in holders {
            load[v as usize] += w;
        }
        for &(v, w) in owners {
            if w == 0 {
                continue;
            }
            for level in &self.levels[1..] {
                let dst_group = level.group_of[v as usize] as usize;
                let portals = &level.portals[dst_group];
                if portals.is_empty() {
                    delivered = false;
                    continue;
                }
                let share = w.div_ceil(portals.len() as u64);
                for &p in portals {
                    load[p as usize] += share;
                }
            }
            load[v as usize] += w;
        }
        let mut queries = 1u64;
        let mut max_congestion = 0u64;
        for (v, &vload) in load.iter().enumerate() {
            max_congestion = max_congestion.max(vload);
            if vload > 0 {
                let deg = g.degree(v as VertexId).max(1) as u64;
                queries = queries.max(vload.div_ceil(deg));
            }
        }
        Ok(QueryCharge {
            words: total_words,
            queries,
            rounds: self.query_rounds() * queries,
            max_congestion,
            delivered,
        })
    }

    /// Charges one **read-only point query**: `words` words of adjacency
    /// data converge on `dst`, and the charge is computed without
    /// allocating any per-vertex state proportional to `n`.
    ///
    /// This is the query-time counterpart of [`Self::route_edge_loads`]
    /// and uses the identical deterministic portal-share model — at every
    /// level below the root, each portal of `dst`'s group is charged the
    /// expected share `⌈words / |portals|⌉`, and `dst` itself is charged
    /// `words` — so a batch of point queries replayed through
    /// `route_edge_loads` and the sum of their individual `route_query`
    /// congestion profiles agree vertex-by-vertex. The difference is purely
    /// operational: `route_edge_loads` builds an `O(n)` load vector per
    /// call (fine once per cluster at build time, ruinous per point query
    /// at serve time), while this walks only the `O(k·log n)` touched
    /// vertices.
    ///
    /// `degrees[v]` must give the degree of vertex `v` in the routed
    /// (cluster-local) graph; callers that froze the graph into an
    /// artifact pass their snapshot instead of a live [`Graph`], which is
    /// what keeps this path free of any build-time state.
    ///
    /// # Examples
    ///
    /// ```
    /// use routing::RoutingHierarchy;
    ///
    /// let g = graph::gen::random_regular(64, 8, 1).unwrap();
    /// let h = RoutingHierarchy::build(&g, 2, 7).unwrap();
    /// let degrees: Vec<u32> = (0..64).map(|v| g.degree(v) as u32).collect();
    /// let charge = h.route_query(&degrees, 3, 40).unwrap();
    /// assert!(charge.delivered);
    /// // Degree 8 at the destination: 40 words need ≥ ⌈40/8⌉ queries.
    /// assert!(charge.queries >= 5);
    /// assert_eq!(charge.rounds, h.query_rounds() * charge.queries);
    /// ```
    ///
    /// # Errors
    ///
    /// [`RoutingError::BadRequest`] if `dst` is outside the graph;
    /// [`RoutingError::BadDegrees`] if the degree oracle does not cover
    /// every vertex.
    pub fn route_query(&self, degrees: &[u32], dst: VertexId, words: u64) -> Result<QueryCharge> {
        if dst as usize >= self.n {
            return Err(RoutingError::BadRequest { vertex: dst as u64 });
        }
        if degrees.len() != self.n {
            return Err(RoutingError::BadDegrees {
                expected: self.n,
                got: degrees.len(),
            });
        }
        // Touched vertices only: dst plus ≤ (log n + 1) portals per level.
        let mut touched: Vec<(VertexId, u64)> = Vec::with_capacity(1 + self.k * 8);
        let mut delivered = true;
        if words > 0 {
            for level in &self.levels[1..] {
                let dst_group = level.group_of[dst as usize] as usize;
                let portals = &level.portals[dst_group];
                if portals.is_empty() {
                    delivered = false;
                    continue;
                }
                let share = words.div_ceil(portals.len() as u64);
                for &p in portals {
                    touched.push((p, share));
                }
            }
        }
        touched.push((dst, words));
        // Fold duplicate vertices (dst may itself be a portal).
        touched.sort_unstable_by_key(|&(v, _)| v);
        let mut queries = 1u64;
        let mut max_congestion = 0u64;
        let mut i = 0;
        while i < touched.len() {
            let v = touched[i].0;
            let mut load = 0u64;
            while i < touched.len() && touched[i].0 == v {
                load += touched[i].1;
                i += 1;
            }
            max_congestion = max_congestion.max(load);
            if load > 0 {
                let deg = (degrees[v as usize] as u64).max(1);
                queries = queries.max(load.div_ceil(deg));
            }
        }
        Ok(QueryCharge {
            words,
            queries,
            rounds: self.query_rounds() * queries,
            max_congestion,
            delivered,
        })
    }
}

fn make_level(g: &Graph, group_of: Vec<u32>, groups: usize, rng: &mut StdRng) -> Level {
    let _ = groups;
    // Portals: up to ⌈log₂ n⌉ + 1 sampled members per group, degree-biased
    // (high-degree vertices carry proportionally more traffic in GKS).
    let n = g.n();
    let per_group = ((n.max(2) as f64).log2().ceil() as usize) + 1;
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); groups];
    for v in 0..n {
        members[group_of[v] as usize].push(v as VertexId);
    }
    let portals = members
        .iter()
        .map(|ms| {
            if ms.is_empty() {
                return Vec::new();
            }
            let mut chosen = Vec::with_capacity(per_group.min(ms.len()));
            // Degree-weighted sampling without replacement (small counts).
            let mut pool: Vec<VertexId> = ms.clone();
            for _ in 0..per_group.min(ms.len()) {
                let total: usize = pool.iter().map(|&v| g.degree(v).max(1)).sum();
                let mut target = rng.random_range(0..total);
                let mut pick = 0usize;
                for (i, &v) in pool.iter().enumerate() {
                    let d = g.degree(v).max(1);
                    if target < d {
                        pick = i;
                        break;
                    }
                    target -= d;
                }
                chosen.push(pool.swap_remove(pick));
            }
            chosen
        })
        .collect();
    Level { group_of, portals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;
    use proptest::prelude::*;

    fn expander(n: usize, seed: u64) -> Graph {
        gen::random_regular(n, 8, seed).unwrap()
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        let g = graph::Graph::from_edges(3, []).unwrap();
        assert!(matches!(
            RoutingHierarchy::build(&g, 2, 0),
            Err(RoutingError::EmptyGraph)
        ));
        let g = gen::complete(4).unwrap();
        assert!(matches!(
            RoutingHierarchy::build(&g, 0, 0),
            Err(RoutingError::BadDepth { k: 0 })
        ));
    }

    #[test]
    fn beta_matches_depth() {
        let g = expander(256, 1);
        for k in 1..=4 {
            let h = RoutingHierarchy::build(&g, k, 5).unwrap();
            let want = (256f64).powf(1.0 / k as f64).ceil() as usize;
            assert_eq!(h.beta(), want, "k = {k}");
            assert_eq!(h.k(), k);
        }
    }

    #[test]
    fn trade_off_shape_preprocessing_vs_query() {
        // Larger k: preprocessing shrinks in β (β = n^{1/k}) but query
        // grows in (log n)^k — the §3 trade-off.
        let g = expander(512, 2);
        let h1 = RoutingHierarchy::build(&g, 1, 3).unwrap();
        let h3 = RoutingHierarchy::build(&g, 3, 3).unwrap();
        assert!(
            h3.query_rounds() > h1.query_rounds(),
            "query cost must grow with k: {} vs {}",
            h3.query_rounds(),
            h1.query_rounds()
        );
        // β shrinks drastically.
        assert!(h3.beta() < h1.beta());
    }

    #[test]
    fn query_cost_scales_with_mixing_time() {
        let fast = gen::complete(64).unwrap();
        let (slow, _) = gen::barbell(32).unwrap();
        let hf = RoutingHierarchy::build(&fast, 2, 1).unwrap();
        let hs = RoutingHierarchy::build(&slow, 2, 1).unwrap();
        assert!(
            hs.query_rounds() > 10 * hf.query_rounds(),
            "slow mixer must cost more: {} vs {}",
            hs.query_rounds(),
            hf.query_rounds()
        );
    }

    #[test]
    fn overload_scales_rounds_linearly() {
        let g = expander(64, 6);
        let h = RoutingHierarchy::build(&g, 2, 11).unwrap();
        // 63 unit words converge on one vertex of degree 8 ⇒ overload
        // ≥ ⌈63/8⌉.
        let holders: Vec<(VertexId, u64)> = (1..64u32).map(|v| (v, 1)).collect();
        let out = h.route_edge_loads(&g, &holders, &[(0, 63)]).unwrap();
        assert!(
            out.rounds >= h.query_rounds() * 63u64.div_ceil(8),
            "rounds {} must reflect the hot-spot overload",
            out.rounds
        );
    }

    #[test]
    fn batched_route_balances_across_destinations() {
        // Spreading the same words over all vertices needs fewer queries
        // than concentrating them on one.
        let g = expander(64, 9);
        let h = RoutingHierarchy::build(&g, 2, 17).unwrap();
        let holders: Vec<(VertexId, u64)> = (1..64u32).map(|v| (v, 8)).collect();
        let spread: Vec<(VertexId, u64)> = (0..63u32).map(|v| (v, 8)).collect();
        let a = h.route_edge_loads(&g, &holders, &spread).unwrap();
        let b = h.route_edge_loads(&g, &holders, &[(0, 63 * 8)]).unwrap();
        assert_eq!(a.words, b.words);
        assert!(
            a.queries < b.queries,
            "spread {} vs hot-spot {}",
            a.queries,
            b.queries
        );
    }

    #[test]
    fn batched_route_ignores_empty_slices() {
        let g = expander(32, 10);
        let h = RoutingHierarchy::build(&g, 2, 19).unwrap();
        let out = h.route_edge_loads(&g, &[(0, 0)], &[(1, 0)]).unwrap();
        assert_eq!(out.words, 0);
        assert_eq!(out.max_congestion, 0);
        assert_eq!(out.queries, 1); // floor: an instance costs ≥ 1 query
    }

    #[test]
    fn batched_route_rejects_unknown_vertices() {
        let g = expander(32, 11);
        let h = RoutingHierarchy::build(&g, 2, 23).unwrap();
        let err = h.route_edge_loads(&g, &[(5, 3)], &[(200, 3)]).unwrap_err();
        assert!(matches!(err, RoutingError::BadRequest { vertex: 200 }));
    }

    #[test]
    fn constant_k_preprocessing_is_sublinear_in_n_cubed_root_regime() {
        // The §3 punchline: with constant k the preprocessing rounds grow
        // like n^{1/k}·polylog — slower than n^{1/3} for k ≥ 4. Check the
        // growth *ratio* between two sizes against the n^{1/3} ratio.
        let g1 = expander(256, 1);
        let g2 = expander(2048, 1);
        let k = 4;
        let h1 = RoutingHierarchy::build(&g1, k, 2).unwrap();
        let h2 = RoutingHierarchy::build(&g2, k, 2).unwrap();
        let growth = h2.preprocessing_rounds() as f64 / h1.preprocessing_rounds() as f64;
        let n_growth = (2048f64 / 256.0).powf(1.0 / 3.0);
        // polylog factors make small-scale comparisons noisy; require the
        // growth to stay within a generous constant of n^{1/3}'s.
        assert!(
            growth < 8.0 * n_growth,
            "preprocessing growth {growth} vs n^(1/3) growth {n_growth}"
        );
    }

    #[test]
    fn deterministic_build() {
        let g = expander(64, 3);
        let a = RoutingHierarchy::build(&g, 2, 42).unwrap();
        let b = RoutingHierarchy::build(&g, 2, 42).unwrap();
        assert_eq!(a.preprocessing_rounds(), b.preprocessing_rounds());
        assert_eq!(a.query_rounds(), b.query_rounds());
    }

    #[test]
    fn edge_loads_accounting_shape() {
        let g = expander(128, 9);
        let h = RoutingHierarchy::build(&g, 2, 9).unwrap();
        let holders = vec![(0u32, 40u64), (5, 24), (17, 8)];
        let owners = vec![(3u32, 30u64), (9, 42)];
        let out = h.route_edge_loads(&g, &holders, &owners).unwrap();
        // Words are the owner total (every routed word has one owner).
        assert_eq!(out.words, 72);
        assert!(out.delivered);
        assert!(out.max_congestion >= 42, "owner 9 alone receives 42");
        assert!(out.queries >= 1);
        assert_eq!(out.rounds, h.query_rounds() * out.queries);
        // Heavier loads can only cost more queries.
        let heavier = vec![(3u32, 300u64), (9, 420)];
        let out2 = h.route_edge_loads(&g, &holders, &heavier).unwrap();
        assert!(out2.queries >= out.queries);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // A point query and the equivalent one-owner batched instance
        // charge the same, field for field: route_query is
        // route_edge_loads with the O(n) load vector elided.
        #[test]
        fn point_query_matches_edge_loads_accounting(
            n in 9usize..200,
            k in 1usize..4,
            seed in any::<u64>(),
            dst in any::<u32>(),
            words in 0u64..2000,
        ) {
            let g = gen::random_regular(n, 8, seed);
            prop_assume!(g.is_ok());
            let g = g.unwrap();
            let h = RoutingHierarchy::build(&g, k, seed).unwrap();
            let degrees: Vec<u32> = (0..n).map(|v| g.degree(v as VertexId) as u32).collect();
            let dst = dst % n as u32;
            prop_assert_eq!(
                h.route_query(&degrees, dst, words).unwrap(),
                h.route_edge_loads(&g, &[], &[(dst, words)]).unwrap()
            );
        }
    }

    #[test]
    fn point_query_is_deterministic_and_validated() {
        let g = expander(64, 13);
        let h = RoutingHierarchy::build(&g, 3, 5).unwrap();
        let degrees: Vec<u32> = (0..g.n()).map(|v| g.degree(v as VertexId) as u32).collect();
        let a = h.route_query(&degrees, 9, 123).unwrap();
        let b = h.route_query(&degrees, 9, 123).unwrap();
        assert_eq!(a, b, "charge model must be RNG-free");
        assert!(matches!(
            h.route_query(&degrees, 64, 1),
            Err(RoutingError::BadRequest { vertex: 64 })
        ));
        assert!(matches!(
            h.route_query(&degrees[..10], 1, 1),
            Err(RoutingError::BadDegrees {
                expected: 64,
                got: 10
            })
        ));
        // Zero words: the trivial single-query floor, nothing congested.
        let idle = h.route_query(&degrees, 0, 0).unwrap();
        assert_eq!(idle.queries, 1);
        assert_eq!(idle.max_congestion, 0);
    }

    #[test]
    fn parts_roundtrip_is_query_identical() {
        let g = expander(128, 21);
        let h = RoutingHierarchy::build(&g, 3, 77).unwrap();
        let restored = RoutingHierarchy::from_parts(h.to_parts()).unwrap();
        assert_eq!(h.to_parts(), restored.to_parts());
        assert_eq!(h.preprocessing_rounds(), restored.preprocessing_rounds());
        assert_eq!(h.query_rounds(), restored.query_rounds());
        let degrees: Vec<u32> = (0..g.n()).map(|v| g.degree(v as VertexId) as u32).collect();
        for dst in [0u32, 17, 127] {
            assert_eq!(
                h.route_query(&degrees, dst, 99).unwrap(),
                restored.route_query(&degrees, dst, 99).unwrap(),
            );
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_state() {
        let g = expander(32, 22);
        let h = RoutingHierarchy::build(&g, 2, 5).unwrap();
        let ok = h.to_parts();

        let mut p = ok.clone();
        p.k = 0;
        assert!(matches!(
            RoutingHierarchy::from_parts(p),
            Err(RoutingError::BadParts { .. })
        ));

        let mut p = ok.clone();
        p.levels.pop();
        assert!(matches!(
            RoutingHierarchy::from_parts(p),
            Err(RoutingError::BadParts { .. })
        ));

        let mut p = ok.clone();
        p.levels[1].group_of.pop();
        assert!(matches!(
            RoutingHierarchy::from_parts(p),
            Err(RoutingError::BadParts { .. })
        ));

        let mut p = ok.clone();
        p.levels[1].group_of[0] = u32::MAX;
        assert!(matches!(
            RoutingHierarchy::from_parts(p),
            Err(RoutingError::BadParts { .. })
        ));

        let mut p = ok.clone();
        p.levels[1].portals[0].push(99);
        assert!(matches!(
            RoutingHierarchy::from_parts(p),
            Err(RoutingError::BadParts { .. })
        ));

        assert!(RoutingHierarchy::from_parts(ok).is_ok());
    }

    #[test]
    fn edge_loads_deterministic_and_validated() {
        let g = expander(64, 4);
        let h = RoutingHierarchy::build(&g, 3, 4).unwrap();
        let holders = vec![(1u32, 7u64)];
        let owners = vec![(2u32, 7u64)];
        // The charge model is RNG-free: identical outcome on repeat.
        let a = h.route_edge_loads(&g, &holders, &owners).unwrap();
        let b = h.route_edge_loads(&g, &holders, &owners).unwrap();
        assert_eq!(a, b);
        // Out-of-range vertices are rejected, not clamped.
        assert!(matches!(
            h.route_edge_loads(&g, &[(64, 1)], &[]),
            Err(RoutingError::BadRequest { vertex: 64 })
        ));
        // No load at all: the trivial single-query outcome.
        let empty = h.route_edge_loads(&g, &[], &[]).unwrap();
        assert_eq!(empty.words, 0);
        assert_eq!(empty.queries, 1);
        assert!(empty.delivered);
    }
}
