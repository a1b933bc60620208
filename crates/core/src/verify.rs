//! Decomposition certificates: machine-checkable evidence that an output
//! actually satisfies Theorem 1's two guarantees.
//!
//! 1. **Inter-cluster budget** — removed edges ≤ `ε·|E|`: counted exactly.
//! 2. **Per-part conductance** — `Φ(G{Vᵢ}) ≥ φ`: certified exactly by cut
//!    enumeration for parts with ≤ 16 vertices, and bounded from below by
//!    the spectral Cheeger inequality (`Φ ≥ 1 − λ₂` for the lazy walk) on
//!    larger parts. Sweep cuts supply complementary *upper* bounds so the
//!    report also shows how tight the certificate is.
//!
//! The churn tier only asks whether a part still clears a *given* φ;
//! [`certify_threshold`] answers with the cheapest sound argument.

use crate::decomposition::DecompositionResult;
use graph::traversal::connected_components;
use graph::view::{AdjacencyView, Subgraph};
use graph::{spectral, Graph, VertexSet};

/// Conductance evidence for one part.
#[derive(Debug, Clone)]
pub struct PartCertificate {
    /// Number of vertices in the part.
    pub size: usize,
    /// A certified lower bound on `Φ(G{Vᵢ})` (exact value for small
    /// parts; Cheeger bound otherwise). `f64::INFINITY` for parts whose
    /// conductance is vacuous (singletons: no cut exists).
    pub conductance_lower: f64,
    /// Whether the lower bound is exact (small-part enumeration).
    pub exact: bool,
    /// A sweep-cut upper bound (`f64::INFINITY` when no non-trivial
    /// sweep prefix exists).
    pub conductance_upper: f64,
}

/// Result of verifying a decomposition.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Whether the parts form a partition of `V`.
    pub is_partition: bool,
    /// Measured inter-cluster edge fraction.
    pub inter_cluster_fraction: f64,
    /// The ε that was promised.
    pub epsilon: f64,
    /// The φ that was promised.
    pub phi: f64,
    /// Per-part conductance evidence.
    pub parts: Vec<PartCertificate>,
}

impl VerificationReport {
    /// Whether the ε budget held.
    pub fn edge_budget_ok(&self) -> bool {
        self.inter_cluster_fraction <= self.epsilon + 1e-12
    }

    /// Minimum certified conductance lower bound across non-singleton
    /// parts (`f64::INFINITY` when all parts are singletons).
    pub fn min_certified_conductance(&self) -> f64 {
        self.parts
            .iter()
            .map(|p| p.conductance_lower)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every part met the promised φ, judged by the certified
    /// lower bounds.
    pub fn conductance_ok(&self) -> bool {
        self.min_certified_conductance() >= self.phi
    }
}

/// Verifies `result` against the original input graph.
///
/// The conductance of each part is evaluated on `G{Vᵢ}` built from the
/// **original** graph (degrees never changed, so loop augmentation against
/// the original reproduces the working graph's view exactly).
pub fn verify_decomposition(g: &Graph, result: &DecompositionResult) -> VerificationReport {
    let n = g.n();
    let mut seen = vec![false; n];
    let mut is_partition = true;
    for p in &result.parts {
        for v in p.iter() {
            if seen[v as usize] {
                is_partition = false;
            }
            seen[v as usize] = true;
        }
    }
    if !seen.iter().all(|&b| b) {
        is_partition = false;
    }
    let parts = result
        .parts
        .iter()
        .map(|p| certify_part(g, result, p))
        .collect();
    VerificationReport {
        is_partition,
        inter_cluster_fraction: result.inter_cluster_fraction(),
        epsilon: result.params.epsilon,
        phi: result.phi,
        parts,
    }
}

/// Builds `G{Vᵢ}` as the *final working view*: the induced subgraph of the
/// original graph plus loops compensating every incident removed edge.
fn part_view(g: &Graph, result: &DecompositionResult, part: &VertexSet) -> Graph {
    // Remove the recorded edges from the original, with compensation, then
    // take the loop-augmented subgraph — identical to the working graph's
    // G{Vᵢ} because degrees are preserved throughout.
    let stripped = g.remove_edges(result.removed_edges.iter().map(|&(u, v, _)| (u, v)), true);
    Subgraph::loop_augmented(&stripped, part).graph().clone()
}

fn certify_part(g: &Graph, result: &DecompositionResult, part: &VertexSet) -> PartCertificate {
    let size = part.len();
    if size <= 1 {
        return PartCertificate {
            size,
            conductance_lower: f64::INFINITY,
            exact: true,
            conductance_upper: f64::INFINITY,
        };
    }
    let view = part_view(g, result, part);
    certify_view(&view, size)
}

/// Certifies a part of the **current** graph `g` directly, without a
/// [`DecompositionResult`]: the view is `G{Vᵢ}` built by loop-augmenting
/// the induced subgraph, so every edge crossing out of `part` (including
/// edges churned in after decomposition) is compensated by a loop. This is
/// the certificate the churn tier re-checks per touched cluster — the
/// lower bound is sound against the paper's convention because
/// `Subgraph::loop_augmented` reproduces the working graph's per-part view
/// for any [`AdjacencyView`] source.
pub fn certify_current<A: AdjacencyView + ?Sized>(g: &A, part: &VertexSet) -> PartCertificate {
    let size = part.len();
    if size <= 1 {
        return PartCertificate {
            size,
            conductance_lower: f64::INFINITY,
            exact: true,
            conductance_upper: f64::INFINITY,
        };
    }
    certify_view(Subgraph::loop_augmented(g, part).graph(), size)
}

/// The rung of [`certify_threshold`]'s ladder that decided (DESIGN.md §15.3).
#[derive(Debug, Clone, PartialEq)]
pub enum Rung {
    /// Two or more positive-volume components (a loop-only vertex is one):
    /// `Φ = 0` exactly. Carries them in parent ids, ascending by smallest
    /// member; zero-degree members are in none.
    Severed(Vec<VertexSet>),
    /// Connected, at most 16 vertices: exact cut enumeration.
    Enumerated,
    /// Connected and `φ ≤ 1/⌊vol/2⌋`: every admissible cut crosses an edge
    /// and its smaller side holds at most `⌊vol/2⌋`, so `Φ ≥ 1/⌊vol/2⌋ ≥ φ`.
    Connected,
    /// Connected, `φ` above that bound: [`certify_current`]'s Cheeger
    /// estimate, bit for bit.
    Spectral,
}

/// Certifies `part` of the current graph against `phi` on the view
/// [`certify_current`] uses, stopping at the cheapest sound rung: returns
/// a lower bound on `Φ(G{part})` and the rung that proved it — `0.0` when
/// severed, exact when enumerated, `1/⌊vol/2⌋` when connectivity
/// sufficed, else the Cheeger bound (`f64::INFINITY` without any cut).
/// Every rung but [`Rung::Spectral`] is exact about `Φ ≥ phi`; the part
/// still certifies iff the bound is `>= phi`.
pub fn certify_threshold<A: AdjacencyView + ?Sized>(
    g: &A,
    part: &VertexSet,
    phi: f64,
) -> (f64, Rung) {
    let sub = Subgraph::loop_augmented(g, part);
    let view = sub.graph();
    let mut components = connected_components(view);
    components.retain(|c| view.volume(c) > 0);
    let trivial = 1.0 / (view.total_volume() / 2) as f64;
    if components.len() >= 2 {
        let parents = components.iter().map(|c| sub.set_to_parent(c, g.view_n()));
        (0.0, Rung::Severed(parents.collect()))
    } else if part.len() <= 16 {
        (lower_bound(view, part.len()), Rung::Enumerated)
    } else if phi <= trivial {
        (trivial, Rung::Connected)
    } else {
        (lower_bound(view, part.len()), Rung::Spectral)
    }
}

/// Exact enumeration up to 16 vertices (`f64::INFINITY` when no cut has
/// volume on both sides), the 300-iteration Cheeger bound above.
fn lower_bound(view: &Graph, size: usize) -> f64 {
    if size <= 16 {
        spectral::exact_conductance(view).unwrap_or(f64::INFINITY)
    } else {
        spectral::lazy_walk_lambda2(view, 300)
            .map(|s| spectral::cheeger_lower_bound(&s))
            .unwrap_or(0.0)
            .max(0.0)
    }
}

/// Shared certificate core: [`lower_bound`] plus a sweep-cut upper bound.
fn certify_view(view: &Graph, size: usize) -> PartCertificate {
    // Upper bound from a degree-ordered sweep.
    let mut order: Vec<graph::VertexId> = (0..view.n() as graph::VertexId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(view.degree(v)));
    let upper = spectral::sweep_cut(view, &order)
        .map(|s| s.conductance)
        .unwrap_or(f64::INFINITY);
    let exact = size <= 16;
    let lower = lower_bound(view, size);
    PartCertificate {
        size,
        conductance_lower: lower,
        exact,
        conductance_upper: if exact { upper.min(lower) } else { upper },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::ExpanderDecomposition;
    use graph::gen;

    #[test]
    fn ring_of_cliques_certifies() {
        let (g, _) = gen::ring_of_cliques(6, 6).unwrap();
        let res = ExpanderDecomposition::builder()
            .epsilon(0.3)
            .seed(5)
            .build()
            .run(&g)
            .unwrap();
        let report = verify_decomposition(&g, &res);
        assert!(report.is_partition);
        assert!(report.edge_budget_ok());
        // Every part's certified conductance should beat the (tiny)
        // practical-mode φ.
        assert!(
            report.conductance_ok(),
            "min certified Φ {} below promised {}",
            report.min_certified_conductance(),
            report.phi
        );
    }

    #[test]
    fn certificates_have_consistent_bounds() {
        let pp = gen::planted_partition(&[20, 20], 0.5, 0.02, 3).unwrap();
        let res = ExpanderDecomposition::builder()
            .epsilon(0.4)
            .seed(9)
            .build()
            .run(&pp.graph)
            .unwrap();
        let report = verify_decomposition(&pp.graph, &res);
        for cert in &report.parts {
            assert!(
                cert.conductance_lower <= cert.conductance_upper + 1e-9,
                "lower {} above upper {}",
                cert.conductance_lower,
                cert.conductance_upper
            );
        }
    }

    #[test]
    fn singleton_parts_are_vacuously_expanding() {
        let g = gen::path(2).unwrap();
        let res = ExpanderDecomposition::builder()
            .seed(1)
            .build()
            .run(&g)
            .unwrap();
        let report = verify_decomposition(&g, &res);
        assert!(report.is_partition);
        for cert in &report.parts {
            if cert.size == 1 {
                assert!(cert.conductance_lower.is_infinite());
            }
        }
    }

    #[test]
    fn certify_current_reads_any_adjacency_view() {
        let (g, cliques) = gen::ring_of_cliques(4, 6).unwrap();
        let w = graph::working::WorkingGraph::new(&g);
        for part in &cliques {
            let cert = certify_current(&w, part);
            assert!(cert.conductance_lower <= cert.conductance_upper + 1e-9);
            assert!(
                cert.conductance_lower > 0.0,
                "an intact clique certifies as an expander"
            );
        }
    }

    #[test]
    fn certify_current_sees_churned_edges() {
        // Shredding a clique's internal edges must drop the certificate.
        let (g, cliques) = gen::ring_of_cliques(4, 8).unwrap();
        let mut w = graph::working::WorkingGraph::new(&g);
        let before = certify_current(&w, &cliques[0]);
        let members: Vec<graph::VertexId> = cliques[0].iter().collect();
        let hub = members[0];
        w.remove_edges(
            members[1..]
                .iter()
                .flat_map(|&a| members[1..].iter().map(move |&b| (a, b))),
            true,
        );
        let after = certify_current(&w, &cliques[0]);
        assert!(
            after.conductance_lower < before.conductance_lower,
            "star remnant around {hub} must certify strictly worse ({} vs {})",
            after.conductance_lower,
            before.conductance_lower
        );
    }

    /// A 20-cycle on `0..20` plus, on `20..24`, whatever `extra` adds —
    /// the part under test is always all 24 vertices.
    fn cycle_plus(extra: &[(graph::VertexId, graph::VertexId)]) -> (Graph, VertexSet) {
        let ring = (0..20u32).map(|v| (v, (v + 1) % 20));
        let g = Graph::from_edges(24, ring.chain(extra.iter().copied())).unwrap();
        (g, VertexSet::full(24))
    }

    #[test]
    fn ladder_connectivity_rung_needs_no_spectral_call() {
        // Four zero-degree members ride along: they carry no volume, sit
        // on neither side of any cut, and must not read as severed.
        let (g, part) = cycle_plus(&[]);
        let (lower, rung) = certify_threshold(&g, &part, 1e-9);
        assert_eq!(rung, Rung::Connected);
        assert_eq!(lower, 1.0 / 20.0, "1/⌊vol/2⌋, vol = 40");
        // The bound is exact arithmetic about a true fact: Φ(C20) = 2/20.
        assert!(lower <= 2.0 / 20.0);
        // φ exactly at the trivial bound still stops here.
        assert_eq!(certify_threshold(&g, &part, 0.05).1, Rung::Connected);
    }

    #[test]
    fn ladder_reads_zero_on_a_severed_pair_and_on_a_loop_only_vertex() {
        let (g, part) = cycle_plus(&[(20, 21)]);
        let (lower, rung) = certify_threshold(&g, &part, 1e-9);
        assert_eq!(lower, 0.0);
        let Rung::Severed(pieces) = rung else {
            panic!("a severed pendant pair must stop at the connectivity rung");
        };
        let pieces: Vec<Vec<u32>> = pieces.iter().map(|p| p.iter().collect()).collect();
        assert_eq!(pieces, vec![(0..20).collect::<Vec<u32>>(), vec![20, 21]]);

        // A member whose only edges leave the part is a loop-only vertex
        // of the view: positive volume, no way across — Φ = 0 as well.
        let (g, _) = cycle_plus(&[(20, 23)]);
        let part = VertexSet::from_iter(24, 0..23u32);
        let (lower, rung) = certify_threshold(&g, &part, 1e-9);
        assert_eq!(lower, 0.0);
        assert!(matches!(&rung, Rung::Severed(p) if p.len() == 2 && p[1].iter().eq([20u32])));
        // certify_current agrees up to its estimate: nothing above zero.
        assert!(certify_current(&g, &part).conductance_lower < 1e-9);
    }

    #[test]
    fn ladder_above_the_trivial_bound_is_certify_current_bit_for_bit() {
        let g = gen::random_regular(64, 8, 5).unwrap();
        let part = VertexSet::full(64);
        let phi = 0.01; // > 1/⌊512/2⌋
        let (lower, rung) = certify_threshold(&g, &part, phi);
        assert_eq!(rung, Rung::Spectral);
        let reference = certify_current(&g, &part).conductance_lower;
        assert_eq!(lower.to_bits(), reference.to_bits());
        assert!(lower >= phi, "an 8-regular expander clears 0.01");
    }

    #[test]
    fn ladder_enumerates_small_connected_parts_exactly() {
        let (g, cliques) = gen::ring_of_cliques(4, 6).unwrap();
        let (lower, rung) = certify_threshold(&g, &cliques[0], 1e-9);
        assert_eq!(rung, Rung::Enumerated);
        let reference = certify_current(&g, &cliques[0]);
        assert!(reference.exact);
        assert_eq!(lower.to_bits(), reference.conductance_lower.to_bits());
    }

    #[test]
    fn detects_non_partition() {
        let g = gen::path(4).unwrap();
        let mut res = ExpanderDecomposition::builder()
            .seed(2)
            .build()
            .run(&g)
            .unwrap();
        // Corrupt: drop one part.
        if !res.parts.is_empty() {
            res.parts.pop();
        }
        let report = verify_decomposition(&g, &res);
        assert!(!report.is_partition);
    }
}
