//! Property-based tests (proptest) for the core invariants listed in
//! DESIGN.md §5.

use expander_repro::prelude::*;
use proptest::prelude::*;

/// Strategy: a random connected-ish graph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let p = 2.5 / n as f64;
        // Union a cycle with G(n,p) so the graph is connected.
        let base = gen::cycle(n).unwrap();
        let noise = gen::gnp(n, p.min(0.9), seed).unwrap();
        let mut edges: Vec<(VertexId, VertexId)> = base.edges().collect();
        edges.extend(noise.edges());
        Graph::from_edges(n, edges).unwrap()
    })
}

fn arb_subset(n: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn volume_identity(g in arb_graph(), mask in arb_subset(40)) {
        let s = VertexSet::from_fn(g.n(), |v| mask[v as usize % mask.len()]);
        let vol_s = g.volume(&s);
        let vol_rest = g.volume(&s.complement());
        prop_assert_eq!(vol_s + vol_rest, g.total_volume());
    }

    #[test]
    fn boundary_is_symmetric(g in arb_graph(), mask in arb_subset(40)) {
        let s = VertexSet::from_fn(g.n(), |v| mask[v as usize % mask.len()]);
        prop_assert_eq!(g.boundary(&s), g.boundary(&s.complement()));
    }

    #[test]
    fn loop_augmented_conductance_never_exceeds_induced(
        g in arb_graph(), mask in arb_subset(40)
    ) {
        // Φ(G{S}) ≤ Φ(G[S]) — the paper's §1 observation. Compare the
        // minimum sweep conductance of both views over a fixed order.
        let s = VertexSet::from_fn(g.n(), |v| mask[v as usize % mask.len()]);
        prop_assume!(s.len() >= 3);
        let ind = Subgraph::induced(&g, &s);
        let aug = Subgraph::loop_augmented(&g, &s);
        let order: Vec<VertexId> = (0..ind.graph().n() as VertexId).collect();
        let phi_ind = spectral::sweep_cut(ind.graph(), &order).map(|c| c.conductance);
        let phi_aug = spectral::sweep_cut(aug.graph(), &order).map(|c| c.conductance);
        if let (Ok(i), Ok(a)) = (phi_ind, phi_aug) {
            prop_assert!(a <= i + 1e-9, "aug {a} > ind {i}");
        }
    }

    #[test]
    fn walk_mass_is_conserved_then_monotone_under_truncation(
        g in arb_graph(), start in 0u32..40, eps in 1e-6f64..1e-2
    ) {
        let start = start % g.n() as u32;
        let mut exact = WalkDistribution::dirac(&g, start);
        let mut truncated = WalkDistribution::dirac(&g, start);
        for _ in 0..6 {
            exact.step(&g);
            truncated.step(&g);
            truncated.truncate(&g, eps);
            prop_assert!((exact.total_mass() - 1.0).abs() < 1e-9);
            prop_assert!(truncated.total_mass() <= exact.total_mass() + 1e-12);
        }
        // Pointwise domination.
        for v in 0..g.n() as u32 {
            prop_assert!(truncated.mass(v) <= exact.mass(v) + 1e-12);
        }
    }

    #[test]
    fn decomposition_is_partition_with_budget(g in arb_graph(), seed in any::<u64>()) {
        let eps = 0.3;
        let result = ExpanderDecomposition::builder()
            .epsilon(eps)
            .seed(seed)
            .build()
            .run(&g)
            .unwrap();
        // Partition.
        let mut seen = vec![false; g.n()];
        for p in &result.parts {
            for v in p.iter() {
                prop_assert!(!seen[v as usize], "duplicate vertex {v}");
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "missing vertex");
        // Budget.
        prop_assert!(result.inter_cluster_fraction() <= eps + 1e-9);
        // Degree preservation.
        let stripped = g.remove_edges(
            result.removed_edges.iter().map(|&(u, v, _)| (u, v)),
            true,
        );
        for v in 0..g.n() as VertexId {
            prop_assert_eq!(stripped.degree(v), g.degree(v));
        }
    }

    #[test]
    fn triangle_enumeration_complete_on_random_graphs(
        n in 6usize..30, seed in any::<u64>()
    ) {
        let g = gen::gnp(n, 0.35, seed).unwrap();
        let truth = enumerate_triangles(&g);
        let congest = enumerate_via_decomposition(&g, &PipelineParams::default());
        prop_assert_eq!(&congest.triangles, &truth);
        let clique = clique_enumerate(&g);
        prop_assert_eq!(&clique.triangles, &truth);
    }

    #[test]
    fn ldd_outputs_partition_and_diameter_bound(
        n in 20usize..80, seed in any::<u64>(), beta in 0.15f64..0.5
    ) {
        let g = gen::gnp(n, 3.0 / n as f64, seed).unwrap();
        let params = LddParams::practical(beta, n);
        let out = low_diameter_decomposition(&g, &params, seed);
        let mut seen = vec![false; n];
        for p in &out.parts {
            for v in p.iter() {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        // Diameter bound O(log²n/β²) with a generous constant.
        if let Some(d) = out.max_part_diameter(&g) {
            let ln_n = (n as f64).ln();
            let bound = 20.0 * (ln_n / beta) * (ln_n / beta) + 4.0;
            prop_assert!((d as f64) <= bound, "diameter {d} > bound {bound}");
        }
    }

    #[test]
    fn mpx_clusters_are_partitions(n in 10usize..60, seed in any::<u64>()) {
        let g = gen::gnp(n, 4.0 / n as f64, seed).unwrap();
        let c = clustering(&g, 0.3, seed);
        prop_assert_eq!(c.cluster_of.len(), n);
        // Every vertex's cluster id must itself map to its own id (center).
        for &cid in &c.cluster_of {
            prop_assert_eq!(c.cluster_of[cid as usize], cid, "center invariant");
        }
    }

    #[test]
    fn edge_list_roundtrip(g in arb_graph()) {
        let text = graph::io::to_edge_list(&g);
        let back = graph::io::from_edge_list(&text).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn cut_conductance_bounds(g in arb_graph(), mask in arb_subset(40)) {
        let s = VertexSet::from_fn(g.n(), |v| mask[v as usize % mask.len()]);
        if let Ok(cut) = Cut::new(&g, s) {
            prop_assert!(cut.conductance() >= 0.0);
            prop_assert!(cut.conductance() <= 1.0 + 1e-12);
            prop_assert!(cut.balance() <= 0.5 + 1e-12);
        }
    }
}
