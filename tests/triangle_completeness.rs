//! Theorem 2 end-to-end: the CONGEST enumeration and the DLP clique
//! baseline must both report exactly the ground-truth triangle set, on
//! every family.

use expander_repro::prelude::*;

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp_sparse", gen::gnp(60, 0.08, 1).unwrap()),
        ("gnp_dense", gen::gnp(48, 0.4, 2).unwrap()),
        (
            "sbm",
            gen::planted_partition(&[25, 25], 0.5, 0.05, 3)
                .unwrap()
                .graph,
        ),
        ("ring_of_cliques", gen::ring_of_cliques(5, 6).unwrap().0),
        ("complete", gen::complete(14).unwrap()),
        ("barbell", gen::barbell(9).unwrap().0),
        ("triangle_free_grid", gen::grid(6, 6).unwrap()),
        ("chung_lu", gen::chung_lu(70, 2.6, 7.0, 4).unwrap()),
    ]
}

#[test]
fn congest_enumeration_is_complete() {
    for (name, g) in families() {
        let truth = enumerate_triangles(&g);
        let out = enumerate_via_decomposition(&g, &PipelineParams::default());
        assert_eq!(out.triangles, truth, "{name}: CONGEST listing incomplete");
    }
}

#[test]
fn clique_enumeration_is_complete() {
    for (name, g) in families() {
        let truth = enumerate_triangles(&g);
        let out = clique_enumerate(&g);
        assert_eq!(out.triangles, truth, "{name}: DLP listing incomplete");
    }
}

#[test]
fn congest_handles_adversarial_cross_cluster_triangles() {
    // Plant triangles whose edges all cross cluster boundaries: take a
    // ring of cliques and wire one vertex from each of three consecutive
    // cliques into a triangle.
    let (base, _) = gen::ring_of_cliques(6, 5).unwrap();
    let mut edges: Vec<(VertexId, VertexId)> = base.edges().collect();
    edges.extend([(2, 8), (8, 13), (2, 13), (7, 18), (18, 23), (7, 23)]);
    let g = Graph::from_edges(30, edges).unwrap();
    let truth = enumerate_triangles(&g);
    let out = enumerate_via_decomposition(&g, &PipelineParams::default());
    assert_eq!(out.triangles, truth);
}

#[test]
fn recursion_terminates_within_log_levels() {
    let g = gen::gnp(80, 0.2, 9).unwrap();
    let out = enumerate_via_decomposition(&g, &PipelineParams::default());
    // ε ≤ 1/6 per level ⇒ levels ≤ log_6(m) + 1.
    let bound = (g.m() as f64).log(6.0).ceil() as usize + 1;
    assert!(
        out.levels.len() <= bound,
        "{} levels exceeds log_6(m) bound {bound}",
        out.levels.len()
    );
}

#[test]
fn both_models_agree_with_each_other() {
    for seed in 0..3 {
        let g = gen::gnp(50, 0.25, seed).unwrap();
        let a = enumerate_via_decomposition(&g, &PipelineParams::default());
        let b = clique_enumerate(&g);
        assert_eq!(a.triangles, b.triangles, "seed {seed}");
    }
}

#[test]
fn counting_matches_enumeration() {
    let g = gen::planted_partition(&[20, 20, 20], 0.4, 0.05, 8)
        .unwrap()
        .graph;
    assert_eq!(count_triangles(&g) as usize, enumerate_triangles(&g).len());
}
