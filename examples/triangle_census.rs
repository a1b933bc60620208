//! Triangle census: the paper's headline result in action.
//!
//! Enumerates all triangles of a "social network"-style graph three ways —
//! centralized ground truth, the CONGEST algorithm of Theorem 2, and the
//! Dolev–Lenzen–Peled CONGESTED-CLIQUE baseline — and compares round
//! counts, reproducing the claim that CONGEST matches CONGESTED-CLIQUE up
//! to polylogarithmic factors.
//!
//! Run with: `cargo run --release --example triangle_census`

use expander_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two overlapping communities plus background noise: plenty of
    // triangles inside communities, a few across.
    let pp = gen::planted_partition(&[40, 40, 40], 0.35, 0.03, 9)?;
    let g = &pp.graph;
    println!("graph: n = {}, m = {}", g.n(), g.m());

    // Ground truth.
    let truth = enumerate_triangles(g);
    println!("ground truth: {} triangles", truth.len());

    // Theorem 2: CONGEST via expander decomposition + expander routing.
    let congest_out = enumerate_via_decomposition(g, &PipelineParams::default());
    assert_eq!(
        congest_out.triangles, truth,
        "CONGEST listing must be complete"
    );
    println!(
        "CONGEST:  {} triangles in {} charged rounds ({} recursion levels, \
         heaviest cluster {} routing queries)",
        congest_out.count(),
        congest_out.total_rounds(),
        congest_out.levels.len(),
        congest_out.max_routing_queries()
    );
    for l in &congest_out.levels {
        println!(
            "  level {}: m = {:>6}, clusters = {:>3}, decomp = {:>10} rounds, \
             routing build = {:>8}, routing = {:>8} ({} queries), exchange = {} engine rounds",
            l.depth,
            l.m,
            l.clusters,
            l.decomposition_rounds,
            l.routing_build_rounds,
            l.routing_rounds,
            l.routing_queries,
            l.engine.rounds
        );
    }

    // Baseline: deterministic CONGESTED-CLIQUE (Dolev–Lenzen–Peled).
    let clique_out = clique_enumerate(g);
    assert_eq!(clique_out.triangles, truth, "DLP listing must be complete");
    println!(
        "CLIQUE:   {} triangles in {} rounds (g = {} groups, max receive load {})",
        clique_out.triangles.len(),
        clique_out.rounds,
        clique_out.groups,
        clique_out.max_receive_load
    );

    println!(
        "\nCONGEST/CLIQUE round ratio: {:.1}x — the polylog gap of Theorem 2",
        congest_out.total_rounds() as f64 / clique_out.rounds.max(1) as f64
    );
    Ok(())
}
