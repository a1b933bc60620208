//! **E6 — the headline pipeline**: per-phase round budgets of the
//! end-to-end expander-routed triangle enumeration vs the paper's bounds.
//!
//! Workload: `G(n, p = 0.3)` (decomposition-heavy) plus a ring of cliques
//! (cluster-heavy). For each n: run `enumerate_via_decomposition`, verify
//! completeness against ground truth, and report the per-phase budgets —
//! decomposition rounds, routing build/query rounds, measured engine
//! traffic — next to the paper's `Õ(n^{1/3})` query budget and the
//! rounds of the DLP CONGESTED-CLIQUE baseline on the same graph. The
//! fitted growth exponent of the heaviest routing instance is the
//! headline number: the paper predicts ~1/3 up to polylog drift, the same
//! `Θ̃(n^{1/3})` shape as the clique baseline's exponent printed beside it.

use bench_suite::{fit_exponent, gnp_family, Table};
use triangle::pipeline::{enumerate_via_decomposition, PipelineParams};
use triangle::{clique_enumerate, enumerate_triangles};

fn main() {
    let mut table = Table::new(
        "E6: pipeline phase budgets (Theorem 2 end to end)",
        &[
            "workload",
            "n",
            "m",
            "triangles",
            "levels",
            "decomp_rounds",
            "route_build",
            "route_queries",
            "query_budget",
            "engine_rounds",
            "engine_msgs",
            "total_rounds",
            "clique_rounds",
            "complete",
        ],
    );
    let mut query_pts: Vec<(f64, f64)> = Vec::new();
    let mut clique_pts: Vec<(f64, f64)> = Vec::new();
    let params = PipelineParams::default();

    let mut workloads: Vec<(String, graph::Graph)> = Vec::new();
    let sizes: &[usize] = bench_suite::tiny_or(&[24, 32], &[32, 64, 96, 128]);
    for &n in sizes {
        workloads.push((format!("gnp{n}"), gnp_family(n, 0.3, 42 + n as u64)));
    }
    let (rc, rs) = bench_suite::tiny_or((4, 5), (8, 8));
    let (ring, _) = graph::gen::ring_of_cliques(rc, rs).unwrap();
    workloads.push((format!("ring{rc}x{rs}"), ring));

    for (name, g) in &workloads {
        let report = enumerate_via_decomposition(g, &params);
        let clique = clique_enumerate(g);
        let truth = enumerate_triangles(g);
        let complete = report.triangles == truth && clique.triangles == truth;
        let decomp: u64 = report.levels.iter().map(|l| l.decomposition_rounds).sum();
        let build: u64 = report.levels.iter().map(|l| l.routing_build_rounds).sum();
        let engine = report.phases.phase("enumerate");
        table.row(vec![
            name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            report.count().to_string(),
            report.levels.len().to_string(),
            decomp.to_string(),
            build.to_string(),
            report.max_routing_queries().to_string(),
            format!("{:.0}", report.paper_query_budget()),
            engine.rounds.to_string(),
            engine.messages.to_string(),
            report.total_rounds().to_string(),
            clique.rounds.to_string(),
            complete.to_string(),
        ]);
        if name.starts_with("gnp") && report.max_routing_queries() > 0 {
            query_pts.push((g.n() as f64, report.max_routing_queries() as f64));
            clique_pts.push((g.n() as f64, clique.rounds.max(1) as f64));
        }
    }

    print!("{}", table.to_text());
    println!();
    print!("{}", table.to_csv());
    if query_pts.len() >= 2 {
        println!(
            "\nfitted routing-query exponent on gnp: {:.3} (paper: ~1/3 + polylog drift)",
            fit_exponent(&query_pts)
        );
        println!(
            "fitted clique (DLP) round exponent on gnp: {:.3} (paper: 1/3)",
            fit_exponent(&clique_pts)
        );
    }
}
