//! The serve tier: deterministic query streams for the triangle-query
//! service ([`triangle::service::QueryEngine`]), shared by `exp_serve`,
//! `exp_server` and `exp_ingest`.
//!
//! Streams are a pure function of `(graph, count, seed)` so every
//! consumer — the latency sweep, the CI smoke job, the equivalence
//! audits — replays bit-identical batches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triangle::service::{Emit, Query};

/// Generates a deterministic mixed query stream over `g`: ~40% vertex
/// enumerations, ~20% vertex counts, ~30% edge queries biased toward real
/// edges (random incident neighbor of a random vertex), ~10% top-k. The
/// mix keeps a realistic skew — heavy vertices are hit proportionally to
/// nothing (uniform vertex choice), so hub queries and leaf queries both
/// appear.
pub fn serve_query_stream(g: &graph::Graph, count: usize, seed: u64) -> Vec<Query> {
    if g.n() == 0 || count == 0 {
        return Vec::new();
    }
    let n = g.n() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let roll: u32 = rng.random_range(0..100);
            let v: u32 = rng.random_range(0..n);
            if roll < 40 {
                Query::Vertex {
                    v,
                    emit: Emit::Enumerate,
                }
            } else if roll < 60 {
                Query::Vertex {
                    v,
                    emit: Emit::Count,
                }
            } else if roll < 90 {
                let nbrs = g.neighbors(v);
                let u = if nbrs.is_empty() {
                    // Isolated vertex: fall back to a (likely) non-edge.
                    rng.random_range(0..n)
                } else {
                    nbrs[rng.random_range(0..nbrs.len())]
                };
                let emit = if roll < 75 {
                    Emit::Enumerate
                } else {
                    Emit::Count
                };
                Query::Edge { u: v, v: u, emit }
            } else {
                Query::TopKBySupport {
                    v,
                    k: rng.random_range(1..9),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_mixed() {
        let g = graph::gen::gnp(50, 0.2, 3).unwrap();
        let a = serve_query_stream(&g, 500, 42);
        let b = serve_query_stream(&g, 500, 42);
        assert_eq!(a, b, "same (graph, count, seed) must replay identically");
        assert_ne!(a, serve_query_stream(&g, 500, 43));
        let vertex = a
            .iter()
            .filter(|q| matches!(q, Query::Vertex { .. }))
            .count();
        let edge = a.iter().filter(|q| matches!(q, Query::Edge { .. })).count();
        let topk = a
            .iter()
            .filter(|q| matches!(q, Query::TopKBySupport { .. }))
            .count();
        assert!(vertex > 0 && edge > 0 && topk > 0, "{vertex}/{edge}/{topk}");
        assert_eq!(vertex + edge + topk, 500);
    }

    #[test]
    fn degenerate_inputs_produce_empty_streams() {
        let g = graph::Graph::from_edges(0, []).unwrap();
        assert!(serve_query_stream(&g, 100, 1).is_empty());
        let g = graph::gen::gnp(10, 0.5, 1).unwrap();
        assert!(serve_query_stream(&g, 0, 1).is_empty());
    }
}
