//! The service's equivalence contract, property-tested end to end: for
//! random query streams over gnp / planted-partition / ring-of-cliques
//! graphs, the concurrent `QueryEngine` answers (forced 4-worker pool)
//! must equal the sequential replay **and** the filter of the full
//! `enumerate_via_decomposition` witness set — the three ways of asking
//! the same question the tentpole promises are one.

use expander::SchedulerPolicy;
use expander_repro::prelude::*;
use proptest::prelude::*;
use triangle::service::{Answer, EdgeSupport, Emit, Query, QueryEngine};

/// Decodes one raw u64 into a query over `n` vertices — a deterministic
/// stand-in for a client, so proptest shrinks over streams directly.
fn decode_query(raw: u64, n: u32) -> Query {
    let roll = (raw % 100) as u32;
    let a = ((raw >> 8) % n as u64) as u32;
    let b = ((raw >> 32) % n as u64) as u32;
    if roll < 35 {
        Query::Vertex {
            v: a,
            emit: Emit::Enumerate,
        }
    } else if roll < 55 {
        Query::Vertex {
            v: a,
            emit: Emit::Count,
        }
    } else if roll < 90 {
        Query::Edge {
            u: a,
            v: b,
            emit: if roll < 75 {
                Emit::Enumerate
            } else {
                Emit::Count
            },
        }
    } else {
        Query::TopKBySupport {
            v: a,
            k: (raw >> 16) as usize % 6 + 1,
        }
    }
}

/// The reference answer, computed from the **full pipeline witness set**
/// with an independent implementation of each query's semantics.
fn reference_answer(full: &[Triangle], g: &Graph, q: Query) -> Answer {
    match q {
        Query::Vertex { v, emit } => {
            let hits: Vec<Triangle> = full.iter().copied().filter(|t| t.contains(v)).collect();
            match emit {
                Emit::Count => Answer::Count(hits.len() as u64),
                Emit::Enumerate => Answer::Triangles(hits),
            }
        }
        Query::Edge { u, v, emit } => {
            // A triangle contains the edge {u, v} iff it contains both
            // endpoints — except the degenerate u == v self-loop, which
            // no triangle contains.
            let hits: Vec<Triangle> = full
                .iter()
                .copied()
                .filter(|t| u != v && t.contains(u) && t.contains(v))
                .collect();
            match emit {
                Emit::Count => Answer::Count(hits.len() as u64),
                Emit::Enumerate => Answer::Triangles(hits),
            }
        }
        Query::TopKBySupport { v, k } => {
            let mut nbrs: Vec<VertexId> = g.neighbors(v).to_vec();
            nbrs.dedup();
            let mut edges: Vec<EdgeSupport> = nbrs
                .into_iter()
                .filter(|&u| u != v)
                .map(|u| {
                    let support = full
                        .iter()
                        .filter(|t| t.contains(u) && t.contains(v))
                        .count() as u64;
                    EdgeSupport {
                        u: v.min(u),
                        v: v.max(u),
                        support,
                    }
                })
                .collect();
            edges.sort_unstable_by(|a, b| {
                b.support
                    .cmp(&a.support)
                    .then(a.u.cmp(&b.u))
                    .then(a.v.cmp(&b.v))
            });
            edges.truncate(k);
            Answer::TopEdges(edges)
        }
    }
}

/// The shared audit: concurrent == sequential == filtered witness set.
fn audit(g: &Graph, engine: &QueryEngine, raw_stream: &[u64]) -> Result<(), TestCaseError> {
    let n = g.n() as u32;
    let queries: Vec<Query> = raw_stream.iter().map(|&r| decode_query(r, n)).collect();
    let seq = engine.serve(&queries, &SchedulerPolicy::sequential());
    let par = engine.serve(&queries, &SchedulerPolicy::with_workers(4));
    prop_assert!(
        seq.answers_match(&par),
        "4-worker answers differ from sequential replay"
    );
    // The batched dispatch (PR 9) must be invisible in the answers: the
    // per-query reference path, the auto-chunked default, and an
    // awkward explicit chunk size all agree bit-for-bit — while the
    // chunked paths actually batch (fewer scheduler jobs than queries).
    let unbatched = engine.serve_chunked(&queries, &SchedulerPolicy::with_workers(4), 1);
    prop_assert!(
        seq.answers_match(&unbatched),
        "per-query reference answers differ from sequential replay"
    );
    prop_assert_eq!(unbatched.stats.jobs, queries.len());
    let chunked = engine.serve_chunked(&queries, &SchedulerPolicy::with_workers(3), 7);
    prop_assert!(
        seq.answers_match(&chunked),
        "chunk-7 answers differ from sequential replay"
    );
    prop_assert!(
        par.stats.jobs < queries.len(),
        "auto-chunked serve did not batch: {} jobs for {} queries",
        par.stats.jobs,
        queries.len()
    );
    let full = enumerate_via_decomposition(g, &PipelineParams::default()).triangles;
    for (q, got) in queries.iter().zip(&seq.answers) {
        let got = got.as_ref().expect("in-range queries never error");
        let want = reference_answer(&full, g, *q);
        prop_assert_eq!(&got.answer, &want, "query {:?}", q);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn service_matches_pipeline_on_gnp(
        n in 8usize..40,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u64>(), 40)
    ) {
        let g = gen::gnp(n, p, seed).unwrap();
        let engine = QueryEngine::build(&g, &PipelineParams::default());
        audit(&g, &engine, &raw)?;
    }

    #[test]
    fn service_matches_pipeline_on_planted_partition(
        half in 8usize..20,
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u64>(), 40)
    ) {
        // The from_assignment path: planted blocks stand in for a cached
        // decomposition, exactly as the scale tier drives the pipeline.
        let pp = gen::planted_partition(
            &[half, half],
            0.5,
            0.1,
            seed,
        ).unwrap();
        let assignment = ClusterAssignment::from_parts(
            &pp.graph,
            &pp.blocks,
            0.1,
            &SchedulerPolicy::sequential(),
        );
        let engine = QueryEngine::from_assignment(&pp.graph, assignment, &PipelineParams::default());
        audit(&pp.graph, &engine, &raw)?;
    }

    #[test]
    fn service_matches_pipeline_on_ring_of_cliques(
        count in 3usize..7,
        size in 3usize..7,
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u64>(), 40)
    ) {
        let (g, _) = gen::ring_of_cliques(count, size).unwrap();
        let engine = QueryEngine::build(&g, &PipelineParams { seed, ..Default::default() });
        audit(&g, &engine, &raw)?;
    }
}
