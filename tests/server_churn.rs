//! Hot-swap under churn (DESIGN.md §15): a live TCP server rides through
//! a `DeltaLedger` rebuild mid-stream.
//!
//! * the generation advances **exactly once** per [`swap_engine`] — no
//!   double-bumps, no skipped numbers;
//! * every wire response is stamped with the generation of the engine
//!   snapshot that answered it, and the answer matches that generation's
//!   in-process oracle bit-for-bit — **zero mismatches**, even for
//!   batches in flight across the swap boundary;
//! * batches already in flight finish on the engine they started with
//!   (the stamp proves which engine answered);
//! * once a churned engine is swapped in, a wire `Reload` of a
//!   file-backed server is refused instead of reverting the churn.
//!
//! [`swap_engine`]: server::server::ServerHandle::swap_engine

use expander_repro::prelude::*;
use server::client::{Client, ResponseBody};
use server::server::{serve_engine, serve_path, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use triangle::service::Answer;
use triangle::{DeltaLedger, EdgeOp};

/// Probe queries the oracle comparison replays per generation.
fn probe_stream(n: usize) -> Vec<Query> {
    let mut qs = Vec::new();
    for v in 0..n as VertexId {
        qs.push(Query::Vertex {
            v,
            emit: Emit::Count,
        });
        qs.push(Query::Vertex {
            v,
            emit: Emit::Enumerate,
        });
        qs.push(Query::TopKBySupport { v, k: 2 });
    }
    qs
}

/// Asserts one wire response against the in-process oracle for the
/// engine generation that stamped it.
fn assert_matches_oracle(
    resp: &server::client::WireResponse,
    query: Query,
    oracles: &[(u64, Arc<QueryEngine>)],
) {
    let engine = &oracles
        .iter()
        .find(|(generation, _)| *generation == resp.generation)
        .unwrap_or_else(|| {
            panic!(
                "response stamped with unknown generation {}",
                resp.generation
            )
        })
        .1;
    let expected = engine.answer(query).unwrap();
    match &resp.body {
        ResponseBody::Answer(outcome) => {
            assert_eq!(
                outcome, &expected,
                "generation {} answered {:?} wrong",
                resp.generation, query
            );
        }
        other => panic!("expected an answer for {query:?}, got {other:?}"),
    }
}

#[test]
fn swap_mid_stream_is_generation_exact_and_mismatch_free() {
    let g0 = gen::gnp(40, 0.18, 23).unwrap();
    let params = PipelineParams {
        seed: 23,
        ..Default::default()
    };
    let engine0 = Arc::new(QueryEngine::build(&g0, &params));

    let handle = serve_engine(Arc::clone(&engine0), &ServerConfig::default()).unwrap();
    assert_eq!(handle.generation(), 1);

    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let queries = probe_stream(g0.n());

    // ── Phase A: the whole stream answers on generation 1. ──
    let oracles = vec![(1u64, Arc::clone(&engine0))];
    let responses = client.run_pipelined(&queries, 16, 8).unwrap();
    for (resp, &q) in responses.iter().zip(&queries) {
        assert_eq!(resp.generation, 1, "no swap yet");
        assert_matches_oracle(resp, q, &oracles);
    }

    // ── The churn batch: maintain incrementally, rebuild, swap. ──
    let mut ledger = DeltaLedger::new(&g0, Arc::clone(&engine0));
    let churn: Vec<EdgeOp> = (0..12)
        .map(|i| {
            if i % 3 == 0 {
                EdgeOp::Delete(i, (i + 1) % g0.n() as VertexId)
            } else {
                EdgeOp::Insert(i, (i + 5) % g0.n() as VertexId)
            }
        })
        .collect();
    ledger.apply(&churn);
    let rebuild = ledger.rebuild(&params);
    let reloads_before = handle.stats().reloads;
    let generation = handle.swap_engine(Arc::clone(&rebuild.engine));
    assert_eq!(
        generation, 2,
        "one swap advances the generation exactly once"
    );
    assert_eq!(handle.generation(), 2);
    assert_eq!(handle.stats().reloads, reloads_before + 1);
    assert!(
        Arc::ptr_eq(&handle.engine(), &rebuild.engine),
        "the serving snapshot is the refrozen engine itself"
    );

    // ── Phase B: the stream now answers on generation 2, against the
    // refrozen engine's oracle. ──
    let oracles = vec![
        (1u64, Arc::clone(&engine0)),
        (2u64, Arc::clone(&rebuild.engine)),
    ];
    let responses = client.run_pipelined(&queries, 16, 8).unwrap();
    for (resp, &q) in responses.iter().zip(&queries) {
        assert_eq!(resp.generation, 2, "post-swap batches see the new engine");
        assert_matches_oracle(resp, q, &oracles);
    }

    handle.shutdown();
}

#[test]
fn concurrent_stream_across_many_swaps_never_mismatches() {
    // A client pipelines continuously while the main thread swaps the
    // engine repeatedly (alternating two refrozen generations). Batches
    // in flight at a swap finish on their snapshot: every response's
    // generation stamp picks its oracle, and every answer must match it.
    let g0 = gen::gnp(32, 0.2, 29).unwrap();
    let params = PipelineParams {
        seed: 29,
        ..Default::default()
    };
    let engine0 = Arc::new(QueryEngine::build(&g0, &params));

    // The churned twin: one ledger batch away from g0.
    let mut ledger = DeltaLedger::new(&g0, Arc::clone(&engine0));
    ledger.apply(&[
        EdgeOp::Insert(0, 9),
        EdgeOp::Insert(1, 8),
        EdgeOp::Delete(2, 3),
    ]);
    let engine1 = ledger.rebuild(&params).engine;

    const WINDOW: usize = 16;
    let handle = serve_engine(Arc::clone(&engine0), &ServerConfig::default()).unwrap();
    let addr = handle.addr();

    const SWAPS: u64 = 6;
    let lap: Vec<Query> = probe_stream(g0.n()).into_iter().cycle().take(400).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let (worker_lap, worker_stop) = (lap.clone(), Arc::clone(&stop));
    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Keep the pipeline busy, lap after lap, until every swap is in.
        let mut responses = Vec::new();
        while !worker_stop.load(Ordering::SeqCst) {
            responses.extend(client.run_pipelined(&worker_lap, WINDOW, 16).unwrap());
        }
        responses
    });
    // Swaps are paced by the stream, not by the clock: each waits for two
    // windows of fresh answers. At most one window was outstanding at the
    // previous swap, so at least one window of them was read, batched and
    // snapshotted under the current generation — every generation
    // provably serves part of the stream, whatever the thread timing.
    let await_two_windows = || {
        let seen = handle.stats().answered;
        while handle.stats().answered < seen + 2 * WINDOW as u64 {
            assert!(!client_thread.is_finished(), "the client stopped early");
            std::thread::sleep(Duration::from_micros(100));
        }
    };

    // Generation g serves engine0 when g is odd, engine1 when even.
    let mut expected_generation = 1;
    for _ in 0..SWAPS {
        await_two_windows();
        let next = if expected_generation % 2 == 1 {
            Arc::clone(&engine1)
        } else {
            Arc::clone(&engine0)
        };
        let generation = handle.swap_engine(next);
        expected_generation += 1;
        assert_eq!(
            generation, expected_generation,
            "each swap advances the generation exactly once"
        );
    }
    assert_eq!(handle.generation(), 1 + SWAPS);
    assert_eq!(handle.stats().reloads, SWAPS);

    let oracles: Vec<(u64, Arc<QueryEngine>)> = (1..=1 + SWAPS)
        .map(|generation| {
            let engine = if generation % 2 == 1 {
                Arc::clone(&engine0)
            } else {
                Arc::clone(&engine1)
            };
            (generation, engine)
        })
        .collect();
    await_two_windows();
    stop.store(true, Ordering::SeqCst);
    let responses = client_thread.join().unwrap();
    assert_eq!(responses.len() % lap.len(), 0, "whole laps only");
    let mut by_generation = vec![0u64; 2 + SWAPS as usize];
    for (resp, &q) in responses.iter().zip(lap.iter().cycle()) {
        assert!(
            (1..=1 + SWAPS).contains(&resp.generation),
            "generation {} was never armed",
            resp.generation
        );
        by_generation[resp.generation as usize] += 1;
        assert_matches_oracle(resp, q, &oracles);
    }
    // The stream genuinely crossed every swap boundary.
    let active = by_generation.iter().filter(|&&c| c > 0).count();
    assert_eq!(
        active,
        1 + SWAPS as usize,
        "every generation should answer part of the stream: {by_generation:?}"
    );

    handle.shutdown();
}

#[test]
fn wire_reload_after_a_swap_keeps_the_churned_engine() {
    // The server starts from a file; vertex 0 loses every edge through the
    // ledger, and the rebuilt engine is swapped in. Re-opening the file
    // would bring vertex 0's triangles back under a fresh generation, so
    // the reload must be refused and leave generation and engine alone.
    let g0 = gen::gnp(60, 0.3, 7).unwrap();
    let path = storage::test_dir("reload-after-swap").join("g.csr");
    write_graph(&g0, &path).unwrap();
    let params = PipelineParams {
        seed: 7,
        ..Default::default()
    };
    let (handle, _) = serve_path(&path, &params, &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let count_0 = Query::Vertex {
        v: 0,
        emit: Emit::Count,
    };
    let answer_0 = |client: &mut Client| match client.query(count_0).unwrap().body {
        ResponseBody::Answer(outcome) => outcome.answer,
        other => panic!("expected an answer, got {other:?}"),
    };
    assert_ne!(
        answer_0(&mut client),
        Answer::Count(0),
        "vertex 0 starts on triangles"
    );

    let mut ledger = DeltaLedger::new(&g0, handle.engine());
    let cut: Vec<EdgeOp> = g0
        .neighbors(0)
        .iter()
        .map(|&w| EdgeOp::Delete(0, w))
        .collect();
    ledger.apply(&cut);
    let churned = ledger.rebuild(&params).engine;
    assert_eq!(handle.swap_engine(Arc::clone(&churned)), 2);
    assert_eq!(answer_0(&mut client), Answer::Count(0));

    let failures_before = handle.stats().reload_failures;
    let (swapped, generation) = client.reload().unwrap();
    assert!(!swapped, "a file reload would revert the swapped-in churn");
    assert_eq!(
        generation, 2,
        "a refused reload leaves the generation alone"
    );
    assert_eq!(handle.stats().reload_failures, failures_before + 1);
    assert!(Arc::ptr_eq(&handle.engine(), &churned));
    assert_eq!(answer_0(&mut client), Answer::Count(0));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
