//! The traced run: one lifecycle with a span around every public call,
//! each composite call replaced by its pieces, and the per-layer metrics
//! read off the spans' self times.
//!
//! | composite | pieces |
//! |---|---|
//! | `QueryEngine::build` | `ExpanderDecomposition::run`, `cluster_assignment_with`, `QueryEngine::from_assignment` |
//! | `serve_path` | `CsrFile::open` (+ `to_graph` or `artifact::load`), `serve_engine` |
//! | `DeltaLedger::rebuild` | `WorkingGraph::to_graph`, `recluster_broken`, `ClusterAssignment::from_parts`, `QueryEngine::refreeze` |
//!
//! Wherever a composite is split, the engine the pieces produce must answer
//! the probe sweep exactly like the composite's. The pass also sends the
//! pipelined stream once more with the workload's rebuild cycles swapping
//! engines underneath it (`server.qps_under_churn`).

use crate::inputs::{generate, Inputs};
use crate::lifecycle::{
    apply_to_overlay, check_probe_identity, cold_start, engine_digests, first_answer,
    first_query_vertex, oracle_answers, oracle_counts, pipelined, restart_cycles, serving_epochs,
    triangles_through, Ctx,
};
use crate::stats::{mean, median, percentile};
use crate::summary::Report;
use crate::trace::Tracer;
use expander::ldd::{low_diameter_decomposition, LddParams};
use expander::params::SparseCutParams;
use expander::sparse_cut::sparse_cut_with_params;
use expander::verify::certify_current;
use expander::{
    derive_seed, recluster_broken, ClusterAssignment, ExpanderDecomposition, ReclusterParams,
};
use graph::view::Subgraph;
use graph::{VertexId, WorkingGraph};
use routing::RoutingHierarchy;
use server::protocol::{decode_query, encode_query};
use server::{read_frame, write_frame, Client, Frame, Opcode};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use storage::{artifact, convert_edge_list, ConvertOptions, CsrFile};
use triangle::service::QueryEngine;
use triangle::{count_triangles, DeltaLedger};

/// Iterations of the two micro-loops (`route_query`, codec round trip).
const MICRO_LOOP: usize = 20_000;
/// Ledger batches timed one span each in the traced apply phase.
const TRACED_APPLY_PAIRS: usize = 100;

/// Runs the traced lifecycle and fills the per-layer metrics.
pub fn run_traced(ctx: &mut Ctx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    tracer.next_lifecycle();
    let params = ctx.params.clone();
    let policy = params.scheduler_policy();
    let csr = ctx.csr_path();

    // ── Inputs and the oracle counts. ──
    let inputs: Inputs = tracer.span("bench.setup", |t| {
        generate(&ctx.spec, ctx.seed, &ctx.dir, t)
    });
    let triangles = tracer.span("bench.oracle", |_| oracle_counts(ctx, &inputs));
    let v0 = first_query_vertex(&inputs);
    let expected0 = triangles_through(&inputs.graph, v0);

    // ── The untraced reference for the overhead figure: the two composite
    //    calls, once each, exactly as the end-to-end run makes them. ──
    let reference = cold_start(ctx, &inputs, v0, expected0);
    let t = Instant::now();
    let full = triangle::enumerate_via_decomposition(&inputs.graph, &params);
    let reference_s = reference.seconds + t.elapsed().as_secs_f64();
    ctx.checks.check(full.count() == triangles, || {
        format!(
            "enumeration found {} of {triangles} triangles",
            full.count()
        )
    });
    report.set(
        "congest.exchange_rounds",
        full.levels.iter().map(|l| l.engine.rounds as f64).sum(),
    );
    report.set("congest.exchange_words", full.exchange_words() as f64);
    report.set("congest.exchange_messages", full.exchange_messages() as f64);
    drop(full);
    let composite_digests = engine_digests(&reference.engine, &inputs.probe_queries);
    drop(reference);

    // ── Cold start, in pieces. ──
    let _ = std::fs::remove_file(&csr);
    let (g, decomp, assignment, engine, converted_edges) = tracer.span("cold_start", |t| {
        let converted = t.span("storage.convert", |_| {
            convert_edge_list(&inputs.edge_list, &csr, &ConvertOptions::default())
                .expect("convert the generated edge list")
        });
        let g = t.span("storage.open", |_| {
            CsrFile::open(&csr)
                .and_then(|f| f.to_graph())
                .expect("open the converted file")
        });
        // The same builder calls, in the same order, as `QueryEngine::build`.
        let decomp = t.span("expander.decompose", |_| {
            ExpanderDecomposition::builder()
                .epsilon(params.epsilon.clamp(1e-3, 1.0 / 6.0))
                .k(params.decomposition_k.max(1))
                .mode(params.mode)
                .seed(derive_seed(params.seed, 0))
                .build()
                .run(&g)
                .expect("workload graphs have vertices")
        });
        let assignment = t.span("expander.assign", |_| {
            decomp.cluster_assignment_with(&g, &policy)
        });
        let engine = t.span("triangle.service.freeze", |_| {
            Arc::new(QueryEngine::from_assignment(
                &g,
                assignment.clone(),
                &params,
            ))
        });
        let handle = t.span("server.startup", |_| {
            server::serve_engine(Arc::clone(&engine), &ctx.config).expect("bind a loopback port")
        });
        let client = t.span("server.first_answer", |_| {
            first_answer(&handle, v0, expected0, &mut ctx.checks)
        });
        t.span("storage.store", |_| {
            artifact::store(&csr, &engine).expect("persist the engine")
        });
        drop(client);
        handle.shutdown();
        (g, decomp, assignment, engine, converted.m)
    });
    ctx.checks.check(g == inputs.graph, || {
        "the converted file does not hold the generated graph".to_string()
    });
    check_probe_identity(
        &engine,
        &composite_digests,
        &inputs.probe_queries,
        "decompose + assign + freeze vs QueryEngine::build",
        &mut ctx.checks,
    );
    let prefix_rounds = |prefix: &str| -> f64 {
        decomp
            .ledger
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(prefix))
            .map(|(_, rounds)| rounds)
            .sum::<u64>() as f64
    };
    report.set("expander.rounds.ldd", prefix_rounds("ldd"));
    report.set("expander.rounds.nibble", prefix_rounds("nibble"));
    report.set(
        "expander.rounds.parallel_nibble",
        prefix_rounds("parallel_nibble"),
    );
    report.set("expander.clusters", decomp.parts.len() as f64);
    report.set("expander.cut_fraction", decomp.inter_cluster_fraction());
    report.set(
        "triangle.service.snapshot_words",
        engine.build_report().snapshot_words as f64,
    );
    report.set(
        "storage.artifact_bytes",
        std::fs::metadata(&csr).map_or(0.0, |m| m.len() as f64),
    );

    // ── Restart, in pieces; and the frozen form both ways. ──
    let restored = tracer.span("restart", |t| {
        let file = t.span("storage.reopen", |_| {
            CsrFile::open(&csr).expect("reopen the file")
        });
        let restored = t.span("storage.load", |_| {
            Arc::new(artifact::load(&file).expect("load the artifact"))
        });
        let handle = t.span("server.startup", |_| {
            server::serve_engine(Arc::clone(&restored), &ctx.config).expect("bind a loopback port")
        });
        let client = t.span("server.first_answer", |_| {
            first_answer(&handle, v0, expected0, &mut ctx.checks)
        });
        drop(client);
        handle.shutdown();
        restored
    });
    check_probe_identity(
        &restored,
        &composite_digests,
        &inputs.probe_queries,
        "artifact::load vs the built engine",
        &mut ctx.checks,
    );
    drop(restored);
    // The composite restart, repeated as the end-to-end run repeats it.
    let restarts = restart_cycles(ctx, v0, expected0);
    report.set("server.restart_s", median(&restarts));
    let frozen = tracer.span("triangle.service.to_frozen", |_| engine.to_frozen());
    let thawed = tracer.span("triangle.service.from_frozen", |_| {
        QueryEngine::from_frozen(frozen).expect("a frozen engine restores")
    });
    check_probe_identity(
        &thawed,
        &composite_digests,
        &inputs.probe_queries,
        "from_frozen(to_frozen) vs the built engine",
        &mut ctx.checks,
    );
    drop(thawed);

    // ── The enumeration: the composite call under one span (what the
    //    overhead figure compares), then its cluster phase alone on the
    //    assignment decomposed above (what attributes it). ──
    let again = tracer.span("triangle.enumerate", |_| {
        triangle::enumerate_via_decomposition(&g, &params)
    });
    ctx.checks.check(again.count() == triangles, || {
        format!(
            "enumeration found {} of {triangles} triangles",
            again.count()
        )
    });
    drop(again);
    let clusters = tracer.span("triangle.pipeline.clusters", |_| {
        triangle::enumerate_with_assignment(&g, &assignment, &params)
    });
    ctx.checks.check(clusters.count() == triangles, || {
        format!(
            "cluster phase found {} of {triangles} triangles",
            clusters.count()
        )
    });
    for (metric, phase) in [
        ("triangle.pipeline.dlp_s", "clusters.dlp"),
        ("triangle.pipeline.exchange_s", "clusters.exchange"),
        ("triangle.pipeline.join_s", "clusters.join"),
    ] {
        report.set(metric, clusters.phases.wall(phase).as_secs_f64());
    }
    drop(clusters);

    // ── Theorem 4 and Theorem 3 once each on the input graph, with the
    //    parameters and the seed the decomposition's first level starts
    //    from. (The sparse cut's wall on `powerlaw-1m` is ≈ 1 s, 26 s or
    //    52 s depending on this seed alone; see the README.) ──
    let level_seed = derive_seed(params.seed, 0);
    let ldd_params = LddParams::practical(decomp.params.beta, g.n());
    tracer.span("expander.ldd", |_| {
        black_box(low_diameter_decomposition(&g, &ldd_params, level_seed))
    });
    let sc_params = SparseCutParams::from_phi_run(
        decomp.params.run_schedule[0],
        g.m(),
        g.total_volume(),
        params.mode,
    );
    let ln_n = (g.n().max(2) as f64).ln();
    let diameter_hint = ((ln_n / decomp.params.beta).powi(2).ceil() as u32)
        .max(4)
        .min(g.n() as u32);
    tracer.span("expander.sparse_cut", |_| {
        black_box(sparse_cut_with_params(
            &g,
            &sc_params,
            diameter_hint,
            level_seed,
        ))
    });

    // ── Routing: the hierarchy of the largest cluster, then queries on it. ──
    let largest = (0..assignment.cluster_count())
        .max_by_key(|&c| assignment.certificates[c].internal_edges)
        .expect("at least one cluster");
    let sub = Subgraph::induced(&g, &assignment.clusters[largest]);
    let hierarchy = tracer.span("routing.build", |_| {
        RoutingHierarchy::build(
            sub.graph(),
            params.routing_depth.max(1),
            derive_seed(derive_seed(params.seed, 0), largest as u64),
        )
        .expect("the largest cluster has edges")
    });
    let degrees: Vec<u32> = (0..sub.len())
        .map(|u| sub.graph().degree(u as VertexId) as u32)
        .collect();
    tracer.span("routing.route_query", |_| {
        for i in 0..MICRO_LOOP {
            let dst = (i * 7919 % sub.len()) as VertexId;
            let charge = hierarchy.route_query(&degrees, dst, degrees[dst as usize] as u64 + 1);
            black_box(charge.expect("destination is in range"));
        }
    });
    drop((hierarchy, sub, degrees));

    // ── Serving: the in-process oracle, the same streams on the wire in
    //    epochs, then the pipelined stream once more with the workload's
    //    rebuild cycles swapping engines underneath it. ──
    let (served, latency_digests, qps_digests) =
        tracer.span("bench.oracle", |_| oracle_answers(&engine, &inputs));
    report.set("triangle.service.serve_qps", served.throughput_qps());
    let answer_p50_ns = served.latency_percentile(50.0).as_nanos() as f64;
    report.set("triangle.service.answer_p50_ns", answer_p50_ns);
    report.set(
        "triangle.service.words_per_query",
        served.total_words() as f64 / served.answers.len().max(1) as f64,
    );
    drop(served);
    let wire = serving_epochs(ctx, tracer, &inputs, &g, &latency_digests, &qps_digests);
    let wire_p50_us = median(&wire.epoch_p50_us);
    report.set("server.wire_p50_us", wire_p50_us);
    report.set("server.wire_p99_us", percentile(&wire.rtts_us, 99.0));
    report.set("server.wire_overhead_us", wire_p50_us - answer_p50_ns / 1e3);
    report.set("server.batches", wire.batches as f64);
    report.set(
        "server.queries_per_batch",
        wire.answered as f64 / (wire.batches as f64).max(1.0),
    );
    report.set("server.busy_retries", wire.busy as f64);
    drop(wire);
    let handle = server::serve_engine(Arc::clone(&engine), &ctx.config).expect("bind a port");
    let mut client = Client::connect(handle.addr()).expect("connect to the loopback server");
    let under_churn = tracer.span("wire.pipelined_under_churn", |_| {
        pipelined(
            ctx,
            &handle,
            &mut client,
            &g,
            &inputs.qps_queries,
            &qps_digests,
            &inputs.rebuild_cycles,
        )
    });
    report.set("server.qps_under_churn", under_churn);
    drop((client, latency_digests, qps_digests));
    handle.shutdown();
    tracer.span("server.codec_roundtrip", |_| {
        let mut wire = Vec::with_capacity(64);
        for i in 0..MICRO_LOOP {
            let q = inputs.latency_queries[i % inputs.latency_queries.len()];
            wire.clear();
            let frame = Frame::new(Opcode::Query, i as u64, 0, encode_query(&q));
            write_frame(&mut wire, &frame).expect("write to memory");
            let back = read_frame(&mut wire.as_slice(), server::protocol::DEFAULT_MAX_PAYLOAD)
                .expect("the frame just written decodes")
                .expect("one whole frame");
            black_box(decode_query(&back.payload).expect("the query just encoded decodes"));
        }
    });

    // ── Churn: open, apply, and the rebuild both whole and in pieces. ──
    let handle = server::serve_engine(Arc::clone(&engine), &ctx.config).expect("bind a port");
    let mut ledger = tracer.span("triangle.churn.open", |_| {
        DeltaLedger::new(&g, Arc::clone(&engine))
    });
    for (batch, inverse) in inputs.apply_pairs.iter().take(TRACED_APPLY_PAIRS) {
        tracer.span("triangle.churn.apply", |_| ledger.apply(batch));
        tracer.span("triangle.churn.apply", |_| ledger.apply(inverse));
        ctx.checks.check(ledger.triangles() == triangles, || {
            "an apply pair did not return the ledger to the base count".to_string()
        });
    }
    tracer.span("graph.count_triangles", |_| black_box(count_triangles(&g)));
    // The rebuild cycles start from a ledger no apply pair has dirtied.
    let mut ledger = DeltaLedger::new(&g, Arc::clone(&engine));
    let recluster = ReclusterParams {
        epsilon: params.epsilon,
        k: params.decomposition_k.max(1),
        mode: params.mode,
        seed: derive_seed(params.seed, 1),
    };
    let mut working = WorkingGraph::new(&g);
    let mut current = Arc::clone(&engine);
    let (mut checked, mut broken, mut reused, mut rebuilt) = (vec![], vec![], vec![], vec![]);
    for cycle in inputs.rebuild_cycles.iter().take(ctx.spec.traced_cycles) {
        ledger.apply(cycle);
        apply_to_overlay(&mut working, cycle);
        let mut dirty = vec![false; current.assignment().cluster_count()];
        for op in cycle {
            let (triangle::EdgeOp::Insert(u, v) | triangle::EdgeOp::Delete(u, v)) = *op;
            dirty[current.assignment().cluster_of[u as usize] as usize] = true;
            dirty[current.assignment().cluster_of[v as usize] as usize] = true;
        }
        let whole = tracer.span("triangle.churn.rebuild", |_| ledger.rebuild(&params));
        checked.push(whole.checked as f64);
        broken.push(whole.broken as f64);
        reused.push(whole.reused as f64);
        rebuilt.push(whole.rebuilt as f64);
        let (g_now, next) = tracer.span("rebuild_pieces", |t| {
            let g_now = t.span("graph.to_graph", |_| working.to_graph());
            let scope = t.span("expander.recluster", |_| {
                recluster_broken(&working, current.assignment(), &dirty, &recluster)
            });
            let next_assignment = t.span("triangle.churn.assign", |_| {
                ClusterAssignment::from_parts(
                    &g_now,
                    &scope.parts,
                    current.assignment().phi,
                    &policy,
                )
            });
            let next = t.span("triangle.churn.refreeze", |_| {
                Arc::new(QueryEngine::refreeze(
                    &g_now,
                    next_assignment,
                    &params,
                    &current,
                    &scope.reuse,
                ))
            });
            t.span("server.swap", |_| handle.swap_engine(Arc::clone(&next)));
            (g_now, next)
        });
        // Attribution only: the certificate work `recluster_broken` does
        // inside, repeated on its own.
        tracer.span("expander.certify", |_| {
            for (c, _) in dirty.iter().enumerate().filter(|(_, d)| **d) {
                black_box(certify_current(&working, &current.assignment().clusters[c]));
            }
        });
        let recount = tracer.span("triangle.churn.recount", |_| count_triangles(&g_now));
        ctx.checks.check(ledger.triangles() == recount, || {
            format!(
                "ledger holds {} triangles, recount finds {recount}",
                ledger.triangles()
            )
        });
        // Answers only: reused hierarchies keep their seeds, so charges are
        // outside the churn tier's equivalence contract.
        for q in &inputs.probe_queries {
            let same = match (next.answer(*q), whole.engine.answer(*q)) {
                (Ok(a), Ok(b)) => a.answer == b.answer,
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            ctx.checks.check(same, || {
                format!("to_graph + recluster + refreeze vs DeltaLedger::rebuild differ on {q:?}")
            });
        }
        working = WorkingGraph::new(&g_now);
        current = next;
    }
    handle.shutdown();
    for (name, samples) in [
        ("triangle.churn.rebuild_checked", &checked),
        ("triangle.churn.rebuild_broken", &broken),
        ("triangle.churn.rebuild_reused", &reused),
        ("triangle.churn.rebuild_rebuilt", &rebuilt),
    ] {
        report.set(name, mean(samples));
    }

    // ── Span self times → per-layer metrics. ──
    for (metric, span) in [
        ("storage.convert_s", "storage.convert"),
        ("storage.open_s", "storage.open"),
        ("storage.store_s", "storage.store"),
        ("storage.load_s", "storage.load"),
        ("expander.decompose_s", "expander.decompose"),
        ("expander.assign_s", "expander.assign"),
        ("expander.ldd_s", "expander.ldd"),
        ("expander.sparse_cut_s", "expander.sparse_cut"),
        ("expander.recluster_s", "expander.recluster"),
        ("expander.certify_s", "expander.certify"),
        ("routing.build_s", "routing.build"),
        ("triangle.pipeline.clusters_s", "triangle.pipeline.clusters"),
        ("triangle.service.freeze_s", "triangle.service.freeze"),
        ("triangle.service.to_frozen_s", "triangle.service.to_frozen"),
        (
            "triangle.service.from_frozen_s",
            "triangle.service.from_frozen",
        ),
        ("triangle.churn.open_s", "triangle.churn.open"),
        ("triangle.churn.rebuild_s", "triangle.churn.rebuild"),
        ("triangle.churn.refreeze_s", "triangle.churn.refreeze"),
        ("triangle.churn.recount_s", "triangle.churn.recount"),
        ("graph.to_graph_s", "graph.to_graph"),
        ("graph.count_triangles_s", "graph.count_triangles"),
        ("graph.gen_s", "graph.gen"),
        ("server.startup_s", "server.startup"),
    ] {
        report.set(metric, tracer.mean_self_s(span));
    }
    report.set(
        "storage.convert_edges_per_s",
        converted_edges as f64 / tracer.mean_self_s("storage.convert").max(1e-9),
    );
    report.set(
        "triangle.churn.apply_us_per_batch",
        tracer.mean_self_s("triangle.churn.apply") * 1e6,
    );
    report.set(
        "server.first_answer_us",
        tracer.mean_self_s("server.first_answer") * 1e6,
    );
    report.set("server.swap_us", tracer.mean_self_s("server.swap") * 1e6);
    report.set(
        "routing.route_query_ns",
        tracer.mean_self_s("routing.route_query") * 1e9 / MICRO_LOOP as f64,
    );
    report.set(
        "server.codec_roundtrip_ns",
        tracer.mean_self_s("server.codec_roundtrip") * 1e9 / MICRO_LOOP as f64,
    );
    report.set("bench.oracle_s", tracer.total_s("bench.oracle"));
    // Cold start in pieces + the enumeration under its span, against the
    // same two things done through the composite calls with no recorder.
    let traced_s = tracer.total_s("cold_start") + tracer.total_s("triangle.enumerate");
    report.set(
        "bench.trace_overhead_pct",
        (traced_s / reference_s - 1.0) * 100.0,
    );
    eprintln!(
        "lifecycle_bench: {} spans; traced cold start + enumerate {traced_s:.3} s, untraced \
         {reference_s:.3} s",
        tracer.spans().len()
    );
    report
}
