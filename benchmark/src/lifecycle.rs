//! The untraced run: one lifecycle — edge list on disk → answers on the
//! wire → churned and swapped → enumerated — driven through the crates'
//! public functions, every answer checked, every end-to-end metric timed
//! with tracing off.

use crate::inputs::{
    generate, Fingerprint, Inputs, Spec, Workload, DEFAULT_SEED, NOMINAL_SECONDS,
    SLICES_PER_SEGMENT, WIRE_EPOCHS,
};
use crate::stats::{mean, median, percentile};
use crate::summary::{Checks, Report};
use crate::trace::Tracer;
use expander::SchedulerPolicy;
use graph::{Graph, VertexId, WorkingGraph};
use server::{Client, ResponseBody, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use storage::artifact::{self, EngineSource};
use storage::{convert_edge_list, ConvertOptions, CsrFile};
use triangle::service::{
    Answer, Emit, Query, QueryEngine, QueryOutcome, ServeReport, ServiceError,
};
use triangle::{count_triangles, DeltaLedger, EdgeOp, PipelineParams};

/// Requests outstanding in the pipelined phase: at least `batch_max`, so
/// batches fill and the 500 µs flush timer is not the limiter.
pub const PIPELINE_WINDOW: usize = 128;
/// `Busy` refusals re-sent per query before it counts as failed.
pub const BUSY_RETRIES: usize = 64;

/// `PipelineParams::seed` of every build, rebuild and enumeration. A
/// constant of the benchmark, not the run's `--seed`: at 10⁶ edges the
/// decomposition's wall depends on this seed alone and is tri-modal (≈ 1.3 s
/// at seeds 1, 7, 42; ≈ 25 s at 2, 3; ≈ 66 s at 0, the product default), so a
/// run that drew it from `--seed` could not promise to end inside the cap.
pub const PIPELINE_SEED: u64 = 1;

const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;
const RESTART_MIN_CYCLES: usize = 20;
const RESTART_MAX_CYCLES: usize = 300;
const APPLY_SEGMENTS: usize = 5;

/// What both runs (untraced and traced) need to know.
pub struct Ctx {
    pub workload: Workload,
    pub spec: Spec,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    /// Private work directory inside the checkout; removed when the run ends.
    pub dir: PathBuf,
    pub params: PipelineParams,
    pub config: ServerConfig,
    pub checks: Checks,
}

impl Ctx {
    pub fn csr_path(&self) -> PathBuf {
        self.dir.join("graph.csr")
    }
}

/// 64-bit digest of an outcome, charges included: what the benchmark keeps
/// of an oracle answer (a `dense-2k` answer is ≈ 48 KB; its digest is 8 B).
pub fn outcome_digest(o: &QueryOutcome) -> u64 {
    let mut h = crate::inputs::Fnv::new();
    match &o.answer {
        Answer::Count(c) => {
            h.word(1);
            h.word(*c);
        }
        Answer::Triangles(ts) => {
            h.word(2);
            h.word(ts.len() as u64);
            for t in ts {
                h.word((t.a as u64) << 32 | t.b as u64);
                h.word(t.c as u64);
            }
        }
        Answer::TopEdges(es) => {
            h.word(3);
            h.word(es.len() as u64);
            for e in es {
                h.word((e.u as u64) << 32 | e.v as u64);
                h.word(e.support);
            }
        }
    }
    for w in [
        o.charge.words,
        o.charge.queries,
        o.charge.rounds,
        o.charge.max_congestion,
        o.charge.delivered as u64,
    ] {
        h.word(w);
    }
    h.finish()
}

/// Digest of an in-process result (`UnknownVertex` errors get their own).
pub fn result_digest(r: &Result<QueryOutcome, ServiceError>) -> u64 {
    match r {
        Ok(o) => outcome_digest(o),
        Err(ServiceError::UnknownVertex { v }) => 0xE000_0000_0000_0000 | *v as u64,
    }
}

/// Digest of a wire response body; `None` for anything that is not an
/// answer to the query (a `Busy` that exhausted its retries, a pong).
pub fn body_digest(body: &ResponseBody) -> Option<u64> {
    match body {
        ResponseBody::Answer(o) => Some(outcome_digest(o)),
        ResponseBody::Error(server::WireError::UnknownVertex { v }) => {
            Some(0xE000_0000_0000_0000 | *v as u64)
        }
        _ => None,
    }
}

/// Triangles through `v`, counted by the benchmark itself from the
/// generated graph: the check on a server's first answer that does not
/// go through any engine.
pub fn triangles_through(g: &Graph, v: VertexId) -> u64 {
    let mut nbrs: Vec<VertexId> = g.neighbors(v).iter().copied().filter(|&u| u != v).collect();
    nbrs.dedup();
    let mut count = 0u64;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            count += g.has_edge(a, b) as u64;
        }
    }
    count
}

/// The vertex the first query of every server start asks about: the first
/// vertex query of the probe stream.
pub fn first_query_vertex(inputs: &Inputs) -> VertexId {
    inputs
        .probe_queries
        .iter()
        .find_map(|q| match q {
            Query::Vertex { v, .. } => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

/// Connects and round-trips the first query; checks the count against the
/// benchmark's own. Returns the connection.
pub fn first_answer(
    handle: &ServerHandle,
    v: VertexId,
    expected: u64,
    checks: &mut Checks,
) -> Client {
    let mut client = Client::connect(handle.addr()).expect("connect to the loopback server");
    let resp = client
        .query(Query::Vertex {
            v,
            emit: Emit::Count,
        })
        .expect("first query round-trips");
    let ok = matches!(&resp.body, ResponseBody::Answer(o) if o.answer == Answer::Count(expected));
    checks.check(ok, || {
        format!(
            "first answer for vertex {v}: {:?}, expected {expected}",
            resp.body
        )
    });
    client
}

/// Digests of `engine`'s answers to `queries`, answered one by one.
pub fn engine_digests(engine: &QueryEngine, queries: &[Query]) -> Vec<u64> {
    queries
        .iter()
        .map(|q| result_digest(&engine.answer(*q)))
        .collect()
}

/// Checks that `engine` answers the probe sweep exactly like `reference`.
pub fn check_probe_identity(
    engine: &QueryEngine,
    reference: &[u64],
    probes: &[Query],
    what: &str,
    checks: &mut Checks,
) {
    for (i, (d, r)) in engine_digests(engine, probes)
        .iter()
        .zip(reference)
        .enumerate()
    {
        checks.check(d == r, || {
            format!("{what}: probe {i} ({:?}) differs", probes[i])
        });
    }
}

/// Applies `ops` to a plain overlay (the benchmark's own model of the live
/// graph; every generated op applies).
pub fn apply_to_overlay(working: &mut WorkingGraph, ops: &[EdgeOp]) {
    for op in ops {
        match *op {
            EdgeOp::Insert(u, v) => {
                working.insert_edges([(u, v)]);
            }
            EdgeOp::Delete(u, v) => {
                working.remove_edges([(u, v)], false);
            }
        }
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up several times (at least [`SETUP_MIN_REPS`], until
/// [`SETUP_SECONDS`] of set-up have been measured) and returns the last
/// inputs with the median set-up time.
pub fn timed_setup(ctx: &Ctx) -> (Inputs, f64) {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = generate(&ctx.spec, ctx.seed, &ctx.dir, &mut Tracer::new(false));
        times.push(t.elapsed().as_secs_f64());
        let enough = times.iter().sum::<f64>() >= SETUP_SECONDS || times.len() >= SETUP_MAX_REPS;
        if ctx.smoke || (times.len() >= SETUP_MIN_REPS && enough) {
            return (inputs, median(&times));
        }
    }
}

/// The centralized count (returned), the post-churn recount and the
/// fingerprint guard (dataset part at every seed, stream part at the pinned seed).
/// Exits the process on drift, before anything has been timed.
pub fn oracle_counts(ctx: &Ctx, inputs: &Inputs) -> u64 {
    let g = &inputs.graph;
    let triangles = count_triangles(g);
    let mut working = WorkingGraph::new(g);
    for cycle in &inputs.rebuild_cycles {
        apply_to_overlay(&mut working, cycle);
    }
    let post_churn_triangles = count_triangles(&working.to_graph());
    let found = Fingerprint {
        n: g.n(),
        m: g.m(),
        triangles,
        post_churn_triangles,
        query_hash: inputs.query_hash,
        op_hash: inputs.op_hash,
    };
    eprintln!("lifecycle_bench: inputs: {found}");
    if !ctx.smoke {
        let pinned = ctx.workload.pinned_fingerprint();
        let streams_pinned = ctx.seed == DEFAULT_SEED && ctx.seconds == NOMINAL_SECONDS;
        if found.dataset() != pinned.dataset() || (streams_pinned && found != pinned) {
            eprintln!(
                "lifecycle_bench: INPUT DRIFT on {}: generated {found}; pinned {pinned}{}. The \
                 generators or the streams changed; numbers from this binary are not comparable \
                 with earlier ones.",
                ctx.workload.name(),
                if streams_pinned {
                    ""
                } else {
                    " (dataset part only)"
                }
            );
            std::process::exit(3);
        }
    }
    triangles
}

/// What one cold start leaves behind for the phases after it.
pub struct ColdStart {
    pub seconds: f64,
    pub engine: Arc<QueryEngine>,
    pub artifact_bytes: u64,
}

/// Edge list on disk → first correct wire answer, engine persisted.
pub fn cold_start(ctx: &mut Ctx, inputs: &Inputs, v0: VertexId, expected0: u64) -> ColdStart {
    let csr = ctx.csr_path();
    let _ = std::fs::remove_file(&csr);
    let t = Instant::now();
    convert_edge_list(&inputs.edge_list, &csr, &ConvertOptions::default())
        .expect("convert the generated edge list");
    let (handle, source) =
        server::serve_path(&csr, &ctx.params, &ctx.config).expect("serve the artifact-less file");
    let client = first_answer(&handle, v0, expected0, &mut ctx.checks);
    let engine = handle.engine();
    artifact::store(&csr, &engine).expect("persist the engine");
    let seconds = t.elapsed().as_secs_f64();
    ctx.checks.check(source == EngineSource::Built, || {
        "cold start did not build the engine".to_string()
    });
    drop(client);
    handle.shutdown();
    let artifact_bytes = std::fs::metadata(&csr).map_or(0, |m| m.len());
    ColdStart {
        seconds,
        engine,
        artifact_bytes,
    }
}

/// Artifact on disk → first correct wire answer → shutdown, repeated;
/// returns the per-cycle seconds.
pub fn restart_cycles(ctx: &mut Ctx, v0: VertexId, expected0: u64) -> Vec<f64> {
    let csr = ctx.csr_path();
    let mut times = Vec::new();
    let min_cycles = if ctx.smoke { 3 } else { RESTART_MIN_CYCLES };
    while times.len() < RESTART_MAX_CYCLES
        && (times.len() < min_cycles || times.iter().sum::<f64>() < ctx.spec.restart_seconds)
    {
        let t = Instant::now();
        let (handle, source) =
            server::serve_path(&csr, &ctx.params, &ctx.config).expect("serve the artifact");
        let client = first_answer(&handle, v0, expected0, &mut ctx.checks);
        drop(client);
        handle.shutdown();
        times.push(t.elapsed().as_secs_f64());
        ctx.checks.check(source == EngineSource::Artifact, || {
            "restart rebuilt the engine instead of restoring it".to_string()
        });
    }
    times
}

/// Streams `queries` through `run_pipelined` in slices of the workload's
/// slice length and returns the rate over the time spent inside those calls.
///
/// With `cycles` non-empty a driver thread replays them — apply → rebuild →
/// swap — on a fresh ledger, cycle `i` released when slice `i` has been
/// acknowledged. Every response is then checked against the engine of the
/// generation it is stamped with (`base_digests` being the oracle's answers
/// on the engine serving when the stream starts).
pub fn pipelined(
    ctx: &mut Ctx,
    handle: &ServerHandle,
    client: &mut Client,
    g: &Graph,
    queries: &[Query],
    base_digests: &[u64],
    cycles: &[Vec<EdgeOp>],
) -> f64 {
    let params = &ctx.params;
    let slice_len = ctx.spec.qps_slice_queries;
    let mut wall = 0.0f64;
    // (generation, digest) of every response, in query order.
    let mut stamped: Vec<(u64, Option<u64>)> = Vec::with_capacity(queries.len());
    let mut engines = vec![(handle.generation(), handle.engine())];
    let installed = std::thread::scope(|scope| {
        let (release, released) = mpsc::channel::<usize>();
        let (ready_tx, ready) = mpsc::channel::<()>();
        let driver = (!cycles.is_empty()).then(|| {
            let base_engine = Arc::clone(&engines[0].1);
            scope.spawn(move || {
                let mut ledger = DeltaLedger::new(g, base_engine);
                let mut installed = Vec::new();
                let _ = ready_tx.send(());
                for cycle in released {
                    ledger.apply(&cycles[cycle]);
                    let rebuilt = ledger.rebuild(params);
                    let generation = handle.swap_engine(Arc::clone(&rebuilt.engine));
                    installed.push((generation, rebuilt.engine));
                }
                installed
            })
        });
        if driver.is_some() {
            ready.recv().expect("churn driver opened its ledger");
        }
        for (slice, qs) in queries.chunks(slice_len).enumerate() {
            let t = Instant::now();
            let responses = client
                .run_pipelined(qs, PIPELINE_WINDOW, BUSY_RETRIES)
                .expect("pipelined slice completes");
            wall += t.elapsed().as_secs_f64();
            if slice < cycles.len() {
                let _ = release.send(slice);
            }
            stamped.extend(
                responses
                    .iter()
                    .map(|r| (r.generation, body_digest(&r.body))),
            );
        }
        drop(release);
        driver.map_or_else(Vec::new, |d| d.join().expect("churn driver finished"))
    });
    engines.extend(installed);

    for (i, (generation, digest)) in stamped.iter().enumerate() {
        let expected = if *generation == engines[0].0 {
            Some(base_digests[i])
        } else {
            engines
                .iter()
                .find(|(g, _)| g == generation)
                .map(|(_, e)| result_digest(&e.answer(queries[i])))
        };
        ctx.checks
            .check(digest.is_some() && *digest == expected, || {
                format!(
                "pipelined query {i} ({:?}) at generation {generation}: wire {digest:?}, oracle \
                 {expected:?}",
                queries[i]
            )
            });
    }
    if !cycles.is_empty() {
        let seen: std::collections::BTreeSet<u64> = stamped.iter().map(|s| s.0).collect();
        eprintln!(
            "lifecycle_bench: {} generations installed under load, {} seen on answers",
            engines.len() - 1,
            seen.len()
        );
    }
    queries.len() as f64 / wall
}

/// The oracle's digests for both wire streams: sequential in-process
/// `QueryEngine::serve`. Also returns the window-1 stream's report, whose
/// walls the traced run publishes as `triangle.service.*`.
pub fn oracle_answers(engine: &QueryEngine, inputs: &Inputs) -> (ServeReport, Vec<u64>, Vec<u64>) {
    let sequential = SchedulerPolicy::sequential();
    let served = engine.serve(&inputs.latency_queries, &sequential);
    let latency = served.answers.iter().map(result_digest).collect();
    let qps = engine
        .serve(&inputs.qps_queries, &sequential)
        .answers
        .iter()
        .map(result_digest)
        .collect();
    (served, latency, qps)
}

/// What the serving epochs measured.
pub struct WireSamples {
    /// Window-1 median round trip of each epoch, µs.
    pub epoch_p50_us: Vec<f64>,
    /// Every window-1 round trip of every epoch, µs.
    pub rtts_us: Vec<f64>,
    /// Pipelined rate of each epoch, queries/s.
    pub epoch_qps: Vec<f64>,
    /// `StatsSnapshot` deltas over the pipelined segments, summed.
    pub batches: u64,
    pub answered: u64,
    pub busy: u64,
}

/// The serving phases, in [`WIRE_EPOCHS`] epochs. Each epoch restores a
/// fresh server from the artifact and opens a fresh connection, so every
/// thread of the request path is new and lands wherever the scheduler puts
/// it: on a 2-core host that placement moves window-1 latency by ≈ 20 % and
/// pipelined throughput by ≈ 15 % and then stays put for as long as the
/// threads live, so one long-lived server measures one draw of it. An epoch
/// runs a fifth of the window-1 stream, then one segment
/// ([`SLICES_PER_SEGMENT`] slices) of the pipelined stream, on the quiet
/// server; every answer is checked against the oracle's digests.
pub fn serving_epochs(
    ctx: &mut Ctx,
    tracer: &mut Tracer,
    inputs: &Inputs,
    g: &Graph,
    latency_digests: &[u64],
    qps_digests: &[u64],
) -> WireSamples {
    let mut samples = WireSamples {
        epoch_p50_us: Vec::with_capacity(WIRE_EPOCHS),
        rtts_us: Vec::with_capacity(inputs.latency_queries.len()),
        epoch_qps: Vec::with_capacity(WIRE_EPOCHS),
        batches: 0,
        answered: 0,
        busy: 0,
    };
    let per_epoch = inputs.latency_queries.len().div_ceil(WIRE_EPOCHS);
    let segment = ctx.spec.qps_slice_queries * SLICES_PER_SEGMENT;
    for epoch in 0..WIRE_EPOCHS {
        tracer.span("wire.epoch", |t| {
            let (handle, source) = server::serve_path(ctx.csr_path(), &ctx.params, &ctx.config)
                .expect("serve the artifact");
            ctx.checks.check(source == EngineSource::Artifact, || {
                "the serving engine was rebuilt, not restored".to_string()
            });
            let mut client = Client::connect(handle.addr()).expect("connect to the server");
            let lo = (epoch * per_epoch).min(inputs.latency_queries.len());
            let hi = (lo + per_epoch).min(inputs.latency_queries.len());
            let first = samples.rtts_us.len();
            t.span("wire.latency", |t| {
                for (q, expected) in inputs.latency_queries[lo..hi]
                    .iter()
                    .zip(&latency_digests[lo..hi])
                {
                    let resp = t.span("wire.roundtrip", |_| client.query(*q).expect("round trip"));
                    samples.rtts_us.push(resp.rtt.as_secs_f64() * 1e6);
                    let ok = body_digest(&resp.body) == Some(*expected) && resp.generation == 1;
                    ctx.checks.check(ok, || {
                        format!("window-1 answer to {q:?} differs from the oracle")
                    });
                }
            });
            samples
                .epoch_p50_us
                .push(percentile(&samples.rtts_us[first..], 50.0));
            let lo = epoch * segment;
            let before = handle.stats();
            let rate = t.span("wire.pipelined", |_| {
                pipelined(
                    ctx,
                    &handle,
                    &mut client,
                    g,
                    &inputs.qps_queries[lo..lo + segment],
                    &qps_digests[lo..lo + segment],
                    &[],
                )
            });
            samples.epoch_qps.push(rate);
            let after = handle.stats();
            samples.batches += after.batches - before.batches;
            samples.answered += after.answered - before.answered;
            samples.busy += after.busy - before.busy;
            drop(client);
            handle.shutdown();
        });
    }
    samples
}

/// Runs the whole untraced lifecycle and fills the end-to-end metrics.
pub fn run_end_to_end(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let phase = |name: &str, t: Instant| {
        eprintln!(
            "lifecycle_bench: {name:<18} {:>8.3} s",
            t.elapsed().as_secs_f64()
        );
    };

    // ── Set-up (benchmark side) and the oracle counts. ──
    let t = Instant::now();
    let (inputs, setup_s) = timed_setup(ctx);
    report.set("setup_s", setup_s);
    phase("setup", t);
    let t = Instant::now();
    let triangles = oracle_counts(ctx, &inputs);
    let v0 = first_query_vertex(&inputs);
    let expected0 = triangles_through(&inputs.graph, v0);
    phase("oracle counts", t);

    // ── Cold start, R times. ──
    let t = Instant::now();
    let mut cold_times = Vec::new();
    let mut cold = None;
    for _ in 0..ctx.spec.cold_reps {
        let rep = cold_start(ctx, &inputs, v0, expected0);
        cold_times.push(rep.seconds);
        if let Some(ColdStart { artifact_bytes, .. }) = cold {
            ctx.checks.check(artifact_bytes == rep.artifact_bytes, || {
                "artifact size changed between cold-start repetitions".to_string()
            });
        }
        cold = Some(rep);
    }
    let cold = cold.expect("at least one cold start");
    report.set("cold_start_s", median(&cold_times));
    report.set("artifact_mb", cold.artifact_bytes as f64 / 1e6);
    phase("cold start", t);

    // The program from here on works on the graph it converted, which must
    // be the graph that was generated.
    let g = CsrFile::open(&ctx.csr_path())
        .and_then(|f| f.to_graph())
        .expect("reopen the converted file");
    ctx.checks.check(g == inputs.graph, || {
        "the converted file does not hold the generated graph".to_string()
    });
    let base_engine = cold.engine;

    // ── Restart from the artifact; the restored engine must answer the
    //    probe sweep exactly like the built one. ──
    let t = Instant::now();
    let restart_times = restart_cycles(ctx, v0, expected0);
    eprintln!(
        "lifecycle_bench: restart median {:.6} s over {} cycles (reported by the traced run)",
        median(&restart_times),
        restart_times.len()
    );
    let restored = CsrFile::open(&ctx.csr_path())
        .and_then(|f| artifact::load(&f))
        .expect("load the artifact");
    check_probe_identity(
        &restored,
        &engine_digests(&base_engine, &inputs.probe_queries),
        &inputs.probe_queries,
        "restored engine vs built engine",
        &mut ctx.checks,
    );
    drop(restored);
    phase("restart", t);

    // ── Serving: window-1 latency and pipelined throughput, in epochs. ──
    let t = Instant::now();
    let (_, latency_digests, qps_digests) = oracle_answers(&base_engine, &inputs);
    phase("oracle answers", t);
    let t = Instant::now();
    let wire = serving_epochs(
        ctx,
        &mut Tracer::new(false),
        &inputs,
        &g,
        &latency_digests,
        &qps_digests,
    );
    report.set("wire_p99_us", percentile(&wire.rtts_us, 99.0));
    report.set("wire_qps", median(&wire.epoch_qps));
    drop((wire, qps_digests, latency_digests));
    phase("serving epochs", t);

    // ── Ledger apply. ──
    let t = Instant::now();
    let mut ledger = DeltaLedger::new(&g, Arc::clone(&base_engine));
    ctx.checks.check(ledger.triangles() == triangles, || {
        "ledger opened with a count other than the centralized one".to_string()
    });
    let mut apply_rates = Vec::with_capacity(APPLY_SEGMENTS);
    let segment_pairs = inputs.apply_pairs.len().div_ceil(APPLY_SEGMENTS).max(1);
    for segment in inputs.apply_pairs.chunks(segment_pairs) {
        let (mut ops, mut wall) = (0usize, 0.0f64);
        for (batch, inverse) in segment {
            let t = Instant::now();
            let forward = ledger.apply(batch);
            let back = ledger.apply(inverse);
            wall += t.elapsed().as_secs_f64();
            ops += batch.len() + inverse.len();
            let ok = forward.ignored + back.ignored == 0 && ledger.triangles() == triangles;
            ctx.checks.check(ok, || {
                format!(
                    "apply pair left {} triangles ({} ops ignored), base has {triangles}",
                    ledger.triangles(),
                    forward.ignored + back.ignored
                )
            });
        }
        apply_rates.push(ops as f64 / wall);
    }
    report.set("churn_apply_ops_s", median(&apply_rates));
    drop(ledger);
    phase("ledger apply", t);

    // ── Rebuild → swap → first answer of the new generation, quiet server. ──
    let t = Instant::now();
    let (handle, _) =
        server::serve_path(ctx.csr_path(), &ctx.params, &ctx.config).expect("serve the artifact");
    let mut ledger = DeltaLedger::new(&g, Arc::clone(&base_engine));
    let mut swap_times = Vec::with_capacity(inputs.rebuild_cycles.len());
    for (c, cycle) in inputs.rebuild_cycles.iter().enumerate() {
        let applied = ledger.apply(cycle);
        ctx.checks.check(applied.ignored == 0, || {
            format!("cycle {c}: {} ops did not apply", applied.ignored)
        });
        let probe = inputs.probe_queries[c % inputs.probe_queries.len()];
        let t = Instant::now();
        let rebuilt = ledger.rebuild(&ctx.params);
        let generation = handle.swap_engine(Arc::clone(&rebuilt.engine));
        // Connected after the swap: the server drops a peer that has been
        // idle for `read_timeout` (30 s), and a rebuild may outlast it.
        let mut client = Client::connect(handle.addr()).expect("connect to the loopback server");
        let resp = loop {
            let resp = client.query(probe).expect("round trip after the swap");
            if resp.generation >= generation {
                break resp;
            }
        };
        swap_times.push(t.elapsed().as_secs_f64());
        let expected = result_digest(&rebuilt.engine.answer(probe));
        let ok = resp.generation == generation && body_digest(&resp.body) == Some(expected);
        ctx.checks.check(ok, || {
            format!("cycle {c}: first answer of generation {generation} differs from its engine")
        });
        // The recount costs as much as the rebuild on the dense graph:
        // every fourth cycle and the last one are recounted.
        if c % 4 == 3 || c + 1 == inputs.rebuild_cycles.len() {
            let recount = count_triangles(&ledger.working().to_graph());
            ctx.checks.check(ledger.triangles() == recount, || {
                format!(
                    "cycle {c}: ledger holds {} triangles, recount finds {recount}",
                    ledger.triangles()
                )
            });
        }
    }
    report.set("rebuild_to_swap_s", mean(&swap_times));
    drop(ledger);
    handle.shutdown();
    drop(base_engine);
    phase("rebuild to swap", t);

    // ── The paper's algorithm, end to end. ──
    let t = Instant::now();
    let mut enumerate_times = Vec::new();
    let mut costs: Option<(u64, u64)> = None;
    for _ in 0..ctx.spec.enumerate_reps {
        let t = Instant::now();
        let found = triangle::enumerate_via_decomposition(&g, &ctx.params);
        enumerate_times.push(t.elapsed().as_secs_f64());
        ctx.checks.check(found.count() == triangles, || {
            format!(
                "enumeration found {} triangles, the centralized count is {triangles}",
                found.count()
            )
        });
        let cost = (
            found.total_rounds(),
            found.exchange_words() + found.max_routing_words(),
        );
        ctx.checks
            .check(costs.is_none() || costs == Some(cost), || {
                format!("rounds/words changed between repetitions: {costs:?} vs {cost:?}")
            });
        costs = Some(cost);
    }
    let (rounds, words) = costs.expect("at least one enumeration");
    report.set("enumerate_s", median(&enumerate_times));
    report.set("enumerate_rounds", rounds as f64);
    report.set("enumerate_words", words as f64);
    phase("enumerate", t);

    report.set("peak_rss_mb", peak_rss_mb());
    report
}
