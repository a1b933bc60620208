//! **E9 — the wire tier**: freeze the triangle-query artifact to disk,
//! serve it over TCP, and drive a concurrent client workload against the
//! in-process oracle.
//!
//! The flow is the full production loop, end to end:
//!
//! 1. generate the power-law instance (≈ `--edges` edges), write it as a
//!    `.csr` file, build the [`triangle::service::QueryEngine`] once and
//!    freeze it into the file's artifact section,
//! 2. start the TCP server from the **file** ([`server::serve_path`]),
//!    reporting the restore wall next to the build wall — the artifact
//!    restore is the whole point of the storage tier,
//! 3. hostile leg: a connection that speaks garbage gets a **typed**
//!    error and the server keeps serving (a fresh ping proves it),
//! 4. replay a deterministic mixed query stream through `--threads`
//!    concurrent client connections, pipelined; every wire answer is
//!    compared against the in-process oracle (charges included) and
//!    p50/p99 round-trip latencies are reported,
//! 5. hot-swap leg: while one client streams queries, another triggers a
//!    reload mid-stream; the streaming client must see zero mismatches
//!    and only the two adjacent generations on its answers.
//!
//! `--json <path>` appends one `{"name": ..., "median_s": ...}` line per
//! measurement (`bench_suite::emit_json`); CI's `server-smoke` job uploads
//! them. `--p99-budget-ms B` fails the run on a p99 blowout. Exit is
//! non-zero on any answer mismatch, protocol surprise, or generation
//! anomaly.

use bench_suite::{edge_label, emit_json, scale_power_law, serve_query_stream, tiny_or, Table};
use server::{Client, ClientError, ResponseBody, ServerConfig, ServerHandle, WireError};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::artifact::EngineSource;
use triangle::pipeline::PipelineParams;
use triangle::service::{Query, QueryEngine, QueryOutcome, ServiceError};

struct Args {
    edges: usize,
    queries: usize,
    threads: Vec<usize>,
    seed: u64,
    json: Option<String>,
    p99_budget_ms: Option<f64>,
    window: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        edges: 100_000,
        queries: 10_000,
        threads: vec![1, 4],
        seed: 42,
        json: None,
        p99_budget_ms: None,
        window: 32,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--edges" => {
                args.edges = value("--edges")?
                    .parse()
                    .map_err(|e| format!("bad --edges: {e}"))?
            }
            "--queries" => {
                args.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("bad --queries: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad --threads: {e}"))
                    })
                    .collect::<Result<_, _>>()?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--window" => {
                args.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?
            }
            "--json" => args.json = Some(value("--json")?),
            "--p99-budget-ms" => {
                args.p99_budget_ms = Some(
                    value("--p99-budget-ms")?
                        .parse()
                        .map_err(|e| format!("bad --p99-budget-ms: {e}"))?,
                )
            }
            "--tiny" => {
                args.edges = 20_000;
                args.queries = 2_000;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.threads.is_empty() {
        return Err("need at least one thread count".to_string());
    }
    if tiny_or(true, false) {
        args.edges = args.edges.min(20_000);
        args.queries = args.queries.min(2_000);
    }
    Ok(args)
}

/// `true` when the wire response agrees with the in-process oracle for
/// the same query (outcomes bit-compared, charges included).
fn agrees(body: &ResponseBody, oracle: &Result<QueryOutcome, ServiceError>) -> bool {
    match (body, oracle) {
        (ResponseBody::Answer(wire), Ok(local)) => wire == local,
        (ResponseBody::Error(WireError::UnknownVertex { .. }), Err(_)) => true,
        _ => false,
    }
}

/// One client connection replaying `queries` pipelined; returns
/// (mismatches, rtts, generations seen, wall).
fn replay(
    addr: std::net::SocketAddr,
    queries: &[Query],
    oracle: &[Result<QueryOutcome, ServiceError>],
    window: usize,
) -> Result<(usize, Vec<Duration>, Vec<u64>, Duration), ClientError> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    let responses = client.run_pipelined(queries, window, 64)?;
    let wall = start.elapsed();
    let mut mismatches = 0usize;
    let mut rtts = Vec::with_capacity(responses.len());
    let mut generations = Vec::with_capacity(responses.len());
    for (resp, expected) in responses.iter().zip(oracle) {
        if !agrees(&resp.body, expected) {
            mismatches += 1;
        }
        rtts.push(resp.rtt);
        generations.push(resp.generation);
    }
    Ok((mismatches, rtts, generations, wall))
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn hostile_leg(handle: &ServerHandle) -> Result<(), String> {
    let mut hostile =
        Client::connect(handle.addr()).map_err(|e| format!("hostile connect: {e}"))?;
    hostile
        .send_raw(&[0xAA; 32])
        .map_err(|e| format!("hostile send: {e}"))?;
    match hostile.recv() {
        Ok(resp) => {
            if !matches!(resp.body, ResponseBody::Error(_)) {
                return Err(format!(
                    "garbage bytes got {:?}, not a typed error",
                    resp.body
                ));
            }
        }
        Err(ClientError::ServerClosed | ClientError::Io(_)) => {}
        Err(other) => return Err(format!("hostile recv: {other}")),
    }
    let mut fresh =
        Client::connect(handle.addr()).map_err(|e| format!("post-garbage connect: {e}"))?;
    fresh
        .ping()
        .map_err(|e| format!("server did not survive garbage bytes: {e}"))?;
    Ok(())
}

/// The hot-swap leg: client B streams the whole workload while the main
/// thread reloads the engine mid-stream through a second connection.
fn swap_leg(
    handle: &ServerHandle,
    stream: &[Query],
    oracle: &[Result<QueryOutcome, ServiceError>],
    window: usize,
) -> Result<(), String> {
    let g0 = handle.generation();
    let addr = handle.addr();
    let streamer = {
        let stream = stream.to_vec();
        let oracle = oracle.to_vec();
        std::thread::spawn(move || replay(addr, &stream, &oracle, window))
    };
    // Let the stream get going, then swap under it.
    std::thread::sleep(Duration::from_millis(20));
    let mut admin = Client::connect(addr).map_err(|e| format!("admin connect: {e}"))?;
    let (swapped, g1) = admin.reload().map_err(|e| format!("reload: {e}"))?;
    if !swapped || g1 != g0 + 1 {
        return Err(format!(
            "reload reported swapped={swapped}, generation {g0} -> {g1}"
        ));
    }
    let (mismatches, _, generations, _) = streamer
        .join()
        .map_err(|_| "streaming client panicked".to_string())?
        .map_err(|e| format!("streaming client: {e}"))?;
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} answers diverged from the oracle across the swap"
        ));
    }
    if let Some(&g) = generations.iter().find(|&&g| g != g0 && g != g1) {
        return Err(format!(
            "answer carried generation {g}, expected {g0} or {g1}"
        ));
    }
    let crossed = generations.contains(&g0) && generations.contains(&g1);
    eprintln!(
        "hot swap: generation {g0} -> {g1}, zero mismatches, stream {} the swap",
        if crossed {
            "straddled"
        } else {
            "landed on one side of"
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_server: {e}");
            eprintln!(
                "usage: exp_server [--edges N] [--queries Q] [--threads 1,4] [--seed S] \
                 [--window W] [--json out.jsonl] [--p99-budget-ms B] [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let label = edge_label(args.edges);
    let mut failures = 0usize;

    // ── Freeze the artifact to disk. ──
    let gen_start = Instant::now();
    let g = scale_power_law(args.edges, args.seed);
    eprintln!(
        "generated power_law n = {}, m = {} in {:.2?}",
        g.n(),
        g.m(),
        gen_start.elapsed()
    );
    let dir = storage::test_dir("exp_server");
    let path = dir.join(format!("exp_server_{label}.csr"));
    let params = PipelineParams {
        seed: args.seed,
        ..Default::default()
    };
    let build_start = Instant::now();
    if let Err(e) = storage::write_graph(&g, &path) {
        eprintln!("exp_server: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let built = QueryEngine::build(&g, &params);
    if let Err(e) = storage::artifact::store(&path, &built) {
        eprintln!("exp_server: cannot freeze artifact: {e}");
        return ExitCode::FAILURE;
    }
    let build_wall = build_start.elapsed();
    drop(built);
    eprintln!("wrote graph + frozen artifact in {build_wall:.2?}");
    emit_json(
        &args.json,
        &format!("server/{label}/freeze"),
        build_wall.as_secs_f64(),
    );

    // ── Start the server from the file. ──
    let restore_start = Instant::now();
    let (handle, source) = match server::serve_path(&path, &params, &ServerConfig::default()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("exp_server: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let restore_wall = restore_start.elapsed();
    eprintln!(
        "server up on {} in {restore_wall:.2?} (engine {})",
        handle.addr(),
        match source {
            EngineSource::Artifact => "restored from the frozen artifact",
            EngineSource::Built => "REBUILT — artifact section missing",
        }
    );
    if !matches!(source, EngineSource::Artifact) {
        eprintln!("exp_server: expected an artifact restore, got a rebuild");
        failures += 1;
    }
    emit_json(
        &args.json,
        &format!("server/{label}/restore"),
        restore_wall.as_secs_f64(),
    );

    // ── Hostile leg. ──
    match hostile_leg(&handle) {
        Ok(()) => eprintln!("hostile leg: typed error, server survived"),
        Err(e) => {
            eprintln!("exp_server: HOSTILE LEG FAILED: {e}");
            failures += 1;
        }
    }

    // ── The oracle: the very engine the server restored. ──
    let oracle_engine: Arc<QueryEngine> = handle.engine();
    let stream = serve_query_stream(&g, args.queries, args.seed ^ 0x5E17E);
    let oracle: Vec<_> = stream.iter().map(|q| oracle_engine.answer(*q)).collect();
    let oracle_errors = oracle.iter().filter(|a| a.is_err()).count();
    eprintln!(
        "oracle: {} queries answered in-process ({} errors)",
        stream.len(),
        oracle_errors
    );

    // ── Concurrent client workload. ──
    let mut table = Table::new(
        &format!(
            "E9: wire tier (power_law target {} edges, {} queries, window {})",
            args.edges, args.queries, args.window
        ),
        &[
            "clients", "wall_s", "qps", "p50_us", "p99_us", "mismatch", "busy", "batches",
        ],
    );
    for &t in &args.threads {
        let t = t.max(1);
        let busy_before = handle.stats().busy;
        let batches_before = handle.stats().batches;
        let expected_gen = handle.generation();
        let slices: Vec<(Vec<Query>, Vec<_>)> = (0..t)
            .map(|i| {
                let qs: Vec<Query> = stream.iter().skip(i).step_by(t).copied().collect();
                let os: Vec<_> = oracle.iter().skip(i).step_by(t).cloned().collect();
                (qs, os)
            })
            .collect();
        let wall_start = Instant::now();
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|(qs, os)| {
                    let addr = handle.addr();
                    let window = args.window;
                    scope.spawn(move || replay(addr, qs, os, window))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let wall = wall_start.elapsed();
        let mut mismatches = 0usize;
        let mut rtts: Vec<Duration> = Vec::with_capacity(stream.len());
        for outcome in outcomes {
            match outcome {
                Ok(Ok((m, r, gens, _))) => {
                    mismatches += m;
                    rtts.extend(r);
                    if let Some(&bad) = gens.iter().find(|&&g| g != expected_gen) {
                        eprintln!(
                            "exp_server: generation {bad} on an answer, expected {expected_gen}"
                        );
                        failures += 1;
                    }
                }
                Ok(Err(e)) => {
                    eprintln!("exp_server: client failed at t = {t}: {e}");
                    failures += 1;
                }
                Err(_) => {
                    eprintln!("exp_server: client panicked at t = {t}");
                    failures += 1;
                }
            }
        }
        if mismatches > 0 {
            eprintln!(
                "exp_server: MISMATCH at t = {t}: {mismatches} wire answers differ from the \
                 in-process oracle"
            );
            failures += 1;
        }
        rtts.sort_unstable();
        let p50 = percentile(&rtts, 50.0);
        let p99 = percentile(&rtts, 99.0);
        let qps = stream.len() as f64 / wall.as_secs_f64();
        let busy = handle.stats().busy - busy_before;
        let batches = handle.stats().batches - batches_before;
        eprintln!(
            "  t{t}: wall {wall:.2?}, {qps:.0} q/s, p50 {:.0}us p99 {:.0}us, {busy} busy, \
             {batches} batches",
            p50.as_secs_f64() * 1e6,
            p99.as_secs_f64() * 1e6,
        );
        table.row(vec![
            t.to_string(),
            format!("{:.3}", wall.as_secs_f64()),
            format!("{qps:.0}"),
            format!("{:.1}", p50.as_secs_f64() * 1e6),
            format!("{:.1}", p99.as_secs_f64() * 1e6),
            mismatches.to_string(),
            busy.to_string(),
            batches.to_string(),
        ]);
        emit_json(
            &args.json,
            &format!("server/{label}/t{t}"),
            wall.as_secs_f64(),
        );
        emit_json(
            &args.json,
            &format!("server/{label}/t{t}/p50"),
            p50.as_secs_f64(),
        );
        emit_json(
            &args.json,
            &format!("server/{label}/t{t}/p99"),
            p99.as_secs_f64(),
        );
        if let Some(budget) = args.p99_budget_ms {
            let p99_ms = p99.as_secs_f64() * 1e3;
            if p99_ms > budget {
                eprintln!("exp_server: P99 BUDGET BLOWN at t = {t}: {p99_ms:.2}ms > {budget}ms");
                failures += 1;
            }
        }
    }

    // ── Hot-swap mid-stream. ──
    match swap_leg(&handle, &stream, &oracle, args.window) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("exp_server: HOT-SWAP LEG FAILED: {e}");
            failures += 1;
        }
    }

    let stats = handle.stats();
    eprintln!(
        "server stats: {} accepted, {} refused, {} queries, {} answered, {} busy, {} batches, \
         {} protocol errors, {} reloads",
        stats.accepted,
        stats.refused,
        stats.queries,
        stats.answered,
        stats.busy,
        stats.batches,
        stats.protocol_errors,
        stats.reloads
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&path);

    print!("{}", table.to_text());
    println!();
    print!("{}", table.to_csv());
    if failures > 0 {
        eprintln!("exp_server: {failures} failures");
        return ExitCode::FAILURE;
    }
    eprintln!("exp_server: all wire answers matched the in-process oracle");
    ExitCode::SUCCESS
}
