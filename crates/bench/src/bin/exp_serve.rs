//! **E8 — the serve tier**: build the triangle-query artifact once, then
//! sustain a concurrent point-query stream against it.
//!
//! The flow mirrors production traffic, not a one-shot benchmark:
//!
//! 1. generate the power-law scale instance (≈ `--edges` edges),
//! 2. build the [`triangle::service::QueryEngine`] **once** (measured
//!    level-0 decomposition + frozen rows/hierarchies) and report
//!    the build wall next to `exp_scale`'s `build_s` column,
//! 3. replay a deterministic `--queries`-long mixed stream
//!    ([`bench_suite::serve_query_stream`]) sequentially as the reference,
//! 4. serve the same stream at every `--threads` count and assert the
//!    answers are **bit-identical** to the sequential replay (charges
//!    included — the scheduler's determinism contract, audited end to
//!    end),
//! 5. report throughput (queries/s), p50/p99 latency, and the heaviest
//!    per-query routing load against the paper's `n^{1/3}·log²n` budget.
//!
//! `--json <path>` appends one `{"name": ..., "median_s": ...}` line per
//! measurement (`bench_suite::emit_json`); CI's `serve-smoke` job uploads
//! them as the latency artifact. `--p99-budget-ms B` fails the run on a
//! p99 blowout — the latency gate. Exit is non-zero on any answer mismatch.

use bench_suite::{edge_label, emit_json, scale_power_law, serve_query_stream, tiny_or, Table};
use expander::SchedulerPolicy;
use std::process::ExitCode;
use std::time::Instant;
use triangle::pipeline::PipelineParams;
use triangle::service::QueryEngine;

struct Args {
    edges: usize,
    queries: usize,
    threads: Vec<usize>,
    seed: u64,
    json: Option<String>,
    p99_budget_ms: Option<f64>,
    chunk_ablation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        edges: 1_000_000,
        queries: 10_000,
        threads: vec![1, 4, 8],
        seed: 42,
        json: None,
        p99_budget_ms: None,
        chunk_ablation: false,
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
            "--json" => args.json = Some(value("--json")?),
            "--p99-budget-ms" => {
                args.p99_budget_ms = Some(
                    value("--p99-budget-ms")?
                        .parse()
                        .map_err(|e| format!("bad --p99-budget-ms: {e}"))?,
                )
            }
            "--chunk-ablation" => args.chunk_ablation = true,
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_serve: {e}");
            eprintln!(
                "usage: exp_serve [--edges N] [--queries Q] [--threads 1,4,8] [--seed S] \
                 [--json out.jsonl] [--p99-budget-ms B] [--chunk-ablation] [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let label = edge_label(args.edges);

    let gen_start = Instant::now();
    let g = scale_power_law(args.edges, args.seed);
    eprintln!(
        "generated power_law n = {}, m = {} in {:.2?}",
        g.n(),
        g.m(),
        gen_start.elapsed()
    );

    // ── Build once. ──
    let params = PipelineParams {
        seed: args.seed,
        ..Default::default()
    };
    let build_start = Instant::now();
    let engine = QueryEngine::build(&g, &params);
    let build_wall = build_start.elapsed();
    let br = engine.build_report();
    eprintln!(
        "built artifact in {:.2?} (decompose {:.2?} + freeze {:.2?}): {} clusters \
         ({} routed), {} snapshot words, phi = {:.4}",
        build_wall,
        br.wall_decompose,
        br.wall_freeze,
        br.clusters,
        br.routed_clusters,
        br.snapshot_words,
        br.phi
    );
    emit_json(
        &args.json,
        &format!("serve/{label}/build"),
        build_wall.as_secs_f64(),
    );
    emit_json(
        &args.json,
        &format!("serve/{label}/build/decompose"),
        br.wall_decompose.as_secs_f64(),
    );
    emit_json(
        &args.json,
        &format!("serve/{label}/build/freeze"),
        br.wall_freeze.as_secs_f64(),
    );

    // ── The fixed stream, replayed sequentially as the reference. ──
    let stream = serve_query_stream(&g, args.queries, args.seed ^ 0x5E17E);
    let reference = engine.serve(&stream, &SchedulerPolicy::sequential());
    let errors = reference.answers.iter().filter(|a| a.is_err()).count();
    eprintln!(
        "sequential replay: {} queries in {:.2?} ({} errors, checksum {})",
        stream.len(),
        reference.wall,
        errors,
        reference.count_checksum()
    );

    let mut table = Table::new(
        &format!(
            "E8: serve tier (power_law target {} edges, {} queries)",
            args.edges, args.queries
        ),
        &[
            "threads",
            "wall_s",
            "qps",
            "p50_us",
            "p99_us",
            "max_q",
            "max_words",
            "checksum",
            "identical",
        ],
    );
    let mut failures = 0usize;
    for &t in &args.threads {
        let policy = if t <= 1 {
            SchedulerPolicy::sequential()
        } else {
            SchedulerPolicy::with_workers(t)
        };
        let report = engine.serve(&stream, &policy);
        let identical = report.answers_match(&reference);
        if !identical {
            eprintln!(
                "exp_serve: MISMATCH at t = {t}: concurrent answers differ from the \
                 sequential replay"
            );
            failures += 1;
        }
        let p50 = report.latency_percentile(50.0);
        let p99 = report.latency_percentile(99.0);
        eprintln!(
            "  t{t}: wall {:.2?}, {:.0} q/s, p50 {:.0}us p99 {:.0}us, workers {} steals {}",
            report.wall,
            report.throughput_qps(),
            p50.as_secs_f64() * 1e6,
            p99.as_secs_f64() * 1e6,
            report.stats.workers,
            report.stats.steals,
        );
        table.row(vec![
            t.to_string(),
            format!("{:.3}", report.wall.as_secs_f64()),
            format!("{:.0}", report.throughput_qps()),
            format!("{:.1}", p50.as_secs_f64() * 1e6),
            format!("{:.1}", p99.as_secs_f64() * 1e6),
            report.max_queries().to_string(),
            report.max_words().to_string(),
            report.count_checksum().to_string(),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        emit_json(
            &args.json,
            &format!("serve/{label}/t{t}"),
            report.wall.as_secs_f64(),
        );
        emit_json(
            &args.json,
            &format!("serve/{label}/t{t}/p50"),
            p50.as_secs_f64(),
        );
        emit_json(
            &args.json,
            &format!("serve/{label}/t{t}/p99"),
            p99.as_secs_f64(),
        );
        if let Some(budget) = args.p99_budget_ms {
            let p99_ms = p99.as_secs_f64() * 1e3;
            if p99_ms > budget {
                eprintln!("exp_serve: P99 BUDGET BLOWN at t = {t}: {p99_ms:.2}ms > {budget}ms");
                failures += 1;
            }
        }

        // ── Batching ablation: the per-query reference path must agree
        // bit-for-bit with the chunked default, and the chunked default
        // should not be slower. ──
        if args.chunk_ablation {
            let unbatched = engine.serve_chunked(&stream, &policy, 1);
            let same = unbatched.answers_match(&report);
            if !same {
                eprintln!(
                    "exp_serve: ABLATION MISMATCH at t = {t}: unbatched answers differ from \
                     the chunked serve"
                );
                failures += 1;
            }
            eprintln!(
                "  t{t} ablation: unbatched wall {:.2?} ({} jobs) vs chunked {:.2?} ({} jobs), \
                 identical = {}",
                unbatched.wall, unbatched.stats.jobs, report.wall, report.stats.jobs, same
            );
            emit_json(
                &args.json,
                &format!("serve/{label}/t{t}/unbatched"),
                unbatched.wall.as_secs_f64(),
            );
        }
    }

    // ── The paper audit: per-query routing load vs `n^{1/3}·log²n`. ──
    let budget_q = engine.paper_query_budget();
    let budget_w = engine.paper_word_budget();
    let max_q = reference.max_queries();
    let max_w = reference.max_words();
    // Report-only: the budget bounds a *whole per-cluster batch*, so a
    // single hub query exceeding it measures how unevenly the family's
    // degree skew localizes. The hard gates stay answer identity and the
    // p99 budget (DESIGN.md §12).
    eprintln!(
        "paper audit: heaviest query charged {max_q} routing queries \
         (per-cluster budget n^(1/3)·log²n = {budget_q:.0}, ratio {:.3}) and {max_w} words \
         (budget {budget_w:.0}, ratio {:.3})",
        max_q as f64 / budget_q,
        max_w as f64 / budget_w,
    );

    print!("{}", table.to_text());
    println!();
    print!("{}", table.to_csv());
    if failures > 0 {
        eprintln!("exp_serve: {failures} failures");
        return ExitCode::FAILURE;
    }
    eprintln!("exp_serve: all thread counts bit-identical to the sequential replay");
    ExitCode::SUCCESS
}
