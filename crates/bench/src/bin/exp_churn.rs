//! **E9 — the churn tier**: maintain the triangle artifact incrementally
//! under live edge churn and measure the payoff against starting over.
//!
//! The flow mirrors a serving deployment absorbing writes:
//!
//! 1. generate the planted-partition scale instance (≈ `--edges` edges)
//!    and freeze a [`QueryEngine`] over its planted clusters,
//! 2. open a [`DeltaLedger`] and, per batch size in `--batches`, apply a
//!    deterministic churn batch ([`bench_suite::churn_ops`]) and compare
//!    the incremental wall against the from-scratch comparator — a full
//!    `count_triangles` recount of the live graph — asserting the two
//!    counts are **equal** every time,
//! 3. run one certificate-driven rebuild ([`DeltaLedger::rebuild`]) and
//!    compare it against a from-scratch [`QueryEngine::build`] on the
//!    final graph: cluster-artifact reuse is reported, and the two
//!    engines' answers must be bit-identical over a vertex probe sweep
//!    (charges excluded — reused hierarchies keep their original seeds),
//! 4. with `--churn-seeds 1,2,3,4`, the **rebuild sweep** (OPERATIONS.md):
//!    a measured build of the power-law scale instance, then per churn
//!    seed a fresh ledger and two rebuild cycles — `edges / 500` ops of
//!    [`bench_suite::uniform_churn`] and their inverse — each reported
//!    with wall and checked / broken / reused / carried / split. Fails on
//!    `broken > 0` in a cycle with no dirty cluster severed.
//!
//! `--min-speedup X` gates every batch's incremental-vs-recount speedup
//! (CI's `churn-smoke` passes 5). `--json <path>` appends one
//! `{"name": ..., "median_s": ...}` line per measurement
//! (`bench_suite::emit_json`; rebuild lines carry their counts). Exit is
//! non-zero on any count/answer mismatch or failed gate.

use bench_suite::{
    churn_ops, edge_label, emit_json, emit_json_counts, scale_planted_partition, scale_power_law,
    tiny_or, uniform_churn, Table,
};
use expander::verify::{certify_threshold, Rung};
use expander::{ClusterAssignment, SchedulerPolicy};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use triangle::pipeline::PipelineParams;
use triangle::service::{Emit, Query, QueryEngine};
use triangle::{count_triangles, DeltaLedger, EdgeOp, RebuildReport};

struct Args {
    edges: usize,
    batches: Vec<usize>,
    seed: u64,
    json: Option<String>,
    min_speedup: Option<f64>,
    churn_seeds: Vec<u64>,
}

/// A comma-separated list of numbers.
fn list<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    flag: &str,
    raw: &str,
) -> Result<Vec<T>, String> {
    (raw.split(','))
        .map(|b| b.trim().parse().map_err(|e| format!("bad {flag}: {e}")))
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        edges: 1_000_000,
        batches: vec![16, 128, 1024],
        seed: 42,
        json: None,
        min_speedup: None,
        churn_seeds: Vec::new(),
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
            "--batches" => args.batches = list("--batches", &value("--batches")?)?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--json" => args.json = Some(value("--json")?),
            "--min-speedup" => {
                args.min_speedup = Some(
                    value("--min-speedup")?
                        .parse()
                        .map_err(|e| format!("bad --min-speedup: {e}"))?,
                )
            }
            "--churn-seeds" => args.churn_seeds = list("--churn-seeds", &value("--churn-seeds")?)?,
            "--tiny" => args.edges = 20_000,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.batches.is_empty() {
        return Err("need at least one batch size".to_string());
    }
    if tiny_or(true, false) {
        args.edges = args.edges.min(20_000);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_churn: {e}");
            eprintln!(
                "usage: exp_churn [--edges N] [--batches 16,128,1024] [--seed S] \
                 [--json out.jsonl] [--min-speedup X] [--churn-seeds 1,2,3,4] \
                 [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let label = edge_label(args.edges);

    let gen_start = Instant::now();
    let pp = scale_planted_partition(args.edges, args.seed);
    eprintln!(
        "generated planted_partition n = {}, m = {}, {} blocks in {:.2?}",
        pp.graph.n(),
        pp.graph.m(),
        pp.blocks.len(),
        gen_start.elapsed()
    );

    // ── Freeze once over the planted clusters. ──
    let params = PipelineParams {
        seed: args.seed,
        ..Default::default()
    };
    let assignment =
        ClusterAssignment::from_parts(&pp.graph, &pp.blocks, 0.1, &params.scheduler_policy());
    let build_start = Instant::now();
    let engine = Arc::new(QueryEngine::from_assignment(&pp.graph, assignment, &params));
    let build_wall = build_start.elapsed();
    eprintln!(
        "froze engine in {:.2?}: {} clusters, {} snapshot words",
        build_wall,
        engine.build_report().clusters,
        engine.build_report().snapshot_words
    );
    emit_json(
        &args.json,
        &format!("churn/{label}/freeze"),
        build_wall.as_secs_f64(),
    );

    let open_start = Instant::now();
    let mut ledger = DeltaLedger::new(&pp.graph, Arc::clone(&engine));
    eprintln!(
        "opened ledger in {:.2?} ({} triangles)",
        open_start.elapsed(),
        ledger.triangles()
    );

    let mut table = Table::new(
        &format!(
            "E9: churn tier (planted_partition target {} edges)",
            args.edges
        ),
        &[
            "batch",
            "applied",
            "inc_us",
            "recount_ms",
            "speedup",
            "created",
            "destroyed",
            "dirty",
            "exact",
        ],
    );
    let mut failures = 0usize;

    // ── The apply sweep: incremental vs from-scratch recount. ──
    for (round, &batch) in args.batches.iter().enumerate() {
        let ops = churn_ops(
            &ledger.working().to_graph(),
            args.seed ^ (0xC0FFEE + round as u64),
            batch,
        );
        let inc_start = Instant::now();
        let report = ledger.apply(&ops);
        let inc_wall = inc_start.elapsed();

        let live = ledger.working().to_graph();
        let recount_start = Instant::now();
        let recount = count_triangles(&live);
        let recount_wall = recount_start.elapsed();

        let exact = ledger.triangles() == recount;
        if !exact {
            eprintln!(
                "exp_churn: COUNT MISMATCH at batch {batch}: incremental {} vs recount {recount}",
                ledger.triangles()
            );
            failures += 1;
        }
        let speedup = recount_wall.as_secs_f64() / inc_wall.as_secs_f64().max(1e-9);
        eprintln!(
            "  batch {batch}: applied {} (+{} -{} witnesses, {} dirty clusters) in {:.2?}; \
             recount {:.2?}; speedup {speedup:.1}x",
            report.applied,
            report.created.len(),
            report.destroyed.len(),
            report.touched_clusters,
            inc_wall,
            recount_wall,
        );
        table.row(vec![
            batch.to_string(),
            report.applied.to_string(),
            format!("{:.1}", inc_wall.as_secs_f64() * 1e6),
            format!("{:.2}", recount_wall.as_secs_f64() * 1e3),
            format!("{speedup:.1}"),
            report.created.len().to_string(),
            report.destroyed.len().to_string(),
            report.touched_clusters.to_string(),
            if exact { "yes" } else { "NO" }.to_string(),
        ]);
        emit_json(
            &args.json,
            &format!("churn/{label}/apply/b{batch}"),
            inc_wall.as_secs_f64(),
        );
        emit_json(
            &args.json,
            &format!("churn/{label}/recount/b{batch}"),
            recount_wall.as_secs_f64(),
        );
        if let Some(floor) = args.min_speedup {
            if speedup < floor {
                eprintln!(
                    "exp_churn: SPEEDUP FLOOR BLOWN at batch {batch}: {speedup:.1}x < {floor}x"
                );
                failures += 1;
            }
        }
    }

    // ── The rebuild: certificate-driven refreeze vs starting over. ──
    let final_g = ledger.working().to_graph();
    let rebuild_start = Instant::now();
    let rebuild = ledger.rebuild(&params);
    let rebuild_wall = rebuild_start.elapsed();
    let scratch_start = Instant::now();
    let scratch = QueryEngine::build(&final_g, &params);
    let scratch_wall = scratch_start.elapsed();
    let rebuild_speedup = scratch_wall.as_secs_f64() / rebuild_wall.as_secs_f64().max(1e-9);
    eprintln!(
        "rebuild: {:.2?} ({} certified, {} broken, {} reused by pointer, {} refrozen of which \
         {} carried their hierarchy, {} split off) vs from-scratch build {:.2?} — \
         {rebuild_speedup:.1}x",
        rebuild_wall,
        rebuild.checked,
        rebuild.broken,
        rebuild.reused,
        rebuild.rebuilt,
        rebuild.carried,
        rebuild.split,
        scratch_wall,
    );
    emit_json_counts(
        &args.json,
        &format!("churn/{label}/rebuild"),
        rebuild_wall.as_secs_f64(),
        &rebuild_counts(&rebuild),
    );
    emit_json(
        &args.json,
        &format!("churn/{label}/scratch_build"),
        scratch_wall.as_secs_f64(),
    );

    // ── Equivalence: the refrozen engine answers like the fresh one. ──
    let stride = (final_g.n() / 256).max(1);
    let probes: Vec<Query> = (0..final_g.n())
        .step_by(stride)
        .map(|v| Query::Vertex {
            v: v as u32,
            emit: Emit::Count,
        })
        .collect();
    let policy = SchedulerPolicy::sequential();
    let inc_answers = rebuild.engine.serve(&probes, &policy);
    let scratch_answers = scratch.serve(&probes, &policy);
    let mut mismatches = 0usize;
    for (i, (a, b)) in inc_answers
        .answers
        .iter()
        .zip(&scratch_answers.answers)
        .enumerate()
    {
        let same = match (a, b) {
            (Ok(x), Ok(y)) => x.answer == y.answer,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !same {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!("exp_churn: ANSWER MISMATCH on probe {i}: {a:?} vs {b:?}");
            }
        }
    }
    if mismatches > 0 {
        eprintln!("exp_churn: {mismatches} answer mismatches after rebuild");
        failures += 1;
    } else {
        eprintln!(
            "refrozen engine matches from-scratch on all {} probes",
            probes.len()
        );
    }

    print!("{}", table.to_text());
    println!();
    print!("{}", table.to_csv());
    if !args.churn_seeds.is_empty() {
        failures += rebuild_sweep(&args, &label);
    }
    if failures > 0 {
        eprintln!("exp_churn: {failures} failures");
        return ExitCode::FAILURE;
    }
    eprintln!("exp_churn: incremental maintenance exact; refrozen answers identical");
    ExitCode::SUCCESS
}

fn rebuild_counts(r: &RebuildReport) -> [(&'static str, usize); 6] {
    [
        ("checked", r.checked),
        ("broken", r.broken),
        ("reused", r.reused),
        ("rebuilt", r.rebuilt),
        ("carried", r.carried),
        ("split", r.split),
    ]
}

/// Clusters touched by `ops` that the ledger's live graph has severed.
fn severed_dirty_clusters(ledger: &DeltaLedger, ops: &[EdgeOp]) -> usize {
    let assignment = ledger.engine().assignment();
    let ends = |&(EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v)): &EdgeOp| [u, v];
    let dirty: std::collections::BTreeSet<u32> = (ops.iter().flat_map(ends))
        .map(|x| assignment.cluster_of[x as usize])
        .collect();
    let rung = |c| certify_threshold(ledger.working(), &assignment.clusters[c as usize], 0.0).1;
    (dirty.into_iter())
        .filter(|&c| matches!(rung(c), Rung::Severed(_)))
        .count()
}

/// Leg 4 of the module docs. Returns the number of failed gates.
fn rebuild_sweep(args: &Args, label: &str) -> usize {
    let g = scale_power_law(args.edges, args.seed);
    let params = PipelineParams {
        seed: args.seed,
        ..Default::default()
    };
    let engine = Arc::new(QueryEngine::build(&g, &params));
    let clusters = engine.build_report().clusters;
    eprintln!(
        "rebuild sweep: power_law m = {}, {clusters} clusters",
        g.m()
    );
    let mut failures = 0usize;
    for &seed in &args.churn_seeds {
        let mut ledger = DeltaLedger::new(&g, Arc::clone(&engine));
        let (batch, inverse) = uniform_churn(&g, seed, (args.edges / 500).max(2));
        for (cycle, ops) in [batch, inverse].iter().enumerate() {
            ledger.apply(ops);
            let severed = severed_dirty_clusters(&ledger, ops);
            let r = ledger.rebuild(&params);
            let name = format!("churn/{label}/sweep/s{seed}/c{cycle}");
            let counts = rebuild_counts(&r);
            emit_json_counts(&args.json, &name, r.wall.as_secs_f64(), &counts);
            eprintln!(
                "  {name}: {:.2?} {counts:?}, {severed} dirty clusters severed",
                r.wall
            );
            if severed == 0 && r.broken > 0 {
                eprintln!("exp_churn: FALSE BREAK at {name}: every dirty cluster is connected");
                failures += 1;
            }
        }
    }
    failures
}
