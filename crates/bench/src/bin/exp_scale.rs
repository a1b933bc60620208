//! **E7 — the scale sweep**: the large-graph workload tier through the
//! parallel cluster-recursion scheduler, swept over edge target, thread
//! count and execution mode.
//!
//! For every workload of [`bench_suite::scale_tier`] (power-law,
//! planted partition, ring of expanders — each ≈ `--edges` edges):
//!
//! 1. time the chunk-parallel generation (CSR built via
//!    `Graph::from_edge_chunks`),
//! 2. run the triangle pipeline once per `(mode, threads)` combo and
//!    record wall-clock next to the scheduler's `RecursionReport`
//!    (jobs, steals, imbalance, arena reuse),
//! 3. assert every combo lists the **same** triangle count (sequential
//!    vs parallel bit-identity; `--verify` additionally checks the
//!    centralized counter).
//!
//! Families with planted clusters (planted partition, ring of
//! expanders) run `enumerate_with_assignment` on their ground-truth
//! blocks — the full cluster machinery (scheduler fan-out, routing,
//! engine enumeration, residual) without the measured Theorem 1
//! decomposition, which is the bottleneck beyond ~10³ edges (its
//! peeling loop rebuilds the working graph per removal). The power-law
//! family has no planted clusters, so it runs the measured
//! decomposition up to `--decompose-cap` edges and the centralized
//! counter beyond that — logged loudly, never silently skipped.
//!
//! `--json <path>` appends one `{"name": ..., "median_s": ...}` line per
//! measurement (`bench_suite::emit_json`); CI's `scale-smoke` job uploads
//! the sweep as an artifact. Next to each run's total wall the sweep
//! emits the **cluster-phase split**
//! (`.../decompose`, `.../clusters.dlp`, `.../clusters.exchange`,
//! `.../clusters.join`, `.../merge` entries, mirrored in the table's
//! `dlp_s`/`exch_s`/`join_s` columns), so a phase-level regression is
//! attributable from the jsonl alone. The split sums per-job walls
//! across cluster jobs — worker CPU time, which can exceed the elapsed
//! `clusters` wall when jobs overlap in parallel mode.
//!
//! Defaults target the million-edge tier; pass `--edges 100000` (CI),
//! `--tiny` (≈20k) for capped runs, or `--edges 10000000` for the
//! nightly ten-million-edge ceiling tier.

use bench_suite::{edge_label, emit_json, scale_tier, Table};
use congest::ExecMode;
use expander::{ClusterAssignment, SchedulerPolicy};
use std::process::ExitCode;
use std::time::Instant;
use triangle::pipeline::{enumerate_via_decomposition, enumerate_with_assignment, PipelineParams};

struct Args {
    edges: usize,
    threads: Vec<usize>,
    modes: Vec<&'static str>,
    seed: u64,
    json: Option<String>,
    families: Option<Vec<String>>,
    verify: bool,
    max_depth: usize,
    decompose_cap: usize,
    /// Force the measured Theorem 1 decomposition for *every* family,
    /// ignoring planted clusters and the decompose cap.
    measured: bool,
    /// Fail the sweep if any single pipeline run exceeds this wall-clock
    /// budget (seconds) — the CI `decomp-scale-smoke` guard.
    budget_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        edges: 1_000_000,
        threads: vec![1, 2, 4],
        modes: vec!["seq", "par"],
        seed: 42,
        json: None,
        families: None,
        verify: false,
        max_depth: 2,
        // The incremental working-graph overlay runs the measured
        // decomposition at the million-edge tier, so the default path for
        // families without planted clusters IS the measured decomposition
        // now; the cap only guards accidental 10⁷+-edge invocations.
        decompose_cap: 2_000_000,
        measured: false,
        budget_s: None,
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
            "--modes" => {
                let raw = value("--modes")?;
                args.modes = raw
                    .split(',')
                    .map(|m| match m.trim() {
                        "seq" => Ok("seq"),
                        "par" => Ok("par"),
                        other => Err(format!("unknown mode {other:?} (want seq|par)")),
                    })
                    .collect::<Result<_, _>>()?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--json" => args.json = Some(value("--json")?),
            "--families" => {
                args.families = Some(
                    value("--families")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--max-depth" => {
                args.max_depth = value("--max-depth")?
                    .parse()
                    .map_err(|e| format!("bad --max-depth: {e}"))?
            }
            "--decompose-cap" => {
                args.decompose_cap = value("--decompose-cap")?
                    .parse()
                    .map_err(|e| format!("bad --decompose-cap: {e}"))?
            }
            "--verify" => args.verify = true,
            "--measured" => args.measured = true,
            "--budget-s" => {
                args.budget_s = Some(
                    value("--budget-s")?
                        .parse()
                        .map_err(|e| format!("bad --budget-s: {e}"))?,
                )
            }
            "--tiny" => args.edges = 20_000,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.threads.is_empty() || args.modes.is_empty() {
        return Err("need at least one thread count and one mode".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_scale: {e}");
            eprintln!(
                "usage: exp_scale [--edges N] [--threads 1,2,4] [--modes seq,par] \
                 [--seed S] [--json out.jsonl] [--families power_law,planted4,ring_expanders] \
                 [--max-depth D] [--decompose-cap M] [--measured] [--budget-s S] \
                 [--verify] [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let label = edge_label(args.edges);
    let mut table = Table::new(
        &format!("E7: scale sweep (target {} edges)", args.edges),
        &[
            "family",
            "n",
            "m",
            "mode",
            "threads",
            "wall_s",
            "build_s",
            "dlp_s",
            "exch_s",
            "join_s",
            "triangles",
            "levels",
            "exch_rounds",
            "jobs",
            "steals",
            "imbalance",
            "arena_hits",
        ],
    );

    let gen_start = Instant::now();
    let mut workloads = scale_tier(args.edges, args.seed);
    let gen_wall = gen_start.elapsed();
    eprintln!(
        "generated {} workloads in {:.2?}",
        workloads.len(),
        gen_wall
    );
    emit_json(
        &args.json,
        &format!("scale/{label}/gen_tier"),
        gen_wall.as_secs_f64(),
    );
    if let Some(fams) = &args.families {
        workloads.retain(|w| fams.iter().any(|f| f == &w.name));
        if workloads.is_empty() {
            eprintln!("exp_scale: --families matched nothing");
            return ExitCode::from(2);
        }
    }

    let mut failures = 0usize;
    for w in &workloads {
        // Pick the pipeline path: the measured decomposition when forced
        // (--measured) or when the family plants no clusters and fits the
        // cap, planted clusters otherwise, the centralized counter as the
        // loud last resort (never a silent skip).
        let planted = if args.measured { &None } else { &w.planted };
        // Build-phase wall of this workload's structure: the assignment
        // intake for planted families (measured once, shared by every
        // combo), the per-run decompose phase for measured families.
        let mut assign_wall = std::time::Duration::ZERO;
        let assignment = match (planted, w.graph.m() <= args.decompose_cap || args.measured) {
            (Some(parts), _) => {
                let start = Instant::now();
                let asg = ClusterAssignment::from_parts(
                    &w.graph,
                    parts,
                    w.planted_phi,
                    &SchedulerPolicy::parallel(),
                );
                assign_wall = start.elapsed();
                emit_json(
                    &args.json,
                    &format!("scale/{label}/{}/assign", w.name),
                    assign_wall.as_secs_f64(),
                );
                Some(asg)
            }
            (None, true) => None, // measured decomposition below
            (None, false) => {
                eprintln!(
                    "exp_scale: {} has no planted clusters and m = {} exceeds \
                     --decompose-cap {}; running the centralized counter instead \
                     of the pipeline",
                    w.name,
                    w.graph.m(),
                    args.decompose_cap
                );
                let start = Instant::now();
                let count = triangle::count_triangles(&w.graph);
                let wall = start.elapsed();
                table.row(vec![
                    w.name.clone(),
                    w.graph.n().to_string(),
                    w.graph.m().to_string(),
                    "central".to_string(),
                    "1".to_string(),
                    format!("{:.3}", wall.as_secs_f64()),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    count.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                emit_json(
                    &args.json,
                    &format!("scale/{label}/{}/central", w.name),
                    wall.as_secs_f64(),
                );
                continue;
            }
        };

        let mut counts: Vec<(String, u64)> = Vec::new();
        for &mode in &args.modes {
            let exec = if mode == "par" {
                ExecMode::Parallel
            } else {
                ExecMode::Sequential
            };
            for &t in &args.threads {
                if mode == "seq" && t != args.threads[0] {
                    continue; // sequential wall-clock is thread-independent
                }
                let params = PipelineParams {
                    seed: args.seed,
                    exec,
                    recursion_exec: exec,
                    recursion_workers: t,
                    max_depth: args.max_depth,
                    ..Default::default()
                };
                let start = Instant::now();
                let report = match &assignment {
                    Some(asg) => enumerate_with_assignment(&w.graph, asg, &params),
                    None => enumerate_via_decomposition(&w.graph, &params),
                };
                let wall = start.elapsed();
                let combo = format!("{mode}/t{t}");
                let exchange = report.phases.phase("enumerate");
                // The cluster-phase split: per-job walls summed across
                // cluster jobs (worker CPU time — can exceed the elapsed
                // `clusters` wall when jobs overlap in parallel mode).
                let wall_dlp = report.phases.wall("clusters.dlp");
                let wall_exch = report.phases.wall("clusters.exchange");
                let wall_join = report.phases.wall("clusters.join");
                // Build vs query wall split: structure construction
                // (assignment intake or measured decomposition) against
                // everything downstream of it — the serve tier's
                // build-once wall, measured on the pipeline for direct
                // comparison.
                let wall_build = assign_wall + report.phases.wall("decompose");
                eprintln!(
                    "  {}/{combo}: wall {:.2?} (decompose {:.2?}, clusters {:.2?} \
                     [dlp {:.2?}, exchange {:.2?}, join {:.2?}], merge {:.2?}), \
                     {} triangles, exchange {} rounds / {} words",
                    w.name,
                    wall,
                    report.phases.wall("decompose"),
                    report.phases.wall("clusters"),
                    wall_dlp,
                    wall_exch,
                    wall_join,
                    report.phases.wall("merge"),
                    report.count(),
                    exchange.rounds,
                    exchange.words,
                );
                table.row(vec![
                    w.name.clone(),
                    w.graph.n().to_string(),
                    w.graph.m().to_string(),
                    if assignment.is_some() {
                        format!("{mode}*") // * = planted assignment
                    } else {
                        mode.to_string()
                    },
                    t.to_string(),
                    format!("{:.3}", wall.as_secs_f64()),
                    format!("{:.3}", wall_build.as_secs_f64()),
                    format!("{:.3}", wall_dlp.as_secs_f64()),
                    format!("{:.3}", wall_exch.as_secs_f64()),
                    format!("{:.3}", wall_join.as_secs_f64()),
                    report.count().to_string(),
                    report.levels.len().to_string(),
                    exchange.rounds.to_string(),
                    report.recursion.total_jobs().to_string(),
                    report.recursion.total_steals().to_string(),
                    format!("{:.2}", report.recursion.max_imbalance()),
                    format!(
                        "{}/{}",
                        report.recursion.scratch_hits,
                        report.recursion.scratch_hits + report.recursion.scratch_misses
                    ),
                ]);
                emit_json(
                    &args.json,
                    &format!("scale/{label}/{}/{combo}", w.name),
                    wall.as_secs_f64(),
                );
                // Per-phase walls as their own jsonl entries, so the
                // cluster split is attributable from the jsonl alone.
                for (phase, dur) in [
                    ("build_s", wall_build),
                    ("decompose", report.phases.wall("decompose")),
                    ("clusters.dlp", wall_dlp),
                    ("clusters.exchange", wall_exch),
                    ("clusters.join", wall_join),
                    ("merge", report.phases.wall("merge")),
                ] {
                    emit_json(
                        &args.json,
                        &format!("scale/{label}/{}/{combo}/{phase}", w.name),
                        dur.as_secs_f64(),
                    );
                }
                if let Some(budget) = args.budget_s {
                    if wall.as_secs_f64() > budget {
                        eprintln!(
                            "exp_scale: BUDGET BLOWN on {}/{combo}: {:.1}s > {budget}s",
                            w.name,
                            wall.as_secs_f64()
                        );
                        failures += 1;
                    }
                }
                counts.push((combo, report.count()));
            }
        }
        // Bit-identity across every (mode, threads) combo.
        if let Some((first_combo, first)) = counts.first().cloned() {
            for (combo, count) in &counts[1..] {
                if *count != first {
                    eprintln!(
                        "exp_scale: MISMATCH on {}: {first_combo} listed {first}, \
                         {combo} listed {count}",
                        w.name
                    );
                    failures += 1;
                }
            }
            if args.verify {
                let truth = triangle::count_triangles(&w.graph);
                if first != truth {
                    eprintln!(
                        "exp_scale: {} pipeline listed {first} triangles, centralized \
                         counter says {truth}",
                        w.name
                    );
                    failures += 1;
                }
            }
        }
    }

    print!("{}", table.to_text());
    println!();
    print!("{}", table.to_csv());
    if failures > 0 {
        eprintln!("exp_scale: {failures} mode/thread combos disagreed");
        return ExitCode::FAILURE;
    }
    eprintln!("exp_scale: all mode/thread combos agree");
    ExitCode::SUCCESS
}
