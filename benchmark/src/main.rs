//! `lifecycle_bench` — the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! lifecycle_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--workdir <dir>] [--smoke]
//! ```
//!
//! One run drives one workload through the whole lifecycle (edge list on
//! disk → engine built and persisted → restarts → answers on the wire →
//! ledger churn → rebuild and hot swap → the paper's enumeration), checks
//! every answer, prints every metric by name and unit, and ends with one
//! JSON line. `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` reports the per-layer metrics from a traced pass. See
//! `benchmark/README.md`.

mod inputs;
mod layers;
mod lifecycle;
mod stats;
mod summary;
mod trace;

use inputs::{Workload, DEFAULT_SEED, NOMINAL_SECONDS};
use lifecycle::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;
use summary::{render_result, render_table, Checks, END_TO_END, PER_LAYER};
use triangle::PipelineParams;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        workdir: PathBuf::from("target/benchmark/lifecycle_bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workloads.push(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--workdir" => args.workdir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        if !args.smoke {
            return Err("--workload is required (or --smoke for all three, shrunk)".to_string());
        }
        args.workloads = Workload::ALL.to_vec();
    }
    if args.workloads.len() > 1 && !args.smoke {
        return Err("one --workload per run".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lifecycle_bench: {e}");
            eprintln!(
                "usage: lifecycle_bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 [--workdir DIR] [--smoke]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A smoke run's numbers come from shrunken inputs: every line carries
    // the label and no result line is printed, so they cannot be mistaken
    // for (or parsed as) gated ones.
    let label = if args.smoke { "SMOKE " } else { "" };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut last_line = String::new();
    let mut total = Checks::default();
    for workload in args.workloads {
        let dir = args.workdir.join(format!(
            "{}-{}-{}",
            workload.name(),
            args.seed,
            std::process::id()
        ));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("lifecycle_bench: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let mut ctx = Ctx {
            workload,
            spec: workload.spec(args.smoke).scaled(args.seconds, args.smoke),
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            dir: dir.clone(),
            params: PipelineParams {
                seed: lifecycle::PIPELINE_SEED,
                ..Default::default()
            },
            config: server::ServerConfig::default(),
            checks: Checks::default(),
        };
        eprintln!(
            "lifecycle_bench: {label}workload {} seed {} seconds {} trace {} ({} threads)",
            workload.name(),
            args.seed,
            args.seconds,
            args.trace as u8,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        let report = if args.trace {
            let mut tracer = trace::Tracer::new(true);
            let report = layers::run_traced(&mut ctx, &mut tracer);
            let trace_path =
                args.workdir
                    .join(format!("{}-{}.trace.json", workload.name(), args.seed));
            match std::fs::write(&trace_path, tracer.to_json()) {
                Ok(()) => eprintln!("lifecycle_bench: trace written to {}", trace_path.display()),
                Err(e) => eprintln!("lifecycle_bench: cannot write the trace: {e}"),
            }
            report
        } else {
            lifecycle::run_end_to_end(&mut ctx)
        };
        let _ = std::fs::remove_dir_all(&dir);
        println!("{label}workload {}", workload.name());
        print!("{}", render_table(defs, &report, label));
        println!(
            "{label}checked operations: {} attempted, {} failed",
            ctx.checks.attempted, ctx.checks.failed
        );
        total.attempted += ctx.checks.attempted;
        total.failed += ctx.checks.failed;
        match render_result(defs, &report, &ctx.checks) {
            Ok(line) => last_line = line,
            Err(e) => {
                eprintln!("lifecycle_bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.smoke {
        // Not a result line: a smoke run gates nothing.
        println!(
            "SMOKE done: {} checked operations, {} failed (numbers above are from shrunken \
             inputs and are not comparable with BENCHMARK.json metrics)",
            total.attempted, total.failed
        );
        return if total.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!("{last_line}");
    ExitCode::SUCCESS
}
