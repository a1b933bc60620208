//! **E9 — the ingestion tier**: real graph in, answers out, nothing
//! rebuilt twice.
//!
//! Every other experiment generates its workload; this one eats a
//! plain-text edge list from disk (default: the committed Zachary Karate
//! Club sample, `datasets/karate.txt` — see `DATASETS.md` for fetching
//! SNAP-scale inputs) and drives the full storage path end to end:
//!
//! 1. **convert** the edge list to the binary on-disk CSR with the
//!    out-of-core sorter (`--chunk-edges` bounds resident memory,
//!    `--morton` applies locality relabeling),
//! 2. **open** the file zero-copy (mmap; heap fallback reported), then
//!    **materialize** the [`graph::Graph`] — which re-validates every
//!    structural invariant including adjacency symmetry,
//! 3. run the **measured pipeline** ([`enumerate_via_decomposition`])
//!    sequentially and in parallel and require bit-identical triangle
//!    lists; `--verify` additionally checks them against the centralized
//!    enumerator,
//! 4. **build** the [`QueryEngine`], **persist** it into the file's
//!    frozen-artifact section ([`storage::artifact::store`]), reopen,
//!    **restore** ([`storage::artifact::load`]) and require the restored
//!    engine to answer a fixed query stream bit-identically (charges
//!    included); `--restore-budget R` gates `restore_wall ≤ R·build_wall`.
//!
//! `--json <path>` appends one `{"name": ..., "median_s": ...}` line per
//! measurement (`bench_suite::emit_json`; CI's `ingest-smoke` artifact);
//! `--wall-budget-s B` fails the run when the whole flow exceeds `B`
//! seconds. Exit is non-zero on any mismatch or blown budget.

use bench_suite::{emit_json, serve_query_stream, tiny_or, Table};
use expander::SchedulerPolicy;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use storage::{artifact, convert_edge_list, ConvertOptions, CsrFile};
use triangle::pipeline::PipelineParams;
use triangle::service::QueryEngine;
use triangle::{count_triangles, enumerate_via_decomposition};

struct Args {
    input: PathBuf,
    out: Option<PathBuf>,
    morton: bool,
    chunk_edges: usize,
    queries: usize,
    seed: u64,
    json: Option<String>,
    verify: bool,
    restore_budget: Option<f64>,
    wall_budget_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: PathBuf::from("datasets/karate.txt"),
        out: None,
        morton: false,
        chunk_edges: ConvertOptions::default().chunk_edges,
        queries: 2_000,
        seed: 42,
        json: None,
        verify: false,
        restore_budget: None,
        wall_budget_s: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--input" => args.input = PathBuf::from(value("--input")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--morton" => args.morton = true,
            "--chunk-edges" => {
                args.chunk_edges = value("--chunk-edges")?
                    .parse()
                    .map_err(|e| format!("bad --chunk-edges: {e}"))?
            }
            "--queries" => {
                args.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("bad --queries: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--json" => args.json = Some(value("--json")?),
            "--verify" => args.verify = true,
            "--restore-budget" => {
                args.restore_budget = Some(
                    value("--restore-budget")?
                        .parse()
                        .map_err(|e| format!("bad --restore-budget: {e}"))?,
                )
            }
            "--wall-budget-s" => {
                args.wall_budget_s = Some(
                    value("--wall-budget-s")?
                        .parse()
                        .map_err(|e| format!("bad --wall-budget-s: {e}"))?,
                )
            }
            "--tiny" => {
                args.queries = 500;
                args.verify = true;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.queries = tiny_or(args.queries.min(500), args.queries);
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_ingest: {e}");
            eprintln!(
                "usage: exp_ingest [--input edges.txt] [--out file.csr] [--morton] \
                 [--chunk-edges N] [--queries Q] [--seed S] [--json out.jsonl] [--verify] \
                 [--restore-budget R] [--wall-budget-s B] [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let label = args
        .input
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "input".to_string());
    let out = args.out.clone().unwrap_or_else(|| {
        let mut p = args.input.clone();
        p.set_extension(if args.morton { "morton.csr" } else { "csr" });
        p
    });
    let total_start = Instant::now();
    let mut failures = 0usize;
    let mut table = Table::new(
        &format!("E9: ingestion tier ({})", args.input.display()),
        &["stage", "wall_s", "detail"],
    );
    let stage = |table: &mut Table, name: &str, secs: f64, detail: String| {
        table.row(vec![name.to_string(), format!("{secs:.4}"), detail]);
        emit_json(&args.json, &format!("ingest/{label}/{name}"), secs);
    };

    // ── 1. Convert. ──
    let opts = ConvertOptions {
        chunk_edges: args.chunk_edges,
        morton: args.morton,
        ..Default::default()
    };
    let t = Instant::now();
    let report = match convert_edge_list(&args.input, &out, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exp_ingest: convert failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let convert_s = t.elapsed().as_secs_f64();
    eprintln!(
        "converted {} -> {}: n = {}, m = {} ({} records, {} duplicates dropped, \
         {} self loops, {} chunks{}{}) in {convert_s:.3}s",
        args.input.display(),
        out.display(),
        report.n,
        report.m,
        report.edge_records,
        report.duplicates_removed,
        report.self_loops,
        report.chunks,
        if report.dense_relabeled {
            ", dense-relabeled"
        } else {
            ""
        },
        if report.morton { ", morton" } else { "" },
    );
    stage(
        &mut table,
        "convert",
        convert_s,
        format!("n={} m={} chunks={}", report.n, report.m, report.chunks),
    );

    // ── 2. Open zero-copy, then materialize. ──
    let t = Instant::now();
    let file = match CsrFile::open(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("exp_ingest: open failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let open_s = t.elapsed().as_secs_f64();
    eprintln!(
        "opened {} ({}, artifact: {}) in {open_s:.4}s",
        out.display(),
        if file.is_mapped() { "mmap" } else { "heap" },
        file.header().has_artifact(),
    );
    stage(
        &mut table,
        "open",
        open_s,
        (if file.is_mapped() { "mmap" } else { "heap" }).to_string(),
    );
    let t = Instant::now();
    let g = match file.to_graph() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("exp_ingest: materialize failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mat_s = t.elapsed().as_secs_f64();
    stage(
        &mut table,
        "materialize",
        mat_s,
        format!("n={} m={}", g.n(), g.m()),
    );

    // ── 3. The measured pipeline, sequential vs parallel. ──
    use congest::ExecMode;
    let seq_params = PipelineParams {
        seed: args.seed,
        recursion_exec: ExecMode::Sequential,
        ..Default::default()
    };
    let par_params = PipelineParams {
        recursion_exec: ExecMode::Parallel,
        ..seq_params.clone()
    };
    let t = Instant::now();
    let seq = enumerate_via_decomposition(&g, &seq_params);
    let pipeline_s = t.elapsed().as_secs_f64();
    let par = enumerate_via_decomposition(&g, &par_params);
    if seq.triangles != par.triangles {
        eprintln!("exp_ingest: MISMATCH: sequential and parallel pipeline runs disagree");
        failures += 1;
    }
    eprintln!(
        "pipeline enumerated {} triangles in {pipeline_s:.3}s (seq == par: {})",
        seq.triangles.len(),
        seq.triangles == par.triangles,
    );
    if args.verify {
        let want = count_triangles(&g);
        if seq.triangles.len() as u64 != want {
            eprintln!(
                "exp_ingest: VERIFY FAILED: pipeline found {} triangles, centralized count {want}",
                seq.triangles.len()
            );
            failures += 1;
        } else {
            eprintln!("verify: centralized count {want} matches");
        }
    }
    stage(
        &mut table,
        "pipeline",
        pipeline_s,
        format!("triangles={}", seq.triangles.len()),
    );

    // ── 4. Build, persist, restore, answer-identity. ──
    let t = Instant::now();
    let engine = QueryEngine::build(&g, &seq_params);
    let build_s = t.elapsed().as_secs_f64();
    let br = engine.build_report();
    stage(
        &mut table,
        "build",
        build_s,
        format!(
            "clusters={} routed={} phi={:.4}",
            br.clusters, br.routed_clusters, br.phi
        ),
    );
    eprintln!(
        "build report: {} clusters ({} routed), phi = {:.4}, {} decomposition rounds, \
         {} hierarchy rounds, {} snapshot words",
        br.clusters,
        br.routed_clusters,
        br.phi,
        br.decomposition_rounds,
        br.hierarchy_build_rounds,
        br.snapshot_words
    );
    let t = Instant::now();
    if let Err(e) = artifact::store(&out, &engine) {
        eprintln!("exp_ingest: artifact store failed: {e}");
        return ExitCode::FAILURE;
    }
    let store_s = t.elapsed().as_secs_f64();
    stage(&mut table, "store", store_s, String::new());
    let t = Instant::now();
    let restored = match CsrFile::open(&out).and_then(|f| artifact::load(&f)) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("exp_ingest: artifact load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let restore_s = t.elapsed().as_secs_f64();
    let ratio = restore_s / build_s.max(1e-9);
    eprintln!(
        "build {build_s:.3}s, store {store_s:.3}s, restore {restore_s:.3}s \
         (restore/build = {ratio:.3})"
    );
    stage(
        &mut table,
        "restore",
        restore_s,
        format!("ratio={ratio:.3}"),
    );
    if let Some(budget) = args.restore_budget {
        if ratio > budget {
            eprintln!("exp_ingest: RESTORE BUDGET BLOWN: ratio {ratio:.3} > {budget}");
            failures += 1;
        }
    }
    let stream = serve_query_stream(&g, args.queries, args.seed ^ 0x1267);
    let a = engine.serve(&stream, &SchedulerPolicy::sequential());
    let b = restored.serve(&stream, &SchedulerPolicy::sequential());
    if !a.answers_match(&b) {
        eprintln!(
            "exp_ingest: MISMATCH: restored engine answers differ from the built engine \
             on the fixed {}-query stream",
            stream.len()
        );
        failures += 1;
    } else {
        eprintln!(
            "restored engine bit-identical on {} queries (checksum {})",
            stream.len(),
            a.count_checksum()
        );
    }

    let total_s = total_start.elapsed().as_secs_f64();
    emit_json(&args.json, &format!("ingest/{label}/total"), total_s);
    if let Some(budget) = args.wall_budget_s {
        if total_s > budget {
            eprintln!("exp_ingest: WALL BUDGET BLOWN: {total_s:.2}s > {budget}s");
            failures += 1;
        }
    }
    print!("{}", table.to_text());
    println!();
    print!("{}", table.to_csv());
    if failures > 0 {
        eprintln!("exp_ingest: {failures} failures");
        return ExitCode::FAILURE;
    }
    eprintln!("exp_ingest: converted, loaded, enumerated, persisted, restored — all identical");
    ExitCode::SUCCESS
}
