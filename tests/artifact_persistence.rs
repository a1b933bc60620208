//! The persistence contract of the frozen-artifact section (ISSUE 8
//! acceptance): a built [`QueryEngine`] persisted into the on-disk CSR
//! reloads **without re-decomposing**, answers a fixed query stream
//! bit-identically (routing charges included), and reloading is a small
//! fraction of building. Corrupted artifact payloads are typed errors.

use expander_repro::prelude::*;
use expander_repro::storage::{artifact, StorageError};
use std::fs;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic mixed query stream over `n` vertices.
fn stream(n: u32, count: usize) -> Vec<Query> {
    (0..count as u32)
        .map(|i| match i % 4 {
            0 => Query::Vertex {
                v: i % n,
                emit: Emit::Enumerate,
            },
            1 => Query::Vertex {
                v: (i * 13) % n,
                emit: Emit::Count,
            },
            2 => Query::Edge {
                u: i % n,
                v: (i * 7 + 3) % n,
                emit: Emit::Enumerate,
            },
            _ => Query::TopKBySupport { v: i % n, k: 4 },
        })
        .collect()
}

#[test]
fn persisted_engine_reloads_bit_identical_and_fast() {
    let dir = storage::test_dir("persist-gate");
    let path = dir.join("g.csr");
    // Big enough that the build does real decomposition + hierarchy work
    // and the restore/build ratio is signal, small enough for CI.
    let simple = gen::gnp(400, 0.05, 4242).unwrap();
    // The payload holds no adjacency: a restore re-derives the rows from
    // the file's graph sections, so run again with parallel edges (some
    // tripled) and self loops in them.
    let copies = simple.edges().chain(simple.edges().step_by(3));
    let edges = copies.chain(simple.edges().step_by(7));
    let multi = Graph::from_edges(400, edges.chain((0..400).map(|v| (v, v)))).unwrap();
    for g in [simple, multi] {
        write_graph(&g, &path).unwrap();

        let t = Instant::now();
        let engine = QueryEngine::build(&g, &PipelineParams::default());
        let build_wall = t.elapsed();
        artifact::store(&path, &engine).unwrap();

        let t = Instant::now();
        let file = CsrFile::open(&path).unwrap();
        let restored = artifact::load(&file).unwrap();
        let restore_wall = t.elapsed();

        // Bit-identity on a fixed query stream, charges included.
        let qs = stream(g.n() as u32, 400);
        let policy = SchedulerPolicy::sequential();
        let a = engine.serve(&qs, &policy);
        let b = restored.serve(&qs, &policy);
        assert!(
            a.answers_match(&b),
            "restored engine diverged from the built engine"
        );
        assert_eq!(a.count_checksum(), b.count_checksum());

        // Restore must cost a small fraction of the build. The ISSUE gate
        // is <10%; assert a looser 50% here so debug-profile CI timing
        // noise cannot flake the suite (the 10% gate runs in ingest-smoke,
        // release profile, via `exp_ingest --restore-budget 0.1`).
        let ratio = restore_wall.as_secs_f64() / build_wall.as_secs_f64().max(1e-9);
        assert!(
            ratio < 0.5,
            "restore took {ratio:.2}x the build ({restore_wall:?} vs {build_wall:?})"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn carried_hierarchy_persists_like_a_fresh_freeze() {
    // A refrozen engine whose hierarchy was carried by pointer holds one
    // in-memory extra (the absorbed-deletion count) that must not reach
    // the artifact: same bytes on disk as a fresh freeze of the same
    // assignment, and a restore that answers bit-identically, charges
    // included.
    let dir = storage::test_dir("persist-carried");
    let pp = gen::planted_partition(&[40, 24], 0.7, 0.02, 31).unwrap();
    let params = PipelineParams::default();
    let assign =
        |g: &Graph| ClusterAssignment::from_parts(g, &pp.blocks, 0.05, &params.scheduler_policy());
    let engine = Arc::new(QueryEngine::from_assignment(
        &pp.graph,
        assign(&pp.graph),
        &params,
    ));
    let mut ledger = DeltaLedger::new(&pp.graph, Arc::clone(&engine));
    let (u, v) = (pp.graph.edges())
        .find(|&(u, v)| pp.blocks[0].contains(u) && pp.blocks[0].contains(v))
        .unwrap();
    ledger.apply(&[EdgeOp::Delete(u, v)]);
    let rebuilt = ledger.rebuild(&params);
    assert_eq!(rebuilt.carried, 1);
    let g_now = ledger.working().to_graph();
    let fresh = QueryEngine::from_assignment(&g_now, assign(&g_now), &params);

    let size_of = |name: &str, engine: &QueryEngine| {
        let path = dir.join(name);
        write_graph(&g_now, &path).unwrap();
        artifact::store(&path, engine).unwrap();
        (CsrFile::open(&path).unwrap().header().artifact_len, path)
    };
    let (carried_len, carried_path) = size_of("carried.csr", &rebuilt.engine);
    let (fresh_len, _) = size_of("fresh.csr", &fresh);
    assert_eq!(carried_len, fresh_len, "a carried hierarchy adds no byte");

    let restored = artifact::load(&CsrFile::open(&carried_path).unwrap()).unwrap();
    let qs = stream(g_now.n() as u32, 300);
    let policy = SchedulerPolicy::sequential();
    assert!(rebuilt
        .engine
        .serve(&qs, &policy)
        .answers_match(&restored.serve(&qs, &policy)));
    assert_eq!(
        rebuilt.engine.to_frozen().clusters,
        restored.to_frozen().clusters
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistence_composes_with_converted_real_input() {
    // End to end on the committed real dataset: convert → store → reload.
    let dir = storage::test_dir("persist-karate");
    let path = dir.join("karate.csr");
    convert_edge_list(
        std::path::Path::new("datasets/karate.txt"),
        &path,
        &ConvertOptions::default(),
    )
    .unwrap();
    let g = CsrFile::open(&path).unwrap().to_graph().unwrap();
    let engine = QueryEngine::build(&g, &PipelineParams::default());
    artifact::store(&path, &engine).unwrap();

    let file = CsrFile::open(&path).unwrap();
    assert!(file.header().has_artifact());
    // The graph sections are untouched by the artifact rewrite.
    assert_eq!(file.to_graph().unwrap(), g);
    let restored = artifact::load(&file).unwrap();
    let qs = stream(34, 200);
    let policy = SchedulerPolicy::sequential();
    assert!(engine
        .serve(&qs, &policy)
        .answers_match(&restored.serve(&qs, &policy)));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupting_the_artifact_section_is_always_a_typed_error() {
    let dir = storage::test_dir("persist-corrupt");
    let path = dir.join("g.csr");
    let g = gen::gnp(60, 0.15, 17).unwrap();
    write_graph(&g, &path).unwrap();
    let engine = QueryEngine::build(&g, &PipelineParams::default());
    artifact::store(&path, &engine).unwrap();

    let pristine = fs::read(&path).unwrap();
    let artifact_start = {
        let file = CsrFile::open(&path).unwrap();
        pristine.len() - file.header().artifact_len as usize
    };
    // Any byte flip inside the payload trips the file checksum at open.
    for at in (artifact_start..pristine.len()).step_by(97) {
        let mut bent = pristine.clone();
        bent[at] ^= 0x10;
        let f = dir.join("bent.csr");
        fs::write(&f, &bent).unwrap();
        assert!(
            matches!(
                CsrFile::open(&f),
                Err(StorageError::ChecksumMismatch { .. })
            ),
            "flip at {at} not caught by the checksum"
        );
    }
    // A graph-only file (no artifact) refuses to load an engine.
    let plain = dir.join("plain.csr");
    write_graph(&g, &plain).unwrap();
    let file = CsrFile::open(&plain).unwrap();
    assert!(matches!(
        artifact::load(&file),
        Err(StorageError::Artifact { .. })
    ));
    // So does a version-1 artifact (stored by the encoder that still
    // wrote per-cluster adjacency rows), through both entry points; its
    // graph sections open as ever.
    let v1 = std::path::Path::new("tests/fixtures/karate_artifact_v1.csr");
    let file = CsrFile::open(v1).unwrap();
    assert_eq!(file.artifact_bytes().unwrap()[0], 1, "fixture is version 1");
    assert!(matches!(
        artifact::load(&file),
        Err(StorageError::Artifact { reason }) if reason.contains("version 1")
    ));
    assert!(matches!(
        artifact::restore_or_build(v1, &PipelineParams::default()),
        Err(StorageError::Artifact { .. })
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_refuses_an_engine_for_a_different_graph() {
    let dir = storage::test_dir("persist-mismatch");
    let path = dir.join("g.csr");
    write_graph(&gen::gnp(50, 0.2, 1).unwrap(), &path).unwrap();
    let other = gen::gnp(51, 0.2, 1).unwrap();
    let engine = QueryEngine::build(&other, &PipelineParams::default());
    assert!(matches!(
        artifact::store(&path, &engine),
        Err(StorageError::Artifact { .. })
    ));
    fs::remove_dir_all(&dir).ok();
}
