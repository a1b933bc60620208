//! Recluster-scope regression (DESIGN.md §15): deleting intra-cluster
//! edges until one planted block's φ certificate breaks must re-decompose
//! ONLY that block. The untouched blocks' frozen artifacts must ride into
//! the refrozen engine by `Arc` pointer — the regression this test pins
//! is a rebuild that silently falls back to re-cutting (or re-freezing)
//! the whole graph. The same scope rules one level down: a severed
//! cluster is split, not re-cut, and a re-certified cluster keeps its
//! routing hierarchy while the carry rule holds.

use expander_repro::expander::verify::{certify_threshold, Rung};
use expander_repro::prelude::*;
use expander_repro::routing::HierarchyParts;
use proptest::prelude::*;
use std::sync::Arc;
use triangle::{DeltaLedger, EdgeOp};

/// Builds an engine directly from the planted blocks so cluster ids map
/// 1:1 onto blocks and the φ threshold is known exactly.
fn planted_engine(
    pp: &gen::PlantedPartition,
    phi: f64,
    params: &PipelineParams,
) -> Arc<QueryEngine> {
    let assignment =
        ClusterAssignment::from_parts(&pp.graph, &pp.blocks, phi, &params.scheduler_policy());
    Arc::new(QueryEngine::from_assignment(&pp.graph, assignment, params))
}

/// Every intra-block edge of `block`, in base-graph orientation.
fn internal_edges(g: &Graph, block: &VertexSet) -> Vec<(VertexId, VertexId)> {
    g.edges()
        .filter(|&(u, v)| block.contains(u) && block.contains(v))
        .collect()
}

#[test]
fn shredding_one_block_reclusters_only_that_block() {
    let pp = gen::planted_partition(&[24, 24, 24], 0.7, 0.01, 17).unwrap();
    let params = PipelineParams {
        seed: 17,
        ..Default::default()
    };
    let engine = planted_engine(&pp, 0.05, &params);
    let old_clusters = engine.assignment().cluster_count();
    assert_eq!(old_clusters, 3, "one cluster per planted block");
    let mut ledger = DeltaLedger::new(&pp.graph, Arc::clone(&engine));

    // Shred block 0 from the inside: delete every internal edge. Its
    // conductance certificate cannot survive (the kept-induced subgraph
    // is empty), while blocks 1 and 2 see no applied op at all.
    let doomed: Vec<EdgeOp> = internal_edges(&pp.graph, &pp.blocks[0])
        .into_iter()
        .map(|(u, v)| EdgeOp::Delete(u, v))
        .collect();
    assert!(doomed.len() > 100, "the planted block must be dense");
    let report = ledger.apply(&doomed);
    assert_eq!(report.applied, doomed.len());
    assert_eq!(report.touched_clusters, 1, "only block 0 is dirtied");
    assert_eq!(ledger.dirty_clusters(), 1);

    let rebuild = ledger.rebuild(&params);

    // Scope: exactly one certificate checked, and it broke.
    assert_eq!(rebuild.checked, 1, "only the dirty cluster is certified");
    assert_eq!(rebuild.broken, 1, "the shredded block's certificate breaks");
    assert_eq!(rebuild.reused, 2, "both untouched blocks ride along");
    assert!(
        rebuild.rebuilt >= 1,
        "the broken block re-decomposes into at least one new cluster"
    );

    // The untouched blocks' artifacts are the SAME allocations as the old
    // engine's — pointer equality, not just equal contents.
    let new = &rebuild.engine;
    let mut shared_with_old = 0;
    for c in 0..new.assignment().cluster_count() {
        for old_c in 0..old_clusters {
            if new.shares_cluster_artifact(c, &engine, old_c) {
                shared_with_old += 1;
            }
        }
    }
    assert_eq!(
        shared_with_old, 2,
        "exactly the two untouched blocks are Arc-shared"
    );

    // Sanity: the refrozen engine answers like a fresh build on the
    // shredded graph (charges excluded by the refreeze contract).
    let final_g = ledger.working().to_graph();
    let fresh = QueryEngine::build(&final_g, &params);
    for v in 0..final_g.n() as VertexId {
        let q = Query::Vertex {
            v,
            emit: Emit::Count,
        };
        assert_eq!(
            new.answer(q).unwrap().answer,
            fresh.answer(q).unwrap().answer,
            "vertex {v}"
        );
    }
}

#[test]
fn healthy_blocks_survive_light_churn_without_recut() {
    // A light touch inside one block dirties it, but its certificate
    // holds: the part must be KEPT (same member set) even though its
    // artifact refreezes, and the other blocks stay pointer-shared.
    let pp = gen::planted_partition(&[24, 24, 24], 0.7, 0.01, 19).unwrap();
    let params = PipelineParams {
        seed: 19,
        ..Default::default()
    };
    let engine = planted_engine(&pp, 0.05, &params);
    let mut ledger = DeltaLedger::new(&pp.graph, Arc::clone(&engine));

    let members: Vec<VertexId> = pp.blocks[1].iter().collect();
    ledger.apply(&[
        EdgeOp::Insert(members[0], members[1]),
        EdgeOp::Insert(members[2], members[3]),
    ]);
    let rebuild = ledger.rebuild(&params);

    assert_eq!(rebuild.checked, 1);
    assert_eq!(rebuild.broken, 0, "two extra internal edges break nothing");
    assert_eq!(rebuild.reused, 2);
    assert_eq!(rebuild.rebuilt, 1, "the certified block refreezes in place");
    assert_eq!(
        rebuild.engine.assignment().cluster_count(),
        3,
        "the partition itself is unchanged"
    );
    // Same member sets as the planted blocks, in some order.
    let new_assignment = rebuild.engine.assignment();
    for block in &pp.blocks {
        let c = new_assignment.cluster_of[block.iter().next().unwrap() as usize];
        let found: VertexSet = VertexSet::from_iter(
            pp.graph.n(),
            (0..pp.graph.n() as VertexId).filter(|&v| new_assignment.cluster_of[v as usize] == c),
        );
        assert_eq!(&found, block, "kept block must keep its members");
    }
}

/// Cluster `c`'s persisted hierarchy state and kept-induced volume.
fn hierarchy_of(engine: &QueryEngine, c: usize) -> (HierarchyParts, usize) {
    let frozen = engine.to_frozen();
    let cluster = &frozen.clusters[c];
    let vol = cluster.local_deg.iter().map(|&d| d as usize).sum();
    (cluster.hierarchy.clone().expect("routed cluster"), vol)
}

/// `count` deletions of distinct intra-block edges of `block`.
fn delete_inside(g: &Graph, block: &VertexSet, count: usize) -> Vec<EdgeOp> {
    let ops: Vec<EdgeOp> = internal_edges(g, block)
        .into_iter()
        .step_by(3)
        .take(count)
        .map(|(u, v)| EdgeOp::Delete(u, v))
        .collect();
    assert_eq!(ops.len(), count, "block too sparse for {count} deletions");
    ops
}

#[test]
fn severed_pendant_pair_is_split_off_without_recutting_the_block() {
    let pp = gen::planted_partition(&[48, 24, 24], 0.7, 0.01, 23).unwrap();
    let params = PipelineParams {
        seed: 23,
        ..Default::default()
    };
    let engine = planted_engine(&pp, 0.05, &params);
    let mut ledger = DeltaLedger::new(&pp.graph, Arc::clone(&engine));

    // Cut two members of block 0 loose from the rest of it, joined to
    // each other by exactly one edge.
    let members: Vec<VertexId> = pp.blocks[0].iter().collect();
    let (a, b) = (members[0], members[1]);
    let mut ops: Vec<EdgeOp> = internal_edges(&pp.graph, &pp.blocks[0])
        .into_iter()
        .filter(|&(u, v)| [a, b].contains(&u) != [a, b].contains(&v))
        .map(|(u, v)| EdgeOp::Delete(u, v))
        .collect();
    if !pp.graph.has_edge(a, b) {
        ops.push(EdgeOp::Insert(a, b));
    }
    ledger.apply(&ops);
    let rebuild = ledger.rebuild(&params);

    assert_eq!(rebuild.checked, 1);
    assert_eq!(
        rebuild.broken, 1,
        "a severed cluster's certificate is broken"
    );
    assert_eq!(
        rebuild.split, 2,
        "the pair and the rest, both on the ladder"
    );
    assert_eq!(rebuild.reused, 2);
    assert_eq!(rebuild.carried, 0, "a membership change never carries");
    let next = rebuild.engine.assignment();
    assert_eq!(next.cluster_count(), 4, "3 blocks + the pendant pair");
    assert_eq!(next.cluster_of[a as usize], next.cluster_of[b as usize]);
    let big = next.cluster_of[members[2] as usize];
    assert_ne!(big, next.cluster_of[a as usize]);
    assert!(
        members[2..]
            .iter()
            .all(|&v| next.cluster_of[v as usize] == big),
        "the 46-vertex remainder stays one part"
    );
    for c in 0..4 {
        assert!(!rebuild.engine.shares_hierarchy(c, &engine, 0));
    }
}

#[test]
fn recertified_block_carries_its_hierarchy_inside_the_tolerance() {
    let pp = gen::planted_partition(&[48, 24, 24], 0.7, 0.01, 29).unwrap();
    let params = PipelineParams {
        seed: 29,
        ..Default::default()
    };
    let engine = planted_engine(&pp, 0.05, &params);
    let (built, vol) = hierarchy_of(&engine, 0);
    // The carry rule of DESIGN.md §15.3: absorbed · τ_mix ≤ vol.
    let budget = vol / (built.tau_mix + 2);
    assert!(
        budget >= 4,
        "τ_mix {} leaves no room in vol {vol}",
        built.tau_mix
    );

    // Half the budget: carried, by pointer, state untouched.
    let mut ledger = DeltaLedger::new(&pp.graph, Arc::clone(&engine));
    ledger.apply(&delete_inside(&pp.graph, &pp.blocks[0], budget / 2));
    let first = ledger.rebuild(&params);
    assert_eq!((first.checked, first.broken, first.reused), (1, 0, 2));
    assert_eq!((first.rebuilt, first.carried), (1, 1));
    assert!(first.engine.shares_hierarchy(0, &engine, 0));
    assert!(!first.engine.shares_cluster_artifact(0, &engine, 0));
    assert_eq!(hierarchy_of(&first.engine, 0).0, built);
    // Rows and degrees were re-frozen: exactly what a fresh freeze reads.
    let g_now = ledger.working().to_graph();
    let fresh = QueryEngine::from_assignment(
        &g_now,
        ClusterAssignment::from_parts(&g_now, &pp.blocks, 0.05, &params.scheduler_policy()),
        &params,
    );
    let (carried, scratch) = (first.engine.to_frozen(), fresh.to_frozen());
    assert_eq!(carried.rows, scratch.rows);
    assert_eq!(carried.clusters[0].local_deg, scratch.clusters[0].local_deg);
    assert_ne!(
        carried.clusters[0].local_deg,
        engine.to_frozen().clusters[0].local_deg
    );

    // The absorbed count accumulates across rebuilds: the same amount
    // again is still inside, a third helping is not — and the rebuilt
    // hierarchy starts from zero.
    let mut carried_cycles = 1;
    loop {
        let g_now = ledger.working().to_graph();
        ledger.apply(&delete_inside(&g_now, &pp.blocks[0], budget / 2));
        let prev = Arc::clone(ledger.engine());
        let next = ledger.rebuild(&params);
        assert_eq!(next.broken, 0, "a 0.7-dense block survives these deletions");
        if next.carried == 0 {
            assert!(!next.engine.shares_hierarchy(0, &prev, 0));
            break;
        }
        carried_cycles += 1;
        assert!(next.engine.shares_hierarchy(0, &engine, 0));
        assert!(
            carried_cycles <= 2,
            "the tolerance must trip by the third cycle"
        );
    }
    assert_eq!(carried_cycles, 2);

    // One batch over the budget never carries.
    let mut ledger = DeltaLedger::new(&pp.graph, Arc::clone(&engine));
    ledger.apply(&delete_inside(&pp.graph, &pp.blocks[0], budget + 1));
    let over = ledger.rebuild(&params);
    assert_eq!((over.broken, over.rebuilt, over.carried), (0, 1, 0));
    assert!(!over.engine.shares_hierarchy(0, &engine, 0));
}

/// A connected 17–18-vertex multigraph with loops, or the same cut into
/// two pieces: `(n, edges)` plus the part to certify (all of it).
fn arb_view() -> impl Strategy<Value = Graph> {
    (17usize..19, any::<u64>(), 0usize..3).prop_map(|(n, seed, sever)| {
        let mut edges: Vec<(VertexId, VertexId)> =
            gen::gnp(n, 0.12, seed).unwrap().edges().collect();
        let spine = (1..n as VertexId).map(|v| (v - 1, v));
        // sever = 0: a connected spine; 1: the spine misses one link (two
        // pieces unless noise bridges them); 2: vertex 0 keeps loops only.
        edges.extend(spine.filter(|&(u, _)| sever == 0 || u != (seed % 5) as VertexId));
        if sever == 2 {
            edges.retain(|&(u, v)| u != 0 && v != 0);
        }
        edges.extend(
            (0..n as VertexId)
                .filter(|v| (seed >> v) & 1 == 1)
                .map(|v| (v, v)),
        );
        edges.extend(edges.clone().into_iter().take((seed % 4) as usize)); // parallel copies
        Graph::from_edges(n, edges).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ladder_verdict_is_exact_below_the_trivial_bound(view in arb_view(), pick in 0usize..6) {
        let part = VertexSet::full(view.n());
        let exact = spectral::exact_conductance(&view).unwrap_or(f64::INFINITY);
        let trivial = 1.0 / (view.total_volume() / 2) as f64;
        // φ = 0, far under, just under and at the trivial bound — where
        // the verdict must be exact — then above it, where only the
        // spectral rung may speak for a connected view.
        let phi = [0.0, 1e-11, trivial * 0.999, trivial, trivial * 1.001, 0.3][pick];
        let (lower, rung) = certify_threshold(&view, &part, phi);
        prop_assert_eq!(matches!(rung, Rung::Severed(_)), exact == 0.0);
        if phi <= trivial {
            prop_assert!(matches!(rung, Rung::Severed(_) | Rung::Connected));
            prop_assert_eq!(lower >= phi, exact >= phi);
        }
        if rung != Rung::Spectral {
            prop_assert!(lower <= exact, "{:?} claims {} above {}", rung, lower, exact);
        }
    }
}
