//! The packed adjacency exchange's contract (DESIGN.md §10): packing
//! several delta-varint ids into each `O(log n)`-bit message must list
//! exactly the brute-force triangle set under forced 4-thread pools, and
//! stepping the packed program sequentially or in parallel must be
//! bit-identical down to engine traffic. Plus the round-complexity
//! regression guard: measured exchange rounds on a star-heavy fixture
//! must stay within `⌈Δ / pack_factor⌉ + O(1)`, so a regression to
//! one-id-per-round fails loudly.

use expander::SchedulerPolicy;
use expander_repro::prelude::*;
use proptest::prelude::*;
use triangle::count::enumerate_triangles_naive;

/// Force real multi-threading in the scheduler's worker tasks, even on
/// one-core hosts (the rayon shim reads this once, at first use).
fn force_threads() {
    static FORCE: std::sync::Once = std::sync::Once::new();
    FORCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

fn params(seed: u64) -> PipelineParams {
    PipelineParams {
        seed,
        recursion_workers: 4,
        ..Default::default()
    }
}

fn assert_packed_is_complete(g: &Graph, seed: u64) {
    let packed = enumerate_via_decomposition(g, &params(seed));
    assert_eq!(
        packed.triangles,
        enumerate_triangles_naive(g),
        "packed exchange lost or invented a triangle (n = {}, m = {})",
        g.n(),
        g.m()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn packed_is_complete_on_gnp(
        n in 8usize..36, p in 0.08f64..0.5, seed in any::<u64>()
    ) {
        force_threads();
        let g = gen::gnp(n, p, seed).unwrap();
        assert_packed_is_complete(&g, seed);
    }

    #[test]
    fn packed_is_complete_on_ring_of_cliques(
        count in 3usize..7, size in 3usize..7, seed in any::<u64>()
    ) {
        force_threads();
        let (g, _) = gen::ring_of_cliques(count, size).unwrap();
        assert_packed_is_complete(&g, seed);
    }

    #[test]
    fn packed_is_complete_on_planted_partition(
        half in 8usize..20, seed in any::<u64>()
    ) {
        force_threads();
        let pp = gen::planted_partition(&[half, half], 0.5, 0.08, seed).unwrap();
        assert_packed_is_complete(&pp.graph, seed);
        // The planted-assignment entry point (the scale tier's path)
        // must be complete too.
        let asg = expander::ClusterAssignment::from_parts(
            &pp.graph,
            &pp.blocks,
            0.1,
            &SchedulerPolicy::sequential(),
        );
        let packed = enumerate_with_assignment(&pp.graph, &asg, &params(seed));
        prop_assert_eq!(&packed.triangles, &enumerate_triangles_naive(&pp.graph));
    }

    #[test]
    fn packed_exchange_is_exec_mode_independent(
        n in 8usize..28, seed in any::<u64>()
    ) {
        force_threads();
        let g = gen::gnp(n, 0.3, seed).unwrap();
        let par = enumerate_via_decomposition(&g, &params(seed));
        let seq = enumerate_via_decomposition(
            &g,
            &PipelineParams {
                exec: ExecMode::Sequential,
                recursion_exec: ExecMode::Sequential,
                ..params(seed)
            },
        );
        // Sequential vs parallel stepping of the *packed* program is
        // bit-identical down to engine traffic, words included.
        prop_assert_eq!(par.total_rounds(), seq.total_rounds());
        prop_assert_eq!(&par.triangles, &seq.triangles);
        for (a, b) in par.levels.iter().zip(&seq.levels) {
            prop_assert_eq!(a.engine, b.engine);
        }
    }
}

#[test]
fn packed_is_complete_on_degenerate_graphs() {
    force_threads();
    for g in [
        Graph::from_edges(1, []).unwrap(),
        Graph::from_edges(5, []).unwrap(),
        Graph::from_edges(3, [(0, 0), (1, 1)]).unwrap(), // loops only
        Graph::from_edges(2, [(0, 1), (0, 1)]).unwrap(), // parallel edges
        gen::path(9).unwrap(),
        gen::star(8).unwrap(),
        Graph::from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]).unwrap(),
        gen::complete(9).unwrap(),
    ] {
        assert_packed_is_complete(&g, 7);
    }
}

/// A wheel: hub 0 adjacent to every rim vertex, rim a cycle. The hub's
/// degree Δ = n − 1 dominates the exchange, making round complexity
/// directly readable.
fn wheel(n: usize) -> Graph {
    let rim = n - 1;
    let mut edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (0, v)).collect();
    for i in 1..rim as VertexId {
        edges.push((i, i + 1));
    }
    edges.push((rim as VertexId, 1));
    Graph::from_edges(n, edges).unwrap()
}

/// The round-complexity regression guard. The engine-measured exchange
/// rounds on a star-heavy fixture must be ≤ `⌈Δ / pack_factor⌉ + c`
/// where `pack_factor` is the codec's *guaranteed* ids-per-message lower
/// bound — any regression toward the one-id-per-round wire format blows
/// straight through this bound (Δ = 95 here, the bound ≈ 34).
#[test]
fn exchange_rounds_beat_the_packing_bound_on_a_star_heavy_fixture() {
    let n = 96;
    let g = wheel(n);
    let delta = (0..n as VertexId).map(|v| g.degree(v)).max().unwrap();
    assert_eq!(delta, n - 1, "hub dominates");

    // One cluster = the whole wheel: the exchange runs on exactly this
    // graph, so the Network's default budget is computable here.
    let whole = [VertexSet::from_fn(n, |_| true)];
    let asg =
        expander::ClusterAssignment::from_parts(&g, &whole, 0.5, &SchedulerPolicy::sequential());
    let budget_bytes = congest::packed::round_budget_bytes(Network::new(&g).bandwidth_bits());
    let pack_factor = congest::packed::min_ids_per_message(budget_bytes);
    assert!(pack_factor >= 2, "budget must fit several ids");

    let packed = enumerate_with_assignment(&g, &asg, &params(3));
    assert_eq!(
        packed.triangles.len(),
        n - 1,
        "wheel has rim-many triangles"
    );

    let packed_rounds = packed.levels[0].engine.rounds;
    let bound = delta.div_ceil(pack_factor) + 2;
    assert!(
        packed_rounds <= bound,
        "packed exchange took {packed_rounds} rounds; bound ⌈Δ/pack⌉ + 2 = {bound} \
         (Δ = {delta}, pack_factor = {pack_factor}) — did the exchange regress toward \
         one id per round?"
    );
}
