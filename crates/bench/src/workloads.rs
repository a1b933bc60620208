//! The workload families used by the experiments, with their ground-truth
//! structure where applicable — including the large-graph tier
//! ([`scale_tier`]) built on the `O(n + m)` chunk-parallel generators.

use graph::gen::PlantedPartition;
use graph::{gen, Graph, VertexId, VertexSet};
use triangle::EdgeOp;

/// A graph plus the most balanced planted sparse cut we know it contains.
#[derive(Debug, Clone)]
pub struct PlantedCutWorkload {
    /// Short family label for tables.
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// The planted cut (one side).
    pub planted: VertexSet,
}

/// Dumbbell workloads with planted balance sweeping from 1/2 downward.
pub fn dumbbell_sweep() -> Vec<PlantedCutWorkload> {
    [(16usize, 16usize), (22, 12), (28, 8), (32, 5)]
        .into_iter()
        .map(|(a, b)| {
            let (graph, left) = gen::dumbbell(a, b, 1).expect("valid dumbbell");
            PlantedCutWorkload {
                name: format!("K{a}+K{b}"),
                graph,
                planted: left,
            }
        })
        .collect()
}

/// SBM two-block workloads of increasing size (balanced planted cut).
pub fn sbm_sweep(sizes: &[usize]) -> Vec<PlantedCutWorkload> {
    sizes
        .iter()
        .map(|&half| {
            let pp =
                gen::planted_partition(&[half, half], 0.4, 4.0 / half as f64 * 0.05, half as u64)
                    .expect("valid SBM");
            PlantedCutWorkload {
                name: format!("sbm{}", 2 * half),
                planted: pp.blocks[0].clone(),
                graph: pp.graph,
            }
        })
        .collect()
}

/// The decomposition scaling family: rings of cliques with `n` vertices.
pub fn ring_family(n: usize) -> (Graph, usize) {
    let clique = 8usize;
    let count = (n / clique).max(3);
    let (g, _) = gen::ring_of_cliques(count, clique).expect("valid ring");
    (g, count)
}

/// The triangle scaling family: `G(n, p)` as in the Ω̃(n^{1/3}) lower
/// bound construction (which uses p = 1/2).
pub fn gnp_family(n: usize, p: f64, seed: u64) -> Graph {
    gen::gnp(n, p, seed).expect("valid gnp")
}

/// Expander family for routing experiments.
pub fn expander_family(n: usize, seed: u64) -> Graph {
    gen::random_regular(n, 8, seed).expect("valid regular graph")
}

/// Conductance-sweep family for the mixing-time experiment: (name, graph,
/// analytic conductance when known).
pub fn mixing_family() -> Vec<(String, Graph, Option<f64>)> {
    let mut out: Vec<(String, Graph, Option<f64>)> = Vec::new();
    let (bar, left) = gen::barbell(12).expect("barbell");
    let phi_bar = bar.conductance(&left).expect("cut exists");
    out.push(("barbell12".into(), bar, Some(phi_bar)));
    let cyc = gen::cycle(64).expect("cycle");
    out.push(("cycle64".into(), cyc, Some(2.0 / 64.0)));
    let grid = gen::grid(8, 8).expect("grid");
    out.push(("grid8x8".into(), grid, None));
    let reg = gen::random_regular(64, 8, 5).expect("regular");
    out.push(("regular8".into(), reg, None));
    let k = gen::complete(32).expect("complete");
    out.push(("K32".into(), k, Some(0.5 * 32.0 / 62.0)));
    out
}

/// One workload of the large-graph tier.
#[derive(Debug, Clone)]
pub struct ScaleWorkload {
    /// Short family label for tables and `--json` names.
    pub name: String,
    /// The graph, sized to roughly the requested edge target.
    pub graph: Graph,
    /// Ground-truth clusters, when the family plants them — the scale
    /// pipeline runs on these via `ClusterAssignment::from_parts`
    /// instead of paying for the measured decomposition.
    pub planted: Option<Vec<VertexSet>>,
    /// Nominal conductance promise of the planted clusters.
    pub planted_phi: f64,
}

/// Power-law member of the scale tier: Chung–Lu with average degree 10,
/// `n` chosen so `m ≈ target_edges`.
pub fn scale_power_law(target_edges: usize, seed: u64) -> Graph {
    let avg = 10.0;
    let n = ((2.0 * target_edges as f64 / avg) as usize).max(16);
    gen::power_law_fast(n, 2.5, avg, seed).expect("valid power-law parameters")
}

/// Planted-partition member of the scale tier: equal blocks of ≈2k
/// vertices (at least 4) with a 4:1 intra:inter edge split,
/// `m ≈ target_edges`. Block size is capped so per-cluster work stays
/// bounded while the cluster count grows with the instance — the shape
/// the recursion scheduler is built for.
pub fn scale_planted_partition(target_edges: usize, seed: u64) -> PlantedPartition {
    let avg = 12.0;
    let n = ((2.0 * target_edges as f64 / avg) as usize).max(16);
    let blocks = (n / 2048).max(4);
    let size = n / blocks;
    let intra_pairs = blocks as f64 * (size * (size - 1) / 2) as f64;
    let total_pairs = (n * (n - 1) / 2) as f64;
    let p_in = (0.8 * target_edges as f64 / intra_pairs.max(1.0)).min(1.0);
    let p_out = (0.2 * target_edges as f64 / (total_pairs - intra_pairs).max(1.0)).min(1.0);
    gen::planted_partition_fast(&vec![size; blocks], p_in, p_out, seed)
        .expect("valid partition parameters")
}

/// Ring-of-expanders member of the scale tier: blocks of 256 vertices
/// at degree 16, `count` chosen so `m ≈ target_edges`. (Block size
/// trades cluster-job granularity against the `O(count·n)` memory of
/// the planted `VertexSet` masks.)
pub fn scale_ring_of_expanders(target_edges: usize, seed: u64) -> (Graph, Vec<VertexSet>) {
    let (size, degree) = (256usize, 16usize);
    let per_block = size * degree / 2 + 1;
    let count = (target_edges / per_block).max(2);
    gen::ring_of_expanders(count, size, degree, seed).expect("valid ring parameters")
}

/// The large-graph workload tier: one instance per scale family, each
/// sized to roughly `target_edges` (pass ≥ 1_000_000 for the headline
/// tier; CI's `scale-smoke` caps it at ~100k).
pub fn scale_tier(target_edges: usize, seed: u64) -> Vec<ScaleWorkload> {
    let pp = scale_planted_partition(target_edges, seed);
    let (ring, blocks) = scale_ring_of_expanders(target_edges, seed);
    vec![
        ScaleWorkload {
            name: "power_law".into(),
            graph: scale_power_law(target_edges, seed),
            planted: None,
            planted_phi: 0.0,
        },
        ScaleWorkload {
            name: "planted4".into(),
            graph: pp.graph,
            planted: Some(pp.blocks),
            planted_phi: 0.1,
        },
        ScaleWorkload {
            name: "ring_expanders".into(),
            graph: ring,
            planted: Some(blocks),
            planted_phi: 0.25,
        },
    ]
}

/// One SplitMix64 step: the stream behind both churn generators below.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic churn batch for the dynamic-graph tier: ~half
/// deletions of real edges (sampled from the base graph), ~half
/// insertions of fresh pairs, with a sprinkle of the regression-prone
/// shapes (delete-then-reinsert, parallel copies, self loops). The
/// stream is a pure function of `(g, seed, len)`.
pub fn churn_ops(g: &Graph, seed: u64, len: usize) -> Vec<EdgeOp> {
    let n = g.n().max(1) as u64;
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut state = seed | 1;
    let mut next = move || splitmix64(&mut state);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let u = (next() % n) as VertexId;
        let v = (next() % n) as VertexId;
        match next() % 8 {
            0..=2 => ops.push(EdgeOp::Insert(u, v)),
            3..=5 if !edges.is_empty() => {
                let (a, b) = edges[(next() % edges.len() as u64) as usize];
                ops.push(EdgeOp::Delete(a, b));
            }
            6 if !edges.is_empty() => {
                let (a, b) = edges[(next() % edges.len() as u64) as usize];
                ops.push(EdgeOp::Delete(a, b));
                ops.push(EdgeOp::Insert(a, b));
            }
            7 => ops.push(EdgeOp::Insert(u, u)),
            _ => ops.push(EdgeOp::Insert(u, v)),
        }
    }
    ops.truncate(len);
    ops
}

/// `lifecycle_bench`'s sparse-uniform churn, stream and all (its SplitMix64
/// `fork(seed, 5)`, multiply-shift `below`): `ops / 2` deletes of distinct
/// uniform live edges and the rest inserts of distinct uniform absent
/// pairs, shuffled, so every op applies in any order — seed 1 on
/// `scale_power_law(1_000_000, 1)` is the benchmark's pinned first rebuild
/// cycle. Returns the batch and the batch that undoes it.
pub fn uniform_churn(g: &Graph, seed: u64, ops: usize) -> (Vec<EdgeOp>, Vec<EdgeOp>) {
    let mut state = splitmix64(&mut (seed ^ 5u64.wrapping_mul(0xA076_1D64_78BD_642F)));
    let mut below = move |n: usize| ((splitmix64(&mut state) as u128 * n as u128) >> 64) as usize;
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let deletes = (ops / 2).min(edges.len());
    let mut batch = Vec::with_capacity(ops);
    let mut picked = std::collections::HashSet::new();
    while picked.len() < deletes {
        let i = below(edges.len());
        if picked.insert(i) {
            batch.push(EdgeOp::Delete(edges[i].0, edges[i].1));
        }
    }
    let mut fresh = std::collections::HashSet::new();
    while fresh.len() < ops - deletes {
        let (a, b) = (below(g.n()) as VertexId, below(g.n()) as VertexId);
        if a != b && !g.has_edge(a, b) && fresh.insert((a.min(b), a.max(b))) {
            batch.push(EdgeOp::Insert(a.min(b), a.max(b)));
        }
    }
    for i in (1..batch.len()).rev() {
        batch.swap(i, below(i + 1));
    }
    let undo = |op: &EdgeOp| match *op {
        EdgeOp::Insert(u, v) => EdgeOp::Delete(u, v),
        EdgeOp::Delete(u, v) => EdgeOp::Insert(u, v),
    };
    let inverse = batch.iter().rev().map(undo).collect();
    (batch, inverse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbbell_sweep_has_decreasing_balance() {
        let ws = dumbbell_sweep();
        assert_eq!(ws.len(), 4);
        let balances: Vec<f64> = ws
            .iter()
            .map(|w| w.graph.balance(&w.planted).unwrap())
            .collect();
        for pair in balances.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "balances {balances:?}");
        }
    }

    #[test]
    fn sbm_sweep_blocks_are_sparse() {
        for w in sbm_sweep(&[24, 48]) {
            let phi = w.graph.conductance(&w.planted).unwrap();
            assert!(phi < 0.2, "{}: Φ = {phi}", w.name);
        }
    }

    #[test]
    fn ring_family_scales() {
        let (g, count) = ring_family(128);
        assert_eq!(g.n(), count * 8);
    }

    #[test]
    fn scale_tier_hits_the_edge_target() {
        for w in scale_tier(20_000, 7) {
            let m = w.graph.m() as f64;
            assert!(
                (m - 20_000.0).abs() < 0.3 * 20_000.0,
                "{}: m = {m} far from 20k",
                w.name
            );
        }
    }

    #[test]
    fn scale_planted_partition_keeps_blocks() {
        let pp = scale_planted_partition(10_000, 3);
        assert_eq!(pp.blocks.len(), 4);
        let phi = pp.graph.conductance(&pp.blocks[0]).unwrap();
        assert!(phi < 0.25, "planted cut conductance {phi}");
    }

    #[test]
    fn churn_ops_is_deterministic_and_sized() {
        let g = gen::gnp(50, 0.2, 1).unwrap();
        let a = churn_ops(&g, 9, 200);
        let b = churn_ops(&g, 9, 200);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a.iter().any(|op| matches!(op, EdgeOp::Delete(_, _))));
        assert!(a.iter().any(|op| matches!(op, EdgeOp::Insert(_, _))));
    }

    #[test]
    fn mixing_family_is_diverse() {
        let fam = mixing_family();
        assert!(fam.len() >= 5);
        for (name, g, _) in fam {
            assert!(g.n() > 0, "{name} empty");
        }
    }
}
