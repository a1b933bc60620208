//! `RandomNibble` and `ParallelNibble` (Appendix A.3–A.4).
//!
//! `RandomNibble` runs `ApproximateNibble` from a start vertex sampled from
//! the degree distribution `ψ_V` and a volume scale `b` with
//! `Pr[b = i] ∝ 2^{−i}` — so larger target cuts get proportionally many
//! attempts at the right truncation scale.
//!
//! `ParallelNibble` runs `k` independent `RandomNibble` instances
//! *simultaneously*. Lemma 3 bounds each edge's participation probability,
//! so w.h.p. no edge serves more than `w = O(log n)` instances and the
//! simultaneous execution costs only a `w` factor over a single instance.
//! If the congestion cap is exceeded the algorithm aborts with `C = ∅`
//! (this is the low-probability event `B` of Lemma 7). Otherwise it
//! returns the union `U_{i*}` of the first `i*` cuts, where `i*` is the
//! largest prefix with volume at most `(23/24)·Vol(V)`.
//!
//! The simulator runs the instances simultaneously too: every
//! `(start, b)` is drawn up front in index order, the instances run as
//! [`run_jobs`] jobs, and their outcomes are folded in index order, so
//! the result is the same at every thread count (DESIGN.md §7).

use crate::nibble::approximate_nibble;
use crate::params::SparseCutParams;
use crate::rounds::RoundLedger;
use crate::scheduler::{run_jobs, SchedulerPolicy};
use graph::{Graph, VertexId, VertexSet};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Result of one `ParallelNibble` call.
#[derive(Debug, Clone)]
pub struct ParallelNibbleOutcome {
    /// The union cut `U_{i*}` (empty when nothing was found or the run
    /// aborted on congestion).
    pub cut: VertexSet,
    /// Whether the congestion cap `w` was exceeded (the event `B`).
    pub aborted_on_congestion: bool,
    /// Maximum number of instances any single edge participated in.
    pub max_edge_participation: usize,
    /// Measured round charges (Lemma 10 accounting).
    pub ledger: RoundLedger,
    /// How many of the `k` instances returned a non-empty cut.
    pub nonempty_instances: usize,
}

/// Samples a start vertex from the degree distribution `ψ_V`.
///
/// # Panics
///
/// Panics if the graph has zero volume.
pub fn sample_start(g: &Graph, rng: &mut StdRng) -> VertexId {
    let total = g.total_volume();
    assert!(total > 0, "cannot sample from a zero-volume graph");
    let mut target = rng.random_range(0..total);
    for v in 0..g.n() as VertexId {
        let d = g.degree(v);
        if target < d {
            return v;
        }
        target -= d;
    }
    unreachable!("degree distribution sums to the total volume")
}

/// Samples the volume scale `b ∈ 1..=ell` with `Pr[b = i] = 2^{−i}/(1 − 2^{−ℓ})`.
pub fn sample_scale(ell: u32, rng: &mut StdRng) -> u32 {
    let denom = 1.0 - 0.5f64.powi(ell as i32);
    let r: f64 = rng.random::<f64>() * denom;
    let mut acc = 0.0;
    for i in 1..=ell {
        acc += 0.5f64.powi(i as i32);
        if r < acc {
            return i;
        }
    }
    ell
}

/// `ParallelNibble(G, φ)` (A.4). `diameter_hint` is the diameter of the
/// communication graph the run is charged against (Phase 1 guarantees all
/// components have diameter `O(log²n/β²)`; standalone callers can pass a
/// double-sweep estimate).
pub fn parallel_nibble(
    g: &Graph,
    params: &SparseCutParams,
    diameter_hint: u32,
    rng: &mut StdRng,
) -> ParallelNibbleOutcome {
    let n = g.n();
    let mut ledger = RoundLedger::new();
    let log_n = (n.max(2) as f64).log2().ceil() as u64;
    let vol_total = g.total_volume();
    if vol_total == 0 {
        return ParallelNibbleOutcome {
            cut: VertexSet::empty(n),
            aborted_on_congestion: false,
            max_edge_participation: 0,
            ledger,
            nonempty_instances: 0,
        };
    }

    // Instance generation: O(D + log n) (Lemma 10, token descent on a BFS
    // tree with pipelining).
    ledger.charge("parallel_nibble.generation", diameter_hint as u64 + log_n);

    // Run all k instances; they execute simultaneously, so the round cost
    // of this block is the per-instance maximum times the congestion
    // factor (how many instances share an edge), charged below. No draw
    // depends on an outcome, so drawing every `(start, b)` first keeps the
    // rng stream of one instance after another; `approximate_nibble` is
    // pure, so the instances run as scheduler jobs.
    let k = params.k_parallel;
    let draws: Vec<(VertexId, u32)> = (0..k)
        .map(|_| (sample_start(g, rng), sample_scale(params.nibble.ell, rng)))
        .collect();
    let (outcomes, _stats) = run_jobs(draws, &SchedulerPolicy::parallel(), |_, (start, b)| {
        approximate_nibble(g, start, &params.nibble, b)
    });

    // Fold the outcomes in index order. Per-edge participation counts
    // are tracked as per-vertex instance bitmasks when k fits a word — an
    // edge participates in instance i iff either endpoint is in P_i, so
    // its count is the popcount of the endpoint-mask union. The HashMap
    // over all touched edges this replaces dominated the ParallelNibble
    // profile at scale.
    let use_masks = k <= u64::BITS as usize;
    let mut masks: Vec<u64> = if use_masks { vec![0; n] } else { Vec::new() };
    let mut touched: Vec<VertexId> = Vec::new();
    let mut participation: HashMap<(VertexId, VertexId), usize> = HashMap::new();
    let mut max_instance_rounds = 0u64;
    for (i, out) in outcomes.iter().enumerate() {
        max_instance_rounds = max_instance_rounds.max(out.ledger.total());
        // P* of Definition 2: edges with ≥ 1 endpoint in the support.
        if use_masks {
            for u in out.participants.iter() {
                if masks[u as usize] == 0 {
                    touched.push(u);
                }
                masks[u as usize] |= 1u64 << i;
            }
        } else {
            for u in out.participants.iter() {
                let row = g.neighbors(u);
                for (i, &w) in row.iter().enumerate() {
                    if i > 0 && row[i - 1] == w {
                        continue; // each parallel copy participates once
                    }
                    if w > u || !out.participants.contains(w) {
                        let key = if u < w { (u, w) } else { (w, u) };
                        *participation.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    let max_edge_participation = if use_masks {
        let mut best = 0u32;
        for &u in &touched {
            for &w in g.neighbors(u) {
                // Each participating edge evaluated once from inside the
                // touched set (or from its touched endpoint).
                if w > u || masks[w as usize] == 0 {
                    best = best.max((masks[u as usize] | masks[w as usize]).count_ones());
                }
            }
        }
        best as usize
    } else {
        participation.values().copied().max().unwrap_or(0)
    };
    let congestion = max_edge_participation.clamp(1, params.w_cap) as u64;
    ledger.charge(
        "parallel_nibble.execution",
        max_instance_rounds * congestion,
    );

    if max_edge_participation > params.w_cap {
        // Event B: notify everyone (one broadcast) and abort.
        ledger.charge("parallel_nibble.abort_broadcast", diameter_hint as u64);
        return ParallelNibbleOutcome {
            cut: VertexSet::empty(n),
            aborted_on_congestion: true,
            max_edge_participation,
            ledger,
            nonempty_instances: outcomes.iter().filter(|o| o.found()).count(),
        };
    }

    // Selection of i*: the instances carry random ids; a random binary
    // search finds the largest prefix with volume ≤ z = (23/24)·Vol(V).
    // (Our instance order is already a uniformly random labelling.)
    ledger.charge("parallel_nibble.selection", diameter_hint as u64 * log_n);
    let z = 23.0 / 24.0 * vol_total as f64;
    let mut union = VertexSet::empty(n);
    let mut nonempty = 0usize;
    let mut best: Option<VertexSet> = None;
    for out in &outcomes {
        if let Some(cut) = &out.cut {
            nonempty += 1;
            let candidate = union.union(cut);
            let vol: usize = candidate.iter().map(|v| g.degree(v)).sum();
            if (vol as f64) <= z {
                union = candidate;
                best = Some(union.clone());
            } else {
                break;
            }
        }
    }
    ParallelNibbleOutcome {
        cut: best.unwrap_or_else(|| VertexSet::empty(n)),
        aborted_on_congestion: false,
        max_edge_participation,
        ledger,
        nonempty_instances: nonempty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamMode;
    use graph::gen;
    use rand::SeedableRng as _;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn sc_params(g: &Graph, phi_target: f64) -> SparseCutParams {
        SparseCutParams::new(phi_target, g.m(), g.total_volume(), ParamMode::Practical)
    }

    #[test]
    fn degree_sampling_is_degree_biased() {
        let g = gen::star(41).unwrap(); // hub 0 has degree 40 of volume 80
        let mut r = rng(5);
        let hits = (0..2000).filter(|_| sample_start(&g, &mut r) == 0).count();
        // Hub holds half the volume.
        assert!(hits > 800 && hits < 1200, "hub sampled {hits}/2000");
    }

    #[test]
    fn scale_sampling_is_geometric() {
        let mut r = rng(9);
        let mut counts = [0usize; 6];
        for _ in 0..4000 {
            let b = sample_scale(5, &mut r);
            assert!((1..=5).contains(&b));
            counts[b as usize] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[3]);
        // Pr[b=1]/Pr[b=2] ≈ 2.
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 2.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn finds_union_cut_on_barbell() {
        let (g, left) = gen::barbell(12).unwrap();
        let params = sc_params(&g, 0.001);
        let out = parallel_nibble(&g, &params, 4, &mut rng(3));
        assert!(!out.aborted_on_congestion);
        assert!(
            !out.cut.is_empty(),
            "parallel nibble should find the barbell cut"
        );
        // Union volume respects the z threshold.
        let vol = g.volume(&out.cut);
        assert!((vol as f64) <= 23.0 / 24.0 * g.total_volume() as f64);
        // The union must overlap the planted cut substantially.
        let overlap = out
            .cut
            .intersection(&left)
            .len()
            .max(out.cut.intersection(&left.complement()).len());
        assert!(overlap >= 8, "cut should mostly sit in one clique");
    }

    #[test]
    fn empty_on_expander() {
        let g = gen::complete(20).unwrap();
        let params = sc_params(&g, 0.0005);
        let out = parallel_nibble(&g, &params, 1, &mut rng(7));
        assert!(out.cut.is_empty());
        assert!(!out.aborted_on_congestion);
        assert_eq!(out.nonempty_instances, 0);
    }

    #[test]
    fn zero_volume_graph_is_harmless() {
        let g = graph::Graph::from_edges(3, []).unwrap();
        // Params can't even be built for m = 0; craft via a dummy graph.
        let dummy = gen::path(4).unwrap();
        let params = sc_params(&dummy, 0.01);
        let out = parallel_nibble(&g, &params, 1, &mut rng(1));
        assert!(out.cut.is_empty());
    }

    #[test]
    fn participation_counts_are_tracked() {
        let (g, _) = gen::barbell(8).unwrap();
        let params = sc_params(&g, 0.001);
        let out = parallel_nibble(&g, &params, 2, &mut rng(11));
        // With k ≥ 4 instances on a tiny graph every edge participates in
        // several instances.
        assert!(out.max_edge_participation >= 2);
        assert!(out.ledger.category("parallel_nibble.execution") > 0);
    }

    #[test]
    fn congestion_abort_when_w_cap_tiny() {
        let (g, _) = gen::barbell(8).unwrap();
        let mut params = sc_params(&g, 0.001);
        params.w_cap = 1; // force the abort path
        params.k_parallel = 8;
        let out = parallel_nibble(&g, &params, 2, &mut rng(13));
        assert!(out.aborted_on_congestion);
        assert!(out.cut.is_empty());
        assert!(out.ledger.category("parallel_nibble.abort_broadcast") > 0);
    }
}
