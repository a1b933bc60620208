//! ParallelNibble's instance fan-out (DESIGN.md §7) against the
//! sequential loop it replaced: `parallel_nibble` pre-draws every
//! instance's `(start, b)` and runs the instances as scheduler jobs, and
//! must return exactly what drawing and running one instance after
//! another returns — every outcome field, and the caller's rng left in
//! the same state. The oracle below is that loop, rebuilt from the public
//! `sample_start`, `sample_scale` and `approximate_nibble`.
//!
//! The pool is forced to 4 threads unless `RAYON_NUM_THREADS` is already
//! set, so running this file with `RAYON_NUM_THREADS=1` checks the inline
//! path against the same oracle.

use expander::nibble::approximate_nibble;
use expander::parallel_nibble::{
    parallel_nibble, sample_scale, sample_start, ParallelNibbleOutcome,
};
use expander::rounds::RoundLedger;
use expander_repro::prelude::*;
use graph::view::Subgraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Forces a multi-thread pool (the rayon shim reads the variable once, at
/// first use) unless the caller chose a thread count. `set_var` runs once
/// under a `Once` guard so concurrently running tests never race a reader.
fn force_threads() {
    static FORCE: std::sync::Once = std::sync::Once::new();
    FORCE.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

const SEEDS: [u64; 4] = [1, 2, 7, 42];

/// The sequential ParallelNibble: draw, run and fold one instance at a
/// time, with the same round charges, congestion count and selection.
fn sequential_oracle(
    g: &Graph,
    params: &SparseCutParams,
    diameter_hint: u32,
    rng: &mut StdRng,
) -> ParallelNibbleOutcome {
    let n = g.n();
    let mut ledger = RoundLedger::new();
    let log_n = (n.max(2) as f64).log2().ceil() as u64;
    let vol_total = g.total_volume();
    ledger.charge("parallel_nibble.generation", diameter_hint as u64 + log_n);
    let k = params.k_parallel;
    let use_masks = k <= 64;
    let mut masks = vec![0u64; n];
    let mut participation: HashMap<(VertexId, VertexId), usize> = HashMap::new();
    let mut outcomes = Vec::new();
    let mut max_instance_rounds = 0u64;
    for i in 0..k {
        let start = sample_start(g, rng);
        let b = sample_scale(params.nibble.ell, rng);
        let out = approximate_nibble(g, start, &params.nibble, b);
        max_instance_rounds = max_instance_rounds.max(out.ledger.total());
        for u in out.participants.iter() {
            if use_masks {
                masks[u as usize] |= 1u64 << i;
                continue;
            }
            let mut row = g.neighbors(u).to_vec();
            row.dedup();
            for w in row {
                if w > u || !out.participants.contains(w) {
                    *participation.entry((u.min(w), u.max(w))).or_insert(0) += 1;
                }
            }
        }
        outcomes.push(out);
    }
    let max_edge_participation = if use_masks {
        g.edges()
            .map(|(u, w)| (masks[u as usize] | masks[w as usize]).count_ones() as usize)
            .max()
            .unwrap_or(0)
    } else {
        participation.values().copied().max().unwrap_or(0)
    };
    let congestion = max_edge_participation.clamp(1, params.w_cap) as u64;
    ledger.charge(
        "parallel_nibble.execution",
        max_instance_rounds * congestion,
    );
    if max_edge_participation > params.w_cap {
        ledger.charge("parallel_nibble.abort_broadcast", diameter_hint as u64);
        return ParallelNibbleOutcome {
            cut: VertexSet::empty(n),
            aborted_on_congestion: true,
            max_edge_participation,
            ledger,
            nonempty_instances: outcomes.iter().filter(|o| o.found()).count(),
        };
    }
    ledger.charge("parallel_nibble.selection", diameter_hint as u64 * log_n);
    let z = 23.0 / 24.0 * vol_total as f64;
    let mut union = VertexSet::empty(n);
    let mut nonempty = 0;
    let mut best = None;
    for cut in outcomes.iter().filter_map(|o| o.cut.as_ref()) {
        nonempty += 1;
        let candidate = union.union(cut);
        if g.volume(&candidate) as f64 > z {
            break;
        }
        union = candidate;
        best = Some(union.clone());
    }
    ParallelNibbleOutcome {
        cut: best.unwrap_or_else(|| VertexSet::empty(n)),
        aborted_on_congestion: false,
        max_edge_participation,
        ledger,
        nonempty_instances: nonempty,
    }
}

/// Runs both sides from the same seed, asserts every field and the final
/// rng state equal, and returns the (shared) outcome.
fn assert_matches_oracle(
    g: &Graph,
    params: &SparseCutParams,
    seed: u64,
    what: &str,
) -> ParallelNibbleOutcome {
    force_threads();
    let mut rng_fan = StdRng::seed_from_u64(seed);
    let mut rng_seq = StdRng::seed_from_u64(seed);
    let fan = parallel_nibble(g, params, 5, &mut rng_fan);
    let seq = sequential_oracle(g, params, 5, &mut rng_seq);
    let ctx = format!("{what}, seed {seed}, k = {}", params.k_parallel);
    assert_eq!(fan.cut, seq.cut, "{ctx}: cut");
    assert_eq!(
        fan.aborted_on_congestion, seq.aborted_on_congestion,
        "{ctx}: abort"
    );
    assert_eq!(
        fan.max_edge_participation, seq.max_edge_participation,
        "{ctx}: participation"
    );
    assert_eq!(fan.ledger, seq.ledger, "{ctx}: ledger");
    assert_eq!(
        fan.nonempty_instances, seq.nonempty_instances,
        "{ctx}: nonempty"
    );
    let tail = |r: &mut StdRng| (0..4).map(|_| r.random::<u64>()).collect::<Vec<_>>();
    assert_eq!(tail(&mut rng_fan), tail(&mut rng_seq), "{ctx}: rng state");
    fan
}

fn practical(g: &Graph, phi: f64) -> SparseCutParams {
    SparseCutParams::new(phi, g.m(), g.total_volume(), ParamMode::Practical)
}

/// The graphs of the wall: a planted bottleneck, a random graph, three
/// chained blocks of a ring of expanders (loop-augmented, as Partition
/// hands them to ParallelNibble) and a power law.
fn graphs(seed: u64) -> Vec<(&'static str, Graph)> {
    let (ring, blocks) = gen::ring_of_expanders(6, 24, 4, seed).unwrap();
    let piece = blocks[0].union(&blocks[1]).union(&blocks[2]);
    vec![
        ("barbell", gen::barbell(10).unwrap().0),
        ("gnp", gen::gnp(60, 0.08, seed).unwrap()),
        (
            "ring piece",
            Subgraph::loop_augmented(&ring, &piece).graph().clone(),
        ),
        (
            "power law",
            gen::power_law_fast(300, 2.5, 4.0, seed).unwrap(),
        ),
    ]
}

#[test]
fn mask_path_matches_sequential_loop() {
    let mut cuts = 0;
    for seed in SEEDS {
        for (what, g) in graphs(seed) {
            let params = practical(&g, 0.002);
            assert!(params.k_parallel <= 64);
            let out = assert_matches_oracle(&g, &params, seed, what);
            cuts += usize::from(!out.cut.is_empty());
        }
    }
    assert!(
        cuts > 0,
        "no run found a cut: the selection fold went unchecked"
    );
}

#[test]
fn hashmap_path_matches_sequential_loop() {
    for seed in SEEDS {
        for (what, g) in graphs(seed) {
            let mut params = practical(&g, 0.002);
            params.k_parallel = 80;
            params.w_cap = 80;
            assert_matches_oracle(&g, &params, seed, what);
        }
    }
}

#[test]
fn congestion_abort_matches_sequential_loop() {
    let mut aborts = 0;
    for seed in SEEDS {
        for (what, g) in graphs(seed) {
            for k in [8, 72] {
                let mut params = practical(&g, 0.002);
                params.k_parallel = k;
                params.w_cap = 2;
                let out = assert_matches_oracle(&g, &params, seed, what);
                aborts += usize::from(out.aborted_on_congestion);
            }
        }
    }
    assert!(aborts > 0, "no run aborted: the abort path went unchecked");
}
