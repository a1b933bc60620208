//! Validates the lock-step round accounting against the *exact* CONGEST
//! simulator (DESIGN.md §3): for every primitive that can be run both
//! ways, the two implementations must agree on results, and the lock-step
//! round charges must match the measured synchronous rounds.

use congest::algorithms::distributed_bfs;
use congest::{Ctx, ExecMode, Inbox, Network, VertexProgram};
use expander_repro::prelude::*;

/// MPX `Clustering(β)` as a genuine message-passing CONGEST program:
/// vertex `v` wakes at its start epoch or joins a neighbor that announced
/// a cluster in an earlier round. One epoch = one round.
struct MpxProgram {
    start: usize,
    horizon: usize,
    cluster: Option<VertexId>,
    /// Smallest cluster id heard so far (chooses deterministically like
    /// the lock-step implementation).
    heard: Option<VertexId>,
}

impl VertexProgram for MpxProgram {
    type Msg = u32;

    fn init(&mut self, _ctx: &mut Ctx<'_, u32>) {}

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
        let t = ctx.round();
        if t > self.horizon {
            return;
        }
        // Record announcements from neighbors clustered in earlier epochs.
        for (_, &c) in inbox {
            if self.heard.map_or(true, |h| c < h) {
                self.heard = Some(c);
            }
        }
        if self.cluster.is_some() {
            return;
        }
        if self.start == t {
            self.cluster = Some(ctx.me());
            ctx.broadcast(ctx.me());
        } else if self.start > t {
            if let Some(c) = self.heard {
                self.cluster = Some(c);
                ctx.broadcast(c);
            }
        }
    }

    fn halted(&self) -> bool {
        // Keep ticking until the horizon passes (epochs are time-driven).
        self.cluster.is_some()
    }
}

#[test]
fn mpx_message_passing_matches_lockstep() {
    let g = gen::gnp(60, 0.08, 3).unwrap();
    let n = g.n();
    let beta = 0.3;
    let horizon = (2.0 * (n as f64).ln() / beta).ceil() as usize;
    // Fixed start epochs shared by both implementations.
    let starts: Vec<usize> = (0..n)
        .map(|v| 1 + (v * 7 + 3) % horizon) // deterministic spread
        .collect();

    let lockstep = clustering_with_starts(&g, &starts, horizon);

    let make = |v: VertexId| MpxProgram {
        start: starts[v as usize],
        horizon,
        cluster: None,
        heard: None,
    };
    let (report, progs) = Network::new(&g).run_collect(make, horizon + 5).unwrap();

    for v in 0..n {
        let got = progs[v].cluster.unwrap_or(v as VertexId);
        assert_eq!(
            got, lockstep.cluster_of[v],
            "vertex {v} clustered differently (start {})",
            starts[v]
        );
    }

    // The parallel engine must reproduce the exact same execution.
    let (report_par, progs_par) = Network::new(&g)
        .with_exec_mode(ExecMode::Parallel)
        .run_collect(make, horizon + 5)
        .unwrap();
    assert_eq!(report, report_par, "exec modes must agree on the report");
    for v in 0..n {
        assert_eq!(progs[v].cluster, progs_par[v].cluster, "vertex {v}");
    }
}

#[test]
fn mpx_epoch_count_is_the_round_count() {
    // The lock-step `epochs` field is what the ledger charges for
    // `ldd.clustering`; it must never exceed the horizon and must bound
    // the message-passing rounds from above (the exact simulation can
    // quiesce early once all vertices are clustered).
    let g = gen::path(80).unwrap();
    let beta = 0.3;
    let c = clustering(&g, beta, 5);
    let horizon = (2.0 * (80f64).ln() / beta).ceil() as usize;
    assert!(c.epochs <= horizon);
    assert!(c.epochs >= 1);
}

#[test]
fn bfs_rounds_match_eccentricity_across_graphs() {
    for g in [
        gen::grid(7, 9).unwrap(),
        gen::cycle(30).unwrap(),
        gen::gnp(70, 0.07, 2).unwrap(),
    ] {
        if !traversal::is_connected(&g) {
            continue;
        }
        let (report, dist) = distributed_bfs(&g, 0, 100_000).unwrap();
        assert_eq!(dist, traversal::bfs_distances(&g, 0));
        let ecc = traversal::eccentricity(&g, 0).unwrap();
        // The wave reaches the last vertex at round ecc. If that vertex
        // still has neighbors that did not send to it, it forwards the
        // wave once more and quiescence costs one extra round — same
        // window the broadcast test allows for crossing wavefronts.
        assert!(
            report.rounds as u32 >= ecc && report.rounds as u32 <= ecc + 1,
            "BFS rounds {} outside [{ecc}, {}]",
            report.rounds,
            ecc + 1
        );
    }
}

#[test]
fn nibble_walk_charge_equals_t0() {
    // Lemma 9's first charge: the walk phase costs exactly t₀ rounds.
    let (g, _) = gen::barbell(8).unwrap();
    let params = NibbleParams::new(0.05, g.m(), ParamMode::Practical);
    let out = approximate_nibble(&g, 0, &params, 3);
    assert_eq!(out.ledger.category("nibble.walk"), params.t0 as u64);
}

#[test]
fn parallel_composition_takes_max_not_sum() {
    // Disjoint components decompose in parallel: total rounds must be far
    // below the sum of per-component runs.
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for c in 0..4u32 {
        let base = c * 12;
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                edges.push((base + u, base + v));
            }
        }
    }
    let g = Graph::from_edges(48, edges).unwrap();
    let whole = ExpanderDecomposition::builder()
        .seed(3)
        .build()
        .run(&g)
        .unwrap();

    let single = gen::complete(12).unwrap();
    let one = ExpanderDecomposition::builder()
        .seed(3)
        .build()
        .run(&single)
        .unwrap();
    // Four identical cliques in parallel should cost at most ~2 single
    // runs (identical, plus harness slack), never 4.
    assert!(
        whole.ledger.total() <= one.ledger.total() * 3,
        "parallel {} vs single {}",
        whole.ledger.total(),
        one.ledger.total()
    );
}
