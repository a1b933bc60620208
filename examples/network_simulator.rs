//! Raw CONGEST simulation: run real message-passing programs on a network
//! and watch the model's constraints at work.
//!
//! Computes BFS distances and a degree-sum aggregation on a torus-like
//! grid, cross-checks against centralized algorithms, and reports the
//! bandwidth bookkeeping the simulator enforces.
//!
//! Run with: `cargo run --example network_simulator`

use congest::algorithms::{aggregate_sum, broadcast_value, distributed_bfs};
use expander_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = gen::grid(12, 12)?;
    let net = Network::new(&g);
    println!(
        "network: n = {}, m = {}, bandwidth = {} bits/edge/round",
        g.n(),
        g.m(),
        net.bandwidth_bits()
    );

    // Distributed BFS vs centralized BFS.
    let (report, dist) = distributed_bfs(&g, 0, 10_000)?;
    let want = traversal::bfs_distances(&g, 0);
    assert_eq!(dist, want, "distributed BFS must agree with centralized");
    println!(
        "BFS from corner: {} (eccentricity = {})",
        report,
        traversal::eccentricity(&g, 0)?
    );

    // Broadcast.
    let (report, got) = broadcast_value(&g, 0, 0xBEEF, 10_000)?;
    assert!(got.iter().all(|&x| x == Some(0xBEEF)));
    println!("broadcast:       {report}");

    // Convergecast: total volume (sum of degrees) gathered at the root.
    let (report, total) = aggregate_sum(&g, 0, |v| g.degree(v) as u64, 10_000)?;
    assert_eq!(total as usize, g.total_volume());
    println!("aggregation:     {report} -> total volume {total}");

    // The same aggregation on a long path takes Θ(n) rounds — diameter is
    // the price of locality.
    let path = gen::path(144)?;
    let (slow, _) = aggregate_sum(&path, 0, |_| 1, 100_000)?;
    println!(
        "same aggregation on P144: {} rounds (vs {} on the grid — diameter rules)",
        slow.rounds, report.rounds
    );

    // The engine can step vertices in parallel; results are bit-identical
    // to sequential execution (rounds, messages, bits, and every program
    // state), so the mode is purely a wall-clock knob.
    let (big, _) = gen::ring_of_cliques(50, 20)?;
    let seq = Network::new(&big).run(|_| CountNeighbors::default(), 100)?;
    let par = Network::new(&big)
        .with_exec_mode(congest::ExecMode::Parallel)
        .run(|_| CountNeighbors::default(), 100)?;
    assert_eq!(seq, par, "execution modes must agree exactly");
    println!("parallel engine: {par} (identical to sequential run)");
    Ok(())
}

/// Toy program for the exec-mode demo: everyone announces, counts replies.
#[derive(Default)]
struct CountNeighbors {
    heard: u32,
    done: bool,
}

impl VertexProgram for CountNeighbors {
    type Msg = u32;
    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.broadcast(ctx.me());
    }
    fn round(&mut self, _ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
        self.heard += inbox.iter().count() as u32;
        self.done = true;
    }
    fn halted(&self) -> bool {
        self.done
    }
}
