//! Reference distributed primitives: BFS, broadcast and convergecast.
//!
//! These serve three purposes: they validate the engine against the
//! centralized implementations in [`graph::traversal`], they are the
//! textbook `O(D)` building blocks the paper's implementation lemmas charge
//! for ("build a BFS tree", "broadcast", "bottom-up traversal"), and their
//! measured round counts calibrate the round ledger of the `expander`
//! crate.

use crate::network::{Ctx, Network, VertexProgram};
use crate::{Inbox, Result, RunReport};
use graph::{Graph, VertexId};

/// Message tags for the tree algorithms.
const TAG_WAVE: u8 = 0;
const TAG_JOIN: u8 = 1;
const TAG_SUM: u8 = 2;
const TAG_JOINSUM: u8 = 3;
const TAG_DECLINE: u8 = 4;

/// Distributed single-source BFS.
///
/// Returns the run report and the computed distance of every vertex
/// (`u32::MAX` for unreachable vertices). Rounds ≈ eccentricity of `root`.
///
/// # Errors
///
/// Propagates engine errors (round limit, model violations).
///
/// # Example
///
/// ```
/// use congest::algorithms::distributed_bfs;
/// let g = graph::gen::path(6).unwrap();
/// let (report, dist) = distributed_bfs(&g, 0, 100).unwrap();
/// assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
/// assert_eq!(report.rounds, 5);
/// ```
pub fn distributed_bfs(
    g: &Graph,
    root: VertexId,
    max_rounds: usize,
) -> Result<(RunReport, Vec<u32>)> {
    struct Bfs {
        root: VertexId,
        dist: Option<u32>,
    }
    impl VertexProgram for Bfs {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == self.root {
                self.dist = Some(0);
                ctx.broadcast(1);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            if self.dist.is_some() {
                return;
            }
            if let Some(&d) = inbox.iter().map(|(_, d)| d).min() {
                self.dist = Some(d);
                let senders: Vec<VertexId> = inbox.iter().map(|(f, _)| f).collect();
                ctx.broadcast_except(&senders, d + 1);
            }
        }
        fn halted(&self) -> bool {
            true // quiescence-driven
        }
    }

    let (report, progs) = Network::new(g).run_collect(|_| Bfs { root, dist: None }, max_rounds)?;
    let dist = progs
        .into_iter()
        .map(|p| p.dist.unwrap_or(u32::MAX))
        .collect();
    Ok((report, dist))
}

/// Broadcast of a value from `root` to every reachable vertex (flooding).
///
/// Returns the run report and each vertex's received value (`None` where
/// unreachable).
///
/// # Errors
///
/// Propagates engine errors.
pub fn broadcast_value(
    g: &Graph,
    root: VertexId,
    value: u64,
    max_rounds: usize,
) -> Result<(RunReport, Vec<Option<u64>>)> {
    struct Flood {
        root: VertexId,
        value: u64,
        got: Option<u64>,
    }
    impl VertexProgram for Flood {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == self.root {
                self.got = Some(self.value);
                ctx.broadcast(self.value);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
            if self.got.is_none() {
                if let Some((_, &v)) = inbox.iter().next() {
                    self.got = Some(v);
                    let senders: Vec<VertexId> = inbox.iter().map(|(f, _)| f).collect();
                    ctx.broadcast_except(&senders, v);
                }
            }
        }
        fn halted(&self) -> bool {
            true
        }
    }

    let (report, progs) = Network::new(g).run_collect(
        |_| Flood {
            root,
            value,
            got: None,
        },
        max_rounds,
    )?;
    Ok((report, progs.into_iter().map(|p| p.got).collect()))
}

/// Convergecast sum: builds a BFS tree from `root` and aggregates
/// `Σ_v input(v)` bottom-up. The classic `O(D)` aggregation the paper's
/// implementation uses for computing volumes and cut sizes.
///
/// Returns the run report and the total received at the root.
///
/// # Errors
///
/// Propagates engine errors; the graph must be connected for the sum to
/// cover all vertices.
pub fn aggregate_sum<FIn>(
    g: &Graph,
    root: VertexId,
    input: FIn,
    max_rounds: usize,
) -> Result<(RunReport, u64)>
where
    FIn: Fn(VertexId) -> u64,
{
    // Protocol: the root starts a BFS WAVE. When a vertex first receives
    // waves (all arrive in the same round, from its lower BFS level), it
    // picks the smallest-id sender as parent and answers every wave sender:
    // JOIN/JOINSUM to the parent, DECLINE to the rest. It WAVEs all
    // remaining neighbors. A vertex keeps a `pending` set of neighbors that
    // might still contribute: same-level neighbors resolve by mutual WAVE
    // exchange, deeper neighbors by JOIN (sum comes later), JOINSUM (leaf
    // child: sum included) or DECLINE. When `pending` empties, the vertex
    // sends its accumulated SUM to its parent.
    #[derive(Clone)]
    struct Agg {
        root: VertexId,
        my_value: u64,
        parent: Option<VertexId>,
        pending: Vec<VertexId>,
        acc: u64,
        reported: bool,
        in_tree: bool,
    }

    impl Agg {
        fn try_report(&mut self, ctx: &mut Ctx<'_, (u8, u64)>) {
            if self.reported || !self.in_tree || !self.pending.is_empty() {
                return;
            }
            self.reported = true;
            if let Some(p) = self.parent {
                ctx.send(p, (TAG_SUM, self.acc));
            }
        }
    }

    impl VertexProgram for Agg {
        type Msg = (u8, u64);
        fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            self.acc = self.my_value;
            if ctx.me() == self.root {
                self.in_tree = true;
                self.pending = ctx.neighbors().to_vec();
                ctx.broadcast((TAG_WAVE, 0));
                self.reported = self.pending.is_empty(); // degenerate root
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: Inbox<'_, Self::Msg>) {
            let mut wave_senders: Vec<VertexId> = Vec::new();
            for (from, &(tag, value)) in inbox {
                match tag {
                    TAG_WAVE => wave_senders.push(from),
                    TAG_JOIN => {
                        // `from` is a child; its SUM arrives later, so it
                        // simply stays in `pending`.
                    }
                    TAG_JOINSUM | TAG_SUM => {
                        self.acc += value;
                        self.pending.retain(|&w| w != from);
                    }
                    TAG_DECLINE => {
                        self.pending.retain(|&w| w != from);
                    }
                    _ => unreachable!("unknown tag"),
                }
            }
            if !self.in_tree && !wave_senders.is_empty() {
                self.in_tree = true;
                let parent = wave_senders[0];
                self.parent = Some(parent);
                let others: Vec<VertexId> = ctx
                    .neighbors()
                    .iter()
                    .copied()
                    .filter(|w| !wave_senders.contains(w))
                    .collect();
                if others.is_empty() {
                    // Leaf: join and report in one combined message.
                    self.reported = true;
                    ctx.send(parent, (TAG_JOINSUM, self.acc));
                } else {
                    ctx.send(parent, (TAG_JOIN, 0));
                }
                for &s in wave_senders.iter().filter(|&&s| s != parent) {
                    ctx.send(s, (TAG_DECLINE, 0));
                }
                ctx.broadcast_except(&wave_senders, (TAG_WAVE, 0));
                self.pending = others;
            } else if self.in_tree {
                // A wave from a same-level neighbor: it joined elsewhere.
                for from in wave_senders {
                    self.pending.retain(|&w| w != from);
                }
            }
            self.try_report(ctx);
        }
        fn halted(&self) -> bool {
            true
        }
    }

    let (report, progs) = Network::new(g).run_collect(
        |v| Agg {
            root,
            my_value: input(v),
            parent: None,
            pending: Vec::new(),
            acc: 0,
            reported: false,
            in_tree: false,
        },
        max_rounds,
    )?;
    Ok((report, progs[root as usize].acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{gen, traversal};

    #[test]
    fn bfs_matches_centralized_on_random_graph() {
        let g = gen::gnp(60, 0.08, 4).unwrap();
        let (_, dist) = distributed_bfs(&g, 0, 500).unwrap();
        let want = traversal::bfs_distances(&g, 0);
        assert_eq!(dist, want);
    }

    #[test]
    fn bfs_rounds_equal_eccentricity() {
        let g = gen::grid(6, 7).unwrap();
        let (report, _) = distributed_bfs(&g, 0, 500).unwrap();
        let ecc = traversal::eccentricity(&g, 0).unwrap();
        assert_eq!(report.rounds as u32, ecc);
    }

    #[test]
    fn bfs_handles_disconnection() {
        let g = graph::Graph::from_edges(4, [(0, 1)]).unwrap();
        let (_, dist) = distributed_bfs(&g, 0, 100).unwrap();
        assert_eq!(dist, vec![0, 1, u32::MAX, u32::MAX]);
    }

    #[test]
    fn broadcast_reaches_component() {
        let g = gen::cycle(11).unwrap();
        let (report, got) = broadcast_value(&g, 3, 777, 100).unwrap();
        assert!(got.iter().all(|&x| x == Some(777)));
        // On odd cycles the two wavefronts cross at the antipode, costing
        // one extra (empty-send) round.
        let ecc = traversal::eccentricity(&g, 3).unwrap();
        assert!(report.rounds as u32 >= ecc && report.rounds as u32 <= ecc + 1);
    }

    #[test]
    fn aggregate_sum_counts_vertices() {
        for g in [
            gen::path(17).unwrap(),
            gen::cycle(10).unwrap(),
            gen::grid(4, 5).unwrap(),
            gen::gnp(40, 0.12, 9).unwrap(),
        ] {
            if !traversal::is_connected(&g) {
                continue;
            }
            let (_, total) = aggregate_sum(&g, 0, |_| 1, 10_000).unwrap();
            assert_eq!(total as usize, g.n(), "n = {}", g.n());
        }
    }

    #[test]
    fn aggregate_sum_computes_volume() {
        let g = gen::gnp(30, 0.2, 2).unwrap();
        assert!(traversal::is_connected(&g));
        let (_, total) = aggregate_sum(&g, 5, |v| g.degree(v) as u64, 10_000).unwrap();
        assert_eq!(total as usize, g.total_volume());
    }

    #[test]
    fn aggregate_rounds_scale_with_diameter() {
        let g = gen::path(40).unwrap();
        let (report, total) = aggregate_sum(&g, 0, |_| 1, 10_000).unwrap();
        assert_eq!(total, 40);
        // Wave down (39) + sums back up (39) plus small constant.
        assert!(
            report.rounds >= 78 && report.rounds <= 90,
            "rounds {}",
            report.rounds
        );
    }

    #[test]
    fn aggregate_on_singleton() {
        let g = graph::Graph::from_edges(1, []).unwrap();
        let (report, total) = aggregate_sum(&g, 0, |_| 42, 10).unwrap();
        assert_eq!(total, 42);
        assert_eq!(report.rounds, 0);
    }
}
