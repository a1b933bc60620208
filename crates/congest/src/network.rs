//! The synchronous round engine for the CONGEST model: public API.
//!
//! The execution machinery lives in [`crate::engine`]; this module keeps
//! the user-facing surface — [`VertexProgram`], the per-vertex [`Ctx`],
//! and the [`Network`] runner.

use crate::engine::validate::SendSink;
use crate::engine::{scheduler, ExecMode};
use crate::{Inbox, Payload, Result, RunReport};
use graph::{Graph, VertexId};

/// A per-vertex distributed program.
///
/// The engine drives all vertices in lock step:
///
/// 1. [`VertexProgram::init`] runs once for every vertex ("round 0") and
///    may send messages.
/// 2. Each subsequent round delivers the messages sent in the previous
///    step and invokes [`VertexProgram::round`] on every vertex that is
///    either not halted or has a non-empty inbox.
/// 3. The run stops when **every** vertex has halted and no messages are
///    in flight.
///
/// A halted vertex is woken up again if a message arrives — halting is a
/// vote, not a termination.
pub trait VertexProgram {
    /// Message type; its [`Payload::encoded_bits`] is charged against the
    /// per-edge bandwidth budget.
    type Msg: Payload;

    /// One-time initialization; may send messages via `ctx`.
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// One synchronous round. `inbox` yields the `(sender, &message)`
    /// pairs sent to this vertex in the previous round, ascending by
    /// sender id. The messages are borrowed in place from the senders'
    /// outgoing storage for the duration of the call — delivery copies
    /// nothing — so clone whatever must outlive the round.
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: Inbox<'_, Self::Msg>);

    /// Whether this vertex currently votes to halt.
    fn halted(&self) -> bool;
}

/// Per-vertex view of the network available during a round.
///
/// Provides the local information CONGEST permits: own id, own neighbor
/// list, the round number, plus global constants (`n` and the bandwidth,
/// which are common knowledge in the model).
pub struct Ctx<'a, M> {
    me: VertexId,
    g: &'a Graph,
    round: usize,
    sink: SendSink<'a, M>,
}

impl<'a, M: Payload> Ctx<'a, M> {
    pub(crate) fn new(me: VertexId, g: &'a Graph, round: usize, sink: SendSink<'a, M>) -> Self {
        Ctx { me, g, round, sink }
    }

    /// This vertex's id.
    pub fn me(&self) -> VertexId {
        self.me
    }

    /// Number of vertices in the network (common knowledge in CONGEST).
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// Current round number (0 during `init`).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Degree of this vertex (self loops included).
    pub fn degree(&self) -> usize {
        self.g.degree(self.me)
    }

    /// Sorted neighbor list of this vertex.
    pub fn neighbors(&self) -> &'a [VertexId] {
        self.sink.neighbors()
    }

    /// Queues a message to neighbor `to` for delivery next round.
    ///
    /// Validity (adjacency, one message per neighbor per round, bandwidth)
    /// is checked as the message is queued; the first violation aborts the
    /// run with the corresponding [`crate::CongestError`] and silently
    /// drops this vertex's remaining sends for the round (exactly where
    /// the seed engine stopped dispatching).
    pub fn send(&mut self, to: VertexId, msg: M) {
        self.sink.send(to, msg);
    }

    /// Sends `msg` to every neighbor (once per neighbor, even across
    /// parallel edges), without allocating.
    pub fn broadcast(&mut self, msg: M) {
        self.sink.send_to_all_except(&[], msg);
    }

    /// Sends `msg` to every neighbor **not** in `excluded` — the
    /// "forward to everyone who didn't just send to me" step of flooding
    /// algorithms, without the neighbor-list clone the seed needed.
    pub fn broadcast_except(&mut self, excluded: &[VertexId], msg: M) {
        self.sink.send_to_all_except(excluded, msg);
    }
}

impl<M> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("me", &self.me)
            .field("round", &self.round)
            .field("n", &self.g.n())
            .finish_non_exhaustive()
    }
}

/// A CONGEST network over a fixed communication graph.
///
/// See the [crate documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct Network<'g> {
    g: &'g Graph,
    bandwidth_bits: usize,
    word_bits: usize,
    mode: ExecMode,
}

impl<'g> Network<'g> {
    /// A network over `g` with the default bandwidth budget of
    /// `max(128, 16·⌈log₂ n⌉)` bits per edge per round — a fixed constant
    /// number of `O(log n)`-bit words.
    pub fn new(g: &'g Graph) -> Self {
        let log_n = crate::packed::word_bits(g.n());
        Network {
            g,
            bandwidth_bits: (16 * log_n).max(128),
            word_bits: log_n,
            mode: ExecMode::Sequential,
        }
    }

    /// Overrides the per-edge-per-round bandwidth budget in bits.
    pub fn with_bandwidth_bits(mut self, bits: usize) -> Self {
        self.bandwidth_bits = bits;
        self
    }

    /// Selects how vertices are stepped within a round. Both modes give
    /// bit-identical results; see [`ExecMode`].
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// The enforced per-edge-per-round budget in bits.
    pub fn bandwidth_bits(&self) -> usize {
        self.bandwidth_bits
    }

    /// Size of one model word in bits: `⌈log₂ n⌉`. Message word charges
    /// ([`crate::RunReport::words`]) are `⌈bits / word_bits⌉` per
    /// message.
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// The configured execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        self.g
    }

    /// Runs one program instance per vertex until global halt.
    ///
    /// `make` constructs the program for each vertex (it receives the
    /// vertex id, so programs can embed their identity or seed their local
    /// randomness from it).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::CongestError`] on any model violation or if the
    /// run exceeds `max_rounds`.
    pub fn run<P, F>(&self, make: F, max_rounds: usize) -> Result<RunReport>
    where
        P: VertexProgram + Send,
        P::Msg: Send + Sync,
        F: FnMut(VertexId) -> P,
    {
        self.run_collect(make, max_rounds).map(|(report, _)| report)
    }

    /// Like [`Network::run`] but also returns the final program states,
    /// indexed by vertex id.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::CongestError`] on any model violation or if the
    /// run exceeds `max_rounds`.
    pub fn run_collect<P, F>(&self, make: F, max_rounds: usize) -> Result<(RunReport, Vec<P>)>
    where
        P: VertexProgram + Send,
        P::Msg: Send + Sync,
        F: FnMut(VertexId) -> P,
    {
        match self.mode {
            ExecMode::Sequential => scheduler::run_sequential(
                self.g,
                self.bandwidth_bits,
                self.word_bits,
                make,
                max_rounds,
                false,
            ),
            ExecMode::Parallel => scheduler::run_parallel(
                self.g,
                self.bandwidth_bits,
                self.word_bits,
                make,
                max_rounds,
                false,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CongestError;
    use graph::gen;

    /// Echoes one message to the next higher neighbor id, `hops` times.
    struct Relay {
        budget: usize,
        done: bool,
    }

    impl VertexProgram for Relay {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send(1, self.budget as u32);
                self.done = true;
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            self.done = true;
            for (_, &hops) in inbox {
                if hops > 0 {
                    let me = ctx.me();
                    if let Some(&next) = ctx.neighbors().iter().find(|&&w| w > me) {
                        ctx.send(next, hops - 1);
                    }
                }
            }
        }
        fn halted(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn relay_round_count_matches_hops() {
        let g = gen::path(10).unwrap();
        let report = Network::new(&g)
            .run(
                |_| Relay {
                    budget: 5,
                    done: false,
                },
                100,
            )
            .unwrap();
        // Message travels 0->1 (round 1) then 5 more hops.
        assert_eq!(report.rounds, 6);
        assert_eq!(report.messages, 6);
    }

    struct SendToStranger;
    impl VertexProgram for SendToStranger {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send(3, 1); // not adjacent on a path
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u32>, _: Inbox<'_, u32>) {}
        fn halted(&self) -> bool {
            true
        }
    }

    #[test]
    fn sending_to_non_neighbor_fails() {
        let g = gen::path(4).unwrap();
        let err = Network::new(&g).run(|_| SendToStranger, 10).unwrap_err();
        assert_eq!(err, CongestError::NotANeighbor { from: 0, to: 3 });
    }

    #[test]
    fn sending_to_non_neighbor_fails_in_parallel_mode() {
        let g = gen::path(4).unwrap();
        let err = Network::new(&g)
            .with_exec_mode(ExecMode::Parallel)
            .run(|_| SendToStranger, 10)
            .unwrap_err();
        assert_eq!(err, CongestError::NotANeighbor { from: 0, to: 3 });
    }

    struct DoubleSend;
    impl VertexProgram for DoubleSend {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send(1, 1);
                ctx.send(1, 2);
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u32>, _: Inbox<'_, u32>) {}
        fn halted(&self) -> bool {
            true
        }
    }

    #[test]
    fn duplicate_send_fails() {
        let g = gen::path(2).unwrap();
        let err = Network::new(&g).run(|_| DoubleSend, 10).unwrap_err();
        assert!(matches!(
            err,
            CongestError::DuplicateSend { from: 0, to: 1, .. }
        ));
    }

    #[test]
    fn duplicate_send_across_parallel_edges_fails() {
        // Two copies of edge {0,1}: still one message per neighbor.
        let g = graph::Graph::from_edges(2, [(0, 1), (0, 1)]).unwrap();
        let err = Network::new(&g).run(|_| DoubleSend, 10).unwrap_err();
        assert!(matches!(
            err,
            CongestError::DuplicateSend { from: 0, to: 1, .. }
        ));
    }

    struct FatMessage;
    impl VertexProgram for FatMessage {
        type Msg = (u64, u64, u64, u64);
        fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if ctx.me() == 0 {
                ctx.send(1, (0, 0, 0, 0)); // 256 bits
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, Self::Msg>, _: Inbox<'_, Self::Msg>) {}
        fn halted(&self) -> bool {
            true
        }
    }

    #[test]
    fn bandwidth_violation_fails() {
        let g = gen::path(2).unwrap();
        let err = Network::new(&g)
            .with_bandwidth_bits(128)
            .run(|_| FatMessage, 10)
            .unwrap_err();
        assert!(matches!(
            err,
            CongestError::BandwidthExceeded { bits: 256, .. }
        ));
    }

    struct NeverHalts;
    impl VertexProgram for NeverHalts {
        type Msg = u32;
        fn init(&mut self, _: &mut Ctx<'_, u32>) {}
        fn round(&mut self, _: &mut Ctx<'_, u32>, _: Inbox<'_, u32>) {}
        fn halted(&self) -> bool {
            false
        }
    }

    #[test]
    fn round_limit_enforced() {
        let g = gen::path(2).unwrap();
        let err = Network::new(&g).run(|_| NeverHalts, 7).unwrap_err();
        assert_eq!(err, CongestError::RoundLimitExceeded { limit: 7 });
    }

    struct InstantHalt;
    impl VertexProgram for InstantHalt {
        type Msg = u32;
        fn init(&mut self, _: &mut Ctx<'_, u32>) {}
        fn round(&mut self, _: &mut Ctx<'_, u32>, _: Inbox<'_, u32>) {}
        fn halted(&self) -> bool {
            true
        }
    }

    #[test]
    fn silent_program_takes_zero_rounds() {
        let g = gen::path(5).unwrap();
        let report = Network::new(&g).run(|_| InstantHalt, 10).unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn run_collect_returns_states() {
        let g = gen::path(3).unwrap();
        let (_, progs) = Network::new(&g).run_collect(|_| InstantHalt, 10).unwrap();
        assert_eq!(progs.len(), 3);
    }

    /// Every vertex learns the minimum id in its connected component by
    /// iterated min-flooding; checks a multi-round convergence pattern.
    struct MinFlood {
        best: u32,
        changed: bool,
    }

    impl VertexProgram for MinFlood {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            self.best = ctx.me();
            ctx.broadcast(self.best);
            self.changed = false;
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            let incoming = inbox.iter().map(|(_, &b)| b).min();
            if let Some(b) = incoming {
                if b < self.best {
                    self.best = b;
                    ctx.broadcast(b);
                }
            }
        }
        fn halted(&self) -> bool {
            true // quiescence-driven: only woken by messages
        }
    }

    #[test]
    fn min_flooding_converges_in_eccentricity_rounds() {
        let g = gen::cycle(9).unwrap();
        let (report, progs) = Network::new(&g)
            .run_collect(
                |_| MinFlood {
                    best: u32::MAX,
                    changed: false,
                },
                100,
            )
            .unwrap();
        assert!(progs.iter().all(|p| p.best == 0));
        // Vertex 0's eccentricity on C9 is 4; one extra round of silence
        // is impossible because halting is quiescence-driven.
        assert!(report.rounds <= 5, "took {} rounds", report.rounds);
    }

    #[test]
    fn broadcast_on_parallel_edges_sends_once_per_neighbor() {
        let g = graph::Graph::from_edges(3, [(0, 1), (0, 1), (1, 2)]).unwrap();
        let (report, progs) = Network::new(&g)
            .run_collect(
                |_| MinFlood {
                    best: u32::MAX,
                    changed: false,
                },
                100,
            )
            .unwrap();
        assert!(progs.iter().all(|p| p.best == 0));
        // Init: 0 broadcasts 1 message (not 2), 1 broadcasts 2, 2 one.
        // Round 1: vertex 1 adopts 0, re-broadcasts (2 msgs); vertex 2
        // adopts 1 (1 msg). Round 2: vertex 2 adopts 0 (1 msg).
        assert_eq!(report.messages, 4 + 3 + 1);
    }

    #[test]
    fn exec_modes_agree_on_min_flooding() {
        let g = gen::gnp(80, 0.06, 12).unwrap();
        let seq = Network::new(&g)
            .run_collect(
                |_| MinFlood {
                    best: u32::MAX,
                    changed: false,
                },
                1000,
            )
            .unwrap();
        let par = Network::new(&g)
            .with_exec_mode(ExecMode::Parallel)
            .run_collect(
                |_| MinFlood {
                    best: u32::MAX,
                    changed: false,
                },
                1000,
            )
            .unwrap();
        assert_eq!(seq.0, par.0, "RunReports must be bit-identical");
        assert_eq!(
            seq.1.iter().map(|p| p.best).collect::<Vec<_>>(),
            par.1.iter().map(|p| p.best).collect::<Vec<_>>()
        );
    }
}
