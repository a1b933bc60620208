//! Engine determinism (DESIGN.md §4): sequential and parallel execution
//! of the same `VertexProgram` on the same graph must produce identical
//! `RunReport`s, identical final program states, and identical errors.
//!
//! The property is structural — a vertex's step depends only on the
//! previous round's messages and its own state, and the per-round
//! reduction is associative — but these tests prove it holds end to end
//! over randomized graphs and three program families, with the shim's
//! thread count forced above one so the parallel path really does chunk
//! work across threads.

use congest::{CongestError, Ctx, ExecMode, Inbox, Network, VertexProgram};
use graph::{gen, Graph, VertexId};
use proptest::prelude::*;

/// Force real multi-threading in the parallel engine, even on one-core
/// hosts (the rayon shim reads this once, at first use).
fn force_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
}

/// Random connected-ish graph: a cycle unioned with `G(n, p)` noise.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..80, any::<u64>()).prop_map(|(n, seed)| {
        let p = 3.0 / n as f64;
        let base = gen::cycle(n).unwrap();
        let noise = gen::gnp(n, p.min(0.9), seed).unwrap();
        let mut edges: Vec<(VertexId, VertexId)> = base.edges().collect();
        edges.extend(noise.edges());
        Graph::from_edges(n, edges).unwrap()
    })
}

/// Family 1 — quiescence-driven max-gossip.
///
/// Every vertex floods a salted hash of its id; everyone converges to the
/// global maximum, waking halted vertices along the way, so the mail
/// flags, bit counters and max-link tracking all get exercised.
#[derive(Debug, PartialEq, Eq)]
struct Gossip {
    salt: u64,
    best: u64,
    rounds_active: u32,
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 27)
}

impl VertexProgram for Gossip {
    type Msg = (u64, u8);
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.best = mix(ctx.me() as u64 ^ self.salt);
        ctx.broadcast((self.best, (self.best % 251) as u8));
    }
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: Inbox<'_, Self::Msg>) {
        self.rounds_active += 1;
        let incoming = inbox.iter().map(|(_, &(b, _))| b).max();
        if let Some(b) = incoming {
            if b > self.best {
                self.best = b;
                // Senders of smaller values still need the update; only
                // those who sent `b` itself already know it.
                let knowers: Vec<VertexId> = inbox
                    .iter()
                    .filter(|&(_, &(val, _))| val == b)
                    .map(|(f, _)| f)
                    .collect();
                ctx.broadcast_except(&knowers, (b, (b % 251) as u8));
            }
        }
    }
    fn halted(&self) -> bool {
        true // woken only by mail
    }
}

/// Family 2 — a time-driven token walk: vertex `start` launches a token
/// with a TTL; each holder forwards it to a neighbor picked from the
/// round number, so the trajectory is rounds-dependent but execution-
/// order independent. Non-holders tick until their own horizon passes.
#[derive(Debug, PartialEq, Eq)]
struct TokenWalk {
    start: VertexId,
    horizon: usize,
    received: u32,
    last_seen_ttl: u32,
}

impl VertexProgram for TokenWalk {
    type Msg = u32;
    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        if ctx.me() == self.start {
            let ttl = self.horizon as u32;
            let nbrs = ctx.neighbors();
            if !nbrs.is_empty() {
                let to = nbrs[0];
                ctx.send(to, ttl);
            }
        }
    }
    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
        for (_, &ttl) in inbox {
            self.received += 1;
            self.last_seen_ttl = ttl;
            if ttl > 0 {
                let nbrs = ctx.neighbors();
                let to = nbrs[ctx.round() % nbrs.len()];
                ctx.send(to, ttl - 1);
            }
        }
    }
    fn halted(&self) -> bool {
        true
    }
}

/// Family 3 — deliberate model violations: one rogue vertex breaks a
/// rule at a chosen round. Both modes must surface the *same* error.
/// Time-driven (vertices tick to round 4 before voting to halt), so the
/// trigger round is always reached.
#[derive(Debug)]
struct Rogue {
    me_is_rogue: bool,
    trigger_round: usize,
    kind: u8,
    ticks: usize,
}

impl VertexProgram for Rogue {
    type Msg = u64;
    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.me_is_rogue && self.trigger_round == 0 {
            self.violate(ctx);
        }
    }
    fn round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: Inbox<'_, u64>) {
        self.ticks = ctx.round();
        if self.me_is_rogue && self.trigger_round == ctx.round() {
            self.violate(ctx);
        }
    }
    fn halted(&self) -> bool {
        self.ticks >= 4
    }
}

impl Rogue {
    fn violate(&self, ctx: &mut Ctx<'_, u64>) {
        match self.kind {
            // Send to a non-neighbor (self is never adjacent to itself in
            // the engine's neighbor lists).
            0 => ctx.send(ctx.me(), 9),
            // Duplicate send over the first incident edge.
            _ => {
                if let Some(&w) = ctx.neighbors().first() {
                    ctx.send(w, 9);
                    ctx.send(w, 9);
                }
            }
        }
    }
}

type Outcome<P> = congest::Result<(congest::RunReport, Vec<P>)>;

fn run_both<P, F>(g: &Graph, make: F, max_rounds: usize) -> (Outcome<P>, Outcome<P>)
where
    P: VertexProgram + Send,
    P::Msg: Send + Sync,
    F: Fn(VertexId) -> P,
{
    force_threads();
    let seq = Network::new(g).run_collect(&make, max_rounds);
    let par = Network::new(g)
        .with_exec_mode(ExecMode::Parallel)
        .run_collect(&make, max_rounds);
    (seq, par)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn gossip_is_mode_independent(g in arb_graph(), salt in any::<u64>()) {
        let (seq, par) = run_both(&g, |_| Gossip { salt, best: 0, rounds_active: 0 }, 10_000);
        let (seq, par) = (seq.unwrap(), par.unwrap());
        prop_assert_eq!(seq.0, par.0, "RunReports diverged");
        prop_assert_eq!(seq.1, par.1, "final program states diverged");
        // Sanity: the gossip actually converged to one value.
        let best = seq.1[0].best;
        prop_assert!(seq.1.iter().all(|p| p.best == best));
    }

    #[test]
    fn token_walk_is_mode_independent(
        g in arb_graph(), start in any::<u32>(), horizon in 1usize..120
    ) {
        let start = start % g.n() as u32;
        let (seq, par) = run_both(
            &g,
            |_| TokenWalk { start, horizon, received: 0, last_seen_ttl: 0 },
            horizon + 10,
        );
        let (seq, par) = (seq.unwrap(), par.unwrap());
        prop_assert_eq!(seq.0, par.0, "RunReports diverged");
        prop_assert_eq!(seq.1, par.1, "final program states diverged");
        prop_assert_eq!(seq.0.messages, horizon + 1, "token moves once per round");
    }

    #[test]
    fn violations_surface_the_same_error(
        g in arb_graph(), rogue in any::<u32>(), trigger in 0usize..4, kind in any::<bool>()
    ) {
        let rogue = rogue % g.n() as u32;
        let (seq, par) = run_both(
            &g,
            |v| Rogue { me_is_rogue: v == rogue, trigger_round: trigger, kind: kind as u8, ticks: 0 },
            10_000,
        );
        let seq_err = seq.map(|(r, _)| r).unwrap_err();
        let par_err = par.map(|(r, _)| r).unwrap_err();
        prop_assert_eq!(&seq_err, &par_err, "error values diverged");
        match seq_err {
            CongestError::NotANeighbor { from, .. }
            | CongestError::DuplicateSend { from, .. } => prop_assert_eq!(from, rogue),
            other => prop_assert!(false, "unexpected error {:?}", other),
        }
    }
}

/// Round-limit exhaustion must also agree between modes.
#[test]
fn round_limit_is_mode_independent() {
    #[derive(Debug, PartialEq)]
    struct Chatter;
    impl VertexProgram for Chatter {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.broadcast(0);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u32>, _: Inbox<'_, u32>) {
            ctx.broadcast(ctx.round() as u32);
        }
        fn halted(&self) -> bool {
            false
        }
    }
    let g = gen::cycle(12).unwrap();
    let (seq, par) = run_both(&g, |_| Chatter, 9);
    assert_eq!(seq.unwrap_err(), par.unwrap_err());
}
