//! Active-worklist ⇔ full-scan engine equivalence.
//!
//! The scheduler steps only vertices on its active worklist (previous
//! round's receivers plus vertices that did not vote to halt); the
//! pre-worklist behavior — scanning all `n` slots every round — is kept
//! behind the `CONGEST_ENGINE_FULL_SCAN` env var exactly so this suite
//! can pin the two **bit-for-bit**: same [`RunReport`] (rounds, messages,
//! bits, words, link peaks) and same per-vertex final program state, in
//! both [`ExecMode::Sequential`] and [`ExecMode::Parallel`], under a
//! forced 4-thread pool.
//!
//! The probe program is chosen to exercise every worklist transition:
//! vertices that halt immediately and only wake on mail, vertices that
//! stay awake for rounds without sending or receiving (the non-halted
//! self-push path), late wake-up bursts re-flooding a quiesced network,
//! and overlapping floods hitting one receiver from many senders in the
//! same round (the push-once dedup in `flag_mail`).

use congest::{Ctx, ExecMode, Inbox, Network, RunReport, VertexProgram};
use graph::{gen, Graph, VertexId};

/// Flood-with-TTL plus scheduled late wake-ups.
struct Pulse {
    me: VertexId,
    /// Order- and schedule-independent digest of everything received.
    state: u64,
    /// Round at which this vertex spontaneously bursts (0 = never).
    wake_round: usize,
    fired: bool,
}

impl Pulse {
    fn new(me: VertexId) -> Pulse {
        Pulse {
            me,
            state: 0,
            // A sparse set of late talkers, staggered so the network
            // quiesces between bursts (empty worklist stretches).
            wake_round: if me % 29 == 3 {
                5 + (me as usize % 7) * 4
            } else {
                0
            },
            fired: false,
        }
    }
}

impl VertexProgram for Pulse {
    type Msg = u32;

    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        if self.me % 13 == 0 {
            ctx.broadcast(3); // seed floods, ttl 3
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
        let mut max_ttl = 0;
        for (from, &ttl) in inbox {
            self.state = self
                .state
                .wrapping_mul(0x100000001B3)
                .wrapping_add((from as u64) << 8 | ttl as u64);
            max_ttl = max_ttl.max(ttl);
        }
        if max_ttl > 1 {
            ctx.broadcast(max_ttl - 1); // forward the strongest pulse
        }
        if !self.fired && self.wake_round != 0 && ctx.round() == self.wake_round {
            ctx.broadcast(2);
            self.fired = true;
        }
    }

    fn halted(&self) -> bool {
        // Late talkers stay awake (idle, sending nothing) until they
        // fire — the worklist must keep re-stepping them without mail.
        self.fired || self.wake_round == 0
    }
}

fn run(g: &Graph, mode: ExecMode) -> (RunReport, Vec<u64>) {
    let (report, programs) = Network::new(g)
        .with_exec_mode(mode)
        .run_collect(Pulse::new, 200)
        .expect("pulse is a valid CONGEST program");
    (report, programs.into_iter().map(|p| p.state).collect())
}

#[test]
fn worklist_matches_full_scan_bit_for_bit() {
    // Fix the pool size before the first rayon call (the shim caches it).
    std::env::set_var("RAYON_NUM_THREADS", "4");
    std::env::remove_var("CONGEST_ENGINE_FULL_SCAN");

    let graphs = vec![
        gen::gnp(400, 0.02, 11).unwrap(),
        gen::gnp(900, 0.004, 12).unwrap(),
        gen::cycle(257).unwrap(),
        gen::star(120).unwrap(),
        Graph::from_edges(50, [(0u32, 1u32)]).unwrap(), // mostly isolated
    ];

    for g in &graphs {
        let worklist_seq = run(g, ExecMode::Sequential);
        let worklist_par = run(g, ExecMode::Parallel);

        std::env::set_var("CONGEST_ENGINE_FULL_SCAN", "1");
        let full_seq = run(g, ExecMode::Sequential);
        let full_par = run(g, ExecMode::Parallel);
        std::env::remove_var("CONGEST_ENGINE_FULL_SCAN");

        assert!(
            worklist_seq.0.rounds > 6,
            "probe must outlive its seed burst (n = {})",
            g.n()
        );
        assert_eq!(worklist_seq, full_seq, "seq diverged (n = {})", g.n());
        assert_eq!(worklist_par, full_par, "par diverged (n = {})", g.n());
        assert_eq!(
            worklist_seq,
            worklist_par,
            "exec modes diverged (n = {})",
            g.n()
        );
    }
}
