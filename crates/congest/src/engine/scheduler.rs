//! The round loop: lock-step scheduling, halt detection and report
//! reduction, shared verbatim by the sequential and parallel paths.
//!
//! Each round has two logical phases fused into one pass over vertices:
//! hand the vertex its [`Inbox`] — a view of the previous round's
//! messages, read in place from the senders' arena ([`super::mailbox`])
//! — then step the vertex program, validating sends eagerly
//! ([`super::validate`]). A vertex only ever mutates its own state and
//! its own writer arena segment while reading neighbors' segments from
//! the immutable reader arena, so the pass is embarrassingly parallel
//! over vertices — [`run_parallel`] runs the *same* per-vertex function
//! ([`step_vertex`]) under `rayon`, chunked over contiguous vertex
//! ranges, while [`run_sequential`] drives it in a plain loop (and
//! therefore needs no `Send` bounds on the programs).
//!
//! **Active worklist.** Rounds step a worklist instead of scanning all
//! `n` slots. The invariant: a vertex can act in round `r > 0` only if
//! it is not halted (it will be stepped regardless of mail) or it
//! received mail in round `r - 1` (mail un-halts it). Round `r - 1`
//! therefore seeds round `r`'s list exactly: every `flag_mail` enrolls
//! its recipient once (atomic swap gate in the mailbox), and every
//! stepped vertex that ends the round not halted enrolls itself. Round 0
//! steps all vertices (`init` runs everywhere), establishing the base
//! case. The list is drained sorted-ascending and deduplicated, so the
//! sequential path visits vertices in index order and the parallel path
//! splits the per-vertex state at chunk id boundaries. A vertex outside
//! the list is halted with no mail — precisely the set the previous
//! full-scan engine skipped via its idle fast path — so the stepped set,
//! and with it every per-vertex effect and the [`RoundAgg`] reduction,
//! is identical to a full scan's. The scan itself (every round steps
//! `0..n` behind the idle fast-path check) survives only as the
//! `full_scan` reference this module's tests pin the worklist against,
//! bit for bit; [`crate::Network`] always passes `false`.
//!
//! Two further scale provisions keep long, mostly-idle runs cheap (the
//! measured decomposition's giant expander cluster streams for
//! `Θ(max deg)` rounds during which almost every vertex is halted and
//! silent):
//!
//! * the halt flags live in a compact side vector, so skipping a halted,
//!   mail-less vertex reads two warm words and never touches its
//!   [`Slot`] (whose program state is hundreds of bytes);
//! * round statistics fold into a [`RoundAgg`] *during* the step pass —
//!   only vertices that actually stepped contribute — instead of a
//!   second full sweep over all per-vertex stats per round.
//!
//! Determinism: per-vertex results do not depend on visit order, the
//! inbox yields senders in ascending order by construction, and the
//! [`RoundAgg`] reduction (message/bit sums, max link bits, min-vertex
//! error) is associative and commutative over integers — sequential and
//! parallel execution therefore produce bit-identical [`RunReport`]s,
//! final program states, and errors. `tests/engine_determinism.rs`
//! proves this property over randomized graphs and programs.

use crate::engine::mailbox::{BcastCell, Inbox, MailReader, Mailboxes, OutBuf};
use crate::engine::validate::SendStats;
use crate::network::{Ctx, VertexProgram};
use crate::{CongestError, Result, RunReport};
use graph::{Graph, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-vertex engine state: the program and its send accounting. Mail
/// is read in place from the senders' arenas ([`Inbox`]), so a slot
/// holds no inbox buffer.
pub(crate) struct Slot<P: VertexProgram> {
    program: P,
    stats: SendStats,
}

/// One round's reduction, filled in by the stepping pass itself. All
/// fields are sums/maxes/mins of per-vertex integers, so the result is
/// independent of stepping order and of how vertices are chunked over
/// threads. Vertices skipped by the idle fast path contribute exactly
/// nothing (they are halted and sent nothing), which is also what the
/// old second-pass reduction read from their zeroed stats.
struct RoundAgg {
    /// Messages queued this round (the round's `in_flight`).
    sent: AtomicUsize,
    /// Payload bits queued this round.
    bits: AtomicUsize,
    /// Model words queued this round (`⌈bits/word_bits⌉` per message).
    words: AtomicUsize,
    /// Largest single message queued this round.
    max_bits: AtomicUsize,
    /// Stepped vertices that are *not* halted after this round; every
    /// skipped vertex is halted by definition, so `active == 0` is
    /// exactly the old all-halted conjunction.
    active: AtomicUsize,
    /// Smallest vertex id that recorded a model violation
    /// (`usize::MAX` = none) — the same tie-break the seed engine's
    /// in-order scan produced.
    err_vertex: AtomicUsize,
}

impl RoundAgg {
    fn new() -> Self {
        RoundAgg {
            sent: AtomicUsize::new(0),
            bits: AtomicUsize::new(0),
            words: AtomicUsize::new(0),
            max_bits: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            err_vertex: AtomicUsize::new(usize::MAX),
        }
    }

    /// Folds one stepped vertex's round results in.
    fn absorb(&self, v: usize, stats: &SendStats, halted: bool) {
        if stats.error.is_some() {
            self.err_vertex.fetch_min(v, Ordering::Relaxed);
        }
        if stats.sent > 0 {
            self.sent.fetch_add(stats.sent, Ordering::Relaxed);
            self.bits.fetch_add(stats.bits, Ordering::Relaxed);
            self.words.fetch_add(stats.words, Ordering::Relaxed);
            self.max_bits.fetch_max(stats.max_bits, Ordering::Relaxed);
        }
        if !halted {
            self.active.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs the engine stepping vertices one at a time, in ascending id
/// order. No `Send` bounds: programs may hold thread-local state.
/// `full_scan` selects the pre-worklist reference (see the module docs).
pub(crate) fn run_sequential<P, F>(
    g: &Graph,
    bandwidth_bits: usize,
    word_bits: usize,
    make: F,
    max_rounds: usize,
    full_scan: bool,
) -> Result<(RunReport, Vec<P>)>
where
    P: VertexProgram,
    F: FnMut(VertexId) -> P,
{
    run_impl(
        g,
        make,
        max_rounds,
        full_scan,
        |slots, halted, boxes, round, agg, active| {
            let (write, bcast, reader) = boxes.split_for_round(round);
            for &v in active {
                let vi = v as usize;
                let halt = &mut halted[vi];
                if round > 0 && *halt && !reader.has_mail(v) {
                    continue; // idle fast path: the Slot is never touched
                }
                let slot = &mut slots[vi];
                step_vertex(
                    g,
                    bandwidth_bits,
                    word_bits,
                    round,
                    v,
                    slot,
                    &mut write[vi],
                    &mut bcast[vi],
                    reader,
                    halt,
                );
                agg.absorb(vi, &slot.stats, *halt);
            }
        },
    )
}

/// Runs the engine stepping vertices in parallel over contiguous
/// chunks. Bit-identical to [`run_sequential`]; see the module docs.
pub(crate) fn run_parallel<P, F>(
    g: &Graph,
    bandwidth_bits: usize,
    word_bits: usize,
    make: F,
    max_rounds: usize,
    full_scan: bool,
) -> Result<(RunReport, Vec<P>)>
where
    P: VertexProgram + Send,
    P::Msg: Send + Sync,
    F: FnMut(VertexId) -> P,
{
    run_impl(
        g,
        make,
        max_rounds,
        full_scan,
        |slots, halted, boxes, round, agg, active| {
            let (write, bcast, reader) = boxes.split_for_round(round);

            /// One thread's share of the round: a contiguous run of the
            /// (sorted, deduplicated) worklist plus the matching id-range
            /// sub-slices of the per-vertex state. Chunks cover disjoint id
            /// ranges, so handing each chunk exclusive `&mut` sub-slices is
            /// plain safe borrow splitting — no interior mutability, no
            /// unsafe indexing.
            struct Chunk<'a, P: VertexProgram> {
                /// First vertex id covered by this chunk's sub-slices.
                base: usize,
                ids: &'a [VertexId],
                slots: &'a mut [Slot<P>],
                write: &'a mut [OutBuf<P::Msg>],
                bcast: &'a mut [BcastCell<P::Msg>],
                halted: &'a mut [bool],
            }

            let per = active
                .len()
                .div_ceil(rayon::current_num_threads().max(1))
                .max(1);
            let mut chunks: Vec<Chunk<'_, P>> = Vec::new();
            let (mut slots, mut write, mut bcast, mut halted) =
                (slots, &mut write[..], &mut bcast[..], &mut halted[..]);
            let mut base = 0usize;
            for ids in active.chunks(per) {
                let hi = *ids.last().expect("chunks are non-empty") as usize + 1;
                let (s, s_rest) = slots.split_at_mut(hi - base);
                let (w, w_rest) = write.split_at_mut(hi - base);
                let (b, b_rest) = bcast.split_at_mut(hi - base);
                let (h, h_rest) = halted.split_at_mut(hi - base);
                (slots, write, bcast, halted) = (s_rest, w_rest, b_rest, h_rest);
                chunks.push(Chunk {
                    base,
                    ids,
                    slots: s,
                    write: w,
                    bcast: b,
                    halted: h,
                });
                base = hi;
            }

            chunks.par_iter_mut().for_each(|chunk| {
                for &v in chunk.ids {
                    let li = v as usize - chunk.base;
                    let halt = &mut chunk.halted[li];
                    if round > 0 && *halt && !reader.has_mail(v) {
                        continue; // idle fast path: the Slot is never touched
                    }
                    let slot = &mut chunk.slots[li];
                    step_vertex(
                        g,
                        bandwidth_bits,
                        word_bits,
                        round,
                        v,
                        slot,
                        &mut chunk.write[li],
                        &mut chunk.bcast[li],
                        reader,
                        halt,
                    );
                    agg.absorb(v as usize, &slot.stats, *halt);
                }
            });
        },
    )
}

/// The shared round loop; `step_all` executes one round over the given
/// worklist (this is the only thing the two modes do differently). With
/// `full_scan` every round's list is all of `0..n`, as the engine did
/// before the worklist.
fn run_impl<P, F, S>(
    g: &Graph,
    mut make: F,
    max_rounds: usize,
    full_scan: bool,
    mut step_all: S,
) -> Result<(RunReport, Vec<P>)>
where
    P: VertexProgram,
    F: FnMut(VertexId) -> P,
    S: FnMut(&mut [Slot<P>], &mut [bool], &mut Mailboxes<P::Msg>, usize, &RoundAgg, &[VertexId]),
{
    let n = g.n();
    let mut slots: Vec<Slot<P>> = (0..n as VertexId)
        .map(|v| Slot {
            program: make(v),
            stats: SendStats::default(),
        })
        .collect();
    let mut halted = vec![false; n];
    let mut boxes: Mailboxes<P::Msg> = Mailboxes::new(g);
    let mut report = RunReport::default();

    // Round 0 steps every vertex (`init` runs everywhere); later rounds
    // step the worklist seeded by the previous round (see module docs).
    let mut active: Vec<VertexId> = (0..n as VertexId).collect();
    let mut next: Vec<VertexId> = Vec::new();
    let mut bitmap = vec![0u64; n.div_ceil(64)];

    let mut round = 0usize;
    loop {
        let agg = RoundAgg::new();
        step_all(&mut slots, &mut halted, &mut boxes, round, &agg, &active);
        let err = agg.err_vertex.load(Ordering::Relaxed);
        if err != usize::MAX {
            return Err(slots[err]
                .stats
                .error
                .clone()
                .expect("err_vertex recorded a violation"));
        }
        let in_flight = agg.sent.load(Ordering::Relaxed);
        report.messages += in_flight;
        report.bits += agg.bits.load(Ordering::Relaxed);
        report.words += agg.words.load(Ordering::Relaxed);
        report.max_link_bits_per_round = report
            .max_link_bits_per_round
            .max(agg.max_bits.load(Ordering::Relaxed));
        let all_halted = agg.active.load(Ordering::Relaxed) == 0;
        if all_halted && in_flight == 0 {
            break;
        }
        if round >= max_rounds {
            return Err(CongestError::RoundLimitExceeded { limit: max_rounds });
        }
        if full_scan {
            boxes.discard_active(); // `active` stays 0..n
        } else {
            boxes.drain_active_into(&mut next, &mut bitmap);
            std::mem::swap(&mut active, &mut next);
        }
        round += 1;
    }
    report.rounds = round;
    Ok((report, slots.into_iter().map(|s| s.program).collect()))
}

/// Delivers `v`'s inbox and steps its program; the one function both
/// execution modes run, so their behavior cannot diverge.
#[allow(clippy::too_many_arguments)] // the engine's full per-vertex context
fn step_vertex<P: VertexProgram>(
    g: &Graph,
    bandwidth_bits: usize,
    word_bits: usize,
    round: usize,
    v: VertexId,
    slot: &mut Slot<P>,
    out: &mut OutBuf<P::Msg>,
    cell: &mut BcastCell<P::Msg>,
    reader: MailReader<'_, P::Msg>,
    halt: &mut bool,
) {
    slot.stats.reset();
    let inbox = (round > 0).then(|| Inbox::new(v, g.neighbors(v), reader));
    if inbox.is_some_and(|inbox| inbox.is_empty()) && slot.program.halted() {
        // Halted and silent: skip the program, stay halted.
        *halt = true;
        return;
    }
    let sink = crate::engine::validate::SendSink::new(
        v,
        g.neighbors(v),
        out,
        cell,
        reader,
        &mut slot.stats,
        round,
        bandwidth_bits,
        word_bits,
    );
    let mut ctx = Ctx::new(v, g, round, sink);
    match inbox {
        None => slot.program.init(&mut ctx),
        Some(inbox) => slot.program.round(&mut ctx, inbox),
    }
    *halt = slot.program.halted();
    if !*halt {
        // Not halted: the vertex must step next round even without mail,
        // so it enrolls itself in the worklist (receivers are enrolled
        // by `flag_mail` at send time).
        reader.push_active(v);
    }
}

#[cfg(test)]
mod tests {
    //! Active-worklist ⇔ full-scan equivalence. The probe program
    //! exercises every worklist transition: halted vertices woken by
    //! mail, awake vertices with no mail (the self-push path), late
    //! bursts re-flooding a quiesced network, and overlapping floods on
    //! one receiver (the push-once dedup in `flag_mail`).

    use super::*;
    use crate::{ExecMode, Network};
    use graph::gen;

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

    /// The shipped path (`Network`, worklist) or the full-scan reference.
    fn run(g: &Graph, mode: ExecMode, full_scan: bool) -> (RunReport, Vec<u64>) {
        let net = Network::new(g).with_exec_mode(mode);
        let (bw, wb) = (net.bandwidth_bits(), net.word_bits());
        let (report, programs) = match (full_scan, mode) {
            (false, _) => net.run_collect(Pulse::new, 200),
            (true, ExecMode::Sequential) => run_sequential(g, bw, wb, Pulse::new, 200, true),
            (true, ExecMode::Parallel) => run_parallel(g, bw, wb, Pulse::new, 200, true),
        }
        .expect("pulse is a valid CONGEST program");
        (report, programs.into_iter().map(|p| p.state).collect())
    }

    #[test]
    fn worklist_matches_full_scan_bit_for_bit() {
        // The rayon shim sizes its pool once per process, and other tests
        // in this binary may already have sized it: re-run this test alone
        // in a child process whose pool is forced to 4 threads.
        if std::env::var("RAYON_NUM_THREADS").as_deref() != Ok("4") {
            let name = module_path!().split_once("::").unwrap().1.to_string()
                + "::worklist_matches_full_scan_bit_for_bit";
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([name.as_str(), "--exact", "--test-threads", "1"])
                .env("RAYON_NUM_THREADS", "4")
                .output()
                .expect("re-run the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "4-thread run failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        assert_eq!(rayon::current_num_threads(), 4, "pool sized elsewhere");

        let graphs = vec![
            gen::gnp(400, 0.02, 11).unwrap(),
            gen::gnp(900, 0.004, 12).unwrap(),
            gen::cycle(257).unwrap(),
            gen::star(120).unwrap(),
            Graph::from_edges(50, [(0u32, 1u32)]).unwrap(), // mostly isolated
        ];

        for g in &graphs {
            let worklist_seq = run(g, ExecMode::Sequential, false);
            let worklist_par = run(g, ExecMode::Parallel, false);
            let full_seq = run(g, ExecMode::Sequential, true);
            let full_par = run(g, ExecMode::Parallel, true);

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
}
