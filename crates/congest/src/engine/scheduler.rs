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
//! is identical to a full scan's. Setting `CONGEST_ENGINE_FULL_SCAN=1`
//! restores the scan (every round steps `0..n` with the idle fast-path
//! check); `tests/worklist_equivalence.rs` pins the two modes to
//! bit-identical results.
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
pub(crate) fn run_sequential<P, F>(
    g: &Graph,
    bandwidth_bits: usize,
    word_bits: usize,
    make: F,
    max_rounds: usize,
) -> Result<(RunReport, Vec<P>)>
where
    P: VertexProgram,
    F: FnMut(VertexId) -> P,
{
    run_impl(
        g,
        make,
        max_rounds,
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

/// Whether the full-scan fallback is requested: every round steps all
/// `n` slots behind the idle fast-path check, as the engine did before
/// the worklist. Kept as the reference the equivalence suite compares
/// the worklist against (and as an escape hatch).
fn full_scan_requested() -> bool {
    std::env::var_os("CONGEST_ENGINE_FULL_SCAN").is_some_and(|v| v != "0" && !v.is_empty())
}

/// The shared round loop; `step_all` executes one round over the given
/// worklist (this is the only thing the two modes do differently).
fn run_impl<P, F, S>(
    g: &Graph,
    mut make: F,
    max_rounds: usize,
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
    let full_scan = full_scan_requested();

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
