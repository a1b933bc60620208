//! Arena-backed mailboxes for the round engine.
//!
//! A vertex sends at most one message per neighbor per round, so vertex
//! `u`'s outgoing traffic fits in a fixed arena with **one slot per
//! adjacency position** ([`OutBuf`]); the slot for recipient `v` is
//! `v`'s lower-bound position in `u`'s sorted neighbor list. A message
//! sent to every neighbor is stored once, in `u`'s [`BcastCell`].
//!
//! Delivery is *pull-based* and *by reference*: receiver `v`'s [`Inbox`]
//! walks `v`'s own sorted neighbor list and borrows each neighbor's
//! broadcast cell or slot for `v` (precomputed in [`RevIndex`]) in
//! place, which yields the mail **already sorted by sender** — no
//! per-round allocation, no sort, no per-receiver copy. Slot occupancy
//! is tracked by a round stamp instead of clearing, so an idle round
//! costs nothing.
//!
//! Two arenas ([`Mailboxes`]) alternate writer/reader roles each round
//! (double buffering): round `r` writes arena `r % 2` while reading the
//! messages round `r - 1` left in arena `(r - 1) % 2`. Because a vertex
//! only ever *writes its own* arena segment and *reads its neighbors'*
//! segments from the other arena, rounds parallelize over vertices with
//! no write conflicts, and an inbox borrowed from the reader arena stays
//! valid for the whole round.

use graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Stamp value meaning "slot never written".
const NEVER: usize = usize::MAX;

/// One vertex's outgoing arena segment: a slot per adjacency position.
///
/// `stamp[i] == r` means the slot was written in round `r`; any other
/// value means the slot's message (if present) is stale. Initial stamps
/// are [`NEVER`], which no round index ever equals (the engine errors out
/// at `usize::MAX` rounds long before).
///
/// Slot storage is allocated **lazily** on the first [`OutBuf::put`]:
/// broadcast-dominated programs (the adjacency exchange's streaming
/// vertices) never unicast, so at the 10⁷-edge tier the eager
/// per-adjacency-position arenas would commit gigabytes that are never
/// written. An unallocated buffer reports every slot as unstamped, which
/// is exactly what an allocated-but-never-written buffer reports.
#[derive(Debug)]
pub(crate) struct OutBuf<M> {
    msgs: Box<[Option<M>]>,
    stamp: Box<[usize]>,
    /// Number of adjacency slots to materialize on first write.
    degree: usize,
}

impl<M> OutBuf<M> {
    fn new(degree: usize) -> Self {
        OutBuf {
            msgs: Vec::new().into_boxed_slice(),
            stamp: Vec::new().into_boxed_slice(),
            degree,
        }
    }

    /// Whether the slot was written in round `round`.
    #[inline]
    pub(crate) fn is_stamped(&self, slot: usize, round: usize) -> bool {
        self.stamp.get(slot) == Some(&round)
    }

    /// Stamps `slot` for `round` and stores `msg` in it, materializing
    /// the slot storage on first use.
    #[inline]
    pub(crate) fn put(&mut self, slot: usize, round: usize, msg: M) {
        if self.stamp.is_empty() {
            self.msgs = (0..self.degree).map(|_| None).collect();
            self.stamp = vec![NEVER; self.degree].into_boxed_slice();
        }
        self.stamp[slot] = round;
        self.msgs[slot] = Some(msg);
    }

    /// Borrows the message in `slot`, which the caller checked is
    /// stamped.
    #[inline]
    fn read(&self, slot: usize) -> &M {
        self.msgs[slot]
            .as_ref()
            .expect("stamped slot holds a message")
    }
}

/// One sender's broadcast cell for one round: when a vertex sends the
/// *same* message to *every* neighbor (the dominant pattern of streaming
/// programs), the message is stored once here instead of once per
/// adjacency slot, and receivers read one flat, cache-friendly cell
/// instead of chasing into the sender's slot storage.
#[derive(Debug)]
pub(crate) struct BcastCell<M> {
    stamp: usize,
    msg: Option<M>,
}

impl<M> BcastCell<M> {
    fn new() -> Self {
        BcastCell {
            stamp: NEVER,
            msg: None,
        }
    }

    /// Whether this cell carries a broadcast for `round`.
    #[inline]
    pub(crate) fn is_stamped(&self, round: usize) -> bool {
        self.stamp == round
    }

    /// Stores a broadcast for `round`.
    #[inline]
    pub(crate) fn put(&mut self, round: usize, msg: M) {
        self.stamp = round;
        self.msg = Some(msg);
    }
}

/// Concurrent accumulator for the next round's active worklist.
///
/// The scheduler steps only vertices that can possibly act in a round:
/// last round's mail *receivers* plus last round's *non-halted* steppers
/// (see `scheduler`'s worklist invariant). Both kinds are pushed here
/// while a round runs — receivers exactly once each via the atomic swap
/// in [`MailReader::flag_mail`], self-pushes at most once per stepped
/// vertex — so the list never exceeds `2n` entries and the fixed buffer
/// never reallocates. Entries are unordered and may contain duplicates
/// (a non-halted vertex that also received mail); the drain sorts and
/// deduplicates.
///
/// Relaxed ordering suffices: slots are claimed by `fetch_add`, each
/// claimed index is written by exactly one thread, and the scheduler
/// only reads after the round's step pass has joined all threads.
pub(crate) struct ActiveSet {
    items: Box<[AtomicU32]>,
    len: AtomicUsize,
}

impl ActiveSet {
    fn new(capacity: usize) -> Self {
        ActiveSet {
            items: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Appends `v` (caller guarantees the per-round push-once discipline
    /// that bounds total pushes by the buffer capacity).
    #[inline]
    pub(crate) fn push(&self, v: VertexId) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        self.items[i].store(v, Ordering::Relaxed);
    }

    /// Drains the set into `out`, sorted ascending and deduplicated, and
    /// resets the set for the next round.
    ///
    /// Two regimes keep the drain linear in what the round actually did:
    /// a short list is sorted directly (`O(k log k)`), while a list that
    /// is a sizable fraction of the graph is scattered into `bitmap`
    /// (one bit per vertex, caller-provided scratch) and swept in id
    /// order (`O(n/64 + k)`) — never worse than the full-slot scan the
    /// worklist replaces, even on broadcast-heavy rounds where nearly
    /// every vertex receives mail.
    pub(crate) fn drain_sorted_into(&self, out: &mut Vec<VertexId>, bitmap: &mut [u64]) {
        let len = self.len.swap(0, Ordering::Relaxed);
        out.clear();
        let items = &self.items[..len];
        if len * 24 < bitmap.len() * 64 {
            out.extend(items.iter().map(|a| a.load(Ordering::Relaxed)));
            out.sort_unstable();
            out.dedup();
        } else {
            for a in items {
                let v = a.load(Ordering::Relaxed) as usize;
                bitmap[v / 64] |= 1u64 << (v % 64);
            }
            for (w, word) in bitmap.iter_mut().enumerate() {
                let mut bits = *word;
                *word = 0;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    out.push((w * 64) as VertexId + b);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Discards all pushes (the full-scan fallback never reads the list
    /// but must still keep it from growing past its capacity).
    pub(crate) fn discard(&self) {
        self.len.store(0, Ordering::Relaxed);
    }
}

/// Precomputed reverse-edge index.
///
/// For the `i`-th adjacency position of vertex `v` (neighbor `u`),
/// `slot_of_sender(v, i)` is the position of `v` in `u`'s sorted neighbor
/// list — i.e. the slot in `u`'s [`OutBuf`] holding a message addressed
/// to `v`. For parallel edges the lower-bound position is used, matching
/// the engine's one-message-per-neighbor rule (the duplicate-send check
/// collapses all copies of an edge onto one slot).
pub(crate) struct RevIndex {
    /// CSR offsets into `lb` (self loops excluded, like `Graph::neighbors`).
    offsets: Vec<usize>,
    lb: Vec<u32>,
}

impl RevIndex {
    pub(crate) fn build(g: &Graph) -> RevIndex {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for v in 0..n as VertexId {
            acc += g.neighbors(v).len();
            offsets.push(acc);
        }
        let mut lb = Vec::with_capacity(acc);
        for v in 0..n as VertexId {
            for &u in g.neighbors(v) {
                let pos = g.neighbors(u).partition_point(|&w| w < v);
                debug_assert_eq!(g.neighbors(u)[pos], v, "undirected adjacency is symmetric");
                lb.push(pos as u32);
            }
        }
        RevIndex { offsets, lb }
    }

    /// Sender-side slot for the `i`-th neighbor of `v`.
    #[inline]
    fn slot_of_sender(&self, v: VertexId, i: usize) -> usize {
        self.lb[self.offsets[v as usize] + i] as usize
    }
}

/// The engine's double-buffered mailbox state: two outgoing arenas plus
/// two generations of per-vertex has-mail round stamps.
///
/// The stamps let the scheduler skip halted, mail-less vertices without
/// scanning their neighborhoods: a sender in round `r` stores `r + 1`
/// into the recipient's stamp in generation `(r + 1) % 2`, and a vertex
/// has mail in round `r` iff its stamp in generation `r % 2` equals `r`.
/// Two generations keep the round being *read* separate from the round
/// being *written* (a same-round sender must not clobber the stamp its
/// recipient is about to consult), and stale stamps never match a later
/// round, so nothing is ever cleared. They are atomic only so the
/// parallel path can raise them from many vertices at once; sequential
/// execution pays a relaxed store, which is free on every relevant
/// platform. (Concurrent stores race only when several senders target
/// one recipient in the same round, and then they all store the same
/// value.)
pub(crate) struct Mailboxes<M> {
    arenas: [Vec<OutBuf<M>>; 2],
    mail: [Vec<AtomicUsize>; 2],
    /// Per-*sender* round stamps (same two-generation scheme as `mail`):
    /// `sent[r % 2][u] == r` iff `u` queued at least one message in round
    /// `r`. Receivers consult this one flat array before touching a
    /// sender's arena segment, so a gather over a mostly-idle
    /// neighborhood (the long tail of streaming programs, where only a
    /// few high-degree vertices are still talking) costs one predictable
    /// load per neighbor instead of two dependent loads into per-sender
    /// slot storage.
    sent: [Vec<AtomicUsize>; 2],
    /// Per-sender broadcast cells (two generations like the arenas).
    bcast: [Vec<BcastCell<M>>; 2],
    rev: RevIndex,
    /// Next-round worklist accumulator (see [`ActiveSet`]).
    active: ActiveSet,
}

/// Which arena a round writes: `r % 2`.
#[inline]
fn writer_of(round: usize) -> usize {
    round % 2
}

impl<M> Mailboxes<M> {
    pub(crate) fn new(g: &Graph) -> Self {
        let n = g.n();
        let arena = || {
            (0..n as VertexId)
                .map(|v| OutBuf::new(g.neighbors(v).len()))
                .collect::<Vec<_>>()
        };
        let stamps = || (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        Mailboxes {
            arenas: [arena(), arena()],
            // Round 0 delivers nothing, so the initial stamp 0 (meaning
            // "mail for round 0") is never consulted. The initial `sent`
            // stamp 0 makes every vertex look like a round-0 sender to
            // the round-1 gather — an unfiltered first round, after
            // which the slot stamps remain the ground truth.
            mail: [stamps(), stamps()],
            sent: [stamps(), stamps()],
            bcast: [
                (0..n).map(|_| BcastCell::new()).collect(),
                (0..n).map(|_| BcastCell::new()).collect(),
            ],
            rev: RevIndex::build(g),
            active: ActiveSet::new(2 * n),
        }
    }

    /// The worklist accumulated while the current round stepped (see
    /// [`ActiveSet::drain_sorted_into`]).
    pub(crate) fn drain_active_into(&self, out: &mut Vec<VertexId>, bitmap: &mut [u64]) {
        self.active.drain_sorted_into(out, bitmap);
    }

    /// Discards the accumulated worklist (full-scan fallback).
    pub(crate) fn discard_active(&self) {
        self.active.discard();
    }

    /// Test-only: pretend `v` sent something in `round`, so gathers are
    /// not short-circuited by the sent filter when a test wants to
    /// exercise the slot-stamp logic directly.
    #[cfg(test)]
    pub(crate) fn mark_sent_for_test(&self, v: VertexId, round: usize) {
        self.sent[round % 2][v as usize].store(round, Ordering::Relaxed);
    }

    /// Splits the state into the pieces round `round` needs: the writer
    /// arena (exclusive, one segment per vertex) and the shared
    /// [`MailReader`] bundling the reader arena, the mail stamps and the
    /// reverse index.
    pub(crate) fn split_for_round(
        &mut self,
        round: usize,
    ) -> (
        &mut Vec<OutBuf<M>>,
        &mut Vec<BcastCell<M>>,
        MailReader<'_, M>,
    ) {
        let [a, b] = &mut self.arenas;
        let [ba, bb] = &mut self.bcast;
        let (write, read, bcast_write, bcast_read) = if writer_of(round) == 0 {
            (a, &*b, ba, &*bb)
        } else {
            (b, &*a, bb, &*ba)
        };
        let mail_cur = &self.mail[round % 2][..];
        let mail_next = &self.mail[(round + 1) % 2][..];
        // Generations alternate by round parity, so the generation this
        // round *writes* is disjoint from the one it *reads* (which round
        // `round - 1` wrote): (round + 1) % 2 == (round - 1) % 2.
        let sent_write = &self.sent[round % 2][..];
        let sent_read = &self.sent[(round + 1) % 2][..];
        (
            write,
            bcast_write,
            MailReader {
                read,
                bcast_read,
                mail_cur,
                mail_next,
                sent_write,
                sent_read,
                rev: &self.rev,
                active: &self.active,
                round,
            },
        )
    }
}

/// The shared-state view each stepping vertex uses: pull delivery from
/// the previous round's arena and stamp next-round mail.
pub(crate) struct MailReader<'e, M> {
    read: &'e Vec<OutBuf<M>>,
    bcast_read: &'e [BcastCell<M>],
    mail_cur: &'e [AtomicUsize],
    mail_next: &'e [AtomicUsize],
    sent_write: &'e [AtomicUsize],
    sent_read: &'e [AtomicUsize],
    rev: &'e RevIndex,
    active: &'e ActiveSet,
    round: usize,
}

// Manual impls: the reader is a bundle of shared references, copyable
// regardless of whether `M` itself is.
impl<M> Clone for MailReader<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for MailReader<'_, M> {}

impl<M> MailReader<'_, M> {
    /// Whether `v` was sent mail in the previous round.
    #[inline]
    pub(crate) fn has_mail(&self, v: VertexId) -> bool {
        self.mail_cur[v as usize].load(Ordering::Relaxed) == self.round
    }

    /// Stamps `to` as having mail in the next round and, exactly once
    /// per recipient per round, enrolls `to` in the next round's
    /// worklist.
    ///
    /// The atomic swap is the push-once gate: among all senders flagging
    /// `to` this round, exactly one observes a stamp other than
    /// `round + 1` (the generation's previous value is at most
    /// `round - 1`), so concurrent broadcasts cannot enroll a recipient
    /// twice and the worklist buffer's capacity bound holds.
    #[inline]
    pub(crate) fn flag_mail(&self, to: VertexId) {
        let next = self.round + 1;
        if self.mail_next[to as usize].swap(next, Ordering::Relaxed) != next {
            self.active.push(to);
        }
    }

    /// Enrolls `v` itself in the next round's worklist (the scheduler
    /// calls this for every stepped vertex that did not halt).
    #[inline]
    pub(crate) fn push_active(&self, v: VertexId) {
        self.active.push(v);
    }

    /// Stamps `from` as having sent something this round.
    #[inline]
    pub(crate) fn mark_sent(&self, from: VertexId) {
        self.sent_write[from as usize].store(self.round, Ordering::Relaxed);
    }
}

/// One vertex's mail for one round, read in place.
///
/// Iterating yields `(sender, &message)` ascending by sender, each
/// message borrowed straight from where its sender stored it — the
/// sender's broadcast cell or its unicast arena slot — so delivery
/// copies nothing and holds no per-receiver buffer. It is `Copy`, so a
/// program may walk it as often as the round needs.
pub struct Inbox<'a, M> {
    me: VertexId,
    /// `me`'s sorted neighbor list; `RevIndex` is parallel to it.
    neighbors: &'a [VertexId],
    mail: MailReader<'a, M>,
}

// Manual impls, like `MailReader`'s: copyable whatever `M` is.
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    pub(crate) fn new(me: VertexId, neighbors: &'a [VertexId], mail: MailReader<'a, M>) -> Self {
        debug_assert!(mail.round > 0, "round 0 delivers no messages");
        Inbox {
            me,
            neighbors,
            mail,
        }
    }

    /// Whether no neighbor sent this vertex anything last round.
    ///
    /// Reads the receiver's has-mail stamp alone: every queued message
    /// raises it, so it is exact.
    pub fn is_empty(&self) -> bool {
        let empty = !self.mail.has_mail(self.me);
        debug_assert_eq!(
            empty,
            self.walk_from(0).next().is_none(),
            "has-mail stamp of vertex {} disagrees with its senders' slots",
            self.me
        );
        empty
    }

    /// The round's messages as `(sender, &message)`, ascending by sender.
    pub fn iter(&self) -> InboxIter<'a, M> {
        // The stamp is exact (see `is_empty`): a mail-less vertex skips
        // the neighborhood walk.
        let start = if self.mail.has_mail(self.me) {
            0
        } else {
            self.neighbors.len()
        };
        self.walk_from(start)
    }

    fn walk_from(&self, next: usize) -> InboxIter<'a, M> {
        InboxIter { inbox: *self, next }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (VertexId, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]; see [`Inbox::iter`].
pub struct InboxIter<'a, M> {
    inbox: Inbox<'a, M>,
    /// Next adjacency position of the receiver to inspect.
    next: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (VertexId, &'a M);

    /// Walks the receiver's sorted neighbor list; for each distinct
    /// neighbor `u`, reads `u`'s broadcast cell, then `u`'s slot for the
    /// receiver in the previous round's arena.
    fn next(&mut self) -> Option<(VertexId, &'a M)> {
        let Inbox {
            me,
            neighbors,
            mail,
        } = self.inbox;
        let prev = mail.round - 1;
        while self.next < neighbors.len() {
            let i = self.next;
            self.next += 1;
            let u = neighbors[i];
            // Parallel edges: one slot per neighbor, read at the first copy.
            if i > 0 && neighbors[i - 1] == u {
                continue;
            }
            // Cheap first-level filter: skip neighbors that sent nothing
            // at all last round before touching their arena segment.
            if mail.sent_read[u as usize].load(Ordering::Relaxed) != prev {
                continue;
            }
            // Broadcast fast path: one flat cell read per sender.
            let cell = &mail.bcast_read[u as usize];
            if cell.is_stamped(prev) {
                let msg = cell.msg.as_ref().expect("stamped cell holds a message");
                return Some((u, msg));
            }
            let slot = mail.rev.slot_of_sender(me, i);
            let sender = &mail.read[u as usize];
            if sender.is_stamped(slot, prev) {
                return Some((u, sender.read(slot)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Graph;

    #[test]
    fn rev_index_points_back_to_sender_slots() {
        // 0-1, 0-2, 1-2 triangle plus pendant 3 on 1.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)]).unwrap();
        let rev = RevIndex::build(&g);
        for v in 0..4u32 {
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let slot = rev.slot_of_sender(v, i);
                assert_eq!(g.neighbors(u)[slot], v, "u={u} slot={slot} v={v}");
            }
        }
    }

    #[test]
    fn rev_index_collapses_parallel_edges_to_lower_bound() {
        let g = Graph::from_edges(2, [(0, 1), (0, 1)]).unwrap();
        let rev = RevIndex::build(&g);
        // Both copies of the edge map to slot 0 on the other side.
        assert_eq!(rev.slot_of_sender(0, 0), 0);
        assert_eq!(rev.slot_of_sender(0, 1), 0);
        assert_eq!(rev.slot_of_sender(1, 0), 0);
    }

    #[test]
    fn stamped_delivery_round_trip() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut boxes: Mailboxes<u32> = Mailboxes::new(&g);

        // Round 0: vertex 0 sends 41 to 1; vertex 2 sends 43 to 1.
        {
            let (write, _bcast, reader) = boxes.split_for_round(0);
            let slot = g.neighbors(0).partition_point(|&w| w < 1);
            write[0].put(slot, 0, 41);
            reader.flag_mail(1);
            let slot = g.neighbors(2).partition_point(|&w| w < 1);
            write[2].put(slot, 0, 43);
            reader.flag_mail(1);
        }

        // Round 1: vertex 1 has mail from 0 and 2, sorted by sender.
        let (_, _, reader) = boxes.split_for_round(1);
        assert!(reader.has_mail(1));
        assert!(!reader.has_mail(0) && !reader.has_mail(2));
        let inbox = Inbox::new(1, g.neighbors(1), reader);
        let got: Vec<(VertexId, u32)> = inbox.iter().map(|(u, &m)| (u, m)).collect();
        assert_eq!(got, vec![(0, 41), (2, 43)]);
        assert!(!inbox.is_empty());

        // Vertices 0 and 2 got nothing.
        let inbox = Inbox::new(0, g.neighbors(0), reader);
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
    }

    #[test]
    fn stale_stamps_from_two_rounds_ago_are_ignored() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut boxes: Mailboxes<u32> = Mailboxes::new(&g);
        // Round 0 writes arena 0.
        boxes.split_for_round(0).0[0].put(0, 0, 7);
        // Round 2 also writes arena 0 but does not re-send this message;
        // mark the sender active in round 2 so the gather actually
        // consults the slot stamp — it must not resurrect the round-0
        // message.
        boxes.mark_sent_for_test(0, 2);
        let (_, _, reader) = boxes.split_for_round(3);
        let leaked: Vec<_> = Inbox::new(1, g.neighbors(1), reader).walk_from(0).collect();
        assert!(leaked.is_empty(), "stale stamp leaked: {leaked:?}");
    }
}
