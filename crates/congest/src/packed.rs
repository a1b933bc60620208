//! Bandwidth-packed id streams: the delta-varint wire format that lets a
//! vertex ship several neighbor ids in one `O(log n)`-bit-budget message.
//!
//! The CONGEST model grants each edge `O(log n)` bits per round — the
//! engine's default budget is a fixed constant number of
//! `⌈log₂ n⌉`-bit *words* ([`crate::Network::new`]). A program streaming
//! a **sorted** id list one `u32` per round wastes almost all of that
//! budget: consecutive neighbor ids are close, so their gaps fit in one
//! or two bytes of a varint. This module defines the wire format the
//! adjacency-exchange phase of the triangle pipeline uses (DESIGN.md
//! §10):
//!
//! * the stream is a strictly increasing id sequence, split across
//!   rounds; stream state (the last id shipped) lives on both ends, so
//!   each message carries only fresh gaps;
//! * each id is encoded as the LEB128 varint of `id - prev` where
//!   `prev` starts at 0 and becomes `last_id + 1` after every id
//!   (strictly increasing streams therefore encode small non-negative
//!   deltas, and id 0 is representable);
//! * messages are packed **greedily**: ids are appended while the next
//!   varint still fits the per-round byte budget
//!   ([`round_budget_bytes`]), so every message except the last is
//!   within 4 bytes of full.
//!
//! Decoding is incremental and total: [`IdStreamDecoder::decode_each`]
//! returns a [`PackedError`] for truncated or overflowing varints
//! instead of panicking, so a corrupted payload surfaces as a validation
//! error the caller can report.

use crate::Payload;

/// Upper bound on the payload bytes of one [`PackedIds`] message.
///
/// Sized for the engine's default budget of `16·⌈log₂ n⌉` bits at
/// `n ≤ 2³²` (64 bytes); [`round_budget_bytes`] clamps larger configured
/// budgets down to it. Keeping the buffer inline (no heap indirection)
/// makes a packed message as cheap to copy through the mailbox arenas as
/// the plain `u32` it replaces.
pub const MAX_PACKED_BYTES: usize = 64;

/// Worst-case LEB128 length of a `u32` delta (5 × 7 bits ≥ 32 bits).
pub const MAX_VARINT_BYTES: usize = 5;

/// One packed message: up to [`MAX_PACKED_BYTES`] varint bytes, inline.
///
/// The model size ([`Payload::encoded_bits`]) is the *used* bytes only —
/// the inline capacity is a host-memory artifact, not wire format.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PackedIds {
    len: u8,
    bytes: [u8; MAX_PACKED_BYTES],
}

impl std::fmt::Debug for PackedIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedIds")
            .field("bytes", &&self.bytes[..self.len as usize])
            .finish()
    }
}

impl Payload for PackedIds {
    /// The used varint bytes, charged at 8 bits each.
    fn encoded_bits(&self) -> usize {
        8 * self.len as usize
    }
}

/// Why a packed payload failed to decode. Decoding is total: malformed
/// input yields one of these, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedError {
    /// The payload ended in the middle of a varint (continuation bit set
    /// on the last byte). `at` is the byte offset of the truncated
    /// varint's first byte.
    Truncated {
        /// Byte offset where the unterminated varint starts.
        at: usize,
    },
    /// A varint ran past [`MAX_VARINT_BYTES`] bytes or overflowed the
    /// `u32` id space. `at` is the byte offset of the offending varint.
    Overflow {
        /// Byte offset where the oversized varint starts.
        at: usize,
    },
}

impl std::fmt::Display for PackedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedError::Truncated { at } => {
                write!(f, "packed payload truncated mid-varint at byte {at}")
            }
            PackedError::Overflow { at } => {
                write!(f, "packed varint at byte {at} overflows the u32 id space")
            }
        }
    }
}

impl std::error::Error for PackedError {}

impl PackedIds {
    /// An empty message (0 bytes, 0 model bits).
    pub fn empty() -> Self {
        PackedIds {
            len: 0,
            bytes: [0; MAX_PACKED_BYTES],
        }
    }

    /// Wraps raw bytes as a message, or `None` if they exceed
    /// [`MAX_PACKED_BYTES`]. The bytes are *not* validated — use
    /// [`PackedIds::validate`] or decode to find malformed varints.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() > MAX_PACKED_BYTES {
            return None;
        }
        let mut msg = PackedIds::empty();
        msg.bytes[..bytes.len()].copy_from_slice(bytes);
        msg.len = bytes.len() as u8;
        Some(msg)
    }

    /// The used payload bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Number of ids carried, or the decode error — a full well-formedness
    /// check without materializing the ids.
    pub fn validate(&self) -> Result<usize, PackedError> {
        IdStreamDecoder::new().decode_each(self, |_| {})
    }

    fn push(&mut self, b: u8) {
        self.bytes[self.len as usize] = b;
        self.len += 1;
    }
}

/// Sender-side stream state: packs a strictly increasing id slice into
/// successive budget-bounded messages.
///
/// The encoder owns only cursors — the id list itself stays wherever the
/// program keeps it — so one encoder per vertex costs two words.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdStreamEncoder {
    /// Next index of the backing slice to encode.
    pos: usize,
    /// Delta base: 0 initially, `last_id + 1` after every encoded id.
    prev: u32,
}

impl IdStreamEncoder {
    /// A fresh encoder positioned at the start of the stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many items of `items` have been packed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether the whole slice has been shipped.
    pub fn finished(&self, items: &[u32]) -> bool {
        self.pos >= items.len()
    }

    /// Packs the next run of `items` greedily into one message: ids are
    /// appended while their varint fits `budget_bytes` (clamped to
    /// [`MAX_PACKED_BYTES`]). Returns `None` when the stream is
    /// exhausted.
    ///
    /// `items` must be strictly increasing and must be the same slice on
    /// every call (the encoder resumes mid-stream); both are debug
    /// asserted. A `budget_bytes < MAX_VARINT_BYTES` would stall on a
    /// worst-case gap, so the budget is raised to [`MAX_VARINT_BYTES`] —
    /// callers wanting model fidelity keep budgets ≥ one word anyway.
    pub fn next_message(&mut self, items: &[u32], budget_bytes: usize) -> Option<PackedIds> {
        if self.pos >= items.len() {
            return None;
        }
        let budget = budget_bytes.clamp(MAX_VARINT_BYTES, MAX_PACKED_BYTES);
        let mut msg = PackedIds::empty();
        while self.pos < items.len() {
            let id = items[self.pos];
            debug_assert!(
                id >= self.prev,
                "id stream must be strictly increasing ({} after {})",
                id,
                self.prev.wrapping_sub(1),
            );
            let delta = id.wrapping_sub(self.prev);
            let width = varint_len(delta);
            if msg.len as usize + width > budget {
                break;
            }
            encode_varint(delta, &mut msg);
            self.prev = id.wrapping_add(1);
            self.pos += 1;
        }
        debug_assert!(msg.len > 0, "one varint always fits the clamped budget");
        Some(msg)
    }
}

/// Receiver-side stream state: the mirror of [`IdStreamEncoder`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdStreamDecoder {
    prev: u32,
}

impl IdStreamDecoder {
    /// A fresh decoder positioned at the start of the stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes every id of `msg`, calling `emit` in stream order, and
    /// returns how many ids the message carried.
    ///
    /// # Errors
    ///
    /// [`PackedError::Truncated`] if the payload ends mid-varint,
    /// [`PackedError::Overflow`] if a varint exceeds the `u32` id space.
    /// On error the decoder state is unchanged from the last fully
    /// decoded id, and `emit` has been called for exactly the ids
    /// decoded before the error.
    pub fn decode_each(
        &mut self,
        msg: &PackedIds,
        mut emit: impl FnMut(u32),
    ) -> Result<usize, PackedError> {
        let bytes = msg.bytes();
        let mut at = 0usize;
        let mut count = 0usize;
        while at < bytes.len() {
            let (delta, width) = decode_varint(&bytes[at..], at)?;
            let id = self.prev.wrapping_add(delta);
            self.prev = id.wrapping_add(1);
            emit(id);
            at += width;
            count += 1;
        }
        Ok(count)
    }
}

/// LEB128 length of `delta`.
fn varint_len(delta: u32) -> usize {
    match delta {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

fn encode_varint(mut delta: u32, out: &mut PackedIds) {
    while delta >= 0x80 {
        out.push((delta as u8) | 0x80);
        delta >>= 7;
    }
    out.push(delta as u8);
}

/// Decodes one LEB128 varint from the front of `bytes`; `offset` is only
/// used to report error positions. Returns `(value, bytes consumed)`.
fn decode_varint(bytes: &[u8], offset: usize) -> Result<(u32, usize), PackedError> {
    let mut value: u32 = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if i >= MAX_VARINT_BYTES {
            return Err(PackedError::Overflow { at: offset });
        }
        let payload = (b & 0x7F) as u32;
        // The 5th byte may only carry the top 4 bits of a u32.
        if i == MAX_VARINT_BYTES - 1 && payload > 0x0F {
            return Err(PackedError::Overflow { at: offset });
        }
        value |= payload << (7 * i);
        if b & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    Err(PackedError::Truncated { at: offset })
}

/// The model's word size for an `n`-vertex network: `⌈log₂ n⌉` bits
/// (with the conventional floor of 1 bit for degenerate `n`).
pub fn word_bits(n: usize) -> usize {
    ((n.max(2)) as f64).log2().ceil() as usize
}

/// The per-round packing budget in bytes for a link with
/// `bandwidth_bits` of budget: the whole per-edge budget, floored to
/// bytes and clamped to [`MAX_PACKED_BYTES`] (and up to
/// [`MAX_VARINT_BYTES`] so a worst-case gap always ships).
pub fn round_budget_bytes(bandwidth_bits: usize) -> usize {
    (bandwidth_bits / 8).clamp(MAX_VARINT_BYTES, MAX_PACKED_BYTES)
}

/// A *guaranteed* lower bound on ids per full message under
/// `budget_bytes`: every varint is at most [`MAX_VARINT_BYTES`] bytes,
/// so at least this many ids fit regardless of gap structure. The
/// round-complexity regression test bounds measured exchange rounds by
/// `⌈Δ / min_ids_per_message⌉ + O(1)`; real streams pack 2–5× more.
pub fn min_ids_per_message(budget_bytes: usize) -> usize {
    (budget_bytes.min(MAX_PACKED_BYTES) / MAX_VARINT_BYTES).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drains `items` through an encoder with the given budget and
    /// returns the messages.
    fn pack_all(items: &[u32], budget_bytes: usize) -> Vec<PackedIds> {
        let mut enc = IdStreamEncoder::new();
        let mut out = Vec::new();
        while let Some(msg) = enc.next_message(items, budget_bytes) {
            out.push(msg);
        }
        assert!(enc.finished(items));
        out
    }

    fn decode_all(msgs: &[PackedIds]) -> Vec<u32> {
        let mut dec = IdStreamDecoder::new();
        let mut out = Vec::new();
        for m in msgs {
            dec.decode_each(m, |id| out.push(id)).expect("valid stream");
        }
        out
    }

    /// Strictly increasing id list from arbitrary (gap, start) choices.
    fn ascending(start: u32, gaps: &[u32]) -> Vec<u32> {
        let mut v = Vec::with_capacity(gaps.len());
        let mut cur = start % 1000;
        for &g in gaps {
            v.push(cur);
            cur = cur.saturating_add(g % 5000).saturating_add(1);
        }
        v
    }

    #[test]
    fn round_trips_simple_streams() {
        for items in [
            vec![],
            vec![0],
            vec![0, 1, 2, 3],
            vec![5, 100, 101, 4000, 1 << 20, u32::MAX - 1],
            (0..500).map(|i| i * 3).collect::<Vec<u32>>(),
        ] {
            let msgs = pack_all(&items, 16);
            assert_eq!(decode_all(&msgs), items);
        }
    }

    #[test]
    fn empty_stream_produces_no_messages() {
        assert!(pack_all(&[], 16).is_empty());
        let mut enc = IdStreamEncoder::new();
        assert!(enc.next_message(&[], 64).is_none());
    }

    #[test]
    fn greedy_packing_respects_the_byte_budget_and_makes_progress() {
        let items: Vec<u32> = (0..1000).map(|i| i * 11).collect();
        for budget in [5usize, 8, 16, 36, 64, 500] {
            let msgs = pack_all(&items, budget);
            let cap = budget.clamp(MAX_VARINT_BYTES, MAX_PACKED_BYTES);
            for m in &msgs {
                assert!(m.bytes().len() <= cap, "budget {budget} violated");
                assert!(m.encoded_bits() <= 8 * cap);
            }
            // Dense small gaps: at least min_ids ids per full message.
            let min_ids = min_ids_per_message(cap);
            assert!(msgs.len() <= items.len().div_ceil(min_ids));
            assert_eq!(decode_all(&msgs), items);
        }
    }

    #[test]
    fn validate_counts_ids() {
        let items = vec![3, 9, 12, 100_000];
        let msgs = pack_all(&items, 64);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].validate(), Ok(4));
        assert_eq!(PackedIds::empty().validate(), Ok(0));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        // 300 encodes as 2 bytes; keep only the first (continuation set).
        let msgs = pack_all(&[300], 16);
        let full = msgs[0].bytes();
        assert_eq!(full.len(), 2);
        let cut = PackedIds::from_bytes(&full[..1]).unwrap();
        assert_eq!(cut.validate(), Err(PackedError::Truncated { at: 0 }));
    }

    #[test]
    fn oversized_varints_are_overflow_errors() {
        // Six continuation bytes: runs past MAX_VARINT_BYTES.
        let long = PackedIds::from_bytes(&[0x80; 6]).unwrap();
        assert!(matches!(
            long.validate(),
            Err(PackedError::Overflow { at: 0 })
        ));
        // A 5-byte varint whose top byte exceeds u32's remaining 4 bits.
        let wide = PackedIds::from_bytes(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F]).unwrap();
        assert!(matches!(
            wide.validate(),
            Err(PackedError::Overflow { at: 0 })
        ));
        // The maximum id itself is fine.
        let msgs = pack_all(&[u32::MAX], 16);
        assert_eq!(decode_all(&msgs), vec![u32::MAX]);
    }

    #[test]
    fn from_bytes_rejects_oversized_payloads() {
        assert!(PackedIds::from_bytes(&[0u8; MAX_PACKED_BYTES]).is_some());
        assert!(PackedIds::from_bytes(&[0u8; MAX_PACKED_BYTES + 1]).is_none());
    }

    #[test]
    fn budget_helpers_are_consistent() {
        assert_eq!(word_bits(2), 1);
        assert_eq!(word_bits(1024), 10);
        assert_eq!(word_bits(1_000_000), 20);
        // The engine default 16·⌈log₂ n⌉ with a 128-bit floor.
        assert_eq!(round_budget_bytes(128), 16);
        assert_eq!(round_budget_bytes(16 * 20), 40);
        assert_eq!(round_budget_bytes(8), MAX_VARINT_BYTES);
        assert_eq!(round_budget_bytes(100_000), MAX_PACKED_BYTES);
        assert_eq!(min_ids_per_message(16), 3);
        assert_eq!(min_ids_per_message(64), 12);
        assert_eq!(min_ids_per_message(1), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn fuzz_round_trip_identity(
            start in any::<u32>(),
            gaps in proptest::collection::vec(any::<u32>(), 64),
            budget in 5usize..80,
        ) {
            let items = ascending(start, &gaps);
            let msgs = pack_all(&items, budget);
            prop_assert_eq!(decode_all(&msgs), items);
        }

        #[test]
        fn fuzz_decode_of_arbitrary_bytes_never_panics(
            raw in proptest::collection::vec(any::<u32>(), 24),
            len in 0usize..24,
        ) {
            let bytes: Vec<u8> = raw.iter().take(len).map(|&w| w as u8).collect();
            let msg = PackedIds::from_bytes(&bytes).unwrap();
            // Total: either a count or a typed error, never a panic.
            let verdict = msg.validate();
            let mut ids = Vec::new();
            let decoded = IdStreamDecoder::new().decode_each(&msg, |id| ids.push(id));
            prop_assert_eq!(verdict, decoded);
            if let Ok(count) = decoded {
                prop_assert_eq!(ids.len(), count);
            }
        }

        #[test]
        fn fuzz_truncating_a_valid_stream_errs_or_shortens(
            start in any::<u32>(),
            gaps in proptest::collection::vec(any::<u32>(), 32),
            cut in 0usize..64,
        ) {
            let items = ascending(start, &gaps);
            let msgs = pack_all(&items, 64);
            let full = msgs[0].bytes();
            let cut = cut.min(full.len());
            let truncated = PackedIds::from_bytes(&full[..cut]).unwrap();
            match truncated.validate() {
                // Cut on a varint boundary: a valid prefix of the stream.
                Ok(count) => {
                    let mut ids = Vec::new();
                    IdStreamDecoder::new()
                        .decode_each(&truncated, |id| ids.push(id))
                        .unwrap();
                    prop_assert_eq!(count, ids.len());
                    prop_assert_eq!(&ids[..], &items[..count]);
                }
                // Cut mid-varint: a typed truncation error.
                Err(e) => prop_assert!(matches!(e, PackedError::Truncated { .. })),
            }
        }
    }
}
