//! The wire protocol: length-prefixed binary frames for the
//! triangle-query service.
//!
//! Every message on the wire is one [`Frame`]: a fixed 24-byte
//! little-endian header ([`FrameHeader`]) followed by `payload_len`
//! payload bytes. The header carries a magic, a protocol version, an
//! opcode, a client-chosen correlation id (echoed verbatim in the
//! response, so pipelined queries can complete out of order), and the
//! server's **engine generation** — bumped on every hot-swap reload, zero
//! in requests — so a client observes an artifact swap from the response
//! stream alone.
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0x5154 ("TQ", little-endian)
//! 2       1     version      PROTOCOL_VERSION
//! 3       1     opcode       Opcode as u8
//! 4       4     payload_len  u32, <= max frame payload
//! 8       8     id           correlation id, echoed in responses
//! 16      8     generation   engine generation (responses; 0 in requests)
//! 24      -     payload      payload_len bytes, opcode-specific
//! ```
//!
//! Decoding is **total**: every malformed input — truncation, a bad
//! magic, an unknown version or opcode, an oversize length prefix, a
//! payload that does not parse or leaves trailing bytes — returns a typed
//! [`ProtocolError`], never panics and never reads out of bounds. This
//! mirrors `storage::format`'s fail-closed philosophy: the server cannot
//! crash on client bytes, and a client cannot crash on server bytes.
//! `tests/server_protocol.rs` fuzzes both directions.

use routing::QueryCharge;
use triangle::service::{Answer, EdgeSupport, Emit, Query, QueryOutcome, ServiceError};
use triangle::Triangle;

/// First two header bytes, little-endian `"TQ"`.
pub const MAGIC: u16 = 0x5154;

/// Version byte every frame carries; bump on any layout change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bytes of the fixed frame header.
pub const HEADER_LEN: usize = 24;

/// Default cap on a frame's payload length (16 MiB). Large enumerations
/// on hub vertices dominate; anything bigger is a protocol violation.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 << 20;

/// Frame kinds. Requests flow client → server (high bit clear), responses
/// server → client (high bit set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Request: one [`Query`] payload.
    Query = 0x01,
    /// Request: liveness probe, empty payload.
    Ping = 0x02,
    /// Request: re-open the artifact and hot-swap the engine (empty
    /// payload). Answered with [`Opcode::Reloaded`].
    Reload = 0x03,
    /// Response: a [`QueryOutcome`] payload.
    Answer = 0x81,
    /// Response: a typed [`WireError`] payload.
    Error = 0x82,
    /// Response to [`Opcode::Ping`], empty payload.
    Pong = 0x83,
    /// Response: the server is saturated (work queue full, or the
    /// connection cap); the query was **not** executed. Empty payload.
    Busy = 0x84,
    /// Response to [`Opcode::Reload`]: payload is one u8 — 1 if the
    /// engine was swapped, 0 if the reload failed and the old engine
    /// keeps serving. The header's `generation` is current either way.
    Reloaded = 0x85,
}

impl Opcode {
    /// Total decode of the opcode byte.
    pub fn from_u8(b: u8) -> Result<Opcode, ProtocolError> {
        Ok(match b {
            0x01 => Opcode::Query,
            0x02 => Opcode::Ping,
            0x03 => Opcode::Reload,
            0x81 => Opcode::Answer,
            0x82 => Opcode::Error,
            0x83 => Opcode::Pong,
            0x84 => Opcode::Busy,
            0x85 => Opcode::Reloaded,
            other => return Err(ProtocolError::UnknownOpcode { got: other }),
        })
    }
}

/// The fixed 24-byte frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub opcode: Opcode,
    /// Correlation id: chosen by the client, echoed by the server.
    pub id: u64,
    /// Engine generation (responses only; requests carry 0).
    pub generation: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Serializes the header into its 24 wire bytes.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        buf[2] = PROTOCOL_VERSION;
        buf[3] = self.opcode as u8;
        buf[4..8].copy_from_slice(&self.payload_len.to_le_bytes());
        buf[8..16].copy_from_slice(&self.id.to_le_bytes());
        buf[16..24].copy_from_slice(&self.generation.to_le_bytes());
        buf
    }

    /// Total decode of 24 header bytes. `max_payload` bounds the length
    /// prefix — a single forged frame must not make a peer allocate
    /// gigabytes.
    pub fn decode(buf: &[u8; HEADER_LEN], max_payload: u32) -> Result<FrameHeader, ProtocolError> {
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != MAGIC {
            return Err(ProtocolError::BadMagic { got: magic });
        }
        if buf[2] != PROTOCOL_VERSION {
            return Err(ProtocolError::UnsupportedVersion { got: buf[2] });
        }
        let opcode = Opcode::from_u8(buf[3])?;
        let payload_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if payload_len > max_payload {
            return Err(ProtocolError::Oversize {
                len: payload_len,
                max: max_payload,
            });
        }
        let id = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let generation = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        Ok(FrameHeader {
            opcode,
            id,
            generation,
            payload_len,
        })
    }
}

/// One complete wire message: header + payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The decoded header (`payload_len` always equals `payload.len()`).
    pub header: FrameHeader,
    /// The opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame, filling in the header's `payload_len`.
    pub fn new(opcode: Opcode, id: u64, generation: u64, payload: Vec<u8>) -> Frame {
        Frame {
            header: FrameHeader {
                opcode,
                id,
                generation,
                payload_len: payload.len() as u32,
            },
            payload,
        }
    }

    /// Serializes header + payload into one byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.header.encode());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Total decode of one frame from a byte slice; trailing bytes after
    /// the framed length are a typed error (a stream codec uses
    /// [`crate::codec`] instead, which consumes exactly one frame).
    pub fn decode(bytes: &[u8], max_payload: u32) -> Result<Frame, ProtocolError> {
        if bytes.len() < HEADER_LEN {
            return Err(ProtocolError::Truncated {
                expected: HEADER_LEN,
                got: bytes.len(),
            });
        }
        let head: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("checked length");
        let header = FrameHeader::decode(head, max_payload)?;
        let want = HEADER_LEN + header.payload_len as usize;
        if bytes.len() < want {
            return Err(ProtocolError::Truncated {
                expected: want,
                got: bytes.len(),
            });
        }
        if bytes.len() > want {
            return Err(ProtocolError::TrailingBytes {
                extra: bytes.len() - want,
            });
        }
        Ok(Frame {
            header,
            payload: bytes[HEADER_LEN..want].to_vec(),
        })
    }
}

/// Every way a wire input can be malformed. Decoding never panics; it
/// returns one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Fewer bytes than the header (or the framed length) promises.
    Truncated {
        /// Bytes needed to finish the frame.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        got: u16,
    },
    /// A version this build does not speak.
    UnsupportedVersion {
        /// The version byte found.
        got: u8,
    },
    /// An opcode byte outside the table.
    UnknownOpcode {
        /// The opcode byte found.
        got: u8,
    },
    /// The length prefix exceeds the negotiated cap.
    Oversize {
        /// The claimed payload length.
        len: u32,
        /// The cap it violates.
        max: u32,
    },
    /// The payload does not parse under its opcode's grammar.
    BadPayload {
        /// What went wrong.
        reason: String,
    },
    /// Bytes left over after the payload grammar completed.
    TrailingBytes {
        /// How many bytes were left unconsumed.
        extra: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated { expected, got } => {
                write!(f, "truncated frame: need {expected} bytes, have {got}")
            }
            ProtocolError::BadMagic { got } => write!(f, "bad magic 0x{got:04x}"),
            ProtocolError::UnsupportedVersion { got } => {
                write!(f, "unsupported protocol version {got}")
            }
            ProtocolError::UnknownOpcode { got } => write!(f, "unknown opcode 0x{got:02x}"),
            ProtocolError::Oversize { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            ProtocolError::BadPayload { reason } => write!(f, "bad payload: {reason}"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A per-query failure delivered in an [`Opcode::Error`] frame. The
/// connection survives; only the one query failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The query named a vertex outside the served graph
    /// ([`ServiceError::UnknownVertex`] on the server side).
    UnknownVertex {
        /// The offending vertex id.
        v: u32,
    },
    /// The request frame was malformed; `reason` echoes the server-side
    /// [`ProtocolError`].
    Malformed {
        /// Human-readable echo of the protocol error.
        reason: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownVertex { v } => write!(f, "unknown vertex {v}"),
            WireError::Malformed { reason } => write!(f, "malformed request: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ServiceError> for WireError {
    fn from(e: ServiceError) -> WireError {
        match e {
            ServiceError::UnknownVertex { v } => WireError::UnknownVertex { v },
        }
    }
}

fn bad(reason: impl Into<String>) -> ProtocolError {
    ProtocolError::BadPayload {
        reason: reason.into(),
    }
}

/// Little-endian payload writer (the same shape as `storage`'s internal
/// encoder; duplicated here because that one is deliberately private to
/// its file-format module).
#[derive(Debug, Default)]
struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian payload reader; every read can fail with
/// [`ProtocolError::Truncated`] and [`PayloadReader::finish`] rejects
/// trailing bytes.
#[derive(Debug)]
struct PayloadReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, at: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(len).ok_or(ProtocolError::Truncated {
            expected: usize::MAX,
            got: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated {
                expected: end,
                got: self.buf.len(),
            });
        }
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn get_u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn get_u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A length prefix for a sequence of `elem_bytes`-sized elements; the
    /// claimed total must fit in the remaining payload, so a forged count
    /// cannot drive a huge allocation.
    fn get_count(&mut self, elem_bytes: usize) -> Result<usize, ProtocolError> {
        let count = self.get_u32()? as usize;
        let need = count
            .checked_mul(elem_bytes.max(1))
            .ok_or_else(|| bad("element count overflows"))?;
        if self.at + need > self.buf.len() {
            return Err(ProtocolError::Truncated {
                expected: self.at + need,
                got: self.buf.len(),
            });
        }
        Ok(count)
    }

    fn get_str(&mut self) -> Result<String, ProtocolError> {
        let len = self.get_count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.at != self.buf.len() {
            Err(ProtocolError::TrailingBytes {
                extra: self.buf.len() - self.at,
            })
        } else {
            Ok(())
        }
    }
}

fn emit_to_u8(emit: Emit) -> u8 {
    match emit {
        Emit::Count => 0,
        Emit::Enumerate => 1,
    }
}

fn emit_from_u8(b: u8) -> Result<Emit, ProtocolError> {
    match b {
        0 => Ok(Emit::Count),
        1 => Ok(Emit::Enumerate),
        other => Err(bad(format!("emit flag must be 0/1, got {other}"))),
    }
}

/// Serializes a [`Query`] into [`Opcode::Query`] payload bytes.
pub fn encode_query(q: &Query) -> Vec<u8> {
    let mut w = PayloadWriter::default();
    match *q {
        Query::Vertex { v, emit } => {
            w.put_u8(1);
            w.put_u32(v);
            w.put_u8(emit_to_u8(emit));
        }
        Query::Edge { u, v, emit } => {
            w.put_u8(2);
            w.put_u32(u);
            w.put_u32(v);
            w.put_u8(emit_to_u8(emit));
        }
        Query::TopKBySupport { v, k } => {
            w.put_u8(3);
            w.put_u32(v);
            w.put_u64(k as u64);
        }
    }
    w.buf
}

/// Total decode of [`Opcode::Query`] payload bytes.
pub fn decode_query(bytes: &[u8]) -> Result<Query, ProtocolError> {
    let mut r = PayloadReader::new(bytes);
    let q = match r.get_u8()? {
        1 => Query::Vertex {
            v: r.get_u32()?,
            emit: emit_from_u8(r.get_u8()?)?,
        },
        2 => Query::Edge {
            u: r.get_u32()?,
            v: r.get_u32()?,
            emit: emit_from_u8(r.get_u8()?)?,
        },
        3 => Query::TopKBySupport {
            v: r.get_u32()?,
            k: usize::try_from(r.get_u64()?).map_err(|_| bad("k exceeds usize"))?,
        },
        other => return Err(bad(format!("unknown query tag {other}"))),
    };
    r.finish()?;
    Ok(q)
}

/// Serializes a [`QueryOutcome`] (answer + charge) into
/// [`Opcode::Answer`] payload bytes.
pub fn encode_outcome(o: &QueryOutcome) -> Vec<u8> {
    let mut w = PayloadWriter::default();
    w.put_u64(o.charge.words);
    w.put_u64(o.charge.queries);
    w.put_u64(o.charge.rounds);
    w.put_u64(o.charge.max_congestion);
    w.put_u8(o.charge.delivered as u8);
    match &o.answer {
        Answer::Count(c) => {
            w.put_u8(1);
            w.put_u64(*c);
        }
        Answer::Triangles(ts) => {
            w.put_u8(2);
            w.put_u32(ts.len() as u32);
            for t in ts {
                w.put_u32(t.a);
                w.put_u32(t.b);
                w.put_u32(t.c);
            }
        }
        Answer::TopEdges(es) => {
            w.put_u8(3);
            w.put_u32(es.len() as u32);
            for e in es {
                w.put_u32(e.u);
                w.put_u32(e.v);
                w.put_u64(e.support);
            }
        }
    }
    w.buf
}

/// Total decode of [`Opcode::Answer`] payload bytes. Triangle vertex
/// triples must be strictly ascending (the canonical form
/// [`Triangle::new`] enforces) — a forged frame cannot reach its panic.
pub fn decode_outcome(bytes: &[u8]) -> Result<QueryOutcome, ProtocolError> {
    let mut r = PayloadReader::new(bytes);
    let charge = QueryCharge {
        words: r.get_u64()?,
        queries: r.get_u64()?,
        rounds: r.get_u64()?,
        max_congestion: r.get_u64()?,
        delivered: match r.get_u8()? {
            0 => false,
            1 => true,
            other => return Err(bad(format!("delivered flag must be 0/1, got {other}"))),
        },
    };
    let answer = match r.get_u8()? {
        1 => Answer::Count(r.get_u64()?),
        2 => {
            let count = r.get_count(12)?;
            let mut ts = Vec::with_capacity(count);
            for _ in 0..count {
                let (a, b, c) = (r.get_u32()?, r.get_u32()?, r.get_u32()?);
                if !(a < b && b < c) {
                    return Err(bad(format!("triangle ({a}, {b}, {c}) is not canonical")));
                }
                ts.push(Triangle { a, b, c });
            }
            Answer::Triangles(ts)
        }
        3 => {
            let count = r.get_count(16)?;
            let mut es = Vec::with_capacity(count);
            for _ in 0..count {
                es.push(EdgeSupport {
                    u: r.get_u32()?,
                    v: r.get_u32()?,
                    support: r.get_u64()?,
                });
            }
            Answer::TopEdges(es)
        }
        other => return Err(bad(format!("unknown answer tag {other}"))),
    };
    r.finish()?;
    Ok(QueryOutcome { answer, charge })
}

/// Serializes a [`WireError`] into [`Opcode::Error`] payload bytes.
pub fn encode_error(e: &WireError) -> Vec<u8> {
    let mut w = PayloadWriter::default();
    match e {
        WireError::UnknownVertex { v } => {
            w.put_u8(1);
            w.put_u32(*v);
        }
        WireError::Malformed { reason } => {
            w.put_u8(2);
            w.put_str(reason);
        }
    }
    w.buf
}

/// Total decode of [`Opcode::Error`] payload bytes.
pub fn decode_error(bytes: &[u8]) -> Result<WireError, ProtocolError> {
    let mut r = PayloadReader::new(bytes);
    let e = match r.get_u8()? {
        1 => WireError::UnknownVertex { v: r.get_u32()? },
        2 => WireError::Malformed {
            reason: r.get_str()?,
        },
        other => return Err(bad(format!("unknown error tag {other}"))),
    };
    r.finish()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FrameHeader {
            opcode: Opcode::Answer,
            id: 0xDEADBEEF_01234567,
            generation: 42,
            payload_len: 9,
        };
        let bytes = h.encode();
        assert_eq!(FrameHeader::decode(&bytes, 1 << 20).unwrap(), h);
    }

    #[test]
    fn header_rejects_each_malformation() {
        let good = FrameHeader {
            opcode: Opcode::Query,
            id: 7,
            generation: 0,
            payload_len: 100,
        }
        .encode();
        let mut bad_magic = good;
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            FrameHeader::decode(&bad_magic, 1 << 20),
            Err(ProtocolError::BadMagic { .. })
        ));
        let mut bad_version = good;
        bad_version[2] = 99;
        assert!(matches!(
            FrameHeader::decode(&bad_version, 1 << 20),
            Err(ProtocolError::UnsupportedVersion { got: 99 })
        ));
        let mut bad_op = good;
        bad_op[3] = 0x7F;
        assert!(matches!(
            FrameHeader::decode(&bad_op, 1 << 20),
            Err(ProtocolError::UnknownOpcode { got: 0x7F })
        ));
        assert!(matches!(
            FrameHeader::decode(&good, 10),
            Err(ProtocolError::Oversize { len: 100, max: 10 })
        ));
    }

    #[test]
    fn query_payloads_roundtrip() {
        for q in [
            Query::Vertex {
                v: 0,
                emit: Emit::Count,
            },
            Query::Vertex {
                v: u32::MAX,
                emit: Emit::Enumerate,
            },
            Query::Edge {
                u: 3,
                v: 9,
                emit: Emit::Count,
            },
            Query::TopKBySupport { v: 17, k: 5 },
        ] {
            assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
        }
    }

    #[test]
    fn outcome_payloads_roundtrip() {
        let charge = QueryCharge {
            words: 10,
            queries: 3,
            rounds: 12,
            max_congestion: 4,
            delivered: true,
        };
        for answer in [
            Answer::Count(99),
            Answer::Triangles(vec![Triangle::new(5, 2, 9), Triangle::new(0, 1, 2)]),
            Answer::TopEdges(vec![EdgeSupport {
                u: 1,
                v: 2,
                support: 7,
            }]),
        ] {
            let o = QueryOutcome { answer, charge };
            assert_eq!(decode_outcome(&encode_outcome(&o)).unwrap(), o);
        }
    }

    #[test]
    fn forged_triangle_payload_is_an_error_not_a_panic() {
        let o = QueryOutcome {
            answer: Answer::Triangles(vec![Triangle::new(0, 1, 2)]),
            charge: QueryCharge::default(),
        };
        let mut bytes = encode_outcome(&o);
        // Overwrite the triangle's first vertex with its last: no longer
        // strictly ascending, must decode to BadPayload.
        let len = bytes.len();
        let first = len - 12;
        bytes.copy_within(len - 4..len, first);
        assert!(matches!(
            decode_outcome(&bytes),
            Err(ProtocolError::BadPayload { .. })
        ));
    }

    #[test]
    fn forged_count_cannot_demand_a_huge_allocation() {
        let o = QueryOutcome {
            answer: Answer::Triangles(Vec::new()),
            charge: QueryCharge::default(),
        };
        let mut bytes = encode_outcome(&o);
        // The triangle count is the last u32; forge it sky-high.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_outcome(&bytes),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn error_payloads_roundtrip() {
        for e in [
            WireError::UnknownVertex { v: 12 },
            WireError::Malformed {
                reason: "bad payload: unknown query tag 9".to_string(),
            },
        ] {
            assert_eq!(decode_error(&encode_error(&e)).unwrap(), e);
        }
    }

    #[test]
    fn frame_decode_rejects_trailing_bytes() {
        let f = Frame::new(Opcode::Ping, 1, 0, Vec::new());
        let mut bytes = f.encode();
        assert_eq!(Frame::decode(&bytes, 1024).unwrap(), f);
        bytes.push(0);
        assert!(matches!(
            Frame::decode(&bytes, 1024),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        ));
    }
}
