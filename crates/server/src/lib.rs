//! The wire frontend: serve the triangle-query engine over TCP with a
//! length-prefixed binary protocol, artifact-restore startup, and
//! hot-swap reloads.
//!
//! The in-process tier (`triangle::service`, PR 7) proved that one
//! decomposition can amortize across thousands of point queries; the
//! storage tier (PR 8) made the built engine a file that restores in
//! microseconds. This crate closes the remaining gap to an actual
//! service: a network listener in front of [`QueryEngine`], built on
//! `std::net` alone — no async runtime, no serialization framework.
//!
//! * [`protocol`] — the frame grammar: a 24-byte little-endian header
//!   (magic, version, opcode, payload length, correlation id, engine
//!   generation) and the payload codecs for queries, outcomes, and
//!   errors. Decoding is **total**: every malformed input — truncated,
//!   oversized, bit-flipped, forged length prefix — is a typed
//!   [`ProtocolError`], never a panic, the same fail-closed stance as
//!   `storage::format`.
//! * [`codec`] — framing over any `Read`/`Write` pair: clean EOF,
//!   mid-frame truncation, and malformed bytes are three distinct
//!   outcomes.
//! * [`server`] — the threaded serve loop: per-connection readers feed a
//!   shared bounded queue; each executor takes what has queued up and
//!   answers it against one `(engine, generation)` snapshot; a full
//!   queue answers `Busy` instead of growing. [`serve_path`] restores
//!   the engine from a `.csr` artifact at startup and re-opens it on
//!   reload — in-flight batches drain against the old engine while new
//!   ones see the new.
//! * [`client`] — a correlation-id-matched blocking client with
//!   pipelining, used by the CI smoke driver and the benches.
//!
//! # Examples
//!
//! Serve an engine on a loopback port and query it over the wire:
//!
//! ```
//! use std::sync::Arc;
//! use triangle::{PipelineParams, service::{Query, QueryEngine}};
//! use server::{serve_engine, Client, ResponseBody, ServerConfig};
//!
//! let g = graph::gen::gnp(40, 0.2, 7).unwrap();
//! let engine = Arc::new(QueryEngine::build(&g, &PipelineParams::default()));
//! let handle = serve_engine(Arc::clone(&engine), &ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let q = Query::Vertex { v: 3, emit: triangle::service::Emit::Count };
//! let resp = client.query(q).unwrap();
//! match resp.body {
//!     ResponseBody::Answer(outcome) => {
//!         // The wire answer is bit-identical to the in-process one.
//!         assert_eq!(outcome, engine.answer(q).unwrap());
//!     }
//!     other => panic!("expected an answer, got {other:?}"),
//! }
//! assert_eq!(resp.generation, 1);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ResponseBody, WireResponse};
pub use codec::{read_frame, write_frame, CodecError};
pub use protocol::{Frame, FrameHeader, Opcode, ProtocolError, WireError};
pub use server::{serve_engine, serve_path, ServeError, ServerConfig, ServerHandle, StatsSnapshot};

#[cfg(doc)]
use triangle::service::QueryEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use triangle::service::{Emit, Query, QueryEngine};
    use triangle::PipelineParams;

    fn small_engine() -> Arc<QueryEngine> {
        let g = graph::gen::gnp(60, 0.2, 17).unwrap();
        Arc::new(QueryEngine::build(&g, &PipelineParams::default()))
    }

    fn mixed_queries(n: u32, count: usize) -> Vec<Query> {
        (0..count)
            .map(|i| {
                let v = (i as u32 * 7 + 3) % n;
                match i % 4 {
                    0 => Query::Vertex {
                        v,
                        emit: Emit::Count,
                    },
                    1 => Query::Vertex {
                        v,
                        emit: Emit::Enumerate,
                    },
                    2 => Query::Edge {
                        u: v,
                        v: (v + 1) % n,
                        emit: Emit::Count,
                    },
                    _ => Query::TopKBySupport { v, k: 3 },
                }
            })
            .collect()
    }

    /// One wire response against the in-process oracle, generation 1.
    fn assert_oracle_exact(engine: &QueryEngine, q: Query, resp: &WireResponse) {
        match (&resp.body, engine.answer(q)) {
            (ResponseBody::Answer(wire), Ok(local)) => assert_eq!(*wire, local),
            (ResponseBody::Error(WireError::UnknownVertex { v }), Err(e)) => {
                assert!(format!("{e}").contains(&v.to_string()));
            }
            (body, oracle) => panic!("wire {body:?} vs oracle {oracle:?}"),
        }
        assert_eq!(resp.generation, 1);
    }

    #[test]
    fn wire_answers_match_the_in_process_oracle() {
        let engine = small_engine();
        let handle = serve_engine(Arc::clone(&engine), &ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let queries = mixed_queries(60, 64);
        let responses = client.run_pipelined(&queries, 16, 8).unwrap();
        assert_eq!(responses.len(), queries.len());
        for (q, resp) in queries.iter().zip(&responses) {
            assert_oracle_exact(&engine, *q, resp);
        }
        let stats = handle.stats();
        assert_eq!(stats.answered, queries.len() as u64);
        assert!(stats.batches >= 1);
        handle.shutdown();
    }

    #[test]
    fn a_burst_past_the_queue_is_refused_busy_or_answered_exactly() {
        let engine = small_engine();
        let handle = serve_engine(Arc::clone(&engine), &ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        // Eight times the 256-slot work queue, all written before the
        // first reply is read.
        let queries = mixed_queries(60, 2048);
        let burst: Vec<u8> = queries
            .iter()
            .enumerate()
            .flat_map(|(id, q)| {
                Frame::new(Opcode::Query, id as u64, 0, protocol::encode_query(q)).encode()
            })
            .collect();
        client.send_raw(&burst).unwrap();
        let mut seen = vec![false; queries.len()];
        let mut busy = 0u64;
        for _ in &queries {
            let resp = client.recv().unwrap();
            let id = resp.id as usize;
            assert!(!std::mem::replace(&mut seen[id], true), "id {id} twice");
            if matches!(resp.body, ResponseBody::Busy) {
                busy += 1;
            } else {
                assert_oracle_exact(&engine, queries[id], &resp);
            }
        }
        // The reader handles frames in order, so its Pong follows its
        // last counter update.
        assert_eq!(client.ping().unwrap(), 1);
        let stats = handle.stats();
        assert_eq!(stats.busy, busy);
        assert_eq!(stats.queries + stats.busy, queries.len() as u64);
        assert_eq!(stats.answered, stats.queries);
        handle.shutdown();
    }

    #[test]
    fn reload_bumps_the_generation_visible_on_the_wire() {
        let handle = serve_engine(small_engine(), &ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(client.ping().unwrap(), 1);
        let (swapped, generation) = client.reload().unwrap();
        assert!(swapped);
        assert_eq!(generation, 2);
        assert_eq!(handle.generation(), 2);
        // Answers after the swap carry the new generation.
        let resp = client
            .query(Query::Vertex {
                v: 0,
                emit: Emit::Count,
            })
            .unwrap();
        assert_eq!(resp.generation, 2);
        handle.shutdown();
    }

    #[test]
    fn garbage_bytes_get_a_typed_error_and_the_server_survives() {
        let handle = serve_engine(small_engine(), &ServerConfig::default()).unwrap();
        // Connection 1 sends garbage: it is answered with a typed error
        // and closed.
        let mut hostile = Client::connect(handle.addr()).unwrap();
        // A full header's worth of garbage, so the grammar (not the read
        // timeout) rejects it.
        hostile.send_raw(&[0xAA; 32]).unwrap();
        match hostile.recv() {
            Ok(resp) => assert!(matches!(resp.body, ResponseBody::Error(_))),
            // The server may close before the error frame is read; both
            // are acceptable — what matters is the next connection works.
            Err(ClientError::ServerClosed | ClientError::Io(_)) => {}
            Err(other) => panic!("unexpected client error: {other}"),
        }
        // Connection 2 proves the server is still serving.
        let mut fresh = Client::connect(handle.addr()).unwrap();
        assert_eq!(fresh.ping().unwrap(), 1);
        assert!(handle.stats().protocol_errors >= 1);
        handle.shutdown();
    }

    #[test]
    fn connection_cap_refuses_with_a_typed_busy_frame() {
        let config = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let handle = serve_engine(small_engine(), &config).unwrap();
        let mut first = Client::connect(handle.addr()).unwrap();
        assert_eq!(first.ping().unwrap(), 1);
        // The second connection is refused with Busy, then closed.
        let mut second = Client::connect(handle.addr()).unwrap();
        let resp = second.recv().unwrap();
        assert!(matches!(resp.body, ResponseBody::Busy));
        assert!(matches!(second.recv(), Err(ClientError::ServerClosed)));
        assert_eq!(handle.stats().refused, 1);
        handle.shutdown();
    }
}
