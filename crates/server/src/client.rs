//! A blocking client for the wire protocol: correlation-id matched,
//! optionally pipelined.
//!
//! The server answers out of order (batches complete independently
//! across the executor pool), so the client never assumes FIFO: every
//! request carries a fresh correlation id and every response is matched
//! back through it. [`Client::run_pipelined`] keeps a window of requests
//! outstanding and returns answers **in input order** regardless of the
//! order the wire delivered them — with `Busy` refusals (the server's
//! work queue was full, the query was not executed) transparently
//! retried a bounded number of times, since a refusal is an invitation
//! to retry, not an answer.

use crate::codec::{self, CodecError};
use crate::protocol::{
    decode_error, decode_outcome, encode_query, Frame, Opcode, ProtocolError, WireError,
    DEFAULT_MAX_PAYLOAD,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use triangle::service::{Query, QueryOutcome};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server's bytes violated the frame grammar.
    Protocol(ProtocolError),
    /// The server closed the connection while responses were still owed.
    ServerClosed,
    /// The server sent a frame that makes no sense here (a request
    /// opcode, or a correlation id nothing is waiting for).
    UnexpectedFrame {
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::UnexpectedFrame { detail } => write!(f, "unexpected frame: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> ClientError {
        match e {
            CodecError::Io(e) => ClientError::Io(e),
            CodecError::Protocol(p) => ClientError::Protocol(p),
        }
    }
}

/// What the server said about one request.
#[derive(Debug)]
pub enum ResponseBody {
    /// The query's outcome (answer plus its cost accounting).
    Answer(QueryOutcome),
    /// A typed refusal of the request's content.
    Error(WireError),
    /// Backpressure: the server declined to even queue the query.
    Busy,
    /// Reply to a `Ping`.
    Pong,
    /// Reply to a `Reload`; `true` if the engine was actually swapped.
    Reloaded(bool),
}

/// One matched response: correlation id, the generation of the engine
/// that produced it, the round-trip time, and the body.
#[derive(Debug)]
pub struct WireResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// Engine generation stamped by the server.
    pub generation: u64,
    /// Round trip from send to receive (zero for unsolicited reads).
    pub rtt: Duration,
    /// The decoded body.
    pub body: ResponseBody,
}

/// A blocking connection to a triangle-query server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    max_payload: u32,
}

impl Client {
    /// Connects with the default payload cap.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            next_id: 1,
            max_payload: DEFAULT_MAX_PAYLOAD,
        })
    }

    /// Caps how long a single blocking read may wait for the server.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    fn send(&mut self, opcode: Opcode, payload: Vec<u8>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        codec::write_frame(&mut self.writer, &Frame::new(opcode, id, 0, payload))?;
        Ok(id)
    }

    /// Writes raw bytes straight onto the socket, bypassing the frame
    /// encoder — the hostile-input path the smoke tests drive.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads and decodes the next response frame, whatever its id.
    pub fn recv(&mut self) -> Result<WireResponse, ClientError> {
        let frame = match codec::read_frame(&mut self.reader, self.max_payload)? {
            Some(f) => f,
            None => return Err(ClientError::ServerClosed),
        };
        let body = match frame.header.opcode {
            Opcode::Answer => ResponseBody::Answer(decode_outcome(&frame.payload)?),
            Opcode::Error => ResponseBody::Error(decode_error(&frame.payload)?),
            Opcode::Busy => ResponseBody::Busy,
            Opcode::Pong => ResponseBody::Pong,
            Opcode::Reloaded => ResponseBody::Reloaded(frame.payload.first() == Some(&1)),
            op @ (Opcode::Query | Opcode::Ping | Opcode::Reload) => {
                return Err(ClientError::UnexpectedFrame {
                    detail: format!("server sent request opcode 0x{:02x}", op as u8),
                })
            }
        };
        Ok(WireResponse {
            id: frame.header.id,
            generation: frame.header.generation,
            rtt: Duration::ZERO,
            body,
        })
    }

    fn call(&mut self, opcode: Opcode, payload: Vec<u8>) -> Result<WireResponse, ClientError> {
        let sent = Instant::now();
        let id = self.send(opcode, payload)?;
        let mut resp = self.recv()?;
        if resp.id != id {
            return Err(ClientError::UnexpectedFrame {
                detail: format!("correlation id {} where {id} was expected", resp.id),
            });
        }
        resp.rtt = sent.elapsed();
        Ok(resp)
    }

    /// Round-trips a `Ping`; returns the server's current generation.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let resp = self.call(Opcode::Ping, Vec::new())?;
        match resp.body {
            ResponseBody::Pong => Ok(resp.generation),
            other => Err(ClientError::UnexpectedFrame {
                detail: format!("{other:?} in reply to Ping"),
            }),
        }
    }

    /// Asks the server to hot-swap its engine; returns `(swapped,
    /// generation-after)`.
    pub fn reload(&mut self) -> Result<(bool, u64), ClientError> {
        let resp = self.call(Opcode::Reload, Vec::new())?;
        match resp.body {
            ResponseBody::Reloaded(swapped) => Ok((swapped, resp.generation)),
            other => Err(ClientError::UnexpectedFrame {
                detail: format!("{other:?} in reply to Reload"),
            }),
        }
    }

    /// Sends one query and waits for its response (`Answer`, `Error`, or
    /// `Busy`).
    pub fn query(&mut self, query: Query) -> Result<WireResponse, ClientError> {
        self.call(Opcode::Query, encode_query(&query))
    }

    /// Streams `queries` with up to `window` requests outstanding and
    /// returns the responses **in input order**. `Busy` refusals are
    /// re-sent up to `busy_retries` times each; a refusal that exhausts
    /// its retries is returned as-is for the caller to judge.
    pub fn run_pipelined(
        &mut self,
        queries: &[Query],
        window: usize,
        busy_retries: usize,
    ) -> Result<Vec<WireResponse>, ClientError> {
        let window = window.max(1);
        let mut results: Vec<Option<WireResponse>> = Vec::new();
        results.resize_with(queries.len(), || None);
        // id → (input index, send time, Busy retries left)
        let mut pending: HashMap<u64, (usize, Instant, usize)> = HashMap::new();
        let mut next = 0usize;
        let mut done = 0usize;
        while done < queries.len() {
            while next < queries.len() && pending.len() < window {
                let sent = Instant::now();
                let id = self.send(Opcode::Query, encode_query(&queries[next]))?;
                pending.insert(id, (next, sent, busy_retries));
                next += 1;
            }
            let mut resp = self.recv()?;
            let Some((index, sent, retries)) = pending.remove(&resp.id) else {
                return Err(ClientError::UnexpectedFrame {
                    detail: format!("correlation id {} matches no pending query", resp.id),
                });
            };
            if matches!(resp.body, ResponseBody::Busy) && retries > 0 {
                let resent = Instant::now();
                let id = self.send(Opcode::Query, encode_query(&queries[index]))?;
                pending.insert(id, (index, resent, retries - 1));
                continue;
            }
            resp.rtt = sent.elapsed();
            results[index] = Some(resp);
            done += 1;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect())
    }
}
