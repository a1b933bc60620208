//! The serve loop: a multi-threaded TCP frontend over
//! [`QueryEngine`], built on `std::net` alone.
//!
//! # Thread topology
//!
//! ```text
//! acceptor ──► one reader thread per connection
//!                         │ try_send — full ⇒ Busy
//!                         ▼
//!               bounded work queue (256 slots)
//!                         │
//!                         ▼
//!               4 executors: block for one query, take what is
//!               already queued behind it (≤ 64), snapshot
//!               (engine, generation), QueryEngine::answer, reply
//!                         │
//!                         ▼
//!               per-connection writer threads
//! ```
//!
//! Queries from **all** connections funnel into one bounded work queue
//! whose receiver the executors share. A batch is whatever had queued up
//! by the time an executor came for it: it grows with the backlog, and an
//! idle server answers the lone query at once. Each batch is answered
//! against a single `(engine, generation)` snapshot, so answers within a
//! batch are mutually consistent even across a reload.
//!
//! # Hot swap
//!
//! [`ServerHandle::reload`] (or a wire
//! [`Opcode::Reload`](crate::protocol::Opcode) frame) re-opens the
//! artifact via [`storage::artifact::restore_or_build`] and atomically
//! replaces the shared `Arc<QueryEngine>`. In-flight batches hold their
//! own `Arc` snapshot and drain against the **old** engine; new batches
//! see the new one. Every response header carries the generation, so
//! clients observe the swap from the stream alone. A failed reload
//! (corrupt or missing file) keeps the old engine serving and counts
//! `reload_failures` — degradation, never an outage. So does a reload
//! after [`ServerHandle::swap_engine`] installed a caller-built engine,
//! which the file would silently revert.
//!
//! # Backpressure
//!
//! Two typed refusals instead of unbounded growth: the accept cap
//! refuses connections past [`ServerConfig::max_connections`] with a
//! `Busy` frame, and a full work queue answers the overflowing query with
//! `Busy` (the query is *not* executed — the client owns the retry).
//! Readers enforce [`ServerConfig::read_timeout`] so a stalled peer
//! cannot pin its thread forever.

use crate::codec::{self, CodecError};
use crate::protocol::{
    encode_error, encode_outcome, Frame, Opcode, ProtocolError, WireError, DEFAULT_MAX_PAYLOAD,
};
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use storage::artifact::{restore_or_build, EngineSource};
use storage::StorageError;
use triangle::service::{Query, QueryEngine};
use triangle::PipelineParams;

/// Executor threads: batches answered concurrently.
const EXECUTORS: usize = 4;
/// Work-queue slots; a query arriving at a full queue is refused `Busy`.
const QUEUE_SLOTS: usize = 256;
/// Most queries one executor takes per `(engine, generation)` snapshot.
const BATCH_CAP: usize = 64;
/// How often an executor blocked on an empty queue re-checks the shutdown
/// flag: a reader thread wedged past shutdown may still hold a sender, so
/// the queue closing cannot be the only wake-up.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Deployment settings and outside-input limits for
/// [`serve_engine`]/[`serve_path`]. Every field has a serviceable
/// default; the CI smoke job runs them unchanged.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (port 0 picks a free port).
    pub addr: SocketAddr,
    /// Connections served concurrently; the acceptor refuses the rest
    /// with a `Busy` frame.
    pub max_connections: usize,
    /// Per-connection read timeout; a peer idle past it is disconnected.
    pub read_timeout: Duration,
    /// Per-frame payload cap in both directions.
    pub max_payload: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Startup/bind failures (wire-level failures never surface here — they
/// are per-connection events).
#[derive(Debug)]
pub enum ServeError {
    /// Binding or configuring the listener failed.
    Io(io::Error),
    /// Opening/restoring the artifact at startup failed.
    Storage(StorageError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cannot start server: {e}"),
            ServeError::Storage(e) => write!(f, "cannot restore engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> ServeError {
        ServeError::Storage(e)
    }
}

/// Monotonic counters the server keeps; snapshot via
/// [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted into service.
    pub accepted: u64,
    /// Connections refused at the accept cap.
    pub refused: u64,
    /// Queries enqueued for execution.
    pub queries: u64,
    /// Answer/Error frames produced by executors.
    pub answered: u64,
    /// Queries refused with `Busy` because the work queue was full.
    pub busy: u64,
    /// Batches executors took off the work queue.
    pub batches: u64,
    /// Malformed frames/payloads received.
    pub protocol_errors: u64,
    /// Successful hot-swap reloads.
    pub reloads: u64,
    /// Reload attempts that failed (old engine kept serving).
    pub reload_failures: u64,
}

#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    refused: AtomicU64,
    queries: AtomicU64,
    answered: AtomicU64,
    busy: AtomicU64,
    batches: AtomicU64,
    protocol_errors: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The engine slot every thread reads through: the `Arc` and its
/// generation swap together under one lock, so a snapshot is always a
/// consistent pair.
#[derive(Debug)]
struct EngineCell {
    slot: RwLock<(Arc<QueryEngine>, u64)>,
    generation: AtomicU64,
    /// Set by every [`EngineCell::swap`]: from then on the server's
    /// source file (if any) no longer describes the engine serving.
    /// Written and decided on under the slot's write lock, which orders
    /// it; `Relaxed` suffices, and an unlocked read is only an early exit.
    diverged: AtomicBool,
}

impl EngineCell {
    fn new(engine: Arc<QueryEngine>) -> EngineCell {
        EngineCell {
            slot: RwLock::new((engine, 1)),
            generation: AtomicU64::new(1),
            diverged: AtomicBool::new(false),
        }
    }

    fn snapshot(&self) -> (Arc<QueryEngine>, u64) {
        let guard = self.slot.read().expect("engine slot poisoned");
        (Arc::clone(&guard.0), guard.1)
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn diverged(&self) -> bool {
        self.diverged.load(Ordering::Relaxed)
    }

    /// Installs `engine` under the next generation and returns it.
    fn swap(&self, engine: Arc<QueryEngine>) -> u64 {
        let mut guard = self.slot.write().expect("engine slot poisoned");
        self.diverged.store(true, Ordering::Relaxed);
        self.install(&mut guard, engine)
    }

    /// Installs an engine re-read from the source file; `false`, and
    /// nothing changes, if a [`EngineCell::swap`] replaced the source's
    /// engine: the file would silently revert every update it carries.
    fn swap_from_source(&self, engine: Arc<QueryEngine>) -> bool {
        let mut guard = self.slot.write().expect("engine slot poisoned");
        let fresh = !self.diverged();
        if fresh {
            self.install(&mut guard, engine);
        }
        fresh
    }

    fn install(&self, slot: &mut (Arc<QueryEngine>, u64), engine: Arc<QueryEngine>) -> u64 {
        let next = slot.1 + 1;
        *slot = (engine, next);
        self.generation.store(next, Ordering::Release);
        next
    }
}

/// One enqueued query: where to reply, under which correlation id.
struct WorkItem {
    reply: mpsc::Sender<Frame>,
    id: u64,
    query: Query,
}

struct Inner {
    cell: EngineCell,
    config: ServerConfig,
    source: Option<(PathBuf, PipelineParams)>,
    stats: Stats,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Inner {
    /// Re-opens the artifact and swaps the engine in; `true` on success.
    /// Refused once [`ServerHandle::swap_engine`] installed an engine the
    /// file does not describe (re-opening it would drop that engine's
    /// updates while the generation advances). Without a file source the
    /// current engine is re-armed under a new generation — a reload
    /// drill, observable by clients all the same.
    fn reload(&self) -> bool {
        let swapped = match &self.source {
            Some(_) if self.cell.diverged() => false,
            Some((path, params)) => match restore_or_build(path, params) {
                Ok((engine, _)) => self.cell.swap_from_source(Arc::new(engine)),
                Err(_) => false,
            },
            None => {
                let (current, _) = self.cell.snapshot();
                self.cell.swap(current);
                true
            }
        };
        if swapped {
            bump(&self.stats.reloads);
        } else {
            bump(&self.stats.reload_failures);
        }
        swapped
    }
}

/// A running server. Dropping the handle shuts the server down; keep it
/// alive for as long as the server should accept traffic.
#[derive(Debug)]
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    work_tx: Option<mpsc::SyncSender<WorkItem>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("generation", &self.cell.generation())
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (the OS-assigned port when the config asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current engine generation (starts at 1, +1 per reload).
    pub fn generation(&self) -> u64 {
        self.inner.cell.generation()
    }

    /// A consistent snapshot of the engine currently serving — the
    /// in-process oracle the smoke tests compare wire answers against.
    pub fn engine(&self) -> Arc<QueryEngine> {
        self.inner.cell.snapshot().0
    }

    /// Triggers a hot-swap reload (same path as a wire `Reload` frame);
    /// `true` if the engine was swapped. A server started from a file
    /// refuses once [`ServerHandle::swap_engine`] has run: the file no
    /// longer describes the engine serving.
    pub fn reload(&self) -> bool {
        self.inner.reload()
    }

    /// Swaps a caller-built engine into the serving slot and returns the
    /// new generation — the churn tier's rebuild hook: a
    /// `triangle::churn::DeltaLedger` refreezes incrementally in the
    /// background and installs the result here. Same contract as a
    /// reload: the generation advances exactly once, batches already in
    /// flight finish on the engine snapshot they started with, and the
    /// next batch answers on the new engine. From then on, reloads from
    /// the server's source file are refused ([`ServerHandle::reload`]).
    pub fn swap_engine(&self, engine: Arc<QueryEngine>) -> u64 {
        let generation = self.inner.cell.swap(engine);
        bump(&self.inner.stats.reloads);
        generation
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Stops accepting, disconnects peers, drains worker threads. Called
    /// by `Drop` too; explicit calls just make shutdown points visible.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection; it re-checks
        // the flag per accept.
        let _ = TcpStream::connect(self.addr);
        // Disconnect every live peer so reader threads fall out of
        // blocking reads.
        for (_, s) in self
            .inner
            .conns
            .lock()
            .expect("conn registry poisoned")
            .iter()
        {
            let _ = s.shutdown(Shutdown::Both);
        }
        // With the acceptor's and the readers' senders gone too, the
        // closed work queue wakes the executors at once.
        self.work_tx.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Starts a server around an already-built engine (no disk involved —
/// the unit-test and embedded path). Wire `Reload` frames re-arm the same
/// engine under a fresh generation.
pub fn serve_engine(
    engine: Arc<QueryEngine>,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
    start(engine, None, config)
}

/// Starts a server from a `.csr` file: restores the engine from the
/// frozen-artifact section when present, builds it from the graph
/// sections otherwise ([`restore_or_build`]), and remembers the path so
/// reloads (wire frames, [`ServerHandle::reload`]) re-open it.
pub fn serve_path(
    path: impl Into<PathBuf>,
    params: &PipelineParams,
    config: &ServerConfig,
) -> Result<(ServerHandle, EngineSource), ServeError> {
    let path = path.into();
    let (engine, source) = restore_or_build(&path, params)?;
    let handle = start(Arc::new(engine), Some((path, params.clone())), config)?;
    Ok((handle, source))
}

fn start(
    engine: Arc<QueryEngine>,
    source: Option<(PathBuf, PipelineParams)>,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let inner = Arc::new(Inner {
        cell: EngineCell::new(engine),
        config: config.clone(),
        source,
        stats: Stats::default(),
        shutdown: AtomicBool::new(false),
        active_connections: AtomicUsize::new(0),
        conns: Mutex::new(Vec::new()),
    });

    let (work_tx, work_rx) = mpsc::sync_channel::<WorkItem>(QUEUE_SLOTS);
    let work_rx = Arc::new(Mutex::new(work_rx));

    let mut threads = Vec::new();
    for _ in 0..EXECUTORS {
        let inner = Arc::clone(&inner);
        let work_rx = Arc::clone(&work_rx);
        threads.push(thread::spawn(move || executor_loop(&inner, &work_rx)));
    }
    {
        let inner = Arc::clone(&inner);
        let work_tx = work_tx.clone();
        threads.push(thread::spawn(move || {
            acceptor_loop(&inner, listener, work_tx)
        }));
    }

    Ok(ServerHandle {
        inner,
        addr,
        threads,
        work_tx: Some(work_tx),
    })
}

fn acceptor_loop(inner: &Arc<Inner>, listener: TcpListener, work_tx: mpsc::SyncSender<WorkItem>) {
    let mut next_conn_id = 0u64;
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let cap = inner.config.max_connections.max(1);
        let admitted = inner
            .active_connections
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < cap).then_some(c + 1)
            })
            .is_ok();
        if !admitted {
            bump(&inner.stats.refused);
            // Typed refusal: one Busy frame, then the connection closes.
            let mut w = BufWriter::new(&stream);
            let _ = codec::write_frame(
                &mut w,
                &Frame::new(Opcode::Busy, 0, inner.cell.generation(), Vec::new()),
            );
            continue;
        }
        bump(&inner.stats.accepted);
        let conn_id = next_conn_id;
        next_conn_id += 1;
        if let Ok(clone) = stream.try_clone() {
            inner
                .conns
                .lock()
                .expect("conn registry poisoned")
                .push((conn_id, clone));
        }
        let inner = Arc::clone(inner);
        let work_tx = work_tx.clone();
        // Reader threads detach; shutdown disconnects their sockets and
        // the active-connection counter tracks them out. On exit the
        // connection deregisters itself and shuts the socket down — the
        // registry clone would otherwise keep the kernel socket open
        // (no FIN) after the reader/writer halves are dropped.
        thread::spawn(move || {
            connection_loop(&inner, stream, &work_tx);
            inner.active_connections.fetch_sub(1, Ordering::SeqCst);
            let mut conns = inner.conns.lock().expect("conn registry poisoned");
            if let Some(pos) = conns.iter().position(|(id, _)| *id == conn_id) {
                let (_, s) = conns.swap_remove(pos);
                let _ = s.shutdown(Shutdown::Both);
            }
        });
    }
}

fn connection_loop(inner: &Arc<Inner>, stream: TcpStream, work_tx: &mpsc::SyncSender<WorkItem>) {
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Frame>();
    let writer = thread::spawn(move || {
        let mut w = BufWriter::new(write_half);
        while let Ok(frame) = reply_rx.recv() {
            if codec::write_frame(&mut w, &frame).is_err() {
                break;
            }
        }
    });

    let mut reader = BufReader::new(stream);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match codec::read_frame(&mut reader, inner.config.max_payload) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                if !handle_frame(inner, frame, &reply_tx, work_tx) {
                    break;
                }
            }
            Err(e) if e.is_timeout() => break,
            Err(CodecError::Protocol(p)) => {
                // Framing is lost — answer with the typed error, then
                // close; the stream cannot resync. The *server* stays up.
                bump(&inner.stats.protocol_errors);
                let _ = reply_tx.send(error_frame(inner, 0, &p));
                break;
            }
            Err(CodecError::Io(_)) => break,
        }
    }
    drop(reply_tx);
    let _ = writer.join();
}

/// Handles one well-framed request. Returns `false` when the connection
/// must close (work queue gone at shutdown).
fn handle_frame(
    inner: &Arc<Inner>,
    frame: Frame,
    reply_tx: &mpsc::Sender<Frame>,
    work_tx: &mpsc::SyncSender<WorkItem>,
) -> bool {
    match frame.header.opcode {
        Opcode::Query => match crate::protocol::decode_query(&frame.payload) {
            Ok(query) => {
                let item = WorkItem {
                    reply: reply_tx.clone(),
                    id: frame.header.id,
                    query,
                };
                match work_tx.try_send(item) {
                    Ok(()) => bump(&inner.stats.queries),
                    Err(TrySendError::Full(item)) => {
                        bump(&inner.stats.busy);
                        let _ = reply_tx.send(Frame::new(
                            Opcode::Busy,
                            item.id,
                            inner.cell.generation(),
                            Vec::new(),
                        ));
                    }
                    Err(TrySendError::Disconnected(_)) => return false,
                }
            }
            Err(p) => {
                // The frame itself was sound, only the payload grammar
                // failed: answer typed, keep the connection.
                bump(&inner.stats.protocol_errors);
                let _ = reply_tx.send(error_frame(inner, frame.header.id, &p));
            }
        },
        Opcode::Ping => {
            let _ = reply_tx.send(Frame::new(
                Opcode::Pong,
                frame.header.id,
                inner.cell.generation(),
                Vec::new(),
            ));
        }
        Opcode::Reload => {
            let swapped = inner.reload();
            let _ = reply_tx.send(Frame::new(
                Opcode::Reloaded,
                frame.header.id,
                inner.cell.generation(),
                vec![u8::from(swapped)],
            ));
        }
        // A client sending response opcodes is confused; tell it so and
        // keep listening (the framing is intact).
        Opcode::Answer | Opcode::Error | Opcode::Pong | Opcode::Busy | Opcode::Reloaded => {
            bump(&inner.stats.protocol_errors);
            let p = ProtocolError::BadPayload {
                reason: format!(
                    "response opcode 0x{:02x} is not a request",
                    frame.header.opcode as u8
                ),
            };
            let _ = reply_tx.send(error_frame(inner, frame.header.id, &p));
        }
    }
    true
}

fn error_frame(inner: &Arc<Inner>, id: u64, p: &ProtocolError) -> Frame {
    Frame::new(
        Opcode::Error,
        id,
        inner.cell.generation(),
        encode_error(&WireError::Malformed {
            reason: p.to_string(),
        }),
    )
}

fn executor_loop(inner: &Inner, work_rx: &Mutex<mpsc::Receiver<WorkItem>>) {
    let mut batch = Vec::with_capacity(BATCH_CAP);
    while !inner.shutdown.load(Ordering::SeqCst) {
        {
            let rx = work_rx.lock().expect("work queue poisoned");
            match rx.recv_timeout(SHUTDOWN_POLL) {
                Ok(first) => batch.push(first),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
            // Whatever queued up behind it, never waiting for more: the
            // batch follows the backlog and a lone query is answered now.
            batch.extend(rx.try_iter().take(BATCH_CAP - 1));
        }
        bump(&inner.stats.batches);
        // One consistent snapshot per batch: a reload mid-batch swaps the
        // cell, but this batch keeps draining against its own Arc.
        let (engine, generation) = inner.cell.snapshot();
        for item in batch.drain(..) {
            let (opcode, payload) = match engine.answer(item.query) {
                Ok(outcome) => (Opcode::Answer, encode_outcome(&outcome)),
                Err(e) => (Opcode::Error, encode_error(&WireError::from(e))),
            };
            bump(&inner.stats.answered);
            let _ = item
                .reply
                .send(Frame::new(opcode, item.id, generation, payload));
        }
    }
}
