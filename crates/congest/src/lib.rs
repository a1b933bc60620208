//! A deterministic synchronous simulator for the **CONGEST** model of
//! distributed computing (and its all-to-all variant,
//! **CONGESTED-CLIQUE**).
//!
//! The CONGEST model (paper §1): the network is an undirected graph
//! `G = (V, E)`; each vertex is a processor with a distinct `Θ(log n)`-bit
//! id; computation proceeds in synchronized rounds; per round each vertex
//! may send **one `O(log n)`-bit message over each incident edge**
//! (a distinct message per edge is allowed). Local computation and local
//! randomness are free and unlimited.
//!
//! Because the model is discrete and synchronous, simulation is *exact*:
//! the simulator enforces precisely the information locality and bandwidth
//! constraints of the model and reports the number of rounds, which is the
//! complexity measure all of the paper's theorems bound.
//!
//! # Example: flooding a token
//!
//! ```
//! use congest::{Ctx, Inbox, Network, VertexProgram};
//!
//! #[derive(Default)]
//! struct Flood { seen: bool }
//!
//! impl VertexProgram for Flood {
//!     type Msg = u64;
//!     fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
//!         if ctx.me() == 0 {
//!             self.seen = true;
//!             ctx.broadcast(1);
//!         }
//!     }
//!     fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
//!         if !self.seen && !inbox.is_empty() {
//!             self.seen = true;
//!             // Forward to everyone who did not just send to us.
//!             let senders: Vec<_> = inbox.iter().map(|(f, _)| f).collect();
//!             ctx.broadcast_except(&senders, 1);
//!         }
//!     }
//!     fn halted(&self) -> bool { self.seen }
//! }
//!
//! let g = graph::gen::path(8).unwrap();
//! let report = congest::Network::new(&g).run(|_| Flood::default(), 100).unwrap();
//! assert_eq!(report.rounds, 7); // diameter of P8
//!
//! // The engine can also step vertices in parallel — bit-identical results:
//! let par = congest::Network::new(&g)
//!     .with_exec_mode(congest::ExecMode::Parallel)
//!     .run(|_| Flood::default(), 100)
//!     .unwrap();
//! assert_eq!(par, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod clique;
mod engine;
mod error;
mod message;
mod metrics;
mod network;
pub mod packed;

pub use engine::mailbox::{Inbox, InboxIter};
pub use engine::ExecMode;
pub use error::CongestError;
pub use message::Payload;
pub use metrics::{PhaseLedger, RunReport};
pub use network::{Ctx, Network, VertexProgram};
pub use packed::{IdStreamDecoder, IdStreamEncoder, PackedError, PackedIds};

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, CongestError>;
