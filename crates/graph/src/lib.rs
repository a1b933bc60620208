//! Graph substrate for the distributed expander-decomposition reproduction.
//!
//! This crate provides every graph-theoretic object used by
//! Chang & Saranurak (PODC 2019):
//!
//! * [`Graph`] — an undirected multigraph in CSR form with explicit
//!   **self-loop** bookkeeping. Self loops are load-bearing in the paper:
//!   whenever the decomposition removes an edge `{u, v}` it adds a self loop
//!   at both `u` and `v`, so vertex degrees (and hence volumes) never change.
//!   Each self loop contributes exactly 1 to `deg(v)` (following the
//!   convention of Spielman–Srivastava used by the paper).
//! * [`VertexSet`] and the cut toolkit ([`cut`]) — `∂(S)`, conductance
//!   `Φ(S)`, balance `bal(S)`, sparsity.
//! * Subgraph views ([`view`]) — the induced subgraph `G[S]` and the
//!   degree-preserving loop-augmented subgraph `G{S}`.
//! * Traversals ([`traversal`]) — BFS, connected components, diameter,
//!   `N^k(v)` balls.
//! * Generators ([`gen`]) — the workload families used by the experiments.
//! * Random-walk tools ([`walks`]) — the lazy walk operator
//!   `M = (AD⁻¹ + I)/2` and the truncation operator `[p]_ε`.
//! * Spectral tools ([`spectral`]) — power iteration, Cheeger bounds,
//!   sweep cuts and mixing-time estimation.
//!
//! # Example
//!
//! ```
//! use graph::prelude::*;
//!
//! // Two triangles joined by a bridge: {0,1,2} - {3,4,5}.
//! let g = GraphBuilder::new(6)
//!     .edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
//!     .build()
//!     .unwrap();
//! let s = VertexSet::from_iter(g.n(), [0u32, 1, 2]);
//! assert_eq!(g.boundary(&s), 1);
//! assert_eq!(g.volume(&s), 7); // 2+2+3
//! assert!(g.conductance(&s).unwrap() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph_impl;

pub mod cut;
pub mod gen;
pub mod io;
pub mod prelude;
pub mod seed;
pub mod spectral;
pub mod traversal;
pub mod view;
pub mod walks;
pub mod working;

pub use builder::GraphBuilder;
pub use cut::{intersect_sorted, Cut, VertexSet};
pub use error::GraphError;
pub use graph_impl::{EdgeIter, Graph, NeighborIter};
pub use seed::derive_seed;
pub use working::WorkingGraph;

/// Identifier of a vertex: a dense index in `0..n`.
///
/// Kept as a plain `u32` (rather than a newtype) because vertex ids are used
/// pervasively as slice indices; all public APIs validate ranges and return
/// [`GraphError::VertexOutOfRange`] on misuse.
pub type VertexId = u32;

/// Result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
