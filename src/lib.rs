//! # expander-repro
//!
//! A full reproduction of **Chang & Saranurak, “Improved Distributed
//! Expander Decomposition and Nearly Optimal Triangle Enumeration”
//! (PODC 2019)** as a Rust workspace. This facade crate re-exports the
//! whole stack:
//!
//! | layer | crate | paper artifact |
//! |---|---|---|
//! | [`graph`] | graph substrate | `Vol`, `∂(S)`, `Φ(S)`, `G{S}`, generators, spectral tools |
//! | [`congest`] | CONGEST / CONGESTED-CLIQUE simulator | the model of §1 |
//! | [`expander`] | expander decomposition | Theorems 1, 3, 4 |
//! | [`routing`] | GKS expander routing | the §3 preprocessing/query trade-off |
//! | [`triangle`] | triangle enumeration | Theorem 2 + the DLP clique baseline |
//! | [`storage`] | on-disk CSR ingestion | real-graph datasets, zero-copy loading, frozen artifacts |
//! | [`server`] | wire frontend | TCP serving of point queries, hot-swap artifact reloads |
//!
//! # Quickstart
//!
//! ```
//! use expander_repro::prelude::*;
//!
//! // A graph with obvious cluster structure…
//! let (g, _) = graph::gen::ring_of_cliques(6, 8)?;
//!
//! // …expander-decompose it (Theorem 1)…
//! let result = ExpanderDecomposition::builder()
//!     .epsilon(0.3)
//!     .k(2)
//!     .seed(7)
//!     .build()
//!     .run(&g)?;
//! assert!(result.inter_cluster_fraction() <= 0.3);
//!
//! // …and verify the certificate.
//! let report = verify_decomposition(&g, &result);
//! assert!(report.is_partition && report.edge_budget_ok());
//!
//! // Triangle enumeration (Theorem 2) agrees with ground truth.
//! let listed = enumerate_via_decomposition(&g, &PipelineParams::default());
//! assert_eq!(listed.count(), triangle::count_triangles(&g));
//! # Ok::<(), graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use congest;
pub use expander;
pub use graph;
pub use routing;
pub use server;
pub use storage;
pub use triangle;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use congest::{Ctx, ExecMode, Inbox, Network, RunReport, VertexProgram};
    pub use expander::prelude::*;
    pub use graph::prelude::*;
    pub use routing::{QueryCharge, RoutingHierarchy};
    pub use server::{
        serve_engine, serve_path, Client, ClientError, Frame, Opcode, ProtocolError, ResponseBody,
        ServerConfig, ServerHandle, WireError, WireResponse,
    };
    pub use storage::{convert_edge_list, write_graph, ConvertOptions, CsrFile, CsrView};
    pub use triangle::{
        clique_enumerate, count_triangles, enumerate_triangles, enumerate_via_decomposition,
        enumerate_with_assignment, PipelineParams, Triangle, TriangleReport,
    };
    pub use triangle::{Answer, Emit, Query, QueryEngine, QueryOutcome, ServeReport, ServiceError};
    pub use triangle::{BatchReport, ChurnPolicy, DeltaLedger, EdgeOp, RebuildReport};
    pub use triangle::{FrozenEngine, RestoreError};
}
