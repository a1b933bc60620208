//! # Distributed expander decomposition (Chang–Saranurak, PODC 2019)
//!
//! This crate is the paper's primary contribution, reproduced in full:
//!
//! * **Theorem 3** — the first distributed **nearly most balanced sparse
//!   cut** algorithm: [`sparse_cut::nearly_most_balanced_sparse_cut`],
//!   built from [`nibble`] → [`parallel_nibble`] → [`partition`]
//!   (Appendix A).
//! * **Theorem 4** — low-diameter decomposition with a **w.h.p.** bound on
//!   cut edges: [`ldd`] (Appendix B).
//! * **Theorem 1** — the `(ε, φ)`-expander decomposition with
//!   `φ = (ε/log n)^{2^{O(k)}}` in `O(n^{2/k}·poly(1/φ, log n))` rounds:
//!   [`decomposition`] (§2).
//!
//! Algorithms run in lock-step round-driven form with measured CONGEST
//! round charges ([`rounds::RoundLedger`]); see DESIGN.md §3 for the
//! fidelity discussion and [`params::ParamMode`] for the
//! paper-faithful vs practical constant calibrations.
//!
//! # Example
//!
//! ```
//! use expander::prelude::*;
//!
//! // A ring of 6 cliques: the decomposition should cut it into cliques.
//! let (g, _) = graph::gen::ring_of_cliques(6, 8).unwrap();
//! let result = ExpanderDecomposition::builder()
//!     .epsilon(0.3)
//!     .k(2)
//!     .seed(7)
//!     .build()
//!     .run(&g)
//!     .unwrap();
//! assert!(result.parts.len() >= 6);
//! assert!(result.inter_cluster_fraction() <= 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomposition;
pub mod ldd;
pub mod nibble;
pub mod parallel_nibble;
pub mod params;
pub mod partition;
pub mod prelude;
pub mod quality;
pub mod recluster;
pub mod rounds;
pub mod scheduler;
pub mod sparse_cut;
pub mod verify;

pub use decomposition::{
    ClusterAssignment, ClusterCertificate, DecompositionResult, ExpanderDecomposition,
};
pub use params::{DecompositionParams, NibbleParams, ParamMode, SparseCutParams};
pub use quality::{QualityBounds, QualityReport};
pub use recluster::{recluster_broken, ReclusterParams, ReclusterReport, Reuse};
pub use scheduler::{
    derive_seed, JobStats, LevelExecution, RecursionReport, SchedulerPolicy, ScratchPool,
};
pub use sparse_cut::{nearly_most_balanced_sparse_cut, SparseCutOutcome};
