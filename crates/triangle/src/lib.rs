//! **Theorem 2** — triangle enumeration in `Õ(n^{1/3})` CONGEST rounds.
//!
//! One CONGEST implementation, its baseline and its ground truth:
//!
//! * [`count`] — centralized enumerators (degree-ordered merge join and a
//!   brute-force reference). Ground truth + work baseline.
//! * [`pipeline`] — the paper's CONGEST algorithm end to end:
//!   expander-decompose the graph (`ε ≤ 1/6`), list every triangle that
//!   has at least one intra-cluster edge inside its cluster — the
//!   Dolev–Lenzen–Peled group-triple slices ([`dlp`]) are delivered with
//!   batched GKS expander routing in `Õ(n^{1/3})` queries and the
//!   adjacency exchange runs on the CONGEST round engine — then recurse
//!   on the inter-cluster remainder `E*` (`|E*| ≤ ε·|E| ≤ |E|/6`, so
//!   `O(log m)` levels), with per-phase round/message budgets reported
//!   against the paper's bounds.
//! * [`clique_algo`] — the Dolev–Lenzen–Peled deterministic
//!   CONGESTED-CLIQUE lister (`O(n^{1/3})` rounds via Lenzen routing),
//!   the baseline that establishes Theorem 2's headline: CONGEST matches
//!   CONGESTED-CLIQUE up to polylog factors.
//! * [`service`] — the build-once/query-many split: the pipeline's build
//!   phase frozen into an immutable [`service::QueryEngine`] that serves
//!   concurrent triangle point queries with per-query routing charges.
//! * [`churn`] — incremental maintenance under live edge churn: a
//!   [`churn::DeltaLedger`] keeps counts and witnesses exact per batch,
//!   and certificate-driven reclustering refreezes only broken clusters.
//!
//! Every algorithm returns a *sorted, deduplicated* triangle list so
//! completeness is a one-line assertion against ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod clique_algo;
pub mod count;
pub mod dlp;
pub mod pipeline;
pub mod service;

pub use churn::{BatchReport, ChurnPolicy, DeltaLedger, EdgeOp, RebuildReport};
pub use clique_algo::{clique_enumerate, CliqueEnumeration};
pub use count::{count_triangles, enumerate_triangles, Triangle};
pub use pipeline::{
    enumerate_via_decomposition, enumerate_with_assignment, PipelineParams, TriangleReport,
};
pub use service::{
    Answer, Emit, FrozenCluster, FrozenEngine, FrozenReport, Query, QueryEngine, QueryOutcome,
    RestoreError, ServeReport, ServiceError,
};
