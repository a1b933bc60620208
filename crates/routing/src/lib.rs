//! Ghaffari–Kuhn–Su expander routing, viewed as a **distributed data
//! structure** with a preprocessing/query trade-off (paper §3).
//!
//! On a graph with mixing time `τ_mix`, GKS route any instance in which
//! every vertex is source and destination of `O(deg(v))` messages. Their
//! construction is hierarchical with a tunable depth `k`:
//!
//! * **Preprocessing**: building the hierarchy costs
//!   `O(kβ)·(log n)^{O(k)}·τ_mix` rounds plus `O(kβ²·log n)·τ_mix` for the
//!   portals, where `β = m^{1/k}`.
//! * **Query**: each routing instance then costs `(log n)^{O(k)}·τ_mix`.
//!
//! The paper's observation: with **constant** `k`, preprocessing is
//! `o(n^{1/3})` while queries stay polylogarithmic — exactly what the
//! triangle algorithm needs, since it performs `Õ(n^{1/3})` queries per
//! cluster. (GKS originally set `k = Θ(√(log n/log log n))` to balance the
//! two, giving `2^{O(√(log n log log n))}`; Ghaffari–Li's improvement does
//! *not* admit this trade-off — §3 — so GKS is what Theorem 2 uses.)
//!
//! [`RoutingHierarchy`] materializes the recursive β-way splitting and
//! charges rounds per the three GKS lemmas with *measured* quantities
//! (actual `β`, actual mixing-time estimate, actual congestion). One
//! deterministic charge model prices every routing instance as a
//! [`QueryCharge`], with two cost profiles:
//! [`RoutingHierarchy::route_edge_loads`] charges a whole batched
//! instance from aggregate per-vertex loads (one `O(n)` load vector, the
//! triangle pipeline's DLP step), and [`RoutingHierarchy::route_query`]
//! charges one point query by walking only its `O(k·log n)` touched
//! vertices (the serve path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hierarchy;
mod mixing;

pub use hierarchy::{HierarchyParts, LevelParts, QueryCharge, RoutingHierarchy};
pub use mixing::estimate_mixing_time;

/// Errors from building or querying the routing structure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// The graph is empty or has no edges.
    EmptyGraph,
    /// The hierarchy depth `k` must be at least 1.
    BadDepth {
        /// The offending depth.
        k: usize,
    },
    /// A request referenced a vertex outside the graph.
    BadRequest {
        /// The offending vertex id.
        vertex: u64,
    },
    /// A degree oracle of the wrong length was supplied to a read-only
    /// query (it must cover every vertex of the routed graph).
    BadDegrees {
        /// Number of vertices the hierarchy was built over.
        expected: usize,
        /// Length of the supplied degree slice.
        got: usize,
    },
    /// Deserialized [`HierarchyParts`] violate a structural invariant.
    BadParts {
        /// Which invariant was violated.
        reason: String,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::EmptyGraph => write!(f, "routing requires a non-empty graph"),
            RoutingError::BadDepth { k } => write!(f, "hierarchy depth k = {k} must be >= 1"),
            RoutingError::BadRequest { vertex } => {
                write!(f, "request references unknown vertex {vertex}")
            }
            RoutingError::BadDegrees { expected, got } => {
                write!(
                    f,
                    "degree oracle covers {got} vertices, hierarchy has {expected}"
                )
            }
            RoutingError::BadParts { reason } => {
                write!(f, "invalid hierarchy parts: {reason}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Result alias for routing operations.
pub type Result<T> = std::result::Result<T, RoutingError>;
