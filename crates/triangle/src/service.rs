//! The triangle-query **service**: decompose once, serve point queries
//! forever.
//!
//! Every other entry point in this crate rebuilds the full Theorem 2
//! pipeline per call. That is the right shape for a one-shot enumeration
//! benchmark and the wrong shape for traffic: the expander decomposition
//! and the per-cluster GKS hierarchies depend only on the graph, not on
//! the query, and the paper's §3 preprocessing/query trade-off exists
//! precisely so that the expensive structure is built *once* and then
//! amortized over `Õ(n^{1/3})` cheap queries. [`QueryEngine`] freezes the
//! build phase of [`crate::enumerate_via_decomposition`] into an immutable
//! artifact:
//!
//! * the [`expander::ClusterAssignment`] of the **level-0** decomposition
//!   (cluster id per vertex, certificates, the inter-cluster edge list),
//! * one [`RoutingHierarchy`] per routable cluster, built on the cluster's
//!   kept-edge induced subgraph exactly as the pipeline builds it,
//! * the served graph's **deduplicated adjacency** ([`Graph::to_simple`]),
//!   one flat CSR shared by `Arc` — the same sorted neighbor rows the
//!   pipeline's adjacency exchange streams, which is what makes service
//!   answers agree with pipeline enumeration.
//!
//! Queries ([`Query`]) are answered from those rows alone; the frozen
//! hierarchies are consulted **read-only** through
//! [`RoutingHierarchy::route_query`] to charge each answer's word/round
//! cost ([`QueryCharge`]) against the paper budget. The engine is
//! `Send + Sync` by construction (asserted below), shares via `Arc`, and
//! [`QueryEngine::serve`] fans a query batch out on the deterministic
//! scheduler — answers are **bit-identical** across worker counts because
//! each query is a pure function of the artifact.
//!
//! Why level-0 only: recursion levels exist to *list* triangles whose
//! edges were cut; a point query instead re-derives its answer from the
//! owner's full-graph neighbor rows, so cut edges lose nothing — they only
//! move the charge from cluster routing to the (zero-charged) residual,
//! exactly like the pipeline's own remainder phase. DESIGN.md §12 spells
//! out the contract.

use crate::count::Triangle;
use crate::pipeline::PipelineParams;
use expander::decomposition::RemovalTag;
use expander::recluster::Reuse;
use expander::scheduler::{derive_seed, run_jobs, JobStats, SchedulerPolicy};
use expander::{ClusterAssignment, ClusterCertificate, ExpanderDecomposition};
use graph::view::Subgraph;
use graph::{intersect_sorted, Graph, VertexId, VertexSet, WorkingGraph};
use routing::{HierarchyParts, QueryCharge, RoutingHierarchy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether a query returns full witnesses or only their number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// Return only the triangle count (cheapest wire format).
    Count,
    /// Return the sorted, deduplicated witness triangles.
    Enumerate,
}

/// One point query against a built [`QueryEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// All triangles containing vertex `v`.
    Vertex {
        /// The vertex the triangles must contain.
        v: VertexId,
        /// Count or enumerate.
        emit: Emit,
    },
    /// All triangles containing the edge `{u, v}` (empty if `{u, v}` is
    /// not an edge — a triangle through both endpoints necessarily
    /// contains the edge).
    Edge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Count or enumerate.
        emit: Emit,
    },
    /// The `k` edges incident to `v` with the most triangle support
    /// (descending support, ties by ascending endpoint ids).
    TopKBySupport {
        /// The anchor vertex.
        v: VertexId,
        /// How many edges to return.
        k: usize,
    },
}

/// An edge with its triangle support, as returned by
/// [`Query::TopKBySupport`]. Canonical form: `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSupport {
    /// Lower endpoint.
    pub u: VertexId,
    /// Higher endpoint.
    pub v: VertexId,
    /// Number of triangles containing the edge.
    pub support: u64,
}

/// The payload of one answered [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Triangle count ([`Emit::Count`]).
    Count(u64),
    /// Sorted, deduplicated witness triangles ([`Emit::Enumerate`]).
    Triangles(Vec<Triangle>),
    /// Top-k incident edges by support ([`Query::TopKBySupport`]).
    TopEdges(Vec<EdgeSupport>),
}

/// One answered query: the payload plus its routing charge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// What the query asked for.
    pub answer: Answer,
    /// Word/query/round cost charged through the owner's frozen
    /// cluster hierarchy (all-zero for clusters too degenerate to route).
    pub charge: QueryCharge,
}

/// Errors a point query can produce. Malformed queries are per-query
/// errors, never panics — a server cannot crash on client input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The query referenced a vertex outside the graph.
    UnknownVertex {
        /// The offending vertex id.
        v: VertexId,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownVertex { v } => write!(f, "query references unknown vertex {v}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What one build of the artifact cost and produced.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Vertices of the served graph.
    pub n: usize,
    /// Edges of the served graph.
    pub m: usize,
    /// Clusters in the frozen assignment.
    pub clusters: usize,
    /// Clusters that carry a routing hierarchy (non-degenerate).
    pub routed_clusters: usize,
    /// Conductance promise of the frozen decomposition.
    pub phi: f64,
    /// CONGEST rounds charged to the decomposition (0 when the
    /// assignment was supplied by the caller).
    pub decomposition_rounds: u64,
    /// Heaviest per-cluster hierarchy preprocessing charge (clusters
    /// build in parallel, so the max is the critical path).
    pub hierarchy_build_rounds: u64,
    /// Words in the deduplicated adjacency rows the engine answers from
    /// (twice the number of distinct non-loop edges).
    pub snapshot_words: u64,
    /// Wall clock of the decomposition (or assignment intake).
    pub wall_decompose: Duration,
    /// Wall clock of freezing the rows + hierarchies.
    pub wall_freeze: Duration,
}

impl BuildReport {
    /// Total build wall: decompose + freeze. The `build_s` the serve tier
    /// reports next to the pipeline tier's decompose wall.
    pub fn wall_total(&self) -> Duration {
        self.wall_decompose + self.wall_freeze
    }
}

/// Per-cluster frozen state: the induced-subgraph degree snapshot the
/// read-only routing charge consults (indexed by the cluster-local id),
/// and the cluster's hierarchy (absent for clusters with no internal edge
/// or fewer than two vertices — the same degeneracy convention as the
/// pipeline's `route_cluster_slices`, which charges such clusters zero).
#[derive(Debug)]
struct ClusterArtifact {
    local_deg: Vec<u32>,
    /// `Arc`'d so a re-certified cluster re-freezes its degrees around it.
    hierarchy: Option<Arc<RoutingHierarchy>>,
    /// Intra-cluster deletions `hierarchy` has absorbed since it was
    /// built. In-memory only: a restored engine starts from zero.
    absorbed: usize,
}

/// The carry rule (DESIGN.md §15.3): a re-certified cluster keeps its
/// hierarchy while `absorbed · τ_mix ≤ vol`, the expander-pruning scale
/// (`d` deletions prune `O(d/φ)` volume, `τ_mix ≈ ln vol/φ`).
fn carry_tolerates(h: &RoutingHierarchy, absorbed: usize, vol: usize) -> bool {
    absorbed.saturating_mul(h.tau_mix()) <= vol
}

/// The immutable build-once/query-many artifact.
///
/// Build with [`QueryEngine::build`] (runs the measured decomposition) or
/// [`QueryEngine::from_assignment`] (planted/cached clusters), wrap in an
/// [`Arc`], hand clones to every client thread, and answer via
/// [`QueryEngine::answer`] or the batched [`QueryEngine::serve`]. All
/// methods take `&self`; nothing mutates after construction.
///
/// # Examples
///
/// ```
/// use triangle::service::{Emit, Query, QueryEngine};
/// use triangle::PipelineParams;
///
/// let g = graph::gen::gnp(40, 0.3, 7).unwrap();
/// let engine = QueryEngine::build(&g, &PipelineParams::default());
/// let out = engine.answer(Query::Vertex { v: 3, emit: Emit::Count }).unwrap();
/// let full = triangle::enumerate_triangles(&g);
/// let through_3 = full.iter().filter(|t| t.contains(3)).count() as u64;
/// assert_eq!(out.answer, triangle::service::Answer::Count(through_3));
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    assignment: Arc<ClusterAssignment>,
    /// The served graph's deduplicated adjacency: every query reads its
    /// rows here, by global id.
    rows: Arc<Graph>,
    /// Per-cluster frozen artifacts. Individually `Arc`'d so an
    /// incremental refreeze ([`QueryEngine::refreeze`]) can carry
    /// untouched clusters' degrees and hierarchies into the next engine
    /// by pointer instead of rebuilding them.
    clusters: Vec<Arc<ClusterArtifact>>,
    /// Cluster-local index of every vertex (its id in the cluster's
    /// degree snapshot and hierarchy).
    local_of: Vec<u32>,
    build: BuildReport,
}

// The immutability contract: the artifact must be shareable across client
// threads by reference. Compile-time assertion — if a future field breaks
// `Send + Sync`, this fails to build rather than failing under load.
const _: fn() = || {
    fn assert_shared<T: Send + Sync>() {}
    assert_shared::<QueryEngine>();
};

impl QueryEngine {
    /// Runs the build phase once: the measured expander decomposition at
    /// level 0 (`derive_seed(params.seed, 0)`, exactly the pipeline's
    /// level-0 seed), then freezes rows and hierarchies via
    /// [`QueryEngine::from_assignment`]'s machinery.
    ///
    /// Graphs with no edges or fewer than three vertices cannot contain a
    /// triangle and cannot be decomposed; they freeze a singleton-cluster
    /// assignment so every query still answers (with zero routing charge).
    pub fn build(g: &Graph, params: &PipelineParams) -> QueryEngine {
        let policy = params.scheduler_policy();
        let t0 = Instant::now();
        let (assignment, decomposition_rounds) = if g.m() == 0 || g.n() < 3 {
            let parts: Vec<VertexSet> = (0..g.n())
                .map(|v| VertexSet::from_iter(g.n(), [v as VertexId]))
                .collect();
            (ClusterAssignment::from_parts(g, &parts, 0.0, &policy), 0)
        } else {
            let eps = params.epsilon.clamp(1e-3, 1.0 / 6.0);
            let decomp = ExpanderDecomposition::builder()
                .epsilon(eps)
                .k(params.decomposition_k.max(1))
                .mode(params.mode)
                .seed(derive_seed(params.seed, 0))
                .build()
                .run(g)
                .expect("graph has edges");
            let rounds = decomp.ledger.total();
            (decomp.cluster_assignment_with(g, &policy), rounds)
        };
        let wall_decompose = t0.elapsed();
        Self::freeze(
            g,
            assignment,
            params,
            decomposition_rounds,
            wall_decompose,
            None,
        )
    }

    /// Freezes a caller-supplied assignment — planted blocks, an oracle,
    /// or a cached decomposition — without running Theorem 1. The serve
    /// tier's fast path on instances with known ground-truth clusters.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` was built for a different vertex count.
    pub fn from_assignment(
        g: &Graph,
        assignment: ClusterAssignment,
        params: &PipelineParams,
    ) -> QueryEngine {
        assert_eq!(
            assignment.n,
            g.n(),
            "assignment/graph vertex-count mismatch"
        );
        Self::freeze(g, assignment, params, 0, Duration::ZERO, None)
    }

    /// Freezes a churned assignment while **reusing** the per-cluster
    /// artifacts of a previous engine, per entry of `reuse`:
    /// [`Reuse::Untouched`] carries the old cluster's degree snapshot and
    /// hierarchy (with its original seed) from `prev` by `Arc` pointer;
    /// [`Reuse::Recertified`] re-freezes the degrees from `g` and carries
    /// only the hierarchy, while the deletions it has absorbed since it
    /// was built stay inside the carry rule
    /// (`absorbed · τ_mix ≤ vol`; past it the hierarchy is rebuilt and the
    /// count restarts); [`Reuse::Fresh`] clusters are frozen from scratch.
    /// This is the churn tier's incremental rebuild: a cluster pays for
    /// what changed in it.
    ///
    /// Soundness is the caller's contract (upheld by
    /// `expander::recluster::recluster_broken`): an untouched cluster has
    /// identical membership AND no member with a changed full-graph
    /// adjacency row, so its artifact is bit-identical to a fresh freeze;
    /// a re-certified cluster has identical membership — the cluster-local
    /// ids the hierarchy is indexed by — and still certifies φ. Answers
    /// are pure functions of the rows, which are always re-read from `g`.
    /// Carried hierarchies keep their seeds, groups, portals and `τ_mix`,
    /// so routing *charges* may differ from a from-scratch build; answers
    /// never do.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` was built for a different vertex count, if
    /// `reuse` has a different length than the assignment's cluster list,
    /// or if a reused id is out of range in `prev`.
    pub fn refreeze(
        g: &Graph,
        assignment: ClusterAssignment,
        params: &PipelineParams,
        prev: &QueryEngine,
        reuse: &[Reuse],
    ) -> QueryEngine {
        assert_eq!(
            assignment.n,
            g.n(),
            "assignment/graph vertex-count mismatch"
        );
        assert_eq!(
            reuse.len(),
            assignment.clusters.len(),
            "one reuse entry per cluster"
        );
        Self::freeze(
            g,
            assignment,
            params,
            0,
            Duration::ZERO,
            Some((prev, reuse)),
        )
    }

    /// Whether this engine's cluster `c` shares its frozen artifact (by
    /// `Arc` pointer) with `other`'s cluster `other_c` — the observable
    /// the recluster-scope regression test pins: untouched clusters must
    /// survive a refreeze pointer-equal, never deep-copied.
    pub fn shares_cluster_artifact(&self, c: usize, other: &QueryEngine, other_c: usize) -> bool {
        Arc::ptr_eq(&self.clusters[c], &other.clusters[other_c])
    }

    /// Whether cluster `c` routes on the same hierarchy allocation as
    /// `other`'s cluster `other_c` (untouched, or re-certified and carried).
    pub fn shares_hierarchy(&self, c: usize, other: &QueryEngine, other_c: usize) -> bool {
        let (a, b) = (&self.clusters[c], &other.clusters[other_c]);
        matches!((&a.hierarchy, &b.hierarchy), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// The shared freeze: the deduplicated rows of `g`, then per-cluster
    /// degree + hierarchy jobs on the deterministic scheduler, seeded like
    /// the pipeline's level-0 cluster jobs. With a `reuse` context,
    /// untouched clusters are carried over by pointer and re-certified
    /// ones keep their hierarchy.
    fn freeze(
        g: &Graph,
        assignment: ClusterAssignment,
        params: &PipelineParams,
        decomposition_rounds: u64,
        wall_decompose: Duration,
        reuse: Option<(&QueryEngine, &[Reuse])>,
    ) -> QueryEngine {
        let t0 = Instant::now();
        let policy = params.scheduler_policy();
        // Kept-edge overlay: hierarchies live on the intra-cluster
        // structure, the same tombstone view the pipeline routes on.
        let kept = {
            let mut overlay = WorkingGraph::new(g);
            overlay.remove_edges(assignment.inter_cluster_edges(), false);
            overlay
        };
        let level_seed = derive_seed(params.seed, 0);
        let rows = Arc::new(g.to_simple());
        let jobs: Vec<(usize, &VertexSet)> = assignment.clusters.iter().enumerate().collect();
        let (artifacts, _stats) = run_jobs(jobs, &policy, |_, (id, part)| {
            let recertified = match reuse.map(|(prev, map)| (prev, map[id])) {
                Some((prev, Reuse::Untouched(old))) => return Arc::clone(&prev.clusters[old]),
                Some((prev, Reuse::Recertified { old, deleted })) => {
                    Some((&prev.clusters[old], deleted))
                }
                Some((_, Reuse::Fresh)) | None => None,
            };
            let cert = &assignment.certificates[id];
            let (hierarchy, local_deg, absorbed) = if cert.internal_edges > 0 && part.len() >= 2 {
                let sub = Subgraph::induced(&kept, part);
                let local_deg: Vec<u32> = (0..part.len())
                    .map(|u| sub.graph().degree(u as VertexId) as u32)
                    .collect();
                let carried = recertified.and_then(|(old, deleted)| {
                    let h = old.hierarchy.as_ref()?;
                    let absorbed = old.absorbed + deleted;
                    carry_tolerates(h, absorbed, sub.graph().total_volume())
                        .then(|| (Some(Arc::clone(h)), absorbed))
                });
                let (h, absorbed) = carried.unwrap_or_else(|| {
                    let built = RoutingHierarchy::build(
                        sub.graph(),
                        params.routing_depth.max(1),
                        derive_seed(level_seed, id as u64),
                    );
                    (built.ok().map(Arc::new), 0)
                });
                (h, local_deg, absorbed)
            } else {
                (None, Vec::new(), 0)
            };
            Arc::new(ClusterArtifact {
                local_deg,
                hierarchy,
                absorbed,
            })
        });

        let mut local_of = vec![0u32; g.n()];
        for part in &assignment.clusters {
            for (local, v) in part.iter().enumerate() {
                local_of[v as usize] = local as u32;
            }
        }
        let (routed_clusters, hierarchy_build_rounds) = hierarchy_totals(&artifacts);
        let build = BuildReport {
            n: g.n(),
            m: g.m(),
            clusters: assignment.clusters.len(),
            routed_clusters,
            phi: assignment.phi,
            decomposition_rounds,
            hierarchy_build_rounds,
            snapshot_words: 2 * rows.m() as u64,
            wall_decompose,
            wall_freeze: t0.elapsed(),
        };
        QueryEngine {
            assignment: Arc::new(assignment),
            rows,
            clusters: artifacts,
            local_of,
            build,
        }
    }

    /// The frozen cluster assignment (shared, read-only).
    pub fn assignment(&self) -> &ClusterAssignment {
        &self.assignment
    }

    /// What the build cost and produced.
    pub fn build_report(&self) -> &BuildReport {
        &self.build
    }

    /// The paper's per-cluster query budget `n^{1/3}·log² n` — the same
    /// curve [`crate::TriangleReport::paper_query_budget`] audits, so the
    /// serve tier and the pipeline tier compare against one number.
    pub fn paper_query_budget(&self) -> f64 {
        let n = self.build.n.max(2) as f64;
        n.powf(1.0 / 3.0) * n.log2() * n.log2()
    }

    /// The query budget in the model's word unit (`2m/n` words per
    /// query), mirroring [`crate::TriangleReport::paper_word_budget`].
    pub fn paper_word_budget(&self) -> f64 {
        let avg_deg = 2.0 * self.build.m as f64 / self.build.n.max(1) as f64;
        self.paper_query_budget() * avg_deg.max(1.0)
    }

    fn check(&self, v: VertexId) -> Result<(), ServiceError> {
        if (v as usize) < self.build.n {
            Ok(())
        } else {
            Err(ServiceError::UnknownVertex { v })
        }
    }

    /// Charges `words` converging on owner `v` through `v`'s frozen
    /// cluster hierarchy ([`RoutingHierarchy::route_query`]); clusters
    /// without a hierarchy charge zero queries/rounds — the same
    /// convention as the pipeline's degenerate clusters.
    fn charge(&self, v: VertexId, words: u64) -> QueryCharge {
        let c = self.assignment.cluster_of[v as usize] as usize;
        let art = &self.clusters[c];
        match &art.hierarchy {
            Some(h) => h
                .route_query(&art.local_deg, self.local_of[v as usize], words)
                .expect("cluster-local owner is always in range"),
            None => QueryCharge {
                words,
                delivered: true,
                ..QueryCharge::default()
            },
        }
    }

    /// Answers one point query. Pure per `(artifact, query)` — the
    /// determinism contract concurrent serving relies on.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownVertex`] if the query names a vertex
    /// outside the graph.
    pub fn answer(&self, query: Query) -> Result<QueryOutcome, ServiceError> {
        match query {
            Query::Vertex { v, emit } => {
                self.check(v)?;
                let adj = self.rows.neighbors(v);
                let mut words = adj.len() as u64;
                let mut count = 0u64;
                let mut triangles = Vec::new();
                for &u in adj {
                    if u == v {
                        continue;
                    }
                    // Both u and the emitted w are neighbors of v; keeping
                    // w > u names each triangle {v, u, w} exactly once.
                    words += intersect_sorted(adj, self.rows.neighbors(u), |w| {
                        if w > u && w != v {
                            count += 1;
                            if emit == Emit::Enumerate {
                                triangles.push(Triangle::new(v, u, w));
                            }
                        }
                    });
                }
                triangles.sort_unstable();
                let answer = match emit {
                    Emit::Count => Answer::Count(count),
                    Emit::Enumerate => Answer::Triangles(triangles),
                };
                Ok(QueryOutcome {
                    answer,
                    charge: self.charge(v, words),
                })
            }
            Query::Edge { u, v, emit } => {
                self.check(u)?;
                self.check(v)?;
                let mut count = 0u64;
                let mut triangles = Vec::new();
                // One probe word for the edge-presence check; the owner
                // (lower endpoint, the pipeline's edge-ownership rule) is
                // charged the streamed words.
                let mut words = 1u64;
                if u != v {
                    let au = self.rows.neighbors(u);
                    if au.binary_search(&v).is_ok() {
                        words += intersect_sorted(au, self.rows.neighbors(v), |w| {
                            if w != u && w != v {
                                count += 1;
                                if emit == Emit::Enumerate {
                                    triangles.push(Triangle::new(u, v, w));
                                }
                            }
                        });
                    }
                }
                triangles.sort_unstable();
                let answer = match emit {
                    Emit::Count => Answer::Count(count),
                    Emit::Enumerate => Answer::Triangles(triangles),
                };
                Ok(QueryOutcome {
                    answer,
                    charge: self.charge(u.min(v), words),
                })
            }
            Query::TopKBySupport { v, k } => {
                self.check(v)?;
                let adj = self.rows.neighbors(v);
                let mut words = adj.len() as u64;
                let mut edges: Vec<EdgeSupport> = Vec::with_capacity(adj.len());
                for &u in adj {
                    if u == v {
                        continue;
                    }
                    let mut support = 0u64;
                    words += intersect_sorted(adj, self.rows.neighbors(u), |w| {
                        if w != u && w != v {
                            support += 1;
                        }
                    });
                    edges.push(EdgeSupport {
                        u: v.min(u),
                        v: v.max(u),
                        support,
                    });
                }
                edges.sort_unstable_by(|a, b| {
                    b.support
                        .cmp(&a.support)
                        .then(a.u.cmp(&b.u))
                        .then(a.v.cmp(&b.v))
                });
                edges.truncate(k);
                Ok(QueryOutcome {
                    answer: Answer::TopEdges(edges),
                    charge: self.charge(v, words),
                })
            }
        }
    }

    /// Serves a query batch on the deterministic scheduler, **chunked
    /// per worker**: queries are split into contiguous chunks and each
    /// chunk runs as one scheduler job, so the per-job scheduling cost
    /// (queue lock, scoped-task spawn) is amortized over hundreds of
    /// microsecond-scale queries instead of paid per query — the PR 7
    /// follow-up that lets a multi-threaded serve actually beat `t = 1`.
    /// The chunk size aims at four chunks per worker, enough slack for
    /// the shared pull queue to rebalance a skewed stream.
    ///
    /// Answers are merged back in submission order and each query is a
    /// pure function of the artifact, so the report is **bit-identical**
    /// for every worker count *and* every chunk size — chunk size 1 (one
    /// scheduler job per query) is the reference
    /// `tests/service_equivalence.rs` pins it against.
    pub fn serve(&self, queries: &[Query], policy: &SchedulerPolicy) -> ServeReport {
        let workers = policy.effective_workers(queries.len()).max(1);
        let chunk = queries.len().div_ceil(workers * 4).max(1);
        self.serve_chunked(queries, policy, chunk)
    }

    /// [`QueryEngine::serve`] with an explicit chunk size (`0` is treated
    /// as `1`). Exposed for the batching ablation: any chunk size yields
    /// bit-identical answers, only the scheduling overhead moves.
    pub fn serve_chunked(
        &self,
        queries: &[Query],
        policy: &SchedulerPolicy,
        chunk: usize,
    ) -> ServeReport {
        let t0 = Instant::now();
        let jobs: Vec<&[Query]> = queries.chunks(chunk.max(1)).collect();
        let (chunks, stats) = run_jobs(jobs, policy, |_, qs| {
            let mut out = Vec::with_capacity(qs.len());
            for &q in qs {
                let t = Instant::now();
                out.push((self.answer(q), t.elapsed()));
            }
            out
        });
        let mut answers = Vec::with_capacity(queries.len());
        let mut latencies = Vec::with_capacity(queries.len());
        for (a, l) in chunks.into_iter().flatten() {
            answers.push(a);
            latencies.push(l);
        }
        ServeReport {
            answers,
            latencies,
            wall: t0.elapsed(),
            stats,
        }
    }

    /// Snapshots the engine into plain owned data ([`FrozenEngine`]) that
    /// a persistence layer can serialize, plus the shared adjacency rows
    /// (by `Arc`, not copied). Everything a query touches is captured —
    /// restoring with [`QueryEngine::from_frozen`] yields
    /// **bit-identical** answers, charges included.
    pub fn to_frozen(&self) -> FrozenEngine {
        FrozenEngine {
            n: self.assignment.n,
            cluster_of: self.assignment.cluster_of.clone(),
            members: self
                .assignment
                .clusters
                .iter()
                .map(|part| part.iter().collect())
                .collect(),
            inter_cluster: self.assignment.inter_cluster.clone(),
            phi: self.assignment.phi,
            certificates: self.assignment.certificates.clone(),
            rows: Arc::clone(&self.rows),
            clusters: self
                .clusters
                .iter()
                .map(|a| FrozenCluster {
                    local_deg: a.local_deg.clone(),
                    hierarchy: a.hierarchy.as_deref().map(RoutingHierarchy::to_parts),
                })
                .collect(),
            local_of: self.local_of.clone(),
            report: FrozenReport {
                m: self.build.m,
                decomposition_rounds: self.build.decomposition_rounds,
                wall_decompose_ns: duration_to_ns(self.build.wall_decompose),
                wall_freeze_ns: duration_to_ns(self.build.wall_freeze),
            },
        }
    }

    /// Rebuilds an engine from a frozen snapshot without re-running the
    /// decomposition or the hierarchy builds. Every structural invariant
    /// a query relies on is re-validated first, so corrupted or
    /// hand-forged snapshots produce a typed [`RestoreError`], never a
    /// panic at answer time.
    ///
    /// Derived report fields (`routed_clusters`, `hierarchy_build_rounds`,
    /// `snapshot_words`) are recomputed from the restored state; they are
    /// deterministic functions of it, so they match the original build.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] naming the violated invariant.
    pub fn from_frozen(frozen: FrozenEngine) -> Result<QueryEngine, RestoreError> {
        let bad = |reason: String| RestoreError { reason };
        let n = frozen.n;
        let x = frozen.members.len();
        if frozen.cluster_of.len() != n {
            return Err(bad(format!(
                "cluster_of covers {} vertices, n = {n}",
                frozen.cluster_of.len()
            )));
        }
        if frozen.local_of.len() != n {
            return Err(bad(format!(
                "local_of covers {} vertices, n = {n}",
                frozen.local_of.len()
            )));
        }
        if frozen.rows.n() != n {
            return Err(bad(format!(
                "adjacency rows cover {} vertices, n = {n}",
                frozen.rows.n()
            )));
        }
        if frozen.certificates.len() != x || frozen.clusters.len() != x {
            return Err(bad(format!(
                "{x} member lists vs {} certificates vs {} cluster artifacts",
                frozen.certificates.len(),
                frozen.clusters.len()
            )));
        }
        let total_members: usize = frozen.members.iter().map(Vec::len).sum();
        if total_members != n {
            return Err(bad(format!(
                "member lists hold {total_members} vertices, n = {n}"
            )));
        }
        // Membership must agree with the persisted cluster_of/local_of
        // inverses exactly; together with the count check above, every
        // vertex appears in exactly one cluster at its recorded slot.
        for (c, members) in frozen.members.iter().enumerate() {
            let mut prev: Option<VertexId> = None;
            for (slot, &v) in members.iter().enumerate() {
                if (v as usize) >= n {
                    return Err(bad(format!("cluster {c} lists vertex {v} >= n = {n}")));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(bad(format!("cluster {c} member list is not ascending")));
                }
                prev = Some(v);
                if frozen.cluster_of[v as usize] as usize != c {
                    return Err(bad(format!(
                        "vertex {v} listed in cluster {c} but cluster_of says {}",
                        frozen.cluster_of[v as usize]
                    )));
                }
                if frozen.local_of[v as usize] as usize != slot {
                    return Err(bad(format!(
                        "vertex {v} at slot {slot} of cluster {c} but local_of says {}",
                        frozen.local_of[v as usize]
                    )));
                }
            }
        }
        for &(u, v, _) in &frozen.inter_cluster {
            if (u as usize) >= n || (v as usize) >= n {
                return Err(bad(format!("inter-cluster edge ({u}, {v}) out of range")));
            }
        }
        let mut artifacts = Vec::with_capacity(x);
        for (c, fc) in frozen.clusters.into_iter().enumerate() {
            let size = frozen.members[c].len();
            let hierarchy = match fc.hierarchy {
                None => None,
                Some(parts) => {
                    if parts.n != size || fc.local_deg.len() != size {
                        return Err(bad(format!(
                            "cluster {c} hierarchy covers {} vertices, degrees {}, \
                             cluster has {size}",
                            parts.n,
                            fc.local_deg.len()
                        )));
                    }
                    Some(Arc::new(
                        RoutingHierarchy::from_parts(parts)
                            .map_err(|e| bad(format!("cluster {c} hierarchy: {e}")))?,
                    ))
                }
            };
            artifacts.push(Arc::new(ClusterArtifact {
                local_deg: fc.local_deg,
                hierarchy,
                absorbed: 0,
            }));
        }
        let (routed_clusters, hierarchy_build_rounds) = hierarchy_totals(&artifacts);
        let assignment = ClusterAssignment {
            n,
            cluster_of: frozen.cluster_of,
            clusters: frozen
                .members
                .iter()
                .map(|ms| VertexSet::from_iter(n, ms.iter().copied()))
                .collect(),
            inter_cluster: frozen.inter_cluster,
            phi: frozen.phi,
            certificates: frozen.certificates,
        };
        let build = BuildReport {
            n,
            m: frozen.report.m,
            clusters: x,
            routed_clusters,
            phi: frozen.phi,
            decomposition_rounds: frozen.report.decomposition_rounds,
            hierarchy_build_rounds,
            snapshot_words: 2 * frozen.rows.m() as u64,
            wall_decompose: Duration::from_nanos(frozen.report.wall_decompose_ns),
            wall_freeze: Duration::from_nanos(frozen.report.wall_freeze_ns),
        };
        Ok(QueryEngine {
            assignment: Arc::new(assignment),
            rows: frozen.rows,
            clusters: artifacts,
            local_of: frozen.local_of,
            build,
        })
    }
}

/// `(routed_clusters, hierarchy_build_rounds)` of a frozen cluster list:
/// how many clusters route, and the heaviest preprocessing charge among
/// them (clusters build in parallel, so the max is the critical path).
fn hierarchy_totals(artifacts: &[Arc<ClusterArtifact>]) -> (usize, u64) {
    let hierarchies = || artifacts.iter().filter_map(|a| a.hierarchy.as_deref());
    let rounds = hierarchies()
        .map(RoutingHierarchy::preprocessing_rounds)
        .max()
        .unwrap_or(0);
    (hierarchies().count(), rounds)
}

fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Outcome of one [`QueryEngine::serve`] batch.
///
/// `answers` is index-aligned with the submitted queries and is the
/// **deterministic** part (compare across worker counts with
/// [`ServeReport::answers_match`]); `latencies` and `wall` are measured
/// and machine-dependent, kept separate so equality checks never touch
/// them.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-query results, in submission order.
    pub answers: Vec<Result<QueryOutcome, ServiceError>>,
    /// Per-query service latency, index-aligned with `answers`.
    pub latencies: Vec<Duration>,
    /// Elapsed wall clock of the whole batch.
    pub wall: Duration,
    /// Scheduler statistics (workers, steals, per-worker jobs).
    pub stats: JobStats,
}

impl ServeReport {
    /// Whether two serves produced bit-identical answers (charges
    /// included), ignoring the measured latencies.
    pub fn answers_match(&self, other: &ServeReport) -> bool {
        self.answers == other.answers
    }

    /// Queries served per second of batch wall clock.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.answers.len() as f64 / secs
    }

    /// Nearest-rank latency percentile, `p` in `[0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The heaviest per-query routing-query charge in the batch — the
    /// per-vertex load the paper bounds by `Õ(n^{1/3})`.
    pub fn max_queries(&self) -> u64 {
        self.answers
            .iter()
            .filter_map(|a| a.as_ref().ok())
            .map(|o| o.charge.queries)
            .max()
            .unwrap_or(0)
    }

    /// The heaviest per-query word charge in the batch.
    pub fn max_words(&self) -> u64 {
        self.answers
            .iter()
            .filter_map(|a| a.as_ref().ok())
            .map(|o| o.charge.words)
            .max()
            .unwrap_or(0)
    }

    /// Total words streamed by the batch.
    pub fn total_words(&self) -> u64 {
        self.answers
            .iter()
            .filter_map(|a| a.as_ref().ok())
            .map(|o| o.charge.words)
            .sum()
    }

    /// Total triangle count across all counting/enumerating answers (a
    /// cheap batch checksum: identical streams must produce identical
    /// sums regardless of worker count).
    pub fn count_checksum(&self) -> u64 {
        self.answers
            .iter()
            .filter_map(|a| a.as_ref().ok())
            .map(|o| match &o.answer {
                Answer::Count(c) => *c,
                Answer::Triangles(ts) => ts.len() as u64,
                Answer::TopEdges(es) => es.iter().map(|e| e.support).sum(),
            })
            .sum()
    }
}

/// A [`QueryEngine`] flattened into plain data — no private routing
/// state — so a storage layer can serialize it and rebuild the engine
/// later without re-running the decomposition or the hierarchy builds.
/// Produced by [`QueryEngine::to_frozen`]; consumed (with full
/// re-validation) by [`QueryEngine::from_frozen`].
///
/// The round trip is **answer-preserving bit for bit**: every quantity a
/// query reads — adjacency rows, local ids, hierarchy levels and
/// portals, degree oracles — is captured, so [`QueryCharge`]s match too.
/// The rows are shared, not copied: a persistence layer already holds
/// them as the graph itself.
///
/// # Examples
///
/// ```
/// use triangle::service::{Emit, Query, QueryEngine};
/// use triangle::PipelineParams;
///
/// let g = graph::gen::gnp(30, 0.2, 3).unwrap();
/// let engine = QueryEngine::build(&g, &PipelineParams::default());
/// let restored = QueryEngine::from_frozen(engine.to_frozen()).unwrap();
/// let q = Query::Vertex { v: 5, emit: Emit::Count };
/// assert_eq!(engine.answer(q), restored.answer(q)); // charge included
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenEngine {
    /// Vertices of the served graph.
    pub n: usize,
    /// Cluster id of every vertex (the assignment's `cluster_of`).
    pub cluster_of: Vec<u32>,
    /// Per-cluster sorted member lists (the assignment's `clusters`,
    /// flattened out of their bitset representation).
    pub members: Vec<Vec<VertexId>>,
    /// Every inter-cluster edge with its removal tag.
    pub inter_cluster: Vec<(VertexId, VertexId, RemovalTag)>,
    /// The decomposition's conductance promise.
    pub phi: f64,
    /// Per-cluster certificates, index-aligned with `members`.
    pub certificates: Vec<ClusterCertificate>,
    /// The served graph's deduplicated adjacency, shared with the engine
    /// by pointer. Must be simple, as [`Graph::to_simple`] makes it.
    pub rows: Arc<Graph>,
    /// Per-cluster frozen artifacts, index-aligned with `members`.
    pub clusters: Vec<FrozenCluster>,
    /// Cluster-local index of every vertex.
    pub local_of: Vec<u32>,
    /// The non-derivable scalars of the original [`BuildReport`].
    pub report: FrozenReport,
}

/// One cluster's frozen artifact: the induced degree oracle and the
/// hierarchy as plain [`HierarchyParts`] (absent for degenerate
/// clusters, matching the build-time convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenCluster {
    /// Induced-subgraph degree of each member (empty when degenerate).
    pub local_deg: Vec<u32>,
    /// The cluster's routing hierarchy, if it has one.
    pub hierarchy: Option<HierarchyParts>,
}

/// The scalars of a [`BuildReport`] that cannot be recomputed from the
/// frozen structure alone. The derivable ones (`routed_clusters`,
/// `hierarchy_build_rounds`, `snapshot_words`) are deliberately absent —
/// [`QueryEngine::from_frozen`] recomputes them, which keeps a tampered
/// snapshot from telling a flattering story about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenReport {
    /// Edges of the served graph.
    pub m: usize,
    /// CONGEST rounds charged to the original decomposition.
    pub decomposition_rounds: u64,
    /// Original decomposition wall clock, in nanoseconds.
    pub wall_decompose_ns: u64,
    /// Original freeze wall clock, in nanoseconds.
    pub wall_freeze_ns: u64,
}

/// A [`FrozenEngine`] violated a structural invariant during
/// [`QueryEngine::from_frozen`] — the snapshot is corrupt, truncated, or
/// was built for a different graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// Which invariant was violated.
    pub reason: String,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid frozen engine: {}", self.reason)
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::enumerate_triangles;
    use crate::pipeline::enumerate_via_decomposition;

    fn params() -> PipelineParams {
        PipelineParams::default()
    }

    /// Reference answer: filter the full centralized triangle list.
    fn filtered_vertex(g: &Graph, v: VertexId) -> Vec<Triangle> {
        enumerate_triangles(g)
            .into_iter()
            .filter(|t| t.contains(v))
            .collect()
    }

    fn filtered_edge(g: &Graph, u: VertexId, v: VertexId) -> Vec<Triangle> {
        enumerate_triangles(g)
            .into_iter()
            .filter(|t| t.contains(u) && t.contains(v))
            .collect()
    }

    #[test]
    fn vertex_queries_match_filtered_ground_truth() {
        let g = graph::gen::gnp(60, 0.2, 11).unwrap();
        let engine = QueryEngine::build(&g, &params());
        for v in 0..60u32 {
            let want = filtered_vertex(&g, v);
            let out = engine
                .answer(Query::Vertex {
                    v,
                    emit: Emit::Enumerate,
                })
                .unwrap();
            assert_eq!(out.answer, Answer::Triangles(want.clone()), "vertex {v}");
            let out = engine
                .answer(Query::Vertex {
                    v,
                    emit: Emit::Count,
                })
                .unwrap();
            assert_eq!(out.answer, Answer::Count(want.len() as u64));
        }
    }

    #[test]
    fn edge_queries_match_filtered_ground_truth() {
        let g = graph::gen::gnp(50, 0.25, 13).unwrap();
        let engine = QueryEngine::build(&g, &params());
        // Real edges...
        for (u, v) in g.edges().take(200) {
            let want = filtered_edge(&g, u, v);
            let out = engine
                .answer(Query::Edge {
                    u,
                    v,
                    emit: Emit::Enumerate,
                })
                .unwrap();
            assert_eq!(out.answer, Answer::Triangles(want), "edge {u}-{v}");
        }
        // ...and non-edges answer empty even when the endpoints share
        // neighbors.
        let mut non_edges = 0;
        for u in 0..50u32 {
            for v in (u + 1)..50u32 {
                if g.neighbors(u).binary_search(&v).is_err() {
                    let out = engine
                        .answer(Query::Edge {
                            u,
                            v,
                            emit: Emit::Count,
                        })
                        .unwrap();
                    assert_eq!(out.answer, Answer::Count(0), "non-edge {u}-{v}");
                    non_edges += 1;
                }
            }
        }
        assert!(non_edges > 0, "gnp(50, 0.25) should miss some pairs");
    }

    #[test]
    fn top_k_ranks_by_support_with_deterministic_ties() {
        let g = graph::gen::gnp(40, 0.3, 17).unwrap();
        let engine = QueryEngine::build(&g, &params());
        for v in 0..40u32 {
            let out = engine.answer(Query::TopKBySupport { v, k: 5 }).unwrap();
            let Answer::TopEdges(top) = out.answer else {
                panic!("top-k answers TopEdges");
            };
            assert!(top.len() <= 5);
            // Supports agree with per-edge queries, and the order is
            // descending with ascending-id ties.
            for pair in top.windows(2) {
                assert!(
                    pair[0].support > pair[1].support
                        || (pair[0].support == pair[1].support
                            && (pair[0].u, pair[0].v) < (pair[1].u, pair[1].v))
                );
            }
            for e in &top {
                assert_eq!(
                    filtered_edge(&g, e.u, e.v).len() as u64,
                    e.support,
                    "support of {}-{}",
                    e.u,
                    e.v
                );
            }
        }
    }

    #[test]
    fn concurrent_serve_is_bit_identical_to_sequential() {
        let g = graph::gen::gnp(80, 0.15, 19).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let queries: Vec<Query> = (0..200u32)
            .map(|i| match i % 4 {
                0 => Query::Vertex {
                    v: i % 80,
                    emit: Emit::Enumerate,
                },
                1 => Query::Vertex {
                    v: (i * 7) % 80,
                    emit: Emit::Count,
                },
                2 => Query::Edge {
                    u: i % 80,
                    v: (i * 3 + 1) % 80,
                    emit: Emit::Enumerate,
                },
                _ => Query::TopKBySupport { v: i % 80, k: 3 },
            })
            .collect();
        let seq = engine.serve(&queries, &SchedulerPolicy::sequential());
        let par = engine.serve(&queries, &SchedulerPolicy::with_workers(4));
        assert!(seq.answers_match(&par), "worker count changed an answer");
        assert_eq!(seq.count_checksum(), par.count_checksum());
        assert!(par.stats.workers > 1, "parallel serve used one worker");
    }

    #[test]
    fn chunked_serve_is_bit_identical_to_unbatched_at_every_chunk_size() {
        let g = graph::gen::gnp(60, 0.2, 61).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let queries: Vec<Query> = (0..150u32)
            .map(|i| match i % 3 {
                0 => Query::Vertex {
                    v: i % 60,
                    emit: Emit::Enumerate,
                },
                1 => Query::Edge {
                    u: i % 60,
                    v: (i * 7 + 1) % 60,
                    emit: Emit::Count,
                },
                _ => Query::TopKBySupport { v: i % 60, k: 4 },
            })
            .collect();
        let policy = SchedulerPolicy::with_workers(4);
        let reference = engine.serve_chunked(&queries, &policy, 1);
        for chunk in [0, 1, 3, 64, 150, 10_000] {
            let batched = engine.serve_chunked(&queries, &policy, chunk);
            assert!(
                reference.answers_match(&batched),
                "chunk size {chunk} changed an answer"
            );
        }
        let auto = engine.serve(&queries, &policy);
        assert!(reference.answers_match(&auto));
        // Chunking really did coarsen the job list.
        assert!(auto.stats.jobs < queries.len());
        assert_eq!(reference.stats.jobs, queries.len());
    }

    #[test]
    fn engine_shares_across_real_threads() {
        let g = graph::gen::gnp(40, 0.25, 23).unwrap();
        let engine = Arc::new(QueryEngine::build(&g, &params()));
        let baseline: Vec<_> = (0..40u32)
            .map(|v| {
                engine
                    .answer(Query::Vertex {
                        v,
                        emit: Emit::Count,
                    })
                    .unwrap()
            })
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let e = Arc::clone(&engine);
                let want = baseline.clone();
                std::thread::spawn(move || {
                    for (v, w) in want.iter().enumerate() {
                        let got = e
                            .answer(Query::Vertex {
                                v: v as VertexId,
                                emit: Emit::Count,
                            })
                            .unwrap();
                        assert_eq!(&got, w);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn charges_are_deterministic_and_within_reach_of_budget() {
        let g = graph::gen::gnp(100, 0.1, 29).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let q = Query::Vertex {
            v: 7,
            emit: Emit::Count,
        };
        let a = engine.answer(q).unwrap();
        let b = engine.answer(q).unwrap();
        assert_eq!(a.charge, b.charge, "charge model must be RNG-free");
        assert!(a.charge.words > 0);
        // The per-query word stream is what the §3 budget bounds; a point
        // query must stay well under the whole per-cluster budget.
        assert!(
            (a.charge.words as f64) < engine.paper_word_budget() * 100.0,
            "a single point query charged {} words against budget {}",
            a.charge.words,
            engine.paper_word_budget()
        );
    }

    #[test]
    fn unknown_vertices_error_per_query_not_batch() {
        let g = graph::gen::gnp(20, 0.3, 31).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let report = engine.serve(
            &[
                Query::Vertex {
                    v: 5,
                    emit: Emit::Count,
                },
                Query::Vertex {
                    v: 99,
                    emit: Emit::Count,
                },
                Query::Edge {
                    u: 1,
                    v: 200,
                    emit: Emit::Count,
                },
            ],
            &SchedulerPolicy::sequential(),
        );
        assert!(report.answers[0].is_ok());
        assert_eq!(
            report.answers[1],
            Err(ServiceError::UnknownVertex { v: 99 })
        );
        assert_eq!(
            report.answers[2],
            Err(ServiceError::UnknownVertex { v: 200 })
        );
    }

    #[test]
    fn degenerate_graphs_serve_empty_answers() {
        // No edges at all.
        let g = Graph::from_edges(5, []).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let out = engine
            .answer(Query::Vertex {
                v: 2,
                emit: Emit::Enumerate,
            })
            .unwrap();
        assert_eq!(out.answer, Answer::Triangles(Vec::new()));
        assert_eq!(out.charge.queries, 0, "degenerate clusters charge zero");
        // Two vertices, one edge: still no triangle.
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let out = engine
            .answer(Query::Edge {
                u: 0,
                v: 1,
                emit: Emit::Count,
            })
            .unwrap();
        assert_eq!(out.answer, Answer::Count(0));
        // Self-loop query: an edge {v, v} is never part of a triangle.
        let g = graph::gen::gnp(10, 0.5, 37).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let out = engine
            .answer(Query::Edge {
                u: 3,
                v: 3,
                emit: Emit::Count,
            })
            .unwrap();
        assert_eq!(out.answer, Answer::Count(0));
    }

    #[test]
    fn from_assignment_matches_built_engine() {
        let g = graph::gen::gnp(60, 0.2, 41).unwrap();
        let built = QueryEngine::build(&g, &params());
        let planted = QueryEngine::from_assignment(&g, built.assignment().clone(), &params());
        for v in (0..60u32).step_by(7) {
            let a = built
                .answer(Query::Vertex {
                    v,
                    emit: Emit::Enumerate,
                })
                .unwrap();
            let b = planted
                .answer(Query::Vertex {
                    v,
                    emit: Emit::Enumerate,
                })
                .unwrap();
            assert_eq!(a, b, "same assignment must freeze the same artifact");
        }
        assert_eq!(planted.build_report().decomposition_rounds, 0);
        assert!(built.build_report().decomposition_rounds > 0);
    }

    #[test]
    fn build_report_accounts_the_artifact() {
        let g = graph::gen::gnp(80, 0.15, 43).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let r = engine.build_report();
        assert_eq!(r.n, 80);
        assert_eq!(r.m, g.m());
        assert!(r.clusters > 0);
        assert!(r.routed_clusters <= r.clusters);
        assert!(
            r.snapshot_words == 2 * g.m() as u64,
            "gnp is simple: the rows hold every edge twice"
        );
        assert!(r.wall_total() >= r.wall_decompose);
    }

    #[test]
    fn service_agrees_with_pipeline_enumeration() {
        // The tentpole contract: the frozen artifact answers exactly what
        // the full pipeline enumerates.
        let g = graph::gen::gnp(70, 0.15, 47).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let full = enumerate_via_decomposition(&g, &params());
        for v in 0..70u32 {
            let want: Vec<Triangle> = full
                .triangles
                .iter()
                .copied()
                .filter(|t| t.contains(v))
                .collect();
            let out = engine
                .answer(Query::Vertex {
                    v,
                    emit: Emit::Enumerate,
                })
                .unwrap();
            assert_eq!(out.answer, Answer::Triangles(want), "vertex {v}");
        }
    }

    #[test]
    fn frozen_roundtrip_answers_bit_identically() {
        let g = graph::gen::gnp(80, 0.15, 53).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let restored = QueryEngine::from_frozen(engine.to_frozen()).unwrap();
        let queries: Vec<Query> = (0..160u32)
            .map(|i| match i % 4 {
                0 => Query::Vertex {
                    v: i % 80,
                    emit: Emit::Enumerate,
                },
                1 => Query::Vertex {
                    v: (i * 11) % 80,
                    emit: Emit::Count,
                },
                2 => Query::Edge {
                    u: i % 80,
                    v: (i * 5 + 2) % 80,
                    emit: Emit::Enumerate,
                },
                _ => Query::TopKBySupport { v: i % 80, k: 4 },
            })
            .collect();
        let a = engine.serve(&queries, &SchedulerPolicy::sequential());
        let b = restored.serve(&queries, &SchedulerPolicy::sequential());
        assert!(a.answers_match(&b), "restore changed an answer or a charge");
        // The derived report fields are recomputed, not trusted — they
        // must still land on the original build's numbers.
        let (orig, rest) = (engine.build_report(), restored.build_report());
        assert_eq!(orig.n, rest.n);
        assert_eq!(orig.m, rest.m);
        assert_eq!(orig.clusters, rest.clusters);
        assert_eq!(orig.routed_clusters, rest.routed_clusters);
        assert_eq!(orig.hierarchy_build_rounds, rest.hierarchy_build_rounds);
        assert_eq!(orig.snapshot_words, rest.snapshot_words);
        assert_eq!(orig.decomposition_rounds, rest.decomposition_rounds);
        // And a second freeze of the restored engine is the same bytes.
        assert_eq!(engine.to_frozen(), restored.to_frozen());
    }

    #[test]
    fn frozen_roundtrip_survives_degenerate_graphs() {
        for g in [
            Graph::from_edges(5, []).unwrap(),
            Graph::from_edges(2, [(0, 1)]).unwrap(),
            Graph::from_edges(1, []).unwrap(),
        ] {
            let engine = QueryEngine::build(&g, &params());
            let restored = QueryEngine::from_frozen(engine.to_frozen()).unwrap();
            for v in 0..g.n() as VertexId {
                assert_eq!(
                    engine.answer(Query::Vertex {
                        v,
                        emit: Emit::Count
                    }),
                    restored.answer(Query::Vertex {
                        v,
                        emit: Emit::Count
                    })
                );
            }
        }
    }

    #[test]
    fn from_frozen_rejects_corrupt_snapshots() {
        let g = graph::gen::gnp(40, 0.25, 59).unwrap();
        let engine = QueryEngine::build(&g, &params());
        let frozen = engine.to_frozen();
        // The pristine snapshot restores.
        assert!(QueryEngine::from_frozen(frozen.clone()).is_ok());
        #[allow(clippy::type_complexity)]
        let cases: Vec<(&str, Box<dyn Fn(&mut FrozenEngine)>)> = vec![
            (
                "truncated cluster_of",
                Box::new(|f| f.cluster_of.pop().map(|_| ()).unwrap()),
            ),
            ("truncated local_of", Box::new(|f| f.local_of.truncate(10))),
            (
                "dropped certificate",
                Box::new(|f| f.certificates.pop().map(|_| ()).unwrap()),
            ),
            ("member out of range", Box::new(|f| f.members[0][0] = 40)),
            (
                "member list reordered",
                Box::new(|f| f.members[0].reverse()),
            ),
            (
                "cluster_of inconsistent",
                Box::new(|f| {
                    let v = f.members[0][0] as usize;
                    f.cluster_of[v] = f.cluster_of[v].wrapping_add(1);
                }),
            ),
            (
                "local_of inconsistent",
                Box::new(|f| {
                    let v = f.members[0][0] as usize;
                    f.local_of[v] += 1;
                }),
            ),
            (
                "rows for a smaller graph",
                Box::new(|f| f.rows = Arc::new(graph::gen::gnp(39, 0.25, 59).unwrap())),
            ),
            (
                "inter-cluster edge out of range",
                Box::new(|f| {
                    f.inter_cluster.push((0, 99, RemovalTag::Remove1));
                }),
            ),
            (
                "hierarchy detached from degrees",
                Box::new(|f| {
                    let fc = f
                        .clusters
                        .iter_mut()
                        .find(|c| c.hierarchy.is_some())
                        .expect("gnp(40, .25) routes at least one cluster");
                    fc.local_deg.pop();
                }),
            ),
            (
                "hierarchy internally corrupt",
                Box::new(|f| {
                    let fc = f
                        .clusters
                        .iter_mut()
                        .find(|c| c.hierarchy.is_some())
                        .unwrap();
                    fc.hierarchy.as_mut().unwrap().levels.clear();
                }),
            ),
        ];
        for (what, tamper) in cases {
            let mut bad = frozen.clone();
            tamper(&mut bad);
            assert!(
                QueryEngine::from_frozen(bad).is_err(),
                "tampered snapshot accepted: {what}"
            );
        }
    }
}
