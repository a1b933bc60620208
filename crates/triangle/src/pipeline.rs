//! The end-to-end Theorem 2 pipeline: expander decomposition → per-cluster
//! expander routing → intra-cluster enumeration **on the CONGEST round
//! engine** → recursion on the removed-edge subgraph.
//!
//! This module wires the repo's pieces — [`expander::decomposition`] (via
//! its [`expander::ClusterAssignment`] contract), [`routing`]'s batched
//! routing charge ([`RoutingHierarchy::route_edge_loads`]), and the
//! [`congest`] engine in [`ExecMode::Parallel`] — into the single entry point
//! [`enumerate_via_decomposition`]. The pipeline *executes* the
//! intra-cluster exchange as a real [`congest::VertexProgram`] per cluster
//! and reports measured engine traffic per phase next to the analytic
//! routing/decomposition charges and the paper's budgets.
//!
//! Per recursion level, on the current edge set `E`:
//!
//! 1. **Decompose** (`ε ≤ 1/6`): [`ExpanderDecomposition`] splits `E` into
//!    expander clusters plus removed edges `E*` (`|E*| ≤ ε·|E|`).
//! 2. **Route**: inside each cluster, the cluster-incident edge slices are
//!    redistributed to the owners of the DLP group triples, charged as
//!    one batched [`RoutingHierarchy::route_edge_loads`] instance
//!    (per-vertex load `O(deg(v))` per query ⇒ `Õ(n^{1/3})` queries, §3).
//! 3. **Enumerate**: each cluster runs an adjacency-exchange
//!    [`congest::VertexProgram`] on its induced subgraph under
//!    [`ExecMode::Parallel`]; every triangle with ≥ 1 intra-cluster edge
//!    is listed at the edge's lower endpoint. Disjoint clusters step
//!    simultaneously, so their [`RunReport`]s fold via
//!    [`RunReport::parallel_with`] into the level's [`PhaseLedger`].
//! 4. **Recurse** on `E*` with the depth schedule of
//!    [`expander::params::DecompositionParams`]; since `|E*| ≤ |E|/6`,
//!    `O(log m)` levels suffice, after which any residual is brute-forced
//!    with an honest `O(m + n)` charge.

use crate::count::Triangle;
use crate::dlp;
use congest::packed::{self, IdStreamDecoder, IdStreamEncoder, PackedIds};
use congest::{Ctx, ExecMode, Inbox, Network, PhaseLedger, RunReport, VertexProgram};
use expander::params::DecompositionParams;
use expander::scheduler::{
    derive_seed, run_jobs, LevelExecution, RecursionReport, SchedulerPolicy, ScratchPool,
};
use expander::{ExpanderDecomposition, ParamMode};
use graph::view::Subgraph;
use graph::{Graph, VertexId, VertexSet, WorkingGraph};
use routing::{QueryCharge, RoutingHierarchy};
use std::time::{Duration, Instant};

/// Configuration for [`enumerate_via_decomposition`].
///
/// # Examples
///
/// Defaults are the paper-calibrated practical settings; override only
/// what the experiment varies:
///
/// ```
/// use triangle::pipeline::PipelineParams;
///
/// let params = PipelineParams { seed: 42, max_depth: 4, ..Default::default() };
/// assert_eq!(params.epsilon, 1.0 / 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineParams {
    /// Decomposition edge budget per level (clamped to the paper's
    /// `ε ≤ 1/6`).
    pub epsilon: f64,
    /// Decomposition trade-off integer `k`.
    pub decomposition_k: usize,
    /// GKS hierarchy depth per cluster (constant, per §3).
    pub routing_depth: usize,
    /// Parameter calibration.
    pub mode: ParamMode,
    /// Master seed. Every level derives its seed as
    /// `derive_seed(seed, depth)` and every cluster job as
    /// `derive_seed(level_seed, cluster_id)`, so results never depend on
    /// scheduling (DESIGN.md §7).
    pub seed: u64,
    /// Hard cap on recursion depth; the schedule derived from
    /// [`DecompositionParams`] is used up to this cap, after which the
    /// residual is brute-forced.
    pub max_depth: usize,
    /// How the engine steps vertices inside each cluster run.
    pub exec: ExecMode,
    /// How sibling cluster jobs of one recursion level are scheduled
    /// (`Parallel` = work-stealing worker tasks; output is bit-for-bit
    /// the `Sequential` output either way).
    pub recursion_exec: ExecMode,
    /// Worker-task cap for the cluster scheduler (0 = one per available
    /// thread).
    pub recursion_workers: usize,
    /// Maximum number of witness triangles sampled into the report.
    pub witness_cap: usize,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            epsilon: 1.0 / 6.0,
            decomposition_k: 2,
            routing_depth: 3,
            mode: ParamMode::Practical,
            seed: 0,
            max_depth: 12,
            exec: ExecMode::Parallel,
            recursion_exec: ExecMode::Parallel,
            recursion_workers: 0,
            witness_cap: 16,
        }
    }
}

impl PipelineParams {
    /// The cluster-scheduler policy these parameters describe.
    pub fn scheduler_policy(&self) -> SchedulerPolicy {
        match self.recursion_exec {
            ExecMode::Sequential => SchedulerPolicy::sequential(),
            ExecMode::Parallel => SchedulerPolicy::with_workers(self.recursion_workers),
        }
    }
}

/// Per-level breakdown: analytic charges next to measured engine traffic.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Recursion depth of this level (0 = the input graph).
    pub depth: usize,
    /// Edges at this level.
    pub m: usize,
    /// Non-singleton clusters that ran the enumeration.
    pub clusters: usize,
    /// The conductance promise `φ` of this level's decomposition.
    pub phi: f64,
    /// Triangles first reported at this level.
    pub triangles_found: usize,
    /// Rounds charged to the expander decomposition (RoundLedger total).
    pub decomposition_rounds: u64,
    /// Routing preprocessing rounds (max over clusters — they build in
    /// parallel).
    pub routing_build_rounds: u64,
    /// Routing queries of the heaviest cluster's batched redistribution.
    pub routing_queries: u64,
    /// Rounds of the batched redistribution (max over clusters).
    pub routing_rounds: u64,
    /// `O(log n)`-bit words moved by the heaviest cluster's batched
    /// redistribution — the unit the §3 load argument counts in (each
    /// query moves `O(deg(v))` words per vertex).
    pub routing_words: u64,
    /// Measured engine traffic of the intra-cluster enumeration runs
    /// (parallel fold over clusters).
    pub engine: RunReport,
}

impl LevelReport {
    /// Total rounds charged to this level (analytic + measured).
    pub fn rounds(&self) -> u64 {
        self.decomposition_rounds
            + self.routing_build_rounds
            + self.routing_rounds
            + self.engine.rounds as u64
    }
}

/// Result of the full pipeline.
#[derive(Debug, Clone)]
pub struct TriangleReport {
    /// All triangles, sorted and deduplicated.
    pub triangles: Vec<Triangle>,
    /// A deterministic sample of at most `witness_cap` triangles, spread
    /// evenly across the sorted list.
    pub witnesses: Vec<Triangle>,
    /// Per-level breakdown.
    pub levels: Vec<LevelReport>,
    /// Engine-measured traffic attributed to pipeline phases
    /// (`"enumerate"` is the only engine-driven phase today; the hooks
    /// accept more as phases move onto the engine), plus measured
    /// host wall-clock per phase (`decompose` / `clusters` / `merge`).
    pub phases: PhaseLedger,
    /// What the cluster-recursion scheduler did: per-level job counts,
    /// steal/imbalance statistics, wall-clock per phase, and
    /// scratch-arena reuse counters. Machine-/policy-dependent — not part
    /// of the determinism contract.
    pub recursion: RecursionReport,
    /// The depth/φ schedule the recursion was configured from.
    pub schedule: DecompositionParams,
    /// Rounds charged for the residual brute force (0 unless `max_depth`
    /// was exhausted with edges left).
    pub residual_rounds: u64,
    /// Vertices of the input graph.
    pub n: usize,
    /// Edges of the input graph.
    pub m: usize,
}

impl TriangleReport {
    /// Number of triangles found.
    pub fn count(&self) -> u64 {
        self.triangles.len() as u64
    }

    /// Total rounds across all levels plus the residual charge.
    pub fn total_rounds(&self) -> u64 {
        self.levels.iter().map(LevelReport::rounds).sum::<u64>() + self.residual_rounds
    }

    /// The heaviest batched-routing instance across all levels — the
    /// quantity Theorem 2 bounds by `Õ(n^{1/3})`.
    pub fn max_routing_queries(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.routing_queries)
            .max()
            .unwrap_or(0)
    }

    /// The heaviest batched-routing instance across all levels measured
    /// in `O(log n)`-bit **words** — the unit the §3 load argument
    /// actually counts (each query moves `O(deg(v))` words per vertex,
    /// and [`routing::QueryCharge::queries`] is derived from this).
    pub fn max_routing_words(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.routing_words)
            .max()
            .unwrap_or(0)
    }

    /// Engine-measured words of the adjacency-exchange phase (summed
    /// over clusters and levels) — what the packed wire format
    /// optimizes; compare against
    /// [`TriangleReport::exchange_messages`] × the word size to see the
    /// packing factor.
    pub fn exchange_words(&self) -> u64 {
        self.phases.phase("enumerate").words as u64
    }

    /// Engine-measured messages of the adjacency-exchange phase.
    pub fn exchange_messages(&self) -> u64 {
        self.phases.phase("enumerate").messages as u64
    }

    /// The paper's per-cluster query budget `n^{1/3}·log² n` (the polylog
    /// is the practical stand-in for the Õ(·) factors; the `exp_*`
    /// experiments compare measured queries against this curve).
    ///
    /// # Examples
    ///
    /// ```
    /// use triangle::pipeline::{enumerate_via_decomposition, PipelineParams};
    ///
    /// let g = graph::gen::gnp(64, 0.3, 7).unwrap();
    /// let report = enumerate_via_decomposition(&g, &PipelineParams::default());
    /// // 64^{1/3}·log²64 = 4·36
    /// assert!((report.paper_query_budget() - 144.0).abs() < 1e-9);
    /// // The word form scales the curve by the average degree (≥ 1).
    /// assert!(report.paper_word_budget() >= report.paper_query_budget());
    /// ```
    pub fn paper_query_budget(&self) -> f64 {
        let n = self.n.max(2) as f64;
        n.powf(1.0 / 3.0) * n.log2() * n.log2()
    }

    /// The query budget converted to the model's word unit: each routing
    /// query moves `O(deg(v))` words per vertex (§3), so the aggregate
    /// stand-in charges the average degree `2m/n` words per query. This
    /// is the budget [`TriangleReport::max_routing_words`] is audited
    /// against — the charge is in words, not messages, because a packed
    /// message can carry several words.
    pub fn paper_word_budget(&self) -> f64 {
        let avg_deg = 2.0 * self.m as f64 / self.n.max(1) as f64;
        self.paper_query_budget() * avg_deg.max(1.0)
    }

    /// Whether every level's measured queries stayed within
    /// `slack × paper_query_budget()`.
    pub fn within_paper_budget(&self, slack: f64) -> bool {
        self.max_routing_queries() as f64 <= slack * self.paper_query_budget()
    }

    /// Whether every level's measured routing **words** stayed within
    /// `slack × paper_word_budget()`.
    pub fn within_word_budget(&self, slack: f64) -> bool {
        self.max_routing_words() as f64 <= slack * self.paper_word_budget()
    }
}

/// Runs the full paper algorithm on `g`: decomposition, per-cluster
/// routing + engine-driven enumeration, recursion on the removed edges.
///
/// # Example
///
/// ```
/// use triangle::pipeline::{enumerate_via_decomposition, PipelineParams};
///
/// let g = graph::gen::gnp(40, 0.3, 7).unwrap();
/// let report = enumerate_via_decomposition(&g, &PipelineParams::default());
/// assert_eq!(report.count(), triangle::count_triangles(&g));
/// assert!(report.total_rounds() > 0);
/// ```
pub fn enumerate_via_decomposition(g: &Graph, params: &PipelineParams) -> TriangleReport {
    let n = g.n();
    let eps = params.epsilon.clamp(1e-3, 1.0 / 6.0);
    // The depth/φ schedule: DecompositionParams carries the per-level φ
    // ladder; |E*| ≤ ε·|E| per level bounds the useful recursion depth at
    // log_{1/ε}(m) + 1, capped by the configured max_depth.
    let schedule = DecompositionParams::new(eps, params.decomposition_k.max(1), n, params.mode);
    let depth_cap = if g.m() == 0 {
        0
    } else {
        let by_shrink = ((g.m() as f64).ln() / (1.0 / eps).ln()).ceil() as usize + 1;
        by_shrink.min(params.max_depth)
    };

    let mut run = PipelineRun::new(params, n);
    let mut current = g.clone();
    for depth in 0..depth_cap {
        if current.m() == 0 || n < 3 {
            break;
        }
        let level_seed = derive_seed(params.seed, depth as u64);
        let decompose_start = Instant::now();
        let decomp = ExpanderDecomposition::builder()
            .epsilon(eps)
            .k(params.decomposition_k.max(1))
            .mode(params.mode)
            .seed(level_seed)
            .build()
            .run(&current)
            .expect("level graph is non-empty");
        let assignment = decomp.cluster_assignment_with(&current, &run.policy);
        let wall_decompose = decompose_start.elapsed();
        current = run.run_level(
            &current,
            &assignment,
            LevelInput {
                depth,
                level_seed,
                decomposition_rounds: decomp.ledger.total(),
                phi: decomp.phi,
                wall_decompose,
            },
        );
    }
    run.finish(g, current, schedule)
}

/// Runs a **single recursion level** of the pipeline on a caller-supplied
/// [`expander::ClusterAssignment`] — planted blocks, an oracle, or a cached
/// decomposition — then brute-forces the inter-cluster remainder with the
/// honest `O(m + n)` residual charge.
///
/// This is the scale tier's entry point: on million-edge instances whose
/// ground-truth clusters are known (ring of expanders, planted
/// partitions), it exercises the whole cluster machinery — scheduler
/// fan-out, per-cluster routing, engine-driven enumeration, deterministic
/// merge — without paying for the measured Theorem 1 decomposition, which
/// dominates at that size. Output remains exactly the triangle set of `g`
/// for **any** covering partition; the assignment's quality only shifts
/// work between the cluster phase and the residual.
///
/// # Examples
///
/// Planted blocks stand in for a cached decomposition; completeness
/// holds for any covering partition:
///
/// ```
/// use expander::{ClusterAssignment, SchedulerPolicy};
/// use triangle::pipeline::{enumerate_with_assignment, PipelineParams};
///
/// let pp = graph::gen::planted_partition(&[12, 12], 0.6, 0.1, 5).unwrap();
/// let assignment = ClusterAssignment::from_parts(
///     &pp.graph, &pp.blocks, 0.1, &SchedulerPolicy::sequential());
/// let report = enumerate_with_assignment(&pp.graph, &assignment, &PipelineParams::default());
/// assert_eq!(report.count(), triangle::count_triangles(&pp.graph));
/// ```
///
/// # Panics
///
/// Panics if `assignment` was built for a different vertex count.
pub fn enumerate_with_assignment(
    g: &Graph,
    assignment: &expander::ClusterAssignment,
    params: &PipelineParams,
) -> TriangleReport {
    assert_eq!(
        assignment.n,
        g.n(),
        "assignment/graph vertex-count mismatch"
    );
    let n = g.n();
    let eps = params.epsilon.clamp(1e-3, 1.0 / 6.0);
    let schedule = DecompositionParams::new(eps, params.decomposition_k.max(1), n, params.mode);
    let mut run = PipelineRun::new(params, n);
    let current = if g.m() > 0 && n >= 3 {
        run.run_level(
            g,
            assignment,
            LevelInput {
                depth: 0,
                level_seed: derive_seed(params.seed, 0),
                decomposition_rounds: 0,
                phi: assignment.phi,
                wall_decompose: std::time::Duration::ZERO,
            },
        )
    } else {
        g.clone()
    };
    run.finish(g, current, schedule)
}

/// Per-level inputs of [`PipelineRun::run_level`] that differ between the
/// decomposing loop and the planted-assignment entry point.
struct LevelInput {
    depth: usize,
    level_seed: u64,
    decomposition_rounds: u64,
    phi: f64,
    wall_decompose: std::time::Duration,
}

/// Mutable state threaded through the pipeline's levels: the scheduler
/// policy, the scratch arenas, and the accumulating report parts.
struct PipelineRun<'p> {
    params: &'p PipelineParams,
    policy: SchedulerPolicy,
    scratch: ScratchPool<ClusterScratch>,
    triangle_buffers: ScratchPool<Vec<Triangle>>,
    recursion: RecursionReport,
    triangles: Vec<Triangle>,
    levels: Vec<LevelReport>,
    phases: PhaseLedger,
    n: usize,
}

impl<'p> PipelineRun<'p> {
    fn new(params: &'p PipelineParams, n: usize) -> Self {
        PipelineRun {
            policy: params.scheduler_policy(),
            params,
            scratch: ScratchPool::new(),
            triangle_buffers: ScratchPool::new(),
            recursion: RecursionReport::default(),
            triangles: Vec::new(),
            levels: Vec::new(),
            phases: PhaseLedger::new(),
            n,
        }
    }

    /// Executes one level's cluster batch on `current` under
    /// `assignment`, records the level, and returns the inter-cluster
    /// remainder graph (the next level's input).
    fn run_level(
        &mut self,
        current: &Graph,
        assignment: &expander::ClusterAssignment,
        input: LevelInput,
    ) -> Graph {
        // The kept (intra-cluster) edge structure is a tombstone overlay
        // over the level graph, not a rebuilt CSR: removal of the
        // inter-cluster edges is O(|E*|·log Δ), and every cluster job
        // extracts its induced subgraph by reading through the overlay.
        let kept = {
            let mut overlay = WorkingGraph::new(current);
            overlay.remove_edges(assignment.inter_cluster_edges(), false);
            overlay
        };
        // Each vertex's neighbor set on the level graph — the local
        // knowledge CONGEST grants it, and what the exchange streams.
        let rows = current.to_simple();
        let mut level = LevelReport {
            depth: input.depth,
            m: current.m(),
            clusters: 0,
            phi: input.phi,
            triangles_found: 0,
            decomposition_rounds: input.decomposition_rounds,
            routing_build_rounds: 0,
            routing_queries: 0,
            routing_rounds: 0,
            routing_words: 0,
            engine: RunReport::default(),
        };
        let before = self.triangles.len();

        // The per-level cluster list becomes one scheduler batch: each
        // non-trivial cluster is a pure Subgraph job seeded from
        // (level_seed, cluster_id) and run on work-stealing worker
        // tasks. Results come back in cluster-id order, so the merge
        // below is exactly the old sequential loop.
        let jobs: Vec<(usize, &VertexSet)> = assignment
            .clusters
            .iter()
            .enumerate()
            .filter(|(id, part)| assignment.certificates[*id].internal_edges > 0 && part.len() >= 2)
            .collect();
        let params = self.params;
        let (cluster_runs, stats) = run_jobs(jobs, &self.policy, |_, (id, part)| {
            let cluster_seed = derive_seed(input.level_seed, id as u64);
            run_cluster(
                current,
                &rows,
                &kept,
                part,
                params,
                cluster_seed,
                &self.scratch,
                &self.triangle_buffers,
            )
        });

        let merge_start = Instant::now();
        let mut engine_reports: Vec<RunReport> = Vec::with_capacity(cluster_runs.len());
        for mut cluster in cluster_runs {
            level.clusters += 1;
            let route = cluster.route;
            level.routing_build_rounds = level.routing_build_rounds.max(route.build_rounds);
            level.routing_queries = level.routing_queries.max(route.charge.queries);
            level.routing_rounds = level.routing_rounds.max(route.charge.rounds);
            level.routing_words = level.routing_words.max(route.charge.words);
            // Split of the opaque `clusters` wall (summed worker time) and
            // the ledger's closed-form accounting guard counters.
            self.phases.record_wall("clusters.dlp", cluster.wall_dlp);
            self.phases
                .record_wall("clusters.exchange", cluster.wall_exchange);
            self.phases.record_wall("clusters.join", cluster.wall_join);
            self.phases.record_ops("dlp_accounting", route.ops);
            self.phases
                .record_ops("dlp_accounting_budget", route.ops_budget);
            engine_reports.push(cluster.engine);
            self.triangles.append(&mut cluster.triangles);
            self.triangle_buffers.put(cluster.triangles);
        }
        level.engine = engine_reports
            .iter()
            .fold(RunReport::default(), |acc, r| acc.parallel_with(r));
        self.phases.record_parallel("enumerate", engine_reports);
        self.triangles.sort_unstable();
        self.triangles.dedup();
        level.triangles_found = self
            .triangles
            .len()
            .saturating_sub(before.min(self.triangles.len()));
        self.levels.push(level);

        let mut exec = LevelExecution::from_stats(input.depth, &stats);
        exec.wall_decompose = input.wall_decompose;
        exec.wall_merge = merge_start.elapsed();
        self.phases.record_wall("decompose", exec.wall_decompose);
        self.phases.record_wall("clusters", exec.wall_clusters);
        self.phases.record_wall("merge", exec.wall_merge);
        self.recursion.levels.push(exec);

        // Recurse on E*.
        Graph::from_edges(self.n, assignment.inter_cluster_edges()).expect("ids in range")
    }

    /// Residual brute force + witness sampling + report assembly.
    fn finish(
        mut self,
        g: &Graph,
        residual: Graph,
        schedule: DecompositionParams,
    ) -> TriangleReport {
        self.recursion.scratch_hits = self.scratch.hits() + self.triangle_buffers.hits();
        self.recursion.scratch_misses = self.scratch.misses() + self.triangle_buffers.misses();

        // Residual brute force: only reached when the depth schedule was
        // exhausted with edges left; charged O(m + n).
        let mut residual_rounds = 0u64;
        if residual.m() > 0 && self.n >= 3 {
            self.triangles
                .extend(crate::count::enumerate_triangles(&residual));
            self.triangles.sort_unstable();
            self.triangles.dedup();
            residual_rounds = (residual.m() + self.n) as u64;
        }

        let witnesses = sample_witnesses(&self.triangles, self.params.witness_cap);
        TriangleReport {
            witnesses,
            triangles: self.triangles,
            levels: self.levels,
            phases: self.phases,
            recursion: self.recursion,
            schedule,
            residual_rounds,
            n: self.n,
            m: g.m(),
        }
    }
}

/// Deterministic, evenly spread sample of at most `cap` triangles.
fn sample_witnesses(triangles: &[Triangle], cap: usize) -> Vec<Triangle> {
    if cap == 0 || triangles.is_empty() {
        return Vec::new();
    }
    let take = cap.min(triangles.len());
    (0..take)
        .map(|i| triangles[i * triangles.len() / take])
        .collect()
}

/// What one cluster contributes to a level.
struct ClusterRun {
    /// Backed by a [`ScratchPool`] buffer; the level merge drains it and
    /// returns it to the pool.
    triangles: Vec<Triangle>,
    route: RouteCharges,
    /// Per-phase walls inside the cluster job, so the level can split the
    /// scheduler's opaque `clusters` wall into DLP accounting vs exchange
    /// vs join (summed worker time, not elapsed wall in parallel mode).
    wall_dlp: Duration,
    wall_exchange: Duration,
    wall_join: Duration,
    engine: RunReport,
}

/// Reusable per-job arenas: a job clears what it uses (keeping the
/// capacities) instead of reallocating.
#[derive(Debug, Default)]
struct ClusterScratch {
    /// Closed-form DLP accounting scratch: raw pair-bucket sizes and
    /// per-holder incident-entry counts ([`dlp::DlpInstance`]).
    pair_raw: Vec<u64>,
    holder_inc: Vec<u64>,
}

/// Runs one cluster: routing redistribution accounting + the engine-driven
/// adjacency exchange + the local joins. Pure per
/// `(inputs, cluster_seed)` — the scheduler's determinism contract.
///
/// `rows` is the level graph's deduplicated adjacency
/// ([`Graph::to_simple`]); members stream and join their rows from it by
/// global id.
#[allow(clippy::too_many_arguments)] // one cluster job's full context
fn run_cluster(
    current: &Graph,
    rows: &Graph,
    kept: &WorkingGraph,
    part: &VertexSet,
    params: &PipelineParams,
    cluster_seed: u64,
    scratch_pool: &ScratchPool<ClusterScratch>,
    triangle_buffers: &ScratchPool<Vec<Triangle>>,
) -> ClusterRun {
    let mut scratch = scratch_pool.acquire();
    let sub = Subgraph::induced(kept, part);
    let members: Vec<VertexId> = sub.parent_ids().to_vec();

    let t_route = Instant::now();
    // ── Phase: route — closed-form redistribution accounting of the
    // cluster-incident edge slices to the DLP triple owners, charged via
    // route_edge_loads. ──
    let route = route_cluster_slices(
        current,
        part,
        &sub,
        &members,
        params,
        cluster_seed,
        &mut scratch,
    );
    let wall_dlp = t_route.elapsed();
    let t_engine = Instant::now();

    // ── Phase: enumerate — the bandwidth-packed adjacency exchange on
    // the round engine (DESIGN.md §10). Each vertex consumes streams only
    // from its higher-local-id cluster neighbors — the only senders it
    // will ever join against — and merges each decoded stream against its
    // own adjacency *incrementally*, so per sender it stores just the
    // intersection (the triangle third-vertices) plus O(1) codec state,
    // never the sender's whole list. (A naive per-sender table would be
    // O(|cluster|) Vec headers per vertex, i.e. O(|cluster|²) memory:
    // invisible on the planted families' small blocks, gigabytes on the
    // giant expander-core cluster the measured decomposition keeps
    // whole.)
    // Cluster rows with parallel edges collapsed: a vertex's senders are
    // the tail of its row above its own local id.
    let local_rows = sub.graph().to_simple();
    let max_items = members
        .iter()
        .map(|&v| rows.neighbors(v).len())
        .max()
        .unwrap_or(0);
    let network = Network::new(sub.graph()).with_exec_mode(params.exec);
    // The per-round packing budget: the link's whole O(log n)-bit budget,
    // in bytes.
    let budget_bytes = packed::round_budget_bytes(network.bandwidth_bits());
    let make = |v: VertexId| {
        let local = local_rows.neighbors(v);
        AdjacencyExchange::new(
            rows.neighbors(members[v as usize]),
            &local[local.partition_point(|&w| w <= v)..],
            budget_bytes,
        )
    };
    let (engine, programs) = network
        .run_collect(make, max_items + 2)
        .expect("adjacency exchange is a valid CONGEST program");
    let wall_exchange = t_engine.elapsed();
    let t_join = Instant::now();

    // Local joins: for every intra-cluster edge {u, v} (lower local id
    // owns it, so v is one of u's `higher` senders), the program already
    // merged N(v)'s stream against N(u) — read off the intersections and
    // name the triangles.
    let mut triangles = triangle_buffers.take();
    triangles.clear();
    for (u_local, prog) in programs.iter().enumerate() {
        let u_global = members[u_local];
        for (&v_local, matches) in prog.higher.iter().zip(&prog.matches) {
            let v_global = members[v_local as usize];
            for &w in matches {
                if w != u_global && w != v_global {
                    triangles.push(Triangle::new(u_global, v_global, w));
                }
            }
        }
    }
    triangles.sort_unstable();
    triangles.dedup();
    let wall_join = t_join.elapsed();

    ClusterRun {
        triangles,
        route,
        wall_dlp,
        wall_exchange,
        wall_join,
        engine,
    }
}

/// What the DLP redistribution phase charged for one cluster.
#[derive(Debug, Default, Clone, Copy)]
struct RouteCharges {
    build_rounds: u64,
    charge: QueryCharge,
    /// Closed-form accounting operations actually performed, plus the
    /// `O(g² + Σ|bucket| + |Vᵢ|)` budget they must stay under — both land
    /// in the [`PhaseLedger`] so a regression back to triple enumeration
    /// trips the ledger guard.
    ops: u64,
    ops_budget: u64,
}

/// Charges the DLP redistribution for one cluster in **closed form**
/// ([`dlp::DlpInstance`], DESIGN.md §11) and routes the resulting
/// aggregate per-vertex loads through the cluster's GKS hierarchy.
///
/// The aggregate loads are exactly the row and column sums of the
/// per-(holder, owner) [`dlp::EdgeBatch`] list the enumerating reference
/// builds from all `C(g+2, 3)` group triples —
/// `tests/dlp_equivalence.rs` pins the two bit-for-bit — but are
/// computed in `O(g² + Σ|bucket| + |Vᵢ|)` instead of
/// `O(C(g+2, 3) · avg bucket)`.
fn route_cluster_slices(
    current: &Graph,
    part: &VertexSet,
    sub: &Subgraph,
    members: &[VertexId],
    params: &PipelineParams,
    cluster_seed: u64,
    scratch: &mut ClusterScratch,
) -> RouteCharges {
    let hierarchy = match RoutingHierarchy::build(
        sub.graph(),
        params.routing_depth.max(1),
        derive_seed(cluster_seed, 1),
    ) {
        Ok(h) => h,
        // Degenerate cluster (cannot happen when internal_edges > 0):
        // nothing is redistributed, so nothing is charged.
        Err(_) => return RouteCharges::default(),
    };

    // The cluster-side endpoint (lower one for intra edges) holds each
    // incident edge slice, recorded by its local id (`part.iter()` is
    // sorted, so the member-list index IS the local id).
    let instance = dlp::DlpInstance::new(current, part, members, derive_seed(cluster_seed, 2));
    let loads = instance.aggregate_loads(&mut scratch.pair_raw, &mut scratch.holder_inc);
    let charge = hierarchy
        .route_edge_loads(sub.graph(), &loads.holders, &loads.owners)
        .expect("load endpoints are cluster-local");
    RouteCharges {
        build_rounds: hierarchy.preprocessing_rounds(),
        charge,
        ops: loads.ops,
        ops_budget: loads.ops_budget,
    }
}

/// The intra-cluster exchange program, **bandwidth-packed** (DESIGN.md
/// §10): each vertex streams its sorted full-graph adjacency as
/// delta-varint runs, greedily packed so every round's broadcast fills
/// the `O(log n)`-bit budget, to all cluster neighbors. Receivers with a
/// lower local id decode each higher neighbor's stream *incrementally*
/// and merge it against their own sorted adjacency on the fly, keeping
/// only the intersection — the triangle third-vertices the join needs —
/// plus `O(1)` codec state per sender.
///
/// Rounds = `⌈max full-graph degree in the cluster / ids-per-message⌉`.
struct AdjacencyExchange<'a> {
    /// This vertex's sorted, deduplicated full-graph adjacency (global
    /// ids), read in place from the level's rows.
    own: &'a [VertexId],
    /// Sender-side stream cursor over `own`.
    enc: IdStreamEncoder,
    /// Per-round packing budget in bytes (the link bandwidth).
    budget_bytes: usize,
    /// Sorted higher-local-id cluster neighbors: the only senders this
    /// vertex consumes.
    higher: &'a [VertexId],
    /// Per-sender decode state, parallel to `higher`.
    decoders: Vec<IdStreamDecoder>,
    /// Per-sender merge cursor into `own`, parallel to `higher`.
    cursors: Vec<u32>,
    /// Per-sender intersection `N(me) ∩ N(sender)` accumulated so far,
    /// parallel to `higher`.
    matches: Vec<Vec<VertexId>>,
}

impl<'a> AdjacencyExchange<'a> {
    fn new(own: &'a [VertexId], higher: &'a [VertexId], budget_bytes: usize) -> Self {
        let slots = higher.len();
        AdjacencyExchange {
            own,
            enc: IdStreamEncoder::new(),
            budget_bytes,
            higher,
            decoders: vec![IdStreamDecoder::new(); slots],
            cursors: vec![0; slots],
            matches: vec![Vec::new(); slots],
        }
    }

    fn stream_next(&mut self, ctx: &mut Ctx<'_, PackedIds>) {
        if let Some(msg) = self.enc.next_message(self.own, self.budget_bytes) {
            ctx.broadcast(msg);
        }
    }
}

impl VertexProgram for AdjacencyExchange<'_> {
    type Msg = PackedIds;

    fn init(&mut self, ctx: &mut Ctx<'_, PackedIds>) {
        self.stream_next(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, PackedIds>, inbox: Inbox<'_, PackedIds>) {
        // The inbox arrives sorted by sender and `higher[me]` is sorted,
        // so one monotone merge-walk resolves every sender's slot — no
        // per-message binary search. Each decoded id advances the
        // per-sender cursor through our own sorted list; equal ids are
        // the join's third vertices.
        let (own, higher) = (self.own, self.higher);
        let me = ctx.me();
        let mut hi = 0usize;
        for (sender, msg) in inbox {
            if sender <= me {
                continue;
            }
            while higher[hi] < sender {
                hi += 1;
            }
            debug_assert_eq!(higher[hi], sender, "senders are cluster neighbors");
            let cur = &mut self.cursors[hi];
            let out = &mut self.matches[hi];
            self.decoders[hi]
                .decode_each(msg, |x| {
                    while (*cur as usize) < own.len() && own[*cur as usize] < x {
                        *cur += 1;
                    }
                    if (*cur as usize) < own.len() && own[*cur as usize] == x {
                        out.push(x);
                        *cur += 1; // both streams strictly increase
                    }
                })
                .expect("peers encode well-formed packed streams");
        }
        self.stream_next(ctx);
    }

    fn halted(&self) -> bool {
        self.enc.finished(self.own)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::enumerate_triangles;
    use graph::gen;

    fn assert_complete(g: &Graph, params: &PipelineParams) -> TriangleReport {
        let report = enumerate_via_decomposition(g, params);
        let want = enumerate_triangles(g);
        assert_eq!(
            report.triangles,
            want,
            "n = {}, m = {}: pipeline incomplete",
            g.n(),
            g.m()
        );
        report
    }

    #[test]
    fn complete_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::gnp(40, 0.25, seed).unwrap();
            assert_complete(&g, &PipelineParams::default());
        }
        // Dense inputs: most of the graph stays one cluster.
        assert_complete(&gen::gnp(24, 0.5, 4).unwrap(), &PipelineParams::default());
        assert_complete(&gen::complete(16).unwrap(), &PipelineParams::default());
        // An out-of-range ε is clamped to the paper's 1/6, so the run is
        // the default run.
        let g = gen::gnp(30, 0.3, 1).unwrap();
        let clamped = assert_complete(
            &g,
            &PipelineParams {
                epsilon: 0.9,
                ..Default::default()
            },
        );
        let default = enumerate_via_decomposition(&g, &PipelineParams::default());
        assert_eq!(clamped.total_rounds(), default.total_rounds());
        assert_eq!(clamped.schedule.epsilon, 1.0 / 6.0);
    }

    #[test]
    fn complete_on_cluster_graphs() {
        let (g, _) = gen::ring_of_cliques(5, 6).unwrap();
        assert_complete(&g, &PipelineParams::default());
        let pp = gen::planted_partition(&[20, 20], 0.5, 0.08, 7).unwrap();
        assert_complete(&pp.graph, &PipelineParams::default());
    }

    #[test]
    fn complete_when_decomposition_removes_everything() {
        // Paths, stars and matchings decompose into singletons — every
        // edge lands in E* and recursion/residual must still finish.
        for g in [
            gen::path(10).unwrap(),
            gen::star(8).unwrap(),
            Graph::from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]).unwrap(),
        ] {
            assert_complete(&g, &PipelineParams::default());
        }
    }

    #[test]
    fn sequential_and_parallel_exec_agree() {
        let g = gen::gnp(36, 0.3, 9).unwrap();
        let par = enumerate_via_decomposition(
            &g,
            &PipelineParams {
                exec: ExecMode::Parallel,
                ..Default::default()
            },
        );
        let seq = enumerate_via_decomposition(
            &g,
            &PipelineParams {
                exec: ExecMode::Sequential,
                ..Default::default()
            },
        );
        assert_eq!(par.triangles, seq.triangles);
        assert_eq!(par.total_rounds(), seq.total_rounds());
        assert_eq!(par.phases.phase("enumerate"), seq.phases.phase("enumerate"));
    }

    #[test]
    fn recursion_scheduler_modes_agree_bit_for_bit() {
        let (g, _) = gen::ring_of_cliques(6, 6).unwrap();
        let seq = enumerate_via_decomposition(
            &g,
            &PipelineParams {
                recursion_exec: ExecMode::Sequential,
                ..Default::default()
            },
        );
        let par = enumerate_via_decomposition(
            &g,
            &PipelineParams {
                recursion_exec: ExecMode::Parallel,
                recursion_workers: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq.triangles, par.triangles);
        assert_eq!(seq.witnesses, par.witnesses);
        assert_eq!(seq.total_rounds(), par.total_rounds());
        for (a, b) in seq.levels.iter().zip(&par.levels) {
            assert_eq!(a.routing_queries, b.routing_queries);
            assert_eq!(a.engine, b.engine);
            assert_eq!(a.clusters, b.clusters);
        }
        // The scheduler's own record differs only in execution shape.
        assert_eq!(seq.recursion.total_jobs(), par.recursion.total_jobs());
        assert!(seq.recursion.total_steals() == 0);
        assert!(par
            .recursion
            .levels
            .iter()
            .all(|l| l.workers >= 1 && l.max_jobs_per_worker >= l.min_jobs_per_worker));
    }

    #[test]
    fn recursion_report_tracks_jobs_and_scratch() {
        let (g, _) = gen::ring_of_cliques(5, 6).unwrap();
        let report = assert_complete(&g, &PipelineParams::default());
        assert_eq!(
            report.recursion.total_jobs(),
            report.levels.iter().map(|l| l.clusters).sum::<usize>()
        );
        assert_eq!(report.recursion.levels.len(), report.levels.len());
        assert!(
            report.recursion.scratch_hits + report.recursion.scratch_misses
                >= 2 * report.recursion.total_jobs(),
            "every job draws an arena and a triangle buffer"
        );
        // Multi-level runs must actually reuse arenas.
        if report.levels.len() > 1 && report.levels.iter().all(|l| l.clusters > 0) {
            assert!(report.recursion.scratch_hits > 0, "no arena was reused");
        }
        assert!(report.recursion.max_imbalance() >= 1.0);
        // Wall-clock attribution reaches the phase ledger.
        assert!(report.phases.wall("decompose") > std::time::Duration::ZERO);
    }

    #[test]
    fn planted_assignment_is_complete_and_mode_independent() {
        use expander::{ClusterAssignment, SchedulerPolicy};
        let (g, blocks) = gen::ring_of_expanders(5, 16, 4, 9).unwrap();
        let asg = ClusterAssignment::from_parts(&g, &blocks, 0.2, &SchedulerPolicy::sequential());
        let want = enumerate_triangles(&g);
        let seq = enumerate_with_assignment(
            &g,
            &asg,
            &PipelineParams {
                recursion_exec: ExecMode::Sequential,
                exec: ExecMode::Sequential,
                ..Default::default()
            },
        );
        let par = enumerate_with_assignment(
            &g,
            &asg,
            &PipelineParams {
                recursion_workers: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq.triangles, want);
        assert_eq!(par.triangles, want);
        assert_eq!(seq.witnesses, par.witnesses);
        assert_eq!(seq.total_rounds(), par.total_rounds());
        assert_eq!(seq.levels.len(), 1, "planted entry runs a single level");
        assert_eq!(seq.levels[0].clusters, 5);
        assert_eq!(seq.levels[0].decomposition_rounds, 0);
        // The ring bridges land in the residual.
        assert_eq!(seq.residual_rounds, (5 + g.n()) as u64);
        // A deliberately bad partition is still complete — quality only
        // shifts work into the residual.
        let halves = [
            graph::VertexSet::from_fn(g.n(), |v| (v as usize) < g.n() / 2),
            graph::VertexSet::from_fn(g.n(), |v| (v as usize) >= g.n() / 2),
        ];
        let bad = ClusterAssignment::from_parts(&g, &halves, 0.01, &SchedulerPolicy::sequential());
        let report = enumerate_with_assignment(&g, &bad, &PipelineParams::default());
        assert_eq!(report.triangles, want);
    }

    #[test]
    fn engine_traffic_is_measured() {
        let (g, _) = gen::ring_of_cliques(4, 6).unwrap();
        let report = assert_complete(&g, &PipelineParams::default());
        let enumerate = report.phases.phase("enumerate");
        assert!(enumerate.rounds > 0, "engine rounds must be measured");
        assert!(enumerate.messages > 0);
        assert!(report.levels[0].engine.rounds > 0);
        // The engine phase is part of the total.
        assert!(report.total_rounds() >= enumerate.rounds as u64);
    }

    #[test]
    fn witnesses_are_a_sample_of_the_listing() {
        let g = gen::complete(12).unwrap();
        let report = assert_complete(&g, &PipelineParams::default());
        assert_eq!(report.witnesses.len(), 16.min(report.triangles.len()));
        for w in &report.witnesses {
            assert!(report.triangles.binary_search(w).is_ok());
        }
        let none = enumerate_via_decomposition(
            &g,
            &PipelineParams {
                witness_cap: 0,
                ..Default::default()
            },
        );
        assert!(none.witnesses.is_empty());
    }

    #[test]
    fn levels_shrink_and_budget_holds() {
        let g = gen::gnp(50, 0.3, 11).unwrap();
        let report = assert_complete(&g, &PipelineParams::default());
        for pair in report.levels.windows(2) {
            assert!(
                pair[1].m <= pair[0].m / 2,
                "E* must shrink: {} -> {}",
                pair[0].m,
                pair[1].m
            );
        }
        assert!(
            report.within_paper_budget(8.0),
            "queries {} vs budget {}",
            report.max_routing_queries(),
            report.paper_query_budget()
        );
    }

    #[test]
    fn triangle_free_graphs_report_nothing() {
        for g in [gen::cycle(12).unwrap(), gen::grid(5, 5).unwrap()] {
            let report = enumerate_via_decomposition(&g, &PipelineParams::default());
            assert!(report.triangles.is_empty());
            assert!(report.witnesses.is_empty());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::gnp(36, 0.3, 5).unwrap();
        let a = enumerate_via_decomposition(&g, &PipelineParams::default());
        let b = enumerate_via_decomposition(&g, &PipelineParams::default());
        assert_eq!(a.triangles, b.triangles);
        assert_eq!(a.total_rounds(), b.total_rounds());
        assert_eq!(a.witnesses, b.witnesses);
    }

    #[test]
    fn edgeless_and_tiny_graphs() {
        let empty = Graph::from_edges(5, []).unwrap();
        let report = enumerate_via_decomposition(&empty, &PipelineParams::default());
        assert!(report.triangles.is_empty());
        assert_eq!(report.total_rounds(), 0);
        let two = Graph::from_edges(2, [(0, 1)]).unwrap();
        let report = enumerate_via_decomposition(&two, &PipelineParams::default());
        assert!(report.triangles.is_empty());
    }

    #[test]
    fn schedule_is_exposed() {
        let g = gen::gnp(30, 0.3, 2).unwrap();
        let report = enumerate_via_decomposition(&g, &PipelineParams::default());
        assert_eq!(report.schedule.k, 2);
        assert!(!report.schedule.phi_schedule.is_empty());
        for level in &report.levels {
            assert!(level.phi > 0.0);
        }
    }
}
