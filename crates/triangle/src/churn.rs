//! **The churn tier** — incremental maintenance of the triangle artifact
//! under live edge insertions and deletions (DESIGN.md §15).
//!
//! The [`crate::service::QueryEngine`] is deliberately frozen: build
//! once, serve forever. A real service sees edge churn, and a full
//! rebuild per batch wastes exactly the structure the paper fought for —
//! expander clusters are *stable*, and most churn never breaks one.
//! [`DeltaLedger`] keeps three things fresh between rebuilds:
//!
//! 1. **The graph** — a [`WorkingGraph`] overlay over the engine's base
//!    graph: deletions tombstone CSR slots, insertions resurrect dead
//!    slots or land in sorted per-vertex insert rows, both `O(log Δ)`
//!    per edge.
//! 2. **The triangle count** — the classic incremental identity: a
//!    multigraph edge toggle changes the (simple-support) triangle set
//!    only when the edge's multiplicity crosses 0 ↔ 1, and then by
//!    exactly `|N(u) ∩ N(v)|` deduplicated common neighbors, computed
//!    with the same sorted-merge intersection kernel the query path
//!    uses. Each batch therefore costs `O(Σ |N(u) ∩ N(v)|)` — and the
//!    created/destroyed triangles come out for free as **witness-set
//!    patches** ([`BatchReport::created`] / [`BatchReport::destroyed`]).
//! 3. **Per-cluster bookkeeping** — a support delta (triangles incident
//!    to each frozen cluster) and a dirty flag per touched cluster, the
//!    input to certificate-driven reclustering.
//!
//! When the [`ChurnPolicy`] staleness bound trips, [`DeltaLedger::rebuild`]
//! runs the incremental rebuild: re-certify φ for dirty clusters only
//! (`expander::recluster::recluster_broken`), split the severed ones,
//! re-decompose just the connected pieces that fail, and
//! [`QueryEngine::refreeze`] the next engine with every untouched
//! cluster's artifact — and every re-certified cluster's routing
//! hierarchy, inside the carry rule — carried over by `Arc` pointer. The
//! returned engine is what a server swaps into its `EngineCell`
//! (generation +1, in-flight batches finish on the old pointer).
//!
//! Equivalence contract (pinned by `tests/churn_equivalence.rs`): after
//! ANY interleaved insert/delete stream, the ledger's count, witness set,
//! and the refrozen engine's query **answers** are bit-identical to a
//! from-scratch [`QueryEngine::build`] on the final graph. Routing
//! *charges* are excluded: reused hierarchies keep their original seeds
//! and cluster ids, so charge accounting may differ while answers — pure
//! functions of the deduplicated adjacency rows — cannot.

use crate::count::{count_triangles, Triangle};
use crate::pipeline::PipelineParams;
use crate::service::QueryEngine;
use expander::recluster::{recluster_broken, ReclusterParams, Reuse};
use expander::ClusterAssignment;
use graph::seed::derive_seed;
use graph::working::WorkingGraph;
use graph::{intersect_sorted, Graph, VertexId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One churn operation on the live graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert one copy of `{u, v}` (a self loop when `u == v`).
    Insert(VertexId, VertexId),
    /// Delete one copy of `{u, v}`. Absent edges and self loops are
    /// ignored, mirroring [`Graph::remove_edges`]'s contract.
    Delete(VertexId, VertexId),
}

/// Staleness bound feeding the background-rebuild trigger: rebuild once
/// the ledger has absorbed `max_stale_edges` applied ops or has been
/// stale for `max_stale_secs` seconds, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct ChurnPolicy {
    /// Applied-op budget before a rebuild is due.
    pub max_stale_edges: usize,
    /// Wall-clock budget (seconds) since the first unabsorbed op.
    /// `f64::INFINITY` disables the time trigger.
    pub max_stale_secs: f64,
}

impl Default for ChurnPolicy {
    fn default() -> Self {
        ChurnPolicy {
            max_stale_edges: 1024,
            max_stale_secs: 30.0,
        }
    }
}

impl ChurnPolicy {
    /// Whether `stale_edges` applied ops aged `stale_for` exceed either
    /// budget.
    pub fn should_rebuild(&self, stale_edges: usize, stale_for: Duration) -> bool {
        if stale_edges == 0 {
            return false;
        }
        stale_edges >= self.max_stale_edges || stale_for.as_secs_f64() >= self.max_stale_secs
    }
}

/// What one [`DeltaLedger::apply`] batch did.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Ops that changed the graph.
    pub applied: usize,
    /// Ops ignored by contract (absent deletes, self-loop deletes,
    /// out-of-range endpoints).
    pub ignored: usize,
    /// Triangles created by this batch (witness-set additions), sorted,
    /// duplicate-free, and **net of intra-batch churn**: a triangle
    /// created and destroyed inside the same batch appears in neither
    /// list, so the two patches are disjoint and apply in either order.
    pub created: Vec<Triangle>,
    /// Triangles destroyed by this batch (witness-set removals), sorted,
    /// duplicate-free, disjoint from [`BatchReport::created`].
    pub destroyed: Vec<Triangle>,
    /// Merge-intersection comparison steps charged — the batch's
    /// `O(Σ |N(u) ∩ N(v)|)` work measure, in the same word unit as the
    /// query path.
    pub intersect_words: u64,
    /// Distinct frozen clusters touched by this batch's applied ops.
    pub touched_clusters: usize,
}

/// What one [`DeltaLedger::rebuild`] cost and reused.
#[derive(Debug, Clone)]
pub struct RebuildReport {
    /// The refrozen engine (also installed as the ledger's new base).
    pub engine: Arc<QueryEngine>,
    /// Dirty clusters whose φ certificate was re-verified.
    pub checked: usize,
    /// Clusters whose certificate broke: severed, or connected and under φ.
    pub broken: usize,
    /// Clusters carried into the new engine by `Arc` pointer.
    pub reused: usize,
    /// Clusters whose rows were frozen again (touched or newly cut).
    pub rebuilt: usize,
    /// Of `rebuilt`, those whose routing hierarchy was carried by pointer.
    pub carried: usize,
    /// Components of severed clusters that became parts on their own.
    pub split: usize,
    /// Applied ops absorbed by this rebuild.
    pub absorbed: usize,
    /// Wall clock of the whole rebuild (recluster + refreeze).
    pub wall: Duration,
}

/// The incremental maintenance layer over a frozen [`QueryEngine`]: a
/// live graph overlay, an exactly-maintained triangle count with witness
/// patches, per-cluster support deltas and dirty flags, and the
/// staleness-bounded incremental rebuild. See the [module docs](self).
#[derive(Debug)]
pub struct DeltaLedger {
    working: WorkingGraph,
    engine: Arc<QueryEngine>,
    triangles: u64,
    /// Signed change, since the last rebuild, in the number of triangles
    /// incident to each frozen cluster.
    support_delta: Vec<i64>,
    /// Clusters touched by any applied op since the last rebuild.
    dirty: Vec<bool>,
    stale_edges: usize,
    stale_since: Option<Instant>,
    row_u: Vec<VertexId>,
    row_v: Vec<VertexId>,
}

impl DeltaLedger {
    /// Opens a ledger over `engine`'s graph `g` (the graph the engine was
    /// built or last refrozen on). Pays one exact triangle count up
    /// front; every batch after that is incremental.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s vertex count differs from the engine's.
    pub fn new(g: &Graph, engine: Arc<QueryEngine>) -> DeltaLedger {
        assert_eq!(
            g.n(),
            engine.assignment().n,
            "ledger graph/engine vertex-count mismatch"
        );
        let clusters = engine.assignment().cluster_count();
        DeltaLedger {
            working: WorkingGraph::new(g),
            triangles: count_triangles(g),
            support_delta: vec![0; clusters],
            dirty: vec![false; clusters],
            engine,
            stale_edges: 0,
            stale_since: None,
            row_u: Vec::new(),
            row_v: Vec::new(),
        }
    }

    /// The maintained triangle count of the live graph.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// The current engine (stale by up to [`DeltaLedger::stale_edges`]
    /// applied ops until the next rebuild).
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    /// The live graph overlay.
    pub fn working(&self) -> &WorkingGraph {
        &self.working
    }

    /// Applied ops not yet absorbed by a rebuild.
    pub fn stale_edges(&self) -> usize {
        self.stale_edges
    }

    /// Signed per-cluster change in incident-triangle support since the
    /// last rebuild, indexed by the frozen assignment's cluster ids.
    pub fn support_delta(&self) -> &[i64] {
        &self.support_delta
    }

    /// Clusters currently marked dirty.
    pub fn dirty_clusters(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Whether `policy`'s staleness budget is exhausted.
    pub fn needs_rebuild(&self, policy: &ChurnPolicy) -> bool {
        let stale_for = self
            .stale_since
            .map(|t| t.elapsed())
            .unwrap_or(Duration::ZERO);
        policy.should_rebuild(self.stale_edges, stale_for)
    }

    /// Applies one batch of churn ops, maintaining the graph overlay, the
    /// triangle count, the witness patches, and the per-cluster deltas in
    /// `O(Σ |N(u) ∩ N(v)|)` total intersection work.
    pub fn apply(&mut self, ops: &[EdgeOp]) -> BatchReport {
        let mut report = BatchReport {
            applied: 0,
            ignored: 0,
            created: Vec::new(),
            destroyed: Vec::new(),
            intersect_words: 0,
            touched_clusters: 0,
        };
        let n = self.working.n();
        let mut touched = vec![false; self.dirty.len()];
        for &op in ops {
            let (u, v) = match op {
                EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v) => (u, v),
            };
            if (u as usize) >= n || (v as usize) >= n {
                report.ignored += 1;
                continue;
            }
            match op {
                EdgeOp::Insert(u, v) => {
                    if u == v {
                        self.working.insert_edges([(u, u)]);
                        self.mark(u, v, &mut touched);
                        report.applied += 1;
                        continue;
                    }
                    let was_absent = self.working.multiplicity(u, v) == 0;
                    self.working.insert_edges([(u, v)]);
                    self.mark(u, v, &mut touched);
                    report.applied += 1;
                    if was_absent {
                        let from = report.created.len();
                        report.intersect_words += self.common_neighbors(u, v, |w| {
                            report.created.push(Triangle::new(u, v, w));
                        });
                        let span = from..report.created.len();
                        for i in span {
                            let t = report.created[i];
                            self.credit(t, 1);
                        }
                    }
                }
                EdgeOp::Delete(u, v) => {
                    if u == v || self.working.remove_edges([(u, v)], false) == 0 {
                        // Self-loop and absent deletes are no-ops by the
                        // base-graph contract; they dirty nothing.
                        report.ignored += 1;
                        continue;
                    }
                    self.mark(u, v, &mut touched);
                    report.applied += 1;
                    if self.working.multiplicity(u, v) == 0 {
                        let from = report.destroyed.len();
                        report.intersect_words += self.common_neighbors(u, v, |w| {
                            report.destroyed.push(Triangle::new(u, v, w));
                        });
                        let span = from..report.destroyed.len();
                        for i in span {
                            let t = report.destroyed[i];
                            self.credit(t, -1);
                        }
                    }
                }
            }
        }
        self.triangles =
            self.triangles + report.created.len() as u64 - report.destroyed.len() as u64;
        if report.applied > 0 {
            self.stale_edges += report.applied;
            if self.stale_since.is_none() {
                self.stale_since = Some(Instant::now());
            }
        }
        report.touched_clusters = touched.iter().filter(|&&t| t).count();
        report.created.sort_unstable();
        report.destroyed.sort_unstable();
        cancel_matched(&mut report.created, &mut report.destroyed);
        report
    }

    /// Streams the deduplicated common neighbors of `u` and `v` in the
    /// live graph (never `u` or `v` themselves — loops are not adjacency)
    /// and returns the merge's comparison steps.
    fn common_neighbors(
        &mut self,
        u: VertexId,
        v: VertexId,
        mut emit: impl FnMut(VertexId),
    ) -> u64 {
        self.row_u.clear();
        for w in self.working.live_neighbors(u) {
            if self.row_u.last() != Some(&w) {
                self.row_u.push(w);
            }
        }
        self.row_v.clear();
        for w in self.working.live_neighbors(v) {
            if self.row_v.last() != Some(&w) {
                self.row_v.push(w);
            }
        }
        intersect_sorted(&self.row_u, &self.row_v, |w| {
            if w != u && w != v {
                emit(w);
            }
        })
    }

    /// Marks the endpoint clusters of an applied op dirty.
    fn mark(&mut self, u: VertexId, v: VertexId, touched: &mut [bool]) {
        let assignment = self.engine.assignment();
        for c in [
            assignment.cluster_of[u as usize],
            assignment.cluster_of[v as usize],
        ] {
            self.dirty[c as usize] = true;
            touched[c as usize] = true;
        }
    }

    /// Adds `sign` to the support delta of every cluster incident to `t`
    /// (each cluster at most once per triangle).
    fn credit(&mut self, t: Triangle, sign: i64) {
        let assignment = self.engine.assignment();
        let ca = assignment.cluster_of[t.a as usize];
        let cb = assignment.cluster_of[t.b as usize];
        let cc = assignment.cluster_of[t.c as usize];
        self.support_delta[ca as usize] += sign;
        if cb != ca {
            self.support_delta[cb as usize] += sign;
        }
        if cc != ca && cc != cb {
            self.support_delta[cc as usize] += sign;
        }
    }

    /// The incremental rebuild: materialize the live graph, re-verify φ
    /// certificates of dirty clusters only, split the severed and
    /// re-decompose the connected-but-broken ones ([`recluster_broken`]),
    /// and refreeze the next engine with untouched clusters' artifacts and
    /// re-certified clusters' hierarchies reused by pointer
    /// ([`QueryEngine::refreeze`]). Resets the ledger's staleness state
    /// and rebases the overlay on the materialized graph.
    pub fn rebuild(&mut self, params: &PipelineParams) -> RebuildReport {
        let t0 = Instant::now();
        let g_now = self.working.to_graph();
        let recluster = ReclusterParams {
            epsilon: params.epsilon,
            k: params.decomposition_k.max(1),
            mode: params.mode,
            // Child 1 of the pipeline seed: disjoint from the level-0
            // decomposition seed (child 0) the fresh build path uses.
            seed: derive_seed(params.seed, 1),
        };
        let scope = recluster_broken(
            &self.working,
            self.engine.assignment(),
            &self.dirty,
            &recluster,
        );
        let assignment = ClusterAssignment::from_parts(
            &g_now,
            &scope.parts,
            self.engine.assignment().phi,
            &params.scheduler_policy(),
        );
        let next = QueryEngine::refreeze(&g_now, assignment, params, &self.engine, &scope.reuse);
        let reused = scope.reused();
        let rebuilt = scope.reuse.len() - reused;
        let carried = (scope.reuse.iter().enumerate())
            .filter(|&(c, r)| match *r {
                Reuse::Recertified { old, .. } => next.shares_hierarchy(c, &self.engine, old),
                _ => false,
            })
            .count();
        let engine = Arc::new(next);
        let absorbed = self.stale_edges;
        self.engine = Arc::clone(&engine);
        self.working = WorkingGraph::new(&g_now);
        self.support_delta = vec![0; engine.assignment().cluster_count()];
        self.dirty = vec![false; engine.assignment().cluster_count()];
        self.stale_edges = 0;
        self.stale_since = None;
        RebuildReport {
            engine,
            checked: scope.checked,
            broken: scope.broken,
            reused,
            rebuilt,
            carried,
            split: scope.split,
            absorbed,
            wall: t0.elapsed(),
        }
    }

    /// The staleness-bounded maintenance step a serving loop calls per
    /// batch: apply the ops, then rebuild iff `policy` says the ledger is
    /// too stale. When a rebuild happens, the caller owns swapping the
    /// returned engine into its `EngineCell`.
    pub fn maintain(
        &mut self,
        ops: &[EdgeOp],
        policy: &ChurnPolicy,
        params: &PipelineParams,
    ) -> (BatchReport, Option<RebuildReport>) {
        let batch = self.apply(ops);
        let rebuild = self.needs_rebuild(policy).then(|| self.rebuild(params));
        (batch, rebuild)
    }
}

/// Cancels matched pairs between two sorted triangle lists, leaving the
/// net witness patches. A triangle's existence toggles alternate within
/// a batch (created, destroyed, created, …), so after cancellation each
/// triangle survives in at most one list, at most once.
fn cancel_matched(created: &mut Vec<Triangle>, destroyed: &mut Vec<Triangle>) {
    if created.is_empty() || destroyed.is_empty() {
        return;
    }
    let mut keep_c = Vec::new();
    let mut keep_d = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < created.len() && j < destroyed.len() {
        match created[i].cmp(&destroyed[j]) {
            std::cmp::Ordering::Less => {
                keep_c.push(created[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                keep_d.push(destroyed[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    keep_c.extend_from_slice(&created[i..]);
    keep_d.extend_from_slice(&destroyed[j..]);
    *created = keep_c;
    *destroyed = keep_d;
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    fn ledger(g: &Graph, seed: u64) -> DeltaLedger {
        let params = PipelineParams {
            seed,
            ..Default::default()
        };
        let engine = Arc::new(QueryEngine::build(g, &params));
        DeltaLedger::new(g, engine)
    }

    #[test]
    fn insert_and_delete_maintain_the_count() {
        let g = gen::gnp(30, 0.2, 3).unwrap();
        let mut led = ledger(&g, 3);
        assert_eq!(led.triangles(), count_triangles(&g));
        // Close a wedge, then reopen it.
        let report = led.apply(&[EdgeOp::Insert(0, 1)]);
        assert_eq!(report.applied, 1);
        assert_eq!(led.triangles(), count_triangles(&led.working().to_graph()));
        let report = led.apply(&[EdgeOp::Delete(0, 1)]);
        assert_eq!(report.applied, 1);
        assert_eq!(led.triangles(), count_triangles(&g));
        assert_eq!(led.stale_edges(), 2);
    }

    #[test]
    fn parallel_copies_only_toggle_at_the_boundary() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut led = ledger(&g, 7);
        assert_eq!(led.triangles(), 1);
        // A second copy creates nothing; deleting one copy destroys
        // nothing; deleting the last copy kills the triangle.
        let r = led.apply(&[EdgeOp::Insert(0, 1)]);
        assert!(r.created.is_empty());
        let r = led.apply(&[EdgeOp::Delete(0, 1)]);
        assert!(r.destroyed.is_empty());
        assert_eq!(led.triangles(), 1);
        let r = led.apply(&[EdgeOp::Delete(0, 1)]);
        assert_eq!(r.destroyed, vec![Triangle::new(0, 1, 2)]);
        assert_eq!(led.triangles(), 0);
    }

    #[test]
    fn ignored_ops_do_not_dirty_clusters() {
        let g = gen::gnp(20, 0.3, 5).unwrap();
        let mut led = ledger(&g, 5);
        let r = led.apply(&[
            EdgeOp::Delete(0, 0),
            EdgeOp::Delete(99, 0),
            EdgeOp::Insert(0, 99),
        ]);
        assert_eq!(r.applied, 0);
        assert_eq!(r.ignored, 3);
        assert_eq!(r.touched_clusters, 0);
        assert_eq!(led.dirty_clusters(), 0);
        assert_eq!(led.stale_edges(), 0);
        assert!(!led.needs_rebuild(&ChurnPolicy::default()));
    }

    #[test]
    fn policy_edge_budget_trips_rebuild() {
        let g = gen::gnp(40, 0.15, 11).unwrap();
        let params = PipelineParams {
            seed: 11,
            ..Default::default()
        };
        let engine = Arc::new(QueryEngine::build(&g, &params));
        let mut led = DeltaLedger::new(&g, Arc::clone(&engine));
        let policy = ChurnPolicy {
            max_stale_edges: 2,
            max_stale_secs: f64::INFINITY,
        };
        let (_, rebuilt) = led.maintain(&[EdgeOp::Insert(0, 1)], &policy, &params);
        assert!(rebuilt.is_none(), "one op is under the budget");
        let (_, rebuilt) = led.maintain(&[EdgeOp::Insert(2, 3)], &policy, &params);
        let rebuilt = rebuilt.expect("second op trips the budget");
        assert_eq!(rebuilt.absorbed, 2);
        assert_eq!(led.stale_edges(), 0);
        assert_eq!(led.dirty_clusters(), 0);
        // The refrozen engine answers like a fresh build on the final
        // graph (charges excluded — seeds differ by design).
        let final_g = led.working().to_graph();
        let fresh = QueryEngine::build(&final_g, &params);
        for v in 0..final_g.n() as VertexId {
            let q = crate::service::Query::Vertex {
                v,
                emit: crate::service::Emit::Count,
            };
            let a = rebuilt.engine.answer(q).unwrap().answer;
            let b = fresh.answer(q).unwrap().answer;
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn rebuild_reuses_untouched_cluster_artifacts() {
        let pp = gen::planted_partition(&[20, 20, 20], 0.6, 0.02, 13).unwrap();
        let params = PipelineParams {
            seed: 13,
            ..Default::default()
        };
        let engine = Arc::new(QueryEngine::from_assignment(
            &pp.graph,
            expander::ClusterAssignment::from_parts(
                &pp.graph,
                &pp.blocks,
                0.05,
                &params.scheduler_policy(),
            ),
            &params,
        ));
        let mut led = DeltaLedger::new(&pp.graph, Arc::clone(&engine));
        // Touch only block 0 (an internal insertion).
        let members: Vec<VertexId> = pp.blocks[0].iter().collect();
        led.apply(&[EdgeOp::Insert(members[0], members[1])]);
        let report = led.rebuild(&params);
        assert_eq!(report.checked, 1);
        assert!(report.reused >= 2, "untouched blocks reuse artifacts");
        // Reused clusters are pointer-equal to the old engine's.
        let new_assignment = report.engine.assignment();
        let mut shared = 0;
        for c in 0..new_assignment.cluster_count() {
            for old_c in 0..engine.assignment().cluster_count() {
                if report.engine.shares_cluster_artifact(c, &engine, old_c) {
                    shared += 1;
                }
            }
        }
        assert_eq!(shared, report.reused);
    }
}
