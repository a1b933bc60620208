//! Certificate-driven reclustering: the decomposition-maintenance half of
//! the churn tier (DESIGN.md §15).
//!
//! Theorem 1's output is a partition whose parts each certify `Φ ≥ φ`.
//! Under edge churn most parts keep certifying — deleting a handful of
//! intra-cluster edges rarely breaks an expander, and inserted edges can
//! only *raise* internal connectivity or land between clusters (where
//! they join the inter-cluster budget). Following the maintenance view of
//! Chang–Saranurak's deterministic pruning line, [`recluster_broken`]
//! pays only for what changed:
//!
//! 1. clusters with no incident churn are passed through untouched
//!    ([`Reuse::Untouched`]: downstream artifact caches keep their frozen
//!    snapshots by pointer);
//! 2. touched clusters are re-certified on the *current* graph by
//!    [`crate::verify::certify_threshold`] — the loop-augmented induced
//!    view, so crossing and churned edges are compensated exactly as the
//!    working graph would — and a part that still certifies keeps its
//!    membership ([`Reuse::Recertified`]: its rows changed and re-freeze,
//!    its routing hierarchy may be carried);
//! 3. a **severed** cluster (`Φ = 0`) is split along its connected
//!    components, each of which walks the same ladder on its own; only a
//!    *connected* piece that fails it is re-decomposed in isolation (a
//!    fresh [`ExpanderDecomposition`] on the induced subgraph,
//!    deterministically seeded by old cluster id).
//!
//! The result is a covering partition ready for
//! [`ClusterAssignment::from_parts`], plus the reuse map the query
//! engine's refreeze reads.
//!
//! Only the ladder's last rung is conservative: the Cheeger lower bound
//! on large parts can dip below `φ` while the true conductance still
//! clears it, in which case we re-decompose a healthy cluster — extra
//! work, never a wrong answer. The re-decomposition promises its own
//! (sub-)schedule's φ; the maintained assignment keeps reporting the
//! original target, so a later churn batch re-checks the new parts
//! against the same bar.

use crate::decomposition::{ClusterAssignment, ExpanderDecomposition};
use crate::params::ParamMode;
use crate::verify::{certify_threshold, Rung};
use graph::seed::derive_seed;
use graph::view::Subgraph;
use graph::working::WorkingGraph;
use graph::VertexSet;

/// Knobs for the per-cluster re-decomposition (the subset of the
/// decomposition builder the churn tier forwards).
#[derive(Debug, Clone, Copy)]
pub struct ReclusterParams {
    /// Inter-cluster budget for each isolated re-decomposition.
    pub epsilon: f64,
    /// Schedule index `k` of the re-decomposition.
    pub k: usize,
    /// Parameter mode (paper constants vs practical).
    pub mode: ParamMode,
    /// Root seed; each broken cluster decomposes under
    /// `derive_seed(seed, old_cluster_id)` so runs are reproducible and
    /// independent of iteration order.
    pub seed: u64,
}

impl Default for ReclusterParams {
    fn default() -> Self {
        ReclusterParams {
            epsilon: 0.3,
            k: 2,
            mode: ParamMode::Practical,
            seed: 0,
        }
    }
}

/// What the refreeze may keep of the previous artifacts for one part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// New membership (split off or freshly cut): freeze from scratch.
    Fresh,
    /// Same membership, touched and re-certified: rows re-freeze; the
    /// hierarchy may be carried while it tolerates `deleted` more deletions.
    Recertified {
        /// The part's id in the previous assignment.
        old: usize,
        /// Net intra-cluster deletions since the overlay's snapshot.
        deleted: usize,
    },
    /// Old cluster, no incident churn: the whole artifact by pointer.
    Untouched(usize),
}

/// Output of [`recluster_broken`]: the next covering partition plus the
/// bookkeeping the refreeze path needs.
#[derive(Debug, Clone)]
pub struct ReclusterReport {
    /// The new covering partition, ready for
    /// [`ClusterAssignment::from_parts`].
    pub parts: Vec<VertexSet>,
    /// For each entry of `parts`, what of the previous artifacts it keeps.
    pub reuse: Vec<Reuse>,
    /// Touched clusters whose φ certificate was re-verified.
    pub checked: usize,
    /// Clusters whose certificate broke: severed, or connected and under φ.
    pub broken: usize,
    /// Components of severed clusters that certified on their own and
    /// became parts without any re-decomposition.
    pub split: usize,
}

impl ReclusterReport {
    /// Number of parts passed through with reusable artifacts.
    pub fn reused(&self) -> usize {
        self.reuse
            .iter()
            .filter(|r| matches!(r, Reuse::Untouched(_)))
            .count()
    }

    fn push(&mut self, part: VertexSet, reuse: Reuse) {
        self.parts.push(part);
        self.reuse.push(reuse);
    }
}

/// Re-verifies the φ certificates of the `dirty` clusters of `assignment`
/// against the current overlay `working`, splits the severed ones,
/// re-decomposes exactly the connected pieces that fail, and returns the
/// next covering partition. `dirty[c]` marks old cluster `c` as touched by
/// churn (any applied op with an endpoint in the cluster); untouched
/// clusters are passed through and flagged reusable. `working`'s snapshot
/// must be the graph the artifacts were last frozen on, so its tombstones
/// are the deletions since then.
///
/// # Panics
///
/// Panics if `dirty.len()` differs from the assignment's cluster count or
/// the overlay's vertex count differs from the assignment's.
pub fn recluster_broken(
    working: &WorkingGraph,
    assignment: &ClusterAssignment,
    dirty: &[bool],
    params: &ReclusterParams,
) -> ReclusterReport {
    assert_eq!(
        dirty.len(),
        assignment.cluster_count(),
        "one dirty flag per cluster"
    );
    assert_eq!(working.n(), assignment.n, "overlay/assignment mismatch");
    let n = working.n();
    let phi = assignment.phi;
    let mut next = ReclusterReport {
        parts: Vec::with_capacity(assignment.cluster_count()),
        reuse: Vec::with_capacity(assignment.cluster_count()),
        checked: 0,
        broken: 0,
        split: 0,
    };
    for (c, part) in assignment.clusters.iter().enumerate() {
        if !dirty[c] {
            next.push(part.clone(), Reuse::Untouched(c));
            continue;
        }
        next.checked += 1;
        let (lower, rung) = certify_threshold(working, part, phi);
        if lower >= phi {
            let deleted = intra_deletions(working, part);
            next.push(part.clone(), Reuse::Recertified { old: c, deleted });
            continue;
        }
        next.broken += 1;
        // What is left to settle: the components of a severed cluster, or
        // the connected cluster itself, which has already failed.
        let severed = matches!(rung, Rung::Severed(_));
        let pieces = match rung {
            Rung::Severed(pieces) => pieces,
            _ => vec![part.clone()],
        };
        let (largest, _) = (pieces.iter().enumerate())
            .max_by_key(|(i, p)| (working.volume(p), std::cmp::Reverse(*i)))
            .expect("at least the cluster itself");
        for (i, mut piece) in pieces.into_iter().enumerate() {
            let holds = severed && certify_threshold(working, &piece, phi).0 >= phi;
            if severed && i == largest {
                // Zero-degree members sit in no component and stay with
                // the largest piece — joined after its certificate, which
                // they cannot change but the spectral estimate misreads.
                let stray = part.iter().filter(|&v| working.degree(v) == 0);
                piece = VertexSet::from_iter(n, piece.iter().chain(stray));
            }
            if holds {
                next.split += 1;
                next.push(piece, Reuse::Fresh);
                continue;
            }
            let sub = Subgraph::induced(working, &piece);
            if sub.graph().m() == 0 {
                // No internal edges survive: every member becomes a
                // (vacuously expanding) singleton.
                for v in piece.iter() {
                    next.push(VertexSet::from_iter(n, [v]), Reuse::Fresh);
                }
                continue;
            }
            let res = ExpanderDecomposition::builder()
                .epsilon(params.epsilon)
                .k(params.k)
                .mode(params.mode)
                .seed(derive_seed(params.seed, c as u64))
                .build()
                .run(sub.graph())
                .expect("non-empty induced subgraph decomposes");
            for sub_part in &res.parts {
                next.push(sub.set_to_parent(sub_part, n), Reuse::Fresh);
            }
        }
    }
    next
}

/// Net deletions of edges with both endpoints in `part` since the
/// overlay's snapshot (each tombstoned edge is seen from both rows).
fn intra_deletions(working: &WorkingGraph, part: &VertexSet) -> usize {
    let lost = |v| working.deleted_neighbors(v).filter(|&w| part.contains(w));
    part.iter().flat_map(lost).count() / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerPolicy;
    use graph::{gen, VertexId};

    fn planted() -> (graph::Graph, Vec<VertexSet>) {
        let pp = gen::planted_partition(&[24, 24, 24], 0.7, 0.01, 11).unwrap();
        (pp.graph, pp.blocks)
    }

    #[test]
    fn untouched_clusters_pass_through_as_reusable() {
        let (g, blocks) = planted();
        let assignment =
            ClusterAssignment::from_parts(&g, &blocks, 0.05, &SchedulerPolicy::sequential());
        let working = WorkingGraph::new(&g);
        let dirty = vec![false; assignment.cluster_count()];
        let report = recluster_broken(&working, &assignment, &dirty, &ReclusterParams::default());
        assert_eq!(report.checked, 0);
        assert_eq!(report.broken, 0);
        assert_eq!(report.parts.len(), assignment.cluster_count());
        assert_eq!(report.reused(), assignment.cluster_count());
        for (i, part) in report.parts.iter().enumerate() {
            assert_eq!(report.reuse[i], Reuse::Untouched(i));
            assert_eq!(part.len(), assignment.clusters[i].len());
        }
    }

    #[test]
    fn healthy_touched_cluster_keeps_its_part() {
        let (g, blocks) = planted();
        let assignment =
            ClusterAssignment::from_parts(&g, &blocks, 0.05, &SchedulerPolicy::sequential());
        let mut working = WorkingGraph::new(&g);
        // One intra-cluster insertion: touches cluster 0, breaks nothing.
        let members: Vec<VertexId> = assignment.clusters[0].iter().collect();
        working.insert_edges([(members[0], members[1])]);
        let mut dirty = vec![false; assignment.cluster_count()];
        dirty[0] = true;
        let report = recluster_broken(&working, &assignment, &dirty, &ReclusterParams::default());
        assert_eq!(report.checked, 1);
        assert_eq!(report.broken, 0);
        assert_eq!(report.parts.len(), assignment.cluster_count());
        assert_eq!(
            report.reuse[0],
            Reuse::Recertified { old: 0, deleted: 0 },
            "touched clusters refreeze"
        );
        assert_eq!(report.reused(), assignment.cluster_count() - 1);
    }

    #[test]
    fn shredded_cluster_is_recut_alone() {
        let (g, blocks) = planted();
        let assignment =
            ClusterAssignment::from_parts(&g, &blocks, 0.05, &SchedulerPolicy::sequential());
        let mut working = WorkingGraph::new(&g);
        // Delete every internal edge of cluster 0: its certificate must
        // collapse and the members fall apart into singletons.
        let target = &assignment.clusters[0];
        let victims: Vec<(VertexId, VertexId)> = g
            .edges()
            .filter(|&(u, v)| target.contains(u) && target.contains(v))
            .collect();
        working.remove_edges(victims.iter().copied(), true);
        let mut dirty = vec![false; assignment.cluster_count()];
        dirty[0] = true;
        let report = recluster_broken(&working, &assignment, &dirty, &ReclusterParams::default());
        assert_eq!(report.checked, 1);
        assert_eq!(report.broken, 1);
        // The other blocks survive untouched and reusable.
        assert_eq!(report.reused(), assignment.cluster_count() - 1);
        // Partition still covers V exactly once.
        let mut seen = vec![false; g.n()];
        for part in &report.parts {
            for v in part.iter() {
                assert!(!seen[v as usize], "vertex {v} covered twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // And from_parts accepts the result.
        let next = ClusterAssignment::from_parts(
            &working.to_graph(),
            &report.parts,
            assignment.phi,
            &SchedulerPolicy::sequential(),
        );
        assert_eq!(next.cluster_count(), report.parts.len());
    }

    #[test]
    fn severed_cluster_splits_and_recertified_counts_its_deletions() {
        let (g, blocks) = planted();
        let assignment =
            ClusterAssignment::from_parts(&g, &blocks, 0.05, &SchedulerPolicy::sequential());
        let mut working = WorkingGraph::new(&g);
        let members: Vec<VertexId> = blocks[0].iter().collect();
        let (lone, a, b) = (members[0], members[1], members[2]);
        // Cluster 0: `lone` loses every edge (zero degree), `a`–`b` keep
        // only each other. Deletes are uncompensated, as the ledger's are.
        let cut: Vec<(VertexId, VertexId)> = g
            .edges()
            .filter(|&(u, v)| {
                let pair = |x| x == a || x == b;
                let inside = blocks[0].contains(u) && blocks[0].contains(v);
                u == lone || v == lone || (inside && pair(u) != pair(v))
            })
            .collect();
        working.remove_edges(cut, false);
        if !working.has_edge(a, b) {
            working.insert_edges([(a, b)]);
        }
        // Cluster 1: three internal deletions and one crossing deletion.
        let inside: Vec<_> = (g.edges())
            .filter(|&(u, v)| blocks[1].contains(u) && blocks[1].contains(v))
            .take(3)
            .collect();
        let crossing = (g.edges()).find(|&(u, v)| blocks[1].contains(u) != blocks[1].contains(v));
        working.remove_edges(inside.into_iter().chain(crossing), false);

        let dirty = vec![true, true, false];
        let report = recluster_broken(&working, &assignment, &dirty, &ReclusterParams::default());
        assert_eq!((report.checked, report.broken, report.split), (2, 1, 2));
        // Cluster 0 became the pair and the 22-vertex remainder (zero-degree
        // `lone` rides along), in component order; cluster 1 kept its part.
        let sizes: Vec<usize> = report.parts.iter().map(VertexSet::len).collect();
        assert_eq!(sizes, vec![2, 22, 24, 24]);
        assert_eq!(report.parts[0].iter().collect::<Vec<_>>(), vec![a, b]);
        assert!(report.parts[1].contains(lone));
        assert_eq!(
            report.reuse,
            vec![
                Reuse::Fresh,
                Reuse::Fresh,
                Reuse::Recertified { old: 1, deleted: 3 },
                Reuse::Untouched(2),
            ]
        );
    }
}
