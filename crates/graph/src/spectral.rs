//! Spectral toolkit: spectral gap estimation, Cheeger bounds, sweep cuts,
//! exact conductance on small graphs, and mixing-time estimation.
//!
//! These are the *verification* tools of the reproduction: the paper's
//! guarantees (`Φ(G{Vi}) ≥ φ`, `Θ(1/Φ) ≤ τ_mix ≤ Θ(log n/Φ²)`) are checked
//! against the quantities computed here.

use crate::walks::WalkDistribution;
use crate::{Cut, Graph, GraphError, Result, VertexId, VertexSet};

/// Estimate of the second-largest eigenvalue `λ₂` of the lazy walk matrix
/// `M`, produced by [`lazy_walk_lambda2`].
///
/// The lazy walk spectrum lies in `[0, 1]`, so the *spectral gap* is
/// `1 − λ₂` and the Cheeger inequalities give
/// `(1 − λ₂)/… ` bounds on conductance (see [`cheeger_lower_bound`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralGap {
    /// Estimated second eigenvalue of the lazy walk matrix.
    pub lambda2: f64,
    /// Power-iteration steps actually performed.
    pub iterations: usize,
}

/// Estimates `λ₂(M)` of the lazy random walk matrix by power iteration on
/// the component orthogonal to the stationary distribution.
///
/// Deterministic given `iters`; accuracy improves geometrically with the
/// gap. Intended for connected graphs — on disconnected graphs it returns
/// `λ₂ ≈ 1`.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if the graph has no edges.
pub fn lazy_walk_lambda2(g: &Graph, iters: usize) -> Result<SpectralGap> {
    let n = g.n();
    if n == 0 || g.total_volume() == 0 {
        return Err(GraphError::Empty {
            what: "graph volume",
        });
    }
    let vol = g.total_volume() as f64;
    // Work in the D^{1/2}-weighted inner product where M is symmetric:
    // <x, y>_D = Σ x(v)·y(v)/deg(v). The stationary density is
    // π(v) = deg(v)/vol; a vector x (a mass vector) is orthogonal to π iff
    // Σ x(v) = 0.
    let mut x: Vec<f64> = (0..n)
        .map(|v| {
            // Deterministic pseudo-random start, degree-weighted alternation.
            let sign = if v % 2 == 0 { 1.0 } else { -1.0 };
            sign * (1.0 + (v as f64 * 0.618).fract())
        })
        .collect();
    project_out_stationary(g, &mut x, vol);
    normalize_d(g, &mut x);
    let mut lambda = 0.0;
    for it in 0..iters {
        let y = apply_lazy_walk(g, &x);
        let mut y = y;
        project_out_stationary(g, &mut y, vol);
        // Rayleigh quotient in the D⁻¹ inner product.
        let num: f64 = y
            .iter()
            .zip(&x)
            .enumerate()
            .map(|(v, (yy, xx))| {
                let d = g.degree(v as VertexId) as f64;
                if d == 0.0 {
                    0.0
                } else {
                    yy * xx / d
                }
            })
            .sum();
        lambda = num; // x is D⁻¹-normalized.
        let norm = normalize_d(g, &mut y);
        if norm < 1e-300 {
            return Ok(SpectralGap {
                lambda2: 0.0,
                iterations: it,
            });
        }
        x = y;
    }
    Ok(SpectralGap {
        lambda2: lambda.clamp(0.0, 1.0),
        iterations: iters,
    })
}

fn apply_lazy_walk(g: &Graph, x: &[f64]) -> Vec<f64> {
    let n = g.n();
    let mut y = vec![0.0; n];
    for u in 0..n {
        let p = x[u];
        if p == 0.0 {
            continue;
        }
        let deg = g.degree(u as VertexId) as f64;
        if deg == 0.0 {
            y[u] += p;
            continue;
        }
        y[u] += p / 2.0 + p / 2.0 * (g.self_loops(u as VertexId) as f64 / deg);
        let share = p / (2.0 * deg);
        for &w in g.neighbors(u as VertexId) {
            y[w as usize] += share;
        }
    }
    y
}

fn project_out_stationary(g: &Graph, x: &mut [f64], vol: f64) {
    // Remove the π component: for mass vectors the invariant subspace is
    // span{π}; subtract (Σx) · π.
    let total: f64 = x.iter().sum();
    for (v, xx) in x.iter_mut().enumerate() {
        *xx -= total * g.degree(v as VertexId) as f64 / vol;
    }
}

fn normalize_d(g: &Graph, x: &mut [f64]) -> f64 {
    let norm: f64 = x
        .iter()
        .enumerate()
        .map(|(v, xx)| {
            let d = g.degree(v as VertexId) as f64;
            if d == 0.0 {
                0.0
            } else {
                xx * xx / d
            }
        })
        .sum::<f64>()
        .sqrt();
    if norm > 0.0 {
        for xx in x.iter_mut() {
            *xx /= norm;
        }
    }
    norm
}

/// Cheeger-type **lower bound** on the graph conductance from the lazy-walk
/// spectral gap: `Φ(G) ≥ (1 − λ₂)`, i.e. `Φ ≥ gap` (for the lazy walk the
/// standard normalized-Laplacian bound `Φ ≥ λ/2` becomes `Φ ≥ (2·(1−λ₂))/2`).
///
/// Used to certify that a decomposition piece really is an expander without
/// enumerating cuts.
pub fn cheeger_lower_bound(gap: &SpectralGap) -> f64 {
    // λ₂(M_lazy) = 1 − λ/2 where λ is the normalized-Laplacian eigenvalue;
    // Cheeger: Φ ≥ λ/2 = 1 − λ₂.
    1.0 - gap.lambda2
}

/// Exact minimum conductance by exhaustive enumeration of all `2^{n−1} − 1`
/// non-trivial cuts — feasible only for small graphs.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for `n > 24` and
/// [`GraphError::Empty`] for graphs with fewer than 2 vertices or zero
/// volume.
pub fn exact_conductance(g: &Graph) -> Result<f64> {
    let n = g.n();
    if n < 2 || g.total_volume() == 0 {
        return Err(GraphError::Empty {
            what: "graph for exact conductance",
        });
    }
    if n > 24 {
        return Err(GraphError::InvalidParameter {
            reason: format!("exact conductance infeasible for n = {n} > 24"),
        });
    }
    let mut best = f64::INFINITY;
    // Fix vertex 0 on one side to halve the enumeration.
    for bits in 1u32..(1 << (n - 1)) {
        let s = VertexSet::from_fn(n, |v| v != 0 && (bits >> (v - 1)) & 1 == 1);
        if s.is_empty() {
            continue;
        }
        if let Ok(cut) = Cut::new(g, s) {
            best = best.min(cut.conductance());
        }
    }
    if best.is_finite() {
        Ok(best)
    } else {
        Err(GraphError::ZeroVolumeSide)
    }
}

/// Result of a sweep cut: the best-conductance prefix of an ordering.
#[derive(Debug, Clone)]
pub struct SweepCut {
    /// Members of the best prefix.
    pub side: VertexSet,
    /// Conductance of that prefix cut.
    pub conductance: f64,
    /// Prefix length that achieved it.
    pub prefix_len: usize,
}

/// Sweeps prefixes of `order` and returns the minimum-conductance prefix
/// (prefixes with a zero-volume side are skipped). `O(m)` total.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if no valid prefix exists.
pub fn sweep_cut(g: &Graph, order: &[VertexId]) -> Result<SweepCut> {
    if order.is_empty() {
        return Err(GraphError::Empty {
            what: "sweep order",
        });
    }
    let total_vol = g.total_volume();
    let mut in_prefix = vec![false; g.n()];
    let mut vol = 0usize;
    let mut boundary = 0usize;
    let mut best: Option<(f64, usize)> = None;
    for (i, &v) in order.iter().enumerate() {
        in_prefix[v as usize] = true;
        vol += g.degree(v);
        // Each neighbor already inside removes one boundary edge; each
        // outside adds one.
        for &w in g.neighbors(v) {
            if in_prefix[w as usize] {
                boundary -= 1;
            } else {
                boundary += 1;
            }
        }
        let other = total_vol - vol;
        if vol == 0 || other == 0 {
            continue;
        }
        let phi = boundary as f64 / vol.min(other) as f64;
        if best.map_or(true, |(b, _)| phi < b) {
            best = Some((phi, i + 1));
        }
    }
    let (conductance, prefix_len) = best.ok_or(GraphError::Empty {
        what: "valid sweep prefix",
    })?;
    let side = VertexSet::from_iter(g.n(), order[..prefix_len].iter().copied());
    Ok(SweepCut {
        side,
        conductance,
        prefix_len,
    })
}

/// Estimated mixing time: the smallest `t` such that the lazy walk started
/// at each of the `starts` is within total-variation distance `tv_target`
/// of stationarity, capped at `max_t`.
///
/// With `starts` covering the extremes (e.g. min-degree vertices, diameter
/// endpoints) this is a practical stand-in for the worst-case τ_mix used by
/// the paper's Jerrum–Sinclair bound `Θ(1/Φ) ≤ τ_mix ≤ Θ(log n/Φ²)`.
///
/// Returns `None` if some start has not mixed within `max_t` steps.
pub fn mixing_time(g: &Graph, starts: &[VertexId], tv_target: f64, max_t: usize) -> Option<usize> {
    let mut worst = 0usize;
    for &s in starts {
        let mut p = WalkDistribution::dirac(g, s);
        let mut t = 0usize;
        while p.tv_from_stationary(g) > tv_target {
            if t >= max_t {
                return None;
            }
            p.step(g);
            t += 1;
        }
        worst = worst.max(t);
    }
    Some(worst)
}

/// Picks canonical extreme starting vertices for [`mixing_time`]: a
/// minimum-degree vertex and the two endpoints of a double-sweep
/// approximate diameter path.
pub fn extreme_starts(g: &Graph) -> Vec<VertexId> {
    if g.n() == 0 {
        return Vec::new();
    }
    let mut starts = Vec::new();
    let min_deg_v = (0..g.n() as VertexId)
        .min_by_key(|&v| g.degree(v))
        .unwrap_or(0);
    starts.push(min_deg_v);
    let d0 = crate::traversal::bfs_distances(g, 0);
    if let Some((far, _)) = d0
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != crate::traversal::UNREACHABLE)
        .max_by_key(|(_, &d)| d)
    {
        starts.push(far as VertexId);
    }
    starts.sort_unstable();
    starts.dedup();
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn exact_conductance_of_barbell() {
        let (g, left) = gen::barbell(4).unwrap();
        let phi = exact_conductance(&g).unwrap();
        let planted = g.conductance(&left).unwrap();
        assert!((phi - planted).abs() < 1e-12, "planted cut is optimal");
    }

    #[test]
    fn exact_conductance_of_complete_graph() {
        let g = gen::complete(6).unwrap();
        let phi = exact_conductance(&g).unwrap();
        // K6: best cut is 3/3 split: boundary 9, min vol 15 -> 0.6.
        assert!((phi - 0.6).abs() < 1e-12);
    }

    #[test]
    fn exact_conductance_guards() {
        assert!(exact_conductance(&gen::path(1).unwrap()).is_err());
        let big = gen::path(30).unwrap();
        assert!(matches!(
            exact_conductance(&big),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn lambda2_small_on_clique_large_on_barbell() {
        let clique = gen::complete(16).unwrap();
        let gap_clique = lazy_walk_lambda2(&clique, 200).unwrap();
        let (bar, _) = gen::barbell(8).unwrap();
        let gap_bar = lazy_walk_lambda2(&bar, 400).unwrap();
        assert!(
            gap_clique.lambda2 < gap_bar.lambda2,
            "clique should mix faster: {} vs {}",
            gap_clique.lambda2,
            gap_bar.lambda2
        );
        assert!(gap_bar.lambda2 > 0.9, "barbell has tiny gap");
    }

    #[test]
    fn cheeger_lower_bound_is_valid() {
        for g in [
            gen::complete(10).unwrap(),
            gen::cycle(12).unwrap(),
            gen::barbell(5).unwrap().0,
            gen::hypercube(4).unwrap(),
        ] {
            let gap = lazy_walk_lambda2(&g, 600).unwrap();
            let lower = cheeger_lower_bound(&gap);
            let exact = exact_conductance(&g).unwrap();
            assert!(
                lower <= exact + 1e-6,
                "cheeger bound {lower} exceeds exact {exact}"
            );
        }
    }

    #[test]
    fn zero_degree_vertices_collapse_the_lambda2_reading() {
        // PINNED ARTIFACT, not a guarantee (DESIGN.md §15.3). Isolated
        // vertices carry no volume and sit on neither side of any cut, so
        // they cannot change Φ — yet they keep their start mass under the
        // walk, `project_out_stationary` charges that mass to the
        // positive-degree entries as a π component, and renormalising
        // grows it every sweep until the reading is λ₂ ≈ 1. Changing this
        // moves `tau_mix` and the exact round metrics, so it waits for a
        // re-pin; until then nothing may rely on the reading when a part
        // has zero-degree members (the churn ladder does not).
        let clique = gen::complete(10).unwrap();
        let padded = Graph::from_edges(13, clique.edges()).unwrap();
        assert_eq!(
            exact_conductance(&padded).unwrap(),
            exact_conductance(&clique).unwrap(),
            "three isolated vertices leave every cut's conductance alone"
        );
        let clean = cheeger_lower_bound(&lazy_walk_lambda2(&clique, 300).unwrap());
        let leaky = cheeger_lower_bound(&lazy_walk_lambda2(&padded, 300).unwrap());
        assert!(clean > 0.4, "K10 reads a healthy gap: {clean}");
        assert!(leaky < 1e-6, "the padded reading collapses: {leaky}");
    }

    #[test]
    fn sweep_cut_finds_barbell_bottleneck() {
        let (g, left) = gen::barbell(6).unwrap();
        // Order vertices with the left clique first — the sweep should find
        // the planted cut exactly.
        let mut order: Vec<VertexId> = left.iter().collect();
        order.extend(left.complement().iter());
        let sc = sweep_cut(&g, &order).unwrap();
        assert_eq!(sc.prefix_len, 6);
        let planted = g.conductance(&left).unwrap();
        assert!((sc.conductance - planted).abs() < 1e-12);
    }

    #[test]
    fn sweep_cut_skips_trivial_sides() {
        let g = gen::path(4).unwrap();
        let order: Vec<VertexId> = (0..4).collect();
        let sc = sweep_cut(&g, &order).unwrap();
        assert!(sc.prefix_len < 4, "full prefix has a zero-volume side");
        assert!(sweep_cut(&g, &[]).is_err());
    }

    #[test]
    fn mixing_time_orders_families_correctly() {
        let expander = gen::random_regular(64, 8, 1).unwrap();
        let (barbell, _) = gen::barbell(16).unwrap();
        let t_exp = mixing_time(&expander, &extreme_starts(&expander), 0.25, 10_000).unwrap();
        let t_bar = mixing_time(&barbell, &extreme_starts(&barbell), 0.25, 100_000).unwrap();
        assert!(
            t_exp * 5 < t_bar,
            "expander mixes much faster: {t_exp} vs {t_bar}"
        );
    }

    #[test]
    fn mixing_time_respects_cap() {
        let (barbell, _) = gen::barbell(12).unwrap();
        assert_eq!(mixing_time(&barbell, &[0], 0.01, 3), None);
    }

    #[test]
    fn extreme_starts_nonempty_and_valid() {
        let g = gen::grid(5, 5).unwrap();
        let starts = extreme_starts(&g);
        assert!(!starts.is_empty());
        assert!(starts.iter().all(|&v| (v as usize) < g.n()));
    }

    #[test]
    fn jerrum_sinclair_sandwich_on_cycle() {
        // Θ(1/Φ) ≤ τ_mix ≤ Θ(log n / Φ²): check the *shape* on C_n where
        // Φ = Θ(1/n) and τ_mix = Θ(n²).
        let g = gen::cycle(32).unwrap();
        let phi = 2.0 / (g.total_volume() as f64 / 2.0); // boundary 2 / vol n
        let t = mixing_time(&g, &extreme_starts(&g), 0.25, 100_000).unwrap() as f64;
        assert!(t >= 0.05 / phi, "mixing faster than conductance allows");
        let n = g.n() as f64;
        assert!(
            t <= 20.0 * n.ln() / (phi * phi),
            "mixing slower than the JS upper bound shape"
        );
    }
}
