//! Vertex sets and cuts: `∂(S)`, conductance `Φ(S)`, balance `bal(S)`.

use crate::{Graph, GraphError, Result, VertexId};

/// Density threshold: a set keeps a dense `O(n)` membership mask only when
/// it holds at least `1/DENSE_DIVISOR` of its universe (and at least
/// [`DENSE_MIN_LEN`] members). Below that it answers `contains` by binary
/// search over the sorted member list, so `count` small clusters cost
/// `O(Σ |cluster|)` memory instead of `O(count·n)`.
const DENSE_DIVISOR: usize = 4;

/// Minimum member count before a mask is worth allocating at all.
const DENSE_MIN_LEN: usize = 64;

/// A subset of the vertices of an `n`-vertex graph with cheap membership
/// tests and ordered iteration.
///
/// Internally a sorted member list, plus a dense membership mask **only
/// above a density threshold**: sets holding at least a quarter of the
/// universe get the `O(1)`-lookup mask the sweep-cut inner loops want,
/// while the many small cluster sets the decomposition produces stay
/// sparse (`O(log |S|)` membership by binary search, `O(|S|)` memory).
/// The representation is an implementation detail: two sets with the same
/// universe and members compare equal regardless of density.
///
/// # Example
///
/// ```
/// use graph::VertexSet;
///
/// let s = VertexSet::from_iter(10, [3u32, 1, 7, 3]);
/// assert_eq!(s.len(), 3); // duplicates collapse
/// assert!(s.contains(7));
/// assert!(!s.contains(2));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 7]);
/// ```
#[derive(Clone)]
pub struct VertexSet {
    universe: usize,
    /// Sorted, deduplicated member list — the canonical representation.
    members: Vec<VertexId>,
    /// Dense membership mask, present only above the density threshold.
    mask: Option<Vec<bool>>,
}

/// Streams the intersection of two ascending id rows into `emit`, in
/// ascending order, and returns the number of comparison steps the
/// two-pointer merge took — at most `a.len() + b.len()`. The step count
/// is the word charge of every triangle-service answer and churn-ledger
/// delta, so it is part of the contract, not a diagnostic. This is the
/// workspace's one sorted-row intersection: [`VertexSet::intersection`],
/// the centralized enumerator, the query service and the churn ledger
/// all call it.
///
/// # Example
///
/// ```
/// let mut common = Vec::new();
/// let steps = graph::intersect_sorted(&[1, 3, 5], &[2, 3, 6], |v| common.push(v));
/// assert_eq!((common, steps), (vec![3], 4));
/// ```
#[inline]
pub fn intersect_sorted(a: &[VertexId], b: &[VertexId], mut emit: impl FnMut(VertexId)) -> u64 {
    let (mut i, mut j, mut steps) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        steps += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                emit(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    steps
}

/// Whether a set of `len` members over `universe` vertices should carry the
/// dense mask.
#[inline]
fn wants_mask(len: usize, universe: usize) -> bool {
    len >= DENSE_MIN_LEN && len.saturating_mul(DENSE_DIVISOR) >= universe
}

impl VertexSet {
    /// The empty subset of an `n`-vertex graph. Allocation-free — the
    /// decomposition's peeling phase creates huge numbers of empty and
    /// singleton sets.
    pub fn empty(n: usize) -> Self {
        VertexSet {
            universe: n,
            members: Vec::new(),
            mask: None,
        }
    }

    /// The full vertex set `{0, …, n-1}`.
    pub fn full(n: usize) -> Self {
        Self::from_sorted_members(n, (0..n as VertexId).collect())
    }

    /// Builds a set from an **already sorted and deduplicated** member
    /// list, choosing the representation by density. Internal constructor
    /// every public builder funnels through.
    fn from_sorted_members(n: usize, members: Vec<VertexId>) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
        debug_assert!(members.last().map_or(true, |&v| (v as usize) < n));
        let mask = if wants_mask(members.len(), n) {
            let mut m = vec![false; n];
            for &v in &members {
                m[v as usize] = true;
            }
            Some(m)
        } else {
            None
        };
        VertexSet {
            universe: n,
            members,
            mask,
        }
    }

    /// Builds a set from an iterator of vertex ids; duplicates collapse.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= n`.
    pub fn from_iter<I>(n: usize, iter: I) -> Self
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut members: Vec<VertexId> = Vec::new();
        for v in iter {
            assert!((v as usize) < n, "vertex {v} out of range for n = {n}");
            members.push(v);
        }
        members.sort_unstable();
        members.dedup();
        Self::from_sorted_members(n, members)
    }

    /// Builds a set from a membership predicate over `0..n`.
    pub fn from_fn<F>(n: usize, mut pred: F) -> Self
    where
        F: FnMut(VertexId) -> bool,
    {
        let members: Vec<VertexId> = (0..n as VertexId).filter(|&v| pred(v)).collect();
        Self::from_sorted_members(n, members)
    }

    /// Size of the universe `n` this set lives in.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test: `O(1)` when the set is dense enough to carry its
    /// mask, `O(log |S|)` binary search otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.mask {
            Some(mask) => mask[v as usize],
            None => {
                assert!(
                    (v as usize) < self.universe,
                    "vertex {v} outside universe {}",
                    self.universe
                );
                self.members.binary_search(&v).is_ok()
            }
        }
    }

    /// Whether this set carries the dense membership mask (diagnostic —
    /// the representation never changes observable behaviour).
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.mask.is_some()
    }

    /// Iterator over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.members.iter().copied()
    }

    /// Sorted member slice.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.members
    }

    /// The complement `V ∖ S` within the same universe.
    ///
    /// Derived by a single gap-walk over the sorted member list — the
    /// sparse representation never materializes a mask just to scan it
    /// (the old implementation re-tested all `n` vertices through
    /// `from_fn`).
    pub fn complement(&self) -> VertexSet {
        let n = self.universe;
        let mut out: Vec<VertexId> = Vec::with_capacity(n - self.members.len());
        let mut next = 0 as VertexId;
        for &v in &self.members {
            out.extend(next..v);
            next = v + 1;
        }
        out.extend(next..n as VertexId);
        Self::from_sorted_members(n, out)
    }

    /// Set union (universes must match). `O(|self| + |other|)`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &VertexSet) -> VertexSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let (a, b) = (&self.members, &other.members);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Self::from_sorted_members(self.universe, out)
    }

    /// Set intersection (universes must match). `O(|self| + |other|)`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &VertexSet) -> VertexSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let (a, b) = (&self.members, &other.members);
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        intersect_sorted(a, b, |v| out.push(v));
        Self::from_sorted_members(self.universe, out)
    }

    /// Set difference `self ∖ other` (universes must match).
    /// `O(|self| + |other|)`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference(&self, other: &VertexSet) -> VertexSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let (a, b) = (&self.members, &other.members);
        let mut out = Vec::with_capacity(a.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        Self::from_sorted_members(self.universe, out)
    }

    /// Adds a vertex; returns whether it was newly inserted. May promote
    /// the set to the dense representation when it crosses the density
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    pub fn insert(&mut self, v: VertexId) -> bool {
        assert!((v as usize) < self.universe);
        if self.contains(v) {
            return false;
        }
        let pos = self.members.partition_point(|&m| m < v);
        self.members.insert(pos, v);
        match &mut self.mask {
            Some(mask) => mask[v as usize] = true,
            None => {
                if wants_mask(self.members.len(), self.universe) {
                    let mut mask = vec![false; self.universe];
                    for &m in &self.members {
                        mask[m as usize] = true;
                    }
                    self.mask = Some(mask);
                }
            }
        }
        true
    }
}

impl PartialEq for VertexSet {
    /// Equality compares universe and membership only — the dense/sparse
    /// representation is invisible.
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.members == other.members
    }
}

impl Eq for VertexSet {}

impl std::fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VertexSet({}/{}; ", self.len(), self.universe())?;
        f.debug_set()
            .entries(self.members.iter().take(16))
            .finish()?;
        if self.len() > 16 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

/// A cut `(S, S̄)` together with its quality statistics, all computed against
/// a fixed graph at construction time.
///
/// # Example
///
/// ```
/// use graph::{Graph, VertexSet, Cut};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// let cut = Cut::new(&g, VertexSet::from_iter(4, [0u32, 1])).unwrap();
/// assert_eq!(cut.boundary(), 1);
/// assert!((cut.conductance() - 1.0 / 3.0).abs() < 1e-12);
/// assert!((cut.balance() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    side: VertexSet,
    boundary: usize,
    vol_side: usize,
    vol_total: usize,
}

impl Cut {
    /// Evaluates the cut `(s, V∖s)` on `g`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ZeroVolumeSide`] when either side has zero
    /// volume (conductance would be undefined).
    pub fn new(g: &Graph, s: VertexSet) -> Result<Self> {
        let vol_side = g.volume(&s);
        let vol_total = g.total_volume();
        if vol_side == 0 || vol_side == vol_total {
            return Err(GraphError::ZeroVolumeSide);
        }
        let boundary = g.boundary(&s);
        Ok(Cut {
            side: s,
            boundary,
            vol_side,
            vol_total,
        })
    }

    /// The side `S` of the cut this object stores.
    pub fn side(&self) -> &VertexSet {
        &self.side
    }

    /// Consumes the cut and returns its side.
    pub fn into_side(self) -> VertexSet {
        self.side
    }

    /// `|∂(S)|`.
    pub fn boundary(&self) -> usize {
        self.boundary
    }

    /// `Vol(S)`.
    pub fn volume(&self) -> usize {
        self.vol_side
    }

    /// `min{Vol(S), Vol(S̄)}`.
    pub fn small_side_volume(&self) -> usize {
        self.vol_side.min(self.vol_total - self.vol_side)
    }

    /// Conductance `Φ(S) = |∂(S)| / min{Vol(S), Vol(S̄)}`.
    pub fn conductance(&self) -> f64 {
        self.boundary as f64 / self.small_side_volume() as f64
    }

    /// Balance `bal(S) = min{Vol(S), Vol(S̄)} / Vol(V)`.
    pub fn balance(&self) -> f64 {
        self.small_side_volume() as f64 / self.vol_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_and_full() {
        let e = VertexSet::empty(5);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = VertexSet::full(5);
        assert_eq!(f.len(), 5);
        assert!(f.contains(4));
    }

    #[test]
    fn complement_roundtrip() {
        let s = VertexSet::from_iter(6, [0u32, 2, 4]);
        let c = s.complement();
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn set_algebra() {
        let a = VertexSet::from_iter(6, [0u32, 1, 2]);
        let b = VertexSet::from_iter(6, [2u32, 3]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn intersect_sorted_pins_output_and_step_count() {
        let run = |a: &[VertexId], b: &[VertexId]| {
            let mut out = Vec::new();
            let steps = intersect_sorted(a, b, |v| out.push(v));
            (out, steps)
        };
        assert_eq!(run(&[1, 3, 5], &[2, 3, 6]), (vec![3], 4));
        assert_eq!(run(&[], &[1, 2, 3]), (vec![], 0));
        assert_eq!(run(&[1, 2, 3], &[]), (vec![], 0));
        let row: Vec<VertexId> = (10..17).collect();
        assert_eq!(run(&row, &row), (row.clone(), row.len() as u64));
        // Disjoint ranges stop as soon as one side is exhausted.
        assert_eq!(run(&[1, 2], &[7, 8, 9]), (vec![], 2));
    }

    proptest! {
        #[test]
        fn intersect_sorted_matches_btreeset(
            xs in proptest::collection::vec(0u32..96, 0..48),
            ys in proptest::collection::vec(0u32..96, 0..48),
        ) {
            let sa: BTreeSet<VertexId> = xs.into_iter().collect();
            let sb: BTreeSet<VertexId> = ys.into_iter().collect();
            let a: Vec<VertexId> = sa.iter().copied().collect();
            let b: Vec<VertexId> = sb.iter().copied().collect();
            let want: Vec<VertexId> = sa.intersection(&sb).copied().collect();
            let mut out = Vec::new();
            let steps = intersect_sorted(&a, &b, |v| out.push(v));
            prop_assert_eq!(&out, &want);
            // Every step advances a cursor; a match is one step.
            prop_assert!(steps <= (a.len() + b.len()) as u64);
            prop_assert!(steps >= want.len() as u64);
            // The charge is symmetric in its arguments.
            let mut flipped = Vec::new();
            prop_assert_eq!(intersect_sorted(&b, &a, |v| flipped.push(v)), steps);
            prop_assert_eq!(flipped, want);
        }
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut s = VertexSet::empty(8);
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert_eq!(s.as_slice(), &[1, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_iter_panics_out_of_range() {
        let _ = VertexSet::from_iter(3, [7u32]);
    }

    #[test]
    fn sparse_and_dense_representations_agree() {
        // Same membership through different constructors and densities
        // must compare equal and answer identically.
        let n = 400;
        let sparse = VertexSet::from_iter(n, [3u32, 77, 200]);
        assert!(!sparse.is_dense());
        let dense_universe = VertexSet::from_fn(n, |v| v % 2 == 0);
        assert!(dense_universe.is_dense());
        for v in 0..n as VertexId {
            assert_eq!(sparse.contains(v), matches!(v, 3 | 77 | 200));
            assert_eq!(dense_universe.contains(v), v % 2 == 0);
        }
        // Equality ignores representation: grow a sparse set past the
        // threshold by inserts and compare against from_fn.
        let mut grown = VertexSet::empty(n);
        for v in (0..n as VertexId).filter(|v| v % 2 == 0) {
            grown.insert(v);
        }
        assert!(grown.is_dense(), "insert must promote past the threshold");
        assert_eq!(grown, dense_universe);
    }

    #[test]
    fn complement_of_sparse_set_is_dense_and_exact() {
        let n = 300;
        let s = VertexSet::from_iter(n, [0u32, 150, 299]);
        let c = s.complement();
        assert_eq!(c.len(), n - 3);
        assert!(c.is_dense());
        for v in 0..n as VertexId {
            assert_eq!(c.contains(v), !s.contains(v));
        }
        assert_eq!(c.complement(), s);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn sparse_contains_panics_outside_universe() {
        let s = VertexSet::from_iter(3, [1u32]);
        let _ = s.contains(9);
    }

    #[test]
    fn cut_statistics_on_barbell_bridge() {
        // K3 - K3 joined by one bridge.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap();
        let cut = Cut::new(&g, VertexSet::from_iter(6, [0u32, 1, 2])).unwrap();
        assert_eq!(cut.boundary(), 1);
        assert_eq!(cut.volume(), 7);
        assert_eq!(cut.small_side_volume(), 7);
        assert!((cut.conductance() - 1.0 / 7.0).abs() < 1e-12);
        assert!((cut.balance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cut_rejects_trivial_sides() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(Cut::new(&g, VertexSet::empty(3)).is_err());
        assert!(Cut::new(&g, VertexSet::full(3)).is_err());
    }

    #[test]
    fn cut_side_accessors() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let cut = Cut::new(&g, VertexSet::from_iter(3, [0u32])).unwrap();
        assert!(cut.side().contains(0));
        let side = cut.into_side();
        assert_eq!(side.len(), 1);
    }

    #[test]
    fn debug_output_truncates() {
        let s = VertexSet::full(40);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("40/40"));
        assert!(dbg.contains('…'));
    }
}
