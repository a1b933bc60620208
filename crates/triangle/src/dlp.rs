//! Closed-form DLP triple-ownership accounting (DESIGN.md §11).
//!
//! The pipeline charges the Dolev–Lenzen–Peled redistribution step as
//! follows: the (global) vertex set is hashed into `g = ⌈|Vᵢ|^{1/3}⌉`
//! groups, every cluster-incident edge lands in the bucket of its
//! endpoint-group pair, the `T = C(g+2, 3)` group triples are assigned to
//! cluster members in degree-proportional consecutive lexicographic
//! ranges, and each owner receives the (up to) three *distinct* pair
//! buckets of each of its triples (a degenerate triple's repeated pair is
//! delivered once). The seed implementation *enumerated* all `T` triples
//! and walked each referenced bucket — `O(C(g+2,3) · avg bucket)` work
//! that dominated the measured cluster phase. This module computes the
//! identical quantities in closed form:
//!
//! * **Rank.** The lexicographic position of a sorted triple
//!   `(t₁ ≤ t₂ ≤ t₃)` is
//!   `rank = Σ_{x<t₁} (g-x)(g-x+1)/2 + Σ_{t₁≤y<t₂} (g-y) + (t₃-t₂)`,
//!   evaluated in `O(1)` from two prefix-sum tables.
//! * **Per-pair references.** The triples referencing pair `{a, b}` are
//!   exactly `{sort(a, b, x) : x ∈ [0, g)}` — `g` *distinct* triples
//!   (two different `x` give different multisets). Their ranks are
//!   strictly increasing in `x`, so the triples falling in an owner's
//!   range form a contiguous `x`-run found by one boundary walk.
//! * **Ownership boundaries.** Owner ranges are the running prefix sums
//!   of the per-member shares `⌈deg·T/Vol⌉` (min 1), truncated at `T`,
//!   with the last member absorbing any remainder — exactly the
//!   flush-on-budget walk of the enumerating loop.
//!
//! Total accounting work is `O(g² + Σ|bucket| + |Vᵢ|)` (and `g³ = O(|Vᵢ|)`
//! by the choice of `g`) instead of `O(T · avg bucket)`. The enumerating
//! reference is retained here verbatim ([`DlpInstance::enumerated_batches`])
//! so the equivalence suite can pin the closed form's aggregate loads to
//! its row and column sums, and so a regression back to enumeration is
//! measurable (both paths count their operations).

use graph::{Graph, VertexId, VertexSet};

/// One (holder, owner) delivery of the enumerating reference: `words`
/// `O(log n)`-bit edge words from `src` to `dst`, in cluster-local ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeBatch {
    /// Member holding the bucket entries.
    pub src: VertexId,
    /// Triple owner that must receive them.
    pub dst: VertexId,
    /// Number of words in the delivery.
    pub words: u64,
}

/// Aggregate per-vertex word loads of one cluster's DLP redistribution,
/// plus the operation count that produced them.
///
/// Vertex ids are **cluster-local member indices** (positions in the
/// sorted member list), matching the induced subgraph the routing
/// hierarchy is built on.
#[derive(Debug, Clone)]
pub struct AggregateLoads {
    /// `(holder, words)`: each holder sends its incident bucket entries
    /// once per referencing triple.
    pub holders: Vec<(VertexId, u64)>,
    /// `(owner, words)`: each owner receives the referenced buckets of
    /// its triple range.
    pub owners: Vec<(VertexId, u64)>,
    /// Operations the closed-form accounting actually performed.
    pub ops: u64,
    /// The `O(g² + Σ|bucket| + |Vᵢ|)` budget those operations must stay
    /// under — recorded next to `ops` so a regression to triple
    /// enumeration trips the ledger guard.
    pub ops_budget: u64,
}

/// One cluster's DLP instance: the group hash, the pair buckets' source
/// edges and the degree-proportional owner geometry.
pub struct DlpInstance<'a> {
    graph: &'a Graph,
    part: &'a VertexSet,
    members: &'a [VertexId],
    groups: usize,
    salt: u64,
    /// `cum_block[x] = Σ_{y<x} (g-y)(g-y+1)/2`: rank of the first triple
    /// with minimum `x`.
    cum_block: Vec<u64>,
    /// `cum_line[y] = Σ_{y'<y} (g-y')`: within-block offsets.
    cum_line: Vec<u64>,
    /// Owner boundaries: member `i` owns ranks `[bounds[i], bounds[i+1])`
    /// (members past `bounds.len() - 1` own nothing).
    bounds: Vec<u64>,
}

impl<'a> DlpInstance<'a> {
    /// Builds the instance for one cluster.
    ///
    /// `graph` is the level graph supplying adjacency and degrees,
    /// `part` the cluster's vertex set and `members` its sorted vertex
    /// list (`part.iter().collect()`), `salt` the level's group-hash
    /// salt. `members` must be non-empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use graph::VertexSet;
    /// use triangle::dlp::DlpInstance;
    ///
    /// let g = graph::gen::gnp(30, 0.3, 7).unwrap();
    /// let part = VertexSet::from_iter(g.n(), 0..30u32);
    /// let members: Vec<u32> = part.iter().collect();
    /// let inst = DlpInstance::new(&g, &part, &members, 42);
    /// assert_eq!(inst.groups(), 4); // ⌈30^{1/3}⌉
    /// assert_eq!(inst.triple_total(), 20); // C(4+2, 3)
    /// ```
    pub fn new(graph: &'a Graph, part: &'a VertexSet, members: &'a [VertexId], salt: u64) -> Self {
        assert!(!members.is_empty(), "DLP instance over an empty cluster");
        let groups = (members.len() as f64).powf(1.0 / 3.0).ceil().max(1.0) as usize;
        let g = groups as u64;
        let mut cum_block = Vec::with_capacity(groups + 1);
        let mut cum_line = Vec::with_capacity(groups + 1);
        let (mut cb, mut cl) = (0u64, 0u64);
        for x in 0..=g {
            cum_block.push(cb);
            cum_line.push(cl);
            if x < g {
                let s = g - x;
                cb += s * (s + 1) / 2;
                cl += s;
            }
        }
        let triple_total = cum_block[groups]; // C(g+2, 3)

        // Ownership boundaries: the flush-on-budget walk in closed form.
        let total_deg: u64 = members
            .iter()
            .map(|&v| graph.degree(v) as u64)
            .sum::<u64>()
            .max(1);
        let mut bounds = vec![0u64];
        for (i, &v) in members.iter().enumerate() {
            let start = *bounds.last().expect("bounds starts non-empty");
            if start >= triple_total {
                break;
            }
            let share = (graph.degree(v) as u64 * triple_total)
                .div_ceil(total_deg)
                .max(1);
            let end = if i + 1 == members.len() {
                triple_total // the last member absorbs the tail
            } else {
                (start + share).min(triple_total)
            };
            bounds.push(end);
        }

        DlpInstance {
            graph,
            part,
            members,
            groups,
            salt,
            cum_block,
            cum_line,
            bounds,
        }
    }

    /// The group count `g = ⌈|Vᵢ|^{1/3}⌉`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// `T = C(g+2, 3)`, the number of group triples.
    pub fn triple_total(&self) -> u64 {
        self.cum_block[self.groups]
    }

    #[inline]
    fn group_of(&self, v: VertexId) -> u32 {
        ((v as u64).wrapping_mul(0x9E3779B1).wrapping_add(self.salt) % self.groups as u64) as u32
    }

    #[inline]
    fn pair_index(&self, x: u32, y: u32) -> usize {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        lo as usize * self.groups + hi as usize
    }

    /// Lexicographic rank of the sorted triple `(t1 ≤ t2 ≤ t3)`.
    #[inline]
    fn rank(&self, t1: u32, t2: u32, t3: u32) -> u64 {
        self.cum_block[t1 as usize]
            + (self.cum_line[t2 as usize] - self.cum_line[t1 as usize])
            + (t3 - t2) as u64
    }

    /// Whether the level-graph edge `(u, w)` out of member `u` is
    /// charged to `u`'s bucket: every incident edge is charged at
    /// exactly one cluster endpoint (the lower one for intra edges).
    #[inline]
    fn holds_edge(&self, u: VertexId, w: VertexId) -> bool {
        w > u || !self.part.contains(w)
    }

    /// Visits the owner references of pair `(a ≤ b)`:
    /// `emit(owner_index, triples)` for every owner whose range contains
    /// at least one of the `g` referencing triples, owners ascending.
    /// Returns the number of loop operations performed.
    fn pair_owner_refs(&self, a: u32, b: u32, mut emit: impl FnMut(usize, u64)) -> u64 {
        let mut ops = 0u64;
        let mut owner = usize::MAX;
        let mut acc = 0u64;
        for x in 0..self.groups as u32 {
            ops += 1;
            // sort(a, b, x): a ≤ b already.
            let (t1, t2, t3) = if x <= a {
                (x, a, b)
            } else if x <= b {
                (a, x, b)
            } else {
                (a, b, x)
            };
            let r = self.rank(t1, t2, t3);
            // Ranks increase with x, so the owner pointer only advances,
            // possibly past many owners at once (skewed degrees give long
            // runs of one-triple ranges): it jumps by binary search
            // instead of walking them.
            let o = if owner == usize::MAX {
                self.bounds.partition_point(|&bound| bound <= r) - 1
            } else if self.bounds[owner + 1] <= r {
                ops += 1;
                owner + self.bounds[owner + 1..].partition_point(|&bound| bound <= r)
            } else {
                owner
            };
            if o != owner {
                if owner != usize::MAX {
                    emit(owner, acc);
                }
                owner = o;
                acc = 0;
            }
            acc += 1;
        }
        if owner != usize::MAX {
            emit(owner, acc);
        }
        ops
    }

    /// Closed-form aggregate loads: per-holder and per-owner word totals
    /// of the full batch list, without materializing it.
    ///
    /// `pair_raw` and `holder_inc` are caller scratch (cleared and
    /// resized here) so per-cluster jobs reuse their allocations.
    ///
    /// # Examples
    ///
    /// Every routed word has exactly one holder and one owner, and the
    /// closed form stays inside its own operation budget:
    ///
    /// ```
    /// use graph::VertexSet;
    /// use triangle::dlp::DlpInstance;
    ///
    /// let g = graph::gen::gnp(30, 0.3, 7).unwrap();
    /// let part = VertexSet::from_iter(g.n(), 0..30u32);
    /// let members: Vec<u32> = part.iter().collect();
    /// let inst = DlpInstance::new(&g, &part, &members, 42);
    /// let (mut pair_raw, mut holder_inc) = (Vec::new(), Vec::new());
    /// let loads = inst.aggregate_loads(&mut pair_raw, &mut holder_inc);
    /// let sent: u64 = loads.holders.iter().map(|&(_, w)| w).sum();
    /// let recv: u64 = loads.owners.iter().map(|&(_, w)| w).sum();
    /// assert_eq!(sent, recv);
    /// assert!(loads.ops <= loads.ops_budget);
    /// ```
    pub fn aggregate_loads(
        &self,
        pair_raw: &mut Vec<u64>,
        holder_inc: &mut Vec<u64>,
    ) -> AggregateLoads {
        let g = self.groups;
        let mut ops = 0u64;

        // Bucket pass: raw (with-multiplicity) bucket sizes plus each
        // holder's incident-entry count.
        pair_raw.clear();
        pair_raw.resize(g * g, 0);
        holder_inc.clear();
        holder_inc.resize(self.members.len(), 0);
        for (lu, &u) in self.members.iter().enumerate() {
            let gu = self.group_of(u);
            for &w in self.graph.neighbors(u) {
                ops += 1;
                if self.holds_edge(u, w) {
                    pair_raw[self.pair_index(gu, self.group_of(w))] += 1;
                    holder_inc[lu] += 1;
                }
            }
        }

        // Reference pass: each non-empty pair bucket contributes `raw`
        // words per referencing triple to the triple's owner.
        let owners_cnt = self.bounds.len() - 1;
        let mut recv = vec![0u64; owners_cnt];
        for a in 0..g as u32 {
            for b in a..g as u32 {
                ops += 1;
                let raw = pair_raw[self.pair_index(a, b)];
                if raw == 0 {
                    continue;
                }
                ops += self.pair_owner_refs(a, b, |o, triples| recv[o] += triples * raw);
            }
        }

        // Every pair bucket is referenced by exactly `g` triples, so
        // holder loads need no per-pair accounting at all.
        let holders: Vec<(VertexId, u64)> = holder_inc
            .iter()
            .enumerate()
            .filter(|&(_, &inc)| inc > 0)
            .map(|(lu, &inc)| (lu as VertexId, inc * g as u64))
            .collect();
        let owners: Vec<(VertexId, u64)> = recv
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(o, &w)| (o as VertexId, w))
            .collect();
        ops += (self.members.len() + owners_cnt) as u64;
        debug_assert_eq!(
            holders.iter().map(|&(_, w)| w).sum::<u64>(),
            owners.iter().map(|&(_, w)| w).sum::<u64>(),
            "every routed word has one holder and one owner"
        );

        // The closed form's complexity contract. `vol` bounds the bucket
        // pass (every member adjacency entry is scanned once), `g²`/`g³`
        // the pair passes (`g³ = O(|Vᵢ|)` by `g = ⌈|Vᵢ|^{1/3}⌉`), `|Vᵢ|`
        // the boundary walk and load emission.
        let vol: u64 = self
            .members
            .iter()
            .map(|&v| self.graph.neighbors(v).len() as u64)
            .sum();
        let gg = g as u64;
        let ops_budget = 2 * (vol + 2 * self.members.len() as u64 + gg * gg + gg * gg * gg + 64);
        debug_assert!(ops <= ops_budget, "closed form exceeded its own budget");

        AggregateLoads {
            holders,
            owners,
            ops,
            ops_budget,
        }
    }

    /// The retained pre-closed-form **enumerating reference** for the
    /// DLP redistribution: walks all `C(g+2, 3)` triples, dedups each
    /// triple's repeated pairs, and accumulates per-(holder, owner)
    /// words through the flush-on-budget owner walk. Returns the batch
    /// list (canonically sorted by `(src, dst)`, local ids) and the
    /// operation count the walk performed — the quantity the closed
    /// form's `ops_budget` guard is calibrated against. Its per-holder
    /// and per-owner sums are exactly [`DlpInstance::aggregate_loads`].
    pub fn enumerated_batches(&self) -> (Vec<EdgeBatch>, u64) {
        let g = self.groups;
        let mut ops = 0u64;
        // Raw (per-edge) holder buckets, exactly as the seed built them.
        let mut pair_holders: Vec<Vec<VertexId>> = vec![Vec::new(); g * g];
        for (lu, &u) in self.members.iter().enumerate() {
            let gu = self.group_of(u);
            for &w in self.graph.neighbors(u) {
                ops += 1;
                if self.holds_edge(u, w) {
                    pair_holders[self.pair_index(gu, self.group_of(w))].push(lu as VertexId);
                }
            }
        }

        let mut counts = vec![0u64; self.members.len()];
        let mut touched: Vec<VertexId> = Vec::new();
        let mut batches: Vec<EdgeBatch> = Vec::new();
        let mut flush = |owner: u32, counts: &mut Vec<u64>, touched: &mut Vec<VertexId>| {
            for &h in touched.iter() {
                batches.push(EdgeBatch {
                    src: h,
                    dst: owner,
                    words: counts[h as usize],
                });
                counts[h as usize] = 0;
            }
            touched.clear();
        };
        let mut owner = 0u32;
        for a in 0..g as u32 {
            for b in a..g as u32 {
                for c in b..g as u32 {
                    ops += 1;
                    let mut pairs = [
                        self.pair_index(a, b),
                        self.pair_index(b, c),
                        self.pair_index(a, c),
                    ];
                    pairs.sort_unstable();
                    for (i, &pair) in pairs.iter().enumerate() {
                        if i > 0 && pairs[i - 1] == pair {
                            continue; // degenerate triple: deliver once
                        }
                        for &h in &pair_holders[pair] {
                            ops += 1;
                            if counts[h as usize] == 0 {
                                touched.push(h);
                            }
                            counts[h as usize] += 1;
                        }
                    }
                    let r = self.rank(a, b, c);
                    if (owner as usize) + 1 < self.bounds.len() - 1
                        && r + 1 >= self.bounds[owner as usize + 1]
                    {
                        flush(owner, &mut counts, &mut touched);
                        owner += 1;
                    }
                }
            }
        }
        flush(owner, &mut counts, &mut touched);
        batches.sort_unstable_by_key(|b| (b.src, b.dst));
        (batches, ops)
    }
}
