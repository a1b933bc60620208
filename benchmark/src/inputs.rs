//! Benchmark-owned inputs: the three workloads, their graphs, query
//! streams and churn streams, and the fingerprint guard.
//!
//! Everything here is a function of `(workload, seed)` alone. Graphs come
//! straight from `graph::gen::*` with the parameters written below;
//! streams come from the [`SplitMix64`] in this file — not from
//! `bench_suite`, not from the `rand` shim — so a later consolidation of
//! those cannot move the benchmark's inputs without tripping
//! [`Workload::pinned_fingerprint`]. The program under test only ever sees
//! the edge list written to disk, the queries and the ops.
//!
//! A workload's **dataset** — its graph and the ops of its rebuild cycles —
//! is a constant ([`DATASET_SEED`]); `--seed` seeds the **traffic**: the
//! query streams, the probe sweep and the apply-phase pairs. The README
//! gives the measurements behind that split: builds and rebuilds on these
//! graphs last 1 s or 25 s or 66 s depending on which random draws they
//! make, so a seeded dataset can be neither gated nor run inside the cap.

use crate::trace::Tracer;
use graph::{Graph, VertexId, VertexSet};
use std::collections::HashSet;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use triangle::service::{Emit, Query};
use triangle::EdgeOp;

/// The seed a run uses when `--seed` is absent; stream fingerprints are
/// pinned at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Seed of all three datasets: the graph generator's seed and the seed of
/// the rebuild cycles' ops.
pub const DATASET_SEED: u64 = 1;

/// `run_seconds` of `BENCHMARK.json`: the stream lengths in [`Spec`] are
/// sized for this budget and scale linearly with `--seconds`.
pub const NOMINAL_SECONDS: u64 = 30;

/// Queries of the probe sweep (engine-vs-engine identity checks).
pub const PROBE_QUERIES: usize = 256;

/// Ops per ledger batch in the apply phase.
pub const APPLY_BATCH_OPS: usize = 256;

/// Serving epochs (fresh server + fresh connection each). The pipelined
/// stream has one segment per epoch; the metric is the median segment rate.
pub const WIRE_EPOCHS: usize = 7;

/// Slices per segment. A slice is one `run_pipelined` call; in the
/// under-churn pass slice `i` being acknowledged releases churn cycle `i`.
pub const SLICES_PER_SEGMENT: usize = 7;

/// SplitMix64 (Steele, Lea & Flood 2014): the benchmark's only source of
/// randomness outside the graph generators.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for sub-purpose `tag` of `seed`.
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut parent = SplitMix64::new(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(parent.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the 2⁻⁶⁴-scale bias is far below
    /// anything a stream of 10⁶ draws can show). `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over little-endian words: the stream hashes of the fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Powerlaw1m,
    Ring100k,
    Dense2k,
}

#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    PowerLaw {
        n: usize,
        gamma: f64,
        avg_degree: f64,
    },
    RingOfExpanders {
        count: usize,
        size: usize,
        degree: usize,
    },
    PlantedPartition {
        blocks: usize,
        block_size: usize,
        p_in: f64,
        p_out: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMix {
    /// 40 % vertex-enumerate, 20 % vertex-count, 30 % edge-count, 10 %
    /// top-8, uniform vertices and uniform edges.
    PointMix,
    /// 70 % vertex-enumerate, 20 % edge-enumerate, 10 % top-8.
    EnumerateHeavy,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Churn {
    /// Each rebuild cycle absorbs `ops` ops: half deletes of uniform live
    /// edges, half inserts of uniform absent pairs, shuffled. Odd cycles
    /// apply a fresh batch to the base graph, even cycles apply the
    /// previous batch's inverse, so the graph never drifts more than one
    /// batch from the generated one and every cycle does comparable work.
    Uniform { ops: usize },
    /// Cycle `b` deletes `fraction` of planted block `b`'s intra-block
    /// edges (one cycle per block; the graph only ever loses edges).
    BlockShred { fraction: f64 },
}

/// Sizes of one workload. Repetition counts are fixed; stream lengths are
/// for [`NOMINAL_SECONDS`] and scale with `--seconds` ([`Spec::scaled`]).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub graph: GraphSpec,
    /// Seed of the dataset (the graph and the ops of its rebuild cycles) — a
    /// constant of the workload, not the run's `--seed`.
    pub graph_seed: u64,
    pub mix: QueryMix,
    pub churn: Churn,
    /// K: rebuild→swap cycles on the quiet server.
    pub rebuild_cycles: usize,
    /// R for `cold_start_s`.
    pub cold_reps: usize,
    /// R for `enumerate_s`.
    pub enumerate_reps: usize,
    /// Window-1 round trips behind `wire_p50_us`.
    pub latency_round_trips: usize,
    /// Queries per slice of the pipelined phase.
    pub qps_slice_queries: usize,
    /// (batch, inverse batch) pairs of the apply phase.
    pub apply_pairs: usize,
    /// Measured seconds the restart loop aims for (min 20, max 300 cycles).
    pub restart_seconds: f64,
    /// Rebuild cycles the traced run splits into pieces.
    pub traced_cycles: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Powerlaw1m, Workload::Ring100k, Workload::Dense2k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Powerlaw1m => "powerlaw-1m",
            Workload::Ring100k => "ring-100k",
            Workload::Dense2k => "dense-2k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Full-size spec, or the `--smoke` shrink (≈ 20k / 10k-edge and
    /// 512-vertex inputs, one repetition, short streams).
    pub fn spec(self, smoke: bool) -> Spec {
        let full = match self {
            Workload::Powerlaw1m => Spec {
                graph: GraphSpec::PowerLaw {
                    n: 200_000,
                    gamma: 2.5,
                    avg_degree: 10.0,
                },
                graph_seed: DATASET_SEED,
                mix: QueryMix::PointMix,
                churn: Churn::Uniform { ops: 2_000 },
                rebuild_cycles: 2,
                cold_reps: 2,
                enumerate_reps: 2,
                latency_round_trips: 5_000,
                qps_slice_queries: 3_000,
                apply_pairs: 2_000,
                restart_seconds: 1.5,
                traced_cycles: 1,
            },
            Workload::Ring100k => Spec {
                graph: GraphSpec::RingOfExpanders {
                    count: 48,
                    size: 256,
                    degree: 16,
                },
                graph_seed: DATASET_SEED,
                mix: QueryMix::PointMix,
                churn: Churn::BlockShred { fraction: 0.6 },
                rebuild_cycles: 48,
                cold_reps: 2,
                enumerate_reps: 2,
                latency_round_trips: 5_000,
                qps_slice_queries: 5_000,
                apply_pairs: 4_000,
                restart_seconds: 1.5,
                traced_cycles: 48,
            },
            Workload::Dense2k => Spec {
                graph: GraphSpec::PlantedPartition {
                    blocks: 8,
                    block_size: 256,
                    p_in: 0.5,
                    p_out: 0.0015,
                },
                graph_seed: DATASET_SEED,
                mix: QueryMix::EnumerateHeavy,
                churn: Churn::Uniform { ops: 20_000 },
                rebuild_cycles: 16,
                cold_reps: 3,
                enumerate_reps: 3,
                latency_round_trips: 5_000,
                qps_slice_queries: 200,
                apply_pairs: 700,
                restart_seconds: 1.5,
                traced_cycles: 4,
            },
        };
        if !smoke {
            return full;
        }
        let graph = match self {
            Workload::Powerlaw1m => GraphSpec::PowerLaw {
                n: 4_000,
                gamma: 2.5,
                avg_degree: 10.0,
            },
            Workload::Ring100k => GraphSpec::RingOfExpanders {
                count: 6,
                size: 208,
                degree: 16,
            },
            Workload::Dense2k => GraphSpec::PlantedPartition {
                blocks: 4,
                block_size: 128,
                p_in: 0.5,
                p_out: 0.003,
            },
        };
        Spec {
            graph,
            churn: match full.churn {
                Churn::Uniform { ops } => Churn::Uniform { ops: ops / 10 },
                shred => shred,
            },
            rebuild_cycles: if self == Workload::Ring100k { 6 } else { 2 },
            cold_reps: 1,
            enumerate_reps: 1,
            latency_round_trips: 500,
            qps_slice_queries: full.qps_slice_queries / 10,
            apply_pairs: 40,
            restart_seconds: 0.2,
            traced_cycles: 2,
            ..full
        }
    }

    /// The inputs' fingerprint at full size: `(n, m, triangles, post-churn
    /// triangles)` of the dataset, which no seed changes, and `(query-stream
    /// hash, op-stream hash)` of the streams at [`DEFAULT_SEED`] and
    /// [`NOMINAL_SECONDS`]. A run whose inputs differ stops before timing
    /// anything.
    pub fn pinned_fingerprint(self) -> Fingerprint {
        match self {
            Workload::Powerlaw1m => Fingerprint {
                n: 200_000,
                m: 998_282,
                triangles: 312_291,
                post_churn_triangles: 312_291,
                query_hash: 0xefa6_aa01_6d3a_e81f,
                op_hash: 0xf038_df52_24bc_2111,
            },
            Workload::Ring100k => Fingerprint {
                n: 12_288,
                m: 98_352,
                triangles: 27_308,
                post_churn_triangles: 1_746,
                query_hash: 0x82fc_7816_f0c7_5702,
                op_hash: 0x420c_4e98_fbf6_c803,
            },
            Workload::Dense2k => Fingerprint {
                n: 2_048,
                m: 133_539,
                triangles: 2_777_360,
                post_churn_triangles: 2_777_360,
                query_hash: 0xc67c_045c_9803_62fa,
                op_hash: 0xf495_ef0e_cbd2_8881,
            },
        }
    }
}

impl Spec {
    /// Scales the stream lengths to a `--seconds` budget. Rule 2 floors:
    /// percentiles never rest on fewer than 5,000 round trips, and no
    /// stream shrinks below a third of its nominal length.
    pub fn scaled(mut self, seconds: u64, smoke: bool) -> Spec {
        if smoke || seconds == NOMINAL_SECONDS {
            return self;
        }
        let scale = |x: usize| {
            ((x as u64 * seconds / NOMINAL_SECONDS) as usize)
                .max(x / 3)
                .max(1)
        };
        self.latency_round_trips = scale(self.latency_round_trips).max(5_000);
        self.qps_slice_queries = scale(self.qps_slice_queries);
        self.apply_pairs = scale(self.apply_pairs);
        self.restart_seconds = (self.restart_seconds * seconds as f64 / NOMINAL_SECONDS as f64)
            .max(self.restart_seconds / 3.0);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub n: usize,
    pub m: usize,
    pub triangles: u64,
    pub post_churn_triangles: u64,
    pub query_hash: u64,
    pub op_hash: u64,
}

impl Fingerprint {
    /// The part no `--seed` changes: the graph and its churn schedule.
    pub fn dataset(&self) -> (usize, usize, u64, u64) {
        (self.n, self.m, self.triangles, self.post_churn_triangles)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n {} m {} triangles {} post-churn triangles {} queries {:#018x} ops {:#018x}",
            self.n,
            self.m,
            self.triangles,
            self.post_churn_triangles,
            self.query_hash,
            self.op_hash
        )
    }
}

/// Everything one run feeds the program.
#[derive(Debug)]
pub struct Inputs {
    /// The generated graph. The program is handed [`Inputs::edge_list`];
    /// this copy is what the benchmark checks the converted file against.
    pub graph: Graph,
    pub edge_list: PathBuf,
    /// Window-1 stream.
    pub latency_queries: Vec<Query>,
    /// Pipelined stream: [`WIRE_EPOCHS`] × [`SLICES_PER_SEGMENT`] slices.
    pub qps_queries: Vec<Query>,
    /// Short mixed sweep for engine-vs-engine identity checks.
    pub probe_queries: Vec<Query>,
    /// The apply phase: (batch, inverse batch) pairs over the base graph.
    pub apply_pairs: Vec<(Vec<EdgeOp>, Vec<EdgeOp>)>,
    /// Ops absorbed before each of the K rebuilds, in order.
    pub rebuild_cycles: Vec<Vec<EdgeOp>>,
    pub query_hash: u64,
    pub op_hash: u64,
}

pub fn generate_graph(spec: &Spec) -> (Graph, Vec<VertexSet>) {
    let seed = spec.graph_seed;
    match spec.graph {
        GraphSpec::PowerLaw {
            n,
            gamma,
            avg_degree,
        } => (
            graph::gen::power_law_fast(n, gamma, avg_degree, seed).expect("valid power-law spec"),
            Vec::new(),
        ),
        GraphSpec::RingOfExpanders {
            count,
            size,
            degree,
        } => graph::gen::ring_of_expanders(count, size, degree, seed).expect("valid ring spec"),
        GraphSpec::PlantedPartition {
            blocks,
            block_size,
            p_in,
            p_out,
        } => {
            let pp =
                graph::gen::planted_partition_fast(&vec![block_size; blocks], p_in, p_out, seed)
                    .expect("valid planted-partition spec");
            (pp.graph, pp.blocks)
        }
    }
}

/// Writes `g` as the plain-text edge list `convert_edge_list` ingests. The
/// `n <count>` header pins the id space, so isolated vertices survive and
/// ids in queries mean the same vertex before and after conversion.
pub fn write_edge_list(g: &Graph, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    writeln!(w, "# lifecycle_bench input")?;
    writeln!(w, "n {}", g.n())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

fn query_stream(
    mix: QueryMix,
    count: usize,
    n: usize,
    edges: &[(VertexId, VertexId)],
    rng: &mut SplitMix64,
) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let roll = rng.below(100);
            let v = rng.below(n) as VertexId;
            let (eu, ev) = edges[rng.below(edges.len())];
            match mix {
                QueryMix::PointMix => match roll {
                    0..=39 => Query::Vertex {
                        v,
                        emit: Emit::Enumerate,
                    },
                    40..=59 => Query::Vertex {
                        v,
                        emit: Emit::Count,
                    },
                    60..=89 => Query::Edge {
                        u: eu,
                        v: ev,
                        emit: Emit::Count,
                    },
                    _ => Query::TopKBySupport { v, k: 8 },
                },
                QueryMix::EnumerateHeavy => match roll {
                    0..=69 => Query::Vertex {
                        v,
                        emit: Emit::Enumerate,
                    },
                    70..=89 => Query::Edge {
                        u: eu,
                        v: ev,
                        emit: Emit::Enumerate,
                    },
                    _ => Query::TopKBySupport { v, k: 8 },
                },
            }
        })
        .collect()
}

pub fn hash_queries(h: &mut Fnv, queries: &[Query]) {
    for q in queries {
        match *q {
            Query::Vertex { v, emit } => {
                h.word(1 + (emit == Emit::Enumerate) as u64);
                h.word(v as u64);
            }
            Query::Edge { u, v, emit } => {
                h.word(3 + (emit == Emit::Enumerate) as u64);
                h.word((u as u64) << 32 | v as u64);
            }
            Query::TopKBySupport { v, k } => {
                h.word(5);
                h.word((k as u64) << 32 | v as u64);
            }
        }
    }
}

pub fn hash_ops(h: &mut Fnv, ops: &[EdgeOp]) {
    for op in ops {
        let (tag, u, v) = match *op {
            EdgeOp::Insert(u, v) => (1u64, u, v),
            EdgeOp::Delete(u, v) => (2u64, u, v),
        };
        h.word(tag << 62 | (u as u64) << 31 | v as u64);
    }
}

/// `ops` churn ops every one of which applies to `g`: `ops / 2` deletes of
/// distinct uniform edges and `ops - ops / 2` inserts of distinct uniform
/// absent pairs, shuffled. Any order is valid because no two ops touch the
/// same pair.
pub fn uniform_batch(
    g: &Graph,
    edges: &[(VertexId, VertexId)],
    ops: usize,
    rng: &mut SplitMix64,
) -> Vec<EdgeOp> {
    let deletes = (ops / 2).min(edges.len());
    let mut batch = Vec::with_capacity(ops);
    let mut picked = HashSet::with_capacity(deletes);
    while picked.len() < deletes {
        let i = rng.below(edges.len());
        if picked.insert(i) {
            batch.push(EdgeOp::Delete(edges[i].0, edges[i].1));
        }
    }
    let mut fresh = HashSet::with_capacity(ops - deletes);
    while fresh.len() < ops - deletes {
        let a = rng.below(g.n()) as VertexId;
        let b = rng.below(g.n()) as VertexId;
        let (u, v) = (a.min(b), a.max(b));
        if u != v && !g.has_edge(u, v) && fresh.insert((u, v)) {
            batch.push(EdgeOp::Insert(u, v));
        }
    }
    rng.shuffle(&mut batch);
    batch
}

/// The batch that undoes `batch`: reversed, each op inverted.
pub fn inverse_batch(batch: &[EdgeOp]) -> Vec<EdgeOp> {
    batch
        .iter()
        .rev()
        .map(|op| match *op {
            EdgeOp::Insert(u, v) => EdgeOp::Delete(u, v),
            EdgeOp::Delete(u, v) => EdgeOp::Insert(u, v),
        })
        .collect()
}

fn rebuild_cycles(
    spec: &Spec,
    g: &Graph,
    blocks: &[VertexSet],
    edges: &[(VertexId, VertexId)],
    rng: &mut SplitMix64,
) -> Vec<Vec<EdgeOp>> {
    match spec.churn {
        Churn::Uniform { ops } => {
            let mut cycles: Vec<Vec<EdgeOp>> = Vec::with_capacity(spec.rebuild_cycles);
            for c in 0..spec.rebuild_cycles {
                let next = if c % 2 == 0 {
                    uniform_batch(g, edges, ops, rng)
                } else {
                    inverse_batch(&cycles[c - 1])
                };
                cycles.push(next);
            }
            cycles
        }
        Churn::BlockShred { fraction } => (0..spec.rebuild_cycles)
            .map(|c| {
                let block = &blocks[c % blocks.len()];
                let mut inside: Vec<(VertexId, VertexId)> = edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| block.contains(u) && block.contains(v))
                    .collect();
                rng.shuffle(&mut inside);
                inside.truncate((inside.len() as f64 * fraction) as usize);
                inside
                    .into_iter()
                    .map(|(u, v)| EdgeOp::Delete(u, v))
                    .collect()
            })
            .collect(),
    }
}

/// Generates one run's inputs and writes the edge list under `dir`. Spans
/// (`graph.gen`, `bench.write_edge_list`, `bench.streams`) land in `tracer`.
pub fn generate(spec: &Spec, seed: u64, dir: &Path, tracer: &mut Tracer) -> Inputs {
    let (graph, blocks) = tracer.span("graph.gen", |_| generate_graph(spec));
    let edge_list = dir.join("input.edges.txt");
    tracer.span("bench.write_edge_list", |_| {
        write_edge_list(&graph, &edge_list).expect("write the edge list inside the work directory")
    });
    let streams = tracer.span("bench.streams", |_| {
        let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
        assert!(!edges.is_empty(), "workload graphs have edges");
        let n = graph.n();
        let stream = |count: usize, tag: u64| {
            query_stream(spec.mix, count, n, &edges, &mut SplitMix64::fork(seed, tag))
        };
        let latency_queries = stream(spec.latency_round_trips, 1);
        let qps_queries = stream(spec.qps_slice_queries * SLICES_PER_SEGMENT * WIRE_EPOCHS, 2);
        let probe_queries = stream(PROBE_QUERIES, 3);
        let mut apply_rng = SplitMix64::fork(seed, 4);
        let apply_pairs: Vec<(Vec<EdgeOp>, Vec<EdgeOp>)> = (0..spec.apply_pairs)
            .map(|_| {
                let batch = uniform_batch(&graph, &edges, APPLY_BATCH_OPS, &mut apply_rng);
                let inverse = inverse_batch(&batch);
                (batch, inverse)
            })
            .collect();
        let rebuild_cycles = rebuild_cycles(
            spec,
            &graph,
            &blocks,
            &edges,
            &mut SplitMix64::fork(spec.graph_seed, 5),
        );
        (
            latency_queries,
            qps_queries,
            probe_queries,
            apply_pairs,
            rebuild_cycles,
        )
    });
    let (latency_queries, qps_queries, probe_queries, apply_pairs, rebuild_cycles) = streams;

    let mut qh = Fnv::new();
    hash_queries(&mut qh, &latency_queries);
    hash_queries(&mut qh, &qps_queries);
    hash_queries(&mut qh, &probe_queries);
    let mut oh = Fnv::new();
    for (batch, inverse) in &apply_pairs {
        hash_ops(&mut oh, batch);
        hash_ops(&mut oh, inverse);
    }
    for cycle in &rebuild_cycles {
        hash_ops(&mut oh, cycle);
    }
    Inputs {
        graph,
        edge_list,
        latency_queries,
        qps_queries,
        probe_queries,
        apply_pairs,
        rebuild_cycles,
        query_hash: qh.finish(),
        op_hash: oh.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander::{ClusterAssignment, SchedulerPolicy};
    use std::sync::Arc;
    use triangle::service::QueryEngine;
    use triangle::{count_triangles, DeltaLedger, PipelineParams};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lifecycle-bench-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn splitmix64_matches_the_reference_vectors() {
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
        let mut rng = SplitMix64::new(9);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert_eq!(SplitMix64::new(3).below(1), 0);
    }

    #[test]
    fn equal_seeds_give_equal_streams_and_unequal_seeds_differ() {
        let dir = scratch_dir("streams");
        let spec = Workload::Ring100k.spec(true);
        let mut off = Tracer::new(false);
        let a = generate(&spec, 7, &dir, &mut off);
        let b = generate(&spec, 7, &dir, &mut off);
        let c = generate(&spec, 8, &dir, &mut off);
        assert_eq!(a.latency_queries, b.latency_queries);
        assert_eq!(a.qps_queries, b.qps_queries);
        assert_eq!(a.apply_pairs, b.apply_pairs);
        assert_eq!(a.rebuild_cycles, b.rebuild_cycles);
        assert_eq!(
            a.rebuild_cycles, c.rebuild_cycles,
            "the churn schedule is the dataset's"
        );
        assert_eq!((a.query_hash, a.op_hash), (b.query_hash, b.op_hash));
        assert_ne!(a.query_hash, c.query_hash);
        assert_ne!(a.op_hash, c.op_hash);
        assert_ne!(a.latency_queries, c.latency_queries);
        // The dataset is the workload's, not the seed's.
        assert_eq!(a.graph, c.graph);
        assert_eq!(
            a.qps_queries.len(),
            spec.qps_slice_queries * SLICES_PER_SEGMENT * WIRE_EPOCHS
        );
        // The edge list on disk is the graph: header, then one line per edge.
        let text = std::fs::read_to_string(&a.edge_list).unwrap();
        assert!(text.contains(&format!("\nn {}\n", a.graph.n())));
        assert_eq!(text.lines().count(), a.graph.m() + 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn block_shred_deletes_the_stated_share_of_one_block_per_cycle() {
        let dir = scratch_dir("shred");
        let spec = Workload::Ring100k.spec(true);
        let inputs = generate(&spec, 3, &dir, &mut Tracer::new(false));
        let (_, blocks) = generate_graph(&spec);
        assert_eq!(inputs.rebuild_cycles.len(), blocks.len());
        for (cycle, block) in inputs.rebuild_cycles.iter().zip(&blocks) {
            let inside = inputs
                .graph
                .edges()
                .filter(|&(u, v)| block.contains(u) && block.contains(v))
                .count();
            assert_eq!(cycle.len(), (inside as f64 * 0.6) as usize);
            let mut seen = HashSet::new();
            for op in cycle {
                let EdgeOp::Delete(u, v) = *op else {
                    panic!("a shred cycle only deletes")
                };
                assert!(block.contains(u) && block.contains(v) && inputs.graph.has_edge(u, v));
                assert!(seen.insert((u, v)), "an edge is deleted once");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// (batch, inverse batch) pairs on a ≈ 2k-edge graph: every op applies,
    /// and each pair returns the ledger — count and graph — to the base.
    #[test]
    fn every_op_applies_and_each_pair_returns_the_ledger_to_the_base() {
        let g = graph::gen::power_law_fast(400, 2.5, 10.0, 3).unwrap();
        assert!((1_500..2_500).contains(&g.m()), "m = {}", g.m());
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let whole = ClusterAssignment::from_parts(
            &g,
            &[VertexSet::full(g.n())],
            0.1,
            &SchedulerPolicy::sequential(),
        );
        let engine = Arc::new(QueryEngine::from_assignment(
            &g,
            whole,
            &PipelineParams::default(),
        ));
        let mut ledger = DeltaLedger::new(&g, engine);
        let base = count_triangles(&g);
        assert_eq!(ledger.triangles(), base);
        let mut rng = SplitMix64::fork(5, 4);
        let mut moved = false;
        for _ in 0..20 {
            let batch = uniform_batch(&g, &edges, APPLY_BATCH_OPS, &mut rng);
            assert_eq!(batch.len(), APPLY_BATCH_OPS);
            let deletes = batch
                .iter()
                .filter(|op| matches!(op, EdgeOp::Delete(..)))
                .count();
            assert_eq!(deletes, APPLY_BATCH_OPS / 2);
            let forward = ledger.apply(&batch);
            assert_eq!((forward.applied, forward.ignored), (APPLY_BATCH_OPS, 0));
            moved |= ledger.triangles() != base;
            let back = ledger.apply(&inverse_batch(&batch));
            assert_eq!((back.applied, back.ignored), (APPLY_BATCH_OPS, 0));
            assert_eq!(ledger.triangles(), base);
        }
        assert!(
            moved,
            "the batches never changed the count: the test checks nothing"
        );
        assert_eq!(ledger.working().to_graph(), g);
    }

    #[test]
    fn scaling_keeps_the_rule_two_floors() {
        let spec = Workload::Powerlaw1m.spec(false);
        let short = spec.scaled(1, false);
        assert_eq!(short.latency_round_trips, 5_000);
        assert_eq!(short.qps_slice_queries, spec.qps_slice_queries / 3);
        assert_eq!(short.cold_reps, spec.cold_reps);
        let long = spec.scaled(60, false);
        assert_eq!(long.qps_slice_queries, 2 * spec.qps_slice_queries);
        assert_eq!(
            spec.scaled(NOMINAL_SECONDS, false).apply_pairs,
            spec.apply_pairs
        );
    }
}
