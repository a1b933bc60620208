//! Measured-decomposition scale benches: the incremental `WorkingGraph`
//! overlay + sparse `VertexSet` path that lets Theorem 1 run at the
//! large-graph tier (this was quadratic-ish beyond ~10³ edges before the
//! overlay; the `exp_scale --measured` sweep exercises 10⁵–10⁶ edges,
//! these benches gate the 10⁴-edge shape in CI).
//!
//! Three layers are timed separately so a regression points at its
//! culprit: the bare decomposition, the `ClusterAssignment` view it
//! feeds the pipeline, and the full measured pipeline (decompose →
//! route → engine enumeration → recursion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use expander::{ExpanderDecomposition, SchedulerPolicy};
use triangle::pipeline::{enumerate_via_decomposition, PipelineParams};

/// The power-law instance every bench in this file decomposes
/// (the family with no planted clusters — the measured path is its only
/// honest pipeline route).
fn workload() -> graph::Graph {
    bench_suite::scale_power_law(10_000, 7)
}

fn bench_measured_decomposition(c: &mut Criterion) {
    let g = workload();
    let mut group = c.benchmark_group("decomp_scale");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("decompose_power_law", "10k"), |b| {
        b.iter(|| {
            ExpanderDecomposition::builder()
                .epsilon(0.3)
                .seed(7)
                .build()
                .run(&g)
                .expect("non-empty graph")
        })
    });
    let decomp = ExpanderDecomposition::builder()
        .epsilon(0.3)
        .seed(7)
        .build()
        .run(&g)
        .expect("non-empty graph");
    group.bench_function(BenchmarkId::new("cluster_assignment", "10k"), |b| {
        b.iter(|| decomp.cluster_assignment_with(&g, &SchedulerPolicy::parallel()))
    });
    group.finish();
}

fn bench_measured_pipeline(c: &mut Criterion) {
    let g = workload();
    let mut group = c.benchmark_group("decomp_scale");
    group.sample_size(10);
    for (label, exec) in [
        ("seq", congest::ExecMode::Sequential),
        ("par", congest::ExecMode::Parallel),
    ] {
        let params = PipelineParams {
            exec,
            recursion_exec: exec,
            max_depth: 2,
            ..Default::default()
        };
        group.bench_function(BenchmarkId::new("pipeline_power_law_10k", label), |b| {
            b.iter(|| enumerate_via_decomposition(&g, &params))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_measured_decomposition,
    bench_measured_pipeline
);
criterion_main!(benches);
