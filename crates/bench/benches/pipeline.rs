//! Criterion bench for the headline algorithm: the end-to-end
//! expander-routed triangle enumeration pipeline. This is the workload
//! the CI bench-regression gate tracks (`BENCH_baseline.json`).

use bench_suite::gnp_family;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use triangle::pipeline::{enumerate_via_decomposition, PipelineParams};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for n in [32usize, 48] {
        let g = gnp_family(n, 0.3, 42 + n as u64);
        group.bench_with_input(BenchmarkId::new("gnp", n), &g, |b, g| {
            b.iter(|| enumerate_via_decomposition(g, &PipelineParams::default()))
        });
    }
    let (ring, _) = graph::gen::ring_of_cliques(6, 8).unwrap();
    group.bench_with_input(BenchmarkId::new("ring_of_cliques", 48), &ring, |b, g| {
        b.iter(|| enumerate_via_decomposition(g, &PipelineParams::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
