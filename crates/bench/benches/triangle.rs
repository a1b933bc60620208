//! Criterion bench: wall-clock of the centralized and clique triangle
//! enumerators (the CONGEST pipeline has its own bench, `pipeline`).

use bench_suite::gnp_family;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use triangle::{clique_enumerate, enumerate_triangles};

fn bench_triangle(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangle");
    group.sample_size(10);
    for n in [32usize, 64] {
        let g = gnp_family(n, 0.5, 42 + n as u64);
        group.bench_with_input(BenchmarkId::new("centralized", n), &g, |b, g| {
            b.iter(|| enumerate_triangles(g))
        });
        group.bench_with_input(BenchmarkId::new("clique_dlp", n), &g, |b, g| {
            b.iter(|| clique_enumerate(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_triangle);
criterion_main!(benches);
