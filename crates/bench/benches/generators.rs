//! Criterion: real wall-clock time of the ten suite input generators.
//!
//! Each generator formats a ≈1 MB seed-42 input of its benchmark, the text
//! every paper run stages before any simulated work, reported as bytes of
//! text per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use morpheus_workloads::suite;
use std::hint::black_box;

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    for bench in suite() {
        let bytes = bench.generate(1 << 20, 42).len();
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_function(bench.name, |b| {
            b.iter(|| bench.generate(black_box(1 << 20), black_box(42)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_generators);
criterion_main!(benches);
