//! Criterion: real wall-clock time of the ten suite kernels.
//!
//! Each kernel consumes the objects of a ≈1 MB seed-42 input of its
//! benchmark, parsed and narrowed once outside the timed loop, so this
//! times the kernels alone (the functional layer every execution mode runs
//! after deserialization), not the simulated platform.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use morpheus_format::parse_buffer;
use morpheus_workloads::suite;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    for bench in suite() {
        let text = bench.generate(1 << 20, 42);
        let (mut objects, _) =
            parse_buffer(&text, &bench.schema()).expect("generated input parses");
        objects.canonicalize();
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_function(bench.name, |b| b.iter(|| bench.kernel(black_box(&objects))));
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
