//! Criterion: wall-clock of the paper's suite run, sequential vs parallel.
//!
//! This measures the real (host) time of `Harness::suite_run`, the one
//! suite loop every figure renders from, at `--jobs 1` versus multiple
//! workers, so the speedup of the parallel driver is a recorded number
//! rather than folklore.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use morpheus_bench::Harness;
use std::hint::black_box;

fn bench_suite(c: &mut Criterion) {
    let mut g = c.benchmark_group("suite_wallclock");
    g.throughput(Throughput::Elements(
        morpheus_workloads::suite().len() as u64
    ));
    for jobs in [1usize, 4] {
        let h = Harness {
            scale: 4096,
            jobs,
            ..Harness::default()
        };
        g.bench_function(format!("suite_run_jobs_{jobs}"), |b| {
            b.iter(|| {
                black_box(&h)
                    .suite_run()
                    .expect("fault-free run")
                    .apps
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_suite);
criterion_main!(benches);
