//! Criterion: real wall-clock time of the object codecs.
//!
//! The objects of the ten suite benchmarks, each parsed from a ≈1 MB
//! seed-42 input and narrowed once outside the timed loop, are encoded as
//! the record stream a StorageApp pushes off the drive (`encode_rows`,
//! `decode`) and as the packing a replay store keeps (`pack`, `unpack`),
//! reported as bytes of record stream per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use morpheus_format::{parse_buffer, ParsedColumns};
use morpheus_workloads::suite;
use std::hint::black_box;

fn bench_object_codec(c: &mut Criterion) {
    let objects: Vec<ParsedColumns> = suite()
        .iter()
        .map(|bench| {
            let text = bench.generate(1 << 20, 42);
            let (mut o, _) = parse_buffer(&text, &bench.schema()).expect("generated input parses");
            o.canonicalize();
            o
        })
        .collect();
    let streams: Vec<Vec<u8>> = objects
        .iter()
        .map(|o| {
            let mut s = Vec::new();
            o.encode_rows(0, o.records, &mut s);
            s
        })
        .collect();
    let packings: Vec<Vec<u8>> = objects.iter().map(ParsedColumns::pack).collect();
    let mut g = c.benchmark_group("object_codec");
    g.throughput(Throughput::Bytes(
        streams.iter().map(|s| s.len() as u64).sum(),
    ));
    g.bench_function("encode_rows", |b| {
        b.iter(|| {
            for o in black_box(&objects) {
                let mut s = Vec::new();
                o.encode_rows(0, o.records, &mut s);
                black_box(s);
            }
        })
    });
    g.bench_function("pack", |b| {
        b.iter(|| {
            for o in black_box(&objects) {
                black_box(o.pack());
            }
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            for (o, s) in objects.iter().zip(black_box(&streams)) {
                black_box(ParsedColumns::decode(o.schema.clone(), s).expect("a stream"));
            }
        })
    });
    g.bench_function("unpack", |b| {
        b.iter(|| {
            for (o, p) in objects.iter().zip(black_box(&packings)) {
                black_box(ParsedColumns::unpack(o.schema.clone(), p).expect("a packing"));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_object_codec);
criterion_main!(benches);
