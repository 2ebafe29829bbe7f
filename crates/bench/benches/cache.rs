//! Criterion: object-cache hot-path cost (lookup and admission).
//!
//! These are the operations every served request pays once a cache is
//! installed — a hit is one `lookup`, a miss is one `lookup` plus one
//! `admit`. They run in host wall-clock (zero *simulated* time), so this
//! bench is the guard that keeps the policy engine's real cost negligible
//! next to the simulation work it saves.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use morpheus::{CacheConfig, CachePolicy, ObjectCache};
use morpheus_format::{Column, FieldKind, ObjectDigest, ParsedColumns, Schema};
use morpheus_simcore::SimTime;
use std::hint::black_box;

/// The cache costs no simulated time, so every call happens at zero.
const T0: SimTime = SimTime::ZERO;

/// The digest of a parsed object of `n` records (two i64 columns,
/// `16 * n` bytes): what the cache holds per entry.
fn obj(n: usize, salt: i64) -> ObjectDigest {
    let schema = Schema::new(vec![FieldKind::I64, FieldKind::I64]);
    ParsedColumns {
        schema,
        columns: vec![
            Column::Ints((0..n as i64).map(|i| i * 3 + salt).collect()),
            Column::Ints((0..n as i64).map(|i| i * 7 - salt).collect()),
        ],
        records: n as u64,
    }
    .digest()
}

fn warmed_cache(policy: CachePolicy, files: usize) -> ObjectCache {
    let mut cache = ObjectCache::new(CacheConfig {
        dram_bytes: 256 << 20,
        host_bytes: 0,
        policy,
        seed: 42,
    });
    for i in 0..files {
        let file = format!("f{i}.txt");
        // Two misses so the TinyLFU doorkeeper admits on the second.
        let _ = cache.lookup("app", &file, 7, T0);
        cache.admit("app", &file, 7, obj(512, i as i64), T0);
        let _ = cache.lookup("app", &file, 7, T0);
        cache.admit("app", &file, 7, obj(512, i as i64), T0);
    }
    cache
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");

    for policy in [CachePolicy::TinyLfu, CachePolicy::Lru] {
        let mut cache = warmed_cache(policy, 64);
        g.throughput(Throughput::Elements(64));
        g.bench_function(format!("lookup_hit_{policy}"), |b| {
            b.iter(|| {
                let mut served = 0u64;
                for i in 0..64 {
                    let file = format!("f{i}.txt");
                    if cache.lookup(black_box("app"), &file, 7, T0).is_some() {
                        served += 1;
                    }
                }
                served
            })
        });
    }

    let mut cold = warmed_cache(CachePolicy::TinyLfu, 64);
    g.throughput(Throughput::Elements(64));
    g.bench_function("lookup_miss", |b| {
        b.iter(|| {
            let mut missed = 0u64;
            for i in 0..64 {
                let file = format!("absent{i}.txt");
                if cold.lookup(black_box("app"), &file, 7, T0).is_none() {
                    missed += 1;
                }
            }
            missed
        })
    });

    // Admission churn against a full DRAM tier: every admit runs the
    // frequency gate, victim selection, and eviction bookkeeping.
    let payload = obj(512, 99);
    g.throughput(Throughput::Bytes(payload.bytes));
    g.bench_function("admit_under_pressure", |b| {
        let mut cache = ObjectCache::new(CacheConfig {
            dram_bytes: 64 << 10, // a handful of 8 KB objects
            host_bytes: 64 << 10,
            policy: CachePolicy::Lru,
            seed: 42,
        });
        let mut i = 0u64;
        b.iter(|| {
            let file = format!("churn{}.txt", i % 257);
            i += 1;
            let _ = cache.lookup("app", &file, 7, T0);
            cache.admit(black_box("app"), &file, 7, payload, T0);
            cache.stats().admitted
        })
    });

    g.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
