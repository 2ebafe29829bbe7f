//! Property tests: the flat-array `kmeans` and the sort-based `wordcount`
//! against the implementations they replaced, kept here as oracles. The
//! results must be equal, digest and summary, since the suite's digests
//! are compared across modes and pinned by the benchmark.

use morpheus_format::{Column, FieldKind, ParsedColumns, Schema};
use morpheus_workloads::{kmeans, scan, Digest, KernelResult};
use proptest::prelude::*;
use std::collections::HashMap;

/// Point-at-a-time Lloyd's algorithm, converting each coordinate on use.
fn oracle_kmeans(objects: &ParsedColumns, k: usize, iters: u32) -> KernelResult {
    let dims = objects.columns.len() - 1;
    let n = objects.records as usize;
    let coords: Vec<&[i64]> = objects.columns[1..]
        .iter()
        .map(|c| c.as_ints().expect("point coordinates are integers"))
        .collect();
    let k = k.min(n.max(1));
    if n == 0 {
        return KernelResult {
            digest: Digest::new().value(),
            summary: "kmeans: no points".into(),
        };
    }
    let mut centroids = vec![0.0f64; k * dims];
    for c in 0..k {
        for (d, col) in coords.iter().enumerate() {
            centroids[c * dims + d] = col[c] as f64;
        }
    }
    let mut assign = vec![0usize; n];
    for _ in 0..iters {
        for (i, a) in assign.iter_mut().enumerate() {
            let mut best = f64::INFINITY;
            for c in 0..k {
                let mut dist = 0.0;
                for (d, col) in coords.iter().enumerate() {
                    let delta = col[i] as f64 - centroids[c * dims + d];
                    dist += delta * delta;
                }
                if dist < best {
                    best = dist;
                    *a = c;
                }
            }
        }
        let mut sums = vec![0.0f64; k * dims];
        let mut counts = vec![0u64; k];
        for (i, a) in assign.iter().enumerate() {
            counts[*a] += 1;
            for (d, col) in coords.iter().enumerate() {
                sums[*a * dims + d] += col[i] as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            for d in 0..dims {
                centroids[c * dims + d] = sums[c * dims + d] / counts[c] as f64;
            }
        }
    }
    let mut digest = Digest::new();
    let mut inertia = 0.0f64;
    for (i, a) in assign.iter().enumerate() {
        for (d, col) in coords.iter().enumerate() {
            let delta = col[i] as f64 - centroids[*a * dims + d];
            inertia += delta * delta;
        }
    }
    for c in &centroids {
        digest.mix_f64(*c);
    }
    digest.mix_f64(inertia);
    KernelResult {
        digest: digest.value(),
        summary: format!("kmeans: {n} points, k={k}, inertia {inertia:.1}"),
    }
}

/// Word count through a hash map, digested over the sorted keys.
fn oracle_wordcount(objects: &ParsedColumns) -> KernelResult {
    let vals = objects.columns[0]
        .as_ints()
        .expect("wordcount input is an integer column");
    let mut counts: HashMap<i64, u64> = HashMap::new();
    for v in vals {
        *counts.entry(*v).or_insert(0) += 1;
    }
    let mut keys: Vec<&i64> = counts.keys().collect();
    keys.sort_unstable();
    let mut d = Digest::new();
    let mut top = (0i64, 0u64);
    for k in keys {
        let c = counts[k];
        d.mix_i64(*k);
        d.mix(c);
        if c > top.1 {
            top = (*k, c);
        }
    }
    KernelResult {
        digest: d.value(),
        summary: format!(
            "wordcount: {} tokens, {} distinct, mode {} x{}",
            vals.len(),
            counts.len(),
            top.0,
            top.1
        ),
    }
}

/// Integer columns under an id column, as the suite's point schemas have.
fn points(dims: usize, coords: &[Vec<i64>]) -> ParsedColumns {
    let fields = std::iter::once(FieldKind::U32)
        .chain(std::iter::repeat_n(FieldKind::I32, dims))
        .collect();
    let mut p = ParsedColumns::empty(Schema::new(fields));
    let n = coords.first().map_or(0, Vec::len);
    p.columns[0] = Column::Ints((0..n as i64).collect());
    for (col, c) in p.columns[1..].iter_mut().zip(coords) {
        *col = Column::Ints(c.clone());
    }
    p.records = n as u64;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Equal results for any point set: empty or not, one to four
    /// dimensions, k above the point count, several blocks of points, and
    /// narrow coordinate ranges that make duplicate points and distance
    /// ties common.
    #[test]
    fn kmeans_matches_the_point_at_a_time_oracle(
        n in 0usize..700,
        dims in 1usize..5,
        spread in prop_oneof![Just(3i64), Just(1000i64), Just(1i64 << 31)],
        k in 1usize..12,
        iters in 0u32..7,
        seed in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % (2 * spread as u64)) as i64 - spread
        };
        let coords: Vec<Vec<i64>> = (0..dims).map(|_| (0..n).map(|_| next()).collect()).collect();
        let p = points(dims, &coords);
        prop_assert_eq!(kmeans::kmeans(&p, k, iters), oracle_kmeans(&p, k, iters));
    }

    /// Equal results for any token column: empty, all one value, many
    /// repeats, or nearly all distinct; ties for the mode included.
    #[test]
    fn wordcount_matches_the_hash_map_oracle(
        vals in proptest::collection::vec(any::<i64>(), 0..600),
        modulus in prop_oneof![Just(1i64), Just(7i64), Just(500i64), Just(i64::MAX)],
    ) {
        let vals: Vec<i64> = vals.iter().map(|v| v % modulus).collect();
        let mut p = ParsedColumns::empty(Schema::new(vec![FieldKind::U32]));
        p.records = vals.len() as u64;
        p.columns[0] = Column::Ints(vals);
        prop_assert_eq!(scan::wordcount(&p), oracle_wordcount(&p));
    }
}
