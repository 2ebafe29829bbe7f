//! Property tests: the suite kernels against the implementations they
//! replaced, kept here as oracles: the branchy point-at-a-time `kmeans`,
//! and `sort` and `wordcount` over `sort_unstable`. The results must be
//! equal, digest and summary, since the suite's digests are compared
//! across modes and pinned by the benchmark.

use morpheus_format::{Column, FieldKind, ParsedColumns, Schema};
use morpheus_workloads::{kmeans, scan, sort, Digest, KernelResult};
use proptest::prelude::*;

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

/// Sort by `sort_unstable`, digesting order statistics and a strided
/// sample.
fn oracle_sort(objects: &ParsedColumns, label: &str) -> KernelResult {
    let mut vals = objects.columns[0].as_ints().unwrap().to_vec();
    vals.sort_unstable();
    let mut d = Digest::new();
    d.mix(vals.len() as u64);
    let stride = (vals.len() / 1000).max(1);
    for v in vals.iter().step_by(stride) {
        d.mix_i64(*v);
    }
    if let (Some(min), Some(max)) = (vals.first(), vals.last()) {
        d.mix_i64(*min);
        d.mix_i64(*max);
        KernelResult {
            digest: d.value(),
            summary: format!("{label}: {} keys, min {min}, max {max}", vals.len()),
        }
    } else {
        KernelResult {
            digest: d.value(),
            summary: format!("{label}: empty input"),
        }
    }
}

/// Word count over the runs of a `sort_unstable` copy.
fn oracle_wordcount(objects: &ParsedColumns) -> KernelResult {
    let vals = objects.columns[0].as_ints().unwrap();
    let mut sorted = vals.to_vec();
    sorted.sort_unstable();
    let mut d = Digest::new();
    let mut top = (0i64, 0u64);
    let mut distinct = 0usize;
    for run in sorted.chunk_by(|a, b| a == b) {
        let (k, c) = (run[0], run.len() as u64);
        d.mix_i64(k);
        d.mix(c);
        if c > top.1 {
            top = (k, c);
        }
        distinct += 1;
    }
    KernelResult {
        digest: d.value(),
        summary: format!(
            "wordcount: {} tokens, {} distinct, mode {} x{}",
            vals.len(),
            distinct,
            top.0,
            top.1
        ),
    }
}

/// One integer column of `kind`.
fn column(kind: FieldKind, vals: Vec<i64>) -> ParsedColumns {
    let mut p = ParsedColumns::empty(Schema::new(vec![kind]));
    p.records = vals.len() as u64;
    p.columns[0] = Column::Ints(vals);
    p
}

/// Both sort kernels and word count against their oracles.
fn check_keys(p: &ParsedColumns) -> Result<(), TestCaseError> {
    prop_assert_eq!(sort::sort(p, "sort"), oracle_sort(p, "sort"));
    prop_assert_eq!(scan::wordcount(p), oracle_wordcount(p));
    Ok(())
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

    /// Equal results for any key column: empty, all one value, many
    /// repeats, or nearly all distinct; ties for the mode included; spans
    /// from zero to the full `i64` range, which takes every radix pass.
    #[test]
    fn sort_and_wordcount_match_the_sort_unstable_oracles(
        vals in proptest::collection::vec(any::<i64>(), 0..600),
        modulus in prop_oneof![
            Just(1i64),
            Just(7i64),
            Just(500i64),
            Just(1i64 << 20),
            Just(1i64 << 33),
            Just(i64::MAX),
        ],
        offset in prop_oneof![Just(0i64), Just(-1_000_000i64), Just(i64::MIN / 2)],
    ) {
        let (modulus, offset): (i64, i64) = (modulus, offset);
        let vals: Vec<i64> = vals.iter().map(|v| (v % modulus).wrapping_add(offset)).collect();
        check_keys(&column(FieldKind::I64, vals))?;
    }
}

#[test]
fn sort_and_wordcount_match_the_oracles_on_edge_columns() {
    let span = |lo: i64, n: i64| (0..n).map(|i| lo + (i * 7919) % n).collect::<Vec<_>>();
    let columns = vec![
        vec![],
        vec![42],
        vec![-3; 1000],
        vec![i64::MIN, i64::MAX],
        vec![i64::MAX, 0, i64::MIN, -1, 1, i64::MIN, i64::MAX],
        span(-500, 5000),
        // Spans of 2^32 and just past it: 33-bit offsets, wider than any
        // U32 column's.
        vec![0, 1 << 32, 5, 1 << 31],
        vec![-(1 << 32), 1, 0, -(1 << 32)],
        (0..3000)
            .map(|i: i64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64))
            .collect(),
    ];
    for vals in columns {
        check_keys(&column(FieldKind::I64, vals.clone()))
            .unwrap_or_else(|e| panic!("{vals:?}: {e}"));
    }
    check_keys(&column(FieldKind::U32, span(0, 4096))).unwrap();
}
