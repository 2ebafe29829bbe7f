//! The object-cache correctness contract (see `docs/CACHE.md`):
//!
//! 1. **Transparency** — over random app counts, file contents, skews,
//!    cache geometries, and fault plans, a cache-on run serves exactly the
//!    same objects as a cache-off run: same completions, same records,
//!    same (order-insensitive) checksum. The cache may only change *when*
//!    things happen, never *what* is produced.
//! 2. **Inertness at zero capacity** — installing a capacity-0 cache is
//!    byte-identical to never installing one, report and trace.
//! 3. **Determinism** — a cache-on Zipfian sweep is byte-identical across
//!    `--jobs 1` and `--jobs 4` and across repeats.
//! 4. **Invalidation on MWRITE** — rewriting a file through the
//!    serialization path drops its cached objects, so a subsequent cached
//!    serve parses the new bytes (verified against a cache-off run).
//!
//! Fault plans here use crash/stall/flash-uncorr only: with the
//! host-fallback policy every offered request still completes, so the
//! object-level comparison stays exact. (Timeout faults can fail requests
//! outright, and hits legitimately skip fault rolls, so loss-roll streams
//! diverge between the two worlds.)

use morpheus::{
    AppSpec, CacheConfig, CachePolicy, Mode, ServeConfig, ServePolicy, ServeReport, System,
    SystemParams,
};
use morpheus_bench::run_parallel;
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{FaultPlan, Tracer};
use proptest::prelude::*;

/// Stages `napps` tenants with seeded ~200-row inputs.
fn build(seed: u64, napps: usize, faults: Option<&FaultPlan>) -> (System, Vec<AppSpec>) {
    let mut sys = System::new(SystemParams::paper_testbed());
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
    let mut specs = Vec::new();
    for i in 0..napps as u64 {
        let name = format!("svc{i}");
        let file = format!("{name}.txt");
        let mut w = TextWriter::new();
        for j in 0..200u64 {
            w.write_u64((j * 7 + i * 31 + seed) % 100_000);
            w.sep();
            w.write_u64((j * 13 + i * 17 + seed) % 100_000);
            w.newline();
        }
        sys.create_input_file(&file, &w.into_bytes()).unwrap();
        specs.push(AppSpec::cpu_app(&name, &file, schema.clone(), 1, 50.0));
    }
    if let Some(plan) = faults {
        sys.set_fault_plan(*plan);
    }
    (sys, specs)
}

fn serve_cfg(seed: u64, rps: f64, skew: f64, mode: Mode) -> ServeConfig {
    ServeConfig {
        rps,
        duration_s: 0.01,
        depth: 16,
        batch_max: 4,
        mode,
        policy: ServePolicy::HostFallback, // every offered request completes
        seed,
        skew,
        telemetry: None,
    }
}

/// One serve run on a fresh system, optionally with a cache installed.
fn run_once(
    seed: u64,
    rps: f64,
    skew: f64,
    napps: usize,
    cache: Option<CacheConfig>,
    faults: Option<&FaultPlan>,
) -> ServeReport {
    let (mut sys, specs) = build(seed, napps, faults);
    if let Some(cfg) = cache {
        sys.set_object_cache(cfg);
    }
    sys.serve(&specs, &serve_cfg(seed, rps, skew, Mode::Morpheus))
        .expect("serve")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cache-on serves bit-identical objects to cache-off under random
    /// workloads, cache geometries, and (completion-preserving) faults.
    #[test]
    fn cache_on_serves_identical_objects(
        seed in 0u64..10_000,
        rps in 500.0f64..4000.0,
        skew in 0.0f64..2.0,
        napps in 1usize..5,
        tiny_dram in any::<bool>(),
        spill in any::<bool>(),
        lru in any::<bool>(),
        faulty in any::<bool>(),
    ) {
        let plan = FaultPlan::parse("seed=3,crash=0.1,stall=0.1,flash-uncorr=0.02").unwrap();
        let faults = faulty.then_some(&plan);
        let cache = CacheConfig {
            // A tiny DRAM tier forces eviction/spill churn mid-run.
            dram_bytes: if tiny_dram { 4 << 10 } else { 256 << 20 },
            host_bytes: if spill { 1 << 20 } else { 0 },
            policy: if lru { CachePolicy::Lru } else { CachePolicy::TinyLfu },
            seed,
        };
        let off = run_once(seed, rps, skew, napps, None, faults);
        let on = run_once(seed, rps, skew, napps, Some(cache), faults);
        prop_assert_eq!(off.offered, on.offered, "same arrival schedule");
        prop_assert_eq!(off.completed, off.offered, "fallback completes everything");
        prop_assert_eq!(on.completed, off.completed, "cache must not lose requests");
        prop_assert_eq!(on.records, off.records, "cache must not change record counts");
        prop_assert_eq!(
            on.checksum_unordered, off.checksum_unordered,
            "cached objects must be bit-identical to freshly parsed ones"
        );
    }
}

#[test]
fn zero_capacity_cache_is_byte_identical_to_no_cache() {
    let run = |install: bool| {
        let (mut sys, specs) = build(11, 2, None);
        sys.set_tracer(Tracer::enabled());
        if install {
            sys.set_object_cache(CacheConfig::new(0));
        }
        let rep = sys
            .serve(&specs, &serve_cfg(11, 1500.0, 0.0, Mode::Morpheus))
            .expect("serve");
        (format!("{rep:?}"), sys.tracer().take().to_chrome_json())
    };
    assert_eq!(run(false), run(true), "capacity-0 install must be inert");
}

#[test]
fn cached_zipfian_sweep_is_identical_across_jobs_and_repeats() {
    let cell = |rps: f64| {
        let (mut sys, specs) = build(5, 3, None);
        sys.set_tracer(Tracer::enabled());
        sys.set_object_cache(CacheConfig {
            dram_bytes: 256 << 20,
            host_bytes: 16 << 20,
            policy: CachePolicy::TinyLfu,
            seed: 5,
        });
        let rep = sys
            .serve(&specs, &serve_cfg(5, rps, 1.1, Mode::Morpheus))
            .expect("serve");
        (format!("{rep:?}"), sys.tracer().take().to_chrome_json())
    };
    let grid: Vec<f64> = vec![900.0, 2700.0, 8000.0];
    let seq = run_parallel(1, &grid, |r| cell(*r));
    let par = run_parallel(4, &grid, |r| cell(*r));
    assert_eq!(seq, par, "cache-on fan-out must not change a single byte");
    let again = run_parallel(1, &grid, |r| cell(*r));
    assert_eq!(seq, again, "cache-on runs must replay byte-identically");
}

#[test]
fn mwrite_invalidates_cached_objects() {
    // Source objects come from a staged input; the serving tenant reads
    // the *serialized* copy, so rewriting it through the MWRITE path must
    // invalidate the cache.
    let (mut sys, specs) = build(3, 1, None);
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
    let src_a = sys.run(&specs[0], Mode::Morpheus).expect("parse input a");

    // A second, different input provides the replacement objects.
    let mut w = TextWriter::new();
    for j in 0..150u64 {
        w.write_u64((j * 11 + 5) % 100_000);
        w.sep();
        w.write_u64((j * 19 + 7) % 100_000);
        w.newline();
    }
    sys.create_input_file("alt.txt", &w.into_bytes()).unwrap();
    let alt_spec = AppSpec::cpu_app("alt", "alt.txt", schema.clone(), 1, 50.0);
    let src_b = sys.run(&alt_spec, Mode::Morpheus).expect("parse input b");
    assert_ne!(src_a.objects.checksum(), src_b.objects.checksum());

    // MWRITE #1 stages out.txt with A's objects; cached serving warms on it.
    sys.run_serialize(&src_a.objects, "out.txt", Mode::Morpheus)
        .expect("serialize a");
    sys.set_object_cache(CacheConfig {
        dram_bytes: 64 << 20,
        host_bytes: 0,
        policy: CachePolicy::Lru,
        seed: 3,
    });
    let out_spec = AppSpec::cpu_app("reader", "out.txt", schema, 1, 50.0);
    let cfg = serve_cfg(3, 1500.0, 0.0, Mode::Morpheus);
    let warm = sys
        .serve(std::slice::from_ref(&out_spec), &cfg)
        .expect("warm serve");
    let hot = sys
        .serve(std::slice::from_ref(&out_spec), &cfg)
        .expect("hot serve");
    assert!(hot.cache.expect("installed").hits > 0, "cache warmed");
    assert_eq!(warm.checksum_unordered, hot.checksum_unordered);

    // MWRITE #2 rewrites out.txt with B's objects (the filesystem slot is
    // recycled first; removal alone performs no invalidation — the MWRITE
    // path itself must).
    sys.fs.remove("out.txt").expect("recycle name");
    sys.run_serialize(&src_b.objects, "out.txt", Mode::Morpheus)
        .expect("serialize b");
    let fresh = sys
        .serve(std::slice::from_ref(&out_spec), &cfg)
        .expect("fresh serve");
    let fc = fresh.cache.expect("installed");
    assert!(fc.invalidations > 0, "MWRITE must invalidate: {fc}");
    assert_ne!(
        fresh.checksum_unordered, hot.checksum_unordered,
        "stale objects must not survive the rewrite"
    );

    // The cached post-rewrite serve agrees with a cache-off serve.
    sys.clear_object_cache();
    let off = sys.serve(&[out_spec], &cfg).expect("cache-off serve");
    assert_eq!(off.checksum_unordered, fresh.checksum_unordered);
}
