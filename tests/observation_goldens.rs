//! Golden bytes of everything a serve run lets an observer see: the
//! rendered `ServeReport`, the Chrome trace, the telemetry CSV and the
//! Prometheus text. Four seeded library-level cells, each traced and
//! sampled with SLO objectives, must reproduce these lengths and digests
//! exactly, so a change to how serving records its outcomes that moves
//! one byte of any output fails here.
//!
//! The cells are chosen so that every serving outcome and every
//! object-cache state change happens at least once; the second test
//! checks that they still do, so a golden can never pass by observing
//! nothing.

use morpheus::{
    AppSpec, CacheConfig, CachePolicy, Mode, ServeConfig, ServePolicy, ServeReport, System,
    SystemParams,
};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{FaultPlan, SimDuration, SloSpec, TelemetryConfig, TraceLog, Tracer};

/// `(cell, output, length, FNV-1a of the bytes)`.
const GOLDEN: &[(&str, &str, usize, u64)] = &[
    ("cache", "report", 2539, 0x2c2fffd59f36ec59),
    ("cache", "trace", 143870, 0xd621ca73686212e9),
    ("cache", "csv", 4154, 0x63e60fd820a51b73),
    ("cache", "prom", 55131, 0xbb169338cc22e006),
    ("faults", "report", 1293, 0xf0ff3bd5947dd32b),
    ("faults", "trace", 129814, 0x36f0619683b89df1),
    ("faults", "csv", 2858, 0x87de1bdc65272e6f),
    ("faults", "prom", 31537, 0x8ebdb6ef5315097d),
    ("fallback", "report", 1011, 0x838bc5766116ce58),
    ("fallback", "trace", 215221, 0x648e7eb4414b6f5c),
    ("fallback", "csv", 1820, 0xd9150adfc14fb5db),
    ("fallback", "prom", 22116, 0xf2a260aef41920c7),
    ("shed", "report", 949, 0x3e11d565e32872c6),
    ("shed", "trace", 62765, 0x8fb29185c2fba366),
    ("shed", "csv", 1156, 0x4b4fb9875c2d11b6),
    ("shed", "prom", 14667, 0xc14652ab5ad912c4),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32])
}

fn text(records: u64, salt: u64) -> Vec<u8> {
    let mut w = TextWriter::new();
    for i in 0..records {
        w.write_u64((i * 7 + salt) % 100_000);
        w.sep();
        w.write_u64((i * 13 + salt) % 100_000);
        w.newline();
    }
    w.into_bytes()
}

/// A traced system with one tenant per entry of `records`; each tenant
/// reads its own file, salted so no other test stages the same bytes.
fn tenants(records: &[u64], salt: u64) -> (System, Vec<AppSpec>) {
    let mut sys = System::new(SystemParams::paper_testbed());
    sys.set_tracer(Tracer::enabled());
    let mut specs = Vec::new();
    for (i, &n) in records.iter().enumerate() {
        let file = format!("obs{i}.txt");
        sys.create_input_file(&file, &text(n, salt + i as u64))
            .unwrap();
        specs.push(AppSpec::cpu_app(
            &format!("obs{i}"),
            &file,
            schema(),
            1,
            50.0,
        ));
    }
    (sys, specs)
}

fn cfg(mode: Mode, policy: ServePolicy, depth: usize, rps: f64, duration_s: f64) -> ServeConfig {
    let mut cfg = ServeConfig::new(rps, duration_s);
    cfg.mode = mode;
    cfg.policy = policy;
    cfg.depth = depth;
    cfg.seed = 7;
    let mut t = TelemetryConfig::new(SimDuration::from_millis(2));
    t.slo = SloSpec::parse("p99<2ms,avail>99.9").unwrap();
    cfg.telemetry = Some(t);
    cfg
}

/// What one cell let an observer see, plus its reports for the coverage
/// checks.
struct Observed {
    reports: Vec<ServeReport>,
    trace: TraceLog,
}

impl Observed {
    /// The four outputs: report text, Chrome trace, telemetry CSV and
    /// Prometheus text (each run's, in run order).
    fn outputs(&self) -> [(&'static str, String); 4] {
        let mut report = String::new();
        let mut csv = String::new();
        let mut prom = String::new();
        for r in &self.reports {
            report.push_str(&format!("{r}\n"));
            let t = r.telemetry.as_ref().expect("every cell samples");
            csv.push_str(&t.to_csv(&[]));
            prom.push_str(&t.to_prometheus("morpheus", &[]));
        }
        [
            ("report", report),
            ("trace", self.trace.to_chrome_json()),
            ("csv", csv),
            ("prom", prom),
        ]
    }
}

/// The distinct event names recorded on `track` across all cells.
fn names<'a>(cells: &'a [(&str, Observed)], track: &str) -> Vec<&'a str> {
    let mut names: Vec<&str> = cells
        .iter()
        .flat_map(|(_, o)| &o.trace.events)
        .filter(|e| e.track == track)
        .map(|e| e.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Skewed Morpheus traffic over small cache tiers: objects spill to the
/// host tier, hit from both tiers, promote back and get evicted; the
/// largest object only fits the host tier and the TinyLFU doorkeeper
/// rejects first touches. A file is overwritten between the two runs.
fn cache_cell() -> Observed {
    let (mut sys, specs) = tenants(&[300, 600, 900, 1_200, 1_500, 4_000], 0x0b5e_0001);
    sys.set_object_cache(CacheConfig {
        dram_bytes: 16 << 10,
        host_bytes: 48 << 10,
        policy: CachePolicy::TinyLfu,
        seed: 42,
    });
    let mut c = cfg(Mode::Morpheus, ServePolicy::HostFallback, 64, 4_000.0, 0.03);
    c.skew = 0.9;
    let first = sys.serve(&specs, &c).unwrap();
    sys.overwrite_input_file("obs1.txt", &text(600, 0x0b5e_0099))
        .unwrap();
    let second = sys.serve(&specs, &c).unwrap();
    Observed {
        reports: vec![first, second],
        trace: sys.tracer().take(),
    }
}

/// Crashes and lost commands with no reissue budget: drive requests
/// re-dispatch to the host, and host commands that time out fail. A
/// DRAM-only cache drops its victims outright.
fn fault_cell() -> Observed {
    let (mut sys, specs) = tenants(&[800, 1_600, 2_400], 0x0b5e_0002);
    sys.set_object_cache(CacheConfig {
        dram_bytes: 16 << 10,
        host_bytes: 0,
        policy: CachePolicy::Lru,
        seed: 42,
    });
    sys.set_fault_plan(FaultPlan::parse("seed=5,crash=0.2,timeout=0.1,retries=0").unwrap());
    let c = cfg(Mode::Morpheus, ServePolicy::Shed, 64, 3_000.0, 0.03);
    let rep = sys.serve(&specs, &c).unwrap();
    Observed {
        reports: vec![rep],
        trace: sys.tracer().take(),
    }
}

/// Overload with the host fallback at a shallow queue: overflowing
/// requests run on the host beside the drive's.
fn fallback_cell() -> Observed {
    let (mut sys, specs) = tenants(&[2_000, 2_000], 0x0b5e_0003);
    let c = cfg(Mode::Morpheus, ServePolicy::HostFallback, 2, 20_000.0, 0.01);
    let rep = sys.serve(&specs, &c).unwrap();
    Observed {
        reports: vec![rep],
        trace: sys.tracer().take(),
    }
}

/// Conventional overload that sheds at a shallow queue.
fn shed_cell() -> Observed {
    let (mut sys, specs) = tenants(&[2_000, 1_000, 3_000], 0x0b5e_0004);
    let c = cfg(Mode::Conventional, ServePolicy::Shed, 2, 20_000.0, 0.01);
    let rep = sys.serve(&specs, &c).unwrap();
    Observed {
        reports: vec![rep],
        trace: sys.tracer().take(),
    }
}

fn cells() -> Vec<(&'static str, Observed)> {
    vec![
        ("cache", cache_cell()),
        ("faults", fault_cell()),
        ("fallback", fallback_cell()),
        ("shed", shed_cell()),
    ]
}

#[test]
fn serve_observations_reproduce_their_golden_bytes() {
    let mut got = Vec::new();
    for (cell, obs) in cells() {
        for (output, bytes) in obs.outputs() {
            got.push((cell, output, bytes.len(), fnv1a(bytes.as_bytes())));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(c, o, n, h)| format!("    ({c:?}, {o:?}, {n}, {h:#018x}),"))
        .collect();
    assert_eq!(
        got,
        GOLDEN,
        "observation bytes moved; now:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn the_cells_exercise_every_outcome_and_cache_change() {
    let cells = cells();
    let reports = || cells.iter().flat_map(|(_, o)| &o.reports);
    let total = |f: fn(&ServeReport) -> u64| reports().map(f).sum::<u64>();
    assert!(total(|r| r.shed) > 0, "no request was shed");
    assert!(total(|r| r.overflow_fallbacks) > 0, "no overflow fallback");
    assert!(total(|r| r.fault_redispatches) > 0, "no fault redispatch");
    assert!(total(|r| r.failed) > 0, "no request failed");
    assert!(total(|r| r.admitted) > 0 && total(|r| r.batches) > 0);
    assert!(total(|r| r.commands) > 0 && total(|r| r.completed) > 0);

    let cache = |f: fn(&morpheus::CacheStats) -> u64| {
        reports()
            .filter_map(|r| r.cache.as_ref())
            .map(f)
            .sum::<u64>()
    };
    for (what, n) in [
        ("dram hits", cache(|c| c.dram_hits)),
        ("host hits", cache(|c| c.host_hits)),
        ("misses", cache(|c| c.misses)),
        ("admissions", cache(|c| c.admitted)),
        ("rejections", cache(|c| c.rejected)),
        ("spills", cache(|c| c.spills)),
        ("evictions", cache(|c| c.evictions)),
        ("promotions", cache(|c| c.promotions)),
        ("invalidations", cache(|c| c.invalidations)),
    ] {
        assert!(n > 0, "no cache {what}");
    }
    let (_, faults) = &cells[1];
    assert!(
        faults.reports[0].cache.unwrap().evictions > 0,
        "the DRAM-only tier drops a victim"
    );

    assert_eq!(
        names(&cells, "cache"),
        [
            "admit-dram",
            "admit-host",
            "evict",
            "hit-dram",
            "hit-host",
            "invalidate",
            "miss",
            "promote",
            "reject",
            "spill"
        ]
    );
    assert_eq!(
        names(&cells, "serve"),
        [
            "admit-overflow",
            "host-fallback",
            "queue-wait",
            "request",
            "request-failed",
            "shed"
        ]
    );

    for (cell, obs) in &cells {
        for r in &obs.reports {
            let t = r.telemetry.as_ref().expect("every cell samples");
            assert_eq!(t.slo.len(), 2, "{cell}: both objectives evaluated");
            assert_eq!(t.totals.get("offered") as u64, r.offered, "{cell}");
            assert!(t.totals.get("nvme_commands") > 0.0, "{cell}");
            assert!(t.column_names().iter().any(|c| c == "queue_depth_max"));
        }
    }
    let sampled = |series: &str| {
        reports()
            .filter_map(|r| r.telemetry.as_ref())
            .map(|t| t.totals.get(series))
            .sum::<f64>()
    };
    for series in [
        "shed",
        "overflow_fallbacks",
        "fault_redispatches",
        "failed",
        "cache_hits",
        "cache_misses",
        "ssd_busy_ns",
        "host_busy_ns",
        "cache_busy_ns",
    ] {
        assert!(sampled(series) > 0.0, "telemetry never saw {series}");
    }
}
