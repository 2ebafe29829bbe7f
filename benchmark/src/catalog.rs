//! The benchmark's vocabulary: workload names and every metric it prints,
//! with unit, direction, regression bound and where its value comes from.
//! `BENCHMARK.json` at the repository root mirrors this table; a unit test
//! keeps the two in step.

/// The five workloads. Names are final: ledgers cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    KneeMorpheus,
    KneeHost,
    CacheChurn,
    FleetOps,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperSuite,
        Workload::KneeMorpheus,
        Workload::KneeHost,
        Workload::CacheChurn,
        Workload::FleetOps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::KneeMorpheus => "knee-morpheus",
            Workload::KneeHost => "knee-host",
            Workload::CacheChurn => "cache-churn",
            Workload::FleetOps => "fleet-ops",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True for the four open-loop serving workloads.
    pub fn serves(self) -> bool {
        self != Workload::PaperSuite
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before a change counts as a regression:
/// the larger of `rel` times the base median and `abs` in the metric's unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs: f64,
}

impl Bound {
    pub fn allowed(self, base: f64) -> f64 {
        (self.rel * base.abs()).max(self.abs)
    }
}

/// Which workloads a metric describes. Elsewhere it reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    All,
    Serve,
    Paper,
    Cache,
    Fleet,
}

impl Scope {
    pub fn covers(self, w: Workload) -> bool {
        match self {
            Scope::All => true,
            Scope::Serve => w.serves(),
            Scope::Paper => w == Workload::PaperSuite,
            Scope::Cache => w == Workload::CacheChurn,
            Scope::Fleet => w == Workload::FleetOps,
        }
    }
}

/// Where a run's value of a metric comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host time or memory: the median over the run's untraced passes.
    Host,
    /// Simulated quantity from an untraced pass (every pass agrees).
    Sim,
    /// Simulated quantity read from the traced pass's spans.
    Traced,
    /// Traced pass host time over the untraced median, computed by the run.
    Overhead,
}

/// End-to-end (gated in `BENCHMARK.json`) or per-layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound. Every end-to-end metric has one; a few per-layer
    /// metrics carry the bound `benchmark compare` applies to them.
    pub bound: Option<Bound>,
    pub kind: Kind,
    pub scope: Scope,
    pub source: Source,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    scope: Scope,
    source: Source,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        kind,
        scope,
        source,
    }
}

const fn bounded(mut metric: Metric, rel: f64, abs: f64) -> Metric {
    metric.bound = Some(Bound { rel, abs });
    metric
}

use Better::{Higher, Lower};
use Kind::{EndToEnd, Layer};
use Source::{Host, Overhead, Sim, Traced};

/// Every metric, end-to-end ones first.
pub const METRICS: &[Metric] = &[
    // End to end: what running the simulator costs its user. Every
    // workload reports every one, and none is ever zero.
    bounded(
        m("cpu_s", "s", Lower, EndToEnd, Scope::All, Host),
        0.24,
        0.0,
    ),
    bounded(
        m("setup_s", "s", Lower, EndToEnd, Scope::All, Host),
        0.25,
        0.0,
    ),
    bounded(
        m("peak_heap_mb", "MB", Lower, EndToEnd, Scope::All, Host),
        0.05,
        0.0,
    ),
    // The pass's wall-clock time and resident memory, and host CPU time
    // timed around public calls in the untraced passes.
    m("wall_s", "s", Lower, Layer, Scope::All, Host),
    m("peak_rss_mb", "MB", Lower, Layer, Scope::All, Host),
    m("workloads.gen_s", "s", Lower, Layer, Scope::All, Host),
    m("workloads.kernel_s", "s", Lower, Layer, Scope::Paper, Host),
    m("ssd.stage_s", "s", Lower, Layer, Scope::All, Host),
    m(
        "format.parse_mb_s",
        "MB/s",
        Higher,
        Layer,
        Scope::Paper,
        Host,
    ),
    m(
        "core.exec.conventional_s",
        "s",
        Lower,
        Layer,
        Scope::Paper,
        Host,
    ),
    m(
        "core.exec.morpheus_s",
        "s",
        Lower,
        Layer,
        Scope::Paper,
        Host,
    ),
    m("core.exec.p2p_s", "s", Lower, Layer, Scope::Paper, Host),
    m(
        "core.serve.host_us_per_req",
        "us",
        Lower,
        Layer,
        Scope::Serve,
        Host,
    ),
    m(
        "core.cache.overwrite_ms",
        "ms",
        Lower,
        Layer,
        Scope::Cache,
        Host,
    ),
    m(
        "simcore.trace.overhead_pct",
        "%",
        Lower,
        Layer,
        Scope::All,
        Overhead,
    ),
    m(
        "simcore.trace.events_per_req",
        "count",
        Lower,
        Layer,
        Scope::All,
        Traced,
    ),
    // The modelled serving plane, in simulated time.
    bounded(
        m(
            "core.serve.knee_rps",
            "rps",
            Higher,
            Layer,
            Scope::Serve,
            Traced,
        ),
        0.0,
        0.0,
    ),
    bounded(
        m(
            "core.serve.p50_ms",
            "ms",
            Lower,
            Layer,
            Scope::Serve,
            Traced,
        ),
        0.01,
        0.0,
    ),
    bounded(
        m(
            "core.serve.p99_ms",
            "ms",
            Lower,
            Layer,
            Scope::Serve,
            Traced,
        ),
        0.01,
        0.0,
    ),
    m(
        "core.serve.ref_samples",
        "count",
        Higher,
        Layer,
        Scope::Serve,
        Traced,
    ),
    bounded(
        m(
            "core.serve.sustained_rps_max",
            "rps",
            Higher,
            Layer,
            Scope::Serve,
            Sim,
        ),
        0.01,
        0.0,
    ),
    bounded(
        m(
            "core.serve.fail_frac",
            "ratio",
            Lower,
            Layer,
            Scope::Serve,
            Sim,
        ),
        0.0,
        0.0,
    ),
    m(
        "core.serve.queue_wait_ms_p99",
        "ms",
        Lower,
        Layer,
        Scope::Serve,
        Traced,
    ),
    m(
        "core.serve.service_ms_mean",
        "ms",
        Lower,
        Layer,
        Scope::Serve,
        Sim,
    ),
    m(
        "core.serve.batch_mean",
        "count",
        Higher,
        Layer,
        Scope::Serve,
        Sim,
    ),
    m(
        "host.cpu_busy_ms_per_req",
        "ms",
        Lower,
        Layer,
        Scope::Serve,
        Sim,
    ),
    m(
        "ssd.parse_ms_per_req",
        "ms",
        Lower,
        Layer,
        Scope::Serve,
        Traced,
    ),
    m("ssd.core_util", "ratio", Lower, Layer, Scope::Serve, Sim),
    m(
        "flash.read_ms_per_req",
        "ms",
        Lower,
        Layer,
        Scope::Serve,
        Traced,
    ),
    m(
        "flash.reads_per_req",
        "count",
        Lower,
        Layer,
        Scope::Serve,
        Traced,
    ),
    m(
        "ftl.lookups_per_req",
        "count",
        Lower,
        Layer,
        Scope::Serve,
        Traced,
    ),
    m(
        "nvme.cmds_per_req",
        "count",
        Lower,
        Layer,
        Scope::Serve,
        Sim,
    ),
    m(
        "nvme.cmds_per_doorbell",
        "count",
        Higher,
        Layer,
        Scope::Serve,
        Sim,
    ),
    m(
        "pcie.dma_ms_per_req",
        "ms",
        Lower,
        Layer,
        Scope::Serve,
        Traced,
    ),
    m(
        "core.cache.hit_rate",
        "ratio",
        Higher,
        Layer,
        Scope::Cache,
        Sim,
    ),
    m(
        "core.cache.admit_frac",
        "ratio",
        Higher,
        Layer,
        Scope::Cache,
        Sim,
    ),
    m(
        "core.cache.evictions",
        "count",
        Lower,
        Layer,
        Scope::Cache,
        Sim,
    ),
    m(
        "core.cache.spills",
        "count",
        Lower,
        Layer,
        Scope::Cache,
        Sim,
    ),
    m(
        "core.cache.promotions",
        "count",
        Lower,
        Layer,
        Scope::Cache,
        Sim,
    ),
    m(
        "core.cache.invalidations",
        "count",
        Lower,
        Layer,
        Scope::Cache,
        Sim,
    ),
    m(
        "core.fleet.rebalanced",
        "count",
        Lower,
        Layer,
        Scope::Fleet,
        Sim,
    ),
    m(
        "core.fleet.imbalance",
        "ratio",
        Lower,
        Layer,
        Scope::Fleet,
        Sim,
    ),
    m(
        "core.control.transitions",
        "count",
        Lower,
        Layer,
        Scope::Fleet,
        Sim,
    ),
    m(
        "core.control.unhealthy_devices",
        "count",
        Lower,
        Layer,
        Scope::Fleet,
        Sim,
    ),
    m(
        "simcore.telemetry.windows",
        "count",
        Lower,
        Layer,
        Scope::Fleet,
        Sim,
    ),
    m(
        "simcore.telemetry.slo_bad_frac",
        "ratio",
        Lower,
        Layer,
        Scope::Fleet,
        Sim,
    ),
    // The paper's batch experiment, per MB of input text, in simulated time.
    m(
        "host.parse_ms_per_mb",
        "ms/MB",
        Lower,
        Layer,
        Scope::Paper,
        Traced,
    ),
    m(
        "nvme.mread_ms_per_mb",
        "ms/MB",
        Lower,
        Layer,
        Scope::Paper,
        Traced,
    ),
    m(
        "ssd.parse_ms_per_mb",
        "ms/MB",
        Lower,
        Layer,
        Scope::Paper,
        Traced,
    ),
    m(
        "flash.read_ms_per_mb",
        "ms/MB",
        Lower,
        Layer,
        Scope::Paper,
        Traced,
    ),
    m(
        "pcie.dma_ms_per_mb",
        "ms/MB",
        Lower,
        Layer,
        Scope::Paper,
        Traced,
    ),
    // The EXPERIMENTS.md scorecard and its error against the paper.
    bounded(
        m(
            "core.exec.paper_err_pct",
            "%",
            Lower,
            Layer,
            Scope::Paper,
            Sim,
        ),
        0.0,
        0.1,
    ),
    m(
        "core.exec.deser_share",
        "%",
        Higher,
        Layer,
        Scope::Paper,
        Sim,
    ),
    m(
        "core.exec.deser_speedup",
        "x",
        Higher,
        Layer,
        Scope::Paper,
        Sim,
    ),
    m(
        "core.exec.total_speedup",
        "x",
        Higher,
        Layer,
        Scope::Paper,
        Sim,
    ),
    m(
        "core.exec.p2p_speedup",
        "x",
        Higher,
        Layer,
        Scope::Paper,
        Sim,
    ),
    m("host.power_delta_pct", "%", Lower, Layer, Scope::Paper, Sim),
    m(
        "host.energy_delta_pct",
        "%",
        Lower,
        Layer,
        Scope::Paper,
        Sim,
    ),
    m(
        "host.cs_rate_delta_pct",
        "%",
        Lower,
        Layer,
        Scope::Paper,
        Sim,
    ),
    m(
        "host.cs_total_delta_pct",
        "%",
        Lower,
        Layer,
        Scope::Paper,
        Sim,
    ),
    m("pcie.bytes_delta_pct", "%", Lower, Layer, Scope::Paper, Sim),
    m(
        "host.membus_delta_pct",
        "%",
        Lower,
        Layer,
        Scope::Paper,
        Sim,
    ),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
/// The names `BENCHMARK.json` and the ledger accept: a letter or digit,
/// then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Units: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn name_grammar() {
        for ok in ["wall_s", "core.serve.p99_ms", "knee-host", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "p99<10",
            "a/b",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "%", "ms/MB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        for m in METRICS {
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
    }

    #[test]
    fn end_to_end_metrics_are_bounded_and_cover_every_workload() {
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b.rel > 0.0 && b.rel <= 0.25 && b.abs == 0.0, "{}", m.name);
            assert_eq!(m.scope, Scope::All, "{}", m.name);
        }
        let setup = metric("setup_s").expect("setup_s");
        let widest = METRICS
            .iter()
            .filter_map(|m| m.bound.filter(|_| m.kind == Kind::EndToEnd))
            .map(|b| b.rel)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound.map(|b| b.rel), Some(widest));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.keys();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            field(&doc, "run_seconds").as_f64(),
            Some(crate::DEFAULT_SECONDS as f64)
        );
        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_array()
            .expect("array")
            .iter()
            .map(|w| {
                assert_eq!(w.keys(), ["name", "why"]);
                field(w, "name").as_str().expect("name")
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (section, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let listed = field(&doc, section).as_array().expect("array");
            let ours: Vec<&Metric> = METRICS.iter().filter(|m| m.kind == kind).collect();
            assert_eq!(listed.len(), ours.len(), "{section}");
            for (entry, m) in listed.iter().zip(ours) {
                assert_eq!(field(entry, "name").as_str(), Some(m.name));
                assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
                assert_eq!(field(entry, "better").as_str(), Some(m.better.as_str()));
                if kind == Kind::EndToEnd {
                    assert_eq!(entry.keys(), ["name", "unit", "better", "bound"]);
                    let bound = m.bound.expect("bounded").rel;
                    assert_eq!(field(entry, "bound").as_f64(), Some(bound));
                } else {
                    assert_eq!(entry.keys(), ["name", "unit", "better"]);
                }
            }
        }
    }
}
