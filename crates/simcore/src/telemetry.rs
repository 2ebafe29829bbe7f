//! Windowed telemetry time-series and the SLO / error-budget engine.
//!
//! A run report says *what* happened; a trace says *where the time went*;
//! this module says *when things changed*. A [`TelemetrySampler`] buckets
//! counters, gauges, occupancy spans, and latency histograms into
//! fixed-size **sim-time** windows (e.g. `--telemetry-window 10ms`), and
//! [`TelemetrySampler::finalize`] folds them into a [`TelemetryReport`]:
//! one [`Metrics`] bag per window plus cumulative totals and histograms.
//!
//! On top of the series sits an SLO engine. A [`SloSpec`] holds
//! declarative objectives parsed from strings like `p99<500us,avail>99.9`;
//! both kinds reduce to *ratio SLOs* (a target fraction of good events):
//!
//! * `pNN<thr` — at least NN% of completed requests finish within `thr`
//!   end-to-end. Good/bad is counted **exactly** per request at record
//!   time, not reconstructed from histogram buckets, so the verdict has
//!   no quantization error.
//! * `avail>PP` — at least PP% of offered requests complete (shed and
//!   failed requests are the bad events).
//!
//! Per window the engine computes the **burn rate** (bad fraction divided
//! by the budget fraction `1 - target`), a trailing slow burn over
//! [`SLOW_BURN_WINDOWS`] windows, the remaining error budget, and the
//! standard multi-window alert (fast burn ≥ [`FAST_BURN_ALERT`] *and*
//! slow burn ≥ [`SLOW_BURN_ALERT`], the Google SRE workbook's page-level
//! thresholds).
//!
//! Everything is deterministic: windows are keyed by integer nanosecond
//! division, per-window folds are commutative (so recording order cannot
//! leak into the output), and all emitters ([`TelemetryReport::to_csv`],
//! [`TelemetryReport::to_prometheus`], the sparklines) format numbers
//! through one canonical path. Zero-denominator windows (no events, no
//! lookups, zero makespan) read as `0.0`, never NaN.
//!
//! # Example
//!
//! ```
//! use morpheus_simcore::{
//!     Series, SimDuration, SimTime, SloSpec, TelemetryConfig, TelemetrySampler,
//! };
//!
//! let cfg = TelemetryConfig {
//!     window: SimDuration::from_millis(10),
//!     slo: SloSpec::parse("p99<500us,avail>99.9").unwrap(),
//! };
//! let mut s = TelemetrySampler::new(&cfg);
//! let at = SimTime::from_nanos(3_000_000);
//! s.count(Series::Completed, at);
//! s.served(at, 200_000); // e2e 200us: good for both objectives
//! let rep = s.finalize(SimTime::from_nanos(25_000_000));
//! assert_eq!(rep.windows.len(), 3);
//! assert!(rep.slo.iter().all(|o| o.met));
//! ```

use crate::metrics::{Histogram, Metrics};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

/// Fast-burn alert threshold: the one-window burn rate that pages
/// (consuming a 30-day budget in ~2 hours, per the SRE workbook).
pub const FAST_BURN_ALERT: f64 = 14.4;
/// Slow-burn alert threshold over the trailing window set.
pub const SLOW_BURN_ALERT: f64 = 6.0;
/// Number of trailing windows (inclusive) the slow burn averages over.
pub const SLOW_BURN_WINDOWS: u64 = 6;

/// Parses a human duration (`500us`, `10ms`, `1.5s`, `250ns`) into a
/// [`SimDuration`]. A bare number is nanoseconds.
///
/// # Errors
///
/// Returns a description for an empty, non-finite, or unparseable
/// spelling, and for one that is not positive once rounded to whole
/// nanoseconds (`0.4ns` is zero).
///
/// # Example
///
/// ```
/// use morpheus_simcore::{parse_duration, SimDuration};
///
/// assert_eq!(parse_duration("10ms").unwrap(), SimDuration::from_millis(10));
/// assert_eq!(parse_duration("1.5us").unwrap(), SimDuration::from_nanos(1_500));
/// assert!(parse_duration("10 fortnights").is_err());
/// assert!(parse_duration("0.4ns").is_err());
/// ```
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty duration".into());
    }
    let (num, scale) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        (s, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?}"))?;
    let ns = (v * scale).round();
    if !v.is_finite() || ns < 1.0 {
        return Err(format!("duration must be positive, got {s:?}"));
    }
    Ok(SimDuration::from_nanos(ns as u64))
}

/// What kind of events an objective classifies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// `pNN<thr`: a completed request is good iff its end-to-end latency
    /// is at or under the threshold. The quantile NN is the target.
    Latency {
        /// Inclusive end-to-end latency bound, nanoseconds.
        threshold_ns: u64,
    },
    /// `avail>PP`: an offered request is good iff it completes (shed and
    /// failed requests are bad).
    Availability,
}

/// One declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// The original spelling (used for display and Prometheus labels).
    pub spec: String,
    /// Event classifier.
    pub kind: SloKind,
    /// Target good fraction in `(0, 1)` (e.g. `p99<...` → 0.99).
    pub target: f64,
}

impl SloObjective {
    /// The error-budget fraction `1 - target`.
    fn budget_frac(&self) -> f64 {
        1.0 - self.target
    }
}

/// A parsed comma-separated list of objectives (possibly empty).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloSpec {
    /// The objectives, in spec order.
    pub objectives: Vec<SloObjective>,
}

impl SloSpec {
    /// The empty spec: telemetry without SLO evaluation.
    pub fn none() -> Self {
        SloSpec::default()
    }

    /// True if no objective was declared.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// Parses `p99<500us,avail>99.9`-style objective lists. Latency
    /// objectives are `p<quantile><<duration>`; availability objectives
    /// are `avail><percent>`. Quantiles and percents are in `(0, 100)`
    /// (a 100% target has no error budget to burn).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed objective.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty SLO spec".into());
        }
        let mut objectives = Vec::new();
        for term in s.split(',') {
            let term = term.trim();
            if let Some(rest) = term.strip_prefix("avail>") {
                let pct: f64 = rest
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad availability target in {term:?}"))?;
                if !(pct > 0.0 && pct < 100.0) {
                    return Err(format!("availability target must be in (0,100): {term:?}"));
                }
                objectives.push(SloObjective {
                    spec: term.to_string(),
                    kind: SloKind::Availability,
                    target: pct / 100.0,
                });
            } else if let Some(rest) = term.strip_prefix('p') {
                let (q, thr) = rest
                    .split_once('<')
                    .ok_or_else(|| format!("latency objective needs '<': {term:?}"))?;
                let q: f64 = q
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad quantile in {term:?}"))?;
                if !(q > 0.0 && q < 100.0) {
                    return Err(format!("quantile must be in (0,100): {term:?}"));
                }
                let threshold_ns = parse_duration(thr)
                    .map_err(|e| format!("bad threshold in {term:?}: {e}"))?
                    .as_nanos();
                objectives.push(SloObjective {
                    spec: term.to_string(),
                    kind: SloKind::Latency { threshold_ns },
                    target: q / 100.0,
                });
            } else {
                return Err(format!(
                    "unknown objective {term:?} (expected pNN<dur or avail>PP)"
                ));
            }
        }
        Ok(SloSpec { objectives })
    }
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(&o.spec)?;
        }
        Ok(())
    }
}

/// Configuration of a telemetry run: the sampling window plus the
/// objectives to evaluate over it.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Window length (must be non-zero).
    pub window: SimDuration,
    /// Objectives to evaluate (may be empty).
    pub slo: SloSpec,
}

impl TelemetryConfig {
    /// A config with the given window and no objectives.
    pub fn new(window: SimDuration) -> Self {
        TelemetryConfig {
            window,
            slo: SloSpec::none(),
        }
    }
}

/// How a [`Series`] folds within a window, which fixes the columns it
/// writes into a window that saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Summed per window: one column, the series name.
    Counter,
    /// Busy nanoseconds apportioned across the windows a span overlaps:
    /// the `*_busy_ns` sum and its `*_occ` occupancy (busy ns per window
    /// ns; can exceed 1.0 when parallel lanes overlap).
    Span,
    /// Sampled values: the window's `_mean` and `_max`.
    Gauge,
    /// A log₂ latency histogram: `_p50`, `_p95`, `_p99`, `_max` and
    /// `_count` per window, plus a cumulative merge for the run.
    Latency,
}

/// A series the sampler records. The set is closed, so a window is a few
/// fixed arrays and recording an event is an array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Requests the arrival process offered.
    Offered,
    /// Requests that entered the admission queue.
    Admitted,
    /// Requests dropped because the queue was full.
    Shed,
    /// Requests that failed outright, with no path left to try.
    Failed,
    /// Requests served on the host because the queue was full.
    OverflowFallbacks,
    /// Dispatched batches.
    Batches,
    /// Object-cache hits; with [`Series::CacheMisses`] they derive the
    /// run's `cache_hit_rate` column.
    CacheHits,
    /// Object-cache misses.
    CacheMisses,
    /// Requests re-dispatched to the host after a fault.
    FaultRedispatches,
    /// NVMe commands on the wire.
    NvmeCommands,
    /// Requests served; they derive the run's `rps` column.
    Completed,
    /// Time requests spent served by the embedded cores.
    SsdBusyNs,
    /// Time requests spent served by the host.
    HostBusyNs,
    /// Time requests spent served from the object cache.
    CacheBusyNs,
    /// Requests an arrival found queued.
    QueueDepth,
    /// Commands per wire burst.
    NvmeWire,
    /// End-to-end request latency.
    E2eNs,
    /// Time from arrival to service start.
    QueueWaitNs,
}

/// Counter and span series: a window's sums.
const SUMS: usize = 14;
/// Gauge series.
const GAUGES: usize = 2;
/// Latency series.
const LATENCIES: usize = 2;

/// One row of `Series::spec`: a series' name, its kind and its window
/// columns, each column spelled from the name by the kind's convention.
macro_rules! spec {
    (Counter $name:literal) => {
        ($name, SeriesKind::Counter, &[$name])
    };
    (Span $lane:literal) => {{
        const NAME: &str = concat!($lane, "_busy_ns");
        (NAME, SeriesKind::Span, &[NAME, concat!($lane, "_occ")])
    }};
    (Gauge $name:literal) => {
        (
            $name,
            SeriesKind::Gauge,
            &[concat!($name, "_mean"), concat!($name, "_max")],
        )
    };
    (Latency $name:literal) => {
        (
            $name,
            SeriesKind::Latency,
            &[
                concat!($name, "_p50"),
                concat!($name, "_p95"),
                concat!($name, "_p99"),
                concat!($name, "_max"),
                concat!($name, "_count"),
            ],
        )
    };
}

impl Series {
    /// Every series, in declaration order: the sums first, then the
    /// gauges, then the latencies.
    pub const ALL: [Series; SUMS + GAUGES + LATENCIES] = {
        use Series::*;
        [
            Offered,
            Admitted,
            Shed,
            Failed,
            OverflowFallbacks,
            Batches,
            CacheHits,
            CacheMisses,
            FaultRedispatches,
            NvmeCommands,
            Completed,
            SsdBusyNs,
            HostBusyNs,
            CacheBusyNs,
            QueueDepth,
            NvmeWire,
            E2eNs,
            QueueWaitNs,
        ]
    };

    /// The series' name, its kind and its window columns.
    const fn spec(self) -> (&'static str, SeriesKind, &'static [&'static str]) {
        use Series::*;
        match self {
            Offered => spec!(Counter "offered"),
            Admitted => spec!(Counter "admitted"),
            Shed => spec!(Counter "shed"),
            Failed => spec!(Counter "failed"),
            OverflowFallbacks => spec!(Counter "overflow_fallbacks"),
            Batches => spec!(Counter "batches"),
            CacheHits => spec!(Counter "cache_hits"),
            CacheMisses => spec!(Counter "cache_misses"),
            FaultRedispatches => spec!(Counter "fault_redispatches"),
            NvmeCommands => spec!(Counter "nvme_commands"),
            Completed => spec!(Counter "completed"),
            SsdBusyNs => spec!(Span "ssd"),
            HostBusyNs => spec!(Span "host"),
            CacheBusyNs => spec!(Span "cache"),
            QueueDepth => spec!(Gauge "queue_depth"),
            NvmeWire => spec!(Gauge "nvme_wire"),
            E2eNs => spec!(Latency "e2e_ns"),
            QueueWaitNs => spec!(Latency "queue_wait_ns"),
        }
    }

    /// The series' name: the key of a counter's or span's run total, and
    /// the name of a latency's cumulative histogram.
    pub const fn name(self) -> &'static str {
        self.spec().0
    }

    /// How the series folds within a window.
    pub const fn kind(self) -> SeriesKind {
        self.spec().1
    }

    /// The columns the series writes into a window that saw it, in the
    /// order [`SeriesKind`] lists them.
    const fn columns(self) -> &'static [&'static str] {
        self.spec().2
    }

    /// The run-level column the series derives: every window carries it
    /// once any window has seen the series.
    const fn derives(self) -> Option<(&'static str, Column)> {
        match self {
            Series::Completed => Some(("rps", Column::Rps)),
            Series::CacheHits | Series::CacheMisses => {
                Some(("cache_hit_rate", Column::CacheHitRate))
            }
            _ => None,
        }
    }

    /// The series' index in its window array: the sums, the gauges or
    /// the latencies.
    const fn slot(self) -> usize {
        let i = self as usize;
        match self.kind() {
            SeriesKind::Counter | SeriesKind::Span => i,
            SeriesKind::Gauge => i - SUMS,
            SeriesKind::Latency => i - SUMS - GAUGES,
        }
    }

    /// The slot of a series that folds as `kinds` allows.
    ///
    /// # Panics
    ///
    /// Panics on a series of another kind (a caller bug).
    fn slot_as(self, kinds: &[SeriesKind]) -> usize {
        assert!(
            kinds.contains(&self.kind()),
            "{self:?} is not a {kinds:?} series"
        );
        self.slot()
    }
}

/// Where one window column's value comes from.
#[derive(Clone, Copy, PartialEq)]
enum Column {
    /// Entry `i` of a series' [`Series::columns`].
    Of(Series, usize),
    /// Completed requests per window second.
    Rps,
    /// Hits over lookups; 0 in a window without lookups.
    CacheHitRate,
}

/// Gauge fold: sum, sample count, max — enough for mean/max columns.
#[derive(Debug, Clone, Copy, Default)]
struct GaugeAgg {
    sum: f64,
    n: u64,
    max: f64,
}

/// One window's raw folds (all commutative, so recording order is moot).
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// Counter and span sums, by slot.
    sums: [f64; SUMS],
    /// Bit `i` is set once sum `i` has been written.
    seen: u16,
    gauges: [GaugeAgg; GAUGES],
    hists: [Histogram; LATENCIES],
}

impl Bucket {
    /// True if the window recorded `s`.
    fn has(&self, s: Series) -> bool {
        let i = s.slot();
        match s.kind() {
            SeriesKind::Counter | SeriesKind::Span => self.seen & (1 << i) != 0,
            SeriesKind::Gauge => self.gauges[i].n > 0,
            SeriesKind::Latency => !self.hists[i].is_empty(),
        }
    }

    /// The window's value of `col`, or `None` where the window has no
    /// such column.
    fn value(&self, col: Column, win_ns: f64, win_s: f64) -> Option<f64> {
        let sum = |s: Series| self.sums[s.slot()];
        match col {
            Column::Of(s, c) => {
                if !self.has(s) {
                    return None;
                }
                let i = s.slot();
                Some(match (s.kind(), c) {
                    (SeriesKind::Counter, _) | (SeriesKind::Span, 0) => self.sums[i],
                    (SeriesKind::Span, _) => self.sums[i] / win_ns,
                    (SeriesKind::Gauge, 0) => self.gauges[i].sum / self.gauges[i].n as f64,
                    (SeriesKind::Gauge, _) => self.gauges[i].max,
                    (SeriesKind::Latency, _) => {
                        let h = &self.hists[i];
                        (match c {
                            0 => h.p50(),
                            1 => h.p95(),
                            2 => h.p99(),
                            3 => h.max(),
                            _ => h.count(),
                        }) as f64
                    }
                })
            }
            Column::Rps => Some(sum(Series::Completed) / win_s),
            Column::CacheHitRate => {
                let (hits, misses) = (sum(Series::CacheHits), sum(Series::CacheMisses));
                let total = hits + misses;
                Some(if total > 0.0 { hits / total } else { 0.0 })
            }
        }
    }
}

/// Buckets events into fixed sim-time windows during a run.
///
/// All recording methods take the sim-time the event belongs to; the
/// sampler never consults wall-clock state, so a run's telemetry is a
/// pure function of the simulation. Windows are a dense vector indexed by
/// window number, grown to the latest event; the report covers every one
/// of them anyway.
#[derive(Debug, Clone)]
pub struct TelemetrySampler {
    window: SimDuration,
    objectives: Vec<SloObjective>,
    buckets: Vec<Bucket>,
    /// Per-window (good, bad) event counts, one pair per objective:
    /// window `w`'s pairs are `slo[w * objectives.len()..][..objectives.len()]`.
    slo: Vec<(u64, u64)>,
}

impl TelemetrySampler {
    /// Creates a sampler for the given config.
    ///
    /// # Panics
    ///
    /// Panics on a zero window (a config bug, not a run outcome).
    pub fn new(cfg: &TelemetryConfig) -> Self {
        assert!(!cfg.window.is_zero(), "telemetry window must be non-zero");
        TelemetrySampler {
            window: cfg.window,
            objectives: cfg.slo.objectives.clone(),
            buckets: Vec::new(),
            slo: Vec::new(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The index of the window holding `at`, with every window up to it
    /// made.
    fn touch(&mut self, at: SimTime) -> usize {
        let w = (at.as_nanos() / self.window.as_nanos()) as usize;
        if w >= self.buckets.len() {
            self.buckets.resize_with(w + 1, Bucket::default);
            self.slo.resize((w + 1) * self.objectives.len(), (0, 0));
        }
        w
    }

    fn bucket(&mut self, at: SimTime) -> &mut Bucket {
        let w = self.touch(at);
        &mut self.buckets[w]
    }

    /// Adds `v` to a counter or span series' window sum at `at`.
    ///
    /// # Panics
    ///
    /// Panics on a gauge or latency series.
    pub fn add(&mut self, series: Series, at: SimTime, v: f64) {
        let i = series.slot_as(&[SeriesKind::Counter, SeriesKind::Span]);
        let b = self.bucket(at);
        b.sums[i] += v;
        b.seen |= 1 << i;
    }

    /// Increments a counter series at `at`.
    ///
    /// # Panics
    ///
    /// Panics on a gauge or latency series.
    pub fn count(&mut self, series: Series, at: SimTime) {
        self.add(series, at, 1.0);
    }

    /// Samples a gauge (queue depth, wire burst) at `at`. The window
    /// reports its mean and max; a window with no samples has neither
    /// column.
    ///
    /// # Panics
    ///
    /// Panics on a series that is not a gauge.
    pub fn gauge(&mut self, series: Series, at: SimTime, v: f64) {
        let i = series.slot_as(&[SeriesKind::Gauge]);
        let g = &mut self.bucket(at).gauges[i];
        g.sum += v;
        g.n += 1;
        g.max = g.max.max(v);
    }

    /// Records a latency sample into the window holding `at` (the window
    /// exports `_p50/_p95/_p99/_max/_count` columns and the run keeps a
    /// cumulative merge for histogram exposition).
    ///
    /// # Panics
    ///
    /// Panics on a series that is not a latency.
    pub fn latency(&mut self, series: Series, at: SimTime, ns: u64) {
        let i = series.slot_as(&[SeriesKind::Latency]);
        self.bucket(at).hists[i].record(ns);
    }

    /// Attributes a busy span to a span series, apportioned pro-rata
    /// across every window it overlaps. Windows derive the series' `*_occ`
    /// occupancy column (busy ns per window ns; can exceed 1.0 when
    /// parallel lanes overlap).
    ///
    /// # Panics
    ///
    /// Panics on a series that is not a span.
    pub fn span(&mut self, series: Series, start: SimTime, end: SimTime) {
        series.slot_as(&[SeriesKind::Span]);
        let (s, e) = (start.as_nanos(), end.as_nanos());
        if e <= s {
            return;
        }
        let win = self.window.as_nanos();
        let mut w = s / win;
        loop {
            let lo = s.max(w * win);
            let hi = e.min((w + 1) * win);
            if hi > lo {
                self.add(series, SimTime::from_nanos(w * win), (hi - lo) as f64);
            }
            if hi >= e {
                break;
            }
            w += 1;
        }
    }

    /// Books one completed request for SLO accounting: good for
    /// availability objectives, good for a latency objective iff `e2e_ns`
    /// is at or under its threshold.
    pub fn served(&mut self, at: SimTime, e2e_ns: u64) {
        let (w, n) = (self.touch(at), self.objectives.len());
        for (o, pair) in self.objectives.iter().zip(&mut self.slo[w * n..]) {
            let good = match o.kind {
                SloKind::Latency { threshold_ns } => e2e_ns <= threshold_ns,
                SloKind::Availability => true,
            };
            if good {
                pair.0 += 1;
            } else {
                pair.1 += 1;
            }
        }
    }

    /// Books one request that never completed (shed or failed): bad for
    /// availability objectives, invisible to latency objectives (which
    /// judge only completed requests).
    pub fn lost(&mut self, at: SimTime) {
        let (w, n) = (self.touch(at), self.objectives.len());
        for (o, pair) in self.objectives.iter().zip(&mut self.slo[w * n..]) {
            if o.kind == SloKind::Availability {
                pair.1 += 1;
            }
        }
    }

    /// Folds the buckets into a report covering `ceil(makespan / window)`
    /// windows (at least enough to hold every recorded event).
    pub fn finalize(&self, makespan: SimTime) -> TelemetryReport {
        let win = self.window.as_nanos();
        let nwin = makespan
            .as_nanos()
            .div_ceil(win)
            .max(self.buckets.len() as u64);
        let (win_ns, win_s) = (win as f64, self.window.as_secs_f64());
        let seen: Vec<Series> = Series::ALL
            .into_iter()
            .filter(|&s| self.buckets.iter().any(|b| b.has(s)))
            .collect();

        // Every column the run's windows can carry, sorted by name once,
        // so each window's metrics are built in key order from static
        // names.
        let mut columns: Vec<(&'static str, Column)> = Vec::new();
        for &s in &seen {
            let own = s.columns().iter().enumerate();
            columns.extend(own.map(|(i, &name)| (name, Column::Of(s, i))));
            if let Some(derived) = s.derives().filter(|d| !columns.contains(d)) {
                columns.push(derived);
            }
        }
        columns.sort_unstable_by_key(|&(name, _)| name);

        let empty = Bucket::default();
        let windows = (0..nwin)
            .map(|w| {
                let b = self.buckets.get(w as usize).unwrap_or(&empty);
                let metrics = columns
                    .iter()
                    .filter_map(|&(name, col)| Some((name, b.value(col, win_ns, win_s)?)))
                    .collect();
                TelemetryWindow {
                    index: w,
                    start_ns: w * win,
                    metrics,
                }
            })
            .collect();

        // Totals add up the windows in window order: a float sum depends
        // on its order.
        let totals = seen
            .iter()
            .filter(|s| matches!(s.kind(), SeriesKind::Counter | SeriesKind::Span))
            .map(|&s| {
                let windows = self.buckets.iter().filter(|b| b.has(s));
                (s.name(), windows.fold(0.0, |t, b| t + b.sums[s.slot()]))
            })
            .collect();
        let mut hists: Vec<(String, Histogram)> = seen
            .iter()
            .filter(|s| s.kind() == SeriesKind::Latency)
            .map(|&s| {
                let mut h = Histogram::new();
                for b in &self.buckets {
                    h.merge(&b.hists[s.slot()]);
                }
                (s.name().to_string(), h)
            })
            .collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));

        let slo = self
            .objectives
            .iter()
            .enumerate()
            .map(|(i, o)| self.evaluate(i, o, nwin))
            .collect();

        TelemetryReport {
            window_ns: win,
            windows,
            totals,
            hists,
            slo,
        }
    }

    /// Evaluates one objective over the full window range.
    fn evaluate(&self, idx: usize, o: &SloObjective, nwin: u64) -> SloOutcome {
        let budget = o.budget_frac();
        let n = self.objectives.len();
        let per_win: Vec<(u64, u64)> = (0..nwin as usize)
            .map(|w| self.slo.get(w * n + idx).copied().unwrap_or((0, 0)))
            .collect();
        let burn_of = |good: u64, bad: u64| -> f64 {
            let total = good + bad;
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        let mut points = Vec::with_capacity(nwin as usize);
        let (mut cum_good, mut cum_bad) = (0u64, 0u64);
        let mut alerts = 0u64;
        for w in 0..nwin {
            let (good, bad) = per_win[w as usize];
            cum_good += good;
            cum_bad += bad;
            let burn_fast = burn_of(good, bad);
            let lo = w.saturating_sub(SLOW_BURN_WINDOWS - 1) as usize;
            let (sg, sb) = per_win[lo..=w as usize]
                .iter()
                .fold((0, 0), |(g, b), (wg, wb)| (g + wg, b + wb));
            let burn_slow = burn_of(sg, sb);
            let cum_total = cum_good + cum_bad;
            let budget_remaining = if cum_total == 0 {
                1.0
            } else {
                1.0 - (cum_bad as f64 / cum_total as f64) / budget
            };
            let alert = burn_fast >= FAST_BURN_ALERT && burn_slow >= SLOW_BURN_ALERT;
            if alert {
                alerts += 1;
            }
            points.push(BudgetPoint {
                window: w,
                good,
                bad,
                burn_fast,
                burn_slow,
                budget_remaining,
                alert,
            });
        }
        let budget_remaining = points.last().map_or(1.0, |p| p.budget_remaining);
        SloOutcome {
            spec: o.spec.clone(),
            target: o.target,
            good: cum_good,
            bad: cum_bad,
            met: budget_remaining >= 0.0,
            budget_remaining,
            alerts,
            points,
        }
    }
}

/// One telemetry window's folded metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryWindow {
    /// Zero-based window index.
    pub index: u64,
    /// Window start, sim-time nanoseconds.
    pub start_ns: u64,
    /// The window's metric columns (sorted iteration).
    pub metrics: Metrics,
}

/// One window's error-budget state for one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPoint {
    /// Window index.
    pub window: u64,
    /// Good events in this window.
    pub good: u64,
    /// Bad events in this window.
    pub bad: u64,
    /// One-window burn rate (bad fraction over budget fraction).
    pub burn_fast: f64,
    /// Trailing [`SLOW_BURN_WINDOWS`]-window burn rate.
    pub burn_slow: f64,
    /// Error budget left after this window (1.0 = untouched, negative =
    /// overspent).
    pub budget_remaining: f64,
    /// True when both burn thresholds fire (the paging condition).
    pub alert: bool,
}

/// The end-of-run verdict for one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// The objective's original spelling.
    pub spec: String,
    /// Target good fraction.
    pub target: f64,
    /// Total good events.
    pub good: u64,
    /// Total bad events.
    pub bad: u64,
    /// True when the run ended within budget.
    pub met: bool,
    /// Final error budget (negative = overspent).
    pub budget_remaining: f64,
    /// Windows in which the multi-window alert fired.
    pub alerts: u64,
    /// The per-window timeline.
    pub points: Vec<BudgetPoint>,
}

impl SloOutcome {
    /// The alert timeline: one char per window — `X` alert fired, `!`
    /// burning faster than budget (fast burn ≥ 1), `·` healthy.
    pub fn timeline(&self) -> String {
        self.points
            .iter()
            .map(|p| {
                if p.alert {
                    'X'
                } else if p.burn_fast >= 1.0 {
                    '!'
                } else {
                    '·'
                }
            })
            .collect()
    }
}

/// A finished run's windowed telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Window length, nanoseconds.
    pub window_ns: u64,
    /// The windows, in order, each with a sorted metric bag.
    pub windows: Vec<TelemetryWindow>,
    /// Counter totals across all windows.
    pub totals: Metrics,
    /// Cumulative latency histograms, sorted by series name.
    pub hists: Vec<(String, Histogram)>,
    /// One outcome per declared objective, in spec order.
    pub slo: Vec<SloOutcome>,
}

impl TelemetryReport {
    /// The union of metric columns across all windows, sorted.
    pub fn column_names(&self) -> Vec<String> {
        let names: BTreeSet<&str> = self
            .windows
            .iter()
            .flat_map(|w| w.metrics.iter().map(|(k, _)| k))
            .collect();
        names.into_iter().map(str::to_string).collect()
    }

    /// One series across all windows (missing values read 0).
    pub fn series(&self, name: &str) -> Vec<f64> {
        self.windows.iter().map(|w| w.metrics.get(name)).collect()
    }

    /// An eight-level unicode sparkline of a series, scaled to its own
    /// min/max (a flat non-zero series renders mid-height).
    pub fn sparkline(&self, series: &str) -> String {
        sparkline(&self.series(series))
    }

    /// Renders the windowed CSV: `window,start_ms` then the sorted column
    /// union; missing values are 0. `prefix` columns (e.g. `mode`, `rps`)
    /// are repeated on every row, letting sweep cells concatenate.
    pub fn to_csv(&self, prefix: &[(&str, String)]) -> String {
        let cols = self.column_names();
        let mut out = String::new();
        for (k, _) in prefix {
            let _ = write!(out, "{k},");
        }
        out.push_str("window,start_ms");
        for c in &cols {
            let _ = write!(out, ",{c}");
        }
        out.push('\n');
        for w in &self.windows {
            for (_, v) in prefix {
                let _ = write!(out, "{v},");
            }
            let _ = write!(out, "{},{}", w.index, fmt_num(w.start_ns as f64 / 1e6));
            for c in &cols {
                let _ = write!(out, ",{}", fmt_num(w.metrics.get(c)));
            }
            out.push('\n');
        }
        out
    }

    /// Renders Prometheus text exposition: counter totals, cumulative
    /// log₂ histograms (`_bucket`/`_sum`/`_count` with inclusive `le`
    /// bounds), every windowed column as a timestamped gauge series, and
    /// the SLO burn/budget series labelled by objective. `namespace`
    /// prefixes every family; `labels` ride on every sample.
    pub fn to_prometheus(&self, namespace: &str, labels: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let base = render_labels(labels);

        for (k, v) in self.totals.iter() {
            let name = format!("{namespace}_{}_total", sanitize_metric_name(k));
            let _ = writeln!(out, "# HELP {name} Cumulative {k} over the run.");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{base} {}", fmt_num(v));
        }

        for (k, h) in &self.hists {
            let name = format!("{namespace}_{}", sanitize_metric_name(k));
            let _ = writeln!(out, "# HELP {name} Log2-bucket distribution of {k}.");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let counts = h.bucket_counts();
            let top = counts
                .iter()
                .rposition(|c| *c > 0)
                .map_or(0, |b| b + 1)
                .min(64);
            let mut cum = 0u64;
            for (b, c) in counts.iter().enumerate().take(top) {
                cum += c;
                let le = Histogram::bucket_upper(b);
                let lab = render_labels_with(labels, &[("le", &le.to_string())]);
                let _ = writeln!(out, "{name}_bucket{lab} {cum}");
            }
            let lab = render_labels_with(labels, &[("le", "+Inf")]);
            let _ = writeln!(out, "{name}_bucket{lab} {}", h.count());
            let _ = writeln!(out, "{name}_sum{base} {}", h.sum());
            let _ = writeln!(out, "{name}_count{base} {}", h.count());
        }

        let cols = self.column_names();
        for c in &cols {
            let name = format!("{namespace}_window_{}", sanitize_metric_name(c));
            let _ = writeln!(out, "# HELP {name} Per-window {c} (telemetry series).");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for w in &self.windows {
                let _ = writeln!(
                    out,
                    "{name}{base} {} {}",
                    fmt_num(w.metrics.get(c)),
                    w.start_ns / 1_000_000
                );
            }
        }

        if !self.slo.is_empty() {
            let fam = |out: &mut String, suffix: &str, what: &str| {
                let name = format!("{namespace}_slo_{suffix}");
                let _ = writeln!(out, "# HELP {name} {what}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                name
            };
            let name = fam(
                &mut out,
                "burn_rate",
                "Windowed SLO burn rate (bad fraction over budget fraction).",
            );
            for o in &self.slo {
                for p in &o.points {
                    for (speed, v) in [("fast", p.burn_fast), ("slow", p.burn_slow)] {
                        let lab = render_labels_with(labels, &[("slo", &o.spec), ("speed", speed)]);
                        let _ = writeln!(
                            out,
                            "{name}{lab} {} {}",
                            fmt_num(v),
                            p.window * self.window_ns / 1_000_000
                        );
                    }
                }
            }
            let name = fam(
                &mut out,
                "error_budget_remaining",
                "Error budget left after each window (1 = untouched).",
            );
            for o in &self.slo {
                for p in &o.points {
                    let lab = render_labels_with(labels, &[("slo", &o.spec)]);
                    let _ = writeln!(
                        out,
                        "{name}{lab} {} {}",
                        fmt_num(p.budget_remaining),
                        p.window * self.window_ns / 1_000_000
                    );
                }
            }
        }
        out
    }
}

impl fmt::Display for TelemetryReport {
    /// The compact human summary appended to serve reports: window count,
    /// headline sparklines, and one verdict line per objective.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "telemetry windows={} window={}",
            self.windows.len(),
            SimDuration::from_nanos(self.window_ns)
        )?;
        for series in ["rps", "e2e_ns_p99", "queue_depth_mean", "cache_hit_rate"] {
            let vals = self.series(series);
            if vals.iter().all(|v| *v == 0.0) {
                continue;
            }
            let peak = vals.iter().cloned().fold(0.0f64, f64::max);
            write!(
                f,
                "\n  {series:<16} [{}] peak={}",
                sparkline(&vals),
                fmt_num(peak)
            )?;
        }
        for o in &self.slo {
            write!(
                f,
                "\n  slo {:<16} good={} bad={} budget={} alerts={} [{}] {}",
                o.spec,
                o.good,
                o.bad,
                fmt_num(o.budget_remaining),
                o.alerts,
                o.timeline(),
                if o.met { "MET" } else { "VIOLATED" }
            )?;
        }
        Ok(())
    }
}

/// Renders values as an eight-level sparkline (empty input → empty
/// string; an all-equal series renders flat: `▁` at zero, `▄` otherwise).
pub fn sparkline(vals: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if vals.is_empty() {
        return String::new();
    }
    let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    vals.iter()
        .map(|v| {
            if max <= min {
                if max == 0.0 {
                    BLOCKS[0]
                } else {
                    BLOCKS[3]
                }
            } else {
                let idx = ((v - min) / (max - min) * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

/// Canonical number formatting shared by every emitter: integers print
/// bare, fractions print with up to six decimals, trailing zeros trimmed.
/// Deterministic across platforms (no locale, no shortest-float search).
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// Maps a series name onto the Prometheus metric-name alphabet.
fn sanitize_metric_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for (i, c) in s.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escapes a label value per the exposition format (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    render_labels_with(labels, &[])
}

/// Renders a label set (base labels then extras, in given order), or the
/// empty string when there are none.
fn render_labels_with(labels: &[(&str, &str)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().chain(extra.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn cfg_10ms() -> TelemetryConfig {
        TelemetryConfig::new(SimDuration::from_millis(10))
    }

    #[test]
    fn parse_duration_units() {
        assert_eq!(parse_duration("250ns").unwrap().as_nanos(), 250);
        assert_eq!(parse_duration("500us").unwrap().as_nanos(), 500_000);
        assert_eq!(parse_duration("10ms").unwrap().as_nanos(), 10_000_000);
        assert_eq!(parse_duration("1.5s").unwrap().as_nanos(), 1_500_000_000);
        assert_eq!(parse_duration("123").unwrap().as_nanos(), 123);
        for bad in [
            "",
            "ms",
            "-1ms",
            "0s",
            "inf",
            "10 fortnights",
            "0.4ns",
            "0.0004us",
        ] {
            assert!(parse_duration(bad).is_err(), "{bad:?} must be rejected");
        }
        // Rounding to whole nanoseconds may not reach zero, only one.
        assert_eq!(parse_duration("0.5ns").unwrap().as_nanos(), 1);
    }

    #[test]
    fn slo_spec_parses_and_displays() {
        let spec = SloSpec::parse("p99<500us,avail>99.9").unwrap();
        assert_eq!(spec.objectives.len(), 2);
        assert_eq!(
            spec.objectives[0].kind,
            SloKind::Latency {
                threshold_ns: 500_000
            }
        );
        assert!((spec.objectives[0].target - 0.99).abs() < 1e-12);
        assert_eq!(spec.objectives[1].kind, SloKind::Availability);
        assert!((spec.objectives[1].target - 0.999).abs() < 1e-12);
        assert_eq!(spec.to_string(), "p99<500us,avail>99.9");
        for bad in ["", "p99", "p0<1ms", "p100<1ms", "avail>100", "lat<1ms"] {
            assert!(SloSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn series_fill_their_window_arrays_and_name_distinct_columns() {
        let mut slots: Vec<(bool, bool, usize)> = Vec::new();
        let mut columns = BTreeSet::new();
        for (i, s) in Series::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "ALL is in declaration order");
            let kind = s.kind();
            slots.push((
                kind == SeriesKind::Gauge,
                kind == SeriesKind::Latency,
                s.slot(),
            ));
            for c in s.columns() {
                assert!(columns.insert(*c), "{c} is written twice");
            }
        }
        let want: Vec<(bool, bool, usize)> = (0..SUMS)
            .map(|i| (false, false, i))
            .chain((0..GAUGES).map(|i| (true, false, i)))
            .chain((0..LATENCIES).map(|i| (false, true, i)))
            .collect();
        assert_eq!(slots, want, "sums, then gauges, then latencies");
        assert!(SUMS <= u16::BITS as usize, "a seen bit per sum");
        for derived in ["rps", "cache_hit_rate"] {
            assert!(!columns.contains(derived), "{derived} is derived");
        }
        assert_eq!(Series::SsdBusyNs.columns(), ["ssd_busy_ns", "ssd_occ"]);
        assert_eq!(Series::QueueDepth.name(), "queue_depth");
    }

    #[test]
    #[should_panic(expected = "Offered is not a [Gauge] series")]
    fn a_series_records_only_as_its_kind() {
        TelemetrySampler::new(&cfg_10ms()).gauge(Series::Offered, at(1), 1.0);
    }

    #[test]
    fn windows_cover_makespan_and_fold_counters() {
        let mut s = TelemetrySampler::new(&cfg_10ms());
        s.count(Series::Completed, at(1_000_000));
        s.count(Series::Completed, at(12_000_000));
        s.count(Series::Completed, at(12_500_000));
        let rep = s.finalize(at(25_000_000));
        assert_eq!(rep.windows.len(), 3, "ceil(25ms / 10ms)");
        assert_eq!(rep.windows[0].metrics.get("completed"), 1.0);
        assert_eq!(rep.windows[1].metrics.get("completed"), 2.0);
        assert_eq!(rep.windows[2].metrics.get("completed"), 0.0);
        assert_eq!(rep.totals.get("completed"), 3.0);
        // rps derives from the window length, not the makespan.
        assert_eq!(rep.windows[1].metrics.get("rps"), 200.0);
    }

    #[test]
    fn recording_order_does_not_change_the_report() {
        let build = |order: &[u64]| {
            let mut s = TelemetrySampler::new(&cfg_10ms());
            for &ns in order {
                s.count(Series::Completed, at(ns));
                s.latency(Series::E2eNs, at(ns), ns);
                s.gauge(Series::QueueDepth, at(ns), ns as f64);
            }
            s.finalize(at(20_000_000))
        };
        let fwd = build(&[1_000_000, 5_000_000, 15_000_000]);
        let rev = build(&[15_000_000, 5_000_000, 1_000_000]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.to_csv(&[]), rev.to_csv(&[]));
    }

    #[test]
    fn spans_apportion_across_windows() {
        let mut s = TelemetrySampler::new(&cfg_10ms());
        // 5ms before the boundary, 3ms after.
        s.span(Series::SsdBusyNs, at(5_000_000), at(13_000_000));
        let rep = s.finalize(at(20_000_000));
        assert_eq!(rep.windows[0].metrics.get("ssd_busy_ns"), 5_000_000.0);
        assert_eq!(rep.windows[1].metrics.get("ssd_busy_ns"), 3_000_000.0);
        assert!((rep.windows[0].metrics.get("ssd_occ") - 0.5).abs() < 1e-12);
        assert!((rep.windows[1].metrics.get("ssd_occ") - 0.3).abs() < 1e-12);
        // Degenerate spans record nothing.
        let mut z = TelemetrySampler::new(&cfg_10ms());
        z.span(Series::SsdBusyNs, at(7), at(7));
        assert!(z.finalize(SimTime::ZERO).windows.is_empty());
    }

    #[test]
    fn empty_windows_read_zero_never_nan() {
        let mut s = TelemetrySampler::new(&cfg_10ms());
        s.gauge(Series::QueueDepth, at(1_000_000), 4.0);
        s.count(Series::CacheHits, at(1_000_000));
        s.count(Series::CacheMisses, at(1_000_000));
        let rep = s.finalize(at(30_000_000));
        let w = &rep.windows[2].metrics;
        assert_eq!(w.get("queue_depth_mean"), 0.0);
        assert_eq!(w.get("cache_hit_rate"), 0.0, "no lookups → defined 0.0");
        let csv = rep.to_csv(&[]);
        assert!(!csv.to_lowercase().contains("nan"), "{csv}");
    }

    #[test]
    fn slo_latency_counts_exactly_and_avail_counts_losses() {
        let cfg = TelemetryConfig {
            window: SimDuration::from_millis(10),
            slo: SloSpec::parse("p50<1us,avail>90").unwrap(),
        };
        let mut s = TelemetrySampler::new(&cfg);
        for _ in 0..8 {
            s.served(at(1_000_000), 500); // under threshold
        }
        s.served(at(1_000_000), 2_000); // over threshold
        s.lost(at(1_000_000)); // shed
        let rep = s.finalize(at(10_000_000));
        let lat = &rep.slo[0];
        assert_eq!((lat.good, lat.bad), (8, 1), "latency judges completions");
        let avail = &rep.slo[1];
        assert_eq!((avail.good, avail.bad), (9, 1), "avail counts the loss");
        // p50 target met (8/9 ≥ 0.5); avail target violated (0.9 budget
        // fraction 0.1, bad fraction 0.1 → budget exactly spent).
        assert!(lat.met);
        assert!((avail.budget_remaining - 0.0).abs() < 1e-9);
    }

    #[test]
    fn burn_rates_and_alerts_follow_the_multiwindow_rule() {
        let cfg = TelemetryConfig {
            window: SimDuration::from_millis(10),
            slo: SloSpec::parse("avail>99").unwrap(),
        };
        let mut s = TelemetrySampler::new(&cfg);
        // Window 0 healthy; window 1 catastrophic (50% bad → burn 50).
        for _ in 0..100 {
            s.served(at(1_000_000), 1);
        }
        for _ in 0..50 {
            s.served(at(11_000_000), 1);
            s.lost(at(11_000_000));
        }
        let rep = s.finalize(at(20_000_000));
        let o = &rep.slo[0];
        assert_eq!(o.points[0].burn_fast, 0.0);
        assert!((o.points[1].burn_fast - 50.0).abs() < 1e-9);
        // Slow burn covers both windows: 50 bad / 200 total / 0.01 = 25.
        assert!((o.points[1].burn_slow - 25.0).abs() < 1e-9);
        assert!(o.points[1].alert, "both thresholds exceeded");
        assert_eq!(o.alerts, 1);
        assert_eq!(o.timeline(), "·X");
        assert!(!o.met, "budget overspent");
        assert!(o.budget_remaining < 0.0);
    }

    #[test]
    fn csv_has_stable_sorted_columns_and_prefix() {
        let mut s = TelemetrySampler::new(&cfg_10ms());
        s.count(Series::Shed, at(1));
        s.count(Series::Admitted, at(11_000_000));
        let rep = s.finalize(at(20_000_000));
        let csv = rep.to_csv(&[("mode", "morpheus".into())]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "mode,window,start_ms,admitted,shed");
        assert_eq!(lines.next().unwrap(), "morpheus,0,0,0,1");
        assert_eq!(lines.next().unwrap(), "morpheus,1,10,1,0");
    }

    #[test]
    fn prometheus_grammar_golden() {
        let cfg = TelemetryConfig {
            window: SimDuration::from_millis(10),
            slo: SloSpec::parse("avail>99").unwrap(),
        };
        let mut s = TelemetrySampler::new(&cfg);
        s.count(Series::Completed, at(1_000_000));
        s.served(at(1_000_000), 3);
        s.latency(Series::E2eNs, at(1_000_000), 3);
        s.latency(Series::E2eNs, at(1_000_000), 0);
        let rep = s.finalize(at(10_000_000));
        let text = rep.to_prometheus("morpheus_serve", &[("mode", "morpheus")]);
        // Counter family.
        assert!(
            text.contains("# HELP morpheus_serve_completed_total"),
            "{text}"
        );
        assert!(text.contains("# TYPE morpheus_serve_completed_total counter"));
        assert!(text.contains("morpheus_serve_completed_total{mode=\"morpheus\"} 1"));
        // Histogram family: cumulative buckets with inclusive le bounds.
        assert!(text.contains("# TYPE morpheus_serve_e2e_ns histogram"));
        assert!(text.contains("_bucket{mode=\"morpheus\",le=\"0\"} 1"));
        assert!(text.contains("_bucket{mode=\"morpheus\",le=\"3\"} 2"));
        assert!(text.contains("_bucket{mode=\"morpheus\",le=\"+Inf\"} 2"));
        assert!(text.contains("morpheus_serve_e2e_ns_sum{mode=\"morpheus\"} 3"));
        assert!(text.contains("morpheus_serve_e2e_ns_count{mode=\"morpheus\"} 2"));
        // Windowed gauge with millisecond timestamps.
        assert!(text.contains("# TYPE morpheus_serve_window_rps gauge"));
        assert!(text.contains("morpheus_serve_window_rps{mode=\"morpheus\"} 100 0"));
        // SLO series carry the objective label.
        assert!(text.contains("slo=\"avail>99\""), "{text}");
        assert!(text.contains("morpheus_serve_slo_error_budget_remaining"));
    }

    #[test]
    fn prometheus_bucket_counts_are_cumulative_and_monotone() {
        let mut s = TelemetrySampler::new(&cfg_10ms());
        for v in [1u64, 2, 4, 8, 16, 16, 1000] {
            s.latency(Series::QueueWaitNs, at(1), v);
        }
        let rep = s.finalize(at(10_000_000));
        let text = rep.to_prometheus("m", &[]);
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("m_queue_wait_ns_bucket{le=\"") {
                let v: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(v >= last, "bucket counts must be cumulative: {text}");
                last = v;
                buckets += 1;
            }
        }
        assert!(buckets > 2, "{text}");
        assert_eq!(last, 7, "+Inf bucket equals the count");
    }

    #[test]
    fn label_escaping_is_spec_conformant() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let mut s = TelemetrySampler::new(&cfg_10ms());
        s.count(Series::Offered, at(1));
        let rep = s.finalize(at(10_000_000));
        let text = rep.to_prometheus("m", &[("app", "sv\"c\\1\n2")]);
        assert!(text.contains("app=\"sv\\\"c\\\\1\\n2\""), "{text}");
        assert!(!text.contains("sv\"c"), "raw quote must not survive");
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize_metric_name("e2e_ns_p99"), "e2e_ns_p99");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name("a-b.c"), "a_b_c");
    }

    #[test]
    fn sparkline_levels() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
        let line = sparkline(&[0.0, 1.0, 2.0, 4.0, 8.0]);
        assert_eq!(line.chars().count(), 5);
        assert!(line.starts_with('▁') && line.ends_with('█'));
    }

    #[test]
    fn fmt_num_is_canonical() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(42.0), "42");
        assert_eq!(fmt_num(-3.0), "-3");
        assert_eq!(fmt_num(0.5), "0.5");
        assert_eq!(fmt_num(1.0 / 3.0), "0.333333");
        assert_eq!(fmt_num(-0.25), "-0.25");
    }

    #[test]
    fn display_renders_sparklines_and_verdicts() {
        let cfg = TelemetryConfig {
            window: SimDuration::from_millis(10),
            slo: SloSpec::parse("avail>99").unwrap(),
        };
        let mut s = TelemetrySampler::new(&cfg);
        for w in 0..3u64 {
            for _ in 0..=w {
                let ts = at(w * 10_000_000 + 1);
                s.count(Series::Completed, ts);
                s.served(ts, 100);
            }
        }
        let rep = s.finalize(at(30_000_000));
        let text = rep.to_string();
        assert!(text.starts_with("telemetry windows=3 window=10.000ms"));
        assert!(text.contains("rps"), "{text}");
        assert!(text.contains("slo avail>99"), "{text}");
        assert!(text.contains("MET"), "{text}");
    }
}
