//! Property test: the typed, dense telemetry sampler against the
//! string-keyed one it replaced, kept here verbatim as the oracle (its
//! two `BTreeMap`s of windows and series names, and the `finalize` that
//! formats every derived column name). Both are driven with one random
//! event stream over every series kind: spans crossing several windows,
//! events past the makespan, empty windows, no objectives and both
//! objective kinds, makespans shorter and longer than the data. The
//! reports must be equal, and their `Debug`, `Display`, CSV and
//! Prometheus renderings equal byte for byte.

use morpheus_simcore::{
    BudgetPoint, Histogram, Metrics, Series, SeriesKind, SimDuration, SimTime, SloKind,
    SloObjective, SloOutcome, SloSpec, TelemetryConfig, TelemetryReport, TelemetrySampler,
    TelemetryWindow, FAST_BURN_ALERT, SLOW_BURN_ALERT, SLOW_BURN_WINDOWS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Gauge fold: sum, sample count, max — enough for mean/max columns.
#[derive(Debug, Clone, Copy, Default)]
struct GaugeAgg {
    sum: f64,
    n: u64,
    max: f64,
}

/// One window's raw folds (all commutative, so recording order is moot).
/// Series are keyed by the `'static` names their callers pass, so
/// recording allocates only when a window first sees a series.
#[derive(Debug, Clone, Default)]
struct Bucket {
    counters: BTreeMap<&'static str, f64>,
    gauges: BTreeMap<&'static str, GaugeAgg>,
    hists: BTreeMap<&'static str, Histogram>,
    /// Per-objective (good, bad) event counts.
    slo: Vec<(u64, u64)>,
}

/// Buckets events into fixed sim-time windows during a run.
///
/// All recording methods take the sim-time the event belongs to; the
/// sampler never consults wall-clock state, so a run's telemetry is a
/// pure function of the simulation.
#[derive(Debug, Clone)]
pub struct OracleSampler {
    window: SimDuration,
    slo: Vec<SloObjective>,
    buckets: BTreeMap<u64, Bucket>,
}

impl OracleSampler {
    /// Creates a sampler for the given config.
    ///
    /// # Panics
    ///
    /// Panics on a zero window (a config bug, not a run outcome).
    pub fn new(cfg: &TelemetryConfig) -> Self {
        assert!(!cfg.window.is_zero(), "telemetry window must be non-zero");
        OracleSampler {
            window: cfg.window,
            slo: cfg.slo.objectives.clone(),
            buckets: BTreeMap::new(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    fn widx(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.window.as_nanos()
    }

    /// The bucket of window `w`, made on first use with one (good, bad)
    /// slot per objective.
    fn bucket_of(buckets: &mut BTreeMap<u64, Bucket>, w: u64, objectives: usize) -> &mut Bucket {
        buckets.entry(w).or_insert_with(|| Bucket {
            slo: vec![(0, 0); objectives],
            ..Bucket::default()
        })
    }

    fn bucket(&mut self, at: SimTime) -> &mut Bucket {
        let w = self.widx(at);
        Self::bucket_of(&mut self.buckets, w, self.slo.len())
    }

    /// Adds `v` to a windowed counter series at `at`.
    pub fn add(&mut self, series: &'static str, at: SimTime, v: f64) {
        *self.bucket(at).counters.entry(series).or_insert(0.0) += v;
    }

    /// Increments a windowed counter series at `at`.
    pub fn count(&mut self, series: &'static str, at: SimTime) {
        self.add(series, at, 1.0);
    }

    /// Samples a gauge (queue depth, ring occupancy) at `at`. The window
    /// reports its mean and max; a window with no samples reports 0.
    pub fn gauge(&mut self, series: &'static str, at: SimTime, v: f64) {
        let g = self.bucket(at).gauges.entry(series).or_default();
        g.sum += v;
        g.n += 1;
        g.max = g.max.max(v);
    }

    /// Records a latency sample into the window holding `at` (the window
    /// exports `_p50/_p95/_p99/_max/_count` columns and the run keeps a
    /// cumulative merge for histogram exposition).
    pub fn latency(&mut self, series: &'static str, at: SimTime, ns: u64) {
        self.bucket(at).hists.entry(series).or_default().record(ns);
    }

    /// Attributes a busy span to a `*_busy_ns` counter, apportioned
    /// pro-rata across every window it overlaps. Windows derive a sibling
    /// `*_occ` occupancy column (busy ns per window ns; can exceed 1.0
    /// when parallel lanes overlap).
    pub fn span(&mut self, series: &'static str, start: SimTime, end: SimTime) {
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
        let w = self.widx(at);
        let b = Self::bucket_of(&mut self.buckets, w, self.slo.len());
        for (i, o) in self.slo.iter().enumerate() {
            let good = match o.kind {
                SloKind::Latency { threshold_ns } => e2e_ns <= threshold_ns,
                SloKind::Availability => true,
            };
            if good {
                b.slo[i].0 += 1;
            } else {
                b.slo[i].1 += 1;
            }
        }
    }

    /// Books one request that never completed (shed or failed): bad for
    /// availability objectives, invisible to latency objectives (which
    /// judge only completed requests).
    pub fn lost(&mut self, at: SimTime) {
        let w = self.widx(at);
        let b = Self::bucket_of(&mut self.buckets, w, self.slo.len());
        for (i, o) in self.slo.iter().enumerate() {
            if o.kind == SloKind::Availability {
                b.slo[i].1 += 1;
            }
        }
    }

    /// Folds the buckets into a report covering `ceil(makespan / window)`
    /// windows (at least enough to hold every recorded event).
    pub fn finalize(&self, makespan: SimTime) -> TelemetryReport {
        let win = self.window.as_nanos();
        let span_windows = makespan.as_nanos().div_ceil(win);
        let data_windows = self.buckets.keys().next_back().map_or(0, |w| w + 1);
        let nwin = span_windows.max(data_windows);
        let win_s = self.window.as_secs_f64();
        let empty = Bucket::default();

        // Column conventions derived once, from any window that saw data.
        let derives_rps = self
            .buckets
            .values()
            .any(|b| b.counters.contains_key("completed"));
        let derives_hit_rate = self.buckets.values().any(|b| {
            b.counters.contains_key("cache_hits") || b.counters.contains_key("cache_misses")
        });

        let mut windows = Vec::with_capacity(nwin as usize);
        let mut totals = Metrics::new();
        let mut hists: BTreeMap<&str, Histogram> = BTreeMap::new();
        for w in 0..nwin {
            let b = self.buckets.get(&w).unwrap_or(&empty);
            let mut m = Metrics::new();
            for (k, v) in &b.counters {
                m.set(k, *v);
                totals.add(k, *v);
                if let Some(base) = k.strip_suffix("_busy_ns") {
                    m.set(&format!("{base}_occ"), *v / win as f64);
                }
            }
            for (k, g) in &b.gauges {
                m.set(
                    &format!("{k}_mean"),
                    if g.n > 0 { g.sum / g.n as f64 } else { 0.0 },
                );
                m.set(&format!("{k}_max"), g.max);
            }
            for (k, h) in &b.hists {
                h.export(k, &mut m);
                hists.entry(k).or_default().merge(h);
            }
            if derives_rps {
                m.set("rps", m.get("completed") / win_s);
            }
            if derives_hit_rate {
                let (hits, misses) = (m.get("cache_hits"), m.get("cache_misses"));
                let total = hits + misses;
                m.set(
                    "cache_hit_rate",
                    if total > 0.0 { hits / total } else { 0.0 },
                );
            }
            windows.push(TelemetryWindow {
                index: w,
                start_ns: w * win,
                metrics: m,
            });
        }

        let slo = self
            .slo
            .iter()
            .enumerate()
            .map(|(i, o)| self.evaluate(i, o, nwin))
            .collect();

        TelemetryReport {
            window_ns: win,
            windows,
            totals,
            hists: hists.into_iter().map(|(k, h)| (k.to_string(), h)).collect(),
            slo,
        }
    }

    /// Evaluates one objective over the full window range.
    fn evaluate(&self, idx: usize, o: &SloObjective, nwin: u64) -> SloOutcome {
        let budget = 1.0 - o.target;
        let per_win: Vec<(u64, u64)> = (0..nwin)
            .map(|w| self.buckets.get(&w).map_or((0, 0), |b| b.slo[idx]))
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

/// Objective lists the streams are judged by: none, each kind alone, and
/// both together.
const SPECS: [&str; 5] = [
    "",
    "p99<20us",
    "avail>99.9",
    "p90<15us,avail>99",
    "avail>50,p50<1us,p99.9<100us",
];

fn config(window_ns: u64, spec: &str) -> TelemetryConfig {
    TelemetryConfig {
        window: SimDuration::from_nanos(window_ns),
        slo: if spec.is_empty() {
            SloSpec::none()
        } else {
            SloSpec::parse(spec).expect("the specs parse")
        },
    }
}

/// Records one event into both samplers: `call` 0 books a served
/// request, 1 a lost one, and the rest record `series` by its kind; `at`
/// stamps the event and `x` is its value, latency or span length.
fn record(
    new: &mut TelemetrySampler,
    old: &mut OracleSampler,
    series: Series,
    call: u8,
    at: u64,
    x: u64,
) {
    let (name, t) = (series.name(), SimTime::from_nanos(at));
    match (call, series.kind()) {
        (0, _) => {
            new.served(t, x);
            old.served(t, x);
        }
        (1, _) => {
            new.lost(t);
            old.lost(t);
        }
        (2, SeriesKind::Counter) => {
            new.count(series, t);
            old.count(name, t);
        }
        (_, SeriesKind::Counter) => {
            let v = x as f64 / 4.0;
            new.add(series, t, v);
            old.add(name, t, v);
        }
        (2, SeriesKind::Span) => {
            new.add(series, t, x as f64);
            old.add(name, t, x as f64);
        }
        (_, SeriesKind::Span) => {
            let end = SimTime::from_nanos(at + x);
            new.span(series, t, end);
            old.span(name, t, end);
        }
        (_, SeriesKind::Gauge) => {
            let v = x as f64 / 4.0;
            new.gauge(series, t, v);
            old.gauge(name, t, v);
        }
        (_, SeriesKind::Latency) => {
            new.latency(series, t, x);
            old.latency(name, t, x);
        }
    }
}

/// Fails unless the two reports are equal and render the same bytes.
fn same_report(new: &TelemetryReport, old: &TelemetryReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
    prop_assert_eq!(new, old);
    prop_assert_eq!(new.to_string(), old.to_string());
    let prefix = [("mode", "morpheus".to_string())];
    prop_assert_eq!(new.to_csv(&prefix), old.to_csv(&prefix));
    let labels = [("mode", "morpheus")];
    prop_assert_eq!(
        new.to_prometheus("morpheus", &labels),
        old.to_prometheus("morpheus", &labels)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any stream of events folds into the oracle's report: the same
    /// windows, columns, values, totals, histograms and SLO timelines.
    #[test]
    fn typed_windows_fold_like_the_string_keyed_oracle(
        window_ns in 5_000u64..50_000,
        spec in 0usize..SPECS.len(),
        events in proptest::collection::vec(
            (0..Series::ALL.len(), 0u8..8, 0u64..400_000, 0u64..200_000),
            0..160,
        ),
        makespan in 0u64..500_000,
    ) {
        let cfg = config(window_ns, SPECS[spec]);
        let (mut new, mut old) = (TelemetrySampler::new(&cfg), OracleSampler::new(&cfg));
        for &(series, call, at, x) in &events {
            record(&mut new, &mut old, Series::ALL[series], call, at, x);
        }
        prop_assert_eq!(new.window(), old.window());
        let makespan = SimTime::from_nanos(makespan);
        same_report(&new.finalize(makespan), &old.finalize(makespan))?;
    }
}

/// Every series in one window, plus one event far past a short makespan:
/// every column and derived column appears, and the windows between are
/// empty.
#[test]
fn every_series_matches_the_oracle_across_empty_windows() {
    let cfg = config(10_000, "p99<20us,avail>99.9");
    let (mut new, mut old) = (TelemetrySampler::new(&cfg), OracleSampler::new(&cfg));
    for (i, series) in Series::ALL.into_iter().enumerate() {
        for call in 0..4 {
            record(&mut new, &mut old, series, call, 3_000 + i as u64, 25_000);
        }
    }
    record(&mut new, &mut old, Series::Completed, 2, 95_000, 1);
    let (a, b) = (new.finalize(SimTime::ZERO), old.finalize(SimTime::ZERO));
    assert_eq!(a.windows.len(), 10);
    assert!(a.windows[5].metrics.contains("rps"));
    assert!(a.windows[0].metrics.contains("cache_hit_rate"));
    same_report(&a, &b).unwrap();
}
