//! Structured, span-level event tracing across every simulated layer.
//!
//! The run reports ([`Metrics`](crate::Metrics), the figure binaries'
//! tables) answer *how long* a run took; this module answers *where the
//! time went*. A [`Tracer`] handle is threaded through the run context and
//! every hardware model records typed [`TraceEvent`]s in **sim-time**:
//! host syscall/context-switch activity (`host`), NVMe command lifecycles
//! (`nvme`), FTL map/GC operations (`ftl`), flash channel occupancy
//! (`flash`), StorageApp firmware phases (`ssd`), and PCIe DMA transfers
//! (`pcie`).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A disabled tracer is a `None`; every
//!    record call is a single branch, and no formatting or allocation
//!    happens. Components hold a [`Tracer`] by value (it is a cheap
//!    clone) and never check an environment variable or a global.
//! 2. **Deterministic.** Events are recorded in simulation order, which
//!    is deterministic, and the exporters produce canonical output —
//!    byte-identical across runs, worker counts, and platforms.
//! 3. **Standard output format.** [`TraceLog::to_chrome_json`] emits
//!    Chrome trace-event JSON loadable in Perfetto or `chrome://tracing`,
//!    one process per layer and one track per simulated resource.
//!
//! # Example
//!
//! ```
//! use morpheus_simcore::{SimTime, TraceLayer, Tracer};
//!
//! let tracer = Tracer::enabled();
//! tracer.span(
//!     TraceLayer::Flash,
//!     "ch0-cell",
//!     "read",
//!     SimTime::ZERO,
//!     SimTime::from_nanos(50_000),
//! );
//! let log = tracer.take();
//! assert_eq!(log.len(), 1);
//! let json = log.to_chrome_json();
//! assert!(json.contains("\"cat\":\"flash\""));
//! // The exporter round-trips through the bundled parser (the diff tool).
//! let back = morpheus_simcore::TraceLog::from_chrome_json(&json).unwrap();
//! assert_eq!(back.len(), 1);
//! ```

use crate::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The simulated layer an event belongs to (one Chrome-trace "process").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLayer {
    /// Host CPU: syscalls, parse loops, completion interrupts.
    Host,
    /// NVMe command lifecycle on the I/O queue (submit → complete).
    Nvme,
    /// Flash translation layer: map lookups/updates, garbage collection.
    Ftl,
    /// Flash array: per-channel cell access and bus transfers.
    Flash,
    /// StorageApp firmware on the embedded cores: dispatch, parse, pack.
    Ssd,
    /// PCIe fabric DMA transfers (host-bound and peer-to-peer).
    Pcie,
}

impl TraceLayer {
    /// All layers, in canonical (pid) order.
    pub const ALL: [TraceLayer; 6] = [
        TraceLayer::Host,
        TraceLayer::Nvme,
        TraceLayer::Ftl,
        TraceLayer::Flash,
        TraceLayer::Ssd,
        TraceLayer::Pcie,
    ];

    /// Stable lowercase name (the Chrome-trace `cat` field).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLayer::Host => "host",
            TraceLayer::Nvme => "nvme",
            TraceLayer::Ftl => "ftl",
            TraceLayer::Flash => "flash",
            TraceLayer::Ssd => "ssd",
            TraceLayer::Pcie => "pcie",
        }
    }

    /// Parses the name produced by [`as_str`](TraceLayer::as_str).
    pub fn parse(s: &str) -> Option<TraceLayer> {
        TraceLayer::ALL.into_iter().find(|l| l.as_str() == s)
    }

    /// The Chrome-trace process id for this layer (1-based, stable).
    fn pid(self) -> usize {
        1 + TraceLayer::ALL.iter().position(|l| *l == self).unwrap()
    }
}

impl std::fmt::Display for TraceLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether an event covers a window of sim-time or marks an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A duration event (Chrome-trace `ph:"X"`).
    Span,
    /// A point event (Chrome-trace `ph:"i"`).
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The layer (Chrome-trace process) the event belongs to.
    pub layer: TraceLayer,
    /// The resource row within the layer (e.g. `ch0-cell`, `ssd-core1`).
    pub track: String,
    /// What happened (e.g. `read`, `MREAD`, `parse`, `dma-p2p`).
    pub name: String,
    /// Start of the event in sim-time nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// Span or instant.
    pub kind: TraceEventKind,
    /// Optional payload size (DMA bytes, parsed bytes, relocated bytes).
    pub bytes: Option<u64>,
}

impl TraceEvent {
    /// End of the event in sim-time nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// FNV-1a, as a [`std::hash::Hasher`], for the intern table: track/name
/// strings are a few bytes, where SipHash's setup cost dominates.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;

/// A recorded event in interned form: `track`/`name` are string-table ids,
/// so recording allocates nothing in steady state. 40 bytes per event vs
/// two heap strings; resolved to [`TraceEvent`]s only at export time.
#[derive(Debug, Clone, Copy)]
struct CompactEvent {
    layer: TraceLayer,
    kind: TraceEventKind,
    track: u32,
    name: u32,
    start_ns: u64,
    dur_ns: u64,
    bytes: Option<u64>,
}

/// The shared trace buffer: interned events plus the per-tracer string
/// table. The table only grows (ids stay valid across [`Tracer::take`]),
/// and it stays small — tracks and names are drawn from a fixed set of
/// layer resources and verbs.
#[derive(Debug, Default)]
struct TraceBuf {
    events: Vec<CompactEvent>,
    strings: Vec<Arc<str>>,
    ids: std::collections::HashMap<Arc<str>, u32, FnvBuild>,
}

impl TraceBuf {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("string table overflow");
        let owned: Arc<str> = s.into();
        self.strings.push(owned.clone());
        self.ids.insert(owned, id);
        id
    }

    fn materialize(&self, ev: &CompactEvent) -> TraceEvent {
        TraceEvent {
            layer: ev.layer,
            track: self.strings[ev.track as usize].as_ref().to_string(),
            name: self.strings[ev.name as usize].as_ref().to_string(),
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
            kind: ev.kind,
            bytes: ev.bytes,
        }
    }
}

/// A shared handle for recording trace events.
///
/// Cloning is cheap (an `Arc` bump); all clones append to one log. A
/// disabled tracer ([`Tracer::disabled`], also [`Default`]) makes every
/// record call a no-op branch — components can hold one unconditionally.
///
/// Internally events are slab-stored in interned form: the record path
/// performs two string-table lookups and a 40-byte push, no allocation.
/// The owned-`String` [`TraceEvent`]s the public API exposes are
/// materialized lazily by [`take`](Tracer::take).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceBuf>>>,
}

impl Tracer {
    /// A tracer that records nothing at (almost) zero cost.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer that records into a fresh shared log.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::default()),
        }
    }

    /// True if events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        layer: TraceLayer,
        track: &str,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        kind: TraceEventKind,
        bytes: Option<u64>,
    ) {
        if let Some(log) = &self.inner {
            let mut buf = log.lock().expect("tracer lock poisoned");
            let track = buf.intern(track);
            let name = buf.intern(name);
            buf.events.push(CompactEvent {
                layer,
                kind,
                track,
                name,
                start_ns,
                dur_ns,
                bytes,
            });
        }
    }

    /// Records a span covering `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end` is before `start` (simulated time never runs
    /// backwards; that indicates a scheduling bug).
    #[inline]
    pub fn span(&self, layer: TraceLayer, track: &str, name: &str, start: SimTime, end: SimTime) {
        if self.inner.is_none() {
            return;
        }
        self.record(
            layer,
            track,
            name,
            start.as_nanos(),
            end.duration_since(start).as_nanos(),
            TraceEventKind::Span,
            None,
        );
    }

    /// Records a span carrying a payload size.
    #[inline]
    pub fn span_bytes(
        &self,
        layer: TraceLayer,
        track: &str,
        name: &str,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) {
        if self.inner.is_none() {
            return;
        }
        self.record(
            layer,
            track,
            name,
            start.as_nanos(),
            end.duration_since(start).as_nanos(),
            TraceEventKind::Span,
            Some(bytes),
        );
    }

    /// Records an instant event.
    #[inline]
    pub fn instant(&self, layer: TraceLayer, track: &str, name: &str, at: SimTime) {
        if self.inner.is_none() {
            return;
        }
        self.record(
            layer,
            track,
            name,
            at.as_nanos(),
            0,
            TraceEventKind::Instant,
            None,
        );
    }

    /// Records an instant event carrying a payload size.
    #[inline]
    pub fn instant_bytes(
        &self,
        layer: TraceLayer,
        track: &str,
        name: &str,
        at: SimTime,
        bytes: u64,
    ) {
        if self.inner.is_none() {
            return;
        }
        self.record(
            layer,
            track,
            name,
            at.as_nanos(),
            0,
            TraceEventKind::Instant,
            Some(bytes),
        );
    }

    /// Drains all recorded events into a [`TraceLog`] (empty if disabled).
    /// The string table survives the drain, so later events keep their
    /// interned ids.
    pub fn take(&self) -> TraceLog {
        let events = match &self.inner {
            Some(log) => {
                let mut buf = log.lock().expect("tracer lock poisoned");
                let compact = std::mem::take(&mut buf.events);
                compact.iter().map(|e| buf.materialize(e)).collect()
            }
            None => Vec::new(),
        };
        TraceLog { events }
    }

    /// Number of events currently recorded (zero when disabled). Cheap —
    /// no clone — so callers can bookmark a position in the log.
    pub fn recorded(&self) -> usize {
        match &self.inner {
            Some(log) => log.lock().expect("tracer lock poisoned").events.len(),
            None => 0,
        }
    }
}

/// A completed run's events, ready for export or analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// The events, in recording order.
    pub events: Vec<TraceEvent>,
}

/// Aggregate of one `(layer, track, name)` event class (used by the diff
/// tool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceAggregate {
    /// Events of this class.
    pub count: u64,
    /// Summed span duration, nanoseconds.
    pub total_ns: u64,
}

impl TraceLog {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The layers that recorded at least one event, in canonical order.
    pub fn layers_present(&self) -> Vec<TraceLayer> {
        TraceLayer::ALL
            .into_iter()
            .filter(|l| self.events.iter().any(|e| e.layer == *l))
            .collect()
    }

    /// The latest event end, nanoseconds (the trace horizon).
    pub fn end_ns(&self) -> u64 {
        self.events
            .iter()
            .map(TraceEvent::end_ns)
            .max()
            .unwrap_or(0)
    }

    /// Aggregates events per `(layer, track, name)` class, so per-track
    /// structure (the `serve`, `cache`, and `telemetry` tracks, per-core
    /// firmware rows, flash channels) survives into the diff table.
    pub fn aggregate_tracks(&self) -> BTreeMap<(TraceLayer, String, String), TraceAggregate> {
        let mut out: BTreeMap<(TraceLayer, String, String), TraceAggregate> = BTreeMap::new();
        for e in &self.events {
            let a = out
                .entry((e.layer, e.track.clone(), e.name.clone()))
                .or_default();
            a.count += 1;
            a.total_ns += e.dur_ns;
        }
        out
    }

    /// Canonical event order for export: by start time, then recording
    /// order (the sort is stable). Determinism of the export follows from
    /// determinism of the simulation.
    fn sorted_events(&self) -> Vec<&TraceEvent> {
        let mut evs: Vec<&TraceEvent> = self.events.iter().collect();
        evs.sort_by_key(|e| e.start_ns);
        evs
    }

    /// Track ids per layer: tracks sorted by name, tid 1-based.
    fn track_ids(&self) -> BTreeMap<(TraceLayer, &str), usize> {
        let mut per_layer: BTreeMap<TraceLayer, Vec<&str>> = BTreeMap::new();
        for e in &self.events {
            let tracks = per_layer.entry(e.layer).or_default();
            if !tracks.contains(&e.track.as_str()) {
                tracks.push(&e.track);
            }
        }
        let mut ids = BTreeMap::new();
        for (layer, mut tracks) in per_layer {
            tracks.sort_unstable();
            for (i, t) in tracks.into_iter().enumerate() {
                ids.insert((layer, t), i + 1);
            }
        }
        ids
    }

    /// Exports Chrome trace-event JSON: one process per layer, one thread
    /// per resource track, `X` events for spans and `i` for instants.
    /// Timestamps are microseconds (the format's unit); the output is
    /// canonical and byte-deterministic for a given event sequence.
    ///
    /// Load the file in [Perfetto](https://ui.perfetto.dev) or
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let ids = self.track_ids();
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n ");
        };
        // Metadata: process names (layers), then thread names (tracks).
        for layer in TraceLayer::ALL {
            if !self.events.iter().any(|e| e.layer == layer) {
                continue;
            }
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                layer.pid(),
                layer.as_str()
            );
        }
        let mut named: Vec<(&TraceLayer, &(TraceLayer, &str), &usize)> = Vec::new();
        for (key, tid) in &ids {
            named.push((&key.0, key, tid));
        }
        for (layer, (_, track), tid) in named {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                layer.pid(),
                tid,
                escape_json(track)
            );
        }
        for e in self.sorted_events() {
            let tid = ids[&(e.layer, e.track.as_str())];
            sep(&mut out);
            let ts = e.start_ns as f64 / 1e3;
            match e.kind {
                TraceEventKind::Span => {
                    let dur = e.dur_ns as f64 / 1e3;
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"{}\"",
                        e.layer.pid(),
                        tid,
                        ts,
                        dur,
                        e.layer.as_str(),
                        escape_json(&e.name)
                    );
                }
                TraceEventKind::Instant => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"cat\":\"{}\",\"name\":\"{}\"",
                        e.layer.pid(),
                        tid,
                        ts,
                        e.layer.as_str(),
                        escape_json(&e.name)
                    );
                }
            }
            // args carry the track (for lossless re-import) and payload.
            let _ = write!(out, ",\"args\":{{\"track\":\"{}\"", escape_json(&e.track));
            if let Some(b) = e.bytes {
                let _ = write!(out, ",\"bytes\":{b}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a trace exported by [`to_chrome_json`](TraceLog::to_chrome_json)
    /// (tolerant of any spec-conforming trace that keeps `cat` a layer
    /// name). Powers the `trace --diff` tool without an external JSON
    /// dependency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_chrome_json(text: &str) -> Result<TraceLog, String> {
        let root = json::parse(text)?;
        let events_json = match &root {
            json::Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| v)
                .ok_or("missing traceEvents array")?,
            json::Value::Array(_) => &root,
            _ => return Err("trace root must be an object or array".into()),
        };
        let json::Value::Array(items) = events_json else {
            return Err("traceEvents must be an array".into());
        };
        let mut events = Vec::new();
        for item in items {
            let json::Value::Object(fields) = item else {
                return Err("trace event must be an object".into());
            };
            let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            let ph = match get("ph") {
                Some(json::Value::String(s)) => s.as_str(),
                _ => continue,
            };
            let kind = match ph {
                "X" => TraceEventKind::Span,
                "i" | "I" => TraceEventKind::Instant,
                _ => continue, // metadata and other phases
            };
            let layer = match get("cat") {
                Some(json::Value::String(s)) => {
                    TraceLayer::parse(s).ok_or_else(|| format!("unknown trace layer {s:?}"))?
                }
                _ => return Err("event missing cat".into()),
            };
            let name = match get("name") {
                Some(json::Value::String(s)) => s.clone(),
                _ => return Err("event missing name".into()),
            };
            let ts = match get("ts") {
                Some(json::Value::Number(n)) => *n,
                _ => return Err("event missing ts".into()),
            };
            let dur = match (kind, get("dur")) {
                (TraceEventKind::Span, Some(json::Value::Number(n))) => *n,
                (TraceEventKind::Span, _) => return Err("span missing dur".into()),
                (TraceEventKind::Instant, _) => 0.0,
            };
            let (track, bytes) = match get("args") {
                Some(json::Value::Object(args)) => {
                    let track =
                        args.iter()
                            .find(|(k, _)| k == "track")
                            .and_then(|(_, v)| match v {
                                json::Value::String(s) => Some(s.clone()),
                                _ => None,
                            });
                    let bytes =
                        args.iter()
                            .find(|(k, _)| k == "bytes")
                            .and_then(|(_, v)| match v {
                                json::Value::Number(n) => Some(*n as u64),
                                _ => None,
                            });
                    (track, bytes)
                }
                _ => (None, None),
            };
            events.push(TraceEvent {
                layer,
                track: track.unwrap_or_else(|| "?".into()),
                name,
                start_ns: (ts * 1e3).round() as u64,
                dur_ns: (dur * 1e3).round() as u64,
                kind,
                bytes,
            });
        }
        Ok(TraceLog { events })
    }

    /// Renders the compact per-resource summary: one row per track with
    /// event count, busy time, utilization over the trace horizon, and an
    /// occupancy strip (`█` busy, `▒` partial, `·` idle).
    pub fn summary(&self, width: usize) -> String {
        assert!(width > 0, "summary width must be positive");
        let end = self.end_ns().max(1);
        // (layer, track) -> (count, busy, cover)
        let mut rows: BTreeMap<(TraceLayer, &str), (u64, u64, Vec<f64>)> = BTreeMap::new();
        for e in &self.events {
            let row = rows
                .entry((e.layer, &e.track))
                .or_insert_with(|| (0, 0, vec![0.0; width]));
            row.0 += 1;
            row.1 += e.dur_ns;
            let s = e.start_ns as f64 / end as f64 * width as f64;
            let t = e.end_ns() as f64 / end as f64 * width as f64;
            if e.start_ns == e.end_ns() {
                let c = (s.floor() as usize).min(width - 1);
                row.2[c] = row.2[c].max(0.25);
                continue;
            }
            let lo = s.floor() as usize;
            let hi = (t.ceil() as usize).min(width);
            for (c, slot) in row.2.iter_mut().enumerate().take(hi).skip(lo) {
                let overlap = (t.min(c as f64 + 1.0) - s.max(c as f64)).max(0.0);
                *slot += overlap;
            }
        }
        let label_w = rows
            .keys()
            .map(|(l, t)| l.as_str().len() + 1 + t.len())
            .max()
            .unwrap_or(10)
            .max(10);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} events over {}, {} layers",
            self.len(),
            fmt_ns(end),
            self.layers_present().len()
        );
        let _ = writeln!(
            out,
            "{:label_w$}  {:>7}  {:>10}  {:>6}  occupancy",
            "layer/track", "events", "busy", "util%"
        );
        for ((layer, track), (count, busy, cover)) in &rows {
            let strip: String = cover
                .iter()
                .map(|c| {
                    if *c >= 0.75 {
                        '█'
                    } else if *c >= 0.25 {
                        '▒'
                    } else {
                        '·'
                    }
                })
                .collect();
            let label = format!("{}/{}", layer.as_str(), track);
            let _ = writeln!(
                out,
                "{:label_w$}  {:>7}  {:>10}  {:>6.1}  {}",
                label,
                count,
                fmt_ns(*busy),
                *busy as f64 / end as f64 * 100.0,
                strip
            );
        }
        out
    }
}

/// Renders a per-layer/per-track/per-event-class delta table between two
/// traces (the `trace --diff a.json b.json` output). Every track either
/// trace recorded gets its own rows, so a regression confined to one
/// resource (a single flash channel, the `cache` track, the `telemetry`
/// instants) is visible instead of averaged away.
pub fn render_trace_diff(a: &TraceLog, b: &TraceLog) -> String {
    let agg_a = a.aggregate_tracks();
    let agg_b = b.aggregate_tracks();
    let mut keys: Vec<&(TraceLayer, String, String)> = agg_a.keys().chain(agg_b.keys()).collect();
    keys.sort();
    keys.dedup();
    let track_w = keys.iter().map(|k| k.1.len()).max().unwrap_or(5).max(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<track_w$} {:<16} {:>9} {:>9} {:>11} {:>11} {:>12} {:>8}",
        "layer", "track", "event", "count a", "count b", "time a", "time b", "delta", "delta%"
    );
    let (mut tot_a, mut tot_b) = (0u64, 0u64);
    for key in keys {
        let a = agg_a.get(key).copied().unwrap_or_default();
        let b = agg_b.get(key).copied().unwrap_or_default();
        tot_a += a.total_ns;
        tot_b += b.total_ns;
        let _ = writeln!(
            out,
            "{:<6} {:<track_w$} {:<16} {:>9} {:>9} {:>11} {:>11} {:>12} {:>8}",
            key.0.as_str(),
            key.1,
            key.2,
            a.count,
            b.count,
            fmt_ns(a.total_ns),
            fmt_ns(b.total_ns),
            fmt_delta_ns(a.total_ns, b.total_ns),
            fmt_delta_pct(a.total_ns, b.total_ns),
        );
    }
    let _ = writeln!(
        out,
        "{:<6} {:<track_w$} {:<16} {:>9} {:>9} {:>11} {:>11} {:>12} {:>8}",
        "TOTAL",
        "",
        "",
        a.len(),
        b.len(),
        fmt_ns(tot_a),
        fmt_ns(tot_b),
        fmt_delta_ns(tot_a, tot_b),
        fmt_delta_pct(tot_a, tot_b),
    );
    out
}

/// Formats nanoseconds with an adaptive unit (`ns`, `us`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

fn fmt_delta_ns(a: u64, b: u64) -> String {
    if b >= a {
        format!("+{}", fmt_ns(b - a))
    } else {
        format!("-{}", fmt_ns(a - b))
    }
}

fn fmt_delta_pct(a: u64, b: u64) -> String {
    if a == 0 {
        return if b == 0 { "0.0%".into() } else { "new".into() };
    }
    format!("{:+.1}%", (b as f64 - a as f64) / a as f64 * 100.0)
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A minimal JSON parser — just enough to re-read exported traces (and
/// any spec-conforming trace-event file) without a serde dependency,
/// which the offline build environment does not have.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let s = &b[*pos..];
                    let ch_len = match s[0] {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&s[..ch_len]).expect("valid utf-8"));
                    *pos += ch_len;
                }
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, parse_value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.span(TraceLayer::Host, "cpu", "parse", at(0), at(10));
        t.instant(TraceLayer::Ftl, "map", "gc", at(5));
        assert!(t.take().is_empty());
    }

    #[test]
    fn clones_share_one_log() {
        let t = Tracer::enabled();
        let u = t.clone();
        t.span(TraceLayer::Host, "cpu", "a", at(0), at(1));
        u.span(TraceLayer::Pcie, "link", "b", at(1), at(2));
        let log = t.take();
        assert_eq!(log.len(), 2);
        assert!(u.take().is_empty(), "take drains the shared log");
    }

    #[test]
    fn layers_present_in_canonical_order() {
        let t = Tracer::enabled();
        t.span(TraceLayer::Pcie, "link", "dma", at(0), at(1));
        t.span(TraceLayer::Host, "cpu", "parse", at(0), at(1));
        let log = t.take();
        assert_eq!(
            log.layers_present(),
            vec![TraceLayer::Host, TraceLayer::Pcie]
        );
        assert_eq!(log.end_ns(), 1);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn backwards_span_panics() {
        let t = Tracer::enabled();
        t.span(TraceLayer::Host, "cpu", "bad", at(10), at(5));
    }

    #[test]
    fn chrome_json_round_trips() {
        let t = Tracer::enabled();
        t.span_bytes(
            TraceLayer::Flash,
            "ch0-cell",
            "read",
            at(100),
            at(600),
            8192,
        );
        t.instant(TraceLayer::Ftl, "map", "gc", at(250));
        t.span(TraceLayer::Ssd, "ssd-core1", "parse", at(600), at(900));
        let log = t.take();
        let json = log.to_chrome_json();
        let back = TraceLog::from_chrome_json(&json).expect("round trip");
        // Round trip preserves the multiset of events (order is canonical).
        assert_eq!(back.len(), log.len());
        assert_eq!(back.aggregate_tracks(), log.aggregate_tracks());
        let read = &back.events.iter().find(|e| e.name == "read").unwrap();
        assert_eq!(read.bytes, Some(8192));
        assert_eq!(read.start_ns, 100);
        assert_eq!(read.dur_ns, 500);
        assert_eq!(read.track, "ch0-cell");
    }

    #[test]
    fn chrome_json_is_deterministic_and_has_metadata() {
        let build = || {
            let t = Tracer::enabled();
            t.span(TraceLayer::Nvme, "ioq1", "MREAD", at(0), at(50));
            t.span(TraceLayer::Nvme, "ioq1", "MREAD", at(50), at(80));
            t.take().to_chrome_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"thread_name\""));
        assert!(a.contains("\"ph\":\"X\""));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TraceLog::from_chrome_json("not json").is_err());
        assert!(TraceLog::from_chrome_json("{\"traceEvents\":3}").is_err());
        assert!(TraceLog::from_chrome_json("{}").is_err());
        // Trailing garbage is flagged rather than ignored.
        assert!(TraceLog::from_chrome_json("{\"traceEvents\":[]} x").is_err());
    }

    #[test]
    fn parser_accepts_empty_trace() {
        let log = TraceLog::from_chrome_json("{\"traceEvents\":[]}").unwrap();
        assert!(log.is_empty());
        // Bare-array form is also valid per the spec.
        assert!(TraceLog::from_chrome_json("[]").unwrap().is_empty());
    }

    #[test]
    fn summary_shows_tracks_and_utilization() {
        let t = Tracer::enabled();
        t.span(TraceLayer::Flash, "ch0-cell", "read", at(0), at(50));
        t.instant(TraceLayer::Ftl, "map", "gc", at(99));
        let s = t.take().summary(20);
        assert!(s.contains("flash/ch0-cell"), "{s}");
        assert!(s.contains("ftl/map"), "{s}");
        assert!(s.contains('█'), "{s}");
        assert!(s.contains('▒'), "instants mark their cell: {s}");
    }

    #[test]
    fn diff_reports_deltas() {
        let t = Tracer::enabled();
        t.span(TraceLayer::Flash, "ch0-cell", "read", at(0), at(100));
        let a = t.take();
        let t = Tracer::enabled();
        t.span(TraceLayer::Flash, "ch0-cell", "read", at(0), at(150));
        t.span(TraceLayer::Pcie, "ssd-tx", "dma-p2p", at(0), at(10));
        let b = t.take();
        let d = render_trace_diff(&a, &b);
        assert!(d.contains("+50.0%"), "{d}");
        assert!(d.contains("dma-p2p"), "{d}");
        assert!(d.contains("new"), "{d}");
        assert!(d.contains("TOTAL"), "{d}");
    }

    #[test]
    fn diff_covers_every_registered_track() {
        // One event per track across the layers serve-time traces use,
        // including the cache track and the telemetry window instants:
        // each must get its own row in the delta table and the summary.
        let tracks = [
            (TraceLayer::Host, "serve", "request"),
            (TraceLayer::Host, "telemetry", "window"),
            (TraceLayer::Ssd, "cache", "hit-dram"),
            (TraceLayer::Ssd, "ssd-core1", "parse"),
            (TraceLayer::Flash, "ch0-cell", "read"),
            (TraceLayer::Nvme, "ioq2", "MREAD"),
        ];
        let t = Tracer::enabled();
        for (layer, track, name) in tracks {
            t.span(layer, track, name, at(0), at(10));
        }
        let log = t.take();
        let diff = render_trace_diff(&log, &log);
        let summary = log.summary(20);
        for (layer, track, _) in tracks {
            assert!(
                diff.contains(track),
                "track {track:?} missing from diff:\n{diff}"
            );
            let row = format!("{}/{}", layer.as_str(), track);
            assert!(
                summary.contains(&row),
                "row {row:?} missing from summary:\n{summary}"
            );
        }
        assert!(diff.contains("track"), "diff must carry a track column");
        // Same-track same-name events on different tracks stay separate.
        let agg = log.aggregate_tracks();
        assert_eq!(agg.len(), tracks.len());
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(50_000), "50.00us");
        assert_eq!(fmt_ns(50_000_000), "50.00ms");
        assert_eq!(fmt_ns(50_000_000_000), "50.000s");
    }

    #[test]
    fn escaped_names_round_trip() {
        let t = Tracer::enabled();
        t.span(TraceLayer::Host, "cpu\"0\"", "a\\b", at(0), at(1));
        let json = t.take().to_chrome_json();
        let back = TraceLog::from_chrome_json(&json).unwrap();
        assert_eq!(back.events[0].track, "cpu\"0\"");
        assert_eq!(back.events[0].name, "a\\b");
    }
}
