//! Deterministic simulation kernel for the Morpheus reproduction.
//!
//! This crate provides the timing substrate shared by every hardware model in
//! the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`Timeline`] — a FIFO-queued, possibly multi-unit hardware resource
//!   (a CPU core pool, a flash channel, a PCIe link, a DMA engine, ...).
//! * [`Bandwidth`] — converts byte counts into service durations.
//! * [`Metrics`] — a small ordered metric bag used by reports.
//! * [`SplitMix64`] — a tiny deterministic PRNG so lower-level crates do not
//!   need the `rand` dependency.
//! * [`Fnv1a`] — the one stable hash (byte, word and lane folds), and
//!   [`FnvBuild`], which builds it for hash maps.
//! * [`ArrivalProcess`] / [`Zipfian`] — a seeded Poisson stream of request
//!   timestamps and a seeded Zipfian popularity distribution for open-loop
//!   serving experiments.
//! * [`FaultPlan`] / [`FaultDice`] / [`FaultCounters`] — the seeded,
//!   deterministic fault-injection plane (see `docs/FAULT_MODEL.md`).
//! * [`TelemetrySampler`] / [`TelemetryReport`] / [`SloSpec`] — windowed
//!   sim-time telemetry and the SLO / error-budget engine (see
//!   `docs/TELEMETRY.md`).
//!
//! Everything here is deterministic: the same inputs produce the same
//! timings, which the integration suite relies on.
//!
//! # Example
//!
//! ```
//! use morpheus_simcore::{Bandwidth, SimTime, Timeline};
//!
//! // A single-unit 400 MB/s flash channel bus.
//! let mut bus = Timeline::new("flash-bus", 1);
//! let bw = Bandwidth::from_mb_per_s(400.0);
//! let a = bus.acquire(SimTime::ZERO, bw.duration_for(16 * 1024));
//! let b = bus.acquire(SimTime::ZERO, bw.duration_for(16 * 1024));
//! assert_eq!(b.start, a.end); // FIFO queueing
//! ```

#![deny(missing_docs)]

mod arrivals;
mod faults;
mod hash;
mod metrics;
mod rng;
mod telemetry;
mod time;
mod timeline;
mod trace;

pub use arrivals::{ArrivalProcess, ArrivalRateError, Zipfian};
pub use faults::{render_error_chain, FaultCounters, FaultDice, FaultPlan};
pub use hash::{Fnv1a, FnvBuild};
pub use metrics::{Histogram, Metrics};
pub use rng::SplitMix64;
pub use telemetry::{
    fmt_num, parse_duration, sparkline, BudgetPoint, Series, SeriesKind, SloKind, SloObjective,
    SloOutcome, SloSpec, TelemetryConfig, TelemetryReport, TelemetrySampler, TelemetryWindow,
    FAST_BURN_ALERT, SLOW_BURN_ALERT, SLOW_BURN_WINDOWS,
};
pub use time::{round_u64, SimDuration, SimTime};
pub use timeline::{Bandwidth, Interval, Timeline};
pub use trace::{
    fmt_ns, render_trace_diff, TraceAggregate, TraceEvent, TraceEventKind, TraceLayer, TraceLog,
    Tracer,
};
