//! **Morpheus**: creating application objects efficiently for heterogeneous
//! computing — a full reproduction of the ISCA 2016 system.
//!
//! This crate is the paper's contribution layered over the substrate crates:
//!
//! * the **programming model** — [`StorageApp`], the device library
//!   ([`DeviceCtx`] with `ms_memcpy`, work charging, D-SRAM limits), and the
//!   flagship [`DeserializeApp`] (§V);
//! * the **Morpheus-SSD firmware** — [`MorpheusSsd`] executes StorageApps
//!   on the drive's embedded cores behind the four NVMe extension commands
//!   (§IV), pipelining flash page reads with in-SSD parsing;
//! * **NVMe-P2P** — mapping GPU memory into a PCIe BAR so MREAD results DMA
//!   straight into the accelerator (§IV-C);
//! * the **full system** — [`System`] composes host CPU/OS/memory, the
//!   Morpheus-SSD, the GPU, and the PCIe fabric, and executes applications
//!   under three modes ([`Mode::Conventional`], [`Mode::Morpheus`],
//!   [`Mode::MorpheusP2P`]), producing the [`RunReport`]s every figure of
//!   the paper is regenerated from;
//! * **open-loop serving** — [`System::serve`] pushes a seeded arrival
//!   stream through admission, same-app batching, and per-tenant NVMe
//!   queues to find each mode's latency-vs-RPS knee ([`ServeConfig`],
//!   [`ServeReport`]);
//! * the **object cache** — a tiered deserialized-object cache in
//!   controller DRAM with a host-memory spill tier
//!   ([`System::set_object_cache`], [`CacheConfig`], [`ObjectCache`]):
//!   under Zipfian serve traffic a hit skips flash, parsing, and the
//!   embedded cores, paying only PCIe delivery (`docs/CACHE.md`);
//! * **windowed telemetry + SLO engine** — sim-time sampling of the whole
//!   serving plane at a fixed window with burn-rate / error-budget
//!   evaluation; the serve sampler is its only source
//!   ([`ServeConfig::telemetry`], [`TelemetryConfig`],
//!   [`TelemetryReport`], [`SloSpec`] — `docs/TELEMETRY.md`);
//! * the **fleet** — N Morpheus-SSDs behind the switch fabric with a
//!   seeded-deterministic placement layer (round-robin / hash-by-file /
//!   capacity-aware), tenant-aware routing, and fault-aware rebalancing
//!   that drains killed devices onto healthy peers; one SSD is a fleet of
//!   one on the same dispatch path ([`Fleet`], [`FleetConfig`],
//!   [`PlacementPolicy`], [`FleetReport`] — `docs/FLEET.md`).
//!
//! Deserialization is functionally real end to end: bytes live in simulated
//! flash behind a real FTL, StorageApps parse them with the same parser the
//! host baseline uses, and all three modes must produce bit-identical
//! application objects.
//!
//! # Example
//!
//! ```
//! use morpheus::{AppSpec, Mode, ParallelModel, System, SystemParams};
//! use morpheus_format::{FieldKind, Schema};
//!
//! let mut sys = System::new(SystemParams::paper_testbed());
//! sys.create_input_file("edges.txt", b"0 1\n1 2\n2 0\n").unwrap();
//! let spec = AppSpec::cpu_app("demo", "edges.txt",
//!     Schema::new(vec![FieldKind::U32, FieldKind::U32]), 2, 50.0);
//! let conv = sys.run(&spec, Mode::Conventional).unwrap();
//! let morp = sys.run(&spec, Mode::Morpheus).unwrap();
//! // Both modes deserialize the same objects, bit for bit.
//! assert_eq!(conv.report.checksum, morp.report.checksum);
//! assert_eq!(conv.report.records, 3);
//! // (At realistic input sizes the Morpheus run is also faster — see the
//! // fig8 benchmark; a three-line file is dominated by fixed costs.)
//! ```

#![deny(missing_docs)]

mod apps;
mod cache;
mod concurrent;
mod control;
mod deser_memo;
mod exec;
mod faults;
mod firmware;
mod fleet;
mod params;
mod report;
mod runtime;
mod serialize;
mod serve;
mod storage_app;
mod system;

pub use apps::SerializeApp;
pub use cache::{
    format_digest, CacheConfig, CacheHit, CachePolicy, CacheStats, CacheTier, ObjectCache,
};
pub use concurrent::{AppRun, ConcurrentReport, TenantReport};
pub use control::{
    ControlConfig, ControlPlan, ControlReport, DeviceControl, DeviceState, HealPolicy, Health,
    IllegalTransition, Lifecycle, RollingUpdate, Transition, TransitionCounts, DEFAULT_DRAIN,
    DEFAULT_REBOOT, DEFAULT_UPDATE,
};
pub use deser_memo::ReplayStore;
pub use exec::{AppSpec, GpuKernelPerRecord, ParallelModel, RunError, RunOutcome};
pub use firmware::{MorpheusError, MorpheusSsd, MreadOutcome, MwriteOutcome};
pub use fleet::{
    aggregate_reports, DeviceDown, DeviceKill, Fleet, FleetConfig, FleetConfigError, FleetReport,
    PlacementPolicy,
};
pub use params::{CoRunner, StorageKind, SystemParams};
pub use report::{mb_per_sec, Mode, Phases, RunReport, MB};
pub use runtime::{ms_stream_create, CommandPlan, MsStream};
pub use serialize::SerializeReport;
pub use serve::{
    telemetry_windows, ServeConfig, ServePolicy, ServeReport, MAX_RPS, MAX_TELEMETRY_WINDOWS,
    MAX_TENANTS,
};
pub use storage_app::{AppError, DeserializeApp, DeviceCtx, StorageApp};
pub use system::{ChunkIo, System};

// The input encoding an `AppSpec` names lives with its parser.
pub use morpheus_format::InputFormat;

// Re-export the telemetry vocabulary used in public signatures so bench
// code can configure serving telemetry without naming the simcore crate.
pub use morpheus_simcore::{
    SloOutcome, SloSpec, TelemetryConfig, TelemetryReport, TelemetrySampler,
};
