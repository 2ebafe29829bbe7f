//! Multi-SSD fleet: placement-aware serving across N Morpheus-SSDs.
//!
//! The paper evaluates one Morpheus-SSD; a datacenter serves millions of
//! users from racks of them behind PCIe switch fabrics. [`Fleet`]
//! generalizes the single-[`System`] simulator into N devices — each a
//! full Morpheus-SSD with its own NVMe queues, [`AdminController`]
//! (created per device inside [`System::serve_requests`]), admission
//! queue, flash array, FTL, embedded cores, and PCIe link — plus a
//! placement layer that assigns tenants to devices and a router that
//! sends each request to its tenant's device, draining degraded devices
//! onto healthy peers.
//!
//! Determinism contract (see `docs/FLEET.md`): placement is keyed by a
//! *seeded hash of the tenant's input file* (or a pure function of the
//! tenant index), never by arrival order or device load at arrival time,
//! so the assignment — and therefore every byte of every per-device
//! report — is a pure function of (seed, app list, fleet config). The
//! offered load is the *same* global stream a single SSD would see
//! ([`offered_requests`]); a fleet run partitions it, so `--devices 1`
//! reproduces the single-SSD reports bit for bit.
//!
//! [`AdminController`]: morpheus_nvme::AdminController

use crate::cache::{CacheConfig, CacheStats};
use crate::control::{ControlConfig, ControlPlan, ControlReport};
use crate::exec::{AppSpec, RunError};
use crate::serve::{offered_requests, validate_serve_cfg, Request, ServeConfig, ServeReport};
use crate::{ReplayStore, System, SystemParams};
use morpheus_simcore::{
    FaultPlan, Fnv1a, Metrics, SimDuration, SimTime, SplitMix64, TraceEvent, TraceEventKind,
    TraceLayer, Tracer,
};
use morpheus_ssd::{BoundaryPages, SsdError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// How the placement layer assigns tenants (and their input files) to
/// devices. Every policy is a pure, seeded function of the app list —
/// never of arrival order — so fleet runs stay byte-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Tenant `i` lives on device `i % N`. Perfectly even tenant counts,
    /// oblivious to file sizes.
    RoundRobin,
    /// Device = seeded hash of the tenant's input-file name, mod N. Two
    /// tenants sharing a file always land together, and the assignment
    /// survives tenant-list reordering.
    HashByFile,
    /// Files are placed in tenant order, each onto the device with the
    /// fewest placed bytes so far (ties break on the lowest device id).
    /// Balances bytes instead of tenant counts.
    CapacityAware,
}

impl PlacementPolicy {
    /// Parses the CLI spelling (`rr`/`round-robin`, `hash`, `capacity`).
    pub fn parse(s: &str) -> Option<PlacementPolicy> {
        match s {
            "rr" | "round-robin" => Some(PlacementPolicy::RoundRobin),
            "hash" => Some(PlacementPolicy::HashByFile),
            "capacity" => Some(PlacementPolicy::CapacityAware),
            _ => None,
        }
    }
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::HashByFile => "hash",
            PlacementPolicy::CapacityAware => "capacity",
        })
    }
}

/// A scheduled device death: from `at` onward the device admits nothing;
/// requests already dispatched to it drain to completion (the operator's
/// "drain then pull" shape). Produced by the fleet-level fault plane
/// (`--kill-device DEV@SECS`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceKill {
    /// Which device dies.
    pub device: usize,
    /// When it dies (sim-time).
    pub at: SimTime,
}

impl DeviceKill {
    /// Parses `DEV@SECS`, e.g. `2@0.01` (device 2 dies 10 ms in).
    /// Seconds may be zero: a device dead at t=0 is dead at admission
    /// time for every request.
    pub fn parse(s: &str) -> Result<DeviceKill, String> {
        let (dev, secs) = s
            .split_once('@')
            .ok_or_else(|| format!("expected DEV@SECS, got {s:?}"))?;
        let device: usize = dev
            .parse()
            .map_err(|_| format!("expected a device index, got {dev:?}"))?;
        let at: f64 = secs
            .parse()
            .map_err(|_| format!("expected seconds, got {secs:?}"))?;
        if !at.is_finite() || at < 0.0 {
            return Err(format!("kill time must be finite and >= 0, got {secs:?}"));
        }
        Ok(DeviceKill {
            device,
            at: SimTime::ZERO + SimDuration::from_secs_f64(at),
        })
    }
}

/// Fleet shape and the fleet-level fault plane.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of Morpheus-SSDs behind the switch.
    pub devices: usize,
    /// Tenant→device assignment policy.
    pub placement: PlacementPolicy,
    /// Seed for the placement hash (decorrelated from the serve seed so
    /// re-seeding traffic never migrates data).
    pub seed: u64,
    /// Scheduled device deaths (see [`DeviceKill`]).
    pub kills: Vec<DeviceKill>,
    /// Control-plane intent: rolling updates and kill healing (inactive
    /// by default — see [`ControlConfig`]).
    pub control: ControlConfig,
}

impl FleetConfig {
    /// A fleet of `devices` SSDs with the default hash placement, seed
    /// 42, no scheduled kills, and the control plane off.
    pub fn new(devices: usize) -> Self {
        FleetConfig {
            devices,
            placement: PlacementPolicy::HashByFile,
            seed: 42,
            kills: Vec::new(),
            control: ControlConfig::default(),
        }
    }

    /// Checks the config for internal consistency: at least one device,
    /// and every kill naming a device inside the fleet.
    ///
    /// # Errors
    ///
    /// The first [`FleetConfigError`] found. CLIs surface it at parse
    /// time and exit 2; library callers get it from
    /// [`Fleet::try_new`].
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.devices == 0 {
            return Err(FleetConfigError::NoDevices);
        }
        for k in &self.kills {
            if k.device >= self.devices {
                return Err(FleetConfigError::KillOutOfRange {
                    device: k.device,
                    devices: self.devices,
                });
            }
        }
        Ok(())
    }
}

/// A fleet configuration that cannot describe a real fleet. Returned by
/// [`FleetConfig::validate`] / [`Fleet::try_new`] at config build time,
/// so an out-of-range kill spec fails loudly instead of silently never
/// matching a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// Zero devices.
    NoDevices,
    /// A kill names a device index outside the fleet.
    KillOutOfRange {
        /// The device the kill names.
        device: usize,
        /// How many devices the fleet has.
        devices: usize,
    },
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::NoDevices => write!(f, "a fleet needs at least one device"),
            FleetConfigError::KillOutOfRange { device, devices } => write!(
                f,
                "kill names device {device} but the fleet has {devices} \
                 (valid indices are 0..={})",
                devices - 1
            ),
        }
    }
}

impl Error for FleetConfigError {}

/// The typed admission-time routing failure: a request's placement target
/// was already dead when it arrived and every rebalance candidate was
/// dead too. Carried by [`RunError::DeviceDown`] so binaries exit 1 with
/// a rendered cause chain instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDown {
    /// The placement target.
    pub device: usize,
    /// When the fleet fault plane killed it, seconds.
    pub killed_at_s: f64,
    /// The request's arrival time, seconds.
    pub at_s: f64,
}

impl fmt::Display for DeviceDown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "placement target device {} was killed at {:.6}s and no healthy peer \
             remains for the request arriving at {:.6}s",
            self.device, self.killed_at_s, self.at_s
        )
    }
}

impl Error for DeviceDown {}

/// N simulated Morpheus-SSDs behind the PCIe switch fabric, with
/// placement-aware request routing and fault-aware rebalancing.
///
/// Each device is a full [`System`]: its own flash array, FTL, embedded
/// cores, NVMe front end, per-tenant submission queues, admission queue,
/// object cache, and telemetry sampler. Staged files are replicated to
/// every device (replication is the availability story that lets a
/// drained device's traffic land on any healthy peer; placement chooses
/// the *serving* device). See `docs/FLEET.md`.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    devices: Vec<System>,
    /// The control plan the last serve executed (kept so
    /// [`take_merged_trace`](Fleet::take_merged_trace) can emit the
    /// lifecycle track); `None` until a control-active serve runs.
    ctl_plan: Option<ControlPlan>,
}

impl Fleet {
    /// Builds `cfg.devices` identical Morpheus-SSD systems.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config — zero devices or a kill naming a
    /// device outside the fleet. Library callers that want the typed
    /// error use [`Fleet::try_new`]; the CLIs validate at parse time and
    /// exit 2.
    pub fn new(params: SystemParams, cfg: FleetConfig) -> Self {
        Fleet::try_new(params, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the fleet, rejecting an inconsistent config with a typed
    /// [`FleetConfigError`] instead of panicking. The devices share one
    /// fresh [`ReplayStore`]: every device stages the same files, so one
    /// device's recordings replay on the others.
    ///
    /// # Errors
    ///
    /// Whatever [`FleetConfig::validate`] finds — zero devices, or a
    /// kill spec naming a device outside the fleet.
    pub fn try_new(params: SystemParams, cfg: FleetConfig) -> Result<Self, FleetConfigError> {
        cfg.validate()?;
        let devices = (0..cfg.devices)
            .map(|_| System::new(params.clone()))
            .collect();
        let mut fleet = Fleet {
            cfg,
            devices,
            ctl_plan: None,
        };
        fleet.set_replay_store(Some(Arc::default()));
        Ok(fleet)
    }

    /// Shares `store` with every device, or with `None` turns the memo
    /// off fleet-wide (see [`System::set_replay_store`]).
    pub fn set_replay_store(&mut self, store: Option<Arc<ReplayStore>>) {
        for d in &mut self.devices {
            d.set_replay_store(store.clone());
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// One device, immutably.
    pub fn device(&self, i: usize) -> &System {
        &self.devices[i]
    }

    /// One device, mutably (e.g. to install a per-device fault plan —
    /// the PR-3 fault plane scoped to a single fleet member).
    pub fn device_mut(&mut self, i: usize) -> &mut System {
        &mut self.devices[i]
    }

    /// Stages a file on **every** device (full replication; see the type
    /// docs), replacing a name that exists as
    /// [`System::create_input_file`] does. Untimed. `data` is copied once
    /// into one image that every replica's whole pages view, and each page
    /// the file shares with a neighbour is merged once: every replica
    /// whose merge comes out byte for byte the same programs a view of
    /// that page ([`Ssd::load_image`](morpheus_ssd::Ssd::load_image)),
    /// and a replica whose bytes differ builds its own. Pages are
    /// immutable, so sharing them cannot couple the devices; each still
    /// reads and writes through its own FTL.
    ///
    /// # Errors
    ///
    /// Propagates the first device's filesystem or drive error.
    pub fn create_input_file(&mut self, name: &str, data: &[u8]) -> Result<(), SsdError> {
        let image = Arc::from(data);
        let mut merged = BoundaryPages::default();
        for d in &mut self.devices {
            d.stage_image(name, &image, &mut merged)?;
        }
        Ok(())
    }

    /// Replaces a staged file's bytes on every device: the same as
    /// [`create_input_file`](Fleet::create_input_file), which invalidates
    /// any cached objects parsed from the old bytes and discards the old
    /// pages (see [`System::create_input_file`]).
    ///
    /// # Errors
    ///
    /// Propagates the first device's filesystem or drive error.
    pub fn overwrite_input_file(&mut self, name: &str, data: &[u8]) -> Result<(), SsdError> {
        self.create_input_file(name, data)
    }

    /// Installs the same fault plan on every device (use
    /// [`device_mut`](Fleet::device_mut) to degrade a single member).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for d in &mut self.devices {
            d.set_fault_plan(plan);
        }
    }

    /// Installs an object cache of this shape on every device. Each
    /// device caches independently — cached objects live in *its*
    /// controller DRAM, charged against *its* accounting.
    pub fn set_object_cache(&mut self, cfg: CacheConfig) {
        for d in &mut self.devices {
            d.set_object_cache(cfg);
        }
    }

    /// Arms a fresh enabled tracer on every device. Each device records
    /// into its own log; [`take_merged_trace`](Fleet::take_merged_trace)
    /// re-homes them onto per-device tracks.
    pub fn enable_tracing(&mut self) {
        for d in &mut self.devices {
            d.set_tracer(Tracer::enabled());
        }
    }

    /// Drains every device's trace into one log. With more than one
    /// device each event's track is prefixed `dev<K>/`, so Perfetto shows
    /// one row group per fleet member; a single-device fleet keeps the
    /// legacy track names (byte-identical to the pre-fleet export).
    ///
    /// When the last serve ran with the control plane active, the
    /// executed lifecycle timeline is appended as instant events on
    /// `ctl/dev<K>` tracks (one row group for the whole control plane),
    /// one event per state entered.
    pub fn take_merged_trace(&self) -> morpheus_simcore::TraceLog {
        let mut merged = morpheus_simcore::TraceLog::default();
        let solo = self.devices.len() == 1;
        let traced = self.devices.iter().any(|d| d.tracer().is_enabled());
        for (i, d) in self.devices.iter().enumerate() {
            let mut log = d.tracer().take();
            if !solo {
                for ev in &mut log.events {
                    ev.track = format!("dev{i}/{}", ev.track);
                }
            }
            merged.events.extend(log.events);
        }
        if let (true, Some(plan)) = (traced, &self.ctl_plan) {
            for dev in 0..plan.devices() {
                for t in plan.timeline(dev) {
                    merged.events.push(TraceEvent {
                        layer: TraceLayer::Host,
                        track: format!("ctl/dev{dev}"),
                        name: t.to.to_string(),
                        start_ns: t.at.as_nanos(),
                        dur_ns: 0,
                        kind: TraceEventKind::Instant,
                        bytes: None,
                    });
                }
            }
        }
        merged
    }

    /// The devices placement may target: every device, minus any that
    /// the kill schedule declares dead at t=0 *permanently* (no heal
    /// policy to bring them back). Placing a tenant on a device that can
    /// never admit a single request just taxes every arrival with the
    /// rebalance scan — the dead-device placement bug. When the whole
    /// fleet is dead at t=0 the full device list is returned so serving
    /// fails with the usual typed [`DeviceDown`] error.
    fn placement_candidates(&self) -> Vec<usize> {
        let healing = self.cfg.control.heal.is_some();
        let eligible: Vec<usize> = (0..self.devices.len())
            .filter(|&d| healing || self.killed_at(d) != Some(SimTime::ZERO))
            .collect();
        if eligible.is_empty() {
            (0..self.devices.len()).collect()
        } else {
            eligible
        }
    }

    /// The tenant→device assignment the configured policy produces for
    /// this app list. Pure and seeded: same (policy, seed, apps, fleet
    /// size, kill schedule) ⇒ same placement, regardless of traffic.
    /// Devices dead at t=0 with no heal policy receive no tenants.
    pub fn placement(&self, apps: &[AppSpec]) -> Vec<usize> {
        let cand = self.placement_candidates();
        let n = cand.len() as u64;
        match self.cfg.placement {
            PlacementPolicy::RoundRobin => (0..apps.len()).map(|i| cand[i % n as usize]).collect(),
            PlacementPolicy::HashByFile => apps
                .iter()
                .map(|a| {
                    // The SplitMix64 finalizer diffuses the (file hash ^
                    // seed) key so nearby names don't land on nearby devices.
                    let key = Fnv1a::hash_bytes(a.input.as_bytes()) ^ self.cfg.seed;
                    cand[(SplitMix64::new(key).next_u64() % n) as usize]
                })
                .collect(),
            PlacementPolicy::CapacityAware => {
                // Greedy least-bytes-first over tenants in list order;
                // a file shared by several tenants is placed (and its
                // bytes counted) once.
                let mut placed_bytes = vec![0u64; cand.len()];
                let mut by_file: std::collections::HashMap<&str, usize> =
                    std::collections::HashMap::new();
                let mut out = Vec::with_capacity(apps.len());
                for a in apps {
                    if let Some(&d) = by_file.get(a.input.as_str()) {
                        out.push(d);
                        continue;
                    }
                    let len = self.devices[0]
                        .fs
                        .open(&a.input)
                        .map(|m| m.len)
                        .unwrap_or(0);
                    let slot = placed_bytes
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, b)| (**b, *i))
                        .map(|(i, _)| i)
                        .expect("fleet has at least one candidate");
                    placed_bytes[slot] += len;
                    by_file.insert(a.input.as_str(), cand[slot]);
                    out.push(cand[slot]);
                }
                out
            }
        }
    }

    /// When `device` dies per the kill schedule (`None` = never).
    pub fn killed_at(&self, device: usize) -> Option<SimTime> {
        self.cfg
            .kills
            .iter()
            .filter(|k| k.device == device)
            .map(|k| k.at)
            .min()
    }

    /// Routes one arrival: the placement target if it admits at `at`,
    /// else the first admitting peer scanning upward from it
    /// (deterministic in the fleet config alone — the control plan is
    /// compiled before any request is routed). `Err` carries the typed
    /// admission-time failure when no device admits.
    fn route(&self, plan: &ControlPlan, primary: usize, at: SimTime) -> Result<usize, DeviceDown> {
        let n = self.devices.len();
        for step in 0..n {
            let d = (primary + step) % n;
            if plan.admits(d, at) {
                return Ok(d);
            }
        }
        Err(DeviceDown {
            device: primary,
            killed_at_s: plan
                .down_since(primary, at)
                .map_or(0.0, |t| t.as_secs_f64()),
            at_s: at.as_secs_f64(),
        })
    }

    /// Runs one open-loop serving experiment over the whole fleet.
    ///
    /// The offered load is the exact global stream one SSD would see;
    /// each request routes to its tenant's placed device (or a healthy
    /// peer if that device is dead at arrival — counted in
    /// [`FleetReport::rebalanced`]), and every device then serves its
    /// slice through the single-SSD dispatcher: per-device admission
    /// queue, same-app batching, per-tenant NVMe queues, per-device
    /// telemetry windows. A fleet of one takes the same path: its one
    /// slice is the whole stream and [`aggregate_reports`] returns its one
    /// report unchanged, so it reproduces [`System::serve`] byte for byte.
    ///
    /// # Errors
    ///
    /// [`RunError::NoTenants`] on an empty app list,
    /// [`RunError::DeviceDown`] when a request finds every device dead,
    /// plus everything [`System::serve`] can return.
    ///
    /// # Panics
    ///
    /// Panics on config-bug serve parameters, like [`System::serve`].
    pub fn serve(&mut self, apps: &[AppSpec], cfg: &ServeConfig) -> Result<FleetReport, RunError> {
        if apps.is_empty() {
            return Err(RunError::NoTenants);
        }
        validate_serve_cfg(cfg);
        let placement = self.placement(apps);
        let control_on = self.cfg.control.is_active();
        let n = self.devices.len();
        let horizon = SimTime::ZERO + SimDuration::from_secs_f64(cfg.duration_s);
        let plan = ControlPlan::compile(&self.cfg.control, n, &self.cfg.kills, horizon);
        let mut slices: Vec<Vec<Request>> = vec![Vec::new(); n];
        let mut rebalanced = 0u64;
        let reqs = offered_requests(cfg, apps.len());
        let routed = reqs.len() as u64;
        for r in reqs {
            let primary = placement[r.app];
            let d = self
                .route(&plan, primary, r.arrival)
                .map_err(RunError::DeviceDown)?;
            if d != primary {
                rebalanced += 1;
            }
            slices[d].push(r);
        }
        let mut per_device = Vec::with_capacity(n);
        for (d, slice) in slices.into_iter().enumerate() {
            per_device.push(self.devices[d].serve_requests(apps, cfg, slice)?);
        }
        let aggregate = aggregate_reports(&per_device);
        // The fleet-wide request ledger: every routed request is offered
        // to exactly one device, and completed, shed or failed there.
        debug_assert_eq!(aggregate.offered, routed, "routed requests lost");
        debug_assert_eq!(
            aggregate.completed + aggregate.shed + aggregate.failed,
            aggregate.offered,
            "fleet request ledger out of balance"
        );
        let control = control_on.then(|| ControlReport::build(&plan, &per_device));
        self.ctl_plan = control_on.then_some(plan);
        Ok(FleetReport {
            policy: self.cfg.placement,
            placement,
            rebalanced,
            aggregate,
            per_device,
            control,
        })
    }
}

/// Everything measured during one fleet serve run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The placement policy in force.
    pub policy: PlacementPolicy,
    /// Tenant→device assignment used for routing.
    pub placement: Vec<usize>,
    /// Requests routed away from a dead placement target onto a healthy
    /// peer.
    pub rebalanced: u64,
    /// The fleet-wide roll-up (see [`aggregate_reports`] for exactly
    /// which fields sum, merge, or recompute).
    pub aggregate: ServeReport,
    /// Each device's own full serve report, in device order.
    pub per_device: Vec<ServeReport>,
    /// Lifecycle transitions and per-device health verdicts, present only
    /// when the run had the control plane active (so control-off reports
    /// render byte-identically to pre-control builds).
    pub control: Option<ControlReport>,
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet devices={} placement={} rebalanced={}",
            self.per_device.len(),
            self.policy,
            self.rebalanced
        )?;
        for (i, r) in self.per_device.iter().enumerate() {
            writeln!(
                f,
                "device {i}: offered={} completed={} shed={} failed={} \
                 sustained_rps={:.1} p99_us={:.1}",
                r.offered,
                r.completed,
                r.shed,
                r.failed,
                r.sustained_rps,
                r.e2e_ns.p99() as f64 / 1e3
            )?;
        }
        if let Some(c) = &self.control {
            write!(f, "{c}")?;
        }
        write!(f, "aggregate:\n{}", self.aggregate)
    }
}

/// Rolls per-device serve reports into one fleet-wide report: counters
/// sum, histograms merge, the makespan is the slowest device's, and the
/// rates (`sustained_rps`, `aggregate_mbs`) are recomputed over that
/// fleet makespan — the number an operator sees at the load balancer.
/// Checksums fold in device order (`checksum`) and commutatively
/// (`checksum_unordered`); per-device telemetry stays in the per-device
/// reports. `ssd_core_utilization` is the per-device makespan-weighted
/// mean, so a device that died early (and idled thereafter) doesn't drag
/// the fleet number down as if it had run the whole time.
///
/// One report is its own aggregate: a fleet of one reports exactly what
/// its device measured, telemetry included.
pub fn aggregate_reports(per_device: &[ServeReport]) -> ServeReport {
    let first = match per_device {
        [] => panic!("aggregate of an empty fleet"),
        [only] => return only.clone(),
        [first, ..] => first,
    };
    let mut agg = ServeReport::empty(first.mode, first.policy, first.target_rps, first.duration_s);
    let mut mb = 0.0f64;
    let mut util = 0.0f64;
    let mut util_weight = 0.0f64;
    for r in per_device {
        agg.offered += r.offered;
        agg.admitted += r.admitted;
        agg.completed += r.completed;
        agg.shed += r.shed;
        agg.overflow_fallbacks += r.overflow_fallbacks;
        agg.fault_redispatches += r.fault_redispatches;
        agg.failed += r.failed;
        agg.batches += r.batches;
        agg.commands += r.commands;
        agg.doorbell_writes += r.doorbell_writes;
        agg.makespan_s = agg.makespan_s.max(r.makespan_s);
        agg.records += r.records;
        agg.checksum = agg.checksum.rotate_left(1) ^ r.checksum;
        agg.checksum_unordered = agg.checksum_unordered.wrapping_add(r.checksum_unordered);
        agg.queue_wait_ns.merge(&r.queue_wait_ns);
        agg.service_ns.merge(&r.service_ns);
        agg.e2e_ns.merge(&r.e2e_ns);
        agg.faults.merge(&r.faults);
        if let Some(c) = &r.cache {
            agg.cache.get_or_insert_with(CacheStats::default).merge(c);
        }
        // aggregate_mbs is bytes/makespan per device; undo the division
        // to sum bytes, then re-divide by the fleet makespan below.
        mb += r.aggregate_mbs * r.makespan_s;
        // Utilization weighted by each device's busy window: an
        // early-killed device was only measurable while it ran, so its
        // (near-idle) number must not count like a full-run device's.
        util += r.metrics.get("ssd_core_utilization") * r.makespan_s;
        util_weight += r.makespan_s;
    }
    if agg.makespan_s > 0.0 {
        agg.sustained_rps = agg.completed as f64 / agg.makespan_s;
        agg.aggregate_mbs = mb / agg.makespan_s;
    }
    let mut metrics = Metrics::new();
    metrics.set("fleet_devices", per_device.len() as f64);
    metrics.set(
        "ssd_core_utilization",
        if util_weight > 0.0 {
            util / util_weight
        } else {
            0.0
        },
    );
    agg.queue_wait_ns.export("queue_wait_ns", &mut metrics);
    agg.service_ns.export("service_ns", &mut metrics);
    agg.e2e_ns.export("e2e_ns", &mut metrics);
    if let Some(c) = &agg.cache {
        metrics.set("cache_hits", c.hits as f64);
        metrics.set("cache_misses", c.misses as f64);
        metrics.set("cache_hit_rate", c.hit_rate());
    }
    agg.metrics = metrics;
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Mode;
    use morpheus_format::{FieldKind, Schema, TextWriter};
    use morpheus_ssd::PageData;

    fn edge_text(n: u32, salt: u64) -> Vec<u8> {
        let mut w = TextWriter::new();
        for i in 0..n as u64 {
            w.write_u64((i * 7 + salt) % 100_000);
            w.sep();
            w.write_u64((i * 13 + salt) % 100_000);
            w.newline();
        }
        w.into_bytes()
    }

    fn fleet_with(cfg: FleetConfig, napps: usize, records: u32) -> (Fleet, Vec<AppSpec>) {
        let mut fleet = Fleet::new(SystemParams::paper_testbed(), cfg);
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
        let mut specs = Vec::new();
        for i in 0..napps {
            let name = format!("svc{i}");
            let file = format!("{name}.txt");
            fleet
                .create_input_file(&file, &edge_text(records, i as u64))
                .unwrap();
            specs.push(AppSpec::cpu_app(&name, &file, schema.clone(), 1, 50.0));
        }
        (fleet, specs)
    }

    fn bytes(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 7 + salt) % 251) as u8).collect()
    }

    /// The pages `name` starts or ends inside of on `sys`, and the stored
    /// payload of each.
    fn boundary_pages(sys: &mut System, name: &str) -> Vec<(u64, PageData)> {
        let meta = sys.fs.open(name).unwrap();
        let start = meta.extents[0].slba;
        let end = start + meta.total_blocks();
        let lbas = sys.mssd.dev.lbas_per_page();
        [start, end]
            .into_iter()
            .filter(|lba| lba % lbas != 0)
            .map(|lba| {
                let lpn = lba / lbas;
                let pages = sys.mssd.dev.read_range_untimed(lpn * lbas, lbas).unwrap();
                (lpn, pages[0].data().cloned().expect("a mapped page"))
            })
            .collect()
    }

    /// Three files whose boundaries fall inside pages, but for `a`'s start.
    fn staged() -> Vec<(&'static str, Vec<u8>)> {
        [("a", 50_001), ("b", 70_003), ("c", 33_333)]
            .map(|(name, len)| (name, bytes(len, len)))
            .into()
    }

    #[test]
    fn replicas_share_each_boundary_page() {
        let mut fleet = Fleet::new(SystemParams::paper_testbed(), FleetConfig::new(4));
        let files = staged();
        for (name, data) in &files {
            fleet.create_input_file(name, data).unwrap();
        }
        let mut shared = 0;
        for (name, data) in &files {
            let first = boundary_pages(fleet.device_mut(0), name);
            for d in 0..4 {
                let pages = boundary_pages(fleet.device_mut(d), name);
                assert_eq!(pages.len(), first.len());
                for ((lpn, page), (lpn0, page0)) in pages.iter().zip(&first) {
                    assert_eq!(lpn, lpn0);
                    assert!(PageData::ptr_eq(page, page0), "{name} page {lpn} on {d}");
                    shared += 1;
                }
                assert_eq!(fleet.device_mut(d).read_file_bytes(name).unwrap(), *data);
            }
        }
        assert_eq!(shared, 4 * 5, "a starts aligned; five boundaries");
    }

    #[test]
    fn a_diverged_replica_merges_its_own_boundary_pages() {
        let mut fleet = Fleet::new(SystemParams::paper_testbed(), FleetConfig::new(4));
        let extra = bytes(1_000, 9);
        fleet
            .device_mut(0)
            .create_input_file("extra", &extra)
            .unwrap();
        let files = staged();
        for (name, data) in &files {
            fleet.create_input_file(name, data).unwrap();
        }
        for (name, data) in &files {
            let own = boundary_pages(fleet.device_mut(0), name);
            let peer = boundary_pages(fleet.device_mut(1), name);
            for (_, page) in &own {
                assert!(peer.iter().all(|(_, p)| !PageData::ptr_eq(page, p)));
            }
            for d in 2..4 {
                for ((_, page), (_, p)) in
                    boundary_pages(fleet.device_mut(d), name).iter().zip(&peer)
                {
                    assert!(
                        PageData::ptr_eq(page, p),
                        "{name} on {d}: the peers still share"
                    );
                }
            }
            for d in 0..4 {
                assert_eq!(fleet.device_mut(d).read_file_bytes(name).unwrap(), *data);
            }
        }
        assert_eq!(fleet.device_mut(0).read_file_bytes("extra").unwrap(), extra);
    }

    fn quick_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::new(4000.0, 0.02);
        cfg.mode = Mode::Morpheus;
        cfg
    }

    #[test]
    fn single_device_fleet_matches_solo_system_bit_for_bit() {
        let (mut fleet, specs) = fleet_with(FleetConfig::new(1), 3, 500);
        let cfg = quick_cfg();
        let fleet_rep = fleet.serve(&specs, &cfg).unwrap();

        let mut solo = System::new(SystemParams::paper_testbed());
        for i in 0..3 {
            solo.create_input_file(&format!("svc{i}.txt"), &edge_text(500, i as u64))
                .unwrap();
        }
        let solo_rep = solo.serve(&specs, &cfg).unwrap();
        assert_eq!(
            format!("{}", fleet_rep.aggregate),
            format!("{solo_rep}"),
            "--devices 1 must reproduce the single-SSD report byte for byte"
        );
        assert_eq!(fleet_rep.per_device.len(), 1);
        assert_eq!(fleet_rep.rebalanced, 0);
    }

    #[test]
    fn one_report_is_its_own_aggregate() {
        let mut cfg = quick_cfg();
        cfg.telemetry = Some(morpheus_simcore::TelemetryConfig::new(
            SimDuration::from_millis(5),
        ));
        let (mut fleet, specs) = fleet_with(FleetConfig::new(2), 3, 300);
        let rep = fleet.serve(&specs, &cfg).unwrap();
        let one = &rep.per_device[0];
        assert!(one.telemetry.is_some());
        assert_eq!(
            format!("{:?}", aggregate_reports(std::slice::from_ref(one))),
            format!("{one:?}"),
            "identity law: telemetry, metrics and rates pass through"
        );
        assert!(rep.aggregate.telemetry.is_none(), "stays per device");
    }

    #[test]
    fn placement_policies_are_deterministic_and_total() {
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::HashByFile,
            PlacementPolicy::CapacityAware,
        ] {
            let mut cfg = FleetConfig::new(4);
            cfg.placement = policy;
            let (fleet, specs) = fleet_with(cfg.clone(), 8, 100);
            let a = fleet.placement(&specs);
            let b = fleet.placement(&specs);
            assert_eq!(a, b, "{policy}: placement must be pure");
            assert!(a.iter().all(|&d| d < 4), "{policy}: devices in range");
            if policy == PlacementPolicy::RoundRobin {
                assert_eq!(a, vec![0, 1, 2, 3, 0, 1, 2, 3]);
            }
        }
    }

    #[test]
    fn capacity_aware_balances_bytes_not_counts() {
        let mut cfg = FleetConfig::new(2);
        cfg.placement = PlacementPolicy::CapacityAware;
        let mut fleet = Fleet::new(SystemParams::paper_testbed(), cfg);
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
        // One huge file then three small ones: greedy least-bytes puts
        // the big file alone on device 0 and the small ones on device 1.
        let sizes = [4000u32, 100, 100, 100];
        let mut specs = Vec::new();
        for (i, n) in sizes.iter().enumerate() {
            let file = format!("svc{i}.txt");
            fleet
                .create_input_file(&file, &edge_text(*n, i as u64))
                .unwrap();
            specs.push(AppSpec::cpu_app(
                &format!("svc{i}"),
                &file,
                schema.clone(),
                1,
                50.0,
            ));
        }
        assert_eq!(fleet.placement(&specs), vec![0, 1, 1, 1]);
    }

    #[test]
    fn fleet_serve_accounts_every_offered_request() {
        let (mut fleet, specs) = fleet_with(FleetConfig::new(4), 6, 500);
        let rep = fleet.serve(&specs, &quick_cfg()).unwrap();
        assert!(rep.aggregate.offered > 0);
        assert_eq!(
            rep.aggregate.offered,
            rep.per_device.iter().map(|r| r.offered).sum::<u64>(),
            "routing partitions the global stream"
        );
        assert_eq!(
            rep.aggregate.completed + rep.aggregate.shed + rep.aggregate.failed,
            rep.aggregate.offered
        );
    }

    #[test]
    fn fleet_serve_is_deterministic_across_rebuilds() {
        let run = || {
            let (mut fleet, specs) = fleet_with(FleetConfig::new(3), 5, 400);
            format!("{}", fleet.serve(&specs, &quick_cfg()).unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn kill_schedule_rebalances_onto_healthy_peers() {
        let mut cfg = FleetConfig::new(3);
        cfg.placement = PlacementPolicy::RoundRobin;
        cfg.kills = vec![DeviceKill::parse("1@0.005").unwrap()];
        let (mut fleet, specs) = fleet_with(cfg, 3, 400);
        let serve_cfg = quick_cfg();
        let rep = fleet.serve(&specs, &serve_cfg).unwrap();
        assert!(rep.rebalanced > 0, "post-kill arrivals must migrate");
        assert_eq!(
            rep.aggregate.completed + rep.aggregate.shed + rep.aggregate.failed,
            rep.aggregate.offered,
            "rebalanced requests still end served, shed, or failed"
        );
        // Device 1 saw only pre-kill arrivals; its peers absorbed the rest.
        assert!(rep.per_device[1].offered < rep.per_device[0].offered + rep.per_device[2].offered);
    }

    #[test]
    fn all_devices_dead_is_a_typed_error_not_a_panic() {
        let mut cfg = FleetConfig::new(2);
        cfg.kills = vec![
            DeviceKill::parse("0@0").unwrap(),
            DeviceKill::parse("1@0").unwrap(),
        ];
        let (mut fleet, specs) = fleet_with(cfg, 2, 100);
        let err = fleet.serve(&specs, &quick_cfg()).unwrap_err();
        let RunError::DeviceDown(d) = err else {
            panic!("expected DeviceDown, got {err:?}");
        };
        assert_eq!(d.killed_at_s, 0.0);
        let chain = morpheus_simcore::render_error_chain(&RunError::DeviceDown(d));
        assert!(chain.contains("no healthy device"), "chain: {chain}");
        assert!(chain.contains("killed at"), "chain: {chain}");
    }

    #[test]
    fn kill_spec_parses_and_rejects() {
        let k = DeviceKill::parse("2@0.01").unwrap();
        assert_eq!(k.device, 2);
        assert_eq!(k.at, SimTime::ZERO + SimDuration::from_secs_f64(0.01));
        for bad in ["", "2", "@1", "x@1", "1@x", "1@-1", "1@inf"] {
            assert!(DeviceKill::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn out_of_range_kill_is_a_typed_config_error() {
        let mut cfg = FleetConfig::new(4);
        cfg.kills = vec![DeviceKill::parse("9@0.1").unwrap()];
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            FleetConfigError::KillOutOfRange {
                device: 9,
                devices: 4
            }
        );
        let err = Fleet::try_new(SystemParams::paper_testbed(), cfg).unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("kill names device 9"), "{text}");
        assert!(text.contains("the fleet has 4"), "{text}");
        assert!(
            Fleet::try_new(SystemParams::paper_testbed(), FleetConfig::new(0)).is_err(),
            "zero devices is a config error too"
        );
    }

    #[test]
    fn devices_share_one_store_per_fleet() {
        let a = Fleet::new(SystemParams::paper_testbed(), FleetConfig::new(3));
        let b = Fleet::new(SystemParams::paper_testbed(), FleetConfig::new(1));
        let store = |f: &Fleet, i: usize| f.device(i).replay_store().unwrap().clone();
        assert!((1..3).all(|i| Arc::ptr_eq(&store(&a, 0), &store(&a, i))));
        assert!(!Arc::ptr_eq(&store(&a, 0), &store(&b, 0)));
        let mut a = a;
        a.set_replay_store(None);
        assert!((0..3).all(|i| a.device(i).replay_store().is_none()));
    }

    #[test]
    #[should_panic(expected = "kill names device 9")]
    fn out_of_range_kill_still_panics_via_new() {
        let mut cfg = FleetConfig::new(4);
        cfg.kills = vec![DeviceKill::parse("9@0.1").unwrap()];
        Fleet::new(SystemParams::paper_testbed(), cfg);
    }

    #[test]
    fn placement_skips_devices_dead_at_t0() {
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::HashByFile,
            PlacementPolicy::CapacityAware,
        ] {
            let mut cfg = FleetConfig::new(4);
            cfg.placement = policy;
            cfg.kills = vec![DeviceKill::parse("0@0").unwrap()];
            let (fleet, specs) = fleet_with(cfg, 8, 100);
            let p = fleet.placement(&specs);
            assert!(
                p.iter().all(|&d| d != 0),
                "{policy}: a device dead at t=0 must receive no tenants, got {p:?}"
            );
            if policy == PlacementPolicy::RoundRobin {
                // Round-robin over the three surviving devices.
                assert_eq!(p, vec![1, 2, 3, 1, 2, 3, 1, 2]);
            }
        }
    }

    #[test]
    fn placement_keeps_devices_killed_later_or_healed() {
        // Killed mid-run: still placed (it serves until the kill).
        let mut cfg = FleetConfig::new(2);
        cfg.placement = PlacementPolicy::RoundRobin;
        cfg.kills = vec![DeviceKill::parse("0@0.01").unwrap()];
        let (fleet, specs) = fleet_with(cfg, 4, 100);
        assert_eq!(fleet.placement(&specs), vec![0, 1, 0, 1]);

        // Dead at t=0 but healing: it comes back, so it keeps tenants.
        let mut cfg = FleetConfig::new(2);
        cfg.placement = PlacementPolicy::RoundRobin;
        cfg.kills = vec![DeviceKill::parse("0@0").unwrap()];
        cfg.control.heal = Some(crate::control::HealPolicy::default());
        let (fleet, specs) = fleet_with(cfg, 4, 100);
        assert_eq!(fleet.placement(&specs), vec![0, 1, 0, 1]);
    }

    #[test]
    fn t0_dead_device_serves_nothing_and_peers_absorb_all() {
        let mut cfg = FleetConfig::new(3);
        cfg.placement = PlacementPolicy::RoundRobin;
        cfg.kills = vec![DeviceKill::parse("1@0").unwrap()];
        let (mut fleet, specs) = fleet_with(cfg, 6, 300);
        let rep = fleet.serve(&specs, &quick_cfg()).unwrap();
        assert_eq!(rep.per_device[1].offered, 0, "dead at t=0 serves nothing");
        assert_eq!(
            rep.rebalanced, 0,
            "placement already skipped the dead device, so nothing pays the rebalance path"
        );
        assert_eq!(
            rep.aggregate.completed + rep.aggregate.shed + rep.aggregate.failed,
            rep.aggregate.offered
        );
    }

    #[test]
    fn aggregate_utilization_is_makespan_weighted() {
        let (mut fleet, specs) = fleet_with(FleetConfig::new(2), 4, 300);
        let rep = fleet.serve(&specs, &quick_cfg()).unwrap();
        let expected_num: f64 = rep
            .per_device
            .iter()
            .map(|r| r.metrics.get("ssd_core_utilization") * r.makespan_s)
            .sum();
        let expected_den: f64 = rep.per_device.iter().map(|r| r.makespan_s).sum();
        let got = rep.aggregate.metrics.get("ssd_core_utilization");
        assert!(
            (got - expected_num / expected_den).abs() < 1e-12,
            "weighted mean: got {got}, want {}",
            expected_num / expected_den
        );
        // An idle device (zero util, zero-ish makespan) must not halve
        // the fleet number the way the old unweighted mean did.
        let mut idle = rep.per_device[0].clone();
        idle.makespan_s = 0.0;
        idle.metrics.set("ssd_core_utilization", 0.0);
        let busy = rep.per_device[1].clone();
        let busy_util = busy.metrics.get("ssd_core_utilization");
        let agg = aggregate_reports(&[idle, busy]);
        assert!(
            (agg.metrics.get("ssd_core_utilization") - busy_util).abs() < 1e-12,
            "a zero-makespan device contributes zero weight"
        );
    }

    #[test]
    fn control_off_reports_render_like_pre_control_builds() {
        let (mut fleet, specs) = fleet_with(FleetConfig::new(2), 4, 300);
        let rep = fleet.serve(&specs, &quick_cfg()).unwrap();
        assert!(rep.control.is_none());
        assert!(
            !format!("{rep}").contains("control:"),
            "control-off display must not mention the control plane"
        );
    }

    #[test]
    fn rolling_update_serve_loses_nothing_and_cycles_every_device() {
        let mut cfg = FleetConfig::new(4);
        cfg.placement = PlacementPolicy::RoundRobin;
        cfg.control.rolling = Some(crate::control::RollingUpdate::starting_at(0.002));
        let (mut fleet, specs) = fleet_with(cfg, 8, 300);
        let mut serve_cfg = ServeConfig::new(3000.0, 0.03);
        serve_cfg.mode = Mode::Morpheus;
        let rep = fleet.serve(&specs, &serve_cfg).unwrap();
        assert_eq!(rep.aggregate.failed, 0, "a rolling update loses nothing");
        assert_eq!(
            rep.aggregate.completed + rep.aggregate.shed,
            rep.aggregate.offered
        );
        assert!(
            rep.rebalanced > 0,
            "drained devices steer arrivals onto peers"
        );
        let ctl = rep.control.as_ref().expect("control plane was active");
        assert!(ctl.all_in_service(), "every device returns to service");
        assert_eq!(
            (
                ctl.counts.draining,
                ctl.counts.updating,
                ctl.counts.rebooting
            ),
            (4, 4, 4),
            "every device walks the full cycle"
        );
        assert_eq!(ctl.counts.failed, 0);
        let text = format!("{rep}");
        assert!(text.contains("control: transitions"), "{text}");
        assert!(text.contains("ctl dev3:"), "{text}");
    }

    #[test]
    fn control_trace_lands_on_ctl_tracks() {
        let mut cfg = FleetConfig::new(2);
        cfg.placement = PlacementPolicy::RoundRobin;
        cfg.control.rolling = Some(crate::control::RollingUpdate::starting_at(0.001));
        let (mut fleet, specs) = fleet_with(cfg, 4, 200);
        fleet.enable_tracing();
        fleet.serve(&specs, &quick_cfg()).unwrap();
        let log = fleet.take_merged_trace();
        let ctl_events: Vec<&TraceEvent> = log
            .events
            .iter()
            .filter(|e| e.track.starts_with("ctl/"))
            .collect();
        assert!(!ctl_events.is_empty(), "lifecycle events on ctl/ tracks");
        assert!(ctl_events.iter().any(|e| e.name == "draining"));
        assert!(ctl_events
            .iter()
            .all(|e| e.kind == TraceEventKind::Instant && e.layer == TraceLayer::Host));
    }

    #[test]
    fn merged_trace_has_per_device_tracks() {
        let mut cfg = FleetConfig::new(2);
        cfg.placement = PlacementPolicy::RoundRobin;
        let (mut fleet, specs) = fleet_with(cfg, 4, 200);
        fleet.enable_tracing();
        fleet.serve(&specs, &quick_cfg()).unwrap();
        let log = fleet.take_merged_trace();
        assert!(!log.is_empty());
        let tracks: std::collections::BTreeSet<&str> = log
            .events
            .iter()
            .filter_map(|e| e.track.split('/').next())
            .collect();
        assert!(
            tracks.contains("dev0") && tracks.contains("dev1"),
            "{tracks:?}"
        );
    }
}
