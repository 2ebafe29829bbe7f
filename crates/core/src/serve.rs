//! Open-loop serving: §III's multiprogramming argument at datacenter shape.
//!
//! The closed N-tenant run ([`System::run_deserialize_many`]) shows the
//! drive's cores beating host cores when everyone is always busy. Real
//! deployments are *open-loop*: requests arrive on their own schedule (a
//! seeded [`ArrivalProcess`]), queue behind an admission limit, coalesce
//! into same-app batches, and dispatch onto embedded cores (Morpheus) or
//! host cores (conventional). Queueing is where the latency-vs-RPS knee
//! lives — the sustainable-throughput gap between the two engines is the
//! serving-shaped version of the paper's Fig. 3.
//!
//! Everything is deterministic: the arrival schedule, app picks, fault
//! rolls, and dispatch order derive from seeds, so a serve run is
//! byte-identical across repeats and across bench `--jobs` values.

use crate::cache::{self, CacheHit, CacheStats, CacheTier};
use crate::concurrent::{StepEvent, Target};
use crate::exec::{AppSpec, RunError};
use crate::firmware::IO_QUEUE_DEPTH;
use crate::report::{mb_per_sec, Mode};
use crate::system::WireCmd;
use crate::{StorageKind, System};
use morpheus_format::ObjectDigest;
use morpheus_gpu::GpuMark;
use morpheus_nvme::StatusCode;
use morpheus_pcie::{BarWindow, DmaDir};
use morpheus_simcore::{
    ArrivalProcess, FaultCounters, Histogram, Metrics, SimDuration, SimTime, SplitMix64,
    TelemetryConfig, TelemetryReport, TelemetrySampler, TraceLayer, Tracer, Zipfian,
};
use std::collections::VecDeque;
use std::fmt;

/// Trace track for serving-layer events (admission, waits, requests).
const SERVE_TRACK: &str = "serve";
/// Trace track for telemetry window-boundary instants.
const TELEMETRY_TRACK: &str = "telemetry";
/// Queue id of the first per-tenant I/O queue pair. Qid 0 is the admin
/// queue and qid 1 the bring-up queue the solo drivers use.
const FIRST_TENANT_QID: u16 = 2;
/// Decorrelates the app-picking stream from the arrival-time stream so
/// both can share one user-facing seed.
const APP_PICK_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// What the admission queue does with a request that finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePolicy {
    /// Drop the request (counted as shed; it never runs).
    Shed,
    /// Serve it immediately on the host path, bypassing the queue — the
    /// drive is saturated but the host may have idle cores.
    HostFallback,
}

impl ServePolicy {
    /// Parses the CLI spelling (`shed` / `fallback`).
    pub fn parse(s: &str) -> Option<ServePolicy> {
        match s {
            "shed" => Some(ServePolicy::Shed),
            "fallback" => Some(ServePolicy::HostFallback),
            _ => None,
        }
    }
}

impl fmt::Display for ServePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServePolicy::Shed => "shed",
            ServePolicy::HostFallback => "fallback",
        })
    }
}

/// Highest accepted arrival rate, requests per second. Above it the mean
/// inter-arrival gap is under the 1 ns clock tick, so arrivals stop
/// advancing sim time and the offered stream never reaches the horizon.
pub const MAX_RPS: f64 = 1e9;

/// Most tenants one serve run accepts (65534): tenant `i` gets NVMe I/O
/// queue `2 + i`, and queue ids are 16-bit.
pub const MAX_TENANTS: usize = (u16::MAX - FIRST_TENANT_QID + 1) as usize;

/// Configuration of one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target arrival rate, requests per simulated second.
    pub rps: f64,
    /// Length of the arrival window, simulated seconds (requests already
    /// admitted when the window closes are still served).
    pub duration_s: f64,
    /// Admission-queue depth: requests beyond this many waiting are shed
    /// or host-served per [`ServePolicy`].
    pub depth: usize,
    /// Most same-app requests one dispatch coalesces.
    pub batch_max: usize,
    /// Engine serving the requests.
    pub mode: Mode,
    /// Overflow policy.
    pub policy: ServePolicy,
    /// Seed for the arrival schedule and app picks.
    pub seed: u64,
    /// Zipfian exponent of the app-popularity distribution. `0.0` (the
    /// default) keeps the historical uniform pick stream byte-for-byte;
    /// any positive value draws app indices from a seeded [`Zipfian`]
    /// (rank 0 = most popular), which is what makes the object cache
    /// earn hits.
    pub skew: f64,
    /// Windowed telemetry sampling plus SLO objectives. `None` (the
    /// default) is the zero-cost path: no sampler is allocated, each
    /// serving event costs one `Option` branch, and the report renders
    /// exactly as before.
    pub telemetry: Option<TelemetryConfig>,
}

impl ServeConfig {
    /// A config at the given load with the defaults the bench binary uses.
    pub fn new(rps: f64, duration_s: f64) -> Self {
        ServeConfig {
            rps,
            duration_s,
            depth: 64,
            batch_max: 8,
            mode: Mode::Morpheus,
            policy: ServePolicy::Shed,
            seed: 42,
            skew: 0.0,
            telemetry: None,
        }
    }
}

/// Everything measured during one serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Engine that served the requests.
    pub mode: Mode,
    /// Overflow policy in force.
    pub policy: ServePolicy,
    /// Target arrival rate, requests/s.
    pub target_rps: f64,
    /// Arrival-window length, seconds.
    pub duration_s: f64,
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Requests that entered the admission queue.
    pub admitted: u64,
    /// Requests fully served (admitted + overflow host-fallbacks).
    pub completed: u64,
    /// Requests dropped by [`ServePolicy::Shed`].
    pub shed: u64,
    /// Requests served on the host because the queue was full
    /// ([`ServePolicy::HostFallback`]).
    pub overflow_fallbacks: u64,
    /// Admitted Morpheus requests re-dispatched to the host path after a
    /// fault (core crash, reissue budget, uncorrectable media).
    pub fault_redispatches: u64,
    /// Requests that failed outright (reissue budget spent on the host
    /// path, which has no further fallback).
    pub failed: u64,
    /// Dispatched batches.
    pub batches: u64,
    /// NVMe commands driven through the per-tenant queues.
    pub commands: u64,
    /// Tail-doorbell MMIOs across all tenant queues (batching makes this
    /// far smaller than `commands`).
    pub doorbell_writes: u64,
    /// Time until the last served request finished, seconds.
    pub makespan_s: f64,
    /// Completed requests per second of makespan.
    pub sustained_rps: f64,
    /// Object throughput over the makespan, MB/s.
    pub aggregate_mbs: f64,
    /// Records deserialized across all completed requests.
    pub records: u64,
    /// Order-sensitive fold of per-request object checksums.
    pub checksum: u64,
    /// Order-insensitive (commutative) fold of the same per-request
    /// checksums. Dispatch order legitimately shifts when service times
    /// change (a cache turns misses into fast hits), so this is the field
    /// correctness tests compare across cache-on/cache-off runs. Not
    /// printed by `Display` — pre-cache report text stays byte-identical.
    pub checksum_unordered: u64,
    /// Arrival → service-start latency, nanoseconds.
    pub queue_wait_ns: Histogram,
    /// Service-start → completion latency, nanoseconds.
    pub service_ns: Histogram,
    /// Arrival → completion latency, nanoseconds.
    pub e2e_ns: Histogram,
    /// Injected faults and recoveries (all zero without a fault plan).
    pub faults: FaultCounters,
    /// Object-cache counters for this run (`None` when no cache is
    /// installed, so cache-off reports render exactly as before).
    pub cache: Option<CacheStats>,
    /// Windowed telemetry and SLO outcomes (`None` when sampling was not
    /// requested, so telemetry-off reports render exactly as before).
    pub telemetry: Option<TelemetryReport>,
    /// Extra measurements (latency quantiles, core utilization; sorted).
    pub metrics: Metrics,
}

impl ServeReport {
    /// A report of a run that served nothing yet: every counter zero,
    /// every histogram empty, no cache or telemetry section.
    pub(crate) fn empty(
        mode: Mode,
        policy: ServePolicy,
        target_rps: f64,
        duration_s: f64,
    ) -> ServeReport {
        ServeReport {
            mode,
            policy,
            target_rps,
            duration_s,
            offered: 0,
            admitted: 0,
            completed: 0,
            shed: 0,
            overflow_fallbacks: 0,
            fault_redispatches: 0,
            failed: 0,
            batches: 0,
            commands: 0,
            doorbell_writes: 0,
            makespan_s: 0.0,
            sustained_rps: 0.0,
            aggregate_mbs: 0.0,
            records: 0,
            checksum: 0,
            checksum_unordered: 0,
            queue_wait_ns: Histogram::new(),
            service_ns: Histogram::new(),
            e2e_ns: Histogram::new(),
            faults: FaultCounters::default(),
            cache: None,
            telemetry: None,
            metrics: Metrics::new(),
        }
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mode={} policy={} target_rps={:.1} duration={:.4}s",
            self.mode, self.policy, self.target_rps, self.duration_s
        )?;
        writeln!(
            f,
            "offered={} admitted={} completed={} shed={} overflow_fallbacks={} \
             fault_redispatches={} failed={}",
            self.offered,
            self.admitted,
            self.completed,
            self.shed,
            self.overflow_fallbacks,
            self.fault_redispatches,
            self.failed
        )?;
        writeln!(
            f,
            "batches={} commands={} doorbells={}",
            self.batches, self.commands, self.doorbell_writes
        )?;
        writeln!(
            f,
            "makespan={:.6}s sustained_rps={:.1} aggregate_mbs={:.3} records={} checksum={:016x}",
            self.makespan_s, self.sustained_rps, self.aggregate_mbs, self.records, self.checksum
        )?;
        writeln!(f, "queue_wait_ns {:?}", self.queue_wait_ns)?;
        writeln!(f, "service_ns    {:?}", self.service_ns)?;
        write!(f, "e2e_ns        {:?}", self.e2e_ns)?;
        if let Some(c) = &self.cache {
            write!(f, "\ncache         {c}")?;
        }
        if let Some(t) = &self.telemetry {
            write!(f, "\n{t}")?;
        }
        Ok(())
    }
}

/// One offered request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) arrival: SimTime,
    pub(crate) app: usize,
}

/// Builds the offered load of one serve run: seeded Poisson arrivals over
/// `[0, cfg.duration_s)`, each picking one of `napps` tenants. Skew 0
/// keeps the historical uniform `next_below` stream so pre-skew runs stay
/// byte-identical; positive skew draws Zipfian ranks from the same pick
/// stream (one uniform draw per request). The fleet layer calls this too:
/// a fleet run routes exactly this stream across devices, so placement is
/// a partition of the single-SSD load, never a different one.
pub(crate) fn offered_requests(cfg: &ServeConfig, napps: usize) -> Vec<Request> {
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(cfg.duration_s);
    let zipf = (cfg.skew > 0.0).then(|| Zipfian::new(napps, cfg.skew));
    let mut pick = SplitMix64::new(cfg.seed ^ APP_PICK_SALT);
    let mut reqs: Vec<Request> = Vec::new();
    for t in ArrivalProcess::new(cfg.seed, cfg.rps) {
        if t >= horizon {
            break;
        }
        let app = match &zipf {
            Some(z) => z.sample(&mut pick),
            None => pick.next_below(napps as u64) as usize,
        };
        reqs.push(Request { arrival: t, app });
    }
    reqs
}

/// Panics on config-bug serve parameters (shared by the solo and fleet
/// entry points so both reject the same inputs the same way).
pub(crate) fn validate_serve_cfg(cfg: &ServeConfig) {
    assert!(cfg.rps.is_finite() && cfg.rps > 0.0, "rps must be positive");
    assert!(
        cfg.rps <= MAX_RPS,
        "rps must be at most {MAX_RPS:e}: a mean gap under 1 ns never advances the clock"
    );
    assert!(
        cfg.duration_s.is_finite() && cfg.duration_s > 0.0,
        "duration must be positive"
    );
    assert!(cfg.depth >= 1, "admission depth must be at least 1");
    assert!(cfg.batch_max >= 1, "batch size must be at least 1");
    assert!(
        cfg.skew.is_finite() && cfg.skew >= 0.0,
        "skew must be finite and non-negative"
    );
}

/// Mutable run state threaded through the dispatcher.
#[derive(Debug)]
struct ServeState {
    /// Per-app FIFO of admitted, not-yet-dispatched requests.
    pending: Vec<VecDeque<Request>>,
    /// When each app's serving lane frees up (per-app FIFO service).
    next_free: Vec<SimTime>,
    /// Requests currently waiting across all apps.
    queued: usize,
    rep: ServeReport,
    obj_bytes: u64,
    makespan: SimTime,
    /// Windowed sampler (`None` when the run does not sample).
    sampler: Option<TelemetrySampler>,
    /// The system's trace handle; [`note`](ServeState::note) records the
    /// `serve` track through it.
    tracer: Tracer,
    /// Pooled scratch for one batch's wire commands: taken at the top of
    /// each dispatch, cleared, and put back, so steady-state serving does
    /// no per-batch `Vec` growth.
    wire_scratch: Vec<WireCmd>,
    /// Pooled scratch for the requests coalesced into one batch.
    batch_scratch: Vec<Request>,
}

/// Which engine completed a request — the occupancy series a completed
/// request's service span is attributed to.
#[derive(Debug, Clone, Copy)]
enum ServePath {
    /// Parsed on the drive's embedded cores (`ssd_busy_ns`).
    Embedded,
    /// Parsed on host cores: conventional mode, overflow, re-dispatch
    /// (`host_busy_ns`).
    Host,
    /// Delivered straight from the object cache (`cache_busy_ns`).
    CacheHit,
}

/// One serving outcome, booked at a sim time by [`ServeState::note`].
#[derive(Debug, Clone, Copy)]
enum ServeEvent {
    /// A request arrived and found this many requests queued.
    Offered(usize),
    /// The request entered the admission queue.
    Admitted,
    /// The queue was full and [`ServePolicy::Shed`] dropped the request.
    Shed,
    /// The queue was full and [`ServePolicy::HostFallback`] sent the
    /// request to the host.
    Overflow,
    /// A same-app batch was dispatched.
    Batch,
    /// A host-path request spent its reissue budget.
    Failed,
    /// The object cache held the request's objects.
    CacheHit,
    /// The object cache did not.
    CacheMiss,
    /// A fault sent a drive request to the host path.
    FaultRedispatch,
    /// A wire burst of this many NVMe commands was pumped.
    WireBurst(usize),
    /// A request completed: the request, its service start, its objects
    /// and the path that served it.
    Done(Request, SimTime, ObjectDigest, ServePath),
}

impl ServeState {
    /// Books one serving event at `at` into its three sinks: the report's
    /// counters and latency histograms, the telemetry windows (when
    /// sampling) and the `serve` trace track (when tracing). During a run
    /// nothing else writes them; each sink matches every event, so a new
    /// signal cannot skip one by accident.
    fn note(&mut self, at: SimTime, ev: ServeEvent) {
        use ServeEvent as E;
        let rep = &mut self.rep;
        match ev {
            E::Offered(_) => rep.offered += 1,
            E::Admitted => rep.admitted += 1,
            E::Shed => rep.shed += 1,
            E::Overflow => rep.overflow_fallbacks += 1,
            E::Batch => rep.batches += 1,
            E::Failed => rep.failed += 1,
            E::CacheHit | E::CacheMiss => {}
            E::FaultRedispatch => rep.fault_redispatches += 1,
            E::WireBurst(n) => rep.commands += n as u64,
            E::Done(r, start, objects, _) => {
                rep.completed += 1;
                rep.records += objects.records;
                rep.checksum = rep.checksum.rotate_left(1) ^ objects.checksum;
                rep.checksum_unordered = rep.checksum_unordered.wrapping_add(objects.checksum);
                let wait = start.saturating_duration_since(r.arrival);
                let service = at.saturating_duration_since(start);
                let e2e = at.saturating_duration_since(r.arrival);
                rep.queue_wait_ns.record(wait.as_nanos());
                rep.service_ns.record(service.as_nanos());
                rep.e2e_ns.record(e2e.as_nanos());
                self.obj_bytes += objects.bytes;
            }
        }
        if matches!(ev, E::Failed | E::Done(..)) {
            self.makespan = self.makespan.max(at);
        }
        if let Some(s) = self.sampler.as_mut() {
            match ev {
                E::Offered(queued) => {
                    s.count("offered", at);
                    s.gauge("queue_depth", at, queued as f64);
                }
                E::Admitted => s.count("admitted", at),
                E::Shed => {
                    s.count("shed", at);
                    s.lost(at);
                }
                E::Failed => {
                    s.count("failed", at);
                    s.lost(at);
                }
                E::Overflow => s.count("overflow_fallbacks", at),
                E::Batch => s.count("batches", at),
                E::CacheHit => s.count("cache_hits", at),
                E::CacheMiss => s.count("cache_misses", at),
                E::FaultRedispatch => s.count("fault_redispatches", at),
                // A batch of cache hits pumps an empty burst: nothing to sample.
                E::WireBurst(0) => {}
                E::WireBurst(n) => {
                    s.add("nvme_commands", at, n as f64);
                    s.gauge("nvme_wire", at, n as f64);
                }
                E::Done(r, start, _, path) => {
                    let e2e = at.saturating_duration_since(r.arrival).as_nanos();
                    let wait = start.saturating_duration_since(r.arrival).as_nanos();
                    s.count("completed", at);
                    s.latency("e2e_ns", at, e2e);
                    s.latency("queue_wait_ns", at, wait);
                    s.served(at, e2e);
                    let busy = match path {
                        ServePath::Embedded => "ssd_busy_ns",
                        ServePath::Host => "host_busy_ns",
                        ServePath::CacheHit => "cache_busy_ns",
                    };
                    s.span(busy, start, at);
                }
            }
        }
        let t = &self.tracer;
        match ev {
            E::Shed => t.instant(TraceLayer::Host, SERVE_TRACK, "shed", at),
            E::Overflow => t.instant(TraceLayer::Host, SERVE_TRACK, "admit-overflow", at),
            E::Failed => t.instant(TraceLayer::Host, SERVE_TRACK, "request-failed", at),
            E::FaultRedispatch => t.instant(TraceLayer::Host, SERVE_TRACK, "host-fallback", at),
            E::Done(r, start, objects, _) => {
                let (arrival, bytes) = (r.arrival, objects.bytes);
                t.span(TraceLayer::Host, SERVE_TRACK, "queue-wait", arrival, start);
                t.span_bytes(TraceLayer::Host, SERVE_TRACK, "request", start, at, bytes);
            }
            E::Offered(_) | E::Admitted | E::Batch | E::CacheHit | E::CacheMiss => {}
            E::WireBurst(_) => {}
        }
    }
}

/// Immutable dispatch context of one run.
struct ServeCtx<'a> {
    cfg: &'a ServeConfig,
    /// One per app, in app order.
    tenants: Vec<Tenant<'a>>,
    bar: Option<BarWindow>,
}

/// One tenant's spec plus its precomputed format digest (the cache key
/// half that doesn't depend on the request).
struct Tenant<'a> {
    spec: &'a AppSpec,
    digest: u64,
}

/// The object memory in use before a request allocated any: host DRAM
/// occupancy and the GPU allocator's point.
#[derive(Clone, Copy)]
struct ObjectMark {
    dram: u64,
    gpu: GpuMark,
}

impl System {
    /// Runs an open-loop serving experiment: Poisson arrivals at `cfg.rps`
    /// for `cfg.duration_s` simulated seconds each pick one of `apps`
    /// uniformly and are deserialized under `cfg.mode`, with admission,
    /// same-app batching, and per-app FIFO dispatch. Unlike
    /// [`run_deserialize_many`](System::run_deserialize_many), P2P mode is
    /// accepted here: serving measures deserialization and delivery only,
    /// so objects simply land in GPU memory instead of host DRAM.
    ///
    /// # Errors
    ///
    /// Fails on an empty app list ([`RunError::NoTenants`]), unknown
    /// files, parse failures, or fatal firmware errors. Injected faults do
    /// not fail the run: Morpheus requests re-dispatch to the host path,
    /// and host-path timeouts count the request as failed.
    ///
    /// # Panics
    ///
    /// Panics on a non-NVMe storage configuration, a non-positive rate,
    /// duration, depth, or batch size, a rate above [`MAX_RPS`], or more
    /// than [`MAX_TENANTS`] apps (config bugs, not run outcomes).
    pub fn serve(&mut self, apps: &[AppSpec], cfg: &ServeConfig) -> Result<ServeReport, RunError> {
        if apps.is_empty() {
            return Err(RunError::NoTenants);
        }
        validate_serve_cfg(cfg);
        let reqs = offered_requests(cfg, apps.len());
        self.serve_requests(apps, cfg, reqs)
    }

    /// Serves a pre-built request stream (the dispatch half of
    /// [`serve`](System::serve), which builds the stream itself). The
    /// fleet layer routes one global stream across devices and hands each
    /// device its slice through this entry point, so a `--devices 1`
    /// fleet run executes byte-for-byte the single-SSD path.
    pub(crate) fn serve_requests(
        &mut self,
        apps: &[AppSpec],
        cfg: &ServeConfig,
        reqs: Vec<Request>,
    ) -> Result<ServeReport, RunError> {
        assert!(
            self.params.storage == StorageKind::NvmeSsd,
            "serving models the NVMe path"
        );
        // Conservation: serving closes every instance it opens, and so
        // returns exactly the controller DRAM those instances reserved.
        let dram_base = self.mssd.dev.dram_used();
        let (mut st, ctx) = self.begin_serve(apps, cfg);
        // Per-run cache view: counters are lifetime totals (the cache
        // survives across runs so warmed state carries over), so the
        // report subtracts this snapshot.
        let cache_base = self.object_cache.as_ref().map(|c| c.stats());
        let served = self.dispatch(&mut st, &ctx, reqs);
        // The tenant queues go whether the run served or failed.
        let doorbells = self.end_serve(apps.len());
        served?;
        // The request ledger: every offered request completed, was shed,
        // or failed (overflow fallbacks and fault re-dispatches complete).
        debug_assert_eq!(
            st.rep.completed + st.rep.shed + st.rep.failed,
            st.rep.offered,
            "request ledger out of balance"
        );
        debug_assert_eq!(self.mssd.live_instances(), 0, "instance left live");
        debug_assert_eq!(
            self.mssd.dev.dram_used(),
            dram_base,
            "controller DRAM reservations out of balance"
        );

        // Totals and derived rates.
        st.rep.doorbell_writes = doorbells;
        st.rep.makespan_s = st.makespan.as_secs_f64();
        st.rep.sustained_rps = if st.rep.makespan_s > 0.0 {
            st.rep.completed as f64 / st.rep.makespan_s
        } else {
            0.0
        };
        st.rep.aggregate_mbs = mb_per_sec(st.obj_bytes, st.rep.makespan_s);
        st.rep.faults = self.collect_fault_counters();
        let mut metrics = Metrics::new();
        metrics.set(
            "ssd_core_utilization",
            self.mssd.dev.cores().utilization(st.makespan),
        );
        metrics.set(
            "ssd_parse_core_busy_s",
            self.mssd.parse_core_busy().as_secs_f64(),
        );
        metrics.set("host_cpu_busy_s", self.cpu_cores.busy().as_secs_f64());
        st.rep.queue_wait_ns.export("queue_wait_ns", &mut metrics);
        st.rep.service_ns.export("service_ns", &mut metrics);
        st.rep.e2e_ns.export("e2e_ns", &mut metrics);
        if let (Some(c), Some(base)) = (self.object_cache.as_ref(), cache_base) {
            let run = c.stats().since(&base);
            metrics.set("cache_hits", run.hits as f64);
            metrics.set("cache_misses", run.misses as f64);
            metrics.set("cache_hit_rate", run.hit_rate());
            metrics.set("cache_evictions", run.evictions as f64);
            metrics.set("cache_invalidations", run.invalidations as f64);
            metrics.set("cache_dram_kb", (run.dram_bytes / 1024) as f64);
            metrics.set("cache_host_kb", (run.host_bytes / 1024) as f64);
            st.rep.cache = Some(run);
        }
        st.rep.metrics = metrics;
        if let Some(s) = st.sampler.take() {
            let telemetry = s.finalize(st.makespan);
            for w in &telemetry.windows {
                self.tracer.instant(
                    TraceLayer::Host,
                    TELEMETRY_TRACK,
                    "window",
                    SimTime::from_nanos(w.start_ns),
                );
            }
            st.rep.telemetry = Some(telemetry);
        }
        Ok(st.rep)
    }

    /// Resets the device clocks and builds one run's dispatch state: the
    /// per-tenant NVMe queue pairs, empty admission queues, and a fresh
    /// sampler.
    fn begin_serve<'a>(
        &mut self,
        apps: &'a [AppSpec],
        cfg: &'a ServeConfig,
    ) -> (ServeState, ServeCtx<'a>) {
        self.reset_timing();
        let bar = match cfg.mode {
            Mode::MorpheusP2P => Some(self.map_gpu_bar()),
            _ => None,
        };

        // One NVMe queue pair per tenant app, created on the drive's
        // controller through the admin command set exactly as a driver
        // would; `end_serve` deletes them.
        assert!(
            apps.len() <= MAX_TENANTS,
            "{} tenants exceed MAX_TENANTS ({MAX_TENANTS}): tenant i needs NVMe I/O queue \
             {FIRST_TENANT_QID} + i",
            apps.len()
        );
        let admin = &mut self.mssd.admin;
        for a in 0..apps.len() {
            let sc = admin.create_io_queue(FIRST_TENANT_QID + a as u16, IO_QUEUE_DEPTH);
            assert_eq!(sc, StatusCode::Success, "tenant queue creation failed");
        }

        let st = ServeState {
            pending: vec![VecDeque::new(); apps.len()],
            next_free: vec![SimTime::ZERO; apps.len()],
            queued: 0,
            rep: ServeReport::empty(cfg.mode, cfg.policy, cfg.rps, cfg.duration_s),
            obj_bytes: 0,
            makespan: SimTime::ZERO,
            sampler: cfg.telemetry.as_ref().map(TelemetrySampler::new),
            tracer: self.tracer.clone(),
            wire_scratch: Vec::new(),
            batch_scratch: Vec::new(),
        };
        let tenants = apps
            .iter()
            .map(|spec| Tenant {
                spec,
                digest: cache::format_digest(spec),
            })
            .collect();
        let ctx = ServeCtx { cfg, tenants, bar };
        (st, ctx)
    }

    /// Offers every request in arrival order, then serves out the queue.
    fn dispatch(
        &mut self,
        st: &mut ServeState,
        ctx: &ServeCtx<'_>,
        reqs: Vec<Request>,
    ) -> Result<(), RunError> {
        let cfg = ctx.cfg;
        for r in reqs {
            // Serve everything whose dispatch time has passed, so the
            // queue length this arrival sees is current. With nothing
            // queued the scan is a no-op (docs/PERF.md §b), so an idle
            // system jumps straight to this arrival.
            debug_assert_eq!(
                st.queued,
                st.pending.iter().map(VecDeque::len).sum::<usize>()
            );
            if st.queued > 0 {
                self.drain_due(st, ctx, r.arrival)?;
            }
            st.note(r.arrival, ServeEvent::Offered(st.queued));
            if st.queued >= cfg.depth {
                match cfg.policy {
                    ServePolicy::Shed => st.note(r.arrival, ServeEvent::Shed),
                    ServePolicy::HostFallback => {
                        st.note(r.arrival, ServeEvent::Overflow);
                        let mut wire = std::mem::take(&mut st.wire_scratch);
                        wire.clear();
                        let tenant = &ctx.tenants[r.app];
                        let served =
                            self.serve_request(st, tenant, r, r.arrival, Target::Host, &mut wire);
                        st.note(r.arrival, ServeEvent::WireBurst(wire.len()));
                        self.pump(FIRST_TENANT_QID + r.app as u16, &wire);
                        st.wire_scratch = wire;
                        served?;
                    }
                }
            } else {
                st.pending[r.app].push_back(r);
                st.queued += 1;
                st.note(r.arrival, ServeEvent::Admitted);
            }
        }
        // The arrival window closed; serve out the queue.
        self.drain_due(st, ctx, SimTime::from_nanos(u64::MAX))?;
        debug_assert_eq!(st.queued, 0);
        Ok(())
    }

    /// Deletes the run's tenant queue pairs, so the controller holds only
    /// its bring-up queue again, and returns their doorbell writes.
    fn end_serve(&mut self, tenants: usize) -> u64 {
        let admin = &mut self.mssd.admin;
        (0..tenants)
            .map(|a| FIRST_TENANT_QID + a as u16)
            .map(|qid| {
                let writes = admin.io_queue(qid).expect("created").sq.doorbell_writes();
                assert_eq!(admin.delete_io_queue(qid), StatusCode::Success);
                writes
            })
            .sum()
    }

    /// Dispatches every batch whose dispatch time is at or before `up_to`,
    /// earliest first (ties break on the lowest app index). A batch's
    /// dispatch time is when its app's lane frees up or its head request
    /// arrives, whichever is later; dispatch coalesces up to
    /// `batch_max` same-app requests that have arrived by then.
    fn drain_due(
        &mut self,
        st: &mut ServeState,
        ctx: &ServeCtx<'_>,
        up_to: SimTime,
    ) -> Result<(), RunError> {
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            for a in 0..ctx.tenants.len() {
                if let Some(front) = st.pending[a].front() {
                    let d = st.next_free[a].max(front.arrival);
                    let better = match best {
                        Some((bd, _)) => d < bd,
                        None => true,
                    };
                    if better {
                        best = Some((d, a));
                    }
                }
            }
            let Some((d, a)) = best else {
                return Ok(());
            };
            if d > up_to {
                return Ok(());
            }
            let mut batch = std::mem::take(&mut st.batch_scratch);
            batch.clear();
            while batch.len() < ctx.cfg.batch_max {
                match st.pending[a].front() {
                    Some(r) if r.arrival <= d => {
                        batch.push(*r);
                        st.pending[a].pop_front();
                        st.queued -= 1;
                    }
                    _ => break,
                }
            }
            let served = self.serve_batch(st, ctx, a, &batch, d);
            st.batch_scratch = batch;
            served?;
        }
    }

    /// Serves one same-app batch dispatched at `at`: requests run FIFO on
    /// the app's lane, their commands accumulate into one wire burst, and
    /// the burst is pumped through the app's submission queue with
    /// coalesced doorbells. A failed batch drains its wire too: every
    /// command it issued completes before the error surfaces.
    fn serve_batch(
        &mut self,
        st: &mut ServeState,
        ctx: &ServeCtx<'_>,
        app: usize,
        batch: &[Request],
        at: SimTime,
    ) -> Result<(), RunError> {
        st.note(at, ServeEvent::Batch);
        let tenant = &ctx.tenants[app];
        let mut wire = std::mem::take(&mut st.wire_scratch);
        wire.clear();
        let mut start = at;
        let mut outcome = Ok(());
        for r in batch {
            let end = match ctx.cfg.mode {
                Mode::Conventional => {
                    self.serve_request(st, tenant, *r, start, Target::Host, &mut wire)
                }
                Mode::Morpheus | Mode::MorpheusP2P => {
                    self.morpheus_service(st, tenant, *r, start, ctx.bar, &mut wire)
                }
            };
            match end {
                Ok(end) => start = start.max(end),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        st.next_free[app] = start;
        st.note(at, ServeEvent::WireBurst(wire.len()));
        self.pump(FIRST_TENANT_QID + app as u16, &wire);
        st.wire_scratch = wire;
        outcome
    }

    /// Serves one request of `tenant` on `target` from `start`, pushing
    /// each command onto the batch's `wire`, and returns when it finished.
    /// A fault re-dispatches a drive request to the host path (the request
    /// falls back, as a solo run does), and its host service starts at the
    /// detection time: the failed drive attempt is booked as queue wait. A
    /// host read that spends its reissue budget fails just this request.
    /// The request's object memory (host buffers, or GPU memory in P2P
    /// mode) is returned once its objects are handed to the application
    /// (serving is steady-state), and drive-parsed objects are offered to
    /// the object cache.
    fn serve_request(
        &mut self,
        st: &mut ServeState,
        tenant: &Tenant<'_>,
        r: Request,
        start: SimTime,
        target: Target,
        wire: &mut Vec<WireCmd>,
    ) -> Result<SimTime, RunError> {
        let held = self.object_mark();
        let mut service_start = start;
        let mut req = self.open_request(tenant.spec, target, start, false)?;
        while !req.done() {
            let (cmd, ev) = self.step_request(&mut req)?;
            wire.extend(cmd);
            match ev {
                StepEvent::Fallback { at } => {
                    st.note(at, ServeEvent::FaultRedispatch);
                    service_start = at;
                }
                StepEvent::Lost { at, .. } => {
                    self.free_since(held);
                    st.note(at, ServeEvent::Failed);
                    return Ok(at.max(start));
                }
                _ => {}
            }
        }
        let d = req.finish()?;
        self.free_since(held);
        let path = match d.on_host {
            true => ServePath::Host,
            false => ServePath::Embedded,
        };
        st.note(d.end, ServeEvent::Done(r, service_start, d.digest, path));
        if let (false, Some(c)) = (d.on_host, self.object_cache.as_mut()) {
            let spec = tenant.spec;
            c.admit(&spec.name, &spec.input, tenant.digest, d.digest, d.end);
        }
        Ok(d.end.max(start))
    }

    /// Where object memory stands before a request allocates any.
    fn object_mark(&self) -> ObjectMark {
        ObjectMark {
            dram: self.dram.allocated(),
            gpu: self.gpu.mark(),
        }
    }

    /// Returns the host DRAM and GPU memory allocated since `held`.
    /// Addresses only route DMAs, so reusing GPU space moves no timing.
    fn free_since(&mut self, held: ObjectMark) {
        let freed = self.dram.allocated().saturating_sub(held.dram);
        self.dram.free(freed);
        self.gpu.rewind(held.gpu);
    }

    /// Serves one request on the drive, on its tenant's embedded core.
    ///
    /// With an object cache installed the request probes it first: a hit
    /// skips the admission wire, flash I/O, parsing, and the embedded
    /// core entirely, paying only delivery
    /// ([`cache_delivery`](System::cache_delivery)); a drive-parsed miss
    /// offers its objects for admission. Host-path services (conventional
    /// mode, overflow, fault re-dispatch) never touch the cache — it is a
    /// drive-owned structure fed by drive-parsed completions.
    fn morpheus_service(
        &mut self,
        st: &mut ServeState,
        tenant: &Tenant<'_>,
        r: Request,
        start: SimTime,
        bar: Option<BarWindow>,
        wire: &mut Vec<WireCmd>,
    ) -> Result<SimTime, RunError> {
        let (spec, digest) = (tenant.spec, tenant.digest);
        if let Some(c) = self.object_cache.as_mut() {
            match c.lookup(&spec.name, &spec.input, digest, start) {
                Some(hit) => {
                    st.note(start, ServeEvent::CacheHit);
                    let held = self.object_mark();
                    let end = self.cache_delivery(&hit, start, bar)?;
                    self.free_since(held);
                    st.note(
                        end,
                        ServeEvent::Done(r, start, hit.objects, ServePath::CacheHit),
                    );
                    return Ok(end);
                }
                None => st.note(start, ServeEvent::CacheMiss),
            }
        }
        let ncores = self.mssd.dev.cores().cores();
        // Stable affinity: app k's instances always pin to core k % n, so
        // a tenant's requests queue behind each other, not behind
        // strangers.
        let iid = self.alloc_instance_pinned(r.app % ncores, ncores);
        self.serve_request(st, tenant, r, start, Target::Device(iid, bar), wire)
    }

    /// Times the delivery of a cache hit — the only cost a hit pays. A
    /// DRAM-tier hit is pushed by the controller over PCIe into host DRAM
    /// (or straight into the GPU BAR in P2P mode), exactly like the parse
    /// path's output leg. A host-tier hit is a host-memory copy, or in
    /// P2P mode a DMA the GPU pulls from host memory. Either way the OS
    /// books one command-completion wakeup on a host core. No flash read,
    /// no parse, no embedded-core occupancy.
    fn cache_delivery(
        &mut self,
        hit: &CacheHit,
        start: SimTime,
        bar: Option<BarWindow>,
    ) -> Result<SimTime, RunError> {
        let n = hit.objects.bytes;
        let done = match hit.tier {
            CacheTier::Dram => self.push_output(n, bar, start)?,
            CacheTier::Host => {
                self.alloc_output(n, bar)?;
                match bar {
                    // The GPU pulls the object out of host memory (address
                    // 0 routes to host DRAM, where the spill tier lives).
                    Some(_) => {
                        self.fabric
                            .dma(self.gpu_dev, DmaDir::Read, 0, n, start)?
                            .end
                    }
                    None => self.membus.transfer(start, n).end,
                }
            }
        };
        Ok(self.command_wakeup(done).end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemParams;
    use morpheus_format::{FieldKind, Schema, TextWriter};
    use morpheus_simcore::FaultPlan;

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

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

    fn serving_system(napps: usize, records: u32) -> (System, Vec<AppSpec>) {
        let mut sys = System::new(SystemParams::paper_testbed());
        let mut specs = Vec::new();
        for i in 0..napps {
            let name = format!("svc{i}");
            let file = format!("{name}.txt");
            sys.create_input_file(&file, &edge_text(records, i as u64))
                .unwrap();
            specs.push(AppSpec::cpu_app(&name, &file, edge_schema(), 1, 50.0));
        }
        (sys, specs)
    }

    fn quick_cfg(mode: Mode) -> ServeConfig {
        let mut cfg = ServeConfig::new(2000.0, 0.02);
        cfg.mode = mode;
        cfg
    }

    #[test]
    fn drain_due_with_an_empty_queue_touches_nothing() {
        // docs/PERF.md §b: the serve loop skips the dispatch scan while
        // the admission queue is empty. That is sound only if the scan is
        // a no-op there: serve state, sampler and tracer stay untouched. A
        // tracer only appends, so an unchanged event count is an unchanged
        // log.
        let (mut sys, specs) = serving_system(2, 200);
        sys.set_tracer(morpheus_simcore::Tracer::enabled());
        let mut cfg = quick_cfg(Mode::Morpheus);
        cfg.telemetry = Some(TelemetryConfig::new(SimDuration::from_micros(500)));
        let (mut st, ctx) = sys.begin_serve(&specs, &cfg);
        // Serve one request first, so the state checked is a used one.
        let arrival = SimTime::from_nanos(10_000);
        st.pending[1].push_back(Request { arrival, app: 1 });
        st.queued = 1;
        sys.drain_due(&mut st, &ctx, arrival).unwrap();
        assert_eq!((st.queued, st.rep.batches), (0, 1));
        assert!(st.sampler.is_some() && sys.tracer().recorded() > 0);
        let before = (format!("{st:?}"), sys.tracer().recorded());
        for up_to in [0, 10_000, 5_000_000, u64::MAX] {
            sys.drain_due(&mut st, &ctx, SimTime::from_nanos(up_to))
                .unwrap();
            let after = (format!("{st:?}"), sys.tracer().recorded());
            assert_eq!(after, before, "drain_due up to {up_to} ns changed state");
        }
    }

    #[test]
    #[should_panic(expected = "rps must be at most")]
    fn absurd_rates_panic_instead_of_hanging() {
        let (mut sys, specs) = serving_system(1, 10);
        let _ = sys.serve(&specs, &ServeConfig::new(1e300, 0.01));
    }

    #[test]
    fn serve_requires_apps() {
        let (mut sys, _) = serving_system(0, 10);
        assert!(matches!(
            sys.serve(&[], &ServeConfig::new(100.0, 0.01)),
            Err(RunError::NoTenants)
        ));
    }

    #[test]
    fn serve_accounts_every_offered_request() {
        let (mut sys, specs) = serving_system(3, 2_000);
        for policy in [ServePolicy::Shed, ServePolicy::HostFallback] {
            let mut cfg = quick_cfg(Mode::Morpheus);
            cfg.policy = policy;
            cfg.depth = 2; // force overflow
            let rep = sys.serve(&specs, &cfg).unwrap();
            assert!(rep.offered > 0);
            assert_eq!(
                rep.offered,
                rep.admitted + rep.shed + rep.overflow_fallbacks,
                "admission must partition offered load ({policy})"
            );
            assert_eq!(
                rep.completed + rep.shed + rep.failed,
                rep.offered,
                "every request ends served, shed, or failed ({policy})"
            );
            assert_eq!(rep.e2e_ns.count(), rep.completed);
        }
    }

    #[test]
    fn serve_is_deterministic_across_repeats() {
        let (mut sys, specs) = serving_system(2, 1_000);
        let cfg = quick_cfg(Mode::Morpheus);
        let a = format!("{}", sys.serve(&specs, &cfg).unwrap());
        let b = format!("{}", sys.serve(&specs, &cfg).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn batching_coalesces_doorbells() {
        let (mut sys, specs) = serving_system(2, 1_000);
        // Saturating load so batches actually form.
        let mut cfg = quick_cfg(Mode::Morpheus);
        cfg.rps = 50_000.0;
        let rep = sys.serve(&specs, &cfg).unwrap();
        assert!(rep.batches > 0);
        assert!(
            rep.doorbell_writes < rep.commands,
            "batched submission must save MMIOs: {} doorbells for {} commands",
            rep.doorbell_writes,
            rep.commands
        );
    }

    #[test]
    fn faulty_serve_degrades_instead_of_failing() {
        let (mut sys, specs) = serving_system(2, 1_000);
        sys.set_fault_plan(FaultPlan::parse("seed=9,crash=0.2,stall=0.1").unwrap());
        let cfg = quick_cfg(Mode::Morpheus);
        let rep = sys.serve(&specs, &cfg).unwrap();
        assert!(
            rep.fault_redispatches > 0,
            "a 20% crash rate must hit some request"
        );
        assert_eq!(rep.completed + rep.shed + rep.failed, rep.offered);
        assert!(rep.faults.core_crashes > 0);
        sys.set_fault_plan(FaultPlan::none());
    }

    #[test]
    fn p2p_serving_lands_objects_in_gpu_memory() {
        let (mut sys, specs) = serving_system(2, 1_000);
        let host = sys.serve(&specs, &quick_cfg(Mode::Morpheus)).unwrap();
        let p2p = sys.serve(&specs, &quick_cfg(Mode::MorpheusP2P)).unwrap();
        assert_eq!(host.checksum, p2p.checksum, "same objects either way");
        assert!(p2p.completed > 0);
    }

    #[test]
    fn cache_hits_preserve_objects_and_skip_parse_work() {
        let (mut sys, specs) = serving_system(3, 1_000);
        let mut cfg = quick_cfg(Mode::Morpheus);
        cfg.policy = ServePolicy::HostFallback; // every offered request completes
        let off = sys.serve(&specs, &cfg).unwrap();
        assert!(off.cache.is_none(), "no cache installed yet");
        sys.set_object_cache(crate::CacheConfig::new(256 << 20));
        let warm = sys.serve(&specs, &cfg).unwrap();
        let hot = sys.serve(&specs, &cfg).unwrap();
        let wc = warm.cache.expect("cache report present");
        let hc = hot.cache.expect("cache report present");
        assert!(
            wc.misses > 0 && wc.admitted > 0,
            "first run populates: {wc}"
        );
        assert!(hc.hit_rate() > 0.9, "steady state is nearly all hits: {hc}");
        assert_eq!(hot.completed, off.completed);
        assert_eq!(hot.records, off.records);
        assert_eq!(
            hot.checksum_unordered, off.checksum_unordered,
            "cached objects are bit-identical to freshly parsed ones"
        );
        assert!(
            hot.commands < off.commands,
            "hits must skip the NVMe wire: {} vs {}",
            hot.commands,
            off.commands
        );
        let off_parse = off.metrics.get("ssd_parse_core_busy_s");
        let hot_parse = hot.metrics.get("ssd_parse_core_busy_s");
        assert!(
            hot_parse < off_parse,
            "hits must skip embedded-core parsing: {hot_parse} vs {off_parse}"
        );
        sys.clear_object_cache();
    }

    #[test]
    fn minit_frees_only_the_controller_dram_it_reserved() {
        // A cache holding all of controller DRAM leaves MINIT no room for
        // its staging area; teardown must not free the cache's share.
        let (mut sys, specs) = serving_system(2, 500);
        let dram = sys.mssd.dev.config().dram_bytes;
        sys.set_object_cache(crate::CacheConfig::new(dram));
        let rep = sys.serve(&specs, &quick_cfg(Mode::Morpheus)).unwrap();
        assert!(rep.completed > 0);
        assert_eq!(sys.mssd.live_instances(), 0);
        assert_eq!(sys.mssd.dev.dram_used(), dram, "the cache keeps its share");
        sys.clear_object_cache();
        assert_eq!(sys.mssd.dev.dram_used(), 0);
    }

    #[test]
    fn zero_capacity_cache_is_byte_identical_to_cache_off() {
        let (mut sys, specs) = serving_system(2, 500);
        let cfg = quick_cfg(Mode::Morpheus);
        let off = format!("{}", sys.serve(&specs, &cfg).unwrap());
        sys.set_object_cache(crate::CacheConfig::new(0));
        assert!(sys.object_cache_stats().is_none(), "zero capacity is inert");
        let on = format!("{}", sys.serve(&specs, &cfg).unwrap());
        assert_eq!(off, on, "capacity-0 install must not change the report");
    }

    #[test]
    fn skewed_picks_are_deterministic_and_feed_the_cache() {
        let run = || {
            let (mut sys, specs) = serving_system(4, 500);
            sys.set_object_cache(crate::CacheConfig::new(256 << 20));
            let mut cfg = quick_cfg(Mode::Morpheus);
            cfg.skew = 2.0;
            let rep = sys.serve(&specs, &cfg).unwrap();
            (format!("{rep}"), rep.cache.expect("cache installed"))
        };
        let (a, ac) = run();
        let (b, _) = run();
        assert_eq!(a, b, "skewed runs are deterministic");
        assert!(
            ac.hits > 0,
            "skew concentrates picks, so the hot file hits within one run: {ac}"
        );
    }

    #[test]
    fn file_mutation_invalidates_cached_objects() {
        let (mut sys, specs) = serving_system(1, 400);
        sys.set_object_cache(crate::CacheConfig {
            dram_bytes: 64 << 20,
            host_bytes: 0,
            policy: crate::CachePolicy::Lru,
            seed: 42,
        });
        let mut cfg = quick_cfg(Mode::Morpheus);
        cfg.policy = ServePolicy::HostFallback;
        let _warm = sys.serve(&specs, &cfg).unwrap();
        let hot = sys.serve(&specs, &cfg).unwrap();
        assert!(hot.cache.expect("installed").hits > 0);
        // Mutate the file; a stale hit would reproduce the old objects.
        sys.overwrite_input_file("svc0.txt", &edge_text(400, 999))
            .unwrap();
        let fresh = sys.serve(&specs, &cfg).unwrap();
        let fc = fresh.cache.expect("installed");
        assert!(fc.invalidations > 0, "mutation dropped the entry: {fc}");
        assert_ne!(
            fresh.checksum_unordered, hot.checksum_unordered,
            "new bytes must produce new objects"
        );
        sys.clear_object_cache();
        let off = sys.serve(&specs, &cfg).unwrap();
        assert_eq!(
            off.checksum_unordered, fresh.checksum_unordered,
            "post-mutation cached serving agrees with cache-off"
        );
    }

    #[test]
    fn host_tier_serves_spilled_objects() {
        let (mut sys, specs) = serving_system(3, 1_000);
        // A DRAM tier too small for the working set, with a host tier
        // behind it: victims spill and later hit from host memory.
        sys.set_object_cache(crate::CacheConfig {
            dram_bytes: 20 << 10,
            host_bytes: 1 << 20,
            policy: crate::CachePolicy::Lru,
            seed: 42,
        });
        let mut cfg = quick_cfg(Mode::Morpheus);
        cfg.policy = ServePolicy::HostFallback;
        let _warm = sys.serve(&specs, &cfg).unwrap();
        let hot = sys.serve(&specs, &cfg).unwrap();
        let hc = hot.cache.expect("installed");
        assert!(hc.hits > 0, "tiered cache still serves hits: {hc}");
        assert!(hc.host_hits > 0, "some hits come from the spill tier: {hc}");
    }

    #[test]
    fn p2p_cache_hits_deliver_to_gpu() {
        let (mut sys, specs) = serving_system(2, 500);
        sys.set_object_cache(crate::CacheConfig::new(256 << 20));
        let mut cfg = quick_cfg(Mode::MorpheusP2P);
        cfg.policy = ServePolicy::HostFallback;
        let warm = sys.serve(&specs, &cfg).unwrap();
        let hot = sys.serve(&specs, &cfg).unwrap();
        assert!(hot.cache.expect("installed").hits > 0);
        assert_eq!(hot.checksum_unordered, warm.checksum_unordered);
    }

    fn telemetry_cfg(mode: Mode, slo: &str) -> ServeConfig {
        let mut cfg = quick_cfg(mode);
        let mut t = TelemetryConfig::new(SimDuration::from_millis(1));
        if !slo.is_empty() {
            t.slo = morpheus_simcore::SloSpec::parse(slo).unwrap();
        }
        cfg.telemetry = Some(t);
        cfg
    }

    #[test]
    fn telemetry_off_leaves_the_report_untouched() {
        let (mut sys, specs) = serving_system(2, 500);
        let cfg = quick_cfg(Mode::Morpheus);
        let rep = sys.serve(&specs, &cfg).unwrap();
        assert!(rep.telemetry.is_none(), "off by default");
        assert!(
            !format!("{rep}").contains("telemetry"),
            "no telemetry section when disabled"
        );
    }

    #[test]
    fn telemetry_windows_balance_the_request_ledger() {
        let (mut sys, specs) = serving_system(3, 2_000);
        let mut cfg = telemetry_cfg(Mode::Morpheus, "");
        cfg.depth = 2; // force shed so every counter class is exercised
        let rep = sys.serve(&specs, &cfg).unwrap();
        let t = rep.telemetry.as_ref().expect("telemetry installed");
        assert!(!t.windows.is_empty());
        let sum = |name: &str| t.series(name).iter().sum::<f64>() as u64;
        assert_eq!(sum("offered"), rep.offered, "offered ledger per window");
        assert_eq!(sum("completed"), rep.completed);
        assert_eq!(sum("shed"), rep.shed);
        assert_eq!(sum("admitted"), rep.admitted);
        assert_eq!(
            t.totals.get("offered") as u64,
            rep.offered,
            "totals row agrees with the serve report"
        );
        // The e2e histogram folded into telemetry matches the report's.
        let (_, h) = t
            .hists
            .iter()
            .find(|(n, _)| n == "e2e_ns")
            .expect("e2e histogram present");
        assert_eq!(h.count(), rep.e2e_ns.count());
        assert_eq!(h.p99(), rep.e2e_ns.p99());
    }

    #[test]
    fn telemetry_slo_verdicts_count_exactly() {
        let (mut sys, specs) = serving_system(2, 1_000);
        let mut cfg = telemetry_cfg(Mode::Morpheus, "p99<500us,avail>99.9");
        cfg.depth = 2; // shed some load so availability has bad events
        let rep = sys.serve(&specs, &cfg).unwrap();
        let t = rep.telemetry.as_ref().expect("telemetry installed");
        assert_eq!(t.slo.len(), 2);
        let avail = t.slo.iter().find(|o| o.spec.starts_with("avail")).unwrap();
        assert_eq!(avail.good, rep.completed, "avail good = completed");
        assert_eq!(avail.bad, rep.shed + rep.failed, "avail bad = shed+failed");
        let lat = t.slo.iter().find(|o| o.spec.starts_with("p99")).unwrap();
        assert_eq!(
            lat.good + lat.bad,
            rep.completed,
            "latency objective sees only completed requests"
        );
        for o in &t.slo {
            assert_eq!(o.points.len(), t.windows.len());
        }
    }

    #[test]
    fn telemetry_is_deterministic_across_repeats() {
        let (mut sys, specs) = serving_system(2, 1_000);
        let cfg = telemetry_cfg(Mode::Morpheus, "p99<500us,avail>99.9");
        let a = sys.serve(&specs, &cfg).unwrap();
        let b = sys.serve(&specs, &cfg).unwrap();
        assert_eq!(
            a.telemetry.as_ref().unwrap().to_csv(&[]),
            b.telemetry.as_ref().unwrap().to_csv(&[])
        );
        assert_eq!(
            a.telemetry.as_ref().unwrap().to_prometheus("morpheus", &[]),
            b.telemetry.as_ref().unwrap().to_prometheus("morpheus", &[])
        );
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn telemetry_sees_the_cache_warm_up() {
        let (mut sys, specs) = serving_system(3, 1_000);
        sys.set_object_cache(crate::CacheConfig::new(256 << 20));
        let mut cfg = telemetry_cfg(Mode::Morpheus, "");
        cfg.policy = ServePolicy::HostFallback;
        cfg.skew = 1.1;
        cfg.duration_s = 0.05;
        let rep = sys.serve(&specs, &cfg).unwrap();
        let t = rep.telemetry.as_ref().expect("telemetry installed");
        let hit_rate = t.series("cache_hit_rate");
        assert!(!hit_rate.is_empty(), "cache column derived");
        let (first, last) = (hit_rate[0], hit_rate[hit_rate.len() - 1]);
        assert!(
            last > first,
            "hit rate must ramp as the cache warms: first={first} last={last}"
        );
        let sum = |name: &str| t.series(name).iter().sum::<f64>() as u64;
        let c = rep.cache.expect("cache installed");
        assert_eq!(sum("cache_hits"), c.hits, "windowed hits match the stats");
        sys.clear_object_cache();
    }

    #[test]
    fn telemetry_counts_faults_and_fallbacks() {
        let (mut sys, specs) = serving_system(2, 1_000);
        sys.set_fault_plan(FaultPlan::parse("seed=9,crash=0.2,stall=0.1").unwrap());
        let cfg = telemetry_cfg(Mode::Morpheus, "avail>99");
        let rep = sys.serve(&specs, &cfg).unwrap();
        let t = rep.telemetry.as_ref().expect("telemetry installed");
        let sum = |name: &str| t.series(name).iter().sum::<f64>() as u64;
        assert_eq!(
            sum("fault_redispatches"),
            rep.fault_redispatches,
            "per-window fault counts sum to the report"
        );
        sys.set_fault_plan(FaultPlan::none());
    }

    /// No CID in flight, and the controller back to its bring-up queue.
    fn assert_front_end_idle(sys: &mut System, after: &str) {
        assert_eq!(sys.in_flight_cids.len(), 0, "CIDs in flight after {after}");
        assert_eq!(sys.mssd.admin.io_queue_count(), 1, "queues after {after}");
        assert!(
            sys.mssd.admin.io_queue(1).is_some(),
            "queue 1 after {after}"
        );
    }

    #[test]
    fn every_front_end_call_leaves_no_cid_in_flight() {
        // Each driver, once returning Ok and once Err, leaves the drive's
        // only front end as bring-up left it.
        let (mut sys, specs) = serving_system(2, 500);
        sys.create_input_file("bad.txt", b"1 2\nnot numeric\n3 4\n")
            .unwrap();
        let bad = AppSpec::cpu_app("bad", "bad.txt", edge_schema(), 1, 50.0);
        for mode in [Mode::Conventional, Mode::Morpheus] {
            sys.run(&specs[0], mode).unwrap();
            assert_front_end_idle(&mut sys, &format!("a {mode} run"));
            sys.run(&bad, mode).unwrap_err();
            assert_front_end_idle(&mut sys, &format!("a failed {mode} run"));
            sys.serve(&specs, &quick_cfg(mode)).unwrap();
            assert_front_end_idle(&mut sys, &format!("a {mode} serve"));
            // A request of the second tenant fails its batch, and at depth
            // 1 it fails on the overflow path too.
            let failing = [specs[0].clone(), bad.clone()];
            for (policy, depth) in [(ServePolicy::Shed, 64), (ServePolicy::HostFallback, 1)] {
                let mut cfg = quick_cfg(mode);
                (cfg.policy, cfg.depth, cfg.rps) = (policy, depth, 50_000.0);
                sys.serve(&failing, &cfg).unwrap_err();
                assert_front_end_idle(&mut sys, &format!("a failed {mode} {policy} serve"));
                assert_eq!(sys.mssd.live_instances(), 0);
            }
        }
        let objects = sys.run(&specs[0], Mode::Conventional).unwrap().objects;
        for mode in [Mode::Conventional, Mode::Morpheus] {
            sys.run_serialize(&objects, &format!("{mode}.txt"), mode)
                .unwrap();
            assert_front_end_idle(&mut sys, &format!("a {mode} serialization"));
        }
        // The output name is taken.
        sys.run_serialize(&objects, "morpheus.txt", Mode::Morpheus)
            .unwrap_err();
        assert_front_end_idle(&mut sys, "a failed serialization");

        let mut fleet =
            crate::Fleet::new(SystemParams::paper_testbed(), crate::FleetConfig::new(2));
        fleet
            .create_input_file("svc0.txt", &edge_text(500, 0))
            .unwrap();
        fleet
            .create_input_file("bad.txt", b"1 2\nnot numeric\n3 4\n")
            .unwrap();
        let cfg = quick_cfg(Mode::Morpheus);
        fleet.serve(&specs[..1], &cfg).unwrap();
        fleet.serve(&[specs[0].clone(), bad], &cfg).unwrap_err();
        for d in 0..fleet.num_devices() {
            assert_front_end_idle(fleet.device_mut(d), "a fleet serve");
        }
    }

    #[test]
    fn a_failed_mread_posts_the_same_commands_on_every_driver() {
        // Seed 2 of this plan fails the sixth 64 KiB MREAD on media after
        // the FTL's retries, and not the fallback's host READ.
        let mut params = SystemParams::paper_testbed();
        params.mread_chunk_bytes = 64 << 10;
        let mut sys = System::new(params);
        sys.create_input_file("media.txt", &edge_text(40_000, 0))
            .unwrap();
        let spec = AppSpec::cpu_app("media", "media.txt", edge_schema(), 1, 50.0);
        sys.set_fault_plan(FaultPlan::parse("seed=2,flash-uncorr=0.4").unwrap());
        let doorbells = |sys: &mut System| sys.mssd.admin.io_queue(1).unwrap().sq.doorbell_writes();
        let before = doorbells(&mut sys);
        let solo = sys.run(&spec, Mode::Morpheus).unwrap().report;
        // A solo run rings queue 1 once per command.
        let posted = doorbells(&mut sys) - before;
        assert_eq!(solo.faults.host_fallbacks, 1);
        assert!(sys.last_fallback_cause().unwrap().contains("media failure"));
        // MINIT, five MREADs, the reap's MDEINIT and one host READ: the
        // failed MREAD posts nothing of its own.
        assert_eq!(posted, 8);
        let mut cfg = ServeConfig::new(1000.0, 0.01);
        cfg.mode = Mode::Morpheus;
        let one = Request {
            arrival: SimTime::ZERO,
            app: 0,
        };
        let rep = sys
            .serve_requests(std::slice::from_ref(&spec), &cfg, vec![one])
            .unwrap();
        assert_eq!((rep.completed, rep.fault_redispatches), (1, 1));
        assert_eq!(rep.commands, posted);
        assert_eq!(rep.checksum_unordered, solo.checksum);
        sys.set_fault_plan(FaultPlan::none());
    }

    /// A system whose GPU holds `gpu_bytes` of objects, MREADs of
    /// `chunk_bytes` and one GPU app over `records` edges.
    fn small_gpu_system(gpu_bytes: u64, chunk_bytes: u64, records: u32) -> (System, AppSpec) {
        let mut params = SystemParams::paper_testbed();
        params.gpu.memory_bytes = gpu_bytes;
        params.mread_chunk_bytes = chunk_bytes;
        let mut sys = System::new(params);
        sys.create_input_file("gpu.txt", &edge_text(records, 0x9e))
            .unwrap();
        let spec = AppSpec::gpu_app("gpu", "gpu.txt", edge_schema(), 40.0, 16.0, 20.0);
        (sys, spec)
    }

    #[test]
    fn p2p_serving_hands_gpu_object_memory_back() {
        // 1 MiB of GPU memory holds 26 requests' 40 KB of objects at once;
        // the cell serves over ten times that, so each must return its
        // memory.
        let (mut sys, spec) = small_gpu_system(1 << 20, 256 << 10, 5000);
        let objects = sys
            .run(&spec, Mode::MorpheusP2P)
            .unwrap()
            .report
            .object_bytes;
        let mut cfg = ServeConfig::new(2000.0, 0.3);
        cfg.mode = Mode::MorpheusP2P;
        let rep = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap();
        assert_eq!((rep.completed + rep.shed, rep.failed), (rep.offered, 0));
        assert!(
            rep.completed * objects > 10 << 20,
            "{} x {objects} B",
            rep.completed
        );
        assert_eq!(sys.gpu.allocated(), 0, "every request returned its objects");
    }

    #[test]
    fn gpu_exhaustion_is_out_of_gpu_memory_not_a_fabric_error() {
        // Small MREADs push small object batches, each padded to the GDDR
        // burst: the padded buffers pass the end of GPU memory (and of its
        // BAR window) before the raw bytes fill it.
        let (mut sys, spec) = small_gpu_system(64 << 10, 2 << 10, 20_000);
        let err = sys.run(&spec, Mode::MorpheusP2P).unwrap_err();
        assert!(matches!(err, RunError::OutOfGpuMemory), "run: {err:?}");
        let mut cfg = ServeConfig::new(1000.0, 0.01);
        cfg.mode = Mode::MorpheusP2P;
        let err = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap_err();
        assert!(matches!(err, RunError::OutOfGpuMemory), "serve: {err:?}");
        assert_eq!(sys.mssd.live_instances(), 0);
    }

    #[test]
    #[should_panic(expected = "exceed MAX_TENANTS")]
    fn more_tenants_than_queue_ids_is_a_config_bug() {
        let mut sys = System::new(SystemParams::paper_testbed());
        let spec = AppSpec::cpu_app("svc", "svc.txt", edge_schema(), 1, 50.0);
        let apps = vec![spec; MAX_TENANTS + 1];
        let _ = sys.serve(&apps, &ServeConfig::new(1000.0, 0.001));
    }
}
