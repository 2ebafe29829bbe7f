//! The four open-loop serving workloads: a ladder of Poisson arrival rates
//! (each 1.05x the last) plus one longer cell at a reference rate below the
//! knee, served by one `System` or by a `Fleet`.

use crate::catalog::Workload;
use crate::spans;
use crate::stats::exact_quantile;
use crate::{PassOut, Stopwatch};
use morpheus::{
    AppSpec, CacheConfig, CacheStats, DeviceKill, Fleet, FleetConfig, FleetReport, HealPolicy,
    Health, Mode, PlacementPolicy, RollingUpdate, ServeConfig, ServeReport, SloSpec, System,
    SystemParams, TelemetryConfig,
};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{SimDuration, SimTime, SplitMix64, TraceLayer, TraceLog};

/// Geometric ratio between neighbouring ladder rates.
pub const LADDER_RATIO: f64 = 1.05;
/// A ladder cell counts toward the knee only if its exact p99 is within
/// this limit (and it shed and failed nothing).
pub const P99_LIMIT_NS: u64 = 10_000_000;
/// Length of the correctness reference cell, simulated seconds.
const REFERENCE_S: f64 = 0.2;

/// Object-cache churn: a cache too small for the working set, and tenant
/// files rewritten between epochs of each cell.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    pub dram_bytes: u64,
    pub host_bytes: u64,
    /// Each cell is this many back-to-back serve runs over one cache.
    pub epochs: usize,
    /// Tenant files rewritten before every epoch but the first.
    pub rewrites: usize,
}

/// The fleet-ops fleet: round-robin placement, a rolling update from a
/// quarter of each window, one device killed at half of it and healed.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub devices: usize,
    pub killed: usize,
}

/// Telemetry window and objectives of the fleet-ops devices.
const TELEMETRY_WINDOW_MS: u64 = 10;
const SLO: &str = "p99<10ms,avail>99.9";

/// The shape of one serving workload. Rates are requests per simulated
/// second and durations simulated seconds.
#[derive(Debug, Clone)]
pub struct Plan {
    pub tenants: usize,
    pub tenant_bytes: u64,
    pub mode: Mode,
    /// Zipf exponent of tenant popularity; 0 is uniform.
    pub skew: f64,
    pub lo_rps: f64,
    pub rungs: usize,
    /// Arrival window of one serve run at a ladder rate; a churn cell
    /// makes `epochs` such runs.
    pub cell_s: f64,
    pub ref_rps: f64,
    /// Arrival window of one serve run at the reference rate.
    pub ref_s: f64,
    pub churn: Option<Churn>,
    pub fleet: Option<FleetShape>,
}

impl Plan {
    pub fn ladder(&self) -> Vec<f64> {
        (0..self.rungs)
            .map(|k| self.lo_rps * LADDER_RATIO.powi(k as i32))
            .collect()
    }
}

/// The constants of each serving workload. `tiny` shrinks sizes and
/// durations for unit tests while keeping every mechanism in play.
pub fn plan(w: Workload, tiny: bool) -> Plan {
    let base = Plan {
        tenants: 3,
        tenant_bytes: 64 * 1024,
        mode: Mode::Morpheus,
        skew: 0.0,
        lo_rps: 840.0,
        rungs: 19,
        cell_s: 1.0,
        ref_rps: 1000.0,
        ref_s: 4.0,
        churn: None,
        fleet: None,
    };
    let full = match w {
        Workload::PaperSuite => unreachable!("paper-suite is not a serving workload"),
        Workload::KneeMorpheus => base,
        // Host serving costs the simulator ~15x more per request, so this
        // ladder starts at the reference rate. Its cells are long enough
        // for a queue to build one rung above the knee.
        Workload::KneeHost => Plan {
            mode: Mode::Conventional,
            lo_rps: 600.0,
            rungs: 16,
            cell_s: 0.4,
            ref_rps: 600.0,
            ref_s: 2.0,
            ..base
        },
        Workload::CacheChurn => Plan {
            tenants: 64,
            skew: 0.9,
            lo_rps: 3000.0,
            rungs: 29,
            cell_s: 0.02,
            ref_rps: 4000.0,
            ref_s: 0.1,
            churn: Some(Churn {
                dram_bytes: 1 << 20,
                host_bytes: 1 << 20,
                epochs: 5,
                rewrites: 4,
            }),
            ..base
        },
        Workload::FleetOps => Plan {
            tenants: 16,
            lo_rps: 9000.0,
            rungs: 21,
            cell_s: 0.08,
            ref_rps: 12000.0,
            ref_s: 0.25,
            fleet: Some(FleetShape {
                devices: 16,
                killed: 5,
            }),
            ..base
        },
    };
    if !tiny {
        return full;
    }
    Plan {
        tenants: full.tenants.min(8),
        tenant_bytes: 4096,
        rungs: 3,
        cell_s: full.cell_s / 10.0,
        ref_s: full.ref_s / 10.0,
        fleet: full.fleet.map(|f| FleetShape { devices: 6, ..f }),
        ..full
    }
}

/// Two-column edge-list text of about `bytes`, as the `serve` binary
/// stages for its tenants.
fn edge_text(bytes: u64, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut w = TextWriter::new();
    // ~12 bytes per "xxxxx xxxxx\n" row.
    for _ in 0..(bytes / 12).max(1) {
        w.write_u64(rng.next_below(100_000));
        w.sep();
        w.write_u64(rng.next_below(100_000));
        w.newline();
    }
    w.into_bytes()
}

fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9)
}

fn tenant_file(tenant: usize) -> String {
    format!("svc{tenant}.txt")
}

fn specs(plan: &Plan) -> Vec<AppSpec> {
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
    (0..plan.tenants)
        .map(|i| AppSpec::cpu_app(&format!("svc{i}"), &tenant_file(i), schema.clone(), 1, 50.0))
        .collect()
}

/// What serves the requests.
enum Target {
    Solo(Box<System>),
    Fleet(Fleet),
}

impl Target {
    fn create_input_file(&mut self, name: &str, data: &[u8]) {
        let staged = match self {
            Target::Solo(s) => s.create_input_file(name, data),
            Target::Fleet(f) => f.create_input_file(name, data),
        };
        staged.expect("tenant inputs fit the drive");
    }

    fn overwrite_input_file(&mut self, name: &str, data: &[u8]) {
        let written = match self {
            Target::Solo(s) => s.overwrite_input_file(name, data),
            Target::Fleet(f) => f.overwrite_input_file(name, data),
        };
        written.expect("rewritten tenant input fits the drive");
    }

    fn set_object_cache(&mut self, cfg: CacheConfig) {
        match self {
            Target::Solo(s) => s.set_object_cache(cfg),
            Target::Fleet(f) => f.set_object_cache(cfg),
        }
    }

    fn enable_tracing(&mut self) {
        match self {
            Target::Solo(s) => s.set_tracer(morpheus_simcore::Tracer::enabled()),
            Target::Fleet(f) => f.enable_tracing(),
        }
    }

    fn take_trace(&mut self) -> TraceLog {
        match self {
            Target::Solo(s) => s.tracer().take(),
            Target::Fleet(f) => f.take_merged_trace(),
        }
    }
}

/// A fleet whose control events sit at fixed shares of a `window_s` run.
fn build_fleet(shape: FleetShape, window_s: f64) -> Fleet {
    let mut cfg = FleetConfig::new(shape.devices);
    cfg.placement = PlacementPolicy::RoundRobin;
    cfg.kills = vec![DeviceKill {
        device: shape.killed,
        at: SimTime::ZERO + SimDuration::from_secs_f64(window_s / 2.0),
    }];
    cfg.control.rolling = Some(RollingUpdate::starting_at(window_s / 4.0));
    cfg.control.heal = Some(HealPolicy::default());
    Fleet::try_new(SystemParams::paper_testbed(), cfg).expect("fleet-ops config is valid")
}

/// Builds a target for `window_s`-long cells and stages the tenant texts.
fn build_target(plan: &Plan, window_s: f64, texts: &[Vec<u8>]) -> Target {
    let mut t = match plan.fleet {
        Some(shape) => Target::Fleet(build_fleet(shape, window_s)),
        None => Target::Solo(Box::new(System::new(SystemParams::paper_testbed()))),
    };
    for (i, text) in texts.iter().enumerate() {
        t.create_input_file(&tenant_file(i), text);
    }
    t
}

fn serve_config(plan: &Plan, rps: f64, duration_s: f64, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(rps, duration_s);
    cfg.mode = plan.mode;
    cfg.seed = seed;
    cfg.skew = plan.skew;
    if plan.fleet.is_some() {
        let mut t = TelemetryConfig::new(SimDuration::from_millis(TELEMETRY_WINDOW_MS));
        t.slo = SloSpec::parse(SLO).expect("constant SLO parses");
        cfg.telemetry = Some(t);
    }
    cfg
}

/// Everything one cell measured, summed over its epochs.
#[derive(Debug, Default)]
struct Cell {
    rps: f64,
    offered: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    batches: u64,
    commands: u64,
    doorbells: u64,
    makespan_s: f64,
    service_sum_ns: u64,
    host_busy_s: f64,
    /// Embedded-core utilization weighted by makespan.
    ssd_util_s: f64,
    cache: Option<CacheStats>,
    fleet: Option<FleetCell>,
    /// Host time inside `serve` calls and inside file rewrites.
    serve_s: f64,
    overwrite_s: f64,
    overwrites: u64,
    traced: Option<TracedCell>,
    /// CPU and wall seconds spent reading spans, left out of pass time.
    analysis: (f64, f64),
}

#[derive(Debug, Default)]
struct FleetCell {
    rebalanced: u64,
    imbalance: f64,
    transitions: u64,
    unhealthy: u64,
    windows: u64,
    slo_good: u64,
    slo_bad: u64,
}

/// What the traced pass reads from a cell's spans.
#[derive(Debug, Default)]
struct TracedCell {
    e2e_ns: Vec<u64>,
    queue_wait_ns: Vec<u64>,
    ssd_parse_ns: u64,
    flash_read_ns: u64,
    flash_reads: u64,
    ftl_lookups: u64,
    pcie_ns: u64,
    events: u64,
}

impl TracedCell {
    fn absorb(&mut self, log: &TraceLog) -> Result<(), String> {
        let lat = spans::request_latencies(log)?;
        self.e2e_ns.extend(lat.e2e_ns);
        self.queue_wait_ns.extend(lat.queue_wait_ns);
        self.ssd_parse_ns += spans::span_ns(log, TraceLayer::Ssd, &["parse"]);
        self.flash_read_ns += spans::span_ns(log, TraceLayer::Flash, &["read-cell", "read-bus"]);
        self.flash_reads += spans::count(log, TraceLayer::Flash, "read-cell");
        self.ftl_lookups += spans::count(log, TraceLayer::Ftl, "lookup");
        self.pcie_ns += spans::layer_ns(log, TraceLayer::Pcie);
        self.events += log.len() as u64;
        Ok(())
    }
}

fn add_cache(a: &mut CacheStats, b: &CacheStats) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.admitted += b.admitted;
    a.rejected += b.rejected;
    a.evictions += b.evictions;
    a.spills += b.spills;
    a.promotions += b.promotions;
    a.invalidations += b.invalidations;
}

/// Checks the request ledger of one report: every offered request was
/// completed, shed or failed, exactly once.
pub fn ledger_holds(r: &ServeReport) -> bool {
    r.completed + r.shed + r.failed == r.offered
}

enum Served {
    Solo(ServeReport),
    Fleet(FleetReport),
}

impl Served {
    fn aggregate(&self) -> &ServeReport {
        match self {
            Served::Solo(r) => r,
            Served::Fleet(r) => &r.aggregate,
        }
    }

    fn devices(&self) -> &[ServeReport] {
        match self {
            Served::Solo(_) => &[],
            Served::Fleet(r) => &r.per_device,
        }
    }
}

impl Cell {
    /// Adds one report's counters. A fleet aggregate carries no host-busy
    /// metric; [`Cell::absorb_fleet`] sums the devices' instead.
    fn absorb(&mut self, r: &ServeReport) {
        self.host_busy_s += r.metrics.get("host_cpu_busy_s");
        self.offered += r.offered;
        self.completed += r.completed;
        self.shed += r.shed;
        self.failed += r.failed;
        self.batches += r.batches;
        self.commands += r.commands;
        self.doorbells += r.doorbell_writes;
        self.makespan_s += r.makespan_s;
        self.service_sum_ns += r.service_ns.sum();
        self.ssd_util_s += r.metrics.get("ssd_core_utilization") * r.makespan_s;
        if let Some(c) = &r.cache {
            add_cache(self.cache.get_or_insert_with(CacheStats::default), c);
        }
    }

    fn absorb_fleet(&mut self, rep: &FleetReport) {
        self.absorb(&rep.aggregate);
        self.host_busy_s += rep
            .per_device
            .iter()
            .map(|d| d.metrics.get("host_cpu_busy_s"))
            .sum::<f64>();
        let offered: Vec<f64> = rep.per_device.iter().map(|d| d.offered as f64).collect();
        let mean = offered.iter().sum::<f64>() / offered.len() as f64;
        let max = offered.iter().copied().fold(0.0, f64::max);
        let mut f = FleetCell {
            rebalanced: rep.rebalanced,
            imbalance: if mean > 0.0 { max / mean } else { 0.0 },
            ..FleetCell::default()
        };
        if let Some(c) = &rep.control {
            let n = c.counts;
            f.transitions = n.in_service + n.draining + n.updating + n.rebooting + n.failed;
            f.unhealthy = c
                .devices
                .iter()
                .filter(|d| d.health != Health::Healthy)
                .count() as u64;
        }
        for t in rep.per_device.iter().filter_map(|d| d.telemetry.as_ref()) {
            f.windows += t.windows.len() as u64;
            for o in &t.slo {
                f.slo_good += o.good;
                f.slo_bad += o.bad;
            }
        }
        self.fleet = Some(f);
    }

    fn sustained_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.completed as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    fn p99_ns(&self) -> Option<u64> {
        self.traced
            .as_ref()
            .map(|t| exact_quantile(&t.e2e_ns, 0.99))
    }
}

/// Contents a churn rewrite gives tenant file `tenant` before `epoch` of
/// cell `cell`: new bytes every time, so the memo misses as well.
fn rewrite_text(plan: &Plan, seed: u64, cell: usize, epoch: usize, tenant: usize) -> Vec<u8> {
    let salt = ((cell as u64) << 32) ^ ((epoch as u64) << 16) ^ tenant as u64;
    edge_text(
        plan.tenant_bytes,
        tenant_seed(seed, tenant) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

/// Runs one cell and checks its ledger. Failures land in `out`.
fn run_cell(
    target: &mut Target,
    plan: &Plan,
    specs: &[AppSpec],
    (index, rps, duration_s): (usize, f64, f64),
    seed: u64,
    traced: bool,
    out: &mut PassOut,
) -> Cell {
    let mut cell = Cell {
        rps,
        traced: traced.then(TracedCell::default),
        ..Cell::default()
    };
    let epochs = plan.churn.map_or(1, |c| c.epochs);
    if let Some(c) = plan.churn {
        let mut cfg = CacheConfig::new(c.dram_bytes);
        cfg.host_bytes = c.host_bytes;
        cfg.seed = seed;
        target.set_object_cache(cfg);
    }
    for epoch in 0..epochs {
        if let (Some(c), true) = (plan.churn, epoch > 0) {
            for j in 0..c.rewrites {
                let tenant = ((epoch - 1) * c.rewrites + j) % plan.tenants;
                let text = rewrite_text(plan, seed, index, epoch, tenant);
                let t = Stopwatch::start();
                target.overwrite_input_file(&tenant_file(tenant), &text);
                cell.overwrite_s += t.cpu();
                cell.overwrites += 1;
            }
            // Rewrites log cache invalidations; they are not requests.
            if traced {
                target.take_trace();
            }
        }
        let cfg = serve_config(plan, rps, duration_s, seed.wrapping_add(epoch as u64));
        let t = Stopwatch::start();
        let served = match target {
            Target::Solo(s) => s.serve(specs, &cfg).map(Served::Solo),
            Target::Fleet(f) => f.serve(specs, &cfg).map(Served::Fleet),
        };
        cell.serve_s += t.cpu();
        match served {
            Ok(served) => {
                let agg = served.aggregate();
                out.attempted += agg.offered;
                if agg.failed > 0 {
                    out.failed += agg.failed;
                    out.failures
                        .push(format!("{} requests failed at {rps:.1} rps", agg.failed));
                }
                if !ledger_holds(agg) || !served.devices().iter().all(ledger_holds) {
                    out.fail(format!(
                        "ledger broken at {rps:.1} rps: completed + shed + failed != offered"
                    ));
                }
                match &served {
                    Served::Solo(r) => {
                        out.fold_digest(&format!("{r:?}"));
                        cell.absorb(r);
                    }
                    Served::Fleet(r) => {
                        out.fold_digest(&format!("{r:?}"));
                        cell.absorb_fleet(r);
                    }
                }
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!(
                    "serve at {rps:.1} rps: {}",
                    morpheus_simcore::render_error_chain(&e)
                ));
            }
        }
        if let Some(tc) = cell.traced.as_mut() {
            let log = target.take_trace();
            let t = Stopwatch::start();
            if let Err(e) = tc.absorb(&log) {
                out.fail(format!("trace at {rps:.1} rps: {e}"));
            }
            cell.analysis.0 += t.cpu();
            cell.analysis.1 += t.wall();
        }
    }
    if let Some(tc) = cell.traced.as_mut() {
        tc.e2e_ns.sort_unstable();
        tc.queue_wait_ns.sort_unstable();
        if tc.e2e_ns.len() as u64 != cell.completed {
            out.fail(format!(
                "trace at {rps:.1} rps pairs {} requests but {} completed",
                tc.e2e_ns.len(),
                cell.completed
            ));
        }
    }
    cell
}

/// The highest ladder rate whose cell shed and failed nothing and kept its
/// exact p99 within [`P99_LIMIT_NS`]; 0 when no rate qualifies.
pub fn knee(cells: &[(f64, u64, u64, u64)]) -> f64 {
    cells
        .iter()
        .filter(|(_, shed, failed, p99)| *shed == 0 && *failed == 0 && *p99 <= P99_LIMIT_NS)
        .map(|(rps, ..)| *rps)
        .fold(0.0, f64::max)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per(x: f64, n: u64) -> f64 {
    if n > 0 {
        x / n as f64
    } else {
        0.0
    }
}

/// One pass: set up, serve the ladder and the reference cell, and report.
pub fn pass(w: Workload, seed: u64, traced: bool, tiny: bool) -> PassOut {
    let plan = plan(w, tiny);
    let specs = specs(&plan);
    let mut out = PassOut::default();

    let setup = Stopwatch::start();
    let gen = Stopwatch::start();
    let texts: Vec<Vec<u8>> = (0..plan.tenants)
        .map(|i| edge_text(plan.tenant_bytes, tenant_seed(seed, i)))
        .collect();
    let gen_s = gen.cpu();
    let stage = Stopwatch::start();
    let mut ladder_target = build_target(&plan, plan.cell_s, &texts);
    // A fleet's control events are placed by window length, so the longer
    // reference cell gets a fleet of its own.
    let mut ref_target = plan.fleet.map(|_| build_target(&plan, plan.ref_s, &texts));
    let stage_s = stage.cpu();
    drop(texts);
    let setup_s = setup.cpu();

    if traced {
        ladder_target.enable_tracing();
        if let Some(t) = ref_target.as_mut() {
            t.enable_tracing();
        }
    }
    let run = Stopwatch::start();
    let ladder = plan.ladder();
    let mut cells = Vec::with_capacity(ladder.len());
    for (i, rps) in ladder.iter().enumerate() {
        cells.push(run_cell(
            &mut ladder_target,
            &plan,
            &specs,
            (i, *rps, plan.cell_s),
            seed,
            traced,
            &mut out,
        ));
    }
    let reference = run_cell(
        ref_target.as_mut().unwrap_or(&mut ladder_target),
        &plan,
        &specs,
        (ladder.len(), plan.ref_rps, plan.ref_s),
        seed,
        traced,
        &mut out,
    );
    let analysis = cells
        .iter()
        .chain([&reference])
        .fold((0.0, 0.0), |(c, w), cell| {
            (c + cell.analysis.0, w + cell.analysis.1)
        });
    out.set("cpu_s", run.cpu() - analysis.0);
    out.set("wall_s", run.wall() - analysis.1);
    out.set("peak_heap_mb", crate::peak_heap_mb());
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.set("setup_s", setup_s);
    out.set("workloads.gen_s", gen_s);
    out.set("ssd.stage_s", stage_s);

    let all = || cells.iter().chain(std::iter::once(&reference));
    let offered: u64 = all().map(|c| c.offered).sum();
    let serve_s: f64 = all().map(|c| c.serve_s).sum();
    out.set("core.serve.host_us_per_req", per(serve_s * 1e6, offered));
    let lost: u64 = all().map(|c| c.shed + c.failed).sum();
    out.set("core.serve.fail_frac", per(lost as f64, offered));
    out.set(
        "core.serve.sustained_rps_max",
        cells.iter().map(Cell::sustained_rps).fold(0.0, f64::max),
    );

    let r = &reference;
    out.set(
        "core.serve.service_ms_mean",
        per(ms(r.service_sum_ns), r.completed),
    );
    out.set("core.serve.batch_mean", per(r.completed as f64, r.batches));
    out.set(
        "host.cpu_busy_ms_per_req",
        per(r.host_busy_s * 1e3, r.completed),
    );
    out.set(
        "ssd.core_util",
        if r.makespan_s > 0.0 {
            r.ssd_util_s / r.makespan_s
        } else {
            0.0
        },
    );
    out.set("nvme.cmds_per_req", per(r.commands as f64, r.completed));
    out.set(
        "nvme.cmds_per_doorbell",
        per(r.commands as f64, r.doorbells),
    );
    if let Some(c) = &r.cache {
        out.set("core.cache.hit_rate", per(c.hits as f64, c.hits + c.misses));
        out.set(
            "core.cache.admit_frac",
            per(c.admitted as f64, c.admitted + c.rejected),
        );
        out.set("core.cache.evictions", c.evictions as f64);
        out.set("core.cache.spills", c.spills as f64);
        out.set("core.cache.promotions", c.promotions as f64);
        out.set("core.cache.invalidations", c.invalidations as f64);
        let overwrites: u64 = all().map(|c| c.overwrites).sum();
        let overwrite_s: f64 = all().map(|c| c.overwrite_s).sum();
        out.set(
            "core.cache.overwrite_ms",
            per(overwrite_s * 1e3, overwrites),
        );
    }
    if let Some(f) = &r.fleet {
        out.set("core.fleet.rebalanced", f.rebalanced as f64);
        out.set("core.fleet.imbalance", f.imbalance);
        out.set("core.control.transitions", f.transitions as f64);
        out.set("core.control.unhealthy_devices", f.unhealthy as f64);
        out.set("simcore.telemetry.windows", f.windows as f64);
        out.set(
            "simcore.telemetry.slo_bad_frac",
            per(f.slo_bad as f64, f.slo_good + f.slo_bad),
        );
    }

    if traced {
        let knee_cells: Vec<(f64, u64, u64, u64)> = cells
            .iter()
            .map(|c| (c.rps, c.shed, c.failed, c.p99_ns().unwrap_or(u64::MAX)))
            .collect();
        out.set("core.serve.knee_rps", knee(&knee_cells));
        let t = r.traced.as_ref().expect("traced pass traces every cell");
        let n = r.completed;
        out.set("core.serve.p50_ms", ms(exact_quantile(&t.e2e_ns, 0.5)));
        out.set("core.serve.p99_ms", ms(exact_quantile(&t.e2e_ns, 0.99)));
        out.set("core.serve.ref_samples", t.e2e_ns.len() as f64);
        out.set(
            "core.serve.queue_wait_ms_p99",
            ms(exact_quantile(&t.queue_wait_ns, 0.99)),
        );
        out.set("ssd.parse_ms_per_req", per(ms(t.ssd_parse_ns), n));
        out.set("flash.read_ms_per_req", per(ms(t.flash_read_ns), n));
        out.set("flash.reads_per_req", per(t.flash_reads as f64, n));
        out.set("ftl.lookups_per_req", per(t.ftl_lookups as f64, n));
        out.set("pcie.dma_ms_per_req", per(ms(t.pcie_ns), n));
        let events: u64 = all()
            .filter_map(|c| c.traced.as_ref())
            .map(|t| t.events)
            .sum();
        out.set("simcore.trace.events_per_req", per(events as f64, offered));
    }
    out
}

/// Serves the lowest ladder rate for [`REFERENCE_S`] on the workload's own
/// configuration and on a plain conventional `System` whose admission
/// queue never sheds — the host-parse reference. Both must deliver the
/// same records and the same (order-free) object checksum. Returns the
/// number of requests the two runs offered.
///
/// # Errors
///
/// Describes the first mismatch, loss or serve error.
pub fn reference_check(w: Workload, seed: u64, tiny: bool) -> Result<u64, String> {
    let plan = plan(w, tiny);
    let specs = specs(&plan);
    let texts: Vec<Vec<u8>> = (0..plan.tenants)
        .map(|i| edge_text(plan.tenant_bytes, tenant_seed(seed, i)))
        .collect();
    let mut own = build_target(&plan, REFERENCE_S, &texts);
    let cfg = serve_config(&plan, plan.lo_rps, REFERENCE_S, seed);
    let render = |e: morpheus::RunError| morpheus_simcore::render_error_chain(&e);
    let mine = match &mut own {
        Target::Solo(s) => {
            if let Some(c) = plan.churn {
                let mut cache = CacheConfig::new(c.dram_bytes);
                cache.host_bytes = c.host_bytes;
                s.set_object_cache(cache);
            }
            s.serve(&specs, &cfg).map_err(render)?
        }
        Target::Fleet(f) => f.serve(&specs, &cfg).map_err(render)?.aggregate,
    };
    let mut host = System::new(SystemParams::paper_testbed());
    for (i, text) in texts.iter().enumerate() {
        host.create_input_file(&tenant_file(i), text)
            .expect("tenant inputs fit the drive");
    }
    let mut host_cfg = ServeConfig::new(plan.lo_rps, REFERENCE_S);
    host_cfg.mode = Mode::Conventional;
    host_cfg.seed = seed;
    host_cfg.skew = plan.skew;
    host_cfg.depth = usize::MAX;
    let theirs = host.serve(&specs, &host_cfg).map_err(render)?;
    for (who, r) in [("workload", &mine), ("host reference", &theirs)] {
        if r.completed != r.offered {
            return Err(format!(
                "{who} lost requests in the reference cell: {} of {} completed",
                r.completed, r.offered
            ));
        }
    }
    if (mine.records, mine.checksum_unordered) != (theirs.records, theirs.checksum_unordered) {
        return Err(format!(
            "objects differ from the host-parse reference: records {} vs {}, \
             checksum {:016x} vs {:016x}",
            mine.records, theirs.records, mine.checksum_unordered, theirs.checksum_unordered
        ));
    }
    Ok(mine.offered + theirs.offered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_is_the_highest_clean_rate() {
        let ms10 = P99_LIMIT_NS;
        let cells = [
            (100.0, 0, 0, 1_000_000),
            (105.0, 0, 0, ms10),      // exactly at the limit: qualifies
            (110.25, 0, 0, ms10 + 1), // just over: does not
            (115.76, 3, 0, 1_000),    // shed: does not
            (121.55, 0, 1, 1_000),    // failed: does not
        ];
        assert_eq!(knee(&cells), 105.0);
        // A clean rate above a dirty one still counts: the knee is the
        // highest rate that met the limit, not the first to miss it.
        let mut with_gap = cells.to_vec();
        with_gap.push((127.63, 0, 0, 2_000_000));
        assert_eq!(knee(&with_gap), 127.63);
        assert_eq!(knee(&[(100.0, 1, 0, 0)]), 0.0);
    }

    #[test]
    fn ladders_are_geometric() {
        let p = plan(Workload::KneeMorpheus, false);
        let l = p.ladder();
        assert_eq!(l.len(), 19);
        assert_eq!(l[0], 840.0);
        for w in l.windows(2) {
            assert!((w[1] / w[0] - LADDER_RATIO).abs() < 1e-12);
        }
        assert!((l[18] - 2022.0).abs() < 1.0, "{}", l[18]);
    }

    #[test]
    fn ledger_check_catches_a_lost_request() {
        let (mut sys, specs) = {
            let plan = plan(Workload::KneeMorpheus, true);
            let mut sys = System::new(SystemParams::paper_testbed());
            for i in 0..plan.tenants {
                sys.create_input_file(&tenant_file(i), &edge_text(2048, i as u64))
                    .expect("stage");
            }
            (sys, specs(&plan))
        };
        let mut rep = sys
            .serve(&specs, &ServeConfig::new(500.0, 0.02))
            .expect("serve");
        assert!(rep.offered > 0);
        assert!(ledger_holds(&rep));
        rep.completed -= 1;
        assert!(!ledger_holds(&rep));
        rep.completed += 1;
        rep.shed += 1;
        assert!(!ledger_holds(&rep));
    }
}
