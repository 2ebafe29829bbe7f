//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). Inputs are the paper's nominal sizes
//! divided by a `--scale` factor (default 256) and clamped to a tractable
//! range; all reported quantities are ratios or rates, which a scale sweep
//! (`ablate --sweep scale`) shows to be size-stable.
//!
//! The serving binaries (`serve`, `faults`) share one flag grammar here
//! too: [`ServeArgs`] and [`FleetArgs`], parsed through [`parse_flags`]
//! beside the [`Harness`] flags.

#![warn(missing_docs)]

pub mod reports;

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use morpheus::{
    AppSpec, CacheConfig, CachePolicy, DeviceKill, Fleet, FleetConfig, FleetConfigError,
    HealPolicy, Mode, PlacementPolicy, ReplayStore, RollingUpdate, ServeConfig, ServePolicy,
    SloSpec, StorageKind, System, SystemParams, TelemetryConfig, MAX_RPS, MAX_TENANTS,
};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{FaultPlan, SimDuration, SplitMix64};
use morpheus_workloads::{stage_input, suite, AppRuns, BenchError, Benchmark, SuiteRun};

/// Command-line configuration shared by all figure binaries, and the
/// replay store every system and fleet it builds shares.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Divisor applied to the paper's nominal input sizes.
    pub scale: u64,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads for suite fan-out (`--jobs`, `MORPHEUS_JOBS`).
    pub jobs: usize,
    /// Fault-injection plan (`--faults SPEC`), armed on every system the
    /// harness builds. `None` leaves every run fault-free.
    pub faults: Option<FaultPlan>,
    /// The replay memo shared by every system and fleet the harness
    /// builds (clones share it); `None` is memo-off
    /// (`MORPHEUS_DESER_MEMO=0`).
    pub replay: Option<Arc<ReplayStore>>,
}

impl Default for Harness {
    /// Scale 256, seed 42, one job, no faults and a fresh replay store.
    /// Reads no environment: [`Harness::from_env`] does.
    fn default() -> Self {
        Harness {
            scale: 256,
            seed: 42,
            jobs: 1,
            faults: None,
            replay: Some(Arc::default()),
        }
    }
}

/// Parse error for a command line (exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for ArgError {
    fn from(msg: String) -> Self {
        ArgError(msg)
    }
}

impl From<&str> for ArgError {
    fn from(msg: &str) -> Self {
        ArgError(msg.to_string())
    }
}

/// The arguments left to parse on one command line.
pub type Args<'a> = std::slice::Iter<'a, String>;

/// The value following `flag`.
pub fn value_of<'a>(flag: &str, it: &mut Args<'a>) -> Result<&'a String, ArgError> {
    it.next()
        .ok_or_else(|| ArgError(format!("{flag} requires a value")))
}

/// Runs one binary's flag loop: `offer` consumes a flag (and its value)
/// and returns `Ok(true)`, or returns `Ok(false)` for a flag it does not
/// know, which is fatal.
pub fn parse_flags(
    args: &[String],
    mut offer: impl FnMut(&str, &mut Args<'_>) -> Result<bool, ArgError>,
) -> Result<(), ArgError> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !offer(arg, &mut it)? {
            return Err(ArgError(format!("unknown flag {arg:?}")));
        }
    }
    Ok(())
}

/// `flag`'s value as a count of at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(
    flag: &str,
    it: &mut Args<'_>,
) -> Result<T, ArgError> {
    let v = value_of(flag, it)?;
    let n: T = v
        .parse()
        .map_err(|_| ArgError(format!("{flag} expects a positive integer, got {v:?}")))?;
    if n < T::from(1u8) {
        return Err(ArgError(format!("{flag} must be >= 1")));
    }
    Ok(n)
}

/// `flag`'s value as a number; `what` names the expected value in the
/// parse error. Range checks are the caller's.
fn number(flag: &str, what: &str, it: &mut Args<'_>) -> Result<f64, ArgError> {
    let v = value_of(flag, it)?;
    v.parse()
        .map_err(|_| ArgError(format!("{flag} expects {what}, got {v:?}")))
}

impl Harness {
    /// Usage text of the harness flags.
    pub const USAGE: &'static str = "[--scale N] [--seed N] [--jobs N] [--faults SPEC]";

    /// The defaults under the process environment, which only the
    /// binaries' entry points read, once, before their flags (so `--jobs`
    /// wins): `MORPHEUS_JOBS` sets the worker count (unset, malformed or
    /// 0 reads as 1), and `MORPHEUS_DESER_MEMO` of `0`, `off` or `false`
    /// turns the replay memo off (for A/B timing; the output is the same).
    pub fn from_env() -> Self {
        let jobs = std::env::var("MORPHEUS_JOBS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|j| *j >= 1)
            .unwrap_or(1);
        let memo_off = matches!(
            std::env::var("MORPHEUS_DESER_MEMO").as_deref(),
            Ok("0" | "off" | "false")
        );
        Harness {
            jobs,
            replay: (!memo_off).then(Arc::default),
            ..Harness::default()
        }
    }

    /// Parses `--scale N`, `--seed N`, `--jobs N` and `--faults SPEC` from
    /// the process arguments over [`Harness::from_env`]. Unknown flags and
    /// malformed values are fatal (exit 2): a typo like `--sacle` silently
    /// running the default configuration would poison recorded results.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_env()
            .parse(&args)
            .unwrap_or_else(|e| exit_usage(&e, &format!("usage: {}", Self::USAGE)))
    }

    /// The harness flags in `args` applied over `self`: the grammar,
    /// separated from process state for testing.
    pub fn parse(mut self, args: &[String]) -> Result<Self, ArgError> {
        parse_flags(args, |flag, it| self.offer(flag, it))?;
        Ok(self)
    }

    /// Consumes one harness flag: `--scale`, `--jobs`, `--seed` or
    /// `--faults`. Returns `Ok(false)` for any other flag.
    pub fn offer(&mut self, flag: &str, it: &mut Args<'_>) -> Result<bool, ArgError> {
        match flag {
            "--scale" => self.scale = positive(flag, it)?,
            _ => return Ok(self.offer_jobs(flag, it)? || self.offer_seed(flag, it)?),
        }
        Ok(true)
    }

    /// Consumes `--jobs N`; `Ok(false)` for any other flag.
    pub fn offer_jobs(&mut self, flag: &str, it: &mut Args<'_>) -> Result<bool, ArgError> {
        if flag != "--jobs" {
            return Ok(false);
        }
        self.jobs = positive(flag, it)?;
        Ok(true)
    }

    /// Consumes `--seed N` or `--faults SPEC`, the harness flags every
    /// serving binary shares; `Ok(false)` for any other flag.
    fn offer_seed(&mut self, flag: &str, it: &mut Args<'_>) -> Result<bool, ArgError> {
        match flag {
            "--seed" => {
                let v = value_of(flag, it)?;
                self.seed = v.parse().map_err(|_| {
                    ArgError(format!("--seed expects an unsigned integer, got {v:?}"))
                })?;
            }
            "--faults" => {
                let v = value_of(flag, it)?;
                let plan = FaultPlan::parse(v).map_err(|e| ArgError(format!("--faults: {e}")))?;
                self.faults = Some(plan);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Bytes staged for a benchmark at this scale.
    pub fn input_bytes(&self, bench: &Benchmark) -> u64 {
        (bench.nominal_bytes / self.scale.max(1)).clamp(2_000_000, 48_000_000)
    }

    /// The paper's evaluation: each suite app on its own freshly staged
    /// system, conventionally, on Morpheus-SSD and, for the Rodinia apps,
    /// with NVMe-P2P ([`AppRuns::run`]), fanned out over `jobs` workers.
    ///
    /// # Errors
    ///
    /// The first failed run, in suite order.
    pub fn suite_run(&self) -> Result<SuiteRun, BenchError> {
        let apps = run_parallel(self.jobs, &suite(), |bench| {
            AppRuns::run(&mut self.app_system(bench), bench, true)
        });
        let apps = apps.into_iter().collect::<Result<_, _>>()?;
        Ok(SuiteRun { apps })
    }

    /// A fresh system from `params`, sharing the harness's replay store.
    pub fn system(&self, params: SystemParams) -> System {
        let mut sys = System::new(params);
        sys.set_replay_store(self.replay.clone());
        sys
    }

    /// A fresh paper-testbed fleet, sharing the harness's replay store.
    pub fn fleet(&self, cfg: FleetConfig) -> Fleet {
        let mut fleet = Fleet::new(SystemParams::paper_testbed(), cfg);
        fleet.set_replay_store(self.replay.clone());
        fleet
    }

    /// A fresh system built from `params` with `bytes` of `bench`'s input
    /// staged, then the fault plan armed.
    pub fn staged_system(&self, params: SystemParams, bench: &Benchmark, bytes: u64) -> System {
        let mut sys = self.system(params);
        stage_input(&mut sys, bench, bytes, self.seed).expect("staging benchmark input");
        self.arm_faults(&mut sys);
        sys
    }

    /// A fresh paper-testbed system with this benchmark's input staged.
    pub fn app_system(&self, bench: &Benchmark) -> System {
        self.app_system_with(bench, StorageKind::NvmeSsd, None)
    }

    /// A fresh system with the given conventional-path storage device and
    /// optional host frequency override.
    pub fn app_system_with(
        &self,
        bench: &Benchmark,
        storage: StorageKind,
        freq_hz: Option<f64>,
    ) -> System {
        let mut params = SystemParams::paper_testbed();
        params.storage = storage;
        let mut sys = self.staged_system(params, bench, self.input_bytes(bench));
        if let Some(f) = freq_hz {
            sys.cpu.set_frequency(f);
        }
        sys
    }

    /// Arms the fault plan, if any, on `sys`. Call it after staging: input
    /// files are always written intact, faults perturb the measured runs
    /// alone.
    pub fn arm_faults(&self, sys: &mut System) {
        if let Some(plan) = self.faults {
            sys.set_fault_plan(plan);
        }
    }
}

/// Exits 2 on a bad command line, printing `err` and the binary's `usage`
/// text to stderr.
pub fn exit_usage(err: &ArgError, usage: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// The fleet and control-plane flags: `--devices`, `--placement`,
/// `--kill-device`, `--rolling-update` and `--heal`. `serve` takes them
/// inside [`ServeArgs`]; `faults` takes them beside the [`Harness`] flags.
#[derive(Debug, Clone)]
pub struct FleetArgs {
    /// Simulated SSDs behind the switch.
    pub devices: usize,
    /// Tenant→device assignment policy.
    pub placement: PlacementPolicy,
    /// Scheduled device deaths, in flag order.
    pub kills: Vec<DeviceKill>,
    /// Start of a rolling firmware update, seconds.
    pub rolling_update: Option<f64>,
    /// Heal killed devices back into service.
    pub heal: bool,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            devices: 1,
            placement: PlacementPolicy::HashByFile,
            kills: Vec::new(),
            rolling_update: None,
            heal: false,
        }
    }
}

impl FleetArgs {
    /// Usage fragment for these flags.
    pub const USAGE: &'static str = "[--devices N] [--placement rr|hash|capacity] \
                                     [--kill-device DEV@SECS]\n\
                                     [--rolling-update SECS] [--heal]";

    /// The usage text of a binary taking these flags after its own `head`.
    pub fn usage(head: &str) -> String {
        usage_with(head, &[Self::USAGE])
    }

    /// Consumes one fleet/control flag; `Ok(false)` for any other flag.
    pub fn offer(&mut self, flag: &str, it: &mut Args<'_>) -> Result<bool, ArgError> {
        match flag {
            "--devices" => self.devices = positive(flag, it)?,
            "--placement" => {
                let v = value_of(flag, it)?;
                self.placement = PlacementPolicy::parse(v)
                    .ok_or_else(|| format!("--placement expects rr|hash|capacity, got {v:?}"))?;
            }
            "--kill-device" => {
                let v = value_of(flag, it)?;
                self.kills
                    .push(DeviceKill::parse(v).map_err(|e| format!("--kill-device: {e}"))?);
            }
            "--rolling-update" => {
                let s = number(flag, "seconds", it)?;
                if !s.is_finite() || s < 0.0 {
                    return Err("--rolling-update must be finite and >= 0".into());
                }
                self.rolling_update = Some(s);
            }
            "--heal" => self.heal = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// True when the invocation engages the fleet: more than one device,
    /// a kill schedule, or control-plane intent. It selects the fleet
    /// lines and per-device labels of the output; a plain run prints the
    /// single-SSD report.
    pub fn engaged(&self) -> bool {
        self.devices > 1 || !self.kills.is_empty() || self.rolling_update.is_some() || self.heal
    }

    /// The fleet this invocation asked for, with `seed` for placement.
    pub fn config(&self, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::new(self.devices);
        cfg.placement = self.placement;
        cfg.seed = seed;
        cfg.kills = self.kills.clone();
        cfg.control.rolling = self.rolling_update.map(RollingUpdate::starting_at);
        if self.heal {
            cfg.control.heal = Some(HealPolicy::default());
        }
        cfg
    }

    /// Rejects a fleet [`FleetConfig::validate`] rejects, such as a kill
    /// naming a device outside the fleet.
    pub fn validate(&self) -> Result<(), ArgError> {
        self.config(0).validate().map_err(|e| match e {
            FleetConfigError::KillOutOfRange { device, devices } => ArgError(format!(
                "--kill-device names device {device} but --devices is {devices}"
            )),
            other => ArgError(other.to_string()),
        })
    }

    /// The kill schedule and control plane as banner text, e.g.
    /// `", kill dev1@0.010s, rolling-update @0.002s, heal"`.
    pub fn schedule_banner(&self) -> String {
        let mut s = String::new();
        for k in &self.kills {
            s.push_str(&format!(
                ", kill dev{}@{:.3}s",
                k.device,
                k.at.as_secs_f64()
            ));
        }
        if let Some(at) = self.rolling_update {
            s.push_str(&format!(", rolling-update @{at:.3}s"));
        }
        if self.heal {
            s.push_str(", heal");
        }
        s
    }
}

/// The serving grammar: the cell shape, the object cache, the SLO,
/// `--seed`/`--faults` and the [`FleetArgs`] group. The README's
/// "Serving flags" table documents every flag.
///
/// A binary sets its defaults, then offers each flag to
/// [`offer`](ServeArgs::offer) before its own flags, and checks the
/// fleet shape with [`FleetArgs::validate`] once the line is parsed.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Offered rates, requests per second (`--rps`, a comma list).
    pub rps: Vec<f64>,
    /// Engines to serve with (`--mode`; `all` is every engine).
    pub modes: Vec<Mode>,
    /// Arrival window, simulated seconds.
    pub duration_s: f64,
    /// Admission-queue depth.
    pub depth: usize,
    /// Most same-app requests per dispatch.
    pub batch: usize,
    /// Overflow policy.
    pub policy: ServePolicy,
    /// Tenant count.
    pub apps: usize,
    /// Approximate input bytes per tenant.
    pub bytes: u64,
    /// Zipfian popularity exponent (0 = uniform).
    pub skew: f64,
    /// Controller-DRAM cache tier, MB.
    pub cache_mb: u64,
    /// Host-memory spill tier, MB.
    pub cache_host_mb: u64,
    /// Cache admission policy.
    pub cache_policy: CachePolicy,
    /// SLO objectives evaluated over the telemetry windows.
    pub slo: SloSpec,
    /// Seed, fault plan and (for `serve`) worker count.
    pub harness: Harness,
    /// The fleet and control-plane flags.
    pub fleet: FleetArgs,
}

impl Default for ServeArgs {
    /// `serve`'s defaults: every engine over a 250..8000 RPS ladder.
    fn default() -> Self {
        ServeArgs {
            rps: vec![250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0],
            modes: ALL_MODES.to_vec(),
            duration_s: 0.05,
            depth: 64,
            batch: 8,
            policy: ServePolicy::Shed,
            apps: 3,
            bytes: 64 * 1024,
            skew: 0.0,
            cache_mb: 0,
            cache_host_mb: 0,
            cache_policy: CachePolicy::TinyLfu,
            slo: SloSpec::none(),
            harness: Harness::default(),
            fleet: FleetArgs::default(),
        }
    }
}

/// Every serving engine, in `--mode all` order.
const ALL_MODES: [Mode; 3] = [Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P];

/// The `--mode` names of single engines.
pub const MODE_NAMES: &str = "conventional|morpheus|morpheus+p2p";

/// The engine a `--mode` value names, e.g. `morpheus+p2p`.
pub fn mode_named(name: &str) -> Option<Mode> {
    ALL_MODES.into_iter().find(|m| m.to_string() == name)
}

impl ServeArgs {
    /// Usage fragment for the shared flags.
    pub const USAGE: &'static str = "[--duration S] [--depth N] [--batch N] \
                                     [--policy shed|fallback]\n\
                                     [--apps N] [--bytes N] [--skew F] [--slo SPEC] \
                                     [--seed N] [--faults SPEC]\n\
                                     [--cache-mb N] [--cache-host-mb N] \
                                     [--cache-policy tinylfu|lru]";

    /// The usage text of a binary taking these flags after its own `head`.
    pub fn usage(head: &str) -> String {
        usage_with(head, &[Self::USAGE, FleetArgs::USAGE])
    }

    /// Consumes one shared serving flag; `Ok(false)` for any other flag.
    pub fn offer(&mut self, flag: &str, it: &mut Args<'_>) -> Result<bool, ArgError> {
        match flag {
            "--rps" => {
                let v = value_of(flag, it)?;
                let mut ladder = Vec::new();
                for part in v.split(',') {
                    let r: f64 = part
                        .parse()
                        .map_err(|_| format!("--rps expects numbers, got {part:?}"))?;
                    if !r.is_finite() || r <= 0.0 {
                        return Err(format!("--rps entries must be positive, got {part:?}").into());
                    }
                    if r > MAX_RPS {
                        return Err(format!(
                            "--rps entries must be at most {MAX_RPS:e} (a mean gap under \
                             1 ns never advances the clock), got {part:?}"
                        )
                        .into());
                    }
                    ladder.push(r);
                }
                self.rps = ladder;
            }
            "--mode" => {
                let v = value_of(flag, it)?;
                self.modes = match mode_named(v) {
                    Some(mode) => vec![mode],
                    None if v == "all" => ALL_MODES.to_vec(),
                    None => {
                        return Err(format!("--mode expects all|{MODE_NAMES}, got {v:?}").into())
                    }
                };
            }
            "--duration" => {
                let d = number(flag, "seconds", it)?;
                if !d.is_finite() || d <= 0.0 {
                    return Err("--duration must be positive".into());
                }
                self.duration_s = d;
            }
            "--depth" => self.depth = positive(flag, it)?,
            "--batch" => self.batch = positive(flag, it)?,
            "--apps" => {
                self.apps = positive(flag, it)?;
                if self.apps > MAX_TENANTS {
                    return Err(format!(
                        "--apps must be at most {MAX_TENANTS} (one 16-bit NVMe queue id per \
                         tenant), got {}",
                        self.apps
                    )
                    .into());
                }
            }
            "--bytes" => self.bytes = positive(flag, it)?,
            "--policy" => {
                let v = value_of(flag, it)?;
                self.policy = ServePolicy::parse(v)
                    .ok_or_else(|| format!("--policy expects shed|fallback, got {v:?}"))?;
            }
            "--skew" => {
                let s = number(flag, "a number", it)?;
                if !s.is_finite() || s < 0.0 {
                    return Err("--skew must be finite and non-negative".into());
                }
                self.skew = s;
            }
            "--cache-mb" => self.cache_mb = megabytes(flag, it)?,
            "--cache-host-mb" => self.cache_host_mb = megabytes(flag, it)?,
            "--cache-policy" => {
                let v = value_of(flag, it)?;
                self.cache_policy = CachePolicy::parse(v)
                    .ok_or_else(|| format!("--cache-policy expects tinylfu|lru, got {v:?}"))?;
            }
            "--slo" => {
                let v = value_of(flag, it)?;
                self.slo = SloSpec::parse(v).map_err(|e| format!("--slo: {e}"))?;
            }
            _ => return Ok(self.harness.offer_seed(flag, it)? || self.fleet.offer(flag, it)?),
        }
        Ok(true)
    }

    /// The object-cache configuration (inert when both tiers are zero,
    /// which is exactly cache-off).
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            dram_bytes: self.cache_mb << 20,
            host_bytes: self.cache_host_mb << 20,
            policy: self.cache_policy,
            seed: self.harness.seed,
        }
    }

    /// The fleet this invocation asked for.
    pub fn fleet_config(&self) -> FleetConfig {
        self.fleet.config(self.harness.seed)
    }

    /// One cell's serve configuration. `window` arms telemetry sampling
    /// with this invocation's SLO; `None` leaves it off.
    pub fn serve_config(&self, mode: Mode, rps: f64, window: Option<SimDuration>) -> ServeConfig {
        ServeConfig {
            rps,
            duration_s: self.duration_s,
            depth: self.depth,
            batch_max: self.batch,
            mode,
            policy: self.policy,
            seed: self.harness.seed,
            skew: self.skew,
            telemetry: window.map(|w| {
                let mut t = TelemetryConfig::new(w);
                t.slo = self.slo.clone();
                t
            }),
        }
    }

    /// Stages `apps` tenant inputs on every device of `fleet`: `svc<i>.txt`
    /// holds ~`bytes` of seeded two-column text edges.
    pub fn stage_tenants(&self, fleet: &mut Fleet) -> Vec<AppSpec> {
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
        (0..self.apps)
            .map(|i| {
                let name = format!("svc{i}");
                let file = format!("{name}.txt");
                let mut rng =
                    SplitMix64::new(self.harness.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                let mut w = TextWriter::new();
                // ~12 bytes per "xxxxx xxxxx\n" row.
                for _ in 0..(self.bytes / 12).max(1) {
                    w.write_u64(rng.next_below(100_000));
                    w.sep();
                    w.write_u64(rng.next_below(100_000));
                    w.newline();
                }
                fleet
                    .create_input_file(&file, &w.into_bytes())
                    .expect("staging tenant input");
                AppSpec::cpu_app(&name, &file, schema.clone(), 1, 50.0)
            })
            .collect()
    }

    /// A fresh paper-testbed fleet with the tenants staged, then the fault
    /// plan armed and the object cache installed. A run without fleet
    /// flags is a fleet of one, which serves exactly like one `System`.
    pub fn build_fleet(&self) -> (Fleet, Vec<AppSpec>) {
        let mut fleet = self.harness.fleet(self.fleet_config());
        let specs = self.stage_tenants(&mut fleet);
        if let Some(plan) = self.harness.faults {
            fleet.set_fault_plan(plan);
        }
        fleet.set_object_cache(self.cache_config());
        (fleet, specs)
    }
}

/// A usage text: the binary's own `head` flags, then the shared flag
/// `groups`, then where the shared flags are documented. Every line of
/// `head` and `groups` is one line of the text.
fn usage_with(head: &str, groups: &[&str]) -> String {
    let mut lines = head.lines().chain(groups.iter().flat_map(|g| g.lines()));
    let mut s = format!("usage: {}", lines.next().unwrap_or_default());
    for line in lines {
        s.push_str(&format!("\n       {line}"));
    }
    s.push_str("\n(serving flags: see \"Serving flags\" in README.md)");
    s
}

/// `flag`'s value as a capacity in MB whose byte count fits in `u64`.
fn megabytes(flag: &str, it: &mut Args<'_>) -> Result<u64, ArgError> {
    let v = value_of(flag, it)?;
    let mb: u64 = v
        .parse()
        .map_err(|_| format!("{flag} expects a byte count in MB, got {v:?}"))?;
    if mb.checked_mul(1 << 20).is_none() {
        return Err(format!("{flag} is too large: {mb} MB overflows a byte count").into());
    }
    Ok(mb)
}

/// Maps `f` over `items` on up to `jobs` threads, preserving input
/// order in the output. Work is claimed dynamically (an atomic cursor),
/// so a slow item never strands the remaining ones behind it; results
/// are tagged with their index and merged after the join, keeping the
/// output — and therefore everything printed from it — byte-identical
/// to the sequential run. A panic in any worker propagates.
pub fn run_parallel<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(local) => tagged.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let s: f64 = xs
        .iter()
        .map(|x| {
            assert!(*x > 0.0, "geomean needs positive values");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

/// Prints an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn geomean_of_two() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn input_bytes_clamped() {
        let h = Harness {
            scale: 1_000_000,
            ..Harness::default()
        };
        let bench = &morpheus_workloads::suite()[0];
        assert_eq!(h.input_bytes(bench), 2_000_000);
    }

    #[test]
    fn parse_accepts_known_flags() {
        let h = Harness::default()
            .parse(&argv(&["--scale", "64", "--seed", "7", "--jobs", "3"]))
            .expect("valid flags");
        assert_eq!((h.scale, h.seed, h.jobs), (64, 7, 3));
    }

    #[test]
    fn parse_rejects_unknown_flag() {
        let err = Harness::default()
            .parse(&argv(&["--sacle", "64"]))
            .unwrap_err();
        assert!(err.0.contains("unknown flag"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_values() {
        for bad in [
            vec!["--scale", "abc"],
            vec!["--scale", "0"],
            vec!["--seed", "-3"],
            vec!["--jobs", "0"],
            vec!["--jobs"],
        ] {
            assert!(
                Harness::default().parse(&argv(&bad)).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    /// Parses `args` with the shared serving grammar alone, as a binary
    /// with no flags of its own would.
    fn serve_args(args: &[&str]) -> Result<ServeArgs, ArgError> {
        let mut a = ServeArgs::default();
        parse_flags(&argv(args), |flag, it| a.offer(flag, it))?;
        a.fleet.validate()?;
        Ok(a)
    }

    #[test]
    fn serve_args_defaults() {
        let a = serve_args(&[]).expect("valid");
        assert_eq!(a.modes, ALL_MODES.to_vec());
        assert_eq!(a.rps.len(), 6);
        assert_eq!((a.duration_s, a.depth, a.batch), (0.05, 64, 8));
        assert_eq!((a.apps, a.bytes, a.skew), (3, 64 * 1024, 0.0));
        assert_eq!(a.policy, ServePolicy::Shed);
        assert_eq!(a.cache_policy, CachePolicy::TinyLfu);
        assert!(!a.cache_config().is_enabled(), "defaults are cache-off");
        assert!(a.slo.is_empty() && a.harness.faults.is_none());
        assert_eq!(
            (a.fleet.devices, a.fleet.placement),
            (1, PlacementPolicy::HashByFile)
        );
        assert!(!a.fleet.engaged(), "defaults serve a fleet of one");
        assert!(!a.fleet_config().control.is_active());
        // ServeConfig::new is what library callers get; the CLI matches it.
        let cfg = a.serve_config(Mode::Morpheus, 500.0, None);
        let lib = ServeConfig::new(500.0, 0.05);
        assert_eq!(format!("{cfg:?}"), format!("{lib:?}"));
    }

    #[test]
    fn serve_args_full_grammar() {
        let a = serve_args(&[
            "--rps",
            "100,200.5",
            "--mode",
            "morpheus",
            "--duration",
            "0.1",
            "--depth",
            "16",
            "--batch",
            "4",
            "--policy",
            "fallback",
            "--apps",
            "2",
            "--bytes",
            "4096",
            "--skew",
            "1.1",
            "--cache-mb",
            "256",
            "--cache-host-mb",
            "512",
            "--cache-policy",
            "lru",
            "--slo",
            "p99<500us,avail>99.9",
            "--seed",
            "7",
            "--faults",
            "seed=9,crash=0.5",
            "--devices",
            "4",
            "--placement",
            "capacity",
            "--kill-device",
            "2@0.01",
            "--kill-device",
            "3@0.02",
            "--rolling-update",
            "0.002",
            "--heal",
        ])
        .expect("valid");
        assert_eq!(a.rps, vec![100.0, 200.5]);
        assert_eq!(a.modes, vec![Mode::Morpheus]);
        assert_eq!((a.duration_s, a.depth, a.batch), (0.1, 16, 4));
        assert_eq!((a.apps, a.bytes, a.skew), (2, 4096, 1.1));
        assert_eq!(a.policy, ServePolicy::HostFallback);
        assert_eq!(a.harness.seed, 7);
        assert_eq!(a.harness.faults.expect("plan").core_crash, 0.5);
        let cc = a.cache_config();
        assert_eq!((cc.dram_bytes, cc.host_bytes), (256 << 20, 512 << 20));
        assert_eq!((cc.policy, cc.seed), (CachePolicy::Lru, 7));
        let window = SimDuration::from_millis(10);
        let cfg = a.serve_config(Mode::Morpheus, 100.0, Some(window));
        assert_eq!(cfg.telemetry.expect("window set").slo.objectives.len(), 2);
        assert!(a.fleet.engaged());
        let fc = a.fleet_config();
        assert_eq!(
            (fc.devices, fc.placement, fc.seed),
            (4, PlacementPolicy::CapacityAware, 7)
        );
        assert_eq!(fc.kills.len(), 2);
        assert!(fc.control.rolling.is_some() && fc.control.heal.is_some());
        assert_eq!(
            a.fleet.schedule_banner(),
            ", kill dev2@0.010s, kill dev3@0.020s, rolling-update @0.002s, heal"
        );
    }

    #[test]
    fn any_fleet_flag_engages_the_fleet() {
        for flags in [
            vec!["--devices", "2"],
            vec!["--kill-device", "0@0.01"],
            vec!["--rolling-update", "0.01"],
            vec!["--heal"],
        ] {
            assert!(
                serve_args(&flags).expect("valid").fleet.engaged(),
                "{flags:?}"
            );
        }
        assert!(!serve_args(&["--devices", "1"]).unwrap().fleet.engaged());
    }

    /// Rows every serving binary rejects with exit 2 (the `serve_args_cli`
    /// integration test checks the exit code and usage text of each
    /// binary on a sample of them).
    #[test]
    fn serve_args_rejects_bad_input() {
        for bad in [
            vec!["--rps"],                                     // missing value
            vec!["--rps", "0"],                                // non-positive rate
            vec!["--rps", "nan"],                              // non-finite rate
            vec!["--rps", "100,abc"],                          // malformed entry
            vec!["--rps", "1e300"],                            // gap under the 1 ns tick
            vec!["--mode", "turbo"],                           // unknown mode
            vec!["--duration", "-1"],                          // negative
            vec!["--depth", "0"],                              // zero depth
            vec!["--batch", "x"],                              // malformed
            vec!["--sq-depth", "64"],                          // removed flag
            vec!["--policy", "drop"],                          // unknown policy
            vec!["--apps", "0"],                               // zero tenants
            vec!["--apps", "65535"],                           // past the 16-bit queue ids
            vec!["--bytes", "0"],                              // empty inputs
            vec!["--skew"],                                    // missing value
            vec!["--skew", "-0.5"],                            // negative skew
            vec!["--skew", "inf"],                             // non-finite skew
            vec!["--skew", "hot"],                             // malformed skew
            vec!["--cache-mb", "many"],                        // malformed capacity
            vec!["--cache-mb", "-1"],                          // negative capacity
            vec!["--cache-mb", "17592186044416"],              // 2^64 bytes wraps
            vec!["--cache-host-mb", "x"],                      // malformed spill capacity
            vec!["--cache-host-mb", "17592186044416"],         // 2^64 bytes wraps
            vec!["--cache-policy", "arc"],                     // unknown cache policy
            vec!["--cache-policy"],                            // missing value
            vec!["--slo", "p99<"],                             // malformed objective
            vec!["--slo", "avail>100"],                        // target out of range
            vec!["--slo", "p99<0.3ns"],                        // threshold rounds to 0 ns
            vec!["--seed", "-3"],                              // negative seed
            vec!["--faults", "bogus"],                         // bad fault spec
            vec!["--devices", "0"],                            // zero devices
            vec!["--devices", "x"],                            // malformed
            vec!["--placement", "random"],                     // unknown policy
            vec!["--placement"],                               // missing value
            vec!["--kill-device", "2"],                        // missing @SECS
            vec!["--kill-device", "2@-1"],                     // negative time
            vec!["--kill-device", "1@0.01"],                   // outside a fleet of one
            vec!["--devices", "2", "--kill-device", "2@0.01"], // out of range
            vec!["--rolling-update"],                          // missing value
            vec!["--rolling-update", "-1"],                    // negative start
            vec!["--rolling-update", "inf"],                   // non-finite
            vec!["--rolling-update", "later"],                 // malformed
            vec!["--heal", "now"],                             // --heal takes no value
            vec!["--scale", "64"],                             // figure-binary flag
            vec!["--jobs", "2"],                               // the binary's own, if any
        ] {
            assert!(serve_args(&bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn out_of_range_kills_name_the_device() {
        let err = serve_args(&["--devices", "4", "--kill-device", "9@0.1"]).unwrap_err();
        assert_eq!(err.0, "--kill-device names device 9 but --devices is 4");
    }

    #[test]
    fn capacities_up_to_the_u64_limit_are_accepted() {
        let a = serve_args(&["--cache-host-mb", "17592186044415"]).expect("fits in u64");
        assert_eq!(a.cache_config().host_bytes, 17592186044415 << 20);
    }

    #[test]
    fn limits_are_inclusive() {
        let a = serve_args(&["--apps", "65534", "--rps", "1e9"]).expect("at the limits");
        assert_eq!((a.apps, a.rps[0]), (MAX_TENANTS, MAX_RPS));
    }

    #[test]
    fn staged_tenants_follow_the_seeded_recipe() {
        let a = serve_args(&["--apps", "2", "--bytes", "120", "--devices", "2"]).unwrap();
        let (fleet, specs) = a.build_fleet();
        let names: Vec<&str> = specs.iter().map(|s| s.input.as_str()).collect();
        assert_eq!(names, ["svc0.txt", "svc1.txt"]);
        for d in 0..fleet.num_devices() {
            // Ten ~12-byte rows per tenant, replicated to every device.
            let len = fleet.device(d).fs.open("svc1.txt").expect("staged").len;
            assert!((100..=120).contains(&len), "{len}");
        }
    }

    #[test]
    fn harness_systems_and_fleets_share_its_store() {
        let h = Harness {
            replay: Some(Arc::default()),
            ..Harness::default()
        };
        let shared = h.replay.clone().unwrap();
        let sys = h.app_system(&morpheus_workloads::suite()[9]);
        assert!(Arc::ptr_eq(sys.replay_store().unwrap(), &shared));
        let a = ServeArgs {
            harness: h.clone(),
            ..ServeArgs::default()
        };
        let (fleet, _) = a.build_fleet();
        assert!(Arc::ptr_eq(
            fleet.device(0).replay_store().unwrap(),
            &shared
        ));
        let off = Harness { replay: None, ..h };
        assert!(off
            .system(SystemParams::paper_testbed())
            .replay_store()
            .is_none());
    }

    #[test]
    fn run_parallel_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 7, 100, 1000] {
            let par = run_parallel(jobs, &items, |x| x * x);
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn run_parallel_handles_empty_input() {
        let out: Vec<u64> = run_parallel(4, &[], |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_suite_run_matches_sequential_field_for_field() {
        // Fanning the suite out over threads must not change a single
        // reported quantity, in any mode.
        let h = Harness {
            scale: 8192,
            jobs: 1,
            ..Harness::default()
        };
        let seq = h.suite_run().expect("fault-free run");
        let par = Harness { jobs: 4, ..h }
            .suite_run()
            .expect("fault-free run");
        assert_eq!(seq.apps.len(), 10);
        // RunReport has no PartialEq; its Debug form prints every field,
        // so equal strings mean field-for-field equality.
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }
}
