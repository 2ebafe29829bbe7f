//! One-command benchmark of the Morpheus reproduction: five workloads, the
//! end-to-end cost of running the simulator, and a traced per-layer
//! breakdown that includes the modelled system's simulated latencies. See
//! `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! benchmark [--seed N] [--seconds S] [--runs R] [--json PATH]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! A run repeats one workload's pass, each in a fresh child process of this
//! binary so process-wide memo tables start cold every time, until
//! `--seconds` of wall-clock time have gone by. It reports medians over the
//! passes. With `--trace 1` one more pass runs traced and yields the
//! per-layer numbers. The last line of standard output is a JSON summary;
//! the exit code is 1 if any correctness check failed.

mod catalog;
mod json;
mod paper;
mod serve;
mod spans;
mod stats;

use catalog::{Kind, Source, Workload, METRICS};
use json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Wall-clock seconds one run measures unless `--seconds` says otherwise.
pub const DEFAULT_SECONDS: u64 = 10;
/// Passes a run makes even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       benchmark [--seed N] [--seconds S] [--runs R] [--json PATH]
       benchmark compare BASE.json NEW.json";

/// What one pass reports: metric values, a digest of every report it
/// rendered, and its operation and check tallies.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PassOut {
    pub values: BTreeMap<&'static str, f64>,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl PassOut {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalog does not list (a bug in this program).
    pub fn set(&mut self, name: &str, value: f64) {
        let m = catalog::metric(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.insert(m.name, value);
    }

    /// Records a failed check; it counts as a failed operation.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Folds a report rendering into the pass digest (FNV-1a).
    pub fn fold_digest(&mut self, text: &str) {
        for b in text.bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The line protocol a pass child prints.
    fn render(&self) -> String {
        let mut s = format!(
            "attempted {}\nfailed {}\ndigest {:016x}\n",
            self.attempted, self.failed, self.digest
        );
        for (name, v) in &self.values {
            s.push_str(&format!("metric {name} {v}\n"));
        }
        for f in &self.failures {
            s.push_str(&format!("check_failed {}\n", f.replace('\n', " ")));
        }
        s
    }

    fn parse(text: &str) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let int = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad pass line {line:?}"))
            };
            match key {
                "attempted" => out.attempted = int(rest)?,
                "failed" => out.failed = int(rest)?,
                "digest" => {
                    out.digest =
                        u64::from_str_radix(rest, 16).map_err(|_| format!("bad digest {rest:?}"))?
                }
                "metric" => {
                    let (name, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad pass line {line:?}"))?;
                    let m =
                        catalog::metric(name).ok_or_else(|| format!("unknown metric {name}"))?;
                    let v: f64 = v.parse().map_err(|_| format!("bad value in {line:?}"))?;
                    out.values.insert(m.name, v);
                }
                "check_failed" => out.failures.push(rest.to_string()),
                _ => return Err(format!("unexpected pass line {line:?}")),
            }
        }
        Ok(out)
    }
}

/// CPU time this process has used, seconds. A virtual machine's kernel
/// leaves out time the hypervisor stole, so on a shared host this is far
/// steadier than wall time.
pub fn cpu_now() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on Linux `struct timespec` is two C longs, laid out as
    // `Timespec`; `ts` is valid and writable for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host time elapsed since a start point, by this process's CPU clock and
/// by the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    cpu: f64,
    wall: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: cpu_now(),
            wall: Instant::now(),
        }
    }

    pub fn cpu(&self) -> f64 {
        cpu_now() - self.cpu
    }

    pub fn wall(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// The system allocator, counting live heap bytes and their high-water
/// mark. Peak RSS follows glibc's heap history, which swung paper-suite's
/// by ±6% between seeds; the live-byte peak repeats exactly for a seed.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's; the counters only observe sizes. Relaxed atomics suffice
// because the counters publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Most heap bytes this process has held live at once, decimal MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / 1e6
}

/// Peak resident memory of this process so far (`VmHWM`), decimal MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// One pass of `w` in this process.
fn pass(w: Workload, seed: u64, traced: bool, tiny: bool) -> PassOut {
    match w {
        Workload::PaperSuite => paper::pass(seed, traced, tiny),
        _ => serve::pass(w, seed, traced, tiny),
    }
}

/// One pass of `w` in a fresh child process of this binary.
fn spawn_pass(w: Workload, seed: u64, traced: bool) -> Result<PassOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["pass", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("pass exited with {}", output.status));
    }
    PassOut::parse(&String::from_utf8_lossy(&output.stdout))
}

/// One run's results.
#[derive(Debug, Default)]
struct RunOut {
    values: BTreeMap<&'static str, f64>,
    passes: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl RunOut {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }
}

/// Folds a run's passes into its metrics and checks. Host metrics are
/// medians over the untraced passes; simulated ones must agree across
/// every pass, traced or not, to the last digit of every report.
fn summarize(w: Workload, passes: &[PassOut], traced: Option<&PassOut>) -> RunOut {
    let mut run = RunOut {
        passes: passes.len(),
        ..RunOut::default()
    };
    for p in passes.iter().chain(traced) {
        run.attempted += p.attempted;
        run.failed += p.failed;
        for f in &p.failures {
            if !run.failures.contains(f) {
                run.failures.push(f.clone());
            }
        }
    }
    let Some(first) = passes.first() else {
        run.fail("no pass completed".into());
        return run;
    };
    if passes.iter().any(|p| p.digest != first.digest) {
        run.fail("untraced passes disagree: the simulation is not deterministic".into());
    }
    if traced.is_some_and(|t| t.digest != first.digest) {
        run.fail("traced reports differ from untraced ones: tracing perturbed the run".into());
    }
    let median_of = |name: &str| {
        let xs: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.values.get(name))
            .copied()
            .collect();
        (!xs.is_empty()).then(|| stats::median(&xs))
    };
    for m in METRICS {
        let value = match m.source {
            Source::Traced | Source::Overhead if traced.is_none() => continue,
            _ if !m.scope.covers(w) => Some(0.0),
            Source::Host => median_of(m.name),
            Source::Sim => first.values.get(m.name).copied(),
            Source::Traced => traced.and_then(|t| t.values.get(m.name)).copied(),
            Source::Overhead => traced
                .and_then(|t| t.values.get("cpu_s"))
                .zip(median_of("cpu_s"))
                .map(|(t, u)| 100.0 * (t / u - 1.0)),
        };
        match value {
            Some(v) => {
                run.values.insert(m.name, v);
            }
            None => run.fail(format!("no pass reported {}", m.name)),
        }
    }
    run
}

/// Runs `w` for about `seconds` of wall-clock time.
fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> RunOut {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut errors = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        match spawn_pass(w, seed, false) {
            Ok(p) => passes.push(p),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let traced = if trace && errors.is_empty() {
        match spawn_pass(w, seed, true) {
            Ok(p) => Some(p),
            Err(e) => {
                errors.push(e);
                None
            }
        }
    } else {
        None
    };
    let mut out = summarize(w, &passes, traced.as_ref());
    for e in errors {
        out.fail(e);
    }
    if w.serves() {
        match serve::reference_check(w, seed, false) {
            Ok(n) => out.attempted += n,
            Err(e) => out.fail(format!("reference cell: {e}")),
        }
    }
    out
}

fn print_lines(w: Workload, run: &RunOut, kinds: &[Kind]) {
    for m in METRICS
        .iter()
        .filter(|m| kinds.contains(&m.kind) && m.scope.covers(w))
    {
        if let Some(v) = run.values.get(m.name) {
            println!("{} {} {} {}", w.name(), m.name, v, m.unit);
        }
    }
    for f in &run.failures {
        println!("check_failed {} {f}", w.name());
    }
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn obj(kv: Vec<(&str, Value)>) -> Value {
    Value::Object(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The JSON summary line of one run.
fn summary_json(run: &RunOut, kind: Kind) -> Value {
    let metrics = METRICS
        .iter()
        .filter(|m| m.kind == kind)
        .filter_map(|m| {
            let v = *run.values.get(m.name)?;
            Some((
                m.name,
                obj(vec![
                    ("value", num(v)),
                    ("unit", Value::String(m.unit.into())),
                ]),
            ))
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(run.failed == 0)),
        ("attempted", num(run.attempted.max(1) as f64)),
        ("failed", num(run.failed as f64)),
        ("metrics", obj(metrics)),
    ])
}

/// A ledger: every run's metrics plus per-metric median and quartiles.
fn ledger_json(seed: u64, seconds: f64, runs: &[(Workload, RunOut)]) -> Value {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_list = runs
        .iter()
        .map(|(w, r)| {
            let metrics = r.values.iter().map(|(k, v)| (*k, num(*v))).collect();
            obj(vec![
                ("workload", Value::String(w.name().into())),
                ("correct", Value::Bool(r.failed == 0)),
                ("passes", num(r.passes as f64)),
                ("metrics", obj(metrics)),
            ])
        })
        .collect();
    let summary = Workload::ALL
        .iter()
        .map(|w| {
            let mine: Vec<&RunOut> = runs
                .iter()
                .filter(|(x, _)| x == w)
                .map(|(_, r)| r)
                .collect();
            let per_metric = METRICS
                .iter()
                .filter(|m| m.scope.covers(*w))
                .filter_map(|m| {
                    let xs: Vec<f64> = mine
                        .iter()
                        .filter_map(|r| r.values.get(m.name))
                        .copied()
                        .collect();
                    if xs.is_empty() {
                        return None;
                    }
                    let (q1, q3) = stats::quartiles(&xs);
                    Some((
                        m.name,
                        obj(vec![
                            ("unit", Value::String(m.unit.into())),
                            ("median", num(stats::median(&xs))),
                            ("q1", num(q1)),
                            ("q3", num(q3)),
                        ]),
                    ))
                })
                .collect();
            (w.name(), obj(per_metric))
        })
        .collect();
    obj(vec![
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("cpus", num(cpus as f64)),
        ("runs", Value::Array(run_list)),
        ("summary", obj(summary)),
    ])
}

/// Per (workload, metric), every run's value in a ledger.
fn ledger_values(doc: &Value) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("ledger has no runs array")?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in runs {
        let w = r
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        let Some(Value::Object(metrics)) = r.get("metrics") else {
            return Err(format!("{w}: run without metrics"));
        };
        for (name, v) in metrics {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("{w} {name}: not a number"))?;
            out.entry((w.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// `benchmark compare`: one verdict per (workload, bounded metric).
fn compare(base: &Value, new: &Value) -> Result<Vec<String>, String> {
    let (base, new) = (ledger_values(base)?, ledger_values(new)?);
    let mut lines = Vec::new();
    for w in Workload::ALL {
        for m in METRICS.iter().filter(|m| m.scope.covers(w)) {
            let Some(bound) = m.bound else { continue };
            let key = (w.name().to_string(), m.name.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let v = stats::verdict(b, n, m.better, bound);
            lines.push(format!(
                "{} {} {} base={} new={} {}",
                w.name(),
                m.name,
                v.as_str(),
                stats::median(b),
                stats::median(n),
                m.unit
            ));
        }
    }
    Ok(lines)
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Cli {
    Pass {
        workload: Workload,
        seed: u64,
        traced: bool,
    },
    One {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    All {
        seed: u64,
        seconds: f64,
        runs: usize,
        json: Option<String>,
    },
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Cli::Compare(a.clone(), b.clone())),
            _ => Err("compare takes two ledger files".into()),
        };
    }
    let internal = args.first().map(String::as_str) == Some("pass");
    let mut it = args.iter().skip(usize::from(internal));
    let (mut workload, mut seed, mut seconds, mut trace, mut runs, mut json) =
        (None, 42u64, DEFAULT_SECONDS as f64, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got {v:?}"))?;
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                });
            }
            "--runs" => {
                let v = value()?;
                runs = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|r| *r >= 1)
                        .ok_or_else(|| format!("--runs expects a positive integer, got {v:?}"))?,
                );
            }
            "--json" => json = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    match (internal, workload) {
        (true, Some(workload)) => Ok(Cli::Pass {
            workload,
            seed,
            traced: trace.unwrap_or(false),
        }),
        (true, None) => Err("pass needs --workload".into()),
        (false, Some(workload)) => {
            if runs.is_some() || json.is_some() {
                return Err("--runs and --json go with all workloads, not --workload".into());
            }
            Ok(Cli::One {
                workload,
                seed,
                seconds,
                trace: trace.unwrap_or(false),
            })
        }
        (false, None) => {
            if trace.is_some() {
                return Err("--trace goes with --workload; all workloads run traced".into());
            }
            Ok(Cli::All {
                seed,
                seconds,
                runs: runs.unwrap_or(1),
                json,
            })
        }
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli {
        Cli::Pass {
            workload,
            seed,
            traced,
        } => {
            print!("{}", pass(workload, seed, traced, false).render());
            ExitCode::SUCCESS
        }
        Cli::One {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let out = run(workload, seed, seconds, trace);
            let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
            print_lines(workload, &out, &[kind]);
            println!("{}", summary_json(&out, kind).render());
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Cli::All {
            seed,
            seconds,
            runs,
            json,
        } => {
            let mut results = Vec::new();
            for _ in 0..runs {
                for w in Workload::ALL {
                    let out = run(w, seed, seconds, true);
                    print_lines(w, &out, &[Kind::EndToEnd, Kind::Layer]);
                    results.push((w, out));
                }
            }
            if let Some(path) = json {
                let doc = ledger_json(seed, seconds, &results).render();
                if let Err(e) = std::fs::write(&path, doc + "\n") {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if results.iter().all(|(_, r)| r.failed == 0) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Cli::Compare(a, b) => match read_json(&a).and_then(|a| compare(&a, &read_json(&b)?)) {
            Ok(lines) => {
                for l in lines {
                    println!("{l}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_lines() {
        assert_eq!(
            parse_args(&argv(
                "--workload knee-host --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Cli::One {
                workload: Workload::KneeHost,
                seed: 7,
                seconds: 10.0,
                trace: true
            })
        );
        assert_eq!(
            parse_args(&argv("--seed 42 --json out.json")),
            Ok(Cli::All {
                seed: 42,
                seconds: DEFAULT_SECONDS as f64,
                runs: 1,
                json: Some("out.json".into())
            })
        );
        assert_eq!(
            parse_args(&argv("compare a.json b.json")),
            Ok(Cli::Compare("a.json".into(), "b.json".into()))
        );
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--workload knee-host --json x",
            "--trace 1",
            "--runs 0",
            "--seed",
            "--sede 4",
            "compare a.json",
            "pass --seed 3",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn pass_protocol_round_trips() {
        let mut p = PassOut::default();
        p.set("cpu_s", 1.25);
        p.set("core.serve.p99_ms", 3.375);
        p.fold_digest("report");
        p.attempted = 12;
        p.fail("something\nbroke".into());
        let back = PassOut::parse(&p.render()).expect("parses");
        assert_eq!(back.values, p.values);
        assert_eq!(
            (back.digest, back.attempted, back.failed),
            (p.digest, 12, 1)
        );
        assert_eq!(back.failures, ["something broke"]);
        assert!(PassOut::parse("metric nope 1").is_err());
        assert!(PassOut::parse("bogus").is_err());
    }

    /// A tiny pass of every workload, untraced and traced, must report
    /// every metric the catalog scopes to it, and the summary every metric
    /// of both kinds, with every end-to-end metric above zero.
    #[test]
    fn every_workload_emits_its_metrics() {
        for w in Workload::ALL {
            let untraced = pass(w, 7, false, true);
            let traced = pass(w, 7, true, true);
            for p in [&untraced, &traced] {
                assert!(p.failures.is_empty(), "{}: {:?}", w.name(), p.failures);
                assert_eq!(p.failed, 0, "{}", w.name());
            }
            for m in METRICS.iter().filter(|m| m.scope.covers(w)) {
                let from = match m.source {
                    Source::Host | Source::Sim => &untraced,
                    Source::Traced => &traced,
                    Source::Overhead => continue,
                };
                assert!(from.values.contains_key(m.name), "{} {}", w.name(), m.name);
            }
            let run = summarize(w, &[untraced.clone(), untraced], Some(&traced));
            assert!(run.failures.is_empty(), "{}: {:?}", w.name(), run.failures);
            for m in METRICS {
                let v = run.values[m.name];
                assert!(v.is_finite(), "{} {}", w.name(), m.name);
                if m.kind == Kind::EndToEnd {
                    assert!(v > 0.0, "{} {} = {v}", w.name(), m.name);
                }
            }
        }
    }

    #[test]
    fn summarize_catches_nondeterminism_and_tracing_drift() {
        let mut a = PassOut::default();
        a.set("wall_s", 1.0);
        a.fold_digest("x");
        let mut b = a.clone();
        b.fold_digest("y");
        let run = summarize(Workload::KneeHost, &[a.clone(), b.clone()], None);
        assert!(run.failures.iter().any(|f| f.contains("not deterministic")));
        let run = summarize(Workload::KneeHost, &[a.clone()], Some(&b));
        assert!(run.failures.iter().any(|f| f.contains("tracing perturbed")));
        assert!(run.failed > 0);
    }

    #[test]
    fn compare_reports_each_bounded_pair() {
        let ledger = |wall: [f64; 5]| {
            let runs = wall
                .iter()
                .map(|w| {
                    obj(vec![
                        ("workload", Value::String("knee-host".into())),
                        (
                            "metrics",
                            obj(vec![
                                ("cpu_s", num(*w)),
                                ("core.serve.knee_rps", num(700.0)),
                            ]),
                        ),
                    ])
                })
                .collect();
            obj(vec![("runs", Value::Array(runs))])
        };
        let base = ledger([10.0, 10.1, 9.9, 10.0, 10.05]);
        let slow = ledger([13.0, 13.1, 12.9, 13.0, 13.05]);
        let lines = compare(&base, &slow).expect("compares");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("knee-host cpu_s regressed"),
            "{lines:?}"
        );
        assert!(
            lines[1].starts_with("knee-host core.serve.knee_rps unchanged"),
            "{lines:?}"
        );
        assert!(compare(&obj(vec![]), &slow).is_err());
    }
}
