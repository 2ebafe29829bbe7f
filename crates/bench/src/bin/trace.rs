//! Structured-trace exporter and differ (the observability entry point).
//!
//! Two sub-commands share one strict flag grammar (unknown flags and
//! malformed values exit 2, like every other figure binary):
//!
//! * `trace --app <name> [--mode M] [--trace-out f.json]` — run one suite
//!   application with the tracer enabled, write the span-level event log
//!   as Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`)
//!   and print the per-track occupancy summary.
//! * `trace --diff a.json b.json` — re-import two exported traces and
//!   print a per-layer, per-event-name delta table.

use morpheus::Mode;
use morpheus_bench::{
    exit_usage, mode_named, parse_flags, value_of, ArgError, Harness, MODE_NAMES,
};
use morpheus_simcore::{render_error_chain, render_trace_diff, TraceLog, Tracer};
use morpheus_workloads::{run_benchmark, suite};

const USAGE: &str = "usage: trace --app <name> [--mode conventional|morpheus|morpheus+p2p]
             [--trace-out <path>] [--summary-width N] [--scale N] [--seed N] [--jobs N]
             [--faults SPEC]
       trace --diff <a.json> <b.json>";

/// What one invocation was asked to do.
#[derive(Debug)]
enum Cmd {
    Run {
        app: String,
        mode: Mode,
        trace_out: Option<String>,
        summary_width: usize,
        harness: Harness,
    },
    Diff {
        a: String,
        b: String,
    },
}

/// The flag grammar over `harness`, separated from process state so tests
/// can drive it.
fn parse(args: &[String], mut harness: Harness) -> Result<Cmd, ArgError> {
    let mut app: Option<String> = None;
    let mut mode = Mode::Morpheus;
    let mut trace_out: Option<String> = None;
    let mut summary_width = 48usize;
    let mut diff: Option<(String, String)> = None;
    parse_flags(args, |flag, it| {
        match flag {
            "--app" => app = Some(value_of(flag, it)?.clone()),
            "--mode" => {
                let v = value_of(flag, it)?;
                mode = mode_named(v)
                    .ok_or_else(|| format!("--mode expects {MODE_NAMES}, got {v:?}"))?;
            }
            "--trace-out" => trace_out = Some(value_of(flag, it)?.clone()),
            "--summary-width" => {
                let v = value_of(flag, it)?;
                summary_width = v.parse().map_err(|_| {
                    format!("--summary-width expects a positive integer, got {v:?}")
                })?;
                if summary_width < 8 {
                    return Err("--summary-width must be >= 8".into());
                }
            }
            "--diff" => {
                let a = value_of(flag, it)?.clone();
                let b = it.next().ok_or("--diff requires two trace files")?.clone();
                diff = Some((a, b));
            }
            _ => return harness.offer(flag, it),
        }
        Ok(true)
    })?;
    if let Some((a, b)) = diff {
        if app.is_some() || trace_out.is_some() {
            return Err("--diff cannot be combined with run flags".into());
        }
        return Ok(Cmd::Diff { a, b });
    }
    let app = app.ok_or("missing required flag --app (or use --diff)")?;
    Ok(Cmd::Run {
        app,
        mode,
        trace_out,
        summary_width,
        harness,
    })
}

fn load_trace(path: &str) -> TraceLog {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(1);
    });
    TraceLog::from_chrome_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = parse(&args, Harness::from_env()).unwrap_or_else(|e| exit_usage(&e, USAGE));
    match cmd {
        Cmd::Diff { a, b } => {
            let (la, lb) = (load_trace(&a), load_trace(&b));
            println!(
                "trace diff: a = {a} ({} events), b = {b} ({} events)",
                la.len(),
                lb.len()
            );
            print!("{}", render_trace_diff(&la, &lb));
        }
        Cmd::Run {
            app,
            mode,
            trace_out,
            summary_width,
            harness,
        } => {
            let benches = suite();
            let Some(bench) = benches.iter().find(|b| b.name == app) else {
                let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
                eprintln!("error: unknown app {app:?} (one of: {})", names.join(", "));
                std::process::exit(2);
            };
            if mode == Mode::MorpheusP2P && bench.parallel_label != "CUDA" {
                eprintln!(
                    "error: --mode morpheus+p2p needs a CUDA app; {app} is {}",
                    bench.parallel_label
                );
                std::process::exit(2);
            }
            let mut sys = harness.app_system(bench);
            sys.set_tracer(Tracer::enabled());
            let outcome = match run_benchmark(&mut sys, bench, mode) {
                Ok(o) => o,
                Err(e) => {
                    // Injected faults can exhaust every recovery path; that
                    // is a clean failure, reported as the full cause chain.
                    eprintln!("error: run failed: {}", render_error_chain(&e.source));
                    std::process::exit(1);
                }
            };
            let log = sys.tracer().take();
            println!(
                "{app} ({mode}, scale 1/{}): {} events across layers [{}]",
                harness.scale,
                log.len(),
                log.layers_present()
                    .iter()
                    .map(|l| l.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            println!(
                "phases: deserialization {:.6}s, total {:.6}s",
                outcome.report.phases.deserialization_s,
                outcome.report.phases.total_s()
            );
            if harness.faults.is_some() {
                println!("faults: {}", outcome.report.faults);
                if let Some(cause) = sys.last_fallback_cause() {
                    println!("fallback cause: {cause}");
                }
            }
            println!();
            print!("{}", log.summary(summary_width));
            if let Some(path) = trace_out {
                std::fs::write(&path, log.to_chrome_json()).unwrap_or_else(|e| {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                });
                println!("\nwrote Chrome trace-event JSON to {path} (load in Perfetto)");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The grammar over the defaults, as with no environment set.
    fn parse(args: &[String]) -> Result<Cmd, ArgError> {
        super::parse(args, Harness::default())
    }

    #[test]
    fn parse_run_defaults() {
        let cmd = parse(&argv(&["--app", "bfs"])).expect("valid");
        match cmd {
            Cmd::Run {
                app,
                mode,
                trace_out,
                summary_width,
                ..
            } => {
                assert_eq!(app, "bfs");
                assert_eq!(mode, Mode::Morpheus);
                assert!(trace_out.is_none());
                assert_eq!(summary_width, 48);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn parse_full_run_grammar() {
        let cmd = parse(&argv(&[
            "--app",
            "bfs",
            "--mode",
            "morpheus+p2p",
            "--trace-out",
            "/tmp/t.json",
            "--summary-width",
            "32",
            "--scale",
            "512",
            "--seed",
            "7",
            "--faults",
            "seed=9,crash=1",
        ]))
        .expect("valid");
        match cmd {
            Cmd::Run {
                mode,
                trace_out,
                summary_width,
                harness,
                ..
            } => {
                assert_eq!(mode, Mode::MorpheusP2P);
                assert_eq!(trace_out.as_deref(), Some("/tmp/t.json"));
                assert_eq!(summary_width, 32);
                assert_eq!((harness.scale, harness.seed), (512, 7));
                let plan = harness.faults.expect("fault plan parsed");
                assert_eq!(plan.seed, 9);
                assert_eq!(plan.core_crash, 1.0);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn parse_diff() {
        let cmd = parse(&argv(&["--diff", "a.json", "b.json"])).expect("valid");
        match cmd {
            Cmd::Diff { a, b } => {
                assert_eq!((a.as_str(), b.as_str()), ("a.json", "b.json"));
            }
            other => panic!("expected diff, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            vec!["--app"],                                      // missing value
            vec!["--mode", "turbo"],                            // unknown mode
            vec!["--app", "bfs", "--sacle", "64"],              // typo flag
            vec!["--summary-width", "0"],                       // out of range
            vec!["--summary-width", "abc"],                     // malformed
            vec!["--diff", "a.json"],                           // one file
            vec!["--diff", "a.json", "b.json", "--app", "bfs"], // mixed
            vec!["--app", "bfs", "--scale", "0"],               // harness re-check
            vec!["--app", "bfs", "--faults", "bogus"],          // bad fault spec
            vec![],                                             // no app at all
        ] {
            assert!(parse(&argv(&bad)).is_err(), "should reject {bad:?}");
        }
    }
}
