//! Windowed serving telemetry + SLO / error-budget evaluation.
//!
//! Runs one open-loop serving cell with the sim-time sampler armed and
//! renders the windowed time-series three ways:
//!
//! * `--format text` (default) — ASCII sparklines of the key series
//!   (RPS, p99, queue depth, cache hit rate), one SLO verdict line per
//!   objective with its burn-rate alert timeline, and the totals row;
//! * `--format csv` — one row per window, canonical number formatting;
//! * `--format prom` — Prometheus text exposition (counters, gauges,
//!   log2 histograms with cumulative buckets, SLO burn/budget series).
//!
//! Deterministic by construction: the cell builds its own seeded fleet
//! and the sampler folds events into windows keyed by integer sim-time
//! division, so every byte of output is identical across repeats.
//! `docs/TELEMETRY.md` documents the sampling model and SLO semantics.

use morpheus::Mode;
use morpheus_bench::{parse_flags, value_of, ArgError, ServeArgs};
use morpheus_simcore::{parse_duration, render_error_chain, SimDuration};

/// `telemetry`'s own flags; the shared ones follow in the usage text.
const USAGE_HEAD: &str = "telemetry [--rps R] [--mode conventional|morpheus|morpheus+p2p]
[--window DUR] [--format text|csv|prom] [--out <path>]";

/// Output rendering selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Csv,
    Prom,
}

/// One parsed invocation (a single serving cell).
#[derive(Debug)]
struct Cli {
    serve: ServeArgs,
    window: SimDuration,
    format: Format,
    out: Option<String>,
}

impl Cli {
    /// The one (mode, rps) cell this invocation serves.
    fn cell(&self) -> (Mode, f64) {
        (self.serve.modes[0], self.serve.rps[0])
    }
}

/// The flag grammar, separated from process state so tests can drive it.
fn parse(args: &[String]) -> Result<Cli, ArgError> {
    let mut cli = Cli {
        serve: ServeArgs {
            rps: vec![4000.0],
            modes: vec![Mode::Morpheus],
            single_cell: true,
            ..ServeArgs::default()
        },
        window: SimDuration::from_millis(10),
        format: Format::Text,
        out: None,
    };
    parse_flags(args, |flag, it| {
        if cli.serve.offer(flag, it)? {
            return Ok(true);
        }
        match flag {
            "--window" => {
                let v = value_of(flag, it)?;
                cli.window = parse_duration(v).map_err(|e| format!("--window: {e}"))?;
            }
            "--format" => {
                let v = value_of(flag, it)?;
                cli.format = match v.as_str() {
                    "text" => Format::Text,
                    "csv" => Format::Csv,
                    "prom" => Format::Prom,
                    other => {
                        return Err(format!("--format expects text|csv|prom, got {other:?}").into())
                    }
                };
            }
            "--out" => cli.out = Some(value_of(flag, it)?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    cli.serve.fleet.validate()?;
    if cli.format == Format::Prom && cli.serve.fleet.devices > 1 {
        return Err(
            "--format prom requires --devices 1: a Prometheus exposition declares \
             each metric once (use --format csv for per-device windows)"
                .into(),
        );
    }
    Ok(cli)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{}", ServeArgs::usage(USAGE_HEAD));
        std::process::exit(2);
    });
    let args = &cli.serve;
    let (mode, rps) = cli.cell();
    let (mut fleet, specs) = args.build_fleet();
    let rep = fleet
        .serve(&specs, &args.serve_config(mode, rps, Some(cli.window)))
        .unwrap_or_else(|e| {
            eprintln!("error: serve failed: {}", render_error_chain(&e));
            std::process::exit(1);
        });
    // Telemetry is sampled per device; a fleet run labels every block
    // with its device, a run without fleet flags prints its one device
    // as the single-SSD report.
    let engaged = args.fleet.engaged();
    let (mode_label, rps_label) = (mode.to_string(), format!("{rps:.0}"));
    let mut windows = rep
        .per_device
        .iter()
        .map(|d| d.telemetry.as_ref().expect("sampler installed"));
    let rendered = match cli.format {
        Format::Text => {
            let mut s = format!(
                "telemetry: {mode} @ {rps:.0} rps, duration {}s, window {}, policy {}, seed {}",
                args.duration_s, cli.window, args.policy, args.harness.seed
            );
            if engaged {
                let a = &rep.aggregate;
                s.push_str(&format!(
                    ", devices {} placement {}\n\
                     fleet: rebalanced {} | offered {} completed {} shed {} failed {}\n",
                    args.fleet.devices,
                    args.fleet.placement,
                    rep.rebalanced,
                    a.offered,
                    a.completed,
                    a.shed,
                    a.failed,
                ));
                if let Some(c) = &rep.control {
                    s.push_str(&format!("{c}"));
                }
            } else {
                s.push('\n');
            }
            for (i, (d, t)) in rep.per_device.iter().zip(windows).enumerate() {
                if engaged {
                    s.push_str(&format!("device {i}: "));
                }
                s.push_str(&format!(
                    "offered {} completed {} shed {} failed {} | p50 {:.1}us p99 {:.1}us\n{t}",
                    d.offered,
                    d.completed,
                    d.shed,
                    d.failed,
                    d.e2e_ns.p50() as f64 / 1e3,
                    d.e2e_ns.p99() as f64 / 1e3,
                ));
                if engaged && !s.ends_with('\n') {
                    s.push('\n');
                }
            }
            s
        }
        // "target_rps": the offered rate, distinct from the derived
        // per-window "rps" (completed) column.
        Format::Csv => windows
            .enumerate()
            .map(|(i, t)| {
                let mut labels = vec![
                    ("mode", mode_label.clone()),
                    ("target_rps", rps_label.clone()),
                ];
                if engaged {
                    labels.push(("device", i.to_string()));
                }
                t.to_csv(&labels)
            })
            .collect(),
        // --devices 1 is enforced at parse time: the lone device.
        Format::Prom => windows
            .next()
            .expect("one device")
            .to_prometheus("morpheus", &[("mode", &mode_label), ("rps", &rps_label)]),
    };
    emit(&cli, &rendered);
}

/// Writes the rendered telemetry to `--out` (or stdout when unset).
fn emit(cli: &Cli, rendered: &str) {
    match &cli.out {
        Some(path) => {
            std::fs::write(path, rendered).unwrap_or_else(|e| {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote telemetry ({:?}) to {path}", cli.format);
        }
        None => print!("{rendered}"),
    }
}

#[cfg(test)]
mod tests {
    //! `telemetry`'s own flags; the shared serving grammar is tested
    //! beside `ServeArgs` in the bench library.

    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let cli = parse(&argv(&[])).expect("valid");
        assert_eq!(cli.cell(), (Mode::Morpheus, 4000.0));
        assert_eq!(cli.window, SimDuration::from_millis(10));
        assert!(cli.serve.slo.is_empty());
        assert_eq!(cli.format, Format::Text);
        assert!(cli.out.is_none());
    }

    #[test]
    fn parse_own_grammar() {
        let cli = parse(&argv(&[
            "--rps",
            "8000",
            "--mode",
            "morpheus+p2p",
            "--window",
            "5ms",
            "--format",
            "prom",
            "--out",
            "t.prom",
        ]))
        .expect("valid");
        assert_eq!(cli.cell(), (Mode::MorpheusP2P, 8000.0));
        assert_eq!(cli.window, SimDuration::from_millis(5));
        assert_eq!(cli.format, Format::Prom);
        assert_eq!(cli.out.as_deref(), Some("t.prom"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            vec!["--mode", "all"],                       // one cell: no engine sweep
            vec!["--rps", "100,200"],                    // one cell: no rate ladder
            vec!["--mode", "all", "--mode", "morpheus"], // rejected at once, not overridden
            vec!["--window", "0ms"],                     // zero window
            vec!["--window", "later"],                   // malformed
            vec!["--window"],                            // missing value
            vec!["--format", "json"],                    // unknown format
            vec!["--jobs", "4"],                         // single cell: no fan-out flag
            vec!["--telemetry-window", "10ms"],          // serve's spelling
            vec!["--devices", "2", "--format", "prom"],  // prom is single-device
        ] {
            assert!(parse(&argv(&bad)).is_err(), "should reject {bad:?}");
        }
    }
}
