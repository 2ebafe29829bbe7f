//! Open-loop serving experiment: latency vs offered RPS per engine.
//!
//! Sweeps a ladder of arrival rates over one or all modes and prints one
//! row per (mode, rps) cell: admission counts, end-to-end latency
//! quantiles, sustained throughput, and NVMe doorbell economy. The knee —
//! where queue-wait blows up the tail — arrives at a lower RPS on the
//! conventional path than on the Morpheus paths, which is the serving
//! version of the paper's multiprogramming result.
//!
//! `--telemetry-window DUR` samples every cell in sim-time windows and
//! prints one sparkline block per device with its SLO verdicts
//! (`docs/TELEMETRY.md`); `--telemetry-out` writes the windows as CSV and
//! `--prom-out` as Prometheus text exposition (one cell, one device).
//!
//! Deterministic by construction: the cell grid is fanned out with the
//! shared order-preserving worker pool, and every cell builds its own
//! seeded fleet, so output is byte-identical across repeats and `--jobs`.

use morpheus::{telemetry_windows, FleetReport, Mode, RunError, MAX_TELEMETRY_WINDOWS};
use morpheus_bench::{
    exit_usage, fleet_banner, fleet_engaged, parse_flags, print_table, run_parallel,
    validate_fleet, value_of, ArgError, Harness, ServeArgs,
};
use morpheus_simcore::{parse_duration, render_error_chain, SimDuration};

/// `serve`'s own flags; the shared ones follow in the usage text.
const USAGE_HEAD: &str = "serve [--rps LIST] [--mode all|conventional|morpheus|morpheus+p2p]
[--trace-out <path>] [--telemetry-window DUR] [--telemetry-out <path>]
[--prom-out <path>] [--csv] [--jobs N]";

/// One parsed invocation.
#[derive(Debug)]
struct Cli {
    serve: ServeArgs,
    trace_out: Option<String>,
    telemetry_window: Option<SimDuration>,
    telemetry_out: Option<String>,
    prom_out: Option<String>,
    csv: bool,
}

/// The flag grammar over `harness`, separated from process state so tests
/// can drive it.
fn parse(args: &[String], harness: Harness) -> Result<Cli, ArgError> {
    let mut cli = Cli {
        serve: ServeArgs::new(harness),
        trace_out: None,
        telemetry_window: None,
        telemetry_out: None,
        prom_out: None,
        csv: false,
    };
    parse_flags(args, |flag, it| {
        if cli.serve.offer(flag, it)? || cli.serve.harness.offer_jobs(flag, it)? {
            return Ok(true);
        }
        match flag {
            "--trace-out" => cli.trace_out = Some(value_of(flag, it)?.clone()),
            "--telemetry-window" => {
                let v = value_of(flag, it)?;
                cli.telemetry_window =
                    Some(parse_duration(v).map_err(|e| format!("--telemetry-window: {e}"))?);
            }
            "--telemetry-out" => cli.telemetry_out = Some(value_of(flag, it)?.clone()),
            "--prom-out" => cli.prom_out = Some(value_of(flag, it)?.clone()),
            "--csv" => cli.csv = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let one_cell = cli.serve.modes.len() == 1 && cli.serve.rps.len() == 1;
    if cli.trace_out.is_some() && !one_cell {
        return Err("--trace-out needs a single cell: one --mode and one --rps".into());
    }
    if cli.csv && cli.trace_out.is_some() {
        return Err("--csv and --trace-out are mutually exclusive (CSV owns stdout)".into());
    }
    if let Some(w) = cli.telemetry_window {
        let d = cli.serve.serve.duration_s;
        let n = telemetry_windows(d, w);
        if n > MAX_TELEMETRY_WINDOWS {
            return Err(format!(
                "--telemetry-window must cut --duration into at most \
                 {MAX_TELEMETRY_WINDOWS} windows, got {n} ({w} over {d}s)"
            )
            .into());
        }
    } else {
        if !cli.serve.slo.is_empty() {
            return Err("--slo requires --telemetry-window".into());
        }
        if cli.telemetry_out.is_some() {
            return Err("--telemetry-out requires --telemetry-window".into());
        }
        if cli.prom_out.is_some() {
            return Err("--prom-out requires --telemetry-window".into());
        }
    }
    if cli.prom_out.is_some() && !one_cell {
        return Err(
            "--prom-out needs a single cell (one --mode, one --rps): a Prometheus \
             exposition declares each metric once"
                .into(),
        );
    }
    validate_fleet(&cli.serve.fleet)?;
    if cli.prom_out.is_some() && cli.serve.fleet.devices > 1 {
        return Err(
            "--prom-out requires --devices 1: a Prometheus exposition declares each \
             metric once (use --telemetry-out for per-device windows)"
                .into(),
        );
    }
    Ok(cli)
}

/// Runs one (mode, rps) cell on its own fresh fleet (a fleet of one
/// unless fleet flags say otherwise), returning the report and the
/// rendered trace if this is the traced cell. The cell builds its cache
/// fresh too, so the grid stays byte-identical across `--jobs` fan-outs;
/// cache-on cells therefore measure the within-run (cold-start plus
/// steady-state) hit economy.
fn run_cell(cli: &Cli, mode: Mode, rps: f64) -> Result<(FleetReport, Option<String>), RunError> {
    let (mut fleet, specs) = cli.serve.build_fleet();
    if cli.trace_out.is_some() {
        fleet.enable_tracing();
    }
    let rep = fleet.serve(
        &specs,
        &cli.serve.serve_config(mode, rps, cli.telemetry_window),
    )?;
    let trace = cli
        .trace_out
        .as_ref()
        .map(|_| fleet.take_merged_trace().to_chrome_json());
    Ok((rep, trace))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&argv, Harness::from_env())
        .unwrap_or_else(|e| exit_usage(&e, &ServeArgs::usage(USAGE_HEAD)));

    let args = &cli.serve;
    let engaged = fleet_engaged(&args.fleet);
    let grid: Vec<(Mode, f64)> = args
        .modes
        .iter()
        .flat_map(|m| args.rps.iter().map(move |r| (*m, *r)))
        .collect();
    let cells = run_parallel(args.harness.jobs, &grid, |(mode, rps)| {
        run_cell(&cli, *mode, *rps)
    });

    let (s, c) = (&args.serve, &args.cache);
    let cache_on = c.is_enabled();
    if !cli.csv {
        // The historical banner is extended only when the new knobs are in
        // play, so pre-cache invocations stay byte-identical.
        let mut banner = format!(
            "serve: {} apps x ~{} bytes, duration {}s, depth {}, batch <= {}, policy {}, seed {}",
            args.apps, args.bytes, s.duration_s, s.depth, s.batch_max, s.policy, args.harness.seed
        );
        if s.skew > 0.0 || cache_on {
            let (dram_mb, host_mb) = (c.dram_bytes >> 20, c.host_bytes >> 20);
            banner.push_str(&format!(
                ", skew {}, cache {dram_mb}+{host_mb}MB {}",
                s.skew, c.policy
            ));
        }
        if let Some(w) = cli.telemetry_window {
            banner.push_str(&format!(", telemetry {w}"));
            if !args.slo.is_empty() {
                banner.push_str(&format!(", slo {}", args.slo));
            }
        }
        if engaged {
            banner.push_str(&format!(
                ", devices {} placement {}{}",
                args.fleet.devices,
                args.fleet.placement,
                fleet_banner(&args.fleet)
            ));
        }
        println!("{banner}");
    }
    let mut rows = Vec::new();
    let mut fault_lines = Vec::new();
    let mut cache_lines = Vec::new();
    let mut fleet_lines = Vec::new();
    let mut telemetry_blocks = Vec::new();
    let mut telemetry_csv = String::new();
    let mut prom_text = None;
    let mut trace_json = None;
    for ((mode, rps), cell) in grid.iter().zip(cells) {
        let (fleet_rep, trace) = match cell {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "error: serve {mode} @ {rps} rps failed: {}",
                    render_error_chain(&e)
                );
                std::process::exit(1);
            }
        };
        if trace.is_some() {
            trace_json = trace;
        }
        let FleetReport {
            aggregate: rep,
            per_device,
            rebalanced,
            control,
            ..
        } = fleet_rep;
        if engaged {
            fleet_lines.push(format!(
                "fleet ({mode} @ {rps:.0} rps): devices={} placement={} rebalanced={rebalanced}",
                per_device.len(),
                args.fleet.placement
            ));
            for (i, d) in per_device.iter().enumerate() {
                fleet_lines.push(format!(
                    "  dev{i}: offered={} done={} shed={} fail={} sust_rps={:.1} p99_us={:.1}",
                    d.offered,
                    d.completed,
                    d.shed,
                    d.failed,
                    d.sustained_rps,
                    d.e2e_ns.p99() as f64 / 1e3
                ));
            }
            // Control-plane outcome: the transition counters then one
            // lifecycle/health line per device, labelled like the fleet
            // rows above.
            if let Some(c) = &control {
                for line in format!("{c}").lines() {
                    fleet_lines.push(format!("  {line}"));
                }
            }
        }
        // Telemetry is sampled per device. An engaged fleet labels each
        // device's block and CSV rows with its index; a plain run's one
        // device is the single SSD.
        let (mode_label, rps_label) = (mode.to_string(), format!("{rps:.0}"));
        for (i, d) in per_device.iter().enumerate() {
            let Some(t) = &d.telemetry else { continue };
            let dev = if engaged {
                format!(", dev{i}")
            } else {
                String::new()
            };
            telemetry_blocks.push(format!("telemetry ({mode} @ {rps_label} rps{dev}):\n{t}"));
            if cli.telemetry_out.is_some() {
                // One header+rows block per cell and device: window
                // columns are data-dependent. "target_rps": the offered
                // rate, distinct from the derived per-window "rps"
                // (completed) column.
                let mut labels = vec![
                    ("mode", mode_label.clone()),
                    ("target_rps", rps_label.clone()),
                ];
                if engaged {
                    labels.push(("device", i.to_string()));
                }
                telemetry_csv.push_str(&t.to_csv(&labels));
            }
            if cli.prom_out.is_some() {
                // One cell on one device, enforced at parse time.
                prom_text = Some(
                    t.to_prometheus("morpheus", &[("mode", &mode_label), ("rps", &rps_label)]),
                );
            }
        }
        let mut row = vec![
            mode_label,
            rps_label,
            rep.offered.to_string(),
            rep.completed.to_string(),
            rep.shed.to_string(),
            rep.overflow_fallbacks.to_string(),
            rep.fault_redispatches.to_string(),
            rep.failed.to_string(),
            format!("{:.1}", rep.e2e_ns.p50() as f64 / 1e3),
            format!("{:.1}", rep.e2e_ns.p95() as f64 / 1e3),
            format!("{:.1}", rep.e2e_ns.p99() as f64 / 1e3),
            format!("{:.1}", rep.sustained_rps),
            format!("{:.1}", rep.aggregate_mbs),
            rep.commands.to_string(),
            rep.doorbell_writes.to_string(),
            format!("{:.3}", rep.metrics.get("ssd_core_utilization")),
        ];
        if cache_on {
            let c = rep.cache.unwrap_or_default();
            row.push(format!("{:.3}", c.hit_rate()));
        }
        rows.push(row);
        if args.harness.faults.is_some() {
            fault_lines.push(format!("faults ({mode} @ {rps:.0} rps): {}", rep.faults));
        }
        if let Some(c) = rep.cache {
            cache_lines.push(format!("cache ({mode} @ {rps:.0} rps): {c}"));
        }
    }
    let mut header = vec![
        "mode", "rps", "offered", "done", "shed", "fb", "redisp", "fail", "p50us", "p95us",
        "p99us", "sust_rps", "mb_s", "cmds", "dbell", "ssd_util",
    ];
    if cache_on {
        header.push("hit_rate");
    }
    let write_file = |path: &String, content: &str| {
        std::fs::write(path, content).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
    };
    if let Some(path) = &cli.telemetry_out {
        write_file(path, &telemetry_csv);
    }
    if let (Some(path), Some(prom)) = (&cli.prom_out, &prom_text) {
        write_file(path, prom);
    }
    if cli.csv {
        // CSV owns stdout: exactly one header line plus one line per cell.
        println!("{}", header.join(","));
        for row in &rows {
            println!("{}", row.join(","));
        }
        return;
    }
    print_table(&header, &rows);
    for line in fleet_lines {
        println!("{line}");
    }
    for line in fault_lines {
        println!("{line}");
    }
    for line in cache_lines {
        println!("{line}");
    }
    for block in telemetry_blocks {
        println!("{block}");
    }
    if let Some(path) = &cli.telemetry_out {
        println!("wrote windowed telemetry CSV to {path}");
    }
    if let Some(path) = &cli.prom_out {
        println!("wrote Prometheus text exposition to {path}");
    }
    if let (Some(path), Some(json)) = (&cli.trace_out, trace_json) {
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote Chrome trace-event JSON to {path} (load in Perfetto)");
    }
}

#[cfg(test)]
mod tests {
    //! `serve`'s own flags; the shared serving grammar is tested beside
    //! `ServeArgs` in the bench library.

    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The grammar over the defaults, as with no environment set.
    fn parse(args: &[String]) -> Result<Cli, ArgError> {
        super::parse(args, Harness::default())
    }

    /// One `--mode`, one `--rps`: the shape single-cell outputs need.
    const CELL: [&str; 4] = ["--mode", "morpheus", "--rps", "100"];

    fn with_cell(args: &[&'static str]) -> Vec<String> {
        argv(&[args, &CELL[..]].concat())
    }

    #[test]
    fn parse_defaults() {
        let cli = parse(&argv(&[])).expect("valid");
        assert_eq!(cli.serve.modes.len(), 3);
        assert_eq!(cli.serve.rps.len(), 6);
        assert!(!cli.csv);
        assert!(cli.trace_out.is_none() && cli.telemetry_window.is_none());
        assert!(
            !cli.serve.cache_config().is_enabled(),
            "defaults are cache-off"
        );
        assert!(
            !fleet_engaged(&cli.serve.fleet),
            "defaults serve a fleet of one"
        );
    }

    #[test]
    fn parse_own_grammar() {
        let cli = parse(&argv(&[
            "--rps",
            "100,200.5",
            "--csv",
            "--jobs",
            "4",
            "--seed",
            "7",
            "--telemetry-window",
            "10ms",
            "--slo",
            "p99<500us,avail>99.9",
            "--telemetry-out",
            "t.csv",
        ]))
        .expect("valid");
        assert_eq!(cli.serve.rps, vec![100.0, 200.5]);
        assert!(cli.csv);
        assert_eq!((cli.serve.harness.seed, cli.serve.harness.jobs), (7, 4));
        assert_eq!(cli.telemetry_window, Some(SimDuration::from_millis(10)));
        let t = cli
            .serve
            .serve_config(Mode::Morpheus, 100.0, cli.telemetry_window)
            .telemetry
            .expect("window set");
        assert_eq!(t.slo.objectives.len(), 2);
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            vec!["--sacle", "64"],                                      // typo flag
            vec!["--scale", "64"],                                      // figure-binary flag
            vec!["--fast-forward"],     // removed: the skip is unconditional
            vec!["--jobs", "0"],        // harness re-check
            vec!["--csv", "x"],         // --csv takes no value
            vec!["--telemetry-window"], // missing value
            vec!["--telemetry-window", "0ms"], // zero window
            vec!["--telemetry-window", "0.4ns"], // rounds to a zero window
            vec!["--telemetry-window", "soon"], // malformed
            vec!["--telemetry-window", "1ns"], // 5e7 windows over 0.05 s
            vec!["--slo", "avail>99.9"], // requires --telemetry-window
            vec!["--telemetry-out", "t.csv"], // requires --telemetry-window
            vec!["--prom-out", "t.prom"], // requires --telemetry-window
            vec!["--trace-out", "t.json"], // needs a single cell
            vec!["--telemetry-window", "10ms", "--prom-out", "t.prom"], // needs a single cell
        ] {
            assert!(parse(&argv(&bad)).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn single_cell_outputs_accept_one_cell() {
        assert!(parse(&with_cell(&["--trace-out", "t.json"])).is_ok());
        let prom = ["--telemetry-window", "10ms", "--prom-out", "t.prom"];
        assert!(parse(&with_cell(&prom)).is_ok());
        // Prometheus exposition is single-device only.
        assert!(parse(&with_cell(&[&prom[..], &["--devices", "4"]].concat())).is_err());
        // CSV owns stdout, so it cannot share it with the trace notice.
        assert!(parse(&with_cell(&["--csv", "--trace-out", "t.json"])).is_err());
    }
}
