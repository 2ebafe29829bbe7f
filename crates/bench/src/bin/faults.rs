//! Degradation curve: suite speedup as the injected fault rate rises.
//!
//! Sweeps a ladder of fault rates; at each rung every suite application
//! runs conventionally and under Morpheus on the *same* faulty system, so
//! the table shows how gracefully the in-storage path degrades — retried
//! commands, ECC penalties, and the occasional host fallback — while the
//! objects stay bit-identical. Regenerates the EXPERIMENTS.md
//! "fault-rate degradation" table.
//!
//! Flags: the shared harness grammar (`--scale`, `--seed`, `--jobs`);
//! the sweep sets the per-rung fault plans itself, so `--faults` here
//! only overrides the *seed* ladder via its `seed=` key. With
//! `--devices N` (and optional `--placement rr|hash|capacity`,
//! `--kill-device DEV@SECS`, `--rolling-update SECS`, `--heal`) the
//! sweep appends a fleet serving-resilience table: the same fault ladder
//! applied fleet-wide to an N-device serve cell, showing how aggregate
//! completion and redispatch counts degrade — with the kill schedule and
//! control plane in force.

use morpheus::{FleetConfig, Mode};
use morpheus_bench::{
    exit_usage, fleet_banner, fleet_engaged, geomean, offer_fleet, parse_flags, print_table,
    run_parallel, usage_with, validate_fleet, ArgError, Harness, ServeArgs, FLEET_USAGE,
};
use morpheus_simcore::{render_error_chain, FaultCounters, FaultPlan};
use morpheus_workloads::{suite, AppRuns};

/// The swept fault rates. Per rung `r`, probabilities scale as:
/// correctable flash errors `10r`, uncorrectable `r/10`, NVMe command
/// loss `r`, core stalls `r`, core crashes `r/20`, PCIe degradation `r`.
const RATES: [f64; 6] = [0.0, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2];

fn plan_for(rate: f64, seed: u64) -> Option<FaultPlan> {
    if rate == 0.0 {
        return None;
    }
    let mut p = FaultPlan::none();
    p.seed = seed;
    p.flash_correctable = (10.0 * rate).min(1.0);
    p.flash_uncorrectable = rate / 10.0;
    p.nvme_timeout = rate;
    p.core_stall = rate;
    p.core_crash = rate / 20.0;
    p.pcie_degrade = rate;
    Some(p)
}

/// The harness flags over `h`, plus the fleet/control group, nothing
/// else.
fn parse(args: &[String], mut h: Harness) -> Result<(Harness, FleetConfig), ArgError> {
    let mut fleet = FleetConfig::new(1);
    parse_flags(args, |flag, it| {
        Ok(h.offer(flag, it)? || offer_fleet(&mut fleet, flag, it)?)
    })?;
    validate_fleet(&fleet)?;
    Ok((h, fleet))
}

fn main() {
    // Suite × rates × two modes: default to a small input scale so the
    // whole sweep stays quick; an explicit --scale still wins because the
    // parser applies flags left to right.
    let mut args: Vec<String> = vec!["--scale".into(), "4096".into()];
    args.extend(std::env::args().skip(1));
    let usage = || usage_with(&format!("faults {}", Harness::USAGE), &[FLEET_USAGE]);
    let (h, fleet) = parse(&args, Harness::from_env()).unwrap_or_else(|e| exit_usage(&e, &usage()));
    let fault_seed = h.faults.map(|p| p.seed).unwrap_or(1);
    println!(
        "Fault-rate degradation: suite deser speedup, morpheus vs baseline (scale 1/{}, fault seed {})\n",
        h.scale, fault_seed
    );
    let benches = suite();
    let mut rows = Vec::new();
    for rate in RATES {
        let hr = Harness {
            faults: plan_for(rate, fault_seed),
            ..h.clone()
        };
        let outcomes = run_parallel(hr.jobs, &benches, |bench| {
            // A run may fail cleanly (reissue budget spent); it is
            // reported, not counted into the geomean. The objects must
            // stay bit-identical under faults, which `AppRuns` asserts.
            let runs = AppRuns::run(&mut hr.app_system(bench), bench, false).ok()?;
            Some((runs.deser_speedup(), runs.morpheus.faults))
        });
        let speedups: Vec<f64> = outcomes.iter().flatten().map(|(s, _)| *s).collect();
        let failed = outcomes.len() - speedups.len();
        let mut agg = FaultCounters::default();
        for (_, c) in outcomes.iter().flatten() {
            agg.merge(c);
        }
        rows.push(vec![
            format!("{rate:.0e}"),
            if speedups.is_empty() {
                "-".into()
            } else {
                format!("{:.2}x", geomean(&speedups))
            },
            failed.to_string(),
            agg.ecc_corrected.to_string(),
            agg.nvme_retries.to_string(),
            (agg.core_stalls + agg.core_crashes).to_string(),
            agg.pcie_degraded.to_string(),
            agg.host_fallbacks.to_string(),
        ]);
    }
    print_table(
        &[
            "fault rate",
            "deser speedup",
            "failed",
            "ecc",
            "nvme-retries",
            "core-faults",
            "pcie-degraded",
            "fallbacks",
        ],
        &rows,
    );
    println!();
    println!("speedup is the geomean over suite apps that completed; objects are checked");
    println!("bit-identical between modes at every rate (fallback keeps Morpheus correct).");

    if fleet_engaged(&fleet) {
        // The same fault ladder applied fleet-wide to an N-device serving
        // cell: every device degrades identically, so the table isolates
        // how the *serving plane* (admission, redispatch, fallback)
        // absorbs faults at fleet scale — under the kill schedule and
        // control plane when given.
        println!();
        println!(
            "Fleet serving resilience: {} devices, placement {}, \
             morpheus @ 4000 rps x 0.02s, 3 apps{}",
            fleet.devices,
            fleet.placement,
            fleet_banner(&fleet)
        );
        let mut frows = Vec::new();
        let mut last_control = None;
        for rate in RATES {
            let mut cell = ServeArgs::new(Harness {
                faults: plan_for(rate, fault_seed),
                ..h.clone()
            });
            cell.serve.duration_s = 0.02;
            cell.fleet = fleet.clone();
            let (mut f, specs) = cell.build_fleet();
            let cfg = cell.serve_config(Mode::Morpheus, 4000.0, None);
            let rep = f.serve(&specs, &cfg).unwrap_or_else(|e| {
                eprintln!("error: fleet serve failed: {}", render_error_chain(&e));
                std::process::exit(1);
            });
            let a = &rep.aggregate;
            if rep.control.is_some() {
                last_control = rep.control.clone();
            }
            frows.push(vec![
                format!("{rate:.0e}"),
                a.offered.to_string(),
                a.completed.to_string(),
                a.shed.to_string(),
                a.fault_redispatches.to_string(),
                a.failed.to_string(),
                format!("{:.1}", a.sustained_rps),
            ]);
        }
        print_table(
            &[
                "fault rate",
                "offered",
                "done",
                "shed",
                "redisp",
                "fail",
                "sust_rps",
            ],
            &frows,
        );
        if let Some(c) = &last_control {
            // The plan is rate-independent (it depends only on the fleet
            // shape and schedule), so one summary covers the whole sweep.
            println!();
            print!("{c}");
        }
    }
}
