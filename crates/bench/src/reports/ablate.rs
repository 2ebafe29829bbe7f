//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Sweeps (`ablate --sweep <name>` runs one, default all):
//!
//! * `cores`   — how many embedded cores the Morpheus-SSD needs. One
//!   instance is pinned to one core (§IV-B), so single-app runs are flat,
//!   but multiprogrammed hosts drive several instances.
//! * `clock`   — embedded-core clock vs deserialization speedup.
//! * `chunk`   — MREAD chunk size vs speedup (completion-interrupt
//!   amortization vs pipeline granularity).
//! * `float`   — soft-float penalty vs the SpMV outlier.
//! * `multi`   — multiprogrammed co-runners: contention hurts the host
//!   path (preemptions, faults, bus share) but not the in-SSD path.
//! * `tenants` — N applications deserializing concurrently: conventional
//!   tenants fight for host cores, Morpheus tenants spread over the
//!   drive's embedded cores.
//! * `scale`   — input-size stability of the headline speedup ratio.

use morpheus::{AppSpec, CoRunner, Mode, SystemParams};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::render_error_chain;
use morpheus_workloads::{suite, AppRuns, Benchmark};

use super::{Evaluation, ReportError, Shown};
use crate::{print_table, run_parallel, Harness};

/// Every sweep, in the order a full run shows them.
pub const SWEEPS: [&str; 7] = [
    "cores", "clock", "chunk", "float", "multi", "tenants", "scale",
];

/// `bench`'s deserialization and end-to-end speedups, formatted, over
/// `bytes` of input on a fresh system built from `params`.
fn speedups(
    h: &Harness,
    params: SystemParams,
    bench: &Benchmark,
    bytes: u64,
) -> Result<[String; 2], ReportError> {
    let runs = AppRuns::run(&mut h.staged_system(params, bench, bytes), bench, false)?;
    Ok([runs.deser_speedup(), runs.total_speedup()].map(|s| format!("{s:.2}x")))
}

/// The rows of one sweep, or its first failure.
fn sweep_rows(
    rows: Vec<Result<Vec<String>, ReportError>>,
) -> Result<Vec<Vec<String>>, ReportError> {
    rows.into_iter().collect()
}

/// Ablations: `sweep` alone, or every sweep when `None`.
pub fn ablate(e: &Evaluation, sweep: Option<&str>) -> Shown {
    let h = &e.harness;
    let wanted = |name| sweep.is_none_or(|s| s == name);
    let benches = suite();
    let [pagerank, spmv] =
        ["pagerank", "spmv"].map(|n| benches.iter().find(|b| b.name == n).expect("suite"));
    let bytes = h.input_bytes(pagerank);
    // One sweep point: a row label, its testbed and pagerank's input size.
    let tweaked = |label: String, tweak: &dyn Fn(&mut SystemParams)| {
        let mut p = SystemParams::paper_testbed();
        tweak(&mut p);
        (label, p, bytes)
    };
    let pagerank_sweep =
        |title: &str, column: &str, points: &[(String, SystemParams, u64)]| -> Shown {
            println!("\nablation: {title} (pagerank)");
            let rows = sweep_rows(run_parallel(h.jobs, points, |(label, p, bytes)| {
                let [d, t] = speedups(h, p.clone(), pagerank, *bytes)?;
                Ok(vec![label.clone(), d, t])
            }))?;
            print_table(&[column, "deser_speedup", "total_speedup"], &rows);
            Ok(())
        };

    if wanted("cores") {
        let points = [1u32, 2, 4, 8].map(|c| tweaked(c.to_string(), &|p| p.ssd.embedded_cores = c));
        pagerank_sweep("embedded core count", "cores", &points)?;
        println!("(one instance is pinned to one core; extra cores serve other tenants)");
    }

    if wanted("clock") {
        let points = [200.0, 400.0, 800.0, 1600.0]
            .map(|mhz: f64| tweaked(format!("{mhz:.0}MHz"), &|p| p.ssd.core_clock_hz = mhz * 1e6));
        pagerank_sweep("embedded core clock", "clock", &points)?;
    }

    if wanted("chunk") {
        let points = [1u64, 2, 4, 8, 16, 32]
            .map(|mb| tweaked(format!("{mb}MiB"), &|p| p.mread_chunk_bytes = mb << 20));
        pagerank_sweep("MREAD chunk size", "chunk", &points)?;
    }

    if wanted("float") {
        println!("\nablation: soft-float penalty (spmv, the Fig. 8 outlier)");
        let penalties = [1.0, 2.0, 4.0, 8.0, 16.0];
        let rows = sweep_rows(run_parallel(h.jobs, &penalties, |pen| {
            let mut p = SystemParams::paper_testbed();
            p.device_cost.float_penalty = *pen;
            let [d, _] = speedups(h, p, spmv, h.input_bytes(spmv))?;
            Ok(vec![format!("{pen:.0}x"), d])
        }))?;
        print_table(&["fp_penalty", "spmv_deser_speedup"], &rows);
        println!("(an FPU-equipped controller would move spmv up to the integer apps)");
    }

    if wanted("multi") {
        let cases = [
            ("idle host", None),
            ("moderate co-runner", Some(CoRunner::moderate())),
            ("heavy co-runner", Some(CoRunner::heavy())),
        ];
        let points = cases.map(|(label, co)| tweaked(label.into(), &|p| p.corunner = co));
        pagerank_sweep("multiprogrammed co-runner", "host load", &points)?;
        println!("(contention widens the deserialization gap; total speedup compresses because");
        println!(" the compute kernel — identical in both modes — slows with the stolen cores)");
    }

    if wanted("tenants") {
        println!("\nablation: concurrent tenants (edge-list deserialization, aggregate MB/s)");
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
        let counts = [1usize, 2, 4, 8];
        let rows = sweep_rows(run_parallel(h.jobs, &counts, |n| {
            let mut sys = h.system(SystemParams::paper_testbed());
            let mut specs = Vec::new();
            for i in 0..*n {
                let file = format!("tenant{i}.txt");
                let mut w = TextWriter::new();
                for j in 0..200_000u64 {
                    w.write_u64((j * 7 + i as u64) % 100_000);
                    w.sep();
                    w.write_u64((j * 13 + i as u64) % 100_000);
                    w.newline();
                }
                sys.create_input_file(&file, w.as_bytes())
                    .expect("staging tenant input");
                let spec = AppSpec::cpu_app(&format!("t{i}"), &file, schema.clone(), 1, 50.0);
                specs.push(spec);
            }
            h.arm_faults(&mut sys);
            let mut aggregate_mbs = |mode| {
                let tenants: Vec<_> = specs.iter().map(|s| (s.clone(), mode)).collect();
                let run = sys.run_deserialize_many(&tenants);
                let err = |e| format!("{n} {mode} tenants: {}", render_error_chain(&e));
                run.map(|r| r.aggregate_mbs).map_err(err)
            };
            let c = aggregate_mbs(Mode::Conventional)?;
            let m = aggregate_mbs(Mode::Morpheus)?;
            Ok(vec![
                format!("{n}"),
                format!("{c:.1}"),
                format!("{m:.1}"),
                format!("{:.2}x", m / c),
            ])
        }))?;
        print_table(&["tenants", "conventional", "morpheus", "advantage"], &rows);
        println!("(4 host cores vs 4 embedded cores; beyond 4 tenants both saturate,");
        println!(" but the Morpheus host is still free to run real work — §III)");
    }

    if wanted("scale") {
        let points = [2u64, 4, 8, 16, 32]
            .map(|mb| (format!("{mb}MB"), SystemParams::paper_testbed(), mb << 20));
        pagerank_sweep("input-scale stability of the speedup", "input", &points)?;
        println!("(ratios are size-stable, justifying scaled-down staging)");
    }
    Ok(())
}
