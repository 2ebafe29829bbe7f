//! Table I and the paper's figures. Figs. 2 and 8–11 and the §VII-A
//! traffic table render the evaluation's one suite run; Table I, Fig. 3
//! and Fig. 12's slow host run sweeps of their own.

use morpheus::{Mode, StorageKind};
use morpheus_workloads::{run_benchmark, suite, AppRuns, Scorecard, Suite, SuiteRun};

use super::{per_app, Evaluation, Shown};
use crate::{print_table, run_parallel};

/// Table I: the benchmark applications and their input sizes.
pub fn table1(e: &Evaluation) -> Shown {
    let h = &e.harness;
    println!(
        "Table I: applications and input data (staged at 1/{} scale)\n",
        h.scale
    );
    let rows: Vec<Vec<String>> = run_parallel(h.jobs, &suite(), |b| {
        let suite_name = match b.suite {
            Suite::BigDataBench => "BigDataBench",
            Suite::Rodinia => "Rodinia",
            Suite::Standalone => "-",
        };
        vec![
            b.name.to_string(),
            suite_name.to_string(),
            b.parallel_label.to_string(),
            format!("{:.2} GB", b.nominal_bytes as f64 / 1e9),
            format!("{:.1} MB", h.input_bytes(b) as f64 / 1e6),
            format!("{:?}", b.schema().fields()),
        ]
    });
    print_table(
        &[
            "app",
            "suite",
            "parallel",
            "paper input",
            "staged input",
            "record schema",
        ],
        &rows,
    );
    Ok(())
}

/// Figure 2: execution-time breakdown of the conventional model.
///
/// Paper claim: with a high-speed NVMe SSD, the ten applications spend
/// **~64 % of execution time deserializing objects**; the rest is other CPU
/// computation, CPU↔GPU copies, and GPU kernels.
pub fn fig2(e: &Evaluation) -> Shown {
    let run = e.figure("Figure 2: conventional execution-time breakdown")?;
    let headers = [
        "app",
        "total_s",
        "deserialize",
        "other_cpu",
        "copy",
        "kernel",
    ];
    per_app(run, &headers, |a| {
        let p = a.conventional.phases;
        let total = p.total_s();
        vec![
            format!("{:.3}", total),
            format!("{:.1}%", 100.0 * p.deserialization_s / total),
            format!("{:.1}%", 100.0 * p.other_cpu_s / total),
            format!("{:.1}%", 100.0 * p.copy_s / total),
            format!("{:.1}%", 100.0 * p.kernel_s / total),
        ]
    });
    let share = 100.0 * Scorecard::measure(run).deser_share;
    println!("average deserialization fraction: {share:.1}%  (paper: ~64%)");
    Ok(())
}

/// Figure 3: effective bandwidth of conventional deserialization across
/// storage devices and CPU frequencies.
///
/// Paper claims: object deserialization is **CPU-bound** — a RAM drive is
/// essentially no better than the NVMe SSD; the HDD trails; underclocking
/// the CPU from 2.5 GHz to 1.2 GHz degrades all devices about equally, so
/// the device differences stay marginal.
pub fn fig3(e: &Evaluation) -> Shown {
    let h = &e.harness;
    println!(
        "Figure 3: effective deserialization bandwidth (MB/s of objects per I/O thread, scale 1/{})\n",
        h.scale
    );
    let configs = [
        ("nvme@2.5GHz", StorageKind::NvmeSsd, 2.5e9),
        ("ram@2.5GHz", StorageKind::RamDrive, 2.5e9),
        ("hdd@2.5GHz", StorageKind::Hdd, 2.5e9),
        ("nvme@1.2GHz", StorageKind::NvmeSsd, 1.2e9),
        ("ram@1.2GHz", StorageKind::RamDrive, 1.2e9),
        ("hdd@1.2GHz", StorageKind::Hdd, 1.2e9),
    ];
    let benches = suite();
    // One suite-parallel pass; each benchmark runs its six device/clock
    // configs on a private fresh system, so fan-out changes nothing.
    let bandwidths = run_parallel(h.jobs, &benches, |bench| {
        let bandwidth = |(_, storage, freq): &(&str, StorageKind, f64)| {
            let mut sys = h.app_system_with(bench, *storage, Some(*freq));
            let out = run_benchmark(&mut sys, bench, Mode::Conventional);
            out.map(|o| o.report.effective_bandwidth_mbs)
        };
        configs
            .iter()
            .map(bandwidth)
            .collect::<Result<Vec<f64>, _>>()
    });
    let bandwidths = bandwidths.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut rows = Vec::new();
    for (bench, bws) in benches.iter().zip(&bandwidths) {
        let mut row = vec![bench.name.to_string()];
        row.extend(bws.iter().map(|bw| format!("{bw:.1}")));
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("app")
        .chain(configs.iter().map(|(n, _, _)| *n))
        .collect();
    print_table(&headers, &rows);
    println!();
    let avgs: Vec<f64> = (0..configs.len())
        .map(|i| bandwidths.iter().map(|bws| bws[i]).sum::<f64>() / bandwidths.len() as f64)
        .collect();
    for ((name, _, _), avg) in configs.iter().zip(&avgs) {
        println!("average {name}: {avg:.1} MB/s");
    }
    let [nvme_fast, ram_fast, hdd_fast, nvme_slow, ..] = avgs[..] else {
        unreachable!("six configs")
    };
    println!();
    println!(
        "ram/nvme at 2.5GHz: {:.2} (paper: ~1.0, RAM no better than NVMe)",
        ram_fast / nvme_fast
    );
    println!(
        "nvme/hdd at 2.5GHz: {:.2} (paper: NVMe ahead of HDD)",
        nvme_fast / hdd_fast
    );
    println!(
        "nvme 2.5GHz vs 1.2GHz: {:.2} (paper: large degradation when underclocked => CPU-bound)",
        nvme_fast / nvme_slow
    );
    Ok(())
}

/// Figure 8: object-deserialization speedup with Morpheus-SSD.
///
/// Paper claim: up to **2.3×**, average **1.66×**; SpMV is the outlier
/// (~1.1×) because a third of its tokens are floats and the embedded cores
/// have no FPU.
pub fn fig8(e: &Evaluation) -> Shown {
    let run = e.figure("Figure 8: deserialization speedup, Morpheus-SSD vs baseline")?;
    per_app(run, &["app", "baseline", "morpheus-ssd", "speedup"], |a| {
        vec![
            format!("{:.3}s", a.conventional.phases.deserialization_s),
            format!("{:.3}s", a.morpheus.phases.deserialization_s),
            format!("{:.2}x", a.deser_speedup()),
        ]
    });
    let speedup = Scorecard::measure(run).deser_speedup;
    println!("average speedup: {speedup:.2}x  (paper: ~1.66x, max ~2.3x, spmv lowest at ~1.1x)");
    Ok(())
}

/// Figure 9: normalized power and energy during object deserialization.
///
/// Paper claims: Morpheus-SSD lowers total system power by **~7 % on
/// average (up to 17 %)** and energy by **~42 %** — the baseline pulls
/// ≈ +10.4 W over the 105 W idle floor, the Morpheus path only ≈ +1.8 W,
/// and it also finishes sooner.
pub fn fig9(e: &Evaluation) -> Shown {
    let run = e.figure("Figure 9: normalized power and energy during deserialization")?;
    let headers = [
        "app",
        "base_power",
        "morph_power",
        "power_ratio",
        "base_energy",
        "morph_energy",
        "energy_ratio",
    ];
    per_app(run, &headers, |a| {
        let (conv, morp) = (&a.conventional, &a.morpheus);
        vec![
            format!("{:.1}W", conv.deser_power_watts),
            format!("{:.1}W", morp.deser_power_watts),
            format!("{:.3}", a.ratio(|r| r.deser_power_watts)),
            format!("{:.1}J", conv.deser_energy_j),
            format!("{:.1}J", morp.deser_energy_j),
            format!("{:.3}", a.ratio(|r| r.deser_energy_j)),
        ]
    });
    let card = Scorecard::measure(run);
    let (power, energy) = (card.power_ratio, card.energy_ratio);
    println!("average power ratio:  {power:.3} (paper: ~0.93, i.e. 7% less power)");
    println!("average energy ratio: {energy:.3} (paper: ~0.58, i.e. 42% less energy)");
    Ok(())
}

/// Figure 10: context-switch frequency during object deserialization.
///
/// Paper claims: Morpheus-SSD lowers context-switch *frequency* by **~98 %**
/// and the *total count* by **~97 %** — the conventional path re-enters the
/// kernel on every 64 KiB `read()` window, while the Morpheus path wakes
/// once per multi-megabyte MREAD.
pub fn fig10(e: &Evaluation) -> Shown {
    let run = e.figure("Figure 10: context switches during deserialization")?;
    let headers = [
        "app",
        "base_rate",
        "morph_rate",
        "base_total",
        "morph_total",
    ];
    per_app(run, &headers, |a| {
        let (conv, morp) = (&a.conventional, &a.morpheus);
        vec![
            format!("{:.0}/s", conv.cs_per_second),
            format!("{:.0}/s", morp.cs_per_second),
            format!("{}", conv.context_switches),
            format!("{}", morp.context_switches),
        ]
    });
    let card = Scorecard::measure(run);
    let rate = 100.0 * card.cs_rate_reduction;
    let total = 100.0 * card.cs_total_reduction;
    println!("average frequency reduction: {rate:.1}% (paper: ~98%)");
    println!("average total-count reduction: {total:.1}% (paper: ~97%)");
    Ok(())
}

/// Figure 11 (§VII-B): end-to-end application speedup.
///
/// Paper claims: Morpheus-SSD alone speeds total execution by **~1.32×**;
/// adding NVMe-P2P (objects stream straight from the SSD into GPU memory)
/// raises the gain to **~1.39×** on the heterogeneous (CUDA) applications.
pub fn fig11(e: &Evaluation) -> Shown {
    let run = e.figure("Figure 11: end-to-end speedup over the conventional baseline")?;
    let headers = ["app", "baseline_total", "morpheus", "morpheus+p2p"];
    per_app(run, &headers, |a| {
        vec![
            format!("{:.3}s", a.conventional.phases.total_s()),
            format!("{:.2}x", a.total_speedup()),
            a.p2p_speedup()
                .map_or_else(|| "-".to_string(), |ps| format!("{ps:.2}x")),
        ]
    });
    let card = Scorecard::measure(run);
    let (morpheus, p2p) = (card.total_speedup, card.p2p_speedup);
    println!("average morpheus speedup: {morpheus:.2}x (paper: ~1.32x)");
    println!("average morpheus+p2p speedup (CUDA apps): {p2p:.2}x (paper: ~1.39x)");
    Ok(())
}

/// Figure 12 (§VII-C): Morpheus-SSD on a slower server.
///
/// Paper claim: on a slower host (1.2 GHz), the conventional path's
/// CPU-bound deserialization gets even worse while the in-SSD path is
/// unchanged, so Morpheus-SSD's end-to-end gain grows to **~1.66×**. The
/// 2.5 GHz column is the paper testbed's own clock, so it is Fig. 11's.
pub fn fig12(e: &Evaluation) -> Shown {
    let h = &e.harness;
    let run = e.figure("Figure 12: end-to-end speedup on fast vs slow hosts")?;
    let slow = run_parallel(h.jobs, &suite(), |bench| {
        let mut sys = h.app_system_with(bench, StorageKind::NvmeSsd, Some(1.2e9));
        AppRuns::run(&mut sys, bench, false)
    });
    let slow = SuiteRun {
        apps: slow.into_iter().collect::<Result<_, _>>()?,
    };
    let mut slow_cells = slow
        .apps
        .iter()
        .map(|s| format!("{:.2}x", s.total_speedup()));
    per_app(run, &["app", "2.5GHz host", "1.2GHz host"], |a| {
        let fast = format!("{:.2}x", a.total_speedup());
        vec![fast, slow_cells.next().expect("one slow run per app")]
    });
    let fast = Scorecard::measure(run).total_speedup;
    let slow = Scorecard::measure(&slow).total_speedup;
    println!("average at 2.5GHz: {fast:.2}x (paper: ~1.32x)");
    println!("average at 1.2GHz: {slow:.2}x (paper: ~1.66x)");
    Ok(())
}

/// Interconnect traffic (§VII-A prose): bytes crossing the PCIe fabric and
/// the CPU-memory bus per application.
///
/// Paper claims: shipping binary objects instead of raw text cuts **PCIe
/// traffic by ~22 %** and **CPU-memory-bus traffic by ~58 %**.
pub fn traffic(e: &Evaluation) -> Shown {
    let run = e.figure("Interconnect traffic, conventional vs Morpheus-SSD")?;
    let headers = [
        "app",
        "pcie_base",
        "pcie_morph",
        "pcie_saved",
        "mem_base",
        "mem_morph",
        "mem_saved",
    ];
    per_app(run, &headers, |a| {
        let (conv, morp) = (&a.conventional, &a.morpheus);
        vec![
            format!("{:.1}MB", conv.pcie_bytes as f64 / 1e6),
            format!("{:.1}MB", morp.pcie_bytes as f64 / 1e6),
            format!("{:.1}%", 100.0 * (1.0 - a.ratio(|r| r.pcie_bytes as f64))),
            format!("{:.1}MB", conv.membus_bytes as f64 / 1e6),
            format!("{:.1}MB", morp.membus_bytes as f64 / 1e6),
            format!("{:.1}%", 100.0 * (1.0 - a.ratio(|r| r.membus_bytes as f64))),
        ]
    });
    let card = Scorecard::measure(run);
    let pcie = 100.0 * card.pcie_reduction;
    let membus = 100.0 * card.membus_reduction;
    println!("average pcie reduction:   {pcie:.1}% (paper: ~22%)");
    println!("average membus reduction: {membus:.1}% (paper: ~58%)");
    Ok(())
}
