//! The paper's own experiment, closed loop: the ten Table-I applications
//! run one at a time, conventional then Morpheus, plus Morpheus with
//! NVMe-P2P for the six Rodinia (GPU) applications, each over its own
//! freshly staged input.

use crate::spans;
use crate::{PassOut, Stopwatch};
use morpheus::{Mode, RunReport, System, SystemParams};
use morpheus_simcore::{TraceLayer, Tracer};
use morpheus_workloads::{suite, Benchmark, Suite};

/// Input bytes for `bench`: what the figure binaries stage at `--scale
/// 512`. Their default, 256, doubles the bytes but takes three times the
/// host time, because Morpheus-mode runs slow down faster than inputs grow;
/// 512 keeps the scorecard within a point of it and a pass near 4 s.
fn input_bytes(bench: &Benchmark, tiny: bool) -> u64 {
    if tiny {
        return 16 * 1024;
    }
    (bench.nominal_bytes / 512).clamp(2_000_000, 48_000_000)
}

/// The ten scorecard quantities EXPERIMENTS.md checks against the paper,
/// in the paper's units: percentages as percent, speedups as ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scorecard {
    /// Fig. 2: deserialization share of conventional runtime.
    pub deser_share_pct: f64,
    /// Fig. 8: mean deserialization speedup.
    pub deser_speedup: f64,
    /// Fig. 9: mean power and energy change during deserialization.
    pub power_delta_pct: f64,
    pub energy_delta_pct: f64,
    /// Fig. 10: mean context-switch rate and count change.
    pub cs_rate_delta_pct: f64,
    pub cs_total_delta_pct: f64,
    /// Fig. 11: mean end-to-end speedup, and with P2P over the GPU apps.
    pub total_speedup: f64,
    pub p2p_speedup: f64,
    /// §VII-A: mean PCIe and CPU-memory-bus traffic change.
    pub pcie_delta_pct: f64,
    pub membus_delta_pct: f64,
}

/// The paper's values.
pub const PAPER: Scorecard = Scorecard {
    deser_share_pct: 64.0,
    deser_speedup: 1.66,
    power_delta_pct: -7.0,
    energy_delta_pct: -42.0,
    cs_rate_delta_pct: -98.0,
    cs_total_delta_pct: -97.0,
    total_speedup: 1.32,
    p2p_speedup: 1.39,
    pcie_delta_pct: -22.0,
    membus_delta_pct: -58.0,
};

impl Scorecard {
    fn values(&self) -> [f64; 10] {
        [
            self.deser_share_pct,
            self.deser_speedup,
            self.power_delta_pct,
            self.energy_delta_pct,
            self.cs_rate_delta_pct,
            self.cs_total_delta_pct,
            self.total_speedup,
            self.p2p_speedup,
            self.pcie_delta_pct,
            self.membus_delta_pct,
        ]
    }

    /// Mean relative error against [`PAPER`], percent.
    pub fn err_pct(&self) -> f64 {
        let errs = self
            .values()
            .into_iter()
            .zip(PAPER.values())
            .map(|(m, p)| (m - p).abs() / p.abs());
        100.0 * errs.sum::<f64>() / 10.0
    }

    /// The scorecard of one suite run: per application its conventional
    /// and Morpheus reports, plus the P2P report for GPU applications.
    ///
    /// # Panics
    ///
    /// Panics when `runs` is empty or holds no P2P report.
    pub fn measure(runs: &[(RunReport, RunReport, Option<RunReport>)]) -> Scorecard {
        let mean = |f: &dyn Fn(&RunReport, &RunReport) -> f64| {
            runs.iter().map(|(c, m, _)| f(c, m)).sum::<f64>() / runs.len() as f64
        };
        let delta_pct = |f: &dyn Fn(&RunReport) -> f64| 100.0 * (mean(&|c, m| f(m) / f(c)) - 1.0);
        let p2p: Vec<f64> = runs
            .iter()
            .filter_map(|(c, _, p)| p.as_ref().map(|p| p.total_speedup_over(c)))
            .collect();
        assert!(!p2p.is_empty(), "the suite has GPU applications");
        Scorecard {
            deser_share_pct: 100.0 * mean(&|c, _| c.phases.deserialization_fraction()),
            deser_speedup: mean(&|c, m| m.deser_speedup_over(c)),
            power_delta_pct: delta_pct(&|r| r.deser_power_watts),
            energy_delta_pct: delta_pct(&|r| r.deser_energy_j),
            cs_rate_delta_pct: delta_pct(&|r| r.cs_per_second),
            cs_total_delta_pct: delta_pct(&|r| r.context_switches as f64),
            total_speedup: mean(&|c, m| m.total_speedup_over(c)),
            p2p_speedup: p2p.iter().sum::<f64>() / p2p.len() as f64,
            pcie_delta_pct: delta_pct(&|r| r.pcie_bytes as f64),
            membus_delta_pct: delta_pct(&|r| r.membus_bytes as f64),
        }
    }
}

/// Per-MB simulated layer time the traced pass reads from spans.
#[derive(Debug, Default)]
struct LayerTime {
    conv_mb: f64,
    host_parse_ns: u64,
    morpheus_mb: f64,
    mread_ns: u64,
    ssd_parse_ns: u64,
    flash_read_ns: u64,
    pcie_ns: u64,
    events: u64,
}

fn modes(bench: &Benchmark) -> &'static [Mode] {
    if bench.suite == Suite::Rodinia {
        &[Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P]
    } else {
        &[Mode::Conventional, Mode::Morpheus]
    }
}

/// One pass: generate and stage every input, run every application in
/// every mode, check the modes agree, and report.
pub fn pass(seed: u64, traced: bool, tiny: bool) -> PassOut {
    let mut out = PassOut::default();
    let setup = Stopwatch::start();
    let (mut gen_s, mut stage_s) = (0.0, 0.0);
    let mut apps: Vec<(Benchmark, System)> = Vec::new();
    for bench in suite() {
        let t = Stopwatch::start();
        let text = bench.generate(input_bytes(&bench, tiny), seed);
        gen_s += t.cpu();
        let t = Stopwatch::start();
        let mut sys = System::new(SystemParams::paper_testbed());
        sys.create_input_file(&bench.input_name(), &text)
            .expect("suite inputs fit the drive");
        stage_s += t.cpu();
        if traced {
            sys.set_tracer(Tracer::enabled());
        }
        apps.push((bench, sys));
    }
    let setup_s = setup.cpu();

    let run = Stopwatch::start();
    let mut analysis = (0.0, 0.0);
    let mut exec_s = [0.0f64; 3];
    let mut kernel_s = 0.0;
    let mut layers = LayerTime::default();
    let mut runs = Vec::new();
    for (bench, sys) in &mut apps {
        let mut reports: Vec<RunReport> = Vec::new();
        let mut digests = Vec::new();
        for (i, &mode) in modes(bench).iter().enumerate() {
            out.attempted += 1;
            let t = Stopwatch::start();
            let ran = sys.run(&bench.spec(), mode);
            exec_s[i] += t.cpu();
            let ran = match ran {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!(
                        "{} {mode}: {}",
                        bench.name,
                        morpheus_simcore::render_error_chain(&e)
                    ));
                    continue;
                }
            };
            let t = Stopwatch::start();
            let kernel = bench.kernel(&ran.objects);
            kernel_s += t.cpu();
            out.fold_digest(&format!("{:?} {}", ran.report, kernel.digest));
            if traced {
                let t = Stopwatch::start();
                let log = sys.tracer().take();
                let mb = ran.report.text_bytes as f64 / 1e6;
                layers.events += log.len() as u64;
                match mode {
                    Mode::Conventional => {
                        layers.conv_mb += mb;
                        layers.host_parse_ns +=
                            spans::span_ns(&log, TraceLayer::Host, &["read+parse"]);
                    }
                    Mode::Morpheus => {
                        layers.morpheus_mb += mb;
                        layers.mread_ns += spans::span_ns(&log, TraceLayer::Nvme, &["MREAD"]);
                        layers.ssd_parse_ns += spans::span_ns(&log, TraceLayer::Ssd, &["parse"]);
                        layers.flash_read_ns +=
                            spans::span_ns(&log, TraceLayer::Flash, &["read-cell", "read-bus"]);
                        layers.pcie_ns += spans::layer_ns(&log, TraceLayer::Pcie);
                    }
                    Mode::MorpheusP2P => {}
                }
                analysis = (analysis.0 + t.cpu(), analysis.1 + t.wall());
            }
            digests.push(kernel.digest);
            reports.push(ran.report);
        }
        if digests.windows(2).any(|d| d[0] != d[1])
            || reports.windows(2).any(|r| r[0].checksum != r[1].checksum)
        {
            out.fail(format!(
                "{}: modes disagree on the objects or the kernel result",
                bench.name
            ));
        } else if reports.len() == modes(bench).len() {
            let mut it = reports.into_iter();
            let (c, m) = (it.next(), it.next());
            runs.push((c.expect("conventional"), m.expect("morpheus"), it.next()));
        }
    }
    out.set("cpu_s", run.cpu() - analysis.0);
    out.set("wall_s", run.wall() - analysis.1);
    out.set("peak_heap_mb", crate::peak_heap_mb());
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.set("setup_s", setup_s);
    out.set("workloads.gen_s", gen_s);
    out.set("ssd.stage_s", stage_s);
    out.set("workloads.kernel_s", kernel_s);
    out.set("core.exec.conventional_s", exec_s[0]);
    out.set("core.exec.morpheus_s", exec_s[1]);
    out.set("core.exec.p2p_s", exec_s[2]);

    if runs.len() == apps.len() {
        let card = Scorecard::measure(&runs);
        out.set("core.exec.paper_err_pct", card.err_pct());
        out.set("core.exec.deser_share", card.deser_share_pct);
        out.set("core.exec.deser_speedup", card.deser_speedup);
        out.set("core.exec.total_speedup", card.total_speedup);
        out.set("core.exec.p2p_speedup", card.p2p_speedup);
        out.set("host.power_delta_pct", card.power_delta_pct);
        out.set("host.energy_delta_pct", card.energy_delta_pct);
        out.set("host.cs_rate_delta_pct", card.cs_rate_delta_pct);
        out.set("host.cs_total_delta_pct", card.cs_total_delta_pct);
        out.set("pcie.bytes_delta_pct", card.pcie_delta_pct);
        out.set("host.membus_delta_pct", card.membus_delta_pct);
    }

    if traced {
        let per_mb = |ns: u64, mb: f64| if mb > 0.0 { ns as f64 / 1e6 / mb } else { 0.0 };
        out.set(
            "host.parse_ms_per_mb",
            per_mb(layers.host_parse_ns, layers.conv_mb),
        );
        out.set(
            "nvme.mread_ms_per_mb",
            per_mb(layers.mread_ns, layers.morpheus_mb),
        );
        out.set(
            "ssd.parse_ms_per_mb",
            per_mb(layers.ssd_parse_ns, layers.morpheus_mb),
        );
        out.set(
            "flash.read_ms_per_mb",
            per_mb(layers.flash_read_ns, layers.morpheus_mb),
        );
        out.set(
            "pcie.dma_ms_per_mb",
            per_mb(layers.pcie_ns, layers.morpheus_mb),
        );
        out.set(
            "simcore.trace.events_per_req",
            layers.events as f64 / out.attempted.max(1) as f64,
        );
    } else {
        // Parser throughput over the staged inputs, read back untimed.
        let mut bytes = 0u64;
        let mut parse = 0.0;
        for (bench, sys) in &mut apps {
            let text = sys
                .read_file_bytes(&bench.input_name())
                .expect("staged input reads back");
            let t = Stopwatch::start();
            let parsed = morpheus_format::parse_buffer(&text, &bench.schema());
            parse += t.cpu();
            if let Err(e) = parsed {
                out.fail(format!("{}: staged input does not parse: {e}", bench.name));
            }
            bytes += text.len() as u64;
        }
        out.set("format.parse_mb_s", bytes as f64 / 1e6 / parse);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_err_pct_of_the_experiments_scorecard() {
        // The "Measured" column of EXPERIMENTS.md's summary scorecard.
        let measured = Scorecard {
            deser_share_pct: 63.9,
            deser_speedup: 1.72,
            power_delta_pct: -8.5,
            energy_delta_pct: -45.0,
            cs_rate_delta_pct: -92.0,
            cs_total_delta_pct: -95.0,
            total_speedup: 1.36,
            p2p_speedup: 1.39,
            pcie_delta_pct: -15.0,
            membus_delta_pct: -46.0,
        };
        let err = measured.err_pct();
        assert!((err - 9.607).abs() < 0.01, "{err}");
        assert_eq!(PAPER.err_pct(), 0.0);
    }
}
