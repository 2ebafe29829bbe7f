//! The paper's evaluation (§VII) as one experiment: every Table-I app runs
//! conventionally, on Morpheus-SSD and, for the GPU apps, with NVMe-P2P.
//! Figs. 2 and 8–11 and the §VII-A traffic table all read that one run.

use crate::{run_benchmark, BenchError, Benchmark, KernelResult, Suite};
use morpheus::{Mode, RunReport, System};

/// One app's runs over one staged input.
#[derive(Debug)]
pub struct AppRuns {
    /// Application name.
    pub name: &'static str,
    /// The conventional baseline.
    pub conventional: RunReport,
    /// Morpheus-SSD.
    pub morpheus: RunReport,
    /// Morpheus-SSD with NVMe-P2P, for a Rodinia app when asked.
    pub p2p: Option<RunReport>,
    /// The kernel's result, the same in every mode.
    pub kernel: KernelResult,
}

impl AppRuns {
    /// Runs `bench` over the input staged on `sys`: conventionally, then on
    /// Morpheus-SSD, then, when `p2p` is set and `bench` is a Rodinia app,
    /// with NVMe-P2P.
    ///
    /// # Errors
    ///
    /// The first run that fails.
    ///
    /// # Panics
    ///
    /// When two modes disagree on the objects or the kernel result.
    pub fn run(sys: &mut System, bench: &Benchmark, p2p: bool) -> Result<AppRuns, BenchError> {
        let conv = run_benchmark(sys, bench, Mode::Conventional)?;
        let morp = run_benchmark(sys, bench, Mode::Morpheus)?;
        let p2p = (p2p && bench.suite == Suite::Rodinia)
            .then(|| run_benchmark(sys, bench, Mode::MorpheusP2P))
            .transpose()?;
        for other in std::iter::once(&morp).chain(&p2p) {
            let same = conv.kernel == other.kernel && conv.report.checksum == other.report.checksum;
            assert!(same, "{}: modes disagree", bench.name);
        }
        Ok(AppRuns {
            name: bench.name,
            conventional: conv.report,
            morpheus: morp.report,
            p2p: p2p.map(|o| o.report),
            kernel: conv.kernel,
        })
    }

    /// Morpheus-SSD's deserialization speedup (Fig. 8).
    pub fn deser_speedup(&self) -> f64 {
        self.morpheus.deser_speedup_over(&self.conventional)
    }

    /// Morpheus-SSD's end-to-end speedup (Fig. 11).
    pub fn total_speedup(&self) -> f64 {
        self.morpheus.total_speedup_over(&self.conventional)
    }

    /// NVMe-P2P's end-to-end speedup, when it ran (Fig. 11).
    pub fn p2p_speedup(&self) -> Option<f64> {
        self.p2p
            .as_ref()
            .map(|p| p.total_speedup_over(&self.conventional))
    }

    /// `f` of the Morpheus-SSD run over `f` of the baseline.
    pub fn ratio(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        f(&self.morpheus) / f(&self.conventional)
    }
}

/// The paper's evaluation: every suite app's [`AppRuns`], in suite order.
#[derive(Debug)]
pub struct SuiteRun {
    /// One entry per app.
    pub apps: Vec<AppRuns>,
}

/// The headline means of a [`SuiteRun`], each computed as its figure
/// prints it. Reductions are fractions of the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scorecard {
    /// Fig. 2: deserialization share of conventional runtime.
    pub deser_share: f64,
    /// Fig. 8: deserialization speedup.
    pub deser_speedup: f64,
    /// Fig. 9: power ratio during deserialization.
    pub power_ratio: f64,
    /// Fig. 9: energy ratio during deserialization.
    pub energy_ratio: f64,
    /// Fig. 10: context-switch rate reduction.
    pub cs_rate_reduction: f64,
    /// Fig. 10: context-switch count reduction.
    pub cs_total_reduction: f64,
    /// Fig. 11: end-to-end speedup.
    pub total_speedup: f64,
    /// Fig. 11: end-to-end speedup with NVMe-P2P, over the apps that ran
    /// it (NaN when none did).
    pub p2p_speedup: f64,
    /// §VII-A: PCIe traffic reduction.
    pub pcie_reduction: f64,
    /// §VII-A: CPU-memory-bus traffic reduction.
    pub membus_reduction: f64,
}

impl Scorecard {
    /// The arithmetic means over `run`'s apps.
    pub fn measure(run: &SuiteRun) -> Scorecard {
        let mean = |f: &dyn Fn(&AppRuns) -> Option<f64>| {
            let xs: Vec<f64> = run.apps.iter().filter_map(f).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let all = |f: &dyn Fn(&AppRuns) -> f64| mean(&|a| Some(f(a)));
        let reduction = |f: fn(&RunReport) -> f64| all(&|a| 1.0 - a.ratio(f));
        Scorecard {
            deser_share: all(&|a| a.conventional.phases.deserialization_fraction()),
            deser_speedup: all(&AppRuns::deser_speedup),
            power_ratio: all(&|a| a.ratio(|r| r.deser_power_watts)),
            energy_ratio: all(&|a| a.ratio(|r| r.deser_energy_j)),
            cs_rate_reduction: reduction(|r| r.cs_per_second),
            cs_total_reduction: reduction(|r| r.context_switches as f64),
            total_speedup: all(&AppRuns::total_speedup),
            p2p_speedup: mean(&AppRuns::p2p_speedup),
            pcie_reduction: reduction(|r| r.pcie_bytes as f64),
            membus_reduction: reduction(|r| r.membus_bytes as f64),
        }
    }
}
