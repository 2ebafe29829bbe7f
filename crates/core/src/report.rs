//! Run reports: the measurements every figure of the paper is built from.
//!
//! Throughput units: every `*_mbs` field in this crate is **decimal**
//! megabytes per second — [`MB`] = 10⁶ bytes, matching how drive vendors
//! and the paper's Fig. 3 quote bandwidth. Convert with [`mb_per_sec`];
//! never divide by `1e6` (or worse, `1 << 20`) inline.

use crate::StorageKind;
use morpheus_simcore::{FaultCounters, Metrics};
use std::fmt;

/// One decimal megabyte in bytes (10⁶, not 2²⁰).
pub const MB: f64 = 1e6;

/// Bytes over a window in seconds, as decimal MB/s — the one conversion
/// every `*_mbs` report field uses. Zero-length windows yield `0.0`
/// rather than dividing by zero.
///
/// ```
/// // 2 000 000 bytes in 2 s is exactly 1 decimal MB/s …
/// assert_eq!(morpheus::mb_per_sec(2_000_000, 2.0), 1.0);
/// // … not 1 MiB/s: the divisor is 1e6, never 1 << 20.
/// assert!(morpheus::mb_per_sec(1 << 20, 1.0) > 1.0);
/// assert_eq!(morpheus::mb_per_sec(123, 0.0), 0.0);
/// ```
pub fn mb_per_sec(bytes: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 / seconds / MB
    } else {
        0.0
    }
}

/// Execution mode of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Conventional host-CPU deserialization (the paper's baseline).
    Conventional,
    /// Morpheus-SSD: StorageApp deserializes in the drive, objects DMA to
    /// host DRAM.
    Morpheus,
    /// Morpheus-SSD + NVMe-P2P: objects DMA straight into GPU memory.
    MorpheusP2P,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mode::Conventional => "conventional",
            Mode::Morpheus => "morpheus",
            Mode::MorpheusP2P => "morpheus+p2p",
        };
        f.write_str(s)
    }
}

/// Wall-clock phase breakdown in seconds (Fig. 2's categories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// Object deserialization including the input I/O it overlaps
    /// (phases A+B of Fig. 1 / the StorageApp window).
    pub deserialization_s: f64,
    /// Other host CPU computation (setup, partitioning, result handling).
    pub other_cpu_s: f64,
    /// Host↔GPU data copies.
    pub copy_s: f64,
    /// Compute kernel (CPU or GPU).
    pub kernel_s: f64,
}

impl Phases {
    /// End-to-end time.
    pub fn total_s(&self) -> f64 {
        self.deserialization_s + self.other_cpu_s + self.copy_s + self.kernel_s
    }

    /// Fraction of total time spent deserializing.
    pub fn deserialization_fraction(&self) -> f64 {
        let t = self.total_s();
        if t > 0.0 {
            self.deserialization_s / t
        } else {
            0.0
        }
    }
}

/// Everything measured during one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Execution mode.
    pub mode: Mode,
    /// Storage device backing the conventional path.
    pub storage: StorageKind,
    /// Host CPU frequency used, Hz.
    pub cpu_freq_hz: f64,
    /// Phase breakdown.
    pub phases: Phases,
    /// Input text size, bytes.
    pub text_bytes: u64,
    /// Binary object size produced, bytes.
    pub object_bytes: u64,
    /// Records deserialized.
    pub records: u64,
    /// Object checksum (must agree across modes).
    pub checksum: u64,
    /// Objects produced per second of deserialization, MB/s (Fig. 3's
    /// "effective bandwidth").
    pub effective_bandwidth_mbs: f64,
    /// Context switches during deserialization.
    pub context_switches: u64,
    /// Context switches per second of deserialization (Fig. 10).
    pub cs_per_second: f64,
    /// Syscalls during deserialization.
    pub syscalls: u64,
    /// Page faults during deserialization.
    pub page_faults: u64,
    /// Bytes crossing the PCIe fabric.
    pub pcie_bytes: u64,
    /// Bytes crossing the CPU-memory bus.
    pub membus_bytes: u64,
    /// Mean total-system power during deserialization, watts (Fig. 9).
    pub deser_power_watts: f64,
    /// Energy consumed during deserialization, joules (Fig. 9).
    pub deser_energy_j: f64,
    /// Energy of the whole run, joules.
    pub total_energy_j: f64,
    /// Peak host DRAM allocated, bytes.
    pub host_dram_peak: u64,
    /// Injected faults and the recovery they triggered (all zero unless a
    /// fault plan was installed with
    /// [`System::set_fault_plan`](crate::System::set_fault_plan)).
    pub faults: FaultCounters,
    /// Extra measurements (ad hoc, sorted).
    pub metrics: Metrics,
}

impl RunReport {
    /// Speedup of this run's deserialization over a baseline run's.
    pub fn deser_speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.phases.deserialization_s / self.phases.deserialization_s
    }

    /// Speedup of this run's total time over a baseline run's.
    pub fn total_speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.phases.total_s() / self.phases.total_s()
    }
}

impl StorageKind {
    /// Stable lowercase name (used in report rows and sweep labels).
    pub fn label(&self) -> &'static str {
        match self {
            StorageKind::NvmeSsd => "nvme-ssd",
            StorageKind::RamDrive => "ram-drive",
            StorageKind::Hdd => "hdd",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_total_and_fraction() {
        let p = Phases {
            deserialization_s: 6.4,
            other_cpu_s: 1.0,
            copy_s: 0.6,
            kernel_s: 2.0,
        };
        assert!((p.total_s() - 10.0).abs() < 1e-12);
        assert!((p.deserialization_fraction() - 0.64).abs() < 1e-12);
    }

    #[test]
    fn zero_phases_have_zero_fraction() {
        assert_eq!(Phases::default().deserialization_fraction(), 0.0);
    }

    #[test]
    fn mode_displays() {
        assert_eq!(Mode::Conventional.to_string(), "conventional");
        assert_eq!(Mode::MorpheusP2P.to_string(), "morpheus+p2p");
    }
}
