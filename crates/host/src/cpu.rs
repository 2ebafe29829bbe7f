//! CPU timing: cores, DVFS, and per-code-class IPC.

use morpheus_simcore::SimDuration;

/// Classes of code with distinct instruction-level parallelism on the
/// modelled out-of-order core.
///
/// The paper measures deserialization at IPC ≈ 1.2 ("decoding ASCII strings
/// does not make wise use of the rich instruction-level parallelism inside
/// a CPU core", §II) while optimized compute kernels run much wider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeClass {
    /// Byte scanning + string-to-binary conversion (IPC ≈ 1.2).
    Deserialize,
    /// Software-emulated floating-point conversion (serial, IPC ≈ 1.0).
    SoftFloat,
    /// Kernel-mode OS work: syscalls, VFS, locking (IPC ≈ 1.0).
    OsKernel,
    /// Optimized application compute kernels (IPC ≈ 2.4).
    AppKernel,
}

/// Static description of a CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Number of cores.
    pub cores: u32,
    /// Maximum (and default) clock, Hz.
    pub max_freq_hz: f64,
    /// Minimum DVFS clock, Hz.
    pub min_freq_hz: f64,
    /// IPC for [`CodeClass::Deserialize`].
    pub ipc_deserialize: f64,
    /// IPC for [`CodeClass::SoftFloat`].
    pub ipc_soft_float: f64,
    /// IPC for [`CodeClass::OsKernel`].
    pub ipc_os: f64,
    /// IPC for [`CodeClass::AppKernel`].
    pub ipc_kernel: f64,
}

impl CpuSpec {
    /// The paper's testbed: quad-core Ivy Bridge EP Xeon, 1.2–2.5 GHz.
    pub fn xeon_quad() -> Self {
        CpuSpec {
            cores: 4,
            max_freq_hz: 2.5e9,
            min_freq_hz: 1.2e9,
            ipc_deserialize: 1.2,
            ipc_soft_float: 1.0,
            ipc_os: 1.0,
            ipc_kernel: 2.4,
        }
    }

    /// IPC for a code class.
    pub fn ipc(&self, class: CodeClass) -> f64 {
        match class {
            CodeClass::Deserialize => self.ipc_deserialize,
            CodeClass::SoftFloat => self.ipc_soft_float,
            CodeClass::OsKernel => self.ipc_os,
            CodeClass::AppKernel => self.ipc_kernel,
        }
    }
}

/// A CPU instance with a current DVFS operating point.
#[derive(Debug, Clone)]
pub struct Cpu {
    spec: CpuSpec,
    freq_hz: f64,
}

impl Cpu {
    /// Creates a CPU running at its maximum frequency.
    pub fn new(spec: CpuSpec) -> Self {
        Cpu {
            freq_hz: spec.max_freq_hz,
            spec,
        }
    }

    /// The static specification.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Current clock in Hz.
    pub fn frequency(&self) -> f64 {
        self.freq_hz
    }

    /// Sets the DVFS operating point, clamped to the spec's range.
    pub fn set_frequency(&mut self, freq_hz: f64) {
        self.freq_hz = freq_hz.clamp(self.spec.min_freq_hz, self.spec.max_freq_hz);
    }

    /// Time for one core to retire `instructions` of the given class.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is negative or not finite.
    pub fn duration(&self, instructions: f64, class: CodeClass) -> SimDuration {
        assert!(
            instructions.is_finite() && instructions >= 0.0,
            "instruction count must be finite and non-negative"
        );
        let ips = self.spec.ipc(class) * self.freq_hz;
        SimDuration::from_secs_f64(instructions / ips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_scales_inversely_with_frequency() {
        let mut cpu = Cpu::new(CpuSpec::xeon_quad());
        let at_max = cpu.duration(1e9, CodeClass::Deserialize);
        cpu.set_frequency(1.25e9);
        let at_half = cpu.duration(1e9, CodeClass::Deserialize);
        // Allow one nanosecond of rounding slack.
        assert!(at_half.as_nanos().abs_diff(at_max.as_nanos() * 2) <= 1);
    }

    #[test]
    fn frequency_clamped_to_spec() {
        let mut cpu = Cpu::new(CpuSpec::xeon_quad());
        cpu.set_frequency(10e9);
        assert_eq!(cpu.frequency(), 2.5e9);
        cpu.set_frequency(0.1e9);
        assert_eq!(cpu.frequency(), 1.2e9);
    }

    #[test]
    fn kernel_code_is_faster_per_instruction() {
        let cpu = Cpu::new(CpuSpec::xeon_quad());
        let deser = cpu.duration(1e9, CodeClass::Deserialize);
        let kernel = cpu.duration(1e9, CodeClass::AppKernel);
        assert!(kernel < deser);
    }

    #[test]
    fn zero_instructions_take_no_time() {
        let cpu = Cpu::new(CpuSpec::xeon_quad());
        assert!(cpu.duration(0.0, CodeClass::AppKernel).is_zero());
    }

    #[test]
    #[should_panic(expected = "instruction count")]
    fn negative_instructions_rejected() {
        let cpu = Cpu::new(CpuSpec::xeon_quad());
        let _ = cpu.duration(-1.0, CodeClass::AppKernel);
    }
}
