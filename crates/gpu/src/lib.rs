//! GPU model: device memory, BAR exposure, roofline kernel cost model.
//!
//! Models the NVIDIA K20-class accelerator of the paper's testbed (2496
//! CUDA cores, 5 GB GDDR5): a device-memory allocator whose buffers can be
//! exposed through a PCIe BAR (the GPUDirect/DirectGMA mechanism NVMe-P2P
//! programs, §IV-C), and a roofline kernel cost model — kernel time is the
//! maximum of its compute time (FLOPs over peak throughput) and its memory
//! time (bytes over device bandwidth). Kernel executions occupy the GPU
//! [`Timeline`](https://docs.rs/morpheus-simcore) so power integration sees real
//! busy intervals.
//!
//! # Example
//!
//! ```
//! use morpheus_gpu::{Gpu, GpuSpec, KernelCost};
//! use morpheus_simcore::SimTime;
//!
//! let mut gpu = Gpu::new(GpuSpec::k20());
//! let buf = gpu.alloc(1 << 20).unwrap();
//! let run = gpu.launch(KernelCost::new(1e9, 1 << 20), SimTime::ZERO);
//! assert!(run.end > run.start);
//! assert!(buf.offset < gpu.spec().memory_bytes);
//! ```

#![warn(missing_docs)]

use morpheus_simcore::{Bandwidth, Interval, SimDuration, SimTime, Timeline};

/// Static description of the GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Number of CUDA cores.
    pub cuda_cores: u32,
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Device memory capacity, bytes.
    pub memory_bytes: u64,
    /// Device memory bandwidth.
    pub memory_bandwidth: Bandwidth,
}

impl GpuSpec {
    /// The paper's NVIDIA K20: 2496 cores, 706 MHz, 5 GB GDDR5 at 208 GB/s.
    pub fn k20() -> Self {
        GpuSpec {
            cuda_cores: 2496,
            clock_hz: 706e6,
            memory_bytes: 5 * (1 << 30),
            memory_bandwidth: Bandwidth::from_gb_per_s(208.0),
        }
    }

    /// Peak single-precision FLOPs per second (2 per core-cycle, FMA).
    pub fn peak_flops(&self) -> f64 {
        2.0 * self.cuda_cores as f64 * self.clock_hz
    }
}

/// A device-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceBuffer {
    /// Offset within device memory (add a BAR base for a bus address).
    pub offset: u64,
    /// Buffer length in bytes.
    pub len: u64,
}

/// A point in the device-memory allocator's history, taken with
/// [`Gpu::mark`]; [`Gpu::rewind`] to it returns every buffer allocated
/// since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuMark {
    next_offset: u64,
    allocated: u64,
}

/// Resource demands of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Floating-point (or integer ALU) operations.
    pub flops: f64,
    /// Device-memory bytes read + written.
    pub bytes: u64,
}

impl KernelCost {
    /// Creates a kernel cost.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative or not finite.
    pub fn new(flops: f64, bytes: u64) -> Self {
        assert!(
            flops.is_finite() && flops >= 0.0,
            "flops must be finite and non-negative"
        );
        KernelCost { flops, bytes }
    }
}

/// The GPU device.
#[derive(Debug)]
pub struct Gpu {
    spec: GpuSpec,
    timeline: Timeline,
    next_offset: u64,
    allocated: u64,
    kernel_launches: u64,
    /// Launch overhead charged per kernel (driver + dispatch).
    launch_overhead: SimDuration,
}

impl Gpu {
    /// Creates an idle GPU.
    pub fn new(spec: GpuSpec) -> Self {
        Gpu {
            spec,
            timeline: Timeline::new("gpu", 1),
            next_offset: 0,
            allocated: 0,
            kernel_launches: 0,
            launch_overhead: SimDuration::from_micros(10),
        }
    }

    /// The GPU's specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Allocates device memory; `None` when the buffer, padded to the GDDR
    /// burst alignment (256 B), would end past device memory. Buffers are
    /// bump-allocated, so every returned buffer lies inside the memory a
    /// BAR window over it maps.
    pub fn alloc(&mut self, bytes: u64) -> Option<DeviceBuffer> {
        let end = bytes
            .checked_next_multiple_of(256)
            .and_then(|padded| self.next_offset.checked_add(padded))
            .filter(|&end| end <= self.spec.memory_bytes)?;
        let buf = DeviceBuffer {
            offset: self.next_offset,
            len: bytes,
        };
        self.next_offset = end;
        self.allocated += bytes;
        Some(buf)
    }

    /// Releases `bytes` of device memory occupancy (the space itself is
    /// reused only through [`rewind`](Gpu::rewind)).
    pub fn free(&mut self, bytes: u64) {
        self.allocated = self.allocated.saturating_sub(bytes);
    }

    /// The allocator's current point, to [`rewind`](Gpu::rewind) to.
    pub fn mark(&self) -> GpuMark {
        GpuMark {
            next_offset: self.next_offset,
            allocated: self.allocated,
        }
    }

    /// Returns every buffer allocated since `mark`, reusing their space
    /// (a request handing its objects back when it is done).
    pub fn rewind(&mut self, mark: GpuMark) {
        debug_assert!(
            mark.next_offset <= self.next_offset,
            "rewind to a mark past the allocator's current point"
        );
        self.next_offset = mark.next_offset;
        self.allocated = mark.allocated;
    }

    /// Device memory currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Roofline execution time of a kernel, excluding launch overhead.
    pub fn kernel_time(&self, cost: &KernelCost) -> SimDuration {
        let compute = SimDuration::from_secs_f64(cost.flops / self.spec.peak_flops());
        let memory = self.spec.memory_bandwidth.duration_for(cost.bytes);
        compute.max(memory)
    }

    /// Launches a kernel at `ready`, queueing behind earlier launches.
    pub fn launch(&mut self, cost: KernelCost, ready: SimTime) -> Interval {
        self.kernel_launches += 1;
        let t = self.kernel_time(&cost) + self.launch_overhead;
        self.timeline.acquire(ready, t)
    }

    /// Total time the GPU has been executing kernels.
    pub fn busy(&self) -> SimDuration {
        self.timeline.busy()
    }

    /// Number of kernels launched.
    pub fn kernel_launches(&self) -> u64 {
        self.kernel_launches
    }

    /// Overrides the per-launch overhead.
    pub fn set_launch_overhead(&mut self, overhead: SimDuration) {
        self.launch_overhead = overhead;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20_peak_flops_is_about_3_5_tflops() {
        let tf = GpuSpec::k20().peak_flops() / 1e12;
        assert!((3.0..4.0).contains(&tf), "got {tf} TFLOPs");
    }

    #[test]
    fn compute_bound_kernel_ignores_memory() {
        let gpu = Gpu::new(GpuSpec::k20());
        let t = gpu.kernel_time(&KernelCost::new(3.5e12, 1024));
        assert!((t.as_secs_f64() - 1.0).abs() < 0.05);
    }

    #[test]
    fn memory_bound_kernel_ignores_compute() {
        let gpu = Gpu::new(GpuSpec::k20());
        let t = gpu.kernel_time(&KernelCost::new(1.0, 208_000_000_000));
        assert!((t.as_secs_f64() - 1.0).abs() < 0.05);
    }

    #[test]
    fn launches_queue_fifo() {
        let mut gpu = Gpu::new(GpuSpec::k20());
        gpu.set_launch_overhead(SimDuration::ZERO);
        let a = gpu.launch(KernelCost::new(3.5e12, 0), SimTime::ZERO);
        let b = gpu.launch(KernelCost::new(3.5e12, 0), SimTime::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(gpu.kernel_launches(), 2);
    }

    #[test]
    fn alloc_respects_capacity_and_alignment() {
        let mut gpu = Gpu::new(GpuSpec::k20());
        let a = gpu.alloc(100).unwrap();
        let b = gpu.alloc(100).unwrap();
        assert_eq!(a.offset % 256, 0);
        assert!(b.offset >= a.offset + 256);
        assert!(gpu.alloc(u64::MAX).is_none());
        gpu.free(200);
        assert_eq!(gpu.allocated(), 0);
    }

    #[test]
    fn the_padded_buffer_must_fit_device_memory() {
        let mut spec = GpuSpec::k20();
        spec.memory_bytes = 1024;
        let mut gpu = Gpu::new(spec);
        for _ in 0..4 {
            gpu.alloc(200).unwrap();
        }
        // 800 raw bytes are allocated, but the four buffers span all 1024.
        assert_eq!(gpu.allocated(), 800);
        assert!(gpu.alloc(1).is_none());
    }

    #[test]
    fn rewind_returns_everything_since_the_mark() {
        let mut spec = GpuSpec::k20();
        spec.memory_bytes = 4096;
        let mut gpu = Gpu::new(spec);
        let kept = gpu.alloc(100).unwrap();
        let mark = gpu.mark();
        let first = gpu.alloc(3000).unwrap();
        assert!(gpu.alloc(3000).is_none());
        gpu.rewind(mark);
        assert_eq!(gpu.allocated(), 100);
        let again = gpu.alloc(3000).unwrap();
        assert_eq!(again, first);
        assert!(again.offset >= kept.offset + 256);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut gpu = Gpu::new(GpuSpec::k20());
        gpu.set_launch_overhead(SimDuration::ZERO);
        gpu.launch(KernelCost::new(3.5e12, 0), SimTime::ZERO);
        assert!((gpu.busy().as_secs_f64() - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "flops")]
    fn negative_flops_rejected() {
        let _ = KernelCost::new(-1.0, 0);
    }
}
