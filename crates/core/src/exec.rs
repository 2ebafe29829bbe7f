//! Application execution drivers for the three modes.
//!
//! Each driver runs the *same* functional deserialization (bytes out of the
//! simulated flash, through the shared parser, into [`ParsedColumns`]) but
//! prices it on a different engine:
//!
//! * [`Mode::Conventional`] — Fig. 1: raw text DMAs to a host buffer, the
//!   host CPU runs the `read()`+parse loop (with all its OS overhead and
//!   context switches), objects are stored back to DRAM.
//! * [`Mode::Morpheus`] — Fig. 4: a [`DeserializeApp`] runs on the SSD's
//!   embedded cores behind MINIT/MREAD/MDEINIT; only finished binary
//!   objects cross the interconnect; the host merely takes one completion
//!   interrupt per chunk.
//! * [`Mode::MorpheusP2P`] — same, but MREAD results DMA straight into GPU
//!   memory through the BAR NVMe-P2P mapped.
//!
//! A solo run is one in-flight request (`concurrent.rs`), the driver that
//! multi-tenant runs and serving step too: opened on the host or the
//! device engine, stepped to its end, then [`finish_run`]'s other-CPU,
//! copy and kernel phases. What stays here is the queue-1 sink that reads
//! its steps (each command on its own doorbell, the `ioq1`, `os` and
//! host-core trace spans, and the `nvme_lat` histogram), the fault gates
//! every request's steps pass (`docs/FAULT_MODEL.md`), and the report.
//!
//! [`System::run`] is the one caller that keeps its objects as columns: it
//! alone holds their object image (`deser_memo`), lets its request replay
//! only with the image in hand, and trims a live run's columns and confirms
//! or packs the image from them. The engines return live columns only.
//!
//! [`finish_run`]: System::finish_run

use crate::concurrent::{Delivered, InFlight, StepEvent, Target};
use crate::deser_memo::ImageSlot;
use crate::firmware::IO_QUEUE_ID;
use crate::report::{Mode, Phases, RunReport};
use crate::runtime::OBJECT_ADDR;
use crate::{DeserializeApp, MorpheusError, StorageApp, StorageKind, System};
use morpheus_format::{InputFormat, ObjectDigest, ParseError, ParsedColumns, Schema};
use morpheus_gpu::KernelCost;
use morpheus_host::CodeClass;
use morpheus_nvme::StatusCode;
use morpheus_pcie::{DmaDir, PcieError};
use morpheus_simcore::{FaultCounters, Metrics, SimTime, TraceLayer};
use morpheus_ssd::SsdError;
use std::error::Error;
use std::fmt;

/// Trace track for the host-visible NVMe I/O queue pair (queue id 1).
const NVME_TRACK: &str = "ioq1";
/// Trace track for OS scheduler events (syscalls, context switches).
const OS_TRACK: &str = "os";

/// How the compute kernel parallelizes (Table I's "parallel model").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelModel {
    /// MPI-style multi-threaded CPU kernel.
    CpuThreads(u32),
    /// CUDA kernel on the discrete GPU.
    GpuCuda,
}

/// Per-record GPU kernel demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuKernelPerRecord {
    /// ALU operations per record.
    pub flops: f64,
    /// Device-memory bytes per record.
    pub bytes: f64,
}

/// A benchmark application: its input, deserialization schema, and kernel
/// cost model. The *functional* kernel lives in `morpheus-workloads`; these
/// constants drive the timing model only.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Input file (created with [`System::create_input_file`]).
    pub input: String,
    /// Record schema of the input.
    pub schema: Schema,
    /// Kernel parallel model.
    pub parallel: ParallelModel,
    /// CPU kernel instructions per record (for [`ParallelModel::CpuThreads`]).
    pub kernel_cpu_instr_per_record: f64,
    /// GPU kernel demands (required for [`ParallelModel::GpuCuda`]).
    pub gpu_kernel: Option<GpuKernelPerRecord>,
    /// Host-side setup/partitioning instructions per record.
    pub other_cpu_instr_per_record: f64,
    /// Encoding of the input file.
    pub input_format: InputFormat,
}

impl AppSpec {
    /// A CPU (MPI-style) application.
    pub fn cpu_app(
        name: &str,
        input: &str,
        schema: Schema,
        threads: u32,
        kernel_instr_per_record: f64,
    ) -> Self {
        AppSpec {
            name: name.to_string(),
            input: input.to_string(),
            schema,
            parallel: ParallelModel::CpuThreads(threads.max(1)),
            kernel_cpu_instr_per_record: kernel_instr_per_record,
            gpu_kernel: None,
            other_cpu_instr_per_record: kernel_instr_per_record * 0.15,
            input_format: InputFormat::Text,
        }
    }

    /// A CUDA application.
    pub fn gpu_app(
        name: &str,
        input: &str,
        schema: Schema,
        flops_per_record: f64,
        bytes_per_record: f64,
        other_cpu_instr_per_record: f64,
    ) -> Self {
        AppSpec {
            name: name.to_string(),
            input: input.to_string(),
            schema,
            parallel: ParallelModel::GpuCuda,
            kernel_cpu_instr_per_record: 0.0,
            gpu_kernel: Some(GpuKernelPerRecord {
                flops: flops_per_record,
                bytes: bytes_per_record,
            }),
            other_cpu_instr_per_record,
            input_format: InputFormat::Text,
        }
    }

    /// Switches the spec to a differently encoded input file.
    pub fn with_input_format(mut self, format: InputFormat) -> Self {
        self.input_format = format;
        self
    }

    /// The StorageApp that deserializes this spec's input encoding on the
    /// drive: every Morpheus path (solo, tenant, served) installs this one
    /// when its lifecycle runs live, and a replay builds none.
    pub(crate) fn storage_app(&self) -> Box<dyn StorageApp> {
        Box::new(DeserializeApp::with_format(
            &self.name,
            self.schema.clone(),
            self.input_format,
        ))
    }
}

/// Errors from a run.
#[derive(Debug)]
pub enum RunError {
    /// The input file was never created.
    UnknownFile(String),
    /// The input text did not parse.
    Parse(ParseError),
    /// The Morpheus firmware rejected a command.
    Morpheus(MorpheusError),
    /// The drive failed.
    Ssd(SsdError),
    /// The PCIe fabric rejected a DMA.
    Pcie(PcieError),
    /// Host DRAM exhausted.
    OutOfHostMemory,
    /// GPU memory exhausted.
    OutOfGpuMemory,
    /// P2P mode needs a GPU application.
    NotGpuApp(String),
    /// A GPU app spec without a GPU kernel cost.
    MissingGpuKernel(String),
    /// An injected NVMe command loss exhausted the host's reissue budget
    /// on a path with no further fallback.
    CommandTimeout {
        /// Total attempts made (the original issue plus every reissue).
        attempts: u32,
    },
    /// A multi-tenant or serving entry point was handed no work at all.
    NoTenants,
    /// Fleet routing found no live device for a request: the placement
    /// target was already killed at admission time and every rebalance
    /// candidate was dead too ([`crate::fleet::DeviceDown`] carries the
    /// devices and times).
    DeviceDown(crate::fleet::DeviceDown),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownFile(n) => write!(f, "input file {n:?} was never created"),
            RunError::Parse(_) => write!(f, "input parse failure"),
            RunError::Morpheus(_) => write!(f, "morpheus firmware error"),
            RunError::Ssd(_) => write!(f, "drive error"),
            RunError::Pcie(_) => write!(f, "fabric error"),
            RunError::OutOfHostMemory => write!(f, "host dram exhausted"),
            RunError::OutOfGpuMemory => write!(f, "gpu memory exhausted"),
            RunError::NotGpuApp(n) => write!(f, "p2p mode requires a gpu app, {n:?} is not"),
            RunError::MissingGpuKernel(n) => {
                write!(f, "gpu app {n:?} has no gpu kernel cost")
            }
            RunError::CommandTimeout { attempts } => {
                write!(f, "nvme command timed out after {attempts} attempts")
            }
            RunError::NoTenants => write!(f, "no tenants: the request list is empty"),
            RunError::DeviceDown(_) => write!(f, "fleet routing failed: no healthy device"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Parse(e) => Some(e),
            RunError::Morpheus(e) => Some(e),
            RunError::Ssd(e) => Some(e),
            RunError::Pcie(e) => Some(e),
            RunError::DeviceDown(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for RunError {
    fn from(e: ParseError) -> Self {
        RunError::Parse(e)
    }
}
impl From<MorpheusError> for RunError {
    fn from(e: MorpheusError) -> Self {
        RunError::Morpheus(e)
    }
}
impl From<SsdError> for RunError {
    fn from(e: SsdError) -> Self {
        RunError::Ssd(e)
    }
}
impl From<PcieError> for RunError {
    fn from(e: PcieError) -> Self {
        RunError::Pcie(e)
    }
}

/// A completed run: the measurements and the actual application objects.
#[derive(Debug)]
pub struct RunOutcome {
    /// All measurements.
    pub report: RunReport,
    /// The deserialized objects (bit-identical across modes).
    pub objects: ParsedColumns,
}

/// Why a device attempt of a request was abandoned.
pub(crate) enum MorpheusAbort {
    /// Unrecoverable: surface the error to the caller.
    Fatal(RunError),
    /// Recoverable by degrading to host-side deserialization.
    Fallback {
        /// Simulated time the failure was detected (fallback starts here).
        at: SimTime,
        /// NVMe status the reap posts for the failed command.
        status: StatusCode,
        /// Rendered cause chain, for the report and logs.
        cause: String,
    },
}

impl From<RunError> for MorpheusAbort {
    fn from(e: RunError) -> Self {
        MorpheusAbort::Fatal(e)
    }
}

impl System {
    /// Executes an application under the given mode.
    ///
    /// Timing state is reset first ([`System::reset_timing`]); staged files
    /// persist, so the same input serves all modes.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run(&mut self, spec: &AppSpec, mode: Mode) -> Result<RunOutcome, RunError> {
        if matches!(spec.parallel, ParallelModel::GpuCuda) && spec.gpu_kernel.is_none() {
            return Err(RunError::MissingGpuKernel(spec.name.clone()));
        }
        if mode == Mode::MorpheusP2P && !matches!(spec.parallel, ParallelModel::GpuCuda) {
            return Err(RunError::NotGpuApp(spec.name.clone()));
        }
        self.reset_timing();
        let target = match mode {
            Mode::Conventional => Target::Host,
            Mode::Morpheus => Target::Device(self.alloc_instance(), None),
            Mode::MorpheusP2P => Target::Device(self.alloc_instance(), Some(self.map_gpu_bar())),
        };
        let image = self.image_slot(spec);
        let may_replay = image.as_ref().is_none_or(ImageSlot::found);
        let mut req = self.open_request(spec, target, SimTime::ZERO, may_replay)?;
        while !req.done() {
            self.step_on_queue1(&mut req)?;
        }
        let mut delivered = req.finish()?;
        let objects = match delivered.objects.take() {
            // A live run's columns grew by doubling in the parser: hand them
            // back, and pack the image from them, at their length.
            Some(mut o) => {
                o.shrink_to_fit();
                if let Some(slot) = image {
                    slot.confirm_or_publish(delivered.digest, &o);
                }
                o
            }
            None => image.expect("a replay's image").unpack(&spec.schema)?,
        };
        self.finish_run(spec, mode, delivered, objects)
    }

    /// The sink of solo and multi-tenant runs: runs the request's next
    /// step, submits its command on queue 1 with a doorbell of its own,
    /// and traces it on the `ioq1`, `os` and host-core tracks (recording
    /// each READ's and MREAD's latency in `nvme_lat`). A lost host READ
    /// fails the run.
    pub(crate) fn step_on_queue1(&mut self, req: &mut InFlight<'_>) -> Result<(), RunError> {
        let (cmd, ev) = self.step_request(req)?;
        if let Some(cmd) = cmd {
            self.pump(IO_QUEUE_ID, &[cmd]);
        }
        let (t, core) = (&self.tracer, self.cpu_cores.name());
        let (host, nvme) = (TraceLayer::Host, TraceLayer::Nvme);
        match ev {
            StepEvent::Minit { syscall, ready } => {
                t.span(host, core, "minit-syscall", syscall.start, syscall.end);
                t.span(nvme, NVME_TRACK, "MINIT", syscall.end, ready);
            }
            StepEvent::Read {
                bytes,
                submit,
                io_done,
                cpu,
            } => {
                if self.params.storage == StorageKind::NvmeSsd {
                    t.span_bytes(nvme, NVME_TRACK, "READ", submit, io_done, bytes);
                    self.nvme_lat
                        .record(io_done.duration_since(submit).as_nanos());
                }
                t.instant(host, OS_TRACK, "context-switch", cpu.start);
                t.span_bytes(host, core, "read+parse", cpu.start, cpu.end, bytes);
            }
            StepEvent::Mread {
                bytes,
                ready,
                done,
                wakeup,
            } => {
                t.span_bytes(nvme, NVME_TRACK, "MREAD", ready, done, bytes);
                self.nvme_lat.record(done.duration_since(ready).as_nanos());
                if let Some(iv) = wakeup {
                    t.instant(host, OS_TRACK, "context-switch", iv.start);
                    t.span(host, core, "completion", iv.start, iv.end);
                }
            }
            StepEvent::Mdeinit {
                issue,
                done,
                wakeup,
            } => {
                t.span(nvme, NVME_TRACK, "MDEINIT", issue, done);
                t.span(host, core, "mdeinit-wakeup", wakeup.start, wakeup.end);
            }
            StepEvent::Fallback { at } => t.instant(host, OS_TRACK, "host-fallback", at),
            StepEvent::Lost { attempts, .. } => return Err(RunError::CommandTimeout { attempts }),
        }
        Ok(())
    }

    /// Rolls the NVMe command-loss dice for one submission at `submit`.
    ///
    /// Returns the device-ready floor for the command: `base` when it went
    /// through untouched (preserving the fault-free schedule exactly), or
    /// the final reissue time when injected losses pushed it back. A lost
    /// command never reached the device, so reissuing it is always safe.
    /// `Err((at, n))` means the reissue budget was spent after `n` total
    /// attempts, with the last loss detected at `at`.
    pub(crate) fn issue_with_timeouts(
        &mut self,
        submit: SimTime,
        base: SimTime,
    ) -> Result<SimTime, (SimTime, u32)> {
        let Some(fi) = self.faults.as_mut() else {
            return Ok(base);
        };
        if fi.plan.nvme_timeout <= 0.0 {
            return Ok(base);
        }
        // Clone the handle only once a fault plan is actually armed: the
        // fault-free hot path exits above without touching the Arc.
        let tracer = self.tracer.clone();
        let window = fi.plan.timeout_window();
        let mut t = submit;
        let mut attempt = 0u32;
        loop {
            if !fi.timeout.roll() {
                return Ok(if attempt == 0 { base } else { t.max(base) });
            }
            fi.counters.nvme_timeouts += 1;
            let detect = t + window;
            tracer.instant(TraceLayer::Nvme, NVME_TRACK, "nvme-timeout", detect);
            if attempt >= fi.plan.nvme_max_retries {
                return Err((detect, attempt + 1));
            }
            fi.counters.nvme_retries += 1;
            t = detect + fi.plan.backoff(attempt);
            attempt += 1;
        }
    }

    /// The fault gate every Morpheus command (`cmd`: MINIT, MREAD or
    /// MDEINIT, submitted at `ready`) passes before the firmware runs it:
    /// the command may be lost on the wire, then find its embedded core
    /// stalled (delayed by the plan's stall) or crashed. Returns the
    /// command's device-ready floor; a spent reissue budget or a crash is
    /// a [`MorpheusAbort::Fallback`].
    pub(crate) fn fault_gate(
        &mut self,
        cmd: &str,
        ready: SimTime,
    ) -> Result<SimTime, MorpheusAbort> {
        let mut floor = self
            .issue_with_timeouts(ready, ready)
            .map_err(|(at, attempts)| MorpheusAbort::Fallback {
                at,
                status: StatusCode::CommandTimeout,
                cause: format!("{cmd} lost {attempts} times; reissue budget spent"),
            })?;
        let Some(fi) = self.faults.as_mut() else {
            return Ok(floor);
        };
        if fi.plan.core_stall > 0.0 && fi.stall.roll() {
            fi.counters.core_stalls += 1;
            self.tracer
                .instant(TraceLayer::Ssd, "faults", "core-stall", floor);
            floor += fi.plan.stall_duration();
        }
        if fi.plan.core_crash <= 0.0 || !fi.crash.roll() {
            return Ok(floor);
        }
        fi.counters.core_crashes += 1;
        self.tracer
            .instant(TraceLayer::Ssd, "faults", "core-crash", floor);
        Err(MorpheusAbort::Fallback {
            at: floor,
            status: StatusCode::CoreFault,
            cause: format!("embedded core crashed during {cmd}"),
        })
    }

    /// Classifies a failed firmware step detected at `at`: uncorrectable
    /// media falls back to the host path, any other error is fatal.
    pub(crate) fn media_or_fatal(err: RunError, at: SimTime) -> MorpheusAbort {
        match err {
            RunError::Morpheus(e) if e.status() == StatusCode::MediaUncorrectable => {
                MorpheusAbort::Fallback {
                    at,
                    status: StatusCode::MediaUncorrectable,
                    cause: morpheus_simcore::render_error_chain(&e),
                }
            }
            e => MorpheusAbort::Fatal(e),
        }
    }

    /// Shared tail: other-CPU phase, copy phase, kernel phase, report.
    /// Objects the host engine parsed get their region in host DRAM
    /// (location Y of Fig. 1(b)). `delivered.digest` describes `objects`,
    /// so the run does not re-hash them.
    fn finish_run(
        &mut self,
        spec: &AppSpec,
        mode: Mode,
        delivered: Delivered,
        objects: ParsedColumns,
    ) -> Result<RunOutcome, RunError> {
        let Delivered {
            end,
            digest,
            cpu_busy,
            on_host,
            ..
        } = delivered;
        debug_assert_eq!(
            objects.digest(),
            digest,
            "the digest must describe these objects"
        );
        let obj_addr = if on_host {
            let addr = self
                .dram
                .alloc(digest.bytes.max(1))
                .ok_or(RunError::OutOfHostMemory)?;
            self.membus.account(digest.bytes);
            addr
        } else {
            OBJECT_ADDR
        };
        let ObjectDigest {
            records,
            bytes: obj_bytes,
            checksum,
        } = digest;
        let membus_deser = self.membus.traffic_bytes();
        let acct = self.os.accounting();

        // Other host computation (setup, partitioning, result handling).
        let other_instr = spec.other_cpu_instr_per_record * records as f64;
        let other_iv = self
            .cpu_cores
            .acquire(end, self.cpu.duration(other_instr, CodeClass::AppKernel));
        self.tracer.span(
            TraceLayer::Host,
            self.cpu_cores.name(),
            "other-cpu",
            other_iv.start,
            other_iv.end,
        );
        let mut cpu_busy_total = cpu_busy + other_iv.duration();

        let mut copy_s = 0.0;
        let kernel_start;
        let kernel_end;
        match spec.parallel {
            ParallelModel::CpuThreads(threads) => {
                let t = threads.clamp(1, self.cpu_cores.units() as u32);
                let per_thread = spec.kernel_cpu_instr_per_record * records as f64 / t as f64;
                let d = self.cpu.duration(per_thread, CodeClass::AppKernel);
                let mut kend = other_iv.end;
                for _ in 0..t {
                    let iv = self.cpu_cores.acquire(other_iv.end, d);
                    self.tracer.span(
                        TraceLayer::Host,
                        self.cpu_cores.name(),
                        "kernel",
                        iv.start,
                        iv.end,
                    );
                    kend = kend.max(iv.end);
                    cpu_busy_total += iv.duration();
                }
                self.membus.account(obj_bytes);
                kernel_start = other_iv.end;
                kernel_end = kend;
            }
            ParallelModel::GpuCuda => {
                let gk = spec.gpu_kernel.expect("checked in run()");
                let copy_end = if mode == Mode::MorpheusP2P && !on_host {
                    other_iv.end
                } else {
                    // Pageable cudaMemcpy H2D: the driver first stages the
                    // object arrays through a pinned bounce buffer (a CPU
                    // memcpy: one read + one write across the memory bus),
                    // then DMAs from the pinned region.
                    let staged = self.membus.transfer(other_iv.end, 2 * obj_bytes);
                    let dma = self.fabric.dma(
                        self.gpu_dev,
                        DmaDir::Read,
                        obj_addr,
                        obj_bytes,
                        staged.end,
                    )?;
                    let mb = self.membus.transfer(dma.start, obj_bytes);
                    dma.end.max(mb.end)
                };
                copy_s = copy_end
                    .saturating_duration_since(other_iv.end)
                    .as_secs_f64();
                let cost = KernelCost::new(
                    gk.flops * records as f64,
                    (gk.bytes * records as f64) as u64,
                );
                let iv = self.gpu.launch(cost, copy_end);
                kernel_start = copy_end;
                kernel_end = iv.end;
            }
        }

        // --- measurements ---
        let deser_s = end.as_secs_f64();
        let total_s = kernel_end.as_secs_f64();
        let p = self.params.power;
        let cpu_delta = p.cpu_delta(self.cpu.frequency());
        let ssd_pool_busy_s =
            self.mssd.parse_core_busy().as_secs_f64() / self.params.ssd.embedded_cores as f64;
        let dram_j_deser = p.dram_watts_per_gbs * (membus_deser as f64 / 1e9);
        let deser_energy = p.idle_watts * deser_s
            + cpu_delta * cpu_busy.as_secs_f64()
            + p.ssd_cores_delta_watts * ssd_pool_busy_s
            + dram_j_deser;
        let gpu_busy_s = self.gpu.busy().as_secs_f64();
        let total_energy = p.idle_watts * total_s
            + cpu_delta * cpu_busy_total.as_secs_f64()
            + p.ssd_cores_delta_watts * ssd_pool_busy_s
            + p.gpu_active_delta_watts * gpu_busy_s
            + p.dram_watts_per_gbs * (self.membus.traffic_bytes() as f64 / 1e9);

        let mut metrics = Metrics::new();
        metrics.set(
            "ssd_parse_core_busy_s",
            self.mssd.parse_core_busy().as_secs_f64(),
        );
        metrics.set("cpu_busy_deser_s", cpu_busy.as_secs_f64());
        metrics.set("gpu_busy_s", gpu_busy_s);
        metrics.set("pcie_p2p_bytes", self.fabric.traffic().p2p_bytes as f64);
        metrics.set("kernel_start_s", kernel_start.as_secs_f64());
        // Latency distributions (absent when no timed command of the kind
        // ran, e.g. flash reads on a fully unwritten range).
        self.nvme_lat.export("nvme_cmd_lat_ns", &mut metrics);
        self.mssd
            .dev
            .read_latency()
            .export("flash_read_lat_ns", &mut metrics);
        // Object-cache lifetime counters (only when a cache is installed,
        // so cache-off reports keep their exact pre-cache metric set).
        if let Some(s) = self.object_cache.as_ref().map(|c| c.stats()) {
            metrics.set("cache_hits", s.hits as f64);
            metrics.set("cache_misses", s.misses as f64);
            metrics.set("cache_hit_rate", s.hit_rate());
            metrics.set("cache_dram_kb", (s.dram_bytes / 1024) as f64);
            metrics.set("cache_host_kb", (s.host_bytes / 1024) as f64);
        }

        let report = RunReport {
            app: spec.name.clone(),
            mode,
            storage: self.params.storage,
            cpu_freq_hz: self.cpu.frequency(),
            phases: Phases {
                deserialization_s: deser_s,
                other_cpu_s: other_iv.duration().as_secs_f64(),
                copy_s,
                kernel_s: kernel_end
                    .saturating_duration_since(kernel_start)
                    .as_secs_f64(),
            },
            text_bytes: self.fs.open(&spec.input).map_or(0, |m| m.len),
            object_bytes: obj_bytes,
            records,
            checksum,
            effective_bandwidth_mbs: crate::report::mb_per_sec(obj_bytes, deser_s),
            context_switches: acct.context_switches,
            cs_per_second: if deser_s > 0.0 {
                acct.context_switches as f64 / deser_s
            } else {
                0.0
            },
            syscalls: acct.syscalls,
            page_faults: acct.page_faults,
            pcie_bytes: self.fabric.traffic().total_bytes,
            membus_bytes: self.membus.traffic_bytes(),
            deser_power_watts: if deser_s > 0.0 {
                deser_energy / deser_s
            } else {
                p.idle_watts
            },
            deser_energy_j: deser_energy,
            total_energy_j: total_energy,
            host_dram_peak: self.dram.high_watermark(),
            faults: self.collect_fault_counters(),
            metrics,
        };
        Ok(RunOutcome { report, objects })
    }

    /// Fold media/link statistics into the injector's counters and return a
    /// snapshot for the report. All-zero when no fault plan is armed.
    pub(crate) fn collect_fault_counters(&mut self) -> FaultCounters {
        let corrected = self.mssd.dev.ftl().flash().stats().corrected_reads;
        let uncorrectable = self.mssd.dev.ftl().flash().stats().uncorrectable_reads;
        let retries = self.mssd.dev.ftl().stats().read_retries;
        let degraded = self.fabric.traffic().degraded_dmas;
        match self.faults.as_mut() {
            Some(fi) => {
                fi.counters.ecc_corrected = corrected - fi.corrected_snap;
                fi.counters.media_retries = retries - fi.retries_snap;
                fi.counters.media_failures = (uncorrectable - fi.uncorrectable_snap)
                    .saturating_sub(fi.counters.media_retries);
                fi.counters.pcie_degraded = degraded;
                fi.counters
            }
            None => FaultCounters::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::FieldKind;

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    fn edge_text(edges: u32) -> Vec<u8> {
        let mut w = morpheus_format::TextWriter::new();
        for i in 0..edges {
            w.write_u64(u64::from(i) * 7 % 1000);
            w.sep();
            w.write_u64(u64::from(i) * 13 % 1000);
            w.newline();
        }
        w.into_bytes()
    }

    fn test_system() -> System {
        System::new(SystemParams::paper_testbed())
    }

    use crate::SystemParams;

    #[test]
    fn conventional_and_morpheus_produce_identical_objects() {
        let mut sys = test_system();
        sys.create_input_file("edges.txt", &edge_text(5000))
            .unwrap();
        let spec = AppSpec::cpu_app("bfs", "edges.txt", edge_schema(), 4, 100.0);
        let conv = sys.run(&spec, Mode::Conventional).unwrap();
        let morp = sys.run(&spec, Mode::Morpheus).unwrap();
        assert_eq!(conv.report.checksum, morp.report.checksum);
        assert_eq!(conv.objects, morp.objects);
        assert_eq!(conv.report.records, 5000);
    }

    #[test]
    fn morpheus_speeds_up_deserialization() {
        let mut sys = test_system();
        sys.create_input_file("edges.txt", &edge_text(20_000))
            .unwrap();
        let spec = AppSpec::cpu_app("bfs", "edges.txt", edge_schema(), 4, 100.0);
        let conv = sys.run(&spec, Mode::Conventional).unwrap();
        let morp = sys.run(&spec, Mode::Morpheus).unwrap();
        let speedup = morp.report.deser_speedup_over(&conv.report);
        assert!(
            speedup > 1.1 && speedup < 3.5,
            "deser speedup {speedup} out of plausible range"
        );
    }

    #[test]
    fn morpheus_slashes_context_switches() {
        let mut sys = test_system();
        // Large enough that the conventional path needs many 64 KiB reads.
        sys.create_input_file("edges.txt", &edge_text(200_000))
            .unwrap();
        let spec = AppSpec::cpu_app("bfs", "edges.txt", edge_schema(), 4, 100.0);
        let conv = sys.run(&spec, Mode::Conventional).unwrap();
        let morp = sys.run(&spec, Mode::Morpheus).unwrap();
        assert!(
            morp.report.context_switches * 5 < conv.report.context_switches,
            "morpheus {} vs conventional {}",
            morp.report.context_switches,
            conv.report.context_switches
        );
    }

    #[test]
    fn p2p_runs_for_gpu_apps_and_skips_host_memory() {
        let mut sys = test_system();
        sys.create_input_file("edges.txt", &edge_text(20_000))
            .unwrap();
        let spec = AppSpec::gpu_app("bfs", "edges.txt", edge_schema(), 40.0, 16.0, 20.0);
        let conv = sys.run(&spec, Mode::Conventional).unwrap();
        let p2p = sys.run(&spec, Mode::MorpheusP2P).unwrap();
        assert_eq!(conv.report.checksum, p2p.report.checksum);
        assert!(p2p.report.membus_bytes < conv.report.membus_bytes / 2);
        assert_eq!(p2p.report.phases.copy_s, 0.0);
        assert!(p2p.report.metrics.get("pcie_p2p_bytes") > 0.0);
    }

    #[test]
    fn p2p_rejected_for_cpu_apps() {
        let mut sys = test_system();
        sys.create_input_file("edges.txt", &edge_text(100)).unwrap();
        let spec = AppSpec::cpu_app("bfs", "edges.txt", edge_schema(), 4, 100.0);
        assert!(matches!(
            sys.run(&spec, Mode::MorpheusP2P),
            Err(RunError::NotGpuApp(_))
        ));
    }

    #[test]
    fn unknown_file_rejected() {
        let mut sys = test_system();
        let spec = AppSpec::cpu_app("bfs", "missing.txt", edge_schema(), 4, 100.0);
        assert!(matches!(
            sys.run(&spec, Mode::Conventional),
            Err(RunError::UnknownFile(_))
        ));
    }

    #[test]
    fn reports_are_self_consistent() {
        let mut sys = test_system();
        sys.create_input_file("edges.txt", &edge_text(10_000))
            .unwrap();
        let spec = AppSpec::gpu_app("nn", "edges.txt", edge_schema(), 60.0, 16.0, 30.0);
        for mode in [Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P] {
            let out = sys.run(&spec, mode).unwrap();
            let r = &out.report;
            assert!(r.phases.total_s() > 0.0, "{mode}: empty run");
            assert!(r.deser_energy_j > 0.0);
            assert!(r.total_energy_j >= r.deser_energy_j);
            assert!(r.deser_power_watts >= sys.params.power.idle_watts);
            assert!(r.effective_bandwidth_mbs > 0.0);
            assert_eq!(r.object_bytes, 10_000 * 8);
        }
    }

    #[test]
    fn slower_cpu_hurts_conventional_more_than_morpheus() {
        let mut fast = System::new(SystemParams::paper_testbed());
        let mut slow = System::new(SystemParams::slow_server());
        let text = edge_text(20_000);
        fast.create_input_file("e.txt", &text).unwrap();
        slow.create_input_file("e.txt", &text).unwrap();
        let spec = AppSpec::cpu_app("bfs", "e.txt", edge_schema(), 4, 100.0);
        let conv_fast = fast.run(&spec, Mode::Conventional).unwrap();
        let conv_slow = slow.run(&spec, Mode::Conventional).unwrap();
        let morp_fast = fast.run(&spec, Mode::Morpheus).unwrap();
        let morp_slow = slow.run(&spec, Mode::Morpheus).unwrap();
        let fast_speedup = morp_fast.report.deser_speedup_over(&conv_fast.report);
        let slow_speedup = morp_slow.report.deser_speedup_over(&conv_slow.report);
        assert!(
            slow_speedup > fast_speedup,
            "slow {slow_speedup} should exceed fast {fast_speedup}"
        );
    }

    #[test]
    fn conventional_runs_release_every_command_id_on_every_storage() {
        // Small chunks so the file takes many reads. Only NVMe reads are
        // commands; a RAM-drive or HDD read must not leave one queued either.
        for storage in [
            StorageKind::NvmeSsd,
            StorageKind::RamDrive,
            StorageKind::Hdd,
        ] {
            let mut params = SystemParams::paper_testbed();
            params.storage = storage;
            params.conventional_chunk_bytes = 16 << 10;
            let mut sys = System::new(params);
            sys.create_input_file("edges.txt", &edge_text(20_000))
                .unwrap();
            let spec = AppSpec::cpu_app("bfs", "edges.txt", edge_schema(), 4, 100.0);
            sys.run(&spec, Mode::Conventional).unwrap();
            sys.assert_front_end_idle(&format!("{storage:?}"));
        }
    }

    #[test]
    fn a_solo_run_is_a_tenant_of_one() {
        // 64 KiB MREADs and 16 KiB host reads keep a debug build fast:
        // 500, 20k and 40k edges take 1, 3 and 5 MREADs. The last input
        // lacks its final newline, so its MDEINIT returns the last record.
        // Under the faulty plan both engines lose commands, MREADs stall,
        // crash or fail on media, and host reads fail on media or spend
        // their reissue budget: a solo run and a tenant of one still agree.
        let mut params = SystemParams::paper_testbed();
        params.mread_chunk_bytes = 64 << 10;
        params.conventional_chunk_bytes = 16 << 10;
        let mut sys = System::new(params);
        let mut unterminated = edge_text(20_000);
        unterminated.pop();
        let inputs = [
            edge_text(500),
            edge_text(20_000),
            edge_text(40_000),
            unterminated,
        ];
        let specs: Vec<AppSpec> = (0..inputs.len())
            .map(|i| {
                let file = format!("solo{i}.txt");
                sys.create_input_file(&file, &inputs[i]).unwrap();
                AppSpec::cpu_app("bfs", &file, edge_schema(), 4, 100.0)
            })
            .collect();
        let plans = [
            "",
            "seed=3,timeout=0.3,retries=2,stall=0.3,crash=0.1",
            "seed=2,flash-uncorr=0.4",
        ];
        let mut seen = FaultCounters::default();
        let mut failed = 0;
        for plan in plans {
            sys.set_fault_plan(morpheus_simcore::FaultPlan::parse(plan).unwrap());
            for mode in [Mode::Conventional, Mode::Morpheus] {
                for spec in &specs {
                    let at = format!("{} {mode} {plan:?}", spec.input);
                    let solo = sys.run(spec, mode);
                    let one = sys.run_deserialize_many(&[(spec.clone(), mode)]);
                    let (solo, one) = match (solo, one) {
                        (Ok(solo), Ok(one)) => (solo.report, one),
                        (Err(a), Err(b)) => {
                            assert_eq!(a.to_string(), b.to_string(), "{at}");
                            failed += 1;
                            continue;
                        }
                        (a, b) => panic!("{at}: {:?} vs {:?}", a.map(|_| ()), b.map(|_| ())),
                    };
                    let tenant = &one.tenants[0];
                    assert_eq!(solo.phases.deserialization_s, tenant.deser_s, "{at}");
                    assert_eq!(solo.context_switches, one.context_switches, "{at}");
                    assert_eq!(solo.checksum, tenant.checksum, "{at}");
                    assert_eq!(solo.faults, one.faults, "{at}");
                    seen.merge(&solo.faults);
                }
            }
        }
        // The faulty plan exercised every fault and both outcomes.
        assert!(seen.nvme_timeouts > 0 && seen.core_stalls > 0, "{seen:?}");
        assert!(seen.core_crashes > 0 && seen.media_failures > 0, "{seen:?}");
        assert!(
            seen.host_fallbacks > 0 && failed > 0,
            "{seen:?}, {failed} failed"
        );
    }

    #[test]
    fn failed_and_degraded_runs_release_every_command_id() {
        // A crash degrades the run to the host path; a certain timeout
        // spends the reissue budget and then fails the host path too.
        for (plan, mode) in [
            ("seed=1,crash=1", Mode::Morpheus),
            ("seed=1,timeout=1", Mode::Morpheus),
            ("seed=1,timeout=1", Mode::Conventional),
        ] {
            let mut sys = test_system();
            sys.create_input_file("edges.txt", &edge_text(20_000))
                .unwrap();
            sys.set_fault_plan(morpheus_simcore::FaultPlan::parse(plan).unwrap());
            let spec = AppSpec::cpu_app("bfs", "edges.txt", edge_schema(), 4, 100.0);
            let _ = sys.run(&spec, mode);
            sys.assert_front_end_idle(&format!("{plan} {mode}"));
        }
        // Malformed input fails the StorageApp itself: the run is fatal,
        // and the failed MREAD leaves no command, instance or controller DRAM.
        let mut sys = test_system();
        sys.create_input_file("bad.txt", b"1 2\nnot numeric\n3 4\n")
            .unwrap();
        let spec = AppSpec::cpu_app("bfs", "bad.txt", edge_schema(), 4, 100.0);
        let err = sys.run(&spec, Mode::Morpheus).unwrap_err();
        assert!(
            matches!(err, RunError::Morpheus(MorpheusError::App(_))),
            "{err:?}"
        );
        // Each layer's `Display` names only itself: the parse error
        // appears once in the rendered chain.
        assert_eq!(
            morpheus_simcore::render_error_chain(&err),
            "morpheus firmware error: storageapp fault: parse failure: \
             unexpected byte 'n' at offset 4"
        );
        sys.assert_front_end_idle("a failed MREAD");
        assert_eq!(sys.mssd.live_instances(), 0);
        assert_eq!(sys.mssd.dev.dram_used(), 0);
    }
}
