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
//! The engines themselves live in `concurrent.rs`: the host engine
//! (`HostTenant`) and the device engine (`DeviceTenant`), which serving and
//! the multi-tenant runs step too, so a solo run is a tenant of one. What
//! stays here is the solo framing around their steps: the fault gates at
//! the solo floors, the round trips on the shared I/O queue, the trace
//! spans and the `nvme_lat` histogram. Serving frames the same engines its
//! own way (`serve.rs`), because it gates the same commands at different
//! floors (`docs/FAULT_MODEL.md`).

use crate::report::{Mode, Phases, RunReport};
use crate::{BinaryDeserializeApp, DeserializeApp, MorpheusError, StorageApp, StorageKind, System};
use morpheus_format::{Endianness, ObjectDigest, ParseError, ParsedColumns, Schema};
use morpheus_gpu::KernelCost;
use morpheus_host::CodeClass;
use morpheus_nvme::{MorpheusCommand, NvmeCommand, StatusCode};
use morpheus_pcie::{DmaDir, PcieError};
use morpheus_simcore::{FaultCounters, Metrics, SimDuration, SimTime, TraceLayer};
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

/// How a staged input file is encoded (§I's "other input formats").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// Whitespace/comma-separated decimal text (the paper's focus).
    Text,
    /// Packed binary records at the given byte order.
    Binary(Endianness),
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
    /// drive: every Morpheus path (solo, tenant, served) installs this one.
    pub(crate) fn storage_app(&self) -> Box<dyn StorageApp> {
        match self.input_format {
            InputFormat::Text => Box::new(DeserializeApp::new(&self.name, self.schema.clone())),
            InputFormat::Binary(e) => Box::new(BinaryDeserializeApp::new(
                &self.name,
                self.schema.clone(),
                e,
            )),
        }
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

/// Internal summary of the deserialization window.
struct DeserWindow {
    end: SimTime,
    cpu_busy: SimDuration,
    text_bytes: u64,
    /// Host address of the object region (0 when objects live on the GPU).
    obj_addr: u64,
    /// True when a Morpheus-mode run degraded to host deserialization:
    /// the objects ended up in host DRAM, so a P2P run still owes the
    /// host-to-GPU copy.
    fell_back: bool,
}

/// Why a Morpheus-mode attempt (a suite run or one served request) was
/// abandoned.
pub(crate) enum MorpheusAbort {
    /// Unrecoverable: surface the error to the caller.
    Fatal(RunError),
    /// Recoverable by degrading to host-side deserialization.
    Fallback {
        /// Simulated time the failure was detected (fallback starts here).
        at: SimTime,
        /// Instance to reap (may never have been created).
        iid: u32,
        /// NVMe status the driver posts for the failed command.
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
        self.reset_timing();
        match mode {
            Mode::Conventional => self.run_conventional(spec),
            Mode::Morpheus => self.run_morpheus(spec, false),
            Mode::MorpheusP2P => {
                if !matches!(spec.parallel, ParallelModel::GpuCuda) {
                    return Err(RunError::NotGpuApp(spec.name.clone()));
                }
                self.run_morpheus(spec, true)
            }
        }
    }

    fn run_conventional(&mut self, spec: &AppSpec) -> Result<RunOutcome, RunError> {
        let (objects, digest, window) = self.host_deser_window(spec, SimTime::ZERO)?;
        self.finish_run(spec, Mode::Conventional, objects, digest, window)
    }

    /// The host-side `read()`+parse loop of Fig. 1, shared by the
    /// conventional mode and the Morpheus fallback path: drives the host
    /// engine ([`System::step_host`]) over the whole file starting no
    /// earlier than `start`, framing each chunk with its fault roll, NVMe
    /// round trip and spans, then allocates the object region and returns
    /// the objects, their digest and the window summary.
    fn host_deser_window(
        &mut self,
        spec: &AppSpec,
        start: SimTime,
    ) -> Result<(ParsedColumns, ObjectDigest, DeserWindow), RunError> {
        let mut h = self.conventional_tenant(spec, start, true)?;
        let nvme = matches!(self.params.storage, StorageKind::NvmeSsd);
        let mut cpu_busy = SimDuration::ZERO;
        // QD-1 blocking reads: the next command is submitted when the
        // previous one's data has landed (traced as the NVMe lifecycle).
        let mut submit = start;
        while let Some(c) = h.next_chunk() {
            // The injected-timeout floor: `start` when the command went
            // out untouched, later when reissues pushed it back. On this
            // path there is nothing left to fall back to, so an exhausted
            // reissue budget is a clean run failure.
            let floor = if nvme {
                let floor = self
                    .issue_with_timeouts(submit, start)
                    .map_err(|(_, attempts)| RunError::CommandTimeout { attempts })?;
                let cid = self.alloc_cid();
                let cmd = NvmeCommand::read(cid, 1, c.slba, c.blocks, h.buf_addr);
                self.round_trip(cmd, StatusCode::Success, 0);
                floor
            } else {
                start
            };
            let step = self.step_host(&mut h, floor)?;
            if nvme {
                self.tracer.span_bytes(
                    TraceLayer::Nvme,
                    NVME_TRACK,
                    "READ",
                    submit,
                    step.io_done,
                    c.valid_bytes,
                );
                self.nvme_lat
                    .record(step.io_done.duration_since(submit).as_nanos());
                submit = step.io_done;
            }
            self.tracer
                .instant(TraceLayer::Host, OS_TRACK, "context-switch", step.cpu.start);
            self.tracer.span_bytes(
                TraceLayer::Host,
                self.cpu_cores.name(),
                "read+parse",
                step.cpu.start,
                step.cpu.end,
                c.valid_bytes,
            );
            cpu_busy += step.cpu.duration();
        }
        let text_bytes = h.text_bytes();
        let (end, digest, objects) = h.finish()?;
        let objects = objects.expect("built to keep its columns");
        // Location Y of Fig. 1(b): the object arrays.
        let obj_addr = self
            .dram
            .alloc(digest.bytes.max(1))
            .ok_or(RunError::OutOfHostMemory)?;
        self.membus.account(digest.bytes);
        let window = DeserWindow {
            end,
            cpu_busy,
            text_bytes,
            obj_addr,
            fell_back: false,
        };
        Ok((objects, digest, window))
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

    /// Rolls the embedded-core stall dice for a Morpheus command about to
    /// dispatch at `ready`; a hit delays it by the plan's stall duration.
    pub(crate) fn inject_core_stall(&mut self, ready: SimTime) -> SimTime {
        let Some(fi) = self.faults.as_mut() else {
            return ready;
        };
        if fi.plan.core_stall <= 0.0 || !fi.stall.roll() {
            return ready;
        }
        fi.counters.core_stalls += 1;
        let stall = fi.plan.stall_duration();
        self.tracer
            .instant(TraceLayer::Ssd, "faults", "core-stall", ready);
        ready + stall
    }

    /// Rolls the embedded-core crash dice for a Morpheus command at `at`;
    /// `Some(at)` means the core crashed and the instance is lost.
    pub(crate) fn inject_core_crash(&mut self, at: SimTime) -> Option<SimTime> {
        let fi = self.faults.as_mut()?;
        if fi.plan.core_crash <= 0.0 || !fi.crash.roll() {
            return None;
        }
        fi.counters.core_crashes += 1;
        self.tracer
            .instant(TraceLayer::Ssd, "faults", "core-crash", at);
        Some(at)
    }

    /// The fault gate every Morpheus command (`cmd`: MINIT, MREAD or
    /// MDEINIT of instance `iid`, ready at `ready`) passes before the
    /// firmware runs it, in the suite driver and the serving path alike:
    /// the command may be lost on the wire, then find its embedded core
    /// stalled or crashed. Returns the command's device-ready floor; a
    /// spent reissue budget or a crash is a [`MorpheusAbort::Fallback`].
    pub(crate) fn fault_gate(
        &mut self,
        cmd: &str,
        iid: u32,
        ready: SimTime,
    ) -> Result<SimTime, MorpheusAbort> {
        let floor = self
            .issue_with_timeouts(ready, ready)
            .map_err(|(at, attempts)| MorpheusAbort::Fallback {
                at,
                iid,
                status: StatusCode::CommandTimeout,
                cause: format!("{cmd} lost {attempts} times; reissue budget spent"),
            })?;
        let floor = self.inject_core_stall(floor);
        match self.inject_core_crash(floor) {
            Some(at) => Err(MorpheusAbort::Fallback {
                at,
                iid,
                status: StatusCode::CoreFault,
                cause: format!("embedded core crashed during {cmd}"),
            }),
            None => Ok(floor),
        }
    }

    /// Classifies a failed firmware step of instance `iid` at `at`:
    /// uncorrectable media falls back to the host path, any other error
    /// is fatal.
    pub(crate) fn media_or_fatal(err: RunError, iid: u32, at: SimTime) -> MorpheusAbort {
        match err {
            RunError::Morpheus(e) if e.status() == StatusCode::MediaUncorrectable => {
                MorpheusAbort::Fallback {
                    at,
                    iid,
                    status: StatusCode::MediaUncorrectable,
                    cause: morpheus_simcore::render_error_chain(&e),
                }
            }
            e => MorpheusAbort::Fatal(e),
        }
    }

    /// Reaps instance `iid` of a Morpheus stream that failed at `at`, in
    /// solo runs and serving alike: tears the instance down, emits the
    /// `host-fallback` instant on trace track `track`, and counts the
    /// fallback and its `cause`. Returns the synthetic MDEINIT, to be
    /// completed with the failure status.
    pub(crate) fn reap_fallback(
        &mut self,
        track: &str,
        at: SimTime,
        iid: u32,
        cause: String,
    ) -> NvmeCommand {
        self.mssd.abort_instance(iid);
        let cid = self.alloc_cid();
        let wire = MorpheusCommand::Deinit { instance_id: iid }.into_command(cid, 1);
        self.tracer
            .instant(TraceLayer::Host, track, "host-fallback", at);
        if let Some(fi) = self.faults.as_mut() {
            fi.counters.host_fallbacks += 1;
            fi.fallback_cause = Some(cause);
        }
        wire
    }

    fn run_morpheus(&mut self, spec: &AppSpec, p2p: bool) -> Result<RunOutcome, RunError> {
        match self.try_morpheus(spec, p2p) {
            Ok(out) => Ok(out),
            Err(MorpheusAbort::Fatal(e)) => Err(e),
            Err(MorpheusAbort::Fallback {
                at,
                iid,
                status,
                cause,
            }) => self.morpheus_fallback(spec, p2p, at, iid, status, cause),
        }
    }

    /// Graceful degradation: reap the failed Morpheus command with its
    /// error status, tear the instance down, and rerun deserialization on
    /// the host starting at the failure time. The run still produces
    /// bit-identical objects — just later, and visibly so in the report's
    /// fault counters and the trace.
    fn morpheus_fallback(
        &mut self,
        spec: &AppSpec,
        p2p: bool,
        at: SimTime,
        iid: u32,
        status: StatusCode,
        cause: String,
    ) -> Result<RunOutcome, RunError> {
        // The driver's abort path reaps the instance's stream with a
        // synthetic completion carrying the failure status.
        let wire = self.reap_fallback(OS_TRACK, at, iid, cause);
        self.round_trip(wire, status, 0);
        let (objects, digest, mut window) = self.host_deser_window(spec, at)?;
        window.fell_back = true;
        let mode = if p2p {
            Mode::MorpheusP2P
        } else {
            Mode::Morpheus
        };
        self.finish_run(spec, mode, objects, digest, window)
    }

    fn try_morpheus(&mut self, spec: &AppSpec, p2p: bool) -> Result<RunOutcome, MorpheusAbort> {
        let iid = self.alloc_instance();
        // Host side: issue MINIT (one syscall + switch into the driver).
        let init_iv = self.command_wakeup(SimTime::ZERO);
        let mut cpu_busy = init_iv.duration();
        let issue = self.fault_gate("MINIT", iid, init_iv.end)?;
        let bar = p2p.then(|| self.map_gpu_bar());
        let mut t = self.device_tenant(spec, iid, issue, bar, true)?;
        let cid = self.alloc_cid();
        self.round_trip(t.init_command(cid), StatusCode::Success, 0);
        self.tracer.span(
            TraceLayer::Host,
            self.cpu_cores.name(),
            "minit-syscall",
            init_iv.start,
            init_iv.end,
        );
        self.tracer
            .span(TraceLayer::Nvme, NVME_TRACK, "MINIT", init_iv.end, t.ready);

        while let Some(c) = t.next_chunk() {
            // MREADs are all queued once the instance is up (async queue
            // depth): each one's floor is the instance-ready time, pushed
            // back only by its own faults, and its lifecycle runs submit →
            // staging done.
            let issue = self.fault_gate("MREAD", iid, t.ready)?;
            let step = self
                .step_device(&mut t, issue)
                .map_err(|e| Self::media_or_fatal(e, iid, issue))?;
            let cid = self.alloc_cid();
            self.round_trip(t.read_command(c, cid), StatusCode::Success, 0);
            self.tracer.span_bytes(
                TraceLayer::Nvme,
                NVME_TRACK,
                "MREAD",
                t.ready,
                step.done,
                c.valid_bytes,
            );
            self.nvme_lat
                .record(step.done.duration_since(t.ready).as_nanos());
            if let Some(iv) = step.wakeup {
                self.tracer
                    .instant(TraceLayer::Host, OS_TRACK, "context-switch", iv.start);
                self.tracer.span(
                    TraceLayer::Host,
                    self.cpu_cores.name(),
                    "completion",
                    iv.start,
                    iv.end,
                );
                cpu_busy += iv.duration();
            }
        }

        // MDEINIT: collect the final output and the return value.
        let (last_end, text_bytes) = (t.last_end, t.file_len);
        let issue = self.fault_gate("MDEINIT", iid, last_end)?;
        let end = self
            .finish_device(t, issue)
            .map_err(|e| Self::media_or_fatal(e, iid, issue))?;
        self.tracer
            .span(TraceLayer::Nvme, NVME_TRACK, "MDEINIT", last_end, end.done);
        let cid = self.alloc_cid();
        let wire = MorpheusCommand::Deinit { instance_id: iid }.into_command(cid, 1);
        self.round_trip(wire, StatusCode::Success, end.retval as u32);
        self.tracer.span(
            TraceLayer::Host,
            self.cpu_cores.name(),
            "mdeinit-wakeup",
            end.wakeup.start,
            end.wakeup.end,
        );
        cpu_busy += end.wakeup.duration();

        let window = DeserWindow {
            end: end.wakeup.end,
            cpu_busy,
            text_bytes,
            obj_addr: 0x2000,
            fell_back: false,
        };
        let mode = if p2p {
            Mode::MorpheusP2P
        } else {
            Mode::Morpheus
        };
        let objects = end.objects.expect("built to keep its columns");
        Ok(self.finish_run(spec, mode, objects, end.digest, window)?)
    }

    /// Shared tail: other-CPU phase, copy phase, kernel phase, report.
    /// `digest` is `objects.digest()`, which the host engine already has
    /// (from its memo or its own finish), so the run does not re-hash.
    fn finish_run(
        &mut self,
        spec: &AppSpec,
        mode: Mode,
        objects: ParsedColumns,
        digest: ObjectDigest,
        window: DeserWindow,
    ) -> Result<RunOutcome, RunError> {
        debug_assert_eq!(
            objects.digest(),
            digest,
            "the digest must describe these objects"
        );
        let ObjectDigest {
            records,
            bytes: obj_bytes,
            checksum,
        } = digest;
        let membus_deser = self.membus.traffic_bytes();
        let acct = self.os.accounting();

        // Other host computation (setup, partitioning, result handling).
        let other_instr = spec.other_cpu_instr_per_record * records as f64;
        let other_iv = self.cpu_cores.acquire(
            window.end,
            self.cpu.duration(other_instr, CodeClass::AppKernel),
        );
        self.tracer.span(
            TraceLayer::Host,
            self.cpu_cores.name(),
            "other-cpu",
            other_iv.start,
            other_iv.end,
        );
        let mut cpu_busy_total = window.cpu_busy + other_iv.duration();

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
                let copy_end = if mode == Mode::MorpheusP2P && !window.fell_back {
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
                        window.obj_addr,
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
        let deser_s = window.end.as_secs_f64();
        let total_s = kernel_end.as_secs_f64();
        let p = self.params.power;
        let cpu_delta = p.cpu_delta(self.cpu.frequency());
        let ssd_pool_busy_s =
            self.mssd.parse_core_busy().as_secs_f64() / self.params.ssd.embedded_cores as f64;
        let dram_j_deser = p.dram_watts_per_gbs * (membus_deser as f64 / 1e9);
        let deser_energy = p.idle_watts * deser_s
            + cpu_delta * window.cpu_busy.as_secs_f64()
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
        metrics.set("cpu_busy_deser_s", window.cpu_busy.as_secs_f64());
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
            text_bytes: window.text_bytes,
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
        // commands; a RAM-drive or HDD read must not hold a CID either.
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
            assert_eq!(sys.in_flight_cids.len(), 0, "{storage:?}");
        }
    }

    #[test]
    fn a_solo_morpheus_run_is_a_tenant_of_one() {
        // 64 KiB MREADs keep a debug build fast: 500, 20k and 40k edges
        // take 1, 3 and 5 of them. The last input lacks its final newline,
        // so its MDEINIT returns the last record.
        let mut params = SystemParams::paper_testbed();
        params.mread_chunk_bytes = 64 << 10;
        let mut sys = System::new(params);
        let mut unterminated = edge_text(20_000);
        unterminated.pop();
        let inputs = [
            edge_text(500),
            edge_text(20_000),
            edge_text(40_000),
            unterminated,
        ];
        for (i, text) in inputs.iter().enumerate() {
            let file = format!("solo{i}.txt");
            sys.create_input_file(&file, text).unwrap();
            let spec = AppSpec::cpu_app("bfs", &file, edge_schema(), 4, 100.0);
            let solo = sys.run(&spec, Mode::Morpheus).unwrap().report;
            let one = sys.run_deserialize_many(&[(spec, Mode::Morpheus)]).unwrap();
            let tenant = &one.tenants[0];
            assert_eq!(solo.phases.deserialization_s, tenant.deser_s, "{file}");
            assert_eq!(solo.context_switches, one.context_switches, "{file}");
            assert_eq!(solo.checksum, tenant.checksum, "{file}");
        }
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
            assert_eq!(sys.in_flight_cids.len(), 0, "{plan} {mode}");
        }
        // Malformed input fails the StorageApp itself: the run is fatal,
        // and the failed MREAD leaves no CID, instance or controller DRAM.
        let mut sys = test_system();
        sys.create_input_file("bad.txt", b"1 2\nnot numeric\n3 4\n")
            .unwrap();
        let spec = AppSpec::cpu_app("bfs", "bad.txt", edge_schema(), 4, 100.0);
        let err = sys.run(&spec, Mode::Morpheus).unwrap_err();
        assert!(
            matches!(err, RunError::Morpheus(MorpheusError::App(_))),
            "{err:?}"
        );
        assert_eq!(sys.in_flight_cids.len(), 0);
        assert_eq!(sys.mssd.live_instances(), 0);
        assert_eq!(sys.mssd.dev.dram_used(), 0);
    }
}
