//! Multi-tenant deserialization: several applications sharing one platform.
//!
//! §III argues the Morpheus model shines in multiprogrammed environments:
//! each tenant's StorageApp occupies *its own* embedded core (instances pin
//! per §IV-B), so tenants scale with the drive's core count while the host
//! CPU stays free; conventional tenants instead fight for host cores, the
//! memory bus, and the scheduler. [`System::run_deserialize_many`] executes
//! the deserialization phase of N tenants concurrently — chunks are issued
//! round-robin so resource contention is modelled at chunk granularity —
//! and reports per-tenant and aggregate throughput.
//!
//! There are two engines, and each is the only engine of its kind:
//! [`HostTenant`] (Fig. 1's `read()`+parse loop) and [`DeviceTenant`] (one
//! StorageApp lifecycle, MINIT → MREAD* or MWRITE* → MDEINIT, for any
//! StorageApp; the KV scan and serialization run theirs whole in
//! [`System::run_instance`]). One driver frames deserialization on both:
//! an [`InFlight`] request, opened on either engine and stepped one
//! command at a time. Each step passes the command's fault gate at its
//! submission, runs the engine, and yields the command's wire form and a
//! [`StepEvent`]; a device failure the host can absorb reaps the instance
//! and moves the same request onto the host engine. Every caller steps
//! it: `System::run` (`exec.rs`, a request of one), the round-robin loop
//! here, and serving (`serve.rs`). They differ only in loop order, in
//! where they pump the commands, and in which sink reads the events.
//!
//! Both engines parse every input encoding with one
//! [`StreamingParser`] built for the spec's `InputFormat`: the host
//! engine feeds it each READ's chunk, and the device engine installs a
//! `DeserializeApp`, which feeds it each flash page. Each prices the work
//! the parser hands out per chunk (`take_work`).
//!
//! Each engine owns its table of the system's replay store (see
//! `deser_memo`): building it looks a recording up, and finishing it
//! publishes a new one. The host engine replays parse work itself; the
//! device engine hands the firmware an `InstanceMemo` that says what runs
//! the instance: the StorageApp, built only then, or the recording, which
//! supplies MINIT's code size and each MREAD's costs and output length. A
//! request is told only whether it may replay: a live run hands back its
//! canonical columns, and a replay none. The object image is
//! `System::run`'s (`exec.rs`), the one caller that keeps columns.

use crate::deser_memo::{HostReplay, MemoKey, ReplayStore};
use crate::exec::{AppSpec, MorpheusAbort, RunError};
use crate::firmware::{DeinitOutcome, DeviceReplay, InstanceMemo, IO_QUEUE_ID};
use crate::report::{mb_per_sec, Mode};
use crate::system::{ChunkIo, WireCmd};
use crate::{
    ms_stream_create, CommandPlan, DeserializeApp, MsStream, StorageApp, StorageKind, System,
};
use morpheus_format::{ObjectDigest, ParseWork, ParsedColumns, Schema, StreamingParser};
use morpheus_host::CodeClass;
use morpheus_nvme::{MorpheusCommand, NvmeCommand, StatusCode};
use morpheus_pcie::{BarWindow, DmaDir};
use morpheus_simcore::{FaultCounters, Interval, SimDuration, SimTime};
use morpheus_ssd::PageRead;
use std::sync::Arc;

/// One tenant's outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Application name.
    pub app: String,
    /// Execution mode.
    pub mode: Mode,
    /// When this tenant's objects were all delivered.
    pub deser_s: f64,
    /// Records deserialized.
    pub records: u64,
    /// Object checksum (must match a solo run of the same input).
    pub checksum: u64,
    /// Binary object bytes produced.
    pub object_bytes: u64,
}

/// Aggregate outcome of a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Per-tenant results, in input order.
    pub tenants: Vec<TenantReport>,
    /// Time until the slowest tenant finished.
    pub makespan_s: f64,
    /// Aggregate object throughput over the makespan, MB/s.
    pub aggregate_mbs: f64,
    /// Context switches across all tenants.
    pub context_switches: u64,
    /// Injected faults and recoveries (all zero without a fault plan).
    pub faults: FaultCounters,
}

/// Where the host engine's per-chunk parse work comes from.
enum ParseSource {
    /// The parser runs; each chunk's work is recorded when the engine has
    /// a memo key. The last chunk's step ends the stream, so its work
    /// includes the final unterminated token's.
    Live {
        /// Taken by the last chunk's step, which parks the columns in
        /// `parsed`.
        parser: Option<Box<StreamingParser>>,
        parsed: Option<ParsedColumns>,
        recorded: Vec<ParseWork>,
    },
    /// A recording of this exact content and chunking.
    Replay(Arc<HostReplay>),
}

/// The host deserialization engine: Fig. 1's `read()`+parse loop over one
/// file, stepped a chunk at a time with [`System::step_host`] and closed
/// with [`HostTenant::finish`]. An [`InFlight`] request frames the steps.
///
/// Record/replay of the parse work (see `deser_memo`): storage I/O, OS
/// costs and CPU-core grants always run live against the caller's
/// timelines; only the parser itself is skipped when a recording for this
/// exact content and chunking exists and the caller lets it replay. The
/// recorded values (per-chunk work deltas, the object digest) are pure
/// functions of the key, so replayed runs are byte-identical to live ones.
pub(crate) struct HostTenant {
    chunks: Vec<ChunkIo>,
    next: usize,
    /// Buffer X of Fig. 1(b): the raw-text landing buffer.
    buf_addr: u64,
    /// The dispatch instant: no READ is served earlier.
    start: SimTime,
    /// When the next READ is submitted: QD-1 blocking reads submit each
    /// one when the previous one's data has landed.
    submit: SimTime,
    cpu_ready: SimTime,
    source: ParseSource,
    /// Where a live parse publishes its recording.
    memo: Option<(MemoKey, Arc<ReplayStore>)>,
}

impl HostTenant {
    /// The chunk the next [`System::step_host`] reads, if any is left,
    /// and the NVMe READ that lands it in the engine's buffer.
    pub(crate) fn next_read(&self) -> Option<(ChunkIo, NvmeCommand)> {
        let c = *self.chunks.get(self.next)?;
        Some((c, c.read_command(self.buf_addr)))
    }

    /// Completes the parse. Returns when the last chunk's parse ended, the
    /// objects' digest, and a live parse's canonical columns (a replay has
    /// none). A live parse publishes its recording.
    pub(crate) fn finish(self) -> Result<(SimTime, ObjectDigest, Option<ParsedColumns>), RunError> {
        let (parser, parsed, recorded) = match self.source {
            ParseSource::Live {
                parser,
                parsed,
                recorded,
                ..
            } => (parser, parsed, recorded),
            ParseSource::Replay(r) => return Ok((self.cpu_ready, r.digest, None)),
        };
        // A file of no chunks was never stepped: its parse ends here.
        let mut o = match parsed {
            Some(o) => o,
            None => parser.expect("finished at its last chunk").finish()?,
        };
        o.canonicalize();
        let digest = o.digest();
        if let Some((key, store)) = self.memo {
            store.host_put(
                key,
                Arc::new(HostReplay {
                    per_chunk: recorded,
                    digest,
                }),
            );
        }
        Ok((self.cpu_ready, digest, Some(o)))
    }
}

/// The device engine: one StorageApp instance lifecycle of §IV-A, run
/// from its [`CommandPlan`] for any StorageApp: MINIT
/// ([`System::open_instance`]), each MREAD or MWRITE, MDEINIT
/// ([`System::close_instance`]). A deserialization request opens it with
/// [`System::device_tenant`] and takes its objects with
/// [`System::device_objects`], which own the device memo (`deser_memo`):
/// replay an identical lifecycle's recording, or record this one and
/// publish it with its objects' digest. A replay's commands carry no
/// bytes, so it hands back no columns. Every timed step (flash, cores,
/// DMA, bus) runs live either way.
pub(crate) struct DeviceTenant {
    plan: CommandPlan,
    /// Index of the next MREAD or MWRITE.
    next: usize,
    /// When MINIT finished.
    ready: SimTime,
    /// When the last step's output was delivered (staged, for an MREAD
    /// that returned none) or its MWRITE's completion reaped.
    last_end: SimTime,
    /// The app's output so far (none on a replay).
    output: Vec<u8>,
    /// P2P delivery window; `None` delivers output to host DRAM.
    bar: Option<BarWindow>,
    /// Device memo key (fault-free deserialization only), under which a
    /// recording lifecycle is published.
    memo_key: Option<MemoKey>,
    /// The object digest of the replayed recording.
    replayed: Option<ObjectDigest>,
}

/// A StorageApp invocation run to its end by [`System::run_storage_app`].
#[derive(Debug, Clone)]
pub struct AppRun {
    /// The app's output, in order: each MREAD's, then MDEINIT's.
    pub output: Vec<u8>,
    /// When the host reaped MDEINIT's completion.
    pub end: SimTime,
    /// Host CPU time: the MINIT syscall and every completion wakeup.
    pub cpu_busy: SimDuration,
    /// Bytes the app streamed to flash through MWRITEs.
    pub(crate) flushed: u64,
}

/// Where a request is opened: the host engine, or StorageApp instance
/// `iid` on the drive delivering to the P2P window `bar` (host DRAM when
/// `None`).
pub(crate) enum Target {
    Host,
    Device(u32, Option<BarWindow>),
}

/// The engine an [`InFlight`] request is on.
enum Engine {
    /// A device request before its MINIT, issued no earlier than `start`:
    /// its plan and its P2P window. MINIT decides whether a StorageApp is
    /// built ([`System::device_tenant`]).
    Minit {
        plan: CommandPlan,
        bar: Option<BarWindow>,
        start: SimTime,
    },
    Host(HostTenant),
    Device(DeviceTenant),
    /// The device lifecycle after its MDEINIT: when its objects were
    /// delivered, their digest, and the columns a live one decoded.
    Ended(SimTime, ObjectDigest, Option<ParsedColumns>),
}

/// One in-flight deserialization request: `spec`'s file parsed into
/// objects on one engine, opened with [`System::open_request`], stepped
/// one command at a time with [`System::step_request`] and closed with
/// [`InFlight::finish`]. Solo runs, multi-tenant runs and serving all
/// drive requests; see the module docs.
pub(crate) struct InFlight<'a> {
    spec: &'a AppSpec,
    engine: Engine,
    /// Either engine may replay a recording, and then hands back no
    /// columns.
    may_replay: bool,
    /// Host CPU time the current engine has spent on the request:
    /// syscalls and completion wakeups, or `read()` returns and parses.
    cpu_busy: SimDuration,
}

/// What one step of a request did, for the driver's sink.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StepEvent {
    /// MINIT: the host core that ran the issuing syscall, and when the
    /// instance was ready for MREADs.
    Minit { syscall: Interval, ready: SimTime },
    /// A host READ of `bytes`, submitted at `submit`, landed at `io_done`
    /// and returned and parsed on the host core grant `cpu`.
    Read {
        bytes: u64,
        submit: SimTime,
        io_done: SimTime,
        cpu: Interval,
    },
    /// An MREAD of `bytes`, queued when the instance was ready (`ready`),
    /// staged at `done`, and its completion wakeup when it returned objects.
    Mread {
        bytes: u64,
        ready: SimTime,
        done: SimTime,
        wakeup: Option<Interval>,
    },
    /// MDEINIT, issued when the last objects were delivered (`issue`),
    /// done on the drive at `done` and reaped on the host core `wakeup`.
    Mdeinit {
        issue: SimTime,
        done: SimTime,
        wakeup: Interval,
    },
    /// The device attempt failed at `at`: its instance was reaped and the
    /// request moved onto the host engine from `at`.
    Fallback { at: SimTime },
    /// A host READ was lost `attempts` times, the last detected at `at`.
    /// The host path has nothing to fall back to: the request failed.
    Lost { at: SimTime, attempts: u32 },
}

/// One step: the command that crossed the wire, with the completion the
/// drive posts for it (none for a RAM-drive or HDD read, or a lost READ),
/// and what happened.
pub(crate) type Step = (Option<WireCmd>, StepEvent);

impl StepEvent {
    /// Host-core time the step took: the issuing syscall, the completion
    /// wakeup, or the `read()` return and parse.
    fn host_cpu(&self) -> SimDuration {
        match *self {
            StepEvent::Minit { syscall: iv, .. }
            | StepEvent::Read { cpu: iv, .. }
            | StepEvent::Mread {
                wakeup: Some(iv), ..
            }
            | StepEvent::Mdeinit { wakeup: iv, .. } => iv.duration(),
            _ => SimDuration::ZERO,
        }
    }
}

/// A finished request.
pub(crate) struct Delivered {
    /// When the objects were delivered.
    pub end: SimTime,
    pub digest: ObjectDigest,
    /// The canonical columns of a live run; a replay has none.
    pub objects: Option<ParsedColumns>,
    /// Host CPU time the delivering engine spent on the request.
    pub cpu_busy: SimDuration,
    /// The host engine parsed the objects (conventional mode or a
    /// fallback), so they sit in host DRAM.
    pub on_host: bool,
}

impl InFlight<'_> {
    /// True once the request has no step left:
    /// [`finish`](InFlight::finish) it.
    pub(crate) fn done(&self) -> bool {
        match &self.engine {
            Engine::Host(h) => h.next == h.chunks.len(),
            Engine::Ended(..) => true,
            Engine::Minit { .. } | Engine::Device(_) => false,
        }
    }

    /// True while the request has a MINIT, READ or MREAD left: every step
    /// but MDEINIT.
    pub(crate) fn reading(&self) -> bool {
        match &self.engine {
            Engine::Minit { .. } => true,
            Engine::Host(h) => h.next < h.chunks.len(),
            Engine::Device(t) => t.next < t.plan.stream.chunks().len(),
            Engine::Ended(..) => false,
        }
    }

    /// Closes a request whose steps are done.
    pub(crate) fn finish(self) -> Result<Delivered, RunError> {
        let ((end, digest, objects), on_host) = match self.engine {
            Engine::Host(h) => (h.finish()?, true),
            Engine::Ended(end, digest, objects) => ((end, digest, objects), false),
            Engine::Minit { .. } | Engine::Device(_) => {
                unreachable!("a request finishes after its last step")
            }
        };
        let cpu_busy = self.cpu_busy;
        Ok(Delivered {
            end,
            digest,
            objects,
            cpu_busy,
            on_host,
        })
    }
}

impl System {
    /// Builds the host engine for `spec`'s file: CPU work starts no
    /// earlier than `start`. It replays a recording only when `may_replay`.
    pub(crate) fn conventional_tenant(
        &mut self,
        spec: &AppSpec,
        start: SimTime,
        may_replay: bool,
    ) -> Result<HostTenant, RunError> {
        let meta = self
            .fs
            .open(&spec.input)
            .map_err(|_| RunError::UnknownFile(spec.input.clone()))?;
        let chunks = Self::file_chunks(meta, self.params.conventional_chunk_bytes);
        let memo = self.host_memo_key(spec, &chunks).zip(self.replay.clone());
        let replay = memo
            .as_ref()
            .filter(|_| may_replay)
            .and_then(|(key, store)| store.host_get(*key));
        if let Some(r) = &replay {
            assert_eq!(
                r.per_chunk.len(),
                chunks.len(),
                "deser-memo chunk-count mismatch (key collision?)"
            );
        }
        let buf_addr = self
            .dram
            .alloc(self.params.conventional_chunk_bytes)
            .ok_or(RunError::OutOfHostMemory)?;
        Ok(HostTenant {
            chunks,
            next: 0,
            buf_addr,
            start,
            submit: start,
            cpu_ready: start,
            source: match replay {
                Some(r) => ParseSource::Replay(r),
                None => ParseSource::Live {
                    parser: Some(Box::new(StreamingParser::with_format(
                        spec.schema.clone(),
                        spec.input_format,
                    ))),
                    parsed: None,
                    recorded: Vec::new(),
                },
            },
            memo,
        })
    }

    /// Reads and parses the engine's next chunk: the read is served no
    /// earlier than `floor`, the parse no earlier than the previous one.
    pub(crate) fn step_host(
        &mut self,
        h: &mut HostTenant,
        floor: SimTime,
    ) -> Result<StepEvent, RunError> {
        let ci = h.next;
        let c = h.chunks[ci];
        h.next += 1;
        // Every page of the READ is timed before the parser sees one, so a
        // media error wins over a parse error in the same chunk.
        let (pages, io_done) = self.conventional_io(&c, h.buf_addr, floor)?;
        let dw = match &mut h.source {
            // A replay drops the page views unread: its recording holds
            // their parse work.
            ParseSource::Replay(r) => r.per_chunk[ci],
            ParseSource::Live {
                parser,
                parsed,
                recorded,
            } => {
                let p = parser.as_mut().expect("no chunk after the last");
                // Each page's valid bytes, read where flash stores them.
                let mut left = c.valid_bytes as usize;
                for page in &pages {
                    let bytes = page.bytes();
                    let take = left.min(bytes.len());
                    p.feed(&bytes[..take])?;
                    left -= take;
                }
                let mut dw = p.take_work();
                if h.next == h.chunks.len() {
                    let (o, rest) = parser.take().expect("fed above").finish_with_work()?;
                    dw.merge(&rest);
                    *parsed = Some(o);
                }
                if h.memo.is_some() {
                    recorded.push(dw);
                }
                dw
            }
        };
        let os_cost = self.os.buffered_read(c.valid_bytes);
        let os_t = self.cpu.duration(os_cost.instructions, CodeClass::OsKernel);
        let parse_t = self.cpu.duration(
            self.params.host_cost.int_path_instructions(&dw)
                + self.params.host_cost.float_path_instructions(&dw),
            CodeClass::Deserialize,
        );
        let cpu = self
            .cpu_cores
            .acquire(io_done.max(h.cpu_ready), os_t + parse_t);
        h.cpu_ready = cpu.end;
        // The parse loop streams the text back out of DRAM.
        self.membus.account(c.valid_bytes);
        let submit = std::mem::replace(&mut h.submit, io_done);
        Ok(StepEvent::Read {
            bytes: c.valid_bytes,
            submit,
            io_done,
            cpu,
        })
    }

    /// Reads chunk `c` from the configured storage device into the host
    /// buffer at `buf_addr`, no earlier than `ready`: a view of each page
    /// it covers, and when its bytes are in host memory, or the drive or
    /// fabric error. The NVMe command is the caller's.
    pub(crate) fn conventional_io(
        &mut self,
        c: &ChunkIo,
        buf_addr: u64,
        ready: SimTime,
    ) -> Result<(Vec<PageRead>, SimTime), RunError> {
        match self.params.storage {
            StorageKind::NvmeSsd => {
                let (pages, t) = self.mssd.dev.read_range(c.slba, c.blocks, ready)?;
                let dma =
                    self.fabric
                        .dma(self.ssd_dev, DmaDir::Write, buf_addr, c.valid_bytes, t)?;
                let mb = self.membus.transfer(dma.start, c.valid_bytes);
                Ok((pages, dma.end.max(mb.end)))
            }
            StorageKind::RamDrive => {
                let pages = self.mssd.dev.read_range_untimed(c.slba, c.blocks)?;
                let mb = self.membus.transfer(ready, c.valid_bytes);
                Ok((pages, mb.end))
            }
            StorageKind::Hdd => {
                let pages = self.mssd.dev.read_range_untimed(c.slba, c.blocks)?;
                let seek = SimDuration::from_secs_f64(self.params.hdd_seek_ms / 1e3);
                let stream =
                    SimDuration::from_secs_f64(c.valid_bytes as f64 / (self.params.hdd_mbs * 1e6));
                let iv = self.hdd.acquire(ready, seek + stream);
                let mb = self.membus.transfer(iv.start, c.valid_bytes);
                Ok((pages, iv.end.max(mb.end)))
            }
        }
    }

    /// Reads chunk `c` into the host buffer at `buf_addr` with one READ,
    /// served no earlier than `ready`: a view of each page it covers, and
    /// when its bytes are in host memory. On an NVMe drive the READ
    /// crosses I/O queue 1 through the drive's command pump, which books
    /// no simulated time. The host-side KV scan reads this way.
    ///
    /// # Errors
    ///
    /// Fails on drive and fabric errors; a failed READ crosses no queue.
    pub fn read_chunk(
        &mut self,
        c: &ChunkIo,
        buf_addr: u64,
        ready: SimTime,
    ) -> Result<(Vec<PageRead>, SimTime), RunError> {
        let read = self.conventional_io(c, buf_addr, ready)?;
        if self.params.storage == StorageKind::NvmeSsd {
            let cmd = c.read_command(buf_addr);
            self.pump(IO_QUEUE_ID, &[(cmd, StatusCode::Success, 0)]);
        }
        Ok(read)
    }

    /// Allocates `n` bytes of object memory: host DRAM, or GPU memory
    /// behind the P2P window `bar`. Returns the bus address.
    pub(crate) fn alloc_output(&mut self, n: u64, bar: Option<BarWindow>) -> Result<u64, RunError> {
        match bar {
            Some(w) => {
                let buf = self.gpu.alloc(n).ok_or(RunError::OutOfGpuMemory)?;
                Ok(w.base + buf.offset)
            }
            None => self.dram.alloc(n).ok_or(RunError::OutOfHostMemory),
        }
    }

    /// The drive pushes `n` bytes of finished objects, ready at `at`, into
    /// fresh object memory ([`alloc_output`](System::alloc_output)); a
    /// host-DRAM landing also crosses the memory bus. Returns the DMA end.
    pub(crate) fn push_output(
        &mut self,
        n: u64,
        bar: Option<BarWindow>,
        at: SimTime,
    ) -> Result<SimTime, RunError> {
        let addr = self.alloc_output(n, bar)?;
        let dma = self.fabric.dma(self.ssd_dev, DmaDir::Write, addr, n, at)?;
        if bar.is_none() {
            self.membus.transfer(dma.start, n);
        }
        Ok(dma.end)
    }

    /// MINIT: installs `plan`'s instance, run by `memo`, issued to the
    /// drive at `issue`.
    fn open_instance(
        &mut self,
        plan: CommandPlan,
        memo: InstanceMemo,
        issue: SimTime,
    ) -> Result<DeviceTenant, RunError> {
        let ready = self.mssd.minit_with(plan.instance_id, memo, issue)?;
        Ok(DeviceTenant {
            plan,
            next: 0,
            ready,
            last_end: ready,
            output: Vec::new(),
            bar: None,
            memo_key: None,
            replayed: None,
        })
    }

    /// Runs the engine's next MREAD, issued to the drive at `issue`, pushes
    /// its output and takes the completion wakeup.
    fn step_mread(&mut self, t: &mut DeviceTenant, issue: SimTime) -> Result<StepEvent, RunError> {
        let c = t.plan.stream.chunks()[t.next];
        t.next += 1;
        let out = self
            .mssd
            .mread(t.plan.instance_id, c.slba, c.blocks, c.valid_bytes, issue)?;
        let wakeup = match out.output_len {
            0 => None,
            n => {
                let dma_end = self.push_output(n, t.bar, out.done)?;
                Some(self.command_wakeup(dma_end))
            }
        };
        t.last_end = t.last_end.max(wakeup.map_or(out.done, |iv| iv.end));
        // A replayed MREAD hands out no bytes: its length alone priced the
        // DMA and bus above.
        t.output.extend_from_slice(&out.output);
        Ok(StepEvent::Mread {
            bytes: c.valid_bytes,
            ready: t.ready,
            done: out.done,
            wakeup,
        })
    }

    /// Runs the engine's next MWRITE of `data` once the previous command
    /// completed: the host stages `data` over the memory bus, the drive
    /// DMAs it in, and the host takes the completion wakeup.
    fn step_mwrite(&mut self, t: &mut DeviceTenant, data: &[u8]) -> Result<Interval, RunError> {
        let Some(MorpheusCommand::Write { slba, dma_addr, .. }) = t.plan.transfer(t.next) else {
            unreachable!("an MREAD plan has no MWRITE");
        };
        t.next += 1;
        let n = data.len() as u64;
        self.membus.account(n);
        let dma = self
            .fabric
            .dma(self.ssd_dev, DmaDir::Read, dma_addr, n, t.last_end)?;
        let out = self.mssd.mwrite(t.plan.instance_id, slba, data, dma.end)?;
        let wakeup = self.command_wakeup(out.durable);
        t.last_end = wakeup.end;
        Ok(wakeup)
    }

    /// MDEINIT, issued to the drive at `issue`: pushes the app's final
    /// output and takes the completion wakeup.
    fn close_instance(
        &mut self,
        t: &mut DeviceTenant,
        issue: SimTime,
    ) -> Result<(DeinitOutcome, Interval), RunError> {
        let mut dein = self.mssd.mdeinit(t.plan.instance_id, issue)?;
        let end = match dein.host_output_len {
            0 => dein.done,
            n => self.push_output(n, t.bar, dein.done)?,
        };
        t.output.append(&mut dein.host_output);
        Ok((dein, self.command_wakeup(end)))
    }

    /// Runs `app` over `stream` as the runtime lowers a StorageApp call
    /// (§V-B), timed from a reset: a fresh instance, MINIT, one MREAD per
    /// chunk into host DRAM, MDEINIT, each command crossing I/O queue 1.
    ///
    /// # Errors
    ///
    /// Fails on firmware faults (the app's own included), drive and fabric
    /// errors, and host-memory exhaustion; no instance outlives a failure.
    pub fn run_storage_app(
        &mut self,
        app: Box<dyn StorageApp>,
        stream: MsStream,
    ) -> Result<AppRun, RunError> {
        self.reset_timing();
        let plan = CommandPlan::lower(stream, self.alloc_instance(), app.code_bytes());
        self.run_instance(plan, app, |_, _| {})
    }

    /// Runs `app` through `plan` from time zero, each command on queue 1 with
    /// a doorbell of its own; `payload` writes each MWRITE's bytes. No
    /// command passes a fault gate: these clients have no host fallback
    /// (`docs/FAULT_MODEL.md`). Any error after MINIT aborts the instance.
    pub(crate) fn run_instance(
        &mut self,
        plan: CommandPlan,
        app: Box<dyn StorageApp>,
        mut payload: impl FnMut(&ChunkIo, &mut Vec<u8>),
    ) -> Result<AppRun, RunError> {
        let (ok, iid) = (StatusCode::Success, plan.instance_id);
        let syscall = self.command_wakeup(SimTime::ZERO);
        let minit = plan.init().into_command(0, 1);
        let memo = InstanceMemo::Live { app, record: None };
        let mut t = self.open_instance(plan, memo, syscall.end)?;
        self.pump(IO_QUEUE_ID, &[(minit, ok, 0)]);
        let ready = t.ready;
        let mut steps = || {
            let (mut cpu_busy, mut data) = (syscall.duration(), Vec::new());
            while let Some(cmd) = t.plan.transfer(t.next) {
                cpu_busy += match cmd {
                    MorpheusCommand::Write { .. } => {
                        data.clear();
                        payload(&t.plan.stream.chunks()[t.next], &mut data);
                        self.step_mwrite(&mut t, &data)?.duration()
                    }
                    _ => self.step_mread(&mut t, ready)?.host_cpu(),
                };
                self.pump(IO_QUEUE_ID, &[(cmd.into_command(0, 1), ok, 0)]);
            }
            let issue = t.last_end;
            let (dein, wakeup) = self.close_instance(&mut t, issue)?;
            let mdeinit = t.plan.deinit().into_command(0, 1);
            self.pump(IO_QUEUE_ID, &[(mdeinit, ok, dein.retval as u32)]);
            Ok(AppRun {
                output: std::mem::take(&mut t.output),
                end: wakeup.end,
                cpu_busy: cpu_busy + wakeup.duration(),
                flushed: dein.flushed_to_flash,
            })
        };
        let out = steps();
        if out.is_err() {
            self.mssd.abort_instance(iid);
        }
        out
    }

    /// Builds the device engine for `spec`'s file: runs MINIT of `plan`'s
    /// instance, issued to the drive at `issue`, delivering to the P2P
    /// window `bar` (host DRAM when `None`). A replay installs its
    /// recording, which it does only when `may_replay`; only a live
    /// lifecycle builds `spec`'s StorageApp.
    pub(crate) fn device_tenant(
        &mut self,
        spec: &AppSpec,
        plan: CommandPlan,
        bar: Option<BarWindow>,
        issue: SimTime,
        may_replay: bool,
    ) -> Result<DeviceTenant, RunError> {
        let memo_key = self.device_memo_key(spec, plan.stream.chunks());
        let rec = memo_key
            .filter(|_| may_replay)
            .and_then(|key| self.replay.as_ref()?.device_get(key));
        let replayed = rec.as_ref().map(|r| r.digest);
        let memo = match rec {
            Some(rec) => {
                debug_assert_eq!(rec.code_bytes, plan.code_len(), "MINIT's code size");
                InstanceMemo::Play { rec, next: 0 }
            }
            None => {
                let app = spec.storage_app();
                debug_assert_eq!(app.code_bytes(), plan.code_len(), "MINIT's code size");
                let record = memo_key.map(|_| Vec::new());
                InstanceMemo::Live { app, record }
            }
        };
        let t = self.open_instance(plan, memo, issue)?;
        Ok(DeviceTenant {
            bar,
            memo_key,
            replayed,
            ..t
        })
    }

    /// The objects of the engine's lifecycle, closed by `dein`: a live one
    /// decodes its object stream against `schema` and drops the stream,
    /// and a recording one is published to the memo with its digest. A
    /// replay takes the recorded digest and has no columns.
    fn device_objects(
        &mut self,
        t: &mut DeviceTenant,
        schema: &Schema,
        dein: DeinitOutcome,
    ) -> Result<(ObjectDigest, Option<ParsedColumns>), RunError> {
        let (digest, objects) = match t.replayed {
            Some(d) => (d, None),
            None => {
                let o = ParsedColumns::decode(schema.clone(), &std::mem::take(&mut t.output))?;
                (o.digest(), Some(o))
            }
        };
        if let (Some(key), Some(rec), Some(store)) = (t.memo_key, dein.recording, &self.replay) {
            // Route conservation: a replay pushes the recorded output lengths
            // (every MREAD's and the MDEINIT tail) off the drive.
            let pushed = rec.cmds.iter().map(|c| c.output_len).sum::<u64>() + dein.host_output_len;
            debug_assert_eq!(pushed, digest.bytes, "object bytes lost on the route");
            store.device_put(
                key,
                Arc::new(DeviceReplay {
                    code_bytes: t.plan.code_len(),
                    cmds: rec.cmds,
                    finish_instr: rec.finish_instr,
                    retval: dein.retval,
                    host_output_len: dein.host_output_len,
                    digest,
                }),
            );
        }
        debug_assert_eq!(
            dein.retval, digest.records as i32,
            "MDEINIT returns the record count"
        );
        Ok((digest, objects))
    }

    /// Opens a request for `spec`'s file on `target`, dispatched at
    /// `start`. A host request builds its engine now; a device request
    /// lowers its plan now, and its first step is its MINIT. Either engine
    /// replays a recording only when `may_replay`.
    pub(crate) fn open_request<'a>(
        &mut self,
        spec: &'a AppSpec,
        target: Target,
        start: SimTime,
        may_replay: bool,
    ) -> Result<InFlight<'a>, RunError> {
        let engine = match target {
            Target::Host => Engine::Host(self.conventional_tenant(spec, start, may_replay)?),
            Target::Device(iid, bar) => {
                let stream = ms_stream_create(&self.fs, &spec.input, self.params.mread_chunk_bytes)
                    .map_err(|_| RunError::UnknownFile(spec.input.clone()))?;
                let plan = CommandPlan::lower(stream, iid, DeserializeApp::CODE_BYTES);
                Engine::Minit { plan, bar, start }
            }
        };
        Ok(InFlight {
            spec,
            engine,
            may_replay,
            cpu_busy: SimDuration::ZERO,
        })
    }

    /// Runs the next command of a request that is not
    /// [`done`](InFlight::done): its fault gate at submission, the engine
    /// step and its wire command, and books the host CPU time it took.
    /// Every device error ends the attempt in
    /// [`fall_back`](System::fall_back), so none leaves an instance or its
    /// controller DRAM behind: a spent reissue budget, a crashed core or
    /// uncorrectable media moves the request onto the host engine, and any
    /// other error fails it.
    pub(crate) fn step_request(&mut self, req: &mut InFlight<'_>) -> Result<Step, RunError> {
        let step = match &mut req.engine {
            Engine::Host(h) => self.step_read(h)?,
            Engine::Minit { .. } | Engine::Device(_) => match self.step_morpheus(req) {
                Ok(step) => step,
                Err(abort) => self.fall_back(req, abort)?,
            },
            Engine::Ended(..) => unreachable!("a done request has no step"),
        };
        req.cpu_busy += step.1.host_cpu();
        Ok(step)
    }

    /// A host request's next READ, gated at its own submission (QD-1:
    /// when the previous one's data landed) and served no earlier than the
    /// request's dispatch.
    fn step_read(&mut self, h: &mut HostTenant) -> Result<Step, RunError> {
        let (_, read) = h.next_read().expect("a READ is left");
        let nvme = self.params.storage == StorageKind::NvmeSsd;
        let floor = match nvme {
            true => match self.issue_with_timeouts(h.submit, h.start) {
                Ok(floor) => floor,
                Err((at, attempts)) => return Ok((None, StepEvent::Lost { at, attempts })),
            },
            false => h.start,
        };
        let ev = self.step_host(h, floor)?;
        Ok((nvme.then_some((read, StatusCode::Success, 0)), ev))
    }

    /// A device request's next command: MINIT, each MREAD, then MDEINIT.
    /// MINIT is gated after the syscall that issues it, each MREAD from
    /// the instance-ready time (they are all queued once the instance is
    /// up), and MDEINIT once the last objects are delivered.
    fn step_morpheus(&mut self, req: &mut InFlight<'_>) -> Result<Step, MorpheusAbort> {
        let ok = StatusCode::Success;
        let t = match &mut req.engine {
            Engine::Minit { plan, bar, start } => {
                let syscall = self.command_wakeup(*start);
                let issue = self.fault_gate("MINIT", syscall.end)?;
                let cmd = plan.init().into_command(0, 1);
                let plan = plan.take();
                let t = self.device_tenant(req.spec, plan, *bar, issue, req.may_replay)?;
                let ready = t.ready;
                req.engine = Engine::Device(t);
                return Ok((Some((cmd, ok, 0)), StepEvent::Minit { syscall, ready }));
            }
            Engine::Device(t) => t,
            Engine::Host(_) | Engine::Ended(..) => unreachable!("not on the device engine"),
        };
        if let Some(mread) = t.plan.transfer(t.next) {
            let issue = self.fault_gate("MREAD", t.ready)?;
            let ev = self
                .step_mread(t, issue)
                .map_err(|e| Self::media_or_fatal(e, issue))?;
            return Ok((Some((mread.into_command(0, 1), ok, 0)), ev));
        }
        let last_end = t.last_end;
        let issue = self.fault_gate("MDEINIT", last_end)?;
        let (dein, wakeup) = self
            .close_instance(t, issue)
            .map_err(|e| Self::media_or_fatal(e, issue))?;
        let (done, retval) = (dein.done, dein.retval);
        let (digest, objects) = self.device_objects(t, &req.spec.schema, dein)?;
        let cmd = (t.plan.deinit().into_command(0, 1), ok, retval as u32);
        let ev = StepEvent::Mdeinit {
            issue: last_end,
            done,
            wakeup,
        };
        req.engine = Engine::Ended(wakeup.end, digest, objects);
        Ok((Some(cmd), ev))
    }

    /// The one fallback: ends a device attempt that `abort`ed. It reaps
    /// the instance, then fails the request, or counts the fallback and
    /// its cause and moves the request onto the host engine from the
    /// detection time. The failed command posts no completion of its own:
    /// its status rides the reap, the plan's MDEINIT (lowered when the
    /// request opened, so even a MINIT that never ran has one).
    fn fall_back(
        &mut self,
        req: &mut InFlight<'_>,
        abort: MorpheusAbort,
    ) -> Result<Step, RunError> {
        let plan = match &req.engine {
            Engine::Minit { plan, .. } => plan,
            Engine::Device(t) => &t.plan,
            Engine::Host(_) | Engine::Ended(..) => unreachable!("not on the device engine"),
        };
        let (iid, reap) = (plan.instance_id, plan.deinit().into_command(0, 1));
        self.mssd.abort_instance(iid);
        let (at, status, cause) = match abort {
            MorpheusAbort::Fatal(e) => return Err(e),
            MorpheusAbort::Fallback { at, status, cause } => (at, status, cause),
        };
        if let Some(fi) = self.faults.as_mut() {
            fi.counters.host_fallbacks += 1;
            fi.fallback_cause = Some(cause);
        }
        req.engine = Engine::Host(self.conventional_tenant(req.spec, at, req.may_replay)?);
        // A request's CPU time is its delivering engine's.
        req.cpu_busy = SimDuration::ZERO;
        Ok((Some((reap, status, 0)), StepEvent::Fallback { at }))
    }

    /// Runs the deserialization phase of several tenants concurrently.
    ///
    /// Commands are issued round-robin across tenants, so host cores, the
    /// memory bus, flash channels, embedded cores, and PCIe links all
    /// contend exactly as the shared timelines dictate. Only
    /// [`Mode::Conventional`] and [`Mode::Morpheus`] tenants are supported
    /// (P2P is a single-accelerator concept). Faults are injected and
    /// absorbed as in a solo run.
    ///
    /// # Errors
    ///
    /// Fails on an empty tenant list ([`RunError::NoTenants`]), unknown
    /// files, parse failures, firmware faults, a host read that spent its
    /// reissue budget, or an unsupported mode.
    pub fn run_deserialize_many(
        &mut self,
        tenants: &[(AppSpec, Mode)],
    ) -> Result<ConcurrentReport, RunError> {
        if tenants.is_empty() {
            return Err(RunError::NoTenants);
        }
        self.reset_timing();
        assert!(
            self.params.storage == StorageKind::NvmeSsd,
            "concurrent runs model the NVMe path"
        );
        let first_iid = self.next_instance;
        let out = self.deserialize_many(tenants);
        if out.is_err() {
            // A failed run aborts every instance it opened (finished ones
            // are gone already), so none outlives it with its DRAM.
            for iid in first_iid..self.next_instance {
                self.mssd.abort_instance(iid);
            }
        }
        out
    }

    /// The body of [`run_deserialize_many`](System::run_deserialize_many).
    fn deserialize_many(
        &mut self,
        tenants: &[(AppSpec, Mode)],
    ) -> Result<ConcurrentReport, RunError> {
        let mut reqs = Vec::with_capacity(tenants.len());
        for (spec, mode) in tenants {
            let target = match mode {
                Mode::Conventional => Target::Host,
                Mode::Morpheus => Target::Device(self.alloc_instance(), None),
                Mode::MorpheusP2P => return Err(RunError::NotGpuApp(spec.name.clone())),
            };
            reqs.push(self.open_request(spec, target, SimTime::ZERO, true)?);
        }
        // Reads go round-robin until every tenant has drained its file;
        // then each tenant's MDEINIT (or a late fallback's reads), in order.
        while reqs.iter().any(InFlight::reading) {
            for r in reqs.iter_mut().filter(|r| r.reading()) {
                self.step_on_queue1(r)?;
            }
        }
        let mut reports = Vec::with_capacity(reqs.len());
        let mut makespan = SimTime::ZERO;
        for ((spec, mode), mut r) in tenants.iter().zip(reqs) {
            while !r.done() {
                self.step_on_queue1(&mut r)?;
            }
            let Delivered { end, digest, .. } = r.finish()?;
            makespan = makespan.max(end);
            reports.push(TenantReport {
                app: spec.name.clone(),
                mode: *mode,
                deser_s: end.as_secs_f64(),
                records: digest.records,
                checksum: digest.checksum,
                object_bytes: digest.bytes,
            });
        }
        let makespan_s = makespan.as_secs_f64();
        let total_obj: u64 = reports.iter().map(|r| r.object_bytes).sum();
        Ok(ConcurrentReport {
            aggregate_mbs: mb_per_sec(total_obj, makespan_s),
            tenants: reports,
            makespan_s,
            context_switches: self.os.accounting().context_switches,
            faults: self.collect_fault_counters(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppSpec, SystemParams};
    use morpheus_format::{FieldKind, Schema, TextWriter};
    use proptest::prelude::*;

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    fn edge_text(n: u32, salt: u64) -> Vec<u8> {
        let mut w = TextWriter::new();
        for i in 0..n as u64 {
            w.write_u64((i * 7 + salt) % 100_000);
            w.sep();
            w.write_u64((i * 13 + salt) % 100_000);
            w.newline();
        }
        w.into_bytes()
    }

    fn system_with_tenants(n: usize) -> (System, Vec<AppSpec>) {
        let mut sys = System::new(SystemParams::paper_testbed());
        let mut specs = Vec::new();
        for i in 0..n {
            let name = format!("tenant{i}");
            let file = format!("{name}.txt");
            sys.create_input_file(&file, &edge_text(60_000, i as u64))
                .unwrap();
            specs.push(AppSpec::cpu_app(&name, &file, edge_schema(), 1, 50.0));
        }
        (sys, specs)
    }

    #[test]
    fn concurrent_tenants_match_solo_checksums() {
        let (mut sys, specs) = system_with_tenants(3);
        let solo: Vec<u64> = specs
            .iter()
            .map(|s| sys.run(s, Mode::Morpheus).unwrap().report.checksum)
            .collect();
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        for (t, want) in rep.tenants.iter().zip(&solo) {
            assert_eq!(t.checksum, *want, "{}", t.app);
        }
    }

    #[test]
    fn morpheus_tenants_scale_with_embedded_cores() {
        let (mut sys, specs) = system_with_tenants(4);
        // Solo time of one Morpheus tenant.
        let solo = sys
            .run(&specs[0], Mode::Morpheus)
            .unwrap()
            .report
            .phases
            .deserialization_s;
        // Four tenants on four embedded cores: makespan must be far below
        // 4x solo (they parse in parallel inside the drive).
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        assert!(
            rep.makespan_s < 4.0 * solo * 0.6,
            "4 tenants took {:.4}s, solo {:.4}s — no overlap?",
            rep.makespan_s,
            solo
        );
    }

    #[test]
    fn morpheus_beats_conventional_under_multitenancy() {
        // More tenants than host cores: the conventional path serializes on
        // the CPU while Morpheus tenants spread over the drive's cores AND
        // leave the host idle.
        let (mut sys, specs) = system_with_tenants(4);
        let conv: Vec<(AppSpec, Mode)> = specs
            .iter()
            .map(|s| (s.clone(), Mode::Conventional))
            .collect();
        let morp: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let conv_rep = sys.run_deserialize_many(&conv).unwrap();
        let morp_rep = sys.run_deserialize_many(&morp).unwrap();
        assert!(morp_rep.aggregate_mbs > conv_rep.aggregate_mbs);
        assert!(morp_rep.context_switches < conv_rep.context_switches / 3);
        // Results identical either way.
        for (a, b) in conv_rep.tenants.iter().zip(&morp_rep.tenants) {
            assert_eq!(a.checksum, b.checksum);
        }
    }

    #[test]
    fn p2p_tenants_rejected() {
        let (mut sys, specs) = system_with_tenants(1);
        let tenants = vec![(specs[0].clone(), Mode::MorpheusP2P)];
        assert!(matches!(
            sys.run_deserialize_many(&tenants),
            Err(RunError::NotGpuApp(_))
        ));
    }

    #[test]
    fn a_run_that_keeps_columns_replays_only_with_the_object_image() {
        let mut sys = System::new(SystemParams::paper_testbed());
        sys.create_input_file("up.txt", &edge_text(20_000, 0x5eed_00a1))
            .unwrap();
        let spec = AppSpec::cpu_app("up", "up.txt", edge_schema(), 1, 50.0);
        // Whether each engine, opened with or without leave to replay,
        // replays.
        let replays = |sys: &mut System, may_replay| {
            let h = sys
                .conventional_tenant(&spec, SimTime::ZERO, may_replay)
                .unwrap();
            let iid = sys.alloc_instance();
            let target = Target::Device(iid, None);
            let mut req = sys
                .open_request(&spec, target, SimTime::ZERO, may_replay)
                .unwrap();
            sys.step_request(&mut req).unwrap();
            let Engine::Device(t) = &req.engine else {
                panic!("MINIT opened the device engine");
            };
            let replayed = t.replayed.is_some();
            sys.mssd.abort_instance(iid);
            (matches!(h.source, ParseSource::Replay(_)), replayed)
        };
        // Whether `System::run`, the caller that keeps the columns, holds
        // their object image: it lets its engine replay only then.
        let imaged = |sys: &mut System| sys.image_slot(&spec).expect("memo on").found();
        // Serving records counts and digests, no image: it replays for
        // serving, but a caller that needs the columns back runs live.
        for mode in [Mode::Conventional, Mode::Morpheus] {
            let mut cfg = crate::ServeConfig::new(1000.0, 0.01);
            cfg.mode = mode;
            let rep = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap();
            assert!(rep.completed > 0);
        }
        assert_eq!(replays(&mut sys, true), (true, true));
        assert!(!imaged(&mut sys));
        assert_eq!(replays(&mut sys, false), (false, false));
        // That live run publishes the image, so both engines then replay
        // for every caller and hand back the same columns.
        let live = sys.run(&spec, Mode::Morpheus).unwrap();
        assert!(imaged(&mut sys));
        assert_eq!(replays(&mut sys, true), (true, true));
        for mode in [Mode::Morpheus, Mode::Conventional] {
            assert_eq!(sys.run(&spec, mode).unwrap().objects, live.objects);
        }
    }

    #[test]
    fn a_device_lifecycle_publishes_its_recording_with_its_digest() {
        let mut sys = System::new(SystemParams::paper_testbed());
        sys.create_input_file("pub.txt", &edge_text(20_000, 0x5eed_00b2))
            .unwrap();
        let spec = AppSpec::cpu_app("pub", "pub.txt", edge_schema(), 1, 50.0);
        let meta = sys.fs.open("pub.txt").unwrap().clone();
        let chunks = System::file_chunks(&meta, sys.params.mread_chunk_bytes);
        let key = sys.device_memo_key(&spec, &chunks).expect("memo on");
        // The first run records the lifecycle and publishes it with the
        // digest of the objects it returned.
        let first = sys.run(&spec, Mode::Morpheus).unwrap();
        let store = sys.replay_store().unwrap().clone();
        let rec = store.device_get(key).expect("published at MDEINIT");
        assert_eq!(rec.digest, first.objects.digest());
        // Serving and a second run replay that recording: neither
        // publishes another.
        let mut cfg = crate::ServeConfig::new(1000.0, 0.01);
        cfg.mode = Mode::Morpheus;
        let rep = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap();
        assert!(rep.completed > 0);
        let after_serve = store.device_get(key).unwrap();
        assert!(Arc::ptr_eq(&rec, &after_serve));
        let second = sys.run(&spec, Mode::Morpheus).unwrap();
        assert!(Arc::ptr_eq(&rec, &store.device_get(key).unwrap()));
        assert_eq!(second.objects, first.objects);
        assert_eq!(
            format!("{:?}", second.report),
            format!("{:?}", first.report)
        );
    }

    #[test]
    fn a_failed_multi_tenant_run_leaves_no_instance_live() {
        // The third tenant's last record is malformed: its MREAD fails
        // while the first two tenants' instances are still open.
        let (mut sys, mut specs) = system_with_tenants(2);
        let mut bad = edge_text(2_000, 3);
        bad.extend_from_slice(b"1 x\n");
        sys.create_input_file("bad.txt", &bad).unwrap();
        specs.push(AppSpec::cpu_app("bad", "bad.txt", edge_schema(), 1, 50.0));
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let err = sys.run_deserialize_many(&tenants).unwrap_err();
        assert!(matches!(err, RunError::Morpheus(_)), "{err:?}");
        assert_eq!(sys.mssd.live_instances(), 0);
        assert_eq!(sys.mssd.dev.dram_used(), 0, "staging areas returned");
        // Serving on the same drive starts from a clean controller.
        let mut cfg = crate::ServeConfig::new(1000.0, 0.01);
        cfg.mode = Mode::Morpheus;
        assert!(sys.serve(&specs[..2], &cfg).unwrap().completed > 0);
    }

    #[test]
    fn a_certain_crash_falls_back_on_every_tenant() {
        let (mut sys, specs) = system_with_tenants(3);
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let clean = sys.run_deserialize_many(&tenants).unwrap();
        sys.set_fault_plan(morpheus_simcore::FaultPlan::parse("seed=1,crash=1").unwrap());
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        assert_eq!(rep.faults.core_crashes, 3, "every MINIT crashed");
        assert_eq!(rep.faults.host_fallbacks, 3);
        for (t, want) in rep.tenants.iter().zip(&clean.tenants) {
            assert_eq!(
                (t.records, t.checksum),
                (want.records, want.checksum),
                "{}",
                t.app
            );
            assert!(t.deser_s > want.deser_s, "{} parsed on the host", t.app);
        }
        assert_eq!(sys.mssd.live_instances(), 0);
        assert_eq!(sys.mssd.dev.dram_used(), 0);
    }

    #[test]
    fn a_failed_object_push_leaves_no_instance_live() {
        // Object memory far smaller than one MREAD's objects: the push
        // fails after its MREAD ran, into host DRAM or into GPU memory.
        let mut params = SystemParams::paper_testbed();
        params.host_dram_bytes = 4 << 10;
        params.gpu.memory_bytes = 4 << 10;
        let mut sys = System::new(params);
        sys.create_input_file("push.txt", &edge_text(20_000, 0x5eed_00c3))
            .unwrap();
        let spec = AppSpec::gpu_app("push", "push.txt", edge_schema(), 40.0, 16.0, 20.0);
        let apps = std::slice::from_ref(&spec);
        for mode in [Mode::Morpheus, Mode::MorpheusP2P] {
            let exhausted = |e: &RunError| match mode {
                Mode::MorpheusP2P => matches!(e, RunError::OutOfGpuMemory),
                _ => matches!(e, RunError::OutOfHostMemory),
            };
            let err = sys.run(&spec, mode).unwrap_err();
            assert!(exhausted(&err), "{mode} run: {err:?}");
            assert_eq!(sys.mssd.live_instances(), 0, "{mode} run");
            assert_eq!(sys.mssd.dev.dram_used(), 0, "{mode} run");
            let mut cfg = crate::ServeConfig::new(1000.0, 0.01);
            cfg.mode = mode;
            let err = sys.serve(apps, &cfg).unwrap_err();
            assert!(exhausted(&err), "{mode} serve: {err:?}");
            assert_eq!(sys.mssd.live_instances(), 0, "{mode} serve");
            assert_eq!(sys.mssd.dev.dram_used(), 0, "{mode} serve");
        }
    }

    /// `u32 u64` records; without `terminated` the last one has no
    /// newline, so its final token ends the stream.
    fn pair_text(rows: &[(u32, u64)], terminated: bool) -> Vec<u8> {
        let mut w = TextWriter::new();
        for &(a, b) in rows {
            w.write_u64(u64::from(a));
            w.sep();
            w.write_u64(b);
            w.newline();
        }
        let mut text = w.into_bytes();
        if !terminated {
            text.pop();
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Both engines price every token, the final one too when no
        /// newline ends the stream: the host engine's per-chunk work and
        /// a `DeserializeApp`'s charges each sum to `parse_buffer`'s.
        #[test]
        fn both_engines_price_the_final_token(
            rows in proptest::collection::vec((any::<u32>(), 0u64..1_000_000_000_000), 1..400),
            terminated in any::<bool>(),
            host_blocks in 1u64..16,
            app_chunk in 1usize..4096,
        ) {
            let text = pair_text(&rows, terminated);
            let schema = Schema::new(vec![FieldKind::U32, FieldKind::U64]);
            let (_, want) = morpheus_format::parse_buffer(&text, &schema).unwrap();

            // The host engine over `host_blocks`-LBA chunks; its memo
            // recording holds the work each step priced.
            let mut params = SystemParams::paper_testbed();
            params.conventional_chunk_bytes = host_blocks * 512;
            let mut sys = System::new(params);
            sys.create_input_file("tail.txt", &text).unwrap();
            let spec = AppSpec::cpu_app("tail", "tail.txt", schema.clone(), 1, 50.0);
            let mut h = sys.conventional_tenant(&spec, SimTime::ZERO, true).unwrap();
            let chunks = h.chunks.clone();
            while h.next_read().is_some() {
                sys.step_host(&mut h, SimTime::ZERO).unwrap();
            }
            h.finish().unwrap();
            let key = sys.host_memo_key(&spec, &chunks).expect("memo on");
            let rec = sys.replay_store().unwrap().host_get(key).expect("recorded");
            let mut host = ParseWork::default();
            rec.per_chunk.iter().for_each(|w| host.merge(w));
            prop_assert_eq!(host, want);

            // A StorageApp fed `app_chunk`-byte pieces, then finished.
            let mut app = crate::DeserializeApp::new("tail", schema);
            let mut ctx = crate::DeviceCtx::new(256 * 1024);
            let mut device = ParseWork::default();
            for piece in text.chunks(app_chunk) {
                crate::StorageApp::on_chunk(&mut app, &mut ctx, piece).unwrap();
                device.merge(&ctx.take_work());
            }
            crate::StorageApp::on_finish(&mut app, &mut ctx).unwrap();
            device.merge(&ctx.take_work());
            prop_assert_eq!(device, want);
        }
    }

    #[test]
    fn empty_tenant_list_is_an_error() {
        let (mut sys, _) = system_with_tenants(0);
        assert!(matches!(
            sys.run_deserialize_many(&[]),
            Err(RunError::NoTenants)
        ));
    }
}
