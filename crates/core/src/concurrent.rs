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
//! A tenant is one of two engines, and each is the only engine of its
//! kind: [`HostTenant`] (Fig. 1's `read()`+parse loop) and
//! [`DeviceTenant`] (one StorageApp lifecycle, MINIT → MREAD* → MDEINIT).
//! Three callers step them: the round-robin loop here, `System::run`
//! (`exec.rs`, a tenant of one, with its fallback onto the host engine)
//! and the open-loop serving layer (`serve.rs`, one request at a time).
//! Each caller keeps its own framing around the steps — fault gates, NVMe
//! wire commands, trace spans — because the framings differ: solo runs and
//! serving gate the same commands at different floors
//! (`docs/FAULT_MODEL.md`).
//!
//! Each engine owns its table of the system's replay store (see
//! `deser_memo`): building it looks a recording up, and finishing it
//! publishes a new one. The host engine replays parse work itself; the
//! device engine hands the firmware an `InstanceMemo` that says where each
//! MREAD's costs and output come from.

use crate::deser_memo::{HostReplay, MemoKey, ReplayStore};
use crate::exec::{AppSpec, InputFormat, RunError};
use crate::firmware::{DeviceReplay, InstanceMemo};
use crate::report::{mb_per_sec, Mode};
use crate::system::ChunkIo;
use crate::{ms_stream_create, CommandPlan, StorageKind, System};
use morpheus_format::{
    BinaryStreamParser, ObjectDigest, ParseError, ParseWork, ParsedColumns, Schema, StreamingParser,
};
use morpheus_host::CodeClass;
use morpheus_nvme::{MorpheusCommand, NvmeCommand};
use morpheus_pcie::{BarWindow, DmaDir};
use morpheus_simcore::{Interval, SimDuration, SimTime};
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
}

/// Host-side parser dispatch over the input encoding.
enum HostParser {
    Text(StreamingParser),
    Binary(BinaryStreamParser),
}

impl HostParser {
    fn new(schema: &Schema, format: InputFormat) -> HostParser {
        match format {
            InputFormat::Text => HostParser::Text(StreamingParser::new(schema.clone())),
            InputFormat::Binary(e) => {
                HostParser::Binary(BinaryStreamParser::new(schema.clone(), e))
            }
        }
    }

    fn feed(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        match self {
            HostParser::Text(p) => p.feed(chunk),
            HostParser::Binary(p) => p.feed(chunk),
        }
    }

    fn work(&self) -> ParseWork {
        match self {
            HostParser::Text(p) => p.work(),
            HostParser::Binary(p) => p.work(),
        }
    }

    /// Ends the stream: the columns, and the total work including the
    /// final unterminated token's.
    fn finish(self) -> Result<(ParsedColumns, ParseWork), ParseError> {
        match self {
            HostParser::Text(p) => p.finish_with_work(),
            HostParser::Binary(p) => {
                let work = p.work();
                Ok((p.finish()?, work))
            }
        }
    }
}

/// Where the host engine's per-chunk parse work comes from.
enum ParseSource {
    /// The parser runs; each chunk's work delta is recorded when the
    /// engine has a memo key. The last chunk's step ends the stream, so
    /// its delta includes the final unterminated token's work.
    Live {
        /// Taken by the last chunk's step, which parks the columns in
        /// `parsed`.
        parser: Option<Box<HostParser>>,
        parsed: Option<ParsedColumns>,
        last_work: ParseWork,
        recorded: Vec<ParseWork>,
    },
    /// A recording of this exact content and chunking.
    Replay(Arc<HostReplay>),
}

/// The host deserialization engine: Fig. 1's `read()`+parse loop over one
/// file, stepped a chunk at a time with [`System::step_host`] and closed
/// with [`HostTenant::finish`]. Each caller keeps only its own framing —
/// fault rolls, wire commands, spans — around the steps.
///
/// Record/replay of the parse work (see `deser_memo`): storage I/O, OS
/// costs and CPU-core grants always run live against the caller's
/// timelines; only the parser itself is skipped when a recording for this
/// exact content and chunking exists. The recorded values (per-chunk work
/// deltas, the object digest, and for [`System::run`] the columns) are
/// pure functions of the key, so replayed runs are byte-identical to live
/// ones.
pub(crate) struct HostTenant {
    chunks: Vec<ChunkIo>,
    next: usize,
    /// Buffer X of Fig. 1(b): the raw-text landing buffer.
    buf_addr: u64,
    /// The dispatch instant (the read floor of round-robin tenants).
    start: SimTime,
    cpu_ready: SimTime,
    source: ParseSource,
    /// Where a live parse publishes its recording.
    memo: Option<(MemoKey, Arc<ReplayStore>)>,
    /// The caller wants the columns back, not only their digest.
    keep_columns: bool,
}

/// One host chunk's timing.
pub(crate) struct HostChunk {
    /// When the chunk's bytes had landed in the host buffer.
    pub io_done: SimTime,
    /// The host-core grant that ran the `read()` return and the parse.
    pub cpu: Interval,
}

impl HostTenant {
    /// The chunk the next [`System::step_host`] reads, if any is left,
    /// and the NVMe READ that lands it in the engine's buffer.
    pub(crate) fn next_read(&self) -> Option<(ChunkIo, NvmeCommand)> {
        let c = *self.chunks.get(self.next)?;
        Some((c, NvmeCommand::read(0, 1, c.slba, c.blocks, self.buf_addr)))
    }

    /// Bytes of the input file.
    pub(crate) fn text_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.valid_bytes).sum()
    }

    /// Completes the parse. Returns when the last chunk's parse ended, the
    /// objects' digest, and the columns when the engine was built to keep
    /// them. A live parse publishes its recording to the memo.
    pub(crate) fn finish(self) -> Result<(SimTime, ObjectDigest, Option<ParsedColumns>), RunError> {
        let (parser, parsed, recorded) = match self.source {
            ParseSource::Live {
                parser,
                parsed,
                recorded,
                ..
            } => (parser, parsed, recorded),
            ParseSource::Replay(r) => {
                let objects = if self.keep_columns {
                    r.objects.clone()
                } else {
                    None
                };
                return Ok((self.cpu_ready, r.digest, objects));
            }
        };
        // A file of no chunks was never stepped: its parse ends here.
        let mut o = match parsed {
            Some(o) => o,
            None => parser.expect("finished at its last chunk").finish()?.0,
        };
        o.canonicalize();
        let digest = o.digest();
        let objects = self.keep_columns.then_some(o);
        if let Some((key, store)) = self.memo {
            store.host_put(
                key,
                Arc::new(HostReplay {
                    per_chunk: recorded,
                    digest,
                    objects: objects.clone(),
                }),
            );
        }
        Ok((self.cpu_ready, digest, objects))
    }
}

/// The device deserialization engine: one StorageApp lifecycle of §IV-A
/// (MINIT, one MREAD per chunk, MDEINIT) over one file, opened with
/// [`System::device_tenant`], stepped an MREAD at a time with
/// [`System::step_device`] and closed with [`System::finish_device`]. The
/// mirror of [`HostTenant`]: each caller keeps only its own framing —
/// fault gates, wire commands, spans — around the steps. The lifecycle is
/// the runtime's [`CommandPlan`]: the engine runs the plan's chunks, and
/// callers submit the plan's commands.
///
/// The engine owns the device memo (see `deser_memo`). At MINIT it hands
/// the firmware the instance's `InstanceMemo`: replay an identical
/// lifecycle's recording, or record this one. At MDEINIT it publishes a
/// recording together with its objects' digest. A replay's digest stands
/// in for the objects, so the object stream is neither assembled nor
/// decoded, unless the caller keeps the columns. Every timed step (flash,
/// cores, DMA, bus) runs live either way.
pub(crate) struct DeviceTenant {
    /// Schema the assembled object stream decodes against.
    schema: Schema,
    /// The lowered lifecycle: the stream's chunks and its commands.
    pub(crate) plan: CommandPlan,
    /// Index of the next MREAD.
    next: usize,
    /// When MINIT finished: the instance is ready for MREADs.
    pub(crate) ready: SimTime,
    /// When the last step's objects were delivered (staged, for a step
    /// that returned none).
    pub(crate) last_end: SimTime,
    obj_bin: Vec<u8>,
    /// Object bytes pushed off the drive so far.
    pushed: u64,
    /// P2P delivery window; `None` delivers objects to host DRAM.
    bar: Option<BarWindow>,
    /// Device memo key (fault-free runs only), under which a recording
    /// lifecycle is published.
    memo_key: Option<MemoKey>,
    /// The object digest of the replayed recording, unless the caller
    /// keeps the columns.
    prefab: Option<ObjectDigest>,
}

/// One MREAD's timing.
pub(crate) struct DeviceChunk {
    /// When the MREAD's objects were staged for DMA.
    pub done: SimTime,
    /// The completion wakeup, when the MREAD returned objects.
    pub wakeup: Option<Interval>,
}

/// How a device lifecycle ended.
pub(crate) struct DeviceEnd {
    /// When MDEINIT finished on the drive.
    pub done: SimTime,
    /// The completion wakeup that reaped MDEINIT.
    pub wakeup: Interval,
    /// The StorageApp's return value.
    pub retval: i32,
    /// The objects' digest.
    pub digest: ObjectDigest,
    /// The columns, when the lifecycle decoded its object stream (always,
    /// for an engine built to keep them).
    pub objects: Option<ParsedColumns>,
}

impl DeviceTenant {
    /// The next MREAD [`System::step_device`] runs, if any is left: its
    /// chunk and its command.
    pub(crate) fn next_read(&self) -> Option<(ChunkIo, MorpheusCommand)> {
        let c = *self.plan.stream.chunks().get(self.next)?;
        Some((c, self.plan.read(self.next)))
    }
}

/// Per-tenant progress state of [`System::run_deserialize_many`]: one
/// engine per tenant.
enum TenantState {
    Conventional(HostTenant),
    Morpheus(DeviceTenant),
}

impl System {
    /// Builds the host engine for `spec`'s file: CPU work starts no
    /// earlier than `start`. With `keep_columns` the engine hands the
    /// columns back from [`HostTenant::finish`]; a memo entry recorded
    /// without them is then parsed live and re-recorded with them.
    pub(crate) fn conventional_tenant(
        &mut self,
        spec: &AppSpec,
        start: SimTime,
        keep_columns: bool,
    ) -> Result<HostTenant, RunError> {
        let meta = self
            .fs
            .open(&spec.input)
            .map_err(|_| RunError::UnknownFile(spec.input.clone()))?;
        let chunks = Self::file_chunks(meta, self.params.conventional_chunk_bytes);
        let memo = self.host_memo_key(spec, &chunks).zip(self.replay.clone());
        let replay = memo
            .as_ref()
            .and_then(|(key, store)| store.host_get(*key))
            .filter(|r| !keep_columns || r.objects.is_some());
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
            cpu_ready: start,
            source: match replay {
                Some(r) => ParseSource::Replay(r),
                None => ParseSource::Live {
                    parser: Some(Box::new(HostParser::new(&spec.schema, spec.input_format))),
                    parsed: None,
                    last_work: ParseWork::default(),
                    recorded: Vec::new(),
                },
            },
            memo,
            keep_columns,
        })
    }

    /// Reads and parses the engine's next chunk: the read is served no
    /// earlier than `floor`, the parse no earlier than the previous one.
    pub(crate) fn step_host(
        &mut self,
        h: &mut HostTenant,
        floor: SimTime,
    ) -> Result<HostChunk, RunError> {
        let ci = h.next;
        let c = h.chunks[ci];
        h.next += 1;
        let (data, io_done) = self.conventional_io(&c, h.buf_addr, floor)?;
        let dw = match &mut h.source {
            ParseSource::Replay(r) => r.per_chunk[ci],
            ParseSource::Live {
                parser,
                parsed,
                last_work,
                recorded,
            } => {
                let p = parser.as_mut().expect("no chunk after the last");
                p.feed(&data[..c.valid_bytes as usize])?;
                let w = if h.next == h.chunks.len() {
                    let (o, w) = parser.take().expect("fed above").finish()?;
                    *parsed = Some(o);
                    w
                } else {
                    p.work()
                };
                let dw = w.since(last_work);
                *last_work = w;
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
        Ok(HostChunk { io_done, cpu })
    }

    /// One host-path input chunk on the configured storage device, served
    /// no earlier than `ready`. The NVMe command itself is the caller's:
    /// a solo run round-trips it, serving pushes it onto the wire.
    fn conventional_io(
        &mut self,
        c: &ChunkIo,
        buf_addr: u64,
        ready: SimTime,
    ) -> Result<(Vec<u8>, SimTime), RunError> {
        match self.params.storage {
            StorageKind::NvmeSsd => {
                let (data, t) = self.mssd.dev.read_range(c.slba, c.blocks, ready)?;
                let dma =
                    self.fabric
                        .dma(self.ssd_dev, DmaDir::Write, buf_addr, c.valid_bytes, t)?;
                let mb = self.membus.transfer(dma.start, c.valid_bytes);
                Ok((data, dma.end.max(mb.end)))
            }
            StorageKind::RamDrive => {
                let data = self.mssd.dev.read_range_untimed(c.slba, c.blocks)?;
                let mb = self.membus.transfer(ready, c.valid_bytes);
                Ok((data, mb.end))
            }
            StorageKind::Hdd => {
                let data = self.mssd.dev.read_range_untimed(c.slba, c.blocks)?;
                let seek = SimDuration::from_secs_f64(self.params.hdd_seek_ms / 1e3);
                let stream =
                    SimDuration::from_secs_f64(c.valid_bytes as f64 / (self.params.hdd_mbs * 1e6));
                let iv = self.hdd.acquire(ready, seek + stream);
                let mb = self.membus.transfer(iv.start, c.valid_bytes);
                Ok((data, iv.end.max(mb.end)))
            }
        }
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

    /// Builds the device engine for `spec`'s file: runs MINIT of instance
    /// `iid`, issued to the drive at `issue`. The caller picks `iid` (so a
    /// dispatcher can pin instances to embedded cores) and the delivery
    /// target (`bar` for P2P). With `keep_columns` the engine ignores a
    /// replay's digest and decodes the objects, so
    /// [`System::finish_device`] hands the columns back.
    pub(crate) fn device_tenant(
        &mut self,
        spec: &AppSpec,
        iid: u32,
        issue: SimTime,
        bar: Option<BarWindow>,
        keep_columns: bool,
    ) -> Result<DeviceTenant, RunError> {
        // The host resolves the file's layout (the runtime's
        // `ms_stream_create`, §V-A2): the drive never parses a filesystem.
        let stream = ms_stream_create(&self.fs, &spec.input, self.params.mread_chunk_bytes)
            .map_err(|_| RunError::UnknownFile(spec.input.clone()))?;
        let memo_key = self.device_memo_key(spec, stream.chunks());
        let rec = memo_key.and_then(|key| self.replay.as_ref()?.device_get(key));
        let prefab = rec.as_ref().filter(|_| !keep_columns).map(|r| r.digest);
        let memo = match (memo_key, rec) {
            (_, Some(rec)) => InstanceMemo::Play { rec, next: 0 },
            (Some(_), None) => InstanceMemo::Record(Vec::new()),
            (None, None) => InstanceMemo::Off,
        };
        let app = spec.storage_app();
        let plan = CommandPlan::lower(stream, iid, app.code_bytes());
        let ready = self.mssd.minit_with(iid, app, issue, memo)?;
        Ok(DeviceTenant {
            schema: spec.schema.clone(),
            plan,
            next: 0,
            ready,
            last_end: ready,
            obj_bin: Vec::new(),
            pushed: 0,
            bar,
            memo_key,
            prefab,
        })
    }

    /// Runs the engine's next MREAD, issued to the drive at `issue`,
    /// pushes its objects and takes the completion wakeup.
    pub(crate) fn step_device(
        &mut self,
        t: &mut DeviceTenant,
        issue: SimTime,
    ) -> Result<DeviceChunk, RunError> {
        let c = t.plan.stream.chunks()[t.next];
        t.next += 1;
        let out = self
            .mssd
            .mread(t.plan.instance_id, c.slba, c.blocks, c.valid_bytes, issue)?;
        let wakeup = match out.output.len() as u64 {
            0 => None,
            n => {
                let dma_end = self.push_output(n, t.bar, out.done)?;
                t.pushed += n;
                Some(self.command_wakeup(dma_end))
            }
        };
        t.last_end = t.last_end.max(wakeup.map_or(out.done, |iv| iv.end));
        // With a prefab in hand the assembled stream is never decoded, so
        // skip the copy (the length above still priced the DMA and bus).
        if t.prefab.is_none() {
            t.obj_bin.extend_from_slice(&out.output);
        }
        Ok(DeviceChunk {
            done: out.done,
            wakeup,
        })
    }

    /// Runs the engine's MDEINIT, issued to the drive at `issue`, pushes
    /// the final objects and takes the completion wakeup. A lifecycle
    /// without a replay's digest decodes its object stream; a recording
    /// one is published to the memo with that digest.
    pub(crate) fn finish_device(
        &mut self,
        mut t: DeviceTenant,
        issue: SimTime,
    ) -> Result<DeviceEnd, RunError> {
        let dein = self.mssd.mdeinit(t.plan.instance_id, issue)?;
        let end = match dein.host_output.len() as u64 {
            0 => dein.done,
            n => {
                t.pushed += n;
                self.push_output(n, t.bar, dein.done)?
            }
        };
        let wakeup = self.command_wakeup(end);
        let (digest, objects) = match t.prefab {
            Some(d) => (d, None),
            None => {
                t.obj_bin.extend_from_slice(&dein.host_output);
                let o = ParsedColumns::decode(t.schema, &t.obj_bin)?;
                (o.digest(), Some(o))
            }
        };
        if let (Some(key), Some(rec), Some(store)) = (t.memo_key, dein.recording, &self.replay) {
            store.device_put(
                key,
                Arc::new(DeviceReplay {
                    cmds: rec.cmds,
                    finish_instr: rec.finish_instr,
                    retval: dein.retval,
                    host_output: dein.host_output,
                    digest,
                }),
            );
        }
        // Route conservation: the bytes pushed off the drive (every MREAD
        // output plus the MDEINIT tail) are the objects' bytes, whether
        // this lifecycle decoded them or an earlier one.
        debug_assert_eq!(t.pushed, digest.bytes, "object bytes lost on the route");
        debug_assert_eq!(
            dein.retval, digest.records as i32,
            "MDEINIT returns the record count"
        );
        Ok(DeviceEnd {
            done: dein.done,
            wakeup,
            retval: dein.retval,
            digest,
            objects,
        })
    }

    /// Runs the deserialization phase of several tenants concurrently.
    ///
    /// Chunks are issued round-robin across tenants, so host cores, the
    /// memory bus, flash channels, embedded cores, and PCIe links all
    /// contend exactly as the shared timelines dictate. Only
    /// [`Mode::Conventional`] and [`Mode::Morpheus`] tenants are supported
    /// (P2P is a single-accelerator concept).
    ///
    /// # Errors
    ///
    /// Fails on an empty tenant list ([`RunError::NoTenants`]), unknown
    /// files, parse failures, firmware faults, or an unsupported mode.
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
        let mut states = Vec::with_capacity(tenants.len());
        for (spec, mode) in tenants {
            let state = match mode {
                Mode::Conventional => TenantState::Conventional(self.conventional_tenant(
                    spec,
                    SimTime::ZERO,
                    false,
                )?),
                Mode::Morpheus => {
                    let iid = self.alloc_instance();
                    let syscall = self.command_wakeup(SimTime::ZERO);
                    let d = self.device_tenant(spec, iid, syscall.end, None, false)?;
                    TenantState::Morpheus(d)
                }
                Mode::MorpheusP2P => return Err(RunError::NotGpuApp(spec.name.clone())),
            };
            states.push(state);
        }

        // Round-robin chunk issue until everyone has drained their file.
        loop {
            let mut progressed = false;
            for t in states.iter_mut() {
                match t {
                    TenantState::Conventional(h) if h.next_read().is_some() => {
                        let floor = h.start;
                        self.step_host(h, floor)?;
                    }
                    TenantState::Morpheus(d) if d.next_read().is_some() => {
                        let issue = d.ready;
                        self.step_device(d, issue)?;
                    }
                    _ => continue,
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }

        // Finish every tenant and assemble reports.
        let mut reports = Vec::with_capacity(states.len());
        let mut makespan = SimTime::ZERO;
        for ((spec, mode), t) in tenants.iter().zip(states) {
            let (end, objects) = match t {
                TenantState::Conventional(h) => {
                    let (end, digest, _) = h.finish()?;
                    (end, digest)
                }
                TenantState::Morpheus(d) => {
                    let issue = d.last_end;
                    let e = self.finish_device(d, issue)?;
                    (e.wakeup.end, e.digest)
                }
            };
            makespan = makespan.max(end);
            reports.push(TenantReport {
                app: spec.name.clone(),
                mode: *mode,
                deser_s: end.as_secs_f64(),
                records: objects.records,
                checksum: objects.checksum,
                object_bytes: objects.bytes,
            });
        }
        let makespan_s = makespan.as_secs_f64();
        let total_obj: u64 = reports.iter().map(|r| r.object_bytes).sum();
        Ok(ConcurrentReport {
            aggregate_mbs: mb_per_sec(total_obj, makespan_s),
            tenants: reports,
            makespan_s,
            context_switches: self.os.accounting().context_switches,
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
    fn a_run_after_serving_upgrades_the_digest_only_memo_entry() {
        let mut sys = System::new(SystemParams::paper_testbed());
        sys.create_input_file("up.txt", &edge_text(20_000, 0x5eed_00a1))
            .unwrap();
        let spec = AppSpec::cpu_app("up", "up.txt", edge_schema(), 1, 50.0);
        let replays = |sys: &mut System, keep_columns| {
            let h = sys
                .conventional_tenant(&spec, SimTime::ZERO, keep_columns)
                .unwrap();
            matches!(h.source, ParseSource::Replay(_))
        };
        // Serving records the digest only: it replays for serving, but a
        // caller that needs the columns back parses live.
        let mut cfg = crate::ServeConfig::new(1000.0, 0.01);
        cfg.mode = Mode::Conventional;
        let rep = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap();
        assert!(rep.completed > 0);
        assert!(replays(&mut sys, false));
        assert!(!replays(&mut sys, true));
        // That live parse re-records the entry with columns, so the next
        // run replays too.
        sys.run(&spec, Mode::Conventional).unwrap();
        assert!(replays(&mut sys, true));
        assert!(replays(&mut sys, false));
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
            let mut h = sys.conventional_tenant(&spec, SimTime::ZERO, false).unwrap();
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
