//! The Morpheus firmware extension: StorageApp execution behind the
//! MINIT/MREAD/MWRITE/MDEINIT commands.
//!
//! Wraps the baseline SSD controller (§IV-B): the NVMe front end recognizes
//! the four new opcodes and routes all packets of one instance ID to the
//! same embedded core; the firmware stages StorageApp output in controller
//! DRAM for DMA; the FTL and conventional command handling are untouched.
//!
//! Every instance runs the same MINIT, MREAD page loop and MDEINIT on
//! live timelines. The [`InstanceMemo`] the device engine hands to MINIT
//! decides only where the code size, each page's instruction count and
//! each command's output come from: the StorageApp, or a recording of an
//! identical lifecycle, in which case the instance holds no StorageApp
//! (see `deser_memo`, which the firmware itself never reads or writes).

use crate::deser_memo;
use crate::{AppError, DeviceCtx, StorageApp, MAX_TENANTS};
use morpheus_format::{CostModel, ObjectDigest};
use morpheus_nvme::{AdminController, IdentifyController, MorpheusCaps, StatusCode, LBA_BYTES};
use morpheus_simcore::{FnvBuild, SimDuration, SimTime, TraceLayer, Tracer};
use morpheus_ssd::{Ssd, SsdError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors from the Morpheus firmware, each mapping onto an NVMe status.
#[derive(Debug)]
pub enum MorpheusError {
    /// Command named an instance that does not exist.
    NoSuchInstance(u32),
    /// Instance ID already in use.
    InstanceBusy(u32),
    /// StorageApp image exceeds I-SRAM.
    CodeTooLarge {
        /// Image size.
        code_bytes: u32,
        /// I-SRAM capacity.
        isram: u32,
    },
    /// The StorageApp itself failed.
    App(AppError),
    /// The underlying drive failed.
    Ssd(SsdError),
}

impl MorpheusError {
    /// The NVMe status code posted for this error.
    pub fn status(&self) -> StatusCode {
        match self {
            MorpheusError::NoSuchInstance(_) => StatusCode::NoSuchInstance,
            MorpheusError::InstanceBusy(_) => StatusCode::InstanceBusy,
            MorpheusError::CodeTooLarge { .. } => StatusCode::CodeTooLarge,
            MorpheusError::App(AppError::SramOverflow { .. }) => StatusCode::SramOverflow,
            MorpheusError::App(_) => StatusCode::AppFault,
            MorpheusError::Ssd(e) => {
                // Walk the source chain: an exhausted-retry media failure
                // posts the NVMe unrecovered-read-error status (the host
                // falls back rather than reissuing); anything else in the
                // drive is an internal error.
                let mut cause: Option<&(dyn Error + 'static)> = Some(e);
                while let Some(c) = cause {
                    if matches!(
                        c.downcast_ref::<morpheus_ftl::FtlError>(),
                        Some(morpheus_ftl::FtlError::MediaFailure(..))
                    ) {
                        return StatusCode::MediaUncorrectable;
                    }
                    cause = c.source();
                }
                StatusCode::InternalError
            }
        }
    }
}

impl fmt::Display for MorpheusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorpheusError::NoSuchInstance(id) => write!(f, "no storageapp instance {id}"),
            MorpheusError::InstanceBusy(id) => write!(f, "instance id {id} already in use"),
            MorpheusError::CodeTooLarge { code_bytes, isram } => {
                write!(f, "code of {code_bytes} bytes exceeds {isram}-byte i-sram")
            }
            MorpheusError::App(_) => write!(f, "storageapp fault"),
            MorpheusError::Ssd(_) => write!(f, "drive request failed"),
        }
    }
}

impl Error for MorpheusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MorpheusError::App(e) => Some(e),
            MorpheusError::Ssd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AppError> for MorpheusError {
    fn from(e: AppError) -> Self {
        MorpheusError::App(e)
    }
}

impl From<SsdError> for MorpheusError {
    fn from(e: SsdError) -> Self {
        MorpheusError::Ssd(e)
    }
}

/// Result of an MDEINIT.
#[derive(Debug)]
pub struct DeinitOutcome {
    /// The StorageApp's return value (travels in the completion entry).
    pub retval: i32,
    /// Output still bound for the host (the deserialization direction's
    /// final records). Empty when the MDEINIT replays a recording, which
    /// reports only the length.
    pub host_output: Vec<u8>,
    /// Bytes of host-bound output the MDEINIT staged for DMA:
    /// `host_output`'s length, or the recorded length on a replay.
    pub(crate) host_output_len: u64,
    /// Completion time.
    pub done: SimTime,
    /// Total bytes this instance streamed to flash through MWRITE.
    pub flushed_to_flash: u64,
    /// What a recording instance computed, for the device engine to
    /// publish; `None` for every other instance.
    pub(crate) recording: Option<Recording>,
}

/// Result of one MWRITE executed through a StorageApp.
#[derive(Debug, Clone, Copy)]
pub struct MwriteOutcome {
    /// When the app's output is durable on flash.
    pub durable: SimTime,
    /// Embedded-core time consumed.
    pub core_busy: SimDuration,
    /// Bytes the app produced and wrote at the command's LBA.
    pub bytes_written: u64,
}

/// Result of one MREAD executed through a StorageApp.
#[derive(Debug)]
pub struct MreadOutcome {
    /// Binary object bytes produced by the app for this chunk (bound for
    /// the command's DMA address). Empty when the MREAD replays a
    /// recording, which reports only the length.
    pub output: Vec<u8>,
    /// Object bytes the MREAD staged for DMA: `output`'s length, or the
    /// recorded length on a replay.
    pub(crate) output_len: u64,
    /// When the last parsed byte's output is staged and DMA can begin.
    pub done: SimTime,
    /// Embedded-core time consumed parsing this chunk.
    pub core_busy: SimDuration,
}

/// One recorded MREAD: its wire geometry (re-verified at replay), the
/// embedded-core instruction count of each page's parse step, and the
/// length of the output staged for DMA. The bytes themselves are not
/// kept: a replay prices only their length.
#[derive(Debug)]
pub(crate) struct CmdRecord {
    pub slba: u64,
    pub blocks: u64,
    pub valid_bytes: u64,
    pub page_instr: Vec<f64>,
    pub output_len: u64,
}

/// What a recording instance's MREADs and MDEINIT computed, handed back
/// in [`DeinitOutcome`].
#[derive(Debug)]
pub(crate) struct Recording {
    pub cmds: Vec<CmdRecord>,
    /// MDEINIT instruction count (includes command dispatch, as charged).
    pub finish_instr: f64,
}

/// A full recorded MINIT→MREAD*→MDEINIT instance lifecycle, as the device
/// engine publishes it: the code size MINIT copied, the [`Recording`],
/// MDEINIT's return value and output length, and the digest of the
/// objects the lifecycle decodes to.
#[derive(Debug)]
pub(crate) struct DeviceReplay {
    pub code_bytes: u32,
    pub cmds: Vec<CmdRecord>,
    pub finish_instr: f64,
    pub retval: i32,
    pub host_output_len: u64,
    pub digest: ObjectDigest,
}

/// What runs one instance, picked by the device engine at MINIT: its
/// StorageApp, or a recording of an identical lifecycle. It decides only
/// where MINIT's code size, each MREAD page's instruction count and each
/// command's output length come from.
#[derive(Debug)]
pub(crate) enum InstanceMemo {
    /// The StorageApp runs. With `record`, every MREAD's per-page
    /// instruction counts and output length are kept, and MDEINIT hands
    /// them back as a [`Recording`]; an MWRITE ends the recording.
    Live {
        app: Box<dyn StorageApp>,
        record: Option<Vec<CmdRecord>>,
    },
    /// No StorageApp: recording `rec` supplies the code size, the counts
    /// and the output lengths, MREAD `next` first, and no output bytes.
    Play { rec: Arc<DeviceReplay>, next: usize },
}

#[derive(Debug)]
struct Instance {
    ctx: DeviceCtx,
    /// Serialization point: packets of one instance run on one core in
    /// order (§IV-B routes same-instance packets to the same core).
    last_done: SimTime,
    /// Controller DRAM this instance actually reserved at MINIT (0 when
    /// the reservation did not fit), returned exactly at teardown.
    dram_reserved: u64,
    /// The embedded core this instance is pinned to (§IV-B: "delivers all
    /// packets with the same instance ID to the same core").
    core: usize,
    /// MWRITE output stream: base LBA of the first MWRITE, bytes already
    /// durable, and the sub-block tail awaiting more data.
    out_base_slba: Option<u64>,
    out_flushed: u64,
    out_pending: Vec<u8>,
    memo: InstanceMemo,
}

/// The I/O queue pair created at bring-up, which solo runs and
/// serialization submit through.
pub(crate) const IO_QUEUE_ID: u16 = 1;
/// Depth of every I/O queue pair on the drive: the bring-up queue and
/// each serving tenant's.
pub(crate) const IO_QUEUE_DEPTH: usize = 64;

/// The Morpheus-SSD: the baseline controller plus the StorageApp firmware.
///
/// # Example
///
/// The full command lifecycle of §IV-A — install, stream, tear down:
///
/// ```
/// use morpheus::{DeserializeApp, MorpheusSsd};
/// use morpheus_flash::{FlashGeometry, FlashTiming};
/// use morpheus_format::{CostModel, FieldKind, ParsedColumns, Schema};
/// use morpheus_simcore::SimTime;
/// use morpheus_ssd::{Ssd, SsdConfig};
///
/// # fn main() -> Result<(), morpheus::MorpheusError> {
/// let mut mssd = MorpheusSsd::new(
///     Ssd::new(SsdConfig::default(), FlashGeometry::small(), FlashTiming::default()),
///     CostModel::embedded_core(),
/// );
/// mssd.dev.load_at(0, b"5 6\n7 8\n").map_err(morpheus::MorpheusError::Ssd)?;
/// let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
/// let ready = mssd.minit(1, Box::new(DeserializeApp::new("edges", schema.clone())), SimTime::ZERO)?;
/// let out = mssd.mread(1, 0, 1, 8, ready)?;                 // MREAD through the app
/// let done = mssd.mdeinit(1, out.done)?;                    // collect the tail + retval
/// let mut bytes = out.output;                               // the chunk's objects
/// bytes.extend_from_slice(&done.host_output);
/// let objects = ParsedColumns::decode(schema, &bytes).unwrap();
/// assert_eq!(objects.columns[0].as_ints().unwrap(), &[5, 7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MorpheusSsd {
    /// The underlying (unmodified) drive.
    pub dev: Ssd,
    /// The admin controller: Identify and I/O queue management. It is the
    /// drive's only NVMe front end: every command a run issues travels
    /// one of its queue pairs (queue 1 from bring-up, plus one per tenant
    /// while a serve runs).
    pub admin: AdminController,
    device_cost: CostModel,
    /// Memo digest of the drive configuration, fixed at bring-up.
    drive_digest: u64,
    instances: HashMap<u32, Instance, FnvBuild>,
    parse_core_busy: SimDuration,
    tracer: Tracer,
}

impl MorpheusSsd {
    /// Wraps a baseline SSD with the Morpheus firmware and performs the
    /// driver bring-up an NVMe host does: build the controller identity
    /// and create the I/O queue pair through the admin command set. The
    /// queue budget covers that pair plus one per serving tenant.
    pub fn new(dev: Ssd, device_cost: CostModel) -> Self {
        // Identify Controller: the standard fields plus the vendor-specific
        // Morpheus capability block the host runtime uses to discover
        // StorageApp support.
        let cfg = dev.config();
        let identity = IdentifyController {
            vendor_id: 0x1b4b,
            serial: "MORPH-0001".into(),
            model: "Morpheus-SSD 512GB".into(),
            mdts: 5,
            namespaces: 1,
            morpheus: Some(MorpheusCaps {
                embedded_cores: cfg.embedded_cores,
                core_clock_mhz: (cfg.core_clock_hz / 1e6) as u32,
                isram_bytes: cfg.isram_bytes,
                dsram_bytes: cfg.dsram_bytes,
            }),
        };
        let mut admin = AdminController::new(identity, 1 + MAX_TENANTS as u16);
        let status = admin.create_io_queue(IO_QUEUE_ID, IO_QUEUE_DEPTH);
        assert!(
            status.is_success(),
            "io queue creation cannot fail at bring-up"
        );
        MorpheusSsd {
            drive_digest: deser_memo::drive_digest(&dev, &device_cost),
            dev,
            admin,
            device_cost,
            instances: HashMap::default(),
            parse_core_busy: SimDuration::ZERO,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace handle on the firmware and the underlying drive;
    /// StorageApp phases, flash activity, and FTL events record through it
    /// (disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.dev.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The embedded-core cost table in use.
    pub fn device_cost(&self) -> &CostModel {
        &self.device_cost
    }

    /// The deserialization memo's digest of this drive's configuration
    /// (see `deser_memo::drive_digest`), computed once at bring-up. Debug
    /// builds recompute it to catch a configuration changed since.
    pub(crate) fn drive_digest(&self) -> u64 {
        debug_assert_eq!(
            self.drive_digest,
            deser_memo::drive_digest(&self.dev, &self.device_cost),
            "drive configuration changed after bring-up"
        );
        self.drive_digest
    }

    /// Total embedded-core time spent executing StorageApps (powers the
    /// SSD rail of Fig. 9).
    pub fn parse_core_busy(&self) -> SimDuration {
        self.parse_core_busy
    }

    /// Live instance count.
    pub fn live_instances(&self) -> usize {
        self.instances.len()
    }

    /// Reserves `bytes` of controller DRAM for the deserialized-object
    /// cache, through the same `alloc_dram` accounting MINIT uses for
    /// instance state — the cache tier and StorageApp instances compete
    /// for the one real 2 GB part. Returns false (reserving nothing) when
    /// the budget does not fit alongside existing reservations. The
    /// reservation survives [`reset_timing`](MorpheusSsd::reset_timing),
    /// like a firmware-static DRAM partition.
    pub fn reserve_object_cache(&mut self, bytes: u64) -> bool {
        self.dev.alloc_dram(bytes).is_some()
    }

    /// Returns an object-cache reservation made with
    /// [`reserve_object_cache`](MorpheusSsd::reserve_object_cache).
    pub fn release_object_cache(&mut self, bytes: u64) {
        self.dev.free_dram(bytes);
    }

    /// Rewinds all timing state (drive timelines plus the firmware's
    /// StorageApp busy accounting) without touching stored data.
    pub fn reset_timing(&mut self) {
        self.dev.reset_timing();
        self.parse_core_busy = SimDuration::ZERO;
    }

    /// Tears an instance down without running its `on_finish` — the crash
    /// and host-fallback path. Frees the instance's controller-DRAM
    /// reservation and drops any buffered output. Unknown instances are
    /// ignored (the fault may have hit before MINIT completed).
    pub fn abort_instance(&mut self, instance_id: u32) {
        if let Some(inst) = self.instances.remove(&instance_id) {
            self.dev.free_dram(inst.dram_reserved);
        }
    }

    /// MINIT: installs a StorageApp and creates an instance.
    ///
    /// Returns the time the instance is ready for MREADs.
    ///
    /// # Errors
    ///
    /// Fails if the instance ID is in use or the code image exceeds I-SRAM.
    pub fn minit(
        &mut self,
        instance_id: u32,
        app: Box<dyn StorageApp>,
        ready: SimTime,
    ) -> Result<SimTime, MorpheusError> {
        self.minit_with(instance_id, InstanceMemo::Live { app, record: None }, ready)
    }

    /// MINIT of an instance run by `memo`; a live one that records nothing
    /// behaves exactly like [`minit`](MorpheusSsd::minit). Install timing
    /// (DRAM reservation, dispatch, the I-SRAM copy of the app's code, or
    /// of the code size a replay's recording carries) always runs live.
    pub(crate) fn minit_with(
        &mut self,
        instance_id: u32,
        memo: InstanceMemo,
        ready: SimTime,
    ) -> Result<SimTime, MorpheusError> {
        if self.instances.contains_key(&instance_id) {
            return Err(MorpheusError::InstanceBusy(instance_id));
        }
        let code_bytes = match &memo {
            InstanceMemo::Live { app, .. } => app.code_bytes(),
            InstanceMemo::Play { rec, .. } => rec.code_bytes,
        };
        let isram = self.dev.config().isram_bytes;
        if code_bytes > isram {
            return Err(MorpheusError::CodeTooLarge { code_bytes, isram });
        }
        let dsram = self.dev.config().dsram_bytes;
        // Reserve a staging area in controller DRAM for the instance. When
        // it does not fit (an object cache may hold the whole part) the
        // instance runs without one and frees nothing at teardown.
        let staging = dsram as u64 * 4;
        let dram_reserved = self.dev.alloc_dram(staging).map_or(0, |_| staging);
        // Install cost: command dispatch plus copying the image to I-SRAM.
        let instr = self.dev.config().command_dispatch_instructions + code_bytes as f64 * 0.25;
        let core = instance_id as usize % self.dev.cores().cores();
        let iv = self.dev.cores_mut().exec_on(core, ready, instr);
        self.tracer.span(
            TraceLayer::Ssd,
            self.dev.cores().core_name(core),
            "minit",
            iv.start,
            iv.end,
        );
        self.instances.insert(
            instance_id,
            Instance {
                ctx: DeviceCtx::new(dsram),
                last_done: iv.end,
                dram_reserved,
                core,
                out_base_slba: None,
                out_flushed: 0,
                out_pending: Vec::new(),
                memo,
            },
        );
        Ok(iv.end)
    }

    /// MREAD: reads `blocks` LBAs from `slba` *through* the instance's
    /// StorageApp. Only the first `valid_bytes` of the range are real file
    /// content (the tail of the final block is ignored, as the host runtime
    /// communicates the file length at MINIT time).
    ///
    /// Flash page reads pipeline with parsing: the app's core starts on a
    /// page as soon as that page is in controller DRAM.
    ///
    /// # Errors
    ///
    /// Fails on unknown instances, app faults, and media errors; a failure
    /// aborts the instance.
    pub fn mread(
        &mut self,
        instance_id: u32,
        slba: u64,
        blocks: u64,
        valid_bytes: u64,
        ready: SimTime,
    ) -> Result<MreadOutcome, MorpheusError> {
        let out = self.run_mread(instance_id, slba, blocks, valid_bytes, ready);
        self.end_on_error(instance_id, out)
    }

    /// The MREAD page loop of every instance: flash page reads, embedded-core
    /// grants and trace spans run live, and the instance's [`InstanceMemo`]
    /// decides whether each page's instruction count and the staged output
    /// come from the StorageApp or from a recording, which supplies the
    /// output's length only. A replay's geometry is asserted against the
    /// record: a mismatch means a memo-key collision, which must never pass
    /// silently.
    fn run_mread(
        &mut self,
        instance_id: u32,
        slba: u64,
        blocks: u64,
        valid_bytes: u64,
        ready: SimTime,
    ) -> Result<MreadOutcome, MorpheusError> {
        let inst = self
            .instances
            .get_mut(&instance_id)
            .ok_or(MorpheusError::NoSuchInstance(instance_id))?;
        let core = inst.core;
        let dispatch_instr = self.dev.config().command_dispatch_instructions;
        let dispatch = self.dev.cores_mut().exec_on(core, ready, dispatch_instr);
        self.tracer.span(
            TraceLayer::Ssd,
            self.dev.cores().core_name(core),
            "dispatch",
            dispatch.start,
            dispatch.end,
        );
        let byte_len = (blocks * LBA_BYTES).min(valid_bytes);
        let spans = self.dev.page_spans(slba * LBA_BYTES, byte_len);
        let pages = spans.size_hint().0;
        // A replaying instance consumes its recorded commands in issue
        // order: MREAD `next` is this one until it completes.
        if let InstanceMemo::Play { rec, next } = &inst.memo {
            let cmd = rec
                .cmds
                .get(*next)
                .expect("deser-memo replay ran out of recorded MREADs (key collision?)");
            assert!(
                cmd.slba == slba && cmd.blocks == blocks && cmd.valid_bytes == valid_bytes,
                "deser-memo replay geometry mismatch (key collision?)"
            );
            assert_eq!(
                cmd.page_instr.len(),
                pages,
                "deser-memo replay page-count mismatch (key collision?)"
            );
        }
        let mut done = dispatch.end;
        let mut core_busy = SimDuration::ZERO;
        let mut page_instr: Vec<f64> = match &inst.memo {
            InstanceMemo::Live {
                record: Some(_), ..
            } => Vec::with_capacity(pages),
            _ => Vec::new(),
        };
        for (pi, (lpn, range)) in spans.enumerate() {
            let parsed = range.len() as u64;
            let (page, avail) = self.dev.read_page_timed(lpn, range, dispatch.end)?;
            let instr = match &mut inst.memo {
                InstanceMemo::Play { rec, next } => rec.cmds[*next].page_instr[pi],
                InstanceMemo::Live { app, record } => {
                    // Borrows straight from the flash array's stored
                    // allocation when the range is page-backed (the hot case).
                    app.on_chunk(&mut inst.ctx, &page.bytes())?;
                    let work = inst.ctx.take_work();
                    let extra = inst.ctx.take_extra_instructions();
                    let instr = self.device_cost.total_instructions(&work) + extra;
                    if record.is_some() {
                        page_instr.push(instr);
                    }
                    instr
                }
            };
            let start = avail.max(inst.last_done);
            let iv = self.dev.cores_mut().exec_on(core, start, instr);
            self.tracer.span_bytes(
                TraceLayer::Ssd,
                self.dev.cores().core_name(core),
                "parse",
                iv.start,
                iv.end,
                parsed,
            );
            inst.last_done = iv.end;
            core_busy += iv.duration();
            done = done.max(iv.end);
        }
        let (output, output_len) = match &mut inst.memo {
            InstanceMemo::Play { rec, next } => {
                *next += 1;
                (Vec::new(), rec.cmds[*next - 1].output_len)
            }
            InstanceMemo::Live { record, .. } => {
                let output = inst.ctx.take_output();
                let output_len = output.len() as u64;
                if let Some(cmds) = record {
                    cmds.push(CmdRecord {
                        slba,
                        blocks,
                        valid_bytes,
                        page_instr,
                        output_len,
                    });
                }
                (output, output_len)
            }
        };
        self.parse_core_busy += core_busy;
        Ok(MreadOutcome {
            output,
            output_len,
            done,
            core_busy,
        })
    }

    /// MWRITE: pushes host-supplied `data` *through* the StorageApp; the
    /// app's output forms a contiguous byte stream on flash starting at
    /// the first MWRITE's `slba` (the firmware buffers sub-block tails in
    /// controller DRAM and flushes whole blocks — the serialization
    /// direction of §I).
    ///
    /// # Errors
    ///
    /// Fails on unknown instances, app faults, and drive errors; a failure
    /// aborts the instance.
    pub fn mwrite(
        &mut self,
        instance_id: u32,
        slba: u64,
        data: &[u8],
        ready: SimTime,
    ) -> Result<MwriteOutcome, MorpheusError> {
        let out = self.run_mwrite(instance_id, slba, data, ready);
        self.end_on_error(instance_id, out)
    }

    fn run_mwrite(
        &mut self,
        instance_id: u32,
        slba: u64,
        data: &[u8],
        ready: SimTime,
    ) -> Result<MwriteOutcome, MorpheusError> {
        let inst = self
            .instances
            .get_mut(&instance_id)
            .ok_or(MorpheusError::NoSuchInstance(instance_id))?;
        let core = inst.core;
        let dispatch_instr = self.dev.config().command_dispatch_instructions;
        let dispatch = self.dev.cores_mut().exec_on(core, ready, dispatch_instr);
        // The deser memo covers read-side lifecycles only: a replaying
        // instance has no app, so it cannot absorb writes, and a recording
        // one stops recording (serialization output depends on
        // host-supplied data the key does not cover).
        let InstanceMemo::Live { app, record } = &mut inst.memo else {
            panic!("memoized deserialization instance received MWRITE");
        };
        *record = None;
        app.on_chunk(&mut inst.ctx, data)?;
        let work = inst.ctx.take_work();
        let extra = inst.ctx.take_extra_instructions();
        let instr = self.device_cost.total_instructions(&work) + extra;
        let start = dispatch.end.max(inst.last_done);
        let iv = self.dev.cores_mut().exec_on(core, start, instr);
        self.tracer.span_bytes(
            TraceLayer::Ssd,
            self.dev.cores().core_name(core),
            "pack",
            iv.start,
            iv.end,
            data.len() as u64,
        );
        inst.last_done = iv.end;
        inst.out_base_slba.get_or_insert(slba);
        let produced = inst.ctx.take_output();
        inst.out_pending.extend_from_slice(&produced);
        self.parse_core_busy += iv.duration();
        let durable = self.flush_instance_output(instance_id, iv.end, false)?;
        Ok(MwriteOutcome {
            durable,
            core_busy: iv.duration(),
            bytes_written: produced.len() as u64,
        })
    }

    /// Flushes an instance's pending MWRITE output to flash; whole blocks
    /// only unless `all` (used at MDEINIT for the final partial block).
    fn flush_instance_output(
        &mut self,
        instance_id: u32,
        ready: SimTime,
        all: bool,
    ) -> Result<SimTime, MorpheusError> {
        let inst = self
            .instances
            .get_mut(&instance_id)
            .expect("caller verified instance");
        let Some(base) = inst.out_base_slba else {
            return Ok(ready);
        };
        let lba = LBA_BYTES;
        let flush_len = if all {
            inst.out_pending.len()
        } else {
            inst.out_pending.len() - inst.out_pending.len() % lba as usize
        };
        if flush_len == 0 {
            return Ok(ready);
        }
        debug_assert_eq!(inst.out_flushed % lba, 0, "flush boundary is block aligned");
        let slba_now = base + inst.out_flushed / lba;
        let durable = self
            .dev
            .write_range(slba_now, &inst.out_pending[..flush_len], ready);
        inst.out_pending.drain(..flush_len);
        inst.out_flushed += flush_len as u64;
        Ok(durable?)
    }

    /// MDEINIT: finishes the instance, returning its return value, any
    /// leftover host-bound output, and the completion time. If the
    /// instance streamed MWRITE output, the final partial block is made
    /// durable first.
    ///
    /// # Errors
    ///
    /// Fails on unknown instances, if the app faults while finishing, or
    /// if the final flush fails; a failure aborts the instance.
    pub fn mdeinit(
        &mut self,
        instance_id: u32,
        ready: SimTime,
    ) -> Result<DeinitOutcome, MorpheusError> {
        let out = self.run_mdeinit(instance_id, ready);
        self.end_on_error(instance_id, out)
    }

    /// The MDEINIT of every instance: the finish grant and span run live;
    /// a replay takes the recorded cost (dispatch included), return value
    /// and output length instead of running `on_finish`.
    fn run_mdeinit(
        &mut self,
        instance_id: u32,
        ready: SimTime,
    ) -> Result<DeinitOutcome, MorpheusError> {
        let inst = self
            .instances
            .get_mut(&instance_id)
            .ok_or(MorpheusError::NoSuchInstance(instance_id))?;
        let (retval, instr, played) = match &mut inst.memo {
            InstanceMemo::Play { rec, next } => {
                assert_eq!(
                    *next,
                    rec.cmds.len(),
                    "deser-memo replay finished with unconsumed MREADs (key collision?)"
                );
                (rec.retval, rec.finish_instr, Some(rec.host_output_len))
            }
            InstanceMemo::Live { app, .. } => {
                let retval = app.on_finish(&mut inst.ctx)?;
                let work = inst.ctx.take_work();
                let extra = inst.ctx.take_extra_instructions();
                let instr = self.device_cost.total_instructions(&work)
                    + extra
                    + self.dev.config().command_dispatch_instructions;
                (retval, instr, None)
            }
        };
        let core = inst.core;
        let iv = self
            .dev
            .cores_mut()
            .exec_on(core, ready.max(inst.last_done), instr);
        self.tracer.span(
            TraceLayer::Ssd,
            self.dev.cores().core_name(core),
            "finish",
            iv.start,
            iv.end,
        );
        self.parse_core_busy += iv.duration();
        let mut done = iv.end;
        let (host_output, host_output_len) = if inst.out_base_slba.is_some() {
            // Final records join the flash stream, not the host (only a
            // live instance MWRITEs, and it records nothing after).
            let tail = inst.ctx.take_output();
            inst.out_pending.extend_from_slice(&tail);
            done = done.max(self.flush_instance_output(instance_id, iv.end, true)?);
            (Vec::new(), 0)
        } else if let Some(len) = played {
            (Vec::new(), len)
        } else {
            let output = inst.ctx.take_output();
            let len = output.len() as u64;
            (output, len)
        };
        let inst = self.instances.remove(&instance_id).expect("still present");
        self.dev.free_dram(inst.dram_reserved);
        let recording = match inst.memo {
            InstanceMemo::Live {
                record: Some(cmds), ..
            } => Some(Recording {
                cmds,
                finish_instr: instr,
            }),
            _ => None,
        };
        Ok(DeinitOutcome {
            retval,
            host_output,
            host_output_len,
            done,
            flushed_to_flash: inst.out_flushed,
            recording,
        })
    }

    /// Ends instance `instance_id` when its command failed: any failure
    /// aborts the instance (the [`StorageApp`] contract), so no error
    /// leaves an instance or its controller DRAM behind.
    fn end_on_error<T>(
        &mut self,
        instance_id: u32,
        out: Result<T, MorpheusError>,
    ) -> Result<T, MorpheusError> {
        if out.is_err() {
            self.abort_instance(instance_id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeserializeApp;
    use morpheus_flash::{FlashGeometry, FlashTiming};
    use morpheus_format::{FieldKind, ParsedColumns, Schema, TextWriter};
    use morpheus_ssd::SsdConfig;

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    fn mssd() -> MorpheusSsd {
        let dev = Ssd::new(
            SsdConfig::default(),
            FlashGeometry::small(),
            FlashTiming::default(),
        );
        MorpheusSsd::new(dev, CostModel::embedded_core())
    }

    #[test]
    fn full_storageapp_lifecycle() {
        let mut m = mssd();
        let text = b"1 2\n3 4\n5 6\n7 8\n";
        m.dev.load_at(0, text).unwrap();
        let t0 = m
            .minit(
                1,
                Box::new(DeserializeApp::new("edges", edge_schema())),
                SimTime::ZERO,
            )
            .unwrap();
        let out = m.mread(1, 0, 1, text.len() as u64, t0).unwrap();
        assert!(out.done > t0);
        assert!(!out.core_busy.is_zero());
        let dein = m.mdeinit(1, out.done).unwrap();
        assert_eq!(dein.retval, 4);
        assert!(dein.done >= out.done);
        assert_eq!(dein.flushed_to_flash, 0);
        let mut bytes = out.output;
        bytes.extend_from_slice(&dein.host_output);
        let cols = ParsedColumns::decode(edge_schema(), &bytes).unwrap();
        assert_eq!(cols.records, 4);
        assert_eq!(cols.columns[0].as_ints().unwrap(), &[1, 3, 5, 7]);
        assert_eq!(m.live_instances(), 0);
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut m = mssd();
        m.minit(
            7,
            Box::new(DeserializeApp::new("a", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
        let err = m
            .minit(
                7,
                Box::new(DeserializeApp::new("b", edge_schema())),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err.status(), StatusCode::InstanceBusy);
    }

    #[test]
    fn unknown_instance_rejected() {
        let mut m = mssd();
        let err = m.mread(9, 0, 1, 10, SimTime::ZERO).unwrap_err();
        assert_eq!(err.status(), StatusCode::NoSuchInstance);
        assert!(m.mdeinit(9, SimTime::ZERO).is_err());
    }

    #[test]
    fn oversized_code_rejected() {
        #[derive(Debug)]
        struct Huge;
        impl StorageApp for Huge {
            fn name(&self) -> &str {
                "huge"
            }
            fn code_bytes(&self) -> u32 {
                10 << 20
            }
            fn on_chunk(&mut self, _: &mut DeviceCtx, _: &[u8]) -> Result<(), AppError> {
                Ok(())
            }
            fn on_finish(&mut self, _: &mut DeviceCtx) -> Result<i32, AppError> {
                Ok(0)
            }
        }
        let mut m = mssd();
        let err = m.minit(1, Box::new(Huge), SimTime::ZERO).unwrap_err();
        assert_eq!(err.status(), StatusCode::CodeTooLarge);
    }

    #[test]
    fn app_fault_surfaces_with_status() {
        let mut m = mssd();
        m.dev.load_at(0, b"not numbers at all\n").unwrap();
        m.minit(
            1,
            Box::new(DeserializeApp::new("edges", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
        let err = m.mread(1, 0, 1, 18, SimTime::ZERO).unwrap_err();
        assert_eq!(err.status(), StatusCode::AppFault);
        // The fault aborted the instance and returned its controller DRAM.
        assert_eq!(m.live_instances(), 0);
        assert_eq!(m.dev.dram_used(), 0);
    }

    #[test]
    fn mread_across_multiple_commands_carries_state() {
        let mut m = mssd();
        // One record split across two MREAD commands (two LBAs).
        let mut text = vec![b' '; 1024];
        text[510] = b'1';
        text[511] = b'2'; // "12" ends exactly at the LBA boundary
        text[512] = b'3'; // continues "123" in the next LBA!
        text[513] = b' ';
        text[514] = b'7';
        text[515] = b'\n';
        m.dev.load_at(0, &text).unwrap();
        m.minit(
            1,
            Box::new(DeserializeApp::new("edges", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
        let a = m.mread(1, 0, 1, 512, SimTime::ZERO).unwrap();
        let b = m.mread(1, 1, 1, 1024 - 512, a.done).unwrap();
        let dein = m.mdeinit(1, b.done).unwrap();
        let mut bytes = a.output;
        bytes.extend_from_slice(&b.output);
        bytes.extend_from_slice(&dein.host_output);
        let cols = ParsedColumns::decode(edge_schema(), &bytes).unwrap();
        assert_eq!(cols.records, 1);
        assert_eq!(cols.columns[0].as_ints().unwrap(), &[123]);
        assert_eq!(cols.columns[1].as_ints().unwrap(), &[7]);
    }

    #[test]
    fn mwrite_serializes_through_app() {
        let mut m = mssd();
        m.minit(
            1,
            Box::new(DeserializeApp::new("edges", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
        let out = m.mwrite(1, 64, b"9 8\n7 6\n", SimTime::ZERO).unwrap();
        assert!(!out.core_busy.is_zero());
        assert_eq!(out.bytes_written, 16);
        // Sub-block output stays buffered until MDEINIT flushes it.
        let dein = m.mdeinit(1, out.durable).unwrap();
        assert_eq!(dein.flushed_to_flash, 16);
        assert!(dein.host_output.is_empty());
        // The binary objects landed on flash at slba 64.
        let (pages, _) = m.dev.read_range(64, 1, dein.done).unwrap();
        let cols = ParsedColumns::decode(edge_schema(), &pages[0].bytes()[..16]).unwrap();
        assert_eq!(cols.columns[0].as_ints().unwrap(), &[9, 7]);
    }

    #[test]
    fn replays_report_the_live_output_lengths() {
        // Three flash pages of records in two MREADs, so a replay walks
        // several recorded commands and pages. No trailing newline: the
        // last record reaches the host at MDEINIT.
        let mut w = TextWriter::new();
        for i in 0..1500u64 {
            w.write_u64(i);
            w.sep();
            w.write_u64(i * 7 % 1000);
            w.newline();
        }
        let mut text = w.into_bytes();
        text.pop();
        let blocks = (text.len() as u64).div_ceil(LBA_BYTES);
        let half = blocks / 2;
        // One lifecycle on reset timelines: its outcomes and the spans it
        // traced.
        let lifecycle = |m: &mut MorpheusSsd, memo| {
            m.reset_timing();
            let tracer = Tracer::enabled();
            m.set_tracer(tracer.clone());
            let t0 = m.minit_with(1, memo, SimTime::ZERO).unwrap();
            let rest = text.len() as u64 - half * LBA_BYTES;
            let reads = [
                m.mread(1, 0, half, half * LBA_BYTES, t0).unwrap(),
                m.mread(1, half, blocks - half, rest, t0).unwrap(),
            ];
            let end = m.mdeinit(1, reads[1].done).unwrap();
            (reads, end, tracer.take().to_chrome_json())
        };
        let app = || Box::new(DeserializeApp::new("edges", edge_schema()));
        let mut m = mssd();
        m.dev.load_at(0, &text).unwrap();
        let off = InstanceMemo::Live {
            app: app(),
            record: None,
        };
        let (live, live_end, live_spans) = lifecycle(&mut m, off);
        assert!(!live_end.host_output.is_empty());
        assert!(live_end.recording.is_none());
        let record = InstanceMemo::Live {
            app: app(),
            record: Some(Vec::new()),
        };
        let (reads, end, spans) = lifecycle(&mut m, record);
        assert_eq!(spans, live_spans, "recording changes no timeline work");
        let recording = end.recording.expect("a recording instance hands it back");
        let mut bytes = Vec::new();
        for ((out, cmd), live) in reads.iter().zip(&recording.cmds).zip(&live) {
            assert_eq!(out.output, live.output, "a recording runs the app");
            assert_eq!(cmd.output_len, out.output.len() as u64);
            bytes.extend_from_slice(&out.output);
        }
        bytes.extend_from_slice(&end.host_output);
        let rec = Arc::new(DeviceReplay {
            code_bytes: app().code_bytes(),
            cmds: recording.cmds,
            finish_instr: recording.finish_instr,
            retval: end.retval,
            host_output_len: end.host_output_len,
            digest: ParsedColumns::decode(edge_schema(), &bytes)
                .unwrap()
                .digest(),
        });
        for _ in 0..2 {
            let memo = InstanceMemo::Play {
                rec: Arc::clone(&rec),
                next: 0,
            };
            let (replay, replay_end, replay_spans) = lifecycle(&mut m, memo);
            for (out, live) in replay.iter().zip(&live) {
                assert!(out.output.is_empty(), "a replay hands out no bytes");
                assert_eq!(out.output_len, live.output.len() as u64);
                // The same timeline work in the same order.
                assert_eq!(out.done, live.done);
                assert_eq!(out.core_busy, live.core_busy);
            }
            assert!(replay_end.host_output.is_empty());
            assert_eq!(
                replay_end.host_output_len,
                live_end.host_output.len() as u64
            );
            assert_eq!(replay_end.done, live_end.done);
            assert_eq!(replay_end.retval, live_end.retval);
            assert_eq!(replay_spans, live_spans);
            assert!(replay_end.recording.is_none());
        }
        // A replay's MINIT copies the code size its recording carries.
        let minit_ready = |m: &mut MorpheusSsd, code_bytes| {
            m.reset_timing();
            let rec = Arc::new(DeviceReplay {
                code_bytes,
                cmds: Vec::new(),
                finish_instr: 0.0,
                retval: 0,
                host_output_len: 0,
                digest: rec.digest,
            });
            let ready = m.minit_with(1, InstanceMemo::Play { rec, next: 0 }, SimTime::ZERO);
            m.abort_instance(1);
            ready
        };
        let code_bytes = app().code_bytes();
        let ready = minit_ready(&mut m, code_bytes).unwrap();
        assert!(minit_ready(&mut m, 2 * code_bytes).unwrap() > ready);
        let isram = m.dev.config().isram_bytes;
        assert_eq!(
            minit_ready(&mut m, isram + 1).unwrap_err().status(),
            StatusCode::CodeTooLarge
        );
    }

    #[test]
    fn parse_core_busy_accumulates() {
        let mut m = mssd();
        m.dev.load_at(0, b"1 2\n").unwrap();
        m.minit(
            1,
            Box::new(DeserializeApp::new("edges", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
        m.mread(1, 0, 1, 4, SimTime::ZERO).unwrap();
        assert!(!m.parse_core_busy().is_zero());
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use crate::DeserializeApp;
    use morpheus_flash::{FlashGeometry, FlashTiming};
    use morpheus_format::{FieldKind, Schema, TextWriter};
    use morpheus_ssd::SsdConfig;

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    /// Two tenants' StorageApps run concurrently on different embedded
    /// cores: their combined makespan is far less than the serial sum
    /// (the paper's multiprogrammed-offload argument, §III).
    #[test]
    fn two_instances_share_the_core_pool() {
        let mut m = MorpheusSsd::new(
            Ssd::new(
                SsdConfig::default(),
                FlashGeometry::workload(),
                FlashTiming::default(),
            ),
            CostModel::embedded_core(),
        );
        let mut w = TextWriter::new();
        for i in 0..40_000u64 {
            w.write_u64(i % 1000);
            w.sep();
            w.write_u64(i % 997);
            w.newline();
        }
        let text = w.into_bytes();
        let blocks = (text.len() as u64).div_ceil(LBA_BYTES);
        // Two copies of the file in different LBA regions.
        m.dev.load_at(0, &text).unwrap();
        m.dev.load_at(1 << 16, &text).unwrap();

        let t1 = m
            .minit(
                1,
                Box::new(DeserializeApp::new("a", edge_schema())),
                SimTime::ZERO,
            )
            .unwrap();
        let t2 = m
            .minit(
                2,
                Box::new(DeserializeApp::new("b", edge_schema())),
                SimTime::ZERO,
            )
            .unwrap();
        let a = m.mread(1, 0, blocks, text.len() as u64, t1).unwrap();
        let b = m.mread(2, 1 << 16, blocks, text.len() as u64, t2).unwrap();
        let d1 = m.mdeinit(1, a.done).unwrap();
        let d2 = m.mdeinit(2, b.done).unwrap();
        assert_eq!(d1.retval, d2.retval);

        let makespan = d1.done.max(d2.done).as_secs_f64();
        let serial = (a.core_busy + b.core_busy).as_secs_f64();
        assert!(
            makespan < serial * 0.75,
            "two instances should overlap: makespan {makespan}, serial core time {serial}"
        );
        // And their outputs are the identical object stream.
        let mut bytes_a = a.output;
        bytes_a.extend_from_slice(&d1.host_output);
        let mut bytes_b = b.output;
        bytes_b.extend_from_slice(&d2.host_output);
        assert_eq!(bytes_a, bytes_b);
    }

    /// Instance isolation: a fault in one tenant's app never disturbs the
    /// other's stream.
    #[test]
    fn instance_faults_are_isolated() {
        let mut m = MorpheusSsd::new(
            Ssd::new(
                SsdConfig::default(),
                FlashGeometry::small(),
                FlashTiming::default(),
            ),
            CostModel::embedded_core(),
        );
        m.dev.load_at(0, b"1 2\n3 4\n").unwrap();
        m.dev.load_at(64, b"this is not numeric\n").unwrap();
        m.minit(
            1,
            Box::new(DeserializeApp::new("good", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
        m.minit(
            2,
            Box::new(DeserializeApp::new("bad", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
        let good = m.mread(1, 0, 1, 8, SimTime::ZERO).unwrap();
        let err = m.mread(2, 64, 1, 20, SimTime::ZERO).unwrap_err();
        assert_eq!(err.status(), StatusCode::AppFault);
        // Tenant 1 proceeds unharmed.
        let dein = m.mdeinit(1, good.done).unwrap();
        assert_eq!(dein.retval, 2);
    }
}
