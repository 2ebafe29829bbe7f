//! The Morpheus firmware extension: StorageApp execution behind the
//! MINIT/MREAD/MWRITE/MDEINIT commands.
//!
//! Wraps the baseline SSD controller (§IV-B): the NVMe front end recognizes
//! the four new opcodes and routes all packets of one instance ID to the
//! same embedded core; the firmware stages StorageApp output in controller
//! DRAM for DMA; the FTL and conventional command handling are untouched.

use crate::deser_memo::{self, CmdRecord, DeviceReplay, MemoKey};
use crate::{AppError, DeviceCtx, StorageApp};
use morpheus_format::CostModel;
use morpheus_nvme::{
    AdminController, CompletionEntry, IdentifyController, MorpheusCaps, MorpheusCommand,
    NvmeCommand, QueuePair, StatusCode, LBA_BYTES,
};
use morpheus_simcore::{SimDuration, SimTime, TraceLayer, Tracer};
use morpheus_ssd::{Ssd, SsdError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;
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
    /// final records). Shared: a replayed MDEINIT hands out the recording.
    pub host_output: Arc<Vec<u8>>,
    /// Completion time.
    pub done: SimTime,
    /// Total bytes this instance streamed to flash through MWRITE.
    pub flushed_to_flash: u64,
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
    /// the command's DMA address). Shared: a replayed MREAD hands out the
    /// recording.
    pub output: Arc<Vec<u8>>,
    /// When the last parsed byte's output is staged and DMA can begin.
    pub done: SimTime,
    /// Embedded-core time consumed parsing this chunk.
    pub core_busy: SimDuration,
}

/// Record/replay state of one instance's deserialization (see
/// `deser_memo`). `Off` for unkeyed instances and anything that MWRITEs.
#[derive(Debug)]
enum InstanceMemo {
    Off,
    /// Fault-free keyed run with no prior recording: capture every MREAD's
    /// per-page instruction counts and outputs, publish at MDEINIT.
    Record {
        key: MemoKey,
        cmds: Vec<CmdRecord>,
    },
    /// Keyed run with a prior recording: skip the StorageApp entirely and
    /// replay the recorded functional results against live timelines.
    Play {
        rec: Arc<DeviceReplay>,
        next: usize,
    },
}

#[derive(Debug)]
struct Instance {
    app: Box<dyn StorageApp>,
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

/// The host-visible I/O queue pair id created at bring-up.
const IO_QUEUE_ID: u16 = 1;

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
/// let mut bytes = out.output.to_vec();                     // shared bytes
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
    /// The admin controller: Identify and I/O queue management.
    pub admin: AdminController,
    device_cost: CostModel,
    /// Memo digest of the drive configuration, fixed at bring-up.
    drive_digest: u64,
    instances: HashMap<u32, Instance>,
    parse_core_busy: SimDuration,
    tracer: Tracer,
}

impl MorpheusSsd {
    /// Wraps a baseline SSD with the Morpheus firmware and performs the
    /// driver bring-up an NVMe host does: build the controller identity
    /// and create the I/O queue pair through the admin command set.
    pub fn new(dev: Ssd, device_cost: CostModel) -> Self {
        let identity = Self::build_identity(dev.config());
        let mut admin = AdminController::new(identity, 8);
        let status = admin.create_io_queue(IO_QUEUE_ID, 64);
        assert!(
            status.is_success(),
            "io queue creation cannot fail at bring-up"
        );
        MorpheusSsd {
            drive_digest: deser_memo::drive_digest(&dev, &device_cost),
            dev,
            admin,
            device_cost,
            instances: HashMap::new(),
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

    /// The I/O queue pair the host runtime drives.
    pub fn io_queue(&mut self) -> &mut QueuePair {
        self.admin
            .io_queue(IO_QUEUE_ID)
            .expect("created at bring-up")
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

    /// Serves Identify Controller: the standard fields plus the
    /// vendor-specific Morpheus capability block the host runtime uses to
    /// discover StorageApp support.
    pub fn identify(&self) -> IdentifyController {
        Self::build_identity(self.dev.config())
    }

    fn build_identity(cfg: &morpheus_ssd::SsdConfig) -> IdentifyController {
        IdentifyController {
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
        }
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
        self.minit_keyed(instance_id, app, ready, None)
    }

    /// MINIT with an optional deserialization-memo key (see `deser_memo`).
    /// A key arms record/replay of the instance's functional work; `None`
    /// behaves exactly like [`minit`](MorpheusSsd::minit). Install timing
    /// (DRAM reservation, dispatch, the I-SRAM copy) always runs live.
    pub(crate) fn minit_keyed(
        &mut self,
        instance_id: u32,
        app: Box<dyn StorageApp>,
        ready: SimTime,
        memo_key: Option<MemoKey>,
    ) -> Result<SimTime, MorpheusError> {
        if self.instances.contains_key(&instance_id) {
            return Err(MorpheusError::InstanceBusy(instance_id));
        }
        let isram = self.dev.config().isram_bytes;
        if app.code_bytes() > isram {
            return Err(MorpheusError::CodeTooLarge {
                code_bytes: app.code_bytes(),
                isram,
            });
        }
        let dsram = self.dev.config().dsram_bytes;
        // Reserve a staging area in controller DRAM for the instance. When
        // it does not fit (an object cache may hold the whole part) the
        // instance runs without one and frees nothing at teardown.
        let staging = dsram as u64 * 4;
        let dram_reserved = self.dev.alloc_dram(staging).map_or(0, |_| staging);
        // Install cost: command dispatch plus copying the image to I-SRAM.
        let instr =
            self.dev.config().command_dispatch_instructions + app.code_bytes() as f64 * 0.25;
        let core = instance_id as usize % self.dev.cores().cores();
        let iv = self.dev.cores_mut().exec_on(core, ready, instr);
        self.tracer.span(
            TraceLayer::Ssd,
            self.dev.cores().core_name(core),
            "minit",
            iv.start,
            iv.end,
        );
        let memo = match memo_key {
            Some(key) => match deser_memo::device_get(key) {
                Some(rec) => InstanceMemo::Play { rec, next: 0 },
                None => InstanceMemo::Record {
                    key,
                    cmds: Vec::new(),
                },
            },
            None => InstanceMemo::Off,
        };
        self.instances.insert(
            instance_id,
            Instance {
                app,
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
    /// Fails on unknown instances, app faults, and media errors.
    pub fn mread(
        &mut self,
        instance_id: u32,
        slba: u64,
        blocks: u64,
        valid_bytes: u64,
        ready: SimTime,
    ) -> Result<MreadOutcome, MorpheusError> {
        let Some(core) = self.instances.get(&instance_id).map(|i| i.core) else {
            return Err(MorpheusError::NoSuchInstance(instance_id));
        };
        let dispatch_instr = self.dev.config().command_dispatch_instructions;
        let dispatch = self.dev.cores_mut().exec_on(core, ready, dispatch_instr);
        self.tracer.span(
            TraceLayer::Ssd,
            self.dev.cores().core_name(core),
            "dispatch",
            dispatch.start,
            dispatch.end,
        );

        // A replaying instance consumes its recorded commands in issue
        // order; a recording one collects per-page costs as it parses.
        let inst = self
            .instances
            .get_mut(&instance_id)
            .expect("existence checked above");
        let recording = match &mut inst.memo {
            InstanceMemo::Play { rec, next } => {
                let (rec, k) = (Arc::clone(rec), *next);
                *next += 1;
                return self.mread_replay(
                    &rec,
                    k,
                    instance_id,
                    core,
                    slba,
                    blocks,
                    valid_bytes,
                    dispatch.end,
                );
            }
            InstanceMemo::Record { .. } => true,
            InstanceMemo::Off => false,
        };
        let page_bytes = self.dev.page_bytes();
        let byte_start = slba * LBA_BYTES;
        let byte_len = (blocks * LBA_BYTES).min(valid_bytes);
        let mut done = dispatch.end;
        let mut core_busy = SimDuration::ZERO;
        let mut page_instr: Vec<f64> = Vec::new();
        for lpn in flash_pages(byte_start, byte_len, page_bytes) {
            let page_base = lpn * page_bytes;
            let lo = byte_start.max(page_base) - page_base;
            let hi = (byte_start + byte_len).min(page_base + page_bytes) - page_base;
            let (page, avail) = self
                .dev
                .read_page_timed(morpheus_ftl::Lpn(lpn), dispatch.end)?;
            let inst = self
                .instances
                .get_mut(&instance_id)
                .expect("existence checked above");
            // Borrows straight from the flash array's stored allocation
            // when the range is page-backed (the hot case).
            let chunk = page.slice(lo as usize, hi as usize);
            inst.app
                .on_chunk(&mut inst.ctx, &chunk)
                .map_err(MorpheusError::App)?;
            let work = inst.ctx.take_work();
            let extra = inst.ctx.take_extra_instructions();
            let instr = self.device_cost.total_instructions(&work) + extra;
            if recording {
                page_instr.push(instr);
            }
            let start = avail.max(inst.last_done);
            let iv = self.dev.cores_mut().exec_on(core, start, instr);
            self.tracer.span_bytes(
                TraceLayer::Ssd,
                self.dev.cores().core_name(core),
                "parse",
                iv.start,
                iv.end,
                hi - lo,
            );
            let inst = self
                .instances
                .get_mut(&instance_id)
                .expect("existence checked above");
            inst.last_done = iv.end;
            core_busy += iv.duration();
            done = done.max(iv.end);
        }
        let inst = self
            .instances
            .get_mut(&instance_id)
            .expect("existence checked above");
        let mut output = inst.ctx.take_output();
        let output = match &mut inst.memo {
            InstanceMemo::Record { cmds, .. } => {
                // The recording outlives this command and every replay
                // hands it out, so it keeps no spare capacity.
                output.shrink_to_fit();
                let output = Arc::new(output);
                cmds.push(CmdRecord {
                    slba,
                    blocks,
                    valid_bytes,
                    page_instr,
                    output: Arc::clone(&output),
                });
                output
            }
            _ => Arc::new(output),
        };
        self.parse_core_busy += core_busy;
        Ok(MreadOutcome {
            output,
            done,
            core_busy,
        })
    }

    /// Replays one recorded MREAD: flash page timing, embedded-core grants,
    /// and trace spans all run live, but the per-page instruction counts
    /// and the staged output come from the recording instead of the
    /// StorageApp; the output is the recording's own shared buffer.
    /// Geometry is asserted against the record — a mismatch means a
    /// memo-key collision, which must never pass silently.
    #[allow(clippy::too_many_arguments)]
    fn mread_replay(
        &mut self,
        rec: &DeviceReplay,
        k: usize,
        instance_id: u32,
        core: usize,
        slba: u64,
        blocks: u64,
        valid_bytes: u64,
        dispatch_end: SimTime,
    ) -> Result<MreadOutcome, MorpheusError> {
        let cmd = rec
            .cmds
            .get(k)
            .expect("deser-memo replay ran out of recorded MREADs (key collision?)");
        assert!(
            cmd.slba == slba && cmd.blocks == blocks && cmd.valid_bytes == valid_bytes,
            "deser-memo replay geometry mismatch (key collision?)"
        );
        let page_bytes = self.dev.page_bytes();
        let byte_start = slba * LBA_BYTES;
        let byte_len = (blocks * LBA_BYTES).min(valid_bytes);
        let mut done = dispatch_end;
        let mut core_busy = SimDuration::ZERO;
        let pages = flash_pages(byte_start, byte_len, page_bytes);
        assert_eq!(
            cmd.page_instr.len() as u64,
            pages.end - pages.start,
            "deser-memo replay page-count mismatch (key collision?)"
        );
        for (pi, lpn) in pages.enumerate() {
            let page_base = lpn * page_bytes;
            let lo = byte_start.max(page_base) - page_base;
            let hi = (byte_start + byte_len).min(page_base + page_bytes) - page_base;
            let (_page, avail) = self
                .dev
                .read_page_timed(morpheus_ftl::Lpn(lpn), dispatch_end)?;
            let last_done = self.instances[&instance_id].last_done;
            let start = avail.max(last_done);
            let iv = self
                .dev
                .cores_mut()
                .exec_on(core, start, cmd.page_instr[pi]);
            self.tracer.span_bytes(
                TraceLayer::Ssd,
                self.dev.cores().core_name(core),
                "parse",
                iv.start,
                iv.end,
                hi - lo,
            );
            let inst = self
                .instances
                .get_mut(&instance_id)
                .expect("existence checked above");
            inst.last_done = iv.end;
            core_busy += iv.duration();
            done = done.max(iv.end);
        }
        self.parse_core_busy += core_busy;
        Ok(MreadOutcome {
            output: Arc::clone(&cmd.output),
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
    /// Fails on unknown instances, app faults, and drive errors.
    pub fn mwrite(
        &mut self,
        instance_id: u32,
        slba: u64,
        data: &[u8],
        ready: SimTime,
    ) -> Result<MwriteOutcome, MorpheusError> {
        let Some(core) = self.instances.get(&instance_id).map(|i| i.core) else {
            return Err(MorpheusError::NoSuchInstance(instance_id));
        };
        let dispatch_instr = self.dev.config().command_dispatch_instructions;
        let dispatch = self.dev.cores_mut().exec_on(core, ready, dispatch_instr);
        let inst = self
            .instances
            .get_mut(&instance_id)
            .expect("existence checked above");
        // The deser memo covers read-side lifecycles only: a replaying
        // instance never fed its app, so it cannot absorb writes, and a
        // recording one stops recording (serialization output depends on
        // host-supplied data the key does not cover).
        assert!(
            !matches!(inst.memo, InstanceMemo::Play { .. }),
            "memoized deserialization instance received MWRITE"
        );
        inst.memo = InstanceMemo::Off;
        inst.app
            .on_chunk(&mut inst.ctx, data)
            .map_err(MorpheusError::App)?;
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
        let inst = self
            .instances
            .get_mut(&instance_id)
            .expect("existence checked above");
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
        let chunk: Vec<u8> = inst.out_pending.drain(..flush_len).collect();
        inst.out_flushed += flush_len as u64;
        let durable = self.dev.write_range(slba_now, &chunk, ready)?;
        Ok(durable)
    }

    /// MDEINIT: finishes the instance, returning its return value, any
    /// leftover host-bound output, and the completion time. If the
    /// instance streamed MWRITE output, the final partial block is made
    /// durable first.
    ///
    /// # Errors
    ///
    /// Fails on unknown instances or if the app faults while finishing.
    pub fn mdeinit(
        &mut self,
        instance_id: u32,
        ready: SimTime,
    ) -> Result<DeinitOutcome, MorpheusError> {
        if !self.instances.contains_key(&instance_id) {
            return Err(MorpheusError::NoSuchInstance(instance_id));
        }
        let core = self.instances[&instance_id].core;
        let play = match &self.instances[&instance_id].memo {
            InstanceMemo::Play { rec, next } => {
                assert_eq!(
                    *next,
                    rec.cmds.len(),
                    "deser-memo replay finished with unconsumed MREADs (key collision?)"
                );
                Some(rec.clone())
            }
            _ => None,
        };
        if let Some(rec) = play {
            // Replay: the recorded finish cost (dispatch included) runs on
            // the live core timeline; on_finish itself is skipped. Recorded
            // lifecycles never wrote to flash, so there is nothing to flush.
            let start = ready.max(self.instances[&instance_id].last_done);
            let iv = self.dev.cores_mut().exec_on(core, start, rec.finish_instr);
            self.tracer.span(
                TraceLayer::Ssd,
                self.dev.cores().core_name(core),
                "finish",
                iv.start,
                iv.end,
            );
            self.parse_core_busy += iv.duration();
            let inst = self.instances.remove(&instance_id).expect("still present");
            self.dev.free_dram(inst.dram_reserved);
            return Ok(DeinitOutcome {
                retval: rec.retval,
                host_output: Arc::clone(&rec.host_output),
                done: iv.end,
                flushed_to_flash: 0,
            });
        }
        let (retval, instr, start, writes_to_flash) = {
            let inst = self
                .instances
                .get_mut(&instance_id)
                .expect("existence checked above");
            let result = inst.app.on_finish(&mut inst.ctx);
            let retval = match result {
                Ok(v) => v,
                Err(e) => {
                    let inst = self.instances.remove(&instance_id).expect("still present");
                    self.dev.free_dram(inst.dram_reserved);
                    return Err(MorpheusError::App(e));
                }
            };
            let work = inst.ctx.take_work();
            let extra = inst.ctx.take_extra_instructions();
            let instr = self.device_cost.total_instructions(&work)
                + extra
                + self.dev.config().command_dispatch_instructions;
            (
                retval,
                instr,
                ready.max(inst.last_done),
                inst.out_base_slba.is_some(),
            )
        };
        let iv = self.dev.cores_mut().exec_on(core, start, instr);
        self.tracer.span(
            TraceLayer::Ssd,
            self.dev.cores().core_name(core),
            "finish",
            iv.start,
            iv.end,
        );
        self.parse_core_busy += iv.duration();
        let mut done = iv.end;
        let mut host_output = Vec::new();
        if writes_to_flash {
            // Final records join the flash stream, not the host.
            let inst = self.instances.get_mut(&instance_id).expect("still present");
            let tail = inst.ctx.take_output();
            inst.out_pending.extend_from_slice(&tail);
            done = done.max(self.flush_instance_output(instance_id, iv.end, true)?);
        } else {
            let inst = self.instances.get_mut(&instance_id).expect("still present");
            host_output = inst.ctx.take_output();
        }
        let inst = self.instances.remove(&instance_id).expect("still present");
        self.dev.free_dram(inst.dram_reserved);
        let host_output = match inst.memo {
            InstanceMemo::Record { key, cmds } if !writes_to_flash => {
                // Every replay hands out this buffer, so it keeps no
                // spare capacity.
                host_output.shrink_to_fit();
                let host_output = Arc::new(host_output);
                deser_memo::device_put(
                    key,
                    Arc::new(DeviceReplay {
                        cmds,
                        finish_instr: instr,
                        retval,
                        host_output: Arc::clone(&host_output),
                    }),
                );
                host_output
            }
            _ => Arc::new(host_output),
        };
        Ok(DeinitOutcome {
            retval,
            host_output,
            done,
            flushed_to_flash: inst.out_flushed,
        })
    }

    /// Wire-level protocol round trip: encodes `cmd`, submits it through
    /// the real submission queue, pops it on the device side, re-decodes,
    /// and posts `status`/`result` through the completion queue, returning
    /// the reaped entry. Keeps every timed run exercising the actual NVMe
    /// packet path.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (the runtime serializes commands) or
    /// the packet fails to round-trip (a protocol bug).
    pub fn protocol_round_trip(
        &mut self,
        cmd: NvmeCommand,
        status: StatusCode,
        result: u32,
    ) -> CompletionEntry {
        let qp = self.io_queue();
        qp.sq.submit(cmd).expect("runtime serializes commands");
        let wire = qp.sq.pop().expect("just submitted");
        let bytes = wire.encode();
        let decoded = NvmeCommand::decode(&bytes).expect("codec round-trips");
        assert_eq!(decoded, cmd, "protocol corruption");
        if decoded.opcode.is_morpheus() {
            // Firmware sanity: the typed view must parse.
            MorpheusCommand::parse(&decoded).expect("morpheus command parses");
        }
        let qp = self.io_queue();
        qp.cq
            .post(decoded.cid, status, result)
            .expect("runtime reaps completions promptly");
        qp.cq.reap().expect("completion just posted")
    }
}

/// The flash pages holding bytes `[byte_start, byte_start + byte_len)`,
/// none when the range is empty.
fn flash_pages(byte_start: u64, byte_len: u64, page_bytes: u64) -> Range<u64> {
    match byte_len {
        0 => 0..0,
        n => byte_start / page_bytes..(byte_start + n - 1) / page_bytes + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeserializeApp;
    use morpheus_flash::{FlashGeometry, FlashTiming};
    use morpheus_format::{FieldKind, ParsedColumns, Schema};
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
        let mut bytes = out.output.to_vec();
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
        let mut bytes = a.output.to_vec();
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
        let (data, _) = m.dev.read_range(64, 1, dein.done).unwrap();
        let cols = ParsedColumns::decode(edge_schema(), &data[..16]).unwrap();
        assert_eq!(cols.columns[0].as_ints().unwrap(), &[9, 7]);
    }

    #[test]
    fn protocol_round_trip_returns_completion() {
        let mut m = mssd();
        let cmd = MorpheusCommand::Deinit { instance_id: 3 }.into_command(11, 1);
        let e = m.protocol_round_trip(cmd, StatusCode::Success, 42);
        assert_eq!(e.cid, 11);
        assert_eq!(e.result, 42);
        assert!(e.status.is_success());
    }

    #[test]
    fn replays_share_the_recorded_output_bytes() {
        // No trailing newline: the last record reaches the host at MDEINIT.
        let text = b"1 2\n3 4\n5 6\n7 8";
        let lifecycle = |m: &mut MorpheusSsd, key: Option<MemoKey>| {
            let app = Box::new(DeserializeApp::new("edges", edge_schema()));
            let t0 = m.minit_keyed(1, app, SimTime::ZERO, key).unwrap();
            let out = m.mread(1, 0, 1, text.len() as u64, t0).unwrap();
            let dein = m.mdeinit(1, out.done).unwrap();
            (out.output, dein.host_output)
        };
        let mut m = mssd();
        m.dev.load_at(0, text).unwrap();
        let (live, live_tail) = lifecycle(&mut m, None);
        assert!(!live.is_empty() && !live_tail.is_empty());
        // A key no other test issues: the first keyed lifecycle records.
        let key = (0x5aa2_ed0b_7e5e_0001, 0x5aa2_ed0b_7e5e_0002);
        let (out, tail) = lifecycle(&mut m, Some(key));
        let rec = deser_memo::device_get(key).expect("published at MDEINIT");
        assert!(
            Arc::ptr_eq(&out, &rec.cmds[0].output),
            "records the live buffer"
        );
        assert!(Arc::ptr_eq(&tail, &rec.host_output));
        for _ in 0..2 {
            let (out, tail) = lifecycle(&mut m, Some(key));
            assert!(
                Arc::ptr_eq(&out, &rec.cmds[0].output),
                "replay copies nothing"
            );
            assert!(Arc::ptr_eq(&tail, &rec.host_output));
            assert_eq!(out, live, "replayed bytes are the live run's");
            assert_eq!(tail, live_tail);
        }
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
        let mut bytes_a = a.output.to_vec();
        bytes_a.extend_from_slice(&d1.host_output);
        let mut bytes_b = b.output.to_vec();
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
