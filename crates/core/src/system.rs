//! Full-system composition (Fig. 5): host, Morpheus-SSD, GPU, PCIe fabric.

use crate::cache::{CacheConfig, CacheStats, ObjectCache};
use crate::faults::FaultInjector;
use crate::firmware::IO_QUEUE_DEPTH;
use crate::{MorpheusSsd, ReplayStore, RunError, SystemParams};
use morpheus_flash::EccModel;
use morpheus_gpu::Gpu;
use morpheus_host::{CodeClass, Cpu, FileMeta, FsError, HostDram, MemBus, OsModel, SimFs};
use morpheus_nvme::{MorpheusCommand, NvmeCommand, StatusCode, LBA_BYTES, MAX_IO_BLOCKS};
use morpheus_pcie::{BarWindow, DeviceId, Fabric};
use morpheus_simcore::{
    Bandwidth, FaultCounters, FaultPlan, Histogram, Interval, SimTime, Timeline, Tracer,
};
use morpheus_ssd::{BoundaryPages, Ssd, SsdError};
use std::sync::Arc;

/// One I/O command's worth of a file: an LBA range plus how many of its
/// bytes are real file content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkIo {
    /// Starting LBA.
    pub slba: u64,
    /// Blocks to transfer.
    pub blocks: u64,
    /// Valid file bytes within the range (the tail of the last block may
    /// be padding).
    pub valid_bytes: u64,
    /// Byte offset of this chunk within the file.
    pub file_offset: u64,
}

impl ChunkIo {
    /// The NVMe READ that lands this chunk in host memory at `buf_addr`.
    pub(crate) fn read_command(&self, buf_addr: u64) -> NvmeCommand {
        NvmeCommand::read(0, 1, self.slba, self.blocks, buf_addr)
    }
}

/// A command bound for an I/O queue pair, with the status and result
/// dword of the completion the device posts for it. Its CID is the
/// pump's to assign ([`System::pump`]).
pub(crate) type WireCmd = (NvmeCommand, StatusCode, u32);

/// Fixed-size bitmap over the full 16-bit command-identifier space.
///
/// The CID allocator probes and clears this on every command issue and
/// completion — the serving hot path — where a `HashSet<u16>` pays a hash
/// and a heap-bucket walk per operation. One bit per CID (8 KiB total)
/// makes membership a shift and mask, with the same insert/remove
/// semantics the set had.
#[derive(Debug)]
pub(crate) struct CidSet {
    words: Box<[u64; 1024]>,
    len: usize,
}

impl CidSet {
    pub(crate) fn new() -> Self {
        CidSet {
            words: Box::new([0u64; 1024]),
            len: 0,
        }
    }

    /// Marks `id` in flight; returns false if it already was.
    pub(crate) fn insert(&mut self, id: u16) -> bool {
        let (w, bit) = (usize::from(id) >> 6, 1u64 << (id & 63));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.len += 1;
        true
    }

    /// Clears `id` after its completion is reaped.
    pub(crate) fn remove(&mut self, id: u16) {
        let (w, bit) = (usize::from(id) >> 6, 1u64 << (id & 63));
        if self.words[w] & bit != 0 {
            self.words[w] &= !bit;
            self.len -= 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The modelled platform: a quad-core Xeon host with DDR3 memory, a PCIe
/// 3.0 fabric, the Morpheus-SSD, and a K20-class GPU.
///
/// Input files are staged once with [`create_input_file`] (bytes live in
/// the simulated flash, behind the FTL); timed runs execute over them via
/// [`System::run`](crate::System::run) and can be repeated —
/// [`reset_timing`] rewinds the clocks without touching storage.
///
/// [`create_input_file`]: System::create_input_file
/// [`reset_timing`]: System::reset_timing
#[derive(Debug)]
pub struct System {
    /// Platform parameters.
    pub params: SystemParams,
    /// Host CPU (DVFS operating point lives here).
    pub cpu: Cpu,
    /// Host core pool timeline.
    pub cpu_cores: Timeline,
    /// OS overhead model and accounting.
    pub os: OsModel,
    /// CPU-memory bus.
    pub membus: MemBus,
    /// Host DRAM occupancy.
    pub dram: HostDram,
    /// The mini filesystem over the SSD's logical block space.
    pub fs: SimFs,
    /// The Morpheus-SSD.
    pub mssd: MorpheusSsd,
    /// The GPU.
    pub gpu: Gpu,
    /// The PCIe switch fabric.
    pub fabric: Fabric,
    /// Synthetic HDD used by the Fig. 3 conventional-path comparison.
    pub hdd: Timeline,
    pub(crate) ssd_dev: DeviceId,
    pub(crate) gpu_dev: DeviceId,
    pub(crate) gpu_bar: Option<BarWindow>,
    pub(crate) next_instance: u32,
    pub(crate) next_cid: u16,
    /// CIDs handed out but not yet completed. A CID is only unique among
    /// commands in flight (NVMe 1.2 §4.2), so the allocator must skip
    /// these when the 16-bit counter wraps under sustained load.
    pub(crate) in_flight_cids: CidSet,
    /// The pump's scratch for one doorbell wave of tagged commands.
    wave: Vec<NvmeCommand>,
    pub(crate) tracer: Tracer,
    pub(crate) nvme_lat: Histogram,
    /// The installed fault plan (inactive by default).
    pub(crate) fault_plan: FaultPlan,
    /// Armed fault streams + per-run counters; `None` when the plan is
    /// inactive, so the fault-free path costs one branch per site.
    pub(crate) faults: Option<FaultInjector>,
    /// True while the flash error model is overridden by the fault plan
    /// (so clearing the plan restores the configured model).
    media_overridden: bool,
    /// The tiered deserialized-object cache; `None` (the default) is
    /// cache-off and costs nothing. Installed via
    /// [`set_object_cache`](System::set_object_cache); contents survive
    /// [`reset_timing`](System::reset_timing) like staged files do.
    pub(crate) object_cache: Option<ObjectCache>,
    /// Per-file content digests backing the deserialization memo keys
    /// (`deser_memo`); dropped whenever the file mutates.
    pub(crate) deser_digests: std::collections::HashMap<String, u64>,
    /// The replay memo runs record into and replay from; `None` is
    /// memo-off. See [`set_replay_store`](System::set_replay_store).
    pub(crate) replay: Option<Arc<ReplayStore>>,
}

impl System {
    /// Builds the platform, with a fresh [`ReplayStore`] of its own.
    pub fn new(params: SystemParams) -> Self {
        let ssd = Ssd::with_ecc(
            params.ssd,
            params.flash_geometry,
            params.flash_timing,
            params.flash_ecc,
            params.flash_seed,
        );
        let mut fabric = Fabric::new(params.root_link);
        let ssd_dev = fabric.add_device("morpheus-ssd", params.ssd_link);
        let gpu_dev = fabric.add_device("gpu", params.gpu_link);
        let fs = SimFs::new(LBA_BYTES, ssd.capacity_lbas());
        let mut cpu = Cpu::new(params.cpu);
        cpu.set_frequency(params.cpu.max_freq_hz);
        System {
            cpu_cores: Timeline::new("host-cpu", params.effective_cores() as usize),
            cpu,
            os: OsModel::new(params.effective_os()),
            membus: MemBus::new(Bandwidth::from_gb_per_s(params.effective_membus_gbs())),
            dram: HostDram::new(params.host_dram_bytes),
            fs,
            mssd: MorpheusSsd::new(ssd, params.device_cost),
            gpu: Gpu::new(params.gpu),
            fabric,
            hdd: Timeline::new("hdd", 1),
            ssd_dev,
            gpu_dev,
            gpu_bar: None,
            next_instance: 1,
            next_cid: 0,
            in_flight_cids: CidSet::new(),
            wave: Vec::new(),
            tracer: Tracer::disabled(),
            nvme_lat: Histogram::new(),
            fault_plan: FaultPlan::none(),
            faults: None,
            media_overridden: false,
            object_cache: None,
            deser_digests: std::collections::HashMap::new(),
            replay: Some(Arc::default()),
            params,
        }
    }

    /// Installs a trace handle across every layer of the platform (host,
    /// NVMe, FTL, flash, StorageApp firmware, PCIe, object cache).
    /// Survives [`reset_timing`](System::reset_timing), so enable it once
    /// and every subsequent run records. Disabled by default at zero cost.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mssd.set_tracer(tracer.clone());
        self.fabric.set_tracer(tracer.clone());
        if let Some(c) = self.object_cache.as_mut() {
            c.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// The installed trace handle (disabled unless
    /// [`set_tracer`](System::set_tracer) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Installs a fault-injection plan (clear it with an inactive plan,
    /// e.g. [`FaultPlan::none`]). Takes effect at the next run:
    /// [`System::run`](crate::System::run) re-arms every fault stream from
    /// the plan's seed in [`reset_timing`](System::reset_timing), so
    /// repeated runs see identical fault schedules.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// The installed fault plan (inactive by default).
    pub fn fault_plan(&self) -> FaultPlan {
        self.fault_plan
    }

    /// Fault/recovery counters of the current (or last finished) run. All
    /// zero when no plan is installed.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// The rendered cause chain of the last host fallback this run, if a
    /// Morpheus-mode run degraded to host-side deserialization.
    pub fn last_fallback_cause(&self) -> Option<&str> {
        self.faults
            .as_ref()
            .and_then(|f| f.fallback_cause.as_deref())
    }

    /// Installs (or resizes) the tiered deserialized-object cache, see
    /// `docs/CACHE.md`. The DRAM-tier budget is reserved up front through
    /// the firmware's controller-DRAM accounting
    /// ([`MorpheusSsd::reserve_object_cache`]) and the host spill-tier
    /// budget from host DRAM, so cached objects occupy the same modelled
    /// memory StorageApp instances and request buffers use. A config with
    /// both capacities zero uninstalls the cache (cache-off must stay
    /// byte-identical to the pre-cache reports).
    ///
    /// # Panics
    ///
    /// Panics when a tier budget does not fit its memory (a config bug).
    pub fn set_object_cache(&mut self, cfg: CacheConfig) {
        self.clear_object_cache();
        if !cfg.is_enabled() {
            return;
        }
        if cfg.dram_bytes > 0 {
            assert!(
                self.mssd.reserve_object_cache(cfg.dram_bytes),
                "object-cache DRAM tier must fit controller DRAM"
            );
        }
        if cfg.host_bytes > 0 {
            self.dram
                .alloc(cfg.host_bytes)
                .expect("object-cache host tier must fit host DRAM");
        }
        let mut cache = ObjectCache::new(cfg);
        cache.set_tracer(self.tracer.clone());
        self.object_cache = Some(cache);
    }

    /// Uninstalls the object cache and returns its tier reservations.
    pub fn clear_object_cache(&mut self) {
        if let Some(c) = self.object_cache.take() {
            self.mssd.release_object_cache(c.config().dram_bytes);
            self.dram.free(c.config().host_bytes);
        }
    }

    /// Counters and occupancy of the installed object cache (`None` when
    /// no cache is installed).
    pub fn object_cache_stats(&self) -> Option<CacheStats> {
        self.object_cache.as_ref().map(|c| c.stats())
    }

    /// Drops every cached object deserialized from `file` (the
    /// MWRITE/file-mutation invalidation hook; every staging and
    /// serialization path calls this so cached objects can never go
    /// stale). Returns how many entries were dropped.
    pub fn invalidate_cached_objects(&mut self, file: &str) -> u64 {
        // The deser-memo content digest is keyed by name and must never
        // survive a mutation of the underlying bytes.
        self.deser_digests.remove(file);
        // Mutation happens between timed runs; anchor at time zero.
        self.object_cache
            .as_mut()
            .map_or(0, |c| c.invalidate_file(file, SimTime::ZERO))
    }

    /// Replaces a staged file's bytes: the file-mutation path, the same
    /// as [`create_input_file`](System::create_input_file), which replaces
    /// a name that exists.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and drive errors.
    pub fn overwrite_input_file(&mut self, name: &str, data: &[u8]) -> Result<(), SsdError> {
        self.create_input_file(name, data)
    }

    /// Creates a file and stages its bytes on the SSD (untimed: inputs are
    /// on the drive before the measured window starts, as in the paper).
    /// `data` is copied once, into an image the drive's whole pages view;
    /// a page the file shares with a neighbour is merged once, in the
    /// allocation the drive stores (see [`Ssd::load_image`]). Creating a
    /// name that exists replaces the file: objects cached from it are
    /// invalidated and its pages discarded, together with any page it
    /// shared only with files already removed (see [`Ssd::discard`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem and drive errors.
    pub fn create_input_file(&mut self, name: &str, data: &[u8]) -> Result<(), SsdError> {
        self.stage_image(name, &Arc::from(data), &mut BoundaryPages::default())
    }

    /// Creates `name` with room for `len` bytes, replacing any file of
    /// that name: objects cached from it are invalidated and its pages
    /// discarded ([`remove_file`](System::remove_file)). A full volume is
    /// the drive's range error.
    pub(crate) fn create_file(&mut self, name: &str, len: u64) -> Result<FileMeta, SsdError> {
        self.invalidate_cached_objects(name);
        self.remove_file(name)?;
        match self.fs.create(name, len) {
            Ok(meta) => Ok(meta.clone()),
            Err(FsError::NoSpace) => Err(SsdError::LbaOutOfRange {
                slba: 0,
                blocks: len / LBA_BYTES,
            }),
            Err(e) => unreachable!("a free name is created or the volume is full: {e}"),
        }
    }

    /// Removes `name`, if it exists. The bump-allocated filesystem does not
    /// reuse its blocks, so the removed file's pages are trimmed (untimed,
    /// like staging) and their payloads freed: the drive discards the
    /// free gap the file leaves ([`SimFs::gap_around`]), from the previous
    /// live file's end to the next live file's start or the allocator's
    /// frontier. A page the file shared with a live neighbour, or with the
    /// next file to be created, keeps its bytes; a page it shared only
    /// with files already removed goes too. The discard is clamped to the
    /// file's own pages: the rest of the gap went with the files that
    /// held it.
    pub(crate) fn remove_file(&mut self, name: &str) -> Result<(), SsdError> {
        let Ok(old) = self.fs.remove(name) else {
            return Ok(());
        };
        // The bump allocator gives a file one contiguous run of blocks.
        let span = old.extents[0].slba..old.extents[0].slba + old.total_blocks();
        let gap = self.fs.gap_around(span.clone());
        let lbas = self.mssd.dev.lbas_per_page();
        let start = gap.start.max(span.start / lbas * lbas);
        let end = gap.end.min(span.end.div_ceil(lbas) * lbas);
        self.mssd.dev.discard(start, end - start)
    }

    /// [`create_input_file`](System::create_input_file) from a staged
    /// image: the one staging path, which a fleet runs once per device
    /// over one shared image and one `merged` set of boundary pages.
    pub(crate) fn stage_image(
        &mut self,
        name: &str,
        image: &Arc<[u8]>,
        merged: &mut BoundaryPages,
    ) -> Result<(), SsdError> {
        let meta = self.create_file(name, image.len() as u64)?;
        let mut off = 0usize;
        for e in &meta.extents {
            let ext_bytes = (e.blocks * LBA_BYTES) as usize;
            let end = (off + ext_bytes).min(image.len());
            if off >= end {
                break;
            }
            self.mssd.dev.load_image(e.slba, image, off..end, merged)?;
            off = end;
        }
        Ok(())
    }

    /// Reads a staged file back (untimed; functional verification).
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownFile`] for a name the file system does not know,
    /// [`RunError::Ssd`] when the drive fails.
    pub fn read_file_bytes(&mut self, name: &str) -> Result<Vec<u8>, RunError> {
        let meta = self
            .fs
            .open(name)
            .map_err(|_| RunError::UnknownFile(name.to_string()))?
            .clone();
        let mut out = Vec::with_capacity(meta.len as usize);
        self.visit_file(&meta, |bytes| out.extend_from_slice(bytes))?;
        Ok(out)
    }

    /// Hands `visit` a staged file's bytes in order, read untimed and one
    /// flash page's worth at a time, where the drive stores them. Every
    /// piece but the file's last is whole LBAs. Reads each extent whole,
    /// up to the one that holds the file's last byte.
    pub(crate) fn visit_file(
        &mut self,
        meta: &FileMeta,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<(), SsdError> {
        let mut remaining = meta.len as usize;
        for e in &meta.extents {
            if remaining == 0 {
                break;
            }
            for page in self.mssd.dev.read_range_untimed(e.slba, e.blocks)? {
                let bytes = page.bytes();
                let take = remaining.min(bytes.len());
                visit(&bytes[..take]);
                remaining -= take;
            }
        }
        Ok(())
    }

    /// Splits a file into I/O chunks of at most `chunk_bytes` (and at most
    /// the NVMe per-command limit), respecting extent boundaries.
    pub fn file_chunks(meta: &FileMeta, chunk_bytes: u64) -> Vec<ChunkIo> {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        let max_cmd_bytes = MAX_IO_BLOCKS * LBA_BYTES;
        // I/O happens in whole logical blocks: round the stride down to an
        // LBA multiple (only the file's final chunk may be partial).
        let step = (chunk_bytes.min(max_cmd_bytes) / LBA_BYTES).max(1) * LBA_BYTES;
        let mut chunks = Vec::new();
        let mut remaining = meta.len;
        let mut file_offset = 0u64;
        for e in &meta.extents {
            let mut ext_off = 0u64;
            let ext_bytes = e.blocks * LBA_BYTES;
            while ext_off < ext_bytes && remaining > 0 {
                let valid = remaining.min(step).min(ext_bytes - ext_off);
                let blocks = valid.div_ceil(LBA_BYTES);
                chunks.push(ChunkIo {
                    slba: e.slba + ext_off / LBA_BYTES,
                    blocks,
                    valid_bytes: valid,
                    file_offset,
                });
                ext_off += blocks * LBA_BYTES;
                file_offset += valid;
                remaining -= valid;
            }
        }
        chunks
    }

    /// Maps the GPU's device memory into a PCIe BAR (the NVMe-P2P setup
    /// step performed via GPUDirect/DirectGMA) and returns the window.
    pub fn map_gpu_bar(&mut self) -> BarWindow {
        if let Some(w) = self.gpu_bar {
            return w;
        }
        let w = self
            .fabric
            .map_bar(self.gpu_dev, self.gpu.spec().memory_bytes)
            .expect("gpu memory is non-empty");
        self.gpu_bar = Some(w);
        w
    }

    /// The fabric id of the SSD.
    pub fn ssd_device(&self) -> DeviceId {
        self.ssd_dev
    }

    /// Rewinds every clock, counter, and occupancy to time zero while
    /// keeping staged files intact, so successive runs start fresh.
    pub fn reset_timing(&mut self) {
        self.cpu_cores = Timeline::new("host-cpu", self.params.effective_cores() as usize);
        self.os.reset();
        self.membus = MemBus::new(Bandwidth::from_gb_per_s(self.params.effective_membus_gbs()));
        self.dram = HostDram::new(self.params.host_dram_bytes);
        self.hdd.reset();
        // Host DRAM was rebuilt above: re-apply the object cache's host
        // spill-tier reservation (the controller-DRAM reservation lives in
        // the drive's accounting, which reset_timing does not clear).
        if let Some(c) = &self.object_cache {
            if c.config().host_bytes > 0 {
                self.dram
                    .alloc(c.config().host_bytes)
                    .expect("host tier fit at install time");
            }
        }
        self.mssd.reset_timing();
        self.gpu = Gpu::new(self.params.gpu);
        let mut fabric = Fabric::new(self.params.root_link);
        self.ssd_dev = fabric.add_device("morpheus-ssd", self.params.ssd_link);
        self.gpu_dev = fabric.add_device("gpu", self.params.gpu_link);
        // The fabric is rebuilt from scratch: re-arm its trace handle.
        fabric.set_tracer(self.tracer.clone());
        self.fabric = fabric;
        self.gpu_bar = None;
        self.nvme_lat = Histogram::new();
        self.arm_faults();
    }

    /// Re-arms the fault plane for the run about to start: every dice is
    /// rebuilt from the plan's seed (identical streams every run), the
    /// flash error model is re-seeded, the fabric's link dice installed,
    /// and media counters snapshotted so the run's numbers are diffs.
    fn arm_faults(&mut self) {
        if !self.fault_plan.is_active() {
            if self.media_overridden {
                self.mssd
                    .dev
                    .set_error_model(self.params.flash_ecc, self.params.flash_seed);
                self.media_overridden = false;
            }
            self.faults = None;
            return;
        }
        let plan = self.fault_plan;
        if plan.flash_correctable > 0.0 || plan.flash_uncorrectable > 0.0 || self.media_overridden {
            let ecc = EccModel {
                correctable_prob: plan.flash_correctable,
                correction_retries: plan.flash_correction_retries,
                uncorrectable_prob: plan.flash_uncorrectable,
                wear_limit: self.params.flash_ecc.wear_limit,
            };
            let mut stream = plan.stream("flash");
            self.mssd.dev.set_error_model(ecc, stream.next_u64());
            self.media_overridden = true;
        }
        if plan.pcie_degrade > 0.0 {
            self.fabric.set_link_faults(
                plan.dice("pcie-link", plan.pcie_degrade),
                plan.pcie_degrade_factor,
            );
        }
        let flash = self.mssd.dev.ftl().flash().stats();
        let ftl = self.mssd.dev.ftl().stats();
        self.faults = Some(FaultInjector::new(
            plan,
            flash.corrected_reads,
            flash.uncorrectable_reads,
            ftl.read_retries,
        ));
    }

    pub(crate) fn alloc_instance(&mut self) -> u32 {
        let id = self.next_instance;
        self.next_instance += 1;
        id
    }

    /// Allocates the next instance ID the firmware will pin to `core`
    /// (MINIT places instances at `id % cores`), giving callers stable
    /// per-tenant core affinity.
    pub(crate) fn alloc_instance_pinned(&mut self, core: usize, cores: usize) -> u32 {
        debug_assert!(core < cores, "core index out of range");
        while self.next_instance as usize % cores != core {
            self.next_instance += 1;
        }
        self.alloc_instance()
    }

    /// Command identifiers tagged on commands not yet completed: zero
    /// whenever the command pump is not running.
    pub fn cids_in_flight(&self) -> usize {
        self.in_flight_cids.len()
    }

    /// Allocates a command identifier that is unique among commands in
    /// flight, wrapping past CIDs still awaiting completion. The
    /// [`pump`](System::pump) releases it once the completion is reaped.
    fn alloc_cid(&mut self) -> u16 {
        assert!(
            self.in_flight_cids.len() < usize::from(u16::MAX) + 1,
            "all 65536 command identifiers are in flight"
        );
        loop {
            let id = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1);
            if self.in_flight_cids.insert(id) {
                return id;
            }
        }
    }

    /// Books one host wakeup for an NVMe command completion (or the
    /// syscall that issues a command) on a host core, no earlier than
    /// `at`: the OS path of [`OsModel::command_completion`], priced as
    /// kernel code. Returns the core grant.
    pub fn command_wakeup(&mut self, at: SimTime) -> Interval {
        let c = self.os.command_completion();
        self.cpu_cores
            .acquire(at, self.cpu.duration(c.instructions, CodeClass::OsKernel))
    }

    /// Drives `wire` through I/O queue pair `qid` of the drive's
    /// controller: the one place a command crosses the wire, so a CID is
    /// in flight only inside this call. Each doorbell-coalesced wave tags
    /// up to a ring's worth of commands with free CIDs and submits them
    /// with one tail-doorbell write; the device pops each, its codec must
    /// round-trip byte-exact (and a Morpheus command parse, or this
    /// panics), and its completion is posted and reaped and its CID freed.
    pub(crate) fn pump(&mut self, qid: u16, wire: &[WireCmd]) {
        let mut tagged = std::mem::take(&mut self.wave);
        for wave in wire.chunks(IO_QUEUE_DEPTH) {
            tagged.clear();
            for (cmd, _, _) in wave {
                let cid = self.alloc_cid();
                tagged.push(NvmeCommand { cid, ..*cmd });
            }
            let qp = self.mssd.admin.io_queue(qid).expect("queue created");
            qp.sq.submit_batch(&tagged).expect("a wave fits the ring");
            for (sent, (_, status, result)) in tagged.iter().zip(wave) {
                let popped = qp.sq.pop().expect("just submitted");
                let decoded = NvmeCommand::decode(&popped.encode()).expect("codec round-trips");
                assert_eq!(decoded, *sent, "wire corruption");
                if decoded.opcode.is_morpheus() {
                    MorpheusCommand::parse(&decoded).expect("morpheus command parses");
                }
                qp.cq
                    .post(decoded.cid, *status, *result)
                    .expect("host reaps promptly");
                let e = qp.cq.reap().expect("completion just posted");
                self.in_flight_cids.remove(e.cid);
            }
        }
        self.wave = tagged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::IO_QUEUE_ID;
    use morpheus_flash::FlashGeometry;
    use morpheus_ftl::Lpn;

    fn small_system() -> System {
        let mut p = SystemParams::paper_testbed();
        p.flash_geometry = FlashGeometry::small();
        System::new(p)
    }

    #[test]
    fn file_round_trips_through_flash() {
        let mut sys = small_system();
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        sys.create_input_file("input.bin", &data).unwrap();
        assert_eq!(sys.read_file_bytes("input.bin").unwrap(), data);
    }

    #[test]
    fn an_overwrite_discards_only_the_old_files_whole_pages() {
        let mut sys = small_system();
        let file = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|i| ((i * 7 + salt) % 251) as u8).collect()
        };
        let before = [file(50_001, 1), file(70_003, 2), file(33_333, 3)];
        for (name, data) in ["a", "b", "c"].iter().zip(&before) {
            sys.create_input_file(name, data).unwrap();
        }
        let old = sys.fs.open("b").unwrap().extents.clone();
        let rewritten = file(41_000, 4);
        sys.overwrite_input_file("b", &rewritten).unwrap();
        assert_eq!(sys.read_file_bytes("a").unwrap(), before[0]);
        assert_eq!(sys.read_file_bytes("c").unwrap(), before[2]);
        assert_eq!(sys.read_file_bytes("b").unwrap(), rewritten);
        // Old `b` starts and ends inside pages it shares with `a` and `c`:
        // those stay, every page wholly inside it is gone.
        let lbas = sys.mssd.dev.lbas_per_page();
        let ftl = sys.mssd.dev.ftl();
        let (first, end) = (
            old[0].slba,
            old[old.len() - 1].slba + old[old.len() - 1].blocks,
        );
        assert!(first % lbas != 0 && end % lbas != 0);
        assert!(ftl.translate(Lpn(first / lbas)).is_some());
        assert!(ftl.translate(Lpn(end / lbas)).is_some());
        let whole = first.div_ceil(lbas)..end / lbas;
        assert!(whole.end - whole.start > 10);
        for lpn in whole {
            assert_eq!(ftl.translate(Lpn(lpn)), None, "page {lpn}");
        }
    }

    #[test]
    fn a_boundary_page_goes_once_no_live_or_next_file_shares_it() {
        let mut sys = small_system();
        let file = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|i| ((i * 7 + salt) % 251) as u8).collect()
        };
        // `t` lies inside the page `a` ends in and `b` starts in, and `c`
        // ends inside the page the next file will start in.
        let names = ["a", "t", "b", "c"];
        let data = [
            file(50_001, 1),
            file(1_000, 2),
            file(30_000, 3),
            file(20_000, 4),
        ];
        for (name, bytes) in names.iter().zip(&data) {
            sys.create_input_file(name, bytes).unwrap();
        }
        let lbas = sys.mssd.dev.lbas_per_page();
        let span = |sys: &System, name: &str| {
            let meta = sys.fs.open(name).unwrap();
            meta.extents[0].slba..meta.extents[0].slba + meta.total_blocks()
        };
        let [a, t, b, c] = names.map(|n| span(&sys, n));
        let (ab, bc, frontier) = (t.start / lbas, c.start / lbas, c.end / lbas);
        assert_eq!(
            ((a.end - 1) / lbas, (t.end - 1) / lbas, b.start / lbas),
            (ab, ab, ab)
        );
        assert_eq!((b.end - 1) / lbas, bc);
        assert!(b.end % lbas != 0 && c.end % lbas != 0);
        let mapped = |sys: &System, lpn: u64| sys.mssd.dev.ftl().translate(Lpn(lpn)).is_some();
        let intact = |sys: &mut System, live: &[usize]| {
            for &i in live {
                assert_eq!(
                    sys.read_file_bytes(names[i]).unwrap(),
                    data[i],
                    "{}",
                    names[i]
                );
            }
        };

        // `a` and `b` still cover `t`'s page.
        sys.remove_file("t").unwrap();
        assert!(mapped(&sys, ab));
        intact(&mut sys, &[0, 2, 3]);
        // `a`'s pages go, but not the one `b` still covers.
        sys.remove_file("a").unwrap();
        assert!((0..ab).all(|lpn| !mapped(&sys, lpn)));
        assert!(mapped(&sys, ab));
        intact(&mut sys, &[2, 3]);
        // `b` was the last live file in that page, so it goes with `b`'s
        // own; the page `b` shares with `c` stays.
        sys.remove_file("b").unwrap();
        assert!((ab..bc).all(|lpn| !mapped(&sys, lpn)));
        assert!(mapped(&sys, bc));
        intact(&mut sys, &[3]);
        // With `c` every page goes but the frontier page, which the next
        // file shares.
        sys.remove_file("c").unwrap();
        assert!((bc..frontier).all(|lpn| !mapped(&sys, lpn)));
        assert!(mapped(&sys, frontier));
        let next = file(9_000, 5);
        sys.create_input_file("d", &next).unwrap();
        assert_eq!(span(&sys, "d").start, c.end);
        assert_eq!(sys.read_file_bytes("d").unwrap(), next);
    }

    #[test]
    fn creating_a_name_that_exists_replaces_the_file() {
        let mut sys = small_system();
        let first: Vec<u8> = (0..90_000u32).map(|i| (i % 239) as u8).collect();
        let second: Vec<u8> = (0..41_000u32).map(|i| (i % 233) as u8).collect();
        sys.create_input_file("twice.bin", &first).unwrap();
        let old = sys.fs.open("twice.bin").unwrap().extents.clone();
        sys.create_input_file("twice.bin", &second).unwrap();
        assert_eq!(sys.read_file_bytes("twice.bin").unwrap(), second);
        // The first file's whole pages are gone.
        let lbas = sys.mssd.dev.lbas_per_page();
        let whole = old[0].slba.div_ceil(lbas)..(old[0].slba + old[0].blocks) / lbas;
        assert!(whole.end > whole.start);
        for lpn in whole {
            assert_eq!(sys.mssd.dev.ftl().translate(Lpn(lpn)), None, "page {lpn}");
        }
    }

    #[test]
    fn chunks_cover_file_exactly_once() {
        let mut sys = small_system();
        sys.fs.set_max_extent_blocks(16); // force fragmentation
        let data = vec![7u8; 40_000];
        sys.create_input_file("frag.bin", &data).unwrap();
        let meta = sys.fs.open("frag.bin").unwrap().clone();
        let chunks = System::file_chunks(&meta, 4096);
        let total: u64 = chunks.iter().map(|c| c.valid_bytes).sum();
        assert_eq!(total, 40_000);
        // Offsets are contiguous.
        let mut expect = 0;
        for c in &chunks {
            assert_eq!(c.file_offset, expect);
            expect += c.valid_bytes;
            assert!(c.blocks * LBA_BYTES >= c.valid_bytes);
        }
    }

    #[test]
    fn gpu_bar_mapped_once() {
        let mut sys = small_system();
        let a = sys.map_gpu_bar();
        let b = sys.map_gpu_bar();
        assert_eq!(a, b);
    }

    #[test]
    fn reset_timing_keeps_files() {
        let mut sys = small_system();
        sys.create_input_file("keep.bin", b"persistent").unwrap();
        sys.cpu_cores.acquire(
            morpheus_simcore::SimTime::ZERO,
            morpheus_simcore::SimDuration::from_secs(1),
        );
        sys.reset_timing();
        assert!(sys.cpu_cores.busy().is_zero());
        assert_eq!(sys.read_file_bytes("keep.bin").unwrap(), b"persistent");
    }

    #[test]
    fn instance_and_cid_allocation_advances() {
        let mut sys = small_system();
        assert_ne!(sys.alloc_instance(), sys.alloc_instance());
        assert_ne!(sys.alloc_cid(), sys.alloc_cid());
    }

    #[test]
    fn pinned_instances_land_on_requested_core() {
        let mut sys = small_system();
        for core in [2usize, 0, 3, 3, 1] {
            let iid = sys.alloc_instance_pinned(core, 4);
            assert_eq!(iid as usize % 4, core);
        }
    }

    #[test]
    fn the_pump_drains_bursts_past_the_ring_and_the_cid_space() {
        // A burst longer than the ring goes in waves of one doorbell each;
        // 70 000 commands also wrap the 16-bit CID counter, which must
        // skip the CIDs a caller still holds.
        let mut sys = small_system();
        let held: Vec<u16> = (0..8).map(|_| sys.alloc_cid()).collect();
        let cmd = NvmeCommand::new(morpheus_nvme::IoOpcode::Flush, 0, 1);
        let wire = vec![(cmd, StatusCode::Success, 0); 70_000];
        sys.pump(IO_QUEUE_ID, &wire);
        let qp = sys.mssd.admin.io_queue(IO_QUEUE_ID).unwrap();
        assert_eq!(qp.sq.doorbell_writes(), 70_000u64.div_ceil(64));
        assert!(qp.sq.is_empty(), "the device popped every command");
        assert_eq!(qp.cq.outstanding(), 0, "every completion was reaped");
        assert_eq!(sys.in_flight_cids.len(), held.len(), "only the held CIDs");
        for cid in held {
            assert!(!sys.in_flight_cids.insert(cid), "CID {cid} stayed held");
        }
    }
}
