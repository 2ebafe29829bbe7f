//! The SSD controller: timed logical-block I/O over the FTL.

use crate::{EmbeddedCorePool, SsdConfig, SsdError};
use morpheus_flash::{FlashArray, FlashGeometry, FlashOp, FlashOpKind, FlashTiming, PageData};
use morpheus_ftl::{Ftl, Lpn};
use morpheus_nvme::LBA_BYTES;
use morpheus_simcore::{Histogram, SimTime, Timeline, TraceLayer, Tracer};
use std::borrow::Cow;

/// A zero-copy view of one logical page served by the controller.
///
/// Wraps the FTL's [`PageData`] handle (sharing the flash array's stored
/// allocation) or represents an unmapped page, which reads as zeros
/// without any backing allocation. Stored payloads may be shorter than
/// the flash page; accessors zero-extend to page size.
#[derive(Debug, Clone)]
pub struct PageRead {
    data: Option<PageData>,
    page_bytes: usize,
}

impl PageRead {
    /// Logical size of the page in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// The shared payload handle, or `None` for an unmapped page.
    pub fn data(&self) -> Option<&PageData> {
        self.data.as_ref()
    }

    /// Appends bytes `lo..hi` of the page onto `out`, zero-extending past
    /// the stored payload. This is the read path's single payload copy —
    /// straight from the flash array's allocation into the caller's
    /// destination buffer.
    pub fn copy_into(&self, lo: usize, hi: usize, out: &mut Vec<u8>) {
        debug_assert!(lo <= hi && hi <= self.page_bytes);
        let stored_end = match &self.data {
            Some(d) => d.len().clamp(lo, hi),
            None => lo,
        };
        if let Some(d) = &self.data {
            out.extend_from_slice(&d[lo..stored_end]);
        }
        out.resize(out.len() + (hi - stored_end), 0);
    }

    /// Bytes `lo..hi` of the page: borrowed straight from the stored
    /// allocation when the range is fully backed (the hot case — the
    /// controller writes whole pages), owned and zero-extended otherwise.
    pub fn slice(&self, lo: usize, hi: usize) -> Cow<'_, [u8]> {
        debug_assert!(lo <= hi && hi <= self.page_bytes);
        match &self.data {
            Some(d) if d.len() >= hi => Cow::Borrowed(&d[lo..hi]),
            _ => {
                let mut v = Vec::with_capacity(hi - lo);
                self.copy_into(lo, hi, &mut v);
                Cow::Owned(v)
            }
        }
    }
}

/// Controller-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsdStats {
    /// Read commands served.
    pub read_commands: u64,
    /// Write commands served.
    pub write_commands: u64,
    /// Bytes returned to the front end.
    pub bytes_read: u64,
    /// Bytes accepted from the front end.
    pub bytes_written: u64,
}

/// The SSD controller.
///
/// Integrates the flash array + FTL (functional storage), per-channel
/// timelines (cell access and channel bus), the embedded core pool
/// (firmware dispatch and, in Morpheus mode, StorageApp execution), and
/// controller DRAM occupancy.
#[derive(Debug)]
pub struct Ssd {
    cfg: SsdConfig,
    ftl: Ftl,
    cores: EmbeddedCorePool,
    channel_cell: Vec<Timeline>,
    channel_bus: Vec<Timeline>,
    dram_used: u64,
    stats: SsdStats,
    tracer: Tracer,
    read_lat: Histogram,
}

impl Ssd {
    /// Creates a controller over an erased flash array.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SsdConfig, geometry: FlashGeometry, timing: FlashTiming) -> Self {
        Self::with_ecc(
            cfg,
            geometry,
            timing,
            morpheus_flash::EccModel::perfect(),
            0,
        )
    }

    /// Creates a controller over an erased flash array with an error
    /// injection model (see [`EccModel`](morpheus_flash::EccModel)).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_ecc(
        cfg: SsdConfig,
        geometry: FlashGeometry,
        timing: FlashTiming,
        ecc: morpheus_flash::EccModel,
        seed: u64,
    ) -> Self {
        cfg.validate();
        let flash = FlashArray::with_ecc(geometry, timing, ecc, seed);
        let ftl = Ftl::new(flash, cfg.ftl);
        let channels = geometry.channels as usize;
        Ssd {
            cores: EmbeddedCorePool::new(cfg.embedded_cores, cfg.core_clock_hz),
            channel_cell: (0..channels)
                .map(|c| Timeline::new(format!("ch{c}-cell"), 1))
                .collect(),
            channel_bus: (0..channels)
                .map(|c| Timeline::new(format!("ch{c}-bus"), 1))
                .collect(),
            cfg,
            ftl,
            dram_used: 0,
            stats: SsdStats::default(),
            tracer: Tracer::disabled(),
            read_lat: Histogram::new(),
        }
    }

    /// Installs a trace handle; flash channel activity and FTL map/GC
    /// events record through it (disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Distribution of timed flash page-read latencies (ready → buffered),
    /// in nanoseconds, since the last [`reset_timing`](Ssd::reset_timing).
    pub fn read_latency(&self) -> &Histogram {
        &self.read_lat
    }

    /// The controller configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// The underlying FTL (for inspection).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Replaces the flash bit-error model and re-seeds its PRNG stream
    /// (see [`FlashArray::set_error_model`]). Stored data and counters are
    /// untouched; the fault plane re-arms this at the start of every run so
    /// repeated runs see identical media-fault streams.
    pub fn set_error_model(&mut self, ecc: morpheus_flash::EccModel, seed: u64) {
        self.ftl.set_error_model(ecc, seed);
    }

    /// The embedded core pool.
    pub fn cores(&self) -> &EmbeddedCorePool {
        &self.cores
    }

    /// Mutable access to the embedded core pool (the Morpheus firmware
    /// extension schedules StorageApp work on it).
    pub fn cores_mut(&mut self) -> &mut EmbeddedCorePool {
        &mut self.cores
    }

    /// Controller statistics.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Logical bytes per flash page.
    pub fn page_bytes(&self) -> u64 {
        self.ftl.page_bytes() as u64
    }

    /// LBAs per flash page.
    pub fn lbas_per_page(&self) -> u64 {
        self.page_bytes() / LBA_BYTES
    }

    /// Namespace capacity in LBAs.
    pub fn capacity_lbas(&self) -> u64 {
        self.ftl.capacity_pages() * self.lbas_per_page()
    }

    /// Reserves controller DRAM (e.g. for StorageApp buffers); `None` when
    /// exhausted.
    pub fn alloc_dram(&mut self, bytes: u64) -> Option<u64> {
        if bytes > self.cfg.dram_bytes - self.dram_used {
            return None;
        }
        self.dram_used += bytes;
        Some(self.dram_used - bytes)
    }

    /// Releases controller DRAM occupancy.
    pub fn free_dram(&mut self, bytes: u64) {
        self.dram_used = self.dram_used.saturating_sub(bytes);
    }

    /// Controller DRAM in use.
    pub fn dram_used(&self) -> u64 {
        self.dram_used
    }

    /// Loads data at an LBA without charging simulated time — used to stage
    /// workload input files before a timed run (the paper's inputs are
    /// likewise on the drive before measurement starts).
    ///
    /// # Errors
    ///
    /// Propagates FTL failures and range errors.
    pub fn load_at(&mut self, slba: u64, data: &[u8]) -> Result<(), SsdError> {
        self.write_bytes(slba, data, None).map(|_| ())
    }

    /// Serves a timed read of `blocks` LBAs starting at `slba`.
    ///
    /// Returns the data and the time it is fully buffered in controller
    /// DRAM (ready for DMA). Page reads stripe across channels and pipeline
    /// on the per-channel cell/bus timelines. Unwritten blocks read as
    /// zeros without touching flash (deallocated-block semantics).
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::LbaOutOfRange`] beyond the namespace and
    /// propagates media failures.
    pub fn read_range(
        &mut self,
        slba: u64,
        blocks: u64,
        ready: SimTime,
    ) -> Result<(Vec<u8>, SimTime), SsdError> {
        self.check_range(slba, blocks)?;
        let dispatch = self
            .cores
            .exec(ready, self.cfg.command_dispatch_instructions);
        let start = dispatch.end;

        let byte_start = slba * LBA_BYTES;
        let byte_len = blocks * LBA_BYTES;
        let page_bytes = self.page_bytes();
        let first_page = byte_start / page_bytes;
        let last_page = (byte_start + byte_len - 1) / page_bytes;

        let mut out = Vec::with_capacity(byte_len as usize);
        let mut done = start;
        for lpn in first_page..=last_page {
            let page_base = lpn * page_bytes;
            let lo = byte_start.max(page_base) - page_base;
            let hi = (byte_start + byte_len).min(page_base + page_bytes) - page_base;
            let (page, avail) = self.read_page_timed(Lpn(lpn), start)?;
            page.copy_into(lo as usize, hi as usize, &mut out);
            done = done.max(avail);
        }
        self.stats.read_commands += 1;
        self.stats.bytes_read += byte_len;
        Ok((out, done))
    }

    /// Serves a timed write of `data` starting at `slba` (read-modify-write
    /// for partial pages).
    ///
    /// Returns the time the write is durable on flash.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::LbaOutOfRange`] beyond the namespace and
    /// propagates FTL failures.
    pub fn write_range(
        &mut self,
        slba: u64,
        data: &[u8],
        ready: SimTime,
    ) -> Result<SimTime, SsdError> {
        let dispatch = self
            .cores
            .exec(ready, self.cfg.command_dispatch_instructions);
        let done = self.write_bytes(slba, data, Some(dispatch.end))?;
        self.stats.write_commands += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(done)
    }

    /// Reads one full logical page with timing, returning a zero-copy
    /// [`PageRead`] handle; unmapped pages read as zeros instantly without
    /// allocating (used by the Morpheus firmware extension, which
    /// pipelines parsing at page granularity).
    pub fn read_page_timed(
        &mut self,
        lpn: Lpn,
        ready: SimTime,
    ) -> Result<(PageRead, SimTime), SsdError> {
        let page_bytes = self.page_bytes() as usize;
        if self.ftl.translate(lpn).is_none() {
            return Ok((
                PageRead {
                    data: None,
                    page_bytes,
                },
                ready,
            ));
        }
        let corrected_before = self.ftl.flash().stats().corrected_reads;
        let outcome = match self.ftl.read(lpn) {
            Ok(o) => o,
            Err(e) => {
                // Retry budget exhausted: the page is lost to the host. The
                // instant marks where recovery (host fallback) begins.
                self.tracer
                    .instant(TraceLayer::Flash, "media", "uncorrectable", ready);
                return Err(e.into());
            }
        };
        self.tracer.instant(TraceLayer::Ftl, "map", "lookup", ready);
        if self.ftl.flash().stats().corrected_reads > corrected_before {
            self.tracer
                .instant(TraceLayer::Flash, "media", "ecc-correction", ready);
        }
        if outcome.retries > 0 {
            self.tracer
                .instant(TraceLayer::Ftl, "map", "read-retry", ready);
        }
        let mut avail = ready;
        for op in &outcome.ops {
            avail = self.apply_op(op, ready);
        }
        self.read_lat.record(avail.duration_since(ready).as_nanos());
        Ok((
            PageRead {
                data: Some(outcome.data),
                page_bytes,
            },
            avail,
        ))
    }

    fn write_bytes(
        &mut self,
        slba: u64,
        data: &[u8],
        timed_from: Option<SimTime>,
    ) -> Result<SimTime, SsdError> {
        let blocks = (data.len() as u64).div_ceil(LBA_BYTES);
        self.check_range(slba, blocks.max(1))?;
        let page_bytes = self.page_bytes();
        let byte_start = slba * LBA_BYTES;
        let byte_len = data.len() as u64;
        if byte_len == 0 {
            return Ok(timed_from.unwrap_or(SimTime::ZERO));
        }
        let first_page = byte_start / page_bytes;
        let last_page = (byte_start + byte_len - 1) / page_bytes;
        let mut done = timed_from.unwrap_or(SimTime::ZERO);
        for lpn in first_page..=last_page {
            let page_base = lpn * page_bytes;
            let lo = byte_start.max(page_base) - page_base;
            let hi = (byte_start + byte_len).min(page_base + page_bytes) - page_base;
            let src = &data
                [(page_base + lo - byte_start) as usize..(page_base + hi - byte_start) as usize];
            let full_page = lo == 0 && hi == page_bytes;
            let mut page;
            if full_page {
                page = src.to_vec();
            } else {
                // Read-modify-write: merge with the existing contents,
                // copying straight out of the read handle's shared
                // allocation into the new page image.
                page = vec![0u8; page_bytes as usize];
                if self.ftl.translate(Lpn(lpn)).is_some() {
                    let outcome = self.ftl.read(Lpn(lpn))?;
                    if let Some(t0) = timed_from {
                        for op in &outcome.ops {
                            done = done.max(self.apply_op(op, t0));
                        }
                    }
                    page[..outcome.data.len()].copy_from_slice(&outcome.data);
                }
                page[lo as usize..hi as usize].copy_from_slice(src);
            }
            let outcome = self.ftl.write(Lpn(lpn), &page)?;
            if let Some(t0) = timed_from {
                for op in &outcome.ops {
                    done = done.max(self.apply_op(op, t0));
                }
                self.tracer.instant(TraceLayer::Ftl, "map", "update", t0);
                if outcome.gc_relocations > 0 {
                    self.tracer.instant_bytes(
                        TraceLayer::Ftl,
                        "map",
                        "gc",
                        t0,
                        u64::from(outcome.gc_relocations) * page_bytes,
                    );
                }
            }
        }
        Ok(done)
    }

    /// Charges one flash operation to its channel timelines and returns the
    /// time it completes.
    fn apply_op(&mut self, op: &FlashOp, ready: SimTime) -> SimTime {
        let ch = op.channel as usize;
        match op.kind {
            FlashOpKind::Read => {
                let cell = self.channel_cell[ch].acquire(ready, op.cell_time);
                let bus = self.channel_bus[ch].acquire(cell.end, op.bus_time);
                self.tracer.span(
                    TraceLayer::Flash,
                    self.channel_cell[ch].name(),
                    "read-cell",
                    cell.start,
                    cell.end,
                );
                self.tracer.span(
                    TraceLayer::Flash,
                    self.channel_bus[ch].name(),
                    "read-bus",
                    bus.start,
                    bus.end,
                );
                bus.end
            }
            FlashOpKind::Program => {
                let bus = self.channel_bus[ch].acquire(ready, op.bus_time);
                let cell = self.channel_cell[ch].acquire(bus.end, op.cell_time);
                self.tracer.span(
                    TraceLayer::Flash,
                    self.channel_bus[ch].name(),
                    "program-bus",
                    bus.start,
                    bus.end,
                );
                self.tracer.span(
                    TraceLayer::Flash,
                    self.channel_cell[ch].name(),
                    "program-cell",
                    cell.start,
                    cell.end,
                );
                cell.end
            }
            FlashOpKind::Erase => {
                let cell = self.channel_cell[ch].acquire(ready, op.cell_time);
                self.tracer.span(
                    TraceLayer::Flash,
                    self.channel_cell[ch].name(),
                    "erase",
                    cell.start,
                    cell.end,
                );
                cell.end
            }
        }
    }

    /// Reads a range without charging simulated time (used when another
    /// storage device is being modelled over the same stored bytes, or for
    /// functional verification).
    ///
    /// # Errors
    ///
    /// Same as [`read_range`](Ssd::read_range).
    pub fn read_range_untimed(&mut self, slba: u64, blocks: u64) -> Result<Vec<u8>, SsdError> {
        self.check_range(slba, blocks)?;
        let page_bytes = self.page_bytes();
        let byte_start = slba * LBA_BYTES;
        let byte_len = blocks * LBA_BYTES;
        let first_page = byte_start / page_bytes;
        let last_page = (byte_start + byte_len - 1) / page_bytes;
        let mut out = Vec::with_capacity(byte_len as usize);
        for lpn in first_page..=last_page {
            let page_base = lpn * page_bytes;
            let lo = byte_start.max(page_base) - page_base;
            let hi = (byte_start + byte_len).min(page_base + page_bytes) - page_base;
            let page = PageRead {
                data: match self.ftl.translate(Lpn(lpn)) {
                    Some(_) => Some(self.ftl.read(Lpn(lpn))?.data),
                    None => None,
                },
                page_bytes: page_bytes as usize,
            };
            page.copy_into(lo as usize, hi as usize, &mut out);
        }
        Ok(out)
    }

    /// Resets every timeline and counter to time zero while keeping the
    /// stored data (used between runs over the same staged input).
    pub fn reset_timing(&mut self) {
        self.cores.reset();
        for t in &mut self.channel_cell {
            t.reset();
        }
        for t in &mut self.channel_bus {
            t.reset();
        }
        self.stats = SsdStats::default();
        self.read_lat = Histogram::new();
    }

    fn check_range(&self, slba: u64, blocks: u64) -> Result<(), SsdError> {
        if blocks == 0 || slba + blocks > self.capacity_lbas() {
            return Err(SsdError::LbaOutOfRange { slba, blocks });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ssd() -> Ssd {
        Ssd::new(
            SsdConfig::default(),
            FlashGeometry::small(),
            FlashTiming::default(),
        )
    }

    #[test]
    fn load_then_read_round_trips() {
        let mut ssd = small_ssd();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        ssd.load_at(3, &data).unwrap();
        let blocks = (data.len() as u64).div_ceil(LBA_BYTES);
        let (read, done) = ssd.read_range(3, blocks, SimTime::ZERO).unwrap();
        assert_eq!(&read[..data.len()], &data[..]);
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn unwritten_blocks_read_zero_instantly() {
        let mut ssd = small_ssd();
        let (data, done) = ssd.read_range(100, 2, SimTime::ZERO).unwrap();
        assert!(data.iter().all(|b| *b == 0));
        // Only the dispatch cost, no flash time.
        let dispatch = ssd
            .cores()
            .duration(ssd.config().command_dispatch_instructions);
        assert_eq!(done, SimTime::ZERO + dispatch);
    }

    #[test]
    fn timed_write_then_read() {
        let mut ssd = small_ssd();
        let done = ssd.write_range(0, b"abcdef", SimTime::ZERO).unwrap();
        assert!(done > SimTime::ZERO);
        let (data, _) = ssd.read_range(0, 1, SimTime::ZERO).unwrap();
        assert_eq!(&data[..6], b"abcdef");
    }

    #[test]
    fn partial_page_write_preserves_neighbours() {
        let mut ssd = small_ssd();
        let page = vec![7u8; ssd.page_bytes() as usize];
        ssd.load_at(0, &page).unwrap();
        // Overwrite LBA 1 only (512 bytes inside the first page).
        ssd.write_range(1, &[9u8; 512], SimTime::ZERO).unwrap();
        let (data, _) = ssd
            .read_range(0, ssd.lbas_per_page(), SimTime::ZERO)
            .unwrap();
        assert!(data[..512].iter().all(|b| *b == 7));
        assert!(data[512..1024].iter().all(|b| *b == 9));
        assert!(data[1024..].iter().all(|b| *b == 7));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ssd = small_ssd();
        let cap = ssd.capacity_lbas();
        assert!(matches!(
            ssd.read_range(cap, 1, SimTime::ZERO),
            Err(SsdError::LbaOutOfRange { .. })
        ));
        assert!(matches!(
            ssd.read_range(0, 0, SimTime::ZERO),
            Err(SsdError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn multi_page_reads_pipeline_across_channels() {
        let mut ssd = small_ssd();
        let page = ssd.page_bytes() as usize;
        let data = vec![1u8; page * 4];
        ssd.load_at(0, &data).unwrap();
        let blocks = (page as u64 * 4) / LBA_BYTES;
        let (_, done) = ssd.read_range(0, blocks, SimTime::ZERO).unwrap();
        // Four pages striped over two channels: roughly two serialized page
        // reads per channel, far below four fully serial reads.
        let t = ssd.ftl().flash().timing();
        let serial = (t.read_latency + t.bus_transfer(page as u64)) * 4;
        assert!(done.as_nanos() < serial.as_nanos());
    }

    #[test]
    fn dram_accounting() {
        let mut ssd = small_ssd();
        assert!(ssd.alloc_dram(1 << 20).is_some());
        assert_eq!(ssd.dram_used(), 1 << 20);
        ssd.free_dram(1 << 20);
        assert_eq!(ssd.dram_used(), 0);
        assert!(ssd.alloc_dram(u64::MAX).is_none());
    }

    #[test]
    fn stats_count_commands_and_bytes() {
        let mut ssd = small_ssd();
        ssd.write_range(0, &[1u8; 512], SimTime::ZERO).unwrap();
        ssd.read_range(0, 1, SimTime::ZERO).unwrap();
        let s = ssd.stats();
        assert_eq!(s.read_commands, 1);
        assert_eq!(s.write_commands, 1);
        assert_eq!(s.bytes_read, 512);
        assert_eq!(s.bytes_written, 512);
    }
}
