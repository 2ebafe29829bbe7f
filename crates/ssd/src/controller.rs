//! The SSD controller: timed logical-block I/O over the FTL.

use crate::{EmbeddedCorePool, SsdConfig, SsdError};
use morpheus_flash::{FlashArray, FlashGeometry, FlashOp, FlashOpKind, FlashTiming, PageData};
use morpheus_ftl::{Ftl, Lpn};
use morpheus_nvme::LBA_BYTES;
use morpheus_simcore::{Histogram, SimTime, Timeline, TraceLayer, Tracer};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// A zero-copy view of the bytes a read covers in one logical page.
///
/// Wraps the FTL's [`PageData`] handle (sharing the flash array's stored
/// allocation) or represents an unmapped page, which reads as zeros
/// without any backing allocation. Stored payloads may be shorter than
/// the flash page; accessors zero-extend them. A range read
/// ([`Ssd::read_range`]) hands out one view per page it covers, so a
/// caller that parses or hashes the bytes reads them where flash stores
/// them, and one that needs them contiguous gathers them
/// ([`PageRead::gather`]): the only copy on the read path.
#[derive(Debug, Clone)]
pub struct PageRead {
    data: Option<PageData>,
    range: Range<usize>,
}

impl PageRead {
    /// The bytes of the page this read covers, as offsets into the page.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// How many bytes this read covers.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True when the read covers no byte.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The shared payload handle, or `None` for an unmapped page.
    pub fn data(&self) -> Option<&PageData> {
        self.data.as_ref()
    }

    /// The covered bytes: borrowed straight from the stored allocation
    /// when the payload backs them all (the hot case: the controller
    /// writes whole pages), owned and zero-extended otherwise.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match &self.data {
            Some(d) if d.len() >= self.range.end => Cow::Borrowed(&d[self.range.clone()]),
            _ => {
                let mut v = Vec::with_capacity(self.len());
                self.copy_into(&mut v);
                Cow::Owned(v)
            }
        }
    }

    /// Appends the covered bytes onto `out`, zero-extending past the
    /// stored payload.
    fn copy_into(&self, out: &mut Vec<u8>) {
        let Range { start, end } = self.range;
        let stored_end = match &self.data {
            Some(d) => d.len().clamp(start, end),
            None => start,
        };
        if let Some(d) = &self.data {
            out.extend_from_slice(&d[start..stored_end]);
        }
        out.resize(out.len() + (end - stored_end), 0);
    }

    /// The bytes of `pages`, in order, in one buffer of their own.
    pub fn gather(pages: &[PageRead]) -> Vec<u8> {
        let mut out = Vec::with_capacity(pages.iter().map(PageRead::len).sum());
        for p in pages {
            p.copy_into(&mut out);
        }
        out
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

    /// The logical pages that namespace bytes `start..start + len` cover,
    /// in order, each with the bytes of the page the range holds; none
    /// when `len` is 0. The size hint is the exact page count.
    pub fn page_spans(&self, start: u64, len: u64) -> impl Iterator<Item = (Lpn, Range<usize>)> {
        let (page_bytes, end) = (self.page_bytes(), start + len);
        let pages = match len {
            0 => 0..0,
            _ => start / page_bytes..end.div_ceil(page_bytes),
        };
        pages.map(move |lpn| {
            let base = lpn * page_bytes;
            let (lo, hi) = (start.max(base) - base, end.min(base + page_bytes) - base);
            (Lpn(lpn), lo as usize..hi as usize)
        })
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

    /// Loads data at an LBA without charging simulated time (see
    /// [`load_image`](Ssd::load_image); `data` is copied once).
    ///
    /// # Errors
    ///
    /// Propagates FTL failures and range errors.
    pub fn load_at(&mut self, slba: u64, data: &[u8]) -> Result<(), SsdError> {
        let mut merged = BoundaryPages::default();
        self.load_image(slba, &Arc::from(data), 0..data.len(), &mut merged)
    }

    /// Loads bytes `range` of `image` at an LBA without charging simulated
    /// time — used to stage workload input files before a timed run (the
    /// paper's inputs are likewise on the drive before measurement
    /// starts). Every whole page becomes a view of `image`, so the bytes
    /// are not copied and drives staging one image share it. A page the
    /// range covers in part is merged with the page's current contents
    /// (read-modify-write), so a neighbour's bytes in it survive; the
    /// merge is built once per staging call: when `merged` already holds a
    /// page with exactly the merged bytes (another replica built it), this
    /// drive programs a view of that page. Either way the drive reads its
    /// old page and writes the new one through its own FTL, so its map,
    /// stats and wear are what a private copy would leave.
    ///
    /// # Errors
    ///
    /// Propagates FTL failures and range errors.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie inside `image`.
    pub fn load_image(
        &mut self,
        slba: u64,
        image: &Arc<[u8]>,
        range: Range<usize>,
        merged: &mut BoundaryPages,
    ) -> Result<(), SsdError> {
        self.write_bytes(slba, image, range, None, merged)
            .map(|_| ())
    }

    /// Discards every page lying wholly inside LBAs `slba..slba + blocks`
    /// (an untimed TRIM through [`Ftl::trim`]): the pages go stale and the
    /// flash array frees their payloads. A page the range covers in part
    /// keeps its bytes, since a neighbour may share it. A discarded page
    /// reads as zeros, like a never-written one. A caller that passes the
    /// whole free gap around a removed file (as `System::remove_file`
    /// does) also trims the pages the file shared with neighbours that
    /// are gone, while a page shared with a live file or with the next
    /// allocation stays partial and keeps its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::LbaOutOfRange`] beyond the namespace.
    pub fn discard(&mut self, slba: u64, blocks: u64) -> Result<(), SsdError> {
        self.check_range(slba, blocks)?;
        let lbas = self.lbas_per_page();
        for lpn in slba.div_ceil(lbas)..(slba + blocks) / lbas {
            self.ftl.trim(Lpn(lpn))?;
        }
        Ok(())
    }

    /// Serves a timed read of `blocks` LBAs starting at `slba`.
    ///
    /// Returns one [`PageRead`] view per flash page the range covers, in
    /// order, and the time they are all buffered in controller DRAM
    /// (ready for DMA). Every page is timed before this returns: page
    /// reads stripe across channels and pipeline on the per-channel
    /// cell/bus timelines. Unwritten blocks read as zeros without touching
    /// flash (deallocated-block semantics).
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
    ) -> Result<(Vec<PageRead>, SimTime), SsdError> {
        self.check_range(slba, blocks)?;
        let dispatch = self
            .cores
            .exec(ready, self.cfg.command_dispatch_instructions);
        let start = dispatch.end;
        let spans = self.page_spans(slba * LBA_BYTES, blocks * LBA_BYTES);
        let mut pages = Vec::with_capacity(spans.size_hint().0);
        let mut done = start;
        for (lpn, range) in spans {
            let (page, avail) = self.read_page_timed(lpn, range, start)?;
            pages.push(page);
            done = done.max(avail);
        }
        self.stats.read_commands += 1;
        self.stats.bytes_read += blocks * LBA_BYTES;
        Ok((pages, done))
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
        let image = Arc::from(data);
        let mut merged = BoundaryPages::default();
        let done =
            self.write_bytes(slba, &image, 0..data.len(), Some(dispatch.end), &mut merged)?;
        self.stats.write_commands += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(done)
    }

    /// Reads one logical page with timing, returning a zero-copy
    /// [`PageRead`] view of its bytes `range`; unmapped pages read as zeros
    /// instantly without allocating (used by the Morpheus firmware
    /// extension, which pipelines parsing at page granularity).
    pub fn read_page_timed(
        &mut self,
        lpn: Lpn,
        range: Range<usize>,
        ready: SimTime,
    ) -> Result<(PageRead, SimTime), SsdError> {
        debug_assert!(range.start <= range.end && range.end <= self.page_bytes() as usize);
        if self.ftl.translate(lpn).is_none() {
            return Ok((PageRead { data: None, range }, ready));
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
        for op in outcome.ops() {
            avail = self.apply_op(&op, ready);
        }
        self.read_lat.record(avail.duration_since(ready).as_nanos());
        let data = Some(outcome.data);
        Ok((PageRead { data, range }, avail))
    }

    /// Writes bytes `range` of `image` from LBA `slba`: whole pages as
    /// views of `image`, partial pages by read-modify-write, sharing a
    /// page of `merged` whose bytes the merge would reproduce.
    fn write_bytes(
        &mut self,
        slba: u64,
        image: &Arc<[u8]>,
        range: Range<usize>,
        timed_from: Option<SimTime>,
        merged: &mut BoundaryPages,
    ) -> Result<SimTime, SsdError> {
        let blocks = (range.len() as u64).div_ceil(LBA_BYTES);
        self.check_range(slba, blocks.max(1))?;
        let page_bytes = self.page_bytes();
        let mut done = timed_from.unwrap_or(SimTime::ZERO);
        let mut next = range.start;
        for (lpn, bytes) in self.page_spans(slba * LBA_BYTES, range.len() as u64) {
            let src = next..next + bytes.len();
            next = src.end;
            let page = if bytes.len() as u64 == page_bytes {
                PageData::view(image, src)
            } else {
                // Read-modify-write: merge with the existing contents.
                let mut old = None;
                if self.ftl.translate(lpn).is_some() {
                    let outcome = self.ftl.read(lpn)?;
                    if let Some(t0) = timed_from {
                        for op in outcome.ops() {
                            done = done.max(self.apply_op(&op, t0));
                        }
                    }
                    old = Some(outcome.data);
                }
                let merge = Merge {
                    old: old.as_deref().unwrap_or_default(),
                    at: bytes.start,
                    new: &image[src],
                    page_bytes: page_bytes as usize,
                };
                merged.share_or_build(lpn, old.as_ref(), &merge)
            };
            let outcome = self.ftl.write_data(lpn, page)?;
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
    /// functional verification): the same views as
    /// [`read_range`](Ssd::read_range).
    ///
    /// # Errors
    ///
    /// Same as [`read_range`](Ssd::read_range).
    pub fn read_range_untimed(
        &mut self,
        slba: u64,
        blocks: u64,
    ) -> Result<Vec<PageRead>, SsdError> {
        self.check_range(slba, blocks)?;
        let spans = self.page_spans(slba * LBA_BYTES, blocks * LBA_BYTES);
        let mut pages = Vec::with_capacity(spans.size_hint().0);
        for (lpn, range) in spans {
            let data = match self.ftl.translate(lpn) {
                Some(_) => Some(self.ftl.read(lpn)?.data),
                None => None,
            };
            pages.push(PageRead { data, range });
        }
        Ok(pages)
    }

    /// The views [`read_range_untimed`](Ssd::read_range_untimed) hands
    /// out, of the pages as flash stores them: read with no media error
    /// model, retry or counter, so a content hash perturbs no later read.
    pub fn stored_range(&self, slba: u64, blocks: u64) -> impl Iterator<Item = PageRead> + '_ {
        let stored = |lpn| self.ftl.flash().stored_page(self.ftl.translate(lpn)?);
        let spans = self.page_spans(slba * LBA_BYTES, blocks * LBA_BYTES);
        spans.map(move |(lpn, range)| PageRead {
            data: stored(lpn).cloned(),
            range,
        })
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

/// The partial pages one staging call has merged, so that a replica
/// whose read-modify-write comes out byte for byte the same programs a
/// view of the page another replica built instead of a copy of its own.
///
/// A fleet stages a file on every device through one of these
/// ([`Ssd::load_image`]); a solo staging call or a timed write uses a
/// fresh one. A page leaves it when the drive that holds it replaces it,
/// so it never keeps a page alive that no drive maps.
#[derive(Debug, Default)]
pub struct BoundaryPages {
    pages: Vec<(Lpn, PageData)>,
}

impl BoundaryPages {
    /// The page `merge` produces at `lpn`, where the drive held `old`: a
    /// view of a held page with exactly those bytes, or a new page, held
    /// from now on. A held page that `old` is (this drive built or shared
    /// it earlier in the call) is dropped, since the write replaces it.
    fn share_or_build(&mut self, lpn: Lpn, old: Option<&PageData>, merge: &Merge<'_>) -> PageData {
        if let Some(old) = old {
            self.pages
                .retain(|(at, held)| *at != lpn || !PageData::ptr_eq(held, old));
        }
        if let Some((_, held)) = self
            .pages
            .iter()
            .find(|(at, held)| *at == lpn && merge.produces(held))
        {
            return held.clone();
        }
        let page = merge.build();
        self.pages.push((lpn, page.clone()));
        page
    }
}

/// One page's read-modify-write: `old` (zero-extended to `page_bytes`)
/// with `new` written at byte `at`.
struct Merge<'a> {
    old: &'a [u8],
    at: usize,
    new: &'a [u8],
    page_bytes: usize,
}

impl Merge<'_> {
    /// The bytes of `old` in `range`, as far as it stores them.
    fn old_in(&self, range: Range<usize>) -> &[u8] {
        let len = self.old.len();
        &self.old[range.start.min(len)..range.end.min(len)]
    }

    /// Builds the merged page in the allocation it is stored in.
    fn build(&self) -> PageData {
        let end = self.at + self.new.len();
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0u8, self.page_bytes).collect();
        let page = Arc::get_mut(&mut buf).expect("a new page has one owner");
        let head = self.old_in(0..self.at);
        page[..head.len()].copy_from_slice(head);
        page[self.at..end].copy_from_slice(self.new);
        let tail = self.old_in(end..self.page_bytes);
        page[end..end + tail.len()].copy_from_slice(tail);
        PageData::from(buf)
    }

    /// True when `page` holds exactly the bytes [`build`](Merge::build)
    /// would, compared in place.
    fn produces(&self, page: &[u8]) -> bool {
        let end = self.at + self.new.len();
        let matches_old = |range: Range<usize>| {
            let old = self.old_in(range.clone());
            let (stored, zeros) = page[range].split_at(old.len());
            // An OR over the whole tail vectorizes; an early-exit byte
            // loop over up to a page of zeros does not.
            stored == old && zeros.iter().fold(0, |acc, &b| acc | b) == 0
        };
        page.len() == self.page_bytes
            && page[self.at..end] == *self.new
            && matches_old(0..self.at)
            && matches_old(end..self.page_bytes)
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
        let (pages, done) = ssd.read_range(3, blocks, SimTime::ZERO).unwrap();
        assert_eq!(&PageRead::gather(&pages)[..data.len()], &data[..]);
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn unwritten_blocks_read_zero_instantly() {
        let mut ssd = small_ssd();
        let (pages, done) = ssd.read_range(100, 2, SimTime::ZERO).unwrap();
        assert!(pages.iter().all(|p| p.data().is_none()));
        assert_eq!(PageRead::gather(&pages), vec![0u8; 1024]);
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
        let (pages, _) = ssd.read_range(0, 1, SimTime::ZERO).unwrap();
        assert_eq!(&pages[0].bytes()[..6], b"abcdef");
    }

    #[test]
    fn partial_page_write_preserves_neighbours() {
        let mut ssd = small_ssd();
        let page = vec![7u8; ssd.page_bytes() as usize];
        ssd.load_at(0, &page).unwrap();
        // Overwrite LBA 1 only (512 bytes inside the first page).
        ssd.write_range(1, &[9u8; 512], SimTime::ZERO).unwrap();
        let (pages, _) = ssd
            .read_range(0, ssd.lbas_per_page(), SimTime::ZERO)
            .unwrap();
        let data = PageRead::gather(&pages);
        assert!(data[..512].iter().all(|b| *b == 7));
        assert!(data[512..1024].iter().all(|b| *b == 9));
        assert!(data[1024..].iter().all(|b| *b == 7));
    }

    #[test]
    fn drives_merging_the_same_bytes_share_one_page() {
        let mut drives = [small_ssd(), small_ssd(), small_ssd()];
        let page = drives[0].page_bytes() as usize;
        for (i, d) in drives.iter_mut().enumerate() {
            d.load_at(0, &vec![if i == 1 { 9 } else { 7 }; page * 3])
                .unwrap();
        }
        // From byte 1536: pages 0 and 2 are merged, page 1 is a view.
        let image: Arc<[u8]> = (0..page * 2).map(|i| (i % 251) as u8).collect();
        let mut merged = BoundaryPages::default();
        for d in &mut drives {
            d.load_image(3, &image, 0..page * 2, &mut merged).unwrap();
        }
        let stored = |d: &mut Ssd, lpn: u64| {
            let lbas = d.lbas_per_page();
            d.read_range_untimed(lpn * lbas, lbas).unwrap()[0]
                .data()
                .cloned()
                .unwrap()
        };
        for lpn in [0, 2] {
            let [a, b, c] = drives.each_mut().map(|d| stored(d, lpn));
            assert!(PageData::ptr_eq(&a, &c), "page {lpn} is built once");
            assert!(!PageData::ptr_eq(&a, &b), "other old bytes, own page");
        }
        for (i, d) in drives.iter_mut().enumerate() {
            let old = if i == 1 { 9 } else { 7 };
            let mut want = vec![old; page * 3];
            want[1536..1536 + image.len()].copy_from_slice(&image);
            let blocks = (page * 3) as u64 / LBA_BYTES;
            let pages = d.read_range_untimed(0, blocks).unwrap();
            assert_eq!(PageRead::gather(&pages), want, "drive {i}");
        }
    }

    #[test]
    fn a_page_the_drive_replaces_leaves_the_boundary_set() {
        let mut ssd = small_ssd();
        let image: Arc<[u8]> = Arc::from(&[5u8; 2048][..]);
        let mut merged = BoundaryPages::default();
        ssd.load_image(0, &image, 0..512, &mut merged).unwrap();
        ssd.load_image(1, &image, 512..2048, &mut merged).unwrap();
        let (now, _) = ssd.read_page_timed(Lpn(0), 0..4096, SimTime::ZERO).unwrap();
        assert_eq!(merged.pages.len(), 1, "only the page the drive maps");
        assert!(PageData::ptr_eq(&merged.pages[0].1, now.data().unwrap()));
        assert_eq!(&now.bytes()[..2048], &image[..]);
    }

    #[test]
    fn a_merge_is_compared_in_place_as_it_would_be_built() {
        let new = [3u8; 100];
        for old_len in [0, 40, 150, 400, 512] {
            let old: Vec<u8> = (0..old_len).map(|i| (i % 7 + 1) as u8).collect();
            let merge = Merge {
                old: &old,
                at: 100,
                new: &new,
                page_bytes: 512,
            };
            let page = merge.build();
            assert_eq!(page.len(), 512);
            assert!(merge.produces(&page), "old {old_len} B");
            for flip in [0, 99, 100, 199, 200, 511] {
                let mut other = page.to_vec();
                other[flip] ^= 0x80;
                assert!(!merge.produces(&other), "old {old_len} B, byte {flip}");
            }
            assert!(!merge.produces(&page[..511]), "a short page");
        }
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
