//! Page-level mapping, allocation, garbage collection.

use crate::{FtlConfig, FtlError};
use morpheus_flash::{BlockId, FlashArray, FlashError, FlashOp, FlashOpKind, PageData, Ppa};
use morpheus_simcore::{FnvBuild, SimDuration};
use std::collections::{HashMap, VecDeque};

/// Logical page number: index into the FTL's exported capacity, in units of
/// one flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lpn(pub u64);

/// Result of a logical write: the flash operations performed, including any
/// garbage-collection work it triggered.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// Flash operations, in issue order (GC reads/programs/erases first,
    /// then the host program).
    pub ops: Vec<FlashOp>,
    /// Valid pages relocated by GC during this write.
    pub gc_relocations: u32,
}

/// Result of a logical read.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The page contents as last written — a zero-copy handle sharing the
    /// flash array's stored allocation (see [`PageData`]).
    pub data: PageData,
    /// The attempt that succeeded.
    pub op: FlashOp,
    /// Failed attempts before it (0 = clean read).
    pub retries: u32,
    /// Die time each failed attempt held: one array read.
    pub retry_cell_time: SimDuration,
}

impl ReadOutcome {
    /// The flash operations of the read, in the order they ran: every
    /// failed attempt, a read on the same channel that held the die for
    /// [`retry_cell_time`](ReadOutcome::retry_cell_time) and moved
    /// nothing over the bus, then the attempt that succeeded.
    pub fn ops(&self) -> impl Iterator<Item = FlashOp> {
        let failed = FlashOp {
            kind: FlashOpKind::Read,
            channel: self.op.channel,
            cell_time: self.retry_cell_time,
            bus_time: SimDuration::ZERO,
        };
        std::iter::repeat_n(failed, self.retries as usize).chain(std::iter::once(self.op))
    }
}

/// FTL-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FtlStats {
    /// Host-initiated page writes.
    pub host_writes: u64,
    /// Pages rewritten by garbage collection.
    pub gc_writes: u64,
    /// Garbage collection invocations.
    pub gc_runs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Reads retried due to injected media errors.
    pub read_retries: u64,
}

impl FtlStats {
    /// Write amplification factor: `(host + gc writes) / host writes`.
    /// Returns 1.0 before any host write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_writes) as f64 / self.host_writes as f64
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ChannelState {
    free: VecDeque<BlockId>,
    open: Option<(BlockId, u32)>,
    closed: Vec<BlockId>,
}

/// Page-mapping flash translation layer over a [`FlashArray`].
///
/// Writes stripe round-robin across channels; each channel keeps one open
/// block and garbage-collects greedily (fewest valid pages, ties broken by
/// erase count for wear levelling) when its free pool reaches the
/// watermark. Logical capacity is the physical capacity minus the
/// over-provisioning reserve. The L2P map is sized by use, not by
/// capacity: it grows to the highest logical page written, so a drive
/// holding little data keeps a small map (as demand-based page-mapped FTLs
/// do, e.g. DFTL).
#[derive(Debug, Clone)]
pub struct Ftl {
    flash: FlashArray,
    cfg: FtlConfig,
    /// Exported logical capacity in pages.
    capacity: u64,
    /// L2P map over `0..=` the highest logical page written so far.
    map: Vec<Option<Ppa>>,
    rmap: HashMap<Ppa, Lpn, FnvBuild>,
    channels: Vec<ChannelState>,
    next_channel: usize,
    stats: FtlStats,
}

impl Ftl {
    /// Creates an FTL over an erased array.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FtlConfig::validate`]).
    pub fn new(flash: FlashArray, cfg: FtlConfig) -> Self {
        cfg.validate();
        let geo = *flash.geometry();
        let total_pages = geo.total_pages();
        let logical_pages = ((total_pages as f64) * (1.0 - cfg.overprovision)).floor() as u64;
        let mut channels: Vec<ChannelState> =
            (0..geo.channels).map(|_| ChannelState::default()).collect();
        for b in 0..geo.total_blocks() {
            let block = BlockId(b);
            channels[geo.channel_of_block(block) as usize]
                .free
                .push_back(block);
        }
        Ftl {
            flash,
            cfg,
            capacity: logical_pages,
            map: Vec::new(),
            rmap: HashMap::default(),
            channels,
            next_channel: 0,
            stats: FtlStats::default(),
        }
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    /// Bytes per logical page (same as the flash page size).
    pub fn page_bytes(&self) -> u32 {
        self.flash.geometry().page_bytes
    }

    /// FTL statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// The underlying flash array (for inspection).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Replaces the flash bit-error model and re-seeds its PRNG stream
    /// (see [`FlashArray::set_error_model`]). The fault plane re-arms this
    /// at the start of every run so repeated runs over the same array see
    /// identical fault streams.
    pub fn set_error_model(&mut self, ecc: morpheus_flash::EccModel, seed: u64) {
        self.flash.set_error_model(ecc, seed);
    }

    /// Current physical location of a logical page, if mapped.
    pub fn translate(&self, lpn: Lpn) -> Option<Ppa> {
        *self.map.get(lpn.0 as usize)?
    }

    /// Writes a logical page, copying `data` into a buffer of its own.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::OutOfCapacity`] beyond the exported range,
    /// [`FtlError::NoFreeBlocks`] when the drive cannot make space, and
    /// propagates flash failures.
    pub fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<WriteOutcome, FtlError> {
        self.write_data(lpn, PageData::copy_from(data))
    }

    /// Writes a logical page from a [`PageData`] handle without copying
    /// its payload (the staging path: a page is a view of its file's
    /// image).
    ///
    /// # Errors
    ///
    /// Same as [`write`](Ftl::write).
    pub fn write_data(&mut self, lpn: Lpn, data: PageData) -> Result<WriteOutcome, FtlError> {
        if lpn.0 >= self.capacity_pages() {
            return Err(FtlError::OutOfCapacity(lpn));
        }
        if data.len() > self.page_bytes() as usize {
            return Err(FtlError::Flash(FlashError::DataTooLarge {
                ppa: Ppa(0),
                len: data.len(),
                page_bytes: self.page_bytes(),
            }));
        }
        let mut ops = Vec::new();
        let mut gc_relocations = 0;

        // Invalidate the previous version, if any.
        self.unmap(lpn);

        let channel = self.next_channel;
        self.next_channel = (self.next_channel + 1) % self.channels.len();
        let ppa = self.allocate(channel, true, &mut ops, &mut gc_relocations)?;
        let op = self.flash.program_page_data(ppa, data)?;
        ops.push(op);
        let idx = lpn.0 as usize;
        if idx >= self.map.len() {
            self.map.resize(idx + 1, None);
        }
        self.map[idx] = Some(ppa);
        self.rmap.insert(ppa, lpn);
        self.stats.host_writes += 1;
        Ok(WriteOutcome {
            ops,
            gc_relocations,
        })
    }

    /// Reads a logical page, retrying injected media errors.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::Unmapped`] for never-written pages and
    /// [`FtlError::MediaFailure`] when retries are exhausted.
    pub fn read(&mut self, lpn: Lpn) -> Result<ReadOutcome, FtlError> {
        if lpn.0 >= self.capacity_pages() {
            return Err(FtlError::OutOfCapacity(lpn));
        }
        let ppa = self.translate(lpn).ok_or(FtlError::Unmapped(lpn))?;
        let mut retries = 0;
        loop {
            match self.flash.read_page(ppa) {
                Ok((data, op)) => {
                    self.stats.read_retries += retries as u64;
                    return Ok(ReadOutcome {
                        data,
                        op,
                        retries,
                        // A failed attempt still occupied the die for a read.
                        retry_cell_time: self.flash.timing().read_latency,
                    });
                }
                Err(FlashError::Uncorrectable(_)) if retries < self.cfg.read_retries => {
                    retries += 1;
                }
                Err(e @ FlashError::Uncorrectable(_)) => {
                    self.stats.read_retries += retries as u64;
                    return Err(FtlError::MediaFailure(lpn, e));
                }
                Err(e) => return Err(FtlError::Flash(e)),
            }
        }
    }

    /// Discards a logical page (NVMe Dataset Management / TRIM): its flash
    /// page goes stale and the array drops its payload.
    ///
    /// Trimming an unmapped page is a no-op, matching NVMe semantics.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::OutOfCapacity`] beyond the exported range.
    pub fn trim(&mut self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn.0 >= self.capacity_pages() {
            return Err(FtlError::OutOfCapacity(lpn));
        }
        self.unmap(lpn);
        Ok(())
    }

    /// Unmaps `lpn` and invalidates its flash page, if it is mapped.
    fn unmap(&mut self, lpn: Lpn) {
        if let Some(old) = self.map.get_mut(lpn.0 as usize).and_then(Option::take) {
            self.flash.invalidate_page(old);
            self.rmap.remove(&old);
        }
    }

    /// Total free pages remaining across all channels (free blocks plus the
    /// unwritten tail of open blocks).
    pub fn free_pages(&self) -> u64 {
        let ppb = self.flash.geometry().pages_per_block as u64;
        self.channels
            .iter()
            .map(|c| {
                c.free.len() as u64 * ppb + c.open.map(|(_, next)| ppb - next as u64).unwrap_or(0)
            })
            .sum()
    }

    fn allocate(
        &mut self,
        channel: usize,
        allow_gc: bool,
        ops: &mut Vec<FlashOp>,
        gc_relocations: &mut u32,
    ) -> Result<Ppa, FtlError> {
        let ppb = self.flash.geometry().pages_per_block;
        if allow_gc
            && self.channels[channel].free.len() as u32 <= self.cfg.gc_watermark
            && !self.channels[channel].closed.is_empty()
        {
            self.collect_channel(channel, ops, gc_relocations)?;
        }
        loop {
            if let Some((block, next)) = self.channels[channel].open {
                if next < ppb {
                    self.channels[channel].open = Some((block, next + 1));
                    let ppa = Ppa(self.flash.geometry().first_page_of(block).0 + next as u64);
                    return Ok(ppa);
                }
                self.channels[channel].closed.push(block);
                self.channels[channel].open = None;
            }
            let block = self.channels[channel]
                .free
                .pop_front()
                .ok_or(FtlError::NoFreeBlocks)?;
            self.channels[channel].open = Some((block, 0));
        }
    }

    /// Greedy GC on one channel: relocate the valid pages of the block with
    /// the fewest valid pages (wear-aware tie-break), then erase it.
    fn collect_channel(
        &mut self,
        channel: usize,
        ops: &mut Vec<FlashOp>,
        gc_relocations: &mut u32,
    ) -> Result<(), FtlError> {
        let victim_idx = {
            let ch = &self.channels[channel];
            let mut best: Option<(usize, u32, u64)> = None;
            for (i, &b) in ch.closed.iter().enumerate() {
                let valid = self.flash.valid_pages_in(b);
                let wear = self.flash.erase_count(b);
                let better = match best {
                    None => true,
                    Some((_, bv, bw)) => {
                        valid < bv
                            || (valid == bv && wear + self.cfg.wear_spread < bw)
                            || (valid == bv && wear < bw)
                    }
                };
                if better {
                    best = Some((i, valid, wear));
                }
            }
            match best {
                Some((i, _, _)) => i,
                None => return Ok(()),
            }
        };
        let victim = self.channels[channel].closed.swap_remove(victim_idx);
        self.stats.gc_runs += 1;

        // Relocate live pages.
        let geo = *self.flash.geometry();
        let first = geo.first_page_of(victim).0;
        for i in 0..geo.pages_per_block as u64 {
            let ppa = Ppa(first + i);
            let Some(&lpn) = self.rmap.get(&ppa) else {
                continue;
            };
            debug_assert_eq!(self.map[lpn.0 as usize], Some(ppa));
            // Relocation reads retry injected media errors just like host
            // reads do; only persistent failures surface.
            let (data, read_op) = {
                let mut attempt = 0;
                loop {
                    match self.flash.read_page(ppa) {
                        Ok(r) => break r,
                        Err(FlashError::Uncorrectable(_)) if attempt < self.cfg.read_retries => {
                            attempt += 1;
                            self.stats.read_retries += 1;
                        }
                        Err(e @ FlashError::Uncorrectable(_)) => {
                            return Err(FtlError::MediaFailure(lpn, e))
                        }
                        Err(e) => return Err(FtlError::Flash(e)),
                    }
                }
            };
            ops.push(read_op);
            // Relocation stays on the same channel; GC must not recurse.
            let dest = self.allocate(channel, false, ops, gc_relocations)?;
            // Re-home the handle: relocation moves the page without
            // copying its payload.
            let prog_op = self.flash.program_page_data(dest, data)?;
            ops.push(prog_op);
            self.flash.invalidate_page(ppa);
            self.rmap.remove(&ppa);
            self.map[lpn.0 as usize] = Some(dest);
            self.rmap.insert(dest, lpn);
            self.stats.gc_writes += 1;
            *gc_relocations += 1;
        }

        match self.flash.erase_block(victim) {
            Ok(op) => {
                ops.push(op);
                self.stats.erases += 1;
                if !self.flash.is_bad(victim) {
                    self.channels[channel].free.push_back(victim);
                }
                Ok(())
            }
            Err(FlashError::BadBlock(_)) => Ok(()), // retired; just lose the block
            Err(e) => Err(FtlError::Flash(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_flash::{EccModel, FlashGeometry, FlashTiming, PageState};

    fn small_ftl() -> Ftl {
        Ftl::new(
            FlashArray::new(FlashGeometry::small(), FlashTiming::default()),
            FtlConfig::default(),
        )
    }

    #[test]
    fn read_after_write_round_trips() {
        let mut f = small_ftl();
        f.write(Lpn(0), b"alpha").unwrap();
        f.write(Lpn(7), b"beta").unwrap();
        assert_eq!(&f.read(Lpn(0)).unwrap().data[..], b"alpha");
        assert_eq!(&f.read(Lpn(7)).unwrap().data[..], b"beta");
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut f = small_ftl();
        f.write(Lpn(3), b"v1").unwrap();
        f.write(Lpn(3), b"v2").unwrap();
        assert_eq!(&f.read(Lpn(3)).unwrap().data[..], b"v2");
    }

    #[test]
    fn unmapped_read_fails() {
        let mut f = small_ftl();
        assert_eq!(f.read(Lpn(5)).unwrap_err(), FtlError::Unmapped(Lpn(5)));
    }

    #[test]
    fn trim_unmaps() {
        let mut f = small_ftl();
        f.write(Lpn(1), b"x").unwrap();
        f.trim(Lpn(1)).unwrap();
        assert_eq!(f.read(Lpn(1)).unwrap_err(), FtlError::Unmapped(Lpn(1)));
        // Trim of unmapped page is a no-op.
        f.trim(Lpn(1)).unwrap();
    }

    #[test]
    fn out_of_capacity_rejected() {
        let mut f = small_ftl();
        let cap = f.capacity_pages();
        assert!(matches!(
            f.write(Lpn(cap), b"x").unwrap_err(),
            FtlError::OutOfCapacity(_)
        ));
        assert!(matches!(
            f.read(Lpn(cap)).unwrap_err(),
            FtlError::OutOfCapacity(_)
        ));
    }

    #[test]
    fn the_last_logical_page_is_writable_and_capacity_is_fixed() {
        let mut f = small_ftl();
        let cap = f.capacity_pages();
        let last = Lpn(cap - 1);
        assert_eq!(f.translate(last), None);
        f.write(last, b"last").unwrap();
        assert_eq!(f.capacity_pages(), cap);
        assert_eq!(&f.read(last).unwrap().data[..], b"last");
        assert_eq!(f.read(Lpn(0)).unwrap_err(), FtlError::Unmapped(Lpn(0)));
        f.trim(Lpn(cap - 2)).unwrap();
        assert!(matches!(
            f.write(Lpn(cap), b"x").unwrap_err(),
            FtlError::OutOfCapacity(_)
        ));
        assert_eq!(f.capacity_pages(), cap);
    }

    #[test]
    fn replaced_and_trimmed_pages_go_stale() {
        let mut f = small_ftl();
        f.write(Lpn(2), b"v1").unwrap();
        let v1 = f.translate(Lpn(2)).unwrap();
        f.write(Lpn(2), b"v2").unwrap();
        let v2 = f.translate(Lpn(2)).unwrap();
        f.trim(Lpn(2)).unwrap();
        for old in [v1, v2] {
            assert_eq!(f.flash().page_state(old), PageState::Invalid);
        }
    }

    #[test]
    fn capacity_respects_overprovision() {
        let f = small_ftl();
        let total = f.flash().geometry().total_pages();
        assert!(f.capacity_pages() < total);
        assert_eq!(f.capacity_pages(), (total as f64 * 0.875).floor() as u64);
    }

    #[test]
    fn writes_stripe_across_channels() {
        let mut f = small_ftl();
        f.write(Lpn(0), b"a").unwrap();
        f.write(Lpn(1), b"b").unwrap();
        let c0 = f
            .flash()
            .geometry()
            .channel_of(f.translate(Lpn(0)).unwrap());
        let c1 = f
            .flash()
            .geometry()
            .channel_of(f.translate(Lpn(1)).unwrap());
        assert_ne!(c0, c1);
    }

    #[test]
    fn gc_sustains_overwrite_storm_and_preserves_data() {
        let mut f = small_ftl();
        let cap = f.capacity_pages();
        // Fill the device, then overwrite everything several times: far more
        // page writes than physical pages, forcing repeated GC.
        for round in 0u8..6 {
            for l in 0..cap {
                let payload = [round, l as u8, (l >> 8) as u8];
                f.write(Lpn(l), &payload).unwrap();
            }
        }
        for l in 0..cap {
            let d = f.read(Lpn(l)).unwrap().data;
            assert_eq!(&d[..], &[5u8, l as u8, (l >> 8) as u8]);
        }
        assert!(f.stats().gc_runs > 0, "GC should have run");
        assert!(f.stats().write_amplification() > 1.0);
    }

    #[test]
    fn mapping_stays_injective_under_load() {
        let mut f = small_ftl();
        let cap = f.capacity_pages();
        for round in 0..4 {
            for l in 0..cap {
                f.write(Lpn((l * 7 + round) % cap), &[l as u8]).unwrap();
            }
        }
        let mut seen = std::collections::HashSet::new();
        for l in 0..cap {
            if let Some(ppa) = f.translate(Lpn(l)) {
                assert!(seen.insert(ppa), "two lpns map to ppa {}", ppa.0);
            }
        }
    }

    #[test]
    fn write_outcome_reports_gc_work() {
        let mut f = small_ftl();
        let cap = f.capacity_pages();
        let mut any_gc = false;
        for round in 0u8..6 {
            for l in 0..cap {
                let out = f.write(Lpn(l), &[round]).unwrap();
                if out.gc_relocations > 0 {
                    any_gc = true;
                    assert!(out.ops.len() > 1);
                }
            }
        }
        assert!(any_gc);
    }

    #[test]
    fn logical_reads_share_the_stored_allocation() {
        let mut f = small_ftl();
        f.write(Lpn(0), b"zero copy").unwrap();
        let a = f.read(Lpn(0)).unwrap().data;
        let b = f.read(Lpn(0)).unwrap().data;
        assert!(PageData::ptr_eq(&a, &b), "FTL reads must not copy payloads");
    }

    #[test]
    fn gc_relocation_moves_handles_not_bytes() {
        let mut f = small_ftl();
        let cap = f.capacity_pages();
        // Take handles on a few pages, then force GC with an overwrite
        // storm on the rest: survivors must relocate without copying.
        for l in 0..cap {
            f.write(Lpn(l), &[l as u8, 0xAB]).unwrap();
        }
        let before: Vec<_> = (0..4).map(|l| f.read(Lpn(l)).unwrap().data).collect();
        for round in 0u8..6 {
            for l in 4..cap {
                f.write(Lpn(l), &[round, l as u8]).unwrap();
            }
        }
        assert!(f.stats().gc_runs > 0, "storm must trigger GC");
        for (l, old) in before.iter().enumerate() {
            let now = f.read(Lpn(l as u64)).unwrap().data;
            assert_eq!(&now[..], &[l as u8, 0xAB]);
            assert!(
                PageData::ptr_eq(old, &now),
                "page {l} was relocated by copying instead of re-homing its handle"
            );
        }
    }

    #[test]
    fn read_retries_recover_from_transient_errors() {
        // ~40% uncorrectable probability: with 3 retries most reads succeed.
        let ecc = EccModel {
            uncorrectable_prob: 0.4,
            ..EccModel::perfect()
        };
        let flash = FlashArray::with_ecc(FlashGeometry::small(), FlashTiming::default(), ecc, 99);
        let mut f = Ftl::new(flash, FtlConfig::default());
        f.write(Lpn(0), b"fragile").unwrap();
        let channel = FlashGeometry::small().channel_of(f.translate(Lpn(0)).unwrap());
        let mut successes = 0;
        let mut retried = 0;
        for _ in 0..50 {
            match f.read(Lpn(0)) {
                Ok(out) => {
                    successes += 1;
                    if out.retries > 0 {
                        retried += 1;
                    }
                    // Each failed attempt held the die for one array read
                    // on the page's channel and moved nothing over the
                    // bus; the last op is the read that succeeded.
                    let failed = FlashOp {
                        kind: FlashOpKind::Read,
                        channel,
                        cell_time: FlashTiming::default().read_latency,
                        bus_time: SimDuration::ZERO,
                    };
                    let mut want = vec![failed; out.retries as usize];
                    want.push(out.op);
                    assert_eq!(out.ops().collect::<Vec<_>>(), want);
                    assert_eq!(out.op.channel, channel);
                    assert!(
                        out.op.bus_time > SimDuration::ZERO,
                        "the data crossed the bus"
                    );
                    assert_eq!(&out.data[..], b"fragile");
                }
                Err(FtlError::MediaFailure(..)) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(successes > 30, "retries should recover most reads");
        assert!(retried > 0, "some reads should have retried");
    }

    #[test]
    fn free_pages_decreases_with_writes() {
        let mut f = small_ftl();
        let before = f.free_pages();
        f.write(Lpn(0), b"x").unwrap();
        assert!(f.free_pages() < before);
    }

    #[test]
    fn oversized_write_rejected() {
        let mut f = small_ftl();
        let big = vec![0u8; f.page_bytes() as usize + 1];
        assert!(matches!(
            f.write(Lpn(0), &big).unwrap_err(),
            FtlError::Flash(FlashError::DataTooLarge { .. })
        ));
    }
}
