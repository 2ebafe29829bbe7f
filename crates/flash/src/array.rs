//! The flash array: page state, real contents, NAND rules, wear, errors.
//!
//! The array stores a payload for each valid page only, and derives every
//! page's [`PageState`] from its block's write point: pages at or above it
//! are free, pages below it are valid while they hold a payload and
//! invalid once [`FlashArray::invalidate_page`] dropped it. Its memory so
//! tracks the live data, not the geometry, and a stale page cannot be read
//! back ([`FlashError::ReadOfStalePage`]).

use crate::{BlockId, EccModel, FlashError, FlashGeometry, FlashTiming, PageData, Ppa};
use morpheus_simcore::{FnvBuild, SimDuration, SplitMix64};
use std::collections::HashMap;

/// Lifecycle state of a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageState {
    /// Erased and programmable.
    #[default]
    Free,
    /// Holds live data.
    Valid,
    /// Programmed, but its data went stale (the FTL invalidated it on
    /// overwrite, trim or relocation); awaits erase and cannot be read.
    Invalid,
}

/// What kind of flash operation a [`FlashOp`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOpKind {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// Timing description of one completed flash operation.
///
/// `cell_time` occupies the die; `bus_time` occupies the channel bus. The
/// SSD controller decides how to overlay these on its channel timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashOp {
    /// Operation kind.
    pub kind: FlashOpKind,
    /// Channel the operation used.
    pub channel: u32,
    /// Die-busy time (array access, including any ECC retries).
    pub cell_time: SimDuration,
    /// Channel-bus time (data transfer to/from the controller).
    pub bus_time: SimDuration,
}

impl FlashOp {
    /// Total serialized latency of the operation.
    pub fn total(&self) -> SimDuration {
        self.cell_time + self.bus_time
    }
}

/// Operation counters for the array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Page reads served.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Reads that required ECC correction retries.
    pub corrected_reads: u64,
    /// Reads that failed uncorrectably.
    pub uncorrectable_reads: u64,
    /// Blocks retired due to wear.
    pub retired_blocks: u64,
}

/// The NAND flash array.
///
/// Stores the contents of valid pages (sparsely), enforces NAND
/// programming rules, tracks per-block wear and write points, and injects
/// bit errors according to an [`EccModel`]. All operations are
/// deterministic given the seed.
#[derive(Debug, Clone)]
pub struct FlashArray {
    geometry: FlashGeometry,
    timing: FlashTiming,
    ecc: EccModel,
    rng: SplitMix64,
    /// Payloads of the valid pages; a page below its block's write point
    /// with no entry here is invalid.
    data: HashMap<Ppa, PageData, FnvBuild>,
    /// Next programmable page index per block (NAND sequential-program
    /// rule); the pages below it are programmed.
    write_point: Vec<u32>,
    erase_count: Vec<u64>,
    bad: Vec<bool>,
    stats: FlashStats,
}

impl FlashArray {
    /// Creates an erased array.
    pub fn new(geometry: FlashGeometry, timing: FlashTiming) -> Self {
        Self::with_ecc(geometry, timing, EccModel::perfect(), 0)
    }

    /// Creates an erased array with a specific error model and seed.
    pub fn with_ecc(
        geometry: FlashGeometry,
        timing: FlashTiming,
        ecc: EccModel,
        seed: u64,
    ) -> Self {
        let blocks = geometry.total_blocks() as usize;
        FlashArray {
            geometry,
            timing,
            ecc,
            rng: SplitMix64::new(seed),
            data: HashMap::default(),
            write_point: vec![0; blocks],
            erase_count: vec![0; blocks],
            bad: vec![false; blocks],
            stats: FlashStats::default(),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The array's timing parameters.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Operation counters.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Replaces the bit-error model and re-seeds its PRNG stream, leaving
    /// stored data, wear, and counters untouched. The fault plane re-arms
    /// this at the start of every run so each run over the same array sees
    /// an identical fault stream.
    pub fn set_error_model(&mut self, ecc: EccModel, seed: u64) {
        self.ecc = ecc;
        self.rng = SplitMix64::new(seed);
    }

    /// State of a page.
    ///
    /// # Panics
    ///
    /// Panics if `ppa` is out of range.
    pub fn page_state(&self, ppa: Ppa) -> PageState {
        self.assert_in_range(ppa);
        if !self.is_programmed(ppa) {
            PageState::Free
        } else if self.data.contains_key(&ppa) {
            PageState::Valid
        } else {
            PageState::Invalid
        }
    }

    /// Erase count of a block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.erase_count[block.0 as usize]
    }

    /// True if the block has been retired.
    pub fn is_bad(&self, block: BlockId) -> bool {
        self.bad[block.0 as usize]
    }

    /// Number of valid pages in a block.
    pub fn valid_pages_in(&self, block: BlockId) -> u32 {
        let first = self.geometry.first_page_of(block).0;
        let programmed = self.write_point[block.0 as usize] as u64;
        (first..first + programmed)
            .filter(|&p| self.data.contains_key(&Ppa(p)))
            .count() as u32
    }

    /// Reads a valid page, returning a zero-copy handle to its contents and
    /// the operation timing. The handle shares the stored allocation; it
    /// stays valid (with the contents as of this read) even if the page is
    /// later invalidated or erased.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::ReadOfFreePage`] for unprogrammed pages,
    /// [`FlashError::ReadOfStalePage`] for invalidated ones,
    /// [`FlashError::BadBlock`] for retired blocks,
    /// [`FlashError::Uncorrectable`] when the error model injects a failure,
    /// and [`FlashError::OutOfRange`] for invalid addresses.
    pub fn read_page(&mut self, ppa: Ppa) -> Result<(PageData, FlashOp), FlashError> {
        self.check(ppa)?;
        let block = self.geometry.block_of(ppa);
        if self.bad[block.0 as usize] {
            return Err(FlashError::BadBlock(block));
        }
        // Clone of the handle, not the payload: the read path never copies
        // page contents (see `copy_audit`).
        let Some(data) = self.data.get(&ppa).cloned() else {
            return Err(match self.is_programmed(ppa) {
                true => FlashError::ReadOfStalePage(ppa),
                false => FlashError::ReadOfFreePage(ppa),
            });
        };
        if self.rng.chance(self.ecc.uncorrectable_prob) {
            self.stats.uncorrectable_reads += 1;
            return Err(FlashError::Uncorrectable(ppa));
        }
        let mut cell_time = self.timing.read_latency;
        if self.rng.chance(self.ecc.correctable_prob) {
            self.stats.corrected_reads += 1;
            cell_time += self.timing.read_latency * self.ecc.correction_retries as u64;
        }
        self.stats.reads += 1;
        let op = FlashOp {
            kind: FlashOpKind::Read,
            channel: self.geometry.channel_of(ppa),
            cell_time,
            bus_time: self.timing.bus_transfer(data.len() as u64),
        };
        Ok((data, op))
    }

    /// The payload a valid page stores, or `None` for any other page: no
    /// error model, timing or counter, so looking costs and perturbs
    /// nothing. A content hash reads pages this way.
    pub fn stored_page(&self, ppa: Ppa) -> Option<&PageData> {
        self.data.get(&ppa)
    }

    /// Programs a page with `data`, returning the operation timing.
    ///
    /// # Errors
    ///
    /// Enforces the NAND rules: a page may be programmed once per erase
    /// cycle ([`FlashError::ProgramTwice`]), pages within a block must be
    /// programmed in order ([`FlashError::ProgramOutOfOrder`]), the data
    /// must fit ([`FlashError::DataTooLarge`]), and retired blocks reject
    /// all operations ([`FlashError::BadBlock`]).
    pub fn program_page(&mut self, ppa: Ppa, data: &[u8]) -> Result<FlashOp, FlashError> {
        // Copying the caller's buffer into the array is the program
        // operation itself, not a read-path copy.
        self.program_page_data(ppa, PageData::copy_from(data))
    }

    /// Programs a page from an existing [`PageData`] handle without copying
    /// the payload — the array stores the shared allocation. This is the
    /// garbage collector's relocation path (a valid page moves blocks by
    /// re-homing its handle, never its bytes) and the staging path (a page
    /// is a view of its file's image).
    ///
    /// # Errors
    ///
    /// Same rules as [`FlashArray::program_page`].
    pub fn program_page_data(&mut self, ppa: Ppa, data: PageData) -> Result<FlashOp, FlashError> {
        self.check(ppa)?;
        let block = self.geometry.block_of(ppa);
        if self.bad[block.0 as usize] {
            return Err(FlashError::BadBlock(block));
        }
        if data.len() > self.geometry.page_bytes as usize {
            return Err(FlashError::DataTooLarge {
                ppa,
                len: data.len(),
                page_bytes: self.geometry.page_bytes,
            });
        }
        let expected = self.write_point[block.0 as usize];
        let page_idx = self.geometry.page_in_block(ppa);
        if page_idx < expected {
            return Err(FlashError::ProgramTwice(ppa));
        }
        if page_idx != expected {
            return Err(FlashError::ProgramOutOfOrder {
                ppa,
                expected_page: expected,
            });
        }
        self.write_point[block.0 as usize] = expected + 1;
        let len = data.len() as u64;
        self.data.insert(ppa, data);
        self.stats.programs += 1;
        Ok(FlashOp {
            kind: FlashOpKind::Program,
            channel: self.geometry.channel_of(ppa),
            cell_time: self.timing.program_latency,
            bus_time: self.timing.bus_transfer(len),
        })
    }

    /// Marks a page's contents stale and drops its payload (an FTL-level
    /// operation that costs no flash time — the out-of-band metadata
    /// update is folded into the controller's own costs). Free and already
    /// invalid pages are left as they are.
    ///
    /// # Panics
    ///
    /// Panics if `ppa` is out of range.
    pub fn invalidate_page(&mut self, ppa: Ppa) {
        self.assert_in_range(ppa);
        self.data.remove(&ppa);
    }

    /// Erases a block, freeing all of its pages and advancing wear.
    ///
    /// Returns the operation timing. When the erase count reaches the error
    /// model's wear limit the block is retired and subsequent operations on
    /// it fail with [`FlashError::BadBlock`].
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::BadBlock`] for already-retired blocks and
    /// [`FlashError::OutOfRange`] for invalid block ids.
    pub fn erase_block(&mut self, block: BlockId) -> Result<FlashOp, FlashError> {
        if block.0 >= self.geometry.total_blocks() {
            return Err(FlashError::OutOfRange(self.geometry.first_page_of(block)));
        }
        if self.bad[block.0 as usize] {
            return Err(FlashError::BadBlock(block));
        }
        let first = self.geometry.first_page_of(block).0;
        for p in first..first + self.write_point[block.0 as usize] as u64 {
            self.data.remove(&Ppa(p));
        }
        self.write_point[block.0 as usize] = 0;
        self.erase_count[block.0 as usize] += 1;
        self.stats.erases += 1;
        if self.erase_count[block.0 as usize] >= self.ecc.wear_limit {
            self.bad[block.0 as usize] = true;
            self.stats.retired_blocks += 1;
        }
        Ok(FlashOp {
            kind: FlashOpKind::Erase,
            channel: self.geometry.channel_of_block(block),
            cell_time: self.timing.erase_latency,
            bus_time: SimDuration::ZERO,
        })
    }

    /// True if `ppa` lies below its block's write point.
    fn is_programmed(&self, ppa: Ppa) -> bool {
        let block = self.geometry.block_of(ppa);
        self.geometry.page_in_block(ppa) < self.write_point[block.0 as usize]
    }

    fn assert_in_range(&self, ppa: Ppa) {
        assert!(
            self.geometry.contains(ppa),
            "physical page {} out of range",
            ppa.0
        );
    }

    fn check(&self, ppa: Ppa) -> Result<(), FlashError> {
        match self.geometry.contains(ppa) {
            true => Ok(()),
            false => Err(FlashError::OutOfRange(ppa)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashArray {
        FlashArray::new(FlashGeometry::small(), FlashTiming::default())
    }

    #[test]
    fn program_then_read_returns_data() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"abc").unwrap();
        let (d, op) = a.read_page(ppa).unwrap();
        assert_eq!(&d[..], b"abc");
        assert_eq!(op.kind, FlashOpKind::Read);
        assert_eq!(op.channel, 0);
        assert!(op.cell_time > SimDuration::ZERO);
    }

    #[test]
    fn read_of_free_page_fails() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        assert_eq!(
            a.read_page(ppa).unwrap_err(),
            FlashError::ReadOfFreePage(ppa)
        );
    }

    #[test]
    fn program_twice_fails() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"x").unwrap();
        assert_eq!(
            a.program_page(ppa, b"y").unwrap_err(),
            FlashError::ProgramTwice(ppa)
        );
    }

    #[test]
    fn out_of_order_program_fails() {
        let mut a = small();
        let p2 = a.geometry().ppa(0, 0, 0, 0, 2);
        match a.program_page(p2, b"x").unwrap_err() {
            FlashError::ProgramOutOfOrder { expected_page, .. } => assert_eq!(expected_page, 0),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn sequential_program_within_block_succeeds() {
        let mut a = small();
        for p in 0..4 {
            let ppa = a.geometry().ppa(0, 0, 0, 1, p);
            a.program_page(ppa, &[p as u8]).unwrap();
        }
        assert_eq!(a.stats().programs, 4);
    }

    #[test]
    fn erase_frees_pages_and_counts_wear() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"x").unwrap();
        let block = a.geometry().block_of(ppa);
        a.erase_block(block).unwrap();
        assert_eq!(a.page_state(ppa), PageState::Free);
        assert_eq!(a.erase_count(block), 1);
        // Programmable again from page 0.
        a.program_page(ppa, b"y").unwrap();
        let (d, _) = a.read_page(ppa).unwrap();
        assert_eq!(&d[..], b"y");
    }

    #[test]
    fn invalidate_marks_page_stale_and_drops_its_payload() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"x").unwrap();
        let (held, _) = a.read_page(ppa).unwrap();
        a.invalidate_page(ppa);
        assert_eq!(a.page_state(ppa), PageState::Invalid);
        // GC reads only mapped pages, so the array keeps no stale payload
        // and a stale read is an error; a handle taken earlier survives.
        assert_eq!(
            a.read_page(ppa).unwrap_err(),
            FlashError::ReadOfStalePage(ppa)
        );
        assert_eq!(a.stats().reads, 1, "a stale read is not a flash read");
        assert_eq!(&held[..], b"x");
        // Invalidating again, or a free page, changes nothing.
        a.invalidate_page(ppa);
        let free = a.geometry().ppa(0, 0, 0, 0, 1);
        a.invalidate_page(free);
        assert_eq!(a.page_state(ppa), PageState::Invalid);
        assert_eq!(a.page_state(free), PageState::Free);
        a.program_page(free, b"y").unwrap();
        assert_eq!(a.page_state(free), PageState::Valid);
    }

    #[test]
    fn oversized_data_rejected() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        let big = vec![0u8; 5000];
        assert!(matches!(
            a.program_page(ppa, &big).unwrap_err(),
            FlashError::DataTooLarge { .. }
        ));
    }

    #[test]
    fn wear_limit_retires_block() {
        let ecc = EccModel {
            wear_limit: 2,
            ..EccModel::perfect()
        };
        let mut a = FlashArray::with_ecc(FlashGeometry::small(), FlashTiming::default(), ecc, 1);
        let b = BlockId(0);
        a.erase_block(b).unwrap();
        assert!(!a.is_bad(b));
        a.erase_block(b).unwrap();
        assert!(a.is_bad(b));
        assert_eq!(a.erase_block(b).unwrap_err(), FlashError::BadBlock(b));
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        assert_eq!(
            a.program_page(ppa, b"x").unwrap_err(),
            FlashError::BadBlock(b)
        );
        assert_eq!(a.stats().retired_blocks, 1);
    }

    #[test]
    fn uncorrectable_errors_injected_deterministically() {
        let ecc = EccModel {
            uncorrectable_prob: 1.0,
            ..EccModel::perfect()
        };
        let mut a = FlashArray::with_ecc(FlashGeometry::small(), FlashTiming::default(), ecc, 7);
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"x").unwrap();
        assert_eq!(
            a.read_page(ppa).unwrap_err(),
            FlashError::Uncorrectable(ppa)
        );
        assert_eq!(a.stats().uncorrectable_reads, 1);
    }

    #[test]
    fn correctable_errors_add_retry_latency() {
        let ecc = EccModel {
            correctable_prob: 1.0,
            correction_retries: 2,
            ..EccModel::perfect()
        };
        let mut a = FlashArray::with_ecc(FlashGeometry::small(), FlashTiming::default(), ecc, 7);
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"x").unwrap();
        let (_, op) = a.read_page(ppa).unwrap();
        assert_eq!(
            op.cell_time.as_nanos(),
            FlashTiming::default().read_latency.as_nanos() * 3
        );
        assert_eq!(a.stats().corrected_reads, 1);
    }

    #[test]
    fn reads_share_the_stored_allocation() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"shared").unwrap();
        let (first, _) = a.read_page(ppa).unwrap();
        let (second, _) = a.read_page(ppa).unwrap();
        assert!(
            PageData::ptr_eq(&first, &second),
            "repeated reads must hand out the same allocation"
        );
    }

    #[test]
    fn program_page_data_reuses_the_handle() {
        let mut a = small();
        let src = a.geometry().ppa(0, 0, 0, 0, 0);
        let dst = a.geometry().ppa(0, 0, 0, 1, 0);
        a.program_page(src, b"relocate me").unwrap();
        let (data, _) = a.read_page(src).unwrap();
        a.program_page_data(dst, data.clone()).unwrap();
        let (moved, _) = a.read_page(dst).unwrap();
        assert!(PageData::ptr_eq(&data, &moved), "relocation must not copy");
        assert_eq!(&moved[..], b"relocate me");
    }

    #[test]
    fn read_handle_survives_erase() {
        let mut a = small();
        let ppa = a.geometry().ppa(0, 0, 0, 0, 0);
        a.program_page(ppa, b"snapshot").unwrap();
        let (data, _) = a.read_page(ppa).unwrap();
        a.erase_block(a.geometry().block_of(ppa)).unwrap();
        assert_eq!(&data[..], b"snapshot");
    }

    #[test]
    fn valid_page_counting() {
        let mut a = small();
        let g = *a.geometry();
        for p in 0..3 {
            a.program_page(g.ppa(0, 0, 0, 0, p), b"x").unwrap();
        }
        a.invalidate_page(g.ppa(0, 0, 0, 0, 1));
        assert_eq!(a.valid_pages_in(BlockId(0)), 2);
    }
}
