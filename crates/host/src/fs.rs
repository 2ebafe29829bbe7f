//! Extent-based mini filesystem.
//!
//! The Morpheus runtime keeps file-permission checks and layout lookups on
//! the host: `ms_stream_create` "interacts with the underlying file system
//! to get permission to access a file and information about the logical
//! block addresses in file layouts" (§V-A2). [`SimFs`] provides exactly that
//! service over the SSD's logical block space: it allocates extents for
//! named files and returns their LBA layout; the actual bytes live in the
//! SSD (written through NVMe like any other data).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// A contiguous run of logical blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Starting logical block address.
    pub slba: u64,
    /// Length in blocks.
    pub blocks: u64,
}

/// Metadata of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Exact byte length of the file (the last block may be partial).
    pub len: u64,
    /// The file's extents, in file order.
    pub extents: Vec<Extent>,
}

impl FileMeta {
    /// Total blocks across all extents.
    pub fn total_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.blocks).sum()
    }
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// File already exists.
    Exists(String),
    /// File not found.
    NotFound(String),
    /// The volume has no space left.
    NoSpace,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Exists(n) => write!(f, "file {n:?} already exists"),
            FsError::NotFound(n) => write!(f, "file {n:?} not found"),
            FsError::NoSpace => write!(f, "no space left on volume"),
        }
    }
}

impl Error for FsError {}

/// An extent-allocating filesystem over a logical block volume.
#[derive(Debug, Clone)]
pub struct SimFs {
    block_bytes: u64,
    volume_blocks: u64,
    next_lba: u64,
    /// Maximum extent length; longer files fragment into several extents,
    /// exercising multi-extent streams.
    max_extent_blocks: u64,
    files: BTreeMap<String, FileMeta>,
}

impl SimFs {
    /// Creates a filesystem over a volume of `volume_blocks` blocks of
    /// `block_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(block_bytes: u64, volume_blocks: u64) -> Self {
        assert!(
            block_bytes > 0 && volume_blocks > 0,
            "volume must be non-empty"
        );
        SimFs {
            block_bytes,
            volume_blocks,
            next_lba: 0,
            max_extent_blocks: 1 << 15,
            files: BTreeMap::new(),
        }
    }

    /// Limits extent length (forces fragmentation; used in tests).
    pub fn set_max_extent_blocks(&mut self, blocks: u64) {
        assert!(blocks > 0, "extents must be non-empty");
        self.max_extent_blocks = blocks;
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Creates a file of `len` bytes and returns its metadata.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Exists`] for duplicate names and
    /// [`FsError::NoSpace`] when the volume is full.
    pub fn create(&mut self, name: &str, len: u64) -> Result<&FileMeta, FsError> {
        if self.files.contains_key(name) {
            return Err(FsError::Exists(name.to_string()));
        }
        let mut blocks_needed = len.div_ceil(self.block_bytes).max(1);
        if self.next_lba + blocks_needed > self.volume_blocks {
            return Err(FsError::NoSpace);
        }
        let mut extents = Vec::new();
        while blocks_needed > 0 {
            let take = blocks_needed.min(self.max_extent_blocks);
            extents.push(Extent {
                slba: self.next_lba,
                blocks: take,
            });
            self.next_lba += take;
            blocks_needed -= take;
        }
        self.files
            .insert(name.to_string(), FileMeta { len, extents });
        Ok(&self.files[name])
    }

    /// Looks up a file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names.
    pub fn open(&self, name: &str) -> Result<&FileMeta, FsError> {
        self.files
            .get(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Shrinks a file's recorded byte length (the extents keep their
    /// reserved blocks; used when a writer learns the final size only
    /// after producing the data).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names. Growing a file is
    /// a programming error and panics.
    pub fn truncate(&mut self, name: &str, len: u64) -> Result<(), FsError> {
        let meta = self
            .files
            .get_mut(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        assert!(len <= meta.len, "truncate cannot grow a file");
        meta.len = len;
        Ok(())
    }

    /// Removes a file's metadata (space is not reclaimed by this simple
    /// bump allocator).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names.
    pub fn remove(&mut self, name: &str) -> Result<FileMeta, FsError> {
        self.files
            .remove(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// The free blocks around `blocks`, which no live file holds (a
    /// removed file's span): from the end of the last live extent before
    /// it to the start of the first live extent after it, or to the
    /// allocator's frontier, where the next file will start. Visits every
    /// live extent once and allocates nothing.
    pub fn gap_around(&self, blocks: Range<u64>) -> Range<u64> {
        let mut gap = 0..self.next_lba;
        for e in self.files.values().flat_map(|m| &m.extents) {
            let end = e.slba + e.blocks;
            debug_assert!(end <= blocks.start || e.slba >= blocks.end);
            if end <= blocks.start {
                gap.start = gap.start.max(end);
            } else {
                gap.end = gap.end.min(e.slba);
            }
        }
        gap
    }

    /// Iterates file names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_open_round_trip() {
        let mut fs = SimFs::new(512, 1 << 20);
        let meta = fs.create("input.txt", 100_000).unwrap().clone();
        assert_eq!(meta.len, 100_000);
        assert_eq!(meta.total_blocks(), 100_000u64.div_ceil(512));
        assert_eq!(fs.open("input.txt").unwrap(), &meta);
    }

    #[test]
    fn files_do_not_overlap() {
        let mut fs = SimFs::new(512, 1 << 20);
        let a = fs.create("a", 10_000).unwrap().clone();
        let b = fs.create("b", 10_000).unwrap().clone();
        let a_end = a.extents.last().unwrap().slba + a.extents.last().unwrap().blocks;
        assert!(b.extents[0].slba >= a_end);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut fs = SimFs::new(512, 1024);
        fs.create("x", 1).unwrap();
        assert_eq!(fs.create("x", 1).unwrap_err(), FsError::Exists("x".into()));
    }

    #[test]
    fn missing_open_rejected() {
        let fs = SimFs::new(512, 1024);
        assert_eq!(
            fs.open("nope").unwrap_err(),
            FsError::NotFound("nope".into())
        );
    }

    #[test]
    fn volume_capacity_enforced() {
        let mut fs = SimFs::new(512, 4);
        fs.create("a", 512 * 4).unwrap();
        assert_eq!(fs.create("b", 1).unwrap_err(), FsError::NoSpace);
    }

    #[test]
    fn long_files_fragment_into_extents() {
        let mut fs = SimFs::new(512, 1 << 20);
        fs.set_max_extent_blocks(10);
        let meta = fs.create("big", 512 * 25).unwrap();
        assert_eq!(meta.extents.len(), 3);
        assert_eq!(meta.total_blocks(), 25);
        // Extents are contiguous in file order.
        assert_eq!(meta.extents[0].blocks, 10);
        assert_eq!(meta.extents[1].slba, meta.extents[0].slba + 10);
    }

    #[test]
    fn zero_length_file_still_gets_a_block() {
        let mut fs = SimFs::new(512, 1024);
        assert_eq!(fs.create("empty", 0).unwrap().total_blocks(), 1);
    }

    #[test]
    fn truncate_shrinks_length() {
        let mut fs = SimFs::new(512, 1024);
        fs.create("x", 1000).unwrap();
        fs.truncate("x", 100).unwrap();
        assert_eq!(fs.open("x").unwrap().len, 100);
        assert!(fs.truncate("missing", 0).is_err());
    }

    #[test]
    fn a_gap_runs_from_the_previous_live_file_to_the_next_or_the_frontier() {
        let mut fs = SimFs::new(512, 1 << 20);
        for (name, len) in [("a", 1000), ("b", 2000), ("c", 700), ("d", 3000)] {
            fs.create(name, len).unwrap();
        }
        let span = |m: &FileMeta| m.extents[0].slba..m.extents[0].slba + m.total_blocks();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| span(fs.open(n).unwrap()));
        fs.remove("b").unwrap();
        assert_eq!(fs.gap_around(b.clone()), a.end..c.start);
        fs.remove("c").unwrap();
        assert_eq!(fs.gap_around(c), a.end..d.start);
        fs.remove("a").unwrap();
        assert_eq!(fs.gap_around(a), 0..d.start);
        fs.remove("d").unwrap();
        assert_eq!(fs.gap_around(d.clone()), 0..d.end, "the frontier ends it");
        assert_eq!(fs.gap_around(b), 0..d.end);
    }

    #[test]
    fn remove_forgets_file() {
        let mut fs = SimFs::new(512, 1024);
        fs.create("x", 1).unwrap();
        fs.remove("x").unwrap();
        assert!(fs.open("x").is_err());
        assert_eq!(fs.names().count(), 0);
    }
}
