//! Physical geometry of the flash array and physical addressing.

/// Physical page address: a flat index into the array, convertible to and
/// from (channel, die, plane, block, page) coordinates via [`FlashGeometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppa(pub u64);

/// Global block identifier (flat index over all planes of all dies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Shape of the flash array.
///
/// The default mirrors the Morpheus-SSD prototype scale (512 GB over 8
/// channels); [`FlashGeometry::small`] is a tiny array for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Independent channels (each with its own bus to the controller).
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Bytes per page.
    pub page_bytes: u32,
}

impl FlashGeometry {
    /// A tiny geometry for tests: 2 channels × 1 die × 1 plane × 8 blocks ×
    /// 16 pages × 4 KiB (1 MiB total).
    pub fn small() -> Self {
        FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_bytes: 4096,
        }
    }

    /// A medium geometry suitable for workload runs without excessive
    /// memory: 8 channels × 1 die × 1 plane × 256 blocks × 64 pages ×
    /// 16 KiB (2 GiB of flash).
    pub fn workload() -> Self {
        FlashGeometry {
            channels: 8,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 256,
            pages_per_block: 64,
            page_bytes: 16384,
        }
    }

    /// Pages per die.
    pub fn pages_per_die(&self) -> u64 {
        self.planes_per_die as u64 * self.blocks_per_plane as u64 * self.pages_per_block as u64
    }

    /// Total pages in the array.
    pub fn total_pages(&self) -> u64 {
        self.channels as u64 * self.dies_per_channel as u64 * self.pages_per_die()
    }

    /// Total erase blocks in the array.
    pub fn total_blocks(&self) -> u64 {
        self.total_pages() / self.pages_per_block as u64
    }

    /// Builds a physical page address from coordinates.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn ppa(&self, channel: u32, die: u32, plane: u32, block: u32, page: u32) -> Ppa {
        assert!(channel < self.channels, "channel {channel} out of range");
        assert!(die < self.dies_per_channel, "die {die} out of range");
        assert!(plane < self.planes_per_die, "plane {plane} out of range");
        assert!(block < self.blocks_per_plane, "block {block} out of range");
        assert!(page < self.pages_per_block, "page {page} out of range");
        let idx = ((((channel as u64 * self.dies_per_channel as u64 + die as u64)
            * self.planes_per_die as u64
            + plane as u64)
            * self.blocks_per_plane as u64
            + block as u64)
            * self.pages_per_block as u64)
            + page as u64;
        Ppa(idx)
    }

    /// The channel a physical page lives on.
    pub fn channel_of(&self, ppa: Ppa) -> u32 {
        (ppa.0 / (self.dies_per_channel as u64 * self.pages_per_die())) as u32
    }

    /// The global block containing a physical page.
    pub fn block_of(&self, ppa: Ppa) -> BlockId {
        BlockId(ppa.0 / self.pages_per_block as u64)
    }

    /// Page offset within its block.
    pub fn page_in_block(&self, ppa: Ppa) -> u32 {
        (ppa.0 % self.pages_per_block as u64) as u32
    }

    /// First physical page of a block.
    pub fn first_page_of(&self, block: BlockId) -> Ppa {
        Ppa(block.0 * self.pages_per_block as u64)
    }

    /// The channel a block lives on.
    pub fn channel_of_block(&self, block: BlockId) -> u32 {
        self.channel_of(self.first_page_of(block))
    }

    /// True if the address names a page in the array.
    pub fn contains(&self, ppa: Ppa) -> bool {
        ppa.0 < self.total_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_multiply_out() {
        let g = FlashGeometry::small();
        assert_eq!(g.total_pages(), 2 * 8 * 16);
        assert_eq!(g.total_blocks(), 2 * 8);
    }

    #[test]
    fn coordinates_round_trip() {
        let g = FlashGeometry::workload();
        let ppa = g.ppa(5, 0, 0, 100, 37);
        assert_eq!(g.channel_of(ppa), 5);
        assert_eq!(g.page_in_block(ppa), 37);
        let b = g.block_of(ppa);
        assert_eq!(g.channel_of_block(b), 5);
        assert_eq!(g.first_page_of(b).0 + 37, ppa.0);
    }

    #[test]
    fn all_ppas_unique_and_in_range() {
        let g = FlashGeometry::small();
        let mut seen = std::collections::HashSet::new();
        for c in 0..g.channels {
            for b in 0..g.blocks_per_plane {
                for p in 0..g.pages_per_block {
                    let ppa = g.ppa(c, 0, 0, b, p);
                    assert!(g.contains(ppa));
                    assert!(seen.insert(ppa));
                }
            }
        }
        assert_eq!(seen.len() as u64, g.total_pages());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_coordinates_panic() {
        let g = FlashGeometry::small();
        let _ = g.ppa(2, 0, 0, 0, 0);
    }
}
