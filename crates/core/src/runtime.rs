//! The host-side Morpheus runtime (§V): streams and command plans.
//!
//! §V-A2: "the programming model requires the host application to create a
//! `ms_stream` and pass this stream as an argument of the StorageApp. …
//! `ms_stream_create` interacts with the underlying file system to get
//! permission to access a file and information about the logical block
//! addresses in file layouts." — [`ms_stream_create`] is exactly that
//! call; permission/layout work stays on the host, the SSD never parses a
//! filesystem.
//!
//! §V-B: the compiler replaces a StorageApp call site with runtime calls
//! that issue MINIT, break the stream into MREADs (or the host's objects
//! into MWRITEs) no larger than the NVMe transfer limit, and finish with
//! MDEINIT. [`CommandPlan`] is that lowered sequence and the only place
//! any Morpheus command is built: the device engine runs every instance
//! from one, and every driver submits exactly its commands through the
//! drive's I/O queues.

use crate::system::ChunkIo;
use crate::System;
use morpheus_host::{Extent, FileMeta, FsError, SimFs};
use morpheus_nvme::{MorpheusCommand, LBA_BYTES};

/// Host bus address of the StorageApp code image MINIT installs.
const CODE_ADDR: u64 = 0x4000;
/// Host bus address of the runtime's object buffer: MREAD results are
/// DMAed to it, and MWRITE payloads from it.
pub(crate) const OBJECT_ADDR: u64 = 0x2000;

/// A Morpheus stream: the host-resolved layout of one input.
///
/// Created by [`ms_stream_create`] or [`MsStream::extent`]; holds the
/// byte length and the MREAD-sized chunks covering it, nothing else.
#[derive(Debug, Clone, Default)]
pub struct MsStream {
    len: u64,
    chunks: Vec<ChunkIo>,
}

impl MsStream {
    /// A stream over `blocks` LBAs from `slba`, every byte valid, chunked
    /// like a file's: for inputs the host lays out itself without the
    /// file system, such as a key-value table.
    pub fn extent(slba: u64, blocks: u64, chunk_bytes: u64) -> MsStream {
        let (len, extents) = (blocks * LBA_BYTES, vec![Extent { slba, blocks }]);
        let chunks = System::file_chunks(&FileMeta { len, extents }, chunk_bytes);
        MsStream { len, chunks }
    }

    /// Exact byte length of the stream.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for an empty file.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The MREAD-sized pieces covering the file, in order.
    pub fn chunks(&self) -> &[ChunkIo] {
        &self.chunks
    }
}

/// Resolves a file into a [`MsStream`] (the paper's `ms_stream_create`).
///
/// `chunk_bytes` bounds each MREAD; it is additionally clamped to the
/// NVMe per-command limit and rounded to whole logical blocks.
///
/// # Errors
///
/// Returns [`FsError::NotFound`] for unknown files.
pub fn ms_stream_create(fs: &SimFs, name: &str, chunk_bytes: u64) -> Result<MsStream, FsError> {
    let meta = fs.open(name)?;
    let (len, chunks) = (meta.len, System::file_chunks(meta, chunk_bytes));
    Ok(MsStream { len, chunks })
}

/// The NVMe command sequence the Morpheus compiler's inserted runtime
/// calls issue for one StorageApp invocation (§V-B): MINIT, one MREAD per
/// chunk of the stream (or one MWRITE per batch of host objects), then
/// MDEINIT. The plan owns its stream and lowers each command when asked,
/// so stepping it copies nothing.
#[derive(Debug, Clone)]
pub struct CommandPlan {
    /// The stream the plan reads, or the batches it writes.
    pub stream: MsStream,
    /// The instance every command targets.
    pub instance_id: u32,
    code_len: u32,
    writes: bool,
}

impl CommandPlan {
    /// Lowers `stream` into the MREAD plan of instance `instance_id`,
    /// running StorageApp code of `code_len` bytes.
    pub fn lower(stream: MsStream, instance_id: u32, code_len: u32) -> CommandPlan {
        CommandPlan {
            stream,
            instance_id,
            code_len,
            writes: false,
        }
    }

    /// Lowers the MWRITE plan (§I's serialization direction) of instance
    /// `instance_id`: one MWRITE per `batch` bytes (which must not be zero)
    /// of a `len`-byte object stream, the app's output streaming to flash
    /// from `slba`.
    pub fn lower_writes(len: u64, batch: u64, slba: u64, instance_id: u32, code_len: u32) -> Self {
        let piece = |off| {
            let valid_bytes = batch.min(len - off);
            let blocks = valid_bytes.div_ceil(LBA_BYTES);
            let file_offset = off;
            ChunkIo {
                slba,
                blocks,
                valid_bytes,
                file_offset,
            }
        };
        let chunks = (0..len).step_by(batch as usize).map(piece).collect();
        let plan = CommandPlan::lower(MsStream { len, chunks }, instance_id, code_len);
        CommandPlan {
            writes: true,
            ..plan
        }
    }

    /// Bytes of StorageApp code the MINIT copies into I-SRAM.
    pub(crate) fn code_len(&self) -> u32 {
        self.code_len
    }

    /// Moves the plan out, leaving its instance's reap behind.
    pub(crate) fn take(&mut self) -> CommandPlan {
        let stream = std::mem::take(&mut self.stream);
        CommandPlan { stream, ..*self }
    }

    /// The MINIT that opens the instance, passing the input's length.
    pub fn init(&self) -> MorpheusCommand {
        MorpheusCommand::Init {
            instance_id: self.instance_id,
            code_ptr: CODE_ADDR,
            code_len: self.code_len,
            arg: self.stream.len as u32,
        }
    }

    /// Number of MREAD commands in the plan (none in an MWRITE plan).
    pub fn reads(&self) -> usize {
        self.stream.chunks.len() * usize::from(!self.writes)
    }

    /// The MREAD, or MWRITE, over the stream's chunk `i`, if it has one.
    pub fn transfer(&self, i: usize) -> Option<MorpheusCommand> {
        let (c, instance_id) = (*self.stream.chunks.get(i)?, self.instance_id);
        let (slba, blocks, dma_addr) = (c.slba, c.blocks, OBJECT_ADDR);
        Some(match self.writes {
            true => MorpheusCommand::Write {
                instance_id,
                slba,
                blocks,
                dma_addr,
            },
            false => MorpheusCommand::Read {
                instance_id,
                slba,
                blocks,
                dma_addr,
            },
        })
    }

    /// The MDEINIT that closes the instance.
    pub fn deinit(&self) -> MorpheusCommand {
        MorpheusCommand::Deinit {
            instance_id: self.instance_id,
        }
    }

    /// Every command in issue order: MINIT, the MREADs or MWRITEs,
    /// MDEINIT.
    pub fn commands(&self) -> impl Iterator<Item = MorpheusCommand> + '_ {
        let data = (0..).map_while(|i| self.transfer(i));
        std::iter::once(self.init())
            .chain(data)
            .chain(std::iter::once(self.deinit()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_nvme::{LBA_BYTES, MAX_IO_BLOCKS};

    fn fs_with(name: &str, len: u64) -> SimFs {
        let mut fs = SimFs::new(LBA_BYTES, 1 << 24);
        fs.create(name, len).unwrap();
        fs
    }

    #[test]
    fn stream_covers_the_file_exactly() {
        let fs = fs_with("in.txt", 10_000_000);
        let s = ms_stream_create(&fs, "in.txt", 1 << 20).unwrap();
        assert_eq!(s.len(), 10_000_000);
        let covered: u64 = s.chunks().iter().map(|c| c.valid_bytes).sum();
        assert_eq!(covered, 10_000_000);
        assert_eq!(s.chunks().len(), 10); // ceil(10e6 / 1MiB)
    }

    #[test]
    fn unknown_file_rejected() {
        let fs = SimFs::new(LBA_BYTES, 1024);
        assert!(ms_stream_create(&fs, "missing", 1 << 20).is_err());
    }

    #[test]
    fn chunks_respect_the_nvme_limit() {
        let fs = fs_with("big.txt", 100 << 20);
        // Ask for absurdly large chunks; the runtime must clamp.
        let s = ms_stream_create(&fs, "big.txt", u64::MAX / 2).unwrap();
        for c in s.chunks() {
            assert!(c.blocks <= MAX_IO_BLOCKS);
        }
    }

    #[test]
    fn plan_brackets_reads_with_init_and_deinit() {
        let fs = fs_with("in.txt", 3 << 20);
        let s = ms_stream_create(&fs, "in.txt", 1 << 20).unwrap();
        let plan = CommandPlan::lower(s, 7, 16 * 1024);
        let commands: Vec<MorpheusCommand> = plan.commands().collect();
        assert_eq!(commands.len(), 3 + 2);
        assert_eq!(plan.reads(), 3);
        assert!(matches!(
            commands.first(),
            Some(MorpheusCommand::Init { instance_id: 7, arg, .. }) if *arg == (3u32 << 20)
        ));
        assert!(matches!(
            commands.last(),
            Some(MorpheusCommand::Deinit { instance_id: 7 })
        ));
        // Reads are ordered and contiguous over the file.
        let mut next_slba = 0;
        for c in &commands[1..commands.len() - 1] {
            let MorpheusCommand::Read { slba, blocks, .. } = c else {
                panic!("{c:?} between MINIT and MDEINIT");
            };
            assert_eq!(*slba, next_slba);
            next_slba += blocks;
        }
    }

    #[test]
    fn empty_file_has_one_empty_chunk_covering_zero_bytes() {
        let fs = fs_with("empty.txt", 0);
        let s = ms_stream_create(&fs, "empty.txt", 1 << 20).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.chunks().iter().map(|c| c.valid_bytes).sum::<u64>(), 0);
    }
}
