//! Cross-run record/replay memoization of deserialization work.
//!
//! A simulated deserialization spends most of its *wall-clock* time doing
//! functional work whose result is fully determined by the input bytes:
//! running the parser (host path) or the StorageApp chunk loop (device
//! path). Design-space sweeps and benchmark suites re-run the same inputs
//! under many configurations, so this module memoizes that functional work
//! globally (process-wide) and replays it on later runs, while every
//! *timing* decision — flash reads, core grants, DMA, spans — still
//! executes live against the run's own timelines. Replayed runs are
//! byte-identical to live runs by construction: the recorded values
//! (per-page instruction counts, parse-work deltas, output bytes) are pure
//! functions of the memo key.
//!
//! Keys fold every input that determines the recorded values: the file's
//! content digest, the app's schema/format, the chunk geometry, and (for
//! the device path) the drive configuration digest (SSD config,
//! embedded-core cost model and page size), which each `MorpheusSsd`
//! computes once at bring-up. Fault injection perturbs functional
//! behavior, so keys are only issued on fault-free runs. Set
//! `MORPHEUS_DESER_MEMO=0` to disable replay (used for A/B timing
//! comparisons).
//!
//! There are two tables, each read by one engine constructor and written
//! by one engine finish:
//! - the device table holds whole StorageApp lifecycles
//!   ([`DeviceReplay`]: per-page instruction counts, outputs, and the
//!   objects' digest). `System::device_tenant` looks an entry up and hands
//!   the firmware the instance's `InstanceMemo`; `System::finish_device`
//!   publishes what a recording instance computed;
//! - the host table holds host parses ([`HostReplay`]).
//!   `System::conventional_tenant` looks an entry up; `HostTenant::finish`
//!   publishes a live parse.
//!
//! Each table holds at most `MAX_ENTRIES` entries and evicts its oldest
//! entry (first in, first out) to admit a new key, so a workload that
//! touches more distinct inputs than that keeps replaying its recent ones.
//! Recorded output bytes are shared (`Arc`), so a replayed MREAD or
//! MDEINIT hands out the recording instead of copying it.

use crate::exec::AppSpec;
use crate::firmware::DeviceReplay;
use crate::system::ChunkIo;
use crate::System;
use morpheus_format::{CostModel, ObjectDigest, ParseWork, ParsedColumns};
use morpheus_ssd::Ssd;
use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, OnceLock};

/// A memo key: (content digest, configuration/geometry digest). Two
/// independent 64-bit streams keep accidental collisions out of reach of
/// any realistic sweep; an actual collision is caught by the replay-side
/// geometry asserts.
pub(crate) type MemoKey = (u64, u64);

/// Streaming FNV-style digest, folding 8-byte lanes at a time.
pub(crate) struct FnvStream(u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl FnvStream {
    pub(crate) fn new(seed: u64) -> Self {
        FnvStream(seed)
    }

    /// Folds a byte slice. Lane alignment is part of the digest, so
    /// callers streaming one logical buffer through several calls must
    /// split only on 8-byte boundaries (file extents are LBA-sized, so
    /// per-extent slices satisfy this).
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for w in &mut chunks {
            let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
        }
        for &byte in chunks.remainder() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for FnvStream {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// A recorded host-side parse of one file: the per-chunk parse-work
/// deltas (priced live against the run's own cost model) and the digest
/// of the final canonicalized objects. The columns themselves are kept
/// only when a [`System::run`] caller recorded the entry, because only it
/// hands them back; serving never retains columns.
#[derive(Debug)]
pub(crate) struct HostReplay {
    pub per_chunk: Vec<ParseWork>,
    pub digest: ObjectDigest,
    pub objects: Option<ParsedColumns>,
}

/// Entry cap per table. Host entries recorded by [`System::run`] hold
/// whole object columns, so the cap bounds memory; past it a table evicts
/// its oldest entry to admit a new key.
const MAX_ENTRIES: usize = 256;

/// A memo table of at most `cap` entries. Admitting a new key into a full
/// table evicts the oldest one (first in, first out); overwriting a key
/// already present replaces its value in place, keeps its age and evicts
/// nothing.
#[derive(Debug)]
struct BoundedTable<V> {
    map: HashMap<MemoKey, V>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<MemoKey>,
    cap: usize,
}

impl<V: Clone> BoundedTable<V> {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "a memo table holds at least one entry");
        BoundedTable {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    fn get(&self, key: MemoKey) -> Option<V> {
        self.map.get(&key).cloned()
    }

    fn put(&mut self, key: MemoKey, value: V) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return;
        }
        if self.map.len() == self.cap {
            let oldest = self
                .order
                .pop_front()
                .expect("a full table has an oldest key");
            self.map.remove(&oldest);
        }
        self.order.push_back(key);
        self.map.insert(key, value);
        debug_assert!(self.map.len() <= self.cap && self.order.len() == self.map.len());
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

type Table<V> = Mutex<BoundedTable<V>>;

fn device_table() -> &'static Table<Arc<DeviceReplay>> {
    static T: OnceLock<Table<Arc<DeviceReplay>>> = OnceLock::new();
    T.get_or_init(|| Mutex::new(BoundedTable::new(MAX_ENTRIES)))
}

fn host_table() -> &'static Table<Arc<HostReplay>> {
    static T: OnceLock<Table<Arc<HostReplay>>> = OnceLock::new();
    T.get_or_init(|| Mutex::new(BoundedTable::new(MAX_ENTRIES)))
}

/// True unless `MORPHEUS_DESER_MEMO=0` (or `off`) is set.
pub(crate) fn enabled() -> bool {
    static E: OnceLock<bool> = OnceLock::new();
    *E.get_or_init(|| {
        !matches!(
            std::env::var("MORPHEUS_DESER_MEMO").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

pub(crate) fn device_get(key: MemoKey) -> Option<Arc<DeviceReplay>> {
    device_table().lock().expect("memo lock").get(key)
}

pub(crate) fn device_put(key: MemoKey, rec: Arc<DeviceReplay>) {
    device_table().lock().expect("memo lock").put(key, rec);
}

pub(crate) fn host_get(key: MemoKey) -> Option<Arc<HostReplay>> {
    host_table().lock().expect("memo lock").get(key)
}

pub(crate) fn host_put(key: MemoKey, rec: Arc<HostReplay>) {
    host_table().lock().expect("memo lock").put(key, rec);
}

/// Digest of everything about a drive that shapes a StorageApp's
/// per-page instruction counts and outputs: the embedded-core cost table,
/// the controller configuration and the flash page size. A
/// `MorpheusSsd` computes it once at bring-up (see
/// `MorpheusSsd::drive_digest`); the Debug rendering folds every field,
/// so adding a field cannot silently drop out of the key.
pub(crate) fn drive_digest(dev: &Ssd, device_cost: &CostModel) -> u64 {
    let mut s = FnvStream::new(0xcbf29ce4_84222325);
    let _ = write!(s, "{device_cost:?}|{:?}", dev.config());
    s.u64(dev.page_bytes());
    s.finish()
}

impl System {
    /// Digest of a staged file's logical byte stream, cached per name.
    /// The cache is dropped by [`System::invalidate_cached_objects`], which
    /// every file-mutation path already calls. Returns `None` when the
    /// file cannot be read back (no memoization, never an error).
    pub(crate) fn content_digest(&mut self, name: &str) -> Option<u64> {
        if let Some(&d) = self.deser_digests.get(name) {
            return Some(d);
        }
        let meta = self.fs.open(name).ok()?.clone();
        let mut s = FnvStream::new(0xcbf2_9ce4_8422_2325);
        let mut remaining = meta.len;
        for e in &meta.extents {
            if remaining == 0 {
                break;
            }
            let bytes = self.mssd.dev.read_range_untimed(e.slba, e.blocks).ok()?;
            let take = remaining.min(e.blocks * morpheus_nvme::LBA_BYTES) as usize;
            s.bytes(&bytes[..take]);
            remaining -= take as u64;
        }
        let d = s.finish();
        self.deser_digests.insert(name.to_string(), d);
        Some(d)
    }

    /// Memo key for a device-side (StorageApp) deserialization of `spec`
    /// over `chunks`, or `None` when memoization is off or a fault plan is
    /// armed (injected faults perturb functional behavior).
    pub(crate) fn device_memo_key(
        &mut self,
        spec: &AppSpec,
        chunks: &[ChunkIo],
    ) -> Option<MemoKey> {
        if self.faults.is_some() || !enabled() {
            return None;
        }
        let content = self.content_digest(&spec.input)?;
        let mut s = FnvStream::new(0x84222325_cbf29ce4);
        // Everything that shapes per-page instruction counts and outputs:
        // the app (schema + encoding + name) and the drive (cost table,
        // controller config, page size: one digest cached at bring-up).
        let _ = write!(s, "{:?}|{:?}|{}", spec.schema, spec.input_format, spec.name);
        s.u64(self.mssd.drive_digest());
        s.u64(chunks.len() as u64);
        for c in chunks {
            s.u64(c.slba);
            s.u64(c.blocks);
            s.u64(c.valid_bytes);
        }
        Some((content, s.finish()))
    }

    /// Memo key for a host-side parse of `spec` over `chunks` (the
    /// recorded parse-work deltas are platform-independent, so host cost
    /// tables stay out of the key), or `None` when memoization is off or
    /// a fault plan is armed.
    pub(crate) fn host_memo_key(&mut self, spec: &AppSpec, chunks: &[ChunkIo]) -> Option<MemoKey> {
        if self.faults.is_some() || !enabled() {
            return None;
        }
        let content = self.content_digest(&spec.input)?;
        let mut s = FnvStream::new(0x9ce48422_2325cbf2);
        let _ = write!(s, "{:?}|{:?}", spec.schema, spec.input_format);
        s.u64(chunks.len() as u64);
        for c in chunks {
            s.u64(c.valid_bytes);
        }
        Some((content, s.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_digest_is_stable_across_aligned_splits() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut whole = FnvStream::new(1);
        whole.bytes(&data);
        let mut split = FnvStream::new(1);
        split.bytes(&data[..512]);
        split.bytes(&data[512..]);
        assert_eq!(whole.finish(), split.finish());
    }

    #[test]
    fn digest_distinguishes_close_inputs() {
        let mut a = FnvStream::new(1);
        a.bytes(b"1 2\n3 4\n");
        let mut b = FnvStream::new(1);
        b.bytes(b"1 2\n3 5\n");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tables_cap_but_allow_overwrite() {
        // Overwriting an existing key never counts against the cap.
        let k = (u64::MAX, u64::MAX);
        let d = |records| ObjectDigest {
            records,
            bytes: 8 * records,
            checksum: records ^ 0x5a,
        };
        // A digest-only host entry (what serving records) is upgraded in
        // place by one that carries columns (what `System::run` records).
        host_put(
            k,
            Arc::new(HostReplay {
                per_chunk: vec![],
                digest: d(0),
                objects: None,
            }),
        );
        assert!(host_get(k).unwrap().objects.is_none());
        host_put(
            k,
            Arc::new(HostReplay {
                per_chunk: vec![ParseWork::default()],
                digest: d(0),
                objects: Some(ParsedColumns::empty(morpheus_format::Schema::new(vec![
                    morpheus_format::FieldKind::U32,
                ]))),
            }),
        );
        let upgraded = host_get(k).unwrap();
        assert_eq!(upgraded.per_chunk.len(), 1);
        assert!(upgraded.objects.is_some());
    }

    #[test]
    fn a_full_table_evicts_its_oldest_entries() {
        // A local table: the process-global ones hold other tests' entries.
        let mut t = BoundedTable::new(MAX_ENTRIES);
        let k = 5u64;
        let n = MAX_ENTRIES as u64 + k;
        for i in 0..n {
            t.put((i, 1), i);
            assert!(t.len() <= MAX_ENTRIES);
            assert_eq!(t.get((i, 1)), Some(i), "the newest entry is always kept");
        }
        assert_eq!(t.len(), MAX_ENTRIES);
        for i in 0..k {
            assert_eq!(t.get((i, 1)), None, "oldest entry {i} evicted");
        }
        for i in n - k..n {
            assert_eq!(t.get((i, 1)), Some(i), "newest entry {i} kept");
        }
        // Overwriting a present key replaces it in place and evicts
        // nothing; the entry keeps its age, so the next new key evicts it.
        let oldest = (k, 1);
        t.put(oldest, 0);
        assert_eq!(t.len(), MAX_ENTRIES);
        assert_eq!(t.get(oldest), Some(0));
        assert_eq!(t.get((k + 1, 1)), Some(k + 1));
        t.put((n, 1), n);
        assert_eq!(t.len(), MAX_ENTRIES);
        assert_eq!(t.get(oldest), None);
        assert_eq!(t.get((k + 1, 1)), Some(k + 1));
    }

    /// One edit to the testbed parameters.
    type Vary = fn(&mut crate::SystemParams);

    /// The device key of one file on a system built from `params`.
    fn device_key(params: crate::SystemParams) -> MemoKey {
        let mut sys = System::new(params);
        sys.create_input_file("key.txt", b"1 2\n3 4\n").unwrap();
        let spec = AppSpec::cpu_app(
            "key",
            "key.txt",
            morpheus_format::Schema::new(vec![morpheus_format::FieldKind::U32; 2]),
            1,
            1.0,
        );
        let meta = sys.fs.open("key.txt").unwrap().clone();
        let chunks = System::file_chunks(&meta, sys.params.mread_chunk_bytes);
        sys.device_memo_key(&spec, &chunks)
            .expect("memo on, no faults")
    }

    #[test]
    fn every_drive_parameter_reaches_the_device_key() {
        if !enabled() {
            return;
        }
        let base = crate::SystemParams::paper_testbed;
        let key = device_key(base());
        assert_eq!(key, device_key(base()), "identical drives share keys");
        let variants: [(&str, Vary); 9] = [
            ("embedded_cores", |p| p.ssd.embedded_cores += 1),
            ("core_clock_hz", |p| p.ssd.core_clock_hz *= 1.5),
            ("isram_bytes", |p| p.ssd.isram_bytes *= 2),
            ("dsram_bytes", |p| p.ssd.dsram_bytes *= 2),
            ("dram_bytes", |p| p.ssd.dram_bytes /= 2),
            ("command_dispatch_instructions", |p| {
                p.ssd.command_dispatch_instructions += 1.0
            }),
            ("ftl.read_retries", |p| p.ssd.ftl.read_retries += 1),
            ("device_cost", |p| p.device_cost.float_penalty *= 2.0),
            ("page_bytes", |p| p.flash_geometry.page_bytes *= 2),
        ];
        for (name, vary) in variants {
            let mut p = base();
            vary(&mut p);
            assert_ne!(device_key(p).1, key.1, "{name} must change the device key");
        }
    }
}
