//! Record/replay memoization of deserialization work, held in a
//! [`ReplayStore`] value.
//!
//! A simulated deserialization spends most of its *wall-clock* time on
//! functional work fully determined by the input bytes: the parser (host
//! path) or the StorageApp chunk loop (device path). Sweeps re-run the same
//! inputs under many configurations, so a store records that work once and
//! replays it, while every *timing* decision — flash reads, core grants,
//! DMA, spans — still runs live against the run's own timelines. Replays
//! are byte-identical to live runs by construction: the recorded values
//! (per-page instruction counts, parse-work deltas, output lengths) are
//! pure functions of the memo key.
//!
//! A [`System`] holds its store as `Option<Arc<ReplayStore>>`:
//! [`System::new`] makes a fresh one, `Fleet::try_new` shares one across
//! its devices, and [`System::set_replay_store`] shares a store or, with
//! `None`, turns the memo off. The library keeps no global table and reads
//! no environment; the bench harness shares one store across everything it
//! builds and maps `MORPHEUS_DESER_MEMO=0` onto `None`.
//!
//! Keys fold everything that shapes the recorded values: the file's
//! content digest, the app's schema/format, the chunk geometry and, on the
//! device path, the drive digest (SSD config, embedded-core cost model,
//! page size) each `MorpheusSsd` computes once at bring-up. Fault injection
//! perturbs functional behavior, so faulty runs get no key.
//!
//! A store has four tables:
//! - device: whole StorageApp lifecycles ([`DeviceReplay`]), looked up by
//!   `System::device_tenant` and published by `System::device_objects`;
//! - host: host parses ([`HostReplay`]), looked up by
//!   `System::conventional_tenant` and published by `HostTenant::finish`;
//! - images: one packed image of the objects per (content, schema, input
//!   format) ([`ObjectImage`]), read and written through an [`ImageSlot`]
//!   by [`System::run`] alone, the one caller that hands columns back;
//! - inputs: generated input text by exact (generator, bytes, seed)
//!   ([`ReplayStore::generated_input`]).
//!
//! The device, host and image tables hold at most `MAX_ENTRIES` entries
//! each and evict their oldest (first in, first out) to admit a new key;
//! the input table stops admitting at `INPUT_ENTRIES`. Recordings keep
//! counts and lengths only: a replayed MREAD or MDEINIT reports its
//! output's length, which is all the DMA and the bus price. The image
//! table is the one place a store keeps object bytes, once per content
//! however many drive configurations and chunkings recorded it, and
//! column by column at the width the values need
//! ([`ParsedColumns::pack`]): never more bytes than the record stream a
//! Morpheus lifecycle pushes off the drive.

use crate::exec::AppSpec;
use crate::firmware::DeviceReplay;
use crate::system::ChunkIo;
use crate::System;
use morpheus_format::{
    CostModel, Endianness, InputFormat, ObjectDigest, ParseError, ParseWork, ParsedColumns, Schema,
};
use morpheus_simcore::{Fnv1a, FnvBuild};
use morpheus_ssd::Ssd;
use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, MutexGuard};

/// A memo key: (content digest, configuration/geometry digest). Two
/// independent 64-bit streams keep accidental collisions out of reach of
/// any realistic sweep; an actual collision is caught by the replay-side
/// geometry asserts.
pub(crate) type MemoKey = (u64, u64);

/// A recorded host-side parse of one file: the per-chunk parse-work
/// deltas (priced live against the run's own cost model) and the digest
/// of the final canonicalized objects.
#[derive(Debug)]
pub(crate) struct HostReplay {
    pub per_chunk: Vec<ParseWork>,
    pub digest: ObjectDigest,
}

/// The objects one content parses to under one schema and input format,
/// packed column by column ([`ParsedColumns::pack`]): each integer column
/// as its least value and each value's offset from it in the fewest bytes
/// the column's span needs, each float column at its declared width, so
/// never larger than the record stream a Morpheus lifecycle pushes off
/// the drive. A replay that hands columns back unpacks them from here.
#[derive(Debug)]
pub(crate) struct ObjectImage {
    pub digest: ObjectDigest,
    pub bytes: Vec<u8>,
}

/// Entry cap of the device, host and image tables. Images hold whole
/// objects, so the cap bounds memory; past it a table evicts its oldest
/// entry to admit a new key.
const MAX_ENTRIES: usize = 256;

/// Entry cap of the input table: a sweep touches a handful of (generator,
/// size, seed) combinations, so the cap bounds memory rather than
/// implement eviction.
const INPUT_ENTRIES: usize = 64;

/// A memo table of at most `MAX_ENTRIES` entries. Admitting a new key
/// into a full table evicts the oldest one (first in, first out);
/// overwriting a key already present replaces its value in place, keeps
/// its age and evicts nothing.
#[derive(Debug)]
struct BoundedTable<V> {
    map: HashMap<MemoKey, V, FnvBuild>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<MemoKey>,
}

impl<V> Default for BoundedTable<V> {
    fn default() -> Self {
        BoundedTable {
            map: HashMap::default(),
            order: VecDeque::new(),
        }
    }
}

impl<V: Clone> BoundedTable<V> {
    fn get(&self, key: MemoKey) -> Option<V> {
        self.map.get(&key).cloned()
    }

    fn put(&mut self, key: MemoKey, value: V) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return;
        }
        if self.map.len() == MAX_ENTRIES {
            let oldest = self
                .order
                .pop_front()
                .expect("a full table has an oldest key");
            self.map.remove(&oldest);
        }
        self.order.push_back(key);
        self.map.insert(key, value);
        debug_assert!(self.map.len() <= MAX_ENTRIES && self.order.len() == self.map.len());
    }
}

/// The input table's key: (generator name, target bytes, seed).
type InputKey = (&'static str, u64, u64);

/// The replay memo: recorded device lifecycles, recorded host parses,
/// object images and generated inputs (see the module docs). Systems that
/// share one (an `Arc`) replay each other's recordings; a replay is a
/// pure function of its key, so sharing changes only how much work is
/// redone, never an output. The tables lock independently, so parallel
/// workers can share a store.
#[derive(Default)]
pub struct ReplayStore {
    device: Mutex<BoundedTable<Arc<DeviceReplay>>>,
    host: Mutex<BoundedTable<Arc<HostReplay>>>,
    images: Mutex<BoundedTable<Arc<ObjectImage>>>,
    inputs: Mutex<HashMap<InputKey, Arc<Vec<u8>>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("memo lock")
}

impl ReplayStore {
    pub(crate) fn device_get(&self, key: MemoKey) -> Option<Arc<DeviceReplay>> {
        lock(&self.device).get(key)
    }

    pub(crate) fn device_put(&self, key: MemoKey, rec: Arc<DeviceReplay>) {
        lock(&self.device).put(key, rec);
    }

    pub(crate) fn host_get(&self, key: MemoKey) -> Option<Arc<HostReplay>> {
        lock(&self.host).get(key)
    }

    pub(crate) fn host_put(&self, key: MemoKey, rec: Arc<HostReplay>) {
        lock(&self.host).put(key, rec);
    }

    /// The input `generate` makes for (`generator`, `bytes`, `seed`), made
    /// once per store: generators are pure functions of those three, and a
    /// suite sweep stages the same input onto every fresh [`System`], so
    /// the text is formatted once and shared by `Arc` thereafter.
    pub fn generated_input(
        &self,
        generator: &'static str,
        bytes: u64,
        seed: u64,
        generate: impl FnOnce() -> Vec<u8>,
    ) -> Arc<Vec<u8>> {
        let key = (generator, bytes, seed);
        if let Some(hit) = lock(&self.inputs).get(&key) {
            return hit.clone();
        }
        // Generate outside the lock: a miss formats up to the harness's
        // 48 MB size clamp, about 0.2 s of text at 4 ns a byte, and parallel
        // workers staging different inputs must not serialize behind each
        // other.
        let data = Arc::new(generate());
        let mut t = lock(&self.inputs);
        if t.len() < INPUT_ENTRIES || t.contains_key(&key) {
            t.insert(key, data.clone());
        }
        data
    }
}

impl fmt::Debug for ReplayStore {
    /// Entry counts only: the recordings themselves are bulk data.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayStore")
            .field("device", &lock(&self.device).map.len())
            .field("host", &lock(&self.host).map.len())
            .field("images", &lock(&self.images).map.len())
            .field("inputs", &lock(&self.inputs).len())
            .finish()
    }
}

/// Where [`System::run`], the one caller that hands columns back, finds
/// its object image or publishes the one it parsed (opened by
/// [`System::image_slot`]). The run lets its engine replay only when the
/// slot found the image, and then unpacks it; otherwise it runs live and
/// its digest confirms the image or its columns are packed into it.
pub(crate) struct ImageSlot {
    key: MemoKey,
    store: Arc<ReplayStore>,
    found: Option<Arc<ObjectImage>>,
}

impl ImageSlot {
    /// True when the store held the image at open.
    pub(crate) fn found(&self) -> bool {
        self.found.is_some()
    }

    /// The columns of the image found at open, each at its length.
    pub(crate) fn unpack(&self, schema: &Schema) -> Result<ParsedColumns, ParseError> {
        let image = self.found.as_ref().expect("a replay opened with its image");
        ParsedColumns::unpack(schema.clone(), &image.bytes)
    }

    /// Ends a live run whose canonical columns `objects` digest to
    /// `digest`: a found image must carry the same digest (a mismatch is a
    /// key collision, which must not pass silently), and a missing one is
    /// packed from `objects`.
    pub(crate) fn confirm_or_publish(self, digest: ObjectDigest, objects: &ParsedColumns) {
        if let Some(image) = &self.found {
            assert_eq!(
                image.digest, digest,
                "object image digest mismatch (key collision?)"
            );
            return;
        }
        let bytes = objects.pack();
        debug_assert_eq!(
            ParsedColumns::packed_records(&objects.schema, &bytes),
            Ok(digest.records),
            "the packing holds the objects"
        );
        let image = Arc::new(ObjectImage { digest, bytes });
        lock(&self.store.images).put(self.key, image);
    }
}

/// Digest of everything about a drive that shapes a StorageApp's
/// per-page instruction counts and outputs: the embedded-core cost table,
/// the controller configuration and the flash page size. A
/// `MorpheusSsd` computes it once at bring-up (see
/// `MorpheusSsd::drive_digest`); the Debug rendering folds every field,
/// so adding a field cannot silently drop out of the key.
pub(crate) fn drive_digest(dev: &Ssd, device_cost: &CostModel) -> u64 {
    let mut s = Fnv1a::new();
    let _ = write!(s, "{device_cost:?}|{:?}", dev.config());
    s.word(dev.page_bytes());
    s.value()
}

/// Folds the record layout `spec`'s objects are parsed to, a word at a
/// time: the schema's field count, each field's kind, then the input
/// format's tag. The count goes first, so no two layouts fold the same
/// word sequence.
fn fold_layout(s: &mut Fnv1a, spec: &AppSpec) {
    let fields = spec.schema.fields();
    s.word(fields.len() as u64);
    for &kind in fields {
        s.word(kind as u64);
    }
    s.word(match spec.input_format {
        InputFormat::Text => 0,
        InputFormat::Binary(Endianness::Little) => 1,
        InputFormat::Binary(Endianness::Big) => 2,
    });
}

impl System {
    /// The replay store this system records into and replays from;
    /// `None` when the memo is off.
    pub fn replay_store(&self) -> Option<&Arc<ReplayStore>> {
        self.replay.as_ref()
    }

    /// Shares `store` with this system, or with `None` turns the memo off:
    /// every later run deserializes live and records nothing. Outputs are
    /// the same either way.
    pub fn set_replay_store(&mut self, store: Option<Arc<ReplayStore>>) {
        self.replay = store;
    }

    /// Digest of a staged file's logical byte stream, cached per name.
    /// The cache is dropped by [`System::invalidate_cached_objects`], which
    /// every file-mutation path already calls. Hashing reads the stored
    /// pages with no media error model, so a key perturbs no timed read.
    /// Returns `None` for a name the file system does not know.
    pub(crate) fn content_digest(&mut self, name: &str) -> Option<u64> {
        if let Some(&d) = self.deser_digests.get(name) {
            return Some(d);
        }
        let meta = self.fs.open(name).ok()?.clone();
        let mut s = Fnv1a::new();
        // Hashed in place, a page at a time: every piece but the last is
        // whole LBAs, so each starts on a lane.
        self.visit_file(&meta, |bytes| s.lanes(bytes));
        let d = s.value();
        self.deser_digests.insert(name.to_string(), d);
        Some(d)
    }

    /// Memo key for a device-side (StorageApp) deserialization of `spec`
    /// over `chunks`, or `None` when the memo is off or a fault plan is
    /// armed (injected faults perturb functional behavior).
    pub(crate) fn device_memo_key(
        &mut self,
        spec: &AppSpec,
        chunks: &[ChunkIo],
    ) -> Option<MemoKey> {
        if self.faults.is_some() || self.replay.is_none() {
            return None;
        }
        let content = self.content_digest(&spec.input)?;
        let mut s = Fnv1a::with_basis(0x84222325_cbf29ce4);
        // Everything that shapes per-page instruction counts and outputs:
        // the app (schema + encoding + name) and the drive (cost table,
        // controller config, page size: one digest cached at bring-up).
        fold_layout(&mut s, spec);
        s.word(spec.name.len() as u64);
        s.lanes(spec.name.as_bytes());
        s.word(self.mssd.drive_digest());
        s.word(chunks.len() as u64);
        for c in chunks {
            s.word(c.slba);
            s.word(c.blocks);
            s.word(c.valid_bytes);
        }
        Some((content, s.value()))
    }

    /// The image slot of `spec`'s objects, keyed by the file's content
    /// digest, the schema and the input format, or `None` when the memo is
    /// off or a fault plan is armed.
    pub(crate) fn image_slot(&mut self, spec: &AppSpec) -> Option<ImageSlot> {
        if self.faults.is_some() {
            return None;
        }
        let store = self.replay.clone()?;
        let content = self.content_digest(&spec.input)?;
        let mut s = Fnv1a::with_basis(0x2325cbf2_9ce48422);
        fold_layout(&mut s, spec);
        let key = (content, s.value());
        let found = lock(&store.images).get(key);
        Some(ImageSlot { key, store, found })
    }

    /// Memo key for a host-side parse of `spec` over `chunks` (the
    /// recorded parse-work deltas are platform-independent, so host cost
    /// tables stay out of the key), or `None` when the memo is off or a
    /// fault plan is armed.
    pub(crate) fn host_memo_key(&mut self, spec: &AppSpec, chunks: &[ChunkIo]) -> Option<MemoKey> {
        if self.faults.is_some() || self.replay.is_none() {
            return None;
        }
        let content = self.content_digest(&spec.input)?;
        let mut s = Fnv1a::with_basis(0x9ce48422_2325cbf2);
        fold_layout(&mut s, spec);
        s.word(chunks.len() as u64);
        for c in chunks {
            s.word(c.valid_bytes);
        }
        Some((content, s.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemParams;

    #[test]
    fn the_content_digest_hashes_a_file_like_its_bytes_whole() {
        // A fragmented file that starts mid-page and whose length is not a
        // lane multiple, hashed a flash page at a time.
        let mut sys = System::new(SystemParams::paper_testbed());
        sys.fs.set_max_extent_blocks(7);
        sys.create_input_file("pad", &[1u8; 700]).unwrap();
        let data: Vec<u8> = (0..100_003u32).map(|i| (i * 31 % 251) as u8).collect();
        sys.create_input_file("f", &data).unwrap();
        let mut whole = Fnv1a::new();
        whole.lanes(&data);
        assert_eq!(sys.content_digest("f"), Some(whole.value()));
    }

    #[test]
    fn tables_cap_but_allow_overwrite() {
        // Overwriting an existing key never counts against the cap.
        let store = ReplayStore::default();
        let k = (u64::MAX, u64::MAX);
        let d = |records| ObjectDigest {
            records,
            bytes: 4 * records,
            checksum: records ^ 0x5a,
        };
        store.host_put(
            k,
            Arc::new(HostReplay {
                per_chunk: vec![],
                digest: d(0),
            }),
        );
        store.host_put(
            k,
            Arc::new(HostReplay {
                per_chunk: vec![ParseWork::default()],
                digest: d(0),
            }),
        );
        assert_eq!(store.host_get(k).unwrap().per_chunk.len(), 1);
        assert_eq!(lock(&store.host).map.len(), 1);
        // An image published under a key replaces the one there in place.
        let image = |records| {
            Arc::new(ObjectImage {
                digest: d(records),
                bytes: vec![0; 4 * records as usize],
            })
        };
        let mut images = lock(&store.images);
        images.put(k, image(1));
        images.put(k, image(2));
        assert_eq!(images.get(k).unwrap().digest, d(2));
        assert_eq!(images.map.len(), 1);
    }

    #[test]
    fn a_full_table_evicts_its_oldest_entries() {
        let mut t = BoundedTable::default();
        let k = 5u64;
        let n = MAX_ENTRIES as u64 + k;
        for i in 0..n {
            t.put((i, 1), i);
            assert!(t.map.len() <= MAX_ENTRIES);
            assert_eq!(t.get((i, 1)), Some(i), "the newest entry is always kept");
        }
        assert_eq!(t.map.len(), MAX_ENTRIES);
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
        assert_eq!(t.map.len(), MAX_ENTRIES);
        assert_eq!(t.get(oldest), Some(0));
        assert_eq!(t.get((k + 1, 1)), Some(k + 1));
        t.put((n, 1), n);
        assert_eq!(t.map.len(), MAX_ENTRIES);
        assert_eq!(t.get(oldest), None);
        assert_eq!(t.get((k + 1, 1)), Some(k + 1));
    }

    #[test]
    fn generated_inputs_are_made_once_per_exact_key_up_to_the_cap() {
        let store = ReplayStore::default();
        let made = std::cell::Cell::new(0);
        let gen = |g, bytes, seed| {
            store.generated_input(g, bytes, seed, || {
                made.set(made.get() + 1);
                vec![seed as u8; bytes as usize]
            })
        };
        let a = gen("a", 4, 1);
        assert!(Arc::ptr_eq(&a, &gen("a", 4, 1)), "a hit shares the bytes");
        assert_eq!(made.get(), 1);
        gen("a", 4, 2);
        gen("a", 5, 1);
        gen("b", 4, 1);
        assert_eq!(made.get(), 4, "each key part is exact");
        for seed in 10..10 + INPUT_ENTRIES as u64 {
            gen("c", 1, seed);
        }
        assert_eq!(
            lock(&store.inputs).len(),
            INPUT_ENTRIES,
            "a full table admits nothing"
        );
        let before = made.get();
        assert_eq!(*gen("a", 4, 1), vec![1; 4], "admitted entries stay");
        assert_eq!(made.get(), before);
    }

    #[test]
    fn systems_own_distinct_stores_and_memo_off_makes_no_keys() {
        let mut a = System::new(crate::SystemParams::paper_testbed());
        let b = System::new(crate::SystemParams::paper_testbed());
        let (sa, sb) = (a.replay_store().unwrap(), b.replay_store().unwrap());
        assert!(!Arc::ptr_eq(sa, sb), "System::new makes a fresh store");
        let shared = sb.clone();
        a.set_replay_store(Some(shared.clone()));
        assert!(Arc::ptr_eq(a.replay_store().unwrap(), &shared));
        a.create_input_file("off.txt", b"1 2\n").unwrap();
        let spec = AppSpec::cpu_app("off", "off.txt", key_schema(), 1, 1.0);
        let meta = a.fs.open("off.txt").unwrap().clone();
        let chunks = System::file_chunks(&meta, a.params.mread_chunk_bytes);
        assert!(a.host_memo_key(&spec, &chunks).is_some());
        a.set_replay_store(None);
        assert!(a.replay_store().is_none());
        assert!(a.host_memo_key(&spec, &chunks).is_none());
        assert!(a.device_memo_key(&spec, &chunks).is_none());
    }

    /// The device, host and image keys of `spec` on `sys`.
    fn keys(sys: &mut System, spec: &AppSpec) -> [MemoKey; 3] {
        let meta = sys.fs.open(&spec.input).unwrap().clone();
        let chunks = System::file_chunks(&meta, sys.params.mread_chunk_bytes);
        [
            sys.device_memo_key(spec, &chunks)
                .expect("memo on, no faults"),
            sys.host_memo_key(spec, &chunks)
                .expect("memo on, no faults"),
            sys.image_slot(spec).expect("memo on, no faults").key,
        ]
    }

    #[test]
    fn memo_keys_separate_layouts_and_names() {
        use morpheus_format::FieldKind::{self, *};
        let file = b"1 2\n3 4\n";
        let mut sys = System::new(SystemParams::paper_testbed());
        sys.create_input_file("key.txt", file).unwrap();
        let spec = |name: &str, fields: &[FieldKind], format| {
            let schema = Schema::new(fields.to_vec());
            AppSpec::cpu_app(name, "key.txt", schema, 1, 1.0).with_input_format(format)
        };
        let (text, le, be) = (
            InputFormat::Text,
            InputFormat::Binary(Endianness::Little),
            InputFormat::Binary(Endianness::Big),
        );
        let base = [U32, F64];
        let mut layouts = vec![
            spec("key", &base, text),
            // The field order, the field count, the input format.
            spec("key", &[F64, U32], text),
            spec("key", &[U32], text),
            spec("key", &[U32, F64, U32], text),
            spec("key", &base, le),
            spec("key", &base, be),
        ];
        // Each other kind in each field.
        for at in 0..base.len() {
            for kind in [U32, I32, U64, I64, F32, F64] {
                if kind != base[at] {
                    let mut fields = base;
                    fields[at] = kind;
                    layouts.push(spec("key", &fields, text));
                }
            }
        }
        let all: Vec<[MemoKey; 3]> = layouts.iter().map(|s| keys(&mut sys, s)).collect();
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate().skip(i + 1) {
                for (table, (ka, kb)) in ["device", "host", "image"].iter().zip(a.iter().zip(b)) {
                    assert_ne!(ka, kb, "{table} keys of layouts {i} and {j} collide");
                }
            }
        }
        // A name reaches only the device key: one image per content,
        // schema and format.
        let [device, host, image] = all[0];
        let renamed = keys(&mut sys, &spec("other", &base, text));
        assert_ne!(renamed[0], device);
        assert_eq!(renamed[1..], [host, image]);
        // Keys are values: another system with the same file agrees.
        let mut twin = System::new(SystemParams::paper_testbed());
        twin.create_input_file("key.txt", file).unwrap();
        for (spec, keys_here) in layouts.iter().zip(&all) {
            assert_eq!(&keys(&mut twin, spec), keys_here);
        }
    }

    fn key_schema() -> morpheus_format::Schema {
        morpheus_format::Schema::new(vec![morpheus_format::FieldKind::U32; 2])
    }

    /// One edit to the testbed parameters.
    type Vary = fn(&mut crate::SystemParams);

    /// The device key of one file on a system built from `params`.
    fn device_key(params: crate::SystemParams) -> MemoKey {
        let mut sys = System::new(params);
        sys.create_input_file("key.txt", b"1 2\n3 4\n").unwrap();
        let spec = AppSpec::cpu_app("key", "key.txt", key_schema(), 1, 1.0);
        let meta = sys.fs.open("key.txt").unwrap().clone();
        let chunks = System::file_chunks(&meta, sys.params.mread_chunk_bytes);
        sys.device_memo_key(&spec, &chunks)
            .expect("memo on, no faults")
    }

    #[test]
    fn every_drive_parameter_reaches_the_device_key() {
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
