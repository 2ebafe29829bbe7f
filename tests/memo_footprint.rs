//! A replay store holds each object stream once, and recordings hold
//! counts and lengths only.
//!
//! A counting global allocator measures the live heap. Serving records a
//! device lifecycle per tenant and must keep no object bytes for it; the
//! three `System::run` modes over one input must add one packed image of
//! its objects, not host columns plus per-MREAD buffers, and every run
//! hands its columns back at their length. One `#[test]`, so nothing else
//! in this process allocates while it measures.

use morpheus::{AppSpec, Mode, ReplayStore, RunOutcome, ServeConfig, System, SystemParams};
use morpheus_format::{Column, FieldKind, Schema, TextWriter};
use morpheus_simcore::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Forwards to the system allocator and counts the bytes held live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let p = unsafe { Heap.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { Heap.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`.
        let p = unsafe { Heap.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const KIB: usize = 1024;

fn schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32])
}

/// Two-column edge-list text of about `bytes`, as `serve` stages for its
/// tenants.
fn edge_text(bytes: u64, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut w = TextWriter::new();
    for _ in 0..(bytes / 12).max(1) {
        w.write_u64(rng.next_below(100_000));
        w.sep();
        w.write_u64(rng.next_below(100_000));
        w.newline();
    }
    w.into_bytes()
}

/// The entry count of `table` in the store's `Debug` rendering.
fn entries(store: &ReplayStore, table: &str) -> usize {
    let shown = format!("{store:?}");
    let at = shown.find(&format!("{table}: ")).expect("a table count") + table.len() + 2;
    let digits: String = shown[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a count")
}

/// Asserts that every column `out` hands back holds no spare capacity.
fn assert_at_length(out: &RunOutcome, run: &str) {
    for (i, c) in out.objects.columns.iter().enumerate() {
        let (len, cap) = match c {
            Column::Ints(v) => (v.len(), v.capacity()),
            Column::Floats(v) => (v.len(), v.capacity()),
        };
        assert_eq!(
            cap, len,
            "{run}: column {i} holds {len} values in {cap} slots"
        );
    }
}

/// The live bytes `store` holds: what dropping the system's handle and
/// `store` returns.
fn held_by(sys: &mut System, store: Arc<ReplayStore>) -> usize {
    let with = live();
    sys.set_replay_store(None);
    drop(store);
    with.saturating_sub(live())
}

#[test]
fn a_store_holds_counts_lengths_and_one_image_per_input() {
    // Serving 32 distinct 64 KB tenants records 32 device lifecycles, and
    // serving never hands columns back, so none keeps object bytes.
    let tenants = 32;
    let mut sys = System::new(SystemParams::paper_testbed());
    let specs: Vec<AppSpec> = (0..tenants)
        .map(|i| {
            let file = format!("svc{i}.txt");
            sys.create_input_file(&file, &edge_text(64_000, i))
                .expect("tenant inputs fit the drive");
            AppSpec::cpu_app(&format!("svc{i}"), &file, schema(), 1, 50.0)
        })
        .collect();
    let store = Arc::new(ReplayStore::default());
    sys.set_replay_store(Some(store.clone()));
    let mut cfg = ServeConfig::new(4_000.0, 0.05);
    cfg.mode = Mode::Morpheus;
    cfg.seed = 1;
    while entries(&store, "device") < specs.len() {
        assert!(cfg.seed <= 16, "every tenant is served within 16 cells");
        let report = sys.serve(&specs, &cfg).expect("the cell serves");
        assert!(report.completed > 0);
        cfg.seed += 1;
    }
    assert_eq!(entries(&store, "images"), 0, "serving publishes no image");
    let per_tenant = held_by(&mut sys, store) / specs.len();
    assert!(
        per_tenant < 2 * KIB,
        "the store holds {per_tenant} bytes per served tenant"
    );

    // One ~1 MB input run in every mode: the store gains one packed image
    // of its objects and the recordings' counts. The edge values are below
    // 100,000, so each column packs into 3 of its 4 bytes.
    let mut sys = System::new(SystemParams::paper_testbed());
    sys.create_input_file("big.txt", &edge_text(1 << 20, 99))
        .expect("the input fits the drive");
    let spec = AppSpec::gpu_app("big", "big.txt", schema(), 40.0, 16.0, 20.0);
    let mut reference = System::new(SystemParams::paper_testbed());
    reference.set_replay_store(None);
    reference
        .create_input_file("big.txt", &edge_text(1 << 20, 99))
        .expect("the input fits the drive");
    let want = reference.run(&spec, Mode::Conventional).expect("the run");
    assert_at_length(&want, "memo-off conventional");
    let store = Arc::new(ReplayStore::default());
    sys.set_replay_store(Some(store.clone()));
    let before = live();
    for mode in [Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P] {
        let out = sys.run(&spec, mode).expect("the run");
        assert_eq!(out.report.checksum, want.report.checksum, "{mode}");
        assert_at_length(&out, &mode.to_string());
    }
    let grown = live().saturating_sub(before);
    let object_bytes = want.report.object_bytes as usize;
    assert!(
        grown <= object_bytes * 8 / 10 + 64 * KIB,
        "three runs grew the heap {grown} bytes for {object_bytes} bytes of objects"
    );
    assert_eq!(entries(&store, "images"), 1, "one image per input");

    // A fourth run replays and hands back the same columns.
    let again = sys.run(&spec, Mode::Morpheus).expect("the run");
    assert!(
        again.objects == want.objects,
        "a replay returns the columns"
    );
    assert_at_length(&again, "replay");
}
