//! A simulated drive's heap tracks the data it holds, not its capacity.
//!
//! A counting global allocator measures the live heap a `System` holds
//! empty, what staging sixteen 64 KB files on a 16-device fleet adds, and
//! what each overwrite of a staged file adds. The FTL map grows only to
//! the highest page written, the flash array stores valid pages only, a
//! fleet's replicas view one staged image, and an overwrite discards the
//! old file's whole pages. One `#[test]`, so nothing else in this process
//! allocates while it measures.

use morpheus::{Fleet, FleetConfig, System, SystemParams};
use morpheus_format::TextWriter;
use morpheus_simcore::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn a_drive_holds_only_its_live_pages() {
    let texts: Vec<Vec<u8>> = (0..16).map(|i| edge_text(64_000, i)).collect();

    // An empty drive: no map or page state sized by capacity.
    let before = live();
    let mut solo = System::new(SystemParams::paper_testbed());
    let empty = live().saturating_sub(before);
    assert!(
        empty < 256 * KIB,
        "an empty System holds {} KiB",
        empty / KIB
    );

    // Sixteen replicas of sixteen files share one image per file.
    let mut fleet = Fleet::try_new(SystemParams::paper_testbed(), FleetConfig::new(16))
        .expect("a 16-device fleet is valid");
    let before = live();
    for (i, text) in texts.iter().enumerate() {
        fleet
            .create_input_file(&format!("svc{i}.txt"), text)
            .expect("tenant inputs fit the drive");
    }
    let staged = live().saturating_sub(before);
    assert!(
        staged < 8 * KIB * KIB,
        "staging 16 x 64 KB on 16 devices adds {} KiB",
        staged / KIB
    );
    drop(fleet);

    // An overwrite discards the old file's whole pages; only the page it
    // shares with its neighbour stays.
    for (i, text) in texts.iter().take(2).enumerate() {
        solo.create_input_file(&format!("svc{i}.txt"), text)
            .expect("tenant inputs fit the drive");
    }
    let rounds = 200;
    let before = live();
    for r in 0..rounds {
        solo.overwrite_input_file("svc0.txt", &texts[2 + r % 2])
            .expect("the rewrite fits the drive");
    }
    let per_overwrite = live().saturating_sub(before) / rounds;
    assert!(
        per_overwrite < 24 * KIB,
        "each overwrite adds {} KiB",
        per_overwrite / KIB
    );
    assert_eq!(solo.read_file_bytes("svc1.txt").unwrap(), texts[1]);
    assert_eq!(
        solo.read_file_bytes("svc0.txt").unwrap(),
        texts[2 + (rounds - 1) % 2]
    );
}
