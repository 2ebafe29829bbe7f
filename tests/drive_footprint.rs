//! A simulated drive's heap tracks the data it holds, not its capacity.
//!
//! A counting global allocator measures the live heap a `System` holds
//! empty, what staging sixteen 64 KB files on a 16-device fleet adds, and
//! what each overwrite of a staged file adds, on one drive and on a
//! 16-device fleet. The FTL map grows only to the highest page written,
//! the flash array stores valid pages only, a fleet's replicas view one
//! staged image and one merged page per boundary between files, and an
//! overwrite discards every old page no live file or next allocation
//! shares. One `#[test]`, so nothing else in this process allocates while
//! it measures.

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

/// The live heap each of `rounds` overwrites adds, on average, when
/// `overwrite` is handed two texts in turn.
fn per_overwrite(rounds: usize, texts: &[Vec<u8>], mut overwrite: impl FnMut(&[u8])) -> usize {
    let before = live();
    for r in 0..rounds {
        overwrite(&texts[r % 2]);
    }
    live().saturating_sub(before) / rounds
}

#[test]
fn a_drive_holds_only_its_live_pages() {
    let texts: Vec<Vec<u8>> = (0..16).map(|i| edge_text(64_000, i)).collect();

    // An empty drive: no map or page state sized by capacity, and no
    // state per command identifier (about 51 KiB).
    let before = live();
    let mut solo = System::new(SystemParams::paper_testbed());
    let empty = live().saturating_sub(before);
    assert!(empty < 56 * KIB, "an empty System holds {empty} B");

    // Sixteen replicas of sixteen files share one image per file and one
    // merged page per boundary between two files.
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
        staged < 2 * KIB * KIB,
        "staging 16 x 64 KB on 16 devices adds {} KiB",
        staged / KIB
    );

    // An overwrite on every replica leaves no page behind: the old file's
    // pages go, and so does each page it shared with a file already gone.
    let rounds = 50;
    let fleet_overwrite = per_overwrite(rounds, &texts[2..4], |text| {
        fleet
            .overwrite_input_file("svc0.txt", text)
            .expect("the rewrite fits the drive");
    });
    assert!(
        fleet_overwrite < 16 * KIB,
        "each overwrite on 16 devices adds {} B",
        fleet_overwrite
    );
    for d in [0, 15] {
        let sys = fleet.device_mut(d);
        assert_eq!(sys.read_file_bytes("svc1.txt").unwrap(), texts[1]);
        assert_eq!(
            sys.read_file_bytes("svc0.txt").unwrap(),
            texts[2 + (rounds - 1) % 2]
        );
    }
    drop(fleet);

    // The same on one drive.
    for (i, text) in texts.iter().take(2).enumerate() {
        solo.create_input_file(&format!("svc{i}.txt"), text)
            .expect("tenant inputs fit the drive");
    }
    let rounds = 200;
    let solo_overwrite = per_overwrite(rounds, &texts[2..4], |text| {
        solo.overwrite_input_file("svc0.txt", text)
            .expect("the rewrite fits the drive");
    });
    assert!(
        solo_overwrite < 2 * KIB,
        "each overwrite adds {} B",
        solo_overwrite
    );
    assert_eq!(solo.read_file_bytes("svc1.txt").unwrap(), texts[1]);
    assert_eq!(
        solo.read_file_bytes("svc0.txt").unwrap(),
        texts[2 + (rounds - 1) % 2]
    );
    eprintln!(
        "empty {empty} B, fleet staging {staged} B, fleet overwrite {fleet_overwrite} B, \
         solo overwrite {solo_overwrite} B"
    );
}
