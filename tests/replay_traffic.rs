//! A replayed request moves no payload byte through the simulator.
//!
//! A counting global allocator totals the bytes every allocation asks
//! for. Once a warm-up serve has recorded each tenant's parse, a replayed
//! conventional request times its READ and drops the drive's page views
//! unread, and a replayed Morpheus request hands out no MREAD bytes, so
//! neither allocates anything sized like its 64 KB file, and no flash
//! page is copied whole (`copy_audit`). One `#[test]`, so nothing else in
//! this process allocates while it measures.

use morpheus::{AppSpec, Mode, ServeConfig, System, SystemParams};
use morpheus_flash::copy_audit;
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator and totals the bytes requested.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation asks for a block of the new size.
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocated() -> usize {
    ALLOCATED.load(Ordering::Relaxed)
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

/// Bytes allocated per served request over five serve runs of three
/// 64 KB tenants in `mode`, after a warm-up run, and whether any flash
/// page was copied whole meanwhile.
fn bytes_per_replayed_request(mode: Mode) -> (usize, bool) {
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
    let mut sys = System::new(SystemParams::paper_testbed());
    let specs: Vec<AppSpec> = (0..3)
        .map(|i| {
            let file = format!("svc{i}.txt");
            sys.create_input_file(&file, &edge_text(64_000, i))
                .expect("tenant inputs fit the drive");
            AppSpec::cpu_app(&format!("svc{i}"), &file, schema.clone(), 1, 50.0)
        })
        .collect();
    let mut cfg = ServeConfig::new(2_000.0, 0.25);
    cfg.mode = mode;
    let warm = sys.serve(&specs, &cfg).expect("the warm-up serves");
    assert!(warm.completed > 100, "every tenant is served and recorded");
    let (before, copies) = (allocated(), copy_audit::count());
    let mut served = 0;
    for seed in 1..=5 {
        cfg.seed = seed;
        let report = sys.serve(&specs, &cfg).expect("the cell serves");
        assert_eq!(report.failed, 0);
        served += report.completed as usize;
    }
    let per_request = (allocated() - before) / served;
    (per_request, copy_audit::count() != copies)
}

#[test]
fn a_replayed_request_allocates_no_payload() {
    for mode in [Mode::Conventional, Mode::Morpheus] {
        let (per_request, copied) = bytes_per_replayed_request(mode);
        assert!(
            per_request < 4 * KIB,
            "{mode}: a replayed 64 KB request allocated {per_request} bytes"
        );
        assert!(!copied, "{mode}: a flash page was copied whole");
    }
}
