//! A replayed request allocates only its own bookkeeping.
//!
//! A counting global allocator totals the allocation calls. After a
//! warm-up serve has recorded each tenant's parse, the same three 64 KB
//! tenants are served at 1,000 rps for 0.1 s and for 1.1 s. What the
//! longer cell allocates beyond the shorter one, over the requests it
//! completes beyond it, is the cost of one more replayed request, without
//! the per-run set-up both cells pay. A replayed Morpheus request builds
//! no StorageApp (its MINIT installs the recording) and formats no memo
//! key, so it allocates its chunk list; a replayed conventional request
//! allocates its chunk list and its READ's page views. One `#[test]`, so
//! nothing else in this process allocates while it measures.

use morpheus::{AppSpec, Mode, ServeConfig, System, SystemParams};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator and counts the allocation calls.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation asks for a new block.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
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

/// Allocations a longer run may add beyond its requests': its per-run
/// vectors double a few more times as they fill.
const GROWTH: usize = 16;

/// What a 1.1 s cell at 1,000 rps allocates beyond a 0.1 s one in `mode`,
/// after a warm-up serve, and how many more requests it completes.
fn allocations_beyond_a_short_cell(mode: Mode) -> (usize, usize) {
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
    let mut warm = ServeConfig::new(2_000.0, 0.25);
    warm.mode = mode;
    let warm = sys.serve(&specs, &warm).expect("the warm-up serves");
    assert!(warm.completed > 100, "every tenant is served and recorded");
    let mut cell = |seconds| {
        let mut cfg = ServeConfig::new(1_000.0, seconds);
        cfg.mode = mode;
        let before = allocations();
        let report = sys.serve(&specs, &cfg).expect("the cell serves");
        assert_eq!(report.failed, 0);
        (allocations() - before, report.completed as usize)
    };
    let (short, short_served) = cell(0.1);
    let (long, long_served) = cell(1.1);
    let served = long_served - short_served;
    assert!(served > 900, "{mode}: {served} more requests");
    (long - short, served)
}

#[test]
fn a_replayed_request_allocates_only_its_bookkeeping() {
    for (mode, per_request) in [(Mode::Morpheus, 1), (Mode::Conventional, 2)] {
        let (allocated, served) = allocations_beyond_a_short_cell(mode);
        assert!(
            allocated <= per_request * served + GROWTH,
            "{mode}: {served} more replayed requests made {allocated} more allocations \
             ({:.2} a request, budget {per_request})",
            allocated as f64 / served as f64
        );
    }
}
