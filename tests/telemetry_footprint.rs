//! Telemetry costs a serve run a few allocations per window.
//!
//! A counting global allocator totals the allocation calls. After a
//! warm-up serve of three 64 KB Morpheus tenants, the same 1,020-request
//! cell is served with telemetry off and then on (10 ms windows,
//! `p99<10ms,avail>99.9`), at 1,000 and at 4,000 rps. Sampling indexes a
//! window's fixed arrays, and the report builds each window's metrics
//! from static column names, so what telemetry adds is each window's
//! metric map and a few per-run vectors. One `#[test]`, so nothing else
//! in this process allocates while it measures.

use morpheus::{AppSpec, Mode, ServeConfig, SloSpec, System, SystemParams, TelemetryConfig};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{SimDuration, SplitMix64};
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

/// The most allocations a sampled run may add per telemetry window.
const PER_WINDOW: usize = 16;

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
fn a_sampled_window_costs_a_few_allocations() {
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
    warm.mode = Mode::Morpheus;
    assert!(
        sys.serve(&specs, &warm)
            .expect("the warm-up serves")
            .completed
            > 100
    );

    let telemetry = TelemetryConfig {
        window: SimDuration::from_millis(10),
        slo: SloSpec::parse("p99<10ms,avail>99.9").expect("the objectives parse"),
    };
    for rps in [1_000.0, 4_000.0] {
        let mut cfg = ServeConfig::new(rps, 1_020.0 / rps);
        cfg.mode = Mode::Morpheus;
        let before = allocations();
        let off = sys.serve(&specs, &cfg).expect("the cell serves");
        let unsampled = allocations() - before;
        cfg.telemetry = Some(telemetry.clone());
        let before = allocations();
        let on = sys.serve(&specs, &cfg).expect("the cell serves");
        let sampled = allocations() - before;
        assert_eq!((on.offered, on.completed), (off.offered, off.completed));
        let windows = on.telemetry.as_ref().expect("sampled").windows.len();
        assert!(windows > 20, "{rps} rps: {windows} windows");
        let per_window = sampled.saturating_sub(unsampled).div_ceil(windows);
        assert!(
            per_window <= PER_WINDOW,
            "{rps} rps: telemetry added {per_window} allocations per window \
             ({sampled} sampled, {unsampled} not, {windows} windows)"
        );
    }
}
