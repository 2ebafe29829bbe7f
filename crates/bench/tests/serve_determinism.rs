//! The serving determinism contract: same seed, same rate, same fault
//! plan ⇒ byte-identical report *and* trace, run-to-run and across the
//! harness's `--jobs` fan-out. This is what lets CI diff serve output and
//! lets a knee measurement be quoted as a number instead of a range.

use morpheus::{AppSpec, Mode, ServeConfig, ServePolicy, ServeReport, System, SystemParams};
use morpheus_bench::run_parallel;
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{FaultPlan, Tracer};
use proptest::prelude::*;

/// Stages a small two-tenant serving system (tiny inputs: this file cares
/// about bit-equality, not steady-state throughput).
fn build(seed: u64, faults: Option<&FaultPlan>) -> (System, Vec<AppSpec>) {
    let mut sys = System::new(SystemParams::paper_testbed());
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
    let mut specs = Vec::new();
    for i in 0..2u64 {
        let name = format!("svc{i}");
        let file = format!("{name}.txt");
        let mut w = TextWriter::new();
        for j in 0..200u64 {
            w.write_u64((j * 7 + i + seed) % 100_000);
            w.sep();
            w.write_u64((j * 13 + i + seed) % 100_000);
            w.newline();
        }
        sys.create_input_file(&file, &w.into_bytes()).unwrap();
        specs.push(AppSpec::cpu_app(&name, &file, schema.clone(), 1, 50.0));
    }
    if let Some(plan) = faults {
        sys.set_fault_plan(*plan);
    }
    (sys, specs)
}

/// One full serve run on a fresh system, returning every observable:
/// the report rendered field-for-field (`ServeReport` has no `PartialEq`;
/// its `Debug` form prints every field, histograms included) plus the
/// windowed telemetry CSV, and the Chrome-JSON export of the per-request
/// trace.
fn run_once(seed: u64, rps: f64, mode: Mode, faults: Option<&FaultPlan>) -> (String, String) {
    let (mut sys, specs) = build(seed, faults);
    sys.set_tracer(Tracer::enabled());
    let cfg = ServeConfig {
        rps,
        duration_s: 0.01,
        depth: 8,
        batch_max: 4,
        mode,
        policy: ServePolicy::Shed,
        seed,
        skew: 0.0,
        telemetry: Some(morpheus::TelemetryConfig::new(
            morpheus_simcore::SimDuration::from_micros(500),
        )),
    };
    let rep: ServeReport = sys.serve(&specs, &cfg).expect("serve");
    let csv = rep
        .telemetry
        .as_ref()
        .map(|t| t.to_csv(&[]))
        .unwrap_or_default();
    (
        format!("{rep:?}\n{csv}"),
        sys.tracer().take().to_chrome_json(),
    )
}

#[test]
fn serve_grid_is_identical_at_jobs_1_and_4() {
    // The exact shape the serve binary fans out: a (mode, rps) grid over
    // the order-preserving worker pool.
    let grid: Vec<(Mode, f64)> = [Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P]
        .into_iter()
        .flat_map(|m| [900.0, 2700.0].into_iter().map(move |r| (m, r)))
        .collect();
    let seq = run_parallel(1, &grid, |(m, r)| run_once(42, *r, *m, None));
    let par = run_parallel(4, &grid, |(m, r)| run_once(42, *r, *m, None));
    assert_eq!(seq, par, "fan-out must not change a single byte");
}

#[test]
fn faulty_serve_is_identical_across_jobs_and_repeats() {
    let plan = FaultPlan::parse("seed=9,crash=0.05,stall=0.05,timeout=0.02,flash-uncorr=0.01")
        .expect("valid plan");
    let grid: Vec<f64> = vec![900.0, 2700.0, 8000.0];
    let seq = run_parallel(1, &grid, |r| run_once(7, *r, Mode::Morpheus, Some(&plan)));
    let par = run_parallel(4, &grid, |r| run_once(7, *r, Mode::Morpheus, Some(&plan)));
    assert_eq!(seq, par, "fault rolls must not race with the fan-out");
    let again = run_parallel(1, &grid, |r| run_once(7, *r, Mode::Morpheus, Some(&plan)));
    assert_eq!(seq, again, "fault rolls must replay run-to-run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed, any rate, faults on or off: two runs from scratch agree
    /// on the report and the trace, byte for byte.
    #[test]
    fn serve_replays_byte_identically(
        seed in 0u64..10_000,
        rps in 200.0f64..6000.0,
        conventional in any::<bool>(),
        faulty in any::<bool>(),
    ) {
        let plan = FaultPlan::parse("seed=3,crash=0.1,stall=0.1,timeout=0.05").unwrap();
        let faults = faulty.then_some(&plan);
        let mode = if conventional { Mode::Conventional } else { Mode::Morpheus };
        let a = run_once(seed, rps, mode, faults);
        let b = run_once(seed, rps, mode, faults);
        prop_assert_eq!(a.0, b.0, "reports diverged");
        prop_assert_eq!(a.1, b.1, "traces diverged");
    }
}
