//! The replay memo is invisible: in one process, a `System` with no
//! replay store (memo-off, everything deserialized live) and a `System`
//! whose store an identical earlier run warmed (everything replayed) must
//! let an observer see the same bytes — solo runs in every mode, traced
//! and sampled serve cells on both engines, and concurrent tenants. The
//! same holds step by step while a store fills: runs that hand columns
//! back replay only with their object image, and one image serves every
//! mode and drive configuration.

use std::sync::Arc;

use morpheus::{AppSpec, Mode, ReplayStore, ServeConfig, System, SystemParams};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{SimDuration, SloSpec, TelemetryConfig, Tracer};

fn schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32])
}

fn text(records: u64, salt: u64) -> Vec<u8> {
    let mut w = TextWriter::new();
    for i in 0..records {
        w.write_u64((i * 7 + salt) % 100_000);
        w.sep();
        w.write_u64((i * 13 + salt) % 100_000);
        w.newline();
    }
    w.into_bytes()
}

/// Two tenants' specs: a GPU app (so P2P runs) and a CPU app.
fn specs() -> [AppSpec; 2] {
    [
        AppSpec::gpu_app("gpu", "a.txt", schema(), 330_000.0, 64.0, 90.0),
        AppSpec::cpu_app("cpu", "b.txt", schema(), 1, 50.0),
    ]
}

/// A traced system built from `params` with both inputs staged, sharing
/// `store`.
fn system(params: SystemParams, store: Option<Arc<ReplayStore>>) -> System {
    let mut sys = System::new(params);
    sys.set_replay_store(store);
    sys.set_tracer(Tracer::enabled());
    sys.create_input_file("a.txt", &text(20_000, 1)).unwrap();
    sys.create_input_file("b.txt", &text(12_000, 2)).unwrap();
    sys
}

fn serve_cfg(mode: Mode) -> ServeConfig {
    let mut cfg = ServeConfig::new(2_000.0, 0.02);
    cfg.mode = mode;
    cfg.seed = 7;
    let mut t = TelemetryConfig::new(SimDuration::from_millis(2));
    t.slo = SloSpec::parse("p99<2ms,avail>99.9").unwrap();
    cfg.telemetry = Some(t);
    cfg
}

/// Everything an observer sees of one scripted sequence, labelled.
fn observe(sys: &mut System) -> Vec<(String, String)> {
    let [gpu, cpu] = specs();
    let mut seen = Vec::new();
    for mode in [Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P] {
        let out = sys.run(&gpu, mode).unwrap();
        seen.push((format!("run {mode} report"), format!("{:?}", out.report)));
        seen.push((format!("run {mode} objects"), format!("{:?}", out.objects)));
        let trace = sys.tracer().take().to_chrome_json();
        seen.push((format!("run {mode} trace"), trace));
    }
    for mode in [Mode::Morpheus, Mode::Conventional] {
        let both = [gpu.clone(), cpu.clone()];
        let rep = sys.serve(&both, &serve_cfg(mode)).unwrap();
        seen.push((format!("serve {mode} report"), format!("{rep}")));
        let trace = sys.tracer().take().to_chrome_json();
        seen.push((format!("serve {mode} trace"), trace));
        let csv = rep.telemetry.as_ref().expect("sampled").to_csv(&[]);
        seen.push((format!("serve {mode} csv"), csv));
    }
    for mode in [Mode::Conventional, Mode::Morpheus] {
        let tenants = [(gpu.clone(), mode), (cpu.clone(), mode)];
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        seen.push((format!("tenants {mode}"), format!("{rep:?}")));
    }
    sys.tracer().take();
    seen
}

#[test]
fn a_warm_store_and_no_store_show_the_same_bytes() {
    let store = Arc::new(ReplayStore::default());
    let cold_store = format!("{store:?}");
    let testbed = SystemParams::paper_testbed;
    observe(&mut system(testbed(), Some(store.clone())));
    let warmed = format!("{store:?}");
    assert_ne!(warmed, cold_store, "the first sequence records");

    let replayed = observe(&mut system(testbed(), Some(store.clone())));
    assert_eq!(format!("{store:?}"), warmed, "a warm sequence only replays");
    let live = observe(&mut system(testbed(), None));
    assert_eq!(replayed.len(), live.len());
    for ((what, warm), (_, off)) in replayed.iter().zip(&live) {
        assert!(warm == off, "{what} differs between replay and memo-off");
    }
}

/// One step of a script: what an observer sees of it.
type Step = fn(&mut System) -> String;

/// A solo run of the GPU app: its report, its columns and its trace.
fn run_in(sys: &mut System, mode: Mode) -> String {
    let out = sys.run(&specs()[0], mode).unwrap();
    let trace = sys.tracer().take().to_chrome_json();
    format!("{:?}\n{:?}\n{trace}", out.report, out.objects)
}

/// Steps one system per `params`, all sharing one fresh store, and a twin
/// set with no store: each step runs on the system it names, and must
/// show the same bytes on both sets. Returns the store's entry counts
/// after each step.
fn fill(params: &[SystemParams], steps: &[(usize, Step)]) -> Vec<String> {
    let store = Arc::new(ReplayStore::default());
    let mut warm: Vec<System> = params
        .iter()
        .map(|p| system(p.clone(), Some(store.clone())))
        .collect();
    let mut off: Vec<System> = params.iter().map(|p| system(p.clone(), None)).collect();
    steps
        .iter()
        .enumerate()
        .map(|(i, &(on, step))| {
            let seen = step(&mut warm[on]);
            assert!(seen == step(&mut off[on]), "step {i} differs with no store");
            format!("{store:?}")
        })
        .collect()
}

fn counts(device: usize, host: usize, images: usize) -> String {
    format!("ReplayStore {{ device: {device}, host: {host}, images: {images}, inputs: 0 }}")
}

#[test]
fn a_run_after_serving_runs_live_then_replays_its_image() {
    // Serving records the lifecycle's counts and digest, no image, so the
    // first run that hands columns back runs live and publishes the image;
    // the second replays the recording and decodes the image.
    let serve: Step = |sys| {
        let gpu = &specs()[..1];
        let rep = sys.serve(gpu, &serve_cfg(Mode::Morpheus)).unwrap();
        format!("{rep}\n{}", sys.tracer().take().to_chrome_json())
    };
    let morpheus: Step = |sys| run_in(sys, Mode::Morpheus);
    let after = fill(
        &[SystemParams::paper_testbed()],
        &[(0, serve), (0, morpheus), (0, morpheus)],
    );
    assert_eq!(after, [counts(1, 0, 0), counts(1, 0, 1), counts(1, 0, 1)]);
}

#[test]
fn every_mode_shares_one_image() {
    // The host parse publishes the image; the Morpheus lifecycle's digest
    // confirms it, and the P2P run replays that lifecycle.
    let after = fill(
        &[SystemParams::paper_testbed()],
        &[
            (0, |sys| run_in(sys, Mode::Conventional)),
            (0, |sys| run_in(sys, Mode::Morpheus)),
            (0, |sys| run_in(sys, Mode::MorpheusP2P)),
        ],
    );
    assert_eq!(after, [counts(0, 1, 1), counts(1, 1, 1), counts(1, 1, 1)]);
}

#[test]
fn two_chunkings_record_twice_and_share_one_image() {
    // Each MREAD chunk size records its own lifecycle over one image.
    let mut small = SystemParams::paper_testbed();
    small.mread_chunk_bytes = 64 << 10;
    let morpheus: Step = |sys| run_in(sys, Mode::Morpheus);
    let after = fill(
        &[SystemParams::paper_testbed(), small],
        &[(0, morpheus), (1, morpheus), (0, morpheus), (1, morpheus)],
    );
    assert_eq!(
        after,
        [
            counts(1, 0, 1),
            counts(2, 0, 1),
            counts(2, 0, 1),
            counts(2, 0, 1)
        ]
    );
}
