//! The replay memo is invisible: in one process, a `System` with no
//! replay store (memo-off, everything deserialized live) and a `System`
//! whose store an identical earlier run warmed (everything replayed) must
//! let an observer see the same bytes — solo runs in every mode, traced
//! and sampled serve cells on both engines, and concurrent tenants.

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

/// A traced system with both inputs staged, sharing `store`.
fn system(store: Option<Arc<ReplayStore>>) -> System {
    let mut sys = System::new(SystemParams::paper_testbed());
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
    observe(&mut system(Some(store.clone())));
    let warmed = format!("{store:?}");
    assert_ne!(warmed, cold_store, "the first sequence records");

    let replayed = observe(&mut system(Some(store.clone())));
    assert_eq!(format!("{store:?}"), warmed, "a warm sequence only replays");
    let live = observe(&mut system(None));
    assert_eq!(replayed.len(), live.len());
    for ((what, warm), (_, off)) in replayed.iter().zip(&live) {
        assert!(warm == off, "{what} differs between replay and memo-off");
    }
}
