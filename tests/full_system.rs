//! Integration tests spanning the whole stack: host + Morpheus-SSD + GPU +
//! PCIe fabric running the real benchmark suite.

use morpheus::{Mode, System, SystemParams};
use morpheus_workloads::{run_benchmark, stage_input, suite};

const SMALL_INPUT: u64 = 96 * 1024;

fn staged_system() -> System {
    System::new(SystemParams::paper_testbed())
}

#[test]
fn all_benchmarks_agree_across_all_modes() {
    let mut sys = staged_system();
    for bench in suite() {
        stage_input(&mut sys, &bench, SMALL_INPUT, 5).unwrap();
        let conv = run_benchmark(&mut sys, &bench, Mode::Conventional).unwrap();
        let morp = run_benchmark(&mut sys, &bench, Mode::Morpheus).unwrap();
        assert_eq!(conv.kernel, morp.kernel, "{}", bench.name);
        assert_eq!(conv.report.checksum, morp.report.checksum, "{}", bench.name);
        assert_eq!(conv.report.records, morp.report.records, "{}", bench.name);
        assert_eq!(
            conv.report.object_bytes, morp.report.object_bytes,
            "{}",
            bench.name
        );
        if bench.parallel_label == "CUDA" {
            let p2p = run_benchmark(&mut sys, &bench, Mode::MorpheusP2P).unwrap();
            assert_eq!(conv.kernel, p2p.kernel, "{}", bench.name);
            assert_eq!(conv.report.checksum, p2p.report.checksum, "{}", bench.name);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let bench = &suite()[0];
    let mut sys = staged_system();
    stage_input(&mut sys, bench, SMALL_INPUT, 9).unwrap();
    let a = run_benchmark(&mut sys, bench, Mode::Morpheus).unwrap();
    let b = run_benchmark(&mut sys, bench, Mode::Morpheus).unwrap();
    assert_eq!(
        a.report.phases.deserialization_s,
        b.report.phases.deserialization_s
    );
    assert_eq!(a.report.membus_bytes, b.report.membus_bytes);
    assert_eq!(a.report.deser_energy_j, b.report.deser_energy_j);
    assert_eq!(a.kernel, b.kernel);
}

#[test]
fn report_invariants_hold() {
    let mut sys = staged_system();
    for bench in suite().into_iter().take(4) {
        stage_input(&mut sys, &bench, SMALL_INPUT, 5).unwrap();
        for mode in [Mode::Conventional, Mode::Morpheus] {
            let out = run_benchmark(&mut sys, &bench, mode).unwrap();
            let r = &out.report;
            // Phase arithmetic.
            let p = r.phases;
            assert!(p.total_s() >= p.deserialization_s);
            assert!((0.0..=1.0).contains(&p.deserialization_fraction()));
            // Energy = mean power × time, within float noise.
            let e = r.deser_power_watts * p.deserialization_s;
            assert!((e - r.deser_energy_j).abs() < 1e-6 * r.deser_energy_j.max(1.0));
            assert!(r.total_energy_j >= r.deser_energy_j);
            // Objects are smaller or comparable to text; both nonzero.
            assert!(r.object_bytes > 0 && r.text_bytes > 0);
            // Effective bandwidth consistent with its definition.
            let bw = r.object_bytes as f64 / p.deserialization_s / 1e6;
            assert!((bw - r.effective_bandwidth_mbs).abs() < 1e-6 * bw);
        }
    }
}

#[test]
fn morpheus_reduces_host_memory_pressure() {
    let bench = &suite()[0];
    let mut sys = staged_system();
    stage_input(&mut sys, bench, 4 << 20, 5).unwrap();
    let conv = run_benchmark(&mut sys, bench, Mode::Conventional).unwrap();
    let morp = run_benchmark(&mut sys, bench, Mode::Morpheus).unwrap();
    // The Morpheus path never allocates buffer X (raw-text landing buffer).
    assert!(
        morp.report.host_dram_peak < conv.report.host_dram_peak,
        "morpheus {} vs conventional {}",
        morp.report.host_dram_peak,
        conv.report.host_dram_peak
    );
    // And moves fewer bytes over the memory bus.
    assert!(morp.report.membus_bytes < conv.report.membus_bytes);
}

#[test]
fn p2p_bypasses_host_memory_entirely() {
    let bench = suite().into_iter().find(|b| b.name == "bfs").unwrap();
    let mut sys = staged_system();
    stage_input(&mut sys, &bench, 2 << 20, 5).unwrap();
    let p2p = run_benchmark(&mut sys, &bench, Mode::MorpheusP2P).unwrap();
    assert_eq!(
        p2p.report.membus_bytes, 0,
        "objects must not touch host DRAM"
    );
    assert!(p2p.report.metrics.get("pcie_p2p_bytes") as u64 >= p2p.report.object_bytes);
    assert_eq!(p2p.report.phases.copy_s, 0.0);
}

#[test]
fn nvme_protocol_path_is_exercised() {
    let bench = &suite()[0];
    let mut sys = staged_system();
    stage_input(&mut sys, bench, SMALL_INPUT, 5).unwrap();
    run_benchmark(&mut sys, bench, Mode::Morpheus).unwrap();
    // Every command travelled through the real submission queue (created
    // by the admin command set at bring-up).
    assert_eq!(sys.mssd.admin.io_queue_count(), 1);
    let qp = sys.mssd.admin.io_queue(1).expect("created at bring-up");
    assert!(qp.sq.doorbell_writes() > 0);
    assert!(qp.sq.is_empty(), "no commands left in flight");
    assert_eq!(qp.cq.outstanding(), 0, "all completions reaped");
    assert_eq!(sys.mssd.live_instances(), 0, "instances torn down");
}

#[test]
fn fragmented_files_parse_identically() {
    let mut sys = staged_system();
    sys.fs.set_max_extent_blocks(64); // 32 KiB extents: heavy fragmentation
    let bench = &suite()[0];
    stage_input(&mut sys, bench, 1 << 20, 13).unwrap();
    let conv = run_benchmark(&mut sys, bench, Mode::Conventional).unwrap();
    let morp = run_benchmark(&mut sys, bench, Mode::Morpheus).unwrap();
    assert_eq!(conv.report.checksum, morp.report.checksum);
    assert_eq!(conv.kernel, morp.kernel);
}

#[test]
fn injected_media_errors_do_not_corrupt_results() {
    let mut params = SystemParams::paper_testbed();
    params.flash_ecc = morpheus_flash::EccModel {
        correctable_prob: 0.25,
        correction_retries: 2,
        uncorrectable_prob: 0.01,
        wear_limit: u64::MAX,
    };
    params.flash_seed = 77;
    let mut clean = System::new(SystemParams::paper_testbed());
    let mut flaky = System::new(params);
    let bench = &suite()[0];
    stage_input(&mut clean, bench, 1 << 20, 5).unwrap();
    stage_input(&mut flaky, bench, 1 << 20, 5).unwrap();
    let want = run_benchmark(&mut clean, bench, Mode::Morpheus).unwrap();
    let got = run_benchmark(&mut flaky, bench, Mode::Morpheus).unwrap();
    // Same objects despite error injection (retries recover)...
    assert_eq!(want.report.checksum, got.report.checksum);
    assert_eq!(want.kernel, got.kernel);
    // ...but the flaky run pays for the retries in time.
    assert!(
        got.report.phases.deserialization_s >= want.report.phases.deserialization_s,
        "retries should not make the drive faster"
    );
}

#[test]
fn deserialization_dominates_conventional_runs() {
    // The premise of the whole paper (Fig. 2).
    let mut sys = staged_system();
    let mut fractions = Vec::new();
    for bench in suite() {
        stage_input(&mut sys, &bench, 1 << 20, 5).unwrap();
        let conv = run_benchmark(&mut sys, &bench, Mode::Conventional).unwrap();
        fractions.push(conv.report.phases.deserialization_fraction());
    }
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    assert!(
        (0.5..0.8).contains(&avg),
        "average deserialization fraction {avg} should be near the paper's 0.64"
    );
}

#[test]
fn headline_speedups_in_paper_range() {
    let mut sys = staged_system();
    let mut deser = Vec::new();
    let mut total = Vec::new();
    for bench in suite() {
        stage_input(&mut sys, &bench, 2 << 20, 5).unwrap();
        let conv = run_benchmark(&mut sys, &bench, Mode::Conventional).unwrap();
        let morp = run_benchmark(&mut sys, &bench, Mode::Morpheus).unwrap();
        deser.push(morp.report.deser_speedup_over(&conv.report));
        total.push(morp.report.total_speedup_over(&conv.report));
    }
    let avg_deser = deser.iter().sum::<f64>() / deser.len() as f64;
    let avg_total = total.iter().sum::<f64>() / total.len() as f64;
    assert!(
        (1.4..2.1).contains(&avg_deser),
        "average deser speedup {avg_deser} vs paper 1.66"
    );
    assert!(
        (1.15..1.6).contains(&avg_total),
        "average total speedup {avg_total} vs paper 1.32"
    );
    // SpMV is the float-bound outlier.
    let spmv_idx = suite().iter().position(|b| b.name == "spmv").unwrap();
    let min = deser.iter().cloned().fold(f64::INFINITY, f64::min);
    assert_eq!(
        deser[spmv_idx], min,
        "spmv should be the slowest to improve"
    );
}

#[test]
fn identify_advertises_morpheus_capabilities() {
    let sys = staged_system();
    // The drive's controller serves the Identify page the host DMA-reads.
    let page = sys.mssd.admin.identify();
    let back = morpheus_nvme::IdentifyController::decode(&page[..]).unwrap();
    let caps = back
        .morpheus
        .expect("morpheus-ssd advertises storageapp support");
    assert_eq!(caps.embedded_cores, sys.params.ssd.embedded_cores);
    assert_eq!(caps.dsram_bytes, sys.params.ssd.dsram_bytes);
    assert!(back.model.contains("Morpheus"));
}

#[test]
fn multiprogrammed_host_widens_the_deser_gap() {
    use morpheus::{CoRunner, SystemParams};
    let bench = &suite()[0];
    let mut idle = System::new(SystemParams::paper_testbed());
    let mut busy = System::new(SystemParams::multiprogrammed(CoRunner::heavy()));
    stage_input(&mut idle, bench, 2 << 20, 5).unwrap();
    stage_input(&mut busy, bench, 2 << 20, 5).unwrap();
    let speedup = |sys: &mut System| {
        let conv = run_benchmark(sys, bench, Mode::Conventional).unwrap();
        let morp = run_benchmark(sys, bench, Mode::Morpheus).unwrap();
        assert_eq!(conv.kernel, morp.kernel);
        (
            morp.report.deser_speedup_over(&conv.report),
            conv.report.context_switches,
        )
    };
    let (idle_speedup, idle_cs) = speedup(&mut idle);
    let (busy_speedup, busy_cs) = speedup(&mut busy);
    assert!(
        busy_speedup > idle_speedup,
        "{busy_speedup} vs {idle_speedup}"
    );
    assert!(busy_cs > idle_cs, "co-runner must add context switches");
}

#[test]
fn binary_input_runs_match_text_runs() {
    use morpheus::{AppSpec, InputFormat};
    use morpheus_format::{encode_binary, parse_buffer, Endianness, FieldKind, Schema};
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::F64]);
    let mut w = morpheus_format::TextWriter::new();
    for i in 0..5_000u64 {
        w.write_u64(i % 997);
        w.sep();
        w.write_f64(i as f64 * 0.5, 3);
        w.newline();
    }
    let text = w.into_bytes();
    let (mut objects, _) = parse_buffer(&text, &schema).unwrap();
    objects.canonicalize();
    let bin = encode_binary(&objects, Endianness::Big);

    let mut sys = staged_system();
    sys.create_input_file("data.txt", &text).unwrap();
    sys.create_input_file("data.bin", &bin).unwrap();
    let text_spec = AppSpec::cpu_app("t", "data.txt", schema.clone(), 2, 100.0);
    let bin_spec = AppSpec::cpu_app("b", "data.bin", schema.clone(), 2, 100.0)
        .with_input_format(InputFormat::Binary(Endianness::Big));
    for mode in [Mode::Conventional, Mode::Morpheus] {
        let from_text = sys.run(&text_spec, mode).unwrap();
        let from_bin = sys.run(&bin_spec, mode).unwrap();
        assert_eq!(from_text.objects, objects);
        assert_eq!(from_bin.objects, objects);
        assert_eq!(from_text.report.checksum, from_bin.report.checksum);
    }
}
