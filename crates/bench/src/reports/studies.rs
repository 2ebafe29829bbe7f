//! Studies beside the paper's figures: the §II microbenchmarks, the
//! extensions §I sketches, and the key-value scan offload.

use morpheus::{AppSpec, InputFormat, Mode, SystemParams};
use morpheus_format::{encode_binary, parse_buffer, CostModel, Endianness, FieldKind, Schema};
use morpheus_host::{CodeClass, Cpu, CpuSpec};
use morpheus_kvstore::{scan_conventional, scan_morpheus, synth_pairs, KvConfig, KvStore};
use morpheus_workloads::{int_list_text, sparse_coo_text, BenchError};

use super::{Evaluation, Shown};
use crate::print_table;

/// §II microbenchmarks: where the conventional path's time actually goes.
///
/// Reproduces the three profiling observations the Morpheus design rests
/// on:
///
/// 1. the string-to-integer *conversion* itself is only a small share
///    (~15 %) of the parse-loop's instructions;
/// 2. bypassing the stdio/locking machinery (keeping the same interface)
///    speeds parsing by ~1.6×;
/// 3. the remaining code runs at IPC ≈ 1.2 — poor use of an out-of-order
///    core.
///
/// The inputs have a fixed size, so the harness flags change nothing.
pub fn micro(_: &Evaluation) -> Shown {
    let text = int_list_text(8_000_000, 7, 1_000_000_000);
    let schema = Schema::new(vec![FieldKind::U32]);
    let (parsed, work) = parse_buffer(&text, &schema).expect("generated input parses");
    let host = CostModel::host_cpu();
    let cpu = Cpu::new(CpuSpec::xeon_quad());

    println!(
        "§II microbenchmarks over an {}-byte ASCII integer file\n",
        text.len()
    );

    // (1) Convert fraction.
    let convert = work.int_tokens as f64 * host.int_instr_per_token
        + work.int_digits as f64 * host.int_instr_per_digit;
    let total = host.total_instructions(&work);
    println!(
        "convert instructions: {:.1}% of the parse loop (paper: ~15%)",
        100.0 * convert / total
    );

    // (2) Bypassing the stdio overhead: same interface, lean byte scanner.
    let mut lean = host;
    lean.scan_instr_per_byte = host.scan_instr_per_byte * 0.5;
    let t_full = cpu.duration(host.total_instructions(&work), CodeClass::Deserialize);
    let t_lean = cpu.duration(lean.total_instructions(&work), CodeClass::Deserialize);
    println!(
        "bypassing stdio/locking overheads speeds parsing by {:.2}x (paper: ~1.6x)",
        t_full.as_secs_f64() / t_lean.as_secs_f64()
    );

    // (3) IPC of the remaining code.
    println!(
        "IPC of the deserialization loop: {} (paper: ~1.2)",
        cpu.spec().ipc(CodeClass::Deserialize)
    );

    println!(
        "\nparsed {} records, {:.1} MB of objects from {:.1} MB of text",
        parsed.records,
        parsed.binary_bytes() as f64 / 1e6,
        text.len() as f64 / 1e6
    );
    Ok(())
}

/// Extensions beyond the paper's evaluation (§I sketches both):
///
/// * **Binary inputs** — packed foreign-endian records still need per-field
///   transformation; the conversion is pure integer work, so even
///   float-heavy data gains (no soft-float exposure).
/// * **Serialization** — MWRITE pushes compact binary objects to the drive,
///   which formats the text file itself.
pub fn ext(e: &Evaluation) -> Shown {
    let h = &e.harness;
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32, FieldKind::F64]);
    let bytes = 8_000_000u64.max(2_000_000 * 256 / h.scale.max(1));

    // Build the same logical dataset in three encodings.
    let text = sparse_coo_text(bytes, h.seed);
    let (mut objects, _) = parse_buffer(&text, &schema).expect("generated input parses");
    objects.canonicalize();
    let bin_be = encode_binary(&objects, Endianness::Big);

    println!(
        "Extension study over a float-valued COO dataset ({} records)\n",
        objects.records
    );

    // --- deserialization: text vs foreign-endian binary ---
    let cases = [
        ("spmv-text", "coo.txt", &text, InputFormat::Text),
        (
            "spmv-binary-be",
            "coo.bin",
            &bin_be,
            InputFormat::Binary(Endianness::Big),
        ),
    ];
    let mut rows = Vec::new();
    for (app, file, data, format) in cases {
        let mut sys = h.system(SystemParams::paper_testbed());
        sys.create_input_file(file, data)?;
        h.arm_faults(&mut sys);
        let spec = AppSpec::cpu_app(app, file, schema.clone(), 1, 1300.0).with_input_format(format);
        let mut run = |mode| {
            sys.run(&spec, mode)
                .map_err(|source| BenchError { app, mode, source })
        };
        let conv = run(Mode::Conventional)?;
        let morp = run(Mode::Morpheus)?;
        assert_eq!(conv.report.checksum, morp.report.checksum);
        assert_eq!(conv.report.checksum, objects.checksum());
        rows.push(vec![
            app.to_string(),
            format!("{:.1}MB", data.len() as f64 / 1e6),
            format!("{:.3}s", conv.report.phases.deserialization_s),
            format!("{:.3}s", morp.report.phases.deserialization_s),
            format!("{:.2}x", morp.report.deser_speedup_over(&conv.report)),
        ]);
    }
    print_table(
        &["input", "size", "baseline", "morpheus", "deser speedup"],
        &rows,
    );
    println!("(text floats hit the missing FPU; binary byte-swaps do not)\n");

    // --- serialization: objects -> text file on the drive ---
    let mut sys = h.system(SystemParams::paper_testbed());
    h.arm_faults(&mut sys);
    let conv = sys.run_serialize(&objects, "ser_conv.txt", Mode::Conventional)?;
    let morp = sys.run_serialize(&objects, "ser_morph.txt", Mode::Morpheus)?;
    assert_eq!(
        sys.read_file_bytes("ser_conv.txt")?,
        sys.read_file_bytes("ser_morph.txt")?
    );
    println!("serialization of the same objects into a text file:");
    let rows = [("conventional", &conv), ("morpheus", &morp)].map(|(mode, r)| {
        vec![
            mode.to_string(),
            format!("{:.3}s", r.serialize_s),
            format!("{:.3}s", r.cpu_busy_s),
            format!("{:.1}MB", r.pcie_bytes as f64 / 1e6),
        ]
    });
    print_table(&["mode", "time", "cpu busy", "pcie bytes"], &rows);
    println!(
        "\nserialization speedup: {:.2}x with {:.0}% less PCIe traffic (files byte-identical)",
        conv.serialize_s / morp.serialize_s,
        100.0 * (1.0 - morp.pcie_bytes as f64 / conv.pcie_bytes as f64)
    );
    Ok(())
}

/// Key-value scan offload (§I's "emitting key-value pairs from
/// flash-based key-value store"): selectivity sweep.
///
/// The in-storage scan wins hardest when few keys match — cold buckets
/// never cross PCIe — and converges toward the conventional path as the
/// range widens (everything must be shipped anyway). The sweep has a fixed
/// size, so the harness flags change nothing.
pub fn kv(e: &Evaluation) -> Shown {
    let mut sys = e.harness.system(SystemParams::paper_testbed());
    let cfg = KvConfig {
        buckets: 4096,
        bucket_bytes: 4096,
        probe_limit: 4,
    };
    let kv = KvStore::format(&mut sys.mssd.dev, 0, cfg).expect("format");
    let key_space = 1_000_000u64;
    for (k, v) in synth_pairs(60_000, key_space, 9) {
        kv.put(&mut sys.mssd.dev, k, &v).expect("populate");
    }
    println!(
        "KV region: {} buckets x {} B = {:.1} MB, 60k pairs\n",
        cfg.buckets,
        cfg.bucket_bytes,
        kv.region_bytes() as f64 / 1e6
    );

    let mut rows = Vec::new();
    for pct in [1u64, 10, 50, 100] {
        let hi = key_space * pct / 100;
        let (conv, conv_rep) = scan_conventional(&mut sys, &kv, 0, hi).expect("conventional");
        let (morp, morp_rep) = scan_morpheus(&mut sys, &kv, 0, hi).expect("morpheus");
        assert_eq!(conv, morp, "scans must agree");
        rows.push(vec![
            format!("{pct}%"),
            format!("{}", morp_rep.matches),
            format!("{:.2}ms", conv_rep.elapsed_s * 1e3),
            format!("{:.2}ms", morp_rep.elapsed_s * 1e3),
            format!("{:.2}x", conv_rep.elapsed_s / morp_rep.elapsed_s),
            format!("{:.1}MB", conv_rep.pcie_bytes as f64 / 1e6),
            format!("{:.1}MB", morp_rep.pcie_bytes as f64 / 1e6),
            format!("{:.3}ms", conv_rep.host_cpu_busy_s * 1e3),
            format!("{:.3}ms", morp_rep.host_cpu_busy_s * 1e3),
        ]);
    }
    print_table(
        &[
            "selectivity",
            "matches",
            "host_scan",
            "ssd_scan",
            "speedup",
            "pcie_host",
            "pcie_ssd",
            "cpu_host",
            "cpu_ssd",
        ],
        &rows,
    );
    println!("\n(the scan is flash-bound either way, so elapsed time ties; the offload's win is");
    println!("interconnect traffic and a freed host CPU — exactly the paper's §III argument)");
    Ok(())
}
