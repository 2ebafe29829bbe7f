//! Golden reports of the StorageApp clients beside deserialization: the
//! KV range scan, filtered on the host and inside the drive by
//! `KvScanApp`, and serialization in both modes. Every field of each
//! report is pinned, on inputs small enough for a debug build, so a
//! change to how a client drives its instance lifecycle that moves one
//! simulated number fails here.

use morpheus::{Mode, System, SystemParams};
use morpheus_format::{FieldKind, ParsedColumns, Schema, TextWriter};
use morpheus_kvstore::{scan_conventional, scan_morpheus, synth_pairs, KvConfig, KvStore};

#[test]
fn kv_scans_reproduce_their_golden_reports() {
    // 2,500 buckets of 4 KiB: the in-storage scan takes one 8 MiB MREAD
    // and a 1.77 MiB one.
    let mut sys = System::new(SystemParams::paper_testbed());
    let cfg = KvConfig {
        buckets: 2_500,
        bucket_bytes: 4096,
        probe_limit: 4,
    };
    let kv = KvStore::format(&mut sys.mssd.dev, 0, cfg).unwrap();
    for (k, v) in synth_pairs(20_000, 1_000_000, 5) {
        kv.put(&mut sys.mssd.dev, k, &v).unwrap();
    }
    let (conv, conv_rep) = scan_conventional(&mut sys, &kv, 0, 100_000).unwrap();
    let (morp, morp_rep) = scan_morpheus(&mut sys, &kv, 0, 100_000).unwrap();
    assert_eq!(conv, morp, "both scans return the same pairs");
    assert_eq!(
        format!("{conv_rep:?}"),
        "ScanReport { elapsed_s: 0.006375801, host_cpu_busy_s: 0.000866666, \
         pcie_bytes: 10240000, matches: 1988, result_bytes: 59577 }"
    );
    assert_eq!(
        format!("{morp_rep:?}"),
        "ScanReport { elapsed_s: 0.006644742, host_cpu_busy_s: 6.72e-5, \
         pcie_bytes: 59577, matches: 1988, result_bytes: 59577 }"
    );
}

#[test]
fn serializations_reproduce_their_golden_reports() {
    // 40,000 `u32 f64` records: three MWRITEs of up to 16,384 records.
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::F64]);
    let mut w = TextWriter::new();
    for i in 0..40_000u64 {
        w.write_u64(i * 31 % 100_000);
        w.sep();
        w.write_f64(i as f64 * 0.25 - 10.0, 2);
        w.newline();
    }
    let (mut objects, _): (ParsedColumns, _) =
        morpheus_format::parse_buffer(w.as_bytes(), &schema).unwrap();
    objects.canonicalize();
    let mut sys = System::new(SystemParams::paper_testbed());
    let conv = sys
        .run_serialize(&objects, "conv.txt", Mode::Conventional)
        .unwrap();
    let morp = sys
        .run_serialize(&objects, "morph.txt", Mode::Morpheus)
        .unwrap();
    assert_eq!(
        format!("{conv:?}"),
        "SerializeReport { mode: Conventional, serialize_s: 0.010309681, \
         cpu_busy_s: 0.009025267, object_bytes: 480000, text_bytes: 710820, \
         pcie_bytes: 710820, context_switches: 3 }"
    );
    assert_eq!(
        format!("{morp:?}"),
        "SerializeReport { mode: Morpheus, serialize_s: 0.009698876, \
         cpu_busy_s: 8.4e-5, object_bytes: 480000, text_bytes: 710820, \
         pcie_bytes: 480000, context_switches: 5 }"
    );
}
