//! The host deserialization engine end to end: serving honours a spec's
//! input encoding in every mode, and the deserialization memo's
//! record/replay never shows, whatever order the calls run in.
//!
//! Each test stages salted content no other test stages, so the
//! process-wide memo starts cold for it.

use morpheus::{AppSpec, InputFormat, Mode, ServeConfig, System, SystemParams};
use morpheus_format::{
    encode_binary, parse_buffer, Endianness, FieldKind, ParsedColumns, Schema, TextWriter,
};

fn schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::F64])
}

fn salted_text(records: u64, salt: u64) -> Vec<u8> {
    let mut w = TextWriter::new();
    for i in 0..records {
        w.write_u64((i * 7 + salt) % 100_003);
        w.sep();
        w.write_f64((i + salt % 1000) as f64 * 0.25, 2);
        w.newline();
    }
    w.into_bytes()
}

/// What the host parser makes of `text`: the reference objects.
fn reference(text: &[u8]) -> ParsedColumns {
    let (mut objects, _) = parse_buffer(text, &schema()).unwrap();
    objects.canonicalize();
    objects
}

fn serve_cfg(mode: Mode, rps: f64) -> ServeConfig {
    let mut cfg = ServeConfig::new(rps, 0.02);
    cfg.mode = mode;
    cfg
}

#[test]
fn binary_and_text_inputs_serve_to_the_same_objects_in_every_mode() {
    let text = salted_text(3_000, 0x5eed_0001);
    let objects = reference(&text);
    let bin = encode_binary(&objects, Endianness::Big);
    let mut seen = Vec::new();
    for mode in [Mode::Conventional, Mode::Morpheus, Mode::MorpheusP2P] {
        // A fresh system per mode and no solo run of either spec first:
        // serving alone must pick the right parser.
        let mut sys = System::new(SystemParams::paper_testbed());
        sys.create_input_file("data.txt", &text).unwrap();
        sys.create_input_file("data.bin", &bin).unwrap();
        let text_spec = AppSpec::cpu_app("enc", "data.txt", schema(), 1, 50.0);
        let bin_spec = AppSpec::cpu_app("enc", "data.bin", schema(), 1, 50.0)
            .with_input_format(InputFormat::Binary(Endianness::Big));
        for spec in [text_spec, bin_spec] {
            let rep = sys
                .serve(std::slice::from_ref(&spec), &serve_cfg(mode, 500.0))
                .unwrap_or_else(|e| panic!("{mode} {:?}: {e}", spec.input_format));
            assert!(rep.completed > 0, "{mode}: nothing served");
            assert_eq!((rep.shed, rep.failed), (0, 0), "{mode}");
            assert_eq!(rep.completed, rep.offered, "{mode}");
            assert_eq!(rep.records, rep.completed * objects.records, "{mode}");
            seen.push((rep.records, rep.checksum_unordered));
        }
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "text and binary inputs disagree across modes: {seen:?}"
    );
}

#[test]
fn memo_replay_is_invisible_whatever_order_calls_run_in() {
    let text = salted_text(3_000, 0x5eed_0002);
    let mut sys = System::new(SystemParams::paper_testbed());
    sys.create_input_file("cold.txt", &text).unwrap();
    let spec = AppSpec::cpu_app("cold", "cold.txt", schema(), 2, 100.0);

    // The cold serve parses live and records; the warm one replays.
    let cfg = serve_cfg(Mode::Conventional, 1000.0);
    let cold = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap();
    let warm = sys.serve(std::slice::from_ref(&spec), &cfg).unwrap();
    assert!(cold.completed > 1);
    assert_eq!(format!("{cold}"), format!("{warm}"));
    assert_eq!(format!("{cold:?}"), format!("{warm:?}"));

    // Serving recorded only a digest; a solo run still hands back the
    // real columns, and its replayed rerun matches it exactly.
    let want = reference(&text);
    let first = sys.run(&spec, Mode::Conventional).unwrap();
    assert_eq!(first.objects, want);
    let second = sys.run(&spec, Mode::Conventional).unwrap();
    assert_eq!(second.objects, want);
    assert_eq!(
        format!("{:?}", first.report),
        format!("{:?}", second.report)
    );

    // Conventional tenants of a concurrent run, one of them on content
    // nothing has parsed yet, report the same cold and warm.
    sys.create_input_file("tenant.txt", &salted_text(2_000, 0x5eed_0003))
        .unwrap();
    let tenant = AppSpec::cpu_app("tenant", "tenant.txt", schema(), 1, 50.0);
    let tenants = [(tenant, Mode::Conventional), (spec, Mode::Conventional)];
    let cold = sys.run_deserialize_many(&tenants).unwrap();
    let warm = sys.run_deserialize_many(&tenants).unwrap();
    assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
}
