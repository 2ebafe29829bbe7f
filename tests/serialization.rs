//! Integration tests for the serialization direction and the runtime's
//! command-plan lowering.

use morpheus::{ms_stream_create, CommandPlan, Mode, System, SystemParams};
use morpheus_format::{parse_buffer, FieldKind, Schema, TextWriter};
use morpheus_nvme::MorpheusCommand;
use morpheus_simcore::Tracer;

fn objects(n: u64) -> morpheus_format::ParsedColumns {
    let schema = Schema::new(vec![FieldKind::I32, FieldKind::U32]);
    let mut w = TextWriter::new();
    for i in 0..n {
        w.write_i64((i as i64 * 17 % 5000) - 2500);
        w.sep();
        w.write_u64(i * 3 % 10_000);
        w.newline();
    }
    let (mut p, _) = parse_buffer(w.as_bytes(), &schema).unwrap();
    p.canonicalize();
    p
}

#[test]
fn serialize_then_deserialize_round_trips_through_the_drive() {
    let objs = objects(30_000);
    let mut sys = System::new(SystemParams::paper_testbed());

    // Serialize on the drive (MWRITE through a SerializeApp).
    let rep = sys
        .run_serialize(&objs, "roundtrip.txt", Mode::Morpheus)
        .unwrap();
    assert_eq!(rep.object_bytes, objs.binary_bytes());
    assert!(rep.text_bytes > 0);

    // Deserialize the produced file back — also on the drive.
    let spec =
        morpheus::AppSpec::cpu_app("roundtrip", "roundtrip.txt", objs.schema.clone(), 2, 50.0);
    let back = sys.run(&spec, Mode::Morpheus).unwrap();
    assert_eq!(
        back.objects, objs,
        "drive->drive round trip must be lossless"
    );
}

#[test]
fn serialization_report_is_consistent() {
    let objs = objects(10_000);
    let mut sys = System::new(SystemParams::paper_testbed());
    let conv = sys
        .run_serialize(&objs, "c.txt", Mode::Conventional)
        .unwrap();
    let morp = sys.run_serialize(&objs, "m.txt", Mode::Morpheus).unwrap();
    for r in [&conv, &morp] {
        assert!(r.serialize_s > 0.0);
        assert!(r.text_bytes > r.object_bytes / 2);
        assert!(r.pcie_bytes > 0);
    }
    // Conventional ships text; Morpheus ships binary (smaller here).
    assert!(morp.pcie_bytes < conv.pcie_bytes);
    // The recorded file length matches what the filesystem serves.
    assert_eq!(
        sys.read_file_bytes("m.txt").unwrap().len() as u64,
        morp.text_bytes
    );
}

#[test]
fn command_plan_matches_what_the_driver_issues() {
    // 64 KiB MREADs over a file split into 100 KiB extents, so the plan
    // has several reads and extent boundaries cut some of them short.
    let mut params = SystemParams::paper_testbed();
    params.mread_chunk_bytes = 64 << 10;
    let mut sys = System::new(params);
    sys.fs.set_max_extent_blocks(200);
    let objs = objects(30_000);
    let mut text = TextWriter::new();
    for r in 0..objs.records as usize {
        text.write_i64(objs.columns[0].as_ints().unwrap()[r]);
        text.sep();
        text.write_i64(objs.columns[1].as_ints().unwrap()[r]);
        text.newline();
    }
    sys.create_input_file("layout.txt", text.as_bytes())
        .unwrap();
    let stream = ms_stream_create(&sys.fs, "layout.txt", sys.params.mread_chunk_bytes).unwrap();
    let plan = CommandPlan::lower(stream, 42, 16 * 1024);
    assert!(plan.reads() > 3, "{} reads", plan.reads());

    sys.set_tracer(Tracer::enabled());
    let doorbells = |sys: &mut System| sys.mssd.admin.io_queue(1).unwrap().sq.doorbell_writes();
    let before = doorbells(&mut sys);
    let spec = morpheus::AppSpec::cpu_app("layout", "layout.txt", objs.schema.clone(), 2, 50.0);
    let run = sys.run(&spec, Mode::Morpheus).unwrap();
    assert_eq!(run.objects, objs);
    // A solo run submits each command on its own doorbell: exactly the
    // plan's commands crossed queue 1.
    assert_eq!(doorbells(&mut sys) - before, plan.commands().count() as u64);

    // The driver traces each command's lifecycle on the queue's track, in
    // issue order; an MREAD span carries the bytes the command moved.
    let log = sys.tracer().take();
    let issued: Vec<_> = log.events.iter().filter(|e| e.track == "ioq1").collect();
    assert_eq!(issued.len(), plan.commands().count());
    for (cmd, span) in plan.commands().zip(&issued) {
        match cmd {
            MorpheusCommand::Init { .. } => assert_eq!(span.name, "MINIT"),
            MorpheusCommand::Read { blocks, .. } => {
                assert_eq!(span.name, "MREAD");
                let bytes = span.bytes.expect("MREAD spans carry bytes");
                assert_eq!(bytes.div_ceil(512), blocks, "MREAD geometry");
            }
            MorpheusCommand::Deinit { .. } => assert_eq!(span.name, "MDEINIT"),
            MorpheusCommand::Write { .. } => panic!("a read plan has no MWRITE"),
        }
    }
    let read: u64 = issued.iter().filter_map(|e| e.bytes).sum();
    assert_eq!(read, plan.stream.len(), "the MREADs cover the file once");
}
