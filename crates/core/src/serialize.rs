//! The serialization direction at system level (§I's "other kinds of
//! interactions between memory objects and file data").
//!
//! [`System::run_serialize`] turns in-memory application objects into a
//! text interchange file on the drive:
//!
//! * **Conventional**: the host CPU formats every record (`printf`-path
//!   costs) and writes raw text over NVMe.
//! * **Morpheus**: MWRITE pushes *binary* objects to a [`SerializeApp`]
//!   running on the embedded cores; the text is produced and made durable
//!   inside the drive, so only the compact binary representation crosses
//!   the interconnect.

use crate::firmware::IO_QUEUE_ID;
use crate::{AppRun, CommandPlan, Mode, RunError, SerializeApp, StorageApp, System};
use morpheus_format::{Column, ParsedColumns, TextWriter};
use morpheus_host::CodeClass;
use morpheus_nvme::{NvmeCommand, StatusCode, LBA_BYTES};
use morpheus_pcie::DmaDir;
use morpheus_simcore::{SimDuration, SimTime};

/// Host-side `printf`-path serialization costs (locale, format-string
/// interpretation, buffered stdio) — the mirror image of the `scanf` path.
const HOST_SERIALIZE_INSTR_PER_BYTE: f64 = 30.0;
const HOST_SERIALIZE_INSTR_PER_TOKEN: f64 = 70.0;

/// Records pushed per MWRITE / formatted per host batch.
const RECORDS_PER_BATCH: u64 = 16_384;

/// Measurements of a serialization run.
#[derive(Debug, Clone)]
pub struct SerializeReport {
    /// Execution mode (Conventional or Morpheus).
    pub mode: Mode,
    /// Wall time until the file is durable.
    pub serialize_s: f64,
    /// Host CPU busy time.
    pub cpu_busy_s: f64,
    /// Binary object bytes serialized.
    pub object_bytes: u64,
    /// Text bytes produced.
    pub text_bytes: u64,
    /// Bytes that crossed the PCIe fabric.
    pub pcie_bytes: u64,
    /// Context switches taken.
    pub context_switches: u64,
}

/// The most bytes [`TextWriter::write_row`] prints for one value of `col`,
/// with the separator or newline after it. An integer prints at most 20
/// characters, NaN 3, and a float at six decimals at most 27 below 1e19
/// in magnitude (sign, 19 digits, point, 6 decimals). Larger floats print
/// every integer digit, up to 317 characters, so they are measured.
fn field_budget(col: &Column) -> u64 {
    const INT: u64 = 21;
    const FLOAT: u64 = 28;
    match col {
        Column::Ints(_) => INT,
        Column::Floats(v) => v
            .iter()
            .filter(|x| x.abs() >= 1e19)
            .map(|&x| {
                let mut w = TextWriter::new();
                w.write_f64(x, 6);
                w.as_bytes().len() as u64 + 1
            })
            .fold(FLOAT, u64::max),
    }
}

impl System {
    /// Serializes `objects` into a text file named `output` on the drive,
    /// replacing any file of that name.
    ///
    /// The produced file is byte-identical across modes (verified by the
    /// integration suite): records are written as space-separated tokens,
    /// floats at six decimals.
    ///
    /// # Errors
    ///
    /// Fails for unsupported modes ([`Mode::MorpheusP2P`] has no meaning
    /// here), firmware faults, host-memory exhaustion, or a full drive
    /// ([`RunError::Ssd`]). A failed run leaves no file of that name.
    pub fn run_serialize(
        &mut self,
        objects: &ParsedColumns,
        output: &str,
        mode: Mode,
    ) -> Result<SerializeReport, RunError> {
        if mode == Mode::MorpheusP2P {
            return Err(RunError::NotGpuApp(output.to_string()));
        }
        self.reset_timing();
        let obj_bytes = objects.binary_bytes();
        // Worst-case text size bounds the file allocation; the file is
        // truncated to the real length afterwards. Writing `output` (the
        // MWRITE path) re-creates it: a previous incarnation's pages and
        // any objects cached from it go.
        let per_record_max: u64 = objects.columns.iter().map(field_budget).sum::<u64>() + 1;
        let upper = (objects.records * per_record_max).max(LBA_BYTES);
        let base_slba = self.create_file(output, upper)?.extents[0].slba;

        let outcome = match mode {
            Mode::Conventional => self.serialize_conventional(objects, base_slba),
            Mode::Morpheus => self
                .serialize_morpheus(objects, base_slba)
                .map(|run| (run.end, run.cpu_busy, run.flushed)),
            Mode::MorpheusP2P => unreachable!("rejected above"),
        };
        // A failed run leaves no file behind: neither its name nor its pages.
        let (end, cpu_busy, text_bytes) = outcome.inspect_err(|_| {
            self.remove_file(output)
                .expect("a file's own extents lie in the namespace");
        })?;
        self.fs.truncate(output, text_bytes).expect("file exists");
        let acct = self.os.accounting();
        Ok(SerializeReport {
            mode,
            serialize_s: end.as_secs_f64(),
            cpu_busy_s: cpu_busy.as_secs_f64(),
            object_bytes: obj_bytes,
            text_bytes,
            pcie_bytes: self.fabric.traffic().total_bytes,
            context_switches: acct.context_switches,
        })
    }

    /// Host formats text, drive stores raw bytes.
    fn serialize_conventional(
        &mut self,
        objects: &ParsedColumns,
        base_slba: u64,
    ) -> Result<(SimTime, SimDuration, u64), RunError> {
        let src_addr = self.dram.alloc(1 << 20).ok_or(RunError::OutOfHostMemory)?;
        let mut cpu_ready = SimTime::ZERO;
        let mut cpu_busy = SimDuration::ZERO;
        let mut end = SimTime::ZERO;
        let mut text_off = 0u64;
        let mut carry: Vec<u8> = Vec::new();
        let mut rec = 0u64;
        while rec < objects.records || !carry.is_empty() {
            let hi = (rec + RECORDS_PER_BATCH).min(objects.records);
            let mut w = TextWriter::new();
            for r in rec..hi {
                w.write_row(objects, r as usize);
            }
            rec = hi;
            let work = w.work();
            // Format on the CPU (printf-ish code, low IPC).
            let instr = work.bytes_emitted as f64 * HOST_SERIALIZE_INSTR_PER_BYTE
                + work.tokens as f64 * HOST_SERIALIZE_INSTR_PER_TOKEN;
            let iv = self
                .cpu_cores
                .acquire(cpu_ready, self.cpu.duration(instr, CodeClass::Deserialize));
            cpu_ready = iv.end;
            cpu_busy += iv.duration();
            // write() syscall per batch.
            let os_iv = self.command_wakeup(cpu_ready);
            cpu_ready = os_iv.end;
            cpu_busy += os_iv.duration();

            carry.extend_from_slice(w.as_bytes());
            let flush = if rec == objects.records {
                carry.len()
            } else {
                carry.len() - carry.len() % LBA_BYTES as usize
            };
            if flush == 0 {
                continue;
            }
            let chunk: Vec<u8> = carry.drain(..flush).collect();
            self.membus.account(chunk.len() as u64);
            let dma = self.fabric.dma(
                self.ssd_dev,
                DmaDir::Read,
                src_addr,
                chunk.len() as u64,
                os_iv.end,
            )?;
            let durable =
                self.mssd
                    .dev
                    .write_range(base_slba + text_off / LBA_BYTES, &chunk, dma.end)?;
            let cmd = NvmeCommand::write(
                0,
                1,
                base_slba + text_off / LBA_BYTES,
                (chunk.len() as u64).div_ceil(LBA_BYTES),
                src_addr,
            );
            self.pump(IO_QUEUE_ID, &[(cmd, StatusCode::Success, 0)]);
            text_off += chunk.len() as u64;
            end = end.max(durable);
            if rec == objects.records && carry.is_empty() {
                break;
            }
        }
        Ok((end.max(cpu_ready), cpu_busy, text_off))
    }

    /// Host pushes binary objects, staged a batch of records at a time in
    /// its 1 MiB object buffer, with one MWRITE each; the drive formats and
    /// stores the text.
    fn serialize_morpheus(&mut self, objs: &ParsedColumns, slba: u64) -> Result<AppRun, RunError> {
        let iid = self.alloc_instance();
        self.dram.alloc(1 << 20).ok_or(RunError::OutOfHostMemory)?;
        let app = SerializeApp::new("serialize", objs.schema.clone());
        let (len, rec) = (objs.binary_bytes(), objs.schema.record_bytes());
        let batch = RECORDS_PER_BATCH * rec;
        let plan = CommandPlan::lower_writes(len, batch, slba, iid, app.code_bytes());
        self.run_instance(plan, Box::new(app), |c, bin| {
            let first = c.file_offset / rec;
            objs.encode_rows(first, first + c.valid_bytes / rec, bin);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemParams;
    use morpheus_format::{parse_buffer, FieldKind, Schema};
    use morpheus_ssd::SsdError;

    fn objects(n: u64) -> ParsedColumns {
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::F64]);
        let mut w = TextWriter::new();
        for i in 0..n {
            w.write_u64(i * 31 % 100_000);
            w.sep();
            w.write_f64(i as f64 * 0.25 - 10.0, 2);
            w.newline();
        }
        let (mut p, _) = parse_buffer(w.as_bytes(), &schema).unwrap();
        p.canonicalize();
        p
    }

    #[test]
    fn both_modes_produce_identical_files() {
        let objs = objects(20_000);
        let mut sys = System::new(SystemParams::paper_testbed());
        let conv = sys
            .run_serialize(&objs, "out_conv.txt", Mode::Conventional)
            .unwrap();
        let morp = sys
            .run_serialize(&objs, "out_morph.txt", Mode::Morpheus)
            .unwrap();
        let a = sys.read_file_bytes("out_conv.txt").unwrap();
        let b = sys.read_file_bytes("out_morph.txt").unwrap();
        assert_eq!(a, b, "files must be byte-identical");
        assert_eq!(conv.text_bytes, morp.text_bytes);
        assert_eq!(a.len() as u64, conv.text_bytes);
        // And the file re-parses to the original objects.
        let (mut back, _) = parse_buffer(&a, &objs.schema).unwrap();
        back.canonicalize();
        assert_eq!(back.checksum(), objs.checksum());
    }

    #[test]
    fn morpheus_ships_fewer_bytes_over_pcie() {
        let objs = objects(50_000);
        let mut sys = System::new(SystemParams::paper_testbed());
        let conv = sys
            .run_serialize(&objs, "c.txt", Mode::Conventional)
            .unwrap();
        let morp = sys.run_serialize(&objs, "m.txt", Mode::Morpheus).unwrap();
        // Binary objects are more compact than the text they become here
        // (u32 + f64 as text ≈ 18 bytes vs 12 binary).
        assert!(morp.pcie_bytes < conv.pcie_bytes);
        assert!(morp.cpu_busy_s < conv.cpu_busy_s / 4.0);
    }

    #[test]
    fn p2p_mode_rejected() {
        let objs = objects(10);
        let mut sys = System::new(SystemParams::paper_testbed());
        assert!(sys
            .run_serialize(&objs, "x.txt", Mode::MorpheusP2P)
            .is_err());
    }

    #[test]
    fn a_failed_serialization_leaves_no_instance_live() {
        // Host DRAM cannot hold the 1 MiB staging buffer allocated after
        // MINIT reserved the instance's controller DRAM.
        let mut params = SystemParams::paper_testbed();
        params.host_dram_bytes = 512 << 10;
        let mut sys = System::new(params);
        let err = sys
            .run_serialize(&objects(100), "oom.txt", Mode::Morpheus)
            .unwrap_err();
        assert!(matches!(err, RunError::OutOfHostMemory), "{err:?}");
        assert_eq!(sys.mssd.live_instances(), 0);
        assert_eq!(sys.mssd.dev.dram_used(), 0);
        // Nor does its file: the name reads back as unknown and is free
        // for a retry, which fails for the same reason.
        let err = sys.read_file_bytes("oom.txt").unwrap_err();
        assert!(
            matches!(&err, RunError::UnknownFile(n) if n == "oom.txt"),
            "{err:?}"
        );
        let err = sys
            .run_serialize(&objects(100), "oom.txt", Mode::Conventional)
            .unwrap_err();
        assert!(matches!(err, RunError::OutOfHostMemory), "{err:?}");
    }

    #[test]
    fn serializing_into_a_name_that_exists_replaces_the_file() {
        let (a, b) = (objects(3_000), objects(1_000));
        let mut want = TextWriter::new();
        for r in 0..b.records as usize {
            want.write_row(&b, r);
        }
        let mut sys = System::new(SystemParams::paper_testbed());
        for mode in [Mode::Conventional, Mode::Morpheus] {
            sys.run_serialize(&a, "twice.txt", mode).unwrap();
            let rep = sys.run_serialize(&b, "twice.txt", mode).unwrap();
            assert_eq!(rep.text_bytes, want.as_bytes().len() as u64, "{mode}");
            let text = sys.read_file_bytes("twice.txt").unwrap();
            assert!(
                text == want.as_bytes(),
                "{mode}: the second file reads back"
            );
        }
        // A full volume is the drive error staging returns. The newest
        // file ends where the volume's free blocks start.
        let last = *sys.fs.open("twice.txt").unwrap().extents.last().unwrap();
        let free = sys.mssd.dev.capacity_lbas() - (last.slba + last.blocks);
        sys.fs.create("filler", free * LBA_BYTES).unwrap();
        let err = sys
            .run_serialize(&a, "twice.txt", Mode::Morpheus)
            .unwrap_err();
        assert!(
            matches!(err, RunError::Ssd(SsdError::LbaOutOfRange { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn a_serialization_submits_its_plan_through_queue_1() {
        // 40,000 records: three MWRITEs of up to 16,384 records.
        let objs = objects(40_000);
        let rec = objs.schema.record_bytes();
        let plan = CommandPlan::lower_writes(objs.binary_bytes(), RECORDS_PER_BATCH * rec, 0, 1, 0);
        assert_eq!((plan.reads(), plan.commands().count()), (0, 5));
        let mut sys = System::new(SystemParams::paper_testbed());
        let doorbells = |sys: &mut System| {
            sys.mssd
                .admin
                .io_queue(IO_QUEUE_ID)
                .unwrap()
                .sq
                .doorbell_writes()
        };
        let before = doorbells(&mut sys);
        sys.run_serialize(&objs, "plan.txt", Mode::Morpheus)
            .unwrap();
        assert_eq!(doorbells(&mut sys) - before, plan.commands().count() as u64);
        sys.assert_front_end_idle("a serialization");
        assert_eq!(sys.mssd.live_instances(), 0);
    }

    #[test]
    fn huge_and_non_finite_floats_fit_their_file() {
        // Six decimals print every integer digit: -f64::MAX takes 317
        // bytes and f32::MAX 47, past the 28-byte budget of smaller values.
        let mut rows = vec![(-f64::MAX, f64::from(f32::MAX)); 200];
        rows.extend([
            (f64::NAN, f64::INFINITY),
            (f64::INFINITY, f64::NEG_INFINITY),
            (f64::NEG_INFINITY, f64::NAN),
        ]);
        let (wide, narrow) = rows.iter().copied().unzip();
        let objs = ParsedColumns {
            schema: Schema::new(vec![FieldKind::F64, FieldKind::F32]),
            columns: vec![Column::Floats(wide), Column::Floats(narrow)],
            records: rows.len() as u64,
        };
        let mut want = TextWriter::new();
        for r in 0..rows.len() {
            want.write_row(&objs, r);
        }
        let mut sys = System::new(SystemParams::paper_testbed());
        for (mode, file) in [
            (Mode::Conventional, "huge_conv.txt"),
            (Mode::Morpheus, "huge_morph.txt"),
        ] {
            let rep = sys.run_serialize(&objs, file, mode).unwrap();
            assert_eq!(rep.text_bytes, want.as_bytes().len() as u64, "{mode}");
            let text = sys.read_file_bytes(file).unwrap();
            assert!(text == want.as_bytes(), "{mode} file differs");
        }
    }

    #[test]
    fn empty_objects_serialize_to_empty_file() {
        let objs = objects(0);
        let mut sys = System::new(SystemParams::paper_testbed());
        let rep = sys
            .run_serialize(&objs, "empty.txt", Mode::Morpheus)
            .unwrap();
        assert_eq!(rep.text_bytes, 0);
        assert_eq!(sys.read_file_bytes("empty.txt").unwrap().len(), 0);
    }
}
