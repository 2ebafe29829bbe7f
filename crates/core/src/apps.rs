//! Additional StorageApps beyond text deserialization — the generalizations
//! §I sketches: binary input formats and the serialization direction.

use crate::storage_app::emit_rows;
use crate::{AppError, DeviceCtx, StorageApp};
use morpheus_format::{
    BinaryStreamParser, Endianness, ParseWork, ParsedColumns, Schema, TextWriter,
};

/// Deserializes *packed binary* records (possibly foreign-endian) into
/// canonical application objects — the "binary inputs" extension of §I.
///
/// All conversion work is integer-path byte shuffling, so unlike text
/// floats this never touches the missing FPU: binary float inputs are a
/// best case for in-storage deserialization.
#[derive(Debug)]
pub struct BinaryDeserializeApp {
    name: String,
    parser: Option<BinaryStreamParser>,
    emitted_records: u64,
    last_work: ParseWork,
}

impl BinaryDeserializeApp {
    /// Creates the app for a schema stored at the given byte order.
    pub fn new(name: impl Into<String>, schema: Schema, endian: Endianness) -> Self {
        BinaryDeserializeApp {
            name: name.into(),
            parser: Some(BinaryStreamParser::new(schema, endian)),
            emitted_records: 0,
            last_work: ParseWork::default(),
        }
    }
}

impl StorageApp for BinaryDeserializeApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_chunk(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError> {
        let parser = self.parser.as_mut().expect("on_chunk after finish");
        parser.feed(data)?;
        self.emitted_records += emit_rows(ctx, &parser.take_rows());
        let work = parser.work();
        ctx.charge_work(&work.since(&self.last_work));
        self.last_work = work;
        Ok(())
    }

    fn on_finish(&mut self, ctx: &mut DeviceCtx) -> Result<i32, AppError> {
        let parser = self.parser.take().expect("on_finish called twice");
        let rest = parser.finish()?;
        Ok((self.emitted_records + emit_rows(ctx, &rest)) as i32)
    }
}

/// Device-side serialization instruction costs (the lean `ms_printf`
/// loop): per emitted byte and per formatted token.
const SERIALIZE_INSTR_PER_BYTE: f64 = 3.0;
const SERIALIZE_INSTR_PER_TOKEN: f64 = 12.0;

/// The serialization direction (§I): consumes canonical binary object
/// records pushed by the host (via MWRITE) and emits ASCII text with
/// `ms_printf`, so the interchange file is produced inside the drive.
#[derive(Debug)]
pub struct SerializeApp {
    name: String,
    schema: Schema,
    carry: Vec<u8>,
    records: u64,
}

impl SerializeApp {
    /// Creates the app for a record schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        SerializeApp {
            name: name.into(),
            schema,
            carry: Vec::new(),
            records: 0,
        }
    }

    fn serialize_complete(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError> {
        let rec = self.schema.record_bytes() as usize;
        let mut buf = std::mem::take(&mut self.carry);
        buf.extend_from_slice(data);
        let complete = buf.len() - buf.len() % rec;
        let cols = ParsedColumns::decode(self.schema.clone(), &buf[..complete])
            .expect("whole records by construction");
        let mut w = TextWriter::new();
        for r in 0..cols.records as usize {
            for (i, col) in cols.columns.iter().enumerate() {
                if i > 0 {
                    w.sep();
                }
                match col {
                    morpheus_format::Column::Ints(v) => w.write_i64(v[r]),
                    morpheus_format::Column::Floats(v) => w.write_f64(v[r], 6),
                }
            }
            w.newline();
        }
        self.records += cols.records;
        let work = w.work();
        ctx.charge_instructions(
            work.bytes_emitted as f64 * SERIALIZE_INSTR_PER_BYTE
                + work.tokens as f64 * SERIALIZE_INSTR_PER_TOKEN,
        );
        ctx.ms_memcpy(w.as_bytes());
        self.carry = buf[complete..].to_vec();
        Ok(())
    }
}

impl StorageApp for SerializeApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_chunk(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError> {
        self.serialize_complete(ctx, data)
    }

    fn on_finish(&mut self, _ctx: &mut DeviceCtx) -> Result<i32, AppError> {
        if !self.carry.is_empty() {
            return Err(AppError::App(format!(
                "{} trailing bytes do not form a whole record",
                self.carry.len()
            )));
        }
        Ok(self.records as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::{encode_binary, parse_buffer, FieldKind, TextScanner};

    fn schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::F64])
    }

    fn objects() -> ParsedColumns {
        let (mut p, _) = parse_buffer(b"1 0.5\n2 -1.25\n3 9.0\n", &schema()).unwrap();
        p.canonicalize();
        p
    }

    #[test]
    fn binary_app_round_trips_foreign_endian_input() {
        let want = objects();
        let input = encode_binary(&want, Endianness::Big);
        let mut app = BinaryDeserializeApp::new("bin", schema(), Endianness::Big);
        let mut ctx = DeviceCtx::new(256 * 1024);
        // Feed with an awkward split mid-record.
        app.on_chunk(&mut ctx, &input[..7]).unwrap();
        app.on_chunk(&mut ctx, &input[7..]).unwrap();
        let ret = app.on_finish(&mut ctx).unwrap();
        assert_eq!(ret, 3);
        let got = ParsedColumns::decode(schema(), &ctx.take_output()).unwrap();
        assert_eq!(got, want);
        // All charged work is integer-path (no soft-float exposure).
        let w = ctx.take_work();
        assert_eq!(w.float_tokens, 0);
        assert!(w.int_tokens > 0);
    }

    #[test]
    fn binary_parser_state_stays_one_page_across_a_long_stream() {
        let mut text = Vec::new();
        for i in 0..3_000u32 {
            text.extend_from_slice(format!("{i} {}.5\n", i % 97).as_bytes());
        }
        let (mut want, _) = parse_buffer(&text, &schema()).unwrap();
        want.canonicalize();
        let input = encode_binary(&want, Endianness::Big);
        let mut app = BinaryDeserializeApp::new("bin", schema(), Endianness::Big);
        let mut ctx = DeviceCtx::new(256 * 1024);
        // A page size that is not a multiple of the 12-byte record.
        let page = 4096;
        assert!(input.len() > 8 * page, "stream must span many pages");
        for chunk in input.chunks(page) {
            app.on_chunk(&mut ctx, chunk).unwrap();
            let parser = app.parser.as_ref().unwrap();
            assert_eq!(parser.records(), 0, "a complete record was left undrained");
        }
        assert_eq!(app.on_finish(&mut ctx).unwrap(), 3_000);
        let got = ParsedColumns::decode(schema(), &ctx.take_output()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn binary_app_rejects_ragged_stream() {
        let input = encode_binary(&objects(), Endianness::Little);
        let mut app = BinaryDeserializeApp::new("bin", schema(), Endianness::Little);
        let mut ctx = DeviceCtx::new(256 * 1024);
        app.on_chunk(&mut ctx, &input[..input.len() - 1]).unwrap();
        assert!(app.on_finish(&mut ctx).is_err());
    }

    #[test]
    fn serialize_app_emits_parseable_text() {
        let objs = objects();
        let mut bin = Vec::new();
        objs.encode_rows(0, objs.records, &mut bin);
        let mut app = SerializeApp::new("ser", schema());
        let mut ctx = DeviceCtx::new(256 * 1024);
        // Split mid-record to exercise the carry.
        app.on_chunk(&mut ctx, &bin[..5]).unwrap();
        app.on_chunk(&mut ctx, &bin[5..]).unwrap();
        assert_eq!(app.on_finish(&mut ctx).unwrap(), 3);
        let text = ctx.take_output();
        let mut s = TextScanner::new(&text);
        assert_eq!(s.parse_u64().unwrap(), 1);
        assert!((s.parse_f64().unwrap() - 0.5).abs() < 1e-9);
        // And the whole output reparses to the original objects.
        let (mut back, _) = parse_buffer(&text, &schema()).unwrap();
        back.canonicalize();
        assert_eq!(back, objs);
    }

    #[test]
    fn serialize_app_rejects_trailing_garbage() {
        let mut app = SerializeApp::new("ser", schema());
        let mut ctx = DeviceCtx::new(256 * 1024);
        app.on_chunk(&mut ctx, &[1, 2, 3]).unwrap();
        assert!(app.on_finish(&mut ctx).is_err());
    }
}
