//! The serialization direction (§I): a StorageApp that turns binary
//! objects into text inside the drive. Deserialization, of every input
//! encoding, is [`DeserializeApp`](crate::DeserializeApp).

use crate::{AppError, DeviceCtx, StorageApp};
use morpheus_format::{Endianness, InputFormat, Schema, StreamingParser, TextWriter};

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
    /// Decodes the pushed records, which MWRITE may split anywhere. Only
    /// the `ms_printf` loop is priced, so its parse work is never charged.
    parser: StreamingParser,
    records: u64,
}

impl SerializeApp {
    /// Creates the app for a record schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        SerializeApp {
            name: name.into(),
            parser: StreamingParser::with_format(schema, InputFormat::Binary(Endianness::Little)),
            records: 0,
        }
    }
}

impl StorageApp for SerializeApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_chunk(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError> {
        self.parser.feed(data)?;
        let rows = self.parser.take_rows();
        let mut w = TextWriter::new();
        for r in 0..rows.records as usize {
            w.write_row(&rows, r);
        }
        self.records += rows.records;
        let work = w.work();
        ctx.charge_instructions(
            work.bytes_emitted as f64 * SERIALIZE_INSTR_PER_BYTE
                + work.tokens as f64 * SERIALIZE_INSTR_PER_TOKEN,
        );
        ctx.ms_memcpy(w.as_bytes());
        Ok(())
    }

    fn on_finish(&mut self, _ctx: &mut DeviceCtx) -> Result<i32, AppError> {
        let partial = self.parser.carry_len();
        if partial > 0 {
            return Err(AppError::App(format!(
                "{partial} trailing bytes do not form a whole record"
            )));
        }
        Ok(self.records as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::{parse_buffer, FieldKind, ParsedColumns, TextScanner};

    fn schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::F64])
    }

    fn objects() -> ParsedColumns {
        let (mut p, _) = parse_buffer(b"1 0.5\n2 -1.25\n3 9.0\n", &schema()).unwrap();
        p.canonicalize();
        p
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
        let err = app.on_finish(&mut ctx).unwrap_err();
        assert_eq!(
            err.to_string(),
            "storageapp failure: 3 trailing bytes do not form a whole record"
        );
    }
}
