//! Record schemas and the columnar objects deserialization produces.

use crate::{ParseError, ParseErrorKind, ParseWork, StreamingParser};

/// Binary type of one field in a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// 32-bit unsigned integer.
    U32,
    /// 32-bit signed integer.
    I32,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit signed integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl FieldKind {
    /// Bytes of the binary representation.
    pub fn byte_width(self) -> u64 {
        match self {
            FieldKind::U32 | FieldKind::I32 | FieldKind::F32 => 4,
            FieldKind::U64 | FieldKind::I64 | FieldKind::F64 => 8,
        }
    }

    /// True for the float kinds (which hit the soft-float path on the
    /// embedded cores).
    pub fn is_float(self) -> bool {
        matches!(self, FieldKind::F32 | FieldKind::F64)
    }
}

/// The field layout of one record (one text line / tuple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<FieldKind>,
}

impl Schema {
    /// Creates a schema.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty.
    pub fn new(fields: Vec<FieldKind>) -> Self {
        assert!(!fields.is_empty(), "a schema needs at least one field");
        Schema { fields }
    }

    /// The record's fields.
    pub fn fields(&self) -> &[FieldKind] {
        &self.fields
    }

    /// Binary bytes per record.
    pub fn record_bytes(&self) -> u64 {
        self.fields.iter().map(|f| f.byte_width()).sum()
    }

    /// Fraction of fields that are floats.
    pub fn float_fraction(&self) -> f64 {
        self.fields.iter().filter(|f| f.is_float()).count() as f64 / self.fields.len() as f64
    }
}

/// One parsed column (integers are widened to `i64`, floats to `f64`; the
/// declared [`FieldKind`] still governs the binary byte width).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer-kind column.
    Ints(Vec<i64>),
    /// Float-kind column.
    Floats(Vec<f64>),
}

impl Column {
    /// The integer data, if this is an integer column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Column::Ints(v) => Some(v),
            Column::Floats(_) => None,
        }
    }

    /// The float data, if this is a float column.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match self {
            Column::Floats(v) => Some(v),
            Column::Ints(_) => None,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Ints(v) => v.len(),
            Column::Floats(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a consumer that only counts and verifies objects needs of them:
/// their record count, binary size and checksum. Computed once per
/// content with [`ParsedColumns::digest`], it stands in for the columns
/// wherever nothing reads the values themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectDigest {
    /// Records deserialized.
    pub records: u64,
    /// Binary object size ([`ParsedColumns::binary_bytes`]).
    pub bytes: u64,
    /// [`ParsedColumns::checksum`] of the objects.
    pub checksum: u64,
}

/// The application objects a deserialization produced: one column per
/// schema field, in field order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedColumns {
    /// The schema the data was parsed against.
    pub schema: Schema,
    /// One column per field.
    pub columns: Vec<Column>,
    /// Records parsed.
    pub records: u64,
}

impl ParsedColumns {
    /// Creates the empty result for a schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| {
                if f.is_float() {
                    Column::Floats(Vec::new())
                } else {
                    Column::Ints(Vec::new())
                }
            })
            .collect();
        ParsedColumns {
            schema,
            columns,
            records: 0,
        }
    }

    /// Size of the binary object representation (what the Morpheus-SSD
    /// ships over the interconnect instead of text).
    pub fn binary_bytes(&self) -> u64 {
        self.records * self.schema.record_bytes()
    }

    /// An order-sensitive checksum used by the cross-mode equivalence
    /// tests (conventional, Morpheus, and P2P must produce identical
    /// objects).
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.records);
        for c in &self.columns {
            match c {
                Column::Ints(v) => {
                    for x in v {
                        mix(*x as u64);
                    }
                }
                Column::Floats(v) => {
                    for x in v {
                        mix(x.to_bits());
                    }
                }
            }
        }
        h
    }

    /// Records, binary size and checksum in one value.
    pub fn digest(&self) -> ObjectDigest {
        ObjectDigest {
            records: self.records,
            bytes: self.binary_bytes(),
            checksum: self.checksum(),
        }
    }

    /// Splits off the first `records` rows, leaving only the values of a
    /// trailing partial record (a streaming parse stopped mid-record has
    /// pushed some of its fields already).
    pub(crate) fn take_complete(&mut self) -> ParsedColumns {
        let n = self.records as usize;
        let columns = self
            .columns
            .iter_mut()
            .map(|col| match col {
                Column::Ints(v) => Column::Ints(split_front(v, n)),
                Column::Floats(v) => Column::Floats(split_front(v, n)),
            })
            .collect();
        self.records = 0;
        ParsedColumns {
            schema: self.schema.clone(),
            columns,
            records: n as u64,
        }
    }
}

/// Returns `v[..n]`, leaving `v[n..]` in `v`. The remainder keeps `v`'s
/// capacity, since the next chunk refills it to about the same length.
fn split_front<T: Copy>(v: &mut Vec<T>, n: usize) -> Vec<T> {
    let mut rest = Vec::with_capacity(v.capacity());
    rest.extend_from_slice(&v[n..]);
    v.truncate(n);
    std::mem::replace(v, rest)
}

impl ParsedColumns {
    /// Narrows every value to its declared field width (u32 truncation,
    /// f32 rounding, ...), exactly what storing into a typed C array does.
    ///
    /// Both execution paths apply this, so the conventional host parse and
    /// the Morpheus binary-object path produce bit-identical objects.
    pub fn canonicalize(&mut self) {
        for (kind, col) in self.schema.fields().iter().zip(self.columns.iter_mut()) {
            match (col, kind) {
                (Column::Ints(v), FieldKind::U32) => {
                    for x in v {
                        *x = (*x as u32) as i64;
                    }
                }
                (Column::Ints(v), FieldKind::I32) => {
                    for x in v {
                        *x = (*x as i32) as i64;
                    }
                }
                (Column::Ints(v), FieldKind::U64) => {
                    for x in v {
                        *x = (*x as u64) as i64;
                    }
                }
                (Column::Floats(v), FieldKind::F32) => {
                    for x in v {
                        *x = (*x as f32) as f64;
                    }
                }
                _ => {}
            }
        }
    }

    /// Encodes records `[from, to)` into little-endian binary at the
    /// declared field widths (the representation StorageApps DMA to the
    /// host instead of text), appending them to `out`.
    ///
    /// Column by column: each column's values go to their slots of the
    /// row-major records, so the kind is matched once per column.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the parsed record count.
    pub fn encode_rows(&self, from: u64, to: u64, out: &mut Vec<u8>) {
        assert!(from <= to && to <= self.records, "row range out of bounds");
        let rows = from as usize..to as usize;
        let rec = self.schema.record_bytes() as usize;
        let start = out.len();
        out.resize(start + rows.len() * rec, 0);
        let out = &mut out[start..];
        let mut off = 0;
        for (kind, col) in self.schema.fields().iter().zip(&self.columns) {
            match (kind, col) {
                (FieldKind::U32, Column::Ints(v)) => put(out, rec, off, &v[rows.clone()], |x| {
                    (x as u32).to_le_bytes()
                }),
                (FieldKind::I32, Column::Ints(v)) => put(out, rec, off, &v[rows.clone()], |x| {
                    (x as i32).to_le_bytes()
                }),
                (FieldKind::U64, Column::Ints(v)) => put(out, rec, off, &v[rows.clone()], |x| {
                    (x as u64).to_le_bytes()
                }),
                (FieldKind::I64, Column::Ints(v)) => {
                    put(out, rec, off, &v[rows.clone()], i64::to_le_bytes)
                }
                (FieldKind::F32, Column::Floats(v)) => put(out, rec, off, &v[rows.clone()], |x| {
                    (x as f32).to_le_bytes()
                }),
                (FieldKind::F64, Column::Floats(v)) => {
                    put(out, rec, off, &v[rows.clone()], f64::to_le_bytes)
                }
                _ => unreachable!("columns built from the same schema"),
            }
            off += kind.byte_width() as usize;
        }
    }

    /// Decodes binary records produced by [`encode_rows`], column by
    /// column.
    ///
    /// [`encode_rows`]: ParsedColumns::encode_rows
    ///
    /// # Errors
    ///
    /// Fails with [`ParseErrorKind::UnexpectedEof`] if `bytes` is not a
    /// whole number of records.
    pub fn decode(schema: Schema, bytes: &[u8]) -> Result<ParsedColumns, ParseError> {
        let rec = schema.record_bytes() as usize;
        if !bytes.len().is_multiple_of(rec) {
            return Err(ParseError::new(bytes.len(), ParseErrorKind::UnexpectedEof));
        }
        let mut off = 0;
        let columns = schema
            .fields()
            .iter()
            .map(|kind| {
                let col = match kind {
                    FieldKind::U32 => {
                        Column::Ints(get(bytes, rec, off, |b| u32::from_le_bytes(b) as i64))
                    }
                    FieldKind::I32 => {
                        Column::Ints(get(bytes, rec, off, |b| i32::from_le_bytes(b) as i64))
                    }
                    FieldKind::U64 => {
                        Column::Ints(get(bytes, rec, off, |b| u64::from_le_bytes(b) as i64))
                    }
                    FieldKind::I64 => Column::Ints(get(bytes, rec, off, i64::from_le_bytes)),
                    FieldKind::F32 => {
                        Column::Floats(get(bytes, rec, off, |b| f32::from_le_bytes(b) as f64))
                    }
                    FieldKind::F64 => Column::Floats(get(bytes, rec, off, f64::from_le_bytes)),
                };
                off += kind.byte_width() as usize;
                col
            })
            .collect();
        Ok(ParsedColumns {
            schema,
            columns,
            records: (bytes.len() / rec) as u64,
        })
    }
}

/// Writes `bytes(x)` for each value into its row's field slot at `off`, in
/// row-major `out` with `rec`-byte records.
#[inline]
fn put<T: Copy, const W: usize>(
    out: &mut [u8],
    rec: usize,
    off: usize,
    vals: &[T],
    bytes: impl Fn(T) -> [u8; W],
) {
    for (row, &x) in out.chunks_exact_mut(rec).zip(vals) {
        row[off..off + W].copy_from_slice(&bytes(x));
    }
}

/// One column read from the field slot at `off` of every `rec`-byte record
/// of `bytes`.
#[inline]
fn get<T, const W: usize>(
    bytes: &[u8],
    rec: usize,
    off: usize,
    value: impl Fn([u8; W]) -> T,
) -> Vec<T> {
    bytes
        .chunks_exact(rec)
        .map(|row| value(row[off..off + W].try_into().expect("a W-byte field slot")))
        .collect()
}

/// Parses a buffer of whitespace/comma-separated records against a schema:
/// the whole buffer is one chunk of a [`StreamingParser`], so this runs the
/// same record loop as the streamed host and device parses.
///
/// Returns the columns and the work performed.
///
/// # Errors
///
/// Fails on malformed tokens or if the input ends mid-record.
pub fn parse_buffer(
    data: &[u8],
    schema: &Schema,
) -> Result<(ParsedColumns, ParseWork), ParseError> {
    let mut parser = StreamingParser::new(schema.clone());
    parser.feed(data)?;
    parser.finish_with_work()
}

/// Ensures the input did not end in the middle of a record; exposed for the
/// streaming parser.
pub(crate) fn incomplete_record_error(offset: usize) -> ParseError {
    ParseError::new(offset, ParseErrorKind::UnexpectedEof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    #[test]
    fn schema_widths() {
        let s = Schema::new(vec![FieldKind::U32, FieldKind::F64, FieldKind::I32]);
        assert_eq!(s.record_bytes(), 16);
        assert!((s.float_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn parse_buffer_builds_columns() {
        let (p, w) = parse_buffer(b"0 1\n2 3\n4 5\n", &edge_schema()).unwrap();
        assert_eq!(p.records, 3);
        assert_eq!(p.columns[0].as_ints().unwrap(), &[0, 2, 4]);
        assert_eq!(p.columns[1].as_ints().unwrap(), &[1, 3, 5]);
        assert_eq!(p.binary_bytes(), 3 * 8);
        assert_eq!(w.int_tokens, 6);
        assert_eq!(w.bytes_scanned, 12);
    }

    #[test]
    fn mixed_schema_parses_floats() {
        let s = Schema::new(vec![FieldKind::U32, FieldKind::U32, FieldKind::F64]);
        let (p, w) = parse_buffer(b"1 2 0.5\n3 4 -1.25\n", &s).unwrap();
        assert_eq!(p.columns[2].as_floats().unwrap(), &[0.5, -1.25]);
        assert_eq!(w.float_tokens, 2);
    }

    #[test]
    fn empty_input_is_zero_records() {
        let (p, _) = parse_buffer(b"  \n ", &edge_schema()).unwrap();
        assert_eq!(p.records, 0);
        assert_eq!(p.binary_bytes(), 0);
    }

    #[test]
    fn truncated_record_fails() {
        let err = parse_buffer(b"0 1\n2", &edge_schema()).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn checksum_differs_on_different_data() {
        let (a, _) = parse_buffer(b"0 1\n", &edge_schema()).unwrap();
        let (b, _) = parse_buffer(b"0 2\n", &edge_schema()).unwrap();
        assert_ne!(a.checksum(), b.checksum());
        let (a2, _) = parse_buffer(b"0 1\n", &edge_schema()).unwrap();
        assert_eq!(a.checksum(), a2.checksum());
    }

    #[test]
    fn digest_carries_records_bytes_and_checksum() {
        let (p, _) = parse_buffer(b"0 1\n2 3\n", &edge_schema()).unwrap();
        let d = p.digest();
        assert_eq!(
            (d.records, d.bytes, d.checksum),
            (p.records, p.binary_bytes(), p.checksum())
        );
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_schema_rejected() {
        let _ = Schema::new(vec![]);
    }
}

#[cfg(test)]
mod binary_codec_tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips_after_canonicalize() {
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::I32, FieldKind::F32]);
        let (mut p, _) = parse_buffer(b"1 -2 0.5\n4294967295 3 1.25\n", &schema).unwrap();
        p.canonicalize();
        let mut bytes = Vec::new();
        p.encode_rows(0, p.records, &mut bytes);
        assert_eq!(bytes.len() as u64, p.binary_bytes());
        let back = ParsedColumns::decode(schema, &bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.checksum(), p.checksum());
    }

    #[test]
    fn canonicalize_narrows_u32() {
        let schema = Schema::new(vec![FieldKind::U32]);
        let (mut p, _) = parse_buffer(b"4294967296\n", &schema).unwrap();
        p.canonicalize();
        assert_eq!(p.columns[0].as_ints().unwrap(), &[0]);
    }

    #[test]
    fn partial_row_ranges_encode() {
        let schema = Schema::new(vec![FieldKind::U64]);
        let (p, _) = parse_buffer(b"1\n2\n3\n", &schema).unwrap();
        let mut bytes = Vec::new();
        p.encode_rows(1, 3, &mut bytes);
        let back = ParsedColumns::decode(schema, &bytes).unwrap();
        assert_eq!(back.columns[0].as_ints().unwrap(), &[2, 3]);
    }

    #[test]
    fn decode_rejects_ragged_input() {
        let schema = Schema::new(vec![FieldKind::U64]);
        assert!(ParsedColumns::decode(schema, &[0u8; 7]).is_err());
    }
}
