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

    /// Frees every column's capacity past its length.
    pub fn shrink_to_fit(&mut self) {
        for c in &mut self.columns {
            match c {
                Column::Ints(v) => v.shrink_to_fit(),
                Column::Floats(v) => v.shrink_to_fit(),
            }
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
        let mut out = ParsedColumns::empty(schema);
        out.decode_append(bytes)?;
        Ok(out)
    }

    /// Appends the records [`decode`](ParsedColumns::decode) reads from
    /// `bytes` to columns that hold whole records only.
    pub(crate) fn decode_append(&mut self, bytes: &[u8]) -> Result<(), ParseError> {
        let rec = self.schema.record_bytes() as usize;
        if !bytes.len().is_multiple_of(rec) {
            return Err(ParseError::new(bytes.len(), ParseErrorKind::UnexpectedEof));
        }
        let mut off = 0;
        for (kind, col) in self.schema.fields().iter().zip(&mut self.columns) {
            match (kind, col) {
                (FieldKind::U32, Column::Ints(v)) => {
                    get(v, bytes, rec, off, |b| u32::from_le_bytes(b) as i64)
                }
                (FieldKind::I32, Column::Ints(v)) => {
                    get(v, bytes, rec, off, |b| i32::from_le_bytes(b) as i64)
                }
                (FieldKind::U64, Column::Ints(v)) => {
                    get(v, bytes, rec, off, |b| u64::from_le_bytes(b) as i64)
                }
                (FieldKind::I64, Column::Ints(v)) => get(v, bytes, rec, off, i64::from_le_bytes),
                (FieldKind::F32, Column::Floats(v)) => {
                    get(v, bytes, rec, off, |b| f32::from_le_bytes(b) as f64)
                }
                (FieldKind::F64, Column::Floats(v)) => get(v, bytes, rec, off, f64::from_le_bytes),
                _ => unreachable!("columns built from the same schema"),
            }
            off += kind.byte_width() as usize;
        }
        self.records += (bytes.len() / rec) as u64;
        Ok(())
    }

    /// Packs the objects column by column, each integer column at the
    /// fewest bytes its values need: what [`encode_rows`] writes for every
    /// record, held in fewer bytes.
    ///
    /// The layout, every number little-endian:
    /// - the record count, 8 bytes;
    /// - each column in field order. An integer column is a width byte `w`
    ///   from 0 to 8, its base (the least value, 8 bytes), then each
    ///   value's offset from the base in `w` bytes: `w` is the fewest
    ///   bytes that hold the largest offset. A float column is its values
    ///   at the declared width.
    ///
    /// Values are narrowed to their declared kinds first, as
    /// [`encode_rows`] narrows them, so no column is wider than the record
    /// stream stores it and [`unpack`] returns what [`decode`] returns for
    /// that stream. `U64` values are ordered as unsigned, the other
    /// integer kinds as signed.
    ///
    /// [`encode_rows`]: ParsedColumns::encode_rows
    /// [`unpack`]: ParsedColumns::unpack
    /// [`decode`]: ParsedColumns::decode
    ///
    /// # Panics
    ///
    /// Panics if a column holds fewer values than the record count.
    pub fn pack(&self) -> Vec<u8> {
        let n = self.records as usize;
        let spans: Vec<Option<(i64, usize)>> = self
            .schema
            .fields()
            .iter()
            .zip(&self.columns)
            .map(|(&kind, col)| match col {
                Column::Ints(v) => Some(int_span(kind, &v[..n])),
                Column::Floats(_) => None,
            })
            .collect();
        let len: usize = self
            .schema
            .fields()
            .iter()
            .zip(&spans)
            .map(|(kind, span)| match span {
                Some((_, w)) => INT_HEAD + n * w,
                None => n * kind.byte_width() as usize,
            })
            .sum();
        let mut out = Vec::with_capacity(COUNT + len);
        out.extend_from_slice(&self.records.to_le_bytes());
        for ((kind, col), span) in self.schema.fields().iter().zip(&self.columns).zip(spans) {
            match (kind, col, span) {
                (_, Column::Ints(v), Some((base, w))) => {
                    out.push(w as u8);
                    out.extend_from_slice(&base.to_le_bytes());
                    let v = &v[..n];
                    match kind {
                        FieldKind::U32 => pack_offsets(&mut out, v, base, w, |x| x as u32 as i64),
                        FieldKind::I32 => pack_offsets(&mut out, v, base, w, |x| x as i32 as i64),
                        _ => pack_offsets(&mut out, v, base, w, |x| x),
                    }
                }
                (FieldKind::F32, Column::Floats(v), None) => {
                    put_packed(&mut out, &v[..n], |x| (x as f32).to_le_bytes())
                }
                (FieldKind::F64, Column::Floats(v), None) => {
                    put_packed(&mut out, &v[..n], f64::to_le_bytes)
                }
                _ => unreachable!("columns built from the same schema"),
            }
        }
        debug_assert_eq!(out.len(), COUNT + len, "the packing is sized exactly");
        out
    }

    /// The record count of `bytes`, a [`pack`](ParsedColumns::pack)ing of
    /// `schema`'s columns, once its layout checks out: every integer
    /// column's width at most 8, every column whole, and nothing after the
    /// last one.
    ///
    /// # Errors
    ///
    /// Fails with [`ParseErrorKind::UnexpectedEof`] if the packing is cut
    /// short, and with [`ParseErrorKind::UnexpectedChar`] at a width byte
    /// past 8 or at the first byte past the last column.
    pub fn packed_records(schema: &Schema, bytes: &[u8]) -> Result<u64, ParseError> {
        let mut at = Cursor { bytes, at: 0 };
        let records = u64::from_le_bytes(at.take()?);
        for kind in schema.fields() {
            let w = if kind.is_float() {
                kind.byte_width()
            } else {
                at.int_head()?.1 as u64
            };
            at.skip(records.checked_mul(w))?;
        }
        match bytes.get(at.at) {
            Some(&b) => Err(ParseError::new(at.at, ParseErrorKind::UnexpectedChar(b))),
            None => Ok(records),
        }
    }

    /// Unpacks the columns [`pack`](ParsedColumns::pack) packed, each
    /// sized to its length.
    ///
    /// # Errors
    ///
    /// Fails as [`packed_records`](ParsedColumns::packed_records) fails.
    pub fn unpack(schema: Schema, bytes: &[u8]) -> Result<ParsedColumns, ParseError> {
        let records = Self::packed_records(&schema, bytes)?;
        let n = records as usize;
        let mut at = Cursor { bytes, at: 8 };
        let columns = schema
            .fields()
            .iter()
            .map(|kind| {
                Ok(match kind {
                    FieldKind::F32 => Column::Floats(get_packed(at.slice(n * 4)?, |b| {
                        f32::from_le_bytes(b) as f64
                    })),
                    FieldKind::F64 => {
                        Column::Floats(get_packed(at.slice(n * 8)?, f64::from_le_bytes))
                    }
                    _ => {
                        let (base, w) = at.int_head()?;
                        Column::Ints(unpack_offsets(at.slice(n * w)?, n, base, w))
                    }
                })
            })
            .collect::<Result<_, ParseError>>()?;
        Ok(ParsedColumns {
            schema,
            columns,
            records,
        })
    }
}

/// Bytes of a packing's record count.
const COUNT: usize = 8;

/// Bytes of a packed integer column's head: its width byte and base.
const INT_HEAD: usize = 9;

/// The base and byte width of an integer column of `kind` holding `vals`:
/// the least narrowed value, and the fewest bytes that hold the largest
/// value's offset from it (0 for an empty column or one repeated value).
fn int_span(kind: FieldKind, vals: &[i64]) -> (i64, usize) {
    // The 32-bit kinds compare in 32-bit lanes.
    let span = match kind {
        FieldKind::U32 => min_max(vals, |x| x as u32),
        FieldKind::I32 => min_max(vals, |x| x as i32),
        FieldKind::U64 => min_max(vals, |x| x as u64),
        _ => min_max(vals, |x| x),
    };
    let Some((lo, hi)) = span else {
        return (0, 0);
    };
    let span = (hi - lo) as u64;
    (
        lo as i64,
        (u64::BITS - span.leading_zeros()).div_ceil(8) as usize,
    )
}

/// The least and greatest narrowed value of `vals`, widened; `None` when
/// empty.
#[inline]
fn min_max<T: Copy + Ord + Into<i128>>(
    vals: &[i64],
    narrow: impl Fn(i64) -> T,
) -> Option<(i128, i128)> {
    let first = narrow(*vals.first()?);
    let (lo, hi) = vals.iter().fold((first, first), |(lo, hi), &x| {
        (lo.min(narrow(x)), hi.max(narrow(x)))
    });
    Some((lo.into(), hi.into()))
}

/// Appends each narrowed value's offset from `base` in `w` bytes, one loop
/// per width so each copies a fixed number of bytes.
fn pack_offsets(
    out: &mut Vec<u8>,
    vals: &[i64],
    base: i64,
    w: usize,
    narrow: impl Fn(i64) -> i64 + Copy,
) {
    let off = move |x: i64| narrow(x).wrapping_sub(base) as u64;
    match w {
        0 => {}
        1 => put_packed(out, vals, |x| low::<1>(off(x))),
        2 => put_packed(out, vals, |x| low::<2>(off(x))),
        3 => put_packed(out, vals, |x| low::<3>(off(x))),
        4 => put_packed(out, vals, |x| low::<4>(off(x))),
        5 => put_packed(out, vals, |x| low::<5>(off(x))),
        6 => put_packed(out, vals, |x| low::<6>(off(x))),
        7 => put_packed(out, vals, |x| low::<7>(off(x))),
        8 => put_packed(out, vals, |x| off(x).to_le_bytes()),
        _ => unreachable!("an offset fits 8 bytes"),
    }
}

/// The `n` values whose `w`-byte offsets from `base` are `bytes`, one
/// loop per width.
fn unpack_offsets(bytes: &[u8], n: usize, base: i64, w: usize) -> Vec<i64> {
    let at = move |off: u64| base.wrapping_add(off as i64);
    match w {
        0 => vec![base; n],
        1 => get_packed(bytes, |b| at(widen::<1>(b))),
        2 => get_packed(bytes, |b| at(widen::<2>(b))),
        3 => get_packed(bytes, |b| at(widen::<3>(b))),
        4 => get_packed(bytes, |b| at(widen::<4>(b))),
        5 => get_packed(bytes, |b| at(widen::<5>(b))),
        6 => get_packed(bytes, |b| at(widen::<6>(b))),
        7 => get_packed(bytes, |b| at(widen::<7>(b))),
        8 => get_packed(bytes, |b| at(u64::from_le_bytes(b))),
        _ => unreachable!("a checked width is at most 8"),
    }
}

/// The low `W` bytes of `x`, little-endian.
#[inline]
fn low<const W: usize>(x: u64) -> [u8; W] {
    *x.to_le_bytes().first_chunk().expect("W is at most 8")
}

/// The `W` little-endian bytes `b`, zero-extended.
#[inline]
fn widen<const W: usize>(b: [u8; W]) -> u64 {
    let mut le = [0; 8];
    le[..W].copy_from_slice(&b);
    u64::from_le_bytes(le)
}

/// Appends `bytes(x)` for each value, back to back.
#[inline]
fn put_packed<T: Copy, const W: usize>(
    out: &mut Vec<u8>,
    vals: &[T],
    bytes: impl Fn(T) -> [u8; W],
) {
    let start = out.len();
    out.resize(start + vals.len() * W, 0);
    for (slot, &x) in out[start..].as_chunks_mut().0.iter_mut().zip(vals) {
        *slot = bytes(x);
    }
}

/// The value of every `W`-byte slot of `bytes`, in a vector of exactly
/// their number.
#[inline]
fn get_packed<T, const W: usize>(bytes: &[u8], value: impl Fn([u8; W]) -> T) -> Vec<T> {
    bytes.as_chunks().0.iter().map(|&b| value(b)).collect()
}

/// A read position in a packing; every read checks its length.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn eof(&self) -> ParseError {
        ParseError::new(self.bytes.len(), ParseErrorKind::UnexpectedEof)
    }

    /// The next `len` bytes; `UnexpectedEof` when fewer are left.
    fn slice(&mut self, len: usize) -> Result<&'a [u8], ParseError> {
        let end = self.at.checked_add(len).ok_or(self.eof())?;
        let s = self.bytes.get(self.at..end).ok_or(self.eof())?;
        self.at = end;
        Ok(s)
    }

    /// Steps over `len` bytes, `None` when its count overflowed.
    fn skip(&mut self, len: Option<u64>) -> Result<(), ParseError> {
        let len = len.and_then(|l| usize::try_from(l).ok());
        self.slice(len.ok_or(self.eof())?).map(drop)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], ParseError> {
        Ok(*self.slice(N)?.first_chunk().expect("N bytes"))
    }

    /// An integer column's base and width; a width past 8 is an error.
    fn int_head(&mut self) -> Result<(i64, usize), ParseError> {
        let [w] = self.take()?;
        if w > 8 {
            return Err(ParseError::new(
                self.at - 1,
                ParseErrorKind::UnexpectedChar(w),
            ));
        }
        Ok((i64::from_le_bytes(self.take()?), w as usize))
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

/// Appends to `col` the value in the field slot at `off` of every
/// `rec`-byte record of `bytes`.
#[inline]
fn get<T, const W: usize>(
    col: &mut Vec<T>,
    bytes: &[u8],
    rec: usize,
    off: usize,
    value: impl Fn([u8; W]) -> T,
) {
    col.extend(
        bytes
            .chunks_exact(rec)
            .map(|row| value(row[off..off + W].try_into().expect("a W-byte field slot"))),
    );
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
