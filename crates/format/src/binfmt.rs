//! Binary (packed-record) input formats.
//!
//! The paper notes the Morpheus model applies "to other input formats
//! (e.g. binary inputs)" (§I): machines exchange packed structs whose
//! endianness may not match the consumer, so creating application objects
//! still requires a per-field transformation pass — just a cheaper one
//! than ASCII conversion. Crucially, byte-swapping a float is *integer*
//! work, so binary inputs sidestep the embedded cores' missing FPU
//! entirely.
//!
//! [`parse_binary`] converts a packed record stream (at a declared
//! [`Endianness`]) into the same [`ParsedColumns`] the text parsers
//! produce, with work accounted as pure integer-path effort.

use crate::{Column, FieldKind, ParseError, ParseErrorKind, ParseWork, ParsedColumns, Schema};

/// Byte order of a packed input file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endianness {
    /// Little-endian (matches the host and our canonical object layout).
    Little,
    /// Big-endian (requires a swap per field).
    Big,
}

/// Parses a packed record stream against a schema.
///
/// Returns the columns plus the work performed: every byte is touched
/// once (`bytes_scanned`), every field costs one fixed-up store
/// (`int_tokens`), and big-endian inputs add one swap per field byte
/// (`int_digits`) — all integer-path work, FPU-free.
///
/// # Errors
///
/// Fails with [`ParseErrorKind::UnexpectedEof`] if the input is not a
/// whole number of records.
pub fn parse_binary(
    data: &[u8],
    schema: &Schema,
    endian: Endianness,
) -> Result<(ParsedColumns, ParseWork), ParseError> {
    let rec = schema.record_bytes() as usize;
    if !data.len().is_multiple_of(rec) {
        return Err(ParseError::new(data.len(), ParseErrorKind::UnexpectedEof));
    }
    let mut out = ParsedColumns::empty(schema.clone());
    let mut pos = 0usize;
    let mut work = ParseWork {
        bytes_scanned: data.len() as u64,
        ..ParseWork::default()
    };
    let fields: Vec<FieldKind> = schema.fields().to_vec();
    while pos < data.len() {
        for (i, kind) in fields.iter().enumerate() {
            let w = kind.byte_width() as usize;
            let raw = &data[pos..pos + w];
            work.int_tokens += 1;
            if endian == Endianness::Big {
                work.int_digits += w as u64; // swap cost, one op per byte
            }
            let le4 = |b: &[u8]| -> [u8; 4] {
                let mut a: [u8; 4] = b.try_into().expect("width checked");
                if endian == Endianness::Big {
                    a.reverse();
                }
                a
            };
            let le8 = |b: &[u8]| -> [u8; 8] {
                let mut a: [u8; 8] = b.try_into().expect("width checked");
                if endian == Endianness::Big {
                    a.reverse();
                }
                a
            };
            match &mut out.columns[i] {
                Column::Ints(v) => v.push(match kind {
                    FieldKind::U32 => u32::from_le_bytes(le4(raw)) as i64,
                    FieldKind::I32 => i32::from_le_bytes(le4(raw)) as i64,
                    FieldKind::U64 => u64::from_le_bytes(le8(raw)) as i64,
                    FieldKind::I64 => i64::from_le_bytes(le8(raw)),
                    _ => unreachable!("int column with float kind"),
                }),
                Column::Floats(v) => v.push(match kind {
                    FieldKind::F32 => f32::from_le_bytes(le4(raw)) as f64,
                    FieldKind::F64 => f64::from_le_bytes(le8(raw)),
                    _ => unreachable!("float column with int kind"),
                }),
            }
            pos += w;
        }
        out.records += 1;
    }
    Ok((out, work))
}

/// Serializes columns into a packed record stream at the given byte order
/// (the generator-side inverse of [`parse_binary`]).
pub fn encode_binary(columns: &ParsedColumns, endian: Endianness) -> Vec<u8> {
    let mut le = Vec::new();
    columns.encode_rows(0, columns.records, &mut le);
    if endian == Endianness::Little {
        return le;
    }
    // Swap each field in place.
    let mut out = Vec::with_capacity(le.len());
    let widths: Vec<usize> = columns
        .schema
        .fields()
        .iter()
        .map(|f| f.byte_width() as usize)
        .collect();
    let mut pos = 0;
    while pos < le.len() {
        for w in &widths {
            let mut field = le[pos..pos + w].to_vec();
            field.reverse();
            out.extend_from_slice(&field);
            pos += w;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_buffer;

    fn mixed_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::I64, FieldKind::F64])
    }

    fn sample() -> ParsedColumns {
        let (mut p, _) =
            parse_buffer(b"1 -20 0.5\n4294967295 300 -2.25\n", &mixed_schema()).unwrap();
        p.canonicalize();
        p
    }

    #[test]
    fn little_endian_round_trips() {
        let p = sample();
        let bytes = encode_binary(&p, Endianness::Little);
        let (back, work) = parse_binary(&bytes, &mixed_schema(), Endianness::Little).unwrap();
        assert_eq!(back, p);
        assert_eq!(work.bytes_scanned, bytes.len() as u64);
        assert_eq!(work.int_tokens, 6);
        assert_eq!(work.int_digits, 0, "no swaps needed");
        assert_eq!(work.float_tokens, 0, "binary floats are integer work");
    }

    #[test]
    fn big_endian_round_trips_with_swap_cost() {
        let p = sample();
        let bytes = encode_binary(&p, Endianness::Big);
        let (back, work) = parse_binary(&bytes, &mixed_schema(), Endianness::Big).unwrap();
        assert_eq!(back, p);
        assert_eq!(work.int_digits, bytes.len() as u64, "one swap op per byte");
    }

    #[test]
    fn endianness_actually_matters() {
        let p = sample();
        let be = encode_binary(&p, Endianness::Big);
        let le = encode_binary(&p, Endianness::Little);
        assert_ne!(be, le);
        // Misinterpreting the byte order yields different objects.
        let (wrong, _) = parse_binary(&be, &mixed_schema(), Endianness::Little).unwrap();
        assert_ne!(wrong, p);
    }

    #[test]
    fn ragged_input_rejected() {
        let err = parse_binary(&[0u8; 21], &mixed_schema(), Endianness::Little).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn empty_input_is_zero_records() {
        let (p, w) = parse_binary(&[], &mixed_schema(), Endianness::Big).unwrap();
        assert_eq!(p.records, 0);
        assert_eq!(w.bytes_scanned, 0);
    }
}

/// Incremental counterpart of [`parse_binary`] for chunked delivery
/// (MREAD chunks can split a record anywhere).
#[derive(Debug, Clone)]
pub struct BinaryStreamParser {
    schema: Schema,
    endian: Endianness,
    carry: Vec<u8>,
    out: ParsedColumns,
    work: ParseWork,
}

impl BinaryStreamParser {
    /// Creates a parser for a schema at a byte order.
    pub fn new(schema: Schema, endian: Endianness) -> Self {
        BinaryStreamParser {
            out: ParsedColumns::empty(schema.clone()),
            schema,
            endian,
            carry: Vec::new(),
            work: ParseWork::default(),
        }
    }

    /// Complete records parsed since the last [`take_rows`].
    ///
    /// [`take_rows`]: BinaryStreamParser::take_rows
    pub fn records(&self) -> u64 {
        self.out.records
    }

    /// Hands over the records parsed since the last call; only the bytes
    /// of a partial record stay behind, in the carry.
    pub fn take_rows(&mut self) -> ParsedColumns {
        self.out.take_complete()
    }

    /// Work performed so far.
    pub fn work(&self) -> ParseWork {
        self.work
    }

    /// Feeds the next chunk.
    ///
    /// # Errors
    ///
    /// Never fails mid-stream (all byte sequences are valid prefixes);
    /// the `Result` mirrors the text parser's interface.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        let rec = self.schema.record_bytes() as usize;
        let owned;
        let view: &[u8] = if self.carry.is_empty() {
            chunk
        } else {
            let mut joined = std::mem::take(&mut self.carry);
            joined.extend_from_slice(chunk);
            owned = joined;
            &owned
        };
        let complete = view.len() - view.len() % rec;
        let (parsed, work) = parse_binary(&view[..complete], &self.schema, self.endian)
            .expect("whole records by construction");
        self.work.merge(&work);
        for (dst, src) in self.out.columns.iter_mut().zip(&parsed.columns) {
            match (dst, src) {
                (Column::Ints(d), Column::Ints(s)) => d.extend_from_slice(s),
                (Column::Floats(d), Column::Floats(s)) => d.extend_from_slice(s),
                _ => unreachable!("same schema"),
            }
        }
        self.out.records += parsed.records;
        self.carry = view[complete..].to_vec();
        Ok(())
    }

    /// Finishes the stream, returning the records not yet handed over by
    /// [`take_rows`](BinaryStreamParser::take_rows).
    ///
    /// # Errors
    ///
    /// Fails with [`ParseErrorKind::UnexpectedEof`] if bytes of an
    /// incomplete record remain.
    pub fn finish(self) -> Result<ParsedColumns, ParseError> {
        if !self.carry.is_empty() {
            return Err(ParseError::new(
                self.work.bytes_scanned as usize + self.carry.len(),
                ParseErrorKind::UnexpectedEof,
            ));
        }
        Ok(self.out)
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::parse_buffer;

    fn schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::F64])
    }

    fn reference() -> (ParsedColumns, Vec<u8>) {
        let (mut p, _) = parse_buffer(b"1 0.5\n2 1.5\n3 -2.0\n4 9.25\n", &schema()).unwrap();
        p.canonicalize();
        let bytes = encode_binary(&p, Endianness::Big);
        (p, bytes)
    }

    #[test]
    fn chunked_matches_whole_for_every_split() {
        let (want, bytes) = reference();
        for chunk in 1..bytes.len() {
            let mut sp = BinaryStreamParser::new(schema(), Endianness::Big);
            for c in bytes.chunks(chunk) {
                sp.feed(c).unwrap();
            }
            let got = sp.finish().unwrap();
            assert_eq!(got, want, "chunk size {chunk}");
        }
    }

    #[test]
    fn incomplete_record_detected_at_finish() {
        let (_, bytes) = reference();
        let mut sp = BinaryStreamParser::new(schema(), Endianness::Big);
        sp.feed(&bytes[..bytes.len() - 3]).unwrap();
        assert!(sp.finish().is_err());
    }

    #[test]
    fn work_accumulates_across_feeds() {
        let (_, bytes) = reference();
        let mut sp = BinaryStreamParser::new(schema(), Endianness::Big);
        for c in bytes.chunks(5) {
            sp.feed(c).unwrap();
        }
        let w = sp.work();
        assert_eq!(w.bytes_scanned, bytes.len() as u64);
        assert_eq!(w.int_tokens, 8);
    }
}
