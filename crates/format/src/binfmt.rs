//! Input encodings: decimal text and packed binary records.
//!
//! The paper notes the Morpheus model applies "to other input formats
//! (e.g. binary inputs)" (§I): machines exchange packed structs whose
//! endianness may not match the consumer, so creating application objects
//! still requires a per-field transformation pass — just a cheaper one
//! than ASCII conversion. Crucially, byte-swapping a float is *integer*
//! work, so binary inputs sidestep the embedded cores' missing FPU
//! entirely.
//!
//! [`InputFormat`] names an encoding, and
//! [`StreamingParser::with_format`] parses either one. A packed stream is
//! converted to the little-endian layout of
//! [`ParsedColumns::encode_rows`] by one field-wise byte swap (the same
//! one [`encode_binary`] applies) and decoded by [`ParsedColumns::decode`],
//! with work accounted as pure integer-path effort.

use crate::{ParseError, ParseWork, ParsedColumns, Schema, StreamingParser};

/// Byte order of a packed input file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endianness {
    /// Little-endian (matches the host and our canonical object layout).
    Little,
    /// Big-endian (requires a swap per field).
    Big,
}

/// How a staged input file is encoded (§I's "other input formats").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// Whitespace/comma-separated decimal text (the paper's focus).
    Text,
    /// Packed binary records at the given byte order.
    Binary(Endianness),
}

/// Reverses every field of the whole records in `data`: the conversion
/// between big-endian records and the little-endian object layout, in
/// either direction.
pub(crate) fn swap_fields(data: &mut [u8], schema: &Schema) {
    for row in data.chunks_exact_mut(schema.record_bytes() as usize) {
        let mut off = 0;
        for kind in schema.fields() {
            let w = kind.byte_width() as usize;
            row[off..off + w].reverse();
            off += w;
        }
    }
}

/// Parses a packed record stream against a schema: the whole buffer is
/// one chunk of a binary [`StreamingParser`].
///
/// Returns the columns plus the work performed: every byte is touched
/// once (`bytes_scanned`), every field costs one fixed-up store
/// (`int_tokens`), and big-endian inputs add one swap per field byte
/// (`int_digits`) — all integer-path work, FPU-free.
///
/// # Errors
///
/// Fails with [`ParseErrorKind::UnexpectedEof`](crate::ParseErrorKind)
/// if the input is not a whole number of records.
pub fn parse_binary(
    data: &[u8],
    schema: &Schema,
    endian: Endianness,
) -> Result<(ParsedColumns, ParseWork), ParseError> {
    let mut parser = StreamingParser::with_format(schema.clone(), InputFormat::Binary(endian));
    parser.feed(data)?;
    parser.finish_with_work()
}

/// Serializes columns into a packed record stream at the given byte order
/// (the generator-side inverse of [`parse_binary`]).
pub fn encode_binary(columns: &ParsedColumns, endian: Endianness) -> Vec<u8> {
    let mut out = Vec::new();
    columns.encode_rows(0, columns.records, &mut out);
    if endian == Endianness::Big {
        swap_fields(&mut out, &columns.schema);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_buffer, FieldKind, ParseErrorKind};

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
        assert_eq!(err.offset, 21);
    }

    #[test]
    fn empty_input_is_zero_records() {
        let (p, w) = parse_binary(&[], &mixed_schema(), Endianness::Big).unwrap();
        assert_eq!(p.records, 0);
        assert_eq!(w.bytes_scanned, 0);
    }
}
