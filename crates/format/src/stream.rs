//! Streaming parsing with chunk-boundary carry.
//!
//! StorageApps never see a whole file: MREAD delivers it in chunks sized by
//! the NVMe transfer limit and the embedded core's D-SRAM (§V). A token or
//! a packed record can be split across two chunks, so the device-library
//! parse loop keeps the unfinished tail of each chunk and prepends it to
//! the next. [`StreamingParser`] implements that loop for every
//! [`InputFormat`], and it is the only record loop: [`parse_buffer`] and
//! [`parse_binary`] feed it one chunk, the host engine 1 MiB chunks and
//! the StorageApps one flash page at a time. Text goes through one token
//! loop; packed records through one field-wise byte swap and
//! [`ParsedColumns::decode`]. `tests/parse_properties.rs` checks both, for
//! arbitrary schemas and chunkings, against independent oracles (one
//! parses every token with [`TextScanner`], the other converts every
//! packed field on its own): the columns, all five [`ParseWork`] counters,
//! and the kind and offset of any error agree.
//!
//! [`parse_buffer`]: crate::parse_buffer
//! [`parse_binary`]: crate::parse_binary

use crate::binfmt::swap_fields;
use crate::scanner::{short_int, skip_separators};
use crate::{
    Column, Endianness, InputFormat, ParseError, ParseErrorKind, ParseWork, ParsedColumns, Schema,
    TextScanner,
};
use std::borrow::Cow;

/// Incremental parser fed one chunk at a time.
///
/// See the [crate example](crate) for usage.
#[derive(Debug, Clone)]
pub struct StreamingParser {
    format: InputFormat,
    out: ParsedColumns,
    /// Work not yet handed out by [`take_work`](StreamingParser::take_work).
    work: ParseWork,
    /// The unterminated token (text) or the bytes of a partial record
    /// (binary) awaiting the next chunk.
    carry: Vec<u8>,
    /// Index of the next field within the current (possibly partial) text
    /// record.
    field_idx: usize,
    /// Total bytes fed so far (for global error offsets).
    total_fed: usize,
    /// Stream offset of `carry[0]`.
    carry_start: usize,
}

impl StreamingParser {
    /// Creates a text parser for a schema.
    pub fn new(schema: Schema) -> Self {
        Self::with_format(schema, InputFormat::Text)
    }

    /// Creates a parser for a schema stored in `format`.
    pub fn with_format(schema: Schema, format: InputFormat) -> Self {
        StreamingParser {
            format,
            out: ParsedColumns::empty(schema),
            work: ParseWork::default(),
            carry: Vec::new(),
            field_idx: 0,
            total_fed: 0,
            carry_start: 0,
        }
    }

    /// Bytes held over from previous chunks awaiting completion.
    pub fn carry_len(&self) -> usize {
        self.carry.len()
    }

    /// Hands over the work performed since the last call: a caller that
    /// prices each chunk takes it after every [`feed`](StreamingParser::feed)
    /// and the rest from [`finish_with_work`](StreamingParser::finish_with_work).
    pub fn take_work(&mut self) -> ParseWork {
        std::mem::take(&mut self.work)
    }

    /// Complete records parsed since the last [`take_rows`].
    ///
    /// [`take_rows`]: StreamingParser::take_rows
    pub fn records(&self) -> u64 {
        self.out.records
    }

    /// Hands over the complete records parsed since the last call, keeping
    /// only the fields of the current partial record (and the carry).
    ///
    /// StorageApps drain after every chunk, so the parser's resident state
    /// stays one chunk plus one partial record however long the stream.
    pub fn take_rows(&mut self) -> ParsedColumns {
        self.out.take_complete()
    }

    /// Feeds the next chunk.
    ///
    /// # Errors
    ///
    /// Fails on malformed text tokens; offsets are global stream offsets.
    /// A binary feed never fails: every byte sequence is a valid prefix.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        let chunk_start = self.total_fed;
        self.total_fed += chunk.len();
        if let InputFormat::Binary(endian) = self.format {
            self.feed_packed(chunk, endian);
            return Ok(());
        }

        let mut rest = chunk;
        let mut rest_start = chunk_start;
        if !self.carry.is_empty() {
            // Complete the carried token: pull bytes up to and including
            // the first separator into the carry, then parse it whole.
            match chunk.iter().position(|b| crate::scanner::is_separator(*b)) {
                None => {
                    self.carry.extend_from_slice(chunk);
                    return Ok(());
                }
                Some(p) => {
                    self.carry.extend_from_slice(&chunk[..=p]);
                    let carried = std::mem::take(&mut self.carry);
                    self.parse_region(&carried, self.carry_start)?;
                    rest = &chunk[p + 1..];
                    rest_start = chunk_start + p + 1;
                }
            }
        }

        // Parse up to the last separator; the unterminated tail becomes the
        // new carry.
        match rest.iter().rposition(|b| crate::scanner::is_separator(*b)) {
            None => {
                self.carry_start = rest_start;
                self.carry.extend_from_slice(rest);
            }
            Some(q) => {
                self.parse_region(&rest[..=q], rest_start)?;
                self.carry_start = rest_start + q + 1;
                self.carry.extend_from_slice(&rest[q + 1..]);
            }
        }
        Ok(())
    }

    /// Decodes the whole packed records of the carry and `chunk`; the
    /// bytes of a partial record become the new carry. The work is
    /// [`parse_binary`](crate::parse_binary)'s: one store per field, one
    /// swap op per byte of a big-endian record.
    fn feed_packed(&mut self, chunk: &[u8], endian: Endianness) {
        let schema = &self.out.schema;
        let rec = schema.record_bytes() as usize;
        let mut joined = std::mem::take(&mut self.carry);
        let view: &[u8] = if joined.is_empty() {
            chunk
        } else {
            joined.extend_from_slice(chunk);
            &joined
        };
        let complete = view.len() - view.len() % rec;
        let bytes = complete as u64;
        self.work.merge(&ParseWork {
            bytes_scanned: bytes,
            int_tokens: bytes / rec as u64 * schema.fields().len() as u64,
            int_digits: if endian == Endianness::Big { bytes } else { 0 },
            ..ParseWork::default()
        });
        let mut records = Cow::Borrowed(&view[..complete]);
        if endian == Endianness::Big {
            swap_fields(records.to_mut(), schema);
        }
        self.out
            .decode_append(&records)
            .expect("whole records by construction");
        self.carry.extend_from_slice(&view[complete..]);
    }

    /// Finishes the stream, returning the parsed columns not yet handed
    /// over by [`take_rows`](StreamingParser::take_rows).
    ///
    /// # Errors
    ///
    /// Fails if the stream ended in the middle of a record or the final
    /// text token is malformed.
    pub fn finish(self) -> Result<ParsedColumns, ParseError> {
        self.finish_with_work().map(|(out, _)| out)
    }

    /// Finishes and also returns the work not yet handed out by
    /// [`take_work`](StreamingParser::take_work), including the final
    /// unterminated token's.
    ///
    /// # Errors
    ///
    /// Same as [`finish`](StreamingParser::finish).
    pub fn finish_with_work(mut self) -> Result<(ParsedColumns, ParseWork), ParseError> {
        if self.format == InputFormat::Text && !self.carry.is_empty() {
            let carried = std::mem::take(&mut self.carry);
            self.parse_region(&carried, self.carry_start)?;
        }
        // What is left is a partial record: a text record's first fields,
        // or a packed record's first bytes.
        if self.field_idx != 0 || !self.carry.is_empty() {
            return Err(ParseError::new(
                self.total_fed,
                ParseErrorKind::UnexpectedEof,
            ));
        }
        Ok((self.out, self.work))
    }

    /// Parses a region guaranteed to contain only complete tokens: the one
    /// record loop behind every text parse.
    ///
    /// An integer token made of an optional sign, 1–17 digits and then a
    /// separator or the region end is converted inline ([`short_int`]).
    /// Float tokens, and integer tokens that case rejects (a lone sign, 18
    /// or more digits, a malformed token), are parsed by [`TextScanner`]
    /// from their first byte, so their values, work and errors are the
    /// scanner's. Every byte of a region is a separator or part of a token,
    /// so a region parsed whole has scanned all of its bytes.
    fn parse_region(&mut self, data: &[u8], base: usize) -> Result<(), ParseError> {
        let fields = self.out.columns.len();
        let mut work = ParseWork::default();
        let mut i = skip_separators(data, 0);
        while i < data.len() {
            i = match &mut self.out.columns[self.field_idx] {
                Column::Ints(v) => match short_int(data, i) {
                    Some((x, digits, end)) => {
                        v.push(x);
                        work.int_tokens += 1;
                        work.int_digits += digits;
                        end
                    }
                    None => {
                        let mut sc = TextScanner::with_base_offset(&data[i..], base + i);
                        v.push(sc.parse_i64()?);
                        work.merge(&sc.work());
                        i + sc.pos()
                    }
                },
                Column::Floats(v) => {
                    let mut sc = TextScanner::with_base_offset(&data[i..], base + i);
                    v.push(sc.parse_f64()?);
                    work.merge(&sc.work());
                    i + sc.pos()
                }
            };
            self.field_idx += 1;
            if self.field_idx == fields {
                self.field_idx = 0;
                self.out.records += 1;
            }
            i = skip_separators(data, i);
        }
        work.bytes_scanned = data.len() as u64;
        self.work.merge(&work);
        Ok(())
    }
}

/// Convenience: parse a full buffer through the streaming machinery in
/// `chunk_size` pieces (tests and benches use it to put chunk boundaries
/// anywhere).
///
/// # Errors
///
/// Same as [`StreamingParser::feed`] / [`StreamingParser::finish`].
pub fn parse_chunked(
    data: &[u8],
    schema: &Schema,
    chunk_size: usize,
) -> Result<(ParsedColumns, ParseWork), ParseError> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut p = StreamingParser::new(schema.clone());
    for chunk in data.chunks(chunk_size) {
        p.feed(chunk)?;
    }
    p.finish_with_work()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_buffer, FieldKind};

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    #[test]
    fn chunked_equals_whole_buffer_for_every_split() {
        let data = b"10 20\n30 40\n500 600\n7 8\n";
        let (whole, whole_work) = parse_buffer(data, &edge_schema()).unwrap();
        for chunk in 1..data.len() {
            let (streamed, work) = parse_chunked(data, &edge_schema(), chunk).unwrap();
            assert_eq!(streamed, whole, "chunk size {chunk}");
            assert_eq!(work.int_tokens, whole_work.int_tokens);
            assert_eq!(streamed.checksum(), whole.checksum());
        }
    }

    #[test]
    fn token_split_across_three_chunks() {
        let mut p = StreamingParser::new(edge_schema());
        p.feed(b"123").unwrap();
        p.feed(b"45").unwrap();
        p.feed(b"6 7\n").unwrap();
        let out = p.finish().unwrap();
        assert_eq!(out.columns[0].as_ints().unwrap(), &[123456]);
        assert_eq!(out.columns[1].as_ints().unwrap(), &[7]);
    }

    #[test]
    fn unterminated_final_token_is_parsed_at_finish() {
        let mut p = StreamingParser::new(edge_schema());
        p.feed(b"1 2\n3 4").unwrap();
        assert_eq!(p.carry_len(), 1);
        let out = p.finish().unwrap();
        assert_eq!(out.records, 2);
        assert_eq!(out.columns[1].as_ints().unwrap(), &[2, 4]);
    }

    #[test]
    fn mid_record_eof_errors() {
        let mut p = StreamingParser::new(edge_schema());
        p.feed(b"1 2\n3").unwrap();
        assert!(p.finish().is_err());
    }

    #[test]
    fn malformed_token_reports_global_offset() {
        let mut p = StreamingParser::new(edge_schema());
        p.feed(b"1 2\n").unwrap();
        let err = p.feed(b"3 x\n").unwrap_err();
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn float_schema_streams() {
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::F64]);
        let data = b"1 0.5\n2 1.5\n3 -2.25\n";
        let (whole, _) = parse_buffer(data, &schema).unwrap();
        for chunk in 1..8 {
            let (streamed, _) = parse_chunked(data, &schema, chunk).unwrap();
            assert_eq!(streamed.checksum(), whole.checksum());
        }
    }

    fn packed() -> (Schema, ParsedColumns, Vec<u8>) {
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::F64]);
        let (mut p, _) = parse_buffer(b"1 0.5\n2 1.5\n3 -2.0\n4 9.25\n", &schema).unwrap();
        p.canonicalize();
        let bytes = crate::encode_binary(&p, Endianness::Big);
        (schema, p, bytes)
    }

    #[test]
    fn binary_chunked_matches_whole_for_every_split() {
        let (schema, want, bytes) = packed();
        let format = InputFormat::Binary(Endianness::Big);
        for chunk in 1..bytes.len() {
            let mut p = StreamingParser::with_format(schema.clone(), format);
            for c in bytes.chunks(chunk) {
                p.feed(c).unwrap();
                assert!(p.carry_len() < 12, "only a partial record is carried");
            }
            assert_eq!(p.finish().unwrap(), want, "chunk size {chunk}");
        }
    }

    #[test]
    fn binary_incomplete_record_detected_at_finish() {
        let (schema, _, bytes) = packed();
        let mut p = StreamingParser::with_format(schema, InputFormat::Binary(Endianness::Big));
        p.feed(&bytes[..bytes.len() - 3]).unwrap();
        let err = p.finish().unwrap_err();
        assert_eq!(err.offset, bytes.len() - 3);
    }

    #[test]
    fn binary_work_accumulates_across_feeds() {
        let (schema, _, bytes) = packed();
        let mut p = StreamingParser::with_format(schema, InputFormat::Binary(Endianness::Big));
        let mut w = ParseWork::default();
        for c in bytes.chunks(5) {
            p.feed(c).unwrap();
            w.merge(&p.take_work());
        }
        let (_, rest) = p.finish_with_work().unwrap();
        assert_eq!(rest, ParseWork::default(), "binary work is taken per feed");
        assert_eq!(w.bytes_scanned, bytes.len() as u64);
        assert_eq!(w.int_tokens, 8);
    }

    #[test]
    fn empty_feeds_are_harmless() {
        let mut p = StreamingParser::new(edge_schema());
        p.feed(b"").unwrap();
        p.feed(b"1 2\n").unwrap();
        p.feed(b"").unwrap();
        assert_eq!(p.finish().unwrap().records, 1);
    }
}
