//! Property tests: print→parse identity, streaming ≡ whole-buffer, the
//! text record loop ≡ an independent per-token oracle, the packed record
//! codec ≡ an independent per-field oracle, and a chunk fed in pieces ≡
//! the chunk fed whole.

use morpheus_format::{
    parse_binary, parse_buffer, parse_chunked, Column, Endianness, FieldKind, InputFormat,
    ParseError, ParseErrorKind, ParseWork, ParsedColumns, Schema, StreamingParser, TextScanner,
    TextWriter,
};
use proptest::prelude::*;

/// Every field kind, ordered so int and float columns of both widths mix.
const KINDS: [FieldKind; 6] = [
    FieldKind::U32,
    FieldKind::F32,
    FieldKind::I32,
    FieldKind::U64,
    FieldKind::F64,
    FieldKind::I64,
];

/// The oracle for the record loop: every token goes through
/// [`TextScanner`], dispatched on its field's kind, over the whole buffer
/// at once. It shares no code with `StreamingParser`'s loop beyond the
/// scanner's own token parsers.
fn oracle_parse(data: &[u8], schema: &Schema) -> Result<(ParsedColumns, ParseWork), ParseError> {
    let mut out = ParsedColumns::empty(schema.clone());
    let mut scanner = TextScanner::new(data);
    'records: loop {
        for (i, field) in schema.fields().iter().enumerate() {
            if i == 0 && scanner.at_end() {
                break 'records;
            }
            match (field.is_float(), &mut out.columns[i]) {
                (false, Column::Ints(v)) => v.push(scanner.parse_i64()?),
                (true, Column::Floats(v)) => v.push(scanner.parse_f64()?),
                _ => unreachable!("columns built from the same schema"),
            }
        }
        out.records += 1;
    }
    Ok((out, scanner.work()))
}

/// The oracle for packed records: every field of every record is read,
/// byte-swapped and widened on its own, and its work counted as it goes.
/// It shares no code with the codec (`ParsedColumns::decode` behind a
/// field-wise swap).
fn oracle_binary(
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
    while pos < data.len() {
        for (i, kind) in schema.fields().iter().enumerate() {
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

/// A parse of `data` fed in `chunk`-byte pieces whose work is the sum of
/// every [`StreamingParser::take_work`] plus the `finish_with_work`
/// remainder, as the host engine and the StorageApps price it.
fn stream_taking_work(
    data: &[u8],
    schema: &Schema,
    format: InputFormat,
    chunk: usize,
) -> Result<(ParsedColumns, ParseWork), ParseError> {
    let mut p = StreamingParser::with_format(schema.clone(), format);
    let mut work = ParseWork::default();
    for c in data.chunks(chunk) {
        p.feed(c)?;
        work.merge(&p.take_work());
    }
    let (cols, rest) = p.finish_with_work()?;
    work.merge(&rest);
    Ok((cols, work))
}

/// What a caller that prices each chunk sees of a stream fed `chunk` bytes
/// at a time: the work taken and the records complete after every chunk,
/// then the columns and the `finish_with_work` remainder, or the first
/// error. With `pieces`, each chunk is fed as consecutive pieces whose
/// sizes cycle through it, as the host engine feeds a READ's flash pages.
fn chunk_trace(
    data: &[u8],
    schema: &Schema,
    format: InputFormat,
    chunk: usize,
    pieces: Option<&[usize]>,
) -> (Vec<(ParseWork, u64)>, Outcome) {
    let mut p = StreamingParser::with_format(schema.clone(), format);
    let mut sizes = pieces.unwrap_or(&[]).iter().copied().cycle();
    let mut taken = Vec::new();
    for c in data.chunks(chunk) {
        let fed = match pieces {
            None => p.feed(c),
            Some(_) => {
                let mut rest = c;
                let mut fed = Ok(());
                while !rest.is_empty() && fed.is_ok() {
                    let (piece, tail) =
                        rest.split_at(sizes.next().expect("a size").min(rest.len()));
                    fed = p.feed(piece);
                    rest = tail;
                }
                fed
            }
        };
        if let Err(e) = fed {
            return (taken, Err(e));
        }
        taken.push((p.take_work(), p.records()));
    }
    (taken, outcome(p.finish_with_work()))
}

/// A parse result with floats as bits, so NaN compares equal to itself.
type Outcome = Result<(u64, Vec<Vec<u64>>, ParseWork), ParseError>;

fn outcome(r: Result<(ParsedColumns, ParseWork), ParseError>) -> Outcome {
    r.map(|(cols, work)| {
        let values = cols
            .columns
            .iter()
            .map(|c| match c {
                Column::Ints(v) => v.iter().map(|&x| x as u64).collect(),
                Column::Floats(v) => v.iter().map(|x| x.to_bits()).collect(),
            })
            .collect();
        (cols.records, values, work)
    })
}

/// One generated token: well-formed integers of 1–21 digits with and
/// without a sign (so 16–21 digits straddle the inline limit and i64
/// overflow), the i64/u64 extremes, floats, a lone sign, and malformed
/// tokens.
fn token(choice: u8, raw: u64, len: u8) -> Vec<u8> {
    let digits = |n: usize| -> Vec<u8> {
        let mut x = raw;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                b'0' + ((x >> 33) % 10) as u8
            })
            .collect()
    };
    let sign: &[u8] = [&b""[..], b"-", b"+"][(raw >> 60) as usize % 3];
    let n = 1 + len as usize % 21;
    match choice % 16 {
        0..=5 => [sign, &digits(1 + len as usize % 8)].concat(),
        6..=8 => [sign, &digits(n)].concat(),
        9 => [
            &b"-9223372036854775808"[..],
            b"9223372036854775807",
            b"-9223372036854775809",
            b"9223372036854775808",
            b"18446744073709551615",
            b"-0",
            b"00000000000000000000042",
        ][raw as usize % 7]
            .to_vec(),
        10 | 11 => [sign, &digits(n % 9 + 1), b".", &digits(len as usize % 7)].concat(),
        12 => [
            &digits(n % 4 + 1)[..],
            b"e",
            [&b""[..], b"-", b"+"][len as usize % 3],
            &digits(2),
        ]
        .concat(),
        13 => sign.first().map_or(b"-".to_vec(), |s| vec![*s]),
        14 => [
            &digits(n % 5 + 1)[..],
            &[[b'x', b'.', b'-', 0xFF, b'e'][len as usize % 5]],
        ]
        .concat(),
        _ => [
            &[[b'x', b'.', b'e', 0xC3][len as usize % 4]][..],
            &digits(len as usize % 3),
        ]
        .concat(),
    }
}

/// Text of generated tokens, each followed by one to three separators.
/// With `valid_only` every token is an integer of at most 18 digits, which
/// parses in any column; the last token may lose its separators.
fn token_text(tokens: &[(u8, u64, u8, u8)], valid_only: bool) -> Vec<u8> {
    let seps = b" \t\n\r,";
    let mut data = Vec::new();
    for (i, &(choice, raw, len, sep)) in tokens.iter().enumerate() {
        let (choice, len) = if valid_only {
            (choice % 9, len % 18)
        } else {
            (choice, len)
        };
        data.extend(token(choice, raw, len));
        for k in 0..=(sep % 3) {
            data.push(seps[(sep as usize + k as usize) % seps.len()]);
        }
        if i + 1 == tokens.len() && sep % 4 == 0 {
            while data.last().is_some_and(|b| seps.contains(b)) {
                data.pop();
            }
        }
    }
    data
}

/// The host reference: whole-buffer objects, narrowed, then encoded.
fn canonical_bytes(mut cols: ParsedColumns) -> Vec<u8> {
    cols.canonicalize();
    let mut out = Vec::new();
    cols.encode_rows(0, cols.records, &mut out);
    out
}

/// Appends the encoding of drained rows (no `canonicalize`, as on the
/// device).
fn emit(rows: ParsedColumns, out: &mut Vec<u8>) {
    rows.encode_rows(0, rows.records, out);
}

/// The StorageApp emission loop over text: drain after every chunk, then
/// emit whatever `finish` completes.
fn drained_text(data: &[u8], schema: &Schema, chunk: usize) -> Vec<u8> {
    let mut p = StreamingParser::new(schema.clone());
    let mut out = Vec::new();
    for c in data.chunks(chunk) {
        p.feed(c).unwrap();
        emit(p.take_rows(), &mut out);
    }
    emit(p.finish().unwrap(), &mut out);
    out
}

/// The same loop over a packed binary stream.
fn drained_binary(data: &[u8], schema: &Schema, endian: Endianness, chunk: usize) -> Vec<u8> {
    let mut p = StreamingParser::with_format(schema.clone(), InputFormat::Binary(endian));
    let mut out = Vec::new();
    for c in data.chunks(chunk) {
        p.feed(c).unwrap();
        emit(p.take_rows(), &mut out);
    }
    emit(p.finish().unwrap(), &mut out);
    out
}

/// Text for `rows` under `schema`: int fields print the raw `i64` (out of
/// range for the narrow kinds), float fields print six decimals (most of
/// which round when narrowed to f32).
fn table_text(schema: &Schema, rows: &[([i64; 6], Vec<f64>)], final_newline: bool) -> Vec<u8> {
    let mut w = TextWriter::new();
    for (ints, floats) in rows {
        for (i, kind) in schema.fields().iter().enumerate() {
            if i > 0 {
                w.sep();
            }
            if kind.is_float() {
                w.write_f64(floats[i], 6);
            } else {
                w.write_i64(ints[i]);
            }
        }
        w.newline();
    }
    let mut data = w.into_bytes();
    if !final_newline {
        data.pop();
    }
    data
}

#[test]
fn drained_emission_narrows_out_of_range_values_like_canonicalize() {
    let schema = Schema::new(KINDS.to_vec());
    let data = b"-1 0.1 2147483653 -5 0.1 -9223372036854775808\n\
                 4294967296 16777217 -2147483649 9223372036854775807 1e300 7";
    let (whole, _) = parse_buffer(data, &schema).unwrap();
    let want = canonical_bytes(whole);
    for chunk in 1..=data.len() {
        assert_eq!(
            drained_text(data, &schema, chunk),
            want,
            "chunk size {chunk}"
        );
    }
    let objects = ParsedColumns::decode(schema, &want).unwrap();
    assert_eq!(objects.columns[0].as_ints().unwrap(), &[u32::MAX as i64, 0]);
    assert_eq!(
        objects.columns[2].as_ints().unwrap(),
        &[-2147483643, 2147483647]
    );
    assert_eq!(objects.columns[1].as_floats().unwrap()[0], 0.1f32 as f64);
}

proptest! {
    /// Any i64 printed by TextWriter parses back exactly.
    #[test]
    fn i64_print_parse_identity(v in any::<i64>()) {
        let mut w = TextWriter::new();
        w.write_i64(v);
        w.newline();
        let mut s = TextScanner::new(w.as_bytes());
        prop_assert_eq!(s.parse_i64().unwrap(), v);
    }

    /// Any u64 printed by TextWriter parses back exactly.
    #[test]
    fn u64_print_parse_identity(v in any::<u64>()) {
        let mut w = TextWriter::new();
        w.write_u64(v);
        w.sep();
        let mut s = TextScanner::new(w.as_bytes());
        prop_assert_eq!(s.parse_u64().unwrap(), v);
    }

    /// Floats printed with 6 decimals parse back within printing precision.
    #[test]
    fn f64_print_parse_close(v in -1e12f64..1e12) {
        let mut w = TextWriter::new();
        w.write_f64(v, 6);
        w.newline();
        let mut s = TextScanner::new(w.as_bytes());
        let got = s.parse_f64().unwrap();
        let tol = 1e-6 + v.abs() * 1e-12;
        prop_assert!((got - v).abs() <= tol, "{v} -> {got}");
    }

    /// For any generated record table and any chunk size, the streaming
    /// parse equals the whole-buffer parse (objects and checksum).
    #[test]
    fn streaming_equals_whole_buffer(
        rows in proptest::collection::vec((any::<i32>(), any::<u32>(), -1e6f64..1e6), 0..60),
        chunk in 1usize..64,
    ) {
        let schema = Schema::new(vec![FieldKind::I32, FieldKind::U32, FieldKind::F64]);
        let mut w = TextWriter::new();
        for (a, b, c) in &rows {
            w.write_i64(*a as i64);
            w.sep();
            w.write_u64(*b as u64);
            w.sep();
            w.write_f64(*c, 6);
            w.newline();
        }
        let data = w.into_bytes();
        let (whole, whole_work) = parse_buffer(&data, &schema).unwrap();
        let (streamed, stream_work) = parse_chunked(&data, &schema, chunk).unwrap();
        prop_assert_eq!(&streamed, &whole);
        prop_assert_eq!(streamed.records as usize, rows.len());
        prop_assert_eq!(stream_work.int_tokens, whole_work.int_tokens);
        prop_assert_eq!(stream_work.float_tokens, whole_work.float_tokens);
        prop_assert_eq!(stream_work.bytes_scanned, whole_work.bytes_scanned);
        let (oracle, oracle_work) = oracle_parse(&data, &schema).unwrap();
        prop_assert_eq!(&whole, &oracle);
        prop_assert_eq!(whole_work, oracle_work);
        let (taken, taken_work) =
            stream_taking_work(&data, &schema, InputFormat::Text, chunk).unwrap();
        prop_assert_eq!(&taken, &whole);
        prop_assert_eq!(taken_work, whole_work);
    }

    /// Work accounting never exceeds the input length for bytes scanned,
    /// and token counts match the schema arithmetic.
    #[test]
    fn work_is_consistent(
        rows in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..100),
    ) {
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
        let mut w = TextWriter::new();
        for (a, b) in &rows {
            w.write_u64(*a as u64);
            w.sep();
            w.write_u64(*b as u64);
            w.newline();
        }
        let data = w.into_bytes();
        let (parsed, work) = parse_buffer(&data, &schema).unwrap();
        prop_assert_eq!(work.bytes_scanned as usize, data.len());
        prop_assert_eq!(work.int_tokens, 2 * rows.len() as u64);
        prop_assert_eq!(parsed.records as usize, rows.len());
        prop_assert!(work.int_digits >= work.int_tokens);
    }

    /// Text: per-chunk drained rows, encoded without `canonicalize`, plus
    /// the `finish` remainder, are byte-identical to the canonicalized
    /// whole-buffer objects, for every field kind and any chunk size.
    #[test]
    fn drained_text_rows_encode_like_the_whole_buffer(
        picks in proptest::collection::vec(0usize..6, 1..7),
        rows in proptest::collection::vec(
            (any::<[i64; 6]>(), proptest::collection::vec(-1e9f64..1e9, 6)),
            0..40,
        ),
        chunk in 1usize..160,
        final_newline in any::<bool>(),
    ) {
        let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
        let data = table_text(&schema, &rows, final_newline);
        let (whole, _) = parse_buffer(&data, &schema).unwrap();
        prop_assert_eq!(whole.records as usize, rows.len());
        prop_assert_eq!(drained_text(&data, &schema, chunk), canonical_bytes(whole));
    }

    /// Binary: the same identity for packed records of arbitrary bytes at
    /// either byte order, with chunks that split records anywhere.
    #[test]
    fn drained_binary_rows_encode_like_the_whole_buffer(
        picks in proptest::collection::vec(0usize..6, 1..7),
        bytes in proptest::collection::vec(any::<u8>(), 0..1200),
        chunk in 1usize..160,
        big_endian in any::<bool>(),
    ) {
        let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
        let data = &bytes[..bytes.len() - bytes.len() % schema.record_bytes() as usize];
        let endian = if big_endian { Endianness::Big } else { Endianness::Little };
        let (whole, _) = parse_binary(data, &schema, endian).unwrap();
        prop_assert_eq!(drained_binary(data, &schema, endian, chunk), canonical_bytes(whole));
    }

    /// Packed records: `parse_binary`, and a binary `StreamingParser` fed
    /// in chunks of any size from 1 byte, agree with the per-field oracle
    /// on every schema over the six kinds and both byte orders: the
    /// columns, all five work counters (for the stream, the sum of every
    /// `take_work` plus the `finish_with_work` remainder), and the kind
    /// and offset of the error a partial last record raises.
    #[test]
    fn binary_codec_matches_the_field_oracle(
        picks in proptest::collection::vec(0usize..6, 1..7),
        bytes in proptest::collection::vec(any::<u8>(), 0..1200),
        ragged in any::<bool>(),
        chunk in 1usize..160,
        big_endian in any::<bool>(),
    ) {
        let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
        // A ragged stream keeps any trailing bytes of a partial record.
        let whole = bytes.len() - bytes.len() % schema.record_bytes() as usize;
        let data = if ragged { &bytes[..] } else { &bytes[..whole] };
        let endian = if big_endian { Endianness::Big } else { Endianness::Little };
        let want = outcome(oracle_binary(data, &schema, endian));
        prop_assert_eq!(outcome(parse_binary(data, &schema, endian)), want.clone());
        let format = InputFormat::Binary(endian);
        prop_assert_eq!(outcome(stream_taking_work(data, &schema, format, chunk)), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// The record loop, fed whole (`parse_buffer`) or in chunks of any size
    /// from 1 byte, agrees with the per-token oracle on every schema over
    /// the six kinds: the columns, all five work counters, and the kind and
    /// offset of the first error. Inputs mix signs, 16–21-digit tokens,
    /// `i64::MIN`, lone signs, malformed tokens and floats, and may end
    /// mid-record or without a final separator. Half the cases keep to
    /// integers of at most 18 digits, so they run to the end of the input.
    #[test]
    fn record_loop_matches_the_token_oracle(
        picks in proptest::collection::vec(0usize..6, 1..6),
        tokens in proptest::collection::vec(any::<(u8, u64, u8, u8)>(), 0..40),
        valid_only in any::<bool>(),
        chunk in 1usize..48,
    ) {
        let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
        let data = token_text(&tokens, valid_only);
        let want = outcome(oracle_parse(&data, &schema));
        prop_assert_eq!(outcome(parse_buffer(&data, &schema)), want.clone());
        prop_assert_eq!(outcome(parse_chunked(&data, &schema, chunk)), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// A chunk fed as pieces of any size from 1 byte (a READ's flash
    /// pages, fed where flash stores them) parses exactly as the chunk fed
    /// whole: after every chunk the work `take_work` hands out and the
    /// records complete agree, and so do the columns, the
    /// `finish_with_work` remainder and the kind and offset of any error.
    /// Text streams mix valid, malformed and float tokens under any
    /// schema; binary streams are arbitrary bytes at either byte order,
    /// whole records or ragged.
    #[test]
    fn a_chunk_fed_in_pieces_parses_like_the_chunk_fed_whole(
        picks in proptest::collection::vec(0usize..6, 1..6),
        tokens in proptest::collection::vec(any::<(u8, u64, u8, u8)>(), 0..40),
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        encoding in 0u8..4,
        ragged in any::<bool>(),
        chunk in 1usize..200,
        pieces in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
        let whole_records = bytes.len() - bytes.len() % schema.record_bytes() as usize;
        let packed = if ragged { &bytes[..] } else { &bytes[..whole_records] };
        let (data, format) = match encoding {
            0 => (token_text(&tokens, true), InputFormat::Text),
            1 => (token_text(&tokens, false), InputFormat::Text),
            2 => (packed.to_vec(), InputFormat::Binary(Endianness::Little)),
            _ => (packed.to_vec(), InputFormat::Binary(Endianness::Big)),
        };
        let whole = chunk_trace(&data, &schema, format, chunk, None);
        let cut = chunk_trace(&data, &schema, format, chunk, Some(&pieces));
        prop_assert_eq!(cut, whole);
    }
}
