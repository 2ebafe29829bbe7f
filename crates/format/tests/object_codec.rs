//! Property tests: the column-wise object codec against the row-wise one it
//! replaced, kept here as the oracle, and the packing (`pack`/`unpack`)
//! against that record stream and a reader of its documented layout.

use morpheus_format::{Column, FieldKind, ParseError, ParseErrorKind, ParsedColumns, Schema};
use proptest::prelude::*;

/// Every field kind.
const KINDS: [FieldKind; 6] = [
    FieldKind::U32,
    FieldKind::F32,
    FieldKind::I32,
    FieldKind::U64,
    FieldKind::F64,
    FieldKind::I64,
];

/// Row-wise oracle for [`ParsedColumns::encode_rows`]: one record after
/// another, matching each value's kind.
fn oracle_encode(cols: &ParsedColumns, from: u64, to: u64, out: &mut Vec<u8>) {
    for r in from..to {
        for (kind, col) in cols.schema.fields().iter().zip(&cols.columns) {
            match col {
                Column::Ints(v) => {
                    let x = v[r as usize];
                    match kind {
                        FieldKind::U32 => out.extend_from_slice(&(x as u32).to_le_bytes()),
                        FieldKind::I32 => out.extend_from_slice(&(x as i32).to_le_bytes()),
                        FieldKind::U64 => out.extend_from_slice(&(x as u64).to_le_bytes()),
                        FieldKind::I64 => out.extend_from_slice(&x.to_le_bytes()),
                        _ => unreachable!("int column with float kind"),
                    }
                }
                Column::Floats(v) => {
                    let x = v[r as usize];
                    match kind {
                        FieldKind::F32 => out.extend_from_slice(&(x as f32).to_le_bytes()),
                        FieldKind::F64 => out.extend_from_slice(&x.to_le_bytes()),
                        _ => unreachable!("float column with int kind"),
                    }
                }
            }
        }
    }
}

/// Row-wise oracle for [`ParsedColumns::decode`].
fn oracle_decode(schema: Schema, bytes: &[u8]) -> Result<ParsedColumns, ParseError> {
    let rec = schema.record_bytes() as usize;
    if !bytes.len().is_multiple_of(rec) {
        return Err(ParseError::new(bytes.len(), ParseErrorKind::UnexpectedEof));
    }
    let mut out = ParsedColumns::empty(schema);
    let kinds = out.schema.fields().to_vec();
    let mut pos = 0;
    while pos < bytes.len() {
        for (i, kind) in kinds.iter().enumerate() {
            let w = kind.byte_width() as usize;
            let raw = &bytes[pos..pos + w];
            match &mut out.columns[i] {
                Column::Ints(v) => v.push(match kind {
                    FieldKind::U32 => u32::from_le_bytes(raw.try_into().unwrap()) as i64,
                    FieldKind::I32 => i32::from_le_bytes(raw.try_into().unwrap()) as i64,
                    FieldKind::U64 => u64::from_le_bytes(raw.try_into().unwrap()) as i64,
                    FieldKind::I64 => i64::from_le_bytes(raw.try_into().unwrap()),
                    _ => unreachable!("int column with float kind"),
                }),
                Column::Floats(v) => v.push(match kind {
                    FieldKind::F32 => f32::from_le_bytes(raw.try_into().unwrap()) as f64,
                    FieldKind::F64 => f64::from_le_bytes(raw.try_into().unwrap()),
                    _ => unreachable!("float column with int kind"),
                }),
            }
            pos += w;
        }
        out.records += 1;
    }
    Ok(out)
}

/// Columns with floats as bits, so NaN decoded from arbitrary bytes
/// compares equal to itself.
fn bits(cols: &ParsedColumns) -> (u64, Vec<Vec<u64>>) {
    let values = cols
        .columns
        .iter()
        .map(|c| match c {
            Column::Ints(v) => v.iter().map(|&x| x as u64).collect(),
            Column::Floats(v) => v.iter().map(|x| x.to_bits()).collect(),
        })
        .collect();
    (cols.records, values)
}

/// Uncanonicalized columns for `picks`, one record per row of `rows`:
/// integer fields take the raw `i64` (negative U32, I32 past 2³¹, ...), float
/// fields an `f64` that mostly rounds when narrowed to f32, and sometimes
/// overflows it.
fn columns(picks: &[usize], rows: &[([i64; 6], [f64; 6])]) -> ParsedColumns {
    let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
    let mut cols = ParsedColumns::empty(schema);
    for (ints, floats) in rows {
        for (i, col) in cols.columns.iter_mut().enumerate() {
            match col {
                Column::Ints(v) => v.push(ints[i]),
                Column::Floats(v) => v.push(if ints[i] % 5 == 0 {
                    floats[i] * 1e290
                } else {
                    floats[i] / 7.0
                }),
            }
        }
    }
    cols.records = rows.len() as u64;
    cols
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any schema over the six kinds, out-of-range values and any row
    /// range, the column-wise encoding appends the oracle's bytes, and
    /// decoding them yields the oracle's columns.
    #[test]
    fn column_wise_codec_matches_the_row_wise_oracle(
        picks in proptest::collection::vec(0usize..6, 1..7),
        rows in proptest::collection::vec(any::<([i64; 6], [f64; 6])>(), 0..40),
        cut in any::<(u64, u64)>(),
        prefix in proptest::collection::vec(any::<u8>(), 0..5),
    ) {
        let cols = columns(&picks, &rows);
        let n = cols.records;
        let (a, b) = (cut.0 % (n + 1), cut.1 % (n + 1));
        let (from, to) = (a.min(b), a.max(b));
        let mut got = prefix.clone();
        cols.encode_rows(from, to, &mut got);
        let mut want = prefix.clone();
        oracle_encode(&cols, from, to, &mut want);
        prop_assert_eq!(&got, &want);

        let encoded = &got[prefix.len()..];
        let decoded = ParsedColumns::decode(cols.schema.clone(), encoded).unwrap();
        let oracle = oracle_decode(cols.schema.clone(), encoded).unwrap();
        prop_assert_eq!(bits(&decoded), bits(&oracle));
        prop_assert_eq!(decoded.records, to - from);
    }

    /// Arbitrary bytes, ragged or not, decode to the oracle's columns or
    /// fail with its error.
    #[test]
    fn decode_of_arbitrary_bytes_matches_the_oracle(
        picks in proptest::collection::vec(0usize..6, 1..7),
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
        let got = ParsedColumns::decode(schema.clone(), &bytes);
        let want = oracle_decode(schema, &bytes);
        prop_assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits));
        prop_assert_eq!(got.err(), want.err());
    }
}

/// Float bit patterns a packing keeps bit for bit: NaNs with payloads
/// (quiet and signaling, either sign), signed zeros and infinities, the
/// least subnormal, and values f32 rounds, flushes or overflows.
const FLOAT_EDGES: [u64; 11] = [
    0x7ff8_0000_0000_0001,
    0x7ff0_0000_dead_beef,
    0xfff8_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x3fb9_9999_9999_999a, // 0.1
    0x7e37_e43c_8800_759c, // 1e300
    0x01a5_6e1f_c2f8_f359, // 1e-300
];

/// Uncanonicalized columns of `picks`, one record per row. Integer column
/// `i` spans a class `classes[i] % 10` of values: 0 repeats `bases[i]`,
/// 1 to 8 add to it offsets of at most that many bytes, and 9 draws from
/// `i64::MIN`, `i64::MAX`, 0 and -1. Float columns mix [`FLOAT_EDGES`],
/// arbitrary bit patterns and ordinary values.
fn spanned_columns(
    picks: &[usize],
    classes: &[u8; 6],
    bases: &[i64; 6],
    rows: &[[u64; 6]],
) -> ParsedColumns {
    let schema = Schema::new(picks.iter().map(|&k| KINDS[k]).collect());
    let mut cols = ParsedColumns::empty(schema);
    for r in rows {
        for (i, col) in cols.columns.iter_mut().enumerate() {
            let (r, class) = (r[i], classes[i] % 10);
            match col {
                Column::Ints(v) => v.push(match class {
                    0 => bases[i],
                    9 => [i64::MIN, i64::MAX, 0, -1][r as usize % 4],
                    c => bases[i].wrapping_add((r & (u64::MAX >> (64 - 8 * c as u32))) as i64),
                }),
                Column::Floats(v) => v.push(match r % 4 {
                    0 => f64::from_bits(FLOAT_EDGES[(r >> 2) as usize % FLOAT_EDGES.len()]),
                    1 => f64::from_bits(r),
                    _ => (r >> 11) as f64 / 7.0 - 1e15,
                }),
            }
        }
    }
    cols.records = rows.len() as u64;
    cols
}

/// One column's head as the documented layout places it: an integer
/// column's width and base, and the offset of its width byte; `None` for
/// a float column.
type Head = Option<(usize, i64, usize)>;

/// Reads `bytes` as `pack` documents its layout, independently of the
/// codec: the record count, then each column (an integer column's width
/// byte, its base and `w`-byte offsets; a float column at its declared
/// width), with nothing left over.
fn read_layout(schema: &Schema, bytes: &[u8]) -> (u64, Vec<Head>) {
    let records = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let mut at = 8;
    let heads = schema
        .fields()
        .iter()
        .map(|kind| {
            if kind.is_float() {
                at += records as usize * kind.byte_width() as usize;
                return None;
            }
            let (w, head) = (bytes[at] as usize, at);
            let base = i64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap());
            at += 9 + records as usize * w;
            Some((w, base, head))
        })
        .collect();
    assert_eq!(at, bytes.len(), "the layout accounts for every byte");
    (records, heads)
}

/// The least value of an integer column of `kind` (in the order `pack`
/// documents: `U64` unsigned, the other kinds signed) and the fewest bytes
/// that hold the greatest value's offset from it.
fn least_and_width(kind: FieldKind, vals: &[i64]) -> (i64, usize) {
    let order = |x: i64| {
        if kind == FieldKind::U64 {
            x as u64 as i128
        } else {
            x as i128
        }
    };
    let (Some(lo), Some(hi)) = (
        vals.iter().copied().map(order).min(),
        vals.iter().copied().map(order).max(),
    ) else {
        return (0, 0);
    };
    let mut span = hi - lo;
    let mut w = 0;
    while span > 0 {
        span >>= 8;
        w += 1;
    }
    (lo as i64, w)
}

/// Every column's capacity equals its length.
fn at_length(cols: &ParsedColumns) -> bool {
    cols.columns.iter().all(|c| match c {
        Column::Ints(v) => v.capacity() == v.len(),
        Column::Floats(v) => v.capacity() == v.len(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any schema over the six kinds and integer spans from one
    /// repeated value to `i64::MIN..=i64::MAX`: the packing unpacks to
    /// the record stream's columns bit for bit (canonical columns to
    /// themselves), every integer column sits at the least width its span
    /// needs and no column is wider than its declared kind, and a packing
    /// cut short, overlong or with a width past 8 is an error.
    #[test]
    fn packing_round_trips_at_the_least_width(
        picks in proptest::collection::vec(0usize..6, 1..7),
        classes in any::<[u8; 6]>(),
        bases in any::<[i64; 6]>(),
        rows in prop_oneof![
            1 => proptest::collection::vec(any::<[u64; 6]>(), 0..=1),
            4 => proptest::collection::vec(any::<[u64; 6]>(), 2..40),
        ],
        cuts in proptest::collection::vec(any::<u64>(), 6),
    ) {
        let rows: Vec<[u64; 6]> = rows;
        let cols = spanned_columns(&picks, &classes, &bases, &rows);
        let schema = cols.schema.clone();
        let packed = cols.pack();
        let mut stream = Vec::new();
        oracle_encode(&cols, 0, cols.records, &mut stream);
        let want = oracle_decode(schema.clone(), &stream).unwrap();

        let (records, heads) = read_layout(&schema, &packed);
        prop_assert_eq!(records, cols.records);
        for ((kind, col), head) in schema.fields().iter().zip(&want.columns).zip(&heads) {
            if let (Column::Ints(v), Some((w, base, _))) = (col, head) {
                prop_assert_eq!((*base, *w), least_and_width(*kind, v), "{:?}", kind);
                prop_assert!(*w as u64 <= kind.byte_width(), "{:?} at {} bytes", kind, w);
            }
        }

        let back = ParsedColumns::unpack(schema.clone(), &packed).unwrap();
        prop_assert_eq!(bits(&back), bits(&want));
        prop_assert!(at_length(&back));
        prop_assert_eq!(ParsedColumns::packed_records(&schema, &packed), Ok(records));
        let mut canon = cols.clone();
        canon.canonicalize();
        let again = ParsedColumns::unpack(schema.clone(), &canon.pack()).unwrap();
        prop_assert_eq!(bits(&again), bits(&canon));

        let eof = ParseError::new(0, ParseErrorKind::UnexpectedEof);
        for cut in cuts.iter().map(|c| (c % packed.len() as u64) as usize).chain([packed.len() - 1]) {
            let short = &packed[..cut];
            let err = ParsedColumns::unpack(schema.clone(), short).unwrap_err();
            prop_assert_eq!(err, ParseError { offset: cut, ..eof });
        }
        let mut long = packed.clone();
        long.push(0x5a);
        prop_assert_eq!(
            ParsedColumns::unpack(schema.clone(), &long).unwrap_err(),
            ParseError::new(packed.len(), ParseErrorKind::UnexpectedChar(0x5a))
        );
        if let Some(&(_, _, at)) = heads.iter().flatten().next() {
            let mut wide = packed.clone();
            wide[at] = 9 + (classes[0] % 247);
            prop_assert_eq!(
                ParsedColumns::packed_records(&schema, &wide),
                Err(ParseError::new(at, ParseErrorKind::UnexpectedChar(wide[at])))
            );
        }
    }
}

#[test]
fn integer_spans_pack_at_widths_zero_to_eight() {
    // (kind, values, width): the width is the span's, not the values'.
    let cases: [(FieldKind, Vec<i64>, usize); 10] = [
        (FieldKind::I64, vec![], 0),
        (FieldKind::I64, vec![-7; 5], 0),
        (FieldKind::U32, vec![4_000_000_000, 4_000_000_255], 1),
        (FieldKind::U32, vec![4_000_000_000, 4_000_000_256], 2),
        (FieldKind::I32, vec![i32::MIN as i64, i32::MAX as i64], 4),
        (FieldKind::I64, vec![-1, 1 << 40], 6),
        (FieldKind::I64, vec![i64::MIN, 0, i64::MAX], 8),
        (FieldKind::U64, vec![0, -1], 8),
        // Unsigned order: 2^63 - 1 and 2^63 are neighbours.
        (FieldKind::U64, vec![i64::MAX, i64::MIN], 1),
        (FieldKind::I64, vec![i64::MAX, i64::MIN], 8),
    ];
    for (kind, vals, width) in cases {
        let n = vals.len() as u64;
        let schema = Schema::new(vec![kind, FieldKind::F64]);
        let cols = ParsedColumns {
            schema: schema.clone(),
            columns: vec![
                Column::Ints(vals.clone()),
                Column::Floats(vec![-0.0; vals.len()]),
            ],
            records: n,
        };
        let packed = cols.pack();
        assert_eq!(
            read_layout(&schema, &packed).1[0].map(|(w, ..)| w),
            Some(width),
            "{kind:?} {vals:?}"
        );
        assert_eq!(packed.len(), 8 + 9 + vals.len() * (width + 8));
        let back = ParsedColumns::unpack(schema, &packed).unwrap();
        assert_eq!(bits(&back), bits(&cols), "{kind:?} {vals:?}");
    }
}
