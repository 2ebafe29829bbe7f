//! Property tests: the column-wise object codec against the row-wise one it
//! replaced, kept here as the oracle.

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
