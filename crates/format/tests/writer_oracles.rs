//! `TextWriter` against the writer it replaced, kept here as the oracle:
//! one `to_string()` or `format!` per token. The bytes must be equal, since
//! they are the staged inputs, and so must the `work()` counts, since
//! serialization is priced from them.

use morpheus_format::{SerializeWork, TextWriter};
use proptest::prelude::*;

/// The formatting-per-token writer.
#[derive(Default)]
struct OracleWriter {
    out: Vec<u8>,
    work: SerializeWork,
}

impl OracleWriter {
    fn push_token(&mut self, s: &str) {
        self.out.extend_from_slice(s.as_bytes());
        self.work.bytes_emitted += s.len() as u64;
        self.work.tokens += 1;
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::U64(v) => self.push_token(&v.to_string()),
            Op::I64(v) => self.push_token(&v.to_string()),
            Op::F64(v, d) => self.push_token(&format!("{v:.d$}")),
            Op::Sep => {
                self.out.push(b' ');
                self.work.bytes_emitted += 1;
            }
            Op::Newline => {
                self.out.push(b'\n');
                self.work.bytes_emitted += 1;
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    U64(u64),
    I64(i64),
    F64(f64, usize),
    Sep,
    Newline,
}

fn apply(w: &mut TextWriter, op: &Op) {
    match *op {
        Op::U64(v) => w.write_u64(v),
        Op::I64(v) => w.write_i64(v),
        Op::F64(v, d) => w.write_f64(v, d),
        Op::Sep => w.sep(),
        Op::Newline => w.newline(),
    }
}

/// Both writers over `ops`: equal bytes and equal work.
fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut w = TextWriter::new();
    let mut oracle = OracleWriter::default();
    for op in ops {
        apply(&mut w, op);
        oracle.apply(op);
    }
    prop_assert_eq!(
        String::from_utf8_lossy(w.as_bytes()),
        String::from_utf8_lossy(&oracle.out),
        "{:?}",
        ops
    );
    prop_assert_eq!(w.work(), oracle.work, "{:?}", ops);
    Ok(())
}

/// Floats whose printing is hard: ties, signed zeros, values that round
/// to zero, the exact path's limits, and what it must hand to `format!`.
const SPECIAL: &[f64] = &[
    0.0,
    -0.0,
    0.0625,
    -0.0625,
    0.125,
    0.5,
    1.5,
    2.5,
    -2.5,
    0.0005,
    -0.0001,
    -0.0005,
    0.9995,
    9.9995,
    999.9999999,
    4503599627370495.5,
    4503599627370496.0,
    9007199254740993.0,
    1e15,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        // Dyadic rationals: exact ties at many precisions.
        (-100_000i64..100_000, 0u32..14).prop_map(|(m, j)| m as f64 / f64::from(1u32 << j)),
        -10.0f64..10.0,
        -1e6f64..1e6,
        any::<f64>(),
        -1e-3f64..1e-3,
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u64>().prop_map(Op::U64),
        (0u64..1000).prop_map(Op::U64),
        any::<i64>().prop_map(Op::I64),
        (-1000i64..1000).prop_map(Op::I64),
        (float(), 0usize..10).prop_map(|(v, d)| Op::F64(v, d)),
        (float(), 10usize..24).prop_map(|(v, d)| Op::F64(v, d)),
        Just(Op::Sep),
        Just(Op::Newline),
    ]
}

#[test]
fn named_cases_print_as_format_does() {
    let mut ops = vec![
        Op::U64(0),
        Op::U64(u64::MAX),
        Op::I64(i64::MIN),
        Op::I64(i64::MAX),
    ];
    for &v in SPECIAL {
        for d in 0..=9 {
            ops.push(Op::F64(v, d));
            ops.push(Op::Sep);
        }
    }
    check(&ops).unwrap();
    let mut w = TextWriter::new();
    w.write_f64(0.0625, 3);
    w.sep();
    w.write_f64(-0.0001, 3);
    assert_eq!(w.as_bytes(), b"0.062 -0.000");
}

#[test]
fn integer_tokens_at_every_width_print_as_to_string_does() {
    let mut ops = Vec::new();
    let mut p = 1u64;
    for _ in 0..20 {
        for v in [p - 1, p, p + 1] {
            ops.push(Op::U64(v));
            ops.push(Op::I64(-(v as i64)));
            ops.push(Op::Newline);
        }
        p = p.saturating_mul(10);
    }
    check(&ops).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any token sequence: equal bytes, equal work.
    #[test]
    fn writer_matches_the_formatting_oracle(ops in proptest::collection::vec(op(), 0..24)) {
        check(&ops)?;
    }
}
