//! Byte-exact text scanning and numeric conversion.

use crate::{ParseError, ParseErrorKind, ParseWork};

/// True for the separator bytes the formats use (space, tab, newline,
/// carriage return, comma).
#[inline]
pub(crate) fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | b',')
}

/// The position of the first non-separator byte of `buf` at or after `i`.
#[inline]
pub(crate) fn skip_separators(buf: &[u8], mut i: usize) -> usize {
    while i < buf.len() && is_separator(buf[i]) {
        i += 1;
    }
    i
}

/// Converts the integer token starting at `buf[i]` when it is an optional
/// sign, 1–17 digits and then a separator or the end of `buf`, returning
/// `(value, digits, end)`; `None` for any other token. 17 digits stay below
/// 10^17, so no overflow check is needed, and the value equals
/// [`TextScanner::parse_i64`]'s. The first eight bytes after the sign are
/// classified and folded at once when `buf` has them; further digits, and
/// tokens too close to the end for a whole chunk, go digit by digit.
#[inline]
pub(crate) fn short_int(buf: &[u8], i: usize) -> Option<(i64, u64, usize)> {
    let neg = buf[i] == b'-';
    let start = i + usize::from(neg || buf[i] == b'+');
    let limit = buf.len().min(start + 17);
    let mut end = start;
    let mut v = 0i64;
    if let Some(chunk) = buf.get(start..start + 8) {
        let w = swar::load(chunk);
        let nd = swar::leading_digits(w);
        v = match nd {
            0 => return None,
            8 => swar::fold8(w),
            _ => swar::fold_partial(w, nd),
        } as i64;
        end += nd;
    }
    while end < limit {
        let d = buf[end].wrapping_sub(b'0');
        if d >= 10 {
            break;
        }
        v = v * 10 + i64::from(d);
        end += 1;
    }
    if end == start || buf.get(end).is_some_and(|&b| !is_separator(b)) {
        return None;
    }
    Some((if neg { -v } else { v }, (end - start) as u64, end))
}

/// SWAR (SIMD-within-a-register) helpers: classify and fold 8-byte chunks
/// of the input at once, leaving partial chunks and everything after the
/// first match to the scalar tail. All masks put their verdict in the high
/// bit of each byte; positions are read LE, so `trailing_zeros() / 8` is
/// the index of the first flagged byte.
mod swar {
    /// 0x01 splat.
    const LO: u64 = 0x0101_0101_0101_0101;
    /// 0x80 splat.
    const HI: u64 = 0x8080_8080_8080_8080;
    /// b'0' splat: eight ASCII zeros.
    pub(super) const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

    #[inline]
    pub(super) fn load(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
    }

    /// High bit set in every byte that is not an ASCII digit. Lanes after
    /// the first flagged byte may be misclassified (a wild byte >= 0x8A
    /// carries into the next lane), so callers must only trust lanes up to
    /// and including the first set bit — exactly what a first-non-digit
    /// search needs.
    #[inline]
    pub(super) fn non_digit_mask(v: u64) -> u64 {
        let x = v ^ ASCII_ZEROS;
        let y = x.wrapping_add(LO * 0x76);
        (x | y) & HI
    }

    /// Number of leading (lowest-address) ASCII-digit bytes in the chunk,
    /// 0..=8.
    #[inline]
    pub(super) fn leading_digits(v: u64) -> usize {
        (non_digit_mask(v).trailing_zeros() / 8) as usize
    }

    /// Folds a chunk of exactly eight ASCII digits (first digit in the
    /// lowest byte) to its decimal value, 0..=99_999_999. Three
    /// multiply-shift rounds combine neighbours at widening strides.
    #[inline]
    pub(super) fn fold8(v: u64) -> u64 {
        let v = v & (LO * 0x0F);
        let v = v.wrapping_mul((10 << 8) + 1) >> 8;
        let v = (v & 0x00FF_00FF_00FF_00FF).wrapping_mul((100 << 16) + 1) >> 16;
        (v & 0x0000_FFFF_0000_FFFF).wrapping_mul((10_000 << 32) + 1) >> 32
    }

    /// Folds the first `nd` (1..=7) digit bytes of `v`: the run is shifted
    /// to the top lanes and the vacated low lanes refilled with ASCII
    /// zeros, which become leading zeros of the 8-digit fold.
    #[inline]
    pub(super) fn fold_partial(v: u64, nd: usize) -> u64 {
        debug_assert!((1..8).contains(&nd));
        fold8((v << ((8 - nd) * 8)) | (ASCII_ZEROS >> (nd * 8)))
    }

    /// 10^n for n in 0..=8.
    pub(super) const POW10_U64: [u64; 9] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
    ];
}

/// Exact positive powers of ten. Every entry equals the result of the
/// corresponding run of `*= 10.0` steps from 1.0 (exact through 10^22, the
/// largest power of ten representable exactly in an f64).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The fraction scale after `n` fractional digits: 10^n, continuing with
/// the same progressive rounding the old per-digit `*= 10.0` chain had
/// once past the exact range.
#[inline]
fn frac_scale_for(n: usize) -> f64 {
    if n < POW10.len() {
        return POW10[n];
    }
    let mut s = POW10[POW10.len() - 1];
    for _ in POW10.len() - 1..n {
        s *= 10.0;
    }
    s
}

/// Mantissa accumulator for [`TextScanner::parse_f64`]: folds digits in the
/// integer domain while exactness is guaranteed (up to 15 folded digits
/// stays below 10^15 < 2^53), then spills to the float shift-add the
/// scalar path always used. Bit-identical results, but the common short
/// literal never touches the dependent f64 multiply-add chain.
struct Mantissa {
    acc: u64,
    folded: u32,
    spill: f64,
    spilled: bool,
}

impl Mantissa {
    #[inline]
    fn new() -> Self {
        Mantissa {
            acc: 0,
            folded: 0,
            spill: 0.0,
            spilled: false,
        }
    }

    #[inline]
    fn push(&mut self, d: u8) {
        if self.spilled {
            self.spill = self.spill * 10.0 + d as f64;
        } else if self.folded < 15 {
            self.acc = self.acc * 10 + d as u64;
            self.folded += 1;
        } else {
            // `acc` < 10^15 < 2^53, so the conversion is exact and this
            // rounds exactly like the pure-f64 sequence would have.
            self.spill = self.acc as f64 * 10.0 + d as f64;
            self.spilled = true;
        }
    }

    /// True when a `k`-digit SWAR fold is equivalent to `k` scalar pushes:
    /// every one of those pushes would have taken the exact-integer branch.
    #[inline]
    fn can_fold(&self, k: u32) -> bool {
        !self.spilled && self.folded + k <= 15
    }

    /// Folds a `k`-digit run whose decimal value is `run` in one step.
    /// Callers must check [`can_fold`](Mantissa::can_fold) first.
    #[inline]
    fn fold_run(&mut self, run: u64, k: u32) {
        debug_assert!(self.can_fold(k));
        self.acc = self.acc * swar::POW10_U64[k as usize] + run;
        self.folded += k;
    }

    #[inline]
    fn value(&self) -> f64 {
        if self.spilled {
            self.spill
        } else {
            self.acc as f64
        }
    }
}

/// Advances past the digit run starting at `buf[i]`, feeding each digit to
/// `m`, and returns the position after the run. Whole 8-byte chunks fold
/// via SWAR while the mantissa can absorb them exactly; everything else —
/// the partial tail, and digits past the mantissa's exact window — falls
/// back to the scalar per-digit push, keeping results bit-identical to the
/// pure scalar walk.
#[inline]
fn scan_digit_run(buf: &[u8], mut i: usize, m: &mut Mantissa) -> usize {
    // Scalar walk over the first chunk's worth of digits: most mantissa
    // runs are shorter than 8 digits and the per-digit loop is cheapest
    // for them. Only a run that fills all 8 is worth chunk classification.
    let quick = buf.len().min(i + 8);
    while i < quick {
        let d = buf[i].wrapping_sub(b'0');
        if d >= 10 {
            return i;
        }
        m.push(d);
        i += 1;
    }
    while i + 8 <= buf.len() {
        let w = swar::load(&buf[i..i + 8]);
        let nd = swar::leading_digits(w);
        if nd == 8 && m.can_fold(8) {
            m.fold_run(swar::fold8(w), 8);
            i += 8;
            continue;
        }
        if nd > 0 && nd < 8 && m.can_fold(nd as u32) {
            m.fold_run(swar::fold_partial(w, nd), nd as u32);
            i += nd;
        }
        break;
    }
    while i < buf.len() {
        let d = buf[i].wrapping_sub(b'0');
        if d >= 10 {
            break;
        }
        m.push(d);
        i += 1;
    }
    i
}

/// A scanner over a byte buffer that converts ASCII tokens to binary values
/// while counting the work performed.
///
/// # Example
///
/// ```
/// use morpheus_format::TextScanner;
///
/// let mut s = TextScanner::new(b"12 -3 4.5\n");
/// assert_eq!(s.parse_i64().unwrap(), 12);
/// assert_eq!(s.parse_i64().unwrap(), -3);
/// assert!((s.parse_f64().unwrap() - 4.5).abs() < 1e-12);
/// assert!(s.at_end());
/// assert_eq!(s.work().int_tokens, 2);
/// ```
#[derive(Debug, Clone)]
pub struct TextScanner<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Offset of `buf[0]` within the larger stream (for error reporting in
    /// streaming parses).
    base_offset: usize,
    work: ParseWork,
}

impl<'a> TextScanner<'a> {
    /// Creates a scanner over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::with_base_offset(buf, 0)
    }

    /// Creates a scanner whose error offsets are shifted by `base_offset`.
    pub fn with_base_offset(buf: &'a [u8], base_offset: usize) -> Self {
        TextScanner {
            buf,
            pos: 0,
            base_offset,
            work: ParseWork::default(),
        }
    }

    /// Current position within the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Work performed so far.
    pub fn work(&self) -> ParseWork {
        self.work
    }

    /// Skips separator bytes, counting them as scanned.
    pub fn skip_separators(&mut self) {
        let end = skip_separators(self.buf, self.pos);
        self.work.bytes_scanned += (end - self.pos) as u64;
        self.pos = end;
    }

    /// True once only separators remain.
    pub fn at_end(&mut self) -> bool {
        self.skip_separators();
        self.pos == self.buf.len()
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::new(self.base_offset + self.pos, kind)
    }

    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    /// Scans the decimal magnitude at the cursor in a single fused pass and
    /// advances past it, returning the value and digit count.
    ///
    /// Fast path: the first 19 digits cannot overflow `u64` (19 nines
    /// < 2^64), so they accumulate without per-digit overflow checks —
    /// folded eight digits at a time via SWAR while a whole chunk fits in
    /// both the input and the 19-digit budget, then digit by digit. Base-10
    /// folding in `u64` is exact, so the chunked accumulation produces the
    /// same value the per-digit walk did. Only a 20th digit switches to the
    /// checked continuation, so overflow is still reported at the exact
    /// offending digit.
    #[inline]
    fn scan_magnitude(&mut self) -> Result<(u64, usize), ParseError> {
        let start = self.pos;
        let rest = &self.buf[start..];
        let limit = rest.len().min(19);
        let mut v: u64 = 0;
        let mut n = 0usize;
        // Scalar walk first: almost every token is shorter than a chunk,
        // and for those the per-digit loop beats any whole-chunk classify.
        let quick = limit.min(8);
        while n < quick {
            let d = rest[n].wrapping_sub(b'0');
            if d >= 10 {
                break;
            }
            v = v * 10 + d as u64;
            n += 1;
        }
        // A run that filled the first 8 digits is a long literal: fold the
        // remainder in SWAR chunks (whole and partial) up to the 19-digit
        // unchecked budget, then let the scalar loop mop up the tail.
        if n == 8 {
            while n + 8 <= limit {
                let w = swar::load(&rest[n..n + 8]);
                let nd = swar::leading_digits(w);
                if nd == 8 {
                    v = v * swar::POW10_U64[8] + swar::fold8(w);
                    n += 8;
                    continue;
                }
                if nd > 0 {
                    v = v * swar::POW10_U64[nd] + swar::fold_partial(w, nd);
                    n += nd;
                }
                break;
            }
        }
        while n < limit {
            let d = rest[n].wrapping_sub(b'0');
            if d >= 10 {
                break;
            }
            v = v * 10 + d as u64;
            n += 1;
        }
        if n == 19 {
            while n < rest.len() {
                let d = rest[n].wrapping_sub(b'0');
                if d >= 10 {
                    break;
                }
                v = v
                    .checked_mul(10)
                    .and_then(|m| m.checked_add(d as u64))
                    .ok_or_else(|| {
                        ParseError::new(self.base_offset + start + n, ParseErrorKind::Overflow)
                    })?;
                n += 1;
            }
        }
        self.pos = start + n;
        if n == 0 {
            return Err(match self.peek() {
                Some(b) => self.err(ParseErrorKind::UnexpectedChar(b)),
                None => self.err(ParseErrorKind::UnexpectedEof),
            });
        }
        if let Some(b) = self.peek() {
            if !is_separator(b) {
                return Err(self.err(ParseErrorKind::UnexpectedChar(b)));
            }
        }
        Ok((v, n))
    }

    /// Parses a (possibly signed) decimal integer token.
    ///
    /// # Errors
    ///
    /// Fails on a non-numeric byte, on overflow, or at end of input.
    pub fn parse_i64(&mut self) -> Result<i64, ParseError> {
        self.skip_separators();
        let tok_start = self.pos;
        let mut neg = false;
        match self.peek() {
            Some(b'-') => {
                neg = true;
                self.pos += 1;
            }
            Some(b'+') => {
                self.pos += 1;
            }
            _ => {}
        }
        let (magnitude, ndigits) = self.scan_magnitude()?;
        self.work.bytes_scanned += (self.pos - tok_start) as u64;
        self.work.int_tokens += 1;
        self.work.int_digits += ndigits as u64;
        let limit = if neg { 1u64 << 63 } else { (1u64 << 63) - 1 };
        if magnitude > limit {
            return Err(self.err(ParseErrorKind::Overflow));
        }
        Ok(if neg {
            (magnitude as i64).wrapping_neg()
        } else {
            magnitude as i64
        })
    }

    /// Parses an unsigned decimal integer token.
    ///
    /// # Errors
    ///
    /// Fails on a sign or non-numeric byte, on overflow, or at end of input.
    pub fn parse_u64(&mut self) -> Result<u64, ParseError> {
        self.skip_separators();
        let tok_start = self.pos;
        let (value, ndigits) = self.scan_magnitude()?;
        self.work.bytes_scanned += (self.pos - tok_start) as u64;
        self.work.int_tokens += 1;
        self.work.int_digits += ndigits as u64;
        Ok(value)
    }

    /// Parses a decimal floating-point token (`-12.5`, `3.0e-4`, `7`).
    ///
    /// # Errors
    ///
    /// Fails on a malformed literal or at end of input.
    pub fn parse_f64(&mut self) -> Result<f64, ParseError> {
        self.skip_separators();
        let tok_start = self.pos;
        let mut neg = false;
        match self.peek() {
            Some(b'-') => {
                neg = true;
                self.pos += 1;
            }
            Some(b'+') => {
                self.pos += 1;
            }
            _ => {}
        }
        let buf = self.buf;
        let mut i = self.pos;
        let mut m = Mantissa::new();
        let int_start = i;
        i = scan_digit_run(buf, i, &mut m);
        let mut digits = (i - int_start) as u64;
        let mut frac_scale = 1.0f64;
        if buf.get(i) == Some(&b'.') {
            i += 1;
            let frac_start = i;
            i = scan_digit_run(buf, i, &mut m);
            frac_scale = frac_scale_for(i - frac_start);
            digits += (i - frac_start) as u64;
        }
        self.pos = i;
        if digits == 0 {
            return Err(match self.peek() {
                Some(b) => self.err(ParseErrorKind::UnexpectedChar(b)),
                None => self.err(ParseErrorKind::UnexpectedEof),
            });
        }
        let mut exp: i32 = 0;
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            let mut exp_neg = false;
            match self.peek() {
                Some(b'-') => {
                    exp_neg = true;
                    self.pos += 1;
                }
                Some(b'+') => {
                    self.pos += 1;
                }
                _ => {}
            }
            let exp_start = self.pos;
            let mut j = self.pos;
            while j < buf.len() {
                let d = buf[j].wrapping_sub(b'0');
                if d >= 10 {
                    break;
                }
                exp = exp.saturating_mul(10).saturating_add(d as i32);
                j += 1;
            }
            if j == exp_start {
                return Err(match self.peek() {
                    Some(b) => self.err(ParseErrorKind::UnexpectedChar(b)),
                    None => self.err(ParseErrorKind::UnexpectedEof),
                });
            }
            digits += (j - exp_start) as u64;
            self.pos = j;
            if exp_neg {
                exp = -exp;
            }
        }
        // Reject garbage stuck to the token.
        if let Some(b) = self.peek() {
            if !is_separator(b) {
                return Err(self.err(ParseErrorKind::UnexpectedChar(b)));
            }
        }
        self.work.bytes_scanned += (self.pos - tok_start) as u64;
        self.work.float_tokens += 1;
        self.work.float_digits += digits;
        let mut value = m.value() / frac_scale * 10f64.powi(exp);
        if neg {
            value = -value;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_signed_integers() {
        let mut s = TextScanner::new(b"  42\t-17,+8\n");
        assert_eq!(s.parse_i64().unwrap(), 42);
        assert_eq!(s.parse_i64().unwrap(), -17);
        assert_eq!(s.parse_i64().unwrap(), 8);
        assert!(s.at_end());
    }

    #[test]
    fn parses_u64_and_rejects_sign() {
        let mut s = TextScanner::new(b"18446744073709551615");
        assert_eq!(s.parse_u64().unwrap(), u64::MAX);
        let mut s = TextScanner::new(b"-1");
        assert!(matches!(
            s.parse_u64().unwrap_err().kind,
            ParseErrorKind::UnexpectedChar(b'-')
        ));
    }

    #[test]
    fn parses_extreme_i64() {
        let mut s = TextScanner::new(b"-9223372036854775808 9223372036854775807");
        assert_eq!(s.parse_i64().unwrap(), i64::MIN);
        assert_eq!(s.parse_i64().unwrap(), i64::MAX);
    }

    #[test]
    fn integer_overflow_detected() {
        let mut s = TextScanner::new(b"9223372036854775808");
        assert_eq!(s.parse_i64().unwrap_err().kind, ParseErrorKind::Overflow);
        let mut s = TextScanner::new(b"99999999999999999999999");
        assert_eq!(s.parse_u64().unwrap_err().kind, ParseErrorKind::Overflow);
    }

    #[test]
    fn fast_path_boundary_is_exact() {
        // 19 digits: longest run the unchecked fast path may take.
        let mut s = TextScanner::new(b"9999999999999999999");
        assert_eq!(s.parse_u64().unwrap(), 9_999_999_999_999_999_999);
        // 20 digits: checked path; u64::MAX still parses...
        let mut s = TextScanner::new(b"18446744073709551615");
        assert_eq!(s.parse_u64().unwrap(), u64::MAX);
        // ...and u64::MAX + 1 reports overflow at the offending digit.
        let mut s = TextScanner::new(b"18446744073709551616");
        let e = s.parse_u64().unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::Overflow);
        assert_eq!(e.offset, 19);
    }

    #[test]
    fn parses_floats() {
        let cases: [(&[u8], f64); 7] = [
            (b"0", 0.0),
            (b"3.5", 3.5),
            (b"-2.25", -2.25),
            (b"1e3", 1000.0),
            (b"2.5e-2", 0.025),
            (b"+4.0E+1", 40.0),
            (b"123456.789", 123456.789),
        ];
        for (text, want) in cases {
            let mut s = TextScanner::new(text);
            let got = s.parse_f64().unwrap();
            assert!(
                (got - want).abs() <= want.abs() * 1e-12,
                "{:?} -> {got}, want {want}",
                std::str::from_utf8(text).unwrap()
            );
        }
    }

    #[test]
    fn rejects_malformed_tokens() {
        assert!(TextScanner::new(b"12x").parse_i64().is_err());
        assert!(TextScanner::new(b"abc").parse_f64().is_err());
        assert!(TextScanner::new(b".").parse_f64().is_err());
        assert!(TextScanner::new(b"1e").parse_f64().is_err());
        assert!(TextScanner::new(b"").parse_i64().is_err());
        assert!(TextScanner::new(b"-").parse_i64().is_err());
    }

    #[test]
    fn error_offsets_account_for_base() {
        let mut s = TextScanner::with_base_offset(b"zz", 100);
        assert_eq!(s.parse_i64().unwrap_err().offset, 100);
    }

    #[test]
    fn swar_fold8_matches_scalar_for_all_pair_patterns() {
        for a in [0u64, 1, 9, 10, 99, 12_345_678, 99_999_999, 90_000_009] {
            let text = format!("{a:08}");
            assert_eq!(swar::fold8(swar::load(text.as_bytes())), a, "{text}");
        }
    }

    #[test]
    fn chunked_scanner_matches_reference_on_all_small_lengths() {
        // Every prefix length 0..=33 of a digit/separator cycle: covers the
        // empty input, sub-chunk inputs, exact one/two/four-chunk inputs,
        // and trailing partial chunks on either side of the 8/16/32-byte
        // boundaries. Truncation only ever shortens a token, so every
        // prefix stays parseable and std's parser is the reference.
        let pattern: &[u8] = b"12, 34\t5\n9876543210 0 77777 808";
        for len in 0..=33 {
            let input: Vec<u8> = pattern.iter().cycle().take(len).copied().collect();
            let expect: Vec<i64> = input
                .split(|b| is_separator(*b))
                .filter(|t| !t.is_empty())
                .map(|t| std::str::from_utf8(t).unwrap().parse::<i64>().unwrap())
                .collect();
            let mut s = TextScanner::new(&input);
            let mut got = Vec::new();
            while !s.at_end() {
                got.push(s.parse_i64().unwrap());
            }
            assert_eq!(got, expect, "len {len}");
            assert_eq!(s.work().bytes_scanned, len as u64, "len {len}");
        }
    }

    #[test]
    fn chunked_float_scan_matches_reference_on_all_small_lengths() {
        let pattern: &[u8] = b"1.5 22.25,333.125\t4444.0625\n9.0 ";
        for len in 0..=33 {
            let input: Vec<u8> = pattern.iter().cycle().take(len).copied().collect();
            // Drop a trailing lone '.' token truncation would create.
            let input: Vec<u8> = if input.last() == Some(&b'.') {
                input[..len - 1].to_vec()
            } else {
                input
            };
            let expect: Vec<f64> = input
                .split(|b| is_separator(*b))
                .filter(|t| !t.is_empty())
                .map(|t| std::str::from_utf8(t).unwrap().parse::<f64>().unwrap())
                .collect();
            let mut s = TextScanner::new(&input);
            let mut got = Vec::new();
            while !s.at_end() {
                got.push(s.parse_f64().unwrap());
            }
            // Dyadic fractions: both parsers are exact, so == is fair.
            assert_eq!(got, expect, "len {len}");
        }
    }

    #[test]
    fn non_ascii_bytes_at_chunk_boundaries_error_at_exact_offset() {
        // 0xC3/0x80/0xFF at every position 0..=24: 0xFF in particular
        // exercises the SWAR carry case (a wild byte >= 0x8A corrupts the
        // *next* lane's classification, which must never be trusted).
        for wild in [0xC3u8, 0x80, 0xFF] {
            for pos in 0..=24 {
                // Zero digits: runs past 19 digits stay below the overflow
                // path, so the only possible error is the wild byte itself.
                let mut input = vec![b'0'; 25];
                input[pos] = wild;
                let mut s = TextScanner::new(&input);
                let e = s.parse_u64().unwrap_err();
                assert_eq!(e.kind, ParseErrorKind::UnexpectedChar(wild), "pos {pos}");
                assert_eq!(e.offset, pos, "wild {wild:#x} at {pos}");
            }
        }
    }

    #[test]
    fn separator_skip_handles_long_runs_and_boundary_tails() {
        for lead in 0..=33usize {
            let mut input = Vec::new();
            for k in 0..lead {
                input.push(b" \t\n\r,"[k % 5]);
            }
            input.extend_from_slice(b"41");
            let mut s = TextScanner::new(&input);
            assert_eq!(s.parse_i64().unwrap(), 41, "lead {lead}");
            assert_eq!(s.pos(), lead + 2);
        }
        // All-separator input of every small length ends cleanly.
        for len in 0..=33usize {
            let input = vec![b' '; len];
            let mut s = TextScanner::new(&input);
            assert!(s.at_end());
            assert_eq!(s.work().bytes_scanned, len as u64);
        }
    }

    #[test]
    fn work_counts_every_byte_once() {
        let text = b" 12 34.5\t-6\n";
        let mut s = TextScanner::new(text);
        s.parse_i64().unwrap();
        s.parse_f64().unwrap();
        s.parse_i64().unwrap();
        assert!(s.at_end());
        let w = s.work();
        assert_eq!(w.bytes_scanned, text.len() as u64);
        assert_eq!(w.int_tokens, 2);
        assert_eq!(w.float_tokens, 1);
        assert_eq!(w.int_digits, 3);
        assert_eq!(w.float_digits, 3);
    }
}
