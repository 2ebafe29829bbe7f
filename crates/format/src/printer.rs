//! Text serialization (the inverse direction, used by workload generators
//! and the `ms_printf` device-library primitive).

/// Accounting of serialization work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerializeWork {
    /// Bytes emitted (tokens + separators).
    pub bytes_emitted: u64,
    /// Tokens written.
    pub tokens: u64,
}

/// `"00" "01" … "99"`: integer tokens are written two digits per step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// `10^d` for every `d` a `u64` holds; each is exact as an `f64` too.
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Scaled magnitudes at or above this take the `format!` path: below it an
/// `f64`'s fractional part is exact.
const EXACT_LIMIT: f64 = (1u64 << 52) as f64;

/// Writes `v`'s decimal digits right-aligned into `buf`, two per step, and
/// returns the index of the first.
#[inline]
fn digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// `|v|` rounded to `decimals` fractional digits, as a count of
/// `10^-decimals`, when one `f64` product decides the rounding exactly.
///
/// The product `s = |v|·10^d` lies within `s·2^-53` of the exact value,
/// and only a half-integer separates two roundings. So unless `s`'s
/// fractional part is within `s·2^-52` of one half, `s` rounds to the
/// integer the exact value does, which is what `format!` prints. `None`
/// near a tie, at or above [`EXACT_LIMIT`], for a non-finite `v`, or for
/// more decimals than [`POW10`] holds.
fn round_scaled(v: f64, decimals: usize) -> Option<u64> {
    let s = v.abs() * *POW10.get(decimals)? as f64;
    if !(0.0..EXACT_LIMIT).contains(&s) {
        return None;
    }
    let whole = s.floor();
    let frac = s - whole;
    if (frac - 0.5).abs() <= s * f64::EPSILON {
        return None;
    }
    Some(whole as u64 + u64::from(frac > 0.5))
}

/// A growable text buffer with numeric formatting and work accounting.
///
/// The output is byte for byte what `to_string()` and `format!("{v:.d$}")`
/// print, and [`work`](TextWriter::work) counts one token per `write_*`
/// call, since serialization is priced from those counts.
///
/// # Example
///
/// ```
/// use morpheus_format::TextWriter;
///
/// let mut w = TextWriter::new();
/// w.write_u64(12);
/// w.sep();
/// w.write_i64(-3);
/// w.newline();
/// assert_eq!(w.as_bytes(), b"12 -3\n");
/// assert_eq!(w.work().tokens, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextWriter {
    out: Vec<u8>,
    tokens: u64,
}

impl TextWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        TextWriter {
            out: Vec::with_capacity(bytes),
            tokens: 0,
        }
    }

    /// The emitted bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.out
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// Serialization work so far: every byte in the buffer was emitted by
    /// one of the writers.
    pub fn work(&self) -> SerializeWork {
        SerializeWork {
            bytes_emitted: self.out.len() as u64,
            tokens: self.tokens,
        }
    }

    /// Emitted length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Appends `v`'s digits (no token accounting).
    #[inline]
    fn put_u64(&mut self, v: u64) {
        let mut buf = [0u8; 20];
        let i = digits(v, &mut buf);
        self.out.extend_from_slice(&buf[i..]);
    }

    /// Writes an unsigned integer token.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.put_u64(v);
        self.tokens += 1;
    }

    /// Writes a signed integer token (the sign is part of the token).
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.write_u64(v.unsigned_abs());
    }

    /// Writes a float token with `decimals` fractional digits, as
    /// `format!("{v:.decimals$}")` prints it: through integers when one
    /// scaled `f64` decides the rounding exactly, through `format!` near a
    /// rounding tie, for huge magnitudes and for non-finite values.
    pub fn write_f64(&mut self, v: f64, decimals: usize) {
        self.tokens += 1;
        let Some(n) = round_scaled(v, decimals) else {
            use std::io::Write;
            write!(self.out, "{v:.decimals$}").expect("writing to a Vec cannot fail");
            return;
        };
        if v.is_sign_negative() {
            self.out.push(b'-');
        }
        let scale = POW10[decimals];
        self.put_u64(n / scale);
        if decimals > 0 {
            self.out.push(b'.');
            let mut buf = [0u8; 20];
            let i = digits(n % scale, &mut buf);
            let width = buf.len() - i;
            self.out.resize(self.out.len() + decimals - width, b'0');
            self.out.extend_from_slice(&buf[i..]);
        }
    }

    /// Writes a single separating space (not counted as a token).
    #[inline]
    pub fn sep(&mut self) {
        self.out.push(b' ');
    }

    /// Writes a newline (not counted as a token).
    #[inline]
    pub fn newline(&mut self) {
        self.out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TextScanner;

    #[test]
    fn u64_formatting_matches_std() {
        for v in [0u64, 7, 10, 99, 12345678901234567890] {
            let mut w = TextWriter::new();
            w.write_u64(v);
            assert_eq!(w.as_bytes(), v.to_string().as_bytes());
        }
    }

    #[test]
    fn i64_formatting_matches_std() {
        for v in [0i64, -1, i64::MIN, i64::MAX, -987654321] {
            let mut w = TextWriter::new();
            w.write_i64(v);
            assert_eq!(w.as_bytes(), v.to_string().as_bytes());
        }
    }

    #[test]
    fn float_round_trips_through_scanner() {
        let mut w = TextWriter::new();
        w.write_f64(-123.456, 3);
        let mut s = TextScanner::new(w.as_bytes());
        assert!((s.parse_f64().unwrap() + 123.456).abs() < 1e-9);
    }

    #[test]
    fn work_counts_bytes_and_tokens() {
        let mut w = TextWriter::new();
        w.write_u64(12);
        w.sep();
        w.write_i64(-3);
        w.newline();
        let work = w.work();
        assert_eq!(work.bytes_emitted, w.len() as u64);
        assert_eq!(work.tokens, 2);
    }

    #[test]
    fn capacity_constructor_and_emptiness() {
        let w = TextWriter::with_capacity(64);
        assert!(w.is_empty());
    }
}
