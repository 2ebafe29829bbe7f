//! Sorting kernels (BigDataBench Sort on the CPU, Rodinia Hybrid Sort on
//! the GPU share this reference implementation), and the radix sort they
//! and word count share.

use crate::kernels::KernelResult;
use crate::Digest;
use morpheus_format::ParsedColumns;

/// Bits per radix digit: a pass's 2048 counters stay in L1.
const DIGIT_BITS: u32 = 11;
/// Buckets per radix pass.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// `vals` in ascending order, by an LSD radix sort of each value's offset
/// from the minimum.
///
/// Offsets fit a `u64` whatever the span, and unsigned offset order is
/// value order. A span of `b` bits takes `ceil(b / 11)` passes: none when
/// every value is equal, two for the suite's word-count and sort keys,
/// three for hybrid sort's, six for a full `i64` span.
pub(crate) fn radix_sorted(vals: &[i64]) -> Vec<i64> {
    let (Some(&min), Some(&max)) = (vals.iter().min(), vals.iter().max()) else {
        return Vec::new();
    };
    let span = max.wrapping_sub(min) as u64;
    let passes = (u64::BITS - span.leading_zeros()).div_ceil(DIGIT_BITS) as usize;
    if passes == 0 {
        return vals.to_vec();
    }
    let digit = |k: u64, pass: usize| (k >> (pass as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1);
    let mut keys: Vec<u64> = vals.iter().map(|&v| v.wrapping_sub(min) as u64).collect();
    // Every pass's counts in one read, then each becomes the pass's
    // starting offsets.
    let mut starts = vec![[0usize; BUCKETS]; passes];
    for &k in &keys {
        for (pass, counts) in starts.iter_mut().enumerate() {
            counts[digit(k, pass)] += 1;
        }
    }
    let mut scratch = vec![0u64; keys.len()];
    for (pass, next) in starts.iter_mut().enumerate() {
        let mut sum = 0;
        for slot in next.iter_mut() {
            sum += std::mem::replace(slot, sum);
        }
        for &k in &keys {
            let slot = &mut next[digit(k, pass)];
            scratch[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
    }
    keys.into_iter()
        .map(|k| (k as i64).wrapping_add(min))
        .collect()
}

/// Sorts the single integer column and digests order statistics plus a
/// strided sample.
pub fn sort(objects: &ParsedColumns, label: &str) -> KernelResult {
    let vals = radix_sorted(
        objects.columns[0]
            .as_ints()
            .expect("sort input is an integer column"),
    );
    let mut d = Digest::new();
    d.mix(vals.len() as u64);
    let stride = (vals.len() / 1000).max(1);
    for v in vals.iter().step_by(stride) {
        d.mix_i64(*v);
    }
    if let (Some(min), Some(max)) = (vals.first(), vals.last()) {
        d.mix_i64(*min);
        d.mix_i64(*max);
        KernelResult {
            digest: d.value(),
            summary: format!("{label}: {} keys, min {min}, max {max}", vals.len()),
        }
    } else {
        KernelResult {
            digest: d.value(),
            summary: format!("{label}: empty input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::{parse_buffer, FieldKind, Schema};

    fn ints(text: &[u8]) -> ParsedColumns {
        let schema = Schema::new(vec![FieldKind::U32]);
        parse_buffer(text, &schema).unwrap().0
    }

    #[test]
    fn reports_order_statistics() {
        let p = ints(b"5\n1\n9\n3\n");
        let r = sort(&p, "sort");
        assert!(r.summary.contains("min 1"));
        assert!(r.summary.contains("max 9"));
    }

    #[test]
    fn digest_depends_on_content_not_input_order() {
        let a = sort(&ints(b"3\n1\n2\n"), "sort");
        let b = sort(&ints(b"1\n2\n3\n"), "sort");
        assert_eq!(a.digest, b.digest);
        let c = sort(&ints(b"1\n2\n4\n"), "sort");
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn empty_input_handled() {
        let p = ints(b"");
        assert!(sort(&p, "sort").summary.contains("empty"));
    }
}
