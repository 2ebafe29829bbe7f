//! Scan-style kernels over a token stream: word count.

use crate::kernels::sort::radix_sorted;
use crate::kernels::KernelResult;
use crate::Digest;
use morpheus_format::ParsedColumns;

/// Counts occurrences of every value (word count over integer tokens) and
/// digests the full histogram in key order: a sorted copy's runs are the
/// histogram's entries, in that order.
pub fn wordcount(objects: &ParsedColumns) -> KernelResult {
    let vals = objects.columns[0]
        .as_ints()
        .expect("wordcount input is an integer column");
    let sorted = radix_sorted(vals);
    let mut d = Digest::new();
    let mut top = (0i64, 0u64);
    let mut distinct = 0usize;
    for run in sorted.chunk_by(|a, b| a == b) {
        let (k, c) = (run[0], run.len() as u64);
        d.mix_i64(k);
        d.mix(c);
        if c > top.1 {
            top = (k, c);
        }
        distinct += 1;
    }
    KernelResult {
        digest: d.value(),
        summary: format!(
            "wordcount: {} tokens, {} distinct, mode {} x{}",
            vals.len(),
            distinct,
            top.0,
            top.1
        ),
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
    fn wordcount_finds_the_mode() {
        let p = ints(b"7\n3\n7\n7\n3\n");
        let r = wordcount(&p);
        assert!(r.summary.contains("2 distinct"));
        assert!(r.summary.contains("mode 7 x3"));
    }

    #[test]
    fn digests_differ_for_different_data() {
        let a = wordcount(&ints(b"1\n2\n"));
        let b = wordcount(&ints(b"1\n3\n"));
        assert_ne!(a.digest, b.digest);
    }
}
