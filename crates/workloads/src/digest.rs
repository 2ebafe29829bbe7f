//! Order-sensitive result digests for cross-mode verification.

use morpheus_simcore::Fnv1a;

/// A word-wise FNV-1a accumulator for kernel results.
///
/// Floats are digested by their rounded fixed-point value so that digests
/// are stable across algebraically identical evaluation orders within one
/// kernel implementation (kernels themselves are deterministic; rounding
/// just guards against printing noise in summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(Fnv1a);

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Digest(Fnv1a::new())
    }

    /// Mixes a word.
    pub fn mix(&mut self, v: u64) {
        self.0.word(v);
    }

    /// Mixes a signed value.
    pub fn mix_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }

    /// Mixes a float at 6 fractional digits of precision.
    pub fn mix_f64(&mut self, v: f64) {
        self.mix(((v * 1e6).round() as i64) as u64);
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0.value()
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_sensitive() {
        let mut a = Digest::new();
        a.mix(1);
        a.mix(2);
        let mut b = Digest::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn floats_rounded() {
        let mut a = Digest::new();
        a.mix_f64(1.0000000001);
        let mut b = Digest::new();
        b.mix_f64(1.0);
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn deterministic() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        for i in 0..100 {
            a.mix(i);
            b.mix(i);
        }
        assert_eq!(a.value(), b.value());
    }
}
