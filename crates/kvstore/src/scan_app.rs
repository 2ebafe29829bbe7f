//! The in-storage range-scan StorageApp.

use crate::encode_pair;
use crate::store::decode_bucket;
use morpheus::{AppError, DeviceCtx, StorageApp};
use morpheus_simcore::SplitMix64;

/// Scans KV bucket pages delivered by MREAD and emits the pairs whose key
/// lies in `[lo, hi]` — the paper's "emitting key-value pairs from \[a\]
/// flash-based key-value store" offload (§I).
///
/// MREAD chunk boundaries may split a bucket; the app buffers until a
/// whole bucket is resident (one bucket always fits D-SRAM).
#[derive(Debug)]
pub struct KvScanApp {
    bucket_bytes: usize,
    lo: u64,
    hi: u64,
    carry: Vec<u8>,
    matched: u32,
    buckets_scanned: u32,
}

impl KvScanApp {
    /// Creates a scan over `[lo, hi]` for a table with the given bucket
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes` is zero or the range is inverted.
    pub fn new(bucket_bytes: u32, lo: u64, hi: u64) -> Self {
        assert!(bucket_bytes > 0, "bucket size must be positive");
        assert!(lo <= hi, "scan range is inverted");
        KvScanApp {
            bucket_bytes: bucket_bytes as usize,
            lo,
            hi,
            carry: Vec::new(),
            matched: 0,
            buckets_scanned: 0,
        }
    }

    /// Buckets fully processed so far.
    pub fn buckets_scanned(&self) -> u32 {
        self.buckets_scanned
    }
}

impl StorageApp for KvScanApp {
    fn name(&self) -> &str {
        "kv-range-scan"
    }

    fn on_chunk(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError> {
        ctx.ensure_working_set(self.bucket_bytes as u64 + self.carry.len() as u64)?;
        self.carry.extend_from_slice(data);
        let mut emitted = Vec::new();
        while self.carry.len() >= self.bucket_bytes {
            let bucket: Vec<u8> = self.carry.drain(..self.bucket_bytes).collect();
            let pairs = decode_bucket(&bucket);
            // Price the scan through the shared work model: every bucket
            // byte is examined once, every record is one fixed-up compare.
            ctx.charge_work(&morpheus_format_work(
                self.bucket_bytes as u64,
                pairs.len() as u64,
            ));
            for (k, v) in pairs {
                if (self.lo..=self.hi).contains(&k) {
                    encode_pair(&mut emitted, k, &v);
                    self.matched += 1;
                }
            }
            self.buckets_scanned += 1;
        }
        if !emitted.is_empty() {
            ctx.charge_instructions(emitted.len() as f64); // output stores
            ctx.ms_memcpy(&emitted);
        }
        Ok(())
    }

    fn on_finish(&mut self, _ctx: &mut DeviceCtx) -> Result<i32, AppError> {
        if !self.carry.is_empty() {
            return Err(AppError::App(format!(
                "{} trailing bytes do not form a whole bucket",
                self.carry.len()
            )));
        }
        Ok(self.matched as i32)
    }
}

/// Scan work in the shared accounting currency: bucket bytes ride the
/// byte-scan path, records the per-token path.
///
/// The embedded cores scan buckets with wide compares (Tensilica-style
/// 16-byte custom ops — exactly the extensibility such cores are built
/// for), so the byte-path work is 1/16 of the bucket size.
fn morpheus_format_work(bytes: u64, records: u64) -> morpheus_format::ParseWork {
    morpheus_format::ParseWork {
        bytes_scanned: bytes / 16,
        int_tokens: records,
        int_digits: 0,
        float_tokens: 0,
        float_digits: 0,
    }
}

/// Deterministic synthetic KV population helper (used by tests, examples,
/// and the `kv` bench): `count` pairs with pseudo-random keys below
/// `key_space` and small values derived from the key.
pub fn synth_pairs(count: u32, key_space: u64, seed: u64) -> Vec<(u64, Vec<u8>)> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(count as usize);
    let mut seen = std::collections::HashSet::new();
    while out.len() < count as usize {
        let k = rng.next_below(key_space);
        if !seen.insert(k) {
            continue;
        }
        let len = 8 + (k % 25) as usize;
        let mut v = vec![0u8; len];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (k as u8).wrapping_add(i as u8);
        }
        out.push((k, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_pairs, KvConfig, KvStore};
    use morpheus_flash::{FlashGeometry, FlashTiming};
    use morpheus_ssd::{PageRead, Ssd, SsdConfig};

    fn populated() -> (Ssd, KvStore) {
        let mut ssd = Ssd::new(
            SsdConfig::default(),
            FlashGeometry::small(),
            FlashTiming::default(),
        );
        let kv = KvStore::format(&mut ssd, 0, KvConfig::default()).unwrap();
        for (k, v) in synth_pairs(300, 10_000, 1) {
            kv.put(&mut ssd, k, &v).unwrap();
        }
        (ssd, kv)
    }

    #[test]
    fn device_scan_matches_host_scan() {
        let (mut ssd, kv) = populated();
        let (lo, hi) = (2_000u64, 6_000u64);
        let want = kv.scan_range_host(&mut ssd, lo, hi).unwrap();

        // Run the app directly over the raw region bytes, chunked
        // awkwardly (not bucket aligned).
        let (slba, blocks) = kv.region();
        let raw = PageRead::gather(&ssd.read_range_untimed(slba, blocks).unwrap());
        let mut app = KvScanApp::new(kv.config().bucket_bytes, lo, hi);
        let mut ctx = DeviceCtx::new(256 * 1024);
        for chunk in raw.chunks(3000) {
            app.on_chunk(&mut ctx, chunk).unwrap();
        }
        let matched = app.on_finish(&mut ctx).unwrap();
        let got = decode_pairs(&ctx.take_output());
        assert_eq!(got, want);
        assert_eq!(matched as usize, want.len());
        assert_eq!(app.buckets_scanned(), kv.config().buckets);
    }

    #[test]
    fn empty_range_emits_nothing() {
        let (mut ssd, kv) = populated();
        let (slba, blocks) = kv.region();
        let raw = PageRead::gather(&ssd.read_range_untimed(slba, blocks).unwrap());
        let mut app = KvScanApp::new(kv.config().bucket_bytes, 20_000, 30_000);
        let mut ctx = DeviceCtx::new(256 * 1024);
        app.on_chunk(&mut ctx, &raw).unwrap();
        assert_eq!(app.on_finish(&mut ctx).unwrap(), 0);
        assert!(ctx.take_output().is_empty());
    }

    #[test]
    fn ragged_region_rejected() {
        let mut app = KvScanApp::new(4096, 0, 10);
        let mut ctx = DeviceCtx::new(256 * 1024);
        app.on_chunk(&mut ctx, &[0u8; 100]).unwrap();
        assert!(app.on_finish(&mut ctx).is_err());
    }

    #[test]
    fn synth_pairs_deterministic_and_unique() {
        let a = synth_pairs(100, 1000, 7);
        let b = synth_pairs(100, 1000, 7);
        assert_eq!(a, b);
        let keys: std::collections::HashSet<u64> = a.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), 100);
    }
}
