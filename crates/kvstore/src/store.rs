//! The on-flash hash-bucket table.

use morpheus_nvme::LBA_BYTES;
use morpheus_ssd::{PageRead, Ssd, SsdError};
use std::error::Error;
use std::fmt;

/// Shape of a KV region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Number of hash buckets.
    pub buckets: u32,
    /// Bytes per bucket (must be a multiple of the 512-byte LBA).
    pub bucket_bytes: u32,
    /// Buckets examined by open-addressing linear probing.
    pub probe_limit: u32,
}

impl KvConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized table or a bucket size that is not a whole
    /// number of LBAs.
    pub fn validate(&self) {
        assert!(self.buckets > 0, "need at least one bucket");
        assert!(
            (self.bucket_bytes as u64).is_multiple_of(LBA_BYTES) && self.bucket_bytes > 0,
            "bucket size must be a positive LBA multiple"
        );
        assert!(self.probe_limit >= 1, "need at least one probe");
    }
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            buckets: 64,
            bucket_bytes: 4096,
            probe_limit: 4,
        }
    }
}

/// KV-store errors.
#[derive(Debug)]
pub enum KvError {
    /// Every probe bucket is full.
    TableFull(u64),
    /// Value too large to ever fit a bucket.
    ValueTooLarge(usize),
    /// The drive failed.
    Ssd(SsdError),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::TableFull(k) => write!(f, "no probe bucket has room for key {k}"),
            KvError::ValueTooLarge(n) => write!(f, "value of {n} bytes exceeds bucket capacity"),
            KvError::Ssd(_) => write!(f, "drive error"),
        }
    }
}

impl Error for KvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KvError::Ssd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SsdError> for KvError {
    fn from(e: SsdError) -> Self {
        KvError::Ssd(e)
    }
}

/// Per-record overhead: key (8) + value length (2).
const RECORD_HEADER: usize = 10;
/// Per-bucket overhead: record count (2).
const BUCKET_HEADER: usize = 2;

/// Decodes a bucket's pairs.
pub(crate) fn decode_bucket(raw: &[u8]) -> Vec<(u64, Vec<u8>)> {
    let n = u16::from_le_bytes(raw[..2].try_into().expect("bucket header")) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = BUCKET_HEADER;
    for _ in 0..n {
        let key = u64::from_le_bytes(raw[pos..pos + 8].try_into().expect("key"));
        let vlen = u16::from_le_bytes(raw[pos + 8..pos + 10].try_into().expect("vlen")) as usize;
        pos += RECORD_HEADER;
        out.push((key, raw[pos..pos + vlen].to_vec()));
        pos += vlen;
    }
    out
}

fn encode_bucket(pairs: &[(u64, Vec<u8>)], bucket_bytes: usize) -> Vec<u8> {
    let mut raw = Vec::with_capacity(bucket_bytes);
    raw.extend_from_slice(&(pairs.len() as u16).to_le_bytes());
    for (k, v) in pairs {
        raw.extend_from_slice(&k.to_le_bytes());
        raw.extend_from_slice(&(v.len() as u16).to_le_bytes());
        raw.extend_from_slice(v);
    }
    assert!(raw.len() <= bucket_bytes, "caller checked capacity");
    raw.resize(bucket_bytes, 0);
    raw
}

fn used_bytes(pairs: &[(u64, Vec<u8>)]) -> usize {
    BUCKET_HEADER
        + pairs
            .iter()
            .map(|(_, v)| RECORD_HEADER + v.len())
            .sum::<usize>()
}

/// A hash-bucketed KV table over a contiguous LBA region.
///
/// Mutations are functional/staging-level (like file staging, they run
/// before a measured window); the interesting *timed* operation is the
/// range scan, offloadable via [`KvScanApp`](crate::KvScanApp).
#[derive(Debug, Clone, Copy)]
pub struct KvStore {
    base_lba: u64,
    cfg: KvConfig,
}

impl KvStore {
    /// Formats a fresh table at `base_lba` (writes empty buckets).
    ///
    /// # Errors
    ///
    /// Propagates drive errors (e.g. region beyond capacity).
    pub fn format(ssd: &mut Ssd, base_lba: u64, cfg: KvConfig) -> Result<KvStore, KvError> {
        cfg.validate();
        let empty = encode_bucket(&[], cfg.bucket_bytes as usize);
        for b in 0..cfg.buckets {
            ssd.load_at(
                base_lba + b as u64 * cfg.bucket_bytes as u64 / LBA_BYTES,
                &empty,
            )?;
        }
        Ok(KvStore { base_lba, cfg })
    }

    /// The table's configuration.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// The LBA range holding the table: `(slba, blocks)`.
    pub fn region(&self) -> (u64, u64) {
        (
            self.base_lba,
            self.cfg.buckets as u64 * self.cfg.bucket_bytes as u64 / LBA_BYTES,
        )
    }

    /// Total bytes in the region.
    pub fn region_bytes(&self) -> u64 {
        self.cfg.buckets as u64 * self.cfg.bucket_bytes as u64
    }

    fn bucket_lba(&self, bucket: u32) -> u64 {
        self.base_lba + bucket as u64 * self.cfg.bucket_bytes as u64 / LBA_BYTES
    }

    fn home_bucket(&self, key: u64) -> u32 {
        // SplitMix-style scramble so sequential keys spread.
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % self.cfg.buckets as u64) as u32
    }

    fn read_bucket(&self, ssd: &mut Ssd, bucket: u32) -> Result<Vec<(u64, Vec<u8>)>, KvError> {
        let pages = ssd.read_range_untimed(
            self.bucket_lba(bucket),
            self.cfg.bucket_bytes as u64 / LBA_BYTES,
        )?;
        Ok(decode_bucket(&PageRead::gather(&pages)))
    }

    fn write_bucket(
        &self,
        ssd: &mut Ssd,
        bucket: u32,
        pairs: &[(u64, Vec<u8>)],
    ) -> Result<(), KvError> {
        let raw = encode_bucket(pairs, self.cfg.bucket_bytes as usize);
        ssd.load_at(self.bucket_lba(bucket), &raw)?;
        Ok(())
    }

    fn probe_sequence(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let home = self.home_bucket(key);
        (0..self.cfg.probe_limit.min(self.cfg.buckets)).map(move |p| (home + p) % self.cfg.buckets)
    }

    /// Inserts or replaces a pair.
    ///
    /// # Errors
    ///
    /// Fails when the value cannot fit any bucket or all probe buckets are
    /// full.
    pub fn put(&self, ssd: &mut Ssd, key: u64, value: &[u8]) -> Result<(), KvError> {
        if RECORD_HEADER + value.len() > self.cfg.bucket_bytes as usize - BUCKET_HEADER
            || value.len() > u16::MAX as usize
        {
            return Err(KvError::ValueTooLarge(value.len()));
        }
        // Replace in place if the key exists anywhere in the probe window.
        for b in self.probe_sequence(key).collect::<Vec<_>>() {
            let mut pairs = self.read_bucket(ssd, b)?;
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| *k == key) {
                let old_len = slot.1.len();
                slot.1 = value.to_vec();
                if used_bytes(&pairs) <= self.cfg.bucket_bytes as usize {
                    return self.write_bucket(ssd, b, &pairs);
                }
                // Larger replacement no longer fits here: drop and fall
                // through to a fresh insert.
                pairs.retain(|(k, _)| *k != key);
                self.write_bucket(ssd, b, &pairs)?;
                let _ = old_len;
                break;
            }
        }
        // Insert into the first probe bucket with room.
        for b in self.probe_sequence(key).collect::<Vec<_>>() {
            let mut pairs = self.read_bucket(ssd, b)?;
            if used_bytes(&pairs) + RECORD_HEADER + value.len() <= self.cfg.bucket_bytes as usize {
                pairs.push((key, value.to_vec()));
                return self.write_bucket(ssd, b, &pairs);
            }
        }
        Err(KvError::TableFull(key))
    }

    /// Looks a key up.
    ///
    /// # Errors
    ///
    /// Propagates drive errors.
    pub fn get(&self, ssd: &mut Ssd, key: u64) -> Result<Option<Vec<u8>>, KvError> {
        for b in self.probe_sequence(key).collect::<Vec<_>>() {
            let pairs = self.read_bucket(ssd, b)?;
            if let Some((_, v)) = pairs.into_iter().find(|(k, _)| *k == key) {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Removes a key; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Propagates drive errors.
    pub fn delete(&self, ssd: &mut Ssd, key: u64) -> Result<bool, KvError> {
        for b in self.probe_sequence(key).collect::<Vec<_>>() {
            let mut pairs = self.read_bucket(ssd, b)?;
            let before = pairs.len();
            pairs.retain(|(k, _)| *k != key);
            if pairs.len() != before {
                self.write_bucket(ssd, b, &pairs)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Host-side reference scan: every pair with `lo <= key <= hi`, in
    /// region order (the same order the in-SSD [`KvScanApp`] emits).
    ///
    /// [`KvScanApp`]: crate::KvScanApp
    ///
    /// # Errors
    ///
    /// Propagates drive errors.
    pub fn scan_range_host(
        &self,
        ssd: &mut Ssd,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, KvError> {
        let mut out = Vec::new();
        for b in 0..self.cfg.buckets {
            for (k, v) in self.read_bucket(ssd, b)? {
                if (lo..=hi).contains(&k) {
                    out.push((k, v));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_flash::{FlashGeometry, FlashTiming};
    use morpheus_ssd::SsdConfig;

    fn setup() -> (Ssd, KvStore) {
        let mut ssd = Ssd::new(
            SsdConfig::default(),
            FlashGeometry::small(),
            FlashTiming::default(),
        );
        let kv = KvStore::format(&mut ssd, 0, KvConfig::default()).unwrap();
        (ssd, kv)
    }

    #[test]
    fn a_drive_error_is_named_once() {
        let mut ssd = Ssd::new(
            SsdConfig::default(),
            FlashGeometry::small(),
            FlashTiming::default(),
        );
        let end = ssd.capacity_lbas();
        let err = KvStore::format(&mut ssd, end, KvConfig::default()).unwrap_err();
        assert!(matches!(err, KvError::Ssd(_)), "{err:?}");
        assert_eq!(
            morpheus_simcore::render_error_chain(&err),
            format!("drive error: lba range {end}+8 out of range")
        );
    }

    #[test]
    fn put_get_round_trip() {
        let (mut ssd, kv) = setup();
        kv.put(&mut ssd, 1, b"one").unwrap();
        kv.put(&mut ssd, 2, b"two").unwrap();
        assert_eq!(kv.get(&mut ssd, 1).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(kv.get(&mut ssd, 2).unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(kv.get(&mut ssd, 3).unwrap(), None);
    }

    #[test]
    fn put_replaces_existing_value() {
        let (mut ssd, kv) = setup();
        kv.put(&mut ssd, 9, b"old").unwrap();
        kv.put(&mut ssd, 9, b"newer-value").unwrap();
        assert_eq!(
            kv.get(&mut ssd, 9).unwrap().as_deref(),
            Some(&b"newer-value"[..])
        );
        // Replacing must not duplicate the key in the scan.
        let hits = kv.scan_range_host(&mut ssd, 9, 9).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn delete_removes_key() {
        let (mut ssd, kv) = setup();
        kv.put(&mut ssd, 5, b"x").unwrap();
        assert!(kv.delete(&mut ssd, 5).unwrap());
        assert!(!kv.delete(&mut ssd, 5).unwrap());
        assert_eq!(kv.get(&mut ssd, 5).unwrap(), None);
    }

    #[test]
    fn range_scan_filters_keys() {
        let (mut ssd, kv) = setup();
        for k in 0..100u64 {
            kv.put(&mut ssd, k, format!("v{k}").as_bytes()).unwrap();
        }
        let hits = kv.scan_range_host(&mut ssd, 10, 19).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|(k, _)| (10..=19).contains(k)));
    }

    #[test]
    fn oversized_value_rejected() {
        let (mut ssd, kv) = setup();
        let huge = vec![0u8; 5000];
        assert!(matches!(
            kv.put(&mut ssd, 1, &huge).unwrap_err(),
            KvError::ValueTooLarge(_)
        ));
    }

    #[test]
    fn table_fills_up_gracefully() {
        let mut ssd = Ssd::new(
            SsdConfig::default(),
            FlashGeometry::small(),
            FlashTiming::default(),
        );
        let kv = KvStore::format(
            &mut ssd,
            0,
            KvConfig {
                buckets: 2,
                bucket_bytes: 512,
                probe_limit: 2,
            },
        )
        .unwrap();
        let value = vec![7u8; 100];
        let mut stored = 0;
        let mut full = false;
        for k in 0..64u64 {
            match kv.put(&mut ssd, k, &value) {
                Ok(()) => stored += 1,
                Err(KvError::TableFull(_)) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(full, "tiny table must eventually fill");
        // Everything stored is still retrievable.
        for k in 0..stored {
            assert!(kv.get(&mut ssd, k).unwrap().is_some());
        }
    }

    #[test]
    fn bucket_codec_round_trips() {
        let pairs = vec![(1u64, b"a".to_vec()), (u64::MAX, Vec::new())];
        let raw = encode_bucket(&pairs, 512);
        assert_eq!(raw.len(), 512);
        assert_eq!(decode_bucket(&raw), pairs);
    }
}
