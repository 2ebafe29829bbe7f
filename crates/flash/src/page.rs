//! Zero-copy page payload handles.
//!
//! Page contents live in the array as reference-counted immutable buffers
//! ([`Arc<[u8]>`]); a read hands out a [`PageData`] handle that shares the
//! stored allocation instead of cloning it. The FTL's garbage collector
//! relocates pages by moving the handle, and the SSD controller copies at
//! most once — a sub-slice into the caller's destination buffer. Flash
//! payloads in the simulated testbed are 4 KiB–16 KiB and every figure
//! reads tens of thousands of them, so the former clone-per-hop (flash →
//! FTL → controller → firmware) dominated allocator time.

use std::ops::Deref;
use std::sync::Arc;

/// Audit of full-payload materializations on the read path.
///
/// The hot read path is required to share the stored buffer; the only
/// sanctioned full copy is an explicit [`PageData::to_boxed`] /
/// [`PageData::to_vec`], and both tick this counter. Regression tests
/// snapshot [`count`](copy_audit::count) around bulk reads and assert it
/// stays flat — reintroducing a per-read payload clone fails them.
pub mod copy_audit {
    use std::sync::atomic::{AtomicU64, Ordering};

    static COPIES: AtomicU64 = AtomicU64::new(0);

    /// Records one full-payload copy.
    pub fn record() {
        COPIES.fetch_add(1, Ordering::Relaxed);
    }

    /// Total full-payload copies since process start.
    pub fn count() -> u64 {
        COPIES.load(Ordering::Relaxed)
    }
}

/// A shared, immutable page payload.
///
/// Cheap to clone (reference count); dereferences to the stored bytes.
/// May be shorter than the flash page when the original program wrote a
/// short payload — readers zero-extend to page size where that matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageData(Arc<[u8]>);

impl PageData {
    /// Wraps a payload, copying it into a shared allocation.
    pub fn copy_from(data: &[u8]) -> Self {
        PageData(Arc::from(data))
    }

    /// True if both handles share one stored allocation (i.e. no payload
    /// copy happened between them).
    pub fn ptr_eq(a: &PageData, b: &PageData) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// An owned boxed copy of the payload. This is a full-payload copy and
    /// is counted by [`copy_audit`]; keep it off hot paths.
    pub fn to_boxed(&self) -> Box<[u8]> {
        copy_audit::record();
        self.0[..].into()
    }

    /// An owned `Vec` copy of the payload. Counted by [`copy_audit`].
    pub fn to_vec(&self) -> Vec<u8> {
        copy_audit::record();
        self.0.to_vec()
    }
}

impl Deref for PageData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Arc<[u8]>> for PageData {
    fn from(a: Arc<[u8]>) -> Self {
        PageData(a)
    }
}

impl From<&[u8]> for PageData {
    fn from(d: &[u8]) -> Self {
        PageData::copy_from(d)
    }
}

impl AsRef<[u8]> for PageData {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let p = PageData::copy_from(b"payload");
        let q = p.clone();
        assert!(PageData::ptr_eq(&p, &q));
        assert_eq!(&q[..], b"payload");
    }

    #[test]
    fn explicit_copies_are_counted() {
        let p = PageData::copy_from(b"counted");
        let before = copy_audit::count();
        let b = p.to_boxed();
        let v = p.to_vec();
        assert_eq!(&b[..], &v[..]);
        assert_eq!(copy_audit::count(), before + 2);
    }

    #[test]
    fn deref_and_as_ref_expose_bytes() {
        let p = PageData::copy_from(&[1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.as_ref(), &[1, 2, 3]);
    }
}
