//! Zero-copy page payload handles.
//!
//! Page contents live in the array as views of reference-counted immutable
//! buffers: a [`PageData`] is an [`Arc<[u8]>`] plus the byte range of it
//! the page holds. A page programmed from a caller's bytes owns a buffer of
//! its own; a page staged from a file image ([`PageData::view`]) shares the
//! image, so a staged file is stored once however many of its pages, and
//! however many drives, hold it. A read hands out a clone of the handle,
//! not of the bytes; the FTL's garbage collector relocates pages by moving
//! the handle, and the SSD controller's range reads hand out one view per
//! page, so only a caller that needs a range's bytes contiguous copies
//! them. Flash payloads in the simulated
//! testbed are 4 KiB–16 KiB and every figure reads tens of thousands of
//! them, so the former clone-per-hop (flash → FTL → controller → firmware)
//! dominated allocator time.
//!
//! The array holds a payload only while its page is valid: a page that
//! goes stale drops its handle (a buffer is freed with its last view), and
//! reading it is an error
//! ([`FlashError::ReadOfStalePage`](crate::FlashError::ReadOfStalePage)).

use std::fmt;
use std::ops::{Deref, Range};
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

/// A shared, immutable page payload: bytes `range` of a shared buffer.
///
/// Cheap to clone (reference count); dereferences to the viewed bytes, and
/// compares by them. May be shorter than the flash page when the original
/// program wrote a short payload — readers zero-extend to page size where
/// that matters.
#[derive(Clone)]
pub struct PageData {
    buf: Arc<[u8]>,
    range: Range<usize>,
}

impl PageData {
    /// Wraps a payload, copying it into a buffer of its own.
    pub fn copy_from(data: &[u8]) -> Self {
        PageData::from(Arc::<[u8]>::from(data))
    }

    /// A view of bytes `range` of `buf`, sharing it without a copy.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie inside `buf`.
    pub fn view(buf: &Arc<[u8]>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "page view {range:?} outside a {}-byte buffer",
            buf.len()
        );
        PageData {
            buf: Arc::clone(buf),
            range,
        }
    }

    /// True if both handles view the same bytes of one stored allocation
    /// (i.e. no payload copy happened between them).
    pub fn ptr_eq(a: &PageData, b: &PageData) -> bool {
        Arc::ptr_eq(&a.buf, &b.buf) && a.range == b.range
    }

    /// An owned boxed copy of the payload. This is a full-payload copy and
    /// is counted by [`copy_audit`]; keep it off hot paths.
    pub fn to_boxed(&self) -> Box<[u8]> {
        copy_audit::record();
        self[..].into()
    }

    /// An owned `Vec` copy of the payload. Counted by [`copy_audit`].
    pub fn to_vec(&self) -> Vec<u8> {
        copy_audit::record();
        self[..].to_vec()
    }
}

impl Deref for PageData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for PageData {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PageData {}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PageData").field(&&self[..]).finish()
    }
}

impl From<Arc<[u8]>> for PageData {
    fn from(buf: Arc<[u8]>) -> Self {
        let range = 0..buf.len();
        PageData { buf, range }
    }
}

impl From<&[u8]> for PageData {
    fn from(d: &[u8]) -> Self {
        PageData::copy_from(d)
    }
}

impl AsRef<[u8]> for PageData {
    fn as_ref(&self) -> &[u8] {
        self
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

    #[test]
    fn views_share_one_image() {
        let image: Arc<[u8]> = Arc::from(&b"page-one|page-two"[..]);
        let one = PageData::view(&image, 0..8);
        let two = PageData::view(&image, 9..17);
        assert_eq!(&one[..], b"page-one");
        assert_eq!(&two[..], b"page-two");
        assert!(!PageData::ptr_eq(&one, &two), "different ranges");
        assert!(PageData::ptr_eq(&two, &PageData::view(&image, 9..17)));
        assert_eq!(one, PageData::copy_from(b"page-one"), "equal by bytes");
        assert_eq!(Arc::strong_count(&image), 3);
        drop((one, two));
        assert_eq!(Arc::strong_count(&image), 1, "views release the image");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn a_view_past_its_buffer_panics() {
        let image: Arc<[u8]> = Arc::from(&b"short"[..]);
        let _ = PageData::view(&image, 2..6);
    }
}
