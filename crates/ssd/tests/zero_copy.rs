//! Zero-copy contract of the controller read path, plus functional
//! equivalence of the reworked data path against a plain byte-array model.

use morpheus_flash::{copy_audit, FlashGeometry, FlashTiming, PageData};
use morpheus_ftl::Lpn;
use morpheus_nvme::LBA_BYTES;
use morpheus_simcore::SimTime;
use morpheus_ssd::{PageRead, Ssd, SsdConfig};
use proptest::prelude::*;
use std::borrow::Cow;

fn small_ssd() -> Ssd {
    Ssd::new(
        SsdConfig::default(),
        FlashGeometry::small(),
        FlashTiming::default(),
    )
}

/// The regression tripwire for the read hot path: a range read, timed or
/// not, hands out views of the stored payloads and copies no byte. No
/// full-page payload is materialized (`PageData::to_boxed` / `to_vec`),
/// each view shares the allocation a page read hands out, and its bytes
/// borrow from it. Gathering the views is the caller's copy.
#[test]
fn bulk_reads_never_copy_full_pages() {
    let mut ssd = small_ssd();
    let page = ssd.page_bytes() as usize;
    let data: Vec<u8> = (0..page * 8).map(|i| (i % 253) as u8).collect();
    ssd.load_at(0, &data).unwrap();

    let before = copy_audit::count();
    let blocks = data.len() as u64 / LBA_BYTES;
    let (timed, _) = ssd.read_range(0, blocks, SimTime::ZERO).unwrap();
    let untimed = ssd.read_range_untimed(0, blocks).unwrap();
    assert_eq!((timed.len(), untimed.len()), (8, 8), "one view per page");
    for (lpn, (t, u)) in timed.iter().zip(&untimed).enumerate() {
        let (handle, _) = ssd
            .read_page_timed(Lpn(lpn as u64), 0..page, SimTime::ZERO)
            .unwrap();
        let stored = handle.data().expect("a mapped page");
        assert!(PageData::ptr_eq(t.data().unwrap(), stored));
        assert!(PageData::ptr_eq(u.data().unwrap(), stored));
        assert_eq!(t.range(), 0..page);
        assert!(
            matches!(t.bytes(), Cow::Borrowed(_)),
            "a backed view borrows"
        );
    }
    assert_eq!(
        copy_audit::count(),
        before,
        "the read hot path materialized a full-page copy"
    );

    assert_eq!(PageRead::gather(&timed), data);
    assert_eq!(PageRead::gather(&untimed), data);
    assert!(ssd.ftl().flash().stats().reads > 0);
}

/// Repeated page reads through the whole stack hand back the same
/// allocation the flash array stores.
#[test]
fn page_handles_share_storage_across_the_stack() {
    let mut ssd = small_ssd();
    ssd.load_at(0, &vec![0x5A; 4096]).unwrap();
    let (a, _) = ssd.read_page_timed(Lpn(0), 0..4096, SimTime::ZERO).unwrap();
    let (b, _) = ssd.read_page_timed(Lpn(0), 8..16, SimTime::ZERO).unwrap();
    let (pa, pb) = (a.data().unwrap(), b.data().unwrap());
    assert!(PageData::ptr_eq(pa, pb), "controller reads must not copy");
}

/// Unmapped pages read as zeros without a backing allocation, and a view
/// covers only the bytes its range holds in the page.
#[test]
fn unmapped_pages_have_no_backing_allocation() {
    let mut ssd = small_ssd();
    let (handle, _) = ssd.read_page_timed(Lpn(5), 0..16, SimTime::ZERO).unwrap();
    assert!(handle.data().is_none());
    assert_eq!(handle.bytes(), vec![0u8; 16]);
    let lbas = ssd.lbas_per_page();
    let (pages, _) = ssd.read_range(5 * lbas + 1, 2, SimTime::ZERO).unwrap();
    assert_eq!(pages.len(), 1);
    assert!(pages[0].data().is_none());
    assert_eq!(pages[0].range(), 512..1536);
    assert_eq!(PageRead::gather(&pages), vec![0u8; 1024]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Oracle: an SSD driven by arbitrary interleaved writes and reads at
    /// arbitrary (mis)alignments behaves exactly like a flat byte array.
    /// This pins down the functional semantics of the zero-copy rework —
    /// partial-page RMW, zero-fill of unwritten ranges, page-boundary
    /// straddling reads.
    #[test]
    fn data_path_matches_byte_array_model(
        ops in proptest::collection::vec(
            (0u64..64, 1u64..24, 0u8..3), 1..24
        )
    ) {
        let mut ssd = small_ssd();
        let cap = ssd.capacity_lbas();
        let mut model = vec![0u8; (cap * LBA_BYTES) as usize];
        for (i, (slba, blocks, kind)) in ops.into_iter().enumerate() {
            let slba = slba.min(cap - 1);
            let blocks = blocks.min(cap - slba);
            let byte_start = (slba * LBA_BYTES) as usize;
            let byte_len = (blocks * LBA_BYTES) as usize;
            match kind {
                // Aligned whole-block write.
                0 => {
                    let payload: Vec<u8> =
                        (0..byte_len).map(|j| (i + j) as u8 | 1).collect();
                    ssd.write_range(slba, &payload, SimTime::ZERO).unwrap();
                    model[byte_start..byte_start + byte_len]
                        .copy_from_slice(&payload);
                }
                // Short (sub-block) write: exercises the RMW path.
                1 => {
                    let short = (byte_len / 2).max(1);
                    let payload: Vec<u8> =
                        (0..short).map(|j| (3 * i + j) as u8 | 1).collect();
                    ssd.write_range(slba, &payload, SimTime::ZERO).unwrap();
                    model[byte_start..byte_start + short]
                        .copy_from_slice(&payload);
                }
                // Read and compare against the model.
                _ => {
                    let (pages, _) =
                        ssd.read_range(slba, blocks, SimTime::ZERO).unwrap();
                    let covered: usize = pages.iter().map(PageRead::len).sum();
                    prop_assert_eq!(covered, byte_len);
                    let got = PageRead::gather(&pages);
                    prop_assert_eq!(
                        &got[..],
                        &model[byte_start..byte_start + byte_len],
                        "read {}..{} diverged from model", slba, slba + blocks
                    );
                }
            }
        }
        // Final sweep: every block agrees with the model.
        let all = PageRead::gather(&ssd.read_range_untimed(0, cap).unwrap());
        prop_assert_eq!(&all[..], &model[..]);
    }
}
