//! Property tests: the flash array as a state machine checked against a
//! reference model of NAND rules.

use morpheus_flash::{BlockId, FlashArray, FlashError, FlashGeometry, FlashTiming, PageState, Ppa};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Program(u64, u8),
    Read(u64),
    Erase(u64),
    Invalidate(u64),
}

fn op_strategy(pages: u64, blocks: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..pages, any::<u8>()).prop_map(|(p, v)| Op::Program(p, v)),
        3 => (0..pages).prop_map(Op::Read),
        1 => (0..blocks).prop_map(Op::Erase),
        1 => (0..pages).prop_map(Op::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The array must agree with a simple reference model: page contents
    /// after programs/erases, program-once, sequential-program order, and
    /// reads of free and of stale pages failing.
    #[test]
    fn flash_matches_reference_model(
        ops in {
            let g = FlashGeometry::small();
            proptest::collection::vec(op_strategy(g.total_pages(), g.total_blocks()), 1..300)
        },
    ) {
        let g = FlashGeometry::small();
        let mut flash = FlashArray::new(g, FlashTiming::default());
        // Reference: readable contents, programmed-but-stale pages, and the
        // per-block write pointer.
        let mut contents: HashMap<u64, u8> = HashMap::new();
        let mut stale: HashSet<u64> = HashSet::new();
        let mut write_point: HashMap<u64, u32> = HashMap::new();
        let ppb = g.pages_per_block as u64;

        for op in ops {
            match op {
                Op::Program(p, v) => {
                    let ppa = Ppa(p);
                    let block = p / ppb;
                    let idx = (p % ppb) as u32;
                    let expect_ok = !contents.contains_key(&p)
                        && !stale.contains(&p)
                        && *write_point.entry(block).or_insert(0) == idx;
                    match flash.program_page(ppa, &[v]) {
                        Ok(_) => {
                            prop_assert!(expect_ok, "model says program {p} should fail");
                            contents.insert(p, v);
                            write_point.insert(block, idx + 1);
                        }
                        Err(FlashError::ProgramTwice(_)) => {
                            prop_assert!(contents.contains_key(&p) || stale.contains(&p));
                        }
                        Err(FlashError::ProgramOutOfOrder { expected_page, .. }) => {
                            prop_assert_ne!(expected_page, idx);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
                    }
                }
                Op::Read(p) => match flash.read_page(Ppa(p)) {
                    Ok((data, _)) => {
                        let want = contents.get(&p).copied();
                        prop_assert_eq!(Some(data[0]), want, "stale data at {}", p);
                    }
                    Err(FlashError::ReadOfFreePage(_)) => {
                        prop_assert!(!contents.contains_key(&p) && !stale.contains(&p));
                    }
                    Err(FlashError::ReadOfStalePage(_)) => {
                        prop_assert!(stale.contains(&p), "page {} is not stale", p);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
                },
                Op::Erase(b) => {
                    flash.erase_block(BlockId(b)).unwrap();
                    for p in (b * ppb)..((b + 1) * ppb) {
                        contents.remove(&p);
                        stale.remove(&p);
                    }
                    write_point.insert(b, 0);
                }
                Op::Invalidate(p) => {
                    if flash.geometry().contains(Ppa(p)) {
                        flash.invalidate_page(Ppa(p));
                        // The page leaves the readable set: the array drops
                        // a stale page's payload.
                        if contents.remove(&p).is_some() {
                            stale.insert(p);
                        }
                    }
                }
            }
        }
        // Final audit: every modelled page matches; states are consistent.
        for (p, v) in &contents {
            let (data, _) = flash.read_page(Ppa(*p)).unwrap();
            prop_assert_eq!(data[0], *v);
        }
        for p in &stale {
            prop_assert_eq!(
                flash.read_page(Ppa(*p)).unwrap_err(),
                FlashError::ReadOfStalePage(Ppa(*p))
            );
            prop_assert_eq!(flash.page_state(Ppa(*p)), PageState::Invalid);
        }
        for p in 0..g.total_pages() {
            let st = flash.page_state(Ppa(p));
            if !contents.contains_key(&p) && !stale.contains(&p) {
                prop_assert_eq!(st, PageState::Free, "page {} should be free", p);
            } else {
                prop_assert_ne!(st, PageState::Free, "page {} should hold data", p);
            }
        }
    }

    /// Erase counts only ever grow, and exactly one per erase.
    #[test]
    fn wear_is_monotone(erases in proptest::collection::vec(0u64..16, 1..100)) {
        let g = FlashGeometry::small();
        let mut flash = FlashArray::new(g, FlashTiming::default());
        let mut model = vec![0u64; g.total_blocks() as usize];
        for b in erases {
            flash.erase_block(BlockId(b)).unwrap();
            model[b as usize] += 1;
            prop_assert_eq!(flash.erase_count(BlockId(b)), model[b as usize]);
        }
        prop_assert_eq!(flash.stats().erases, model.iter().sum::<u64>());
    }
}
