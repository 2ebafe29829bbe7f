//! Property tests: the flash-backed KV table must behave exactly like a
//! `HashMap<u64, Vec<u8>>` under arbitrary put/overwrite/delete/get mixes,
//! and the in-storage scan must always match the host reference scan.

use morpheus::DeviceCtx;
use morpheus::StorageApp;
use morpheus_flash::{FlashGeometry, FlashTiming};
use morpheus_kvstore::{decode_pairs, KvConfig, KvError, KvScanApp, KvStore};
use morpheus_ssd::{PageRead, Ssd, SsdConfig};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..500, proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0u64..500).prop_map(Op::Delete),
        2 => (0u64..500).prop_map(Op::Get),
    ]
}

fn fresh() -> (Ssd, KvStore) {
    let mut ssd = Ssd::new(
        SsdConfig::default(),
        FlashGeometry::small(),
        FlashTiming::default(),
    );
    let kv = KvStore::format(&mut ssd, 0, KvConfig::default()).unwrap();
    (ssd, kv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kv_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let (mut ssd, kv) = fresh();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => match kv.put(&mut ssd, k, &v) {
                    Ok(()) => {
                        model.insert(k, v);
                    }
                    Err(KvError::TableFull(_)) => {
                        // A full table must still serve what it holds.
                    }
                    Err(e) => panic!("unexpected error {e}"),
                },
                Op::Delete(k) => {
                    let existed = kv.delete(&mut ssd, k).unwrap();
                    let model_existed = model.remove(&k).is_some();
                    prop_assert_eq!(existed, model_existed);
                }
                Op::Get(k) => {
                    prop_assert_eq!(kv.get(&mut ssd, k).unwrap(), model.get(&k).cloned());
                }
            }
        }
        for (k, v) in &model {
            let got = kv.get(&mut ssd, *k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    #[test]
    fn device_scan_equals_host_scan(
        keys in proptest::collection::hash_set(0u64..2_000, 1..120),
        range in (0u64..2_000, 0u64..2_000),
        chunk in 100usize..5_000,
    ) {
        let (mut ssd, kv) = fresh();
        for k in &keys {
            kv.put(&mut ssd, *k, &k.to_be_bytes()).unwrap();
        }
        let (lo, hi) = (range.0.min(range.1), range.0.max(range.1));
        let want = kv.scan_range_host(&mut ssd, lo, hi).unwrap();

        let (slba, blocks) = kv.region();
        let raw = PageRead::gather(&ssd.read_range_untimed(slba, blocks).unwrap());
        let mut app = KvScanApp::new(kv.config().bucket_bytes, lo, hi);
        let mut ctx = DeviceCtx::new(256 * 1024);
        for c in raw.chunks(chunk) {
            app.on_chunk(&mut ctx, c).unwrap();
        }
        let matched = app.on_finish(&mut ctx).unwrap() as usize;
        let got = decode_pairs(&ctx.take_output());
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(matched, want.len());
    }
}
