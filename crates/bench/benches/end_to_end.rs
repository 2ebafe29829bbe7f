//! Criterion: full-system simulation throughput per execution mode.
//!
//! Measures how fast the *simulator itself* executes a complete
//! staged-input → deserialize → kernel benchmark run (useful for sizing
//! figure-regeneration sweeps).
//!
//! The `System` runs replay the deserialization memo after their first
//! iteration, so the `storage_app_cold_*` cases drive the firmware directly
//! with no memo key: every iteration runs the StorageApp live over every
//! page. Their 8 MiB / 1 MiB time ratio should stay near 8 (linear).

use criterion::{criterion_group, criterion_main, Criterion};
use morpheus::{DeserializeApp, Mode, MorpheusSsd, System, SystemParams};
use morpheus_flash::{FlashGeometry, FlashTiming};
use morpheus_format::CostModel;
use morpheus_nvme::LBA_BYTES;
use morpheus_simcore::SimTime;
use morpheus_ssd::{Ssd, SsdConfig};
use morpheus_workloads::{run_benchmark, stage_input, suite};
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let benches = suite();
    let pagerank = benches.iter().find(|b| b.name == "pagerank").unwrap();
    let mut sys = System::new(SystemParams::paper_testbed());
    stage_input(&mut sys, pagerank, 2 << 20, 42).unwrap();

    for mode in [Mode::Conventional, Mode::Morpheus] {
        g.bench_function(format!("pagerank_2MiB_{mode}"), |b| {
            b.iter(|| black_box(run_benchmark(&mut sys, pagerank, mode).unwrap()))
        });
    }

    let spmv = benches.iter().find(|b| b.name == "spmv").unwrap();
    stage_input(&mut sys, spmv, 2 << 20, 42).unwrap();
    g.bench_function("spmv_2MiB_morpheus", |b| {
        b.iter(|| black_box(run_benchmark(&mut sys, spmv, Mode::Morpheus).unwrap()))
    });

    // Cold StorageApp: MINIT (no memo key), MREAD over every chunk, MDEINIT.
    let chunk_bytes = SystemParams::paper_testbed().mread_chunk_bytes as usize;
    for mib in [1u64, 8] {
        let text = pagerank.generate(mib << 20, 42);
        let mut mssd = MorpheusSsd::new(
            Ssd::new(
                SsdConfig::default(),
                FlashGeometry::workload(),
                FlashTiming::default(),
            ),
            CostModel::embedded_core(),
        );
        mssd.dev.load_at(0, &text).unwrap();
        let mut iid = 0;
        g.bench_function(format!("storage_app_cold_{mib}MiB"), |b| {
            b.iter(|| {
                iid += 1;
                let app = DeserializeApp::new("pagerank", pagerank.schema());
                let mut at = mssd.minit(iid, Box::new(app), SimTime::ZERO).unwrap();
                let mut out_bytes = 0;
                for (i, chunk) in text.chunks(chunk_bytes).enumerate() {
                    let slba = (i * chunk_bytes) as u64 / LBA_BYTES;
                    let blocks = (chunk.len() as u64).div_ceil(LBA_BYTES);
                    let out = mssd
                        .mread(iid, slba, blocks, chunk.len() as u64, at)
                        .unwrap();
                    out_bytes += out.output.len();
                    at = out.done;
                }
                let done = mssd.mdeinit(iid, at).unwrap();
                black_box((out_bytes, done.retval))
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
