//! Golden lengths and digests of every staged input. The ten suite
//! generators at seeds 7 and 42, at the paper-suite size and at 16 KiB,
//! must reproduce these bytes exactly: an input that drifts by one byte
//! fails here rather than as a moved scorecard.

use morpheus_workloads::{suite, Benchmark};

#[derive(Debug, Clone, Copy)]
enum Size {
    /// What the benchmark's paper-suite stages: `nominal_bytes / 512`,
    /// clamped as the figure binaries clamp it.
    Suite,
    /// 16 KiB, the benchmark's tiny pass.
    Small,
}

impl Size {
    fn bytes(self, bench: &Benchmark) -> u64 {
        match self {
            Size::Suite => (bench.nominal_bytes / 512).clamp(2_000_000, 48_000_000),
            Size::Small => 16 * 1024,
        }
    }
}

/// `(app, seed, size, length, FNV-1a of the bytes)`.
const GOLDEN: &[(&str, u64, Size, usize, u64)] = &[
    ("pagerank", 7, Size::Suite, 7031256, 0x175110ff1c9621d1),
    ("pagerank", 7, Size::Small, 16389, 0xa839934de1ad1ad3),
    ("wordcount", 7, Size::Suite, 2000002, 0xacfd65bef206d039),
    ("wordcount", 7, Size::Small, 16387, 0x05467cd87acf67ba),
    ("sort", 7, Size::Suite, 2000002, 0xa348a06a21a9be7d),
    ("sort", 7, Size::Small, 16388, 0x66b449d8340b3ee2),
    ("bfs", 7, Size::Suite, 4941408, 0x7784713eaa33e850),
    ("bfs", 7, Size::Small, 16389, 0xa839934de1ad1ad3),
    ("gaussian", 7, Size::Suite, 1882841, 0x5a3eb890626d066d),
    ("gaussian", 7, Size::Small, 10296, 0x2931a8ea81901ea0),
    ("hybridsort", 7, Size::Suite, 6132813, 0x2c8ab430cd9acb7d),
    ("hybridsort", 7, Size::Small, 16384, 0xe7f3475dd130fbe5),
    ("kmeans", 7, Size::Suite, 2539066, 0x3d5eaf00a130ca0a),
    ("kmeans", 7, Size::Small, 16397, 0x2f6eefb448ca63be),
    ("lud", 7, Size::Suite, 2924622, 0xcf59e9d4c345c93d),
    ("lud", 7, Size::Small, 10296, 0x2931a8ea81901ea0),
    ("nn", 7, Size::Suite, 3203134, 0x73326a444b71f958),
    ("nn", 7, Size::Small, 16386, 0xc23ddf40c1a06a88),
    ("spmv", 7, Size::Suite, 2000007, 0x1930077fe0eec136),
    ("spmv", 7, Size::Small, 16388, 0xe9aef8e59510567b),
    ("pagerank", 42, Size::Suite, 7031253, 0x81c70a4078ef16fe),
    ("pagerank", 42, Size::Small, 16387, 0x0461b67cab611041),
    ("wordcount", 42, Size::Suite, 2000002, 0x56bf72197788e629),
    ("wordcount", 42, Size::Small, 16389, 0xdccb92e84ff7807d),
    ("sort", 42, Size::Suite, 2000001, 0x26b2a6248193ee5f),
    ("sort", 42, Size::Small, 16389, 0xd4cc5cc8f3e42a4d),
    ("bfs", 42, Size::Suite, 4941414, 0xa7d4708e5e6e0d24),
    ("bfs", 42, Size::Small, 16387, 0x0461b67cab611041),
    ("gaussian", 42, Size::Suite, 1883226, 0x861d20e0ea29d542),
    ("gaussian", 42, Size::Small, 10292, 0x641168769e60f4c6),
    ("hybridsort", 42, Size::Suite, 6132815, 0x08a4ca817f37626b),
    ("hybridsort", 42, Size::Small, 16391, 0x308edaeffa00d7e3),
    ("kmeans", 42, Size::Suite, 2539069, 0xb83e8a087abec942),
    ("kmeans", 42, Size::Small, 16391, 0x78d559d03a4eba06),
    ("lud", 42, Size::Suite, 2925498, 0xfe529ad009ce075f),
    ("lud", 42, Size::Small, 10292, 0x641168769e60f4c6),
    ("nn", 42, Size::Suite, 3203137, 0x191e62d59646198b),
    ("nn", 42, Size::Small, 16393, 0x92e868d91d49e8c6),
    ("spmv", 42, Size::Suite, 2000015, 0x123663afc9b1c0b8),
    ("spmv", 42, Size::Small, 16385, 0x74c28a48ea20ec6c),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn every_generator_reproduces_its_golden_bytes() {
    let benches = suite();
    assert_eq!(GOLDEN.len(), benches.len() * 2 * 2);
    let mut drifted = Vec::new();
    for &(name, seed, size, len, digest) in GOLDEN {
        let bench = benches
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("{name} is not a suite app"));
        let text = bench.generate(size.bytes(bench), seed);
        if (text.len(), fnv1a(&text)) != (len, digest) {
            drifted.push(format!(
                "{name} seed {seed} {size:?}: {} bytes, digest {:#018x}",
                text.len(),
                fnv1a(&text)
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "inputs drifted:\n{}",
        drifted.join("\n")
    );
}
