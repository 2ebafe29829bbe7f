//! The paper scorecard as a gate: one suite run at 2 MB inputs (`--scale
//! 8192`, seed 42) must keep every headline mean of EXPERIMENTS.md in its
//! band. The ratios of Figs. 2, 8, 9 and 11 are size-stable, so they get
//! ±4 % around what the figure binaries print at this scale. The
//! reductions of Fig. 10 and §VII-A grow with the input size, so they get
//! floors.

use morpheus_bench::Harness;
use morpheus_workloads::Scorecard;

/// Asserts `got` is within 4 % of `want`.
fn near(what: &str, got: f64, want: f64) {
    let off = (got / want - 1.0).abs();
    assert!(off <= 0.04, "{what}: {got:.4} is not within 4% of {want}");
}

/// Asserts `got` is at least `floor`.
fn above(what: &str, got: f64, floor: f64) {
    assert!(got >= floor, "{what}: {got:.4} is below {floor}");
}

#[test]
fn scorecard_holds_its_bands_at_2mb_inputs() {
    let h = Harness {
        scale: 8192,
        seed: 42,
        jobs: 2,
        ..Harness::default()
    };
    let run = h.suite_run().expect("fault-free suite run");
    let card = Scorecard::measure(&run);
    near("Fig. 2 deserialization share", card.deser_share, 0.636);
    near("Fig. 8 deserialization speedup", card.deser_speedup, 1.72);
    near("Fig. 9 power ratio", card.power_ratio, 0.916);
    near("Fig. 9 energy ratio", card.energy_ratio, 0.546);
    near("Fig. 11 end-to-end speedup", card.total_speedup, 1.36);
    near("Fig. 11 speedup with P2P", card.p2p_speedup, 1.39);
    above("Fig. 10 rate reduction", card.cs_rate_reduction, 0.80);
    above("Fig. 10 count reduction", card.cs_total_reduction, 0.88);
    above("§VII-A PCIe reduction", card.pcie_reduction, 0.13);
    above("§VII-A membus reduction", card.membus_reduction, 0.44);

    // Fig. 8's outlier: the embedded cores have no FPU, so SpMV, a third
    // of whose tokens are floats, gains least.
    let lowest = run
        .apps
        .iter()
        .min_by(|a, b| a.deser_speedup().total_cmp(&b.deser_speedup()))
        .expect("ten apps");
    assert_eq!(lowest.name, "spmv");
    near("Fig. 8 SpMV speedup", lowest.deser_speedup(), 1.15);

    // Fig. 11: the six CUDA apps run with P2P, and P2P never loses to
    // Morpheus-SSD alone.
    let gpu: Vec<_> = run.apps.iter().filter(|a| a.p2p.is_some()).collect();
    assert_eq!(gpu.len(), 6);
    for a in gpu {
        let p2p = a.p2p_speedup().expect("p2p ran");
        assert!(
            p2p >= a.total_speedup(),
            "{}: P2P {p2p:.3}x below Morpheus",
            a.name
        );
    }
}
