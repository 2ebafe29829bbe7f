//! Figure 3: effective bandwidth of conventional deserialization.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::fig3);
}
