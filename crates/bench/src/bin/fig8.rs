//! Figure 8: object-deserialization speedup with Morpheus-SSD.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::fig8);
}
