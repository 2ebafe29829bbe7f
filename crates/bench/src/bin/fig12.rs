//! Figure 12 (§VII-C): Morpheus-SSD on a slower server.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::fig12);
}
