//! Figure 9: normalized power and energy during deserialization.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::fig9);
}
