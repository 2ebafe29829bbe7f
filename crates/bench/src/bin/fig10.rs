//! Figure 10: context switches during deserialization.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::fig10);
}
