//! Figure 2: execution-time breakdown of the conventional model.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::fig2);
}
