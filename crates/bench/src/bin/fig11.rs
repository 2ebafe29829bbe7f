//! Figure 11 (§VII-B): end-to-end application speedup.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::fig11);
}
