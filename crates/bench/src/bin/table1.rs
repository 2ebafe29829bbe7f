//! Table I: the benchmark applications and their input sizes.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::table1);
}
