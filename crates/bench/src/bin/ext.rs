//! Extensions beyond the paper: binary inputs and serialization.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::ext);
}
