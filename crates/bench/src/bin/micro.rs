//! §II microbenchmarks: where the conventional path's time goes.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::micro);
}
