//! Key-value scan offload (§I): selectivity sweep.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::kv);
}
