//! Interconnect traffic (§VII-A): PCIe and CPU-memory-bus bytes.

fn main() {
    morpheus_bench::reports::Evaluation::from_args().show(morpheus_bench::reports::traffic);
}
