//! Shows every table and figure in sequence (the full evaluation), in one
//! process: the reports that show the paper's suite run share one.
//!
//! Usage: `cargo run --release -p morpheus-bench --bin run_all -- --scale 256 --jobs 4`
//!
//! `--jobs N` fans each report's suite loop out over N threads while
//! keeping all printed output byte-identical to a sequential run.

use morpheus_bench::reports::{Evaluation, ALL};

fn main() {
    let e = Evaluation::from_args();
    for (name, report) in ALL {
        println!("\n==================== {name} ====================\n");
        e.show(report);
    }
}
