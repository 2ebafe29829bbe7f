//! The Table-I benchmark suite.
//!
//! Ten applications mirroring the paper's selection: two BigDataBench-style
//! MPI applications, six Rodinia-style CUDA applications, and SpMV — all
//! with text-based integer-dominated inputs (SpMV's values are floats,
//! which is exactly why it is the paper's outlier in Fig. 8).
//!
//! Every benchmark is *functionally real*: a seeded generator produces the
//! text input, the platform under test deserializes it (conventionally or
//! through a StorageApp), and a real Rust kernel (PageRank, BFS, Gaussian
//! elimination, k-means, LU decomposition, k-NN, SpMV, sorting, word
//! count) consumes the resulting objects and produces a digest that must
//! agree across all execution modes.
//!
//! The OCR of Table I lost the two BigDataBench application names; we chose
//! PageRank and Sort, the suite's canonical integer-text MPI members
//! (documented in DESIGN.md).
//!
//! # Example
//!
//! ```
//! use morpheus::{System, SystemParams};
//! use morpheus_workloads::{stage_input, suite, AppRuns};
//!
//! let mut sys = System::new(SystemParams::paper_testbed());
//! let bench = &suite()[0]; // PageRank
//! stage_input(&mut sys, bench, 64 * 1024, 42).unwrap();
//! let runs = AppRuns::run(&mut sys, bench, false).unwrap();
//! assert!(runs.p2p.is_none() && runs.deser_speedup() > 0.0);
//! ```

#![warn(missing_docs)]

mod digest;
mod gen;
mod kernels;
mod paper;
mod suite;

pub use digest::Digest;
pub use gen::{edge_list_text, int_list_text, matrix_text, points_text, sparse_coo_text};
pub use kernels::{graph, kmeans, matrix, nn, scan, sort, spmv, KernelResult};
pub use paper::{AppRuns, Scorecard, SuiteRun};
pub use suite::{run_benchmark, stage_input, suite, BenchError, BenchOutcome, Benchmark, Suite};
