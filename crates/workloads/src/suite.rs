//! The benchmark registry and driver (Table I).

use crate::kernels::{graph, kmeans, matrix, nn, scan, sort, spmv, KernelResult};
use crate::{edge_list_text, int_list_text, matrix_text, points_text, sparse_coo_text};
use morpheus::{AppSpec, Mode, RunError, RunReport, System};
use morpheus_format::{FieldKind, ParsedColumns, Schema};
use morpheus_ssd::SsdError;
use std::fmt;
use std::sync::Arc;

/// The benchmark suite an application came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// BigDataBench (MPI applications).
    BigDataBench,
    /// Rodinia (CUDA applications).
    Rodinia,
    /// Standalone (the paper's SpMV).
    Standalone,
}

/// One Table-I benchmark: generator, schema, cost model, and real kernel.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Application name.
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// Parallel model label as printed in Table I.
    pub parallel_label: &'static str,
    /// The paper's input size for this application.
    pub nominal_bytes: u64,
    schema_fn: fn() -> Schema,
    generate_fn: fn(u64, u64) -> Vec<u8>,
    spec_fn: fn() -> AppSpec,
    kernel_fn: fn(&ParsedColumns) -> KernelResult,
}

impl Benchmark {
    /// The staged input file's name.
    pub fn input_name(&self) -> String {
        format!("{}.txt", self.name)
    }

    /// The record schema of the input format.
    pub fn schema(&self) -> Schema {
        (self.schema_fn)()
    }

    /// Generates a seeded input of roughly `target_bytes`.
    pub fn generate(&self, target_bytes: u64, seed: u64) -> Vec<u8> {
        (self.generate_fn)(target_bytes, seed)
    }

    /// The application's execution spec (timing constants).
    pub fn spec(&self) -> AppSpec {
        (self.spec_fn)()
    }

    /// Runs the real kernel over deserialized objects.
    pub fn kernel(&self, objects: &ParsedColumns) -> KernelResult {
        (self.kernel_fn)(objects)
    }
}

fn edge_schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32])
}
fn int_schema() -> Schema {
    Schema::new(vec![FieldKind::U32])
}
fn matrix_schema() -> Schema {
    Schema::new(vec![FieldKind::I32])
}
fn points4_schema() -> Schema {
    Schema::new(vec![
        FieldKind::U32,
        FieldKind::I32,
        FieldKind::I32,
        FieldKind::I32,
        FieldKind::I32,
    ])
}
fn points2_schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::I32, FieldKind::I32])
}
fn coo_schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32, FieldKind::F64])
}

const MB: u64 = 1_000_000;

/// The ten Table-I benchmarks, in the paper's order.
///
/// The OCR of Table I lost the BigDataBench application names and one row;
/// PageRank (3.6 GB), Sort (62 MB), and WordCount are the suite's canonical
/// integer-text MPI members (see DESIGN.md).
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "pagerank",
            suite: Suite::BigDataBench,
            parallel_label: "MPI",
            nominal_bytes: 3_600 * MB,
            schema_fn: edge_schema,
            generate_fn: edge_list_text,
            spec_fn: || AppSpec::cpu_app("pagerank", "pagerank.txt", edge_schema(), 4, 1750.0),
            kernel_fn: |o| graph::pagerank(o, 10),
        },
        Benchmark {
            name: "wordcount",
            suite: Suite::BigDataBench,
            parallel_label: "MPI",
            nominal_bytes: 620 * MB,
            schema_fn: int_schema,
            generate_fn: |b, s| int_list_text(b, s, 100_000),
            spec_fn: || AppSpec::cpu_app("wordcount", "wordcount.txt", int_schema(), 4, 950.0),
            kernel_fn: scan::wordcount,
        },
        Benchmark {
            name: "sort",
            suite: Suite::BigDataBench,
            parallel_label: "MPI",
            nominal_bytes: 62 * MB,
            schema_fn: int_schema,
            generate_fn: |b, s| int_list_text(b, s, 1_000_000),
            spec_fn: || AppSpec::cpu_app("sort", "sort.txt", int_schema(), 4, 1150.0),
            kernel_fn: |o| sort::sort(o, "sort"),
        },
        Benchmark {
            name: "bfs",
            suite: Suite::Rodinia,
            parallel_label: "CUDA",
            nominal_bytes: 2_530 * MB,
            schema_fn: edge_schema,
            generate_fn: edge_list_text,
            spec_fn: || AppSpec::gpu_app("bfs", "bfs.txt", edge_schema(), 330_000.0, 64.0, 90.0),
            kernel_fn: graph::bfs,
        },
        Benchmark {
            name: "gaussian",
            suite: Suite::Rodinia,
            parallel_label: "CUDA",
            nominal_bytes: 1_560 * MB,
            schema_fn: matrix_schema,
            generate_fn: matrix_text,
            spec_fn: || {
                AppSpec::gpu_app(
                    "gaussian",
                    "gaussian.txt",
                    matrix_schema(),
                    120_000.0,
                    48.0,
                    40.0,
                )
            },
            kernel_fn: matrix::gaussian,
        },
        Benchmark {
            name: "hybridsort",
            suite: Suite::Rodinia,
            parallel_label: "CUDA",
            nominal_bytes: 3_140 * MB,
            schema_fn: int_schema,
            generate_fn: |b, s| int_list_text(b, s, 1_000_000_000),
            spec_fn: || {
                AppSpec::gpu_app(
                    "hybridsort",
                    "hybridsort.txt",
                    int_schema(),
                    270_000.0,
                    96.0,
                    60.0,
                )
            },
            kernel_fn: |o| sort::sort(o, "hybridsort"),
        },
        Benchmark {
            name: "kmeans",
            suite: Suite::Rodinia,
            parallel_label: "CUDA",
            nominal_bytes: 1_300 * MB,
            schema_fn: points4_schema,
            generate_fn: |b, s| points_text(b, s, 4),
            spec_fn: || {
                AppSpec::gpu_app(
                    "kmeans",
                    "kmeans.txt",
                    points4_schema(),
                    700_000.0,
                    160.0,
                    150.0,
                )
            },
            kernel_fn: |o| kmeans::kmeans(o, 8, 8),
        },
        Benchmark {
            name: "lud",
            suite: Suite::Rodinia,
            parallel_label: "CUDA",
            nominal_bytes: 2_420 * MB,
            schema_fn: matrix_schema,
            generate_fn: matrix_text,
            spec_fn: || AppSpec::gpu_app("lud", "lud.txt", matrix_schema(), 110_000.0, 48.0, 40.0),
            kernel_fn: matrix::lud,
        },
        Benchmark {
            name: "nn",
            suite: Suite::Rodinia,
            parallel_label: "CUDA",
            nominal_bytes: 1_640 * MB,
            schema_fn: points2_schema,
            generate_fn: |b, s| points_text(b, s, 2),
            spec_fn: || AppSpec::gpu_app("nn", "nn.txt", points2_schema(), 380_000.0, 32.0, 60.0),
            kernel_fn: |o| nn::nearest(o, 500.0, 500.0, 5),
        },
        Benchmark {
            name: "spmv",
            suite: Suite::Standalone,
            parallel_label: "N/A",
            nominal_bytes: 110 * MB,
            schema_fn: coo_schema,
            generate_fn: sparse_coo_text,
            spec_fn: || AppSpec::cpu_app("spmv", "spmv.txt", coo_schema(), 1, 1300.0),
            kernel_fn: spmv::spmv,
        },
    ]
}

/// A completed benchmark run: the platform report plus the real kernel's
/// output.
#[derive(Debug)]
pub struct BenchOutcome {
    /// Timing/power/traffic measurements.
    pub report: RunReport,
    /// The functional kernel's result.
    pub kernel: KernelResult,
}

/// Generates and stages a benchmark's input on the system's SSD. If the
/// file is already staged (same name), this is a no-op so several modes
/// can run over one staged input. The text comes from the system's
/// replay store when it has one
/// ([`ReplayStore::generated_input`](morpheus::ReplayStore::generated_input)),
/// so systems sharing a store format each input once.
///
/// # Errors
///
/// Propagates drive errors.
pub fn stage_input(
    sys: &mut System,
    bench: &Benchmark,
    target_bytes: u64,
    seed: u64,
) -> Result<(), SsdError> {
    if sys.fs.open(&bench.input_name()).is_ok() {
        return Ok(());
    }
    let generate = || bench.generate(target_bytes, seed);
    let data = match sys.replay_store() {
        Some(store) => store.generated_input(bench.name, target_bytes, seed, generate),
        None => Arc::new(generate()),
    };
    sys.create_input_file(&bench.input_name(), &data)
}

/// A failed run: the app, the mode, and the cause as its source.
#[derive(Debug)]
pub struct BenchError {
    /// Application name.
    pub app: &'static str,
    /// The mode whose run failed.
    pub mode: Mode,
    /// Why it failed.
    pub source: RunError,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.app, self.mode)
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Runs a staged benchmark under `mode`, then executes the real kernel on
/// the deserialized objects.
///
/// # Errors
///
/// The run's [`RunError`], with the app and the mode.
pub fn run_benchmark(
    sys: &mut System,
    bench: &Benchmark,
    mode: Mode,
) -> Result<BenchOutcome, BenchError> {
    let outcome = sys.run(&bench.spec(), mode).map_err(|source| BenchError {
        app: bench.name,
        mode,
        source,
    })?;
    let kernel = bench.kernel(&outcome.objects);
    Ok(BenchOutcome {
        report: outcome.report,
        kernel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus::SystemParams;

    #[test]
    fn suite_has_ten_apps_with_unique_names() {
        let s = suite();
        assert_eq!(s.len(), 10);
        let mut names: Vec<_> = s.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn table_one_shape() {
        let s = suite();
        assert_eq!(
            s.iter().filter(|b| b.suite == Suite::BigDataBench).count(),
            3
        );
        assert_eq!(s.iter().filter(|b| b.suite == Suite::Rodinia).count(), 6);
        for b in &s {
            assert!(b.nominal_bytes >= 62 * MB);
            let spec = b.spec();
            assert_eq!(spec.input, b.input_name());
        }
    }

    #[test]
    fn spmv_is_the_only_float_heavy_input() {
        for b in suite() {
            let frac = b.schema().float_fraction();
            if b.name == "spmv" {
                assert!(frac > 0.3);
            } else {
                assert_eq!(frac, 0.0, "{} should be integer-only", b.name);
            }
        }
    }

    #[test]
    fn every_benchmark_runs_and_agrees_across_modes() {
        let mut sys = System::new(SystemParams::paper_testbed());
        for bench in suite() {
            stage_input(&mut sys, &bench, 48 * 1024, 11).unwrap();
            let conv = run_benchmark(&mut sys, &bench, Mode::Conventional).unwrap();
            let morp = run_benchmark(&mut sys, &bench, Mode::Morpheus).unwrap();
            assert_eq!(
                conv.kernel, morp.kernel,
                "{}: kernel results diverge across modes",
                bench.name
            );
            assert_eq!(conv.report.checksum, morp.report.checksum, "{}", bench.name);
            assert!(conv.report.records > 0, "{}", bench.name);
        }
    }

    #[test]
    fn generated_inputs_parse_against_their_schemas() {
        for bench in suite() {
            let text = bench.generate(8 * 1024, 3);
            let (p, _) = morpheus_format::parse_buffer(&text, &bench.schema())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert!(p.records > 0, "{}", bench.name);
        }
    }
}
