//! Every table and figure the paper's evaluation prints, as functions over
//! one [`Evaluation`]: each binary in `src/bin/` shows one of them, and
//! `run_all` shows all of them in one process, sharing one suite run.

use std::cell::OnceCell;
use std::error::Error;

use morpheus_simcore::render_error_chain;
use morpheus_workloads::{AppRuns, BenchError, SuiteRun};

use crate::{print_table, Harness};

mod ablate;
mod figures;
mod studies;

pub use ablate::{ablate, SWEEPS};
pub use figures::{fig10, fig11, fig12, fig2, fig3, fig8, fig9, table1, traffic};
pub use studies::{ext, kv, micro};

/// A report's failure, for the operator.
pub type ReportError = Box<dyn Error + Send + Sync>;

/// What a report returns.
pub type Shown = Result<(), ReportError>;

/// A report: prints one table or figure.
pub type Report = fn(&Evaluation) -> Shown;

/// Every report, in `run_all` order.
pub const ALL: [(&str, Report); 13] = [
    ("table1", table1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("traffic", traffic),
    ("micro", micro),
    ("ablate", |e| ablate(e, None)),
    ("ext", ext),
    ("kv", kv),
];

/// One invocation's reports and what they share: the harness flags, and
/// the paper's suite run, made by the first report that shows it.
pub struct Evaluation {
    /// The harness flags.
    pub harness: Harness,
    run: OnceCell<SuiteRun>,
}

impl Evaluation {
    /// An evaluation under `harness` that has run nothing yet.
    pub fn new(harness: Harness) -> Self {
        Evaluation {
            harness,
            run: OnceCell::new(),
        }
    }

    /// An evaluation under the process's harness flags (exit 2 on a bad
    /// command line).
    pub fn from_args() -> Self {
        Self::new(Harness::from_args())
    }

    /// Prints a suite figure's `title` and scale, then returns the suite
    /// run it shows ([`Harness::suite_run`]), made on first use.
    fn figure(&self, title: &str) -> Result<&SuiteRun, BenchError> {
        println!("{title} (scale 1/{})\n", self.harness.scale);
        if let Some(run) = self.run.get() {
            return Ok(run);
        }
        let run = self.harness.suite_run()?;
        Ok(self.run.get_or_init(|| run))
    }

    /// Prints `report`. A failed run prints `error:` and its cause chain to
    /// stderr, and exits 1.
    pub fn show(&self, report: impl FnOnce(&Evaluation) -> Shown) {
        if let Err(e) = report(self) {
            eprintln!("error: {}", render_error_chain(&*e));
            std::process::exit(1);
        }
    }
}

/// Prints one table row per app of `run` (its name, then `cells`), and a
/// blank line.
fn per_app(run: &SuiteRun, headers: &[&str], mut cells: impl FnMut(&AppRuns) -> Vec<String>) {
    let row = |a: &AppRuns| [vec![a.name.to_string()], cells(a)].concat();
    let rows: Vec<Vec<String>> = run.apps.iter().map(row).collect();
    print_table(headers, &rows);
    println!();
}
