//! Ablation benches for the design choices DESIGN.md calls out
//! (`morpheus_bench::reports::ablate`). `--sweep <name>` runs one sweep,
//! default all.

use morpheus_bench::reports::{ablate, Evaluation, SWEEPS};
use morpheus_bench::{exit_usage, parse_flags, value_of, Harness};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut h = Harness::from_env();
    let mut sweep = None;
    let parsed = parse_flags(&args, |flag, it| {
        if flag != "--sweep" {
            return h.offer(flag, it);
        }
        let v = value_of(flag, it)?;
        if !SWEEPS.contains(&v.as_str()) {
            return Err(format!("unknown sweep {v:?} (one of: {})", SWEEPS.join(", ")).into());
        }
        sweep = Some(v.clone());
        Ok(true)
    });
    if let Err(e) = parsed {
        exit_usage(&e, &format!("usage: {} [--sweep NAME]", Harness::USAGE));
    }
    Evaluation::new(h).show(|e| ablate(e, sweep.as_deref()));
}
