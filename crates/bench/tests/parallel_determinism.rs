//! The parallel suite driver's contract: `--jobs N` must not change a
//! single output byte, only wall-clock time. These tests run the real
//! figure binaries sequentially and fanned out, and compare entire stdout
//! captures. The command-line rows at the end pin how the binaries fail:
//! a bad line exits 2, a failed run exits 1 with its rendered cause.

use std::process::{Command, Output};

fn run(bin: &str, extra: &[&str]) -> Output {
    let out = Command::new(bin)
        .args(["--scale", "8192", "--seed", "42"])
        .args(extra)
        .env_remove("MORPHEUS_JOBS")
        .output()
        .expect("launch figure binary");
    assert!(
        out.status.success(),
        "{bin} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn assert_jobs_invariant(bin: &str) {
    let seq = run(bin, &["--jobs", "1"]);
    let par = run(bin, &["--jobs", "4"]);
    assert!(
        seq.stdout == par.stdout,
        "{bin}: parallel stdout differs from sequential\n--- jobs=1 ---\n{}\n--- jobs=4 ---\n{}",
        String::from_utf8_lossy(&seq.stdout),
        String::from_utf8_lossy(&par.stdout)
    );
    assert!(!seq.stdout.is_empty(), "{bin} printed nothing");
}

#[test]
fn fig2_output_is_jobs_invariant() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_fig2"));
}

#[test]
fn fig8_output_is_jobs_invariant() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_fig8"));
}

#[test]
fn table1_output_is_jobs_invariant() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn env_var_sets_default_jobs() {
    // MORPHEUS_JOBS is the deploy-side knob: same output, no flag needed.
    let seq = run(env!("CARGO_BIN_EXE_table1"), &["--jobs", "1"]);
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--scale", "8192", "--seed", "42"])
        .env("MORPHEUS_JOBS", "4")
        .output()
        .expect("launch table1");
    assert!(out.status.success());
    assert_eq!(seq.stdout, out.stdout);
}

#[test]
fn unknown_flag_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig2"))
        .args(["--sacle", "8192"])
        .output()
        .expect("launch fig2");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "stderr: {err}");
}

#[test]
fn failed_runs_are_errors_not_panics() {
    // A lost NVMe command with no reissue budget fails the first run. The
    // suite reports, `ablate` and `ext` must each name the app and mode and
    // exit 1, which needs the fault plan armed on every system they build.
    let faults = ["--scale", "8192", "--faults", "seed=1,timeout=1,retries=0"];
    for (bin, extra) in [
        (env!("CARGO_BIN_EXE_fig8"), &[][..]),
        (env!("CARGO_BIN_EXE_ablate"), &["--sweep", "cores"][..]),
        (env!("CARGO_BIN_EXE_ext"), &[][..]),
    ] {
        let out = Command::new(bin)
            .args(faults)
            .args(extra)
            .output()
            .expect("launch binary");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {err}");
        assert!(
            err.contains("error: ") && err.contains("(conventional)"),
            "{bin}: {err}"
        );
        assert!(!err.contains("panicked"), "{bin}: {err}");
    }
}

#[test]
fn ablate_rejects_unknown_and_missing_sweeps() {
    for args in [&["--sweep", "nosuch"][..], &["--sweep"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ablate"))
            .args(args)
            .output()
            .expect("launch ablate");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "ablate {args:?}: {err}");
        assert!(err.contains("usage:"), "ablate {args:?}: {err}");
    }
}

#[test]
fn malformed_value_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig2"))
        .args(["--jobs", "zero"])
        .output()
        .expect("launch fig2");
    assert_eq!(out.status.code(), Some(2));
}
