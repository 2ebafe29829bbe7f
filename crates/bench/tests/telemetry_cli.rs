//! CLI contract of the telemetry plane: strict flag grammar (exit 2 on
//! any unknown flag or malformed value) for the `telemetry` binary and
//! the `serve` binary's telemetry flags, Prometheus text-exposition
//! grammar through the CLI, and byte-identical output across repeats
//! and `--jobs` fan-outs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn telemetry_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_telemetry"))
        .args(args)
        .env_remove("MORPHEUS_JOBS")
        .output()
        .expect("launch telemetry binary")
}

fn serve_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .env_remove("MORPHEUS_JOBS")
        .output()
        .expect("launch serve binary")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "morpheus-telemetry-test-{}-{name}",
        std::process::id()
    ));
    p
}

/// A small, fast cell exercised by most tests below.
const QUICK: &[&str] = &["--rps", "2000", "--duration", "0.02", "--bytes", "4096"];

#[test]
fn telemetry_bad_flags_exit_two_with_usage() {
    // The shared serving rows are covered by `serve_args_cli.rs`.
    for bad in [
        vec!["--window", "0ms"],
        vec!["--window", "soon"],
        vec!["--window"],
        vec!["--format", "json"],
        vec!["--mode", "all"],
        vec!["--rps", "100,200"],
        vec!["--jobs", "4"],
    ] {
        let out = telemetry_bin(&bad);
        assert_eq!(
            out.status.code(),
            Some(2),
            "telemetry {bad:?} should exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:"),
            "telemetry {bad:?} stderr: {stderr}"
        );
    }
}

#[test]
fn serve_telemetry_flags_exit_two_when_misused() {
    for bad in [
        vec!["--telemetry-window", "0ms"],
        vec!["--telemetry-window", "whenever"],
        vec!["--telemetry-window"],
        vec!["--slo", "avail>99.9"],      // requires --telemetry-window
        vec!["--telemetry-out", "t.csv"], // requires --telemetry-window
        vec!["--prom-out", "t.prom"],     // requires --telemetry-window
        vec!["--telemetry-window", "10ms", "--slo", "p101<5us"],
        // --prom-out over a multi-cell sweep: one exposition per metric.
        vec!["--telemetry-window", "10ms", "--prom-out", "t.prom"],
    ] {
        let out = serve_bin(&bad);
        assert_eq!(
            out.status.code(),
            Some(2),
            "serve {bad:?} should exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "serve {bad:?} stderr: {stderr}");
    }
}

#[test]
fn text_mode_renders_sparklines_and_slo_verdicts() {
    let mut args = QUICK.to_vec();
    args.extend_from_slice(&["--slo", "p99<500us,avail>99.9"]);
    let out = telemetry_bin(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("telemetry windows="), "{stdout}");
    assert!(stdout.contains("rps"), "{stdout}");
    assert!(
        stdout.contains("slo p99<500us") && stdout.contains("slo avail>99.9"),
        "one verdict line per objective: {stdout}"
    );
    assert!(
        stdout.contains("MET") || stdout.contains("VIOLATED"),
        "verdicts rendered: {stdout}"
    );
}

#[test]
fn prometheus_exposition_is_well_formed_through_the_cli() {
    let mut args = QUICK.to_vec();
    args.extend_from_slice(&["--format", "prom", "--slo", "avail>99.9"]);
    let out = telemetry_bin(&args);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    // Every metric family is announced before its samples.
    let mut seen_help = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap().to_string();
            assert!(seen_help.insert(name), "duplicate HELP: {line}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap();
            assert!(
                seen_help.contains(name),
                "TYPE before HELP for {name}: {line}"
            );
            let kind = it.next().unwrap();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind}"
            );
        } else if !line.is_empty() {
            // Sample lines: name{labels} value [timestamp]
            let name_end = line.find(['{', ' ']).unwrap();
            assert!(
                line[..name_end]
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line}"
            );
        }
    }
    // Counters carry the _total suffix; histograms end cumulatively +Inf.
    assert!(text.contains("morpheus_offered_total"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    // Histogram buckets are cumulative: +Inf equals _count.
    let count_line = text
        .lines()
        .find(|l| l.starts_with("morpheus_e2e_ns_count"))
        .expect("histogram _count");
    let count_val = count_line.split_whitespace().last().unwrap();
    let inf_line = text
        .lines()
        .rfind(|l| l.starts_with("morpheus_e2e_ns_bucket") && l.contains("le=\"+Inf\""))
        .expect("+Inf bucket");
    assert_eq!(inf_line.split_whitespace().last().unwrap(), count_val);
    // SLO series carry the objective as a label.
    assert!(text.contains("slo=\"avail>99.9\""), "{text}");
}

#[test]
fn telemetry_output_is_byte_identical_across_repeats() {
    for format in ["text", "csv", "prom"] {
        let mut args = QUICK.to_vec();
        args.extend_from_slice(&[
            "--format",
            format,
            "--slo",
            "p99<500us,avail>99.9",
            "--skew",
            "1.1",
            "--cache-mb",
            "64",
            "--faults",
            "seed=9,crash=0.05,stall=0.05,timeout=0.02",
            "--seed",
            "7",
        ]);
        let a = telemetry_bin(&args);
        let b = telemetry_bin(&args);
        assert!(a.status.success() && b.status.success());
        assert!(!a.stdout.is_empty());
        assert_eq!(a.stdout, b.stdout, "--format {format} not deterministic");
    }
}

#[test]
fn serve_telemetry_artifacts_are_byte_identical_across_jobs() {
    let run = |jobs: &str, tag: &str| -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let csv = tmp_path(&format!("sweep-{tag}.csv"));
        let out = serve_bin(&[
            "--mode",
            "morpheus",
            "--rps",
            "1000,4000",
            "--duration",
            "0.02",
            "--bytes",
            "4096",
            "--skew",
            "1.1",
            "--telemetry-window",
            "10ms",
            "--slo",
            "p99<500us,avail>99.9",
            "--telemetry-out",
            csv.to_str().unwrap(),
            "--faults",
            "seed=9,crash=0.05,stall=0.05,timeout=0.02",
            "--seed",
            "7",
            "--jobs",
            jobs,
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let data = std::fs::read(&csv).expect("telemetry CSV written");
        std::fs::remove_file(&csv).ok();
        // Drop the "wrote ..." path lines: the paths differ by tag.
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let filtered: String = stdout
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n");
        (filtered.into_bytes(), data, out.stderr)
    };
    let (s1, c1, _) = run("1", "j1");
    let (s4, c4, _) = run("4", "j4");
    assert!(!c1.is_empty(), "telemetry CSV is empty");
    assert_eq!(c1, c4, "telemetry CSV differs across --jobs");
    assert_eq!(s1, s4, "serve stdout differs across --jobs");
    // The sweep CSV has one header block per cell, prefixed with the
    // cell's coordinates.
    let text = String::from_utf8(c1).unwrap();
    assert_eq!(
        text.lines()
            .filter(|l| l.starts_with("mode,target_rps,window,start_ms"))
            .count(),
        2,
        "one header per cell: {text}"
    );
    assert!(text.contains("morpheus,1000,"), "{text}");
    assert!(text.contains("morpheus,4000,"), "{text}");
}

#[test]
fn serve_with_telemetry_off_matches_historical_output() {
    // The zero-cost contract at the CLI boundary: not passing any
    // telemetry flag must produce output with no telemetry artifacts.
    let out = serve_bin(&[
        "--mode",
        "morpheus",
        "--rps",
        "1000",
        "--duration",
        "0.02",
        "--bytes",
        "4096",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("telemetry"),
        "telemetry leaked into a disabled run: {stdout}"
    );
}

#[test]
fn fault_plan_error_budget_is_pinned() {
    // The seeded fault plan burns a deterministic amount of error budget;
    // CI asserts this exact value, so a drift in the serving plane, the
    // fault engine, or the SLO math shows up as a diff here first.
    let mut args = QUICK.to_vec();
    args.extend_from_slice(&[
        "--slo",
        "avail>99",
        "--policy",
        "shed",
        "--depth",
        "8",
        "--faults",
        "seed=9,crash=0.2,stall=0.1",
        "--seed",
        "7",
    ]);
    let a = telemetry_bin(&args);
    assert!(a.status.success());
    let text = String::from_utf8(a.stdout).unwrap();
    let budget_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("slo avail>99"))
        .expect("availability verdict line")
        .to_string();
    let b = telemetry_bin(&args);
    assert_eq!(
        text,
        String::from_utf8(b.stdout).unwrap(),
        "budget line must be reproducible: {budget_line}"
    );
}
