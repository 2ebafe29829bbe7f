//! CLI contract of the telemetry plane through `serve`: strict grammar
//! for the telemetry flags (exit 2 on misuse), the sparkline and SLO
//! verdict text, Prometheus text-exposition grammar via `--prom-out`, and
//! byte-identical text, CSV and Prometheus output across repeats and
//! `--jobs` fan-outs.

use std::path::PathBuf;
use std::process::{Command, Output};

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

/// A small, fast sampled cell exercised by most tests below.
const QUICK: &[&str] = &[
    "--mode",
    "morpheus",
    "--rps",
    "2000",
    "--duration",
    "0.02",
    "--bytes",
    "4096",
    "--telemetry-window",
    "10ms",
];

/// Runs `serve` on `args`, asserting success, and returns its stdout.
fn serve_ok(args: &[&str]) -> String {
    let out = serve_bin(args);
    assert!(
        out.status.success(),
        "serve {args:?} failed, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8")
}

/// Runs `serve` with `flag <tmp file>` appended and returns the file.
fn serve_file(args: &[&str], flag: &str, tag: &str) -> String {
    let path = tmp_path(tag);
    let mut argv = args.to_vec();
    argv.extend_from_slice(&[flag, path.to_str().unwrap()]);
    serve_ok(&argv);
    let text = std::fs::read_to_string(&path).expect("output file written");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn serve_telemetry_flags_exit_two_when_misused() {
    for bad in [
        vec!["--telemetry-window", "0ms"],
        vec!["--telemetry-window", "0.4ns"],
        vec!["--telemetry-window", "whenever"],
        vec!["--telemetry-window"],
        vec!["--slo", "avail>99.9"],      // requires --telemetry-window
        vec!["--telemetry-out", "t.csv"], // requires --telemetry-window
        vec!["--prom-out", "t.prom"],     // requires --telemetry-window
        vec!["--telemetry-window", "10ms", "--slo", "p101<5us"],
        vec!["--telemetry-window", "10ms", "--slo", "p99<0.3ns"],
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
    let stdout = serve_ok(&args);
    assert!(
        stdout.contains("telemetry (morpheus @ 2000 rps):\ntelemetry windows="),
        "{stdout}"
    );
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
    args.extend_from_slice(&["--slo", "avail>99.9"]);
    let text = serve_file(&args, "--prom-out", "grammar.prom");
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
    let mut args = QUICK.to_vec();
    args.extend_from_slice(&[
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
    let text = serve_ok(&args);
    assert!(text.contains("telemetry windows="), "{text}");
    assert_eq!(text, serve_ok(&args), "text output not deterministic");
    for (flag, tag) in [("--telemetry-out", "csv"), ("--prom-out", "prom")] {
        let a = serve_file(&args, flag, &format!("repeat-a.{tag}"));
        let b = serve_file(&args, flag, &format!("repeat-b.{tag}"));
        assert!(!a.is_empty(), "{flag} wrote nothing");
        assert_eq!(a, b, "{flag} output not deterministic");
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
    // CI's pinned invocation: the seeded fault plan burns a known error
    // budget (window-0 cache warm-up p99 excursion, one burn-rate alert)
    // and the availability objective stays green, so a drift in the
    // serving plane, the fault engine, or the SLO math shows up here.
    let args = [
        "--mode",
        "morpheus",
        "--rps",
        "4000",
        "--telemetry-window",
        "10ms",
        "--duration",
        "0.05",
        "--skew",
        "1.1",
        "--cache-mb",
        "64",
        "--slo",
        "p99<500us,avail>99.9",
        "--faults",
        "seed=9,crash=0.05,stall=0.05,timeout=0.02",
        "--seed",
        "7",
    ];
    let text = serve_ok(&args);
    for pinned in [
        "slo p99<500us        good=167 bad=14 budget=-6.734807 alerts=1",
        "slo avail>99.9       good=181 bad=0 budget=1 alerts=0",
    ] {
        assert!(
            text.lines().any(|l| l.trim_start().starts_with(pinned)),
            "missing {pinned:?} in {text}"
        );
    }
    assert_eq!(text, serve_ok(&args), "the verdict must be reproducible");
}

#[test]
fn an_engaged_fleet_of_one_prints_one_labelled_block() {
    // A kill schedule engages the fleet even on one device: its one
    // telemetry block carries the device label, and the aggregate (which
    // is that device's report) does not print it a second time.
    let stdout = serve_ok(&[
        "--mode",
        "morpheus",
        "--rps",
        "3000",
        "--duration",
        "0.03",
        "--devices",
        "1",
        "--kill-device",
        "0@0.05",
        "--telemetry-window",
        "10ms",
        "--slo",
        "p99<500ms",
    ]);
    assert_eq!(stdout.matches("telemetry (").count(), 1, "{stdout}");
    assert!(
        stdout.contains("telemetry (morpheus @ 3000 rps, dev0):\n"),
        "{stdout}"
    );
}
