//! The `trace` binary's CLI contract: strict flag grammar (exit 2 on any
//! unknown flag or malformed value), valid Chrome-trace JSON covering all
//! six simulated layers, and byte-identical traces regardless of `--jobs`.

use std::path::PathBuf;
use std::process::{Command, Output};

use morpheus_simcore::{TraceLayer, TraceLog};

fn trace_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .env_remove("MORPHEUS_JOBS")
        .output()
        .expect("launch trace binary")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("morpheus-trace-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn bad_flags_exit_two_with_usage() {
    for bad in [
        vec!["--sacle", "64"],
        vec!["--app", "bfs", "--mode", "turbo"],
        vec!["--app", "bfs", "--summary-width", "abc"],
        vec!["--diff", "only-one.json"],
        vec!["--app"],
        vec![],
    ] {
        let out = trace_bin(&bad);
        assert_eq!(
            out.status.code(),
            Some(2),
            "trace {bad:?} should exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "trace {bad:?} stderr: {stderr}");
    }
}

#[test]
fn unknown_app_and_non_cuda_p2p_exit_two() {
    let out = trace_bin(&["--app", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown app"));

    // pagerank is MPI; P2P is a usage error, not a crash.
    let out = trace_bin(&["--app", "pagerank", "--mode", "morpheus+p2p"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("CUDA"));
}

#[test]
fn p2p_trace_covers_all_six_layers() {
    let path = tmp_path("p2p.json");
    let out = trace_bin(&[
        "--app",
        "bfs",
        "--mode",
        "morpheus+p2p",
        "--scale",
        "8192",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let log = TraceLog::from_chrome_json(&text).expect("exported JSON re-imports");
    assert!(!log.is_empty(), "trace is empty");
    assert_eq!(
        log.layers_present(),
        TraceLayer::ALL.to_vec(),
        "a morpheus+p2p run must touch every layer"
    );
}

#[test]
fn diff_of_identical_traces_is_all_zero() {
    let path = tmp_path("diff-self.json");
    let out = trace_bin(&[
        "--app",
        "sort",
        "--scale",
        "8192",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = trace_bin(&["--diff", path.to_str().unwrap(), path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TOTAL"), "diff table missing: {stdout}");
    assert!(
        !stdout.contains("new") && !stdout.contains("-100.0%"),
        "self-diff shows churn: {stdout}"
    );
}

#[test]
fn diff_of_a_malformed_trace_exits_one_with_an_error() {
    // 200,000 nested arrays, and a span whose times overflow u64
    // nanoseconds: each is an `error:` line and exit 1, never a crash.
    let ok = tmp_path("diff-ok.json");
    std::fs::write(&ok, "{\"traceEvents\":[]}").unwrap();
    let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let huge = "[{\"ph\":\"X\",\"cat\":\"host\",\"name\":\"s\",\"ts\":1e300,\"dur\":1e300}]";
    for (name, text, cause) in [
        ("diff-deep.json", deep.as_str(), "nest deeper"),
        ("diff-huge.json", huge, "has ts 1e300"),
    ] {
        let bad = tmp_path(name);
        std::fs::write(&bad, text).unwrap();
        let out = trace_bin(&["--diff", bad.to_str().unwrap(), ok.to_str().unwrap()]);
        std::fs::remove_file(&bad).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(cause),
            "{name}: {stderr}"
        );
    }
    std::fs::remove_file(&ok).ok();
}

#[test]
fn traces_are_byte_identical_across_jobs() {
    // One app per mode; `--jobs` may only change wall-clock time, never a
    // single simulated event.
    for (app, mode) in [
        ("sort", "conventional"),
        ("sort", "morpheus"),
        ("bfs", "morpheus+p2p"),
    ] {
        let p1 = tmp_path(&format!("{app}-{mode}-j1.json"));
        let p4 = tmp_path(&format!("{app}-{mode}-j4.json"));
        let mut outputs = Vec::new();
        for (jobs, path) in [("1", &p1), ("4", &p4)] {
            let out = trace_bin(&[
                "--app",
                app,
                "--mode",
                mode,
                "--scale",
                "8192",
                "--jobs",
                jobs,
                "--trace-out",
                path.to_str().unwrap(),
            ]);
            assert!(
                out.status.success(),
                "{app}/{mode} --jobs {jobs} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            // Drop the final "wrote ... to <path>" line: the paths differ
            // by construction, everything simulated must not.
            let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
            let filtered: String = stdout
                .lines()
                .filter(|l| !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n");
            outputs.push(filtered);
        }
        let (t1, t4) = (
            std::fs::read(&p1).expect("jobs=1 trace"),
            std::fs::read(&p4).expect("jobs=4 trace"),
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
        assert!(!t1.is_empty(), "{app}/{mode}: empty trace");
        assert_eq!(t1, t4, "{app}/{mode}: trace differs across --jobs");
        assert_eq!(
            outputs[0], outputs[1],
            "{app}/{mode}: stdout differs across --jobs"
        );
    }
}
