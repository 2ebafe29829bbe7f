//! The shared serving grammar at the process boundary: a flag every
//! serving binary parses through `ServeArgs` or `offer_fleet` is rejected
//! the same way by each of them — exit 2, the error, then the usage text.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("MORPHEUS_JOBS")
        .output()
        .expect("launch binary")
}

/// Fleet/control rows: `serve` and `faults` both take this group, so
/// both must reject them.
const FLEET_ROWS: &[&[&str]] = &[
    &["--devices", "0"],
    &["--devices", "x"],
    &["--placement", "random"],
    &["--placement"],
    &["--kill-device", "2"],
    &["--kill-device", "2@-1"],
    &["--kill-device", "1@0.01"],
    &["--devices", "4", "--kill-device", "9@0.1"],
    &["--rolling-update", "-1"],
    &["--rolling-update", "inf"],
    &["--devices", "2", "--rolling-update", "1e300"],
    &["--heal", "--kill-device", "0@1e300"],
    &["--heal", "now"],
];

/// Cell-shape, cache and seed rows: the `ServeArgs` group `serve` takes.
const CELL_ROWS: &[&[&str]] = &[
    &["--rps", "0"],
    &["--rps", "1e300"],
    &["--mode", "turbo"],
    &["--duration", "-1"],
    &["--depth", "0"],
    &["--apps", "0"],
    &["--apps", "65535"],
    &["--skew", "-0.5"],
    &["--cache-mb", "17592186044416"],
    &["--cache-host-mb", "17592186044416"],
    &["--cache-policy", "arc"],
    &["--slo", "p99<"],
    &["--faults", "bogus"],
    &["--sacle", "64"],
];

fn assert_exit_two(bin: &str, name: &str, row: &[&str]) {
    let out = run(bin, row);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {row:?} should exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.starts_with("error: ") && stderr.contains("usage:"),
        "{name} {row:?} stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{name} {row:?} wrote stdout");
}

#[test]
fn every_serving_binary_rejects_the_shared_bad_rows() {
    let serve = env!("CARGO_BIN_EXE_serve");
    for (name, bin) in [("serve", serve), ("faults", env!("CARGO_BIN_EXE_faults"))] {
        for row in FLEET_ROWS {
            assert_exit_two(bin, name, row);
        }
    }
    for row in CELL_ROWS {
        assert_exit_two(serve, "serve", row);
    }
}

#[test]
fn out_of_range_kills_name_the_device_everywhere() {
    for bin in [env!("CARGO_BIN_EXE_serve"), env!("CARGO_BIN_EXE_faults")] {
        let out = run(bin, &["--devices", "4", "--kill-device", "9@0.1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: --kill-device names device 9 but --devices is 4\n"),
            "{bin}: {stderr}"
        );
    }
}
