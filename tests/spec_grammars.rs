//! No spec grammar panics. Random strings, and near misses of valid specs,
//! go into every parser the serving CLIs use: each returns a value or an
//! error. Every fault plan the parser accepts must then complete a small
//! solo Morpheus run, with the fault-free objects or a typed error.

use morpheus::{
    AppSpec, CachePolicy, DeviceKill, Mode, PlacementPolicy, ServePolicy, System, SystemParams,
};
use morpheus_format::{FieldKind, Schema, TextWriter};
use morpheus_simcore::{parse_duration, FaultPlan, SloSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Pieces of every grammar, and numbers at and past their bounds.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "seed", "flash-corr", "flash-corr-retries", "flash-uncorr", "timeout", "timeout-us",
    "retries", "backoff-us", "stall", "stall-us", "crash", "pcie", "pcie-factor", "p", "p99",
    "avail", "rr", "round-robin", "hash", "capacity", "tinylfu", "lru", "shed", "fallback",
    "ns", "us", "ms", "s", "=", ",", "<", ">", "@", " ", ".", "-", "+", "e", "0", "1", "7",
    "0.5", "1.5", "63", "64", "99.9", "100", "1e6", "1000001", "3600000000", "3600000001",
    "4294967295", "4294967296", "18446744073709551615", "18446744073709551616", "1e300",
    "1e-300", "inf", "-inf", "nan", "-0", "0.0001", "é", "\t", "\u{0}",
];

/// One valid spelling per grammar, the seeds of the near misses.
const VALID: &[&str] = &[
    "seed=7,timeout=0.02,timeout-us=100,retries=4,backoff-us=50,pcie=0.05,pcie-factor=4",
    "seed=7,flash-corr=0.05,flash-corr-retries=3,flash-uncorr=1e-4,stall=0.1,stall-us=300",
    "p99<500us,avail>99.9",
    "1.5ms",
    "2@0.01",
    "round-robin",
    "tinylfu",
    "fallback",
];

/// Each fault key with values it accepts, bounds included.
const FAULT_KEYS: &[(&str, &[&str])] = &[
    ("seed", &["0", "7", "18446744073709551615"]),
    ("flash-corr", PROBABILITIES),
    ("flash-corr-retries", &["0", "3", "16"]),
    ("flash-uncorr", PROBABILITIES),
    ("timeout", PROBABILITIES),
    ("timeout-us", MICROS),
    ("retries", &["0", "4", "16"]),
    ("backoff-us", MICROS),
    ("stall", PROBABILITIES),
    ("stall-us", MICROS),
    ("crash", PROBABILITIES),
    ("pcie", PROBABILITIES),
    ("pcie-factor", &["1", "4", "1e6"]),
];
const PROBABILITIES: &[&str] = &["0", "0.05", "0.5", "1"];
const MICROS: &[&str] = &["0", "1", "300", "3600000000"];

/// Values past every bound, and malformed ones.
#[rustfmt::skip]
const BAD_VALUES: &[&str] = &[
    "17", "1000001", "3600000001", "4294967295", "4294967296", "18446744073709551615",
    "1e300", "inf", "nan", "-1", "1.5", "",
];

/// Specs that once parsed and then panicked, wrapped simulated time, or
/// ran without bound (the first panics a build without the bounds), and
/// the slowest plan the bounds accept.
const EDGE_SPECS: &[&str] = &[
    "pcie=1,pcie-factor=inf",
    "pcie=1,pcie-factor=1e300",
    "pcie=1,pcie-factor=nan",
    "stall=1,stall-us=18446744073709551615",
    "timeout=1,timeout-us=18446744073709551615",
    "timeout=1,backoff-us=18446744073709551615",
    "retries=4294967295,timeout=1",
    "retries=63,timeout=1",
    "timeout=1,retries=16,timeout-us=3600000000,backoff-us=3600000000,\
     stall=1,stall-us=3600000000,pcie=1,pcie-factor=1e6,flash-corr=1,flash-corr-retries=16",
];

/// Every parser gets `s`; none may panic.
fn parse_everything(s: &str) {
    let _ = FaultPlan::parse(s);
    let _ = SloSpec::parse(s);
    let _ = parse_duration(s);
    let _ = DeviceKill::parse(s);
    let _ = PlacementPolicy::parse(s);
    let _ = CachePolicy::parse(s);
    let _ = ServePolicy::parse(s);
}

/// A valid spec with one edit at `at`: the character there dropped or
/// replaced by a fragment, or the fragment inserted.
fn near_miss(valid: &str, at: usize, fragment: &str, edit: u8) -> String {
    let mut chars: Vec<char> = valid.chars().collect();
    let at = at % (chars.len() + 1);
    match edit {
        0 if at < chars.len() => {
            chars.remove(at);
        }
        1 if at < chars.len() => {
            chars.splice(at..=at, fragment.chars());
        }
        _ => {
            chars.splice(at..at, fragment.chars());
        }
    }
    chars.into_iter().collect()
}

const SPEC_INPUT: &str = "edges.txt";

/// A 16 KiB edge list, staged once.
fn input() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut w = TextWriter::new();
        let mut i = 0u64;
        while w.len() < 16 * 1024 {
            w.write_u64(i * 7 % 997);
            w.sep();
            w.write_u64(i * 13 % 997);
            w.newline();
            i += 1;
        }
        w.into_bytes()
    })
}

fn app() -> AppSpec {
    let schema = Schema::new(vec![FieldKind::U32, FieldKind::U32]);
    AppSpec::cpu_app("spec-grammar", SPEC_INPUT, schema, 2, 50.0)
}

fn staged() -> System {
    let mut sys = System::new(SystemParams::paper_testbed());
    sys.create_input_file(SPEC_INPUT, input())
        .expect("16 KiB fits the drive");
    sys
}

/// Runs `spec` if the parser accepts it: the solo Morpheus run must return
/// the fault-free objects or a typed error, and must not panic.
fn run_if_accepted(spec: &str) -> Result<(), TestCaseError> {
    let Ok(plan) = FaultPlan::parse(spec) else {
        return Ok(());
    };
    static CLEAN: OnceLock<morpheus_format::ParsedColumns> = OnceLock::new();
    let clean = CLEAN.get_or_init(|| {
        staged()
            .run(&app(), Mode::Morpheus)
            .expect("fault-free run")
            .objects
    });
    let mut sys = staged();
    sys.set_fault_plan(plan);
    if let Ok(out) = sys.run(&app(), Mode::Morpheus) {
        prop_assert!(out.objects == *clean, "{spec:?} changed the objects");
    }
    Ok(())
}

#[test]
fn edge_specs_are_parse_errors_or_clean_runs() {
    for spec in EDGE_SPECS {
        parse_everything(spec);
        run_if_accepted(spec).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strings built from every grammar's pieces parse or fail cleanly.
    #[test]
    fn random_specs_never_panic_a_parser(
        pieces in proptest::collection::vec(0..FRAGMENTS.len(), 0..10),
    ) {
        let s: String = pieces.iter().map(|&i| FRAGMENTS[i]).collect();
        parse_everything(&s);
    }

    /// One edit away from a valid spec, every parser still returns.
    #[test]
    fn near_misses_never_panic_a_parser(
        valid in 0..VALID.len(),
        at in 0usize..128,
        fragment in 0..FRAGMENTS.len(),
        edit in 0u8..3,
    ) {
        parse_everything(&near_miss(VALID[valid], at, FRAGMENTS[fragment], edit));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any accepted fault plan runs to objects or a typed error. One value
    /// in four is out of range, so most plans parse and some do not.
    #[test]
    fn accepted_fault_plans_run_cleanly(
        items in proptest::collection::vec(
            (0..FAULT_KEYS.len(), 0usize..16, 0u8..4),
            1..6,
        ),
    ) {
        let spec: Vec<String> = items
            .iter()
            .map(|&(k, v, bad)| {
                let (key, good) = FAULT_KEYS[k];
                let value = if bad == 0 {
                    BAD_VALUES[v % BAD_VALUES.len()]
                } else {
                    good[v % good.len()]
                };
                format!("{key}={value}")
            })
            .collect();
        run_if_accepted(&spec.join(","))?;
    }
}
