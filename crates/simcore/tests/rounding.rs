//! `round_u64` is `x.round() as u64`, input by input.
//!
//! The helper truncates, then steps up when the dropped part is at least
//! one half. These checks aim at the inputs where that could go wrong:
//! exact halves (which `round` sends away from zero), the largest value
//! below one half, [2^52, 2^53) where every double is whole, whole numbers
//! up to and past `u64::MAX` (where the step up must saturate as the cast
//! does), subnormals and signed zeros, then a million random bit patterns
//! and a million random magnitudes.

use morpheus_simcore::{round_u64, SplitMix64};

fn check(x: f64) {
    assert_eq!(
        round_u64(x),
        x.round() as u64,
        "{x:e} (bits {:#018x})",
        x.to_bits()
    );
}

const TWO_52: f64 = 4_503_599_627_370_496.0;

#[test]
fn exact_halves_round_away_from_zero() {
    for k in 0..100_000u64 {
        check(k as f64 + 0.5);
    }
    // Halves next to every power of two below 2^52, where the whole part
    // gains a bit.
    for e in 0..52 {
        let p = 1u64 << e;
        for k in p.saturating_sub(2)..=p + 2 {
            check(k as f64 + 0.5);
        }
    }
    // k + 0.5 is exact for every k below 2^52.
    let mut rng = SplitMix64::new(0x4a1f);
    for _ in 0..1_000_000 {
        check(rng.next_below(1 << 52) as f64 + 0.5);
    }
    check(TWO_52 - 0.5);
    assert_eq!(round_u64(2.5), 3);
    assert_eq!(round_u64(0.5), 1);
    // The largest double below one half rounds down; adding one half to it
    // first would round up.
    let below_half = 0.499_999_999_999_999_94;
    assert_eq!(below_half, f64::from_bits(0.5f64.to_bits() - 1));
    check(below_half);
    assert_eq!(round_u64(below_half), 0);
}

#[test]
fn large_values_are_whole_and_saturate() {
    // From 2^52 up every double is a whole number.
    let mut rng = SplitMix64::new(0x52_53);
    for _ in 0..100_000 {
        let x = TWO_52 + rng.next_below(1 << 52) as f64;
        assert!((TWO_52..2.0 * TWO_52).contains(&x) && x.fract() == 0.0);
        check(x);
    }
    let two_63 = 9_223_372_036_854_775_808.0;
    let two_64 = 2.0 * two_63;
    for x in [
        TWO_52,
        2.0 * TWO_52 - 1.0,
        2.0 * TWO_52,
        two_63,
        two_63 + 2048.0,
        f64::from_bits(two_64.to_bits() - 1),
    ] {
        check(x);
    }
    // u64::MAX is not a double: 2^64 and everything above saturate.
    for x in [two_64, two_64 + 4096.0, 2.0 * two_64, 1e30, f64::MAX] {
        check(x);
        assert_eq!(round_u64(x), u64::MAX, "{x:e}");
    }
}

#[test]
fn subnormals_and_signed_zeros_round_to_zero() {
    let tiny = [
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
    ];
    for x in tiny {
        check(x);
        assert_eq!(round_u64(x), 0);
    }
}

#[test]
fn random_bit_patterns_agree() {
    let mut rng = SplitMix64::new(42);
    let mut checked = 0;
    while checked < 1_000_000 {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() && x >= 0.0 {
            check(x);
            checked += 1;
        }
    }
}

#[test]
fn random_magnitudes_agree() {
    // Uniform bit patterns rarely land where fractions exist; here every
    // binade from 2^-2 to 2^66 is drawn equally often.
    let mut rng = SplitMix64::new(7);
    for _ in 0..1_000_000 {
        let exponent = 1021 + rng.next_below(69);
        let bits = exponent << 52 | rng.next_u64() >> 12;
        check(f64::from_bits(bits));
    }
}

#[test]
fn negative_and_non_finite_inputs_match_the_cast_too() {
    for x in [
        -0.4,
        -0.5,
        -2.5,
        -1e30,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NAN,
    ] {
        check(x);
    }
    let mut rng = SplitMix64::new(1234);
    for _ in 0..100_000 {
        check(f64::from_bits(rng.next_u64()));
    }
}
