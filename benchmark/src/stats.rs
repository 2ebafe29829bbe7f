//! Order statistics for run summaries, exact latency quantiles, and the
//! verdict rule `benchmark compare` applies to two ledgers.

use crate::catalog::{Better, Bound};

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The nearest-rank `q` quantile of exact samples: the smallest value with
/// at least a `q` share of the samples at or below it. Zero when empty.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What `benchmark compare` concludes for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the runs of a change against the runs of its base.
///
/// * Unresolved: the base's own spread (interquartile range) exceeds the
///   bound, unless every new run beats every base run.
/// * Regressed: the new median is worse than the base median by more than
///   the bound.
/// * Improved: the new run wins at least nine in ten of the pairs (base run
///   `i` against new run `i`; ties count for neither side) and the medians
///   differ by more than the base's interquartile range.
/// * Unchanged otherwise.
///
/// # Panics
///
/// Panics if either side has no runs.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: Bound) -> Verdict {
    let (bm, nm) = (median(base), median(new));
    let (q1, q3) = quartiles(base);
    let allowed = bound.allowed(bm);
    // Positive when `a` is better than `b`.
    let gain = |a: f64, b: f64| match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if q3 - q1 > allowed {
        let all_better = new.iter().all(|n| base.iter().all(|b| gain(*n, *b) > 0.0));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if -gain(nm, bm) > allowed {
        return Verdict::Regressed;
    }
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| gain(**n, **b) > 0.0)
        .count();
    if wins * 10 >= pairs * 9 && gain(nm, bm) > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(exact_quantile(&xs, 0.5), 500);
        assert_eq!(exact_quantile(&xs, 0.99), 990);
        assert_eq!(exact_quantile(&xs, 1.0), 1000);
        assert_eq!(exact_quantile(&xs, 0.0), 1);
        assert_eq!(exact_quantile(&[], 0.99), 0);
        assert_eq!(exact_quantile(&[42], 0.99), 42);
    }

    const TEN_PCT: Bound = Bound {
        rel: 0.10,
        abs: 0.0,
    };

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.02, 9.98, 10.0, 10.01, 9.99];
        assert_eq!(
            verdict(&base, &same, Better::Lower, TEN_PCT),
            Verdict::Unchanged
        );
        let slower = [11.5, 11.6, 11.4, 11.5, 11.7];
        assert_eq!(
            verdict(&base, &slower, Better::Lower, TEN_PCT),
            Verdict::Regressed
        );
        // The same numbers are a gain when higher is better.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, TEN_PCT),
            Verdict::Improved
        );
        let faster = [9.0, 9.1, 8.9, 9.0, 9.05];
        assert_eq!(
            verdict(&base, &faster, Better::Lower, TEN_PCT),
            Verdict::Improved
        );
        // A 5% slowdown is within a 10% bound.
        let bit_slower = [10.5, 10.6, 10.4, 10.5, 10.55];
        assert_eq!(
            verdict(&base, &bit_slower, Better::Lower, TEN_PCT),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        let similar = [9.5, 10.5, 10.0, 9.8, 10.2];
        assert_eq!(
            verdict(&noisy, &similar, Better::Lower, TEN_PCT),
            Verdict::Unresolved
        );
        let far_better = [5.0, 5.1, 4.9, 5.0, 5.2];
        assert_eq!(
            verdict(&noisy, &far_better, Better::Lower, TEN_PCT),
            Verdict::Improved
        );
    }

    #[test]
    fn one_loss_in_ten_still_improves_two_do_not() {
        let base = [10.0; 10];
        let mut new = [9.0; 10];
        new[0] = 10.0; // a tie counts for neither side
        assert_eq!(
            verdict(&base, &new, Better::Lower, TEN_PCT),
            Verdict::Improved
        );
        new[1] = 10.0;
        assert_eq!(
            verdict(&base, &new, Better::Lower, TEN_PCT),
            Verdict::Unchanged
        );
    }

    #[test]
    fn exact_metrics_with_a_zero_bound() {
        let knee = Bound { rel: 0.0, abs: 0.0 };
        let base = [1000.0; 5];
        assert_eq!(
            verdict(&base, &[1000.0; 5], Better::Higher, knee),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &[952.0; 5], Better::Higher, knee),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[1050.0; 5], Better::Higher, knee),
            Verdict::Improved
        );
        let pct_pt = Bound { rel: 0.0, abs: 0.1 };
        assert_eq!(
            verdict(&[9.6; 5], &[9.65; 5], Better::Lower, pct_pt),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[9.6; 5], &[9.8; 5], Better::Lower, pct_pt),
            Verdict::Regressed
        );
    }
}
