//! A small ordered metric bag used by reports throughout the workspace.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Named floating-point metrics with deterministic (sorted) iteration order.
///
/// A name is borrowed when it is `'static` (the telemetry columns) and
/// owned otherwise; either way it orders, compares and prints as the
/// `str` it holds.
///
/// # Example
///
/// ```
/// use morpheus_simcore::Metrics;
///
/// let mut m = Metrics::new();
/// m.add("bytes", 4096.0);
/// m.add("bytes", 4096.0);
/// assert_eq!(m.get("bytes"), 8192.0);
/// assert_eq!(m.get("missing"), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: BTreeMap<Cow<'static, str>, f64>,
}

impl Metrics {
    /// Creates an empty metric bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the named metric (creating it at zero first).
    pub fn add(&mut self, name: &str, v: f64) {
        match self.values.get_mut(name) {
            Some(x) => *x += v,
            None => {
                // `0.0 + v`, as adding to a fresh zero does: -0.0 reads 0.0.
                self.values.insert(Cow::Owned(name.to_string()), 0.0 + v);
            }
        }
    }

    /// Sets the named metric, replacing any previous value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(Cow::Owned(name.to_string()), v);
    }

    /// Reads a metric; missing metrics read as zero.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// True if the metric has been written.
    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Iterates metrics in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Merges another bag into this one, summing shared names.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Number of distinct metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no metric has been written.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

/// Builds a bag from `'static` names without allocating a key; a
/// repeated name keeps its last value, as [`Metrics::set`] would. The
/// pairs are gathered into one buffer, sized by the iterator's upper
/// bound, from which the map is built in bulk: names already in order
/// cost one comparison each.
impl FromIterator<(&'static str, f64)> for Metrics {
    fn from_iter<I: IntoIterator<Item = (&'static str, f64)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let (lower, upper) = iter.size_hint();
        let mut pairs = Vec::with_capacity(upper.unwrap_or(lower));
        pairs.extend(iter.map(|(k, v)| (Cow::Borrowed(k), v)));
        Metrics {
            values: pairs.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Metrics {
    type Item = (&'a Cow<'static, str>, &'a f64);
    type IntoIter = std::collections::btree_map::Iter<'a, Cow<'static, str>, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

/// A fixed log-2-bucket latency histogram.
///
/// Values land in bucket `ceil(log2(v))` (64 buckets plus one for zero), so
/// recording is branch-light and allocation-free; percentile queries return
/// the bucket's upper bound clamped to the observed maximum, giving at most
/// 2× relative error — plenty for spotting distribution shifts between runs.
///
/// # Example
///
/// ```
/// use morpheus_simcore::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [10, 20, 30, 40, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 1000);
/// assert!(h.p50() >= 20 && h.p50() <= 64);
/// assert_eq!(h.p99(), 1000);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    /// counts[0] holds zeros; counts[b] holds [2^(b-1), 2^b).
    counts: [u64; 65],
    count: u64,
    max: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 65],
            count: 0,
            max: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize;
        self.counts[bucket] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded value (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded values (saturating; zero when empty). Together
    /// with [`count`](Histogram::count) this is what a Prometheus
    /// histogram's `_sum`/`_count` series expose.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw bucket counts: `counts[0]` holds zeros and `counts[b]`
    /// holds values in `[2^(b-1), 2^b)`. Exposed for exposition-format
    /// exporters that need the full distribution.
    pub fn bucket_counts(&self) -> &[u64; 65] {
        &self.counts
    }

    /// The largest value bucket `b` can hold (the inclusive `le` upper
    /// bound of that bucket in exposition formats).
    pub const fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// The value at quantile `q` in `[0, 1]` (bucket upper bound, clamped
    /// to the observed maximum). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket b holds [2^(b-1), 2^b); report its largest value.
                let upper = if bucket >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bucket) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](Histogram::quantile) for precision).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Writes `p50/p95/p99/max/count` under `prefix` into a metric bag
    /// (no-op when empty, so untouched histograms leave reports unchanged).
    pub fn export(&self, prefix: &str, metrics: &mut Metrics) {
        if self.is_empty() {
            return;
        }
        metrics.set(&format!("{prefix}_p50"), self.p50() as f64);
        metrics.set(&format!("{prefix}_p95"), self.p95() as f64);
        metrics.set(&format!("{prefix}_p99"), self.p99() as f64);
        metrics.set(&format!("{prefix}_max"), self.max as f64);
        metrics.set(&format!("{prefix}_count"), self.count as f64);
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut m = Metrics::new();
        m.add("x", 1.5);
        m.add("x", 2.5);
        assert_eq!(m.get("x"), 4.0);
    }

    #[test]
    fn set_replaces() {
        let mut m = Metrics::new();
        m.add("x", 1.0);
        m.set("x", 9.0);
        assert_eq!(m.get("x"), 9.0);
    }

    #[test]
    fn merge_sums_shared_names() {
        let mut a = Metrics::new();
        a.add("x", 1.0);
        let mut b = Metrics::new();
        b.add("x", 2.0);
        b.add("y", 3.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.get("y"), 3.0);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Metrics::new();
        m.add("zeta", 1.0);
        m.add("alpha", 1.0);
        let names: Vec<_> = m.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn iteration_order_is_sorted_and_insertion_independent() {
        // Telemetry CSV column order is derived from this iteration, so it
        // must be lexicographic and stable regardless of write order.
        let forward = ["a", "b/c", "b_d", "cache_hits", "rps", "zz"];
        let mut reversed = forward;
        reversed.reverse();
        let fill = |names: &[&str]| {
            let mut m = Metrics::new();
            for (i, n) in names.iter().enumerate() {
                m.set(n, i as f64);
            }
            m.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>()
        };
        let a = fill(&forward);
        let b = fill(&reversed);
        assert_eq!(a, b, "iteration order must not depend on insertion order");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted, "iteration must be lexicographically sorted");
        // Overwrites and merges keep the order stable too.
        let mut m = Metrics::new();
        for n in reversed {
            m.set(n, 1.0);
        }
        let mut other = Metrics::new();
        other.set("b/c", 2.0);
        m.merge(&other);
        m.set("a", 9.0);
        let after: Vec<_> = m.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(after, sorted);
    }

    #[test]
    fn display_is_nonempty() {
        let mut m = Metrics::new();
        m.set("a", 1.0);
        assert_eq!(m.to_string(), "a: 1\n");
    }

    #[test]
    fn histogram_empty_reads_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        let mut m = Metrics::new();
        h.export("lat", &mut m);
        assert!(m.is_empty(), "empty histograms export nothing");
    }

    #[test]
    fn histogram_buckets_zero_and_powers() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), 0);
        // Median of {0, 1, 2} lands in the bucket holding 1.
        assert_eq!(h.p50(), 1);
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn histogram_percentiles_bound_by_max() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        // p50/p95 stay in the common bucket ([64,128) → upper bound 127).
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p95(), 127);
        assert_eq!(h.p99(), 127);
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.sum(), 1010);
    }

    #[test]
    fn histogram_sum_and_buckets_expose_distribution() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(3);
        assert_eq!(h.sum(), 4);
        let c = h.bucket_counts();
        assert_eq!(c[0], 1, "zeros land in bucket 0");
        assert_eq!(c[1], 1, "1 lands in [1,2)");
        assert_eq!(c[2], 1, "3 lands in [2,4)");
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
        // Saturating sum never wraps.
        let mut s = Histogram::new();
        s.record(u64::MAX);
        s.record(u64::MAX);
        assert_eq!(s.sum(), u64::MAX);
    }

    #[test]
    fn histogram_exports_prefixed_metrics() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        let mut m = Metrics::new();
        h.export("nvme_lat_ns", &mut m);
        assert_eq!(m.get("nvme_lat_ns_count"), 3.0);
        assert_eq!(m.get("nvme_lat_ns_max"), 30.0);
        assert!(m.contains("nvme_lat_ns_p50"));
        assert!(m.contains("nvme_lat_ns_p95"));
        assert!(m.contains("nvme_lat_ns_p99"));
    }
}
