//! FIFO resource timelines and bandwidth helpers.

use crate::{SimDuration, SimTime};

/// A data rate used to convert byte counts into service time.
///
/// # Example
///
/// ```
/// use morpheus_simcore::Bandwidth;
///
/// let bw = Bandwidth::from_gb_per_s(1.0);
/// assert_eq!(bw.duration_for(1_000_000_000).as_secs_f64(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not finite and positive.
    pub fn from_bytes_per_s(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be finite and positive, got {bytes_per_sec}"
        );
        Bandwidth { bytes_per_sec }
    }

    /// Creates a bandwidth from megabytes (1e6 bytes) per second.
    pub fn from_mb_per_s(mb: f64) -> Self {
        Self::from_bytes_per_s(mb * 1e6)
    }

    /// Creates a bandwidth from gigabytes (1e9 bytes) per second.
    pub fn from_gb_per_s(gb: f64) -> Self {
        Self::from_bytes_per_s(gb * 1e9)
    }

    /// The rate in bytes per second.
    pub fn bytes_per_s(self) -> f64 {
        self.bytes_per_sec
    }

    /// The rate in megabytes per second.
    pub fn mb_per_s(self) -> f64 {
        self.bytes_per_sec / 1e6
    }

    /// Time needed to move `bytes` at this rate.
    pub fn duration_for(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Scales the bandwidth by a factor (e.g. protocol efficiency).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(self, factor: f64) -> Bandwidth {
        Self::from_bytes_per_s(self.bytes_per_sec * factor)
    }
}

/// A granted occupation of one unit of a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// When service began.
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
    /// Which unit of the resource served the request.
    pub unit: usize,
}

impl Interval {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// A hardware resource that serves requests in FIFO order.
///
/// A timeline has one or more interchangeable *units* (e.g. four embedded
/// cores, eight flash channels treated as a pool). Each [`acquire`] request
/// is assigned to the unit that frees up earliest; the request starts no
/// earlier than its `ready` time and no earlier than the unit is free.
///
/// The timeline records total busy time and the number of grants; the
/// granted [`Interval`] is returned to the caller and not kept.
///
/// [`acquire`]: Timeline::acquire
#[derive(Debug, Clone)]
pub struct Timeline {
    name: String,
    next_free: Vec<SimTime>,
    /// Earliest-free-unit index: one `(free_at, unit)` entry per unit,
    /// kept in lock-step with `next_free` (each grant pops the minimum and
    /// pushes the unit back with its new free time). Ordered by
    /// `(free_at, unit)`, so ties go to the lowest unit index — the same
    /// grant order the linear minimum scan produced. Empty (unused) for
    /// single-unit timelines, which short-circuit to unit 0.
    free_heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
    busy: SimDuration,
    grants: u64,
}

impl Timeline {
    /// Creates a resource with `units` interchangeable service units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn new(name: impl Into<String>, units: usize) -> Self {
        assert!(units > 0, "a timeline needs at least one unit");
        Timeline {
            name: name.into(),
            next_free: vec![SimTime::ZERO; units],
            free_heap: Self::fresh_heap(units),
            busy: SimDuration::ZERO,
            grants: 0,
        }
    }

    fn fresh_heap(
        units: usize,
    ) -> std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>> {
        if units == 1 {
            return std::collections::BinaryHeap::new();
        }
        (0..units)
            .map(|i| std::cmp::Reverse((SimTime::ZERO, i)))
            .collect()
    }

    /// The resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of service units.
    pub fn units(&self) -> usize {
        self.next_free.len()
    }

    /// Requests `service` time on the earliest-free unit, starting no
    /// earlier than `ready`. Zero-length requests are granted instantly at
    /// `ready` without occupying a unit (they count neither as busy time
    /// nor as a grant).
    pub fn acquire(&mut self, ready: SimTime, service: SimDuration) -> Interval {
        if service.is_zero() {
            return Interval {
                start: ready,
                end: ready,
                unit: 0,
            };
        }
        let unit = if self.next_free.len() == 1 {
            0
        } else {
            let std::cmp::Reverse((free_at, unit)) = self
                .free_heap
                .pop()
                .expect("timeline has at least one unit");
            debug_assert_eq!(free_at, self.next_free[unit], "free-heap out of sync");
            unit
        };
        let start = ready.max(self.next_free[unit]);
        let end = start + service;
        self.next_free[unit] = end;
        if self.next_free.len() > 1 {
            self.free_heap.push(std::cmp::Reverse((end, unit)));
        }
        self.busy += service;
        self.grants += 1;
        Interval { start, end, unit }
    }

    /// Requests a transfer of `bytes` at rate `bw`.
    pub fn acquire_bytes(&mut self, ready: SimTime, bytes: u64, bw: Bandwidth) -> Interval {
        self.acquire(ready, bw.duration_for(bytes))
    }

    /// Total busy time summed over all units.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Number of grants served.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// The latest time at which any unit frees up.
    pub fn horizon(&self) -> SimTime {
        self.next_free
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Utilization of the resource over `[0, end]` (1.0 = all units busy).
    ///
    /// Returns 0.0 for an empty window.
    pub fn utilization(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / (end.as_secs_f64() * self.units() as f64)
    }

    /// Clears all state back to time zero, keeping configuration.
    pub fn reset(&mut self) {
        self.next_free.fill(SimTime::ZERO);
        self.free_heap = Self::fresh_heap(self.next_free.len());
        self.busy = SimDuration::ZERO;
        self.grants = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn single_unit_serializes_requests() {
        let mut t = Timeline::new("r", 1);
        let a = t.acquire(at(0), ns(10));
        let b = t.acquire(at(0), ns(5));
        assert_eq!(a.start, at(0));
        assert_eq!(a.end, at(10));
        assert_eq!(b.start, at(10));
        assert_eq!(b.end, at(15));
        assert_eq!(t.busy(), ns(15));
        assert_eq!(t.grants(), 2);
    }

    #[test]
    fn multi_unit_runs_in_parallel() {
        let mut t = Timeline::new("r", 2);
        let a = t.acquire(at(0), ns(10));
        let b = t.acquire(at(0), ns(10));
        let c = t.acquire(at(0), ns(10));
        assert_eq!(a.start, at(0));
        assert_eq!(b.start, at(0));
        assert_ne!(a.unit, b.unit);
        assert_eq!(c.start, at(10));
        assert_eq!(t.horizon(), at(20));
    }

    #[test]
    fn tied_units_grant_in_index_order() {
        // The heap must reproduce the linear scan's tie-break: among units
        // freeing at the same time, the lowest index wins.
        let mut t = Timeline::new("r", 4);
        for round in 0..3 {
            for want in 0..4 {
                let iv = t.acquire(at(0), ns(10));
                assert_eq!(iv.unit, want, "round {round}");
                assert_eq!(iv.start, at(round * 10));
            }
        }
    }

    #[test]
    fn ready_time_is_respected() {
        let mut t = Timeline::new("r", 1);
        let a = t.acquire(at(100), ns(10));
        assert_eq!(a.start, at(100));
        let b = t.acquire(at(0), ns(10));
        assert_eq!(b.start, at(110)); // FIFO: queued behind a
    }

    #[test]
    fn zero_service_is_instant_and_free() {
        let mut t = Timeline::new("r", 1);
        t.acquire(at(0), ns(10));
        let z = t.acquire(at(3), SimDuration::ZERO);
        assert_eq!(z.start, at(3));
        assert_eq!(z.end, at(3));
        assert_eq!(t.grants(), 1);
        assert_eq!(t.busy(), ns(10));
    }

    #[test]
    fn bandwidth_converts_bytes() {
        let bw = Bandwidth::from_mb_per_s(100.0);
        assert_eq!(bw.duration_for(100_000_000).as_secs_f64(), 1.0);
        assert!((bw.scaled(2.0).mb_per_s() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_counts_all_units() {
        let mut t = Timeline::new("r", 2);
        t.acquire(at(0), ns(10));
        assert!((t.utilization(at(10)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_time_zero() {
        let mut t = Timeline::new("r", 1);
        t.acquire(at(0), ns(10));
        t.reset();
        assert_eq!(t.busy(), SimDuration::ZERO);
        assert_eq!(t.acquire(at(0), ns(1)).start, at(0));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_rejected() {
        let _ = Timeline::new("r", 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite")]
    fn non_positive_bandwidth_rejected() {
        let _ = Bandwidth::from_bytes_per_s(0.0);
    }
}
