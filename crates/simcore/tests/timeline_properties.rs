//! Property tests for the simulation kernel: resource timelines never
//! double-book and serve a single unit first come, first served.

use morpheus_simcore::{SimDuration, SimTime, Timeline};
use proptest::prelude::*;

proptest! {
    /// For any request sequence on a recording timeline, granted intervals
    /// on the same unit never overlap, starts respect ready times, and
    /// total busy equals the sum of services.
    #[test]
    fn timeline_never_double_books(
        reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100),
        units in 1usize..5,
    ) {
        let mut t = Timeline::new("t", units).with_recording();
        let mut total = 0u64;
        for (ready, service) in &reqs {
            let iv = t.acquire(SimTime::from_nanos(*ready), SimDuration::from_nanos(*service));
            prop_assert!(iv.start >= SimTime::from_nanos(*ready));
            prop_assert_eq!(iv.end.duration_since(iv.start).as_nanos(), *service);
            total += service;
        }
        prop_assert_eq!(t.busy().as_nanos(), total);
        // No overlap within any unit.
        for u in 0..units {
            let mut ivs: Vec<_> = t.intervals().iter().filter(|i| i.unit == u).collect();
            ivs.sort_by_key(|i| i.start);
            for w in ivs.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "unit {u} double-booked");
            }
        }
    }

    /// FIFO fairness: with a single unit and all requests ready at zero,
    /// completion order equals submission order.
    #[test]
    fn single_unit_is_fifo(services in proptest::collection::vec(1u64..100, 2..50)) {
        let mut t = Timeline::new("t", 1);
        let mut last_end = SimTime::ZERO;
        for s in &services {
            let iv = t.acquire(SimTime::ZERO, SimDuration::from_nanos(*s));
            prop_assert_eq!(iv.start, last_end);
            last_end = iv.end;
        }
    }
}
