//! Reading exact per-request latencies and per-layer busy time out of a
//! trace. The serve report's log2 histograms are up to 2x coarse, so the
//! benchmark pairs spans instead: the serving plane records each completed
//! request as a `queue-wait` span (arrival to service start) followed at
//! once by a `request` span (service start to completion) on its serve
//! track, `serve` on a single system and `devN/serve` in a fleet.

use morpheus_simcore::{TraceEventKind, TraceLayer, TraceLog};
use std::collections::HashMap;

fn is_serve_track(track: &str) -> bool {
    track == "serve"
        || track
            .strip_suffix("/serve")
            .is_some_and(|dev| !dev.contains('/'))
}

/// Exact latencies of every completed request in a trace, nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RequestLatencies {
    /// Arrival to completion, sorted ascending.
    pub e2e_ns: Vec<u64>,
    /// Arrival to service start, sorted ascending.
    pub queue_wait_ns: Vec<u64>,
}

/// Pairs each `request` span with the `queue-wait` span just before it on
/// the same serve track.
///
/// # Errors
///
/// Fails when a `request` has no `queue-wait` before it or a `queue-wait`
/// is left without its `request`: the trace does not describe whole
/// requests, so no latency read from it can be trusted.
pub fn request_latencies(log: &TraceLog) -> Result<RequestLatencies, String> {
    let mut open: HashMap<&str, u64> = HashMap::new();
    let mut out = RequestLatencies::default();
    for e in &log.events {
        if e.layer != TraceLayer::Host
            || e.kind != TraceEventKind::Span
            || !is_serve_track(&e.track)
        {
            continue;
        }
        match e.name.as_str() {
            "queue-wait" => {
                if open.insert(&e.track, e.start_ns).is_some() {
                    return Err(format!("{}: queue-wait without a request", e.track));
                }
                out.queue_wait_ns.push(e.dur_ns);
            }
            "request" => {
                let arrival = open
                    .remove(e.track.as_str())
                    .ok_or_else(|| format!("{}: request without a queue-wait", e.track))?;
                out.e2e_ns.push(e.end_ns() - arrival);
            }
            _ => {}
        }
    }
    if let Some(track) = open.keys().next() {
        return Err(format!("{track}: queue-wait without a request"));
    }
    out.e2e_ns.sort_unstable();
    out.queue_wait_ns.sort_unstable();
    Ok(out)
}

/// Summed duration of the spans of `layer` named any of `names`, ns.
pub fn span_ns(log: &TraceLog, layer: TraceLayer, names: &[&str]) -> u64 {
    log.events
        .iter()
        .filter(|e| e.layer == layer && e.kind == TraceEventKind::Span)
        .filter(|e| names.contains(&e.name.as_str()))
        .map(|e| e.dur_ns)
        .sum()
}

/// Summed duration of every span of `layer`, ns.
pub fn layer_ns(log: &TraceLog, layer: TraceLayer) -> u64 {
    log.events
        .iter()
        .filter(|e| e.layer == layer && e.kind == TraceEventKind::Span)
        .map(|e| e.dur_ns)
        .sum()
}

/// Number of events of `layer` named `name`, spans and instants alike.
pub fn count(log: &TraceLog, layer: TraceLayer, name: &str) -> u64 {
    log.events
        .iter()
        .filter(|e| e.layer == layer && e.name == name)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_simcore::{SimTime, Tracer};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Records one request the way the serving plane does.
    fn request(tr: &Tracer, track: &str, arrival: u64, start: u64, end: u64) {
        tr.span(TraceLayer::Host, track, "queue-wait", t(arrival), t(start));
        tr.span(TraceLayer::Host, track, "request", t(start), t(end));
    }

    #[test]
    fn pairs_queue_waits_with_the_request_after_them() {
        let tr = Tracer::enabled();
        request(&tr, "serve", 0, 10, 110);
        tr.span(TraceLayer::Flash, "ch0-cell", "read-cell", t(10), t(60));
        request(&tr, "serve", 5, 110, 130);
        let lat = request_latencies(&tr.take()).expect("paired");
        assert_eq!(lat.e2e_ns, vec![110, 125]);
        assert_eq!(lat.queue_wait_ns, vec![10, 105]);
    }

    #[test]
    fn fleet_tracks_pair_per_device() {
        // Devices' logs are merged one after another with `devN/` prefixes,
        // so one device's pending wait must never pair with another's.
        let tr = Tracer::enabled();
        tr.span(TraceLayer::Host, "dev0/serve", "queue-wait", t(0), t(7));
        tr.span(TraceLayer::Host, "dev12/serve", "queue-wait", t(1), t(2));
        tr.span(TraceLayer::Host, "dev12/serve", "request", t(2), t(4));
        tr.span(TraceLayer::Host, "dev0/serve", "request", t(7), t(9));
        // Not serve tracks: ignored.
        tr.span(TraceLayer::Host, "ctl/dev0", "request", t(0), t(1));
        tr.span(TraceLayer::Host, "dev0/host-cpu", "queue-wait", t(0), t(1));
        let lat = request_latencies(&tr.take()).expect("paired");
        assert_eq!(lat.e2e_ns, vec![3, 9]);
        assert_eq!(lat.queue_wait_ns, vec![1, 7]);
    }

    #[test]
    fn unpaired_spans_are_errors() {
        let tr = Tracer::enabled();
        tr.span(TraceLayer::Host, "serve", "request", t(0), t(1));
        assert!(request_latencies(&tr.take()).is_err());
        tr.span(TraceLayer::Host, "serve", "queue-wait", t(0), t(1));
        assert!(request_latencies(&tr.take()).is_err());
        tr.span(TraceLayer::Host, "serve", "queue-wait", t(0), t(1));
        tr.span(TraceLayer::Host, "serve", "queue-wait", t(1), t(2));
        assert!(request_latencies(&tr.take()).is_err());
    }

    #[test]
    fn layer_sums_and_counts() {
        let tr = Tracer::enabled();
        tr.span(TraceLayer::Flash, "ch0-cell", "read-cell", t(0), t(50));
        tr.span(TraceLayer::Flash, "ch0-bus", "read-bus", t(50), t(80));
        tr.span(TraceLayer::Pcie, "x-tx", "dma-host", t(80), t(90));
        tr.instant(TraceLayer::Ftl, "map", "lookup", t(0));
        tr.instant(TraceLayer::Ftl, "map", "lookup", t(1));
        let log = tr.take();
        assert_eq!(
            span_ns(&log, TraceLayer::Flash, &["read-cell", "read-bus"]),
            80
        );
        assert_eq!(span_ns(&log, TraceLayer::Flash, &["read-bus"]), 30);
        assert_eq!(layer_ns(&log, TraceLayer::Pcie), 10);
        assert_eq!(count(&log, TraceLayer::Ftl, "lookup"), 2);
    }
}
