//! Deterministic fault injection: the plan, the dice, and the counters.
//!
//! The Morpheus reproduction models a device that must keep serving
//! MINIT/MREAD under real-device conditions — flash bit errors, busy
//! embedded cores, lost commands, flapping links. This module provides the
//! *scheduling* half of that story: a [`FaultPlan`] describes what faults
//! exist and how often they fire, and every injection site draws from its
//! own [`SplitMix64`] stream derived from the plan's seed, so
//!
//! * the same plan always produces the same faults (the determinism
//!   contract documented in `docs/FAULT_MODEL.md`), and
//! * fault decisions at one site never perturb another site's stream
//!   (adding an MREAD does not change which PCIe DMA degrades).
//!
//! The *recovery* half (bounded retries with exponential backoff, ECC
//! correction penalties, host fallback) lives with the hardware models and
//! the execution drivers; they report what happened through
//! [`FaultCounters`].
//!
//! # Example
//!
//! ```
//! use morpheus_simcore::FaultPlan;
//!
//! let plan = FaultPlan::parse("seed=7,flash-uncorr=0.001,timeout=0.01").unwrap();
//! assert!(plan.is_active());
//! let mut dice = plan.dice("nvme-timeout", plan.nvme_timeout);
//! let first = dice.roll();
//! // Same plan, same site: same decisions, forever.
//! assert_eq!(plan.dice("nvme-timeout", plan.nvme_timeout).roll(), first);
//! ```

use crate::rng::SplitMix64;
use crate::time::SimDuration;
use std::fmt;

/// A seeded, deterministic schedule of injected faults.
///
/// Built from a small `key=value` spec string (see [`FaultPlan::parse`]) or
/// programmatically. A default plan injects nothing ([`FaultPlan::none`]),
/// and every injection site must check [`is_active`](FaultPlan::is_active)
/// first so a fault-free run stays byte-identical to a build without any
/// fault machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every site derives its own stream from it.
    pub seed: u64,
    /// Probability a flash page read needs ECC correction (latency only).
    pub flash_correctable: f64,
    /// Extra read latencies charged per ECC-corrected read.
    pub flash_correction_retries: u32,
    /// Probability a flash page read fails uncorrectably.
    pub flash_uncorrectable: f64,
    /// Probability an NVMe command is lost before the device sees it.
    pub nvme_timeout: f64,
    /// Simulated time the host waits before declaring a command timed out.
    pub nvme_timeout_ns: u64,
    /// Reissues the host attempts before giving up on a command.
    pub nvme_max_retries: u32,
    /// Base backoff after the first timeout; doubles per further attempt.
    pub nvme_backoff_ns: u64,
    /// Probability a StorageApp command finds its embedded core stalled.
    pub core_stall: f64,
    /// Extra simulated time a stalled core needs before dispatch.
    pub core_stall_ns: u64,
    /// Probability a StorageApp command crashes its embedded core.
    pub core_crash: f64,
    /// Probability a PCIe DMA runs over a degraded (retraining) link.
    pub pcie_degrade: f64,
    /// Service-time multiplier for a degraded DMA (>= 1).
    pub pcie_degrade_factor: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 1,
            flash_correctable: 0.0,
            flash_correction_retries: 3,
            flash_uncorrectable: 0.0,
            nvme_timeout: 0.0,
            nvme_timeout_ns: 100_000,
            nvme_max_retries: 4,
            nvme_backoff_ns: 50_000,
            core_stall: 0.0,
            core_stall_ns: 250_000,
            core_crash: 0.0,
            pcie_degrade: 0.0,
            pcie_degrade_factor: 4.0,
        }
    }

    /// True if any fault can fire under this plan. Injection sites gate on
    /// this so an inactive plan costs one branch.
    pub fn is_active(&self) -> bool {
        self.flash_correctable > 0.0
            || self.flash_uncorrectable > 0.0
            || self.nvme_timeout > 0.0
            || self.core_stall > 0.0
            || self.core_crash > 0.0
            || self.pcie_degrade > 0.0
    }

    /// Parses a comma-separated `key=value` spec, starting from
    /// [`FaultPlan::none`]. Keys:
    ///
    /// | key | meaning |
    /// |---|---|
    /// | `seed` | master seed (u64) |
    /// | `flash-corr` | ECC-correctable read probability |
    /// | `flash-corr-retries` | read latencies charged per correction |
    /// | `flash-uncorr` | uncorrectable read probability |
    /// | `timeout` | NVMe command-loss probability |
    /// | `timeout-us` | host timeout detection window, µs |
    /// | `retries` | NVMe reissue budget |
    /// | `backoff-us` | base reissue backoff, µs (doubles per attempt) |
    /// | `stall` | embedded-core stall probability |
    /// | `stall-us` | stall duration, µs |
    /// | `crash` | embedded-core crash probability |
    /// | `pcie` | degraded-DMA probability |
    /// | `pcie-factor` | degraded-DMA slowdown factor (>= 1) |
    ///
    /// Probabilities must lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, malformed values,
    /// and out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("fault spec item {item:?} is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("{key} expects a number, got {v:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{key} must be a probability in [0, 1], got {v}"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("{key} expects an unsigned integer, got {v:?}"))
            };
            match key {
                "seed" => plan.seed = int(value)?,
                "flash-corr" => plan.flash_correctable = prob(value)?,
                "flash-corr-retries" => plan.flash_correction_retries = int(value)? as u32,
                "flash-uncorr" => plan.flash_uncorrectable = prob(value)?,
                "timeout" => plan.nvme_timeout = prob(value)?,
                "timeout-us" => plan.nvme_timeout_ns = int(value)?.saturating_mul(1000),
                "retries" => plan.nvme_max_retries = int(value)? as u32,
                "backoff-us" => plan.nvme_backoff_ns = int(value)?.saturating_mul(1000),
                "stall" => plan.core_stall = prob(value)?,
                "stall-us" => plan.core_stall_ns = int(value)?.saturating_mul(1000),
                "crash" => plan.core_crash = prob(value)?,
                "pcie" => plan.pcie_degrade = prob(value)?,
                "pcie-factor" => {
                    let f: f64 = value
                        .parse()
                        .map_err(|_| format!("pcie-factor expects a number, got {value:?}"))?;
                    if f < 1.0 {
                        return Err(format!("pcie-factor must be >= 1, got {value}"));
                    }
                    plan.pcie_degrade_factor = f;
                }
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The per-site PRNG stream: the master seed mixed with an FNV-1a hash
    /// of the site name, so sites are mutually independent and a site's
    /// stream does not depend on declaration order.
    pub fn stream(&self, site: &str) -> SplitMix64 {
        SplitMix64::new(self.seed ^ fnv1a(site.as_bytes()))
    }

    /// A Bernoulli dice for one site at probability `prob`.
    pub fn dice(&self, site: &str, prob: f64) -> FaultDice {
        FaultDice {
            rng: self.stream(site),
            prob,
        }
    }

    /// Host timeout-detection window as a duration.
    pub fn timeout_window(&self) -> SimDuration {
        SimDuration::from_nanos(self.nvme_timeout_ns)
    }

    /// Reissue backoff before attempt `attempt` (zero-based): the base
    /// doubles per prior attempt, saturating.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shifted = if attempt >= 63 {
            u64::MAX
        } else {
            self.nvme_backoff_ns.saturating_mul(1u64 << attempt)
        };
        SimDuration::from_nanos(shifted)
    }

    /// The duration of one injected core stall.
    pub fn stall_duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.core_stall_ns)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// 64-bit FNV-1a over bytes (stable site-name hashing for fault streams).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A per-site Bernoulli dice: one [`SplitMix64`] stream plus a fixed
/// probability. One roll per potential fault keeps decisions aligned to
/// sites regardless of what other sites do.
#[derive(Debug, Clone)]
pub struct FaultDice {
    rng: SplitMix64,
    prob: f64,
}

impl FaultDice {
    /// Rolls the dice: true means the fault fires.
    pub fn roll(&mut self) -> bool {
        // A zero probability must not advance the stream differently from
        // an active one; chance() always consumes exactly one draw.
        self.rng.chance(self.prob)
    }
}

/// What the fault plane injected and the recovery machinery absorbed
/// during one run. All zero when no plan is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Flash reads that needed ECC correction (latency penalty only).
    pub ecc_corrected: u64,
    /// FTL read retries after uncorrectable flash errors.
    pub media_retries: u64,
    /// Reads that stayed uncorrectable after the FTL's retry budget.
    pub media_failures: u64,
    /// NVMe commands the host declared timed out.
    pub nvme_timeouts: u64,
    /// NVMe commands reissued after a timeout.
    pub nvme_retries: u64,
    /// StorageApp commands delayed by an embedded-core stall.
    pub core_stalls: u64,
    /// StorageApp commands that crashed their embedded core.
    pub core_crashes: u64,
    /// PCIe DMAs that ran over a degraded link.
    pub pcie_degraded: u64,
    /// Runs (0 or 1 per report) that fell back to host deserialization.
    pub host_fallbacks: u64,
}

impl FaultCounters {
    /// True if any counter is non-zero.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }

    /// Adds `other`'s counters to these (summing runs or devices). The
    /// destructuring lists every field, so a new counter cannot compile
    /// without being summed here.
    pub fn merge(&mut self, other: &FaultCounters) {
        let FaultCounters {
            ecc_corrected,
            media_retries,
            media_failures,
            nvme_timeouts,
            nvme_retries,
            core_stalls,
            core_crashes,
            pcie_degraded,
            host_fallbacks,
        } = *other;
        self.ecc_corrected += ecc_corrected;
        self.media_retries += media_retries;
        self.media_failures += media_failures;
        self.nvme_timeouts += nvme_timeouts;
        self.nvme_retries += nvme_retries;
        self.core_stalls += core_stalls;
        self.core_crashes += core_crashes;
        self.pcie_degraded += pcie_degraded;
        self.host_fallbacks += host_fallbacks;
    }
}

impl fmt::Display for FaultCounters {
    /// One stable line, suitable for byte-diffed CI output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ecc_corrected={} media_retries={} media_failures={} nvme_timeouts={} \
             nvme_retries={} core_stalls={} core_crashes={} pcie_degraded={} host_fallbacks={}",
            self.ecc_corrected,
            self.media_retries,
            self.media_failures,
            self.nvme_timeouts,
            self.nvme_retries,
            self.core_stalls,
            self.core_crashes,
            self.pcie_degraded,
            self.host_fallbacks
        )
    }
}

/// Renders an error and its full [`source`](std::error::Error::source)
/// chain as `outer: cause: root`, so fallback logs show root causes.
///
/// Error types in this workspace keep their `Display` free of source text
/// (the chain is reachable through `source()` alone), so each cause
/// appears exactly once in the rendering.
pub fn render_error_chain(err: &(dyn std::error::Error + 'static)) -> String {
    let mut s = err.to_string();
    let mut cur = err.source();
    while let Some(e) = cur {
        s.push_str(": ");
        s.push_str(&e.to_string());
        cur = e.source();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::default().is_active());
    }

    #[test]
    fn counter_merge_sums_every_field() {
        let c = FaultCounters {
            ecc_corrected: 1,
            media_retries: 2,
            media_failures: 3,
            nvme_timeouts: 4,
            nvme_retries: 5,
            core_stalls: 6,
            core_crashes: 7,
            pcie_degraded: 8,
            host_fallbacks: 9,
        };
        let mut sum = FaultCounters::default();
        sum.merge(&c);
        sum.merge(&c);
        assert_eq!(
            sum.to_string(),
            "ecc_corrected=2 media_retries=4 media_failures=6 nvme_timeouts=8 \
             nvme_retries=10 core_stalls=12 core_crashes=14 pcie_degraded=16 host_fallbacks=18"
        );
    }

    #[test]
    fn parse_full_grammar() {
        let p = FaultPlan::parse(
            "seed=9,flash-corr=0.5,flash-corr-retries=2,flash-uncorr=0.25,\
             timeout=0.125,timeout-us=50,retries=3,backoff-us=10,\
             stall=0.0625,stall-us=300,crash=0.03125,pcie=0.5,pcie-factor=8",
        )
        .unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.flash_correctable, 0.5);
        assert_eq!(p.flash_correction_retries, 2);
        assert_eq!(p.flash_uncorrectable, 0.25);
        assert_eq!(p.nvme_timeout, 0.125);
        assert_eq!(p.nvme_timeout_ns, 50_000);
        assert_eq!(p.nvme_max_retries, 3);
        assert_eq!(p.nvme_backoff_ns, 10_000);
        assert_eq!(p.core_stall, 0.0625);
        assert_eq!(p.core_stall_ns, 300_000);
        assert_eq!(p.core_crash, 0.03125);
        assert_eq!(p.pcie_degrade, 0.5);
        assert_eq!(p.pcie_degrade_factor, 8.0);
        assert!(p.is_active());
    }

    #[test]
    fn parse_tolerates_whitespace_and_empty_items() {
        let p = FaultPlan::parse(" seed=3 , timeout=0.1 ,, ").unwrap();
        assert_eq!(p.seed, 3);
        assert_eq!(p.nvme_timeout, 0.1);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "seed",             // no '='
            "seed=abc",         // malformed int
            "timeout=1.5",      // out of range
            "timeout=-0.1",     // out of range
            "pcie-factor=0.5",  // below 1
            "warp-drive=0.5",   // unknown key
            "flash-corr=maybe", // malformed float
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn empty_spec_is_inactive() {
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert!(!FaultPlan::parse("seed=123").unwrap().is_active());
    }

    #[test]
    fn sites_are_independent_and_deterministic() {
        let plan = FaultPlan::parse("seed=11,timeout=0.5").unwrap();
        let a: Vec<u64> = {
            let mut s = plan.stream("nvme-timeout");
            (0..8).map(|_| s.next_u64()).collect()
        };
        let again: Vec<u64> = {
            let mut s = plan.stream("nvme-timeout");
            (0..8).map(|_| s.next_u64()).collect()
        };
        let other: Vec<u64> = {
            let mut s = plan.stream("core-crash");
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, again, "same site must replay identically");
        assert_ne!(a, other, "distinct sites must diverge");
    }

    #[test]
    fn seeds_change_every_stream() {
        let a = FaultPlan::parse("seed=1,timeout=0.5").unwrap();
        let b = FaultPlan::parse("seed=2,timeout=0.5").unwrap();
        assert_ne!(
            a.stream("nvme-timeout").next_u64(),
            b.stream("nvme-timeout").next_u64()
        );
    }

    #[test]
    fn dice_extremes() {
        let plan = FaultPlan::none();
        assert!(!plan.dice("x", 0.0).roll());
        assert!(plan.dice("x", 1.0).roll());
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let plan = FaultPlan::parse("backoff-us=10").unwrap();
        assert_eq!(plan.backoff(0), SimDuration::from_nanos(10_000));
        assert_eq!(plan.backoff(1), SimDuration::from_nanos(20_000));
        assert_eq!(plan.backoff(2), SimDuration::from_nanos(40_000));
        assert_eq!(plan.backoff(80), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn counters_display_is_stable_and_complete() {
        let c = FaultCounters {
            ecc_corrected: 1,
            host_fallbacks: 2,
            ..FaultCounters::default()
        };
        let s = c.to_string();
        assert!(s.contains("ecc_corrected=1"));
        assert!(s.contains("host_fallbacks=2"));
        assert!(c.any());
        assert!(!FaultCounters::default().any());
    }

    #[test]
    fn error_chain_renders_each_cause_once() {
        use std::fmt;

        #[derive(Debug)]
        struct Root;
        impl fmt::Display for Root {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("root cause")
            }
        }
        impl std::error::Error for Root {}

        #[derive(Debug)]
        struct Outer(Root);
        impl fmt::Display for Outer {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("outer failure")
            }
        }
        impl std::error::Error for Outer {
            fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
                Some(&self.0)
            }
        }

        let rendered = render_error_chain(&Outer(Root));
        assert_eq!(rendered, "outer failure: root cause");
        assert_eq!(rendered.matches("root cause").count(), 1);
    }
}
