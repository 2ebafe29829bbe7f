//! Fleet control plane: a deterministic per-device lifecycle driven in
//! sim-time alongside [`Fleet::serve`](crate::Fleet::serve).
//!
//! The paper's Morpheus-SSD is a single device; a production fleet also
//! needs the *management* half — provision, firmware update, drain,
//! reboot, return-to-service — to be as principled as the datapath. This
//! module models that half without giving up byte-determinism: the
//! operator's intent (a [`RollingUpdate`] schedule, a [`HealPolicy`] for
//! fault-plane kills) is **compiled ahead of serving** into a
//! [`ControlPlan`] — one per-device timeline of lifecycle
//! [`Transition`]s, each validated through the [`Lifecycle`] state
//! machine. Routing then consults the plan: only an
//! [`InService`](DeviceState::InService) device admits new arrivals, so a
//! [`Draining`](DeviceState::Draining) device stops receiving traffic
//! while its already-routed requests run to completion (the fleet serves
//! each device's slice in full), updates, reboots, and returns.
//!
//! After the run, [`ControlReport::build`] closes the loop: it consumes
//! each device's [`SloOutcome`](morpheus_simcore::SloOutcome) verdicts
//! and burn-rate alerts from the telemetry plane and classifies every
//! device's [`Health`], next to the transition history the plan executed.
//! Because the plan is a pure function of (control config, kill schedule,
//! fleet size, horizon) and the observations are a pure function of the
//! run, every byte of the report replays identically across reruns and
//! `--jobs` fan-outs. See `docs/CONTROL_PLANE.md`.

use crate::fleet::DeviceKill;
use crate::serve::ServeReport;
use morpheus_simcore::{SimDuration, SimTime};
use std::error::Error;
use std::fmt;

/// Where a device sits in its operational lifecycle.
///
/// The legal transitions (enforced by [`Lifecycle::transition`]):
///
/// ```text
/// Provisioning → InService
/// InService    → Draining
/// Draining     → Updating
/// Updating     → Rebooting
/// Rebooting    → InService
/// any (except Failed) → Failed
/// Failed       → Rebooting          (the heal path)
/// ```
///
/// Only `InService` admits new arrivals; every other state steers
/// routing onto healthy peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Being built/imaged; not yet serving.
    Provisioning,
    /// Healthy and admitting new arrivals.
    InService,
    /// No longer admitting; in-flight work runs to completion.
    Draining,
    /// Firmware update in progress (drained first).
    Updating,
    /// Coming back up after an update or a heal.
    Rebooting,
    /// Dead (fault-plane kill); admits nothing until healed.
    Failed,
}

impl DeviceState {
    /// All six states, in lifecycle order (useful for exhaustive tests).
    pub const ALL: [DeviceState; 6] = [
        DeviceState::Provisioning,
        DeviceState::InService,
        DeviceState::Draining,
        DeviceState::Updating,
        DeviceState::Rebooting,
        DeviceState::Failed,
    ];
}

impl fmt::Display for DeviceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceState::Provisioning => "provisioning",
            DeviceState::InService => "in-service",
            DeviceState::Draining => "draining",
            DeviceState::Updating => "updating",
            DeviceState::Rebooting => "rebooting",
            DeviceState::Failed => "failed",
        })
    }
}

/// The typed rejection for a lifecycle edge that is not in the state
/// machine (e.g. `InService → Updating` without draining first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The device whose machine rejected the edge.
    pub device: usize,
    /// The state the device was in.
    pub from: DeviceState,
    /// The state the edge asked for.
    pub to: DeviceState,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {}: illegal lifecycle transition {} -> {}",
            self.device, self.from, self.to
        )
    }
}

impl Error for IllegalTransition {}

/// One device's lifecycle state machine.
#[derive(Debug, Clone)]
pub struct Lifecycle {
    device: usize,
    state: DeviceState,
}

impl Lifecycle {
    /// A fresh machine for `device`, starting in
    /// [`Provisioning`](DeviceState::Provisioning).
    pub fn new(device: usize) -> Self {
        Lifecycle {
            device,
            state: DeviceState::Provisioning,
        }
    }

    /// The current state.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// Whether the edge `from → to` is in the state machine (see
    /// [`DeviceState`] for the full table).
    pub fn legal(from: DeviceState, to: DeviceState) -> bool {
        use DeviceState::*;
        matches!(
            (from, to),
            (Provisioning, InService)
                | (InService, Draining)
                | (Draining, Updating)
                | (Updating, Rebooting)
                | (Rebooting, InService)
                | (Provisioning, Failed)
                | (InService, Failed)
                | (Draining, Failed)
                | (Updating, Failed)
                | (Rebooting, Failed)
                | (Failed, Rebooting)
        )
    }

    /// Advances the machine to `to`.
    ///
    /// # Errors
    ///
    /// [`IllegalTransition`] when the edge is not legal; the state is
    /// left unchanged.
    pub fn transition(&mut self, to: DeviceState) -> Result<(), IllegalTransition> {
        if !Self::legal(self.state, to) {
            return Err(IllegalTransition {
                device: self.device,
                from: self.state,
                to,
            });
        }
        self.state = to;
        Ok(())
    }
}

/// A one-at-a-time rolling firmware update across the fleet: device 0
/// drains at `start`, and each device's full drain→update→reboot window
/// finishes before the next device begins, so at most one device is out
/// of service for maintenance at any instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollingUpdate {
    /// When device 0 begins draining.
    pub start: SimTime,
    /// Grace window with admission off before the update begins
    /// (in-flight work completes during it).
    pub drain: SimDuration,
    /// Firmware write window.
    pub update: SimDuration,
    /// Reboot window before the device re-admits.
    pub reboot: SimDuration,
}

/// Default drain grace window (2 ms sim-time).
pub const DEFAULT_DRAIN: SimDuration = SimDuration::from_millis(2);
/// Default firmware-write window (2 ms sim-time).
pub const DEFAULT_UPDATE: SimDuration = SimDuration::from_millis(2);
/// Default post-update reboot window (1 ms sim-time).
pub const DEFAULT_REBOOT: SimDuration = SimDuration::from_millis(1);

impl RollingUpdate {
    /// A rolling update starting `start_s` seconds into the run with the
    /// default per-phase windows (the `--rolling-update SECS` spelling).
    pub fn starting_at(start_s: f64) -> Self {
        RollingUpdate {
            start: SimTime::ZERO + SimDuration::from_secs_f64(start_s),
            drain: DEFAULT_DRAIN,
            update: DEFAULT_UPDATE,
            reboot: DEFAULT_REBOOT,
        }
    }

    /// One device's full maintenance window (drain + update + reboot).
    pub fn cycle(&self) -> SimDuration {
        self.drain + self.update + self.reboot
    }
}

/// How the healing loop turns a fault-plane kill into a temporary
/// outage: `detect` after the kill the device is pulled for repair
/// ([`Failed`](DeviceState::Failed) →
/// [`Rebooting`](DeviceState::Rebooting)), and `reboot` later it
/// re-admits. Without a heal policy a killed device stays `Failed` for
/// the rest of the run — exactly the pre-control-plane semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealPolicy {
    /// Time from the kill to the repair beginning.
    pub detect: SimDuration,
    /// Repair/reboot window before the device re-admits.
    pub reboot: SimDuration,
}

impl Default for HealPolicy {
    /// 2 ms to detect and pull, 3 ms to repair and reboot.
    fn default() -> Self {
        HealPolicy {
            detect: SimDuration::from_millis(2),
            reboot: SimDuration::from_millis(3),
        }
    }
}

/// The operator's intent for one fleet run. Inactive by default, so a
/// control-free [`FleetConfig`](crate::FleetConfig) serves byte-for-byte
/// like the pre-control-plane build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlConfig {
    /// Rolling firmware update schedule (none = no updates).
    pub rolling: Option<RollingUpdate>,
    /// Heal fault-plane kills back into service (none = kills are
    /// permanent, the legacy semantics).
    pub heal: Option<HealPolicy>,
}

impl ControlConfig {
    /// True when any control behavior is requested.
    pub fn is_active(&self) -> bool {
        self.rolling.is_some() || self.heal.is_some()
    }

    /// True when every edge [`ControlPlan::compile`] plans for a fleet of
    /// `devices` with `kills` lands inside [`SimTime`]'s range: the rolling
    /// update's last return to service, and each healed kill's.
    pub(crate) fn fits_the_clock(&self, devices: usize, kills: &[DeviceKill]) -> bool {
        // `at` plus `times` rounds of `steps`, in nanoseconds that cannot wrap.
        let fits = |at: SimTime, steps: &[SimDuration], times: usize| {
            let round: u128 = steps.iter().map(|d| u128::from(d.as_nanos())).sum();
            u128::from(at.as_nanos()) + round * times as u128 <= u128::from(u64::MAX)
        };
        let (rolling, heal) = (self.rolling, self.heal);
        rolling.is_none_or(|r| fits(r.start, &[r.drain, r.update, r.reboot], devices))
            && heal.is_none_or(|h| kills.iter().all(|k| fits(k.at, &[h.detect, h.reboot], 1)))
    }
}

/// One executed lifecycle edge on a device's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// When the device entered `to`.
    pub at: SimTime,
    /// The state entered.
    pub to: DeviceState,
}

/// How many lifecycle edges entered each state, fleet-wide — the
/// transition counters surfaced in
/// [`FleetReport`](crate::FleetReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionCounts {
    /// Entries into `InService` (provisioning at t=0 included).
    pub in_service: u64,
    /// Entries into `Draining`.
    pub draining: u64,
    /// Entries into `Updating`.
    pub updating: u64,
    /// Entries into `Rebooting`.
    pub rebooting: u64,
    /// Entries into `Failed`.
    pub failed: u64,
}

impl fmt::Display for TransitionCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in_service={} draining={} updating={} rebooting={} failed={}",
            self.in_service, self.draining, self.updating, self.rebooting, self.failed
        )
    }
}

/// A planned lifecycle event before validation. Scheduled events (the
/// rolling-update phases, heal recoveries) carry the state they expect
/// the device to be in and are skipped when a kill overtook the plan —
/// e.g. a device that died mid-drain must not ride the leftover
/// `Rebooting` phase back into service, even though `Failed → Rebooting`
/// is a legal (heal) edge. Mandatory events (kills) always land.
#[derive(Debug, Clone, Copy)]
struct PlannedEvent {
    at: SimTime,
    /// The state this event expects to find (`None` = mandatory, lands
    /// from any state).
    from: Option<DeviceState>,
    to: DeviceState,
}

impl PlannedEvent {
    fn mandatory(&self) -> bool {
        self.from.is_none()
    }
}

/// The compiled control plan: one validated lifecycle timeline per
/// device. Pure function of (config, fleet size, kill schedule,
/// horizon), so routing decisions taken against it are
/// byte-deterministic.
#[derive(Debug, Clone)]
pub struct ControlPlan {
    timelines: Vec<Vec<Transition>>,
}

impl ControlPlan {
    /// Compiles the operator's intent plus the kill schedule into
    /// per-device timelines.
    ///
    /// Every device provisions into service at t=0. A rolling update
    /// schedules device `i`'s drain at `start + i * cycle`; scheduled
    /// phases past `horizon` (the serve duration) are dropped — they
    /// would not be observed by the run. Kills land as mandatory
    /// `Failed` edges; with a heal policy each kill is followed by a
    /// pull-and-reboot recovery. Planned edges that find the machine in
    /// the wrong state (the device died mid-drain, say) are skipped
    /// deterministically rather than rejected. Every planned time must
    /// fit [`SimTime`], as [`FleetConfig::validate`](crate::FleetConfig::validate)
    /// checks.
    pub fn compile(
        cfg: &ControlConfig,
        devices: usize,
        kills: &[DeviceKill],
        horizon: SimTime,
    ) -> ControlPlan {
        let mut timelines = Vec::with_capacity(devices);
        for dev in 0..devices {
            let mut events = vec![PlannedEvent {
                at: SimTime::ZERO,
                from: None,
                to: DeviceState::InService,
            }];
            if let Some(r) = &cfg.rolling {
                let base = r.start + r.cycle() * dev as u64;
                for (offset, from, to) in [
                    (
                        SimDuration::ZERO,
                        DeviceState::InService,
                        DeviceState::Draining,
                    ),
                    (r.drain, DeviceState::Draining, DeviceState::Updating),
                    (
                        r.drain + r.update,
                        DeviceState::Updating,
                        DeviceState::Rebooting,
                    ),
                    (r.cycle(), DeviceState::Rebooting, DeviceState::InService),
                ] {
                    let at = base + offset;
                    if at < horizon {
                        events.push(PlannedEvent {
                            at,
                            from: Some(from),
                            to,
                        });
                    }
                }
            }
            let mut dev_kills: Vec<SimTime> = kills
                .iter()
                .filter(|k| k.device == dev)
                .map(|k| k.at)
                .collect();
            dev_kills.sort();
            for t in dev_kills {
                events.push(PlannedEvent {
                    at: t,
                    from: None,
                    to: DeviceState::Failed,
                });
                if let Some(h) = &cfg.heal {
                    events.push(PlannedEvent {
                        at: t + h.detect,
                        from: Some(DeviceState::Failed),
                        to: DeviceState::Rebooting,
                    });
                    events.push(PlannedEvent {
                        at: t + h.detect + h.reboot,
                        from: Some(DeviceState::Rebooting),
                        to: DeviceState::InService,
                    });
                }
            }
            // Mandatory edges win ties (a kill at the exact drain start
            // kills); otherwise schedule order is already insertion
            // order, and the sort is stable.
            events.sort_by_key(|e| (e.at, !e.mandatory()));
            let mut machine = Lifecycle::new(dev);
            let mut timeline = Vec::new();
            for ev in events {
                if let Some(from) = ev.from {
                    if machine.state() != from {
                        continue; // a kill overtook this scheduled phase
                    }
                }
                if ev.to == machine.state() {
                    continue; // double-kill of a dead device, etc.
                }
                machine
                    .transition(ev.to)
                    .expect("compiled edges respect the state machine");
                timeline.push(Transition {
                    at: ev.at,
                    to: ev.to,
                });
            }
            timelines.push(timeline);
        }
        ControlPlan { timelines }
    }

    /// Number of devices the plan covers.
    pub fn devices(&self) -> usize {
        self.timelines.len()
    }

    /// One device's executed timeline, in time order.
    pub fn timeline(&self, device: usize) -> &[Transition] {
        &self.timelines[device]
    }

    /// The device's state at `at` (the last transition at or before it;
    /// [`Provisioning`](DeviceState::Provisioning) before any).
    pub fn state_at(&self, device: usize, at: SimTime) -> DeviceState {
        self.timelines[device]
            .iter()
            .take_while(|t| t.at <= at)
            .last()
            .map_or(DeviceState::Provisioning, |t| t.to)
    }

    /// True when the device admits new arrivals at `at` (only
    /// [`InService`](DeviceState::InService) does).
    pub fn admits(&self, device: usize, at: SimTime) -> bool {
        self.state_at(device, at) == DeviceState::InService
    }

    /// When the device most recently left service as of `at` (`None`
    /// while it is in service) — the timestamp carried by the
    /// routing-failure error.
    pub fn down_since(&self, device: usize, at: SimTime) -> Option<SimTime> {
        if self.admits(device, at) {
            return None;
        }
        self.timelines[device]
            .iter()
            .take_while(|t| t.at <= at)
            .last()
            .map(|t| t.at)
            .or(Some(SimTime::ZERO))
    }

    /// Fleet-wide transition counters over every executed edge.
    pub fn counts(&self) -> TransitionCounts {
        let mut c = TransitionCounts::default();
        for tl in &self.timelines {
            for t in tl {
                match t.to {
                    DeviceState::InService => c.in_service += 1,
                    DeviceState::Draining => c.draining += 1,
                    DeviceState::Updating => c.updating += 1,
                    DeviceState::Rebooting => c.rebooting += 1,
                    DeviceState::Failed => c.failed += 1,
                    DeviceState::Provisioning => {}
                }
            }
        }
        c
    }
}

/// A device's post-run health classification, derived from its SLO
/// verdicts and burn-rate alerts (see [`ControlReport::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Every objective met, no burn-rate alerts.
    Healthy,
    /// Objectives met but the burn rate alerted at least once.
    AtRisk,
    /// At least one objective violated.
    Violating,
    /// No telemetry sampler was armed; no signal to judge by.
    Unknown,
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::AtRisk => "at-risk",
            Health::Violating => "violating",
            Health::Unknown => "no-slo",
        })
    }
}

/// One device's row in the control report.
#[derive(Debug, Clone)]
pub struct DeviceControl {
    /// The executed lifecycle timeline.
    pub transitions: Vec<Transition>,
    /// The state at end of run.
    pub final_state: DeviceState,
    /// Post-run SLO/burn-rate classification.
    pub health: Health,
    /// Burn-rate alerts observed on this device across all objectives.
    pub burn_alerts: u64,
}

/// What the control plane did and observed in one fleet run: the
/// transition counters, and per device the executed timeline plus the
/// health verdict distilled from its telemetry `SloOutcome`s.
#[derive(Debug, Clone)]
pub struct ControlReport {
    /// Fleet-wide lifecycle edge counters.
    pub counts: TransitionCounts,
    /// Per-device timeline + health, in device order.
    pub devices: Vec<DeviceControl>,
}

impl ControlReport {
    /// Closes the control loop after serving: pairs each device's
    /// executed timeline with the health verdict from its telemetry
    /// report — `Violating` when any objective failed, `AtRisk` when the
    /// burn rate alerted, `Healthy` otherwise, `Unknown` without a
    /// sampler.
    pub fn build(plan: &ControlPlan, per_device: &[ServeReport]) -> ControlReport {
        let devices = (0..plan.devices())
            .map(|i| {
                let transitions = plan.timeline(i).to_vec();
                let final_state = transitions
                    .last()
                    .map_or(DeviceState::Provisioning, |t| t.to);
                let (health, burn_alerts) = match per_device.get(i).and_then(|r| {
                    r.telemetry
                        .as_ref()
                        .filter(|t| !t.slo.is_empty())
                        .map(|t| &t.slo)
                }) {
                    None => (Health::Unknown, 0),
                    Some(slo) => {
                        let alerts: u64 = slo.iter().map(|o| o.alerts).sum();
                        let health = if slo.iter().any(|o| !o.met) {
                            Health::Violating
                        } else if alerts > 0 {
                            Health::AtRisk
                        } else {
                            Health::Healthy
                        };
                        (health, alerts)
                    }
                };
                DeviceControl {
                    transitions,
                    final_state,
                    health,
                    burn_alerts,
                }
            })
            .collect();
        ControlReport {
            counts: plan.counts(),
            devices,
        }
    }

    /// True when every device ended the run admitting traffic.
    pub fn all_in_service(&self) -> bool {
        self.devices
            .iter()
            .all(|d| d.final_state == DeviceState::InService)
    }
}

impl fmt::Display for ControlReport {
    /// One `control:` header line plus one `ctl devN:` line per device
    /// — final state, health, and the full timeline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "control: transitions {}", self.counts)?;
        for (i, d) in self.devices.iter().enumerate() {
            write!(
                f,
                "ctl dev{i}: {} health={} alerts={} |",
                d.final_state, d.health, d.burn_alerts
            )?;
            for t in &d.transitions {
                write!(f, " {}@{:.3}s", t.to, t.at.as_secs_f64())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kill(device: usize, at_ms: u64) -> DeviceKill {
        DeviceKill {
            device,
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        }
    }

    fn horizon_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn lifecycle_happy_path_is_the_update_cycle() {
        let mut m = Lifecycle::new(0);
        assert_eq!(m.state(), DeviceState::Provisioning);
        for s in [
            DeviceState::InService,
            DeviceState::Draining,
            DeviceState::Updating,
            DeviceState::Rebooting,
            DeviceState::InService,
        ] {
            m.transition(s).unwrap();
            assert_eq!(m.state(), s);
        }
    }

    #[test]
    fn lifecycle_heal_path_recovers_a_failure() {
        let mut m = Lifecycle::new(3);
        m.transition(DeviceState::InService).unwrap();
        m.transition(DeviceState::Failed).unwrap();
        m.transition(DeviceState::Rebooting).unwrap();
        m.transition(DeviceState::InService).unwrap();
    }

    #[test]
    fn lifecycle_rejects_shortcuts_and_leaves_state_unchanged() {
        let mut m = Lifecycle::new(7);
        m.transition(DeviceState::InService).unwrap();
        let err = m.transition(DeviceState::Updating).unwrap_err();
        assert_eq!(
            err,
            IllegalTransition {
                device: 7,
                from: DeviceState::InService,
                to: DeviceState::Updating,
            }
        );
        assert_eq!(m.state(), DeviceState::InService, "rejection is a no-op");
        let text = format!("{err}");
        assert!(text.contains("illegal lifecycle transition"), "{text}");
        assert!(text.contains("in-service -> updating"), "{text}");
    }

    #[test]
    fn legality_table_is_exactly_the_documented_edges() {
        use DeviceState::*;
        let legal = [
            (Provisioning, InService),
            (InService, Draining),
            (Draining, Updating),
            (Updating, Rebooting),
            (Rebooting, InService),
            (Provisioning, Failed),
            (InService, Failed),
            (Draining, Failed),
            (Updating, Failed),
            (Rebooting, Failed),
            (Failed, Rebooting),
        ];
        for from in DeviceState::ALL {
            for to in DeviceState::ALL {
                assert_eq!(
                    Lifecycle::legal(from, to),
                    legal.contains(&(from, to)),
                    "{from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn plan_without_control_matches_kill_semantics() {
        let cfg = ControlConfig::default();
        assert!(!cfg.is_active());
        let plan = ControlPlan::compile(&cfg, 2, &[kill(1, 5)], horizon_ms(50));
        let t4 = horizon_ms(4);
        let t5 = horizon_ms(5);
        assert!(plan.admits(0, t5));
        assert!(plan.admits(1, t4));
        assert!(!plan.admits(1, t5), "dead from the kill instant onward");
        assert_eq!(plan.state_at(1, t5), DeviceState::Failed);
        assert_eq!(plan.down_since(1, t5), Some(t5));
        assert_eq!(plan.down_since(0, t5), None);
    }

    #[test]
    fn rolling_update_staggers_one_device_at_a_time() {
        let cfg = ControlConfig {
            rolling: Some(RollingUpdate::starting_at(0.002)),
            ..Default::default()
        };
        let plan = ControlPlan::compile(&cfg, 4, &[], horizon_ms(50));
        let cycle = DEFAULT_DRAIN + DEFAULT_UPDATE + DEFAULT_REBOOT;
        // Every device walks the full cycle and returns.
        for d in 0..4 {
            let states: Vec<DeviceState> = plan.timeline(d).iter().map(|t| t.to).collect();
            assert_eq!(
                states,
                vec![
                    DeviceState::InService,
                    DeviceState::Draining,
                    DeviceState::Updating,
                    DeviceState::Rebooting,
                    DeviceState::InService,
                ],
                "device {d}"
            );
        }
        // At most one device is out of service at any sampled instant.
        let horizon = horizon_ms(50);
        let mut at = SimTime::ZERO;
        while at < horizon {
            let out = (0..4).filter(|&d| !plan.admits(d, at)).count();
            assert!(out <= 1, "{out} devices out at {:.4}s", at.as_secs_f64());
            at += SimDuration::from_micros(250);
        }
        // Device 1 starts exactly one cycle after device 0.
        assert_eq!(
            plan.timeline(1)[1].at,
            plan.timeline(0)[1].at + cycle,
            "stagger is one full cycle"
        );
        let c = plan.counts();
        assert_eq!((c.draining, c.updating, c.rebooting), (4, 4, 4));
        assert_eq!(c.in_service, 8, "4 provisions + 4 returns");
        assert_eq!(c.failed, 0);
    }

    #[test]
    fn rolling_phases_past_the_horizon_are_dropped() {
        let cfg = ControlConfig {
            rolling: Some(RollingUpdate::starting_at(0.001)),
            ..Default::default()
        };
        // Horizon cuts device 0 off mid-drain: it drains but never
        // updates, and device 1 never starts.
        let plan = ControlPlan::compile(&cfg, 2, &[], horizon_ms(2));
        let states: Vec<DeviceState> = plan.timeline(0).iter().map(|t| t.to).collect();
        assert_eq!(states, vec![DeviceState::InService, DeviceState::Draining]);
        let states: Vec<DeviceState> = plan.timeline(1).iter().map(|t| t.to).collect();
        assert_eq!(states, vec![DeviceState::InService]);
    }

    #[test]
    fn heal_turns_a_kill_into_a_temporary_outage() {
        let cfg = ControlConfig {
            heal: Some(HealPolicy::default()),
            ..Default::default()
        };
        let plan = ControlPlan::compile(&cfg, 2, &[kill(0, 10)], horizon_ms(50));
        let states: Vec<DeviceState> = plan.timeline(0).iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            vec![
                DeviceState::InService,
                DeviceState::Failed,
                DeviceState::Rebooting,
                DeviceState::InService,
            ]
        );
        assert!(!plan.admits(0, horizon_ms(12)));
        assert!(
            plan.admits(0, horizon_ms(15)),
            "detect (2ms) + reboot (3ms) after the kill the device re-admits"
        );
        assert_eq!(plan.state_at(0, horizon_ms(49)), DeviceState::InService);
    }

    #[test]
    fn kill_mid_drain_wins_and_the_overtaken_plan_is_skipped() {
        let cfg = ControlConfig {
            rolling: Some(RollingUpdate::starting_at(0.002)),
            ..Default::default()
        };
        // Kill device 0 while it is draining (drain covers [2ms, 4ms)).
        let plan = ControlPlan::compile(&cfg, 1, &[kill(0, 3)], horizon_ms(50));
        let states: Vec<DeviceState> = plan.timeline(0).iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            vec![
                DeviceState::InService,
                DeviceState::Draining,
                DeviceState::Failed,
            ],
            "no heal: the update plan dies with the device"
        );
        assert_eq!(plan.state_at(0, horizon_ms(49)), DeviceState::Failed);
    }

    #[test]
    fn double_kill_of_a_dead_device_is_a_no_op() {
        let cfg = ControlConfig::default();
        let plan = ControlPlan::compile(&cfg, 1, &[kill(0, 5), kill(0, 7)], horizon_ms(50));
        assert_eq!(plan.timeline(0).len(), 2, "in-service + one failed edge");
        assert_eq!(plan.counts().failed, 1);
    }

    #[test]
    fn compile_is_deterministic() {
        let cfg = ControlConfig {
            rolling: Some(RollingUpdate::starting_at(0.001)),
            heal: Some(HealPolicy::default()),
        };
        let kills = [kill(2, 4), kill(0, 9)];
        let a = ControlPlan::compile(&cfg, 4, &kills, horizon_ms(50));
        let b = ControlPlan::compile(&cfg, 4, &kills, horizon_ms(50));
        for d in 0..4 {
            assert_eq!(a.timeline(d), b.timeline(d));
        }
    }
}
