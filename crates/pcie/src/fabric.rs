//! The switch fabric: devices, BAR address map, DMA routing, traffic.

use crate::LinkConfig;
use morpheus_simcore::{FaultDice, SimDuration, SimTime, Timeline, TraceLayer, Tracer};
use std::error::Error;
use std::fmt;

/// Bus addresses below this resolve to host DRAM through the root complex;
/// BAR windows are allocated above it.
pub const HOST_MEMORY_TOP: u64 = 1 << 40;

/// Identifies a device attached to the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

/// A mapped BAR window in bus address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarWindow {
    /// First bus address of the window.
    pub base: u64,
    /// Window size in bytes.
    pub size: u64,
    /// Owning device.
    pub device: DeviceId,
}

impl BarWindow {
    /// True if `addr` falls inside the window.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < self.size
    }
}

/// What a bus address resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Host DRAM, reached through the root complex.
    HostMemory,
    /// A peer device's BAR.
    Device(DeviceId),
    /// No mapping — the TLP would raise an unsupported-request error.
    Unmapped,
}

/// Direction of a DMA issued by a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDir {
    /// The device reads from `addr` (data flows toward the device).
    Read,
    /// The device writes to `addr` (data flows from the device).
    Write,
}

/// Completed DMA description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaOutcome {
    /// When the transfer started moving data.
    pub start: SimTime,
    /// When the last byte landed.
    pub end: SimTime,
    /// What the address resolved to.
    pub target: Target,
    /// True if the transfer never crossed the root complex.
    pub peer_to_peer: bool,
}

/// Per-fabric traffic counters (bytes that crossed each domain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes that crossed the root-complex link (host-bound traffic).
    pub root_bytes: u64,
    /// Bytes moved device-to-device without touching the root complex.
    pub p2p_bytes: u64,
    /// Total bytes DMAed through the switch.
    pub total_bytes: u64,
    /// DMAs that ran over a fault-injected degraded link.
    pub degraded_dmas: u64,
}

/// Injected link-quality faults: each DMA rolls the dice; a hit stretches
/// its service time by `factor` (replay/retrain overhead on a flaky link).
#[derive(Debug)]
struct LinkFaults {
    dice: FaultDice,
    factor: f64,
}

/// Errors from the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieError {
    /// DMA to/from an address no BAR or DRAM range claims.
    UnmappedAddress(u64),
    /// A device tried to DMA to its own BAR (loopback is not modelled).
    Loopback(DeviceId),
}

impl fmt::Display for PcieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcieError::UnmappedAddress(a) => write!(f, "unmapped bus address {a:#x}"),
            PcieError::Loopback(_) => write!(f, "device dma to its own bar"),
        }
    }
}

impl Error for PcieError {}

#[derive(Debug)]
struct DeviceSlot {
    link: LinkConfig,
    /// Data leaving the device (toward the switch).
    tx: Timeline,
    /// Data arriving at the device.
    rx: Timeline,
    bytes: u64,
}

/// The PCIe switch fabric with its attached devices and the root complex.
///
/// Transfers are cut-through: a DMA occupies the source link and the
/// destination link over the same window, paced by the slower of the two,
/// plus a fixed per-transfer hop latency. Concurrent DMAs sharing a link
/// queue FIFO on that link's timeline.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Fabric {
    root_link: LinkConfig,
    devices: Vec<DeviceSlot>,
    bars: Vec<BarWindow>,
    next_bar_base: u64,
    /// Root-complex link toward host memory (writes to DRAM).
    root_down: Timeline,
    /// Root-complex link from host memory (reads from DRAM).
    root_up: Timeline,
    /// Per-transfer latency (switch + completion overhead).
    hop_latency: SimDuration,
    traffic: TrafficStats,
    tracer: Tracer,
    link_faults: Option<LinkFaults>,
}

impl Fabric {
    /// Creates a fabric whose root-complex link has the given configuration.
    pub fn new(root_link: LinkConfig) -> Self {
        Fabric {
            root_link,
            devices: Vec::new(),
            bars: Vec::new(),
            next_bar_base: HOST_MEMORY_TOP,
            root_down: Timeline::new("root-down", 1),
            root_up: Timeline::new("root-up", 1),
            hop_latency: SimDuration::from_nanos(500),
            traffic: TrafficStats::default(),
            tracer: Tracer::disabled(),
            link_faults: None,
        }
    }

    /// Arms link-degradation fault injection: every subsequent DMA rolls
    /// `dice`, and a hit multiplies that transfer's service time by
    /// `factor` (link-level replay/retrain overhead). Disabled by default.
    pub fn set_link_faults(&mut self, dice: FaultDice, factor: f64) {
        self.link_faults = Some(LinkFaults { dice, factor });
    }

    /// Installs a trace handle; DMA transfers record through it (disabled
    /// by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a device with its own link and returns its id.
    pub fn add_device(&mut self, name: impl Into<String>, link: LinkConfig) -> DeviceId {
        let name = name.into();
        self.devices.push(DeviceSlot {
            tx: Timeline::new(format!("{name}-tx"), 1),
            rx: Timeline::new(format!("{name}-rx"), 1),
            link,
            bytes: 0,
        });
        DeviceId(self.devices.len() - 1)
    }

    /// Maps a BAR window of `size` bytes for `device` and returns it.
    ///
    /// This is the operation NVMe-P2P performs on the GPU's behalf (via
    /// GPUDirect / DirectGMA) so the SSD can address GPU memory directly.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::UnmappedAddress`] if `size` is zero (nothing to
    /// map).
    pub fn map_bar(&mut self, device: DeviceId, size: u64) -> Result<BarWindow, PcieError> {
        if size == 0 {
            return Err(PcieError::UnmappedAddress(self.next_bar_base));
        }
        // Align windows to 1 MiB like real BAR allocation.
        const ALIGN: u64 = 1 << 20;
        let base = self.next_bar_base;
        let span = size.div_ceil(ALIGN) * ALIGN;
        self.next_bar_base += span;
        let win = BarWindow { base, size, device };
        self.bars.push(win);
        Ok(win)
    }

    /// Resolves a bus address exactly as the switch routes TLPs.
    pub fn route(&self, addr: u64) -> Target {
        if addr < HOST_MEMORY_TOP {
            return Target::HostMemory;
        }
        for w in &self.bars {
            if w.contains(addr) {
                return Target::Device(w.device);
            }
        }
        Target::Unmapped
    }

    /// Performs a DMA of `bytes` issued by `initiator` against bus address
    /// `addr`, starting no earlier than `ready`.
    ///
    /// # Errors
    ///
    /// Returns [`PcieError::UnmappedAddress`] if no window claims `addr`
    /// and [`PcieError::Loopback`] if the address resolves to the
    /// initiator itself.
    pub fn dma(
        &mut self,
        initiator: DeviceId,
        dir: DmaDir,
        addr: u64,
        bytes: u64,
        ready: SimTime,
    ) -> Result<DmaOutcome, PcieError> {
        let target = self.route(addr);
        if bytes == 0 {
            return Ok(DmaOutcome {
                start: ready,
                end: ready,
                target,
                peer_to_peer: !matches!(target, Target::HostMemory),
            });
        }
        let (peer_bw, p2p) = match target {
            Target::HostMemory => (self.root_link.bandwidth(), false),
            Target::Device(d) => {
                if d == initiator {
                    return Err(PcieError::Loopback(d));
                }
                (self.devices[d.0].link.bandwidth(), true)
            }
            Target::Unmapped => return Err(PcieError::UnmappedAddress(addr)),
        };
        let init_bw = self.devices[initiator.0].link.bandwidth();
        let pace = if init_bw.bytes_per_s() < peer_bw.bytes_per_s() {
            init_bw
        } else {
            peer_bw
        };
        let mut service = pace.duration_for(bytes);
        let mut degraded = false;
        if let Some(lf) = &mut self.link_faults {
            if lf.dice.roll() {
                let stretched = (service.as_nanos() as f64 * lf.factor).round() as u64;
                service = SimDuration::from_nanos(stretched);
                degraded = true;
            }
        }

        // Cut-through: both links occupied over the same window, which
        // begins when both are free.
        let start_at = {
            let a = match dir {
                DmaDir::Write => self.devices[initiator.0].tx.horizon(),
                DmaDir::Read => self.devices[initiator.0].rx.horizon(),
            };
            let b = match (target, dir) {
                (Target::HostMemory, DmaDir::Write) => self.root_down.horizon(),
                (Target::HostMemory, DmaDir::Read) => self.root_up.horizon(),
                (Target::Device(d), DmaDir::Write) => self.devices[d.0].rx.horizon(),
                (Target::Device(d), DmaDir::Read) => self.devices[d.0].tx.horizon(),
                (Target::Unmapped, _) => unreachable!("checked above"),
            };
            ready.max(a).max(b)
        };
        let iv = match dir {
            DmaDir::Write => self.devices[initiator.0].tx.acquire(start_at, service),
            DmaDir::Read => self.devices[initiator.0].rx.acquire(start_at, service),
        };
        match (target, dir) {
            (Target::HostMemory, DmaDir::Write) => {
                self.root_down.acquire(start_at, service);
            }
            (Target::HostMemory, DmaDir::Read) => {
                self.root_up.acquire(start_at, service);
            }
            (Target::Device(d), DmaDir::Write) => {
                self.devices[d.0].rx.acquire(start_at, service);
            }
            (Target::Device(d), DmaDir::Read) => {
                self.devices[d.0].tx.acquire(start_at, service);
            }
            (Target::Unmapped, _) => unreachable!("checked above"),
        }

        {
            let slot = &self.devices[initiator.0];
            let track = match dir {
                DmaDir::Write => slot.tx.name(),
                DmaDir::Read => slot.rx.name(),
            };
            let name = if p2p { "dma-p2p" } else { "dma-host" };
            self.tracer
                .span_bytes(TraceLayer::Pcie, track, name, iv.start, iv.end, bytes);
            if degraded {
                self.tracer
                    .instant(TraceLayer::Pcie, track, "link-degraded", iv.start);
            }
        }

        if degraded {
            self.traffic.degraded_dmas += 1;
        }

        self.devices[initiator.0].bytes += bytes;
        self.traffic.total_bytes += bytes;
        if p2p {
            self.traffic.p2p_bytes += bytes;
            if let Target::Device(d) = target {
                self.devices[d.0].bytes += bytes;
            }
        } else {
            self.traffic.root_bytes += bytes;
        }

        Ok(DmaOutcome {
            start: iv.start,
            end: iv.end + self.hop_latency,
            target,
            peer_to_peer: p2p,
        })
    }

    /// Traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Bytes that crossed a particular device's link (both directions).
    pub fn device_bytes(&self, id: DeviceId) -> u64 {
        self.devices[id.0].bytes
    }

    /// Overrides the per-transfer hop latency.
    pub fn set_hop_latency(&mut self, latency: SimDuration) {
        self.hop_latency = latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcieGen;

    fn fabric() -> (Fabric, DeviceId, DeviceId) {
        let mut f = Fabric::new(LinkConfig::new(PcieGen::Gen3, 8));
        let ssd = f.add_device("ssd", LinkConfig::new(PcieGen::Gen3, 4));
        let gpu = f.add_device("gpu", LinkConfig::new(PcieGen::Gen3, 16));
        (f, ssd, gpu)
    }

    #[test]
    fn host_addresses_route_to_host() {
        let (f, _, _) = fabric();
        assert_eq!(f.route(0), Target::HostMemory);
        assert_eq!(f.route(HOST_MEMORY_TOP - 1), Target::HostMemory);
        assert_eq!(f.route(HOST_MEMORY_TOP), Target::Unmapped);
    }

    #[test]
    fn bar_mapping_routes_to_device() {
        let (mut f, _, gpu) = fabric();
        let w = f.map_bar(gpu, 4096).unwrap();
        assert_eq!(f.route(w.base), Target::Device(gpu));
        assert_eq!(f.route(w.base + 4095), Target::Device(gpu));
        assert_eq!(f.route(w.base + 4096), Target::Unmapped);
    }

    #[test]
    fn bars_do_not_overlap() {
        let (mut f, ssd, gpu) = fabric();
        let a = f.map_bar(gpu, 3 << 20).unwrap();
        let b = f.map_bar(ssd, 1 << 20).unwrap();
        assert!(a.base + a.size <= b.base);
    }

    #[test]
    fn host_dma_crosses_root_link() {
        let (mut f, ssd, _) = fabric();
        let out = f
            .dma(ssd, DmaDir::Write, 0x1000, 1 << 20, SimTime::ZERO)
            .unwrap();
        assert!(!out.peer_to_peer);
        assert_eq!(f.traffic().root_bytes, 1 << 20);
        assert_eq!(f.traffic().p2p_bytes, 0);
    }

    #[test]
    fn p2p_dma_avoids_root_link() {
        let (mut f, ssd, gpu) = fabric();
        let w = f.map_bar(gpu, 1 << 24).unwrap();
        let out = f
            .dma(ssd, DmaDir::Write, w.base, 1 << 20, SimTime::ZERO)
            .unwrap();
        assert!(out.peer_to_peer);
        assert_eq!(f.traffic().root_bytes, 0);
        assert_eq!(f.traffic().p2p_bytes, 1 << 20);
        assert_eq!(f.device_bytes(gpu), 1 << 20);
    }

    #[test]
    fn transfer_paced_by_slower_link() {
        let (mut f, ssd, gpu) = fabric();
        let w = f.map_bar(gpu, 1 << 24).unwrap();
        f.set_hop_latency(SimDuration::ZERO);
        let bytes = 100 << 20;
        let out = f
            .dma(ssd, DmaDir::Write, w.base, bytes, SimTime::ZERO)
            .unwrap();
        let ssd_bw = LinkConfig::new(PcieGen::Gen3, 4).bandwidth();
        let expect = ssd_bw.duration_for(bytes);
        assert_eq!(out.end.duration_since(out.start), expect);
    }

    #[test]
    fn concurrent_dmas_contend_on_shared_link() {
        let (mut f, ssd, _) = fabric();
        f.set_hop_latency(SimDuration::ZERO);
        let a = f
            .dma(ssd, DmaDir::Write, 0, 1 << 20, SimTime::ZERO)
            .unwrap();
        let b = f
            .dma(ssd, DmaDir::Write, 0, 1 << 20, SimTime::ZERO)
            .unwrap();
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn reads_and_writes_use_independent_directions() {
        let (mut f, ssd, _) = fabric();
        f.set_hop_latency(SimDuration::ZERO);
        let w = f
            .dma(ssd, DmaDir::Write, 0, 1 << 20, SimTime::ZERO)
            .unwrap();
        let r = f.dma(ssd, DmaDir::Read, 0, 1 << 20, SimTime::ZERO).unwrap();
        // Full duplex: both start at time zero.
        assert_eq!(w.start, r.start);
    }

    #[test]
    fn loopback_rejected() {
        let (mut f, ssd, _) = fabric();
        let w = f.map_bar(ssd, 4096).unwrap();
        assert_eq!(
            f.dma(ssd, DmaDir::Write, w.base, 64, SimTime::ZERO)
                .unwrap_err(),
            PcieError::Loopback(ssd)
        );
    }

    #[test]
    fn unmapped_dma_rejected() {
        let (mut f, ssd, _) = fabric();
        assert!(matches!(
            f.dma(ssd, DmaDir::Write, HOST_MEMORY_TOP + 5, 64, SimTime::ZERO),
            Err(PcieError::UnmappedAddress(_))
        ));
    }

    #[test]
    fn zero_byte_dma_is_instant() {
        let (mut f, ssd, _) = fabric();
        let out = f.dma(ssd, DmaDir::Write, 0, 0, SimTime::ZERO).unwrap();
        assert_eq!(out.start, out.end);
        assert_eq!(f.traffic().total_bytes, 0);
    }

    #[test]
    fn degraded_link_stretches_service() {
        let (mut f, ssd, _) = fabric();
        f.set_hop_latency(SimDuration::ZERO);
        let clean = f
            .dma(ssd, DmaDir::Write, 0, 1 << 20, SimTime::ZERO)
            .unwrap();
        let base = clean.end.duration_since(clean.start);
        let dice = morpheus_simcore::FaultPlan::none().dice("pcie-link", 1.0);
        f.set_link_faults(dice, 4.0);
        let slow = f.dma(ssd, DmaDir::Write, 0, 1 << 20, clean.end).unwrap();
        assert_eq!(
            slow.end.duration_since(slow.start).as_nanos(),
            base.as_nanos() * 4
        );
        assert_eq!(f.traffic().degraded_dmas, 1);
    }
}
