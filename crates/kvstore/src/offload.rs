//! Timed scan drivers: host-side filtering vs in-storage filtering.

use crate::store::decode_bucket;
use crate::{decode_pairs, KvError, KvScanApp, KvStore};
use morpheus::{RunError, System};
use morpheus_host::CodeClass;
use morpheus_nvme::LBA_BYTES;
use morpheus_pcie::DmaDir;
use morpheus_simcore::{SimDuration, SimTime};

/// Host binary-scan costs: a tight compare loop over resident buckets
/// (nothing like the `scanf` text path — this is memcmp-class code).
const HOST_SCAN_INSTR_PER_BYTE: f64 = 0.5;
const HOST_SCAN_INSTR_PER_RECORD: f64 = 4.0;

/// Matched pairs plus the scan's measurements.
pub type ScanOutcome<E> = Result<(Vec<(u64, Vec<u8>)>, ScanReport), E>;

/// Measurements of one scan.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Wall time of the scan.
    pub elapsed_s: f64,
    /// Host CPU busy time.
    pub host_cpu_busy_s: f64,
    /// Bytes that crossed the PCIe fabric.
    pub pcie_bytes: u64,
    /// Pairs matched.
    pub matches: u64,
    /// Bytes of matches delivered to the host.
    pub result_bytes: u64,
}

/// Conventional scan: the whole region streams to the host, which filters
/// it on the CPU.
///
/// # Errors
///
/// Propagates drive/fabric failures.
pub fn scan_conventional(sys: &mut System, kv: &KvStore, lo: u64, hi: u64) -> ScanOutcome<KvError> {
    sys.reset_timing();
    let (slba, blocks) = kv.region();
    let bucket_bytes = kv.config().bucket_bytes as u64;
    let chunk_blocks = ((1 << 20) / LBA_BYTES).min(blocks);
    let buf_addr = sys
        .dram
        .alloc(chunk_blocks * LBA_BYTES)
        .expect("host buffer");

    let mut matches = Vec::new();
    let mut cpu_ready = SimTime::ZERO;
    let mut cpu_busy = SimDuration::ZERO;
    let mut done = SimTime::ZERO;
    let mut at = 0u64;
    while at < blocks {
        let take = chunk_blocks.min(blocks - at);
        let (raw, t) = sys.mssd.dev.read_range(slba + at, take, SimTime::ZERO)?;
        let dma = sys
            .fabric
            .dma(
                sys.ssd_device(),
                DmaDir::Write,
                buf_addr,
                take * LBA_BYTES,
                t,
            )
            .expect("host buffer address is always mapped");
        let mb = sys.membus.transfer(dma.start, take * LBA_BYTES);
        let io_done = dma.end.max(mb.end);

        // Host CPU filters the resident buckets.
        let mut records = 0u64;
        for b in raw.chunks_exact(bucket_bytes as usize) {
            for (k, v) in decode_bucket(b) {
                records += 1;
                if (lo..=hi).contains(&k) {
                    matches.push((k, v));
                }
            }
        }
        let instr = (take * LBA_BYTES) as f64 * HOST_SCAN_INSTR_PER_BYTE
            + records as f64 * HOST_SCAN_INSTR_PER_RECORD;
        let iv = sys.cpu_cores.acquire(
            io_done.max(cpu_ready),
            sys.cpu.duration(instr, CodeClass::AppKernel),
        );
        cpu_ready = iv.end;
        cpu_busy += iv.duration();
        sys.membus.account(take * LBA_BYTES);
        done = done.max(iv.end);
        at += take;
    }
    let result_bytes: u64 = matches.iter().map(|(_, v)| 10 + v.len() as u64).sum();
    let report = ScanReport {
        elapsed_s: done.as_secs_f64(),
        host_cpu_busy_s: cpu_busy.as_secs_f64(),
        pcie_bytes: sys.fabric.traffic().total_bytes,
        matches: matches.len() as u64,
        result_bytes,
    };
    Ok((matches, report))
}

/// Morpheus scan: a [`KvScanApp`] filters inside the drive; only matches
/// cross the interconnect.
///
/// # Errors
///
/// Propagates firmware/drive failures and host-memory exhaustion; a failed
/// scan aborts its instance, so none outlives it with its controller DRAM.
pub fn scan_morpheus(sys: &mut System, kv: &KvStore, lo: u64, hi: u64) -> ScanOutcome<RunError> {
    sys.reset_timing();
    let iid = sys.allocate_instance_id();
    let out = scan_on_instance(sys, kv, iid, lo, hi);
    if out.is_err() {
        sys.mssd.abort_instance(iid);
    }
    out
}

/// The body of [`scan_morpheus`] on instance `iid`.
fn scan_on_instance(
    sys: &mut System,
    kv: &KvStore,
    iid: u32,
    lo: u64,
    hi: u64,
) -> ScanOutcome<RunError> {
    let (slba, blocks) = kv.region();
    let init_iv = sys.command_wakeup(SimTime::ZERO);
    let mut cpu_busy = init_iv.duration();
    let app = KvScanApp::new(kv.config().bucket_bytes, lo, hi);
    let ready = sys.mssd.minit(iid, Box::new(app), init_iv.end)?;

    let chunk_blocks = ((8 << 20) / LBA_BYTES).min(blocks);
    let mut out_bytes = Vec::new();
    let mut last = ready;
    let mut at = 0u64;
    while at < blocks {
        let take = chunk_blocks.min(blocks - at);
        let out = sys
            .mssd
            .mread(iid, slba + at, take, take * LBA_BYTES, ready)?;
        if !out.output.is_empty() {
            let addr = sys
                .dram
                .alloc(out.output.len() as u64)
                .ok_or(RunError::OutOfHostMemory)?;
            let dma = sys.fabric.dma(
                sys.ssd_device(),
                DmaDir::Write,
                addr,
                out.output.len() as u64,
                out.done,
            )?;
            sys.membus.transfer(dma.start, out.output.len() as u64);
            let iv = sys.command_wakeup(dma.end);
            cpu_busy += iv.duration();
            last = last.max(iv.end);
        } else {
            last = last.max(out.done);
        }
        out_bytes.extend_from_slice(&out.output);
        at += take;
    }
    let dein = sys.mssd.mdeinit(iid, last)?;
    out_bytes.extend_from_slice(&dein.host_output);
    let iv = sys.command_wakeup(dein.done.max(last));
    cpu_busy += iv.duration();

    let matches = decode_pairs(&out_bytes);
    let report = ScanReport {
        elapsed_s: iv.end.as_secs_f64(),
        host_cpu_busy_s: cpu_busy.as_secs_f64(),
        pcie_bytes: sys.fabric.traffic().total_bytes,
        matches: matches.len() as u64,
        result_bytes: out_bytes.len() as u64,
    };
    Ok((matches, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synth_pairs, KvConfig};
    use morpheus::SystemParams;

    fn populated_system() -> (System, KvStore) {
        populated(SystemParams::paper_testbed())
    }

    fn populated(params: SystemParams) -> (System, KvStore) {
        let mut sys = System::new(params);
        let kv = KvStore::format(
            &mut sys.mssd.dev,
            0,
            KvConfig {
                buckets: 256,
                bucket_bytes: 4096,
                probe_limit: 4,
            },
        )
        .unwrap();
        for (k, v) in synth_pairs(4_000, 1_000_000, 3) {
            kv.put(&mut sys.mssd.dev, k, &v).unwrap();
        }
        (sys, kv)
    }

    #[test]
    fn both_scans_agree_and_offload_saves_traffic() {
        let (mut sys, kv) = populated_system();
        let (lo, hi) = (0u64, 100_000u64); // ~10% selectivity
        let (conv, conv_rep) = scan_conventional(&mut sys, &kv, lo, hi).unwrap();
        let (morp, morp_rep) = scan_morpheus(&mut sys, &kv, lo, hi).unwrap();
        assert_eq!(conv, morp);
        assert_eq!(conv_rep.matches, morp_rep.matches);
        assert!(
            morp_rep.pcie_bytes < conv_rep.pcie_bytes / 5,
            "selective scan should slash transfers: {} vs {}",
            morp_rep.pcie_bytes,
            conv_rep.pcie_bytes
        );
        assert!(morp_rep.host_cpu_busy_s < conv_rep.host_cpu_busy_s);
    }

    #[test]
    fn full_range_scan_still_correct() {
        let (mut sys, kv) = populated_system();
        let (conv, _) = scan_conventional(&mut sys, &kv, 0, u64::MAX).unwrap();
        let (morp, morp_rep) = scan_morpheus(&mut sys, &kv, 0, u64::MAX).unwrap();
        assert_eq!(conv.len(), 4_000);
        assert_eq!(conv, morp);
        assert_eq!(morp_rep.matches, 4_000);
    }

    #[test]
    fn a_scan_whose_matches_find_no_host_memory_leaves_no_instance_live() {
        let mut params = SystemParams::paper_testbed();
        params.host_dram_bytes = 4 << 10;
        let (mut sys, kv) = populated(params);
        let err = scan_morpheus(&mut sys, &kv, 0, u64::MAX).unwrap_err();
        assert!(matches!(err, RunError::OutOfHostMemory), "{err:?}");
        assert_eq!(sys.mssd.live_instances(), 0);
        assert_eq!(sys.mssd.dev.dram_used(), 0, "staging area returned");
    }
}
