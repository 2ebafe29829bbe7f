//! Timed scan drivers: host-side filtering vs in-storage filtering.

use crate::store::decode_bucket;
use crate::{decode_pairs, KvScanApp, KvStore};
use morpheus::{MsStream, RunError, System};
use morpheus_host::CodeClass;
use morpheus_simcore::{SimDuration, SimTime};
use morpheus_ssd::PageRead;

/// Host binary-scan costs: a tight compare loop over resident buckets
/// (nothing like the `scanf` text path — this is memcmp-class code).
const HOST_SCAN_INSTR_PER_BYTE: f64 = 0.5;
const HOST_SCAN_INSTR_PER_RECORD: f64 = 4.0;

/// Matched pairs plus the scan's measurements.
pub type ScanOutcome = Result<(Vec<(u64, Vec<u8>)>, ScanReport), RunError>;

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

/// Conventional scan: the whole region streams to the host in 1 MiB READs
/// on I/O queue 1 ([`System::read_chunk`]), and the host CPU filters
/// their buckets.
///
/// # Errors
///
/// Propagates drive/fabric failures.
pub fn scan_conventional(sys: &mut System, kv: &KvStore, lo: u64, hi: u64) -> ScanOutcome {
    sys.reset_timing();
    let (slba, blocks) = kv.region();
    let stream = MsStream::extent(slba, blocks, 1 << 20);
    let buf_addr = sys.dram.alloc(stream.chunks()[0].valid_bytes);
    let buf_addr = buf_addr.expect("host buffer");
    let mut matches = Vec::new();
    let (mut cpu_ready, mut cpu_busy) = (SimTime::ZERO, SimDuration::ZERO);
    for c in stream.chunks() {
        let (pages, io_done) = sys.read_chunk(c, buf_addr, SimTime::ZERO)?;
        let raw = PageRead::gather(&pages);
        let mut records = 0u64;
        for b in raw.chunks_exact(kv.config().bucket_bytes as usize) {
            for (k, v) in decode_bucket(b) {
                records += 1;
                if (lo..=hi).contains(&k) {
                    matches.push((k, v));
                }
            }
        }
        let instr = c.valid_bytes as f64 * HOST_SCAN_INSTR_PER_BYTE
            + records as f64 * HOST_SCAN_INSTR_PER_RECORD;
        let cpu = sys.cpu.duration(instr, CodeClass::AppKernel);
        let iv = sys.cpu_cores.acquire(io_done.max(cpu_ready), cpu);
        cpu_ready = iv.end;
        cpu_busy += iv.duration();
        sys.membus.account(c.valid_bytes);
    }
    let result_bytes: u64 = matches.iter().map(|(_, v)| 10 + v.len() as u64).sum();
    let report = ScanReport {
        elapsed_s: cpu_ready.as_secs_f64(),
        host_cpu_busy_s: cpu_busy.as_secs_f64(),
        pcie_bytes: sys.fabric.traffic().total_bytes,
        matches: matches.len() as u64,
        result_bytes,
    };
    Ok((matches, report))
}

/// Morpheus scan: a [`KvScanApp`] filters inside the drive; only matches
/// cross the interconnect. The app runs as one StorageApp lifecycle
/// ([`System::run_storage_app`]) over the table's region in 8 MiB MREADs.
///
/// # Errors
///
/// Propagates firmware/drive failures and host-memory exhaustion; a failed
/// scan leaves no instance live.
pub fn scan_morpheus(sys: &mut System, kv: &KvStore, lo: u64, hi: u64) -> ScanOutcome {
    let (slba, blocks) = kv.region();
    let app = KvScanApp::new(kv.config().bucket_bytes, lo, hi);
    let run = sys.run_storage_app(Box::new(app), MsStream::extent(slba, blocks, 8 << 20))?;
    let matches = decode_pairs(&run.output);
    let report = ScanReport {
        elapsed_s: run.end.as_secs_f64(),
        host_cpu_busy_s: run.cpu_busy.as_secs_f64(),
        pcie_bytes: sys.fabric.traffic().total_bytes,
        matches: matches.len() as u64,
        result_bytes: run.output.len() as u64,
    };
    Ok((matches, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synth_pairs, KvConfig};
    use morpheus::{CommandPlan, SystemParams};

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
    fn a_scan_submits_its_plan_through_queue_1() {
        // 2,100 buckets of 4 KiB: an 8 MiB MREAD and a short one.
        let mut sys = System::new(SystemParams::paper_testbed());
        let cfg = KvConfig {
            buckets: 2_100,
            bucket_bytes: 4096,
            probe_limit: 4,
        };
        let kv = KvStore::format(&mut sys.mssd.dev, 0, cfg).unwrap();
        for (k, v) in synth_pairs(4_000, 1_000_000, 3) {
            kv.put(&mut sys.mssd.dev, k, &v).unwrap();
        }
        let (slba, blocks) = kv.region();
        let plan = CommandPlan::lower(MsStream::extent(slba, blocks, 8 << 20), 1, 0);
        assert_eq!(plan.reads(), 2);
        let queue = |sys: &mut System| {
            let qp = sys.mssd.admin.io_queue(1).unwrap();
            (
                qp.sq.doorbell_writes(),
                qp.sq.is_empty(),
                qp.cq.outstanding(),
            )
        };
        let (before, ..) = queue(&mut sys);
        let (pairs, _) = scan_morpheus(&mut sys, &kv, 0, 100_000).unwrap();
        assert!(!pairs.is_empty());
        let (after, drained, outstanding) = queue(&mut sys);
        assert_eq!(after - before, plan.commands().count() as u64);
        assert!(drained && outstanding == 0, "the rings are empty");
        assert_eq!(sys.mssd.live_instances(), 0);

        // The host scan streams the same 8.4 MB in nine 1 MiB READs, each
        // rung on the same queue.
        let (conv, _) = scan_conventional(&mut sys, &kv, 0, 100_000).unwrap();
        assert_eq!(conv, pairs);
        let (host, drained, outstanding) = queue(&mut sys);
        assert_eq!(host - after, 9);
        assert!(drained && outstanding == 0, "the rings are empty");
        assert_eq!(sys.cids_in_flight(), 0);
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
