//! Operating-system overhead model for the conventional read path.
//!
//! Profiling in §II shows the conventional deserialization path spends most
//! of its CPU time *around* the actual string conversion: `read()` syscalls,
//! file locking, POSIX guarantees, page-cache copies — plus a context-switch
//! storm because every blocking read and page fault enters the kernel. The
//! Morpheus path skips all of it ("StorageApp is not affected by the system
//! overheads of running applications on the host CPU", §III).
//!
//! [`OsModel`] prices that machinery: given a number of bytes pulled through
//! buffered reads it reports kernel instructions, syscall count, context
//! switches, and page faults, and accumulates totals for the context-switch
//! figures (Fig. 10).

use morpheus_simcore::round_u64;

/// Cost parameters of the conventional I/O path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsParams {
    /// Bytes returned per `read()` call (page-cache readahead window).
    pub read_window_bytes: u64,
    /// Kernel instructions per `read()` call: syscall entry/exit, VFS
    /// dispatch, file locking, POSIX bookkeeping.
    pub read_syscall_instructions: f64,
    /// Kernel instructions per byte copied from page cache to the user
    /// buffer.
    pub copy_per_byte_instructions: f64,
    /// Direct + indirect (cache/TLB pollution) instructions per context
    /// switch.
    pub context_switch_instructions: f64,
    /// Context switches per blocking `read()` (1.0 = every read blocks).
    pub switches_per_read: f64,
    /// Page faults per megabyte of newly touched buffer memory.
    pub faults_per_mb: f64,
    /// Kernel instructions per page fault.
    pub fault_instructions: f64,
}

impl Default for OsParams {
    fn default() -> Self {
        OsParams {
            read_window_bytes: 64 * 1024,
            read_syscall_instructions: 18_000.0,
            copy_per_byte_instructions: 0.35,
            context_switch_instructions: 24_000.0,
            switches_per_read: 1.0,
            faults_per_mb: 16.0,
            fault_instructions: 9_000.0,
        }
    }
}

/// Cost of a batch of OS work, before conversion to time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OsCost {
    /// Kernel-mode instructions to execute (at [`CodeClass::OsKernel`](crate::CodeClass::OsKernel) IPC).
    pub instructions: f64,
    /// `read()` calls issued.
    pub syscalls: u64,
    /// Context switches incurred.
    pub context_switches: u64,
    /// Page faults incurred.
    pub page_faults: u64,
}

/// Running totals of OS activity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OsAccounting {
    /// Total syscalls.
    pub syscalls: u64,
    /// Total context switches.
    pub context_switches: u64,
    /// Total page faults.
    pub page_faults: u64,
}

/// The OS overhead model with accumulated accounting.
#[derive(Debug, Clone)]
pub struct OsModel {
    params: OsParams,
    acct: OsAccounting,
}

impl OsModel {
    /// Creates a model with the given parameters.
    pub fn new(params: OsParams) -> Self {
        OsModel {
            params,
            acct: OsAccounting::default(),
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &OsParams {
        &self.params
    }

    /// Prices pulling `bytes` through buffered `read()` calls into a fresh
    /// user buffer, and accumulates the accounting.
    pub fn buffered_read(&mut self, bytes: u64) -> OsCost {
        if bytes == 0 {
            return OsCost::default();
        }
        let p = &self.params;
        let syscalls = bytes.div_ceil(p.read_window_bytes);
        let switches = round_u64(syscalls as f64 * p.switches_per_read);
        let faults = round_u64((bytes as f64 / (1 << 20) as f64) * p.faults_per_mb);
        let instructions = syscalls as f64 * p.read_syscall_instructions
            + bytes as f64 * p.copy_per_byte_instructions
            + switches as f64 * p.context_switch_instructions
            + faults as f64 * p.fault_instructions;
        self.acct.syscalls += syscalls;
        self.acct.context_switches += switches;
        self.acct.page_faults += faults;
        OsCost {
            instructions,
            syscalls,
            context_switches: switches,
            page_faults: faults,
        }
    }

    /// Prices a single interrupt-driven command completion (the Morpheus
    /// path: one wakeup per MREAD chunk instead of one per 64 KiB read).
    pub fn command_completion(&mut self) -> OsCost {
        let p = &self.params;
        self.acct.syscalls += 1;
        self.acct.context_switches += 1;
        OsCost {
            instructions: p.read_syscall_instructions + p.context_switch_instructions,
            syscalls: 1,
            context_switches: 1,
            page_faults: 0,
        }
    }

    /// Accumulated totals.
    pub fn accounting(&self) -> OsAccounting {
        self.acct
    }

    /// Clears the accounting.
    pub fn reset(&mut self) {
        self.acct = OsAccounting::default();
    }
}

impl Default for OsModel {
    fn default() -> Self {
        Self::new(OsParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_costs_scale_with_bytes() {
        let mut os = OsModel::default();
        let small = os.buffered_read(64 * 1024);
        let large = os.buffered_read(64 * 1024 * 100);
        assert_eq!(small.syscalls, 1);
        assert_eq!(large.syscalls, 100);
        assert!(large.instructions > small.instructions * 50.0);
    }

    #[test]
    fn zero_read_is_free() {
        let mut os = OsModel::default();
        let c = os.buffered_read(0);
        assert_eq!(c, OsCost::default());
    }

    #[test]
    fn partial_window_rounds_up() {
        let mut os = OsModel::default();
        assert_eq!(os.buffered_read(1).syscalls, 1);
        assert_eq!(os.buffered_read(64 * 1024 + 1).syscalls, 2);
    }

    #[test]
    fn morpheus_completion_is_far_cheaper_than_reads() {
        let mut os = OsModel::default();
        // 32 MiB chunk: conventional needs 512 reads, Morpheus one wakeup.
        let conventional = os.buffered_read(32 << 20);
        let morpheus = os.command_completion();
        assert!(conventional.context_switches > 100 * morpheus.context_switches);
        assert!(conventional.instructions > 100.0 * morpheus.instructions);
    }

    #[test]
    fn accounting_accumulates_and_resets() {
        let mut os = OsModel::default();
        os.buffered_read(1 << 20);
        os.command_completion();
        let a = os.accounting();
        assert_eq!(a.syscalls, 16 + 1);
        assert!(a.context_switches >= 17);
        os.reset();
        assert_eq!(os.accounting(), OsAccounting::default());
    }

    #[test]
    fn page_faults_grow_with_buffer_size() {
        let mut os = OsModel::default();
        let c = os.buffered_read(10 << 20);
        assert_eq!(c.page_faults, 160);
    }
}
