//! Multi-tenant deserialization: several applications sharing one platform.
//!
//! §III argues the Morpheus model shines in multiprogrammed environments:
//! each tenant's StorageApp occupies *its own* embedded core (instances pin
//! per §IV-B), so tenants scale with the drive's core count while the host
//! CPU stays free; conventional tenants instead fight for host cores, the
//! memory bus, and the scheduler. [`System::run_deserialize_many`] executes
//! the deserialization phase of N tenants concurrently — chunks are issued
//! round-robin so resource contention is modelled at chunk granularity —
//! and reports per-tenant and aggregate throughput.
//!
//! The per-tenant state machine ([`TenantState`]) is shared with the
//! open-loop serving layer (`serve.rs`), which steps tenants one request
//! at a time instead of round-robin.

use crate::deser_memo::{self, MemoKey};
use crate::exec::{AppSpec, RunError};
use crate::report::{mb_per_sec, Mode};
use crate::system::ChunkIo;
use crate::{DeserializeApp, StorageKind, System};
use morpheus_format::{ParseWork, ParsedColumns, StreamingParser};
use morpheus_host::CodeClass;
use morpheus_pcie::{BarWindow, DmaDir};
use morpheus_simcore::SimTime;
use std::sync::Arc;

/// One tenant's outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Application name.
    pub app: String,
    /// Execution mode.
    pub mode: Mode,
    /// When this tenant's objects were all delivered.
    pub deser_s: f64,
    /// Records deserialized.
    pub records: u64,
    /// Object checksum (must match a solo run of the same input).
    pub checksum: u64,
    /// Binary object bytes produced.
    pub object_bytes: u64,
}

/// Aggregate outcome of a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Per-tenant results, in input order.
    pub tenants: Vec<TenantReport>,
    /// Time until the slowest tenant finished.
    pub makespan_s: f64,
    /// Aggregate object throughput over the makespan, MB/s.
    pub aggregate_mbs: f64,
    /// Context switches across all tenants.
    pub context_switches: u64,
}

/// Per-tenant progress state, stepped one chunk at a time. Built via
/// [`System::conventional_tenant`] / [`System::morpheus_tenant`] and driven
/// with [`System::step_tenant`] / [`System::finish_tenant`].
pub(crate) enum TenantState {
    /// Host-side `read()`+parse tenant.
    Conventional {
        spec: AppSpec,
        chunks: Vec<ChunkIo>,
        next: usize,
        parser: StreamingParser,
        last_work: ParseWork,
        buf_addr: u64,
        /// No I/O is issued before this time (the dispatch instant).
        start: SimTime,
        cpu_ready: SimTime,
    },
    /// In-SSD StorageApp tenant.
    Morpheus {
        spec: AppSpec,
        chunks: Vec<ChunkIo>,
        next: usize,
        iid: u32,
        /// Instance-ready floor every MREAD respects (fault injection may
        /// push it back).
        ready: SimTime,
        last_end: SimTime,
        obj_bin: Vec<u8>,
        /// P2P delivery window; `None` delivers objects to host DRAM.
        bar: Option<BarWindow>,
        /// Device memo key (fault-free runs only), under which this
        /// lifecycle's decoded objects are published for later reuse.
        memo_key: Option<MemoKey>,
        /// Decoded objects from an earlier identical lifecycle. When
        /// present the byte-stream assembly and final decode are skipped;
        /// every timed step (flash, cores, DMA, bus) still runs live.
        prefab: Option<Arc<ParsedColumns>>,
    },
}

impl TenantState {
    pub(crate) fn finished_chunks(&self) -> bool {
        match self {
            TenantState::Conventional { chunks, next, .. } => *next >= chunks.len(),
            TenantState::Morpheus { chunks, next, .. } => *next >= chunks.len(),
        }
    }
}

impl System {
    /// Builds a conventional tenant whose first I/O happens no earlier
    /// than `start`.
    pub(crate) fn conventional_tenant(
        &mut self,
        spec: &AppSpec,
        start: SimTime,
    ) -> Result<TenantState, RunError> {
        let meta = self
            .fs
            .open(&spec.input)
            .map_err(|_| RunError::UnknownFile(spec.input.clone()))?
            .clone();
        let chunks = Self::file_chunks(&meta, self.params.conventional_chunk_bytes);
        let buf_addr = self
            .dram
            .alloc(self.params.conventional_chunk_bytes)
            .ok_or(RunError::OutOfHostMemory)?;
        Ok(TenantState::Conventional {
            chunks,
            next: 0,
            parser: StreamingParser::new(spec.schema.clone()),
            last_work: ParseWork::default(),
            buf_addr,
            start,
            cpu_ready: start,
            spec: spec.clone(),
        })
    }

    /// Builds a Morpheus tenant: takes the MINIT syscall on a host core no
    /// earlier than `start` and initializes instance `iid` on the drive.
    /// The caller picks `iid` (so a dispatcher can pin instances to
    /// embedded cores) and the delivery target (`bar` for P2P).
    pub(crate) fn morpheus_tenant(
        &mut self,
        spec: &AppSpec,
        iid: u32,
        start: SimTime,
        bar: Option<BarWindow>,
    ) -> Result<TenantState, RunError> {
        let meta = self
            .fs
            .open(&spec.input)
            .map_err(|_| RunError::UnknownFile(spec.input.clone()))?
            .clone();
        let chunks = Self::file_chunks(&meta, self.params.mread_chunk_bytes);
        let memo_key = self.device_memo_key(spec, &chunks);
        let prefab = memo_key.and_then(deser_memo::objects_get);
        let c = self.os.command_completion();
        let iv = self.cpu_cores.acquire(
            start,
            self.cpu.duration(c.instructions, CodeClass::OsKernel),
        );
        let app = DeserializeApp::new(&spec.name, spec.schema.clone());
        let ready = self
            .mssd
            .minit_keyed(iid, Box::new(app), iv.end, memo_key)?;
        Ok(TenantState::Morpheus {
            chunks,
            next: 0,
            iid,
            ready,
            last_end: ready,
            obj_bin: Vec::new(),
            bar,
            memo_key,
            prefab,
            spec: spec.clone(),
        })
    }

    /// Runs the deserialization phase of several tenants concurrently.
    ///
    /// Chunks are issued round-robin across tenants, so host cores, the
    /// memory bus, flash channels, embedded cores, and PCIe links all
    /// contend exactly as the shared timelines dictate. Only
    /// [`Mode::Conventional`] and [`Mode::Morpheus`] tenants are supported
    /// (P2P is a single-accelerator concept), and only text inputs.
    ///
    /// # Errors
    ///
    /// Fails on an empty tenant list ([`RunError::NoTenants`]), unknown
    /// files, parse failures, firmware faults, or an unsupported mode.
    pub fn run_deserialize_many(
        &mut self,
        tenants: &[(AppSpec, Mode)],
    ) -> Result<ConcurrentReport, RunError> {
        if tenants.is_empty() {
            return Err(RunError::NoTenants);
        }
        self.reset_timing();
        assert!(
            self.params.storage == StorageKind::NvmeSsd,
            "concurrent runs model the NVMe path"
        );
        let mut states = Vec::with_capacity(tenants.len());
        for (spec, mode) in tenants {
            let state = match mode {
                Mode::Conventional => self.conventional_tenant(spec, SimTime::ZERO)?,
                Mode::Morpheus => {
                    let iid = self.alloc_instance();
                    self.morpheus_tenant(spec, iid, SimTime::ZERO, None)?
                }
                Mode::MorpheusP2P => return Err(RunError::NotGpuApp(spec.name.clone())),
            };
            states.push(state);
        }

        // Round-robin chunk issue until everyone has drained their file.
        loop {
            let mut progressed = false;
            for t in states.iter_mut() {
                if t.finished_chunks() {
                    continue;
                }
                progressed = true;
                self.step_tenant(t)?;
            }
            if !progressed {
                break;
            }
        }

        // Finish every tenant and assemble reports.
        let mut reports = Vec::with_capacity(states.len());
        let mut makespan = SimTime::ZERO;
        for t in states.iter_mut() {
            let (name, mode, end, objects) = self.finish_tenant(t)?;
            makespan = makespan.max(end);
            reports.push(TenantReport {
                app: name,
                mode,
                deser_s: end.as_secs_f64(),
                records: objects.records,
                checksum: objects.checksum(),
                object_bytes: objects.binary_bytes(),
            });
        }
        let makespan_s = makespan.as_secs_f64();
        let total_obj: u64 = reports.iter().map(|r| r.object_bytes).sum();
        Ok(ConcurrentReport {
            aggregate_mbs: mb_per_sec(total_obj, makespan_s),
            tenants: reports,
            makespan_s,
            context_switches: self.os.accounting().context_switches,
        })
    }

    /// Issues one chunk of one tenant.
    pub(crate) fn step_tenant(&mut self, t: &mut TenantState) -> Result<(), RunError> {
        match t {
            TenantState::Conventional {
                spec,
                chunks,
                next,
                parser,
                last_work,
                buf_addr,
                start,
                cpu_ready,
            } => {
                let c = chunks[*next];
                *next += 1;
                let (data, t_ssd) = self.mssd.dev.read_range(c.slba, c.blocks, *start)?;
                let dma = self.fabric.dma(
                    self.ssd_dev,
                    DmaDir::Write,
                    *buf_addr,
                    c.valid_bytes,
                    t_ssd,
                )?;
                let mb = self.membus.transfer(dma.start, c.valid_bytes);
                let io_done = dma.end.max(mb.end);
                parser.feed(&data[..c.valid_bytes as usize])?;
                let w = parser.work();
                let dw = w.since(last_work);
                *last_work = w;
                let os_cost = self.os.buffered_read(c.valid_bytes);
                let os_t = self.cpu.duration(os_cost.instructions, CodeClass::OsKernel);
                let parse_t = self.cpu.duration(
                    self.params.host_cost.int_path_instructions(&dw)
                        + self.params.host_cost.float_path_instructions(&dw),
                    CodeClass::Deserialize,
                );
                let iv = self
                    .cpu_cores
                    .acquire(io_done.max(*cpu_ready), os_t + parse_t);
                *cpu_ready = iv.end;
                self.membus.account(c.valid_bytes);
                let _ = spec;
                Ok(())
            }
            TenantState::Morpheus {
                chunks,
                next,
                iid,
                ready,
                last_end,
                obj_bin,
                bar,
                prefab,
                ..
            } => {
                let bar = *bar;
                let c = chunks[*next];
                *next += 1;
                let out = self
                    .mssd
                    .mread(*iid, c.slba, c.blocks, c.valid_bytes, *ready)?;
                if !out.output.is_empty() {
                    let n = out.output.len() as u64;
                    let addr = match bar {
                        Some(w) => {
                            let buf = self.gpu.alloc(n).ok_or(RunError::OutOfGpuMemory)?;
                            w.base + buf.offset
                        }
                        None => self.dram.alloc(n).ok_or(RunError::OutOfHostMemory)?,
                    };
                    let dma = self
                        .fabric
                        .dma(self.ssd_dev, DmaDir::Write, addr, n, out.done)?;
                    if bar.is_none() {
                        self.membus.transfer(dma.start, n);
                    }
                    let w = self.os.command_completion();
                    let iv = self.cpu_cores.acquire(
                        dma.end,
                        self.cpu.duration(w.instructions, CodeClass::OsKernel),
                    );
                    *last_end = (*last_end).max(iv.end);
                } else {
                    *last_end = (*last_end).max(out.done);
                }
                // With a prefab in hand the assembled stream is never
                // decoded, so skip the copy (lengths above still priced
                // the DMA and bus legs identically).
                if prefab.is_none() {
                    obj_bin.extend_from_slice(&out.output);
                }
                Ok(())
            }
        }
    }

    /// Completes a tenant's stream and returns its objects.
    pub(crate) fn finish_tenant(
        &mut self,
        t: &mut TenantState,
    ) -> Result<(String, Mode, SimTime, Arc<ParsedColumns>), RunError> {
        match t {
            TenantState::Conventional {
                spec,
                parser,
                cpu_ready,
                ..
            } => {
                let mut objects =
                    std::mem::replace(parser, StreamingParser::new(spec.schema.clone()))
                        .finish()?;
                objects.canonicalize();
                Ok((
                    spec.name.clone(),
                    Mode::Conventional,
                    *cpu_ready,
                    Arc::new(objects),
                ))
            }
            TenantState::Morpheus {
                spec,
                iid,
                last_end,
                obj_bin,
                bar,
                memo_key,
                prefab,
                ..
            } => {
                let bar = *bar;
                let dein = self.mssd.mdeinit(*iid, *last_end)?;
                let mut end = dein.done;
                if !dein.host_output.is_empty() {
                    let n = dein.host_output.len() as u64;
                    let addr = match bar {
                        Some(w) => {
                            let buf = self.gpu.alloc(n).ok_or(RunError::OutOfGpuMemory)?;
                            w.base + buf.offset
                        }
                        None => self.dram.alloc(n).ok_or(RunError::OutOfHostMemory)?,
                    };
                    let dma = self
                        .fabric
                        .dma(self.ssd_dev, DmaDir::Write, addr, n, dein.done)?;
                    if bar.is_none() {
                        self.membus.transfer(dma.start, n);
                    }
                    end = dma.end;
                }
                let c = self.os.command_completion();
                let iv = self.cpu_cores.acquire(
                    end.max(*last_end),
                    self.cpu.duration(c.instructions, CodeClass::OsKernel),
                );
                let objects = match prefab.take() {
                    Some(o) => o,
                    None => {
                        obj_bin.extend_from_slice(&dein.host_output);
                        let o = Arc::new(ParsedColumns::decode(spec.schema.clone(), obj_bin)?);
                        if let Some(k) = *memo_key {
                            deser_memo::objects_put(k, o.clone());
                        }
                        o
                    }
                };
                let mode = if bar.is_some() {
                    Mode::MorpheusP2P
                } else {
                    Mode::Morpheus
                };
                Ok((spec.name.clone(), mode, iv.end, objects))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppSpec, SystemParams};
    use morpheus_format::{FieldKind, Schema, TextWriter};

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    fn edge_text(n: u32, salt: u64) -> Vec<u8> {
        let mut w = TextWriter::new();
        for i in 0..n as u64 {
            w.write_u64((i * 7 + salt) % 100_000);
            w.sep();
            w.write_u64((i * 13 + salt) % 100_000);
            w.newline();
        }
        w.into_bytes()
    }

    fn system_with_tenants(n: usize) -> (System, Vec<AppSpec>) {
        let mut sys = System::new(SystemParams::paper_testbed());
        let mut specs = Vec::new();
        for i in 0..n {
            let name = format!("tenant{i}");
            let file = format!("{name}.txt");
            sys.create_input_file(&file, &edge_text(60_000, i as u64))
                .unwrap();
            specs.push(AppSpec::cpu_app(&name, &file, edge_schema(), 1, 50.0));
        }
        (sys, specs)
    }

    #[test]
    fn concurrent_tenants_match_solo_checksums() {
        let (mut sys, specs) = system_with_tenants(3);
        let solo: Vec<u64> = specs
            .iter()
            .map(|s| sys.run(s, Mode::Morpheus).unwrap().report.checksum)
            .collect();
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        for (t, want) in rep.tenants.iter().zip(&solo) {
            assert_eq!(t.checksum, *want, "{}", t.app);
        }
    }

    #[test]
    fn morpheus_tenants_scale_with_embedded_cores() {
        let (mut sys, specs) = system_with_tenants(4);
        // Solo time of one Morpheus tenant.
        let solo = sys
            .run(&specs[0], Mode::Morpheus)
            .unwrap()
            .report
            .phases
            .deserialization_s;
        // Four tenants on four embedded cores: makespan must be far below
        // 4x solo (they parse in parallel inside the drive).
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        assert!(
            rep.makespan_s < 4.0 * solo * 0.6,
            "4 tenants took {:.4}s, solo {:.4}s — no overlap?",
            rep.makespan_s,
            solo
        );
    }

    #[test]
    fn morpheus_beats_conventional_under_multitenancy() {
        // More tenants than host cores: the conventional path serializes on
        // the CPU while Morpheus tenants spread over the drive's cores AND
        // leave the host idle.
        let (mut sys, specs) = system_with_tenants(4);
        let conv: Vec<(AppSpec, Mode)> = specs
            .iter()
            .map(|s| (s.clone(), Mode::Conventional))
            .collect();
        let morp: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let conv_rep = sys.run_deserialize_many(&conv).unwrap();
        let morp_rep = sys.run_deserialize_many(&morp).unwrap();
        assert!(morp_rep.aggregate_mbs > conv_rep.aggregate_mbs);
        assert!(morp_rep.context_switches < conv_rep.context_switches / 3);
        // Results identical either way.
        for (a, b) in conv_rep.tenants.iter().zip(&morp_rep.tenants) {
            assert_eq!(a.checksum, b.checksum);
        }
    }

    #[test]
    fn p2p_tenants_rejected() {
        let (mut sys, specs) = system_with_tenants(1);
        let tenants = vec![(specs[0].clone(), Mode::MorpheusP2P)];
        assert!(matches!(
            sys.run_deserialize_many(&tenants),
            Err(RunError::NotGpuApp(_))
        ));
    }

    #[test]
    fn empty_tenant_list_is_an_error() {
        let (mut sys, _) = system_with_tenants(0);
        assert!(matches!(
            sys.run_deserialize_many(&[]),
            Err(RunError::NoTenants)
        ));
    }
}
