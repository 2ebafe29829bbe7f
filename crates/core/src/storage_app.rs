//! The Morpheus programming model: StorageApps and the device library.
//!
//! A **StorageApp** is the user-defined function the host application
//! installs into the Morpheus-SSD with MINIT and feeds with MREAD (§V-A).
//! In the paper it is C code cross-compiled for the embedded cores; here it
//! is a Rust trait object executed by the modelled firmware. The device
//! library surface mirrors the paper's: the app consumes a byte stream
//! (`ms_stream`), parses with `ms_scanf`-style primitives (our
//! [`TextScanner`](morpheus_format::TextScanner)/
//! [`StreamingParser`](morpheus_format::StreamingParser)), and pushes
//! results to the host with `ms_memcpy` ([`DeviceCtx::ms_memcpy`]). One
//! [`DeserializeApp`] deserializes every
//! [`InputFormat`](morpheus_format::InputFormat): text and packed binary
//! records run the same parser the host engine runs.
//!
//! The [`DeviceCtx`] enforces the platform restrictions of §V-A1: the
//! working set must fit the embedded core's D-SRAM (larger sets must spill
//! by flushing output early), and all host communication goes through the
//! staged output buffer — a StorageApp cannot touch host memory directly.

use morpheus_format::{InputFormat, ParseError, ParseWork, ParsedColumns, Schema, StreamingParser};
use std::error::Error;
use std::fmt;

/// Errors a StorageApp can raise (surface as the `AppFault` NVMe status).
#[derive(Debug, Clone, PartialEq)]
pub enum AppError {
    /// Input did not parse.
    Parse(ParseError),
    /// Working set exceeded the embedded core's D-SRAM.
    SramOverflow {
        /// Bytes the app needed resident.
        needed: u64,
        /// D-SRAM capacity.
        dsram: u32,
    },
    /// Application-specific failure.
    App(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Parse(_) => write!(f, "parse failure"),
            AppError::SramOverflow { needed, dsram } => {
                write!(
                    f,
                    "working set of {needed} bytes exceeds {dsram}-byte d-sram"
                )
            }
            AppError::App(msg) => write!(f, "storageapp failure: {msg}"),
        }
    }
}

impl Error for AppError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AppError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for AppError {
    fn from(e: ParseError) -> Self {
        AppError::Parse(e)
    }
}

/// The device-library context handed to a StorageApp invocation.
///
/// Collects the app's output (bound for the host via DMA), its parse work
/// (priced by the firmware at the embedded core's cost table), and any
/// extra app-specific instructions, while enforcing the D-SRAM limit.
#[derive(Debug)]
pub struct DeviceCtx {
    dsram_bytes: u32,
    /// Output staged in D-SRAM; auto-flushed to controller DRAM when half
    /// the D-SRAM fills (the paper's "transfer part of the results and
    /// reuse the memory buffer" pattern).
    staged: Vec<u8>,
    /// Output already flushed to controller DRAM this invocation.
    flushed: Vec<u8>,
    work: ParseWork,
    extra_instructions: f64,
    flushes: u64,
}

impl DeviceCtx {
    /// Creates a context for a core with `dsram_bytes` of data SRAM.
    pub fn new(dsram_bytes: u32) -> Self {
        DeviceCtx {
            dsram_bytes,
            staged: Vec::new(),
            flushed: Vec::new(),
            work: ParseWork::default(),
            extra_instructions: 0.0,
            flushes: 0,
        }
    }

    /// D-SRAM capacity of the executing core.
    pub fn dsram_bytes(&self) -> u32 {
        self.dsram_bytes
    }

    /// `ms_memcpy`: queue `bytes` for transfer to the destination buffer
    /// (host DRAM or GPU memory — the runtime binds the target address).
    pub fn ms_memcpy(&mut self, bytes: &[u8]) {
        self.staged.extend_from_slice(bytes);
        self.flush_if_half_full();
    }

    /// Flushes the staged output once it fills more than half the D-SRAM.
    /// A flush into an empty `flushed` buffer moves the staging buffer
    /// rather than copying it.
    fn flush_if_half_full(&mut self) {
        if self.staged.len() as u64 > self.dsram_bytes as u64 / 2 {
            if self.flushed.is_empty() {
                std::mem::swap(&mut self.flushed, &mut self.staged);
            } else {
                self.flushed.append(&mut self.staged);
            }
            self.flushes += 1;
        }
    }

    /// Charges parse work performed with the device library's scanning
    /// primitives.
    pub fn charge_work(&mut self, work: &ParseWork) {
        self.work.merge(work);
    }

    /// Charges app-specific instructions (beyond parsing).
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is negative or not finite.
    pub fn charge_instructions(&mut self, instructions: f64) {
        assert!(
            instructions.is_finite() && instructions >= 0.0,
            "instruction count must be finite and non-negative"
        );
        self.extra_instructions += instructions;
    }

    /// Verifies a resident working set fits D-SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::SramOverflow`] when it does not.
    pub fn ensure_working_set(&self, bytes: u64) -> Result<(), AppError> {
        if bytes > self.dsram_bytes as u64 {
            Err(AppError::SramOverflow {
                needed: bytes,
                dsram: self.dsram_bytes,
            })
        } else {
            Ok(())
        }
    }

    /// Drains everything the app produced (flushed + still staged), in
    /// emission order.
    pub fn take_output(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.flushed);
        out.append(&mut self.staged);
        out
    }

    /// Parse work accumulated (and clears it).
    pub fn take_work(&mut self) -> ParseWork {
        std::mem::take(&mut self.work)
    }

    /// Extra instructions accumulated (and clears them).
    pub fn take_extra_instructions(&mut self) -> f64 {
        std::mem::replace(&mut self.extra_instructions, 0.0)
    }

    /// D-SRAM output spills so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

/// A user-defined program the Morpheus-SSD can execute.
///
/// The firmware feeds the app file data chunk by chunk (as MREAD commands
/// deliver it) and finally asks it to wrap up; the returned `i32` travels
/// back to the host in the MDEINIT completion (§IV-A).
pub trait StorageApp: fmt::Debug + Send {
    /// Name (for traces and reports).
    fn name(&self) -> &str;

    /// Size of the compiled binary image; must fit the core's I-SRAM.
    fn code_bytes(&self) -> u32 {
        16 * 1024
    }

    /// Processes the next piece of the input stream.
    ///
    /// # Errors
    ///
    /// Any [`AppError`] aborts the instance with an `AppFault` status.
    fn on_chunk(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError>;

    /// Finishes the stream; returns the value delivered with MDEINIT.
    ///
    /// # Errors
    ///
    /// Any [`AppError`] aborts the instance with an `AppFault` status.
    fn on_finish(&mut self, ctx: &mut DeviceCtx) -> Result<i32, AppError>;
}

/// The paper's flagship StorageApp (Fig. 7's `inputapplet`, generalized):
/// scans the input stream against a [`Schema`], converts tokens to binary,
/// and `ms_memcpy`s the resulting object records to the host.
///
/// [`with_format`](DeserializeApp::with_format) deserializes packed binary
/// records instead (possibly foreign-endian) — the "binary inputs"
/// extension of §I. Their conversion is integer-path byte shuffling, so
/// unlike text floats it never touches the missing FPU: binary float
/// inputs are a best case for in-storage deserialization.
///
/// # Example
///
/// Driving the app directly through the device-library surface:
///
/// ```
/// use morpheus::{DeviceCtx, DeserializeApp, StorageApp};
/// use morpheus_format::{FieldKind, ParsedColumns, Schema};
///
/// let schema = Schema::new(vec![FieldKind::U32]);
/// let mut app = DeserializeApp::new("ints", schema.clone());
/// let mut ctx = DeviceCtx::new(256 * 1024);
/// app.on_chunk(&mut ctx, b"12\n34").unwrap();   // chunk ends mid-token
/// let records = app.on_finish(&mut ctx).unwrap();
/// assert_eq!(records, 2);
/// let objects = ParsedColumns::decode(schema, &ctx.take_output()).unwrap();
/// assert_eq!(objects.columns[0].as_ints().unwrap(), &[12, 34]);
/// ```
#[derive(Debug)]
pub struct DeserializeApp {
    name: String,
    parser: Option<StreamingParser>,
    emitted_records: u64,
}

impl DeserializeApp {
    /// Bytes of the app's code image (the [`StorageApp`] default). A
    /// request lowers its MINIT with it before it knows whether the
    /// lifecycle replays, which builds no app.
    pub(crate) const CODE_BYTES: u32 = 16 * 1024;

    /// Creates the app for a record schema stored as text.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self::with_format(name, schema, InputFormat::Text)
    }

    /// Creates the app for a record schema stored in `format`.
    pub fn with_format(name: impl Into<String>, schema: Schema, format: InputFormat) -> Self {
        DeserializeApp {
            name: name.into(),
            parser: Some(StreamingParser::with_format(schema, format)),
            emitted_records: 0,
        }
    }
}

/// `ms_memcpy`s `rows` to the host as binary objects at their declared
/// field widths, charging ~1 instruction per emitted byte (the stores), and
/// returns the row count.
///
/// No `canonicalize` pass is needed first: `encode_rows` applies the same
/// width casts, so the bytes equal those of the canonicalized host objects.
/// The rows are encoded straight into the staging buffer, which then flushes
/// exactly as one `ms_memcpy` of those bytes would.
fn emit_rows(ctx: &mut DeviceCtx, rows: &ParsedColumns) -> u64 {
    if rows.records > 0 {
        rows.encode_rows(0, rows.records, &mut ctx.staged);
        ctx.flush_if_half_full();
        ctx.charge_instructions(rows.binary_bytes() as f64);
    }
    rows.records
}

impl StorageApp for DeserializeApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn code_bytes(&self) -> u32 {
        Self::CODE_BYTES
    }

    fn on_chunk(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError> {
        let parser = self.parser.as_mut().expect("on_chunk after finish");
        parser.feed(data)?;
        ctx.ensure_working_set(parser.carry_len() as u64 + data.len() as u64)?;
        ctx.charge_work(&parser.take_work());
        self.emitted_records += emit_rows(ctx, &parser.take_rows());
        Ok(())
    }

    fn on_finish(&mut self, ctx: &mut DeviceCtx) -> Result<i32, AppError> {
        let parser = self.parser.take().expect("on_finish called twice");
        // The final carry may hold one last unterminated token: its parse
        // is charged here, at MDEINIT.
        let (rest, work) = parser.finish_with_work()?;
        ctx.charge_work(&work);
        Ok((self.emitted_records + emit_rows(ctx, &rest)) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::{encode_binary, parse_buffer, Endianness, FieldKind, TextWriter};

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    #[test]
    fn deserialize_app_emits_binary_objects() {
        let text = b"1 2\n3 4\n5 6\n";
        let mut app = DeserializeApp::new("edges", edge_schema());
        let mut ctx = DeviceCtx::new(256 * 1024);
        app.on_chunk(&mut ctx, &text[..5]).unwrap();
        app.on_chunk(&mut ctx, &text[5..]).unwrap();
        let ret = app.on_finish(&mut ctx).unwrap();
        assert_eq!(ret, 3);
        let bytes = ctx.take_output();
        let decoded = ParsedColumns::decode(edge_schema(), &bytes).unwrap();
        let (mut expect, _) = parse_buffer(text, &edge_schema()).unwrap();
        expect.canonicalize();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn parser_state_stays_one_page_across_a_long_stream() {
        let mut w = TextWriter::new();
        for i in 0..5_000u64 {
            w.write_u64(i * 7919);
            w.sep();
            w.write_u64(i);
            w.newline();
        }
        let text = w.into_bytes();
        let mut app = DeserializeApp::new("edges", edge_schema());
        let mut ctx = DeviceCtx::new(256 * 1024);
        let page = 4096;
        assert!(text.len() > 8 * page, "stream must span many pages");
        for chunk in text.chunks(page) {
            app.on_chunk(&mut ctx, chunk).unwrap();
            let parser = app.parser.as_ref().unwrap();
            assert_eq!(parser.records(), 0, "a complete record was left undrained");
            assert!(parser.carry_len() < page);
        }
        assert_eq!(app.on_finish(&mut ctx).unwrap(), 5_000);
        let (mut expect, _) = parse_buffer(&text, &edge_schema()).unwrap();
        expect.canonicalize();
        let got = ParsedColumns::decode(edge_schema(), &ctx.take_output()).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn work_is_charged_once_per_byte() {
        let text = b"10 20\n30 40\n";
        let mut app = DeserializeApp::new("edges", edge_schema());
        let mut ctx = DeviceCtx::new(256 * 1024);
        app.on_chunk(&mut ctx, text).unwrap();
        app.on_finish(&mut ctx).unwrap();
        let w = ctx.take_work();
        assert_eq!(w.bytes_scanned, text.len() as u64);
        assert_eq!(w.int_tokens, 4);
    }

    #[test]
    fn dsram_overflow_detected() {
        let mut app = DeserializeApp::new("edges", edge_schema());
        let mut ctx = DeviceCtx::new(16); // absurdly small d-sram
        let err = app.on_chunk(&mut ctx, b"123456789 123456789 ").unwrap_err();
        assert!(matches!(err, AppError::SramOverflow { .. }));
    }

    #[test]
    fn staged_output_flushes_at_half_dsram() {
        let mut ctx = DeviceCtx::new(64);
        ctx.ms_memcpy(&[0u8; 40]);
        assert_eq!(ctx.flushes(), 1);
        ctx.ms_memcpy(&[1u8; 4]);
        let out = ctx.take_output();
        assert_eq!(out.len(), 44);
        assert_eq!(out[40], 1);
    }

    #[test]
    fn parse_failure_surfaces() {
        let mut app = DeserializeApp::new("edges", edge_schema());
        let mut ctx = DeviceCtx::new(256 * 1024);
        assert!(matches!(
            app.on_chunk(&mut ctx, b"12 garbage\n"),
            Err(AppError::Parse(_))
        ));
    }

    fn mixed_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::F64])
    }

    fn mixed_objects() -> ParsedColumns {
        let (mut p, _) = parse_buffer(b"1 0.5\n2 -1.25\n3 9.0\n", &mixed_schema()).unwrap();
        p.canonicalize();
        p
    }

    fn binary_app(endian: Endianness) -> DeserializeApp {
        DeserializeApp::with_format("bin", mixed_schema(), InputFormat::Binary(endian))
    }

    #[test]
    fn binary_app_round_trips_foreign_endian_input() {
        let want = mixed_objects();
        let input = encode_binary(&want, Endianness::Big);
        let mut app = binary_app(Endianness::Big);
        let mut ctx = DeviceCtx::new(256 * 1024);
        // Feed with an awkward split mid-record.
        app.on_chunk(&mut ctx, &input[..7]).unwrap();
        app.on_chunk(&mut ctx, &input[7..]).unwrap();
        let ret = app.on_finish(&mut ctx).unwrap();
        assert_eq!(ret, 3);
        let got = ParsedColumns::decode(mixed_schema(), &ctx.take_output()).unwrap();
        assert_eq!(got, want);
        // All charged work is integer-path (no soft-float exposure).
        let w = ctx.take_work();
        assert_eq!(w.float_tokens, 0);
        assert!(w.int_tokens > 0);
    }

    #[test]
    fn binary_parser_state_stays_one_page_across_a_long_stream() {
        let mut text = Vec::new();
        for i in 0..3_000u32 {
            text.extend_from_slice(format!("{i} {}.5\n", i % 97).as_bytes());
        }
        let (mut want, _) = parse_buffer(&text, &mixed_schema()).unwrap();
        want.canonicalize();
        let input = encode_binary(&want, Endianness::Big);
        let mut app = binary_app(Endianness::Big);
        let mut ctx = DeviceCtx::new(256 * 1024);
        // A page size that is not a multiple of the 12-byte record.
        let page = 4096;
        assert!(input.len() > 8 * page, "stream must span many pages");
        for chunk in input.chunks(page) {
            app.on_chunk(&mut ctx, chunk).unwrap();
            let parser = app.parser.as_ref().unwrap();
            assert_eq!(parser.records(), 0, "a complete record was left undrained");
        }
        assert_eq!(app.on_finish(&mut ctx).unwrap(), 3_000);
        let got = ParsedColumns::decode(mixed_schema(), &ctx.take_output()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn binary_app_rejects_ragged_stream() {
        let input = encode_binary(&mixed_objects(), Endianness::Little);
        let mut app = binary_app(Endianness::Little);
        let mut ctx = DeviceCtx::new(256 * 1024);
        app.on_chunk(&mut ctx, &input[..input.len() - 1]).unwrap();
        assert!(app.on_finish(&mut ctx).is_err());
    }

    #[test]
    fn error_messages_nonempty() {
        for e in [
            AppError::SramOverflow {
                needed: 10,
                dsram: 5,
            },
            AppError::App("boom".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
