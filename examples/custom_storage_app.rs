//! The Morpheus programming model beyond plain deserialization: a custom
//! StorageApp that parses *and filters* inside the drive, plus on-device
//! format conversion through MWRITE.
//!
//! The paper's model is general-purpose: "the storage device... can
//! transform the same file into different kinds of data structures
//! according to the demand of applications" (§I). Here the host asks the
//! drive for only the forward edges (src < dst) of a graph — the rejected
//! records never cross the interconnect at all.
//!
//! ```sh
//! cargo run --release --example custom_storage_app
//! ```

use morpheus::{AppError, DeserializeApp, DeviceCtx, MorpheusSsd, StorageApp};
use morpheus_format::{CostModel, FieldKind, ParsedColumns, Schema, StreamingParser, TextWriter};
use morpheus_simcore::SimTime;
use morpheus_ssd::{Ssd, SsdConfig};

/// Deserializes `src dst` records and emits only those with `src < dst`.
#[derive(Debug)]
struct ForwardEdgeFilter {
    parser: Option<StreamingParser>,
    kept: u32,
}

impl ForwardEdgeFilter {
    fn new() -> Self {
        ForwardEdgeFilter {
            parser: Some(StreamingParser::new(edge_schema())),
            kept: 0,
        }
    }

    /// Filters the records the parser has completed; they leave the parser,
    /// so its state stays one page plus one partial record.
    fn filter(&mut self, ctx: &mut DeviceCtx, rows: &ParsedColumns) {
        let src = rows.columns[0].as_ints().expect("src ints");
        let dst = rows.columns[1].as_ints().expect("dst ints");
        for (&s, &d) in src.iter().zip(dst) {
            // The filter itself is a couple of instructions per record.
            ctx.charge_instructions(4.0);
            if s < d {
                ctx.ms_memcpy(&(s as u32).to_le_bytes());
                ctx.ms_memcpy(&(d as u32).to_le_bytes());
                self.kept += 1;
            }
        }
    }
}

impl StorageApp for ForwardEdgeFilter {
    fn name(&self) -> &str {
        "forward-edge-filter"
    }

    fn on_chunk(&mut self, ctx: &mut DeviceCtx, data: &[u8]) -> Result<(), AppError> {
        let parser = self.parser.as_mut().expect("still live");
        parser.feed(data)?;
        // The parse is priced at the embedded core's cost table, chunk by
        // chunk, like `DeserializeApp`'s.
        ctx.charge_work(&parser.take_work());
        let rows = parser.take_rows();
        self.filter(ctx, &rows);
        Ok(())
    }

    fn on_finish(&mut self, ctx: &mut DeviceCtx) -> Result<i32, AppError> {
        let parser = self.parser.take().expect("finished once");
        let (rows, work) = parser.finish_with_work()?;
        ctx.charge_work(&work);
        self.filter(ctx, &rows);
        Ok(self.kept as i32)
    }
}

fn edge_schema() -> Schema {
    Schema::new(vec![FieldKind::U32, FieldKind::U32])
}

fn main() {
    let mut mssd = MorpheusSsd::new(
        Ssd::new(
            SsdConfig::default(),
            morpheus_flash::FlashGeometry::workload(),
            morpheus_flash::FlashTiming::default(),
        ),
        CostModel::embedded_core(),
    );

    // Stage an edge list with a mix of forward and backward edges.
    let mut w = TextWriter::new();
    let mut forward = 0u32;
    for i in 0..50_000u64 {
        let (s, d) = (i * 7 % 1000, i * 13 % 1000);
        if s < d {
            forward += 1;
        }
        w.write_u64(s);
        w.sep();
        w.write_u64(d);
        w.newline();
    }
    let text = w.into_bytes();
    mssd.dev.load_at(0, &text).unwrap();
    println!(
        "staged {} edges ({} forward) as {:.1} MB of text",
        50_000,
        forward,
        text.len() as f64 / 1e6
    );

    // --- MREAD through the filtering StorageApp ---
    let t0 = mssd
        .minit(1, Box::new(ForwardEdgeFilter::new()), SimTime::ZERO)
        .unwrap();
    let blocks = (text.len() as u64).div_ceil(512);
    let out = mssd.mread(1, 0, blocks, text.len() as u64, t0).unwrap();
    let dein = mssd.mdeinit(1, out.done).unwrap();
    let kept = dein.retval;
    // The MREAD's objects, then MDEINIT's tail: one stream to decode.
    let mut bytes = out.output;
    bytes.extend_from_slice(&dein.host_output);
    let filtered = ParsedColumns::decode(edge_schema(), &bytes).unwrap();
    assert_eq!(kept as u64, filtered.records);
    assert_eq!(filtered.records, forward as u64);
    println!(
        "the drive returned {} forward edges ({:.1}% of the input bytes crossed the bus)",
        filtered.records,
        100.0 * bytes.len() as f64 / text.len() as f64
    );

    // --- MWRITE: on-device format conversion (text in, binary stored) ---
    let t1 = mssd
        .minit(
            2,
            Box::new(DeserializeApp::new("to-binary", edge_schema())),
            SimTime::ZERO,
        )
        .unwrap();
    let sample = b"11 22\n33 44\n";
    let wrote = mssd.mwrite(2, 1 << 20, sample, t1).unwrap();
    mssd.mdeinit(2, wrote.durable).unwrap();
    let (pages, _) = mssd.dev.read_range(1 << 20, 1, wrote.durable).unwrap();
    let stored = ParsedColumns::decode(edge_schema(), &pages[0].bytes()[..16]).unwrap();
    assert_eq!(stored.columns[0].as_ints().unwrap(), &[11, 33]);
    println!(
        "MWRITE converted {} bytes of text into {} bytes of binary objects on flash",
        sample.len(),
        16
    );
}
