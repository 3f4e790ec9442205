//! Typed sweep records and the pluggable sinks they stream to.
//!
//! The engine emits one [`SweepRecord`] per grid point, in expansion
//! order (it buffers out-of-order completions), so file sinks produce
//! byte-identical artifacts regardless of worker count or steal order.

use std::io::{self, LineWriter, Write};
use std::path::Path;

use vlq_math::stats::BinomialEstimate;

use crate::artifact::{csv_field, json_f64, json_string};
use crate::spec::SweepPoint;

/// Result of one completed grid point.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRecord {
    /// Index of the point in the spec's expansion order.
    pub index: usize,
    /// The point's coordinates.
    pub point: SweepPoint,
    /// The sweep's base seed (all of the point's chunk seeds derive
    /// from it; a result-determining coordinate, so `--resume` refuses
    /// to reuse rows recorded under a different seed).
    pub base_seed: u64,
    /// Shots actually run.
    pub shots: u64,
    /// Logical failures observed.
    pub failures: u64,
}

impl SweepRecord {
    /// Binomial estimate of the failure rate (`None` for zero shots).
    pub fn estimate(&self) -> Option<BinomialEstimate> {
        (self.shots > 0).then(|| BinomialEstimate::new(self.failures, self.shots))
    }

    /// Point estimate of the logical error rate (0 for zero shots).
    pub fn rate(&self) -> f64 {
        self.estimate().map_or(0.0, |e| e.rate())
    }

    /// Standard error of the rate estimate (0 for zero shots).
    pub fn std_error(&self) -> f64 {
        self.estimate().map_or(0.0, |e| e.std_error())
    }

    /// Effective syndrome-round count (`rounds = d` when unspecified).
    pub fn rounds(&self) -> usize {
        self.point.rounds.unwrap_or(self.point.d)
    }
}

/// Column names shared by the CSV header and the JSON-lines keys.
/// `program` and `seed` are last so pre-existing column indices stay
/// stable.
pub const RECORD_COLUMNS: [&str; 16] = [
    "index",
    "setup",
    "basis",
    "d",
    "p",
    "k",
    "rounds",
    "decoder",
    "knob",
    "knob_value",
    "shots",
    "failures",
    "rate",
    "std_error",
    "program",
    "seed",
];

fn basis_name(record: &SweepRecord) -> &'static str {
    match record.point.basis {
        vlq_surface::schedule::Basis::Z => "z",
        vlq_surface::schedule::Basis::X => "x",
    }
}

/// A streaming consumer of completed sweep records.
pub trait RecordSink {
    /// Consumes one record (called in expansion order).
    fn write(&mut self, record: &SweepRecord) -> io::Result<()>;

    /// Consumes one record together with its measured wall time in
    /// nanoseconds (0 for prefilled/resumed points, which ran no
    /// chunks). The default ignores the timing and delegates to
    /// [`RecordSink::write`]; only timing-aware sinks ([`TimesSink`])
    /// override it.
    fn write_timed(&mut self, record: &SweepRecord, nanos: u64) -> io::Result<()> {
        let _ = nanos;
        self.write(record)
    }

    /// Whether this sink wants per-point wall times. When any attached
    /// sink returns `true` the engine measures point wall time even
    /// without a telemetry recorder.
    fn wants_timing(&self) -> bool {
        false
    }

    /// Flushes any buffered output; called once after the last record.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// CSV sink: header on construction, one row per record.
pub struct CsvSink<W: Write> {
    w: W,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer and emits the header line.
    pub fn new(mut w: W) -> io::Result<Self> {
        writeln!(w, "{}", RECORD_COLUMNS.join(","))?;
        Ok(CsvSink { w })
    }
}

impl<W: Write> CsvSink<W> {
    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl CsvSink<LineWriter<std::fs::File>> {
    /// Creates (or truncates) a CSV file sink at `path`. Line-buffered:
    /// every completed row reaches the file promptly, so an external
    /// supervisor (`sweep-launch`) can poll the artifact for progress.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        CsvSink::new(LineWriter::new(std::fs::File::create(path)?))
    }
}

/// Renders one record as its CSV data row (no header, no trailing
/// newline) — the exact bytes [`CsvSink`] writes for it.
pub fn csv_row(r: &SweepRecord) -> String {
    let (knob, knob_value) = match &r.point.knob {
        Some(kn) => (csv_field(&kn.name), format!("{}", kn.value)),
        None => (String::new(), String::new()),
    };
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.index,
        csv_field(&r.point.setup.to_string()),
        basis_name(r),
        r.point.d,
        r.point.p,
        r.point.k,
        r.rounds(),
        csv_field(r.point.decoder.name()),
        knob,
        knob_value,
        r.shots,
        r.failures,
        r.rate(),
        r.std_error(),
        r.point.program.as_deref().map_or(String::new(), csv_field),
        r.base_seed,
    )
}

impl<W: Write> RecordSink for CsvSink<W> {
    fn write(&mut self, r: &SweepRecord) -> io::Result<()> {
        writeln!(self.w, "{}", csv_row(r))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// JSON-lines sink: one object per record, keys matching
/// [`RECORD_COLUMNS`].
pub struct JsonlSink<W: Write> {
    w: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }
}

impl<W: Write> JsonlSink<W> {
    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl JsonlSink<LineWriter<std::fs::File>> {
    /// Creates (or truncates) a JSON-lines file sink at `path`.
    /// Line-buffered for the same supervisor-polling reason as
    /// [`CsvSink::create`].
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(JsonlSink::new(LineWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

/// Renders one record as its JSON-lines row (no trailing newline) —
/// the exact bytes [`JsonlSink`] writes for it.
pub fn jsonl_row(r: &SweepRecord) -> String {
    let (knob, knob_value) = match &r.point.knob {
        Some(kn) => (json_string(&kn.name), json_f64(kn.value)),
        None => ("null".to_string(), "null".to_string()),
    };
    format!(
        concat!(
            "{{\"index\":{},\"setup\":{},\"basis\":{},\"d\":{},\"p\":{},\"k\":{},",
            "\"rounds\":{},\"decoder\":{},\"knob\":{},\"knob_value\":{},",
            "\"shots\":{},\"failures\":{},\"rate\":{},\"std_error\":{},",
            "\"program\":{},\"seed\":{}}}"
        ),
        r.index,
        json_string(&r.point.setup.to_string()),
        json_string(basis_name(r)),
        r.point.d,
        json_f64(r.point.p),
        r.point.k,
        r.rounds(),
        json_string(r.point.decoder.name()),
        knob,
        knob_value,
        r.shots,
        r.failures,
        json_f64(r.rate()),
        json_f64(r.std_error()),
        r.point
            .program
            .as_deref()
            .map_or("null".to_string(), json_string),
        r.base_seed,
    )
}

impl<W: Write> RecordSink for JsonlSink<W> {
    fn write(&mut self, r: &SweepRecord) -> io::Result<()> {
        writeln!(self.w, "{}", jsonl_row(r))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// In-memory sink collecting records into a `Vec`.
#[derive(Default)]
pub struct MemorySink {
    records: Vec<SweepRecord>,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected records, in emission (= expansion) order.
    pub fn records(&self) -> &[SweepRecord] {
        &self.records
    }
}

impl RecordSink for MemorySink {
    fn write(&mut self, record: &SweepRecord) -> io::Result<()> {
        self.records.push(record.clone());
        Ok(())
    }
}

/// Sink recording per-point wall times in the
/// [`crate::plan::TIMES_SCHEMA`] format the `--shard-by time` cost
/// model consumes: a header line carrying the base seed, then one
/// `{"index":G,"shots":S,"nanos":N}` row per point.
///
/// The nanos column is *not* deterministic (it is a measurement), so
/// times files are calibration inputs, never merged artifacts.
pub struct TimesSink<W: Write> {
    w: W,
    header_written: bool,
}

impl<W: Write> TimesSink<W> {
    /// Wraps a writer; the header is emitted lazily with the first
    /// record's seed.
    pub fn new(w: W) -> Self {
        TimesSink {
            w,
            header_written: false,
        }
    }

    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl TimesSink<LineWriter<std::fs::File>> {
    /// Creates (or truncates) a times file sink at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(TimesSink::new(LineWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> RecordSink for TimesSink<W> {
    fn write(&mut self, record: &SweepRecord) -> io::Result<()> {
        self.write_timed(record, 0)
    }

    fn write_timed(&mut self, r: &SweepRecord, nanos: u64) -> io::Result<()> {
        if !self.header_written {
            writeln!(
                self.w,
                "{{\"schema\":\"{}\",\"seed\":{}}}",
                crate::plan::TIMES_SCHEMA,
                r.base_seed
            )?;
            self.header_written = true;
        }
        writeln!(
            self.w,
            "{{\"index\":{},\"shots\":{},\"nanos\":{nanos}}}",
            r.index, r.shots
        )
    }

    fn wants_timing(&self) -> bool {
        true
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq_decoder::DecoderKind;
    use vlq_surface::schedule::{Basis, Setup};

    fn record() -> SweepRecord {
        SweepRecord {
            index: 3,
            point: SweepPoint {
                setup: Setup::CompactInterleaved,
                basis: Basis::Z,
                d: 5,
                p: 0.002,
                k: 10,
                rounds: None,
                decoder: DecoderKind::Mwpm,
                shots: 1000,
                knob: None,
                program: None,
            },
            base_seed: 2020,
            shots: 1000,
            failures: 25,
        }
    }

    #[test]
    fn csv_row_shape() {
        let mut sink = CsvSink::new(Vec::new()).unwrap();
        sink.write(&record()).unwrap();
        let text = String::from_utf8(sink.w).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), RECORD_COLUMNS.join(","));
        let row = lines.next().unwrap();
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), RECORD_COLUMNS.len());
        assert_eq!(fields[0], "3");
        assert_eq!(fields[1], "compact-int");
        assert_eq!(fields[6], "5"); // rounds defaults to d
        assert_eq!(fields[12], "0.025");
        assert_eq!(fields[14], ""); // memory experiments have no program
    }

    #[test]
    fn program_column_round_trips() {
        let mut rec = record();
        rec.point.program = Some("ghz4".to_string());
        let mut csv = CsvSink::new(Vec::new()).unwrap();
        csv.write(&rec).unwrap();
        let text = String::from_utf8(csv.w).unwrap();
        assert!(text.lines().nth(1).unwrap().ends_with(",ghz4,2020"));
        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.write(&rec).unwrap();
        let text = String::from_utf8(jsonl.w).unwrap();
        assert!(text.contains("\"program\":\"ghz4\""));
    }

    #[test]
    fn jsonl_row_is_wellformed() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.write(&record()).unwrap();
        let text = String::from_utf8(sink.w).unwrap();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"setup\":\"compact-int\""));
        assert!(line.contains("\"knob\":null"));
        assert!(line.contains("\"rate\":0.025"));
    }

    #[test]
    fn times_sink_emits_header_then_rows() {
        let mut sink = TimesSink::new(Vec::new());
        assert!(sink.wants_timing());
        sink.write_timed(&record(), 12345).unwrap();
        let mut r2 = record();
        r2.index = 4;
        sink.write_timed(&r2, 67).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"schema\":\"vlq-sweep-times-v1\",\"seed\":2020}"
        );
        assert_eq!(lines[1], "{\"index\":3,\"shots\":1000,\"nanos\":12345}");
        assert_eq!(lines[2], "{\"index\":4,\"shots\":1000,\"nanos\":67}");
    }

    #[test]
    fn memory_sink_collects() {
        let mut sink = MemorySink::new();
        sink.write(&record()).unwrap();
        assert_eq!(sink.records().len(), 1);
        assert_eq!(sink.records()[0].failures, 25);
    }
}
