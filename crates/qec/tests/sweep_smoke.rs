//! Smoke-sweep: a small threshold-style grid (the CI shape — d ∈ {3,5},
//! two error rates, both decoders) streamed to real file sinks, with
//! the artifacts parsed back and checked for shape and content.

use vlq_decoder::DecoderKind;
use vlq_qec::MemoryExecutor;
use vlq_surface::schedule::Setup;
use vlq_sweep::{CsvSink, JsonlSink, RecordSink, SweepEngine, SweepSpec, RECORD_COLUMNS};

#[test]
fn small_grid_artifacts_parse_with_expected_rows() {
    let spec = SweepSpec::new()
        .setups([Setup::Baseline])
        .distances([3, 5])
        .error_rates([5e-3, 1e-2])
        .decoders([DecoderKind::Mwpm, DecoderKind::UnionFind])
        .shots(200)
        .base_seed(3);
    let expected_rows = spec.len();
    assert_eq!(expected_rows, 8);

    let dir = std::env::temp_dir().join(format!("vlq-sweep-smoke-{}", std::process::id()));
    let csv_path = dir.join("smoke.csv");
    let jsonl_path = dir.join("smoke.jsonl");
    {
        let mut csv = CsvSink::create(&csv_path).unwrap();
        let mut jsonl = JsonlSink::create(&jsonl_path).unwrap();
        let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut csv, &mut jsonl];
        let records = SweepEngine::default()
            .run(&spec, &MemoryExecutor::default(), &mut sinks)
            .unwrap();
        assert_eq!(records.len(), expected_rows);
    }

    // CSV: header + one row per point; every field of every row parses.
    let csv_text = std::fs::read_to_string(&csv_path).unwrap();
    let lines: Vec<&str> = csv_text.lines().collect();
    assert_eq!(lines.len(), 1 + expected_rows);
    assert_eq!(lines[0], RECORD_COLUMNS.join(","));
    for (i, line) in lines[1..].iter().enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), RECORD_COLUMNS.len(), "row {i}: {line}");
        assert_eq!(fields[0].parse::<usize>().unwrap(), i);
        let d: usize = fields[3].parse().unwrap();
        assert!(d == 3 || d == 5);
        let p: f64 = fields[4].parse().unwrap();
        assert!(p == 5e-3 || p == 1e-2);
        let shots: u64 = fields[10].parse().unwrap();
        let failures: u64 = fields[11].parse().unwrap();
        let rate: f64 = fields[12].parse().unwrap();
        assert_eq!(shots, 200);
        assert!(failures <= shots);
        assert!((rate - failures as f64 / shots as f64).abs() < 1e-12);
    }

    // JSONL: one object per point with matching keys and balanced braces
    // (no JSON parser in the offline vendor set; shape-check by hand).
    let jsonl_text = std::fs::read_to_string(&jsonl_path).unwrap();
    let jlines: Vec<&str> = jsonl_text.lines().collect();
    assert_eq!(jlines.len(), expected_rows);
    for (i, line) in jlines.iter().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line {i}");
        for key in RECORD_COLUMNS {
            assert!(
                line.contains(&format!("\"{key}\":")),
                "line {i} missing {key}"
            );
        }
        assert!(line.contains(&format!("\"index\":{i},")));
    }

    std::fs::remove_dir_all(&dir).ok();
}
