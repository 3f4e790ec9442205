//! Merging and verifying sweep artifacts, plus the strict record-row
//! parser and the `.meta.json` sidecar schema.
//!
//! A sharded sweep (`--shard i/N`, see [`crate::shard`]) writes the
//! same CSV/JSONL artifacts as a full run, just restricted to the grid
//! points the shard owns — the stride rule without a plan, the plan's
//! points under `--plan` — and a `.meta.json` sidecar recording the
//! seed, the spec fingerprint, the full point count, the shard
//! coordinates and any plan's fingerprint. [`merge_artifacts`] puts N
//! such shard directories back into global point order and writes
//! artifacts **byte-identical** to the unsharded run's;
//! [`verify_artifact`] checks a single artifact's internal consistency
//! (row counts, seed column, CSV↔JSONL agreement) so CI needs no
//! external tooling. Both run one index-layout check on every shard,
//! whatever its layout: indices ascending, within the grid, and — when
//! the owner of each index is known — exactly the indices the shard
//! owns.
//!
//! Every validation failure is a typed error ([`MergeError`] /
//! [`ArtifactError`]); the `sweep-merge` binary maps them to exit
//! code 2. Unlike the pre-sharding resume loader, the row parser here
//! is *strict*: a truncated or garbled line is a hard error, never
//! silently skipped.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

use crate::plan::{owns, ShardPlan};
use crate::shard::ShardSpec;
use crate::sink::{csv_row, jsonl_row, SweepRecord, RECORD_COLUMNS};
use crate::spec::{KnobSetting, SweepPoint};
use vlq_decoder::DecoderKind;
use vlq_surface::schedule::{Basis, Setup};

/// Schema tag written into (and required of) `.meta.json` sidecars.
pub const META_SCHEMA: &str = "vlq-sweep-record-v1";

/// A malformed or unreadable artifact file (one directory's view).
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read.
    Io(PathBuf, io::Error),
    /// A line (1-based) failed to parse as a sweep record — truncated
    /// tails and garbage are hard errors, not skipped rows.
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What the parser objected to.
        reason: String,
    },
    /// A row was sampled under a different base seed than expected (or
    /// than the artifact's other rows).
    SeedMismatch {
        /// The offending file.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// The seed the row carries.
        found: u64,
        /// The seed it had to carry.
        expected: u64,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            ArtifactError::Malformed { path, line, reason } => {
                write!(f, "{}:{line}: malformed record: {reason}", path.display())
            }
            ArtifactError::SeedMismatch {
                path,
                line,
                found,
                expected,
            } => write!(
                f,
                "{}:{line}: seed {found} does not match expected seed {expected}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(_, e) => Some(e),
            _ => None,
        }
    }
}

/// Why N artifact directories could not be merged (or one verified).
#[derive(Debug)]
pub enum MergeError {
    /// A shard artifact was unreadable or malformed.
    Artifact(ArtifactError),
    /// An expected artifact file is missing.
    MissingFile(PathBuf),
    /// CSV headers (or row/line counts within one directory) disagree.
    SchemaMismatch(String),
    /// A row's global index breaks the shard layout: out of order,
    /// beyond the grid, on the wrong shard, missing, or held twice.
    IndexMismatch(String),
    /// Shards disagree on seed, spec fingerprint, point count, or shard
    /// coordinates.
    MetaMismatch(String),
    /// A verify-mode expectation (`--expect-rows`, …) failed.
    Expectation(String),
    /// Writing the merged artifact failed.
    Io(PathBuf, io::Error),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Artifact(e) => e.fmt(f),
            MergeError::MissingFile(p) => write!(f, "missing artifact file {}", p.display()),
            MergeError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            MergeError::IndexMismatch(m) => write!(f, "index mismatch: {m}"),
            MergeError::MetaMismatch(m) => write!(f, "meta mismatch: {m}"),
            MergeError::Expectation(m) => write!(f, "expectation failed: {m}"),
            MergeError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Artifact(e) => Some(e),
            MergeError::Io(_, e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for MergeError {
    fn from(e: ArtifactError) -> Self {
        MergeError::Artifact(e)
    }
}

/// The `.meta.json` sidecar a sweep binary writes next to its CSV/JSONL
/// artifacts: enough identity for `sweep-merge` to refuse to interleave
/// shards of different sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepMeta {
    /// The sweep's base seed (must match the artifact's `seed` column).
    pub seed: u64,
    /// Fingerprint of the full (unsharded) sweep: every spec the binary
    /// ran, folded via [`crate::spec::combine_fingerprints`].
    pub spec_fingerprint: u64,
    /// Total points of the full (unsharded) run.
    pub points: u64,
    /// Which shard of those points this artifact holds.
    pub shard: ShardSpec,
    /// Fingerprint of the explicit [`ShardPlan`] the run was sharded
    /// under (`--shard-by time`), `None` for the default stride rule.
    /// Merged sidecars always carry `None`, so they stay byte-identical
    /// to a single-process run's regardless of how the fleet sharded.
    pub plan: Option<u64>,
}

impl SweepMeta {
    /// The sidecar path for `<dir>/<stem>.meta.json`.
    pub fn path_for(dir: &Path, stem: &str) -> PathBuf {
        dir.join(format!("{stem}.meta.json"))
    }

    /// Renders the sidecar's single JSON line (fixed field order, so
    /// a merged sidecar is byte-identical to a full run's; the `plan`
    /// field is omitted entirely when absent, preserving the exact
    /// pre-plan rendering).
    pub fn render(&self) -> String {
        let plan = self
            .plan
            .map_or(String::new(), |fp| format!(",\"plan\":\"{fp:016x}\""));
        format!(
            "{{\"schema\":\"{META_SCHEMA}\",\"seed\":{},\"spec_fingerprint\":\"{:016x}\",\"points\":{},\"shard\":\"{}\"{plan}}}",
            self.seed, self.spec_fingerprint, self.points, self.shard
        )
    }

    /// Writes the sidecar to `<dir>/<stem>.meta.json`.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write(&self, dir: &Path, stem: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(Self::path_for(dir, stem), format!("{}\n", self.render()))
    }

    /// Loads and validates a sidecar.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when unreadable, [`ArtifactError::Malformed`]
    /// when the schema tag or any field is wrong.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| ArtifactError::Io(path.to_path_buf(), e))?;
        let bad = |reason: &str| ArtifactError::Malformed {
            path: path.to_path_buf(),
            line: 1,
            reason: reason.to_string(),
        };
        let obj = parse_flat_json(text.trim()).ok_or_else(|| bad("not a flat JSON object"))?;
        let field = |k: &str| obj.get(k).ok_or_else(|| bad(&format!("missing {k:?}")));
        match field("schema")? {
            JsonValue::Str(s) if s == META_SCHEMA => {}
            other => return Err(bad(&format!("schema {other:?}, expected {META_SCHEMA:?}"))),
        }
        let uint = |k: &str| -> Result<u64, ArtifactError> {
            match field(k)? {
                JsonValue::Num { raw, .. } => {
                    raw.parse().map_err(|_| bad(&format!("{k:?} is not a u64")))
                }
                _ => Err(bad(&format!("{k:?} is not a number"))),
            }
        };
        let spec_fingerprint = match field("spec_fingerprint")? {
            JsonValue::Str(s) => {
                u64::from_str_radix(s, 16).map_err(|_| bad("spec_fingerprint is not a hex u64"))?
            }
            _ => return Err(bad("spec_fingerprint is not a string")),
        };
        let shard: ShardSpec = match field("shard")? {
            JsonValue::Str(s) => s.parse().map_err(|e| bad(&format!("shard: {e}")))?,
            _ => return Err(bad("shard is not a string")),
        };
        let plan = match obj.get("plan") {
            None => None,
            Some(JsonValue::Str(s)) => Some(
                u64::from_str_radix(s, 16).map_err(|_| bad("plan is not a hex u64 fingerprint"))?,
            ),
            Some(_) => return Err(bad("plan is not a string")),
        };
        Ok(SweepMeta {
            seed: uint("seed")?,
            spec_fingerprint,
            points: uint("points")?,
            shard,
            plan,
        })
    }
}

/// Parses one `JsonlSink`-format artifact line back into a
/// [`SweepRecord`].
///
/// Strict: every required column must be present and well-typed.
/// Integer columns (`index`, `d`, `k`, `shots`, `failures`, `seed`) are
/// parsed from their raw digits, so 64-bit seeds survive exactly.
///
/// # Errors
///
/// A human-readable reason (callers wrap it with file/line context).
pub fn parse_record_line(line: &str) -> Result<SweepRecord, String> {
    let obj = parse_flat_json(line).ok_or("not a flat JSON object")?;
    let field = |k: &str| obj.get(k).ok_or_else(|| format!("missing key {k:?}"));
    let uint = |k: &str| -> Result<u64, String> {
        match field(k)? {
            JsonValue::Num { raw, .. } => raw
                .parse()
                .map_err(|_| format!("{k:?} is not an unsigned integer: {raw:?}")),
            other => Err(format!("{k:?} is not a number: {other:?}")),
        }
    };
    let string = |k: &str| -> Result<String, String> {
        match field(k)? {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(format!("{k:?} is not a string: {other:?}")),
        }
    };
    let float = |k: &str| -> Result<f64, String> {
        match field(k)? {
            JsonValue::Num { value, .. } => Ok(*value),
            other => Err(format!("{k:?} is not a number: {other:?}")),
        }
    };

    let setup_name = string("setup")?;
    let setup = Setup::ALL
        .into_iter()
        .find(|s| s.to_string() == setup_name)
        .ok_or_else(|| format!("unknown setup {setup_name:?}"))?;
    let basis = match string("basis")?.as_str() {
        "z" => Basis::Z,
        "x" => Basis::X,
        other => return Err(format!("unknown basis {other:?}")),
    };
    let decoder_name = string("decoder")?;
    let decoder = DecoderKind::parse(&decoder_name)
        .ok_or_else(|| format!("unknown decoder {decoder_name:?}"))?;
    let knob = match (field("knob")?, field("knob_value")?) {
        (JsonValue::Null, JsonValue::Null) => None,
        (JsonValue::Str(name), JsonValue::Num { value, .. }) => Some(KnobSetting {
            name: name.clone(),
            value: *value,
        }),
        (a, b) => return Err(format!("inconsistent knob columns: {a:?} / {b:?}")),
    };
    let program = match field("program")? {
        JsonValue::Null => None,
        JsonValue::Str(name) => Some(name.clone()),
        other => return Err(format!("\"program\" is not a string: {other:?}")),
    };
    let d = uint("d")? as usize;
    let rounds_col = uint("rounds")? as usize;
    let point = SweepPoint {
        setup,
        basis,
        d,
        p: float("p")?,
        k: uint("k")? as usize,
        // The artifact stores the *effective* round count; `rounds = d`
        // is the spec's `None` convention and renders identically.
        rounds: (rounds_col != d).then_some(rounds_col),
        decoder,
        shots: uint("shots")?,
        knob,
        program,
    };
    Ok(SweepRecord {
        index: uint("index")? as usize,
        point,
        base_seed: uint("seed")?,
        shots: uint("shots")?,
        failures: uint("failures")?,
    })
}

/// One loaded (and internally validated) sweep-record artifact
/// directory: raw lines for verbatim re-emission plus parsed records.
pub struct RecordArtifact {
    /// The directory the artifact was loaded from.
    pub dir: PathBuf,
    /// Raw CSV data rows (header excluded), verbatim.
    pub csv_rows: Vec<String>,
    /// Raw JSONL lines, verbatim.
    pub jsonl_lines: Vec<String>,
    /// Parsed records, in file order.
    pub records: Vec<SweepRecord>,
    /// The `.meta.json` sidecar, when present.
    pub meta: Option<SweepMeta>,
}

/// Reads just a file's first line (the CSV header), without the
/// trailing newline.
fn read_header(path: &Path) -> Result<String, MergeError> {
    if !path.exists() {
        return Err(MergeError::MissingFile(path.to_path_buf()));
    }
    let wrap = |e: io::Error| MergeError::Artifact(ArtifactError::Io(path.to_path_buf(), e));
    let mut line = String::new();
    io::BufReader::new(std::fs::File::open(path).map_err(wrap)?)
        .read_line(&mut line)
        .map_err(wrap)?;
    while line.ends_with(['\n', '\r']) {
        line.pop();
    }
    Ok(line)
}

fn read_lines(path: &Path) -> Result<Vec<String>, MergeError> {
    if !path.exists() {
        return Err(MergeError::MissingFile(path.to_path_buf()));
    }
    let file = std::fs::File::open(path)
        .map_err(|e| MergeError::Artifact(ArtifactError::Io(path.to_path_buf(), e)))?;
    io::BufReader::new(file)
        .lines()
        .collect::<io::Result<Vec<String>>>()
        .map_err(|e| MergeError::Artifact(ArtifactError::Io(path.to_path_buf(), e)))
}

/// Loads `<dir>/<stem>.{csv,jsonl}` (+ optional `.meta.json`) and
/// checks internal consistency:
///
/// - the CSV header is exactly [`RECORD_COLUMNS`];
/// - CSV row count equals JSONL line count;
/// - every JSONL line parses strictly as a record, and re-rendering the
///   parsed record reproduces both the JSONL line and the CSV row
///   byte-for-byte (so the two files agree on every column, including
///   the derived `rate` / `std_error`);
/// - all rows carry the same seed, equal to the sidecar's (when
///   present).
///
/// # Errors
///
/// Typed [`MergeError`]s for every violated invariant.
pub fn load_record_artifact(dir: &Path, stem: &str) -> Result<RecordArtifact, MergeError> {
    let csv_path = dir.join(format!("{stem}.csv"));
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    let mut csv_lines = read_lines(&csv_path)?;
    let jsonl_lines = read_lines(&jsonl_path)?;

    let expected_header = RECORD_COLUMNS.join(",");
    if csv_lines.first().map(String::as_str) != Some(expected_header.as_str()) {
        return Err(MergeError::SchemaMismatch(format!(
            "{} does not start with the sweep-record header {expected_header:?}",
            csv_path.display()
        )));
    }
    let csv_rows: Vec<String> = csv_lines.drain(..).skip(1).collect();
    if csv_rows.len() != jsonl_lines.len() {
        return Err(MergeError::SchemaMismatch(format!(
            "{} has {} rows but {} has {} lines",
            csv_path.display(),
            csv_rows.len(),
            jsonl_path.display(),
            jsonl_lines.len()
        )));
    }

    let meta = {
        let meta_path = SweepMeta::path_for(dir, stem);
        if meta_path.exists() {
            Some(SweepMeta::load(&meta_path)?)
        } else {
            None
        }
    };

    let mut records = Vec::with_capacity(jsonl_lines.len());
    let mut seed: Option<u64> = meta.map(|m| m.seed);
    for (i, line) in jsonl_lines.iter().enumerate() {
        let record = parse_record_line(line).map_err(|reason| ArtifactError::Malformed {
            path: jsonl_path.clone(),
            line: i + 1,
            reason,
        })?;
        let rendered = jsonl_row(&record);
        if &rendered != line {
            return Err(ArtifactError::Malformed {
                path: jsonl_path.clone(),
                line: i + 1,
                reason: format!("line is not in canonical sink form (expected {rendered:?})"),
            }
            .into());
        }
        let expected_csv = csv_row(&record);
        if csv_rows[i] != expected_csv {
            return Err(MergeError::SchemaMismatch(format!(
                "{}:{} disagrees with {}:{} (CSV row {:?}, JSONL implies {:?})",
                csv_path.display(),
                i + 2,
                jsonl_path.display(),
                i + 1,
                csv_rows[i],
                expected_csv
            )));
        }
        match seed {
            None => seed = Some(record.base_seed),
            Some(expected) if record.base_seed != expected => {
                return Err(ArtifactError::SeedMismatch {
                    path: jsonl_path.clone(),
                    line: i + 1,
                    found: record.base_seed,
                    expected,
                }
                .into());
            }
            Some(_) => {}
        }
        records.push(record);
    }

    Ok(RecordArtifact {
        dir: dir.to_path_buf(),
        csv_rows,
        jsonl_lines,
        records,
        meta,
    })
}

/// Which global indices a shard must hold, as far as merge or verify
/// can tell.
#[derive(Clone, Copy)]
enum Owners<'a> {
    /// Exactly those the shard owns under this plan, or under the
    /// stride rule when there is none.
    Known(Option<&'a ShardPlan>),
    /// The sidecar names a plan that was not given: any ascending
    /// subset, and only merge's cross-shard cover can find a gap.
    Unknown,
}

/// The one index-layout check of a shard artifact, for merge and verify
/// alike: global indices strictly ascending and below `total` and, when
/// the owners are known, owned by `shard` with none of its indices
/// missing.
fn check_indices(
    artifact: &RecordArtifact,
    shard: ShardSpec,
    total: usize,
    owners: Owners,
) -> Result<(), MergeError> {
    let dir = artifact.dir.display();
    let mut prev: Option<usize> = None;
    for (j, r) in artifact.records.iter().enumerate() {
        let g = r.index;
        let fault = if prev.is_some_and(|p| g <= p) {
            "out of ascending order"
        } else if g >= total {
            "beyond the grid"
        } else if matches!(owners, Owners::Known(plan) if !owns(plan, shard, g)) {
            "not owned by the shard"
        } else {
            prev = Some(g);
            continue;
        };
        return Err(MergeError::IndexMismatch(format!(
            "{dir}: record {j} has global index {g}, {fault} (shard {shard} of {total} points)"
        )));
    }
    if let Owners::Known(plan) = owners {
        let owned = (0..total).filter(|&g| owns(plan, shard, g)).count();
        if artifact.records.len() != owned {
            return Err(MergeError::IndexMismatch(format!(
                "{dir}: shard {shard} of {total} points must hold {owned} records, found {}",
                artifact.records.len()
            )));
        }
    }
    Ok(())
}

/// Outcome of a successful [`merge_artifacts`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeReport {
    /// Total merged data rows.
    pub rows: usize,
    /// How many shard directories were merged.
    pub shards: usize,
    /// The common base seed (`None` for an empty merge).
    pub seed: Option<u64>,
    /// Whether `.meta.json` sidecars were present (and a merged sidecar
    /// written).
    pub meta: bool,
}

/// Merges N shard artifact directories (passed in shard order: the
/// `i`-th directory must hold shard `i/N`) back into the artifacts an
/// unsharded run would have written under `out_dir`. `plan` is the
/// plan the shards ran under (`sweep-merge --plan`); `None` means they
/// strode, unless their sidecars carry a plan fingerprint.
///
/// Validates each shard (see [`load_record_artifact`]), that all shards
/// agree on seed and — when `.meta.json` sidecars are present — on
/// spec fingerprint, total point count and plan fingerprint, and that
/// a given plan matches them. Each shard then passes the index-layout
/// check: ascending indices within the grid, exactly the ones it owns
/// under `plan` or the stride rule. The owner is unknown only when the
/// sidecars name a plan and `plan` is `None`; then any disjoint cover of
/// `0..total` merges. Rows are re-emitted verbatim in global index
/// order, so the merged CSV/JSONL are byte-identical to a full run's
/// (this is what the canonical-form check in the loader guarantees);
/// the merged artifact is also a valid `--resume` cache.
///
/// # Errors
///
/// Typed [`MergeError`]s; the `sweep-merge` binary exits 2 on any.
pub fn merge_artifacts(
    shard_dirs: &[PathBuf],
    stem: &str,
    out_dir: &Path,
    plan: Option<&ShardPlan>,
) -> Result<MergeReport, MergeError> {
    assert!(!shard_dirs.is_empty(), "merge of zero shard directories");
    // Dispatch on the first shard's CSV header: sweep-record artifacts
    // get full semantic validation; any other schema (the analytic
    // binaries' `Table` artifacts, sharded by row index) merges
    // structurally. Only the header line is read here — each path then
    // loads its shards in full.
    if read_header(&shard_dirs[0].join(format!("{stem}.csv")))? != RECORD_COLUMNS.join(",") {
        if plan.is_some() {
            return Err(MergeError::MetaMismatch(format!(
                "{stem}: generic table artifacts are always stride-sharded; --plan does not apply"
            )));
        }
        return merge_generic(shard_dirs, stem, out_dir);
    }
    let count = shard_dirs.len();
    let artifacts: Vec<RecordArtifact> = shard_dirs
        .iter()
        .map(|dir| load_record_artifact(dir, stem))
        .collect::<Result<_, _>>()?;
    let total: usize = artifacts.iter().map(|a| a.records.len()).sum();

    // Cross-shard identity: seeds always; fingerprints, point counts,
    // and plan fingerprints through the sidecars when present
    // (all-or-none).
    let with_meta = artifacts.iter().filter(|a| a.meta.is_some()).count();
    if with_meta != 0 && with_meta != count {
        return Err(MergeError::MetaMismatch(format!(
            "{with_meta} of {count} shards have a .meta.json sidecar; need all or none"
        )));
    }
    let mut seed: Option<u64> = None;
    for (i, a) in artifacts.iter().enumerate() {
        let shard = ShardSpec::new(i, count).expect("i < count");
        if let Some(meta) = a.meta {
            if meta.shard != shard {
                return Err(MergeError::MetaMismatch(format!(
                    "{}: sidecar says shard {}, but it was passed as shard {shard}",
                    a.dir.display(),
                    meta.shard
                )));
            }
            if meta.points as usize != total {
                return Err(MergeError::MetaMismatch(format!(
                    "{}: sidecar says {} total points, shards sum to {total}",
                    a.dir.display(),
                    meta.points
                )));
            }
            let reference = artifacts[0].meta.expect("all-or-none checked above");
            if meta.spec_fingerprint != reference.spec_fingerprint {
                return Err(MergeError::MetaMismatch(format!(
                    "{}: spec fingerprint {:016x} differs from {}'s {:016x} — shards of different sweeps",
                    a.dir.display(),
                    meta.spec_fingerprint,
                    artifacts[0].dir.display(),
                    reference.spec_fingerprint
                )));
            }
            if meta.plan != reference.plan {
                return Err(MergeError::MetaMismatch(format!(
                    "{}: plan fingerprint {:?} differs from {}'s {:?} — shards of different plans",
                    a.dir.display(),
                    meta.plan.map(|fp| format!("{fp:016x}")),
                    artifacts[0].dir.display(),
                    reference.plan.map(|fp| format!("{fp:016x}")),
                )));
            }
        }
        let a_seed = a
            .meta
            .map(|m| m.seed)
            .or(a.records.first().map(|r| r.base_seed));
        match (seed, a_seed) {
            (None, s) => seed = s,
            (Some(expected), Some(found)) if found != expected => {
                return Err(MergeError::MetaMismatch(format!(
                    "{}: seed {found} differs from other shards' seed {expected}",
                    a.dir.display()
                )));
            }
            _ => {}
        }
    }
    // Reconcile the sidecars' plan fingerprint with the given plan.
    let meta_plan_fp = artifacts[0].meta.and_then(|m| m.plan);
    if let Some(p) = plan {
        if p.count() != count {
            return Err(MergeError::MetaMismatch(format!(
                "plan has {} shards, {count} directories passed",
                p.count()
            )));
        }
        if p.points() != total {
            return Err(MergeError::MetaMismatch(format!(
                "plan covers {} points, shards sum to {total}",
                p.points()
            )));
        }
        if with_meta == count && Some(p.fingerprint()) != meta_plan_fp {
            return Err(MergeError::MetaMismatch(format!(
                "plan fingerprint {:016x} does not match the sidecars' {:?}",
                p.fingerprint(),
                meta_plan_fp.map(|fp| format!("{fp:016x}")),
            )));
        }
    }

    let owners = match (plan, meta_plan_fp) {
        (None, Some(_)) => Owners::Unknown,
        _ => Owners::Known(plan),
    };
    for (i, a) in artifacts.iter().enumerate() {
        check_indices(
            a,
            ShardSpec::new(i, count).expect("i < count"),
            total,
            owners,
        )?;
    }
    let indices: Vec<Vec<usize>> = artifacts
        .iter()
        .map(|a| a.records.iter().map(|r| r.index).collect())
        .collect();
    let order = global_order(shard_dirs, &indices, total)?;
    let csv_rows: Vec<&[String]> = artifacts.iter().map(|a| a.csv_rows.as_slice()).collect();
    let jsonl_rows: Vec<&[String]> = artifacts.iter().map(|a| a.jsonl_lines.as_slice()).collect();
    write_merged(
        &out_dir.join(format!("{stem}.csv")),
        Some(&RECORD_COLUMNS.join(",")),
        &csv_rows,
        &order,
    )?;
    write_merged(
        &out_dir.join(format!("{stem}.jsonl")),
        None,
        &jsonl_rows,
        &order,
    )?;
    if let Some(meta) = artifacts[0].meta {
        SweepMeta {
            shard: ShardSpec::FULL,
            plan: None,
            ..meta
        }
        .write(out_dir, stem)
        .map_err(|e| MergeError::Io(SweepMeta::path_for(out_dir, stem), e))?;
    }
    Ok(MergeReport {
        rows: total,
        shards: count,
        seed,
        meta: with_meta == count,
    })
}

/// Rewrites a JSON-lines sweep artifact down to its longest valid
/// prefix: the leading run of lines that parse strictly as canonical
/// sweep records. A child process killed mid-write leaves at most one
/// torn final line; the supervisor salvages the file so the restarted
/// child's strict `--resume` loader accepts it. Returns
/// `(kept, dropped)` line counts; the file is only rewritten when
/// something was dropped.
///
/// # Errors
///
/// I/O errors reading or rewriting the file.
pub fn salvage_jsonl(path: &Path) -> io::Result<(usize, usize)> {
    let text = std::fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();
    let mut kept = 0;
    for line in &lines {
        match parse_record_line(line) {
            Ok(r) if jsonl_row(&r) == *line => kept += 1,
            _ => break,
        }
    }
    let dropped = lines.len() - kept;
    if dropped > 0 || (kept > 0 && !text.ends_with('\n')) {
        let mut salvaged = String::with_capacity(text.len());
        for line in &lines[..kept] {
            salvaged.push_str(line);
            salvaged.push('\n');
        }
        std::fs::write(path, salvaged)?;
    }
    Ok((kept, dropped))
}

/// The merged row order: entry `g` is the `(shard, row)` that holds
/// global index `g`. `indices[i]` lists shard `i`'s global indices, each
/// below `total`, row by row; an index held twice, or by no shard, is
/// an error.
fn global_order(
    shard_dirs: &[PathBuf],
    indices: &[Vec<usize>],
    total: usize,
) -> Result<Vec<(usize, usize)>, MergeError> {
    let mut cover: Vec<Option<(usize, usize)>> = vec![None; total];
    for (i, shard) in indices.iter().enumerate() {
        for (j, &g) in shard.iter().enumerate() {
            if let Some((other, _)) = cover[g].replace((i, j)) {
                return Err(MergeError::IndexMismatch(format!(
                    "{}: global index {g} already emitted by {}",
                    shard_dirs[i].display(),
                    shard_dirs[other].display()
                )));
            }
        }
    }
    cover
        .into_iter()
        .enumerate()
        .map(|(g, c)| {
            c.ok_or_else(|| MergeError::IndexMismatch(format!("no shard emitted global index {g}")))
        })
        .collect()
}

/// Writes the shards' rows in global order — `order[g]` names the
/// `(shard, row)` of global row `g` — behind an optional header. The
/// one merge writer for record and table artifacts.
fn write_merged(
    path: &Path,
    header: Option<&str>,
    shard_rows: &[&[String]],
    order: &[(usize, usize)],
) -> Result<(), MergeError> {
    let wrap = |e: io::Error| MergeError::Io(path.to_path_buf(), e);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(wrap)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path).map_err(wrap)?);
    if let Some(h) = header {
        writeln!(w, "{h}").map_err(wrap)?;
    }
    for &(i, j) in order {
        writeln!(w, "{}", shard_rows[i][j]).map_err(wrap)?;
    }
    w.flush().map_err(wrap)
}

/// Structural merge for non-record artifacts (`Table`-schema CSV/JSONL
/// sharded by row index, always by the stride rule): headers must
/// agree, and shard `i`'s rows, which carry no index column, are the
/// row indices it owns, so their count must match.
fn merge_generic(
    shard_dirs: &[PathBuf],
    stem: &str,
    out_dir: &Path,
) -> Result<MergeReport, MergeError> {
    let count = shard_dirs.len();
    let mut headers: Vec<String> = Vec::with_capacity(count);
    let mut csv_rows: Vec<Vec<String>> = Vec::with_capacity(count);
    let mut jsonl_rows: Vec<Vec<String>> = Vec::with_capacity(count);
    for dir in shard_dirs {
        let csv_path = dir.join(format!("{stem}.csv"));
        let mut csv = read_lines(&csv_path)?;
        let jsonl = read_lines(&dir.join(format!("{stem}.jsonl")))?;
        if csv.is_empty() {
            return Err(MergeError::SchemaMismatch(format!(
                "{} has no header row",
                csv_path.display()
            )));
        }
        let header = csv.remove(0);
        if csv.len() != jsonl.len() {
            return Err(MergeError::SchemaMismatch(format!(
                "{}: {} CSV rows vs {} JSONL lines",
                dir.display(),
                csv.len(),
                jsonl.len()
            )));
        }
        headers.push(header);
        csv_rows.push(csv);
        jsonl_rows.push(jsonl);
    }
    if let Some(other) = headers.iter().position(|h| h != &headers[0]) {
        return Err(MergeError::SchemaMismatch(format!(
            "{} and {} have different CSV headers",
            shard_dirs[0].display(),
            shard_dirs[other].display()
        )));
    }
    let total: usize = csv_rows.iter().map(Vec::len).sum();
    let mut indices = Vec::with_capacity(count);
    for (i, rows) in csv_rows.iter().enumerate() {
        let shard = ShardSpec::new(i, count).expect("i < count");
        let owned: Vec<usize> = (0..total).filter(|&g| shard.owns(g)).collect();
        if rows.len() != owned.len() {
            return Err(MergeError::IndexMismatch(format!(
                "{}: shard {shard} of {total} rows must hold {} rows, found {}",
                shard_dirs[i].display(),
                owned.len(),
                rows.len()
            )));
        }
        indices.push(owned);
    }
    let order = global_order(shard_dirs, &indices, total)?;
    let csv_slices: Vec<&[String]> = csv_rows.iter().map(Vec::as_slice).collect();
    let jsonl_slices: Vec<&[String]> = jsonl_rows.iter().map(Vec::as_slice).collect();
    write_merged(
        &out_dir.join(format!("{stem}.csv")),
        Some(&headers[0]),
        &csv_slices,
        &order,
    )?;
    write_merged(
        &out_dir.join(format!("{stem}.jsonl")),
        None,
        &jsonl_slices,
        &order,
    )?;
    Ok(MergeReport {
        rows: total,
        shards: count,
        seed: None,
        meta: false,
    })
}

/// Optional expectations for [`verify_artifact`] (all `None` checks
/// only internal consistency).
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyExpectations {
    /// Required data-row count.
    pub rows: Option<usize>,
    /// Required uniform base seed.
    pub seed: Option<u64>,
    /// Required shot count on every row.
    pub shots: Option<u64>,
}

/// Outcome of a successful [`verify_artifact`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Data rows found.
    pub rows: usize,
    /// The uniform base seed (`None` for an empty artifact without
    /// sidecar).
    pub seed: Option<u64>,
}

/// Verifies one sweep-record artifact directory: everything
/// [`load_record_artifact`] checks (row counts, strict parsing, seed
/// column, byte-level CSV↔JSONL agreement), plus merge's index-layout
/// check against the sidecar's shard coordinates (dense `0..rows` when
/// no sidecar is present) and any explicit [`VerifyExpectations`]. A
/// planned shard's sidecar names its plan but not the plan's owners,
/// so its indices need only ascend within the grid.
///
/// This replaces CI's former python artifact check; the `sweep-merge`
/// binary exposes it as `--verify` and exits 2 on any error.
///
/// # Errors
///
/// Typed [`MergeError`]s for every violated invariant.
pub fn verify_artifact(
    dir: &Path,
    stem: &str,
    expect: &VerifyExpectations,
) -> Result<VerifyReport, MergeError> {
    let artifact = load_record_artifact(dir, stem)?;
    let rows = artifact.records.len();
    let (shard, total, owners) = match artifact.meta {
        // The sidecar names a shard's plan but not its owners; a whole
        // run owns every index whatever its plan.
        Some(meta) if meta.plan.is_some() && !meta.shard.is_full() => {
            (meta.shard, meta.points as usize, Owners::Unknown)
        }
        Some(meta) => (meta.shard, meta.points as usize, Owners::Known(None)),
        None => (ShardSpec::FULL, rows, Owners::Known(None)),
    };
    check_indices(&artifact, shard, total, owners)?;
    if let Some(expected) = expect.rows {
        if rows != expected {
            return Err(MergeError::Expectation(format!(
                "{}: {rows} rows, expected {expected}",
                artifact.dir.display()
            )));
        }
    }
    let seed = artifact
        .meta
        .map(|m| m.seed)
        .or(artifact.records.first().map(|r| r.base_seed));
    if let Some(expected) = expect.seed {
        // An artifact with no rows and no sidecar has no seed at all —
        // that must fail an explicit seed expectation, not pass it
        // vacuously (a gutted artifact is exactly what --verify exists
        // to catch).
        match seed {
            Some(found) if found == expected => {}
            Some(found) => {
                return Err(MergeError::Expectation(format!(
                    "{}: seed {found}, expected {expected}",
                    artifact.dir.display()
                )));
            }
            None => {
                return Err(MergeError::Expectation(format!(
                    "{}: empty artifact carries no seed, expected {expected}",
                    artifact.dir.display()
                )));
            }
        }
    }
    if let Some(expected) = expect.shots {
        if artifact.records.is_empty() {
            return Err(MergeError::Expectation(format!(
                "{}: empty artifact cannot satisfy --expect-shots {expected}",
                artifact.dir.display()
            )));
        }
        if let Some(r) = artifact.records.iter().find(|r| r.shots != expected) {
            return Err(MergeError::Expectation(format!(
                "{}: record {} ran {} shots, expected {expected}",
                artifact.dir.display(),
                r.index,
                r.shots
            )));
        }
    }
    Ok(VerifyReport { rows, seed })
}

/// A parsed flat-JSON value (no nested containers — the record schema
/// is flat by construction). Numbers keep their raw digits so 64-bit
/// integers (seeds) round-trip exactly through `u64`, not `f64`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum JsonValue {
    /// A string literal.
    Str(String),
    /// A number, as both lossy float and exact source text.
    Num {
        /// The `f64` interpretation.
        value: f64,
        /// The raw token, for exact integer parsing.
        raw: String,
    },
    /// A boolean literal.
    Bool(bool),
    /// The `null` literal.
    Null,
}

/// Parses one flat JSON object (`{"key":value,...}` with string,
/// number, boolean, and null values). Returns `None` on any syntax it
/// doesn't recognize.
pub(crate) fn parse_flat_json(line: &str) -> Option<std::collections::HashMap<String, JsonValue>> {
    let mut chars = line.trim().chars().peekable();
    let mut out = std::collections::HashMap::new();
    if chars.next()? != '{' {
        return None;
    }
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                return chars.next().is_none().then_some(out);
            }
            ',' => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_string(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let value = parse_value(&mut chars)?;
        out.insert(key, value);
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let v = u32::from_str_radix(&code, 16).ok()?;
                    s.push(char::from_u32(v)?);
                }
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

fn parse_value(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<JsonValue> {
    match *chars.peek()? {
        '"' => Some(JsonValue::Str(parse_string(chars)?)),
        'n' => {
            for expect in "null".chars() {
                if chars.next()? != expect {
                    return None;
                }
            }
            Some(JsonValue::Null)
        }
        't' | 'f' => {
            let word = if *chars.peek()? == 't' {
                "true"
            } else {
                "false"
            };
            for expect in word.chars() {
                if chars.next()? != expect {
                    return None;
                }
            }
            Some(JsonValue::Bool(word == "true"))
        }
        _ => {
            let mut raw = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_digit() || "+-.eE".contains(c) {
                    raw.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            raw.parse().ok().map(|value| JsonValue::Num { value, raw })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CsvSink, JsonlSink, RecordSink};

    fn record(index: usize, d: usize, seed: u64) -> SweepRecord {
        SweepRecord {
            index,
            point: SweepPoint {
                setup: Setup::CompactInterleaved,
                basis: Basis::Z,
                d,
                p: 2e-3,
                k: 10,
                rounds: None,
                decoder: DecoderKind::Mwpm,
                shots: 500,
                knob: None,
                program: None,
            },
            base_seed: seed,
            shots: 500,
            failures: (index as u64 * 7) % 41,
        }
    }

    fn write_artifact(dir: &Path, stem: &str, records: &[SweepRecord], meta: Option<SweepMeta>) {
        std::fs::create_dir_all(dir).unwrap();
        let mut csv = CsvSink::new(Vec::new()).unwrap();
        let mut jsonl = JsonlSink::new(Vec::new());
        for r in records {
            csv.write(r).unwrap();
            jsonl.write(r).unwrap();
        }
        std::fs::write(dir.join(format!("{stem}.csv")), csv.into_inner()).unwrap();
        std::fs::write(dir.join(format!("{stem}.jsonl")), jsonl.into_inner()).unwrap();
        if let Some(meta) = meta {
            meta.write(dir, stem).unwrap();
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vlq-merge-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_line_round_trips_exactly() {
        let mut r = record(3, 5, u64::MAX - 7); // a seed f64 cannot hold
        r.point.knob = Some(KnobSetting {
            name: "cavity-t1".to_string(),
            value: 1.5e-3,
        });
        r.point.program = Some("ghz4".to_string());
        let line = jsonl_row(&r);
        let parsed = parse_record_line(&line).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(jsonl_row(&parsed), line);
    }

    #[test]
    fn truncated_and_garbage_lines_are_hard_errors() {
        for bad in ["", "not json", "{\"d\":3", "{\"truncated\":", "{}"] {
            assert!(parse_record_line(bad).is_err(), "{bad:?} should fail");
        }
        // A syntactically-valid object with a wrong type is also fatal.
        let mut line = jsonl_row(&record(0, 3, 1));
        line = line.replace("\"failures\":0", "\"failures\":\"zero\"");
        assert!(parse_record_line(&line).is_err());
    }

    #[test]
    fn meta_round_trips() {
        let dir = tmp("meta");
        let meta = SweepMeta {
            seed: u64::MAX - 1,
            spec_fingerprint: 0x0123_4567_89ab_cdef,
            points: 12,
            shard: ShardSpec { index: 2, count: 3 },
            plan: None,
        };
        meta.write(&dir, "fig11").unwrap();
        let loaded = SweepMeta::load(&SweepMeta::path_for(&dir, "fig11")).unwrap();
        assert_eq!(loaded, meta);
        // A plan fingerprint round-trips too, and planless rendering is
        // byte-identical to the pre-plan schema.
        assert!(!meta.render().contains("plan"));
        let planned = SweepMeta {
            plan: Some(0xdead_beef_0042_1111),
            ..meta
        };
        planned.write(&dir, "fig11p").unwrap();
        let loaded = SweepMeta::load(&SweepMeta::path_for(&dir, "fig11p")).unwrap();
        assert_eq!(loaded, planned);
        assert!(planned
            .render()
            .ends_with(",\"plan\":\"deadbeef00421111\"}"));
    }

    #[test]
    fn merge_interleaves_back_to_the_full_artifact() {
        let base = tmp("merge-ok");
        let full: Vec<SweepRecord> = (0..7).map(|i| record(i, 3 + 2 * (i % 3), 9)).collect();
        let fp = 0xfeed_beef_u64;
        let count = 3;
        let mut dirs = Vec::new();
        for i in 0..count {
            let dir = base.join(format!("shard{i}"));
            let records: Vec<SweepRecord> = full
                .iter()
                .filter(|r| r.index % count == i)
                .cloned()
                .collect();
            let meta = SweepMeta {
                seed: 9,
                spec_fingerprint: fp,
                points: full.len() as u64,
                shard: ShardSpec::new(i, count).unwrap(),
                plan: None,
            };
            write_artifact(&dir, "fig11", &records, Some(meta));
            dirs.push(dir);
        }
        let out = base.join("merged");
        let report = merge_artifacts(&dirs, "fig11", &out, None).unwrap();
        assert_eq!(report.rows, 7);
        assert_eq!(report.seed, Some(9));
        assert!(report.meta);

        let reference = base.join("reference");
        write_artifact(
            &reference,
            "fig11",
            &full,
            Some(SweepMeta {
                seed: 9,
                spec_fingerprint: fp,
                points: 7,
                shard: ShardSpec::FULL,
                plan: None,
            }),
        );
        for file in ["fig11.csv", "fig11.jsonl", "fig11.meta.json"] {
            assert_eq!(
                std::fs::read(out.join(file)).unwrap(),
                std::fs::read(reference.join(file)).unwrap(),
                "{file} differs from the unsharded artifact"
            );
        }
        verify_artifact(
            &out,
            "fig11",
            &VerifyExpectations {
                rows: Some(7),
                seed: Some(9),
                shots: Some(500),
            },
        )
        .unwrap();
    }

    #[test]
    fn merge_rejects_seed_and_fingerprint_mismatches() {
        let base = tmp("merge-bad");
        let mk = |name: &str, records: &[SweepRecord], meta: Option<SweepMeta>| {
            let dir = base.join(name);
            write_artifact(&dir, "s", records, meta);
            dir
        };
        let meta = |seed, fp, shard| SweepMeta {
            seed,
            spec_fingerprint: fp,
            points: 2,
            shard,
            plan: None,
        };
        let s0 = ShardSpec::new(0, 2).unwrap();
        let s1 = ShardSpec::new(1, 2).unwrap();

        // Seed mismatch between shards.
        let a = mk("a0", &[record(0, 3, 1)], Some(meta(1, 5, s0)));
        let b = mk("b1", &[record(1, 3, 2)], Some(meta(2, 5, s1)));
        let err = merge_artifacts(&[a.clone(), b], "s", &base.join("out1"), None).unwrap_err();
        assert!(matches!(err, MergeError::MetaMismatch(_)), "{err}");

        // Fingerprint mismatch.
        let b = mk("b2", &[record(1, 3, 1)], Some(meta(1, 6, s1)));
        let err = merge_artifacts(&[a.clone(), b], "s", &base.join("out2"), None).unwrap_err();
        assert!(matches!(err, MergeError::MetaMismatch(_)), "{err}");

        // Wrong shard position.
        let b = mk("b3", &[record(1, 3, 1)], Some(meta(1, 5, s0)));
        let err = merge_artifacts(&[a.clone(), b], "s", &base.join("out3"), None).unwrap_err();
        assert!(matches!(err, MergeError::MetaMismatch(_)), "{err}");

        // Index gap: shard 1 carries an even index.
        let b = mk("b4", &[record(2, 3, 1)], Some(meta(1, 5, s1)));
        let err = merge_artifacts(&[a, b], "s", &base.join("out4"), None).unwrap_err();
        assert!(matches!(err, MergeError::IndexMismatch(_)), "{err}");
    }

    #[test]
    fn planned_shards_merge_back_to_the_full_artifact() {
        let base = tmp("merge-plan");
        let full: Vec<SweepRecord> = (0..7).map(|i| record(i, 3 + 2 * (i % 3), 9)).collect();
        let fp = 0xfeed_beef_u64;
        // A deliberately non-stride cover: contiguous runs per shard.
        let owners: Vec<u32> = vec![0, 0, 0, 1, 1, 2, 2];
        let plan = ShardPlan { count: 3, owners };
        let plan_fp = plan.fingerprint();
        let mut dirs = Vec::new();
        for i in 0..3 {
            let dir = base.join(format!("shard{i}"));
            let records: Vec<SweepRecord> = full
                .iter()
                .filter(|r| plan.owner_of(r.index) == i)
                .cloned()
                .collect();
            let meta = SweepMeta {
                seed: 9,
                spec_fingerprint: fp,
                points: full.len() as u64,
                shard: ShardSpec::new(i, 3).unwrap(),
                plan: Some(plan_fp),
            };
            write_artifact(&dir, "fig11", &records, Some(meta));
            // Each planned shard verifies standalone (ascending check).
            verify_artifact(&dir, "fig11", &VerifyExpectations::default()).unwrap();
            dirs.push(dir);
        }
        let out = base.join("merged");
        let report = merge_artifacts(&dirs, "fig11", &out, Some(&plan)).unwrap();
        assert_eq!(report.rows, 7);
        assert_eq!(report.seed, Some(9));

        // The merged artifact is byte-identical to the unsharded run's,
        // including the sidecar (plan field dropped on merge).
        let reference = base.join("reference");
        write_artifact(
            &reference,
            "fig11",
            &full,
            Some(SweepMeta {
                seed: 9,
                spec_fingerprint: fp,
                points: 7,
                shard: ShardSpec::FULL,
                plan: None,
            }),
        );
        for file in ["fig11.csv", "fig11.jsonl", "fig11.meta.json"] {
            assert_eq!(
                std::fs::read(out.join(file)).unwrap(),
                std::fs::read(reference.join(file)).unwrap(),
                "{file} differs from the unsharded artifact"
            );
        }
        // Without the explicit plan the sidecar fingerprints still gate
        // the merge into the disjoint-cover path.
        let out2 = base.join("merged2");
        merge_artifacts(&dirs, "fig11", &out2, None).unwrap();
        assert_eq!(
            std::fs::read(out.join("fig11.jsonl")).unwrap(),
            std::fs::read(out2.join("fig11.jsonl")).unwrap()
        );
        // A mismatched plan is rejected.
        let wrong = ShardPlan {
            count: 3,
            owners: vec![0, 1, 2, 0, 1, 2, 0],
        };
        let err = merge_artifacts(&dirs, "fig11", &base.join("out-bad"), Some(&wrong)).unwrap_err();
        assert!(matches!(err, MergeError::MetaMismatch(_)), "{err}");
    }

    #[test]
    fn planned_merge_rejects_overlap_and_gaps() {
        let base = tmp("merge-plan-bad");
        let fp = 0x1234_u64;
        let plan = ShardPlan {
            count: 2,
            owners: vec![0, 1, 0, 1],
        };
        let plan_fp = plan.fingerprint();
        let meta = |i: usize, points: u64| SweepMeta {
            seed: 9,
            spec_fingerprint: fp,
            points,
            shard: ShardSpec::new(i, 2).unwrap(),
            plan: Some(plan_fp),
        };
        let mk = |name: &str, idxs: &[usize], m: SweepMeta| {
            let dir = base.join(name);
            let records: Vec<SweepRecord> = idxs.iter().map(|&i| record(i, 3, 9)).collect();
            write_artifact(&dir, "s", &records, Some(m));
            dir
        };
        // Overlap: index 2 emitted by both shards (and 3 by neither, so
        // the totals still balance — the duplicate must be what trips).
        let a = mk("a", &[0, 2], meta(0, 4));
        let b = mk("b", &[1, 2], meta(1, 4));
        let err = merge_artifacts(&[a, b], "s", &base.join("o1"), None).unwrap_err();
        assert!(matches!(err, MergeError::IndexMismatch(_)), "{err}");
        // Out-of-range: index 3 beyond a 3-point grid (2 missing).
        let a = mk("a2", &[0, 3], meta(0, 3));
        let b = mk("b2", &[1], meta(1, 3));
        let err = merge_artifacts(&[a, b], "s", &base.join("o2"), None).unwrap_err();
        assert!(matches!(err, MergeError::IndexMismatch(_)), "{err}");
        // Descending order within a shard.
        let a3 = base.join("a3");
        let recs = vec![record(2, 3, 9), record(0, 3, 9)];
        write_artifact(&a3, "s", &recs, Some(meta(0, 3)));
        let b = mk("b3", &[1], meta(1, 3));
        let err = merge_artifacts(&[a3, b], "s", &base.join("o3"), None).unwrap_err();
        assert!(matches!(err, MergeError::IndexMismatch(_)), "{err}");
    }

    #[test]
    fn salvage_truncates_to_longest_valid_prefix() {
        let dir = tmp("salvage");
        let records: Vec<SweepRecord> = (0..4).map(|i| record(i, 3 + 2 * i, 7)).collect();
        write_artifact(&dir, "s", &records, None);
        let path = dir.join("s.jsonl");

        // Intact file: nothing dropped, bytes untouched.
        let before = std::fs::read(&path).unwrap();
        assert_eq!(salvage_jsonl(&path).unwrap(), (4, 0));
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // Torn final line (killed mid-write): dropped, rest kept.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 15]).unwrap();
        assert_eq!(salvage_jsonl(&path).unwrap(), (3, 1));
        let cache = crate::resume::ResumeCache::load_jsonl(&path).expect("salvaged file strict");
        assert_eq!(cache.len(), 3);

        // Garbage mid-file: everything from the bad line on is dropped.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = "{\"not\":\"a record\"}".to_string();
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        assert_eq!(salvage_jsonl(&path).unwrap(), (1, 3));
        assert_eq!(
            crate::resume::ResumeCache::load_jsonl(&path).unwrap().len(),
            1
        );
    }

    #[test]
    fn verify_rejects_truncated_and_tampered_artifacts() {
        let dir = tmp("verify-bad");
        let records: Vec<SweepRecord> = (0..3).map(|i| record(i, 3, 4)).collect();
        write_artifact(&dir, "s", &records, None);
        verify_artifact(&dir, "s", &VerifyExpectations::default()).unwrap();

        // Truncate the final JSONL line mid-object.
        let jsonl = dir.join("s.jsonl");
        let text = std::fs::read_to_string(&jsonl).unwrap();
        std::fs::write(&jsonl, &text[..text.len() - 20]).unwrap();
        let err = verify_artifact(&dir, "s", &VerifyExpectations::default()).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::Artifact(ArtifactError::Malformed { line: 3, .. })
            ),
            "{err}"
        );

        // Tamper with a CSV cell: CSV no longer agrees with JSONL.
        std::fs::write(&jsonl, &text).unwrap();
        let csv = dir.join("s.csv");
        let tampered = std::fs::read_to_string(&csv)
            .unwrap()
            .replace(",500,", ",501,");
        std::fs::write(&csv, tampered).unwrap();
        let err = verify_artifact(&dir, "s", &VerifyExpectations::default()).unwrap_err();
        assert!(matches!(err, MergeError::SchemaMismatch(_)), "{err}");
    }

    #[test]
    fn empty_artifact_fails_explicit_seed_and_shots_expectations() {
        let dir = tmp("verify-empty");
        write_artifact(&dir, "s", &[], None);
        // Internally consistent, so expectation-free verify passes...
        let report = verify_artifact(&dir, "s", &VerifyExpectations::default()).unwrap();
        assert_eq!(report.rows, 0);
        assert_eq!(report.seed, None);
        // ...but a gutted artifact must not satisfy explicit
        // expectations vacuously.
        for expect in [
            VerifyExpectations {
                seed: Some(2020),
                ..Default::default()
            },
            VerifyExpectations {
                shots: Some(200),
                ..Default::default()
            },
        ] {
            let err = verify_artifact(&dir, "s", &expect).unwrap_err();
            assert!(matches!(err, MergeError::Expectation(_)), "{err}");
        }
    }

    #[test]
    fn generic_table_artifacts_merge_round_robin() {
        use crate::artifact::Table;
        let base = tmp("merge-table");
        let mut full = Table::new(["name", "x"]);
        for i in 0..5 {
            full.row([format!("row{i}").into(), (i as f64 * 0.5).into()]);
        }
        let reference = base.join("reference");
        full.write_dir(&reference, "t").unwrap();
        let count = 2;
        let mut dirs = Vec::new();
        for i in 0..count {
            let dir = base.join(format!("shard{i}"));
            full.shard(ShardSpec::new(i, count).unwrap())
                .write_dir(&dir, "t")
                .unwrap();
            dirs.push(dir);
        }
        let out = base.join("merged");
        let report = merge_artifacts(&dirs, "t", &out, None).unwrap();
        assert_eq!(report.rows, 5);
        assert!(!report.meta);
        for file in ["t.csv", "t.jsonl"] {
            assert_eq!(
                std::fs::read(out.join(file)).unwrap(),
                std::fs::read(reference.join(file)).unwrap(),
                "{file} differs from the unsharded table artifact"
            );
        }
        // Shards passed in the wrong order (sizes 2,3 instead of 3,2)
        // violate the interleaving shape and are a typed error.
        let err =
            merge_artifacts(&[dirs[1].clone(), dirs[0].clone()], "t", &out, None).unwrap_err();
        assert!(matches!(err, MergeError::IndexMismatch(_)), "{err}");
    }

    #[test]
    fn flat_json_parser_handles_escapes_and_types() {
        let obj =
            parse_flat_json("{\"a\":\"x\\\"y\",\"b\":-1.5e-3,\"c\":null,\"d\":true}").unwrap();
        assert_eq!(obj["a"], JsonValue::Str("x\"y".to_string()));
        assert_eq!(
            obj["b"],
            JsonValue::Num {
                value: -1.5e-3,
                raw: "-1.5e-3".to_string()
            }
        );
        assert_eq!(obj["c"], JsonValue::Null);
        assert_eq!(obj["d"], JsonValue::Bool(true));
        assert!(parse_flat_json("{\"a\":1} trailing").is_none());
    }
}
