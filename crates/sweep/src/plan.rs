//! Shard-ownership plans.
//!
//! [`crate::ShardSpec`] alone means round-robin striding: shard `i/N`
//! owns the points with `global_index % N == i`. That is the right
//! default — no coordination, no files — but it balances *point counts*,
//! not *cost*: a d=13 grid point can cost orders of magnitude more than
//! a d=3 one, so striding leaves most of a fleet idle behind one hot
//! shard. A [`ShardPlan`] names one owner per point instead, any
//! disjoint cover of `0..points`. Stride is the absence of a plan: one
//! owner function answers "does this shard own point `g`" for both, and
//! the engine ([`crate::RunOptions::owns`]), `sweep-merge` and
//! `sweep-merge --verify` all ask it.
//!
//! Plans are deterministic artifacts: built by a pure greedy LPT pass
//! over measured per-point costs ([`ShardPlan::from_costs`]),
//! fingerprinted, and round-tripped through a single-line JSON file so
//! every shard of a fleet (and `sweep-merge` afterwards) can prove it
//! is working from the same assignment.

use std::fmt;
use std::io;
use std::path::Path;

use crate::merge::{parse_flat_json, JsonValue};
use crate::shard::ShardSpec;
use crate::spec::splitmix64;

/// Schema tag of the plan file.
pub const PLAN_SCHEMA: &str = "vlq-shard-plan-v1";

/// Schema tag of the per-point times file ([`load_times`]).
pub const TIMES_SCHEMA: &str = "vlq-sweep-times-v1";

/// Everything that can go wrong loading or validating a plan or times
/// file.
#[derive(Debug)]
pub enum PlanError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file exists but does not parse as a valid plan/times file.
    Malformed {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "plan I/O error: {e}"),
            PlanError::Malformed { reason } => write!(f, "malformed plan: {reason}"),
        }
    }
}

impl From<io::Error> for PlanError {
    fn from(e: io::Error) -> Self {
        PlanError::Io(e)
    }
}

fn malformed(reason: impl Into<String>) -> PlanError {
    PlanError::Malformed {
        reason: reason.into(),
    }
}

/// An explicit assignment of globally-numbered grid points to shards:
/// what a plan file holds. Point `g` belongs to shard `owners[g]`.
///
/// There is no stride plan: a run without a plan strides
/// ([`crate::ShardSpec::owns`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards (at least 1).
    pub(crate) count: usize,
    /// Owner shard of each global point index (each below `count`).
    pub(crate) owners: Vec<u32>,
}

/// Whether `shard` owns global point `g`: the plan's owner when there
/// is a plan, the stride rule ([`ShardSpec::owns`]) when there is none.
/// The engine ([`crate::RunOptions::owns`]), merge and verify all ask
/// this one function.
///
/// # Panics
///
/// Panics if `g` is beyond the plan's points; check the grid first
/// ([`ShardPlan::check_grid`]).
pub(crate) fn owns(plan: Option<&ShardPlan>, shard: ShardSpec, g: usize) -> bool {
    match plan {
        Some(plan) => plan.owner_of(g) == shard.index,
        None => shard.owns(g),
    }
}

impl ShardPlan {
    /// Number of shards the plan distributes over.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of points the plan covers.
    pub fn points(&self) -> usize {
        self.owners.len()
    }

    /// The owning shard of global point `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.points()`.
    pub fn owner_of(&self, g: usize) -> usize {
        self.owners[g] as usize
    }

    /// A stable 64-bit fingerprint of the assignment. Recorded in the
    /// `.meta.json` sidecar so merge validation can refuse to
    /// interleave shards cut from different plans.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(0x7368_6172_6470_6c6e ^ self.count as u64); // "shardpln"
        for &o in &self.owners {
            h = splitmix64(h ^ u64::from(o).rotate_left(17));
        }
        h
    }

    /// Builds a cost-balanced plan by deterministic greedy LPT
    /// (longest processing time first): points sorted by cost
    /// descending (index ascending on ties) are assigned one by one to
    /// the least-loaded shard (lowest index on ties). Pure function of
    /// `(count, costs)` — same inputs, same plan, same fingerprint.
    pub fn from_costs(count: usize, costs: &[u64]) -> Self {
        let count = count.max(1);
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
        let mut load = vec![0u64; count];
        let mut owners = vec![0u32; costs.len()];
        for &i in &order {
            let shard = (0..count)
                .min_by_key(|&s| (load[s], s))
                .expect("count >= 1");
            owners[i] = shard as u32;
            // Zero-cost points still count as work so pathological cost
            // vectors cannot pile every point onto shard 0.
            load[shard] += costs[i].max(1);
        }
        ShardPlan { count, owners }
    }

    /// Renders the plan as its single-line JSON plan file.
    ///
    /// Fixed key order; owners are comma-separated decimals so the file
    /// stays flat-JSON parseable at any shard count.
    pub fn render(&self) -> String {
        let owner_list: Vec<String> = self.owners.iter().map(|o| o.to_string()).collect();
        format!(
            "{{\"schema\":\"{PLAN_SCHEMA}\",\"count\":{},\"points\":{},\
             \"fingerprint\":\"{:016x}\",\"owners\":\"{}\"}}\n",
            self.count,
            self.owners.len(),
            self.fingerprint(),
            owner_list.join(",")
        )
    }

    /// Writes the plan file to `path` ([`ShardPlan::render`]).
    pub fn save(&self, path: &Path) -> Result<(), PlanError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())?;
        Ok(())
    }

    /// Parses a plan file's text, self-checking the recorded
    /// fingerprint against the recomputed one.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let line = text.trim();
        let fields = parse_flat_json(line)
            .ok_or_else(|| malformed("plan file is not a flat JSON object"))?;
        let get = |key: &str| -> Result<&JsonValue, PlanError> {
            fields
                .iter()
                .find(|(k, _)| k.as_str() == key)
                .map(|(_, v)| v)
                .ok_or_else(|| malformed(format!("missing key {key:?}")))
        };
        match get("schema")? {
            JsonValue::Str(s) if s == PLAN_SCHEMA => {}
            other => return Err(malformed(format!("bad schema {other:?}"))),
        }
        let count = match get("count")? {
            JsonValue::Num { raw, .. } => raw
                .parse::<usize>()
                .map_err(|_| malformed("count is not an integer"))?,
            other => return Err(malformed(format!("bad count {other:?}"))),
        };
        if count == 0 {
            return Err(malformed("count must be >= 1"));
        }
        let points = match get("points")? {
            JsonValue::Num { raw, .. } => raw
                .parse::<usize>()
                .map_err(|_| malformed("points is not an integer"))?,
            other => return Err(malformed(format!("bad points {other:?}"))),
        };
        let recorded_fp = match get("fingerprint")? {
            JsonValue::Str(s) => {
                u64::from_str_radix(s, 16).map_err(|_| malformed("fingerprint is not a hex u64"))?
            }
            other => return Err(malformed(format!("bad fingerprint {other:?}"))),
        };
        let owners_str = match get("owners")? {
            JsonValue::Str(s) => s.clone(),
            other => return Err(malformed(format!("bad owners {other:?}"))),
        };
        let owners: Vec<u32> = if owners_str.is_empty() {
            Vec::new()
        } else {
            owners_str
                .split(',')
                .map(|t| t.parse::<u32>().map_err(|_| malformed("non-integer owner")))
                .collect::<Result<_, _>>()?
        };
        if owners.len() != points {
            return Err(malformed(format!(
                "owners list has {} entries, points says {points}",
                owners.len()
            )));
        }
        if let Some(bad) = owners.iter().find(|&&o| o as usize >= count) {
            return Err(malformed(format!(
                "owner {bad} out of range for {count} shards"
            )));
        }
        let plan = ShardPlan { count, owners };
        let fp = plan.fingerprint();
        if fp != recorded_fp {
            return Err(malformed(format!(
                "fingerprint mismatch: file says {recorded_fp:016x}, assignment hashes to {fp:016x}"
            )));
        }
        Ok(plan)
    }

    /// Loads and self-checks a plan file from `path`.
    pub fn load(path: &Path) -> Result<Self, PlanError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Validates the plan against a run: it must be cut for `count`
    /// shards and cover exactly `points` points.
    pub fn check_grid(&self, count: usize, points: usize) -> Result<(), PlanError> {
        if self.count != count {
            return Err(malformed(format!(
                "plan is cut for {} shards, run uses {count}",
                self.count
            )));
        }
        if self.owners.len() != points {
            return Err(malformed(format!(
                "plan covers {} points, grid has {points}",
                self.owners.len()
            )));
        }
        Ok(())
    }
}

/// One row of a per-point times file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimesEntry {
    /// Global point index.
    pub index: usize,
    /// Shots the timed run executed for this point.
    pub shots: u64,
    /// Busy nanoseconds summed over the point's chunks.
    pub nanos: u64,
}

/// A parsed `vlq-sweep-times-v1` file ([`crate::sink::TimesSink`]'s
/// output): the calibration input of [`ShardPlan::from_costs`].
#[derive(Clone, Debug, Default)]
pub struct TimesFile {
    /// Base seed of the run that produced the times.
    pub seed: u64,
    /// One entry per completed point, in emission order.
    pub entries: Vec<TimesEntry>,
}

impl TimesFile {
    /// Per-point costs indexed by global point index `0..points`.
    /// Every index must be covered exactly once.
    pub fn costs(&self, points: usize) -> Result<Vec<u64>, PlanError> {
        let mut costs = vec![None; points];
        for e in &self.entries {
            if e.index >= points {
                return Err(malformed(format!(
                    "times entry index {} out of range for {points} points",
                    e.index
                )));
            }
            if costs[e.index].replace(e.nanos).is_some() {
                return Err(malformed(format!(
                    "duplicate times entry for index {}",
                    e.index
                )));
            }
        }
        costs
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.ok_or_else(|| malformed(format!("no times entry for index {i}"))))
            .collect()
    }
}

/// Loads a per-point times file written by a `--times` run.
pub fn load_times(path: &Path) -> Result<TimesFile, PlanError> {
    let text = std::fs::read_to_string(path)?;
    parse_times(&text)
}

/// Parses the text of a per-point times file.
pub fn parse_times(text: &str) -> Result<TimesFile, PlanError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| malformed("times file is empty"))?;
    let fields = parse_flat_json(header)
        .ok_or_else(|| malformed("times header is not a flat JSON object"))?;
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k.as_str() == key)
            .map(|(_, v)| v)
    };
    match get("schema") {
        Some(JsonValue::Str(s)) if s == TIMES_SCHEMA => {}
        other => return Err(malformed(format!("bad times schema {other:?}"))),
    }
    let seed = match get("seed") {
        Some(JsonValue::Num { raw, .. }) => raw
            .parse::<u64>()
            .map_err(|_| malformed("seed is not an integer"))?,
        other => return Err(malformed(format!("bad times seed {other:?}"))),
    };
    let mut entries = Vec::new();
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_flat_json(line)
            .ok_or_else(|| malformed(format!("times line {} is not flat JSON", lineno + 1)))?;
        let num = |key: &str| -> Result<u64, PlanError> {
            match fields
                .iter()
                .find(|(k, _)| k.as_str() == key)
                .map(|(_, v)| v)
            {
                Some(JsonValue::Num { raw, .. }) => raw.parse::<u64>().map_err(|_| {
                    malformed(format!("line {}: {key} is not an integer", lineno + 1))
                }),
                other => Err(malformed(format!(
                    "line {}: bad {key} {other:?}",
                    lineno + 1
                ))),
            }
        };
        entries.push(TimesEntry {
            index: num("index")? as usize,
            shots: num("shots")?,
            nanos: num("nanos")?,
        });
    }
    Ok(TimesFile { seed, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_skewed_costs() {
        // One huge point and many small ones: LPT must isolate the
        // huge point and spread the rest.
        let mut costs = vec![10u64; 9];
        costs[0] = 1000;
        let plan = ShardPlan::from_costs(3, &costs);
        let loads: Vec<u64> = (0..3)
            .map(|s| {
                costs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| plan.owner_of(*i) == s)
                    .map(|(_, &c)| c)
                    .sum()
            })
            .collect();
        // The huge point's shard gets nothing else.
        let huge = plan.owner_of(0);
        assert_eq!(loads[huge], 1000);
        // The other 8 small points split 4/4.
        let others: Vec<u64> = (0..3).filter(|&s| s != huge).map(|s| loads[s]).collect();
        assert_eq!(others, vec![40, 40]);
        // Deterministic: same inputs, same plan.
        assert_eq!(plan, ShardPlan::from_costs(3, &costs));
    }

    #[test]
    fn explicit_plan_round_trips_through_file_form() {
        let plan = ShardPlan::from_costs(3, &[5, 1, 9, 2, 2, 7, 1, 1]);
        let text = plan.render();
        let back = ShardPlan::parse(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn parse_rejects_tampering() {
        let plan = ShardPlan::from_costs(2, &[3, 1, 4, 1, 5]);
        let text = plan.render();
        // Flip one owner: the recorded fingerprint no longer matches.
        let tampered = if text.contains("\"owners\":\"0") {
            text.replacen("\"owners\":\"0", "\"owners\":\"1", 1)
        } else {
            text.replacen("\"owners\":\"1", "\"owners\":\"0", 1)
        };
        assert!(matches!(
            ShardPlan::parse(&tampered),
            Err(PlanError::Malformed { .. })
        ));
        // Out-of-range owner.
        assert!(ShardPlan::parse(
            "{\"schema\":\"vlq-shard-plan-v1\",\"count\":2,\"points\":1,\
             \"fingerprint\":\"0000000000000000\",\"owners\":\"7\"}"
        )
        .is_err());
        // Wrong schema.
        assert!(ShardPlan::parse(
            "{\"schema\":\"nope\",\"count\":1,\"points\":0,\
             \"fingerprint\":\"0\",\"owners\":\"\"}"
        )
        .is_err());
    }

    #[test]
    fn grid_check_catches_mismatches() {
        let plan = ShardPlan::from_costs(2, &[1, 2, 3]);
        assert!(plan.check_grid(2, 3).is_ok());
        assert!(plan.check_grid(3, 3).is_err());
        assert!(plan.check_grid(2, 4).is_err());
    }

    #[test]
    fn times_file_round_trip_and_cost_extraction() {
        let text = "{\"schema\":\"vlq-sweep-times-v1\",\"seed\":2020}\n\
                    {\"index\":1,\"shots\":100,\"nanos\":500}\n\
                    {\"index\":0,\"shots\":100,\"nanos\":900}\n";
        let times = parse_times(text).unwrap();
        assert_eq!(times.seed, 2020);
        assert_eq!(times.entries.len(), 2);
        assert_eq!(times.costs(2).unwrap(), vec![900, 500]);
        // Missing index 2.
        assert!(times.costs(3).is_err());
        // Bad header.
        assert!(parse_times("{\"schema\":\"x\",\"seed\":1}\n").is_err());
    }
}
