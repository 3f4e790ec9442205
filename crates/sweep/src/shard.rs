//! Sharding a sweep across processes or machines.
//!
//! A [`ShardSpec`] `i/N` without a plan selects the grid points whose
//! **global** point index `g` satisfies `g % N == i` (the stride rule,
//! [`ShardSpec::owns`]); with a [`crate::ShardPlan`] it selects the
//! points the plan gives shard `i` ([`crate::RunOptions::owns`]). Because
//! per-chunk RNG seeds derive only from the base seed and the point's
//! coordinates (never from the schedule or from which process runs the
//! point), a shard computes exactly the records the full run would have
//! computed for its points. Shard artifacts keep the global point
//! numbering in their `index` column, so `sweep-merge` can put N shard
//! artifacts back into a CSV/JSONL pair byte-identical to an unsharded
//! run.

use std::fmt;
use std::str::FromStr;

/// One shard of a sweep: without a plan, own the points with
/// `index % count == self.index`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// This shard's position, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

/// Why a shard spec could not be constructed or parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// `count` was zero.
    ZeroCount,
    /// `index` was not less than `count`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The shard count it must be below.
        count: usize,
    },
    /// The string was not of the form `i/N`.
    Malformed(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroCount => write!(f, "shard count must be >= 1"),
            ShardError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range (count {count})")
            }
            ShardError::Malformed(s) => write!(f, "malformed shard spec {s:?}, expected i/N"),
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardSpec {
    /// The degenerate single-shard spec (an unsharded run).
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// A validated shard spec.
    ///
    /// # Errors
    ///
    /// [`ShardError::ZeroCount`] / [`ShardError::IndexOutOfRange`] on
    /// invalid coordinates.
    pub fn new(index: usize, count: usize) -> Result<Self, ShardError> {
        if count == 0 {
            return Err(ShardError::ZeroCount);
        }
        if index >= count {
            return Err(ShardError::IndexOutOfRange { index, count });
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this is the unsharded `0/1` spec.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// Whether this shard owns the point with global index `point_index`.
    pub fn owns(&self, point_index: usize) -> bool {
        point_index % self.count == self.index
    }

    /// How many of `total` globally-numbered points this shard owns.
    pub fn len_of(&self, total: usize) -> usize {
        // Points i, i+N, i+2N, ... below `total`.
        (total + self.count - 1 - self.index) / self.count
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for ShardSpec {
    type Err = ShardError;

    /// Parses `i/N` (e.g. `0/3`).
    fn from_str(s: &str) -> Result<Self, ShardError> {
        let malformed = || ShardError::Malformed(s.to_string());
        let (i, n) = s.split_once('/').ok_or_else(malformed)?;
        let index: usize = i.trim().parse().map_err(|_| malformed())?;
        let count: usize = n.trim().parse().map_err(|_| malformed())?;
        ShardSpec::new(index, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_validates() {
        assert_eq!(
            "0/3".parse::<ShardSpec>().unwrap(),
            ShardSpec { index: 0, count: 3 }
        );
        assert_eq!(
            "2/3".parse::<ShardSpec>().unwrap().to_string(),
            "2/3".to_string()
        );
        assert_eq!(
            "3/3".parse::<ShardSpec>(),
            Err(ShardError::IndexOutOfRange { index: 3, count: 3 })
        );
        assert_eq!("0/0".parse::<ShardSpec>(), Err(ShardError::ZeroCount));
        for bad in ["", "1", "a/b", "1/", "/2", "1/2/3", "-1/2"] {
            assert!(
                matches!(bad.parse::<ShardSpec>(), Err(ShardError::Malformed(_))),
                "{bad:?} should be malformed"
            );
        }
    }

    #[test]
    fn full_owns_everything() {
        assert!(ShardSpec::FULL.is_full());
        assert!((0..100).all(|g| ShardSpec::FULL.owns(g)));
    }

    #[test]
    fn shards_partition_the_index_space() {
        for count in 1..=5 {
            for g in 0..50 {
                let owners: Vec<usize> = (0..count)
                    .filter(|&i| ShardSpec::new(i, count).unwrap().owns(g))
                    .collect();
                assert_eq!(owners, vec![g % count], "point {g} with {count} shards");
            }
            let total = 13;
            let sum: usize = (0..count)
                .map(|i| ShardSpec::new(i, count).unwrap().len_of(total))
                .sum();
            assert_eq!(sum, total);
        }
    }
}
