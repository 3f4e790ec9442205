//! Threshold estimation (Figure 11).
//!
//! Sweeps the physical error rate over several code distances, estimates
//! logical error rates, and extracts the threshold as the median of the
//! pairwise crossings of consecutive-distance curves in log-log space.

use vlq_math::stats::{log_log_crossing, BinomialEstimate};
use vlq_surface::schedule::{Basis, Setup};
use vlq_sweep::{SweepEngine, SweepRecord, SweepSpec};

use crate::orchestrate::MemoryExecutor;
use crate::DecoderKind;

/// One sampled point of a threshold scan.
#[derive(Clone, Debug)]
pub struct ScanPoint {
    /// Code distance.
    pub d: usize,
    /// Physical error rate (SC-SC scale).
    pub p: f64,
    /// Logical error rate estimate.
    pub estimate: BinomialEstimate,
}

/// A complete threshold scan for one setup.
#[derive(Clone, Debug)]
pub struct ThresholdScan {
    /// The scanned setup.
    pub setup: Setup,
    /// Memory basis used.
    pub basis: Basis,
    /// Cavity depth.
    pub k: usize,
    /// All sampled points (row-major: for each `d`, each `p`).
    pub points: Vec<ScanPoint>,
    /// The distances scanned.
    pub distances: Vec<usize>,
    /// The physical error rates scanned.
    pub error_rates: Vec<f64>,
}

impl ThresholdScan {
    /// Logical error rates of one distance, in `error_rates` order.
    pub fn curve(&self, d: usize) -> Vec<f64> {
        self.points
            .iter()
            .filter(|pt| pt.d == d)
            .map(|pt| pt.estimate.rate())
            .collect()
    }

    /// Assembles a scan from sweep records (e.g. one setup's slice of a
    /// multi-setup, multi-decoder sweep). Points are laid out row-major
    /// (`d` outer, `p` inner) regardless of record order; records for
    /// other setups, bases, cavity depths, or decoders are ignored.
    pub fn from_records(
        setup: Setup,
        basis: Basis,
        k: usize,
        decoder: DecoderKind,
        distances: &[usize],
        error_rates: &[f64],
        records: &[SweepRecord],
    ) -> ThresholdScan {
        let mut points = Vec::with_capacity(distances.len() * error_rates.len());
        for &d in distances {
            for &p in error_rates {
                let rec = records
                    .iter()
                    .find(|r| {
                        r.point.setup == setup
                            && r.point.basis == basis
                            && r.point.k == k
                            && r.point.decoder == decoder
                            && r.point.d == d
                            && r.point.p == p
                    })
                    .unwrap_or_else(|| panic!("sweep records missing point d={d} p={p}"));
                points.push(ScanPoint {
                    d,
                    p,
                    estimate: rec
                        .estimate()
                        .unwrap_or_else(|| BinomialEstimate::new(0, 1)),
                });
            }
        }
        ThresholdScan {
            setup,
            basis,
            k,
            points,
            distances: distances.to_vec(),
            error_rates: error_rates.to_vec(),
        }
    }
}

/// The sweep spec a threshold scan expands to (one setup, the full
/// `distances × error_rates` grid).
#[allow(clippy::too_many_arguments)]
pub fn threshold_spec(
    setup: Setup,
    basis: Basis,
    distances: &[usize],
    error_rates: &[f64],
    k: usize,
    shots: u64,
    seed: u64,
    decoder: DecoderKind,
) -> SweepSpec {
    SweepSpec::new()
        .setups([setup])
        .bases([basis])
        .distances(distances.iter().copied())
        .error_rates(error_rates.iter().copied())
        .ks([k])
        .decoders([decoder])
        .shots(shots)
        .base_seed(seed)
}

/// Runs a threshold scan.
///
/// Thin adapter over the `vlq-sweep` work-stealing engine: the grid
/// runs with parallelism across *configs × shots* and deterministic
/// per-point seeding, so results are independent of worker count.
#[allow(clippy::too_many_arguments)]
pub fn threshold_scan(
    setup: Setup,
    basis: Basis,
    distances: &[usize],
    error_rates: &[f64],
    k: usize,
    shots: u64,
    seed: u64,
    decoder: DecoderKind,
) -> ThresholdScan {
    let spec = threshold_spec(
        setup,
        basis,
        distances,
        error_rates,
        k,
        shots,
        seed,
        decoder,
    );
    let records = SweepEngine::default()
        .run(&spec, &MemoryExecutor::default(), &mut [])
        .expect("sweep without file sinks cannot fail");
    ThresholdScan::from_records(setup, basis, k, decoder, distances, error_rates, &records)
}

/// Estimates the threshold from a scan: the median crossing point of
/// consecutive-distance logical-error curves. Returns `None` when no
/// pair of curves crosses inside the scanned range.
pub fn estimate_threshold(scan: &ThresholdScan) -> Option<f64> {
    let mut crossings = Vec::new();
    for w in scan.distances.windows(2) {
        let lo = scan.curve(w[0]);
        let hi = scan.curve(w[1]);
        if let Some(c) = log_log_crossing(&scan.error_rates, &lo, &hi) {
            crossings.push(c);
        }
    }
    if crossings.is_empty() {
        return None;
    }
    crossings.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(crossings[crossings.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end threshold sanity for the baseline: the crossing of the
    /// d=3 and d=5 curves must land in the sub-percent-to-~1.5% range the
    /// literature (and the paper: 0.009) reports for circuit-level noise.
    ///
    /// Uses modest statistics so it stays test-suite friendly; fig11
    /// regenerates the full figure.
    #[test]
    fn baseline_threshold_in_expected_range() {
        let rates = [4e-3, 7e-3, 1.1e-2, 1.6e-2];
        let scan = threshold_scan(
            Setup::Baseline,
            Basis::Z,
            &[3, 5],
            &rates,
            1,
            4000,
            11,
            DecoderKind::Mwpm,
        );
        let th = estimate_threshold(&scan).expect("curves should cross");
        assert!(
            th > 3e-3 && th < 2.2e-2,
            "baseline threshold {th} outside plausible range"
        );
    }

    #[test]
    fn scan_structure() {
        let rates = [5e-3, 1e-2];
        let scan = threshold_scan(
            Setup::Baseline,
            Basis::Z,
            &[3],
            &rates,
            1,
            500,
            1,
            DecoderKind::UnionFind,
        );
        assert_eq!(scan.points.len(), 2);
        assert_eq!(scan.curve(3).len(), 2);
        // Monotone in p (with high probability at these gaps).
        let c = scan.curve(3);
        assert!(c[1] >= c[0] * 0.5);
    }
}
