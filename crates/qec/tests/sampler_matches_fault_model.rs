//! The sampler must agree with the fault model: a statistical pin that
//! does not depend on the RNG stream.
//!
//! Every other Monte-Carlo pin is a digest, which proves that a change
//! left the stream alone but cannot say whether the stream samples the
//! right distribution. Here two independent codes over the same noisy
//! circuit check each other. `SampleTape` is a forward pass that draws
//! faults. `for_each_fault` and `FaultSensitivity` are a backward pass
//! that lists every fault component and what it flips.
//!
//! A channel (one noise instruction, or one measurement's readout flip)
//! fires at most one of its components per shot, so its components are
//! mutually exclusive, and distinct channels are independent. If
//! channel c flips detector i with total probability q_c, then i fires
//! with probability ½(1 − Π_c(1 − 2q_c)). For two detectors i and j,
//! E_ij = Π_c(1 − 2r_c), where r_c sums the components that flip
//! exactly one of them, and both fire with probability
//! ¼(1 − E_i − E_j + E_ij). The pairs checked are every pair that some
//! single component flips together. Those include the pairs that a Y
//! flips through its X and Z parts; a pair within one sector cannot
//! tell a Y from an independent X and Z.
//!
//! 80 circuits (5 setups × 2 bases × 4 boundary windows × d ∈ {3, 5}, at
//! p = 3e-3 and k = 10) are each sampled with 64 batches of 1,024 lanes
//! from a fixed seed. The test fails on any |z| > 6, or when the pooled
//! χ²/dof over all circuits exceeds 1.2, for the single rates (each
//! detector and observable 0) or for the pairs. The bound is pooled
//! because single circuits scatter: one read χ²/dof = 1.9 on a second
//! seed.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vlq_circuit::exec::{SampleScratch, SampleTape};
use vlq_circuit::noise::NoiseModel;
use vlq_circuit::{Circuit, FaultEffect, FaultSensitivity, FaultSite};
use vlq_decoder::graph::for_each_fault;
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};

const P: f64 = 3e-3;
const K: usize = 10;
const BATCHES: usize = 64;
const LANES: usize = 1024;
const SEED: u64 = 2020;
const MAX_Z: f64 = 6.0;
const MAX_CHI2_PER_DOF: f64 = 1.2;

/// Exact first and second moments of one noisy circuit.
struct Exact {
    /// P(fire) per detector, then observable 0.
    single: Vec<f64>,
    /// Every detector pair some single fault component flips together,
    /// with the probability that both fire.
    pairs: Vec<(usize, usize, f64)>,
}

/// The components of each channel: `(probability, flipped entries)`,
/// where entry `i < n` is detector `i` and entry `n` is observable 0.
fn channels(noisy: &Circuit) -> Vec<Vec<(f64, Vec<usize>)>> {
    let n = noisy.detectors.len();
    let all: Vec<usize> = (0..n).collect();
    let sensitivity = FaultSensitivity::new(noisy, &all, true);
    let mut channels: Vec<Vec<(f64, Vec<usize>)>> = Vec::new();
    let mut last_at = usize::MAX;
    let mut effect = FaultEffect::default();
    for_each_fault(noisy, |site, p| {
        let (FaultSite::Pauli1 { at, .. }
        | FaultSite::Pauli2 { at, .. }
        | FaultSite::MeasureFlip { at }) = site;
        if at != last_at {
            channels.push(Vec::new());
            last_at = at;
        }
        sensitivity.effect_into(site, &mut effect);
        let mut flips = effect.detectors.clone();
        if !effect.observables.is_empty() {
            flips.push(n);
        }
        if !flips.is_empty() {
            channels.last_mut().expect("pushed above").push((p, flips));
        }
    });
    channels
}

fn exact_moments(noisy: &Circuit) -> Exact {
    let n = noisy.detectors.len();
    let channels = channels(noisy);

    // E_i = Π_c (1 - 2 q_c(i)), and the co-flipped detector pairs.
    let mut e = vec![1.0; n + 1];
    let mut co_flipped = BTreeSet::new();
    for components in &channels {
        let mut q: BTreeMap<usize, f64> = BTreeMap::new();
        for (p, flips) in components {
            for (a, &i) in flips.iter().enumerate() {
                *q.entry(i).or_default() += p;
                co_flipped.extend(flips[a + 1..].iter().filter(|&&j| j < n).map(|&j| (i, j)));
            }
        }
        for (i, q) in q {
            e[i] *= 1.0 - 2.0 * q;
        }
    }

    // E_ij = Π_c (1 - 2 r_c(i, j)); only channels that touch i or j
    // have r_c > 0.
    let pairs: Vec<(usize, usize)> = co_flipped.into_iter().collect();
    let mut pairs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, &(i, j)) in pairs.iter().enumerate() {
        pairs_of[i].push(k);
        pairs_of[j].push(k);
    }
    let mut e_pair = vec![1.0; pairs.len()];
    let mut r = vec![0.0; pairs.len()];
    let mut touched = Vec::new();
    for components in &channels {
        for (p, flips) in components {
            for &i in flips.iter().filter(|&&i| i < n) {
                for &k in &pairs_of[i] {
                    let (a, b) = pairs[k];
                    let other = if a == i { b } else { a };
                    if flips.binary_search(&other).is_err() {
                        touched.push(k);
                        r[k] += p;
                    }
                }
            }
        }
        for k in touched.drain(..) {
            e_pair[k] *= 1.0 - 2.0 * r[k];
            r[k] = 0.0;
        }
    }

    Exact {
        single: e.iter().map(|&e| 0.5 * (1.0 - e)).collect(),
        pairs: pairs
            .iter()
            .zip(&e_pair)
            .map(|(&(i, j), &eij)| (i, j, 0.25 * (1.0 - e[i] - e[j] + eij)))
            .collect(),
    }
}

/// Sampled counts: lanes where each detector (then observable 0) fired,
/// and lanes where both detectors of each pair fired.
fn sampled_counts(
    noisy: &Circuit,
    pairs: &[(usize, usize, f64)],
    seed: u64,
) -> (Vec<u64>, Vec<u64>) {
    let n = noisy.detectors.len();
    let ones = |words: &[u64]| words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
    let tape = SampleTape::compile(noisy);
    let mut scratch = SampleScratch::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut single = vec![0u64; n + 1];
    let mut both = vec![0u64; pairs.len()];
    for _ in 0..BATCHES {
        tape.sample_into(LANES, &mut rng, &mut scratch);
        let res = &scratch.result;
        for (d, count) in single[..n].iter_mut().enumerate() {
            *count += ones(res.detector_words(d));
        }
        single[n] += ones(res.observable_words(0));
        for (count, &(i, j, _)) in both.iter_mut().zip(pairs) {
            let (wi, wj) = (res.detector_words(i), res.detector_words(j));
            *count += wi
                .iter()
                .zip(wj)
                .map(|(a, b)| u64::from((a & b).count_ones()))
                .sum::<u64>();
        }
    }
    (single, both)
}

/// Pooled z statistics of sampled counts against exact probabilities.
#[derive(Default)]
struct Tally {
    chi2: f64,
    dof: usize,
    max_z: f64,
    worst: String,
}

impl Tally {
    fn add(&mut self, count: u64, p: f64, label: impl FnOnce() -> String) {
        let shots = (BATCHES * LANES) as f64;
        let var = shots * p * (1.0 - p);
        if var == 0.0 {
            assert_eq!(
                count as f64,
                shots * p,
                "{}: a certain outcome varied",
                label()
            );
            return;
        }
        let z = (count as f64 - shots * p) / var.sqrt();
        self.chi2 += z * z;
        self.dof += 1;
        if z.abs() > self.max_z {
            self.max_z = z.abs();
            self.worst = format!("{}: p = {p:.4e}, sampled {count}, z = {z:+.2}", label());
        }
    }

    /// Prints the pooled statistics; returns what breaks a bound.
    fn verdict(&self, what: &str) -> Option<String> {
        let per_dof = self.chi2 / self.dof as f64;
        println!(
            "{what}: chi2/dof = {per_dof:.3} (dof {}), max |z| = {:.2} ({})",
            self.dof, self.max_z, self.worst
        );
        if self.max_z > MAX_Z {
            Some(format!("{what}: |z| > {MAX_Z} at {}", self.worst))
        } else if per_dof > MAX_CHI2_PER_DOF {
            Some(format!(
                "{what}: pooled chi2/dof = {per_dof:.3} > {MAX_CHI2_PER_DOF}"
            ))
        } else {
            None
        }
    }
}

#[test]
fn sampled_detector_rates_and_pairs_match_the_fault_model() {
    let (mut singles, mut pairs) = (Tally::default(), Tally::default());
    let mut index = 0u64;
    for setup in Setup::ALL {
        let noise = if setup.uses_memory() {
            NoiseModel::memory_at_scale(P)
        } else {
            NoiseModel::baseline_at_scale(P)
        };
        for basis in [Basis::Z, Basis::X] {
            for d in [3, 5] {
                let mc = memory_circuit(MemorySpec::standard(setup, d, K, basis), &noise.hw);
                for boundary in Boundary::ALL {
                    let (start, end) = mc.noise_window(boundary);
                    let noisy = noise.apply_window(&mc.circuit, start, end);
                    let exact = exact_moments(&noisy);
                    let (single, both) = sampled_counts(&noisy, &exact.pairs, SEED + index);
                    index += 1;
                    let circuit = format!("{setup} {basis:?} d={d} {boundary:?}");
                    let n = noisy.detectors.len();
                    for (i, (&count, &p)) in single.iter().zip(&exact.single).enumerate() {
                        singles.add(count, p, || match i == n {
                            true => format!("{circuit} observable 0"),
                            false => format!("{circuit} detector {i}"),
                        });
                    }
                    for (&count, &(i, j, p)) in both.iter().zip(&exact.pairs) {
                        pairs.add(count, p, || format!("{circuit} detectors {i} and {j}"));
                    }
                }
            }
        }
    }
    assert_eq!(index, 80);
    let faults: Vec<String> = [singles.verdict("single rates"), pairs.verdict("pairs")]
        .into_iter()
        .flatten()
        .collect();
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
