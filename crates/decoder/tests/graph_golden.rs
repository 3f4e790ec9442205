//! Golden digests of the decoding graphs every memory experiment builds.
//!
//! Each digest folds one graph's edges (key, `probability.to_bits()`,
//! `weight.to_bits()`, `flips_observable`, in key order) plus its
//! `decomposed_faults` and `undetectable_logical_mass.to_bits()`. The
//! values were captured from the per-fault propagation build, before
//! graph construction moved onto the backward sensitivity pass, so they
//! pin that rewrite bit-for-bit: the same edges, the same XOR-folded
//! probabilities, the same weights. A change here shifts every decoder
//! decision downstream; it is never a tolerance.

use vlq_circuit::noise::NoiseModel;
use vlq_decoder::DecodingGraph;
use vlq_surface::schedule::Basis::{self, X, Z};
use vlq_surface::schedule::Boundary::{self, Full, MidCircuit, Prep, Readout};
use vlq_surface::schedule::Setup::{self, Baseline, CompactInterleaved, NaturalInterleaved};
use vlq_surface::schedule::{memory_circuit, MemorySpec};

const P: f64 = 5e-3;
const K: usize = 10;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(g: &DecodingGraph) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (&(a, b), e) in g.iter_edges() {
        h.word(a as u64);
        h.word(b as u64);
        h.word(e.probability.to_bits());
        h.word(e.weight.to_bits());
        h.word(u64::from(e.flips_observable));
    }
    h.word(g.decomposed_faults as u64);
    h.word(g.undetectable_logical_mass.to_bits());
    h.0
}

/// `(guard digest, other-sector digest)` of one configuration: the
/// guard sector through `build`, the other through `build_non_guard`.
fn digests(setup: Setup, basis: Basis, d: usize, boundary: Boundary) -> (u64, u64) {
    let noise = if setup.uses_memory() {
        NoiseModel::memory_at_scale(P)
    } else {
        NoiseModel::baseline_at_scale(P)
    };
    let mc = memory_circuit(MemorySpec::standard(setup, d, K, basis), &noise.hw);
    let (start, end) = mc.noise_window(boundary);
    let noisy = noise.apply_window(&mc.circuit, start, end);
    let other = match basis {
        Basis::Z => &mc.x_detectors,
        Basis::X => &mc.z_detectors,
    };
    (
        digest(&DecodingGraph::build(&noisy, mc.guard_detectors())),
        digest(&DecodingGraph::build_non_guard(&noisy, other)),
    )
}

/// `(setup, basis, d, boundary, guard digest, other-sector digest)` at
/// `p = 5e-3`, `k = 10`, captured from the per-fault propagation build.
#[rustfmt::skip]
const GOLDEN: [(Setup, Basis, usize, Boundary, u64, u64); 72] = [
    (Baseline, Z, 3, Full, 0x61d2875dc0fe7aa4, 0x4d21b65f2970c5df),
    (Baseline, Z, 3, Prep, 0xba6c93afc71c94f7, 0x4d21b65f2970c5df),
    (Baseline, Z, 3, Readout, 0x61d2875dc0fe7aa4, 0x4d21b65f2970c5df),
    (Baseline, Z, 3, MidCircuit, 0xba6c93afc71c94f7, 0x4d21b65f2970c5df),
    (Baseline, Z, 5, Full, 0xba051c3891ba0bbf, 0x7e7bf2fd49058c7a),
    (Baseline, Z, 5, Prep, 0x30121f430165045e, 0x7e7bf2fd49058c7a),
    (Baseline, Z, 5, Readout, 0xba051c3891ba0bbf, 0x7e7bf2fd49058c7a),
    (Baseline, Z, 5, MidCircuit, 0x30121f430165045e, 0x7e7bf2fd49058c7a),
    (Baseline, Z, 7, Full, 0x91c4aa453b5be086, 0xdd487c681f400bdb),
    (Baseline, Z, 7, Prep, 0x5a08faf521ee5d14, 0xdd487c681f400bdb),
    (Baseline, Z, 7, Readout, 0x91c4aa453b5be086, 0xdd487c681f400bdb),
    (Baseline, Z, 7, MidCircuit, 0x5a08faf521ee5d14, 0xdd487c681f400bdb),
    (Baseline, X, 3, Full, 0x70781080d71dcba6, 0xb232238b59ffb1fd),
    (Baseline, X, 3, Prep, 0x9e122294474ff4ef, 0xb232238b59ffb1fd),
    (Baseline, X, 3, Readout, 0x2ce212cb3f768abe, 0xb232238b59ffb1fd),
    (Baseline, X, 3, MidCircuit, 0xb8f2fcaaad1a6b2f, 0xb232238b59ffb1fd),
    (Baseline, X, 5, Full, 0xfc72dcfb327d7c35, 0x30ddc5c6d3994815),
    (Baseline, X, 5, Prep, 0x1aa0005fb7ececb4, 0x30ddc5c6d3994815),
    (Baseline, X, 5, Readout, 0x10bab13e512ac32a, 0x30ddc5c6d3994815),
    (Baseline, X, 5, MidCircuit, 0x18725fbdec8f16c7, 0x30ddc5c6d3994815),
    (Baseline, X, 7, Full, 0xaeb1a436d70ffede, 0xa163d87f21ecde5e),
    (Baseline, X, 7, Prep, 0xeafc86a310519ff4, 0xa163d87f21ecde5e),
    (Baseline, X, 7, Readout, 0xed2616271a60936a, 0xa163d87f21ecde5e),
    (Baseline, X, 7, MidCircuit, 0x018a16ea6761d59c, 0xa163d87f21ecde5e),
    (NaturalInterleaved, Z, 3, Full, 0xaddb93503e92c48b, 0xf3493fdd2856d6ca),
    (NaturalInterleaved, Z, 3, Prep, 0xaf59373ef8da2e80, 0xf3493fdd2856d6ca),
    (NaturalInterleaved, Z, 3, Readout, 0x66e865ffe7ceb25d, 0xf3493fdd2856d6ca),
    (NaturalInterleaved, Z, 3, MidCircuit, 0x483a1574f8cd4372, 0xf3493fdd2856d6ca),
    (NaturalInterleaved, Z, 5, Full, 0xfe4e2b375101e6b4, 0x73bc6e4e89dbf7ef),
    (NaturalInterleaved, Z, 5, Prep, 0x3f6a9b4c3c41d914, 0x73bc6e4e89dbf7ef),
    (NaturalInterleaved, Z, 5, Readout, 0xe31cd4d94a1156f5, 0x73bc6e4e89dbf7ef),
    (NaturalInterleaved, Z, 5, MidCircuit, 0x44db95978ac0fc2d, 0x73bc6e4e89dbf7ef),
    (NaturalInterleaved, Z, 7, Full, 0x317177231149c676, 0xa1428a81ab05b2bf),
    (NaturalInterleaved, Z, 7, Prep, 0x106c97da1d357fb1, 0xa1428a81ab05b2bf),
    (NaturalInterleaved, Z, 7, Readout, 0x47c41630797f365d, 0xa1428a81ab05b2bf),
    (NaturalInterleaved, Z, 7, MidCircuit, 0xf2e0eedcd41df606, 0xa1428a81ab05b2bf),
    (NaturalInterleaved, X, 3, Full, 0xd70966cce5a556a9, 0xb1c8d466f8e02a98),
    (NaturalInterleaved, X, 3, Prep, 0x74d3a8f44b2c54c7, 0xb1c8d466f8e02a98),
    (NaturalInterleaved, X, 3, Readout, 0x705ba9494f40cb4d, 0xb1c8d466f8e02a98),
    (NaturalInterleaved, X, 3, MidCircuit, 0x2dbf5bdf042b3ff7, 0xb1c8d466f8e02a98),
    (NaturalInterleaved, X, 5, Full, 0x5350f0d1545e14d2, 0xb66448e46dd2ef5d),
    (NaturalInterleaved, X, 5, Prep, 0x93939b113778f479, 0xb66448e46dd2ef5d),
    (NaturalInterleaved, X, 5, Readout, 0xfc8f721ec2e10d26, 0xb66448e46dd2ef5d),
    (NaturalInterleaved, X, 5, MidCircuit, 0x22bf6c46a4f67a61, 0xb66448e46dd2ef5d),
    (NaturalInterleaved, X, 7, Full, 0x4c846b08cb4ca153, 0x14e1c0116a70f4e3),
    (NaturalInterleaved, X, 7, Prep, 0xcfa3ad412b3cb306, 0x14e1c0116a70f4e3),
    (NaturalInterleaved, X, 7, Readout, 0x055e562351864518, 0x14e1c0116a70f4e3),
    (NaturalInterleaved, X, 7, MidCircuit, 0x3ecad7209e7c2785, 0x14e1c0116a70f4e3),
    (CompactInterleaved, Z, 3, Full, 0x2f18b89c28e84e29, 0x84bc961d9bd0143b),
    (CompactInterleaved, Z, 3, Prep, 0x021abfcd4268d0bc, 0x84bc961d9bd0143b),
    (CompactInterleaved, Z, 3, Readout, 0x4206bf0ebade1567, 0x84bc961d9bd0143b),
    (CompactInterleaved, Z, 3, MidCircuit, 0x9d5ba69d69a44a9a, 0x84bc961d9bd0143b),
    (CompactInterleaved, Z, 5, Full, 0x130a72916b25479f, 0xa3ccb75a7c8c56de),
    (CompactInterleaved, Z, 5, Prep, 0xec8dd5775a6a4b9a, 0xa3ccb75a7c8c56de),
    (CompactInterleaved, Z, 5, Readout, 0x4691aa776694617e, 0xa3ccb75a7c8c56de),
    (CompactInterleaved, Z, 5, MidCircuit, 0x8ea67179e288020b, 0xa3ccb75a7c8c56de),
    (CompactInterleaved, Z, 7, Full, 0x55c7ca9faf2c39af, 0x5f61ca1909fe1d24),
    (CompactInterleaved, Z, 7, Prep, 0xd2fe32913c16dc98, 0x5f61ca1909fe1d24),
    (CompactInterleaved, Z, 7, Readout, 0x36d8fcfef6040821, 0x5f61ca1909fe1d24),
    (CompactInterleaved, Z, 7, MidCircuit, 0xbe692a4d1547502a, 0x5f61ca1909fe1d24),
    (CompactInterleaved, X, 3, Full, 0xf0eb2301b656f52a, 0x82f6660dbc39d8c9),
    (CompactInterleaved, X, 3, Prep, 0x72098a295fbf87b4, 0x82f6660dbc39d8c9),
    (CompactInterleaved, X, 3, Readout, 0x5044e78cebbb877d, 0x82f6660dbc39d8c9),
    (CompactInterleaved, X, 3, MidCircuit, 0xf83cfca4fb7bf2bf, 0x82f6660dbc39d8c9),
    (CompactInterleaved, X, 5, Full, 0xd94fded9da734021, 0x36c4c6447600965b),
    (CompactInterleaved, X, 5, Prep, 0xcc8a8183276a653c, 0x36c4c6447600965b),
    (CompactInterleaved, X, 5, Readout, 0x243fe4ce0abdda12, 0x36c4c6447600965b),
    (CompactInterleaved, X, 5, MidCircuit, 0x46efe4b0697f5fbf, 0x36c4c6447600965b),
    (CompactInterleaved, X, 7, Full, 0x9e7dc05b816adcd4, 0x2e0260f6139d5348),
    (CompactInterleaved, X, 7, Prep, 0xb301f82b42dcaca1, 0x2e0260f6139d5348),
    (CompactInterleaved, X, 7, Readout, 0xe00da54fc9744f00, 0x2e0260f6139d5348),
    (CompactInterleaved, X, 7, MidCircuit, 0xe637baf30e1773ed, 0x2e0260f6139d5348),
];

#[test]
fn graphs_match_the_per_fault_propagation_digests() {
    // The table covers the whole grid, each configuration once.
    for setup in [Baseline, NaturalInterleaved, CompactInterleaved] {
        for basis in [Z, X] {
            for d in [3, 5, 7] {
                for boundary in Boundary::ALL {
                    let rows = GOLDEN
                        .iter()
                        .filter(|r| (r.0, r.1, r.2, r.3) == (setup, basis, d, boundary))
                        .count();
                    assert_eq!(rows, 1, "{setup} {basis:?} d={d} {boundary:?}");
                }
            }
        }
    }
    let mut drift = Vec::new();
    for (setup, basis, d, boundary, guard, other) in GOLDEN {
        let got = digests(setup, basis, d, boundary);
        if got != (guard, other) {
            drift.push(format!(
                "{setup} {basis:?} d={d} {boundary:?}: got ({:#018x}, {:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "graph digests drifted:\n{}",
        drift.join("\n")
    );
}
