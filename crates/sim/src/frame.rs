//! Pauli-frame simulation.
//!
//! A Pauli frame tracks the *difference* between the noisy run and the
//! ideal (noiseless) reference run of a Clifford circuit: a Pauli error on
//! each qubit, propagated through the circuit's Clifford gates. Because
//! reference measurement outcomes of the memory experiments are
//! deterministic, a frame determines every detection event directly.
//!
//! Two engines share the same gate semantics:
//!
//! * [`FrameBatch`] — bit-parallel over 64 shots per machine word; the
//!   engine under Monte-Carlo sampling (`vlq_circuit::exec::SampleTape`
//!   drives it) and under program replay's logical frames.
//! * [`SingleFrame`] — one scalar frame; propagates an individual fault
//!   deterministically (the reference oracle for the backward
//!   fault-sensitivity pass that builds the decoder's matching graph).
//!
//! Gate conjugation here is sign-free (frames live in the Pauli group
//! modulo phase); the phase-exact algebra lives in [`crate::tableau`].

use rand::Rng;
use vlq_math::BitVec;
use vlq_pauli::Pauli;

use crate::CliffordGate;

/// A per-lane Bernoulli rate, compiled once per noise channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BernoulliRate {
    /// p ≥ 1: every lane is hit, with no draws.
    Always,
    /// 0 < p < 1: geometric skips, with `ln_q = ln(1 - p)` computed once.
    /// Only [`BernoulliRate::of`] builds it, so `ln_q` is never +0.0.
    #[non_exhaustive]
    Skip {
        /// `ln(1 - p)`, which is negative, or −0.0 where 1 − p rounds
        /// to 1.0 (p ≤ 2⁻⁵⁴): a channel that draws once and never hits.
        ln_q: f64,
    },
}

impl BernoulliRate {
    /// The rate of probability `p`, or `None` for p ≤ 0: a channel that
    /// never fires and draws nothing.
    pub fn of(p: f64) -> Option<Self> {
        if p <= 0.0 {
            None
        } else if p >= 1.0 {
            Some(BernoulliRate::Always)
        } else {
            // ln(1 - p) < 0, but it is +0.0 when 1 - p rounds to 1.0,
            // and ln(u) / +0.0 = −inf would pass the skip loop's compare
            // as a hit. −0.0 keeps the sign: ln(u) / −0.0 is +inf or
            // NaN, so the channel draws once and never hits.
            let ln_q = (1.0 - p).ln();
            Some(BernoulliRate::Skip {
                ln_q: if ln_q == 0.0 { -0.0 } else { ln_q },
            })
        }
    }
}

/// Visits the lanes selected by independent Bernoulli draws at `rate`,
/// in increasing order, using geometric skipping so the cost is
/// proportional to the number of hits rather than the number of lanes.
///
/// Each skip is ⌊q⌋ lanes for q = ln(u) / ln_q, but the loop compares q
/// before it truncates it: for q ≥ 0 and an integer r, ⌊q⌋ ≥ r exactly
/// when q ≥ r, and truncating a nonnegative q floors it. So no `floor`
/// (a library call on baseline x86-64) runs, and the casts are signed,
/// which are shorter there than unsigned ones. A q that is +inf or NaN
/// fails the compare and stops the loop.
#[inline]
fn for_each_bernoulli_hit<R: Rng + ?Sized>(
    rng: &mut R,
    rate: BernoulliRate,
    n_lanes: usize,
    mut visit: impl FnMut(usize),
) {
    let ln_q = match rate {
        BernoulliRate::Always => return (0..n_lanes).for_each(visit),
        BernoulliRate::Skip { ln_q } => ln_q,
    };
    let mut i = 0usize;
    while i < n_lanes {
        // u in (0, 1] so ln(u) is finite and <= 0, and q >= 0 (it is
        // +inf or NaN only when ln_q is −0.0, or p was NaN).
        let u = 1.0 - rng.random::<f64>();
        let q = u.ln() / ln_q;
        if q < (n_lanes - i) as i64 as f64 {
            i += q as i64 as usize;
            visit(i);
            i += 1;
        } else {
            return;
        }
    }
}

/// All ones when `on`, else zero: the word mask of a conditional flip.
#[inline]
fn mask(on: bool) -> u64 {
    0u64.wrapping_sub(u64::from(on))
}

/// A batch of Pauli frames, 64 shots per `u64` word.
///
/// # Examples
///
/// ```
/// use vlq_sim::{CliffordGate, FrameBatch};
///
/// let mut fb = FrameBatch::new(2, 64);
/// fb.set_pauli(0, 5, vlq_pauli::Pauli::X); // X error on qubit 0, shot 5
/// fb.apply(CliffordGate::Cnot(0, 1));      // propagates to qubit 1
/// let flips = fb.measure_z(1);
/// assert_eq!(flips[0], 1 << 5);
/// ```
#[derive(Clone, Debug)]
pub struct FrameBatch {
    n_lanes: usize,
    words_per_qubit: usize,
    /// X bit-planes, `words_per_qubit` words per qubit.
    x: Vec<u64>,
    /// Z bit-planes.
    z: Vec<u64>,
    /// Reusable buffer of Bernoulli hit lanes for the noise channels.
    /// Hits must be collected *before* the per-hit Pauli draws — the
    /// skip draws and Pauli draws may not interleave or the RNG stream
    /// (and every golden pin downstream) changes — so the buffer is
    /// unavoidable; keeping it here makes steady-state noise
    /// application allocation-free.
    hits: Vec<usize>,
}

impl Default for FrameBatch {
    /// An empty (0-qubit, 0-lane) batch; reshape with
    /// [`FrameBatch::reset`] before use.
    fn default() -> Self {
        FrameBatch::new(0, 0)
    }
}

impl FrameBatch {
    /// Creates an all-identity frame batch.
    pub fn new(n_qubits: usize, n_lanes: usize) -> Self {
        let words_per_qubit = n_lanes.div_ceil(64).max(1);
        FrameBatch {
            n_lanes,
            words_per_qubit,
            x: vec![0; n_qubits * words_per_qubit],
            z: vec![0; n_qubits * words_per_qubit],
            hits: Vec::new(),
        }
    }

    /// Reinitializes to an all-identity batch of the given shape,
    /// reusing the existing plane buffers when their capacity allows —
    /// bit-identical to a fresh [`FrameBatch::new`], without the
    /// allocation once the batch has reached its high-water size.
    pub fn reset(&mut self, n_qubits: usize, n_lanes: usize) {
        let words_per_qubit = n_lanes.div_ceil(64).max(1);
        self.n_lanes = n_lanes;
        self.words_per_qubit = words_per_qubit;
        let len = n_qubits * words_per_qubit;
        self.x.clear();
        self.x.resize(len, 0);
        self.z.clear();
        self.z.resize(len, 0);
    }

    #[inline]
    fn range(&self, q: usize) -> std::ops::Range<usize> {
        let w = self.words_per_qubit;
        q * w..(q + 1) * w
    }

    /// The Pauli carried by `(qubit, lane)`.
    pub fn pauli(&self, qubit: usize, lane: usize) -> Pauli {
        let w = self.words_per_qubit;
        let idx = qubit * w + lane / 64;
        let bit = 1u64 << (lane % 64);
        Pauli::from_xz(self.x[idx] & bit != 0, self.z[idx] & bit != 0)
    }

    /// Multiplies the given Pauli into `(qubit, lane)`.
    pub fn set_pauli(&mut self, qubit: usize, lane: usize, p: Pauli) {
        let w = self.words_per_qubit;
        let idx = qubit * w + lane / 64;
        let bit = 1u64 << (lane % 64);
        let (px, pz) = p.xz();
        if px {
            self.x[idx] ^= bit;
        }
        if pz {
            self.z[idx] ^= bit;
        }
    }

    /// Applies a Clifford gate to every lane at once.
    pub fn apply(&mut self, gate: CliffordGate) {
        use CliffordGate::*;
        match gate {
            H(q) => {
                let r = self.range(q);
                for i in r {
                    std::mem::swap(&mut self.x[i], &mut self.z[i]);
                }
            }
            S(q) | SDag(q) => {
                let r = self.range(q);
                for i in r {
                    self.z[i] ^= self.x[i];
                }
            }
            X(_) | Y(_) | Z(_) => {
                // Pauli gates commute with frames up to sign; no-op.
            }
            Cnot(c, t) => {
                let w = self.words_per_qubit;
                for k in 0..w {
                    self.x[t * w + k] ^= self.x[c * w + k];
                    self.z[c * w + k] ^= self.z[t * w + k];
                }
            }
            Cz(a, b) => {
                let w = self.words_per_qubit;
                for k in 0..w {
                    self.z[b * w + k] ^= self.x[a * w + k];
                    self.z[a * w + k] ^= self.x[b * w + k];
                }
            }
            Swap(a, b) => {
                let w = self.words_per_qubit;
                for k in 0..w {
                    self.x.swap(a * w + k, b * w + k);
                    self.z.swap(a * w + k, b * w + k);
                }
            }
            ISwap(a, b) => {
                // iSWAP = SWAP · CZ · (S⊗S).
                self.apply(CliffordGate::S(a));
                self.apply(CliffordGate::S(b));
                self.apply(CliffordGate::Cz(a, b));
                self.apply(CliffordGate::Swap(a, b));
            }
        }
    }

    /// Z-basis measurement: returns the per-lane outcome-flip words (the
    /// frame's X component on `qubit`). The frame itself is unchanged —
    /// call [`FrameBatch::reset_qubit`] afterwards for measure+reset ops.
    pub fn measure_z(&self, qubit: usize) -> Vec<u64> {
        self.x[self.range(qubit)].to_vec()
    }

    /// Measurement-projection gauge: XORs one fresh random word per
    /// lane word into the Z plane of `qubit` (a uniformly random Z on
    /// every lane). Draws exactly one `u64` per word, in word order;
    /// bits beyond `n_lanes` in the final partial word are masked off —
    /// a stray tail Z would propagate through H/CZ/iSWAP into the X
    /// planes and corrupt failure-word popcounts.
    #[inline]
    pub fn randomize_z<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) {
        let n = self.n_lanes;
        let r = self.range(qubit);
        let zs = &mut self.z[r];
        let last = zs.len() - 1;
        let tail = n % 64;
        for (w, zw) in zs.iter_mut().enumerate() {
            let mask: u64 = rng.random();
            let keep = if w < last || (tail == 0 && n > 0) {
                !0u64
            } else if tail == 0 {
                0 // n_lanes == 0: draw for stream parity, apply nothing
            } else {
                (1u64 << tail) - 1
            };
            *zw ^= mask & keep;
        }
    }

    /// Clears the frame on `qubit` (after a reset the qubit's error is
    /// gone by definition).
    pub fn reset_qubit(&mut self, qubit: usize) {
        let r = self.range(qubit);
        self.x[r.clone()].fill(0);
        self.z[r].fill(0);
    }

    /// The packed X-component words of `qubit` (one bit per lane).
    pub fn x_words(&self, qubit: usize) -> &[u64] {
        &self.x[self.range(qubit)]
    }

    /// The packed Z-component words of `qubit`.
    pub fn z_words(&self, qubit: usize) -> &[u64] {
        &self.z[self.range(qubit)]
    }

    /// XORs packed per-lane X flips into `qubit` (logical-level error
    /// injection: one bit per lane, e.g. a block of decoded syndrome
    /// rounds whose residual was a logical X).
    pub fn xor_x_words(&mut self, qubit: usize, flips: &[u64]) {
        let r = self.range(qubit);
        for (dst, src) in self.x[r].iter_mut().zip(flips) {
            *dst ^= src;
        }
    }

    /// XORs packed per-lane Z flips into `qubit`.
    pub fn xor_z_words(&mut self, qubit: usize, flips: &[u64]) {
        let r = self.range(qubit);
        for (dst, src) in self.z[r].iter_mut().zip(flips) {
            *dst ^= src;
        }
    }

    /// Depolarizing noise on one qubit: at `rate` per lane, multiplies
    /// a uniformly random non-identity Pauli into the frame.
    #[inline]
    pub fn apply_1q_noise<R: Rng + ?Sized>(
        &mut self,
        qubit: usize,
        rate: BernoulliRate,
        rng: &mut R,
    ) {
        let n = self.n_lanes;
        let base = qubit * self.words_per_qubit;
        // All skip draws happen before any Pauli draw (see `hits` docs).
        self.hits.clear();
        let hits = &mut self.hits;
        for_each_bernoulli_hit(rng, rate, n, |lane| hits.push(lane));
        for &lane in &self.hits {
            // 0, 1, 2 = X, Z, Y.
            let which = rng.random_range(0..3u8);
            let (idx, bit) = (base + lane / 64, 1u64 << (lane % 64));
            self.x[idx] ^= bit & mask(which != 1);
            self.z[idx] ^= bit & mask(which != 0);
        }
    }

    /// Two-qubit depolarizing noise: at `rate` per lane, multiplies a
    /// uniformly random non-identity two-qubit Pauli (1 of 15) into the
    /// frame.
    #[inline]
    pub fn apply_2q_noise<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        rate: BernoulliRate,
        rng: &mut R,
    ) {
        let n = self.n_lanes;
        let w = self.words_per_qubit;
        let (a, b) = (a * w, b * w);
        // All skip draws happen before any Pauli draw (see `hits` docs).
        self.hits.clear();
        let hits = &mut self.hits;
        for_each_bernoulli_hit(rng, rate, n, |lane| hits.push(lane));
        for &lane in &self.hits {
            // Bits 0-3 of 1..16 are x_a, z_a, x_b, z_b; never all clear,
            // so the pair is never (I, I).
            let code = rng.random_range(1..16u8);
            let (word, bit) = (lane / 64, 1u64 << (lane % 64));
            self.x[a + word] ^= bit & mask(code & 1 != 0);
            self.z[a + word] ^= bit & mask(code & 2 != 0);
            self.x[b + word] ^= bit & mask(code & 4 != 0);
            self.z[b + word] ^= bit & mask(code & 8 != 0);
        }
    }

    /// XORs Bernoulli flips at `rate` into a measurement record
    /// (classical readout error).
    pub fn apply_record_noise<R: Rng + ?Sized>(
        record: &mut [u64],
        n_lanes: usize,
        rate: BernoulliRate,
        rng: &mut R,
    ) {
        for_each_bernoulli_hit(rng, rate, n_lanes, |lane| {
            record[lane / 64] ^= 1u64 << (lane % 64);
        });
    }
}

/// A single scalar Pauli frame over `n` qubits, for deterministic fault
/// propagation.
///
/// # Examples
///
/// ```
/// use vlq_sim::{CliffordGate, SingleFrame};
/// use vlq_pauli::Pauli;
///
/// let mut f = SingleFrame::new(3);
/// f.mul_pauli(0, Pauli::X);
/// f.apply(CliffordGate::Cnot(0, 1));
/// assert_eq!(f.pauli(1), Pauli::X);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SingleFrame {
    x: BitVec,
    z: BitVec,
}

impl SingleFrame {
    /// Identity frame on `n` qubits.
    pub fn new(n: usize) -> Self {
        SingleFrame {
            x: BitVec::zeros(n),
            z: BitVec::zeros(n),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` if the frame is the identity.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.z.is_zero()
    }

    /// The Pauli on `qubit`.
    pub fn pauli(&self, qubit: usize) -> Pauli {
        Pauli::from_xz(self.x.get(qubit), self.z.get(qubit))
    }

    /// Multiplies `p` into the frame at `qubit`.
    pub fn mul_pauli(&mut self, qubit: usize, p: Pauli) {
        let (px, pz) = p.xz();
        if px {
            self.x.flip(qubit);
        }
        if pz {
            self.z.flip(qubit);
        }
    }

    /// X component at `qubit` (flips Z-basis measurements).
    pub fn x_bit(&self, qubit: usize) -> bool {
        self.x.get(qubit)
    }

    /// Clears the frame at `qubit`.
    pub fn reset_qubit(&mut self, qubit: usize) {
        self.x.set(qubit, false);
        self.z.set(qubit, false);
    }

    /// Applies a Clifford gate (same semantics as [`FrameBatch`]).
    pub fn apply(&mut self, gate: CliffordGate) {
        use CliffordGate::*;
        match gate {
            H(q) => {
                let (xb, zb) = (self.x.get(q), self.z.get(q));
                self.x.set(q, zb);
                self.z.set(q, xb);
            }
            S(q) | SDag(q) => {
                if self.x.get(q) {
                    self.z.flip(q);
                }
            }
            X(_) | Y(_) | Z(_) => {}
            Cnot(c, t) => {
                if self.x.get(c) {
                    self.x.flip(t);
                }
                if self.z.get(t) {
                    self.z.flip(c);
                }
            }
            Cz(a, b) => {
                if self.x.get(a) {
                    self.z.flip(b);
                }
                if self.x.get(b) {
                    self.z.flip(a);
                }
            }
            Swap(a, b) => {
                let (xa, za) = (self.x.get(a), self.z.get(a));
                let (xb, zb) = (self.x.get(b), self.z.get(b));
                self.x.set(a, xb);
                self.z.set(a, zb);
                self.x.set(b, xa);
                self.z.set(b, za);
            }
            ISwap(a, b) => {
                self.apply(CliffordGate::S(a));
                self.apply(CliffordGate::S(b));
                self.apply(CliffordGate::Cz(a, b));
                self.apply(CliffordGate::Swap(a, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn single_frame_cnot_propagation() {
        // X on control copies to target; Z on target copies to control.
        let mut f = SingleFrame::new(2);
        f.mul_pauli(0, Pauli::X);
        f.apply(CliffordGate::Cnot(0, 1));
        assert_eq!(f.pauli(0), Pauli::X);
        assert_eq!(f.pauli(1), Pauli::X);

        let mut f = SingleFrame::new(2);
        f.mul_pauli(1, Pauli::Z);
        f.apply(CliffordGate::Cnot(0, 1));
        assert_eq!(f.pauli(0), Pauli::Z);
        assert_eq!(f.pauli(1), Pauli::Z);
    }

    #[test]
    fn single_frame_h_exchanges_xz() {
        let mut f = SingleFrame::new(1);
        f.mul_pauli(0, Pauli::X);
        f.apply(CliffordGate::H(0));
        assert_eq!(f.pauli(0), Pauli::Z);
        f.apply(CliffordGate::H(0));
        assert_eq!(f.pauli(0), Pauli::X);
        // Y is preserved.
        let mut f = SingleFrame::new(1);
        f.mul_pauli(0, Pauli::Y);
        f.apply(CliffordGate::H(0));
        assert_eq!(f.pauli(0), Pauli::Y);
    }

    #[test]
    fn iswap_mixes_sectors() {
        // An X error on the transmon becomes a Y-component on the mode
        // after a load (iSWAP) — this is why both decoding sectors see it.
        let mut f = SingleFrame::new(2);
        f.mul_pauli(0, Pauli::X);
        f.apply(CliffordGate::ISwap(0, 1));
        assert_eq!(f.pauli(0), Pauli::Z);
        assert_eq!(f.pauli(1), Pauli::Y);
    }

    /// Frames agree with tableau conjugation modulo sign for all gates and
    /// all single-Pauli inputs.
    #[test]
    fn frame_matches_tableau_conjugation() {
        use crate::tableau::conjugate_row;
        use vlq_pauli::PauliString;
        let gates = [
            CliffordGate::H(0),
            CliffordGate::S(0),
            CliffordGate::SDag(1),
            CliffordGate::Cnot(0, 1),
            CliffordGate::Cz(0, 1),
            CliffordGate::Swap(0, 1),
            CliffordGate::ISwap(0, 1),
        ];
        for gate in gates {
            for pa in Pauli::ALL {
                for pb in Pauli::ALL {
                    let mut frame = SingleFrame::new(2);
                    frame.mul_pauli(0, pa);
                    frame.mul_pauli(1, pb);
                    frame.apply(gate);

                    let mut row = PauliString::identity(2);
                    row.set_pauli(0, pa);
                    row.set_pauli(1, pb);
                    conjugate_row(&mut row, gate);

                    assert_eq!(
                        (frame.pauli(0), frame.pauli(1)),
                        (row.pauli(0), row.pauli(1)),
                        "gate {gate:?} on ({pa:?},{pb:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_matches_single_frame() {
        let mut rng = SmallRng::seed_from_u64(11);
        use rand::Rng;
        let n = 5;
        let lanes = 130;
        let mut batch = FrameBatch::new(n, lanes);
        let mut singles: Vec<SingleFrame> = (0..lanes).map(|_| SingleFrame::new(n)).collect();
        // Random initial errors.
        for (lane, single) in singles.iter_mut().enumerate() {
            for q in 0..n {
                let p = Pauli::ALL[rng.random_range(0..4usize)];
                single.mul_pauli(q, p);
                batch.set_pauli(q, lane, p);
            }
        }
        let gates = [
            CliffordGate::H(0),
            CliffordGate::Cnot(0, 1),
            CliffordGate::ISwap(1, 2),
            CliffordGate::Cz(2, 3),
            CliffordGate::Swap(3, 4),
            CliffordGate::S(4),
        ];
        for g in gates {
            batch.apply(g);
            for s in &mut singles {
                s.apply(g);
            }
        }
        for (lane, s) in singles.iter().enumerate() {
            for q in 0..n {
                assert_eq!(batch.pauli(q, lane), s.pauli(q), "lane {lane}, qubit {q}");
            }
        }
    }

    #[test]
    fn measure_and_reset() {
        let mut fb = FrameBatch::new(2, 100);
        fb.set_pauli(0, 3, Pauli::X);
        fb.set_pauli(0, 64, Pauli::Y);
        fb.set_pauli(0, 65, Pauli::Z); // Z does not flip a Z measurement
        let rec = fb.measure_z(0);
        assert_eq!(rec[0], 1 << 3);
        assert_eq!(rec[1], 1 << 0);
        fb.reset_qubit(0);
        assert_eq!(fb.pauli(0, 3), Pauli::I);
        assert_eq!(fb.pauli(0, 64), Pauli::I);
    }

    #[test]
    fn word_level_injection_matches_per_lane() {
        let mut a = FrameBatch::new(2, 130);
        let mut b = FrameBatch::new(2, 130);
        let flips = [0b1011u64, 0, 1 << 1];
        a.xor_x_words(1, &flips);
        a.xor_z_words(0, &flips);
        for (w, word) in flips.iter().enumerate() {
            for bit in 0..64 {
                if word >> bit & 1 == 1 {
                    b.set_pauli(1, w * 64 + bit, Pauli::X);
                    b.set_pauli(0, w * 64 + bit, Pauli::Z);
                }
            }
        }
        assert_eq!(a.x_words(1), b.x_words(1));
        assert_eq!(a.z_words(0), b.z_words(0));
        // Double injection cancels (XOR semantics).
        a.xor_x_words(1, &flips);
        assert_eq!(a.x_words(1), &[0, 0, 0]);
    }

    fn rate(p: f64) -> BernoulliRate {
        BernoulliRate::of(p).unwrap()
    }

    #[test]
    fn bernoulli_hit_statistics() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 10_000;
        let p = 0.05;
        let mut count = 0usize;
        let reps = 20;
        for _ in 0..reps {
            for_each_bernoulli_hit(&mut rng, rate(p), n, |_| count += 1);
        }
        let mean = count as f64 / reps as f64;
        let expected = p * n as f64; // 500
                                     // 5-sigma tolerance: sigma ~ sqrt(n p (1-p) / reps) ~ 4.9.
        assert!(
            (mean - expected).abs() < 5.0 * (n as f64 * p * (1.0 - p) / reps as f64).sqrt(),
            "mean {mean} too far from {expected}"
        );
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut hits = vec![];
        assert_eq!(BernoulliRate::of(0.0), None, "p = 0 never fires");
        assert_eq!(BernoulliRate::of(1.0), Some(BernoulliRate::Always));
        for_each_bernoulli_hit(&mut rng, BernoulliRate::Always, 5, |i| hits.push(i));
        assert_eq!(hits, vec![0, 1, 2, 3, 4]);
        for_each_bernoulli_hit(&mut rng, rate(0.5), 0, |i| hits.push(i));
        assert_eq!(hits.len(), 5);
        // Neither call drew from the stream.
        use rand::Rng;
        let fresh = SmallRng::seed_from_u64(1).random::<u64>();
        assert_eq!(rng.random::<u64>(), fresh);
    }

    /// The reference skip loop, floored: `floor`, an `is_finite` test
    /// and an unsigned cast, on `ln(1 - p)` taken as it is (+0.0 where
    /// 1 - p rounds to 1.0).
    fn floored_hits<R: Rng + ?Sized>(rng: &mut R, p: f64, n_lanes: usize, hits: &mut Vec<usize>) {
        hits.clear();
        if n_lanes == 0 {
            return;
        }
        let ln_q = (1.0 - p).ln();
        let mut i = 0usize;
        loop {
            let u = 1.0 - rng.random::<f64>();
            let skip = (u.ln() / ln_q).floor();
            if !skip.is_finite() || skip >= (n_lanes - i) as f64 {
                return;
            }
            i += skip as usize;
            hits.push(i);
            i += 1;
            if i >= n_lanes {
                return;
            }
        }
    }

    /// The skip loop visits the lanes the floored loop visits and
    /// leaves the RNG where it leaves it, from rates whose 1 - p rounds
    /// to 1.0 (1e-300, 1e-17) to 1 - 1e-12, at lane counts around word
    /// edges and up to a full 1,024-lane batch.
    #[test]
    fn skip_loop_matches_floored_skips() {
        let ps = [
            1e-300,
            1e-17,
            1e-16,
            1e-6,
            8e-4,
            5e-3,
            0.3,
            0.5,
            1.0 - 1e-12,
        ];
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for (pi, &p) in ps.iter().enumerate() {
            let rate = rate(p);
            for lanes in [0usize, 1, 63, 64, 65, 1000, 1024] {
                // 10^5 channels per pair, fewer where a channel draws
                // more than ten times: at most about 10^6 draws a pair.
                let channels = (1e6 / (1.0 + p * lanes as f64)).min(1e5) as u64;
                let seed = (pi * 10_000 + lanes) as u64;
                let mut reference = SmallRng::seed_from_u64(seed);
                let mut rng = SmallRng::seed_from_u64(seed);
                for channel in 0..channels {
                    floored_hits(&mut reference, p, lanes, &mut want);
                    got.clear();
                    for_each_bernoulli_hit(&mut rng, rate, lanes, |lane| got.push(lane));
                    assert_eq!(got, want, "p {p:e}, {lanes} lanes, channel {channel}");
                }
                assert_eq!(
                    rng.random::<u64>(),
                    reference.random::<u64>(),
                    "p {p:e}, {lanes} lanes: next draw"
                );
            }
        }
    }

    #[test]
    fn noise_rates_are_calibrated() {
        let mut rng = SmallRng::seed_from_u64(3);
        let lanes = 64 * 2000;
        let mut fb = FrameBatch::new(1, lanes);
        fb.apply_1q_noise(0, rate(0.01), &mut rng);
        let errors = (0..lanes).filter(|&l| fb.pauli(0, l) != Pauli::I).count();
        let expected = 0.01 * lanes as f64;
        assert!(
            (errors as f64 - expected).abs() < 5.0 * (lanes as f64 * 0.01f64).sqrt(),
            "errors {errors} vs expected {expected}"
        );
        // All three Paulis occur.
        let mut seen = std::collections::HashSet::new();
        for l in 0..lanes {
            let p = fb.pauli(0, l);
            if p != Pauli::I {
                seen.insert(p);
            }
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn two_qubit_noise_hits_both_qubits() {
        let mut rng = SmallRng::seed_from_u64(5);
        let lanes = 64 * 1000;
        let mut fb = FrameBatch::new(2, lanes);
        fb.apply_2q_noise(0, 1, rate(0.05), &mut rng);
        let mut pair_kinds = std::collections::HashSet::new();
        for l in 0..lanes {
            let pair = (fb.pauli(0, l), fb.pauli(1, l));
            if pair != (Pauli::I, Pauli::I) {
                pair_kinds.insert(pair);
            }
        }
        // All 15 non-identity pairs should appear at this sample size.
        assert_eq!(pair_kinds.len(), 15);
    }

    /// Pins the exact RNG draw order of the noise channels: captured
    /// from the pre-scratch-buffer implementation (hits collected into
    /// a fresh `Vec` per call). The reusable buffer, the precomputed
    /// `ln(1 - p)` and the masked injection must not change a single bit
    /// or consume a single extra draw.
    #[test]
    fn noise_golden_rng_stream_is_unchanged() {
        let mut fb = FrameBatch::new(3, 130);
        let mut rng = SmallRng::seed_from_u64(1234);
        fb.apply_1q_noise(0, rate(0.07), &mut rng);
        fb.apply_2q_noise(1, 2, rate(0.05), &mut rng);
        fb.apply_1q_noise(2, rate(0.3), &mut rng);
        assert_eq!(fb.x_words(0), &[134742016, 4328521920, 0]);
        assert_eq!(fb.z_words(0), &[524288, 137438953536, 0]);
        assert_eq!(fb.x_words(1), &[4398046511120, 25165824, 0]);
        assert_eq!(fb.z_words(1), &[4398046511104, 2305843009230471233, 0]);
        assert_eq!(fb.x_words(2), &[9047333040586752, 46724919736402441, 0]);
        assert_eq!(fb.z_words(2), &[36139299548475394, 6955246743269146688, 0]);
        // The RNG must land in the identical state (no extra draws).
        use rand::Rng;
        assert_eq!(rng.random::<u64>(), 16532659614797596628);
    }

    /// The masked word-XOR gauge randomization consumes the same draws
    /// as the old per-bit loop and produces the same planes.
    #[test]
    fn randomize_z_matches_per_bit_reference() {
        use rand::Rng;
        for lanes in [1usize, 63, 64, 65, 130, 192] {
            let mut fast = FrameBatch::new(2, lanes);
            let mut slow = FrameBatch::new(2, lanes);
            let mut rng_a = SmallRng::seed_from_u64(77);
            let mut rng_b = SmallRng::seed_from_u64(77);
            fast.randomize_z(1, &mut rng_a);
            let words = lanes.div_ceil(64).max(1);
            for w in 0..words {
                let mask: u64 = rng_b.random();
                for bit in 0..64 {
                    if mask >> bit & 1 == 1 {
                        let lane = w * 64 + bit;
                        if lane < lanes {
                            slow.set_pauli(1, lane, Pauli::Z);
                        }
                    }
                }
            }
            assert_eq!(fast.z_words(1), slow.z_words(1), "lanes {lanes}");
            assert_eq!(fast.x_words(1), slow.x_words(1), "lanes {lanes}");
            assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
        }
    }

    #[test]
    fn record_noise_flips_bits() {
        let mut rng = SmallRng::seed_from_u64(9);
        let lanes = 6400;
        let mut record = vec![0u64; lanes / 64];
        FrameBatch::apply_record_noise(&mut record, lanes, rate(0.1), &mut rng);
        let flips: u32 = record.iter().map(|w| w.count_ones()).sum();
        assert!(flips > 400 && flips < 900, "flips {flips}");
    }
}
