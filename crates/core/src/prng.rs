//! Hardware-style pseudo-random number generators.
//!
//! All random placement policies of the paper rely on a pseudo-random number
//! generator to draw a fresh seed before every program run.  The paper uses
//! the IEC-61508 SIL3-compliant PRNG of Agirre et al. (DSD 2015), which is a
//! small combination of linear feedback shift registers with low hardware
//! cost.  This module provides:
//!
//! * [`Lfsr32`] — a single Galois LFSR (the basic hardware building block),
//! * [`CombinedLfsr`] — a three-component combined Tausworthe/LFSR generator
//!   (the stand-in for the SIL3 PRNG: cheap in hardware, passes the MBPTA
//!   independence and identical-distribution tests),
//! * [`SplitMix64`] — a software seeder used to expand one user-provided seed
//!   into well-separated component seeds,
//! * [`SeedSequence`] — an iterator producing the per-run placement seeds of
//!   an MBPTA measurement campaign.

/// A 32-bit Galois linear feedback shift register.
///
/// The default feedback polynomial `0xA3AC183C` is maximal-length, giving a
/// period of 2^32 - 1 (the all-zero state is never reached because the state
/// is forced non-zero on construction).
///
/// ```
/// use randmod_core::prng::Lfsr32;
///
/// let mut lfsr = Lfsr32::new(0x1234_5678);
/// let a = lfsr.next_bit();
/// let b = lfsr.next_bit();
/// assert!(a == 0 || a == 1);
/// assert!(b == 0 || b == 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr32 {
    state: u32,
    taps: u32,
}

impl Lfsr32 {
    /// Default maximal-length feedback polynomial (taps) for 32 bits.
    pub const DEFAULT_TAPS: u32 = 0xA3AC_183C;

    /// Creates an LFSR with the default taps. A zero seed is mapped to a
    /// fixed non-zero state so the register never locks up.
    pub fn new(seed: u32) -> Self {
        Self::with_taps(seed, Self::DEFAULT_TAPS)
    }

    /// Creates an LFSR with an explicit feedback polynomial.
    pub fn with_taps(seed: u32, taps: u32) -> Self {
        let state = if seed == 0 { 0xBAD_5EED } else { seed };
        Lfsr32 { state, taps }
    }

    /// Advances the register by one step and returns the output bit (0 or 1).
    pub fn next_bit(&mut self) -> u32 {
        let out = self.state & 1;
        self.state >>= 1;
        if out == 1 {
            self.state ^= self.taps;
        }
        out
    }

    /// Advances the register by 32 steps and returns the collected word.
    pub fn next_u32(&mut self) -> u32 {
        let mut word = 0u32;
        for i in 0..32 {
            word |= self.next_bit() << i;
        }
        word
    }

    /// Returns the current register state.
    pub fn state(&self) -> u32 {
        self.state
    }
}

/// A combined three-component LFSR (Tausworthe) generator.
///
/// This is the reproduction's stand-in for the IEC-61508 SIL3 PRNG the paper
/// uses: three small maximal-length shift-register generators whose outputs
/// are XOR-combined.  It is cheap to implement in hardware (shift registers
/// and a handful of XOR gates) and of sufficient statistical quality for the
/// MBPTA i.i.d. tests (see the `prng_quality` tests and the Table 2
/// experiment).
///
/// ```
/// use randmod_core::prng::CombinedLfsr;
///
/// let mut prng = CombinedLfsr::new(42);
/// let x = prng.next_u32();
/// let y = prng.next_u32();
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedLfsr {
    s1: u32,
    s2: u32,
    s3: u32,
}

impl CombinedLfsr {
    /// Creates a generator from a 64-bit seed.  The three component states
    /// are derived with [`SplitMix64`] so that nearby seeds yield unrelated
    /// streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // Component states must respect minimum values required by the
        // Tausworthe step (k bits of state must be non-zero).
        let s1 = (sm.next_u64() as u32) | 0x20;
        let s2 = (sm.next_u64() as u32) | 0x40;
        let s3 = (sm.next_u64() as u32) | 0x80;
        CombinedLfsr { s1, s2, s3 }
    }

    #[inline]
    fn taus_step(state: u32, s1: u32, s2: u32, s3: u32, m: u32) -> u32 {
        let b = ((state << s1) ^ state) >> s2;
        ((state & m) << s3) ^ b
    }

    /// Returns the next 32-bit pseudo-random word.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        self.s1 = Self::taus_step(self.s1, 13, 19, 12, 0xFFFF_FFFE);
        self.s2 = Self::taus_step(self.s2, 2, 25, 4, 0xFFFF_FFF8);
        self.s3 = Self::taus_step(self.s3, 3, 11, 17, 0xFFFF_FFF0);
        self.s1 ^ self.s2 ^ self.s3
    }

    /// Returns the next 64-bit pseudo-random word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// Uses rejection sampling (Lemire-style threshold) so the distribution
    /// is unbiased for any bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be non-zero");
        if bound.is_power_of_two() {
            return self.next_u32() & (bound - 1);
        }
        // Rejection sampling on the top of the range to remove modulo bias.
        let zone = u32::MAX - (u32::MAX % bound) - 1;
        loop {
            let v = self.next_u32();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A structure-of-arrays bank of [`CombinedLfsr`] generators, one per seed
/// lane.
///
/// The lane-batched replay engine steps K independent cache hierarchies per
/// decoded trace op.  The lane cache keeps one bank for all its lanes, the
/// three Tausworthe component states in three contiguous arrays (instead
/// of K scattered `CombinedLfsr` structs), and a lane draws its victim
/// with [`Self::next_below_lane`] at the point of its own miss.
///
/// Each lane's stream is bit-identical to a standalone `CombinedLfsr` seeded
/// with the same value — the lane bank must consume random words in exactly
/// the order a lone cache with its own generator does, and only for lanes
/// that actually draw (a lane whose set has an invalid way never advances).
///
/// ```
/// use randmod_core::prng::{CombinedLfsr, CombinedLfsrLanes};
///
/// let mut bank = CombinedLfsrLanes::new(4);
/// bank.reseed_lane(2, 99);
/// let mut scalar = CombinedLfsr::new(99);
/// assert_eq!(bank.next_u32_lane(2), scalar.next_u32());
/// assert_eq!(bank.next_below_lane(2, 4), scalar.next_below(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedLfsrLanes {
    s1: Vec<u32>,
    s2: Vec<u32>,
    s3: Vec<u32>,
}

impl CombinedLfsrLanes {
    /// Creates a bank of `lanes` generators, each seeded with its lane index.
    ///
    /// The engine reseeds every active lane before use; the initial states
    /// merely have to be valid Tausworthe states.
    pub fn new(lanes: usize) -> Self {
        let mut bank = CombinedLfsrLanes {
            s1: vec![0; lanes],
            s2: vec![0; lanes],
            s3: vec![0; lanes],
        };
        for lane in 0..lanes {
            bank.reseed_lane(lane, lane as u64);
        }
        bank
    }

    /// Number of lanes in the bank.
    pub fn lane_count(&self) -> usize {
        self.s1.len()
    }

    /// Re-derives lane `lane`'s component states from `seed`, exactly as
    /// [`CombinedLfsr::new`] does.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`Self::lane_count`].
    // randmod: allow(P1, lane < lane_count is the documented Panics contract and s1, s2, s3 each hold lane_count states; new passes 0..lanes, and SetAssocCacheLanes::reseed_wave passes a lane below seeds.len, which it asserts is at most the width it sized this bank to)
    pub fn reseed_lane(&mut self, lane: usize, seed: u64) {
        let mut sm = SplitMix64::new(seed);
        self.s1[lane] = (sm.next_u64() as u32) | 0x20;
        self.s2[lane] = (sm.next_u64() as u32) | 0x40;
        self.s3[lane] = (sm.next_u64() as u32) | 0x80;
    }

    /// Advances lane `lane` by one step and returns its next 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below [`Self::lane_count`].
    // randmod: allow(P1, lane < lane_count is the documented Panics contract and s1, s2, s3 each hold lane_count states; the lane cache sizes this bank to its lane width and draws only through next_below_lane for a lane of its access mask, which it clips to the active prefix that reseed_wave asserts fits the width)
    #[inline]
    pub fn next_u32_lane(&mut self, lane: usize) -> u32 {
        let s1 = CombinedLfsr::taus_step(self.s1[lane], 13, 19, 12, 0xFFFF_FFFE);
        let s2 = CombinedLfsr::taus_step(self.s2[lane], 2, 25, 4, 0xFFFF_FFF8);
        let s3 = CombinedLfsr::taus_step(self.s3[lane], 3, 11, 17, 0xFFFF_FFF0);
        self.s1[lane] = s1;
        self.s2[lane] = s2;
        self.s3[lane] = s3;
        s1 ^ s2 ^ s3
    }

    /// Returns a uniformly distributed value in `0..bound` from lane `lane`,
    /// bit-identical to [`CombinedLfsr::next_below`].
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below_lane(&mut self, lane: usize, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be non-zero");
        if bound.is_power_of_two() {
            return self.next_u32_lane(lane) & (bound - 1);
        }
        let zone = u32::MAX - (u32::MAX % bound) - 1;
        loop {
            let v = self.next_u32_lane(lane);
            if v <= zone {
                return v % bound;
            }
        }
    }
}

/// SplitMix64: a tiny, high-quality software generator used for seeding.
///
/// ```
/// use randmod_core::prng::SplitMix64;
///
/// let mut sm = SplitMix64::new(7);
/// assert_ne!(sm.next_u64(), sm.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given state.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Produces the sequence of per-run placement seeds of an MBPTA campaign.
///
/// The paper generates a fresh seed before every program execution; the
/// resulting cache layout is a pure function of that seed (and, for RM, of
/// the addresses).  `SeedSequence` mirrors this: it expands one campaign seed
/// into an arbitrary number of per-run seeds.
///
/// ```
/// use randmod_core::prng::SeedSequence;
///
/// let seeds: Vec<u64> = SeedSequence::new(1).take(3).collect();
/// assert_eq!(seeds.len(), 3);
/// assert_ne!(seeds[0], seeds[1]);
/// ```
#[derive(Debug, Clone)]
pub struct SeedSequence {
    inner: CombinedLfsr,
}

impl SeedSequence {
    /// Creates a sequence from a campaign-level seed.
    pub fn new(campaign_seed: u64) -> Self {
        SeedSequence {
            inner: CombinedLfsr::new(campaign_seed),
        }
    }
}

impl Iterator for SeedSequence {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.inner.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_zero_seed_does_not_lock_up() {
        let mut lfsr = Lfsr32::new(0);
        let first = lfsr.next_u32();
        let second = lfsr.next_u32();
        assert_ne!(first, 0);
        assert_ne!(first, second);
    }

    #[test]
    fn lfsr_is_deterministic() {
        let mut a = Lfsr32::new(99);
        let mut b = Lfsr32::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
    }

    #[test]
    fn lfsr_state_changes() {
        let mut lfsr = Lfsr32::new(1);
        let s0 = lfsr.state();
        lfsr.next_u32();
        assert_ne!(lfsr.state(), s0);
    }

    #[test]
    fn lfsr_bit_balance_is_reasonable() {
        let mut lfsr = Lfsr32::new(0xACE1);
        let n = 100_000;
        let ones: u32 = (0..n).map(|_| lfsr.next_bit()).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "bit balance {frac}");
    }

    #[test]
    fn combined_lfsr_deterministic_per_seed() {
        let mut a = CombinedLfsr::new(0xDEADBEEF);
        let mut b = CombinedLfsr::new(0xDEADBEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn combined_lfsr_different_seeds_diverge() {
        let mut a = CombinedLfsr::new(1);
        let mut b = CombinedLfsr::new(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn combined_lfsr_mean_is_centred() {
        let mut prng = CombinedLfsr::new(7);
        let n = 200_000u64;
        let sum: u64 = (0..n).map(|_| prng.next_u32() as u64).sum();
        let mean = sum as f64 / n as f64;
        let expected = (u32::MAX as f64) / 2.0;
        assert!(
            (mean - expected).abs() / expected < 0.01,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn next_below_is_in_range_and_covers_all_values() {
        let mut prng = CombinedLfsr::new(3);
        let bound = 7u32;
        let mut seen = vec![false; bound as usize];
        for _ in 0..10_000 {
            let v = prng.next_below(bound);
            assert!(v < bound);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_below_power_of_two_uniformity() {
        let mut prng = CombinedLfsr::new(11);
        let bound = 8u32;
        let mut counts = vec![0u32; bound as usize];
        let n = 80_000;
        for _ in 0..n {
            counts[prng.next_below(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() / expected < 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn next_below_zero_panics() {
        CombinedLfsr::new(1).next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut prng = CombinedLfsr::new(5);
        for _ in 0..10_000 {
            let x = prng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 reference implementation
        // seeded with 1234567.
        let mut sm = SplitMix64::new(1234567);
        let v = sm.next_u64();
        assert_eq!(v, 6457827717110365317);
    }

    #[test]
    fn seed_sequence_produces_distinct_seeds() {
        let seeds: Vec<u64> = SeedSequence::new(0xC0FFEE).take(1000).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "seed collision within 1000 runs");
    }

    #[test]
    fn seed_sequence_is_reproducible() {
        let a: Vec<u64> = SeedSequence::new(9).take(10).collect();
        let b: Vec<u64> = SeedSequence::new(9).take(10).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lane_bank_matches_scalar_streams() {
        // Every lane of the SoA bank must reproduce a standalone
        // CombinedLfsr bit-for-bit, including the non-power-of-two
        // rejection-sampling path.
        let seeds = [0u64, 1, 0xDEAD_BEEF, u64::MAX, 42];
        let mut bank = CombinedLfsrLanes::new(seeds.len());
        let mut scalars: Vec<CombinedLfsr> = Vec::new();
        for (lane, &seed) in seeds.iter().enumerate() {
            bank.reseed_lane(lane, seed);
            scalars.push(CombinedLfsr::new(seed));
        }
        for step in 0..200 {
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                match step % 3 {
                    0 => assert_eq!(bank.next_u32_lane(lane), scalar.next_u32()),
                    1 => assert_eq!(bank.next_below_lane(lane, 4), scalar.next_below(4)),
                    _ => assert_eq!(bank.next_below_lane(lane, 7), scalar.next_below(7)),
                }
            }
        }
    }

    #[test]
    fn lane_bank_wave_draw_only_advances_listed_lanes() {
        let mut bank = CombinedLfsrLanes::new(4);
        for lane in 0..4 {
            bank.reseed_lane(lane, lane as u64 * 17 + 3);
        }
        let idle = bank.clone();
        // A draw on lanes 1 and 3, one lane at a time as the lane cache
        // draws at each lane's miss, must match standalone streams.
        let drawn = [bank.next_below_lane(1, 8), bank.next_below_lane(3, 8)];
        let mut expect = idle.clone();
        assert_eq!(
            drawn,
            [expect.next_below_lane(1, 8), expect.next_below_lane(3, 8)]
        );
        // Lanes 0 and 2 must not have advanced.
        assert_eq!(bank.next_u32_lane(0), expect.next_u32_lane(0));
        assert_eq!(bank.next_u32_lane(2), expect.next_u32_lane(2));
        // Non-power-of-two bound routes through rejection sampling, still
        // advancing only its own lane.
        let odd = bank.next_below_lane(2, 3);
        assert!(odd < 3);
        assert_eq!(odd, expect.next_below_lane(2, 3));
        assert_eq!(bank.next_u32_lane(1), expect.next_u32_lane(1));
    }

    #[test]
    fn combined_lfsr_serial_correlation_is_low() {
        // Lag-1 serial correlation of the unit-interval output should be
        // close to zero for an acceptable generator.
        let mut prng = CombinedLfsr::new(0x5EED);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| prng.next_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n - 1 {
            num += (xs[i] - mean) * (xs[i + 1] - mean);
        }
        for x in &xs {
            den += (x - mean) * (x - mean);
        }
        let rho = num / den;
        assert!(rho.abs() < 0.02, "lag-1 correlation {rho}");
    }
}
