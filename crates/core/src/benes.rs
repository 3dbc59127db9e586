//! Benes permutation networks.
//!
//! Random Modulo permutes the *index bits* of an address with a Benes
//! network: a multistage interconnection network built exclusively from 2x2
//! switches (controlled swaps).  Because every switch either passes its two
//! inputs straight through or crosses them, every control word realises a
//! *permutation* of the inputs — which is exactly the property RM relies on:
//! a permutation of the index bits is a bijection on the index value, so two
//! addresses in the same cache segment with different modulo indices can
//! never be mapped to the same set, for any seed.
//!
//! The classic Benes network is defined for a power-of-two number of inputs
//! `n` and has `2*log2(n) - 1` stages of `n/2` switches (20 control bits for
//! `n = 8`, the figure quoted in the paper).  This implementation uses the
//! standard recursive construction generalised to arbitrary `n >= 1` (for odd
//! sub-networks the unpaired wire bypasses the outer switch stages), so
//! caches whose index width is not a power of two — e.g. the 128-set LEON3
//! L1 (7 index bits) or the 1024-set L2 partition (10 index bits) — are
//! supported with the same guarantees.

use std::fmt;

/// One 2x2 switch: if its control bit is set, the values on wires `a` and
/// `b` are exchanged; otherwise they pass through unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gate {
    a: usize,
    b: usize,
}

/// A Benes permutation network over `n` wires.
///
/// ```
/// use randmod_core::benes::BenesNetwork;
///
/// let net = BenesNetwork::new(8);
/// // The 8-input Benes network needs 20 control bits, as stated in the paper.
/// assert_eq!(net.control_bits(), 20);
///
/// // Every control word yields a permutation (a bijection on wire indices).
/// let perm = net.permutation(0b1010_1100_0011_0101_1001);
/// let mut sorted = perm.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..8).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenesNetwork {
    n: usize,
    gates: Vec<Gate>,
}

impl BenesNetwork {
    /// Maximum number of control bits supported (controls are packed in a
    /// `u128`).
    pub const MAX_CONTROL_BITS: usize = 128;

    /// Builds the network for `n` wires.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or if the network would need more than
    /// [`Self::MAX_CONTROL_BITS`] control bits (indices wider than any
    /// realistic cache).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a Benes network needs at least one wire");
        let mut gates = Vec::new();
        let wires: Vec<usize> = (0..n).collect();
        Self::build(&wires, &mut gates);
        assert!(
            gates.len() <= Self::MAX_CONTROL_BITS,
            "network over {n} wires needs {} control bits, more than the supported {}",
            gates.len(),
            Self::MAX_CONTROL_BITS
        );
        BenesNetwork { n, gates }
    }

    fn build(wires: &[usize], gates: &mut Vec<Gate>) {
        // One switch per adjacent wire pair; on an odd wire count the
        // unpaired last wire bypasses the outer switch stages.
        let pairs = wires.chunks_exact(2);
        let unpaired = pairs.remainder();
        let stage: Vec<Gate> = pairs
            .filter_map(|pair| match *pair {
                [a, b] => Some(Gate { a, b }),
                _ => None,
            })
            .collect();
        if wires.len() <= 2 {
            // One wire needs no switch, two wires exactly one.
            gates.extend_from_slice(&stage);
            return;
        }
        // Input switch stage.
        gates.extend_from_slice(&stage);
        // Recursive sub-networks: the first output of every input switch
        // feeds the upper sub-network, the second output the lower one.
        // The unpaired wire joins the upper sub-network.
        let mut upper: Vec<usize> = stage.iter().map(|gate| gate.a).collect();
        upper.extend_from_slice(unpaired);
        let lower: Vec<usize> = stage.iter().map(|gate| gate.b).collect();
        Self::build(&upper, gates);
        Self::build(&lower, gates);
        // Output switch stage.
        gates.extend_from_slice(&stage);
    }

    /// Number of wires.
    pub fn wires(&self) -> usize {
        self.n
    }

    /// Number of 2x2 switches, i.e. the number of control bits the network
    /// consumes.
    pub fn control_bits(&self) -> usize {
        self.gates.len()
    }

    /// Applies the network to `items` in place, consuming one control bit
    /// per switch (bit `k` of `controls` drives switch `k`).
    ///
    /// # Panics
    ///
    /// Panics if `items.len()` differs from the number of wires.
    pub fn apply<T>(&self, items: &mut [T], controls: u128) {
        assert_eq!(
            items.len(),
            self.n,
            "item count {} does not match the {} network wires",
            items.len(),
            self.n
        );
        for (k, gate) in self.gates.iter().enumerate() {
            if (controls >> k) & 1 == 1 {
                items.swap(gate.a, gate.b);
            }
        }
    }

    /// Returns the permutation realised by `controls`: output wire `i`
    /// carries the value that entered on wire `permutation[i]`.
    pub fn permutation(&self, controls: u128) -> Vec<usize> {
        let mut items: Vec<usize> = (0..self.n).collect();
        self.apply(&mut items, controls);
        items
    }

    /// Permutes the low `n` bits of `value` according to `controls`,
    /// treating bit position `i` of `value` as the value on wire `i`.
    ///
    /// Because the network realises a permutation of bit positions, this is
    /// a bijection on `0..2^n` for every control word — the property Random
    /// Modulo relies on.
    /// The pure RM policy runs this once per access, so it is written to
    /// be allocation-free and branchless: each switch is a conditional
    /// exchange of two bit positions, applied with the XOR-swap identity
    /// masked by the control bit.  Bits at positions `n` and above are
    /// discarded, as the bit-vector construction this replaced did.
    #[inline]
    pub fn permute_bits(&self, value: u32, controls: u128) -> u32 {
        let mut v = if self.n >= u32::BITS as usize {
            value
        } else {
            value & ((1u32 << self.n) - 1)
        };
        for (k, gate) in self.gates.iter().enumerate() {
            let control = ((controls >> k) & 1) as u32;
            // 1 when the switch is crossed and the two bits differ.
            let diff = ((v >> gate.a) ^ (v >> gate.b)) & control;
            v ^= (diff << gate.a) | (diff << gate.b);
        }
        v
    }

    /// The image of each input bit under `controls`, for bits `0..n` in
    /// order: item `i` is `permute_bits(1 << i, controls)`.
    ///
    /// A switch only exchanges two bit positions, so `permute_bits(x,
    /// controls)` is the OR of the images of `x`'s set bits; Random
    /// Modulo's lane bank builds its per-segment tables from them.  One
    /// pass of the network over the wire labels, walked backwards, yields
    /// them all: run in reverse, the network realises the inverse
    /// permutation, so entry `i` ends holding the wire bit `i` reaches.
    pub(crate) fn bit_images(&self, controls: u128) -> impl Iterator<Item = u32> {
        // `new` caps the network at 128 switches, which limits it to 30
        // wires, so every gate wire indexes inside the 32 labels.
        let mut labels: [u32; u32::BITS as usize] = std::array::from_fn(|wire| wire as u32);
        for (k, gate) in self.gates.iter().enumerate().rev() {
            if (controls >> k) & 1 == 1 {
                labels.swap(gate.a, gate.b);
            }
        }
        labels.into_iter().take(self.n).map(|wire| 1 << wire)
    }

    /// Masks a control word to the bits the network actually uses.
    pub fn mask_controls(&self, controls: u128) -> u128 {
        if self.gates.len() == 128 {
            controls
        } else {
            controls & ((1u128 << self.gates.len()) - 1)
        }
    }
}

impl fmt::Display for BenesNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Benes network: {} wires, {} switches",
            self.n,
            self.gates.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn control_bits_match_paper_for_eight_wires() {
        // The paper: "When using a 8-bit Benes network 20 bits are required
        // to drive the actual permutation of the index bits."
        assert_eq!(BenesNetwork::new(8).control_bits(), 20);
    }

    #[test]
    fn control_bits_for_small_sizes() {
        assert_eq!(BenesNetwork::new(1).control_bits(), 0);
        assert_eq!(BenesNetwork::new(2).control_bits(), 1);
        assert_eq!(BenesNetwork::new(4).control_bits(), 6);
        assert_eq!(BenesNetwork::new(16).control_bits(), 56);
    }

    #[test]
    fn odd_sizes_are_supported() {
        for n in [3usize, 5, 7, 9, 10, 11, 13] {
            let net = BenesNetwork::new(n);
            assert_eq!(net.wires(), n);
            assert!(net.control_bits() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one wire")]
    fn zero_wires_panics() {
        BenesNetwork::new(0);
    }

    #[test]
    fn every_control_word_is_a_permutation_n7() {
        let net = BenesNetwork::new(7);
        let mut sm = crate::prng::SplitMix64::new(42);
        for _ in 0..2000 {
            let controls = ((sm.next_u64() as u128) << 64) | sm.next_u64() as u128;
            let perm = net.permutation(controls);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn permute_bits_is_bijective_n7() {
        let net = BenesNetwork::new(7);
        let mut sm = crate::prng::SplitMix64::new(7);
        for _ in 0..50 {
            let controls = sm.next_u64() as u128;
            let mut seen = [false; 128];
            for v in 0u32..128 {
                let out = net.permute_bits(v, controls);
                assert!(out < 128);
                assert!(!seen[out as usize], "collision for control {controls:#x}");
                seen[out as usize] = true;
            }
        }
    }

    #[test]
    fn permute_bits_matches_the_permutation_reference() {
        // The branchless bit-swap walk must realise exactly the wire
        // permutation reported by `permutation()` (the retained reference
        // implementation built on `apply`).
        for n in [1usize, 2, 3, 4, 7, 8, 10] {
            let net = BenesNetwork::new(n);
            let mut sm = crate::prng::SplitMix64::new(0xB1B1);
            for _ in 0..200 {
                let controls = ((sm.next_u64() as u128) << 64) | sm.next_u64() as u128;
                let perm = net.permutation(controls);
                for value in 0..(1u32 << n).min(512) {
                    let expected = (0..n)
                        .filter(|&out| (value >> perm[out]) & 1 == 1)
                        .fold(0u32, |acc, out| acc | (1 << out));
                    assert_eq!(net.permute_bits(value, controls), expected);
                }
            }
        }
    }

    #[test]
    fn permute_bits_discards_bits_above_the_wire_count() {
        let net = BenesNetwork::new(7);
        assert_eq!(net.permute_bits(0x80, 0), 0);
        assert_eq!(net.permute_bits(0xFFFF_FFFF, 0), 0x7F);
        let mut sm = crate::prng::SplitMix64::new(3);
        for _ in 0..100 {
            let controls = sm.next_u64() as u128;
            let value = sm.next_u64() as u32;
            assert_eq!(
                net.permute_bits(value, controls),
                net.permute_bits(value & 0x7F, controls)
            );
            assert!(net.permute_bits(value, controls) < 128);
        }
    }

    #[test]
    fn zero_controls_is_identity() {
        for n in [2usize, 4, 7, 8, 10] {
            let net = BenesNetwork::new(n);
            assert_eq!(net.permutation(0), (0..n).collect::<Vec<_>>());
            for v in 0..(1u32 << n).min(256) {
                assert_eq!(net.permute_bits(v, 0), v);
            }
        }
    }

    #[test]
    fn all_permutations_reachable_for_four_wires() {
        // Exhaustive check for n = 4: the 6-switch network must realise all
        // 4! = 24 permutations over its 64 control words (rearrangeability).
        let net = BenesNetwork::new(4);
        let mut reached = HashSet::new();
        for controls in 0u128..(1 << net.control_bits()) {
            reached.insert(net.permutation(controls));
        }
        assert_eq!(reached.len(), 24);
    }

    #[test]
    fn all_permutations_reachable_for_three_wires() {
        let net = BenesNetwork::new(3);
        let mut reached = HashSet::new();
        for controls in 0u128..(1 << net.control_bits()) {
            reached.insert(net.permutation(controls));
        }
        assert_eq!(reached.len(), 6);
    }

    #[test]
    fn many_distinct_permutations_for_eight_wires() {
        // 8! = 40320 permutations exist; sampling 5000 random control words
        // should produce a large number of distinct ones.
        let net = BenesNetwork::new(8);
        let mut sm = crate::prng::SplitMix64::new(99);
        let mut reached = HashSet::new();
        for _ in 0..5000 {
            let controls = sm.next_u64() as u128;
            reached.insert(net.permutation(net.mask_controls(controls)));
        }
        assert!(
            reached.len() > 2500,
            "only {} distinct permutations",
            reached.len()
        );
    }

    #[test]
    fn bit_images_combine_into_permute_bits() {
        // The OR of the images of a value's set bits must be the network
        // walk of that value, for every value below 2^n.
        for n in [1usize, 7, 10, 13] {
            let net = BenesNetwork::new(n);
            let mut sm = crate::prng::SplitMix64::new(0x1A6E);
            for round in 0..6 {
                let controls = match round {
                    0 => 0,
                    1 => u128::MAX,
                    _ => ((sm.next_u64() as u128) << 64) | sm.next_u64() as u128,
                };
                let images: Vec<u32> = net.bit_images(controls).collect();
                assert_eq!(images.len(), n);
                for value in 0..1u32 << n {
                    let combined = images
                        .iter()
                        .enumerate()
                        .filter(|&(bit, _)| (value >> bit) & 1 == 1)
                        .fold(0, |acc, (_, &image)| acc | image);
                    assert_eq!(combined, net.permute_bits(value, controls), "n = {n}");
                }
            }
        }
    }

    #[test]
    fn apply_respects_item_order() {
        let net = BenesNetwork::new(2);
        let mut items = ['a', 'b'];
        net.apply(&mut items, 0);
        assert_eq!(items, ['a', 'b']);
        net.apply(&mut items, 1);
        assert_eq!(items, ['b', 'a']);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn apply_with_wrong_length_panics() {
        let net = BenesNetwork::new(4);
        let mut items = [1, 2, 3];
        net.apply(&mut items, 0);
    }

    #[test]
    fn mask_controls_limits_to_used_bits() {
        let net = BenesNetwork::new(4);
        assert_eq!(net.mask_controls(u128::MAX), (1 << 6) - 1);
    }

    #[test]
    fn display_is_informative() {
        let net = BenesNetwork::new(8);
        assert_eq!(net.to_string(), "Benes network: 8 wires, 20 switches");
    }
}
