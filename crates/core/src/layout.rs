//! Cache-layout census utilities.
//!
//! A *cache layout* is the assignment of a program's addresses to cache sets
//! under one placement seed.  The paper's argument hinges on how layouts are
//! distributed: with modulo placement the layout is fixed by the memory
//! mapping, with hRP a few lines can pile up in one set with non-negligible
//! probability, and with RM lines of the same cache segment never collide.
//! The functions in this module quantify those effects for a given set of
//! line addresses, and back the test-suite's placement invariants.

use crate::address::{CacheGeometry, LineAddr};
use crate::placement::PlacementPolicy;

/// The census of one cache layout: how many of the surveyed lines each set
/// received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutCensus {
    counts: Vec<u32>,
    lines: usize,
    ways: u32,
}

impl LayoutCensus {
    /// Surveys the layout the placement policy currently assigns to `lines`.
    pub fn survey(policy: &dyn PlacementPolicy, lines: &[LineAddr]) -> Self {
        let geometry = policy.geometry();
        let mut counts = vec![0u32; geometry.sets() as usize];
        for &line in lines {
            counts[policy.set_index_of_line(line) as usize] += 1;
        }
        LayoutCensus {
            counts,
            lines: lines.len(),
            ways: geometry.ways(),
        }
    }

    /// Number of lines surveyed.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Per-set line counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The largest number of lines mapped to any single set.
    pub fn max_lines_in_a_set(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Number of sets that received more lines than they have ways — the
    /// sets where conflict misses are inevitable if all lines are live.
    pub fn overcommitted_sets(&self) -> u32 {
        self.counts.iter().filter(|&&c| c > self.ways).count() as u32
    }

    /// Total number of lines in excess of capacity across all sets, i.e. a
    /// lower bound on the number of lines that cannot be simultaneously
    /// resident under this layout.
    pub fn excess_lines(&self) -> u32 {
        self.counts
            .iter()
            .map(|&c| c.saturating_sub(self.ways))
            .sum()
    }

    /// Number of sets that received no line at all.
    pub fn empty_sets(&self) -> u32 {
        self.counts.iter().filter(|&&c| c == 0).count() as u32
    }

    /// Shannon entropy (in bits) of the line-over-set distribution.  Higher
    /// is more balanced; the maximum is `log2(sets)` when every set receives
    /// the same number of lines.
    pub fn entropy_bits(&self) -> f64 {
        if self.lines == 0 {
            return 0.0;
        }
        let total = self.lines as f64;
        self.counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.log2()
            })
            .sum()
    }
}

/// Counts, among all pairs of the given lines that belong to the same cache
/// segment and have distinct modulo indices, how many are mapped to the same
/// set by the policy's current layout.
///
/// By construction this is always zero for modulo placement and for Random
/// Modulo (the paper's defining property), while hash-based random placement
/// yields a non-zero count with probability that grows with the footprint.
pub fn intra_segment_conflicts(policy: &dyn PlacementPolicy, lines: &[LineAddr]) -> u64 {
    let geometry = policy.geometry();
    let mut conflicts = 0u64;
    for (i, &a) in lines.iter().enumerate() {
        for &b in &lines[i + 1..] {
            if geometry.segment_of_line(a) == geometry.segment_of_line(b)
                && geometry.modulo_index_of_line(a) != geometry.modulo_index_of_line(b)
                && policy.set_index_of_line(a) == policy.set_index_of_line(b)
            {
                conflicts += 1;
            }
        }
    }
    conflicts
}

/// Builds the list of consecutive line addresses covering `footprint_bytes`
/// starting at `base_line`, the typical shape of the code and data regions
/// the paper's argument is about.
pub fn consecutive_lines(
    geometry: &CacheGeometry,
    base_line: LineAddr,
    footprint_bytes: u64,
) -> Vec<LineAddr> {
    let count = footprint_bytes.div_ceil(geometry.line_size() as u64);
    (0..count).map(|i| base_line.offset(i)).collect()
}

/// Estimates, by Monte-Carlo over `seeds`, the probability that the layout
/// assigned to `lines` has at least one set holding more lines than it has
/// ways (the cache-risk-pattern probability the paper discusses).
pub fn overcommit_probability(
    policy: &mut dyn PlacementPolicy,
    lines: &[LineAddr],
    seeds: impl IntoIterator<Item = u64>,
) -> f64 {
    let mut runs = 0u64;
    let mut bad = 0u64;
    for seed in seeds {
        policy.reseed(seed);
        runs += 1;
        if LayoutCensus::survey(policy, lines).overcommitted_sets() > 0 {
            bad += 1;
        }
    }
    if runs == 0 {
        0.0
    } else {
        bad as f64 / runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::CacheGeometry;
    use crate::placement::PlacementKind;
    use crate::prng::SeedSequence;

    fn l1() -> CacheGeometry {
        CacheGeometry::leon3_l1()
    }

    fn lines_for(footprint: u64) -> Vec<LineAddr> {
        consecutive_lines(&l1(), LineAddr::new(0x20_0000), footprint)
    }

    #[test]
    fn consecutive_lines_counts() {
        let lines = consecutive_lines(&l1(), LineAddr::new(0), 8 * 1024);
        assert_eq!(lines.len(), 256);
        assert_eq!(lines[0], LineAddr::new(0));
        assert_eq!(lines[255], LineAddr::new(255));
        // Partial last line still allocates a line.
        assert_eq!(consecutive_lines(&l1(), LineAddr::new(0), 33).len(), 2);
    }

    #[test]
    fn modulo_census_of_fitting_footprint_is_flat() {
        let policy = PlacementKind::Modulo.build(l1()).unwrap();
        // Exactly one way's worth of consecutive lines: one line per set.
        let lines = lines_for(4 * 1024);
        let census = LayoutCensus::survey(policy.as_ref(), &lines);
        assert_eq!(census.lines(), 128);
        assert_eq!(census.max_lines_in_a_set(), 1);
        assert_eq!(census.overcommitted_sets(), 0);
        assert_eq!(census.empty_sets(), 0);
        assert_eq!(census.excess_lines(), 0);
        assert!((census.entropy_bits() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn rm_census_of_fitting_footprint_is_flat_for_any_seed() {
        let mut policy = PlacementKind::RandomModulo.build(l1()).unwrap();
        let lines = lines_for(16 * 1024); // the whole cache: 4 lines per set
        for seed in SeedSequence::new(5).take(25) {
            policy.reseed(seed);
            let census = LayoutCensus::survey(policy.as_ref(), &lines);
            assert_eq!(census.max_lines_in_a_set(), 4, "seed {seed}");
            assert_eq!(census.overcommitted_sets(), 0, "seed {seed}");
        }
    }

    #[test]
    fn hrp_census_of_fitting_footprint_is_sometimes_overcommitted() {
        // The motivation for RM: with hRP, even a footprint that fits in the
        // cache produces layouts with overcommitted sets with non-negligible
        // probability.
        let mut policy = PlacementKind::HashRandom.build(l1()).unwrap();
        let lines = lines_for(8 * 1024); // half the cache
        let p = overcommit_probability(policy.as_mut(), &lines, SeedSequence::new(3).take(400));
        assert!(p > 0.05, "overcommit probability {p} unexpectedly low");
    }

    #[test]
    fn rm_overcommit_probability_is_zero_while_fitting() {
        let mut policy = PlacementKind::RandomModulo.build(l1()).unwrap();
        let lines = lines_for(16 * 1024);
        let p = overcommit_probability(policy.as_mut(), &lines, SeedSequence::new(3).take(200));
        assert_eq!(p, 0.0);
    }

    #[test]
    fn intra_segment_conflicts_zero_for_modulo_and_rm() {
        let lines = lines_for(4 * 1024);
        for kind in [PlacementKind::Modulo, PlacementKind::RandomModulo] {
            let mut policy = kind.build(l1()).unwrap();
            for seed in SeedSequence::new(11).take(10) {
                policy.reseed(seed);
                assert_eq!(
                    intra_segment_conflicts(policy.as_ref(), &lines),
                    0,
                    "{kind} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn intra_segment_conflicts_occur_for_hrp() {
        let lines = lines_for(4 * 1024);
        let mut policy = PlacementKind::HashRandom.build(l1()).unwrap();
        let mut total = 0u64;
        for seed in SeedSequence::new(13).take(50) {
            policy.reseed(seed);
            total += intra_segment_conflicts(policy.as_ref(), &lines);
        }
        assert!(
            total > 0,
            "hRP never produced an intra-segment conflict in 50 seeds"
        );
    }

    #[test]
    fn entropy_of_degenerate_layout_is_zero() {
        let policy = PlacementKind::Modulo.build(l1()).unwrap();
        // All lines in the same set: stride of one way size.
        let lines: Vec<LineAddr> = (0..8u64).map(|i| LineAddr::new(i * 128)).collect();
        let census = LayoutCensus::survey(policy.as_ref(), &lines);
        assert_eq!(census.max_lines_in_a_set(), 8);
        assert_eq!(census.overcommitted_sets(), 1);
        assert_eq!(census.excess_lines(), 4);
        assert_eq!(census.entropy_bits(), 0.0);
        assert_eq!(census.empty_sets(), 127);
    }

    #[test]
    fn empty_survey_is_well_behaved() {
        let policy = PlacementKind::Modulo.build(l1()).unwrap();
        let census = LayoutCensus::survey(policy.as_ref(), &[]);
        assert_eq!(census.lines(), 0);
        assert_eq!(census.max_lines_in_a_set(), 0);
        assert_eq!(census.entropy_bits(), 0.0);
        assert_eq!(
            overcommit_probability(
                PlacementKind::Modulo.build(l1()).unwrap().as_mut(),
                &[],
                std::iter::empty(),
            ),
            0.0
        );
    }

    #[test]
    fn census_counts_slice_length_matches_sets() {
        let policy = PlacementKind::Xor.build(l1()).unwrap();
        let census = LayoutCensus::survey(policy.as_ref(), &lines_for(1024));
        assert_eq!(census.counts().len(), 128);
    }
}
