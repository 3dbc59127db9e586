//! Cache replacement policies.
//!
//! MBPTA-compliant cache designs combine random *placement* with random
//! *replacement* (the LEON-family processors the paper targets already ship
//! random-replacement caches).  This module provides the per-set replacement
//! state for:
//!
//! * [`ReplacementKind::Random`] — evict a uniformly random way (the
//!   MBPTA-compliant choice used throughout the paper's evaluation),
//! * [`ReplacementKind::Lru`] — least-recently-used, the conventional
//!   deterministic baseline,
//! * [`ReplacementKind::RoundRobin`] — a FIFO-like pointer per set, common
//!   in embedded cores (e.g. ARM Cortex-R configurations).

use std::fmt;
use std::str::FromStr;

use crate::error::ConfigError;

/// Identifier of a replacement policy.
///
/// ```
/// use randmod_core::ReplacementKind;
///
/// assert!(ReplacementKind::Random.is_randomized());
/// assert!(!ReplacementKind::Lru.is_randomized());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReplacementKind {
    /// Evict a uniformly random way on a miss with a full set.
    Random,
    /// Evict the least recently used way.
    Lru,
    /// Evict ways in round-robin order (per-set pointer).
    RoundRobin,
}

impl ReplacementKind {
    /// All replacement kinds.
    pub const ALL: [ReplacementKind; 3] = [
        ReplacementKind::Random,
        ReplacementKind::Lru,
        ReplacementKind::RoundRobin,
    ];

    /// Whether victim selection consumes random numbers.
    pub const fn is_randomized(self) -> bool {
        matches!(self, ReplacementKind::Random)
    }
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ReplacementKind::Random => "random",
            ReplacementKind::Lru => "lru",
            ReplacementKind::RoundRobin => "round-robin",
        };
        f.pad(name)
    }
}

impl FromStr for ReplacementKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "random" | "rand" => Ok(ReplacementKind::Random),
            "lru" => Ok(ReplacementKind::Lru),
            "round-robin" | "roundrobin" | "fifo" => Ok(ReplacementKind::RoundRobin),
            other => Err(ConfigError::Inconsistent {
                reason: format!("unknown replacement policy '{other}'"),
            }),
        }
    }
}

/// Whole-cache replacement bookkeeping in one flat allocation.
///
/// The state of *every* set is stored contiguously, indexed by
/// `set * ways + way` (LRU) or `set` (round-robin), so a whole cache's
/// replacement metadata is one `Vec<u32>` that stays resident in a few
/// cache lines instead of one heap allocation per set.  The state is
/// deliberately small (a few bytes per set) to mirror the hardware cost of
/// the policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplacementState {
    kind: ReplacementKind,
    sets: u32,
    ways: u32,
    /// LRU: `state[set * ways + way]` is the recency rank of that way
    /// (0 = most recent).  Round-robin: `state[set]` is the next victim.
    /// Random: empty.
    state: Vec<u32>,
}

impl ReplacementState {
    /// Creates flat replacement state for a cache of `sets` x `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(kind: ReplacementKind, sets: u32, ways: u32) -> Self {
        assert!(sets > 0, "a cache needs at least one set");
        assert!(ways > 0, "a set needs at least one way");
        let state = match kind {
            ReplacementKind::Lru => (0..sets).flat_map(|_| 0..ways).collect(),
            ReplacementKind::RoundRobin => vec![0; sets as usize],
            ReplacementKind::Random => Vec::new(),
        };
        ReplacementState {
            kind,
            sets,
            ways,
            state,
        }
    }

    /// The policy this state implements.
    pub fn kind(&self) -> ReplacementKind {
        self.kind
    }

    /// Notifies the policy that `way` of `set` was accessed (hit or fill).
    ///
    /// # Panics
    ///
    /// Under LRU, panics if `set` or `way` is out of range (debug builds
    /// check both on entry under every policy).
    // randmod: allow(P1, set < sets and way < ways is the documented contract, debug-asserted on entry; LRU state holds sets * ways ranks, so base + ways never overruns it and way indexes the ways-long rank slice; the lane cache passes a set from its placement bank, below sets by geometry, and a way from its own probe or victim pick, below ways)
    #[inline]
    pub fn touch(&mut self, set: u32, way: u32) {
        debug_assert!(set < self.sets && way < self.ways);
        if self.kind == ReplacementKind::Lru {
            let base = (set * self.ways) as usize;
            let ranks = &mut self.state[base..base + self.ways as usize];
            let old_rank = ranks[way as usize];
            for rank in ranks.iter_mut() {
                if *rank < old_rank {
                    *rank += 1;
                }
            }
            ranks[way as usize] = 0;
        }
    }

    /// Selects the way of `set` to evict when the set is full, drawing any
    /// random word from the caller-supplied `draw` closure (called with the
    /// way count, at most once, and only under [`ReplacementKind::Random`]).
    ///
    /// The lane bank keeps one PRNG *bank* for all seed lanes, so a lane's
    /// draw is whatever that bank hands out; the closure keeps the PRNG
    /// out of this type while every policy detail — including LRU's choice
    /// among equal ranks — stays here.
    ///
    /// # Panics
    ///
    /// Under LRU and round-robin, panics if `set` is out of range (debug
    /// builds check it on entry under every policy).
    // randmod: allow(P1, set < sets is the documented contract, debug-asserted on entry; LRU state holds sets * ways ranks and round-robin state holds sets pointers, so both slices are in bounds)
    #[inline]
    pub fn victim_with(&mut self, set: u32, draw: impl FnOnce(u32) -> u32) -> u32 {
        debug_assert!(set < self.sets);
        match self.kind {
            ReplacementKind::Random => draw(self.ways),
            ReplacementKind::Lru => {
                let base = (set * self.ways) as usize;
                let ranks = &self.state[base..base + self.ways as usize];
                // `new` asserts ways > 0, so the rank slice is never empty
                // and the fallback way is never taken.
                ranks
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &rank)| rank)
                    .map_or(0, |(way, _)| way as u32)
            }
            ReplacementKind::RoundRobin => {
                let pointer = &mut self.state[set as usize];
                let way = *pointer;
                *pointer = (way + 1) % self.ways;
                way
            }
        }
    }

    /// Resets every set's state (used when the cache is flushed on a seed
    /// change).
    pub fn reset(&mut self) {
        match self.kind {
            ReplacementKind::Lru => {
                let ways = self.ways;
                for (i, rank) in self.state.iter_mut().enumerate() {
                    *rank = i as u32 % ways;
                }
            }
            ReplacementKind::RoundRobin => self.state.fill(0),
            ReplacementKind::Random => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::CombinedLfsr;

    /// The draw closure for deterministic policies, which never draw.
    fn no_draw(_ways: u32) -> u32 {
        unreachable!("deterministic replacement never draws")
    }

    /// Replacement state for a single set of `ways` ways.
    fn one_set(kind: ReplacementKind, ways: u32) -> ReplacementState {
        ReplacementState::new(kind, 1, ways)
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in ReplacementKind::ALL {
            let parsed: ReplacementKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("mru".parse::<ReplacementKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        one_set(ReplacementKind::Lru, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut set = one_set(ReplacementKind::Lru, 4);
        // Touch ways in order 0, 1, 2, 3: way 0 is now the LRU.
        for w in 0..4 {
            set.touch(0, w);
        }
        assert_eq!(set.victim_with(0, no_draw), 0);
        // Re-touch way 0; now way 1 is the LRU.
        set.touch(0, 0);
        assert_eq!(set.victim_with(0, no_draw), 1);
    }

    #[test]
    fn lru_reset_restores_initial_order() {
        let mut set = one_set(ReplacementKind::Lru, 4);
        set.touch(0, 3);
        set.touch(0, 0);
        set.reset();
        // After reset, the highest-numbered way is the least recent again.
        assert_eq!(set.victim_with(0, no_draw), 3);
    }

    #[test]
    fn round_robin_cycles_through_ways() {
        let mut set = one_set(ReplacementKind::RoundRobin, 4);
        let victims: Vec<u32> = (0..8).map(|_| set.victim_with(0, no_draw)).collect();
        assert_eq!(victims, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        set.reset();
        assert_eq!(set.victim_with(0, no_draw), 0);
    }

    #[test]
    fn random_victims_cover_all_ways() {
        let mut set = one_set(ReplacementKind::Random, 4);
        let mut rng = CombinedLfsr::new(0xFEED);
        let mut counts = [0u32; 4];
        let draws = 40_000;
        for _ in 0..draws {
            counts[set.victim_with(0, |ways| rng.next_below(ways)) as usize] += 1;
        }
        let expected = draws as f64 / 4.0;
        for (w, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.05,
                "way {w} selected {c} times"
            );
        }
    }

    #[test]
    fn random_touch_is_a_no_op() {
        let mut set = one_set(ReplacementKind::Random, 2);
        let snapshot = set.clone();
        set.touch(0, 1);
        assert_eq!(set, snapshot);
    }

    #[test]
    fn single_way_set_always_evicts_way_zero() {
        let mut rng = CombinedLfsr::new(2);
        for kind in ReplacementKind::ALL {
            let mut set = one_set(kind, 1);
            for _ in 0..10 {
                assert_eq!(set.victim_with(0, |ways| rng.next_below(ways)), 0);
            }
        }
    }

    #[test]
    fn lru_two_way_alternation() {
        let mut set = one_set(ReplacementKind::Lru, 2);
        set.touch(0, 0);
        assert_eq!(set.victim_with(0, no_draw), 1);
        set.touch(0, 1);
        assert_eq!(set.victim_with(0, no_draw), 0);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn flat_state_zero_sets_panics() {
        ReplacementState::new(ReplacementKind::Lru, 0, 2);
    }

    #[test]
    fn flat_state_matches_per_set_state() {
        // The flat layout must behave exactly like one independent
        // single-set state per set — no set's touches or victim picks leak
        // into another's — for every policy, including after resets.
        let sets = 4u32;
        let ways = 4u32;
        for kind in ReplacementKind::ALL {
            let mut flat = ReplacementState::new(kind, sets, ways);
            let mut nested: Vec<ReplacementState> =
                (0..sets).map(|_| one_set(kind, ways)).collect();
            assert_eq!(flat.kind(), kind);
            // Two independent RNGs seeded identically so Random replacement
            // draws the same victims on both sides.
            let mut rng_a = CombinedLfsr::new(77);
            let mut rng_b = CombinedLfsr::new(77);
            let mut driver = CombinedLfsr::new(5);
            for step in 0..500 {
                let set = driver.next_below(sets);
                let way = driver.next_below(ways);
                flat.touch(set, way);
                nested[set as usize].touch(0, way);
                assert_eq!(
                    flat.victim_with(set, |w| rng_a.next_below(w)),
                    nested[set as usize].victim_with(0, |w| rng_b.next_below(w)),
                    "diverged at step {step} (kind {kind})"
                );
                if step % 97 == 0 {
                    flat.reset();
                    for set in nested.iter_mut() {
                        set.reset();
                    }
                }
            }
        }
    }
}
