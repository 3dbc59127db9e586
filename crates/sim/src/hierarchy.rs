//! The two-level cache hierarchy of one core, stepped as lanes.
//!
//! Each core sees a private instruction L1, a private data L1 and an L2
//! partition in front of main memory, and every access is charged
//! according to where it is served:
//!
//! * L1 hit: `l1_hit` cycles,
//! * L1 miss / L2 hit: `l1_hit + l2_hit` cycles,
//! * L1 miss / L2 miss: `l1_hit + l2_hit + memory` cycles,
//! * store: `store` cycles (write-through stores are buffered), plus the
//!   write-through update of the L2 contents.
//!
//! A seed change re-randomises every cache's placement and flushes all
//! contents, as the real design does.  The access paths (`read_lean_wave`
//! and `store_lean_wave`) push one access through K placement lanes of
//! lane-banked caches; the solo `LaneHierarchy` here and the contended
//! shared-L2 hierarchy differ only in *which* L1 pair sits in front of the
//! L2, so one implementation keeps their latency and statistics semantics
//! identical by construction.  [`HierarchyStats`] is the per-run,
//! per-level statistics block both engines report.

use crate::config::{LatencyConfig, PlatformConfig};
use randmod_core::cache::{AccessKind, SetAssocCacheLanes};
use randmod_core::prng::SplitMix64;
use randmod_core::{AccessFlags, Address, CacheStats, ConfigError, LineAddr};
use std::fmt;

/// Per-level statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// Instruction L1 statistics.
    pub il1: CacheStats,
    /// Data L1 statistics.
    pub dl1: CacheStats,
    /// L2 partition statistics.
    pub l2: CacheStats,
    /// Number of accesses that went all the way to main memory.
    pub memory_accesses: u64,
}

impl HierarchyStats {
    /// Total L1 misses (instruction plus data).
    pub fn l1_misses(&self) -> u64 {
        self.il1.misses + self.dl1.misses
    }

    /// Element-wise sum of two statistics blocks.
    ///
    /// A contended campaign reports one `HierarchyStats` per task;
    /// merging them yields the aggregate view of the run (the per-task L2
    /// halves sum to the shared partition's total traffic).
    #[must_use]
    pub fn merged(self, other: HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            il1: self.il1.merged(other.il1),
            dl1: self.dl1.merged(other.dl1),
            l2: self.l2.merged(other.l2),
            memory_accesses: self.memory_accesses + other.memory_accesses,
        }
    }
}

/// Compact per-level counter block of one batched replay lane.
///
/// Rather than read-modify-write an eight-field [`CacheStats`] on every
/// access, a lane accumulates these few registers-worth of counters
/// (updated with branch-free adds from the [`AccessFlags`]) and flushes
/// them into a full [`HierarchyStats`] once per run.  Misses are derived
/// (`accesses - hits`), and per-run flush counts are always zero because
/// a run's statistics start after its reseed flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LevelCounters {
    accesses: u64,
    hits: u64,
    stores: u64,
    fills: u64,
    evictions: u64,
    writebacks: u64,
}

impl LevelCounters {
    /// Accumulates one access (branch-free).
    #[inline]
    pub(crate) fn record(&mut self, flags: AccessFlags, is_write: bool) {
        self.accesses += 1;
        self.stores += is_write as u64;
        self.hits += flags.is_hit() as u64;
        self.fills += flags.filled() as u64;
        self.evictions += flags.evicted() as u64;
        self.writebacks += flags.wrote_back() as u64;
    }

    /// Accumulates `n` read hits at once (the run-collapsed repeat accesses
    /// of the batched engine).
    #[inline]
    pub(crate) fn record_read_hits(&mut self, n: u64) {
        self.accesses += n;
        self.hits += n;
    }

    /// Expands the counters into the full per-cache statistics block.
    fn into_stats(self) -> CacheStats {
        CacheStats {
            accesses: self.accesses,
            hits: self.hits,
            misses: self.accesses - self.hits,
            fills: self.fills,
            evictions: self.evictions,
            writebacks: self.writebacks,
            stores: self.stores,
            flushes: 0,
        }
    }
}

/// Per-run counters of one batched replay lane (all three levels plus the
/// memory-access count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunCounters {
    pub(crate) il1: LevelCounters,
    pub(crate) dl1: LevelCounters,
    pub(crate) l2: LevelCounters,
    pub(crate) memory_accesses: u64,
}

impl RunCounters {
    /// Expands the counters into the run's [`HierarchyStats`].
    pub(crate) fn into_stats(self) -> HierarchyStats {
        HierarchyStats {
            il1: self.il1.into_stats(),
            dl1: self.dl1.into_stats(),
            l2: self.l2.into_stats(),
            memory_accesses: self.memory_accesses,
        }
    }
}

/// The L1→L2→memory read path of one hierarchy shape: one decoded read is
/// pushed through all active placement lanes of the fronting L1 in one
/// [`SetAssocCacheLanes::access_lean_lanes`] sweep, then the lanes that
/// missed fill from the L2 — as a second full wave when every lane missed
/// (the common cold-stream case), or lane by lane through the sparse
/// [`SetAssocCacheLanes::access_lean_lane`] path otherwise.  Each lane
/// books its level counters, memory accesses and latency, and the
/// `repeats` collapsed same-line re-reads (each a guaranteed L1 hit) are
/// folded in here so both engines book them in one place.
///
/// `flags`, `cycles` and `counters` are the caller's per-lane slices, all
/// of the same length (the active lane count of both cache banks).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn read_lean_wave(
    l1: &mut SetAssocCacheLanes,
    l2: &mut SetAssocCacheLanes,
    latencies: &LatencyConfig,
    addr: Address,
    l1_line: LineAddr,
    kind: AccessKind,
    repeats: u64,
    flags: &mut [AccessFlags],
    cycles: &mut [u64],
    counters: &mut [RunCounters],
) {
    l1.access_lean_lanes(l1_line, kind, flags);
    let l1_hit = latencies.l1_hit as u64;
    let repeat_cycles = repeats * l1_hit;
    let mut misses = 0usize;
    for (flags, counters) in flags.iter().zip(counters.iter_mut()) {
        let level = match kind {
            AccessKind::InstructionFetch => &mut counters.il1,
            _ => &mut counters.dl1,
        };
        level.record(*flags, false);
        if repeats != 0 {
            level.record_read_hits(repeats);
        }
        misses += flags.is_miss() as usize;
    }
    if misses == 0 {
        for cycles in cycles.iter_mut() {
            *cycles += l1_hit + repeat_cycles;
        }
        return;
    }
    let l2_line = LineAddr::new(addr.raw() >> l2.geometry().offset_bits());
    let l2_hit = l1_hit + latencies.l2_hit as u64;
    let memory = l2_hit + latencies.memory as u64;
    if misses == flags.len() {
        // Every lane missed: refill as one L2 wave (the L1 outcomes are no
        // longer needed, so the flags scratch is reused for the L2 sweep).
        l2.access_lean_lanes(l2_line, kind, flags);
        for lane in 0..flags.len() {
            let l2_flags = flags[lane];
            counters[lane].l2.record(l2_flags, false);
            counters[lane].memory_accesses += l2_flags.is_miss() as u64;
            cycles[lane] += if l2_flags.is_hit() { l2_hit } else { memory } + repeat_cycles;
        }
    } else {
        for lane in 0..flags.len() {
            if flags[lane].is_hit() {
                cycles[lane] += l1_hit + repeat_cycles;
            } else {
                let l2_flags = l2.access_lean_lane(lane, l2_line, kind);
                counters[lane].l2.record(l2_flags, false);
                counters[lane].memory_accesses += l2_flags.is_miss() as u64;
                cycles[lane] += if l2_flags.is_hit() { l2_hit } else { memory } + repeat_cycles;
            }
        }
    }
}

/// The store path of one hierarchy shape: the write-through DL1 is
/// updated without allocation, and every store is forwarded to the L2 —
/// one full-lane sweep each, with no miss filtering — where a missing
/// line is fetched from memory in the background.  A store costs the
/// store latency whatever the outcome.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn store_lean_wave(
    dl1: &mut SetAssocCacheLanes,
    l2: &mut SetAssocCacheLanes,
    latencies: &LatencyConfig,
    addr: Address,
    dl1_line: LineAddr,
    flags: &mut [AccessFlags],
    cycles: &mut [u64],
    counters: &mut [RunCounters],
) {
    dl1.access_lean_lanes(dl1_line, AccessKind::Store, flags);
    for (flags, counters) in flags.iter().zip(counters.iter_mut()) {
        counters.dl1.record(*flags, true);
    }
    let l2_line = LineAddr::new(addr.raw() >> l2.geometry().offset_bits());
    l2.access_lean_lanes(l2_line, AccessKind::Store, flags);
    let store = latencies.store as u64;
    for lane in 0..flags.len() {
        let l2_flags = flags[lane];
        counters[lane].l2.record(l2_flags, true);
        counters[lane].memory_accesses += l2_flags.is_miss() as u64;
        cycles[lane] += store;
    }
}

/// The lane-banked solo hierarchy: one IL1/DL1/L2 triple of
/// [`SetAssocCacheLanes`] banks stepping up to `K` placement seeds per
/// decoded event — the wavefront engine behind
/// [`crate::batch::BatchCore`].  Lanes never interact: lane `i` of a wave
/// holds the hierarchy's state under placement seed `seeds[i]`.
#[derive(Debug, Clone)]
pub(crate) struct LaneHierarchy {
    latencies: LatencyConfig,
    il1: SetAssocCacheLanes,
    dl1: SetAssocCacheLanes,
    l2: SetAssocCacheLanes,
    /// Per-wave outcome scratch, truncated to the active lane count.
    flags: Vec<AccessFlags>,
    active: usize,
}

impl LaneHierarchy {
    /// Builds a lane-banked hierarchy with capacity for `lanes` placement
    /// seeds (clamped to at least one) on the given platform.
    pub(crate) fn new(config: &PlatformConfig, lanes: usize) -> Result<Self, ConfigError> {
        config.validate()?;
        let lanes = lanes.max(1);
        let build = |c: &crate::config::CacheConfig| -> Result<SetAssocCacheLanes, ConfigError> {
            SetAssocCacheLanes::with_kinds(c.geometry, c.placement, c.replacement, c.write_policy, lanes)
        };
        Ok(LaneHierarchy {
            latencies: config.latencies,
            il1: build(&config.il1)?,
            dl1: build(&config.dl1)?,
            l2: build(&config.l2)?,
            flags: vec![AccessFlags::default(); lanes],
            active: 0,
        })
    }

    /// Lane capacity K.
    pub(crate) fn lane_count(&self) -> usize {
        self.flags.len()
    }

    /// Reseeds lanes `0..seeds.len()` and flushes every lane's contents.
    /// Each lane's IL1, DL1 and L2 seeds are the first three draws of
    /// `SplitMix64(seed)`, so the three layouts are not correlated with
    /// one another.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is longer than the lane capacity.
    pub(crate) fn reseed_wave(&mut self, seeds: &[u64]) {
        self.active = seeds.len();
        let mut il1 = Vec::with_capacity(seeds.len());
        let mut dl1 = Vec::with_capacity(seeds.len());
        let mut l2 = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let mut sm = SplitMix64::new(seed);
            il1.push(sm.next_u64());
            dl1.push(sm.next_u64());
            l2.push(sm.next_u64());
        }
        self.il1.reseed_wave(&il1);
        self.dl1.reseed_wave(&dl1);
        self.l2.reseed_wave(&l2);
    }

    /// One instruction fetch (plus `repeats` collapsed same-line repeat
    /// fetches) across all active lanes; see [`read_lean_wave`].
    #[inline]
    pub(crate) fn fetch_wave(
        &mut self,
        addr: Address,
        line: LineAddr,
        repeats: u64,
        cycles: &mut [u64],
        counters: &mut [RunCounters],
    ) {
        read_lean_wave(
            &mut self.il1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            AccessKind::InstructionFetch,
            repeats,
            &mut self.flags[..self.active],
            cycles,
            counters,
        );
    }

    /// One data load (plus `repeats` collapsed same-line repeat loads)
    /// across all active lanes; see [`read_lean_wave`].
    #[inline]
    pub(crate) fn load_wave(
        &mut self,
        addr: Address,
        line: LineAddr,
        repeats: u64,
        cycles: &mut [u64],
        counters: &mut [RunCounters],
    ) {
        read_lean_wave(
            &mut self.dl1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            AccessKind::Load,
            repeats,
            &mut self.flags[..self.active],
            cycles,
            counters,
        );
    }

    /// One data store across all active lanes; see [`store_lean_wave`].
    #[inline]
    pub(crate) fn store_wave(
        &mut self,
        addr: Address,
        line: LineAddr,
        cycles: &mut [u64],
        counters: &mut [RunCounters],
    ) {
        store_lean_wave(
            &mut self.dl1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            &mut self.flags[..self.active],
            cycles,
            counters,
        );
    }
}

impl fmt::Display for HierarchyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IL1 {:.2}% miss, DL1 {:.2}% miss, L2 {:.2}% miss, {} memory accesses",
            self.il1.miss_ratio() * 100.0,
            self.dl1.miss_ratio() * 100.0,
            self.l2.miss_ratio() * 100.0,
            self.memory_accesses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchCore;
    use crate::trace::MemEvent;
    use randmod_core::{Address, PlacementKind};

    fn config(l1_placement: PlacementKind) -> PlatformConfig {
        PlatformConfig::leon3().with_l1_placement(l1_placement)
    }

    /// One run of `events` on a fresh one-lane core under seed 1.
    fn run(config: &PlatformConfig, events: &[MemEvent]) -> (u64, HierarchyStats) {
        let mut core = BatchCore::new(config, 1).unwrap();
        core.execute_batch(events.iter().copied(), &[1])[0]
    }

    /// The latency charged to the last of `events` (runs are cold, so
    /// this is the cost of that access after all the earlier ones).
    fn last_latency(config: &PlatformConfig, events: &[MemEvent]) -> u64 {
        run(config, events).0 - run(config, &events[..events.len() - 1]).0
    }

    #[test]
    fn load_latency_depends_on_where_it_is_served() {
        let config = config(PlacementKind::Modulo);
        let lat = config.latencies;
        let load = MemEvent::Load(Address::new(0x2_0000));
        // Cold: miss in L1 and L2, goes to memory.
        let cold = last_latency(&config, &[load]);
        assert_eq!(cold, (lat.l1_hit + lat.l2_hit + lat.memory) as u64);
        // Warm: hit in L1.
        let warm = last_latency(&config, &[load, load]);
        assert_eq!(warm, lat.l1_hit as u64);
        assert_eq!(run(&config, &[load, load]).1.memory_accesses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction_costs_l2_latency() {
        let config = config(PlacementKind::Modulo);
        let lat = config.latencies;
        let target = MemEvent::Load(Address::new(0));
        // Evict `target` from the 16KB L1 by streaming 32KB of other data,
        // which still fits in the 128KB L2.
        let mut events = vec![target];
        events.extend((1..1024u64).map(|i| MemEvent::Load(Address::new(i * 32))));
        events.push(target);
        assert_eq!(
            last_latency(&config, &events),
            (lat.l1_hit + lat.l2_hit) as u64
        );
    }

    #[test]
    fn instruction_fetches_use_the_instruction_cache() {
        let fetch = MemEvent::InstrFetch(Address::new(0x100));
        let (_, stats) = run(&config(PlacementKind::Modulo), &[fetch, fetch]);
        assert_eq!(stats.il1.accesses, 2);
        assert_eq!(stats.il1.hits, 1);
        assert_eq!(stats.dl1.accesses, 0);
    }

    #[test]
    fn stores_cost_the_store_latency_and_do_not_allocate_in_l1() {
        let config = config(PlacementKind::Modulo);
        let lat = config.latencies;
        let addr = Address::new(0x5000);
        assert_eq!(
            last_latency(&config, &[MemEvent::Store(addr)]),
            lat.store as u64
        );
        // The following load must still miss in the DL1 (no write-allocate).
        let load = last_latency(&config, &[MemEvent::Store(addr), MemEvent::Load(addr)]);
        assert!(load > lat.l1_hit as u64);
    }

    #[test]
    fn compute_events_cost_their_cycles() {
        let (cycles, stats) = run(&config(PlacementKind::Modulo), &[MemEvent::Compute(17)]);
        assert_eq!(cycles, 17);
        assert_eq!(stats.il1.accesses, 0);
    }

    #[test]
    fn reseed_flushes_and_changes_layout() {
        // A reused core reseeds (and flushes) every lane before each run:
        // a line resident at the end of one run misses cold in the next.
        let config = config(PlacementKind::RandomModulo);
        let lat = config.latencies;
        let load = MemEvent::Load(Address::new(0x1234_0000));
        let mut core = BatchCore::new(&config, 1).unwrap();
        let (warm, _) = core.execute_batch([load, load], &[5])[0];
        assert_eq!(warm, (2 * lat.l1_hit + lat.l2_hit + lat.memory) as u64);
        let (cold, stats) = core.execute_batch([load], &[77])[0];
        assert_eq!(cold, (lat.l1_hit + lat.l2_hit + lat.memory) as u64);
        assert_eq!((stats.dl1.misses, stats.l2.misses), (1, 1));
    }

    #[test]
    fn reset_stats_clears_counts() {
        // Every run's statistics start from zero, whatever ran before.
        let mut core = BatchCore::new(&config(PlacementKind::Modulo), 1).unwrap();
        core.execute_batch([MemEvent::Load(Address::new(0))], &[1]);
        let idle = core.execute_batch(std::iter::empty(), &[1]);
        assert_eq!(idle[0], (0, HierarchyStats::default()));
    }

    #[test]
    fn same_seed_reproduces_identical_behaviour() {
        let config = config(PlacementKind::RandomModulo);
        let events: Vec<MemEvent> = (0..5000u64)
            .map(|i| MemEvent::Load(Address::new((i * 1037) % 65536)))
            .collect();
        let mut core = BatchCore::new(&config, 1).unwrap();
        let first = core.execute_batch(events.iter().copied(), &[123]);
        assert_eq!(core.execute_batch(events.iter().copied(), &[123]), first);
        assert!(first[0].0 > 0);
    }

    #[test]
    fn stats_display_mentions_each_level() {
        let (_, stats) = run(
            &config(PlacementKind::Modulo),
            &[MemEvent::Load(Address::new(0))],
        );
        let text = stats.to_string();
        assert!(text.contains("IL1"));
        assert!(text.contains("DL1"));
        assert!(text.contains("L2"));
    }

    #[test]
    fn l1_misses_helper_sums_both_l1s() {
        let events = [
            MemEvent::Load(Address::new(0x1000)),
            MemEvent::InstrFetch(Address::new(0x2000)),
        ];
        assert_eq!(
            run(&config(PlacementKind::Modulo), &events).1.l1_misses(),
            2
        );
    }
}
