//! The two-level cache hierarchy, stepped as lanes.
//!
//! Each task runs on its own core with a private instruction L1 and a
//! private data L1, in front of an L2 partition and main memory, and
//! every access is charged according to where it is served:
//!
//! * L1 hit: `l1_hit` cycles,
//! * L1 miss / L2 hit: `l1_hit + l2_hit` cycles,
//! * L1 miss / L2 miss: `l1_hit + l2_hit + memory` cycles,
//! * store: `store` cycles (write-through stores are buffered), plus the
//!   write-through update of the L2 contents.
//!
//! A seed change re-randomises every cache's placement and flushes all
//! contents, as the real design does.  One `LaneHierarchy` holds the
//! whole platform for K placement lanes: an IL1/DL1 pair of lane-banked
//! caches per task in front of one lane-banked L2 — the paper's private
//! partition at one task, a shared L2 beyond.  Its access paths push one
//! access of one task through all K lanes and book it against that
//! task's per-lane cycles and counters.  [`HierarchyStats`] is the
//! per-run, per-level statistics block the engine reports per task.

use crate::config::{CacheConfig, LatencyConfig, PlatformConfig};
use crate::lanes::LaneStepper;
use randmod_core::cache::{AccessKind, SetAssocCacheLanes};
use randmod_core::prng::SplitMix64;
use randmod_core::{AccessFlags, Address, CacheStats, ConfigError, LineAddr};
use std::fmt;
use std::ops::Range;

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

/// The L1→L2→memory read path: one decoded read is pushed through all
/// active placement lanes of the fronting L1 in one
/// [`SetAssocCacheLanes::access_lean_lanes`] sweep, then the lanes that
/// missed fill from the L2 — as a second full wave when every lane missed
/// (the common cold-stream case), or lane by lane through the sparse
/// [`SetAssocCacheLanes::access_lean_lane`] path otherwise.  Each lane
/// books its level counters, memory accesses and latency, and the
/// `repeats` collapsed same-line re-reads (each a guaranteed L1 hit) are
/// folded in here.
///
/// `flags`, `cycles` and `counters` are per-lane slices of the same
/// length (the active lane count).  Each bank and slice is a `&mut`
/// parameter of its own, rather than a field reached through the
/// hierarchy, so the compiler knows that none of them alias.
#[allow(clippy::too_many_arguments)]
#[inline]
fn read_lean_wave(
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

/// The store path: the write-through DL1 is updated without allocation,
/// and every store is forwarded to the L2 — one full-lane sweep each, with
/// no miss filtering — where a missing line is fetched from memory in the
/// background.  A store costs the store latency whatever the outcome.
/// The slices are as for [`read_lean_wave`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_lean_wave(
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

/// One task's private lane-banked first-level caches.
#[derive(Debug, Clone)]
struct TaskL1Lanes {
    il1: SetAssocCacheLanes,
    dl1: SetAssocCacheLanes,
}

/// The lane-banked hierarchy: per-task IL1/DL1 [`SetAssocCacheLanes`]
/// pairs in front of one lane-banked L2, stepping up to `K` placement
/// seeds per collapsed operation — the wavefront engine behind
/// [`crate::batch::BatchCore`].  It also holds every task's per-lane
/// cycle counters and statistics blocks, so it is the engine's
/// [`LaneStepper`].  Lanes never interact: lane `i` holds the whole
/// platform's state under placement seed `seeds[i]`.
#[derive(Debug, Clone)]
pub(crate) struct LaneHierarchy {
    latencies: LatencyConfig,
    /// Per-task private L1 pairs, task 0 first.
    tasks: Vec<TaskL1Lanes>,
    /// The L2 behind every task's L1 pair.
    l2: SetAssocCacheLanes,
    /// Per-wave outcome scratch, truncated to the active lane count.
    flags: Vec<AccessFlags>,
    /// Per-task, per-lane cycle counters and statistics blocks, laid out
    /// task-major: slot `task * lane_count + lane`.
    cycles: Vec<u64>,
    counters: Vec<RunCounters>,
    active: usize,
}

impl LaneHierarchy {
    /// Builds a lane-banked hierarchy for `tasks` tasks with capacity for
    /// `lanes` placement seeds (both clamped to at least one) on the given
    /// platform.
    pub(crate) fn new(
        config: &PlatformConfig,
        tasks: usize,
        lanes: usize,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let lanes = lanes.max(1);
        let build = |c: &CacheConfig| -> Result<SetAssocCacheLanes, ConfigError> {
            SetAssocCacheLanes::with_kinds(
                c.geometry,
                c.placement,
                c.replacement,
                c.write_policy,
                lanes,
            )
        };
        let tasks = (0..tasks.max(1))
            .map(|_| {
                Ok(TaskL1Lanes {
                    il1: build(&config.il1)?,
                    dl1: build(&config.dl1)?,
                })
            })
            .collect::<Result<Vec<_>, ConfigError>>()?;
        let slots = tasks.len() * lanes;
        Ok(LaneHierarchy {
            latencies: config.latencies,
            tasks,
            l2: build(&config.l2)?,
            flags: vec![AccessFlags::default(); lanes],
            cycles: vec![0; slots],
            counters: vec![RunCounters::default(); slots],
            active: 0,
        })
    }

    /// Number of tasks.
    pub(crate) fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Lane capacity K.
    pub(crate) fn lane_count(&self) -> usize {
        self.flags.len()
    }

    /// Reseeds lanes `0..seeds.len()`, flushes every lane's contents and
    /// zeroes every task's cycles and counters.  Per lane, the per-cache
    /// seeds are drawn from `SplitMix64(seed)` in the order task 0's IL1,
    /// task 0's DL1, the L2, then the remaining tasks' L1 pairs — so task
    /// 0's three layouts are the same for every task count, which is what
    /// makes a task next to idle tasks bit-identical to the task alone.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is longer than the lane capacity.
    pub(crate) fn reseed_wave(&mut self, seeds: &[u64]) {
        assert!(
            seeds.len() <= self.lane_count(),
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lane_count()
        );
        self.active = seeds.len();
        self.cycles.fill(0);
        self.counters.fill(RunCounters::default());
        let mut streams: Vec<SplitMix64> = seeds.iter().map(|&s| SplitMix64::new(s)).collect();
        let mut draw = || -> Vec<u64> { streams.iter_mut().map(SplitMix64::next_u64).collect() };
        for (index, task) in self.tasks.iter_mut().enumerate() {
            task.il1.reseed_wave(&draw());
            task.dl1.reseed_wave(&draw());
            if index == 0 {
                self.l2.reseed_wave(&draw());
            }
        }
    }

    /// `task`'s cycles and statistics in `lane` since the last reseed.
    pub(crate) fn outcome(&self, task: usize, lane: usize) -> (u64, HierarchyStats) {
        let slot = task * self.lane_count() + lane;
        (self.cycles[slot], self.counters[slot].into_stats())
    }

    /// The counter slots of `task`'s active lanes.
    #[inline]
    fn slots(&self, task: usize) -> Range<usize> {
        let first = task * self.lane_count();
        first..first + self.active
    }

    /// One read of `task` — an instruction fetch through its IL1 or a data
    /// load through its DL1, plus `repeats` collapsed same-line re-reads —
    /// across all active lanes; see [`read_lean_wave`].
    #[inline]
    fn read_wave(
        &mut self,
        task: usize,
        kind: AccessKind,
        addr: Address,
        line: LineAddr,
        repeats: u64,
    ) {
        let slots = self.slots(task);
        let l1s = &mut self.tasks[task];
        let l1 = match kind {
            AccessKind::InstructionFetch => &mut l1s.il1,
            _ => &mut l1s.dl1,
        };
        read_lean_wave(
            l1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            kind,
            repeats,
            &mut self.flags[..self.active],
            &mut self.cycles[slots.clone()],
            &mut self.counters[slots],
        );
    }
}

/// The engine's lane fan-out: every collapsed operation becomes one wave
/// through the issuing task's L1 pair (and the L2 behind it), booked
/// against that task's per-lane slots.  Collapsed repeats — each a
/// guaranteed private-L1 hit (another task can never evict the line a
/// task's repeat read is about to hit) — are booked inside the read wave.
impl LaneStepper for LaneHierarchy {
    #[inline]
    fn fetch(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64) {
        self.read_wave(task, AccessKind::InstructionFetch, addr, line, repeats);
    }

    #[inline]
    fn load(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64) {
        self.read_wave(task, AccessKind::Load, addr, line, repeats);
    }

    #[inline]
    fn store(&mut self, task: usize, addr: Address, line: LineAddr) {
        let slots = self.slots(task);
        store_lean_wave(
            &mut self.tasks[task].dl1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            &mut self.flags[..self.active],
            &mut self.cycles[slots.clone()],
            &mut self.counters[slots],
        );
    }

    #[inline]
    fn compute(&mut self, task: usize, cycles: u64) {
        let slots = self.slots(task);
        for lane in &mut self.cycles[slots] {
            *lane += cycles;
        }
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
        let mut core = BatchCore::new(config, 1, 1).unwrap();
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
        let mut core = BatchCore::new(&config, 1, 1).unwrap();
        let (warm, _) = core.execute_batch([load, load], &[5])[0];
        assert_eq!(warm, (2 * lat.l1_hit + lat.l2_hit + lat.memory) as u64);
        let (cold, stats) = core.execute_batch([load], &[77])[0];
        assert_eq!(cold, (lat.l1_hit + lat.l2_hit + lat.memory) as u64);
        assert_eq!((stats.dl1.misses, stats.l2.misses), (1, 1));
    }

    #[test]
    fn reset_stats_clears_counts() {
        // Every run's statistics start from zero, whatever ran before.
        let mut core = BatchCore::new(&config(PlacementKind::Modulo), 1, 1).unwrap();
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
        let mut core = BatchCore::new(&config, 1, 1).unwrap();
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
