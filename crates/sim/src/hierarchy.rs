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
//! access of one task through all K lanes, each cache returning its
//! outcome as lane masks, and book it in two places: what every active
//! lane shares — the L1 accesses (collapsed repeats included), the
//! stores and the L1-hit, store and compute cycles — once per task, and
//! per (task, lane) only the miss side, walking the set bits of the miss
//! masks: misses, fills, evictions and write-backs per level, L2 reads
//! and the latency a miss adds.  An all-hit wave thus books nothing per
//! lane.  [`HierarchyStats`] is the per-run, per-level statistics block
//! the engine reports per task, assembled from the two with hits =
//! accesses − misses.

use crate::config::{CacheConfig, LatencyConfig, PlatformConfig};
use crate::lanes::LaneStepper;
use randmod_core::cache::{AccessKind, SetAssocCacheLanes};
use randmod_core::prng::SplitMix64;
use randmod_core::{AccessMasks, Address, CacheStats, ConfigError, LineAddr};
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

/// Miss-side counts of one cache level in one (task, lane): the outcomes
/// that differ between lanes.  The level's accesses and stores are the
/// same in every lane and are booked once per task, in [`TaskTotals`].
#[derive(Debug, Clone, Copy, Default)]
struct MissCounts {
    misses: u64,
    fills: u64,
    evictions: u64,
    writebacks: u64,
}

impl MissCounts {
    /// Books one missed access: lane `lane`'s bits of `out`.
    #[inline]
    fn book(&mut self, out: AccessMasks, lane: u32) {
        self.misses += 1;
        self.fills += out.fills >> lane & 1;
        self.evictions += out.evictions >> lane & 1;
        self.writebacks += out.writebacks >> lane & 1;
    }

    /// The level's statistics block, given the accesses and stores every
    /// lane shares.  A run's flush count is zero: its statistics start
    /// after its reseed flush.
    fn into_stats(self, accesses: u64, stores: u64) -> CacheStats {
        CacheStats {
            accesses,
            hits: accesses - self.misses,
            misses: self.misses,
            fills: self.fills,
            evictions: self.evictions,
            writebacks: self.writebacks,
            stores,
            flushes: 0,
        }
    }
}

/// What one task's operations book in every active lane alike, once per
/// wave: every access reaches its L1 in every lane, hit or miss, and
/// every store the L2.
#[derive(Debug, Clone, Copy, Default)]
struct TaskTotals {
    /// IL1 accesses, collapsed repeats included.
    il1_accesses: u64,
    /// DL1 accesses: loads with their collapsed repeats, and stores.
    dl1_accesses: u64,
    /// Stores, each one DL1 and one L2 access.
    stores: u64,
    /// The cycles every lane pays: the L1-hit latency of each read, the
    /// store latency and compute.
    cycles: u64,
}

/// The miss-side counts of one (task, lane).
#[derive(Debug, Clone, Copy, Default)]
struct LaneMisses {
    il1: MissCounts,
    dl1: MissCounts,
    l2: MissCounts,
    /// L1 read misses, each one L2 read.
    l2_reads: u64,
    /// The L2 and memory latency the lane's misses add.
    cycles: u64,
}

/// Runs `book` on the counts of each lane set in `mask`, with the lane's
/// bit position.
#[inline]
fn for_each_lane(lanes: &mut [LaneMisses], mask: u64, mut book: impl FnMut(&mut LaneMisses, u32)) {
    let mut bits = mask;
    while bits != 0 {
        let lane = bits.trailing_zeros();
        bits &= bits - 1;
        if let Some(counts) = lanes.get_mut(lane as usize) {
            book(counts, lane);
        }
    }
}

/// The L1→L2→memory read path: one decoded read is applied to every
/// active lane of the fronting L1 with one [`SetAssocCacheLanes::access`],
/// then the lanes that missed fill from the L2 with one more `access` over
/// the L1-miss mask.  The read and its `repeats` collapsed same-line
/// re-reads (each a guaranteed L1 hit) cost every lane the same accesses
/// and L1-hit cycles, booked once in `totals`; each lane that missed books
/// its misses and the L2 and memory latency they add in `lanes`.
///
/// `active` is the mask of the active lanes and `lanes` the task's
/// per-lane counts.
/// Each bank is a `&mut` parameter of its own, rather than a field reached
/// through the hierarchy, so the compiler knows that they do not alias.
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
    active: u64,
    totals: &mut TaskTotals,
    lanes: &mut [LaneMisses],
) {
    // The bank clips the mask to its active lanes: all-ones selects them all.
    let out = l1.access(l1_line, kind, u64::MAX);
    let reads = 1 + repeats;
    match kind {
        AccessKind::InstructionFetch => totals.il1_accesses += reads,
        _ => totals.dl1_accesses += reads,
    }
    totals.cycles += reads * latencies.l1_hit as u64;
    let misses = active & !out.hits;
    if misses == 0 {
        return;
    }
    let l2_hit = latencies.l2_hit as u64;
    for_each_lane(lanes, misses, |counts, lane| {
        match kind {
            AccessKind::InstructionFetch => counts.il1.book(out, lane),
            _ => counts.dl1.book(out, lane),
        }
        counts.l2_reads += 1;
        counts.cycles += l2_hit;
    });
    let l2_line = LineAddr::new(addr.raw() >> l2.geometry().offset_bits());
    let out = l2.access(l2_line, kind, misses);
    let memory = latencies.memory as u64;
    for_each_lane(lanes, misses & !out.hits, |counts, lane| {
        counts.l2.book(out, lane);
        counts.cycles += memory;
    });
}

/// The store path: the write-through DL1 is updated without allocation,
/// and every store is forwarded to the L2 — one `access` over the same
/// lanes, with no miss filtering — where a missing line is fetched from
/// memory in the background.  A store costs every lane one DL1 and one L2
/// access and the store latency, whatever the outcome; only the misses
/// are booked per lane.  The parameters are as for [`read_lean_wave`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_lean_wave(
    dl1: &mut SetAssocCacheLanes,
    l2: &mut SetAssocCacheLanes,
    latencies: &LatencyConfig,
    addr: Address,
    dl1_line: LineAddr,
    active: u64,
    totals: &mut TaskTotals,
    lanes: &mut [LaneMisses],
) {
    let out = dl1.access(dl1_line, AccessKind::Store, u64::MAX);
    totals.dl1_accesses += 1;
    totals.stores += 1;
    totals.cycles += latencies.store as u64;
    for_each_lane(lanes, active & !out.hits, |counts, lane| {
        counts.dl1.book(out, lane);
    });
    let l2_line = LineAddr::new(addr.raw() >> l2.geometry().offset_bits());
    let out = l2.access(l2_line, AccessKind::Store, u64::MAX);
    for_each_lane(lanes, active & !out.hits, |counts, lane| {
        counts.l2.book(out, lane);
    });
}

/// One task's private lane-banked first-level caches.
#[derive(Debug, Clone)]
struct TaskL1Lanes {
    il1: SetAssocCacheLanes,
    dl1: SetAssocCacheLanes,
}

/// The lane-banked hierarchy: per-task IL1/DL1 [`SetAssocCacheLanes`]
/// pairs in front of one lane-banked L2, stepping up to `K` placement
/// seeds per collapsed operation with one masked access per cache level —
/// the lane engine behind [`crate::batch::BatchCore`].  It also holds every
/// task's counters, so it is the engine's [`LaneStepper`]: one
/// [`TaskTotals`] per task for what every lane shares, and one
/// [`LaneMisses`] per (task, lane) for the misses.  Lanes never interact:
/// lane `i` holds the whole platform's state under placement seed
/// `seeds[i]`.
#[derive(Debug, Clone)]
pub(crate) struct LaneHierarchy {
    latencies: LatencyConfig,
    /// Per-task private L1 pairs, task 0 first.
    tasks: Vec<TaskL1Lanes>,
    /// The L2 behind every task's L1 pair.
    l2: SetAssocCacheLanes,
    /// Per-task shared counts, task 0 first.
    totals: Vec<TaskTotals>,
    /// Per-task, per-lane miss-side counts, laid out task-major: slot
    /// `task * lanes + lane`.
    misses: Vec<LaneMisses>,
    /// Lane capacity K.
    lanes: usize,
    /// Mask of the lanes seeded by the last reseed.
    active_mask: u64,
}

impl LaneHierarchy {
    /// Builds a lane-banked hierarchy for `tasks` tasks with capacity for
    /// `lanes` placement seeds on the given platform.  Both are clamped to
    /// at least one, and `lanes` to at most
    /// [`SetAssocCacheLanes::MAX_LANES`].
    pub(crate) fn new(
        config: &PlatformConfig,
        tasks: usize,
        lanes: usize,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let lanes = lanes.clamp(1, SetAssocCacheLanes::MAX_LANES);
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
        Ok(LaneHierarchy {
            latencies: config.latencies,
            l2: build(&config.l2)?,
            totals: vec![TaskTotals::default(); tasks.len()],
            misses: vec![LaneMisses::default(); tasks.len() * lanes],
            tasks,
            lanes,
            active_mask: 0,
        })
    }

    /// Number of tasks.
    pub(crate) fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Lane capacity K.
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Reseeds lanes `0..seeds.len()`, flushes every lane's contents and
    /// zeroes every task's counters.  Per lane, the per-cache seeds are
    /// drawn from `SplitMix64(seed)` in the order task 0's IL1, task 0's
    /// DL1, the L2, then the remaining tasks' L1 pairs — so task 0's three
    /// layouts are the same for every task count, which is what makes a
    /// task next to idle tasks bit-identical to the task alone.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is longer than the lane capacity.
    pub(crate) fn reseed_wave(&mut self, seeds: &[u64]) {
        assert!(
            seeds.len() <= self.lanes,
            "{} seeds exceed the {} configured lanes",
            seeds.len(),
            self.lanes
        );
        self.active_mask = u64::MAX.checked_shr(64 - seeds.len() as u32).unwrap_or(0);
        self.totals.fill(TaskTotals::default());
        self.misses.fill(LaneMisses::default());
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
    // randmod: allow(P1, the engine asks only for task < task_count and lane < the seeds it reseeded with, at most lane_count by reseed_wave's assert, so task < totals.len() and slot < task_count * lane_count = misses.len())
    pub(crate) fn outcome(&self, task: usize, lane: usize) -> (u64, HierarchyStats) {
        let totals = self.totals[task];
        let misses = self.misses[task * self.lanes + lane];
        let stats = HierarchyStats {
            il1: misses.il1.into_stats(totals.il1_accesses, 0),
            dl1: misses.dl1.into_stats(totals.dl1_accesses, totals.stores),
            l2: misses
                .l2
                .into_stats(misses.l2_reads + totals.stores, totals.stores),
            // Every L2 miss, read or store, goes to memory.
            memory_accesses: misses.l2.misses,
        };
        (totals.cycles + misses.cycles, stats)
    }

    /// The miss-count slots of `task`'s lanes.
    #[inline]
    fn slots(&self, task: usize) -> Range<usize> {
        let first = task * self.lanes;
        first..first + self.lanes
    }

    /// One read of `task` — an instruction fetch through its IL1 or a data
    /// load through its DL1, plus `repeats` collapsed same-line re-reads —
    /// across all active lanes; see [`read_lean_wave`].
    // randmod: allow(P1, task < task_count: the replay loops emit task 0 or the tasks of a schedule, which execute_schedule asserts was interleaved for this task count; so task < tasks.len() = totals.len(), and slots(task) lies inside misses (task_count * lane_count slots))
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
            self.active_mask,
            &mut self.totals[task],
            &mut self.misses[slots],
        );
    }
}

/// The engine's lane fan-out: every collapsed operation becomes one wave
/// through the issuing task's L1 pair (and the L2 behind it), booked
/// against that task's counters.  Collapsed repeats — each a guaranteed
/// private-L1 hit (another task can never evict the line a task's repeat
/// read is about to hit) — are booked inside the read wave.
impl LaneStepper for LaneHierarchy {
    #[inline]
    fn fetch(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64) {
        self.read_wave(task, AccessKind::InstructionFetch, addr, line, repeats);
    }

    #[inline]
    fn load(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64) {
        self.read_wave(task, AccessKind::Load, addr, line, repeats);
    }

    // randmod: allow(P1, the bounds argument of read_wave: task < task_count = tasks.len() = totals.len(), so slots(task) lies inside misses)
    #[inline]
    fn store(&mut self, task: usize, addr: Address, line: LineAddr) {
        let slots = self.slots(task);
        store_lean_wave(
            &mut self.tasks[task].dl1,
            &mut self.l2,
            &self.latencies,
            addr,
            line,
            self.active_mask,
            &mut self.totals[task],
            &mut self.misses[slots],
        );
    }

    // randmod: allow(P1, the bounds argument of read_wave: task < task_count = totals.len())
    #[inline]
    fn compute(&mut self, task: usize, cycles: u64) {
        self.totals[task].cycles += cycles;
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
