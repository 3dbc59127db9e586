//! The differential reference model: a deliberately naive, allocation-happy
//! re-implementation of the cache hierarchy, used as the standing oracle
//! for the optimised engines.
//!
//! `RefCache`/`RefHierarchy` share **no code** with the production model's
//! hot paths: per-set `Vec`s of line slots instead of lane-major tag
//! arrays, a textbook move-to-front LRU list instead of packed rank
//! vectors, per-set round-robin pointers of its own instead of
//! `ReplacementState`, the pure boxed `dyn PlacementPolicy` from
//! `PlacementKind::build` instead of the lane bank's placement memos (the
//! hRP hash memo and RM's per-segment half-index tables), no residency
//! filter, no run collapsing, no lane batching, no outcome masks or
//! shared-versus-per-lane booking: every access books its own counters.
//! What they *do* share is the specification: the same placement
//! mathematics, the same seed→layout derivation, the same replacement and
//! write-policy semantics, the same latency charging.
//!
//! The lane-bank oracle drives `SetAssocCacheLanes` — full waves and
//! random lane masks, single lanes included — against one `RefCache` per
//! lane and compares every access's outcome (hit, fill, eviction,
//! write-back; lanes outside the mask must be left alone) for
//! every placement × replacement × write policy, at partial lane widths
//! and at the geometry extremes a platform may configure (banks wider
//! than 32 ways, one set, and 8,192 sets, whose odd 13-bit index gives RM
//! unequal half tables).
//!
//! The proptests assert cycle- and stats-equality of the reference against
//! the engine at one task — `BatchCore` streaming waves, the campaign seed
//! sweep at one and at non-multiple lane widths, and the deterministic
//! layout sweep —
//! across arbitrary traces × all four placements × {LRU, Random,
//! round-robin} replacement × {write-through, write-back} L1s, plus
//! load-then-store streams that drive the write-back residency filter.
//! Any future engine optimisation that changes an observable number fails
//! here first.
//!
//! The contended half does the same for the shared-L2 platform:
//! `RefSharedL2`/`RefContentionCore` naively re-implement the K-task
//! hierarchy and its round-robin arbitration (per-set `Vec`s, `VecDeque`
//! event queues, per-access statistics snapshots — no run collapsing, no
//! precomputed schedule, no lane batching) and are proptested against the
//! full `Campaign::run_contended` path, which runs `BatchCore` schedule
//! replays in multi-lane and one-lane round-robin waves.
//!
//! `REFERENCE_MODEL_CASES` (env) scales the proptest case count; CI runs
//! this suite with a larger budget than the local default.

mod common;

use common::{event_strategy, expand, platform};
use proptest::prelude::*;
use randmod_core::placement::PlacementPolicy;
use randmod_core::prng::{CombinedLfsr, SplitMix64};
use randmod_core::{
    AccessKind, AccessMasks, Address, CacheGeometry, CacheStats, PlacementKind, ReplacementKind,
    SetAssocCacheLanes, WritePolicy,
};
use randmod_sim::hierarchy::HierarchyStats;
use randmod_sim::trace::MemEvent;
use randmod_sim::{BatchCore, Campaign, PlatformConfig, Trace};

/// One resident line of the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefLine {
    line: u64,
    dirty: bool,
}

/// What one access did to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RefOutcome {
    hit: bool,
    /// A line was brought in (write-through store misses do not allocate).
    filled: bool,
    /// The fill displaced a valid line.
    evicted: bool,
    /// The displaced line was dirty.
    wrote_back: bool,
}

impl RefOutcome {
    /// Lane `lane`'s outcome in the masks a lane bank returned.
    fn of_lane(masks: AccessMasks, lane: usize) -> Self {
        let bit = |mask: u64| mask >> lane & 1 == 1;
        RefOutcome {
            hit: bit(masks.hits),
            filled: bit(masks.fills),
            evicted: bit(masks.evictions),
            wrote_back: bit(masks.writebacks),
        }
    }
}

/// A naive set-associative cache: one `Vec<Option<RefLine>>` per set plus
/// a move-to-front recency list and a round-robin pointer per set.
struct RefCache {
    geometry: CacheGeometry,
    placement: Box<dyn PlacementPolicy>,
    replacement: ReplacementKind,
    write_policy: WritePolicy,
    /// `slots[set][way]` — the resident line of that way, if any.
    slots: Vec<Vec<Option<RefLine>>>,
    /// `recency[set]` — way indices, most recent first (LRU victim at the
    /// back).  Maintained for every policy, consulted only by LRU.
    recency: Vec<Vec<u32>>,
    /// `next_victim[set]` — the round-robin victim pointer: the way the
    /// next victim pick in that set takes.
    next_victim: Vec<u32>,
    rng: CombinedLfsr,
    stats: CacheStats,
}

impl RefCache {
    fn new(
        geometry: CacheGeometry,
        placement: PlacementKind,
        replacement: ReplacementKind,
        write_policy: WritePolicy,
    ) -> Self {
        let sets = geometry.sets() as usize;
        let ways = geometry.ways() as usize;
        RefCache {
            geometry,
            placement: placement.build(geometry).expect("buildable placement"),
            replacement,
            write_policy,
            slots: vec![vec![None; ways]; sets],
            recency: (0..sets).map(|_| (0..ways as u32).collect()).collect(),
            next_victim: vec![0; sets],
            rng: CombinedLfsr::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Mirrors one lane of `SetAssocCacheLanes::reseed_wave`: new
    /// placement layout, fresh replacement RNG (same salt), full flush,
    /// replacement state back to its initial order.
    fn reseed(&mut self, seed: u64) {
        self.placement.reseed(seed);
        self.rng = CombinedLfsr::new(seed ^ 0x5EED_5EED_5EED_5EED);
        for set in &mut self.slots {
            set.fill(None);
        }
        for order in &mut self.recency {
            *order = (0..self.geometry.ways()).collect();
        }
        self.next_victim.fill(0);
        self.stats.flushes += 1;
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn touch(&mut self, set: usize, way: u32) {
        let order = &mut self.recency[set];
        let position = order.iter().position(|&w| w == way).expect("way in list");
        order.remove(position);
        order.insert(0, way);
    }

    /// One access and everything it did.
    fn access(&mut self, addr: Address, is_write: bool) -> RefOutcome {
        let line = self.geometry.line_addr(addr).raw();
        let set = self
            .placement
            .set_index_of_line(self.geometry.line_addr(addr)) as usize;
        self.stats.accesses += 1;
        if is_write {
            self.stats.stores += 1;
        }

        // Probe every way, the naive way.
        if let Some(way) = self.slots[set]
            .iter()
            .position(|slot| slot.map(|l| l.line) == Some(line))
        {
            self.stats.hits += 1;
            self.touch(set, way as u32);
            if is_write && self.write_policy == WritePolicy::WriteBack {
                self.slots[set][way].as_mut().expect("hit line").dirty = true;
            }
            return RefOutcome {
                hit: true,
                ..RefOutcome::default()
            };
        }

        self.stats.misses += 1;
        // Write-through store misses do not allocate.
        if is_write && self.write_policy == WritePolicy::WriteThrough {
            return RefOutcome::default();
        }

        // Prefer the first invalid way, exactly like the production probe.
        let way = if let Some(invalid) = self.slots[set].iter().position(Option::is_none) {
            invalid
        } else {
            match self.replacement {
                ReplacementKind::Random => self.rng.next_below(self.geometry.ways()) as usize,
                ReplacementKind::Lru => *self.recency[set].last().expect("non-empty set") as usize,
                ReplacementKind::RoundRobin => {
                    let way = self.next_victim[set];
                    self.next_victim[set] = (way + 1) % self.geometry.ways();
                    way as usize
                }
            }
        };
        let victim = self.slots[set][way];
        if let Some(victim) = victim {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
        }
        self.slots[set][way] = Some(RefLine {
            line,
            dirty: is_write && self.write_policy == WritePolicy::WriteBack,
        });
        self.stats.fills += 1;
        self.touch(set, way as u32);
        RefOutcome {
            hit: false,
            filled: true,
            evicted: victim.is_some(),
            wrote_back: victim.is_some_and(|v| v.dirty),
        }
    }
}

/// A naive two-level hierarchy mirroring the production hierarchy's
/// latency and routing specification (`randmod_sim::hierarchy`).
struct RefHierarchy {
    config: PlatformConfig,
    il1: RefCache,
    dl1: RefCache,
    l2: RefCache,
    memory_accesses: u64,
}

impl RefHierarchy {
    fn new(config: PlatformConfig) -> Self {
        let build = |c: &randmod_sim::CacheConfig| {
            RefCache::new(c.geometry, c.placement, c.replacement, c.write_policy)
        };
        RefHierarchy {
            config,
            il1: build(&config.il1),
            dl1: build(&config.dl1),
            l2: build(&config.l2),
            memory_accesses: 0,
        }
    }

    /// Mirrors the production per-cache seed derivation: the IL1, DL1 and
    /// L2 seeds are the first three draws of `SplitMix64(seed)`.
    fn reseed(&mut self, seed: u64) {
        let mut sm = SplitMix64::new(seed);
        self.il1.reseed(sm.next_u64());
        self.dl1.reseed(sm.next_u64());
        self.l2.reseed(sm.next_u64());
    }

    fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.l2.reset_stats();
        self.memory_accesses = 0;
    }

    fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            il1: self.il1.stats,
            dl1: self.dl1.stats,
            l2: self.l2.stats,
            memory_accesses: self.memory_accesses,
        }
    }

    fn access(&mut self, event: MemEvent) -> u64 {
        let lat = self.config.latencies;
        match event {
            MemEvent::Compute(cycles) => cycles as u64,
            MemEvent::InstrFetch(addr) => {
                if self.il1.access(addr, false).hit {
                    lat.l1_hit as u64
                } else {
                    self.fill_from_l2(addr) + lat.l1_hit as u64
                }
            }
            MemEvent::Load(addr) => {
                if self.dl1.access(addr, false).hit {
                    lat.l1_hit as u64
                } else {
                    self.fill_from_l2(addr) + lat.l1_hit as u64
                }
            }
            MemEvent::Store(addr) => {
                self.dl1.access(addr, true);
                if !self.l2.access(addr, true).hit {
                    self.memory_accesses += 1;
                }
                lat.store as u64
            }
        }
    }

    fn fill_from_l2(&mut self, addr: Address) -> u64 {
        let lat = self.config.latencies;
        if self.l2.access(addr, false).hit {
            lat.l2_hit as u64
        } else {
            self.memory_accesses += 1;
            (lat.l2_hit + lat.memory) as u64
        }
    }

    /// One cold run of `trace` under `seed` — the reference counterpart of
    /// one one-task `BatchCore` lane.
    fn execute_isolated(&mut self, trace: &Trace, seed: u64) -> (u64, HierarchyStats) {
        self.reseed(seed);
        self.reset_stats();
        let mut cycles = 0u64;
        for event in trace {
            cycles += self.access(event);
        }
        (cycles, self.stats())
    }
}

/// Field-wise difference of two cache statistics snapshots (`after -
/// before`), for attributing shared-L2 traffic to the task that issued
/// it.
fn stats_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        accesses: after.accesses - before.accesses,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        fills: after.fills - before.fills,
        evictions: after.evictions - before.evictions,
        writebacks: after.writebacks - before.writebacks,
        stores: after.stores - before.stores,
        flushes: after.flushes - before.flushes,
    }
}

/// The naive shared-L2 platform: `K` per-task `RefCache` L1 pairs in
/// front of one shared `RefCache` L2 — the reference counterpart of the
/// engine's lane-banked hierarchy at several tasks.  Per-task L2 views are
/// attributed the slow way, by snapshotting the shared cache's statistics
/// around every access.
struct RefSharedL2 {
    config: PlatformConfig,
    /// `(il1, dl1)` per task.
    tasks: Vec<(RefCache, RefCache)>,
    l2: RefCache,
    /// Each task's own view of the shared-L2 traffic.
    l2_views: Vec<CacheStats>,
    /// Each task's accesses that went all the way to memory.
    memory_accesses: Vec<u64>,
}

impl RefSharedL2 {
    fn new(config: PlatformConfig, tasks: usize) -> Self {
        let tasks = tasks.max(1);
        let build = |c: &randmod_sim::CacheConfig| {
            RefCache::new(c.geometry, c.placement, c.replacement, c.write_policy)
        };
        RefSharedL2 {
            config,
            tasks: (0..tasks)
                .map(|_| (build(&config.il1), build(&config.dl1)))
                .collect(),
            l2: build(&config.l2),
            l2_views: vec![CacheStats::default(); tasks],
            memory_accesses: vec![0; tasks],
        }
    }

    fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Mirrors the engine's per-lane derivation order: task 0's IL1, task
    /// 0's DL1, the shared L2, then the remaining tasks' pairs — the order
    /// that makes a victim next to idle tasks bit-identical to the victim
    /// alone.
    fn reseed(&mut self, seed: u64) {
        let mut sm = SplitMix64::new(seed);
        let (first, rest) = self.tasks.split_first_mut().expect("at least one task");
        first.0.reseed(sm.next_u64());
        first.1.reseed(sm.next_u64());
        self.l2.reseed(sm.next_u64());
        for task in rest {
            task.0.reseed(sm.next_u64());
            task.1.reseed(sm.next_u64());
        }
    }

    fn reset_stats(&mut self) {
        for task in &mut self.tasks {
            task.0.reset_stats();
            task.1.reset_stats();
        }
        self.l2.reset_stats();
        self.l2_views.fill(CacheStats::default());
        self.memory_accesses.fill(0);
    }

    fn stats(&self, task: usize) -> HierarchyStats {
        HierarchyStats {
            il1: self.tasks[task].0.stats,
            dl1: self.tasks[task].1.stats,
            l2: self.l2_views[task],
            memory_accesses: self.memory_accesses[task],
        }
    }

    /// One access of `task`, charged and attributed like the production
    /// shared-L2 model: the task's private L1 in front, the shared L2
    /// behind it, the delta of the shared cache's statistics booked to
    /// the issuing task.
    fn access(&mut self, task: usize, event: MemEvent) -> u64 {
        let lat = self.config.latencies;
        match event {
            MemEvent::Compute(cycles) => cycles as u64,
            MemEvent::InstrFetch(addr) => {
                if self.tasks[task].0.access(addr, false).hit {
                    lat.l1_hit as u64
                } else {
                    self.fill_from_l2(task, addr) + lat.l1_hit as u64
                }
            }
            MemEvent::Load(addr) => {
                if self.tasks[task].1.access(addr, false).hit {
                    lat.l1_hit as u64
                } else {
                    self.fill_from_l2(task, addr) + lat.l1_hit as u64
                }
            }
            MemEvent::Store(addr) => {
                self.tasks[task].1.access(addr, true);
                let before = self.l2.stats;
                let hit = self.l2.access(addr, true).hit;
                self.l2_views[task] =
                    self.l2_views[task].merged(stats_delta(self.l2.stats, before));
                if !hit {
                    self.memory_accesses[task] += 1;
                }
                lat.store as u64
            }
        }
    }

    fn fill_from_l2(&mut self, task: usize, addr: Address) -> u64 {
        let lat = self.config.latencies;
        let before = self.l2.stats;
        let hit = self.l2.access(addr, false).hit;
        self.l2_views[task] = self.l2_views[task].merged(stats_delta(self.l2.stats, before));
        if hit {
            lat.l2_hit as u64
        } else {
            self.memory_accesses[task] += 1;
            (lat.l2_hit + lat.memory) as u64
        }
    }
}

/// The naive contention engine: interleaves `K` event queues over a
/// [`RefSharedL2`] under the documented round-robin specification, which
/// visits ready tasks in index order.  Shares no code with
/// `ContendedSchedule` or the lane-batched replay (in particular: no run
/// collapsing, no precomputed schedule).
struct RefContentionCore {
    hierarchy: RefSharedL2,
}

impl RefContentionCore {
    fn new(config: PlatformConfig, tasks: usize) -> Self {
        RefContentionCore {
            hierarchy: RefSharedL2::new(config, tasks),
        }
    }

    /// One contended run — the reference counterpart of one lane of a
    /// `BatchCore` schedule replay — returning `(cycles, stats)`
    /// per task in task order.  Traces beyond the task count are ignored;
    /// missing traces behave as idle tasks.
    fn execute_contended(&mut self, traces: &[Trace], seed: u64) -> Vec<(u64, HierarchyStats)> {
        let tasks = self.hierarchy.task_count();
        self.hierarchy.reseed(seed);
        self.hierarchy.reset_stats();
        let mut queues: Vec<std::collections::VecDeque<MemEvent>> = traces
            .iter()
            .take(tasks)
            .map(|t| t.iter().copied().collect())
            .collect();
        queues.resize_with(tasks, std::collections::VecDeque::new);
        let mut cycles = vec![0u64; tasks];
        let mut cursor = 0usize;
        while queues.iter().any(|q| !q.is_empty()) {
            while queues[cursor].is_empty() {
                cursor = (cursor + 1) % tasks;
            }
            let task = cursor;
            cursor = (cursor + 1) % tasks;
            let event = queues[task].pop_front().expect("picked a ready task");
            cycles[task] += self.hierarchy.access(task, event);
        }
        (0..tasks)
            .map(|task| (cycles[task], self.hierarchy.stats(task)))
            .collect()
    }
}

/// Proptest case budget: the local default, or `REFERENCE_MODEL_CASES`
/// when set (CI runs a larger budget).
fn cases() -> u32 {
    std::env::var("REFERENCE_MODEL_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Drives a lane bank and one `RefCache` per active lane through the same
/// access stream — full waves with random lane masks mixed in, and a
/// reseed of every lane halfway through — and asserts the same outcome on
/// every lane of every access.  A lane outside an access's mask takes no
/// part in it: its bits are clear in every returned mask and its reference
/// is not accessed, so it must keep matching on the accesses that follow.
/// Every returned outcome must also nest as documented: fills miss,
/// evictions fill and write-backs evict.
fn assert_lane_bank_matches_reference(
    geometry: CacheGeometry,
    placement: PlacementKind,
    replacement: ReplacementKind,
    write_policy: WritePolicy,
    active: usize,
    capacity: usize,
) {
    let mut bank =
        SetAssocCacheLanes::with_kinds(geometry, placement, replacement, write_policy, capacity)
            .unwrap();
    let seeds: Vec<u64> = (0..active as u64)
        .map(|i| i * 0x9E37_79B9 + 0xFEED)
        .collect();
    bank.reseed_wave(&seeds);
    assert_eq!(bank.active_lanes(), active);
    let mut references: Vec<RefCache> = seeds
        .iter()
        .map(|&seed| {
            let mut cache = RefCache::new(geometry, placement, replacement, write_policy);
            cache.reseed(seed);
            cache
        })
        .collect();
    // Half the accesses revisit a working set twice the cache's capacity
    // (hits, evictions, residency-filter traffic); the rest stream over
    // 2^16 lines.
    let hot_lines = 2 * u64::from(geometry.sets() * geometry.ways());
    let mut sm = SplitMix64::new(0x1234);
    let full = u64::MAX >> (64 - active);
    let context =
        format!("{geometry:?} {placement}/{replacement}/{write_policy:?} {active}/{capacity}");
    for step in 0..4_000u64 {
        if step == 2_000 {
            // A mid-stream reseed must flush every lane and restart its
            // replacement state and victim draws, as a fresh cache would.
            let reseeds: Vec<u64> = seeds.iter().map(|seed| !seed).collect();
            bank.reseed_wave(&reseeds);
            for (reference, &seed) in references.iter_mut().zip(&reseeds) {
                reference.reseed(seed);
            }
        }
        let r = sm.next_u64();
        let line_number = if r & 1 == 0 {
            (r >> 1) % hot_lines
        } else {
            (r >> 1) & 0xFFFF
        };
        let addr = Address::new(line_number * u64::from(geometry.line_size()));
        let kind = match step % 5 {
            0 | 1 => AccessKind::Load,
            2 => AccessKind::Store,
            _ => AccessKind::InstructionFetch,
        };
        let line = geometry.line_addr(addr);
        // Every seventh access goes to a random non-empty subset of the
        // lanes, a single lane one time in three (an L2 sees the lanes
        // whose L1 missed), with random bits above the active lanes that
        // the bank must ignore; the others go to every lane, as all-ones
        // (an L1 wave's mask) or as exactly the active lanes.
        let pick = sm.next_u64();
        let mask = if step % 7 == 3 {
            let lone = 1u64 << ((pick >> 2) % active as u64);
            let subset = (pick >> 8) & full;
            let inactive = pick.rotate_left(17) & !full;
            inactive
                | if pick % 3 == 0 || subset == 0 {
                    lone
                } else {
                    subset
                }
        } else if pick & 1 == 0 {
            u64::MAX
        } else {
            full
        };
        let selected = mask & full;
        let out = bank.access(line, kind, mask);
        let masks = [out.hits, out.fills, out.evictions, out.writebacks];
        assert!(
            masks.iter().all(|m| m & !selected == 0),
            "{context} outcome {out:?} outside lanes {selected:#b} step {step}"
        );
        assert!(
            out.fills & out.hits == 0
                && out.evictions & !out.fills == 0
                && out.writebacks & !out.evictions == 0,
            "{context} outcome {out:?} does not nest, step {step}"
        );
        for (lane, reference) in references.iter_mut().enumerate() {
            if selected >> lane & 1 == 1 {
                assert_eq!(
                    RefOutcome::of_lane(out, lane),
                    reference.access(addr, kind.is_write()),
                    "{context} lane {lane} mask {mask:#b} step {step}"
                );
            }
        }
    }
}

/// Runs `check` for every placement × replacement × write policy.
fn for_every_policy_mix(mut check: impl FnMut(PlacementKind, ReplacementKind, WritePolicy)) {
    for placement in PlacementKind::ALL {
        for replacement in ReplacementKind::ALL {
            for write_policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                check(placement, replacement, write_policy);
            }
        }
    }
}

#[test]
fn lane_bank_matches_reference_caches_for_every_policy_mix() {
    let geometry = CacheGeometry::new(8, 4, 32).unwrap();
    for_every_policy_mix(|placement, replacement, write_policy| {
        assert_lane_bank_matches_reference(geometry, placement, replacement, write_policy, 4, 4);
    });
}

#[test]
fn lane_bank_partial_waves_match_reference_caches() {
    // Non-multiple widths and partial final chunks: active < capacity,
    // including a single active lane and odd counts.
    let geometry = CacheGeometry::new(8, 4, 32).unwrap();
    for (active, capacity) in [(1usize, 8usize), (3, 8), (5, 8), (3, 3), (7, 16)] {
        for_every_policy_mix(|placement, replacement, write_policy| {
            assert_lane_bank_matches_reference(
                geometry,
                placement,
                replacement,
                write_policy,
                active,
                capacity,
            );
        });
    }
}

#[test]
fn lane_bank_matches_reference_caches_at_geometry_extremes() {
    // Geometries a platform or server spec may configure but the other
    // suites never reach: banks wider than 32 ways, a single fully
    // associative set (no index bits), and 8,192 sets (an odd 13-bit
    // index, so RM's low and high half tables differ in size).
    for (sets, ways) in [(2, 48), (4, 33), (1, 40), (8192, 2)] {
        let geometry = CacheGeometry::new(sets, ways, 32).unwrap();
        for_every_policy_mix(|placement, replacement, write_policy| {
            assert_lane_bank_matches_reference(
                geometry,
                placement,
                replacement,
                write_policy,
                3,
                4,
            );
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The naive reference reproduces the engine at one task exactly —
    /// cycles and full per-level statistics — for every placement × {LRU,
    /// Random, round-robin} × {WT, WB} over arbitrary traces and seeds.
    #[test]
    fn production_engines_match_the_reference_model(
        events in prop::collection::vec(event_strategy(), 1..350),
        seeds in prop::collection::vec(any::<u64>(), 1..6),
        placement_index in 0usize..4,
        replacement_index in 0usize..3,
        write_back_l1 in any::<bool>(),
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let replacement = ReplacementKind::ALL[replacement_index];
        let l1_write = if write_back_l1 {
            WritePolicy::WriteBack
        } else {
            WritePolicy::WriteThrough
        };
        let config = platform(placement, replacement, l1_write);
        let trace = expand(&events);

        let mut reference = RefHierarchy::new(config);
        let mut batch = BatchCore::new(&config, 1, seeds.len()).unwrap();
        let batched = batch.execute_batch(&trace, &seeds);
        for (&seed, &batched_result) in seeds.iter().zip(&batched) {
            prop_assert_eq!(batched_result, reference.execute_isolated(&trace, seed));
        }
        // One-lane waves and non-multiple lane widths through the full
        // campaign path (trace precollapse + partial final lane groups):
        // with 1..6 seeds, widths 3 and 5 leave a partial trailing group
        // in most cases.
        for width in [1usize, 3, 5] {
            let swept = Campaign::new(config, 0)
                .with_threads(1)
                .with_lanes(width)
                .run_seeds(&trace, &seeds)
                .unwrap();
            for (run, &batched_result) in swept.runs().iter().zip(&batched) {
                prop_assert_eq!((run.cycles, run.stats), batched_result);
            }
        }
    }

    /// The write-back residency filter against the reference: Random
    /// replacement (the one policy that arms the filter) and write-back
    /// L1s, over load-then-store pairs on up to 2,048 lines (64 KB against
    /// the 16 KB DL1).  Every store goes to a clean line that every lane
    /// has just loaded, so it takes the filter's repeat-store test, which
    /// must read that line's own dirty cells; the evictions that follow
    /// expose any store it wrongly skipped as a missing write-back.
    #[test]
    fn write_back_filter_matches_the_reference_model(
        lines in prop::collection::vec(0u64..2048, 1..1024),
        seeds in prop::collection::vec(any::<u64>(), 1..6),
        placement_index in 0usize..4,
    ) {
        let config = platform(
            PlacementKind::ALL[placement_index],
            ReplacementKind::Random,
            WritePolicy::WriteBack,
        );
        let mut trace = Trace::new();
        for &line in &lines {
            let addr = Address::new(0x10_0000 + line * 32);
            trace.load(addr);
            trace.store(addr);
        }
        let mut reference = RefHierarchy::new(config);
        let mut batch = BatchCore::new(&config, 1, seeds.len()).unwrap();
        let batched = batch.execute_batch(&trace, &seeds);
        for (&seed, &batched_result) in seeds.iter().zip(&batched) {
            prop_assert_eq!(batched_result, reference.execute_isolated(&trace, seed));
        }
    }

    /// The naive contention reference reproduces the engine at several
    /// tasks exactly — per-task cycles and full per-task statistics
    /// (private L1s plus each task's view of the shared L2) — across
    /// placements × co-schedule sizes × {LRU, Random, round-robin} ×
    /// {WT, WB}.  The campaign goes through `Campaign::run_contended` on
    /// two threads at one lane and at three, so both the one-lane waves
    /// (`with_lanes(1)`) and the multi-lane groups are pinned against the
    /// reference.
    #[test]
    fn contended_engines_match_the_reference_model(
        victim in prop::collection::vec(event_strategy(), 1..200),
        opponents in prop::collection::vec(
            prop::collection::vec(event_strategy(), 0..150), 0..3),
        seeds in prop::collection::vec(any::<u64>(), 1..5),
        placement_index in 0usize..4,
        replacement_index in 0usize..3,
        write_back_l1 in any::<bool>(),
    ) {
        let placement = PlacementKind::ALL[placement_index];
        let replacement = ReplacementKind::ALL[replacement_index];
        let l1_write = if write_back_l1 {
            WritePolicy::WriteBack
        } else {
            WritePolicy::WriteThrough
        };
        let config = platform(placement, replacement, l1_write);
        let traces: Vec<Trace> = std::iter::once(expand(&victim))
            .chain(opponents.iter().map(|o| expand(o)))
            .collect();
        let tasks = traces.len();

        let mut reference = RefContentionCore::new(config, tasks);
        let expected: Vec<_> =
            seeds.iter().map(|&seed| reference.execute_contended(&traces, seed)).collect();
        for lanes in [1usize, 3] {
            let campaign_result = Campaign::new(config, 0)
                .with_threads(2)
                .with_lanes(lanes)
                .run_contended(&traces, &seeds)
                .unwrap();
            prop_assert_eq!(campaign_result.len(), seeds.len());
            for ((&seed, run), expected) in seeds.iter().zip(campaign_result.runs()).zip(&expected) {
                prop_assert_eq!(run.seed, seed);
                prop_assert_eq!(run.tasks.len(), tasks);
                for (task_run, &(cycles, stats)) in run.tasks.iter().zip(expected) {
                    prop_assert_eq!((task_run.cycles, task_run.stats), (cycles, stats));
                }
            }
        }
    }

    /// The deterministic layout sweep replays every layout exactly as the
    /// reference runs it under seed 0 — on the deterministic platform the
    /// sweep exists for, and on a randomized one (where seed 0 still fixes
    /// one random layout per cache).
    #[test]
    fn layout_sweep_matches_the_reference_model(
        events in prop::collection::vec(event_strategy(), 1..300),
        offsets in prop::collection::vec((0u64..64, 0u64..512), 1..6),
        placement_index in 0usize..4,
        replacement_index in 0usize..3,
    ) {
        let trace = expand(&events);
        let layouts: Vec<Trace> = offsets
            .iter()
            .map(|&(code, data)| trace.with_offsets(code * 32, data * 32))
            .collect();
        let replacement = ReplacementKind::ALL[replacement_index];
        let randomized =
            platform(PlacementKind::ALL[placement_index], replacement, WritePolicy::WriteThrough);
        for config in [PlatformConfig::leon3_deterministic(), randomized] {
            let sweep = Campaign::new(config, 0)
                .with_threads(2)
                .run_layout_sweep_with(layouts.len(), |i| &layouts[i])
                .unwrap();
            prop_assert_eq!(sweep.len(), layouts.len());
            let mut reference = RefHierarchy::new(config);
            for (index, (run, layout)) in sweep.runs().iter().zip(&layouts).enumerate() {
                prop_assert_eq!(run.seed, index as u64);
                prop_assert_eq!((run.cycles, run.stats), reference.execute_isolated(layout, 0));
            }
        }
    }
}

/// The contended counterpart of the heavy deterministic case: the naive
/// contention reference against the campaign path on an L2-stressing
/// three-task co-schedule, for every placement × both L1 write policies (the residency filter keeps its cell indices only
/// under write-back): at one lane, and at the default width on one and on
/// two workers.  One worker at the default width fills one whole group
/// and ends on a one-lane partial group; two workers split the seeds into
/// chunks narrower than the default width.
#[test]
fn contended_reference_model_agrees_on_a_pressure_stressing_co_schedule() {
    let mut victim = Trace::new();
    let mut streamer = Trace::new();
    let mut thrasher = Trace::new();
    for i in 0..1500u64 {
        victim.fetch(Address::new(0x1000 + (i % 24) * 32));
        victim.load(Address::new(0x10_0000 + (i % 900) * 36));
        if i % 7 == 0 {
            victim.store(Address::new(0x18_0000 + (i % 300) * 32));
        }
        if i % 5 == 0 {
            // A store to the line just loaded: under a write-back L1 it
            // takes the filter's repeat-store test on a clean line.
            victim.store(Address::new(0x10_0000 + (i % 900) * 36));
        }
        streamer.load(Address::new(0x40_0000 + (i % 4096) * 32));
        thrasher.load(Address::new(0x80_0000 + (i % 2048) * 64));
        if i % 13 == 0 {
            thrasher.compute(2);
        }
    }
    let traces = [victim, streamer, thrasher];
    let seeds: Vec<u64> = [0u64, 11, 0xDEAD_BEEF, u64::MAX]
        .into_iter()
        .chain((1u64..).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .take(Campaign::DEFAULT_LANES + 1)
        .collect();
    for placement in PlacementKind::ALL {
        for l1_write in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            let config = platform(placement, ReplacementKind::Random, l1_write);
            let mut reference = RefContentionCore::new(config, traces.len());
            let expected: Vec<_> = seeds
                .iter()
                .map(|&seed| reference.execute_contended(&traces, seed))
                .collect();
            let default = Campaign::DEFAULT_LANES;
            for (threads, lanes) in [(1, 1), (1, default), (2, default)] {
                let campaign_result = Campaign::new(config, 0)
                    .with_threads(threads)
                    .with_lanes(lanes)
                    .run_contended(&traces, &seeds)
                    .unwrap();
                for ((&seed, run), expected) in
                    seeds.iter().zip(campaign_result.runs()).zip(&expected)
                {
                    let campaign_run: Vec<(u64, HierarchyStats)> =
                        run.tasks.iter().map(|t| (t.cycles, t.stats)).collect();
                    assert_eq!(
                        &campaign_run, expected,
                        "campaign diverged from the reference: {placement}/{l1_write:?} threads {threads} lanes {lanes} seed {seed}"
                    );
                }
            }
        }
    }
}

/// A deterministic heavy case pinning the reference against the solo
/// engine on a capacity-stressing trace (runs even when the proptest
/// budget is tiny, and gives a stable repro target): one multi-lane wave,
/// and a one-lane sweep that reuses each bank from run to run.
#[test]
fn reference_model_agrees_on_a_capacity_stressing_trace() {
    let mut trace = Trace::new();
    for repeat in 0..2u64 {
        for i in 0..900u64 {
            trace.fetch(Address::new(0x1000 + (i % 40) * 4));
            trace.load(Address::new(0x10_0000 + i * 36 + repeat));
            if i % 5 == 0 {
                trace.store(Address::new(0x20_0000 + (i % 700) * 32));
            }
            if i % 11 == 0 {
                trace.compute(3);
            }
        }
    }
    let seeds = [0u64, 7, 0xDEAD_BEEF, u64::MAX];
    for placement in PlacementKind::ALL {
        for replacement in ReplacementKind::ALL {
            for l1_write in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
                let config = platform(placement, replacement, l1_write);
                let mut reference = RefHierarchy::new(config);
                let mut batch = BatchCore::new(&config, 1, seeds.len()).unwrap();
                let batched = batch.execute_batch(&trace, &seeds);
                let swept = Campaign::new(config, 0)
                    .with_threads(1)
                    .with_lanes(1)
                    .run_seeds(&trace, &seeds)
                    .unwrap();
                let runs = seeds.iter().zip(&batched).zip(swept.runs());
                for ((&seed, &batched_result), run) in runs {
                    let expected = reference.execute_isolated(&trace, seed);
                    assert_eq!(
                        batched_result, expected,
                        "batched diverged from the reference: {placement}/{replacement}/{l1_write:?} seed {seed}"
                    );
                    assert_eq!(
                        (run.cycles, run.stats),
                        expected,
                        "one-lane sweep diverged from the reference: {placement}/{replacement}/{l1_write:?} seed {seed}"
                    );
                }
            }
        }
    }
}

/// The layout-sweep counterpart of the heavy case: 16 layouts of the
/// capacity-stressing trace on the deterministic platform, each against
/// the reference under seed 0.
#[test]
fn layout_sweep_reference_model_agrees_on_a_capacity_stressing_trace() {
    let mut trace = Trace::new();
    for i in 0..2400u64 {
        trace.fetch(Address::new(0x1000 + (i % 40) * 4));
        trace.load(Address::new(0x10_0000 + (i % 900) * 36));
        if i % 5 == 0 {
            trace.store(Address::new(0x20_0000 + (i % 700) * 32));
        }
    }
    let config = PlatformConfig::leon3_deterministic();
    let layout = |i: usize| trace.with_offsets(i as u64 * 96, i as u64 * 4128);
    let sweep = Campaign::new(config, 0)
        .with_threads(2)
        .run_layout_sweep_with(16, layout)
        .unwrap();
    let mut reference = RefHierarchy::new(config);
    for (index, run) in sweep.runs().iter().enumerate() {
        assert_eq!(
            (run.cycles, run.stats),
            reference.execute_isolated(&layout(index), 0),
            "layout {index} diverged from the reference"
        );
    }
}
