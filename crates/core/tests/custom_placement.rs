//! Dedicated coverage for the `Placement::Custom` extension point: a
//! policy implemented *outside* the built-in enum (installed through the
//! boxed `PlacementPolicy` trait and `PlacementKind::build()`) must
//! round-trip through the adapter and drive a cache to exactly the same
//! campaign-style results as its statically dispatched built-in
//! equivalent.

use randmod_core::cache::{AccessFlags, AccessKind, SetAssocCache, SetAssocCacheLanes, WritePolicy};
use randmod_core::placement::PlacementPolicy;
use randmod_core::prng::SplitMix64;
use randmod_core::{
    Address, CacheGeometry, CacheStats, LineAddr, Placement, PlacementKind, RandomModuloPlacement,
    ReplacementKind,
};
use std::fmt;

/// An externally implemented policy: wraps the RM mathematics behind a
/// type this crate has never seen, so every call goes through the
/// `Placement::Custom` virtual-dispatch path (no enum variant, no memo).
struct ThirdPartyRm {
    inner: RandomModuloPlacement,
}

impl ThirdPartyRm {
    fn boxed(geometry: CacheGeometry) -> Box<dyn PlacementPolicy> {
        Box::new(ThirdPartyRm {
            inner: RandomModuloPlacement::new(geometry),
        })
    }
}

impl fmt::Debug for ThirdPartyRm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThirdPartyRm").finish()
    }
}

impl PlacementPolicy for ThirdPartyRm {
    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    fn set_index_of_line(&self, line: LineAddr) -> u32 {
        self.inner.set_index_of_line(line)
    }

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn kind(&self) -> PlacementKind {
        PlacementKind::RandomModulo
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(ThirdPartyRm {
            inner: self.inner.clone(),
        })
    }
}

/// A campaign-style workload at the cache level: many runs, each with a
/// fresh seed, cold contents and per-run statistics — the unit the
/// measurement protocol is built from.
fn run_campaign(cache: &mut SetAssocCache, runs: usize) -> Vec<CacheStats> {
    let mut results = Vec::with_capacity(runs);
    let mut addresses = SplitMix64::new(0xCAFE);
    for run in 0..runs as u64 {
        cache.reseed(run * 0x9E37_79B9 + 1);
        cache.reset_stats();
        // A mixed read/write sweep stressing fills and evictions.
        for i in 0..4_000u64 {
            let addr = Address::new((addresses.next_u64() & 0x3_FFFF) | ((i & 0x1F) * 32));
            let kind = if i % 7 == 0 { AccessKind::Store } else { AccessKind::Load };
            cache.access(addr, kind);
        }
        // Reset the address stream per run, as a replayed trace would.
        addresses = SplitMix64::new(0xCAFE ^ run.wrapping_add(1));
        results.push(cache.stats());
    }
    results
}

#[test]
fn custom_policy_round_trips_through_build_and_the_adapter() {
    let geometry = CacheGeometry::leon3_l1();
    // `build()` → boxed trait object → `Placement::Custom` adapter.
    let boxed = PlacementKind::RandomModulo.build(geometry).unwrap();
    let mut adapted = Placement::from(boxed);
    assert!(matches!(adapted, Placement::Custom(_)));
    assert_eq!(adapted.kind(), PlacementKind::RandomModulo);
    assert_eq!(adapted.geometry(), geometry);
    assert!(adapted.is_randomized());
    assert!(!adapted.stores_index_in_tag());
    adapted.reseed(1234);
    assert_eq!(adapted.seed(), 1234);
    // The adapter's mapping is the built-in mapping, through both the
    // shared and the `&mut` (memoizable) entry points.
    let mut builtin = Placement::new(PlacementKind::RandomModulo, geometry).unwrap();
    builtin.reseed(1234);
    for i in 0..512u64 {
        let line = LineAddr::new(0x4_0000 + i * 3);
        assert_eq!(adapted.set_index_of_line(line), builtin.set_index_of_line(line));
        assert_eq!(adapted.set_index_of_line_mut(line), builtin.set_index_of_line_mut(line));
    }
}

#[test]
fn custom_policy_campaign_matches_its_builtin_equivalent() {
    // The same campaign driven by (a) a cache whose placement went in as
    // an external boxed policy and (b) a cache built from the built-in
    // kind must produce identical per-run statistics: hit/miss behaviour,
    // fills, evictions and write-backs all depend on the placement only
    // through its mapping, which the Custom path must preserve exactly.
    let geometry = CacheGeometry::new(64, 4, 32).unwrap();
    for (replacement, write_policy) in [
        (ReplacementKind::Lru, WritePolicy::WriteThrough),
        (ReplacementKind::Random, WritePolicy::WriteBack),
    ] {
        let mut custom = SetAssocCache::new(
            geometry,
            ThirdPartyRm::boxed(geometry),
            replacement,
            write_policy,
        );
        let mut builtin =
            SetAssocCache::with_kinds(geometry, PlacementKind::RandomModulo, replacement, write_policy)
                .unwrap();
        let runs = 12;
        assert_eq!(
            run_campaign(&mut custom, runs),
            run_campaign(&mut builtin, runs),
            "custom-placement campaign diverged under {replacement}/{write_policy:?}"
        );
    }
}

#[test]
fn custom_policy_lane_bank_routes_through_the_scalar_path_unchanged() {
    // Guard for the wave engine's boxed-dyn fallback: a lane bank built
    // from external `Placement::Custom` policies must report the custom
    // routing (`uses_custom_placement`) and stay bit-identical to K
    // independent scalar caches driven by the same boxed policy — flags
    // per lane per wave, sparse single-lane accesses included.  The
    // vectorized probe, the residency filter and the batched PRNG draws
    // must not change observable behaviour just because placement
    // dispatches through the scalar trait object.
    let geometry = CacheGeometry::new(64, 4, 32).unwrap();
    for (replacement, write_policy) in [
        (ReplacementKind::Random, WritePolicy::WriteThrough),
        (ReplacementKind::Random, WritePolicy::WriteBack),
        (ReplacementKind::Lru, WritePolicy::WriteThrough),
    ] {
        let lanes = 5;
        let placements: Vec<Placement> = (0..lanes)
            .map(|_| Placement::from(ThirdPartyRm::boxed(geometry)))
            .collect();
        let mut bank =
            SetAssocCacheLanes::with_placements(geometry, placements, replacement, write_policy);
        assert!(
            bank.uses_custom_placement(),
            "boxed policies must take the custom per-lane routing"
        );
        let seeds: Vec<u64> = (0..lanes as u64).map(|i| i * 0x9E37_79B9 + 7).collect();
        bank.reseed_wave(&seeds);
        let mut scalars: Vec<SetAssocCache> = seeds
            .iter()
            .map(|&seed| {
                let mut cache = SetAssocCache::new(
                    geometry,
                    ThirdPartyRm::boxed(geometry),
                    replacement,
                    write_policy,
                );
                cache.reseed(seed);
                cache
            })
            .collect();
        let mut sm = SplitMix64::new(0x7A57E);
        let mut flags = vec![AccessFlags::default(); lanes];
        for step in 0..6_000u64 {
            let addr = Address::new(sm.next_u64() & 0x3_FFFF);
            let line = geometry.line_addr(addr);
            let kind = match step % 5 {
                0..=2 => AccessKind::Load,
                3 => AccessKind::Store,
                _ => AccessKind::InstructionFetch,
            };
            if step % 11 == 4 {
                let lane = (step % lanes as u64) as usize;
                assert_eq!(
                    bank.access_lean_lane(lane, line, kind),
                    AccessFlags::from(scalars[lane].access(addr, kind)),
                    "custom sparse lane {lane} diverged at step {step} under {replacement}/{write_policy:?}"
                );
            } else {
                bank.access_lean_lanes(line, kind, &mut flags);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    assert_eq!(
                        flags[lane],
                        AccessFlags::from(scalar.access(addr, kind)),
                        "custom lane {lane} diverged at step {step} under {replacement}/{write_policy:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn custom_policy_cache_clones_preserve_state() {
    let geometry = CacheGeometry::new(32, 2, 32).unwrap();
    let mut cache = SetAssocCache::new(
        geometry,
        ThirdPartyRm::boxed(geometry),
        ReplacementKind::Lru,
        WritePolicy::WriteThrough,
    );
    cache.reseed(9);
    for i in 0..64u64 {
        cache.access(Address::new(i * 32), AccessKind::Load);
    }
    let clone = cache.clone();
    // The clone sees the same contents under the same layout.
    for i in 0..64u64 {
        let addr = Address::new(i * 32);
        assert_eq!(cache.contains(addr), clone.contains(addr), "line {i}");
    }
    assert_eq!(cache.stats(), clone.stats());
}
