//! Property-based tests of the core placement invariants, across crates.

use proptest::prelude::*;
use randmod::core::benes::BenesNetwork;
use randmod::core::cache::{AccessKind, SetAssocCacheLanes, WritePolicy};
use randmod::core::layout::intra_segment_conflicts;
use randmod::core::{Address, CacheGeometry, LineAddr, PlacementKind, ReplacementKind};

/// Strategy: a valid cache geometry (sets 8..=1024, ways 1..=8, lines 16/32/64).
fn geometry_strategy() -> impl Strategy<Value = CacheGeometry> {
    (
        3u32..=10,
        1u32..=8,
        prop_oneof![Just(16u32), Just(32u32), Just(64u32)],
    )
        .prop_map(|(set_bits, ways, line)| {
            CacheGeometry::new(1 << set_bits, ways, line).expect("generated geometry is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's defining equation: for any geometry, seed and segment,
    /// RM never maps two same-segment addresses with distinct modulo
    /// indices to the same set.
    #[test]
    fn rm_never_conflicts_within_a_segment(
        geometry in geometry_strategy(),
        seed in any::<u64>(),
        segment in 0u64..1_000_000,
    ) {
        let mut policy = PlacementKind::RandomModulo.build(geometry).unwrap();
        policy.reseed(seed);
        let base = LineAddr::new(segment << geometry.index_bits());
        let mut seen = std::collections::HashSet::new();
        for i in 0..geometry.sets() as u64 {
            let set = policy.set_index_of_line(base.offset(i));
            prop_assert!(set < geometry.sets());
            prop_assert!(seen.insert(set), "duplicate set {set} within one segment");
        }
    }

    /// All placement policies are deterministic functions of (address, seed)
    /// and always stay within bounds.
    #[test]
    fn placements_are_deterministic_and_bounded(
        geometry in geometry_strategy(),
        seed in any::<u64>(),
        addresses in prop::collection::vec(0u64..0xFFFF_FFFF, 1..50),
    ) {
        for kind in PlacementKind::ALL {
            let mut a = kind.build(geometry).unwrap();
            let mut b = kind.build(geometry).unwrap();
            a.reseed(seed);
            b.reseed(seed);
            for &raw in &addresses {
                let addr = Address::new(raw);
                let set = a.set_index(addr);
                prop_assert!(set < geometry.sets());
                prop_assert_eq!(set, b.set_index(addr));
            }
        }
    }

    /// Deterministic policies ignore the seed entirely.
    #[test]
    fn deterministic_policies_ignore_the_seed(
        geometry in geometry_strategy(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        raw in 0u64..0xFFFF_FFFF,
    ) {
        for kind in [PlacementKind::Modulo, PlacementKind::Xor] {
            let mut a = kind.build(geometry).unwrap();
            let mut b = kind.build(geometry).unwrap();
            a.reseed(seed_a);
            b.reseed(seed_b);
            prop_assert_eq!(a.set_index(Address::new(raw)), b.set_index(Address::new(raw)));
        }
    }

    /// Every Benes control word realises a bijection on the index space.
    #[test]
    fn benes_networks_are_bijective(
        wires in 1usize..=10,
        controls in any::<u128>(),
    ) {
        let network = BenesNetwork::new(wires);
        let controls = network.mask_controls(controls);
        let mut seen = vec![false; 1 << wires];
        for value in 0..(1u32 << wires) {
            let out = network.permute_bits(value, controls) as usize;
            prop_assert!(out < (1 << wires));
            prop_assert!(!seen[out]);
            seen[out] = true;
        }
    }

    /// Consecutive lines covering exactly one cache way never conflict under
    /// modulo or RM, for any seed (zero intra-segment conflicts).
    #[test]
    fn one_way_of_consecutive_lines_never_conflicts(
        geometry in geometry_strategy(),
        seed in any::<u64>(),
        base_segment in 0u64..10_000,
    ) {
        let base = LineAddr::new(base_segment << geometry.index_bits());
        let lines: Vec<LineAddr> = (0..geometry.sets() as u64).map(|i| base.offset(i)).collect();
        for kind in [PlacementKind::Modulo, PlacementKind::RandomModulo] {
            let mut policy = kind.build(geometry).unwrap();
            policy.reseed(seed);
            prop_assert_eq!(intra_segment_conflicts(policy.as_ref(), &lines), 0);
        }
    }

    /// A cache access for a line that was just filled always hits, for every
    /// placement/replacement combination.
    #[test]
    fn fill_then_access_hits(
        geometry in geometry_strategy(),
        seed in any::<u64>(),
        raw in 0u64..0xFFFF_FFFF,
    ) {
        let line = geometry.line_addr(Address::new(raw));
        for placement in PlacementKind::ALL {
            for replacement in ReplacementKind::ALL {
                let mut cache = SetAssocCacheLanes::with_kinds(
                    geometry,
                    placement,
                    replacement,
                    WritePolicy::WriteThrough,
                    1,
                ).unwrap();
                cache.reseed_wave(&[seed]);
                let cold = cache.access(line, AccessKind::Load, 1);
                prop_assert_eq!((cold.hits, cold.fills), (0, 1));
                prop_assert_eq!(cache.access(line, AccessKind::Load, 1).hits, 1);
            }
        }
    }

    /// Execution on the simulator is reproducible: the same trace and seed
    /// give the same cycle count, whatever the placement policy.
    #[test]
    fn simulation_is_reproducible(
        seed in any::<u64>(),
        stride in prop_oneof![Just(32u64), Just(64u64), Just(4096u64)],
        accesses in 10u64..200,
    ) {
        use randmod::sim::{BatchCore, PlatformConfig, Trace};
        for placement in PlacementKind::ALL {
            let config = PlatformConfig::leon3().with_l1_placement(placement);
            let mut trace = Trace::new();
            for i in 0..accesses {
                trace.load(Address::new(0x1000 + i * stride));
            }
            let mut core = BatchCore::new(&config, 1, 1).unwrap();
            let (a, _) = core.execute_batch(&trace, &[seed])[0];
            let (b, _) = core.execute_batch(&trace, &[seed])[0];
            prop_assert_eq!(a, b);
        }
    }
}
