//! Fixture tests: every rule has at least one failing fixture, one clean
//! fixture, one waived-with-reason fixture and one malformed-waiver
//! fixture.  Fixtures are inline strings scanned under synthetic
//! workspace-relative paths, so the scope machinery (engine / hot-path /
//! codec classification, `#[cfg(test)]` exemption) is exercised exactly
//! as in a real run.

use randmod_lint::rules::{classify, scan_source, RuleId, ScanOutcome};

/// Scans `src` as if it lived at `path` in the workspace.
fn scan(path: &str, src: &str) -> ScanOutcome {
    let scope = classify(path).unwrap_or_else(|| panic!("fixture path {path} must be in scope"));
    scan_source(path, src, scope)
}

fn rule_ids(outcome: &ScanOutcome) -> Vec<RuleId> {
    outcome.violations.iter().map(|v| v.rule).collect()
}

/// A hot-path engine file (P1 + D1/D2 apply, and it is also a codec file).
const HOT: &str = "crates/sim/src/checkpoint.rs";
/// An engine file that is neither hot-path nor codec (D1/D2 only).
const ENGINE: &str = "crates/core/src/address.rs";
/// A non-engine file (only W1 applies).
const TOOL: &str = "crates/cli/src/main.rs";

// ---------------------------------------------------------------------------
// D1: no wall-clock / entropy / environment
// ---------------------------------------------------------------------------

#[test]
fn d1_flags_every_nondeterminism_source() {
    let src = r#"
        fn bad() {
            let t = std::time::SystemTime::now();
            let i = std::time::Instant::now();
            let home = std::env::var("HOME");
            let id = std::thread::current().id();
            let s = std::collections::hash_map::RandomState::new();
        }
    "#;
    let outcome = scan(ENGINE, src);
    let d1 = outcome
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::D1)
        .count();
    assert!(
        d1 >= 5,
        "expected all five D1 sources flagged, got {outcome:?}"
    );
}

#[test]
fn d1_ignores_non_engine_files() {
    let src = "fn ok() { let t = std::time::SystemTime::now(); }";
    let outcome = scan(TOOL, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

#[test]
fn d1_exempts_cfg_test_modules() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            fn timed() { let t = std::time::SystemTime::now(); }
        }
    "#;
    let outcome = scan(ENGINE, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

#[test]
fn d1_still_checks_cfg_not_test() {
    let src = r#"
        #[cfg(not(test))]
        fn prod() { let t = std::time::SystemTime::now(); }
    "#;
    let outcome = scan(ENGINE, src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::D1], "{outcome:?}");
}

#[test]
fn d1_waived_with_reason_is_suppressed_and_counted() {
    let src = "fn f() { let t = std::time::Instant::now(); } // randmod: allow(D1, progress display only, never enters results)";
    let outcome = scan(ENGINE, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
    assert_eq!(outcome.waivers.len(), 1);
    assert!(outcome.waivers[0].used, "waiver must be marked used");
}

// ---------------------------------------------------------------------------
// D2: no unordered collections
// ---------------------------------------------------------------------------

#[test]
fn d2_flags_hash_collections() {
    let src = r#"
        use std::collections::HashMap;
        fn f() { let m: HashMap<u32, u32> = HashMap::new(); }
    "#;
    let outcome = scan(ENGINE, src);
    assert!(
        outcome.violations.iter().all(|v| v.rule == RuleId::D2) && outcome.violations.len() >= 2,
        "{outcome:?}"
    );
}

#[test]
fn d2_accepts_ordered_collections() {
    let src = r#"
        use std::collections::{BTreeMap, BTreeSet};
        fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }
    "#;
    let outcome = scan(ENGINE, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

#[test]
fn d2_exempts_test_only_use() {
    let src = r#"
        #[cfg(test)]
        use std::collections::HashSet;
        fn untouched() {}
    "#;
    let outcome = scan(ENGINE, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

#[test]
fn d2_waiver_missing_reason_is_a_w1_violation_and_does_not_suppress() {
    let src = "use std::collections::HashMap; // randmod: allow(D2)";
    let outcome = scan(ENGINE, src);
    let ids = rule_ids(&outcome);
    assert!(
        ids.contains(&RuleId::W1),
        "missing reason must be W1: {outcome:?}"
    );
    assert!(
        ids.contains(&RuleId::D2),
        "a malformed waiver must not suppress: {outcome:?}"
    );
}

// ---------------------------------------------------------------------------
// P1: panic-freedom in hot-path modules
// ---------------------------------------------------------------------------

#[test]
fn p1_flags_the_whole_panic_family() {
    let src = r#"
        fn f(v: Vec<u32>) -> u32 {
            let a = v.first().unwrap();
            let b = v.first().expect("non-empty");
            if v.is_empty() { panic!("empty"); }
            match a { 0 => unreachable!("zero filtered"), _ => {} }
            todo!("later")
        }
    "#;
    let outcome = scan(HOT, src);
    let p1 = outcome
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::P1)
        .count();
    assert_eq!(p1, 5, "{outcome:?}");
}

#[test]
fn p1_flags_slice_indexing_but_not_types_attributes_or_literals() {
    let src = r#"
        #[derive(Clone)]
        struct S { data: Vec<u32> }
        fn f(s: &S, buf: &mut [u8], i: usize) -> u32 {
            let arr = [0u8; 4];
            let _ = buf.len();
            let _ = arr;
            s.data[i]
        }
    "#;
    let outcome = scan(HOT, src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::P1], "{outcome:?}");
    assert_eq!(outcome.violations[0].snippet, "s.data[i]");
}

#[test]
fn p1_does_not_apply_outside_hot_path_modules() {
    let src = "fn f(v: Vec<u32>) -> u32 { v[0] + v.first().unwrap() }";
    let outcome = scan(ENGINE, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

#[test]
fn p1_item_scoped_waiver_covers_the_whole_function() {
    let src = r#"
        // randmod: allow(P1, i < v.len() is asserted by every caller)
        fn f(v: &[u32], i: usize) -> u32 {
            let x = v[i];
            x + v[i]
        }
        fn unwaived(v: &[u32], i: usize) -> u32 { v[i] }
    "#;
    let outcome = scan(HOT, src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::P1], "{outcome:?}");
    assert_eq!(
        outcome.violations[0].snippet,
        "fn unwaived(v: &[u32], i: usize) -> u32 { v[i] }"
    );
    assert!(outcome.waivers[0].used);
}

#[test]
fn p1_trailing_waiver_covers_only_its_line() {
    let src = r#"
        fn f(v: &[u32]) -> u32 {
            let a = v[0]; // randmod: allow(P1, guarded by the is_empty check above)
            v[1]
        }
    "#;
    let outcome = scan(HOT, src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::P1], "{outcome:?}");
    assert_eq!(outcome.violations[0].snippet, "v[1]");
}

#[test]
fn p1_exempts_test_code_in_hot_files() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn asserts_freely() {
                let v = vec![1u32];
                assert_eq!(v[0], v.first().copied().unwrap());
            }
        }
    "#;
    let outcome = scan(HOT, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

// ---------------------------------------------------------------------------
// C1: truncating casts in codec paths
// ---------------------------------------------------------------------------

#[test]
fn c1_flags_truncating_casts_in_codec_files() {
    let src = "fn f(len: u64) -> usize { len as usize }";
    let outcome = scan(HOT, src); // checkpoint.rs is also a codec file
    assert_eq!(rule_ids(&outcome), vec![RuleId::C1], "{outcome:?}");
}

#[test]
fn c1_accepts_widening_casts() {
    let src = "fn f(x: u32) -> u64 { x as u64 }";
    let outcome = scan(HOT, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

#[test]
fn c1_does_not_apply_outside_codec_files() {
    let src = "fn f(x: u64) -> u32 { x as u32 }";
    let outcome = scan(ENGINE, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
}

#[test]
fn c1_waived_with_reason_is_suppressed() {
    let src =
        "fn f(x: u64) -> u32 { x as u32 } // randmod: allow(C1, x is a CRC-32, provably < 2^32)";
    let outcome = scan(HOT, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
    assert!(outcome.waivers[0].used);
}

// ---------------------------------------------------------------------------
// W1: waiver hygiene
// ---------------------------------------------------------------------------

#[test]
fn w1_flags_unknown_rule_names() {
    let src = "fn f() {} // randmod: allow(Z9, no such rule)";
    let outcome = scan(TOOL, src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::W1], "{outcome:?}");
}

#[test]
fn w1_flags_empty_reasons() {
    let src = "fn f() {} // randmod: allow(P1,    )";
    let outcome = scan(HOT, src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::W1], "{outcome:?}");
}

#[test]
fn misspelled_waiver_marker_is_ignored_and_violation_still_fires() {
    // `alow` is not a waiver: the violation it meant to suppress still
    // fires, so the typo is self-announcing rather than silently fatal.
    let src = "fn f(v: &[u32]) -> u32 { v[0] } // randmod: alow(P1, typo)";
    let outcome = scan(HOT, src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::P1], "{outcome:?}");
    assert!(outcome.waivers.is_empty());
}

#[test]
fn unused_waivers_are_reported_not_silently_dropped() {
    let src = "// randmod: allow(D1, stale reason for code that was since fixed)\nfn f() {}";
    let outcome = scan(ENGINE, src);
    assert!(outcome.violations.is_empty(), "{outcome:?}");
    assert_eq!(outcome.waivers.len(), 1);
    assert!(
        !outcome.waivers[0].used,
        "nothing suppressed, must stay unused"
    );
}

// ---------------------------------------------------------------------------
// Scope classification
// ---------------------------------------------------------------------------

#[test]
fn classification_matches_the_documented_scopes() {
    let engine = classify("crates/core/src/address.rs").unwrap();
    assert!(engine.engine && !engine.hot_path && !engine.codec);

    for hot_path in [
        "crates/core/src/benes.rs",
        "crates/core/src/cache.rs",
        "crates/sim/src/hierarchy.rs",
        "crates/core/src/placement.rs",
        "crates/core/src/prng.rs",
        "crates/core/src/replacement.rs",
    ] {
        let hot = classify(hot_path).unwrap();
        assert!(
            hot.engine && hot.hot_path,
            "{hot_path} must be panic-free: {hot:?}"
        );
    }

    let run = classify("crates/sim/src/run/engine.rs").unwrap();
    assert!(
        run.engine && run.hot_path,
        "everything under run/ is hot-path"
    );

    let codec = classify("crates/sim/src/packed.rs").unwrap();
    assert!(codec.codec && codec.hot_path);

    let wire = classify("crates/sim/src/wire.rs").unwrap();
    assert!(wire.codec && wire.hot_path);

    assert!(
        classify("crates/sim/tests/shards.rs").is_none(),
        "test trees are skipped"
    );
    assert!(classify("crates/core/benches/probe.rs").is_none());
    assert!(classify("vendor/proptest-stub/src/lib.rs").is_none());
    assert!(
        classify("crates/core/src/notes.md").is_none(),
        "non-Rust files are skipped"
    );

    let tool = classify("crates/cli/src/main.rs").unwrap();
    assert!(
        !tool.engine && !tool.hot_path && !tool.codec,
        "W1-only scope"
    );

    // The server's hostile-byte surfaces get P1 + C1 but not the
    // determinism rules (a server legitimately reads clocks/sockets).
    for guarded in ["crates/server/src/http.rs", "crates/server/src/body.rs"] {
        let scope = classify(guarded).unwrap();
        assert!(
            !scope.engine && scope.hot_path && scope.codec,
            "{guarded} must be panic-free and cast-audited: {scope:?}"
        );
    }
    let service = classify("crates/server/src/service.rs").unwrap();
    assert!(!service.engine && !service.hot_path && !service.codec);
    assert!(classify("crates/server/tests/protocol.rs").is_none());
}

// ---------------------------------------------------------------------------
// Injection smoke test: the acceptance scenario from the issue
// ---------------------------------------------------------------------------

#[test]
fn injecting_system_time_into_the_run_engine_fails_the_gate() {
    let src = r#"
        pub fn run(&self) {
            let started = std::time::SystemTime::now();
            let _ = started;
        }
    "#;
    let outcome = scan("crates/sim/src/run/engine.rs", src);
    assert_eq!(rule_ids(&outcome), vec![RuleId::D1], "{outcome:?}");
}
