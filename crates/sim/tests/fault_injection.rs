//! Deterministic fault injection against the checkpointed shard drivers.
//!
//! Robustness is proven, not assumed: every interruption-and-resume path —
//! worker kills before and after each shard boundary's save, IO errors on
//! save and load, truncated checkpoints, bit-flipped records, a corrupted
//! header, a checkpoint from a different campaign — must either converge
//! to the **bit-identical** uninterrupted result on resume or fail with a
//! contextual error, and corrupt shards must be detected via checksum
//! rather than silently merged.  The faults are injected by wrapping the
//! store in a [`FaultyStore`] driven by a [`FaultPlan`]; save operations
//! are counted from 0 and the driver saves once per executed shard, so
//! "save `n`" names the boundary after the `n`-th shard precisely.

use randmod_core::{Address, PlacementKind};
use randmod_sim::checkpoint::{CheckpointError, CheckpointStore, CHECKPOINT_MAGIC};
use randmod_sim::{
    Campaign, CampaignError, CampaignResult, ContendedResult, FaultPlan, FaultyStore,
    FileCheckpointStore, MemoryCheckpointStore, PlatformConfig, Trace,
};

const SHARDS: usize = 4;

fn victim_trace() -> Trace {
    let mut trace = Trace::new();
    for i in 0..1_200u64 {
        trace.fetch(Address::new(0x1000 + (i % 24) * 32));
        trace.load(Address::new(0x10_0000 + (i % 640) * 32));
        if i % 7 == 0 {
            trace.store(Address::new(0x30_0000 + (i % 96) * 32));
        }
    }
    trace
}

fn opponent_trace() -> Trace {
    let mut trace = Trace::new();
    for i in 0..900u64 {
        trace.load(Address::new(0x80_0000 + (i % 2048) * 32));
    }
    trace
}

fn campaign() -> Campaign {
    Campaign::new(
        PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
        12,
    )
    .with_campaign_seed(0xFA_17)
    .with_threads(2)
}

fn reference() -> CampaignResult {
    campaign().run(&victim_trace()).unwrap()
}

/// Runs the solo campaign against a faulty store, expecting `error`;
/// returns the surviving inner store for the resume leg.
fn interrupted_run(plan: FaultPlan) -> (MemoryCheckpointStore, CampaignError) {
    let mut store = FaultyStore::new(MemoryCheckpointStore::new(), plan);
    let err = campaign()
        .run_sharded_checkpointed(&victim_trace(), SHARDS, &mut store)
        .unwrap_err();
    (store.into_inner(), err)
}

/// Resumes from whatever `store` holds and asserts bit-identical
/// convergence, returning the report for extra assertions.
fn resume_and_check(
    store: &mut MemoryCheckpointStore,
) -> randmod_sim::ShardedReport<CampaignResult> {
    let report = campaign()
        .run_sharded_checkpointed(&victim_trace(), SHARDS, store)
        .unwrap();
    assert_eq!(
        report.result,
        reference(),
        "resume diverged from the uninterrupted campaign"
    );
    assert_eq!(report.resumed + report.executed, SHARDS);
    report
}

#[test]
fn kill_before_each_save_resumes_bit_identical() {
    // Killed before save n persists: shards 0..n survive from the previous
    // save, shard n's work is lost and re-runs on resume.
    for boundary in 0..SHARDS {
        let (mut store, err) = interrupted_run(FaultPlan::new().kill_before_save(boundary));
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::Interrupted { .. })
            ),
            "boundary {boundary}: {err}"
        );
        let report = resume_and_check(&mut store);
        assert_eq!(report.resumed, boundary, "boundary {boundary}");
        assert_eq!(report.executed, SHARDS - boundary, "boundary {boundary}");
    }
}

#[test]
fn kill_after_each_save_resumes_bit_identical() {
    // Killed after save n persists: shards 0..=n survive; only the rest
    // re-run.
    for boundary in 0..SHARDS {
        let (mut store, err) = interrupted_run(FaultPlan::new().kill_after_save(boundary));
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::Interrupted { .. })
            ),
            "boundary {boundary}: {err}"
        );
        let report = resume_and_check(&mut store);
        assert_eq!(report.resumed, boundary + 1, "boundary {boundary}");
        assert_eq!(
            report.executed,
            SHARDS - boundary - 1,
            "boundary {boundary}"
        );
    }
}

#[test]
fn io_error_on_save_surfaces_and_resumes() {
    for boundary in 0..SHARDS {
        let (mut store, err) = interrupted_run(FaultPlan::new().error_on_save(boundary));
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::Io { .. })),
            "boundary {boundary}: {err}"
        );
        assert!(err.to_string().contains("injected write fault"), "{err}");
        resume_and_check(&mut store);
    }
}

#[test]
fn io_error_on_load_is_contextual_not_a_fresh_start() {
    // An unreadable checkpoint must NOT silently restart the campaign
    // (that would clobber recoverable progress): it surfaces as an IO
    // error naming the store.
    let mut store = FaultyStore::new(
        MemoryCheckpointStore::new(),
        FaultPlan::new().error_on_load(),
    );
    let err = campaign()
        .run_sharded_checkpointed(&victim_trace(), SHARDS, &mut store)
        .unwrap_err();
    assert!(
        matches!(err, CampaignError::Checkpoint(CheckpointError::Io { .. })),
        "{err}"
    );
    assert!(err.to_string().contains("injected load fault"), "{err}");
}

#[test]
fn truncated_checkpoint_reruns_lost_shards_only() {
    // Save 1 persists (shards 0 and 1), then the file is torn down to 100
    // bytes — past the header, mid-record.  The header survives, the
    // broken record framing drops everything damaged, and resume re-runs
    // what was lost, converging bit-identically.
    let (mut store, _) = interrupted_run(
        FaultPlan::new()
            .truncate_after_save(1, 100)
            .kill_after_save(1),
    );
    let report = resume_and_check(&mut store);
    assert!(
        report.executed >= SHARDS - 1,
        "truncation must cost the damaged records"
    );
    assert!(
        !report.diagnostics.is_empty(),
        "dropped records must be reported, not silent"
    );
}

#[test]
fn truncated_header_restarts_fresh_with_a_diagnostic() {
    // Two unusable headers: torn down to 10 bytes, so not even the header
    // survives; and intact but stamped `RMCKPT01`, the format version
    // before the current checksums.  Either way the campaign restarts from
    // shard 0, says so once, and rewrites the entry in the current format.
    let (torn, _) = interrupted_run(
        FaultPlan::new()
            .truncate_after_save(2, 10)
            .kill_after_save(2),
    );
    let (mut old_version, _) = interrupted_run(FaultPlan::new().kill_after_save(2));
    old_version.mutate(|bytes| bytes[..8].copy_from_slice(b"RMCKPT01"));
    for (mut store, cause) in [(torn, "shorter"), (old_version, "RMCKPT01")] {
        let report = resume_and_check(&mut store);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.executed, SHARDS);
        let [diagnostic] = report.diagnostics.as_slice() else {
            panic!("one diagnostic expected: {:?}", report.diagnostics);
        };
        for needle in ["unusable", cause, "starting fresh"] {
            assert!(diagnostic.contains(needle), "{needle}: {diagnostic}");
        }
        assert_eq!(&store.bytes().unwrap()[..8], CHECKPOINT_MAGIC);
    }
}

#[test]
fn bit_flips_are_detected_never_silently_merged() {
    // Flip one bit somewhere in the checkpoint after save 2 (3 shards
    // recorded).  Wherever it lands — header, record framing, payload —
    // the resumed campaign must converge bit-identically, detecting the
    // damage via checksum instead of merging a corrupt shard.
    let probe = {
        let (store, _) = interrupted_run(FaultPlan::new().kill_after_save(2));
        store.bytes().unwrap().len()
    };
    // Sample byte offsets across the whole file, including the header.
    for byte_index in (0..probe).step_by(probe / 23 + 1) {
        let (mut store, _) = interrupted_run(
            FaultPlan::new()
                .bit_flip_after_save(2, byte_index)
                .kill_after_save(2),
        );
        let report = resume_and_check(&mut store);
        // Three shards were recorded; at most those three resume, and the
        // flip may cost some of them (or all, if it hit the header).
        assert!(
            report.resumed <= 3,
            "byte {byte_index}: resumed {}",
            report.resumed
        );
    }
}

#[test]
fn checkpoint_from_a_different_campaign_is_refused() {
    let mut store = MemoryCheckpointStore::new();
    campaign()
        .run_sharded_checkpointed(&victim_trace(), SHARDS, &mut store)
        .unwrap();
    // Same store, different trace: the fingerprint disagrees and the
    // driver must refuse rather than resume or clobber.
    let err = campaign()
        .run_sharded_checkpointed(&opponent_trace(), SHARDS, &mut store)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CampaignError::Checkpoint(CheckpointError::Mismatch { .. })
        ),
        "{err}"
    );
    // The original campaign still resumes untouched.
    let report = campaign()
        .run_sharded_checkpointed(&victim_trace(), SHARDS, &mut store)
        .unwrap();
    assert_eq!(report.result, reference());
    assert_eq!(report.resumed, SHARDS);
}

#[test]
fn contended_faults_resume_bit_identical_too() {
    // The contended driver shares the solo driver's resume logic; pin one
    // end-to-end kill-and-resume to keep it that way.
    let sources = [victim_trace(), opponent_trace()];
    let reference: ContendedResult = campaign().run_contended_campaign(&sources).unwrap();
    for boundary in [0, 2] {
        let mut store = FaultyStore::new(
            MemoryCheckpointStore::new(),
            FaultPlan::new().kill_before_save(boundary),
        );
        let err = campaign()
            .run_contended_sharded_checkpointed(&sources, SHARDS, &mut store)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Checkpoint(CheckpointError::Interrupted { .. })
            ),
            "{err}"
        );
        let mut inner = store.into_inner();
        let report = campaign()
            .run_contended_sharded_checkpointed(&sources, SHARDS, &mut inner)
            .unwrap();
        assert_eq!(report.result, reference, "boundary {boundary}");
        assert_eq!(report.resumed, boundary);
        assert_eq!(report.executed, SHARDS - boundary);
    }
}

#[test]
fn file_store_survives_a_kill_between_processes() {
    // The file store is what real campaigns use: run with a kill plan,
    // then resume through a *fresh* FileCheckpointStore (as a restarted
    // process would), and converge bit-identically.
    let path = std::env::temp_dir().join(format!("randmod-fault-test-{}.ckpt", std::process::id()));
    let mut first = FaultyStore::new(
        FileCheckpointStore::new(&path),
        FaultPlan::new().kill_after_save(1),
    );
    let err = campaign()
        .run_sharded_checkpointed(&victim_trace(), SHARDS, &mut first)
        .unwrap_err();
    assert!(err.to_string().contains("interrupted"), "{err}");
    let mut fresh = FileCheckpointStore::new(&path);
    let report = campaign()
        .run_sharded_checkpointed(&victim_trace(), SHARDS, &mut fresh)
        .unwrap();
    assert_eq!(report.result, reference());
    assert_eq!(report.resumed, 2);
    assert_eq!(report.executed, SHARDS - 2);
    fresh.clear().unwrap();
    assert!(fresh.load().unwrap().is_none());
}
