//! The scaffolding every campaign protocol shares: the scoped
//! worker-thread fan-out and the campaign's deterministic seed schedule.
//!
//! Keeping both in one place is what makes the cross-protocol guarantees
//! cheap to state: every engine partitions work identically (so result
//! order is thread-invariant by construction), and every protocol that
//! draws "the campaign's seeds" draws the same ones.

use super::Campaign;
use randmod_core::prng::SeedSequence;
use randmod_core::ConfigError;

/// Fans `items` out over up to `threads` scoped worker threads in
/// contiguous, order-preserving chunks and concatenates the workers'
/// results.  Every campaign engine — seed sweeps, contended sweeps,
/// layout sweeps — shares this one scaffold, so work partitioning (and
/// therefore result order) is identical across protocols by construction.
#[allow(clippy::expect_used)] // re-raising a worker panic is the intended propagation; see the waiver below
pub(super) fn scoped_chunks<T, R, F>(
    items: &[T],
    threads: usize,
    worker: F,
) -> Result<Vec<R>, ConfigError>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Result<Vec<R>, ConfigError> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let threads = threads.min(items.len()).max(1);
    let chunk_size = items.len().div_ceil(threads);
    let worker = &worker;
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || worker(chunk)))
            .collect();
        for handle in handles {
            // randmod: allow(P1, join() only fails when the worker itself panicked; re-raising that panic on the coordinating thread is the intended propagation, not a new failure mode)
            let chunk_result = handle.join().expect("campaign worker thread panicked");
            results.push(chunk_result?);
        }
        Ok::<(), ConfigError>(())
    })?;
    Ok(results.into_iter().flatten().collect())
}

impl Campaign {
    /// The campaign's default seed schedule: the first `runs` draws of its
    /// [`SeedSequence`].  [`Campaign::run`],
    /// [`Campaign::run_contended_campaign`], the adaptive drivers and the
    /// sharded/checkpointed drivers all consume (prefixes or sub-ranges
    /// of) this one sequence, which is what makes their bit-identical
    /// guarantees line up.  Public so external drivers (the experiment
    /// runner's checkpoint file naming, for one) can compute the schedule
    /// a campaign will use without running it.
    pub fn seed_schedule(&self) -> Vec<u64> {
        SeedSequence::new(self.campaign_seed)
            .take(self.runs)
            .collect()
    }
}
