//! Co-runner composition for shared-L2 contention campaigns.
//!
//! A [`CoSchedule`] pairs one *victim* workload (task 0, the task whose
//! pWCET the analysis bounds) with a set of [`Opponent`] co-runners that
//! share its L2 partition.  Opponents model the three co-runner classes of
//! interest:
//!
//! * [`Opponent::Idle`] — an empty trace: the solo baseline every
//!   contended sweep is normalised against (and the configuration that
//!   must reproduce the single-task protocol bit-for-bit);
//! * [`Opponent::Stress`] — the L2-sized [`EembcStress`] kernel, the
//!   worst-class cache polluter;
//! * [`Opponent::Synthetic`] — a [`SyntheticKernel`] sweep opponent with a
//!   configurable footprint, for pressure between idle and full stress.
//!
//! [`CoSchedule::pressure_level`] builds the standard four-step opponent
//! ladder the `fig6_contention` experiment sweeps.

use crate::eembc::EembcStress;
use crate::layout::MemoryLayout;
use crate::synthetic::SyntheticKernel;
use crate::Workload;
use randmod_sim::PackedTrace;
use std::fmt;

/// Base address offset applied to opponent address streams so co-runners
/// live in their own address-space region (separate tasks do not share
/// code or data in this model).
const OPPONENT_REGION_BYTES: u64 = 64 * 1024 * 1024;

/// One co-runner of a contended campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opponent {
    /// An idle core: emits no events.
    Idle,
    /// The EEMBC-like L2 stress kernel.
    Stress(EembcStress),
    /// A synthetic vector-traversal kernel.
    Synthetic(SyntheticKernel),
}

impl Opponent {
    /// Short label used in experiment output.
    pub fn label(&self) -> String {
        match self {
            Opponent::Idle => "idle".to_string(),
            Opponent::Stress(stress) => stress.name(),
            Opponent::Synthetic(kernel) => kernel.name(),
        }
    }

    /// Renders the opponent's packed trace for slot `index` of a
    /// co-schedule (each opponent gets a disjoint address-space region).
    pub fn packed_trace(&self, layout: &MemoryLayout, index: usize) -> PackedTrace {
        let offset = (index as u64 + 1) * OPPONENT_REGION_BYTES;
        let region = layout.with_offsets(offset, offset);
        match self {
            Opponent::Idle => PackedTrace::new(),
            Opponent::Stress(stress) => stress.packed_trace(&region),
            Opponent::Synthetic(kernel) => kernel.packed_trace(&region),
        }
    }
}

impl fmt::Display for Opponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A victim workload plus its co-runners: the unit of work of a contended
/// campaign.
///
/// ```
/// use randmod_workloads::{CoSchedule, Opponent, SyntheticKernel, MemoryLayout};
///
/// let schedule = CoSchedule::new(SyntheticKernel::fits_l2())
///     .with_opponent(Opponent::Stress(randmod_workloads::EembcStress::l2_sized()));
/// assert_eq!(schedule.task_count(), 2);
/// let traces = schedule.packed_traces(&MemoryLayout::default());
/// assert_eq!(traces.len(), 2);
/// assert!(!traces[0].is_empty() && !traces[1].is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CoSchedule<W> {
    victim: W,
    opponents: Vec<Opponent>,
}

impl<W: Workload> CoSchedule<W> {
    /// Creates a co-schedule of `victim` with no opponents yet (a bare
    /// victim is implicitly solo; add [`Opponent::Idle`] to model an
    /// explicit idle core).
    pub fn new(victim: W) -> Self {
        CoSchedule {
            victim,
            opponents: Vec::new(),
        }
    }

    /// Appends one opponent.
    #[must_use]
    pub fn with_opponent(mut self, opponent: Opponent) -> Self {
        self.opponents.push(opponent);
        self
    }

    /// The victim workload (task 0).
    pub fn victim(&self) -> &W {
        &self.victim
    }

    /// The opponents, in task order (tasks 1..).
    pub fn opponents(&self) -> &[Opponent] {
        &self.opponents
    }

    /// Total number of tasks (victim plus opponents).
    pub fn task_count(&self) -> usize {
        1 + self.opponents.len()
    }

    /// Whether every opponent is idle (the solo configuration).
    pub fn is_solo(&self) -> bool {
        self.opponents.iter().all(|o| *o == Opponent::Idle)
    }

    /// Human-readable label, e.g. `synthetic-20kb vs eembc-stress-128kb+idle`.
    pub fn label(&self) -> String {
        if self.opponents.is_empty() {
            format!("{} solo", self.victim.name())
        } else {
            let opponents: Vec<String> = self.opponents.iter().map(Opponent::label).collect();
            format!("{} vs {}", self.victim.name(), opponents.join("+"))
        }
    }

    /// Renders every task's packed trace (victim first) — the `sources`
    /// argument of `Campaign::run_contended`.
    pub fn packed_traces(&self, layout: &MemoryLayout) -> Vec<PackedTrace> {
        let mut traces = Vec::with_capacity(self.task_count());
        traces.push(self.victim.packed_trace(layout));
        for (index, opponent) in self.opponents.iter().enumerate() {
            traces.push(opponent.packed_trace(layout, index));
        }
        traces
    }

    /// The standard opponent ladder of the contention experiments:
    ///
    /// | level | opponents |
    /// |---|---|
    /// | 0 | one idle core |
    /// | 1 | one 20KB synthetic sweeper |
    /// | 2 | one L2-sized stress kernel |
    /// | 3 | three L2-sized stress kernels |
    ///
    /// # Panics
    ///
    /// Panics if `level > 3`.
    pub fn pressure_level(victim: W, level: usize) -> Self {
        let mut schedule = CoSchedule::new(victim);
        match level {
            0 => schedule = schedule.with_opponent(Opponent::Idle),
            1 => {
                schedule = schedule.with_opponent(Opponent::Synthetic(
                    SyntheticKernel::with_traversals(20 * 1024, 25),
                ));
            }
            2 => {
                schedule = schedule
                    .with_opponent(Opponent::Stress(EembcStress::with_passes(128 * 1024, 32)))
            }
            3 => {
                for _ in 0..3 {
                    schedule = schedule
                        .with_opponent(Opponent::Stress(EembcStress::with_passes(128 * 1024, 32)));
                }
            }
            _ => panic!("pressure level {level} is out of range (0..=3)"),
        }
        schedule
    }

    /// Number of pressure levels in the standard ladder.
    pub const PRESSURE_LEVELS: usize = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_opponents_emit_nothing() {
        let schedule = CoSchedule::new(SyntheticKernel::with_traversals(4 * 1024, 2))
            .with_opponent(Opponent::Idle);
        assert!(schedule.is_solo());
        let traces = schedule.packed_traces(&MemoryLayout::default());
        assert_eq!(traces.len(), 2);
        assert!(!traces[0].is_empty());
        assert!(traces[1].is_empty());
    }

    #[test]
    fn opponents_live_in_disjoint_regions() {
        let schedule = CoSchedule::new(SyntheticKernel::with_traversals(4 * 1024, 1))
            .with_opponent(Opponent::Synthetic(SyntheticKernel::with_traversals(
                4 * 1024,
                1,
            )))
            .with_opponent(Opponent::Synthetic(SyntheticKernel::with_traversals(
                4 * 1024,
                1,
            )));
        let traces = schedule.packed_traces(&MemoryLayout::default());
        let footprints: Vec<(u64, u64)> = traces
            .iter()
            .map(|t| {
                let events: Vec<_> = t
                    .iter()
                    .filter_map(|e| e.address())
                    .map(|a| a.raw())
                    .collect();
                (
                    events.iter().copied().min().unwrap(),
                    events.iter().copied().max().unwrap(),
                )
            })
            .collect();
        // Victim below opponent 0 below opponent 1, with no overlap.
        assert!(footprints[0].1 < footprints[1].0);
        assert!(footprints[1].1 < footprints[2].0);
    }

    #[test]
    fn labels_name_victim_and_opponents() {
        let solo = CoSchedule::new(SyntheticKernel::fits_l2());
        assert_eq!(solo.label(), "synthetic-20kb solo");
        assert!(solo.is_solo());
        let contended = CoSchedule::new(SyntheticKernel::fits_l2())
            .with_opponent(Opponent::Stress(EembcStress::l2_sized()))
            .with_opponent(Opponent::Idle);
        assert_eq!(
            contended.label(),
            "synthetic-20kb vs eembc-stress-128kb+idle"
        );
        assert!(!contended.is_solo());
        assert_eq!(contended.task_count(), 3);
        assert_eq!(Opponent::Idle.to_string(), "idle");
    }

    #[test]
    fn pressure_ladder_is_monotone_in_opponent_traffic() {
        let mut previous = 0usize;
        for level in 0..CoSchedule::<SyntheticKernel>::PRESSURE_LEVELS {
            let schedule =
                CoSchedule::pressure_level(SyntheticKernel::with_traversals(4 * 1024, 1), level);
            let traces = schedule.packed_traces(&MemoryLayout::default());
            let opponent_events: usize = traces[1..].iter().map(|t| t.len()).sum();
            assert!(
                opponent_events >= previous,
                "pressure level {level} emits less opponent traffic than level {}",
                level - 1
            );
            previous = opponent_events;
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pressure_level_out_of_range_panics() {
        CoSchedule::pressure_level(SyntheticKernel::fits_l1(), 4);
    }
}
