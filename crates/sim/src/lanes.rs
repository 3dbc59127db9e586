//! The lane-batched execution machinery.
//!
//! The engine ([`crate::batch::BatchCore`]) replays one immutable program
//! — one task's trace, or an interleaved co-schedule of several — under
//! many placement seeds.  The machinery that makes that fast lives here:
//!
//! * **Same-line run collapsing** ([`replay_collapsed`] for the streaming
//!   one-task path, [`interleave`] for the precomputed schedules): runs of
//!   consecutive reads of one cache line — the dominant pattern of
//!   straight-line instruction fetch and sequential data traversal — are
//!   detected once at decode time.  The first access runs in full per
//!   lane; every repeat is then a guaranteed L1 hit in every lane (the
//!   first access left the line resident, and a repeat read hit mutates no
//!   cache state: `touch` of the just-touched way is idempotent for LRU
//!   and a no-op otherwise, and reads never dirty a line), so the repeats
//!   add the same hits and cycles to every lane, booked once per task.
//! * **Lane fan-out through one interface** ([`LaneStepper`]): the decode
//!   loops emit each collapsed operation exactly once, and the lane
//!   hierarchy (`crate::hierarchy::LaneHierarchy`) implements the
//!   per-lane stepping (K lanes of caches, per-task shared counts and
//!   per-lane miss counts) behind the trait, as one masked access per
//!   cache level: every active lane at the L1, the lanes whose L1 missed
//!   at the L2.  The line address of the fronting L1 is computed once per
//!   operation and shared across all lanes.
//!
//! A campaign decodes and interleaves **before** replay: the interleaved
//! event stream is decided by round-robin arbitration alone — the
//! placement seed never enters an arbitration decision — so
//! [`interleave`] produces the collapsed [`Op`] schedule once per
//! campaign and [`replay_ops`] replays it across placement-seed lanes.
//! Collapsing stays sound across task switches because each task's L1s are
//! private: an opponent's event can never evict the line a victim's repeat
//! read is about to hit, so a per-task run survives any interleaving (the
//! swallowed repeats touch no shared state, which is also why deleting them
//! from the merged schedule preserves every shared-L2 transition
//! bit-for-bit).

use crate::trace::MemEvent;
use randmod_core::{Address, LineAddr};

/// The per-lane stepping interface of the collapsed replay drivers.
///
/// Implementations own the lanes (caches, cycle counters, statistics
/// blocks) and fan each collapsed operation out across them; the drivers
/// guarantee each operation is emitted exactly once, in program (one
/// task) or arbitration (several tasks) order, with the fronting L1's
/// line address precomputed.  `repeats` counts the *extra* same-line
/// reads collapsed into the operation (0 for a lone access); each one is
/// a guaranteed L1 hit costing the L1-hit latency.
pub(crate) trait LaneStepper {
    /// One instruction fetch by `task`, plus `repeats` collapsed same-line
    /// repeat fetches.
    fn fetch(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64);
    /// One data load by `task`, plus `repeats` collapsed same-line repeat
    /// loads.
    fn load(&mut self, task: usize, addr: Address, line: LineAddr, repeats: u64);
    /// One data store by `task` (stores never collapse).
    fn store(&mut self, task: usize, addr: Address, line: LineAddr);
    /// A computation interval of `task`.
    fn compute(&mut self, task: usize, cycles: u64);
}

/// Streams `events` through `stepper` as task 0, collapsing same-line read
/// runs at decode time — the streaming one-task replay loop.  The trace
/// is decoded exactly once however many lanes the stepper fans out to.
pub(crate) fn replay_collapsed<I>(
    events: I,
    il1_shift: u32,
    dl1_shift: u32,
    stepper: &mut impl LaneStepper,
) where
    I: IntoIterator<Item = MemEvent>,
{
    let mut iter = events.into_iter();
    let mut pending = iter.next();
    while let Some(event) = pending {
        pending = iter.next();
        match event {
            MemEvent::InstrFetch(addr) => {
                let line = addr.raw() >> il1_shift;
                let mut repeats = 0u64;
                while let Some(MemEvent::InstrFetch(next)) = pending {
                    if next.raw() >> il1_shift != line {
                        break;
                    }
                    repeats += 1;
                    pending = iter.next();
                }
                stepper.fetch(0, addr, LineAddr::new(line), repeats);
            }
            MemEvent::Load(addr) => {
                let line = addr.raw() >> dl1_shift;
                let mut repeats = 0u64;
                while let Some(MemEvent::Load(next)) = pending {
                    if next.raw() >> dl1_shift != line {
                        break;
                    }
                    repeats += 1;
                    pending = iter.next();
                }
                stepper.load(0, addr, LineAddr::new(line), repeats);
            }
            MemEvent::Store(addr) => {
                stepper.store(0, addr, LineAddr::new(addr.raw() >> dl1_shift));
            }
            MemEvent::Compute(cycles) => stepper.compute(0, cycles as u64),
        }
    }
}

/// One collapsed operation of a precomputed interleaved schedule: which
/// task issues it, the address, the fronting L1's line address, and how
/// many same-line repeat reads were collapsed into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// An instruction fetch plus `repeats` collapsed repeat fetches.
    Fetch {
        /// Issuing task.
        task: u32,
        /// Accessed address.
        addr: Address,
        /// The IL1 line of `addr`.
        line: LineAddr,
        /// Collapsed same-line repeat fetches.
        repeats: u64,
    },
    /// A data load plus `repeats` collapsed repeat loads.
    Load {
        /// Issuing task.
        task: u32,
        /// Accessed address.
        addr: Address,
        /// The DL1 line of `addr`.
        line: LineAddr,
        /// Collapsed same-line repeat loads.
        repeats: u64,
    },
    /// A data store (never collapsed).
    Store {
        /// Issuing task.
        task: u32,
        /// Accessed address.
        addr: Address,
        /// The DL1 line of `addr`.
        line: LineAddr,
    },
    /// A computation interval.
    Compute {
        /// Issuing task.
        task: u32,
        /// Cycle cost.
        cycles: u64,
    },
}

/// Interleaves the task streams under round-robin arbitration — tasks
/// take turns in index order, skipping exhausted traces — and collapses
/// per-task same-line read runs, producing the [`Op`] schedule the engine
/// replays across placement lanes.
///
/// Streams beyond `tasks` are ignored and missing streams behave as idle
/// tasks.  Every event takes one arbitration step, collapsed or not, so
/// collapsing never changes the interleave.  A task's read run stays open
/// across other tasks' turns (their events cannot touch its private L1)
/// and is closed by any non-matching event of its own.
// randmod: allow(P1, every vector in this arena — streams, pending, open — is resized to exactly `tasks` before the loop, the round-robin cursor is reduced mod `tasks` on every step and its scan ends because `ready > 0` counts a pending task, ops indices come from ops.len() at push time, and the take() runs only after the scan stopped on a Some; the whole schedule is pinned against the naive contention reference by the reference-model proptests)
#[allow(clippy::expect_used)]
pub(crate) fn interleave<I>(
    streams: Vec<I>,
    tasks: usize,
    il1_shift: u32,
    dl1_shift: u32,
) -> Vec<Op>
where
    I: Iterator<Item = MemEvent>,
{
    /// An open same-line read run of one task: the index of its op in the
    /// schedule, whether it is a fetch run (else a load run), and the line.
    type OpenRun = (usize, bool, u64);

    let mut streams: Vec<Option<I>> = streams.into_iter().map(Some).take(tasks).collect();
    streams.resize_with(tasks, || None);
    let mut pending: Vec<Option<MemEvent>> = streams
        .iter_mut()
        .map(|s| s.as_mut().and_then(Iterator::next))
        .collect();
    let mut ready = pending.iter().filter(|p| p.is_some()).count();
    let mut open: Vec<Option<OpenRun>> = vec![None; tasks];
    let mut ops: Vec<Op> = Vec::new();
    let mut cursor = 0usize;
    while ready > 0 {
        while pending[cursor].is_none() {
            cursor = (cursor + 1) % tasks;
        }
        let task = cursor;
        cursor = (cursor + 1) % tasks;
        let event = pending[task]
            .take()
            .expect("arbitration picked a ready task");
        match event {
            MemEvent::InstrFetch(addr) => {
                let line = addr.raw() >> il1_shift;
                match open[task] {
                    Some((index, true, open_line)) if open_line == line => {
                        if let Op::Fetch { repeats, .. } = &mut ops[index] {
                            *repeats += 1;
                        }
                    }
                    _ => {
                        open[task] = Some((ops.len(), true, line));
                        ops.push(Op::Fetch {
                            task: task as u32,
                            addr,
                            line: LineAddr::new(line),
                            repeats: 0,
                        });
                    }
                }
            }
            MemEvent::Load(addr) => {
                let line = addr.raw() >> dl1_shift;
                match open[task] {
                    Some((index, false, open_line)) if open_line == line => {
                        if let Op::Load { repeats, .. } = &mut ops[index] {
                            *repeats += 1;
                        }
                    }
                    _ => {
                        open[task] = Some((ops.len(), false, line));
                        ops.push(Op::Load {
                            task: task as u32,
                            addr,
                            line: LineAddr::new(line),
                            repeats: 0,
                        });
                    }
                }
            }
            MemEvent::Store(addr) => {
                open[task] = None;
                ops.push(Op::Store {
                    task: task as u32,
                    addr,
                    line: LineAddr::new(addr.raw() >> dl1_shift),
                });
            }
            MemEvent::Compute(cycles) => {
                open[task] = None;
                ops.push(Op::Compute {
                    task: task as u32,
                    cycles: cycles as u64,
                });
            }
        }
        pending[task] = streams[task].as_mut().and_then(Iterator::next);
        if pending[task].is_none() {
            ready -= 1;
        }
    }
    ops
}

/// Replays a precomputed collapsed schedule through `stepper` — the
/// counterpart of [`replay_collapsed`] that amortises the decode +
/// interleave across every placement-seed lane that shares the schedule.
pub(crate) fn replay_ops(ops: &[Op], stepper: &mut impl LaneStepper) {
    for &op in ops {
        match op {
            Op::Fetch {
                task,
                addr,
                line,
                repeats,
            } => stepper.fetch(task as usize, addr, line, repeats),
            Op::Load {
                task,
                addr,
                line,
                repeats,
            } => stepper.load(task as usize, addr, line, repeats),
            Op::Store { task, addr, line } => stepper.store(task as usize, addr, line),
            Op::Compute { task, cycles } => stepper.compute(task as usize, cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    /// The round-robin interleave at 32-byte lines.
    fn round_robin<I: Iterator<Item = MemEvent>>(streams: Vec<I>, tasks: usize) -> Vec<Op> {
        interleave(streams, tasks, 5, 5)
    }

    /// Records every stepped operation, for asserting driver semantics.
    #[derive(Default)]
    struct Recorder {
        steps: Vec<(usize, char, u64, u64)>,
    }

    impl LaneStepper for Recorder {
        fn fetch(&mut self, task: usize, addr: Address, _line: LineAddr, repeats: u64) {
            self.steps.push((task, 'F', addr.raw(), repeats));
        }
        fn load(&mut self, task: usize, addr: Address, _line: LineAddr, repeats: u64) {
            self.steps.push((task, 'L', addr.raw(), repeats));
        }
        fn store(&mut self, task: usize, addr: Address, _line: LineAddr) {
            self.steps.push((task, 'S', addr.raw(), 0));
        }
        fn compute(&mut self, task: usize, cycles: u64) {
            self.steps.push((task, 'C', cycles, 0));
        }
    }

    #[test]
    fn solo_driver_collapses_same_line_read_runs() {
        let mut trace = Trace::new();
        // Three fetches of one 32-byte line, a load run crossing a line
        // boundary, a store, a compute.
        trace.fetch(Address::new(0x1000));
        trace.fetch(Address::new(0x1004));
        trace.fetch(Address::new(0x1008));
        trace.load(Address::new(0x2000));
        trace.load(Address::new(0x2010));
        trace.load(Address::new(0x2020));
        trace.store(Address::new(0x3000));
        trace.compute(7);
        let mut recorder = Recorder::default();
        replay_collapsed(&trace, 5, 5, &mut recorder);
        assert_eq!(
            recorder.steps,
            vec![
                (0, 'F', 0x1000, 2),
                (0, 'L', 0x2000, 1),
                (0, 'L', 0x2020, 0),
                (0, 'S', 0x3000, 0),
                (0, 'C', 7, 0),
            ]
        );
    }

    #[test]
    fn interleave_preserves_round_robin_order_and_collapses_per_task() {
        let mut victim = Trace::new();
        victim.load(Address::new(0x1000));
        victim.load(Address::new(0x1010)); // same line: collapses
        victim.store(Address::new(0x5000));
        let mut opponent = Trace::new();
        opponent.load(Address::new(0x9000));
        opponent.load(Address::new(0xA000));
        let ops = round_robin(vec![victim.into_iter(), opponent.into_iter()], 2);
        // Turn order: v.load v.load(repeat) v.store interleaved with
        // o.load o.load; the repeat merges into the first victim op, the
        // opponents' relative order against the victim's store survives.
        assert_eq!(
            ops,
            vec![
                Op::Load {
                    task: 0,
                    addr: Address::new(0x1000),
                    line: LineAddr::new(0x80),
                    repeats: 1
                },
                Op::Load {
                    task: 1,
                    addr: Address::new(0x9000),
                    line: LineAddr::new(0x480),
                    repeats: 0
                },
                Op::Load {
                    task: 1,
                    addr: Address::new(0xA000),
                    line: LineAddr::new(0x500),
                    repeats: 0
                },
                Op::Store {
                    task: 0,
                    addr: Address::new(0x5000),
                    line: LineAddr::new(0x280)
                },
            ]
        );
    }

    #[test]
    fn interleave_runs_stay_open_across_other_tasks_turns() {
        // Task 0 reads the same line twice with task 1 active in between:
        // the run must still collapse (task 1 cannot touch task 0's L1).
        let mut a = Trace::new();
        a.load(Address::new(0x1000));
        a.load(Address::new(0x1004));
        a.load(Address::new(0x1008));
        let mut b = Trace::new();
        b.store(Address::new(0x9000));
        b.store(Address::new(0x9020));
        let ops = round_robin(vec![a.into_iter(), b.into_iter()], 2);
        let collapsed: Vec<&Op> = ops
            .iter()
            .filter(|op| matches!(op, Op::Load { task: 0, .. }))
            .collect();
        assert_eq!(collapsed.len(), 1, "task 0's run did not collapse: {ops:?}");
        assert!(matches!(collapsed[0], Op::Load { repeats: 2, .. }));
    }

    #[test]
    fn interleave_closes_a_run_on_the_tasks_own_intervening_event() {
        // A store by the same task breaks its read run (it may change the
        // DL1 state the repeat relies on).
        let mut a = Trace::new();
        a.load(Address::new(0x1000));
        a.store(Address::new(0x1000));
        a.load(Address::new(0x1004));
        let ops = round_robin(vec![a.into_iter()], 1);
        assert_eq!(ops.len(), 3, "{ops:?}");
        assert!(matches!(ops[0], Op::Load { repeats: 0, .. }));
        assert!(matches!(ops[2], Op::Load { repeats: 0, .. }));
    }

    #[test]
    fn interleave_pads_missing_streams_and_clips_extra_ones() {
        let mut trace = Trace::new();
        trace.load(Address::new(0x1000));
        let mut extra = Trace::new();
        extra.load(Address::new(0x2000));
        // Missing stream: task 1 is idle.
        let padded = round_robin(vec![trace.clone().into_iter()], 2);
        assert_eq!(padded.len(), 1);
        // Extra stream beyond the task count: ignored.
        let clipped = round_robin(vec![trace.into_iter(), extra.into_iter()], 1);
        assert_eq!(clipped.len(), 1);
        assert!(matches!(clipped[0], Op::Load { task: 0, .. }));
    }

    #[test]
    fn replay_ops_steps_every_op_in_schedule_order() {
        let ops = vec![
            Op::Fetch {
                task: 1,
                addr: Address::new(0x40),
                line: LineAddr::new(2),
                repeats: 3,
            },
            Op::Compute { task: 0, cycles: 9 },
        ];
        let mut recorder = Recorder::default();
        replay_ops(&ops, &mut recorder);
        assert_eq!(recorder.steps, vec![(1, 'F', 0x40, 3), (0, 'C', 9, 0)]);
    }
}
