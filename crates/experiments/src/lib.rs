//! # randmod-experiments
//!
//! Reproduction of every table and figure of the paper's evaluation
//! (Section 4).  Each experiment is a library function returning structured
//! rows, plus a thin binary that prints them; the unit, smoke and golden
//! tests drive the same functions.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Figure 1 (illustrative pWCET curve) | [`fig1`] | `fig1_pwcet_curve` |
//! | Table 1 (ASIC & FPGA costs) | [`table1`] | `table1_hwcost` |
//! | Table 2 (WW and KS per EEMBC benchmark) | [`table2`] | `table2_iid_tests` |
//! | Figure 4(a) (RM pWCET vs hRP) | [`fig4`] | `fig4a_rm_vs_hrp` |
//! | Figure 4(b) (RM pWCET vs deterministic hwm) | [`fig4`] | `fig4b_rm_vs_det` |
//! | Figure 5 (synthetic kernel PDFs and pWCET curves) | [`fig5`] | `fig5_synthetic` |
//! | Section 4.4 (average performance vs modulo) | [`sec44`] | `sec44_avg_performance` |
//! | Shared-L2 contention sweep (beyond the paper) | [`fig6`] | `fig6_contention` |
//!
//! The paper uses 1,000 runs per benchmark; the binaries default to a
//! smaller run count so a full reproduction finishes in minutes on a laptop
//! and accept `--runs N` to match the paper exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod error;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod runner;
pub mod sec44;
pub mod table1;
pub mod table2;

/// Default number of runs per benchmark used by the experiment binaries
/// (the paper uses 1,000; pass `--runs 1000` to match it).
pub const DEFAULT_RUNS: usize = 300;

/// Minimum number of runs per campaign accepted by the binaries: the
/// floor of the statistical pipeline (the exponential-tail test is the
/// most demanding step).  `--runs` values below it are clamped rather
/// than panicking mid-campaign.
pub const MIN_RUNS: usize = randmod_mbpta::iid::ET_MIN_OBSERVATIONS;

/// Default campaign seed, fixed so published numbers are reproducible.
pub const DEFAULT_CAMPAIGN_SEED: u64 = 0x00C0_FFEE;
