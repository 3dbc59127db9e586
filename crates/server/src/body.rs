//! The binary campaign-spec and result-payload codecs.
//!
//! A campaign submission is one self-describing binary body (JSON is
//! reserved for small control fields like streamed progress lines): a
//! magic/version tag, the full platform configuration, the campaign
//! seed, the mode — an explicit fixed seed schedule, or a convergence
//! criterion for adaptive campaigns — and the packed trace in the exact
//! on-disk format of [`randmod_sim::PackedTrace::to_bytes`].  Every
//! multi-byte integer goes through the audited panic-free primitives of
//! [`randmod_sim::wire`], and this module is linted under the same P1
//! (panic-freedom) and C1 (cast-audit) rules as the simulator's codecs:
//! a hostile body must decode to a contextual [`SpecError`] — answered
//! as an HTTP 400 refusal naming the offending field — never to a panic.
//!
//! Result payloads reuse the shard-record run encoding
//! ([`randmod_sim::encode_solo_runs`]) for fixed campaigns; adaptive
//! campaigns persist their convergence record (runs used, verdict,
//! pWCET trajectory) in the small binary layout defined here.

use randmod_core::{CacheGeometry, PlacementKind, ReplacementKind, WritePolicy};
use randmod_mbpta::online::{ConvergenceCheckpoint, ConvergenceCriterion};
use randmod_sim::config::{CacheConfig, LatencyConfig, PlatformConfig};
use randmod_sim::wire::read_u64;
use randmod_sim::PackedTrace;
use std::fmt;

/// Magic plus version tag of the campaign-spec body format.
pub const SPEC_MAGIC: &[u8; 8] = b"RMSPEC01";

/// How the campaign's run schedule is determined.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecMode {
    /// Run exactly these placement seeds, in order.
    Fixed(Vec<u64>),
    /// Grow the campaign until the pWCET estimate converges.
    Adaptive(ConvergenceCriterion),
}

/// A complete campaign submission: platform, seed schedule (or
/// convergence criterion) and the trace to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The platform configuration to simulate.
    pub config: PlatformConfig,
    /// The campaign-level seed (folded into adaptive cache keys; fixed
    /// campaigns carry their schedule explicitly).
    pub campaign_seed: u64,
    /// Fixed schedule or convergence criterion.
    pub mode: SpecMode,
    /// The packed trace to replay.
    pub trace: PackedTrace,
}

/// Why a campaign-spec body was refused.  The `Display` form is the
/// contextual refusal text of the HTTP 400 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The body does not start with [`SPEC_MAGIC`].
    BadMagic,
    /// The body ended before the named field.
    Truncated {
        /// The field the decoder was reading.
        field: &'static str,
    },
    /// A field holds a value outside its domain.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// Bytes remained after the complete spec.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadMagic => {
                write!(f, "not a campaign spec: body does not start with RMSPEC01")
            }
            SpecError::Truncated { field } => {
                write!(f, "truncated campaign spec: body ended inside {field}")
            }
            SpecError::Invalid { field, detail } => {
                write!(f, "invalid campaign spec: {field}: {detail}")
            }
            SpecError::TrailingBytes { extra } => {
                write!(
                    f,
                    "malformed campaign spec: {extra} trailing byte(s) after the trace"
                )
            }
        }
    }
}

fn push_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn take_u64(bytes: &[u8], pos: &mut usize, field: &'static str) -> Result<u64, SpecError> {
    read_u64(bytes, pos).ok_or(SpecError::Truncated { field })
}

fn take_u32(bytes: &[u8], pos: &mut usize, field: &'static str) -> Result<u32, SpecError> {
    let value = take_u64(bytes, pos, field)?;
    u32::try_from(value).map_err(|_| SpecError::Invalid {
        field,
        detail: format!("{value} does not fit in 32 bits"),
    })
}

fn take_usize(bytes: &[u8], pos: &mut usize, field: &'static str) -> Result<usize, SpecError> {
    let value = take_u64(bytes, pos, field)?;
    usize::try_from(value).map_err(|_| SpecError::Invalid {
        field,
        detail: format!("{value} does not fit in usize"),
    })
}

fn placement_tag(placement: PlacementKind) -> u64 {
    match placement {
        PlacementKind::Modulo => 0,
        PlacementKind::Xor => 1,
        PlacementKind::HashRandom => 2,
        PlacementKind::RandomModulo => 3,
    }
}

fn placement_from_tag(tag: u64, field: &'static str) -> Result<PlacementKind, SpecError> {
    match tag {
        0 => Ok(PlacementKind::Modulo),
        1 => Ok(PlacementKind::Xor),
        2 => Ok(PlacementKind::HashRandom),
        3 => Ok(PlacementKind::RandomModulo),
        other => Err(SpecError::Invalid {
            field,
            detail: format!("unknown placement tag {other} (expected 0..=3)"),
        }),
    }
}

fn replacement_tag(replacement: ReplacementKind) -> u64 {
    match replacement {
        ReplacementKind::Random => 0,
        ReplacementKind::Lru => 1,
        ReplacementKind::RoundRobin => 2,
    }
}

fn replacement_from_tag(tag: u64, field: &'static str) -> Result<ReplacementKind, SpecError> {
    match tag {
        0 => Ok(ReplacementKind::Random),
        1 => Ok(ReplacementKind::Lru),
        2 => Ok(ReplacementKind::RoundRobin),
        other => Err(SpecError::Invalid {
            field,
            detail: format!("unknown replacement tag {other} (expected 0..=2)"),
        }),
    }
}

fn write_policy_tag(policy: WritePolicy) -> u64 {
    match policy {
        WritePolicy::WriteThrough => 0,
        WritePolicy::WriteBack => 1,
    }
}

fn write_policy_from_tag(tag: u64, field: &'static str) -> Result<WritePolicy, SpecError> {
    match tag {
        0 => Ok(WritePolicy::WriteThrough),
        1 => Ok(WritePolicy::WriteBack),
        other => Err(SpecError::Invalid {
            field,
            detail: format!("unknown write-policy tag {other} (expected 0 or 1)"),
        }),
    }
}

fn push_cache_config(buf: &mut Vec<u8>, cache: &CacheConfig) {
    push_u64(buf, u64::from(cache.geometry.sets()));
    push_u64(buf, u64::from(cache.geometry.ways()));
    push_u64(buf, u64::from(cache.geometry.line_size()));
    push_u64(buf, placement_tag(cache.placement));
    push_u64(buf, replacement_tag(cache.replacement));
    push_u64(buf, write_policy_tag(cache.write_policy));
}

fn take_cache_config(
    bytes: &[u8],
    pos: &mut usize,
    field: &'static str,
) -> Result<CacheConfig, SpecError> {
    let sets = take_u32(bytes, pos, field)?;
    let ways = take_u32(bytes, pos, field)?;
    let line_size = take_u32(bytes, pos, field)?;
    let geometry = CacheGeometry::new(sets, ways, line_size).map_err(|err| SpecError::Invalid {
        field,
        detail: err.to_string(),
    })?;
    let placement = placement_from_tag(take_u64(bytes, pos, field)?, field)?;
    let replacement = replacement_from_tag(take_u64(bytes, pos, field)?, field)?;
    let write_policy = write_policy_from_tag(take_u64(bytes, pos, field)?, field)?;
    Ok(CacheConfig::new(
        geometry,
        placement,
        replacement,
        write_policy,
    ))
}

/// Mode tag of a fixed-schedule campaign.
const MODE_FIXED: u64 = 0;
/// Mode tag of an adaptive campaign.
const MODE_ADAPTIVE: u64 = 1;

/// Serializes a campaign spec into its binary body form.
pub fn encode_spec(spec: &CampaignSpec) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 * 8 + spec.trace.len() * 8);
    buf.extend_from_slice(SPEC_MAGIC);
    push_cache_config(&mut buf, &spec.config.il1);
    push_cache_config(&mut buf, &spec.config.dl1);
    push_cache_config(&mut buf, &spec.config.l2);
    push_u64(&mut buf, u64::from(spec.config.latencies.l1_hit));
    push_u64(&mut buf, u64::from(spec.config.latencies.l2_hit));
    push_u64(&mut buf, u64::from(spec.config.latencies.memory));
    push_u64(&mut buf, u64::from(spec.config.latencies.store));
    push_u64(&mut buf, spec.campaign_seed);
    match &spec.mode {
        SpecMode::Fixed(seeds) => {
            push_u64(&mut buf, MODE_FIXED);
            push_u64(&mut buf, seeds.len() as u64);
            for &seed in seeds {
                push_u64(&mut buf, seed);
            }
        }
        SpecMode::Adaptive(criterion) => {
            push_u64(&mut buf, MODE_ADAPTIVE);
            push_u64(&mut buf, criterion.target_probability.to_bits());
            push_u64(&mut buf, criterion.relative_tolerance.to_bits());
            push_u64(&mut buf, criterion.stable_checkpoints as u64);
            push_u64(&mut buf, criterion.check_interval as u64);
            push_u64(&mut buf, criterion.min_runs as u64);
            push_u64(&mut buf, criterion.max_runs as u64);
            push_u64(&mut buf, criterion.block_size as u64);
        }
    }
    let trace_bytes = spec.trace.to_bytes();
    push_u64(&mut buf, trace_bytes.len() as u64);
    buf.extend_from_slice(&trace_bytes);
    buf
}

/// Deserializes and structurally validates a campaign-spec body.
///
/// Structural validation only: cache geometries must construct and every
/// tag must be known, but platform-level validation
/// ([`PlatformConfig::validate`]) and criterion sanity are the service's
/// responsibility — they produce their own contextual refusals.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the offending field; the decoder never
/// panics, whatever the bytes.
pub fn decode_spec(bytes: &[u8]) -> Result<CampaignSpec, SpecError> {
    let magic = bytes.get(..SPEC_MAGIC.len()).ok_or(SpecError::BadMagic)?;
    if magic != SPEC_MAGIC.as_slice() {
        return Err(SpecError::BadMagic);
    }
    let mut pos = SPEC_MAGIC.len();
    let il1 = take_cache_config(bytes, &mut pos, "il1 cache config")?;
    let dl1 = take_cache_config(bytes, &mut pos, "dl1 cache config")?;
    let l2 = take_cache_config(bytes, &mut pos, "l2 cache config")?;
    let latencies = LatencyConfig {
        l1_hit: take_u32(bytes, &mut pos, "l1_hit latency")?,
        l2_hit: take_u32(bytes, &mut pos, "l2_hit latency")?,
        memory: take_u32(bytes, &mut pos, "memory latency")?,
        store: take_u32(bytes, &mut pos, "store latency")?,
    };
    let campaign_seed = take_u64(bytes, &mut pos, "campaign seed")?;
    let mode = match take_u64(bytes, &mut pos, "mode tag")? {
        MODE_FIXED => {
            let count = take_usize(bytes, &mut pos, "seed count")?;
            // Refuse absurd declarations before allocating: each seed is
            // eight bytes, so the schedule cannot hold more seeds than
            // the remaining body has room for.
            let remaining = bytes.len().saturating_sub(pos) / 8;
            if count > remaining {
                return Err(SpecError::Invalid {
                    field: "seed count",
                    detail: format!("{count} seeds declared but only {remaining} encoded"),
                });
            }
            let mut seeds = Vec::with_capacity(count);
            for _ in 0..count {
                seeds.push(take_u64(bytes, &mut pos, "seed schedule")?);
            }
            SpecMode::Fixed(seeds)
        }
        MODE_ADAPTIVE => {
            let target_probability =
                f64::from_bits(take_u64(bytes, &mut pos, "target probability")?);
            let relative_tolerance =
                f64::from_bits(take_u64(bytes, &mut pos, "relative tolerance")?);
            let criterion = ConvergenceCriterion {
                target_probability,
                relative_tolerance,
                stable_checkpoints: take_usize(bytes, &mut pos, "stable checkpoints")?,
                check_interval: take_usize(bytes, &mut pos, "check interval")?,
                min_runs: take_usize(bytes, &mut pos, "min runs")?,
                max_runs: take_usize(bytes, &mut pos, "max runs")?,
                block_size: take_usize(bytes, &mut pos, "block size")?,
            };
            SpecMode::Adaptive(criterion)
        }
        other => {
            return Err(SpecError::Invalid {
                field: "mode tag",
                detail: format!("unknown mode {other} (expected 0=fixed, 1=adaptive)"),
            })
        }
    };
    let trace_len = take_usize(bytes, &mut pos, "trace length")?;
    let end = pos.checked_add(trace_len).ok_or(SpecError::Invalid {
        field: "trace length",
        detail: "length overflows the address space".into(),
    })?;
    let trace_bytes = bytes.get(pos..end).ok_or(SpecError::Truncated {
        field: "packed trace",
    })?;
    pos = end;
    let trace = PackedTrace::from_bytes(trace_bytes).map_err(|err| SpecError::Invalid {
        field: "packed trace",
        detail: err.to_string(),
    })?;
    if pos != bytes.len() {
        return Err(SpecError::TrailingBytes {
            extra: bytes.len().saturating_sub(pos),
        });
    }
    Ok(CampaignSpec {
        config: PlatformConfig {
            il1,
            dl1,
            l2,
            latencies,
        },
        campaign_seed,
        mode,
        trace,
    })
}

/// The convergence record an adaptive campaign persists and streams:
/// everything in [`randmod_sim::AdaptiveResult`] except the raw runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRecord {
    /// Number of runs the campaign needed.
    pub runs_used: u64,
    /// Whether the stopping rule was met before the run cap.
    pub converged: bool,
    /// Final pWCET estimate at the criterion's target probability.
    pub pwcet_estimate: f64,
    /// The checkpoint trajectory: (runs, pWCET estimate, relative delta).
    pub trajectory: Vec<(u64, f64, f64)>,
}

impl AdaptiveRecord {
    /// Builds the record from an adaptive campaign's trajectory.
    pub fn new(
        runs_used: usize,
        converged: bool,
        pwcet_estimate: f64,
        trajectory: &[ConvergenceCheckpoint],
    ) -> Self {
        AdaptiveRecord {
            runs_used: runs_used as u64,
            converged,
            pwcet_estimate,
            trajectory: trajectory
                .iter()
                .map(|cp| (cp.runs as u64, cp.pwcet, cp.relative_delta))
                .collect(),
        }
    }
}

/// Serializes an adaptive convergence record.
pub fn encode_adaptive_record(record: &AdaptiveRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity((4 + record.trajectory.len() * 3) * 8);
    push_u64(&mut buf, record.runs_used);
    push_u64(&mut buf, u64::from(record.converged));
    push_u64(&mut buf, record.pwcet_estimate.to_bits());
    push_u64(&mut buf, record.trajectory.len() as u64);
    for &(runs, pwcet, delta) in &record.trajectory {
        push_u64(&mut buf, runs);
        push_u64(&mut buf, pwcet.to_bits());
        push_u64(&mut buf, delta.to_bits());
    }
    buf
}

/// Deserializes an adaptive convergence record.  `None` means the
/// payload is not a well-formed record (wrong length or framing) and
/// must be treated as a cache miss.
pub fn decode_adaptive_record(payload: &[u8]) -> Option<AdaptiveRecord> {
    let mut pos = 0;
    let runs_used = read_u64(payload, &mut pos)?;
    let converged = match read_u64(payload, &mut pos)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let pwcet_estimate = f64::from_bits(read_u64(payload, &mut pos)?);
    let count = usize::try_from(read_u64(payload, &mut pos)?).ok()?;
    if count > payload.len().saturating_sub(pos) / 24 {
        return None;
    }
    let mut trajectory = Vec::with_capacity(count);
    for _ in 0..count {
        let runs = read_u64(payload, &mut pos)?;
        let pwcet = f64::from_bits(read_u64(payload, &mut pos)?);
        let delta = f64::from_bits(read_u64(payload, &mut pos)?);
        trajectory.push((runs, pwcet, delta));
    }
    (pos == payload.len()).then_some(AdaptiveRecord {
        runs_used,
        converged,
        pwcet_estimate,
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use randmod_core::Address;
    use randmod_sim::trace::{MemEvent, Trace};

    fn sample_trace() -> PackedTrace {
        let mut trace = Trace::new();
        for i in 0..40u64 {
            trace.push(MemEvent::InstrFetch(Address::new(0x1000 + i * 32)));
            trace.push(MemEvent::Load(Address::new(0x8000 + i * 64)));
        }
        PackedTrace::from(&trace)
    }

    fn sample_spec(mode: SpecMode) -> CampaignSpec {
        CampaignSpec {
            config: PlatformConfig::leon3()
                .with_l1_placement(PlacementKind::RandomModulo)
                .with_l2_placement(PlacementKind::HashRandom),
            campaign_seed: 0xC0FFEE,
            mode,
            trace: sample_trace(),
        }
    }

    #[test]
    fn fixed_spec_round_trips() {
        let spec = sample_spec(SpecMode::Fixed(vec![3, 1, 4, 1, 5, 9]));
        let decoded = decode_spec(&encode_spec(&spec)).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn adaptive_spec_round_trips() {
        let spec = sample_spec(SpecMode::Adaptive(
            ConvergenceCriterion::default()
                .with_min_runs(30)
                .with_max_runs(200),
        ));
        let decoded = decode_spec(&encode_spec(&spec)).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn refusals_are_contextual() {
        assert_eq!(decode_spec(b"not a spec"), Err(SpecError::BadMagic));
        assert_eq!(decode_spec(b""), Err(SpecError::BadMagic));

        let spec = sample_spec(SpecMode::Fixed(vec![1, 2]));
        let bytes = encode_spec(&spec);
        let truncated = decode_spec(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(
            truncated.to_string().contains("packed trace"),
            "{truncated}"
        );

        let mut trailing = bytes.clone();
        trailing.push(0xAA);
        assert_eq!(
            decode_spec(&trailing),
            Err(SpecError::TrailingBytes { extra: 1 })
        );

        // A hostile seed count cannot trigger an absurd allocation.
        let mut hostile = bytes;
        let seeds_at = 8 + 3 * 6 * 8 + 4 * 8 + 8 + 8;
        hostile[seeds_at..seeds_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_spec(&hostile).unwrap_err();
        assert!(err.to_string().contains("seed count"), "{err}");
    }

    #[test]
    fn every_field_is_covered_by_a_refusal() {
        let spec = sample_spec(SpecMode::Fixed(vec![7]));
        let bytes = encode_spec(&spec);
        // Truncating at every 8-byte boundary must fail with a contextual
        // error, never panic.
        for cut in (0..bytes.len()).step_by(7) {
            let err = decode_spec(&bytes[..cut]).unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn unknown_tags_are_named() {
        let spec = sample_spec(SpecMode::Fixed(vec![]));
        let mut bytes = encode_spec(&spec);
        // The placement tag of the il1 is the 4th u64 after the magic.
        let at = 8 + 3 * 8;
        bytes[at..at + 8].copy_from_slice(&99u64.to_le_bytes());
        let err = decode_spec(&bytes).unwrap_err();
        assert!(err.to_string().contains("placement tag 99"), "{err}");
    }

    #[test]
    fn adaptive_record_round_trips() {
        let record = AdaptiveRecord {
            runs_used: 120,
            converged: true,
            pwcet_estimate: 171_639.25,
            trajectory: vec![
                (30, 170_000.5, f64::INFINITY),
                (80, 171_500.0, 0.0088),
                (120, 171_639.25, 0.0008),
            ],
        };
        let decoded = decode_adaptive_record(&encode_adaptive_record(&record)).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn adaptive_record_rejects_damage() {
        let record = AdaptiveRecord {
            runs_used: 10,
            converged: false,
            pwcet_estimate: 1.0,
            trajectory: vec![(10, 1.0, 0.5)],
        };
        let bytes = encode_adaptive_record(&record);
        assert!(decode_adaptive_record(&bytes[..bytes.len() - 1]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_adaptive_record(&trailing).is_none());
        let mut bad_flag = bytes;
        bad_flag[8..16].copy_from_slice(&7u64.to_le_bytes());
        assert!(decode_adaptive_record(&bad_flag).is_none());
    }
}
