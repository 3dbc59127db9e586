//! Request handling: routing, validation, campaign execution and the
//! result cache, independent of any socket.
//!
//! The [`Service`] is the testable core of the server: it maps one
//! parsed [`crate::http::Request`] to one [`Action`] — a plain
//! response or a chunked stream — with no I/O of its own beyond the
//! result store.  Validation is strict and refusals are contextual: a
//! malformed spec, an inconsistent platform, a degenerate convergence
//! criterion or an oversized schedule each name the offending field in
//! a JSON error body.  Backpressure is a bounded permit pool: when every
//! worker slot is busy a cache miss is answered `429` with
//! `Retry-After` instead of queueing unboundedly; cache hits bypass the
//! pool entirely, which is what makes the warm path cheap.

use crate::body::{
    decode_adaptive_record, decode_spec, encode_adaptive_record, AdaptiveRecord, CampaignSpec,
    SpecMode,
};
use crate::http::Request;
use crate::store::ResultStore;
use randmod_mbpta::online::ConvergenceCriterion;
use randmod_sim::checkpoint::Fingerprint;
use randmod_sim::{encode_solo_runs, Campaign};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard cap on the number of runs one submission may request, fixed or
/// adaptive.  Keeps a single request from monopolising a worker for
/// hours; split larger campaigns across submissions (the cache makes
/// re-submission of finished work free).
pub const MAX_RUNS_PER_CAMPAIGN: usize = 100_000;

/// `total_runs` value used in cache-entry headers of adaptive
/// campaigns, whose run count is an output, not an input (the criterion
/// is part of the cache key instead).
const ADAPTIVE_TOTAL_RUNS: u64 = 0;

/// What the connection layer should send back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// An ordinary response with a complete body.
    Simple {
        /// HTTP status code.
        status: u16,
        /// Extra response headers (on top of `Content-Length`).
        headers: Vec<(&'static str, String)>,
        /// Response body.
        body: Vec<u8>,
    },
    /// A chunked-transfer response streamed piece by piece.
    Stream {
        /// HTTP status code.
        status: u16,
        /// Extra response headers (on top of `Transfer-Encoding`).
        headers: Vec<(&'static str, String)>,
        /// The chunks, in order; empty chunks are skipped on the wire.
        chunks: Vec<Vec<u8>>,
    },
}

impl Action {
    /// The response status code.
    pub fn status(&self) -> u16 {
        match self {
            Action::Simple { status, .. } | Action::Stream { status, .. } => *status,
        }
    }
}

/// Releases one worker permit when dropped.
struct Permit<'a> {
    pool: &'a AtomicUsize,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.pool.fetch_add(1, Ordering::SeqCst);
    }
}

/// The campaign-execution service behind the HTTP layer.
pub struct Service {
    store: ResultStore,
    /// Free worker slots; a miss holds one for the whole computation.
    permits: AtomicUsize,
    workers: usize,
    /// Serialises saves: the file store's atomic-rename temp name is
    /// unique per process, not per thread, so two concurrent saves of
    /// the same key must not interleave.
    save_lock: Mutex<()>,
    campaign_threads: Option<usize>,
    campaign_lanes: Option<usize>,
}

impl Service {
    /// Creates a service executing at most `workers` campaigns at once.
    pub fn new(store: ResultStore, workers: usize) -> Self {
        let workers = workers.max(1);
        Service {
            store,
            permits: AtomicUsize::new(workers),
            workers,
            save_lock: Mutex::new(()),
            campaign_threads: None,
            campaign_lanes: None,
        }
    }

    /// Overrides the per-campaign thread count (default: one thread per
    /// campaign, so `workers` bounds total parallelism).
    pub fn with_campaign_threads(mut self, threads: usize) -> Self {
        self.campaign_threads = Some(threads.max(1));
        self
    }

    /// Overrides the per-campaign seed-lane width.
    pub fn with_campaign_lanes(mut self, lanes: usize) -> Self {
        self.campaign_lanes = Some(lanes.max(1));
        self
    }

    /// The configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn try_acquire(&self) -> Option<Permit<'_>> {
        let mut current = self.permits.load(Ordering::SeqCst);
        loop {
            if current == 0 {
                return None;
            }
            match self.permits.compare_exchange(
                current,
                current - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(Permit { pool: &self.permits }),
                Err(now) => current = now,
            }
        }
    }

    /// Routes one request to its action.  Never panics: every failure
    /// mode maps to a refusal response.
    pub fn handle(&self, request: &Request) -> Action {
        match (request.method.as_str(), request.target.as_str()) {
            ("GET", "/healthz") => self.health(),
            ("POST", "/campaign") => self.campaign(&request.body),
            (_, "/healthz") => method_not_allowed("GET"),
            (_, "/campaign") => method_not_allowed("POST"),
            _ => refuse(404, "no such endpoint (try GET /healthz or POST /campaign)"),
        }
    }

    fn health(&self) -> Action {
        let idle = self.permits.load(Ordering::SeqCst);
        let body = format!(
            "{{\"status\":\"ok\",\"workers\":{},\"idle_workers\":{},\"store\":\"{}\"}}\n",
            self.workers,
            idle,
            json_escape(self.store.description()),
        );
        Action::Simple {
            status: 200,
            headers: vec![("Content-Type", "application/json".to_string())],
            body: body.into_bytes(),
        }
    }

    fn campaign(&self, body: &[u8]) -> Action {
        let spec = match decode_spec(body) {
            Ok(spec) => spec,
            Err(err) => return refuse(400, &err.to_string()),
        };
        if let Err(err) = spec.config.validate() {
            return refuse(400, &format!("invalid platform config: {err}"));
        }
        match &spec.mode {
            SpecMode::Fixed(seeds) => self.fixed_campaign(&spec, seeds.clone()),
            SpecMode::Adaptive(criterion) => self.adaptive_campaign(&spec, *criterion),
        }
    }

    fn build_campaign(&self, spec: &CampaignSpec, runs: usize) -> Campaign {
        let mut campaign =
            Campaign::new(spec.config, runs).with_campaign_seed(spec.campaign_seed);
        if let Some(threads) = self.campaign_threads {
            campaign = campaign.with_threads(threads);
        } else {
            campaign = campaign.with_threads(1);
        }
        if let Some(lanes) = self.campaign_lanes {
            campaign = campaign.with_lanes(lanes);
        }
        campaign
    }

    fn fixed_campaign(&self, spec: &CampaignSpec, seeds: Vec<u64>) -> Action {
        if seeds.is_empty() {
            return refuse(400, "seed schedule: a fixed campaign needs at least one seed");
        }
        if seeds.len() > MAX_RUNS_PER_CAMPAIGN {
            return refuse(
                400,
                &format!(
                    "seed schedule: {} seeds exceeds the per-campaign cap of {} \
                     (split the campaign across submissions)",
                    seeds.len(),
                    MAX_RUNS_PER_CAMPAIGN
                ),
            );
        }
        let campaign = self.build_campaign(spec, seeds.len());
        let key = campaign.sharded_fingerprint(&spec.trace, &seeds, 1);
        let total_runs = seeds.len() as u64;
        if let Some(payload) = self.store.load(key, total_runs) {
            return result_response(key, "hit", payload);
        }
        let _permit = match self.try_acquire() {
            Some(permit) => permit,
            None => return busy(),
        };
        let result = match campaign.run_seeds(&spec.trace, &seeds) {
            Ok(result) => result,
            Err(err) => return refuse(400, &format!("invalid platform config: {err}")),
        };
        let payload = encode_solo_runs(result.runs());
        self.persist(key, total_runs, &payload);
        result_response(key, "miss", payload)
    }

    fn adaptive_campaign(&self, spec: &CampaignSpec, criterion: ConvergenceCriterion) -> Action {
        if let Err(detail) = validate_criterion(&criterion) {
            return refuse(400, &detail);
        }
        let campaign = self.build_campaign(spec, criterion.max_runs);
        let key = adaptive_key(&campaign, spec, &criterion);
        if let Some(payload) = self.store.load(key, ADAPTIVE_TOTAL_RUNS) {
            if let Some(record) = decode_adaptive_record(&payload) {
                return stream_response(key, "hit", &record);
            }
            // A payload that decoded as a checkpoint but not as an
            // adaptive record is damage below the checksum's radar;
            // recompute.
        }
        let _permit = match self.try_acquire() {
            Some(permit) => permit,
            None => return busy(),
        };
        let result = match campaign.run_adaptive(&spec.trace, &criterion) {
            Ok(result) => result,
            Err(err) => return refuse(400, &format!("invalid platform config: {err}")),
        };
        let record = AdaptiveRecord::new(
            result.runs_used(),
            result.converged(),
            result.pwcet_estimate(),
            result.trajectory(),
        );
        self.persist(key, ADAPTIVE_TOTAL_RUNS, &encode_adaptive_record(&record));
        stream_response(key, "miss", &record)
    }

    fn persist(&self, key: u64, total_runs: u64, payload: &[u8]) {
        let _guard = self.save_lock.lock();
        // A failed save is logged by the caller's absence of a cache hit
        // next time; the computed response is still correct.
        let _ = self.store.save(key, total_runs, payload);
    }
}

/// The cache key of an adaptive submission: the fixed-campaign
/// fingerprint machinery over the trace and platform, extended with the
/// campaign seed (which picks the seed sequence) and every criterion
/// field (which picks the stopping rule and hence the result).
fn adaptive_key(campaign: &Campaign, spec: &CampaignSpec, criterion: &ConvergenceCriterion) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write(b"adaptive");
    fp.write_u64(campaign.sharded_fingerprint(&spec.trace, &[], 1));
    fp.write_u64(spec.campaign_seed);
    fp.write_u64(criterion.target_probability.to_bits());
    fp.write_u64(criterion.relative_tolerance.to_bits());
    fp.write_u64(criterion.stable_checkpoints as u64);
    fp.write_u64(criterion.check_interval as u64);
    fp.write_u64(criterion.min_runs as u64);
    fp.write_u64(criterion.max_runs as u64);
    fp.write_u64(criterion.block_size as u64);
    fp.finish()
}

/// Pre-validates a convergence criterion so a hostile submission can
/// never reach the tracker's internal assertions.
fn validate_criterion(criterion: &ConvergenceCriterion) -> Result<(), String> {
    if !(criterion.target_probability > 0.0 && criterion.target_probability < 1.0) {
        return Err(format!(
            "target probability: {} is not in (0, 1)",
            criterion.target_probability
        ));
    }
    if !(criterion.relative_tolerance.is_finite() && criterion.relative_tolerance > 0.0) {
        return Err(format!(
            "relative tolerance: {} is not finite and positive",
            criterion.relative_tolerance
        ));
    }
    for (name, value) in [
        ("stable checkpoints", criterion.stable_checkpoints),
        ("check interval", criterion.check_interval),
        ("block size", criterion.block_size),
        ("max runs", criterion.max_runs),
    ] {
        if value == 0 {
            return Err(format!("{name}: must be at least 1"));
        }
    }
    if criterion.max_runs > MAX_RUNS_PER_CAMPAIGN {
        return Err(format!(
            "max runs: {} exceeds the per-campaign cap of {}",
            criterion.max_runs, MAX_RUNS_PER_CAMPAIGN
        ));
    }
    if criterion.min_runs > criterion.max_runs {
        return Err(format!(
            "min runs: {} exceeds max runs {}",
            criterion.min_runs, criterion.max_runs
        ));
    }
    Ok(())
}

fn result_response(key: u64, cache: &str, payload: Vec<u8>) -> Action {
    Action::Simple {
        status: 200,
        headers: vec![
            ("Content-Type", "application/octet-stream".to_string()),
            ("X-Randmod-Cache", cache.to_string()),
            ("X-Randmod-Key", format!("{key:016x}")),
        ],
        body: payload,
    }
}

/// Renders the streamed trajectory: one JSON line per checkpoint, then
/// a summary line.  Built from the persisted record, so a warm replay
/// streams bytes identical to the cold run that produced it.
fn stream_response(key: u64, cache: &str, record: &AdaptiveRecord) -> Action {
    let mut chunks = Vec::with_capacity(record.trajectory.len() + 1);
    for &(runs, pwcet, delta) in &record.trajectory {
        let delta_json = if delta.is_finite() {
            format!("{delta}")
        } else {
            "null".to_string()
        };
        chunks.push(
            format!("{{\"runs\":{runs},\"pwcet\":{pwcet},\"delta\":{delta_json}}}\n").into_bytes(),
        );
    }
    chunks.push(
        format!(
            "{{\"converged\":{},\"runs_used\":{},\"pwcet\":{}}}\n",
            record.converged, record.runs_used, record.pwcet_estimate
        )
        .into_bytes(),
    );
    Action::Stream {
        status: 200,
        headers: vec![
            ("Content-Type", "application/x-ndjson".to_string()),
            ("X-Randmod-Cache", cache.to_string()),
            ("X-Randmod-Key", format!("{key:016x}")),
        ],
        chunks,
    }
}

fn refuse(status: u16, detail: &str) -> Action {
    Action::Simple {
        status,
        headers: vec![("Content-Type", "application/json".to_string())],
        body: format!("{{\"error\":\"{}\"}}\n", json_escape(detail)).into_bytes(),
    }
}

fn busy() -> Action {
    Action::Simple {
        status: 429,
        headers: vec![
            ("Content-Type", "application/json".to_string()),
            ("Retry-After", "1".to_string()),
        ],
        body: b"{\"error\":\"all workers busy; retry shortly\"}\n".to_vec(),
    }
}

fn method_not_allowed(allow: &'static str) -> Action {
    Action::Simple {
        status: 405,
        headers: vec![
            ("Content-Type", "application/json".to_string()),
            ("Allow", allow.to_string()),
        ],
        body: format!("{{\"error\":\"method not allowed; use {allow}\"}}\n").into_bytes(),
    }
}

fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::encode_spec;
    use randmod_core::{Address, PlacementKind};
    use randmod_sim::config::PlatformConfig;
    use randmod_sim::trace::{MemEvent, Trace};
    use randmod_sim::PackedTrace;

    fn post(body: Vec<u8>) -> Request {
        Request {
            method: "POST".to_string(),
            target: "/campaign".to_string(),
            headers: Vec::new(),
            body,
            close: false,
        }
    }

    fn sample_spec(mode: SpecMode) -> CampaignSpec {
        let mut trace = Trace::new();
        for i in 0..64u64 {
            trace.push(MemEvent::InstrFetch(Address::new(0x1000 + i * 32)));
            trace.push(MemEvent::Load(Address::new(0x9000 + (i % 8) * 64)));
        }
        CampaignSpec {
            config: PlatformConfig::leon3().with_l1_placement(PlacementKind::RandomModulo),
            campaign_seed: 42,
            mode,
            trace: PackedTrace::from(&trace),
        }
    }

    fn memory_service() -> Service {
        let dir = std::env::temp_dir().join(format!(
            "randmod_service_test_{}_{:x}",
            std::process::id(),
            &dir_nonce() % 0xFFFF_FFFF
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Service::new(ResultStore::in_dir(dir).unwrap(), 2)
    }

    fn dir_nonce() -> u64 {
        use std::sync::atomic::AtomicU64;
        static NONCE: AtomicU64 = AtomicU64::new(1);
        NONCE.fetch_add(1, Ordering::Relaxed)
    }

    #[test]
    fn health_reports_ok() {
        let service = memory_service();
        let request = Request {
            method: "GET".to_string(),
            target: "/healthz".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            close: false,
        };
        let action = service.handle(&request);
        assert_eq!(action.status(), 200);
    }

    #[test]
    fn unknown_routes_and_methods_are_refused() {
        let service = memory_service();
        let mut request = post(Vec::new());
        request.target = "/nope".to_string();
        assert_eq!(service.handle(&request).status(), 404);
        let mut request = post(Vec::new());
        request.method = "DELETE".to_string();
        assert_eq!(service.handle(&request).status(), 405);
    }

    #[test]
    fn malformed_specs_get_contextual_400s() {
        let service = memory_service();
        let action = service.handle(&post(b"garbage".to_vec()));
        assert_eq!(action.status(), 400);
        if let Action::Simple { body, .. } = action {
            let text = String::from_utf8(body).unwrap();
            assert!(text.contains("RMSPEC01"), "{text}");
        } else {
            panic!("refusal must be a simple response");
        }
    }

    #[test]
    fn fixed_campaign_misses_then_hits() {
        let service = memory_service();
        let spec = sample_spec(SpecMode::Fixed(vec![1, 2, 3]));
        let body = encode_spec(&spec);

        let cold = service.handle(&post(body.clone()));
        let warm = service.handle(&post(body));
        let (cold_body, cold_cache) = unpack(cold);
        let (warm_body, warm_cache) = unpack(warm);
        assert_eq!(cold_cache, "miss");
        assert_eq!(warm_cache, "hit");
        assert_eq!(cold_body, warm_body, "warm hit must be byte-identical");
        assert!(!cold_body.is_empty());
    }

    #[test]
    fn degenerate_criteria_are_refused_not_panicked() {
        let service = memory_service();
        for criterion in [
            ConvergenceCriterion::default().with_target_probability(0.0),
            ConvergenceCriterion::default().with_target_probability(f64::NAN),
            ConvergenceCriterion::default().with_relative_tolerance(-1.0),
            ConvergenceCriterion::default().with_block_size(0),
            ConvergenceCriterion::default().with_check_interval(0),
            ConvergenceCriterion::default().with_stable_checkpoints(0),
            ConvergenceCriterion::default().with_max_runs(MAX_RUNS_PER_CAMPAIGN + 1),
            ConvergenceCriterion::default().with_min_runs(10).with_max_runs(5),
        ] {
            let spec = sample_spec(SpecMode::Adaptive(criterion));
            let action = service.handle(&post(encode_spec(&spec)));
            assert_eq!(action.status(), 400, "criterion {criterion:?} must be refused");
        }
    }

    #[test]
    fn oversized_schedules_are_refused() {
        let service = memory_service();
        let spec = sample_spec(SpecMode::Fixed(Vec::new()));
        assert_eq!(service.handle(&post(encode_spec(&spec))).status(), 400);
    }

    fn unpack(action: Action) -> (Vec<u8>, String) {
        match action {
            Action::Simple { status, headers, body } => {
                assert_eq!(status, 200);
                let cache = headers
                    .iter()
                    .find(|(name, _)| *name == "X-Randmod-Cache")
                    .map(|(_, value)| value.clone())
                    .unwrap();
                (body, cache)
            }
            Action::Stream { .. } => panic!("expected a simple response"),
        }
    }
}
