//! Outside-in tracing: spans the benchmark records around its own calls
//! into each engine layer.
//!
//! The engine crates may not read clocks (lint D1), so every span here
//! wraps a *call* into a layer from the benchmark's side.  Spans stay in
//! memory while the run is measured and are written out when it ends.  A
//! layer's cost is its spans' self time: duration minus the part of that
//! interval its child spans cover.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Attributes shared by every span of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignTag {
    /// Benchmark workload the campaign belongs to.
    pub workload: &'static str,
    /// Kernel (or co-schedule victim) label.
    pub kernel: String,
    /// Placement policy under test (`None` for set-up, which serves
    /// every placement).
    pub placement: Option<&'static str>,
    /// Co-runner pressure level (contended campaigns only).
    pub pressure: Option<usize>,
}

/// One recorded interval.  `id` is the span's index in the trace, and
/// `campaign` indexes the trace's campaign tags: spans of one campaign
/// share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its trace.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer call (`workloads.emit`, `sim.run`, ...) or benchmark phase
    /// (`bench.*`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The campaign the span belongs to, if any.
    pub campaign: Option<usize>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether the span times an engine layer rather than the benchmark.
    pub fn is_layer(&self) -> bool {
        !self.name.starts_with("bench.")
    }
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Campaign attributes, indexed by [`Span::campaign`].
    pub campaigns: Vec<CampaignTag>,
    open: Vec<usize>,
    current_campaign: Option<usize>,
}

/// Records spans when enabled; costs one branch per call when not.
///
/// The tracer is shared by reference with the engine's worker threads
/// (the layout sweep calls its build closure on a campaign worker), so
/// its state sits behind a mutex.  Campaigns run on one worker thread at
/// a time, so the open-span stack is the call stack of whichever thread
/// is working.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Option<Mutex<Trace>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: None,
        }
    }

    /// A tracer that records every span.
    pub fn on() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Some(Mutex::new(Trace::default())),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(state: &Mutex<Trace>) -> MutexGuard<'_, Trace> {
        // No code panics while holding the lock, so a poisoned lock still
        // holds a consistent trace.
        state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `f` inside a span called `name`, a child of the innermost
    /// open span.  The span is closed even if `f` panics.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.state else {
            return f();
        };
        let id = {
            let mut trace = Self::lock(state);
            let id = trace.spans.len();
            let parent = trace.open.last().copied();
            let campaign = trace.current_campaign;
            trace.open.push(id);
            let start_ns = self.now_ns();
            trace.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
                campaign,
            });
            id
        };
        let _close = CloseSpan {
            tracer: self,
            state,
            id,
        };
        f()
    }

    /// Runs `f` as one campaign: every span it opens carries `tag`.
    pub fn campaign<R>(&self, tag: &CampaignTag, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.state else {
            return f();
        };
        {
            let mut trace = Self::lock(state);
            trace.current_campaign = Some(trace.campaigns.len());
            trace.campaigns.push(tag.clone());
        }
        let _end = EndCampaign { state };
        self.span("bench.campaign", f)
    }

    /// The recorded trace (empty when tracing is off).
    pub fn into_trace(self) -> Trace {
        match self.state {
            Some(state) => state
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
            None => Trace::default(),
        }
    }
}

struct CloseSpan<'a> {
    tracer: &'a Tracer,
    state: &'a Mutex<Trace>,
    id: usize,
}

impl Drop for CloseSpan<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        let mut trace = Tracer::lock(self.state);
        if let Some(span) = trace.spans.get_mut(self.id) {
            span.end_ns = end;
        }
        if trace.open.last() == Some(&self.id) {
            trace.open.pop();
        }
    }
}

struct EndCampaign<'a> {
    state: &'a Mutex<Trace>,
}

impl Drop for EndCampaign<'_> {
    fn drop(&mut self) {
        Tracer::lock(self.state).current_campaign = None;
    }
}

/// Length of the union of `intervals`, each clipped to `window`.
pub fn covered_ns(window: (u64, u64), intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(start, end)| (start.max(window.0), end.min(window.1)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (start, end) in clipped {
        run = match run {
            Some((run_start, run_end)) if start <= run_end => Some((run_start, run_end.max(end))),
            Some((run_start, run_end)) => {
                total += run_end - run_start;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + run.map_or(0, |(start, end)| end - start)
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its children's intervals inside it.  A span's parent is
/// looked up by position, as [`Tracer`] assigns ids.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(kids) = span.parent.and_then(|p| children.get_mut(p)) {
            kids.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered_ns((span.start_ns, span.end_ns), kids))
        .collect()
}

impl Trace {
    /// One JSON object per span, with its self time and its campaign's
    /// attributes, one per line.
    pub fn to_json_lines(&self) -> String {
        use crate::report::json_string;
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let tag = span.campaign.and_then(|c| self.campaigns.get(c));
            let optional =
                |value: Option<usize>| value.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"campaign\": {}, \"workload\": {}, \"kernel\": {}, \
                 \"placement\": {}, \"pressure\": {}}}\n",
                span.id,
                optional(span.parent),
                json_string(span.name),
                span.start_ns,
                span.end_ns,
                optional(span.campaign),
                tag.map_or("null".to_string(), |t| json_string(t.workload)),
                tag.map_or("null".to_string(), |t| json_string(&t.kernel)),
                tag.and_then(|t| t.placement)
                    .map_or("null".to_string(), json_string),
                optional(tag.and_then(|t| t.pressure)),
            ));
        }
        out
    }
}
