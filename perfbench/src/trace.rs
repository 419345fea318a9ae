//! In-memory spans around the public calls the benchmark makes, the
//! per-layer self-time accounting built on them, and their Chrome-trace
//! (Perfetto) export.
//!
//! A span is recorded by the benchmark itself, never inside the measured
//! crates.  Where one public call hides several layers (`run_fleet`,
//! `minimize_capacities`), the benchmark adds *derived* child spans whose
//! durations come from the call's own report fields or from timing the
//! inner layer's public call directly on the same inputs.  Derived spans
//! of work that ran on several threads carry their wall-clock share
//! (busy time ÷ threads), never summed worker time, so the self times of
//! all layers add up to the wall clock they were measured in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer names, as used in span names and per-layer metric prefixes.
pub mod layer {
    /// One timed pass of a workload: the root of every span tree.
    pub const PASS: &str = "pass";
    /// One job (a capacity search, or a fleet run): groups its layers.
    pub const JOB: &str = "job";
    /// `vrdf_core::compute_buffer_capacities`.
    pub const CORE: &str = "core";
    /// `vrdf_sdf::baseline_capacities`.
    pub const SDF_BASELINE: &str = "sdf_baseline";
    /// Plan construction and the tick engine's event loop.
    pub const ENGINE: &str = "engine";
    /// Scenario-battery dispatch, wait and merge around the engine runs.
    pub const BATTERY: &str = "battery";
    /// `vrdf_sim::minimize_capacities` outside its probe batteries.
    pub const SEARCH: &str = "search";
    /// `vrdf_sim::run_fleet` outside its jobs: dispatch and idle workers.
    pub const FLEET: &str = "fleet";
    /// `vrdf_sdf::steady_state` on the sized lowering.
    pub const SDF_EXEC: &str = "sdf_exec";
    /// `vrdf_sdf::minimize_sdf_capacities`.
    pub const SDF_SEARCH: &str = "sdf_search";

    /// The layers whose self time accounts for a pass's wall clock.
    pub const ACCOUNTED: [&str; 8] = [
        CORE,
        SDF_BASELINE,
        ENGINE,
        BATTERY,
        SEARCH,
        FLEET,
        SDF_EXEC,
        SDF_SEARCH,
    ];
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (one of [`layer`]).
    pub layer: &'static str,
    /// What ran, e.g. `"minimize_capacities mp3"`.
    pub label: String,
    /// Start, in seconds since the tracer's epoch.
    pub start: f64,
    /// End, in seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The job this span belongs to, when it belongs to one.
    pub job: Option<usize>,
    /// `true` when the interval was derived from report fields rather
    /// than timed around a call.
    pub derived: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans in memory; nothing is written until [`chrome_trace`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(
        &mut self,
        layer: &'static str,
        label: impl Into<String>,
        job: Option<usize>,
    ) -> usize {
        let now = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            label: label.into(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            job,
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
        self.spans[id].duration()
    }

    /// Times `f` inside a span; returns its result and the duration.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        label: impl Into<String>,
        job: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(layer, label, job);
        let out = f();
        let seconds = self.end(id);
        (out, seconds)
    }

    /// Adds derived children of `parent`, laid end to end from the
    /// parent's start: `(layer, label, seconds)` each.  Their total may
    /// not exceed the parent's duration by more than rounding; the
    /// remainder is the parent's self time.  Returns the children's ids.
    pub fn derive(
        &mut self,
        parent: usize,
        children: &[(&'static str, String, f64)],
    ) -> Vec<usize> {
        let job = self.spans[parent].job;
        let mut at = self.spans[parent].start;
        let mut ids = Vec::with_capacity(children.len());
        for (layer, label, seconds) in children {
            let seconds = seconds.max(0.0);
            ids.push(self.spans.len());
            self.spans.push(Span {
                layer,
                label: label.clone(),
                start: at,
                end: at + seconds,
                parent: Some(parent),
                job,
                derived: true,
            });
            at += seconds;
        }
        ids
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Self time per layer: each span's duration minus the time its
/// children cover, clamped at zero, summed by layer.  Children that
/// claim more than their parent's interval (summed worker time, say)
/// therefore inflate the total instead of cancelling out, which is what
/// [`coverage`] detects.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *by_layer.entry(span.layer).or_insert(0.0) += (span.duration() - covered).max(0.0);
    }
    by_layer
}

/// Σ self time of the [`layer::ACCOUNTED`] layers ÷ Σ pass wall.  Near
/// 1 when the spans account for the wall clock; above 1 when a layer
/// reports summed worker time past it; below 1 when time goes
/// unattributed.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let accounted: f64 = layer::ACCOUNTED
        .iter()
        .map(|l| selfs.get(l).copied().unwrap_or(0.0))
        .sum();
    let wall: f64 = spans
        .iter()
        .filter(|s| s.layer == layer::PASS)
        .map(Span::duration)
        .sum();
    if wall > 0.0 {
        accounted / wall
    } else {
        0.0
    }
}

/// Renders spans as Chrome-trace JSON (loadable in Perfetto): one
/// complete (`"ph": "X"`) event per span, nested by time on one track,
/// with the span id, parent, job and derived flag as args.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{id},\"parent\":{},\"job\":{},\"derived\":{}}}}}",
            crate::json::string(&span.label),
            crate::json::string(span.layer),
            span.start * 1e6,
            span.duration() * 1e6,
            span.parent.map_or("null".to_owned(), |p| p.to_string()),
            span.job.map_or("null".to_owned(), |j| j.to_string()),
            span.derived,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            label: layer.to_owned(),
            start,
            end,
            parent,
            job: None,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(layer::PASS, 0.0, 10.0, None),
            span(layer::SEARCH, 0.0, 9.0, Some(0)),
            span(layer::BATTERY, 1.0, 8.0, Some(1)),
            span(layer::ENGINE, 1.0, 6.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[layer::PASS], 1.0);
        assert_eq!(selfs[layer::SEARCH], 2.0);
        assert_eq!(selfs[layer::BATTERY], 2.0);
        assert_eq!(selfs[layer::ENGINE], 5.0);
        assert!((coverage(&spans) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn summed_worker_time_fails_coverage() {
        // Two workers' engine time (2 × 7 s) reported inside a 7 s
        // battery: the battery's self time clamps at zero and the total
        // overshoots the wall clock.
        let spans = vec![
            span(layer::PASS, 0.0, 8.0, None),
            span(layer::BATTERY, 0.0, 7.0, Some(0)),
            span(layer::ENGINE, 0.0, 14.0, Some(1)),
        ];
        assert!(coverage(&spans) > 1.05);
    }

    #[test]
    fn derived_children_tile_the_parent() {
        let mut tracer = Tracer::new();
        let pass = tracer.begin(layer::PASS, "pass", None);
        let (_, _) = tracer.time(layer::CORE, "core", Some(0), || ());
        tracer.end(pass);
        tracer.derive(1, &[(layer::ENGINE, "run".into(), 0.0)]);
        assert_eq!(tracer.spans().len(), 3);
        assert_eq!(tracer.spans()[2].parent, Some(1));
        assert!(tracer.spans()[2].derived);
        let json = chrome_trace(tracer.spans());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
