//! One benchmark run: set up the inputs, time passes for the requested
//! seconds, check every answer and the work ledger, and reduce the
//! passes to the end-to-end (untraced) or per-layer (traced) metrics.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::env;
use crate::json;
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Inputs, Ledger, Pass, Settings, Workload};

/// Setup is repeated until this much time has passed (at least
/// [`SETUP_MIN_REPS`] times, at most [`SETUP_MAX_REPS`]), and its median
/// reported.
const SETUP_SECONDS: f64 = 0.5;
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 2000;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload and its inputs' parameters.
    pub settings: Settings,
    /// Measurement time; at least one pass (one traced pair) always runs.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Where result files, the cross-run ledger and the trace go; `None`
    /// writes nothing.
    pub results_dir: Option<PathBuf>,
    /// The checkout the source fingerprint and commit are read from.
    pub source_root: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]` only.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples behind the value (passes, jobs or setup repetitions).
    pub samples: usize,
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every answer and ledger check passed.
    pub correct: bool,
    /// Jobs attempted over every pass of the run.
    pub attempted: u64,
    /// Jobs whose output was wrong, failed, panicked or skipped.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// The work ledger of the run (identical in every pass).
    pub ledger: Ledger,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Machine, source and run facts, as a JSON object.
    pub provenance: String,
    /// Chrome-trace JSON of a traced run.
    pub chrome_trace: Option<String>,
}

impl RunResult {
    /// `failed / attempted`.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The final result line: `correct`, `attempted`, `failed` and
    /// `metrics` (value and unit by name).
    pub fn result_line(&self) -> String {
        let metrics = json::object(self.metrics.iter().map(|m| {
            (
                m.name.as_str(),
                json::object([
                    ("value", json::number(m.value)),
                    ("unit", json::string(m.unit)),
                ]),
            )
        }));
        json::object([
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", metrics),
        ])
    }
}

/// Accumulates the passes of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.jobs.len() as u64;
        self.failed += pass.failed_jobs.len() as u64;
        self.failures.extend(pass.failures.iter().cloned());
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Runs the benchmark once.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let settings = &config.settings;
    let mut tally = Tally::default();

    let (inputs, setup) = set_up(settings, &mut tally)?;
    let prepared = workloads::prepare(settings, &inputs);

    let started = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut tracer = Tracer::new();
    loop {
        let round = Instant::now();
        let pass = workloads::run_pass(settings, &inputs, &prepared, None);
        tally.absorb(&pass);
        untraced.push(pass);
        if config.trace {
            let pass = workloads::run_pass(settings, &inputs, &prepared, Some(&mut tracer));
            tally.absorb(&pass);
            traced.push(pass);
        }
        // Stop before a round that would overrun the requested time.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + round.elapsed().as_secs_f64() > config.seconds {
            break;
        }
    }
    let measured = started.elapsed().as_secs_f64();

    // The ledger must repeat in every pass, traced or not; traced passes
    // add counters only telemetry sees.
    let ledger = untraced[0].ledger.clone();
    for (i, pass) in untraced.iter().chain(&traced).enumerate() {
        if let Some(diff) = ledger_diff(&ledger, &pass.ledger) {
            tally.fail(format!("ledger: pass {i} differs from pass 0: {diff}"));
        }
    }
    let mut full_ledger = traced
        .first()
        .map_or_else(|| ledger.clone(), |p| p.ledger.clone());
    if config.trace && settings.threads != 1 {
        // Thread-count invariance: one more pass on a single thread.
        let single = settings.with_threads(1);
        let pass = workloads::run_pass(&single, &inputs, &prepared, None);
        tally.absorb(&pass);
        if let Some(diff) = ledger_diff(&ledger, &pass.ledger) {
            tally.fail(format!(
                "ledger: threads = 1 differs from threads = {}: {diff}",
                settings.threads
            ));
        }
    }
    // The seed-1 reference is reported, not enforced: a change that
    // legitimately does less work must not turn into a wrong answer.
    let reference = (settings.seed == 1).then(|| seed1_reference_diff(settings, &ledger));
    let fingerprint = env::source_fingerprint(&config.source_root);
    if let Some(dir) = &config.results_dir {
        if let Err(e) = check_previous_ledger(dir, settings, fingerprint, &mut full_ledger) {
            tally.fail(e);
        }
    }

    let metrics = if config.trace {
        per_layer_metrics(&untraced, &traced, &tracer)
    } else {
        end_to_end_metrics(&untraced, &setup)
    };
    let mut facts = vec![
        (
            "source_fingerprint",
            json::string(&format!("{fingerprint:016x}")),
        ),
        ("measured_seconds", json::number(measured)),
        ("untraced_pass_s", walls(&untraced)),
        ("traced_pass_s", walls(&traced)),
        (
            "error_frac",
            json::number(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
    ];
    if let Some(diff) = reference {
        facts.push((
            "seed1_reference_diff",
            json::array(diff.iter().map(|d| json::string(d))),
        ));
    }
    let provenance = provenance(config, &metrics, facts);
    let result = RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        ledger: full_ledger,
        failures: tally.failures,
        provenance,
        chrome_trace: config.trace.then(|| trace::chrome_trace(tracer.spans())),
    };
    if let Some(dir) = &config.results_dir {
        write_results(dir, settings, config.trace, &result)?;
    }
    Ok(result)
}

/// Generates the inputs repeatedly, checks every repetition is the same,
/// and returns the last with the per-repetition times.
fn set_up(settings: &Settings, tally: &mut Tally) -> Result<(Inputs, Vec<f64>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut first = None;
    let mut inputs = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(inputs.take()); // Free the previous copy first: peak memory holds one.
        let begin = Instant::now();
        let generated = workloads::generate(settings)?;
        times.push(begin.elapsed().as_secs_f64());
        let fingerprint = workloads::fingerprint(&generated);
        if *first.get_or_insert(fingerprint) != fingerprint {
            tally.fail(format!(
                "setup: repetition {} generated different inputs from the same seed",
                times.len()
            ));
        }
        inputs = Some(generated);
    }
    let inputs = inputs.ok_or("setup produced no inputs")?;
    Ok((inputs, times))
}

/// The ledger entries that differ from the seed-1 reference counts.
pub fn seed1_reference_diff(settings: &Settings, ledger: &Ledger) -> Vec<String> {
    workloads::seed1_reference(settings)
        .into_iter()
        .filter(|(key, expected)| ledger.get(*key) != Some(expected))
        .map(|(key, expected)| format!("{key} = {:?}, reference {expected}", ledger.get(key)))
        .collect()
}

/// The first entry two ledgers disagree on, over the keys both carry.
fn ledger_diff(a: &Ledger, b: &Ledger) -> Option<String> {
    let common: Vec<&String> = a.keys().filter(|k| b.contains_key(*k)).collect();
    if common.len() != a.len().min(b.len()) {
        return Some("different counters".to_owned());
    }
    common
        .into_iter()
        .find(|k| a[*k] != b[*k])
        .map(|k| format!("{k} = {} vs {}", a[k], b[k]))
}

/// Compares this run's ledger with the last one recorded for the same
/// workload, seed and source in `dir`, then records the union.
fn check_previous_ledger(
    dir: &Path,
    settings: &Settings,
    fingerprint: u64,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let path = dir.join(format!(
        "ledger-{}-seed{}-{}.txt",
        settings.workload.name(),
        settings.seed,
        settings_key(settings)
    ));
    let header = format!("source {fingerprint:016x}");
    if let Ok(text) = fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(header.as_str()) {
            let previous: Ledger = lines
                .filter_map(|l| l.split_once(' '))
                .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
                .collect();
            if let Some(diff) = ledger_diff(&previous, ledger) {
                return Err(format!(
                    "ledger: differs from the previous run of this source: {diff}"
                ));
            }
            for (k, v) in previous {
                ledger.entry(k).or_insert(v);
            }
        }
    }
    let mut text = header;
    for (k, v) in ledger.iter() {
        text.push_str(&format!("\n{k} {v}"));
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    fs::write(&path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// A short digest of the input-shaping settings (not the thread count,
/// which the ledger must not depend on).
fn settings_key(settings: &Settings) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = workloads::Fnv::default();
    (&settings.studies, settings.graphs, settings.corpora).hash(&mut h);
    format!("{:08x}", h.finish() as u32)
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

fn end_to_end_metrics(passes: &[Pass], setup: &[f64]) -> Vec<Metric> {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.jobs.len() as f64 / p.wall)
        .collect();
    let jobs_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.jobs.iter().map(|s| s * 1e3))
        .collect();
    vec![
        metric("setup_s", median(setup).unwrap_or(0.0), "s", setup.len()),
        metric(
            "jobs_per_s",
            median(&rates).unwrap_or(0.0),
            "1/s",
            rates.len(),
        ),
        metric(
            "job_p50_ms",
            median(&jobs_ms).unwrap_or(0.0),
            "ms",
            jobs_ms.len(),
        ),
        metric(
            "job_p90_ms",
            stats::percentile(&jobs_ms, 90.0).unwrap_or(0.0),
            "ms",
            jobs_ms.len(),
        ),
        metric("peak_rss_mb", env::peak_rss_mib().unwrap_or(0.0), "MiB", 1),
    ]
}

fn per_layer_metrics(untraced: &[Pass], traced: &[Pass], tracer: &Tracer) -> Vec<Metric> {
    let n = traced.len();
    // Median over the traced passes of a per-pass figure.
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        let values: Vec<f64> = traced.iter().map(f).collect();
        median(&values).unwrap_or(0.0)
    };
    let layer = |key: &'static str| move |p: &Pass| p.layers.get(key).copied().unwrap_or(0.0);
    let count = |key: &str| traced[0].ledger.get(key).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let events = count("engine.events");
    let sdf_events = count("sdf_exec.events");
    let untraced_wall: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall).collect();
    vec![
        metric("core.calls", count("core.calls"), "count", n),
        metric("core.busy_s", per_pass(&layer("core.busy_s")), "s", n),
        metric(
            "core.us_per_task",
            per_pass(&|p| 1e6 * ratio(layer("core.busy_s")(p), layer("core.tasks")(p))),
            "us",
            n,
        ),
        metric(
            "sdf_baseline.calls",
            count("sdf_baseline.calls"),
            "count",
            n,
        ),
        metric(
            "sdf_baseline.busy_s",
            per_pass(&layer("sdf_baseline.busy_s")),
            "s",
            n,
        ),
        metric("engine.plans", count("engine.plans"), "count", n),
        metric(
            "engine.plan_build_s",
            per_pass(&layer("engine.plan_build_s")),
            "s",
            n,
        ),
        metric("engine.events", events, "count", n),
        metric("engine.firings", count("engine.firings"), "count", n),
        metric(
            "engine.settling_passes",
            count("engine.settling_passes"),
            "count",
            n,
        ),
        metric(
            "engine.ns_per_event",
            per_pass(&|p| 1e9 * ratio(layer("engine.run_s")(p), events)),
            "ns",
            n,
        ),
        metric("battery.runs", count("battery.runs"), "count", n),
        metric("battery.scenarios", count("battery.scenarios"), "count", n),
        metric("battery.busy_s", per_pass(&layer("battery.busy_s")), "s", n),
        metric(
            "battery.parallel_eff",
            per_pass(&|p| ratio(layer("engine.run_s")(p), layer("battery.wall_threads_s")(p))),
            "ratio",
            n,
        ),
        metric("search.probes", count("search.probes"), "count", n),
        metric(
            "search.pass_ratio",
            ratio(count("search.probes_passed"), count("search.probes")),
            "ratio",
            n,
        ),
        metric("search.self_s", per_pass(&layer("search.self_s")), "s", n),
        metric("fleet.jobs", count("fleet.jobs"), "count", n),
        metric(
            "fleet.util",
            per_pass(&|p| ratio(layer("fleet.latency_s")(p), layer("fleet.worker_wall_s")(p))),
            "ratio",
            n,
        ),
        metric(
            "fleet.tail_idle_s",
            per_pass(&layer("fleet.tail_idle_s")),
            "s",
            n,
        ),
        metric(
            "fleet.max_job_ms",
            per_pass(&layer("fleet.max_job_ms")),
            "ms",
            n,
        ),
        metric("sdf_exec.events", sdf_events, "count", n),
        metric(
            "sdf_exec.ns_per_event",
            per_pass(&|p| 1e9 * ratio(layer("sdf_exec.busy_s")(p), sdf_events)),
            "ns",
            n,
        ),
        metric("sdf_search.probes", count("sdf_search.probes"), "count", n),
        metric(
            "sdf_search.busy_s",
            per_pass(&layer("sdf_search.busy_s")),
            "s",
            n,
        ),
        metric(
            "trace.overhead",
            ratio(
                median(&traced_wall).unwrap_or(0.0),
                median(&untraced_wall).unwrap_or(0.0),
            ),
            "ratio",
            n,
        ),
        metric(
            "trace.coverage",
            trace::coverage(tracer.spans()),
            "ratio",
            n,
        ),
    ]
}

/// Machine, source and settings facts, then the run's own `facts`, then
/// the sample count behind each metric.
fn provenance(
    config: &RunConfig,
    metrics: &[Metric],
    facts: Vec<(&'static str, String)>,
) -> String {
    let s = &config.settings;
    let commit = env::commit(&config.source_root);
    let mut fields = vec![
        ("workload", json::string(s.workload.name())),
        ("seed", s.seed.to_string()),
        ("trace", config.trace.to_string()),
        ("nproc", env::nproc().to_string()),
        ("cpu_model", json::string(&env::cpu_model())),
        (
            "commit",
            commit.map_or("null".to_owned(), |c| json::string(&c)),
        ),
        ("run_seconds", json::number(config.seconds)),
        ("threads", s.threads.to_string()),
    ];
    if s.workload == Workload::CaseStudy {
        fields.push((
            "studies",
            json::array(s.studies.iter().map(|n| json::string(n))),
        ));
    } else {
        fields.push(("graphs", s.graphs.to_string()));
        fields.push(("corpora", s.corpora.to_string()));
    }
    fields.extend(facts);
    let samples = metrics
        .iter()
        .map(|m| (m.name.as_str(), m.samples.to_string()));
    fields.push(("samples", json::object(samples)));
    // The tail rule: a percentile needs ten samples beyond it.
    if let Some(m) = metrics.iter().find(|m| m.name == "job_p90_ms") {
        let highest = stats::highest_supported_percentile(m.samples);
        fields.push((
            "job_highest_supported_percentile",
            highest.map_or("null".to_owned(), json::number),
        ));
    }
    json::object(fields)
}

fn walls(passes: &[Pass]) -> String {
    json::array(passes.iter().map(|p| json::number(p.wall)))
}

fn write_results(
    dir: &Path,
    settings: &Settings,
    traced: bool,
    result: &RunResult,
) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        settings.workload.name(),
        settings.seed,
        u8::from(traced)
    );
    let ledger = json::object(
        result
            .ledger
            .iter()
            .map(|(k, v)| (k.as_str(), v.to_string())),
    );
    let failures = json::array(result.failures.iter().map(|f| json::string(f)));
    let body = json::object([
        ("provenance", result.provenance.clone()),
        ("ledger", ledger),
        ("failures", failures),
        ("result", result.result_line()),
    ]);
    let path = dir.join(format!("{stem}.json"));
    fs::write(&path, body + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    if let Some(trace) = &result.chrome_trace {
        let path = dir.join(format!("{stem}.trace.json"));
        fs::write(&path, trace).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `true` when `name` is a valid metric name: a letter or digit first,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every metric name a run prints, by mode.
pub fn metric_names(trace: bool) -> Vec<String> {
    let pass = [Pass::default()];
    let metrics = if trace {
        per_layer_metrics(&pass, &pass, &Tracer::new())
    } else {
        end_to_end_metrics(&pass, &[])
    };
    metrics.into_iter().map(|m| m.name).collect()
}
