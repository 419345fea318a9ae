//! The three workloads: their inputs (generated from the seed), one
//! timed pass each, the answer checks every pass makes, and the exact
//! work counts (the ledger) every pass emits.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use vrdf_apps::synthetic::{self, ChainSpec, DagSpec, Rng};
use vrdf_apps::{case_study, fleet_corpus, CaseStudy, CASE_STUDY_NAMES};
use vrdf_core::{compute_buffer_capacities, GraphAnalysis, TaskGraph, ThroughputConstraint};
use vrdf_sdf::{
    baseline_capacities, minimize_sdf_capacities, steady_state, ExecOptions, ExecOutcome,
    SdfSearchOptions,
};
use vrdf_sim::{
    effective_threads, minimize_capacities, run_fleet, validate_capacities, FleetItem, FleetJob,
    FleetOptions, FleetReport, JobOutcome, ScenarioRunner, SearchOptions, ValidationOptions,
};

use crate::trace::{layer, Tracer};

/// Exact work counts of one pass, by name.  Every entry repeats
/// bit-for-bit across passes, runs and thread counts.
pub type Ledger = BTreeMap<String, u64>;

/// Eq. (4) on the MP3 chain: the paper's published capacities.
pub const MP3_EQ4: [u64; 3] = [6015, 3263, 882];
/// The SDF operational floor of the MP3 chain.
pub const MP3_SDF_FLOOR: [u64; 3] = [5888, 3072, 881];

/// VRDF operational minima of a case study at the `minimize` defaults.
pub fn vrdf_minima(study: &str) -> Option<&'static [u64]> {
    match study {
        "mp3" => Some(&[5824, 3072, 881]),
        "fork-join" => Some(&[5248, 3072, 3072, 1323, 1323, 485]),
        "mp3-feedback" => Some(&[5824, 3072, 881, 128]),
        _ => None,
    }
}

/// Ledger entries pinned at seed 1 (the `minimize` and `fleet` CLI
/// defaults), for both thread counts.
pub fn seed1_reference(settings: &Settings) -> Vec<(&'static str, u64)> {
    let pinned: &[(&str, &str, u64)] = match settings.workload {
        Workload::CaseStudy => &[
            ("mp3", "vrdf.mp3.probes", 35),
            ("mp3", "vrdf.mp3.events", 9_031_251),
            ("fork-join", "vrdf.fork-join.probes", 59),
            ("fork-join", "vrdf.fork-join.events", 22_602_273),
            ("mp3-feedback", "vrdf.mp3-feedback.probes", 42),
            ("mp3-feedback", "vrdf.mp3-feedback.events", 11_976_494),
            ("fork-join", "sdf.fork-join.probes", 65),
        ],
        Workload::FleetValidate if settings.graphs == FLEET_VALIDATE_GRAPHS => {
            &[("", "corpus0.events", 32_190_411)]
        }
        _ => &[],
    };
    pinned
        .iter()
        .filter(|(study, _, _)| study.is_empty() || settings.studies.contains(study))
        .map(|&(_, key, n)| (key, n))
        .collect()
}

/// Graphs in one `fleet-validate` corpus.
pub const FLEET_VALIDATE_GRAPHS: usize = 256;
/// `fleet-validate` corpora per pass: one fleet run each.  A single
/// 256-graph corpus varies by ±10% in work from seed to seed (a few
/// long chains dominate it); four average that down.
pub const FLEET_VALIDATE_CORPORA: usize = 4;
/// Graphs in the `analysis-sweep` corpus.
pub const ANALYSIS_SWEEP_GRAPHS: usize = 6144;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// `minimize` and `baseline --minimize` on the three case studies.
    CaseStudy,
    /// `run_fleet` with the `Validate` job over `fleet_corpus(seed, 256)`.
    FleetValidate,
    /// `run_fleet` with the `Baseline` job over large synthetic graphs.
    AnalysisSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CaseStudy,
        Workload::FleetValidate,
        Workload::AnalysisSweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CaseStudy => "casestudy",
            Workload::FleetValidate => "fleet-validate",
            Workload::AnalysisSweep => "analysis-sweep",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a run of one workload is parameterised by.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Battery threads (`casestudy`) or pool workers (fleets), ≥ 1.
    pub threads: usize,
    /// Case studies searched by `casestudy`.
    pub studies: Vec<&'static str>,
    /// Graphs per corpus of the fleet workloads.
    pub graphs: usize,
    /// Corpora per pass of the fleet workloads, one fleet run each.
    pub corpora: usize,
}

impl Settings {
    /// The full-size workload on every CPU.
    pub fn new(workload: Workload, seed: u64) -> Settings {
        Settings {
            workload,
            seed,
            threads: effective_threads(0, usize::MAX),
            studies: CASE_STUDY_NAMES.to_vec(),
            graphs: match workload {
                Workload::CaseStudy => 0,
                Workload::FleetValidate => FLEET_VALIDATE_GRAPHS,
                Workload::AnalysisSweep => ANALYSIS_SWEEP_GRAPHS,
            },
            corpora: match workload {
                Workload::CaseStudy => 0,
                Workload::FleetValidate => FLEET_VALIDATE_CORPORA,
                Workload::AnalysisSweep => 1,
            },
        }
    }

    /// The same workload at another thread count.
    pub fn with_threads(&self, threads: usize) -> Settings {
        Settings {
            threads: effective_threads(threads, usize::MAX),
            ..self.clone()
        }
    }

    /// The scenario battery of the `casestudy` searches: the `minimize`
    /// defaults, with the random scenarios seeded from the input seed.
    fn search_validation(&self, telemetry: bool) -> ValidationOptions {
        ValidationOptions {
            endpoint_firings: 30_000,
            random_runs: 4,
            base_seed: battery_seed(self.seed),
            threads: self.threads,
            telemetry,
            ..ValidationOptions::default()
        }
    }

    /// The fleet options: the `fleet` CLI defaults at `threads` workers.
    fn fleet_options(&self, telemetry: bool) -> FleetOptions {
        let mut opts = FleetOptions {
            job: match self.workload {
                Workload::AnalysisSweep => FleetJob::Baseline,
                _ => FleetJob::Validate,
            },
            workers: self.threads,
            ..FleetOptions::default()
        };
        opts.validation.endpoint_firings = 2_000;
        opts.validation.random_runs = 2;
        opts.validation.telemetry = telemetry;
        opts
    }
}

/// The base seed of the `casestudy` batteries' random scenarios: the
/// `minimize` default at seed 1, shifted by one per seed beyond it.
pub fn battery_seed(seed: u64) -> u64 {
    ValidationOptions::default()
        .base_seed
        .wrapping_add(seed.wrapping_sub(1))
}

/// The generated inputs of a workload.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// The bundled case studies.
    CaseStudies(Vec<CaseStudy>),
    /// Fleet corpora, one fleet run each.
    Corpora(Vec<Vec<FleetItem>>),
}

/// Generates the workload's inputs from the seed — the work `setup_s`
/// times.
pub fn generate(settings: &Settings) -> Result<Inputs, String> {
    match settings.workload {
        Workload::CaseStudy => settings
            .studies
            .iter()
            .map(|name| case_study(name).ok_or_else(|| format!("unknown case study `{name}`")))
            .collect::<Result<_, _>>()
            .map(Inputs::CaseStudies),
        // Corpus k is graphs 256·k … 256·k + 255 of one long
        // `fleet_corpus` sequence: corpus 0 is `fleet_corpus(seed, 256)`.
        Workload::FleetValidate => (0..settings.corpora)
            .map(|k| {
                let seed = settings.seed.wrapping_add((k * settings.graphs) as u64);
                fleet_corpus(seed, settings.graphs)
                    .map_err(|e| format!("corpus generation failed: {e}"))
            })
            .collect::<Result<_, _>>()
            .map(Inputs::Corpora),
        Workload::AnalysisSweep => (0..settings.corpora)
            .map(|k| sweep_corpus(settings.seed.wrapping_add(k as u64), settings.graphs))
            .collect::<Result<_, _>>()
            .map(Inputs::Corpora),
    }
}

/// The `analysis-sweep` corpus: chains of 16–128 tasks and fork/joins
/// 8–48 wide and 1–4 deep (half closed by a feedback edge), alternating,
/// all on the 1/1024 response-time grid.  Deterministic in the seed.
pub fn sweep_corpus(seed: u64, count: usize) -> Result<Vec<FleetItem>, String> {
    let chain_spec = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    let dag_spec = DagSpec {
        rho_grid_subdivision: Some(1024),
        ..DagSpec::default()
    };
    let cyclic_spec = DagSpec {
        feedback_headroom: Some(2),
        ..dag_spec.clone()
    };
    let mut shapes = Rng::new(seed);
    let mut corpus = Vec::with_capacity(count);
    for i in 0..count {
        let graph_seed = shapes.next_u64();
        let (name, generated) = if i % 2 == 0 {
            let tasks = shapes.range(16, 128) as usize;
            (
                format!("chain{tasks}-{i}"),
                synthetic::random_chain_of_length(graph_seed, tasks, &chain_spec),
            )
        } else {
            let width = shapes.range(8, 48) as usize;
            let depth = shapes.range(1, 4) as usize;
            let (kind, spec) = if i % 4 == 3 {
                ("cyclic", &cyclic_spec)
            } else {
                ("forkjoin", &dag_spec)
            };
            (
                format!("{kind}{width}x{depth}-{i}"),
                synthetic::fork_join_of(graph_seed, width, depth, spec),
            )
        };
        let (graph, constraint) = generated.map_err(|e| format!("graph {name}: {e}"))?;
        corpus.push(FleetItem {
            name,
            graph,
            constraint,
        });
    }
    Ok(corpus)
}

/// A stable digest of generated inputs (FNV-1a over every task, buffer
/// and constraint), for checking that generation is deterministic.
pub fn fingerprint(inputs: &Inputs) -> u64 {
    let mut h = Fnv::default();
    let mut graph = |name: &str, tg: &TaskGraph, constraint: &ThroughputConstraint| {
        name.hash(&mut h);
        for (_, task) in tg.tasks() {
            task.name().hash(&mut h);
            task.response_time().hash(&mut h);
        }
        for (_, b) in tg.buffers() {
            b.name().hash(&mut h);
            (b.producer().index(), b.consumer().index()).hash(&mut h);
            b.production().as_slice().hash(&mut h);
            b.consumption().as_slice().hash(&mut h);
            (b.initial_tokens(), b.capacity(), b.is_feedback()).hash(&mut h);
        }
        constraint.hash(&mut h);
    };
    match inputs {
        Inputs::CaseStudies(studies) => {
            for s in studies {
                graph(s.name, &s.graph, &s.constraint);
            }
        }
        Inputs::Corpora(corpora) => {
            for item in corpora.iter().flatten() {
                graph(&item.name, &item.graph, &item.constraint);
            }
        }
    }
    h.finish()
}

/// 64-bit FNV-1a: a hash that is the same on every build and machine.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What one pass needs beyond the inputs, derived once per run outside
/// the timed passes: each case study's battery size, and for the sweep
/// the per-graph capacity totals whose per-edge spread identity holds.
#[derive(Clone, Debug, Default)]
pub struct Prepared {
    /// Scenarios per battery of each case study, by study index.
    scenarios: Vec<u64>,
    /// Per corpus and graph: `(vrdf_total, sdf_total)` when every edge
    /// satisfies `ζ_SDF = ζ_VRDF + spread(π) + spread(γ)`; the error
    /// otherwise.
    totals: Vec<Vec<Result<(u64, u64), String>>>,
}

/// Derives the [`Prepared`] facts, checking the sweep's per-edge
/// identity on every graph.
pub fn prepare(settings: &Settings, inputs: &Inputs) -> Prepared {
    match inputs {
        Inputs::CaseStudies(studies) => Prepared {
            scenarios: studies
                .iter()
                .map(|s| scenario_count(&s.graph, s.constraint, &settings.search_validation(false)))
                .collect(),
            totals: Vec::new(),
        },
        Inputs::Corpora(corpora) if settings.workload == Workload::AnalysisSweep => Prepared {
            scenarios: Vec::new(),
            totals: corpora
                .iter()
                .map(|items| items.iter().map(spread_identity).collect())
                .collect(),
        },
        Inputs::Corpora(_) => Prepared::default(),
    }
}

fn scenario_count(
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
    opts: &ValidationOptions,
) -> u64 {
    let release = vrdf_core::ConstrainedRelease::default();
    ScenarioRunner::new(tg, constraint, vrdf_core::Rational::ZERO, release, opts)
        .map_or(0, |runner| runner.scenario_count() as u64)
}

/// Eq. (4) and the SDF baseline of one graph, edge by edge: the two
/// capacity totals, or the first edge that breaks
/// `ζ_SDF = ζ_VRDF + spread(π) + spread(γ)`.
fn spread_identity(item: &FleetItem) -> Result<(u64, u64), String> {
    let vrdf = compute_buffer_capacities(&item.graph, item.constraint)
        .map_err(|e| format!("Eq. (4) failed: {e}"))?;
    let sdf = baseline_capacities(&item.graph, item.constraint)
        .map_err(|e| format!("SDF baseline failed: {e}"))?;
    check_identity(&item.name, &item.graph, &vrdf, &sdf)?;
    Ok((vrdf.total_capacity(), sdf.total_capacity()))
}

fn check_identity(
    name: &str,
    tg: &TaskGraph,
    vrdf: &GraphAnalysis,
    sdf: &vrdf_sdf::BaselineAnalysis,
) -> Result<(), String> {
    if vrdf.capacities().len() != sdf.edges().len() {
        return Err(format!("{name}: VRDF and SDF size different edge sets"));
    }
    for (v, s) in vrdf.capacities().iter().zip(sdf.edges()) {
        let b = tg.buffer(v.buffer);
        let expected = v.capacity + b.production().spread() + b.consumption().spread();
        if v.buffer != s.buffer || s.capacity != expected {
            return Err(format!(
                "{name}: edge {} has SDF {} but VRDF {} + spreads = {expected}",
                v.name, s.capacity, v.capacity
            ));
        }
    }
    Ok(())
}

/// The outcome of one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the pass's jobs, in seconds (checks excluded).
    pub wall: f64,
    /// Per-job latency, in seconds.
    pub jobs: Vec<f64>,
    /// Exact work counts.
    pub ledger: Ledger,
    /// One line per failed check, prefixed with its job.
    pub failures: Vec<String>,
    /// Jobs whose output was wrong, failed, panicked or was skipped.
    pub failed_jobs: BTreeSet<String>,
    /// Per-layer figures, traced passes only.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn count(&mut self, key: impl Into<String>, n: u64) {
        *self.ledger.entry(key.into()).or_insert(0) += n;
    }

    fn add(&mut self, key: &'static str, x: f64) {
        *self.layers.entry(key).or_insert(0.0) += x;
    }

    fn check(&mut self, job: &str, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{job}: {}", what()));
            self.failed_jobs.insert(job.to_owned());
        }
    }
}

/// Runs one pass of the workload.  With a tracer the pass runs with
/// telemetry on, records spans, and fills [`Pass::layers`].
pub fn run_pass(
    settings: &Settings,
    inputs: &Inputs,
    prepared: &Prepared,
    tracer: Option<&mut Tracer>,
) -> Pass {
    match inputs {
        Inputs::CaseStudies(studies) => casestudy_pass(settings, studies, prepared, tracer),
        Inputs::Corpora(corpora) => fleet_pass(settings, corpora, prepared, tracer),
    }
}

/// Opens a span when tracing.
fn open(
    tracer: &mut Option<&mut Tracer>,
    layer: &'static str,
    label: impl FnOnce() -> String,
    job: Option<usize>,
) -> Option<usize> {
    tracer.as_mut().map(|t| t.begin(layer, label(), job))
}

/// Closes a span [`open`] opened.
fn close(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.end(span);
    }
}

/// Times `f`, inside a span when tracing.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    layer: &'static str,
    label: impl FnOnce() -> String,
    job: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64, Option<usize>) {
    let span = open(tracer, layer, label, job);
    let begin = Instant::now();
    let out = f();
    let seconds = begin.elapsed().as_secs_f64();
    close(tracer, span);
    (out, seconds, span)
}

fn casestudy_pass(
    settings: &Settings,
    studies: &[CaseStudy],
    prepared: &Prepared,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let root = open(
        &mut tracer,
        layer::PASS,
        || "casestudy pass".to_owned(),
        None,
    );
    let begin = Instant::now();
    for (i, study) in studies.iter().enumerate() {
        let scenarios = prepared.scenarios.get(i).copied().unwrap_or(0);
        let analysis = vrdf_job(settings, study, scenarios, 2 * i, &mut tracer, &mut pass);
        sdf_job(study, analysis.as_ref(), 2 * i + 1, &mut tracer, &mut pass);
    }
    pass.wall = begin.elapsed().as_secs_f64();
    close(&mut tracer, root);
    pass
}

/// Eq. (4), then the VRDF operational-minimum search: what `minimize`
/// does.  Returns the Eq. (4) analysis for the SDF job's identity check.
fn vrdf_job(
    settings: &Settings,
    study: &CaseStudy,
    scenarios: u64,
    job: usize,
    tracer: &mut Option<&mut Tracer>,
    pass: &mut Pass,
) -> Option<GraphAnalysis> {
    let name = study.name;
    let label = format!("vrdf {name}");
    let traced = tracer.is_some();
    let search = SearchOptions {
        validation: settings.search_validation(traced),
        ..SearchOptions::default()
    };
    let battery_threads = effective_threads(settings.threads, scenarios as usize);

    let span = open(tracer, layer::JOB, || label.clone(), Some(job));
    let begin = Instant::now();
    let (analysis, core_s, _) = timed(
        tracer,
        layer::CORE,
        || format!("compute_buffer_capacities {name}"),
        Some(job),
        || compute_buffer_capacities(&study.graph, study.constraint),
    );
    let searched = analysis.as_ref().ok().map(|analysis| {
        timed(
            tracer,
            layer::SEARCH,
            || format!("minimize_capacities {name}"),
            Some(job),
            || minimize_capacities(&study.graph, analysis, &search),
        )
    });
    pass.jobs.push(begin.elapsed().as_secs_f64());
    close(tracer, span);

    pass.count("core.calls", 1);
    pass.add("core.busy_s", core_s);
    pass.add("core.tasks", study.graph.task_count() as f64);
    let analysis = match analysis {
        Ok(analysis) => analysis,
        Err(e) => {
            pass.check(&label, false, || format!("Eq. (4) failed: {e}"));
            return None;
        }
    };
    let (report, search_s, search_span) = match searched {
        Some((Ok(report), search_s, search_span)) => (report, search_s, search_span),
        Some((Err(e), _, _)) => {
            pass.check(&label, false, || format!("search failed: {e}"));
            return Some(analysis);
        }
        None => unreachable!("the search runs whenever Eq. (4) succeeds"),
    };

    let eq4: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
    let minima: Vec<u64> = report.edges.iter().map(|e| e.minimal).collect();
    pass.check(&label, name != "mp3" || eq4 == MP3_EQ4, || {
        format!("Eq. (4) gave {eq4:?}, expected {MP3_EQ4:?}")
    });
    pass.check(&label, report.baseline_clear && report.complete, || {
        "baseline failed or search incomplete".to_owned()
    });
    pass.check(
        &label,
        report.occupancy_breaches == 0 && report.scenarios_skipped == 0,
        || "battery breached occupancy or skipped scenarios".to_owned(),
    );
    if let Some(expected) = vrdf_minima(name) {
        pass.check(&label, minima == expected, || {
            format!("minima {minima:?}, expected {expected:?}")
        });
    }
    let probes = u64::from(report.probes);
    pass.count(format!("vrdf.{name}.probes"), probes);
    pass.count(format!("vrdf.{name}.events"), report.events);
    pass.count("search.probes", probes);
    pass.count("search.probes_passed", u64::from(report.probes_passed));
    pass.count("engine.plans", 1);
    pass.count("engine.events", report.events);
    pass.count("battery.runs", probes);
    pass.count("battery.scenarios", probes * scenarios);

    // Split the search span: the plan build and the probe batteries
    // (Σ probe latency), and inside those the engine runs as a wall-clock
    // share (busy time summed over threads ÷ threads).
    if let (Some(m), Some(t), Some(span)) = (&report.metrics, tracer.as_mut(), search_span) {
        pass.check(&label, m.counters.events_popped == report.events, || {
            "telemetry event count disagrees with the report".to_owned()
        });
        pass.count("engine.firings", m.counters.firings_finished);
        pass.count("engine.settling_passes", m.counters.settling_passes);
        let battery_s = m.probe_latency.mean().map_or(0.0, |d| d.as_secs_f64())
            * m.probe_latency.count() as f64;
        let plan_s = m.phases.plan_build.as_secs_f64();
        let engine_s = (m.phases.run + m.phases.reset).as_secs_f64();
        let ids = t.derive(
            span,
            &[
                (layer::ENGINE, format!("plan build {name}"), plan_s),
                (layer::BATTERY, format!("probe batteries {name}"), battery_s),
            ],
        );
        t.derive(
            ids[1],
            &[(
                layer::ENGINE,
                format!("engine runs {name} (busy / {battery_threads} threads)"),
                engine_s / battery_threads as f64,
            )],
        );
        pass.add("engine.plan_build_s", plan_s);
        pass.add("engine.run_s", engine_s);
        pass.add("battery.busy_s", battery_s);
        pass.add("battery.wall_threads_s", battery_s * battery_threads as f64);
        pass.add("search.self_s", search_s - battery_s);
    }
    Some(analysis)
}

/// The SDF baseline, its steady state, and the SDF floor: what
/// `baseline --minimize` does.  The floor is searched down from the
/// sized lowering that just passed its steady-state check.
fn sdf_job(
    study: &CaseStudy,
    vrdf: Option<&GraphAnalysis>,
    job: usize,
    tracer: &mut Option<&mut Tracer>,
    pass: &mut Pass,
) {
    let name = study.name;
    let label = format!("sdf {name}");
    let exec = ExecOptions {
        telemetry: tracer.is_some(),
        ..ExecOptions::default()
    };
    let span = open(tracer, layer::JOB, || label.clone(), Some(job));
    let begin = Instant::now();
    let (baseline, baseline_s, _) = timed(
        tracer,
        layer::SDF_BASELINE,
        || format!("baseline_capacities {name}"),
        Some(job),
        || baseline_capacities(&study.graph, study.constraint),
    );
    let sized = |b: &vrdf_sdf::BaselineAnalysis| b.sized_lowering(&study.graph);
    let (state, exec_s, _) = timed(
        tracer,
        layer::SDF_EXEC,
        || format!("steady_state {name}"),
        Some(job),
        || {
            let b = baseline.as_ref().map_err(Clone::clone)?;
            steady_state(&sized(b), study.constraint, &exec)
        },
    );
    let (floor, search_s, _) = timed(
        tracer,
        layer::SDF_SEARCH,
        || format!("minimize_sdf_capacities {name}"),
        Some(job),
        || {
            let b = baseline.as_ref().map_err(Clone::clone)?;
            let opts = SdfSearchOptions { exec };
            minimize_sdf_capacities(&sized(b), study.constraint, &opts)
        },
    );
    pass.jobs.push(begin.elapsed().as_secs_f64());
    close(tracer, span);

    pass.count("sdf_baseline.calls", 1);
    pass.add("sdf_baseline.busy_s", baseline_s);
    pass.add("sdf_exec.busy_s", exec_s);
    pass.add("sdf_search.busy_s", search_s);
    match (vrdf, &baseline) {
        (Some(vrdf), Ok(sdf)) => {
            let identity = check_identity(name, &study.graph, vrdf, sdf);
            pass.check(&label, identity.is_ok(), || {
                identity.err().unwrap_or_default()
            });
        }
        (_, Err(e)) => pass.check(&label, false, || format!("SDF baseline failed: {e}")),
        (None, Ok(_)) => pass.check(&label, false, || {
            "no Eq. (4) analysis to compare".to_owned()
        }),
    }
    match &state {
        Ok(state) => {
            pass.check(
                &label,
                state.outcome == ExecOutcome::Periodic && state.meets_constraint(),
                || format!("sized lowering is not periodic at the constraint: {state}"),
            );
            pass.count("sdf_exec.events", state.events);
        }
        Err(e) => pass.check(&label, false, || format!("steady state failed: {e}")),
    }
    match &floor {
        Ok(report) => {
            let minima: Vec<u64> = report.channels.iter().map(|c| c.minimal).collect();
            pass.check(&label, report.baseline_clear, || {
                "SDF search baseline failed".to_owned()
            });
            pass.check(&label, name != "mp3" || minima == MP3_SDF_FLOOR, || {
                format!("SDF floor {minima:?}, expected {MP3_SDF_FLOOR:?}")
            });
            pass.count(format!("sdf.{name}.probes"), u64::from(report.probes));
            pass.count("sdf_search.probes", u64::from(report.probes));
        }
        Err(e) => pass.check(&label, false, || format!("SDF search failed: {e}")),
    }
}

fn fleet_pass(
    settings: &Settings,
    corpora: &[Vec<FleetItem>],
    prepared: &Prepared,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let opts = settings.fleet_options(tracer.is_some());
    let mut pass = Pass::default();
    let root = open(
        &mut tracer,
        layer::PASS,
        || format!("{} pass", settings.workload.name()),
        None,
    );
    let mut reports = Vec::with_capacity(corpora.len());
    for (k, corpus) in corpora.iter().enumerate() {
        let (report, seconds, span) = timed(
            &mut tracer,
            layer::JOB,
            || format!("run_fleet corpus {k}"),
            None,
            || run_fleet(corpus, &opts),
        );
        pass.wall += seconds;
        reports.push((report, span));
    }
    close(&mut tracer, root);
    for (k, (corpus, (report, span))) in corpora.iter().zip(&reports).enumerate() {
        pass.jobs
            .extend(report.latencies.iter().map(|d| d.as_secs_f64()));
        let totals = prepared.totals.get(k).map_or(&[][..], Vec::as_slice);
        check_fleet(settings, k, corpus, totals, report, &mut pass);
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            attribute_fleet(settings, corpus, report, t, *span, &mut pass);
        }
    }
    pass
}

fn check_fleet(
    settings: &Settings,
    k: usize,
    corpus: &[FleetItem],
    totals: &[Result<(u64, u64), String>],
    report: &FleetReport,
    pass: &mut Pass,
) {
    pass.count("fleet.jobs", report.results.len() as u64);
    pass.check("fleet", report.results.len() == corpus.len(), || {
        format!(
            "{} results for {} graphs",
            report.results.len(),
            corpus.len()
        )
    });
    for result in &report.results {
        let name = &format!("corpus{k}/{}", result.name);
        if !matches!(result.outcome, JobOutcome::Skipped) {
            pass.count("core.calls", 1);
        }
        match (&result.outcome, settings.workload) {
            (
                JobOutcome::Validated {
                    all_clear,
                    complete,
                    scenarios,
                    events,
                    ..
                },
                Workload::FleetValidate,
            ) => {
                pass.check(name, *all_clear && *complete && result.outcome.ok(), || {
                    result.outcome.to_string()
                });
                pass.count("engine.plans", 1);
                pass.count("engine.events", *events);
                pass.count(format!("corpus{k}.events"), *events);
                pass.count("battery.runs", 1);
                pass.count("battery.scenarios", *scenarios as u64);
            }
            (
                JobOutcome::Baselined {
                    vrdf_total,
                    sdf_total,
                    over_provision,
                    ..
                },
                Workload::AnalysisSweep,
            ) => {
                pass.count("sdf_baseline.calls", 1);
                let got = (*vrdf_total, *sdf_total);
                match totals.get(result.index) {
                    Some(Ok(expected)) => pass.check(
                        name,
                        got == *expected && vrdf_total + over_provision == *sdf_total,
                        || format!("totals (vrdf, sdf) {got:?}, expected {expected:?}"),
                    ),
                    Some(Err(e)) => pass.check(name, false, || e.clone()),
                    None => pass.check(name, false, || "no prepared totals".to_owned()),
                }
            }
            (outcome, _) => {
                pass.check(name, false, || format!("unexpected outcome: {outcome}"));
            }
        }
    }
}

/// Splits the fleet's wall clock into layers.  The pool hides its jobs,
/// so the benchmark times each inner layer's public call directly on
/// the same inputs (single-threaded, outside the pass) and hands the
/// fleet's job time — Σ job latency ÷ workers, a wall-clock share — to
/// the layers in proportion.  The fleet keeps the rest: dispatch and
/// idle workers.
fn attribute_fleet(
    settings: &Settings,
    corpus: &[FleetItem],
    report: &FleetReport,
    tracer: &mut Tracer,
    job: usize,
    pass: &mut Pass,
) {
    let battery = settings.fleet_options(true).battery_options();
    let mut core_s = 0.0;
    let mut plan_s = 0.0;
    let mut run_s = 0.0;
    let mut validate_s = 0.0;
    let mut baseline_s = 0.0;
    let mut tasks = 0usize;
    let mut events = 0u64;
    for item in corpus {
        tasks += item.graph.task_count();
        let begin = Instant::now();
        let analysis = compute_buffer_capacities(&item.graph, item.constraint);
        core_s += begin.elapsed().as_secs_f64();
        match (settings.workload, analysis) {
            (Workload::FleetValidate, Ok(analysis)) => {
                let begin = Instant::now();
                let checked = validate_capacities(&item.graph, &analysis, &battery);
                validate_s += begin.elapsed().as_secs_f64();
                if let Ok(Some(m)) = checked.map(|r| r.metrics) {
                    plan_s += m.phases.plan_build.as_secs_f64();
                    run_s += (m.phases.run + m.phases.reset).as_secs_f64();
                    events += m.counters.events_popped;
                    pass.count("engine.firings", m.counters.firings_finished);
                    pass.count("engine.settling_passes", m.counters.settling_passes);
                }
            }
            (Workload::AnalysisSweep, Ok(_)) => {
                let begin = Instant::now();
                let _ = std::hint::black_box(baseline_capacities(&item.graph, item.constraint));
                baseline_s += begin.elapsed().as_secs_f64();
            }
            _ => {}
        }
    }
    if settings.workload == Workload::FleetValidate {
        let fleet_events = report.events();
        pass.check("fleet", events == fleet_events, || {
            format!("direct batteries ran {events} events, the fleet {fleet_events}")
        });
    }
    let latency_sum: f64 = report.latencies.iter().map(|d| d.as_secs_f64()).sum();
    let workers = report.workers.max(1) as f64;
    let share = latency_sum / workers;
    let direct = core_s + validate_s + baseline_s;
    let scale = if direct > 0.0 { share / direct } else { 0.0 };
    let mut children = vec![(
        layer::CORE,
        "compute_buffer_capacities (share)".to_owned(),
        core_s * scale,
    )];
    match settings.workload {
        Workload::AnalysisSweep => {
            children.push((
                layer::SDF_BASELINE,
                "baseline_capacities (share)".to_owned(),
                baseline_s * scale,
            ));
        }
        _ => {
            children.push((
                layer::ENGINE,
                "plan build + engine runs (share)".to_owned(),
                (plan_s + run_s) * scale,
            ));
            children.push((
                layer::BATTERY,
                "battery dispatch + merge (share)".to_owned(),
                (validate_s - plan_s - run_s) * scale,
            ));
        }
    }
    let fleet_id = tracer.derive(
        job,
        &[(
            layer::FLEET,
            "run_fleet".to_owned(),
            report.elapsed.as_secs_f64(),
        )],
    );
    tracer.derive(fleet_id[0], &children);

    let fleet_s = report.elapsed.as_secs_f64();
    let min_busy = report
        .worker_metrics
        .iter()
        .map(|w| w.busy.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    pass.add("core.busy_s", core_s);
    pass.add("core.tasks", tasks as f64);
    pass.add("sdf_baseline.busy_s", baseline_s);
    pass.add("engine.plan_build_s", plan_s);
    pass.add("engine.run_s", run_s);
    pass.add("battery.busy_s", validate_s);
    pass.add("battery.wall_threads_s", validate_s);
    pass.add("fleet.latency_s", latency_sum);
    pass.add("fleet.worker_wall_s", workers * fleet_s);
    pass.add(
        "fleet.tail_idle_s",
        if min_busy.is_finite() {
            fleet_s - min_busy
        } else {
            0.0
        },
    );
    let max_job_ms = report
        .latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    let slot = pass.layers.entry("fleet.max_job_ms").or_insert(0.0);
    *slot = slot.max(max_job_ms);
}
