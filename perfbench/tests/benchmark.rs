//! The benchmark's own checks: deterministic inputs, valid metric names
//! that match `BENCHMARK.json`, and a shortened run of every workload,
//! untraced and traced, that finishes with no failed job.

use std::path::PathBuf;

use vrdf_perfbench::run::{
    metric_names, run, seed1_reference_diff, valid_metric_name, RunConfig, RunResult,
};
use vrdf_perfbench::trace::layer;
use vrdf_perfbench::workloads::{fingerprint, generate, Settings, Workload};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// A shortened workload: one case study, or a small corpus.
fn short(workload: Workload, seed: u64) -> Settings {
    let mut settings = Settings::new(workload, seed);
    settings.studies = vec!["mp3"];
    settings.graphs = match workload {
        Workload::CaseStudy => 0,
        Workload::FleetValidate => 24,
        Workload::AnalysisSweep => 48,
    };
    settings.corpora = settings.corpora.min(2);
    settings
}

fn run_short(workload: Workload, trace: bool) -> RunResult {
    run_clean(short(workload, 1), trace)
}

fn run_clean(settings: Settings, trace: bool) -> RunResult {
    let workload = settings.workload;
    let config = RunConfig {
        settings,
        seconds: 0.01,
        trace,
        results_dir: None,
        source_root: repo_root(),
    };
    let result = run(&config).expect("the run completes");
    assert!(result.attempted > 0);
    assert_eq!(
        result.error_frac(),
        0.0,
        "{}: {:?}",
        workload.name(),
        result.failures
    );
    assert!(result.correct);
    result
}

#[test]
fn inputs_are_deterministic_in_the_seed() {
    for workload in Workload::ALL {
        let a = generate(&short(workload, 7)).unwrap();
        let b = generate(&short(workload, 7)).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}", workload.name());
        if workload != Workload::CaseStudy {
            let c = generate(&short(workload, 8)).unwrap();
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", workload.name());
        }
    }
}

#[test]
fn sweep_corpus_spans_the_stated_shapes() {
    let Ok(vrdf_perfbench::workloads::Inputs::Corpora(corpora)) =
        generate(&short(Workload::AnalysisSweep, 3))
    else {
        panic!("the sweep generates a corpus");
    };
    let items: Vec<_> = corpora.into_iter().flatten().collect();
    for item in &items {
        let tasks = item.graph.task_count();
        if item.name.starts_with("chain") {
            assert!((16..=128).contains(&tasks), "{}: {tasks} tasks", item.name);
        } else {
            // width 8–48 branches of depth 1–4, plus source and sink.
            assert!((8 + 2..=48 * 4 + 2).contains(&tasks), "{}", item.name);
        }
    }
    assert!(items.iter().any(|i| i.name.starts_with("cyclic")));
    assert!(items.iter().any(|i| i.name.starts_with("forkjoin")));
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    assert!(valid_metric_name("engine.ns_per_event"));
    assert!(valid_metric_name("job_p90_ms"));
    assert!(!valid_metric_name("_leading"));
    assert!(!valid_metric_name("has space"));
    assert!(!valid_metric_name("slash/name"));
    assert!(!valid_metric_name(&"x".repeat(65)));

    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    };
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let names = metric_names(trace);
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
        }
        assert_eq!(section(key), names, "{key} in BENCHMARK.json");
    }
    let workloads: Vec<String> = section("workloads");
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, expected);
}

#[test]
fn seed1_ledger_matches_the_reference() {
    // The full case studies and one full `fleet_corpus(1, 256)`, one pass
    // each, at the default thread count.
    let casestudy = Settings::new(Workload::CaseStudy, 1);
    let mut fleet = Settings::new(Workload::FleetValidate, 1);
    fleet.corpora = 1;
    for settings in [casestudy, fleet] {
        let result = run_clean(settings.clone(), false);
        assert_eq!(
            seed1_reference_diff(&settings, &result.ledger),
            Vec::<String>::new()
        );
    }
}

#[test]
fn shortened_casestudy_is_clean() {
    let result = run_short(Workload::CaseStudy, false);
    assert_eq!(result.ledger["vrdf.mp3.probes"], 35, "seed-1 reference");
    assert_eq!(result.ledger["vrdf.mp3.events"], 9_031_251);
    assert!(result.metric("jobs_per_s").unwrap().value > 0.0);
}

#[test]
fn shortened_fleet_validate_is_clean() {
    let result = run_short(Workload::FleetValidate, false);
    assert_eq!(result.ledger["fleet.jobs"], 48);
    assert_eq!(result.ledger["battery.runs"], 48);
    assert!(result.ledger["corpus1.events"] > 0);
    assert!(result.metric("job_p90_ms").unwrap().value > 0.0);
}

#[test]
fn shortened_analysis_sweep_is_clean() {
    let result = run_short(Workload::AnalysisSweep, false);
    assert_eq!(result.ledger["sdf_baseline.calls"], 48);
    assert_eq!(result.ledger.get("engine.events"), None);
}

#[test]
fn shortened_traced_runs_reconcile() {
    for workload in Workload::ALL {
        let result = run_short(workload, true);
        let coverage = result.metric("trace.coverage").unwrap().value;
        assert!(
            (0.95..=1.05).contains(&coverage),
            "{}: coverage {coverage}",
            workload.name()
        );
        assert!(result.metric("trace.overhead").unwrap().value > 0.0);
        let trace = result
            .chrome_trace
            .as_deref()
            .expect("traced runs keep spans");
        assert!(trace.contains(&format!("\"cat\":\"{}\"", layer::PASS)));
        // Counters only telemetry sees are in the traced ledger.
        if workload != Workload::AnalysisSweep {
            assert!(result.ledger["engine.firings"] > 0, "{}", workload.name());
        }
    }
}
