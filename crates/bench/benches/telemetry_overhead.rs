//! Cost of the telemetry hooks on the MP3 chain and a 64-task random
//! chain: the default configuration against one that sets
//! [`SimConfig::telemetry`] to `false` explicitly and runs a reused
//! [`SimPlan`], and against an enabled run collecting counters and phase
//! spans.
//!
//! The `plain` and `disabled` arms build through the same constructor
//! with the same configuration, so they run the same code (hooks
//! compiled in, gated on one boolean): the
//! `disabled_overhead_vs_plain_*` summary ratios measure noise, and CI
//! asserts they stay ≤ 1.05.  `tests/telemetry.rs` proves an enabled
//! run only adds data to the disabled one.
//!
//! ```console
//! $ cargo bench -p vrdf-bench --bench telemetry_overhead
//! ```

use vrdf_apps::synthetic::{random_chain_of_length, ChainSpec};
use vrdf_apps::{mp3_chain, mp3_constraint};
use vrdf_bench::{emit, emit_summary, time_per_iteration, BenchOpts, Measurement};
use vrdf_core::{compute_buffer_capacities, TaskGraph, ThroughputConstraint};
use vrdf_sim::{conservative_offset, QuantumPlan, QuantumPolicy, SimConfig, SimPlan, Simulator};

struct Workload {
    name: &'static str,
    sized: TaskGraph,
    config: SimConfig,
}

fn workload(
    name: &'static str,
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
    firings: u64,
) -> Workload {
    let analysis = compute_buffer_capacities(tg, constraint).expect("workload is feasible");
    let offset = conservative_offset(tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = firings;
    Workload {
        name,
        sized,
        config,
    }
}

fn main() {
    let opts = BenchOpts::from_args(3, 15);
    // One second of audio per iteration on the MP3 chain; the 64-task
    // chain mirrors chain_scaling's largest point.  1/100th under
    // --smoke.
    let mp3 = workload(
        "mp3",
        &mp3_chain(),
        mp3_constraint(),
        opts.scale(44_100, 441),
    );
    let spec = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    let (chain_tg, chain_constraint) =
        random_chain_of_length(42, 64, &spec).expect("generator yields a valid chain");
    let chain64 = workload(
        "chain64",
        &chain_tg,
        chain_constraint,
        opts.scale(2_000, 50),
    );
    let plan = || QuantumPlan::uniform(QuantumPolicy::Max);

    let mut ratios: Vec<(String, f64)> = Vec::new();
    for w in [&mp3, &chain64] {
        let probe = Simulator::new(&w.sized, plan(), w.config.clone())
            .expect("construction succeeds")
            .run();
        let events = probe.events_processed as f64;
        let telemetry_config = |telemetry: bool| SimConfig {
            telemetry,
            ..w.config.clone()
        };

        let plain = time_per_iteration(opts.warmup, opts.iterations, || {
            let report = Simulator::new(&w.sized, plan(), w.config.clone())
                .expect("construction succeeds")
                .run();
            std::hint::black_box(report.events_processed);
        });
        // Telemetry explicitly off on a plan-and-state run — the code
        // path every uninstrumented battery scenario takes.
        let disabled = time_per_iteration(opts.warmup, opts.iterations, || {
            let sim_plan =
                SimPlan::new(&w.sized, telemetry_config(false)).expect("construction succeeds");
            let mut state = sim_plan.state();
            let report = sim_plan.run(&mut state, &plan()).expect("run executes");
            std::hint::black_box(report.events_processed);
        });
        let enabled = time_per_iteration(opts.warmup, opts.iterations, || {
            let report = Simulator::new(&w.sized, plan(), telemetry_config(true))
                .expect("construction succeeds")
                .run();
            std::hint::black_box((
                report.events_processed,
                report.counters.map(|c| c.events_popped),
            ));
        });

        let plain_s = plain.median().as_secs_f64();
        emit(
            "telemetry_overhead",
            &format!("{}-plain", w.name),
            &plain,
            &[("events", events), ("events_per_sec", events / plain_s)],
        );
        let case = |label: &str, m: &Measurement| {
            emit(
                "telemetry_overhead",
                &format!("{}-{label}", w.name),
                m,
                &[
                    ("events", events),
                    ("events_per_sec", events / m.median().as_secs_f64()),
                    ("overhead_vs_plain", m.median().as_secs_f64() / plain_s),
                ],
            );
        };
        case("disabled", &disabled);
        case("enabled", &enabled);
        ratios.push((
            format!("disabled_overhead_vs_plain_{}", w.name),
            disabled.median().as_secs_f64() / plain_s,
        ));
    }

    let summary: Vec<(&str, f64)> = ratios.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    emit_summary("telemetry_overhead", "gating", &summary);
}
