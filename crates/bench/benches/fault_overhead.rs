//! Cost of the fault-injection hooks on the MP3 chain: the default
//! configuration against one whose [`SimConfig::faults`] is set to an
//! explicitly **empty** [`FaultPlan`], and against a plan that actually
//! strikes (one 5 ms `vSRC` stall).
//!
//! The `plain` and `zero-fault-plan` arms build through the same
//! constructor with the same (empty) fault plan, so they run the same
//! code: their ratio measures noise.  The hooks are compiled in and
//! gated on the plan's emptiness; `overhead_vs_plain` of the stalling
//! arm is the cost of a plan that strikes.
//!
//! ```console
//! $ cargo bench -p vrdf-bench --bench fault_overhead
//! ```

use vrdf_apps::{mp3_chain, mp3_constraint};
use vrdf_bench::{emit, emit_summary, time_per_iteration, BenchOpts};
use vrdf_core::{compute_buffer_capacities, Rational};
use vrdf_sim::{conservative_offset, FaultPlan, QuantumPlan, QuantumPolicy, SimConfig, Simulator};

fn main() {
    let opts = BenchOpts::from_args(3, 15);
    let tg = mp3_chain();
    let constraint = mp3_constraint();
    let analysis = compute_buffer_capacities(&tg, constraint).expect("MP3 chain is feasible");
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    // One second of audio (44 100 DAC firings) per iteration; 1/100th
    // under --smoke.
    let firings = opts.scale(44_100, 441);
    let plan = || QuantumPlan::uniform(QuantumPolicy::Max);
    let config = {
        let mut c = SimConfig::periodic(constraint, offset);
        c.max_endpoint_firings = firings;
        c
    };
    let fault_config = |faults: FaultPlan| SimConfig {
        faults,
        ..config.clone()
    };
    let empty = fault_config(FaultPlan::new());
    let stall = fault_config(FaultPlan::new().stall("vSRC", 10, 1, Rational::new(5, 1000)));

    let probe = Simulator::new(&sized, plan(), config.clone())
        .expect("construction succeeds")
        .run();
    let events = probe.events_processed as f64;

    let plain = time_per_iteration(opts.warmup, opts.iterations, || {
        let report = Simulator::new(&sized, plan(), config.clone())
            .expect("construction succeeds")
            .run();
        std::hint::black_box(report.events_processed);
    });
    let zero_fault = time_per_iteration(opts.warmup, opts.iterations, || {
        let report = Simulator::new(&sized, plan(), empty.clone())
            .expect("construction succeeds")
            .run();
        std::hint::black_box(report.events_processed);
    });
    let stalled = time_per_iteration(opts.warmup, opts.iterations, || {
        let report = Simulator::new(&sized, plan(), stall.clone())
            .expect("construction succeeds")
            .run();
        std::hint::black_box((report.events_processed, report.faults_injected));
    });

    let plain_eps = events / plain.median().as_secs_f64();
    emit(
        "fault_overhead",
        "plain",
        &plain,
        &[("events", events), ("events_per_sec", plain_eps)],
    );
    for (case, m) in [
        ("zero-fault-plan", &zero_fault),
        ("stalling-plan", &stalled),
    ] {
        emit(
            "fault_overhead",
            case,
            m,
            &[
                ("events", events),
                ("events_per_sec", events / m.median().as_secs_f64()),
                (
                    "overhead_vs_plain",
                    m.median().as_secs_f64() / plain.median().as_secs_f64(),
                ),
            ],
        );
    }
    emit_summary(
        "fault_overhead",
        "gating",
        &[(
            "zero_fault_overhead_vs_plain",
            zero_fault.median().as_secs_f64() / plain.median().as_secs_f64(),
        )],
    );
}
