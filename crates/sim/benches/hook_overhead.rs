//! The hook-overhead gate: the fault and telemetry hooks are compiled
//! into the engine and gated off by default, and switching them off
//! explicitly on the battery's path must cost nothing measurable.
//!
//! ```console
//! $ cargo bench -q -p vrdf-sim --bench hook_overhead
//! ```
//!
//! Two workloads run strictly periodic at the conservative offset with
//! all-max quanta and Eq. (4) capacities: the MP3 chain for 44 100
//! endpoint firings (one second of audio) and the seed-42 64-task random
//! chain for 2 000.  Each is timed in two arms:
//!
//! * `default` — `Simulator::new` with the default configuration;
//! * `hooks-off` — a [`SimPlan`] with `faults: FaultPlan::new()` and
//!   `telemetry: false` set explicitly, run on its own
//!   [`vrdf_sim::SimState`]: the path every battery scenario takes.
//!
//! Both arms build their plan on every run, so construction cost cancels
//! out of the ratio instead of flattering one arm.  Before timing, the
//! default run must complete without a deadline miss, and both arms must
//! process the same number of events.
//!
//! After 3 warm-ups, 31 pairs run interleaved, alternating which arm
//! goes first.  Each pair gives one ratio, hooks-off time over default
//! time.  The bench prints one JSON line per workload with the median
//! ratio and its quartiles, and exits 1 when a median ratio is above
//! 1.05.  It takes no flags and writes no file.

use std::hint::black_box;
use std::time::{Duration, Instant};

use vrdf_apps::synthetic::{random_chain_of_length, ChainSpec};
use vrdf_apps::{mp3_chain, mp3_constraint};
use vrdf_core::{compute_buffer_capacities, TaskGraph, ThroughputConstraint};
use vrdf_sim::{
    conservative_offset, FaultPlan, QuantumPlan, QuantumPolicy, SimConfig, SimPlan, Simulator,
};

const WARMUPS: usize = 3;
const PAIRS: usize = 31;
const BOUND: f64 = 1.05;

/// A workload sized at its Eq. (4) capacities, with the periodic
/// configuration both arms run.
fn sized(tg: &TaskGraph, constraint: ThroughputConstraint, firings: u64) -> (TaskGraph, SimConfig) {
    let analysis = compute_buffer_capacities(tg, constraint).expect("the workload is feasible");
    let offset = conservative_offset(tg, &analysis).expect("the offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = firings;
    (sized, config)
}

fn timed(run: &mut impl FnMut() -> u64) -> Duration {
    let begin = Instant::now();
    black_box(run());
    begin.elapsed()
}

/// Linear interpolation between the order statistics of `sorted`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let x = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (x - lo as f64)
}

/// Runs the protocol on one workload and prints its JSON line; returns
/// the median hooks-off/default ratio.
fn gate(name: &str, tg: &TaskGraph, config: &SimConfig) -> f64 {
    let quanta = QuantumPlan::uniform(QuantumPolicy::Max);
    let mut default_arm = || {
        Simulator::new(tg, quanta.clone(), config.clone())
            .expect("construction succeeds")
            .run()
            .events_processed
    };
    let hooks_off = SimConfig {
        faults: FaultPlan::new(),
        telemetry: false,
        ..config.clone()
    };
    let mut hooks_off_arm = || {
        let plan = SimPlan::new(tg, hooks_off.clone()).expect("construction succeeds");
        let mut state = plan.state();
        plan.run(&mut state, &quanta)
            .expect("the run executes")
            .events_processed
    };

    let probe = Simulator::new(tg, quanta.clone(), config.clone())
        .expect("construction succeeds")
        .run();
    assert!(probe.ok(), "{name}: {:?}", probe.outcome);
    let events = probe.events_processed;
    assert_eq!(
        hooks_off_arm(),
        events,
        "{name}: both arms run the same work"
    );
    for _ in 0..WARMUPS {
        default_arm();
        hooks_off_arm();
    }
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (default_t, hooks_off_t) = if pair % 2 == 0 {
                let d = timed(&mut default_arm);
                (d, timed(&mut hooks_off_arm))
            } else {
                let h = timed(&mut hooks_off_arm);
                (timed(&mut default_arm), h)
            };
            hooks_off_t.as_secs_f64() / default_t.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = quantile(&ratios, 0.5);
    println!(
        "{{\"bench\":\"hook_overhead\",\"workload\":\"{name}\",\"events\":{events},\
         \"pairs\":{PAIRS},\"median_ratio\":{median:.4},\"q1_ratio\":{:.4},\
         \"q3_ratio\":{:.4},\"bound\":{BOUND}}}",
        quantile(&ratios, 0.25),
        quantile(&ratios, 0.75)
    );
    median
}

fn main() {
    let (mp3, mp3_config) = sized(&mp3_chain(), mp3_constraint(), 44_100);
    let spec = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    let (chain_tg, chain_constraint) =
        random_chain_of_length(42, 64, &spec).expect("the generator yields a valid chain");
    let (chain64, chain_config) = sized(&chain_tg, chain_constraint, 2_000);

    let over: Vec<String> = [
        ("mp3", gate("mp3", &mp3, &mp3_config)),
        ("chain64", gate("chain64", &chain64, &chain_config)),
    ]
    .into_iter()
    .filter(|&(_, median)| median > BOUND)
    .map(|(name, median)| format!("{name} {median:.4}"))
    .collect();
    if !over.is_empty() {
        eprintln!(
            "error: hooks-off/default median ratio above {BOUND}: {}",
            over.join(", ")
        );
        std::process::exit(1);
    }
}
