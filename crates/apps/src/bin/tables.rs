//! Reproduces the paper's results on stdout: the Section 5 MP3 table
//! with its simulation cross-check, the Fig. 1 pair, the Fig. 3
//! existence schedules, the Fig. 4 pair-gap arithmetic and a
//! source-constrained chain.
//!
//! ```console
//! $ cargo run --release -p vrdf-apps --bin tables
//! ```
//!
//! Takes no flags.  The output is deterministic (exact arithmetic,
//! seeded scenarios, no wall-clock figures), and
//! `crates/apps/tests/golden/tables.txt` pins it byte for byte.  The
//! operational minima and the SDF comparison column are printed by the
//! `minimize` and `baseline` drivers.
//!
//! Exits non-zero when any simulation or witness check fails.

use vrdf_apps::{fig1_pair, mp3_chain, mp3_constraint, MP3_PUBLISHED_CAPACITIES};
use vrdf_core::{
    compute_buffer_capacities, ExistenceSchedule, GraphAnalysis, PairGaps, QuantumSet, Rational,
    TaskGraph, ThroughputConstraint,
};
use vrdf_sim::{
    conservative_offset, validate_capacities, QuantumPlan, QuantumPolicy, Side, SimConfig,
    Simulator, ValidationOptions,
};

fn main() {
    let mut clear = section5();
    clear &= fig1();
    clear &= fig3();
    fig4();
    clear &= source_constrained();
    if !clear {
        std::process::exit(1);
    }
}

fn capacity_table(analysis: &GraphAnalysis) {
    println!("{:<6} {:>10} {:>14}", "buffer", "computed", "token period");
    for cap in analysis.capacities() {
        println!(
            "{:<6} {:>10} {:>14}",
            cap.name,
            cap.capacity,
            cap.token_period.to_string()
        );
    }
    println!("total  {:>10}", analysis.total_capacity());
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

/// The Section 5 table against the published capacities, replayed by
/// the scenario battery.
fn section5() -> bool {
    let tg = mp3_chain();
    let analysis =
        compute_buffer_capacities(&tg, mp3_constraint()).expect("the MP3 chain is feasible");

    println!("MP3 playback chain (WiggersBS08, Section 5)");
    println!(
        "{:<6} {:>10} {:>10} {:>14}",
        "buffer", "computed", "published", "token period"
    );
    for (cap, published) in analysis.capacities().iter().zip(MP3_PUBLISHED_CAPACITIES) {
        println!(
            "{:<6} {:>10} {:>10} {:>14}",
            cap.name,
            cap.capacity,
            published,
            cap.token_period.to_string()
        );
    }
    println!(
        "total  {:>10} {:>10}",
        analysis.total_capacity(),
        MP3_PUBLISHED_CAPACITIES.iter().sum::<u64>()
    );

    let opts = ValidationOptions {
        endpoint_firings: 10_000,
        ..ValidationOptions::default()
    };
    let report =
        validate_capacities(&tg, &analysis, &opts).expect("simulation construction succeeds");
    print!("{report}");
    report.all_clear()
}

/// The motivating pair: its Eq. (4) capacity at `τ = 3`, and one
/// strictly periodic run with the consumption cycling through both
/// quanta of `{2, 3}`.
fn fig1() -> bool {
    let tg = fig1_pair();
    let constraint = ThroughputConstraint::on_sink(Rational::from(3u64)).expect("positive period");
    let analysis = compute_buffer_capacities(&tg, constraint).expect("the pair is feasible");
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    println!("\nFig. 1 pair (wa produces 3, wb consumes 2 or 3, rho = 1, tau = 3)");
    capacity_table(&analysis);

    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = 20_000;
    let plan = QuantumPlan::uniform(QuantumPolicy::Max).with(
        0,
        Side::Consumption,
        QuantumPolicy::Cyclic(vec![2, 3]),
    );
    let report = Simulator::new(&sized, plan, config)
        .expect("construction succeeds")
        .run();
    let ok = report.ok();
    let outcome = if ok {
        "ok".to_owned()
    } else {
        format!("FAILED: {:?}", report.outcome)
    };
    println!(
        "strictly periodic, consumption cycling 2/3: {outcome} ({} endpoint firings, {} events)",
        report.endpoint.firings, report.events_processed
    );
    ok
}

/// The consumer and producer witness schedules over the Fig. 1 pair's
/// bounds (token period 1, response times 1, quanta up to 3) for
/// alternating quanta 3, 2, 3, …
fn fig3() -> bool {
    const FIRINGS: usize = 10_000;
    const PREFIX: usize = 4;
    let gaps = PairGaps::new(Rational::ONE, Rational::ONE, Rational::ONE, 3, 3);
    let bounds = gaps.data_edge_bounds();
    let quanta: Vec<u64> = (0..FIRINGS)
        .map(|i| if i % 2 == 0 { 3 } else { 2 })
        .collect();
    let consumer = ExistenceSchedule::consumer(&quanta, bounds, Rational::ONE);
    let producer = ExistenceSchedule::producer(&quanta, bounds, Rational::ONE);

    println!("\nFig. 3 existence schedules over the Fig. 1 bounds (quanta 3, 2, 3, ...)");
    for (side, schedule) in [("consumer", &consumer), ("producer", &producer)] {
        println!("{side} witness:");
        println!("  {:>6} {:>6} {:>6}  tokens", "firing", "start", "finish");
        for e in &schedule.events()[..PREFIX] {
            println!(
                "  {:>6} {:>6} {:>6}  {}..{}",
                e.firing,
                e.start.to_string(),
                e.finish.to_string(),
                e.first_token,
                e.last_token().unwrap_or(e.first_token)
            );
        }
    }
    let consumer_ok = consumer.consumptions_respect(bounds.consumption);
    let producer_ok = producer.productions_respect(bounds.production);
    println!(
        "consumer respects its bound over {FIRINGS} firings: {}",
        verdict(consumer_ok)
    );
    println!(
        "producer respects its bound over {FIRINGS} firings: {}",
        verdict(producer_ok)
    );
    consumer_ok && producer_ok
}

/// Eq. (4)'s sufficient initial tokens over a grid of maximum quanta
/// `π̂ × γ̂`, for one fixed token period and pair of response times.
fn fig4() {
    const GRID: u64 = 8;
    let (token_period, rho_p, rho_c) = (
        Rational::new(1, 441),
        Rational::new(512, 10_000),
        Rational::new(24, 1_000),
    );
    println!(
        "\nFig. 4 sufficient initial tokens, Eq. (4) \
         (t = {token_period}, rho_p = {rho_p}, rho_c = {rho_c})"
    );
    print!("{:>8}", "pi\\gamma");
    for gamma in 1..=GRID {
        print!(" {gamma:>5}");
    }
    println!();
    for pi in 1..=GRID {
        print!("{pi:>8}");
        for gamma in 1..=GRID {
            let gaps = PairGaps::new(token_period, rho_p, rho_c, pi, gamma);
            print!(" {:>5}", gaps.sufficient_initial_tokens());
        }
        println!();
    }
}

/// The constraint on the other endpoint: a three-task chain whose
/// source is strictly periodic, sized and replayed by the battery.
fn source_constrained() -> bool {
    let tg = TaskGraph::linear_chain(
        [
            ("src", Rational::new(1, 10)),
            ("mid", Rational::new(1, 20)),
            ("snk", Rational::new(1, 40)),
        ],
        [
            (
                "b0",
                QuantumSet::constant(4),
                QuantumSet::new([1, 2]).expect("non-empty"),
            ),
            (
                "b1",
                QuantumSet::new([2, 3]).expect("non-empty"),
                QuantumSet::constant(2),
            ),
        ],
    )
    .expect("valid chain");
    let constraint = ThroughputConstraint::on_source(Rational::new(2, 5)).expect("positive");
    let analysis = compute_buffer_capacities(&tg, constraint).expect("feasible");

    println!("\nSource-constrained chain (src -> mid -> snk, source period 2/5)");
    capacity_table(&analysis);
    let opts = ValidationOptions {
        endpoint_firings: 5_000,
        random_runs: 4,
        ..ValidationOptions::default()
    };
    let report =
        validate_capacities(&tg, &analysis, &opts).expect("simulation construction succeeds");
    print!("{report}");
    println!("events: {}", report.events());
    report.all_clear()
}
