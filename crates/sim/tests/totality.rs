//! Totality corpus: every public analysis and simulation entry point
//! must return `Err` on malformed input — never panic, never abort.
//!
//! Each corpus entry is a deliberately pathological graph (cycles,
//! orphans, zero rates, zero quanta, huge denominators, zero
//! capacities).  The test drives the full public pipeline over each —
//! capacity analysis, the scenario battery, the minimization search,
//! both simulator engines — and only requires that each call returns
//! *some* `Result` (or a graded report) without unwinding.

use vrdf_core::{
    compute_buffer_capacities, rat, AnalysisError, QuantumSet, Rational, TaskGraph,
    ThroughputConstraint,
};
use vrdf_sim::{
    conservative_offset, minimize_capacities, validate_capacities,
    validate_capacities_under_faults, FaultPlan, FaultValidationOptions, QuantumPlan,
    QuantumPolicy, ReferenceSimulator, SearchOptions, SimConfig, SimError, SimOutcome, Simulator,
    ValidationOptions,
};

/// One pathological graph plus the constraint to analyse it under.
struct Pathology {
    name: &'static str,
    tg: TaskGraph,
    constraint: ThroughputConstraint,
    /// `true` when the graph is structurally sound and the pipeline is
    /// expected to go all the way through (e.g. zero capacities: a valid
    /// graph that deadlocks operationally instead of erroring).
    analysable: bool,
}

fn constraint() -> ThroughputConstraint {
    ThroughputConstraint::on_sink(rat(2, 1)).expect("positive period")
}

fn corpus() -> Vec<Pathology> {
    let mut out = Vec::new();

    // A two-task cycle: a → b → a.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect("ba", b, a, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "cycle",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // A self-loop: a → a.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    tg.connect("aa", a, a, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "self-loop",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // A declared feedback edge with zero initial tokens: the cycle is
    // never broken, so the analysis must refuse with `UnbrokenCycle`.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect_feedback(
        "ba",
        b,
        a,
        QuantumSet::constant(1),
        QuantumSet::constant(1),
        0,
    )
    .expect("buffer");
    out.push(Pathology {
        name: "zero-token-feedback",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // The same loop with the cycle properly broken by initial tokens:
    // a legal cyclic graph, the whole pipeline must run through.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect_feedback(
        "ba",
        b,
        a,
        QuantumSet::constant(1),
        QuantumSet::constant(1),
        4,
    )
    .expect("buffer");
    out.push(Pathology {
        name: "tokened-feedback",
        tg,
        constraint: constraint(),
        analysable: true,
    });

    // A rate-deficient feedback edge strictly upstream of the sink: the
    // loop's head consumes two credits for every one the tail returns,
    // so the relaxation cannot converge — a typed `UnbrokenCycle`, not
    // an infinite loop.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    let c = tg.add_task("c", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect("bc", b, c, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect_feedback(
        "ba",
        b,
        a,
        QuantumSet::constant(1),
        QuantumSet::constant(2),
        4,
    )
    .expect("buffer");
    out.push(Pathology {
        name: "rate-deficient-feedback",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // An orphan task disconnected from the chain.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.add_task("orphan", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "orphan-task",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // Two disjoint chains: ambiguous endpoint.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    let c = tg.add_task("c", rat(1, 1)).expect("task");
    let d = tg.add_task("d", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect("cd", c, d, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "two-components",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // The empty graph.
    out.push(Pathology {
        name: "empty",
        tg: TaskGraph::new(),
        constraint: constraint(),
        analysable: false,
    });

    // A single task with no buffers at all: a legal one-node DAG, so
    // the whole pipeline must run through on an empty capacity list.
    let mut tg = TaskGraph::new();
    tg.add_task("lonely", rat(1, 1)).expect("task");
    out.push(Pathology {
        name: "bufferless",
        tg,
        constraint: constraint(),
        analysable: true,
    });

    // Zero response times end to end: infinitely fast tasks are legal.
    let tg = TaskGraph::linear_chain(
        [("a", Rational::ZERO), ("b", Rational::ZERO)],
        [("ab", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "zero-response-times",
        tg,
        constraint: constraint(),
        analysable: true,
    });

    // A quantum set containing zero: a firing may move no data at all.
    let tg = TaskGraph::linear_chain(
        [("a", rat(1, 1)), ("b", rat(1, 1))],
        [(
            "ab",
            QuantumSet::new([0, 2]).expect("non-empty set"),
            QuantumSet::constant(1),
        )],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "zero-production-quantum",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // Denominators near the i128 edge: the analysis reduces them fine,
    // the tick engine must refuse with `TickOverflow` rather than wrap,
    // and the reference fallback must survive the rational arithmetic.
    let huge = i128::MAX / 2 - 1;
    let tg = TaskGraph::linear_chain(
        [
            ("a", Rational::new(1, huge)),
            ("b", Rational::new(1, huge - 2)),
        ],
        [("ab", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "huge-denominators",
        tg,
        constraint: ThroughputConstraint::on_sink(Rational::new(1, 3)).expect("positive"),
        analysable: true,
    });

    // Wildly mismatched rates: the consumer needs 10^12 tokens per
    // firing, forcing a producer rate its response time cannot meet —
    // a typed `InfeasibleResponseTime`, not a wrapped multiply.
    let tg = TaskGraph::linear_chain(
        [("a", rat(1, 1)), ("b", rat(1, 1))],
        [(
            "ab",
            QuantumSet::constant(1),
            QuantumSet::constant(1_000_000_000_000),
        )],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "mismatched-rates",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    out
}

/// Small, fast battery options.
fn quick_opts() -> ValidationOptions {
    ValidationOptions {
        endpoint_firings: 20,
        random_runs: 1,
        ..ValidationOptions::default()
    }
}

#[test]
fn every_entry_point_is_total_over_the_pathology_corpus() {
    for p in corpus() {
        // Analysis: Err for the structurally broken graphs, Ok otherwise.
        let analysis = compute_buffer_capacities(&p.tg, p.constraint);
        assert_eq!(
            analysis.is_ok(),
            p.analysable,
            "{}: analysis disposition changed — got {analysis:?}",
            p.name
        );
        let Ok(analysis) = analysis else { continue };

        // The scenario battery, fault battery, and minimization search
        // must all return rather than unwind.
        let _ = validate_capacities(&p.tg, &analysis, &quick_opts());
        let faults = FaultPlan::new().stall(
            p.tg.tasks().next().map(|(_, t)| t.name()).unwrap_or(""),
            0,
            1,
            rat(1, 2),
        );
        let _ = validate_capacities_under_faults(
            &p.tg,
            &analysis,
            &faults,
            &FaultValidationOptions {
                validation: quick_opts(),
                recovery_firings: 2,
            },
        );
        let _ = minimize_capacities(
            &p.tg,
            &analysis,
            &SearchOptions {
                validation: quick_opts(),
                ..SearchOptions::default()
            },
        );

        // Both engines, straight on the sized graph.  The conservative
        // offset itself may be unrepresentable (huge denominators) — a
        // typed error, after which there is nothing left to simulate.
        let sized = analysis.with_capacities(&p.tg, &[]);
        let Ok(offset) = conservative_offset(&p.tg, &analysis) else {
            continue;
        };
        let mut config = SimConfig::periodic(p.constraint, offset);
        config.max_endpoint_firings = 20;
        if let Ok(sim) = Simulator::new(
            &sized,
            QuantumPlan::uniform(QuantumPolicy::Max),
            config.clone(),
        ) {
            let _ = sim.run();
        }
        if let Ok(sim) =
            ReferenceSimulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config)
        {
            let _ = sim.run();
        }
    }
}

#[test]
fn zero_capacities_deadlock_instead_of_erroring() {
    // A structurally valid graph whose capacities are forced to zero is
    // an *operational* pathology: construction succeeds and the run
    // reports deadlock.
    let mut tg = TaskGraph::linear_chain(
        [("a", rat(1, 1)), ("b", rat(1, 1))],
        [("ab", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    let ab = tg.buffer_by_name("ab").expect("buffer exists");
    tg.set_capacity(ab, 0);
    let mut config = SimConfig::self_timed(constraint());
    config.max_endpoint_firings = 20;
    for engine in ["tick", "reference"] {
        let outcome = if engine == "tick" {
            Simulator::new(
                &tg,
                QuantumPlan::uniform(QuantumPolicy::Max),
                config.clone(),
            )
            .expect("valid construction")
            .run()
            .outcome
        } else {
            ReferenceSimulator::new(
                &tg,
                QuantumPlan::uniform(QuantumPolicy::Max),
                config.clone(),
            )
            .expect("valid construction")
            .run()
            .outcome
        };
        assert!(
            matches!(outcome, SimOutcome::Deadlock { .. }),
            "{engine}: zero capacity must deadlock, got {outcome:?}"
        );
    }
}

#[test]
fn overfilled_feedback_edge_is_a_typed_sim_error() {
    // Forcing a feedback buffer's capacity below its initial tokens is
    // unrepresentable — the pre-filled containers would not fit.  Both
    // engines must refuse at construction with the typed error, never
    // panic mid-run.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    let ba = tg
        .connect_feedback(
            "ba",
            b,
            a,
            QuantumSet::constant(1),
            QuantumSet::constant(1),
            4,
        )
        .expect("buffer");
    let analysis = compute_buffer_capacities(&tg, constraint()).expect("analysable");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    sized.set_capacity(ba, 2); // below δ0 = 4
    let mut config = SimConfig::self_timed(constraint());
    config.max_endpoint_firings = 20;
    let tick = Simulator::new(
        &sized,
        QuantumPlan::uniform(QuantumPolicy::Max),
        config.clone(),
    );
    assert!(
        matches!(
            tick,
            Err(vrdf_sim::SimError::InitialTokensExceedCapacity { ref buffer }) if buffer == "ba"
        ),
        "tick engine accepted an over-filled feedback buffer"
    );
    let reference =
        ReferenceSimulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config);
    assert!(
        matches!(
            reference,
            Err(vrdf_sim::SimError::InitialTokensExceedCapacity { ref buffer }) if buffer == "ba"
        ),
        "reference engine accepted an over-filled feedback buffer"
    );
}

#[test]
fn zero_horizon_is_a_typed_sim_error() {
    // A battery of zero endpoint firings schedules no release, so every
    // scenario would pass vacuously.  Every battery entry point must
    // refuse it instead of reporting a verdict.
    let tg = vrdf_apps::mp3_chain();
    let analysis = compute_buffer_capacities(&tg, vrdf_apps::mp3_constraint()).expect("MP3");
    let validation = ValidationOptions {
        endpoint_firings: 0,
        ..quick_opts()
    };
    assert_eq!(
        validate_capacities(&tg, &analysis, &validation).err(),
        Some(SimError::ZeroHorizon)
    );
    let search = SearchOptions {
        validation: validation.clone(),
        ..SearchOptions::default()
    };
    assert_eq!(
        minimize_capacities(&tg, &analysis, &search).err(),
        Some(SimError::ZeroHorizon)
    );
    let faults = FaultValidationOptions {
        validation,
        recovery_firings: 2,
    };
    let stall = FaultPlan::new().stall("vSRC", 10, 1, rat(1, 200));
    assert_eq!(
        validate_capacities_under_faults(&tg, &analysis, &stall, &faults).err(),
        Some(SimError::ZeroHorizon)
    );
}

#[test]
fn constructor_level_defects_are_typed_errors() {
    // Negative response time.
    let mut tg = TaskGraph::new();
    assert!(matches!(
        tg.add_task("neg", rat(-1, 2)),
        Err(AnalysisError::NegativeResponseTime { .. })
    ));
    // Duplicate names.
    tg.add_task("a", rat(1, 1)).expect("task");
    assert!(matches!(
        tg.add_task("a", rat(1, 1)),
        Err(AnalysisError::DuplicateName(_))
    ));
    // Empty quantum set.
    assert!(QuantumSet::new([]).is_err());
    // All-zero quantum set: a task that can never move data.
    assert!(matches!(
        QuantumSet::new([0]),
        Err(AnalysisError::ZeroOnlyQuantumSet)
    ));
    // Non-positive constraint periods.
    assert!(ThroughputConstraint::on_sink(Rational::ZERO).is_err());
    assert!(ThroughputConstraint::on_sink(rat(-3, 1)).is_err());
}
