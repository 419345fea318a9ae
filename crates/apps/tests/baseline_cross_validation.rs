//! Differential pins between the VRDF analysis (`vrdf-core`) and the
//! native constant-rate baseline (`vrdf-sdf`): two independently built
//! engines — per-pair rate propagation vs balance-equation repetition
//! vectors — must land on exactly related numbers.
//!
//! The relationship is the paper's Section 1 over-provisioning argument
//! made exact: per buffer,
//! `ζ_SDF = ζ_VRDF + (π̂ − π̌) + (γ̂ − γ̌)`, so the baseline column is
//! never below the VRDF column and exceeds it precisely where the
//! quanta are data dependent.

use vrdf_apps::synthetic::{self, ChainSpec, DagSpec};
use vrdf_apps::{case_study, mp3_chain, mp3_constraint, mp3_feedback, mp3_fork_join};
use vrdf_core::{
    compute_buffer_capacities, GraphAnalysis, QuantumSet, TaskGraph, ThroughputConstraint,
};
use vrdf_sdf::{
    analyze, baseline_capacities, minimize_sdf_capacities, steady_state, BaselineAnalysis,
    CsdfGraph, ExecOptions, ExecOutcome, SdfSearchOptions,
};

/// Asserts the exact spread identity per edge and returns how many edges
/// were strictly over-provisioned.
fn assert_spread_identity(
    tg: &TaskGraph,
    vrdf: &GraphAnalysis,
    baseline: &BaselineAnalysis,
    context: &str,
) -> usize {
    assert_eq!(
        vrdf.capacities().len(),
        baseline.edges().len(),
        "{context}: edge counts differ"
    );
    let mut strict = 0;
    for (v, b) in vrdf.capacities().iter().zip(baseline.edges()) {
        assert_eq!(v.buffer, b.buffer, "{context}: buffer order differs");
        let buffer = tg.buffer(v.buffer);
        let spreads = buffer.production().spread() + buffer.consumption().spread();
        assert_eq!(
            b.capacity,
            v.capacity + spreads,
            "{context}: `{}` breaks the spread identity",
            b.name
        );
        assert_eq!(
            b.over_provision(),
            spreads,
            "{context}: `{}` misreports its spreads",
            b.name
        );
        assert!(
            b.capacity >= v.capacity,
            "{context}: baseline below VRDF on `{}`",
            b.name
        );
        assert_eq!(
            b.token_period, v.token_period,
            "{context}: `{}` disagrees on the bound rate",
            b.name
        );
        if b.capacity > v.capacity {
            strict += 1;
        }
    }
    strict
}

#[test]
fn mp3_chain_pins_the_over_provisioning_claim() {
    let tg = mp3_chain();
    let vrdf = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let baseline = baseline_capacities(&tg, mp3_constraint()).unwrap();
    let strict = assert_spread_identity(&tg, &vrdf, &baseline, "mp3");
    // d1's {0..960} consumption is the only variable set: the baseline
    // pays exactly its 960-container spread, 9.4% of the VRDF total.
    assert_eq!(strict, 1);
    let caps: Vec<u64> = baseline.edges().iter().map(|e| e.capacity).collect();
    assert_eq!(caps, vec![6975, 3263, 882]);
    assert_eq!(baseline.total_capacity(), 11_120);
    assert_eq!(vrdf.total_capacity(), 10_160);
    assert_eq!(baseline.total_over_provision(), 960);
    // Both engines agree on every cadence.
    for (id, _) in tg.tasks() {
        assert_eq!(baseline.phi(id), vrdf.rates().phi(id));
    }
}

#[test]
fn stereo_fork_join_pins_the_identity_on_a_dag() {
    let tg = mp3_fork_join();
    let vrdf = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let baseline = baseline_capacities(&tg, mp3_constraint()).unwrap();
    let strict = assert_spread_identity(&tg, &vrdf, &baseline, "fork-join");
    assert_eq!(strict, 1, "only d1 is data dependent");
    let caps: Vec<u64> = baseline.edges().iter().map(|e| e.capacity).collect();
    assert_eq!(caps, vec![6975, 3263, 3263, 1366, 1366, 485]);
    for (id, _) in tg.tasks() {
        assert_eq!(baseline.phi(id), vrdf.rates().phi(id));
    }
}

#[test]
fn random_chain_corpus_satisfies_the_spread_identity() {
    let spec = ChainSpec::default();
    let mut strict_total = 0;
    for seed in 0..48 {
        let (tg, constraint) = synthetic::random_chain(seed, &spec).unwrap();
        let vrdf = compute_buffer_capacities(&tg, constraint).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        strict_total += assert_spread_identity(&tg, &vrdf, &baseline, &format!("seed {seed}"));
    }
    assert!(
        strict_total > 0,
        "the corpus contains variable sets, so some edge must be strict"
    );
}

/// The acceptance corpus: chains whose *production* is constant and
/// whose *consumption* is genuinely variable — the baseline must be ≥
/// the VRDF capacity on every edge, with at least one strict inequality
/// across the corpus (and in fact on every variable-consumption edge).
#[test]
fn variable_consumption_corpus_is_strictly_over_provisioned() {
    let spec = ChainSpec::default();
    let mut strict_total = 0;
    let mut edges_total = 0;
    for seed in 0..48 {
        let (variable, constraint) = synthetic::random_chain(seed, &spec).unwrap();
        // Collapse production to its maximum (constant) while keeping the
        // consumption sets variable; raising π̌ only relaxes the upstream
        // cadences, so the chain stays feasible.
        let mut tg = TaskGraph::new();
        let mut ids = Vec::new();
        for (_, task) in variable.tasks() {
            ids.push(tg.add_task(task.name(), task.response_time()).unwrap());
        }
        for (_, buffer) in variable.buffers() {
            tg.connect(
                buffer.name(),
                ids[buffer.producer().index()],
                ids[buffer.consumer().index()],
                buffer.production().to_constant_max(),
                buffer.consumption().clone(),
            )
            .unwrap();
        }

        let vrdf = compute_buffer_capacities(&tg, constraint).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let strict = assert_spread_identity(&tg, &vrdf, &baseline, &format!("seed {seed}"));
        // Strictness lands exactly on the variable-consumption edges.
        let variable_edges = tg
            .buffers()
            .filter(|(_, b)| b.consumption().spread() > 0)
            .count();
        assert_eq!(strict, variable_edges, "seed {seed}");
        strict_total += strict;
        edges_total += tg.buffer_count();
    }
    assert!(
        strict_total > 0,
        "the corpus must exercise variable consumption"
    );
    assert!(strict_total < edges_total, "constant edges must stay exact");
}

#[test]
fn random_dag_corpus_is_exact_for_constant_rates() {
    // The DAG generators emit constant equal quanta per edge, so the
    // baseline coincides with VRDF bit for bit and the over-provision is
    // zero — the identity's other extreme.
    let spec = DagSpec::default();
    for seed in 0..24 {
        let (tg, constraint) = synthetic::random_dag(seed, &spec).unwrap();
        let vrdf = compute_buffer_capacities(&tg, constraint).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let strict = assert_spread_identity(&tg, &vrdf, &baseline, &format!("seed {seed}"));
        assert_eq!(strict, 0);
        assert_eq!(baseline.total_over_provision(), 0);
        assert_eq!(baseline.total_capacity(), vrdf.total_capacity());
    }
}

#[test]
fn sized_lowerings_sustain_their_constraints_operationally() {
    // The state-space executor closes the loop: the baseline capacities,
    // applied to the constant-max lowering, reach a periodic steady
    // state that meets the throughput constraint — for both case studies
    // and a slice of the DAG corpus.
    for name in ["mp3", "fork-join", "mp3-feedback"] {
        let study = case_study(name).unwrap();
        let baseline = baseline_capacities(&study.graph, study.constraint).unwrap();
        let sized = baseline.sized_lowering(&study.graph);
        let state = steady_state(&sized, study.constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Periodic, "{name}");
        assert!(state.meets_constraint(), "{name}: {state}");
    }
    let spec = DagSpec::default();
    for seed in 0..8 {
        let (tg, constraint) = synthetic::random_dag(seed, &spec).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let sized = baseline.sized_lowering(&tg);
        let state = steady_state(&sized, constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Periodic, "seed {seed}");
        assert!(state.meets_constraint(), "seed {seed}: {state}");
    }
}

#[test]
fn sdf_floors_of_the_sized_case_studies_are_pinned() {
    // The SDF floor beneath each sized lowering (MP3's is pinned with
    // the detector tests in `vrdf-sdf`).  The search is deterministic,
    // so the probe counts are exact too.
    let cases: [(&str, &[u64], u32); 2] = [
        ("fork-join", &[5888, 3072, 3072, 882, 882, 485], 65),
        ("mp3-feedback", &[5888, 3072, 881, 128], 45),
    ];
    for (name, floor, probes) in cases {
        let study = case_study(name).unwrap();
        let sized = baseline_capacities(&study.graph, study.constraint)
            .unwrap()
            .sized_lowering(&study.graph);
        let report =
            minimize_sdf_capacities(&sized, study.constraint, &SdfSearchOptions::default())
                .unwrap();
        assert!(report.baseline_clear, "{name}");
        let minima: Vec<u64> = report.channels.iter().map(|c| c.minimal).collect();
        assert_eq!(minima, floor, "{name}");
        assert_eq!(report.probes, probes, "{name}");
    }
}

#[test]
fn mp3_feedback_pins_the_identity_and_the_steady_state() {
    // The cyclic tentpole's cross-substrate agreement.  The spread
    // identity extends to the back-edge (constant quanta, zero spread,
    // both sides carry the same δ0 footprint), and lowering the sized
    // cyclic graph — initial tokens seeded onto the credit channel —
    // reaches the exact steady-state throughput the VRDF analysis
    // promises: the DAC's 44.1 kHz, unchanged from the acyclic chain.
    let tg = mp3_feedback();
    let vrdf = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let baseline = baseline_capacities(&tg, mp3_constraint()).unwrap();
    let strict = assert_spread_identity(&tg, &vrdf, &baseline, "mp3-feedback");
    assert_eq!(strict, 1, "d1 stays the only data-dependent edge");
    let fb = baseline
        .edges()
        .iter()
        .find(|e| e.name == "fb")
        .expect("fb is lowered");
    assert_eq!(fb.initial_tokens, vrdf_apps::MP3_FEEDBACK_INITIAL_TOKENS);

    let sized = baseline.sized_lowering(&tg);
    let state = steady_state(&sized, mp3_constraint(), &ExecOptions::default()).unwrap();
    assert_eq!(state.outcome, ExecOutcome::Periodic);
    assert!(state.meets_constraint(), "{state}");
    assert_eq!(
        state.throughput(),
        Some(vrdf_core::rat(44_100, 1)),
        "the cyclic lowering must sustain exactly the DAC rate"
    );

    let chain = mp3_chain();
    let chain_baseline = baseline_capacities(&chain, mp3_constraint()).unwrap();
    let chain_state = steady_state(
        &chain_baseline.sized_lowering(&chain),
        mp3_constraint(),
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(
        state.throughput(),
        chain_state.throughput(),
        "the balanced feedback edge must cost no throughput"
    );
}

#[test]
fn cyclic_dag_corpus_keeps_the_identity_and_executes() {
    // Constant equal quanta everywhere — back-edge included — so the
    // identity's exact corner extends to cyclic graphs, and every sized
    // lowering still reaches a constraint-meeting periodic steady state.
    let spec = DagSpec {
        feedback_headroom: Some(2),
        ..DagSpec::default()
    };
    for seed in 0..12 {
        let (tg, constraint) = synthetic::random_dag(seed, &spec).unwrap();
        let vrdf = compute_buffer_capacities(&tg, constraint).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let strict = assert_spread_identity(&tg, &vrdf, &baseline, &format!("cyclic {seed}"));
        assert_eq!(strict, 0);
        assert_eq!(baseline.total_over_provision(), 0);
        let sized = baseline.sized_lowering(&tg);
        let state = steady_state(&sized, constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Periodic, "seed {seed}");
        assert!(state.meets_constraint(), "seed {seed}: {state}");
    }
}

#[test]
fn native_analysis_matches_vrdf_on_constant_rate_lowerings() {
    // Third corner of the differential triangle: on the constant-max
    // lowering, the native repetition-vector analysis and the VRDF
    // analysis of the abstracted task graph agree exactly.
    let spec = ChainSpec::default();
    for seed in 0..24 {
        let (variable, constraint) = synthetic::random_chain(seed, &spec).unwrap();
        let abstracted = vrdf_sdf::constant_max_abstraction(&variable).unwrap();
        let vrdf = compute_buffer_capacities(&abstracted, constraint).unwrap();
        let native = analyze(&CsdfGraph::lower_constant_max(&abstracted), constraint).unwrap();
        for (v, n) in vrdf.capacities().iter().zip(native.capacities()) {
            assert_eq!(v.capacity, n.capacity, "seed {seed}: `{}`", n.name);
        }
    }
}

#[test]
fn native_analysis_sizes_feedback_initial_tokens() {
    // The native analysis charges a back-edge's pre-filled containers on
    // top of its in-flight bound, like Eq. (4) and the baseline: the
    // sized lowering can hold its δ0, and the SDF search from it reaches
    // the same floor as from the baseline sizing.
    let tg = mp3_feedback();
    let mut lowered = CsdfGraph::lower_constant_max(&tg);
    let native = analyze(&lowered, mp3_constraint()).unwrap();
    let fb = native
        .capacities()
        .iter()
        .find(|c| c.name == "fb")
        .expect("fb is lowered");
    assert!(fb.capacity >= vrdf_apps::MP3_FEEDBACK_INITIAL_TOKENS);
    // fb has constant quanta, so the baseline charges it no spread.
    let baseline = baseline_capacities(&tg, mp3_constraint()).unwrap();
    let baseline_fb = baseline.edges().iter().find(|e| e.name == "fb").unwrap();
    assert_eq!(fb.capacity, baseline_fb.capacity);

    native.apply(&mut lowered);
    let report =
        minimize_sdf_capacities(&lowered, mp3_constraint(), &SdfSearchOptions::default()).unwrap();
    assert!(report.baseline_clear);
    let minima: Vec<u64> = report.channels.iter().map(|c| c.minimal).collect();
    assert_eq!(minima, [5888, 3072, 881, 128]);
}

#[test]
fn zero_consumption_sets_lower_cleanly() {
    // {0..n} consumption (the MP3 d1 shape) must survive the whole
    // baseline path: spreads include the zero member, and the lowering
    // keeps the maximum.
    let tg = TaskGraph::linear_chain(
        [
            ("src", vrdf_core::rat(1, 10)),
            ("mid", vrdf_core::rat(1, 20)),
            ("snk", vrdf_core::rat(1, 100)),
        ],
        [
            (
                "b0",
                QuantumSet::constant(8),
                QuantumSet::range_inclusive(0, 4).unwrap(),
            ),
            ("b1", QuantumSet::constant(2), QuantumSet::constant(1)),
        ],
    )
    .unwrap();
    let constraint = ThroughputConstraint::on_sink(vrdf_core::rat(1, 20)).unwrap();
    let vrdf = compute_buffer_capacities(&tg, constraint).unwrap();
    let baseline = baseline_capacities(&tg, constraint).unwrap();
    let strict = assert_spread_identity(&tg, &vrdf, &baseline, "zero-consumption");
    assert_eq!(strict, 1);
    assert_eq!(
        baseline.edges()[0].capacity,
        vrdf.capacities()[0].capacity + 4
    );
}
