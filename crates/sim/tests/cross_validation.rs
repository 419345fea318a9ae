//! Simulator-vs-analysis cross-validation: the sufficiency theorem as an
//! executable oracle.
//!
//! Three layers:
//!
//! 1. The paper's MP3 chain at the published capacities sustains strict
//!    DAC periodicity in every quantum scenario (Section 5's validation).
//! 2. Under-provisioning an edge by a single container (`capacity − 1`)
//!    produces a detectable deadline miss or deadlock.
//! 3. Property-style: over randomized feasible chains, the computed
//!    capacities are always sufficient in simulation.

use vrdf_apps::synthetic::{random_chain, random_chain_of_length, ChainSpec};
use vrdf_apps::{mp3_chain, mp3_constraint, mp3_feedback, MP3_PUBLISHED_CAPACITIES};
use vrdf_core::{compute_buffer_capacities, Rational};
use vrdf_sim::{
    conservative_offset, measure_drift, validate_assigned_capacities, validate_capacities,
    QuantumPlan, QuantumPolicy, ValidationOptions,
};

fn quick_options(endpoint_firings: u64) -> ValidationOptions {
    ValidationOptions {
        endpoint_firings,
        random_runs: 2,
        ..ValidationOptions::default()
    }
}

#[test]
fn mp3_chain_sustains_periodicity_at_published_capacities() {
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
    assert_eq!(caps, MP3_PUBLISHED_CAPACITIES);

    let opts = ValidationOptions {
        random_runs: 5,
        ..quick_options(20_000)
    };
    let report = validate_capacities(&tg, &analysis, &opts).unwrap();
    assert!(report.all_clear(), "{report}");
    // Every scenario really drove the DAC through its full quota.
    for scenario in &report.scenarios {
        assert_eq!(
            scenario.report.endpoint.firings, 20_000,
            "{}",
            scenario.name
        );
        assert_eq!(scenario.report.endpoint.max_lateness, Some(Rational::ZERO));
    }
}

#[test]
fn mp3_feedback_sustains_periodicity_with_initial_tokens() {
    // The cyclic case study: the rate-control back-edge starts with
    // delta0 credits and the analysis sizes it as Eq. (4) plus that
    // footprint, so strict DAC periodicity survives every scenario —
    // operational evidence that the initial tokens are adequate.
    let tg = mp3_feedback();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let report = validate_capacities(&tg, &analysis, &quick_options(20_000)).unwrap();
    assert!(report.all_clear(), "{report}");
    for scenario in &report.scenarios {
        assert_eq!(
            scenario.report.endpoint.firings, 20_000,
            "{}",
            scenario.name
        );
        assert_eq!(scenario.report.endpoint.max_lateness, Some(Rational::ZERO));
    }
}

#[test]
fn variable_rate_cycle_wedges_for_any_initial_tokens() {
    // The boundary of the guarantee: route the credit loop around the
    // *variable-rate* d1 (vSRC grants credits to vBR, the cycle spans
    // d1 with γ ∈ [0, 960]) and the const-min scenario wedges it — the
    // decoder drawing γ̌ = 0 forever never drains d1, vBR blocks on d1
    // space after two firings, the credits stop recycling, fb fills,
    // vSRC blocks, and the DAC starves.  Raising δ0 only delays the
    // wedge (fb's net space above δ0 is the fixed Eq. (4) term), so the
    // sufficiency guarantee genuinely does not extend to cycles that
    // span a variable-rate edge.
    use vrdf_core::QuantumSet;
    for delta0 in [128u64, 1024, 8192] {
        let mut tg = mp3_chain();
        let src = tg.task_by_name("vSRC").unwrap();
        let vbr = tg.task_by_name("vBR").unwrap();
        // 25 credits per 10 ms vSRC firing vs 128 per 51.2 ms vBR
        // firing: 2.5 credits/ms on both sides, so the *analysis* is
        // perfectly happy — the failure is operational, not a rate
        // imbalance.
        tg.connect_feedback(
            "fb",
            src,
            vbr,
            QuantumSet::constant(25),
            QuantumSet::constant(128),
            delta0,
        )
        .unwrap();
        let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
        let report = validate_capacities(&tg, &analysis, &quick_options(20_000)).unwrap();
        assert!(
            !report.all_clear(),
            "δ0 = {delta0}: a cycle spanning the variable-rate d1 \
             should wedge under const-min\n{report}"
        );
        let failed: Vec<&str> = report
            .failures()
            .map(|scenario| scenario.name.as_str())
            .collect();
        assert!(
            failed.contains(&"const-min"),
            "δ0 = {delta0}: expected the const-min scenario to fail, got {failed:?}"
        );
    }
}

/// Replays the MP3 chain with one buffer overridden to `capacity` and
/// reports whether strict DAC periodicity survived.
fn mp3_with_capacity(buffer: &str, capacity: u64, endpoint_firings: u64) -> bool {
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let bid = sized.buffer_by_name(buffer).unwrap();
    sized.set_capacity(bid, capacity);
    validate_assigned_capacities(
        &sized,
        mp3_constraint(),
        offset,
        analysis.options().release,
        &quick_options(endpoint_firings),
    )
    .unwrap()
    .all_clear()
}

#[test]
fn mp3_d3_under_provisioning_misses_its_deadline() {
    // Eq. (4) gives d3 = 882.  Under the simulator's exact-handoff
    // semantics (a production landing at the same instant as a DAC
    // release still enables it) one container of the analysis' slack is
    // recoverable, so 881 holds — and one below that, the sample-rate
    // converter falls behind and the DAC misses a release.
    assert!(
        mp3_with_capacity("d3", 881, 30_000),
        "881 on d3 still holds"
    );
    assert!(
        !mp3_with_capacity("d3", 880, 30_000),
        "880 on d3 must break strict periodicity"
    );
}

#[test]
fn analysis_capacity_minus_one_misses_deadline_on_tight_chain() {
    // A chain where Eq. (4) is operationally exact (found by sweeping
    // seeds): removing a single container from the computed capacity
    // produces a detectable deadline miss.
    let (tg, constraint) = random_chain(19, &ChainSpec::default()).unwrap();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");

    // At the computed capacities every scenario is clean...
    let clean = validate_capacities(&tg, &analysis, &quick_options(3_000)).unwrap();
    assert!(clean.all_clear(), "{clean}");

    // ...and one container below, the worst-case scenario fails.
    let tight = &analysis.capacities()[0];
    let mut starved = tg.clone();
    analysis.apply(&mut starved);
    starved.set_capacity(tight.buffer, tight.capacity - 1);
    let report = validate_assigned_capacities(
        &starved,
        constraint,
        offset,
        analysis.options().release,
        &quick_options(3_000),
    )
    .unwrap();
    assert!(
        !report.all_clear(),
        "capacity {} - 1 on {} should miss a deadline\n{report}",
        tight.capacity,
        tight.name
    );
    // The failure is a deadline miss (or deadlock), visibly reported.
    let failure = report.failures().next().unwrap();
    assert!(
        failure.first_violation().is_some()
            || !matches!(
                failure.report.outcome,
                vrdf_sim::SimOutcome::Completed | vrdf_sim::SimOutcome::HorizonReached
            ),
        "{report}"
    );
}

#[test]
fn mp3_self_timed_drift_stays_under_conservative_offset() {
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    // Seeded random quanta, and one second of audio at the maxima.
    for (plan, firings) in [
        (QuantumPlan::random(99), 20_000),
        (QuantumPlan::uniform(QuantumPolicy::Max), 44_100),
    ] {
        let drift = measure_drift(&sized, mp3_constraint(), plan, firings)
            .unwrap()
            .expect("self-timed MP3 run completes");
        assert!(
            drift <= offset,
            "drift {drift} exceeds the conservative offset {offset}"
        );
    }
}

#[test]
fn random_chains_computed_capacities_are_sufficient_in_simulation() {
    let spec = ChainSpec::default();
    for seed in 0..30 {
        let (tg, constraint) = random_chain(seed, &spec).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let report = validate_capacities(&tg, &analysis, &quick_options(2_000)).unwrap();
        assert!(
            report.all_clear(),
            "seed {seed}: computed capacities insufficient in simulation\n{report}"
        );
    }
    // Seed-42 chains of 4 to 64 tasks on the 1/1024 response-time grid;
    // the 64-task one is a workload of the hook-overhead bench.
    let gridded = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    for len in [4, 8, 16, 32, 64] {
        let (tg, constraint) = random_chain_of_length(42, len, &gridded).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let report = validate_capacities(&tg, &analysis, &quick_options(2_000)).unwrap();
        assert!(report.all_clear(), "seed 42, {len} tasks\n{report}");
    }
}

#[test]
fn random_chains_longer_and_wilder_quanta() {
    let spec = ChainSpec {
        min_tasks: 4,
        max_tasks: 7,
        max_quantum: 20,
        max_set_len: 6,
        ..ChainSpec::default()
    };
    for seed in 100..115 {
        let (tg, constraint) = random_chain(seed, &spec).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let report = validate_capacities(&tg, &analysis, &quick_options(1_500)).unwrap();
        assert!(report.all_clear(), "seed {seed}\n{report}");
    }
}
