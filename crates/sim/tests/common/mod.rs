//! Report comparison shared by the hook passivity tests.

use vrdf_sim::SimReport;

/// Asserts two reports are bit-identical in every observable field, and
/// that no fault struck either run.
pub fn assert_identical(hooked: &SimReport, plain: &SimReport, context: &str) {
    assert_eq!(hooked.outcome, plain.outcome, "{context}: outcome");
    assert_eq!(hooked.violations, plain.violations, "{context}: violations");
    assert_eq!(hooked.trace, plain.trace, "{context}: firing trace");
    assert_eq!(
        hooked.events_processed, plain.events_processed,
        "{context}: event count"
    );
    assert_eq!(hooked.end_time, plain.end_time, "{context}: end time");
    assert_eq!(hooked.endpoint.firings, plain.endpoint.firings);
    assert_eq!(hooked.endpoint.first_start, plain.endpoint.first_start);
    assert_eq!(hooked.endpoint.last_start, plain.endpoint.last_start);
    assert_eq!(hooked.endpoint.max_drift, plain.endpoint.max_drift);
    assert_eq!(hooked.endpoint.max_lateness, plain.endpoint.max_lateness);
    for (g, p) in hooked.buffers.iter().zip(&plain.buffers) {
        assert_eq!(g.capacity, p.capacity);
        assert_eq!(g.max_occupancy, p.max_occupancy, "{context}: {}", g.name);
        assert_eq!(g.produced, p.produced);
        assert_eq!(g.consumed, p.consumed);
    }
    for (g, p) in hooked.tasks.iter().zip(&plain.tasks) {
        assert_eq!(g.firings, p.firings);
        assert_eq!(g.busy_time, p.busy_time, "{context}: {}", g.name);
    }
    for report in [hooked, plain] {
        assert_eq!(report.faults_injected, 0, "{context}: no faults injected");
        assert_eq!(report.first_fault_time, None, "{context}: no fault instant");
        assert_eq!(report.last_fault_time, None, "{context}: no fault instant");
    }
}
