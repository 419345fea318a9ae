//! The exact-`Rational` reference executor.
//!
//! This is the pre-rescale form of the engine: every event time is an
//! exact [`Rational`], so each heap compare and every release/finish
//! addition pays i128 gcd reduction.  The production [`Simulator`] runs
//! the same operational semantics on an integer tick clock instead; this
//! module exists so the tick engine can be differentially tested against
//! the original semantics (same traces, same violations, same outcome).
//!
//! [`Simulator`]: crate::engine::Simulator

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use vrdf_core::{
    BufferId, ConstrainedRelease, ConstraintLocation, CoreCounters, CounterSink, Rational,
    TaskGraph, TaskId,
};

use crate::engine::{
    BlockReason, BufferStats, EndpointBehavior, EndpointStats, FiringRecord, SimConfig, SimOutcome,
    SimReport, TaskStats, TraceLevel, Violation,
};
use crate::policy::{QuantumPlan, Side};
use crate::telemetry::EngineCounters;
use crate::SimError;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    Finish { task: usize },
    Release,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Event {
    time: Rational,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so BinaryHeap pops the earliest event; ties
        // break FIFO by sequence number.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct BufState {
    id: BufferId,
    tokens: u64,
    space: u64,
    capacity: u64,
    max_occupancy: u64,
    produced: u64,
    consumed: u64,
}

struct TaskCtx {
    id: TaskId,
    rho: Rational,
    /// Buffer-state indices of the task's input buffers, in connection
    /// order.
    inputs: Vec<usize>,
    /// Buffer-state indices of the task's output buffers, in connection
    /// order.
    outputs: Vec<usize>,
    busy: bool,
    started: u64,
    finished: u64,
    busy_time: Rational,
}

/// The pre-rescale discrete-event simulator over exact [`Rational`] time.
///
/// Construction and [`run`](ReferenceSimulator::run) mirror
/// [`Simulator`](crate::engine::Simulator) exactly; the two must stay
/// observably identical (`tests/differential.rs` enforces it).
pub struct ReferenceSimulator<'a> {
    tg: &'a TaskGraph,
    plan: QuantumPlan,
    config: SimConfig,
    tasks: Vec<TaskCtx>,
    buffers: Vec<BufState>,
    endpoint: usize,
    period: Rational,
    heap: BinaryHeap<Event>,
    seq: u64,
    releases_issued: u64,
    violations: Vec<Violation>,
    trace: Vec<FiringRecord>,
    events_processed: u64,
    /// Set when an event was due but the budget was already spent.
    budget_exhausted: bool,
    now: Rational,
    first_start: Option<Rational>,
    last_start: Option<Rational>,
    max_drift: Option<Rational>,
    max_lateness: Option<Rational>,
    /// Coarse activity counters (the [`CoreCounters`] subset of the tick
    /// engine's), reported through the shared [`CounterSink`] hook; only
    /// touched when [`SimConfig::telemetry`] is on.
    counters: CoreCounters,
}

impl<'a> ReferenceSimulator<'a> {
    /// Builds a reference simulator; same contract as
    /// [`Simulator::new`](crate::engine::Simulator::new).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::new`](crate::engine::Simulator::new), minus
    /// [`SimError::TickOverflow`] — rational time never rescales — plus
    /// [`SimError::InvalidFault`] for a non-empty [`SimConfig::faults`]:
    /// fault injection is a tick-engine feature.
    pub fn new(
        tg: &'a TaskGraph,
        plan: QuantumPlan,
        config: SimConfig,
    ) -> Result<ReferenceSimulator<'a>, SimError> {
        if !config.faults.is_empty() {
            return Err(SimError::InvalidFault {
                detail: "the reference engine does not inject faults".to_owned(),
            });
        }
        let dag = tg.condensed().map_err(SimError::Analysis)?;
        plan.validate(tg)?;

        let mut task_pos = vec![0usize; tg.task_count()];
        for (pos, &tid) in dag.tasks().iter().enumerate() {
            task_pos[tid.index()] = pos;
        }
        // The reference engine rescans every task when settling an
        // instant, so unlike the tick engine it needs no per-buffer
        // producer/consumer back-pointers.
        let mut buf_pos = vec![0usize; tg.buffer_count()];
        for (bi, &bid) in dag.buffers().iter().enumerate() {
            buf_pos[bid.index()] = bi;
        }

        let mut buffers = Vec::with_capacity(dag.buffers().len());
        for &bid in dag.buffers() {
            let buffer = tg.buffer(bid);
            let capacity = buffer.capacity().ok_or_else(|| SimError::CapacityUnset {
                buffer: buffer.name().to_owned(),
            })?;
            // Initial tokens (zero except on feedback edges) occupy
            // capacity from the first instant.
            let delta0 = buffer.initial_tokens();
            if delta0 > capacity {
                return Err(SimError::InitialTokensExceedCapacity {
                    buffer: buffer.name().to_owned(),
                });
            }
            buffers.push(BufState {
                id: bid,
                tokens: delta0,
                space: capacity - delta0,
                capacity,
                max_occupancy: delta0,
                produced: 0,
                consumed: 0,
            });
        }

        let mut tasks = Vec::with_capacity(dag.tasks().len());
        for &tid in dag.tasks() {
            tasks.push(TaskCtx {
                id: tid,
                rho: tg.task(tid).response_time(),
                inputs: tg
                    .input_buffers(tid)
                    .iter()
                    .map(|b| buf_pos[b.index()])
                    .collect(),
                outputs: tg
                    .output_buffers(tid)
                    .iter()
                    .map(|b| buf_pos[b.index()])
                    .collect(),
                busy: false,
                started: 0,
                finished: 0,
                busy_time: Rational::ZERO,
            });
        }

        let endpoint_task = match config.constraint.location() {
            ConstraintLocation::Sink => dag.unique_sink(tg).map_err(SimError::Analysis)?,
            ConstraintLocation::Source => dag.unique_source(tg).map_err(SimError::Analysis)?,
        };
        let endpoint = task_pos[endpoint_task.index()];
        let period = config.constraint.period();

        let mut sim = ReferenceSimulator {
            tg,
            plan,
            config,
            tasks,
            buffers,
            endpoint,
            period,
            heap: BinaryHeap::new(),
            seq: 0,
            releases_issued: 0,
            violations: Vec::new(),
            trace: Vec::new(),
            events_processed: 0,
            budget_exhausted: false,
            now: Rational::ZERO,
            first_start: None,
            last_start: None,
            max_drift: None,
            max_lateness: None,
            counters: CoreCounters::default(),
        };
        if let EndpointBehavior::StrictlyPeriodic { offset } = sim.config.behavior {
            if sim.config.max_endpoint_firings > 0 {
                sim.push(offset, EventKind::Release);
            }
        }
        Ok(sim)
    }

    fn push(&mut self, time: Rational, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// The consumption quantum firing `k` draws on buffer state `bi`.
    fn consumption_quantum(&self, bi: usize, k: u64) -> u64 {
        let id = self.buffers[bi].id;
        self.plan.draw(
            self.tg.buffer(id).consumption(),
            id.index(),
            Side::Consumption,
            k,
        )
    }

    /// The production quantum firing `k` draws on buffer state `bi`.
    fn production_quantum(&self, bi: usize, k: u64) -> u64 {
        let id = self.buffers[bi].id;
        self.plan.draw(
            self.tg.buffer(id).production(),
            id.index(),
            Side::Production,
            k,
        )
    }

    fn startable(&self, pos: usize, honor_release: bool) -> Result<(), BlockReason> {
        let task = &self.tasks[pos];
        if task.busy {
            return Err(BlockReason::Busy);
        }
        if pos == self.endpoint {
            if task.started >= self.config.max_endpoint_firings {
                return Err(BlockReason::NotReleased);
            }
            if honor_release
                && matches!(
                    self.config.behavior,
                    EndpointBehavior::StrictlyPeriodic { .. }
                )
                && task.started >= self.releases_issued
            {
                return Err(BlockReason::NotReleased);
            }
        }
        let k = task.started;
        for &bi in &task.inputs {
            let need = self.consumption_quantum(bi, k);
            let b = &self.buffers[bi];
            if b.tokens < need {
                return Err(BlockReason::NeedTokens {
                    buffer: b.id,
                    have: b.tokens,
                    need,
                });
            }
        }
        for &bi in &task.outputs {
            let need = self.production_quantum(bi, k);
            let b = &self.buffers[bi];
            if b.space < need {
                return Err(BlockReason::NeedSpace {
                    buffer: b.id,
                    have: b.space,
                    need,
                });
            }
        }
        Ok(())
    }

    fn start_firing(&mut self, pos: usize) {
        let k = self.tasks[pos].started;
        let immediate_free =
            pos == self.endpoint && self.config.release == ConstrainedRelease::Immediate;
        let mut consumed = 0u64;
        let mut produced = 0u64;
        for i in 0..self.tasks[pos].inputs.len() {
            let bi = self.tasks[pos].inputs[i];
            let c = self.consumption_quantum(bi, k);
            let b = &mut self.buffers[bi];
            b.tokens -= c;
            b.consumed += c;
            consumed += c;
            if immediate_free {
                b.space += c;
            }
        }
        for i in 0..self.tasks[pos].outputs.len() {
            let bi = self.tasks[pos].outputs[i];
            let p = self.production_quantum(bi, k);
            let b = &mut self.buffers[bi];
            b.space -= p;
            b.max_occupancy = b.max_occupancy.max(b.capacity - b.space);
            produced += p;
        }
        let start = self.now;
        let rho = self.tasks[pos].rho;
        let finish = start + rho;
        {
            let task = &mut self.tasks[pos];
            task.busy = true;
            task.started += 1;
            task.busy_time += rho;
        }
        if self.config.telemetry {
            self.counters.on_firing_started();
        }
        self.push(finish, EventKind::Finish { task: pos });

        if pos == self.endpoint {
            self.first_start.get_or_insert(start);
            self.last_start = Some(start);
            match self.config.behavior {
                EndpointBehavior::SelfTimed => {
                    let drift = start - Rational::from(k) * self.period;
                    self.max_drift = Some(self.max_drift.map_or(drift, |d| d.max(drift)));
                }
                EndpointBehavior::StrictlyPeriodic { offset } => {
                    let lateness = start - (offset + Rational::from(k) * self.period);
                    self.max_lateness =
                        Some(self.max_lateness.map_or(lateness, |d| d.max(lateness)));
                }
            }
        }
        let record = match self.config.trace {
            TraceLevel::All => true,
            TraceLevel::Endpoint => pos == self.endpoint,
            TraceLevel::None => false,
        };
        if record {
            self.trace.push(FiringRecord {
                task: self.tasks[pos].id,
                firing: k,
                start,
                finish,
                consumed,
                produced,
            });
        }
    }

    fn apply_finish(&mut self, pos: usize) {
        debug_assert!(self.tasks[pos].busy, "finish event for an idle task");
        // At most one firing is in flight, so the one finishing has index
        // `finished`; quantum draws are pure in that index.
        let k = self.tasks[pos].finished;
        let immediate_free =
            pos == self.endpoint && self.config.release == ConstrainedRelease::Immediate;
        if !immediate_free {
            for i in 0..self.tasks[pos].inputs.len() {
                let bi = self.tasks[pos].inputs[i];
                let c = self.consumption_quantum(bi, k);
                self.buffers[bi].space += c;
            }
        }
        for i in 0..self.tasks[pos].outputs.len() {
            let bi = self.tasks[pos].outputs[i];
            let p = self.production_quantum(bi, k);
            let b = &mut self.buffers[bi];
            b.tokens += p;
            b.produced += p;
        }
        let task = &mut self.tasks[pos];
        task.busy = false;
        task.finished += 1;
        if self.config.telemetry {
            self.counters.on_firing_finished();
        }
    }

    fn try_starts(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut progressed = false;
            for pos in 0..self.tasks.len() {
                if self.startable(pos, true).is_ok() {
                    self.start_firing(pos);
                    progressed = true;
                    any = true;
                }
            }
            if !progressed {
                return any;
            }
            if self.config.telemetry {
                self.counters.on_settling_pass();
            }
        }
    }

    fn drain_events_at_now(&mut self) -> bool {
        let mut any = false;
        while let Some(event) = self.heap.peek() {
            if event.time != self.now {
                break;
            }
            if self.events_processed >= self.config.max_events {
                self.budget_exhausted = true;
                break;
            }
            // The surrounding loop peeked this entry.
            #[allow(clippy::expect_used)]
            let event = self.heap.pop().expect("peeked");
            self.events_processed += 1;
            if self.config.telemetry {
                self.counters.on_event_popped();
            }
            any = true;
            match event.kind {
                EventKind::Finish { task } => self.apply_finish(task),
                EventKind::Release => {
                    self.releases_issued += 1;
                    if self.releases_issued < self.config.max_endpoint_firings {
                        self.push(event.time + self.period, EventKind::Release);
                    }
                }
            }
        }
        any
    }

    fn check_misses(&mut self) {
        if let EndpointBehavior::StrictlyPeriodic { offset } = self.config.behavior {
            let started = self.tasks[self.endpoint].started;
            for firing in started..self.releases_issued {
                let release = offset + Rational::from(firing) * self.period;
                if release < self.now {
                    continue;
                }
                let reason = self
                    .startable(self.endpoint, false)
                    .err()
                    .unwrap_or(BlockReason::NotReleased);
                self.violations.push(Violation {
                    firing,
                    release,
                    reason,
                });
            }
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        let outcome = self.run_loop();
        let endpoint = EndpointStats {
            task: self.tasks[self.endpoint].id,
            firings: self.tasks[self.endpoint].finished,
            first_start: self.first_start,
            last_start: self.last_start,
            max_drift: self.max_drift,
            max_lateness: self.max_lateness,
        };
        let buffers = self
            .buffers
            .iter()
            .map(|b| BufferStats {
                buffer: b.id,
                name: self.tg.buffer(b.id).name().to_owned(),
                capacity: b.capacity,
                max_occupancy: b.max_occupancy,
                produced: b.produced,
                consumed: b.consumed,
            })
            .collect();
        let tasks = self
            .tasks
            .iter()
            .map(|t| TaskStats {
                task: t.id,
                name: self.tg.task(t.id).name().to_owned(),
                firings: t.finished,
                busy_time: t.busy_time,
            })
            .collect();
        SimReport {
            outcome,
            violations: self.violations,
            endpoint,
            buffers,
            tasks,
            trace: self.trace,
            events_processed: self.events_processed,
            end_time: self.now,
            // The reference engine cannot inject faults; it only ever
            // runs fault-free plans (the degraded tick-overflow path).
            faults_injected: 0,
            first_fault_time: None,
            last_fault_time: None,
            // Coarse counters only: the reference has no wheel, no dirty
            // bitmap, and no compiled policies, so the engine-specific
            // fields stay zero.
            counters: self.config.telemetry.then(|| EngineCounters {
                events_popped: self.counters.events_popped,
                firings_started: self.counters.firings_started,
                firings_finished: self.counters.firings_finished,
                settling_passes: self.counters.settling_passes,
                ..EngineCounters::default()
            }),
            occupancy: Vec::new(),
            spans: None,
        }
    }

    fn run_loop(&mut self) -> SimOutcome {
        loop {
            loop {
                let drained = self.drain_events_at_now();
                if self.budget_exhausted {
                    return SimOutcome::EventBudgetExhausted;
                }
                let started = self.try_starts();
                if !drained && !started {
                    break;
                }
            }
            self.check_misses();
            if self.config.stop_on_violation && !self.violations.is_empty() {
                return SimOutcome::StoppedOnViolation;
            }
            if self.tasks[self.endpoint].finished >= self.config.max_endpoint_firings {
                return SimOutcome::Completed;
            }
            match self.heap.peek() {
                Some(event) => {
                    if let Some(max_time) = self.config.max_time {
                        if event.time > max_time {
                            return SimOutcome::HorizonReached;
                        }
                    }
                    self.now = event.time;
                }
                None => {
                    let blocked = (0..self.tasks.len())
                        .filter_map(|pos| {
                            self.startable(pos, true)
                                .err()
                                .map(|reason| (self.tasks[pos].id, reason))
                        })
                        .collect();
                    return SimOutcome::Deadlock {
                        time: self.now,
                        blocked,
                    };
                }
            }
        }
    }
}
