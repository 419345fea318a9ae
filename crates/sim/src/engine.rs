//! The self-timed discrete-event executor.
//!
//! The engine executes a fork/join [`TaskGraph`] (any graph accepted by
//! [`TaskGraph::condensed`]; chains are the degenerate case) under the
//! paper's operational semantics (Section 3): a task may start a firing when
//! *every* input buffer holds enough full containers *and* *every* output
//! buffer holds enough empty containers for the per-edge quanta of that
//! firing; containers are claimed atomically on all adjacent buffers at
//! the start, the firing occupies the task for its worst-case response
//! time `κ(w)`, consumed containers are freed and produced containers
//! become full on all adjacent buffers at the finish.  Every
//! unconstrained task runs *self-timed* — it fires as soon as it is
//! enabled.
//!
//! The throughput-constrained endpoint (sink or source) can run in two
//! modes:
//!
//! * [`EndpointBehavior::SelfTimed`] — it too fires as soon as enabled;
//!   the report then carries the endpoint's maximum *drift* against the
//!   ideal period, a lower-bound feasibility probe.
//! * [`EndpointBehavior::StrictlyPeriodic`] — firing `k` is released at
//!   `offset + k·τ` and must start exactly then; a firing that cannot
//!   start at its release is a [`Violation`] (deadline miss).  This is the
//!   executable form of the paper's throughput constraint.
//!
//! # The integer tick clock
//!
//! Every time in one run — response times, the period `τ`, the periodic
//! offset, the horizon — is a [`Rational`], but they all share a common
//! denominator: the LCM of their canonical denominators.  At construction
//! the engine computes that LCM ([`Rational::lcm_den`]) and converts every
//! time to integer *ticks* of `1/LCM` once ([`Rational::to_ticks`]).  The
//! entire event loop — heap ordering, release/finish/deadline arithmetic,
//! drift tracking — then runs on machine integers; exact rational
//! arithmetic (i128 gcd reduction per add and compare) is paid only at
//! the report boundary, where ticks convert back to [`Rational`].  The
//! rescaling is exact, so the tick engine is observably identical to the
//! rational-time reference ([`crate::reference::ReferenceSimulator`]);
//! `tests/differential.rs` enforces this.  A time base too fine to
//! rescale (a converted quantity past `u64::MAX` ticks) is rejected with
//! [`SimError::TickOverflow`] instead of wrapping.
//!
//! # The flat-arena core: [`SimPlan`] and [`SimState`]
//!
//! Construction and execution are split so that neither taxes the other:
//!
//! * [`SimPlan`] is everything derivable from the graph and the
//!   [`SimConfig`] alone — DAG validation, the tick rescale (LCM plus
//!   every converted time), the topological task order, and the task ↔
//!   buffer adjacency flattened into CSR-style index arrays.  It is built
//!   **once per graph** and is immutable (and `Sync`), so scenario
//!   batteries and capacity searches share one plan across thousands of
//!   runs instead of re-validating and re-rescaling per probe.
//! * [`SimState`] is the mutable run state, laid out struct-of-arrays:
//!   per-task flags and counters, per-buffer occupancy words, and
//!   per-edge claim slots each live in their own flat array indexed by
//!   the plan's integer positions — no per-task `Vec`s, no pointer
//!   chasing through `BufState` records.  Every run *resets* the arenas
//!   in place ([`SimPlan::run`]); the event heap, the firing trace, the
//!   deadlock scan's `blocked` list, and the dirty-task worklist all keep
//!   their allocations across runs, so the steady state of a scenario
//!   battery allocates only when a policy compiles or a report is built.
//!
//! The run loop batches all heap events that share a tick and settles the
//! instant with one enable sweep over a *dirty worklist*: only tasks
//! whose inputs, outputs, or busy state changed are re-examined, and the
//! worklist is a sorted index list — per-instant work is proportional to
//! the number of affected tasks, not to the size of the graph.  (A start
//! can only dirty *upstream* producers, which sit strictly earlier in
//! topological order, so sweeping the sorted worklist and deferring
//! newly-dirtied tasks to the next sweep reproduces the reference
//! engine's position-order semantics exactly.)  This is what keeps
//! events/second flat as graphs grow.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::mem;
use std::time::Instant;

use vrdf_core::{
    BufferId, ConstrainedRelease, ConstraintLocation, Rational, TaskGraph, TaskId,
    ThroughputConstraint,
};

use crate::faults::{CompiledFaults, FaultPlan};
use crate::policy::{CompiledQuantum, QuantumPlan, Side};
use crate::telemetry::{EngineCounters, OccupancySample, PhaseTimes};
use crate::SimError;

/// How the throughput-constrained endpoint task is scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndpointBehavior {
    /// The endpoint fires as soon as it is enabled, like every other task.
    SelfTimed,
    /// Firing `k` of the endpoint is released at `offset + k·τ` and counts
    /// as a deadline miss if it cannot start at that instant.
    StrictlyPeriodic {
        /// Release time of firing 0.
        offset: Rational,
    },
}

/// How much of the firing history to keep in the report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// Keep only aggregate statistics.
    #[default]
    None,
    /// Record every firing of the constrained endpoint.
    Endpoint,
    /// Record every firing of every task.
    All,
}

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The throughput constraint: which endpoint is constrained and the
    /// period `τ` it must sustain.
    pub constraint: ThroughputConstraint,
    /// Scheduling mode of the constrained endpoint.
    pub behavior: EndpointBehavior,
    /// When the constrained endpoint frees the containers it consumed —
    /// must match the convention the analysis was run with.
    pub release: ConstrainedRelease,
    /// Stop after the endpoint has completed this many firings.
    pub max_endpoint_firings: u64,
    /// Stop before processing any event later than this time.
    pub max_time: Option<Rational>,
    /// Hard cap on processed events, guarding against zero-response-time
    /// livelock.  Enforced exactly: a run never processes more than this
    /// many events, and ends with [`SimOutcome::EventBudgetExhausted`]
    /// the moment one more event is due with the budget spent.
    pub max_events: u64,
    /// Firing-history retention.
    pub trace: TraceLevel,
    /// Stop at the first deadline miss instead of collecting all of them.
    pub stop_on_violation: bool,
    /// Bounded fault perturbations every run replays (see
    /// [`crate::faults`]).  Empty by default: every fault hook is gated
    /// on the plan's emptiness, so a fault-free run takes the plain
    /// engine's path.
    pub faults: FaultPlan,
    /// Collect [`EngineCounters`], reset/run phase spans, and — when the
    /// run traces at [`TraceLevel::All`] — per-buffer occupancy samples
    /// ([`SimReport::occupancy`]).  `false` by default: every telemetry
    /// hook is gated on this one flag.
    pub telemetry: bool,
}

impl SimConfig {
    /// Self-timed run: everything (endpoint included) fires when enabled.
    pub fn self_timed(constraint: ThroughputConstraint) -> SimConfig {
        SimConfig {
            constraint,
            behavior: EndpointBehavior::SelfTimed,
            release: ConstrainedRelease::default(),
            max_endpoint_firings: 10_000,
            max_time: None,
            max_events: 50_000_000,
            trace: TraceLevel::None,
            stop_on_violation: false,
            faults: FaultPlan::new(),
            telemetry: false,
        }
    }

    /// Strictly periodic endpoint released first at `offset`.
    pub fn periodic(constraint: ThroughputConstraint, offset: Rational) -> SimConfig {
        SimConfig {
            behavior: EndpointBehavior::StrictlyPeriodic { offset },
            ..SimConfig::self_timed(constraint)
        }
    }
}

/// Why a task could not start a firing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// The previous firing of the task had not finished.
    Busy,
    /// Not enough full containers on the input buffer.
    NeedTokens {
        /// The starving buffer.
        buffer: BufferId,
        /// Full containers available.
        have: u64,
        /// Full containers the firing's consumption quantum needs.
        need: u64,
    },
    /// Not enough empty containers on the output buffer.
    NeedSpace {
        /// The congested buffer.
        buffer: BufferId,
        /// Empty containers available.
        have: u64,
        /// Empty containers the firing's production quantum needs.
        need: u64,
    },
    /// A strictly periodic endpoint whose next release has not arrived.
    NotReleased,
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::Busy => f.write_str("previous firing still executing"),
            BlockReason::NeedTokens { buffer, have, need } => {
                write!(
                    f,
                    "{buffer} holds {have} full containers, firing needs {need}"
                )
            }
            BlockReason::NeedSpace { buffer, have, need } => {
                write!(
                    f,
                    "{buffer} holds {have} empty containers, firing needs {need}"
                )
            }
            BlockReason::NotReleased => f.write_str("waiting for the next periodic release"),
        }
    }
}

/// A strict-periodicity violation of the constrained endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Zero-based firing index of the endpoint.
    pub firing: u64,
    /// The release time `offset + firing·τ` the start was due at.
    pub release: Rational,
    /// Why the firing could not start at its release.
    pub reason: BlockReason,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline miss at firing {} (release {}): {}",
            self.firing, self.release, self.reason
        )
    }
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimOutcome {
    /// The endpoint completed the requested number of firings.
    Completed,
    /// The time horizon was reached before the firing quota.
    HorizonReached,
    /// No task could ever fire again.
    Deadlock {
        /// Time of the last event before the standstill.
        time: Rational,
        /// Why each unfinished task is blocked.
        blocked: Vec<(TaskId, BlockReason)>,
    },
    /// The event budget ran out (livelock guard).
    EventBudgetExhausted,
    /// The run stopped early at the first violation
    /// ([`SimConfig::stop_on_violation`]).
    StoppedOnViolation,
}

/// One recorded firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiringRecord {
    /// The firing task.
    pub task: TaskId,
    /// Zero-based firing index of that task.
    pub firing: u64,
    /// Start time (containers claimed here).
    pub start: Rational,
    /// Finish time (productions and frees land here).
    pub finish: Rational,
    /// Total containers consumed by this firing, summed over all input
    /// buffers (0 when the task has none).
    pub consumed: u64,
    /// Total containers produced by this firing, summed over all output
    /// buffers (0 when the task has none).
    pub produced: u64,
}

/// Aggregate statistics of the constrained endpoint.
#[derive(Clone, Debug)]
pub struct EndpointStats {
    /// The endpoint task.
    pub task: TaskId,
    /// Completed firings.
    pub firings: u64,
    /// Start time of firing 0, if it happened.
    pub first_start: Option<Rational>,
    /// Start time of the last firing.
    pub last_start: Option<Rational>,
    /// Self-timed mode: `max_k (s_k − k·τ)` over observed starts — the
    /// smallest strictly periodic offset consistent with this run.
    pub max_drift: Option<Rational>,
    /// Periodic mode: maximum start lateness past a release.
    pub max_lateness: Option<Rational>,
}

/// Aggregate statistics of one buffer.
#[derive(Clone, Debug)]
pub struct BufferStats {
    /// The buffer.
    pub buffer: BufferId,
    /// Its name.
    pub name: String,
    /// Capacity `ζ(b)` the run used.
    pub capacity: u64,
    /// High-water mark of containers in use (full + claimed), never above
    /// `capacity` by construction.
    pub max_occupancy: u64,
    /// Total containers produced into the buffer.
    pub produced: u64,
    /// Total containers consumed from the buffer.
    pub consumed: u64,
}

/// Aggregate statistics of one task.
#[derive(Clone, Debug)]
pub struct TaskStats {
    /// The task.
    pub task: TaskId,
    /// Its name.
    pub name: String,
    /// Completed firings.
    pub firings: u64,
    /// Total time spent executing firings.
    pub busy_time: Rational,
}

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// How the run ended.
    pub outcome: SimOutcome,
    /// Strict-periodicity violations of the endpoint (periodic mode only).
    pub violations: Vec<Violation>,
    /// Endpoint statistics.
    pub endpoint: EndpointStats,
    /// Per-buffer statistics, in the validated DAG's buffer order
    /// (source-to-sink for a chain).
    pub buffers: Vec<BufferStats>,
    /// Per-task statistics, in topological order (chain order for a
    /// chain).
    pub tasks: Vec<TaskStats>,
    /// Recorded firings, per [`TraceLevel`].
    pub trace: Vec<FiringRecord>,
    /// Number of processed events.
    pub events_processed: u64,
    /// Time of the last processed event.
    pub end_time: Rational,
    /// Fault perturbations that actually struck the run: stalled or
    /// retried firings plus delayed releases.  Zero without a
    /// [`crate::FaultPlan`].
    pub faults_injected: u64,
    /// The first instant a fault perturbed the run — the start of the
    /// first stalled firing or the nominal instant of the first delayed
    /// release.  `None` when no fault struck; violations before this
    /// instant cannot be blamed on the fault.
    pub first_fault_time: Option<Rational>,
    /// The last instant a fault perturbed the run — the finish of the
    /// last stalled firing or the issuance of the last delayed release.
    /// `None` when no fault struck; recovery windows are measured from
    /// here.
    pub last_fault_time: Option<Rational>,
    /// Engine activity counters; `Some` iff the run's
    /// [`SimConfig::telemetry`] is on.
    pub counters: Option<EngineCounters>,
    /// Buffer-occupancy history, one sample per occupancy change.
    /// Non-empty only for telemetry-enabled runs traced at
    /// [`TraceLevel::All`]; the Perfetto exporter renders these as
    /// counter tracks.
    pub occupancy: Vec<OccupancySample>,
    /// Wall-clock spans of the reset and run phases; `Some` iff the run's
    /// [`SimConfig::telemetry`] is on.  Wall times live here, outside
    /// every compared field, so differential comparisons and merged
    /// results stay deterministic.
    pub spans: Option<PhaseTimes>,
}

impl SimReport {
    /// `true` when the run completed its quota (or horizon) with zero
    /// violations and no deadlock.
    pub fn ok(&self) -> bool {
        matches!(
            self.outcome,
            SimOutcome::Completed | SimOutcome::HorizonReached
        ) && self.violations.is_empty()
    }
}

/// An overflow-queue entry; `time` is in integer ticks, so each compare
/// is a pair of machine-integer comparisons instead of cross-reduced
/// rational ones.  `node` identifies the event: task position for a
/// finish, the one-past-the-tasks slot for the periodic release.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Event {
    time: i128,
    seq: u64,
    node: u32,
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

/// "No node" sentinel in the event wheel's intrusive lists.
const NO_NODE: u32 = u32::MAX;

/// The pending-event queue: a timing wheel of tick buckets fused with an
/// overflow heap, presenting exactly the (time, seq) FIFO order a binary
/// heap of [`Event`]s would — but with O(1) push and pop.
///
/// The engine's event population is tiny and structured: at most one
/// pending finish per task (a task has at most one firing in flight) and
/// at most one pending release.  Each such *node* owns one slot in the
/// intrusive per-bucket lists, so the wheel needs no allocation, ever.
/// Two invariants make the wheel sound:
///
/// * every wheel event lies in the window `[now, now + window]` with
///   `window ≤ mask` — enforced at push (anything farther, e.g. the
///   initial release at a distant or negative offset, or a response time
///   past the window cap, goes to the overflow heap instead);
/// * the engine's clock only moves to pending event times, so pending
///   wheel events are never behind `now`; the one backward jump a run
///   can make (0 → a negative release offset) is pre-subtracted from
///   `window` at [`clear`](EventQueue::clear) so events pushed before
///   the jump still can't alias a bucket across it.
///
/// Together they mean the bucket of tick `now` can only hold events due
/// exactly *now* ([`pop_due`](EventQueue::pop_due) is scan-free), and
/// the next-event scan ([`next_time`](EventQueue::next_time), once per
/// settled instant) reconstructs absolute times from bucket distance.
/// Within a bucket, insertion order is seq order, and the wheel/overflow
/// merge compares (time, seq) — so pops are bit-identical to the heap
/// the reference engine uses, which `tests/differential.rs` pins.
struct EventQueue {
    /// Bucket count − 1 (count is a power of two); tick `t` hashes to
    /// bucket `t & mask`.
    mask: usize,
    /// Per-bucket FIFO list heads/tails (node indices).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// One bit per non-empty bucket.
    bits: Vec<u64>,
    /// One bit per non-zero `bits` word.
    summary: Vec<u64>,
    /// Intrusive next pointers and push sequence numbers, per node.
    node_next: Vec<u32>,
    node_seq: Vec<u64>,
    /// Events beyond the wheel window, in the same (time, seq) order.
    overflow: BinaryHeap<Event>,
    wheel_len: usize,
    /// Usable window in ticks: `mask` minus the run's backward-jump
    /// slack.  The clock can move backward exactly once, from 0 to a
    /// negative release offset; shrinking the window by that jump keeps
    /// the bucket-aliasing argument valid at every clock the run can
    /// reach.  Negative means everything overflows (absurd offsets).
    window: i128,
}

impl EventQueue {
    /// A wheel covering deltas up to `max_delta_hint` ticks (clamped to
    /// [64, 2^15] buckets) over `nodes` event slots.  The hint only
    /// tunes how much traffic stays on the O(1) wheel path; deltas past
    /// the window are still handled, via the overflow heap.
    fn new(nodes: usize, max_delta_hint: i128) -> EventQueue {
        let buckets = (max_delta_hint.clamp(0, (1 << 15) - 1) as usize + 1)
            .next_power_of_two()
            .max(64);
        EventQueue {
            mask: buckets - 1,
            head: vec![NO_NODE; buckets],
            tail: vec![NO_NODE; buckets],
            bits: vec![0; buckets / 64],
            summary: vec![0; buckets.div_ceil(64 * 64)],
            node_next: vec![NO_NODE; nodes],
            node_seq: vec![0; nodes],
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            window: (buckets - 1) as i128,
        }
    }

    /// Empties the queue and re-arms the window for a run whose clock
    /// may jump backward by up to `slack` ticks (a negative release
    /// offset); 0 for monotone runs.
    fn clear(&mut self, slack: i128) {
        self.head.fill(NO_NODE);
        self.tail.fill(NO_NODE);
        self.bits.fill(0);
        self.summary.fill(0);
        self.overflow.clear();
        self.wheel_len = 0;
        self.window = self.mask as i128 - slack;
    }

    /// Queues one event; returns `true` when it landed on the O(1)
    /// wheel, `false` when it fell back to the overflow heap (telemetry
    /// counts the split to surface mis-sized wheels).
    #[inline]
    fn push(&mut self, now: i128, time: i128, seq: u64, node: u32) -> bool {
        let delta = time - now;
        if delta < 0 || delta > self.window {
            // Beyond the window, or behind `now` — only the initial
            // release at a negative offset, pushed at reset before the
            // clock first moves.
            self.overflow.push(Event { time, seq, node });
            return false;
        }
        self.wheel_len += 1;
        let b = (time as usize) & self.mask;
        self.node_seq[node as usize] = seq;
        self.node_next[node as usize] = NO_NODE;
        let t = self.tail[b];
        if t == NO_NODE {
            self.head[b] = node;
            self.bits[b >> 6] |= 1 << (b & 63);
            self.summary[b >> 12] |= 1 << ((b >> 6) & 63);
        } else {
            self.node_next[t as usize] = node;
        }
        self.tail[b] = node;
        true
    }

    /// Whether an event is due exactly at `now` — O(1): the bucket of
    /// `now` can only hold events at `now` (see the window invariant).
    #[inline]
    fn has_due(&self, now: i128) -> bool {
        self.head[(now as usize) & self.mask] != NO_NODE
            || matches!(self.overflow.peek(), Some(e) if e.time == now)
    }

    /// Pops the earliest event if it is due exactly at `now`; returns its
    /// node.  O(1).
    #[inline]
    fn pop_due(&mut self, now: i128) -> Option<u32> {
        let b = (now as usize) & self.mask;
        let wheel_node = self.head[b];
        let overflow_due = matches!(self.overflow.peek(), Some(e) if e.time == now);
        // Both "peeked" expects below are guarded by `overflow_due`.
        #[allow(clippy::expect_used)]
        let take_wheel = if wheel_node != NO_NODE {
            // Tie at the same tick: FIFO across both structures.
            !overflow_due
                || self.node_seq[wheel_node as usize] < self.overflow.peek().expect("peeked").seq
        } else if overflow_due {
            false
        } else {
            return None;
        };
        if take_wheel {
            self.wheel_len -= 1;
            let next = self.node_next[wheel_node as usize];
            self.head[b] = next;
            if next == NO_NODE {
                self.tail[b] = NO_NODE;
                self.bits[b >> 6] &= !(1 << (b & 63));
                if self.bits[b >> 6] == 0 {
                    self.summary[b >> 12] &= !(1 << ((b >> 6) & 63));
                }
            }
            Some(wheel_node)
        } else {
            #[allow(clippy::expect_used)]
            Some(self.overflow.pop().expect("peeked").node)
        }
    }

    /// Earliest pending wheel time at or after `now`, via the two-level
    /// bucket bitmap (wrapping at most once around the wheel).
    fn next_wheel_time(&self, now: i128) -> Option<i128> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (now as usize) & self.mask;
        let mut w = start >> 6;
        let mut word = self.bits[w] & (!0u64 << (start & 63));
        loop {
            if word != 0 {
                let b = (w << 6) | word.trailing_zeros() as usize;
                let d = b.wrapping_sub(start) & self.mask;
                return Some(now + d as i128);
            }
            w += 1;
            if w == self.bits.len() {
                w = 0;
            }
            let sw = w >> 6;
            let sbits = self.summary[sw] & (!0u64 << (w & 63));
            if sbits != 0 {
                w = (sw << 6) | sbits.trailing_zeros() as usize;
            } else {
                let mut s = sw + 1;
                loop {
                    if s == self.summary.len() {
                        s = 0;
                    }
                    if self.summary[s] != 0 {
                        w = (s << 6) | self.summary[s].trailing_zeros() as usize;
                        break;
                    }
                    s += 1;
                }
            }
            word = self.bits[w];
        }
    }

    /// Earliest pending event time, or `None` when the queue is empty.
    /// Runs once per settled instant, not per event.
    fn next_time(&self, now: i128) -> Option<i128> {
        let wheel = self.next_wheel_time(now);
        let far = self.overflow.peek().map(|e| e.time);
        match (wheel, far) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        }
    }
}

/// A trace entry in ticks; converted to a [`FiringRecord`] only at the
/// report boundary.
#[derive(Clone, Copy)]
struct TickRecord {
    task: TaskId,
    firing: u64,
    start: i128,
    finish: i128,
    consumed: u64,
    produced: u64,
}

/// The construct-once half of a simulation: DAG validation, the integer
/// tick rescale, the topological task order, and the task ↔ buffer
/// adjacency flattened into index arrays (see the module docs).
///
/// A plan is immutable and `Sync`: scenario batteries and capacity
/// searches build it once per graph and run it many times, each run
/// resetting a reusable [`SimState`] in place instead of paying the full
/// construction again.  Capacities default to the graph's `ζ(b)`
/// assignments and can be overridden per run
/// ([`SimPlan::run_with_capacities`]), which is what makes
/// capacity-search probes clone-free.
///
/// # Examples
///
/// ```
/// use vrdf_core::{compute_buffer_capacities, QuantumSet, Rational, TaskGraph,
///     ThroughputConstraint};
/// use vrdf_sim::{QuantumPlan, QuantumPolicy, SimConfig, SimPlan};
///
/// let mut tg = TaskGraph::linear_chain(
///     [("wa", Rational::ONE), ("wb", Rational::ONE)],
///     [("b", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
/// )?;
/// let constraint = ThroughputConstraint::on_sink(Rational::from(3u64))?;
/// compute_buffer_capacities(&tg, constraint)?.apply(&mut tg);
///
/// let mut config = SimConfig::self_timed(constraint);
/// config.max_endpoint_firings = 100;
/// let plan = SimPlan::new(&tg, config)?;
/// let mut state = plan.state();
/// // Reset-and-run as many scenarios as needed on the same arenas.
/// for policy in [QuantumPolicy::Max, QuantumPolicy::Min] {
///     let report = plan.run(&mut state, &QuantumPlan::uniform(policy))?;
///     assert!(report.ok());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SimPlan<'a> {
    tg: &'a TaskGraph,
    config: SimConfig,
    /// Ticks per time unit: the LCM of every denominator in the run.
    tick_den: i128,
    period: i128,
    /// Release time of firing 0, in ticks (periodic mode only).
    offset: Option<i128>,
    max_time: Option<i128>,
    /// Position of the constrained endpoint in the topological order.
    endpoint: usize,
    /// Whether the endpoint frees consumed containers at its start.
    immediate_free: bool,
    // ---- per task, in the validated topological order (SoA) ----
    task_ids: Vec<TaskId>,
    /// Response time `κ(w)` in ticks; fits `u64`, widened for arithmetic.
    rho: Vec<i128>,
    /// CSR offsets into `in_buf`: task `pos`'s input edges are
    /// `in_buf[in_start[pos]..in_start[pos + 1]]`, in connection order.
    in_start: Vec<u32>,
    /// CSR offsets into `out_buf`, like `in_start`.
    out_start: Vec<u32>,
    /// Flat input-edge list: buffer-state index per edge.
    in_buf: Vec<u32>,
    /// Flat output-edge list: buffer-state index per edge.
    out_buf: Vec<u32>,
    // ---- per buffer, in the validated DAG order (SoA) ----
    buffer_ids: Vec<BufferId>,
    /// Topological position of each buffer's producing task.
    producer_pos: Vec<u32>,
    /// Topological position of each buffer's consuming task.
    consumer_pos: Vec<u32>,
    /// The graph's `ζ(b)` assignment, if set; per-run overrides win.
    default_capacity: Vec<Option<u64>>,
    /// `δ0(b)` — full containers present before the first firing (zero
    /// except on feedback edges).  Seeded into the fills at every reset.
    initial_tokens: Vec<u64>,
    /// `BufferId::index()` → buffer-state index.
    buf_pos: Vec<u32>,
    /// Largest steady-state event delta (max response time, period) — the
    /// sizing hint for the [`EventQueue`] timing wheel.
    wheel_hint: i128,
    /// [`SimConfig::faults`], compiled onto this plan's tick clock.
    /// Empty for fault-free plans; every hot-path hook is gated on the
    /// emptiness check, and the telemetry hooks on
    /// [`SimConfig::telemetry`].
    faults: CompiledFaults,
}

impl<'a> SimPlan<'a> {
    /// Builds the reusable plan for a task graph (chain or fork/join DAG)
    /// under one [`SimConfig`], compiling its [`SimConfig::faults`] onto
    /// the tick clock: transient stalls and drop-retries inflate the
    /// affected firings' response times, release jitter delays the
    /// endpoint's periodic releases.
    ///
    /// Buffers may still be missing capacities here — defaults are taken
    /// from the graph and checked (after per-run overrides) when a run
    /// starts, so capacity-search drivers can plan an unsized graph once
    /// and probe assignments without cloning it.
    ///
    /// # Errors
    ///
    /// * [`SimError::Analysis`] — the graph is not a valid DAG, the
    ///   constrained endpoint is ambiguous, or the fault plan names an
    ///   unknown task.
    /// * [`SimError::TickOverflow`] — the run's times (fault times
    ///   included) cannot be rescaled to a shared integer tick clock
    ///   within `u64` ticks.
    /// * [`SimError::InvalidFault`] — a negative fault duration.
    pub fn new(tg: &'a TaskGraph, config: SimConfig) -> Result<SimPlan<'a>, SimError> {
        let dag = tg.condensed().map_err(SimError::Analysis)?;

        // One shared tick denominator for every time in the run.
        let offset_rat = match config.behavior {
            EndpointBehavior::StrictlyPeriodic { offset } => Some(offset),
            EndpointBehavior::SelfTimed => None,
        };
        let mut tick_den: i128 = 1;
        {
            let mut fold = |r: Rational, what: &str| -> Result<(), SimError> {
                tick_den = r.lcm_den(tick_den).ok_or_else(|| SimError::TickOverflow {
                    quantity: what.to_owned(),
                })?;
                Ok(())
            };
            fold(config.constraint.period(), "period")?;
            if let Some(offset) = offset_rat {
                fold(offset, "offset")?;
            }
            if let Some(max_time) = config.max_time {
                fold(max_time, "max_time")?;
            }
            for &tid in dag.tasks() {
                fold(tg.task(tid).response_time(), tg.task(tid).name())?;
            }
            for value in config.faults.time_values() {
                fold(value, "fault")?;
            }
        }
        let to_ticks = |r: Rational, what: &str| -> Result<i128, SimError> {
            let overflow = || SimError::TickOverflow {
                quantity: what.to_owned(),
            };
            let ticks = r.to_ticks(tick_den).ok_or_else(overflow)?;
            // Every base quantity's magnitude must fit u64 ticks (negative
            // offsets are legal, matching the reference engine); loop
            // arithmetic then runs in i128 with astronomical headroom.
            if ticks.unsigned_abs() > u64::MAX as u128 {
                return Err(overflow());
            }
            Ok(ticks)
        };

        // Positions: task `pos` is `dag.tasks()[pos]`; buffer-state index
        // `bi` is `dag.buffers()[bi]`.
        let mut task_pos = vec![0u32; tg.task_count()];
        for (pos, &tid) in dag.tasks().iter().enumerate() {
            task_pos[tid.index()] = pos as u32;
        }
        let mut buf_pos = vec![0u32; tg.buffer_count()];
        for (bi, &bid) in dag.buffers().iter().enumerate() {
            buf_pos[bid.index()] = bi as u32;
        }

        let nb = dag.buffers().len();
        let mut buffer_ids = Vec::with_capacity(nb);
        let mut producer_pos = Vec::with_capacity(nb);
        let mut consumer_pos = Vec::with_capacity(nb);
        let mut default_capacity = Vec::with_capacity(nb);
        let mut initial_tokens = Vec::with_capacity(nb);
        for &bid in dag.buffers() {
            let buffer = tg.buffer(bid);
            buffer_ids.push(bid);
            producer_pos.push(task_pos[buffer.producer().index()]);
            consumer_pos.push(task_pos[buffer.consumer().index()]);
            default_capacity.push(buffer.capacity());
            initial_tokens.push(buffer.initial_tokens());
        }

        let nt = dag.tasks().len();
        let mut task_ids = Vec::with_capacity(nt);
        let mut rho = Vec::with_capacity(nt);
        let mut in_start = Vec::with_capacity(nt + 1);
        let mut out_start = Vec::with_capacity(nt + 1);
        let mut in_buf = Vec::new();
        let mut out_buf = Vec::new();
        for &tid in dag.tasks() {
            let task = tg.task(tid);
            task_ids.push(tid);
            rho.push(to_ticks(task.response_time(), task.name())?);
            in_start.push(in_buf.len() as u32);
            for b in tg.input_buffers(tid) {
                in_buf.push(buf_pos[b.index()]);
            }
            out_start.push(out_buf.len() as u32);
            for b in tg.output_buffers(tid) {
                out_buf.push(buf_pos[b.index()]);
            }
        }
        in_start.push(in_buf.len() as u32);
        out_start.push(out_buf.len() as u32);

        let endpoint_task = match config.constraint.location() {
            ConstraintLocation::Sink => dag.unique_sink(tg).map_err(SimError::Analysis)?,
            ConstraintLocation::Source => dag.unique_source(tg).map_err(SimError::Analysis)?,
        };
        let endpoint = task_pos[endpoint_task.index()] as usize;
        let period = to_ticks(config.constraint.period(), "period")?;
        let offset = offset_rat.map(|o| to_ticks(o, "offset")).transpose()?;
        let max_time = config
            .max_time
            .map(|t| to_ticks(t, "max_time"))
            .transpose()?;
        let immediate_free = config.release == ConstrainedRelease::Immediate;
        let wheel_hint = rho.iter().copied().max().unwrap_or(0).max(period);
        let faults = if config.faults.is_empty() {
            CompiledFaults::default()
        } else {
            config.faults.compile(tg, &task_pos, &rho, tick_den)?
        };

        Ok(SimPlan {
            tg,
            config,
            tick_den,
            period,
            offset,
            max_time,
            endpoint,
            immediate_free,
            task_ids,
            rho,
            in_start,
            out_start,
            in_buf,
            out_buf,
            buffer_ids,
            producer_pos,
            consumer_pos,
            default_capacity,
            initial_tokens,
            buf_pos,
            wheel_hint,
            faults,
        })
    }

    /// Ticks release `r` is issued late under the plan's faults; zero on
    /// the fault-free fast path.
    #[inline]
    fn release_delay(&self, r: u64) -> i128 {
        if self.faults.is_empty() {
            0
        } else {
            self.faults.release_delay(r)
        }
    }

    /// The graph the plan was built over.
    pub fn graph(&self) -> &'a TaskGraph {
        self.tg
    }

    /// The configuration every run of this plan uses.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Fresh arenas sized for this plan, reusable across any number of
    /// [`SimPlan::run`] calls.
    pub fn state(&self) -> SimState {
        SimState::for_plan(self)
    }

    /// Checks that every buffer has a default capacity large enough to
    /// hold its initial tokens, i.e. that [`SimPlan::run`] without
    /// overrides can start.
    ///
    /// # Errors
    ///
    /// [`SimError::CapacityUnset`] naming the first bare buffer, or
    /// [`SimError::InitialTokensExceedCapacity`] naming the first
    /// feedback buffer whose pre-filled containers would not fit.
    pub fn require_capacities(&self) -> Result<(), SimError> {
        for (bi, capacity) in self.default_capacity.iter().enumerate() {
            let Some(capacity) = capacity else {
                return Err(SimError::CapacityUnset {
                    buffer: self.tg.buffer(self.buffer_ids[bi]).name().to_owned(),
                });
            };
            if self.initial_tokens[bi] > *capacity {
                return Err(SimError::InitialTokensExceedCapacity {
                    buffer: self.tg.buffer(self.buffer_ids[bi]).name().to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Resets `state` and runs one simulation under the given quantum
    /// plan, with every buffer at its graph-assigned capacity.
    ///
    /// # Errors
    ///
    /// * [`SimError::CapacityUnset`] — a buffer has no capacity.
    /// * [`SimError::QuantumNotInSet`] / [`SimError::EmptyCycle`] — the
    ///   plan draws values outside a buffer's quantum set.
    pub fn run(&self, state: &mut SimState, quanta: &QuantumPlan) -> Result<SimReport, SimError> {
        self.run_with_capacities(state, quanta, &[])
    }

    /// Like [`SimPlan::run`], with per-buffer capacity overrides applied
    /// on top of the graph's assignments (later entries win) — the probe
    /// path for capacity searches and falsification experiments, paying
    /// neither a graph clone nor an engine rebuild.
    ///
    /// # Errors
    ///
    /// As [`SimPlan::run`]; a buffer is only `CapacityUnset` when neither
    /// the graph nor an override provides its capacity.
    pub fn run_with_capacities(
        &self,
        state: &mut SimState,
        quanta: &QuantumPlan,
        capacities: &[(BufferId, u64)],
    ) -> Result<SimReport, SimError> {
        quanta.validate(self.tg)?;
        // Span timing is gated like every other hook: a disabled plan
        // never reads the clock.
        let reset_begin = self.config.telemetry.then(Instant::now);
        state.reset(self, quanta, capacities)?;
        let run_begin = self.config.telemetry.then(Instant::now);
        let mut exec = Exec {
            plan: self,
            st: state,
        };
        let outcome = exec.run_loop();
        let mut report = exec.report(outcome);
        if let (Some(reset_begin), Some(run_begin)) = (reset_begin, run_begin) {
            report.spans = Some(PhaseTimes {
                reset: run_begin - reset_begin,
                run: run_begin.elapsed(),
                ..PhaseTimes::default()
            });
        }
        Ok(report)
    }
}

/// The reusable mutable half of a simulation: struct-of-arrays arenas for
/// task, buffer, and edge state, plus the event heap, trace, violation,
/// and deadlock-scan storage — all retained across runs and reset in
/// place by [`SimPlan::run`].
///
/// Obtain one from [`SimPlan::state`]; a state is only meaningful with
/// the plan that sized it.
pub struct SimState {
    // ---- per task ----
    busy: Vec<bool>,
    started: Vec<u64>,
    finished: Vec<u64>,
    busy_ticks: Vec<i128>,
    /// Bitmap over topological positions of tasks whose enable condition
    /// may have changed; scanned in ascending order by `try_starts`.
    dirty: Vec<u64>,
    // ---- per edge (parallel to the plan's `in_buf` / `out_buf`) ----
    /// Per-edge quanta of each task's next/in-flight firing.  The enable
    /// check draws each edge's quantum exactly once into these slots; a
    /// start and its finish read them back, so the hot loop pays one
    /// compiled draw per edge per check.  Sound because at most one
    /// firing per task is in flight and a busy task is rejected before
    /// any slot is touched.
    claimed_in: Vec<u64>,
    claimed_out: Vec<u64>,
    // ---- per buffer ----
    tokens: Vec<u64>,
    space: Vec<u64>,
    capacity: Vec<u64>,
    /// Whether `capacity` was actually provided (graph or override).
    capacity_set: Vec<bool>,
    max_occupancy: Vec<u64>,
    produced: Vec<u64>,
    consumed: Vec<u64>,
    /// The producer side's quantum sequence, compiled for this run.
    production: Vec<CompiledQuantum>,
    /// The consumer side's quantum sequence, compiled for this run.
    consumption: Vec<CompiledQuantum>,
    /// Whether every compiled sequence is a firing-independent constant
    /// (min/max/constant policies — the common probe workload).  Then the
    /// per-edge claims are preloaded at reset and the hot enable check
    /// skips the policy dispatch entirely.
    fixed_quanta: bool,
    // ---- run bookkeeping ----
    queue: EventQueue,
    seq: u64,
    releases_issued: u64,
    violations: Vec<Violation>,
    trace: Vec<TickRecord>,
    /// Deadlock-scan scratch, reused across runs.
    blocked: Vec<(TaskId, BlockReason)>,
    events_processed: u64,
    /// Set when an event was due but the budget was already spent.
    budget_exhausted: bool,
    now: i128,
    first_start: Option<i128>,
    last_start: Option<i128>,
    max_drift: Option<i128>,
    max_lateness: Option<i128>,
    /// Fault perturbations that actually struck this run.
    faults_injected: u64,
    /// First instant a fault perturbed the run, in ticks.
    first_fault: Option<i128>,
    /// Last instant a fault perturbed the run, in ticks.
    last_fault: Option<i128>,
    /// Telemetry counters; only touched when the config enables telemetry.
    counters: EngineCounters,
    /// Occupancy samples `(buffer-state index, tick, occupancy)`; only
    /// filled for telemetry-enabled runs traced at [`TraceLevel::All`],
    /// converted to [`OccupancySample`]s at the report boundary.
    occupancy: Vec<(u32, i128, u64)>,
}

impl SimState {
    fn for_plan(plan: &SimPlan<'_>) -> SimState {
        let nt = plan.task_ids.len();
        let nb = plan.buffer_ids.len();
        SimState {
            busy: vec![false; nt],
            started: vec![0; nt],
            finished: vec![0; nt],
            busy_ticks: vec![0; nt],
            dirty: vec![0; nt.div_ceil(64)],
            claimed_in: vec![0; plan.in_buf.len()],
            claimed_out: vec![0; plan.out_buf.len()],
            tokens: vec![0; nb],
            space: vec![0; nb],
            capacity: vec![0; nb],
            capacity_set: vec![false; nb],
            max_occupancy: vec![0; nb],
            produced: vec![0; nb],
            consumed: vec![0; nb],
            production: Vec::with_capacity(nb),
            consumption: Vec::with_capacity(nb),
            fixed_quanta: false,
            queue: EventQueue::new(nt + 1, plan.wheel_hint),
            seq: 0,
            releases_issued: 0,
            violations: Vec::new(),
            trace: Vec::new(),
            blocked: Vec::new(),
            events_processed: 0,
            budget_exhausted: false,
            now: 0,
            first_start: None,
            last_start: None,
            max_drift: None,
            max_lateness: None,
            faults_injected: 0,
            first_fault: None,
            last_fault: None,
            counters: EngineCounters::default(),
            occupancy: Vec::new(),
        }
    }

    /// Rewinds the arenas to the initial instant for one run of `plan`:
    /// capacities resolved (graph defaults, then overrides), quantum
    /// policies compiled, every counter zeroed, every task dirty, the
    /// initial periodic release queued.  All storage is retained.
    fn reset(
        &mut self,
        plan: &SimPlan<'_>,
        quanta: &QuantumPlan,
        capacities: &[(BufferId, u64)],
    ) -> Result<(), SimError> {
        let nt = plan.task_ids.len();
        let nb = plan.buffer_ids.len();

        for (bi, capacity) in plan.default_capacity.iter().enumerate() {
            match capacity {
                Some(c) => {
                    self.capacity[bi] = *c;
                    self.capacity_set[bi] = true;
                }
                None => self.capacity_set[bi] = false,
            }
        }
        for &(bid, c) in capacities {
            let bi = plan.buf_pos[bid.index()] as usize;
            self.capacity[bi] = c;
            self.capacity_set[bi] = true;
        }
        if let Some(bi) = self.capacity_set.iter().position(|set| !set) {
            return Err(SimError::CapacityUnset {
                buffer: plan.tg.buffer(plan.buffer_ids[bi]).name().to_owned(),
            });
        }

        self.production.clear();
        self.consumption.clear();
        for &bid in &plan.buffer_ids {
            let buffer = plan.tg.buffer(bid);
            self.production.push(quanta.compile(
                buffer.production(),
                bid.index(),
                Side::Production,
            ));
            self.consumption.push(quanta.compile(
                buffer.consumption(),
                bid.index(),
                Side::Consumption,
            ));
        }
        self.fixed_quanta = self
            .production
            .iter()
            .chain(self.consumption.iter())
            .all(|q| matches!(q, CompiledQuantum::Fixed(_)));
        if self.fixed_quanta {
            // Firing-independent claims never change: load them once and
            // let the enable check read them back without a draw.
            for (e, &bi) in plan.in_buf.iter().enumerate() {
                self.claimed_in[e] = self.consumption[bi as usize].draw(0);
            }
            for (e, &bi) in plan.out_buf.iter().enumerate() {
                self.claimed_out[e] = self.production[bi as usize].draw(0);
            }
        }

        // Buffers start holding their initial tokens (zero except on
        // feedback edges), which occupy capacity from the first instant.
        for bi in 0..nb {
            let delta0 = plan.initial_tokens[bi];
            if delta0 > self.capacity[bi] {
                return Err(SimError::InitialTokensExceedCapacity {
                    buffer: plan.tg.buffer(plan.buffer_ids[bi]).name().to_owned(),
                });
            }
            self.tokens[bi] = delta0;
            self.space[bi] = self.capacity[bi] - delta0;
            self.max_occupancy[bi] = delta0;
        }
        self.produced[..nb].fill(0);
        self.consumed[..nb].fill(0);

        self.busy[..nt].fill(false);
        self.started[..nt].fill(0);
        self.finished[..nt].fill(0);
        self.busy_ticks[..nt].fill(0);
        // Every task starts dirty; bits past `nt` must stay clear so the
        // sweep never decodes a phantom position.
        self.dirty.fill(!0u64);
        let tail = nt & 63;
        if tail != 0 {
            // `tail != 0` implies at least one word exists.
            #[allow(clippy::expect_used)]
            {
                *self.dirty.last_mut().expect("nt > 0") = (1u64 << tail) - 1;
            }
        }

        // The clock starts at 0 and thereafter only moves to pending
        // event times; the single possible backward jump is to a
        // negative release offset, which the wheel window must absorb.
        let slack = match plan.offset {
            Some(o) if o < 0 => -o,
            _ => 0,
        };
        self.queue.clear(slack);
        self.seq = 0;
        self.releases_issued = 0;
        self.violations.clear();
        self.trace.clear();
        self.blocked.clear();
        self.events_processed = 0;
        self.budget_exhausted = false;
        self.now = 0;
        self.first_start = None;
        self.last_start = None;
        self.max_drift = None;
        self.max_lateness = None;
        self.faults_injected = 0;
        self.first_fault = None;
        self.last_fault = None;
        self.counters = EngineCounters::default();
        self.occupancy.clear();

        if let Some(offset) = plan.offset {
            if plan.config.max_endpoint_firings > 0 {
                self.seq += 1;
                // Release jitter shifts the initial release too; zero on
                // the fault-free fast path.
                let release = offset + plan.release_delay(0);
                let on_wheel = self.queue.push(self.now, release, self.seq, nt as u32);
                if plan.config.telemetry {
                    if on_wheel {
                        self.counters.wheel_pushes += 1;
                    } else {
                        self.counters.overflow_pushes += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One in-flight run: a plan and the state it is mutating.
struct Exec<'r, 'a> {
    plan: &'r SimPlan<'a>,
    st: &'r mut SimState,
}

impl Exec<'_, '_> {
    /// One tick as a time value: `1 / tick_den`.
    #[inline]
    fn rational(&self, ticks: i128) -> Rational {
        Rational::from_ticks(ticks, self.plan.tick_den)
    }

    /// Queues the event node (a task position for a finish, the
    /// one-past-the-tasks slot for the release) at an absolute tick.
    #[inline]
    fn push(&mut self, time: i128, node: u32) {
        self.st.seq += 1;
        let on_wheel = self.st.queue.push(self.st.now, time, self.st.seq, node);
        if self.plan.config.telemetry {
            if on_wheel {
                self.st.counters.wheel_pushes += 1;
            } else {
                self.st.counters.overflow_pushes += 1;
            }
        }
    }

    /// Flags a task for re-examination, once.
    #[inline]
    fn mark_dirty(&mut self, pos: usize) {
        self.st.dirty[pos >> 6] |= 1 << (pos & 63);
    }

    /// Whether the task at `pos` can start its next firing right now:
    /// `Err` with the first blocking condition (inputs in connection
    /// order, then outputs), `Ok` when every adjacent buffer can serve
    /// the firing's per-edge quanta.  `honor_release` controls whether a
    /// periodic endpoint is held back between releases.
    ///
    /// Each edge's quantum is drawn exactly once here, into the flat
    /// `claimed_in` / `claimed_out` scratch, where a subsequent
    /// [`start_firing`](Self::start_firing) and its finish read it back
    /// — the hot loop's only compiled-policy draws.
    fn startable(&mut self, pos: usize, honor_release: bool) -> Result<(), BlockReason> {
        let st = &mut *self.st;
        let plan = self.plan;
        if st.busy[pos] {
            return Err(BlockReason::Busy);
        }
        if pos == plan.endpoint {
            let started = st.started[pos];
            if started >= plan.config.max_endpoint_firings {
                return Err(BlockReason::NotReleased);
            }
            if honor_release && plan.offset.is_some() && started >= st.releases_issued {
                return Err(BlockReason::NotReleased);
            }
        }
        let k = st.started[pos];
        let fixed = st.fixed_quanta;
        for e in plan.in_start[pos] as usize..plan.in_start[pos + 1] as usize {
            let bi = plan.in_buf[e] as usize;
            let need = if fixed {
                st.claimed_in[e]
            } else {
                if plan.config.telemetry {
                    st.counters.policy_dispatches += 1;
                }
                let need = st.consumption[bi].draw(k);
                st.claimed_in[e] = need;
                need
            };
            if st.tokens[bi] < need {
                return Err(BlockReason::NeedTokens {
                    buffer: plan.buffer_ids[bi],
                    have: st.tokens[bi],
                    need,
                });
            }
        }
        for e in plan.out_start[pos] as usize..plan.out_start[pos + 1] as usize {
            let bi = plan.out_buf[e] as usize;
            let need = if fixed {
                st.claimed_out[e]
            } else {
                if plan.config.telemetry {
                    st.counters.policy_dispatches += 1;
                }
                let need = st.production[bi].draw(k);
                st.claimed_out[e] = need;
                need
            };
            if st.space[bi] < need {
                return Err(BlockReason::NeedSpace {
                    buffer: plan.buffer_ids[bi],
                    have: st.space[bi],
                    need,
                });
            }
        }
        Ok(())
    }

    /// Starts the firing whose per-edge quanta the immediately preceding
    /// successful [`startable`](Self::startable) left in the scratch.
    fn start_firing(&mut self, pos: usize) {
        let plan = self.plan;
        let k = self.st.started[pos];
        let immediate_free = pos == plan.endpoint && plan.immediate_free;
        // Occupancy history is a trace-grade artifact: sampled only when
        // telemetry is on *and* the run keeps the full firing trace.
        let sample = plan.config.telemetry && plan.config.trace == TraceLevel::All;
        let mut consumed = 0u64;
        let mut produced = 0u64;
        for e in plan.in_start[pos] as usize..plan.in_start[pos + 1] as usize {
            let bi = plan.in_buf[e] as usize;
            let c = self.st.claimed_in[e];
            self.st.tokens[bi] -= c;
            self.st.consumed[bi] += c;
            consumed += c;
            if immediate_free {
                self.st.space[bi] += c;
                // Space freed upstream can enable the producer.
                self.mark_dirty(plan.producer_pos[bi] as usize);
                if sample {
                    let occupancy = self.st.capacity[bi] - self.st.space[bi];
                    self.st.occupancy.push((bi as u32, self.st.now, occupancy));
                }
            }
        }
        for e in plan.out_start[pos] as usize..plan.out_start[pos + 1] as usize {
            let bi = plan.out_buf[e] as usize;
            let p = self.st.claimed_out[e];
            self.st.space[bi] -= p;
            let occupancy = self.st.capacity[bi] - self.st.space[bi];
            if occupancy > self.st.max_occupancy[bi] {
                self.st.max_occupancy[bi] = occupancy;
            }
            if sample {
                self.st.occupancy.push((bi as u32, self.st.now, occupancy));
            }
            produced += p;
        }
        if plan.config.telemetry {
            self.st.counters.firings_started += 1;
        }
        let start = self.st.now;
        let rho = plan.rho[pos];
        // Stall / drop-retry faults inflate this firing's response time;
        // zero (and branch-predictable) on the fault-free fast path.
        let extra = if plan.faults.is_empty() {
            0
        } else {
            plan.faults.task_extra(pos as u32, k)
        };
        let finish = start + rho + extra;
        if extra != 0 {
            self.st.faults_injected += 1;
            self.st.first_fault = Some(self.st.first_fault.map_or(start, |t| t.min(start)));
            self.st.last_fault = Some(self.st.last_fault.map_or(finish, |t| t.max(finish)));
        }
        self.st.busy[pos] = true;
        self.st.started[pos] = k + 1;
        self.st.busy_ticks[pos] += rho + extra;
        self.push(finish, pos as u32);

        if pos == plan.endpoint {
            self.st.first_start.get_or_insert(start);
            self.st.last_start = Some(start);
            match plan.offset {
                None => {
                    let drift = start - k as i128 * plan.period;
                    self.st.max_drift = Some(self.st.max_drift.map_or(drift, |d| d.max(drift)));
                }
                Some(offset) => {
                    // A jittered release shifts the firing's deadline
                    // with it.
                    let lateness =
                        start - (offset + k as i128 * plan.period + plan.release_delay(k));
                    self.st.max_lateness =
                        Some(self.st.max_lateness.map_or(lateness, |d| d.max(lateness)));
                }
            }
        }
        let record = match plan.config.trace {
            TraceLevel::All => true,
            TraceLevel::Endpoint => pos == plan.endpoint,
            TraceLevel::None => false,
        };
        if record {
            self.st.trace.push(TickRecord {
                task: plan.task_ids[pos],
                firing: k,
                start,
                finish,
                consumed,
                produced,
            });
        }
    }

    fn apply_finish(&mut self, pos: usize) {
        debug_assert!(self.st.busy[pos], "finish event for an idle task");
        let plan = self.plan;
        // The firing completing now is the one started last (at most one
        // is ever in flight), so its quanta still sit in the scratch —
        // a busy task never reaches the scratch writes in `startable`.
        let immediate_free = pos == plan.endpoint && plan.immediate_free;
        let sample = plan.config.telemetry && plan.config.trace == TraceLevel::All;
        if !immediate_free {
            for e in plan.in_start[pos] as usize..plan.in_start[pos + 1] as usize {
                let bi = plan.in_buf[e] as usize;
                self.st.space[bi] += self.st.claimed_in[e];
                // Space freed upstream can enable the producer.
                self.mark_dirty(plan.producer_pos[bi] as usize);
                if sample {
                    let occupancy = self.st.capacity[bi] - self.st.space[bi];
                    self.st.occupancy.push((bi as u32, self.st.now, occupancy));
                }
            }
        }
        for e in plan.out_start[pos] as usize..plan.out_start[pos + 1] as usize {
            let bi = plan.out_buf[e] as usize;
            let p = self.st.claimed_out[e];
            self.st.tokens[bi] += p;
            self.st.produced[bi] += p;
            // Tokens produced downstream can enable the consumer.
            self.mark_dirty(plan.consumer_pos[bi] as usize);
        }
        self.st.busy[pos] = false;
        self.st.finished[pos] += 1;
        if plan.config.telemetry {
            self.st.counters.firings_finished += 1;
        }
        // The task itself is enabled again now that it is idle.
        self.mark_dirty(pos);
    }

    /// Starts every startable task, to a fixpoint.  Only dirty tasks are
    /// examined — every transition that can enable a task (finish,
    /// release, immediate space free) marks one — so settling an instant
    /// costs the affected tasks, not the whole graph.
    ///
    /// The dirty set is a bitmap over topological positions; each sweep
    /// scans its set bits in ascending position order (matching the
    /// reference engine, so traces stay identical), taking each word
    /// before processing it so tasks dirtied mid-sweep land in the next
    /// sweep.  A start can only dirty strictly-upstream producers —
    /// positions at or behind the scan cursor — so this is exactly the
    /// reference's ascending-position re-scan, without a sort.
    fn try_starts(&mut self) {
        let telemetry = self.plan.config.telemetry;
        loop {
            let mut any_dirty = false;
            for w in 0..self.st.dirty.len() {
                let mut bits = self.st.dirty[w];
                if bits == 0 {
                    continue;
                }
                any_dirty = true;
                if telemetry {
                    self.st.counters.dirty_sweeps += 1;
                }
                self.st.dirty[w] = 0;
                while bits != 0 {
                    let pos = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.startable(pos, true).is_ok() {
                        self.start_firing(pos);
                    }
                }
            }
            if !any_dirty {
                return;
            }
            if telemetry {
                self.st.counters.settling_passes += 1;
            }
        }
    }

    /// Pops and applies every event scheduled exactly at `self.st.now` in
    /// one batch; returns whether anything was processed.  Stops early —
    /// flagging `budget_exhausted` — when another event is due but the
    /// budget is already spent, so no run ever processes more than
    /// [`SimConfig::max_events`] events.
    fn drain_events_at_now(&mut self) {
        let release_node = self.plan.task_ids.len() as u32;
        loop {
            if self.st.events_processed >= self.plan.config.max_events {
                // Only exhausted if an event actually remained due.
                self.st.budget_exhausted = self.st.queue.has_due(self.st.now);
                return;
            }
            let Some(node) = self.st.queue.pop_due(self.st.now) else {
                return;
            };
            self.st.events_processed += 1;
            if self.plan.config.telemetry {
                self.st.counters.events_popped += 1;
            }
            if node == release_node {
                let issued = self.st.releases_issued;
                self.st.releases_issued += 1;
                self.mark_dirty(self.plan.endpoint);
                if !self.plan.faults.is_empty() && self.plan.faults.release_delay(issued) != 0 {
                    // This release was issued late: the deviation starts
                    // at its nominal anchor and lasts until issuance.
                    self.st.faults_injected += 1;
                    let nominal = self.plan.offset.unwrap_or(0) + issued as i128 * self.plan.period;
                    self.st.first_fault =
                        Some(self.st.first_fault.map_or(nominal, |t| t.min(nominal)));
                    self.st.last_fault = Some(
                        self.st
                            .last_fault
                            .map_or(self.st.now, |t| t.max(self.st.now)),
                    );
                }
                if self.st.releases_issued < self.plan.config.max_endpoint_firings {
                    if self.plan.faults.is_empty() {
                        self.push(self.st.now + self.plan.period, release_node);
                    } else {
                        // Each release keeps its nominal anchor `offset +
                        // r·τ` plus its own jitter, so one delayed
                        // release does not drag the whole tail — but a
                        // delay long enough to overlap the next nominal
                        // release must not schedule it in the past.
                        let next = self.st.releases_issued;
                        let offset = self.plan.offset.unwrap_or(0);
                        let at = (offset
                            + next as i128 * self.plan.period
                            + self.plan.faults.release_delay(next))
                        .max(self.st.now);
                        self.push(at, release_node);
                    }
                }
            } else {
                self.apply_finish(node as usize);
            }
        }
    }

    /// After the instant `self.st.now` has fully settled, records a
    /// deadline miss for every release that passed without the endpoint
    /// starting.
    fn check_misses(&mut self) {
        if let Some(offset) = self.plan.offset {
            let endpoint = self.plan.endpoint;
            let started = self.st.started[endpoint];
            for firing in started..self.st.releases_issued {
                let release =
                    offset + firing as i128 * self.plan.period + self.plan.release_delay(firing);
                if release < self.st.now {
                    // Already reported when its instant settled.
                    continue;
                }
                let reason = self
                    .startable(endpoint, false)
                    .err()
                    .unwrap_or(BlockReason::NotReleased);
                let release = self.rational(release);
                self.st.violations.push(Violation {
                    firing,
                    release,
                    reason,
                });
            }
        }
    }

    fn run_loop(&mut self) -> SimOutcome {
        loop {
            // Settle the current instant: alternate event draining and
            // task starts until neither makes progress.  `try_starts`
            // runs to a fixpoint, so once no event remains due at `now`
            // the instant is settled — zero-response-time cascades are
            // the one path that re-arms `now` from within the instant.
            loop {
                self.drain_events_at_now();
                if self.st.budget_exhausted {
                    return SimOutcome::EventBudgetExhausted;
                }
                self.try_starts();
                if !self.st.queue.has_due(self.st.now) {
                    break;
                }
            }
            self.check_misses();
            if self.plan.config.stop_on_violation && !self.st.violations.is_empty() {
                return SimOutcome::StoppedOnViolation;
            }
            if self.st.finished[self.plan.endpoint] >= self.plan.config.max_endpoint_firings {
                return SimOutcome::Completed;
            }
            // Advance to the next event.
            match self.st.queue.next_time(self.st.now) {
                Some(time) => {
                    if let Some(max_time) = self.plan.max_time {
                        if time > max_time {
                            return SimOutcome::HorizonReached;
                        }
                    }
                    self.st.now = time;
                }
                None => {
                    for pos in 0..self.plan.task_ids.len() {
                        if let Err(reason) = self.startable(pos, true) {
                            let id = self.plan.task_ids[pos];
                            self.st.blocked.push((id, reason));
                        }
                    }
                    return SimOutcome::Deadlock {
                        time: self.rational(self.st.now),
                        blocked: mem::take(&mut self.st.blocked),
                    };
                }
            }
        }
    }

    /// Converts the settled state into a [`SimReport`]; all tick
    /// quantities convert back to [`Rational`] here, at the boundary.
    /// The state stays reusable for the next run.
    fn report(&mut self, outcome: SimOutcome) -> SimReport {
        let plan = self.plan;
        let endpoint = EndpointStats {
            task: plan.task_ids[plan.endpoint],
            firings: self.st.finished[plan.endpoint],
            first_start: self.st.first_start.map(|t| self.rational(t)),
            last_start: self.st.last_start.map(|t| self.rational(t)),
            max_drift: self.st.max_drift.map(|t| self.rational(t)),
            max_lateness: self.st.max_lateness.map(|t| self.rational(t)),
        };
        let buffers = (0..plan.buffer_ids.len())
            .map(|bi| BufferStats {
                buffer: plan.buffer_ids[bi],
                name: plan.tg.buffer(plan.buffer_ids[bi]).name().to_owned(),
                capacity: self.st.capacity[bi],
                max_occupancy: self.st.max_occupancy[bi],
                produced: self.st.produced[bi],
                consumed: self.st.consumed[bi],
            })
            .collect();
        let tasks = (0..plan.task_ids.len())
            .map(|pos| TaskStats {
                task: plan.task_ids[pos],
                name: plan.tg.task(plan.task_ids[pos]).name().to_owned(),
                firings: self.st.finished[pos],
                busy_time: self.rational(self.st.busy_ticks[pos]),
            })
            .collect();
        let trace = self
            .st
            .trace
            .iter()
            .map(|r| FiringRecord {
                task: r.task,
                firing: r.firing,
                start: Rational::from_ticks(r.start, plan.tick_den),
                finish: Rational::from_ticks(r.finish, plan.tick_den),
                consumed: r.consumed,
                produced: r.produced,
            })
            .collect();
        let end_time = self.rational(self.st.now);
        let occupancy = self
            .st
            .occupancy
            .iter()
            .map(|&(bi, tick, occupancy)| OccupancySample {
                buffer: plan.buffer_ids[bi as usize],
                time: Rational::from_ticks(tick, plan.tick_den),
                occupancy,
            })
            .collect();
        SimReport {
            outcome,
            violations: mem::take(&mut self.st.violations),
            endpoint,
            buffers,
            tasks,
            trace,
            events_processed: self.st.events_processed,
            end_time,
            faults_injected: self.st.faults_injected,
            first_fault_time: self.st.first_fault.map(|t| self.rational(t)),
            last_fault_time: self.st.last_fault.map(|t| self.rational(t)),
            counters: plan.config.telemetry.then_some(self.st.counters),
            occupancy,
            spans: None,
        }
    }
}

/// The discrete-event simulator: a [`SimPlan`] paired with its
/// [`SimState`] and one [`QuantumPlan`], for the common build-run-discard
/// shape.  See the module docs for the semantics, the integer tick clock,
/// and the arena layout it runs on; batteries that run one graph many
/// times should hold the plan and state directly ([`SimPlan::run`]).
///
/// # Examples
///
/// ```
/// use vrdf_core::{compute_buffer_capacities, QuantumSet, Rational, TaskGraph,
///     ThroughputConstraint};
/// use vrdf_sim::{QuantumPlan, QuantumPolicy, SimConfig, Simulator};
///
/// let mut tg = TaskGraph::linear_chain(
///     [("wa", Rational::ONE), ("wb", Rational::ONE)],
///     [("b", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
/// )?;
/// let constraint = ThroughputConstraint::on_sink(Rational::from(3u64))?;
/// compute_buffer_capacities(&tg, constraint)?.apply(&mut tg);
///
/// let mut config = SimConfig::self_timed(constraint);
/// config.max_endpoint_firings = 100;
/// let report = Simulator::new(&tg, QuantumPlan::uniform(QuantumPolicy::Max), config)?
///     .run();
/// assert!(report.ok());
/// assert_eq!(report.endpoint.firings, 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator<'a> {
    plan: SimPlan<'a>,
    state: SimState,
    quanta: QuantumPlan,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator over a task graph (chain or fork/join DAG)
    /// whose buffer capacities `ζ(b)` are all set (use
    /// [`vrdf_core::GraphAnalysis::apply`] or
    /// [`TaskGraph::set_capacity`]).
    ///
    /// # Errors
    ///
    /// * [`SimError::CapacityUnset`] — a buffer has no capacity.
    /// * [`SimError::QuantumNotInSet`] / [`SimError::EmptyCycle`] — the
    ///   plan draws values outside a buffer's quantum set.
    /// * Everything [`SimPlan::new`] rejects.
    pub fn new(
        tg: &'a TaskGraph,
        plan: QuantumPlan,
        config: SimConfig,
    ) -> Result<Simulator<'a>, SimError> {
        let sim_plan = SimPlan::new(tg, config)?;
        plan.validate(tg)?;
        sim_plan.require_capacities()?;
        let state = sim_plan.state();
        Ok(Simulator {
            plan: sim_plan,
            state,
            quanta: plan,
        })
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        // `new` validated the plan and capacities.
        #[allow(clippy::expect_used)]
        self.plan
            .run(&mut self.state, &self.quanta)
            .expect("quantum plan and capacities validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{compute_buffer_capacities, rat, QuantumSet};

    use crate::policy::QuantumPolicy;

    fn q(values: &[u64]) -> QuantumSet {
        QuantumSet::new(values.iter().copied()).unwrap()
    }

    fn fig1_graph(capacity: u64) -> (TaskGraph, ThroughputConstraint) {
        let mut tg = TaskGraph::linear_chain(
            [("wa", rat(1, 1)), ("wb", rat(1, 1))],
            [("b", q(&[3]), q(&[2, 3]))],
        )
        .unwrap();
        let buf = tg.buffer_by_name("b").unwrap();
        tg.set_capacity(buf, capacity);
        (tg, ThroughputConstraint::on_sink(rat(3, 1)).unwrap())
    }

    #[test]
    fn self_timed_pair_runs_to_quota() {
        let (tg, constraint) = fig1_graph(5);
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 50;
        config.trace = TraceLevel::All;
        let report = Simulator::new(&tg, QuantumPlan::uniform(QuantumPolicy::Max), config)
            .unwrap()
            .run();
        assert!(report.ok());
        assert_eq!(report.outcome, SimOutcome::Completed);
        assert_eq!(report.endpoint.firings, 50);
        // Token conservation: everything produced was consumed or is held.
        let b = &report.buffers[0];
        assert!(b.produced - b.consumed <= b.capacity);
        assert!(b.max_occupancy <= b.capacity);
        // Traces cover both tasks.
        assert!(report.trace.iter().any(|r| r.task.index() == 0));
        assert!(report.trace.iter().any(|r| r.task.index() == 1));
    }

    #[test]
    fn capacity_below_max_quantum_deadlocks() {
        // The consumer needs up to 3 full containers but the buffer can
        // only ever hold 2.
        let (tg, constraint) = fig1_graph(2);
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 10;
        let report = Simulator::new(&tg, QuantumPlan::uniform(QuantumPolicy::Max), config)
            .unwrap()
            .run();
        assert!(!report.ok());
        match &report.outcome {
            SimOutcome::Deadlock { blocked, .. } => {
                assert!(blocked
                    .iter()
                    .any(|(_, r)| matches!(r, BlockReason::NeedTokens { need: 3, .. })));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn periodic_endpoint_fires_exactly_on_releases() {
        let (mut tg, constraint) = fig1_graph(0);
        compute_buffer_capacities(&tg, constraint)
            .unwrap()
            .apply(&mut tg);
        let mut config = SimConfig::periodic(constraint, rat(10, 1));
        config.max_endpoint_firings = 25;
        config.trace = TraceLevel::Endpoint;
        let report = Simulator::new(&tg, QuantumPlan::uniform(QuantumPolicy::Max), config)
            .unwrap()
            .run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.endpoint.max_lateness, Some(Rational::ZERO));
        for (k, record) in report.trace.iter().enumerate() {
            assert_eq!(
                record.start,
                rat(10, 1) + rat(3, 1) * Rational::from(k as u64)
            );
        }
    }

    #[test]
    fn starved_periodic_endpoint_reports_misses() {
        // A sink released before any data can reach it.
        let (mut tg, constraint) = fig1_graph(0);
        compute_buffer_capacities(&tg, constraint)
            .unwrap()
            .apply(&mut tg);
        let mut config = SimConfig::periodic(constraint, Rational::ZERO);
        config.max_endpoint_firings = 5;
        config.stop_on_violation = true;
        let report = Simulator::new(&tg, QuantumPlan::uniform(QuantumPolicy::Max), config)
            .unwrap()
            .run();
        assert!(!report.ok());
        assert_eq!(report.outcome, SimOutcome::StoppedOnViolation);
        let miss = &report.violations[0];
        assert_eq!(miss.firing, 0);
        assert_eq!(miss.release, Rational::ZERO);
        assert!(matches!(miss.reason, BlockReason::NeedTokens { .. }));
    }

    #[test]
    fn unset_capacity_is_rejected() {
        let mut tg = TaskGraph::linear_chain(
            [("wa", rat(1, 1)), ("wb", rat(1, 1))],
            [("b", q(&[1]), q(&[1]))],
        )
        .unwrap();
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        let err = Simulator::new(
            &tg,
            QuantumPlan::uniform(QuantumPolicy::Max),
            SimConfig::self_timed(constraint),
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::CapacityUnset { .. }));
        // And a non-chain graph propagates the analysis error.
        let a = tg.task_by_name("wa").unwrap();
        let b = tg.task_by_name("wb").unwrap();
        tg.connect("back", b, a, q(&[1]), q(&[1])).unwrap();
        let err = Simulator::new(
            &tg,
            QuantumPlan::uniform(QuantumPolicy::Max),
            SimConfig::self_timed(constraint),
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::Analysis(_)));
    }

    #[test]
    fn plan_probes_unset_capacity_via_overrides() {
        // A capacity-less graph plans fine; a run without overrides is
        // rejected, a run with them proceeds — the clone-free probe path.
        let tg = TaskGraph::linear_chain(
            [("wa", rat(1, 1)), ("wb", rat(1, 1))],
            [("b", q(&[3]), q(&[2, 3]))],
        )
        .unwrap();
        let constraint = ThroughputConstraint::on_sink(rat(3, 1)).unwrap();
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 20;
        let plan = SimPlan::new(&tg, config).unwrap();
        assert!(matches!(
            plan.require_capacities(),
            Err(SimError::CapacityUnset { .. })
        ));
        let mut state = plan.state();
        let quanta = QuantumPlan::uniform(QuantumPolicy::Max);
        let err = plan.run(&mut state, &quanta).err().unwrap();
        assert!(matches!(err, SimError::CapacityUnset { .. }));
        let buf = tg.buffer_by_name("b").unwrap();
        let report = plan
            .run_with_capacities(&mut state, &quanta, &[(buf, 5)])
            .unwrap();
        assert!(report.ok());
        assert_eq!(report.buffers[0].capacity, 5);
        // Later overrides win, as with `GraphAnalysis::with_capacities`.
        let report = plan
            .run_with_capacities(&mut state, &quanta, &[(buf, 5), (buf, 2)])
            .unwrap();
        assert!(!report.ok());
        assert_eq!(report.buffers[0].capacity, 2);
    }

    #[test]
    fn event_budget_guards_zero_response_loops() {
        // Source with zero response time and plentiful space spins at t=0;
        // the budget stops it.
        let mut tg = TaskGraph::linear_chain(
            [("wa", Rational::ZERO), ("wb", rat(1, 1))],
            [("b", q(&[1]), q(&[1]))],
        )
        .unwrap();
        let buf = tg.buffer_by_name("b").unwrap();
        tg.set_capacity(buf, 1000);
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = u64::MAX;
        config.max_events = 5_000;
        let report = Simulator::new(&tg, QuantumPlan::uniform(QuantumPolicy::Max), config)
            .unwrap()
            .run();
        assert_eq!(report.outcome, SimOutcome::EventBudgetExhausted);
        // The budget is exact: not one event more than allowed.
        assert_eq!(report.events_processed, 5_000);
    }

    #[test]
    fn event_budget_is_enforced_exactly_at_the_boundary() {
        // Count the events of a completing run, then pin the budget to
        // that count (the run still completes) and to one below (the run
        // exhausts having processed exactly the budget, never more).
        let (tg, constraint) = fig1_graph(5);
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 50;
        let run = |config: &SimConfig| {
            Simulator::new(
                &tg,
                QuantumPlan::uniform(QuantumPolicy::Max),
                config.clone(),
            )
            .unwrap()
            .run()
        };
        let full = run(&config);
        assert_eq!(full.outcome, SimOutcome::Completed);
        let events = full.events_processed;
        assert!(events > 1);

        config.max_events = events;
        let exact = run(&config);
        assert_eq!(exact.outcome, SimOutcome::Completed);
        assert_eq!(exact.events_processed, events);

        config.max_events = events - 1;
        let starved = run(&config);
        assert_eq!(starved.outcome, SimOutcome::EventBudgetExhausted);
        assert_eq!(starved.events_processed, events - 1);
    }

    #[test]
    fn source_constrained_periodic_source() {
        let mut tg = TaskGraph::linear_chain(
            [("src", rat(1, 10)), ("snk", rat(1, 40))],
            [("b", q(&[4]), q(&[2]))],
        )
        .unwrap();
        let constraint = ThroughputConstraint::on_source(rat(2, 5)).unwrap();
        compute_buffer_capacities(&tg, constraint)
            .unwrap()
            .apply(&mut tg);
        let mut config = SimConfig::periodic(constraint, Rational::ZERO);
        config.max_endpoint_firings = 200;
        let report = Simulator::new(&tg, QuantumPlan::uniform(QuantumPolicy::Max), config)
            .unwrap()
            .run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.endpoint.firings, 200);
        assert_eq!(report.endpoint.task, tg.task_by_name("src").unwrap());
    }

    #[test]
    fn reused_state_is_indistinguishable_from_fresh_state() {
        // The same plan run twice on one state must equal a run on a
        // fresh state — the reset leaves no residue, across completing,
        // deadlocking, and violating runs.
        let (tg, constraint) = fig1_graph(5);
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 50;
        config.trace = TraceLevel::All;
        let plan = SimPlan::new(&tg, config).unwrap();
        let quanta = QuantumPlan::random(11);
        let mut reused = plan.state();

        let first = plan.run(&mut reused, &quanta).unwrap();
        // Interleave a deadlocking run (capacity 2 cannot hold a max
        // firing) and a missing run to dirty every code path's state.
        let buf = tg.buffer_by_name("b").unwrap();
        let starved = plan
            .run_with_capacities(&mut reused, &quanta, &[(buf, 2)])
            .unwrap();
        assert!(matches!(starved.outcome, SimOutcome::Deadlock { .. }));
        let second = plan.run(&mut reused, &quanta).unwrap();
        let fresh = plan.run(&mut plan.state(), &quanta).unwrap();

        for (label, report) in [("second", &second), ("fresh", &fresh)] {
            assert_eq!(first.outcome, report.outcome, "{label}");
            assert_eq!(first.violations, report.violations, "{label}");
            assert_eq!(first.trace, report.trace, "{label}");
            assert_eq!(first.events_processed, report.events_processed, "{label}");
            assert_eq!(first.end_time, report.end_time, "{label}");
            assert_eq!(first.endpoint.firings, report.endpoint.firings, "{label}");
        }
    }

    #[test]
    fn tick_overflow_is_graceful() {
        // Two coprime astronomically fine time bases: the denominator LCM
        // itself overflows i128.
        let p = i128::MAX / 2; // odd
        let tg = TaskGraph::linear_chain(
            [("wa", rat(1, p)), ("wb", rat(1, p - 1))],
            [("b", q(&[1]), q(&[1]))],
        )
        .unwrap();
        let mut tg = tg;
        let buf = tg.buffer_by_name("b").unwrap();
        tg.set_capacity(buf, 4);
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        let err = Simulator::new(
            &tg,
            QuantumPlan::uniform(QuantumPolicy::Max),
            SimConfig::self_timed(constraint),
        )
        .err()
        .expect("rescaling must be rejected");
        assert!(matches!(err, SimError::TickOverflow { .. }));
        assert!(err.to_string().contains("tick"));
    }

    #[test]
    fn event_queue_window_boundary_routes_wheel_vs_overflow() {
        // Hint 100 → 128 buckets, mask 127; clear(0) arms the full
        // window, so delta 127 is the last wheel-resident distance.
        let mut queue = EventQueue::new(8, 100);
        queue.clear(0);
        // Exactly at the window edge: wheel.
        queue.push(0, 127, 1, 0);
        assert_eq!(queue.wheel_len, 1);
        assert!(queue.overflow.is_empty());
        // One before the edge: wheel.
        queue.push(0, 126, 2, 1);
        assert_eq!(queue.wheel_len, 2);
        assert!(queue.overflow.is_empty());
        // One past the edge: overflow heap.
        queue.push(0, 128, 3, 2);
        assert_eq!(queue.wheel_len, 2);
        assert_eq!(queue.overflow.len(), 1);
        // Behind `now` (the negative-offset initial release): overflow.
        queue.push(10, 5, 4, 3);
        assert_eq!(queue.overflow.len(), 2);
        // Backward-jump slack shrinks the usable window by the jump.
        queue.clear(10);
        queue.push(0, 117, 5, 0);
        queue.push(0, 118, 6, 1);
        assert_eq!(queue.wheel_len, 1);
        assert_eq!(queue.overflow.len(), 1);
    }

    #[test]
    fn event_queue_drains_in_time_seq_order_across_the_window_edge() {
        let mut queue = EventQueue::new(8, 100);
        queue.clear(0);
        // seq 1 lands past the window (overflow); the clock then advances
        // and seqs 2–4 land on the wheel — at the same tick as the
        // overflowed event, one tick before, and one tick after.
        queue.push(0, 128, 1, 0);
        queue.push(64, 128, 2, 1);
        queue.push(64, 127, 3, 2);
        queue.push(64, 129, 4, 3);
        let mut drained = Vec::new();
        let mut now = 64;
        while let Some(t) = queue.next_time(now) {
            now = t;
            while queue.has_due(now) {
                #[allow(clippy::expect_used)]
                drained.push((now, queue.pop_due(now).expect("has_due")));
            }
        }
        // (time, seq) service order, FIFO across wheel and heap at the
        // shared tick 128: the overflowed seq-1 node drains before the
        // wheel's seq-2 node.
        assert_eq!(drained, vec![(127, 2), (128, 0), (128, 1), (129, 3)]);
        assert_eq!(queue.wheel_len, 0);
        assert!(queue.overflow.is_empty());
    }
}
