//! Linear bounds on token transfer times (Section 4.2, Figs. 3 and 4).
//!
//! The buffer-capacity argument never constructs the actual run-time
//! schedule.  Instead it shows that, for *every* sequence of transfer
//! quanta, a schedule **exists** whose token production times stay below a
//! linear upper bound `α̂p` and whose token consumption times stay above a
//! linear lower bound `α̌c`, both with the throughput-derived rate.  The
//! minimum vertical distance between the two bounds of one actor is:
//!
//! * producer `v_a` (Eq. 1): `ρ(v_a) + t·(π̂(e_ab) − 1)`
//! * consumer `v_b` (Eq. 2): `ρ(v_b) + t·(γ̂(e_ab) − 1)`
//!
//! where `t` is the bound's time-per-token.  Summing both gives the
//! distance between the space-production and space-consumption bounds on
//! the reverse edge (Eq. 3), which Eq. 4 converts into initial tokens.
//!
//! [`ExistenceSchedule`] materialises the witness schedules of Figs. 3–4
//! so that tests (and the `tables` driver) can check
//! conservativeness for arbitrary quantum sequences.

use crate::rational::Rational;

/// A linear bound on cumulative token-transfer times: token `k` (1-based)
/// maps to time `offset + (k − 1) · token_period`.
///
/// # Examples
///
/// ```
/// use vrdf_core::{LinearBound, Rational};
///
/// let b = LinearBound::new(Rational::ZERO, Rational::new(1, 3));
/// assert_eq!(b.time_of(1), Rational::ZERO);
/// assert_eq!(b.time_of(4), Rational::ONE);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinearBound {
    offset: Rational,
    token_period: Rational,
}

impl LinearBound {
    /// Creates a bound anchored so that token 1 maps to `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `token_period` is not strictly positive.
    pub fn new(offset: Rational, token_period: Rational) -> LinearBound {
        assert!(
            token_period.is_positive(),
            "token period must be strictly positive"
        );
        LinearBound {
            offset,
            token_period,
        }
    }

    /// The bound's time for token `k` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; tokens are counted from 1 as in the paper.
    pub fn time_of(&self, k: u64) -> Rational {
        assert!(k >= 1, "tokens are counted starting from 1");
        self.offset + Rational::from(k - 1) * self.token_period
    }

    /// Anchor time of token 1.
    #[inline]
    pub fn offset(&self) -> Rational {
        self.offset
    }

    /// Time per token.
    #[inline]
    pub fn token_period(&self) -> Rational {
        self.token_period
    }

    /// The same bound shifted by `delta` in time.
    pub fn shifted(&self, delta: Rational) -> LinearBound {
        LinearBound {
            offset: self.offset + delta,
            token_period: self.token_period,
        }
    }
}

/// The bound distances of Eqs. (1)–(3) for one producer–consumer pair.
///
/// All distances are expressed with the pair's bound rate `t` time per
/// token (`token_period`).
///
/// # Examples
///
/// The Fig. 2 pair (`m = {3}`, `n = {2,3}`) with `τ = 3t`:
///
/// ```
/// use vrdf_core::{PairGaps, Rational};
///
/// let t = Rational::new(1, 3);
/// let gaps = PairGaps::new(t, Rational::new(1, 2), Rational::new(1, 2), 3, 3);
/// assert_eq!(gaps.producer_gap(), Rational::new(1, 2) + t * Rational::from(2u64));
/// assert_eq!(gaps.total_gap(), gaps.producer_gap() + gaps.consumer_gap());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairGaps {
    token_period: Rational,
    producer_response: Rational,
    consumer_response: Rational,
    producer_max_quantum: u64,
    consumer_max_quantum: u64,
}

impl PairGaps {
    /// Creates the gap calculator for one pair.
    ///
    /// * `token_period` — time per token of the bounds (`τ/γ̂(e_ab)` for a
    ///   sink-constrained pair).
    /// * `producer_response` / `consumer_response` — `ρ(v_a)`, `ρ(v_b)`.
    /// * `producer_max_quantum` / `consumer_max_quantum` — `π̂(e_ab)`,
    ///   `γ̂(e_ab)`.
    ///
    /// # Panics
    ///
    /// Panics if `token_period` is not strictly positive or a maximum
    /// quantum is zero.
    pub fn new(
        token_period: Rational,
        producer_response: Rational,
        consumer_response: Rational,
        producer_max_quantum: u64,
        consumer_max_quantum: u64,
    ) -> PairGaps {
        assert!(
            token_period.is_positive(),
            "token period must be strictly positive"
        );
        assert!(
            producer_max_quantum >= 1 && consumer_max_quantum >= 1,
            "maximum quanta must be at least 1"
        );
        PairGaps {
            token_period,
            producer_response,
            consumer_response,
            producer_max_quantum,
            consumer_max_quantum,
        }
    }

    /// Time per token of the bounds.
    #[inline]
    pub fn token_period(&self) -> Rational {
        self.token_period
    }

    /// Eq. (1): minimum distance between the producer's data-production
    /// bound `α̂p(e_ab)` and its space-consumption bound `α̌c(e_ba)`:
    /// `ρ(v_a) + t·(π̂(e_ab) − 1)`.
    pub fn producer_gap(&self) -> Rational {
        self.producer_response + self.token_period * Rational::from(self.producer_max_quantum - 1)
    }

    /// Eq. (2): minimum distance between the consumer's space-production
    /// bound `α̂p(e_ba)` and its data-consumption bound `α̌c(e_ab)`:
    /// `ρ(v_b) + t·(γ̂(e_ab) − 1)`.
    pub fn consumer_gap(&self) -> Rational {
        self.consumer_response + self.token_period * Rational::from(self.consumer_max_quantum - 1)
    }

    /// Eq. (3): minimum distance between the space-production and
    /// space-consumption bounds on the reverse edge — the sum of the two
    /// per-actor gaps.
    pub fn total_gap(&self) -> Rational {
        self.producer_gap() + self.consumer_gap()
    }

    /// Eq. (4): the sufficient number of initial tokens on the reverse
    /// edge — the buffer capacity in containers.  This is the largest
    /// integer less than or equal to `total_gap / t + 1`.
    ///
    /// The result is always at least `π̂ + γ̂ − 1`, the well-known minimum
    /// for a data-independent pair with zero response times.
    pub fn sufficient_initial_tokens(&self) -> u64 {
        let tokens = self.total_gap() / self.token_period + Rational::ONE;
        let floored = tokens.floor();
        debug_assert!(floored >= 1);
        floored as u64
    }

    /// As [`PairGaps::producer_gap`], with `i128` overflow surfaced as
    /// `None` instead of a panic.
    pub fn checked_producer_gap(&self) -> Option<Rational> {
        self.token_period
            .checked_mul(Rational::from(self.producer_max_quantum - 1))
            .and_then(|t| self.producer_response.checked_add(t))
    }

    /// As [`PairGaps::consumer_gap`], with `i128` overflow surfaced as
    /// `None` instead of a panic.
    pub fn checked_consumer_gap(&self) -> Option<Rational> {
        self.token_period
            .checked_mul(Rational::from(self.consumer_max_quantum - 1))
            .and_then(|t| self.consumer_response.checked_add(t))
    }

    /// As [`PairGaps::total_gap`], with `i128` overflow surfaced as
    /// `None` instead of a panic.
    pub fn checked_total_gap(&self) -> Option<Rational> {
        self.checked_producer_gap()?
            .checked_add(self.checked_consumer_gap()?)
    }

    /// As [`PairGaps::sufficient_initial_tokens`], with `i128`/`u64`
    /// overflow surfaced as `None` instead of a panic.
    pub fn checked_sufficient_initial_tokens(&self) -> Option<u64> {
        let tokens = self
            .checked_total_gap()?
            .checked_div(self.token_period)?
            .checked_add(Rational::ONE)?;
        u64::try_from(tokens.floor()).ok()
    }

    /// The pair of bounds on the **forward** (data) edge, anchored so the
    /// producer's first firing starts at time zero: `α̂p(e_ab)` has token 1
    /// at `ρ(v_a)`, and `α̌c(e_ab)` sits `consumer_gap` below the space
    /// bound `α̂p(e_ba)` such that `α̂p(e_ab) ≤ α̌c(e_ab)` holds with the
    /// minimum slack (the "sufficient initial tokens" construction).
    pub fn data_edge_bounds(&self) -> EdgeBounds {
        let production = LinearBound::new(self.producer_response, self.token_period);
        // The data consumption bound may coincide with the data production
        // bound (the enabling condition requires alpha_p <= alpha_c).
        let consumption = production;
        EdgeBounds {
            production,
            consumption,
        }
    }

    /// The pair of bounds on the **reverse** (space) edge under the same
    /// anchoring as [`PairGaps::data_edge_bounds`]: space consumption
    /// happens `producer_gap` before data production (Eq. 1), and space
    /// production happens `consumer_gap` after data consumption (Eq. 2).
    pub fn space_edge_bounds(&self) -> EdgeBounds {
        let data = self.data_edge_bounds();
        EdgeBounds {
            production: data.consumption.shifted(self.consumer_gap()),
            consumption: data.production.shifted(-self.producer_gap()),
        }
    }
}

/// The linear upper bound on production times and lower bound on
/// consumption times for one edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeBounds {
    /// Upper bound on token production times, `α̂p`.
    pub production: LinearBound,
    /// Lower bound on token consumption times, `α̌c`.
    pub consumption: LinearBound,
}

/// One firing in an existence schedule: which tokens it transfers and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiringEvent {
    /// Zero-based firing index.
    pub firing: usize,
    /// Start time; input tokens are consumed atomically here.
    pub start: Rational,
    /// Finish time (`start + ρ`); output tokens are produced atomically here.
    pub finish: Rational,
    /// 1-based index of the first token transferred in this firing.
    pub first_token: u64,
    /// The quantum transferred (may be zero for firings that skip an edge).
    pub quantum: u64,
}

impl FiringEvent {
    /// 1-based index of the last token transferred, or `None` when the
    /// quantum is zero.
    pub fn last_token(&self) -> Option<u64> {
        (self.quantum > 0).then(|| self.first_token + self.quantum - 1)
    }
}

/// A witness schedule demonstrating that the linear bounds are
/// conservative for one concrete quantum sequence (the construction behind
/// Figs. 3 and 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExistenceSchedule {
    events: Vec<FiringEvent>,
    response_time: Rational,
}

impl ExistenceSchedule {
    /// The producer-side witness: the firing that produces tokens
    /// `x .. x+q−1` produces token `x` exactly at the upper bound
    /// `production.time_of(x)` — its start is `ρ` earlier (Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if `response_time` is negative.
    pub fn producer(
        quanta: &[u64],
        bounds: EdgeBounds,
        response_time: Rational,
    ) -> ExistenceSchedule {
        assert!(!response_time.is_negative(), "response time must be >= 0");
        let mut events = Vec::with_capacity(quanta.len());
        let mut next_token = 1u64;
        for (firing, &q) in quanta.iter().enumerate() {
            let finish = bounds.production.time_of(next_token);
            let start = finish - response_time;
            events.push(FiringEvent {
                firing,
                start,
                finish,
                first_token: next_token,
                quantum: q,
            });
            next_token += q;
        }
        ExistenceSchedule {
            events,
            response_time,
        }
    }

    /// The consumer-side witness: the firing that consumes tokens
    /// `x .. x+q−1` starts exactly at the lower bound of its *last* token,
    /// `consumption.time_of(x+q−1)`, which keeps every consumed token on
    /// or above the bound (Fig. 3).
    ///
    /// Zero-quantum firings start at the bound of the *previous* token
    /// (they consume nothing, so any start works; this keeps starts
    /// monotone).
    ///
    /// # Panics
    ///
    /// Panics if `response_time` is negative.
    pub fn consumer(
        quanta: &[u64],
        bounds: EdgeBounds,
        response_time: Rational,
    ) -> ExistenceSchedule {
        assert!(!response_time.is_negative(), "response time must be >= 0");
        let mut events = Vec::with_capacity(quanta.len());
        let mut next_token = 1u64;
        for (firing, &q) in quanta.iter().enumerate() {
            let anchor_token = if q == 0 {
                next_token.saturating_sub(1).max(1)
            } else {
                next_token + q - 1
            };
            let start = bounds.consumption.time_of(anchor_token);
            events.push(FiringEvent {
                firing,
                start,
                finish: start + response_time,
                first_token: next_token,
                quantum: q,
            });
            next_token += q;
        }
        ExistenceSchedule {
            events,
            response_time,
        }
    }

    /// The firings of the schedule, in order.
    #[inline]
    pub fn events(&self) -> &[FiringEvent] {
        &self.events
    }

    /// The actor's response time used to construct the schedule.
    #[inline]
    pub fn response_time(&self) -> Rational {
        self.response_time
    }

    /// `true` when every production time (firing finish) is on or below
    /// the production upper bound, for every token of every firing.
    pub fn productions_respect(&self, bound: LinearBound) -> bool {
        self.events.iter().all(|e| {
            e.last_token()
                .map_or(true, |_| e.finish <= bound.time_of(e.first_token))
        })
    }

    /// `true` when every consumption time (firing start) is on or above
    /// the consumption lower bound, for every token of every firing.
    pub fn consumptions_respect(&self, bound: LinearBound) -> bool {
        self.events.iter().all(|e| {
            e.last_token()
                .map_or(true, |last| e.start >= bound.time_of(last))
        })
    }

    /// `true` when consecutive starts are at least `ρ` apart, i.e. no
    /// firing starts before the previous one finished — the validity
    /// condition of Section 4.2.
    pub fn start_spacing_valid(&self) -> bool {
        self.events
            .windows(2)
            .all(|w| w[1].start - w[0].start >= self.response_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn linear_bound_evaluation() {
        let b = LinearBound::new(rat(1, 2), rat(1, 3));
        assert_eq!(b.time_of(1), rat(1, 2));
        assert_eq!(b.time_of(2), rat(5, 6));
        assert_eq!(b.offset(), rat(1, 2));
        assert_eq!(b.token_period(), rat(1, 3));
        assert_eq!(b.shifted(rat(1, 2)).time_of(1), rat(1, 1));
    }

    #[test]
    #[should_panic(expected = "counted starting from 1")]
    fn token_zero_panics() {
        LinearBound::new(Rational::ZERO, Rational::ONE).time_of(0);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn non_positive_period_panics() {
        let _ = LinearBound::new(Rational::ZERO, Rational::ZERO);
    }

    /// Fig. 2 / Section 4.1: m = {3}, n = {2,3}, vb periodic with
    /// period tau; bound rate 3 tokens per tau.
    fn fig2_gaps(rho_a: Rational, rho_b: Rational, tau: Rational) -> PairGaps {
        PairGaps::new(tau / rat(3, 1), rho_a, rho_b, 3, 3)
    }

    #[test]
    fn equations_1_to_3() {
        let tau = rat(3, 1);
        let g = fig2_gaps(rat(1, 2), rat(1, 4), tau);
        let t = rat(1, 1);
        assert_eq!(g.token_period(), t);
        // Eq (1): rho_a + t*(pi_hat - 1) = 1/2 + 2.
        assert_eq!(g.producer_gap(), rat(5, 2));
        // Eq (2): rho_b + t*(gamma_hat - 1) = 1/4 + 2.
        assert_eq!(g.consumer_gap(), rat(9, 4));
        // Eq (3) is the sum.
        assert_eq!(g.total_gap(), rat(19, 4));
    }

    #[test]
    fn equation_4_flooring() {
        let g = fig2_gaps(rat(1, 2), rat(1, 4), rat(3, 1));
        // total/t + 1 = 19/4 + 1 = 5.75 -> 5.
        assert_eq!(g.sufficient_initial_tokens(), 5);
        // Zero response times: d = pi_hat + gamma_hat - 1 = 5.
        let g0 = fig2_gaps(Rational::ZERO, Rational::ZERO, rat(3, 1));
        assert_eq!(g0.sufficient_initial_tokens(), 5);
        // Exactly integral boundary is kept (floor is inclusive).
        let g1 = fig2_gaps(rat(1, 1), rat(1, 1), rat(3, 1));
        assert_eq!(g1.sufficient_initial_tokens(), 7);
    }

    #[test]
    fn bounds_anchoring_is_consistent() {
        let g = fig2_gaps(rat(1, 2), rat(1, 4), rat(3, 1));
        let data = g.data_edge_bounds();
        let space = g.space_edge_bounds();
        // Enabling condition: data production bound <= data consumption bound.
        assert!(data.production.time_of(1) <= data.consumption.time_of(1));
        // Space bounds are total_gap apart (Eq. 3).
        assert_eq!(
            space.production.time_of(1) - space.consumption.time_of(1),
            g.total_gap()
        );
    }

    #[test]
    fn producer_existence_schedule_is_conservative() {
        // Producer with pi = {2,3}, pi_hat = 3.
        let t = rat(1, 1);
        let g = PairGaps::new(t, rat(1, 2), rat(1, 4), 3, 3);
        let data = g.data_edge_bounds();
        let space = g.space_edge_bounds();
        let quanta = [3, 2, 3, 3, 2, 2, 3];
        let sched = ExistenceSchedule::producer(&quanta, data, rat(1, 2));
        assert!(sched.productions_respect(data.production));
        // The producer consumes space tokens with the same indices at its
        // starts: they must respect the space consumption bound.
        assert!(sched.consumptions_respect(space.consumption));
        // rho(va) = 1/2 <= pi_min * t = 2: spacing valid.
        assert!(sched.start_spacing_valid());
        assert_eq!(sched.events().len(), quanta.len());
        assert_eq!(sched.events()[0].first_token, 1);
        assert_eq!(sched.events()[1].first_token, 4);
        assert_eq!(sched.response_time(), rat(1, 2));
    }

    #[test]
    fn producer_spacing_invalid_when_response_time_too_large() {
        let t = rat(1, 1);
        let g = PairGaps::new(t, rat(5, 2), Rational::ZERO, 3, 3);
        let data = g.data_edge_bounds();
        // rho = 5/2 > pi_min * t = 2 when a quantum of 2 occurs.
        let sched = ExistenceSchedule::producer(&[3, 2, 3], data, rat(5, 2));
        assert!(!sched.start_spacing_valid());
        // With only maximal quanta the spacing is still fine.
        let sched = ExistenceSchedule::producer(&[3, 3, 3], data, rat(5, 2));
        assert!(sched.start_spacing_valid());
    }

    #[test]
    fn consumer_existence_schedule_is_conservative() {
        let t = rat(1, 1);
        let g = PairGaps::new(t, rat(1, 2), rat(1, 4), 3, 3);
        let data = g.data_edge_bounds();
        let space = g.space_edge_bounds();
        // Fig. 3's sequence: consume/produce 2 then 3 (and some more).
        let quanta = [2, 3, 2, 2, 3];
        let sched = ExistenceSchedule::consumer(&quanta, data, rat(1, 4));
        assert!(sched.consumptions_respect(data.consumption));
        // Space productions (same token indices, at firing finish) respect
        // the space production bound.
        assert!(sched.productions_respect(space.production));
    }

    #[test]
    fn consumer_zero_quantum_firings_are_allowed() {
        let t = rat(1, 1);
        let g = PairGaps::new(t, Rational::ZERO, Rational::ZERO, 3, 3);
        let data = g.data_edge_bounds();
        let sched = ExistenceSchedule::consumer(&[0, 2, 0, 3], data, Rational::ZERO);
        assert!(sched.consumptions_respect(data.consumption));
        assert_eq!(sched.events()[0].quantum, 0);
        assert_eq!(sched.events()[0].last_token(), None);
        assert_eq!(sched.events()[3].first_token, 3);
    }

    #[test]
    fn firing_event_last_token() {
        let e = FiringEvent {
            firing: 0,
            start: Rational::ZERO,
            finish: Rational::ZERO,
            first_token: 5,
            quantum: 3,
        };
        assert_eq!(e.last_token(), Some(7));
    }
}
