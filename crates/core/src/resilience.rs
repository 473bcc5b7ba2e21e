//! Resilience policies: retry/backoff, circuit breaking, health-driven
//! eviction, and degraded fallback routing.
//!
//! The dispatch path composes four independent knobs, all configured on
//! [`ServerConfig`](crate::ServerConfig) and all defaulting to the
//! pre-resilience behaviour so existing simulations replay unchanged:
//!
//! * [`RetryConfig`] — how many attempts a failed invocation gets and how
//!   long to wait between them ([`RetryPolicy`]). Backoff jitter is a
//!   pure function of `(seed, request id, attempt)`, so identical runs
//!   produce identical waits.
//! * [`BreakerConfig`] / [`CircuitBreaker`] — per-device failure
//!   accounting. A device whose breaker is open receives no placements
//!   until a cooldown elapses; a half-open breaker admits probes and
//!   closes again after enough successes.
//! * [`EvictionConfig`] — how many consecutive failures a runner slot
//!   absorbs before it is quarantined (retired and replaced).
//! * [`FallbackConfig`] — degraded routing: when a kernel's preferred
//!   device class has no usable device, dispatch may fall back to a
//!   slower class (e.g. GPU→CPU) instead of failing, surfacing the fact
//!   via [`InvocationReport::degraded`](crate::InvocationReport).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use kaas_accel::{DeviceClass, DeviceId};
use kaas_simtime::rng::stream_rng;
use kaas_simtime::{now, sleep, SimTime};

use crate::metrics::registry::MetricsRegistry;
use crate::protocol::InvokeError;

/// Decides how long to wait before retry attempt `attempt` (1-based: the
/// wait before the second try is `backoff(1, ..)`).
///
/// Policies must be deterministic: any jitter has to derive from the
/// `(request, attempt)` arguments, never from shared mutable state, so
/// that identical simulations replay identical schedules regardless of
/// task interleaving.
pub trait RetryPolicy: fmt::Debug {
    /// Human-readable policy name (used in traces).
    fn name(&self) -> &'static str;

    /// The wait before retry `attempt` (1-based) of request `request`.
    fn backoff(&self, attempt: u32, request: u64) -> Duration;

    /// Clones the policy into a new box ([`Box<dyn RetryPolicy>`] itself
    /// implements [`Clone`] through this).
    fn box_clone(&self) -> Box<dyn RetryPolicy>;
}

impl Clone for Box<dyn RetryPolicy> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Retry immediately, no wait — the pre-resilience behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBackoff;

impl RetryPolicy for NoBackoff {
    fn name(&self) -> &'static str {
        "none"
    }

    fn backoff(&self, _attempt: u32, _request: u64) -> Duration {
        Duration::ZERO
    }

    fn box_clone(&self) -> Box<dyn RetryPolicy> {
        Box::new(*self)
    }
}

/// A constant wait between attempts.
#[derive(Debug, Clone, Copy)]
pub struct FixedBackoff {
    /// The wait applied before every retry.
    pub delay: Duration,
}

impl FixedBackoff {
    /// Creates a fixed-delay policy.
    pub fn new(delay: Duration) -> Self {
        FixedBackoff { delay }
    }
}

impl RetryPolicy for FixedBackoff {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn backoff(&self, _attempt: u32, _request: u64) -> Duration {
        self.delay
    }

    fn box_clone(&self) -> Box<dyn RetryPolicy> {
        Box::new(*self)
    }
}

/// Exponential backoff with a cap and deterministic jitter.
///
/// The wait before retry `n` is `min(base × multiplier^(n-1), cap)`,
/// scaled by a jitter factor drawn from `[1 - jitter, 1]`. The draw is a
/// pure function of `(seed, request, attempt)` via
/// [`kaas_simtime::rng::stream_rng`], so two runs of the same seeded
/// simulation back off identically.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialBackoff {
    /// First retry wait.
    pub base: Duration,
    /// Growth factor per attempt.
    pub multiplier: f64,
    /// Upper bound on any single wait.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1]`. Zero disables jitter.
    pub jitter: f64,
    /// Seed decorrelating this policy's jitter from other randomness.
    pub seed: u64,
}

impl ExponentialBackoff {
    /// Creates a policy with `multiplier` 2, a 10 s cap, and no jitter.
    pub fn new(base: Duration) -> Self {
        ExponentialBackoff {
            base,
            multiplier: 2.0,
            cap: Duration::from_secs(10),
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Sets the cap on any single wait.
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Enables deterministic jitter: waits scale by a factor drawn from
    /// `[1 - jitter, 1]`, seeded per `(request, attempt)`.
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self.seed = seed;
        self
    }
}

impl RetryPolicy for ExponentialBackoff {
    fn name(&self) -> &'static str {
        "exponential"
    }

    fn backoff(&self, attempt: u32, request: u64) -> Duration {
        let exp = self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let raw = self.base.as_secs_f64() * exp;
        let capped = raw.min(self.cap.as_secs_f64());
        let scale = if self.jitter > 0.0 {
            let mut rng = stream_rng(self.seed ^ request, attempt as u64);
            1.0 - self.jitter * rng.gen::<f64>()
        } else {
            1.0
        };
        Duration::from_secs_f64(capped * scale)
    }

    fn box_clone(&self) -> Box<dyn RetryPolicy> {
        Box::new(*self)
    }
}

/// Retry behaviour of the dispatch path.
///
/// The default reproduces the historical hard-coded behaviour: three
/// attempts, immediate retries, no budget.
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Total attempts per invocation (1 = no retries).
    pub max_attempts: u32,
    /// Wait policy between attempts.
    pub backoff: Box<dyn RetryPolicy>,
    /// Cap on the *summed* backoff wait per invocation; when the next
    /// wait would exceed the remaining budget it is truncated to fit, and
    /// a zero remaining budget stops retrying early. `None` = unbounded.
    pub budget: Option<Duration>,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            backoff: Box::new(NoBackoff),
            budget: None,
        }
    }
}

impl RetryConfig {
    /// Sets the total number of attempts (clamped to at least 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the backoff policy.
    pub fn with_backoff(mut self, policy: impl RetryPolicy + 'static) -> Self {
        self.backoff = Box::new(policy);
        self
    }

    /// Caps the summed backoff wait per invocation.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Tuning for a [`RetryBudget`] token bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudgetConfig {
    /// Tokens earned per fresh (non-retry) request, as a percentage of
    /// a whole retry: `10` means retries may be at most ~10% of fresh
    /// traffic in steady state.
    pub ratio_pct: u32,
    /// Bucket capacity in whole retries — the retry burst allowed after
    /// a quiet period (and the budget available before any fresh
    /// traffic has accrued tokens).
    pub burst: u32,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            ratio_pct: 10,
            burst: 10,
        }
    }
}

impl RetryBudgetConfig {
    /// Sets the retry-to-fresh percentage (clamped to at least 1).
    pub fn with_ratio_pct(mut self, pct: u32) -> Self {
        self.ratio_pct = pct.max(1);
        self
    }

    /// Sets the bucket capacity in whole retries (at least 1).
    pub fn with_burst(mut self, burst: u32) -> Self {
        self.burst = burst.max(1);
        self
    }
}

/// A token bucket that caps the retry-to-fresh request ratio, making
/// retry storms structurally impossible: under sustained overload the
/// extra load from retries converges to `ratio_pct`% of fresh traffic
/// instead of multiplying it by the attempt count.
///
/// Each fresh request deposits `ratio_pct`% of a token (tracked in
/// integral millitokens — no floats, so replays are exact); each retry
/// withdraws a whole token or is denied. The bucket starts full
/// (`burst` tokens) and is capped there.
///
/// Shared via [`Rc`] so one budget can govern every retry loop of a
/// client — or a server's flow executor — at once.
#[derive(Debug)]
pub struct RetryBudget {
    config: RetryBudgetConfig,
    /// Millitokens; one retry costs 1 000.
    tokens: Cell<u64>,
    fresh: Cell<u64>,
    spent: Cell<u64>,
    exhausted: Cell<u64>,
}

impl RetryBudget {
    /// Creates a full bucket.
    pub fn new(config: RetryBudgetConfig) -> Self {
        RetryBudget {
            config,
            tokens: Cell::new(u64::from(config.burst) * 1000),
            fresh: Cell::new(0),
            spent: Cell::new(0),
            exhausted: Cell::new(0),
        }
    }

    /// Records a fresh (non-retry) request, accruing `ratio_pct`% of a
    /// retry token, capped at `burst` whole tokens.
    pub fn note_fresh(&self) {
        self.fresh.set(self.fresh.get() + 1);
        let cap = u64::from(self.config.burst) * 1000;
        let next = self.tokens.get() + u64::from(self.config.ratio_pct) * 10;
        self.tokens.set(next.min(cap));
    }

    /// Attempts to spend one retry token. Returns `false` — and counts
    /// the denial — when the bucket holds less than a whole token: the
    /// caller must give up instead of retrying.
    pub fn try_spend(&self) -> bool {
        let t = self.tokens.get();
        if t >= 1000 {
            self.tokens.set(t - 1000);
            self.spent.set(self.spent.get() + 1);
            true
        } else {
            self.exhausted.set(self.exhausted.get() + 1);
            false
        }
    }

    /// Fresh requests recorded.
    pub fn fresh(&self) -> u64 {
        self.fresh.get()
    }

    /// Retries granted.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Retries denied for an empty bucket.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.get()
    }
}

/// The one retry decision of client calls and flow steps. Each caller
/// keeps its attempt loop, its retryable predicate and its backoff; the
/// gate owns the steps in between: fresh-request accounting, the attempt
/// cap, the budget token and the wait.
///
/// The server's `execute` loop in `dispatch.rs` stays separate: it
/// retries only `RunnerFailed`, re-places on every attempt and caps
/// backoff by elapsed time rather than by tokens.
#[derive(Debug)]
pub(crate) struct RetryGate<'b> {
    max_attempts: u32,
    budget: Option<&'b RetryBudget>,
}

impl<'b> RetryGate<'b> {
    /// Opens the gate for one fresh request, which accrues its share of
    /// retry tokens in `budget`.
    pub(crate) fn fresh(max_attempts: u32, budget: Option<&'b RetryBudget>) -> Self {
        if let Some(b) = budget {
            b.note_fresh();
        }
        RetryGate {
            max_attempts,
            budget,
        }
    }

    /// Decides whether failed attempt `attempt` (1-based) is retried,
    /// and if so waits before the retry. A retry needs attempts left, a
    /// `retryable` failure and a budget token; a denied token counts
    /// under `retries.budget_exhausted` in `metrics`. The wait is
    /// `backoff(attempt)` raised to the server's `retry_after` hint —
    /// cooperative backpressure: an overloaded server names its price.
    /// Returns `false` when the caller must give up with `err`.
    pub(crate) async fn retry(
        &self,
        attempt: u32,
        err: &InvokeError,
        retryable: bool,
        backoff: impl FnOnce(u32) -> Duration,
        metrics: &MetricsRegistry,
    ) -> bool {
        if attempt >= self.max_attempts || !retryable {
            return false;
        }
        if let Some(b) = self.budget {
            if !b.try_spend() {
                metrics.inc("retries.budget_exhausted");
                return false;
            }
        }
        let mut wait = backoff(attempt);
        if let InvokeError::Overloaded {
            retry_after: Some(hint),
        } = err
        {
            wait = wait.max(*hint);
        }
        if !wait.is_zero() {
            sleep(wait).await;
        }
        true
    }
}

/// The three circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerState {
    /// Healthy: all placements allowed.
    Closed,
    /// Tripped: no placements until the cooldown elapses.
    Open,
    /// Probing: placements allowed; enough successes re-close, any
    /// failure re-opens.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        f.write_str(s)
    }
}

/// Tuning for per-device [`CircuitBreaker`]s.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker blocks placements before probing.
    pub cooldown: Duration,
    /// Consecutive half-open successes that re-close the breaker.
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
            success_threshold: 2,
        }
    }
}

impl BreakerConfig {
    /// Sets the consecutive-failure trip threshold (at least 1).
    pub fn with_failure_threshold(mut self, n: u32) -> Self {
        self.failure_threshold = n.max(1);
        self
    }

    /// Sets the open-state cooldown.
    pub fn with_cooldown(mut self, cooldown: Duration) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Sets the half-open success threshold (at least 1).
    pub fn with_success_threshold(mut self, n: u32) -> Self {
        self.success_threshold = n.max(1);
        self
    }
}

/// A per-device circuit breaker (closed → open → half-open → closed).
///
/// Open → half-open happens lazily on the next
/// [`allows`](CircuitBreaker::allows)/[`state`](CircuitBreaker::state)
/// query once the cooldown has elapsed in virtual time — no background
/// task, so breakers add no events to the simulation on their own.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Cell<BreakerState>,
    consecutive_failures: Cell<u32>,
    half_open_successes: Cell<u32>,
    opened_at: Cell<SimTime>,
    trips: Cell<u64>,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: Cell::new(BreakerState::Closed),
            consecutive_failures: Cell::new(0),
            half_open_successes: Cell::new(0),
            opened_at: Cell::new(SimTime::ZERO),
            trips: Cell::new(0),
        }
    }

    /// The current state, advancing open → half-open if the cooldown has
    /// elapsed.
    pub fn state(&self) -> BreakerState {
        if self.state.get() == BreakerState::Open
            && now() >= self.opened_at.get() + self.config.cooldown
        {
            self.state.set(BreakerState::HalfOpen);
            self.half_open_successes.set(0);
        }
        self.state.get()
    }

    /// Whether placements on this device are currently allowed.
    pub fn allows(&self) -> bool {
        self.state() != BreakerState::Open
    }

    /// Records a successful invocation on the device.
    pub fn record_success(&self) {
        match self.state() {
            BreakerState::Closed => self.consecutive_failures.set(0),
            BreakerState::HalfOpen => {
                let n = self.half_open_successes.get() + 1;
                if n >= self.config.success_threshold {
                    self.state.set(BreakerState::Closed);
                    self.consecutive_failures.set(0);
                } else {
                    self.half_open_successes.set(n);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a failed invocation on the device; may trip the breaker.
    pub fn record_failure(&self) {
        match self.state() {
            BreakerState::Closed => {
                let n = self.consecutive_failures.get() + 1;
                self.consecutive_failures.set(n);
                if n >= self.config.failure_threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => {}
        }
    }

    /// Times the breaker tripped open over its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }

    fn trip(&self) {
        self.state.set(BreakerState::Open);
        self.opened_at.set(now());
        self.consecutive_failures.set(0);
        self.half_open_successes.set(0);
        self.trips.set(self.trips.get() + 1);
    }
}

/// Lazily allocated per-device breakers, keyed by [`DeviceId`].
///
/// When constructed without a config ([`BreakerBank::disabled`]) every
/// query reports a permanently closed breaker and records nothing — the
/// zero-cost default.
#[derive(Debug, Default)]
pub struct BreakerBank {
    config: Option<BreakerConfig>,
    breakers: std::cell::RefCell<BTreeMap<DeviceId, Rc<CircuitBreaker>>>,
}

impl BreakerBank {
    /// Creates a bank allocating a breaker per device on first use.
    pub fn new(config: BreakerConfig) -> Self {
        BreakerBank {
            config: Some(config),
            breakers: Default::default(),
        }
    }

    /// Creates a disabled bank: every device always reads as allowed.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether circuit breaking is enabled.
    pub fn enabled(&self) -> bool {
        self.config.is_some()
    }

    /// The breaker for `device` (allocated on first use); `None` when
    /// the bank is disabled.
    pub fn for_device(&self, device: DeviceId) -> Option<Rc<CircuitBreaker>> {
        let config = self.config?;
        Some(Rc::clone(
            self.breakers
                .borrow_mut()
                .entry(device)
                .or_insert_with(|| Rc::new(CircuitBreaker::new(config))),
        ))
    }

    /// Whether placements on `device` are allowed (`true` when disabled).
    pub fn allows(&self, device: DeviceId) -> bool {
        self.for_device(device).is_none_or(|b| b.allows())
    }

    /// Current state of every allocated breaker, in device order.
    pub fn states(&self) -> BTreeMap<DeviceId, BreakerState> {
        self.breakers
            .borrow()
            .iter()
            .map(|(id, b)| (*id, b.state()))
            .collect()
    }
}

/// When a runner slot is quarantined for persistent failure.
#[derive(Debug, Clone, Copy)]
pub struct EvictionConfig {
    /// Consecutive failures a slot absorbs before being quarantined
    /// (retired and replaced). The default of 1 reproduces the historical
    /// behaviour: any failure retires the runner.
    pub failure_threshold: u32,
}

impl Default for EvictionConfig {
    fn default() -> Self {
        EvictionConfig {
            failure_threshold: 1,
        }
    }
}

impl EvictionConfig {
    /// Sets the consecutive-failure threshold (at least 1).
    pub fn with_failure_threshold(mut self, n: u32) -> Self {
        self.failure_threshold = n.max(1);
        self
    }
}

/// Degraded fallback routing: device classes to try when the preferred
/// class has no usable device.
///
/// The default is empty (no fallback — placement failures surface as
/// errors, the historical behaviour).
#[derive(Debug, Clone, Default)]
pub struct FallbackConfig {
    routes: Vec<(DeviceClass, DeviceClass)>,
}

impl FallbackConfig {
    /// No fallback routes (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// The classic degradation: GPU work falls back to CPU.
    pub fn gpu_to_cpu() -> Self {
        Self::none().with_route(DeviceClass::Gpu, DeviceClass::Cpu)
    }

    /// Adds a route: when `from` has no usable device, try `to`.
    pub fn with_route(mut self, from: DeviceClass, to: DeviceClass) -> Self {
        self.routes.push((from, to));
        self
    }

    /// The fallback class for `from`, if a route is configured.
    pub fn next(&self, from: DeviceClass) -> Option<DeviceClass> {
        self.routes
            .iter()
            .find(|(f, _)| *f == from)
            .map(|(_, t)| *t)
    }

    /// Whether any routes are configured.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaas_simtime::{sleep, Simulation};

    #[test]
    fn default_retry_config_matches_historical_behaviour() {
        let c = RetryConfig::default();
        assert_eq!(c.max_attempts, 3);
        assert_eq!(c.backoff.backoff(1, 42), Duration::ZERO);
        assert!(c.budget.is_none());
    }

    #[test]
    fn exponential_backoff_grows_and_caps() {
        let p = ExponentialBackoff::new(Duration::from_millis(100))
            .with_cap(Duration::from_millis(350));
        assert_eq!(p.backoff(1, 0), Duration::from_millis(100));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(200));
        // 400 ms capped to 350 ms.
        assert_eq!(p.backoff(3, 0), Duration::from_millis(350));
    }

    #[test]
    fn jitter_is_deterministic_per_request_and_attempt() {
        let p = ExponentialBackoff::new(Duration::from_millis(100)).with_jitter(0.5, 7);
        let a = p.backoff(2, 11);
        let b = p.backoff(2, 11);
        assert_eq!(a, b, "same (request, attempt) ⇒ same wait");
        assert_ne!(
            p.backoff(2, 11),
            p.backoff(2, 12),
            "different requests decorrelate"
        );
        // Jittered waits stay within [1 - jitter, 1] × nominal.
        let nominal = Duration::from_millis(200);
        assert!(a <= nominal && a >= nominal / 2, "a={a:?}");
    }

    #[test]
    fn cloned_policy_boxes_agree() {
        let p: Box<dyn RetryPolicy> =
            Box::new(ExponentialBackoff::new(Duration::from_millis(50)).with_jitter(0.3, 3));
        let q = p.clone();
        assert_eq!(p.backoff(3, 9), q.backoff(3, 9));
        assert_eq!(p.name(), "exponential");
    }

    #[test]
    fn retry_budget_caps_the_retry_to_fresh_ratio() {
        let b = RetryBudget::new(
            RetryBudgetConfig::default()
                .with_ratio_pct(10)
                .with_burst(5),
        );
        // The initial burst drains...
        for _ in 0..5 {
            assert!(b.try_spend());
        }
        // ...then an empty bucket denies.
        assert!(!b.try_spend());
        assert_eq!(b.exhausted(), 1);
        // 10 fresh requests earn exactly one retry.
        for _ in 0..10 {
            b.note_fresh();
        }
        assert!(b.try_spend());
        assert!(!b.try_spend());
        assert_eq!((b.fresh(), b.spent(), b.exhausted()), (10, 6, 2));
    }

    #[test]
    fn retry_budget_refill_caps_at_burst() {
        let b = RetryBudget::new(
            RetryBudgetConfig::default()
                .with_ratio_pct(100)
                .with_burst(2),
        );
        for _ in 0..50 {
            b.note_fresh();
        }
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(
            !b.try_spend(),
            "quiet periods must not bank unbounded retries"
        );
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let b = CircuitBreaker::new(
                BreakerConfig::default()
                    .with_failure_threshold(3)
                    .with_cooldown(Duration::from_secs(1))
                    .with_success_threshold(2),
            );
            assert_eq!(b.state(), BreakerState::Closed);
            b.record_failure();
            b.record_failure();
            assert!(b.allows(), "below threshold stays closed");
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Open);
            assert!(!b.allows());
            assert_eq!(b.trips(), 1);

            // Cooldown elapses in virtual time → half-open probes.
            sleep(Duration::from_secs(1)).await;
            assert_eq!(b.state(), BreakerState::HalfOpen);
            assert!(b.allows());

            b.record_success();
            assert_eq!(
                b.state(),
                BreakerState::HalfOpen,
                "one success is not enough"
            );
            b.record_success();
            assert_eq!(b.state(), BreakerState::Closed);
        });
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let b = CircuitBreaker::new(
                BreakerConfig::default()
                    .with_failure_threshold(1)
                    .with_cooldown(Duration::from_millis(100)),
            );
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Open);
            sleep(Duration::from_millis(100)).await;
            assert_eq!(b.state(), BreakerState::HalfOpen);
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Open);
            assert_eq!(b.trips(), 2);
        });
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let b = CircuitBreaker::new(BreakerConfig::default().with_failure_threshold(2));
            b.record_failure();
            b.record_success();
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
        });
    }

    #[test]
    fn disabled_bank_always_allows() {
        let bank = BreakerBank::disabled();
        assert!(!bank.enabled());
        assert!(bank.allows(DeviceId(3)));
        assert!(bank.for_device(DeviceId(3)).is_none());
        assert!(bank.states().is_empty());
    }

    #[test]
    fn bank_allocates_one_breaker_per_device() {
        let mut sim = Simulation::new();
        sim.block_on(async {
            let bank = BreakerBank::new(BreakerConfig::default().with_failure_threshold(1));
            let b = bank.for_device(DeviceId(0)).unwrap();
            b.record_failure();
            assert!(!bank.allows(DeviceId(0)));
            assert!(bank.allows(DeviceId(1)), "other devices unaffected");
            let states = bank.states();
            assert_eq!(states[&DeviceId(0)], BreakerState::Open);
        });
    }

    #[test]
    fn fallback_routes_resolve() {
        let f = FallbackConfig::gpu_to_cpu();
        assert_eq!(f.next(DeviceClass::Gpu), Some(DeviceClass::Cpu));
        assert_eq!(f.next(DeviceClass::Fpga), None);
        assert!(FallbackConfig::none().is_empty());
    }

    #[test]
    fn eviction_default_is_historical() {
        assert_eq!(EvictionConfig::default().failure_threshold, 1);
    }
}
