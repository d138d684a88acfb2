//! Per-application protocol policy: the knobs of §4's tradeoff.
//!
//! The paper's central claim is that no single security/availability
//! policy fits all applications, so the protocol exposes four parameters
//! per application (§4.1):
//!
//! * `M` — the number of managers (implied by the deployment),
//! * `C` — the **check quorum**: a host must hear from `C` managers before
//!   granting; the corresponding **update quorum** is `M − C + 1`,
//! * `Te` — the **revocation bound**: once a revoke reaches an update
//!   quorum, no host grants the revoked right more than `Te` later,
//! * `R` — the **attempt bound**: how many times a host retries the check
//!   before giving up, and whether giving up fails open (Figure 4) or
//!   closed.
//!
//! Plus the alternative **freeze strategy** of §3.3 (inaccessibility
//! period `Ti`).

use wanacl_sim::time::SimDuration;

/// What a host does when `R` check attempts have all failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionBehavior {
    /// Reject the access (security over availability; the default).
    FailClosed,
    /// Allow the access (availability over security — Figure 4, for
    /// "on-line magazines and newspapers").
    FailOpen,
}

/// How a host fans out check queries within one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryFanout {
    /// Query every manager in the current view and grant as soon as `C`
    /// grants arrive. Availability per attempt matches the paper's
    /// `PA(C)` exactly (any `C` accessible managers suffice); message
    /// cost is `O(M)` per check.
    All,
    /// Query a random `C`-subset per attempt, rotating subsets across
    /// retries. Message cost is the paper's `O(C)` per check; a single
    /// attempt succeeds only if the whole chosen subset is accessible.
    Subset,
    /// Figure 2's basic loop: "send query to **a** manager … while
    /// pending" — one manager per attempt, rotating deterministically
    /// across retries. Only meaningful with `C = 1` (enforced at build).
    Sequential,
}

/// The §3.3 freeze strategy: if any peer manager has been silent for
/// longer than `ti`, stop answering checks until the whole manager set is
/// mutually reachable again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreezePolicy {
    /// Inaccessibility period `Ti`. Must satisfy `Ti + te ≤ Te`.
    pub ti: SimDuration,
    /// How often managers exchange heartbeats (must be well under `ti`).
    pub heartbeat_interval: SimDuration,
}

/// Per-application policy. Build with [`Policy::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    check_quorum: usize,
    revocation_bound: SimDuration,
    clock_rate_bound: f64,
    query_timeout: SimDuration,
    max_attempts: u32,
    exhaustion: ExhaustionBehavior,
    freeze: Option<FreezePolicy>,
    cache_sweep_interval: SimDuration,
    fanout: QueryFanout,
    refresh_margin: Option<SimDuration>,
}

impl Policy {
    /// Starts building a policy with the given check quorum `C`.
    pub fn builder(check_quorum: usize) -> PolicyBuilder {
        PolicyBuilder::new(check_quorum)
    }

    /// The check quorum `C`.
    pub fn check_quorum(&self) -> usize {
        self.check_quorum
    }

    /// The update quorum `M − C + 1` for a deployment of `m` managers.
    ///
    /// Every completed update intersects every check quorum: a `C`-subset
    /// and an `(M−C+1)`-subset of an `M`-set always share an element.
    ///
    /// # Panics
    ///
    /// Panics if `m < C` (the policy cannot be satisfied at all).
    pub fn update_quorum(&self, m: usize) -> usize {
        assert!(
            m >= self.check_quorum,
            "deployment has {m} managers but policy requires check quorum {}",
            self.check_quorum
        );
        m - self.check_quorum + 1
    }

    /// The revocation bound `Te` (real time).
    pub fn revocation_bound(&self) -> SimDuration {
        self.revocation_bound
    }

    /// The clock-rate bound `b ∈ (0, 1]`.
    pub fn clock_rate_bound(&self) -> f64 {
        self.clock_rate_bound
    }

    /// The expiration budget `te = b · Te` that managers hand to hosts,
    /// measured on the *receiving host's* local clock (§3.2).
    pub fn expiry_budget(&self) -> SimDuration {
        self.revocation_bound.mul_f64(self.clock_rate_bound)
    }

    /// Per-attempt query timeout (host local clock).
    pub fn query_timeout(&self) -> SimDuration {
        self.query_timeout
    }

    /// The attempt bound `R`.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// What happens after `R` failed attempts.
    pub fn exhaustion(&self) -> ExhaustionBehavior {
        self.exhaustion
    }

    /// The freeze strategy, if enabled.
    pub fn freeze(&self) -> Option<FreezePolicy> {
        self.freeze
    }

    /// How often hosts sweep expired entries out of their caches.
    pub fn cache_sweep_interval(&self) -> SimDuration {
        self.cache_sweep_interval
    }

    /// The query fan-out strategy.
    pub fn fanout(&self) -> QueryFanout {
        self.fanout
    }

    /// Proactive lease refresh: if set, a host re-checks an *actively
    /// used* cached right this long (local clock) before the lease
    /// expires, so steady users never hit a cold check after the first.
    ///
    /// This is the "refreshed by a manager" mechanism §2.3 alludes to;
    /// it changes latency, not safety — a refresh is an ordinary check
    /// and a denial flushes the entry immediately.
    pub fn refresh_margin(&self) -> Option<SimDuration> {
        self.refresh_margin
    }

    /// The backoff schedule a host uses when its name-service lookup
    /// goes unanswered: starts at `2 · query_timeout` (the historical
    /// fixed retry period) and doubles per fruitless round up to 15 s,
    /// with deterministic ±10 % jitter so hosts that lost the name
    /// service together do not re-query in lockstep.
    pub fn ns_retry_backoff(&self) -> wanacl_sim::backoff::Backoff {
        let base = self.query_timeout + self.query_timeout;
        wanacl_sim::backoff::Backoff::new(base, SimDuration::from_secs(15).max(base)).jitter(0.1)
    }
}

impl Default for Policy {
    /// A balanced default: `C = 1`, `Te` = 60 s, perfect clocks assumed
    /// bounded at `b = 0.99`, 3 attempts, fail closed.
    fn default() -> Self {
        Policy::builder(1).build()
    }
}

/// Builder for [`Policy`] (C-BUILDER).
///
/// # Examples
///
/// ```
/// use wanacl_core::policy::{ExhaustionBehavior, Policy};
/// use wanacl_sim::time::SimDuration;
///
/// let policy = Policy::builder(3)
///     .revocation_bound(SimDuration::from_secs(30))
///     .clock_rate_bound(0.95)
///     .max_attempts(5)
///     .exhaustion(ExhaustionBehavior::FailOpen)
///     .build();
/// assert_eq!(policy.check_quorum(), 3);
/// assert_eq!(policy.update_quorum(10), 8);
/// // te = b * Te
/// assert_eq!(policy.expiry_budget(), SimDuration::from_millis(28_500));
/// ```
#[derive(Debug, Clone)]
pub struct PolicyBuilder {
    policy: Policy,
}

impl PolicyBuilder {
    fn new(check_quorum: usize) -> Self {
        assert!(check_quorum >= 1, "check quorum must be at least 1");
        PolicyBuilder {
            policy: Policy {
                check_quorum,
                revocation_bound: SimDuration::from_secs(60),
                clock_rate_bound: 0.99,
                query_timeout: SimDuration::from_millis(500),
                max_attempts: 3,
                exhaustion: ExhaustionBehavior::FailClosed,
                freeze: None,
                cache_sweep_interval: SimDuration::from_secs(30),
                fanout: QueryFanout::All,
                refresh_margin: None,
            },
        }
    }

    /// Sets the revocation bound `Te`.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn revocation_bound(mut self, te: SimDuration) -> Self {
        assert!(te > SimDuration::ZERO, "revocation bound must be positive");
        self.policy.revocation_bound = te;
        self
    }

    /// Sets the clock-rate bound `b`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < b <= 1`.
    pub fn clock_rate_bound(mut self, b: f64) -> Self {
        assert!(b > 0.0 && b <= 1.0, "clock rate bound must be in (0,1], got {b}");
        self.policy.clock_rate_bound = b;
        self
    }

    /// Sets the per-attempt query timeout.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn query_timeout(mut self, t: SimDuration) -> Self {
        assert!(t > SimDuration::ZERO, "query timeout must be positive");
        self.policy.query_timeout = t;
        self
    }

    /// Sets the attempt bound `R`.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn max_attempts(mut self, r: u32) -> Self {
        assert!(r >= 1, "at least one attempt is required");
        self.policy.max_attempts = r;
        self
    }

    /// Sets the behaviour after `R` failed attempts.
    pub fn exhaustion(mut self, e: ExhaustionBehavior) -> Self {
        self.policy.exhaustion = e;
        self
    }

    /// Enables the §3.3 freeze strategy.
    pub fn freeze(mut self, f: FreezePolicy) -> Self {
        self.policy.freeze = Some(f);
        self
    }

    /// Sets the query fan-out strategy (default [`QueryFanout::All`]).
    pub fn fanout(mut self, f: QueryFanout) -> Self {
        self.policy.fanout = f;
        self
    }

    /// Enables proactive lease refresh with the given margin before
    /// expiry.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is zero (the margin must also leave room
    /// inside `te`, validated at [`PolicyBuilder::build`]).
    pub fn refresh_margin(mut self, margin: SimDuration) -> Self {
        assert!(margin > SimDuration::ZERO, "refresh margin must be positive");
        self.policy.refresh_margin = Some(margin);
        self
    }

    /// Sets the host cache sweep interval.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn cache_sweep_interval(mut self, t: SimDuration) -> Self {
        assert!(t > SimDuration::ZERO, "sweep interval must be positive");
        self.policy.cache_sweep_interval = t;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if a freeze policy is set whose `Ti + te` exceeds `Te`
    /// (§3.3: "Ti and te must be chosen so that their sum is at most
    /// Te"), or if [`QueryFanout::Sequential`] is combined with a check
    /// quorum above 1.
    pub fn build(self) -> Policy {
        if self.policy.fanout == QueryFanout::Sequential {
            assert_eq!(
                self.policy.check_quorum, 1,
                "sequential fan-out queries one manager per attempt and needs C = 1"
            );
        }
        if let Some(margin) = self.policy.refresh_margin {
            assert!(
                margin < self.policy.expiry_budget(),
                "refresh margin must be smaller than the expiry budget te"
            );
        }
        if let Some(freeze) = self.policy.freeze {
            let te = self.policy.expiry_budget();
            let sum = freeze.ti + te;
            assert!(
                sum <= self.policy.revocation_bound,
                "freeze policy violates Ti + te <= Te: {} + {} > {}",
                freeze.ti,
                te,
                self.policy.revocation_bound
            );
            assert!(
                freeze.heartbeat_interval < freeze.ti,
                "heartbeat interval must be below Ti"
            );
        }
        self.policy
    }

    /// Finishes the build **without** the validity checks of
    /// [`build`](Self::build). Only for fault-injection and oracle
    /// tests that deliberately construct unsound configurations.
    pub fn build_unchecked(self) -> Policy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        let p = Policy::default();
        assert_eq!(p.check_quorum(), 1);
        assert_eq!(p.update_quorum(10), 10);
        assert_eq!(p.exhaustion(), ExhaustionBehavior::FailClosed);
        assert!(p.freeze().is_none());
    }

    #[test]
    fn quorum_intersection_identity() {
        // For every M and C: C + (M - C + 1) = M + 1 > M, so the two
        // quorums always intersect.
        for m in 1..=20usize {
            for c in 1..=m {
                let p = Policy::builder(c).build();
                let uq = p.update_quorum(m);
                assert!(c + uq > m, "M={m} C={c}: quorums must intersect");
                assert_eq!(c + uq, m + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "check quorum")]
    fn update_quorum_rejects_small_deployment() {
        Policy::builder(5).build().update_quorum(3);
    }

    #[test]
    fn expiry_budget_scales_with_rate_bound() {
        let p = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(100))
            .clock_rate_bound(0.9)
            .build();
        assert_eq!(p.expiry_budget(), SimDuration::from_secs(90));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_check_quorum_rejected() {
        let _ = Policy::builder(0);
    }

    #[test]
    #[should_panic(expected = "Ti + te <= Te")]
    fn freeze_sum_constraint_enforced() {
        let _ = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(60))
            .clock_rate_bound(1.0)
            .freeze(FreezePolicy {
                ti: SimDuration::from_secs(10),
                heartbeat_interval: SimDuration::from_secs(1),
            })
            .build();
    }

    #[test]
    fn freeze_accepts_valid_configuration() {
        let p = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(60))
            .clock_rate_bound(0.5) // te = 30 s
            .freeze(FreezePolicy {
                ti: SimDuration::from_secs(20),
                heartbeat_interval: SimDuration::from_secs(2),
            })
            .build();
        assert!(p.freeze().is_some());
    }

    #[test]
    #[should_panic(expected = "heartbeat interval")]
    fn freeze_heartbeat_must_beat_ti() {
        let _ = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(100))
            .clock_rate_bound(0.5)
            .freeze(FreezePolicy {
                ti: SimDuration::from_secs(10),
                heartbeat_interval: SimDuration::from_secs(10),
            })
            .build();
    }

    #[test]
    fn builder_setters_apply() {
        let p = Policy::builder(2)
            .query_timeout(SimDuration::from_millis(250))
            .max_attempts(7)
            .cache_sweep_interval(SimDuration::from_secs(5))
            .exhaustion(ExhaustionBehavior::FailOpen)
            .build();
        assert_eq!(p.query_timeout(), SimDuration::from_millis(250));
        assert_eq!(p.max_attempts(), 7);
        assert_eq!(p.cache_sweep_interval(), SimDuration::from_secs(5));
        assert_eq!(p.exhaustion(), ExhaustionBehavior::FailOpen);
    }

    #[test]
    #[should_panic(expected = "clock rate bound")]
    fn rate_bound_validated() {
        let _ = Policy::builder(1).clock_rate_bound(1.2);
    }

    #[test]
    fn fanout_defaults_to_all() {
        assert_eq!(Policy::default().fanout(), QueryFanout::All);
        let p = Policy::builder(2).fanout(QueryFanout::Subset).build();
        assert_eq!(p.fanout(), QueryFanout::Subset);
    }

    #[test]
    fn sequential_fanout_allowed_at_c1() {
        let p = Policy::builder(1).fanout(QueryFanout::Sequential).build();
        assert_eq!(p.fanout(), QueryFanout::Sequential);
    }

    #[test]
    #[should_panic(expected = "needs C = 1")]
    fn sequential_fanout_rejects_larger_quorum() {
        let _ = Policy::builder(2).fanout(QueryFanout::Sequential).build();
    }

    #[test]
    fn refresh_margin_accepted_when_inside_te() {
        let p = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(60))
            .refresh_margin(SimDuration::from_secs(5))
            .build();
        assert_eq!(p.refresh_margin(), Some(SimDuration::from_secs(5)));
        assert_eq!(Policy::default().refresh_margin(), None);
    }

    #[test]
    #[should_panic(expected = "smaller than the expiry budget")]
    fn refresh_margin_must_fit_in_te() {
        let _ = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(10))
            .refresh_margin(SimDuration::from_secs(10))
            .build();
    }
}
